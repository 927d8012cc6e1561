//! Fixed-memory streaming sketches for attack-shape summaries.
//!
//! Exact per-key state is unaffordable at ingress scale — a hostile
//! keyspace (spoofed sources are arbitrary 32-bit addresses) can force an
//! exact counter map to grow without bound. Each structure here answers
//! one shape question in memory fixed at construction, with a proven
//! error bound, and merges losslessly with a sibling built with the same
//! parameters (so per-interval sketches can roll up into longer windows):
//!
//! * [`CountMin`] — point-frequency estimates. Never underestimates;
//!   overestimates by at most `ε·N` with probability `1 − δ` for
//!   `width ≥ ⌈e/ε⌉`, `depth ≥ ⌈ln(1/δ)⌉` (Cormode & Muthukrishnan 2005).
//! * [`SpaceSaving`] — top-K heavy hitters. With capacity `m` over a
//!   stream of `N` updates, every reported count overestimates the true
//!   count by at most its recorded error, and that error is `≤ N/m`;
//!   any key with true count `> N/m` is guaranteed present (Metwally,
//!   Agrawal & El Abbadi 2005).
//! * [`Hll`] — distinct-count estimates, HyperLogLog-style. With
//!   `m = 2^p` one-byte registers the standard error is `≈ 1.04/√m`
//!   (Flajolet et al. 2007); small cardinalities fall back to linear
//!   counting over empty registers.
//!
//! All three are single-writer (`&mut self` on the record path) like
//! [`crate::Histogram`]; wrap in a lock for shared use. No allocation
//! happens after construction — [`SpaceSaving`] finds its keys by scanning
//! its (few) entries rather than through a map that would rehash under
//! eviction churn, and [`SpaceSaving::top_into`] writes into a
//! caller-provided slice — so a sampled hot path can update them inside a
//! zero-allocation budget.

/// Final avalanche of splitmix64: a cheap, well-mixed 64-bit hash for
/// integer keys. Distinct seeds give (empirically) independent-enough
/// hash functions for the Count-Min rows.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Count-Min sketch over `u64` keys.
///
/// `depth` rows of `width` counters; an update adds to one counter per
/// row, an estimate takes the minimum across rows. Collisions only ever
/// *inflate* a counter, hence the one-sided bound: for any key,
/// `true ≤ estimate ≤ true + ε·N` with probability `≥ 1 − δ`, where
/// `ε = e/width`, `δ = e^−depth`, and `N` is the total count recorded.
#[derive(Debug, Clone)]
pub struct CountMin {
    /// Row length; power of two so the row index is a mask, not a modulo.
    width: usize,
    depth: usize,
    /// `depth × width` counters, row-major.
    rows: Vec<u64>,
    /// Total weight recorded (the `N` in the error bound).
    total: u64,
}

impl CountMin {
    /// Creates a sketch with `width` rounded up to a power of two
    /// (minimum 16) and `depth` clamped to `1..=8`. Memory is
    /// `width × depth × 8` bytes, allocated here and never again.
    pub fn new(width: usize, depth: usize) -> CountMin {
        let width = width.max(16).next_power_of_two();
        let depth = depth.clamp(1, 8);
        CountMin {
            width,
            depth,
            rows: vec![0; width * depth],
            total: 0,
        }
    }

    /// Adds `count` occurrences of `key`.
    #[inline]
    pub fn record(&mut self, key: u64, count: u64) {
        let mask = (self.width - 1) as u64;
        for row in 0..self.depth {
            let idx = (mix64(key ^ ((row as u64 + 1) << 56)) & mask) as usize;
            self.rows[row * self.width + idx] += count;
        }
        self.total += count;
    }

    /// Point-frequency estimate for `key`: never less than the true
    /// count, at most `true + e/width × total()` w.p. `1 − e^−depth`.
    pub fn estimate(&self, key: u64) -> u64 {
        let mask = (self.width - 1) as u64;
        let mut best = u64::MAX;
        for row in 0..self.depth {
            let idx = (mix64(key ^ ((row as u64 + 1) << 56)) & mask) as usize;
            best = best.min(self.rows[row * self.width + idx]);
        }
        if best == u64::MAX {
            0
        } else {
            best
        }
    }

    /// Total weight recorded — the `N` in the `ε·N` bound.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Row length (power of two).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Folds `other` in (counter-wise sum). Panics if dimensions differ —
    /// merging differently-shaped sketches is a construction bug.
    pub fn merge(&mut self, other: &CountMin) {
        assert_eq!(self.width, other.width, "CountMin width mismatch");
        assert_eq!(self.depth, other.depth, "CountMin depth mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// Zeroes every counter without releasing memory.
    pub fn reset(&mut self) {
        self.rows.fill(0);
        self.total = 0;
    }
}

/// One monitored key in a [`SpaceSaving`] summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry {
    /// The key.
    pub key: u64,
    /// Estimated count; overestimates the true count by at most `err`.
    pub count: u64,
    /// Maximum possible overestimate for this entry (the evicted
    /// count it inherited its slot from).
    pub err: u64,
}

/// SpaceSaving heavy-hitter summary over `u64` keys.
///
/// Keeps exactly `capacity` monitored keys. A hit on a monitored key
/// increments it; a new key evicts the current minimum, inheriting its
/// count (recorded as `err`). Guarantees, for `N` total updates:
/// every `count ≥ true count`, `count − err ≤ true count`, `err ≤ N/capacity`,
/// and any key with `true count > N/capacity` is monitored.
#[derive(Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// Found by scan: capacities are tens of entries, a new key scans
    /// them all for the minimum anyway, and a hash index over
    /// attacker-chosen keys re-allocates to shed tombstones every so many
    /// evictions however generously it was reserved.
    entries: Vec<TopEntry>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a summary monitoring at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> SpaceSaving {
        let capacity = capacity.max(1);
        SpaceSaving {
            capacity,
            entries: Vec::with_capacity(capacity),
            total: 0,
        }
    }

    /// Adds `count` occurrences of `key`.
    pub fn record(&mut self, key: u64, count: u64) {
        self.total += count;
        if let Some(entry) = self.entry_mut(key) {
            entry.count += count;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(TopEntry { key, count, err: 0 });
            return;
        }
        // Evict the minimum-count entry; the newcomer inherits its count
        // as the upper bound on overestimation.
        let (mut min_i, mut min_count) = (0, u64::MAX);
        for (i, e) in self.entries.iter().enumerate() {
            if e.count < min_count {
                min_i = i;
                min_count = e.count;
            }
        }
        let evicted = self.entries[min_i];
        self.entries[min_i] = TopEntry {
            key,
            count: evicted.count + count,
            err: evicted.count,
        };
    }

    fn entry_mut(&mut self, key: u64) -> Option<&mut TopEntry> {
        self.entries.iter_mut().find(|e| e.key == key)
    }

    /// Total updates recorded — the `N` in the `N/capacity` bound.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the top entries by estimated count (descending, key
    /// ascending on ties) into `out`, returning how many were written.
    /// Selection-sorts into the caller's slice so the hot seal path
    /// allocates nothing.
    pub fn top_into(&self, out: &mut [TopEntry]) -> usize {
        let n = out.len().min(self.entries.len());
        if n == 0 {
            return 0;
        }
        // Track which source entries were already taken (capacity is
        // small — tens — so O(n·cap) scans beat allocating a sort buffer).
        let mut taken = [false; 256];
        if self.entries.len() > taken.len() {
            // Oversized summary: fall back to an allocating sort.
            let mut sorted = self.entries.clone();
            sorted.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
            out[..n].copy_from_slice(&sorted[..n]);
            return n;
        }
        for slot in out.iter_mut().take(n) {
            let mut best: Option<usize> = None;
            for (i, e) in self.entries.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        let bb = &self.entries[b];
                        if e.count > bb.count || (e.count == bb.count && e.key < bb.key) {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let i = best.expect("n bounded by entries.len()");
            taken[i] = true;
            *slot = self.entries[i];
        }
        n
    }

    /// Top entries by estimated count, descending (allocating variant).
    pub fn top(&self, k: usize) -> Vec<TopEntry> {
        let mut out = vec![
            TopEntry {
                key: 0,
                count: 0,
                err: 0
            };
            k.min(self.entries.len())
        ];
        let n = self.top_into(&mut out);
        out.truncate(n);
        out
    }

    /// Folds `other` in. Merged counts stay one-sided (never
    /// underestimate) and the `N/capacity` bound holds for the combined
    /// total; keys only monitored in `other` are recorded with their
    /// count + error as a conservative insertion.
    pub fn merge(&mut self, other: &SpaceSaving) {
        for e in &other.entries {
            self.total += e.count;
            if let Some(entry) = self.entry_mut(e.key) {
                entry.count += e.count;
                entry.err += e.err;
            } else {
                // Route through record's eviction logic, then restore the
                // entry's carried error on top of whatever it inherited.
                self.total -= e.count; // record() re-adds it
                self.record(e.key, e.count);
                if let Some(entry) = self.entry_mut(e.key) {
                    entry.err += e.err;
                }
            }
        }
    }

    /// Clears all monitored keys without releasing memory.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.total = 0;
    }
}

/// HyperLogLog-style distinct counter over `u64` keys.
///
/// `2^p` one-byte registers; each key updates one register with the
/// leading-zero rank of its hash remainder. The harmonic-mean estimate
/// has standard error `≈ 1.04/√(2^p)` (~3.2% at `p = 10`, 1 KiB);
/// cardinalities below `2.5·m` use linear counting over empty registers
/// instead, which is more accurate in that range.
#[derive(Debug, Clone)]
pub struct Hll {
    p: u32,
    registers: Vec<u8>,
}

impl Hll {
    /// Creates a counter with `2^p` registers, `p` clamped to `4..=16`.
    pub fn new(p: u32) -> Hll {
        let p = p.clamp(4, 16);
        Hll {
            p,
            registers: vec![0; 1 << p],
        }
    }

    /// Records one observation of `key`. Idempotent per key-hash.
    #[inline]
    pub fn record(&mut self, key: u64) {
        let h = mix64(key);
        let idx = (h >> (64 - self.p)) as usize;
        // Rank of the first set bit in the remaining 64−p bits, 1-based.
        let rest = h << self.p;
        let rank = (rest.leading_zeros() + 1).min(64 - self.p + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct keys recorded.
    pub fn estimate(&self) -> u64 {
        let m = self.registers.len() as f64;
        let mut sum = 0.0;
        let mut zeros = 0u64;
        for &r in &self.registers {
            sum += 1.0 / f64::from(1u32 << u32::from(r.min(31)));
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let raw = alpha * m * m / sum;
        let est = if raw <= 2.5 * m && zeros > 0 {
            // Linear counting: better for small cardinalities.
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        est.round() as u64
    }

    /// Register precision exponent (`2^p` registers).
    pub fn precision(&self) -> u32 {
        self.p
    }

    /// Folds `other` in (register-wise max — exact for set union).
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &Hll) {
        assert_eq!(self.p, other.p, "Hll precision mismatch");
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Zeroes every register without releasing memory.
    pub fn reset(&mut self) {
        self.registers.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_min_never_underestimates() {
        let mut cm = CountMin::new(64, 4);
        for k in 0..200u64 {
            cm.record(k, k + 1);
        }
        for k in 0..200u64 {
            assert!(cm.estimate(k) > k, "underestimated key {k}");
        }
        assert_eq!(cm.total(), (1..=200).sum::<u64>());
        assert_eq!(cm.estimate(9_999), cm.estimate(9_999)); // deterministic
    }

    #[test]
    fn count_min_merge_equals_combined_stream() {
        let mut a = CountMin::new(64, 4);
        let mut b = CountMin::new(64, 4);
        let mut whole = CountMin::new(64, 4);
        for k in 0..100u64 {
            a.record(k, 2);
            whole.record(k, 2);
        }
        for k in 50..150u64 {
            b.record(k, 3);
            whole.record(k, 3);
        }
        a.merge(&b);
        for k in 0..150u64 {
            assert_eq!(a.estimate(k), whole.estimate(k));
        }
        assert_eq!(a.total(), whole.total());
    }

    #[test]
    fn count_min_reset_zeroes() {
        let mut cm = CountMin::new(32, 2);
        cm.record(7, 100);
        cm.reset();
        assert_eq!(cm.estimate(7), 0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn space_saving_finds_the_heavy_hitter() {
        let mut ss = SpaceSaving::new(8);
        // One key gets half the stream; noise keys churn the rest.
        for i in 0..1_000u64 {
            ss.record(42, 1);
            ss.record(1_000 + i, 1);
        }
        let top = ss.top(3);
        assert_eq!(top[0].key, 42);
        assert!(top[0].count >= 1_000);
        // Guaranteed bound: count − err ≤ true ≤ count.
        assert!(top[0].count - top[0].err <= 1_000);
        assert!(ss.total() == 2_000);
    }

    #[test]
    fn space_saving_error_bounded_by_n_over_m() {
        let mut ss = SpaceSaving::new(10);
        for i in 0..5_000u64 {
            ss.record(i % 100, 1);
        }
        let bound = ss.total() / 10;
        for e in ss.top(10) {
            assert!(e.err <= bound, "err {} > N/m {}", e.err, bound);
        }
    }

    #[test]
    fn space_saving_top_into_matches_top() {
        let mut ss = SpaceSaving::new(16);
        for i in 0..500u64 {
            ss.record(i % 23, i % 7 + 1);
        }
        let mut buf = [TopEntry {
            key: 0,
            count: 0,
            err: 0,
        }; 8];
        let n = ss.top_into(&mut buf);
        assert_eq!(ss.top(8), buf[..n].to_vec());
    }

    #[test]
    fn space_saving_merge_keeps_one_sided_counts() {
        let mut a = SpaceSaving::new(8);
        let mut b = SpaceSaving::new(8);
        let mut exact = std::collections::HashMap::new();
        for i in 0..300u64 {
            a.record(i % 12, 1);
            *exact.entry(i % 12).or_insert(0u64) += 1;
        }
        for i in 0..300u64 {
            b.record(i % 9, 1);
            *exact.entry(i % 9).or_insert(0u64) += 1;
        }
        a.merge(&b);
        assert_eq!(a.total(), 600);
        for e in a.top(8) {
            let truth = exact[&e.key];
            assert!(e.count >= truth, "merged count must not underestimate");
        }
    }

    #[test]
    fn hll_estimates_within_advertised_error() {
        let mut hll = Hll::new(10);
        let n = 10_000u64;
        for k in 0..n {
            hll.record(k);
        }
        let est = hll.estimate() as f64;
        // 1.04/√1024 ≈ 3.25% standard error; allow 5σ for a fixed seed.
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.17, "HLL estimate {est} off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn hll_small_range_is_near_exact() {
        let mut hll = Hll::new(10);
        for k in 0..50u64 {
            hll.record(k);
            hll.record(k); // duplicates must not inflate
        }
        let est = hll.estimate();
        assert!((45..=55).contains(&est), "linear-count estimate {est}");
    }

    #[test]
    fn hll_merge_is_union() {
        let mut a = Hll::new(10);
        let mut b = Hll::new(10);
        let mut whole = Hll::new(10);
        for k in 0..3_000u64 {
            a.record(k);
            whole.record(k);
        }
        for k in 2_000..5_000u64 {
            b.record(k);
            whole.record(k);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }
}
