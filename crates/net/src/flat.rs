//! A fixed-capacity open-addressing table from packed `u64` keys to
//! non-zero `u32` values, for state whose keys an attacker chooses: the
//! scan-analysis counters, the index over the EIA sightings window, and
//! the index over a shard's open alerts.
//!
//! Sized once for its owner's bound, it never grows, rehashes or
//! allocates afterwards. Linear probing over a power-of-two slot array at
//! most half full; a zero value marks a free slot; deletion shifts the
//! probe run back, so there are no tombstones to sweep.
//!
//! # Examples
//!
//! ```
//! use infilter_net::FlatTable;
//!
//! let mut counts = FlatTable::new(200);
//! assert_eq!(counts.add(443, 1), 1);
//! assert_eq!(counts.add(443, 1), 2);
//! assert_eq!(counts.sub(443, 1), 1);
//! assert_eq!(counts.sub(443, u32::MAX), 0); // removed
//! assert_eq!((counts.get(443), counts.len()), (0, 0));
//! ```

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FlatTable {
    slots: Box<[(u64, u32)]>,
    shift: u32,
    multiplier: u64,
    len: usize,
}

impl FlatTable {
    /// A table for up to `capacity` live keys.
    pub fn new(capacity: usize) -> FlatTable {
        // Fibonacci multiply-shift: the product's top bits mix every key
        // bit, so sequential scan targets spread.
        FlatTable::with_multiplier(capacity, 0x9e37_79b9_7f4a_7c15)
    }

    /// [`FlatTable::new`] with another odd hash multiplier — what a
    /// per-process hash key would vary. Nothing a caller observes may
    /// depend on it; tests swap it to prove that.
    pub fn with_multiplier(capacity: usize, multiplier: u64) -> FlatTable {
        let slots = (capacity * 2).next_power_of_two().max(2);
        FlatTable {
            slots: vec![(0, 0); slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            multiplier,
            len: 0,
        }
    }

    /// Live keys.
    #[allow(clippy::len_without_is_empty)] // a gauge, not a container API
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The slot holding `key`, or the free slot it would take.
    #[inline]
    fn find(&self, key: u64) -> usize {
        let mut slot = self.home(key);
        while self.slots[slot].1 != 0 && self.slots[slot].0 != key {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        slot
    }

    /// The value under `key`; 0 when absent.
    #[inline]
    pub fn get(&self, key: u64) -> u32 {
        self.slots[self.find(key)].1
    }

    /// Adds `n > 0` to the value under `key` (0 when absent) and returns
    /// the sum.
    ///
    /// # Panics
    ///
    /// Panics on a new key once `capacity` keys are live: the owner's bound
    /// is broken, and a full table would never end a probe.
    #[inline]
    pub fn add(&mut self, key: u64, n: u32) -> u32 {
        let slot = self.find(key);
        if self.slots[slot].1 == 0 {
            assert!(self.len * 2 < self.slots.len(), "flat table over capacity");
            self.slots[slot].0 = key;
            self.len += 1;
        }
        self.slots[slot].1 += n;
        self.slots[slot].1
    }

    /// Subtracts `n`, saturating, from the value under `key` and returns
    /// what is left; at 0 the key is removed (`u32::MAX` removes outright).
    #[inline]
    pub fn sub(&mut self, key: u64, n: u32) -> u32 {
        let mut hole = self.find(key);
        let left = self.slots[hole].1.saturating_sub(n);
        if left != 0 || self.slots[hole].1 == 0 {
            self.slots[hole].1 = left;
            return left;
        }
        // Backward shift: each later entry of the probe run moves into the
        // hole unless that would put it before its home slot.
        let mask = self.slots.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.slots[next].1 != 0 {
            let home = self.home(self.slots[next].0);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole].1 = 0;
        self.len -= 1;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Random add/sub/remove traffic over a small key space (long probe
    /// runs, wrap-around, deletes mid-run) against a `HashMap`, for the
    /// default multiplier and a degenerate one that homes every key in a
    /// handful of slots.
    #[test]
    fn behaves_like_a_map_of_counters() {
        for multiplier in [0x9e37_79b9_7f4a_7c15, (1 << 61) | 1] {
            let mut table = FlatTable::with_multiplier(24, multiplier);
            let mut model: HashMap<u64, u32> = HashMap::new();
            let mut state = 0x1f11u64;
            for _ in 0..20_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let key = (((state >> 33) % 40) << 48) | ((state >> 20) % 3);
                match (state >> 60) % 4 {
                    0 | 1 if model.len() < 24 || model.contains_key(&key) => {
                        let want = *model.entry(key).and_modify(|v| *v += 1).or_insert(1);
                        assert_eq!(table.add(key, 1), want);
                    }
                    2 => {
                        let want = model.get(&key).map_or(0, |v| v - 1);
                        if want == 0 {
                            model.remove(&key);
                        } else {
                            model.insert(key, want);
                        }
                        assert_eq!(table.sub(key, 1), want);
                    }
                    3 => {
                        model.remove(&key);
                        assert_eq!(table.sub(key, u32::MAX), 0);
                    }
                    _ => {}
                }
                assert_eq!(table.len(), model.len());
                assert_eq!(table.get(key), model.get(&key).copied().unwrap_or(0));
            }
            for (key, want) in &model {
                assert_eq!(table.get(*key), *want, "key {key:#x} lost to a shift");
            }
        }
    }

    /// How the engine's alert index uses the table: fill it to capacity
    /// with positions, then forget every key by walking them in queue
    /// order. No key may be stranded behind a hole on the way, and the
    /// emptied table takes the next fill.
    #[test]
    fn forgetting_every_key_in_turn_empties_the_table() {
        for multiplier in [0x9e37_79b9_7f4a_7c15, (1 << 61) | 1] {
            let mut table = FlatTable::with_multiplier(256, multiplier);
            let mut model: HashMap<u64, u32> = HashMap::new();
            for round in 0..3u64 {
                let key = |i: u64| ((i % 7) << 34) | (i.wrapping_mul(0x0101_0101) + round);
                for i in 0..256 {
                    assert_eq!(table.get(key(i)), 0);
                    assert_eq!(table.add(key(i), i as u32 + 1), i as u32 + 1);
                    model.insert(key(i), i as u32 + 1);
                }
                for i in 0..256 {
                    assert_eq!(table.sub(key(i), u32::MAX), 0);
                    model.remove(&key(i));
                    assert_eq!(table.len(), model.len());
                    for (key, position) in &model {
                        assert_eq!(table.get(*key), *position, "key {key:#x} stranded");
                    }
                }
            }
        }
    }

    #[test]
    fn smallest_table_still_probes() {
        let mut table = FlatTable::new(1);
        assert_eq!(table.add(7, 3), 3);
        assert_eq!(table.get(8), 0);
        assert_eq!(table.sub(7, 1), 2);
        assert_eq!(table.sub(7, u32::MAX), 0);
        assert_eq!(table.len(), 0);
    }

    #[test]
    #[should_panic(expected = "flat table over capacity")]
    fn refuses_to_fill_up() {
        let mut table = FlatTable::new(2);
        for key in 0..3 {
            table.add(key, 1);
        }
    }
}
