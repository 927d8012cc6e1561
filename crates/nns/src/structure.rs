use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::BitVec;

/// Parameters of the KOR structure (paper Figure 6; defaults from §4.2:
/// `d = 720`, `M1 = 1`, `M2 = 12`, `M3 = 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NnsParams {
    /// Point dimension; also the number of distance-scale substructures.
    pub d: usize,
    /// Tables per substructure.
    pub m1: usize,
    /// Test vectors per table (table size is `2^m2`).
    pub m2: usize,
    /// Trace-ball radius used at build time (points enter every index
    /// within Hamming distance `< m3` of their trace).
    pub m3: usize,
}

impl Default for NnsParams {
    fn default() -> NnsParams {
        NnsParams {
            d: 720,
            m1: 1,
            m2: 12,
            m3: 3,
        }
    }
}

/// The outcome of a search: which training point was found and its exact
/// Hamming distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NnResult {
    /// Index of the found point in the training slice passed to
    /// [`NnsStructure::build`].
    pub index: usize,
    /// Exact Hamming distance between the query and that point.
    pub distance: u32,
}

/// Errors from [`NnsStructure::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// A training point's length disagreed with `params.d`.
    DimensionMismatch {
        /// Index of the offending point.
        index: usize,
        /// Its length.
        got: usize,
        /// The expected dimension.
        expected: usize,
    },
    /// `m2` exceeds the 24-bit table-size cap or a parameter was zero.
    BadParams(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyTrainingSet => write!(f, "training set is empty"),
            BuildError::DimensionMismatch {
                index,
                got,
                expected,
            } => write!(f, "point {index} has dimension {got}, expected {expected}"),
            BuildError::BadParams(msg) => write!(f, "bad parameters: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

pub(crate) const EMPTY: u32 = u32::MAX;

/// The KOR search structure over a cluster of training points, stored as
/// flat contiguous word arenas.
///
/// All `d × M1 × M2` test vectors live in one `Vec<u64>` matrix with a
/// fixed word stride per row, all `d × M1` tables' entries in one
/// `Vec<u32>`, and all training points in one flat point arena — so
/// `search` walks sequential memory instead of chasing one heap pointer
/// per test vector, and a query performs zero heap allocations. The
/// build-only trace-distance scratch is not stored (or serialized): where
/// several points' trace balls overlap an entry, the point whose trace is
/// closest to the entry index wins; the original algorithm stores all of
/// them and returns an arbitrary one, so keeping the best-anchored point
/// is a faithful, memory-bounded refinement.
///
/// Build cost is `O(n · d · M1 · (M2·d/64 + ball(M2, M3)))`, parallelized
/// over the `d` distance scales; search cost is
/// `O(log d · M1 · M2 · d/64)` — "at most quadratic in the dimension" as
/// the paper puts it. Memory is `O(d · M1 · 2^M2)` entries, polynomial in
/// the training-set size as guaranteed by \[KOR\].
///
/// # Examples
///
/// ```
/// use infilter_nns::{BitVec, NnsParams, NnsStructure};
///
/// let train = vec![
///     BitVec::from_bits((0..32).map(|i| i < 4)),   // 4 leading ones
///     BitVec::from_bits((0..32).map(|i| i < 28)),  // 28 leading ones
/// ];
/// let params = NnsParams { d: 32, m1: 2, m2: 8, m3: 2 };
/// let s = NnsStructure::build(&train, params, 1).unwrap();
/// let q = BitVec::from_bits((0..32).map(|i| i < 5));
/// assert_eq!(s.search(&q).unwrap().index, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NnsStructure {
    params: NnsParams,
    seed: u64,
    /// Number of training points in the arena.
    n_points: usize,
    /// Test-vector matrix: row `((t-1)·m1 + j)·m2 + k` (stride
    /// `d.div_ceil(64)` words) is test vector `k` of table `T_tj`.
    test_vectors: Vec<u64>,
    /// Table entries: index `((t-1)·m1 + j)·2^m2 + z` holds the training
    /// point entered at trace index `z` of table `T_tj` (`u32::MAX` =
    /// empty).
    entries: Vec<u32>,
    /// Flat point arena: point `i` occupies words
    /// `i·stride..(i+1)·stride`.
    point_words: Vec<u64>,
}

/// Trace of `point` in a table (the `M2`-bit string of inner products mod
/// 2 with the table's test vectors). `tests` is the table's slice of the
/// test-vector matrix: `m2` rows of `row_words` words each.
#[inline]
fn trace(tests: &[u64], row_words: usize, m2: usize, point: &[u64]) -> usize {
    let mut z = 0usize;
    for (k, row) in tests.chunks_exact(row_words).take(m2).enumerate() {
        z |= (BitVec::dot_mod2_words(row, point) as usize) << k;
    }
    z
}

pub(crate) fn validate(points: &[BitVec], params: NnsParams) -> Result<(), BuildError> {
    if points.is_empty() {
        return Err(BuildError::EmptyTrainingSet);
    }
    if params.d == 0 || params.m1 == 0 || params.m2 == 0 {
        return Err(BuildError::BadParams("d, m1, m2 must be positive".into()));
    }
    if params.m2 > 24 {
        return Err(BuildError::BadParams(format!(
            "m2 = {} would allocate 2^{} table entries",
            params.m2, params.m2
        )));
    }
    if params.m3 > params.m2 {
        return Err(BuildError::BadParams(format!(
            "m3 = {} exceeds m2 = {}",
            params.m3, params.m2
        )));
    }
    for (index, p) in points.iter().enumerate() {
        if p.len() != params.d {
            return Err(BuildError::DimensionMismatch {
                index,
                got: p.len(),
                expected: params.d,
            });
        }
    }
    Ok(())
}

impl NnsStructure {
    /// Builds the structure over `points` (Figure 6), parallelizing across
    /// the `d` distance scales with one thread per available core.
    ///
    /// Each table `T_tj` derives its own RNG from `mix(seed, &(t, j))` and
    /// writes to a disjoint region of the arenas, so the result is
    /// bit-identical for every thread count (see
    /// [`NnsStructure::build_with_threads`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for an empty training set, inconsistent
    /// dimensions, or unusable parameters.
    pub fn build(
        points: &[BitVec],
        params: NnsParams,
        seed: u64,
    ) -> Result<NnsStructure, BuildError> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::build_with_threads(points, params, seed, threads)
    }

    /// [`NnsStructure::build`] with an explicit thread count (`0` and `1`
    /// both build serially on the calling thread). Output is bit-identical
    /// across thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for an empty training set, inconsistent
    /// dimensions, or unusable parameters.
    pub fn build_with_threads(
        points: &[BitVec],
        params: NnsParams,
        seed: u64,
        threads: usize,
    ) -> Result<NnsStructure, BuildError> {
        validate(points, params)?;

        let stride = params.d.div_ceil(64);
        let mut point_words = vec![0u64; points.len() * stride];
        for (arena_row, p) in point_words.chunks_exact_mut(stride).zip(points) {
            arena_row.copy_from_slice(p.words());
        }

        let ball = ball_masks(params.m2, params.m3);
        let table_size = 1usize << params.m2;
        // Words of test vectors / table entries per distance scale.
        let scale_tv = params.m1 * params.m2 * stride;
        let scale_en = params.m1 * table_size;
        let mut test_vectors = vec![0u64; params.d * scale_tv];
        let mut entries = vec![EMPTY; params.d * scale_en];

        let threads = threads.clamp(1, params.d);
        if threads == 1 {
            build_scales(
                1,
                &mut test_vectors,
                &mut entries,
                params,
                seed,
                &point_words,
                &ball,
            );
        } else {
            // Split the scales into `threads` contiguous chunks; each chunk
            // owns a disjoint slice of both arenas, and every (t, j) table
            // is computed exactly as in the serial build.
            let chunk = params.d.div_ceil(threads);
            std::thread::scope(|scope| {
                for (c, (tv_chunk, en_chunk)) in test_vectors
                    .chunks_mut(chunk * scale_tv)
                    .zip(entries.chunks_mut(chunk * scale_en))
                    .enumerate()
                {
                    let (point_words, ball) = (&point_words, &ball);
                    scope.spawn(move || {
                        build_scales(
                            c * chunk + 1,
                            tv_chunk,
                            en_chunk,
                            params,
                            seed,
                            point_words,
                            ball,
                        );
                    });
                }
            });
        }

        Ok(NnsStructure {
            params,
            seed,
            n_points: points.len(),
            test_vectors,
            entries,
            point_words,
        })
    }

    /// The build parameters.
    pub fn params(&self) -> NnsParams {
        self.params
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// Whether the structure holds no points (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// The training point at `index` as its packed words (stride
    /// `d.div_ceil(64)`, trailing bits zero).
    pub fn point_words(&self, index: usize) -> &[u64] {
        let stride = self.params.d.div_ceil(64);
        &self.point_words[index * stride..(index + 1) * stride]
    }

    /// The whole test-vector matrix (rows in scale-major `(t, j, k)` order,
    /// stride `d.div_ceil(64)` words) — exposed for parity tests.
    #[doc(hidden)]
    pub fn test_vector_words(&self) -> &[u64] {
        &self.test_vectors
    }

    /// All table entries in scale-major `(t, j)` order, `2^m2` slots per
    /// table — exposed for parity tests.
    #[doc(hidden)]
    pub fn entry_slots(&self) -> &[u32] {
        &self.entries
    }

    /// Approximate nearest-neighbour search (Figure 8): binary search over
    /// distance scales; at scale `t` the tables of `S_t` are probed at the
    /// query's trace; a non-empty entry steers the search to smaller scales.
    /// Among every candidate the probes surface, the one with the smallest
    /// *exact* Hamming distance to the query is returned (the original
    /// algorithm returns the flow of the last non-empty entry; verifying
    /// candidates exactly is cheap and strictly improves accuracy). Returns
    /// `None` if every probe missed.
    ///
    /// Performs zero heap allocations: the trace and the exact-distance
    /// verification walk the contiguous arenas directly.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from `params.d`.
    pub fn search(&self, query: &BitVec) -> Option<NnResult> {
        self.search_observed(query, &mut SearchStats::default())
    }

    /// [`NnsStructure::search`] with work accounting: increments `stats`
    /// with the scales visited, tables probed, and candidates verified, so
    /// callers can histogram how hard each lookup worked. Same result,
    /// same zero-allocation guarantee; the counters are a few register
    /// increments against hundreds of table probes.
    pub fn search_observed(&self, query: &BitVec, stats: &mut SearchStats) -> Option<NnResult> {
        assert_eq!(query.len(), self.params.d, "query dimension mismatch");
        let qw = query.words();
        let stride = self.params.d.div_ceil(64);
        let tv_per_table = self.params.m2 * stride;
        let table_size = 1usize << self.params.m2;
        let mut lo = 1usize;
        let mut hi = self.params.d;
        let mut best: Option<NnResult> = None;
        while lo <= hi {
            let t = lo + (hi - lo) / 2;
            stats.scales_probed += 1;
            let mut hit = false;
            for j in 0..self.params.m1 {
                let table = (t - 1) * self.params.m1 + j;
                let tests = &self.test_vectors[table * tv_per_table..][..tv_per_table];
                let z = trace(tests, stride, self.params.m2, qw);
                stats.tables_probed += 1;
                let entry = self.entries[table * table_size + z];
                if entry != EMPTY {
                    hit = true;
                    stats.candidates_verified += 1;
                    let index = entry as usize;
                    let point = &self.point_words[index * stride..][..stride];
                    let distance = BitVec::hamming_words(point, qw);
                    if best.is_none_or(|b| (distance, index) < (b.distance, b.index)) {
                        best = Some(NnResult { index, distance });
                    }
                }
            }
            if hit {
                if t == 1 {
                    break;
                }
                hi = t - 1;
            } else {
                lo = t + 1;
            }
        }
        best
    }
}

/// Work counters accumulated by [`NnsStructure::search_observed`] — the
/// observation hook the pipeline's telemetry histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distance scales the binary search visited.
    pub scales_probed: u32,
    /// Hash tables probed (`scales_probed × m1`).
    pub tables_probed: u32,
    /// Non-empty entries whose exact Hamming distance was computed.
    pub candidates_verified: u32,
}

/// Builds the tables for the contiguous run of distance scales starting at
/// `first_t` whose arena slices are `tests_out` / `entries_out`. Exactly
/// the serial per-table algorithm — thread counts change only how scales
/// are grouped, never what a table contains.
fn build_scales(
    first_t: usize,
    tests_out: &mut [u64],
    entries_out: &mut [u32],
    params: NnsParams,
    seed: u64,
    point_words: &[u64],
    ball: &[usize],
) {
    let stride = params.d.div_ceil(64);
    let table_size = 1usize << params.m2;
    let tv_per_table = params.m2 * stride;
    let n_scales = entries_out.len() / (params.m1 * table_size);
    // Build-time scratch: the trace distance of each entry's current
    // winner. Reused across this chunk's tables, never stored.
    let mut entry_dist = vec![u8::MAX; table_size];
    for s in 0..n_scales {
        let t = first_t + s;
        for j in 0..params.m1 {
            let table = s * params.m1 + j;
            let mut rng = StdRng::seed_from_u64(mix(seed, &(t, j)));
            // CreateTestVector with b = 1/(2t): each bit set w.p. b/2.
            let b = 1.0 / (2.0 * t as f64);
            let p_one = (b / 2.0).min(0.5);
            let tests = &mut tests_out[table * tv_per_table..][..tv_per_table];
            for k in 0..params.m2 {
                let row = &mut tests[k * stride..(k + 1) * stride];
                for bit in 0..params.d {
                    if rng.gen_bool(p_one) {
                        row[bit / 64] |= 1u64 << (bit % 64);
                    }
                }
            }
            let tests = &tests_out[table * tv_per_table..][..tv_per_table];
            let table_entries = &mut entries_out[table * table_size..][..table_size];
            entry_dist.fill(u8::MAX);
            for (idx, point) in point_words.chunks_exact(stride).enumerate() {
                let z = trace(tests, stride, params.m2, point);
                for &mask in ball {
                    let dist = mask.count_ones() as u8;
                    let slot = z ^ mask;
                    if dist < entry_dist[slot] {
                        entry_dist[slot] = dist;
                        table_entries[slot] = idx as u32;
                    }
                }
            }
        }
    }
}

/// Exact linear-scan nearest neighbour, used as the oracle in tests and for
/// threshold calibration. Ties break on the lower index.
pub fn linear_nn(points: &[BitVec], query: &BitVec) -> Option<NnResult> {
    points
        .iter()
        .enumerate()
        .map(|(index, p)| NnResult {
            index,
            distance: p.hamming(query),
        })
        .min_by_key(|r| (r.distance, r.index))
}

/// All `m2`-bit masks with popcount `< max(m3, 1)` (the trace ball),
/// enumerated directly by popcount class via Gosper's hack — `O(|ball|)`
/// instead of the `O(2^m2)` generate-and-filter scan.
///
/// The order differs from the filtered enumeration (grouped by popcount
/// instead of ascending), but build output is unaffected: for a fixed
/// point trace `z` each table slot is reached by exactly one mask
/// (`mask = z ^ slot`), and across popcount classes the strictly-smaller
/// distance always wins.
pub(crate) fn ball_masks(m2: usize, m3: usize) -> Vec<usize> {
    let limit = 1usize << m2;
    let mut masks = vec![0usize];
    for k in 1..m3.max(1).min(m2 + 1) {
        // Gosper's hack: step through all m2-bit masks of popcount k in
        // ascending order, starting from the k lowest bits.
        let mut v = (1usize << k) - 1;
        while v < limit {
            masks.push(v);
            let c = v & v.wrapping_neg();
            let r = v + c;
            v = (((r ^ v) >> 2) / c) | r;
        }
    }
    masks
}

pub(crate) fn mix<T: Hash>(seed: u64, value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unary_point(d: usize, ones: usize) -> BitVec {
        BitVec::from_bits((0..d).map(|i| i < ones))
    }

    #[test]
    fn ball_masks_match_binomial_sums() {
        // m2=12, m3=3: C(12,0)+C(12,1)+C(12,2) = 79 — the paper's setting.
        assert_eq!(ball_masks(12, 3).len(), 79);
        assert_eq!(ball_masks(6, 1).len(), 1);
        assert_eq!(ball_masks(6, 2).len(), 7);
    }

    #[test]
    fn ball_masks_match_generate_and_filter() {
        // The Gosper enumeration must produce exactly the reference
        // generate-and-filter set, including at the paper's (12, 3) and the
        // popcount = m2 edge.
        for (m2, m3) in [(12usize, 3usize), (6, 1), (6, 2), (4, 4), (3, 3), (1, 1)] {
            let mut direct = ball_masks(m2, m3);
            direct.sort_unstable();
            let filtered: Vec<usize> = (0..(1usize << m2))
                .filter(|z| (z.count_ones() as usize) < m3.max(1))
                .collect();
            assert_eq!(direct, filtered, "m2={m2} m3={m3}");
        }
    }

    #[test]
    fn build_rejects_bad_input() {
        let params = NnsParams {
            d: 16,
            m1: 1,
            m2: 6,
            m3: 2,
        };
        assert_eq!(
            NnsStructure::build(&[], params, 0).unwrap_err(),
            BuildError::EmptyTrainingSet
        );
        let wrong = vec![unary_point(8, 2)];
        assert!(matches!(
            NnsStructure::build(&wrong, params, 0).unwrap_err(),
            BuildError::DimensionMismatch {
                index: 0,
                got: 8,
                expected: 16
            }
        ));
        let p = vec![unary_point(16, 2)];
        assert!(matches!(
            NnsStructure::build(&p, NnsParams { m2: 30, ..params }, 0).unwrap_err(),
            BuildError::BadParams(_)
        ));
        assert!(matches!(
            NnsStructure::build(&p, NnsParams { m3: 7, ..params }, 0).unwrap_err(),
            BuildError::BadParams(_)
        ));
        assert!(matches!(
            NnsStructure::build(&p, NnsParams { m1: 0, ..params }, 0).unwrap_err(),
            BuildError::BadParams(_)
        ));
    }

    #[test]
    fn query_equal_to_training_point_finds_it_at_distance_zero() {
        let d = 48;
        let points: Vec<BitVec> = (0..6).map(|i| unary_point(d, i * 8)).collect();
        let params = NnsParams {
            d,
            m1: 3,
            m2: 8,
            m3: 2,
        };
        let s = NnsStructure::build(&points, params, 11).unwrap();
        for (i, p) in points.iter().enumerate() {
            let r = s.search(p).expect("training point must be found");
            assert_eq!(r.distance, points[r.index].hamming(p));
            assert_eq!(
                r.index, i,
                "expected exact hit for training point {i}, got {r:?}"
            );
        }
    }

    #[test]
    fn near_query_finds_the_near_cluster() {
        // Two well-separated unary clusters; queries near one must not
        // resolve to the other.
        let d = 64;
        let mut points = Vec::new();
        for ones in [2usize, 3, 4] {
            points.push(unary_point(d, ones));
        }
        for ones in [58usize, 59, 60] {
            points.push(unary_point(d, ones));
        }
        let params = NnsParams {
            d,
            m1: 4,
            m2: 10,
            m3: 3,
        };
        let s = NnsStructure::build(&points, params, 3).unwrap();
        let near_low = unary_point(d, 5);
        let r = s.search(&near_low).expect("hit");
        assert!(r.index < 3, "query near low cluster resolved to {r:?}");
        let near_high = unary_point(d, 57);
        let r = s.search(&near_high).expect("hit");
        assert!(r.index >= 3, "query near high cluster resolved to {r:?}");
    }

    #[test]
    fn approximation_quality_vs_linear_oracle() {
        // On random unary data the returned distance should rarely exceed a
        // small multiple of the true NN distance.
        let d = 96;
        let mut rng = StdRng::seed_from_u64(9);
        let points: Vec<BitVec> = (0..40)
            .map(|_| unary_point(d, rng.gen_range(0..=d)))
            .collect();
        let params = NnsParams {
            d,
            m1: 4,
            m2: 10,
            m3: 3,
        };
        let s = NnsStructure::build(&points, params, 5).unwrap();
        let mut found = 0;
        let mut acceptable = 0;
        for _ in 0..60 {
            let q = unary_point(d, rng.gen_range(0..=d));
            let exact = linear_nn(&points, &q).unwrap();
            if let Some(approx) = s.search(&q) {
                found += 1;
                // 3x approximation with slack for tiny exact distances.
                if approx.distance <= exact.distance * 3 + 6 {
                    acceptable += 1;
                }
            }
        }
        assert!(found >= 55, "search missed too often: {found}/60");
        assert!(
            acceptable * 10 >= found * 9,
            "approximation too loose: {acceptable}/{found}"
        );
    }

    #[test]
    fn search_is_deterministic() {
        let d = 48;
        let points: Vec<BitVec> = (0..8).map(|i| unary_point(d, i * 6)).collect();
        let params = NnsParams {
            d,
            m1: 3,
            m2: 8,
            m3: 2,
        };
        let s = NnsStructure::build(&points, params, 2).unwrap();
        let q = unary_point(d, 13);
        assert_eq!(s.search(&q), s.search(&q));
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let d = 48;
        let points: Vec<BitVec> = (0..8).map(|i| unary_point(d, i * 6)).collect();
        let params = NnsParams {
            d,
            m1: 2,
            m2: 8,
            m3: 2,
        };
        let serial = NnsStructure::build_with_threads(&points, params, 7, 1).unwrap();
        for threads in [2usize, 3, 8, 64, 1000] {
            let parallel = NnsStructure::build_with_threads(&points, params, 7, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn point_words_round_trip_the_training_points() {
        let d = 70;
        let points: Vec<BitVec> = (0..5).map(|i| unary_point(d, i * 13)).collect();
        let params = NnsParams {
            d,
            m1: 1,
            m2: 6,
            m3: 2,
        };
        let s = NnsStructure::build(&points, params, 4).unwrap();
        assert_eq!(s.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(s.point_words(i), p.words(), "point {i}");
        }
    }

    #[test]
    fn linear_nn_breaks_ties_on_lower_index() {
        let points = vec![unary_point(8, 2), unary_point(8, 4), unary_point(8, 2)];
        let q = unary_point(8, 3);
        let r = linear_nn(&points, &q).unwrap();
        assert_eq!(r.distance, 1);
        assert_eq!(r.index, 0);
        assert!(linear_nn(&[], &q).is_none());
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn search_wrong_dimension_panics() {
        let points = vec![unary_point(16, 4)];
        let s = NnsStructure::build(
            &points,
            NnsParams {
                d: 16,
                m1: 1,
                m2: 6,
                m3: 2,
            },
            0,
        )
        .unwrap();
        s.search(&unary_point(8, 2));
    }
}
