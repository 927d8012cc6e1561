use std::fmt;
use std::net::Ipv4Addr;

use infilter_net::{FlatTable, FrozenLpm, Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};

/// Identifier of a peer AS / border-router ingress point of the target
/// network. On the testbed this is the Dagflow instance index (equal to the
/// NetFlow `input_if` each instance stamps).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct PeerId(pub u16);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PeerAS{}", self.0)
    }
}

/// What happened to one EIA entry — the verb of a durable adoption
/// record. `Expired` is reserved for future aging/anti-entropy use; the
/// registry only emits `Adopted` today, but the on-disk codec carries the
/// action byte so the same log format can later serve as the federation
/// delta stream without a version bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdoptionAction {
    /// The prefix was adopted into the peer's EIA set (§5.2(a)).
    Adopted,
    /// The prefix was removed from the peer's EIA set.
    Expired,
}

/// One write-side EIA state change, buffered by [`EiaRegistry`] for a
/// persistence layer to drain (see `infilter-store`). Events carry the
/// full entry so a log replay can rebuild the registry without consulting
/// any other state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdoptionEvent {
    /// The peer whose EIA set changed.
    pub peer: PeerId,
    /// The prefix that was adopted or expired.
    pub prefix: Prefix,
    /// What happened to it.
    pub action: AdoptionAction,
}

/// Undrained adoption events kept before the registry starts shedding the
/// newest ones (a daemon without a configured store never drains; memory
/// must stay bounded regardless).
const EVENT_BUFFER_CAP: usize = 65_536;

/// Outcome of the basic InFilter EIA check for one flow (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EiaVerdict {
    /// `AS_IP(φ) == AS_φ`: the source is expected at this ingress.
    Match,
    /// The source belongs to a *different* peer's EIA set, or to none.
    Mismatch {
        /// The peer the source was expected at (`None` if the address is in
        /// no EIA set at all).
        expected: Option<PeerId>,
    },
}

impl EiaVerdict {
    /// Whether the flow passed the check.
    pub fn is_match(&self) -> bool {
        matches!(self, EiaVerdict::Match)
    }
}

/// A point-in-time view of the EIA sets as a frozen multi-bit-stride LPM
/// ([`FrozenLpm`]): a direct /16 root table plus stride-8 nodes, so a
/// classification is a chain of two to six dependent loads (`root → nodes
/// → leaves → nodes → leaves → values` at its longest) instead of up to 32
/// binary-trie node hops.
///
/// A running [`crate::ConcurrentAnalyzer`] keeps its EIA table in this
/// form only: one snapshot published behind a [`crate::SnapshotCell`],
/// compiled once from the registry it was handed (boot, reload) and
/// patched per adoption after that, which costs one /16 subtree instead of
/// the whole table. Two snapshots are equal when they hold the same table
/// and adoption count, however each was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EiaSnapshot {
    lpm: FrozenLpm<PeerId>,
    adopted: u64,
}

impl EiaSnapshot {
    /// The peer whose EIA set contains `addr` (most specific prefix wins).
    pub fn expected_peer(&self, addr: Ipv4Addr) -> Option<PeerId> {
        self.lpm.lookup(addr).map(|(_, p)| *p)
    }

    /// The basic InFilter check against this snapshot.
    pub fn classify(&self, observed: PeerId, addr: Ipv4Addr) -> EiaVerdict {
        self.classify_bits(observed, u32::from(addr))
    }

    /// [`EiaSnapshot::classify`] over raw big-endian address bits — the
    /// form the batch pipeline's source-address column carries.
    #[inline]
    pub fn classify_bits(&self, observed: PeerId, bits: u32) -> EiaVerdict {
        verdict_for(self.lpm.lookup_value_bits(bits).copied(), observed)
    }

    /// Classifies a whole source-address column observed at one ingress,
    /// replacing `out` with one verdict per address (same order). This is
    /// the grouped phase-A walk of the batch hot path: the column goes
    /// through [`FrozenLpm::lookup_values`] a level at a time, so the
    /// lookups of one datagram overlap their cache misses; no sort is
    /// needed.
    pub fn classify_batch_into(&self, observed: PeerId, src: &[u32], out: &mut Vec<EiaVerdict>) {
        out.clear();
        out.reserve(src.len());
        self.lpm.lookup_values(src, |_, expected| {
            out.push(verdict_for(expected.copied(), observed));
        });
    }

    /// Number of prefixes across all EIA sets at snapshot time.
    pub fn prefix_count(&self) -> usize {
        self.lpm.len()
    }

    /// Approximate resident bytes of the frozen lookup structure (the
    /// `infilter_eia_bytes` gauge).
    pub fn approx_bytes(&self) -> usize {
        self.lpm.approx_bytes()
    }

    /// Sources that had been adopted dynamically at snapshot time.
    pub fn adopted_count(&self) -> u64 {
        self.adopted
    }

    /// Applies one adoption, leaving the snapshot equal to what
    /// [`EiaRegistry::snapshot`] compiles after the same adoption.
    pub(crate) fn adopt(&mut self, prefix: Prefix, peer: PeerId) {
        self.lpm.insert(prefix, peer);
        self.adopted += 1;
    }

    /// Every `(prefix, peer)` entry in the snapshot, in canonical address
    /// order: two snapshots over the same logical table iterate identically
    /// regardless of insertion order — the property store sealing and the
    /// bit-identity recovery tests rely on.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, PeerId)> + '_ {
        self.lpm.iter().map(|(p, v)| (p, *v))
    }
}

/// Shared match rule so [`EiaRegistry`] and [`EiaSnapshot`] can never
/// disagree on what a given lookup result means.
fn verdict_for(expected: Option<PeerId>, observed: PeerId) -> EiaVerdict {
    match expected {
        Some(p) if p == observed => EiaVerdict::Match,
        expected => EiaVerdict::Mismatch { expected },
    }
}

/// Adoption candidates remembered at once. A `const`, not a knob: the
/// point is that it is fixed, so a spoofed flood cannot grow the state
/// §5.2(a) keeps per sighted source — what §4.1's sliding buffer does for
/// scan state. About 3 MB, allocated at the first sighting.
const SIGHTINGS_CAPACITY: usize = 65_536;

/// Sighting counts of the last `capacity` distinct `(peer, range)`
/// adoption candidates: a ring in arrival order and a [`FlatTable`] index
/// over it, allocated once.
///
/// A new candidate takes the *oldest* slot — eviction follows arrival
/// order alone, never the hash — and starts at one sighting, never at the
/// evicted count: an inherited count (SpaceSaving's over-estimate) would
/// let a flood manufacture adoptions. So the window fails safe: a flood
/// can push a candidate out and delay its adoption, never cause one.
#[derive(Debug, Clone)]
struct Sightings {
    /// `(packed candidate, sightings)`; 0 sightings marks a slot unused or
    /// since adopted.
    ring: Vec<(u64, u32)>,
    oldest: usize,
    /// Candidate → its ring slot + 1.
    index: FlatTable,
    evicted: u64,
}

impl Sightings {
    fn new(capacity: usize) -> Sightings {
        Sightings {
            ring: vec![(0, 0); capacity],
            oldest: 0,
            index: FlatTable::new(capacity),
            evicted: 0,
        }
    }

    /// Counts one sighting of `key`. True when that is its `threshold`-th
    /// inside the window; the candidate then leaves it.
    fn sight(&mut self, key: u64, threshold: u32) -> bool {
        let slot = match self.index.get(key) {
            0 if threshold <= 1 => return true,
            0 => {
                let slot = self.oldest;
                self.oldest = (slot + 1) % self.ring.len();
                let (old, live) = self.ring[slot];
                if live != 0 {
                    self.index.sub(old, u32::MAX);
                    self.evicted += 1;
                }
                self.ring[slot] = (key, 0);
                self.index.add(key, slot as u32 + 1);
                slot
            }
            found => found as usize - 1,
        };
        self.ring[slot].1 += 1;
        if self.ring[slot].1 < threshold {
            return false;
        }
        self.ring[slot].1 = 0;
        self.index.sub(key, u32::MAX);
        true
    }
}

/// The half of §5.2(a)'s dynamic adoption that is not the table: the
/// policy (how many sightings, adopted at what prefix length), the pending
/// counts, and the adoptions not yet drained to a store. [`EiaRegistry`]
/// keeps one beside its trie; a running engine keeps one beside the
/// snapshot it published (see [`EiaRegistry::hand_over`]).
#[derive(Debug, Clone)]
pub(crate) struct AdoptionLedger {
    threshold: u32,
    prefix_len: u8,
    /// Allocated at the first sighting: most ledgers never see one.
    sightings: Option<Sightings>,
    /// Adoption events since the last [`AdoptionLedger::drain_events`],
    /// bounded by [`EVENT_BUFFER_CAP`] (overflow is counted, not stored).
    events: Vec<AdoptionEvent>,
    events_dropped: u64,
}

impl AdoptionLedger {
    fn new(threshold: u32) -> AdoptionLedger {
        AdoptionLedger {
            threshold,
            prefix_len: 32,
            sightings: None,
            events: Vec::new(),
            events_dropped: 0,
        }
    }

    fn set_prefix_len(&mut self, len: u8) {
        assert!(len <= 32, "adoption prefix length {len} out of range");
        self.prefix_len = len;
    }

    /// Counts one sighting of `addr`, still a mismatch at `observed`.
    /// Returns the range to adopt into `observed`'s EIA set when this
    /// sighting crossed the threshold; the event is already buffered, the
    /// table is the caller's to change.
    pub(crate) fn sight(&mut self, observed: PeerId, addr: Ipv4Addr) -> Option<Prefix> {
        if self.threshold == 0 {
            return None;
        }
        let range = Prefix::host(addr).truncate(self.prefix_len);
        let key = (u64::from(observed.0) << 40)
            | (u64::from(range.len()) << 32)
            | u64::from(range.bits());
        let window = self
            .sightings
            .get_or_insert_with(|| Sightings::new(SIGHTINGS_CAPACITY));
        if !window.sight(key, self.threshold) {
            return None;
        }
        if self.events.len() >= EVENT_BUFFER_CAP {
            self.events_dropped += 1;
        } else {
            self.events.push(AdoptionEvent {
                peer: observed,
                prefix: range,
                action: AdoptionAction::Adopted,
            });
        }
        Some(range)
    }

    /// See [`EiaRegistry::sightings_window`].
    pub(crate) fn sightings_window(&self) -> (usize, u64) {
        let window = self.sightings.as_ref();
        window.map_or((0, 0), |w| (w.index.len(), w.evicted))
    }

    /// See [`EiaRegistry::drain_events`].
    pub(crate) fn drain_events(&mut self, sink: &mut Vec<AdoptionEvent>) {
        sink.append(&mut self.events);
    }
}

/// The per-peer Expected IP Address sets, backed by one shared
/// longest-prefix-match trie (most-specific prefix decides ownership, the
/// paper's `4.2.101.0/24` vs `4.0.0.0/8` rule).
///
/// Besides preloaded prefixes, the registry implements §5.2(a)'s dynamic
/// adoption: a source seen at least `adoption_threshold` times at the same
/// peer is adopted into that peer's EIA set as a host route. This is also
/// the mechanism that lets sustained route changes re-home a source — and
/// that attackers erode under the stress test (§6.3.2). One deviation from
/// the paper: pending counts live in a fixed window, so a candidate is
/// forgotten once 65 536 newer ones have been sighted.
///
/// This is the builder and the reference: config parsing, store recovery
/// and the experiments fill one, and the tests' oracles classify against
/// it. An engine does not keep it — it compiles the table once
/// ([`EiaRegistry::snapshot`]) and drops the trie.
#[derive(Debug, Clone)]
pub struct EiaRegistry {
    trie: PrefixTrie<PeerId>,
    adopted: u64,
    ledger: AdoptionLedger,
}

impl EiaRegistry {
    /// Creates an empty registry. `adoption_threshold` is the number of
    /// sightings after which an unexpected source is adopted (0 disables
    /// adoption entirely).
    pub fn new(adoption_threshold: u32) -> EiaRegistry {
        EiaRegistry {
            trie: PrefixTrie::new(),
            adopted: 0,
            ledger: AdoptionLedger::new(adoption_threshold),
        }
    }

    /// Preloads `prefix` into `peer`'s EIA set (initialisation "by hand" or
    /// from Table 3 style configuration).
    pub fn preload(&mut self, peer: PeerId, prefix: Prefix) {
        self.trie.insert(prefix, peer);
    }

    /// Changes the adoption threshold (0 disables adoption). Pending
    /// sighting counts are preserved; they are as wide as the threshold.
    pub fn set_adoption_threshold(&mut self, threshold: u32) {
        self.ledger.threshold = threshold;
    }

    /// Sets the granularity of dynamic adoption ("the EIA sets can be
    /// initialized using IP subnet masks", §5.1.3(a)). The default of 32
    /// adopts single hosts; the testbed uses 24 so an adopted range
    /// re-homes the whole subnet — which is also how sustained spoofing
    /// erodes the registry in the stress experiments.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn set_adoption_prefix_len(&mut self, len: u8) {
        self.ledger.set_prefix_len(len);
    }

    /// Bulk preload.
    pub fn preload_all<I: IntoIterator<Item = (PeerId, Prefix)>>(&mut self, assignments: I) {
        for (peer, prefix) in assignments {
            self.preload(peer, prefix);
        }
    }

    /// What an engine keeps of a registry it is handed, at boot and at
    /// reload alike: the compiled table to publish, and the ledger to keep
    /// beside it, its policy now the analyzer config's. The trie is
    /// dropped.
    pub(crate) fn hand_over(
        mut self,
        cfg: &crate::AnalyzerConfig,
    ) -> (EiaSnapshot, AdoptionLedger) {
        self.ledger.threshold = cfg.adoption_threshold;
        self.ledger.set_prefix_len(cfg.adoption_prefix_len);
        (self.snapshot(), self.ledger)
    }

    /// Number of prefixes across all EIA sets.
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }

    /// Sources adopted dynamically so far.
    pub fn adopted_count(&self) -> u64 {
        self.adopted
    }

    /// The sightings window: adoption candidates in it (at most 65 536),
    /// and candidates newer ones have pushed out of it, unadopted, so far.
    pub fn sightings_window(&self) -> (usize, u64) {
        self.ledger.sightings_window()
    }

    /// Moves every adoption event buffered since the last drain into
    /// `sink`, in occurrence order. The buffer empties; capacity is kept
    /// for reuse.
    pub fn drain_events(&mut self, sink: &mut Vec<AdoptionEvent>) {
        self.ledger.drain_events(sink);
    }

    /// Adoption events currently buffered and not yet drained.
    pub fn pending_events(&self) -> usize {
        self.ledger.events.len()
    }

    /// Adoption events shed because nothing drained the buffer before it
    /// filled (the store-less deployment case).
    pub fn events_dropped(&self) -> u64 {
        self.ledger.events_dropped
    }

    /// Re-applies one durably logged adoption during replay: inserts the
    /// entry and counts it as adopted, without emitting a new event (the
    /// record is already in the log) and without consulting the sighting
    /// threshold (it was crossed before the crash).
    pub fn apply_adoption(&mut self, peer: PeerId, prefix: Prefix) {
        self.trie.insert(prefix, peer);
        self.adopted += 1;
    }

    /// Restores the adopted counter from a sealed snapshot's header.
    /// Snapshot entries are re-inserted via [`EiaRegistry::preload`] (they
    /// do not distinguish preloaded from adopted prefixes), so recovery
    /// sets the counter explicitly and lets [`EiaRegistry::apply_adoption`]
    /// advance it per replayed log record.
    pub fn set_adopted_count(&mut self, adopted: u64) {
        self.adopted = adopted;
    }

    /// The peer whose EIA set contains `addr` (most specific prefix wins).
    pub fn expected_peer(&self, addr: Ipv4Addr) -> Option<PeerId> {
        self.trie.lookup(addr).map(|(_, p)| *p)
    }

    /// The basic InFilter check: does a flow from `addr` arriving at
    /// `observed` match expectations?
    pub fn classify(&self, observed: PeerId, addr: Ipv4Addr) -> EiaVerdict {
        verdict_for(self.expected_peer(addr), observed)
    }

    /// Compiles the current EIA sets into a snapshot: the dynamic trie is
    /// flattened into a [`FrozenLpm`] so every subsequent classification
    /// is a chain of at most six dependent loads. A full, canonical
    /// compile — O(table) — for boot, warm restore and reload; the engine
    /// folds later adoptions into the snapshot it already published
    /// instead of calling this.
    pub fn snapshot(&self) -> EiaSnapshot {
        EiaSnapshot {
            lpm: FrozenLpm::compile(&self.trie),
            adopted: self.adopted,
        }
    }

    /// Records a sighting of `addr` at `observed` for dynamic adoption
    /// (called for suspect flows the enhanced analysis cleared). Returns
    /// `true` if this sighting crossed the threshold and the source was
    /// adopted into `observed`'s EIA set.
    pub fn record_sighting(&mut self, observed: PeerId, addr: Ipv4Addr) -> bool {
        // Already expected here (possibly via an earlier adoption): nothing
        // to learn, and no double adoption.
        if self.classify(observed, addr).is_match() {
            return false;
        }
        let Some(range) = self.ledger.sight(observed, addr) else {
            return false;
        };
        self.trie.insert(range, observed);
        self.adopted += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn registry() -> EiaRegistry {
        let mut r = EiaRegistry::new(3);
        r.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
        r.preload(PeerId(2), "3.32.0.0/11".parse().unwrap());
        r
    }

    #[test]
    fn match_and_mismatch() {
        let r = registry();
        assert_eq!(r.classify(PeerId(1), addr("3.0.5.5")), EiaVerdict::Match);
        assert_eq!(
            r.classify(PeerId(1), addr("3.40.5.5")),
            EiaVerdict::Mismatch {
                expected: Some(PeerId(2))
            }
        );
        assert_eq!(
            r.classify(PeerId(1), addr("200.1.1.1")),
            EiaVerdict::Mismatch { expected: None }
        );
        assert!(r.classify(PeerId(2), addr("3.33.0.1")).is_match());
    }

    #[test]
    fn most_specific_prefix_wins() {
        let mut r = registry();
        // A /24 inside peer 1's /11 is re-homed to peer 2 (multi-homed
        // customer): traffic from it should now be expected at peer 2.
        r.preload(PeerId(2), "3.1.2.0/24".parse().unwrap());
        assert_eq!(r.expected_peer(addr("3.1.2.9")), Some(PeerId(2)));
        assert_eq!(r.expected_peer(addr("3.1.3.9")), Some(PeerId(1)));
        assert!(r.classify(PeerId(2), addr("3.1.2.9")).is_match());
    }

    #[test]
    fn adoption_after_threshold_sightings() {
        let mut r = registry();
        let a = addr("77.1.2.3"); // in no EIA set
        assert!(!r.classify(PeerId(1), a).is_match());
        assert!(!r.record_sighting(PeerId(1), a));
        assert!(!r.record_sighting(PeerId(1), a));
        assert!(r.record_sighting(PeerId(1), a)); // third sighting adopts
        assert!(r.classify(PeerId(1), a).is_match());
        assert_eq!(r.adopted_count(), 1);
        // A neighbouring address is still unexpected.
        assert!(!r.classify(PeerId(1), addr("77.1.2.4")).is_match());
    }

    #[test]
    fn adoption_rehomes_a_route_changed_source() {
        let mut r = registry();
        let a = addr("3.33.1.1"); // peer 2's space
        for _ in 0..3 {
            r.record_sighting(PeerId(1), a);
        }
        // Host route at peer 1 out-specifies peer 2's /11.
        assert!(r.classify(PeerId(1), a).is_match());
    }

    #[test]
    fn subnet_adoption_rehomes_the_whole_range() {
        let mut r = registry();
        r.set_adoption_prefix_len(24);
        let a = addr("3.33.1.1"); // peer 2's space
        for _ in 0..3 {
            r.record_sighting(PeerId(1), a);
        }
        // The whole /24 moved: a sibling address is now expected at peer 1
        // and *unexpected* at its real home.
        assert!(r.classify(PeerId(1), addr("3.33.1.200")).is_match());
        assert!(!r.classify(PeerId(2), addr("3.33.1.200")).is_match());
        // Outside the /24, nothing changed.
        assert!(r.classify(PeerId(2), addr("3.33.2.1")).is_match());
    }

    #[test]
    fn sightings_are_per_peer() {
        let mut r = registry();
        let a = addr("77.1.2.3");
        r.record_sighting(PeerId(1), a);
        r.record_sighting(PeerId(2), a);
        r.record_sighting(PeerId(1), a);
        // Neither peer reached 3 sightings on its own.
        assert!(!r.classify(PeerId(1), a).is_match());
        assert!(!r.classify(PeerId(2), a).is_match());
    }

    #[test]
    fn snapshot_agrees_with_registry_and_is_immutable() {
        let mut r = registry();
        let snap = r.snapshot();
        for s in ["3.0.5.5", "3.40.5.5", "200.1.1.1"] {
            assert_eq!(
                snap.classify(PeerId(1), addr(s)),
                r.classify(PeerId(1), addr(s))
            );
        }
        assert_eq!(snap.prefix_count(), r.prefix_count());
        // Adoption after the snapshot is invisible to it.
        let a = addr("77.1.2.3");
        for _ in 0..3 {
            r.record_sighting(PeerId(1), a);
        }
        assert!(r.classify(PeerId(1), a).is_match());
        assert!(!snap.classify(PeerId(1), a).is_match());
        assert_eq!(snap.adopted_count(), 0);
        assert_eq!(r.snapshot().adopted_count(), 1);
    }

    #[test]
    fn snapshot_batch_classification_matches_scalar() {
        let mut r = registry();
        r.preload(PeerId(2), "3.1.2.0/24".parse().unwrap());
        r.preload(PeerId(1), "3.1.2.128/25".parse().unwrap());
        let mut snap = r.snapshot();
        // Longer than one chunk of the column walk, every kind of lane in
        // each: root hits, a depth-16 run, a depth-24 run, unmatched space.
        // Its first three addresses are a column short enough for the
        // scalar walk instead.
        let kinds = [
            "3.0.5.5",
            "3.40.5.5",
            "3.1.2.9",
            "3.1.2.200",
            "3.1.3.9",
            "200.1.1.1",
        ];
        let src: Vec<u32> = (0..67)
            .map(|i| u32::from(addr(kinds[i % 6])) + (i / 6) as u32)
            .collect();
        let mut out = Vec::new();
        for adopted in [false, true] {
            if adopted {
                // The engine's write path: patched in, garbage left behind.
                let host = "3.1.2.9/32".parse().unwrap();
                snap.adopt(host, PeerId(1));
                r.apply_adoption(PeerId(1), host);
                assert!(snap.classify(PeerId(1), addr("3.1.2.9")).is_match());
            }
            for (peer, src) in [
                (PeerId(1), &src[..]),
                (PeerId(2), &src[..]),
                (PeerId(1), &src[..3]),
            ] {
                snap.classify_batch_into(peer, src, &mut out);
                assert_eq!(out.len(), src.len());
                for (i, &bits) in src.iter().enumerate() {
                    let a = Ipv4Addr::from(bits);
                    assert_eq!(out[i], snap.classify(peer, a), "snapshot scalar {a}");
                    assert_eq!(out[i], snap.classify_bits(peer, bits));
                    assert_eq!(out[i], r.classify(peer, a), "registry oracle {a}");
                }
            }
        }
        assert!(snap.approx_bytes() > 0);
    }

    #[test]
    fn adoptions_buffer_events_until_drained() {
        let mut r = registry();
        let mut sink = Vec::new();
        r.drain_events(&mut sink);
        assert!(sink.is_empty());
        for _ in 0..3 {
            r.record_sighting(PeerId(1), addr("77.1.2.3"));
        }
        for _ in 0..3 {
            r.record_sighting(PeerId(2), addr("88.1.2.3"));
        }
        assert_eq!(r.pending_events(), 2);
        r.drain_events(&mut sink);
        assert_eq!(
            sink,
            vec![
                AdoptionEvent {
                    peer: PeerId(1),
                    prefix: "77.1.2.3/32".parse().unwrap(),
                    action: AdoptionAction::Adopted,
                },
                AdoptionEvent {
                    peer: PeerId(2),
                    prefix: "88.1.2.3/32".parse().unwrap(),
                    action: AdoptionAction::Adopted,
                },
            ]
        );
        assert_eq!(r.pending_events(), 0);
        assert_eq!(r.events_dropped(), 0);
    }

    #[test]
    fn replayed_adoptions_rebuild_a_bit_identical_snapshot() {
        // The crash-recovery contract in miniature: preloads + replayed
        // adoption events reproduce the exact snapshot, without emitting
        // fresh events.
        let mut live = registry();
        for a in ["77.1.2.3", "88.1.2.3", "3.33.9.9"] {
            for _ in 0..3 {
                live.record_sighting(PeerId(1), addr(a));
            }
        }
        let mut events = Vec::new();
        live.drain_events(&mut events);
        assert_eq!(events.len(), 3);

        let mut recovered = registry();
        for e in &events {
            recovered.apply_adoption(e.peer, e.prefix);
        }
        assert_eq!(recovered.pending_events(), 0);
        assert_eq!(recovered.adopted_count(), live.adopted_count());
        assert_eq!(recovered.snapshot(), live.snapshot());
    }

    #[test]
    fn snapshot_restore_sets_the_adopted_base() {
        let mut r = registry();
        r.preload(PeerId(1), "77.1.2.3/32".parse().unwrap());
        r.set_adopted_count(1);
        r.apply_adoption(PeerId(1), "88.1.2.3/32".parse().unwrap());
        assert_eq!(r.adopted_count(), 2);
        assert_eq!(r.snapshot().adopted_count(), 2);
    }

    /// The window's contract, past its capacity, by brute force: log every
    /// new candidate in arrival order; a sighting counts only if its
    /// candidate is among the last `CAPACITY` logged and not yet adopted.
    /// The real window must adopt on exactly the same sightings — so never
    /// on fewer than `THRESHOLD` inside the window — must never hold more
    /// than `CAPACITY` candidates, and must do so whatever hashes its index
    /// (eviction follows arrival order, not the hash).
    #[test]
    fn window_past_capacity_matches_a_log_of_arrivals_under_any_hash() {
        const CAPACITY: usize = 32;
        const THRESHOLD: u32 = 3;
        for multiplier in [0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d, (1 << 61) | 1] {
            let mut window = Sightings::new(CAPACITY);
            window.index = FlatTable::with_multiplier(CAPACITY, multiplier);
            let mut arrivals: Vec<(u64, u32)> = Vec::new();
            let (mut adoptions, mut evicted) = (0, 0);
            let mut state = 0x1f11u64;
            for i in 0..40_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                // A hot set that recurs inside the window, over a flood of
                // one-off candidates that pushes it out now and then.
                let key = match (state >> 60) % 4 {
                    0 => ((state >> 33) % 24) << 40,
                    _ => (state >> 20) | 1,
                };
                let start = arrivals.len().saturating_sub(CAPACITY);
                let seen = arrivals[start..]
                    .iter_mut()
                    .find(|(candidate, count)| *candidate == key && *count != 0);
                let want = match seen {
                    Some((_, count)) => {
                        *count += 1;
                        let adopt = *count >= THRESHOLD;
                        *count *= u32::from(!adopt);
                        adopt
                    }
                    None => {
                        evicted += u64::from(arrivals.len() >= CAPACITY && arrivals[start].1 != 0);
                        arrivals.push((key, 1));
                        false
                    }
                };
                assert_eq!(
                    window.sight(key, THRESHOLD),
                    want,
                    "sighting {i} of {key:#x}"
                );
                adoptions += u32::from(want);
                let start = arrivals.len().saturating_sub(CAPACITY);
                let live = arrivals[start..].iter().filter(|(_, c)| *c != 0).count();
                assert_eq!(window.index.len(), live);
                assert!(live <= CAPACITY);
                assert_eq!(window.evicted, evicted);
            }
            assert!(
                adoptions > 100 && evicted > 10_000,
                "{adoptions} / {evicted}"
            );
        }
    }

    #[test]
    fn pending_counts_survive_threshold_changes_and_are_as_wide_as_the_threshold() {
        let mut r = registry();
        r.set_adoption_threshold(100);
        for a in ["77.1.2.3", "88.1.2.3"] {
            for _ in 0..3 {
                assert!(!r.record_sighting(PeerId(1), addr(a)));
            }
        }
        r.set_adoption_threshold(4);
        assert!(r.record_sighting(PeerId(1), addr("77.1.2.3")), "3 kept + 1");
        // Lowered past a pending count: the next sighting adopts.
        r.set_adoption_threshold(2);
        assert!(r.record_sighting(PeerId(1), addr("88.1.2.3")));

        // The widest threshold the config can carry is representable: the
        // count reaches it without wrapping.
        let cfg = crate::AnalyzerConfig::builder().adoption_threshold(u32::MAX);
        r.set_adoption_threshold(cfg.build().expect("valid").adoption_threshold);
        assert!(!r.record_sighting(PeerId(1), addr("99.1.2.3")));
        let window = r
            .ledger
            .sightings
            .as_mut()
            .expect("allocated by the first sighting");
        let slot = window.ring.iter().rposition(|(_, count)| *count == 1);
        window.ring[slot.expect("the pending candidate")].1 = u32::MAX - 1;
        assert!(r.record_sighting(PeerId(1), addr("99.1.2.3")));
        assert_eq!(r.sightings_window(), (0, 0));
    }

    #[test]
    fn registries_that_never_sight_stay_small() {
        let mut r = registry();
        assert!(r.ledger.sightings.is_none());
        r.set_adoption_threshold(0);
        r.record_sighting(PeerId(1), addr("77.1.2.3"));
        assert!(
            r.ledger.sightings.is_none(),
            "adoption off: nothing to remember"
        );
        assert!(r.clone().ledger.sightings.is_none());
    }

    #[test]
    fn zero_threshold_disables_adoption() {
        let mut r = EiaRegistry::new(0);
        r.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
        let a = addr("77.1.2.3");
        for _ in 0..100 {
            assert!(!r.record_sighting(PeerId(1), a));
        }
        assert!(!r.classify(PeerId(1), a).is_match());
        assert_eq!(r.adopted_count(), 0);
    }
}
