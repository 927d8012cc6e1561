//! Pipeline observability: stage histograms, per-peer/per-shard counter
//! families, the flow-decision flight recorder, the structured event
//! journal, and Prometheus exposition.
//!
//! Everything here rides the generic primitives in `infilter-telemetry`;
//! this module supplies the domain: which stages get histograms, what a
//! recorded decision looks like ([`FlowDecision`] — the full Figure-12
//! chain), which state changes are journal-worthy ([`JournalEvent`]), and
//! how it all renders as one exposition page. This file is the recording
//! side — the knobs, [`PipelineTelemetry`] and what the engine writes into
//! it; `journal` holds the event vocabulary and the `/events` body, `shape`
//! the sketches, drift scoring and the `/ops` body, and `exposition` the
//! Prometheus page, which is also where the metric families are declared.
//!
//! Cost model (the reason this can stay enabled by default):
//!
//! * **Fast path** (EIA match): one precomputed-mask test against
//!   [`TelemetryConfig::record_fast_path_every`]; the latency histogram is
//!   only fed on flows the engine already sampled with `Instant::now()`.
//! * **Suspect path** (rare): two time reads, a handful of relaxed
//!   histogram increments and one non-blocking ring push — all
//!   allocation-free in steady state. The per-peer counter cells live here,
//!   but the engine adds to them, once per call.

mod exposition;
mod journal;
mod shape;

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use infilter_netflow::FlowRecord;
use infilter_telemetry::{trace, AtomicHistogram, Exemplar, Family, Histogram, Journal, Ring};
use serde::{Deserialize, Serialize};

use crate::{PeerId, Verdict};

pub(crate) use exposition::render_exposition;
pub use journal::{render_events_json, JournalEvent};
use shape::ShapeState;
pub use shape::{PeerShapeSummary, PeerWindow, ShapeSummary, ShapeWindow};

/// Observability knobs, carried inside [`crate::AnalyzerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch for histograms and the flight recorder. The eight
    /// path counters in [`crate::AnalyzerMetrics`] are always exact regardless.
    pub enabled: bool,
    /// Flight-recorder slots *per shard*. Memory is bounded at
    /// `shards × capacity × size_of::<FlowDecision>()` (≈48 B per slot).
    pub recorder_capacity: usize,
    /// Record every N-th fast-path (EIA-match) flow into the flight
    /// recorder so "explain the last N verdicts" shows legal traffic too.
    /// `0` records suspects only. Suspects are always recorded. Rounded up
    /// to the next power of two so the per-flow due check is a mask test
    /// rather than a 64-bit division.
    pub record_fast_path_every: u64,
    /// Structured event journal retention ([`JournalEvent`] entries).
    /// `0` retains nothing but still hands out sequence numbers, so
    /// counters stay exact. Independent of `enabled` — journalled events
    /// are rare state changes, not per-flow samples.
    pub journal_capacity: usize,
    /// Feed the attack-shape sketches on every N-th suspect *per peer*
    /// (rounded up to a power of two; `0` disables the shape layer).
    /// Sampling rides the per-peer suspect counter the pipeline already
    /// increments, so the unsampled suspect path pays one mask test and
    /// nothing else.
    #[serde(default = "default_shape_sample_every")]
    pub shape_sample_every: u64,
    /// How many top spoofed sources / top peers the `/ops` tables and the
    /// labeled gauges report (clamped to 16).
    #[serde(default = "default_shape_top_k")]
    pub shape_top_k: usize,
    /// Length of one attack-shape aggregation interval, seconds.
    #[serde(default = "default_shape_window_secs")]
    pub shape_window_secs: u64,
    /// How many sealed intervals the shape window ring retains.
    #[serde(default = "default_shape_windows")]
    pub shape_windows: usize,
    /// Per-peer EIA drift score (0..=1000) at or above which a
    /// [`JournalEvent::PeerDrift`] is emitted (edge-triggered).
    #[serde(default = "default_drift_threshold_milli")]
    pub drift_threshold_milli: u32,
    /// Maximum distinct peers the per-peer counter family tracks; new
    /// peers past the cap share one overflow aggregate cell (`0` =
    /// unbounded).
    #[serde(default = "default_peer_family_cap")]
    pub peer_family_cap: usize,
}

fn default_shape_sample_every() -> u64 {
    128
}
fn default_shape_top_k() -> usize {
    8
}
fn default_shape_window_secs() -> u64 {
    5
}
fn default_shape_windows() -> usize {
    24
}
fn default_drift_threshold_milli() -> u32 {
    600
}
fn default_peer_family_cap() -> usize {
    1024
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            recorder_capacity: 256,
            record_fast_path_every: 1024,
            journal_capacity: 1024,
            shape_sample_every: default_shape_sample_every(),
            shape_top_k: default_shape_top_k(),
            shape_window_secs: default_shape_window_secs(),
            shape_windows: default_shape_windows(),
            drift_threshold_milli: default_drift_threshold_milli(),
            peer_family_cap: default_peer_family_cap(),
        }
    }
}

/// One fully-resolved decision as the flight recorder saw it: the complete
/// Figure-12 path — who sent it, what EIA expected, the scan counters and
/// NNS distance *at decision time*, and the final verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDecision {
    /// Global decision sequence number (total order across shards).
    pub seq: u64,
    /// Peer AS the flow arrived through.
    pub ingress: PeerId,
    /// Peer AS the EIA sets expected the source at, if any.
    pub expected: Option<PeerId>,
    /// Flow source address.
    pub src_addr: Ipv4Addr,
    /// Flow destination address.
    pub dst_addr: Ipv4Addr,
    /// Flow destination port.
    pub dst_port: u16,
    /// IP protocol.
    pub protocol: u8,
    /// Distinct hosts this (ingress, port) had probed when decided.
    pub scan_distinct_hosts: u32,
    /// Distinct ports this (ingress, host) had probed when decided.
    pub scan_distinct_ports: u32,
    /// Nearest-normal-neighbour Hamming distance (`u32::MAX`: NNS not
    /// consulted — fast path, Basic mode, or scan-flagged — or no
    /// neighbour found).
    pub nns_distance: u32,
    /// The consulted subcluster's distance threshold (0 if none).
    pub nns_threshold: u32,
    /// The verdict the pipeline returned.
    pub verdict: Verdict,
    /// Wall time spent deciding, when timed (0 otherwise), nanoseconds.
    pub elapsed_ns: u64,
}

impl FlowDecision {
    /// One-line human rendering for "explain the last N verdicts" output.
    pub fn describe(&self) -> String {
        let expected = match self.expected {
            Some(peer) => format!("{peer}"),
            None => "nowhere".to_string(),
        };
        let nns = if self.nns_distance == u32::MAX {
            "-".to_string()
        } else {
            format!("{}/{}", self.nns_distance, self.nns_threshold)
        };
        format!(
            "#{seq} {src}->{dst}:{port} proto {proto} via {ingress} (expected {expected}) \
             scan {hosts}h/{ports}p nns {nns} -> {verdict:?} [{ns}ns]",
            seq = self.seq,
            src = self.src_addr,
            dst = self.dst_addr,
            port = self.dst_port,
            proto = self.protocol,
            ingress = self.ingress,
            hosts = self.scan_distinct_hosts,
            ports = self.scan_distinct_ports,
            verdict = self.verdict,
            ns = self.elapsed_ns,
        )
    }
}

/// Per-peer-AS counter cell: how each peer's traffic moves through the
/// suspect pipeline — the EIA-drift signal the paper's §5.2 adoption
/// machinery reacts to.
#[derive(Debug, Default)]
pub struct PeerCounters {
    /// EIA-suspect flows from this peer.
    pub suspects: AtomicU64,
    /// Suspects flagged as attacks (any stage).
    pub attacks: AtomicU64,
    /// Suspects forgiven by the enhanced analysis.
    pub forgiven: AtomicU64,
    /// Sources adopted into this peer's EIA set.
    pub adoptions: AtomicU64,
}

/// What the suspect stages observed on the way to a verdict — handed from
/// `scan_stage`/`nns_stage` to [`PipelineTelemetry::record_suspect`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SuspectObservation {
    /// Distinct hosts probed by this flow's (ingress, dst_port) key.
    pub scan_distinct_hosts: u32,
    /// Distinct ports probed by this flow's (ingress, dst_addr) key.
    pub scan_distinct_ports: u32,
    /// NNS observation, when stage 3 ran.
    pub nns: Option<NnsObservation>,
}

/// What one NNS consultation measured.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NnsObservation {
    /// Nearest-neighbour distance (`u32::MAX` when every probe missed).
    pub distance: u32,
    /// The subcluster threshold compared against.
    pub threshold: u32,
    /// Search wall time, nanoseconds (0 when untimed).
    pub search_ns: u64,
    /// Hash tables probed by the search.
    pub tables_probed: u32,
}

/// Version and wall-clock age of the EIA snapshot readers currently see.
///
/// Shared as an `Arc` between the engine (which notes every publish —
/// hot reloads and adoption patches alike) and the daemon's HTTP
/// thread, so `/healthz` answers staleness questions without a worker
/// round-trip.
#[derive(Debug)]
pub struct SnapshotHealth {
    version: AtomicU64,
    published_at_ns: AtomicU64,
}

impl Default for SnapshotHealth {
    fn default() -> SnapshotHealth {
        SnapshotHealth {
            version: AtomicU64::new(0),
            published_at_ns: AtomicU64::new(trace::now_ns()),
        }
    }
}

impl SnapshotHealth {
    /// Notes one snapshot publication: bumps the version and restarts the
    /// age clock.
    pub fn note_publish(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
        self.published_at_ns
            .store(trace::now_ns(), Ordering::Relaxed);
    }

    /// Publications noted so far (0 = still on the boot-time table).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Seconds since the last publication (boot, if none yet).
    pub fn age_seconds(&self) -> u64 {
        let published = self.published_at_ns.load(Ordering::Relaxed);
        trace::now_ns().saturating_sub(published) / 1_000_000_000
    }
}

/// All telemetry state for one analyzer: histograms, counter families,
/// and the per-shard flight recorder. Every method takes `&self`; all
/// internal state is atomic or behind non-blocking locks, so the sharded
/// engine records from any thread.
#[derive(Debug)]
pub struct PipelineTelemetry {
    cfg: TelemetryConfig,
    /// `record_fast_path_every` rounded up to a power of two, minus one;
    /// `None` when fast-path sampling is off.
    fast_sample_mask: Option<u64>,
    seq: AtomicU64,
    fast_path_ns: AtomicHistogram,
    suspect_path_ns: AtomicHistogram,
    nns_search_ns: AtomicHistogram,
    nns_distance: AtomicHistogram,
    nns_tables_probed: AtomicHistogram,
    scan_distinct_hosts: AtomicHistogram,
    scan_distinct_ports: AtomicHistogram,
    peers: Family<u16, PeerCounters>,
    republishes: AtomicU64,
    recorders: Vec<Ring<FlowDecision>>,
    /// Worst sampled latency seen with an active trace, per path — the
    /// exemplar link from a histogram's tail bucket to a concrete trace.
    fast_exemplar: Exemplar,
    suspect_exemplar: Exemplar,
    journal: Arc<Journal<JournalEvent>>,
    /// `shape_sample_every` rounded up to a power of two, minus one;
    /// `None` when the shape layer is off. The per-peer suspect count the
    /// pipeline keeps anyway doubles as the sample tick, so the unsampled
    /// path pays only the mask test.
    shape_mask: Option<u64>,
    /// Effective suspect sampling stride (mask + 1), for scaling sampled
    /// counts back to flow estimates.
    shape_stride: u64,
    /// Effective fast-path stride (`record_fast_path_every` rounded up).
    fast_stride: u64,
    /// Attack-shape sketches; `try_lock` on the record side so a scrape
    /// holding the lock never blocks the pipeline.
    shape: Mutex<ShapeState>,
    /// Shape samples discarded: lock contention or peer-slot overflow.
    shape_dropped: AtomicU64,
    /// EIA snapshot version + age, shared with the daemon's HTTP thread.
    snapshot_health: Arc<SnapshotHealth>,
    /// Warm-restart recovery summary for `/ops`: `[recovered flag,
    /// records replayed, segments scanned, snapshot age seconds]`. Written
    /// once at boot by the store wiring; zero until then.
    store_recovery: [AtomicU64; 4],
}

impl PipelineTelemetry {
    /// Creates telemetry for an engine with `shards` suspect shards.
    pub(crate) fn new(cfg: TelemetryConfig, shards: usize) -> PipelineTelemetry {
        let capacity = if cfg.enabled {
            cfg.recorder_capacity
        } else {
            0
        };
        let fast_sample_mask = (cfg.enabled && cfg.record_fast_path_every != 0)
            .then(|| cfg.record_fast_path_every.next_power_of_two() - 1);
        let shape_mask = (cfg.enabled && cfg.shape_sample_every != 0)
            .then(|| cfg.shape_sample_every.next_power_of_two() - 1);
        PipelineTelemetry {
            cfg,
            fast_sample_mask,
            seq: AtomicU64::new(0),
            fast_path_ns: AtomicHistogram::new(),
            suspect_path_ns: AtomicHistogram::new(),
            nns_search_ns: AtomicHistogram::new(),
            nns_distance: AtomicHistogram::new(),
            nns_tables_probed: AtomicHistogram::new(),
            scan_distinct_hosts: AtomicHistogram::new(),
            scan_distinct_ports: AtomicHistogram::new(),
            peers: if cfg.peer_family_cap == 0 {
                Family::new()
            } else {
                Family::bounded(cfg.peer_family_cap)
            },
            republishes: AtomicU64::new(0),
            recorders: (0..shards).map(|_| Ring::new(capacity)).collect(),
            fast_exemplar: Exemplar::new(),
            suspect_exemplar: Exemplar::new(),
            journal: Arc::new(Journal::new(cfg.journal_capacity)),
            shape_mask,
            shape_stride: shape_mask.map_or(0, |m| m + 1),
            fast_stride: fast_sample_mask.map_or(0, |m| m + 1),
            shape: Mutex::new(ShapeState::new(cfg.shape_windows)),
            shape_dropped: AtomicU64::new(0),
            snapshot_health: Arc::new(SnapshotHealth::default()),
            store_recovery: Default::default(),
        }
    }

    /// Notes a completed warm-restart replay so `/ops` can answer what was
    /// recovered without a store round-trip. Pass `u64::MAX` for
    /// `snapshot_age_seconds` when recovery found no sealed snapshot.
    pub fn note_store_recovery(&self, records: u64, segments: u64, snapshot_age_seconds: u64) {
        self.store_recovery[0].store(1, Ordering::Relaxed);
        self.store_recovery[1].store(records, Ordering::Relaxed);
        self.store_recovery[2].store(segments, Ordering::Relaxed);
        self.store_recovery[3].store(snapshot_age_seconds, Ordering::Relaxed);
    }

    /// What [`note_store_recovery`](Self::note_store_recovery) recorded:
    /// `(recovered, records, segments, snapshot_age_seconds)`. All zeros
    /// with `recovered == false` until a warm restart is noted.
    pub fn store_recovery(&self) -> (bool, u64, u64, u64) {
        (
            self.store_recovery[0].load(Ordering::Relaxed) != 0,
            self.store_recovery[1].load(Ordering::Relaxed),
            self.store_recovery[2].load(Ordering::Relaxed),
            self.store_recovery[3].load(Ordering::Relaxed),
        )
    }

    /// The knobs in force.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Whether histograms and the flight recorder are on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether flow number `n` is due for a sampled fast-path recording.
    /// Kept separate from [`record_fast_path`] so the hot path pays only
    /// this check (one mask test) when the answer is no.
    ///
    /// [`record_fast_path`]: PipelineTelemetry::record_fast_path
    #[inline]
    pub(crate) fn fast_sample_due(&self, n: u64) -> bool {
        self.fast_sample_mask.is_some_and(|mask| n & mask == 0)
    }

    /// Feeds the fast-path latency histogram (call only on flows the
    /// engine already timed).
    #[inline]
    pub(crate) fn observe_fast_latency(&self, nanos: u64) {
        if self.cfg.enabled {
            self.fast_path_ns.record(nanos);
            self.fast_exemplar.offer(nanos, trace::active());
        }
    }

    /// Records a sampled fast-path (legal) flow into the flight recorder
    /// and the per-peer shape row (same sampling stride, so the EI-miss
    /// ratio compares like with like after scaling).
    pub(crate) fn record_fast_path(
        &self,
        shard: usize,
        ingress: PeerId,
        flow: &FlowRecord,
        elapsed_ns: u64,
    ) {
        self.shape_fast(ingress);
        self.recorders[shard].push(FlowDecision {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ingress,
            expected: Some(ingress),
            src_addr: flow.src_addr,
            dst_addr: flow.dst_addr,
            dst_port: flow.dst_port,
            protocol: flow.protocol,
            scan_distinct_hosts: 0,
            scan_distinct_ports: 0,
            nns_distance: u32::MAX,
            nns_threshold: 0,
            verdict: Verdict::Legal,
            elapsed_ns,
        });
    }

    /// Records one observed suspect: histograms and the flight-recorder
    /// entry. The exact counters are the engine's — it settles them per
    /// call, this suspect among them — and the shape feed is
    /// [`PipelineTelemetry::sample_shape`]. Allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_suspect(
        &self,
        shard: usize,
        ingress: PeerId,
        expected: Option<PeerId>,
        flow: &FlowRecord,
        obs: &SuspectObservation,
        verdict: Verdict,
        elapsed_ns: u64,
    ) {
        if !self.cfg.enabled {
            return;
        }
        self.suspect_path_ns.record(elapsed_ns);
        self.suspect_exemplar.offer(elapsed_ns, trace::active());
        self.scan_distinct_hosts
            .record(u64::from(obs.scan_distinct_hosts));
        self.scan_distinct_ports
            .record(u64::from(obs.scan_distinct_ports));
        let (nns_distance, nns_threshold) = match obs.nns {
            Some(nns) => {
                self.nns_search_ns.record(nns.search_ns);
                self.nns_tables_probed.record(u64::from(nns.tables_probed));
                if nns.distance != u32::MAX {
                    self.nns_distance.record(u64::from(nns.distance));
                }
                (nns.distance, nns.threshold)
            }
            None => (u32::MAX, 0),
        };
        self.recorders[shard].push(FlowDecision {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ingress,
            expected,
            src_addr: flow.src_addr,
            dst_addr: flow.dst_addr,
            dst_port: flow.dst_port,
            protocol: flow.protocol,
            scan_distinct_hosts: obs.scan_distinct_hosts,
            scan_distinct_ports: obs.scan_distinct_ports,
            nns_distance,
            nns_threshold,
            verdict,
            elapsed_ns,
        });
    }

    /// The shared counter cell for one peer: the engine looks it up at a
    /// call's first suspect and adds the call's totals to it at the end.
    pub(crate) fn peer_cell(&self, ingress: PeerId) -> Arc<PeerCounters> {
        self.peers.get(&ingress.0)
    }

    /// Counts an adoption against the adopting peer, journals it, and
    /// feeds the peer's shape row (adoptions drive the churn term of the
    /// drift score; they are rare, so this is never sampled).
    pub(crate) fn record_adoption(&self, ingress: PeerId) {
        self.peers
            .get(&ingress.0)
            .adoptions
            .fetch_add(1, Ordering::Relaxed);
        self.journal
            .record(JournalEvent::Adoption { peer: ingress });
        if self.shape_mask.is_some() {
            match self.shape.try_lock() {
                Ok(mut shape) => {
                    if let Some(row) = shape.peer_row(ingress.0) {
                        row.adoptions += 1;
                        row.win_adoptions += 1;
                    }
                }
                Err(_) => {
                    self.shape_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Records one journal-worthy state change.
    pub(crate) fn journal_event(&self, event: JournalEvent) {
        self.journal.record(event);
    }

    /// The shared structured event journal. The ingest layer clones the
    /// `Arc` so listener and pump threads journal ring drops and ladder
    /// transitions into the same ordered stream as engine events.
    pub fn journal(&self) -> &Arc<Journal<JournalEvent>> {
        &self.journal
    }

    /// The worst sampled fast-path latency observed while a trace was
    /// active, as `(nanoseconds, trace_id)`.
    pub fn fast_exemplar(&self) -> Option<(u64, u64)> {
        self.fast_exemplar.get()
    }

    /// The worst suspect-path latency observed while a trace was active,
    /// as `(nanoseconds, trace_id)`.
    pub fn suspect_exemplar(&self) -> Option<(u64, u64)> {
        self.suspect_exemplar.get()
    }

    /// Counts one EIA snapshot republish and restarts the staleness clock.
    pub(crate) fn record_republish(&self) {
        self.republishes.fetch_add(1, Ordering::Relaxed);
        self.snapshot_health.note_publish();
    }

    /// The EIA snapshot version/age cell, shared with HTTP threads so
    /// `/healthz` answers without a worker round-trip.
    pub fn snapshot_health(&self) -> &Arc<SnapshotHealth> {
        &self.snapshot_health
    }

    /// Shape samples discarded on lock contention or peer-slot overflow.
    pub fn shape_dropped(&self) -> u64 {
        self.shape_dropped.load(Ordering::Relaxed)
    }

    /// `get` calls on the per-peer counter family folded into the shared
    /// overflow cell because the peer cap was reached.
    pub fn peer_folded(&self) -> u64 {
        self.peers.folded_gets()
    }

    /// The most recent `n` decisions across all shards, newest first,
    /// merged by sequence number.
    pub fn explain_last(&self, n: usize) -> Vec<FlowDecision> {
        let mut all: Vec<FlowDecision> = self
            .recorders
            .iter()
            .flat_map(|ring| ring.last(n))
            .collect();
        all.sort_by_key(|d| std::cmp::Reverse(d.seq));
        all.truncate(n);
        all
    }

    /// Fast-path (EIA-match) latency distribution, nanoseconds.
    pub fn fast_path_latency(&self) -> Histogram {
        self.fast_path_ns.snapshot()
    }

    /// Suspect-path latency distribution, nanoseconds.
    pub fn suspect_path_latency(&self) -> Histogram {
        self.suspect_path_ns.snapshot()
    }

    /// NNS search latency distribution, nanoseconds.
    pub fn nns_search_latency(&self) -> Histogram {
        self.nns_search_ns.snapshot()
    }

    /// Nearest-neighbour Hamming distance distribution over suspects whose
    /// search found a neighbour.
    pub fn nns_distance_histogram(&self) -> Histogram {
        self.nns_distance.snapshot()
    }

    /// Hash tables probed per NNS search.
    pub fn nns_tables_histogram(&self) -> Histogram {
        self.nns_tables_probed.snapshot()
    }

    /// Scan-counter (distinct hosts) distribution at decision time.
    pub fn scan_hosts_histogram(&self) -> Histogram {
        self.scan_distinct_hosts.snapshot()
    }

    /// Scan-counter (distinct ports) distribution at decision time.
    pub fn scan_ports_histogram(&self) -> Histogram {
        self.scan_distinct_ports.snapshot()
    }

    /// Per-peer counter cells, sorted by peer number.
    pub fn peer_counters(&self) -> Vec<(u16, Arc<PeerCounters>)> {
        self.peers.snapshot()
    }

    /// EIA snapshot republishes so far.
    pub fn republishes(&self) -> u64 {
        self.republishes.load(Ordering::Relaxed)
    }

    /// Flight-recorder entries discarded (slot contention / capacity 0).
    pub fn recorder_dropped(&self) -> u64 {
        self.recorders.iter().map(Ring::dropped).sum()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    pub(super) fn flow() -> FlowRecord {
        FlowRecord {
            src_addr: "3.33.0.9".parse().expect("static addr"),
            dst_addr: "96.1.0.20".parse().expect("static addr"),
            dst_port: 80,
            protocol: 6,
            ..FlowRecord::default()
        }
    }

    #[test]
    fn suspects_are_always_recorded_and_ordered() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 2);
        for i in 0..3u32 {
            telemetry.record_suspect(
                (i % 2) as usize,
                PeerId(1),
                Some(PeerId(2)),
                &flow(),
                &SuspectObservation {
                    scan_distinct_hosts: i,
                    scan_distinct_ports: 1,
                    nns: Some(NnsObservation {
                        distance: 10 + i,
                        threshold: 12,
                        search_ns: 700,
                        tables_probed: 9,
                    }),
                },
                if i == 2 {
                    Verdict::Forgiven
                } else {
                    Verdict::Attack(crate::AttackStage::EiaMismatch { expected: None })
                },
                1_000,
            );
        }
        let last = telemetry.explain_last(10);
        assert_eq!(last.len(), 3);
        assert!(last.windows(2).all(|w| w[0].seq > w[1].seq), "newest first");
        assert_eq!(last[0].verdict, Verdict::Forgiven);
        assert_eq!(last[0].nns_distance, 12);
        assert_eq!(telemetry.suspect_path_latency().count(), 3);
        assert_eq!(telemetry.nns_distance_histogram().count(), 3);
    }

    /// The exact counters are the engine's and do not pass through
    /// `record_suspect` (`concurrent.rs::a_call_settles_its_suspects_once`);
    /// the cells it adds to are there whether telemetry is on or not.
    #[test]
    fn disabling_keeps_counters_but_not_histograms() {
        let telemetry = PipelineTelemetry::new(
            TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            1,
        );
        telemetry.record_suspect(
            0,
            PeerId(1),
            None,
            &flow(),
            &SuspectObservation::default(),
            Verdict::Forgiven,
            0,
        );
        assert_eq!(telemetry.suspect_path_latency().count(), 0);
        assert!(telemetry.explain_last(5).is_empty());
        let peer = telemetry.peer_cell(PeerId(1));
        peer.suspects.fetch_add(1, Ordering::Relaxed);
        let cells = telemetry.peer_counters();
        assert_eq!(cells[0].1.suspects.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fast_path_sampling_gates_on_the_configured_stride() {
        let telemetry = PipelineTelemetry::new(
            TelemetryConfig {
                record_fast_path_every: 4,
                ..TelemetryConfig::default()
            },
            1,
        );
        let due: Vec<u64> = (0..10).filter(|&n| telemetry.fast_sample_due(n)).collect();
        assert_eq!(due, vec![0, 4, 8]);
        telemetry.record_fast_path(0, PeerId(1), &flow(), 250);
        let last = telemetry.explain_last(1);
        assert_eq!(last[0].verdict, Verdict::Legal);
        assert_eq!(last[0].nns_distance, u32::MAX);
    }

    #[test]
    fn describe_renders_the_whole_chain() {
        let decision = FlowDecision {
            seq: 7,
            ingress: PeerId(1),
            expected: Some(PeerId(2)),
            src_addr: "3.33.0.9".parse().expect("static addr"),
            dst_addr: "96.1.0.20".parse().expect("static addr"),
            dst_port: 80,
            protocol: 6,
            scan_distinct_hosts: 3,
            scan_distinct_ports: 1,
            nns_distance: 55,
            nns_threshold: 42,
            verdict: Verdict::Attack(crate::AttackStage::NnsAnomaly {
                distance: 55,
                threshold: 42,
                class: infilter_traffic::AppClass::Http,
            }),
            elapsed_ns: 1_500,
        };
        let line = decision.describe();
        assert!(line.contains("#7"));
        assert!(line.contains("3.33.0.9->96.1.0.20:80"));
        assert!(line.contains("expected PeerAS2"));
        assert!(line.contains("55/42"));
        assert!(line.contains("1500ns"));
    }
}
