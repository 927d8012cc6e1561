//! Pipeline observability: stage histograms, per-peer/per-shard counter
//! families, the flow-decision flight recorder, the structured event
//! journal, and Prometheus exposition.
//!
//! Everything here rides the generic primitives in `infilter-telemetry`;
//! this module supplies the domain: which stages get histograms, what a
//! recorded decision looks like ([`FlowDecision`] — the full Figure-12
//! chain), which state changes are journal-worthy ([`JournalEvent`]), and
//! how it all renders as one exposition page.
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

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use infilter_netflow::FlowRecord;
use infilter_telemetry::{
    trace, AtomicHistogram, CountMin, Exemplar, Family, Histogram, Hll, Journal, PromText, Ring,
    SeqEvent, SpaceSaving, TopEntry, WindowRing,
};
use serde::{Deserialize, Serialize};

use crate::{AnalyzerMetrics, Effort, PeerId, Verdict};

/// Observability knobs, carried inside [`crate::AnalyzerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch for histograms and the flight recorder. The eight
    /// path counters in [`AnalyzerMetrics`] are always exact regardless.
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

/// One journal-worthy state change: the rare, operator-relevant events
/// whose *order* matters — the evidence chain counters cannot give.
/// Recorded into [`PipelineTelemetry::journal`] by the engine and the
/// ingest daemon, served at `/events`, and folded into the shutdown
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// The ingest load-shedding ladder moved to a new rung.
    LadderTransition {
        /// Rung before the move.
        from: Effort,
        /// Rung after the move.
        to: Effort,
    },
    /// The EIA registry was hot-swapped (`reload_eia`).
    EiaReload {
        /// Preloaded prefixes now live.
        prefixes: u32,
    },
    /// An intake ring shed a batch under backpressure.
    RingDrop {
        /// Which intake ring shed.
        ring: u16,
        /// Flows in the shed batch.
        flows: u32,
    },
    /// A forgiven source was adopted into a peer's EIA set (§5.2).
    Adoption {
        /// The adopting ingress peer.
        peer: PeerId,
    },
    /// An IDMEF alert *message* was opened: the first flagged flow of its
    /// `(ingress, stage, target)` since the last drain. The flows that fold
    /// into it afterwards journal nothing, and its
    /// [`count`](crate::IdmefAlert::count) is only final at that drain. A
    /// sustained attack still opens one per key per drain.
    Alert {
        /// Ingress peer of the first offending flow.
        peer: PeerId,
        /// The alert's message id.
        message_id: u64,
    },
    /// A peer's EIA health/drift score crossed the configured threshold
    /// (edge-triggered: one event per excursion above the line).
    PeerDrift {
        /// The drifting ingress peer.
        peer: PeerId,
        /// The drift score at crossing, in thousandths (0..=1000).
        score_milli: u32,
    },
    /// Durable EIA state was replayed at boot (warm restart).
    StoreRecovery {
        /// Adoption records replayed from the log.
        records: u32,
        /// Log segments scanned.
        segments: u32,
        /// Age of the sealed snapshot the replay started from, seconds
        /// (`u32::MAX`: recovery found no snapshot).
        snapshot_age_seconds: u32,
    },
    /// The durable store sealed a compacted EIA snapshot.
    StoreSeal {
        /// EIA entries in the sealed snapshot.
        entries: u32,
    },
}

impl JournalEvent {
    /// Stable machine-readable event kind, used as the JSON `kind` field
    /// and the Prometheus label value.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::LadderTransition { .. } => "ladder_transition",
            JournalEvent::EiaReload { .. } => "eia_reload",
            JournalEvent::RingDrop { .. } => "ring_drop",
            JournalEvent::Adoption { .. } => "adoption",
            JournalEvent::Alert { .. } => "alert",
            JournalEvent::PeerDrift { .. } => "peer_drift",
            JournalEvent::StoreRecovery { .. } => "store_recovery",
            JournalEvent::StoreSeal { .. } => "store_seal",
        }
    }
}

impl std::fmt::Display for JournalEvent {
    /// Human detail line; deliberately free of `"` and `\` so it can be
    /// embedded in hand-rendered JSON without escaping.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalEvent::LadderTransition { from, to } => {
                write!(f, "{} -> {}", from.as_label(), to.as_label())
            }
            JournalEvent::EiaReload { prefixes } => write!(f, "{prefixes} prefixes live"),
            JournalEvent::RingDrop { ring, flows } => {
                write!(f, "ring {ring} shed {flows} flows")
            }
            JournalEvent::Adoption { peer } => write!(f, "adopted into {peer}"),
            JournalEvent::Alert { peer, message_id } => {
                write!(f, "message {message_id} via {peer}")
            }
            JournalEvent::PeerDrift { peer, score_milli } => {
                write!(f, "{peer} drift score {score_milli}/1000")
            }
            JournalEvent::StoreRecovery {
                records,
                segments,
                snapshot_age_seconds,
            } => {
                write!(f, "replayed {records} records from {segments} segments")?;
                if *snapshot_age_seconds == u32::MAX {
                    write!(f, ", no snapshot")
                } else {
                    write!(f, ", snapshot {snapshot_age_seconds}s old")
                }
            }
            JournalEvent::StoreSeal { entries } => {
                write!(f, "sealed snapshot of {entries} entries")
            }
        }
    }
}

/// Renders journal events (newest first, as [`Journal::last`] returns
/// them) as one JSON document for the `/events` endpoint:
/// `{"events":[{"seq":..,"at_ns":..,"kind":"..","detail":".."}]}`.
pub fn render_events_json(events: &[SeqEvent<JournalEvent>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            e.seq,
            e.at_ns,
            e.event.kind(),
            e.event
        );
    }
    out.push_str("\n]}\n");
    out
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

/// Top-source slots carried per sealed window (fixed so sealing stays
/// allocation-free).
const SHAPE_TOP_SLOTS: usize = 16;
/// Per-peer shape slots: distinct peers the shape layer tracks. A
/// Figure-1 deployment has a handful of BGP peers; overflowing peers are
/// counted in `shape_dropped`.
const SHAPE_PEER_SLOTS: usize = 32;
/// Count-Min geometry: 2048 × 4 u64 counters = 64 KiB, ε = e/2048 ≈ 0.13%
/// of sampled suspect volume, δ = e⁻⁴ ≈ 1.8%.
const SHAPE_CM_WIDTH: usize = 2048;
const SHAPE_CM_DEPTH: usize = 4;
/// SpaceSaving capacity: per-entry error ≤ N/64 of sampled volume.
const SHAPE_SS_CAP: usize = 64;
/// HLL precision: 2^10 registers = 1 KiB per peer, ≈3.2% standard error.
const SHAPE_HLL_P: u32 = 10;
/// Snapshot age at which the drift score's staleness term saturates.
const DRIFT_AGE_SATURATION_SECS: u64 = 300;

/// One peer's row in a sealed [`ShapeWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerWindow {
    /// The ingress peer AS number.
    pub peer: u16,
    /// Sampled suspect flows this interval (multiply by the shape stride
    /// to estimate the real count).
    pub suspects: u64,
    /// Sampled fast-path flows this interval.
    pub fast: u64,
    /// Adoptions into this peer's EIA set this interval.
    pub adoptions: u64,
    /// Estimated distinct suspect sources seen from this peer (cumulative
    /// HLL estimate at seal time).
    pub distinct_sources: u64,
    /// EIA drift score at seal time, thousandths.
    pub drift_milli: u32,
}

/// One sealed attack-shape interval: verdict mix, the interval's top
/// spoofed sources, and per-peer health. `Copy` with fixed arrays so the
/// window ring holds it without indirection and sealing never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ShapeWindow {
    /// Monotonic timestamp when the interval was sealed, nanoseconds.
    pub sealed_at_ns: u64,
    /// Sampled suspects this interval (all peers).
    pub suspects: u64,
    /// ... of which attack verdicts.
    pub attacks: u64,
    /// ... of which forgiven.
    pub forgiven: u64,
    /// Sampled fast-path flows this interval.
    pub fast: u64,
    /// This interval's top suspect sources as `(addr, sampled count)`,
    /// descending; only the first `top_len` entries are valid.
    pub top_sources: [(u32, u64); SHAPE_TOP_SLOTS],
    /// Valid prefix of `top_sources`.
    pub top_len: usize,
    /// Per-peer rows; only the first `peer_len` entries are valid.
    pub peers: [PeerWindow; SHAPE_PEER_SLOTS],
    /// Valid prefix of `peers`.
    pub peer_len: usize,
}

impl Default for ShapeWindow {
    fn default() -> ShapeWindow {
        ShapeWindow {
            sealed_at_ns: 0,
            suspects: 0,
            attacks: 0,
            forgiven: 0,
            fast: 0,
            top_sources: [(0, 0); SHAPE_TOP_SLOTS],
            top_len: 0,
            peers: [PeerWindow::default(); SHAPE_PEER_SLOTS],
            peer_len: 0,
        }
    }
}

/// Live per-peer shape state (inside the shape mutex).
#[derive(Debug)]
struct PeerShape {
    peer: u16,
    /// Distinct suspect sources, cumulative.
    hll: Hll,
    /// Cumulative sampled counts (for the `/ops` health table).
    suspect_samples: u64,
    fast_samples: u64,
    adoptions: u64,
    /// Current-interval accumulators, reset at seal.
    win_suspects: u64,
    win_fast: u64,
    win_adoptions: u64,
    /// Last computed drift score, thousandths.
    drift_milli: u32,
    /// Whether the score sat at/above the threshold at the last seal
    /// (edge-trigger latch for [`JournalEvent::PeerDrift`]).
    above: bool,
}

impl PeerShape {
    fn new(peer: u16) -> PeerShape {
        PeerShape {
            peer,
            hll: Hll::new(SHAPE_HLL_P),
            suspect_samples: 0,
            fast_samples: 0,
            adoptions: 0,
            win_suspects: 0,
            win_fast: 0,
            win_adoptions: 0,
            drift_milli: 0,
            above: false,
        }
    }
}

/// All sketch state behind [`PipelineTelemetry`]'s shape mutex. Memory is
/// fixed at construction (≈130 KiB at defaults: 64 KiB Count-Min, two
/// 64-entry SpaceSaving summaries, up to 32 KiB of per-peer HLLs, and the
/// window ring); nothing grows with the keyspace.
#[derive(Debug)]
struct ShapeState {
    /// Point-frequency sketch over all sampled suspect sources.
    src_freq: CountMin,
    /// Cumulative top suspect sources.
    src_total: SpaceSaving,
    /// Current interval's top suspect sources (reset at seal).
    src_win: SpaceSaving,
    /// Cumulative top peers by sampled suspect count.
    peer_total: SpaceSaving,
    /// Per-peer shape rows, first-come first-tracked up to
    /// [`SHAPE_PEER_SLOTS`].
    peers: Vec<PeerShape>,
    /// Interval accumulators.
    interval_start_ns: u64,
    win_suspects: u64,
    win_attacks: u64,
    win_forgiven: u64,
    win_fast: u64,
    /// Sealed intervals, oldest overwritten first.
    windows: WindowRing<ShapeWindow>,
    /// Interval sequence number handed to the ring.
    interval_seq: u64,
}

impl ShapeState {
    fn new(windows: usize) -> ShapeState {
        ShapeState {
            src_freq: CountMin::new(SHAPE_CM_WIDTH, SHAPE_CM_DEPTH),
            src_total: SpaceSaving::new(SHAPE_SS_CAP),
            src_win: SpaceSaving::new(SHAPE_SS_CAP),
            peer_total: SpaceSaving::new(SHAPE_SS_CAP),
            peers: Vec::with_capacity(SHAPE_PEER_SLOTS),
            interval_start_ns: trace::now_ns(),
            win_suspects: 0,
            win_attacks: 0,
            win_forgiven: 0,
            win_fast: 0,
            windows: WindowRing::new(windows.max(1)),
            interval_seq: 0,
        }
    }

    /// The tracked row for `peer`, created on first sight while slots
    /// remain. Returns `None` once [`SHAPE_PEER_SLOTS`] peers are live.
    fn peer_row(&mut self, peer: u16) -> Option<&mut PeerShape> {
        if let Some(i) = self.peers.iter().position(|p| p.peer == peer) {
            return Some(&mut self.peers[i]);
        }
        if self.peers.len() >= SHAPE_PEER_SLOTS {
            return None;
        }
        self.peers.push(PeerShape::new(peer));
        self.peers.last_mut()
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

    /// The sampled attack-shape feed, offered every suspect: `tick` is
    /// the suspect's number at its peer (the cell's count when the call
    /// met its first suspect, plus the call's own since), and every
    /// `shape_sample_every`-th feeds the sketches. Two threads on one
    /// peer may draw the same tick; a sampler can afford that.
    #[inline]
    pub(crate) fn sample_shape(
        &self,
        tick: u64,
        ingress: PeerId,
        src_addr: Ipv4Addr,
        verdict: Verdict,
    ) {
        if self.shape_due(tick) {
            self.shape_suspect(ingress, src_addr, verdict);
        }
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

    /// Whether suspect number `nth` (per peer) feeds the shape sketches.
    #[inline]
    fn shape_due(&self, nth: u64) -> bool {
        self.shape_mask.is_some_and(|mask| nth & mask == 0)
    }

    /// Feeds one sampled suspect into the shape sketches. Never blocks:
    /// a scrape holding the lock costs one dropped sample, counted.
    fn shape_suspect(&self, ingress: PeerId, src_addr: Ipv4Addr, verdict: Verdict) {
        let Ok(mut shape) = self.shape.try_lock() else {
            self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let key = u64::from(u32::from(src_addr));
        shape.src_freq.record(key, 1);
        shape.src_total.record(key, 1);
        shape.src_win.record(key, 1);
        shape.peer_total.record(u64::from(ingress.0), 1);
        shape.win_suspects += 1;
        match verdict {
            Verdict::Attack(_) => shape.win_attacks += 1,
            Verdict::Forgiven => shape.win_forgiven += 1,
            Verdict::Legal => {}
        }
        match shape.peer_row(ingress.0) {
            Some(row) => {
                row.hll.record(key);
                row.suspect_samples += 1;
                row.win_suspects += 1;
            }
            None => {
                self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_seal(&mut shape);
    }

    /// Feeds one sampled fast-path flow into the peer's shape row.
    fn shape_fast(&self, ingress: PeerId) {
        if self.shape_mask.is_none() {
            return;
        }
        let Ok(mut shape) = self.shape.try_lock() else {
            self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        shape.win_fast += 1;
        if let Some(row) = shape.peer_row(ingress.0) {
            row.fast_samples += 1;
            row.win_fast += 1;
        }
        self.maybe_seal(&mut shape);
    }

    /// Seals the current interval if it has run its configured length.
    fn maybe_seal(&self, shape: &mut ShapeState) {
        let now = trace::now_ns();
        let interval_ns = self
            .cfg
            .shape_window_secs
            .max(1)
            .saturating_mul(1_000_000_000);
        if now.saturating_sub(shape.interval_start_ns) >= interval_ns {
            self.seal(shape, now);
        }
    }

    /// Test hook: seals the current interval immediately, regardless of
    /// how long it has actually run — drift scoring is time-gated and
    /// tests cannot wait out a real interval.
    #[cfg(test)]
    fn seal_now(&self) {
        let mut shape = self
            .shape
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.seal(&mut shape, trace::now_ns());
    }

    /// Seals one interval: computes per-peer drift scores (emitting
    /// edge-triggered [`JournalEvent::PeerDrift`]s), pushes the window,
    /// and resets the interval accumulators. Allocation-free: the window
    /// is a `Copy` value built from fixed arrays.
    fn seal(&self, shape: &mut ShapeState, now: u64) {
        let age_secs = self.snapshot_health.age_seconds();
        let age_milli = ((age_secs * 1000) / DRIFT_AGE_SATURATION_SECS).min(1000) as u32;
        let mut win = ShapeWindow {
            sealed_at_ns: now,
            suspects: shape.win_suspects,
            attacks: shape.win_attacks,
            forgiven: shape.win_forgiven,
            fast: shape.win_fast,
            ..ShapeWindow::default()
        };
        let mut scratch = [TopEntry {
            key: 0,
            count: 0,
            err: 0,
        }; SHAPE_TOP_SLOTS];
        win.top_len = shape.src_win.top_into(&mut scratch);
        for (slot, entry) in win.top_sources.iter_mut().zip(&scratch[..win.top_len]) {
            *slot = (entry.key as u32, entry.count);
        }
        for row in shape.peers.iter_mut() {
            // EI-miss ratio: both sides scaled back by their strides so
            // sampled suspects compare against sampled fast-path flows.
            let s = row.win_suspects.saturating_mul(self.shape_stride);
            let f = row.win_fast.saturating_mul(self.fast_stride);
            let miss_milli = s.saturating_mul(1000).checked_div(s + f).unwrap_or(0) as u32;
            // Churn saturates at 4 adoptions per interval.
            let churn_milli = (row.win_adoptions.saturating_mul(250)).min(1000) as u32;
            let drift = (500 * miss_milli + 300 * churn_milli + 200 * age_milli) / 1000;
            row.drift_milli = drift;
            if drift >= self.cfg.drift_threshold_milli {
                if !row.above {
                    row.above = true;
                    self.journal.record(JournalEvent::PeerDrift {
                        peer: PeerId(row.peer),
                        score_milli: drift,
                    });
                }
            } else {
                row.above = false;
            }
            if win.peer_len < SHAPE_PEER_SLOTS {
                win.peers[win.peer_len] = PeerWindow {
                    peer: row.peer,
                    suspects: row.win_suspects,
                    fast: row.win_fast,
                    adoptions: row.win_adoptions,
                    distinct_sources: row.hll.estimate(),
                    drift_milli: drift,
                };
                win.peer_len += 1;
            }
            row.win_suspects = 0;
            row.win_fast = 0;
            row.win_adoptions = 0;
        }
        shape.src_win.reset();
        shape.windows.push(shape.interval_seq, win);
        shape.interval_seq += 1;
        shape.interval_start_ns = now;
        shape.win_suspects = 0;
        shape.win_attacks = 0;
        shape.win_forgiven = 0;
        shape.win_fast = 0;
    }

    /// The cumulative attack-shape summary for the exposition page:
    /// top suspected sources (counts scaled back to flow estimates by the
    /// sampling stride), per-peer distinct-source cardinalities, and
    /// per-peer drift scores. Takes the shape lock blocking — scrape-side
    /// only — and seals the current interval first if it is due.
    pub fn shape_summary(&self) -> ShapeSummary {
        let mut shape = self
            .shape
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.shape_mask.is_some() {
            self.maybe_seal(&mut shape);
        }
        let k = self.cfg.shape_top_k.clamp(1, SHAPE_TOP_SLOTS);
        ShapeSummary {
            top_sources: shape
                .src_total
                .top(k)
                .iter()
                .map(|e| {
                    (
                        Ipv4Addr::from(e.key as u32),
                        e.count.saturating_mul(self.shape_stride),
                    )
                })
                .collect(),
            peers: shape
                .peers
                .iter()
                .map(|p| PeerShapeSummary {
                    peer: p.peer,
                    distinct_sources: p.hll.estimate(),
                    drift_milli: p.drift_milli,
                })
                .collect(),
        }
    }

    /// Renders the `/ops` attack-shape document: cumulative top-K tables,
    /// per-peer health, EIA snapshot version/age, and the newest `window`
    /// sealed intervals. Seals the current interval first if due, so a
    /// quiet pipeline still reports fresh windows.
    pub fn ops_json(&self, window: usize) -> String {
        use std::fmt::Write as _;
        let mut shape = self
            .shape
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.shape_mask.is_some() {
            self.maybe_seal(&mut shape);
        }
        let k = self.cfg.shape_top_k.clamp(1, SHAPE_TOP_SLOTS);
        let stride = self.shape_stride;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"window_secs\":{},\"sample_stride\":{},\"shape_dropped\":{},\
             \"eia\":{{\"version\":{},\"age_seconds\":{}}}",
            self.cfg.shape_window_secs,
            stride,
            self.shape_dropped(),
            self.snapshot_health.version(),
            self.snapshot_health.age_seconds(),
        );
        let recovered = self.store_recovery[0].load(Ordering::Relaxed) != 0;
        let _ = write!(
            out,
            ",\"store\":{{\"recovered\":{},\"records_replayed\":{},\"segments\":{},\
             \"snapshot_age_seconds\":{}}}",
            recovered,
            self.store_recovery[1].load(Ordering::Relaxed),
            self.store_recovery[2].load(Ordering::Relaxed),
            self.store_recovery[3].load(Ordering::Relaxed),
        );
        out.push_str(",\"top_sources\":[");
        for (i, e) in shape.src_total.top(k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `flows_est` comes from the SpaceSaving summary (ranking),
            // `cms_est` from the independent Count-Min sketch — disagreeing
            // estimates flag a summary under churn pressure.
            let _ = write!(
                out,
                "{{\"addr\":\"{}\",\"flows_est\":{},\"err_est\":{},\"cms_est\":{}}}",
                Ipv4Addr::from(e.key as u32),
                e.count.saturating_mul(stride),
                e.err.saturating_mul(stride),
                shape.src_freq.estimate(e.key).saturating_mul(stride),
            );
        }
        out.push_str("],\"top_peers\":[");
        for (i, e) in shape.peer_total.top(k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"peer\":{},\"flows_est\":{}}}",
                e.key,
                e.count.saturating_mul(stride),
            );
        }
        out.push_str("],\"peers\":[");
        for (i, p) in shape.peers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"peer\":{},\"distinct_sources\":{},\"drift_milli\":{},\
                 \"suspect_samples\":{},\"fast_samples\":{},\"adoptions\":{}}}",
                p.peer,
                p.hll.estimate(),
                p.drift_milli,
                p.suspect_samples,
                p.fast_samples,
                p.adoptions,
            );
        }
        out.push_str("],\"windows\":[");
        let mut first = true;
        shape.windows.for_each_last(window, |seq, w| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"seq\":{},\"sealed_at_ns\":{},\"suspects\":{},\"attacks\":{},\
                 \"forgiven\":{},\"fast\":{},\"top_sources\":[",
                seq, w.sealed_at_ns, w.suspects, w.attacks, w.forgiven, w.fast,
            );
            for (i, (addr, count)) in w.top_sources[..w.top_len.min(k)].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"addr\":\"{}\",\"count\":{}}}",
                    Ipv4Addr::from(*addr),
                    count,
                );
            }
            out.push_str("],\"peers\":[");
            for (i, p) in w.peers[..w.peer_len].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"peer\":{},\"suspects\":{},\"fast\":{},\"adoptions\":{},\
                     \"distinct_sources\":{},\"drift_milli\":{}}}",
                    p.peer, p.suspects, p.fast, p.adoptions, p.distinct_sources, p.drift_milli,
                );
            }
            out.push_str("]}");
        });
        out.push_str("\n]}\n");
        out
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

/// The cumulative attack-shape summary [`PipelineTelemetry::shape_summary`]
/// returns for the exposition page.
#[derive(Debug, Clone, Default)]
pub struct ShapeSummary {
    /// Top suspected spoofed sources as `(addr, estimated flows)` —
    /// sampled counts scaled back by the sampling stride, descending.
    pub top_sources: Vec<(Ipv4Addr, u64)>,
    /// Per-peer cardinality and drift, in first-seen order.
    pub peers: Vec<PeerShapeSummary>,
}

/// One peer's row in a [`ShapeSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerShapeSummary {
    /// The ingress peer AS number.
    pub peer: u16,
    /// Estimated distinct suspect sources seen from this peer.
    pub distinct_sources: u64,
    /// Latest EIA drift score, thousandths.
    pub drift_milli: u32,
}

/// Every metric family the exposition page emits — the contract the
/// `exp-observe --smoke` CI check verifies against live output.
pub const METRIC_FAMILIES: &[&str] = &[
    "infilter_flows_total",
    "infilter_eia_match_total",
    "infilter_eia_suspect_total",
    "infilter_attacks_total",
    "infilter_forgiven_total",
    "infilter_adoptions_total",
    "infilter_eia_prefixes",
    "infilter_eia_bytes",
    "infilter_sightings_entries",
    "infilter_sightings_evicted_total",
    "infilter_snapshot_republish_total",
    "infilter_recorder_dropped_total",
    "infilter_journal_events_total",
    "infilter_journal_dropped_total",
    "infilter_peer_suspects_total",
    "infilter_peer_attacks_total",
    "infilter_peer_forgiven_total",
    "infilter_peer_adoptions_total",
    "infilter_shard_suspects_total",
    "infilter_shard_scan_buffered",
    "infilter_shard_scan_entries",
    "infilter_fast_path_latency_ns",
    "infilter_suspect_path_latency_ns",
    "infilter_nns_search_latency_ns",
    "infilter_nns_distance",
    "infilter_nns_tables_probed",
    "infilter_scan_distinct_hosts",
    "infilter_scan_distinct_ports",
    "infilter_top_source_suspects",
    "infilter_peer_distinct_sources",
    "infilter_peer_drift_score",
    "infilter_shape_dropped_total",
    "infilter_peer_folded_total",
    "infilter_eia_snapshot_age_seconds",
];

/// `le` bounds for latency histograms, nanoseconds (250 ns – 10 ms).
const LATENCY_BOUNDS_NS: &[u64] = &[
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 10_000_000,
];

/// `le` bounds for Hamming distances (paper: d = 720, thresholds ≪ d).
const DISTANCE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// `le` bounds for scan counters (thresholds default to ≤ 32ish).
const SCAN_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Renders one Prometheus 0.0.4 exposition page from a counter snapshot,
/// the telemetry state, each shard's `(buffered flows, counter entries,
/// suspects routed to it)` read under its lock at scrape time, the
/// published frozen-EIA table size as `(prefixes, approximate resident
/// bytes)`, and the write side's sightings window as `(live candidates,
/// evicted)`.
pub(crate) fn render_exposition(
    metrics: &AnalyzerMetrics,
    telemetry: &PipelineTelemetry,
    shards: &[(usize, usize, u64)],
    eia_table: (usize, usize),
    sightings: (usize, u64),
) -> String {
    let mut page = PromText::new();
    page.counter(
        "infilter_flows_total",
        "Flows processed (Figure 12 entries).",
        metrics.flows,
    );
    page.counter(
        "infilter_eia_match_total",
        "Flows whose EIA check matched (fast path).",
        metrics.eia_match,
    );
    page.counter(
        "infilter_eia_suspect_total",
        "Flows the EIA check flagged as suspect.",
        metrics.eia_suspect,
    );
    page.counter_family(
        "infilter_attacks_total",
        "Flows flagged as attacks, by deciding stage.",
        &[
            (vec![("stage", "eia".to_string())], metrics.eia_attacks),
            (vec![("stage", "scan".to_string())], metrics.scan_attacks),
            (vec![("stage", "nns".to_string())], metrics.nns_attacks),
        ],
    );
    page.counter(
        "infilter_forgiven_total",
        "Suspects cleared by the enhanced analysis.",
        metrics.forgiven,
    );
    page.counter(
        "infilter_adoptions_total",
        "Sources dynamically adopted into EIA sets.",
        metrics.adoptions,
    );
    page.gauge(
        "infilter_eia_prefixes",
        "Prefixes in the published frozen EIA table.",
        eia_table.0 as f64,
    );
    page.gauge(
        "infilter_eia_bytes",
        "Approximate resident bytes of the published frozen EIA table.",
        eia_table.1 as f64,
    );
    page.gauge(
        "infilter_sightings_entries",
        "Adoption candidates in the sightings window (capacity 65536).",
        sightings.0 as f64,
    );
    page.counter(
        "infilter_sightings_evicted_total",
        "Adoption candidates pushed out of the window before reaching the threshold.",
        sightings.1,
    );
    page.counter(
        "infilter_snapshot_republish_total",
        "EIA snapshot republications to the read side.",
        telemetry.republishes(),
    );
    page.counter(
        "infilter_recorder_dropped_total",
        "Flight-recorder entries dropped on slot contention.",
        telemetry.recorder_dropped(),
    );
    page.counter(
        "infilter_journal_events_total",
        "Structured events journalled (highest sequence number).",
        telemetry.journal().recorded(),
    );
    page.counter(
        "infilter_journal_dropped_total",
        "Journal entries lost to slot contention.",
        telemetry.journal().dropped(),
    );

    let peers = telemetry.peer_counters();
    let peer_samples = |pick: fn(&PeerCounters) -> &AtomicU64| -> Vec<_> {
        peers
            .iter()
            .map(|(id, cell)| {
                (
                    vec![("peer", id.to_string())],
                    pick(cell).load(Ordering::Relaxed),
                )
            })
            .collect()
    };
    page.counter_family(
        "infilter_peer_suspects_total",
        "EIA-suspect flows by ingress peer AS.",
        &peer_samples(|c| &c.suspects),
    );
    page.counter_family(
        "infilter_peer_attacks_total",
        "Attack verdicts by ingress peer AS.",
        &peer_samples(|c| &c.attacks),
    );
    page.counter_family(
        "infilter_peer_forgiven_total",
        "Forgiven suspects by ingress peer AS.",
        &peer_samples(|c| &c.forgiven),
    );
    page.counter_family(
        "infilter_peer_adoptions_total",
        "EIA adoptions by ingress peer AS.",
        &peer_samples(|c| &c.adoptions),
    );

    let per_shard = |pick: fn(&(usize, usize, u64)) -> u64| -> Vec<_> {
        shards
            .iter()
            .enumerate()
            .map(|(shard, counts)| (vec![("shard", shard.to_string())], pick(counts)))
            .collect()
    };
    page.counter_family(
        "infilter_shard_suspects_total",
        "Suspects routed to each shard (imbalance signal).",
        &per_shard(|c| c.2),
    );
    page.gauge_family(
        "infilter_shard_scan_buffered",
        "Flows currently buffered by each shard's Scan Analysis.",
        &per_shard(|c| c.0 as u64),
    );
    page.gauge_family(
        "infilter_shard_scan_entries",
        "Live scan-counter entries held by each shard.",
        &per_shard(|c| c.1 as u64),
    );

    page.histogram(
        "infilter_fast_path_latency_ns",
        "Sampled per-flow latency, EIA-match fast path.",
        &telemetry.fast_path_latency(),
        LATENCY_BOUNDS_NS,
    );
    if let Some((ns, trace_id)) = telemetry.fast_exemplar() {
        page.comment(&format!(
            "EXEMPLAR infilter_fast_path_latency_ns value={ns} trace_id={trace_id}"
        ));
    }
    page.histogram(
        "infilter_suspect_path_latency_ns",
        "Per-flow latency through the full suspect analysis.",
        &telemetry.suspect_path_latency(),
        LATENCY_BOUNDS_NS,
    );
    if let Some((ns, trace_id)) = telemetry.suspect_exemplar() {
        page.comment(&format!(
            "EXEMPLAR infilter_suspect_path_latency_ns value={ns} trace_id={trace_id}"
        ));
    }
    page.histogram(
        "infilter_nns_search_latency_ns",
        "NNS nearest-neighbour search latency.",
        &telemetry.nns_search_latency(),
        LATENCY_BOUNDS_NS,
    );
    page.histogram(
        "infilter_nns_distance",
        "Hamming distance to the nearest normal neighbour.",
        &telemetry.nns_distance_histogram(),
        DISTANCE_BOUNDS,
    );
    page.histogram(
        "infilter_nns_tables_probed",
        "Hash tables probed per NNS search.",
        &telemetry.nns_tables_histogram(),
        SCAN_BOUNDS,
    );
    page.histogram(
        "infilter_scan_distinct_hosts",
        "Distinct hosts counted for the suspect's (ingress, port) at decision time.",
        &telemetry.scan_hosts_histogram(),
        SCAN_BOUNDS,
    );
    page.histogram(
        "infilter_scan_distinct_ports",
        "Distinct ports counted for the suspect's (ingress, host) at decision time.",
        &telemetry.scan_ports_histogram(),
        SCAN_BOUNDS,
    );

    let shape = telemetry.shape_summary();
    let top_samples: Vec<_> = shape
        .top_sources
        .iter()
        .map(|(addr, est)| (vec![("addr", addr.to_string())], *est))
        .collect();
    page.gauge_family(
        "infilter_top_source_suspects",
        "Top suspected spoofed sources: estimated suspect flows (sampled count x stride).",
        &top_samples,
    );
    let cardinality: Vec<_> = shape
        .peers
        .iter()
        .map(|p| (vec![("peer", p.peer.to_string())], p.distinct_sources))
        .collect();
    page.gauge_family(
        "infilter_peer_distinct_sources",
        "Estimated distinct suspect sources per ingress peer (HLL).",
        &cardinality,
    );
    let drift: Vec<_> = shape
        .peers
        .iter()
        .map(|p| (vec![("peer", p.peer.to_string())], u64::from(p.drift_milli)))
        .collect();
    page.gauge_family(
        "infilter_peer_drift_score",
        "Per-peer EIA health/drift score, thousandths (0-1000).",
        &drift,
    );
    page.counter(
        "infilter_shape_dropped_total",
        "Attack-shape samples discarded (lock contention or peer-slot overflow).",
        telemetry.shape_dropped(),
    );
    page.counter(
        "infilter_peer_folded_total",
        "Per-peer counter lookups folded into the overflow cell past the peer cap.",
        telemetry.peer_folded(),
    );
    page.gauge(
        "infilter_eia_snapshot_age_seconds",
        "Seconds since the EIA snapshot readers see was published.",
        telemetry.snapshot_health().age_seconds() as f64,
    );
    page.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowRecord {
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
    fn exposition_contains_every_advertised_family() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 2);
        telemetry.record_suspect(
            0,
            PeerId(3),
            Some(PeerId(1)),
            &flow(),
            &SuspectObservation {
                scan_distinct_hosts: 2,
                scan_distinct_ports: 1,
                nns: Some(NnsObservation {
                    distance: 40,
                    threshold: 30,
                    search_ns: 900,
                    tables_probed: 10,
                }),
            },
            Verdict::Attack(crate::AttackStage::EiaMismatch { expected: None }),
            2_000,
        );
        telemetry
            .peer_cell(PeerId(3))
            .suspects
            .fetch_add(1, Ordering::Relaxed);
        telemetry.record_republish();
        let metrics = AnalyzerMetrics {
            flows: 5,
            eia_match: 4,
            eia_suspect: 1,
            eia_attacks: 1,
            ..AnalyzerMetrics::default()
        };
        let shards = [(3, 2, 1), (0, 0, 0)];
        let page = render_exposition(&metrics, &telemetry, &shards, (42, 4096), (7, 9));
        for family in METRIC_FAMILIES {
            assert!(
                page.contains(&format!("# TYPE {family} ")),
                "family {family} missing from exposition:\n{page}"
            );
        }
        assert!(page.contains("infilter_attacks_total{stage=\"eia\"} 1"));
        assert!(page.contains("infilter_peer_suspects_total{peer=\"3\"} 1"));
        assert!(page.contains("infilter_shard_scan_buffered{shard=\"0\"} 3"));
        assert!(page.contains("infilter_shard_suspects_total{shard=\"0\"} 1"));
        assert!(page.contains("infilter_snapshot_republish_total 1"));
        assert!(page.contains("infilter_sightings_entries 7"));
        assert!(page.contains("infilter_sightings_evicted_total 9"));
    }

    #[test]
    fn journal_orders_events_and_renders_json() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 1);
        telemetry.journal_event(JournalEvent::EiaReload { prefixes: 7 });
        telemetry.record_adoption(PeerId(2));
        telemetry.journal_event(JournalEvent::LadderTransition {
            from: Effort::Full,
            to: Effort::SkipNns,
        });
        assert_eq!(telemetry.journal().recorded(), 3);
        let events = telemetry.journal().last(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event.kind(), "ladder_transition");
        assert_eq!(events[2].seq, 1, "newest first");
        let json = render_events_json(&events);
        assert!(json.starts_with("{\"events\":["), "bad prefix: {json}");
        assert!(json.contains("\"kind\":\"eia_reload\",\"detail\":\"7 prefixes live\""));
        assert!(json.contains("\"kind\":\"adoption\",\"detail\":\"adopted into PeerAS2\""));
        assert!(json.contains("\"detail\":\"full -> skip_nns\""));
        assert!(json.ends_with("\n]}\n"), "bad suffix: {json}");
        assert!(render_events_json(&[]).contains("{\"events\":[\n]}"));
    }

    #[test]
    fn drift_score_rises_for_the_attacked_peer_and_journals_one_edge() {
        let telemetry = PipelineTelemetry::new(
            TelemetryConfig {
                shape_sample_every: 1,
                drift_threshold_milli: 400,
                ..TelemetryConfig::default()
            },
            1,
        );
        // Peer 1 emits nothing but suspects (EI-miss ratio 1.0); peer 2
        // rides the fast path with one stray suspect.
        let spoof = |i: u32| Ipv4Addr::from(0x0a00_0000u32 + i);
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        for _ in 0..8u32 {
            telemetry.record_fast_path(0, PeerId(2), &flow(), 0);
        }
        telemetry.sample_shape(0, PeerId(2), spoof(99), Verdict::Forgiven);
        telemetry.seal_now();

        let summary = telemetry.shape_summary();
        let score = |peer: u16| {
            summary
                .peers
                .iter()
                .find(|p| p.peer == peer)
                .expect("peer tracked")
                .drift_milli
        };
        // Pure misses put peer 1 at the miss term's full weight (500);
        // peer 2's one sampled suspect is drowned out by its stride-scaled
        // fast-path volume.
        assert!(score(1) >= 400, "attacked peer at {}/1000", score(1));
        assert!(score(2) < 400, "healthy peer at {}/1000", score(2));
        let drift_events = |telemetry: &PipelineTelemetry| {
            telemetry
                .journal()
                .last(32)
                .iter()
                .filter(|e| e.event.kind() == "peer_drift")
                .count()
        };
        assert_eq!(drift_events(&telemetry), 1, "one edge-triggered event");

        // Still above the line next interval: no second event (the latch
        // holds until the score drops below the threshold).
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        telemetry.seal_now();
        assert_eq!(drift_events(&telemetry), 1, "latch holds while above");

        // Recovery (fast-path-only interval) re-arms the edge; the next
        // excursion journals again.
        for _ in 0..8u32 {
            telemetry.record_fast_path(0, PeerId(1), &flow(), 0);
        }
        telemetry.seal_now();
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        telemetry.seal_now();
        assert_eq!(drift_events(&telemetry), 2, "re-armed after recovery");

        // The sealed windows are visible to `/ops`, newest first.
        let ops = telemetry.ops_json(4);
        assert!(ops.contains("\"windows\":[\n{\"seq\":3,"), "ops: {ops}");
        assert!(ops.contains("\"drift_milli\":"), "ops: {ops}");
    }

    #[test]
    fn exemplars_link_histograms_to_traces() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 1);
        // No trace active: the offer is discarded, no exemplar comment.
        telemetry.observe_fast_latency(900);
        assert_eq!(telemetry.fast_exemplar(), None);
        // With an active trace the worst sample wins and the exposition
        // carries the link as a full-line comment.
        infilter_telemetry::trace::begin(41);
        telemetry.observe_fast_latency(4_000);
        telemetry.observe_fast_latency(2_000);
        infilter_telemetry::trace::abandon();
        assert_eq!(telemetry.fast_exemplar(), Some((4_000, 41)));
        let page = render_exposition(
            &AnalyzerMetrics::default(),
            &telemetry,
            &[(0, 0, 0)],
            (0, 0),
            (0, 0),
        );
        assert!(
            page.contains("# EXEMPLAR infilter_fast_path_latency_ns value=4000 trace_id=41"),
            "exemplar comment missing:\n{page}"
        );
        assert!(page.contains("# TYPE infilter_journal_events_total counter"));
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
