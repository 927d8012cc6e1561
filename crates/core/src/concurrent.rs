//! The Figure-12 pipeline (§5.1.3(e)): EIA check → Scan Analysis → NNS →
//! forgive/adopt or alert. This is the repository's one implementation of
//! it; [`crate::Analyzer`] is this engine with one shard.
//!
//! The paper's Figure 9 deployment feeds one analysis module from several
//! Flow-tools instances at once. An earlier design serialised them behind
//! one global mutex, so adding collector threads added contention instead
//! of throughput. [`ConcurrentAnalyzer`] is built around what the workload
//! actually is — read-mostly:
//!
//! * **EIA check (every flow)** runs against the one [`EiaSnapshot`] the
//!   engine keeps, published through a [`SnapshotCell`]: a shared-lock
//!   acquire and a [`FrozenLpm`](infilter_net::FrozenLpm) lookup (two to
//!   six dependent loads), inside [`SnapshotCell::with`], so no handle to
//!   the table outlives the lookup.
//! * **Suspect analysis (rare)** is sharded by `(input_if, dst_addr)`:
//!   each shard owns its own [`ScanAnalyzer`] buffer and alert queue
//!   behind its own mutex, so suspects from unrelated destinations never
//!   contend. NNS search is read-only and runs outside any lock.
//! * **Adoptions (rarest)** are counted in a single write-side
//!   [`AdoptionLedger`] — policy, sightings window, undrained events; no
//!   second table — and patched into the published snapshot at once
//!   ([`SnapshotCell::update`]): in place unless a caller of
//!   [`ConcurrentAnalyzer::eia_snapshot`] still holds the table, then
//!   copy-on-write.
//! * **Lock order**: the write-side mutex, then the cell's write lock.
//!   Readers take the cell's shared lock alone, for the length of one
//!   `with`, and let go of it before the suspect path.
//! * **Metrics** are relaxed [`AtomicU64`] counters with *sampled* latency
//!   so `Instant::now()` stays off the per-flow path. A batch adds to them
//!   once, after its last flow, not once per flow.
//! * **Alerts** coalesce where they are queued: between two drains a shard
//!   holds one [`IdmefAlert`] per `(ingress, stage, target)`, carrying a
//!   count (DESIGN §11).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use infilter_net::FlatTable;
use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_nns::BitVec;
use infilter_telemetry::trace;
use parking_lot::Mutex;

use crate::eia::{AdoptionLedger, EiaSnapshot};
use crate::metrics::ConcurrentMetrics;
use crate::observe::{JournalEvent, PeerCounters, PipelineTelemetry, SuspectObservation};
use crate::pipeline::{
    nns_stage, saturating_nanos, scan_stage, scan_verdict_stage, NnsMemo, SuspectOutcome,
};
use crate::snapshot::SnapshotCell;
use crate::{
    Analyzer, AnalyzerMetrics, AttackStage, ClusterModel, Effort, EiaRegistry, EiaVerdict,
    FlowDecision, IdmefAlert, Mode, PeerId, ScanAnalyzer, Verdict,
};

/// Tuning for [`ConcurrentAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrentConfig {
    /// Suspect-path shards. Each shard has its own scan buffer and alert
    /// queue; suspects are routed by a hash of `(input_if, dst_addr)`.
    /// `1` (what [`Analyzer`] runs) is the paper's scan semantics exactly:
    /// one buffer sees every suspect. Higher values trade a wider effective
    /// network-scan threshold (one port probed across many destinations
    /// lands on many shards) for parallelism. Alerts coalesce per shard, so
    /// a drain can hold up to this many alerts for a key whose flows differ
    /// in destination (an EIA mismatch, a network scan), and its size is
    /// bounded per shard.
    pub shards: usize,
    /// Record per-flow latency on every N-th flow (`0` disables latency
    /// recording; counters are always exact). The default of 64 keeps the
    /// two `Instant::now()` reads off ~98% of flows.
    pub latency_sample_every: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> ConcurrentConfig {
        ConcurrentConfig {
            shards: 8,
            latency_sample_every: 64,
        }
    }
}

/// Alert keys a shard tracks between two drains; flows past them join an
/// overflow aggregate ([`ConcurrentAnalyzer::queue_alert`]). A constant:
/// it bounds what a drain hands over, and 256 targets under attack at once
/// through one shard is already more than an operator reads one by one,
/// while the table behind it stays at 8 KB.
const OPEN_ALERTS: usize = 256;

/// Mutable suspect-path state owned by one shard.
#[derive(Debug)]
struct Shard {
    scan: ScanAnalyzer,
    /// Pending alerts, ascending by message id: ids are handed out under
    /// this shard's lock ([`ConcurrentAnalyzer::queue_alert`]). The first
    /// `open.len()` are the keyed ones, overflow aggregates follow.
    alerts: VecDeque<IdmefAlert>,
    /// [`alert_key`] → 1-based position in `alerts` of the alert that key
    /// folds into until the next drain.
    open: FlatTable,
    /// EIA suspects routed here (`infilter_shard_suspects_total`).
    suspects: u64,
}

fn new_shards(shards: usize, scan: crate::ScanConfig) -> Vec<Mutex<Shard>> {
    assert!(shards > 0, "at least one shard is required");
    (0..shards)
        .map(|_| {
            Mutex::new(Shard {
                scan: ScanAnalyzer::new(scan),
                alerts: VecDeque::new(),
                open: FlatTable::new(OPEN_ALERTS),
                suspects: 0,
            })
        })
        .collect()
}

/// What an alert aggregates over: `(ingress, stage kind, target)`, the
/// target being what the stage singles out — the peer the source was
/// expected at, the scanned port, the scanned host, the anomalous flow's
/// destination (`dst_addr`, which an alert keeps as `target`).
fn alert_key(ingress: PeerId, stage: &AttackStage, dst_addr: Ipv4Addr) -> u64 {
    let (kind, target) = match *stage {
        AttackStage::EiaMismatch { expected } => (0, expected.map_or(0, |p| u32::from(p.0) + 1)),
        AttackStage::NetworkScan { dst_port, .. } => (1, u32::from(dst_port)),
        AttackStage::HostScan { dst_addr, .. } => (2, u32::from(dst_addr)),
        AttackStage::NnsAnomaly { .. } => (3, u32::from(dst_addr)),
    };
    (u64::from(ingress.0) << 34) | (kind << 32) | u64::from(target)
}

/// What the suspects of one call add to the shared counters, settled with
/// one `fetch_add` per non-zero counter when the call ends
/// ([`ConcurrentAnalyzer::settle`]). A call is one ingress, so one peer
/// cell.
#[derive(Default)]
struct Tally {
    /// The ingress's counter cell, looked up at the first suspect.
    peer: Option<Arc<PeerCounters>>,
    /// That cell's suspect count at the lookup: with `suspects`, the tick
    /// the attack-shape sampler gates on.
    seen_before: u64,
    suspects: u64,
    eia_attacks: u64,
    scan_attacks: u64,
    nns_attacks: u64,
    forgiven: u64,
}

thread_local! {
    /// Per-thread NNS query buffer: suspect-flow encode + search reuses one
    /// allocation per collector thread instead of allocating per flow. Safe
    /// to share across analyzers — `encode_into` resets length and contents
    /// on every use.
    static ENCODE_SCRATCH: RefCell<BitVec> = RefCell::new(BitVec::zeros(0));
    /// Per-thread batch-path scratch: the precomputed EIA verdicts for
    /// `process_flow_batch_into`. Cleared on every use.
    static BATCH_SCRATCH: RefCell<Vec<EiaVerdict>> = const { RefCell::new(Vec::new()) };
    /// Per-thread NNS memo, keyed by the owning model. The key holds a
    /// clone of the model `Arc` — not just its address — so a dropped
    /// model's allocation can never be recycled into a new model that
    /// would then replay the old model's memoized distances; a key
    /// mismatch resets the memo.
    static NNS_MEMO: RefCell<(Option<Arc<ClusterModel>>, NnsMemo)> =
        RefCell::new((None, NnsMemo::default()));
}

/// The concurrent InFilter engine: `process` takes `&self`, and threads
/// contend only where they must — on a suspect's shard, on the write side
/// for a sighting, and on the one word of the snapshot cell's lock that
/// every EIA check acquires shared. That word is why two threads measure
/// 4–5× one thread's per-flow cost on legal traffic (EXPERIMENTS.md, "One
/// EIA table"); batches pay it once per batch.
///
/// Construct one from a trained [`Analyzer`] via
/// [`ConcurrentAnalyzer::new`] and share it by reference (or `Arc`) across
/// collector threads.
///
/// # Examples
///
/// ```
/// use infilter_core::{
///     AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, Mode, PeerId, Trainer,
/// };
/// use infilter_netflow::FlowRecord;
///
/// let mut eia = EiaRegistry::new(3);
/// eia.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
/// let analyzer = Trainer::new(
///     AnalyzerConfig::builder().mode(Mode::Basic).build().unwrap(),
/// )
/// .train_basic(eia);
/// let engine = ConcurrentAnalyzer::new(analyzer, ConcurrentConfig::default());
///
/// std::thread::scope(|s| {
///     for i in 0..4 {
///         let engine = &engine;
///         s.spawn(move || {
///             let flow = FlowRecord {
///                 src_addr: std::net::Ipv4Addr::new(3, 0, 0, i),
///                 ..FlowRecord::default()
///             };
///             assert!(engine.process(PeerId(1), &flow).is_legal());
///         });
///     }
/// });
/// assert_eq!(engine.metrics().flows, 4);
/// ```
#[derive(Debug)]
pub struct ConcurrentAnalyzer {
    cfg: crate::AnalyzerConfig,
    ccfg: ConcurrentConfig,
    /// The EIA table: the engine's only copy.
    eia: SnapshotCell<EiaSnapshot>,
    /// Adoption policy, pending sightings and undrained events. Every
    /// change to `eia` happens under this lock.
    write_side: Mutex<AdoptionLedger>,
    shards: Vec<Mutex<Shard>>,
    /// One spare alert queue per shard: a drain swaps them with the
    /// shards' own and merges from here, so neither side re-grows.
    drained: Mutex<Vec<VecDeque<IdmefAlert>>>,
    model: Option<Arc<ClusterModel>>,
    metrics: ConcurrentMetrics,
    telemetry: PipelineTelemetry,
    alert_seq: AtomicU64,
}

impl ConcurrentAnalyzer {
    /// Re-shards a trained [`Analyzer`]: the EIA table and its adoption
    /// ledger, the model, the configuration and the alert id
    /// sequence carry over; scan state, counters, telemetry and pending
    /// alerts start fresh — drain the alerts first if they matter.
    ///
    /// # Panics
    ///
    /// Panics if `ccfg.shards` is zero.
    pub fn new(analyzer: Analyzer, ccfg: ConcurrentConfig) -> ConcurrentAnalyzer {
        let one = analyzer.0;
        ConcurrentAnalyzer {
            shards: new_shards(ccfg.shards, one.cfg.scan),
            drained: Mutex::new(vec![VecDeque::new(); ccfg.shards]),
            metrics: ConcurrentMetrics::default(),
            telemetry: PipelineTelemetry::new(one.cfg.telemetry, ccfg.shards),
            ccfg,
            ..one
        }
    }

    /// Builds an engine from the training phase's outputs.
    pub(crate) fn assemble(
        cfg: crate::AnalyzerConfig,
        registry: EiaRegistry,
        model: Option<ClusterModel>,
        ccfg: ConcurrentConfig,
    ) -> ConcurrentAnalyzer {
        let (snapshot, ledger) = registry.hand_over(&cfg);
        ConcurrentAnalyzer {
            eia: SnapshotCell::new(snapshot),
            write_side: Mutex::new(ledger),
            shards: new_shards(ccfg.shards, cfg.scan),
            drained: Mutex::new(vec![VecDeque::new(); ccfg.shards]),
            model: model.map(Arc::new),
            metrics: ConcurrentMetrics::default(),
            telemetry: PipelineTelemetry::new(cfg.telemetry, ccfg.shards),
            alert_seq: AtomicU64::new(0),
            cfg,
            ccfg,
        }
    }

    /// The analyzer configuration in force.
    pub fn config(&self) -> &crate::AnalyzerConfig {
        &self.cfg
    }

    /// A point-in-time copy of the counters (see
    /// [`ConcurrentMetrics::snapshot`] for consistency caveats).
    pub fn metrics(&self) -> AnalyzerMetrics {
        self.metrics.snapshot()
    }

    /// The currently published EIA snapshot. An adoption while the handle
    /// is held copies the table instead of patching it: drop it promptly.
    pub fn eia_snapshot(&self) -> Arc<EiaSnapshot> {
        self.eia.load()
    }

    /// Histograms, counter families, and the per-shard flight recorder.
    pub fn telemetry(&self) -> &PipelineTelemetry {
        &self.telemetry
    }

    /// The most recent `n` flight-recorder decisions across all shards,
    /// newest first.
    pub fn explain_last(&self, n: usize) -> Vec<FlowDecision> {
        self.telemetry.explain_last(n)
    }

    /// EIA suspects routed to each shard so far, in shard order (what
    /// `infilter_shard_suspects_total` exposes): the skew shows whether
    /// `(input_if, dst_addr)` routing balances the suspect load. Briefly
    /// locks each shard.
    pub fn shard_suspects(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.lock().suspects)
            .collect()
    }

    /// Renders the full metric set as one Prometheus text-format (0.0.4)
    /// exposition page. Briefly locks each shard to read its scan
    /// occupancy and suspect count.
    pub fn prometheus_text(&self) -> String {
        let shards: Vec<(usize, usize, u64)> = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                (
                    shard.scan.buffered(),
                    shard.scan.counter_entries(),
                    shard.suspects,
                )
            })
            .collect();
        let table = self
            .eia
            .with(|snapshot| (snapshot.prefix_count(), snapshot.approx_bytes()));
        let sightings = self.write_side.lock().sightings_window();
        crate::observe::render_exposition(
            &self.metrics.snapshot(),
            &self.telemetry,
            &shards,
            table,
            sightings,
        )
    }

    /// Processes one flow observed at `ingress` (Figure 12), callable from
    /// any number of threads simultaneously.
    pub fn process(&self, ingress: PeerId, flow: &FlowRecord) -> Verdict {
        self.process_with_effort(ingress, flow, Effort::Full)
    }

    /// [`ConcurrentAnalyzer::process`] at an explicit degradation rung: at
    /// [`Effort::SkipNns`] scan-pass suspects are cleared without the NNS
    /// search (and without counting toward adoption); at
    /// [`Effort::BiOnly`] every suspect is flagged directly, as Basic
    /// InFilter would.
    pub fn process_with_effort(
        &self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        let n = self.metrics.flows.fetch_add(1, Ordering::Relaxed);
        let mut tally = Tally::default();
        let verdict = self.process_counted(n, ingress, flow, effort, &mut tally);
        self.settle(tally);
        verdict
    }

    /// The per-flow pipeline after the flow counter: `n` is this flow's
    /// global sequence number (what latency sampling and the flight
    /// recorder gate on). The batch path bulk-advances the counter and
    /// calls this only for flows that fall off its precomputed fast path.
    /// A suspect lands in the caller's `tally`.
    fn process_counted(
        &self,
        n: u64,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
        tally: &mut Tally,
    ) -> Verdict {
        let started = self.latency_sampled(n).then(Instant::now);

        // Stage 1: EIA check under the cell's shared lock, let go of before
        // the suspect path may want the write lock. The version is read
        // first: the snapshot is then at least that new.
        let version = self.eia.version();
        let eia_verdict = self
            .eia
            .with(|snapshot| snapshot.classify(ingress, flow.src_addr));
        match eia_verdict {
            EiaVerdict::Match => {
                self.metrics.eia_match.fetch_add(1, Ordering::Relaxed);
                self.legal(n, ingress, started.map(|s| s.elapsed()), || *flow)
            }
            // Every per-flow suspect is observed in full; only the batch
            // loop samples.
            EiaVerdict::Mismatch { expected } => self.suspect_path(
                started,
                ingress,
                flow,
                (expected, version),
                effort,
                true,
                tally,
            ),
        }
    }

    /// Adds a finished call's [`Tally`] to the shared counters.
    fn settle(&self, tally: Tally) {
        let Some(peer) = tally.peer else {
            return; // no suspect
        };
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        let attacks = tally.eia_attacks + tally.scan_attacks + tally.nns_attacks;
        add(&self.metrics.eia_suspect, tally.suspects);
        add(&self.metrics.eia_attacks, tally.eia_attacks);
        add(&self.metrics.scan_attacks, tally.scan_attacks);
        add(&self.metrics.nns_attacks, tally.nns_attacks);
        add(&self.metrics.forgiven, tally.forgiven);
        add(&peer.suspects, tally.suspects);
        add(&peer.attacks, attacks);
        add(&peer.forgiven, tally.forgiven);
    }

    /// Whether flow number `n` records its latency.
    #[inline]
    fn latency_sampled(&self, n: u64) -> bool {
        let sample = self.ccfg.latency_sample_every;
        sample != 0 && n.is_multiple_of(sample)
    }

    /// The EIA-match arm (Figure 12 case b), minus the `eia_match` counter,
    /// which the batch loop bumps in bulk: sampled latency, sampled
    /// flight-recorder entry. `flow` materialises the record only when the
    /// recorder wants it.
    #[inline]
    fn legal(
        &self,
        n: u64,
        ingress: PeerId,
        elapsed: Option<Duration>,
        flow: impl FnOnce() -> FlowRecord,
    ) -> Verdict {
        let mut elapsed_ns = 0;
        if let Some(elapsed) = elapsed {
            elapsed_ns = saturating_nanos(elapsed);
            self.metrics.fast_path.record(elapsed);
            self.telemetry.observe_fast_latency(elapsed_ns);
        }
        if self.telemetry.fast_sample_due(n) {
            let flow = flow();
            self.telemetry
                .record_fast_path(self.shard_for(&flow), ingress, &flow, elapsed_ns);
        }
        Verdict::Legal
    }

    /// Stages 2–3 plus alerting and suspect telemetry for one EIA-suspect
    /// flow. `started` carries the latency-sampling decision (and start
    /// time) made by the caller; `mismatch` is the peer the source was
    /// expected at and the snapshot version that said so. With `observe`
    /// the suspect gets the full telemetry — scan-counter observation,
    /// histograms, a flight-recorder entry — as every per-flow suspect and
    /// every sampled batch suspect does; without, the stages skip gathering
    /// it and only the exact counters and the shape sampler see the flow.
    /// What the suspect counts for goes into `tally`, not yet into the
    /// shared counters.
    #[allow(clippy::too_many_arguments)]
    fn suspect_path(
        &self,
        started: Option<Instant>,
        ingress: PeerId,
        flow: &FlowRecord,
        mismatch: (Option<PeerId>, u64),
        effort: Effort,
        observe: bool,
        tally: &mut Tally,
    ) -> Verdict {
        if tally.peer.is_none() {
            let peer = self.telemetry.peer_cell(ingress);
            tally.seen_before = peer.suspects.load(Ordering::Relaxed);
            tally.peer = Some(peer);
        }
        let tick = tally.seen_before + tally.suspects;
        tally.suspects += 1;
        let (expected, version) = mismatch;
        let shard = self.shard_for(flow);
        // Per-flow suspects are rare and slow, so when telemetry is on they
        // are all timed, not just the latency-sampled ones (the histogram
        // needs the tail); the batch loop observes only the sampled ones.
        // `metrics.suspect_path` stays gated on `started`, so it keeps its
        // 1-in-N semantics.
        let suspect_started =
            started.or_else(|| (observe && self.telemetry.enabled()).then(Instant::now));
        let (verdict, observed) = match (self.cfg.mode, effort) {
            (Mode::Basic, _) | (Mode::Enhanced, Effort::BiOnly) => {
                // BI (or the deepest degradation rung) flags every suspect
                // directly.
                let stage = AttackStage::EiaMismatch { expected };
                let mut shard = self.shards[shard].lock();
                shard.suspects += 1;
                self.queue_alert(&mut shard, flow, ingress, stage);
                (Verdict::Attack(stage), SuspectObservation::default())
            }
            (Mode::Enhanced, effort) => {
                self.enhanced_analysis(shard, ingress, flow, version, effort, observe)
            }
        };
        let elapsed = suspect_started.map(|s| s.elapsed());
        if started.is_some() {
            self.metrics
                .suspect_path
                .record(elapsed.expect("timed when sampled"));
        }
        match verdict {
            Verdict::Attack(AttackStage::EiaMismatch { .. }) => tally.eia_attacks += 1,
            Verdict::Attack(AttackStage::NetworkScan { .. } | AttackStage::HostScan { .. }) => {
                tally.scan_attacks += 1
            }
            Verdict::Attack(AttackStage::NnsAnomaly { .. }) => tally.nns_attacks += 1,
            Verdict::Forgiven => tally.forgiven += 1,
            Verdict::Legal => unreachable!("a suspect is never legal"),
        }
        self.telemetry
            .sample_shape(tick, ingress, flow.src_addr, verdict);
        if observe {
            self.telemetry.record_suspect(
                shard,
                ingress,
                expected,
                flow,
                &observed,
                verdict,
                elapsed.map_or(0, saturating_nanos),
            );
        }
        verdict
    }

    /// Batch-first hot path: classifies a struct-of-arrays [`FlowBatch`]
    /// from one ingress, appending one verdict per flow to `out` (same
    /// order).
    ///
    /// Phase A classifies the source column against one snapshot's
    /// frozen LPM — no sort permutation needed, since a frozen lookup
    /// costs the same for any input order; the column is walked a level
    /// at a time so its lookups overlap their cache misses
    /// ([`EiaSnapshot::classify_batch_into`]). Phase B applies
    /// bookkeeping in original flow order; EIA matches never materialise
    /// the record unless telemetry samples it, and suspects run the same
    /// `suspect_path` the per-flow entry uses. If
    /// a suspect's sighting adopts a prefix mid-batch, the precomputed
    /// verdicts are stale for the remaining flows, so they fall back to
    /// live per-flow classification: a later flow from the adopted range
    /// must turn `Legal` exactly as it would have under
    /// [`ConcurrentAnalyzer::process_with_effort`].
    pub fn process_flow_batch_into(
        &self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        let len = batch.len();
        if len == 0 {
            return;
        }
        out.reserve(len);
        let n0 = self.metrics.flows.fetch_add(len as u64, Ordering::Relaxed);
        let sample = self.ccfg.latency_sample_every;

        let mut eia = BATCH_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let src = batch.src_addr_bits();

        // Phase A: grouped EIA classification against one snapshot. Timed
        // as a whole only when some flow in this window samples latency;
        // each sampled match then records its per-flow share.
        let snap_version = self.eia.version();
        let sampling = sample != 0 && n0.next_multiple_of(sample) < n0 + len as u64;
        let a_started = sampling.then(Instant::now);
        trace::start("eia");
        self.eia
            .with(|snapshot| snapshot.classify_batch_into(ingress, src, &mut eia));
        trace::end();
        let per_flow = a_started.map(|s| s.elapsed() / len as u32);

        // Phase B: bookkeeping and suspect analysis in original order.
        // EIA-match bumps are batched into one fetch_add and everything a
        // suspect counts for into `tally`, settled after the loop — after
        // the stale-fallback flows too, which add to the same tally (their
        // matches go through `process_counted` and bump individually).
        let mut matches = 0u64;
        let mut stale = false;
        let mut tally = Tally::default();
        trace::start("verdict");
        for (i, &eia_verdict) in eia.iter().enumerate() {
            let n = n0 + i as u64;
            if stale {
                let flow = batch.record(i);
                out.push(self.process_counted(n, ingress, &flow, effort, &mut tally));
                continue;
            }
            let sampled = self.latency_sampled(n);
            match eia_verdict {
                EiaVerdict::Match => {
                    matches += 1;
                    let share = if sampled { per_flow } else { None };
                    out.push(self.legal(n, ingress, share, || batch.record(i)));
                }
                EiaVerdict::Mismatch { expected } => {
                    let flow = batch.record(i);
                    let started = sampled.then(Instant::now);
                    let mismatch = (expected, snap_version);
                    // Sampled suspects get the full observation.
                    out.push(self.suspect_path(
                        started, ingress, &flow, mismatch, effort, sampled, &mut tally,
                    ));
                    if self.eia.version() != snap_version {
                        stale = true;
                    }
                }
            }
        }
        trace::end();
        if matches > 0 {
            self.metrics.eia_match.fetch_add(matches, Ordering::Relaxed);
        }
        self.settle(tally);

        BATCH_SCRATCH.with(|s| *s.borrow_mut() = eia);
    }

    /// Stages 2–3 for one suspect, queueing the alert of whichever flags
    /// it. `version` is the snapshot version the EIA check ran against.
    fn enhanced_analysis(
        &self,
        shard: usize,
        ingress: PeerId,
        flow: &FlowRecord,
        version: u64,
        effort: Effort,
        observe: bool,
    ) -> (Verdict, SuspectObservation) {
        // Stage 2: Scan Analysis under this suspect's shard lock only.
        // When nothing will record the observation, skip the distinct-
        // counter reads — the push still updates the scan state, so
        // verdicts are unaffected. A hit queues its alert before the lock
        // is let go.
        trace::start("scan");
        let (scan_hit, mut observed) = {
            let mut shard = self.shards[shard].lock();
            shard.suspects += 1;
            let scanned = if observe {
                scan_stage(&mut shard.scan, flow)
            } else {
                (
                    scan_verdict_stage(shard.scan.push(flow)),
                    SuspectObservation::default(),
                )
            };
            if let Some(stage) = scanned.0 {
                self.queue_alert(&mut shard, flow, ingress, stage);
            }
            scanned
        };
        trace::end();
        if let Some(stage) = scan_hit {
            return (Verdict::Attack(stage), observed);
        }
        if effort == Effort::SkipNns {
            // Degraded: the NNS stage is shed, so the scan-pass suspect is
            // cleared — but never recorded as a sighting, because nothing
            // vouched for its normality (adoption must not erode the EIA
            // sets under overload).
            return (Verdict::Forgiven, observed);
        }

        // Stage 3: NNS search — read-only, outside every lock, with the
        // thread-local query buffer.
        let timed = observe && self.telemetry.enabled();
        let (outcome, nns) = ENCODE_SCRATCH.with(|scratch| {
            NNS_MEMO.with(|memo| {
                let mut memo = memo.borrow_mut();
                let (held, entries) = &mut *memo;
                if held.as_ref().map(Arc::as_ptr) != self.model.as_ref().map(Arc::as_ptr) {
                    *held = self.model.clone();
                    *entries = NnsMemo::default();
                }
                nns_stage(
                    self.model.as_deref(),
                    flow,
                    &mut scratch.borrow_mut(),
                    timed,
                    entries,
                )
            })
        });
        observed.nns = Some(nns);
        let verdict = match outcome {
            SuspectOutcome::Cleared => {
                // Within normal behaviour: not an attack; count toward
                // dynamic EIA adoption (§5.2(a)).
                if self.record_sighting(ingress, flow.src_addr, version) {
                    self.metrics.adoptions.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.record_adoption(ingress);
                }
                Verdict::Forgiven
            }
            SuspectOutcome::Attack(stage) => {
                self.queue_alert(&mut self.shards[shard].lock(), flow, ingress, stage);
                Verdict::Attack(stage)
            }
        };
        (verdict, observed)
    }

    /// Routes a suspect to its shard: unrelated destinations spread across
    /// shards, while probes of one target (what Scan Analysis correlates)
    /// stay together. Fibonacci multiply-shift over `(input_if, dst_addr)`.
    fn shard_for(&self, flow: &FlowRecord) -> usize {
        let key = (u64::from(flow.input_if) << 32) | u64::from(u32::from(flow.dst_addr));
        let hashed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((hashed >> 32) as usize) % self.shards.len()
    }

    /// Write-side sighting of a source that was a mismatch at snapshot
    /// `version`; an adoption is published before the lock is released, so
    /// the adopted source takes the fast path on its very next flow.
    /// Returns whether this sighting adopted the source.
    fn record_sighting(&self, ingress: PeerId, addr: Ipv4Addr, version: u64) -> bool {
        // Adoption disabled: the ledger would refuse the sighting anyway,
        // so don't serialise every NNS-cleared suspect on the write-side
        // mutex to learn that.
        if self.cfg.adoption_threshold == 0 {
            return false;
        }
        let mut ledger = self.write_side.lock();
        // No double adoption. Every publish happens under this lock, so an
        // unchanged version means the mismatch still holds; after a publish
        // the table is asked again.
        let rehomed = self.eia.version() != version
            && self
                .eia
                .with(|snapshot| snapshot.classify(ingress, addr).is_match());
        if rehomed {
            return false;
        }
        match ledger.sight(ingress, addr) {
            Some(adopted) => {
                self.publish_adoption(adopted, ingress);
                true
            }
            None => false,
        }
    }

    /// Patches one adoption into the published snapshot (called with the
    /// write-side lock held). Out of line: adoptions are rare next to
    /// suspects, and the copy-on-write branch should not weigh on theirs.
    #[cold]
    #[inline(never)]
    fn publish_adoption(&self, adopted: infilter_net::Prefix, ingress: PeerId) {
        self.eia.update(|snapshot| snapshot.adopt(adopted, ingress));
        self.telemetry.record_republish();
    }

    /// Drains buffered adoption events off the write-side ledger; see
    /// [`crate::Engine::adoption_events`]. Briefly takes the write-side
    /// lock, so callers should drain in batches, not per flow.
    pub fn adoption_events(&self, sink: &mut Vec<crate::AdoptionEvent>) {
        self.write_side.lock().drain_events(sink);
    }

    /// Replaces the EIA table and its adoption ledger wholesale — the
    /// hot-reload path. Dynamic adoptions, pending sightings and undrained
    /// events of the old table are discarded (the reloaded config is the
    /// source of truth). Returns the preloaded prefix count now live.
    pub fn reload_eia(&self, eia: EiaRegistry) -> usize {
        let (snapshot, ledger) = eia.hand_over(&self.cfg);
        let prefixes = snapshot.prefix_count();
        {
            // Both halves under the one lock: no sighting can land in the
            // new ledger and patch the old table, or the other way round.
            let mut write_side = self.write_side.lock();
            *write_side = ledger;
            self.eia.publish(snapshot);
        }
        self.telemetry.record_republish();
        self.telemetry.journal_event(JournalEvent::EiaReload {
            prefixes: prefixes.min(u32::MAX as usize) as u32,
        });
        prefixes
    }

    /// Accounts one flagged flow on its shard, whose lock the caller
    /// holds. A flow whose [`alert_key`] already has an alert since the last
    /// drain adds to that alert's count and does nothing else. A new key
    /// queues an alert and journals it; its id is taken under the lock, so
    /// every queue ascends by id. Once [`OPEN_ALERTS`] keys are open, a new
    /// key joins — or, as the first of them, becomes — the one overflow
    /// aggregate of its `(ingress, stage kind)`, which describes its first
    /// flow like any other alert. A drain therefore hands over at most
    /// `OPEN_ALERTS + 4 × ingresses` alerts per shard, whatever the
    /// attacker rotates.
    fn queue_alert(
        &self,
        shard: &mut Shard,
        flow: &FlowRecord,
        ingress: PeerId,
        stage: AttackStage,
    ) {
        let key = alert_key(ingress, &stage, flow.dst_addr);
        let mut at = shard.open.get(key) as usize;
        let full = shard.open.len() == OPEN_ALERTS;
        if at == 0 && full {
            let kind = std::mem::discriminant(&stage);
            at = shard
                .alerts
                .range(OPEN_ALERTS..)
                .position(|a| a.ingress == ingress && std::mem::discriminant(&a.stage) == kind)
                .map_or(0, |i| OPEN_ALERTS + i + 1);
        }
        if at != 0 {
            let alert = &mut shard.alerts[at - 1];
            alert.count = alert.count.saturating_add(1);
            alert.last_time_ms = alert.last_time_ms.max(flow.last_ms);
            return;
        }
        let id = self.alert_seq.fetch_add(1, Ordering::Relaxed);
        shard
            .alerts
            .push_back(IdmefAlert::new(id, flow, ingress, stage));
        if !full {
            shard.open.add(key, shard.alerts.len() as u32);
        }
        self.telemetry.journal_event(JournalEvent::Alert {
            peer: ingress,
            message_id: id,
        });
    }

    /// Hands every pending IDMEF alert to `sink`, ordered by message id
    /// (the order their first flows were flagged in): a merge of the
    /// per-shard queues, which keep their capacity across drains. The
    /// drain closes every alert: the next flagged flow of any key opens a
    /// new one, so an alert covers the time between two drains — one pump
    /// step in the daemon — and `Σ count` over everything ever drained is
    /// the number of attack verdicts.
    pub fn drain_alerts_into(&self, sink: &mut dyn FnMut(IdmefAlert)) {
        let mut runs = self.drained.lock();
        for (shard, run) in self.shards.iter().zip(runs.iter_mut()) {
            let shard = &mut *shard.lock();
            std::mem::swap(&mut shard.alerts, run);
            // Forget the drained keys one by one: an idle drain must not
            // cost a sweep of the whole table.
            for alert in run.iter().take(shard.open.len()) {
                let key = alert_key(alert.ingress, &alert.stage, alert.target);
                shard.open.sub(key, u32::MAX);
            }
        }
        while let Some(run) = runs
            .iter_mut()
            .filter(|run| !run.is_empty())
            .min_by_key(|run| run[0].message_id)
        {
            sink(run.pop_front().expect("non-empty run"));
        }
    }

    /// [`ConcurrentAnalyzer::drain_alerts_into`] a fresh `Vec`.
    pub fn drain_alerts(&self) -> Vec<IdmefAlert> {
        let mut alerts = Vec::new();
        self.drain_alerts_into(&mut |alert| alerts.push(alert));
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzerConfig, EiaRegistry, Trainer};

    fn bi_analyzer() -> Analyzer {
        let mut eia = EiaRegistry::new(3);
        eia.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
        eia.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
        Trainer::new(AnalyzerConfig {
            mode: Mode::Basic,
            ..AnalyzerConfig::default()
        })
        .train_basic(eia)
    }

    fn ei_analyzer() -> Analyzer {
        let mut eia = EiaRegistry::new(3);
        eia.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
        eia.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
        let normal: Vec<FlowRecord> = (0..80).map(normal_flow).collect();
        Trainer::new(AnalyzerConfig {
            mode: Mode::Enhanced,
            nns: infilter_nns::NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            },
            bits_per_feature: 12,
            ..AnalyzerConfig::default()
        })
        .train_enhanced(eia, &normal)
        .expect("training succeeds")
    }

    /// The `i`-th flow [`ei_analyzer`] trains on.
    fn normal_flow(i: u32) -> FlowRecord {
        FlowRecord {
            src_addr: "3.0.0.1".parse().unwrap(),
            dst_addr: "96.1.0.20".parse().unwrap(),
            dst_port: 80,
            protocol: 6,
            packets: 10 + (i % 6),
            octets: 5000 + 200 * (i % 10),
            first_ms: 0,
            last_ms: 800 + 40 * (i % 7),
            ..FlowRecord::default()
        }
    }

    #[test]
    fn concurrent_bi_matches_and_flags() {
        // One alert before re-sharding: its id is spent, the alert itself
        // is dropped with the analyzer's queue.
        let analyzer = bi_analyzer();
        let early = FlowRecord {
            src_addr: "3.40.0.1".parse().unwrap(),
            ..FlowRecord::default()
        };
        assert!(analyzer.process(PeerId(1), &early).is_attack());
        let engine = ConcurrentAnalyzer::new(analyzer, ConcurrentConfig::default());
        let legal = FlowRecord {
            src_addr: "3.0.0.9".parse().unwrap(),
            ..FlowRecord::default()
        };
        assert!(engine.process(PeerId(1), &legal).is_legal());
        let spoofed = FlowRecord {
            src_addr: "3.40.0.9".parse().unwrap(),
            ..FlowRecord::default()
        };
        assert!(engine.process(PeerId(1), &spoofed).is_attack());
        let m = engine.metrics();
        assert_eq!((m.flows, m.eia_match, m.eia_attacks), (2, 1, 1));
        let alerts = engine.drain_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].message_id, 1,
            "the alert id sequence carries over"
        );
        assert!(engine.drain_alerts().is_empty());
    }

    #[test]
    fn batch_processing_matches_singles() {
        let engine = ConcurrentAnalyzer::new(bi_analyzer(), ConcurrentConfig::default());
        let flows: Vec<FlowRecord> = (0..10u32)
            .map(|i| FlowRecord {
                src_addr: std::net::Ipv4Addr::from(0x0300_0000 + i * 2),
                ..FlowRecord::default()
            })
            .collect();
        let mut batch = FlowBatch::new();
        batch.extend_from_records(&flows);
        let mut verdicts = Vec::new();
        engine.process_flow_batch_into(PeerId(1), &batch, Effort::Full, &mut verdicts);
        assert_eq!(verdicts.len(), 10);
        assert!(verdicts.iter().all(Verdict::is_legal));
        assert_eq!(engine.metrics().flows, 10);
    }

    #[test]
    fn alert_ids_are_unique_and_ordered() {
        let engine = ConcurrentAnalyzer::new(bi_analyzer(), ConcurrentConfig::default());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..50u32 {
                        let flow = FlowRecord {
                            src_addr: std::net::Ipv4Addr::from(0x0320_0000 + i),
                            dst_addr: std::net::Ipv4Addr::from(0x6001_0000 + t * 64 + i),
                            ..FlowRecord::default()
                        };
                        assert!(engine.process(PeerId(1), &flow).is_attack());
                    }
                });
            }
        });
        // One key (peer 1, EIA stage, expected at peer 2), so one alert a
        // shard, however the threads interleaved.
        let alerts = engine.drain_alerts();
        assert!(alerts.len() <= engine.shards.len(), "{}", alerts.len());
        assert_eq!(alerts.iter().map(|a| a.count).sum::<u32>(), 200);
        assert!(
            alerts.windows(2).all(|w| w[0].message_id < w[1].message_id),
            "ids must be unique and drained in order"
        );
    }

    /// Between two drains the flows of one key are one alert: the first
    /// flow's fields, a count, the latest end time. The drain closes it.
    #[test]
    fn flows_of_one_key_fold_into_one_alert_until_the_drain() {
        let engine = bi_analyzer();
        let spoofed = |src: &str, last_ms: u32| FlowRecord {
            src_addr: src.parse().unwrap(),
            dst_port: 80,
            last_ms,
            ..FlowRecord::default()
        };
        for (src, last_ms) in [("3.40.0.1", 10), ("3.40.0.2", 30), ("3.40.0.3", 20)] {
            assert!(engine
                .process(PeerId(1), &spoofed(src, last_ms))
                .is_attack());
        }
        // Another key each: nobody's source, and the same source at peer 2.
        assert!(engine
            .process(PeerId(1), &spoofed("9.0.0.1", 40))
            .is_attack());
        assert!(engine
            .process(PeerId(2), &spoofed("9.0.0.1", 50))
            .is_attack());
        let alerts = engine.drain_alerts();
        let seen: Vec<_> = alerts
            .iter()
            .map(|a| {
                (
                    a.message_id,
                    a.ingress,
                    a.count,
                    a.create_time_ms,
                    a.last_time_ms,
                )
            })
            .collect();
        assert_eq!(
            seen,
            [
                (0, PeerId(1), 3, 10, 30),
                (1, PeerId(1), 1, 40, 40),
                (2, PeerId(2), 1, 50, 50)
            ]
        );
        assert_eq!(alerts[0].source, "3.40.0.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(engine.telemetry().journal().recorded(), 3);

        assert!(engine
            .process(PeerId(1), &spoofed("3.40.0.4", 60))
            .is_attack());
        let next = engine.drain_alerts();
        assert_eq!(next.len(), 1, "the drained alert must not absorb this flow");
        assert_eq!((next[0].message_id, next[0].count), (3, 1));
        assert_eq!(engine.metrics().eia_attacks, 6);
    }

    /// Past [`OPEN_ALERTS`] keys a flow joins its `(ingress, stage kind)`
    /// overflow aggregate, so a drain's size does not follow the number of
    /// targets an attacker rotates through.
    #[test]
    fn keys_past_the_capacity_share_an_overflow_aggregate() {
        let engine = ei_analyzer();
        // FTP was never trained on: every suspect is an NNS anomaly, keyed
        // by its destination. Too many packets to count as scan probes.
        let anomalous = |dst: u32| FlowRecord {
            src_addr: "9.0.0.1".parse().unwrap(),
            dst_addr: Ipv4Addr::from(0x6001_0000 + dst),
            dst_port: 21,
            protocol: 6,
            packets: 1_000,
            ..normal_flow(0)
        };
        let targets = OPEN_ALERTS as u32 + 44;
        for round in 0..2 {
            for dst in 0..targets {
                let ingress = PeerId(1 + (dst % 2) as u16);
                let verdict = engine.process(ingress, &anomalous(dst));
                assert!(
                    matches!(verdict, Verdict::Attack(AttackStage::NnsAnomaly { .. })),
                    "round {round}, target {dst}: {verdict:?}"
                );
            }
        }
        let alerts = engine.drain_alerts();
        assert_eq!(alerts.len(), OPEN_ALERTS + 2, "one aggregate per ingress");
        let (keyed, overflow) = alerts.split_at(OPEN_ALERTS);
        assert!(keyed.iter().all(|a| a.count == 2));
        assert_eq!(
            overflow.iter().map(|a| a.count).collect::<Vec<_>>(),
            [44, 44]
        );
        assert_eq!(
            u32::from(overflow[0].target),
            0x6001_0000 + OPEN_ALERTS as u32
        );
        assert_eq!(engine.telemetry().journal().recorded(), alerts.len() as u64);
        // The drain forgot every key: the same stream keys afresh.
        for dst in 0..targets {
            engine.process(PeerId(1), &anomalous(dst));
        }
        assert_eq!(engine.drain_alerts().len(), OPEN_ALERTS + 1);
        assert_eq!(engine.metrics().nns_attacks, 3 * u64::from(targets));
    }

    /// What a call's suspects count for reaches the shared counters when
    /// the call returns — per flow or per batch, histograms on or off —
    /// and each shard counts the suspects routed to it.
    #[test]
    fn a_call_settles_its_suspects_once() {
        for enabled in [true, false] {
            let mut eia = EiaRegistry::new(3);
            eia.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
            let mut cfg = AnalyzerConfig {
                mode: Mode::Basic,
                ..AnalyzerConfig::default()
            };
            cfg.telemetry.enabled = enabled;
            let engine = ConcurrentAnalyzer::new(
                Trainer::new(cfg).train_basic(eia),
                ConcurrentConfig::default(),
            );
            let flows: Vec<FlowRecord> = (0..40u32)
                .map(|i| FlowRecord {
                    // Every fourth flow is peer 1's own.
                    src_addr: Ipv4Addr::from(
                        if i % 4 == 0 { 0x0300_0000 } else { 0x0900_0000 } + i,
                    ),
                    dst_addr: Ipv4Addr::from(0x6001_0000 + i),
                    ..FlowRecord::default()
                })
                .collect();
            let mut batch = FlowBatch::new();
            batch.extend_from_records(&flows);
            let mut verdicts = Vec::new();
            engine.process_flow_batch_into(PeerId(1), &batch, Effort::Full, &mut verdicts);
            engine.process(PeerId(2), &flows[1]);
            let m = engine.metrics();
            assert_eq!(
                (m.flows, m.eia_match, m.eia_suspect, m.eia_attacks),
                (41, 10, 31, 31)
            );
            let peers: Vec<_> = engine
                .telemetry()
                .peer_counters()
                .iter()
                .map(|(peer, c)| {
                    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
                    (
                        *peer,
                        load(&c.suspects),
                        load(&c.attacks),
                        load(&c.forgiven),
                    )
                })
                .collect();
            assert_eq!(peers, [(1, 30, 30, 0), (2, 1, 1, 0)]);
            let by_shard = engine.shard_suspects();
            assert_eq!(by_shard.iter().sum::<u64>(), 31);
            assert!(
                by_shard.iter().filter(|&&n| n > 0).count() > 1,
                "{by_shard:?}"
            );
            assert_eq!(
                engine.telemetry().suspect_path_latency().count() > 0,
                enabled
            );
        }
    }

    #[test]
    fn published_adoption_reaches_other_threads() {
        // EI with shards=1 and immediate publication: three forgiven flows
        // adopt the source; a different thread then sees it on the fast
        // path.
        let mut eia = EiaRegistry::new(3);
        eia.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
        eia.preload(PeerId(2), "3.32.0.0/11".parse().unwrap());
        let normal: Vec<FlowRecord> = (0..80)
            .map(|i| FlowRecord {
                src_addr: "3.0.0.1".parse().unwrap(),
                dst_addr: "96.1.0.20".parse().unwrap(),
                dst_port: 80,
                protocol: 6,
                packets: 10 + (i % 6),
                octets: 5000 + 200 * (i % 10),
                first_ms: 0,
                last_ms: 800 + 40 * (i % 7),
                ..FlowRecord::default()
            })
            .collect();
        let analyzer = Trainer::new(AnalyzerConfig {
            mode: Mode::Enhanced,
            nns: infilter_nns::NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            },
            bits_per_feature: 12,
            adoption_threshold: 3,
            ..AnalyzerConfig::default()
        })
        .train_enhanced(eia, &normal)
        .expect("training succeeds");
        let engine = ConcurrentAnalyzer::new(
            analyzer,
            ConcurrentConfig {
                shards: 1,
                ..ConcurrentConfig::default()
            },
        );

        let roaming = |i: u32| FlowRecord {
            src_addr: "3.33.0.77".parse().unwrap(),
            dst_addr: "96.1.0.20".parse().unwrap(),
            dst_port: 80,
            protocol: 6,
            packets: 10 + (i % 6),
            octets: 5000 + 200 * (i % 10),
            first_ms: 0,
            last_ms: 800 + 40 * (i % 7),
            ..FlowRecord::default()
        };
        for i in 0..3 {
            assert!(engine.process(PeerId(1), &roaming(i)).is_forgiven());
        }
        assert_eq!(engine.metrics().adoptions, 1);
        // Another thread sees the adoption.
        std::thread::scope(|s| {
            let engine = &engine;
            s.spawn(move || {
                assert!(engine.process(PeerId(1), &roaming(9)).is_legal());
            });
        });
        assert_eq!(engine.eia_snapshot().adopted_count(), 1);
    }

    #[test]
    fn reload_eia_republishes_immediately() {
        let engine = ConcurrentAnalyzer::new(bi_analyzer(), ConcurrentConfig::default());
        let spoofed = FlowRecord {
            src_addr: "9.0.0.1".parse().unwrap(),
            ..FlowRecord::default()
        };
        assert!(engine.process(PeerId(1), &spoofed).is_attack());
        let mut fresh = EiaRegistry::new(3);
        fresh.preload(PeerId(1), "9.0.0.0/11".parse().expect("static prefix"));
        assert_eq!(engine.reload_eia(fresh), 1);
        assert!(!engine.process(PeerId(1), &spoofed).is_attack());
    }

    /// A reload hands the engine a new table *and* a new ledger: what the
    /// old one had counted is gone, and the policy stays the analyzer
    /// config's, whatever the incoming registry was built with.
    #[test]
    fn reload_eia_starts_a_fresh_ledger() {
        let engine = ConcurrentAnalyzer::new(ei_analyzer(), ConcurrentConfig::default());
        let threshold = engine.config().adoption_threshold;
        assert!(threshold > 2 && engine.config().adoption_prefix_len == 32);
        // Peer 2's space, seen at peer 1, shaped like a training flow.
        let roaming = FlowRecord {
            src_addr: "3.33.0.77".parse().unwrap(),
            ..normal_flow(0)
        };
        for _ in 1..threshold {
            assert!(engine.process(PeerId(1), &roaming).is_forgiven());
        }
        assert_eq!(engine.write_side.lock().sightings_window(), (1, 0));

        let mut fresh = EiaRegistry::new(1);
        fresh.set_adoption_prefix_len(24);
        fresh.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
        fresh.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
        assert_eq!(engine.reload_eia(fresh), 2);
        assert_eq!(engine.write_side.lock().sightings_window(), (0, 0));

        // One short of the config's threshold again: the old count would
        // have adopted on the first of these, the registry's threshold of
        // one as well.
        for _ in 1..threshold {
            assert!(engine.process(PeerId(1), &roaming).is_forgiven());
        }
        assert_eq!(engine.metrics().adoptions, 0);
        assert!(engine.process(PeerId(1), &roaming).is_forgiven());
        assert_eq!(engine.metrics().adoptions, 1);
        let mut events = Vec::new();
        engine.adoption_events(&mut events);
        let adopted: Vec<_> = events.iter().map(|e| e.prefix).collect();
        assert_eq!(adopted, ["3.33.0.77/32".parse().expect("static prefix")]);
    }

    #[test]
    fn degraded_efforts_shed_stages_concurrently() {
        let engine = ConcurrentAnalyzer::new(ei_analyzer(), ConcurrentConfig::default());
        let spoofed = FlowRecord {
            src_addr: "77.0.0.1".parse().unwrap(),
            dst_port: 7,
            ..FlowRecord::default()
        };
        // SkipNns: scan-pass suspects are forgiven without an NNS search
        // or an adoption sighting.
        assert_eq!(
            engine.process_with_effort(PeerId(1), &spoofed, Effort::SkipNns),
            Verdict::Forgiven
        );
        assert_eq!(engine.metrics().forgiven, 1);
        assert_eq!(engine.eia_snapshot().adopted_count(), 0);
        // BiOnly: suspects are flagged straight off the EIA mismatch.
        assert!(engine
            .process_with_effort(PeerId(1), &spoofed, Effort::BiOnly)
            .is_attack());
        let m = engine.metrics();
        assert_eq!(m.eia_attacks, 1);
        assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);
    }
}
