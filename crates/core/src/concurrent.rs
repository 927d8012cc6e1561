//! Concurrent flow processing: the sharded, lock-free fast path.
//!
//! The paper's Figure 9 deployment feeds one analysis module from several
//! Flow-tools instances at once. An earlier design serialised them behind
//! one global mutex, so adding collector threads added contention instead
//! of throughput. [`ConcurrentAnalyzer`] restructures the engine around
//! what the workload actually is — read-mostly:
//!
//! * **EIA check (every flow)** runs against an immutable [`EiaSnapshot`]
//!   published through a [`SnapshotCell`] and cached per thread, so the
//!   hot path costs one relaxed atomic load and a trie lookup — no lock,
//!   no shared cache-line write.
//! * **Suspect analysis (rare)** is sharded by `(input_if, dst_addr)`:
//!   each shard owns its own [`ScanAnalyzer`] buffer and alert queue
//!   behind its own mutex, so suspects from unrelated destinations never
//!   contend. NNS search is read-only and runs outside any lock.
//! * **Adoptions (rarest)** go through a single write-side [`EiaRegistry`]
//!   and are patched into the published snapshot at once
//!   ([`SnapshotCell::update`]): in place when no reader holds it,
//!   copy-on-write when one does.
//! * **Metrics** are relaxed [`AtomicU64`] counters with *sampled* latency
//!   so `Instant::now()` stays off the per-flow path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_nns::BitVec;
use infilter_telemetry::trace;
use parking_lot::Mutex;

use crate::eia::EiaSnapshot;
use crate::metrics::ConcurrentMetrics;
use crate::observe::{JournalEvent, PipelineTelemetry, SuspectObservation};
use crate::pipeline::{
    nns_stage, saturating_nanos, scan_stage, scan_verdict_stage, NnsMemo, SuspectOutcome,
    SuspectRecord,
};
use crate::snapshot::{CachedSnapshot, SnapshotCell};
use crate::{
    Analyzer, AnalyzerMetrics, AttackStage, ClusterModel, Effort, EiaRegistry, EiaVerdict,
    FlowDecision, IdmefAlert, Mode, PeerId, ScanAnalyzer, Verdict,
};

/// Tuning for [`ConcurrentAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrentConfig {
    /// Suspect-path shards. Each shard has its own scan buffer and alert
    /// queue; suspects are routed by a hash of `(input_if, dst_addr)`.
    /// `1` reproduces the single-threaded [`Analyzer`]'s scan semantics
    /// exactly; higher values trade a wider effective network-scan
    /// threshold (distinct ports land on distinct shards) for parallelism.
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

/// Mutable suspect-path state owned by one shard.
#[derive(Debug)]
struct Shard {
    scan: ScanAnalyzer,
    alerts: Vec<IdmefAlert>,
}

/// Thread-local snapshot caches, keyed by [`SnapshotCell::id`] so caches
/// never leak across analyzers. Capped: a thread touching many analyzers
/// evicts oldest-first rather than growing without bound.
const MAX_CACHED_CELLS: usize = 32;

thread_local! {
    static EIA_CACHE: RefCell<Vec<(u64, Option<CachedSnapshot<EiaSnapshot>>)>> =
        const { RefCell::new(Vec::new()) };
    /// Per-thread NNS query buffer: suspect-flow encode + search reuses one
    /// allocation per collector thread instead of allocating per flow. Safe
    /// to share across analyzers — `encode_into` resets length and contents
    /// on every use.
    static ENCODE_SCRATCH: RefCell<BitVec> = RefCell::new(BitVec::zeros(0));
    /// Per-thread batch-path scratch: the precomputed EIA verdicts for
    /// `process_flow_batch_into`. Cleared on every use.
    static BATCH_SCRATCH: RefCell<Vec<EiaVerdict>> = const { RefCell::new(Vec::new()) };
    /// Per-thread column buffer for the record-slice batch entry point.
    /// Taken (not borrowed) for the duration of a batch so the flow-batch
    /// path can use `BATCH_SCRATCH` freely.
    static BATCH_COLUMNS: RefCell<FlowBatch> = RefCell::new(FlowBatch::new());
    /// Per-thread NNS memo, keyed by the owning model. The key holds a
    /// clone of the model `Arc` — not just its address — so a dropped
    /// model's allocation can never be recycled into a new model that
    /// would then replay the old model's memoized distances; a key
    /// mismatch resets the memo.
    static NNS_MEMO: RefCell<(Option<Arc<ClusterModel>>, NnsMemo)> =
        RefCell::new((None, NnsMemo::default()));
}

/// The concurrent InFilter engine: `process` takes `&self` and scales with
/// threads, because the per-flow EIA check touches no shared mutable state.
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
    /// Published read side of the EIA sets.
    eia: SnapshotCell<EiaSnapshot>,
    /// Authoritative write side (sightings, adoptions).
    write_side: Mutex<EiaRegistry>,
    shards: Vec<Mutex<Shard>>,
    model: Option<Arc<ClusterModel>>,
    metrics: ConcurrentMetrics,
    telemetry: PipelineTelemetry,
    alert_seq: AtomicU64,
}

impl ConcurrentAnalyzer {
    /// Builds the concurrent engine from a trained [`Analyzer`]. Pending
    /// alerts on the analyzer are dropped; drain them first if they
    /// matter. The alert id sequence carries over.
    ///
    /// # Panics
    ///
    /// Panics if `ccfg.shards` is zero.
    pub fn new(analyzer: Analyzer, ccfg: ConcurrentConfig) -> ConcurrentAnalyzer {
        assert!(ccfg.shards > 0, "at least one shard is required");
        let (cfg, registry, model, next_alert_id) = analyzer.into_parts();
        let shards = (0..ccfg.shards)
            .map(|_| {
                Mutex::new(Shard {
                    scan: ScanAnalyzer::new(cfg.scan),
                    alerts: Vec::new(),
                })
            })
            .collect();
        ConcurrentAnalyzer {
            eia: SnapshotCell::new(registry.snapshot()),
            write_side: Mutex::new(registry),
            shards,
            model: model.map(Arc::new),
            metrics: ConcurrentMetrics::default(),
            telemetry: PipelineTelemetry::new(cfg.telemetry, ccfg.shards),
            alert_seq: AtomicU64::new(next_alert_id),
            cfg,
            ccfg,
        }
    }

    /// The analyzer configuration in force.
    pub fn config(&self) -> &crate::AnalyzerConfig {
        &self.cfg
    }

    /// The concurrency configuration in force.
    pub fn concurrent_config(&self) -> &ConcurrentConfig {
        &self.ccfg
    }

    /// A point-in-time copy of the counters (see
    /// [`ConcurrentMetrics::snapshot`] for consistency caveats).
    pub fn metrics(&self) -> AnalyzerMetrics {
        self.metrics.snapshot()
    }

    /// The currently published EIA snapshot.
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

    /// Renders the full metric set as one Prometheus text-format (0.0.4)
    /// exposition page. Briefly locks each shard to read scan occupancy.
    pub fn prometheus_text(&self) -> String {
        let occupancy: Vec<(usize, usize)> = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                (shard.scan.buffered(), shard.scan.counter_entries())
            })
            .collect();
        let snap = self.eia.load();
        crate::observe::render_exposition(
            &self.metrics.snapshot(),
            &self.telemetry,
            &occupancy,
            (snap.prefix_count(), snap.approx_bytes()),
        )
    }

    /// Processes one flow observed at `ingress` (Figure 12), callable from
    /// any number of threads simultaneously.
    pub fn process(&self, ingress: PeerId, flow: &FlowRecord) -> Verdict {
        self.process_with_effort(ingress, flow, Effort::Full)
    }

    /// [`ConcurrentAnalyzer::process`] at an explicit degradation rung (see
    /// [`Effort`]): the ingest daemon's load-shedding ladder calls this with
    /// the rung its queue watermarks selected.
    pub fn process_with_effort(
        &self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        let n = self.metrics.flows.fetch_add(1, Ordering::Relaxed);
        self.process_counted(n, ingress, flow, effort)
    }

    /// The per-flow pipeline after the flow counter; see the single-threaded
    /// [`Analyzer`]'s equivalent for the contract on `n`.
    fn process_counted(
        &self,
        n: u64,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        let sample = self.ccfg.latency_sample_every;
        let started = if sample != 0 && n.is_multiple_of(sample) {
            Some(std::time::Instant::now())
        } else {
            None
        };

        // Stage 1: lock-free EIA check against the cached snapshot.
        let snapshot = self.cached_snapshot();
        let eia_verdict = snapshot.classify(ingress, flow.src_addr);
        drop(snapshot);
        match eia_verdict {
            EiaVerdict::Match => {
                ConcurrentMetrics::bump(&self.metrics.eia_match);
                let mut elapsed_ns = 0;
                if let Some(started) = started {
                    let elapsed = started.elapsed();
                    elapsed_ns = saturating_nanos(elapsed);
                    self.metrics.fast_path.record(elapsed);
                    self.telemetry.observe_fast_latency(elapsed_ns);
                }
                if self.telemetry.fast_sample_due(n) {
                    self.telemetry.record_fast_path(
                        self.shard_for(flow),
                        ingress,
                        flow,
                        elapsed_ns,
                    );
                }
                Verdict::Legal
            }
            EiaVerdict::Mismatch { expected } => self.suspect_counted(
                started,
                ingress,
                flow,
                expected,
                effort,
                SuspectRecord::Full,
            ),
        }
    }

    /// Stages 2–3 plus alerting and suspect telemetry for one EIA-suspect
    /// flow; the concurrent twin of the single-threaded suspect path.
    fn suspect_counted(
        &self,
        started: Option<std::time::Instant>,
        ingress: PeerId,
        flow: &FlowRecord,
        expected: Option<PeerId>,
        effort: Effort,
        record: SuspectRecord,
    ) -> Verdict {
        ConcurrentMetrics::bump(&self.metrics.eia_suspect);
        let observe = record.observed();
        // Per-flow suspects are rare enough to always time when telemetry
        // is on; the batch path samples instead (`SuspectRecord::Light`).
        // The sampled `AtomicStageLatency` stays gated on `started` so its
        // semantics (1-in-N) are unchanged.
        let suspect_started =
            started.or_else(|| (observe && self.telemetry.enabled()).then(std::time::Instant::now));
        let (verdict, observed) = match (self.cfg.mode, effort) {
            (Mode::Basic, _) | (Mode::Enhanced, Effort::BiOnly) => {
                ConcurrentMetrics::bump(&self.metrics.eia_attacks);
                (
                    Verdict::Attack(AttackStage::EiaMismatch { expected }),
                    SuspectObservation::default(),
                )
            }
            (Mode::Enhanced, effort) => self.enhanced_analysis(ingress, flow, effort, observe),
        };
        if let Verdict::Attack(stage) = verdict {
            self.emit_alert(flow, ingress, stage);
        }
        let elapsed = suspect_started.map(|s| s.elapsed());
        if started.is_some() {
            self.metrics
                .suspect_path
                .record(elapsed.expect("timed when sampled"));
        }
        match record {
            SuspectRecord::Full => self.telemetry.record_suspect(
                self.shard_for(flow),
                ingress,
                expected,
                flow,
                &observed,
                verdict,
                elapsed.map_or(0, saturating_nanos),
            ),
            SuspectRecord::Light(peer) => self.telemetry.record_suspect_light(
                self.shard_for(flow),
                ingress,
                flow.src_addr,
                peer,
                verdict,
            ),
        }
        verdict
    }

    /// Processes a batch of flows from one ingress — the natural unit a
    /// NetFlow export packet yields — amortising the snapshot lookup.
    pub fn process_batch(&self, ingress: PeerId, flows: &[FlowRecord]) -> Vec<Verdict> {
        self.process_batch_with_effort(ingress, flows, Effort::Full)
    }

    /// [`ConcurrentAnalyzer::process_batch`] at an explicit degradation
    /// rung.
    pub fn process_batch_with_effort(
        &self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
    ) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(flows.len());
        self.process_batch_into(ingress, flows, effort, &mut out);
        out
    }

    /// Record-slice batch entry point: transposes into a per-thread column
    /// buffer and runs the grouped batch path, appending verdicts to `out`.
    pub fn process_batch_into(
        &self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        let mut batch = BATCH_COLUMNS.with(|b| std::mem::take(&mut *b.borrow_mut()));
        batch.clear();
        batch.extend_from_records(flows);
        self.process_flow_batch_into(ingress, &batch, effort, out);
        BATCH_COLUMNS.with(|b| *b.borrow_mut() = batch);
    }

    /// Batch-first hot path over a struct-of-arrays [`FlowBatch`]: the
    /// concurrent twin of the single-threaded analyzer's grouped EIA pass.
    ///
    /// Phase A classifies the source column against one cached snapshot's
    /// frozen LPM — no sort permutation needed, since a frozen lookup
    /// costs the same constant number of memory touches for any input
    /// order. Phase B applies bookkeeping in original flow order. If a
    /// suspect's sighting republishes the EIA snapshot mid-batch (an
    /// adoption landed), the precomputed verdicts are stale for the
    /// remaining flows, so they fall back to live per-flow classification
    /// — exactly when the per-flow path's own `cached_snapshot` would
    /// have reloaded.
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
        let snapshot = self.cached_snapshot();
        let sampling = sample != 0 && n0.next_multiple_of(sample) < n0 + len as u64;
        let a_started = sampling.then(std::time::Instant::now);
        trace::start("eia");
        snapshot.classify_batch_into(ingress, src, &mut eia);
        trace::end();
        let per_flow = a_started.map(|s| s.elapsed() / len as u32);
        drop(snapshot);

        // Phase B: bookkeeping and suspect analysis in original order.
        // EIA-match bumps are batched into one fetch_add; stale-fallback
        // flows go through `process_counted`, which bumps individually.
        let mut matches = 0u64;
        let mut stale = false;
        trace::start("verdict");
        // All suspects in this batch share one ingress: hoist their peer
        // counter cell out of the loop, lazily so suspect-free batches
        // never materialise it.
        let mut peer: Option<std::sync::Arc<crate::observe::PeerCounters>> = None;
        for (i, &eia_verdict) in eia.iter().enumerate() {
            let n = n0 + i as u64;
            if stale {
                out.push(self.process_counted(n, ingress, &batch.record(i), effort));
                continue;
            }
            match eia_verdict {
                EiaVerdict::Match => {
                    matches += 1;
                    let mut elapsed_ns = 0;
                    if sample != 0 && n.is_multiple_of(sample) {
                        if let Some(share) = per_flow {
                            elapsed_ns = saturating_nanos(share);
                            self.metrics.fast_path.record(share);
                            self.telemetry.observe_fast_latency(elapsed_ns);
                        }
                    }
                    if self.telemetry.fast_sample_due(n) {
                        let record = batch.record(i);
                        self.telemetry.record_fast_path(
                            self.shard_for(&record),
                            ingress,
                            &record,
                            elapsed_ns,
                        );
                    }
                    out.push(Verdict::Legal);
                }
                EiaVerdict::Mismatch { expected } => {
                    let flow = batch.record(i);
                    let started = if sample != 0 && n.is_multiple_of(sample) {
                        Some(std::time::Instant::now())
                    } else {
                        None
                    };
                    // Sampled suspects get the full observation; the rest
                    // take the counters-only path (see `SuspectRecord`).
                    let record = if started.is_some() {
                        SuspectRecord::Full
                    } else {
                        if peer.is_none() {
                            peer = Some(self.telemetry.peer_cell(ingress));
                        }
                        SuspectRecord::Light(peer.as_deref().expect("hoisted above"))
                    };
                    out.push(
                        self.suspect_counted(started, ingress, &flow, expected, effort, record),
                    );
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

        BATCH_SCRATCH.with(|s| *s.borrow_mut() = eia);
    }

    fn enhanced_analysis(
        &self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
        observe: bool,
    ) -> (Verdict, SuspectObservation) {
        // Stage 2: Scan Analysis under this suspect's shard lock only.
        // When nothing will record the observation, skip the distinct-
        // counter reads — the push still updates the scan state, so
        // verdicts are unaffected.
        trace::start("scan");
        let (scan_hit, mut observed) = {
            let mut shard = self.shards[self.shard_for(flow)].lock();
            if observe {
                scan_stage(&mut shard.scan, flow)
            } else {
                (
                    scan_verdict_stage(shard.scan.push(flow)),
                    SuspectObservation::default(),
                )
            }
        };
        trace::end();
        if let Some(stage) = scan_hit {
            ConcurrentMetrics::bump(&self.metrics.scan_attacks);
            return (Verdict::Attack(stage), observed);
        }
        if effort == Effort::SkipNns {
            // Degraded: clear the scan-pass suspect without the NNS search
            // and without an adoption sighting (see the single-threaded
            // analyzer for the rationale).
            ConcurrentMetrics::bump(&self.metrics.forgiven);
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
                ConcurrentMetrics::bump(&self.metrics.forgiven);
                if self.record_sighting(ingress, flow.src_addr) {
                    ConcurrentMetrics::bump(&self.metrics.adoptions);
                    self.telemetry.record_adoption(ingress);
                }
                Verdict::Forgiven
            }
            SuspectOutcome::Attack(stage) => {
                ConcurrentMetrics::bump(&self.metrics.nns_attacks);
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

    /// The current EIA snapshot via the thread-local cache: one atomic
    /// version load per flow in steady state.
    fn cached_snapshot(&self) -> Arc<EiaSnapshot> {
        EIA_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let id = self.eia.id();
            if let Some((_, slot)) = cache.iter_mut().find(|(cell, _)| *cell == id) {
                return self.eia.load_cached(slot);
            }
            if cache.len() >= MAX_CACHED_CELLS {
                cache.remove(0);
            }
            let mut slot = None;
            let snapshot = self.eia.load_cached(&mut slot);
            cache.push((id, slot));
            snapshot
        })
    }

    /// Write-side sighting; an adoption is published before the lock is
    /// released, so the adopted source takes the fast path on its very
    /// next flow, as in the single-threaded analyzer. Returns whether this
    /// sighting adopted the source.
    fn record_sighting(&self, ingress: PeerId, addr: std::net::Ipv4Addr) -> bool {
        // Adoption disabled: the registry would refuse the sighting anyway
        // (see `EiaRegistry::record_sighting`), so don't serialise every
        // NNS-cleared suspect on the write-side mutex to learn that.
        if self.cfg.adoption_threshold == 0 {
            return false;
        }
        let mut registry = self.write_side.lock();
        match registry.sight(ingress, addr) {
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
        // Let go of this thread's cached handle first: with no other
        // reader about (the daemon's single worker) the table is then
        // patched in place instead of copied.
        EIA_CACHE.with(|cache| {
            cache
                .borrow_mut()
                .retain(|(cell, _)| *cell != self.eia.id())
        });
        self.eia.update(|snapshot| snapshot.adopt(adopted, ingress));
        self.telemetry.record_republish();
    }

    /// Drains buffered adoption events off the write-side registry; see
    /// [`crate::Engine::adoption_events`]. Briefly takes the write-side
    /// lock, so callers should drain in batches, not per flow.
    pub fn adoption_events(&self, sink: &mut Vec<crate::AdoptionEvent>) {
        self.write_side.lock().drain_events(sink);
    }

    /// Replaces the write-side EIA registry wholesale and republishes its
    /// snapshot — the hot-reload path. Adoption knobs from the analyzer
    /// config are reapplied so a freshly parsed registry behaves like the
    /// one it replaces. Returns the preloaded prefix count now live.
    pub fn reload_eia(&self, mut eia: crate::EiaRegistry) -> usize {
        eia.set_adoption_threshold(self.cfg.adoption_threshold);
        eia.set_adoption_prefix_len(self.cfg.adoption_prefix_len);
        let mut registry = self.write_side.lock();
        *registry = eia;
        self.eia.publish(registry.snapshot());
        self.telemetry.record_republish();
        let prefixes = registry.prefix_count();
        self.telemetry.journal_event(JournalEvent::EiaReload {
            prefixes: prefixes.min(u32::MAX as usize) as u32,
        });
        prefixes
    }

    fn emit_alert(&self, flow: &FlowRecord, ingress: PeerId, stage: AttackStage) {
        let id = self.alert_seq.fetch_add(1, Ordering::Relaxed);
        let alert = IdmefAlert::new(id, flow, ingress, stage);
        self.telemetry.journal_event(JournalEvent::Alert {
            peer: ingress,
            message_id: id,
        });
        self.shards[self.shard_for(flow)].lock().alerts.push(alert);
    }

    /// Drains pending IDMEF alerts from every shard, ordered by message id
    /// (the order `process` assigned them).
    pub fn drain_alerts(&self) -> Vec<IdmefAlert> {
        let mut alerts: Vec<IdmefAlert> = self
            .shards
            .iter()
            .flat_map(|s| std::mem::take(&mut s.lock().alerts))
            .collect();
        alerts.sort_by_key(|a| a.message_id);
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

    #[test]
    fn concurrent_bi_matches_and_flags() {
        let engine = ConcurrentAnalyzer::new(bi_analyzer(), ConcurrentConfig::default());
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
        let verdicts = engine.process_batch(PeerId(1), &flows);
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
        let alerts = engine.drain_alerts();
        assert_eq!(alerts.len(), 200);
        let ids: Vec<u64> = alerts.iter().map(|a| a.message_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "ids must be unique and drained in order");
    }

    #[test]
    fn published_adoption_reaches_other_threads() {
        // EI with shards=1 and immediate publication: three forgiven flows
        // adopt the source; a different thread then sees it on the fast
        // path through its own cached snapshot.
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
        // A fresh thread (fresh snapshot cache) sees the adoption.
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
