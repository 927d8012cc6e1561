use std::net::Ipv4Addr;
use std::time::Instant;

use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_nns::{BitVec, NnsParams};
use infilter_telemetry::trace;
use infilter_traffic::AppClass;
use serde::{Deserialize, Serialize};

pub use crate::eia::PeerId;
use crate::observe::{
    JournalEvent, NnsObservation, PipelineTelemetry, SuspectObservation, TelemetryConfig,
};
use crate::{
    AnalyzerMetrics, ClusterModel, EiaRegistry, EiaSnapshot, EiaVerdict, FlowDecision, IdmefAlert,
    ScanAnalyzer, ScanConfig, ScanVerdict, ThresholdPolicy, TrainError,
};

/// Software configuration (§6.3): `BI` assesses traffic with EIA analysis
/// alone; `EI` adds Scan Analysis and NNS on EIA-suspect flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Basic InFilter.
    Basic,
    /// Enhanced InFilter.
    Enhanced,
}

/// Which detection stage flagged a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackStage {
    /// EIA mismatch, flagged directly (Basic InFilter only).
    EiaMismatch {
        /// The peer the source was expected at, if any.
        expected: Option<PeerId>,
    },
    /// Scan Analysis network-scan counter exceeded.
    NetworkScan {
        /// The scanned port.
        dst_port: u16,
        /// Distinct hosts hit.
        distinct_hosts: usize,
    },
    /// Scan Analysis host-scan counter exceeded.
    HostScan {
        /// The scanned host.
        dst_addr: Ipv4Addr,
        /// Distinct ports hit.
        distinct_ports: usize,
    },
    /// NNS distance above the subcluster threshold (or no subcluster /
    /// no neighbour found).
    NnsAnomaly {
        /// Distance to the nearest normal flow (`u32::MAX` if none found).
        distance: u32,
        /// The subcluster's threshold.
        threshold: u32,
        /// The service subcluster consulted.
        class: AppClass,
    },
}

/// Per-flow outcome of online operation (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// EIA matched: legal, no further processing.
    Legal,
    /// Flagged as an attack at the given stage.
    Attack(AttackStage),
    /// EIA-suspect but assessed to be within normal behaviour (counts
    /// toward EIA adoption).
    Forgiven,
}

/// How much of the Enhanced pipeline to run for one flow — the rung of the
/// load-shedding *graceful-degradation ladder* the ingest daemon climbs
/// under overload. Levels are ordered by decreasing cost (and decreasing
/// detection fidelity), so `Effort::Full < Effort::SkipNns <
/// Effort::BiOnly` compares by severity of degradation.
///
/// The effort only matters for [`Mode::Enhanced`] engines: a
/// [`Mode::Basic`] engine already runs the cheapest pipeline at every
/// level.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Effort {
    /// Full Enhanced InFilter: EIA check → Scan Analysis → NNS search.
    #[default]
    Full,
    /// Shed the NNS stage: EIA check → Scan Analysis only. Scan-pass
    /// suspects are cleared as [`Verdict::Forgiven`] but do **not** count
    /// toward dynamic EIA adoption — no stage vouched for their normality.
    SkipNns,
    /// Basic InFilter only: every EIA-suspect flow is flagged directly,
    /// exactly as [`Mode::Basic`] would.
    BiOnly,
}

impl Effort {
    /// Stable lowercase label for metrics and config files.
    pub fn as_label(&self) -> &'static str {
        match self {
            Effort::Full => "full",
            Effort::SkipNns => "skip_nns",
            Effort::BiOnly => "bi_only",
        }
    }

    /// The next-cheaper rung (saturating at [`Effort::BiOnly`]).
    pub fn degrade(self) -> Effort {
        match self {
            Effort::Full => Effort::SkipNns,
            Effort::SkipNns | Effort::BiOnly => Effort::BiOnly,
        }
    }

    /// The next-richer rung (saturating at [`Effort::Full`]).
    pub fn recover(self) -> Effort {
        match self {
            Effort::BiOnly => Effort::SkipNns,
            Effort::SkipNns | Effort::Full => Effort::Full,
        }
    }

    /// All rungs, cheapest-degradation first.
    pub const ALL: [Effort; 3] = [Effort::Full, Effort::SkipNns, Effort::BiOnly];
}

impl Verdict {
    /// Whether the flow was declared legal (EIA match).
    pub fn is_legal(&self) -> bool {
        matches!(self, Verdict::Legal)
    }

    /// Whether the flow was flagged as an attack.
    pub fn is_attack(&self) -> bool {
        matches!(self, Verdict::Attack(_))
    }

    /// Whether the flow was suspect but forgiven.
    pub fn is_forgiven(&self) -> bool {
        matches!(self, Verdict::Forgiven)
    }
}

/// Analyzer configuration.
///
/// Marked `#[non_exhaustive]`: construct it with
/// [`AnalyzerConfig::builder`] (which range-checks every knob) or start
/// from [`AnalyzerConfig::default`] and mutate fields — future fields then
/// arrive without breaking downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct AnalyzerConfig {
    /// BI or EI.
    pub mode: Mode,
    /// Scan Analysis parameters.
    pub scan: ScanConfig,
    /// NNS structure parameters (`d` is overridden per subcluster).
    pub nns: NnsParams,
    /// Bits per flow characteristic (`d = 5 ×` this; paper: 144).
    pub bits_per_feature: usize,
    /// Per-subcluster threshold policy.
    pub thresholds: ThresholdPolicy,
    /// Sightings before a cleared suspect source is adopted (§5.2(a)).
    pub adoption_threshold: u32,
    /// Prefix length adopted sources are generalised to (32 = host).
    pub adoption_prefix_len: u8,
    /// RNG seed for NNS structure construction.
    pub seed: u64,
    /// Record per-flow latency on every N-th flow (`1` = every flow, the
    /// historical behaviour; `0` disables latency recording entirely).
    /// Taking two `Instant::now()` readings per flow is measurable on the
    /// sub-microsecond fast path, so throughput-sensitive deployments
    /// sample.
    pub latency_sample_every: u64,
    /// Observability knobs: stage histograms, flight-recorder capacity,
    /// fast-path sampling (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
}

impl Default for AnalyzerConfig {
    /// Paper-shaped defaults: EI mode, 200-flow scan buffer, `d = 720`
    /// (5 × 144), `M1 = 1`, `M2 = 12`, `M3 = 3`.
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            mode: Mode::Enhanced,
            scan: ScanConfig::default(),
            nns: NnsParams::default(),
            bits_per_feature: 144,
            thresholds: ThresholdPolicy::default(),
            adoption_threshold: 5,
            adoption_prefix_len: 32,
            seed: 0x1f11,
            latency_sample_every: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl AnalyzerConfig {
    /// Starts a validating builder from the paper-shaped defaults.
    pub fn builder() -> AnalyzerConfigBuilder {
        AnalyzerConfigBuilder::default()
    }
}

/// A configuration knob rejected by [`AnalyzerConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    why: String,
}

impl ConfigError {
    fn new(field: &'static str, why: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            why: why.into(),
        }
    }

    /// The rejected field's name, as written at the builder.
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.why)
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`AnalyzerConfig`].
///
/// Every setter is infallible; [`AnalyzerConfigBuilder::build`] performs
/// the cross-field range checks and reports the first violation.
///
/// ```
/// use infilter_core::{AnalyzerConfig, Mode};
///
/// let cfg = AnalyzerConfig::builder()
///     .mode(Mode::Basic)
///     .adoption_threshold(3)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.mode, Mode::Basic);
///
/// assert!(AnalyzerConfig::builder().bits_per_feature(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalyzerConfigBuilder {
    cfg: AnalyzerConfig,
}

impl AnalyzerConfigBuilder {
    /// BI or EI.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Scan Analysis parameters.
    pub fn scan(mut self, scan: ScanConfig) -> Self {
        self.cfg.scan = scan;
        self
    }

    /// NNS structure parameters.
    pub fn nns(mut self, nns: NnsParams) -> Self {
        self.cfg.nns = nns;
        self
    }

    /// Bits per flow characteristic (`d = 5 ×` this).
    pub fn bits_per_feature(mut self, bits: usize) -> Self {
        self.cfg.bits_per_feature = bits;
        self
    }

    /// Per-subcluster threshold policy.
    pub fn thresholds(mut self, thresholds: ThresholdPolicy) -> Self {
        self.cfg.thresholds = thresholds;
        self
    }

    /// Sightings before a cleared suspect source is adopted (0 disables
    /// adoption).
    pub fn adoption_threshold(mut self, sightings: u32) -> Self {
        self.cfg.adoption_threshold = sightings;
        self
    }

    /// Prefix length adopted sources are generalised to (32 = host).
    pub fn adoption_prefix_len(mut self, len: u8) -> Self {
        self.cfg.adoption_prefix_len = len;
        self
    }

    /// RNG seed for NNS structure construction.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Record per-flow latency on every N-th flow (0 disables).
    pub fn latency_sample_every(mut self, every: u64) -> Self {
        self.cfg.latency_sample_every = every;
        self
    }

    /// Observability knobs.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Range-checks every knob and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered; the checks cover the
    /// NNS shape (`M1`/`M2`/`M3`, bits per feature), the scan buffer and
    /// thresholds, and the adoption parameters.
    pub fn build(self) -> Result<AnalyzerConfig, ConfigError> {
        let c = &self.cfg;
        if c.bits_per_feature == 0 || c.bits_per_feature > 4096 {
            return Err(ConfigError::new(
                "bits_per_feature",
                format!("{} outside 1..=4096", c.bits_per_feature),
            ));
        }
        if c.nns.m1 == 0 || c.nns.m1 > 64 {
            return Err(ConfigError::new(
                "nns.m1",
                format!("{} outside 1..=64 tables per substructure", c.nns.m1),
            ));
        }
        if c.nns.m2 == 0 || c.nns.m2 > 24 {
            return Err(ConfigError::new(
                "nns.m2",
                format!("{} outside 1..=24 (table size is 2^m2)", c.nns.m2),
            ));
        }
        if c.nns.m3 == 0 || c.nns.m3 > c.nns.m2 {
            return Err(ConfigError::new(
                "nns.m3",
                format!("{} outside 1..=m2 ({})", c.nns.m3, c.nns.m2),
            ));
        }
        if c.nns.d != 0 && c.nns.d < c.nns.m2 {
            return Err(ConfigError::new(
                "nns.d",
                format!("{} test-vector bits cannot fill m2 = {}", c.nns.d, c.nns.m2),
            ));
        }
        if c.scan.buffer_size == 0 {
            return Err(ConfigError::new(
                "scan.buffer_size",
                "must hold at least one flow",
            ));
        }
        if c.scan.network_scan_threshold < 2 {
            return Err(ConfigError::new(
                "scan.network_scan_threshold",
                "a single destination is not a scan; need >= 2",
            ));
        }
        if c.scan.host_scan_threshold < 2 {
            return Err(ConfigError::new(
                "scan.host_scan_threshold",
                "a single port is not a scan; need >= 2",
            ));
        }
        if c.scan.max_packets_per_probe == 0 {
            return Err(ConfigError::new(
                "scan.max_packets_per_probe",
                "zero would exempt every flow from scan counting",
            ));
        }
        if c.adoption_prefix_len < 8 || c.adoption_prefix_len > 32 {
            return Err(ConfigError::new(
                "adoption_prefix_len",
                format!("{} outside 8..=32", c.adoption_prefix_len),
            ));
        }
        if c.telemetry.enabled && c.telemetry.recorder_capacity == 0 {
            return Err(ConfigError::new(
                "telemetry.recorder_capacity",
                "enabled telemetry needs at least one flight-recorder slot",
            ));
        }
        if c.telemetry.shape_sample_every != 0 && c.telemetry.shape_top_k == 0 {
            return Err(ConfigError::new(
                "telemetry.shape_top_k",
                "the attack-shape layer needs at least one top-K slot",
            ));
        }
        if c.telemetry.shape_sample_every != 0 && c.telemetry.shape_windows == 0 {
            return Err(ConfigError::new(
                "telemetry.shape_windows",
                "the attack-shape layer needs at least one window slot",
            ));
        }
        if c.telemetry.drift_threshold_milli > 1000 {
            return Err(ConfigError::new(
                "telemetry.drift_threshold_milli",
                format!("{} outside 0..=1000", c.telemetry.drift_threshold_milli),
            ));
        }
        Ok(self.cfg)
    }
}

/// Builds [`Analyzer`]s — the training phase of Figure 11.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    cfg: AnalyzerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: AnalyzerConfig) -> Trainer {
        Trainer { cfg }
    }

    /// Produces a Basic InFilter analyzer: EIA sets only, no normal
    /// cluster needed.
    pub fn train_basic(&self, eia: EiaRegistry) -> Analyzer {
        Analyzer::assemble(
            AnalyzerConfig {
                mode: Mode::Basic,
                ..self.cfg
            },
            eia,
            None,
        )
    }

    /// Produces an Enhanced InFilter analyzer: partitions the normal
    /// cluster, builds the per-subcluster NNS structures and thresholds
    /// (§5.1.3 b–d).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the normal cluster is empty or a
    /// subcluster cannot be built.
    pub fn train_enhanced(
        &self,
        eia: EiaRegistry,
        normal_cluster: &[FlowRecord],
    ) -> Result<Analyzer, TrainError> {
        let model = ClusterModel::train(
            normal_cluster,
            self.cfg.nns,
            self.cfg.thresholds,
            self.cfg.bits_per_feature,
            self.cfg.seed,
        )?;
        Ok(Analyzer::assemble(
            AnalyzerConfig {
                mode: Mode::Enhanced,
                ..self.cfg
            },
            eia,
            Some(model),
        ))
    }
}

/// The online InFilter engine: one `process` call per incoming flow.
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug)]
pub struct Analyzer {
    cfg: AnalyzerConfig,
    eia: EiaRegistry,
    /// Frozen view of `eia` the hot path classifies against (constant
    /// memory touches per lookup). Compiled at assembly and reload, patched
    /// per adoption — the same points at which the concurrent engine
    /// republishes its snapshot.
    eia_view: EiaSnapshot,
    scan: ScanAnalyzer,
    model: Option<ClusterModel>,
    metrics: AnalyzerMetrics,
    telemetry: PipelineTelemetry,
    alerts: Vec<IdmefAlert>,
    next_alert_id: u64,
    /// Reusable NNS query buffer: suspect-flow encode + search performs
    /// zero heap allocations after the first suspect.
    nns_scratch: BitVec,
    /// Batch-path scratch: per-flow EIA verdicts and a column buffer for
    /// record-slice batches. Reused so the steady-state batch path
    /// allocates nothing.
    batch_eia: Vec<EiaVerdict>,
    batch_scratch: FlowBatch,
    /// Memoised NNS outcomes (the model is immutable after training).
    nns_memo: NnsMemo,
}

impl Analyzer {
    fn assemble(
        cfg: AnalyzerConfig,
        mut eia: EiaRegistry,
        model: Option<ClusterModel>,
    ) -> Analyzer {
        // The registry's adoption policy follows the analyzer config.
        eia.set_adoption_threshold(cfg.adoption_threshold);
        eia.set_adoption_prefix_len(cfg.adoption_prefix_len);
        eia.shrink_to_fit();
        let eia_view = eia.snapshot();
        Analyzer {
            scan: ScanAnalyzer::new(cfg.scan),
            telemetry: PipelineTelemetry::new(cfg.telemetry, 1),
            cfg,
            eia,
            eia_view,
            model,
            metrics: AnalyzerMetrics::default(),
            alerts: Vec::new(),
            next_alert_id: 0,
            nns_scratch: BitVec::zeros(0),
            batch_eia: Vec::new(),
            batch_scratch: FlowBatch::new(),
            nns_memo: NnsMemo::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.cfg
    }

    /// Counters and latency accumulators.
    pub fn metrics(&self) -> &AnalyzerMetrics {
        &self.metrics
    }

    /// Histograms, counter families, and the flight recorder.
    pub fn telemetry(&self) -> &PipelineTelemetry {
        &self.telemetry
    }

    /// The most recent `n` flight-recorder decisions, newest first.
    pub fn explain_last(&self, n: usize) -> Vec<FlowDecision> {
        self.telemetry.explain_last(n)
    }

    /// Renders the full metric set as one Prometheus text-format (0.0.4)
    /// exposition page.
    pub fn prometheus_text(&self) -> String {
        crate::observe::render_exposition(
            &self.metrics,
            &self.telemetry,
            &[(self.scan.buffered(), self.scan.counter_entries())],
            (self.eia_view.prefix_count(), self.eia_view.approx_bytes()),
        )
    }

    /// Alerts emitted so far (IDMEF consumers drain this).
    pub fn alerts(&self) -> &[IdmefAlert] {
        &self.alerts
    }

    /// Removes and returns all pending alerts.
    pub fn drain_alerts(&mut self) -> Vec<IdmefAlert> {
        std::mem::take(&mut self.alerts)
    }

    /// Read access to the EIA registry (the write side).
    pub fn eia(&self) -> &EiaRegistry {
        &self.eia
    }

    /// The frozen EIA view the hot path classifies against. Brought up to
    /// date on every registry mutation (patched per adoption, recompiled on
    /// reload), so it always agrees with [`Analyzer::eia`].
    pub fn eia_view(&self) -> &EiaSnapshot {
        &self.eia_view
    }

    /// Drains buffered adoption events off the registry; see
    /// [`crate::Engine::adoption_events`].
    pub fn adoption_events(&mut self, sink: &mut Vec<crate::AdoptionEvent>) {
        self.eia.drain_events(sink);
    }

    /// Replaces the EIA registry wholesale — the config hot-reload path.
    /// The new registry takes over this analyzer's adoption policy;
    /// dynamic adoptions accumulated in the old registry are discarded
    /// (the reloaded config is the source of truth). Returns the number
    /// of preloaded prefixes now in force.
    pub fn reload_eia(&mut self, mut eia: EiaRegistry) -> usize {
        eia.set_adoption_threshold(self.cfg.adoption_threshold);
        eia.set_adoption_prefix_len(self.cfg.adoption_prefix_len);
        eia.shrink_to_fit();
        self.eia = eia;
        self.eia_view = self.eia.snapshot();
        self.telemetry.note_snapshot_publish();
        let prefixes = self.eia.prefix_count();
        self.telemetry.journal_event(JournalEvent::EiaReload {
            prefixes: prefixes.min(u32::MAX as usize) as u32,
        });
        prefixes
    }

    /// Processes one flow observed at `ingress`, returning the verdict and
    /// recording metrics, (sampled) latency and alerts (Figure 12).
    pub fn process(&mut self, ingress: PeerId, flow: &FlowRecord) -> Verdict {
        self.process_with_effort(ingress, flow, Effort::Full)
    }

    /// [`Analyzer::process`] at an explicit degradation rung: at
    /// [`Effort::SkipNns`] scan-pass suspects are cleared without the NNS
    /// search (and without counting toward adoption); at
    /// [`Effort::BiOnly`] every suspect is flagged directly, as Basic
    /// InFilter would.
    pub fn process_with_effort(
        &mut self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        let n = self.metrics.flows;
        self.metrics.flows += 1;
        self.process_counted(n, ingress, flow, effort)
    }

    /// The per-flow pipeline after the flow counter: `n` is this flow's
    /// global sequence number (what latency sampling and the flight
    /// recorder gate on). The batch path bulk-advances the counter and
    /// calls this only for flows that fall off its precomputed fast path.
    fn process_counted(
        &mut self,
        n: u64,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        let sample = self.cfg.latency_sample_every;
        let started = if sample != 0 && n.is_multiple_of(sample) {
            Some(Instant::now())
        } else {
            None
        };

        // Stage 1: EIA set analysis against the frozen view (≤ 3 memory
        // touches; patched on every adoption, so never stale).
        let eia_verdict = self.eia_view.classify(ingress, flow.src_addr);
        match eia_verdict {
            EiaVerdict::Match => {
                self.metrics.eia_match += 1;
                let mut elapsed_ns = 0;
                if let Some(started) = started {
                    let elapsed = started.elapsed();
                    elapsed_ns = saturating_nanos(elapsed);
                    self.metrics.fast_path.record(elapsed);
                    self.telemetry.observe_fast_latency(elapsed_ns);
                }
                if self.telemetry.fast_sample_due(n) {
                    self.telemetry
                        .record_fast_path(0, ingress, flow, elapsed_ns);
                }
                Verdict::Legal
            }
            EiaVerdict::Mismatch { expected } => self.suspect_path(
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
    /// flow. `started` carries the latency-sampling decision (and start
    /// time) made by the caller.
    fn suspect_path(
        &mut self,
        started: Option<Instant>,
        ingress: PeerId,
        flow: &FlowRecord,
        expected: Option<PeerId>,
        effort: Effort,
        record: SuspectRecord,
    ) -> Verdict {
        self.metrics.eia_suspect += 1;
        let observe = record.observed();
        // In the per-flow path suspects are rare and slow, so when
        // telemetry is on they are all timed, not just the latency-sampled
        // ones (the histogram needs the tail; `metrics.suspect_path` keeps
        // its sampled semantics). The batch path instead samples suspect
        // telemetry and passes `SuspectRecord::Light` for the rest.
        let suspect_started =
            started.or_else(|| (observe && self.telemetry.enabled()).then(Instant::now));

        let (verdict, observed) = match (self.cfg.mode, effort) {
            (Mode::Basic, _) | (Mode::Enhanced, Effort::BiOnly) => {
                // BI (or the deepest degradation rung) flags every suspect
                // directly.
                self.metrics.eia_attacks += 1;
                (
                    Verdict::Attack(AttackStage::EiaMismatch { expected }),
                    SuspectObservation::default(),
                )
            }
            (Mode::Enhanced, effort) => self.enhanced_analysis(ingress, flow, effort, observe),
        };
        if let Verdict::Attack(stage) = verdict {
            let alert = IdmefAlert::new(self.next_alert_id, flow, ingress, stage);
            self.telemetry.journal_event(JournalEvent::Alert {
                peer: ingress,
                message_id: self.next_alert_id,
            });
            self.next_alert_id += 1;
            self.alerts.push(alert);
        }
        let elapsed = suspect_started.map(|s| s.elapsed());
        if started.is_some() {
            self.metrics
                .suspect_path
                .record(elapsed.expect("timed when sampled"));
        }
        match record {
            SuspectRecord::Full => self.telemetry.record_suspect(
                0,
                ingress,
                expected,
                flow,
                &observed,
                verdict,
                elapsed.map_or(0, saturating_nanos),
            ),
            SuspectRecord::Light(peer) => {
                self.telemetry
                    .record_suspect_light(0, ingress, flow.src_addr, peer, verdict)
            }
        }
        verdict
    }

    /// Batch-first hot path: classifies a struct-of-arrays batch from one
    /// ingress, appending one verdict per flow to `out` (same order).
    ///
    /// Phase A classifies the source column against the frozen EIA view —
    /// no sort permutation needed, since a [`FrozenLpm`](infilter_net::FrozenLpm)
    /// lookup costs the same constant number of memory touches for any
    /// input order. Phase B applies bookkeeping in original flow order;
    /// EIA matches take a columnar fast path that never materialises the
    /// record unless telemetry samples it, and suspects run the identical
    /// `suspect_path` the per-flow API uses, so verdicts agree by
    /// construction.
    ///
    /// If a suspect's sighting adopts a prefix mid-batch, the remaining
    /// flows fall back to live per-flow classification — a later flow from
    /// the adopted range must turn `Legal` exactly as it would have under
    /// `process_with_effort`.
    pub fn process_flow_batch_into(
        &mut self,
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
        let n0 = self.metrics.flows;
        self.metrics.flows += len as u64;
        let sample = self.cfg.latency_sample_every;

        // Phase A: grouped EIA classification over the source column,
        // against the frozen view.
        let src = batch.src_addr_bits();
        // Amortise the phase-A walk into the sampled fast-path latency:
        // time the whole pass only when some flow in this window samples.
        let sampling = sample != 0 && n0.next_multiple_of(sample) < n0 + len as u64;
        let a_started = sampling.then(Instant::now);
        trace::start("eia");
        self.eia_view
            .classify_batch_into(ingress, src, &mut self.batch_eia);
        trace::end();
        let per_flow = a_started.map(|s| s.elapsed() / len as u32);

        // Phase B: bookkeeping and suspect analysis in original order.
        let adopted0 = self.eia.adopted_count();
        let mut stale = false;
        trace::start("verdict");
        // All suspects in this batch share one ingress: hoist their peer
        // counter cell out of the loop, lazily so suspect-free batches
        // never materialise it.
        let mut peer: Option<std::sync::Arc<crate::observe::PeerCounters>> = None;
        for i in 0..len {
            let n = n0 + i as u64;
            if stale {
                // An adoption invalidated the precomputed verdicts for the
                // rest of the batch: classify live, per flow.
                out.push(self.process_counted(n, ingress, &batch.record(i), effort));
                continue;
            }
            match self.batch_eia[i] {
                EiaVerdict::Match => {
                    self.metrics.eia_match += 1;
                    let mut elapsed_ns = 0;
                    if sample != 0 && n.is_multiple_of(sample) {
                        if let Some(share) = per_flow {
                            elapsed_ns = saturating_nanos(share);
                            self.metrics.fast_path.record(share);
                            self.telemetry.observe_fast_latency(elapsed_ns);
                        }
                    }
                    if self.telemetry.fast_sample_due(n) {
                        self.telemetry
                            .record_fast_path(0, ingress, &batch.record(i), elapsed_ns);
                    }
                    out.push(Verdict::Legal);
                }
                EiaVerdict::Mismatch { expected } => {
                    let flow = batch.record(i);
                    let started = if sample != 0 && n.is_multiple_of(sample) {
                        Some(Instant::now())
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
                    out.push(self.suspect_path(started, ingress, &flow, expected, effort, record));
                    if self.eia.adopted_count() != adopted0 {
                        stale = true;
                    }
                }
            }
        }
        trace::end();
    }

    /// [`Analyzer::process_flow_batch_into`] over a record slice, reusing
    /// an internal column buffer for the transposition.
    pub fn process_batch_into(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        batch.extend_from_records(flows);
        self.process_flow_batch_into(ingress, &batch, effort, out);
        self.batch_scratch = batch;
    }

    fn enhanced_analysis(
        &mut self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
        observe: bool,
    ) -> (Verdict, SuspectObservation) {
        // Stage 2: Scan Analysis. When nothing will record the observation
        // (`observe` is false), skip the distinct-counter reads — the push
        // itself still updates the scan state, so verdicts are unaffected.
        trace::start("scan");
        let (scan_hit, mut observed) = if observe {
            scan_stage(&mut self.scan, flow)
        } else {
            (
                scan_verdict_stage(self.scan.push(flow)),
                SuspectObservation::default(),
            )
        };
        trace::end();
        if let Some(stage) = scan_hit {
            self.metrics.scan_attacks += 1;
            return (Verdict::Attack(stage), observed);
        }
        if effort == Effort::SkipNns {
            // Degraded: the NNS stage is shed, so the scan-pass suspect is
            // cleared — but never recorded as a sighting, because nothing
            // vouched for its normality (adoption must not erode the EIA
            // sets under overload).
            self.metrics.forgiven += 1;
            return (Verdict::Forgiven, observed);
        }

        // Stage 3: NNS analysis against the relevant subcluster.
        let timed = observe && self.telemetry.enabled();
        let (outcome, nns) = nns_stage(
            self.model.as_ref(),
            flow,
            &mut self.nns_scratch,
            timed,
            &mut self.nns_memo,
        );
        observed.nns = Some(nns);
        let verdict = match outcome {
            SuspectOutcome::Cleared => {
                // Within normal behaviour: not an attack; count toward
                // dynamic EIA adoption (§5.2(a)).
                self.metrics.forgiven += 1;
                if let Some(adopted) = self.eia.sight(ingress, flow.src_addr) {
                    // The registry mutated: patch the frozen view so the
                    // very next flow classifies against the adoption,
                    // exactly as the live trie would.
                    self.eia_view.adopt(adopted, ingress);
                    self.telemetry.note_snapshot_publish();
                    self.metrics.adoptions += 1;
                    self.telemetry.record_adoption(ingress);
                }
                Verdict::Forgiven
            }
            SuspectOutcome::Attack(stage) => {
                self.metrics.nns_attacks += 1;
                Verdict::Attack(stage)
            }
        };
        (verdict, observed)
    }

    /// Decomposes into the parts the concurrent analyzer is built from.
    /// Pending alerts are forfeited; the alert id sequence carries over.
    pub(crate) fn into_parts(self) -> (AnalyzerConfig, EiaRegistry, Option<ClusterModel>, u64) {
        (self.cfg, self.eia, self.model, self.next_alert_id)
    }
}

/// What the post-scan suspect analysis concluded. `Cleared` means the flow
/// looked like normal behaviour and counts toward EIA adoption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SuspectOutcome {
    /// Flag the flow at the given stage.
    Attack(AttackStage),
    /// Within normal behaviour (Figure 12's "forgiven" arc).
    Cleared,
}

/// Converts a [`Duration`](std::time::Duration) to nanoseconds, clamped.
pub(crate) fn saturating_nanos(elapsed: std::time::Duration) -> u64 {
    elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Stage 2 (Scan Analysis) as a pure function of detector state + flow, so
/// the single-threaded [`Analyzer`] and the sharded
/// [`crate::ConcurrentAnalyzer`] flag identically by construction. Also
/// reports the suspect's scan counters *at decision time* (two map lookups)
/// for the flight recorder and scan-counter histograms.
/// Memoised NNS outcomes keyed by `(service class, encoding fingerprint)`.
///
/// The KOR search is a pure function of the encoded query (the permutation
/// tables are immutable after training) and the fingerprint is
/// collision-free, so a hit returns exactly what a live search would —
/// suspects repeating a quantised feature profile skip encode and probe
/// entirely. Bounded: the map resets once it reaches [`NnsMemo::CAP`]
/// entries, so adversarial feature churn degrades to live searches, never
/// to unbounded memory.
#[derive(Debug, Default)]
pub(crate) struct NnsMemo {
    map: infilter_net::FxHashMap<(AppClass, u64), NnsMemoEntry>,
}

/// What a memo hit replays: the search result and its work accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NnsMemoEntry {
    pub(crate) distance: Option<u32>,
    pub(crate) tables_probed: u32,
}

impl NnsMemo {
    const CAP: usize = 1 << 16;

    pub(crate) fn get(&self, class: AppClass, fingerprint: u64) -> Option<NnsMemoEntry> {
        self.map.get(&(class, fingerprint)).copied()
    }

    pub(crate) fn insert(
        &mut self,
        class: AppClass,
        fingerprint: u64,
        distance: Option<u32>,
        tables_probed: u32,
    ) {
        if self.map.len() >= Self::CAP {
            self.map.clear();
        }
        self.map.insert(
            (class, fingerprint),
            NnsMemoEntry {
                distance,
                tables_probed,
            },
        );
    }
}

/// How the suspect path should account a resolved suspect.
pub(crate) enum SuspectRecord<'a> {
    /// Full telemetry: scan-counter observation, histograms, and a
    /// flight-recorder entry — the per-flow path, and sampled batch
    /// suspects.
    Full,
    /// Exact counters only, against a peer cell the batch path hoisted
    /// out of its loop. Unsampled batch suspects take this arm, keeping
    /// the suspect hot path free of histogram and recorder writes.
    Light(&'a crate::observe::PeerCounters),
}

impl SuspectRecord<'_> {
    /// Whether this suspect's observation (scan counters, NNS timing)
    /// will actually be recorded — when not, the stages skip gathering it.
    pub(crate) fn observed(&self) -> bool {
        matches!(self, SuspectRecord::Full)
    }
}

/// Maps a scan verdict onto the attack stage it flags, if any.
pub(crate) fn scan_verdict_stage(verdict: ScanVerdict) -> Option<AttackStage> {
    match verdict {
        ScanVerdict::NetworkScan {
            dst_port,
            distinct_hosts,
        } => Some(AttackStage::NetworkScan {
            dst_port,
            distinct_hosts,
        }),
        ScanVerdict::HostScan {
            dst_addr,
            distinct_ports,
        } => Some(AttackStage::HostScan {
            dst_addr,
            distinct_ports,
        }),
        ScanVerdict::Pass => None,
    }
}

pub(crate) fn scan_stage(
    scan: &mut ScanAnalyzer,
    flow: &FlowRecord,
) -> (Option<AttackStage>, SuspectObservation) {
    let stage = scan_verdict_stage(scan.push(flow));
    let observed = SuspectObservation {
        scan_distinct_hosts: scan.distinct_hosts_for_port(flow.input_if, flow.dst_port) as u32,
        scan_distinct_ports: scan.distinct_ports_for_host(flow.input_if, flow.dst_addr) as u32,
        nns: None,
    };
    (stage, observed)
}

/// Stage 3 (NNS assessment): read-only against the trained model, hence
/// safe to run outside any shard lock. `scratch` is the caller's reusable
/// query buffer — after its first use the whole stage is allocation-free.
/// When `timed`, the search is wrapped in two `Instant` reads for the NNS
/// latency histogram; work counters are accounted either way.
pub(crate) fn nns_stage(
    model: Option<&ClusterModel>,
    flow: &FlowRecord,
    scratch: &mut BitVec,
    timed: bool,
    memo: &mut NnsMemo,
) -> (SuspectOutcome, NnsObservation) {
    trace::start("nns");
    let class = AppClass::classify(flow.protocol, flow.dst_port);
    let mut observed = NnsObservation {
        distance: u32::MAX,
        ..NnsObservation::default()
    };
    let assessment = model.and_then(|m| m.subcluster(class)).map(|sub| {
        let stats = flow.stats();
        let fingerprint = sub.fingerprint(&stats);
        if let Some(hit) = fingerprint.and_then(|fp| memo.get(class, fp)) {
            observed.tables_probed = hit.tables_probed;
            observed.threshold = sub.threshold();
            if let Some(distance) = hit.distance {
                observed.distance = distance;
            }
            return (sub.threshold(), hit.distance);
        }
        let mut search_stats = infilter_nns::SearchStats::default();
        let started = timed.then(Instant::now);
        let distance = sub.nn_distance_observed(&stats, scratch, &mut search_stats);
        if let Some(started) = started {
            observed.search_ns = saturating_nanos(started.elapsed());
        }
        observed.tables_probed = search_stats.tables_probed;
        observed.threshold = sub.threshold();
        if let Some(distance) = distance {
            observed.distance = distance;
        }
        if let Some(fp) = fingerprint {
            memo.insert(class, fp, distance, search_stats.tables_probed);
        }
        (sub.threshold(), distance)
    });
    let outcome = match assessment {
        Some((threshold, Some(distance))) if distance <= threshold => SuspectOutcome::Cleared,
        Some((threshold, distance)) => SuspectOutcome::Attack(AttackStage::NnsAnomaly {
            distance: distance.unwrap_or(u32::MAX),
            threshold,
            class,
        }),
        // No subcluster for this service: nothing normal ever looked like
        // this flow.
        None => SuspectOutcome::Attack(AttackStage::NnsAnomaly {
            distance: u32::MAX,
            threshold: 0,
            class,
        }),
    };
    trace::end();
    (outcome, observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_net::Prefix;

    fn eia() -> EiaRegistry {
        let mut r = EiaRegistry::new(3);
        r.preload(PeerId(1), "3.0.0.0/11".parse::<Prefix>().unwrap());
        r.preload(PeerId(2), "3.32.0.0/11".parse::<Prefix>().unwrap());
        r
    }

    fn http_flow(src: &str, i: u32) -> FlowRecord {
        FlowRecord {
            src_addr: src.parse().unwrap(),
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

    fn small_cfg(mode: Mode) -> AnalyzerConfig {
        AnalyzerConfig {
            mode,
            nns: NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            },
            bits_per_feature: 12,
            adoption_threshold: 3,
            ..AnalyzerConfig::default()
        }
    }

    fn trained_ei() -> Analyzer {
        let normal: Vec<FlowRecord> = (0..80).map(|i| http_flow("3.0.0.1", i)).collect();
        Trainer::new(small_cfg(Mode::Enhanced))
            .train_enhanced(eia(), &normal)
            .unwrap()
    }

    #[test]
    fn bi_flags_every_suspect() {
        let mut a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
        assert_eq!(
            a.process(PeerId(1), &http_flow("3.0.0.9", 0)),
            Verdict::Legal
        );
        let v = a.process(PeerId(1), &http_flow("3.33.0.9", 0));
        assert_eq!(
            v,
            Verdict::Attack(AttackStage::EiaMismatch {
                expected: Some(PeerId(2))
            })
        );
        assert_eq!(a.metrics().eia_attacks, 1);
        assert_eq!(a.alerts().len(), 1);
    }

    #[test]
    fn ei_forgives_normal_looking_route_change() {
        let mut a = trained_ei();
        // A perfectly normal http flow arriving at the wrong peer (route
        // change): EI should forgive what BI would flag.
        let v = a.process(PeerId(1), &http_flow("3.33.0.9", 5));
        assert_eq!(v, Verdict::Forgiven);
        assert_eq!(a.metrics().forgiven, 1);
        assert!(a.alerts().is_empty());
    }

    #[test]
    fn ei_flags_anomalous_suspect() {
        let mut a = trained_ei();
        // Spoofed flood: wrong ingress AND wildly abnormal stats.
        let flood = FlowRecord {
            packets: 200_000,
            octets: 120_000_000,
            first_ms: 0,
            last_ms: 1000,
            ..http_flow("3.33.0.9", 0)
        };
        match a.process(PeerId(1), &flood) {
            Verdict::Attack(AttackStage::NnsAnomaly {
                distance,
                threshold,
                class,
            }) => {
                assert!(distance > threshold);
                assert_eq!(class, AppClass::Http);
            }
            other => panic!("expected NNS anomaly, got {other:?}"),
        }
        assert_eq!(a.metrics().nns_attacks, 1);
        assert_eq!(a.alerts().len(), 1);
        assert!(a.alerts()[0].to_xml().contains("3.33.0.9"));
    }

    #[test]
    fn ei_catches_network_scan_before_nns() {
        let mut a = trained_ei();
        let mut scan_flagged = 0;
        for i in 0..30u32 {
            let f = FlowRecord {
                src_addr: "3.40.0.9".parse().unwrap(), // spoofed (peer 2 space)
                dst_addr: std::net::Ipv4Addr::from(0x60010000 + i),
                dst_port: 1434,
                protocol: 17,
                packets: 1,
                octets: 404,
                ..FlowRecord::default()
            };
            if matches!(
                a.process(PeerId(1), &f),
                Verdict::Attack(AttackStage::NetworkScan { .. })
            ) {
                scan_flagged += 1;
            }
        }
        assert!(scan_flagged > 0, "network scan never flagged");
        assert_eq!(a.metrics().scan_attacks, scan_flagged);
    }

    #[test]
    fn untrained_service_is_anomalous() {
        let mut a = trained_ei();
        let ftp = FlowRecord {
            dst_port: 21,
            protocol: 6,
            ..http_flow("3.33.0.9", 0)
        };
        match a.process(PeerId(1), &ftp) {
            Verdict::Attack(AttackStage::NnsAnomaly { class, .. }) => {
                assert_eq!(class, AppClass::Ftp);
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
    }

    #[test]
    fn forgiven_sources_get_adopted() {
        let mut a = trained_ei();
        for i in 0..3 {
            let v = a.process(PeerId(1), &http_flow("3.33.0.77", i));
            assert_eq!(v, Verdict::Forgiven);
        }
        assert_eq!(a.metrics().adoptions, 1);
        // Now the source is expected at peer 1: fast path.
        assert_eq!(
            a.process(PeerId(1), &http_flow("3.33.0.77", 9)),
            Verdict::Legal
        );
    }

    #[test]
    fn metrics_paths_add_up() {
        let mut a = trained_ei();
        for i in 0..10 {
            a.process(PeerId(1), &http_flow("3.0.0.5", i)); // legal
        }
        for i in 0..4 {
            a.process(PeerId(1), &http_flow("3.40.0.5", i)); // suspect
        }
        let m = a.metrics();
        assert_eq!(m.flows, 14);
        // Three suspects are forgiven, then the source is adopted
        // (threshold 3), so the fourth takes the fast path.
        assert_eq!(m.eia_match, 11);
        assert_eq!(m.eia_suspect, 3);
        assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);
        assert_eq!(m.fast_path.count, 11);
        assert_eq!(m.suspect_path.count, 3);
    }

    #[test]
    fn degraded_efforts_shed_stages() {
        let mut a = trained_ei();
        // SkipNns clears scan-pass suspects without consulting NNS and
        // without counting toward adoption (threshold here is 3).
        for i in 0..5 {
            assert_eq!(
                a.process_with_effort(PeerId(1), &http_flow("3.33.0.88", i), Effort::SkipNns),
                Verdict::Forgiven
            );
        }
        assert_eq!(a.metrics().adoptions, 0, "shed suspects must not adopt");
        assert_eq!(a.metrics().forgiven, 5);
        // BiOnly flags the same suspect directly, like Mode::Basic.
        let v = a.process_with_effort(PeerId(1), &http_flow("3.33.0.88", 9), Effort::BiOnly);
        assert_eq!(
            v,
            Verdict::Attack(AttackStage::EiaMismatch {
                expected: Some(PeerId(2))
            })
        );
        assert_eq!(a.metrics().eia_attacks, 1);
        // The counter identity the telemetry layer asserts still holds.
        let m = a.metrics();
        assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);
    }

    #[test]
    fn effort_ladder_orders_and_steps() {
        assert!(Effort::Full < Effort::SkipNns);
        assert!(Effort::SkipNns < Effort::BiOnly);
        assert_eq!(Effort::Full.degrade(), Effort::SkipNns);
        assert_eq!(Effort::SkipNns.degrade(), Effort::BiOnly);
        assert_eq!(Effort::BiOnly.degrade(), Effort::BiOnly);
        assert_eq!(Effort::BiOnly.recover(), Effort::SkipNns);
        assert_eq!(Effort::Full.recover(), Effort::Full);
        assert_eq!(
            Effort::ALL.map(|e| e.as_label()),
            ["full", "skip_nns", "bi_only"]
        );
    }

    #[test]
    fn reload_eia_swaps_the_registry() {
        let mut a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
        // 9.0.0.9 is nobody's source today: attack.
        assert!(a.process(PeerId(1), &http_flow("9.0.0.9", 0)).is_attack());
        let mut fresh = EiaRegistry::new(3);
        fresh.preload(PeerId(1), "9.0.0.0/11".parse::<Prefix>().unwrap());
        assert_eq!(a.reload_eia(fresh), 1);
        assert!(a.process(PeerId(1), &http_flow("9.0.0.9", 0)).is_legal());
        // The old registry's prefixes are gone.
        assert!(a.process(PeerId(1), &http_flow("3.0.0.9", 0)).is_attack());
    }

    #[test]
    fn drain_alerts_empties_queue() {
        let mut a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
        a.process(PeerId(1), &http_flow("3.40.0.5", 0));
        assert_eq!(a.drain_alerts().len(), 1);
        assert!(a.alerts().is_empty());
    }

    #[test]
    fn empty_training_cluster_is_an_error() {
        let err = Trainer::new(small_cfg(Mode::Enhanced))
            .train_enhanced(eia(), &[])
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }
}
