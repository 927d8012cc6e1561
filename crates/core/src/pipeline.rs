use std::net::Ipv4Addr;
use std::time::Instant;

use infilter_netflow::FlowRecord;
use infilter_nns::{BitVec, NnsParams};
use infilter_telemetry::trace;
use infilter_traffic::AppClass;
use serde::{Deserialize, Serialize};

pub use crate::eia::PeerId;
use crate::observe::{NnsObservation, SuspectObservation, TelemetryConfig};
use crate::{
    ClusterModel, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, ScanAnalyzer, ScanConfig,
    ScanVerdict, ThresholdPolicy, TrainError,
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

/// The online InFilter engine as the training phase hands it over, owned
/// by one caller: a [`ConcurrentAnalyzer`] with a single shard — the
/// paper's scan semantics exactly, one Scan Analysis buffer seeing every
/// suspect — that samples latency on every flow. It dereferences to that
/// engine, so `process`, `metrics`, `drain_alerts`, `explain_last` and the
/// rest are the engine's own; [`ConcurrentAnalyzer::new`] re-shards it for
/// several collector threads.
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug)]
pub struct Analyzer(pub(crate) ConcurrentAnalyzer);

impl Analyzer {
    fn assemble(cfg: AnalyzerConfig, eia: EiaRegistry, model: Option<ClusterModel>) -> Analyzer {
        Analyzer(ConcurrentAnalyzer::assemble(
            cfg,
            eia,
            model,
            ConcurrentConfig {
                shards: 1,
                latency_sample_every: 1,
            },
        ))
    }
}

impl std::ops::Deref for Analyzer {
    type Target = ConcurrentAnalyzer;

    fn deref(&self) -> &ConcurrentAnalyzer {
        &self.0
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

/// Stage 2 (Scan Analysis) as a pure function of detector state + flow.
/// Also reports the suspect's scan counters *at decision time* (two map
/// lookups) for the flight recorder and scan-counter histograms.
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
        let a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
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
        assert_eq!(a.drain_alerts().len(), 1);
    }

    #[test]
    fn ei_forgives_normal_looking_route_change() {
        let a = trained_ei();
        // A perfectly normal http flow arriving at the wrong peer (route
        // change): EI should forgive what BI would flag.
        let v = a.process(PeerId(1), &http_flow("3.33.0.9", 5));
        assert_eq!(v, Verdict::Forgiven);
        assert_eq!(a.metrics().forgiven, 1);
        assert!(a.drain_alerts().is_empty());
    }

    #[test]
    fn ei_flags_anomalous_suspect() {
        let a = trained_ei();
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
        let alerts = a.drain_alerts();
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].to_xml().contains("3.33.0.9"));
    }

    #[test]
    fn ei_catches_network_scan_before_nns() {
        let a = trained_ei();
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
        let a = trained_ei();
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
        let a = trained_ei();
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
        let a = trained_ei();
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
        let a = trained_ei();
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
        let a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
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
        let a = Trainer::new(small_cfg(Mode::Basic)).train_basic(eia());
        a.process(PeerId(1), &http_flow("3.40.0.5", 0));
        assert_eq!(a.drain_alerts().len(), 1);
        assert!(a.drain_alerts().is_empty());
    }

    #[test]
    fn empty_training_cluster_is_an_error() {
        let err = Trainer::new(small_cfg(Mode::Enhanced))
            .train_enhanced(eia(), &[])
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }
}
