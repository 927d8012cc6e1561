//! The Figure 13/14 testbed: ten Dagflow sources, one Enhanced InFilter
//! instance, controlled attack and route-change injection.

use std::collections::BTreeMap;

use infilter_core::{
    Analyzer, AnalyzerConfig, AnalyzerMetrics, Mode, PeerId, ScanConfig, ThresholdPolicy, Trainer,
};
use infilter_dagflow::{eia_table, rotated_allocations, AddressMapper, Dagflow, DagflowConfig};
use infilter_net::{Prefix, SubBlock};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;
use infilter_traffic::{AttackKind, FlowTemplate, NormalProfile, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where attack Dagflow instances inject traffic (§6.3.1 vs §6.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackPlacement {
    /// One set of attack instances, all entering via Peer AS1.
    SinglePeer,
    /// A replicated set of attack instances at every peer (stress test).
    AllPeers,
    /// Attack sets at the first `k` peers — the "sensitivity to location
    /// of attack sources" axis of §6.3.
    FirstK(usize),
}

/// Full testbed configuration. Defaults correspond to the §6.3.1 setup at
/// 2 % attack volume with no route changes, scaled to run in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Emulated peer ASes / border routers (paper: 10).
    pub n_peers: usize,
    /// Sub-blocks per peer's EIA set (paper: 100).
    pub blocks_per_peer: usize,
    /// The target ISP's address space destinations live in.
    pub target_prefix: Prefix,
    /// Normal flows generated per peer over the run.
    pub normal_flows_per_peer: usize,
    /// Wall-clock span of the emulated run, milliseconds.
    pub span_ms: u64,
    /// Attack volume as a percentage of per-peer normal flow volume.
    pub attack_volume_pct: f64,
    /// Single attack set at Peer AS1 or one per peer.
    pub placement: AttackPlacement,
    /// Route instability percentage (borrowed blocks per allocation;
    /// 0 disables route-change emulation).
    pub route_change_pct: usize,
    /// Number of rotated allocations the sources step through (paper: 4).
    pub n_allocations: usize,
    /// Fraction of normal traffic from sources outside every EIA set,
    /// modelling EIA incompleteness (new customers the training never
    /// saw). Calibrated so the EI false-positive floor lands near the
    /// paper's ≈1 %.
    pub unexpected_source_fraction: f64,
    /// Spoofed-source pool size per attack set: smaller pools mean heavier
    /// address reuse (real attack tools recycle forged sources), which is
    /// what erodes the EIA sets through dynamic adoption in the stress
    /// test.
    pub spoof_pool: u64,
    /// Flows used to build the Normal training cluster.
    pub training_flows: usize,
    /// BI or EI.
    pub mode: Mode,
    /// Scan Analysis parameters.
    pub scan: ScanConfig,
    /// NNS parameters (`d` derived per subcluster).
    pub nns: NnsParams,
    /// Bits per flow characteristic.
    pub bits_per_feature: usize,
    /// Subcluster threshold policy.
    pub thresholds: ThresholdPolicy,
    /// NetFlow packet-sampling divisor at the emulated BRs (1 = unsampled).
    pub sampling: u16,
    /// EIA dynamic-adoption threshold.
    pub adoption_threshold: u32,
    /// Granularity of dynamic adoption (prefix length).
    pub adoption_prefix_len: u8,
    /// Active `/24` subnets per `/11` block sources concentrate into.
    pub active_subnets: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> TestbedConfig {
        TestbedConfig {
            n_peers: 10,
            blocks_per_peer: 100,
            target_prefix: Prefix::new("96.1.0.0".parse().expect("static addr"), 16),
            normal_flows_per_peer: 3000,
            span_ms: 600_000,
            attack_volume_pct: 2.0,
            placement: AttackPlacement::SinglePeer,
            route_change_pct: 0,
            n_allocations: 4,
            unexpected_source_fraction: 0.018,
            spoof_pool: 600,
            training_flows: 2500,
            mode: Mode::Enhanced,
            scan: ScanConfig::default(),
            nns: NnsParams::default(),
            bits_per_feature: 144,
            thresholds: ThresholdPolicy {
                // Calibrated so the NNS stage clears ~30 % of suspect
                // normal traffic — the paper's EI cuts BI's false positives
                // by "almost 30%" (Figure 19).
                quantile: 0.30,
                slack: 1.0,
                min_threshold: 4,
            },
            sampling: 1,
            adoption_threshold: 3,
            adoption_prefix_len: 24,
            active_subnets: 1,
            seed: 0xbed,
        }
    }
}

impl TestbedConfig {
    /// A miniature configuration for debug-mode tests: small flows counts
    /// and cheap NNS parameters, same topology.
    pub fn small(seed: u64) -> TestbedConfig {
        TestbedConfig {
            normal_flows_per_peer: 250,
            training_flows: 300,
            nns: NnsParams {
                d: 0,
                m1: 1,
                m2: 8,
                m3: 2,
            },
            bits_per_feature: 16,
            seed,
            ..TestbedConfig::default()
        }
    }
}

/// Ground-truth label carried alongside every generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Label {
    /// Legitimate traffic.
    Normal,
    /// Part of the attack instance with the given id.
    Attack {
        /// Index of the attack instance the flow belongs to.
        instance: usize,
    },
}

/// One fully generated, labelled workload flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledFlow {
    /// Ingress peer the flow arrived through.
    pub peer: PeerId,
    /// The NetFlow record.
    pub record: FlowRecord,
    /// Ground truth.
    pub label: Label,
}

/// Per-attack-kind outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindOutcome {
    /// Instances launched.
    pub launched: usize,
    /// Instances with at least one flagged flow.
    pub detected: usize,
}

/// The measured outcome of one testbed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TestbedOutcome {
    /// Attack instances launched.
    pub attack_instances: usize,
    /// Attack instances detected (≥1 flow flagged).
    pub attacks_detected: usize,
    /// Normal flows processed.
    pub normal_flows: usize,
    /// Normal flows flagged as attacks.
    pub false_positives: usize,
    /// Mean latency from attack start to first flagged flow, ms.
    pub mean_detection_latency_ms: f64,
    /// Per-kind launch/detection counts.
    pub per_kind: BTreeMap<String, KindOutcome>,
    /// The analyzer's internal counters and stage latencies.
    pub metrics: AnalyzerMetrics,
}

impl TestbedOutcome {
    /// Fraction of launched attack instances detected.
    pub fn detection_rate(&self) -> f64 {
        if self.attack_instances == 0 {
            0.0
        } else {
            self.attacks_detected as f64 / self.attack_instances as f64
        }
    }

    /// Fraction of normal flows flagged.
    pub fn false_positive_rate(&self) -> f64 {
        if self.normal_flows == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.normal_flows as f64
        }
    }
}

/// The assembled testbed. [`Testbed::run`] generates the workload, trains
/// the analyzer and replays the run.
#[derive(Debug)]
pub struct Testbed {
    cfg: TestbedConfig,
}

impl Testbed {
    /// Creates a testbed from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the EIA plan exceeds the 1000-sub-block experiment space.
    pub fn new(cfg: TestbedConfig) -> Testbed {
        assert!(
            cfg.n_peers * cfg.blocks_per_peer <= infilter_net::blocks::EXPERIMENT_SUB_BLOCKS,
            "EIA plan exceeds the experiment address space"
        );
        Testbed { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Runs one experiment end to end. Deterministic in the seed.
    pub fn run(&self) -> TestbedOutcome {
        let analyzer = self.train();
        let workload = self.generate_workload();

        let mut per_kind: BTreeMap<String, KindOutcome> = BTreeMap::new();
        let mut instance_kind: Vec<AttackKind> = Vec::new();
        let mut instance_start: Vec<u32> = Vec::new();
        let mut instance_first_detection: Vec<Option<u32>> = Vec::new();
        for lf in &workload {
            if let Label::Attack { instance } = lf.label {
                while instance_kind.len() <= instance {
                    instance_kind.push(AttackKind::Puke); // placeholder, overwritten
                    instance_start.push(u32::MAX);
                    instance_first_detection.push(None);
                }
                instance_start[instance] = instance_start[instance].min(lf.record.first_ms);
            }
        }
        // Kinds are recorded during generation; regenerate the mapping here.
        let kinds = self.instance_kinds();
        for (i, k) in kinds.iter().enumerate() {
            if i < instance_kind.len() {
                instance_kind[i] = *k;
            }
        }

        let mut normal_flows = 0usize;
        let mut false_positives = 0usize;
        for lf in &workload {
            let verdict = analyzer.process(lf.peer, &lf.record);
            match lf.label {
                Label::Normal => {
                    normal_flows += 1;
                    if verdict.is_attack() {
                        false_positives += 1;
                    }
                }
                Label::Attack { instance } => {
                    if verdict.is_attack() && instance_first_detection[instance].is_none() {
                        instance_first_detection[instance] = Some(lf.record.last_ms);
                    }
                }
            }
        }

        let attack_instances = instance_kind.len();
        let mut attacks_detected = 0usize;
        let mut latency_sum = 0.0;
        let mut latency_n = 0usize;
        for i in 0..attack_instances {
            let entry = per_kind
                .entry(instance_kind[i].name().to_owned())
                .or_default();
            entry.launched += 1;
            if let Some(t) = instance_first_detection[i] {
                attacks_detected += 1;
                entry.detected += 1;
                latency_sum += t.saturating_sub(instance_start[i]) as f64;
                latency_n += 1;
            }
        }

        TestbedOutcome {
            attack_instances,
            attacks_detected,
            normal_flows,
            false_positives,
            mean_detection_latency_ms: if latency_n == 0 {
                0.0
            } else {
                latency_sum / latency_n as f64
            },
            per_kind,
            metrics: analyzer.metrics(),
        }
    }

    /// Builds and trains the analyzer (EIA preload per Table 3; Normal
    /// cluster from a dedicated training Dagflow, §6.3).
    pub fn train(&self) -> Analyzer {
        let cfg = &self.cfg;
        let eia_blocks = eia_table(cfg.n_peers, cfg.blocks_per_peer);
        let mut eia = infilter_core::EiaRegistry::new(cfg.adoption_threshold);
        for (i, blocks) in eia_blocks.iter().enumerate() {
            for b in blocks {
                eia.preload(PeerId(i as u16 + 1), b.prefix());
            }
        }
        let analyzer_cfg = AnalyzerConfig::builder()
            .mode(cfg.mode)
            .scan(cfg.scan)
            .nns(cfg.nns)
            .bits_per_feature(cfg.bits_per_feature)
            .thresholds(cfg.thresholds)
            .adoption_threshold(cfg.adoption_threshold)
            .adoption_prefix_len(cfg.adoption_prefix_len)
            .seed(cfg.seed ^ 0x7e57)
            .build()
            .expect("testbed config in range");
        let trainer = Trainer::new(analyzer_cfg);
        match cfg.mode {
            Mode::Basic => trainer.train_basic(eia),
            Mode::Enhanced => {
                let training = self.training_cluster();
                trainer
                    .train_enhanced(eia, &training)
                    .expect("training cluster is non-empty by construction")
            }
        }
    }

    /// The Normal training cluster: one Dagflow instance replaying a
    /// normal trace whose sources span the whole experiment space.
    pub fn training_cluster(&self) -> Vec<FlowRecord> {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        let trace = NormalProfile::default().generate(&mut rng, cfg.training_flows, cfg.span_ms);
        let mapper = AddressMapper::from_sub_blocks(
            (0..cfg.n_peers * cfg.blocks_per_peer)
                .map(|i| SubBlock::from_linear(i).expect("in range")),
        )
        .with_active_subnets(cfg.active_subnets);
        let dagflow = Dagflow::new(DagflowConfig {
            sources: mapper,
            target_prefix: cfg.target_prefix,
            export_port: 9000,
            input_if: 0,
            src_as: 0,
        });
        dagflow.replay_records(&trace, 0)
    }

    /// The attack kinds of each instance, in launch order (deterministic).
    pub fn instance_kinds(&self) -> Vec<AttackKind> {
        let cfg = &self.cfg;
        let budget =
            ((cfg.attack_volume_pct / 100.0) * cfg.normal_flows_per_peer as f64).ceil() as usize;
        let peers: usize = match cfg.placement {
            AttackPlacement::SinglePeer => 1,
            AttackPlacement::AllPeers => cfg.n_peers,
            AttackPlacement::FirstK(k) => k.clamp(1, cfg.n_peers),
        };
        let mut kinds = Vec::new();
        for _ in 0..peers {
            kinds.extend(plan_attack_set(budget));
        }
        kinds
    }

    /// Generates the full labelled workload, time-ordered. Deterministic
    /// in the seed; baseline comparators replay exactly this stream.
    pub fn generate_workload(&self) -> Vec<LabeledFlow> {
        let cfg = &self.cfg;
        let mut flows: Vec<LabeledFlow> = Vec::new();

        // --- Normal traffic: one Dagflow per peer per allocation phase.
        let change_blocks = (cfg.route_change_pct * cfg.blocks_per_peer)
            .div_ceil(100)
            .min(cfg.blocks_per_peer - 1);
        let allocations = if change_blocks == 0 {
            Vec::new()
        } else {
            rotated_allocations(
                cfg.n_peers,
                cfg.blocks_per_peer,
                change_blocks,
                cfg.n_allocations,
            )
        };
        let eia_blocks = eia_table(cfg.n_peers, cfg.blocks_per_peer);
        let phase_len = cfg.span_ms / cfg.n_allocations.max(1) as u64;
        for peer in 0..cfg.n_peers {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xa0 + peer as u64));
            let trace =
                NormalProfile::default().generate(&mut rng, cfg.normal_flows_per_peer, cfg.span_ms);
            // One mapper per allocation phase.
            let mappers: Vec<AddressMapper> = (0..cfg.n_allocations.max(1))
                .map(|phase| {
                    let blocks: Vec<SubBlock> = if change_blocks == 0 {
                        eia_blocks[peer].clone()
                    } else {
                        allocations[phase % allocations.len()][peer].all_blocks()
                    };
                    self.normal_mapper(blocks, peer as u64 * 31 + phase as u64)
                })
                .collect();
            for (phase, mapper) in mappers.iter().enumerate() {
                let lo = phase as u64 * phase_len;
                let hi = if phase + 1 == cfg.n_allocations.max(1) {
                    u64::MAX
                } else {
                    lo + phase_len
                };
                let sub: Trace = trace
                    .flows
                    .iter()
                    .filter(|f| f.start_ms >= lo && f.start_ms < hi)
                    .copied()
                    .collect();
                let dagflow = Dagflow::new(DagflowConfig {
                    sources: mapper.clone(),
                    target_prefix: cfg.target_prefix,
                    export_port: 9001 + peer as u16,
                    input_if: peer as u16 + 1,
                    src_as: peer as u16 + 1,
                })
                .with_sampling(cfg.sampling);
                for record in dagflow.replay_records(&sub, 0) {
                    flows.push(LabeledFlow {
                        peer: PeerId(peer as u16 + 1),
                        record,
                        label: Label::Normal,
                    });
                }
            }
        }

        // --- Attack traffic: spoofed sources from the other peers' blocks.
        let budget =
            ((cfg.attack_volume_pct / 100.0) * cfg.normal_flows_per_peer as f64).ceil() as usize;
        let attack_peers: Vec<usize> = match cfg.placement {
            AttackPlacement::SinglePeer => vec![0],
            AttackPlacement::AllPeers => (0..cfg.n_peers).collect(),
            AttackPlacement::FirstK(k) => (0..k.clamp(1, cfg.n_peers)).collect(),
        };
        let mut instance_id = 0usize;
        for &peer in &attack_peers {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xbad0 + peer as u64));
            // Spoofed sources: every block NOT in this peer's EIA set.
            let foreign: Vec<SubBlock> = (0..cfg.n_peers * cfg.blocks_per_peer)
                .filter(|&i| i / cfg.blocks_per_peer != peer)
                .map(|i| SubBlock::from_linear(i).expect("in range"))
                .collect();
            let mapper = AddressMapper::from_sub_blocks(foreign)
                .with_seed(cfg.seed ^ (0x5f00 + peer as u64))
                .with_active_subnets(cfg.active_subnets);
            let dagflow = Dagflow::new(DagflowConfig {
                sources: mapper,
                target_prefix: cfg.target_prefix,
                export_port: 9001 + peer as u16,
                input_if: peer as u16 + 1,
                src_as: peer as u16 + 1,
            })
            .with_sampling(cfg.sampling);
            for kind in plan_attack_set(budget) {
                let mut inst = kind.generate(&mut rng, 4096);
                // Cap oversized instances to the per-kind budget share.
                // Exploit tools recycle a small list of forged addresses
                // (their retries reuse one source), so exploit kinds share
                // an 8-slot neighbourhood per ingress; scans and floods
                // forge sources across the whole pool.
                let cap = kind_cap(kind, budget);
                inst.trace.flows.truncate(cap);
                let exploit = matches!(
                    kind,
                    AttackKind::HttpExploit
                        | AttackKind::FtpExploit
                        | AttackKind::SmtpExploit
                        | AttackKind::DnsExploit
                );
                let base = kind_slot_base(kind, peer, cfg.spoof_pool);
                for f in &mut inst.trace.flows {
                    f.src_slot = if exploit {
                        base + f.src_slot % 8
                    } else {
                        f.src_slot % cfg.spoof_pool
                    };
                }
                let offset = rng.gen_range(0..cfg.span_ms.saturating_sub(inst.trace.span_ms() + 1));
                let shifted: Trace = inst
                    .trace
                    .flows
                    .iter()
                    .map(|f| FlowTemplate {
                        start_ms: f.start_ms + offset,
                        ..*f
                    })
                    .collect();
                for record in dagflow.replay_records(&shifted, 0) {
                    flows.push(LabeledFlow {
                        peer: PeerId(peer as u16 + 1),
                        record,
                        label: Label::Attack {
                            instance: instance_id,
                        },
                    });
                }
                instance_id += 1;
            }
        }

        flows.sort_by_key(|lf| (lf.record.first_ms, lf.record.src_addr, lf.record.dst_port));
        flows
    }

    /// Mapper for a normal source: its allocated blocks plus a sliver of
    /// never-seen space modelling EIA incompleteness.
    fn normal_mapper(&self, blocks: Vec<SubBlock>, salt: u64) -> AddressMapper {
        let cfg = &self.cfg;
        let n = blocks.len() as f64;
        let mut entries: Vec<(Prefix, f64)> = blocks.iter().map(|b| (b.prefix(), 1.0)).collect();
        if cfg.unexpected_source_fraction > 0.0 {
            // The unused tail of the experiment space (sub-blocks 1000..1144,
            // "the remaining 144 were ignored") stands in for customers the
            // EIA initialisation never saw.
            let f = cfg.unexpected_source_fraction;
            let unknown = SubBlock::from_linear(
                infilter_net::blocks::EXPERIMENT_SUB_BLOCKS + (salt as usize % 144),
            )
            .expect("tail sub-block exists");
            entries.push((unknown.prefix(), n * f / (1.0 - f)));
        }
        AddressMapper::weighted(entries)
            .with_seed(cfg.seed ^ salt)
            .with_active_subnets(cfg.active_subnets)
    }
}

/// Plans one attack set: at least one instance of each of the 12 kinds,
/// then more instances cycling through the kinds while flow budget
/// remains (§6.2: "each attack being used multiple times depending on
/// volume of attacks needed").
fn plan_attack_set(budget_flows: usize) -> Vec<AttackKind> {
    let mut kinds: Vec<AttackKind> = AttackKind::ALL.to_vec();
    let mut used: usize = kinds.iter().map(|k| kind_cap(*k, budget_flows)).sum();
    let mut i = 0;
    while used < budget_flows {
        let kind = AttackKind::ALL[i % AttackKind::ALL.len()];
        used += kind_cap(kind, budget_flows);
        kinds.push(kind);
        i += 1;
    }
    kinds
}

/// Deterministic spoof-pool neighbourhood for all instances of `kind`
/// launched at `peer`.
fn kind_slot_base(kind: AttackKind, peer: usize, pool: u64) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    (kind.name(), peer).hash(&mut h);
    h.finish() % pool.max(9).saturating_sub(8)
}

/// Flow cap for one instance of `kind` under a set budget: stealthy
/// attacks are naturally tiny; scans must keep enough probes to be scans;
/// floods absorb whatever volume remains.
fn kind_cap(kind: AttackKind, budget: usize) -> usize {
    match kind {
        AttackKind::Puke | AttackKind::Jolt | AttackKind::Teardrop | AttackKind::Land => 3,
        AttackKind::HttpExploit
        | AttackKind::FtpExploit
        | AttackKind::SmtpExploit
        | AttackKind::DnsExploit => 9,
        AttackKind::Slammer => 30,
        AttackKind::HostScan => 40,
        AttackKind::NetworkScan => 40,
        AttackKind::Tfn2k => (budget / 3).clamp(10, 240),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let bed = Testbed::new(TestbedConfig::small(5));
        let a = bed.generate_workload();
        let b = bed.generate_workload();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.record == y.record && x.label == y.label && x.peer == y.peer));
    }

    #[test]
    fn attack_plan_covers_all_kinds() {
        let kinds = plan_attack_set(60);
        for k in AttackKind::ALL {
            assert!(kinds.contains(&k), "missing {k}");
        }
        // Budget is respected approximately: flows used ≥ budget means the
        // loop stopped.
        let used: usize = kinds.iter().map(|k| kind_cap(*k, 60)).sum();
        assert!(used >= 60);
    }

    #[test]
    fn attack_sources_are_spoofed() {
        let cfg = TestbedConfig::small(7);
        let bed = Testbed::new(cfg.clone());
        let workload = bed.generate_workload();
        let eia = eia_table(cfg.n_peers, cfg.blocks_per_peer);
        let mut attack_flows = 0;
        for lf in &workload {
            if matches!(lf.label, Label::Attack { .. }) {
                attack_flows += 1;
                let own = &eia[(lf.peer.0 - 1) as usize];
                assert!(
                    !own.iter().any(|b| b.prefix().contains(lf.record.src_addr)),
                    "attack source {} inside the arrival peer's own EIA",
                    lf.record.src_addr
                );
            }
        }
        assert!(attack_flows > 0);
    }

    #[test]
    fn single_peer_places_attacks_at_peer_one() {
        let bed = Testbed::new(TestbedConfig::small(7));
        let workload = bed.generate_workload();
        for lf in &workload {
            if matches!(lf.label, Label::Attack { .. }) {
                assert_eq!(lf.peer, PeerId(1));
            }
        }
    }

    #[test]
    fn first_k_places_attacks_at_exactly_k_peers() {
        let cfg = TestbedConfig {
            placement: AttackPlacement::FirstK(3),
            ..TestbedConfig::small(7)
        };
        let bed = Testbed::new(cfg);
        let mut peers = std::collections::HashSet::new();
        for lf in bed.generate_workload() {
            if matches!(lf.label, Label::Attack { .. }) {
                peers.insert(lf.peer);
            }
        }
        assert_eq!(peers.len(), 3);
        assert!(peers.iter().all(|p| p.0 <= 3));
    }

    #[test]
    fn stress_places_attacks_everywhere() {
        let cfg = TestbedConfig {
            placement: AttackPlacement::AllPeers,
            ..TestbedConfig::small(7)
        };
        let bed = Testbed::new(cfg.clone());
        let workload = bed.generate_workload();
        let mut peers_with_attacks = std::collections::HashSet::new();
        for lf in &workload {
            if matches!(lf.label, Label::Attack { .. }) {
                peers_with_attacks.insert(lf.peer);
            }
        }
        assert_eq!(peers_with_attacks.len(), cfg.n_peers);
    }

    #[test]
    fn small_run_detects_most_attacks_with_low_fp() {
        let outcome = Testbed::new(TestbedConfig::small(11)).run();
        assert!(outcome.attack_instances >= 12);
        assert!(
            outcome.detection_rate() > 0.5,
            "detection rate {:.2} too low; per-kind: {:?}",
            outcome.detection_rate(),
            outcome.per_kind
        );
        assert!(
            outcome.false_positive_rate() < 0.08,
            "false positive rate {:.3} too high",
            outcome.false_positive_rate()
        );
        assert!(outcome.normal_flows > 2000);
    }

    #[test]
    fn basic_mode_flags_every_suspect() {
        let cfg = TestbedConfig {
            mode: Mode::Basic,
            route_change_pct: 2,
            ..TestbedConfig::small(13)
        };
        let outcome = Testbed::new(cfg).run();
        // BI detects essentially everything (every attack flow is an EIA
        // mismatch) at the cost of a higher FP rate.
        assert!(
            outcome.detection_rate() > 0.9,
            "BI detection {:.2}",
            outcome.detection_rate()
        );
        assert!(outcome.false_positive_rate() > 0.005);
        assert_eq!(outcome.metrics.forgiven, 0);
    }

    #[test]
    fn route_changes_raise_false_positives() {
        let quiet = Testbed::new(TestbedConfig {
            route_change_pct: 0,
            unexpected_source_fraction: 0.0,
            ..TestbedConfig::small(17)
        })
        .run();
        let noisy = Testbed::new(TestbedConfig {
            route_change_pct: 8,
            unexpected_source_fraction: 0.0,
            ..TestbedConfig::small(17)
        })
        .run();
        assert!(
            noisy.false_positive_rate() > quiet.false_positive_rate(),
            "quiet {:.4} vs noisy {:.4}",
            quiet.false_positive_rate(),
            noisy.false_positive_rate()
        );
    }
}

#[cfg(test)]
mod adoption_probe {
    use super::*;

    #[test]
    fn exploit_retries_drive_adoption() {
        let cfg = TestbedConfig::small(42);
        let bed = Testbed::new(cfg.clone());
        let workload = bed.generate_workload();
        // Find the http-exploit instance's flows.
        let kinds = bed.instance_kinds();
        let http_idx: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == AttackKind::HttpExploit)
            .map(|(i, _)| i)
            .collect();
        let flows: Vec<&LabeledFlow> = workload
            .iter()
            .filter(
                |lf| matches!(lf.label, Label::Attack { instance } if http_idx.contains(&instance)),
            )
            .collect();
        assert_eq!(flows.len(), 9, "expected 3 victims x 3 retries");
        // Three distinct forged sources, each reused three times — enough
        // repetition to drive /24 adoption.
        let mut sources: Vec<_> = flows.iter().map(|f| f.record.src_addr).collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources.len(), 3, "expected 3 distinct forged sources");
    }
}
