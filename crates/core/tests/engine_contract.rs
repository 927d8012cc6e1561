//! The engine's contract, each behaviour asserted once.
//!
//! The reference is [`Oracle`]: Figure 12 written straight-line over the
//! public stage types — `EiaRegistry::classify` → `ScanAnalyzer::push` →
//! `ClusterModel` subcluster distance ≤ threshold →
//! `EiaRegistry::record_sighting` — with no snapshot, no memo, no batching
//! and no shards. It shares no function with the engine beyond those
//! types, so a bug in the engine's stage glue cannot hide in both. The
//! proptests hold the engine to it per flow and batched, in both modes, at
//! every rung — verdicts, counters, adoptions, and every alert of every
//! drain, field by field; the remaining tests pin the operational surface.

use infilter_core::{
    AdoptionEvent, Analyzer, AnalyzerConfig, AnalyzerMetrics, AttackStage, ClusterModel,
    ConcurrentAnalyzer, ConcurrentConfig, Effort, EiaRegistry, EiaVerdict, IdmefAlert, Mode,
    PeerId, ScanAnalyzer, ScanConfig, ScanVerdict, Trainer, Verdict,
};
use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_nns::NnsParams;
use infilter_traffic::AppClass;
use proptest::prelude::*;

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(3);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

/// Small enough that the generators below cross every threshold: flows of
/// up to four packets count as probes, scans flag at three distinct
/// targets, the buffer evicts, and a source is adopted on its third
/// cleared sighting.
fn config(mode: Mode) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .mode(mode)
        .nns(NnsParams {
            d: 0,
            m1: 2,
            m2: 8,
            m3: 2,
        })
        .bits_per_feature(12)
        .scan(ScanConfig {
            buffer_size: 24,
            network_scan_threshold: 3,
            host_scan_threshold: 3,
            max_packets_per_probe: 4,
        })
        .adoption_threshold(3)
        .build()
        .expect("valid config")
}

/// One flow of the normal cluster: HTTP and DNS sessions from peer 1.
fn normal_flow(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: "3.0.0.1".parse().unwrap(),
        dst_addr: "96.1.0.20".parse().unwrap(),
        dst_port: if i.is_multiple_of(2) { 80 } else { 53 },
        protocol: if i.is_multiple_of(2) { 6 } else { 17 },
        packets: 10 + (i % 6),
        octets: 5000 + 200 * (i % 10),
        first_ms: 0,
        last_ms: 800 + 40 * (i % 7),
        ..FlowRecord::default()
    }
}

fn training() -> Vec<FlowRecord> {
    (0..80).map(normal_flow).collect()
}

fn analyzer(mode: Mode) -> Analyzer {
    match mode {
        Mode::Basic => Trainer::new(config(mode)).train_basic(eia()),
        Mode::Enhanced => Trainer::new(config(mode))
            .train_enhanced(eia(), &training())
            .expect("training succeeds"),
    }
}

/// The deployed shape: re-sharded, default (1-in-64) latency sampling.
fn sharded(mode: Mode, shards: usize) -> ConcurrentAnalyzer {
    ConcurrentAnalyzer::new(
        analyzer(mode),
        ConcurrentConfig {
            shards,
            ..ConcurrentConfig::default()
        },
    )
}

fn legal_flow(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: (0x0300_0000u32 + i).into(),
        ..normal_flow(0)
    }
}

/// Sourced from peer 2's block but arriving through peer 1: the paper's
/// spoof signature. Shaped like training traffic, so NNS clears it.
fn spoofed_flow(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: (0x0320_0000u32 + i).into(),
        ..normal_flow(0)
    }
}

/// Figure 12, §5.1.3(e), as the paper states it.
struct Oracle {
    mode: Mode,
    eia: EiaRegistry,
    scan: ScanAnalyzer,
    model: Option<ClusterModel>,
    m: AnalyzerMetrics,
    /// The alerts open since the last drain, in the order their first
    /// flows were flagged; ids count up from 0 as a new engine's do.
    book: Vec<IdmefAlert>,
    next_id: u64,
}

/// What an alert aggregates over — ingress, stage kind, the stage's target
/// — read off the alert.
fn alert_key(a: &IdmefAlert) -> (PeerId, u8, u32) {
    match a.stage {
        AttackStage::EiaMismatch { expected } => {
            (a.ingress, 0, expected.map_or(0, |p| u32::from(p.0) + 1))
        }
        AttackStage::NetworkScan { dst_port, .. } => (a.ingress, 1, dst_port.into()),
        AttackStage::HostScan { dst_addr, .. } => (a.ingress, 2, dst_addr.into()),
        AttackStage::NnsAnomaly { .. } => (a.ingress, 3, a.target.into()),
    }
}

/// Folds `alert` into the one of `book` with its key, or appends it.
fn fold_into(book: &mut Vec<IdmefAlert>, alert: IdmefAlert) {
    match book.iter_mut().find(|b| alert_key(b) == alert_key(&alert)) {
        Some(open) => {
            open.count += alert.count;
            open.last_time_ms = open.last_time_ms.max(alert.last_time_ms);
        }
        None => book.push(alert),
    }
}

impl Oracle {
    fn new(mode: Mode) -> Oracle {
        let cfg = config(mode);
        let mut eia = eia();
        eia.set_adoption_threshold(cfg.adoption_threshold);
        eia.set_adoption_prefix_len(cfg.adoption_prefix_len);
        let model = (mode == Mode::Enhanced).then(|| {
            let (bits, seed) = (cfg.bits_per_feature, cfg.seed);
            ClusterModel::train(&training(), cfg.nns, cfg.thresholds, bits, seed)
                .expect("training succeeds")
        });
        Oracle {
            mode,
            eia,
            scan: ScanAnalyzer::new(cfg.scan),
            model,
            m: AnalyzerMetrics::default(),
            book: Vec::new(),
            next_id: 0,
        }
    }

    fn process(&mut self, peer: PeerId, flow: &FlowRecord, effort: Effort) -> Verdict {
        self.m.flows += 1;
        let EiaVerdict::Mismatch { expected } = self.eia.classify(peer, flow.src_addr) else {
            self.m.eia_match += 1;
            return Verdict::Legal;
        };
        self.m.eia_suspect += 1;
        let verdict = self.suspect(peer, flow, expected, effort);
        if let Verdict::Attack(stage) = verdict {
            let open = self.book.len();
            let alert = IdmefAlert::new(self.next_id, flow, peer, stage);
            fold_into(&mut self.book, alert);
            self.next_id += (self.book.len() - open) as u64;
        }
        verdict
    }

    fn drain_alerts(&mut self) -> Vec<IdmefAlert> {
        std::mem::take(&mut self.book)
    }

    fn suspect(
        &mut self,
        peer: PeerId,
        flow: &FlowRecord,
        expected: Option<PeerId>,
        effort: Effort,
    ) -> Verdict {
        if self.mode == Mode::Basic || effort == Effort::BiOnly {
            self.m.eia_attacks += 1;
            return Verdict::Attack(AttackStage::EiaMismatch { expected });
        }
        let scan = match self.scan.push(flow) {
            ScanVerdict::Pass => None,
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
        };
        if let Some(stage) = scan {
            self.m.scan_attacks += 1;
            return Verdict::Attack(stage);
        }
        if effort == Effort::SkipNns {
            self.m.forgiven += 1;
            return Verdict::Forgiven;
        }
        let class = AppClass::classify(flow.protocol, flow.dst_port);
        let sub = self.model.as_ref().and_then(|m| m.subcluster(class));
        let threshold = sub.map_or(0, |s| s.threshold());
        let distance = sub.and_then(|s| s.nn_distance(&flow.stats()));
        if distance.is_some_and(|d| d <= threshold) {
            self.m.forgiven += 1;
            self.m.adoptions += u64::from(self.eia.record_sighting(peer, flow.src_addr));
            return Verdict::Forgiven;
        }
        self.m.nns_attacks += 1;
        Verdict::Attack(AttackStage::NnsAnomaly {
            distance: distance.unwrap_or(u32::MAX),
            threshold,
            class,
        })
    }
}

/// Everything the oracle comparison looks at.
#[derive(Debug, PartialEq)]
struct Outcome {
    verdicts: Vec<Verdict>,
    counters: [(&'static str, u64); 8],
    /// What each drain handed over, whole: ids, the first flow's fields,
    /// `count`, `last_time_ms`.
    alerts: Vec<Vec<IdmefAlert>>,
    adoptions: Vec<AdoptionEvent>,
}

/// Flows between two alert drains: short enough that the generated streams
/// span several, so an alert left open — or a key left behind — by one
/// drain shows in the next.
const WINDOW: usize = 32;

fn oracle_outcome(mode: Mode, effort: Effort, flows: &[(PeerId, FlowRecord)]) -> Outcome {
    let mut oracle = Oracle::new(mode);
    let (mut verdicts, mut alerts) = (Vec::new(), Vec::new());
    for window in flows.chunks(WINDOW) {
        verdicts.extend(
            window
                .iter()
                .map(|(peer, flow)| oracle.process(*peer, flow, effort)),
        );
        alerts.push(oracle.drain_alerts());
    }
    let mut adoptions = Vec::new();
    oracle.eia.drain_events(&mut adoptions);
    Outcome {
        verdicts,
        counters: oracle.m.named_counters(),
        alerts,
        adoptions,
    }
}

/// One `process_with_effort` call per flow.
fn per_flow_outcome(
    engine: &ConcurrentAnalyzer,
    effort: Effort,
    flows: &[(PeerId, FlowRecord)],
) -> Outcome {
    let (mut verdicts, mut alerts) = (Vec::new(), Vec::new());
    for window in flows.chunks(WINDOW) {
        verdicts.extend(
            window
                .iter()
                .map(|(peer, flow)| engine.process_with_effort(*peer, flow, effort)),
        );
        alerts.push(engine.drain_alerts());
    }
    let mut adoptions = Vec::new();
    engine.adoption_events(&mut adoptions);
    Outcome {
        verdicts,
        counters: engine.metrics().named_counters(),
        alerts,
        adoptions,
    }
}

/// Runs of same-ingress flows as one batch each, so adoptions land
/// mid-batch and the rest of the batch takes the stale fallback.
fn batched_outcome(mode: Mode, effort: Effort, flows: &[(PeerId, FlowRecord)]) -> Outcome {
    let engine = sharded(mode, 1);
    let (mut verdicts, mut alerts) = (Vec::new(), Vec::new());
    let mut batch = FlowBatch::new();
    for window in flows.chunks(WINDOW) {
        for run in window.chunk_by(|a, b| a.0 == b.0) {
            batch.clear();
            for (_, flow) in run {
                batch.push_record(flow);
            }
            engine.process_flow_batch_into(run[0].0, &batch, effort, &mut verdicts);
        }
        alerts.push(engine.drain_alerts());
    }
    let mut adoptions = Vec::new();
    engine.adoption_events(&mut adoptions);
    Outcome {
        verdicts,
        counters: engine.metrics().named_counters(),
        alerts,
        adoptions,
    }
}

/// Four shards, where sharding cannot change a verdict (no Scan Analysis
/// ran). A key's flows then sit on up to four shards by destination, so a
/// drain hands over up to four alerts per key: ids still ascend, and folded
/// back per key — the lowest id first, so the first flagged flow's fields
/// survive — they are the oracle's book.
fn resharded_outcome(mode: Mode, effort: Effort, flows: &[(PeerId, FlowRecord)]) -> Outcome {
    let mut outcome = per_flow_outcome(&sharded(mode, 4), effort, flows);
    let ids = outcome.alerts.iter().flatten().map(|a| a.message_id);
    assert!(ids.clone().zip(ids.skip(1)).all(|(a, b)| a < b));
    let mut next_id = 0..;
    for drained in &mut outcome.alerts {
        let mut book = Vec::new();
        for alert in drained.drain(..) {
            fold_into(&mut book, alert);
        }
        for alert in &mut book {
            alert.message_id = next_id.next().expect("endless");
        }
        *drained = book;
    }
    outcome
}

fn assert_matches_oracle(flows: &[(PeerId, FlowRecord)]) -> Result<(), TestCaseError> {
    for mode in [Mode::Basic, Mode::Enhanced] {
        for effort in Effort::ALL {
            let want = oracle_outcome(mode, effort, flows);
            prop_assert_eq!(
                &per_flow_outcome(&analyzer(mode), effort, flows),
                &want,
                "per flow, {:?} at {:?}",
                mode,
                effort
            );
            prop_assert_eq!(
                &batched_outcome(mode, effort, flows),
                &want,
                "batched, {:?} at {:?}",
                mode,
                effort
            );
            if mode == Mode::Basic || effort == Effort::BiOnly {
                prop_assert_eq!(
                    &resharded_outcome(mode, effort, flows),
                    &want,
                    "re-sharded, {:?} at {:?}",
                    mode,
                    effort
                );
            }
        }
    }
    Ok(())
}

/// `kind` picks the source block (peer 1's, peer 2's — a spoof when
/// arriving via peer 1 — or unassigned space); `i` indexes a small set of
/// source hosts so adoption thresholds are actually crossed; `shape`
/// varies the flow statistics across scan-probe-sized and
/// NNS-normal/abnormal territory, flips the HTTP/DNS app class and spreads
/// the probes over eight targets.
fn flow_from(kind: u8, i: u32, shape: u8) -> FlowRecord {
    let src = match kind % 3 {
        0 => 0x0300_0000u32 + i,
        1 => 0x0320_0000u32 + i,
        _ => 0x0900_0000u32 + i,
    };
    let shape = u32::from(shape);
    FlowRecord {
        src_addr: src.into(),
        dst_addr: (0x6001_0000u32 + (shape & 0x7)).into(),
        dst_port: if shape % 2 == 0 { 80 } else { 53 },
        protocol: if shape % 2 == 0 { 6 } else { 17 },
        packets: 1 + (shape % 14),
        octets: 1_000 + 500 * (shape % 12),
        first_ms: 0,
        last_ms: 400 + 100 * (shape % 5),
        ..FlowRecord::default()
    }
}

/// Arbitrary sources through either peer, towards one host.
fn arb_flow() -> impl Strategy<Value = (PeerId, FlowRecord)> {
    (
        1u16..=2,
        any::<u32>(),
        0u32..100_000,
        1u32..5_000,
        proptest::sample::select(vec![80u16, 53, 1434, 9999]),
        any::<bool>(),
    )
        .prop_map(|(peer, src, octets, packets, dst_port, tcp)| {
            let flow = FlowRecord {
                src_addr: src.into(),
                dst_addr: "96.1.0.20".parse().expect("static addr"),
                dst_port,
                protocol: if tcp { 6 } else { 17 },
                packets,
                octets: octets.max(packets * 28),
                first_ms: 0,
                last_ms: 1_000,
                ..FlowRecord::default()
            };
            (PeerId(peer), flow)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch ≡ per-flow ≡ Figure 12, where repeat sources, scans and
    /// mid-batch adoptions are common.
    #[test]
    fn engine_matches_the_oracle_on_clustered_sources(
        mix in proptest::collection::vec((0u8..3, 0u32..6, 0u8..=255), 1..96)
    ) {
        let flows: Vec<(PeerId, FlowRecord)> = mix
            .iter()
            .map(|&(kind, i, shape)| (PeerId(1), flow_from(kind, i, shape)))
            .collect();
        assert_matches_oracle(&flows)?;
    }

    /// The same over arbitrary sources arriving through two peers.
    #[test]
    fn engine_matches_the_oracle_on_arbitrary_sources(
        flows in proptest::collection::vec(arb_flow(), 1..120)
    ) {
        assert_matches_oracle(&flows)?;
    }
}

/// The degradation ladder: SkipNns forgives a scan-clean suspect without
/// the NNS stage and without a sighting; BiOnly flags it immediately like
/// Basic mode; legal traffic passes at any rung.
#[test]
fn effort_rungs_shed_stages() {
    let engine = sharded(Mode::Enhanced, 8);
    for _ in 0..5 {
        assert_eq!(
            engine.process_with_effort(PeerId(1), &spoofed_flow(9), Effort::SkipNns),
            Verdict::Forgiven,
            "SkipNns must forgive a scan-clean suspect"
        );
    }
    assert_eq!(
        engine.metrics().adoptions,
        0,
        "shed suspects must not adopt"
    );
    let bi_only = engine.process_with_effort(PeerId(1), &spoofed_flow(9), Effort::BiOnly);
    assert!(
        matches!(bi_only, Verdict::Attack(AttackStage::EiaMismatch { .. })),
        "BiOnly must flag the EIA mismatch outright, got {bi_only:?}"
    );
    assert!(engine
        .process_with_effort(PeerId(1), &legal_flow(2), Effort::BiOnly)
        .is_legal());
    let m = engine.metrics();
    assert_eq!((m.forgiven, m.eia_attacks, m.eia_match), (5, 1, 1));
}

/// Hot-reloading the EIA registry takes effect on the very next flow and
/// counts as a republish: a previously spoofed-looking source becomes
/// legal once the new table assigns its block to the ingress peer.
#[test]
fn reload_applies_on_the_next_flow_and_republishes() {
    let engine = sharded(Mode::Enhanced, 8);
    assert!(!engine.process(PeerId(1), &spoofed_flow(7)).is_legal());
    let before = engine.eia_snapshot();
    let republishes = engine.telemetry().republishes();
    let mut wider = EiaRegistry::new(3);
    wider.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
    wider.preload(PeerId(1), "3.32.0.0/11".parse().unwrap());
    wider.preload(PeerId(2), "3.64.0.0/11".parse().unwrap());
    assert_eq!(engine.reload_eia(wider), 3, "reload reports the table size");
    assert!(engine.process(PeerId(1), &spoofed_flow(7)).is_legal());
    assert!(!std::sync::Arc::ptr_eq(&before, &engine.eia_snapshot()));
    assert_eq!(engine.telemetry().republishes(), republishes + 1);
}

/// The exposition page carries the engine's counters and the flight
/// recorder explains suspects.
#[test]
fn exposition_carries_the_counters_and_the_verdict_trail() {
    let engine = sharded(Mode::Enhanced, 8);
    for i in 0..20 {
        engine.process(PeerId(1), &legal_flow(i));
        engine.process(PeerId(1), &spoofed_flow(i));
    }
    let page = engine.prometheus_text();
    assert!(page.contains("\ninfilter_flows_total 40\n"), "{page}");
    assert!(page.contains("\ninfilter_eia_suspect_total 20\n"), "{page}");
    let trail = engine.explain_last(8);
    assert!(
        trail.iter().any(|d| d.verdict != Verdict::Legal),
        "the spoofed flows must appear in the trail"
    );
    assert!(engine.telemetry().enabled());
}

/// The persistence hook `infilterd`'s durable store leans on: a drain
/// hands over every adoption once, and replaying the drained events into
/// a fresh registry rebuilds the published table; every adoption was also
/// counted as a republish.
#[test]
fn drained_adoption_events_replay_to_the_published_table() {
    let engine = sharded(Mode::Enhanced, 8);
    // Not source 0: its /32 would sit on the 3.32.0.0/11 network address
    // and shadow it in the LPM check below.
    for i in 1..4 {
        for _ in 0..engine.config().adoption_threshold {
            assert!(engine.process(PeerId(1), &spoofed_flow(i)).is_forgiven());
        }
    }
    let mut events = Vec::new();
    engine.adoption_events(&mut events);
    assert_eq!(events.len(), 3);
    assert_eq!(engine.telemetry().republishes(), 3);
    let mut again = Vec::new();
    engine.adoption_events(&mut again);
    assert!(again.is_empty(), "a drain must leave the buffer empty");

    let mut replayed = eia();
    for event in &events {
        replayed.apply_adoption(event.peer, event.prefix);
    }
    let published = engine.eia_snapshot();
    assert_eq!(replayed.snapshot().prefix_count(), published.prefix_count());
    for (prefix, peer) in replayed.snapshot().iter() {
        assert_eq!(published.expected_peer(prefix.network()), Some(peer));
    }
}

/// The frozen LPM the engine publishes classifies exactly like the dynamic
/// trie, on a deliberately nasty nested table (default route, shadowing
/// /24, host route) swept at every boundary ± 1; the snapshot's batch API
/// agrees with its scalar one.
#[test]
fn frozen_snapshot_matches_dynamic_classification() {
    fn nasty_table() -> EiaRegistry {
        let mut r = EiaRegistry::new(3);
        r.preload(PeerId(2), "0.0.0.0/0".parse().unwrap());
        r.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
        r.preload(PeerId(2), "3.0.4.0/24".parse().unwrap());
        r.preload(PeerId(2), "3.32.0.0/11".parse().unwrap());
        r.preload(PeerId(1), "3.32.0.9/32".parse().unwrap());
        r
    }
    let sweep: Vec<u32> = [
        0x0300_0000u32, // 3.0.0.0    — peer 1's block
        0x0300_0400,    // 3.0.4.0    — shadowed /24 inside it
        0x0300_04ff,    // 3.0.4.255
        0x0300_0500,    // 3.0.5.0    — just past the shadow
        0x0320_0000,    // 3.32.0.0   — peer 2's block
        0x0320_0009,    // 3.32.0.9   — host route
        0x0320_000a,    // 3.32.0.10  — its neighbour
        0x033f_ffff,    // 3.63.255.255 — last covered address
        0x0340_0000,    // 3.64.0.0   — first uncovered
        0x0900_0000,    // 9.0.0.0    — unassigned space
        0x0000_0000,
        0xffff_ffff,
    ]
    .into_iter()
    .flat_map(|base: u32| [base, base.wrapping_add(1), base.wrapping_sub(1)])
    .collect();

    let engine = sharded(Mode::Enhanced, 8);
    assert_eq!(engine.reload_eia(nasty_table()), 5);
    let oracle = nasty_table();
    let snap = engine.eia_snapshot();
    assert_eq!(snap.prefix_count(), 5);
    let mut batch = Vec::new();
    for observed in [PeerId(1), PeerId(2), PeerId(3)] {
        snap.classify_batch_into(observed, &sweep, &mut batch);
        for (i, &bits) in sweep.iter().enumerate() {
            let addr = std::net::Ipv4Addr::from(bits);
            let want = oracle.classify(observed, addr);
            assert_eq!(snap.classify(observed, addr), want, "scalar at {addr}");
            assert_eq!(batch[i], want, "batch at {addr}");
        }
    }
}
