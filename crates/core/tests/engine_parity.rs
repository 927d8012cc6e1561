//! The [`Engine`] parity suite: every test here is written once, generic
//! over `E: Engine`, and run against both implementations — the
//! single-threaded [`Analyzer`] and the sharded [`ConcurrentAnalyzer`].
//! Anything the trait promises (verdicts, counters, alerts, effort
//! degradation, EIA hot-reload, the exposition page) must hold
//! identically for both, so callers like `infilterd` can swap engines
//! freely.

use infilter_core::{
    Analyzer, AnalyzerConfig, AttackStage, ConcurrentAnalyzer, ConcurrentConfig, Effort,
    EiaRegistry, Engine, Mode, PeerId, Trainer, Verdict, METRIC_FAMILIES,
};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(3);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

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
        .build()
        .expect("valid config")
}

fn training() -> Vec<FlowRecord> {
    (0..80)
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
        .collect()
}

/// Training is deterministic, so both engines are built from identically
/// trained analyzers.
fn analyzer(mode: Mode) -> Analyzer {
    match mode {
        Mode::Basic => Trainer::new(config(mode)).train_basic(eia()),
        Mode::Enhanced => Trainer::new(config(mode))
            .train_enhanced(eia(), &training())
            .expect("training succeeds"),
    }
}

fn concurrent(mode: Mode) -> ConcurrentAnalyzer {
    ConcurrentAnalyzer::new(analyzer(mode), ConcurrentConfig::default())
}

fn legal_flow(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: (0x0300_0000u32 + i).into(),
        dst_addr: "96.1.0.20".parse().unwrap(),
        dst_port: 80,
        protocol: 6,
        packets: 12,
        octets: 6000,
        last_ms: 900,
        ..FlowRecord::default()
    }
}

/// Sourced from peer 2's block but arriving through peer 1: the paper's
/// spoof signature.
fn spoofed_flow(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: (0x0320_0000u32 + i).into(),
        ..legal_flow(0)
    }
}

/// The same mixed workload for every engine: legal traffic, spoofed
/// traffic, and a batch. Returns the verdict sequence.
fn run_workload<E: Engine>(engine: &mut E) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for i in 0..20 {
        verdicts.push(engine.process(PeerId(1), &legal_flow(i)));
    }
    for i in 0..10 {
        verdicts.push(engine.process(PeerId(1), &spoofed_flow(i)));
    }
    let batch: Vec<FlowRecord> = (20..30).map(legal_flow).collect();
    verdicts.extend(engine.process_batch(PeerId(1), &batch));
    verdicts
}

fn assert_workload_parity(mode: Mode) {
    let mut single = analyzer(mode);
    let mut sharded = concurrent(mode);
    let v_single = run_workload(&mut single);
    let v_sharded = run_workload(&mut sharded);
    assert_eq!(v_single, v_sharded, "verdict-for-verdict parity ({mode:?})");
    let (m1, m2) = (single.metrics(), Engine::metrics(&sharded));
    assert_eq!(m1.flows, m2.flows);
    assert_eq!(m1.eia_match, m2.eia_match);
    assert_eq!(m1.eia_suspect, m2.eia_suspect);
    assert_eq!(m1.attacks(), m2.attacks());
    assert_eq!(
        single.drain_alerts().len(),
        Engine::drain_alerts(&mut sharded).len(),
        "both engines alert on the same flows"
    );
}

#[test]
fn basic_workload_parity() {
    assert_workload_parity(Mode::Basic);
}

#[test]
fn enhanced_workload_parity() {
    assert_workload_parity(Mode::Enhanced);
}

/// The degradation ladder means the same thing on both engines: SkipNns
/// forgives a scan-clean suspect without the NNS stage; BiOnly flags it
/// immediately like Basic mode.
fn assert_effort_semantics<E: Engine>(engine: &mut E) {
    assert_eq!(
        engine.process_with_effort(PeerId(1), &spoofed_flow(900), Effort::SkipNns),
        Verdict::Forgiven,
        "SkipNns must forgive a scan-clean suspect"
    );
    let bi_only = engine.process_with_effort(PeerId(1), &spoofed_flow(901), Effort::BiOnly);
    assert!(
        matches!(bi_only, Verdict::Attack(AttackStage::EiaMismatch { .. })),
        "BiOnly must flag the EIA mismatch outright, got {bi_only:?}"
    );
    assert!(
        engine
            .process_with_effort(PeerId(1), &legal_flow(902), Effort::BiOnly)
            .is_legal(),
        "legal traffic passes at any effort"
    );
}

#[test]
fn effort_semantics_match() {
    assert_effort_semantics(&mut analyzer(Mode::Enhanced));
    assert_effort_semantics(&mut concurrent(Mode::Enhanced));
}

/// Hot-reloading the EIA registry takes effect on the very next flow on
/// both engines: a previously spoofed-looking source becomes legal once
/// the new table assigns its block to the ingress peer.
fn assert_reload_applies<E: Engine>(engine: &mut E) {
    let before = engine.eia_snapshot();
    let mut wider = EiaRegistry::new(3);
    wider.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
    wider.preload(PeerId(1), "3.32.0.0/11".parse().unwrap());
    wider.preload(PeerId(2), "3.64.0.0/11".parse().unwrap());
    let prefixes = engine.reload_eia(wider);
    assert_eq!(prefixes, 3, "reload reports the new table size");
    assert!(
        engine.process(PeerId(1), &spoofed_flow(7)).is_legal(),
        "the reloaded table must apply to the next flow"
    );
    assert!(
        !std::sync::Arc::ptr_eq(&before, &engine.eia_snapshot()),
        "reload must republish the snapshot"
    );
}

#[test]
fn eia_reload_applies_immediately() {
    assert_reload_applies(&mut analyzer(Mode::Enhanced));
    assert_reload_applies(&mut concurrent(Mode::Enhanced));
}

/// The observability surface holds for both: the exposition page carries
/// every advertised family and the flight recorder explains suspects.
fn assert_observable<E: Engine>(engine: &mut E) {
    run_workload(engine);
    let page = engine.prometheus_text();
    for family in METRIC_FAMILIES {
        assert!(
            page.contains(&format!("# TYPE {family} ")),
            "exposition missing {family}"
        );
    }
    let trail = engine.explain_last(8);
    assert!(!trail.is_empty(), "flight recorder must hold decisions");
    // The spoofed flows take the suspect path; normal-shaped ones are
    // Forgiven rather than flagged, but either way the recorder holds them.
    assert!(
        trail.iter().any(|d| d.verdict != Verdict::Legal),
        "the spoofed flows must appear in the trail"
    );
    assert!(engine.config().mode == Mode::Enhanced);
    assert!(engine.telemetry().enabled());
}

#[test]
fn observability_surface_matches() {
    assert_observable(&mut analyzer(Mode::Enhanced));
    assert_observable(&mut concurrent(Mode::Enhanced));
}

/// The persistence hook is part of the trait contract: after the same
/// workload, both engines hand the same adoption events to a sink, a
/// second drain yields nothing, and replaying the drained events into a
/// fresh registry reproduces the engine's published table exactly — the
/// property `infilterd`'s durable store leans on.
#[test]
fn adoption_events_parity() {
    fn drained<E: Engine>(engine: &mut E) -> Vec<infilter_core::AdoptionEvent> {
        run_workload(engine);
        // The workload's spoofed sources are all distinct (one sighting
        // each), so drive a single source past the adoption threshold.
        // Not source 0: its /32 would sit on the 3.32.0.0/11 network
        // address and shadow it in the LPM check below.
        for _ in 0..engine.config().adoption_threshold {
            engine.process(PeerId(1), &spoofed_flow(1));
        }
        let mut sink = Vec::new();
        engine.adoption_events(&mut sink);
        let mut again = Vec::new();
        engine.adoption_events(&mut again);
        assert!(again.is_empty(), "a drain must leave the buffer empty");
        sink
    }

    let mut single = analyzer(Mode::Enhanced);
    let mut sharded = concurrent(Mode::Enhanced);
    let e1 = drained(&mut single);
    let e2 = drained(&mut sharded);
    assert!(!e1.is_empty(), "the workload must adopt something");
    assert_eq!(e1, e2, "both engines emit the same adoption events");

    let mut replayed = eia();
    for event in &e1 {
        replayed.apply_adoption(event.peer, event.prefix);
    }
    let snap = Engine::eia_snapshot(&single);
    assert_eq!(
        replayed.snapshot().prefix_count(),
        snap.prefix_count(),
        "replaying drained events rebuilds the adopted table"
    );
    for (prefix, peer) in replayed.snapshot().iter() {
        assert_eq!(snap.expected_peer(prefix.network()), Some(peer));
    }
}

/// The frozen LPM each engine publishes via `eia_snapshot()` is
/// verdict-for-verdict identical to live dynamic-trie classification.
/// Checked twice: after a workload whose adoptions mutate the table (the
/// two engines' frozen tables must also agree with each other), and after
/// a hot reload to a deliberately nasty nested table (default route,
/// shadowing /24, host route) against a dynamic-registry oracle kept on
/// the side. The snapshot's batch API must agree with its scalar one.
#[test]
fn frozen_snapshot_matches_dynamic_classification() {
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

    fn nasty_table() -> EiaRegistry {
        let mut r = EiaRegistry::new(3);
        r.preload(PeerId(2), "0.0.0.0/0".parse().unwrap());
        r.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
        r.preload(PeerId(2), "3.0.4.0/24".parse().unwrap());
        r.preload(PeerId(2), "3.32.0.0/11".parse().unwrap());
        r.preload(PeerId(1), "3.32.0.9/32".parse().unwrap());
        r
    }

    fn assert_frozen_oracle_parity<E: Engine>(engine: &mut E, sweep: &[u32]) {
        run_workload(engine);
        assert_eq!(engine.reload_eia(nasty_table()), 5);
        let oracle = nasty_table();
        let snap = engine.eia_snapshot();
        assert_eq!(snap.prefix_count(), 5);
        assert!(snap.approx_bytes() > 0);
        let mut batch = Vec::new();
        for observed in [PeerId(1), PeerId(2), PeerId(3)] {
            snap.classify_batch_into(observed, sweep, &mut batch);
            for (i, &bits) in sweep.iter().enumerate() {
                let addr = std::net::Ipv4Addr::from(bits);
                let want = oracle.classify(observed, addr);
                assert_eq!(snap.classify(observed, addr), want, "scalar at {addr}");
                assert_eq!(batch[i], want, "batch at {addr}");
            }
        }
    }

    // Adoption parity: after the same workload, both engines publish
    // frozen tables that classify identically.
    let mut single = analyzer(Mode::Enhanced);
    let mut sharded = concurrent(Mode::Enhanced);
    run_workload(&mut single);
    run_workload(&mut sharded);
    let (s1, s2) = (
        Engine::eia_snapshot(&single),
        Engine::eia_snapshot(&sharded),
    );
    assert_eq!(s1.prefix_count(), s2.prefix_count());
    for &bits in &sweep {
        let addr = std::net::Ipv4Addr::from(bits);
        assert_eq!(
            s1.expected_peer(addr),
            s2.expected_peer(addr),
            "adopted frozen tables diverge at {addr}"
        );
    }

    assert_frozen_oracle_parity(&mut analyzer(Mode::Enhanced), &sweep);
    assert_frozen_oracle_parity(&mut concurrent(Mode::Enhanced), &sweep);
}

/// Property: for any flow mix, the batch path returns exactly the verdict
/// sequence the per-flow path returns, on both engines, at every rung of
/// the degradation ladder — including when a mid-batch adoption republishes
/// the EIA table (the eia() registry here has adoption enabled, and the
/// tight source-index range makes repeat sightings, hence adoptions,
/// common). Path counters must agree too: the batch path's bulk counter
/// updates may not drift from the per-flow ones.
mod batch_parity {
    use super::*;
    use proptest::prelude::*;

    /// `kind` picks the source block (peer 1's, peer 2's — a spoof when
    /// arriving via peer 1 — or unassigned space); `i` indexes a small
    /// set of source hosts so adoption thresholds are actually crossed;
    /// `shape` varies the flow statistics across scan-probe-sized and
    /// NNS-normal/abnormal territory, and flips the HTTP/DNS app class.
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

    fn assert_batch_parity<E: Engine>(
        per_flow: &mut E,
        batched: &mut E,
        records: &[FlowRecord],
        effort: Effort,
    ) {
        let singles: Vec<Verdict> = records
            .iter()
            .map(|f| per_flow.process_with_effort(PeerId(1), f, effort))
            .collect();
        let batch = batched.process_batch_with_effort(PeerId(1), records, effort);
        assert_eq!(singles, batch, "verdict parity at {effort:?}");
        let (m1, m2) = (per_flow.metrics(), batched.metrics());
        assert_eq!(m1.flows, m2.flows);
        assert_eq!(m1.eia_match, m2.eia_match);
        assert_eq!(m1.eia_suspect, m2.eia_suspect);
        assert_eq!(m1.attacks(), m2.attacks());
        assert_eq!(
            per_flow.drain_alerts().len(),
            batched.drain_alerts().len(),
            "both paths alert on the same flows at {effort:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn batch_and_per_flow_verdicts_agree(
            mix in proptest::collection::vec((0u8..3, 0u32..6, 0u8..=255), 1..96)
        ) {
            let records: Vec<FlowRecord> = mix
                .iter()
                .map(|&(kind, i, shape)| flow_from(kind, i, shape))
                .collect();
            for effort in Effort::ALL {
                assert_batch_parity(
                    &mut analyzer(Mode::Enhanced),
                    &mut analyzer(Mode::Enhanced),
                    &records,
                    effort,
                );
                assert_batch_parity(
                    &mut concurrent(Mode::Enhanced),
                    &mut concurrent(Mode::Enhanced),
                    &records,
                    effort,
                );
            }
        }
    }
}
