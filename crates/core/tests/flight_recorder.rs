//! The flight recorder must reproduce the *exact* verdict chain of a known
//! injected attack flow: deciding stage, scan counters at decision time,
//! NNS distance against its threshold, and the final verdict. The
//! per-flow entry records *every* suspect in full, whatever the latency
//! sampling stride.

use infilter_core::{
    Analyzer, AnalyzerConfig, AttackStage, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, Mode,
    PeerId, Trainer, Verdict,
};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(100);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

fn training() -> Vec<FlowRecord> {
    (0..40u32)
        .map(|i| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + i),
            dst_port: 80,
            protocol: 6,
            packets: 4 + i % 8,
            octets: 2_000 + 100 * (i % 10),
            first_ms: 0,
            last_ms: 500 + 20 * (i % 5),
            ..FlowRecord::default()
        })
        .collect()
}

fn enhanced() -> Analyzer {
    Trainer::new(
        AnalyzerConfig::builder()
            .mode(Mode::Enhanced)
            .nns(NnsParams {
                d: 0,
                m1: 1,
                m2: 6,
                m3: 2,
            })
            .bits_per_feature(8)
            .build()
            .expect("valid config"),
    )
    .train_enhanced(eia(), &training())
    .expect("training succeeds")
}

/// One spoofed host-scan probe: same target host, walking ports.
fn probe(port_step: u32) -> FlowRecord {
    FlowRecord {
        src_addr: std::net::Ipv4Addr::from(0x0320_0000 + port_step),
        dst_addr: "96.1.0.20".parse().expect("static addr"),
        dst_port: (10_000 + port_step) as u16,
        protocol: 6,
        packets: 1,
        octets: 40,
        first_ms: 0,
        last_ms: 1,
        ..FlowRecord::default()
    }
}

/// Drives probes until the scan stage takes over (earlier probes may be
/// NNS-flagged — their ports still count); returns that flow + verdict.
fn drive_host_scan(mut process: impl FnMut(&FlowRecord) -> Verdict) -> (FlowRecord, Verdict) {
    for step in 0..40u32 {
        let flow = probe(step);
        let verdict = process(&flow);
        if matches!(verdict, Verdict::Attack(AttackStage::HostScan { .. })) {
            return (flow, verdict);
        }
    }
    panic!("walking 40 ports of one host must flag a host scan");
}

/// Checks the newest recorder entries against the verdict the engine
/// actually returned for `flow`.
fn assert_chain_matches(
    flow: &FlowRecord,
    verdict: Verdict,
    decisions: &[infilter_core::FlowDecision],
) {
    let decision = decisions.first().expect("recorder holds the decision");
    assert_eq!(
        decision.verdict, verdict,
        "recorded verdict must be the returned one"
    );
    assert_eq!(decision.src_addr, flow.src_addr);
    assert_eq!(decision.dst_addr, flow.dst_addr);
    assert_eq!(decision.dst_port, flow.dst_port);
    assert_eq!(decision.ingress, PeerId(1));
    assert_eq!(
        decision.expected,
        Some(PeerId(2)),
        "EIA expected the spoofed source at peer 2"
    );
    match verdict {
        Verdict::Attack(AttackStage::HostScan {
            dst_addr,
            distinct_ports,
        }) => {
            assert_eq!(decision.dst_addr, dst_addr);
            assert_eq!(
                decision.scan_distinct_ports, distinct_ports as u32,
                "recorded scan counter must be the one that crossed the threshold"
            );
        }
        other => panic!("expected a HostScan verdict, got {other:?}"),
    }
    assert_eq!(
        decision.nns_distance,
        u32::MAX,
        "scan-flagged suspects never reach NNS"
    );

    // Every earlier probe is in the recorder too, as a suspect with the
    // port counter ratcheting up.
    let suspects: Vec<_> = decisions
        .iter()
        .filter(|d| d.verdict != Verdict::Legal)
        .collect();
    assert!(suspects.len() >= 2);
    assert!(
        suspects
            .windows(2)
            .all(|w| w[0].scan_distinct_ports >= w[1].scan_distinct_ports),
        "newest-first counters must be non-increasing: {suspects:?}"
    );
}

#[test]
fn recorder_reproduces_the_verdict_chain() {
    let engine = ConcurrentAnalyzer::new(
        enhanced(),
        ConcurrentConfig {
            shards: 4,
            ..ConcurrentConfig::default()
        },
    );
    let (flow, verdict) = drive_host_scan(|f| engine.process(PeerId(1), f));
    assert_chain_matches(&flow, verdict, &engine.explain_last(64));
}

/// An NNS-flagged suspect records the exact distance/threshold pair the
/// `NnsAnomaly` stage carries.
#[test]
fn recorder_captures_nns_distance_and_threshold() {
    let analyzer = enhanced();
    // UDP to an unmodelled service: no subcluster → NnsAnomaly with
    // distance MAX and threshold 0.
    let flow = FlowRecord {
        src_addr: "3.33.0.9".parse().expect("static addr"),
        dst_addr: "96.1.0.20".parse().expect("static addr"),
        dst_port: 9999,
        protocol: 17,
        packets: 3,
        octets: 1_200,
        first_ms: 0,
        last_ms: 100,
        ..FlowRecord::default()
    };
    let verdict = analyzer.process(PeerId(1), &flow);
    let Verdict::Attack(AttackStage::NnsAnomaly {
        distance,
        threshold,
        ..
    }) = verdict
    else {
        panic!("expected an NNS verdict, got {verdict:?}");
    };
    let decisions = analyzer.explain_last(1);
    assert_eq!(decisions[0].verdict, verdict);
    assert_eq!(decisions[0].nns_distance, distance);
    assert_eq!(decisions[0].nns_threshold, threshold);

    // A forgiven suspect (looks like training traffic) records a distance
    // at or below its subcluster threshold.
    let normal_looking = FlowRecord {
        src_addr: "3.33.0.10".parse().expect("static addr"),
        ..training()[0]
    };
    let verdict = analyzer.process(PeerId(1), &normal_looking);
    assert_eq!(verdict, Verdict::Forgiven);
    let decisions = analyzer.explain_last(1);
    assert_eq!(decisions[0].verdict, Verdict::Forgiven);
    assert!(
        decisions[0].nns_distance <= decisions[0].nns_threshold,
        "forgiven means distance {} within threshold {}",
        decisions[0].nns_distance,
        decisions[0].nns_threshold
    );
}
