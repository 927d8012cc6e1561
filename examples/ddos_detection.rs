//! DDoS detection: a TFN2K flood against one victim, run through the full
//! §6 testbed, with per-stage accounting of how the flood was caught.
//!
//! Run with `cargo run --release --example ddos_detection`.

use infilter::core::TracebackReport;
use infilter::experiments::{AttackPlacement, Testbed, TestbedConfig};

fn main() {
    // The standard testbed at 8 % attack volume, single ingress under
    // attack — TFN2K is the volumetric component of the attack mix.
    let cfg = TestbedConfig {
        attack_volume_pct: 8.0,
        placement: AttackPlacement::SinglePeer,
        normal_flows_per_peer: 1200,
        training_flows: 1000,
        seed: 99,
        ..TestbedConfig::default()
    };
    let bed = Testbed::new(cfg);
    let outcome = bed.run();

    println!("attack instances launched : {}", outcome.attack_instances);
    println!(
        "detected                  : {} ({:.1}%)",
        outcome.attacks_detected,
        outcome.detection_rate() * 100.0
    );
    println!(
        "false positives           : {} of {} normal flows ({:.2}%)",
        outcome.false_positives,
        outcome.normal_flows,
        outcome.false_positive_rate() * 100.0
    );
    println!(
        "mean detection latency    : {:.0} ms after attack start",
        outcome.mean_detection_latency_ms
    );

    println!("\nper attack kind:");
    for (kind, k) in &outcome.per_kind {
        let mark = if k.detected == k.launched {
            "ok  "
        } else {
            "MISS"
        };
        println!("  [{mark}] {kind:<14} {}/{}", k.detected, k.launched);
    }

    let m = &outcome.metrics;
    println!("\nhow the pipeline split the load:");
    println!(
        "  EIA fast path   : {} flows ({:?}/flow)",
        m.eia_match,
        m.fast_path.mean()
    );
    println!(
        "  suspects        : {} flows ({:?}/flow)",
        m.eia_suspect,
        m.suspect_path.mean()
    );
    println!("  scan detections : {}", m.scan_attacks);
    println!("  NNS detections  : {}", m.nns_attacks);
    println!("  forgiven        : {}", m.forgiven);

    // Traceback: re-run the analysis to collect the alerts and attribute
    // them to ingress points (every alert names its Peer AS / BR).
    let analyzer = bed.train();
    for lf in bed.generate_workload() {
        analyzer.process(lf.peer, &lf.record);
    }
    let report = TracebackReport::from_alerts(&analyzer.drain_alerts());
    println!("\ntraceback — attack activity per ingress:");
    print!("{}", report.render());
    assert_eq!(
        report.hottest_ingress(),
        Some(infilter::core::PeerId(1)),
        "all attacks entered via Peer AS1 in this scenario"
    );

    let tfn2k = outcome
        .per_kind
        .get("tfn2k")
        .expect("tfn2k is always in the attack mix");
    assert_eq!(
        tfn2k.detected, tfn2k.launched,
        "the volumetric flood must always be caught"
    );
}
