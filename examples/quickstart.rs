//! Quickstart: build EIA sets, train Enhanced InFilter on normal traffic,
//! and classify a few flows.
//!
//! Run with `cargo run --release --example quickstart`.

use infilter::core::{AnalyzerConfig, EiaRegistry, PeerId, Trainer};
use infilter::netflow::FlowRecord;
use infilter::nns::NnsParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Expected IP Address sets: which sources are expected at which
    //    ingress (here: two peer ASes with one /11 each, as in Figure 2).
    let mut eia = EiaRegistry::new(3);
    eia.preload(PeerId(1), "3.0.0.0/11".parse()?);
    eia.preload(PeerId(2), "3.32.0.0/11".parse()?);

    // 2. A "normal cluster" of training flows — ordinary web sessions.
    let mut rng = StdRng::seed_from_u64(7);
    let normal: Vec<FlowRecord> = (0..400)
        .map(|_| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + rng.gen_range(0..4096)),
            dst_addr: "96.1.0.20".parse().expect("static address"),
            dst_port: 80,
            protocol: 6,
            packets: rng.gen_range(6..24),
            octets: rng.gen_range(3_000..16_000),
            first_ms: 0,
            last_ms: rng.gen_range(300..2_000),
            ..FlowRecord::default()
        })
        .collect();

    // 3. Train the Enhanced InFilter pipeline (EIA → Scan Analysis → NNS).
    let cfg = AnalyzerConfig::builder()
        .nns(NnsParams {
            d: 0,
            m1: 2,
            m2: 10,
            m3: 3,
        })
        .bits_per_feature(32)
        .build()?;
    let analyzer = Trainer::new(cfg).train_enhanced(eia, &normal)?;

    // 4. Classify flows.
    let legal = FlowRecord {
        src_addr: "3.0.5.5".parse()?,
        ..normal[0]
    };
    println!(
        "legal flow at peer 1      → {:?}",
        analyzer.process(PeerId(1), &legal)
    );

    // A normal-looking flow arriving through the wrong peer (a genuine
    // route change): suspected, then forgiven by the NNS stage.
    let rerouted = FlowRecord {
        src_addr: "3.33.0.5".parse()?,
        ..normal[1]
    };
    println!(
        "rerouted flow at peer 1   → {:?}",
        analyzer.process(PeerId(1), &rerouted)
    );

    // A spoofed flood: wrong ingress AND anomalous statistics.
    let spoofed = FlowRecord {
        src_addr: "3.40.0.9".parse()?,
        packets: 150_000,
        octets: 90_000_000,
        first_ms: 0,
        last_ms: 1_000,
        ..normal[0]
    };
    println!(
        "spoofed flood at peer 1   → {:?}",
        analyzer.process(PeerId(1), &spoofed)
    );

    // 5. The attack produced an IDMEF alert with traceback attribution.
    for alert in analyzer.drain_alerts() {
        println!("\nIDMEF alert:\n{}", alert.to_xml());
    }
    println!("metrics: {:?}", analyzer.metrics());
    Ok(())
}
