//! Worm outbreak: a spoofed Slammer-style sweep replayed through the full
//! NetFlow path — Dagflow → wire datagrams → collector → Enhanced
//! InFilter — ending in IDMEF alerts.
//!
//! This is the paper's marquee stealthy case: single-packet spoofed UDP
//! flows that signature IDSes without a Slammer rule would miss entirely.
//!
//! Run with `cargo run --release --example worm_outbreak`.

use infilter::core::{AnalyzerConfig, EiaRegistry, PeerId, Trainer};
use infilter::dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig};
use infilter::flowtools::Collector;
use infilter::netflow::FlowRecord;
use infilter::nns::NnsParams;
use infilter::traffic::{AttackKind, NormalProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target_prefix: infilter::net::Prefix = "96.1.0.0/16".parse()?;
    let eia_blocks = eia_table(10, 100);

    // EIA sets straight from Table 3.
    let mut eia = EiaRegistry::new(3);
    for (i, blocks) in eia_blocks.iter().enumerate() {
        for b in blocks {
            eia.preload(PeerId(i as u16 + 1), b.prefix());
        }
    }

    // Train on a normal trace replayed by a dedicated Dagflow instance.
    let mut rng = StdRng::seed_from_u64(11);
    let training_trace = NormalProfile::default().generate(&mut rng, 800, 120_000);
    let trainer_dagflow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks.iter().flatten().copied()),
        target_prefix,
        export_port: 9000,
        input_if: 0,
        src_as: 0,
    });
    let training = trainer_dagflow.replay_records(&training_trace, 0);
    let cfg = AnalyzerConfig::builder()
        .nns(NnsParams {
            d: 0,
            m1: 2,
            m2: 10,
            m3: 3,
        })
        .bits_per_feature(32)
        .build()?;
    let analyzer = Trainer::new(cfg).train_enhanced(eia, &training)?;

    // The worm enters via Peer AS1, spoofing sources from the other nine
    // peers' address space (§6.3.1's attack placement).
    let worm = AttackKind::Slammer.generate(&mut rng, 4096);
    println!(
        "launching {}: {} single-packet UDP flows to port 1434\n",
        worm.kind,
        worm.trace.len()
    );
    let mut attack_dagflow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks.iter().skip(1).flatten().copied()),
        target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });

    // Full wire path: NetFlow v5 datagrams → collector → analyzer.
    let mut collector = Collector::new();
    let mut flagged = 0usize;
    for (port, datagram) in attack_dagflow.replay_datagrams(&worm.trace, 10_000) {
        let flows = collector.ingest(port, &datagram.encode())?;
        for cf in flows {
            let record: FlowRecord = cf.record;
            let verdict = analyzer.process(PeerId(record.input_if), &record);
            if verdict.is_attack() {
                flagged += 1;
            }
        }
    }

    println!("flows flagged        : {flagged}/{}", worm.trace.len());
    println!("scan-analysis attacks: {}", analyzer.metrics().scan_attacks);
    println!("nns attacks          : {}", analyzer.metrics().nns_attacks);
    let alerts = analyzer.drain_alerts();
    let alerted: u64 = alerts.iter().map(|a| u64::from(a.count)).sum();
    println!(
        "IDMEF alerts emitted : {} for {alerted} flows",
        alerts.len()
    );
    if let Some(first) = alerts.first() {
        println!("\nfirst alert:\n{}", first.to_xml());
    }
    assert!(flagged > 0, "the worm must not slip through");
    Ok(())
}
