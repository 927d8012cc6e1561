//! End-to-end integration: traffic generation → Dagflow replay → NetFlow
//! wire format → collector → flow store → Enhanced InFilter analysis.

use infilter::core::{AnalyzerConfig, EiaRegistry, PeerId, Trainer};
use infilter::dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig};
use infilter::flowtools::{CollectedFlow, Collector, FlowStore, GroupField, Report};
use infilter::net::Prefix;
use infilter::nns::NnsParams;
use infilter::traffic::{AttackKind, NormalProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_analyzer_config() -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .nns(NnsParams {
            d: 0,
            m1: 2,
            m2: 8,
            m3: 2,
        })
        .bits_per_feature(16)
        .build()
        .expect("valid config")
}

#[test]
fn full_wire_path_detects_spoofed_worm_and_passes_legit_traffic() {
    let target_prefix: Prefix = "96.1.0.0/16".parse().expect("static prefix");
    let eia_blocks = eia_table(10, 100);
    let mut eia = EiaRegistry::new(3);
    for (i, blocks) in eia_blocks.iter().enumerate() {
        for b in blocks {
            eia.preload(PeerId(i as u16 + 1), b.prefix());
        }
    }

    // Train on a normal trace spanning the whole address plan.
    let mut rng = StdRng::seed_from_u64(5);
    let training_trace = NormalProfile::default().generate(&mut rng, 500, 60_000);
    let trainer_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks.iter().flatten().copied()),
        target_prefix,
        export_port: 9000,
        input_if: 0,
        src_as: 0,
    });
    let analyzer = Trainer::new(small_analyzer_config())
        .train_enhanced(eia, &trainer_flow.replay_records(&training_trace, 0))
        .expect("training succeeds");

    // Legit traffic from peer 3's own space, via the wire.
    let mut legit_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks[2].iter().copied()),
        target_prefix,
        export_port: 9003,
        input_if: 3,
        src_as: 3,
    });
    // Spoofed worm entering peer 1 with sources from everyone else's space.
    let mut attack_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks.iter().skip(1).flatten().copied()),
        target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });

    let legit_trace = NormalProfile::default().generate(&mut rng, 300, 60_000);
    let worm = AttackKind::Slammer.generate(&mut rng, 2048);

    let mut collector = Collector::new();
    let mut stream: Vec<CollectedFlow> = Vec::new();
    for (port, dg) in legit_flow
        .replay_datagrams(&legit_trace, 0)
        .into_iter()
        .chain(attack_flow.replay_datagrams(&worm.trace, 5_000))
    {
        stream.extend(
            collector
                .ingest(port, &dg.encode())
                .expect("valid datagrams"),
        );
    }
    assert_eq!(
        collector.stats(9003).expect("legit port seen").lost_flows,
        0
    );

    // Persist and reload through the binary flow store before analysis.
    let mut buf = Vec::new();
    FlowStore::write(&mut buf, &stream).expect("in-memory write");
    let stream = FlowStore::read(&buf[..]).expect("store round-trips");

    let mut legit_flagged = 0;
    let mut worm_flagged = 0;
    for cf in &stream {
        let verdict = analyzer.process(PeerId(cf.record.input_if), &cf.record);
        match cf.export_port {
            9003 if verdict.is_attack() => legit_flagged += 1,
            9001 if verdict.is_attack() => worm_flagged += 1,
            _ => {}
        }
    }
    assert_eq!(
        legit_flagged, 0,
        "legit traffic from its own space must pass"
    );
    assert!(worm_flagged > 0, "the spoofed worm must be flagged");
    let alerts = analyzer.drain_alerts();
    assert!(!alerts.is_empty(), "attacks must produce IDMEF alerts");
    // An alert stands for every flow flagged against its target: together
    // they count the attack verdicts, in far fewer messages.
    let flagged: u64 = alerts.iter().map(|a| u64::from(a.count)).sum();
    assert_eq!(flagged, analyzer.metrics().attacks());
    assert!(alerts.len() < worm_flagged, "{} alerts", alerts.len());
    // Every alert names the worm's ingress and is well-formed XML-ish.
    for alert in &alerts {
        assert_eq!(alert.ingress, PeerId(1));
        let xml = alert.to_xml();
        assert!(xml.contains("<idmef:Alert"));
        assert!(xml.contains("</idmef:IDMEF-Message>"));
    }

    // flow-report over the same stream groups by export port.
    let report = Report::generate(&stream, &[GroupField::ExportPort]);
    assert_eq!(report.rows().len(), 2);
}

#[test]
fn basic_and_enhanced_modes_agree_on_clean_traffic() {
    let eia_blocks = eia_table(4, 100);
    let make_eia = || {
        let mut eia = EiaRegistry::new(3);
        for (i, blocks) in eia_blocks.iter().enumerate() {
            for b in blocks {
                eia.preload(PeerId(i as u16 + 1), b.prefix());
            }
        }
        eia
    };
    let mut rng = StdRng::seed_from_u64(9);
    let trace = NormalProfile::default().generate(&mut rng, 400, 60_000);
    let dagflow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks[0].iter().copied()),
        target_prefix: "96.1.0.0/16".parse().expect("static prefix"),
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    let records = dagflow.replay_records(&trace, 0);

    let trainer = Trainer::new(small_analyzer_config());
    let bi = trainer.train_basic(make_eia());
    let ei = trainer
        .train_enhanced(make_eia(), &records)
        .expect("training succeeds");
    for r in &records {
        assert!(bi.process(PeerId(1), r).is_legal());
        assert!(ei.process(PeerId(1), r).is_legal());
    }
    assert_eq!(bi.metrics().attacks(), 0);
    assert_eq!(ei.metrics().attacks(), 0);
}
