//! The paper's Figure 9 deployment, end to end over real sockets and
//! threads: per-BR UDP receivers feed a shared analysis module.

use std::sync::Arc;
use std::time::Duration;

use infilter::core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, PeerId, TracebackReport,
    Trainer,
};
use infilter::dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig};
use infilter::flowtools::{UdpExporter, UdpReceiver};
use infilter::net::Prefix;
use infilter::nns::NnsParams;
use infilter::traffic::{AttackKind, NormalProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn figure9_deployment_over_udp_and_threads() {
    let target_prefix: Prefix = "96.1.0.0/16".parse().expect("static prefix");
    let eia_blocks = eia_table(4, 100);
    let mut eia = EiaRegistry::new(3);
    for (i, blocks) in eia_blocks.iter().enumerate() {
        for b in blocks {
            eia.preload(PeerId(i as u16 + 1), b.prefix());
        }
    }

    // Train once, share across receiver threads.
    let mut rng = StdRng::seed_from_u64(23);
    let training_trace = NormalProfile::default().generate(&mut rng, 400, 60_000);
    let trainer_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks.iter().flatten().copied()),
        target_prefix,
        export_port: 9000,
        input_if: 0,
        src_as: 0,
    });
    let analyzer = Trainer::new(
        AnalyzerConfig::builder()
            .nns(NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            })
            .bits_per_feature(16)
            .build()
            .expect("valid config"),
    )
    .train_enhanced(eia, &trainer_flow.replay_records(&training_trace, 0))
    .expect("training succeeds");
    let shared = Arc::new(ConcurrentAnalyzer::new(
        analyzer,
        ConcurrentConfig::default(),
    ));

    // One UDP receiver per emulated BR, each on its own thread.
    let mut receiver_threads = Vec::new();
    let mut dest_addrs = Vec::new();
    for peer in 1u16..=2 {
        let mut rx = UdpReceiver::bind(0).expect("bind receiver");
        dest_addrs.push(rx.local_addr().expect("addr"));
        let shared = shared.clone();
        receiver_threads.push(std::thread::spawn(move || {
            let flows = rx.drain(Duration::from_millis(600)).expect("drain");
            let mut processed = 0usize;
            for cf in flows {
                shared.process(PeerId(peer), &cf.record);
                processed += 1;
            }
            processed
        }));
    }

    // BR1: normal traffic from its own space. BR2: a spoofed host scan.
    let tx = UdpExporter::new().expect("exporter");
    let mut normal_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks[0].iter().copied()),
        target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    let trace = NormalProfile::default().generate(&mut rng, 120, 30_000);
    for (_, dg) in normal_flow.replay_datagrams(&trace, 0) {
        tx.send(dest_addrs[0], &dg).expect("send normal");
    }
    let mut attack_flow = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia_blocks[0].iter().copied()), // foreign to BR2
        target_prefix,
        export_port: 9002,
        input_if: 2,
        src_as: 2,
    });
    let scan = AttackKind::HostScan.generate(&mut rng, 1024);
    for (_, dg) in attack_flow.replay_datagrams(&scan.trace, 0) {
        tx.send(dest_addrs[1], &dg).expect("send attack");
    }

    let processed: usize = receiver_threads
        .into_iter()
        .map(|h| h.join().expect("receiver thread"))
        .sum();
    assert_eq!(
        processed,
        120 + scan.trace.len(),
        "no datagrams lost on loopback"
    );

    let metrics = shared.metrics();
    assert_eq!(metrics.flows as usize, processed);
    assert!(metrics.attacks() > 0, "the spoofed scan must be flagged");

    // Traceback pins the activity on BR2.
    let alerts = shared.drain_alerts();
    let report = TracebackReport::from_alerts(&alerts);
    assert_eq!(report.hottest_ingress(), Some(PeerId(2)));
    // ...by the flows flagged there, not by how many alerts carried them.
    let br2 = report.ingress(PeerId(2)).expect("BR2 has activity");
    assert_eq!(br2.alerts, metrics.attacks());
    assert!(
        report.ingress(PeerId(1)).is_none(),
        "no alerts for clean BR1"
    );
}
