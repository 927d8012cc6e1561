//! Stress tests for [`ConcurrentAnalyzer`]: heavy multi-thread load must
//! account every flow exactly. (Verdict correctness is
//! `engine_contract.rs`'s job.)

use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, Mode, PeerId, Trainer,
    Verdict,
};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;

const THREADS: u32 = 8;
const FLOWS_PER_THREAD: u32 = 10_000;

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(2);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

fn tiny_config(mode: Mode) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .mode(mode)
        .nns(NnsParams {
            d: 0,
            m1: 1,
            m2: 6,
            m3: 2,
        })
        .bits_per_feature(8)
        .adoption_threshold(2)
        .adoption_prefix_len(24)
        .build()
        .expect("valid config")
}

fn training() -> Vec<FlowRecord> {
    (0..40u32)
        .map(|i| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + i),
            dst_port: if i % 2 == 0 { 80 } else { 53 },
            protocol: if i % 2 == 0 { 6 } else { 17 },
            packets: 4 + i % 8,
            octets: 2_000 + 100 * (i % 10),
            first_ms: 0,
            last_ms: 500 + 20 * (i % 5),
            ..FlowRecord::default()
        })
        .collect()
}

/// 8 threads × 10k flows against Basic InFilter: verdicts depend only on
/// the (never-changing) EIA sets, so every count is exact no matter how
/// the threads interleave.
#[test]
fn stress_basic_exact_accounting() {
    let engine = ConcurrentAnalyzer::new(
        Trainer::new(tiny_config(Mode::Basic)).train_basic(eia()),
        ConcurrentConfig::default(),
    );

    let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                s.spawn(move || {
                    let (mut legal, mut attacks) = (0u64, 0u64);
                    for i in 0..FLOWS_PER_THREAD {
                        // Even flows from peer 1's own /11, odd flows
                        // spoofed from peer 2's space.
                        let src = if i % 2 == 0 {
                            0x0300_0000 + (t * FLOWS_PER_THREAD + i) % 0x0020_0000
                        } else {
                            0x0320_0000 + (t * FLOWS_PER_THREAD + i) % 0x0020_0000
                        };
                        let flow = FlowRecord {
                            src_addr: std::net::Ipv4Addr::from(src),
                            dst_addr: std::net::Ipv4Addr::from(0x6001_0000 + i % 512),
                            dst_port: (i % 1024) as u16,
                            ..FlowRecord::default()
                        };
                        match engine.process(PeerId(1), &flow) {
                            Verdict::Legal => legal += 1,
                            Verdict::Attack(_) => attacks += 1,
                            Verdict::Forgiven => panic!("BI never forgives"),
                        }
                    }
                    (legal, attacks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .collect()
    });

    let total = u64::from(THREADS * FLOWS_PER_THREAD);
    let legal: u64 = per_thread.iter().map(|(l, _)| l).sum();
    let attacks: u64 = per_thread.iter().map(|(_, a)| a).sum();
    assert_eq!(legal, total / 2);
    assert_eq!(attacks, total / 2);

    let m = engine.metrics();
    assert_eq!(m.flows, total);
    assert_eq!(m.flows, m.eia_match + m.eia_suspect);
    assert_eq!(m.eia_match, legal);
    assert_eq!(m.eia_suspect, attacks);
    assert_eq!(m.eia_attacks, attacks);
    assert_eq!((m.scan_attacks, m.nns_attacks, m.forgiven), (0, 0, 0));

    // Telemetry agrees with the exact counters: per-peer and per-shard
    // suspect counts each sum to eia_suspect, and the suspect-path latency
    // histogram saw every suspect exactly once.
    let telemetry = engine.telemetry();
    let peer_suspects: u64 = telemetry
        .peer_counters()
        .iter()
        .map(|(_, c)| c.suspects.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(peer_suspects, m.eia_suspect);
    assert_eq!(
        telemetry.shard_suspects().iter().sum::<u64>(),
        m.eia_suspect
    );
    assert_eq!(telemetry.suspect_path_latency().count(), m.eia_suspect);

    let alerts = engine.drain_alerts();
    assert_eq!(alerts.len() as u64, attacks, "one alert per attack verdict");
    let mut ids: Vec<u64> = alerts.iter().map(|a| a.message_id).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "alert ids must be unique");
    assert!(engine.drain_alerts().is_empty());
}

/// Enhanced mode under the same load: interleaving may shift *which* stage
/// flags a given suspect, but the accounting identities must hold exactly
/// once the threads quiesce.
#[test]
fn stress_enhanced_identities_hold() {
    let engine = ConcurrentAnalyzer::new(
        Trainer::new(tiny_config(Mode::Enhanced))
            .train_enhanced(eia(), &training())
            .expect("training succeeds"),
        ConcurrentConfig::default(),
    );

    let observed: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                s.spawn(move || {
                    let (mut legal, mut attacks, mut forgiven) = (0u64, 0u64, 0u64);
                    for i in 0..FLOWS_PER_THREAD {
                        let spoofed = i % 16 == 0;
                        let flow = FlowRecord {
                            src_addr: std::net::Ipv4Addr::from(if spoofed {
                                0x0320_0000 + (t * FLOWS_PER_THREAD + i)
                            } else {
                                0x0300_0000 + i % 0x0020_0000
                            }),
                            dst_addr: std::net::Ipv4Addr::from(0x6001_0000 + i % 64),
                            dst_port: if i % 2 == 0 { 80 } else { 53 },
                            protocol: if i % 2 == 0 { 6 } else { 17 },
                            packets: 4 + i % 8,
                            octets: 2_000 + 100 * (i % 10),
                            first_ms: 0,
                            last_ms: 500 + 20 * (i % 5),
                            ..FlowRecord::default()
                        };
                        match engine.process(PeerId(1), &flow) {
                            Verdict::Legal => legal += 1,
                            Verdict::Attack(_) => attacks += 1,
                            Verdict::Forgiven => forgiven += 1,
                        }
                    }
                    (legal, attacks, forgiven)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .collect()
    });

    let attacks: u64 = observed.iter().map(|(_, a, _)| a).sum();
    let forgiven: u64 = observed.iter().map(|(_, _, f)| f).sum();
    let m = engine.metrics();
    assert_eq!(m.flows, u64::from(THREADS * FLOWS_PER_THREAD));
    assert_eq!(m.flows, m.eia_match + m.eia_suspect);
    assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);
    assert_eq!(m.attacks(), attacks);
    assert_eq!(m.forgiven, forgiven);
    assert_eq!(m.eia_attacks, 0, "EI never flags at the EIA stage");
    assert_eq!(engine.drain_alerts().len() as u64, attacks);

    // Telemetry-vs-counter identities under full 8-thread contention: the
    // per-peer family partitions suspects into attacks + forgiven, and the
    // histograms saw exactly one sample per suspect.
    let telemetry = engine.telemetry();
    let peers = telemetry.peer_counters();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let (mut p_suspects, mut p_attacks, mut p_forgiven) = (0u64, 0u64, 0u64);
    for (_, cell) in &peers {
        p_suspects += load(&cell.suspects);
        p_attacks += load(&cell.attacks);
        p_forgiven += load(&cell.forgiven);
        assert_eq!(
            load(&cell.suspects),
            load(&cell.attacks) + load(&cell.forgiven),
            "per-peer partition must be exact"
        );
    }
    assert_eq!(p_suspects, m.eia_suspect);
    assert_eq!(p_attacks, m.attacks());
    assert_eq!(p_forgiven, m.forgiven);
    assert_eq!(
        telemetry.shard_suspects().iter().sum::<u64>(),
        m.eia_suspect
    );
    assert_eq!(telemetry.suspect_path_latency().count(), m.eia_suspect);
    assert_eq!(
        telemetry.scan_hosts_histogram().count(),
        telemetry.scan_ports_histogram().count()
    );
    // Every suspect either stopped at the scan stage or consulted NNS.
    assert_eq!(
        telemetry.nns_search_latency().count() + m.scan_attacks,
        m.eia_suspect
    );
    // The flight recorder holds real decisions, newest-first.
    let last = engine.explain_last(64);
    assert!(!last.is_empty());
    assert!(last.windows(2).all(|w| w[0].seq > w[1].seq));
}
