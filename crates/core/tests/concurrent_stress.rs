//! Stress tests for [`ConcurrentAnalyzer`]: heavy multi-thread load must
//! account every flow exactly, and the EIA table must stay the one its
//! reloads and adoptions add up to. (Verdict correctness is
//! `engine_contract.rs`'s job.)

use std::sync::mpsc;

use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, Effort, EiaRegistry, IdmefAlert, Mode,
    PeerId, Trainer, Verdict,
};
use infilter_netflow::{FlowBatch, FlowRecord};
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

/// `Σ count`: the flows a drain's alerts stand for.
fn flows_alerted(alerts: &[IdmefAlert]) -> u64 {
    alerts.iter().map(|a| u64::from(a.count)).sum()
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
    assert_eq!(engine.shard_suspects().iter().sum::<u64>(), m.eia_suspect);
    assert_eq!(telemetry.suspect_path_latency().count(), m.eia_suspect);

    // Every attack has the one key (peer 1, EIA stage, expected at peer 2),
    // so each shard drains one alert, and together they count every flow.
    let alerts = engine.drain_alerts();
    let shards = ConcurrentConfig::default().shards;
    assert!(alerts.len() <= shards, "{} alerts", alerts.len());
    assert_eq!(flows_alerted(&alerts), attacks);
    assert_eq!(telemetry.journal().recorded(), alerts.len() as u64);
    assert!(
        alerts.windows(2).all(|w| w[0].message_id < w[1].message_id),
        "alert ids must be unique and drained in order"
    );
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
    assert_eq!(flows_alerted(&engine.drain_alerts()), attacks);

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
    assert_eq!(engine.shard_suspects().iter().sum::<u64>(), m.eia_suspect);
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

/// `/reload` racing in-flight batches and in-place adoption patches — the
/// lock discipline of the one EIA table, sampled: four threads classify
/// (two per flow, two batched; one flow in 16 a re-homed source, two to a
/// /24, so they adopt as well) while a fifth drives 300 adoptions and a
/// sixth reloads twice, cued a third and two thirds of the way through
/// them. It must terminate, account every flow, and leave published
/// exactly the last reloaded table plus the adoptions `adoption_events`
/// still drains: a reload replaces the ledger with the table, so what was
/// adopted before it is gone from both.
#[test]
fn reloads_race_adoptions_and_in_flight_batches() {
    const FLOWS: u32 = 12_800;
    const BATCH: u32 = 64;
    const DRIVEN: u32 = 300;
    const AFTER: u32 = 20;

    let engine = ConcurrentAnalyzer::new(
        Trainer::new(tiny_config(Mode::Enhanced))
            .train_enhanced(eia(), &training())
            .expect("training succeeds"),
        ConcurrentConfig::default(),
    );
    // What a reload swaps in: the boot table plus a prefix to tell it by.
    let reloaded = |marker: &str| {
        let mut r = eia();
        r.preload(PeerId(2), marker.parse().expect("static prefix"));
        r
    };
    // Shaped like a training flow, so every EIA suspect is NNS-cleared.
    let trained = training()[0];
    let flow = |src: u32| FlowRecord {
        src_addr: src.into(),
        ..trained
    };
    let classified = |t: u32, i: u32| {
        flow(if i.is_multiple_of(16) {
            0x0320_0000 + (t * FLOWS + i) * 8
        } else {
            0x0300_0000 + i
        })
    };

    let (cue, cued) = mpsc::channel();
    let (reloading, reloads_done) = mpsc::channel();
    std::thread::scope(|s| {
        let engine = &engine;
        for t in 0..2 {
            s.spawn(move || {
                for i in 0..FLOWS {
                    engine.process(PeerId(1), &classified(t, i));
                }
            });
        }
        for t in 2..4 {
            s.spawn(move || {
                let mut batch = FlowBatch::new();
                let mut verdicts = Vec::new();
                for first in (0..FLOWS).step_by(BATCH as usize) {
                    batch.clear();
                    for i in first..first + BATCH {
                        batch.push_record(&classified(t, i));
                    }
                    engine.process_flow_batch_into(PeerId(1), &batch, Effort::Full, &mut verdicts);
                }
                assert_eq!(verdicts.len(), FLOWS as usize);
            });
        }
        s.spawn(move || {
            // Each /24 is this thread's alone: two sightings adopt it,
            // unless a reload falls between them.
            let drive = |k: u32| {
                for _ in 0..2 {
                    let verdict = engine.process(PeerId(1), &flow(0x0330_0007 + (k << 8)));
                    assert!(verdict.is_forgiven());
                }
            };
            for k in 0..DRIVEN {
                drive(k);
                if k == DRIVEN / 3 || k == 2 * DRIVEN / 3 {
                    cue.send(()).expect("the reloader listens");
                }
            }
            // A few more once the table has stopped changing hands, so the
            // ledger that survives is known not to be empty.
            reloads_done.recv().expect("the reloader reports");
            (DRIVEN..DRIVEN + AFTER).for_each(drive);
        });
        s.spawn(move || {
            for marker in ["9.0.0.0/8", "10.0.0.0/8"] {
                cued.recv().expect("the driver cues twice");
                assert_eq!(engine.reload_eia(reloaded(marker)), 3);
            }
            reloading.send(()).expect("the driver waits");
        });
    });

    let m = engine.metrics();
    assert_eq!(m.flows, u64::from(4 * FLOWS + 2 * (DRIVEN + AFTER)));
    assert_eq!(m.flows, m.eia_match + m.eia_suspect);
    assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);

    let mut events = Vec::new();
    engine.adoption_events(&mut events);
    assert!(events.len() >= AFTER as usize);
    assert!(
        m.adoptions >= u64::from(DRIVEN / 3) + events.len() as u64,
        "the first reload alone discarded {} adoptions",
        DRIVEN / 3
    );
    let mut want = reloaded("10.0.0.0/8");
    for event in &events {
        want.apply_adoption(event.peer, event.prefix);
    }
    let (published, want) = (engine.eia_snapshot(), want.snapshot());
    assert!(published.iter().eq(want.iter()));
    assert!(*published == want);
}
