//! Proves the suspect-flow NNS hot path is allocation-free: a counting
//! global allocator wraps the system allocator, and after one warmup call
//! the encode + search of a suspect flow must perform zero heap
//! allocations. Later sections extend the proof to the whole pipeline with
//! telemetry on, the attack-shape sketches sampling every suspect, and the
//! batch path — with span tracing off and on — on the engine shape
//! `infilterd` deploys; the last ones to the traffic a spoofed flood is made
//! of: probe-sized suspects that churn the scan tables and raise alerts,
//! and, with adoption on, two million never-repeating sources through the
//! sightings window; and to an attacker who rotates what alerts are keyed
//! by, so that every flagged flow wants an alert of its own.
//!
//! This file intentionally holds a single `#[test]` — a second test running
//! concurrently in the same binary would allocate under the shared counter
//! and make the assertion flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use infilter_core::{ClusterModel, ThresholdPolicy};
use infilter_netflow::FlowRecord;
use infilter_nns::{BitVec, NnsParams};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn http_flow(i: u32) -> FlowRecord {
    FlowRecord {
        dst_port: 80,
        protocol: 6,
        packets: 10 + (i % 6),
        octets: 5000 + 200 * (i % 10),
        first_ms: 0,
        last_ms: 800 + 40 * (i % 7),
        ..FlowRecord::default()
    }
}

#[test]
fn suspect_path_encode_and_search_allocate_nothing_after_warmup() {
    let flows: Vec<FlowRecord> = (0..60).map(http_flow).collect();
    let model = ClusterModel::train(
        &flows,
        NnsParams {
            d: 0, // overridden per subcluster
            m1: 2,
            m2: 8,
            m3: 2,
        },
        ThresholdPolicy::default(),
        12,
        42,
    )
    .expect("training succeeds");
    let sub = model.iter().next().expect("one subcluster");

    // Warmup: the scratch buffer grows to the encoder's dimension once.
    let mut scratch = BitVec::zeros(0);
    let stats = http_flow(3).stats();
    sub.nn_distance_with(&stats, &mut scratch)
        .expect("training flow has a neighbour");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..200u32 {
        let stats = http_flow(i).stats();
        let d = sub.nn_distance_with(&stats, &mut scratch);
        assert!(d.is_some(), "training-shaped flow must find a neighbour");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "suspect-path encode+search allocated {} times over 200 flows",
        after - before
    );

    // The per-call allocating API really does allocate — the counter works.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let _ = sub.nn_distance(&stats);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "counter failed to observe an allocation");

    // --- Whole pipeline, telemetry on: a repeated forgiven suspect through
    // the per-flow entry (EIA mismatch → scan → NNS → histograms, counter
    // family, flight-recorder push) allocates nothing in steady state.
    // Adoption is disabled (threshold 0) so the sightings window is never
    // touched (the last sections turn it on); everything else reuses
    // warmed-up capacity.
    let mut eia = infilter_core::EiaRegistry::new(0);
    eia.preload(
        infilter_core::PeerId(1),
        "3.0.0.0/11".parse().expect("static prefix"),
    );
    eia.preload(
        infilter_core::PeerId(2),
        "3.32.0.0/11".parse().expect("static prefix"),
    );
    let analyzer = infilter_core::Trainer::new(
        infilter_core::AnalyzerConfig::builder()
            .mode(infilter_core::Mode::Enhanced)
            .nns(NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            })
            .bits_per_feature(12)
            .adoption_threshold(0)
            .build()
            .expect("valid config"),
    )
    .train_enhanced(eia, &flows)
    .expect("training succeeds");
    assert!(analyzer.telemetry().enabled(), "telemetry must be on");
    let suspect = FlowRecord {
        src_addr: "3.33.0.9".parse().expect("static addr"),
        ..http_flow(3)
    };
    // Warmup past the scan buffer and recorder capacity.
    for _ in 0..300u32 {
        assert!(analyzer
            .process(infilter_core::PeerId(1), &suspect)
            .is_forgiven());
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200u32 {
        assert!(analyzer
            .process(infilter_core::PeerId(1), &suspect)
            .is_forgiven());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "suspect pipeline with telemetry allocated {} times over 200 flows",
        after - before
    );

    // --- Sketches at full rate: `shape_sample_every = 1` feeds the
    // Count-Min, SpaceSaving and HLL attack-shape sketches on *every*
    // suspect instead of every 128th. All sketch storage is pre-sized at
    // construction and the per-peer shape row is created during warmup, so
    // the sampled suspect path must stay allocation-free — even across a
    // rotating set of distinct spoofed sources (new SpaceSaving keys evict
    // in place; new HLL keys only max a register).
    let mut eia = infilter_core::EiaRegistry::new(0);
    eia.preload(
        infilter_core::PeerId(1),
        "3.0.0.0/11".parse().expect("static prefix"),
    );
    eia.preload(
        infilter_core::PeerId(2),
        "3.32.0.0/11".parse().expect("static prefix"),
    );
    let shaped = infilter_core::Trainer::new(
        infilter_core::AnalyzerConfig::builder()
            .mode(infilter_core::Mode::Enhanced)
            .nns(NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            })
            .bits_per_feature(12)
            .adoption_threshold(0)
            .telemetry(infilter_core::TelemetryConfig {
                shape_sample_every: 1,
                ..infilter_core::TelemetryConfig::default()
            })
            .build()
            .expect("valid config"),
    )
    .train_enhanced(eia, &flows)
    .expect("training succeeds");
    let spoofed: Vec<FlowRecord> = (0..8u32)
        .map(|i| FlowRecord {
            src_addr: (0x0321_0009u32 + (i << 8)).into(),
            ..http_flow(i)
        })
        .collect();
    for round in 0..40u32 {
        let flow = &spoofed[(round % 8) as usize];
        assert!(shaped.process(infilter_core::PeerId(1), flow).is_forgiven());
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..200u32 {
        let flow = &spoofed[(round % 8) as usize];
        assert!(shaped.process(infilter_core::PeerId(1), flow).is_forgiven());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "suspect pipeline with every-flow sketches allocated {} times over 200 flows",
        after - before
    );
    let summary = shaped.telemetry().shape_summary();
    assert!(
        !summary.top_sources.is_empty(),
        "sketches must have observed the spoofed sources"
    );

    // --- Batch path, on the shape `bootstrap_with_store` deploys: four
    // shards, default 1-in-64 latency sampling, telemetry on (adoption off,
    // as above). Suspect-heavy batches through `process_flow_batch_into`
    // (frozen-LPM pass, suspect analysis with sampled telemetry) allocate
    // nothing once the EIA-verdict scratch, NNS memo and verdict vector
    // have warmed up.
    let engine = infilter_core::ConcurrentAnalyzer::new(
        analyzer,
        infilter_core::ConcurrentConfig {
            shards: 4,
            ..infilter_core::ConcurrentConfig::default()
        },
    );
    let mut mix = infilter_netflow::FlowBatch::new();
    for i in 0..32u32 {
        mix.push_record(&if i % 4 == 0 {
            suspect
        } else {
            FlowRecord {
                src_addr: (0x0300_0000u32 + i).into(),
                ..http_flow(i)
            }
        });
    }
    let mut verdicts: Vec<infilter_core::Verdict> = Vec::new();
    let run_batch = |verdicts: &mut Vec<infilter_core::Verdict>| {
        verdicts.clear();
        engine.process_flow_batch_into(
            infilter_core::PeerId(1),
            &mix,
            infilter_core::Effort::Full,
            verdicts,
        );
        assert_eq!(verdicts.len(), mix.len());
        assert!(verdicts
            .iter()
            .all(|v| !matches!(v, infilter_core::Verdict::Attack(_))));
    };
    for _ in 0..20u32 {
        run_batch(&mut verdicts);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200u32 {
        run_batch(&mut verdicts);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "batch suspect path allocated {} times over 200 batches",
        after - before
    );
    // Note the loop above also proves the tracing-disabled case: the span
    // hooks (trace::start/end) were compiled into the batch path and ran
    // inactive for every call without allocating.

    // --- Tracing enabled: activating a trace around every batch adds span
    // capture to the same path. Spans land in a pre-allocated thread-local
    // buffer and each completed trace is a Copy value pushed into the
    // tracer's pre-allocated ring, so steady state must stay at zero.
    let tracer = infilter_telemetry::Tracer::new(1, 64);
    let traced_batch = |verdicts: &mut Vec<infilter_core::Verdict>| {
        let id = tracer.decide();
        infilter_telemetry::trace::begin(id);
        run_batch(verdicts);
        infilter_telemetry::trace::finish(tracer.collector());
    };
    // Warmup: first activation faults in the thread-local span buffer.
    for _ in 0..20u32 {
        traced_batch(&mut verdicts);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200u32 {
        traced_batch(&mut verdicts);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "traced batch path allocated {} times over 200 batches",
        after - before
    );
    assert!(
        tracer.last(4).iter().any(|t| t.spans().len() > 2),
        "traced batches must have captured engine spans"
    );

    // --- The traffic a spoofed flood is made of, adoption ON at the default
    // threshold (5). `probe(i)` is a probe-sized suspect (one packet, so it
    // enters the scan buffer) whose destination host and port rotate: every
    // push creates a counter triple and, past the 200-flow buffer, frees
    // one; one probe in eight joins a spray over 50 hosts of one port, so
    // network scans keep being flagged and alerts keep being queued — as do
    // the rest, which no subcluster vouches for. `fresh(i)` is an
    // NNS-forgiven suspect from a source never seen before: every sighting
    // inserts a candidate and, past the 65 536-candidate window, evicts one.
    // (No source repeats, so none is adopted; an adoption itself may
    // allocate in `FrozenLpm::insert` and is not part of this proof.)
    let mut eia = infilter_core::EiaRegistry::new(0);
    eia.preload(
        infilter_core::PeerId(1),
        "3.0.0.0/11".parse().expect("static prefix"),
    );
    let adopting = infilter_core::Trainer::new(
        infilter_core::AnalyzerConfig::builder()
            .mode(infilter_core::Mode::Enhanced)
            .nns(NnsParams {
                d: 0,
                m1: 2,
                m2: 8,
                m3: 2,
            })
            .bits_per_feature(12)
            .build()
            .expect("valid config"),
    )
    .train_enhanced(eia, &flows)
    .expect("training succeeds");
    assert_eq!(adopting.config().adoption_threshold, 5);
    let probe = |i: u32| FlowRecord {
        src_addr: (0x0900_0000u32 + (i & 0xffff)).into(),
        dst_addr: if i.is_multiple_of(8) {
            (0x6002_0000u32 + (i / 8) % 50).into()
        } else {
            (0x6001_0000u32 + i % 64).into()
        },
        dst_port: if i.is_multiple_of(8) {
            1434
        } else {
            1000 + (i % 37) as u16
        },
        protocol: 17,
        input_if: 1,
        packets: 1,
        octets: 404,
        ..FlowRecord::default()
    };
    let fresh = |i: u32| FlowRecord {
        src_addr: (0x0a00_0000u32 + i).into(),
        ..http_flow(i)
    };
    let mut alerts = 0u64;

    // Per flow. Warm-up allocates the sightings window (first sighting)
    // and grows the alert queue to what one drain interval needs.
    let per_flow = |range: std::ops::Range<u32>, alerts: &mut u64| {
        for i in range {
            assert!(adopting
                .process(infilter_core::PeerId(1), &probe(i))
                .is_attack());
            assert!(adopting
                .process(infilter_core::PeerId(1), &fresh(i))
                .is_forgiven());
            if i % 64 == 63 {
                adopting.drain_alerts_into(&mut |a| *alerts += u64::from(a.count));
            }
        }
    };
    per_flow(0..1_024, &mut alerts);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    per_flow(1_024..2_000_000, &mut alerts);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "a 2 M-source flood allocated {} times after the first sighting",
        after - before
    );
    assert_eq!(alerts, 2_000_000, "every probe in one alert, all drained");
    let page = adopting.prometheus_text();
    assert!(
        page.contains("\ninfilter_sightings_entries 65536\n")
            && page.contains("\ninfilter_sightings_evicted_total 1934464\n")
            && page.contains("\ninfilter_adoptions_total 0\n"),
        "the window must be full and turning over:\n{page}"
    );

    // Batched, on the four-shard shape, tracing off and then on; every
    // round drains the alerts it raised through the shard-queue merge.
    let engine = infilter_core::ConcurrentAnalyzer::new(
        adopting,
        infilter_core::ConcurrentConfig {
            shards: 4,
            ..infilter_core::ConcurrentConfig::default()
        },
    );
    let mut next = 2_000_000u32;
    let mut flood_round = |verdicts: &mut Vec<infilter_core::Verdict>, alerts: &mut u64| {
        mix.clear();
        for _ in 0..10 {
            mix.push_record(&probe(next));
            mix.push_record(&fresh(next));
            mix.push_record(&FlowRecord {
                src_addr: (0x0300_0000u32 + next % 512).into(),
                ..http_flow(next)
            });
            next += 1;
        }
        verdicts.clear();
        engine.process_flow_batch_into(
            infilter_core::PeerId(1),
            &mix,
            infilter_core::Effort::Full,
            verdicts,
        );
        assert!(verdicts
            .chunks(3)
            .all(|v| { v[0].is_attack() && v[1].is_forgiven() && v[2].is_legal() }));
        engine.drain_alerts_into(&mut |a| *alerts += u64::from(a.count));
    };
    alerts = 0;
    for _ in 0..200u32 {
        flood_round(&mut verdicts, &mut alerts);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000u32 {
        flood_round(&mut verdicts, &mut alerts);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "batched flood allocated {} times over 2000 batches",
        after - before
    );
    let mut traced_round = |verdicts: &mut Vec<infilter_core::Verdict>, alerts: &mut u64| {
        let id = tracer.decide();
        infilter_telemetry::trace::begin(id);
        flood_round(verdicts, alerts);
        infilter_telemetry::trace::finish(tracer.collector());
    };
    for _ in 0..20u32 {
        traced_round(&mut verdicts, &mut alerts);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000u32 {
        traced_round(&mut verdicts, &mut alerts);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "traced batched flood allocated {} times over 2000 batches",
        after - before
    );
    assert_eq!(
        alerts,
        10 * 4_220,
        "every probe in one alert, merged and drained"
    );

    // --- Hostile keys: 20 000 flagged flows between two drains, each wanting
    // a key of its own. First NNS anomalies (a service nothing was trained
    // on, too many packets for a probe) whose destination host changes on
    // every flow; then probes whose port moves on to a fresh set of eight
    // every 400 flows, each port sprayed over enough hosts to be flagged a
    // network scan, the hosts changing too. Through two ingresses, on one
    // shard and on four, tracing off and on. A shard keys 256 alerts and
    // folds the rest into one aggregate per (ingress, stage kind): a drain
    // hands over at most 256 + 4 × 2 a shard, they count every attack
    // verdict, each was journalled once, and once both sides of every
    // shard's queue swap have grown to that bound nothing allocates.
    let hostile = |i: u32, scan: bool| FlowRecord {
        src_addr: (0x0900_0000u32 + (i & 0xffff)).into(),
        dst_addr: (0x6003_0000u32 + i % 50_000).into(),
        dst_port: if scan {
            (2_000 + i % 8 + 8 * (i / 400)) as u16
        } else {
            21
        },
        protocol: if scan { 17 } else { 6 },
        packets: if scan { 1 } else { 1_000 },
        octets: 40_000,
        ..FlowRecord::default()
    };
    let hostile_engine = |shards: usize| {
        let mut eia = infilter_core::EiaRegistry::new(0);
        eia.preload(
            infilter_core::PeerId(1),
            "3.0.0.0/11".parse().expect("static prefix"),
        );
        let trained = infilter_core::Trainer::new(
            infilter_core::AnalyzerConfig::builder()
                .mode(infilter_core::Mode::Enhanced)
                .nns(NnsParams {
                    d: 0,
                    m1: 2,
                    m2: 8,
                    m3: 2,
                })
                .bits_per_feature(12)
                .build()
                .expect("valid config"),
        )
        .train_enhanced(eia, &flows)
        .expect("training succeeds");
        let ccfg = infilter_core::ConcurrentConfig {
            shards,
            ..infilter_core::ConcurrentConfig::default()
        };
        infilter_core::ConcurrentAnalyzer::new(trained, ccfg)
    };
    for shards in [1usize, 4] {
        let engine = hostile_engine(shards);
        let bound = shards * (256 + 4 * 2);
        // One drain interval: 500 batches of 40, then the drain.
        let mut interval = |scan: bool, traced: bool| -> (usize, u64) {
            for b in 0..500u32 {
                mix.clear();
                for i in 0..40 {
                    mix.push_record(&hostile(b * 40 + i, scan));
                }
                verdicts.clear();
                let ingress = infilter_core::PeerId(1 + (b % 2) as u16);
                if traced {
                    infilter_telemetry::trace::begin(tracer.decide());
                }
                engine.process_flow_batch_into(
                    ingress,
                    &mix,
                    infilter_core::Effort::Full,
                    &mut verdicts,
                );
                if traced {
                    infilter_telemetry::trace::finish(tracer.collector());
                }
                assert!(verdicts.iter().all(|v| v.is_attack()));
            }
            let (mut messages, mut flagged) = (0, 0);
            engine.drain_alerts_into(&mut |a| {
                messages += 1;
                flagged += u64::from(a.count);
            });
            (messages, flagged)
        };
        for scan in [false, true] {
            // Two intervals grow both queues of every shard's swap.
            interval(scan, false);
            interval(scan, true);
            let journalled = engine.telemetry().journal().recorded();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let (plain, plain_flows) = interval(scan, false);
            let (traced, traced_flows) = interval(scan, true);
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "{shards} shard(s), scan {scan}: 40 000 key-rotating attack flows allocated"
            );
            for messages in [plain, traced] {
                assert!(
                    messages > 256 && messages <= bound,
                    "{shards} shard(s), scan {scan}: a drain of {messages} alerts (bound {bound})"
                );
            }
            assert_eq!((plain_flows, traced_flows), (20_000, 20_000));
            assert_eq!(
                engine.telemetry().journal().recorded() - journalled,
                (plain + traced) as u64,
                "one journal record per alert message"
            );
        }
        let m = engine.metrics();
        assert_eq!(m.attacks(), 8 * 20_000);
        assert!(
            m.nns_attacks >= 4 * 20_000 && m.scan_attacks > 20_000,
            "{m:?}"
        );
    }
}
