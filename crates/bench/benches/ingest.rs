//! Throughput of the ingest path per degradation rung.
//!
//! Measures flows/second through `process_flow_batch_into` — the
//! batch path the daemon's pump drives — at each rung of
//! the load-shedding ladder: full EI, skip-NNS, and BI-only, over a
//! suspect-heavy mix (1 flow in 4 arrives at the wrong peer, the regime
//! where the rungs actually differ; a ≥99 %-legal mix takes the fast path
//! regardless of effort). Batches run in steps of 64, the pump's default
//! budget, each followed by the alert drain the pump's step ends with, so a
//! rung pays for the alerts it raises. Also measures the intake-ring
//! enqueue/dequeue overhead the daemon adds around the engine.
//!
//! Besides the criterion report, a manual timing pass writes per-rung
//! flows/s to `crates/bench/BENCH_ingest.json` so CI can diff the baseline
//! machine-readably, and next to them `datagram_round_ns`: what one
//! datagram costs on one thread from wire bytes to verdicts
//! (`push_payload_stamped` → `step`), at 1 and at 30 legal records, and at
//! 30 records alternating between two ingresses — which CI holds to 3× the
//! one-ingress datagram, the same run (14× when the intake cut a datagram
//! at every change of interface).
//!
//! The rungs run adoption-off so their mix stays
//! stationary; `full_adopting` is the full rung as deployed — default
//! adoption threshold, suspect sources that never repeat (every sighting
//! inserts into the sightings window and, once it is full, evicts),
//! probe-sized suspects that churn the scan tables and raise alerts — and
//! CI holds it to 0.65 × `full` (0.43 × with the unbounded sightings map;
//! 0.63–0.75 × while it drained alerts after every batch, which the pump
//! never did), so the gated headline cannot be measured with the expensive
//! stages switched off.
//!
//! Run with `cargo bench --bench ingest`; `-- --test` gives the CI smoke
//! run. Results are recorded in EXPERIMENTS.md.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, Effort, EiaRegistry, Engine, Mode,
    PeerId, Trainer, Verdict,
};
use infilter_ingest::{Batch, IngestMetrics, IngestPump, Intake, LadderConfig};
use infilter_netflow::{Datagram, FlowBatch, FlowRecord, MAX_RECORDS_PER_DATAGRAM};
use infilter_nns::NnsParams;
use infilter_store::{DiskStore, EiaStore};
use infilter_telemetry::trace::now_ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES: usize = 1024;
const RECORDS_PER_BATCH: usize = 30; // one full NetFlow v5 datagram

fn eia() -> EiaRegistry {
    // The engine takes its adoption policy from the analyzer config.
    let mut r = EiaRegistry::new(0);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

/// Adoption disabled (threshold 0) keeps the legal/suspect mix stationary
/// across iterations; `full_adopting` passes the default, 5.
fn config(adoption_threshold: u32) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .mode(Mode::Enhanced)
        .nns(NnsParams {
            d: 0,
            m1: 1,
            m2: 8,
            m3: 2,
        })
        .bits_per_feature(16)
        .adoption_threshold(adoption_threshold)
        .build()
        .expect("valid config")
}

fn training() -> Vec<FlowRecord> {
    (0..128u32)
        .map(|i| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + i),
            dst_addr: "96.1.0.20".parse().expect("static addr"),
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

fn engine(adoption_threshold: u32) -> ConcurrentAnalyzer {
    let analyzer = Trainer::new(config(adoption_threshold))
        .train_enhanced(eia(), &training())
        .expect("training succeeds");
    ConcurrentAnalyzer::new(analyzer, ConcurrentConfig::default())
}

/// Batches a pump step takes from the rings: `DaemonConfig`'s default
/// `batch_budget`.
const STEP: usize = 64;

/// One step the way the pump runs it (`work.chunks(STEP)` is the pump under
/// load): the engine call per batch, then one alert drain.
fn pump_step(
    engine: &ConcurrentAnalyzer,
    step: &[Batch],
    effort: Effort,
    verdicts: &mut Vec<Verdict>,
) {
    for batch in step {
        verdicts.clear();
        engine.process_flow_batch_into(batch.ingress, &batch.records, effort, verdicts);
        black_box(verdicts.len());
    }
    engine.drain_alerts_into(&mut |alert| {
        black_box(alert);
    });
}

/// `batches(seed)` with every suspect's source replaced by one never used
/// before (`next_source` counts up through unowned space) and every other
/// suspect cut down to a one-packet probe at a rotating host and port.
fn flood_batches(seed: u64, next_source: &mut u32) -> Vec<Batch> {
    let mut work = batches(seed);
    for batch in &mut work {
        let mut records = infilter_netflow::FlowBatch::new();
        for i in 0..batch.records.len() {
            let mut flow = batch.records.record(i);
            if i % 4 == 0 {
                *next_source += 1;
                flow.src_addr = (0x0900_0000 + *next_source).into();
                if i % 8 == 0 {
                    flow.packets = 1;
                    flow.octets = 404;
                    flow.dst_addr = (0x6002_0000 + *next_source % 97).into();
                    flow.dst_port = 1024 + (*next_source % 41) as u16;
                }
            }
            records.push_record(&flow);
        }
        batch.records = records;
    }
    work
}

/// Datagram-sized batches, 1 flow in 4 spoofed (suspect-path heavy).
fn batches(seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BATCHES)
        .map(|_| {
            let records = (0..RECORDS_PER_BATCH)
                .map(|i| {
                    let spoofed = i % 4 == 0;
                    let base = if spoofed { 0x0320_0000u32 } else { 0x0300_0000 };
                    FlowRecord {
                        src_addr: (base + rng.gen_range(0..0x0020_0000u32)).into(),
                        dst_addr: std::net::Ipv4Addr::from(0x6001_0000 + rng.gen_range(0..256u32)),
                        dst_port: if rng.gen_bool(0.7) { 80 } else { 53 },
                        protocol: if rng.gen_bool(0.7) { 6 } else { 17 },
                        packets: rng.gen_range(4..12),
                        octets: rng.gen_range(2_000..3_000),
                        first_ms: 0,
                        last_ms: 600,
                        input_if: 1,
                        ..FlowRecord::default()
                    }
                })
                .collect();
            Batch::new(PeerId(1), records)
        })
        .collect()
}

/// Nanoseconds per datagram for whole `push_payload_stamped` → `step`
/// rounds of 64 datagrams on one thread, best of `passes`: `records` legal
/// flows each, record `i` arriving through `ingress(i)`. The first pass
/// also warms the return ring, so the figure is the steady state.
fn datagram_round_ns(passes: usize, records: usize, ingress: impl Fn(usize) -> u16) -> f64 {
    const ROUNDS: usize = 256;
    const PER_ROUND: usize = 64;
    let shapes = training();
    let records: Vec<FlowRecord> = (0..records)
        .map(|i| {
            let input_if = ingress(i);
            let base = if input_if == 1 {
                0x0300_0000u32
            } else {
                0x0320_0000
            };
            FlowRecord {
                src_addr: (base + i as u32).into(),
                input_if,
                ..shapes[i]
            }
        })
        .collect();
    let payload = Datagram::new(0, 0, &records).encode();
    let intake = Arc::new(Intake::new(4, 512, Arc::new(IngestMetrics::default())));
    let mut pump = IngestPump::new(
        engine(0),
        Arc::clone(&intake),
        LadderConfig::default(),
        PER_ROUND,
        4096,
    );
    let mut scratch = FlowBatch::with_capacity(MAX_RECORDS_PER_DATAGRAM);
    let mut best = f64::INFINITY;
    for _ in 0..passes + 1 {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for _ in 0..PER_ROUND {
                let recv_start = now_ns();
                intake.push_payload_stamped(&payload, &mut scratch, recv_start, now_ns());
            }
            while pump.step() > 0 {}
        }
        best = best.min(start.elapsed().as_nanos() as f64 / (ROUNDS * PER_ROUND) as f64);
    }
    assert_eq!(intake.metrics().snapshot().shed_flows, 0);
    best
}

fn bench_ladder(c: &mut Criterion) {
    let work = batches(0x1f11);
    let total_flows = (BATCHES * RECORDS_PER_BATCH) as u64;
    let mut group = c.benchmark_group("ingest_ladder");
    group.throughput(Throughput::Elements(total_flows));
    group.sample_size(10);

    for effort in Effort::ALL {
        let engine = engine(0);
        group.bench_with_input(
            BenchmarkId::new("effort", effort.as_label()),
            &effort,
            |b, &effort| {
                let mut verdicts: Vec<Verdict> = Vec::new();
                b.iter_custom(|iters| {
                    (0..iters)
                        .map(|_| {
                            let start = Instant::now();
                            for step in work.chunks(STEP) {
                                pump_step(&engine, step, effort, &mut verdicts);
                            }
                            start.elapsed()
                        })
                        .sum()
                });
            },
        );
    }
    group.finish();
}

/// Manual per-rung timing pass feeding the machine-readable baseline at
/// `crates/bench/BENCH_ingest.json` (best of several passes; one pass in
/// the `--test` smoke run). Hand-formatted JSON keeps the bench free of
/// serialisation dependencies.
fn baseline_json(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let passes = if quick { 1 } else { 7 };
    let work = batches(0x1f11);
    let total_flows = (BATCHES * RECORDS_PER_BATCH) as u64;
    let mut entries = Vec::new();
    for effort in Effort::ALL {
        let engine = engine(0);
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut best = f64::INFINITY;
        for _ in 0..passes {
            let start = Instant::now();
            for step in work.chunks(STEP) {
                pump_step(&engine, step, effort, &mut verdicts);
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        let flows_per_sec = total_flows as f64 / best;
        entries.push(format!(
            "    \"{}\": {:.0}",
            effort.as_label(),
            flows_per_sec
        ));
    }
    // The full rung again with the durable EIA store attached, driven the
    // way the daemon's pump drives it: drain adoption events too after every
    // step and append any to disk. Adoption stays disabled, so this
    // measures the steady-state wiring cost on the hot path — the CI gate
    // holds it within a few percent of the bare full rung.
    {
        let dir = std::env::temp_dir().join(format!("infilter-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = engine(0);
        let mut store = DiskStore::open(&dir).expect("open bench store");
        let mut events = Vec::new();
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut best = f64::INFINITY;
        for _ in 0..passes {
            let start = Instant::now();
            for step in work.chunks(STEP) {
                pump_step(&engine, step, Effort::Full, &mut verdicts);
                events.clear();
                Engine::adoption_events(&mut engine, &mut events);
                if !events.is_empty() {
                    store.append(&events).expect("append");
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        entries.push(format!(
            "    \"full_store\": {:.0}",
            total_flows as f64 / best
        ));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The full rung as deployed; see the module docs. A fresh flood per
    // pass (built outside the clock), so no source ever repeats and
    // nothing is adopted; untimed passes first fill the 65 536-candidate
    // sightings window, so every timed sighting evicts.
    {
        let engine = engine(AnalyzerConfig::default().adoption_threshold);
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut pass = |flood: &[Batch]| {
            let start = Instant::now();
            for step in flood.chunks(STEP) {
                pump_step(&engine, step, Effort::Full, &mut verdicts);
            }
            start.elapsed().as_secs_f64()
        };
        let mut next_source = 0;
        while next_source < 70_000 {
            pass(&flood_batches(0x1f11, &mut next_source));
        }
        let best = (0..passes)
            .map(|_| pass(&flood_batches(0x1f11, &mut next_source)))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(engine.metrics().adoptions, 0, "a source repeated");
        entries.push(format!(
            "    \"full_adopting\": {:.0}",
            total_flows as f64 / best
        ));
    }
    let rounds = [
        ("records_1", datagram_round_ns(passes, 1, |_| 1)),
        ("records_30", datagram_round_ns(passes, 30, |_| 1)),
        (
            "records_30_alternating",
            datagram_round_ns(passes, 30, |i| 1 + (i % 2) as u16),
        ),
    ]
    .map(|(shape, ns)| format!("    \"{shape}\": {ns:.0}"));
    let json = format!(
        "{{\n  \"bench\": \"ingest_ladder\",\n  \"unit\": \"flows_per_sec\",\n  \
         \"flows_per_iter\": {},\n  \"suspect_share\": 0.25,\n  \"rungs\": {{\n{}\n  }},\n  \
         \"datagram_round_ns\": {{\n{}\n  }}\n}}\n",
        total_flows,
        entries.join(",\n"),
        rounds.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ingest.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

fn bench_intake_ring(c: &mut Criterion) {
    let work = batches(0x2f22);
    let total_flows = (BATCHES * RECORDS_PER_BATCH) as u64;
    let mut group = c.benchmark_group("ingest_ring");
    group.throughput(Throughput::Elements(total_flows));
    group.sample_size(10);

    let intake = Arc::new(Intake::new(
        4,
        BATCHES + 1,
        Arc::new(IngestMetrics::default()),
    ));
    group.bench_function("push_pop", |b| {
        b.iter_custom(|iters| {
            let mut out = Vec::with_capacity(BATCHES);
            (0..iters)
                .map(|_| {
                    // Clone outside the timed region: duplicating a batch
                    // is three allocations and a 1.6 KB copy, which would
                    // otherwise dwarf the push/pop being measured.
                    let round: Vec<Batch> = work.clone();
                    let start = Instant::now();
                    for batch in round {
                        intake.push_batch(batch);
                    }
                    out.clear();
                    intake.pop_round(BATCHES, &mut out);
                    black_box(out.len());
                    start.elapsed()
                })
                .sum()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ladder, bench_intake_ring, baseline_json);
criterion_main!(benches);
