//! Throughput of [`ConcurrentAnalyzer`] at 1, 4 and 8 threads.
//!
//! Measures flows/second over a ≥99%-legal mix (the deployment regime:
//! almost every flow takes the EIA fast path): lock-free snapshot EIA
//! check plus sharded suspect state, which is expected to scale
//! near-linearly.
//!
//! Run with `cargo bench --bench concurrent`; `-- --test` gives the CI
//! smoke run. Results are recorded in EXPERIMENTS.md.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, EiaRegistry, Mode, PeerId, Trainer,
    Verdict,
};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STREAM_LEN: usize = 32_768;
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(0);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

/// Adoption disabled so the legal/suspect mix stays stationary across
/// benchmark iterations (adopted suspects would migrate to the fast path
/// and skew later samples).
fn config(mode: Mode) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .mode(mode)
        .nns(NnsParams {
            d: 0,
            m1: 1,
            m2: 8,
            m3: 2,
        })
        .bits_per_feature(16)
        .adoption_threshold(0)
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

fn train(mode: Mode) -> infilter_core::Analyzer {
    let trainer = Trainer::new(config(mode));
    match mode {
        Mode::Basic => trainer.train_basic(eia()),
        Mode::Enhanced => trainer
            .train_enhanced(eia(), &training())
            .expect("training succeeds"),
    }
}

/// ≥99%-legal flow mix: 1 in 128 flows arrives at the wrong peer.
fn stream(seed: u64) -> Vec<(PeerId, FlowRecord)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..STREAM_LEN)
        .map(|i| {
            let peer = PeerId(rng.gen_range(1..=2u16));
            let spoofed = i % 128 == 0;
            let own = peer.0 == 1;
            let base = if own != spoofed {
                0x0300_0000u32
            } else {
                0x0320_0000
            };
            let flow = FlowRecord {
                src_addr: (base + rng.gen_range(0..0x0020_0000u32)).into(),
                dst_addr: std::net::Ipv4Addr::from(0x6001_0000 + rng.gen_range(0..256u32)),
                dst_port: if rng.gen_bool(0.7) { 80 } else { 53 },
                protocol: if rng.gen_bool(0.7) { 6 } else { 17 },
                packets: rng.gen_range(4..12),
                octets: rng.gen_range(2_000..3_000),
                first_ms: 0,
                last_ms: 600,
                input_if: peer.0,
                ..FlowRecord::default()
            };
            (peer, flow)
        })
        .collect()
}

/// Runs the stream once, split across `threads`, returning the wall time.
fn timed_run<F>(threads: usize, flows: &[(PeerId, FlowRecord)], process: F) -> std::time::Duration
where
    F: Fn(PeerId, &FlowRecord) -> Verdict + Sync,
{
    let chunk = flows.len().div_ceil(threads);
    let start = Instant::now();
    std::thread::scope(|s| {
        for slice in flows.chunks(chunk) {
            let process = &process;
            s.spawn(move || {
                for (peer, flow) in slice {
                    black_box(process(*peer, flow));
                }
            });
        }
    });
    start.elapsed()
}

fn bench_mode(c: &mut Criterion, label: &str, mode: Mode) {
    let flows = stream(0x5eed);
    let mut group = c.benchmark_group(format!("concurrent_{label}"));
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.sample_size(10);

    for &threads in &THREAD_COUNTS {
        let sharded = ConcurrentAnalyzer::new(train(mode), ConcurrentConfig::default());
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    (0..iters)
                        .map(|_| timed_run(threads, &flows, |p, f| sharded.process(p, f)))
                        .sum()
                });
            },
        );
    }
    group.finish();
}

fn bench_bi(c: &mut Criterion) {
    bench_mode(c, "bi", Mode::Basic);
}

fn bench_ei(c: &mut Criterion) {
    bench_mode(c, "ei", Mode::Enhanced);
}

criterion_group!(benches, bench_bi, bench_ei);
criterion_main!(benches);
