//! §6.4: per-flow processing latency of the Basic and Enhanced pipelines.
//!
//! The paper reports ~0.5 ms per flow for BI and 2–6 ms for EI on 2005
//! hardware; the *ratios* (suspects cost far more than fast-path flows,
//! and EI suspects pay the NNS search BI skips) are the reproducible
//! quantities.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use infilter_bench::analyzer_with_stream;
use infilter_core::{Mode, PeerId};
use infilter_netflow::FlowRecord;

/// Mixed workload: the realistic blend of fast-path and suspect flows.
fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_flow_mixed");
    for (name, mode) in [
        ("basic_infilter", Mode::Basic),
        ("enhanced_infilter", Mode::Enhanced),
    ] {
        let (analyzer, stream) = analyzer_with_stream(mode, 7);
        let mut idx = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let (peer, record) = &stream[idx % stream.len()];
                idx += 1;
                black_box(analyzer.process(*peer, record))
            })
        });
    }
    group.finish();
}

/// Suspect-only flows: every record arrives at the wrong ingress, forcing
/// the full analysis chain (the paper's latency numbers are dominated by
/// this path).
fn bench_suspect_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_flow_suspect");
    for (name, mode) in [
        ("basic_infilter", Mode::Basic),
        ("enhanced_infilter", Mode::Enhanced),
    ] {
        let (analyzer, _) = analyzer_with_stream(mode, 7);
        // Sources from peer AS2's space (13e = 15.160/11) arriving at peer 1.
        let suspects: Vec<FlowRecord> = infilter_bench::flow_batch(4096, 99)
            .into_iter()
            .map(|mut r| {
                r.src_addr = std::net::Ipv4Addr::new(15, 160, (r.src_port % 250) as u8 + 1, 77);
                r.input_if = 1;
                r
            })
            .collect();
        let mut idx = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let record = &suspects[idx % suspects.len()];
                idx += 1;
                black_box(analyzer.process(PeerId(1), record))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mixed, bench_suspect_path);
criterion_main!(benches);
