//! Lookup cost of the EIA substrate — dynamic binary trie vs the frozen
//! multi-bit-stride LPM — and the price of the frozen structure's two
//! write paths: a full compile and a single-prefix patch.
//!
//! Four contenders over the same synthetic peer table (see
//! [`infilter_bench::synthetic_peer_table`]) at 10k / 100k / 1M prefixes:
//!
//! * `trie` — [`PrefixTrie::lookup`], random probe order (the per-flow
//!   dynamic path).
//! * `walker` — [`TrieWalker`] over *sorted* probes, its best case and
//!   exactly what the batch phase A did before the frozen structure.
//! * `frozen` — [`FrozenLpm::lookup_bits`], random order (no sort needed).
//! * `frozen_batch` — [`FrozenLpm::lookup_values`] over the same probes in
//!   columns of [`COLUMN`] addresses: the call, and the column width, of
//!   the engine's phase A (`EiaSnapshot::classify_batch_into`).
//!
//! Besides the criterion report, a manual pass writes ns/lookup, the
//! frozen structure's bytes/prefix, the frozen-vs-walker speedup,
//! `batch_over_frozen` (`frozen_batch / frozen`, what walking a column by
//! level buys over the scalar walk), `frozen_batch_short` (the same call
//! fed [`FLUSHED_COLUMN`]-address columns, a timeout-flushed exporter's
//! datagrams, which must cost what the scalar walk costs), and per table
//! size `compile_ms` ([`FrozenLpm::compile`], what boot and reload pay)
//! and `insert_us` (median of 1 000 host-route [`FrozenLpm::insert`]s,
//! what an adoption pays) to `crates/bench/BENCH_lpm.json` so CI can gate
//! machine-readably (the acceptance bars: ≥ 3× over the walker and ≤ 32
//! bytes/prefix at 1M; at 100k a compile worth ≥ 100 inserts,
//! `batch_over_frozen` ≤ 0.9 and `frozen_batch_short` ≤ 1.1 × `frozen` —
//! ratios within one run, so they hold on any host).
//!
//! Run with `cargo bench --bench lpm`; `-- --test` gives the CI smoke
//! run. Results are recorded in EXPERIMENTS.md.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infilter_bench::synthetic_peer_table;
use infilter_core::PeerId;
use infilter_net::{FrozenLpm, Prefix, PrefixTrie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: &[usize] = &[10_000, 100_000, 1_000_000];
const PROBES: usize = 65_536;
const PEERS: u16 = 64;
/// Addresses per `frozen_batch` column: a full NetFlow v5 datagram.
const COLUMN: usize = 30;
/// Addresses per `frozen_batch_short` column: what a timeout-flushed
/// exporter sends, well under the lookup's own short-column cut-off.
const FLUSHED_COLUMN: usize = 2;
/// Host routes patched in per table for the `insert_us` figure.
const INSERTS: usize = 1_000;

struct Fixture {
    trie: PrefixTrie<PeerId>,
    lpm: FrozenLpm<PeerId>,
    /// Random probe order, as flows arrive.
    probes: Vec<u32>,
    /// The same probes sorted — the walker's amortised best case.
    sorted: Vec<u32>,
}

fn fixture(size: usize, seed: u64) -> Fixture {
    let trie: PrefixTrie<PeerId> = synthetic_peer_table(size, PEERS, seed)
        .into_iter()
        .map(|(peer, prefix)| (prefix, peer))
        .collect();
    let lpm = FrozenLpm::compile(&trie);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let probes: Vec<u32> = (0..PROBES).map(|_| rng.gen()).collect();
    let mut sorted = probes.clone();
    sorted.sort_unstable();
    Fixture {
        trie,
        lpm,
        probes,
        sorted,
    }
}

/// One full probe sweep per contender; returns a checksum so the work
/// cannot be optimised away.
fn sweep_trie(f: &Fixture) -> u64 {
    let mut acc = 0u64;
    for &bits in &f.probes {
        if let Some((_, peer)) = f.trie.lookup(std::net::Ipv4Addr::from(bits)) {
            acc = acc.wrapping_add(u64::from(peer.0));
        }
    }
    acc
}

fn sweep_walker(f: &Fixture) -> u64 {
    let mut acc = 0u64;
    let mut walker = f.trie.walker();
    for &bits in &f.sorted {
        if let Some((_, peer)) = walker.lookup(std::net::Ipv4Addr::from(bits)) {
            acc = acc.wrapping_add(u64::from(peer.0));
        }
    }
    acc
}

fn sweep_frozen(f: &Fixture) -> u64 {
    let mut acc = 0u64;
    for &bits in &f.probes {
        if let Some((_, peer)) = f.lpm.lookup_bits(bits) {
            acc = acc.wrapping_add(u64::from(peer.0));
        }
    }
    acc
}

/// [`FrozenLpm::lookup_values`] over the probes in columns of `width`.
fn sweep_columns(f: &Fixture, width: usize) -> u64 {
    let mut acc = 0u64;
    for column in f.probes.chunks(width) {
        f.lpm.lookup_values(column, |_, hit| {
            if let Some(peer) = hit {
                acc = acc.wrapping_add(u64::from(peer.0));
            }
        });
    }
    acc
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Milliseconds per full compile of the fixture's trie: median of `passes`.
fn compile_ms(f: &Fixture, passes: usize) -> f64 {
    median(
        (0..passes)
            .map(|_| {
                let start = Instant::now();
                black_box(FrozenLpm::compile(black_box(&f.trie)));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Microseconds per single-prefix patch: median over [`INSERTS`] random
/// host routes (the default adoption granularity) into a copy of the
/// fixture's table, which must then agree with the trie that took the same
/// inserts.
fn insert_us(f: &Fixture) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xad09);
    let mut trie = f.trie.clone();
    let mut lpm = f.lpm.clone();
    let samples = (0..INSERTS)
        .map(|_| {
            let host = Prefix::host(std::net::Ipv4Addr::from(rng.gen::<u32>()));
            let peer = PeerId(rng.gen_range(0..PEERS));
            trie.insert(host, peer);
            let start = Instant::now();
            black_box(lpm.insert(host, peer));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    assert!(
        lpm == FrozenLpm::compile(&trie),
        "patched table diverges at {}",
        f.lpm.len()
    );
    median(samples)
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpm_lookup");
    group.throughput(Throughput::Elements(PROBES as u64));
    group.sample_size(10);
    for &size in SIZES {
        let f = fixture(size, 0x10f1);
        group.bench_with_input(BenchmarkId::new("trie", size), &f, |b, f| {
            b.iter(|| black_box(sweep_trie(f)))
        });
        group.bench_with_input(BenchmarkId::new("walker_sorted", size), &f, |b, f| {
            b.iter(|| black_box(sweep_walker(f)))
        });
        group.bench_with_input(BenchmarkId::new("frozen", size), &f, |b, f| {
            b.iter(|| black_box(sweep_frozen(f)))
        });
        group.bench_with_input(BenchmarkId::new("frozen_batch", size), &f, |b, f| {
            b.iter(|| black_box(sweep_columns(f, COLUMN)))
        });
        group.bench_with_input(BenchmarkId::new("frozen_batch_short", size), &f, |b, f| {
            b.iter(|| black_box(sweep_columns(f, FLUSHED_COLUMN)))
        });
    }
    group.finish();
}

/// Manual timing pass feeding the machine-readable baseline at
/// `crates/bench/BENCH_lpm.json` (best of seven passes; of three in the
/// `--test` smoke run, whose same-run ratios CI gates — single 1 ms
/// passes read `batch_over_frozen` anywhere from 0.58 to 0.87).
/// Hand-formatted JSON keeps the bench free of serialisation
/// dependencies. All contenders agree on the checksum first — a wrong
/// structure must not publish a fast number.
fn baseline_json(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let passes = if quick { 3 } else { 7 };
    let mut tables = Vec::new();
    for &size in SIZES {
        let f = fixture(size, 0x10f1);
        let trie_sum = sweep_trie(&f);
        assert_eq!(trie_sum, sweep_frozen(&f), "frozen diverges at {size}");
        for width in [COLUMN, FLUSHED_COLUMN] {
            let sum = sweep_columns(&f, width);
            assert_eq!(trie_sum, sum, "{width}-wide columns diverge at {size}");
        }
        let mut best = [f64::INFINITY; 5];
        let sweeps: [&dyn Fn(&Fixture) -> u64; 5] = [
            &sweep_trie,
            &sweep_walker,
            &sweep_frozen,
            &|f| sweep_columns(f, COLUMN),
            &|f| sweep_columns(f, FLUSHED_COLUMN),
        ];
        for _ in 0..passes {
            for (slot, sweep) in best.iter_mut().zip(sweeps) {
                let start = Instant::now();
                black_box(sweep(&f));
                *slot = slot.min(start.elapsed().as_secs_f64() * 1e9 / PROBES as f64);
            }
        }
        let bytes_per_prefix = f.lpm.approx_bytes() as f64 / f.lpm.len() as f64;
        tables.push(format!(
            "    \"{}\": {{\n      \"trie\": {:.1},\n      \"walker_sorted\": {:.1},\n      \
             \"frozen\": {:.1},\n      \"frozen_batch\": {:.1},\n      \
             \"frozen_batch_short\": {:.1},\n      \
             \"bytes_per_prefix\": {:.1},\n      \"speedup_vs_walker\": {:.2},\n      \
             \"batch_over_frozen\": {:.2},\n      \
             \"compile_ms\": {:.2},\n      \"insert_us\": {:.2}\n    }}",
            size,
            best[0],
            best[1],
            best[2],
            best[3],
            best[4],
            bytes_per_prefix,
            best[1] / best[3],
            best[3] / best[2],
            compile_ms(&f, passes),
            insert_us(&f),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"lpm\",\n  \"unit\": \"ns_per_lookup\",\n  \"probes\": {},\n  \
         \"tables\": {{\n{}\n  }}\n}}\n",
        PROBES,
        tables.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_lpm.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_lookup, baseline_json);
criterion_main!(benches);
