//! Adoption without recompilation: the engine folds each adoption into
//! the snapshot it already published instead of recompiling the table.
//! These tests hold that shortcut to the definition it replaces — a full
//! `EiaRegistry::snapshot()` after every adoption — and pin the two
//! branches of the publish: in place when nobody holds the snapshot,
//! copy-on-write when somebody does.

use std::sync::{mpsc, Arc};

use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, Effort, EiaRegistry, EiaSnapshot, Mode,
    PeerId, Trainer, Verdict,
};
use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_nns::NnsParams;

const THRESHOLD: u32 = 3;

/// Two peers splitting 3.0.0.0/10, with a dense run of /24s and a host
/// route under one of the /16s the workload adopts into, so patches land
/// both beside existing stride nodes and under bare root slots.
fn eia(adoption_prefix_len: u8) -> EiaRegistry {
    let mut r = EiaRegistry::new(THRESHOLD);
    r.set_adoption_prefix_len(adoption_prefix_len);
    r.preload(PeerId(1), "3.0.0.0/11".parse().unwrap());
    r.preload(PeerId(2), "3.32.0.0/11".parse().unwrap());
    for third in 200..232u32 {
        r.preload(PeerId(2), format!("3.33.{third}.0/24").parse().unwrap());
    }
    r.preload(PeerId(2), "3.33.200.9/32".parse().unwrap());
    r
}

/// A flow with the features of one of the 80 training flows, so every EIA
/// suspect among them is NNS-cleared and counts as a sighting.
fn flow(src: u32, i: u32) -> FlowRecord {
    let i = i % 80;
    FlowRecord {
        src_addr: src.into(),
        dst_addr: "96.1.0.20".parse().unwrap(),
        dst_port: 80,
        protocol: 6,
        packets: 10 + (i % 6),
        octets: 5000 + 200 * (i % 10),
        first_ms: 0,
        last_ms: 800 + 40 * (i % 7),
        ..FlowRecord::default()
    }
}

fn engine(adoption_prefix_len: u8) -> ConcurrentAnalyzer {
    let cfg = AnalyzerConfig::builder()
        .mode(Mode::Enhanced)
        .nns(NnsParams {
            d: 0,
            m1: 2,
            m2: 8,
            m3: 2,
        })
        .bits_per_feature(12)
        .adoption_threshold(THRESHOLD)
        .adoption_prefix_len(adoption_prefix_len)
        .build()
        .expect("valid config");
    let training: Vec<FlowRecord> = (0..80).map(|i| flow(0x0300_0001, i)).collect();
    let analyzer = Trainer::new(cfg)
        .train_enhanced(eia(adoption_prefix_len), &training)
        .expect("training succeeds");
    ConcurrentAnalyzer::new(analyzer, ConcurrentConfig::default())
}

/// 140 sources from peer 2's space, alternating between two /16s, each in
/// a /24 of its own. Every one shows up at peer 1 until adopted there and
/// is then seen again (now legal) along with a /24 sibling; every other
/// one then moves back to peer 2, which re-adopts the very same prefix —
/// an overwrite. 210 adoptions in all.
fn workload() -> Vec<(PeerId, FlowRecord)> {
    let mut flows = Vec::new();
    let mut i = 0;
    let mut push = |peer: u16, src: u32| {
        i += 1;
        flows.push((PeerId(peer), flow(src, i)));
    };
    for k in 0..140u32 {
        let src = [0x0321_0007, 0x0328_0007][k as usize % 2] + (k << 8);
        for _ in 0..THRESHOLD {
            push(1, src);
        }
        push(1, src);
        push(1, src + 1);
        if k % 2 == 0 {
            for _ in 0..THRESHOLD {
                push(2, src);
            }
            push(2, src);
            push(1, src);
        }
    }
    flows
}

/// The definition: classify against a snapshot recompiled in full after
/// every adoption. Returns the verdicts, the final table and the number of
/// adoptions.
fn oracle(
    adoption_prefix_len: u8,
    flows: &[(PeerId, FlowRecord)],
) -> (Vec<Verdict>, EiaSnapshot, u64) {
    let mut registry = eia(adoption_prefix_len);
    let mut snapshot = registry.snapshot();
    let mut adoptions = 0;
    let verdicts = flows
        .iter()
        .map(|(peer, flow)| {
            if snapshot.classify(*peer, flow.src_addr).is_match() {
                return Verdict::Legal;
            }
            if registry.record_sighting(*peer, flow.src_addr) {
                snapshot = registry.snapshot();
                adoptions += 1;
            }
            Verdict::Forgiven
        })
        .collect();
    (verdicts, snapshot, adoptions)
}

/// Feeds runs of same-ingress flows as batches, so adoptions land
/// mid-batch and the rest of the batch takes the stale fallback.
fn run_batched(engine: &ConcurrentAnalyzer, flows: &[(PeerId, FlowRecord)]) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    let mut batch = FlowBatch::new();
    for run in flows.chunk_by(|a, b| a.0 == b.0) {
        batch.clear();
        for (_, flow) in run {
            batch.push_record(flow);
        }
        engine.process_flow_batch_into(run[0].0, &batch, Effort::Full, &mut verdicts);
    }
    verdicts
}

#[test]
fn patched_adoptions_match_a_recompile_after_every_adoption() {
    let flows = workload();
    for adoption_prefix_len in [32, 24] {
        let (want, table, adoptions) = oracle(adoption_prefix_len, &flows);
        assert!(adoptions >= 200, "only {adoptions} adoptions");

        let assert_verdicts = |path: &str, got: Vec<Verdict>| {
            assert_eq!(got.len(), want.len());
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "{path}, /{adoption_prefix_len}: flow {i} ({:?}) is {:?}, oracle says {:?}",
                    flows[i], got[i], want[i]
                );
            }
        };

        let per_flow = engine(adoption_prefix_len);
        let got = flows
            .iter()
            .map(|(peer, flow)| per_flow.process(*peer, flow))
            .collect();
        assert_verdicts("per flow", got);

        let batched = engine(adoption_prefix_len);
        assert_verdicts("batched", run_batched(&batched, &flows));

        for engine in [&per_flow, &batched] {
            assert_eq!(engine.metrics().adoptions, adoptions);
            let published = engine.eia_snapshot();
            assert!(published.iter().eq(table.iter()), "canonical entry order");
            assert!(*published == table);
        }
    }
}

/// Drives `src` through peer 1 until the engine adopts it there.
fn adopt(engine: &ConcurrentAnalyzer, src: u32) {
    let before = engine.metrics().adoptions;
    for i in 0..THRESHOLD {
        assert!(engine.process(PeerId(1), &flow(src, i)).is_forgiven());
    }
    assert_eq!(engine.metrics().adoptions, before + 1);
}

#[test]
fn a_held_snapshot_is_copied_and_an_unheld_one_is_patched_in_place() {
    let engine = engine(32);
    let (first, second) = (0x0321_0007u32, 0x0321_0107u32);

    // Copy-on-write: a reader thread holds the published table across an
    // adoption and keeps classifying against it.
    let (holding, held) = mpsc::channel();
    let (adopting, adopted) = mpsc::channel();
    std::thread::scope(|s| {
        let engine = &engine;
        s.spawn(move || {
            let mine = engine.eia_snapshot();
            holding.send(()).expect("main thread waits");
            adopted.recv().expect("main thread signals");
            assert!(!mine.classify(PeerId(1), first.into()).is_match());
            let fresh = engine.eia_snapshot();
            assert!(fresh.classify(PeerId(1), first.into()).is_match());
            assert!(
                !Arc::ptr_eq(&mine, &fresh),
                "the held table was not touched"
            );
            assert_eq!((mine.adopted_count(), fresh.adopted_count()), (0, 1));
        });
        held.recv().expect("reader holds a snapshot");
        adopt(engine, first);
        adopting.send(()).expect("reader waits");
    });

    // In place: with the reader gone nobody holds the published table —
    // not even a live thread that has classified through the engine, per
    // flow and batched, and is parked now — so the next adoption reuses
    // its allocation.
    let (classifying, classified) = mpsc::channel();
    let (parking, parked) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        // The sender moves in here, so an assertion failing below drops it
        // and un-parks the thread instead of hanging the test.
        let (engine, parking) = (&engine, parking);
        s.spawn(move || {
            let legal = flow(0x0300_0001, 0);
            assert!(engine.process(PeerId(1), &legal).is_legal());
            let mut batch = FlowBatch::new();
            batch.push_record(&legal);
            let mut verdicts = Vec::new();
            engine.process_flow_batch_into(PeerId(1), &batch, Effort::Full, &mut verdicts);
            assert_eq!(verdicts, [Verdict::Legal]);
            classifying.send(()).expect("main thread waits");
            let _ = parked.recv();
        });
        classified.recv().expect("the other thread has classified");
        let before = Arc::as_ptr(&engine.eia_snapshot());
        adopt(engine, second);
        let after = engine.eia_snapshot();
        assert_eq!(Arc::as_ptr(&after), before, "patched, not copied");
        assert!(after.classify(PeerId(1), second.into()).is_match());
        assert_eq!(after.adopted_count(), 2);
        parking.send(()).expect("the other thread is parked");
    });
}
