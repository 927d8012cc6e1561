//! Kill-and-restart recovery: a registry rebuilt from a store's replay
//! must publish an [`EiaSnapshot`] bit-identical to the one the original
//! process last built — through clean restarts, crashes without a seal,
//! snapshot-plus-suffix layering, and torn log tails.

use std::fs;
use std::net::Ipv4Addr;
use std::path::PathBuf;

use infilter_core::{EiaRegistry, PeerId};
use infilter_net::Prefix;
use infilter_store::{restore_registry, snapshot_entries, DiskStore, EiaStore, MemStore};

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("infilter-restart-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const THRESHOLD: u32 = 3;

fn preloads() -> Vec<(PeerId, Prefix)> {
    vec![
        (PeerId(1), "3.0.0.0/11".parse().unwrap()),
        (PeerId(2), "4.64.0.0/11".parse().unwrap()),
    ]
}

fn fresh_registry() -> EiaRegistry {
    let mut r = EiaRegistry::new(THRESHOLD);
    r.set_adoption_prefix_len(24);
    r.preload_all(preloads());
    r
}

/// Drives enough sightings through `live` to adopt `n` distinct /24s
/// (disjoint per peer — adoption overwrites across peers otherwise),
/// draining the resulting events into `store` as the daemon's write side
/// does after a pump step.
fn adopt_prefixes<S: EiaStore>(live: &mut EiaRegistry, store: &mut S, peer: u16, n: u8) {
    let mut events = Vec::new();
    for block in 0..n {
        for host in 1..=THRESHOLD {
            live.record_sighting(
                PeerId(peer),
                Ipv4Addr::new(198, peer as u8, block, host as u8),
            );
        }
        live.drain_events(&mut events);
        store.append(&events).unwrap();
        events.clear();
    }
}

fn recover(store: &impl EiaStore) -> EiaRegistry {
    let replay = store.replay().unwrap();
    let mut recovered = fresh_registry();
    restore_registry(&replay, &mut recovered);
    recovered
}

#[test]
fn crash_without_seal_restarts_bit_identical() {
    let dir = temp_store_dir("noseal");
    let mut live = fresh_registry();
    {
        let mut store = DiskStore::open(&dir).unwrap();
        adopt_prefixes(&mut live, &mut store, 1, 10);
        // Simulated kill after the last durability point: sync, then drop
        // with no seal and no orderly shutdown.
        store.sync().unwrap();
    }

    let store = DiskStore::open(&dir).unwrap();
    let replay = store.replay().unwrap();
    assert!(replay.snapshot.is_none());
    assert_eq!(replay.report.records_replayed, 10);

    let recovered = recover(&store);
    assert_eq!(recovered.snapshot(), live.snapshot());
    assert_eq!(recovered.adopted_count(), live.adopted_count());
    assert_eq!(recovered.adopted_count(), 10);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_log_suffix_layers_back_bit_identical() {
    let dir = temp_store_dir("layered");
    let mut live = fresh_registry();
    {
        let mut store = DiskStore::open(&dir).unwrap();
        adopt_prefixes(&mut live, &mut store, 1, 6);
        let snap = live.snapshot();
        store
            .seal_snapshot(&snapshot_entries(&snap), live.adopted_count())
            .unwrap();
        // More adoptions after the seal land only in the log suffix.
        adopt_prefixes(&mut live, &mut store, 2, 4);
        store.sync().unwrap();
    }

    let store = DiskStore::open(&dir).unwrap();
    let replay = store.replay().unwrap();
    let doc = replay.snapshot.as_ref().expect("sealed snapshot recovered");
    assert_eq!(doc.adopted, 6);
    assert_eq!(replay.report.records_replayed, 4);

    let recovered = recover(&store);
    assert_eq!(recovered.snapshot(), live.snapshot());
    assert_eq!(recovered.adopted_count(), 10);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_recovers_the_clean_prefix_without_panicking() {
    let dir = temp_store_dir("torntail");
    let mut live = fresh_registry();
    let mut reference = fresh_registry();
    {
        let mut store = DiskStore::open(&dir).unwrap();
        adopt_prefixes(&mut live, &mut store, 1, 5);
        store.sync().unwrap();
    }
    // The first 4 adoptions are the clean prefix the tear will leave.
    {
        let mut sink = MemStore::new();
        adopt_prefixes(&mut reference, &mut sink, 1, 4);
    }

    // Tear mid-way into the last frame of the only populated segment.
    let seg = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "log")
                && fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false)
        })
        .min()
        .unwrap();
    let len = fs::metadata(&seg).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let store = DiskStore::open(&dir).unwrap();
    let replay = store.replay().unwrap();
    assert!(replay.report.truncated);
    assert_eq!(replay.report.records_replayed, 4);

    let recovered = recover(&store);
    assert_eq!(recovered.snapshot(), reference.snapshot());
    assert_eq!(recovered.adopted_count(), 4);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_then_restart_is_still_bit_identical() {
    let dir = temp_store_dir("compacted");
    let mut live = fresh_registry();
    {
        let mut store = DiskStore::open(&dir).unwrap();
        adopt_prefixes(&mut live, &mut store, 1, 8);
        let snap = live.snapshot();
        store
            .compact(&snapshot_entries(&snap), live.adopted_count())
            .unwrap();
    }
    let store = DiskStore::open(&dir).unwrap();
    let recovered = recover(&store);
    assert_eq!(recovered.snapshot(), live.snapshot());
    assert_eq!(recovered.adopted_count(), 8);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn memstore_honours_the_same_contract() {
    let mut live = fresh_registry();
    let mut store = MemStore::new();
    adopt_prefixes(&mut live, &mut store, 1, 5);
    let snap = live.snapshot();
    store
        .seal_snapshot(&snapshot_entries(&snap), live.adopted_count())
        .unwrap();
    adopt_prefixes(&mut live, &mut store, 2, 3);

    let recovered = recover(&store);
    assert_eq!(recovered.snapshot(), live.snapshot());
    assert_eq!(recovered.adopted_count(), 8);
}

#[test]
fn replay_order_does_not_matter_for_bit_identity() {
    // FrozenLpm::compile canonicalises ordering, so two registries that
    // adopted the same set through different interleavings publish the
    // same snapshot — the property the whole recovery design leans on.
    let mut a = fresh_registry();
    let mut b = fresh_registry();
    let mut sink_a = MemStore::new();
    let mut sink_b = MemStore::new();
    adopt_prefixes(&mut a, &mut sink_a, 1, 4);
    adopt_prefixes(&mut a, &mut sink_a, 2, 4);
    adopt_prefixes(&mut b, &mut sink_b, 2, 4);
    adopt_prefixes(&mut b, &mut sink_b, 1, 4);
    assert_eq!(a.snapshot(), b.snapshot());
}
