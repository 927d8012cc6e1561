//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches price the collector's layers one at a time: the NetFlow
//! codec and prefix trie (`substrate`), the frozen LPM (`lpm`), the NNS
//! hot-path layout (`nns_hotpath`), the telemetry and sketch primitives,
//! and the pump step with its degradation rungs (`ingest`). The paper's
//! §6.4 latency table is `exp-latency`; socket-to-verdict cost is
//! `e2ebench/`.

#![forbid(unsafe_code)]

use infilter_core::PeerId;
use infilter_net::Prefix;
use infilter_netflow::FlowRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic EIA peer table at realistic routing-table density, for the
/// LPM benches: the bulk of entries are /16–/24 (real feeds peak hard at
/// /24), a few percent are short covering prefixes, and /25–/31
/// deaggregates plus /32 host routes appear only in trace amounts —
/// most operators filter past-/24 announcements, so a peer's EIA set
/// inherits that shape. A default route anchors the set. A quarter of
/// entries also spawn the shapes that stress multi-bit-stride
/// compilation — a nested more-specific and an adjacent same-length
/// sibling. Assignments spread over `peers` peers; prefixes may repeat
/// (last assignment wins on insert), as in real feeds.
pub fn synthetic_peer_table(n: usize, peers: u16, seed: u64) -> Vec<(PeerId, Prefix)> {
    assert!(peers > 0, "at least one peer is required");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    out.push((PeerId(0), Prefix::default_route()));
    while out.len() < n {
        let peer = PeerId(rng.gen_range(0..peers));
        let bits = rng.gen::<u32>();
        let len: u8 = match rng.gen_range(0..1000u32) {
            0..=49 => rng.gen_range(8..16),
            50..=979 => rng.gen_range(16..=24),
            980..=989 => rng.gen_range(25..=31),
            _ => 32,
        };
        let prefix = Prefix::new(std::net::Ipv4Addr::from(bits), len);
        out.push((peer, prefix));
        if out.len() < n && (1..=23).contains(&len) && rng.gen_bool(0.25) {
            // Perturbing only host bits keeps the child inside `prefix`;
            // capped at /24 like the deaggregates real feeds carry.
            let extra = rng.gen_range(1..=8).min(24 - len);
            let child = prefix.bits() ^ (rng.gen::<u32>() >> len);
            out.push((
                PeerId(rng.gen_range(0..peers)),
                Prefix::new(std::net::Ipv4Addr::from(child), len + extra),
            ));
        }
        if out.len() < n && len >= 1 && rng.gen_bool(0.25) {
            let sibling = prefix.bits() ^ (1u32 << (32 - len));
            out.push((
                PeerId(rng.gen_range(0..peers)),
                Prefix::new(std::net::Ipv4Addr::from(sibling), len),
            ));
        }
    }
    out
}

/// A deterministic batch of plausible flow records.
pub fn flow_batch(n: usize, seed: u64) -> Vec<FlowRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(rng.gen::<u32>()),
            dst_addr: std::net::Ipv4Addr::from(0x60010000 + rng.gen_range(0..4096)),
            src_port: rng.gen_range(1024..65535),
            dst_port: *[80u16, 25, 21, 53, 443, 8080]
                .get(rng.gen_range(0..6))
                .expect("index in range"),
            protocol: if rng.gen_bool(0.8) { 6 } else { 17 },
            packets: rng.gen_range(1..200),
            octets: rng.gen_range(40..200_000),
            first_ms: rng.gen_range(0..600_000),
            last_ms: 600_000,
            ..FlowRecord::default()
        })
        .collect()
}
