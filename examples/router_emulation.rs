//! Router emulation: build NetFlow records the way a real border router
//! does — packet by packet through a flow cache with the v5 expiry rules —
//! then export, collect and analyse them.
//!
//! The paper's Dagflow skips the router ("without requiring generation of
//! the actual IP traffic"); this example keeps the packet-level path to
//! exercise the cache: idle timeout, active timeout, TCP teardown and
//! cache pressure all occur.
//!
//! Run with `cargo run --release --example router_emulation`.

use infilter::core::{AnalyzerConfig, EiaRegistry, PeerId, Trainer};
use infilter::netflow::{
    CacheConfig, Datagram, ExpiryReason, FlowCache, FlowKey, PacketObs, TCP_FIN, TCP_SYN,
};
use infilter::nns::NnsParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    let mut cache = FlowCache::new(CacheConfig {
        idle_timeout_ms: 5_000,
        active_timeout_ms: 60_000,
        max_flows: 4_096,
    });

    // Synthesize packet arrivals: 300 short web sessions from expected
    // space plus one long-lived transfer and one spoofed single packet.
    let mut expired: Vec<(infilter::netflow::FlowRecord, ExpiryReason)> = Vec::new();
    for session in 0..300u32 {
        let key = FlowKey {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + session),
            dst_addr: "96.1.0.20".parse()?,
            protocol: 6,
            src_port: 1024 + (session % 40_000) as u16,
            dst_port: 80,
            tos: 0,
            input_if: 1,
        };
        let start = session * 400;
        let packets = rng.gen_range(4..18);
        for p in 0..packets {
            let flags = if p == 0 {
                TCP_SYN
            } else if p == packets - 1 {
                TCP_FIN
            } else {
                0
            };
            expired.extend(cache.observe(PacketObs {
                key,
                bytes: rng.gen_range(60..1400),
                tcp_flags: flags,
                time_ms: start + p * 35,
            }));
        }
    }
    // The spoofed packet: a source from another peer's space.
    expired.extend(cache.observe(PacketObs {
        key: FlowKey {
            src_addr: "15.170.3.9".parse()?, // peer AS2 space
            dst_addr: "96.1.0.77".parse()?,
            protocol: 17,
            src_port: 53211,
            dst_port: 1434,
            tos: 0,
            input_if: 1,
        },
        bytes: 404,
        tcp_flags: 0,
        time_ms: 130_000,
    }));
    expired.extend(cache.flush(140_000));

    let mut by_reason: BTreeMap<String, usize> = BTreeMap::new();
    for (_, why) in &expired {
        *by_reason.entry(format!("{why:?}")).or_default() += 1;
    }
    println!("flows produced by the cache, by expiry reason:");
    for (why, n) in &by_reason {
        println!("  {why:<14} {n}");
    }

    // Export in v5 datagrams (30 records each), then analyse.
    let records: Vec<_> = expired.iter().map(|(r, _)| *r).collect();
    let mut datagram_count = 0;
    let mut decoded = Vec::new();
    for (i, chunk) in records.chunks(30).enumerate() {
        let dg = Datagram::new((i * 30) as u32, 140_000, chunk);
        decoded.extend(Datagram::decode(&dg.encode())?.records);
        datagram_count += 1;
    }
    println!(
        "\nexported {} records in {datagram_count} v5 datagrams",
        decoded.len()
    );

    let mut eia = EiaRegistry::new(3);
    eia.preload(PeerId(1), "3.0.0.0/11".parse()?);
    eia.preload(PeerId(2), "15.160.0.0/11".parse()?);
    let training: Vec<_> = decoded
        .iter()
        .filter(|r| r.dst_port == 80)
        .copied()
        .collect();
    let analyzer = Trainer::new(
        AnalyzerConfig::builder()
            .nns(NnsParams {
                d: 0,
                m1: 2,
                m2: 10,
                m3: 3,
            })
            .bits_per_feature(32)
            .build()?,
    )
    .train_enhanced(eia, &training)?;

    let mut attacks = 0;
    for r in &decoded {
        if analyzer.process(PeerId(r.input_if), r).is_attack() {
            attacks += 1;
        }
    }
    println!("flows flagged as attacks  : {attacks}");
    for alert in analyzer.drain_alerts() {
        println!("  -> {}", alert.classification());
        assert_eq!(alert.source, "15.170.3.9".parse::<std::net::Ipv4Addr>()?);
    }
    assert_eq!(attacks, 1, "exactly the spoofed packet should be flagged");
    Ok(())
}
