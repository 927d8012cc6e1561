//! The garbage bound of [`FrozenLpm::insert`] at bench scale: the subtrees
//! a patch supersedes stay allocated until they outweigh the reachable
//! ones, so a patched table is never more than twice a fresh compile —
//! which is what lets `infilter_eia_bytes` report it without a caveat
//! larger than 2×. Lives here, not in `crates/net`, for the table
//! generator.

use std::net::Ipv4Addr;

use infilter_bench::synthetic_peer_table;
use infilter_core::PeerId;
use infilter_net::{FrozenLpm, Prefix, PrefixTrie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn ten_thousand_host_inserts_stay_within_twice_a_fresh_compile() {
    let mut trie: PrefixTrie<PeerId> = synthetic_peer_table(100_000, 64, 0x10f1)
        .into_iter()
        .map(|(peer, prefix)| (prefix, peer))
        .collect();
    let mut patched = FrozenLpm::compile(&trie);
    let mut rng = StdRng::seed_from_u64(0x6a7b);
    let mut worst = 0.0f64;
    for i in 0..10_000u32 {
        let host = Prefix::host(Ipv4Addr::from(rng.gen::<u32>()));
        let peer = PeerId(rng.gen_range(0..64));
        assert_eq!(patched.insert(host, peer), trie.insert(host, peer));
        if i % 1000 == 999 {
            let fresh = FrozenLpm::compile(&trie);
            assert!(patched == fresh, "tables diverged after {i} inserts");
            worst = worst.max(patched.approx_bytes() as f64 / fresh.approx_bytes() as f64);
        }
    }
    assert!(
        worst <= 2.0,
        "patched table reached {worst:.2}x a fresh compile"
    );
    assert!(worst > 1.0, "no garbage at all: the patch path never ran");
}
