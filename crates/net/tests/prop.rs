//! Property-based tests for prefixes, the trie, and the sub-block scheme.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use infilter_net::{FrozenLpm, Prefix, PrefixTrie, SubBlock, SubBlockRange};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(Ipv4Addr::from(bits), len))
}

/// A deliberately nested, sibling-heavy prefix set: every prefix is a
/// truncation of a small perturbation of one base address, so default
/// routes, host routes, shadowing and adjacent siblings all occur with
/// high probability — the cases where a multi-bit-stride LPM can diverge
/// from bit-at-a-time matching.
fn arb_nested_set() -> impl Strategy<Value = Vec<Prefix>> {
    (
        any::<u32>(),
        proptest::collection::vec((any::<u16>(), 0u8..=32), 1..48),
    )
        .prop_map(|(base, tweaks)| {
            tweaks
                .into_iter()
                .map(|(delta, len)| Prefix::new(Ipv4Addr::from(base ^ u32::from(delta)), len))
                .collect()
        })
}

/// `(prefix, value)` pairs in the order they are inserted.
type Inserts = Vec<(Prefix, u32)>;

/// A starting table and an insert sequence drawn from one nested cluster
/// (see [`arb_nested_set`]), so inserts land under populated /16 slots,
/// beside dense sibling runs, above them as covering prefixes — and, when
/// the flag is set, on a prefix stored earlier: an overwrite.
fn arb_clustered_inserts() -> impl Strategy<Value = (Inserts, Inserts)> {
    let tweak = || (any::<u16>(), 0u8..=32, any::<u32>(), any::<bool>());
    (
        any::<u32>(),
        proptest::collection::vec(tweak(), 0..48),
        proptest::collection::vec(tweak(), 1..48),
    )
        .prop_map(|(base, table, inserts)| {
            let mut seen: Vec<Prefix> = Vec::new();
            let mut resolve = |tweaks: Vec<(u16, u8, u32, bool)>| -> Inserts {
                tweaks
                    .into_iter()
                    .map(|(delta, len, value, again)| {
                        let fresh = Prefix::new(Ipv4Addr::from(base ^ u32::from(delta)), len);
                        let prefix = match seen.len() {
                            n if again && n > 0 => seen[usize::from(delta) % n],
                            _ => fresh,
                        };
                        seen.push(prefix);
                        (prefix, value)
                    })
                    .collect()
            };
            let table = resolve(table);
            (table, resolve(inserts))
        })
}

/// Patches `inserts` one by one into a [`FrozenLpm`] compiled from `table`
/// and holds it, after every step, to a fresh compile of the same trie: on
/// `iter()`, on equality, and on every stored prefix's bounds and the
/// addresses just outside them.
fn assert_patched_matches_compiled(table: Inserts, inserts: Inserts) {
    let mut trie: PrefixTrie<u32> = table.into_iter().collect();
    let mut patched = FrozenLpm::compile(&trie);
    for (prefix, value) in inserts {
        assert_eq!(patched.insert(prefix, value), trie.insert(prefix, value));
        let compiled = FrozenLpm::compile(&trie);
        assert!(patched.iter().eq(compiled.iter()), "iter() after {prefix}");
        assert!(patched == compiled && patched.len() == trie.len());
        for (p, _) in compiled.iter() {
            let (first, last) = (u32::from(p.first()), u32::from(p.last()));
            for bits in [first.wrapping_sub(1), first, last, last.wrapping_add(1)] {
                assert_eq!(
                    patched.lookup_bits(bits).map(|(p, v)| (p, *v)),
                    compiled.lookup_bits(bits).map(|(p, v)| (p, *v)),
                    "lookup of {} after inserting {prefix}",
                    Ipv4Addr::from(bits)
                );
            }
        }
    }
}

/// Holds [`FrozenLpm::lookup_values`] over `column` — and over its first
/// 0, 1, 5, 6, 7, 31, 32, 33, 64 and 65 addresses, the lengths around the
/// short-column cut-off (6) and the chunk boundaries — to
/// [`FrozenLpm::lookup_value_bits`] and to the trie.
fn assert_column_matches_scalar(lpm: &FrozenLpm<u32>, trie: &PrefixTrie<u32>, column: &[u32]) {
    for n in [0, 1, 5, 6, 7, 31, 32, 33, 64, 65, column.len()] {
        let column = &column[..n.min(column.len())];
        let mut got = Vec::new();
        lpm.lookup_values(column, |i, value| got.push((i, value.copied())));
        assert_eq!(got.len(), column.len(), "one call per address");
        for (at, (&bits, (i, got))) in column.iter().zip(got).enumerate() {
            let addr = Ipv4Addr::from(bits);
            assert_eq!(i, at, "in order");
            assert_eq!(
                got,
                lpm.lookup_value_bits(bits).copied(),
                "scalar at {addr}"
            );
            assert_eq!(got, trie.lookup(addr).map(|(_, v)| *v), "trie at {addr}");
        }
    }
}

/// Oracle: linear scan for the most specific containing prefix.
fn naive_lpm(table: &HashMap<Prefix, u32>, addr: Ipv4Addr) -> Option<(Prefix, u32)> {
    table
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_its_bounds(p in arb_prefix()) {
        prop_assert!(p.contains(p.first()));
        prop_assert!(p.contains(p.last()));
        prop_assert_eq!(u64::from(u32::from(p.last())) - u64::from(u32::from(p.first())) + 1,
                        p.size());
    }

    #[test]
    fn covers_is_consistent_with_contains(a in arb_prefix(), b in arb_prefix()) {
        if a.covers(b) {
            prop_assert!(a.contains(b.first()));
            prop_assert!(a.contains(b.last()));
            prop_assert!(a.len() <= b.len());
        }
    }

    #[test]
    fn trie_matches_naive_lpm(
        entries in proptest::collection::hash_map(arb_prefix(), any::<u32>(), 0..64),
        probes in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(trie.len(), entries.len());
        for bits in probes {
            let addr = Ipv4Addr::from(bits);
            let got = trie.lookup(addr).map(|(p, v)| (p, *v));
            let want = naive_lpm(&entries, addr);
            // Values may collide only if two equal-length prefixes both match,
            // which is impossible: equal-length matching prefixes are equal.
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn trie_remove_restores_oracle(
        entries in proptest::collection::hash_map(arb_prefix(), any::<u32>(), 1..32),
        probe in any::<u32>(),
    ) {
        let mut table = entries.clone();
        let mut trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        // Remove half the entries and re-check the oracle.
        let victims: Vec<Prefix> = table.keys().copied().take(table.len() / 2).collect();
        for v in victims {
            trie.remove(v);
            table.remove(&v);
        }
        let addr = Ipv4Addr::from(probe);
        prop_assert_eq!(trie.lookup(addr).map(|(p, v)| (p, *v)), naive_lpm(&table, addr));
    }

    #[test]
    fn frozen_lpm_matches_trie_and_walker(
        entries in proptest::collection::hash_map(arb_prefix(), any::<u32>(), 0..64),
        probes in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(p, v)| (*p, *v)).collect();
        let lpm = FrozenLpm::compile(&trie);
        prop_assert_eq!(lpm.len(), trie.len());
        let mut walker = trie.walker();
        for bits in probes {
            let addr = Ipv4Addr::from(bits);
            let want = trie.lookup(addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(lpm.lookup(addr).map(|(p, v)| (p, *v)), want);
            prop_assert_eq!(lpm.lookup_bits(bits).map(|(p, v)| (p, *v)), want);
            prop_assert_eq!(walker.lookup(addr).map(|(p, v)| (p, *v)), want);
        }
    }

    #[test]
    fn frozen_lpm_handles_nested_sibling_sets(
        prefixes in arb_nested_set(),
        deltas in proptest::collection::vec(any::<u16>(), 1..64),
    ) {
        let trie: PrefixTrie<u32> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect();
        let lpm = FrozenLpm::compile(&trie);
        // Probe around the cluster: prefix bounds plus nearby addresses.
        let base = prefixes[0].bits();
        let probes: Vec<u32> = prefixes
            .iter()
            .flat_map(|p| [p.bits(), u32::from(p.last())])
            .chain(deltas.iter().map(|&d| base ^ u32::from(d)))
            .collect();
        for bits in &probes {
            let addr = Ipv4Addr::from(*bits);
            prop_assert_eq!(
                lpm.lookup(addr).map(|(p, v)| (p, *v)),
                trie.lookup(addr).map(|(p, v)| (p, *v))
            );
        }
        assert_column_matches_scalar(&lpm, &trie, &probes);
    }

    /// One /16 crowded with /17–/32 prefixes (so depth-16 and depth-24
    /// nodes, children and runs side by side), with or without a default
    /// route (so unmatched space, or none), probed by columns of 0–100
    /// addresses inside the cluster and far from it: on the compiled
    /// table, then after every insert — each leaves the slot's old subtree
    /// behind as garbage, and every other one or so triggers the
    /// self-compaction that drops it.
    #[test]
    fn column_lookup_matches_scalar_and_trie(
        default_route in any::<bool>(),
        base in any::<u32>(),
        table in proptest::collection::vec((any::<u16>(), 17u8..=32, any::<u32>()), 0..32),
        inserts in proptest::collection::vec((any::<u16>(), 17u8..=32, any::<u32>()), 0..12),
        probes in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..=100),
    ) {
        let near = |delta: u16, len: u8| Prefix::new(Ipv4Addr::from(base ^ u32::from(delta)), len);
        let mut trie: PrefixTrie<u32> = table.iter().map(|&(d, len, v)| (near(d, len), v)).collect();
        if default_route {
            trie.insert(Prefix::new(Ipv4Addr::from(0), 0), u32::MAX);
        }
        let column: Vec<u32> = probes
            .iter()
            .map(|&(bits, far)| if far { bits } else { base ^ (bits & 0xFFFF) })
            .collect();
        let mut lpm = FrozenLpm::compile(&trie);
        assert_column_matches_scalar(&lpm, &trie, &column);
        for (delta, len, value) in inserts {
            lpm.insert(near(delta, len), value);
            trie.insert(near(delta, len), value);
            assert_column_matches_scalar(&lpm, &trie, &column);
        }
    }

    #[test]
    fn patched_frozen_lpm_matches_compile_on_clustered_inserts(
        (table, inserts) in arb_clustered_inserts(),
    ) {
        assert_patched_matches_compiled(table, inserts);
    }

    #[test]
    fn patched_frozen_lpm_matches_compile_on_scattered_inserts(
        table in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..64),
        inserts in proptest::collection::vec((arb_prefix(), any::<u32>()), 1..32),
    ) {
        assert_patched_matches_compiled(table, inserts);
    }

    #[test]
    fn sub_block_linear_round_trip(idx in 0usize..1144) {
        let sb = SubBlock::from_linear(idx).unwrap();
        prop_assert_eq!(sb.linear(), idx);
        let reparsed: SubBlock = sb.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, sb);
    }

    #[test]
    fn sub_block_prefixes_are_disjoint(a in 0usize..1144, b in 0usize..1144) {
        prop_assume!(a != b);
        let pa = SubBlock::from_linear(a).unwrap().prefix();
        let pb = SubBlock::from_linear(b).unwrap().prefix();
        prop_assert!(!pa.covers(pb) && !pb.covers(pa), "{pa} overlaps {pb}");
    }

    #[test]
    fn range_len_matches_iteration(first in 0usize..1144, extra in 0usize..64) {
        let last = (first + extra).min(1143);
        let r = SubBlockRange::new(
            SubBlock::from_linear(first).unwrap(),
            SubBlock::from_linear(last).unwrap(),
        ).unwrap();
        prop_assert_eq!(r.len(), r.iter().count());
        prop_assert_eq!(r.len(), last - first + 1);
        prop_assert!(r.iter().all(|sb| r.contains(sb)));
    }
}
