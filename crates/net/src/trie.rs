use std::net::Ipv4Addr;

use crate::Prefix;

/// A binary trie keyed by IPv4 prefixes with longest-prefix matching.
///
/// This is the shared substrate for the EIA sets of `infilter-core` and the
/// RIBs of `infilter-bgp`. Nodes exist per prefix bit; each node may carry a
/// value. [`PrefixTrie::lookup`] walks the address bits and returns the value
/// attached to the deepest (most specific) matching prefix, which is exactly
/// the paper's "4.2.101.0/24 is more specific than 4.0.0.0/8" rule.
///
/// # Examples
///
/// ```
/// use infilter_net::PrefixTrie;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = PrefixTrie::new();
/// t.insert("0.0.0.0/0".parse()?, 0u32);
/// t.insert("10.0.0.0/8".parse()?, 1);
/// t.insert("10.96.0.0/11".parse()?, 2);
///
/// assert_eq!(t.lookup("10.100.1.1".parse()?).map(|(_, v)| *v), Some(2));
/// assert_eq!(t.lookup("10.1.1.1".parse()?).map(|(_, v)| *v), Some(1));
/// assert_eq!(t.lookup("11.1.1.1".parse()?).map(|(_, v)| *v), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<V> {
    children: [Option<u32>; 2],
    value: Option<(Prefix, V)>,
}

impl<V> Node<V> {
    fn empty() -> Node<V> {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie::with_capacity(0)
    }

    /// Creates an empty trie with arena space for `nodes` trie nodes, so
    /// bulk loads (RIB dumps, EIA preloads) avoid re-allocating the arena.
    /// A prefix of length `L` needs at most `L` nodes beyond the root;
    /// shared leading bits need fewer.
    pub fn with_capacity(nodes: usize) -> PrefixTrie<V> {
        let mut arena = Vec::with_capacity(nodes.saturating_add(1));
        arena.push(Node::empty());
        PrefixTrie {
            nodes: arena,
            len: 0,
        }
    }

    /// Node arena slots allocated (including the root).
    pub fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Nodes currently in the arena (including the root and interior
    /// nodes left behind by [`PrefixTrie::remove`]). One node exists per
    /// distinct stored prefix bit, so this tracks the structural — not
    /// just the prefix-count — size of the trie.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident bytes of the node arena (allocated capacity,
    /// not just occupied nodes — the number an operator watching memory
    /// growth actually cares about).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
    }

    /// Releases excess arena capacity left over from bulk builds. Call
    /// after bulk loads into a trie that is kept (RIB dumps).
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`, returning the previous value if the exact
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = bit_at(prefix.bits(), depth);
            node = match self.nodes[node].children[bit] {
                Some(c) => c as usize,
                None => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(Node::empty());
                    self.nodes[node].children[bit] = Some(idx);
                    idx as usize
                }
            };
        }
        let old = self.nodes[node].value.replace((prefix, value));
        match old {
            Some((_, v)) => Some(v),
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Removes the exact prefix, returning its value if present.
    ///
    /// Interior nodes are not reclaimed; the trie is optimised for the
    /// insert-heavy, rarely-shrinking workloads of RIBs and EIA sets.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        let node = self.find_node(prefix)?;
        let taken = self.nodes[node].value.take();
        taken.map(|(_, v)| {
            self.len -= 1;
            v
        })
    }

    /// Returns the value stored at exactly `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let node = self.find_node(prefix)?;
        match &self.nodes[node].value {
            Some((p, v)) if *p == prefix => Some(v),
            _ => None,
        }
    }

    /// Returns a mutable reference to the value stored at exactly `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        let node = self.find_node(prefix)?;
        match &mut self.nodes[node].value {
            Some((p, v)) if *p == prefix => Some(v),
            _ => None,
        }
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, together with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        let bits = u32::from(addr);
        let mut node = 0usize;
        let mut best: Option<(Prefix, &V)> = None;
        for depth in 0..=32u8 {
            if let Some((p, v)) = &self.nodes[node].value {
                best = Some((*p, v));
            }
            if depth == 32 {
                break;
            }
            match self.nodes[node].children[bit_at(bits, depth)] {
                Some(c) => node = c as usize,
                None => break,
            }
        }
        best
    }

    /// Creates a [`TrieWalker`] for repeated lookups that share path work
    /// between consecutive addresses. Feed it a batch sorted by address and
    /// each lookup only descends the bits that differ from the previous
    /// one; unsorted input still returns correct results.
    pub fn walker(&self) -> TrieWalker<'_, V> {
        TrieWalker {
            trie: self,
            path: [0; 33],
            path_len: 0,
            best: [(0, 0); 33],
            best_len: 0,
            prev_bits: 0,
            primed: false,
        }
    }

    /// All stored prefixes that contain `addr`, yielded lazily from least
    /// to most specific. No allocation: callers that only want the first
    /// match (or to short-circuit) pay for exactly the nodes they walk.
    pub fn matches(&self, addr: Ipv4Addr) -> Matches<'_, V> {
        Matches {
            trie: self,
            bits: u32::from(addr),
            node: Some(0),
            depth: 0,
        }
    }

    /// Iterates over all `(prefix, value)` pairs in depth-first order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut stack = vec![0usize];
        std::iter::from_fn(move || {
            while let Some(node) = stack.pop() {
                for child in self.nodes[node].children.iter().rev().flatten() {
                    stack.push(*child as usize);
                }
                if let Some((p, v)) = &self.nodes[node].value {
                    return Some((*p, v));
                }
            }
            None
        })
    }

    fn find_node(&self, prefix: Prefix) -> Option<usize> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            node = self.nodes[node].children[bit_at(prefix.bits(), depth)]? as usize;
        }
        Some(node)
    }
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

impl<V> Extend<(Prefix, V)> for PrefixTrie<V> {
    fn extend<I: IntoIterator<Item = (Prefix, V)>>(&mut self, iter: I) {
        for (p, v) in iter {
            self.insert(p, v);
        }
    }
}

/// Lazy iterator over the prefixes containing one address, least specific
/// first. Created by [`PrefixTrie::matches`].
#[derive(Debug, Clone)]
pub struct Matches<'a, V> {
    trie: &'a PrefixTrie<V>,
    bits: u32,
    node: Option<usize>,
    depth: u8,
}

impl<'a, V> Iterator for Matches<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<(Prefix, &'a V)> {
        loop {
            let node = self.node?;
            let hit = self.trie.nodes[node].value.as_ref().map(|(p, v)| (*p, v));
            self.node = if self.depth == 32 {
                None
            } else {
                let bit = bit_at(self.bits, self.depth);
                self.depth += 1;
                self.trie.nodes[node].children[bit].map(|c| c as usize)
            };
            if hit.is_some() {
                return hit;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // At most one prefix per remaining depth (plus the current node).
        (
            0,
            Some(self.node.map_or(0, |_| usize::from(33 - self.depth))),
        )
    }
}

/// Incremental longest-prefix matcher that reuses the descent path between
/// consecutive lookups. Created by [`PrefixTrie::walker`].
///
/// Two consecutive addresses sharing their first `k` bits re-enter the trie
/// at depth `k` instead of the root, so a batch sorted by address costs
/// roughly one node visit per *differing* bit instead of one per prefix
/// bit. Results are identical to [`PrefixTrie::lookup`] for any input
/// order; sorting only affects speed.
///
/// The walker borrows the trie immutably, so the trie cannot be mutated
/// while a walker is alive. All walker state lives in fixed-size inline
/// arrays (a descent is at most 33 nodes deep), so creating one per batch
/// allocates nothing.
#[derive(Debug)]
pub struct TrieWalker<'a, V> {
    trie: &'a PrefixTrie<V>,
    /// Node indices along the current descent; `path[d]` matched the first
    /// `d` address bits (`path[0]` is the root).
    path: [u32; 33],
    path_len: usize,
    /// `(bits_matched, node)` for path nodes carrying a value, shallowest
    /// first — the live longest-prefix candidates.
    best: [(u8, u32); 33],
    best_len: usize,
    prev_bits: u32,
    primed: bool,
}

impl<'a, V> TrieWalker<'a, V> {
    /// Longest-prefix match for `addr`, resuming from the previous
    /// lookup's path where the leading bits agree.
    pub fn lookup(&mut self, addr: Ipv4Addr) -> Option<(Prefix, &'a V)> {
        let bits = u32::from(addr);
        if self.primed {
            // A path node that matched `d` bits stays valid iff the new
            // address agrees on those `d` bits, i.e. `d <= shared`.
            let shared = (self.prev_bits ^ bits).leading_zeros().min(32) as usize;
            self.path_len = self.path_len.min(shared + 1);
            while self.best_len > 0 && self.best[self.best_len - 1].0 as usize >= self.path_len {
                self.best_len -= 1;
            }
        } else {
            self.primed = true;
            self.path[0] = 0;
            self.path_len = 1;
            if self.trie.nodes[0].value.is_some() {
                self.best[0] = (0, 0);
                self.best_len = 1;
            }
        }
        self.prev_bits = bits;
        let trie = self.trie;
        for depth in (self.path_len - 1)..32 {
            let node = self.path[self.path_len - 1] as usize;
            match trie.nodes[node].children[bit_at(bits, depth as u8)] {
                Some(child) => {
                    self.path[self.path_len] = child;
                    self.path_len += 1;
                    if trie.nodes[child as usize].value.is_some() {
                        self.best[self.best_len] = (depth as u8 + 1, child);
                        self.best_len += 1;
                    }
                }
                None => break,
            }
        }
        if self.best_len == 0 {
            return None;
        }
        let (_, node) = self.best[self.best_len - 1];
        trie.nodes[node as usize]
            .value
            .as_ref()
            .map(|(p, v)| (*p, v))
    }
}

fn bit_at(bits: u32, depth: u8) -> usize {
    ((bits >> (31 - depth)) & 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_lookup_is_none() {
        let t: PrefixTrie<()> = PrefixTrie::new();
        assert!(t.lookup(a("1.2.3.4")).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn exact_get_and_replace() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn longest_prefix_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("4.0.0.0/8"), "coarse");
        t.insert(p("4.2.101.0/24"), "fine");
        assert_eq!(t.lookup(a("4.2.101.20")).unwrap().1, &"fine");
        assert_eq!(t.lookup(a("4.2.102.20")).unwrap().1, &"coarse");
        assert!(t.lookup(a("5.0.0.1")).is_none());
    }

    #[test]
    fn default_route_catches_all() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::default_route(), 0);
        assert_eq!(t.lookup(a("203.0.113.9")).unwrap().1, &0);
    }

    #[test]
    fn host_route_is_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("9.0.0.0/8"), 8);
        t.insert(p("9.9.9.9/32"), 32);
        assert_eq!(t.lookup(a("9.9.9.9")).unwrap().1, &32);
        assert_eq!(t.lookup(a("9.9.9.8")).unwrap().1, &8);
    }

    #[test]
    fn remove_unshadows() {
        let mut t = PrefixTrie::new();
        t.insert(p("8.0.0.0/8"), "outer");
        t.insert(p("8.8.0.0/16"), "inner");
        assert_eq!(t.remove(p("8.8.0.0/16")), Some("inner"));
        assert_eq!(t.lookup(a("8.8.8.8")).unwrap().1, &"outer");
        assert_eq!(t.remove(p("8.8.0.0/16")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_orders_least_to_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.96.0.0/11"), 11);
        let m: Vec<u8> = t.matches(a("10.100.0.1")).map(|(_, v)| *v).collect();
        assert_eq!(m, vec![0, 8, 11]);
    }

    #[test]
    fn matches_is_lazy_and_short_circuits() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.96.0.0/11"), 11);
        let mut it = t.matches(a("10.100.0.1"));
        assert_eq!(it.next().map(|(_, v)| *v), Some(0));
        // First match found without walking the rest of the path; the
        // iterator can still resume.
        assert_eq!(it.next().map(|(_, v)| *v), Some(8));
        assert_eq!(it.next().map(|(_, v)| *v), Some(11));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
        // Lookup and matches agree: last match IS the longest match.
        assert_eq!(
            t.matches(a("10.100.0.1")).last().map(|(_, v)| *v),
            t.lookup(a("10.100.0.1")).map(|(_, v)| *v)
        );
        // A miss yields nothing.
        assert_eq!(t.matches(a("11.0.0.1")).count(), 1); // only the default route
    }

    #[test]
    fn matches_on_empty_trie_is_empty() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        assert_eq!(t.matches(a("1.2.3.4")).count(), 0);
        let (lo, hi) = t.matches(a("1.2.3.4")).size_hint();
        assert_eq!(lo, 0);
        assert!(hi.unwrap() >= 1);
    }

    #[test]
    fn with_capacity_preallocates_arena() {
        let mut t: PrefixTrie<u8> = PrefixTrie::with_capacity(64);
        let base = t.node_capacity();
        assert!(base >= 65);
        // A /32 plus a /24 sharing no bits need at most 56 new nodes:
        // well within the reservation, so the arena never regrows.
        t.insert(p("10.0.0.1/32"), 1);
        t.insert(p("200.1.2.0/24"), 2);
        assert_eq!(t.node_capacity(), base);
        assert_eq!(t.lookup(a("10.0.0.1")).unwrap().1, &1);
    }

    #[test]
    fn iter_visits_every_prefix() {
        let prefixes = ["0.0.0.0/0", "1.0.0.0/8", "1.128.0.0/9", "200.1.2.0/24"];
        let t: PrefixTrie<u8> = prefixes.iter().map(|s| (p(s), 1)).collect();
        let mut seen: Vec<String> = t.iter().map(|(pfx, _)| pfx.to_string()).collect();
        seen.sort();
        let mut want: Vec<String> = prefixes.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn walker_agrees_with_lookup_in_any_order() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0u32);
        t.insert(p("3.0.0.0/11"), 1);
        t.insert(p("3.32.0.0/11"), 2);
        t.insert(p("3.33.0.0/16"), 3);
        t.insert(p("3.33.0.9/32"), 4);
        t.insert(p("10.0.0.0/8"), 5);
        t.insert(p("10.96.0.0/11"), 6);

        // Deterministic pseudo-random address stream spanning hits, misses
        // (within the default route) and repeats.
        let mut addrs: Vec<Ipv4Addr> = Vec::new();
        let mut x = 0x1234_5678u32;
        for _ in 0..512 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let base = match x % 4 {
                0 => 0x0300_0000,
                1 => 0x0320_0000,
                2 => 0x0A60_0000,
                _ => 0xC000_0000,
            };
            addrs.push(Ipv4Addr::from(base + (x >> 16 & 0xFFFF)));
        }
        addrs.push(a("3.33.0.9"));
        addrs.push(a("3.33.0.9"));

        // Unsorted: correctness must not depend on input order.
        let mut w = t.walker();
        for &addr in &addrs {
            assert_eq!(
                w.lookup(addr).map(|(pfx, v)| (pfx, *v)),
                t.lookup(addr).map(|(pfx, v)| (pfx, *v)),
                "walker diverged at {addr}"
            );
        }

        // Sorted: the intended fast path takes the same answers.
        addrs.sort();
        let mut w = t.walker();
        for &addr in &addrs {
            assert_eq!(
                w.lookup(addr).map(|(pfx, v)| (pfx, *v)),
                t.lookup(addr).map(|(pfx, v)| (pfx, *v)),
                "sorted walker diverged at {addr}"
            );
        }
    }

    #[test]
    fn walker_on_empty_trie_finds_nothing() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        let mut w = t.walker();
        assert!(w.lookup(a("1.2.3.4")).is_none());
        assert!(w.lookup(a("1.2.3.4")).is_none());
        assert!(w.lookup(a("200.0.0.1")).is_none());
    }

    #[test]
    fn walker_unshadows_when_leaving_a_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("8.0.0.0/8"), "outer");
        t.insert(p("8.8.0.0/16"), "inner");
        let mut w = t.walker();
        assert_eq!(w.lookup(a("8.8.1.1")).unwrap().1, &"inner");
        // Next address shares only /8: the /16 candidate must be dropped.
        assert_eq!(w.lookup(a("8.9.1.1")).unwrap().1, &"outer");
        assert_eq!(w.lookup(a("8.8.2.2")).unwrap().1, &"inner");
        assert!(w.lookup(a("9.0.0.1")).is_none());
    }

    #[test]
    fn node_accounting_and_shrink() {
        let mut t: PrefixTrie<u8> = PrefixTrie::with_capacity(1024);
        assert_eq!(t.node_count(), 1, "root only");
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.node_count(), 9, "root + one node per prefix bit");
        let peak = t.approx_bytes();
        t.shrink_to_fit();
        assert!(t.approx_bytes() <= peak);
        assert!(t.node_capacity() >= t.node_count());
        // Shrinking is purely an allocation affair: lookups are unchanged.
        assert_eq!(t.lookup(a("10.1.1.1")).unwrap().1, &1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = PrefixTrie::new();
        t.insert(p("20.0.0.0/8"), vec![1]);
        t.get_mut(p("20.0.0.0/8")).unwrap().push(2);
        assert_eq!(t.get(p("20.0.0.0/8")), Some(&vec![1, 2]));
    }
}
