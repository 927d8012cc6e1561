use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::{Prefix, PrefixTrie};

/// Number of direct-index root slots: one per possible /16.
const ROOT_SLOTS: usize = 1 << 16;

/// Tag bit distinguishing child pointers from leaf results in a slot entry.
const CHILD_FLAG: u32 = 0x8000_0000;

/// Leaf result meaning "no stored prefix covers this address".
const NO_MATCH: u32 = 0x7FFF_FFFF;

/// A frozen, cache-dense longest-prefix-match structure compiled from a
/// [`PrefixTrie`].
///
/// The dynamic trie resolves one *bit* per node — up to 32 dependent loads
/// per address. `FrozenLpm` trades mutability for density: a direct-index
/// root table covers the first 16 address bits in a single load, and the
/// remaining bits resolve through at most two stride-8 nodes laid out in
/// contiguous arrays (tree-bitmap style: a 256-bit child bitmap selects
/// sub-nodes, a 256-bit run bitmap compresses the leaf-pushed results).
/// Any IPv4 lookup therefore costs at most three table touches before the
/// final value read, regardless of how many prefixes are stored.
///
/// The intended pattern: fill a [`PrefixTrie`], build the table readers
/// classify against with [`FrozenLpm::compile`] (boot, reload), and drop
/// the trie — the frozen table is then the only copy. Single changes are
/// patched into it with [`FrozenLpm::insert`] — O(one /16 subtree), not
/// O(table). Either way results are identical to [`PrefixTrie::lookup`] on
/// the equivalent trie for every address, including default routes, host
/// routes, and shadowed nested prefixes.
///
/// # Examples
///
/// ```
/// use infilter_net::{FrozenLpm, PrefixTrie};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = PrefixTrie::new();
/// t.insert("0.0.0.0/0".parse()?, 0u32);
/// t.insert("10.0.0.0/8".parse()?, 1);
/// t.insert("10.96.0.0/11".parse()?, 2);
///
/// let lpm = FrozenLpm::compile(&t);
/// assert_eq!(lpm.lookup("10.100.1.1".parse()?).map(|(_, v)| *v), Some(2));
/// assert_eq!(lpm.lookup("10.1.1.1".parse()?).map(|(_, v)| *v), Some(1));
/// assert_eq!(lpm.lookup("11.1.1.1".parse()?).map(|(_, v)| *v), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrozenLpm<V> {
    /// Direct-index table over the top 16 address bits. Each entry is
    /// either a leaf result (index into `values`, or [`NO_MATCH`]) or, with
    /// [`CHILD_FLAG`] set, an index into `nodes`.
    root: Vec<u32>,
    /// Stride-8 interior nodes; the children of one node are contiguous.
    nodes: Vec<LpmNode>,
    /// Run-compressed leaf results for all nodes, concatenated.
    leaves: Vec<u32>,
    /// The stored prefixes, parallel to `values`. Split from the values so
    /// value-only lookups touch a dense value column and pay no padding.
    prefixes: Vec<Prefix>,
    /// The stored values leaf results index into.
    values: Vec<V>,
    /// `prefixes[..sorted]` are in canonical `(bits, len)` order, as
    /// [`FrozenLpm::compile`] lays them down; [`FrozenLpm::insert`] appends
    /// behind them so existing leaf results stay valid.
    sorted: usize,
    /// Indices of the appended entries in canonical order: what
    /// [`FrozenLpm::iter`] merges with the sorted run.
    tail: Vec<u32>,
    /// Nodes and leaf words no lookup can reach any more (subtrees that
    /// [`FrozenLpm::insert`] replaced). Compacted away once they outweigh
    /// the reachable ones.
    dead_nodes: usize,
    dead_leaves: usize,
}

/// Canonical entry order: by network bits, shorter (covering) prefix first.
fn key(p: Prefix) -> (u32, u8) {
    (p.bits(), p.len())
}

/// One stride-8 node: 256 logical slots compressed behind two bitmaps.
///
/// A set bit in `child_bitmap` means the slot descends into
/// `nodes[child_base + rank]` (rank = set child bits below the slot). All
/// other slots resolve to `leaves[leaf_base + rank - 1]` where rank counts
/// `leaf_bitmap` bits at or below the slot: a set bit marks the start of a
/// run of equal leaf-pushed results, so only run boundaries are stored.
/// Bit 0 of `leaf_bitmap` is always set, making every leaf rank ≥ 1.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LpmNode {
    child_bitmap: [u64; 4],
    leaf_bitmap: [u64; 4],
    child_base: u32,
    leaf_base: u32,
}

/// A prefix flattened for compilation: `(network bits, length, result)`.
type Entry = (u32, u8, u32);

/// A node waiting to be filled during the breadth-first build: its
/// preallocated index, the depth its slots start at (16 or 24), the
/// entries with prefixes longer than `depth` under its byte path, and the
/// leaf-pushed best match inherited from shallower levels.
struct Pending {
    node: u32,
    depth: u8,
    entries: Vec<Entry>,
    inherited: u32,
}

impl<V: Clone> FrozenLpm<V> {
    /// Compiles the trie's current contents into a frozen structure.
    ///
    /// Cost is O(prefixes · log prefixes) for the sort plus O(expanded
    /// slots) for the stride tables — tens of milliseconds at 100 000
    /// prefixes — which the read/write split pays at boot and reload;
    /// single changes go through [`FrozenLpm::insert`].
    pub fn compile(trie: &PrefixTrie<V>) -> FrozenLpm<V> {
        FrozenLpm::from_pairs(trie.iter().map(|(p, v)| (p, v.clone())).collect())
    }
}

impl<V> FrozenLpm<V> {
    /// Builds the canonical structure over `pairs` (distinct prefixes, any
    /// order): the one layout every table with these contents compiles to.
    fn from_pairs(mut pairs: Vec<(Prefix, V)>) -> FrozenLpm<V> {
        pairs.sort_unstable_by_key(|(p, _)| key(*p));
        // Prefix bits are canonical (host bits zero), so sorting by bits
        // groups every subtree into one contiguous range.
        let entries: Vec<Entry> = pairs
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (p.bits(), p.len(), i as u32))
            .collect();
        let (prefixes, values): (Vec<Prefix>, Vec<V>) = pairs.into_iter().unzip();

        let mut root = vec![NO_MATCH; ROOT_SLOTS];
        // Prefixes of length ≤ 16 paint ranges of root slots, shortest
        // first so more-specific prefixes override.
        let mut covering: Vec<Entry> = entries.iter().filter(|e| e.1 <= 16).copied().collect();
        covering.sort_unstable_by_key(|e| e.1);
        for (bits, len, result) in covering {
            let start = (bits >> 16) as usize;
            let span = 1usize << (16 - len);
            root[start..start + span].fill(result);
        }

        let mut nodes: Vec<LpmNode> = Vec::new();
        let mut leaves: Vec<u32> = Vec::new();
        let mut queue: VecDeque<Pending> = VecDeque::new();

        // Prefixes longer than 16 bits each belong to exactly one root
        // slot; contiguous runs of the sorted entries share it.
        let mut longer = entries.iter().filter(|e| e.1 > 16).copied().peekable();
        while let Some(&(bits, _, _)) = longer.peek() {
            let slot = (bits >> 16) as usize;
            let mut group = Vec::new();
            while let Some(&e) = longer.peek() {
                if (e.0 >> 16) as usize != slot {
                    break;
                }
                group.push(e);
                longer.next();
            }
            let node = nodes.len() as u32;
            nodes.push(LpmNode::placeholder());
            queue.push_back(Pending {
                node,
                depth: 16,
                entries: group,
                inherited: root[slot],
            });
            root[slot] = CHILD_FLAG | node;
        }
        fill_queued(queue, &mut nodes, &mut leaves);

        nodes.shrink_to_fit();
        leaves.shrink_to_fit();
        FrozenLpm {
            root,
            nodes,
            leaves,
            sorted: prefixes.len(),
            prefixes,
            values,
            tail: Vec::new(),
            dead_nodes: 0,
            dead_leaves: 0,
        }
    }

    /// Stores `value` under `prefix`, returning the value it replaces if
    /// the prefix was already stored (as [`PrefixTrie::insert`] does).
    /// Afterwards every lookup answers exactly as a [`FrozenLpm::compile`]
    /// of the equivalent trie would.
    ///
    /// A replaced value is one store. A new prefix longer than /16 rebuilds
    /// only the /16 root slot's subtree it falls under — the entries there,
    /// a few hundred slots — and appends it; the subtree it supersedes
    /// stays behind as garbage until it outweighs the reachable nodes, at
    /// which point (and for the rare new prefix of /16 or shorter, which
    /// repaints root ranges) the whole structure is rebuilt canonically.
    /// That makes the cost amortised O(subtree), independent of table size.
    ///
    /// # Examples
    ///
    /// ```
    /// use infilter_net::{FrozenLpm, PrefixTrie};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut t = PrefixTrie::new();
    /// t.insert("10.0.0.0/8".parse()?, 1u32);
    /// let mut lpm = FrozenLpm::compile(&t);
    ///
    /// assert_eq!(lpm.insert("10.1.2.3/32".parse()?, 2), None);
    /// assert_eq!(lpm.lookup("10.1.2.3".parse()?).map(|(_, v)| *v), Some(2));
    /// assert_eq!(lpm.lookup("10.1.2.4".parse()?).map(|(_, v)| *v), Some(1));
    /// assert_eq!(lpm.insert("10.1.2.3/32".parse()?, 3), Some(2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        if let Some(i) = self.find(prefix) {
            return Some(std::mem::replace(&mut self.values[i], value));
        }
        let index = self.values.len() as u32;
        self.prefixes.push(prefix);
        self.values.push(value);
        if prefix.len() <= 16 {
            self.rebuild();
            return None;
        }
        let at = self
            .tail
            .partition_point(|&i| key(self.prefixes[i as usize]) < key(prefix));
        self.tail.insert(at, index);

        // The slot's entries with its new member: one contiguous range of
        // the sorted run plus one of the tail.
        let slot = (prefix.bits() >> 16) as usize;
        let (lo, hi) = ((slot as u64) << 16, (slot as u64 + 1) << 16);
        let sorted = &self.prefixes[..self.sorted];
        let in_sorted = |limit: u64| sorted.partition_point(|p| u64::from(p.bits()) < limit);
        let in_tail = |limit: u64| {
            self.tail
                .partition_point(|&i| u64::from(self.prefixes[i as usize].bits()) < limit)
        };
        let mut entries: Vec<Entry> = (in_sorted(lo) as u32..in_sorted(hi) as u32)
            .chain(self.tail[in_tail(lo)..in_tail(hi)].iter().copied())
            .map(|i| {
                let p = self.prefixes[i as usize];
                (p.bits(), p.len(), i)
            })
            .filter(|e| e.1 > 16)
            .collect();
        entries.sort_unstable_by_key(|e| (e.0, e.1));

        // What the slot resolves to before any of `entries` applies. A leaf
        // slot holds it; a child pointer overwrote it, so search for it.
        let old = self.root[slot];
        let inherited = if old & CHILD_FLAG == 0 {
            old
        } else {
            let (nodes, leaves) = self.subtree_size(old & !CHILD_FLAG);
            self.dead_nodes += nodes;
            self.dead_leaves += leaves;
            let network = Ipv4Addr::from(prefix.bits());
            (0..=16)
                .rev()
                .find_map(|len| self.find(Prefix::new(network, len)))
                .map_or(NO_MATCH, |i| i as u32)
        };

        let node = self.nodes.len() as u32;
        self.nodes.push(LpmNode::placeholder());
        let queue = VecDeque::from([Pending {
            node,
            depth: 16,
            entries,
            inherited,
        }]);
        fill_queued(queue, &mut self.nodes, &mut self.leaves);
        self.root[slot] = CHILD_FLAG | node;

        if self.dead_bytes() > self.node_bytes() - self.dead_bytes() {
            self.rebuild();
        }
        None
    }

    /// Replaces `self` with the canonical structure over its own entries:
    /// garbage gone, everything back in the sorted run.
    fn rebuild(&mut self) {
        let prefixes = std::mem::take(&mut self.prefixes);
        let values = std::mem::take(&mut self.values);
        *self = FrozenLpm::from_pairs(prefixes.into_iter().zip(values).collect());
    }

    /// The index `prefix` is stored at, if it is stored.
    fn find(&self, prefix: Prefix) -> Option<usize> {
        let want = key(prefix);
        let sorted = &self.prefixes[..self.sorted];
        sorted
            .binary_search_by_key(&want, |p| key(*p))
            .ok()
            .or_else(|| {
                let stored = |&i: &u32| key(self.prefixes[i as usize]);
                let at = self.tail.binary_search_by_key(&want, stored).ok()?;
                Some(self.tail[at] as usize)
            })
    }

    /// Nodes and leaf words in the subtree rooted at `node`.
    fn subtree_size(&self, node: u32) -> (usize, usize) {
        let n = &self.nodes[node as usize];
        let ones = |bitmap: &[u64; 4]| bitmap.iter().map(|w| w.count_ones()).sum::<u32>();
        (0..ones(&n.child_bitmap)).fold((1, ones(&n.leaf_bitmap) as usize), |size, child| {
            let (nodes, leaves) = self.subtree_size(n.child_base + child);
            (size.0 + nodes, size.1 + leaves)
        })
    }

    /// Bytes of the node and leaf arrays, garbage included.
    fn node_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<LpmNode>()
            + self.leaves.len() * std::mem::size_of::<u32>()
    }

    /// The part of [`FrozenLpm::node_bytes`] no lookup can reach.
    fn dead_bytes(&self) -> usize {
        self.dead_nodes * std::mem::size_of::<LpmNode>()
            + self.dead_leaves * std::mem::size_of::<u32>()
    }

    /// Longest-prefix match for `addr`: the most specific stored prefix
    /// containing it, with its value. Identical to [`PrefixTrie::lookup`]
    /// on the source trie.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        self.lookup_bits(u32::from(addr))
    }

    /// [`FrozenLpm::lookup`] over the raw big-endian address bits — the
    /// form batch pipelines carry in their source-address columns.
    #[inline]
    pub fn lookup_bits(&self, bits: u32) -> Option<(Prefix, &V)> {
        let i = self.resolve_index(bits)?;
        Some((self.prefixes[i], &self.values[i]))
    }

    /// Value-only [`FrozenLpm::lookup_bits`]: skips the matched-prefix read,
    /// so hot paths that only consume the value touch one array fewer.
    #[inline]
    pub fn lookup_value_bits(&self, bits: u32) -> Option<&V> {
        self.resolve_index(bits).map(|i| &self.values[i])
    }

    /// The index of the most specific stored prefix containing `bits`.
    #[inline]
    fn resolve_index(&self, bits: u32) -> Option<usize> {
        let mut entry = self.root[(bits >> 16) as usize];
        if entry & CHILD_FLAG != 0 {
            let node = &self.nodes[(entry & !CHILD_FLAG) as usize];
            entry = node.resolve((bits >> 8) & 0xFF, &self.leaves);
            if entry & CHILD_FLAG != 0 {
                let node = &self.nodes[(entry & !CHILD_FLAG) as usize];
                entry = node.resolve(bits & 0xFF, &self.leaves);
                // A depth-24 node covers address bits 24..32: nothing is
                // deeper than a /32, so this entry is always a leaf.
                debug_assert_eq!(entry & CHILD_FLAG, 0);
            }
        }
        if entry == NO_MATCH {
            None
        } else {
            Some(entry as usize)
        }
    }

    /// Resolves a whole source-address column, invoking `found(i, result)`
    /// for each address in order — the batch feed for grouped phase-A
    /// classification. No sort is needed: every lookup is O(1) memory
    /// touches, so input order does not affect cost.
    pub fn lookup_batch<'a, F>(&'a self, addrs: &[u32], mut found: F)
    where
        F: FnMut(usize, Option<(Prefix, &'a V)>),
    {
        for (i, &bits) in addrs.iter().enumerate() {
            found(i, self.lookup_bits(bits));
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the structure holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Stride-8 interior nodes allocated below the root table (including
    /// any [`FrozenLpm::insert`] has superseded but not yet compacted).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident bytes across all arrays (the fixed 256 KiB
    /// root table, nodes, compressed leaves, stored prefixes and values).
    /// Counts what is allocated, so subtrees [`FrozenLpm::insert`] has
    /// superseded but not yet compacted are included — at most as much
    /// again as the reachable nodes and leaves.
    pub fn approx_bytes(&self) -> usize {
        (self.root.len() + self.tail.len()) * std::mem::size_of::<u32>()
            + self.node_bytes()
            + self.prefixes.len() * std::mem::size_of::<Prefix>()
            + self.values.len() * std::mem::size_of::<V>()
    }

    /// Iterates over all stored `(prefix, value)` pairs in canonical
    /// address order, however they got in: the sorted run merged with the
    /// inserted tail.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut sorted = (0..self.sorted).peekable();
        let mut tail = self.tail.iter().map(|&i| i as usize).peekable();
        std::iter::from_fn(move || {
            let i = match (sorted.peek(), tail.peek()) {
                (Some(&s), Some(&t)) if key(self.prefixes[t]) < key(self.prefixes[s]) => {
                    tail.next()
                }
                (Some(_), _) => sorted.next(),
                (None, _) => tail.next(),
            }?;
            Some((self.prefixes[i], &self.values[i]))
        })
    }
}

/// Two structures are equal when they hold the same table: the same
/// `(prefix, value)` entries, however each was built. (Compiled tables with
/// equal entries are also bit-identical; patched ones carry garbage and an
/// insertion-ordered tail that say nothing about the table.)
impl<V: PartialEq> PartialEq for FrozenLpm<V> {
    fn eq(&self, other: &FrozenLpm<V>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for FrozenLpm<V> {}

impl<V: Clone> From<&PrefixTrie<V>> for FrozenLpm<V> {
    fn from(trie: &PrefixTrie<V>) -> FrozenLpm<V> {
        FrozenLpm::compile(trie)
    }
}

impl LpmNode {
    fn placeholder() -> LpmNode {
        LpmNode {
            child_bitmap: [0; 4],
            leaf_bitmap: [0; 4],
            child_base: 0,
            leaf_base: 0,
        }
    }

    /// Resolves one slot: a child pointer (tagged) or the leaf result.
    #[inline]
    fn resolve(&self, slot: u32, leaves: &[u32]) -> u32 {
        let word = (slot >> 6) as usize;
        let bit = slot & 63;
        let below = 1u64.wrapping_shl(bit) - 1;
        if self.child_bitmap[word] & (1 << bit) != 0 {
            let mut rank = (self.child_bitmap[word] & below).count_ones();
            for w in 0..word {
                rank += self.child_bitmap[w].count_ones();
            }
            CHILD_FLAG | (self.child_base + rank)
        } else {
            // Run-start ranks: bits at or below the slot. Bit 0 is always
            // set, so the rank is ≥ 1 for every slot.
            let mut rank = (self.leaf_bitmap[word] & below).count_ones();
            rank += ((self.leaf_bitmap[word] >> bit) & 1) as u32;
            for w in 0..word {
                rank += self.leaf_bitmap[w].count_ones();
            }
            leaves[(self.leaf_base + rank - 1) as usize]
        }
    }
}

/// Fills every queued node, and the children each one queues in turn.
fn fill_queued(mut queue: VecDeque<Pending>, nodes: &mut Vec<LpmNode>, leaves: &mut Vec<u32>) {
    while let Some(p) = queue.pop_front() {
        fill_node(p, nodes, leaves, &mut queue);
    }
}

/// Fills one queued node: expands its 256 slots from the inherited result
/// plus covering prefixes (leaf pushing), splits off child groups for
/// still-longer prefixes, and run-compresses the slots into the shared
/// leaf array. Children are appended contiguously and queued.
fn fill_node(
    p: Pending,
    nodes: &mut Vec<LpmNode>,
    leaves: &mut Vec<u32>,
    queue: &mut VecDeque<Pending>,
) {
    let Pending {
        node,
        depth,
        entries,
        inherited,
    } = p;
    // This node's slots cover address bits [depth, depth + 8).
    let shift = 24 - depth; // byte position of the slot index within bits
    let mut result = [inherited; 256];

    // Covering prefixes (length ≤ depth + 8) paint slot ranges, shortest
    // first so deeper prefixes override — the same leaf-pushing rule the
    // root table uses.
    let mut covering: Vec<Entry> = entries
        .iter()
        .filter(|e| e.1 <= depth + 8)
        .copied()
        .collect();
    covering.sort_unstable_by_key(|e| e.1);
    for (bits, len, res) in covering {
        let start = ((bits >> shift) & 0xFF) as usize;
        let span = 1usize << (depth + 8 - len);
        result[start..start + span].fill(res);
    }

    // Longer prefixes each belong to exactly one slot; sorted order keeps
    // same-slot entries contiguous in the filtered subsequence.
    let mut child_bitmap = [0u64; 4];
    let child_base = nodes.len() as u32;
    let mut longer = entries
        .iter()
        .filter(|e| e.1 > depth + 8)
        .copied()
        .peekable();
    while let Some(&(bits, _, _)) = longer.peek() {
        let slot = ((bits >> shift) & 0xFF) as usize;
        let mut group = Vec::new();
        while let Some(&e) = longer.peek() {
            if ((e.0 >> shift) & 0xFF) as usize != slot {
                break;
            }
            group.push(e);
            longer.next();
        }
        child_bitmap[slot >> 6] |= 1 << (slot & 63);
        let child = nodes.len() as u32;
        nodes.push(LpmNode::placeholder());
        queue.push_back(Pending {
            node: child,
            depth: depth + 8,
            entries: group,
            inherited: result[slot],
        });
    }

    // Run-compress the expanded slots. Child slots keep their (unused)
    // leaf-pushed value in the run encoding; splitting runs on them would
    // cost leaf entries without changing any lookup.
    let leaf_base = leaves.len() as u32;
    let mut leaf_bitmap = [0u64; 4];
    let mut prev = None;
    for (slot, &res) in result.iter().enumerate() {
        if prev != Some(res) {
            leaf_bitmap[slot >> 6] |= 1 << (slot & 63);
            leaves.push(res);
            prev = Some(res);
        }
    }

    nodes[node as usize] = LpmNode {
        child_bitmap,
        leaf_bitmap,
        child_base,
        leaf_base,
    };
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

    fn frozen(prefixes: &[(&str, u32)]) -> (PrefixTrie<u32>, FrozenLpm<u32>) {
        let trie: PrefixTrie<u32> = prefixes.iter().map(|&(s, v)| (p(s), v)).collect();
        let lpm = FrozenLpm::compile(&trie);
        (trie, lpm)
    }

    fn assert_parity(trie: &PrefixTrie<u32>, lpm: &FrozenLpm<u32>, addr: Ipv4Addr) {
        assert_eq!(
            lpm.lookup(addr).map(|(pfx, v)| (pfx, *v)),
            trie.lookup(addr).map(|(pfx, v)| (pfx, *v)),
            "frozen diverged at {addr}"
        );
    }

    #[test]
    fn empty_lookup_is_none() {
        let (_, lpm) = frozen(&[]);
        assert!(lpm.lookup(a("1.2.3.4")).is_none());
        assert!(lpm.is_empty());
        assert_eq!(lpm.node_count(), 0);
    }

    #[test]
    fn short_prefixes_resolve_in_the_root_table() {
        let (trie, lpm) = frozen(&[("0.0.0.0/0", 0), ("10.0.0.0/8", 1), ("10.96.0.0/11", 2)]);
        assert_eq!(lpm.node_count(), 0, "no prefix longer than /16");
        for s in ["10.100.1.1", "10.1.1.1", "11.1.1.1", "255.255.255.255"] {
            assert_parity(&trie, &lpm, a(s));
        }
    }

    #[test]
    fn long_prefixes_descend_stride_nodes() {
        let (trie, lpm) = frozen(&[
            ("4.0.0.0/8", 8),
            ("4.2.101.0/24", 24),
            ("4.2.101.7/32", 32),
            ("4.2.101.8/32", 132),
        ]);
        assert!(lpm.node_count() >= 2);
        for s in [
            "4.2.101.7",
            "4.2.101.8",
            "4.2.101.9",
            "4.2.102.1",
            "4.3.0.1",
            "5.0.0.1",
        ] {
            assert_parity(&trie, &lpm, a(s));
        }
    }

    #[test]
    fn host_route_shadows_and_unshadows() {
        let (trie, lpm) = frozen(&[("9.0.0.0/8", 8), ("9.9.9.9/32", 32)]);
        assert_eq!(lpm.lookup(a("9.9.9.9")).unwrap().1, &32);
        assert_eq!(lpm.lookup(a("9.9.9.8")).unwrap().1, &8);
        assert_parity(&trie, &lpm, a("9.9.9.10"));
    }

    #[test]
    fn adjacent_siblings_keep_their_boundaries() {
        let (trie, lpm) = frozen(&[
            ("3.0.0.0/11", 1),
            ("3.32.0.0/11", 2),
            ("3.33.0.0/16", 3),
            ("3.33.64.0/18", 4),
            ("3.33.128.0/18", 5),
        ]);
        // Probe every /18 boundary inside the /16 plus the /11 edges.
        for bits in [
            0x0300_0000u32,
            0x031F_FFFF,
            0x0320_0000,
            0x0321_0000,
            0x0321_3FFF,
            0x0321_4000,
            0x0321_7FFF,
            0x0321_8000,
            0x0321_BFFF,
            0x0321_C000,
            0x0321_FFFF,
            0x0322_0000,
            0x033F_FFFF,
            0x0340_0000,
        ] {
            assert_parity(&trie, &lpm, Ipv4Addr::from(bits));
        }
    }

    #[test]
    fn lookup_batch_matches_scalar_lookups() {
        let (_, lpm) = frozen(&[("0.0.0.0/0", 0), ("3.0.0.0/11", 1), ("3.33.0.9/32", 2)]);
        let addrs: Vec<u32> = vec![0x0300_0101, 0x0321_0009, 0xC000_0001, 0x0321_0008];
        let mut got = Vec::new();
        lpm.lookup_batch(&addrs, |i, r| got.push((i, r.map(|(_, v)| *v))));
        let want: Vec<(usize, Option<u32>)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &b)| (i, lpm.lookup_bits(b).map(|(_, v)| *v)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn compile_reflects_later_trie_state_only_on_recompile() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("7.0.0.0/8"), 1u32);
        let lpm = FrozenLpm::compile(&trie);
        trie.insert(p("7.7.7.7/32"), 2);
        assert_eq!(lpm.lookup(a("7.7.7.7")).unwrap().1, &1, "frozen view");
        let lpm2 = FrozenLpm::compile(&trie);
        assert_eq!(lpm2.lookup(a("7.7.7.7")).unwrap().1, &2);
    }

    #[test]
    fn accounting_is_plausible() {
        let (_, lpm) = frozen(&[("3.0.0.0/11", 1), ("3.33.0.0/24", 2), ("3.33.0.9/32", 3)]);
        assert_eq!(lpm.len(), 3);
        assert_eq!(lpm.iter().count(), 3);
        // Root table dominates small structures: 64 Ki slots × 4 bytes.
        assert!(lpm.approx_bytes() >= ROOT_SLOTS * 4);
        assert!(lpm.approx_bytes() < ROOT_SLOTS * 4 + 4096);
    }

    #[test]
    fn dense_sibling_runs_compress() {
        // 256 adjacent /24s under one /16 collapse into one depth-16 node
        // with 256 runs — and no depth-24 nodes at all.
        let mut trie = PrefixTrie::new();
        for i in 0..256u32 {
            trie.insert(Prefix::new(Ipv4Addr::from(0x0A0A_0000 + (i << 8)), 24), i);
        }
        let lpm = FrozenLpm::compile(&trie);
        assert_eq!(lpm.node_count(), 1);
        for i in 0..256u32 {
            let addr = Ipv4Addr::from(0x0A0A_0000 + (i << 8) + 77);
            assert_eq!(lpm.lookup(addr).map(|(_, v)| *v), Some(i));
        }
    }
}
