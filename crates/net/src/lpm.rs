use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::{Prefix, PrefixTrie};

/// Number of direct-index root slots: one per possible /16.
const ROOT_SLOTS: usize = 1 << 16;

/// Tag bit distinguishing child pointers from leaf results in a slot entry.
const CHILD_FLAG: u32 = 0x8000_0000;

/// Leaf result meaning "no stored prefix covers this address".
const NO_MATCH: u32 = 0x7FFF_FFFF;

/// Addresses [`FrozenLpm::lookup_values`] walks abreast.
const LANES: usize = 32;

/// Below this many addresses a column takes the scalar walk: the level
/// passes cost a fixed set-up per chunk and need several lanes' misses in
/// flight to win it back (`BENCH_lpm.json`'s `frozen_batch_short` row holds
/// the scalar side of the line; DESIGN §17 "Column walk" has the sweep).
const SHORT_COLUMN: usize = 6;

/// A frozen, cache-dense longest-prefix-match structure compiled from a
/// [`PrefixTrie`].
///
/// The dynamic trie resolves one *bit* per node — up to 32 dependent loads
/// per address. `FrozenLpm` trades mutability for density: a direct-index
/// root table covers the first 16 address bits in a single load, and the
/// remaining bits resolve through at most two stride-8 nodes laid out in
/// contiguous arrays (tree-bitmap style: a 256-bit child bitmap selects
/// sub-nodes, a 256-bit run bitmap compresses the leaf-pushed results).
/// The longest chain is six dependent loads over four arrays, however many
/// prefixes are stored: `root → nodes → leaves → nodes → leaves → values`
/// for an address under a prefix longer than /24, four (`root → nodes →
/// leaves → values`) under a /17–/24, two (`root → values`) otherwise. A
/// node is 80 bytes; visiting one is a load of it, one popcount (a dozen
/// ALU operations: the baseline x86-64 build has no `popcnt` instruction)
/// and a load from `leaves` — about 8 ns with the whole table in L1, which
/// the memory of a 100 000-prefix table roughly doubles.
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
///
/// `child_before[w]` and `leaf_before[w]` are the set bits of the bitmap's
/// words below `w` (≤ 192, so a byte each), so a rank is one table read
/// plus the popcount of one masked word ([`LpmNode::locate`]) instead of
/// a popcount per word. 80 bytes in all.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LpmNode {
    child_bitmap: [u64; 4],
    leaf_bitmap: [u64; 4],
    child_base: u32,
    leaf_base: u32,
    child_before: [u8; 4],
    leaf_before: [u8; 4],
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

    /// The scalar walk: the index of the most specific stored prefix
    /// containing `bits`, one dependent load after another.
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

    /// The column walk: what [`FrozenLpm::resolve_index`] finds for up to
    /// [`LANES`] addresses at once (a leaf result each: an index into
    /// `values`, or [`NO_MATCH`]), a level at a time — every lane's root
    /// read, then for each of the two node levels the lanes still holding
    /// a child pointer are compacted, ranked within their nodes and read
    /// from the leaf array, each in a pass of its own. The loads of one
    /// pass do not depend on each other, so their cache misses overlap
    /// where the scalar walk waits out each lane's chain before starting
    /// the next.
    fn resolve_entries(&self, addrs: &[u32], entries: &mut [u32]) {
        // Only what a pass wrote is read back.
        let mut descending = [0u8; LANES];
        let mut located = [0u32; LANES];
        for (entry, &bits) in entries.iter_mut().zip(addrs) {
            *entry = self.root[(bits >> 16) as usize];
        }
        for shift in [8, 0] {
            // Branch-free compaction: every lane writes its number, the
            // cursor advances past it only if the lane descends.
            let mut count = 0;
            for (lane, entry) in entries.iter().enumerate() {
                descending[count] = lane as u8;
                count += (entry >> 31) as usize;
            }
            if count == 0 {
                break;
            }
            let descending = &descending[..count];
            for (at, &lane) in located.iter_mut().zip(descending) {
                let lane = usize::from(lane);
                let node = &self.nodes[(entries[lane] & !CHILD_FLAG) as usize];
                *at = node.locate((addrs[lane] >> shift) & 0xFF);
            }
            for (&at, &lane) in located.iter().zip(descending) {
                entries[usize::from(lane)] = settle(at, &self.leaves);
            }
        }
    }

    /// Value-only lookup of a whole source-address column: `found(i,
    /// result)` is invoked once per address, in order, with what
    /// [`FrozenLpm::lookup_value_bits`] returns for it — the batch feed of
    /// the grouped phase-A classification. No sort is needed and nothing
    /// is allocated.
    ///
    /// The column is taken 32 addresses at a time (a NetFlow v5 datagram's
    /// 30 records are one chunk) and each chunk walked by level, so the
    /// cache misses of its lookups overlap. A column shorter than six
    /// addresses — a timeout-flushed exporter's datagram of one to three
    /// records — has nothing to overlap and takes the scalar walk instead.
    pub fn lookup_values<'a, F>(&'a self, addrs: &[u32], mut found: F)
    where
        F: FnMut(usize, Option<&'a V>),
    {
        if addrs.len() < SHORT_COLUMN {
            for (i, &bits) in addrs.iter().enumerate() {
                found(i, self.lookup_value_bits(bits));
            }
            return;
        }
        for (chunk, addrs) in addrs.chunks(LANES).enumerate() {
            let mut entries = [NO_MATCH; LANES];
            let entries = &mut entries[..addrs.len()];
            self.resolve_entries(addrs, entries);
            for (lane, &entry) in entries.iter().enumerate() {
                let value = (entry != NO_MATCH).then(|| &self.values[entry as usize]);
                found(chunk * LANES + lane, value);
            }
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
        LpmNode::new([0; 4], [0; 4], 0, 0)
    }

    /// A node over the two bitmaps, with their cumulative counts.
    fn new(
        child_bitmap: [u64; 4],
        leaf_bitmap: [u64; 4],
        child_base: u32,
        leaf_base: u32,
    ) -> LpmNode {
        LpmNode {
            child_bitmap,
            leaf_bitmap,
            child_base,
            leaf_base,
            child_before: ones_before(&child_bitmap),
            leaf_before: ones_before(&leaf_bitmap),
        }
    }

    /// Where one slot (0..=255) leads: a child pointer (tagged with
    /// [`CHILD_FLAG`]) or the index of its result in `leaves`. The one rank
    /// routine of every lookup: one popcount and no loop, whichever word
    /// the slot falls in.
    #[inline]
    fn locate(&self, slot: u32) -> u32 {
        let word = (slot >> 6) as usize & 3;
        let bit = slot & 63;
        let is_child = (self.child_bitmap[word] >> bit) & 1 != 0;
        // Both ranks are "set bits at or below the slot, less one": the
        // slot's own child bit is set when the child rank is wanted, and
        // leaf ranks are 1-based.
        let (bitmap, before, base, tag) = if is_child {
            (
                &self.child_bitmap,
                &self.child_before,
                self.child_base,
                CHILD_FLAG,
            )
        } else {
            (&self.leaf_bitmap, &self.leaf_before, self.leaf_base, 0)
        };
        let at_or_below = u64::MAX >> (63 - bit);
        let rank = u32::from(before[word]) + (bitmap[word] & at_or_below).count_ones();
        tag | (base + rank - 1)
    }

    /// Resolves one slot: a child pointer (tagged) or the leaf result.
    #[inline]
    fn resolve(&self, slot: u32, leaves: &[u32]) -> u32 {
        settle(self.locate(slot), leaves)
    }
}

/// What [`LpmNode::locate`] found, read: a child pointer stays as it is, a
/// leaf index becomes the result stored there.
#[inline]
fn settle(at: u32, leaves: &[u32]) -> u32 {
    if at & CHILD_FLAG != 0 {
        at
    } else {
        leaves[at as usize]
    }
}

/// Set bits of `bitmap` in the words below each word.
fn ones_before(bitmap: &[u64; 4]) -> [u8; 4] {
    let mut before = [0u8; 4];
    for w in 1..4 {
        before[w] = before[w - 1] + bitmap[w - 1].count_ones() as u8;
    }
    before
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

    nodes[node as usize] = LpmNode::new(child_bitmap, leaf_bitmap, child_base, leaf_base);
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

    /// 256 adjacent /24s under `10.10.0.0/16`, the i-th holding `i`.
    fn dense_siblings() -> FrozenLpm<u32> {
        let mut trie = PrefixTrie::new();
        for i in 0..256u32 {
            trie.insert(Prefix::new(Ipv4Addr::from(0x0A0A_0000 + (i << 8)), 24), i);
        }
        FrozenLpm::compile(&trie)
    }

    #[test]
    fn dense_sibling_runs_compress() {
        // 256 adjacent /24s under one /16 collapse into one depth-16 node
        // with 256 runs — and no depth-24 nodes at all.
        let lpm = dense_siblings();
        assert_eq!(lpm.node_count(), 1);
        for i in 0..256u32 {
            let addr = Ipv4Addr::from(0x0A0A_0000 + (i << 8) + 77);
            assert_eq!(lpm.lookup(addr).map(|(_, v)| *v), Some(i));
        }
    }

    /// The first and last slot of every bitmap word a cumulative count
    /// changes at.
    const WORD_EDGES: [u32; 6] = [0, 63, 64, 191, 192, 255];

    /// [`LpmNode::locate`] the slow way: one bit at a time.
    fn locate_by_counting(node: &LpmNode, slot: u32) -> u32 {
        let set = |bitmap: &[u64; 4], s: u32| (bitmap[(s >> 6) as usize] >> (s & 63)) & 1 != 0;
        if set(&node.child_bitmap, slot) {
            let below = (0..slot).filter(|&s| set(&node.child_bitmap, s)).count();
            CHILD_FLAG | (node.child_base + below as u32)
        } else {
            let up_to = (0..=slot).filter(|&s| set(&node.leaf_bitmap, s)).count();
            node.leaf_base + up_to as u32 - 1
        }
    }

    #[test]
    fn locate_ranks_a_node_of_256_runs() {
        let lpm = dense_siblings();
        let node = &lpm.nodes[0];
        assert_eq!(node.leaf_before, [0, 64, 128, 192]);
        for slot in WORD_EDGES {
            let at = node.locate(slot);
            assert_eq!(at, node.leaf_base + slot, "slot {slot} is its own run");
            assert_eq!(lpm.values[lpm.leaves[at as usize] as usize], slot);
        }
        for slot in 0..256 {
            assert_eq!(node.locate(slot), locate_by_counting(node, slot));
        }
    }

    #[test]
    fn locate_ranks_children_in_every_word() {
        // A host route under each edge slot of `10.10.0.0/16`: six
        // children, at least one per bitmap word, over the single run of
        // the covering /16's result.
        let mut trie = PrefixTrie::new();
        trie.insert(p("10.10.0.0/16"), 1000u32);
        for slot in WORD_EDGES {
            trie.insert(
                Prefix::host(Ipv4Addr::from(0x0A0A_0001 + (slot << 8))),
                slot,
            );
        }
        let lpm = FrozenLpm::compile(&trie);
        let node = &lpm.nodes[(lpm.root[0x0A0A] & !CHILD_FLAG) as usize];
        assert_eq!(node.child_before, [0, 2, 3, 4]);
        for (rank, slot) in WORD_EDGES.into_iter().enumerate() {
            assert_eq!(
                node.locate(slot),
                CHILD_FLAG | (node.child_base + rank as u32)
            );
            let host = Ipv4Addr::from(0x0A0A_0001 + (slot << 8));
            assert_eq!(lpm.lookup(host).map(|(_, v)| *v), Some(slot));
            assert_parity(&trie, &lpm, Ipv4Addr::from(u32::from(host) + 1));
        }
        for slot in 0..256 {
            assert_eq!(node.locate(slot), locate_by_counting(node, slot));
            assert_eq!(
                node.resolve(slot, &lpm.leaves) & CHILD_FLAG == 0,
                !WORD_EDGES.contains(&slot)
            );
        }
    }
}
