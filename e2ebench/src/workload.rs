//! The seeded workload generator: wire bytes, per-flow ground truth and
//! per-datagram flow counts. The program under test receives only the bytes.
//!
//! # Address plan
//!
//! Eight peers, `PeerId(1..=8)`, NetFlow `input_if` = peer id. Ground truth
//! never consults the LPM under test, because ownership is disjoint by
//! construction:
//!
//! * peer *k* **owns** eight prefixes inside first octet `16 + k`: four /14s
//!   at `.0–.15` (where its legal traffic is sourced) and four /12s at
//!   `.64–.127` (where *other* peers' spoofed and re-homed traffic claims to
//!   come from, so no salted address ever equals a legal source);
//! * `32.0.0.0/4` is owned by nobody (random-source floods);
//! * the 100 k-prefix table adds filler in first octets `64..224`, twenty
//!   octets per peer, every prefix in a peer's octets assigned to that peer —
//!   nested covers and siblings included — so an address under any filler
//!   prefix of peer *k* is legal at *k* whichever prefix the LPM picks.
//!
//! # Lap salting
//!
//! The stream is a few tens of MB looped for a phase's flow count. Replaying
//! a spoofed source would let lap 2 adopt lap 1's flood and erode the mix,
//! so every spoofed or re-homed source is a [`SaltSite`]: before a datagram
//! is handed over on lap `L` the harness rewrites the site's four address
//! bytes to [`salted_addr`]`(region, index + L × sites_in_region)`, a
//! bijection on the region, so no lap repeats a source.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use infilter_core::PeerId;
use infilter_dagflow::{AddressMapper, Dagflow, DagflowConfig};
use infilter_net::Prefix;
use infilter_netflow::{Datagram, FlowRecord};
use infilter_traffic::{AttackKind, FlowTemplate, NormalProfile, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peers (border routers) exporting to the collector.
pub const PEERS: u16 = 8;
/// The peers attacks arrive through.
pub const ATTACK_PEERS: [u16; 2] = [1, 2];
/// Destination slots inside the target network (`NormalProfile`'s default).
const DST_SLOTS: u64 = 4096;
/// Byte offset of `src_addr` inside a v5 record, and the wire sizes.
const HEADER_LEN: usize = 24;
const RECORD_LEN: usize = 48;
/// Fixed seed of the filler table: the EIA table is deployment
/// configuration, not traffic, so it does not follow `--seed`.
const TABLE_SEED: u64 = 0x7ab1e;

/// Ground truth for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Label {
    /// Sourced from the ingress peer's own space.
    Legal = 0,
    /// Benign route change: another peer's source, normal features, never
    /// repeated. Legal by ground truth (must not be flagged `Attack`).
    Flap = 1,
    /// Benign route change that persists: the same re-homed source five
    /// times, which the collector should adopt. Legal by ground truth.
    Adopter = 2,
    /// Spoofed attack traffic.
    Attack = 3,
}

impl Label {
    /// Whether ground truth says this flow is an attack.
    pub fn is_attack(self) -> bool {
        self == Label::Attack
    }
}

/// What the traffic is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Deployment regime: 1 flow in 128 suspect, half benign flaps at any
    /// peer, half Slammer probes entering through the attack peers.
    Cruise,
    /// Attack regime: the attack peers send 60 % of datagrams, 25 of every
    /// 30 of their records spoofed (15 random-source flood, 5 host scan,
    /// 5 network scan) — half of all flows.
    Flood,
    /// Route-change regime: the `Cruise` mix, plus 1 flow in 20 re-homed
    /// with normal features, plus `adopters_per_lap` sources that persist
    /// and get adopted.
    Churn {
        /// Sources per lap that repeat five times (one adoption each).
        adopters_per_lap: usize,
    },
}

/// Shape of one workload's stream. Sizes of the phases live in
/// `harness::Plan`; this is only what the generator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Traffic mix.
    pub mix: Mix,
    /// Records per datagram, inclusive range (30 = a full v5 datagram).
    pub records: (usize, usize),
    /// Well-formed datagrams in one lap of the stream.
    pub dgrams_per_lap: usize,
    /// Insert one truncated datagram after every this many well-formed
    /// ones (0 = none).
    pub malformed_every: usize,
    /// Source half of the legal flows from under the filler prefixes, so
    /// lookups range over the whole 100 k-prefix table.
    pub spread_legal: bool,
}

/// One place in the stream whose source address is rewritten every lap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaltSite {
    /// Byte offset of the record's `src_addr` in [`Workload::bytes`].
    pub offset: u32,
    /// 0 = the unowned /4; `b` in `1..=8` = peer `b`'s spoofable /10.
    pub region: u8,
    /// The site's source number within its region (sites that must share a
    /// source — an adopter's five flows — share an index).
    pub index: u32,
}

/// A generated stream plus everything the harness needs to replay and
/// score it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Concatenated NetFlow v5 datagrams.
    pub bytes: Vec<u8>,
    /// `dgram_off[i]..dgram_off[i + 1]` is datagram `i`.
    pub dgram_off: Vec<u32>,
    /// Flow records in datagram `i` (0 for a malformed one).
    pub dgram_flows: Vec<u16>,
    /// Ground truth per flow, in stream order.
    pub labels: Vec<Label>,
    /// Salt sites, grouped by datagram.
    pub sites: Vec<SaltSite>,
    /// `dgram_sites[i]..dgram_sites[i + 1]` indexes [`Workload::sites`].
    pub dgram_sites: Vec<u32>,
    /// Distinct sources per lap in each salt region (index = region).
    pub region_sources: [u32; 9],
    /// Malformed datagrams per lap.
    pub malformed: u32,
    /// A one-record legal datagram for the boot's first verdict.
    pub prime: Vec<u8>,
}

impl Workload {
    /// Datagrams per lap, malformed ones included.
    pub fn dgrams(&self) -> usize {
        self.dgram_flows.len()
    }

    /// Flows per lap.
    pub fn flows(&self) -> u64 {
        self.labels.len() as u64
    }

    /// The bytes of datagram `i`.
    pub fn dgram(&self, i: usize) -> &[u8] {
        &self.bytes[self.dgram_off[i] as usize..self.dgram_off[i + 1] as usize]
    }

    /// Rewrites datagram `i`'s salted sources for lap `lap`.
    #[inline]
    pub fn salt(&mut self, i: usize, lap: u64) {
        let (from, to) = (
            self.dgram_sites[i] as usize,
            self.dgram_sites[i + 1] as usize,
        );
        for site in &self.sites[from..to] {
            let n =
                u64::from(site.index) + lap * u64::from(self.region_sources[site.region as usize]);
            let at = site.offset as usize;
            self.bytes[at..at + 4].copy_from_slice(&salted_addr(site.region, n).to_be_bytes());
        }
    }

    /// Laps that can be played before some region would reuse a source.
    pub fn max_laps(&self) -> u64 {
        (0..9u8)
            .filter(|&r| self.region_sources[r as usize] > 0)
            .map(|r| region_size(r) / u64::from(self.region_sources[r as usize]))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// FNV-1a over the whole byte stream (lap 0), for the determinism tests
    /// and the report.
    pub fn digest(&self) -> u64 {
        fnv1a(0xcbf2_9ce4_8422_2325, &self.bytes)
    }
}

/// FNV-1a, continued from `state`.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

fn region_base(region: u8) -> u32 {
    match region {
        0 => 32 << 24,
        b => ((16 + u32::from(b)) << 24) | (64 << 16),
    }
}

fn region_size(region: u8) -> u64 {
    match region {
        0 => 1 << 28,
        _ => 1 << 22,
    }
}

/// The `n`-th source of a salt region: an odd multiplier modulo a power of
/// two is a bijection, so distinct `n` below the region size never collide,
/// and consecutive `n` scatter across the region instead of walking it.
pub fn salted_addr(region: u8, n: u64) -> u32 {
    let scattered = n.wrapping_mul(0x9e37_79b1) & (region_size(region) - 1);
    region_base(region) + scattered as u32
}

/// Peer `k`'s legal source space: four /14s.
pub fn legal_prefixes(peer: u16) -> impl Iterator<Item = Prefix> {
    (0..4u8).map(move |j| Prefix::new(Ipv4Addr::new(16 + peer as u8, 4 * j, 0, 0), 14))
}

/// Peer `k`'s eight owned prefixes: the legal /14s plus the four /12s other
/// peers' spoofed traffic is sourced from.
pub fn owned_prefixes(peer: u16) -> impl Iterator<Item = Prefix> {
    legal_prefixes(peer).chain(
        (0..4u8).map(move |j| Prefix::new(Ipv4Addr::new(16 + peer as u8, 64 + 16 * j, 0, 0), 12)),
    )
}

/// The 64-prefix EIA table: every peer's owned prefixes.
pub fn owned_table() -> Vec<(PeerId, Prefix)> {
    (1..=PEERS)
        .flat_map(|k| owned_prefixes(k).map(move |p| (PeerId(k), p)))
        .collect()
}

/// `n` distinct filler prefixes outside owned space, in the shape of the
/// bench crate's `synthetic_peer_table` (bulk /16–/24, a few short covers,
/// trace amounts of /25–/32, a quarter spawning a nested more-specific, a
/// quarter an adjacent sibling), but with each peer confined to its own
/// twenty first-octets so ownership stays disjoint.
pub fn filler_table(n: usize) -> Vec<(PeerId, Prefix)> {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut add = |peer: u16, prefix: Prefix, out: &mut Vec<(PeerId, Prefix)>| {
        if out.len() < n && seen.insert(prefix) {
            out.push((PeerId(peer), prefix));
        }
    };
    while out.len() < n {
        let peer = rng.gen_range(1..=PEERS);
        let octet = 64 + 20 * (u32::from(peer) - 1) + rng.gen_range(0..20u32);
        let bits = (octet << 24) | (rng.gen::<u32>() >> 8);
        let len: u8 = match rng.gen_range(0..1000u32) {
            0..=49 => rng.gen_range(8..16),
            50..=979 => rng.gen_range(16..=24),
            980..=989 => rng.gen_range(25..=31),
            _ => 32,
        };
        let prefix = Prefix::new(Ipv4Addr::from(bits), len);
        add(peer, prefix, &mut out);
        if len <= 23 && rng.gen_bool(0.25) {
            let extra = rng.gen_range(1..=8).min(24 - len);
            let child = prefix.bits() ^ (rng.gen::<u32>() >> len);
            add(
                peer,
                Prefix::new(Ipv4Addr::from(child), len + extra),
                &mut out,
            );
        }
        if rng.gen_bool(0.25) {
            // Flips the last prefix bit: stays inside the first octet for
            // len > 8, and inside the peer's (even-aligned) octet run at 8.
            let sibling = prefix.bits() ^ (1u32 << (32 - len));
            add(peer, Prefix::new(Ipv4Addr::from(sibling), len), &mut out);
        }
    }
    out
}

/// What one record slot of the stream holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Legal,
    Flap,
    /// Adopter number (within the lap).
    Adopter(u32),
    Attack(AttackKind),
}

/// Endless supply of one attack's flow templates, instance after instance,
/// so a scan's probes stay adjacent in the stream the way one tool run
/// emits them.
struct AttackFeed {
    kind: AttackKind,
    pending: std::vec::IntoIter<FlowTemplate>,
}

impl AttackFeed {
    fn new(kind: AttackKind) -> AttackFeed {
        AttackFeed {
            kind,
            pending: Vec::new().into_iter(),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> FlowTemplate {
        loop {
            if let Some(t) = self.pending.next() {
                return t;
            }
            self.pending = self.kind.generate(rng, DST_SLOTS).trace.flows.into_iter();
        }
    }
}

/// The peer of each well-formed datagram in a lap.
fn peer_schedule(spec: &StreamSpec, rng: &mut StdRng) -> Vec<u16> {
    // One group is the smallest run with the exact per-peer shares; shuffling
    // inside a group keeps every ring fed evenly at every point of the lap.
    let group: Vec<u16> = match spec.mix {
        Mix::Flood => (1..=PEERS)
            .flat_map(|k| {
                let copies = if ATTACK_PEERS.contains(&k) { 9 } else { 2 };
                std::iter::repeat_n(k, copies)
            })
            .collect(),
        Mix::Cruise | Mix::Churn { .. } => (1..=PEERS).collect(),
    };
    let mut out = Vec::with_capacity(spec.dgrams_per_lap);
    while out.len() < spec.dgrams_per_lap {
        let mut g = group.clone();
        for i in (1..g.len()).rev() {
            g.swap(i, rng.gen_range(0..=i));
        }
        out.extend(g);
    }
    out.truncate(spec.dgrams_per_lap);
    out
}

/// Generates one lap of `spec`'s stream from `seed`. `filler` is the
/// 100 k-prefix table's filler part (empty for the 64-prefix workloads).
pub fn generate(spec: &StreamSpec, seed: u64, filler: &[(PeerId, Prefix)]) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe2e_be7c);
    let peers = peer_schedule(spec, &mut rng);
    let sizes: Vec<usize> = peers
        .iter()
        .map(|_| rng.gen_range(spec.records.0..=spec.records.1))
        .collect();
    let total: usize = sizes.iter().sum();

    // Slot kinds, in stream order. The attack peers send a quarter of the
    // Cruise and Churn datagrams, so one Slammer record in every
    // `64 / mean records`-th of theirs is one flow in 256.
    let slammer_stride = (128 / (spec.records.0 + spec.records.1)).max(1);
    let mut attack_dgrams = [0usize; PEERS as usize + 1];
    let mut slots = Vec::with_capacity(total);
    for (&peer, &size) in peers.iter().zip(&sizes) {
        for r in 0..size {
            let g = slots.len();
            slots.push(match spec.mix {
                // One flow in 256 is a benign flap, anywhere.
                Mix::Cruise | Mix::Churn { .. } if g % 256 == 77 => Slot::Flap,
                // About as many are Slammer probes, all entering through
                // the attack peers (a worm has an entry point): the first
                // record of every `slammer_stride`-th of their datagrams.
                Mix::Cruise | Mix::Churn { .. }
                    if r == 0 && ATTACK_PEERS.contains(&peer) && {
                        let seen = &mut attack_dgrams[peer as usize];
                        *seen += 1;
                        *seen % slammer_stride == 0
                    } =>
                {
                    Slot::Attack(AttackKind::Slammer)
                }
                Mix::Churn { .. } if g % 20 == 7 => Slot::Flap,
                Mix::Flood if ATTACK_PEERS.contains(&peer) => match r {
                    0..=14 => Slot::Attack(AttackKind::Tfn2k),
                    15..=19 => Slot::Attack(AttackKind::HostScan),
                    20..=24 => Slot::Attack(AttackKind::NetworkScan),
                    _ => Slot::Legal,
                },
                _ => Slot::Legal,
            });
        }
    }
    if let Mix::Churn { adopters_per_lap } = spec.mix {
        place_adopters(&mut slots, &peers, &sizes, adopters_per_lap);
    }

    // Templates, then records through one Dagflow per peer (which stamps
    // input_if, the target-network destination and a legal source).
    let legal_needed = slots
        .iter()
        .filter(|s| !matches!(s, Slot::Attack(_)))
        .count();
    let mut normal = NormalProfile::default()
        .generate(&mut rng, legal_needed, 60_000)
        .flows
        .into_iter();
    let mut feeds = [
        AttackFeed::new(AttackKind::Slammer),
        AttackFeed::new(AttackKind::Tfn2k),
        AttackFeed::new(AttackKind::HostScan),
        AttackFeed::new(AttackKind::NetworkScan),
    ];
    let mut per_peer: Vec<Vec<FlowTemplate>> = vec![Vec::new(); PEERS as usize + 1];
    let mut slot = slots.iter();
    for (&peer, &size) in peers.iter().zip(&sizes) {
        for _ in 0..size {
            let template = match slot.next().expect("one slot per record") {
                Slot::Attack(kind) => feeds
                    .iter_mut()
                    .find(|f| f.kind == *kind)
                    .expect("a feed per attack kind in the mixes")
                    .next(&mut rng),
                _ => normal
                    .next()
                    .expect("one normal template per non-attack slot"),
            };
            let queue = &mut per_peer[peer as usize];
            // `Trace` order is start-time order; numbering keeps ours.
            queue.push(FlowTemplate {
                start_ms: queue.len() as u64,
                ..template
            });
        }
    }
    let mut records: Vec<std::vec::IntoIter<FlowRecord>> = per_peer
        .into_iter()
        .enumerate()
        .map(|(peer, flows)| {
            if peer == 0 {
                return Vec::new().into_iter();
            }
            let peer = peer as u16;
            Dagflow::new(DagflowConfig {
                sources: AddressMapper::weighted(legal_prefixes(peer).map(|p| (p, 1.0)).collect()),
                target_prefix: target_prefix(),
                export_port: 9000 + peer,
                input_if: peer,
                src_as: peer,
            })
            .replay_records(&Trace { flows }, 0)
            .into_iter()
        })
        .collect();
    let filler_by_peer: Vec<Vec<Prefix>> = (0..=PEERS)
        .map(|k| {
            filler
                .iter()
                .filter(|(p, _)| p.0 == k)
                .map(|&(_, prefix)| prefix)
                .collect()
        })
        .collect();

    // Encode.
    let mut w = Workload {
        bytes: Vec::with_capacity(peers.len() * HEADER_LEN + total * RECORD_LEN),
        dgram_off: vec![0],
        dgram_flows: Vec::with_capacity(peers.len()),
        labels: Vec::with_capacity(total),
        sites: Vec::new(),
        dgram_sites: vec![0],
        region_sources: [0; 9],
        malformed: 0,
        prime: Vec::new(),
    };
    let mut sequence = [0u32; PEERS as usize + 1];
    let mut adopter_index: Vec<Option<u32>> = Vec::new();
    let mut slot = slots.iter();
    let mut batch = Vec::with_capacity(spec.records.1);
    for (d, (&peer, &size)) in peers.iter().zip(&sizes).enumerate() {
        batch.clear();
        let base = w.bytes.len();
        for r in 0..size {
            let mut record = records[peer as usize]
                .next()
                .expect("one record per template");
            let kind = *slot.next().expect("one slot per record");
            // Which foreign peer a re-homed or scan source claims to be from.
            let foreign = |n: usize| -> u8 {
                let other = 1 + (peer as usize - 1 + 1 + n % (PEERS as usize - 1)) % PEERS as usize;
                other as u8
            };
            let (label, region, shared) = match kind {
                Slot::Legal => {
                    let pool = &filler_by_peer[peer as usize];
                    if spec.spread_legal && !pool.is_empty() && rng.gen_bool(0.5) {
                        let prefix = pool[rng.gen_range(0..pool.len())];
                        record.src_addr = prefix.nth(rng.gen::<u64>());
                    }
                    (Label::Legal, None, None)
                }
                Slot::Flap => (Label::Flap, Some(foreign(w.labels.len())), None),
                Slot::Adopter(a) => (Label::Adopter, Some(foreign(a as usize)), Some(a)),
                Slot::Attack(AttackKind::HostScan) => {
                    (Label::Attack, Some(foreign(w.labels.len())), None)
                }
                Slot::Attack(_) => (Label::Attack, Some(0), None),
            };
            if let Some(region) = region {
                let counter = &mut w.region_sources[region as usize];
                let index = match shared {
                    // An adopter's five flows share the source allotted at
                    // its first flow.
                    Some(a) => {
                        let a = a as usize;
                        if adopter_index.len() <= a {
                            adopter_index.resize(a + 1, None);
                        }
                        *adopter_index[a].get_or_insert_with(|| {
                            *counter += 1;
                            *counter - 1
                        })
                    }
                    None => {
                        *counter += 1;
                        *counter - 1
                    }
                };
                record.src_addr = Ipv4Addr::from(salted_addr(region, u64::from(index)));
                w.sites.push(SaltSite {
                    offset: (base + HEADER_LEN + r * RECORD_LEN) as u32,
                    region,
                    index,
                });
            }
            w.labels.push(label);
            batch.push(record);
        }
        let uptime = batch.iter().map(|r| r.last_ms).max().unwrap_or(0);
        let seq = &mut sequence[peer as usize];
        let wire = Datagram::new(*seq, uptime, &batch).encode();
        *seq = seq.wrapping_add(size as u32);
        w.bytes.extend_from_slice(&wire);
        w.dgram_off.push(w.bytes.len() as u32);
        w.dgram_flows.push(size as u16);
        w.dgram_sites.push(w.sites.len() as u32);
        if spec.malformed_every != 0 && (d + 1) % spec.malformed_every == 0 {
            // The same datagram again, cut mid-record: the header still
            // claims `size` records, so the decoder must reject it whole.
            w.bytes
                .extend_from_slice(&wire[..wire.len() - RECORD_LEN / 2]);
            w.dgram_off.push(w.bytes.len() as u32);
            w.dgram_flows.push(0);
            w.dgram_sites.push(w.sites.len() as u32);
            w.malformed += 1;
        }
    }
    assert!(
        w.bytes.len() <= u32::MAX as usize,
        "stream offsets are 32-bit"
    );

    let prime = FlowRecord {
        src_addr: legal_prefixes(3).next().expect("four per peer").nth(9),
        dst_addr: target_prefix().nth(20),
        input_if: 3,
        dst_port: 80,
        protocol: 6,
        packets: 12,
        octets: 7200,
        last_ms: 900,
        ..FlowRecord::default()
    };
    w.prime = Datagram::new(0, 900, &[prime]).encode().to_vec();
    w
}

/// The target network destinations map into (`BootstrapConfig`'s default,
/// so replayed traffic matches what the engine trained on).
pub fn target_prefix() -> Prefix {
    Prefix::new(Ipv4Addr::new(96, 1, 0, 0), 16)
}

/// Turns one legal slot in each of five consecutive datagrams of one peer
/// into adopter `a`'s flows, for `adopters` adopters spaced evenly over the
/// lap (so adoptions — and the table recompiles they cause — land evenly).
fn place_adopters(slots: &mut [Slot], peers: &[u16], sizes: &[usize], adopters: usize) {
    let starts: Vec<usize> = sizes
        .iter()
        .scan(0, |at, &s| {
            let start = *at;
            *at += s;
            Some(start)
        })
        .collect();
    for a in 0..adopters {
        let first = (2 * a + 1) * peers.len() / (2 * adopters);
        let peer = peers[first];
        let mut placed = 0;
        for d in (first..peers.len()).filter(|&d| peers[d] == peer) {
            let at = starts[d] + 3.min(sizes[d] - 1);
            if slots[at] == Slot::Legal {
                slots[at] = Slot::Adopter(a as u32);
                placed += 1;
                if placed == 5 {
                    break;
                }
            }
        }
        assert_eq!(placed, 5, "lap too short to place adopter {a}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mix: Mix) -> StreamSpec {
        StreamSpec {
            mix,
            records: (30, 30),
            dgrams_per_lap: 1200,
            malformed_every: 0,
            spread_legal: false,
        }
    }

    fn share(w: &Workload, label: Label) -> f64 {
        w.labels.iter().filter(|&&l| l == label).count() as f64 / w.labels.len() as f64
    }

    #[test]
    fn same_seed_same_bytes_and_another_seed_other_bytes() {
        let s = spec(Mix::Flood);
        let a = generate(&s, 7, &[]);
        let b = generate(&s, 7, &[]);
        let c = generate(&s, 8, &[]);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn label_shares_match_the_workload_table() {
        let cruise = generate(&spec(Mix::Cruise), 1, &[]);
        assert!((share(&cruise, Label::Attack) - 1.0 / 256.0).abs() < 0.01);
        assert!((share(&cruise, Label::Flap) - 1.0 / 256.0).abs() < 0.01);
        let flood = generate(&spec(Mix::Flood), 1, &[]);
        assert!((share(&flood, Label::Attack) - 0.5).abs() < 0.01);
        let churn = generate(
            &spec(Mix::Churn {
                adopters_per_lap: 4,
            }),
            1,
            &[],
        );
        assert!((share(&churn, Label::Flap) - (0.05 + 1.0 / 256.0)).abs() < 0.01);
        assert_eq!(
            churn
                .labels
                .iter()
                .filter(|&&l| l == Label::Adopter)
                .count(),
            20
        );
        assert!((share(&churn, Label::Attack) - 1.0 / 256.0).abs() < 0.01);
    }

    #[test]
    fn small_datagrams_carry_one_to_three_records_and_counted_truncations() {
        let s = StreamSpec {
            records: (1, 3),
            dgrams_per_lap: 5000,
            malformed_every: 1000,
            ..spec(Mix::Cruise)
        };
        let w = generate(&s, 3, &[]);
        assert_eq!(w.malformed, 5);
        assert_eq!(w.dgrams(), 5005);
        assert_eq!(
            w.dgram_flows.iter().map(|&f| u64::from(f)).sum::<u64>(),
            w.flows()
        );
        let mut scratch = infilter_netflow::FlowBatch::new();
        for i in 0..w.dgrams() {
            scratch.clear();
            let decoded = scratch.decode_datagram(w.dgram(i));
            match w.dgram_flows[i] {
                0 => assert!(decoded.is_err()),
                n => {
                    assert!((1..=3).contains(&n));
                    assert_eq!(decoded.expect("well-formed").count, n);
                }
            }
        }
    }

    #[test]
    fn ground_truth_is_disjoint_by_construction() {
        let filler = filler_table(4000);
        let s = StreamSpec {
            spread_legal: true,
            ..spec(Mix::Cruise)
        };
        let w = generate(&s, 5, &filler);
        let mut scratch = infilter_netflow::FlowBatch::new();
        let mut flow = 0;
        for i in 0..w.dgrams() {
            scratch.clear();
            scratch.decode_datagram(w.dgram(i)).expect("well-formed");
            for r in 0..scratch.len() {
                let (src, peer) = (scratch.src_addr(r), scratch.input_ifs()[r]);
                let owner_octet = src.octets()[0];
                let at_home = match owner_octet {
                    17..=24 => u16::from(owner_octet - 16) == peer && src.octets()[1] < 16,
                    64..=223 => u16::from((owner_octet - 64) / 20) + 1 == peer,
                    _ => false,
                };
                assert_eq!(
                    at_home,
                    w.labels[flow] == Label::Legal,
                    "flow {flow} from {src}"
                );
                flow += 1;
            }
        }
        // Filler stays in its peer's octets, and is distinct.
        let distinct: HashSet<Prefix> = filler.iter().map(|&(_, p)| p).collect();
        assert_eq!(distinct.len(), 4000);
        for (peer, prefix) in &filler {
            let octet = prefix.network().octets()[0];
            assert_eq!(u16::from((octet - 64) / 20) + 1, peer.0, "{prefix}");
            assert!(prefix.len() >= 8);
        }
    }

    #[test]
    fn lap_salting_never_repeats_a_source() {
        let mut w = generate(
            &spec(Mix::Churn {
                adopters_per_lap: 4,
            }),
            9,
            &[],
        );
        assert!(w.max_laps() > 1000);
        let mut seen = HashSet::new();
        for lap in 0..6 {
            let mut adopters: std::collections::HashMap<u32, u32> = Default::default();
            for i in 0..w.dgrams() {
                w.salt(i, lap);
                let (from, to) = (w.dgram_sites[i] as usize, w.dgram_sites[i + 1] as usize);
                for site in &w.sites[from..to] {
                    let at = site.offset as usize;
                    let addr = u32::from_be_bytes(w.bytes[at..at + 4].try_into().unwrap());
                    assert!(u64::from(addr - region_base(site.region)) < region_size(site.region));
                    *adopters.entry(addr).or_default() += 1;
                }
            }
            for (addr, uses) in adopters {
                assert!(uses == 1 || uses == 5, "{addr:#x} used {uses} times");
                assert!(seen.insert(addr), "source {addr:#x} replayed on lap {lap}");
            }
        }
    }
}
