//! The two pieces of suspect-path state an attacker feeds, each held to an
//! oracle that shares nothing with it: [`ScanAnalyzer`]'s flat counter
//! tables against a recount of the window on every push, and
//! [`EiaRegistry`]'s sightings window against an unbounded map (the two
//! agree for as long as the candidates fit the window; what happens past
//! that is pinned by the unit tests beside the window, which can shrink
//! it).

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;

use infilter_core::{EiaRegistry, PeerId, ScanAnalyzer, ScanConfig, ScanVerdict};
use infilter_netflow::FlowRecord;
use proptest::prelude::*;

/// §4.1 by recount: the last `buffer_size` probe-sized flows, and on every
/// push the distinct hosts sharing the flow's `(input_if, dst_port)` and
/// the distinct ports on its `(input_if, dst_addr)`, counted from scratch.
struct ScanOracle {
    cfg: ScanConfig,
    window: VecDeque<(u16, Ipv4Addr, u16)>,
}

impl ScanOracle {
    fn distinct_hosts(&self, ingress: u16, port: u16) -> usize {
        let hosts = self.window.iter().filter(|e| (e.0, e.2) == (ingress, port));
        hosts.map(|e| e.1).collect::<HashSet<_>>().len()
    }

    fn distinct_ports(&self, ingress: u16, host: Ipv4Addr) -> usize {
        let ports = self.window.iter().filter(|e| (e.0, e.1) == (ingress, host));
        ports.map(|e| e.2).collect::<HashSet<_>>().len()
    }

    fn counter_entries(&self) -> usize {
        let by_port: HashSet<_> = self.window.iter().map(|e| (e.0, e.2)).collect();
        let by_host: HashSet<_> = self.window.iter().map(|e| (e.0, e.1)).collect();
        by_port.len() + by_host.len()
    }

    fn push(&mut self, flow: &FlowRecord) -> ScanVerdict {
        if flow.packets > self.cfg.max_packets_per_probe {
            return ScanVerdict::Pass;
        }
        if self.window.len() == self.cfg.buffer_size {
            self.window.pop_front();
        }
        self.window
            .push_back((flow.input_if, flow.dst_addr, flow.dst_port));
        let distinct_hosts = self.distinct_hosts(flow.input_if, flow.dst_port);
        let distinct_ports = self.distinct_ports(flow.input_if, flow.dst_addr);
        if distinct_hosts > self.cfg.network_scan_threshold {
            ScanVerdict::NetworkScan {
                dst_port: flow.dst_port,
                distinct_hosts,
            }
        } else if distinct_ports > self.cfg.host_scan_threshold {
            ScanVerdict::HostScan {
                dst_addr: flow.dst_addr,
                distinct_ports,
            }
        } else {
            ScanVerdict::Pass
        }
    }
}

/// Few enough ingresses, hosts and ports that triples repeat, counters
/// cross the thresholds and — at the extremes of the key space — packed
/// keys differ in their top and bottom bits only.
fn arb_probe() -> impl Strategy<Value = FlowRecord> {
    (
        proptest::sample::select(vec![0u16, 1, 2, u16::MAX]),
        proptest::sample::select(vec![0u32, 1, 2, 3, 0x6001_0000, 0x6001_0001, u32::MAX]),
        proptest::sample::select(vec![0u16, 1, 80, 1434, u16::MAX]),
        1u32..=3,
    )
        .prop_map(|(input_if, dst, dst_port, packets)| FlowRecord {
            input_if,
            dst_addr: dst.into(),
            dst_port,
            packets,
            ..FlowRecord::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_scan_counters_match_a_recount_of_the_window(
        buffer_size in proptest::sample::select(vec![1usize, 4, 200]),
        flows in proptest::collection::vec(arb_probe(), 1..700),
    ) {
        let cfg = ScanConfig {
            buffer_size,
            network_scan_threshold: 3,
            host_scan_threshold: 2,
            max_packets_per_probe: 2,
        };
        let mut scan = ScanAnalyzer::new(cfg);
        let mut oracle = ScanOracle { cfg, window: VecDeque::new() };
        for (i, flow) in flows.iter().enumerate() {
            prop_assert_eq!(scan.push(flow), oracle.push(flow), "verdict of flow {}", i);
            prop_assert_eq!(scan.buffered(), oracle.window.len());
            prop_assert_eq!(
                scan.distinct_hosts_for_port(flow.input_if, flow.dst_port),
                oracle.distinct_hosts(flow.input_if, flow.dst_port)
            );
            prop_assert_eq!(
                scan.distinct_ports_for_host(flow.input_if, flow.dst_addr),
                oracle.distinct_ports(flow.input_if, flow.dst_addr)
            );
            prop_assert_eq!(scan.counter_entries(), oracle.counter_entries());
            prop_assert!(scan.counter_entries() <= 2 * scan.buffered());
        }
    }

    /// While the distinct candidates fit the window, bounding it changes
    /// nothing: the same sightings adopt, in the same order, as with
    /// §5.2(a)'s unbounded per-source counts.
    #[test]
    fn sightings_window_adopts_like_an_unbounded_map_while_candidates_fit(
        threshold in 1u32..=5,
        prefix_len in proptest::sample::select(vec![24u8, 32]),
        sightings in proptest::collection::vec((1u16..=3, 0u32..400), 1..2_000),
    ) {
        let mut registry = EiaRegistry::new(threshold);
        registry.set_adoption_prefix_len(prefix_len);
        registry.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
        let mut counts: HashMap<(u16, u32), u32> = HashMap::new();
        // Who holds each adopted range now: a range two peers both keep
        // sighting flaps between them, each adoption re-arming the other.
        let mut holder: HashMap<u32, u16> = HashMap::new();
        let mut adoptions = 0u64;
        for (i, &(peer, host)) in sightings.iter().enumerate() {
            // 9.0.x.y: in nobody's EIA set; `host` spreads over two /24s.
            let addr = 0x0900_0000 + host;
            let range = addr >> (32 - prefix_len) as u32;
            let want = holder.get(&range) != Some(&peer) && {
                let count = counts.entry((peer, range)).or_insert(0);
                *count += 1;
                *count >= threshold
            };
            if want {
                counts.remove(&(peer, range));
                holder.insert(range, peer);
                adoptions += 1;
            }
            prop_assert_eq!(
                registry.record_sighting(PeerId(peer), addr.into()),
                want,
                "sighting {} of {:#x} at peer {}", i, addr, peer
            );
            prop_assert_eq!(registry.sightings_window(), (counts.len(), 0));
        }
        prop_assert_eq!(registry.adopted_count(), adoptions);
    }
}
