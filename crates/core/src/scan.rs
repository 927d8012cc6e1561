use std::collections::VecDeque;
use std::net::Ipv4Addr;

use infilter_net::FlatTable;
use infilter_netflow::FlowRecord;
use serde::{Deserialize, Serialize};

/// Scan Analysis tuning (§4.1). The paper used a buffer of about 200
/// suspect flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Suspect flows kept in the sliding buffer.
    pub buffer_size: usize,
    /// Distinct destination hosts sharing one destination port that flag a
    /// network scan (Slammer-style spray).
    pub network_scan_threshold: usize,
    /// Distinct destination ports on one host that flag a host scan
    /// (nmap Idlescan-style probe).
    pub host_scan_threshold: usize,
    /// Only flows with at most this many packets count toward the scan
    /// counters — scan probes are single packets (Slammer, SYN scans),
    /// while multi-packet suspects are real sessions whose fan-out would
    /// otherwise masquerade as a scan.
    pub max_packets_per_probe: u32,
}

impl Default for ScanConfig {
    fn default() -> ScanConfig {
        ScanConfig {
            buffer_size: 200,
            network_scan_threshold: 20,
            host_scan_threshold: 10,
            max_packets_per_probe: 2,
        }
    }
}

/// What Scan Analysis concluded about a suspect flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanVerdict {
    /// Counter thresholds not exceeded; hand the flow to NNS analysis.
    Pass,
    /// Too many distinct hosts probed on one destination port.
    NetworkScan {
        /// The scanned port.
        dst_port: u16,
        /// Distinct hosts seen for that port in the buffer.
        distinct_hosts: usize,
    },
    /// Too many distinct ports probed on one destination host.
    HostScan {
        /// The scanned host.
        dst_addr: Ipv4Addr,
        /// Distinct ports seen for that host in the buffer.
        distinct_ports: usize,
    },
}

impl ScanVerdict {
    /// Whether a scan was flagged.
    pub fn is_scan(&self) -> bool {
        !matches!(self, ScanVerdict::Pass)
    }
}

/// The sliding-buffer scan detector sitting between the EIA check and NNS
/// analysis (§4.1): "we maintain a buffer of spoofed flows received in a
/// network … counters for the destination IP address and destination port
/// are incremented; in case any counter thresholds are exceeded an attack
/// is flagged."
///
/// Counters are additionally keyed by the flow's ingress interface
/// (`input_if`): a scan is attributed to the ingress it entered through,
/// which both supports traceback and keeps independent ingresses from
/// pooling into phantom scans. The *buffer* stays global, so total suspect
/// load still evicts slow scans — the effect that degrades detection in
/// the high-load stress experiments.
///
/// # Examples
///
/// ```
/// use infilter_core::{ScanAnalyzer, ScanConfig};
/// use infilter_netflow::FlowRecord;
///
/// let mut scan = ScanAnalyzer::new(ScanConfig {
///     buffer_size: 50,
///     network_scan_threshold: 5,
///     host_scan_threshold: 5,
///     max_packets_per_probe: 2,
/// });
/// // A Slammer-style spray: same port, many hosts.
/// let mut flagged = false;
/// for i in 0..10u32 {
///     let f = FlowRecord {
///         dst_addr: std::net::Ipv4Addr::from(0x60010000 + i),
///         dst_port: 1434,
///         protocol: 17,
///         packets: 1,
///         ..FlowRecord::default()
///     };
///     flagged |= scan.push(&f).is_scan();
/// }
/// assert!(flagged);
/// ```
#[derive(Debug, Clone)]
pub struct ScanAnalyzer {
    cfg: ScanConfig,
    /// The last `buffer_size` probe-sized suspects as packed
    /// `(input_if, dst_addr, dst_port)` triples, oldest first.
    buffer: VecDeque<u64>,
    // Three flat tables sized to the buffer, so a suspect costs a handful
    // of probes into memory that never moves: how often each triple is
    // buffered, and — bumped only when a triple appears (0→1) or leaves
    // (1→0) — the distinct hosts per `(input_if, dst_port)` and distinct
    // ports per `(input_if, dst_addr)`.
    triples: FlatTable,
    hosts_by_port: FlatTable,
    ports_by_host: FlatTable,
}

/// `(input_if, dst_port)` of a packed triple.
fn port_key(triple: u64) -> u64 {
    (triple >> 48 << 16) | (triple & 0xffff)
}

/// `(input_if, dst_addr)` of a packed triple.
fn host_key(triple: u64) -> u64 {
    triple >> 16
}

fn pack(ingress: u16, addr: Ipv4Addr, port: u16) -> u64 {
    (u64::from(ingress) << 48) | (u64::from(u32::from(addr)) << 16) | u64::from(port)
}

impl ScanAnalyzer {
    /// Creates an empty analyzer.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_size` is zero.
    pub fn new(cfg: ScanConfig) -> ScanAnalyzer {
        assert!(cfg.buffer_size > 0, "scan buffer must not be empty");
        ScanAnalyzer {
            cfg,
            buffer: VecDeque::with_capacity(cfg.buffer_size),
            triples: FlatTable::new(cfg.buffer_size),
            hosts_by_port: FlatTable::new(cfg.buffer_size),
            ports_by_host: FlatTable::new(cfg.buffer_size),
        }
    }

    /// Live `(input_if, dst_port)` plus `(input_if, dst_addr)` counters —
    /// at most two per buffered flow, because eviction frees emptied ones.
    pub fn counter_entries(&self) -> usize {
        self.hosts_by_port.len() + self.ports_by_host.len()
    }

    /// Current number of buffered suspect flows.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Feeds one suspect flow and evaluates the counters. Flows larger
    /// than the probe-size filter bypass the buffer entirely.
    pub fn push(&mut self, flow: &FlowRecord) -> ScanVerdict {
        if flow.packets > self.cfg.max_packets_per_probe {
            return ScanVerdict::Pass;
        }
        if self.buffer.len() == self.cfg.buffer_size {
            let old = self.buffer.pop_front().expect("a full buffer");
            if self.triples.sub(old, 1) == 0 {
                self.hosts_by_port.sub(port_key(old), 1);
                self.ports_by_host.sub(host_key(old), 1);
            }
        }
        let triple = pack(flow.input_if, flow.dst_addr, flow.dst_port);
        self.buffer.push_back(triple);
        if self.triples.add(triple, 1) == 1 {
            self.hosts_by_port.add(port_key(triple), 1);
            self.ports_by_host.add(host_key(triple), 1);
        }

        let distinct_hosts = self.hosts_by_port.get(port_key(triple)) as usize;
        if distinct_hosts > self.cfg.network_scan_threshold {
            return ScanVerdict::NetworkScan {
                dst_port: flow.dst_port,
                distinct_hosts,
            };
        }
        let distinct_ports = self.ports_by_host.get(host_key(triple)) as usize;
        if distinct_ports > self.cfg.host_scan_threshold {
            return ScanVerdict::HostScan {
                dst_addr: flow.dst_addr,
                distinct_ports,
            };
        }
        ScanVerdict::Pass
    }

    /// Distinct destination hosts currently buffered for `port` at the
    /// given ingress.
    pub fn distinct_hosts_for_port(&self, ingress: u16, port: u16) -> usize {
        self.hosts_by_port
            .get(port_key(pack(ingress, Ipv4Addr::UNSPECIFIED, port))) as usize
    }

    /// Distinct destination ports currently buffered for `host` at the
    /// given ingress.
    pub fn distinct_ports_for_host(&self, ingress: u16, host: Ipv4Addr) -> usize {
        self.ports_by_host.get(host_key(pack(ingress, host, 0))) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_ingress() {
        // 6 probes per ingress on the same port: no single ingress crosses
        // the threshold of 8, even though 12 hosts are buffered in total.
        let mut s = ScanAnalyzer::new(cfg());
        for i in 0..6u32 {
            let mut a = flow(i, 1434);
            a.input_if = 1;
            assert!(!s.push(&a).is_scan());
            let mut b = flow(100 + i, 1434);
            b.input_if = 2;
            assert!(!s.push(&b).is_scan());
        }
        assert_eq!(s.distinct_hosts_for_port(1, 1434), 6);
        assert_eq!(s.distinct_hosts_for_port(2, 1434), 6);
        assert_eq!(s.distinct_hosts_for_port(0, 1434), 0);
    }

    #[test]
    fn large_flows_bypass_scan_counters() {
        // 30 multi-packet http sessions to distinct hosts on port 80 must
        // not read as a network scan.
        let mut s = ScanAnalyzer::new(ScanConfig {
            buffer_size: 100,
            network_scan_threshold: 8,
            host_scan_threshold: 8,
            max_packets_per_probe: 2,
        });
        for i in 0..30 {
            let f = FlowRecord {
                dst_addr: Ipv4Addr::from(0x60010000 + i),
                dst_port: 80,
                protocol: 6,
                packets: 12,
                octets: 6000,
                ..FlowRecord::default()
            };
            assert_eq!(s.push(&f), ScanVerdict::Pass, "session {i}");
        }
        assert_eq!(s.buffered(), 0);
    }

    fn flow(dst: u32, port: u16) -> FlowRecord {
        FlowRecord {
            dst_addr: Ipv4Addr::from(0x60010000 + dst),
            dst_port: port,
            protocol: 6,
            packets: 1,
            octets: 40,
            ..FlowRecord::default()
        }
    }

    fn cfg() -> ScanConfig {
        ScanConfig {
            buffer_size: 100,
            network_scan_threshold: 8,
            host_scan_threshold: 8,
            max_packets_per_probe: 2,
        }
    }

    #[test]
    fn network_scan_flags_after_threshold_hosts() {
        let mut s = ScanAnalyzer::new(cfg());
        for i in 0..8 {
            assert_eq!(s.push(&flow(i, 1434)), ScanVerdict::Pass, "host {i}");
        }
        match s.push(&flow(8, 1434)) {
            ScanVerdict::NetworkScan {
                dst_port,
                distinct_hosts,
            } => {
                assert_eq!(dst_port, 1434);
                assert_eq!(distinct_hosts, 9);
            }
            other => panic!("expected network scan, got {other:?}"),
        }
    }

    #[test]
    fn host_scan_flags_after_threshold_ports() {
        let mut s = ScanAnalyzer::new(cfg());
        for p in 0..8u16 {
            assert_eq!(s.push(&flow(7, 1000 + p)), ScanVerdict::Pass);
        }
        assert!(matches!(
            s.push(&flow(7, 2000)),
            ScanVerdict::HostScan {
                distinct_ports: 9,
                ..
            }
        ));
    }

    #[test]
    fn repeated_flow_does_not_inflate_counters() {
        let mut s = ScanAnalyzer::new(cfg());
        for _ in 0..50 {
            assert_eq!(s.push(&flow(1, 80)), ScanVerdict::Pass);
        }
        assert_eq!(s.distinct_hosts_for_port(0, 80), 1);
        assert_eq!(s.distinct_ports_for_host(0, Ipv4Addr::from(0x60010001)), 1);
    }

    #[test]
    fn buffer_eviction_forgets_old_flows() {
        let mut s = ScanAnalyzer::new(ScanConfig {
            buffer_size: 4,
            ..cfg()
        });
        for i in 0..4 {
            s.push(&flow(i, 1434));
        }
        assert_eq!(s.distinct_hosts_for_port(0, 1434), 4);
        // Four unrelated flows push the scan flows out.
        for i in 0..4 {
            s.push(&flow(100 + i, 80 + i as u16));
        }
        assert_eq!(s.distinct_hosts_for_port(0, 1434), 0);
        assert_eq!(s.buffered(), 4);
    }

    #[test]
    fn slow_scan_below_buffer_rate_is_missed() {
        // Documents the design limit: a scan slower than the buffer's
        // turnover never accumulates enough distinct targets.
        let mut s = ScanAnalyzer::new(ScanConfig {
            buffer_size: 4,
            network_scan_threshold: 3,
            host_scan_threshold: 3,
            max_packets_per_probe: 2,
        });
        let mut flagged = false;
        for i in 0..20u32 {
            flagged |= s.push(&flow(i, 1434)).is_scan();
            // Four unrelated suspects (unique host and port each) flush the
            // buffer between scan probes.
            for j in 0..4u32 {
                let k = 1000 + i * 4 + j;
                flagged |= s.push(&flow(k, 5000 + (k % 30000) as u16)).is_scan();
            }
        }
        assert!(!flagged);
    }

    #[test]
    fn mixed_traffic_keeps_counters_separate() {
        let mut s = ScanAnalyzer::new(cfg());
        // 6 hosts on port 1434 and 6 ports on one host: neither crosses 8.
        for i in 0..6 {
            assert!(!s.push(&flow(i, 1434)).is_scan());
            assert!(!s.push(&flow(50, 3000 + i as u16)).is_scan());
        }
        assert_eq!(s.distinct_hosts_for_port(0, 1434), 6);
        assert_eq!(s.distinct_ports_for_host(0, Ipv4Addr::from(0x60010032)), 6);
    }

    #[test]
    fn counter_maps_do_not_accumulate_dead_entries() {
        // Churn far more distinct (host, port) suspects through the buffer
        // than it holds: evicted flows must fully clean their counter
        // entries up, keeping map population bounded by the buffer.
        let mut s = ScanAnalyzer::new(ScanConfig {
            buffer_size: 16,
            network_scan_threshold: 1000,
            host_scan_threshold: 1000,
            max_packets_per_probe: 2,
        });
        for i in 0..5_000u32 {
            s.push(&flow(i, (i % 60_000) as u16));
        }
        assert_eq!(s.buffered(), 16);
        assert!(
            s.counter_entries() <= 32,
            "{} counter entries for 16 buffered flows",
            s.counter_entries()
        );
    }

    #[test]
    #[should_panic(expected = "scan buffer must not be empty")]
    fn zero_buffer_panics() {
        ScanAnalyzer::new(ScanConfig {
            buffer_size: 0,
            ..cfg()
        });
    }
}
