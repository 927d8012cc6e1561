use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::{AttackStage, IdmefAlert, PeerId};

/// Per-ingress attack attribution aggregated from IDMEF alerts — the
/// traceback capability the paper says the approach "can be easily
/// extended to provide" (§1, §7): every alert already names the Peer
/// AS / BR the offending flow entered through, so ranking ingresses by
/// attack activity localises where upstream filtering or provider
/// notification should happen.
///
/// # Examples
///
/// ```
/// use infilter_core::{AttackStage, IdmefAlert, PeerId, TracebackReport};
/// use infilter_netflow::FlowRecord;
///
/// let flow = FlowRecord { src_addr: "9.0.0.1".parse().unwrap(), ..FlowRecord::default() };
/// let alerts = vec![
///     IdmefAlert::new(0, &flow, PeerId(1), AttackStage::EiaMismatch { expected: None }),
///     IdmefAlert::new(1, &flow, PeerId(1), AttackStage::EiaMismatch { expected: None }),
///     IdmefAlert::new(2, &flow, PeerId(3), AttackStage::EiaMismatch { expected: None }),
/// ];
/// let report = TracebackReport::from_alerts(&alerts);
/// assert_eq!(report.hottest_ingress(), Some(PeerId(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TracebackReport {
    ingresses: BTreeMap<PeerId, IngressActivity>,
}

/// Attack activity attributed to one ingress point. The totals count
/// flagged *flows* ([`IdmefAlert::count`]), not alert messages: a message
/// is one target, however much traffic hit it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngressActivity {
    /// Flagged flows attributed to this ingress.
    pub alerts: u64,
    /// Of those, flagged at the EIA stage.
    pub eia: u64,
    /// Flagged by Scan Analysis.
    pub scans: u64,
    /// Flagged at the NNS stage.
    pub anomalies: u64,
    /// Distinct victim addresses the alerts name (each alert names the
    /// first flow's).
    pub victims: Vec<Ipv4Addr>,
    /// End time of the earliest first flow (exporter ms).
    pub first_ms: u32,
    /// Latest flow end time (exporter ms).
    pub last_ms: u32,
}

impl TracebackReport {
    /// Aggregates alerts into per-ingress activity.
    pub fn from_alerts(alerts: &[IdmefAlert]) -> TracebackReport {
        let mut ingresses: BTreeMap<PeerId, IngressActivity> = BTreeMap::new();
        for a in alerts {
            let entry = ingresses
                .entry(a.ingress)
                .or_insert_with(|| IngressActivity {
                    first_ms: u32::MAX,
                    ..IngressActivity::default()
                });
            let flows = u64::from(a.count);
            entry.alerts += flows;
            match a.stage {
                AttackStage::EiaMismatch { .. } => entry.eia += flows,
                AttackStage::NetworkScan { .. } | AttackStage::HostScan { .. } => {
                    entry.scans += flows
                }
                AttackStage::NnsAnomaly { .. } => entry.anomalies += flows,
            }
            if !entry.victims.contains(&a.target) {
                entry.victims.push(a.target);
            }
            entry.first_ms = entry.first_ms.min(a.create_time_ms);
            entry.last_ms = entry.last_ms.max(a.create_time_ms.max(a.last_time_ms));
        }
        TracebackReport { ingresses }
    }

    /// Ingresses with attributed activity, busiest first.
    pub fn ranked(&self) -> Vec<(PeerId, &IngressActivity)> {
        let mut v: Vec<(PeerId, &IngressActivity)> =
            self.ingresses.iter().map(|(p, a)| (*p, a)).collect();
        v.sort_by_key(|(p, a)| (std::cmp::Reverse(a.alerts), *p));
        v
    }

    /// The ingress with the most flagged flows.
    pub fn hottest_ingress(&self) -> Option<PeerId> {
        self.ranked().first().map(|(p, _)| *p)
    }

    /// Activity for one ingress.
    pub fn ingress(&self, peer: PeerId) -> Option<&IngressActivity> {
        self.ingresses.get(&peer)
    }

    /// Number of ingresses with any attributed activity.
    pub fn len(&self) -> usize {
        self.ingresses.len()
    }

    /// Whether no alerts were aggregated.
    pub fn is_empty(&self) -> bool {
        self.ingresses.is_empty()
    }

    /// Renders a short operator-facing summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("ingress      flows  eia  scans  anomalies  victims  window(ms)\n");
        for (peer, a) in self.ranked() {
            out.push_str(&format!(
                "{:<10}  {:>6}  {:>3}  {:>5}  {:>9}  {:>7}  {}..{}\n",
                peer.to_string(),
                a.alerts,
                a.eia,
                a.scans,
                a.anomalies,
                a.victims.len(),
                a.first_ms,
                a.last_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_netflow::FlowRecord;

    fn alert(id: u64, ingress: u16, target: &str, stage: AttackStage, t: u32) -> IdmefAlert {
        let flow = FlowRecord {
            src_addr: "9.0.0.1".parse().unwrap(),
            dst_addr: target.parse().unwrap(),
            last_ms: t,
            ..FlowRecord::default()
        };
        IdmefAlert::new(id, &flow, PeerId(ingress), stage)
    }

    #[test]
    fn empty_report() {
        let r = TracebackReport::from_alerts(&[]);
        assert!(r.is_empty());
        assert_eq!(r.hottest_ingress(), None);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn ranks_busiest_ingress_first() {
        let scan = AttackStage::NetworkScan {
            dst_port: 1434,
            distinct_hosts: 25,
        };
        let nns = AttackStage::NnsAnomaly {
            distance: 100,
            threshold: 10,
            class: infilter_traffic::AppClass::Http,
        };
        let alerts = vec![
            alert(0, 2, "96.1.0.1", scan, 100),
            alert(1, 2, "96.1.0.2", scan, 200),
            alert(2, 2, "96.1.0.2", nns, 300),
            alert(3, 5, "96.1.0.9", nns, 50),
        ];
        let r = TracebackReport::from_alerts(&alerts);
        assert_eq!(r.len(), 2);
        assert_eq!(r.hottest_ingress(), Some(PeerId(2)));
        let a2 = r.ingress(PeerId(2)).unwrap();
        assert_eq!(a2.alerts, 3);
        assert_eq!(a2.scans, 2);
        assert_eq!(a2.anomalies, 1);
        assert_eq!(a2.victims.len(), 2); // deduplicated
        assert_eq!(a2.first_ms, 100);
        assert_eq!(a2.last_ms, 300);
        let rendered = r.render();
        assert!(rendered.contains("PeerAS2"));
        assert!(rendered.contains("PeerAS5"));
    }

    /// One message standing for 40 flows outranks three one-flow messages:
    /// the hottest ingress is where the traffic is, not where the most
    /// distinct targets are.
    #[test]
    fn counts_flows_not_messages() {
        let stage = AttackStage::EiaMismatch { expected: None };
        let flood = IdmefAlert {
            count: 40,
            last_time_ms: 900,
            ..alert(0, 4, "96.1.0.1", stage, 100)
        };
        let alerts = vec![
            flood,
            alert(1, 6, "96.1.0.2", stage, 150),
            alert(2, 6, "96.1.0.3", stage, 160),
            alert(3, 6, "96.1.0.4", stage, 170),
        ];
        let r = TracebackReport::from_alerts(&alerts);
        assert_eq!(r.hottest_ingress(), Some(PeerId(4)));
        let a4 = r.ingress(PeerId(4)).unwrap();
        assert_eq!((a4.alerts, a4.eia), (40, 40));
        assert_eq!((a4.first_ms, a4.last_ms), (100, 900));
        assert_eq!(r.ingress(PeerId(6)).unwrap().alerts, 3);
    }

    #[test]
    fn tie_breaks_on_lower_peer_id() {
        let stage = AttackStage::EiaMismatch { expected: None };
        let alerts = vec![
            alert(0, 7, "96.1.0.1", stage, 1),
            alert(1, 3, "96.1.0.1", stage, 1),
        ];
        let r = TracebackReport::from_alerts(&alerts);
        assert_eq!(r.hottest_ingress(), Some(PeerId(3)));
    }
}
