//! The Alert User Interface substitute (§5.1.4): an IDMEF consumer that
//! receives alert XML, parses it, and maintains a live display model —
//! "responsible for receiving, parsing and displaying IDMEF alerts from
//! the Analysis module."

use std::collections::BTreeMap;

use infilter_core::{IdmefAlert, ParseAlertError, PeerId, TracebackReport};
use serde::{Deserialize, Serialize};

/// Counters the console keeps per classification text.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassificationCount {
    /// Alert messages with this classification.
    pub count: u64,
    /// Flagged flows those messages stand for ([`IdmefAlert::count`]).
    pub flows: u64,
    /// End of the most recent flagged flow (exporter ms).
    pub last_seen_ms: u32,
}

/// A text-mode alert console: feed it IDMEF XML, read back a rendered
/// status board. This is the paper's "visual notification of attacks that
/// are in their initial stages or in progress", minus the pixels.
///
/// # Examples
///
/// ```
/// use infilter_core::{AttackStage, IdmefAlert, PeerId};
/// use infilter_experiments::alert_ui::AlertConsole;
/// use infilter_netflow::FlowRecord;
///
/// let mut console = AlertConsole::new();
/// let flow = FlowRecord { dst_port: 1434, protocol: 17, ..FlowRecord::default() };
/// let alert = IdmefAlert::new(0, &flow, PeerId(1), AttackStage::NetworkScan {
///     dst_port: 1434,
///     distinct_hosts: 25,
/// });
/// console.receive_xml(&alert.to_xml()).unwrap();
/// assert_eq!((console.total_alerts(), console.total_flows()), (1, 1));
/// assert!(console.render().contains("network scan"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AlertConsole {
    alerts: Vec<IdmefAlert>,
    classifications: BTreeMap<String, ClassificationCount>,
    parse_errors: u64,
}

impl AlertConsole {
    /// Creates an empty console.
    pub fn new() -> AlertConsole {
        AlertConsole::default()
    }

    /// Receives one IDMEF XML message.
    ///
    /// # Errors
    ///
    /// Returns the parse error (also counted in [`AlertConsole::parse_errors`]).
    pub fn receive_xml(&mut self, xml: &str) -> Result<(), ParseAlertError> {
        match IdmefAlert::parse_xml(xml) {
            Ok(alert) => {
                self.receive(alert);
                Ok(())
            }
            Err(e) => {
                self.parse_errors += 1;
                Err(e)
            }
        }
    }

    /// Receives an already-parsed alert (in-process deployments).
    pub fn receive(&mut self, alert: IdmefAlert) {
        let entry = self
            .classifications
            .entry(alert.classification())
            .or_default();
        entry.count += 1;
        entry.flows += u64::from(alert.count);
        let last = alert.create_time_ms.max(alert.last_time_ms);
        entry.last_seen_ms = entry.last_seen_ms.max(last);
        self.alerts.push(alert);
    }

    /// Total alert messages displayed.
    pub fn total_alerts(&self) -> u64 {
        self.alerts.len() as u64
    }

    /// Flagged flows those messages stand for.
    pub fn total_flows(&self) -> u64 {
        self.alerts.iter().map(|a| u64::from(a.count)).sum()
    }

    /// Malformed messages rejected so far.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Classification counters, by text.
    pub fn classifications(&self) -> &BTreeMap<String, ClassificationCount> {
        &self.classifications
    }

    /// Per-ingress traceback over everything received.
    pub fn traceback(&self) -> TracebackReport {
        TracebackReport::from_alerts(&self.alerts)
    }

    /// Alerts attributed to one ingress.
    pub fn alerts_from(&self, ingress: PeerId) -> impl Iterator<Item = &IdmefAlert> {
        self.alerts.iter().filter(move |a| a.ingress == ingress)
    }

    /// Renders the status board.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ALERT CONSOLE — {} alerts for {} flows, {} malformed messages\n\n",
            self.total_alerts(),
            self.total_flows(),
            self.parse_errors
        );
        out.push_str(
            "classification                                                count    flows  last seen (ms)\n",
        );
        for (text, c) in &self.classifications {
            out.push_str(&format!(
                "{text:<60}  {:>5}  {:>7}  {}\n",
                c.count, c.flows, c.last_seen_ms
            ));
        }
        out.push('\n');
        out.push_str(&self.traceback().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_core::AttackStage;
    use infilter_netflow::FlowRecord;

    fn scan_alert(id: u64, peer: u16, t: u32) -> IdmefAlert {
        let flow = FlowRecord {
            dst_addr: "96.1.0.9".parse().expect("static addr"),
            dst_port: 1434,
            protocol: 17,
            last_ms: t,
            ..FlowRecord::default()
        };
        IdmefAlert::new(
            id,
            &flow,
            PeerId(peer),
            AttackStage::NetworkScan {
                dst_port: 1434,
                distinct_hosts: 21,
            },
        )
    }

    #[test]
    fn console_round_trips_xml_and_aggregates() {
        let mut console = AlertConsole::new();
        for i in 0..5 {
            console
                .receive_xml(&scan_alert(i, 1, 100 * i as u32).to_xml())
                .expect("own XML parses");
        }
        // One message from peer 3 that stands for 40 flows, the last at 950.
        let flood = IdmefAlert {
            count: 40,
            last_time_ms: 950,
            ..scan_alert(5, 3, 900)
        };
        console.receive_xml(&flood.to_xml()).expect("parses");
        assert_eq!((console.total_alerts(), console.total_flows()), (6, 45));
        assert_eq!(console.classifications().len(), 1);
        let c = console
            .classifications()
            .values()
            .next()
            .expect("one class");
        assert_eq!((c.count, c.flows), (6, 45));
        assert_eq!(c.last_seen_ms, 950);
        // The traffic came through peer 3, most of the messages through 1.
        assert_eq!(console.traceback().hottest_ingress(), Some(PeerId(3)));
        assert_eq!(console.alerts_from(PeerId(3)).count(), 1);
        let board = console.render();
        assert!(board.contains("6 alerts for 45 flows"));
        assert!(board.contains("PeerAS1"));
    }

    #[test]
    fn malformed_messages_are_counted_not_fatal() {
        let mut console = AlertConsole::new();
        assert!(console.receive_xml("<garbage/>").is_err());
        assert_eq!(console.parse_errors(), 1);
        assert_eq!(console.total_alerts(), 0);
        console
            .receive_xml(&scan_alert(0, 1, 5).to_xml())
            .expect("parses");
        assert_eq!(console.total_alerts(), 1);
    }
}
