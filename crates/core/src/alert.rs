use std::net::Ipv4Addr;

use infilter_netflow::FlowRecord;
use serde::{Deserialize, Serialize};

use crate::{AttackStage, PeerId};

/// An IDMEF-shaped alert emitted when flows are flagged as an attack
/// (§5.1.4). Rendered as IDMEF XML for consumer applications; the struct
/// itself is what the alert UI and downstream traceback logic consume.
///
/// One alert is an *aggregate*: every flow the engine flags between two
/// drains through the same ingress, at the same stage, against the same
/// target folds into one message. `source`, `target`, `target_port`,
/// `protocol`, `create_time_ms` and the detail inside `stage` describe the
/// first such flow; `count` says how many there were and `last_time_ms`
/// when the latest of them ended. Consumers that want attack *traffic*
/// sum `count`; the number of messages only says how many distinct
/// targets were hit.
///
/// The `ingress` field is the paper's promised traceback hook: the alert
/// names the Peer AS / BR the attack entered through.
///
/// # Examples
///
/// ```
/// use infilter_core::{AttackStage, IdmefAlert, PeerId};
/// use infilter_netflow::FlowRecord;
///
/// let flow = FlowRecord { src_addr: "4.64.0.9".parse().unwrap(), ..FlowRecord::default() };
/// let alert = IdmefAlert::new(7, &flow, PeerId(1), AttackStage::EiaMismatch { expected: Some(PeerId(2)) });
/// let xml = alert.to_xml();
/// assert!(xml.contains("<idmef:Alert"));
/// assert!(xml.contains("4.64.0.9"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdmefAlert {
    /// Monotonic alert identifier.
    pub message_id: u64,
    /// End time of the first flagged flow (exporter sysUptime ms), used as
    /// the create time.
    pub create_time_ms: u32,
    /// Source address of the first offending flow.
    pub source: Ipv4Addr,
    /// Destination (victim) address.
    pub target: Ipv4Addr,
    /// Destination port.
    pub target_port: u16,
    /// IP protocol.
    pub protocol: u8,
    /// The ingress point the flow arrived through (traceback attribution).
    pub ingress: PeerId,
    /// Which detection stage fired.
    pub stage: AttackStage,
    /// Flows this alert stands for (at least 1).
    #[serde(default = "one_flow")]
    pub count: u32,
    /// Latest end time among those flows (exporter sysUptime ms). Alerts
    /// serialised before the field existed read back as 0: use
    /// `create_time_ms` when this is the smaller of the two.
    #[serde(default)]
    pub last_time_ms: u32,
}

fn one_flow() -> u32 {
    1
}

impl IdmefAlert {
    /// Builds an alert from the first offending flow.
    pub fn new(
        message_id: u64,
        flow: &FlowRecord,
        ingress: PeerId,
        stage: AttackStage,
    ) -> IdmefAlert {
        IdmefAlert {
            message_id,
            create_time_ms: flow.last_ms,
            source: flow.src_addr,
            target: flow.dst_addr,
            target_port: flow.dst_port,
            protocol: flow.protocol,
            ingress,
            stage,
            count: one_flow(),
            last_time_ms: flow.last_ms,
        }
    }

    /// The IDMEF classification text for the detection stage.
    pub fn classification(&self) -> String {
        match &self.stage {
            AttackStage::EiaMismatch { .. } => "Spoofed source: unexpected ingress".to_owned(),
            AttackStage::NetworkScan { dst_port, .. } => {
                format!("Spoofed network scan on port {dst_port}")
            }
            AttackStage::HostScan { dst_addr, .. } => {
                format!("Spoofed host scan against {dst_addr}")
            }
            AttackStage::NnsAnomaly {
                distance,
                threshold,
                class,
            } => format!(
                "Spoofed anomalous {class} flow (distance {distance} > threshold {threshold})"
            ),
        }
    }

    /// Renders the alert as an IDMEF XML message.
    pub fn to_xml(&self) -> String {
        format!(
            r#"<idmef:IDMEF-Message xmlns:idmef="http://iana.org/idmef" version="1.0">
  <idmef:Alert messageid="{id}">
    <idmef:Analyzer analyzerid="infilter" />
    <idmef:CreateTime>{time}</idmef:CreateTime>
    <idmef:Source>
      <idmef:Node><idmef:Address category="ipv4-addr"><idmef:address>{src}</idmef:address></idmef:Address></idmef:Node>
    </idmef:Source>
    <idmef:Target>
      <idmef:Node><idmef:Address category="ipv4-addr"><idmef:address>{dst}</idmef:address></idmef:Address></idmef:Node>
      <idmef:Service><idmef:port>{port}</idmef:port><idmef:protocol>{proto}</idmef:protocol></idmef:Service>
    </idmef:Target>
    <idmef:Classification text="{class}" />
    <idmef:AdditionalData type="string" meaning="ingress-peer-as">{ingress}</idmef:AdditionalData>
    <idmef:AdditionalData type="integer" meaning="flow-count">{count}</idmef:AdditionalData>
    <idmef:AdditionalData type="integer" meaning="last-flow-time">{last}</idmef:AdditionalData>
  </idmef:Alert>
</idmef:IDMEF-Message>
"#,
            id = self.message_id,
            time = self.create_time_ms,
            src = self.source,
            dst = self.target,
            port = self.target_port,
            proto = self.protocol,
            class = self.classification(),
            ingress = self.ingress,
            count = self.count,
            last = self.last_time_ms,
        )
    }
}

/// Error from [`IdmefAlert::parse_xml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlertError {
    message: String,
}

impl std::fmt::Display for ParseAlertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed IDMEF alert: {}", self.message)
    }
}

impl std::error::Error for ParseAlertError {}

fn extract<'a>(xml: &'a str, open: &str, close: &str) -> Result<&'a str, ParseAlertError> {
    let start = xml.find(open).ok_or_else(|| ParseAlertError {
        message: format!("missing `{open}`"),
    })? + open.len();
    let end = xml[start..].find(close).ok_or_else(|| ParseAlertError {
        message: format!("missing `{close}`"),
    })? + start;
    Ok(&xml[start..end])
}

fn extract_attr<'a>(xml: &'a str, marker: &str) -> Result<&'a str, ParseAlertError> {
    let start = xml.find(marker).ok_or_else(|| ParseAlertError {
        message: format!("missing `{marker}`"),
    })? + marker.len();
    let end = xml[start..].find('"').ok_or_else(|| ParseAlertError {
        message: "unterminated attribute".to_owned(),
    })? + start;
    Ok(&xml[start..end])
}

impl IdmefAlert {
    /// Parses an alert back from the XML this crate renders — the
    /// consumer side of §5.1.4 ("receiving, parsing and displaying IDMEF
    /// alerts"). The `stage` is reconstructed from the classification text
    /// with detail fields zeroed where the text does not carry them.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAlertError`] when a required element is missing or
    /// unparsable.
    pub fn parse_xml(xml: &str) -> Result<IdmefAlert, ParseAlertError> {
        let bad = |what: &str| ParseAlertError {
            message: format!("bad {what}"),
        };
        let message_id: u64 = extract_attr(xml, "messageid=\"")?
            .parse()
            .map_err(|_| bad("message id"))?;
        let create_time_ms: u32 = extract(xml, "<idmef:CreateTime>", "</idmef:CreateTime>")?
            .trim()
            .parse()
            .map_err(|_| bad("create time"))?;
        let source_block = extract(xml, "<idmef:Source>", "</idmef:Source>")?;
        let source: std::net::Ipv4Addr =
            extract(source_block, "<idmef:address>", "</idmef:address>")?
                .parse()
                .map_err(|_| bad("source address"))?;
        let target_block = extract(xml, "<idmef:Target>", "</idmef:Target>")?;
        let target: std::net::Ipv4Addr =
            extract(target_block, "<idmef:address>", "</idmef:address>")?
                .parse()
                .map_err(|_| bad("target address"))?;
        let target_port: u16 = extract(target_block, "<idmef:port>", "</idmef:port>")?
            .parse()
            .map_err(|_| bad("target port"))?;
        let protocol: u8 = extract(target_block, "<idmef:protocol>", "</idmef:protocol>")?
            .parse()
            .map_err(|_| bad("protocol"))?;
        let ingress_text = extract(
            xml,
            "meaning=\"ingress-peer-as\">",
            "</idmef:AdditionalData>",
        )?;
        let ingress = PeerId(
            ingress_text
                .trim()
                .strip_prefix("PeerAS")
                .ok_or_else(|| bad("ingress"))?
                .parse()
                .map_err(|_| bad("ingress id"))?,
        );
        // Absent from XML an older collector wrote, where every alert was
        // one flow.
        let additional = |meaning: &str, absent: u32, what: &str| match extract(
            xml,
            meaning,
            "</idmef:AdditionalData>",
        ) {
            Ok(text) => text.trim().parse().map_err(|_| bad(what)),
            Err(_) => Ok(absent),
        };
        let count = additional("meaning=\"flow-count\">", 1, "flow count")?;
        let last_time_ms = additional(
            "meaning=\"last-flow-time\">",
            create_time_ms,
            "last flow time",
        )?;
        let class_text = extract_attr(xml, "Classification text=\"")?;
        let stage = if class_text.contains("unexpected ingress") {
            AttackStage::EiaMismatch { expected: None }
        } else if class_text.contains("network scan") {
            AttackStage::NetworkScan {
                dst_port: target_port,
                distinct_hosts: 0,
            }
        } else if class_text.contains("host scan") {
            AttackStage::HostScan {
                dst_addr: target,
                distinct_ports: 0,
            }
        } else if class_text.contains("anomalous") {
            AttackStage::NnsAnomaly {
                distance: 0,
                threshold: 0,
                class: infilter_traffic::AppClass::classify(protocol, target_port),
            }
        } else {
            return Err(bad("classification"));
        };
        Ok(IdmefAlert {
            message_id,
            create_time_ms,
            source,
            target,
            target_port,
            protocol,
            ingress,
            stage,
            count,
            last_time_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowRecord {
        FlowRecord {
            src_addr: "4.64.0.9".parse().unwrap(),
            dst_addr: "96.1.0.20".parse().unwrap(),
            dst_port: 1434,
            protocol: 17,
            last_ms: 5000,
            ..FlowRecord::default()
        }
    }

    #[test]
    fn xml_carries_all_fields() {
        let alert = IdmefAlert::new(
            42,
            &flow(),
            PeerId(3),
            AttackStage::NetworkScan {
                dst_port: 1434,
                distinct_hosts: 20,
            },
        );
        let xml = alert.to_xml();
        for needle in [
            "messageid=\"42\"",
            "4.64.0.9",
            "96.1.0.20",
            "<idmef:port>1434</idmef:port>",
            "PeerAS3",
            "network scan on port 1434",
            "meaning=\"flow-count\">1<",
            "meaning=\"last-flow-time\">5000<",
        ] {
            assert!(xml.contains(needle), "missing `{needle}` in:\n{xml}");
        }
        // Balanced tags (cheap well-formedness check).
        assert_eq!(xml.matches("<idmef:Alert").count(), 1);
        assert_eq!(xml.matches("</idmef:Alert>").count(), 1);
        assert_eq!(
            xml.matches("<idmef:Source>").count(),
            xml.matches("</idmef:Source>").count()
        );
    }

    #[test]
    fn xml_parses_back_to_the_same_alert_essentials() {
        let stages = [
            AttackStage::EiaMismatch {
                expected: Some(PeerId(2)),
            },
            AttackStage::NetworkScan {
                dst_port: 1434,
                distinct_hosts: 25,
            },
            AttackStage::HostScan {
                dst_addr: "96.1.0.20".parse().unwrap(),
                distinct_ports: 30,
            },
            AttackStage::NnsAnomaly {
                distance: 99,
                threshold: 10,
                class: infilter_traffic::AppClass::OtherUdp,
            },
        ];
        for (i, stage) in stages.into_iter().enumerate() {
            // The aggregate of `i + 1` flows, the latest ending at 5400.
            let alert = IdmefAlert {
                count: i as u32 + 1,
                last_time_ms: 5400,
                ..IdmefAlert::new(i as u64, &flow(), PeerId(4), stage)
            };
            let parsed = IdmefAlert::parse_xml(&alert.to_xml()).unwrap();
            assert_eq!(
                (parsed.count, parsed.last_time_ms),
                (alert.count, alert.last_time_ms)
            );
            assert_eq!(parsed.message_id, alert.message_id);
            assert_eq!(parsed.create_time_ms, alert.create_time_ms);
            assert_eq!(parsed.source, alert.source);
            assert_eq!(parsed.target, alert.target);
            assert_eq!(parsed.target_port, alert.target_port);
            assert_eq!(parsed.protocol, alert.protocol);
            assert_eq!(parsed.ingress, alert.ingress);
            // Stage kind survives the text round trip (detail fields are
            // not carried in the XML and reset to defaults).
            assert_eq!(
                std::mem::discriminant(&parsed.stage),
                std::mem::discriminant(&alert.stage)
            );
        }
    }

    /// XML written before alerts carried a count has neither
    /// `AdditionalData`: it reads back as one flow that ended at the
    /// create time.
    #[test]
    fn xml_from_an_older_collector_still_parses() {
        let alert = IdmefAlert {
            count: 9,
            last_time_ms: 7000,
            ..IdmefAlert::new(
                3,
                &flow(),
                PeerId(2),
                AttackStage::EiaMismatch { expected: None },
            )
        };
        let old: String = alert
            .to_xml()
            .lines()
            .filter(|line| !line.contains("flow-count") && !line.contains("last-flow-time"))
            .map(|line| format!("{line}\n"))
            .collect();
        assert!(old.contains("ingress-peer-as") && !old.contains("7000"));
        let parsed = IdmefAlert::parse_xml(&old).unwrap();
        assert_eq!((parsed.count, parsed.last_time_ms), (1, 5000));
        assert_eq!(parsed.ingress, PeerId(2));
        // Present but unparsable is an error, not a silent default.
        let mangled = alert.to_xml().replace(">9</idmef", ">nine</idmef");
        assert!(IdmefAlert::parse_xml(&mangled).is_err());
    }

    #[test]
    fn parse_rejects_mangled_xml() {
        let alert = IdmefAlert::new(
            7,
            &flow(),
            PeerId(1),
            AttackStage::EiaMismatch { expected: None },
        );
        let xml = alert.to_xml();
        assert!(IdmefAlert::parse_xml(&xml.replace("<idmef:CreateTime>", "<nope>")).is_err());
        assert!(IdmefAlert::parse_xml(&xml.replace("PeerAS1", "Peer1")).is_err());
        assert!(IdmefAlert::parse_xml("").is_err());
        let garbage = xml.replace("96.1.0.20", "not-an-ip");
        assert!(IdmefAlert::parse_xml(&garbage).is_err());
    }

    #[test]
    fn classification_per_stage() {
        let f = flow();
        let eia = IdmefAlert::new(
            1,
            &f,
            PeerId(1),
            AttackStage::EiaMismatch { expected: None },
        );
        assert!(eia.classification().contains("unexpected ingress"));
        let host = IdmefAlert::new(
            2,
            &f,
            PeerId(1),
            AttackStage::HostScan {
                dst_addr: f.dst_addr,
                distinct_ports: 30,
            },
        );
        assert!(host.classification().contains("host scan"));
        let nns = IdmefAlert::new(
            3,
            &f,
            PeerId(1),
            AttackStage::NnsAnomaly {
                distance: 300,
                threshold: 50,
                class: infilter_traffic::AppClass::OtherUdp,
            },
        );
        assert!(nns.classification().contains("distance 300"));
    }
}
