//! The structured event journal's domain half: which state changes are
//! journal-worthy ([`JournalEvent`]), their stable `kind` strings and
//! detail lines, and the `/events` body. The kinds an operator can meet
//! are exactly the arms of [`JournalEvent::kind`].

use infilter_telemetry::SeqEvent;

use crate::{Effort, PeerId};

/// One journal-worthy state change: the rare, operator-relevant events
/// whose *order* matters — the evidence chain counters cannot give.
/// Recorded into [`crate::PipelineTelemetry::journal`] by the engine and the
/// ingest daemon, served at `/events`, and folded into the shutdown
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// The ingest load-shedding ladder moved to a new rung.
    LadderTransition {
        /// Rung before the move.
        from: Effort,
        /// Rung after the move.
        to: Effort,
    },
    /// The EIA registry was hot-swapped (`reload_eia`).
    EiaReload {
        /// Preloaded prefixes now live.
        prefixes: u32,
    },
    /// An intake ring shed a batch under backpressure.
    RingDrop {
        /// Which intake ring shed.
        ring: u16,
        /// Flows in the shed batch.
        flows: u32,
    },
    /// A forgiven source was adopted into a peer's EIA set (§5.2).
    Adoption {
        /// The adopting ingress peer.
        peer: PeerId,
    },
    /// An IDMEF alert *message* was opened: the first flagged flow of its
    /// `(ingress, stage, target)` since the last drain. The flows that fold
    /// into it afterwards journal nothing, and its
    /// [`count`](crate::IdmefAlert::count) is only final at that drain. A
    /// sustained attack still opens one per key per drain.
    Alert {
        /// Ingress peer of the first offending flow.
        peer: PeerId,
        /// The alert's message id.
        message_id: u64,
    },
    /// A peer's EIA health/drift score crossed the configured threshold
    /// (edge-triggered: one event per excursion above the line).
    PeerDrift {
        /// The drifting ingress peer.
        peer: PeerId,
        /// The drift score at crossing, in thousandths (0..=1000).
        score_milli: u32,
    },
    /// Durable EIA state was replayed at boot (warm restart).
    StoreRecovery {
        /// Adoption records replayed from the log.
        records: u32,
        /// Log segments scanned.
        segments: u32,
        /// Age of the sealed snapshot the replay started from, seconds
        /// (`u32::MAX`: recovery found no snapshot).
        snapshot_age_seconds: u32,
    },
    /// The durable store sealed a compacted EIA snapshot.
    StoreSeal {
        /// EIA entries in the sealed snapshot.
        entries: u32,
    },
}

impl JournalEvent {
    /// Stable machine-readable event kind, used as the JSON `kind` field
    /// and the Prometheus label value.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::LadderTransition { .. } => "ladder_transition",
            JournalEvent::EiaReload { .. } => "eia_reload",
            JournalEvent::RingDrop { .. } => "ring_drop",
            JournalEvent::Adoption { .. } => "adoption",
            JournalEvent::Alert { .. } => "alert",
            JournalEvent::PeerDrift { .. } => "peer_drift",
            JournalEvent::StoreRecovery { .. } => "store_recovery",
            JournalEvent::StoreSeal { .. } => "store_seal",
        }
    }
}

impl std::fmt::Display for JournalEvent {
    /// Human detail line; deliberately free of `"` and `\` so it can be
    /// embedded in hand-rendered JSON without escaping.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalEvent::LadderTransition { from, to } => {
                write!(f, "{} -> {}", from.as_label(), to.as_label())
            }
            JournalEvent::EiaReload { prefixes } => write!(f, "{prefixes} prefixes live"),
            JournalEvent::RingDrop { ring, flows } => {
                write!(f, "ring {ring} shed {flows} flows")
            }
            JournalEvent::Adoption { peer } => write!(f, "adopted into {peer}"),
            JournalEvent::Alert { peer, message_id } => {
                write!(f, "message {message_id} via {peer}")
            }
            JournalEvent::PeerDrift { peer, score_milli } => {
                write!(f, "{peer} drift score {score_milli}/1000")
            }
            JournalEvent::StoreRecovery {
                records,
                segments,
                snapshot_age_seconds,
            } => {
                write!(f, "replayed {records} records from {segments} segments")?;
                if *snapshot_age_seconds == u32::MAX {
                    write!(f, ", no snapshot")
                } else {
                    write!(f, ", snapshot {snapshot_age_seconds}s old")
                }
            }
            JournalEvent::StoreSeal { entries } => {
                write!(f, "sealed snapshot of {entries} entries")
            }
        }
    }
}

/// Renders journal events (newest first, as [`infilter_telemetry::Journal::last`] returns
/// them) as one JSON document for the `/events` endpoint:
/// `{"events":[{"seq":..,"at_ns":..,"kind":"..","detail":".."}]}`.
pub fn render_events_json(events: &[SeqEvent<JournalEvent>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            e.seq,
            e.at_ns,
            e.event.kind(),
            e.event
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::{PipelineTelemetry, TelemetryConfig};
    use super::*;

    #[test]
    fn journal_orders_events_and_renders_json() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 1);
        telemetry.journal_event(JournalEvent::EiaReload { prefixes: 7 });
        telemetry.record_adoption(PeerId(2));
        telemetry.journal_event(JournalEvent::LadderTransition {
            from: Effort::Full,
            to: Effort::SkipNns,
        });
        assert_eq!(telemetry.journal().recorded(), 3);
        let events = telemetry.journal().last(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event.kind(), "ladder_transition");
        assert_eq!(events[2].seq, 1, "newest first");
        let json = render_events_json(&events);
        assert!(json.starts_with("{\"events\":["), "bad prefix: {json}");
        assert!(json.contains("\"kind\":\"eia_reload\",\"detail\":\"7 prefixes live\""));
        assert!(json.contains("\"kind\":\"adoption\",\"detail\":\"adopted into PeerAS2\""));
        assert!(json.contains("\"detail\":\"full -> skip_nns\""));
        assert!(json.ends_with("\n]}\n"), "bad suffix: {json}");
        assert!(render_events_json(&[]).contains("{\"events\":[\n]}"));
    }
}
