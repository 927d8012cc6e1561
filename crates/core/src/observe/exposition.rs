//! The exposition renderer — and with it the metric contract: a family
//! exists because [`render_exposition`] emits it, unconditionally, with the
//! name, type and help text written here and nowhere else. The README
//! "Monitoring" reference block is generated from a rendered page and held
//! to it by `crates/ingest/tests/reference_block.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use infilter_telemetry::PromText;

use super::{PeerCounters, PipelineTelemetry};
use crate::AnalyzerMetrics;

/// `le` bounds for latency histograms, nanoseconds (250 ns – 10 ms).
const LATENCY_BOUNDS_NS: &[u64] = &[
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 10_000_000,
];

/// `le` bounds for Hamming distances (paper: d = 720, thresholds ≪ d).
const DISTANCE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// `le` bounds for scan counters (thresholds default to ≤ 32ish).
const SCAN_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Renders one Prometheus 0.0.4 exposition page from a counter snapshot,
/// the telemetry state, each shard's `(buffered flows, counter entries,
/// suspects routed to it)` read under its lock at scrape time, the
/// published frozen-EIA table size as `(prefixes, approximate resident
/// bytes)`, and the write side's sightings window as `(live candidates,
/// evicted)`.
pub(crate) fn render_exposition(
    metrics: &AnalyzerMetrics,
    telemetry: &PipelineTelemetry,
    shards: &[(usize, usize, u64)],
    eia_table: (usize, usize),
    sightings: (usize, u64),
) -> String {
    let mut page = PromText::new();
    page.counter(
        "infilter_flows_total",
        "Flows processed (Figure 12 entries).",
        metrics.flows,
    );
    page.counter(
        "infilter_eia_match_total",
        "Flows whose EIA check matched (fast path).",
        metrics.eia_match,
    );
    page.counter(
        "infilter_eia_suspect_total",
        "Flows the EIA check flagged as suspect.",
        metrics.eia_suspect,
    );
    page.counter_family(
        "infilter_attacks_total",
        "Flows flagged as attacks, by deciding stage.",
        "stage",
        [
            ("eia", metrics.eia_attacks),
            ("scan", metrics.scan_attacks),
            ("nns", metrics.nns_attacks),
        ],
    );
    page.counter(
        "infilter_forgiven_total",
        "Suspects cleared by the enhanced analysis.",
        metrics.forgiven,
    );
    page.counter(
        "infilter_adoptions_total",
        "Sources dynamically adopted into EIA sets.",
        metrics.adoptions,
    );
    page.gauge(
        "infilter_eia_prefixes",
        "Prefixes in the published frozen EIA table.",
        eia_table.0 as f64,
    );
    page.gauge(
        "infilter_eia_bytes",
        "Approximate resident bytes of the published frozen EIA table.",
        eia_table.1 as f64,
    );
    page.gauge(
        "infilter_sightings_entries",
        "Adoption candidates in the sightings window (capacity 65536).",
        sightings.0 as f64,
    );
    page.counter(
        "infilter_sightings_evicted_total",
        "Adoption candidates pushed out of the window before reaching the threshold.",
        sightings.1,
    );
    page.counter(
        "infilter_snapshot_republish_total",
        "EIA snapshot republications to the read side.",
        telemetry.republishes(),
    );
    page.counter(
        "infilter_recorder_dropped_total",
        "Flight-recorder entries dropped on slot contention.",
        telemetry.recorder_dropped(),
    );
    page.counter(
        "infilter_journal_events_total",
        "Structured events journalled (highest sequence number).",
        telemetry.journal().recorded(),
    );
    page.counter(
        "infilter_journal_dropped_total",
        "Journal entries lost to slot contention.",
        telemetry.journal().dropped(),
    );

    let peers = telemetry.peer_counters();
    let by_peer = |pick: fn(&PeerCounters) -> &AtomicU64| {
        peers
            .iter()
            .map(move |(id, cell)| (*id, pick(cell).load(Ordering::Relaxed)))
    };
    page.counter_family(
        "infilter_peer_suspects_total",
        "EIA-suspect flows by ingress peer AS.",
        "peer",
        by_peer(|c| &c.suspects),
    );
    page.counter_family(
        "infilter_peer_attacks_total",
        "Attack verdicts by ingress peer AS.",
        "peer",
        by_peer(|c| &c.attacks),
    );
    page.counter_family(
        "infilter_peer_forgiven_total",
        "Forgiven suspects by ingress peer AS.",
        "peer",
        by_peer(|c| &c.forgiven),
    );
    page.counter_family(
        "infilter_peer_adoptions_total",
        "EIA adoptions by ingress peer AS.",
        "peer",
        by_peer(|c| &c.adoptions),
    );

    let by_shard = |pick: fn(&(usize, usize, u64)) -> u64| shards.iter().map(pick).enumerate();
    page.counter_family(
        "infilter_shard_suspects_total",
        "Suspects routed to each shard (imbalance signal).",
        "shard",
        by_shard(|c| c.2),
    );
    page.gauge_family(
        "infilter_shard_scan_buffered",
        "Flows currently buffered by each shard's Scan Analysis.",
        "shard",
        by_shard(|c| c.0 as u64),
    );
    page.gauge_family(
        "infilter_shard_scan_entries",
        "Live scan-counter entries held by each shard.",
        "shard",
        by_shard(|c| c.1 as u64),
    );

    page.histogram(
        "infilter_fast_path_latency_ns",
        "Sampled per-flow latency, EIA-match fast path.",
        &telemetry.fast_path_latency(),
        LATENCY_BOUNDS_NS,
    );
    page.exemplar("infilter_fast_path_latency_ns", telemetry.fast_exemplar());
    page.histogram(
        "infilter_suspect_path_latency_ns",
        "Per-flow latency through the full suspect analysis.",
        &telemetry.suspect_path_latency(),
        LATENCY_BOUNDS_NS,
    );
    page.exemplar(
        "infilter_suspect_path_latency_ns",
        telemetry.suspect_exemplar(),
    );
    page.histogram(
        "infilter_nns_search_latency_ns",
        "NNS nearest-neighbour search latency.",
        &telemetry.nns_search_latency(),
        LATENCY_BOUNDS_NS,
    );
    page.histogram(
        "infilter_nns_distance",
        "Hamming distance to the nearest normal neighbour.",
        &telemetry.nns_distance_histogram(),
        DISTANCE_BOUNDS,
    );
    page.histogram(
        "infilter_nns_tables_probed",
        "Hash tables probed per NNS search.",
        &telemetry.nns_tables_histogram(),
        SCAN_BOUNDS,
    );
    page.histogram(
        "infilter_scan_distinct_hosts",
        "Distinct hosts counted for the suspect's (ingress, port) at decision time.",
        &telemetry.scan_hosts_histogram(),
        SCAN_BOUNDS,
    );
    page.histogram(
        "infilter_scan_distinct_ports",
        "Distinct ports counted for the suspect's (ingress, host) at decision time.",
        &telemetry.scan_ports_histogram(),
        SCAN_BOUNDS,
    );

    let shape = telemetry.shape_summary();
    page.gauge_family(
        "infilter_top_source_suspects",
        "Top suspected spoofed sources: estimated suspect flows (sampled count x stride).",
        "addr",
        shape.top_sources.iter().copied(),
    );
    page.gauge_family(
        "infilter_peer_distinct_sources",
        "Estimated distinct suspect sources per ingress peer (HLL).",
        "peer",
        shape.peers.iter().map(|p| (p.peer, p.distinct_sources)),
    );
    page.gauge_family(
        "infilter_peer_drift_score",
        "Per-peer EIA health/drift score, thousandths (0-1000).",
        "peer",
        shape
            .peers
            .iter()
            .map(|p| (p.peer, u64::from(p.drift_milli))),
    );
    page.counter(
        "infilter_shape_dropped_total",
        "Attack-shape samples discarded (lock contention or peer-slot overflow).",
        telemetry.shape_dropped(),
    );
    page.counter(
        "infilter_peer_folded_total",
        "Per-peer counter lookups folded into the overflow cell past the peer cap.",
        telemetry.peer_folded(),
    );
    page.gauge(
        "infilter_eia_snapshot_age_seconds",
        "Seconds since the EIA snapshot readers see was published.",
        telemetry.snapshot_health().age_seconds() as f64,
    );
    page.render()
}

#[cfg(test)]
mod tests {
    use super::super::tests::flow;
    use super::super::{NnsObservation, SuspectObservation, TelemetryConfig};
    use super::*;
    use crate::{PeerId, Verdict};

    #[test]
    fn exposition_carries_the_values_it_was_handed() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 2);
        telemetry.record_suspect(
            0,
            PeerId(3),
            Some(PeerId(1)),
            &flow(),
            &SuspectObservation {
                scan_distinct_hosts: 2,
                scan_distinct_ports: 1,
                nns: Some(NnsObservation {
                    distance: 40,
                    threshold: 30,
                    search_ns: 900,
                    tables_probed: 10,
                }),
            },
            Verdict::Attack(crate::AttackStage::EiaMismatch { expected: None }),
            2_000,
        );
        telemetry
            .peer_cell(PeerId(3))
            .suspects
            .fetch_add(1, Ordering::Relaxed);
        telemetry.record_republish();
        let metrics = AnalyzerMetrics {
            flows: 5,
            eia_match: 4,
            eia_suspect: 1,
            eia_attacks: 1,
            ..AnalyzerMetrics::default()
        };
        let shards = [(3, 2, 1), (0, 0, 0)];
        let page = render_exposition(&metrics, &telemetry, &shards, (42, 4096), (7, 9));
        assert!(page.contains("infilter_attacks_total{stage=\"eia\"} 1"));
        assert!(page.contains("infilter_peer_suspects_total{peer=\"3\"} 1"));
        assert!(page.contains("infilter_shard_scan_buffered{shard=\"0\"} 3"));
        assert!(page.contains("infilter_shard_suspects_total{shard=\"0\"} 1"));
        assert!(page.contains("infilter_snapshot_republish_total 1"));
        assert!(page.contains("infilter_sightings_entries 7"));
        assert!(page.contains("infilter_sightings_evicted_total 9"));
    }

    #[test]
    fn exemplars_link_histograms_to_traces() {
        let telemetry = PipelineTelemetry::new(TelemetryConfig::default(), 1);
        // No trace active: the offer is discarded, no exemplar comment.
        telemetry.observe_fast_latency(900);
        assert_eq!(telemetry.fast_exemplar(), None);
        // With an active trace the worst sample wins and the exposition
        // carries the link as a full-line comment.
        infilter_telemetry::trace::begin(41);
        telemetry.observe_fast_latency(4_000);
        telemetry.observe_fast_latency(2_000);
        infilter_telemetry::trace::abandon();
        assert_eq!(telemetry.fast_exemplar(), Some((4_000, 41)));
        let page = render_exposition(
            &AnalyzerMetrics::default(),
            &telemetry,
            &[(0, 0, 0)],
            (0, 0),
            (0, 0),
        );
        assert!(
            page.contains("# EXEMPLAR infilter_fast_path_latency_ns value=4000 trace_id=41"),
            "exemplar comment missing:\n{page}"
        );
    }
}
