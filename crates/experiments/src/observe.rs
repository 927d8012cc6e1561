//! The observability demonstrator behind `exp-observe`: a two-peer replay
//! with one injected spoofed attack, driven end to end through the wire
//! format into a [`ConcurrentAnalyzer`], with delta-rate reporting, the
//! flight-recorder verdict trail, and the final Prometheus exposition.
//!
//! The module also carries the CI contract: [`missing_families`] checks a
//! live exposition page against [`infilter_core::METRIC_FAMILIES`], so a
//! metric family that silently disappears fails `exp-observe --smoke`.

use std::net::Ipv4Addr;

use infilter_core::{
    render_events_json, AnalyzerMetrics, ConcurrentAnalyzer, ConcurrentConfig, Effort,
    FlowDecision, PeerId, METRIC_FAMILIES,
};
use infilter_dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig, UdpReplayStats};
use infilter_net::SubBlock;
use infilter_netflow::{Datagram, FlowBatch};
use infilter_telemetry::{chrome_trace_json, trace, DeltaReporter, RateSample, Tracer};
use infilter_traffic::{AttackKind, NormalProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Testbed, TestbedConfig};

/// The source slot every injected attack flow is pinned to, so the whole
/// spoofed burst arrives from one address and the attack-shape top-K has a
/// deterministic winner ([`attack_source`]).
pub const ATTACK_SRC_SLOT: u64 = 7;

/// Knobs for one observed replay run.
#[derive(Debug, Clone, Copy)]
pub struct ObserveConfig {
    /// Master seed (workload and training).
    pub seed: u64,
    /// Normal flows generated per peer.
    pub flows_per_peer: usize,
    /// Suspect-path shards for the concurrent engine.
    pub shards: usize,
    /// Emit one delta-rate snapshot every this many datagrams.
    pub report_every: usize,
    /// Trace 1 in this many datagrams (0 disables tracing).
    pub trace_sample_every: u64,
}

impl Default for ObserveConfig {
    fn default() -> ObserveConfig {
        ObserveConfig {
            seed: 42,
            flows_per_peer: 1500,
            shards: 4,
            report_every: 32,
            trace_sample_every: 16,
        }
    }
}

/// Everything one observed run produced.
#[derive(Debug)]
pub struct ObserveReport {
    /// Delta-rate snapshots, one per reporting interval.
    pub rates: Vec<Vec<RateSample>>,
    /// The most recent flight-recorder decisions, newest first.
    pub decisions: Vec<FlowDecision>,
    /// Final counter snapshot.
    pub metrics: AnalyzerMetrics,
    /// The final Prometheus text-format exposition page.
    pub exposition: String,
    /// Datagrams replayed over the emulated wire.
    pub datagrams: usize,
    /// Flow records carried in those datagrams.
    pub wire_flows: u64,
    /// Sampled spans as a Chrome trace-event JSON document (load it in
    /// `chrome://tracing` or Perfetto).
    pub trace_json: String,
    /// The engine's structured event journal as the `/events` document.
    pub events_json: String,
    /// The attack-shape document (`/ops`): top-K suspected sources and
    /// peers, per-peer drift health, and the windowed time series.
    pub ops_json: String,
}

/// The one address all injected attack flows carry: the foreign-block
/// mapper's image of [`ATTACK_SRC_SLOT`] under `cfg`'s testbed shape. The
/// `/ops` top-K table must rank it first after a replay.
pub fn attack_source(cfg: &ObserveConfig) -> Ipv4Addr {
    let bed_cfg = TestbedConfig {
        normal_flows_per_peer: cfg.flows_per_peer,
        ..TestbedConfig::small(cfg.seed)
    };
    let foreign: Vec<SubBlock> = (bed_cfg.blocks_per_peer
        ..bed_cfg.n_peers * bed_cfg.blocks_per_peer)
        .map(|i| SubBlock::from_linear(i).expect("in range"))
        .collect();
    AddressMapper::from_sub_blocks(foreign).addr_for_slot(ATTACK_SRC_SLOT)
}

/// Pins every flow in an attack trace to [`ATTACK_SRC_SLOT`].
fn pin_attack_source(trace: &mut infilter_traffic::Trace) {
    for f in &mut trace.flows {
        f.src_slot = ATTACK_SRC_SLOT;
    }
}

/// Metric families advertised in [`METRIC_FAMILIES`] but absent from a
/// rendered exposition page. Empty means the contract holds.
pub fn missing_families(exposition: &str) -> Vec<&'static str> {
    METRIC_FAMILIES
        .iter()
        .filter(|family| !exposition.contains(&format!("# TYPE {family} ")))
        .copied()
        .collect()
}

/// Runs the full observed replay: train on the small testbed, export two
/// peers' normal traffic plus one spoofed Slammer burst at peer 1 as
/// NetFlow v5 datagrams, round-trip each datagram through the wire codec,
/// and feed the decoded records to the concurrent engine.
///
/// # Panics
///
/// Panics if a datagram fails to decode its own encoding (a codec bug).
pub fn run(cfg: ObserveConfig) -> ObserveReport {
    let bed_cfg = TestbedConfig {
        normal_flows_per_peer: cfg.flows_per_peer,
        ..TestbedConfig::small(cfg.seed)
    };
    let bed = Testbed::new(bed_cfg.clone());
    let engine = ConcurrentAnalyzer::new(
        bed.train(),
        ConcurrentConfig {
            shards: cfg.shards.max(1),
            ..ConcurrentConfig::default()
        },
    );

    // Export side: one Dagflow per peer replaying its own blocks, plus an
    // attack Dagflow drawing sources from every *other* peer's blocks while
    // exporting through peer 1 (§6.3.1).
    let eia = eia_table(bed_cfg.n_peers, bed_cfg.blocks_per_peer);
    let span_ms = bed_cfg.span_ms;
    let mut wire: Vec<(u16, Datagram)> = Vec::new();
    let mut exported_flows = 0u64;
    for (peer, blocks) in eia.iter().enumerate().take(2) {
        let trace = NormalProfile::default().generate(
            &mut StdRng::seed_from_u64(cfg.seed ^ (0xa0 + peer as u64)),
            cfg.flows_per_peer,
            span_ms,
        );
        let mut dagflow = Dagflow::new(DagflowConfig {
            sources: AddressMapper::from_sub_blocks(blocks.iter().copied()),
            target_prefix: bed_cfg.target_prefix,
            export_port: 9001 + peer as u16,
            input_if: peer as u16 + 1,
            src_as: peer as u16 + 1,
        });
        wire.extend(dagflow.replay_datagrams(&trace, 0));
        exported_flows += dagflow.replay_stats().flows;
    }
    let foreign: Vec<SubBlock> = (bed_cfg.blocks_per_peer
        ..bed_cfg.n_peers * bed_cfg.blocks_per_peer)
        .map(|i| SubBlock::from_linear(i).expect("in range"))
        .collect();
    let mut attack = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(foreign),
        target_prefix: bed_cfg.target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    // Two attack shapes: a Slammer spray (many hosts, one port — its
    // per-shard distinct-host counts dilute under sharding, so it exercises
    // the NNS stage) and a host scan (one host, many ports — all probes
    // land on one shard, so the scan stage reliably fires).
    let mut slammer =
        AttackKind::Slammer.generate(&mut StdRng::seed_from_u64(cfg.seed ^ 0xbad), 1024);
    pin_attack_source(&mut slammer.trace);
    wire.extend(attack.replay_datagrams(&slammer.trace, span_ms as u32 / 2));
    let mut host_scan =
        AttackKind::HostScan.generate(&mut StdRng::seed_from_u64(cfg.seed ^ 0x5ca7), 1024);
    pin_attack_source(&mut host_scan.trace);
    wire.extend(attack.replay_datagrams(&host_scan.trace, span_ms as u32 / 3));
    exported_flows += attack.replay_stats().flows;

    // Collector side: wire round-trip each datagram, demultiplex the peer
    // from the export port, and batch-process the decoded records.
    let mut reporter = DeltaReporter::new();
    let mut rates = Vec::new();
    let tracer = Tracer::new(cfg.trace_sample_every, 256);
    let mut columns = FlowBatch::new();
    let mut verdicts = Vec::new();
    let started = std::time::Instant::now();
    let mut last_report = 0.0f64;
    for (i, (port, datagram)) in wire.iter().enumerate() {
        let decoded = Datagram::decode(&datagram.encode()).expect("wire round-trip");
        columns.clear();
        columns.extend_from_records(&decoded.records);
        verdicts.clear();
        // Head sampling at the same point the daemon decides: datagram
        // ingress. A sampled datagram's batch call emits the engine spans
        // (eia, scan, nns, verdict) under one trace.
        let trace_id = tracer.decide();
        trace::begin(trace_id);
        engine.process_flow_batch_into(PeerId(port - 9000), &columns, Effort::Full, &mut verdicts);
        if trace_id != 0 {
            trace::finish(tracer.collector());
        }
        if cfg.report_every != 0 && (i + 1) % cfg.report_every == 0 {
            let now = started.elapsed().as_secs_f64();
            rates.push(reporter.observe(engine.metrics().named_counters(), now - last_report));
            last_report = now;
        }
    }
    // Final interval: whatever moved since the last periodic snapshot.
    rates.push(reporter.observe(
        engine.metrics().named_counters(),
        started.elapsed().as_secs_f64() - last_report,
    ));

    ObserveReport {
        rates,
        decisions: engine.explain_last(16),
        metrics: engine.metrics(),
        exposition: engine.prometheus_text(),
        datagrams: wire.len(),
        wire_flows: exported_flows,
        trace_json: chrome_trace_json(&tracer.last(64)),
        events_json: render_events_json(&engine.telemetry().journal().last(256)),
        ops_json: engine.telemetry().ops_json(24),
    }
}

/// Ships the exact workload [`run`] replays in-process — two peers' normal
/// traffic plus the spoofed Slammer burst and host scan through peer 1 —
/// over live UDP to a NetFlow v5 collector instead, making `exp-observe`
/// the load generator for a running `infilterd`.
///
/// # Errors
///
/// Propagates socket bind/send failures.
pub fn replay_workload_to<A: std::net::ToSocketAddrs + Copy>(
    cfg: ObserveConfig,
    to: A,
    pace: std::time::Duration,
) -> std::io::Result<UdpReplayStats> {
    let bed_cfg = TestbedConfig {
        normal_flows_per_peer: cfg.flows_per_peer,
        ..TestbedConfig::small(cfg.seed)
    };
    let eia = eia_table(bed_cfg.n_peers, bed_cfg.blocks_per_peer);
    let mut total = UdpReplayStats::default();
    let mut tally = |s: UdpReplayStats| {
        total.datagrams += s.datagrams;
        total.flows += s.flows;
        total.bytes += s.bytes;
    };
    for (peer, blocks) in eia.iter().enumerate().take(2) {
        let trace = NormalProfile::default().generate(
            &mut StdRng::seed_from_u64(cfg.seed ^ (0xa0 + peer as u64)),
            cfg.flows_per_peer,
            bed_cfg.span_ms,
        );
        let mut dagflow = Dagflow::new(DagflowConfig {
            sources: AddressMapper::from_sub_blocks(blocks.iter().copied()),
            target_prefix: bed_cfg.target_prefix,
            export_port: 9001 + peer as u16,
            input_if: peer as u16 + 1,
            src_as: peer as u16 + 1,
        });
        tally(dagflow.replay_to(&trace, 0, to, pace)?);
    }
    let foreign: Vec<SubBlock> = (bed_cfg.blocks_per_peer
        ..bed_cfg.n_peers * bed_cfg.blocks_per_peer)
        .map(|i| SubBlock::from_linear(i).expect("in range"))
        .collect();
    let mut attack = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(foreign),
        target_prefix: bed_cfg.target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    let mut slammer =
        AttackKind::Slammer.generate(&mut StdRng::seed_from_u64(cfg.seed ^ 0xbad), 1024);
    pin_attack_source(&mut slammer.trace);
    tally(attack.replay_to(&slammer.trace, bed_cfg.span_ms as u32 / 2, to, pace)?);
    let mut host_scan =
        AttackKind::HostScan.generate(&mut StdRng::seed_from_u64(cfg.seed ^ 0x5ca7), 1024);
    pin_attack_source(&mut host_scan.trace);
    tally(attack.replay_to(&host_scan.trace, bed_cfg.span_ms as u32 / 3, to, pace)?);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_core::Verdict;

    #[test]
    fn smoke_run_exposes_every_family_and_records_the_attack() {
        let report = run(ObserveConfig {
            flows_per_peer: 400,
            // Dagflow aggregates this workload into a few dozen datagrams;
            // trace all of them so the attack datagrams are deterministically
            // among the sampled set.
            trace_sample_every: 1,
            ..ObserveConfig::default()
        });
        assert_eq!(
            missing_families(&report.exposition),
            Vec::<&str>::new(),
            "exposition must cover the advertised contract"
        );
        assert_eq!(report.metrics.flows, report.wire_flows);
        assert!(report.metrics.attacks() > 0, "the Slammer burst must flag");
        assert!(
            report
                .decisions
                .iter()
                .any(|d| matches!(d.verdict, Verdict::Attack(_))),
            "flight recorder must hold attack verdicts"
        );
        assert!(!report.rates.is_empty());
        // The sampled traces carry the engine pipeline spans; Enhanced
        // mode with injected attacks exercises every stage.
        assert!(report.trace_json.starts_with("{\"traceEvents\":["));
        for span in ["eia", "verdict", "scan", "nns"] {
            assert!(
                report.trace_json.contains(&format!("\"name\":\"{span}\"")),
                "span `{span}` missing from trace:\n{}",
                report.trace_json
            );
        }
        assert!(
            report.events_json.contains("\"kind\":\"alert\""),
            "alert events missing from journal:\n{}",
            report.events_json
        );
    }

    #[test]
    fn ops_document_ranks_the_pinned_attack_source_first() {
        let cfg = ObserveConfig {
            flows_per_peer: 400,
            ..ObserveConfig::default()
        };
        let report = run(cfg);
        let src = attack_source(&cfg);
        // All attack flows carry one pinned source and normal traffic is
        // EIA-legal, so the suspect sketches see exactly that address.
        assert!(
            report
                .ops_json
                .contains(&format!("\"top_sources\":[{{\"addr\":\"{src}\"")),
            "attack source {src} must rank first in /ops:\n{}",
            report.ops_json
        );
        for key in ["\"top_peers\"", "\"peers\"", "\"windows\"", "\"eia\""] {
            assert!(
                report.ops_json.contains(key),
                "`{key}` missing from /ops:\n{}",
                report.ops_json
            );
        }
    }

    #[test]
    fn missing_families_flags_removals() {
        let report = run(ObserveConfig {
            flows_per_peer: 120,
            ..ObserveConfig::default()
        });
        let truncated = report
            .exposition
            .replace("# TYPE infilter_flows_total ", "# TYPE renamed_total ");
        assert_eq!(missing_families(&truncated), vec!["infilter_flows_total"]);
    }
}
