//! The observability demonstrator behind `exp-observe`: a two-peer replay
//! with one injected spoofed attack, driven end to end through the wire
//! format into a [`ConcurrentAnalyzer`], with delta-rate reporting, the
//! flight-recorder verdict trail, and the final Prometheus exposition.

use std::net::Ipv4Addr;

use infilter_core::{
    render_events_json, AnalyzerMetrics, ConcurrentAnalyzer, ConcurrentConfig, Effort,
    FlowDecision, PeerId,
};
use infilter_dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig, UdpReplayStats};
use infilter_net::SubBlock;
use infilter_netflow::{Datagram, FlowBatch};
use infilter_telemetry::{chrome_trace_json, trace, DeltaReporter, RateSample, Tracer};
use infilter_traffic::{AttackKind, NormalProfile, Trace};
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

/// The small testbed shape every observed run uses.
fn bed_config(cfg: &ObserveConfig) -> TestbedConfig {
    TestbedConfig {
        normal_flows_per_peer: cfg.flows_per_peer,
        ..TestbedConfig::small(cfg.seed)
    }
}

/// Sources for the injected attacks: every *other* peer's blocks (§6.3.1).
fn foreign_sources(bed_cfg: &TestbedConfig) -> AddressMapper {
    let foreign = (bed_cfg.blocks_per_peer..bed_cfg.n_peers * bed_cfg.blocks_per_peer)
        .map(|i| SubBlock::from_linear(i).expect("in range"));
    AddressMapper::from_sub_blocks(foreign)
}

/// The one address all injected attack flows carry: the foreign-block
/// mapper's image of [`ATTACK_SRC_SLOT`] under `cfg`'s testbed shape. The
/// `/ops` top-K table must rank it first after a replay.
pub fn attack_source(cfg: &ObserveConfig) -> Ipv4Addr {
    foreign_sources(&bed_config(cfg)).addr_for_slot(ATTACK_SRC_SLOT)
}

/// The workload [`run`] replays in process and [`replay_workload_to`]
/// ships over UDP: the exporters in replay order, each with the `(trace,
/// start offset ms)` pairs it exports. One Dagflow per peer replays normal
/// traffic from the peer's own blocks; then an attack Dagflow exporting
/// through peer 1 sends two shapes pinned to [`ATTACK_SRC_SLOT`]: a Slammer
/// spray (many hosts, one port — its per-shard distinct-host counts dilute
/// under sharding, so it exercises the NNS stage) and a host scan (one
/// host, many ports — all probes land on one shard, so the scan stage
/// reliably fires).
fn workload(cfg: &ObserveConfig) -> Vec<(Dagflow, Vec<(Trace, u32)>)> {
    let bed_cfg = bed_config(cfg);
    let exporter = |sources: AddressMapper, peer: u16| {
        Dagflow::new(DagflowConfig {
            sources,
            target_prefix: bed_cfg.target_prefix,
            export_port: 9000 + peer,
            input_if: peer,
            src_as: peer,
        })
    };
    let eia = eia_table(bed_cfg.n_peers, bed_cfg.blocks_per_peer);
    let mut exporters: Vec<_> = eia
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, blocks)| {
            let trace = NormalProfile::default().generate(
                &mut StdRng::seed_from_u64(cfg.seed ^ (0xa0 + i as u64)),
                cfg.flows_per_peer,
                bed_cfg.span_ms,
            );
            let sources = AddressMapper::from_sub_blocks(blocks.iter().copied());
            (exporter(sources, i as u16 + 1), vec![(trace, 0)])
        })
        .collect();
    let attack = |kind: AttackKind, salt: u64| {
        let mut trace = kind
            .generate(&mut StdRng::seed_from_u64(cfg.seed ^ salt), 1024)
            .trace;
        for f in &mut trace.flows {
            f.src_slot = ATTACK_SRC_SLOT;
        }
        trace
    };
    let span_ms = bed_cfg.span_ms as u32;
    exporters.push((
        exporter(foreign_sources(&bed_cfg), 1),
        vec![
            (attack(AttackKind::Slammer, 0xbad), span_ms / 2),
            (attack(AttackKind::HostScan, 0x5ca7), span_ms / 3),
        ],
    ));
    exporters
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
    let bed = Testbed::new(bed_config(&cfg));
    let engine = ConcurrentAnalyzer::new(
        bed.train(),
        ConcurrentConfig {
            shards: cfg.shards.max(1),
            ..ConcurrentConfig::default()
        },
    );

    let mut wire: Vec<(u16, Datagram)> = Vec::new();
    let mut exported_flows = 0u64;
    for (mut dagflow, traces) in workload(&cfg) {
        for (trace, offset_ms) in &traces {
            wire.extend(dagflow.replay_datagrams(trace, *offset_ms));
        }
        exported_flows += dagflow.replay_stats().flows;
    }

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

/// Ships the workload [`run`] replays in-process over live UDP to a
/// NetFlow v5 collector instead, making `exp-observe` the load generator
/// for a running `infilterd`.
///
/// # Errors
///
/// Propagates socket bind/send failures.
pub fn replay_workload_to<A: std::net::ToSocketAddrs + Copy>(
    cfg: ObserveConfig,
    to: A,
    pace: std::time::Duration,
) -> std::io::Result<UdpReplayStats> {
    let mut total = UdpReplayStats::default();
    for (mut dagflow, traces) in workload(&cfg) {
        for (trace, offset_ms) in &traces {
            let sent = dagflow.replay_to(trace, *offset_ms, to, pace)?;
            total.datagrams += sent.datagrams;
            total.flows += sent.flows;
            total.bytes += sent.bytes;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_core::Verdict;

    #[test]
    fn smoke_run_records_the_attack_in_every_document() {
        let report = run(ObserveConfig {
            flows_per_peer: 400,
            // Dagflow aggregates this workload into a few dozen datagrams;
            // trace all of them so the attack datagrams are deterministically
            // among the sampled set.
            trace_sample_every: 1,
            ..ObserveConfig::default()
        });
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
}
