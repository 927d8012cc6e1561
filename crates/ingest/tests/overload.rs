//! Overload behaviour, in-process and socket-free: flood the intake rings
//! past the watermarks and watch the degradation ladder engage, shed, and
//! recover — with every stage visible in the rendered Prometheus page.

use std::sync::Arc;

use infilter_core::{Effort, Mode, PeerId};
use infilter_ingest::bootstrap::{bootstrap_engine, BootstrapConfig};
use infilter_ingest::smoke::metric_value;
use infilter_ingest::{Batch, DaemonConfig, IngestMetrics, IngestPump, Intake, LadderConfig};
use infilter_netflow::FlowRecord;

fn daemon_config(mode: Mode) -> DaemonConfig {
    DaemonConfig::builder()
        .mode(mode)
        .peer(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"))
        .peer(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"))
        .build()
        .expect("valid config")
}

fn legal_record(i: u32) -> FlowRecord {
    FlowRecord {
        src_addr: (0x0300_0100u32 + i % 512).into(),
        dst_addr: "96.1.0.20".parse().unwrap(),
        dst_port: 80,
        protocol: 6,
        input_if: 1,
        packets: 12,
        octets: 6000,
        last_ms: 900,
        ..FlowRecord::default()
    }
}

fn legal_batch(i: u32) -> Batch {
    Batch::new(PeerId(1), std::iter::once(legal_record(i)).collect())
}

fn spoofed_batch(i: u32) -> Batch {
    spoofed_batch_via(PeerId(1), i)
}

fn spoofed_batch_via(ingress: PeerId, i: u32) -> Batch {
    Batch::new(
        ingress,
        std::iter::once(FlowRecord {
            src_addr: (0x0320_0000u32 + i).into(),
            ..legal_record(0)
        })
        .collect(),
    )
}

#[test]
fn ladder_degrades_sheds_and_recovers() {
    let engine = bootstrap_engine(&daemon_config(Mode::Enhanced), &BootstrapConfig::default())
        .expect("bootstrap");
    let intake = Arc::new(Intake::new(1, 100, Arc::new(IngestMetrics::default())));
    let ladder = LadderConfig {
        skip_nns_above: 0.5,
        bi_only_above: 0.8,
        recover_below: 0.25,
        recover_after: 3,
    };
    let mut pump = IngestPump::new(engine, intake.clone(), ladder, 10, 64);
    assert_eq!(pump.effort(), Effort::Full);

    // Calm traffic processes at full effort.
    for i in 0..5 {
        intake.push_batch(legal_batch(i));
    }
    assert!(pump.step() > 0);
    assert_eq!(pump.effort(), Effort::Full);

    // 60 % occupancy crosses the first watermark: the next step degrades
    // to SkipNns before processing anything.
    for i in 0..60 {
        intake.push_batch(legal_batch(i));
    }
    pump.step();
    assert_eq!(pump.effort(), Effort::SkipNns);

    // 90 % crosses the second watermark.
    for i in 0..40 {
        intake.push_batch(legal_batch(i));
    }
    pump.step();
    assert_eq!(pump.effort(), Effort::BiOnly);

    // Past capacity the intake sheds — counted, never blocking.
    for i in 0..120 {
        intake.push_batch(legal_batch(i));
    }
    let shed = pump.metrics().snapshot();
    assert!(shed.shed_batches > 0, "full ring must shed");
    assert_eq!(shed.shed_flows, shed.shed_batches);

    // Draining re-observes each step, so the backlog clears and calm
    // steps walk the ladder back up one rung at a time.
    pump.drain();
    for _ in 0..20 {
        pump.step();
    }
    assert_eq!(pump.effort(), Effort::Full, "ladder must recover when calm");

    let snap = pump.metrics().snapshot();
    assert!(snap.transitions >= 3, "down twice, up at least once");
    assert!(
        snap.flows_by_effort.iter().all(|&n| n > 0),
        "every rung must have processed flows: {:?}",
        snap.flows_by_effort
    );
    assert_eq!(
        snap.flows_by_effort.iter().sum::<u64>() + snap.shed_flows,
        225,
        "every pushed flow is either processed at some rung or shed"
    );

    // The whole story is on the exposition page.
    let page = pump.prometheus_text();
    for label in ["full", "skip_nns", "bi_only"] {
        let key = format!("infilterd_effort_transitions_total{{to=\"{label}\"}}");
        assert!(
            metric_value(&page, &key).unwrap_or(0.0) >= 1.0,
            "{key} must record the transition"
        );
        let flows_key = format!("infilterd_flows_by_effort_total{{effort=\"{label}\"}}");
        assert!(
            metric_value(&page, &flows_key).unwrap_or(0.0) >= 1.0,
            "{flows_key} must be visible"
        );
    }
    assert_eq!(metric_value(&page, "infilterd_effort"), Some(0.0));
    assert!(metric_value(&page, "infilterd_shed_batches_total").unwrap_or(0.0) >= 1.0);
}

#[test]
fn skip_nns_and_bi_only_transitions_are_counted_separately() {
    let engine = bootstrap_engine(&daemon_config(Mode::Enhanced), &BootstrapConfig::default())
        .expect("bootstrap");
    let intake = Arc::new(Intake::new(1, 10, Arc::new(IngestMetrics::default())));
    let ladder = LadderConfig {
        skip_nns_above: 0.3,
        bi_only_above: 0.8,
        recover_below: 0.1,
        recover_after: 2,
    };
    let mut pump = IngestPump::new(engine, intake.clone(), ladder, 2, 16);

    // Jumping straight past both watermarks transitions directly to the
    // bottom rung — one transition, not two.
    for i in 0..10 {
        intake.push_batch(legal_batch(i));
    }
    pump.step();
    assert_eq!(pump.effort(), Effort::BiOnly);
    let page = pump.prometheus_text();
    assert_eq!(
        metric_value(&page, "infilterd_effort_transitions_total{to=\"bi_only\"}"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&page, "infilterd_effort_transitions_total{to=\"skip_nns\"}"),
        Some(0.0)
    );
    assert_eq!(metric_value(&page, "infilterd_effort"), Some(2.0));
}

#[test]
fn alert_spool_drops_oldest_with_accounting() {
    // Basic mode: every spoofed flow is an immediate EIA-mismatch attack,
    // so alert production is deterministic — one alert per ingress the
    // step saw an attack through, hence five ingresses.
    let engine = bootstrap_engine(&daemon_config(Mode::Basic), &BootstrapConfig::default())
        .expect("bootstrap");
    let intake = Arc::new(Intake::new(1, 100, Arc::new(IngestMetrics::default())));
    let mut pump = IngestPump::new(engine, intake.clone(), LadderConfig::default(), 10, 2);

    for i in 0..5 {
        intake.push_batch(spoofed_batch_via(PeerId(10 + i as u16), i));
    }
    pump.drain();
    assert_eq!(pump.spooled(), 2, "spool is bounded");
    assert_eq!(pump.metrics().snapshot().alerts_dropped, 3);
    let drained = pump.take_alerts(0);
    assert_eq!(drained.len(), 2);
    assert_eq!(pump.spooled(), 0);
}

/// The journal is for state changes. An attack journals one record per
/// alert *message* — per (ingress, stage, victim) per pump step — so at the
/// daemon's shipped sizes a 100 000-flow flood through two ingresses leaves
/// the ladder move that preceded it readable. One record per flagged flow
/// wrapped the 1 024 slots every 1 024 attack flows.
#[test]
fn a_flood_does_not_wipe_the_journal() {
    use infilter_telemetry::Tracer;

    let shipped = DaemonConfig::default();
    let cfg = daemon_config(Mode::Enhanced);
    assert_eq!(cfg.journal_capacity, shipped.journal_capacity);
    let engine = bootstrap_engine(&cfg, &BootstrapConfig::default()).expect("bootstrap");
    let journal = Arc::clone(engine.telemetry().journal());
    let intake = Arc::new(Intake::with_observers(
        cfg.rings,
        cfg.ring_capacity,
        Arc::new(IngestMetrics::default()),
        Arc::new(Tracer::new(cfg.trace_sample_every, cfg.trace_capacity)),
        Arc::clone(&journal),
    ));
    let mut pump = IngestPump::new(
        engine,
        intake.clone(),
        cfg.ladder,
        cfg.batch_budget,
        cfg.alert_spool,
    );

    // A burst past the first watermark moves the ladder; calm steps move
    // it back.
    for i in 0..cfg.ring_capacity as u32 * 6 / 10 {
        intake.push_batch(legal_batch(i));
    }
    pump.step();
    assert_eq!(pump.effort(), Effort::SkipNns);
    pump.drain();
    for _ in 0..=cfg.ladder.recover_after {
        pump.step();
    }
    assert_eq!(pump.effort(), Effort::Full);
    assert!(pump.take_alerts(0).is_empty());
    let before = journal.recorded();
    assert_eq!(before, 2, "down and up");

    // The flood: one-packet probes from never-repeating sources nobody
    // owns, through two ingresses, at one victim each, the port moving on
    // every flow. Datagram-sized batches, a step every 16 of them.
    const FLOWS: u32 = 100_000;
    let (mut alerts, mut flagged) = (0u64, 0u64);
    for first in (0..FLOWS).step_by(30) {
        let peer = 1 + (first / 30 % 2) as u16;
        let records = (first..(first + 30).min(FLOWS)).map(|i| FlowRecord {
            src_addr: (0x0900_0000u32 + i).into(),
            dst_addr: (0x6001_0014u32 + u32::from(peer)).into(),
            dst_port: (1_024 + i % 50_000) as u16,
            protocol: 17,
            input_if: peer,
            packets: 1,
            octets: 40,
            last_ms: i,
            ..FlowRecord::default()
        });
        intake.push_batch(Batch::new(PeerId(peer), records.collect()));
        if first / 30 % 16 == 15 || first + 30 >= FLOWS {
            pump.step();
            for alert in pump.take_alerts(0) {
                alerts += 1;
                flagged += u64::from(alert.count);
            }
        }
    }
    assert!(intake.is_empty());
    assert_eq!(
        pump.effort(),
        Effort::Full,
        "the flood must not move the ladder"
    );
    let m = pump.engine().metrics();
    assert_eq!((m.eia_suspect, m.adoptions), (u64::from(FLOWS), 0));
    assert_eq!(flagged, m.attacks(), "alerts count every attack verdict");
    assert!(flagged > u64::from(FLOWS) * 9 / 10, "{flagged} flagged");

    assert_eq!(journal.recorded() - before, alerts, "one record per alert");
    assert!(alerts < 1_000, "{alerts} alerts");
    let kept = journal.last(cfg.journal_capacity);
    let moves = kept
        .iter()
        .filter(|e| e.event.kind() == "ladder_transition")
        .count();
    assert_eq!(moves, 2, "the ladder moves must outlive the flood");
}

/// Forced traces follow alert *onsets*, not alert-bearing steps: under a
/// sustained attack every step drains alerts, and forcing on each of them
/// filled the trace ring at the step rate whatever `trace_sample_every`
/// said. An onset is an alert after at least one sampling period of
/// alert-free datagrams.
#[test]
fn sustained_alerts_force_one_trace_per_onset() {
    use infilter_telemetry::{Journal, Tracer};

    const SAMPLE_EVERY: u32 = 8;
    // Basic mode: every step that sees a spoofed flow drains an alert.
    let engine = bootstrap_engine(&daemon_config(Mode::Basic), &BootstrapConfig::default())
        .expect("bootstrap");
    let tracer = Arc::new(Tracer::new(u64::from(SAMPLE_EVERY), 64));
    let intake = Arc::new(Intake::with_observers(
        1,
        100,
        Arc::new(IngestMetrics::default()),
        tracer.clone(),
        Arc::new(Journal::new(16)),
    ));
    let mut pump = IngestPump::new(engine, intake.clone(), LadderConfig::default(), 10, 4096);
    // The listener's role: one sampling decision per datagram, then enqueue.
    let offer = |batch: Batch| {
        tracer.decide();
        intake.push_batch(batch);
    };

    // A sustained attack, 300 alert-bearing steps, legal datagrams mixed
    // in: one onset.
    for i in 0..300 {
        offer(spoofed_batch(i));
        if i % 3 == 0 {
            offer(legal_batch(i));
        }
        assert!(pump.step() > 0);
    }
    assert_eq!(tracer.forced(), 1, "a sustained attack is one onset");
    // Alert-free steps in between, shorter than a sampling period, are
    // still the same incident.
    for i in 0..50 {
        offer(spoofed_batch(i));
        pump.step();
        for j in 0..SAMPLE_EVERY - 1 {
            offer(legal_batch(j));
            pump.step();
        }
    }
    assert_eq!(
        tracer.forced(),
        1,
        "a lull shorter than a period is no onset"
    );
    // A whole sampling period without an alert ends it; the next alert
    // is a new onset.
    for i in 0..SAMPLE_EVERY {
        offer(legal_batch(i));
        pump.step();
    }
    for i in 0..100 {
        offer(spoofed_batch(i));
        pump.step();
    }
    assert_eq!(tracer.forced(), 2, "one forced trace per onset");
    assert_eq!(
        metric_value(&pump.prometheus_text(), "infilterd_traces_forced_total"),
        Some(2.0)
    );
}
