//! One run: one process, one workload, one seed. Generates the stream,
//! plays the phases, checks the outputs, and turns the measurements into
//! the named metrics.

use std::path::PathBuf;

use crate::checks::{self, Checks, Offered};
use crate::harness::{self, Closing, Collector, Duo, Env, Knobs, Loop, Pass};
use crate::json::{obj, Value};
use crate::layers::{self, Micro};
use crate::ledger::{Layer, Ledger, Off, Recorder};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::Plan;
use crate::workload::{self, Workload};
use crate::{host, json};

/// Phase D's generator may finish this far behind its schedule (seconds,
/// plus 2 % of the schedule) before the run is void: past that it did not
/// offer the load the latency numbers are quoted at. Generous on purpose —
/// the sandbox taking a vCPU away for tens of milliseconds must not void a
/// run, a producer that cannot keep the rate must.
const SCHEDULE_SLACK_S: f64 = 0.1;
/// Spans of each traced pass written to the Chrome trace file; the ledger
/// always folds all of them.
const CHROME_SPANS_PER_PASS: usize = 20_000;
/// The traced run plays C and D at this fraction of their length: their
/// counters (shares, peaks) do not need the full phase, the run's time
/// budget does need the room for the traced passes.
const TRACED_DUO_SHARE: u64 = 2;
/// Phase D is summarised per this much schedule time.
const LATENCY_WINDOW_S: f64 = 0.1;

/// What to run.
#[derive(Debug, Clone)]
pub struct Request {
    pub plan: Plan,
    pub seed: u64,
    /// `--trace 1`: the traced run (per-layer metrics).
    pub traced: bool,
    /// Scratch directory for this run (the caller removes it afterwards).
    pub dir: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_file: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    /// Flows offered in phase D.
    pub attempted: u64,
    /// Of those: shed, processed below full effort, or lost.
    pub failed: u64,
    /// The contract's metrics: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else: host facts, sample counts, the ledger, the checks.
    pub report: Value,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_object(&self.metrics)),
        ])
        .render()
    }
}

/// The median of repeated measurements of the same work — boots, laps of
/// the stream, windows of the schedule — which is how every timing here is
/// summarised.
///
/// In a 2-vCPU sandbox the host, the driver and the kernel need a CPU for a
/// few percent of the time, a millisecond or more at a stretch; now and then
/// a vCPU is gone for tens of milliseconds. A repeat hit by one of those is
/// an outlier among its siblings, and the median repeat is not. (NaN if
/// there are no repeats; the run's checks reject that.)
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// What the windows of a per-datagram series boil down to.
struct Windowed {
    windows: usize,
    /// Every window's p50, in schedule order (a diagnostic: it shows when
    /// in the phase the host was slow).
    p50s_ns: Vec<f64>,
    /// The median over windows of the window's p50, p90 and p99.
    p50_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
}

/// Cuts `series` (one entry per datagram, in schedule order) into windows
/// of `per_window` datagrams, takes each window's p50, p90 and p99 over the
/// entries that carry a sample, and returns the median window's of each.
fn windowed(series: &[u32], per_window: usize) -> Windowed {
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for window in series.chunks(per_window) {
        let mut samples: Vec<u32> = window
            .iter()
            .copied()
            .filter(|&s| s != harness::NO_FLOWS)
            .collect();
        // A short last window has too few samples beyond its p99.
        if samples.len() * 2 >= per_window {
            samples.sort_unstable();
            p50s.push(f64::from(quantile(&samples, 0.50)));
            p90s.push(f64::from(quantile(&samples, 0.90)));
            p99s.push(f64::from(quantile(&samples, 0.99)));
        }
    }
    Windowed {
        windows: p50s.len(),
        p50_ns: median(p50s.clone()),
        p50s_ns: p50s,
        p90_ns: median(p90s),
        p99_ns: median(p99s),
    }
}

/// Phase C's rate, flows/s: every whole lap of the stream is the same
/// work, so the median lap time gives the zero-loss rate with the laps the
/// sandbox disturbed left out. (A phase shorter than a lap falls back to
/// flows over wall time.)
fn median_lap_rate(duo: &Duo, flows_per_lap: u64) -> f64 {
    let marks = &duo.lap_marks_ns;
    let whole_laps = marks.len().saturating_sub(2);
    if whole_laps == 0 {
        return duo.flows as f64 / (duo.wall_ns as f64 / 1e9);
    }
    let lap_ns = marks
        .windows(2)
        .take(whole_laps)
        .map(|pair| (pair[1] - pair[0]) as f64);
    flows_per_lap as f64 / (median(lap_ns.collect()) / 1e9)
}

/// Phase B1's cost per flow, ns: the median over whole laps.
fn median_lap_cost(pass: &Pass) -> f64 {
    let whole_laps = pass.laps.len().saturating_sub(1).max(1);
    median(
        pass.laps[..whole_laps]
            .iter()
            .map(|&(busy_ns, flows)| ratio(busy_ns, flows))
            .collect(),
    )
}

/// The `q`-quantile (nearest rank) of sorted samples.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn counters(m: &infilter_core::AnalyzerMetrics) -> Value {
    obj(m
        .named_counters()
        .into_iter()
        .map(|(name, value)| (name, Value::Num(value as f64))))
}

/// Malformed datagrams among datagrams `0..dgrams` of the looped stream,
/// from the generator's own record.
fn malformed_in(w: &Workload, dgrams: u64) -> u64 {
    let per_lap = w.dgrams() as u64;
    let in_prefix = |upto: u64| {
        w.dgram_flows[..upto as usize]
            .iter()
            .filter(|&&f| f == 0)
            .count() as u64
    };
    dgrams / per_lap * u64::from(w.malformed) + in_prefix(dgrams % per_lap)
}

/// Phase A, with its time kept for `setup_s`.
fn boot(
    env: &Env,
    w: &Workload,
    knobs: Knobs,
    attach_store: bool,
    setups: &mut Vec<f64>,
) -> std::io::Result<Collector> {
    let collector = env.boot(w, knobs, attach_store)?;
    setups.push(collector.setup_s);
    Ok(collector)
}

/// Runs `request`.
pub fn run(request: &Request) -> std::io::Result<Outcome> {
    let plan = request.plan;
    let env = Env::new(plan, request.dir.clone())?;
    let mut w = workload::generate(&plan.stream, request.seed, &env.filler);
    let stream_digest = w.digest();
    let mut checks = Checks::default();
    // The longest any engine lives: B plus the traced run's four extra laps.
    let lap = w.dgrams() as u64;
    let laps_needed = (plan.dgrams_b + 4 * lap)
        .max(plan.dgrams_c)
        .max(plan.dgrams_d)
        / lap
        + 1;
    checks.ensure(laps_needed <= w.max_laps(), || {
        format!(
            "lap salting would repeat a source: {laps_needed} laps needed, {} possible",
            w.max_laps()
        )
    });
    let mut setups = Vec::new();

    // B1, then B2: single thread. B2 replays the head of B1's range, so B1
    // reads its engine counters where B2 will stop and then plays on.
    let b_range = 0..plan.dgrams_b;
    let b2_range = 0..plan.dgrams_b2.min(plan.dgrams_b);
    let mut c = boot(&env, &w, Knobs::Shipped, true, &mut setups)?;
    let mut b1 = harness::play_b1(&mut c, &mut w, b2_range.clone(), &mut Off);
    let b1_engine_at_b2_end = c.pump.engine().metrics();
    b1.absorb(harness::play_b1(
        &mut c,
        &mut w,
        b2_range.end..b_range.end,
        &mut Off,
    ));
    let b1_closing = c.closing();
    let mut traced_b1 = None;
    if request.traced {
        let mut rec = Recorder::with_capacity(lap as usize * 3);
        let pass = harness::play_b1(&mut c, &mut w, b_range.end..b_range.end + lap, &mut rec);
        traced_b1 = Some((pass, rec));
    }
    let exposition_ms = {
        let started = std::time::Instant::now();
        std::hint::black_box(c.pump.prometheus_text());
        started.elapsed().as_secs_f64() * 1e3
    };
    drop(c);
    checks::pump_identities(
        &mut checks,
        "B1",
        Offered {
            flows: b1.flows + 1,
            malformed: malformed_in(&w, plan.dgrams_b),
        },
        &b1_closing.ingest,
        &b1_closing.engine,
        b1_closing.store,
    );
    checks.equal(
        "B1",
        "malformed datagrams handed over",
        b1.malformed,
        malformed_in(&w, plan.dgrams_b),
    );

    let mut c = boot(&env, &w, Knobs::Shipped, false, &mut setups)?;
    let (b2, score) = harness::play_b2(&mut c, &mut w, b2_range.clone(), &mut Off);
    let b2_closing = c.closing();
    let mut traced_b2 = None;
    if request.traced {
        // Untraced and traced over the same number of datagrams, back to
        // back on one collector: the difference is the recorder's cost.
        let from = b2_range.end;
        let (plain, _) = harness::play_b2(&mut c, &mut w, from..from + lap, &mut Off);
        let mut rec = Recorder::with_capacity(lap as usize * 8);
        let (pass, _) = harness::play_b2(&mut c, &mut w, from + lap..from + 2 * lap, &mut rec);
        traced_b2 = Some((plain, pass, rec));
    }
    let cfg = c.cfg.clone();
    drop(c);
    checks::engine_identities(&mut checks, "B2", b2.flows + 1, &b2_closing.engine);
    checks.equal(
        "B2",
        "netflow.decode_errors = malformed datagrams generated",
        b2.malformed,
        malformed_in(&w, b2_range.end),
    );
    checks.equal("B2", "store.write_errors = 0", b2.write_errors, 0);
    if plan.warm_log {
        checks.equal(
            "B2",
            "store.appended_records = engine adoptions",
            b2.appended,
            b2_closing.engine.adoptions,
        );
    }
    // The shadow measures the same program iff it leaves the engine in the
    // state the real pump had after the same datagrams.
    checks.ensure(
        b1_engine_at_b2_end.named_counters() == b2_closing.engine.named_counters(),
        || {
            format!(
                "B1's engine counters after B2's datagrams and B2's closing ones differ: {:?} vs {:?}",
                b1_engine_at_b2_end.named_counters(),
                b2_closing.engine.named_counters()
            )
        },
    );
    checks.ensure(score.attack_flows > 0 && score.legal_flows > 0, || {
        "B2 scored no attack or no legal flows".to_string()
    });

    // C, then D: two threads.
    let duo_share = if request.traced { TRACED_DUO_SHARE } else { 1 };
    let dgrams_c = (plan.dgrams_c / duo_share).max(1);
    let mut c = boot(&env, &w, Knobs::Shipped, true, &mut setups)?;
    let phase_c = harness::play_duo(&mut c, &mut w, dgrams_c, Loop::Closed);
    let c_closing = c.closing();
    drop(c);
    duo_checks(&mut checks, "C", &w, &phase_c, &c_closing);
    checks::zero_loss(&mut checks, &c_closing.ingest);

    let dgrams_d = (plan.dgrams_d / duo_share).max(1);
    let mut c = boot(&env, &w, Knobs::Shipped, true, &mut setups)?;
    let phase_d = harness::play_duo(
        &mut c,
        &mut w,
        dgrams_d,
        Loop::Open {
            dgrams_per_s: plan.paced_dgrams_per_s,
        },
    );
    let d_closing = c.closing();
    drop(c);
    duo_checks(&mut checks, "D", &w, &phase_d, &d_closing);
    // Latency and lateness are summarised per 100 ms of schedule and the
    // median window reported (see `median`): a whole-phase p99 sits
    // exactly on the share of time the sandbox steals.
    let per_window = ((plan.paced_dgrams_per_s * LATENCY_WINDOW_S) as usize).max(1);
    let late = windowed(&phase_d.late_ns, per_window);
    let latency = windowed(&phase_d.latency_ns, per_window);
    let late_p99_us = late.p99_ns / 1e3;
    let offered_dgrams_per_s = phase_d.dgrams as f64 / (phase_d.producer_ns as f64 / 1e9);
    let scheduled_s = phase_d.dgrams as f64 / plan.paced_dgrams_per_s;
    let behind_s = phase_d.producer_ns as f64 / 1e9 - scheduled_s;
    checks.ensure(behind_s <= SCHEDULE_SLACK_S + 0.02 * scheduled_s, || {
        format!(
            "D: generator fell {behind_s:.3} s behind its {scheduled_s:.2} s schedule: \
             offered {offered_dgrams_per_s:.0} of {} datagrams/s",
            plan.paced_dgrams_per_s
        )
    });
    let mut whole: Vec<u32> = phase_d
        .latency_ns
        .iter()
        .copied()
        .filter(|&l| l != harness::NO_FLOWS)
        .collect();
    whole.sort_unstable();
    let whole_phase_us = [0.50, 0.99, 0.999, 1.0].map(|q| f64::from(quantile(&whole, q)) / 1e3);

    let d_offered = phase_d.flows;
    let d_full = d_closing.ingest.flows_by_effort[0].saturating_sub(1);
    let d_degraded = d_closing.ingest.flows_by_effort[1] + d_closing.ingest.flows_by_effort[2];
    let failed = d_offered - d_full.min(d_offered);

    // The traced run's extras.
    let mut layer_values: Vec<(&'static str, f64)> = Vec::new();
    let mut ledgers = Vec::new();
    if let (Some((tb1, rec_b1)), Some((plain_b2, tb2, rec_b2))) = (&traced_b1, &traced_b2) {
        let mut off = boot(&env, &w, Knobs::TelemetryOff, true, &mut setups)?;
        let b1_off = harness::play_b1(&mut off, &mut w, b_range.clone(), &mut Off);
        drop(off);
        let micro = layers::measure(&env, &cfg, &mut w, plan.dgrams_b + 3 * lap, lap)?;
        let ledger_b1 = rec_b1.ledger();
        let ledger_b2 = rec_b2.ledger();
        let gap = |ledger: &Ledger, busy_ns: u64| {
            (ledger.self_sum_ns() as f64 - busy_ns as f64).abs() / busy_ns.max(1) as f64
        };
        let closure_gap = gap(&ledger_b1, tb1.busy_ns).max(gap(&ledger_b2, tb2.busy_ns));
        checks.ensure(closure_gap <= 0.05, || {
            format!("ledger.closure_gap_share {closure_gap:.4} > 0.05")
        });
        layer_values = per_layer_values(&LayerInputs {
            b1: &b1,
            b1_off: &b1_off,
            b1_closing: &b1_closing,
            tb1,
            tb2,
            plain_b2,
            ledger_b1: &ledger_b1,
            ledger_b2: &ledger_b2,
            phase_c: &phase_c,
            phase_d: &phase_d,
            d_closing: &d_closing,
            d_degraded,
            late_p99_us,
            latency_p50_us: latency.p50_ns / 1e3,
            offered_dgrams_per_s,
            micro: &micro,
            exposition_ms,
            closure_gap,
            b2: &b2,
        });
        let mut chrome = String::new();
        rec_b1.chrome_events(1, CHROME_SPANS_PER_PASS, &mut chrome);
        rec_b2.chrome_events(2, CHROME_SPANS_PER_PASS, &mut chrome);
        std::fs::write(
            &request.trace_file,
            format!("{{\"traceEvents\":[\n{chrome}\n]}}\n"),
        )?;
        for (pass, flows, ledger, spans) in [
            ("B1", tb1.flows, &ledger_b1, rec_b1.len()),
            ("B2", tb2.flows, &ledger_b2, rec_b2.len()),
        ] {
            ledgers.push(obj([
                ("pass", Value::Str(pass.into())),
                ("flows", Value::Num(flows as f64)),
                ("spans", Value::Num(spans as f64)),
                (
                    "rows",
                    Value::Arr(
                        ledger
                            .rows
                            .iter()
                            .map(|row| {
                                obj([
                                    ("layer", Value::Str(row.layer.name().into())),
                                    ("calls", Value::Num(row.calls as f64)),
                                    ("self_ns", Value::Num(row.self_ns as f64)),
                                    ("self_ns_per_flow", Value::Num(ratio(row.self_ns, flows))),
                                    (
                                        "share",
                                        Value::Num(ratio(row.self_ns, ledger.self_sum_ns())),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
        ledgers.push(obj([(
            "chrome_trace",
            Value::Str(request.trace_file.to_string_lossy().into_owned()),
        )]));
    }

    // Last, so that it is the peak of everything above.
    let rss = host::rss_peak_mb();
    checks.ensure(rss.is_some(), || {
        "VmHWM unreadable from /proc/self/status".to_string()
    });
    let end_to_end: Vec<(&'static str, f64)> = vec![
        ("setup_s", median(setups.iter().take(4).copied().collect())),
        ("capacity_flows_per_s", median_lap_rate(&phase_c, w.flows())),
        ("path_ns_per_flow", median_lap_cost(&b1)),
        ("full_effort_share", ratio(d_full, d_offered)),
        (
            "detection_rate",
            ratio(score.attack_flagged, score.attack_flows),
        ),
        (
            "true_negative_rate",
            1.0 - ratio(score.legal_flagged, score.legal_flows),
        ),
        ("rss_peak_mb", rss.unwrap_or(f64::NAN)),
    ];
    for &(name, value) in end_to_end.iter().chain(&layer_values) {
        checks.ensure(value.is_finite(), || {
            format!("metric {name} is not a number")
        });
    }

    let occupancy_clear = phase_d.occupancy_peak < 0.35 || phase_d.occupancy_peak > 0.65;
    let report = obj([
        ("workload", Value::Str(plan.name.into())),
        ("seed", Value::Num(request.seed as f64)),
        ("traced", Value::Bool(request.traced)),
        (
            "host",
            obj(host::facts().into_iter().map(|(k, v)| (k, Value::Str(v)))),
        ),
        (
            "sizes",
            obj([
                ("dgrams_per_lap", Value::Num(w.dgrams() as f64)),
                ("flows_per_lap", Value::Num(w.flows() as f64)),
                ("stream_bytes", Value::Num(w.bytes.len() as f64)),
                ("stream_digest", Value::Str(format!("{stream_digest:016x}"))),
                ("dgrams_b", Value::Num(plan.dgrams_b as f64)),
                ("dgrams_b2", Value::Num(b2_range.end as f64)),
                ("dgrams_c", Value::Num(dgrams_c as f64)),
                ("dgrams_d", Value::Num(dgrams_d as f64)),
                ("paced_dgrams_per_s", Value::Num(plan.paced_dgrams_per_s)),
                ("training_flows", Value::Num(plan.training_flows as f64)),
            ]),
        ),
        (
            "boots_s",
            Value::Arr(setups.iter().map(|&s| Value::Num(s)).collect()),
        ),
        ("end_to_end", metrics_object(&end_to_end)),
        (
            // With what each should move, written down before measuring.
            "per_layer",
            obj(layer_values.iter().map(|&(name, value)| {
                let declared = PER_LAYER.iter().find(|m| m.name == name);
                (
                    name,
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit_of(name).into())),
                        ("moves", Value::Str(declared.map_or("", |m| m.moves).into())),
                    ]),
                )
            })),
        ),
        (
            "phases",
            obj([
                (
                    "B1",
                    obj([
                        ("flows", Value::Num(b1.flows as f64)),
                        ("busy_s", Value::Num(b1.busy_ns as f64 / 1e9)),
                        ("steps", Value::Num(b1.steps as f64)),
                        (
                            "lap_ns_per_flow",
                            Value::Arr(
                                b1.laps
                                    .iter()
                                    .map(|&(ns, flows)| {
                                        Value::Num((ratio(ns, flows) * 10.0).round() / 10.0)
                                    })
                                    .collect(),
                            ),
                        ),
                        ("engine", counters(&b1_closing.engine)),
                        ("republishes", Value::Num(b1_closing.republishes as f64)),
                    ]),
                ),
                (
                    "B2",
                    obj([
                        ("flows", Value::Num(b2.flows as f64)),
                        ("busy_s", Value::Num(b2.busy_ns as f64 / 1e9)),
                        ("attack_flows", Value::Num(score.attack_flows as f64)),
                        ("attack_flagged", Value::Num(score.attack_flagged as f64)),
                        ("legal_flows", Value::Num(score.legal_flows as f64)),
                        ("legal_flagged", Value::Num(score.legal_flagged as f64)),
                        (
                            "verdict_digest",
                            Value::Str(format!("{:016x}", score.digest)),
                        ),
                        ("alerts", Value::Num(b2.alerts as f64)),
                    ]),
                ),
                ("C", duo_report(&phase_c, &c_closing)),
                (
                    "D",
                    obj([
                        ("duo", duo_report(&phase_d, &d_closing)),
                        ("latency_samples", Value::Num(whole.len() as f64)),
                        ("latency_windows", Value::Num(latency.windows as f64)),
                        ("samples_per_window", Value::Num(per_window as f64)),
                        (
                            "window_p50_us",
                            Value::Arr(
                                latency
                                    .p50s_ns
                                    .iter()
                                    .map(|&ns| Value::Num((ns / 10.0).round() / 100.0))
                                    .collect(),
                            ),
                        ),
                        ("median_window_p50_us", Value::Num(latency.p50_ns / 1e3)),
                        ("median_window_p90_us", Value::Num(latency.p90_ns / 1e3)),
                        ("median_window_p99_us", Value::Num(latency.p99_ns / 1e3)),
                        ("whole_phase_p50_us", Value::Num(whole_phase_us[0])),
                        ("whole_phase_p99_us", Value::Num(whole_phase_us[1])),
                        ("whole_phase_p999_us", Value::Num(whole_phase_us[2])),
                        ("whole_phase_max_us", Value::Num(whole_phase_us[3])),
                        ("full_effort_flows", Value::Num(d_full as f64)),
                        ("late_p99_us", Value::Num(late_p99_us)),
                        ("occupancy_peak", Value::Num(phase_d.occupancy_peak)),
                        (
                            "occupancy_clear_of_watermarks",
                            Value::Bool(occupancy_clear),
                        ),
                        ("degraded_flows", Value::Num(d_degraded as f64)),
                        ("shed_flows", Value::Num(d_closing.ingest.shed_flows as f64)),
                    ]),
                ),
            ]),
        ),
        ("ledgers", Value::Arr(ledgers)),
        (
            "checks",
            obj([
                ("passed", Value::Num(f64::from(checks.passed))),
                (
                    "failed",
                    Value::Arr(checks.failures.iter().cloned().map(Value::Str).collect()),
                ),
            ]),
        ),
    ]);

    let chosen = if request.traced {
        &layer_values
    } else {
        &end_to_end
    };
    Ok(Outcome {
        correct: checks.failures.is_empty(),
        attempted: d_offered,
        failed,
        metrics: chosen.clone(),
        report,
    })
}

/// The declared unit of metric `name`.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(declared, _)| declared == name)
        .map_or("", |(_, unit)| unit)
}

/// `{name: {value, unit}}`, the shape of the result line's `metrics`.
fn metrics_object(values: &[(&'static str, f64)]) -> Value {
    obj(values.iter().map(|&(name, value)| {
        (
            name,
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit_of(name).into())),
            ]),
        )
    }))
}

fn duo_checks(checks: &mut Checks, phase: &str, w: &Workload, duo: &Duo, closing: &Closing) {
    checks::pump_identities(
        checks,
        phase,
        Offered {
            flows: duo.flows + 1,
            malformed: malformed_in(w, duo.dgrams),
        },
        &closing.ingest,
        &closing.engine,
        closing.store,
    );
}

fn duo_report(duo: &Duo, closing: &Closing) -> Value {
    obj([
        ("flows", Value::Num(duo.flows as f64)),
        ("wall_s", Value::Num(duo.wall_ns as f64 / 1e9)),
        ("producer_s", Value::Num(duo.producer_ns as f64 / 1e9)),
        (
            "lap_ms",
            Value::Arr(
                duo.lap_marks_ns
                    .windows(2)
                    .map(|p| Value::Num(((p[1] - p[0]) as f64 / 1e5).round() / 10.0))
                    .collect(),
            ),
        ),
        ("blocked_s", Value::Num(duo.blocked_ns as f64 / 1e9)),
        ("steps", Value::Num(duo.steps as f64)),
        ("worker_idle_s", Value::Num(duo.idle_ns as f64 / 1e9)),
        ("engine", counters(&closing.engine)),
        ("republishes", Value::Num(closing.republishes as f64)),
        ("transitions", Value::Num(closing.ingest.transitions as f64)),
    ])
}

struct LayerInputs<'a> {
    b1: &'a Pass,
    b1_off: &'a Pass,
    b1_closing: &'a Closing,
    tb1: &'a Pass,
    tb2: &'a Pass,
    plain_b2: &'a Pass,
    ledger_b1: &'a Ledger,
    ledger_b2: &'a Ledger,
    phase_c: &'a Duo,
    phase_d: &'a Duo,
    d_closing: &'a Closing,
    d_degraded: u64,
    late_p99_us: f64,
    latency_p50_us: f64,
    offered_dgrams_per_s: f64,
    micro: &'a Micro,
    exposition_ms: f64,
    closure_gap: f64,
    b2: &'a Pass,
}

/// Every per-layer metric, in [`PER_LAYER`] order.
fn per_layer_values(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let shadow = |layer: Layer| x.ledger_b2.row(layer);
    let worker_side_ns = shadow(Layer::Pop).self_ns
        + shadow(Layer::Engine).self_ns
        + shadow(Layer::Alert).self_ns
        + shadow(Layer::Store).self_ns;
    let step_ns_per_flow = ratio(x.ledger_b1.row(Layer::PumpStep).total_ns, x.tb1.flows);
    let engine = &x.b1_closing.engine;
    let [full, skip_nns, bi_only] = x.micro.rung_ns_per_flow;
    let per_suspect = |ns_per_flow: f64| ns_per_flow / x.micro.suspect_share.max(f64::MIN_POSITIVE);
    let wait_share = |(wait, run): (u64, u64)| ratio(wait, run);
    let value = |name: &str| -> f64 {
        match name {
            "netflow.decode_ns_per_flow" => ratio(shadow(Layer::Decode).self_ns, x.tb2.flows),
            "netflow.decode_errors" => x.b2.malformed as f64,
            "intake.push_ns_per_batch" => {
                ratio(shadow(Layer::Push).self_ns, shadow(Layer::Push).calls)
            }
            "intake.pop_ns_per_batch" => ratio(shadow(Layer::Pop).self_ns, x.tb2.batches),
            "intake.batches_per_datagram" => ratio(x.tb2.batches, x.tb2.dgrams - x.tb2.malformed),
            "intake.occupancy_peak" => x.phase_d.occupancy_peak,
            "intake.shed_flows" => x.d_closing.ingest.shed_flows as f64,
            "intake.degraded_flows" => x.d_degraded as f64,
            "pump.step_ns_per_flow" => step_ns_per_flow,
            "pump.overhead_ns_per_flow" => step_ns_per_flow - ratio(worker_side_ns, x.tb2.flows),
            "pump.flows_per_step" => ratio(x.b1.flows, x.b1.steps),
            "pump.idle_share" => ratio(x.phase_c.idle_ns, x.phase_c.wall_ns),
            "pump.verdict_latency_p50_us" => x.latency_p50_us,
            "loadgen.blocked_share" => ratio(x.phase_c.blocked_ns, x.phase_c.producer_ns),
            "loadgen.late_p99_us" => x.late_p99_us,
            "loadgen.offered_dgrams_per_s" => x.offered_dgrams_per_s,
            "engine.full_ns_per_flow" => full,
            "engine.skip_nns_ns_per_flow" => skip_nns,
            "engine.bi_only_ns_per_flow" => bi_only,
            "engine.scan_ns_per_suspect" => per_suspect(skip_nns - bi_only),
            "engine.nns_ns_per_suspect" => per_suspect(full - skip_nns),
            "engine.suspect_share" => ratio(engine.eia_suspect, engine.flows),
            "engine.attack_share" => ratio(engine.attacks(), engine.flows),
            "engine.forgiven_share" => ratio(engine.forgiven, engine.flows),
            "engine.adoptions" => engine.adoptions as f64,
            "eia.classify_ns_per_flow" => x.micro.classify_ns_per_flow,
            "eia.preload_ms" => x.micro.preload_ms,
            "eia.prefixes" => x.micro.prefixes as f64,
            "eia.snapshot_bytes" => x.micro.snapshot_bytes as f64,
            "eia.republishes" => x.b1_closing.republishes as f64,
            "lpm.compile_ms" => x.micro.compile_ms,
            "lpm.bytes_per_prefix" => ratio(x.micro.snapshot_bytes as u64, x.micro.prefixes as u64),
            "nns.train_ms" => x.micro.train_ms,
            "alert.drain_ns_per_alert" => ratio(shadow(Layer::Alert).self_ns, x.tb2.alerts),
            "alert.count" => x.b2.alerts as f64,
            "store.append_us_per_record" => {
                ratio(shadow(Layer::Store).self_ns, x.tb2.appended) / 1e3
            }
            "store.replay_ms" => x.micro.replay_ms,
            "store.appended_records" => x.b2.appended as f64,
            "store.write_errors" => x.b2.write_errors as f64,
            "telemetry.overhead_ns_per_flow" => {
                ratio(x.b1.busy_ns, x.b1.flows) - ratio(x.b1_off.busy_ns, x.b1_off.flows)
            }
            "telemetry.exposition_ms" => x.exposition_ms,
            "harness.overhead_ns_per_flow" => ratio(shadow(Layer::Round).self_ns, x.tb2.flows),
            "trace.overhead_share" => {
                let plain = ratio(x.plain_b2.busy_ns, x.plain_b2.flows);
                (ratio(x.tb2.busy_ns, x.tb2.flows) - plain) / plain
            }
            "ledger.closure_gap_share" => x.closure_gap,
            "sched.producer_wait_share" => {
                wait_share(x.phase_c.producer_sched).max(wait_share(x.phase_d.producer_sched))
            }
            "sched.worker_wait_share" => {
                wait_share(x.phase_c.worker_sched).max(wait_share(x.phase_d.worker_sched))
            }
            other => unreachable!("per-layer metric {other} has no measurement"),
        }
    };
    PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect()
}

/// Parses a result line back (the self-check and the smoke test read what
/// a child run printed).
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let doc = json::parse(line)?;
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("result line has no `correct`")?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no `metrics`")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Mix, StreamSpec};

    #[test]
    fn the_median_ignores_the_disturbed_repeats() {
        assert_eq!(median(vec![9.0, 1.0, 5.0, 300.0, 7.0]), 7.0);
        assert_eq!(median(vec![4.0, 6.0]), 5.0);
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn windows_skip_datagrams_without_flows_and_short_tails() {
        // Three windows of 4: latencies 1..=4, a noisy 100..103 window with
        // one flow-less datagram, 5..=8, then a 1-sample tail.
        let series = [
            1,
            2,
            3,
            4,
            100,
            harness::NO_FLOWS,
            102,
            103,
            5,
            6,
            7,
            8,
            999,
        ];
        let w = windowed(&series, 4);
        assert_eq!(w.windows, 3);
        // Window p50s are 2, 102, 6 and p90s/p99s 4, 103, 8: the median
        // window is the third, not the noisy one.
        assert_eq!((w.p50_ns, w.p90_ns, w.p99_ns), (6.0, 8.0, 8.0));
    }

    #[test]
    fn lap_estimators_use_whole_laps_only() {
        let mut pass = Pass::default();
        pass.laps = vec![(300, 3), (200, 2), (50, 1), (999, 1)];
        // Costs 100, 100, 50 per flow over the three whole laps; the ragged
        // last lap (999) is left out.
        assert_eq!(median_lap_cost(&pass), 100.0);
        let duo = Duo {
            lap_marks_ns: vec![
                0,
                2_000_000_000,
                3_000_000_000,
                5_000_000_000,
                5_100_000_000,
            ],
            ..Duo::default()
        };
        // Whole laps took 2 s, 1 s, 2 s; the tail 0.1 s is not a lap.
        assert_eq!(median_lap_rate(&duo, 1000), 500.0);
    }

    #[test]
    fn malformed_datagrams_are_counted_across_laps() {
        let w = generate(
            &StreamSpec {
                mix: Mix::Cruise,
                records: (1, 3),
                dgrams_per_lap: 400,
                malformed_every: 100,
                spread_legal: false,
            },
            2,
            &[],
        );
        assert_eq!(w.dgrams(), 404);
        assert_eq!(malformed_in(&w, 0), 0);
        assert_eq!(malformed_in(&w, 101), 1);
        assert_eq!(malformed_in(&w, 404), 4);
        assert_eq!(malformed_in(&w, 2 * 404 + 102), 9);
    }
}
