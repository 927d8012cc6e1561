//! Boots the collector the way `infilterd` does and plays the phases.
//!
//! The harness is the daemon's two loops and nothing else: it plays the
//! **listener role** by handing datagram bytes to
//! `Intake::push_payload_stamped` (the call `listener_loop` makes after
//! `recv_from`) and owns the **worker loop** around `IngestPump::step`.
//! Everything between those calls is the program under test, untouched.
//!
//! | phase | threads | loop | what it yields |
//! |---|---|---|---|
//! | A | 1 | — | boot: config → bootstrap → intake + pump → first verdict |
//! | B1 | 1 | push `batch_budget`, `step()` to empty | the CPU bill per flow |
//! | B2 | 1 | the shadow pump: the same layers called one by one | per-flow verdicts, per-layer spans |
//! | C | 2 | closed: producer holds below every ladder watermark | zero-loss capacity |
//! | D | 2 | open: fixed schedule, never slows | verdict latency, ladder behaviour |

use std::collections::VecDeque;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use infilter_core::{
    AdoptionAction, AdoptionEvent, AnalyzerMetrics, ConcurrentAnalyzer, Effort, Engine, PeerId,
    Verdict,
};
use infilter_ingest::bootstrap::{bootstrap_with_store, BootstrapConfig};
use infilter_ingest::{Batch, DaemonConfig, IngestMetrics, IngestPump, IngestSnapshot, Intake};
use infilter_net::Prefix;
use infilter_netflow::FlowBatch;
use infilter_store::{DiskStore, EiaStore};
use infilter_telemetry::trace::now_ns;
use infilter_telemetry::Tracer;

use crate::host;
use crate::ledger::{Layer, Probe};
use crate::plan::Plan;
use crate::workload::{self, fnv1a, Label, Workload};

/// The producer re-reads ring occupancy once per this many datagrams: four
/// ring lengths are a dozen sequentially-consistent loads, too dear to pay
/// per one-record datagram, and sixteen batches of overshoot stay far below
/// the first watermark.
const OCCUPANCY_STRIDE: u64 = 16;
/// Phase C's producer holds while the fullest ring is at or above this —
/// below `recover_below`, so the ladder never leaves `Full`.
const CLOSED_LOOP_OCCUPANCY: f64 = 0.25;

/// What a boot needs besides the plan: the EIA table, and the warm log to
/// copy for plans that boot from one.
#[derive(Debug)]
pub struct Env {
    pub plan: Plan,
    /// `peer` lines of the daemon config.
    pub table: Vec<(PeerId, Prefix)>,
    /// The filler part of the table, wherever it is loaded from.
    pub filler: Vec<(PeerId, Prefix)>,
    /// A store directory holding the filler as adoption records, built
    /// once outside every clock; each boot gets a fresh copy.
    log_template: Option<PathBuf>,
    /// Scratch directory of this run (store copies, trace file).
    pub dir: PathBuf,
    copies: std::cell::Cell<u32>,
}

/// Collector knobs a boot can turn off (the telemetry-cost measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knobs {
    /// `DaemonConfig::default()`.
    Shipped,
    /// `trace_sample_every`, `shape_sample_every`, `journal_capacity` = 0.
    TelemetryOff,
}

/// A booted collector.
pub struct Collector {
    pub pump: IngestPump<ConcurrentAnalyzer>,
    pub intake: Arc<Intake>,
    pub cfg: DaemonConfig,
    /// The durable store, when the plan has one and the caller asked to
    /// keep it out of the pump (the shadow pump appends to it itself).
    pub store: Option<Box<dyn EiaStore + Send>>,
    /// Config → first verdict, seconds.
    pub setup_s: f64,
}

impl Env {
    /// Prepares the table (and the warm log) for `plan` under `dir`.
    pub fn new(plan: Plan, dir: PathBuf) -> std::io::Result<Env> {
        std::fs::create_dir_all(&dir)?;
        let filler = workload::filler_table(plan.filler_prefixes);
        let mut table = workload::owned_table();
        let mut log_template = None;
        if plan.warm_log {
            let template = dir.join("warm-log");
            let events: Vec<AdoptionEvent> = filler
                .iter()
                .map(|&(peer, prefix)| AdoptionEvent {
                    peer,
                    prefix,
                    action: AdoptionAction::Adopted,
                })
                .collect();
            let mut store = DiskStore::open(&template).map_err(|e| e.into_io())?;
            for chunk in events.chunks(1024) {
                store.append(chunk).map_err(|e| e.into_io())?;
            }
            store.sync().map_err(|e| e.into_io())?;
            log_template = Some(template);
        } else {
            table.extend_from_slice(&filler);
        }
        Ok(Env {
            plan,
            table,
            filler,
            log_template,
            dir,
            copies: std::cell::Cell::new(0),
        })
    }

    /// A fresh copy of the warm log (plans that have one), made outside
    /// every clock: a run appends to its store, so no two boots share one.
    pub fn fresh_store_dir(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(template) = &self.log_template else {
            return Ok(None);
        };
        let n = self.copies.get();
        self.copies.set(n + 1);
        let dir = self.dir.join(format!("store-{n}"));
        copy_dir(template, &dir)?;
        Ok(Some(dir))
    }

    /// Phase A. Boots exactly as `infilterd` does — `DaemonConfig::builder`
    /// → `bootstrap_with_store` → `Intake::with_observers` →
    /// `IngestPump::new`/`set_store` — and times config → first verdict on
    /// the priming datagram. With `attach_store` false the store is handed
    /// back instead of to the pump.
    pub fn boot(
        &self,
        w: &Workload,
        knobs: Knobs,
        attach_store: bool,
    ) -> std::io::Result<Collector> {
        let store_dir = self
            .fresh_store_dir()?
            .map(|dir| dir.to_string_lossy().into_owned());
        let started = Instant::now();
        let mut builder = DaemonConfig::builder()
            .peers(self.table.iter().copied())
            .store_dir(store_dir);
        if knobs == Knobs::TelemetryOff {
            builder = builder
                .trace_sample_every(0)
                .shape_sample_every(0)
                .journal_capacity(0);
        }
        let cfg = builder.build().map_err(std::io::Error::other)?;
        let boot = BootstrapConfig {
            training_flows: self.plan.training_flows,
            ..BootstrapConfig::default()
        };
        let (engine, mut store) =
            bootstrap_with_store(&cfg, &boot).map_err(std::io::Error::other)?;
        let tracer = Arc::new(Tracer::new(cfg.trace_sample_every, cfg.trace_capacity));
        let journal = Arc::clone(engine.telemetry().journal());
        let intake = Arc::new(Intake::with_observers(
            cfg.rings,
            cfg.ring_capacity,
            Arc::new(IngestMetrics::default()),
            tracer,
            journal,
        ));
        let mut pump = IngestPump::new(
            engine,
            Arc::clone(&intake),
            cfg.ladder,
            cfg.batch_budget,
            cfg.alert_spool,
        );
        if attach_store {
            if let Some(store) = store.take() {
                pump.set_store(store, cfg.store_compact_every);
            }
        }
        intake.push_payload_stamped(&w.prime, &mut FlowBatch::new(), now_ns(), now_ns());
        let primed = pump.step();
        let setup_s = started.elapsed().as_secs_f64();
        if primed != 1 {
            return Err(std::io::Error::other(format!(
                "priming datagram yielded {primed} verdicts, expected 1"
            )));
        }
        Ok(Collector {
            pump,
            intake,
            cfg,
            store,
            setup_s,
        })
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Closing counters of a phase, read from public snapshots.
#[derive(Debug, Clone)]
pub struct Closing {
    pub engine: AnalyzerMetrics,
    pub ingest: IngestSnapshot,
    pub republishes: u64,
    /// `(appended_records, write_errors)` from the pump's `/store` document.
    pub store: Option<(u64, u64)>,
}

impl Collector {
    /// Reads the closing counters.
    pub fn closing(&self) -> Closing {
        let store = crate::json::parse(&self.pump.store_json())
            .ok()
            .filter(|doc| doc.get("enabled").and_then(|e| e.as_bool()) == Some(true))
            .map(|doc| {
                let field = |k| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN) as u64;
                (field("appended_records"), field("write_errors"))
            });
        Closing {
            engine: self.pump.engine().metrics(),
            ingest: self.intake.metrics().snapshot(),
            republishes: self.pump.engine().telemetry().republishes(),
            store,
        }
    }
}

/// What one single-thread pass (B1 or B2) did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Sum of the timed rounds — the harness's own work between rounds
    /// (salting the next datagrams) is outside it.
    pub busy_ns: u64,
    /// Well-formed flows handed over.
    pub flows: u64,
    pub dgrams: u64,
    /// Malformed datagrams handed over.
    pub malformed: u64,
    /// Productive pump steps (or shadow steps).
    pub steps: u64,
    /// `(busy ns, flows)` of each lap of the stream the pass played. Every
    /// lap is the same work, so the median lap is the pass with the
    /// sandbox's bad moments (a background burst, a stolen vCPU) left out.
    pub laps: Vec<(u64, u64)>,
    /// The lap `laps[0]` is.
    first_lap: Option<u64>,
    /// Batches popped (B2 only).
    pub batches: u64,
    /// Alerts drained (B2 only).
    pub alerts: u64,
    /// Adoption records appended to the store (B2 only).
    pub appended: u64,
    /// Failed store appends (B2 only).
    pub write_errors: u64,
}

impl Pass {
    /// Books one timed round to the lap its first datagram belongs to (a
    /// round straddling a lap boundary is booked whole; the same rounds
    /// straddle on every run).
    fn book(&mut self, lap: u64, busy_ns: u64, flows: u64) {
        let first = *self.first_lap.get_or_insert(lap);
        let slot = (lap - first) as usize;
        if self.laps.len() <= slot {
            self.laps.resize(slot + 1, (0, 0));
        }
        self.laps[slot].0 += busy_ns;
        self.laps[slot].1 += flows;
        self.busy_ns += busy_ns;
        self.flows += flows;
    }

    /// Adds `later`, a pass that went on where this one stopped on the same
    /// collector, so that the two read as one.
    pub fn absorb(&mut self, later: Pass) {
        for (slot, &(busy_ns, flows)) in later.laps.iter().enumerate() {
            let lap = later.first_lap.expect("a pass with laps has a first lap") + slot as u64;
            self.book(lap, busy_ns, flows);
        }
        self.dgrams += later.dgrams;
        self.malformed += later.malformed;
        self.steps += later.steps;
        self.batches += later.batches;
        self.alerts += later.alerts;
        self.appended += later.appended;
        self.write_errors += later.write_errors;
    }
}

/// Per-flow scoring of B2's verdicts against ground truth.
#[derive(Debug, Clone)]
pub struct Score {
    pub attack_flows: u64,
    pub attack_flagged: u64,
    pub legal_flows: u64,
    pub legal_flagged: u64,
    /// FNV-1a over one byte per verdict (0 legal, 1 forgiven, 2 attack) in
    /// processing order: two commits agree verdict-for-verdict iff this
    /// matches for the same workload, seed and sizes.
    pub digest: u64,
}

impl Default for Score {
    fn default() -> Score {
        Score {
            attack_flows: 0,
            attack_flagged: 0,
            legal_flows: 0,
            legal_flagged: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Score {
    fn add(&mut self, labels: &[Label], verdicts: &[Verdict]) {
        debug_assert_eq!(labels.len(), verdicts.len());
        for (label, verdict) in labels.iter().zip(verdicts) {
            let flagged = verdict.is_attack();
            if label.is_attack() {
                self.attack_flows += 1;
                self.attack_flagged += u64::from(flagged);
            } else {
                self.legal_flows += 1;
                self.legal_flagged += u64::from(flagged);
            }
            let code = match verdict {
                Verdict::Legal => 0u8,
                Verdict::Forgiven => 1,
                Verdict::Attack(_) => 2,
            };
            self.digest = fnv1a(self.digest, &[code]);
        }
    }
}

/// Datagram `n` of a phase: its index in the lap, and the lap.
fn place(w: &Workload, n: u64) -> (usize, u64) {
    let per_lap = w.dgrams() as u64;
    ((n % per_lap) as usize, n / per_lap)
}

/// Phase B1: the real pump on one thread. No waiting anywhere, so the
/// timed rounds are busy time.
pub fn play_b1<P: Probe>(
    c: &mut Collector,
    w: &mut Workload,
    dgrams: Range<u64>,
    probe: &mut P,
) -> Pass {
    let budget = c.cfg.batch_budget as u64;
    let mut scratch = FlowBatch::with_capacity(infilter_netflow::MAX_RECORDS_PER_DATAGRAM);
    let mut pass = Pass::default();
    let mut next = dgrams.start;
    while next < dgrams.end {
        let round = next..(next + budget).min(dgrams.end);
        let mut flows = 0;
        for n in round.clone() {
            let (i, lap) = place(w, n);
            w.salt(i, lap);
            flows += u64::from(w.dgram_flows[i]);
            pass.malformed += u64::from(w.dgram_flows[i] == 0);
        }
        let started = Instant::now();
        probe.enter(Layer::Round, round.start as u32);
        for n in round.clone() {
            let (i, _) = place(w, n);
            probe.enter(Layer::PushPayload, n as u32);
            let recv_start = now_ns();
            c.intake
                .push_payload_stamped(w.dgram(i), &mut scratch, recv_start, now_ns());
            probe.exit();
        }
        loop {
            probe.enter(Layer::PumpStep, round.start as u32);
            let processed = c.pump.step();
            probe.exit();
            if processed == 0 {
                break;
            }
            pass.steps += 1;
        }
        probe.exit();
        pass.book(
            place(w, round.start).1,
            started.elapsed().as_nanos() as u64,
            flows,
        );
        next = round.end;
    }
    pass.dgrams = dgrams.end - dgrams.start;
    pass
}

/// Phase B2: the shadow pump. The harness calls the layers itself, in the
/// pump's order, which exposes per-flow verdicts (scored against ground
/// truth) and gives every layer its own span. `c` must have been booted
/// with the store detached.
pub fn play_b2<P: Probe>(
    c: &mut Collector,
    w: &mut Workload,
    dgrams: Range<u64>,
    probe: &mut P,
) -> (Pass, Score) {
    let budget = c.cfg.batch_budget;
    let rings = c.cfg.rings;
    let mut scratch = FlowBatch::with_capacity(infilter_netflow::MAX_RECORDS_PER_DATAGRAM);
    let mut popped: Vec<Batch> = Vec::with_capacity(budget);
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut events: Vec<AdoptionEvent> = Vec::new();
    // Rings are FIFO and a datagram is one ingress run, so the labels of a
    // popped batch are those of the oldest datagram pushed to its ring.
    let mut pending: Vec<VecDeque<u32>> = vec![VecDeque::new(); rings];
    let label_start: Vec<u32> = w
        .dgram_flows
        .iter()
        .scan(0u32, |at, &flows| {
            let start = *at;
            *at += u32::from(flows);
            Some(start)
        })
        .collect();
    let mut pass = Pass::default();
    let mut score = Score::default();
    let mut next = dgrams.start;
    while next < dgrams.end {
        let round = next..(next + budget as u64).min(dgrams.end);
        for n in round.clone() {
            let (i, lap) = place(w, n);
            w.salt(i, lap);
        }
        let mut flows = 0;
        let started = Instant::now();
        probe.enter(Layer::Round, round.start as u32);
        for n in round.clone() {
            let (i, _) = place(w, n);
            probe.enter(Layer::Decode, n as u32);
            scratch.clear();
            let decoded = scratch.decode_datagram(w.dgram(i));
            probe.exit();
            if decoded.is_err() {
                pass.malformed += 1;
                continue;
            }
            debug_assert!(scratch.input_ifs().windows(2).all(|p| p[0] == p[1]));
            probe.enter(Layer::Push, n as u32);
            c.intake.push_flow_batch(&scratch);
            probe.exit();
            pending[scratch.input_ifs()[0] as usize % rings].push_back(label_start[i]);
            flows += scratch.len() as u64;
        }
        loop {
            probe.enter(Layer::ShadowStep, round.start as u32);
            probe.enter(Layer::Pop, round.start as u32);
            popped.clear();
            c.intake.pop_round(budget, &mut popped);
            probe.exit();
            if popped.is_empty() {
                probe.exit();
                break;
            }
            let engine = c.pump.engine_mut();
            for batch in &popped {
                probe.enter(Layer::Engine, round.start as u32);
                verdicts.clear();
                engine.process_flow_batch_into(
                    batch.ingress,
                    &batch.records,
                    Effort::Full,
                    &mut verdicts,
                );
                probe.exit();
                let first = pending[batch.ingress.0 as usize % rings]
                    .pop_front()
                    .expect("a popped batch was pushed") as usize;
                score.add(&w.labels[first..first + verdicts.len()], &verdicts);
            }
            probe.enter(Layer::Alert, round.start as u32);
            pass.alerts += Engine::drain_alerts(engine).len() as u64;
            probe.exit();
            if let Some(store) = c.store.as_mut() {
                probe.enter(Layer::Store, round.start as u32);
                events.clear();
                Engine::adoption_events(engine, &mut events);
                if !events.is_empty() {
                    match store.append(&events) {
                        Ok(_) => pass.appended += events.len() as u64,
                        Err(_) => pass.write_errors += 1,
                    }
                }
                probe.exit();
            }
            probe.exit();
            pass.steps += 1;
            pass.batches += popped.len() as u64;
        }
        probe.exit();
        pass.book(
            place(w, round.start).1,
            started.elapsed().as_nanos() as u64,
            flows,
        );
        next = round.end;
    }
    pass.dgrams = dgrams.end - dgrams.start;
    (pass, score)
}

/// What a two-thread phase (C or D) measured.
#[derive(Debug, Clone, Default)]
pub struct Duo {
    /// Start barrier to the worker draining the last batch.
    pub wall_ns: u64,
    /// Well-formed flows offered.
    pub flows: u64,
    pub dgrams: u64,
    /// Worker time spent in stretches of `step()` finding the rings empty.
    pub idle_ns: u64,
    /// Worker steps that processed something.
    pub steps: u64,
    /// Producer time spent holding for ring space (C only).
    pub blocked_ns: u64,
    /// Producer time from first to last datagram handed over.
    pub producer_ns: u64,
    /// When the producer started each lap of the stream (and, last, when it
    /// finished), nanoseconds: in the closed loop every lap is the same
    /// work, so lap rates can be compared and their median taken.
    pub lap_marks_ns: Vec<u64>,
    /// Highest ring occupancy the producer saw.
    pub occupancy_peak: f64,
    /// Per-datagram lateness of the generator against its schedule (D).
    pub late_ns: Vec<u32>,
    /// Per-datagram verdict latency, due time to completion (D);
    /// [`NO_FLOWS`] for a datagram that carried none.
    pub latency_ns: Vec<u32>,
    /// `(run-queue wait, on-CPU)` nanoseconds of each thread.
    pub producer_sched: (u64, u64),
    pub worker_sched: (u64, u64),
}

/// [`Duo::latency_ns`] of a datagram with no flows to complete.
pub const NO_FLOWS: u32 = u32::MAX;

/// The pacing of a two-thread phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Phase C: hand over as fast as the rings stay below
    /// [`CLOSED_LOOP_OCCUPANCY`].
    Closed,
    /// Phase D: datagram `n` is due at `n / rate`; never slows down.
    Open { dgrams_per_s: f64 },
}

impl Loop {
    /// When datagram `n` is due, nanoseconds after the phase start.
    fn due_ns(self, n: u64) -> u64 {
        match self {
            Loop::Closed => 0,
            Loop::Open { dgrams_per_s } => (n as f64 * 1e9 / dgrams_per_s) as u64,
        }
    }
}

/// Phases C and D: one producer thread in the listener role, one worker
/// thread busy-polling `step()`, pinned to different CPUs. The daemon's
/// 500 µs idle nap is private to its `worker_loop` and deliberately not
/// reproduced: the latency here is queueing plus processing, not timer
/// slack.
///
/// Verdict latency is count-based and FIFO-equivalent: datagram `n`
/// completes at the end of the first `step()` by which the flows processed
/// or shed reach the flows offered up to and including `n`, and its latency
/// runs from its **due** time, so a stall is charged to every datagram it
/// delayed. No per-datagram synchronisation in the timed path, and still
/// defined if the collector grows rings or workers.
pub fn play_duo(c: &mut Collector, w: &mut Workload, dgrams: u64, pacing: Loop) -> Duo {
    let intake = Arc::clone(&c.intake);
    let pump = &mut c.pump;
    let start = Barrier::new(2);
    let produced = AtomicBool::new(false);
    // When the producer started its schedule (0 = not yet), which is what
    // the worker measures due times from.
    let phase_t0 = AtomicU64::new(0);
    let epoch = Instant::now();
    // Never 0, so 0 can mean "not started" above.
    let now = || epoch.elapsed().as_nanos() as u64 + 1;
    let shed = &intake.metrics().shed_flows;
    let open = matches!(pacing, Loop::Open { .. });
    // The worker's copy of what each datagram carries (the producer holds
    // the stream itself, mutably, to salt it).
    let dgram_flows = w.dgram_flows.clone();
    let per_lap = w.dgrams() as u64;

    let (producer, worker) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut scratch = FlowBatch::with_capacity(infilter_netflow::MAX_RECORDS_PER_DATAGRAM);
            let mut late_ns: Vec<u32> = Vec::with_capacity(if open { dgrams as usize } else { 0 });
            let mut lap_marks_ns = Vec::with_capacity((dgrams / per_lap) as usize + 2);
            let (mut flows, mut blocked_ns) = (0u64, 0u64);
            let mut peak = 0.0f64;
            host::pin_to_nth_cpu(0);
            start.wait();
            let sched = host::thread_sched();
            let t0 = now();
            phase_t0.store(t0, Ordering::Release);
            for n in 0..dgrams {
                let (i, lap) = place(w, n);
                if i == 0 {
                    lap_marks_ns.push(now() - t0);
                }
                if n % OCCUPANCY_STRIDE == 0 {
                    let mut occupancy = intake.occupancy();
                    peak = peak.max(occupancy);
                    if !open && occupancy >= CLOSED_LOOP_OCCUPANCY {
                        let held = Instant::now();
                        while occupancy >= CLOSED_LOOP_OCCUPANCY {
                            std::thread::yield_now();
                            occupancy = intake.occupancy();
                        }
                        blocked_ns += held.elapsed().as_nanos() as u64;
                    }
                }
                w.salt(i, lap);
                if open {
                    let due = t0 + pacing.due_ns(n);
                    let mut at = now();
                    while at < due {
                        std::hint::spin_loop();
                        at = now();
                    }
                    late_ns.push((at - due).min(u64::from(u32::MAX)) as u32);
                }
                let recv_start = now_ns();
                intake.push_payload_stamped(w.dgram(i), &mut scratch, recv_start, now_ns());
                flows += u64::from(w.dgram_flows[i]);
            }
            let t1 = now();
            lap_marks_ns.push(t1 - t0);
            produced.store(true, Ordering::Release);
            let sched = host::sched_delta(sched, host::thread_sched());
            (
                t0,
                t1,
                flows,
                blocked_ns,
                peak,
                late_ns,
                lap_marks_ns,
                sched,
            )
        });
        let worker = s.spawn(|| {
            let mut latency_ns: Vec<u32> =
                Vec::with_capacity(if open { dgrams as usize } else { 0 });
            let (mut done, mut steps, mut idle_ns) = (0u64, 0u64, 0u64);
            // When the current stretch of empty steps began: one clock read
            // per stretch, none per empty step.
            let mut idle_since: Option<u64> = None;
            // The next datagram awaiting completion, and the flows offered
            // up to and including it.
            let (mut next, mut offered) = (0u64, u64::from(dgram_flows[0]));
            host::pin_to_nth_cpu(1);
            start.wait();
            let sched = host::thread_sched();
            let t0 = loop {
                match phase_t0.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    t0 => break t0,
                }
            };
            // Marks every datagram whose flows are all processed or shed
            // as complete at `at`.
            let mut settle = |settled: u64, at: u64| {
                while next < dgrams && offered <= settled {
                    let carries = dgram_flows[(next % per_lap) as usize] != 0;
                    latency_ns.push(if carries {
                        let late = at.saturating_sub(t0 + pacing.due_ns(next));
                        late.min(u64::from(NO_FLOWS - 1)) as u32
                    } else {
                        NO_FLOWS
                    });
                    next += 1;
                    offered += u64::from(dgram_flows[(next % per_lap) as usize]);
                }
            };
            let end = loop {
                let processed = pump.step();
                if processed > 0 {
                    steps += 1;
                    done += processed as u64;
                    if open || idle_since.is_some() {
                        let at = now();
                        if let Some(since) = idle_since.take() {
                            idle_ns += at - since;
                        }
                        if open {
                            settle(done + shed.load(Ordering::Relaxed), at);
                        }
                    }
                    continue;
                }
                if idle_since.is_none() {
                    idle_since = Some(now());
                }
                // Acquire pairs with the producer's Release: every push
                // before it is visible to the emptiness check.
                if produced.load(Ordering::Acquire) && intake.is_empty() {
                    break now();
                }
                std::hint::spin_loop();
            };
            if open {
                // Whatever the last step did not settle was shed after it.
                settle(u64::MAX, end);
            }
            idle_ns += end - idle_since.unwrap_or(end);
            let sched = host::sched_delta(sched, host::thread_sched());
            (end, steps, idle_ns, latency_ns, sched)
        });
        (
            producer.join().expect("producer thread panicked"),
            worker.join().expect("worker thread panicked"),
        )
    });

    let (t0, t1, flows, blocked_ns, occupancy_peak, late_ns, lap_marks_ns, producer_sched) =
        producer;
    let (end, steps, idle_ns, latency_ns, worker_sched) = worker;
    Duo {
        wall_ns: end - t0,
        flows,
        dgrams,
        idle_ns,
        steps,
        blocked_ns,
        producer_ns: t1 - t0,
        lap_marks_ns,
        occupancy_peak,
        late_ns,
        latency_ns,
        producer_sched,
        worker_sched,
    }
}

#[cfg(test)]
mod tests {
    use super::Pass;

    #[test]
    fn a_pass_absorbs_the_one_that_went_on_after_it() {
        let mut first = Pass::default();
        first.book(0, 100, 10);
        first.book(1, 40, 4);
        first.dgrams = 14;
        // Went on in the middle of lap 1.
        let mut later = Pass::default();
        later.book(1, 60, 6);
        later.book(2, 100, 10);
        later.dgrams = 16;
        later.steps = 3;
        first.absorb(later);
        assert_eq!(first.laps, [(100, 10), (100, 10), (100, 10)]);
        assert_eq!(
            (first.busy_ns, first.flows, first.dgrams, first.steps),
            (300, 30, 30, 3)
        );
    }
}
