//! The worker-side pump: drains the intake rings into the engine at the
//! effort the degradation ladder allows.
//!
//! [`IngestPump`] is deliberately socket-free — the daemon's worker thread
//! wraps it, and the overload tests drive it directly by pushing batches
//! into the shared [`Intake`] — so the full ladder behaviour (degrade,
//! shed, recover, counters) is testable in-process without UDP timing
//! flakiness.

use std::collections::VecDeque;
use std::sync::Arc;

use infilter_core::{AdoptionEvent, Effort, Engine, IdmefAlert, JournalEvent, PeerId, Verdict};
use infilter_net::Prefix;
use infilter_store::{snapshot_entries, EiaStore};
use infilter_telemetry::trace::{self, now_ns};

use crate::intake::{Batch, Intake};
use crate::ladder::{Ladder, LadderConfig};
use crate::metrics::IngestMetrics;

/// The worker-side end of the durable EIA store: the store handle plus
/// the drain buffer and compaction cadence.
struct StoreSide {
    store: Box<dyn EiaStore + Send>,
    /// Reused event sink for [`Engine::adoption_events`] drains.
    events: Vec<AdoptionEvent>,
    /// Compact after this many appended records (0 = only at shutdown).
    compact_every: u64,
    appended_since_compact: u64,
    /// Failed store operations; the daemon keeps serving either way.
    write_errors: u64,
}

impl std::fmt::Debug for StoreSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSide")
            .field("stats", &self.store.stats())
            .field("compact_every", &self.compact_every)
            .finish_non_exhaustive()
    }
}

/// Pairs an owned engine with the shared intake and the ladder state.
#[derive(Debug)]
pub struct IngestPump<E: Engine> {
    engine: E,
    intake: Arc<Intake>,
    ladder: Ladder,
    alerts: VecDeque<IdmefAlert>,
    alert_spool: usize,
    /// Batches processed since a step last drained an alert. An alert
    /// after a whole trace-sampling period without one is an onset.
    quiet_batches: u64,
    batch_budget: usize,
    scratch: Vec<Batch>,
    /// Reused verdict buffer: one allocation serves every batch of every
    /// step instead of a fresh `Vec` per batch.
    verdicts: Vec<Verdict>,
    /// Durable EIA persistence, when configured.
    store: Option<StoreSide>,
}

impl<E: Engine> IngestPump<E> {
    /// Wires an engine to the intake.
    pub fn new(
        engine: E,
        intake: Arc<Intake>,
        ladder: LadderConfig,
        batch_budget: usize,
        alert_spool: usize,
    ) -> IngestPump<E> {
        IngestPump {
            engine,
            intake,
            ladder: Ladder::new(ladder),
            alerts: VecDeque::new(),
            alert_spool: alert_spool.max(1),
            quiet_batches: u64::MAX,
            batch_budget: batch_budget.max(1),
            scratch: Vec::new(),
            verdicts: Vec::new(),
            store: None,
        }
    }

    /// Attaches the durable EIA store. From here on the pump drains the
    /// engine's adoption events into it after every productive step,
    /// compacts every `compact_every` appended records, and
    /// [`finish_store`](Self::finish_store) seals it at shutdown.
    pub fn set_store(&mut self, store: Box<dyn EiaStore + Send>, compact_every: u64) {
        self.store = Some(StoreSide {
            store,
            events: Vec::new(),
            compact_every,
            appended_since_compact: 0,
            write_errors: 0,
        });
    }

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The shared intake (the producer side).
    pub fn intake(&self) -> &Arc<Intake> {
        &self.intake
    }

    /// The shared ingest counters.
    pub fn metrics(&self) -> &Arc<IngestMetrics> {
        self.intake().metrics()
    }

    /// The engine, for final reports and parity checks.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The engine, mutably (hot-reload goes through here).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The degradation rung currently in force.
    pub fn effort(&self) -> Effort {
        self.ladder.effort()
    }

    /// One pump step: observe queue depth, adjust the ladder, drain up to
    /// the batch budget at the resulting effort, spool new alerts. Returns
    /// the number of flow records processed (0 = the rings were empty; the
    /// caller may sleep).
    pub fn step(&mut self) -> usize {
        if let Some(t) = self.ladder.observe(self.intake.occupancy()) {
            self.metrics().record_transition(t.to);
            self.intake
                .journal()
                .record(JournalEvent::LadderTransition {
                    from: t.from,
                    to: t.to,
                });
            // A ladder move is exactly when an operator wants to see what
            // latency looks like on the new rung.
            self.intake.tracer().force_next();
        }
        let effort = self.ladder.effort();
        self.intake.pop_round(self.batch_budget, &mut self.scratch);
        let mut processed = 0;
        let quiet = self.scratch.len() as u64;
        // One dequeue stamp covers the whole round: ring wait is dominated
        // by time *in* the ring, not by the worker's position in this loop.
        let dequeued_ns = if self.scratch.is_empty() { 0 } else { now_ns() };
        for batch in self.scratch.drain(..) {
            let wait_ns = dequeued_ns.saturating_sub(batch.trace.enqueued_ns);
            self.intake
                .metrics()
                .record_queue_wait(wait_ns, batch.trace.trace_id);
            if batch.trace.trace_id != 0 {
                Self::replay_listener_spans(&batch.trace, dequeued_ns);
            }
            self.verdicts.clear();
            self.engine.process_flow_batch_into(
                batch.ingress,
                &batch.records,
                effort,
                &mut self.verdicts,
            );
            if batch.trace.trace_id != 0 {
                trace::finish(self.intake.tracer().collector());
            }
            processed += batch.records.len();
            // Back to the listeners, which decode the next datagram into it.
            self.intake.recycle(batch.records);
        }
        if processed > 0 {
            self.metrics().record_processed(effort, processed as u64);
            if self.spool_alerts() == 0 {
                self.quiet_batches = self.quiet_batches.saturating_add(quiet);
            } else {
                // Alert-bearing traffic is the interesting traffic, so the
                // datagram after an onset is traced whatever the sampling
                // phase. Only after an onset: forcing on every alerting
                // step would, under a sustained attack, fill the trace
                // ring many times faster than `trace_sample_every` says.
                if self.quiet_batches >= self.intake.tracer().sample_every() {
                    self.intake.tracer().force_next();
                }
                self.quiet_batches = 0;
            }
            // Adoptions are rare next to flows, so this drain is almost
            // always empty and costs one virtual call — and the write
            // happens here, after the batch, never inside the hot path.
            self.persist_adoptions();
        }
        processed
    }

    /// Drains the engine's buffered adoption events into the durable
    /// store, compacting once the configured record budget is spent.
    fn persist_adoptions(&mut self) {
        let Some(side) = self.store.as_mut() else {
            return;
        };
        side.events.clear();
        self.engine.adoption_events(&mut side.events);
        if side.events.is_empty() {
            return;
        }
        match side.store.append(&side.events) {
            Ok(_) => side.appended_since_compact += side.events.len() as u64,
            Err(_) => side.write_errors += 1,
        }
        side.events.clear();
        if side.compact_every > 0 && side.appended_since_compact >= side.compact_every {
            self.compact_store();
        }
    }

    /// Seals a snapshot of the engine's *published* table and drops the
    /// log it supersedes. Every adoption is published as it happens, so
    /// the sealed snapshot covers every record the log held.
    fn compact_store(&mut self) {
        if self.store.is_none() {
            return;
        }
        self.persist_published_then(|side, entries, adopted| side.store.compact(entries, adopted));
    }

    /// Shutdown path: drain any last adoption events, seal a snapshot of
    /// the final table, and force everything to stable storage. Journals
    /// a `store_seal` event on success.
    pub fn finish_store(&mut self) {
        if self.store.is_none() {
            return;
        }
        self.persist_adoptions();
        self.persist_published_then(|side, entries, adopted| {
            side.store.seal_snapshot(entries, adopted)?;
            side.store.sync()
        });
    }

    /// Common tail of compaction and shutdown sealing: snapshot the
    /// published table, run `op` against the store, journal the seal.
    fn persist_published_then<F>(&mut self, op: F)
    where
        F: FnOnce(
            &mut StoreSide,
            &[(PeerId, Prefix)],
            u64,
        ) -> Result<(), infilter_store::StoreError>,
    {
        let snap = self.engine.eia_snapshot();
        let entries = snapshot_entries(&snap);
        let Some(side) = self.store.as_mut() else {
            return;
        };
        match op(side, &entries, snap.adopted_count()) {
            Ok(()) => {
                side.appended_since_compact = 0;
                self.engine
                    .telemetry()
                    .journal()
                    .record(JournalEvent::StoreSeal {
                        entries: entries.len() as u32,
                    });
            }
            Err(_) => side.write_errors += 1,
        }
    }

    /// Hot-reloads the EIA table from `peer` lines (the `/v1/reload` route).
    /// With a store attached, the old adoption log no longer describes
    /// the hot-swapped registry, so the store is compacted against a
    /// fresh snapshot of the new table in the same breath.
    pub fn reload_eia_table(&mut self, peers: Vec<(PeerId, Prefix)>) -> usize {
        let threshold = self.engine.config().adoption_threshold;
        let mut eia = infilter_core::EiaRegistry::new(threshold);
        eia.preload_all(peers);
        let prefixes = self.engine.reload_eia(eia);
        if self.store.is_some() {
            self.compact_store();
        }
        prefixes
    }

    /// The `/v1/store` document, hand-rendered like the rest of the JSON
    /// surface: store counters plus what boot recovery replayed.
    pub fn store_json(&self) -> String {
        let (recovered, records, segments, age) = self.engine.telemetry().store_recovery();
        match &self.store {
            None => "{\"enabled\":false}".to_string(),
            Some(side) => {
                let s = side.store.stats();
                format!(
                    "{{\"enabled\":true,\"backend\":\"{}\",\"last_seq\":{},\
                     \"appended_records\":{},\"segments\":{},\"log_bytes\":{},\
                     \"seals\":{},\"write_errors\":{},\"pending_compact\":{},\
                     \"recovery\":{{\"recovered\":{},\"records_replayed\":{},\
                     \"segments_scanned\":{},\"snapshot_age_seconds\":{}}}}}",
                    s.backend,
                    s.last_seq,
                    s.appended_records,
                    s.segments,
                    s.log_bytes,
                    s.seals,
                    side.write_errors,
                    side.appended_since_compact,
                    recovered,
                    records,
                    segments,
                    age,
                )
            }
        }
    }

    /// Activates a sampled batch's trace and back-fills the listener-side
    /// spans (recv, decode, ring queue wait) from the stamps it carried, so
    /// the engine spans the upcoming batch call emits land under the same
    /// trace id.
    fn replay_listener_spans(stamps: &crate::intake::BatchTrace, dequeued_ns: u64) {
        trace::begin(stamps.trace_id);
        if stamps.recv_end_ns >= stamps.recv_start_ns && stamps.recv_end_ns != 0 {
            trace::record("recv", stamps.recv_start_ns, stamps.recv_end_ns);
        }
        if stamps.decoded_ns >= stamps.recv_end_ns && stamps.decoded_ns != 0 {
            trace::record("decode", stamps.recv_end_ns, stamps.decoded_ns);
        }
        if stamps.enqueued_ns != 0 {
            trace::record("queue_wait", stamps.enqueued_ns, dequeued_ns);
        }
    }

    /// Pumps until the rings are empty (shutdown flush; also useful in
    /// tests). Each step re-observes the ladder, so recovery happens on
    /// the way down.
    pub fn drain(&mut self) -> usize {
        let mut total = 0;
        loop {
            let n = self.step();
            if n == 0 && self.intake.is_empty() {
                return total;
            }
            total += n;
        }
    }

    /// Moves the engine's pending alerts into the spool, dropping the
    /// oldest past its bound; returns how many arrived.
    fn spool_alerts(&mut self) -> u64 {
        let (spool, bound) = (&mut self.alerts, self.alert_spool);
        let (mut drained, mut dropped) = (0, 0);
        self.engine.drain_alerts_into(&mut |alert| {
            drained += 1;
            if spool.len() >= bound {
                spool.pop_front();
                dropped += 1;
            }
            spool.push_back(alert);
        });
        if dropped > 0 {
            self.metrics().record_alerts_dropped(dropped);
        }
        drained
    }

    /// Takes up to `max` spooled alerts, oldest first (0 = all).
    pub fn take_alerts(&mut self, max: usize) -> Vec<IdmefAlert> {
        self.spool_alerts();
        let n = if max == 0 {
            self.alerts.len()
        } else {
            max.min(self.alerts.len())
        };
        self.alerts.drain(..n).collect()
    }

    /// Alerts currently waiting in the spool.
    pub fn spooled(&self) -> usize {
        self.alerts.len()
    }

    /// The combined exposition page: the engine families followed by the
    /// `infilterd_*` families.
    pub fn prometheus_text(&self) -> String {
        let mut page = self.engine.prometheus_text();
        page.push_str(&self.metrics().render(
            &self.intake.depths(),
            self.ladder.effort(),
            self.alerts.len(),
            self.intake.tracer(),
        ));
        page
    }
}
