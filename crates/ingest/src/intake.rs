//! Bounded intake rings between the UDP listener threads and the worker.
//!
//! Listeners decode each datagram off the socket, split its records into
//! per-ingress batches (NetFlow v5 records carry the SNMP input interface,
//! which doubles as the peer-AS index on this testbed), and push the
//! batches onto lock-free bounded rings keyed by `ingress % rings`. A full
//! ring sheds the batch — counted, never blocking the socket read loop,
//! because a blocked listener turns into kernel-side UDP drops that no
//! counter would ever see.

use std::sync::Arc;

use crossbeam::queue::ArrayQueue;
use infilter_core::{JournalEvent, PeerId};
use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_telemetry::trace::now_ns;
use infilter_telemetry::{Journal, Tracer};

use crate::metrics::IngestMetrics;

/// The ingest-side trace stamps riding with a [`Batch`] through the ring,
/// so the worker can retroactively emit listener-side spans (recv, decode)
/// and measure the ring **queue wait** as a first-class stage. All stamps
/// are [`now_ns`] values against the shared process epoch; `trace_id` is
/// zero for the (vast) unsampled majority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTrace {
    /// Head-sampled trace id (0 = untraced).
    pub trace_id: u64,
    /// When the listener entered `recv_from` for this datagram.
    pub recv_start_ns: u64,
    /// When the datagram came off the socket.
    pub recv_end_ns: u64,
    /// When the wire decode finished.
    pub decoded_ns: u64,
    /// When the batch was enqueued (stamped by [`Intake::push_batch`]).
    pub enqueued_ns: u64,
}

/// One ingress-uniform run of records — the unit the worker feeds to
/// `Engine::process_flow_batch_into`. Records ride in struct-of-arrays
/// form end to end: the listener decodes straight into columns and the
/// engine's batch path consumes them without transposing.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The peer AS these records arrived through.
    pub ingress: PeerId,
    /// The decoded flow records, as columns.
    pub records: FlowBatch,
    /// Trace stamps (zeroed when untraced).
    pub trace: BatchTrace,
}

impl Batch {
    /// An untraced batch (tests, replay tools, benches).
    pub fn new(ingress: PeerId, records: FlowBatch) -> Batch {
        Batch {
            ingress,
            records,
            trace: BatchTrace::default(),
        }
    }
}

/// The bounded rings plus the shared ingest counters and observers.
#[derive(Debug)]
pub struct Intake {
    rings: Vec<ArrayQueue<Batch>>,
    metrics: Arc<IngestMetrics>,
    tracer: Arc<Tracer>,
    journal: Arc<Journal<JournalEvent>>,
}

impl Intake {
    /// Creates `rings` rings of `capacity` batches each, with tracing
    /// disabled and a retention-free journal. The daemon uses
    /// [`Intake::with_observers`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `rings` or `capacity` is zero (the config parser rejects
    /// both upstream).
    pub fn new(rings: usize, capacity: usize, metrics: Arc<IngestMetrics>) -> Intake {
        Intake::with_observers(
            rings,
            capacity,
            metrics,
            Arc::new(Tracer::new(0, 0)),
            Arc::new(Journal::new(0)),
        )
    }

    /// [`Intake::new`] wired to a shared span tracer and event journal:
    /// datagram-ingress sampling decisions come from `tracer`, and ring
    /// sheds are journalled (and force the next trace) so overload is
    /// visible as ordered events, not just counters.
    pub fn with_observers(
        rings: usize,
        capacity: usize,
        metrics: Arc<IngestMetrics>,
        tracer: Arc<Tracer>,
        journal: Arc<Journal<JournalEvent>>,
    ) -> Intake {
        assert!(rings > 0 && capacity > 0);
        Intake {
            rings: (0..rings).map(|_| ArrayQueue::new(capacity)).collect(),
            metrics,
            tracer,
            journal,
        }
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Arc<IngestMetrics> {
        &self.metrics
    }

    /// The shared span tracer (sampling decisions, collected traces).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The shared structured event journal.
    pub fn journal(&self) -> &Arc<Journal<JournalEvent>> {
        &self.journal
    }

    /// Decodes one datagram payload and enqueues its records as
    /// per-ingress batches, using a fresh decode buffer. Prefer
    /// [`Intake::push_payload_with`] on the listener hot path.
    pub fn push_payload(&self, payload: &[u8]) {
        self.push_payload_with(payload, &mut FlowBatch::new());
    }

    /// [`Intake::push_payload`] decoding into a caller-owned scratch
    /// batch, so a listener thread reuses one set of column buffers for
    /// every well-formed datagram instead of allocating per packet.
    /// Malformed payloads are counted and dropped; this never panics and
    /// never blocks.
    pub fn push_payload_with(&self, payload: &[u8], scratch: &mut FlowBatch) {
        let at = now_ns();
        self.push_payload_stamped(payload, scratch, at, at);
    }

    /// [`Intake::push_payload_with`] carrying the listener's recv stamps —
    /// the datagram-ingress point where the head-based trace sampling
    /// decision is made. A sampled datagram's first same-ingress run
    /// carries the trace id (and the recv/decode stamps) to the worker.
    pub fn push_payload_stamped(
        &self,
        payload: &[u8],
        scratch: &mut FlowBatch,
        recv_start_ns: u64,
        recv_end_ns: u64,
    ) {
        scratch.clear();
        match scratch.decode_datagram(payload) {
            Ok(_) => {
                self.metrics.record_datagram(scratch.len() as u64);
                let stamps = BatchTrace {
                    trace_id: self.tracer.decide(),
                    recv_start_ns,
                    recv_end_ns,
                    decoded_ns: now_ns(),
                    enqueued_ns: 0,
                };
                self.push_flow_batch_stamped(scratch, stamps);
            }
            Err(e) => self.metrics.record_decode_error(&e),
        }
    }

    /// Splits a decoded batch into consecutive same-ingress runs and
    /// enqueues each; exporters batch per interface, so a datagram is
    /// usually one run (copied column-wise into the enqueued batch).
    pub fn push_flow_batch(&self, batch: &FlowBatch) {
        self.push_flow_batch_stamped(batch, BatchTrace::default());
    }

    /// [`Intake::push_flow_batch`] with trace stamps. Only the first run
    /// inherits the datagram's trace id — one datagram, one trace — but
    /// every run gets the queue-wait stamp from [`Intake::push_batch`].
    fn push_flow_batch_stamped(&self, batch: &FlowBatch, stamps: BatchTrace) {
        let ifs = batch.input_ifs();
        let mut start = 0;
        let mut trace = stamps;
        while start < ifs.len() {
            let input_if = ifs[start];
            let end = start + ifs[start..].iter().take_while(|&&i| i == input_if).count();
            let mut records = FlowBatch::with_capacity(end - start);
            records.extend_from(batch, start..end);
            self.push_batch(Batch {
                ingress: PeerId(input_if),
                records,
                trace,
            });
            trace = BatchTrace::default();
            start = end;
        }
    }

    /// Splits a record slice into consecutive same-ingress runs and
    /// enqueues each (row-major convenience for tests and replay tools).
    pub fn push_records(&self, records: &[FlowRecord]) {
        let mut rest = records;
        while let Some(first) = rest.first() {
            let run = rest
                .iter()
                .take_while(|r| r.input_if == first.input_if)
                .count();
            self.push_batch(Batch::new(
                PeerId(first.input_if),
                rest[..run].iter().copied().collect(),
            ));
            rest = &rest[run..];
        }
    }

    /// Enqueues one batch, shedding it (counted and journalled) if the
    /// target ring is full. The enqueue stamp is taken here — when the
    /// tracer is live — so the worker can measure ring wait.
    pub fn push_batch(&self, mut batch: Batch) {
        let ring_index = batch.ingress.0 as usize % self.rings.len();
        let ring = &self.rings[ring_index];
        batch.trace.enqueued_ns = now_ns();
        let flows = batch.records.len() as u64;
        if ring.push(batch).is_err() {
            self.metrics.record_shed(flows);
            self.journal.record(JournalEvent::RingDrop {
                ring: ring_index as u16,
                flows: flows.min(u64::from(u32::MAX)) as u32,
            });
            // A shed is exactly the moment an operator wants a trace of
            // the surviving traffic's queue wait: force the next decision.
            self.tracer.force_next();
        }
    }

    /// Pops up to `budget` batches, round-robin across rings so one hot
    /// peer cannot starve the others.
    pub fn pop_round(&self, budget: usize, out: &mut Vec<Batch>) {
        // Stops at the budget or after one full lap of empty rings.
        let mut empties = 0;
        for ring in self.rings.iter().cycle() {
            if out.len() >= budget || empties == self.rings.len() {
                break;
            }
            match ring.pop() {
                Some(batch) => {
                    out.push(batch);
                    empties = 0;
                }
                None => empties += 1,
            }
        }
    }

    /// `(occupied, capacity)` per ring, for the queue-depth gauges.
    pub fn depths(&self) -> Vec<(usize, usize)> {
        self.rings.iter().map(|r| (r.len(), r.capacity())).collect()
    }

    /// The highest ring fill fraction — what the degradation ladder
    /// watches. A single saturated peer must degrade the pipeline even if
    /// the other rings are idle, because that ring is where the backlog
    /// (and the attack) lives.
    pub fn occupancy(&self) -> f64 {
        self.rings
            .iter()
            .map(|r| r.len() as f64 / r.capacity() as f64)
            .fold(0.0, f64::max)
    }

    /// Whether every ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infilter_netflow::Datagram;

    fn record(input_if: u16) -> FlowRecord {
        FlowRecord {
            input_if,
            ..FlowRecord::default()
        }
    }

    fn intake(rings: usize, cap: usize) -> Intake {
        Intake::new(rings, cap, Arc::new(IngestMetrics::default()))
    }

    #[test]
    fn splits_mixed_datagrams_into_ingress_runs() {
        let intake = intake(2, 8);
        let records = [record(1), record(1), record(2), record(2), record(1)];
        let datagram = Datagram::new(0, 0, &records);
        intake.push_payload(&datagram.encode());
        let mut out = Vec::new();
        intake.pop_round(16, &mut out);
        let mut shape: Vec<(u16, usize)> =
            out.iter().map(|b| (b.ingress.0, b.records.len())).collect();
        shape.sort_unstable();
        assert_eq!(shape, vec![(1, 1), (1, 2), (2, 2)]);
        assert_eq!(intake.metrics().snapshot().flows, 5);
    }

    #[test]
    fn pop_round_interleaves_rings_and_stops_at_the_budget() {
        let intake = intake(2, 8);
        // Ring 0 holds batches of 1, 2, 3, 6, 7, 8 records; ring 1 of 4, 5.
        let pushes = [
            (2, 1),
            (2, 2),
            (2, 3),
            (2, 6),
            (2, 7),
            (2, 8),
            (1, 4),
            (1, 5),
        ];
        for (peer, flows) in pushes {
            intake.push_batch(Batch::new(
                PeerId(peer),
                (0..flows).map(|_| record(peer)).collect(),
            ));
        }
        let shape = |out: &[Batch]| -> Vec<usize> { out.iter().map(|b| b.records.len()).collect() };
        let mut out = Vec::new();
        intake.pop_round(3, &mut out);
        assert_eq!(shape(&out), [1, 4, 2], "one per ring per lap, cut at 3");
        // `budget` bounds `out`, not this call's share of it.
        intake.pop_round(3, &mut out);
        assert_eq!(out.len(), 3);
        out.clear();
        intake.pop_round(16, &mut out);
        // Every call starts at ring 0; a ring found empty, however often,
        // does not end the round while the other still yields.
        assert_eq!(shape(&out), [3, 5, 6, 7, 8]);
        out.clear();
        intake.pop_round(16, &mut out);
        assert!(out.is_empty() && intake.is_empty());
    }

    #[test]
    fn counts_malformed_payloads_without_panicking() {
        let intake = intake(1, 8);
        intake.push_payload(&[]);
        intake.push_payload(&[0u8; 23]);
        intake.push_payload(&[0u8; 80]);
        let snap = intake.metrics().snapshot();
        assert_eq!(snap.decode_errors, 3);
        assert_eq!(snap.datagrams, 0);
        assert!(intake.is_empty());
    }

    #[test]
    fn full_ring_sheds_with_accounting() {
        let intake = intake(1, 2);
        for _ in 0..3 {
            intake.push_batch(Batch::new(PeerId(1), (0..4).map(|_| record(1)).collect()));
        }
        assert_eq!(intake.occupancy(), 1.0);
        let snap = intake.metrics().snapshot();
        assert_eq!(snap.shed_batches, 1);
        assert_eq!(snap.shed_flows, 4);
    }
}
