//! Bounded intake rings between the UDP listener threads and the worker,
//! and the return ring that carries spent batches back.
//!
//! A listener decodes each datagram off the socket into its scratch
//! [`FlowBatch`] and hands that very batch to the ring keyed by
//! `ingress % rings` (NetFlow v5 records carry the SNMP input interface,
//! which doubles as the peer-AS index on this testbed), taking a spent one
//! from the return ring as its next scratch; the worker gives every batch
//! back through [`Intake::recycle`] once the engine has seen it. After
//! warm-up a datagram therefore costs one copy of its bytes (the decode)
//! and no heap traffic on either thread: the batches in existence are
//! bounded by the most that were ever in flight at once — at most about
//! twice `rings × capacity` — not by how much traffic has passed. Only a
//! datagram whose records name more than one ingress is copied a second
//! time, into one recycled batch per ingress.
//!
//! A full ring sheds the batch — counted, never blocking the socket read
//! loop, because a blocked listener turns into kernel-side UDP drops that
//! no counter would ever see.

use std::sync::Arc;

use crossbeam::queue::ArrayQueue;
use infilter_core::{JournalEvent, PeerId};
use infilter_netflow::{FlowBatch, MAX_RECORDS_PER_DATAGRAM};
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
    /// When the batch was enqueued. Every batch carries it — the worker's
    /// queue-wait histogram covers untraced batches too. A decoded
    /// datagram is handed to its ring with nothing in between, so on the
    /// listener path this is the same clock read as `decoded_ns`.
    pub enqueued_ns: u64,
}

/// The records of one datagram that arrived through one ingress — the
/// unit the worker feeds to `Engine::process_flow_batch_into`. They ride
/// as the [`FlowBatch`] the listener decoded into, end to end.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The peer AS these records arrived through.
    pub ingress: PeerId,
    /// The decoded flow records.
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
    /// Spent record buffers on their way back to the listeners, emptied
    /// but with their capacity kept. As large as all the rings together:
    /// a burst that filled every ring finds its buffers here the next time.
    spares: ArrayQueue<FlowBatch>,
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
            spares: ArrayQueue::new(rings * capacity),
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

    /// [`Intake::push_payload_stamped`] with a throw-away scratch and no
    /// recv stamps (tests and tools; a listener keeps its scratch).
    pub fn push_payload(&self, payload: &[u8]) {
        let at = now_ns();
        self.push_payload_stamped(payload, &mut FlowBatch::new(), at, at);
    }

    /// Decodes one datagram payload into `scratch` and enqueues its
    /// records, one batch per ingress. Malformed payloads are counted and
    /// dropped; this never panics and never blocks.
    ///
    /// `scratch` is the listener thread's decode buffer, and what it holds
    /// on return is unspecified but reusable: a datagram from one ingress
    /// — what an exporter batching per interface sends — is not copied out
    /// of it; the scratch itself becomes the enqueued batch and a spent
    /// one from the return ring takes its place.
    ///
    /// This is also the datagram-ingress point where the head-based trace
    /// sampling decision is made: a sampled datagram's first batch carries
    /// the trace id, and the listener's recv stamps, to the worker.
    pub fn push_payload_stamped(
        &self,
        payload: &[u8],
        scratch: &mut FlowBatch,
        recv_start_ns: u64,
        recv_end_ns: u64,
    ) {
        scratch.clear();
        if let Err(e) = scratch.decode_datagram(payload) {
            self.metrics.record_decode_error(&e);
            return;
        }
        self.metrics.record_datagram(scratch.len() as u64);
        let decoded_ns = now_ns();
        let trace = BatchTrace {
            trace_id: self.tracer.decide(),
            recv_start_ns,
            recv_end_ns,
            decoded_ns,
            enqueued_ns: decoded_ns,
        };
        match *scratch.input_ifs() {
            [input_if, ref rest @ ..] if rest.iter().all(|&i| i == input_if) => {
                let records = std::mem::replace(scratch, self.spare());
                self.enqueue(Batch {
                    ingress: PeerId(input_if),
                    records,
                    trace,
                });
            }
            _ => self.push_split(scratch, trace),
        }
    }

    /// Copies a decoded batch the caller keeps into one enqueued batch per
    /// ingress (see [`Intake::push_payload_stamped`] for the listener's
    /// copy-free path).
    pub fn push_flow_batch(&self, batch: &FlowBatch) {
        let trace = BatchTrace {
            enqueued_ns: now_ns(),
            ..BatchTrace::default()
        };
        self.push_split(batch, trace);
    }

    /// Enqueues one batch per **distinct** `input_if` of `batch`, in
    /// first-appearance order, rows in arrival order within each. Only the
    /// first inherits the datagram's trace id — one datagram, one trace —
    /// but all carry its enqueue stamp.
    ///
    /// The unit is the ingress, not the consecutive same-ingress run:
    /// order across ingresses was never kept (different rings, round-robin
    /// pop), order within one still is, and cutting at every change of
    /// interface let a single datagram whose records alternate between two
    /// interfaces — which an exporter interleaving its interfaces sends,
    /// and anyone who can reach the port can craft — buy thirty ring slots
    /// and thirty engine calls for 1.4 KB.
    fn push_split(&self, batch: &FlowBatch, mut trace: BatchTrace) {
        let ifs = batch.input_ifs();
        for (first, &input_if) in ifs.iter().enumerate() {
            if ifs[..first].contains(&input_if) {
                continue;
            }
            let mut records = self.spare();
            let mut at = 0;
            for run in ifs.chunk_by(|a, b| a == b) {
                if run[0] == input_if {
                    records.extend_from(batch, at..at + run.len());
                }
                at += run.len();
            }
            self.enqueue(Batch {
                ingress: PeerId(input_if),
                records,
                trace,
            });
            trace = BatchTrace {
                enqueued_ns: trace.enqueued_ns,
                ..BatchTrace::default()
            };
        }
    }

    /// Stamps and enqueues one batch, shedding it (counted and journalled)
    /// if the target ring is full.
    pub fn push_batch(&self, mut batch: Batch) {
        batch.trace.enqueued_ns = now_ns();
        self.enqueue(batch);
    }

    fn enqueue(&self, batch: Batch) {
        let ring_index = batch.ingress.0 as usize % self.rings.len();
        let flows = batch.records.len() as u64;
        if let Err(shed) = self.rings[ring_index].push(batch) {
            self.metrics.record_shed(flows);
            self.journal.record(JournalEvent::RingDrop {
                ring: ring_index as u16,
                flows: flows.min(u64::from(u32::MAX)) as u32,
            });
            // A shed is exactly the moment an operator wants a trace of
            // the surviving traffic's queue wait: force the next decision.
            self.tracer.force_next();
            self.recycle(shed.records);
        }
    }

    /// Gives a spent batch's records back to the listeners: whoever pops a
    /// [`Batch`] calls this once it is done with it (the pump does, after
    /// the engine call). Dropping the batch instead is correct but makes
    /// the listener allocate its replacement.
    pub fn recycle(&self, mut records: FlowBatch) {
        records.clear();
        // A full return ring already holds a buffer for every ring slot;
        // the surplus is freed.
        let _ = self.spares.push(records);
    }

    /// An empty batch for the next decode or split: a recycled one, or —
    /// until as many exist as were ever in flight at once — a new one that
    /// fits any datagram, so it never grows.
    fn spare(&self) -> FlowBatch {
        self.spares
            .pop()
            .unwrap_or_else(|| FlowBatch::with_capacity(MAX_RECORDS_PER_DATAGRAM))
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
    use infilter_netflow::{Datagram, FlowRecord};

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
    fn splits_mixed_datagrams_per_distinct_ingress() {
        let intake = intake(2, 8);
        let records: Vec<FlowRecord> = [1, 1, 2, 2, 1]
            .iter()
            .zip(0..)
            .map(|(&input_if, packets)| FlowRecord {
                packets,
                ..record(input_if)
            })
            .collect();
        let datagram = Datagram::new(0, 0, &records);
        intake.push_payload(&datagram.encode());
        let mut out = Vec::new();
        intake.pop_round(16, &mut out);
        // One batch per ingress in first-appearance order (ring 1, then
        // ring 0, but `pop_round` starts at ring 0), arrival order within.
        let shape: Vec<(u16, Vec<u32>)> = out
            .iter()
            .map(|b| (b.ingress.0, b.records.iter().map(|r| r.packets).collect()))
            .collect();
        assert_eq!(shape, [(2, vec![2, 3]), (1, vec![0, 1, 4])]);
        assert!(out
            .iter()
            .all(|b| b.records.input_ifs().iter().all(|&i| i == b.ingress.0)));
        let snap = intake.metrics().snapshot();
        assert_eq!((snap.datagrams, snap.flows), (1, 5));
    }

    #[test]
    fn alternating_ingresses_cost_two_batches_not_thirty() {
        let intake = intake(2, 8);
        let records: Vec<FlowRecord> = (0..30).map(|i| record(1 + i % 2)).collect();
        intake.push_payload(&Datagram::new(0, 0, &records).encode());
        let mut out = Vec::new();
        intake.pop_round(64, &mut out);
        let shape: Vec<(u16, usize)> = out.iter().map(|b| (b.ingress.0, b.records.len())).collect();
        assert_eq!(shape, [(2, 15), (1, 15)]);
        assert_eq!(intake.metrics().snapshot().shed_flows, 0);
    }

    #[test]
    fn a_one_ingress_datagram_is_handed_over_and_the_scratch_stays_usable() {
        let intake = intake(1, 8);
        let first: Vec<FlowRecord> = (0..3).map(|_| record(7)).collect();
        let second = [record(9)];
        let mut scratch = FlowBatch::new();
        intake.push_payload_stamped(&Datagram::new(0, 0, &first).encode(), &mut scratch, 1, 2);
        assert!(scratch.is_empty(), "the decoded rows left with the batch");
        intake.push_payload_stamped(&Datagram::new(3, 0, &second).encode(), &mut scratch, 3, 4);
        assert!(scratch.is_empty());
        // A malformed payload and an empty datagram enqueue nothing.
        intake.push_payload_stamped(&[0u8; 10], &mut scratch, 5, 6);
        intake.push_payload_stamped(&Datagram::new(4, 0, &[]).encode(), &mut scratch, 7, 8);
        let mut out = Vec::new();
        intake.pop_round(16, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ingress, PeerId(7));
        assert_eq!(out[0].records.iter().collect::<Vec<_>>(), first);
        assert_eq!(out[1].ingress, PeerId(9));
        assert_eq!(out[1].records.iter().collect::<Vec<_>>(), second);
        let stamps = out[0].trace;
        assert_eq!((stamps.recv_start_ns, stamps.recv_end_ns), (1, 2));
        assert_eq!(stamps.enqueued_ns, stamps.decoded_ns, "one clock read");
        assert_ne!(stamps.enqueued_ns, 0);
    }

    #[test]
    fn a_recycled_batch_comes_back_empty_as_the_next_scratch() {
        let intake = intake(1, 8);
        let mut spent: FlowBatch = (0..4).map(|_| record(1)).collect();
        spent.extend_from_records(&[record(2)]);
        intake.recycle(spent);
        let mut scratch = FlowBatch::new();
        intake.push_payload_stamped(
            &Datagram::new(0, 0, &[record(1)]).encode(),
            &mut scratch,
            0,
            0,
        );
        assert!(scratch.is_empty(), "recycling clears");
    }

    #[test]
    fn only_the_first_batch_of_a_split_datagram_carries_the_trace_id() {
        let metrics = Arc::new(IngestMetrics::default());
        // Sample every datagram.
        let tracer = Arc::new(Tracer::new(1, 8));
        let intake = Intake::with_observers(4, 8, metrics, tracer, Arc::new(Journal::new(0)));
        let records = [record(1), record(2), record(1), record(3)];
        let mut scratch = FlowBatch::new();
        intake.push_payload_stamped(
            &Datagram::new(0, 0, &records).encode(),
            &mut scratch,
            10,
            20,
        );
        let mut out = Vec::new();
        intake.pop_round(16, &mut out);
        out.sort_by_key(|b| b.ingress.0);
        let ids: Vec<u64> = out.iter().map(|b| b.trace.trace_id).collect();
        assert_ne!(ids[0], 0, "the first ingress seen carries the trace");
        assert_eq!(ids[1..], [0, 0]);
        assert_eq!(out[0].trace.recv_end_ns, 20);
        assert_eq!(out[1].trace.recv_end_ns, 0);
        // Every batch has the enqueue stamp: queue wait is measured for all.
        assert!(out
            .iter()
            .all(|b| b.trace.enqueued_ns == out[0].trace.enqueued_ns));
        assert_ne!(out[0].trace.enqueued_ns, 0);
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
        assert_eq!(intake.spares.len(), 1, "the shed batch went back");
    }
}
