//! Proves a datagram costs no heap traffic once the collector is warm:
//! a counting global allocator wraps the system allocator, and whole
//! `push_payload_stamped` → `step()` rounds — decode, hand-over, ring,
//! engine, recycle — on the wiring `infilterd` deploys must perform zero
//! allocations, whatever the datagram size, whether or not its records
//! share an ingress, and whether the rings keep up or shed.
//! `crates/core/tests/zero_alloc.rs` proves the same of the engine alone.
//!
//! This file intentionally holds a single `#[test]` — a second test running
//! concurrently in the same binary would allocate under the shared counter
//! and make the assertion flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use infilter_core::{ConcurrentAnalyzer, PeerId};
use infilter_ingest::bootstrap::{bootstrap_engine, BootstrapConfig};
use infilter_ingest::{DaemonConfig, IngestMetrics, IngestPump, Intake};
use infilter_netflow::{Datagram, FlowBatch, FlowRecord, MAX_RECORDS_PER_DATAGRAM};
use infilter_telemetry::trace::now_ns;
use infilter_telemetry::Tracer;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The daemon's wiring at its default sizes: four rings of 512, a budget
/// of 64 batches per step, 1 datagram in 1024 traced, the engine's journal
/// shared with the intake.
struct Collector {
    intake: Arc<Intake>,
    pump: IngestPump<ConcurrentAnalyzer>,
    scratch: FlowBatch,
}

fn collector() -> Collector {
    let cfg = DaemonConfig::builder()
        .peer(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"))
        .peer(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"))
        .build()
        .expect("valid config");
    let engine = bootstrap_engine(&cfg, &BootstrapConfig::default()).expect("bootstrap");
    let intake = Arc::new(Intake::with_observers(
        cfg.rings,
        cfg.ring_capacity,
        Arc::new(IngestMetrics::default()),
        Arc::new(Tracer::new(cfg.trace_sample_every, cfg.trace_capacity)),
        Arc::clone(engine.telemetry().journal()),
    ));
    let pump = IngestPump::new(
        engine,
        Arc::clone(&intake),
        cfg.ladder,
        cfg.batch_budget,
        cfg.alert_spool,
    );
    Collector {
        intake,
        pump,
        scratch: FlowBatch::with_capacity(MAX_RECORDS_PER_DATAGRAM),
    }
}

impl Collector {
    /// Hands `payload` over `times` times in a row, as a listener would.
    fn burst(&mut self, payload: &[u8], times: usize) {
        for _ in 0..times {
            let recv_start = now_ns();
            self.intake
                .push_payload_stamped(payload, &mut self.scratch, recv_start, now_ns());
        }
    }

    /// Shows the engine 1 920 legal flows from each peer. Its telemetry
    /// samples 1 legal flow in 1 024 and builds a peer's sketch row the
    /// first time the sample falls on that peer: one allocation per peer
    /// ever, inside the engine, and where it lands in an interleaved stream
    /// is an accident of the stride — so it is run in before counting.
    fn meet_peers(&mut self) {
        for peer in [1, 2] {
            self.burst(&payload(30, |_| peer), 64);
            self.drain();
        }
    }

    /// Steps until a step finds the rings empty.
    fn drain(&mut self) {
        while self.pump.step() > 0 {}
    }

    /// Every accepted flow was processed at some rung or shed.
    fn assert_balanced(&self) {
        let snap = self.intake.metrics().snapshot();
        assert_eq!(
            snap.flows,
            snap.flows_by_effort.iter().sum::<u64>() + snap.shed_flows,
            "accepted = processed + shed: {snap:?}"
        );
    }
}

/// A datagram of `records` legal flows, record `i` arriving through
/// `ingress(i)` from inside that peer's expected prefix.
fn payload(records: usize, ingress: impl Fn(usize) -> u16) -> Vec<u8> {
    let records: Vec<FlowRecord> = (0..records)
        .map(|i| {
            let input_if = ingress(i);
            let base = if input_if == 1 {
                0x0300_0100u32
            } else {
                0x0320_0100
            };
            FlowRecord {
                src_addr: (base + i as u32).into(),
                dst_addr: "96.1.0.20".parse().expect("static addr"),
                dst_port: 80,
                protocol: 6,
                input_if,
                packets: 12,
                octets: 6000,
                last_ms: 900,
                ..FlowRecord::default()
            }
        })
        .collect();
    Datagram::new(0, 0, &records).encode().to_vec()
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn datagram_rounds_allocate_nothing_after_warmup() {
    const ROUNDS: usize = 1_000;
    const PER_ROUND: usize = 64;
    let one = |_| 1;
    let alternating = |i: usize| 1 + (i % 2) as u16;
    let cases: [(&str, Vec<u8>, u64); 4] = [
        ("1 record", payload(1, one), 1),
        ("2 records", payload(2, one), 2),
        ("30 records", payload(30, one), 30),
        (
            "30 records, two ingresses alternating",
            payload(30, alternating),
            30,
        ),
    ];
    for (what, payload, flows) in &cases {
        let mut c = collector();
        c.meet_peers();
        let met = c.intake.metrics().snapshot().flows;
        c.burst(payload, PER_ROUND);
        c.drain();
        let before = allocations();
        for _ in 0..ROUNDS {
            c.burst(payload, PER_ROUND);
            c.drain();
        }
        let allocated = allocations() - before;
        assert_eq!(
            allocated,
            0,
            "{what}: {allocated} allocations over {} datagrams",
            ROUNDS * PER_ROUND
        );
        let snap = c.intake.metrics().snapshot();
        assert_eq!(
            snap.flows - met,
            ((ROUNDS + 1) * PER_ROUND) as u64 * flows,
            "{what}"
        );
        assert_eq!(snap.shed_flows, 0, "{what}");
        c.assert_balanced();
    }

    // The counter works: a datagram into a cold collector does allocate
    // (the return ring is empty, so the hand-over makes the next scratch).
    let mut c = collector();
    let before = allocations();
    c.burst(&cases[2].1, 1);
    assert!(
        allocations() > before,
        "counter failed to observe an allocation"
    );
    c.meet_peers();

    // --- Past capacity: 600 datagrams for one ingress and no step in
    // between fill its 512-slot ring and shed the other 88. The first
    // burst brings the population of batches to its high-water mark; a
    // second one of the same size — shed batches going straight back to
    // the listener, drained ones coming back through the return ring —
    // allocates nothing, because that population is bounded by what was
    // ever in flight at once, not by how much has passed.
    let (burst, ring_capacity) = (600, 512);
    let full = &cases[2].1;
    let shed_before = c.intake.metrics().snapshot().shed_flows;
    c.burst(full, burst);
    c.drain();
    let before = allocations();
    c.burst(full, burst);
    assert_eq!(allocations() - before, 0, "a shedding burst allocated");
    c.drain();
    assert_eq!(allocations() - before, 0, "draining a full ring allocated");
    let snap = c.intake.metrics().snapshot();
    assert_eq!(
        snap.shed_flows - shed_before,
        2 * (burst - ring_capacity) as u64 * 30,
        "every datagram past the ring's capacity is shed whole, and counted"
    );
    c.assert_balanced();
}
