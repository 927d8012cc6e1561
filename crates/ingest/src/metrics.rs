//! Collector-side counters: what arrived on the wire, what was shed, and
//! which degradation rung processed what.
//!
//! These complement the engine's [`infilter_core::AnalyzerMetrics`] (which
//! counts *analysis* outcomes) with the ingest story: datagrams received,
//! decode rejections by reason, batches shed at full rings, and the
//! effort-ladder history. All counters are relaxed atomics bumped from the
//! listener threads and the worker; the exposition renders a consistent-
//! enough snapshot (Prometheus scrapes tolerate torn reads across
//! families).

use std::sync::atomic::{AtomicU64, Ordering};

use infilter_core::Effort;
use infilter_netflow::DecodeError;
use infilter_telemetry::{trace, AtomicHistogram, Exemplar, PromText, Tracer};

/// `le` bounds for the ring queue-wait histogram, nanoseconds. Queue wait
/// spans "instant" (worker was idle) through multi-millisecond backlog, so
/// the bounds reach wider than the engine's per-flow latency bounds.
const QUEUE_WAIT_BOUNDS_NS: &[u64] = &[
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
    1_000_000_000,
];

/// Shared collector counters (one instance per daemon, `Arc`ed across the
/// listener threads and the worker).
#[derive(Debug, Default)]
pub struct IngestMetrics {
    /// Well-formed datagrams accepted off the socket.
    pub datagrams: AtomicU64,
    /// Flow records carried in accepted datagrams.
    pub flows: AtomicU64,
    /// Datagrams rejected: shorter than their claimed structure.
    pub decode_truncated: AtomicU64,
    /// Datagrams rejected: version field was not 5.
    pub decode_wrong_version: AtomicU64,
    /// Datagrams rejected: record count exceeded the v5 limit.
    pub decode_bad_count: AtomicU64,
    /// Batches dropped because their intake ring was full.
    pub shed_batches: AtomicU64,
    /// Flow records inside those dropped batches.
    pub shed_flows: AtomicU64,
    /// Flows processed at each rung, indexed by [`Effort`] order.
    pub flows_by_effort: [AtomicU64; 3],
    /// Ladder transitions *into* each rung, indexed by [`Effort`] order.
    pub transitions_to: [AtomicU64; 3],
    /// IDMEF alerts dropped from a full spool (oldest first).
    pub alerts_dropped: AtomicU64,
    /// Ring wait per batch: enqueue stamp to the worker's dequeue stamp.
    pub queue_wait_ns: AtomicHistogram,
    /// Trace id of the worst queue wait seen, linking the histogram tail
    /// to a concrete `/trace` entry.
    pub queue_wait_exemplar: Exemplar,
}

impl IngestMetrics {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// One rung-indexed counter array as `(rung label, count)` samples.
    fn by_effort(counts: &[AtomicU64; 3]) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let labelled = |e: &Effort| (e.as_label(), counts[*e as usize].load(Ordering::Relaxed));
        Effort::ALL.iter().map(labelled)
    }

    /// Counts one accepted datagram carrying `flows` records.
    pub fn record_datagram(&self, flows: u64) {
        Self::bump(&self.datagrams, 1);
        Self::bump(&self.flows, flows);
    }

    /// Counts one rejected datagram by decode failure reason.
    pub fn record_decode_error(&self, e: &DecodeError) {
        let counter = match e {
            DecodeError::Truncated { .. } => &self.decode_truncated,
            DecodeError::WrongVersion(_) => &self.decode_wrong_version,
            DecodeError::BadCount(_) => &self.decode_bad_count,
        };
        Self::bump(counter, 1);
    }

    /// Counts one batch of `flows` records shed at a full ring.
    pub fn record_shed(&self, flows: u64) {
        Self::bump(&self.shed_batches, 1);
        Self::bump(&self.shed_flows, flows);
    }

    /// Counts `flows` records processed at `effort`.
    pub fn record_processed(&self, effort: Effort, flows: u64) {
        Self::bump(&self.flows_by_effort[effort as usize], flows);
    }

    /// Counts one ladder transition into `to`.
    pub fn record_transition(&self, to: Effort) {
        Self::bump(&self.transitions_to[to as usize], 1);
    }

    /// Counts `n` alerts dropped from a full spool.
    pub fn record_alerts_dropped(&self, n: u64) {
        Self::bump(&self.alerts_dropped, n);
    }

    /// Records one batch's ring wait, offering it as an exemplar when the
    /// batch carried a sampled trace (`trace_id` 0 = untraced, ignored).
    pub fn record_queue_wait(&self, wait_ns: u64, trace_id: u64) {
        self.queue_wait_ns.record(wait_ns);
        self.queue_wait_exemplar.offer(wait_ns, trace_id);
    }

    /// Total ladder transitions recorded so far (any rung).
    pub fn transitions_total(&self) -> u64 {
        self.transitions_to
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// A plain-value copy for reports.
    pub fn snapshot(&self) -> IngestSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IngestSnapshot {
            datagrams: load(&self.datagrams),
            flows: load(&self.flows),
            decode_errors: load(&self.decode_truncated)
                + load(&self.decode_wrong_version)
                + load(&self.decode_bad_count),
            shed_batches: load(&self.shed_batches),
            shed_flows: load(&self.shed_flows),
            flows_by_effort: [
                load(&self.flows_by_effort[0]),
                load(&self.flows_by_effort[1]),
                load(&self.flows_by_effort[2]),
            ],
            transitions: self.transitions_total(),
            alerts_dropped: load(&self.alerts_dropped),
        }
    }

    /// Renders the `infilterd_*` families (appended to the engine page by
    /// the daemon). Like the engine's renderer, this is where those
    /// families are declared: each is emitted on every page, and the README
    /// reference block is generated from the result. `depths` is
    /// `(occupied, capacity)` per intake ring; `effort` the rung currently
    /// in force; `spooled` the alerts waiting in the `/v1/alerts` spool;
    /// `tracer` supplies the sampling counters (pass [`Tracer::disabled`]
    /// when there is no tracer).
    pub fn render(
        &self,
        depths: &[(usize, usize)],
        effort: Effort,
        spooled: usize,
        tracer: &Tracer,
    ) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut page = PromText::new();
        page.counter(
            "infilterd_datagrams_total",
            "NetFlow v5 datagrams accepted off the socket",
            load(&self.datagrams),
        );
        page.counter(
            "infilterd_flows_total",
            "Flow records carried in accepted datagrams",
            load(&self.flows),
        );
        page.counter_family(
            "infilterd_decode_errors_total",
            "Datagrams rejected by the wire decoder, by reason",
            "reason",
            [
                ("truncated", load(&self.decode_truncated)),
                ("wrong_version", load(&self.decode_wrong_version)),
                ("bad_count", load(&self.decode_bad_count)),
            ],
        );
        page.counter(
            "infilterd_shed_batches_total",
            "Batches dropped at a full intake ring",
            load(&self.shed_batches),
        );
        page.counter(
            "infilterd_shed_flows_total",
            "Flow records inside dropped batches",
            load(&self.shed_flows),
        );
        page.gauge_family(
            "infilterd_queue_depth",
            "Batches waiting in each intake ring",
            "ring",
            depths
                .iter()
                .map(|&(occupied, _)| occupied as u64)
                .enumerate(),
        );
        page.gauge_family(
            "infilterd_queue_capacity",
            "Bounded capacity of each intake ring",
            "ring",
            depths.iter().map(|&(_, cap)| cap as u64).enumerate(),
        );
        page.histogram(
            "infilterd_queue_wait_ns",
            "Per-batch ring wait from enqueue to worker dequeue",
            &self.queue_wait_ns.snapshot(),
            QUEUE_WAIT_BOUNDS_NS,
        );
        page.exemplar("infilterd_queue_wait_ns", self.queue_wait_exemplar.get());
        page.counter(
            "infilterd_traces_sampled_total",
            "Flow traces captured by head sampling",
            tracer.sampled(),
        );
        page.counter(
            "infilterd_traces_forced_total",
            "Flow traces forced by sheds, alerts, or ladder transitions",
            tracer.forced(),
        );
        page.gauge(
            "infilterd_effort",
            "Degradation rung in force (0=full, 1=skip_nns, 2=bi_only)",
            effort as usize as f64,
        );
        page.counter_family(
            "infilterd_effort_transitions_total",
            "Ladder transitions into each rung",
            "to",
            Self::by_effort(&self.transitions_to),
        );
        page.counter_family(
            "infilterd_flows_by_effort_total",
            "Flow records processed at each rung",
            "effort",
            Self::by_effort(&self.flows_by_effort),
        );
        page.gauge(
            "infilterd_alerts_spooled",
            "IDMEF alerts waiting in the /v1/alerts spool",
            spooled as f64,
        );
        page.counter(
            "infilterd_alerts_dropped_total",
            "IDMEF alerts dropped from a full spool",
            load(&self.alerts_dropped),
        );
        page.gauge(
            "infilter_uptime_seconds",
            "Seconds since the tracing epoch (process start)",
            trace::now_ns() as f64 / 1e9,
        );
        page.gauge_family(
            "infilter_build_info",
            "Build metadata carried as labels; value is always 1",
            "version",
            [(env!("CARGO_PKG_VERSION"), 1)],
        );
        page.render()
    }
}

/// Plain-value copy of [`IngestMetrics`] for the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Datagrams accepted.
    pub datagrams: u64,
    /// Flow records received.
    pub flows: u64,
    /// Datagrams rejected by the decoder (all reasons).
    pub decode_errors: u64,
    /// Batches shed at full rings.
    pub shed_batches: u64,
    /// Flow records inside shed batches.
    pub shed_flows: u64,
    /// Flows processed per rung ([full, skip_nns, bi_only]).
    pub flows_by_effort: [u64; 3],
    /// Ladder transitions.
    pub transitions: u64,
    /// Alerts dropped from the spool.
    pub alerts_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_carries_what_was_recorded() {
        let m = IngestMetrics::default();
        m.record_datagram(30);
        m.record_decode_error(&DecodeError::WrongVersion(9));
        m.record_shed(30);
        m.record_processed(Effort::SkipNns, 30);
        m.record_transition(Effort::SkipNns);
        m.record_queue_wait(40_000, 9);
        let page = m.render(
            &[(3, 512), (0, 512)],
            Effort::SkipNns,
            7,
            &Tracer::disabled(),
        );
        assert!(page.contains("infilterd_decode_errors_total{reason=\"wrong_version\"} 1"));
        assert!(page.contains("infilterd_queue_depth{ring=\"0\"} 3"));
        assert!(page.contains("infilterd_effort 1"));
        assert!(page.contains("infilterd_queue_wait_ns_count 1"));
        assert!(page.contains("# EXEMPLAR infilterd_queue_wait_ns value=40000 trace_id=9"));
        assert!(page.contains("infilter_build_info{version=\""));
        let snap = m.snapshot();
        assert_eq!(snap.flows, 30);
        assert_eq!(snap.shed_flows, 30);
        assert_eq!(snap.flows_by_effort[1], 30);
        assert_eq!(snap.transitions, 1);
    }
}
