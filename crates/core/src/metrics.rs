use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Latency accumulator for one pipeline stage or configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Flows measured.
    pub count: u64,
    /// Total processing time, nanoseconds.
    pub total_nanos: u64,
    /// Worst single-flow time, nanoseconds.
    pub max_nanos: u64,
}

impl StageLatency {
    /// Mean latency, or zero with no samples.
    pub fn mean(&self) -> Duration {
        match self.total_nanos.checked_div(self.count) {
            Some(mean) => Duration::from_nanos(mean),
            None => Duration::ZERO,
        }
    }

    /// Worst observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }
}

/// Counters the experiments read off an engine: how many flows
/// took each path through Figure 12, plus per-path latencies (§6.4 reports
/// ≈0.5 ms for BI and 2–6 ms for EI on 2005 hardware).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerMetrics {
    /// Flows processed in total.
    pub flows: u64,
    /// Flows whose EIA check matched (case b: legal, no further analysis).
    pub eia_match: u64,
    /// Flows the EIA check flagged as suspect (case a).
    pub eia_suspect: u64,
    /// Suspects flagged by Scan Analysis.
    pub scan_attacks: u64,
    /// Suspects flagged by NNS analysis.
    pub nns_attacks: u64,
    /// Suspects flagged directly (Basic InFilter configuration).
    pub eia_attacks: u64,
    /// Suspects cleared by the enhanced analysis.
    pub forgiven: u64,
    /// Sources dynamically adopted into EIA sets.
    pub adoptions: u64,
    /// Latency over flows that took the fast path (EIA match only).
    pub fast_path: StageLatency,
    /// Latency over flows that went through the full suspect analysis.
    pub suspect_path: StageLatency,
}

impl AnalyzerMetrics {
    /// Total flows flagged as attacks by any stage.
    pub fn attacks(&self) -> u64 {
        self.scan_attacks + self.nns_attacks + self.eia_attacks
    }

    /// Fraction of processed flows flagged as attacks.
    pub fn attack_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.attacks() as f64 / self.flows as f64
        }
    }

    /// The eight path counters as `(name, value)` pairs — the shape the
    /// telemetry delta-rate reporter and exposition renderer consume.
    pub fn named_counters(&self) -> [(&'static str, u64); 8] {
        [
            ("flows", self.flows),
            ("eia_match", self.eia_match),
            ("eia_suspect", self.eia_suspect),
            ("scan_attacks", self.scan_attacks),
            ("nns_attacks", self.nns_attacks),
            ("eia_attacks", self.eia_attacks),
            ("forgiven", self.forgiven),
            ("adoptions", self.adoptions),
        ]
    }
}

/// Lock-free latency accumulator; [`StageLatency`] is its point-in-time
/// copy. All updates are relaxed — the counters are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct AtomicStageLatency {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl AtomicStageLatency {
    /// Records one measurement. The running total saturates at `u64::MAX`
    /// (~584 years of accumulated nanoseconds) instead of wrapping, so a
    /// long-lived engine can never report a tiny mean after overflow; the
    /// clamp uses a CAS loop only because `fetch_add` cannot saturate, and
    /// latency recording is sampled anyway.
    pub fn record(&self, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .total_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |total| {
                Some(total.saturating_add(nanos))
            });
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy. Under concurrent updates the three fields are
    /// read independently, so they may be off by in-flight records relative
    /// to each other — fine for monitoring, which is all this is for.
    pub fn snapshot(&self) -> StageLatency {
        StageLatency {
            count: self.count.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Lock-free counters for [`crate::ConcurrentAnalyzer`]: the same fields as
/// [`AnalyzerMetrics`], each an [`AtomicU64`] updated with relaxed ordering
/// so the per-flow hot loop never takes a lock or issues a fence.
///
/// Latency is *sampled* (1-in-N flows, see
/// [`crate::ConcurrentConfig::latency_sample_every`]) so `Instant::now()`
/// — two `rdtsc`-class reads per flow — stays off the fast path.
#[derive(Debug, Default)]
pub struct ConcurrentMetrics {
    /// Flows processed in total.
    pub flows: AtomicU64,
    /// Flows whose EIA check matched.
    pub eia_match: AtomicU64,
    /// Flows the EIA check flagged as suspect.
    pub eia_suspect: AtomicU64,
    /// Suspects flagged by Scan Analysis.
    pub scan_attacks: AtomicU64,
    /// Suspects flagged by NNS analysis.
    pub nns_attacks: AtomicU64,
    /// Suspects flagged directly (Basic InFilter configuration).
    pub eia_attacks: AtomicU64,
    /// Suspects cleared by the enhanced analysis.
    pub forgiven: AtomicU64,
    /// Sources dynamically adopted into EIA sets.
    pub adoptions: AtomicU64,
    /// Sampled latency over fast-path flows.
    pub fast_path: AtomicStageLatency,
    /// Sampled latency over suspect-path flows.
    pub suspect_path: AtomicStageLatency,
}

impl ConcurrentMetrics {
    /// A point-in-time [`AnalyzerMetrics`] copy. Counters are read
    /// independently; under concurrent load, derived identities (e.g.
    /// `flows == eia_match + eia_suspect`) may be transiently off by
    /// in-flight flows but are exact once processing quiesces. A batch's
    /// flows are counted when it starts, its matches and everything its
    /// suspects count for together when it ends: mid-batch the identities
    /// are off by up to the batch.
    pub fn snapshot(&self) -> AnalyzerMetrics {
        AnalyzerMetrics {
            flows: self.flows.load(Ordering::Relaxed),
            eia_match: self.eia_match.load(Ordering::Relaxed),
            eia_suspect: self.eia_suspect.load(Ordering::Relaxed),
            scan_attacks: self.scan_attacks.load(Ordering::Relaxed),
            nns_attacks: self.nns_attacks.load(Ordering::Relaxed),
            eia_attacks: self.eia_attacks.load(Ordering::Relaxed),
            forgiven: self.forgiven.load(Ordering::Relaxed),
            adoptions: self.adoptions.load(Ordering::Relaxed),
            fast_path: self.fast_path.snapshot(),
            suspect_path: self.suspect_path.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_accumulates() {
        let l = AtomicStageLatency::default();
        assert_eq!(l.snapshot().mean(), Duration::ZERO);
        l.record(Duration::from_micros(10));
        l.record(Duration::from_micros(30));
        let snap = l.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.mean(), Duration::from_micros(20));
        assert_eq!(snap.max(), Duration::from_micros(30));
    }

    #[test]
    fn concurrent_metrics_snapshot_round_trips() {
        let m = ConcurrentMetrics::default();
        m.flows.fetch_add(14, Ordering::Relaxed);
        m.eia_match.fetch_add(11, Ordering::Relaxed);
        m.eia_suspect.fetch_add(3, Ordering::Relaxed);
        m.nns_attacks.fetch_add(2, Ordering::Relaxed);
        m.forgiven.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.flows, 14);
        assert_eq!(s.eia_match, 11);
        assert_eq!(s.attacks(), 2);
        assert_eq!(s.eia_suspect, s.attacks() + s.forgiven);
    }

    #[test]
    fn total_nanos_saturates_instead_of_wrapping() {
        let a = AtomicStageLatency::default();
        a.record(Duration::from_nanos(u64::MAX));
        a.record(Duration::from_secs(1));
        let snap = a.snapshot();
        assert_eq!(snap.total_nanos, u64::MAX, "must clamp, not wrap");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_nanos, u64::MAX);
    }

    #[test]
    fn named_counters_cover_every_path() {
        let m = AnalyzerMetrics {
            flows: 10,
            eia_match: 7,
            eia_suspect: 3,
            forgiven: 2,
            nns_attacks: 1,
            ..AnalyzerMetrics::default()
        };
        let named = m.named_counters();
        let get = |name: &str| {
            named
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("counter present")
        };
        assert_eq!(get("flows"), 10);
        assert_eq!(get("eia_match") + get("eia_suspect"), 10);
        assert_eq!(get("forgiven") + get("nns_attacks"), get("eia_suspect"));
    }

    #[test]
    fn attack_totals() {
        let m = AnalyzerMetrics {
            flows: 100,
            scan_attacks: 3,
            nns_attacks: 5,
            eia_attacks: 2,
            ..AnalyzerMetrics::default()
        };
        assert_eq!(m.attacks(), 10);
        assert!((m.attack_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(AnalyzerMetrics::default().attack_fraction(), 0.0);
    }
}
