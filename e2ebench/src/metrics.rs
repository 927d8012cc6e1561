//! Every metric the benchmark reports, declared once: `BENCHMARK.json`, the
//! result line, the README tables and the smoke test all follow these two
//! tables.

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative =
    /// better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// A metric a user of the collector would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The seven end-to-end metrics, all measured with span recording off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "capacity_flows_per_s",
        unit: "flows/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "path_ns_per_flow",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "full_effort_share",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "detection_rate",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "true_negative_rate",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload —
    /// written down before measuring.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const CODEC: &str = "path_ns_per_flow, capacity_flows_per_s on legal_cruise, small_datagrams";
const RING: &str = "path_ns_per_flow, capacity_flows_per_s on small_datagrams";
const LADDER: &str = "full_effort_share on adoption_churn, spoof_flood";
const SUSPECT: &str = "path_ns_per_flow, capacity_flows_per_s on spoof_flood; none on legal_cruise";
const VALIDITY: &str = "none: says whether to believe the rest";

/// The per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: [PerLayer; 46] = [
    layer("netflow.decode_ns_per_flow", "ns", Lower, CODEC),
    layer("netflow.decode_errors", "count", Lower, "none: must equal the malformed datagrams generated"),
    layer("intake.push_ns_per_batch", "ns", Lower, RING),
    layer("intake.pop_ns_per_batch", "ns", Lower, RING),
    layer("intake.batches_per_datagram", "ratio", Lower, RING),
    layer("intake.occupancy_peak", "fraction", Lower, LADDER),
    layer("intake.shed_flows", "count", Lower, LADDER),
    layer("intake.degraded_flows", "count", Lower, LADDER),
    layer("pump.step_ns_per_flow", "ns", Lower, "path_ns_per_flow on small_datagrams"),
    layer("pump.overhead_ns_per_flow", "ns", Lower, "path_ns_per_flow on small_datagrams"),
    layer("pump.flows_per_step", "count", Higher, "path_ns_per_flow on small_datagrams"),
    layer("pump.idle_share", "fraction", Higher, "names phase C's bottleneck: high = worker starved, producer-bound"),
    layer("pump.verdict_latency_p50_us", "us", Lower, "none, by decision: the unloaded wire-to-verdict time (phase D), which no bound the contract allows holds in the sandbox"),
    layer("loadgen.blocked_share", "fraction", Lower, "names phase C's bottleneck: high = producer held back, worker-bound"),
    layer("loadgen.late_p99_us", "us", Lower, "validity of pump.verdict_latency_p50_us: a late generator voids the run"),
    layer("loadgen.offered_dgrams_per_s", "1/s", Higher, "validity of pump.verdict_latency_p50_us: must equal the schedule"),
    layer("engine.full_ns_per_flow", "ns", Lower, SUSPECT),
    layer("engine.skip_nns_ns_per_flow", "ns", Lower, SUSPECT),
    layer("engine.bi_only_ns_per_flow", "ns", Lower, SUSPECT),
    layer("engine.scan_ns_per_suspect", "ns", Lower, SUSPECT),
    layer("engine.nns_ns_per_suspect", "ns", Lower, SUSPECT),
    layer("engine.suspect_share", "fraction", Lower, "none: the mix, fixed by the workload"),
    layer("engine.attack_share", "fraction", Lower, "detection_rate on spoof_flood"),
    layer("engine.forgiven_share", "fraction", Lower, "true_negative_rate on adoption_churn"),
    layer("engine.adoptions", "count", Lower, "path_ns_per_flow, capacity_flows_per_s on adoption_churn"),
    layer("eia.classify_ns_per_flow", "ns", Lower, "path_ns_per_flow, capacity_flows_per_s on legal_cruise"),
    layer("eia.preload_ms", "ms", Lower, "setup_s on legal_cruise"),
    layer("eia.prefixes", "count", Lower, "none: the table, fixed by the workload"),
    layer("eia.snapshot_bytes", "B", Lower, "rss_peak_mb on legal_cruise, adoption_churn"),
    layer("eia.republishes", "count", Lower, "path_ns_per_flow, capacity_flows_per_s on adoption_churn"),
    layer("lpm.compile_ms", "ms", Lower, "path_ns_per_flow, capacity_flows_per_s on adoption_churn; setup_s on legal_cruise, adoption_churn"),
    layer("lpm.bytes_per_prefix", "B", Lower, "rss_peak_mb on legal_cruise, adoption_churn"),
    layer("nns.train_ms", "ms", Lower, "setup_s on every workload"),
    layer("alert.drain_ns_per_alert", "ns", Lower, "path_ns_per_flow on spoof_flood"),
    layer("alert.count", "count", Lower, "none: follows detection_rate"),
    layer("store.append_us_per_record", "us", Lower, "path_ns_per_flow on adoption_churn"),
    layer("store.replay_ms", "ms", Lower, "setup_s on adoption_churn"),
    layer("store.appended_records", "count", Lower, "none: must equal engine.adoptions"),
    layer("store.write_errors", "count", Lower, "none: must be 0"),
    layer("telemetry.overhead_ns_per_flow", "ns", Lower, "path_ns_per_flow on spoof_flood"),
    layer("telemetry.exposition_ms", "ms", Lower, "none on the data path: the cost of one /metrics scrape"),
    layer("harness.overhead_ns_per_flow", "ns", Lower, VALIDITY),
    layer("trace.overhead_share", "fraction", Lower, VALIDITY),
    layer("ledger.closure_gap_share", "fraction", Lower, VALIDITY),
    layer("sched.producer_wait_share", "fraction", Lower, VALIDITY),
    layer("sched.worker_wait_share", "fraction", Lower, VALIDITY),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn setup_has_the_largest_bound_and_no_bound_passes_the_contract_cap() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
