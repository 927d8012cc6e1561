//! Output checks that fail the run, not just print.
//!
//! Every phase ends by reconciling what the harness handed over with what
//! the collector's own public counters say happened to it. A failed check
//! makes the run report `correct: false` and exit non-zero.

use infilter_core::AnalyzerMetrics;
use infilter_ingest::IngestSnapshot;

/// Collects failures; a run is correct iff none were recorded.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u32,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `what` as a failure unless `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// `left == right`, named.
    pub fn equal(&mut self, phase: &str, what: &str, left: u64, right: u64) {
        self.ensure(left == right, || {
            format!("{phase}: {what}: {left} != {right}")
        });
    }
}

/// What the harness knows it did in one phase, independent of the
/// collector's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offered {
    /// Well-formed flows handed over, the boot's priming flow included.
    pub flows: u64,
    /// Malformed datagrams handed over (from the generator's own record).
    pub malformed: u64,
}

/// Engine identities: every flow took exactly one path through Figure 12.
pub fn engine_identities(
    checks: &mut Checks,
    phase: &str,
    offered_flows: u64,
    m: &AnalyzerMetrics,
) {
    checks.equal(
        phase,
        "engine flows = flows offered",
        m.flows,
        offered_flows,
    );
    checks.equal(
        phase,
        "engine flows = EIA matches + suspects",
        m.flows,
        m.eia_match + m.eia_suspect,
    );
    checks.equal(
        phase,
        "suspects = attacks + forgiven",
        m.eia_suspect,
        m.attacks() + m.forgiven,
    );
}

/// Pump-phase identities (B1, C, D): every flow that entered is accounted
/// to exactly one fate.
pub fn pump_identities(
    checks: &mut Checks,
    phase: &str,
    offered: Offered,
    ingest: &IngestSnapshot,
    engine: &AnalyzerMetrics,
    store: Option<(u64, u64)>,
) {
    let processed: u64 = ingest.flows_by_effort.iter().sum();
    checks.equal(
        phase,
        "flows accepted by the decoder = flows offered",
        ingest.flows,
        offered.flows,
    );
    checks.equal(
        phase,
        "flows offered = processed across rungs + shed",
        offered.flows,
        processed + ingest.shed_flows,
    );
    checks.equal(
        phase,
        "netflow.decode_errors = malformed datagrams generated",
        ingest.decode_errors,
        offered.malformed,
    );
    engine_identities(checks, phase, processed, engine);
    if let Some((appended, write_errors)) = store {
        checks.equal(phase, "store.write_errors = 0", write_errors, 0);
        checks.equal(
            phase,
            "store.appended_records = engine adoptions",
            appended,
            engine.adoptions,
        );
    }
}

/// Phase C's claim: the rate it reports is a zero-loss, full-effort rate.
pub fn zero_loss(checks: &mut Checks, ingest: &IngestSnapshot) {
    checks.equal("C", "shed flows = 0", ingest.shed_flows, 0);
    checks.equal(
        "C",
        "flows below full effort = 0",
        ingest.flows_by_effort[1] + ingest.flows_by_effort[2],
        0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (Offered, IngestSnapshot, AnalyzerMetrics) {
        let offered = Offered {
            flows: 1000,
            malformed: 3,
        };
        let ingest = IngestSnapshot {
            datagrams: 40,
            flows: 1000,
            decode_errors: 3,
            shed_batches: 1,
            shed_flows: 30,
            flows_by_effort: [900, 50, 20],
            transitions: 2,
            alerts_dropped: 0,
        };
        let engine = AnalyzerMetrics {
            flows: 970,
            eia_match: 900,
            eia_suspect: 70,
            scan_attacks: 10,
            nns_attacks: 20,
            eia_attacks: 5,
            forgiven: 35,
            adoptions: 2,
            ..AnalyzerMetrics::default()
        };
        (offered, ingest, engine)
    }

    #[test]
    fn consistent_counters_pass() {
        let (offered, ingest, engine) = clean();
        let mut checks = Checks::default();
        pump_identities(&mut checks, "D", offered, &ingest, &engine, Some((2, 0)));
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        assert!(checks.passed >= 8);
    }

    #[test]
    fn a_wrong_expected_malformed_count_fails_the_run() {
        let (offered, ingest, engine) = clean();
        let wrong = Offered {
            malformed: offered.malformed + 1,
            ..offered
        };
        let mut checks = Checks::default();
        pump_identities(&mut checks, "B1", wrong, &ingest, &engine, None);
        assert_eq!(checks.failures.len(), 1);
        assert!(
            checks.failures[0].contains("decode_errors"),
            "{:?}",
            checks.failures
        );
    }

    #[test]
    fn a_lost_flow_and_a_store_error_are_each_caught() {
        let (offered, mut ingest, engine) = clean();
        ingest.shed_flows -= 1;
        let mut checks = Checks::default();
        pump_identities(&mut checks, "D", offered, &ingest, &engine, Some((2, 1)));
        assert_eq!(checks.failures.len(), 2, "{:?}", checks.failures);
        let mut c = Checks::default();
        zero_loss(&mut c, &ingest);
        assert_eq!(c.failures.len(), 2);
    }
}
