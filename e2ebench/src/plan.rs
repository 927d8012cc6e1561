//! The four workloads and the fixed amount of work each phase does.
//!
//! Phase sizes are **datagram counts**, not seconds, so flow counts,
//! adoptions, alerts and peak memory are the same on every run and every
//! commit; `--seconds` scales them linearly from [`DEFAULT_SECONDS`], the
//! run length the counts below were sized for in the 2-vCPU sandbox
//! (B1 ≈ 7 s, B2 ≈ 1.5 s, C ≈ 11 s, D = 6 s). B1 and C, whose timings are
//! end-to-end metrics, get the time. B2 is not timed in an untraced run (it
//! scores verdicts, which repeat exactly), so it replays only the head of
//! B1's range. Phase D's length is exact by construction: an open loop plays
//! `dgrams_d` datagrams at `paced_dgrams_per_s` whatever the collector does.

use crate::workload::{Mix, StreamSpec};

/// `run_seconds` in `BENCHMARK.json`: the measured time (B1 + B2 + C + D)
/// the phase sizes below add up to at seed speed.
pub const DEFAULT_SECONDS: u32 = 26;

/// One workload: its stream, its collector configuration, its phase sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    pub stream: StreamSpec,
    /// Filler prefixes added to the 64 owned ones (0 = the 64-prefix table).
    pub filler_prefixes: usize,
    /// Attach a `DiskStore` and boot warm: the filler arrives as that many
    /// adoption records replayed from the log instead of as `peer` lines.
    pub warm_log: bool,
    /// `BootstrapConfig::training_flows` — the lever that sets the boot
    /// time of the 64-prefix workloads (README "What sets each boot time").
    pub training_flows: usize,
    /// Datagrams played in B1.
    pub dgrams_b: u64,
    /// Datagrams played in B2: the first this many of B1's.
    pub dgrams_b2: u64,
    /// Datagrams played in C (closed loop).
    pub dgrams_c: u64,
    /// Datagrams played in D (open loop).
    pub dgrams_d: u64,
    /// Phase D's fixed schedule. About half the workload's seed capacity,
    /// except on `adoption_churn`, where it is what the rings can absorb
    /// during one table recompile without crossing a ladder watermark.
    pub paced_dgrams_per_s: f64,
}

const FULL: (usize, usize) = (30, 30);

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const PLANS: [Plan; 4] = [
    Plan {
        name: "legal_cruise",
        why: "deployment mix (1 suspect in 128) over a 100k-prefix table: decode, ring copy and LPM lookup dominate, the suspect path idles",
        stream: StreamSpec {
            mix: Mix::Cruise,
            records: FULL,
            dgrams_per_lap: 20_000,
            malformed_every: 0,
            spread_legal: true,
        },
        filler_prefixes: 100_000,
        warm_log: false,
        training_flows: 20_000,
        dgrams_b: 2_200_000,
        dgrams_b2: 510_000,
        dgrams_c: 1_950_000,
        dgrams_d: 72_000,
        paced_dgrams_per_s: 12_000.0,
    },
    Plan {
        name: "spoof_flood",
        why: "attack mix (half of all flows spoofed through 2 of 8 peers) over a 64-prefix table: scan tables, NNS search and alert build dominate",
        stream: StreamSpec {
            mix: Mix::Flood,
            records: FULL,
            dgrams_per_lap: 19_980,
            malformed_every: 0,
            spread_legal: false,
        },
        filler_prefixes: 0,
        warm_log: false,
        training_flows: 20_000,
        dgrams_b: 860_000,
        dgrams_b2: 190_000,
        dgrams_c: 1_350_000,
        dgrams_d: 48_000,
        paced_dgrams_per_s: 8_000.0,
    },
    Plan {
        name: "adoption_churn",
        why: "route-change mix (1 flow in 20 re-homed, two adoptions per lap) over a 100k-prefix table booted warm from a disk log: every adoption recompiles the table on the worker",
        stream: StreamSpec {
            mix: Mix::Churn {
                adopters_per_lap: 2,
            },
            records: FULL,
            dgrams_per_lap: 16_000,
            malformed_every: 0,
            spread_legal: true,
        },
        filler_prefixes: 100_000,
        warm_log: true,
        training_flows: 20_000,
        dgrams_b: 870_000,
        dgrams_b2: 195_000,
        dgrams_c: 1_340_000,
        dgrams_d: 48_000,
        paced_dgrams_per_s: 8_000.0,
    },
    Plan {
        name: "small_datagrams",
        why: "1-3 records per datagram (timeout-flushed exporter), deployment mix, 64-prefix table, 1 truncated datagram per 1000: per-datagram cost dominates",
        stream: StreamSpec {
            mix: Mix::Cruise,
            records: (1, 3),
            dgrams_per_lap: 60_000,
            malformed_every: 1000,
            spread_legal: false,
        },
        filler_prefixes: 0,
        warm_log: false,
        training_flows: 20_000,
        dgrams_b: 7_600_000,
        dgrams_b2: 1_800_000,
        dgrams_c: 2_200_000,
        dgrams_d: 72_000,
        paced_dgrams_per_s: 12_000.0,
    },
];

impl Plan {
    /// The plan named `name`.
    pub fn named(name: &str) -> Option<&'static Plan> {
        PLANS.iter().find(|p| p.name == name)
    }

    /// This plan with every phase scaled to a `seconds`-long run.
    pub fn scaled(&self, seconds: u32) -> Plan {
        let scale = |n: u64| (n * u64::from(seconds) / u64::from(DEFAULT_SECONDS)).max(1);
        Plan {
            dgrams_b: scale(self.dgrams_b),
            dgrams_b2: scale(self.dgrams_b2),
            dgrams_c: scale(self.dgrams_c),
            dgrams_d: scale(self.dgrams_d),
            ..*self
        }
    }

    /// A miniature of this plan for the smoke test: the same code paths
    /// (warm log, filler table, malformed datagrams, adoptions) at sizes
    /// that finish in a fraction of a second even unoptimised.
    pub fn quick(&self) -> Plan {
        let lap = 300;
        Plan {
            stream: StreamSpec {
                dgrams_per_lap: lap,
                malformed_every: self.stream.malformed_every.min(lap / 4),
                ..self.stream
            },
            filler_prefixes: self.filler_prefixes.min(2_000),
            training_flows: 600,
            dgrams_b: lap as u64 * 3,
            dgrams_b2: lap as u64 * 2,
            dgrams_c: lap as u64 * 3,
            dgrams_d: lap as u64 * 2,
            paced_dgrams_per_s: lap as f64 * 10.0,
            ..*self
        }
    }
}
