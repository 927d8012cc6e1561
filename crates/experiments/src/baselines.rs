//! Baseline comparators run on the identical testbed workload as
//! InFilter (the quantitative version of the paper's §2 arguments).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use infilter_baselines::{HistoryConfig, HistoryFilter, HopCountFilter, Urpf, UrpfMode};
use infilter_dagflow::eia_table;
use infilter_net::Prefix;
use serde::{Deserialize, Serialize};

use crate::testbed::{Label, LabeledFlow, Testbed, TestbedConfig};

/// One comparator's outcome on the shared workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// Detector name.
    pub name: String,
    /// Attack instances detected / launched.
    pub detection_rate: f64,
    /// Normal flows flagged.
    pub false_positive_rate: f64,
}

/// Runs uRPF, history-based filtering and hop-count filtering over the
/// testbed's workload, plus InFilter itself, and returns one row each.
///
/// `urpf_asymmetry` is the fraction of address blocks whose return route
/// leaves through a *different* peer than traffic from them arrives on —
/// the inter-domain asymmetry that the paper argues breaks uRPF at large
/// network boundaries.
pub fn run_baseline_comparison(cfg: TestbedConfig, urpf_asymmetry: f64) -> Vec<BaselineResult> {
    let bed = Testbed::new(cfg.clone());
    let workload = bed.generate_workload();
    let n_instances = count_instances(&workload);

    let mut results = Vec::new();

    // --- InFilter (Enhanced), via the real pipeline.
    let outcome = bed.run();
    results.push(BaselineResult {
        name: "InFilter (EI)".to_owned(),
        detection_rate: outcome.detection_rate(),
        false_positive_rate: outcome.false_positive_rate(),
    });

    // --- Strict uRPF with configurable routing asymmetry.
    let mut urpf = Urpf::new(UrpfMode::Strict);
    let eia = eia_table(cfg.n_peers, cfg.blocks_per_peer);
    for (peer, blocks) in eia.iter().enumerate() {
        for b in blocks {
            let iface = if frac_hash(b.prefix(), cfg.seed) < urpf_asymmetry {
                // Return path exits via the "next" peer: asymmetric.
                ((peer + 1) % cfg.n_peers) as u16 + 1
            } else {
                peer as u16 + 1
            };
            urpf.add_route(b.prefix(), iface);
        }
    }
    results.push(score(
        "uRPF (strict)",
        &workload,
        n_instances,
        |lf: &LabeledFlow| !urpf.check(lf.peer.0, lf.record.src_addr),
    ));

    // --- Peng history-based IP filtering: trained on the training
    // cluster, overloaded during the run.
    // History granularity matches the testbed's /11 allocation blocks;
    // finer histories never fill at this traffic scale.
    let mut history = HistoryFilter::new(HistoryConfig {
        prefix_len: 11,
        min_sightings: 1,
    });
    for r in bed.training_cluster() {
        history.observe(r.src_addr);
    }
    history.set_overloaded(true);
    results.push(score(
        "History-based (Peng)",
        &workload,
        n_instances,
        |lf: &LabeledFlow| !history.admit(lf.record.src_addr),
    ));

    // --- Hop-count filtering: per-/11 true hop counts; spoofed packets
    // arrive with the attacker's hop count instead of the claimed
    // source's.
    let mut hcf = HopCountFilter::new(11, 1);
    for blocks in &eia {
        for b in blocks {
            hcf.train(b.prefix().nth(1), true_hops(b.prefix().network(), cfg.seed));
        }
    }
    results.push(score(
        "Hop-count (HCF)",
        &workload,
        n_instances,
        |lf: &LabeledFlow| {
            let observed = match lf.label {
                // Legitimate packets arrive with their source's hop count.
                Label::Normal => true_hops(lf.record.src_addr, cfg.seed),
                // Spoofed packets travel the attacker's path; the attacker
                // sits behind the arrival peer.
                Label::Attack { .. } => attacker_hops(lf.peer.0, cfg.seed),
            };
            !hcf.check(lf.record.src_addr, observed)
        },
    ));

    results
}

fn count_instances(workload: &[LabeledFlow]) -> usize {
    workload
        .iter()
        .filter_map(|lf| match lf.label {
            Label::Attack { instance } => Some(instance),
            Label::Normal => None,
        })
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

fn score<F: FnMut(&LabeledFlow) -> bool>(
    name: &str,
    workload: &[LabeledFlow],
    n_instances: usize,
    mut flags: F,
) -> BaselineResult {
    let mut detected: HashSet<usize> = HashSet::new();
    let mut normal = 0usize;
    let mut fp = 0usize;
    for lf in workload {
        let flagged = flags(lf);
        match lf.label {
            Label::Normal => {
                normal += 1;
                if flagged {
                    fp += 1;
                }
            }
            Label::Attack { instance } => {
                if flagged {
                    detected.insert(instance);
                }
            }
        }
    }
    BaselineResult {
        name: name.to_owned(),
        detection_rate: if n_instances == 0 {
            0.0
        } else {
            detected.len() as f64 / n_instances as f64
        },
        false_positive_rate: if normal == 0 {
            0.0
        } else {
            fp as f64 / normal as f64
        },
    }
}

/// Deterministic hash → [0,1) per prefix.
fn frac_hash(p: Prefix, seed: u64) -> f64 {
    let mut h = DefaultHasher::new();
    (seed, p).hash(&mut h);
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// Synthetic true hop count of a source address's /11 block (8..=21).
fn true_hops(addr: Ipv4Addr, seed: u64) -> u8 {
    let block = Prefix::host(addr).truncate(11);
    let mut h = DefaultHasher::new();
    (seed, block).hash(&mut h);
    8 + (h.finish() % 14) as u8
}

/// Synthetic hop count of the attacker behind peer `peer` (8..=21).
fn attacker_hops(peer: u16, seed: u64) -> u8 {
    let mut h = DefaultHasher::new();
    (seed ^ 0xa77, peer).hash(&mut h);
    8 + (h.finish() % 14) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_four_rows() {
        let results = run_baseline_comparison(TestbedConfig::small(3), 0.1);
        assert_eq!(results.len(), 4);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"InFilter (EI)"));
        assert!(names.contains(&"uRPF (strict)"));
        for r in &results {
            assert!((0.0..=1.0).contains(&r.detection_rate), "{}: {r:?}", r.name);
            assert!((0.0..=1.0).contains(&r.false_positive_rate));
        }
    }

    #[test]
    fn urpf_asymmetry_creates_false_positives() {
        let none = run_baseline_comparison(
            TestbedConfig {
                unexpected_source_fraction: 0.0,
                ..TestbedConfig::small(5)
            },
            0.0,
        );
        let lots = run_baseline_comparison(
            TestbedConfig {
                unexpected_source_fraction: 0.0,
                ..TestbedConfig::small(5)
            },
            0.3,
        );
        let fp = |rs: &[BaselineResult]| {
            rs.iter()
                .find(|r| r.name.starts_with("uRPF"))
                .expect("urpf row")
                .false_positive_rate
        };
        assert_eq!(fp(&none), 0.0);
        assert!(fp(&lots) > 0.1, "asymmetric uRPF FP {}", fp(&lots));
    }

    #[test]
    fn history_filter_is_a_blunt_instrument() {
        // History-based filtering has no per-ingress information: whatever
        // detection it achieves comes purely from address-coverage gaps,
        // and the same gaps hammer legitimate traffic. Its false-positive
        // rate dwarfs InFilter's on the identical workload. One seed's
        // margin moves with the random stream behind the workload, so this
        // asserts what holds on every draw: worse at each of five seeds,
        // and ten times worse at their median.
        let mut ratios: Vec<f64> = (1..=5)
            .map(|seed| {
                let results = run_baseline_comparison(TestbedConfig::small(seed), 0.0);
                let fp = |name: &str| {
                    let row = results.iter().find(|r| r.name.starts_with(name));
                    row.expect("comparator row").false_positive_rate
                };
                let (history, infilter) = (fp("History"), fp("InFilter"));
                assert!(
                    history > infilter,
                    "seed {seed}: history {history} vs infilter {infilter}"
                );
                history / infilter
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        assert!(ratios[2] > 10.0, "history/InFilter FP ratios: {ratios:?}");
    }
}
