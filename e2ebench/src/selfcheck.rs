//! `--selfcheck`: the A/A gate, in the harness.
//!
//! Runs two interleaved sets of runs of this same binary on every workload
//! and fails if any pair of medians differs by more than that metric's
//! bound. A benchmark that cannot agree with itself cannot hold a change to
//! its bounds; if this fails, lengthen the phase or restructure the metric —
//! never widen a bound past a tenth.

use std::process::Command;

use crate::metrics::END_TO_END;
use crate::plan::PLANS;
use crate::run::parse_result_line;

/// `(q1, median, q3)` the way Python's `statistics.quantiles(n=4)` and
/// `statistics.median` compute them (exclusive method), which is what the
/// driver uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Quartile `i` sits at position `i * (n + 1) / 4` (1-based), linearly
    // interpolated, and clamped to the first and last pair of samples.
    let at = |i: usize| {
        let (j, quarters) = match (i * (n + 1) / 4, i * (n + 1) % 4) {
            (0, _) => (1, 0),
            (j, _) if j > n - 1 => (n - 1, 4),
            (j, quarters) => (j, quarters),
        };
        (sorted[j - 1] * (4 - quarters) as f64 + sorted[j] * quarters as f64) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Runs the gate with `runs` runs per side per workload (`only` restricts
/// it to one workload); `extra` is passed through to every child
/// (`--seconds`, `--quick`). Returns whether every
/// pair of medians agreed, every spread stayed within its bound, and phase
/// D's peak occupancy sat clear of the ladder watermarks on every run.
pub fn selfcheck(runs: usize, only: Option<&str>, extra: &[String]) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    println!("| workload | metric | A median (q1..q3) | B median (q1..q3) | worse by | spread | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for plan in PLANS
        .iter()
        .filter(|p| only.is_none_or(|name| name == p.name))
    {
        // sides[side][metric] = samples
        let mut sides = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..2 * runs {
            // A B B A A B B A …: neither side always runs first or on a
            // warmer machine.
            let side = i.div_ceil(2) % 2;
            let seed = 1 + (i / 2) as u64;
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    plan.name,
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    "0",
                ])
                .args(extra)
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let (correct, metrics) = parse_result_line(line).map_err(std::io::Error::other)?;
            // The first line is the run's report.
            let report = stdout
                .lines()
                .next()
                .and_then(|l| crate::json::parse(l).ok());
            if !out.status.success() || !correct {
                let why = report
                    .as_ref()
                    .and_then(|r| r.get("checks")?.get("failed").map(|f| f.render()))
                    .unwrap_or_default();
                eprintln!(
                    "selfcheck: {} seed {seed} failed its output checks: {why}",
                    plan.name
                );
                all_ok = false;
            }
            let clear = report.as_ref().and_then(|r| {
                r.get("phases")?
                    .get("D")?
                    .get("occupancy_clear_of_watermarks")?
                    .as_bool()
            });
            if clear == Some(false) {
                eprintln!(
                    "selfcheck: {} seed {seed}: phase D occupancy peak between 0.35 and 0.65",
                    plan.name
                );
                all_ok = false;
            }
            for (slot, m) in sides[side].iter_mut().zip(&END_TO_END) {
                let value = metrics
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| {
                        std::io::Error::other(format!("{} missing from result line", m.name))
                    })?;
                slot.push(value);
            }
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let (a1, a2, a3) = quartiles(&sides[0][k]);
            let (b1, b2, b3) = quartiles(&sides[1][k]);
            let worse = m.better.worsening(a2, b2).max(m.better.worsening(b2, a2));
            let spread = ((a3 - a1) / a2.abs()).max((b3 - b1) / b2.abs());
            // setup_s is held to its bound between medians only, as the
            // driver does.
            let ok = worse <= m.bound && (spread <= m.bound || m.name == "setup_s");
            all_ok &= ok;
            println!(
                "| {} | {} | {a2:.6} ({a1:.6}..{a3:.6}) | {b2:.6} ({b1:.6}..{b3:.6}) | {:.2}% | {:.2}% | {:.1}% | {} |",
                plan.name,
                m.name,
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "FAIL" },
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }
}
