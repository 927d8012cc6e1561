//! `infilter-e2ebench`: the repository's benchmark. See `README.md`.

mod checks;
mod harness;
mod host;
mod json;
mod layers;
mod ledger;
mod metrics;
mod plan;
mod run;
mod selfcheck;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: infilter-e2ebench --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
       infilter-e2ebench --selfcheck [--workload <name>] [--runs <n>] [--seconds <n>] [--quick]
       infilter-e2ebench --describe
workloads: legal_cruise spoof_flood adoption_churn small_datagrams";

/// How the driver starts a run, from the root of a checkout.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--quiet",
    "--offline",
    "--profile",
    "bench",
    "--manifest-path",
    "e2ebench/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables the harness itself runs on
/// (`plan::PLANS`, `metrics::END_TO_END`, `metrics::PER_LAYER`), so the
/// declaration cannot drift from what a run prints. The smoke test holds
/// the committed file to this.
fn describe() -> String {
    use json::{obj, Value};
    let text = |s: &str| Value::Str(s.to_string());
    let list = |items: Vec<Value>| {
        let rows: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.render()))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads = plan::PLANS
        .iter()
        .map(|p| obj([("name", text(p.name)), ("why", text(p.why))]))
        .collect();
    let end_to_end = metrics::END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = metrics::PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"e2ebench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Value::Arr(COMMAND.iter().map(|s| text(s)).collect()).render(),
        plan::DEFAULT_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Where runs keep their scratch files — a directory of store copies per
/// run, removed when it ends, and the traced runs' Chrome traces — inside
/// the benchmark's own directory, so nothing outside the checkout is touched.
fn scratch_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run")
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("infilter-e2ebench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 1u64, plan::DEFAULT_SECONDS, false);
    let (mut quick, mut selfcheck_runs, mut is_selfcheck) = (false, 5usize, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => selfcheck_runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--quick" => quick = true,
            "--selfcheck" => is_selfcheck = true,
            "--describe" => {
                print!("{}", describe());
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    if is_selfcheck {
        let mut extra = vec!["--seconds".to_string(), seconds.to_string()];
        if quick {
            extra.push("--quick".to_string());
        }
        return selfcheck::selfcheck(selfcheck_runs.max(2), workload.as_deref(), &extra)
            .map_err(|e| e.to_string());
    }

    let name = workload.ok_or("--workload is required")?;
    let plan = plan::Plan::named(&name).ok_or(format!("unknown workload {name}"))?;
    let plan = if quick {
        plan.quick()
    } else {
        plan.scaled(seconds)
    };
    let dir = scratch_root().join(format!("{}-{}-{}", plan.name, seed, std::process::id()));
    let outcome = run::run(&run::Request {
        plan,
        seed,
        traced,
        dir: dir.clone(),
        trace_file: scratch_root().join(format!("trace-{}-{seed}.json", plan.name)),
    });
    // The store copies go, whatever happened.
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome.map_err(|e| e.to_string())?;
    // One write, errors ignored: a reader that closes the pipe after the
    // first line must not turn a finished run into a panic.
    use std::io::Write as _;
    let _ = std::io::stdout()
        .write_all(format!("{}\n{}\n", outcome.report.render(), outcome.result_line()).as_bytes());
    Ok(outcome.correct)
}
