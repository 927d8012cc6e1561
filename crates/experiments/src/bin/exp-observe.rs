//! Observability demonstrator: replays a two-peer workload with one
//! spoofed attack through the concurrent engine and reports what the
//! telemetry layer saw — delta rates, the flight-recorder verdict trail,
//! and the Prometheus exposition page.
//!
//! Usage: `exp-observe [seed] [flows_per_peer] [--smoke] [--serve ADDR:PORT]
//! [--replay-to ADDR:PORT]`
//!
//! * `--smoke` runs a small workload and exits non-zero if the injected
//!   attack never reached the counters, the flight recorder or the `/ops`
//!   top-K table (the CI contract).
//! * `--serve ADDR:PORT` runs the workload, then serves the exposition
//!   over HTTP until interrupted (scrape it with a real Prometheus).
//! * `--replay-to ADDR:PORT` skips the in-process engine and instead ships
//!   the same workload over live UDP to a NetFlow v5 collector — point it
//!   at a running `infilterd` to load-test the daemon.

use infilter_core::Verdict;
use infilter_experiments::observe::{self, ObserveConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let serve = args
        .iter()
        .position(|a| a == "--serve")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let replay_to = args
        .iter()
        .position(|a| a == "--replay-to")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let positional: Vec<&String> = args[1..]
        .iter()
        .filter(|a| {
            !a.starts_with("--") && Some(*a) != serve.as_ref() && Some(*a) != replay_to.as_ref()
        })
        .collect();
    let seed = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let flows_per_peer = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 400 } else { 1500 });

    let cfg = ObserveConfig {
        seed,
        flows_per_peer,
        ..ObserveConfig::default()
    };

    if let Some(addr) = replay_to {
        match observe::replay_workload_to(cfg, &*addr, std::time::Duration::from_micros(400)) {
            Ok(stats) => println!(
                "replayed {} flows in {} datagrams ({} bytes) to udp://{addr}",
                stats.flows, stats.datagrams, stats.bytes
            ),
            Err(e) => {
                eprintln!("replay to {addr} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = observe::run(cfg);

    println!(
        "replayed {} wire flows in {} datagrams (seed {seed})",
        report.wire_flows, report.datagrams
    );
    if let Some(rates) = report.rates.last() {
        println!("\nfinal interval rates:");
        for sample in rates {
            println!(
                "  {:<14} {:>10}  (+{:>7}, {:>12.1}/s)",
                sample.name, sample.value, sample.delta, sample.per_sec
            );
        }
    }
    println!("\nlast {} verdicts (newest first):", report.decisions.len());
    for decision in &report.decisions {
        println!("  {}", decision.describe());
    }

    if smoke {
        let attack_recorded = report
            .decisions
            .iter()
            .any(|d| matches!(d.verdict, Verdict::Attack(_)));
        if report.metrics.attacks() == 0 || !attack_recorded {
            eprintln!(
                "SMOKE FAIL: injected attack not observed (attacks={}, recorded={attack_recorded})",
                report.metrics.attacks()
            );
            std::process::exit(1);
        }
        let src = observe::attack_source(&cfg);
        if !report
            .ops_json
            .contains(&format!("\"top_sources\":[{{\"addr\":\"{src}\""))
        {
            eprintln!(
                "SMOKE FAIL: attack source {src} not ranked first in /ops:\n{}",
                report.ops_json
            );
            std::process::exit(1);
        }
        println!(
            "\nSMOKE OK: {} attacks flagged, {src} ranked first in /ops",
            report.metrics.attacks()
        );
        return;
    }

    match serve {
        None => {
            println!("\n{}", report.exposition);
        }
        Some(addr) => {
            serve_report(&addr, &report);
        }
    }
}

/// Minimal blocking HTTP loop over the finished run, under the daemon's
/// route spellings: `/v1/metrics` serves the Prometheus page, `/v1/trace`
/// the Chrome trace-event JSON (load it in Perfetto), `/v1/events` the
/// structured journal, `/v1/ops` the attack-shape document; anything else
/// is a 404.
fn serve_report(addr: &str, report: &infilter_experiments::observe::ObserveReport) {
    use std::io::{Read, Write};
    let listener =
        std::net::TcpListener::bind(addr).unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!("\nserving http://{addr}/v1/metrics /v1/trace /v1/events /v1/ops (ctrl-c to stop)");
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).unwrap_or(0);
        let request = String::from_utf8_lossy(&buf[..n]);
        let path = request
            .split_whitespace()
            .nth(1)
            .map(|p| p.split('?').next().unwrap_or(p))
            .unwrap_or("");
        let json = "application/json";
        let (status, content_type, body) = match path {
            "/v1/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                report.exposition.as_str(),
            ),
            "/v1/trace" => ("200 OK", json, report.trace_json.as_str()),
            "/v1/events" => ("200 OK", json, report.events_json.as_str()),
            "/v1/ops" => ("200 OK", json, report.ops_json.as_str()),
            _ => ("404 Not Found", "text/plain", "no such route\n"),
        };
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(body.as_bytes());
    }
}
