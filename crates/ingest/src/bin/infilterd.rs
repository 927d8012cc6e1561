//! The `infilterd` binary: NetFlow v5 UDP collector around the InFilter
//! engine.
//!
//! Usage:
//!
//! ```text
//! infilterd --config infilterd.conf     # serve until POST /v1/shutdown
//! infilterd --smoke [seed]              # CI gate: loopback end-to-end run
//! infilterd --smoke-restart [seed]      # CI gate: kill + warm-restart recovery
//! infilterd --replay-to ADDR [seed]     # ship the smoke workload to a running collector
//! infilterd --print-config              # dump the built-in defaults
//! ```

use infilter_ingest::bootstrap::{run_until_shutdown, BootstrapConfig};
use infilter_ingest::{smoke, DaemonConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--print-config") {
        print!(
            "# infilterd defaults\n{}\n# peer 1 3.0.0.0/11\n# peer 2 3.32.0.0/11\n",
            DaemonConfig::default().render()
        );
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--replay-to") {
        let Some(addr) = args.get(i + 1) else {
            eprintln!("--replay-to needs ADDR:PORT");
            std::process::exit(2);
        };
        let seed = args.get(i + 2).and_then(|s| s.parse().ok()).unwrap_or(42);
        match smoke::replay_workload(seed, addr.as_str()) {
            Ok(sent) => println!(
                "replayed {} flows in {} datagrams ({} bytes) to udp://{addr}",
                sent.flows, sent.datagrams, sent.bytes
            ),
            Err(e) => {
                eprintln!("replay to {addr} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke-restart") {
        let seed = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        match smoke::run_restart_smoke(seed) {
            Ok(report) => {
                println!(
                    "RESTART SMOKE OK: replayed {} adoption records, warm boot published \
                     {} EIA prefixes, sealed snapshot carries {} adoptions",
                    report.replayed, report.warm_prefixes, report.sealed_adopted
                );
            }
            Err(why) => {
                eprintln!("RESTART SMOKE FAIL: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        let seed = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        match smoke::run_smoke(seed) {
            Ok(report) => {
                println!(
                    "SMOKE OK: {}/{} flows ingested, {} decode errors rejected, \
                     {} attacks flagged, {} IDMEF alerts",
                    report.received_flows,
                    report.sent_flows,
                    report.decode_errors,
                    report.attacks,
                    report.alerts
                );
            }
            Err(why) => {
                eprintln!("SMOKE FAIL: {why}");
                std::process::exit(1);
            }
        }
        return;
    }

    let cfg = match args.iter().position(|a| a == "--config") {
        Some(i) => {
            let Some(path) = args.get(i + 1) else {
                eprintln!("--config needs a path");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match DaemonConfig::parse(&text) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            eprintln!("infilterd: no --config given; use --help");
            std::process::exit(2);
        }
    };
    if let Err(why) = run_until_shutdown(&cfg, &BootstrapConfig::default()) {
        eprintln!("infilterd: {why}");
        std::process::exit(1);
    }
}

fn print_help() {
    println!(
        "infilterd — NetFlow v5 ingest daemon for the InFilter engine\n\n\
         USAGE:\n  infilterd --config <path>        serve until POST /v1/shutdown\n  \
         infilterd --smoke [seed]         run the loopback end-to-end gate\n  \
         infilterd --smoke-restart [seed] run the kill + warm-restart gate\n  \
         infilterd --replay-to ADDR [seed] ship the smoke workload to a collector\n  \
         infilterd --print-config         dump a commented default config\n\n\
         The config file is `key = value` lines plus `peer <id> <prefix>`\n\
         EIA entries; POST a fresh table to /v1/reload to hot-swap the EIA\n\
         registry without a restart."
    );
}
