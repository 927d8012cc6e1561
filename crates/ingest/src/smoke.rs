//! The end-to-end smoke gate behind `infilterd --smoke`: spawn the daemon
//! on loopback, have Dagflow replay a Slammer-laced two-peer trace over
//! real UDP, drive every control-plane route, and assert the full chain —
//! wire decode, intake, engine verdicts, IDMEF alerts, Prometheus
//! exposition, EIA hot-reload, graceful shutdown — held together. (Which
//! families a page carries is the renderers' business; `daemon::tests`
//! holds the README reference block to them.)

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use infilter_dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig, UdpReplayStats};
use infilter_net::SubBlock;
use infilter_traffic::{AttackKind, NormalProfile, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bootstrap::{bootstrap_engine, bootstrap_with_store, BootstrapConfig};
use crate::config::DaemonConfig;
use crate::Daemon;

/// Pace between UDP sends: loopback receive buffers are small enough that
/// an unpaced burst of ~100 datagrams drops at the kernel and the smoke
/// flakes on loaded CI machines.
const SEND_PACE: Duration = Duration::from_micros(400);

/// Sub-blocks per peer in the gate's two-peer EIA table.
const BLOCKS_PER_PEER: usize = 40;

/// Ships the gate's workload to a NetFlow v5 collector at `to` over real
/// UDP: two peers' normal traffic from their own blocks, then a Slammer
/// spray and a host scan sourced from peer 2's blocks but exported through
/// peer 1 (§6.3.1 placement). [`run_smoke`] aims it at the daemon it
/// spawned, `infilterd --replay-to` at one already running.
///
/// # Errors
///
/// Propagates socket bind/send failures.
pub fn replay_workload<A: ToSocketAddrs + Copy>(
    seed: u64,
    to: A,
) -> std::io::Result<UdpReplayStats> {
    let eia = eia_table(2, BLOCKS_PER_PEER);
    let exporter = |blocks: &[SubBlock], peer: u16| {
        Dagflow::new(DagflowConfig {
            sources: AddressMapper::from_sub_blocks(blocks.iter().copied()),
            target_prefix: BootstrapConfig::default().target_prefix,
            export_port: 9000 + peer,
            input_if: peer,
            src_as: peer,
        })
    };
    let mut total = UdpReplayStats::default();
    let mut send = |dagflow: &mut Dagflow, trace: &Trace, offset_ms: u32| -> std::io::Result<()> {
        let sent = dagflow.replay_to(trace, offset_ms, to, SEND_PACE)?;
        total.datagrams += sent.datagrams;
        total.flows += sent.flows;
        total.bytes += sent.bytes;
        Ok(())
    };
    for (peer, blocks) in eia.iter().enumerate() {
        let trace = NormalProfile::default().generate(
            &mut StdRng::seed_from_u64(seed ^ (0xa0 + peer as u64)),
            400,
            30_000,
        );
        send(&mut exporter(blocks, peer as u16 + 1), &trace, 0)?;
    }
    let mut attack = exporter(&eia[1], 1);
    let slammer = AttackKind::Slammer.generate(&mut StdRng::seed_from_u64(seed ^ 0xbad), 1024);
    send(&mut attack, &slammer.trace, 15_000)?;
    let host_scan = AttackKind::HostScan.generate(&mut StdRng::seed_from_u64(seed ^ 0x5ca7), 1024);
    send(&mut attack, &host_scan.trace, 10_000)?;
    Ok(total)
}

/// What the smoke run measured; printed by `infilterd --smoke`.
#[derive(Debug)]
pub struct SmokeReport {
    /// Flow records Dagflow put on the wire.
    pub sent_flows: u64,
    /// Flow records the daemon accepted (UDP may shed a few).
    pub received_flows: u64,
    /// Malformed payloads injected and rejected.
    pub decode_errors: u64,
    /// Attack verdicts at shutdown.
    pub attacks: u64,
    /// IDMEF alerts drained over HTTP plus those left at shutdown.
    pub alerts: usize,
}

/// Runs the gate.
///
/// # Errors
///
/// Returns a human-readable description of the first failed assertion.
pub fn run_smoke(seed: u64) -> Result<SmokeReport, String> {
    let eia = eia_table(2, BLOCKS_PER_PEER);
    let mut builder = DaemonConfig::builder()
        .listeners(2)
        .rings(2)
        .ring_capacity(256)
        .shards(2)
        // Trace every datagram, so the attack datagrams' suspect-path spans
        // are among the retained traces whatever the sampler's phase.
        .trace_sample_every(1);
    for (i, blocks) in eia.iter().enumerate() {
        for b in blocks {
            builder = builder.peer(infilter_core::PeerId(i as u16 + 1), b.prefix());
        }
    }
    let cfg = builder.build().map_err(|e| e.to_string())?;
    let boot = BootstrapConfig {
        seed,
        ..BootstrapConfig::default()
    };
    let engine = bootstrap_engine(&cfg, &boot).map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn(engine, &cfg).map_err(|e| format!("spawn: {e}"))?;
    let udp = daemon.udp_addr();
    let http = daemon.http_addr();

    let sent_flows = replay_workload(seed, udp)
        .map_err(|e| format!("replay: {e}"))?
        .flows;

    // Malformed payloads: truncated, wrong version, and noise. All must be
    // counted and dropped without wedging anything.
    let garbage = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    for payload in [&[0u8; 4][..], &[0u8; 24][..], &[0xffu8; 100][..]] {
        garbage.send_to(payload, udp).map_err(|e| e.to_string())?;
    }

    // Let the intake settle: wait until the accepted+rejected datagram
    // counters stop moving.
    let mut last = (0u64, Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let page = http_get(http, "/v1/metrics")?;
        let seen = metric_value(&page, "infilterd_datagrams_total").unwrap_or(0.0) as u64
            + metric_value(&page, "infilterd_decode_errors_total{reason=\"truncated\"}")
                .unwrap_or(0.0) as u64
            + metric_value(
                &page,
                "infilterd_decode_errors_total{reason=\"wrong_version\"}",
            )
            .unwrap_or(0.0) as u64;
        if seen > 0 && seen == last.0 && last.1.elapsed() > Duration::from_millis(250) {
            break;
        }
        if seen != last.0 {
            last = (seen, Instant::now());
        }
        if last.1.elapsed() > Duration::from_secs(20) {
            return Err("intake never settled within 20s".into());
        }
    }

    // A route has one spelling: the unversioned path is a 404.
    match http_get(http, "/metrics") {
        Err(e) if e.contains(" 404 ") => {}
        other => return Err(format!("unversioned /metrics must be a 404: {other:?}")),
    }

    let healthz = http_get(http, "/v1/healthz")?;
    if !healthz.starts_with("ok ") || !healthz.contains("eia_version=") {
        return Err(format!(
            "healthz did not answer ok with EIA health: {healthz:?}"
        ));
    }
    // The attack-shape document must be well-formed and populated: the
    // Slammer/host-scan replays are suspect-heavy, so the sampled sketches
    // see them even at the default stride.
    let ops = http_get(http, "/v1/ops?window=4")?;
    if !ops.starts_with('{') || !ops.contains("\"top_sources\"") || !ops.contains("\"peers\"") {
        return Err(format!("ops document malformed: {ops:?}"));
    }
    // Enhanced mode with both attack shapes exercises every stage: the
    // listener-side spans, the batch spans, and the suspect path's scan
    // and NNS spans must all be on the trace page.
    let trace = http_get(http, "/v1/trace?last=256")?;
    for span in [
        "recv",
        "decode",
        "queue_wait",
        "eia",
        "verdict",
        "scan",
        "nns",
    ] {
        if !trace.contains(&format!("\"name\":\"{span}\"")) {
            return Err(format!("span `{span}` missing from /v1/trace:\n{trace}"));
        }
    }
    let events = http_get(http, "/v1/events")?;
    if !events.contains("\"kind\":\"alert\"") {
        return Err(format!("alert events missing from /v1/events:\n{events}"));
    }
    let alerts_xml = http_get(http, "/v1/alerts?max=50")?;
    let drained_alerts = alerts_xml.matches("<idmef:Alert").count();
    if drained_alerts == 0 {
        return Err("no IDMEF alerts drained over /v1/alerts".into());
    }
    if !http_get(http, "/v1/explain")?.contains("->") {
        return Err("explain trail empty".into());
    }

    // Hot-reload: re-POST the same table, as the config file it came from
    // (README step 4); the daemon must accept it and keep classifying (a
    // wrong table here would flag the next poll).
    let reload = http_post(http, "/v1/reload", &cfg.render())?;
    if !reload.contains("reloaded") {
        return Err(format!("reload failed: {reload}"));
    }
    let bad_reload = http_post(http, "/v1/reload", "nonsense\n")?;
    if !bad_reload.contains("bad EIA table") {
        return Err("malformed reload body was not rejected".into());
    }

    let report = daemon.shutdown();
    if report.engine.attacks() == 0 {
        return Err("no attack verdicts after a Slammer-laced replay".into());
    }
    if report.ingest.decode_errors != 3 {
        return Err(format!(
            "expected 3 decode errors, counted {}",
            report.ingest.decode_errors
        ));
    }
    if report.ingest.flows == 0 || report.ingest.flows > sent_flows {
        return Err(format!(
            "implausible flow accounting: received {} of {sent_flows}",
            report.ingest.flows
        ));
    }
    // UDP on loopback may shed a little under load; the gate demands most
    // of the trace arrived so detection assertions are meaningful.
    if (report.ingest.flows as f64) < 0.8 * sent_flows as f64 {
        return Err(format!(
            "too much UDP loss: received {} of {sent_flows}",
            report.ingest.flows
        ));
    }
    Ok(SmokeReport {
        sent_flows,
        received_flows: report.ingest.flows,
        decode_errors: report.ingest.decode_errors,
        attacks: report.engine.attacks(),
        alerts: drained_alerts + report.alerts.len(),
    })
}

/// What the restart gate measured; printed by `infilterd --smoke-restart`.
#[derive(Debug)]
pub struct RestartReport {
    /// Adoption records the warm boot replayed from the log.
    pub replayed: u64,
    /// EIA prefixes published immediately after the warm boot.
    pub warm_prefixes: u64,
    /// Adopted count recovered from the snapshot the shutdown sealed.
    pub sealed_adopted: u64,
}

/// The kill-and-restart recovery gate behind `infilterd --smoke-restart`:
/// a first "run" adopts sources through the real sighting path and is
/// killed after a sync but *before* any snapshot seal; the daemon then
/// boots on the same store directory and must come up warm — the
/// recovered table bit-identical, `/v1/store` and the journal reporting
/// the replay, and `infilter_eia_prefixes` at full size before a single
/// datagram arrives (no re-training window). Shutdown must seal, and the
/// sealed state must round-trip once more.
///
/// # Errors
///
/// Returns a human-readable description of the first failed assertion.
pub fn run_restart_smoke(seed: u64) -> Result<RestartReport, String> {
    use infilter_core::PeerId;
    use infilter_store::{restore_registry, DiskStore, EiaStore};

    let threshold = infilter_core::AnalyzerConfig::default().adoption_threshold;
    let dir = std::env::temp_dir().join(format!(
        "infilterd-restart-smoke-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let eia = eia_table(2, 8);
    let mut builder = DaemonConfig::builder()
        .mode(infilter_core::Mode::Basic)
        .listeners(1)
        .rings(1)
        .ring_capacity(64)
        .shards(1)
        .store_dir(Some(dir.to_string_lossy().into_owned()));
    for (i, blocks) in eia.iter().enumerate() {
        for b in blocks {
            builder = builder.peer(PeerId(i as u16 + 1), b.prefix());
        }
    }
    let cfg = builder.build().map_err(|e| e.to_string())?;

    // Phase 1 — the previous run: adopt hosts through the real sighting
    // path, drain each batch of events to disk, sync, and "crash" (drop
    // the store without sealing a snapshot).
    const ADOPTED: u8 = 12;
    let mut live = cfg.eia_registry(threshold);
    {
        let mut store = DiskStore::open(&dir).map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        for host in 0..ADOPTED {
            let addr = std::net::Ipv4Addr::new(198, 51, 100, host);
            for _ in 0..threshold {
                live.record_sighting(PeerId(1), addr);
            }
            live.drain_events(&mut events);
            store.append(&events).map_err(|e| e.to_string())?;
            events.clear();
        }
        store.sync().map_err(|e| e.to_string())?;
    }

    // Recovery must rebuild the exact table the killed run last had.
    {
        let store = DiskStore::open(&dir).map_err(|e| e.to_string())?;
        let replay = store.replay().map_err(|e| e.to_string())?;
        if replay.report.records_replayed != u64::from(ADOPTED) {
            return Err(format!(
                "expected {ADOPTED} replayed records, got {}",
                replay.report.records_replayed
            ));
        }
        let mut recovered = cfg.eia_registry(threshold);
        restore_registry(&replay, &mut recovered);
        if recovered.snapshot() != live.snapshot() {
            return Err("recovered EIA snapshot is not bit-identical to the killed run's".into());
        }
    }
    let expected_prefixes = live.snapshot().prefix_count() as u64;

    // Phase 2 — warm restart: the daemon boots on the same directory and
    // must publish the recovered table before any traffic arrives.
    let boot = BootstrapConfig {
        seed,
        ..BootstrapConfig::default()
    };
    let (engine, store) = bootstrap_with_store(&cfg, &boot).map_err(|e| e.to_string())?;
    let daemon =
        Daemon::spawn_with_store(engine, &cfg, store).map_err(|e| format!("spawn: {e}"))?;
    let http = daemon.http_addr();

    let store_doc = http_get(http, "/v1/store")?;
    for needle in [
        "\"enabled\":true",
        "\"recovered\":true",
        &format!("\"records_replayed\":{ADOPTED}"),
    ] {
        if !store_doc.contains(needle) {
            return Err(format!("/v1/store missing {needle}: {store_doc}"));
        }
    }
    if !http_get(http, "/v1/events")?.contains("store_recovery") {
        return Err("journal has no store_recovery event after a warm boot".into());
    }
    let page = http_get(http, "/v1/metrics")?;
    let warm_prefixes = metric_value(&page, "infilter_eia_prefixes").unwrap_or(-1.0) as u64;
    if warm_prefixes != expected_prefixes {
        return Err(format!(
            "warm boot published {warm_prefixes} EIA prefixes, expected {expected_prefixes} \
             (re-training window not skipped?)"
        ));
    }
    http_post(http, "/v1/shutdown", "")?;
    let report = daemon.shutdown();
    if !report.events.iter().any(|e| e.event.kind() == "store_seal") {
        return Err("shutdown did not journal a store_seal".into());
    }

    // Phase 3 — the state the shutdown sealed round-trips once more.
    let sealed_adopted = {
        let store = DiskStore::open(&dir).map_err(|e| e.to_string())?;
        let replay = store.replay().map_err(|e| e.to_string())?;
        let doc = replay
            .snapshot
            .as_ref()
            .ok_or("shutdown left no sealed snapshot")?;
        let mut recovered = cfg.eia_registry(threshold);
        restore_registry(&replay, &mut recovered);
        if recovered.snapshot() != live.snapshot() {
            return Err("post-shutdown recovery is not bit-identical".into());
        }
        doc.adopted
    };
    if sealed_adopted != u64::from(ADOPTED) {
        return Err(format!(
            "sealed snapshot carries adopted={sealed_adopted}, expected {ADOPTED}"
        ));
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(RestartReport {
        replayed: u64::from(ADOPTED),
        warm_prefixes,
        sealed_adopted,
    })
}

/// First sample value for `name` in a Prometheus text page. `name` may
/// include a label set (exact string match on the sample line).
pub fn metric_value(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

fn http_roundtrip(addr: SocketAddr, request: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    if !response.starts_with("HTTP/1.1 200") && !response.starts_with("HTTP/1.1 400") {
        return Err(format!(
            "unexpected status: {}",
            response.lines().next().unwrap_or("")
        ));
    }
    Ok(body)
}

/// Minimal HTTP GET against the control plane.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    http_roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: infilterd\r\nConnection: close\r\n\r\n"),
    )
}

/// Minimal HTTP POST against the control plane.
pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    http_roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: infilterd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}
