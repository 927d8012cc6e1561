//! Daemon end-to-end over real loopback sockets: UDP NetFlow in, verdicts
//! and IDMEF alerts out, the control plane answering, and a graceful
//! HTTP-initiated shutdown. Basic mode keeps it fast and deterministic —
//! the full Enhanced-mode gate lives behind `infilterd --smoke`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use infilter_core::{Mode, PeerId};
use infilter_dagflow::{eia_table, AddressMapper, Dagflow, DagflowConfig};
use infilter_ingest::bootstrap::{bootstrap_engine, BootstrapConfig};
use infilter_ingest::smoke::{http_get, http_post, metric_value};
use infilter_ingest::{Daemon, DaemonConfig};
use infilter_net::SubBlock;
use infilter_traffic::NormalProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PACE: Duration = Duration::from_micros(200);

#[test]
fn daemon_ingests_alerts_and_shuts_down_gracefully() {
    let blocks_per_peer = 40;
    let eia = eia_table(2, blocks_per_peer);
    let mut builder = DaemonConfig::builder()
        .mode(Mode::Basic)
        .listeners(2)
        .rings(2)
        // Trace every datagram so /trace has content by the time the
        // replay finishes (head sampling, forced to 1-in-1).
        .trace_sample_every(1)
        // Sketch every suspect so /ops ranks the pinned spoofed source
        // deterministically.
        .shape_sample_every(1);
    for (i, blocks) in eia.iter().enumerate() {
        for b in blocks {
            builder = builder.peer(PeerId(i as u16 + 1), b.prefix());
        }
    }
    let cfg = builder.build().expect("valid config");
    let boot = BootstrapConfig::default();
    let engine = bootstrap_engine(&cfg, &boot).expect("bootstrap");
    let daemon = Daemon::spawn(engine, &cfg).expect("spawn");
    let (udp, http) = (daemon.udp_addr(), daemon.http_addr());

    // Peer 1's own traffic, then spoofed flows drawn from peer 2's blocks
    // arriving through peer 1 — the Basic-mode attack signature.
    let trace = NormalProfile::default().generate(&mut StdRng::seed_from_u64(11), 120, 20_000);
    let mut own = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(eia[0].iter().copied()),
        target_prefix: boot.target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    let mut sent = own.replay_to(&trace, 0, udp, PACE).expect("replay").flows;
    let foreign: Vec<SubBlock> = (blocks_per_peer..2 * blocks_per_peer)
        .map(|i| SubBlock::from_linear(i).expect("in range"))
        .collect();
    let mut spoof_trace =
        NormalProfile::default().generate(&mut StdRng::seed_from_u64(13), 40, 5_000);
    // Pin every spoofed flow to one source slot so a single address
    // dominates the attack-shape top-K below.
    for f in &mut spoof_trace.flows {
        f.src_slot = 7;
    }
    let spoofed_src = AddressMapper::from_sub_blocks(foreign.iter().copied()).addr_for_slot(7);
    let mut spoofer = Dagflow::new(DagflowConfig {
        sources: AddressMapper::from_sub_blocks(foreign),
        target_prefix: boot.target_prefix,
        export_port: 9001,
        input_if: 1,
        src_as: 1,
    });
    sent += spoofer
        .replay_to(&spoof_trace, 25_000, udp, PACE)
        .expect("spoofed replay")
        .flows;

    // Wait for the intake to see the whole replay (UDP may shed a little).
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let page = http_get(http, "/v1/metrics").expect("metrics route");
        let flows = metric_value(&page, "infilterd_flows_total").unwrap_or(0.0) as u64;
        if flows >= sent * 8 / 10 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "intake saw only {flows} of {sent} flows within 15s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let healthz = http_get(http, "/v1/healthz").expect("healthz");
    assert!(
        healthz.starts_with("ok eia_version=") && healthz.contains(" eia_age_seconds="),
        "healthz reports snapshot health: {healthz:?}"
    );
    // A route has one spelling: anything else, the unversioned path of a
    // real route included, is a 404.
    for path in ["/v1/nope", "/metrics", "/healthz"] {
        let status = http_get(http, path).expect_err("not a route");
        assert!(status.contains(" 404 "), "GET {path}: {status}");
    }

    // A body length the daemon will not buffer is refused before a byte of
    // it is read, and the control thread goes on answering.
    let mut oversized = TcpStream::connect(http).expect("connect");
    oversized
        .write_all(
            b"POST /v1/reload HTTP/1.1\r\nHost: infilterd\r\nContent-Length: 1099511627776\r\n\r\n",
        )
        .expect("send");
    let mut refusal = String::new();
    oversized.read_to_string(&mut refusal).expect("reply");
    assert!(refusal.starts_with("HTTP/1.1 413 "), "{refusal:?}");
    assert!(http_get(http, "/v1/healthz").is_ok(), "still serving");

    // /ops serves the attack-shape document: well-formed JSON whose top-K
    // suspected-source table ranks the pinned spoofed address first.
    let ops = http_get(http, "/v1/ops?window=8").expect("ops route");
    assert!(ops.starts_with('{'), "ops JSON: {ops}");
    assert!(ops.trim_end().ends_with('}'), "ops JSON: {ops}");
    for key in [
        "\"window_secs\"",
        "\"eia\"",
        "\"top_sources\"",
        "\"top_peers\"",
        "\"peers\"",
        "\"windows\"",
    ] {
        assert!(ops.contains(key), "`{key}` missing from /ops:\n{ops}");
    }
    assert!(
        ops.contains(&format!("\"top_sources\":[{{\"addr\":\"{spoofed_src}\"")),
        "spoofed source {spoofed_src} must rank first in /ops top_sources:\n{ops}"
    );

    // /trace serves Chrome trace-event JSON with the full span pipeline:
    // every datagram is sampled above, so the listener-side spans (recv,
    // decode, queue_wait) and the engine spans (eia, verdict) must all be
    // present. (scan/nns spans need Enhanced mode — `infilterd --smoke`
    // asserts them.)
    let trace = http_get(http, "/v1/trace?last=64").expect("trace route");
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "chrome JSON: {trace}"
    );
    assert!(trace.trim_end().ends_with("]}"), "chrome JSON: {trace}");
    for span in ["recv", "decode", "queue_wait", "eia", "verdict"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "span `{span}` missing from /trace:\n{trace}"
        );
    }
    assert!(trace.contains("\"ph\":\"X\""), "complete events: {trace}");

    // /events serves the ordered journal; the spoofed replay above must
    // have journalled alert emissions.
    let events = http_get(http, "/v1/events?last=256").expect("events route");
    assert!(events.starts_with("{\"events\":["), "events JSON: {events}");
    assert!(
        events.contains("\"kind\":\"alert\""),
        "alert events missing from /events:\n{events}"
    );
    assert!(events.contains("\"seq\":"), "sequence numbers: {events}");

    // HTTP-initiated shutdown: the flag flips, wait() unblocks, and the
    // graceful teardown drains everything into the final report.
    assert!(!daemon.stop_requested());
    let reply = http_post(http, "/v1/shutdown", "").expect("shutdown route");
    assert!(reply.contains("shutting down"));
    daemon.wait();
    let report = daemon.shutdown();
    assert!(report.engine.flows > 0);
    assert_eq!(report.engine.flows, report.ingest.flows);
    assert!(
        report.engine.attacks() > 0,
        "spoofed flows must flag in Basic mode"
    );
    assert!(
        !report.alerts.is_empty(),
        "unfetched alerts surface in the final report"
    );
    assert!(
        !report.events.is_empty(),
        "alert emissions must appear in the final journal"
    );
    assert_eq!(
        metric_value(&report.exposition, "infilter_flows_total"),
        Some(report.engine.flows as f64),
        "the final page carries the engine's closing counters"
    );
    assert!(
        report.exposition.contains("infilterd_traces_sampled_total"),
        "trace counters must be on the exposition page"
    );
}
