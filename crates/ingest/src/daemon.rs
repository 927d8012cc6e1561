//! The daemon proper: UDP listeners, one engine-owning worker, and the
//! TCP control plane, glued by the shared [`Intake`] and a control
//! channel.
//!
//! Threading model:
//!
//! * **N listener threads** share the UDP socket (cloned handles, short
//!   read timeout so shutdown is prompt). They only receive, decode and
//!   enqueue — never touch the engine — so socket drain rate is
//!   independent of analysis cost.
//! * **One worker thread** owns the engine (this single-owner design is
//!   what lets the daemon be generic over [`Engine`]'s `&mut self`
//!   surface) and runs the [`IngestPump`] loop, interleaving control
//!   requests between pump steps.
//! * **One control thread** serves HTTP on the `serve` socket. The
//!   surface is versioned under `/v1/` (`/v1/metrics`, `/v1/alerts`,
//!   `/v1/explain`, `/v1/ops`, `/v1/store`, `/v1/reload`,
//!   `/v1/shutdown`, …); one table ([`ROUTES`]) defines every route, each
//!   under one spelling, and anything else is a 404. Requests that
//!   need engine state are forwarded to the worker over a channel with a
//!   per-request reply channel; `/healthz` answers locally (from the
//!   shared [`SnapshotHealth`]), so liveness checks keep working even if
//!   the worker wedges.
//!
//! Shutdown ([`DaemonHandle::shutdown`]) is graceful by construction:
//! listeners stop accepting, the worker drains every ring to empty,
//! flushes buffered EIA adoptions, and hands back a [`FinalReport`] with
//! the closing telemetry and any still-spooled alerts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use infilter_core::{
    render_events_json, AnalyzerMetrics, Engine, FlowDecision, IdmefAlert, JournalEvent, PeerId,
    SnapshotHealth,
};
use infilter_net::Prefix;
use infilter_netflow::FlowBatch;
use infilter_store::EiaStore;
use infilter_telemetry::trace::now_ns;
use infilter_telemetry::{chrome_trace_json, Journal, SeqEvent, Tracer};

use crate::config::{parse_eia_table, DaemonConfig};
use crate::intake::Intake;
use crate::metrics::{IngestMetrics, IngestSnapshot};
use crate::pump::IngestPump;

/// Largest datagram the listeners accept. NetFlow v5 caps at
/// 24 + 30 × 48 = 1464 bytes; the headroom tolerates padded senders.
const MAX_DATAGRAM: usize = 2048;

/// How long a listener blocks in `recv_from` before re-checking the
/// shutdown flag.
const RECV_TIMEOUT: Duration = Duration::from_millis(25);

/// Worker nap when the rings are empty and no control work is pending.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// What the worker hands back when the daemon shuts down.
#[derive(Debug)]
pub struct FinalReport {
    /// Closing engine counters.
    pub engine: AnalyzerMetrics,
    /// Closing collector counters.
    pub ingest: IngestSnapshot,
    /// Alerts still spooled at shutdown (oldest first).
    pub alerts: Vec<IdmefAlert>,
    /// The final exposition page (engine + ingest families).
    pub exposition: String,
    /// The newest structured journal events at shutdown, newest first.
    pub events: Vec<SeqEvent<JournalEvent>>,
}

/// Requests the control plane forwards to the engine-owning worker.
enum Control {
    Metrics(mpsc::Sender<String>),
    Alerts(usize, mpsc::Sender<Vec<IdmefAlert>>),
    Explain(usize, mpsc::Sender<Vec<FlowDecision>>),
    Ops(usize, mpsc::Sender<String>),
    Store(mpsc::Sender<String>),
    Reload(Vec<(PeerId, Prefix)>, mpsc::Sender<usize>),
    Finish(mpsc::Sender<FinalReport>),
}

/// A running daemon: the spawned threads plus the addresses they bound.
pub struct Daemon {
    udp_addr: SocketAddr,
    http_addr: SocketAddr,
    control: mpsc::Sender<Control>,
    stop: Arc<AtomicBool>,
    stop_requested: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the sockets and spawns the listener, worker and control
    /// threads around an already-trained engine.
    ///
    /// # Errors
    ///
    /// Fails if either socket cannot bind or clone.
    pub fn spawn<E>(engine: E, cfg: &DaemonConfig) -> std::io::Result<Daemon>
    where
        E: Engine + Send + 'static,
    {
        Daemon::spawn_with_store(engine, cfg, None)
    }

    /// [`Daemon::spawn`], with an optional durable EIA store. The worker
    /// thread takes ownership: adoption events drain into it between pump
    /// steps, it compacts every `cfg.store_compact_every` records, and
    /// shutdown seals a final snapshot before the report is produced.
    ///
    /// # Errors
    ///
    /// Fails if either socket cannot bind or clone.
    pub fn spawn_with_store<E>(
        engine: E,
        cfg: &DaemonConfig,
        store: Option<Box<dyn EiaStore + Send>>,
    ) -> std::io::Result<Daemon>
    where
        E: Engine + Send + 'static,
    {
        let metrics = Arc::new(IngestMetrics::default());
        let tracer = Arc::new(Tracer::new(cfg.trace_sample_every, cfg.trace_capacity));
        // The journal is the engine's own (ladder moves, sheds, reloads and
        // alerts all land in one ordered stream), shared with the intake
        // and served by the control plane without a worker round-trip.
        let journal = Arc::clone(engine.telemetry().journal());
        // Snapshot health is shared the same way so `/healthz` can report
        // EIA version and age without a worker round-trip.
        let health = Arc::clone(engine.telemetry().snapshot_health());
        let intake = Arc::new(Intake::with_observers(
            cfg.rings,
            cfg.ring_capacity,
            metrics,
            Arc::clone(&tracer),
            Arc::clone(&journal),
        ));
        let mut pump = IngestPump::new(
            engine,
            Arc::clone(&intake),
            cfg.ladder,
            cfg.batch_budget,
            cfg.alert_spool,
        );
        if let Some(store) = store {
            pump.set_store(store, cfg.store_compact_every);
        }

        let udp = UdpSocket::bind(&cfg.listen)?;
        udp.set_read_timeout(Some(RECV_TIMEOUT))?;
        let udp_addr = udp.local_addr()?;
        let http = TcpListener::bind(&cfg.serve)?;
        http.set_nonblocking(true)?;
        let http_addr = http.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stop_requested = Arc::new(AtomicBool::new(false));
        let (ctl_tx, ctl_rx) = mpsc::channel::<Control>();
        let mut threads = Vec::new();

        for i in 0..cfg.listeners.max(1) {
            let socket = udp.try_clone()?;
            let intake = Arc::clone(&intake);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("infilterd-rx{i}"))
                    .spawn(move || listener_loop(&socket, &intake, &stop))
                    .expect("spawn listener"),
            );
        }

        {
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("infilterd-worker".to_string())
                    .spawn(move || worker_loop(pump, &ctl_rx, &stop))
                    .expect("spawn worker"),
            );
        }

        {
            let ctl_tx = ctl_tx.clone();
            let stop = Arc::clone(&stop);
            let stop_requested = Arc::clone(&stop_requested);
            let tracer = Arc::clone(&tracer);
            let journal = Arc::clone(&journal);
            let health = Arc::clone(&health);
            threads.push(
                std::thread::Builder::new()
                    .name("infilterd-http".to_string())
                    .spawn(move || {
                        http_loop(
                            &http,
                            &ctl_tx,
                            &stop,
                            &stop_requested,
                            &tracer,
                            &journal,
                            &health,
                        )
                    })
                    .expect("spawn control plane"),
            );
        }

        Ok(Daemon {
            udp_addr,
            http_addr,
            control: ctl_tx,
            stop,
            stop_requested,
            threads,
        })
    }

    /// The UDP address exporters should send NetFlow v5 to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The TCP address serving the control plane.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Whether `POST /v1/shutdown` has been received.
    pub fn stop_requested(&self) -> bool {
        self.stop_requested.load(Ordering::Relaxed)
    }

    /// Blocks until `POST /v1/shutdown` arrives on the control plane.
    pub fn wait(&self) {
        while !self.stop_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Graceful shutdown: stop accepting, drain every ring through the
    /// engine, flush adoptions, join all threads, and return the final
    /// telemetry.
    pub fn shutdown(mut self) -> FinalReport {
        let (tx, rx) = mpsc::channel();
        // The worker drains before replying; listeners keep feeding until
        // `stop` flips, which Finish handling does first.
        let _ = self.control.send(Control::Finish(tx));
        let report = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("worker produces a final report");
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        report
    }
}

fn listener_loop(socket: &UdpSocket, intake: &Intake, stop: &AtomicBool) {
    let mut buf = [0u8; MAX_DATAGRAM];
    // The batch the next datagram decodes into. A well-formed datagram
    // leaves with it and a recycled batch takes its place, so the loop
    // allocates only until the return ring has warmed up.
    let mut scratch = FlowBatch::with_capacity(infilter_netflow::MAX_RECORDS_PER_DATAGRAM);
    while !stop.load(Ordering::Relaxed) {
        let recv_start_ns = now_ns();
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                intake.push_payload_stamped(&buf[..n], &mut scratch, recv_start_ns, now_ns())
            }
            Err(e) if recv_retries(e.kind()) => {}
            Err(_) => break,
        }
    }
}

/// Whether a failed `recv_from` only means "nothing yet, ask again": the
/// read timeout that lets the loop poll `stop`, or a signal that cut the
/// wait short — std does not retry `recvfrom`, and with `SO_RCVTIMEO` set
/// Linux returns `EINTR` after a stop/continue (signal(7)).
fn recv_retries(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(kind, WouldBlock | TimedOut | Interrupted)
}

fn worker_loop<E: Engine>(
    mut pump: IngestPump<E>,
    ctl: &mpsc::Receiver<Control>,
    stop: &AtomicBool,
) {
    loop {
        let mut finish = None;
        while let Ok(msg) = ctl.try_recv() {
            match msg {
                Control::Metrics(reply) => {
                    let _ = reply.send(pump.prometheus_text());
                }
                Control::Alerts(max, reply) => {
                    let _ = reply.send(pump.take_alerts(max));
                }
                Control::Explain(n, reply) => {
                    let _ = reply.send(pump.engine().explain_last(n));
                }
                Control::Ops(n, reply) => {
                    let _ = reply.send(pump.engine().ops_json(n));
                }
                Control::Store(reply) => {
                    let _ = reply.send(pump.store_json());
                }
                Control::Reload(peers, reply) => {
                    let _ = reply.send(pump.reload_eia_table(peers));
                }
                Control::Finish(reply) => {
                    finish = Some(reply);
                }
            }
        }
        if let Some(reply) = finish {
            // Stop the listeners first so the drain converges.
            stop.store(true, Ordering::SeqCst);
            pump.drain();
            // Flush published adoption events and seal the final table so
            // the next boot replays exactly what this run adopted.
            pump.finish_store();
            let exposition = pump.prometheus_text();
            let events = pump.engine().telemetry().journal().last(256);
            let report = FinalReport {
                engine: pump.engine().metrics(),
                ingest: pump.metrics().snapshot(),
                alerts: pump.take_alerts(0),
                exposition,
                events,
            };
            let _ = reply.send(report);
            return;
        }
        if stop.load(Ordering::Relaxed) {
            // Shutdown without a Finish request (handle dropped): drain,
            // still seal the store, and exit so the join never hangs.
            pump.drain();
            pump.finish_store();
            return;
        }
        if pump.step() == 0 {
            std::thread::sleep(IDLE_NAP);
        }
    }
}

fn http_loop(
    listener: &TcpListener,
    ctl: &mpsc::Sender<Control>,
    stop: &AtomicBool,
    stop_requested: &AtomicBool,
    tracer: &Arc<Tracer>,
    journal: &Arc<Journal<JournalEvent>>,
    health: &Arc<SnapshotHealth>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_request(stream, ctl, stop_requested, tracer, journal, health);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reply deadline for worker-backed routes; a wedged worker turns into
/// 503s, not hung scrapes.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Every control-plane endpoint, dispatched from the [`ROUTES`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    Metrics,
    Alerts,
    Explain,
    Ops,
    Store,
    Trace,
    Events,
    Reload,
    Shutdown,
}

/// The control-plane routing table: `(method, path, route)`. A route has
/// this one spelling; the README's route table is generated from here.
const ROUTES: &[(&str, &str, Route)] = &[
    ("GET", "/v1/healthz", Route::Healthz),
    ("GET", "/v1/metrics", Route::Metrics),
    ("GET", "/v1/alerts", Route::Alerts),
    ("GET", "/v1/explain", Route::Explain),
    ("GET", "/v1/ops", Route::Ops),
    ("GET", "/v1/store", Route::Store),
    ("GET", "/v1/trace", Route::Trace),
    ("GET", "/v1/events", Route::Events),
    ("POST", "/v1/reload", Route::Reload),
    ("POST", "/v1/shutdown", Route::Shutdown),
];

/// Every route's path, in table order (the boot banner prints them).
pub(crate) fn route_paths() -> impl Iterator<Item = &'static str> {
    ROUTES.iter().map(|&(_, path, _)| path)
}

/// Resolves a request line against [`ROUTES`].
fn resolve_route(method: &str, path_only: &str) -> Option<Route> {
    ROUTES
        .iter()
        .find(|(m, p, _)| *m == method && *p == path_only)
        .map(|&(_, _, route)| route)
}

fn handle_request(
    mut stream: TcpStream,
    ctl: &mpsc::Sender<Control>,
    stop_requested: &AtomicBool,
    tracer: &Arc<Tracer>,
    journal: &Arc<Journal<JournalEvent>>,
    health: &Arc<SnapshotHealth>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let (request_line, body) = read_request(&mut stream)?;
    let Some(body) = body else {
        let refusal = format!("request body exceeds {MAX_BODY} bytes\n");
        return respond(&mut stream, "413 Payload Too Large", "text/plain", &refusal);
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path_only = path.split('?').next().unwrap_or(path);

    let (status, content_type, body) = match resolve_route(method, path_only) {
        Some(Route::Healthz) => (
            "200 OK",
            "text/plain",
            format!(
                "ok eia_version={} eia_age_seconds={}\n",
                health.version(),
                health.age_seconds()
            ),
        ),
        Some(Route::Metrics) => {
            worker_reply("text/plain; version=0.0.4", ask(ctl, Control::Metrics))
        }
        Some(Route::Alerts) => {
            let max = query_param(path, "max").unwrap_or(0);
            let alerts = ask(ctl, |reply| Control::Alerts(max, reply));
            let xml = alerts.map(|alerts| alerts.iter().map(|a| a.to_xml() + "\n").collect());
            worker_reply("application/xml", xml)
        }
        Some(Route::Explain) => {
            let n = query_param(path, "n").unwrap_or(16);
            let trail = ask(ctl, |reply| Control::Explain(n, reply));
            let text = trail.map(|trail| trail.iter().map(|d| d.describe() + "\n").collect());
            worker_reply("text/plain", text)
        }
        Some(Route::Ops) => {
            let n = query_param(path, "window").unwrap_or(12);
            worker_reply("application/json", ask(ctl, |reply| Control::Ops(n, reply)))
        }
        Some(Route::Store) => worker_reply("application/json", ask(ctl, Control::Store)),
        Some(Route::Reload) => match parse_eia_table(&body) {
            Ok(peers) => {
                let prefixes = ask(ctl, |reply| Control::Reload(peers, reply));
                let text = prefixes.map(|n: usize| format!("reloaded {n} prefixes\n"));
                worker_reply("text/plain", text)
            }
            Err(e) => (
                "400 Bad Request",
                "text/plain",
                format!("bad EIA table: {e}\n"),
            ),
        },
        // Both observability documents are served from shared state —
        // no worker round-trip, so they stay readable under overload.
        Some(Route::Trace) => {
            let n = query_param(path, "last").unwrap_or(64);
            (
                "200 OK",
                "application/json",
                chrome_trace_json(&tracer.last(n)),
            )
        }
        Some(Route::Events) => {
            let n = query_param(path, "last").unwrap_or(256);
            (
                "200 OK",
                "application/json",
                render_events_json(&journal.last(n)),
            )
        }
        Some(Route::Shutdown) => {
            stop_requested.store(true, Ordering::SeqCst);
            ("200 OK", "text/plain", "shutting down\n".to_string())
        }
        None => (
            "404 Not Found",
            "text/plain",
            format!("no route for {method} {path_only}\n"),
        ),
    };

    respond(&mut stream, status, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// The response to a worker-backed route: the worker's reply, or a 503
/// when it is gone or silent past [`REPLY_TIMEOUT`].
fn worker_reply(
    content_type: &'static str,
    reply: Option<String>,
) -> (&'static str, &'static str, String) {
    match reply {
        Some(body) => ("200 OK", content_type, body),
        None => (
            "503 Service Unavailable",
            "text/plain",
            "worker unavailable\n".to_string(),
        ),
    }
}

/// Extracts a numeric query parameter (`/v1/alerts?max=50`).
fn query_param(path: &str, key: &str) -> Option<usize> {
    let query = path.split_once('?')?.1;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.parse().ok())?
    })
}

/// Sends one control request carrying a fresh reply channel; `None` if
/// the worker is gone or silent past the deadline.
fn ask<T, F>(ctl: &mpsc::Sender<Control>, make: F) -> Option<T>
where
    F: FnOnce(mpsc::Sender<T>) -> Control,
{
    let (tx, rx) = mpsc::channel();
    ctl.send(make(tx)).ok()?;
    rx.recv_timeout(REPLY_TIMEOUT).ok()
}

/// Largest request body the control plane buffers. The only route with a
/// body is `POST /v1/reload`; a line of its table is at most 31 bytes
/// (`peer 65535 255.255.255.255/32`), so a million-prefix table fits.
const MAX_BODY: usize = 32 * 1024 * 1024;

/// Reads the request line, headers and (given `Content-Length`) the body.
/// The length is the sender's claim: one above [`MAX_BODY`] is refused
/// unread — the body comes back `None` and the caller answers 413.
fn read_request(stream: &mut TcpStream) -> std::io::Result<(String, Option<String>)> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let header_end = loop {
        match raw.windows(4).position(|w| w == b"\r\n\r\n") {
            Some(i) => break i + 4,
            None => {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    break raw.len();
                }
                raw.extend_from_slice(&buf[..n]);
                if raw.len() > 64 * 1024 {
                    break raw.len();
                }
            }
        }
    };
    let head = String::from_utf8_lossy(&raw[..header_end.min(raw.len())]).to_string();
    let request_line = head.lines().next().unwrap_or("").to_string();
    let content_length = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok((request_line, None));
    }
    let mut body = raw[header_end.min(raw.len())..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8_lossy(&body).to_string();
    Ok((request_line, Some(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_route_answers_to_its_one_spelling() {
        for (method, path, route) in ROUTES {
            assert_eq!(resolve_route(method, path), Some(*route));
            let unversioned = path.strip_prefix("/v1").expect("every route is under /v1");
            assert_eq!(resolve_route(method, unversioned), None);
        }
        assert_eq!(resolve_route("GET", "/v1"), None);
        assert_eq!(resolve_route("GET", "/v1metrics"), None);
        assert_eq!(resolve_route("POST", "/v1/metrics"), None);
        assert_eq!(resolve_route("GET", "/v1/nope"), None);
    }

    /// The metric contract is what the renderers emit and the route
    /// contract is [`ROUTES`]; the operator's copy of both is the block
    /// between two markers in README "Monitoring", held here to a rendered
    /// daemon page and the table byte for byte. Renaming, adding or
    /// removing a family or a route fails this test until the block is
    /// replaced with the one it prints.
    #[test]
    fn readme_reference_block_is_the_rendered_page_and_the_route_table() {
        use std::fmt::Write as _;
        let cfg = DaemonConfig::builder()
            .mode(infilter_core::Mode::Basic)
            .peer(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"))
            .build()
            .expect("valid config");
        let engine = crate::bootstrap::bootstrap_engine(&cfg, &Default::default())
            .expect("basic mode needs no training");
        let intake = Arc::new(Intake::new(1, 1, Arc::new(IngestMetrics::default())));
        let page = IngestPump::new(engine, intake, cfg.ladder, 1, 1).prometheus_text();

        let mut block = String::from("\n| family | type | help |\n|---|---|---|\n");
        for (name, kind, help) in infilter_telemetry::page_families(&page) {
            let _ = writeln!(block, "| `{name}` | {kind} | {help} |");
        }
        block.push_str("\n| method | route |\n|---|---|\n");
        for (method, path, _) in ROUTES {
            let _ = writeln!(block, "| {method} | `{path}` |");
        }
        block.push('\n');

        let readme = include_str!("../../../README.md");
        let found = readme
            .split_once("<!-- reference:begin -->")
            .and_then(|(_, rest)| rest.split_once("<!-- reference:end -->"))
            .map(|(found, _)| found);
        assert!(
            found == Some(block.as_str()),
            "README.md's reference block is stale. Between the reference:begin and \
             reference:end markers it must read:\n{block}"
        );
    }

    #[test]
    fn a_signal_or_a_timeout_keeps_the_listener_alive_a_real_error_ends_it() {
        use std::io::ErrorKind;
        // `EINTR`: what a SIGSTOP/SIGCONT leaves on a socket with
        // `SO_RCVTIMEO`.
        assert!(recv_retries(ErrorKind::Interrupted));
        assert!(recv_retries(ErrorKind::WouldBlock));
        assert!(recv_retries(ErrorKind::TimedOut));
        assert!(!recv_retries(ErrorKind::ConnectionRefused));
        assert!(!recv_retries(ErrorKind::Other));
    }
}
