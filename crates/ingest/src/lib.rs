//! `infilterd`: the production NetFlow v5 ingest daemon.
//!
//! The paper's InFilter prototype sits at a border router consuming a live
//! NetFlow feed; this crate is that collector for the reproduction. It
//! turns the library into a runnable system:
//!
//! * **Listeners** ([`Intake`]): N threads share the UDP socket, decode
//!   each datagram with the `infilter-netflow` wire codec (malformed
//!   payloads counted and dropped, never a panic), and enqueue per-ingress
//!   batches onto bounded lock-free rings. Full rings shed with
//!   accounting instead of blocking the socket.
//! * **Worker** ([`IngestPump`]): one thread owns the engine — any
//!   [`infilter_core::Engine`] — and drains the rings, trading analysis
//!   depth for drain rate under load via the three-rung degradation
//!   [`Ladder`]: full EI → skip NNS (EIA + scan) → BI only, driven by
//!   queue-depth watermarks with hysteretic recovery.
//! * **Control plane** ([`Daemon`]): `GET /v1/metrics` (Prometheus text,
//!   engine + `infilterd_*` families), `GET /v1/alerts` (drained IDMEF
//!   XML), `GET /v1/explain` (flight-recorder trail), `POST /v1/reload`
//!   (EIA hot-reload through the snapshot republish machinery),
//!   `POST /v1/shutdown`, `GET /v1/healthz`, … — every route is under
//!   `/v1/` and nowhere else.
//! * **Shutdown** ([`Daemon::shutdown`]): drains every ring, flushes
//!   buffered EIA adoptions, and returns a [`FinalReport`].
//!
//! The [`smoke`] module is the CI gate: Dagflow replays a Slammer-laced
//! trace over real loopback UDP and asserts alerts fire, the counters add
//! up and every route answers, end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod config;
mod daemon;
mod intake;
mod ladder;
mod metrics;
mod pump;
pub mod smoke;

pub use config::{parse_eia_table, DaemonConfig, DaemonConfigBuilder, ParseError};
pub use daemon::{Daemon, FinalReport};
pub use intake::{Batch, BatchTrace, Intake};
pub use ladder::{Ladder, LadderConfig, Transition};
pub use metrics::{IngestMetrics, IngestSnapshot};
pub use pump::IngestPump;
