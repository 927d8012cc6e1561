//! Observability primitives for the InFilter pipeline.
//!
//! This crate is deliberately **generic and dependency-free**: it knows
//! nothing about flows, peers, or verdicts. `infilter-core` depends on it
//! and supplies the domain types (the flight-recorder payload, the metric
//! names, the bucket bounds). The pieces:
//!
//! * [`Histogram`] / [`AtomicHistogram`] — log-linear HDR-style value
//!   histograms with bounded relative error and p50/p90/p99/p999 readout.
//!   The atomic variant is lock-free (relaxed per-bucket counters) so the
//!   sharded analyzer can record from many threads without coordination.
//! * [`Ring`] — a fixed-capacity, non-blocking flight-recorder ring buffer.
//!   Writers never wait: a slot that is momentarily held by another writer
//!   is skipped and counted in [`Ring::dropped`].
//! * [`Family`] — a keyed family of default-constructed counter cells
//!   (e.g. per-peer counters), read-lock fast path on the hot side.
//! * [`PromText`] — a Prometheus text-format (0.0.4) exposition renderer,
//!   and [`page_families`], which reads a rendered page's family
//!   declarations back.
//! * [`trace`] — a sampled span tracer: head-based 1-in-N decisions
//!   ([`Tracer`]), pre-allocated thread-local span buffers, a lock-free
//!   collector ring of [`CompletedTrace`]s, Chrome trace-event export,
//!   and histogram [`Exemplar`] linkage.
//! * [`Journal`] — a bounded, sequence-numbered structured event journal
//!   whose gapless sequence numbers make retention losses auditable.
//! * [`CountMin`] / [`SpaceSaving`] / [`Hll`] — fixed-memory, mergeable
//!   streaming sketches with proven error bounds, for attack-shape
//!   summaries (point frequency, top-K heavy hitters, distinct counts).
//! * [`WindowRing`] — a pre-allocated ring of per-interval aggregate
//!   snapshots answering "last N intervals" queries in bounded memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod family;
mod histogram;
mod journal;
mod prometheus;
mod ring;
mod sketch;
pub mod trace;
mod window;

pub use family::Family;
pub use histogram::{AtomicHistogram, Histogram, LatencySummary, BUCKETS, SUB_BUCKET_BITS};
pub use journal::{Journal, SeqEvent};
pub use prometheus::{page_families, PromText};
pub use ring::Ring;
pub use sketch::{CountMin, Hll, SpaceSaving, TopEntry};
pub use trace::{chrome_trace_json, CompletedTrace, Exemplar, Span, Tracer, MAX_SPANS};
pub use window::WindowRing;
