//! Synthetic traffic substrate replacing the paper's CAIDA/NLANR traces and
//! captured attack tools.
//!
//! The paper feeds its testbed from two kinds of previously captured
//! traces: "normal" Internet traffic (CAIDA/NLANR) and twelve attack traces
//! captured from real tools (Nessus, nmap, Slammer, TFN2K, Puke, Jolt,
//! Teardrop, …). Neither data set is redistributable, so this crate
//! generates distribution-matched substitutes at the *flow* level — the
//! granularity the whole detection pipeline operates at:
//!
//! * [`NormalProfile`] draws flows from per-application mixtures (HTTP,
//!   SMTP, FTP, DNS, other-TCP, other-UDP, ICMP) with log-normal sizes and
//!   durations, matching the subcluster partition of §5.1.3(c);
//! * [`AttackKind`] enumerates the twelve attacks and generates each one's
//!   flow-level footprint (single-packet malformed flows for the stealthy
//!   attacks, host/port fan-out for scans, sustained floods for TFN2K);
//! * [`Trace`] is the replayable artifact `infilter_dagflow` consumes —
//!   the stand-in for the paper's DAG-format trace files.
//!
//! Sources and destinations in a [`FlowTemplate`] are abstract *slots*;
//! Dagflow maps them onto concrete addresses from its allocated sub-blocks,
//! which is exactly how the paper's tool "can replace the source IP
//! addresses in the generated NetFlow records".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod dist;
mod profile;
mod trace;

pub use attack::{AttackInstance, AttackKind};
pub use dist::{LogNormal, Pareto};
pub use profile::{AppClass, NormalProfile};
pub use trace::{FlowTemplate, Trace};
