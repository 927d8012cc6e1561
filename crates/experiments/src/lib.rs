//! Testbed assembly and experiment runners reproducing every table and
//! figure of the paper's evaluation (§6).
//!
//! * [`Testbed`] builds the Figure 13/14 environment: ten Dagflow sources
//!   emulating ten peer-AS/BR pairs of a target ISP, EIA sets preloaded
//!   from Table 3, controlled spoofed-attack injection and route-change
//!   emulation via the Table 2 allocation rotation.
//! * [`validation`] wraps the traceroute (§3.1) and BGP (§3.2 / Figure 5)
//!   hypothesis-validation campaigns with paper-scale parameters.
//! * [`baselines`] runs uRPF / history-filter / hop-count comparators on
//!   the identical testbed workload.
//! * Binaries (`exp-*`) regenerate each figure as a text table; `exp-all`
//!   runs the whole evaluation.
//!
//! The crate deliberately separates *workload generation* (deterministic in
//! the seed) from *measurement*, so every figure is reproducible run to
//! run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert_ui;
pub mod baselines;
pub mod figures;
pub mod init;
pub mod report;
pub mod testbed;
pub mod validation;

pub use testbed::{AttackPlacement, Testbed, TestbedConfig, TestbedOutcome};
