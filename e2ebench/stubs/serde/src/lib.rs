//! Offline stand-in for `serde`: the two trait names and their no-op
//! derives. The workspace only ever writes `#[derive(Serialize,
//! Deserialize)]`; no code on the benchmark's path calls a serialiser.

pub use serde_derive::{Deserialize, Serialize};

/// Name-only counterpart of `serde::Serialize`.
pub trait Serialize {}

/// Name-only counterpart of `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
