//! NetFlow version 5 substrate: wire format, flow keys, and a flow cache
//! with the standard expiry rules.
//!
//! The paper's detection pipeline consumes NetFlow v5 records exported by
//! border routers (or, on the testbed, synthesised by Dagflow). This crate
//! implements the actual v5 datagram layout — 24-byte header plus up to 30
//! 48-byte records — so the collector path exercises real encode/decode, and
//! a [`FlowCache`] that aggregates packet observations into flows and expires
//! them under the four conditions the paper lists (§5.1.1):
//!
//! 1. the flow has been idle longer than the idle timeout,
//! 2. the flow has been active longer than the active timeout,
//! 3. the cache is close to full,
//! 4. a TCP FIN or RST was seen.
//!
//! # Examples
//!
//! ```
//! use infilter_netflow::{Datagram, FlowRecord};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let record = FlowRecord {
//!     src_addr: "192.4.1.10".parse()?,
//!     dst_addr: "96.1.0.20".parse()?,
//!     src_port: 34567,
//!     dst_port: 80,
//!     protocol: 6,
//!     packets: 12,
//!     octets: 4800,
//!     first_ms: 1_000,
//!     last_ms: 1_900,
//!     ..FlowRecord::default()
//! };
//! let dg = Datagram::new(0, 1_900, &[record.clone()]);
//! let bytes = dg.encode();
//! let decoded = Datagram::decode(&bytes)?;
//! assert_eq!(decoded.records[0], record);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod record;
mod wire;

pub use batch::FlowBatch;
pub use cache::{CacheConfig, ExpiryReason, FlowCache, PacketObs};
pub use record::{FlowKey, FlowRecord, FlowStats};
pub use wire::{Datagram, DecodeError, Header, MAX_RECORDS_PER_DATAGRAM};

/// TCP FIN flag bit as it appears in NetFlow `tcp_flags`.
pub const TCP_FIN: u8 = 0x01;
/// TCP SYN flag bit.
pub const TCP_SYN: u8 = 0x02;
/// TCP RST flag bit.
pub const TCP_RST: u8 = 0x04;
/// TCP ACK flag bit.
pub const TCP_ACK: u8 = 0x10;
