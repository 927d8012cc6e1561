use std::fmt;
use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::FlowRecord;

/// Maximum records per NetFlow v5 datagram (fixed by the specification; a
/// full datagram is 24 + 30 × 48 = 1464 bytes, fitting a 1500-byte MTU).
pub const MAX_RECORDS_PER_DATAGRAM: usize = 30;

const HEADER_LEN: usize = 24;
const RECORD_LEN: usize = 48;
const VERSION: u16 = 5;

/// The 24-byte NetFlow v5 datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Export format version; always 5.
    pub version: u16,
    /// Number of records in the datagram (1–30).
    pub count: u16,
    /// Milliseconds since the exporting device booted.
    pub sys_uptime_ms: u32,
    /// Seconds since the UNIX epoch at export time.
    pub unix_secs: u32,
    /// Residual nanoseconds at export time.
    pub unix_nsecs: u32,
    /// Sequence number of the first flow in this datagram (total flows seen).
    pub flow_sequence: u32,
    /// Type of flow-switching engine.
    pub engine_type: u8,
    /// Slot number of the flow-switching engine.
    pub engine_id: u8,
    /// Sampling mode (2 bits) and interval (14 bits).
    pub sampling_interval: u16,
}

/// A complete NetFlow v5 export datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Datagram {
    /// The datagram header.
    pub header: Header,
    /// The flow records (`header.count` of them).
    pub records: Vec<FlowRecord>,
}

impl Datagram {
    /// Builds a datagram carrying `records`, stamping the sequence number
    /// and uptime.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_RECORDS_PER_DATAGRAM`] records are given.
    pub fn new(flow_sequence: u32, sys_uptime_ms: u32, records: &[FlowRecord]) -> Datagram {
        assert!(
            records.len() <= MAX_RECORDS_PER_DATAGRAM,
            "{} records exceed the v5 limit of {MAX_RECORDS_PER_DATAGRAM}",
            records.len()
        );
        Datagram {
            header: Header {
                version: VERSION,
                count: records.len() as u16,
                sys_uptime_ms,
                unix_secs: sys_uptime_ms / 1000,
                unix_nsecs: (sys_uptime_ms % 1000) * 1_000_000,
                flow_sequence,
                engine_type: 0,
                engine_id: 0,
                sampling_interval: 0,
            },
            records: records.to_vec(),
        }
    }

    /// Serialises to the v5 wire format (network byte order).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.records.len() * RECORD_LEN);
        let h = &self.header;
        buf.put_u16(h.version);
        buf.put_u16(h.count);
        buf.put_u32(h.sys_uptime_ms);
        buf.put_u32(h.unix_secs);
        buf.put_u32(h.unix_nsecs);
        buf.put_u32(h.flow_sequence);
        buf.put_u8(h.engine_type);
        buf.put_u8(h.engine_id);
        buf.put_u16(h.sampling_interval);
        for r in &self.records {
            buf.put_slice(&encode_record(r));
        }
        buf.freeze()
    }

    /// Parses a v5 datagram.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a short buffer, wrong version, or a record
    /// count that disagrees with the payload length.
    pub fn decode(buf: &[u8]) -> Result<Datagram, DecodeError> {
        let (header, rows) = Header::split(buf)?;
        Ok(Datagram {
            header,
            records: rows.iter().map(decode_record).collect(),
        })
    }
}

impl Header {
    /// Checks and parses the header at the front of `buf` and returns it
    /// with the `count` record rows that follow it — the one place a v5
    /// datagram is validated, shared by [`Datagram::decode`] and
    /// [`FlowBatch::decode_datagram`](crate::FlowBatch::decode_datagram).
    /// Bytes past the last counted record are ignored.
    pub(crate) fn split(mut buf: &[u8]) -> Result<(Header, &[Row]), DecodeError> {
        if buf.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                need: HEADER_LEN,
                have: buf.len(),
            });
        }
        let version = buf.get_u16();
        if version != VERSION {
            return Err(DecodeError::WrongVersion(version));
        }
        let count = buf.get_u16();
        if count as usize > MAX_RECORDS_PER_DATAGRAM {
            return Err(DecodeError::BadCount(count));
        }
        let header = Header {
            version,
            count,
            sys_uptime_ms: buf.get_u32(),
            unix_secs: buf.get_u32(),
            unix_nsecs: buf.get_u32(),
            flow_sequence: buf.get_u32(),
            engine_type: buf.get_u8(),
            engine_id: buf.get_u8(),
            sampling_interval: buf.get_u16(),
        };
        let need = count as usize * RECORD_LEN;
        if buf.len() < need {
            return Err(DecodeError::Truncated {
                need: HEADER_LEN + need,
                have: HEADER_LEN + buf.len(),
            });
        }
        let (rows, _) = buf[..need].as_chunks::<RECORD_LEN>();
        Ok((header, rows))
    }
}

/// One v5 flow record as it sits on the wire: 48 bytes, network byte order.
pub(crate) type Row = [u8; RECORD_LEN];

// Byte offsets of the record fields within a [`Row`]; `PAD1` (one byte) and
// `PAD2` (two) carry nothing.
const SRC_ADDR: usize = 0;
const DST_ADDR: usize = 4;
const NEXT_HOP: usize = 8;
const INPUT_IF: usize = 12;
const OUTPUT_IF: usize = 14;
const PACKETS: usize = 16;
const OCTETS: usize = 20;
const FIRST_MS: usize = 24;
const LAST_MS: usize = 28;
const SRC_PORT: usize = 32;
const DST_PORT: usize = 34;
const PAD1: usize = 36;
const TCP_FLAGS: usize = 37;
const PROTOCOL: usize = 38;
const TOS: usize = 39;
const SRC_AS: usize = 40;
const DST_AS: usize = 42;
const SRC_MASK: usize = 44;
const DST_MASK: usize = 45;
const PAD2: usize = 46;

fn be16(row: &Row, at: usize) -> u16 {
    u16::from_be_bytes([row[at], row[at + 1]])
}

fn be32(row: &Row, at: usize) -> u32 {
    u32::from_be_bytes([row[at], row[at + 1], row[at + 2], row[at + 3]])
}

fn put16(row: &mut Row, at: usize, value: u16) {
    row[at..at + 2].copy_from_slice(&value.to_be_bytes());
}

fn put32(row: &mut Row, at: usize, value: u32) {
    row[at..at + 4].copy_from_slice(&value.to_be_bytes());
}

/// The source address of a wire record, as the bits the EIA table keys on.
pub(crate) fn row_src_addr(row: &Row) -> u32 {
    be32(row, SRC_ADDR)
}

/// The SNMP input interface of a wire record.
pub(crate) fn row_input_if(row: &Row) -> u16 {
    be16(row, INPUT_IF)
}

/// `row` with its pad bytes zeroed, so two rows are equal exactly when the
/// records they carry are: an exporter may leave anything in the padding.
pub(crate) fn canonical_row(mut row: Row) -> Row {
    row[PAD1] = 0;
    row[PAD2..].fill(0);
    row
}

/// The record codec, encode half: the canonical wire row of `r`.
pub(crate) fn encode_record(r: &FlowRecord) -> Row {
    let mut row = [0u8; RECORD_LEN];
    put32(&mut row, SRC_ADDR, r.src_addr.into());
    put32(&mut row, DST_ADDR, r.dst_addr.into());
    put32(&mut row, NEXT_HOP, r.next_hop.into());
    put16(&mut row, INPUT_IF, r.input_if);
    put16(&mut row, OUTPUT_IF, r.output_if);
    put32(&mut row, PACKETS, r.packets);
    put32(&mut row, OCTETS, r.octets);
    put32(&mut row, FIRST_MS, r.first_ms);
    put32(&mut row, LAST_MS, r.last_ms);
    put16(&mut row, SRC_PORT, r.src_port);
    put16(&mut row, DST_PORT, r.dst_port);
    row[TCP_FLAGS] = r.tcp_flags;
    row[PROTOCOL] = r.protocol;
    row[TOS] = r.tos;
    put16(&mut row, SRC_AS, r.src_as);
    put16(&mut row, DST_AS, r.dst_as);
    row[SRC_MASK] = r.src_mask;
    row[DST_MASK] = r.dst_mask;
    row
}

/// The record codec, decode half; the pad bytes are not read.
pub(crate) fn decode_record(row: &Row) -> FlowRecord {
    FlowRecord {
        src_addr: Ipv4Addr::from(be32(row, SRC_ADDR)),
        dst_addr: Ipv4Addr::from(be32(row, DST_ADDR)),
        next_hop: Ipv4Addr::from(be32(row, NEXT_HOP)),
        input_if: be16(row, INPUT_IF),
        output_if: be16(row, OUTPUT_IF),
        packets: be32(row, PACKETS),
        octets: be32(row, OCTETS),
        first_ms: be32(row, FIRST_MS),
        last_ms: be32(row, LAST_MS),
        src_port: be16(row, SRC_PORT),
        dst_port: be16(row, DST_PORT),
        tcp_flags: row[TCP_FLAGS],
        protocol: row[PROTOCOL],
        tos: row[TOS],
        src_as: be16(row, SRC_AS),
        dst_as: be16(row, DST_AS),
        src_mask: row[SRC_MASK],
        dst_mask: row[DST_MASK],
    }
}

/// Errors from [`Datagram::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer was shorter than the structure it claims to carry.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The version field was not 5.
    WrongVersion(u16),
    /// The record count exceeded the v5 maximum of 30.
    BadCount(u16),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated datagram: need {need} bytes, have {have}")
            }
            DecodeError::WrongVersion(v) => write!(f, "unsupported NetFlow version {v}"),
            DecodeError::BadCount(c) => write!(f, "record count {c} exceeds v5 maximum 30"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(i: u32) -> FlowRecord {
        FlowRecord {
            src_addr: Ipv4Addr::from(0x0a000001 + i),
            dst_addr: Ipv4Addr::from(0x60010014),
            next_hop: Ipv4Addr::from(0x59000001),
            input_if: 3,
            output_if: 7,
            packets: 10 + i,
            octets: 4000 + i,
            first_ms: 1000,
            last_ms: 2000 + i,
            src_port: 1024,
            dst_port: 80,
            tcp_flags: crate::TCP_SYN | crate::TCP_ACK,
            protocol: 6,
            tos: 0,
            src_as: 65001,
            dst_as: 65002,
            src_mask: 11,
            dst_mask: 16,
        }
    }

    #[test]
    fn wire_sizes_match_the_spec() {
        let dg = Datagram::new(0, 0, &[sample_record(0)]);
        assert_eq!(dg.encode().len(), 24 + 48);
        let full: Vec<FlowRecord> = (0..30).map(sample_record).collect();
        let dg = Datagram::new(0, 0, &full);
        assert_eq!(dg.encode().len(), 1464);
    }

    #[test]
    fn encode_decode_round_trip() {
        let records: Vec<FlowRecord> = (0..17).map(sample_record).collect();
        let dg = Datagram::new(42, 123_456, &records);
        let decoded = Datagram::decode(&dg.encode()).unwrap();
        assert_eq!(decoded, dg);
        assert_eq!(decoded.header.count, 17);
        assert_eq!(decoded.header.flow_sequence, 42);
    }

    #[test]
    fn empty_datagram_round_trips() {
        let dg = Datagram::new(7, 1, &[]);
        let decoded = Datagram::decode(&dg.encode()).unwrap();
        assert_eq!(decoded.records.len(), 0);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = Datagram::new(0, 0, &[sample_record(0)]).encode().to_vec();
        bytes[1] = 9; // version = 9
        assert_eq!(Datagram::decode(&bytes), Err(DecodeError::WrongVersion(9)));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = Datagram::new(0, 0, &[sample_record(0)]).encode();
        // Header fine, record short.
        let r = Datagram::decode(&bytes[..40]);
        assert!(matches!(r, Err(DecodeError::Truncated { .. })));
        // Even the header short.
        let r = Datagram::decode(&bytes[..10]);
        assert!(matches!(r, Err(DecodeError::Truncated { need: 24, .. })));
    }

    #[test]
    fn rejects_oversized_count() {
        let mut bytes = Datagram::new(0, 0, &[sample_record(0)]).encode().to_vec();
        bytes[2] = 0;
        bytes[3] = 31;
        assert_eq!(Datagram::decode(&bytes), Err(DecodeError::BadCount(31)));
    }

    #[test]
    #[should_panic(expected = "exceed the v5 limit")]
    fn new_panics_on_too_many_records() {
        let records: Vec<FlowRecord> = (0..31).map(sample_record).collect();
        let _ = Datagram::new(0, 0, &records);
    }

    #[test]
    fn network_byte_order_on_the_wire() {
        let dg = Datagram::new(0x01020304, 0, &[]);
        let bytes = dg.encode();
        assert_eq!(&bytes[0..2], &[0, 5]); // version big-endian
        assert_eq!(&bytes[16..20], &[1, 2, 3, 4]); // flow_sequence
    }
}
