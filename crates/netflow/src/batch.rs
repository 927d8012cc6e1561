//! Flow batches for the hot decode → classify path: the two columns
//! something scans, plus the records as the wire delivered them.
//!
//! A [`FlowBatch`] keeps the source addresses and the input interfaces of
//! its records as two dense columns — the EIA stage keys its lookups on
//! the first, the intake splits datagrams per ingress on the second — and
//! everything else as the 48-byte wire rows, copied once and decoded to a
//! [`FlowRecord`] only for the rows somebody asks for (suspects and
//! sampled telemetry; one flow in a hundred under a legal load). Nothing
//! reads the other sixteen fields as columns, so they are not transposed:
//! decoding a datagram is one validated pass and three appends, a batch is
//! three `Vec`s, and a batch built `with_capacity(MAX_RECORDS_PER_DATAGRAM)`
//! decodes any datagram, any number of times, without touching the
//! allocator.

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::wire::{
    canonical_row, decode_record, encode_record, row_input_if, row_src_addr, DecodeError, Header,
    Row,
};
use crate::FlowRecord;

/// A batch of NetFlow v5 flow records, indexed 0..`len()`: a
/// source-address column, an input-interface column, and each record's
/// canonical wire row (pad bytes zeroed, so batches compare equal exactly
/// when their records do).
///
/// # Examples
///
/// ```
/// use infilter_netflow::{Datagram, FlowBatch, FlowRecord};
///
/// let record = FlowRecord {
///     src_addr: "192.4.1.10".parse().unwrap(),
///     dst_port: 80,
///     protocol: 6,
///     ..FlowRecord::default()
/// };
/// let wire = Datagram::new(0, 1_000, &[record]).encode();
///
/// let mut batch = FlowBatch::new();
/// let header = batch.decode_datagram(&wire).unwrap();
/// assert_eq!(header.count, 1);
/// assert_eq!(batch.record(0), record);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowBatch {
    src_addr: Vec<u32>,
    input_if: Vec<u16>,
    rows: Vec<Row>,
}

impl FlowBatch {
    /// Creates an empty batch.
    pub fn new() -> FlowBatch {
        FlowBatch::default()
    }

    /// Creates an empty batch sized for `flows` records.
    /// `with_capacity(MAX_RECORDS_PER_DATAGRAM)` fits any single datagram.
    pub fn with_capacity(flows: usize) -> FlowBatch {
        FlowBatch {
            src_addr: Vec::with_capacity(flows),
            input_if: Vec::with_capacity(flows),
            rows: Vec::with_capacity(flows),
        }
    }

    /// Number of flows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no flows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Empties the batch, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.src_addr.clear();
        self.input_if.clear();
        self.rows.clear();
    }

    /// Appends one record.
    pub fn push_record(&mut self, r: &FlowRecord) {
        self.src_addr.push(r.src_addr.into());
        self.input_if.push(r.input_if);
        self.rows.push(encode_record(r));
    }

    /// Appends a slice of records.
    pub fn extend_from_records(&mut self, records: &[FlowRecord]) {
        for r in records {
            self.push_record(r);
        }
    }

    /// Appends the row range `rows` of `other` to this batch — the splice
    /// the intake uses to split a datagram per ingress without
    /// round-tripping through [`FlowRecord`]s.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is out of bounds for `other`.
    pub fn extend_from(&mut self, other: &FlowBatch, rows: Range<usize>) {
        self.src_addr
            .extend_from_slice(&other.src_addr[rows.clone()]);
        self.input_if
            .extend_from_slice(&other.input_if[rows.clone()]);
        self.rows.extend_from_slice(&other.rows[rows]);
    }

    /// Decodes row `i` to an owned [`FlowRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn record(&self, i: usize) -> FlowRecord {
        decode_record(&self.rows[i])
    }

    /// Iterates the rows as owned [`FlowRecord`]s.
    pub fn iter(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        self.rows.iter().map(decode_record)
    }

    /// The source-address column as raw big-endian-decoded `u32` bits —
    /// what the EIA prefix trie keys on.
    pub fn src_addr_bits(&self) -> &[u32] {
        &self.src_addr
    }

    /// The input-interface column, used to split a datagram per ingress.
    pub fn input_ifs(&self) -> &[u16] {
        &self.input_if
    }

    /// Source address of row `i`.
    pub fn src_addr(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::from(self.src_addr[i])
    }

    /// Decodes one NetFlow v5 datagram, **appending** its records to the
    /// batch, and returns the parsed header. Errors mirror
    /// [`Datagram::decode`](crate::Datagram::decode) exactly and leave the
    /// batch unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a short buffer, wrong version, or a
    /// record count that disagrees with the payload length.
    pub fn decode_datagram(&mut self, buf: &[u8]) -> Result<Header, DecodeError> {
        let (header, rows) = Header::split(buf)?;
        self.src_addr.extend(rows.iter().map(row_src_addr));
        self.input_if.extend(rows.iter().map(row_input_if));
        self.rows.extend(rows.iter().map(|row| canonical_row(*row)));
        Ok(header)
    }
}

impl FromIterator<FlowRecord> for FlowBatch {
    fn from_iter<I: IntoIterator<Item = FlowRecord>>(iter: I) -> FlowBatch {
        let mut batch = FlowBatch::new();
        for r in iter {
            batch.push_record(&r);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Datagram, MAX_RECORDS_PER_DATAGRAM};

    fn sample_record(i: u32) -> FlowRecord {
        FlowRecord {
            src_addr: Ipv4Addr::from(0x0a000001 + i),
            dst_addr: Ipv4Addr::from(0x60010014),
            next_hop: Ipv4Addr::from(0x59000001),
            input_if: 3 + (i % 2) as u16,
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
    fn decode_matches_datagram_decode() {
        let records: Vec<FlowRecord> = (0..17).map(sample_record).collect();
        let dg = Datagram::new(42, 123_456, &records);
        let wire = dg.encode();

        let mut batch = FlowBatch::new();
        let header = batch.decode_datagram(&wire).unwrap();
        let aos = Datagram::decode(&wire).unwrap();
        assert_eq!(header, aos.header);
        assert_eq!(batch.len(), aos.records.len());
        let rows: Vec<FlowRecord> = batch.iter().collect();
        assert_eq!(rows, aos.records);
    }

    #[test]
    fn decode_appends_and_clear_keeps_capacity() {
        let wire = Datagram::new(0, 0, &[sample_record(0), sample_record(1)]).encode();
        let mut batch = FlowBatch::with_capacity(MAX_RECORDS_PER_DATAGRAM);
        batch.decode_datagram(&wire).unwrap();
        batch.decode_datagram(&wire).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.record(0), batch.record(2));
        let cap = batch.src_addr.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.src_addr.capacity(), cap);
    }

    #[test]
    fn decode_errors_mirror_wire_and_leave_batch_untouched() {
        let wire = Datagram::new(0, 0, &[sample_record(0)]).encode();
        let mut batch = FlowBatch::new();

        assert_eq!(
            batch.decode_datagram(&wire[..10]),
            Err(DecodeError::Truncated { need: 24, have: 10 })
        );
        let mut wrong = wire.to_vec();
        wrong[1] = 9;
        assert_eq!(
            batch.decode_datagram(&wrong),
            Err(DecodeError::WrongVersion(9))
        );
        let mut oversized = wire.to_vec();
        oversized[2] = 0;
        oversized[3] = 31;
        assert_eq!(
            batch.decode_datagram(&oversized),
            Err(DecodeError::BadCount(31))
        );
        assert!(matches!(
            batch.decode_datagram(&wire[..40]),
            Err(DecodeError::Truncated { need: 72, have: 40 })
        ));
        assert!(batch.is_empty(), "failed decodes must not append rows");

        // Error variants agree with the row-oriented decoder on the same
        // inputs.
        for bad in [&wire[..10], &wrong[..], &oversized[..], &wire[..40]] {
            assert_eq!(
                batch.decode_datagram(bad).unwrap_err(),
                Datagram::decode(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn round_trips_records_and_column_splices() {
        let records: Vec<FlowRecord> = (0..6).map(sample_record).collect();
        let batch: FlowBatch = records.iter().copied().collect();
        assert_eq!(batch.record(3), records[3]);
        assert_eq!(batch.src_addr(3), records[3].src_addr);
        assert_eq!(batch.src_addr_bits()[3], u32::from(records[3].src_addr));
        assert_eq!(batch.input_ifs()[3], records[3].input_if);

        let mut run = FlowBatch::new();
        run.extend_from(&batch, 2..5);
        assert_eq!(run.len(), 3);
        let rows: Vec<FlowRecord> = run.iter().collect();
        assert_eq!(rows, &records[2..5]);

        let mut pushed = FlowBatch::new();
        pushed.extend_from_records(&records);
        assert_eq!(pushed, batch);
    }
}
