//! Wire-codec fuzz suite: the decoder must never panic on hostile input
//! (the collector feeds it raw UDP payloads), valid datagrams must
//! round-trip byte-accurately through encode/decode, and the two decoders
//! — [`Datagram::decode`] into records, [`FlowBatch::decode_datagram`] into
//! columns and wire rows — must be one codec: same verdict on every input,
//! same records out.

use infilter_netflow::{Datagram, DecodeError, FlowBatch, FlowRecord, MAX_RECORDS_PER_DATAGRAM};
use proptest::prelude::*;

/// A record with every field drawn from its full range — the encoder must
/// not lose or reorder any bit of it.
fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        (
            any::<u32>(), // src_addr
            any::<u32>(), // dst_addr
            any::<u32>(), // next_hop
            any::<u16>(), // input_if
            any::<u16>(), // output_if
            any::<u32>(), // packets
            any::<u32>(), // octets
        ),
        (
            any::<u32>(), // first_ms
            any::<u32>(), // last_ms
            any::<u16>(), // src_port
            any::<u16>(), // dst_port
            any::<u8>(),  // tcp_flags
            any::<u8>(),  // protocol
            any::<u8>(),  // tos
        ),
        (
            any::<u16>(), // src_as
            any::<u16>(), // dst_as
            any::<u8>(),  // src_mask
            any::<u8>(),  // dst_mask
        ),
    )
        .prop_map(
            |(
                (src_addr, dst_addr, next_hop, input_if, output_if, packets, octets),
                (first_ms, last_ms, src_port, dst_port, tcp_flags, protocol, tos),
                (src_as, dst_as, src_mask, dst_mask),
            )| FlowRecord {
                src_addr: src_addr.into(),
                dst_addr: dst_addr.into(),
                next_hop: next_hop.into(),
                input_if,
                output_if,
                packets,
                octets,
                first_ms,
                last_ms,
                src_port,
                dst_port,
                tcp_flags,
                protocol,
                tos,
                src_as,
                dst_as,
                src_mask,
                dst_mask,
            },
        )
}

fn arb_datagram() -> impl Strategy<Value = Datagram> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(arb_record(), 0..=MAX_RECORDS_PER_DATAGRAM),
    )
        .prop_map(|(seq, uptime, records)| Datagram::new(seq, uptime, &records))
}

/// Bytes off a hostile wire: pure noise, or a valid datagram with junk
/// behind it, cut short, or with its version or count overwritten.
fn arb_wire() -> impl Strategy<Value = Vec<u8>> {
    (
        arb_datagram(),
        proptest::collection::vec(any::<u8>(), 0..200),
        0u8..4,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<u8>(),
    )
        .prop_map(|(datagram, junk, kind, cut, at, value)| {
            let mut bytes = datagram.encode().to_vec();
            bytes.extend_from_slice(&junk);
            match kind {
                0 => return junk,
                1 => {}
                2 => bytes.truncate(cut.index(bytes.len())),
                _ => bytes[at.index(4)] = value,
            }
            bytes
        })
}

/// Offsets of the three pad bytes within a 48-byte v5 record.
const PAD_OFFSETS: [usize; 3] = [36, 46, 47];

proptest! {
    /// On arbitrary bytes the two decoders agree on `Ok`/`Err`, on the
    /// error, on the header and on every record — and a decode that fails
    /// leaves the batch exactly as it was.
    #[test]
    fn batch_and_datagram_decoders_agree(bytes in arb_wire(), held in arb_record()) {
        let mut batch: FlowBatch = std::iter::once(held).collect();
        let before = batch.clone();
        match (batch.decode_datagram(&bytes), Datagram::decode(&bytes)) {
            (Ok(header), Ok(datagram)) => {
                prop_assert_eq!(header, datagram.header);
                prop_assert_eq!(batch.len(), 1 + datagram.records.len());
                prop_assert_eq!(batch.record(0), held);
                for (i, record) in datagram.records.iter().enumerate() {
                    prop_assert_eq!(batch.record(1 + i), *record);
                    prop_assert_eq!(batch.src_addr(1 + i), record.src_addr);
                    prop_assert_eq!(batch.src_addr_bits()[1 + i], u32::from(record.src_addr));
                    prop_assert_eq!(batch.input_ifs()[1 + i], record.input_if);
                }
            }
            (Err(from_batch), Err(from_datagram)) => {
                prop_assert_eq!(from_batch, from_datagram);
                prop_assert_eq!(&batch, &before, "a failed decode appended rows");
            }
            (a, b) => prop_assert!(false, "decoders disagree: {a:?} vs {:?}", b.map(|d| d.header)),
        }
    }

    /// What an exporter leaves in the pad bytes is not part of a record:
    /// it changes neither `record(i)` nor batch equality.
    #[test]
    fn pad_bytes_are_not_part_of_a_record(
        datagram in arb_datagram(),
        pads in proptest::collection::vec(any::<u8>(), 3 * MAX_RECORDS_PER_DATAGRAM),
    ) {
        let clean = datagram.encode().to_vec();
        let mut dirty = clean.clone();
        for (i, pad) in pads.iter().take(3 * datagram.records.len()).enumerate() {
            dirty[24 + 48 * (i / 3) + PAD_OFFSETS[i % 3]] = *pad;
        }
        let mut from_clean = FlowBatch::new();
        let mut from_dirty = FlowBatch::new();
        from_clean.decode_datagram(&clean).expect("own encoding decodes");
        from_dirty.decode_datagram(&dirty).expect("pad bytes are value-blind");
        prop_assert_eq!(&from_dirty, &from_clean);
        prop_assert_eq!(from_dirty.iter().collect::<Vec<_>>(), datagram.records.clone());
        prop_assert_eq!(Datagram::decode(&dirty).expect("value-blind"), datagram);
    }

    /// Every way of filling a batch — record by record, from a slice, from
    /// an iterator, spliced from another batch, decoded off the wire —
    /// stores the same rows, and they read back as the records put in.
    #[test]
    fn batch_builders_round_trip_through_the_row_form(
        records in proptest::collection::vec(arb_record(), 0..=MAX_RECORDS_PER_DATAGRAM),
        cut in any::<prop::sample::Index>(),
    ) {
        let collected: FlowBatch = records.iter().copied().collect();
        let mut pushed = FlowBatch::with_capacity(records.len());
        for record in &records {
            pushed.push_record(record);
        }
        let mut extended = FlowBatch::new();
        extended.extend_from_records(&records);
        let mut decoded = FlowBatch::new();
        decoded.decode_datagram(&Datagram::new(0, 0, &records).encode()).expect("decodes");
        let cut = cut.index(records.len() + 1);
        let mut spliced = FlowBatch::new();
        spliced.extend_from(&collected, 0..cut);
        spliced.extend_from(&collected, cut..records.len());
        for batch in [&pushed, &extended, &decoded, &spliced] {
            prop_assert_eq!(batch, &collected);
        }
        prop_assert_eq!(collected.len(), records.len());
        prop_assert_eq!(collected.iter().collect::<Vec<_>>(), records);
    }

    /// decode(encode(d)) reproduces `d` exactly, and re-encoding the
    /// decoded value reproduces the original bytes — the codec is a
    /// bijection on its image.
    #[test]
    fn round_trip_is_byte_accurate(datagram in arb_datagram()) {
        let bytes = datagram.encode();
        let decoded = Datagram::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &datagram);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Any truncation of a valid datagram is a clean `Truncated` or
    /// `BadCount` error (the cut can land inside the count field), never a
    /// panic and never a silently short parse.
    #[test]
    fn truncation_is_detected(datagram in arb_datagram(), cut in any::<prop::sample::Index>()) {
        let bytes = datagram.encode();
        let cut = cut.index(bytes.len());
        match Datagram::decode(&bytes[..cut]) {
            Ok(_) => prop_assert!(false, "decoded a {cut}-byte prefix of {}", bytes.len()),
            Err(DecodeError::Truncated { need, have }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(need > have);
            }
            Err(DecodeError::BadCount(_)) | Err(DecodeError::WrongVersion(_)) => {
                // A cut inside the header can expose garbage fields first.
                prop_assert!(cut < 24, "field errors only arise from header cuts");
            }
        }
    }

    /// Arbitrary bytes — including oversized buffers well past the 1464-byte
    /// v5 maximum — never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Datagram::decode(&bytes);
    }

    /// Corrupting any single byte of a valid datagram either still decodes
    /// (payload bytes are value-blind) or fails cleanly; a corrupted
    /// version or count field must map to its dedicated error.
    #[test]
    fn single_byte_corruption_fails_cleanly(
        datagram in arb_datagram(),
        at in any::<prop::sample::Index>(),
        value in any::<u8>(),
    ) {
        let mut bytes = datagram.encode().to_vec();
        let at = at.index(bytes.len());
        let original = bytes[at];
        bytes[at] = value;
        match (at, Datagram::decode(&bytes)) {
            (0 | 1, Err(DecodeError::WrongVersion(v))) => {
                prop_assert!(v != 5, "version error on a still-valid version field")
            }
            (2 | 3, Err(DecodeError::BadCount(c))) => {
                prop_assert!(c as usize > MAX_RECORDS_PER_DATAGRAM)
            }
            (2 | 3, Err(DecodeError::Truncated { need, have })) => {
                // A lowered count would decode; a raised one within range
                // outruns the payload.
                prop_assert!(need > have)
            }
            (_, Ok(decoded)) => {
                // Value-blind positions decode to a datagram that differs
                // at most in that field.
                if value == original {
                    prop_assert_eq!(decoded, datagram);
                }
            }
            (at, Err(e)) => prop_assert!(
                at < 4,
                "byte {at} of the payload should be value-blind, got {e:?}"
            ),
        }
    }
}
