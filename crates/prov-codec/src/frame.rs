//! The ProvLight wire envelope.
//!
//! An [`Envelope`] is what the client actually publishes to the MQTT-SN
//! broker: a small header plus a (possibly compressed) binary batch of
//! records. Compression is skipped automatically when it does not shrink the
//! payload (tiny single-record messages), and the header flag records which
//! form was used.
//!
//! ```text
//! envelope := magic:u8 (0xA7), version:u8, flags:u8, payload
//! version  := 4 (written) | 3 | 2 | 1 (still read)
//! flags    := bit0 = payload is LZSS-compressed
//! payload  := binary batch in that version's grammar (see prov_codec::binary)
//! ```
//!
//! The version byte says which batch grammar the payload is written in;
//! header, flags and compression are the same in all four. Version 4
//! ([`ENVELOPE_VERSION`]) is the only one encoded: its string table is
//! front-coded, a layout says its shape in runs of consecutive names, and a
//! float's sign and exponent are coded against the float's before it, so a
//! random value in [0, 1) takes 7 bytes and a round one far from it, like
//! `500.5` after such values, 4.
//! Version 3 — every float 8 bytes as it is — version 2 — every string
//! written whole, a name and a tag per cell of a layout — and version 1 —
//! attribute names and tags repeated per record, absolute times, a
//! workflow id on every data record — are what devices wrote before and
//! what their spilled logs still hold, so all four decode. Every envelope
//! is whole in itself: nothing it needs was sent in an earlier one, so one
//! acknowledged and then replayed from a spill decodes as well as the
//! first time. A payload must be consumed exactly: bytes left over after
//! the last record, raw or decompressed, are an error.

use crate::binary::{self, BatchVersion};
use crate::{compress, CodecError};
use prov_model::Record;
use std::cell::RefCell;

const MAGIC: u8 = 0xA7;
/// The envelope version the encoder writes.
pub const ENVELOPE_VERSION: u8 = 4;
/// The versions before it, accepted on decode.
const VERSION_3: u8 = 3;
const VERSION_2: u8 = 2;
const VERSION_1: u8 = 1;
const FLAG_COMPRESSED: u8 = 0x01;

/// A decoded envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The records carried by this message.
    pub records: Vec<Record>,
    /// Whether the payload was compressed on the wire.
    pub was_compressed: bool,
}

impl Envelope {
    /// Encodes `records` into a wire message.
    ///
    /// When `use_compression` is set, the payload is compressed and the
    /// smaller of the two forms is kept.
    pub fn encode(records: &[Record], use_compression: bool) -> Vec<u8> {
        let mut out = Vec::new();
        Envelope::encode_into(records, use_compression, &mut out);
        out
    }

    /// Encodes `records` into a caller-owned buffer (appending), reusing
    /// thread-local scratch for the intermediate raw/compressed forms so the
    /// steady state allocates nothing. Output bytes are identical to
    /// [`Envelope::encode`].
    pub fn encode_into(records: &[Record], use_compression: bool, out: &mut Vec<u8>) {
        thread_local! {
            static FRAME_SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        // lint: zero-alloc-begin
        FRAME_SCRATCH.with(|cell| {
            let (raw, packed) = &mut *cell.borrow_mut();
            raw.clear();
            binary::encode_batch_into(records, raw);
            let (flags, payload): (u8, &[u8]) = if use_compression {
                packed.clear();
                compress::compress_into(raw, packed);
                if packed.len() < raw.len() {
                    (FLAG_COMPRESSED, packed)
                } else {
                    (0, raw)
                }
            } else {
                (0, raw)
            };
            out.reserve(payload.len() + 3);
            out.push(MAGIC);
            out.push(ENVELOPE_VERSION);
            out.push(flags);
            out.extend_from_slice(payload);
        });
        // lint: zero-alloc-end
    }

    /// Decodes a wire message.
    pub fn decode(buf: &[u8]) -> Result<Envelope, CodecError> {
        let mut records = Vec::new();
        let was_compressed = Envelope::decode_into(buf, &mut records)?;
        Ok(Envelope {
            records,
            was_compressed,
        })
    }

    /// Decodes a wire message into a caller-owned record buffer (cleared
    /// first), reusing thread-local decompression scratch. Returns whether
    /// the payload was compressed. This is the server decode loop's hot
    /// path: one record buffer cycles between broker poll and translator
    /// across every message.
    pub fn decode_into(buf: &[u8], records: &mut Vec<Record>) -> Result<bool, CodecError> {
        if buf.len() < 3 {
            return Err(CodecError::UnexpectedEof);
        }
        if buf[0] != MAGIC {
            return Err(CodecError::BadTag(buf[0]));
        }
        let version = match buf[1] {
            ENVELOPE_VERSION => BatchVersion::V4,
            VERSION_3 => BatchVersion::V3,
            VERSION_2 => BatchVersion::V2,
            VERSION_1 => BatchVersion::V1,
            other => return Err(CodecError::BadTag(other)),
        };
        let compressed = buf[2] & FLAG_COMPRESSED != 0;
        let payload = &buf[3..];
        if compressed {
            thread_local! {
                static RAW: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
            }
            RAW.with(|cell| {
                let raw = &mut *cell.borrow_mut();
                compress::decompress_into(payload, raw)?;
                binary::decode_batch_as(version, raw, records)
            })?;
        } else {
            binary::decode_batch_as(version, payload, records)?;
        }
        Ok(compressed)
    }

    /// The most heap [`Envelope::decode_into`] holds at any moment while
    /// decoding an envelope of `len` bytes, records and recycled scratch
    /// included: the decompressed payload at its largest, and what a batch
    /// of that size may decode to ([`binary::decode_heap_bound`]).
    pub const fn decode_heap_bound(len: usize) -> usize {
        let raw = compress::max_decompressed_len(len);
        raw + binary::decode_heap_bound(raw)
    }

    /// Encoded size without actually keeping the buffer (used by cost
    /// accounting in the simulator). Reuses a thread-local buffer, so
    /// repeated calls do not allocate.
    pub fn encoded_len(records: &[Record], use_compression: bool) -> usize {
        thread_local! {
            static LEN_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        LEN_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            Envelope::encode_into(records, use_compression, &mut buf);
            buf.len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{DataRecord, Id, TaskRecord, TaskStatus};

    fn records(nattrs: usize) -> Vec<Record> {
        let task = TaskRecord {
            id: Id::Num(1),
            workflow: Id::Num(1),
            transformation: Id::Num(0),
            dependencies: vec![],
            time_ns: 1,
            status: TaskStatus::Finished,
        };
        let mut d = DataRecord::new("out", 1u64);
        for i in 0..nattrs {
            d = d.with_attr(format!("attribute_{i}"), i as i64);
        }
        vec![Record::TaskEnd {
            task,
            outputs: vec![d],
        }]
    }

    #[test]
    fn roundtrip_compressed_and_raw() {
        for compression in [true, false] {
            let recs = records(100);
            let wire = Envelope::encode(&recs, compression);
            let env = Envelope::decode(&wire).unwrap();
            assert_eq!(env.records, recs);
            assert_eq!(env.was_compressed, compression);
        }
    }

    #[test]
    fn compression_reduces_attribute_heavy_payloads() {
        let recs = records(100);
        let raw = Envelope::encode(&recs, false).len();
        let packed = Envelope::encode(&recs, true).len();
        assert!(
            (packed as f64) < raw as f64 * 0.8,
            "compressed {packed}B raw {raw}B"
        );
    }

    #[test]
    fn incompressible_payload_falls_back_to_raw() {
        // A single tiny record: compression cannot win, flag must be clear.
        let recs = vec![Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        }];
        let wire = Envelope::encode(&recs, true);
        let env = Envelope::decode(&wire).unwrap();
        assert!(!env.was_compressed);
        assert_eq!(env.records, recs);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let recs = records(1);
        let mut wire = Envelope::encode(&recs, false);
        wire[0] = 0x00;
        assert!(Envelope::decode(&wire).is_err());
        let mut wire = Envelope::encode(&recs, false);
        wire[1] = 99;
        assert!(Envelope::decode(&wire).is_err());
        assert!(Envelope::decode(&[]).is_err());
    }

    #[test]
    fn encoded_len_matches_encode() {
        let recs = records(10);
        assert_eq!(
            Envelope::encoded_len(&recs, true),
            Envelope::encode(&recs, true).len()
        );
    }
}
