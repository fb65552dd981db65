//! # prov-codec
//!
//! Serialization for ProvLight capture records.
//!
//! The paper's client library claims three wire-level features (Table VI):
//!
//! * **provenance data representation** — a compact binary encoding of the
//!   simplified `Workflow`/`Task`/`Data` model ([`binary`]);
//! * **payload compression** — bytes are compressed before transmission
//!   ([`compress`](crate::compress()), an in-repo LZSS implementation with no external
//!   dependencies);
//! * **grouping of captured data** — several records are framed into one
//!   message ([`frame`]).
//!
//! The [`json`] module provides the verbose JSON representation used by the
//! HTTP baselines (ProvLake / DfAnalyzer style payloads) and by the model's
//! JSON ablation, plus a full (small) JSON parser for the baselines'
//! ingestion server.

pub mod binary;
pub mod compress;
pub mod frame;
pub mod json;
pub mod varint;

pub use binary::{
    decode_batch, decode_record, encode_batch, encode_batch_into, encode_record, Encoder,
};
pub use compress::{compress, compress_into, decompress, CompressScratch};
pub use frame::{Envelope, ENVELOPE_VERSION};
pub use json::{record_to_json, records_to_json, JsonError, JsonStyle, JsonValue};

/// Errors shared by the binary codec layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete value was decoded.
    UnexpectedEof,
    /// A tag byte had no known meaning.
    BadTag(u8),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A string-table reference pointed past the table.
    BadStringRef(u64),
    /// A layout number named no layout the batch had defined yet.
    BadLayoutRef(u64),
    /// Bytes were not valid UTF-8 where a string was expected.
    BadUtf8,
    /// The compressed payload was malformed.
    BadCompression,
    /// A declared length was implausibly large for the remaining input.
    LengthOverflow,
    /// Lists nested deeper than any captured value does.
    TooDeep,
    /// Input went on after the last thing the encoder would have written.
    TrailingBytes,
}

/// Deepest container nesting either decoder accepts. Both recurse once per
/// level and run on ingest threads fed from the network (the translator's
/// envelopes, the baselines' HTTP bodies), where a few kilobytes of nested
/// openers would otherwise overflow the stack — an abort of the process,
/// not an error. Records nest a handful of levels plus their attribute
/// lists.
pub(crate) const MAX_NESTING: usize = 64;

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            CodecError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            CodecError::BadStringRef(i) => write!(f, "string reference {i} out of range"),
            CodecError::BadLayoutRef(k) => write!(f, "layout {k} not defined yet"),
            CodecError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
            CodecError::BadCompression => f.write_str("malformed compressed payload"),
            CodecError::LengthOverflow => f.write_str("declared length exceeds remaining input"),
            CodecError::TooDeep => f.write_str("lists nested too deep"),
            CodecError::TrailingBytes => f.write_str("input continues past the end of the message"),
        }
    }
}

impl std::error::Error for CodecError {}
