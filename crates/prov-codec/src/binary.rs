//! Compact binary encoding of capture records.
//!
//! A batch is what one envelope carries (see [`crate::frame`]): a count, a
//! string table, then the records. This is the grammar of envelope version
//! 4, the only one written (all integers LEB128 varints unless noted):
//!
//! ```text
//! batch      := count, strtab, record*
//! strtab     := nstrings, entry*
//! entry      := head:u8, [len − 15], byte^len
//!                                  (head = shared << 4 | min(len, 15), the
//!                                   varint there when the low half is 15:
//!                                   the first `shared` bytes of the entry
//!                                   before it, then `len` bytes of its own)
//! record     := tag:u8, body
//! body(wf)   := id, time
//! body(task) := taskrec, ndata, datarec*
//! taskrec    := id, workflow, transformation, ndeps, id*, time, status:u8
//! datarec    := id, dataworkflow, nderiv, id*, attrs
//! id         := 0x00, varint | 0x01, strref
//! dataworkflow := 0x02             (the enclosing task's workflow)
//!             | id
//! time       := varint             (first time of the batch: absolute)
//!             | zigzag varint      (every later one: wrapping difference
//!                                   from the time before it)
//! attrs      := 2n,   run+, payload^n      (the first of its shape: the
//!                                          batch's next layout, then its
//!                                          payloads as a reuse writes them)
//!             | 2k+1, payload^len(k)       (of the shape of layout k)
//! run        := first:strref, packed:u8    (tag | (len − 1) << 3: the cells
//!                                          named `first` … `first + len − 1`,
//!                                          all of one tag; 1 ≤ len ≤ 32, and
//!                                          the runs cover exactly n cells)
//! value      := tag:u8, payload
//! payload    := per tag: nothing | bool:u8 | zigzag varint | float
//!             | strref | n, value^n | len, bytes
//! float      := head:u8, low:u8^6   (head = step << 4 | bits 48–51 of the
//!                                    float, step < 15: its sign and
//!                                    exponent are the predictor's moved by
//!                                    the zigzag `step`, modulo 2^12; `low`
//!                                    its bits 0–47, LE)
//!             | whole:u8, byte^kept
//!                                   (whole = 0xf0 + kept, kept ≤ 8: the
//!                                    top `kept` bytes of the float's bits,
//!                                    LE; the 8 − kept below them are zero)
//! ```
//!
//! The *predictor* of a float is the sign and exponent — the top 12 bits —
//! of the last float of the batch that took 7 bytes or more: of the first
//! form, or whole with `kept` ≥ 6. It is 1.0's, `0x3ff`, before the first,
//! so every batch is whole in itself. Values of one size share their top
//! bits, whatever their mantissas: the encoder writes a float whose sign
//! and exponent lie within 7 steps of the predictor's in the first form, so
//! a random value in [0, 1) is 7 bytes unless its exponent lies more than 7
//! from the one before. A float outside that window is written whole,
//! without the zero bytes its bits end in: `0.0` in 1 byte, `500.5` after
//! values in [0, 1) in 4, any float of at most 16 significant mantissa bits
//! in 5. One of fewer than 7 bytes leaves the predictor where it was, so a
//! `500.5` among values in [0, 1) costs the next value nothing. No float
//! takes more than 9 bytes.
//!
//! A *layout* is the shape of an attribute list — its names and value tags
//! in order. A batch numbers its layouts from 0 in order of definition; a
//! data record whose shape the batch has already defined names the layout
//! and writes its payloads only, so a group of same-shaped records says
//! its shape once. The define / reuse choice rides the varint that carries
//! the attribute count.
//!
//! A lone record's shape is cheap too. The encoder interns a new layout's
//! names in order before any string value, so names the batch has not seen
//! take consecutive table entries and a layout of them is a few runs: 100
//! numbers named `a0` … `a99` are 4 runs, 8 bytes. A cell that breaks a run
//! costs 2 bytes, and a `Null` cell is always a run of its own. The names
//! themselves share their prefixes through front coding: `a11` after `a10`
//! is 2 bytes. `shared` is capped at 15, so a batch of `len` bytes holds at
//! most `16 × len` bytes of strings.
//!
//! Strings are deduplicated per batch through the string table: attribute
//! names appear once per batch however many layouts mention them.
//!
//! **Version 3** (read, never written: spilled device logs and devices not
//! yet upgraded) is version 4 with `float := f64 LE bits`, 8 bytes each and
//! no predictor.
//!
//! **Version 2** (read, never written, like version 1) differs from
//! version 3 in two productions and nowhere else: `entry := len,
//! utf8bytes` (every string written whole) and a definition is `2n,
//! (strref, value)^n` (a name, a tag and a payload per cell).
//!
//! **Version 1** is version 2 with three productions more —
//! `dataworkflow := id`, `time := varint` (always absolute) and
//! `attrs := n, (strref, value)^n` (every list written out).
//!
//! **What decoding may allocate.** Every count is checked against the
//! input before anything is reserved for it: a batch of `len` bytes
//! decodes to at most `len` attribute cells and list items (each costs the
//! encoder at least one byte, a float included; the encoder defines a
//! fresh layout instead of reusing one whose zero-width `Null` cells would
//! break that, and a batch that claims more is refused with
//! `LengthOverflow`), at most `16 × len` bytes of strings, and every
//! other reserve is at most what the remaining bytes could hold. Peak heap
//! while a batch is decoded, records included, is bounded by
//! [`decode_heap_bound`].

use crate::varint::{unzigzag, write_i64, write_u64, zigzag, Reader};
use crate::{CodecError, MAX_NESTING};
use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::cell::RefCell;
use std::sync::Arc;

const TAG_WF_BEGIN: u8 = 0;
const TAG_WF_END: u8 = 1;
const TAG_TASK_BEGIN: u8 = 2;
const TAG_TASK_END: u8 = 3;

const ID_NUM: u8 = 0;
const ID_STR: u8 = 1;
/// In place of a data record's workflow id: the enclosing task's.
const ID_TASK_WORKFLOW: u8 = 2;

/// The tag of `AttrValue::Null`, whose payload is no bytes at all.
const TAG_NULL: u8 = 0;
/// The tag of `AttrValue::Float`.
const TAG_FLOAT: u8 = 3;

/// How many of the batch's newest layouts a record is matched against
/// before it defines another.
const LAYOUT_SEARCH: usize = 8;

/// Most leading bytes a string-table entry takes from the one before it.
const MAX_SHARED: usize = 15;
/// A suffix length of this or more is written as this plus a varint.
const SUFFIX_ESCAPE: usize = 15;
/// Most cells one run of a layout definition names.
const MAX_RUN: usize = 32;

/// The sign and exponent of 1.0: what a batch's first float is coded
/// against.
const FLOAT_PREDICTOR: u16 = 0x3ff;
/// The step of a float head that says the float is written whole.
const FLOAT_WHOLE: u8 = 15;
/// The low bytes of a float of the first form; a float written whole in as
/// many or more moves the predictor as one of the first form does.
const FLOAT_LOW: usize = 6;

/// Which grammar a batch is written in. A batch does not say — the
/// envelope's version byte does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum BatchVersion {
    /// Attribute lists, times and data workflows written out per record.
    V1,
    /// Layouts, delta times, implied data workflows.
    V2,
    /// Version 2 with a front-coded string table and run-coded layout
    /// definitions.
    V3,
    /// Version 3 with floats coded against the one before: what the
    /// encoder writes.
    V4,
}

/// First 8 bytes of a string as a little-endian word (zero-padded).
///
/// Interning runs once per id / attribute-name / string-value occurrence,
/// so the lookup key must be cheap: `(first_word, len)` fully identifies a
/// string of ≤ 8 bytes (the dominant case for provenance ids and attribute
/// names), letting the probe skip the arena comparison entirely; longer
/// strings fall back to a byte-exact arena check.
#[inline]
fn first_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(word)
}

/// Slot hash over the `(first_word, len)` key — one multiply plus a fold.
#[inline]
fn slot_hash(word: u64, len: usize) -> u64 {
    let h = (word ^ (len as u64).rotate_left(56)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// One cell of a layout as the encoder remembers it.
#[derive(Clone, Copy)]
struct LayoutCell {
    /// Where the name's bytes live: two names at one address are one
    /// `Arc<str>`, so a record built from shared names matches without a
    /// string being read. Only ever compared, and only while the batch
    /// that holds the `Arc` is borrowed.
    name_addr: usize,
    /// The name's string-table entry, for names that are equal but not
    /// shared.
    name_ref: u32,
    tag: u8,
}

/// One layout of the current batch: a run of `Encoder::cells`.
#[derive(Clone, Copy)]
struct LayoutSpan {
    start: u32,
    len: u32,
    /// Cells whose payload is zero bytes wide (`Null`).
    nulls: u32,
}

/// Reusable batch encoder with an allocation-free steady state.
///
/// The string table interns *borrowed* `&str` keys: entries are spans into a
/// byte arena looked up through an open-addressed hash index, so `intern`
/// never copies a string that is already present and never allocates once
/// the arena/index have grown to their working-set size. A data record is
/// first matched against the layouts the batch has defined — by the address
/// of each name and the tag of each value — so a repeated shape costs no
/// `intern` probe at all. Reusing one `Encoder` across batches (the
/// transmitter does) makes the encode hot path allocation-free per record.
///
/// The output of [`Encoder::encode_batch_into`] is byte-identical to
/// [`encode_batch`].
pub struct Encoder {
    /// Interned string bytes, concatenated in insertion order.
    arena: Vec<u8>,
    /// `(offset, len)` into `arena` per string-table entry.
    spans: Vec<(u32, u32)>,
    /// Open-addressed index: `(first_word, (len << 32) | (span_index + 1))`;
    /// a zero second field marks an empty slot. Length is always a power of
    /// two. Matching `first_word` + `len` is exact equality for strings of
    /// ≤ 8 bytes, so most probes never touch the arena.
    index: Vec<(u64, u64)>,
    /// Scratch for the record bodies (the table must be emitted first but is
    /// only complete after the bodies are encoded).
    body: Vec<u8>,
    /// Cells of every layout defined in this batch, in order of definition.
    cells: Vec<LayoutCell>,
    /// The batch's layouts; a layout's number is its position.
    layouts: Vec<LayoutSpan>,
    /// A lower bound on body bytes written minus attribute cells written.
    /// The decoder refuses a batch with more cells than bytes, and only the
    /// `Null` cells of a reused layout cost a cell without costing a byte:
    /// a reuse is taken only while this covers them.
    slack: usize,
    /// The last time written to this batch.
    prev_time: Option<u64>,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with empty scratch buffers.
    pub fn new() -> Self {
        Encoder {
            arena: Vec::new(),
            spans: Vec::new(),
            index: Vec::new(),
            body: Vec::new(),
            cells: Vec::new(),
            layouts: Vec::new(),
            slack: 0,
            prev_time: None,
        }
    }

    fn reset(&mut self) {
        self.arena.clear();
        self.spans.clear();
        // Cheap memset; capacity is retained.
        self.index.iter_mut().for_each(|slot| *slot = (0, 0));
        self.cells.clear();
        self.layouts.clear();
        self.slack = 0;
        self.prev_time = None;
    }

    #[inline]
    fn span_bytes(&self, i: usize) -> &[u8] {
        let (off, len) = self.spans[i];
        &self.arena[off as usize..(off + len) as usize]
    }

    fn grow_index(&mut self) {
        let new_len = (self.index.len() * 2).max(64);
        self.index = vec![(0, 0); new_len];
        let mask = new_len - 1;
        for (i, &(off, len)) in self.spans.iter().enumerate() {
            let bytes = &self.arena[off as usize..(off + len) as usize];
            let word = first_word(bytes);
            let mut slot = (slot_hash(word, bytes.len()) as usize) & mask;
            while self.index[slot].1 != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = (word, ((len as u64) << 32) | (i as u64 + 1));
        }
    }

    fn intern(&mut self, s: &str) -> u64 {
        if self.spans.len() * 4 >= self.index.len() * 3 {
            self.grow_index();
        }
        let bytes = s.as_bytes();
        let word = first_word(bytes);
        let len_tag = (bytes.len() as u64) << 32;
        let mask = self.index.len() - 1;
        let mut slot = (slot_hash(word, bytes.len()) as usize) & mask;
        loop {
            let (slot_word, slot_len_idx) = self.index[slot];
            if slot_len_idx == 0 {
                // Miss: append to the arena and claim this slot.
                let off = self.arena.len() as u32;
                self.arena.extend_from_slice(bytes);
                let i = self.spans.len() as u32;
                self.spans.push((off, bytes.len() as u32));
                self.index[slot] = (word, len_tag | (i as u64 + 1));
                return i as u64;
            }
            if slot_word == word
                && slot_len_idx & 0xffff_ffff_0000_0000 == len_tag
                && (bytes.len() <= 8
                    || self.span_bytes(((slot_len_idx as u32) - 1) as usize) == bytes)
            {
                return ((slot_len_idx as u32) - 1) as u64;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The number of a layout of this batch that `attrs` has the shape of,
    /// newest first among the last [`LAYOUT_SEARCH`]; `None` defines one.
    fn reuse_layout(&mut self, attrs: &[(Arc<str>, AttrValue)]) -> Option<u64> {
        let newest = self.layouts.len();
        let k = (newest.saturating_sub(LAYOUT_SEARCH)..newest)
            .rev()
            .find(|&k| {
                let span = self.layouts[k];
                let cells = &self.cells[span.start as usize..(span.start + span.len) as usize];
                cells.len() == attrs.len()
                    && cells.iter().zip(attrs).all(|(cell, (name, value))| {
                        cell.tag == value.tag()
                            && (cell.name_addr == name.as_ptr() as usize
                                || self.span_bytes(cell.name_ref as usize) == name.as_bytes())
                    })
            })?;
        let nulls = self.layouts[k].nulls as usize;
        self.slack = self.slack.checked_sub(nulls)?;
        Some(k as u64)
    }

    /// Interns the names of `attrs` in order, writes the shape as runs and
    /// numbers it as the batch's next layout. The payloads follow, written
    /// by the caller as for a reuse.
    fn define_layout(&mut self, out: &mut Vec<u8>, attrs: &[(Arc<str>, AttrValue)]) {
        let start = self.cells.len();
        for (name, value) in attrs {
            let name_ref = self.intern(name) as u32;
            self.cells.push(LayoutCell {
                name_addr: name.as_ptr() as usize,
                name_ref,
                tag: value.tag(),
            });
        }
        let (mut runs, mut nulls) = (0, 0);
        let mut rest = &self.cells[start..];
        while let Some(first) = rest.first() {
            let len = match first.tag {
                TAG_NULL => 1,
                tag => rest
                    .iter()
                    .take(MAX_RUN)
                    .zip(first.name_ref..)
                    .take_while(|(cell, name_ref)| cell.tag == tag && cell.name_ref == *name_ref)
                    .count(),
            };
            write_u64(out, u64::from(first.name_ref));
            out.push(first.tag | ((len - 1) as u8) << 3);
            runs += 1;
            nulls += u32::from(first.tag == TAG_NULL);
            rest = &rest[len..];
        }
        self.layouts.push(LayoutSpan {
            start: start as u32,
            len: attrs.len() as u32,
            nulls,
        });
        // A run is two bytes at least and each of its cells one byte more,
        // but for `Null`, which is a run of its own.
        self.slack += 2 * runs - nulls as usize;
    }

    /// Encodes `records` as one batch, appending the bytes to `out`.
    ///
    /// `out` is *not* cleared — callers own the buffer and its capacity.
    pub fn encode_batch_into(&mut self, records: &[Record], out: &mut Vec<u8>) {
        self.reset();
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        let mut predictor = FLOAT_PREDICTOR;
        for r in records {
            encode_record_into(&mut body, self, &mut predictor, r);
        }
        write_u64(out, records.len() as u64);
        write_u64(out, self.spans.len() as u64);
        out.reserve(self.arena.len() + self.spans.len() * 2 + body.len());
        let mut prev: &[u8] = &[];
        for &(off, len) in &self.spans {
            let entry = &self.arena[off as usize..(off + len) as usize];
            let shared = entry
                .iter()
                .zip(prev)
                .take(MAX_SHARED)
                .take_while(|(a, b)| a == b)
                .count();
            let suffix = &entry[shared..];
            let short = suffix.len().min(SUFFIX_ESCAPE);
            out.push((shared << 4 | short) as u8);
            if short == SUFFIX_ESCAPE {
                write_u64(out, (suffix.len() - SUFFIX_ESCAPE) as u64);
            }
            out.extend_from_slice(suffix);
            prev = entry;
        }
        out.extend_from_slice(&body);
        self.body = body;
    }
}

thread_local! {
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::new());
}

/// Encodes a batch of records into a caller-owned buffer (appending),
/// reusing a thread-local [`Encoder`] so the steady state allocates nothing.
pub fn encode_batch_into(records: &[Record], out: &mut Vec<u8>) {
    ENCODER.with(|e| e.borrow_mut().encode_batch_into(records, out));
}

/// Encodes a batch of records (the unit of grouping).
pub fn encode_batch(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 64);
    encode_batch_into(records, &mut out);
    out
}

/// Encodes a single record as a one-element batch.
pub fn encode_record(record: &Record) -> Vec<u8> {
    encode_batch(std::slice::from_ref(record))
}

/// Decodes a batch produced by [`encode_batch`].
///
/// String-table entries are materialized once as `Arc<str>` and shared by
/// every id, attribute name, and string value that references them — a
/// record with 100 attributes named like another record's costs 100 refcount
/// bumps, not 100 heap copies.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<Record>, CodecError> {
    let mut records = Vec::new();
    decode_batch_into(buf, &mut records)?;
    Ok(records)
}

/// Decodes a batch of the grammar [`encode_batch_into`] writes into a
/// caller-owned `Vec` (cleared first) — its decode-side twin.
pub fn decode_batch_into(buf: &[u8], records: &mut Vec<Record>) -> Result<(), CodecError> {
    decode_batch_as(BatchVersion::V4, buf, records)
}

/// The most heap the decoder holds at any moment while decoding a batch of
/// `len` bytes, in any grammar, records and recycled tables included:
/// `160 × len + 1024`, whatever the bytes claim. Per byte, the worst that
/// can be held at once is a record slot (120 B per 4 bytes of input), a
/// data-record slot (80 per 5) and an id slot (16 per 2) all reserved
/// against the same remaining bytes, one attribute cell (48) and its
/// layout entry (8) out of the batch's allowance, and a one-byte string
/// table entry that repeats 15 bytes of the one before it: its `Arc`, its
/// table slot and the buffer it is rebuilt in (48). 158 B, rounded up. A batch the
/// encoder wrote holds what its records hold — about 7 B per byte for rows
/// of `f64`, a 48-byte cell for each 7-byte float.
pub const fn decode_heap_bound(len: usize) -> usize {
    160 * len + 1024
}

/// Fewest bytes a record, a data record and an id can be written in: what a
/// count is divided into before anything is reserved for it.
const MIN_RECORD_BYTES: usize = 4;
const MIN_DATA_BYTES: usize = 5;
const MIN_ID_BYTES: usize = 2;

/// The layouts of the batch being decoded.
#[derive(Default)]
struct Layouts {
    /// `(name's string-table entry, tag)` of every layout, in order of
    /// definition. Entries are checked when a layout is defined.
    cells: Vec<(u32, u8)>,
    /// `(start, end)` into `cells`; a layout's number is its position.
    spans: Vec<(u32, u32)>,
}

/// Decodes a batch written in `version`'s grammar into a caller-owned `Vec`
/// (cleared first), recycling the record buffer and thread-local string and
/// layout tables across messages. Bytes after the last record are an error.
pub(crate) fn decode_batch_as(
    version: BatchVersion,
    buf: &[u8],
    records: &mut Vec<Record>,
) -> Result<(), CodecError> {
    thread_local! {
        static TABLES: RefCell<(Vec<Arc<str>>, Layouts, Vec<u8>)> =
            RefCell::new(Default::default());
    }
    records.clear();
    let mut r = Reader::new(buf);
    let count = r.read_u64()? as usize;
    let nstrings = r.read_u64()? as usize;
    TABLES.with(|cell| {
        let (strings, layouts, scratch) = &mut *cell.borrow_mut();
        strings.clear();
        layouts.cells.clear();
        layouts.spans.clear();
        read_strings(version, &mut r, nstrings, strings, scratch)?;
        let mut d = Decoder {
            r,
            strings,
            layouts,
            version,
            cells_left: buf.len(),
            prev_time: None,
            float_predictor: (version == BatchVersion::V4).then_some(FLOAT_PREDICTOR),
        };
        records.reserve(count.min(d.r.remaining() / MIN_RECORD_BYTES));
        for _ in 0..count {
            records.push(d.record()?);
        }
        if d.r.remaining() != 0 {
            return Err(CodecError::TrailingBytes);
        }
        Ok(())
    })
}

/// Reads `n` string-table entries into `strings`: each written whole
/// before version 3, and from version 3 on front-coded against the entry
/// before it, which is rebuilt in `scratch`.
fn read_strings(
    version: BatchVersion,
    r: &mut Reader<'_>,
    n: usize,
    strings: &mut Vec<Arc<str>>,
    scratch: &mut Vec<u8>,
) -> Result<(), CodecError> {
    strings.reserve(n.min(r.remaining()));
    for _ in 0..n {
        let bytes = if version >= BatchVersion::V3 {
            let head = r.read_u8()?;
            let len = match usize::from(head & 0x0f) {
                SUFFIX_ESCAPE => SUFFIX_ESCAPE + r.read_len()?,
                short => short,
            };
            let prev = strings.last().map_or(&b""[..], |s| s.as_bytes());
            let shared = prev
                .get(..usize::from(head >> 4))
                .ok_or(CodecError::LengthOverflow)?;
            scratch.clear();
            scratch.extend_from_slice(shared);
            scratch.extend_from_slice(r.read_bytes(len)?);
            &scratch[..]
        } else {
            let len = r.read_len()?;
            r.read_bytes(len)?
        };
        let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
        strings.push(Arc::from(s));
    }
    Ok(())
}

/// Decodes a single record (one-element batch).
pub fn decode_record(buf: &[u8]) -> Result<Record, CodecError> {
    let mut records = decode_batch(buf)?;
    records.pop().ok_or(CodecError::UnexpectedEof)
}

fn encode_record_into(out: &mut Vec<u8>, tab: &mut Encoder, predictor: &mut u16, record: &Record) {
    match record {
        Record::WorkflowBegin { workflow, time_ns } => {
            out.push(TAG_WF_BEGIN);
            encode_id(out, tab, workflow);
            encode_time(out, tab, *time_ns);
        }
        Record::WorkflowEnd { workflow, time_ns } => {
            out.push(TAG_WF_END);
            encode_id(out, tab, workflow);
            encode_time(out, tab, *time_ns);
        }
        Record::TaskBegin { task, inputs } => {
            out.push(TAG_TASK_BEGIN);
            encode_task(out, tab, task);
            write_u64(out, inputs.len() as u64);
            for d in inputs {
                encode_data(out, tab, predictor, d, &task.workflow);
            }
        }
        Record::TaskEnd { task, outputs } => {
            out.push(TAG_TASK_END);
            encode_task(out, tab, task);
            write_u64(out, outputs.len() as u64);
            for d in outputs {
                encode_data(out, tab, predictor, d, &task.workflow);
            }
        }
    }
}

#[inline]
fn encode_id(out: &mut Vec<u8>, tab: &mut Encoder, id: &Id) {
    // Ids are the most frequent field; the common small-id case collapses
    // tag byte + one-byte varint into a single two-byte write.
    match id {
        Id::Num(n) => {
            if *n < 0x80 {
                out.extend_from_slice(&[ID_NUM, *n as u8]);
            } else {
                out.push(ID_NUM);
                write_u64(out, *n);
            }
        }
        Id::Str(s) => {
            let r = tab.intern(s);
            if r < 0x80 {
                out.extend_from_slice(&[ID_STR, r as u8]);
            } else {
                out.push(ID_STR);
                write_u64(out, r);
            }
        }
    }
}

/// The batch's first time whole, every later one as its distance from the
/// one before: records of a group are microseconds to milliseconds apart.
fn encode_time(out: &mut Vec<u8>, tab: &mut Encoder, time_ns: u64) {
    match tab.prev_time.replace(time_ns) {
        None => write_u64(out, time_ns),
        Some(prev) => write_i64(out, time_ns.wrapping_sub(prev) as i64),
    }
}

fn encode_task(out: &mut Vec<u8>, tab: &mut Encoder, t: &TaskRecord) {
    encode_id(out, tab, &t.id);
    encode_id(out, tab, &t.workflow);
    encode_id(out, tab, &t.transformation);
    write_u64(out, t.dependencies.len() as u64);
    for d in &t.dependencies {
        encode_id(out, tab, d);
    }
    encode_time(out, tab, t.time_ns);
    out.push(t.status.tag());
}

fn encode_data(
    out: &mut Vec<u8>,
    tab: &mut Encoder,
    predictor: &mut u16,
    d: &DataRecord,
    task_workflow: &Id,
) {
    encode_id(out, tab, &d.id);
    if d.workflow == *task_workflow {
        out.push(ID_TASK_WORKFLOW);
    } else {
        encode_id(out, tab, &d.workflow);
    }
    write_u64(out, d.derivations.len() as u64);
    for x in &d.derivations {
        encode_id(out, tab, x);
    }
    match tab.reuse_layout(&d.attributes) {
        Some(k) => write_u64(out, k << 1 | 1),
        None => {
            write_u64(out, (d.attributes.len() as u64) << 1);
            tab.define_layout(out, &d.attributes);
        }
    }
    // Floats, the payload of a wide record, are written here, not through
    // `encode_payload`.
    for (_, value) in &d.attributes {
        match value {
            AttrValue::Float(f) => encode_float(out, predictor, *f),
            value => encode_payload(out, tab, predictor, value),
        }
    }
}

fn encode_payload(out: &mut Vec<u8>, tab: &mut Encoder, predictor: &mut u16, v: &AttrValue) {
    match v {
        AttrValue::Null => {}
        AttrValue::Bool(b) => out.push(*b as u8),
        AttrValue::Int(i) => write_i64(out, *i),
        AttrValue::Float(f) => encode_float(out, predictor, *f),
        AttrValue::Str(s) => write_u64(out, tab.intern(s)),
        AttrValue::List(l) => {
            write_u64(out, l.len() as u64);
            for x in l {
                out.push(x.tag());
                encode_payload(out, tab, predictor, x);
            }
        }
        AttrValue::Bytes(b) => {
            write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
    }
}

/// Writes `f` against `predictor`, the sign and exponent of the last float
/// that moved it: in the first form, 7 bytes, when its sign and exponent
/// lie within 7 steps of the predictor's, and whole otherwise. A float of 7
/// bytes or more moves the predictor to its own sign and exponent.
#[inline]
fn encode_float(out: &mut Vec<u8>, predictor: &mut u16, f: f64) {
    let bits = f.to_bits();
    let sign_exp = (bits >> 52) as u16;
    // The 12-bit difference, sign-extended: steps wrap round the 12 bits.
    let step = zigzag(i64::from(
        (sign_exp.wrapping_sub(*predictor) << 4) as i16 >> 4,
    ));
    if step >= u64::from(FLOAT_WHOLE) {
        return encode_whole_float(out, predictor, bits);
    }
    *predictor = sign_exp;
    // The head, then bits 0–47: one 7-byte write.
    let head = step << 4 | bits >> 48 & 0x0f;
    out.extend_from_slice(&(head | bits << 16 >> 8).to_le_bytes()[..1 + FLOAT_LOW]);
}

/// Writes the float of `bits` whole: its head, then its top bytes, LE,
/// without the zero bytes below them.
#[cold]
fn encode_whole_float(out: &mut Vec<u8>, predictor: &mut u16, bits: u64) {
    let kept = kept_bytes(bits);
    out.push(FLOAT_WHOLE << 4 | kept as u8);
    out.extend_from_slice(&bits.to_le_bytes()[8 - kept..]);
    if kept >= FLOAT_LOW {
        *predictor = (bits >> 52) as u16;
    }
}

/// The bytes of `bits` from the top down to its last non-zero one.
#[inline]
fn kept_bytes(bits: u64) -> usize {
    8 - bits.trailing_zeros() as usize / 8
}

/// Reads a float written by [`encode_float`] against `predictor`, and moves
/// the predictor as the encoder did.
#[inline]
fn decode_float(r: &mut Reader<'_>, predictor: &mut u16) -> Result<f64, CodecError> {
    let head = r.read_u8()?;
    let step = head >> 4;
    if step == FLOAT_WHOLE {
        return decode_whole_float(r, predictor, head);
    }
    let mut word = [0u8; 8];
    word[..FLOAT_LOW].copy_from_slice(r.read_bytes(FLOAT_LOW)?);
    let sign_exp = predictor.wrapping_add(unzigzag(u64::from(step)) as u16) & 0xfff;
    *predictor = sign_exp;
    let bits = u64::from(sign_exp) << 52 | u64::from(head & 0x0f) << 48 | u64::from_le_bytes(word);
    Ok(f64::from_bits(bits))
}

/// Reads the rest of a float written whole, whose head was `head`.
#[cold]
fn decode_whole_float(
    r: &mut Reader<'_>,
    predictor: &mut u16,
    head: u8,
) -> Result<f64, CodecError> {
    let kept = usize::from(head & 0x0f);
    let mut word = [0u8; 8];
    let top = 8usize
        .checked_sub(kept)
        .and_then(|below| word.get_mut(below..))
        .ok_or(CodecError::BadTag(head))?;
    top.copy_from_slice(r.read_bytes(kept)?);
    let bits = u64::from_le_bytes(word);
    if kept >= FLOAT_LOW {
        *predictor = (bits >> 52) as u16;
    }
    Ok(f64::from_bits(bits))
}

/// One batch being read: the cursor, the tables its references resolve in,
/// and what the grammar carries from one record to the next.
struct Decoder<'a, 't> {
    r: Reader<'a>,
    strings: &'t [Arc<str>],
    layouts: &'t mut Layouts,
    /// Consulted where a data record's workflow, a time and an attribute
    /// list are read (version 1 against the rest), where a layout is
    /// defined and where the string table is read (versions 3 and 4
    /// against the rest), and nowhere else.
    version: BatchVersion,
    /// Attribute cells and list items the batch may still declare.
    cells_left: usize,
    prev_time: Option<u64>,
    /// The sign and exponent the next float is coded against; `None`
    /// before version 4, whose floats are 8 bytes as they are.
    float_predictor: Option<u16>,
}

/// Takes `n` declared cells out of the batch's allowance.
fn take_cells(cells_left: &mut usize, n: u64) -> Result<usize, CodecError> {
    if n > *cells_left as u64 {
        return Err(CodecError::LengthOverflow);
    }
    *cells_left -= n as usize;
    Ok(n as usize)
}

fn string(strings: &[Arc<str>], i: u64) -> Result<&Arc<str>, CodecError> {
    strings.get(i as usize).ok_or(CodecError::BadStringRef(i))
}

impl Decoder<'_, '_> {
    fn record(&mut self) -> Result<Record, CodecError> {
        let tag = self.r.read_u8()?;
        match tag {
            TAG_WF_BEGIN | TAG_WF_END => {
                let workflow = self.id()?;
                let time_ns = self.time()?;
                Ok(if tag == TAG_WF_BEGIN {
                    Record::WorkflowBegin { workflow, time_ns }
                } else {
                    Record::WorkflowEnd { workflow, time_ns }
                })
            }
            TAG_TASK_BEGIN | TAG_TASK_END => {
                let task = self.task()?;
                let n = self.r.read_u64()? as usize;
                let mut data = Vec::with_capacity(n.min(self.r.remaining() / MIN_DATA_BYTES));
                for _ in 0..n {
                    data.push(self.data(&task.workflow)?);
                }
                Ok(if tag == TAG_TASK_BEGIN {
                    Record::TaskBegin { task, inputs: data }
                } else {
                    Record::TaskEnd {
                        task,
                        outputs: data,
                    }
                })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }

    fn id(&mut self) -> Result<Id, CodecError> {
        let tag = self.r.read_u8()?;
        self.id_tagged(tag)
    }

    fn id_tagged(&mut self, tag: u8) -> Result<Id, CodecError> {
        match tag {
            ID_NUM => Ok(Id::Num(self.r.read_u64()?)),
            ID_STR => {
                let i = self.r.read_u64()?;
                Ok(Id::Str(string(self.strings, i)?.clone()))
            }
            other => Err(CodecError::BadTag(other)),
        }
    }

    fn ids(&mut self) -> Result<Vec<Id>, CodecError> {
        let n = self.r.read_u64()? as usize;
        let mut ids = Vec::with_capacity(n.min(self.r.remaining() / MIN_ID_BYTES));
        for _ in 0..n {
            ids.push(self.id()?);
        }
        Ok(ids)
    }

    fn time(&mut self) -> Result<u64, CodecError> {
        let time_ns = match self.prev_time {
            Some(prev) if self.version != BatchVersion::V1 => {
                prev.wrapping_add(self.r.read_i64()? as u64)
            }
            _ => self.r.read_u64()?,
        };
        self.prev_time = Some(time_ns);
        Ok(time_ns)
    }

    fn task(&mut self) -> Result<TaskRecord, CodecError> {
        let id = self.id()?;
        let workflow = self.id()?;
        let transformation = self.id()?;
        let dependencies = self.ids()?;
        let time_ns = self.time()?;
        let status = self.r.read_u8()?;
        let status = TaskStatus::from_tag(status).ok_or(CodecError::BadTag(status))?;
        Ok(TaskRecord {
            id,
            workflow,
            transformation,
            dependencies,
            time_ns,
            status,
        })
    }

    fn data(&mut self, task_workflow: &Id) -> Result<DataRecord, CodecError> {
        let id = self.id()?;
        let workflow = match self.r.read_u8()? {
            ID_TASK_WORKFLOW if self.version != BatchVersion::V1 => task_workflow.clone(),
            tag => self.id_tagged(tag)?,
        };
        let derivations = self.ids()?;
        let attributes = self.attributes()?;
        Ok(DataRecord {
            id,
            workflow,
            derivations,
            attributes,
        })
    }

    fn attributes(&mut self) -> Result<Vec<(Arc<str>, AttrValue)>, CodecError> {
        let head = self.r.read_u64()?;
        let k = match self.version {
            BatchVersion::V1 => return self.inline_attributes(head),
            _ if head & 1 == 1 => head >> 1,
            BatchVersion::V2 => return self.inline_attributes(head >> 1),
            BatchVersion::V3 | BatchVersion::V4 => self.define_layout(head >> 1)?,
        };
        self.laid_out(k)
    }

    /// Reads the runs of a run-coded layout definition of `n` cells and
    /// numbers the shape as the batch's next layout.
    fn define_layout(&mut self, n: u64) -> Result<u64, CodecError> {
        // Checked, not taken: the payloads that follow take the cells.
        if n > self.cells_left as u64 {
            return Err(CodecError::LengthOverflow);
        }
        let start = self.layouts.cells.len() as u32;
        let mut left = n as usize;
        while left > 0 {
            let first = self.r.read_u64()?;
            let packed = self.r.read_u8()?;
            let len = usize::from(packed >> 3) + 1;
            if len > left {
                return Err(CodecError::LengthOverflow);
            }
            let last = first.saturating_add(len as u64 - 1);
            string(self.strings, last)?;
            let (Ok(first), Ok(last)) = (u32::try_from(first), u32::try_from(last)) else {
                return Err(CodecError::BadStringRef(last));
            };
            let tag = packed & 7;
            self.layouts
                .cells
                .extend((first..=last).map(|name| (name, tag)));
            left -= len;
        }
        let end = self.layouts.cells.len() as u32;
        self.layouts.spans.push((start, end));
        Ok(self.layouts.spans.len() as u64 - 1)
    }

    /// Reads the payloads of a record of the shape of layout `k`.
    fn laid_out(&mut self, k: u64) -> Result<Vec<(Arc<str>, AttrValue)>, CodecError> {
        let cells = usize::try_from(k)
            .ok()
            .and_then(|k| self.layouts.spans.get(k))
            .and_then(|&(start, end)| self.layouts.cells.get(start as usize..end as usize))
            .ok_or(CodecError::BadLayoutRef(k))?;
        // The layout hands out the names, by refcount: nothing but payloads
        // is read per cell.
        let n = take_cells(&mut self.cells_left, cells.len() as u64)?;
        let mut attributes = Vec::with_capacity(n);
        for &(name, tag) in cells {
            let name = string(self.strings, u64::from(name))?.clone();
            // A version 4 float is read here, not through `decode_payload`.
            let value = match (tag, &mut self.float_predictor) {
                (TAG_FLOAT, Some(predictor)) => {
                    AttrValue::Float(decode_float(&mut self.r, predictor)?)
                }
                _ => decode_payload(
                    &mut self.r,
                    self.strings,
                    &mut self.cells_left,
                    &mut self.float_predictor,
                    tag,
                    0,
                )?,
            };
            attributes.push((name, value));
        }
        Ok(attributes)
    }

    /// Reads `(strref, value)^n`: every attribute list of version 1, and in
    /// version 2 the first of its shape, which becomes the batch's next
    /// layout.
    fn inline_attributes(&mut self, n: u64) -> Result<Vec<(Arc<str>, AttrValue)>, CodecError> {
        let n = take_cells(&mut self.cells_left, n)?;
        let v2 = self.version == BatchVersion::V2;
        let start = self.layouts.cells.len() as u32;
        let mut attributes = Vec::with_capacity(n.min(self.r.remaining() / 2));
        for _ in 0..n {
            let name_ref = self.r.read_u64()?;
            let name = string(self.strings, name_ref)?.clone();
            let tag = self.r.read_u8()?;
            let value = decode_payload(
                &mut self.r,
                self.strings,
                &mut self.cells_left,
                &mut self.float_predictor,
                tag,
                0,
            )?;
            attributes.push((name, value));
            if v2 {
                let name_ref = u32::try_from(name_ref).map_err(|_| CodecError::LengthOverflow)?;
                self.layouts.cells.push((name_ref, tag));
            }
        }
        if v2 {
            let end = self.layouts.cells.len() as u32;
            self.layouts.spans.push((start, end));
        }
        Ok(attributes)
    }
}

/// Reads the payload of a value whose tag is already known — from the byte
/// before it or from a layout.
fn decode_payload(
    r: &mut Reader<'_>,
    strings: &[Arc<str>],
    cells_left: &mut usize,
    float_predictor: &mut Option<u16>,
    tag: u8,
    depth: usize,
) -> Result<AttrValue, CodecError> {
    match tag {
        0 => Ok(AttrValue::Null),
        1 => Ok(AttrValue::Bool(r.read_u8()? != 0)),
        2 => Ok(AttrValue::Int(r.read_i64()?)),
        TAG_FLOAT => Ok(AttrValue::Float(match float_predictor {
            Some(predictor) => decode_float(r, predictor)?,
            None => r.read_f64()?,
        })),
        4 => Ok(AttrValue::Str(string(strings, r.read_u64()?)?.clone())),
        5 => {
            if depth == MAX_NESTING {
                return Err(CodecError::TooDeep);
            }
            let n = take_cells(cells_left, r.read_u64()?)?;
            let mut items = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let tag = r.read_u8()?;
                items.push(decode_payload(
                    r,
                    strings,
                    cells_left,
                    float_predictor,
                    tag,
                    depth + 1,
                )?);
            }
            Ok(AttrValue::List(items))
        }
        6 => {
            let n = r.read_len()?;
            Ok(AttrValue::Bytes(r.read_bytes(n)?.to_vec()))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn task(id: u64) -> TaskRecord {
        TaskRecord {
            id: Id::Num(id),
            workflow: Id::Num(1),
            transformation: Id::Str("training".into()),
            dependencies: vec![Id::Num(id.saturating_sub(1))],
            time_ns: 42_000_000,
            status: TaskStatus::Running,
        }
    }

    fn record_with_attrs(n: usize) -> Record {
        let mut d = DataRecord::new("in1", 1u64);
        for i in 0..n {
            d = d.with_attr(format!("attr_{i}"), i as i64);
        }
        Record::TaskBegin {
            task: task(7),
            inputs: vec![d],
        }
    }

    fn task_begin(inputs: Vec<DataRecord>) -> Record {
        Record::TaskBegin {
            task: task(7),
            inputs,
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let records = vec![
            Record::WorkflowBegin {
                workflow: Id::Num(1),
                time_ns: 0,
            },
            record_with_attrs(10),
            Record::TaskEnd {
                task: task(7),
                outputs: vec![DataRecord::new("out1", 1u64)
                    .with_attr("loss", 0.25)
                    .with_attr("note", "fine")
                    .derived_from("in1")],
            },
            Record::WorkflowEnd {
                workflow: Id::Num(1),
                time_ns: 100,
            },
        ];
        let buf = encode_batch(&records);
        let back = decode_batch(&buf).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn single_record_roundtrip() {
        let r = record_with_attrs(3);
        assert_eq!(decode_record(&encode_record(&r)).unwrap(), r);
    }

    #[test]
    fn string_table_dedups_across_grouped_records() {
        // The first record of a shape pays for its names and its layout;
        // every further one adds its payloads and a fixed head — here 100
        // ints of at most two bytes, well under 8 B per attribute — whether
        // it shares the first one's names or only spells them alike.
        const ATTRS: usize = 100;
        const HEAD: usize = 24;
        let shared = record_with_attrs(ATTRS);
        let respelt = record_with_attrs(ATTRS);
        let one = encode_batch(std::slice::from_ref(&shared)).len();
        let two = encode_batch(&[shared.clone(), shared.clone()]).len();
        let three = encode_batch(&[shared.clone(), shared, respelt]).len();
        // Names and layout: a byte at least per name, and at most three
        // here — `attr_7` after `attr_6` is two, and 100 cells are four
        // runs — where version 2 spent nine.
        let shape = one - (two - one);
        assert!(
            (ATTRS..=3 * ATTRS).contains(&shape),
            "names and layout cost {shape} B"
        );
        for (n, added) in [(2, two - one), (3, three - two)] {
            assert!(
                added <= 8 * ATTRS + HEAD,
                "record {n} of one shape added {added} B"
            );
            // 28 one-byte and 72 two-byte ints, and nothing per name.
            assert!(added <= 2 * ATTRS + HEAD, "record {n} added {added} B");
        }
    }

    #[test]
    fn a_shape_is_defined_once_and_then_named() {
        let shaped = |id: u64, loss: f64| {
            DataRecord::new(id, 1u64)
                .with_attr("loss", loss)
                .with_attr("epoch", id as i64)
        };
        // Same names, one tag different; same names in another order: each
        // is a shape of its own.
        let near = DataRecord::new(5u64, 1u64)
            .with_attr("loss", 1i64)
            .with_attr("epoch", 5i64);
        let reordered = DataRecord::new(6u64, 1u64)
            .with_attr("epoch", 6i64)
            .with_attr("loss", 0.5);
        // What one more data record adds to a task that has `before`.
        let added = |before: &[&DataRecord], d: &DataRecord| {
            let mut inputs: Vec<DataRecord> = before.iter().copied().cloned().collect();
            let without = encode_record(&task_begin(inputs.clone())).len();
            inputs.push(d.clone());
            let batch = [task_begin(inputs)];
            let buf = encode_batch(&batch);
            assert_eq!(decode_batch(&buf).unwrap(), batch);
            buf.len() - without
        };
        // Id, workflow marker, no derivations, layout: 5 bytes of head. A
        // definition adds a run per cell that does not continue the one
        // before it: `loss` and `epoch` are consecutive table entries, so
        // two cells of one tag are one run and two of different tags, or
        // in the other order, are two. A loss near 1.0 is a float of 7
        // bytes, an epoch an int of 1.
        let (first, payloads) = (shaped(1, 0.5), 7 + 1);
        assert_eq!(added(&[&first], &shaped(2, 0.25)), 5 + payloads);
        assert_eq!(added(&[&first], &near), 5 + 2 + 2);
        assert_eq!(added(&[&first], &reordered), 5 + 2 * 2 + payloads);
        // An older layout is found behind a newer one.
        assert_eq!(added(&[&first, &near], &shaped(3, 0.125)), 5 + payloads);
        assert_eq!(added(&[&first, &near, &reordered], &near), 5 + 2);
    }

    #[test]
    fn a_layout_is_defined_in_runs_of_consecutive_names() {
        // A first record interns the names `c0` … in order; a second of the
        // same names and other tags defines a layout of its own over them.
        // What that adds past its 5 bytes of head and its payloads is runs.
        let run_bytes = |cells: Vec<AttrValue>| {
            let names: Vec<Arc<str>> = (0..cells.len())
                .map(|i| Arc::from(format!("c{i}")))
                .collect();
            let payloads: usize = cells
                .iter()
                .map(|value| match value {
                    // 0.5: one step from 1.0, the first form.
                    AttrValue::Float(_) => 7,
                    AttrValue::Bool(_) => 1,
                    _ => 0,
                })
                .sum();
            let mut ints = DataRecord::new(1u64, 1u64);
            ints.attributes = names.iter().map(|n| (n.clone(), 0i64.into())).collect();
            let mut other = DataRecord::new(2u64, 1u64);
            other.attributes = names.into_iter().zip(cells).collect();
            let one = encode_record(&task_begin(vec![ints.clone()])).len();
            let batch = [task_begin(vec![ints, other])];
            let buf = encode_batch(&batch);
            assert_eq!(decode_batch(&buf).unwrap(), batch);
            buf.len() - one - 5 - payloads
        };
        let floats = |n| vec![AttrValue::Float(0.5); n];
        assert_eq!(run_bytes(floats(1)), 2);
        assert_eq!(run_bytes(floats(32)), 2);
        assert_eq!(run_bytes(floats(33)), 4);
        assert_eq!(run_bytes(floats(63)), 4);
        // A cell of another tag breaks a run; a `Null` is a run of its own.
        let mut broken = floats(10);
        broken[4] = AttrValue::Bool(true);
        assert_eq!(run_bytes(broken), 3 * 2);
        let mut nulls = floats(10);
        nulls[4] = AttrValue::Null;
        nulls[5] = AttrValue::Null;
        assert_eq!(run_bytes(nulls), 4 * 2);
    }

    /// A batch of one task of workflow 1 whose one data record defines a
    /// layout of `n` cells over the names `a`, `b`, `c` as `runs`, followed
    /// by `payloads`.
    fn defining(n: u8, runs: &[u8], payloads: &[u8]) -> Vec<u8> {
        let mut buf = vec![1, 3, 1, b'a', 1, b'b', 1, b'c', TAG_TASK_BEGIN];
        buf.extend([0, 0, 0, 1, 0, 0, 0, 0, 0, 1]); // task 0, time 0, one data record
        buf.extend([0, 0, ID_TASK_WORKFLOW, 0, n << 1]);
        buf.extend(runs);
        buf.extend(payloads);
        buf
    }

    #[test]
    fn runs_cover_exactly_the_cells_of_their_layout() {
        const INT: u8 = 2;
        let records = decode_batch(&defining(3, &[0, INT | 2 << 3], &[2, 4, 6])).unwrap();
        let Record::TaskBegin { inputs, .. } = &records[0] else {
            panic!("{records:?}")
        };
        let cells: Vec<(&str, &AttrValue)> = inputs[0]
            .attributes
            .iter()
            .map(|(name, value)| (&**name, value))
            .collect();
        let int = AttrValue::Int;
        assert_eq!(cells, [("a", &int(1)), ("b", &int(2)), ("c", &int(3))]);
        // Two runs of one cell each and one of two make the same shape.
        let split = defining(3, &[0, INT, 1, INT | 1 << 3], &[2, 4, 6]);
        assert_eq!(decode_batch(&split).unwrap(), records);
        // A run past the cells the definition declared; a run past the
        // string table.
        assert_eq!(
            decode_batch(&defining(2, &[0, INT | 2 << 3], &[2, 4])),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            decode_batch(&defining(3, &[1, INT | 2 << 3], &[2, 4, 6])),
            Err(CodecError::BadStringRef(3))
        );
        assert_eq!(
            decode_batch(&defining(1, &[0xff, 0x0f, INT], &[2])),
            Err(CodecError::BadStringRef(0x7ff))
        );
    }

    #[test]
    fn a_string_table_entry_says_what_it_shares_with_the_one_before() {
        // Workflow ids are interned in the order of their records; the
        // table sits between the two counts and the records, 4 bytes each.
        let table = |names: &[&str]| {
            let records: Vec<Record> = names
                .iter()
                .map(|name| Record::WorkflowBegin {
                    workflow: Id::from(*name),
                    time_ns: 0,
                })
                .collect();
            let buf = encode_batch(&records);
            assert_eq!(decode_batch(&buf).unwrap(), records);
            buf[2..buf.len() - 4 * names.len()].to_vec()
        };
        assert_eq!(table(&["a10", "a11"]), b"\x03a10\x211");
        assert_eq!(table(&["out1234", "out1233"]), b"\x07out1234\x613");
        assert_eq!(table(&["dup", "dup-x", "d"]), b"\x03dup\x32-x\x10");
        // 15 bytes shared at most, and a suffix of 15 or more escapes to a
        // varint of what exceeds 14.
        let long = "abcdefghijklmnopqrstuvwxyz";
        assert_eq!(
            table(&[long, "abcdefghijklmnopXYZ"]),
            [b"\x0f\x0b", long.as_bytes(), b"\xf4pXYZ"].concat()
        );
        assert_eq!(table(&[&long[..14]])[0], 14);
        assert_eq!(table(&[&long[..15]])[..2], [15, 0]);

        // Hand-built tables of no records: an entry may share all of the
        // one before it, not more, and is UTF-8 as a whole.
        assert_eq!(decode_batch(&[0, 2, 2, 0xc3, 0xa9, 0x20]), Ok(vec![]));
        assert_eq!(
            decode_batch(&[0, 2, 2, 0xc3, 0xa9, 0x30]),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(decode_batch(&[0, 1, 0x10]), Err(CodecError::LengthOverflow));
        assert_eq!(
            decode_batch(&[0, 2, 2, 0xc3, 0xa9, 0x11, b'A']),
            Err(CodecError::BadUtf8)
        );
    }

    #[test]
    fn later_times_are_distances_and_a_data_record_implies_its_workflow() {
        let at = |time_ns| Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns,
        };
        let start = 1_700_000_000_000_000_000;
        let lone = encode_batch(&[at(start)]).len();
        // Nine bytes for the first time, then one or two per step either
        // way, and the whole range still wraps round.
        for (next, bytes) in [(start + 50, 1), (start - 50, 1), (start + 5_000, 2)] {
            let buf = encode_batch(&[at(start), at(next)]);
            assert_eq!(buf.len(), lone + 3 + bytes, "{next}");
            assert_eq!(decode_batch(&buf).unwrap(), [at(start), at(next)]);
        }
        let extremes = [at(u64::MAX), at(0), at(u64::MAX), at(1 << 63), at(0)];
        assert_eq!(decode_batch(&encode_batch(&extremes)).unwrap(), extremes);

        // A data record of its task's workflow says so in one byte; one of
        // another workflow still names it.
        let own = task_begin(vec![DataRecord::new(1u64, 1u64)]);
        let foreign = task_begin(vec![DataRecord::new(1u64, 2u64)]);
        assert_eq!(encode_record(&own).len() + 1, encode_record(&foreign).len());
        assert_eq!(decode_record(&encode_record(&foreign)).unwrap(), foreign);
    }

    #[test]
    fn a_layout_of_nulls_is_reused_only_while_bytes_cover_its_cells() {
        // 100 zero-width cells: a reuse would add 100 cells for 5 bytes.
        // The encoder spends the slack its definitions built up and then
        // defines again, so the decoder's "no more cells than bytes" rule
        // never refuses what the encoder wrote.
        let mut nulls = DataRecord::new(1u64, 1u64);
        for i in 0..100 {
            nulls = nulls.with_attr(format!("n{i}"), AttrValue::Null);
        }
        let batch = vec![task_begin(vec![nulls; 40])];
        let buf = encode_batch(&batch);
        assert_eq!(decode_batch(&buf).unwrap(), batch);
        let all_defined = encode_batch(&[task_begin(vec![DataRecord::new(1u64, 1u64)])]).len()
            + 40 * 200
            + 100 * 3;
        assert!(buf.len() < all_defined * 3 / 4, "{} B", buf.len());
    }

    #[test]
    fn a_run_earns_the_slack_of_its_bytes_not_of_its_cells() {
        // Twenty shapes of 100 one-byte cells, four to six runs each, then
        // 100 `Null`s over the same names reused as often as the encoder
        // dares. Counting a run's cells as bytes would let it dare too
        // often: thousands of cells more than the batch has bytes.
        let names: Vec<Arc<str>> = (0..100).map(|i| Arc::from(format!("n{i}"))).collect();
        let shaped = |id: u64, value: &dyn Fn(usize) -> AttrValue| {
            let mut d = DataRecord::new(id, 1u64);
            d.attributes = names.iter().cloned().zip((0..).map(value)).collect();
            d
        };
        let mut inputs: Vec<DataRecord> = (0..20)
            .map(|j| {
                shaped(j as u64, &|i| match i == j {
                    true => AttrValue::Bool(true),
                    false => AttrValue::Int(1),
                })
            })
            .collect();
        inputs.extend((0..40).map(|j| shaped(100 + j, &|_| AttrValue::Null)));
        let batch = [task_begin(inputs)];
        assert_eq!(decode_batch(&encode_batch(&batch)).unwrap(), batch);
    }

    /// A batch of one task whose first data record defines a layout of
    /// `cells` `Null`s and whose other `reuses` data records name it.
    fn null_layout_bomb(cells: usize, reuses: usize) -> Vec<u8> {
        let mut buf = vec![1, 1, 1, b'n', TAG_TASK_BEGIN];
        buf.extend([0, 0, 0, 1, 0, 0, 0, 0, 0]); // task 0 of workflow 1, time 0
        write_u64(&mut buf, reuses as u64 + 1);
        buf.extend([0, 0, ID_TASK_WORKFLOW, 0]);
        write_u64(&mut buf, (cells as u64) << 1);
        buf.extend(std::iter::repeat_n([0, 0], cells).flatten());
        buf.extend(std::iter::repeat_n([0, 0, ID_TASK_WORKFLOW, 0, 1], reuses).flatten());
        buf
    }

    #[test]
    fn more_cells_than_bytes_is_refused() {
        // Within the allowance the hand-built batch is a valid one.
        let records = decode_batch(&null_layout_bomb(10, 3)).unwrap();
        let Record::TaskBegin { inputs, .. } = &records[0] else {
            panic!("{records:?}")
        };
        assert_eq!(inputs.len(), 4);
        assert!(inputs.iter().all(|d| d.attributes.len() == 10));
        // 4 KB of layout reused by 5-byte records: 2 000 cells each.
        assert_eq!(
            decode_batch(&null_layout_bomb(2_000, 2_000)),
            Err(CodecError::LengthOverflow)
        );
        // Lists draw on the same allowance, level by level.
        let mut nested = encode_record(&task_begin(vec![
            DataRecord::new(1u64, 1u64).with_attr("l", AttrValue::List(vec![]))
        ]));
        assert_eq!(nested.pop(), Some(0));
        nested.extend(std::iter::repeat_n([0x7f, 5], 40).flatten());
        assert_eq!(decode_batch(&nested), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn binary_is_much_smaller_than_debug_repr() {
        let r = record_with_attrs(100);
        let bin = encode_record(&r).len();
        let dbg = format!("{r:?}").len();
        assert!(bin * 2 < dbg, "binary {bin}B vs debug {dbg}B");
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let r = record_with_attrs(10);
        let buf = encode_record(&r);
        for cut in 0..buf.len() {
            assert!(decode_batch(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bytes_after_the_last_record_are_an_error() {
        let mut buf = encode_batch(&[record_with_attrs(2), record_with_attrs(2)]);
        assert!(decode_batch(&buf).is_ok());
        buf.push(0);
        assert_eq!(decode_batch(&buf), Err(CodecError::TrailingBytes));
        assert_eq!(decode_batch(&[0, 0, 0]), Err(CodecError::TrailingBytes));
        assert_eq!(decode_batch(&[0, 0]), Ok(vec![]));
    }

    #[test]
    fn list_nesting_is_bounded() {
        // The record's last bytes are its one attribute's value, an empty
        // list (`05 00`): wrap it in one-element lists (`05 01`) without
        // recursing to build them.
        let rec = Record::TaskBegin {
            task: task(1),
            inputs: vec![DataRecord::new("in1", 1u64).with_attr("l", AttrValue::List(vec![]))],
        };
        let nested = |levels: usize| {
            let mut buf = encode_record(&rec);
            assert_eq!(buf.split_off(buf.len() - 2), [5, 0]);
            buf.extend(std::iter::repeat_n([5, 1], levels - 1).flatten());
            buf.extend([5, 0]);
            buf
        };
        assert_eq!(
            decode_batch(&nested(1)).unwrap(),
            std::slice::from_ref(&rec)
        );
        assert!(decode_batch(&nested(MAX_NESTING)).is_ok());
        assert_eq!(
            decode_batch(&nested(MAX_NESTING + 1)),
            Err(CodecError::TooDeep)
        );
        // What one small compressed envelope can carry: an error, not a
        // stack overflow on the thread decoding it.
        assert_eq!(decode_batch(&nested(30_000)), Err(CodecError::TooDeep));
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = vec![1, 0, 0xee];
        assert_eq!(decode_batch(&buf), Err(CodecError::BadTag(0xee)));
        // A task's status byte is reported as the byte it was.
        let mut buf = encode_record(&Record::TaskBegin {
            task: task(1),
            inputs: vec![],
        });
        assert_eq!(buf.pop(), Some(0), "no inputs");
        assert_eq!(buf.pop(), Some(TaskStatus::Running.tag()));
        buf.extend([0x5a, 0]);
        assert_eq!(decode_batch(&buf), Err(CodecError::BadTag(0x5a)));
        // So is the marker for "the task's workflow" where version 1 had
        // an id, and a layout number ahead of its definition.
        let own = encode_record(&task_begin(vec![DataRecord::new(1u64, 1u64)]));
        let mut records = Vec::new();
        assert_eq!(
            decode_batch_as(BatchVersion::V1, &own, &mut records),
            Err(CodecError::BadTag(ID_TASK_WORKFLOW))
        );
        let mut ahead = own.clone();
        assert_eq!(ahead.pop(), Some(0), "no attributes");
        ahead.push(7 << 1 | 1);
        assert_eq!(decode_batch(&ahead), Err(CodecError::BadLayoutRef(7)));
    }

    #[test]
    fn all_value_types_roundtrip() {
        let d = DataRecord::new(1u64, 1u64)
            .with_attr("null", AttrValue::Null)
            .with_attr("bool", true)
            .with_attr("int", -42i64)
            .with_attr("float", 0.125)
            .with_attr("str", "hello")
            .with_attr("list", vec![1i64, 2, 3])
            .with_attr("bytes", AttrValue::Bytes(vec![0, 1, 2, 255]));
        let rec = Record::TaskEnd {
            task: task(1),
            outputs: vec![d.clone(), d],
        };
        assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
    }

    /// `f` written against `predictor`: its bytes, and the predictor after.
    /// Read back, it is the same bits and moves the predictor alike.
    fn float_coded(predictor: u16, f: f64) -> (Vec<u8>, u16) {
        let (mut out, mut moved) = (Vec::new(), predictor);
        encode_float(&mut out, &mut moved, f);
        let (mut r, mut read) = (Reader::new(&out), predictor);
        let back = decode_float(&mut r, &mut read).map(f64::to_bits);
        assert_eq!(back, Ok(f.to_bits()), "{f:e} against {predictor:#x}");
        assert_eq!((r.remaining(), read), (0, moved));
        (out, moved)
    }

    #[test]
    fn a_float_costs_what_its_head_says() {
        let one = FLOAT_PREDICTOR;
        let bits = f64::from_bits;
        let mantissa = 0x000f_edcb_a987_6543;
        // (predictor, float, bytes, predictor after)
        let table = [
            // The first float of a batch, and its neighbours in [0, 1).
            (one, bits(0x3fe << 52 | mantissa), 7, 0x3fe),
            (0x3fe, bits(0x3fd << 52 | mantissa), 7, 0x3fd),
            // The window's edges: 7 steps either way, and the escape at 8.
            (one, bits(0x406 << 52 | mantissa), 7, 0x406),
            (one, bits(0x3f8 << 52 | mantissa), 7, 0x3f8),
            (one, bits(0x407 << 52 | mantissa), 9, 0x407),
            (one, bits(0x3f7 << 52 | mantissa), 9, 0x3f7),
            // The sign is part of the exponent's distance.
            (one, bits(0xbff << 52 | mantissa), 9, 0xbff),
            (0xbff, bits(0xbfe << 52 | mantissa), 7, 0xbfe),
            // Steps wrap round the 12 bits: a negative NaN one step below
            // the smallest exponent.
            (0, bits(0xfff << 52 | mantissa), 7, 0xfff),
            // Inside the window a round float is 7 bytes too.
            (one, 0.25, 7, 0x3fd),
            (0x3fe, 2.0, 7, 0x400),
            // Outside it, short: whole, and the predictor stays.
            (one, 0.0, 1, one),
            (one, -0.0, 2, one),
            (0x3f0, 0.25, 3, 0x3f0),
            (one, 500.5, 4, one),
            (one, 65_535.0, 5, one),
            (one, f64::INFINITY, 3, one),
            (one, f64::NEG_INFINITY, 3, one),
            (one, f64::NAN, 3, one),
            // A float whose bits end in two zero bytes is 7 either way,
            // and moves the predictor.
            (0x3fe, bits(0x3fe1_2345_6789_0000), 7, 0x3fe),
            (one, bits(0x7001_2345_6789_0000), 7, 0x700),
            // NaN payloads, subnormals and the extremes: 9 bytes from 1.0,
            // and 7 after their like.
            (one, bits(0x7ff0_0000_0000_0001), 9, 0x7ff),
            (one, bits(0xfff8_dead_beef_0001), 9, 0xfff),
            (one, bits(1), 9, 0),
            (0, bits(0x000f_ffff_ffff_ffff), 7, 0),
            (one, bits(0x8000_0000_0000_0001), 9, 0x800),
            (one, f64::MAX, 9, 0x7fe),
            (0x7fe, f64::MIN_POSITIVE * (1.0 + f64::EPSILON), 9, 0x001),
            (0x7fe, f64::MAX * 0.75, 7, 0x7fe),
        ];
        for (predictor, f, len, after) in table {
            let (out, moved) = float_coded(predictor, f);
            assert_eq!((out.len(), moved), (len, after), "{f:e}: {out:02x?}");
        }
        // The first form's head is the step, then the mantissa's top four
        // bits; a whole float's is 0xf0 and the bytes it keeps.
        assert_eq!(float_coded(one, bits(0x3fe << 52 | mantissa)).0[0], 0x1f);
        assert_eq!(float_coded(one, bits(0x406 << 52 | mantissa)).0[0], 0xef);
        assert_eq!(float_coded(one, 500.5).0, [0xf3, 0x48, 0x7f, 0x40]);
        assert_eq!(float_coded(one, 0.0).0, [0xf0]);
    }

    #[test]
    fn a_random_value_costs_7_bytes_and_a_round_one_outside_the_window_at_most_5() {
        // Every mantissa bit in play, as the benchmark's attributes.
        let mut state = 7u64;
        let mut uniform = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            f64::from_bits(u64::from(FLOAT_PREDICTOR) << 52 | state >> 12) - 1.0
        };
        let (mut out, mut predictor) = (Vec::new(), FLOAT_PREDICTOR);
        let n = 100_000;
        for _ in 0..n {
            encode_float(&mut out, &mut predictor, uniform());
        }
        let mean = out.len() as f64 / n as f64;
        assert!((7.0..=7.1).contains(&mean), "{mean} B");
        // At most 16 significant mantissa bits: 7 bytes within 7 steps of
        // the predictor, like any float there, and 5 at most outside them,
        // where the predictor stands where it stood.
        let in_window = |predictor: u16, f: f64| {
            let step = ((f.to_bits() >> 52) as u16).wrapping_sub(predictor) & 0xfff;
            step <= 7 || step >= 0x1000 - 7
        };
        let round = (0..1u64 << 16).map(|i| i as f64).chain([
            0.25,
            500.5,
            -1.5 * 2f64.powi(-990),
            3.0 * 2f64.powi(1000),
        ]);
        for (i, f) in round.enumerate() {
            for predictor in [FLOAT_PREDICTOR, 0, 0x7ff, 0xfff, (i as u16) & 0xfff] {
                let (out, moved) = float_coded(predictor, f);
                let (fits, after) = match in_window(predictor, f) {
                    true => (out.len() == 7, (f.to_bits() >> 52) as u16),
                    false => (out.len() <= 5, predictor),
                };
                assert!(fits && moved == after, "{f:e} against {predictor:#x}");
            }
        }
        // A round value among random ones costs the next one nothing.
        let (mut out, mut predictor) = (Vec::new(), FLOAT_PREDICTOR);
        for f in [0.75 + f64::EPSILON, 500.5, 0.625 + f64::EPSILON] {
            encode_float(&mut out, &mut predictor, f);
        }
        assert_eq!(out.len(), 7 + 4 + 7);
    }

    /// Calls `f` on every attribute value of `records`, list items after
    /// the list that holds them.
    fn each_value(records: &mut [Record], f: &mut dyn FnMut(&mut AttrValue)) {
        fn walk(value: &mut AttrValue, f: &mut dyn FnMut(&mut AttrValue)) {
            f(value);
            if let AttrValue::List(items) = value {
                items.iter_mut().for_each(|item| walk(item, f));
            }
        }
        for record in records {
            let data = match record {
                Record::TaskBegin { inputs, .. } => inputs,
                Record::TaskEnd { outputs, .. } => outputs,
                _ => continue,
            };
            for (_, value) in data.iter_mut().flat_map(|d| &mut d.attributes) {
                walk(value, f);
            }
        }
    }

    /// `records` with every float an int of its bits: equal when every bit
    /// is, NaN payloads included, and -0.0 unequal to 0.0.
    fn by_bits(mut records: Vec<Record>) -> Vec<Record> {
        each_value(&mut records, &mut |value| {
            if let AttrValue::Float(f) = value {
                *value = AttrValue::Int(f.to_bits() as i64);
            }
        });
        records
    }

    fn arb_value() -> impl Strategy<Value = AttrValue> {
        let leaf = prop_oneof![
            Just(AttrValue::Null),
            any::<bool>().prop_map(AttrValue::Bool),
            any::<i64>().prop_map(AttrValue::Int),
            any::<f64>()
                .prop_filter("NaN breaks equality", |f| !f.is_nan())
                .prop_map(AttrValue::Float),
            "[a-z]{0,8}".prop_map(AttrValue::from),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(AttrValue::Bytes),
        ];
        leaf.prop_recursive(2, 8, 4, |inner| {
            proptest::collection::vec(inner, 0..4).prop_map(AttrValue::List)
        })
    }

    fn arb_id() -> impl Strategy<Value = Id> {
        prop_oneof![
            any::<u64>().prop_map(Id::Num),
            "[a-z0-9_]{1,12}".prop_map(Id::from)
        ]
    }

    /// Times as they come and as they should not: any order, both ends of
    /// the range, and neighbours a few nanoseconds apart.
    fn arb_time() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(0),
            Just(u64::MAX),
            1_000_000u64..1_000_100
        ]
    }

    fn arb_data() -> impl Strategy<Value = DataRecord> {
        (
            arb_id(),
            arb_id(),
            proptest::collection::vec(arb_id(), 0..3),
            proptest::collection::vec(("[a-z_]{1,10}", arb_value()), 0..6),
        )
            .prop_map(|(id, workflow, derivations, attributes)| DataRecord {
                id,
                workflow,
                derivations,
                attributes: attributes
                    .into_iter()
                    .map(|(n, v)| (n.as_str().into(), v))
                    .collect(),
            })
    }

    fn arb_task() -> impl Strategy<Value = TaskRecord> {
        (
            arb_id(),
            arb_id(),
            arb_id(),
            proptest::collection::vec(arb_id(), 0..3),
            arb_time(),
            prop_oneof![Just(TaskStatus::Running), Just(TaskStatus::Finished)],
        )
            .prop_map(
                |(id, workflow, transformation, dependencies, time_ns, status)| TaskRecord {
                    id,
                    workflow,
                    transformation,
                    dependencies,
                    time_ns,
                    status,
                },
            )
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        prop_oneof![
            (arb_id(), arb_time())
                .prop_map(|(workflow, time_ns)| Record::WorkflowBegin { workflow, time_ns }),
            (arb_id(), arb_time())
                .prop_map(|(workflow, time_ns)| Record::WorkflowEnd { workflow, time_ns }),
            (arb_task(), proptest::collection::vec(arb_data(), 0..4))
                .prop_map(|(task, inputs)| Record::TaskBegin { task, inputs }),
            (arb_task(), proptest::collection::vec(arb_data(), 0..4))
                .prop_map(|(task, outputs)| Record::TaskEnd { task, outputs }),
        ]
    }

    /// Rewrites the data records of `records` after `how`, one byte per
    /// data record in order: left alone (never shares a shape), given its
    /// task's workflow, or given the attribute list of the batch's first
    /// data record — the very same names, names spelt alike, one tag
    /// different, or the same cells in another order.
    fn relate_shapes(records: &mut [Record], how: &[u8]) {
        let mut first: Option<Vec<(Arc<str>, AttrValue)>> = None;
        let mut how = how.iter().cycle();
        for record in records {
            let (task, data) = match record {
                Record::TaskBegin { task, inputs } => (task, inputs),
                Record::TaskEnd { task, outputs } => (task, outputs),
                _ => continue,
            };
            for d in data {
                let how = *how.next().expect("cycle of a non-empty slice");
                if how & 1 == 1 {
                    d.workflow = task.workflow.clone();
                }
                let Some(shape) = &first else {
                    first = Some(d.attributes.clone());
                    continue;
                };
                match how >> 1 & 7 {
                    0 | 1 => {}
                    2 | 3 => d.attributes = shape.clone(),
                    4 => {
                        d.attributes = shape
                            .iter()
                            .map(|(name, value)| (Arc::from(&**name), value.clone()))
                            .collect();
                    }
                    5 => {
                        d.attributes = shape.clone();
                        if let Some((_, value)) = d.attributes.last_mut() {
                            *value = match value {
                                AttrValue::Int(_) => AttrValue::Null,
                                _ => AttrValue::Int(-1),
                            };
                        }
                    }
                    _ => d.attributes = shape.iter().rev().cloned().collect(),
                }
            }
        }
    }

    fn arb_batch() -> impl Strategy<Value = Vec<Record>> {
        (
            proptest::collection::vec(arb_record(), 0..8),
            proptest::collection::vec(any::<u8>(), 1..12),
        )
            .prop_map(|(mut records, how)| {
                relate_shapes(&mut records, &how);
                records
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_batch_roundtrip(records in arb_batch()) {
            let mut buf = encode_batch(&records);
            prop_assert_eq!(decode_batch(&buf).unwrap(), records);
            // Decoding consumes exactly what encoding wrote.
            buf.push(0);
            prop_assert_eq!(decode_batch(&buf), Err(CodecError::TrailingBytes));
        }

        #[test]
        fn prop_every_float_survives_bit_exactly(
            mut records in arb_batch(),
            bits in proptest::collection::vec(any::<u64>(), 1..32),
        ) {
            // Any bit pattern, where a float is: in a layout defined or
            // reused, in a list, between cells of other tags.
            let mut bits = bits.into_iter().cycle();
            each_value(&mut records, &mut |value| {
                if let AttrValue::Float(f) = value {
                    *f = f64::from_bits(bits.next().expect("cycle of a non-empty vec"));
                }
            });
            let back = decode_batch(&encode_batch(&records)).unwrap();
            prop_assert_eq!(by_bits(back), by_bits(records));
        }

        #[test]
        fn prop_a_float_is_one_to_nine_bytes(
            floats in proptest::collection::vec(any::<u64>(), 1..32),
            start in 0u16..0x1000,
        ) {
            // One after the other, as a batch writes them.
            let mut predictor = start;
            for bits in floats {
                let (out, moved) = float_coded(predictor, f64::from_bits(bits));
                prop_assert!((1..=9).contains(&out.len()));
                predictor = moved;
            }
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            for version in [BatchVersion::V1, BatchVersion::V2, BatchVersion::V3, BatchVersion::V4] {
                let _ = decode_batch_as(version, &bytes, &mut Vec::new());
            }
        }
    }
}
