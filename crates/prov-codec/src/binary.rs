//! Compact binary encoding of capture records.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! batch      := count, strtab, record*
//! strtab     := nstrings, (len, utf8bytes)*
//! record     := tag:u8, body
//! body(wf)   := id, time
//! body(task) := taskrec, ndata, datarec*
//! taskrec    := id, workflow, transformation, ndeps, id*, time, status:u8
//! datarec    := id, workflow, nderiv, id*, nattrs, (strref, value)*
//! id         := 0x00, varint | 0x01, strref
//! value      := tag:u8, payload   (ints zigzagged, floats as LE bits)
//! ```
//!
//! Strings are deduplicated per batch through the string table, which is why
//! grouping several records into one batch compounds with compression — the
//! attribute names of 100-attribute tasks appear once per batch instead of
//! once per record.

use crate::varint::{write_i64, write_u64, Reader};
use crate::{CodecError, MAX_NESTING};
use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::cell::RefCell;
use std::sync::Arc;

const TAG_WF_BEGIN: u8 = 0;
const TAG_WF_END: u8 = 1;
const TAG_TASK_BEGIN: u8 = 2;
const TAG_TASK_END: u8 = 3;

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

/// Reusable batch encoder with an allocation-free steady state.
///
/// The string table interns *borrowed* `&str` keys: entries are spans into a
/// byte arena looked up through an open-addressed hash index, so `intern`
/// never copies a string that is already present and never allocates once
/// the arena/index have grown to their working-set size. Reusing one
/// `Encoder` across batches (the transmitter does) makes the encode hot path
/// allocation-free per record.
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
        }
    }

    fn reset(&mut self) {
        self.arena.clear();
        self.spans.clear();
        // Cheap memset; capacity is retained.
        self.index.iter_mut().for_each(|slot| *slot = (0, 0));
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

    /// Encodes `records` as one batch, appending the bytes to `out`.
    ///
    /// `out` is *not* cleared — callers own the buffer and its capacity.
    pub fn encode_batch_into(&mut self, records: &[Record], out: &mut Vec<u8>) {
        self.reset();
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        for r in records {
            encode_record_into(&mut body, self, r);
        }
        write_u64(out, records.len() as u64);
        write_u64(out, self.spans.len() as u64);
        out.reserve(self.arena.len() + self.spans.len() * 2 + body.len());
        for i in 0..self.spans.len() {
            let (off, len) = self.spans[i];
            write_u64(out, len as u64);
            out.extend_from_slice(&self.arena[off as usize..(off + len) as usize]);
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

/// Decodes a batch into a caller-owned `Vec` (cleared first), recycling the
/// record buffer and a thread-local string-table scratch across messages —
/// the decode-side twin of [`encode_batch_into`].
pub fn decode_batch_into(buf: &[u8], records: &mut Vec<Record>) -> Result<(), CodecError> {
    thread_local! {
        static STRINGS: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
    }
    records.clear();
    let mut r = Reader::new(buf);
    let count = r.read_u64()? as usize;
    let nstrings = r.read_u64()? as usize;
    STRINGS.with(|cell| {
        let strings = &mut *cell.borrow_mut();
        strings.clear();
        strings.reserve(nstrings.min(r.remaining()));
        for _ in 0..nstrings {
            let len = r.read_len()?;
            let bytes = r.read_bytes(len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
            strings.push(Arc::from(s));
        }
        records.reserve(count.min(r.remaining() + 1));
        for _ in 0..count {
            records.push(decode_record_from(&mut r, strings)?);
        }
        Ok(())
    })
}

/// Decodes a single record (one-element batch).
pub fn decode_record(buf: &[u8]) -> Result<Record, CodecError> {
    let mut records = decode_batch(buf)?;
    records.pop().ok_or(CodecError::UnexpectedEof)
}

fn encode_record_into(out: &mut Vec<u8>, tab: &mut Encoder, record: &Record) {
    match record {
        Record::WorkflowBegin { workflow, time_ns } => {
            out.push(TAG_WF_BEGIN);
            encode_id(out, tab, workflow);
            write_u64(out, *time_ns);
        }
        Record::WorkflowEnd { workflow, time_ns } => {
            out.push(TAG_WF_END);
            encode_id(out, tab, workflow);
            write_u64(out, *time_ns);
        }
        Record::TaskBegin { task, inputs } => {
            out.push(TAG_TASK_BEGIN);
            encode_task(out, tab, task);
            write_u64(out, inputs.len() as u64);
            for d in inputs {
                encode_data(out, tab, d);
            }
        }
        Record::TaskEnd { task, outputs } => {
            out.push(TAG_TASK_END);
            encode_task(out, tab, task);
            write_u64(out, outputs.len() as u64);
            for d in outputs {
                encode_data(out, tab, d);
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
                out.extend_from_slice(&[0, *n as u8]);
            } else {
                out.push(0);
                write_u64(out, *n);
            }
        }
        Id::Str(s) => {
            let r = tab.intern(s);
            if r < 0x80 {
                out.extend_from_slice(&[1, r as u8]);
            } else {
                out.push(1);
                write_u64(out, r);
            }
        }
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
    write_u64(out, t.time_ns);
    out.push(t.status.tag());
}

fn encode_data(out: &mut Vec<u8>, tab: &mut Encoder, d: &DataRecord) {
    encode_id(out, tab, &d.id);
    encode_id(out, tab, &d.workflow);
    write_u64(out, d.derivations.len() as u64);
    for x in &d.derivations {
        encode_id(out, tab, x);
    }
    write_u64(out, d.attributes.len() as u64);
    for (name, value) in &d.attributes {
        let name_ref = tab.intern(name);
        // Fast path for the dominant shape — small table reference with a
        // scalar value — writing name ref + tag + payload head in one go.
        // Bytes are identical to the generic path.
        if name_ref < 0x80 {
            match value {
                AttrValue::Int(i) => {
                    let zz = crate::varint::zigzag(*i);
                    if zz < 0x80 {
                        out.extend_from_slice(&[name_ref as u8, 2, zz as u8]);
                    } else {
                        out.extend_from_slice(&[name_ref as u8, 2]);
                        write_u64(out, zz);
                    }
                    continue;
                }
                AttrValue::Float(f) => {
                    let bits = f.to_le_bytes();
                    out.extend_from_slice(&[
                        name_ref as u8,
                        3,
                        bits[0],
                        bits[1],
                        bits[2],
                        bits[3],
                        bits[4],
                        bits[5],
                        bits[6],
                        bits[7],
                    ]);
                    continue;
                }
                _ => {}
            }
        }
        write_u64(out, name_ref);
        encode_value(out, tab, value);
    }
}

fn encode_value(out: &mut Vec<u8>, tab: &mut Encoder, v: &AttrValue) {
    out.push(v.tag());
    match v {
        AttrValue::Null => {}
        AttrValue::Bool(b) => out.push(*b as u8),
        AttrValue::Int(i) => write_i64(out, *i),
        AttrValue::Float(f) => out.extend_from_slice(&f.to_le_bytes()),
        AttrValue::Str(s) => write_u64(out, tab.intern(s)),
        AttrValue::List(l) => {
            write_u64(out, l.len() as u64);
            for x in l {
                encode_value(out, tab, x);
            }
        }
        AttrValue::Bytes(b) => {
            write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
    }
}

fn decode_record_from(r: &mut Reader<'_>, strings: &[Arc<str>]) -> Result<Record, CodecError> {
    let tag = r.read_u8()?;
    match tag {
        TAG_WF_BEGIN | TAG_WF_END => {
            let workflow = decode_id(r, strings)?;
            let time_ns = r.read_u64()?;
            Ok(if tag == TAG_WF_BEGIN {
                Record::WorkflowBegin { workflow, time_ns }
            } else {
                Record::WorkflowEnd { workflow, time_ns }
            })
        }
        TAG_TASK_BEGIN | TAG_TASK_END => {
            let task = decode_task(r, strings)?;
            let n = r.read_u64()? as usize;
            let mut data = Vec::with_capacity(n.min(r.remaining() + 1));
            for _ in 0..n {
                data.push(decode_data(r, strings)?);
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

fn decode_id(r: &mut Reader<'_>, strings: &[Arc<str>]) -> Result<Id, CodecError> {
    match r.read_u8()? {
        0 => Ok(Id::Num(r.read_u64()?)),
        1 => {
            let i = r.read_u64()?;
            strings
                .get(i as usize)
                .map(|s| Id::Str(s.clone()))
                .ok_or(CodecError::BadStringRef(i))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

fn decode_task(r: &mut Reader<'_>, strings: &[Arc<str>]) -> Result<TaskRecord, CodecError> {
    let id = decode_id(r, strings)?;
    let workflow = decode_id(r, strings)?;
    let transformation = decode_id(r, strings)?;
    let ndeps = r.read_u64()? as usize;
    let mut dependencies = Vec::with_capacity(ndeps.min(r.remaining() + 1));
    for _ in 0..ndeps {
        dependencies.push(decode_id(r, strings)?);
    }
    let time_ns = r.read_u64()?;
    let status = TaskStatus::from_tag(r.read_u8()?).ok_or(CodecError::BadTag(0xff))?;
    Ok(TaskRecord {
        id,
        workflow,
        transformation,
        dependencies,
        time_ns,
        status,
    })
}

fn decode_data(r: &mut Reader<'_>, strings: &[Arc<str>]) -> Result<DataRecord, CodecError> {
    let id = decode_id(r, strings)?;
    let workflow = decode_id(r, strings)?;
    let nderiv = r.read_u64()? as usize;
    let mut derivations = Vec::with_capacity(nderiv.min(r.remaining() + 1));
    for _ in 0..nderiv {
        derivations.push(decode_id(r, strings)?);
    }
    let nattrs = r.read_u64()? as usize;
    let mut attributes = Vec::with_capacity(nattrs.min(r.remaining() + 1));
    for _ in 0..nattrs {
        let name_ref = r.read_u64()?;
        let name = strings
            .get(name_ref as usize)
            .ok_or(CodecError::BadStringRef(name_ref))?
            .clone();
        let value = decode_value(r, strings, 0)?;
        attributes.push((name, value));
    }
    Ok(DataRecord {
        id,
        workflow,
        derivations,
        attributes,
    })
}

fn decode_value(
    r: &mut Reader<'_>,
    strings: &[Arc<str>],
    depth: usize,
) -> Result<AttrValue, CodecError> {
    match r.read_u8()? {
        0 => Ok(AttrValue::Null),
        1 => Ok(AttrValue::Bool(r.read_u8()? != 0)),
        2 => Ok(AttrValue::Int(r.read_i64()?)),
        3 => Ok(AttrValue::Float(r.read_f64()?)),
        4 => {
            let i = r.read_u64()?;
            strings
                .get(i as usize)
                .map(|s| AttrValue::Str(s.clone()))
                .ok_or(CodecError::BadStringRef(i))
        }
        5 => {
            if depth == MAX_NESTING {
                return Err(CodecError::TooDeep);
            }
            let n = r.read_u64()? as usize;
            let mut items = Vec::with_capacity(n.min(r.remaining() + 1));
            for _ in 0..n {
                items.push(decode_value(r, strings, depth + 1)?);
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
        // Encoding two identical records in one batch must be much smaller
        // than twice one record, because attribute names are shared.
        let r = record_with_attrs(50);
        let one = encode_batch(std::slice::from_ref(&r)).len();
        let two = encode_batch(&[r.clone(), r]).len();
        assert!(
            two < one + one / 2,
            "batch of 2 = {two}B vs single = {one}B: string table not shared"
        );
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
            let _ = decode_batch(&buf[..cut]); // must not panic
        }
    }

    #[test]
    fn list_nesting_is_bounded() {
        // The record's last bytes are its one attribute, an empty list
        // (`05 00`): wrap it in one-element lists (`05 01`) without
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
            outputs: vec![d],
        };
        assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
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
            any::<u64>(),
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
            (arb_id(), any::<u64>())
                .prop_map(|(workflow, time_ns)| Record::WorkflowBegin { workflow, time_ns }),
            (arb_id(), any::<u64>())
                .prop_map(|(workflow, time_ns)| Record::WorkflowEnd { workflow, time_ns }),
            (arb_task(), proptest::collection::vec(arb_data(), 0..3))
                .prop_map(|(task, inputs)| Record::TaskBegin { task, inputs }),
            (arb_task(), proptest::collection::vec(arb_data(), 0..3))
                .prop_map(|(task, outputs)| Record::TaskEnd { task, outputs }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_batch_roundtrip(records in proptest::collection::vec(arb_record(), 0..8)) {
            let buf = encode_batch(&records);
            prop_assert_eq!(decode_batch(&buf).unwrap(), records);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_batch(&bytes);
        }
    }
}
