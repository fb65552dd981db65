//! Minimal JSON support: a value model, serializer, parser, and the record
//! encodings used by the HTTP baselines and the model's JSON ablation.
//!
//! [`JsonStyle::Compact`] emits lean JSON (DfAnalyzer-style rows);
//! [`JsonStyle::Verbose`] emits a PROV-JSON-flavoured envelope with explicit
//! `@context`, `prov:type`, and relation objects — modelled on the
//! ProvLake open-source client payloads. The verbose form is 2–3× larger,
//! which is the honest source of the byte-count asymmetry in the paper's
//! Fig. 6c.

use crate::MAX_NESTING;
use prov_model::{AttrValue, DataRecord, Record, TaskRecord, TaskStatus};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object (sorted keys for deterministic output).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        JsonValue::String(s) => write_json_string(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON parse errors with byte offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable message.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document (single value with optional surrounding space).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("bad unicode escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{', "expected object")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Encoding style for records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonStyle {
    /// Lean field names, no envelope — DfAnalyzer-style rows.
    Compact,
    /// PROV-JSON-flavoured envelope with `@context`, `prov:type` and
    /// explicit relation objects — ProvLake-style payloads.
    Verbose,
}

fn attr_to_json(v: &AttrValue) -> JsonValue {
    match v {
        AttrValue::Null => JsonValue::Null,
        AttrValue::Bool(b) => JsonValue::Bool(*b),
        AttrValue::Int(i) => JsonValue::Number(*i as f64),
        AttrValue::Float(f) => JsonValue::Number(*f),
        AttrValue::Str(s) => JsonValue::String(s.to_string()),
        AttrValue::List(l) => JsonValue::Array(l.iter().map(attr_to_json).collect()),
        AttrValue::Bytes(b) => JsonValue::String(hex(b)),
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn data_to_json(d: &DataRecord, style: JsonStyle) -> JsonValue {
    let attrs = JsonValue::Object(
        d.attributes
            .iter()
            .map(|(k, v)| (k.to_string(), attr_to_json(v)))
            .collect(),
    );
    let derivations = JsonValue::Array(
        d.derivations
            .iter()
            .map(|x| JsonValue::String(x.to_string()))
            .collect(),
    );
    match style {
        JsonStyle::Compact => obj(vec![
            ("id", JsonValue::String(d.id.to_string())),
            ("wf", JsonValue::String(d.workflow.to_string())),
            ("der", derivations),
            ("attrs", attrs),
        ]),
        JsonStyle::Verbose => obj(vec![
            ("@id", JsonValue::String(format!("provlake:data/{}", d.id))),
            ("prov:type", JsonValue::String("prov:Entity".into())),
            (
                "prov:wasAttributedTo",
                obj(vec![(
                    "prov:agent",
                    JsonValue::String(format!("provlake:workflow/{}", d.workflow)),
                )]),
            ),
            (
                "prov:wasDerivedFrom",
                JsonValue::Array(
                    d.derivations
                        .iter()
                        .map(|x| {
                            obj(vec![(
                                "prov:usedEntity",
                                JsonValue::String(format!("provlake:data/{x}")),
                            )])
                        })
                        .collect(),
                ),
            ),
            ("attributes", attrs),
        ]),
    }
}

fn task_to_json(t: &TaskRecord, style: JsonStyle) -> JsonValue {
    let status = match t.status {
        TaskStatus::Running => "running",
        TaskStatus::Finished => "finished",
    };
    match style {
        JsonStyle::Compact => obj(vec![
            ("id", JsonValue::String(t.id.to_string())),
            ("wf", JsonValue::String(t.workflow.to_string())),
            ("tr", JsonValue::String(t.transformation.to_string())),
            (
                "deps",
                JsonValue::Array(
                    t.dependencies
                        .iter()
                        .map(|d| JsonValue::String(d.to_string()))
                        .collect(),
                ),
            ),
            ("t", JsonValue::Number(t.time_ns as f64)),
            ("st", JsonValue::String(status.into())),
        ]),
        JsonStyle::Verbose => obj(vec![
            ("@id", JsonValue::String(format!("provlake:task/{}", t.id))),
            ("prov:type", JsonValue::String("prov:Activity".into())),
            (
                "prov:wasAssociatedWith",
                obj(vec![(
                    "prov:agent",
                    JsonValue::String(format!("provlake:workflow/{}", t.workflow)),
                )]),
            ),
            (
                "provlake:transformation",
                JsonValue::String(t.transformation.to_string()),
            ),
            (
                "prov:wasInformedBy",
                JsonValue::Array(
                    t.dependencies
                        .iter()
                        .map(|d| {
                            obj(vec![(
                                "prov:informant",
                                JsonValue::String(format!("provlake:task/{d}")),
                            )])
                        })
                        .collect(),
                ),
            ),
            ("prov:time", JsonValue::Number(t.time_ns as f64)),
            ("provlake:status", JsonValue::String(status.into())),
        ]),
    }
}

/// Encodes one record as JSON in the given style.
pub fn record_to_json(record: &Record, style: JsonStyle) -> JsonValue {
    let inner = match record {
        Record::WorkflowBegin { workflow, time_ns } => obj(vec![
            ("kind", JsonValue::String("workflow_begin".into())),
            ("workflow", JsonValue::String(workflow.to_string())),
            ("time", JsonValue::Number(*time_ns as f64)),
        ]),
        Record::WorkflowEnd { workflow, time_ns } => obj(vec![
            ("kind", JsonValue::String("workflow_end".into())),
            ("workflow", JsonValue::String(workflow.to_string())),
            ("time", JsonValue::Number(*time_ns as f64)),
        ]),
        Record::TaskBegin { task, inputs } => obj(vec![
            ("kind", JsonValue::String("task_begin".into())),
            ("task", task_to_json(task, style)),
            (
                if style == JsonStyle::Verbose {
                    "prov:used"
                } else {
                    "in"
                },
                JsonValue::Array(inputs.iter().map(|d| data_to_json(d, style)).collect()),
            ),
        ]),
        Record::TaskEnd { task, outputs } => obj(vec![
            ("kind", JsonValue::String("task_end".into())),
            ("task", task_to_json(task, style)),
            (
                if style == JsonStyle::Verbose {
                    "prov:generated"
                } else {
                    "out"
                },
                JsonValue::Array(outputs.iter().map(|d| data_to_json(d, style)).collect()),
            ),
        ]),
    };
    if style == JsonStyle::Verbose {
        obj(vec![
            (
                "@context",
                obj(vec![
                    (
                        "prov",
                        JsonValue::String("http://www.w3.org/ns/prov#".into()),
                    ),
                    (
                        "provlake",
                        JsonValue::String("https://ibm.github.io/provlake/ns#".into()),
                    ),
                ]),
            ),
            ("payload", inner),
        ])
    } else {
        inner
    }
}

/// Encodes a group of records as a JSON array string (the grouping format
/// the ProvLake baseline posts in one HTTP request).
pub fn records_to_json(records: &[Record], style: JsonStyle) -> String {
    JsonValue::Array(records.iter().map(|r| record_to_json(r, style)).collect()).to_string_compact()
}

fn json_to_attr(v: &JsonValue) -> AttrValue {
    match v {
        JsonValue::Null => AttrValue::Null,
        JsonValue::Bool(b) => AttrValue::Bool(*b),
        JsonValue::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                AttrValue::Int(*n as i64)
            } else {
                AttrValue::Float(*n)
            }
        }
        JsonValue::String(s) => AttrValue::Str(s.as_str().into()),
        JsonValue::Array(items) => AttrValue::List(items.iter().map(json_to_attr).collect()),
        JsonValue::Object(_) => AttrValue::Null,
    }
}

fn parse_id(s: &str) -> prov_model::Id {
    // Numeric strings decode back to numeric ids (matching the encoder's
    // `to_string` of `Id::Num`).
    match s.parse::<u64>() {
        Ok(n) => prov_model::Id::Num(n),
        Err(_) => prov_model::Id::Str(s.into()),
    }
}

fn err(message: &'static str) -> JsonError {
    JsonError { offset: 0, message }
}

fn json_to_data(v: &JsonValue) -> Result<DataRecord, JsonError> {
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("data missing id"))?;
    let wf = v
        .get("wf")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("data missing wf"))?;
    let derivations = v
        .get("der")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_str)
        .map(parse_id)
        .collect();
    let attributes = match v.get("attrs") {
        Some(JsonValue::Object(m)) => m
            .iter()
            .map(|(k, val)| (k.as_str().into(), json_to_attr(val)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(DataRecord {
        id: parse_id(id),
        workflow: parse_id(wf),
        derivations,
        attributes,
    })
}

fn json_to_task(v: &JsonValue) -> Result<TaskRecord, JsonError> {
    let field = |k: &'static str| {
        v.get(k).and_then(JsonValue::as_str).ok_or(JsonError {
            offset: 0,
            message: "task missing field",
        })
    };
    let status = match field("st")? {
        "running" => TaskStatus::Running,
        "finished" => TaskStatus::Finished,
        _ => return Err(err("bad task status")),
    };
    Ok(TaskRecord {
        id: parse_id(field("id")?),
        workflow: parse_id(field("wf")?),
        transformation: parse_id(field("tr")?),
        dependencies: v
            .get("deps")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(JsonValue::as_str)
            .map(parse_id)
            .collect(),
        time_ns: v.get("t").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
        status,
    })
}

/// Decodes a record from its [`JsonStyle::Compact`] representation — the
/// inverse of [`record_to_json`] for the compact style, used by the
/// baseline ingestion servers.
pub fn record_from_json(v: &JsonValue) -> Result<Record, JsonError> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("missing kind"))?;
    let time = |v: &JsonValue| v.get("time").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    match kind {
        "workflow_begin" | "workflow_end" => {
            let wf = v
                .get("workflow")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err("missing workflow"))?;
            let workflow = parse_id(wf);
            Ok(if kind == "workflow_begin" {
                Record::WorkflowBegin {
                    workflow,
                    time_ns: time(v),
                }
            } else {
                Record::WorkflowEnd {
                    workflow,
                    time_ns: time(v),
                }
            })
        }
        "task_begin" => Ok(Record::TaskBegin {
            task: json_to_task(v.get("task").ok_or_else(|| err("missing task"))?)?,
            inputs: v
                .get("in")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .map(json_to_data)
                .collect::<Result<_, _>>()?,
        }),
        "task_end" => Ok(Record::TaskEnd {
            task: json_to_task(v.get("task").ok_or_else(|| err("missing task"))?)?,
            outputs: v
                .get("out")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .map(json_to_data)
                .collect::<Result<_, _>>()?,
        }),
        _ => Err(err("unknown record kind")),
    }
}

/// Decodes a compact-style JSON document containing either one record or
/// an array of records.
pub fn records_from_json(text: &str) -> Result<Vec<Record>, JsonError> {
    let v = parse(text)?;
    match &v {
        JsonValue::Array(items) => items.iter().map(record_from_json).collect(),
        _ => Ok(vec![record_from_json(&v)?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::Id;

    fn sample() -> Record {
        let task = TaskRecord {
            id: Id::Num(1),
            workflow: Id::Num(9),
            transformation: Id::Str("training".into()),
            dependencies: vec![Id::Num(0)],
            time_ns: 5,
            status: TaskStatus::Running,
        };
        Record::TaskBegin {
            task,
            inputs: vec![DataRecord::new("in1", 9u64)
                .with_attr("lr", 0.1)
                .with_attr("batch", 32i64)],
        }
    }

    #[test]
    fn parse_simple_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"k\" 1}").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        assert_eq!(
            parse(&nested(MAX_NESTING + 1)).unwrap_err().message,
            "nesting too deep"
        );
        // A datagram-sized run of openers errors instead of overflowing the stack.
        assert!(parse(&"[".repeat(60_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(10_000)).is_err());
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let r = sample();
        for style in [JsonStyle::Compact, JsonStyle::Verbose] {
            let text = record_to_json(&r, style).to_string_compact();
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.to_string_compact(), text);
        }
    }

    #[test]
    fn verbose_is_substantially_larger_than_compact() {
        let r = sample();
        let compact = record_to_json(&r, JsonStyle::Compact).to_string_compact();
        let verbose = record_to_json(&r, JsonStyle::Verbose).to_string_compact();
        assert!(
            verbose.len() as f64 > compact.len() as f64 * 1.8,
            "verbose {} vs compact {}",
            verbose.len(),
            compact.len()
        );
    }

    #[test]
    fn verbose_carries_prov_vocabulary() {
        let text = record_to_json(&sample(), JsonStyle::Verbose).to_string_compact();
        for needle in [
            "@context",
            "prov:Activity",
            "prov:used",
            "prov:wasAssociatedWith",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn string_escaping_roundtrip() {
        let tricky = "quote\" slash\\ newline\n tab\t unicode\u{1F600} ctrl\u{1}";
        let mut out = String::new();
        write_json_string(&mut out, tricky);
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some(tricky));
    }

    #[test]
    fn group_encoding_is_an_array() {
        let text = records_to_json(&[sample(), sample()], JsonStyle::Compact);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 2);
    }

    #[test]
    fn numbers_render_integers_cleanly() {
        assert_eq!(JsonValue::Number(5.0).to_string_compact(), "5");
        assert_eq!(JsonValue::Number(0.5).to_string_compact(), "0.5");
        assert_eq!(JsonValue::Number(-3.0).to_string_compact(), "-3");
    }

    #[test]
    fn compact_json_roundtrips_records() {
        let records = vec![
            Record::WorkflowBegin {
                workflow: Id::Num(9),
                time_ns: 5,
            },
            sample(),
            Record::TaskEnd {
                task: TaskRecord {
                    id: Id::Num(1),
                    workflow: Id::Num(9),
                    transformation: Id::Str("training".into()),
                    dependencies: vec![],
                    time_ns: 99,
                    status: TaskStatus::Finished,
                },
                outputs: vec![DataRecord::new("out1", 9u64)
                    .with_attr("acc", 0.5)
                    .with_attr("n", 3i64)
                    .derived_from("in1")],
            },
            Record::WorkflowEnd {
                workflow: Id::Num(9),
                time_ns: 100,
            },
        ];
        let text = records_to_json(&records, JsonStyle::Compact);
        let back = records_from_json(&text).unwrap();
        // JSON objects sort keys, so attribute order is canonicalized on
        // the way through; compare with sorted attributes on both sides.
        fn canon(mut records: Vec<Record>) -> Vec<Record> {
            for r in &mut records {
                if let Record::TaskBegin { inputs: d, .. } | Record::TaskEnd { outputs: d, .. } = r
                {
                    for data in d {
                        data.attributes.sort_by(|a, b| a.0.cmp(&b.0));
                    }
                }
            }
            records
        }
        assert_eq!(canon(back), canon(records));
    }

    #[test]
    fn single_record_document_decodes() {
        let text = record_to_json(&sample(), JsonStyle::Compact).to_string_compact();
        let back = records_from_json(&text).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(records_from_json("{}").is_err());
        assert!(records_from_json(r#"{"kind":"nope"}"#).is_err());
        assert!(records_from_json(r#"{"kind":"task_begin"}"#).is_err());
        assert!(records_from_json(r#"{"kind":"workflow_begin"}"#).is_err());
    }
}
