//! `lints.toml` parsing.
//!
//! The build environment is offline and the linter is dependency-free, so
//! this module implements the small TOML subset the config actually uses:
//! `#` comments, `[table]` / `[table.sub]` headers, and `key = value` where
//! a value is a string or a (possibly multi-line) array of strings.
//! Anything beyond that subset is a hard error — a config the gate cannot
//! fully understand must not silently weaken the gate.

use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with the offending 1-indexed line.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lints.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    StrArray(Vec<String>),
}

/// Flat `table.key -> value` view of the file.
pub type Raw = BTreeMap<String, Value>;

/// A declared waiver for a drift check: `"key: reason"`.
#[derive(Clone, Debug, PartialEq)]
pub struct Waiver {
    pub key: String,
    pub reason: String,
}

/// The lint gate's configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Path prefixes (relative to the root) under the no-panic discipline.
    pub no_panic_modules: Vec<String>,
    /// Outer-to-inner lock acquisition order, by receiver identifier.
    pub lock_hierarchy: Vec<String>,
    /// Locks that forbid blocking sends while held.
    pub no_send_while_holding: Vec<String>,
    /// Substrings identifying a blocking socket send.
    pub send_tokens: Vec<String>,
    /// Path prefixes excluded from every scan (fixtures, vendored code).
    pub exclude: Vec<String>,
    /// `*Stats` struct names whose pub fields must be asserted in tests.
    pub stats_structs: Vec<String>,
    /// `Struct.field` drift waivers, each with a reason.
    pub waive_stats: Vec<Waiver>,
    /// Format-version constants (`STATE_VERSION`, `ENVELOPE_VERSION`, …)
    /// whose definition sites require a test that names them.
    pub version_consts: Vec<String>,
}

/// Parses the flat `table.key` map out of TOML-subset text.
pub fn parse_raw(text: &str) -> Result<Raw, ConfigError> {
    let mut raw = Raw::new();
    let mut table = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return Err(err(lineno, "unterminated table header"));
            };
            table = name.trim().to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, "expected `key = value`"));
        };
        let key = key.trim();
        let mut value = value.trim().to_owned();
        // A multi-line array: keep consuming lines until brackets balance.
        while value.starts_with('[') && !array_closed(&value) {
            let Some((_, next)) = lines.next() else {
                return Err(err(lineno, "unterminated array"));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let full_key = if table.is_empty() {
            key.to_owned()
        } else {
            format!("{table}.{key}")
        };
        raw.insert(full_key, parse_value(&value, lineno)?);
    }
    Ok(raw)
}

/// Parses and validates the full config.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let raw = parse_raw(text)?;
    let strings = |key: &str| -> Vec<String> {
        match raw.get(key) {
            Some(Value::StrArray(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    };
    let waivers = |key: &str| -> Result<Vec<Waiver>, ConfigError> {
        strings(key)
            .into_iter()
            .map(|entry| match entry.split_once(':') {
                Some((k, reason)) if !reason.trim().is_empty() => Ok(Waiver {
                    key: k.trim().to_owned(),
                    reason: reason.trim().to_owned(),
                }),
                _ => Err(err(
                    0,
                    format!("waiver `{entry}` in {key} needs a `key: reason` form"),
                )),
            })
            .collect()
    };
    Ok(Config {
        no_panic_modules: strings("no_panic.modules"),
        lock_hierarchy: strings("lock_order.hierarchy"),
        no_send_while_holding: strings("lock_order.no_send_while_holding"),
        send_tokens: {
            let t = strings("lock_order.send_tokens");
            if t.is_empty() {
                vec!["socket.send_to(".into(), "socket.send(".into()]
            } else {
                t
            }
        },
        exclude: strings("exclude"),
        stats_structs: strings("drift.stats_structs"),
        waive_stats: waivers("drift.waive_stats")?,
        version_consts: strings("drift.version_consts"),
    })
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Strips a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'\\' if in_str => {} // next byte handled by the toggle anyway
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether a single-line `[...]` value has balanced brackets outside
/// strings.
fn array_closed(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for b in value.bytes() {
        match b {
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(value: &str, lineno: usize) -> Result<Value, ConfigError> {
    let value = value.trim();
    if let Some(body) = value.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(err(lineno, "unterminated array"));
        };
        let mut items = Vec::new();
        for item in split_array_items(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, lineno)? {
                Value::Str(s) => items.push(s),
                _ => return Err(err(lineno, "only string arrays are supported")),
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(body) = value.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(err(lineno, "unterminated string"));
        };
        return Ok(Value::Str(body.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    Err(err(lineno, format!("unsupported value `{value}`")))
}

/// Splits array items on commas outside strings.
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    items.push(&body[start..]);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let text = r##"
# comment
exclude = ["target", "x # not a comment"]

[no_panic]
modules = [
    "crates/a/src",   # trailing comment
    "crates/b/src/x.rs",
]

[lock_order]
hierarchy = ["broker", "pool"]

[drift]
version_consts = ["STATE_VERSION", "WIRE_VERSION"]
waive_stats = ["Foo.bar: informational only"]
"##;
        let cfg = parse(text).expect("parses");
        assert_eq!(cfg.exclude, vec!["target", "x # not a comment"]);
        assert_eq!(
            cfg.no_panic_modules,
            vec!["crates/a/src", "crates/b/src/x.rs"]
        );
        assert_eq!(cfg.lock_hierarchy, vec!["broker", "pool"]);
        assert_eq!(cfg.waive_stats.len(), 1);
        assert_eq!(cfg.waive_stats[0].key, "Foo.bar");
        assert_eq!(cfg.waive_stats[0].reason, "informational only");
        assert_eq!(cfg.version_consts, vec!["STATE_VERSION", "WIRE_VERSION"]);
    }

    #[test]
    fn waiver_without_reason_is_rejected() {
        let text = "[drift]\nwaive_stats = [\"Foo.bar\"]\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn garbage_is_a_hard_error() {
        assert!(parse("key value\n").is_err());
        assert!(parse("[unclosed\n").is_err());
        // Numbers and booleans are outside the subset: no key takes one.
        for value in ["3", "true"] {
            let e = parse(&format!("[drift]\nkey = {value}\n")).unwrap_err();
            assert_eq!(e.message, format!("unsupported value `{value}`"));
        }
    }
}
