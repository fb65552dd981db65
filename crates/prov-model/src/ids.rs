//! Identifiers for workflows, tasks, and data items.
//!
//! The paper's Listing 1 uses both numeric ids (`Workflow(1)`) and string
//! ids (`Data("in{data_id}", ...)`). [`Id`] stores either form losslessly and
//! lets the binary codec pick the compact representation (numeric ids are
//! varint-encoded, strings go through a string table).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An identifier: either a small integer or an interned string.
///
/// Ordering and equality treat `Num(7)` and `Str("7")` as *different* ids —
/// the wire format preserves which form the user chose.
///
/// String ids are `Arc<str>` so decoding can share one allocation per
/// string-table entry across every record that references it (cloning an id
/// is a refcount bump, not a heap copy).
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Id {
    /// Numeric identifier (compactly varint-encoded on the wire).
    Num(u64),
    /// String identifier (shared, immutable).
    Str(Arc<str>),
}

impl Clone for Id {
    fn clone(&self) -> Id {
        #[cfg(debug_assertions)]
        clone_count::bump();
        match self {
            Id::Num(n) => Id::Num(*n),
            Id::Str(s) => Id::Str(Arc::clone(s)),
        }
    }
}

/// Per-thread `Id` clone accounting, compiled into debug builds only.
///
/// Even for string ids a clone is just a refcount bump, which a counting
/// allocator cannot see — so the zero-clone guarantees of the ingest index
/// hot path (maps keyed by one id, probed with `&Id`) are asserted against
/// this counter instead. The counter is thread-local so concurrently
/// running tests cannot pollute each other's measurements. Release builds
/// pay nothing.
#[cfg(debug_assertions)]
pub mod clone_count {
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump() {
        CLONES.with(|c| c.set(c.get() + 1));
    }

    /// `Id` clones performed by the current thread so far.
    pub fn id_clones() -> u64 {
        CLONES.with(Cell::get)
    }
}

impl Id {
    /// Returns the numeric value if this id is numeric.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Id::Num(n) => Some(*n),
            Id::Str(_) => None,
        }
    }

    /// Returns the string form if this id is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Id::Num(_) => None,
            Id::Str(s) => Some(s.as_ref()),
        }
    }

    /// Approximate in-memory footprint in bytes, used by the edge device
    /// memory accountant.
    pub fn approx_size(&self) -> usize {
        match self {
            Id::Num(_) => 8,
            Id::Str(s) => 24 + s.len(),
        }
    }
}

impl From<u64> for Id {
    fn from(n: u64) -> Self {
        Id::Num(n)
    }
}

impl From<u32> for Id {
    fn from(n: u32) -> Self {
        Id::Num(n as u64)
    }
}

impl From<&str> for Id {
    fn from(s: &str) -> Self {
        Id::Str(Arc::from(s))
    }
}

impl From<String> for Id {
    fn from(s: String) -> Self {
        Id::Str(Arc::from(s))
    }
}

impl From<Arc<str>> for Id {
    fn from(s: Arc<str>) -> Self {
        Id::Str(s)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Id::Num(n) => write!(f, "{n}"),
            Id::Str(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_and_string_forms_are_distinct() {
        assert_ne!(Id::from(7u64), Id::from("7"));
        assert_eq!(Id::from(7u64), Id::Num(7));
        assert_eq!(Id::from("a"), Id::Str("a".into()));
    }

    #[test]
    fn accessors() {
        assert_eq!(Id::Num(3).as_num(), Some(3));
        assert_eq!(Id::Num(3).as_str(), None);
        assert_eq!(Id::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Id::Str("x".into()).as_num(), None);
    }

    #[test]
    fn display_roundtrip_for_numbers() {
        assert_eq!(Id::Num(42).to_string(), "42");
        assert_eq!(Id::Str("task-1".into()).to_string(), "task-1");
    }

    #[test]
    fn approx_size_tracks_string_length() {
        assert_eq!(Id::Num(1).approx_size(), 8);
        assert!(Id::Str("abcdef".into()).approx_size() > Id::Str("a".into()).approx_size());
    }
}
