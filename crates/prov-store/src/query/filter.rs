//! Declarative node filters.
//!
//! Filters are data, not closures, so a [`Path`](crate::query::Path) stays
//! `Clone + Send` and a cursor can be resumed without capturing caller
//! state. Code that genuinely needs an arbitrary predicate (the
//! [`Query::filter_data_by`](crate::query::Query::filter_data_by) facade)
//! applies it to the engine's output pages instead.

use crate::store::{DataRow, WorkflowTable};
use std::sync::Arc;

/// Numeric comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
}

impl Cmp {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
        }
    }
}

/// A node filter.
#[derive(Clone, Debug)]
pub enum Filter {
    /// The node has attribute `name` with a numeric value for which
    /// `value(node) cmp threshold` holds, read as a column scan reads it: a
    /// `Float` as it is, an `Int` converted, a `Bool` as 0 or 1. Nodes
    /// without the attribute (or with a non-numeric first value under the
    /// name) are dropped.
    Attr {
        /// Attribute name.
        name: Arc<str>,
        /// Comparison operator.
        cmp: Cmp,
        /// Right-hand side.
        threshold: f64,
    },
    /// The task that generated the node finished within
    /// `[from_ns, to_ns]` (inclusive). Nodes without a finished generating
    /// task are dropped.
    EndedWithin {
        /// Range start (ns).
        from_ns: u64,
        /// Range end (ns).
        to_ns: u64,
    },
}

impl Filter {
    /// Evaluates the filter against a row of `table`. Returns the matched numeric
    /// attribute value for [`Filter::Attr`] hits so downstream consumers
    /// (cursors) can carry it without a second lookup.
    pub(crate) fn eval(&self, table: &WorkflowTable, row: &DataRow) -> Option<Option<f64>> {
        match self {
            Filter::Attr {
                name,
                cmp,
                threshold,
            } => {
                let value = row.attributes.numeric(name)?;
                cmp.eval(value, *threshold).then_some(Some(value))
            }
            Filter::EndedWithin { from_ns, to_ns } => {
                let end = row
                    .generated_by()
                    .and_then(|t| table.tasks()[t as usize].end_ns())?;
                (*from_ns <= end && end <= *to_ns).then_some(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_operators() {
        assert!(Cmp::Lt.eval(1.0, 2.0));
        assert!(!Cmp::Lt.eval(2.0, 2.0));
        assert!(Cmp::Le.eval(2.0, 2.0));
        assert!(Cmp::Gt.eval(3.0, 2.0));
        assert!(Cmp::Ge.eval(2.0, 2.0));
        assert!(Cmp::Eq.eval(2.0, 2.0));
        assert!(!Cmp::Eq.eval(2.0, 2.5));
    }
}
