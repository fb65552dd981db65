//! Path steps: the navigation vocabulary queries are composed from.
//!
//! A step moves a set of data nodes along one relation of the provenance
//! graph. Single-hop [`Step::Hop`]s follow an [`Edge`] once; a
//! [`Step::Closure`] repeats an edge breadth-first up to a depth bound
//! with a cycle guard (the engine's only unbounded-looking operation, and
//! the one the guard makes terminate); a [`Step::Keep`] drops nodes that
//! fail a [`Filter`](crate::query::Filter).

use crate::query::filter::Filter;

/// One relation of the provenance graph, viewed from a data node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Toward sources: the rows this row `wasDerivedFrom`. Resolved index
    /// edges ([`DataRow::derived_from`](crate::store::DataRow::derived_from)),
    /// so a hop is pointer-chasing, not id hashing.
    DerivedFrom,
    /// Toward products: rows that derive from this row (the maintained
    /// reverse index,
    /// [`DataRow::derived_into`](crate::store::DataRow::derived_into)).
    DerivedInto,
    /// Task-mediated upstream: the inputs of the task that generated this
    /// row (`generated_by` ∘ `inputs`).
    GeneratedFrom,
    /// Task-mediated downstream: the outputs of every task that used this
    /// row (`used_by` ∘ `outputs`).
    UsedBy,
}

/// One step of a [`Path`](crate::query::Path).
#[derive(Clone, Debug)]
pub enum Step {
    /// Follow an edge exactly once from every incoming node.
    Hop(Edge),
    /// Breadth-first transitive closure of an edge, bounded by `max_depth`
    /// levels, with a visited-set cycle guard. Emits reachable nodes in
    /// BFS order, excluding the start nodes themselves.
    Closure {
        /// The edge to iterate.
        edge: Edge,
        /// Maximum number of levels to expand.
        max_depth: usize,
    },
    /// Keep only nodes matching the filter.
    Keep(Filter),
}
