//! Path construction: the builder queries are composed with.
//!
//! A [`Path`] is a source plus a sequence of [`Step`]s. It owns no store
//! references and captures no closures, so one path can be executed
//! against any workflow or store, repeatedly — the cursor carries
//! the per-execution state.
//!
//! ```
//! use prov_store::query::{Cmp, Filter, Path};
//!
//! // "Everything downstream of raw-7 (up to 16 hops) whose accuracy
//! //  exceeds 0.9."
//! let path = Path::from_data("raw-7")
//!     .downstream(16)
//!     .keep(Filter::Attr {
//!         name: "accuracy".into(),
//!         cmp: Cmp::Gt,
//!         threshold: 0.9,
//!     });
//! assert_eq!(path.len(), 2);
//! ```

use crate::query::filter::Filter;
use crate::query::step::{Edge, Step};
use prov_model::Id;

/// Where a traversal starts.
#[derive(Clone, Debug)]
pub enum Source {
    /// A single data node, by id, within the queried workflow.
    Data(Id),
    /// Every entry of a numeric attribute column of the queried workflow,
    /// carrying the column value with each node.
    AttrColumn(String),
}

/// A composed traversal: a [`Source`] and the steps applied to it.
#[derive(Clone, Debug)]
pub struct Path {
    pub(crate) source: Source,
    pub(crate) steps: Vec<Step>,
}

impl Path {
    /// Starts from one data node.
    pub fn from_data(id: impl Into<Id>) -> Path {
        Path {
            source: Source::Data(id.into()),
            steps: Vec::new(),
        }
    }

    /// Starts from every value of a numeric attribute column.
    pub fn over_attr(attr: impl Into<String>) -> Path {
        Path {
            source: Source::AttrColumn(attr.into()),
            steps: Vec::new(),
        }
    }

    /// Appends an explicit step.
    pub fn step(mut self, step: Step) -> Path {
        self.steps.push(step);
        self
    }

    /// Upstream closure: everything the current nodes transitively derive
    /// from, up to `max_depth` hops (cycle-guarded).
    pub fn upstream(self, max_depth: usize) -> Path {
        self.step(Step::Closure {
            edge: Edge::DerivedFrom,
            max_depth,
        })
    }

    /// Downstream closure: everything transitively derived from the
    /// current nodes, up to `max_depth` hops (cycle-guarded).
    pub fn downstream(self, max_depth: usize) -> Path {
        self.step(Step::Closure {
            edge: Edge::DerivedInto,
            max_depth,
        })
    }

    /// One hop toward sources (`wasDerivedFrom`).
    pub fn derived_from(self) -> Path {
        self.step(Step::Hop(Edge::DerivedFrom))
    }

    /// One hop toward products (reverse derivation).
    pub fn derived_into(self) -> Path {
        self.step(Step::Hop(Edge::DerivedInto))
    }

    /// One task-mediated hop upstream: the inputs of each node's
    /// generating task.
    pub fn generated_from(self) -> Path {
        self.step(Step::Hop(Edge::GeneratedFrom))
    }

    /// One task-mediated hop downstream: the outputs of every task that
    /// used each node.
    pub fn used_by(self) -> Path {
        self.step(Step::Hop(Edge::UsedBy))
    }

    /// Keeps only nodes matching the filter.
    pub fn keep(self, filter: Filter) -> Path {
        self.step(Step::Keep(filter))
    }

    /// Number of steps (not counting the source).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps (a bare source enumeration).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}
