//! The traversal executor: a pull-based, budget-bounded stage machine.
//!
//! A [`Path`](crate::query::Path) compiles into one [`Exec`] — a source
//! stage plus one op per step. Each stage pulls items from the stage
//! before it on demand, so nothing is materialized beyond per-stage
//! frontiers and the page being built: a closure over a million-node
//! lineage holds a bitset, a frontier deque, and the current page.
//!
//! Every unit of work (scanning one source entry, expanding one node,
//! evaluating one filter) costs one tick of a per-call *budget*. The
//! budget is checked **before** stage-local work happens, so when it runs
//! out the machine returns [`Pulled::Budget`] with all state intact — the
//! next call resumes exactly where this one stopped. That is what lets a
//! cursor release the store lock between pages without losing its place.
//! (Charging an item pulled from upstream may overshoot the budget by at
//! most the pipeline depth — a pulled item is always processed rather
//! than dropped.)
//!
//! Termination: closures guard every expansion with an [`IdxSet`] visited
//! bitset and a depth bound, so cyclic derivation graphs (including
//! self-loops, which ingest wires verbatim) terminate — the legacy
//! recursive walk did not.

use crate::query::step::{Edge, Step};
use crate::store::{ColumnScan, DataIdx, WorkflowTable};
use std::collections::VecDeque;

/// Counters a cursor accumulates while executing (wired into the
/// stats-drift lint: every field must stay asserted in tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Work units evaluated: source entries scanned, nodes expanded,
    /// filters applied.
    pub steps_evaluated: u64,
    /// Pages produced (including the final, possibly empty, one).
    pub pages: u64,
}

/// A growable index bitset: the closure cycle guard.
///
/// Row indices are dense and append-only, so a bitset beats a hash set on
/// both memory (1 bit/row) and probe cost for million-row lineages.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdxSet {
    bits: Vec<u64>,
}

impl IdxSet {
    /// Inserts `i`; returns `true` if it was new.
    pub(crate) fn insert(&mut self, i: DataIdx) -> bool {
        let i = i as usize;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let new = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        new
    }

    /// Membership test.
    #[cfg(test)]
    pub(crate) fn contains(&self, i: DataIdx) -> bool {
        let i = i as usize;
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
}

/// An item flowing between stages: a data row plus an optional numeric
/// value attached by the source column or an attribute filter.
pub(crate) type Item = (DataIdx, Option<f64>);

/// Result of pulling one item from a stage.
pub(crate) enum Pulled {
    /// One item.
    Item(Item),
    /// The stage is exhausted (permanent for this cursor).
    Done,
    /// The per-call budget ran out; state is intact, call again.
    Budget,
}

/// Per-execution context: the table of the workflow being read and the
/// snapshot horizon.
pub(crate) struct Ctx<'a> {
    pub(crate) table: &'a WorkflowTable,
    /// `Some(limit)`: rows with index `>= limit` are invisible
    /// (snapshot-at-open). `None`: live reads.
    pub(crate) horizon: Option<usize>,
}

impl Ctx<'_> {
    fn visible(&self, idx: DataIdx) -> bool {
        match self.horizon {
            Some(limit) => (idx as usize) < limit,
            None => true,
        }
    }
}

/// Where a path starts, resolved against the store by the cursor (which
/// owns the error mapping).
pub(crate) enum Start {
    /// The row of a [`Source::Data`](crate::query::Source).
    Row(DataIdx),
    /// The numeric column of a
    /// [`Source::AttrColumn`](crate::query::Source), by its position in the
    /// workflow's table.
    Column(u32),
}

/// Source stage state.
enum SourceState {
    /// A single node, emitted once.
    Single { idx: DataIdx, emitted: bool },
    /// A numeric attribute column, scanned in row order (row numbers are
    /// for good, so the scan's place survives lock releases). The column
    /// names its layouts and their slots; each value is read out of its
    /// row, through the slot of the layout the row has.
    Column { column: u32, scan: ColumnScan },
}

/// Op stage state (one per path step).
struct OpState {
    kind: OpKind,
    /// Items produced but not yet pulled downstream.
    ready: VecDeque<Item>,
    /// The upstream stage returned [`Pulled::Done`].
    upstream_done: bool,
}

enum OpKind {
    Hop(Edge),
    Closure {
        edge: Edge,
        max_depth: usize,
        /// Nodes awaiting expansion, with their depth.
        frontier: VecDeque<(DataIdx, usize)>,
        visited: IdxSet,
    },
    Keep(crate::query::filter::Filter),
}

/// A compiled path mid-execution.
pub(crate) struct Exec {
    source: SourceState,
    ops: Vec<OpState>,
}

impl Exec {
    /// Compiles a path: its steps, from its resolved source.
    pub(crate) fn new(steps: &[Step], start: Start) -> Exec {
        let source = match start {
            Start::Row(idx) => SourceState::Single {
                idx,
                emitted: false,
            },
            Start::Column(column) => SourceState::Column {
                column,
                scan: ColumnScan::default(),
            },
        };
        let ops = steps
            .iter()
            .map(|step| OpState {
                kind: match step {
                    Step::Hop(edge) => OpKind::Hop(*edge),
                    Step::Closure { edge, max_depth } => OpKind::Closure {
                        edge: *edge,
                        max_depth: *max_depth,
                        frontier: VecDeque::new(),
                        visited: IdxSet::default(),
                    },
                    Step::Keep(filter) => OpKind::Keep(filter.clone()),
                },
                ready: VecDeque::new(),
                upstream_done: false,
            })
            .collect();
        Exec { source, ops }
    }

    /// Readies the machine for a page: what it knows of the table's lists
    /// dates from the last lock hold.
    pub(crate) fn resume(&mut self) {
        if let SourceState::Column { scan, .. } = &mut self.source {
            scan.resume();
        }
    }

    /// Pulls the next item out of the full pipeline.
    pub(crate) fn pull(
        &mut self,
        ctx: &Ctx<'_>,
        budget: &mut usize,
        stats: &mut QueryStats,
    ) -> Pulled {
        let stages = self.ops.len();
        self.pull_stage(ctx, stages, budget, stats)
    }

    /// Pulls from stage `k` (0 = source, `k` = after op `k-1`).
    fn pull_stage(
        &mut self,
        ctx: &Ctx<'_>,
        k: usize,
        budget: &mut usize,
        stats: &mut QueryStats,
    ) -> Pulled {
        if k == 0 {
            return self.pull_source(ctx, budget, stats);
        }
        loop {
            {
                let op = &mut self.ops[k - 1];
                if let Some(item) = op.ready.pop_front() {
                    return Pulled::Item(item);
                }
                let OpState { kind, ready, .. } = op;
                // A closure expands its own frontier before asking
                // upstream for more roots — BFS order per root set.
                if let OpKind::Closure {
                    edge,
                    max_depth,
                    frontier,
                    visited,
                } = kind
                {
                    if let Some((node, depth)) = frontier.pop_front() {
                        if *budget == 0 {
                            frontier.push_front((node, depth));
                            return Pulled::Budget;
                        }
                        *budget -= 1;
                        stats.steps_evaluated += 1;
                        if depth < *max_depth {
                            let next_depth = depth + 1;
                            let mut found = Vec::new();
                            expand(ctx, *edge, node, |t| found.push(t));
                            for (target, value) in found {
                                if visited.insert(target) {
                                    frontier.push_back((target, next_depth));
                                    ready.push_back((target, value));
                                }
                            }
                        }
                        continue;
                    }
                }
                if op.upstream_done {
                    return Pulled::Done;
                }
            }
            // Need fresh input from upstream.
            match self.pull_stage(ctx, k - 1, budget, stats) {
                Pulled::Budget => return Pulled::Budget,
                Pulled::Done => self.ops[k - 1].upstream_done = true,
                Pulled::Item((idx, value)) => {
                    *budget = budget.saturating_sub(1);
                    stats.steps_evaluated += 1;
                    let OpState { kind, ready, .. } = &mut self.ops[k - 1];
                    match kind {
                        OpKind::Hop(edge) => {
                            expand(ctx, *edge, idx, |t| ready.push_back(t));
                        }
                        OpKind::Closure {
                            frontier, visited, ..
                        } => {
                            // A root: guarded, enqueued, never emitted.
                            if visited.insert(idx) {
                                frontier.push_back((idx, 0));
                            }
                        }
                        OpKind::Keep(filter) => {
                            let row = &ctx.table.data()[idx as usize];
                            if let Some(matched) = filter.eval(ctx.table, row) {
                                ready.push_back((idx, value.or(matched)));
                            }
                        }
                    }
                }
            }
        }
    }

    fn pull_source(&mut self, ctx: &Ctx<'_>, budget: &mut usize, stats: &mut QueryStats) -> Pulled {
        match &mut self.source {
            SourceState::Single { idx, emitted } => {
                if *emitted {
                    return Pulled::Done;
                }
                if *budget == 0 {
                    return Pulled::Budget;
                }
                *budget -= 1;
                stats.steps_evaluated += 1;
                *emitted = true;
                if ctx.visible(*idx) {
                    Pulled::Item((*idx, None))
                } else {
                    Pulled::Done
                }
            }
            SourceState::Column { column, scan } => {
                if *budget == 0 {
                    return Pulled::Budget;
                }
                *budget -= 1;
                stats.steps_evaluated += 1;
                // Rows come in row order: the first past the horizon ends
                // the scan.
                match ctx.table.scan_column(*column, scan) {
                    Some((idx, value)) if ctx.visible(idx) => Pulled::Item((idx, value)),
                    _ => Pulled::Done,
                }
            }
        }
    }
}

/// Enumerates the targets of one edge from one node, respecting the
/// snapshot horizon. Targets are reported in the index's insertion order,
/// which for `DerivedInto` is ascending row order — the order the legacy
/// downstream scan produced.
fn expand(ctx: &Ctx<'_>, edge: Edge, node: DataIdx, mut emit: impl FnMut(Item)) {
    let row = &ctx.table.data()[node as usize];
    match edge {
        Edge::DerivedFrom => {
            for &src in &row.derived_from_idx {
                if ctx.visible(src) {
                    emit((src, None));
                }
            }
        }
        Edge::DerivedInto => {
            for &dst in &row.derived_into {
                if ctx.visible(dst) {
                    emit((dst, None));
                }
            }
        }
        Edge::GeneratedFrom => {
            if let Some(t) = row.generated_by {
                for &input in &ctx.table.tasks()[t as usize].inputs {
                    if ctx.visible(input) {
                        emit((input, None));
                    }
                }
            }
        }
        Edge::UsedBy => {
            for &t in &row.used_by {
                for &output in &ctx.table.tasks()[t as usize].outputs {
                    if ctx.visible(output) {
                        emit((output, None));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idxset_inserts_and_probes() {
        let mut s = IdxSet::default();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(129));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert!(!s.contains(100_000));
    }
}
