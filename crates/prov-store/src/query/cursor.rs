//! Cursors: paginated, resumable query execution.
//!
//! A [`Cursor`] owns a compiled [`Path`](crate::query::Path) execution and
//! no store references: every [`Cursor::next_page`] call is handed the
//! store, does at most [`CursorOpts::max_work`] units of work, and
//! returns. Against a [`ShardedStore`](crate::sharded::ShardedStore) the
//! read lock is therefore held only *inside* one `next_page` call —
//! writers interleave between pages, and the cursor resumes because row
//! indices and column positions are append-only. A cursor reads one
//! workflow, so a page looks its [`WorkflowTable`] up once and every index
//! the traversal follows stays inside it.
//!
//! # Read-consistency contract
//!
//! * [`SnapshotMode::AtOpen`] — the cursor sees exactly the data rows
//!   that existed when it was opened (the *horizon*): rows, edges, and
//!   column cells pointing at or beyond the horizon are invisible, even
//!   if ingested mid-iteration. One caveat: attribute values merged
//!   **in place** onto pre-horizon rows by later ingest are visible,
//!   because rows are not versioned. Result sets are repeatable modulo
//!   that caveat.
//! * [`SnapshotMode::Live`] — each page reflects the store's state at the
//!   moment the page is produced. A node is emitted at most once
//!   (closures keep their visited guard across pages), and every node
//!   that existed at open and is reachable will be emitted; rows ingested
//!   mid-iteration may or may not appear, depending on whether the
//!   traversal has already passed them. Each page terminates regardless
//!   of concurrent ingest (the work budget bounds it).
//!
//! Both modes guarantee: no duplicates, bounded memory (visited bitset +
//! frontier + one page), and termination on cyclic graphs.

use crate::query::path::{Path, Source};
use crate::query::traverse::{Ctx, Exec, Item, Pulled, QueryStats, Start};
use crate::query::QueryError;
use crate::schema::AttrType;
use crate::store::{Store, WorkflowTable};
use prov_model::Id;

/// What a cursor may see of ingest that happens after it was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Pin the result set to the rows that existed at open (default).
    #[default]
    AtOpen,
    /// Read whatever is there when each page is produced.
    Live,
}

/// Cursor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CursorOpts {
    /// Maximum hits per page.
    pub page_size: usize,
    /// Maximum work units (node expansions, scans, filter evaluations)
    /// per [`Cursor::next_page`] call — the bound on how long the store's
    /// read lock is held. A page may come back short (or empty) with
    /// `done == false` when the budget runs out first; call again.
    pub max_work: usize,
    /// Snapshot semantics (see the module docs).
    pub snapshot: SnapshotMode,
}

impl Default for CursorOpts {
    fn default() -> Self {
        CursorOpts {
            page_size: 1024,
            max_work: 65_536,
            snapshot: SnapshotMode::AtOpen,
        }
    }
}

/// One materialized query hit.
#[derive(Clone, Debug, PartialEq)]
pub struct Hit {
    /// The data id.
    pub id: Id,
    /// Numeric value carried by the path (the source column's value, or
    /// the last attribute filter's matched value), if any.
    pub value: Option<f64>,
}

/// One page of materialized hits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Page {
    /// The hits, in traversal order.
    pub hits: Vec<Hit>,
    /// `true` once the traversal is exhausted. A non-full page with
    /// `done == false` means the work budget ran out — keep calling.
    pub done: bool,
}

/// A paginated execution of a [`Path`](crate::query::Path) over one
/// workflow.
pub struct Cursor {
    workflow: Id,
    exec: Exec,
    /// Data-table length at open under [`SnapshotMode::AtOpen`].
    horizon: Option<usize>,
    opts: CursorOpts,
    stats: QueryStats,
    done: bool,
}

impl Cursor {
    /// Opens a cursor over `store` (the caller holds whatever lock guards
    /// it; the cursor itself keeps no reference).
    ///
    /// Fails with [`QueryError::UnknownData`] when a
    /// [`Source::Data`](crate::query::Source) start node does not exist,
    /// and [`QueryError::NotNumeric`] when a
    /// [`Source::AttrColumn`](crate::query::Source) names a missing or
    /// non-numeric column.
    pub fn open(
        store: &Store,
        workflow: &Id,
        path: &Path,
        opts: CursorOpts,
    ) -> Result<Cursor, QueryError> {
        let table = store.workflow(workflow);
        let start = match &path.source {
            Source::Data(id) => table
                .and_then(|t| t.data_by_id(id))
                .map(|(idx, _)| Start::Row(idx))
                .ok_or_else(|| QueryError::UnknownData(id.clone()))?,
            Source::AttrColumn(attr) => table
                .and_then(|t| {
                    let numeric = |&c: &u32| t.column_at(c).kind() == AttrType::Numeric;
                    t.column_id(attr).filter(numeric)
                })
                .map(Start::Column)
                .ok_or_else(|| QueryError::NotNumeric(attr.clone()))?,
        };
        let horizon = match opts.snapshot {
            SnapshotMode::AtOpen => table.map(|t| t.data().len()),
            SnapshotMode::Live => None,
        };
        Ok(Cursor {
            workflow: workflow.clone(),
            exec: Exec::new(&path.steps, start),
            horizon,
            opts,
            stats: QueryStats::default(),
            done: false,
        })
    }

    /// Produces the next page of materialized hits. `store` must be (a
    /// view of) the same store the cursor was opened on: the cursor's
    /// workflow is looked up in it, once.
    pub fn next_page(&mut self, store: &Store) -> Page {
        let mut hits = Vec::new();
        let done = match store.workflow(&self.workflow) {
            Some(table) => self.fill(table, |(idx, value)| {
                hits.push(Hit {
                    id: table.data()[idx as usize].id.clone(),
                    value,
                })
            }),
            None => true,
        };
        Page { hits, done }
    }

    /// Produces the next page as raw `(row index of table, value)` items
    /// handed to `sink` — `table` being the cursor's workflow's — and
    /// returns whether the traversal is exhausted. The facade folds its
    /// aggregates here, with no `Id` cloned and no item kept per hit.
    pub(crate) fn fill(&mut self, table: &WorkflowTable, mut sink: impl FnMut(Item)) -> bool {
        if self.done {
            return true;
        }
        self.stats.pages += 1;
        let ctx = Ctx {
            table,
            horizon: self.horizon,
        };
        let mut budget = self.opts.max_work;
        let mut emitted = 0usize;
        while emitted < self.opts.page_size {
            match self.exec.pull(&ctx, &mut budget, &mut self.stats) {
                Pulled::Item(item) => {
                    sink(item);
                    emitted += 1;
                }
                Pulled::Done => {
                    self.done = true;
                    break;
                }
                Pulled::Budget => break,
            }
        }
        self.done
    }

    /// The workflow this cursor reads.
    pub fn workflow(&self) -> &Id {
        &self.workflow
    }

    /// Execution counters accumulated so far.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }
}
