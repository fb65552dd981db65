//! The query layer: a composable lineage traversal engine.
//!
//! Queries are *composed*, not hand-coded: a [`Path`] names a source (a
//! data node or an attribute column) and a sequence of steps — single
//! hops along provenance edges, cycle-guarded closure operators
//! ([`Path::upstream`] / [`Path::downstream`]), and declarative
//! [`Filter`]s — and a [`Cursor`] executes it in pages of bounded work,
//! so million-node lineages stream in bounded memory and, against a
//! [`ShardedStore`](crate::sharded::ShardedStore), never hold its read
//! lock for longer than one page
//! ([`ShardedStore::open_cursor`](crate::sharded::ShardedStore::open_cursor)).
//!
//! ```
//! use prov_store::query::{Cmp, Filter, Path};
//!
//! // "Which downstream artifacts of `raw` (within 8 hops) reached
//! //  accuracy above 0.9?"
//! let path = Path::from_data("raw").downstream(8).keep(Filter::Attr {
//!     name: "accuracy".into(),
//!     cmp: Cmp::Gt,
//!     threshold: 0.9,
//! });
//! # let _ = path;
//! ```
//!
//! The [`Query`] facade keeps the original one-call API — the analyses
//! the paper motivates in §I for Federated Learning training:
//!
//! * *"What are the elapsed time and the training loss in the latest epoch
//!   for each hyperparameter combination?"* → [`Query::task_metrics`] /
//!   [`Query::attr_timeseries`];
//! * *"Retrieve the hyperparameters which obtained the 3 best accuracy
//!   values"* → [`Query::top_k_by_attr`] + [`Query::upstream_inputs`];
//!
//! — each method now a thin wrapper that composes a [`Path`] and folds what
//! a [`Cursor`] produces, item by item. Task-table reports (`tasks`,
//! `task_metrics`, …) remain direct projections of the workflow's task
//! table: they are O(tasks-of-workflow) reads with no traversal to compose.

pub mod cursor;
pub mod filter;
pub mod path;
pub mod step;
pub mod traverse;

pub use cursor::{Cursor, CursorOpts, Hit, Page, SnapshotMode};
pub use filter::{Cmp, Filter};
pub use path::{Path, Source};
pub use step::{Edge, Step};
use traverse::Item;
pub use traverse::QueryStats;

use crate::store::{Store, TaskRow, WorkflowTable};
use prov_model::{AttrValue, Id};
use std::sync::Arc;

/// Lineage traversal direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineageDirection {
    /// Follow `wasDerivedFrom` toward sources.
    Upstream,
    /// Follow derivations toward products.
    Downstream,
}

/// Query errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Workflow not present in the store.
    UnknownWorkflow(Id),
    /// Data id not present in the store.
    UnknownData(Id),
    /// Attribute has no numeric column.
    NotNumeric(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownWorkflow(id) => write!(f, "unknown workflow {id}"),
            QueryError::UnknownData(id) => write!(f, "unknown data {id}"),
            QueryError::NotNumeric(a) => write!(f, "attribute {a} is not numeric"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Summary statistics of a numeric attribute column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttrStats {
    /// Number of values.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// One input data item with its attributes: `(data id, attribute pairs)`.
pub type DataAttributes = (Id, Vec<(Arc<str>, AttrValue)>);

/// One row of a task-metrics report.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMetrics {
    /// Task id.
    pub task: Id,
    /// Transformation tag.
    pub transformation: Id,
    /// Elapsed seconds (None while running).
    pub elapsed_s: Option<f64>,
    /// Whether the task finished.
    pub finished: bool,
}

/// Query interface over a [`Store`].
pub struct Query<'a> {
    store: &'a Store,
}

/// Facade drains run synchronously over an already-borrowed store, so
/// they use an unbounded budget (no lock to release) and a larger page.
fn drain_opts() -> CursorOpts {
    CursorOpts {
        page_size: 4096,
        max_work: usize::MAX,
        snapshot: SnapshotMode::Live,
    }
}

impl<'a> Query<'a> {
    /// Wraps a store.
    pub fn new(store: &'a Store) -> Self {
        Query { store }
    }

    /// Opens a paginated cursor over a composed path (the engine's native
    /// entry point; the methods below are one-call conveniences).
    pub fn cursor(
        &self,
        workflow: &Id,
        path: &Path,
        opts: CursorOpts,
    ) -> Result<Cursor, QueryError> {
        Cursor::open(self.store, workflow, path, opts)
    }

    fn table(&self, workflow: &Id) -> Result<&'a WorkflowTable, QueryError> {
        self.store
            .workflow(workflow)
            .ok_or_else(|| QueryError::UnknownWorkflow(workflow.clone()))
    }

    /// Runs a path to completion, handing `visit` the workflow's table and
    /// each raw `(row index in it, value)` item, in traversal order, as the
    /// cursor's pages produce them.
    fn for_each(
        &self,
        workflow: &Id,
        path: &Path,
        mut visit: impl FnMut(&'a WorkflowTable, Item),
    ) -> Result<(), QueryError> {
        // Opening reports a source it cannot find, in an unknown workflow
        // as in a known one; past it the table is there.
        let mut cursor = Cursor::open(self.store, workflow, path, drain_opts())?;
        let table = self.table(workflow)?;
        while !cursor.fill(table, |item| visit(table, item)) {}
        Ok(())
    }

    /// All tasks of a workflow, in ingestion order.
    pub fn tasks(&self, workflow: &Id) -> Result<Vec<&'a TaskRow>, QueryError> {
        Ok(self.table(workflow)?.tasks().iter().collect())
    }

    /// Per-task timing/status report.
    pub fn task_metrics(&self, workflow: &Id) -> Result<Vec<TaskMetrics>, QueryError> {
        let table = self.table(workflow)?;
        Ok(table
            .tasks()
            .iter()
            .map(|t| TaskMetrics {
                task: t.id.clone(),
                transformation: table.transformation(t).clone(),
                elapsed_s: t.elapsed_s(),
                finished: t.end_ns().is_some(),
            })
            .collect())
    }

    /// The k data items with the best (highest or lowest) values of a
    /// numeric attribute. Returns `(data id, value)` sorted best-first;
    /// ties resolve to the earlier column entry.
    pub fn top_k_by_attr(
        &self,
        workflow: &Id,
        attr: &str,
        k: usize,
        highest: bool,
    ) -> Result<Vec<(Id, f64)>, QueryError> {
        // k-bounded selection instead of sorting the whole column: `best`
        // stays sorted best-first; a candidate is placed after every entry
        // at least as good, which reproduces the stable sort's tie order.
        let mut best: Vec<(&'a Id, f64)> = Vec::new();
        self.for_each(workflow, &Path::over_attr(attr), |table, (idx, value)| {
            let v = value.unwrap_or(f64::NAN);
            let pos = best
                .iter()
                .take_while(|(_, b)| if highest { *b >= v } else { *b <= v })
                .count();
            if pos < k {
                if best.len() == k {
                    best.pop();
                }
                best.insert(pos, (&table.data()[idx as usize].id, v));
            }
        })?;
        Ok(best.into_iter().map(|(id, v)| (id.clone(), v)).collect())
    }

    /// Time-ordered `(task end time ns, value)` series of a numeric
    /// attribute over a workflow (e.g. training loss per epoch).
    pub fn attr_timeseries(
        &self,
        workflow: &Id,
        attr: &str,
    ) -> Result<Vec<(u64, f64)>, QueryError> {
        let mut series = Vec::new();
        self.for_each(workflow, &Path::over_attr(attr), |table, (idx, v)| {
            let row = &table.data()[idx as usize];
            let t = row
                .generated_by()
                .and_then(|ti| table.tasks()[ti as usize].end_ns())
                .unwrap_or(0);
            series.push((t, v.unwrap_or(f64::NAN)));
        })?;
        series.sort_by_key(|&(t, _)| t);
        Ok(series)
    }

    /// Walks the derivation graph from `data` in the given direction,
    /// returning reachable data ids in BFS order (excluding the start).
    /// Cycle-safe: self-referential or mutually derived data terminates.
    pub fn lineage(
        &self,
        workflow: &Id,
        data: &Id,
        direction: LineageDirection,
        max_depth: usize,
    ) -> Result<Vec<Id>, QueryError> {
        let path = match direction {
            LineageDirection::Upstream => Path::from_data(data.clone()).upstream(max_depth),
            LineageDirection::Downstream => Path::from_data(data.clone()).downstream(max_depth),
        };
        let mut ids = Vec::new();
        self.for_each(workflow, &path, |table, (i, _)| {
            ids.push(table.data()[i as usize].id.clone());
        })?;
        Ok(ids)
    }

    /// For a data item (e.g. the epoch metrics with best accuracy),
    /// returns the input attributes of the task that generated it — "the
    /// hyperparameters which obtained the best accuracy".
    pub fn upstream_inputs(
        &self,
        workflow: &Id,
        data: &Id,
    ) -> Result<Vec<DataAttributes>, QueryError> {
        let path = Path::from_data(data.clone()).generated_from();
        let mut inputs = Vec::new();
        self.for_each(workflow, &path, |table, (i, _)| {
            let d = &table.data()[i as usize];
            inputs.push((d.id.clone(), d.attributes.to_vec()));
        })?;
        Ok(inputs)
    }

    /// Summary statistics over a numeric attribute (dashboard queries:
    /// "loss range across the run", "mean accuracy so far"), folded as the
    /// column is scanned: no allocation grows with the column.
    pub fn attr_stats(&self, workflow: &Id, attr: &str) -> Result<AttrStats, QueryError> {
        let mut count = 0;
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        let mut sum = 0.0;
        self.for_each(workflow, &Path::over_attr(attr), |_, (_, v)| {
            let v = v.unwrap_or(f64::NAN);
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
        })?;
        if count == 0 {
            return Err(QueryError::NotNumeric(attr.to_owned()));
        }
        Ok(AttrStats {
            count,
            min,
            max,
            mean: sum / count as f64,
        })
    }

    /// Data items whose numeric attribute satisfies a predicate —
    /// e.g. "epochs with accuracy above 0.9". Declarative comparisons can
    /// run inside the engine instead ([`Filter::Attr`] via
    /// [`Path::keep`]); this form accepts arbitrary captured closures and
    /// therefore applies them to the engine's output pages.
    pub fn filter_data_by<F>(
        &self,
        workflow: &Id,
        attr: &str,
        predicate: F,
    ) -> Result<Vec<(Id, f64)>, QueryError>
    where
        F: Fn(f64) -> bool,
    {
        let mut hits = Vec::new();
        self.for_each(workflow, &Path::over_attr(attr), |table, (i, v)| {
            if let Some(v) = v.filter(|&v| predicate(v)) {
                hits.push((table.data()[i as usize].id.clone(), v));
            }
        })?;
        Ok(hits)
    }

    /// Mean elapsed seconds across finished tasks of a transformation.
    pub fn mean_elapsed_s(
        &self,
        workflow: &Id,
        transformation: &Id,
    ) -> Result<Option<f64>, QueryError> {
        let times: Vec<f64> = self
            .table(workflow)?
            .tasks_of(transformation)
            .filter_map(TaskRow::elapsed_s)
            .collect();
        if times.is_empty() {
            Ok(None)
        } else {
            Ok(Some(times.iter().sum::<f64>() / times.len() as f64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{DataRecord, Record, TaskRecord, TaskStatus};

    /// Builds an FL-like store: 4 epochs, accuracy rising with epoch,
    /// each epoch's output derived from its input hyperparameters.
    fn fl_store() -> Store {
        let mut s = Store::new();
        s.ingest(Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        });
        for epoch in 0..4u64 {
            let begin = TaskRecord {
                id: Id::Num(epoch),
                workflow: Id::Num(1),
                transformation: Id::Str("train".into()),
                dependencies: epoch.checked_sub(1).map(Id::Num).into_iter().collect(),
                time_ns: epoch * 1_000_000_000,
                status: TaskStatus::Running,
            };
            let mut end = begin.clone();
            end.time_ns = begin.time_ns + 500_000_000 + epoch * 100_000_000;
            end.status = TaskStatus::Finished;
            s.ingest(Record::TaskBegin {
                task: begin,
                inputs: vec![DataRecord::new(format!("hp{epoch}"), 1u64)
                    .with_attr("learning_rate", 0.1 / (epoch + 1) as f64)
                    .with_attr("batch_size", 32i64)],
            });
            s.ingest(Record::TaskEnd {
                task: end,
                outputs: vec![DataRecord::new(format!("metrics{epoch}"), 1u64)
                    .with_attr("accuracy", 0.7 + 0.06 * epoch as f64)
                    .with_attr("loss", 1.0 / (epoch + 1) as f64)
                    .derived_from(format!("hp{epoch}"))],
            });
        }
        s
    }

    #[test]
    fn top_k_best_accuracy() {
        let s = fl_store();
        let q = Query::new(&s);
        let top = q.top_k_by_attr(&Id::Num(1), "accuracy", 3, true).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, Id::from("metrics3"));
        assert!((top[0].1 - 0.88).abs() < 1e-12);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn lowest_loss() {
        let s = fl_store();
        let q = Query::new(&s);
        let best = q.top_k_by_attr(&Id::Num(1), "loss", 1, false).unwrap();
        assert_eq!(best[0].0, Id::from("metrics3"));
        assert!((best[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn top_k_ties_keep_column_order() {
        let mut s = Store::new();
        for i in 0..4u64 {
            s.ingest(Record::TaskBegin {
                task: TaskRecord {
                    id: Id::Num(i),
                    workflow: Id::Num(1),
                    transformation: Id::Num(0),
                    dependencies: vec![],
                    time_ns: 0,
                    status: TaskStatus::Running,
                },
                inputs: vec![DataRecord::new(format!("d{i}"), 1u64).with_attr("score", 1.0)],
            });
        }
        let q = Query::new(&s);
        let top = q.top_k_by_attr(&Id::Num(1), "score", 2, true).unwrap();
        // All tied: the earlier column entries win, in order.
        assert_eq!(top[0].0, Id::from("d0"));
        assert_eq!(top[1].0, Id::from("d1"));
    }

    #[test]
    fn hyperparameters_of_best_epoch() {
        // The paper's §I query end-to-end: best accuracy -> its inputs.
        let s = fl_store();
        let q = Query::new(&s);
        let best = q.top_k_by_attr(&Id::Num(1), "accuracy", 1, true).unwrap();
        let inputs = q.upstream_inputs(&Id::Num(1), &best[0].0).unwrap();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].0, Id::from("hp3"));
        let lr = inputs[0]
            .1
            .iter()
            .find(|(n, _)| n.as_ref() == "learning_rate")
            .unwrap();
        assert_eq!(lr.1, AttrValue::Float(0.1 / 4.0));
    }

    #[test]
    fn timeseries_is_time_ordered() {
        let s = fl_store();
        let q = Query::new(&s);
        let series = q.attr_timeseries(&Id::Num(1), "loss").unwrap();
        assert_eq!(series.len(), 4);
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
        // Loss decreases epoch over epoch.
        assert!(series.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn task_metrics_and_running() {
        let mut s = fl_store();
        let q = Query::new(&s);
        let m = q.task_metrics(&Id::Num(1)).unwrap();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|t| t.finished));
        assert!((m[1].elapsed_s.unwrap() - 0.6).abs() < 1e-9);

        // Add a begin-only task: it shows as running.
        s.ingest(Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(99),
                workflow: Id::Num(1),
                transformation: Id::Str("train".into()),
                dependencies: vec![],
                time_ns: 777,
                status: TaskStatus::Running,
            },
            inputs: vec![],
        });
        let q = Query::new(&s);
        let m = q.task_metrics(&Id::Num(1)).unwrap();
        let running: Vec<&TaskMetrics> = m.iter().filter(|t| !t.finished).collect();
        assert_eq!(running.len(), 1);
        assert_eq!(running[0].task, Id::Num(99));
    }

    #[test]
    fn lineage_traversal_both_directions() {
        let s = fl_store();
        let q = Query::new(&s);
        let up = q
            .lineage(
                &Id::Num(1),
                &Id::from("metrics2"),
                LineageDirection::Upstream,
                10,
            )
            .unwrap();
        assert_eq!(up, vec![Id::from("hp2")]);
        let down = q
            .lineage(
                &Id::Num(1),
                &Id::from("hp2"),
                LineageDirection::Downstream,
                10,
            )
            .unwrap();
        assert_eq!(down, vec![Id::from("metrics2")]);
    }

    #[test]
    fn lineage_depth_limit() {
        let mut s = Store::new();
        // Chain d0 <- d1 <- d2 <- d3.
        for i in 1..4u64 {
            s.ingest(Record::TaskBegin {
                task: TaskRecord {
                    id: Id::Num(i),
                    workflow: Id::Num(1),
                    transformation: Id::Num(0),
                    dependencies: vec![],
                    time_ns: 0,
                    status: TaskStatus::Running,
                },
                inputs: vec![
                    DataRecord::new(format!("d{i}"), 1u64).derived_from(format!("d{}", i - 1))
                ],
            });
        }
        s.ingest(Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(0),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![DataRecord::new("d0", 1u64)],
        });
        let q = Query::new(&s);
        let up1 = q
            .lineage(&Id::Num(1), &Id::from("d3"), LineageDirection::Upstream, 1)
            .unwrap();
        assert_eq!(up1, vec![Id::from("d2")]);
        let up_all = q
            .lineage(&Id::Num(1), &Id::from("d3"), LineageDirection::Upstream, 10)
            .unwrap();
        assert_eq!(up_all, vec![Id::from("d2"), Id::from("d1"), Id::from("d0")]);
    }

    #[test]
    fn cyclic_lineage_terminates() {
        // Regression: the legacy recursive walk looped forever on cycles.
        let mut s = Store::new();
        let task = |id: u64| TaskRecord {
            id: Id::Num(id),
            workflow: Id::Num(1),
            transformation: Id::Num(0),
            dependencies: vec![],
            time_ns: 0,
            status: TaskStatus::Running,
        };
        // Self-loop: ouro <- ouro.
        s.ingest(Record::TaskBegin {
            task: task(0),
            inputs: vec![DataRecord::new("ouro", 1u64).derived_from("ouro")],
        });
        // Mutual cycle through a forward reference: a <- b (b not yet
        // ingested), then b <- a.
        s.ingest(Record::TaskBegin {
            task: task(1),
            inputs: vec![DataRecord::new("a", 1u64).derived_from("b")],
        });
        s.ingest(Record::TaskBegin {
            task: task(2),
            inputs: vec![DataRecord::new("b", 1u64).derived_from("a")],
        });
        let q = Query::new(&s);
        for dir in [LineageDirection::Upstream, LineageDirection::Downstream] {
            let from_self = q
                .lineage(&Id::Num(1), &Id::from("ouro"), dir, usize::MAX)
                .unwrap();
            assert!(from_self.is_empty(), "self-loop reaches nothing new");
            let from_a = q
                .lineage(&Id::Num(1), &Id::from("a"), dir, usize::MAX)
                .unwrap();
            assert_eq!(from_a, vec![Id::from("b")], "cycle visits b once");
        }
    }

    #[test]
    fn composed_path_filters_downstream_closure() {
        let s = fl_store();
        let q = Query::new(&s);
        // hp2 -> downstream closure -> keep accuracy > 0.8.
        let path = Path::from_data("hp2").downstream(8).keep(Filter::Attr {
            name: "accuracy".into(),
            cmp: Cmp::Gt,
            threshold: 0.8,
        });
        let mut cursor = q.cursor(&Id::Num(1), &path, CursorOpts::default()).unwrap();
        let page = cursor.next_page(&s);
        assert!(page.done);
        assert_eq!(page.hits.len(), 1);
        assert_eq!(page.hits[0].id, Id::from("metrics2"));
        // The filter attached the matched value.
        assert!((page.hits[0].value.unwrap() - 0.82).abs() < 1e-12);
        // Stats counted real work and pages.
        let stats = cursor.stats();
        assert!(stats.steps_evaluated > 0);
        assert_eq!(stats.pages, 1);
    }

    #[test]
    fn cursor_paginates_and_resumes() {
        let mut s = Store::new();
        // A root with 100 direct products.
        s.ingest(Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(0),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![DataRecord::new("root", 1u64)],
        });
        for i in 0..100u64 {
            s.ingest(Record::TaskBegin {
                task: TaskRecord {
                    id: Id::Num(i + 1),
                    workflow: Id::Num(1),
                    transformation: Id::Num(0),
                    dependencies: vec![],
                    time_ns: 0,
                    status: TaskStatus::Running,
                },
                inputs: vec![DataRecord::new(format!("p{i}"), 1u64).derived_from("root")],
            });
        }
        let path = Path::from_data("root").downstream(1);
        let opts = CursorOpts {
            page_size: 7,
            ..CursorOpts::default()
        };
        let mut cursor = Cursor::open(&s, &Id::Num(1), &path, opts).unwrap();
        let mut seen = Vec::new();
        let mut pages = 0;
        loop {
            let page = cursor.next_page(&s);
            assert!(page.hits.len() <= 7);
            let done = page.done;
            seen.extend(page.hits.into_iter().map(|h| h.id));
            pages += 1;
            if done {
                break;
            }
            assert!(pages < 1000, "cursor must terminate");
        }
        assert_eq!(seen.len(), 100, "every product exactly once");
        assert_eq!(cursor.stats().pages as usize, pages);
        // Further pages stay empty and done.
        let page = cursor.next_page(&s);
        assert!(page.done);
        assert!(page.hits.is_empty());
    }

    #[test]
    fn at_open_snapshot_hides_later_rows() {
        let mut s = Store::new();
        let task = |id: u64| TaskRecord {
            id: Id::Num(id),
            workflow: Id::Num(1),
            transformation: Id::Num(0),
            dependencies: vec![],
            time_ns: 0,
            status: TaskStatus::Running,
        };
        s.ingest(Record::TaskBegin {
            task: task(0),
            inputs: vec![
                DataRecord::new("root", 1u64),
                DataRecord::new("old", 1u64).derived_from("root"),
            ],
        });
        let path = Path::from_data("root").downstream(8);
        let mut pinned = Cursor::open(
            &s,
            &Id::Num(1),
            &path,
            CursorOpts {
                snapshot: SnapshotMode::AtOpen,
                ..CursorOpts::default()
            },
        )
        .unwrap();
        // Ingest a new product after the cursor opened.
        s.ingest(Record::TaskBegin {
            task: task(1),
            inputs: vec![DataRecord::new("new", 1u64).derived_from("root")],
        });
        let page = pinned.next_page(&s);
        assert!(page.done);
        let ids: Vec<_> = page.hits.iter().map(|h| &h.id).collect();
        assert_eq!(ids, vec![&Id::from("old")], "post-open row invisible");
        // A live cursor opened now sees both.
        let mut live = Cursor::open(
            &s,
            &Id::Num(1),
            &path,
            CursorOpts {
                snapshot: SnapshotMode::Live,
                ..CursorOpts::default()
            },
        )
        .unwrap();
        assert_eq!(live.next_page(&s).hits.len(), 2);
    }

    #[test]
    fn used_by_and_generated_from_hops() {
        let s = fl_store();
        // hp2 --used_by--> task 2 --outputs--> metrics2.
        let q = Query::new(&s);
        let path = Path::from_data("hp2").used_by();
        let mut c = q.cursor(&Id::Num(1), &path, CursorOpts::default()).unwrap();
        let page = c.next_page(&s);
        assert_eq!(page.hits.len(), 1);
        assert_eq!(page.hits[0].id, Id::from("metrics2"));
        // metrics2 --generated_from--> hp2.
        let path = Path::from_data("metrics2").generated_from();
        let mut c = q.cursor(&Id::Num(1), &path, CursorOpts::default()).unwrap();
        let page = c.next_page(&s);
        assert_eq!(page.hits.len(), 1);
        assert_eq!(page.hits[0].id, Id::from("hp2"));
    }

    #[test]
    fn errors_are_reported() {
        let s = fl_store();
        let q = Query::new(&s);
        assert!(matches!(
            q.tasks(&Id::Num(42)),
            Err(QueryError::UnknownWorkflow(_))
        ));
        assert!(matches!(
            q.top_k_by_attr(&Id::Num(1), "nope", 1, true),
            Err(QueryError::NotNumeric(_))
        ));
        assert!(matches!(
            q.lineage(
                &Id::Num(1),
                &Id::from("nope"),
                LineageDirection::Upstream,
                1
            ),
            Err(QueryError::UnknownData(_))
        ));
    }

    #[test]
    fn attr_stats_summarize_columns() {
        let s = fl_store();
        let q = Query::new(&s);
        let stats = q.attr_stats(&Id::Num(1), "accuracy").unwrap();
        assert_eq!(stats.count, 4);
        assert!((stats.min - 0.7).abs() < 1e-12);
        assert!((stats.max - 0.88).abs() < 1e-12);
        assert!((stats.mean - 0.79).abs() < 1e-12);
        assert!(q.attr_stats(&Id::Num(1), "nope").is_err());
    }

    #[test]
    fn filter_by_predicate() {
        let s = fl_store();
        let q = Query::new(&s);
        let good = q
            .filter_data_by(&Id::Num(1), "accuracy", |v| v > 0.8)
            .unwrap();
        assert_eq!(good.len(), 2);
        assert!(good.iter().all(|(_, v)| *v > 0.8));
    }

    #[test]
    fn mean_elapsed_per_transformation() {
        let s = fl_store();
        let q = Query::new(&s);
        let mean = q
            .mean_elapsed_s(&Id::Num(1), &Id::Str("train".into()))
            .unwrap()
            .unwrap();
        // elapsed = 0.5, 0.6, 0.7, 0.8 -> mean 0.65
        assert!((mean - 0.65).abs() < 1e-9);
        assert_eq!(
            q.mean_elapsed_s(&Id::Num(1), &Id::Str("none".into()))
                .unwrap(),
            None
        );
    }
}
