//! The in-memory columnar provenance store.
//!
//! Ingests capture records at workflow runtime (the paper's "data ingestion
//! at runtime" requirement, §IV-B) and maintains:
//!
//! * a task table (begin/end times, status, dependencies);
//! * a data table (attributes, derivations) with `used` / `wasGeneratedBy`
//!   edges to tasks;
//! * per-(workflow, attribute) typed columns for analytical queries — the
//!   stand-in for DfAnalyzer's MonetDB column store.
//!
//! The ingest path is engineered for per-record cost: index lookups use
//! borrowed `(workflow, id)` keys ([`prov_model::key`]) so a *hit* clones
//! zero [`Id`]s, edge dedup uses [`SmallSet`] indices instead of `O(n)`
//! scans, and no raw record is kept once it is folded into the tables —
//! PROV export reconstructs the stream from them instead of replaying an
//! unbounded log.
//!
//! # What a row costs
//!
//! The store is memory-only, so the bytes per row decide how long a server
//! can ingest. A [`DataRow`] is 184 bytes and a [`TaskRow`] 176: their edge
//! sets hold up to two members inline ([`SmallSet`]) and allocate nothing
//! until a third. On the heap a row owns its attribute cells (48 bytes
//! each, plus 16 in the typed column), the text of its own id and the copy
//! of the workflow id it arrived with; every other string it names is an
//! allocation the shard holds already:
//!
//! * the `(workflow, id)` index key is the row's `workflow` and `id`;
//! * a derivation is the *source row's* `id`, taken from the index probe
//!   that resolves the edge — except a forward reference, which keeps the
//!   copy it arrived with even after the source comes;
//! * an attribute name is the `Arc<str>` the `(workflow, name)` column is
//!   keyed by, taken from the probe that appends the cell, so rows decoded
//!   from different messages — each with a string table of its own — share
//!   one allocation per name; a name whose values are neither numbers nor
//!   text has no column and stays the record's;
//! * a text cell in a column is the row's attribute value.
//!
//! [`Store::ingest`] owns its record and moves ids and the attribute `Vec`
//! into the row; what the shard has a copy of is dropped in its favour.
//! A lineage DAG whose rows derive from two others and carry one number
//! retains 448 bytes of heap per row, all tables included
//! (`tests/store_footprint.rs` holds that figure and the sharing).

use crate::schema::AttrType;
use crate::smallset::SmallSet;
use parking_lot::RwLock;
use prov_model::key::{IdAttrKey, IdPairKey, PairProbe};
use prov_model::{
    mapping, AttrValue, DataRecord, Id, ProvDocument, Record, TaskRecord, TaskStatus,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Row index types.
pub type TaskIdx = usize;
/// Row index into the data table.
pub type DataIdx = usize;

/// A task row.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskRow {
    /// Task id.
    pub id: Id,
    /// Owning workflow.
    pub workflow: Id,
    /// Transformation tag.
    pub transformation: Id,
    /// Dependency task ids (`wasInformedBy`).
    pub dependencies: SmallSet<Id>,
    /// Begin time (ns), if seen.
    pub start_ns: Option<u64>,
    /// End time (ns), if seen.
    pub end_ns: Option<u64>,
    /// Latest status.
    pub status: TaskStatus,
    /// Data rows used by this task.
    pub inputs: SmallSet<DataIdx>,
    /// Data rows generated by this task.
    pub outputs: SmallSet<DataIdx>,
}

impl TaskRow {
    /// Elapsed time in seconds, when both ends were captured.
    pub fn elapsed_s(&self) -> Option<f64> {
        match (self.start_ns, self.end_ns) {
            (Some(s), Some(e)) if e >= s => Some((e - s) as f64 / 1e9),
            _ => None,
        }
    }
}

/// A data row.
#[derive(Clone, Debug, PartialEq)]
pub struct DataRow {
    /// Data id.
    pub id: Id,
    /// Owning workflow.
    pub workflow: Id,
    /// Source data ids (`wasDerivedFrom`). A source that was stored when
    /// the reference arrived is listed by the source row's own `id`
    /// allocation, not by a copy.
    pub derivations: SmallSet<Id>,
    /// `derivations` resolved to row indices, wired at ingest. A source
    /// that has not been ingested yet is absent here (and parked in the
    /// store's pending set) until it arrives; the traversal engine walks
    /// these index edges instead of re-hashing ids per hop.
    pub derived_from_idx: SmallSet<DataIdx>,
    /// Reverse derivation edges: rows that list this row as a source.
    /// Maintained alongside `derived_from_idx` so downstream closure is a
    /// graph walk, not an `O(rows)` scan per node.
    pub derived_into: SmallSet<DataIdx>,
    /// Attributes. Re-seen data ids merge new attribute names in; the first
    /// value seen for a name wins. A name with a typed column is the
    /// `Arc<str>` that column is keyed by.
    pub attributes: Vec<(Arc<str>, AttrValue)>,
    /// Task that generated this data, if known.
    pub generated_by: Option<TaskIdx>,
    /// Tasks that used this data.
    pub used_by: SmallSet<TaskIdx>,
}

/// A workflow row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkflowRow {
    /// Begin time, if captured.
    pub begin_ns: Option<u64>,
    /// End time, if captured.
    pub end_ns: Option<u64>,
    /// Tasks belonging to this workflow.
    pub tasks: Vec<TaskIdx>,
}

/// A typed attribute column.
#[derive(Clone, Debug)]
pub enum Column {
    /// Numeric values as (data row, value).
    Numeric(Vec<(DataIdx, f64)>),
    /// Text values as (data row, value). Cells share the row's attribute
    /// allocation (`Arc<str>`) instead of owning a copy.
    Text(Vec<(DataIdx, Arc<str>)>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Text(v) => v.len(),
        }
    }
}

/// A column and the `Arc<str>` its map key names it by. Rows take their
/// attribute names from here; stable `HashMap` hands out no key together
/// with a mutable value, so the name is held a second time beside the
/// column.
#[derive(Debug)]
struct NamedColumn {
    name: Arc<str>,
    column: Column,
}

/// Ingestion statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records ingested.
    pub records: u64,
    /// Task rows.
    pub tasks: u64,
    /// Data rows.
    pub data: u64,
    /// Attribute cells stored.
    pub attr_cells: u64,
    /// Resolved derivation edges (`derived_from_idx` entries wired so far;
    /// forward references count once their source row arrives).
    pub lineage_edges: u64,
}

impl StoreStats {
    /// Component-wise sum (used to aggregate shard stats).
    pub fn merge(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            records: self.records + other.records,
            tasks: self.tasks + other.tasks,
            data: self.data + other.data,
            attr_cells: self.attr_cells + other.attr_cells,
            lineage_edges: self.lineage_edges + other.lineage_edges,
        }
    }
}

/// The provenance store.
#[derive(Debug, Default)]
pub struct Store {
    workflows: HashMap<Id, WorkflowRow>,
    tasks: Vec<TaskRow>,
    task_index: HashMap<(Id, Id), TaskIdx>,
    data: Vec<DataRow>,
    data_index: HashMap<(Id, Id), DataIdx>,
    /// (workflow, attribute name) -> typed column.
    columns: HashMap<(Id, Arc<str>), NamedColumn>,
    /// Forward derivation references: rows whose `(workflow, source id)`
    /// had not been ingested when they arrived, drained into index edges
    /// the moment the source row appears.
    pending_derivations: HashMap<(Id, Id), Vec<DataIdx>>,
    stats: StoreStats,
}

/// A thread-safe handle to a store (used by servers and translators).
pub type SharedStore = Arc<RwLock<Store>>;

/// Creates a new shared store.
pub fn shared() -> SharedStore {
    Arc::new(RwLock::with_rank(parking_lot::rank::STORE, Store::new()))
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Ingestion statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn workflow_row_mut(&mut self, id: &Id) -> &mut WorkflowRow {
        // Two probes instead of `entry(id.clone())`: the hit path (every
        // record after the first per workflow) must not clone the id.
        if !self.workflows.contains_key(id) {
            self.workflows.insert(id.clone(), WorkflowRow::default());
        }
        self.workflows.get_mut(id).expect("just ensured")
    }

    /// Ingests one capture record. The store owns it: ids and attributes
    /// move into the rows, and what the shard already holds a copy of is
    /// dropped in favour of that copy.
    pub fn ingest(&mut self, record: Record) {
        self.stats.records += 1;
        match record {
            Record::WorkflowBegin { workflow, time_ns } => {
                self.workflow_row_mut(&workflow).begin_ns = Some(time_ns);
            }
            Record::WorkflowEnd { workflow, time_ns } => {
                self.workflow_row_mut(&workflow).end_ns = Some(time_ns);
            }
            Record::TaskBegin { task, inputs } => {
                let time_ns = task.time_ns;
                let t = self.upsert_task(task);
                self.tasks[t].start_ns = Some(time_ns);
                for d in inputs {
                    let idx = self.upsert_data(d);
                    self.tasks[t].inputs.insert(idx);
                    self.data[idx].used_by.insert(t);
                }
            }
            Record::TaskEnd { task, outputs } => {
                let time_ns = task.time_ns;
                let t = self.upsert_task(task);
                self.tasks[t].end_ns = Some(time_ns);
                self.tasks[t].status = TaskStatus::Finished;
                for d in outputs {
                    let idx = self.upsert_data(d);
                    self.tasks[t].outputs.insert(idx);
                    self.data[idx].generated_by = Some(t);
                }
            }
        }
    }

    /// Ingests a batch.
    pub fn ingest_batch(&mut self, records: impl IntoIterator<Item = Record>) {
        for r in records {
            self.ingest(r);
        }
    }

    fn upsert_task(&mut self, task: TaskRecord) -> TaskIdx {
        let probe: &dyn IdPairKey = &(&task.workflow, &task.id);
        if let Some(&idx) = self.task_index.get(probe) {
            // Merge dependency info (begin may carry deps, end may not).
            for d in task.dependencies {
                self.tasks[idx].dependencies.insert(d);
            }
            if task.status == TaskStatus::Finished {
                self.tasks[idx].status = TaskStatus::Finished;
            }
            return idx;
        }
        let idx = self.tasks.len();
        self.task_index
            .insert((task.workflow.clone(), task.id.clone()), idx);
        self.stats.tasks += 1;
        self.workflow_row_mut(&task.workflow).tasks.push(idx);
        self.tasks.push(TaskRow {
            id: task.id,
            workflow: task.workflow,
            transformation: task.transformation,
            dependencies: task.dependencies.into_iter().collect(),
            start_ns: None,
            end_ns: None,
            status: task.status,
            inputs: SmallSet::new(),
            outputs: SmallSet::new(),
        });
        idx
    }

    fn upsert_data(&mut self, data: DataRecord) -> DataIdx {
        let probe: &dyn IdPairKey = &(&data.workflow, &data.id);
        if let Some(&idx) = self.data_index.get(probe) {
            // Re-seen data id: merge unseen derivations and attributes
            // (first value per name wins) instead of dropping them.
            for src in data.derivations {
                self.add_derivation(idx, src);
            }
            // Fast path: a re-reported item almost always carries the same
            // attribute layout (often literally the same Arc'd names), so a
            // positional prefix comparison proves every name known in O(A)
            // instead of the O(A^2) per-name scan.
            let same_layout = data.attributes.len() <= self.data[idx].attributes.len()
                && data
                    .attributes
                    .iter()
                    .zip(&self.data[idx].attributes)
                    .all(|((a, _), (b, _))| Arc::ptr_eq(a, b) || a == b);
            if !same_layout {
                for (name, value) in data.attributes {
                    let known = self.data[idx].attributes.iter().any(|(n, _)| *n == name);
                    if !known {
                        let cell = self.data[idx].attributes.len();
                        self.data[idx].attributes.push((name, value));
                        self.add_column_cell(idx, cell);
                    }
                }
            }
            return idx;
        }
        let idx = self.data.len();
        self.data_index
            .insert((data.workflow.clone(), data.id.clone()), idx);
        self.stats.data += 1;
        let cells = data.attributes.len();
        self.data.push(DataRow {
            id: data.id,
            workflow: data.workflow,
            derivations: SmallSet::new(),
            derived_from_idx: SmallSet::new(),
            derived_into: SmallSet::new(),
            attributes: data.attributes,
            generated_by: None,
            used_by: SmallSet::new(),
        });

        // Resolve this row's sources (the index already contains the row
        // itself, so a self-derivation wires as a self-loop — the query
        // engine's cycle guard owns termination, not ingest).
        for src in data.derivations {
            self.add_derivation(idx, src);
        }
        // Rows that referenced this id before it existed are waiting.
        // Sources nearly always arrive before their products, the map is
        // empty, and `remove` would hash the pair before it looked.
        if !self.pending_derivations.is_empty() {
            let row = &self.data[idx];
            let waiting = self
                .pending_derivations
                .remove(PairProbe(&row.workflow, &row.id).key());
            for dst in waiting.into_iter().flatten() {
                self.wire_derivation(idx, dst);
            }
        }

        for cell in 0..cells {
            self.add_column_cell(idx, cell);
        }
        idx
    }

    /// Adds `dst wasDerivedFrom src` unless `data[dst]` lists it already,
    /// and resolves it to index edges or parks it until the source row is
    /// ingested. A source the shard holds is listed under the source row's
    /// own `Id`, found by the probe that resolves the edge; `src` itself is
    /// kept only for a forward reference.
    fn add_derivation(&mut self, dst: DataIdx, src: Id) {
        let row = &self.data[dst];
        if row.derivations.contains(&src) {
            return;
        }
        match self
            .data_index
            .get_key_value(PairProbe(&row.workflow, &src).key())
        {
            Some(((_, held), &s)) => {
                let held = held.clone();
                self.data[dst].derivations.insert(held);
                self.wire_derivation(s, dst);
            }
            None => {
                self.pending_derivations
                    .entry((row.workflow.clone(), src.clone()))
                    .or_default()
                    .push(dst);
                self.data[dst].derivations.insert(src);
            }
        }
    }

    /// Records the resolved edge `src -> dst` in both directions.
    fn wire_derivation(&mut self, src: DataIdx, dst: DataIdx) {
        if self.data[dst].derived_from_idx.insert(src) {
            self.data[src].derived_into.insert(dst);
            self.stats.lineage_edges += 1;
        }
    }

    /// Appends the typed-column cell of `data[idx].attributes[cell]`, and
    /// has the row name the attribute by the column's `Arc<str>`: one
    /// allocation per attribute name and workflow, whoever decoded the row.
    fn add_column_cell(&mut self, idx: DataIdx, cell: usize) {
        self.stats.attr_cells += 1;
        let row = &mut self.data[idx];
        let (name, value) = &mut row.attributes[cell];
        let ty = AttrType::of(value);
        if ty == AttrType::Other {
            return;
        }
        let probe: &dyn IdAttrKey = &(&row.workflow, name.as_ref());
        let NamedColumn { name: held, column } = match self.columns.get_mut(probe) {
            Some(c) => c,
            None => {
                let column = match ty {
                    AttrType::Numeric => Column::Numeric(Vec::new()),
                    AttrType::Text => Column::Text(Vec::new()),
                    AttrType::Other => unreachable!("filtered above"),
                };
                self.columns
                    .entry((row.workflow.clone(), Arc::clone(name)))
                    .or_insert(NamedColumn {
                        name: Arc::clone(name),
                        column,
                    })
            }
        };
        if !Arc::ptr_eq(held, name) {
            *name = Arc::clone(held);
        }
        match (ty, column) {
            (AttrType::Numeric, Column::Numeric(col)) => {
                col.push((idx, value.as_float().expect("numeric")));
            }
            (AttrType::Text, Column::Text(col)) => {
                let AttrValue::Str(s) = value else {
                    unreachable!("text type implies Str")
                };
                col.push((idx, Arc::clone(s)));
            }
            // Mixed-type attribute: keep the first type seen.
            _ => {}
        }
    }

    // ----- accessors used by the query layer -----

    /// All known workflow ids.
    pub fn workflow_ids(&self) -> Vec<&Id> {
        let mut ids: Vec<&Id> = self.workflows.keys().collect();
        ids.sort();
        ids
    }

    /// Workflow row.
    pub fn workflow(&self, id: &Id) -> Option<&WorkflowRow> {
        self.workflows.get(id)
    }

    /// Task table.
    pub fn tasks(&self) -> &[TaskRow] {
        &self.tasks
    }

    /// Data table.
    pub fn data(&self) -> &[DataRow] {
        &self.data
    }

    /// Task lookup by (workflow, task id). Clone-free.
    pub fn task_by_id(&self, workflow: &Id, id: &Id) -> Option<&TaskRow> {
        let probe: &dyn IdPairKey = &(workflow, id);
        self.task_index.get(probe).map(|&i| &self.tasks[i])
    }

    /// Data lookup by (workflow, data id). Clone-free.
    pub fn data_by_id(&self, workflow: &Id, id: &Id) -> Option<(DataIdx, &DataRow)> {
        let probe: &dyn IdPairKey = &(workflow, id);
        self.data_index.get(probe).map(|&i| (i, &self.data[i]))
    }

    /// Typed column for an attribute within a workflow. Clone-free.
    pub fn column(&self, workflow: &Id, attr: &str) -> Option<&Column> {
        let probe: &dyn IdAttrKey = &(workflow, attr);
        self.columns.get(probe).map(|named| &named.column)
    }

    /// Number of values in a column.
    pub fn column_len(&self, workflow: &Id, attr: &str) -> usize {
        self.column(workflow, attr).map_or(0, Column::len)
    }

    /// Exports everything as a validated PROV-DM document (§IV-A
    /// interoperability path).
    ///
    /// The document is reconstructed from the tables; the store keeps no
    /// raw-record log to replay.
    pub fn to_prov_document(&self) -> ProvDocument {
        let mut doc = ProvDocument::new();
        self.apply_to_document(&mut doc);
        doc
    }

    /// Folds this store's contents into an existing PROV document
    /// (sharded stores merge every shard into one document this way).
    pub fn apply_to_document(&self, doc: &mut ProvDocument) {
        let mut apply = |record: Record| {
            mapping::apply_record(doc, &record).expect("store contents are consistent");
        };
        // Each data row carries its attributes/derivations exactly once.
        let mut data_emitted = vec![false; self.data.len()];
        let data_record = |row: &DataRow, emitted: &mut [bool], di: DataIdx| {
            let first = !emitted[di];
            emitted[di] = true;
            DataRecord {
                id: row.id.clone(),
                workflow: row.workflow.clone(),
                derivations: if first {
                    row.derivations.to_vec()
                } else {
                    Vec::new()
                },
                attributes: if first {
                    row.attributes.clone()
                } else {
                    Vec::new()
                },
            }
        };
        for wid in self.workflow_ids() {
            let wf = &self.workflows[wid];
            if let Some(time_ns) = wf.begin_ns {
                apply(Record::WorkflowBegin {
                    workflow: wid.clone(),
                    time_ns,
                });
            }
            for &ti in &wf.tasks {
                let task = &self.tasks[ti];
                let task_record = |time_ns: u64, status: TaskStatus| TaskRecord {
                    id: task.id.clone(),
                    workflow: task.workflow.clone(),
                    transformation: task.transformation.clone(),
                    dependencies: task.dependencies.to_vec(),
                    time_ns,
                    status,
                };
                if let Some(start) = task.start_ns {
                    let inputs = task
                        .inputs
                        .iter()
                        .map(|&di| data_record(&self.data[di], &mut data_emitted, di))
                        .collect();
                    apply(Record::TaskBegin {
                        task: task_record(start, TaskStatus::Running),
                        inputs,
                    });
                }
                if let Some(end) = task.end_ns {
                    let outputs = task
                        .outputs
                        .iter()
                        .map(|&di| data_record(&self.data[di], &mut data_emitted, di))
                        .collect();
                    apply(Record::TaskEnd {
                        task: task_record(end, TaskStatus::Finished),
                        outputs,
                    });
                }
            }
            if let Some(time_ns) = wf.end_ns {
                apply(Record::WorkflowEnd {
                    workflow: wid.clone(),
                    time_ns,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskRecord;

    fn task(wf: u64, id: u64, transf: &str, dep: Option<u64>, status: TaskStatus) -> TaskRecord {
        TaskRecord {
            id: Id::Num(id),
            workflow: Id::Num(wf),
            transformation: Id::Str(transf.into()),
            dependencies: dep.map(Id::Num).into_iter().collect(),
            time_ns: id * 1000,
            status,
        }
    }

    fn sample_store() -> Store {
        let mut s = Store::new();
        s.ingest(Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        });
        for i in 0..3u64 {
            let begin = task(1, i, "train", i.checked_sub(1), TaskStatus::Running);
            let mut end = begin.clone();
            end.status = TaskStatus::Finished;
            end.time_ns = begin.time_ns + 500;
            s.ingest(Record::TaskBegin {
                task: begin,
                inputs: vec![DataRecord::new(format!("in{i}"), 1u64)
                    .with_attr("learning_rate", 0.1 * (i + 1) as f64)],
            });
            s.ingest(Record::TaskEnd {
                task: end,
                outputs: vec![DataRecord::new(format!("out{i}"), 1u64)
                    .with_attr("accuracy", 0.8 + 0.05 * i as f64)
                    .derived_from(format!("in{i}"))],
            });
        }
        s.ingest(Record::WorkflowEnd {
            workflow: Id::Num(1),
            time_ns: 10_000,
        });
        s
    }

    #[test]
    fn ingestion_builds_tables() {
        let s = sample_store();
        assert_eq!(s.stats().tasks, 3);
        assert_eq!(s.stats().data, 6);
        assert_eq!(s.stats().records, 8);
        // One typed cell per data attribute; each record carries exactly one.
        assert_eq!(s.stats().attr_cells, 6);
        let wf = s.workflow(&Id::Num(1)).unwrap();
        assert_eq!(wf.begin_ns, Some(0));
        assert_eq!(wf.end_ns, Some(10_000));
        assert_eq!(wf.tasks.len(), 3);
    }

    #[test]
    fn task_begin_end_merge() {
        let s = sample_store();
        let t = s.task_by_id(&Id::Num(1), &Id::Num(0)).unwrap();
        assert_eq!(t.status, TaskStatus::Finished);
        assert_eq!(t.start_ns, Some(0));
        assert_eq!(t.end_ns, Some(500));
        assert!((t.elapsed_s().unwrap() - 5e-7).abs() < 1e-12);
        assert_eq!(t.inputs.len(), 1);
        assert_eq!(t.outputs.len(), 1);
    }

    #[test]
    fn lineage_edges_recorded() {
        let s = sample_store();
        let (_, d) = s.data_by_id(&Id::Num(1), &Id::from("out1")).unwrap();
        assert_eq!(d.derivations, vec![Id::from("in1")]);
        assert!(d.generated_by.is_some());
        let (_, din) = s.data_by_id(&Id::Num(1), &Id::from("in1")).unwrap();
        assert_eq!(din.used_by.len(), 1);
    }

    #[test]
    fn derivation_index_edges_wired_bidirectionally() {
        let s = sample_store();
        // Every `outN wasDerivedFrom inN` resolved to index edges.
        assert_eq!(s.stats().lineage_edges, 3);
        let (oi, out1) = s.data_by_id(&Id::Num(1), &Id::from("out1")).unwrap();
        let (ii, in1) = s.data_by_id(&Id::Num(1), &Id::from("in1")).unwrap();
        assert_eq!(out1.derived_from_idx, [ii]);
        assert_eq!(in1.derived_into, [oi]);
        assert!(in1.derived_from_idx.is_empty());
        assert!(out1.derived_into.is_empty());
    }

    #[test]
    fn forward_derivation_reference_wired_when_source_arrives() {
        let mut s = Store::new();
        // "early" derives from "late", which has not been ingested yet.
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("early", 1u64).derived_from("late")],
        });
        let (ei, early) = s.data_by_id(&Id::Num(1), &Id::from("early")).unwrap();
        assert!(early.derived_from_idx.is_empty(), "source not present yet");
        assert_eq!(s.stats().lineage_edges, 0);
        // The source arrives; the parked reference becomes an edge.
        s.ingest(Record::TaskBegin {
            task: task(1, 1, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("late", 1u64)],
        });
        let (li, late) = s.data_by_id(&Id::Num(1), &Id::from("late")).unwrap();
        let (_, early) = s.data_by_id(&Id::Num(1), &Id::from("early")).unwrap();
        assert_eq!(early.derived_from_idx, [li]);
        assert_eq!(late.derived_into, [ei]);
        assert_eq!(s.stats().lineage_edges, 1);
        // Re-reporting the same derivation does not double-count.
        s.ingest(Record::TaskBegin {
            task: task(1, 2, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("early", 1u64).derived_from("late")],
        });
        assert_eq!(s.stats().lineage_edges, 1);
    }

    #[test]
    fn self_derivation_wires_a_self_loop() {
        let mut s = Store::new();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("ouro", 1u64).derived_from("ouro")],
        });
        let (i, row) = s.data_by_id(&Id::Num(1), &Id::from("ouro")).unwrap();
        assert_eq!(row.derived_from_idx, [i]);
        assert_eq!(row.derived_into, [i]);
        assert_eq!(s.stats().lineage_edges, 1);
    }

    #[test]
    fn numeric_columns_built() {
        let s = sample_store();
        match s.column(&Id::Num(1), "accuracy").unwrap() {
            Column::Numeric(col) => {
                assert_eq!(col.len(), 3);
                let max = col.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
                assert!((max - 0.9).abs() < 1e-12);
            }
            _ => panic!("expected numeric column"),
        }
        assert_eq!(s.column_len(&Id::Num(1), "learning_rate"), 3);
        assert_eq!(s.column_len(&Id::Num(1), "missing"), 0);
    }

    #[test]
    fn text_columns_share_the_row_allocation() {
        let mut s = Store::new();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("d", 1u64).with_attr("kind", "sensor")],
        });
        match s.column(&Id::Num(1), "kind").unwrap() {
            Column::Text(col) => {
                assert_eq!(col.len(), 1);
                assert_eq!(col[0].1.as_ref(), "sensor");
                // Shared with the row's attribute value, not an owned copy.
                let (_, row) = s.data_by_id(&Id::Num(1), &Id::from("d")).unwrap();
                let AttrValue::Str(row_value) = &row.attributes[0].1 else {
                    panic!("expected str attribute");
                };
                assert!(Arc::ptr_eq(row_value, &col[0].1));
            }
            _ => panic!("expected text column"),
        }
    }

    #[test]
    fn duplicate_data_not_double_inserted() {
        let mut s = Store::new();
        let t0 = task(1, 0, "t", None, TaskStatus::Running);
        let d = DataRecord::new("shared", 1u64).with_attr("x", 1i64);
        s.ingest(Record::TaskBegin {
            task: t0.clone(),
            inputs: vec![d.clone()],
        });
        let t1 = task(1, 1, "t", None, TaskStatus::Running);
        s.ingest(Record::TaskBegin {
            task: t1,
            inputs: vec![d],
        });
        assert_eq!(s.stats().data, 1);
        let (_, row) = s.data_by_id(&Id::Num(1), &Id::from("shared")).unwrap();
        assert_eq!(row.used_by.len(), 2);
    }

    #[test]
    fn reseen_data_merges_new_attributes() {
        let mut s = Store::new();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("d", 1u64).with_attr("x", 1i64)],
        });
        // Same data id, one known attribute (new value ignored) and one new.
        s.ingest(Record::TaskBegin {
            task: task(1, 1, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("d", 1u64)
                .with_attr("x", 99i64)
                .with_attr("y", 2.5)
                .derived_from("src")],
        });
        assert_eq!(s.stats().data, 1);
        let (_, row) = s.data_by_id(&Id::Num(1), &Id::from("d")).unwrap();
        assert_eq!(row.attributes.len(), 2);
        assert_eq!(row.attributes[0].1, AttrValue::Int(1), "first value wins");
        assert_eq!(row.attributes[1].1, AttrValue::Float(2.5));
        assert_eq!(row.derivations, vec![Id::from("src")]);
        // The merged attribute got its column cell; the known one no
        // duplicate.
        assert_eq!(s.column_len(&Id::Num(1), "x"), 1);
        assert_eq!(s.column_len(&Id::Num(1), "y"), 1);
    }

    #[test]
    fn out_of_order_end_before_begin() {
        let mut s = Store::new();
        let mut end = task(1, 5, "t", None, TaskStatus::Finished);
        end.time_ns = 900;
        s.ingest(Record::TaskEnd {
            task: end,
            outputs: vec![],
        });
        let begin = task(1, 5, "t", None, TaskStatus::Running);
        s.ingest(Record::TaskBegin {
            task: begin,
            inputs: vec![],
        });
        let t = s.task_by_id(&Id::Num(1), &Id::Num(5)).unwrap();
        // End status must survive the late begin.
        assert_eq!(t.status, TaskStatus::Finished);
        assert_eq!(t.start_ns, Some(5000));
        assert_eq!(t.end_ns, Some(900));
    }

    #[test]
    fn prov_export_is_valid() {
        let s = sample_store();
        let doc = s.to_prov_document();
        doc.validate().unwrap();
        assert!(doc.element_count() > 6);
    }

    #[test]
    fn prov_export_without_retention_matches_retained_replay() {
        // The reconstruction path must produce the same elements and
        // relations as replaying a full raw-record log.
        let records = sample_records();
        let replayed = mapping::document_from_records(&records).unwrap();
        let reconstructed = sample_store().to_prov_document();
        assert_eq!(reconstructed.element_count(), replayed.element_count());
        assert_eq!(reconstructed.relations().len(), replayed.relations().len());
        reconstructed.validate().unwrap();
    }

    fn sample_records() -> Vec<Record> {
        let mut sink = vec![Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        }];
        for i in 0..3u64 {
            let begin = task(1, i, "train", i.checked_sub(1), TaskStatus::Running);
            let mut end = begin.clone();
            end.status = TaskStatus::Finished;
            end.time_ns = begin.time_ns + 500;
            sink.push(Record::TaskBegin {
                task: begin,
                inputs: vec![DataRecord::new(format!("in{i}"), 1u64)
                    .with_attr("learning_rate", 0.1 * (i + 1) as f64)],
            });
            sink.push(Record::TaskEnd {
                task: end,
                outputs: vec![DataRecord::new(format!("out{i}"), 1u64)
                    .with_attr("accuracy", 0.8 + 0.05 * i as f64)
                    .derived_from(format!("in{i}"))],
            });
        }
        sink.push(Record::WorkflowEnd {
            workflow: Id::Num(1),
            time_ns: 10_000,
        });
        sink
    }

    #[test]
    fn shared_store_is_threadsafe() {
        let store = shared();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    store.write().ingest(Record::WorkflowBegin {
                        workflow: Id::Num(i),
                        time_ns: 0,
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.read().workflow_ids().len(), 4);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn index_hits_clone_zero_ids() {
        use prov_model::ids::clone_count;

        let mut s = Store::new();
        // Streams with string ids — the expensive-to-clone form.
        let mk = |i: u64| -> Vec<Record> {
            let t = TaskRecord {
                id: Id::from(format!("task-{i}")),
                workflow: Id::from("wf-clone-test"),
                transformation: Id::from("train"),
                dependencies: vec![],
                time_ns: i,
                status: TaskStatus::Running,
            };
            let mut end = t.clone();
            end.status = TaskStatus::Finished;
            vec![
                Record::WorkflowBegin {
                    workflow: Id::from("wf-clone-test"),
                    time_ns: 0,
                },
                Record::TaskBegin {
                    task: t,
                    inputs: vec![
                        DataRecord::new(format!("in-{i}"), "wf-clone-test").with_attr("lr", 0.1)
                    ],
                },
                Record::TaskEnd {
                    task: end,
                    outputs: vec![],
                },
            ]
        };
        // First pass populates every index (misses clone, as they must).
        for r in mk(1) {
            s.ingest(r);
        }
        // Pre-build the identical second stream, then count.
        let replay = mk(1);
        let before = clone_count::id_clones();
        for r in replay {
            s.ingest(r);
        }
        let clones = clone_count::id_clones() - before;
        assert_eq!(
            clones, 0,
            "index hits during ingest must clone zero Ids, saw {clones}"
        );
        // Lookups are clone-free too.
        let wf = Id::from("wf-clone-test");
        let tid = Id::from("task-1");
        let before = clone_count::id_clones();
        assert!(s.task_by_id(&wf, &tid).is_some());
        assert!(s.data_by_id(&wf, &Id::from("in-1")).is_some());
        assert!(s.column(&wf, "lr").is_some());
        assert_eq!(clone_count::id_clones() - before, 0);
    }
}
