//! The in-memory columnar provenance store.
//!
//! Ingests capture records at workflow runtime (the paper's "data ingestion
//! at runtime" requirement, §IV-B) and answers queries per dataflow, so a
//! workflow is the unit it is made of: a [`Store`] is a map from workflow
//! id to one [`WorkflowTable`], and a table is all there is of its
//! workflow —
//!
//! * its begin and end times;
//! * a task table (begin/end times, status, dependencies);
//! * a data table (attributes, derivations) with `used` / `wasGeneratedBy`
//!   edges to tasks;
//! * per-attribute typed columns for analytical queries — the stand-in for
//!   DfAnalyzer's MonetDB column store;
//! * the indexes over those, each from one id or one name to row numbers
//!   relative to the table.
//!
//! Nothing in a table points outside it and nothing outside points in, so
//! what a table holds is decided by the records that named its workflow
//! and by nothing else — not by which other workflows the store holds.
//!
//! The ingest path is engineered for per-record cost: one probe finds the
//! record's table, inside it an id index is probed with the record's own
//! `&Id` and compares a hit with the row's own id, so a *hit* clones zero
//! [`Id`]s, edge dedup uses [`SmallSet`] indices instead of `O(n)` scans,
//! and no raw record is kept once it is folded into the tables — PROV
//! export reconstructs the stream from them instead of replaying an
//! unbounded log.
//!
//! # What a row costs
//!
//! The store is memory-only, so the bytes per row decide how long a server
//! can ingest. A [`DataRow`] is 144 bytes and a [`TaskRow`] 112: a row
//! number is 32 bits, so an edge set ([`SmallSet`]) is 16 bytes holding up
//! to two members inline and allocating nothing until a third, and a row
//! holds no workflow id — its workflow is its table's (see
//! [`WorkflowTable::owner`] for the rare row that is another's). A task
//! row's two times are 8 bytes each and one byte says which were seen, and
//! its transformation is a 32-bit number into the table's list, which holds
//! each transformation once ([`WorkflowTable::transformation`]). An
//! attribute cell costs 8 bytes, in the row's cells ([`Attrs`]), and
//! nothing else: names, value tags and which column a cell feeds are the
//! row's [`Layout`](crate::attrs::Layout), one per shape and workflow,
//! shared by every row of that shape, and the layout lists the row once —
//! 4 bytes a row, whatever its number of cells — for the columns its slots
//! feed to find it. A row of one cell keeps it inside the row; any other
//! number of cells is one allocation. Beyond that a row owns, on the heap,
//! the text of its own id; every other string it names is an allocation
//! its table holds already:
//!
//! * the id indexes hold no id: a bucket is 8 bytes, the row number and 32
//!   bits of the id's hash, and a probe compares a hit with the row's
//!   `id`;
//! * a derivation is the *source row's* `id`, found by the index probe
//!   that resolves the edge, and a task's dependency the `id` of the task
//!   row it names — except a forward reference, which keeps the copy it
//!   arrived with even after the row it names comes;
//! * a transformation is the one the table listed when a task first named
//!   it: a task of the transformation of the task row before it finds it
//!   without a hash, any other by a probe of an index like the id
//!   indexes, so a task of a known transformation allocates nothing for
//!   it;
//! * an attribute name is the layout's, and the layout's is the `Arc<str>`
//!   the column of that name is keyed by, so layouts — and through them
//!   rows decoded from different messages, each with a string table of its
//!   own — share one allocation per name; a name whose values are neither
//!   numbers nor text has no column and is shared by the rows of its
//!   layout only;
//! * a `Str`, `List` or `Bytes` value is the record's own, held once: a
//!   column lists layouts, never values.
//!
//! [`Store::ingest`] owns its record and moves ids into the row and the
//! attribute payloads into its cells; what the table has a copy of is
//! dropped in favour of that copy. A row of a known shape costs ingest one
//! allocation for its cells, none if it has one, and no string probe. A
//! lineage DAG whose rows derive from two others and carry one number
//! retains 249 bytes of heap per row, a task with a hundred numbers in and
//! one out 1 531, and a task with ten small integers in and one number out,
//! each record in a message of its own, 753, all tables included
//! (`tests/store_footprint.rs` holds those figures and the sharing).

use crate::attrs::{Attrs, Layout, Layouts};
use crate::index::RowIndex;
use crate::schema::AttrType;
use crate::smallset::SmallSet;
use prov_model::{mapping, DataRecord, Id, ProvDocument, Record, TaskRecord, TaskStatus};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Position of a task row in its workflow's table
/// ([`WorkflowTable::tasks`]). Relative to that table: it means nothing in
/// another workflow's. 32 bits: a table holds fewer than 2^32 rows.
pub type TaskIdx = u32;
/// Position of a data row in its workflow's table
/// ([`WorkflowTable::data`]). Relative to that table: it means nothing in
/// another workflow's. 32 bits: a table holds fewer than 2^32 rows.
pub type DataIdx = u32;

/// A task row. Its workflow is the table's, and so is its transformation:
/// the row holds a number that [`WorkflowTable::transformation`] names,
/// which like a [`TaskIdx`] means nothing in another workflow's table.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskRow {
    /// Task id.
    pub id: Id,
    /// Dependency task ids (`wasInformedBy`). A task that was stored when
    /// the reference arrived is listed by that row's own `id` allocation,
    /// not by a copy.
    pub dependencies: SmallSet<Id>,
    /// Data rows used by this task.
    pub inputs: SmallSet<DataIdx>,
    /// Data rows generated by this task.
    pub outputs: SmallSet<DataIdx>,
    /// Begin time (ns), read while `seen` has [`BEGUN`].
    start: u64,
    /// End time (ns), read while `seen` has [`ENDED`].
    end: u64,
    /// Position of the task's transformation in its table's list.
    transformation: u32,
    /// Latest status.
    pub status: TaskStatus,
    /// Which of the times were captured. Any `u64` is a time a device may
    /// send, so none can stand for "not seen".
    seen: u8,
}

/// `TaskRow::seen` once a begin was captured.
const BEGUN: u8 = 1;
/// `TaskRow::seen` once an end was captured.
const ENDED: u8 = 2;

impl TaskRow {
    /// Begin time (ns), if seen.
    pub fn start_ns(&self) -> Option<u64> {
        (self.seen & BEGUN != 0).then_some(self.start)
    }

    /// End time (ns), if seen.
    pub fn end_ns(&self) -> Option<u64> {
        (self.seen & ENDED != 0).then_some(self.end)
    }

    /// Elapsed time in seconds, when both ends were captured.
    pub fn elapsed_s(&self) -> Option<f64> {
        match (self.start_ns(), self.end_ns()) {
            (Some(s), Some(e)) if e >= s => Some((e - s) as f64 / 1e9),
            _ => None,
        }
    }

    fn began(&mut self, time_ns: u64) {
        self.start = time_ns;
        self.seen |= BEGUN;
    }

    fn ended(&mut self, time_ns: u64) {
        self.end = time_ns;
        self.seen |= ENDED;
        self.status = TaskStatus::Finished;
    }
}

/// A data row. Its workflow is the table's, except for a row another
/// workflow owns and a task of this one reported: [`WorkflowTable::owner`].
#[derive(Clone, Debug, PartialEq)]
pub struct DataRow {
    /// Data id.
    pub id: Id,
    /// Source data ids (`wasDerivedFrom`). A source that was stored when
    /// the reference arrived is listed by the source row's own `id`
    /// allocation, not by a copy.
    pub derivations: SmallSet<Id>,
    /// `derivations` resolved to row indices, wired at ingest. A source
    /// that has not been ingested yet is absent here (and parked in the
    /// table's pending set) until it arrives; the traversal engine walks
    /// these index edges instead of re-hashing ids per hop.
    pub derived_from_idx: SmallSet<DataIdx>,
    /// Reverse derivation edges: rows that list this row as a source.
    /// Maintained alongside `derived_from_idx` so downstream closure is a
    /// graph walk, not an `O(rows)` scan per node.
    pub derived_into: SmallSet<DataIdx>,
    /// Attributes, as the record listed them: a name the record repeats is
    /// here as often. Re-seen data ids merge new attribute names in; the
    /// first value seen for a name wins.
    pub attributes: Attrs,
    /// Task that generated this data, if known.
    pub generated_by: Option<TaskIdx>,
    /// Tasks that used this data.
    pub used_by: SmallSet<TaskIdx>,
}

/// A typed attribute column: the rows of one workflow that carry one
/// attribute name. It holds no values and no row numbers: it names the
/// layouts whose slots feed it, each with that slot, and each of those
/// layouts lists its rows. A reader takes the value from the row, through
/// the slot. A scan ([`WorkflowTable::column_rows`], the cursors) merges
/// the layouts' lists on row number and reads a row under the layout it has
/// now, so it meets each row once, in row order, however often the record
/// repeated the name: the first value per name is the one read, as in a
/// re-seen row's merge.
///
/// Its kind is that of the first typed value seen under the name, and
/// cells of another kind stay out of it. Two kinds exist.
/// [`AttrType::Numeric`] (`Float`, `Int` and `Bool` cells, read as `f64`)
/// is what [`Source::AttrColumn`](crate::query::Source) and the
/// [`Query`](crate::query::Query) aggregates scan. [`AttrType::Text`]
/// (`Str` cells) has no reader yet — a cursor over it answers
/// [`NotNumeric`](crate::query::QueryError::NotNumeric) — and costs what
/// any column costs: 8 bytes a layout that feeds it.
#[derive(Clone, Debug)]
pub struct Column {
    kind: AttrType,
    /// `(layout number, slot)` for each layout that feeds the column, in
    /// the order the layouts were defined.
    feeds: Vec<(u32, u32)>,
}

impl Column {
    /// [`AttrType::Numeric`] or [`AttrType::Text`].
    pub fn kind(&self) -> AttrType {
        self.kind
    }
}

/// The typed columns of a workflow: attribute name to a position in
/// `table`, which cursors hold on to.
#[derive(Debug, Default)]
struct Columns {
    index: HashMap<Arc<str>, u32>,
    table: Vec<Column>,
}

impl Columns {
    /// What a layout is told about one of its slots: the workflow's copy of
    /// `name`, and the column of that name if a cell of `kind` feeds it.
    /// The first typed cell under a name defines the column.
    fn resolve(&mut self, name: &Arc<str>, kind: AttrType) -> (Arc<str>, Option<u32>) {
        if let Some((held, &column)) = self.index.get_key_value(&**name) {
            let feeds = self.table[column as usize].kind == kind;
            return (Arc::clone(held), feeds.then_some(column));
        }
        if kind == AttrType::Other {
            return (Arc::clone(name), None);
        }
        let column = u32::try_from(self.table.len()).expect("fewer than 2^32 columns");
        self.table.push(Column {
            kind,
            feeds: Vec::new(),
        });
        self.index.insert(Arc::clone(name), column);
        (Arc::clone(name), Some(column))
    }

    /// Tells the columns a new layout's slots feed about it.
    fn feed(&mut self, layout: &Layout) {
        for (slot, column) in layout.columns() {
            self.table[column as usize]
                .feeds
                .push((layout.number(), slot));
        }
    }
}

/// Where a scan of one column stands: the next row number it has not
/// passed. That is all it keeps between lock holds — rows are numbered
/// for good, and a merge may list an old row in a layout after the scan
/// began — so each hold finds its place in every feeding layout's list
/// again ([`ColumnScan::resume`]), and within a hold steps through them.
#[derive(Debug, Default)]
pub(crate) struct ColumnScan {
    next: DataIdx,
    /// Per feed of the column, the position in its layout's list of the
    /// first row from `next` on; valid while `placed`.
    heads: Vec<usize>,
    placed: bool,
}

impl ColumnScan {
    /// Forgets the positions: the table may have changed since the last
    /// step.
    pub(crate) fn resume(&mut self) {
        self.placed = false;
    }
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

/// Everything the store holds of one workflow, and the unit the store is
/// made of: its times, its task and data rows, the indexes, typed columns
/// and layouts over them. Every index inside holds row numbers relative to
/// this table, and nothing a row already holds; nothing outside refers into
/// it.
#[derive(Debug)]
pub struct WorkflowTable {
    /// The workflow's id: the key this table is stored under, and the
    /// workflow of every row in it but the foreign ones.
    id: Id,
    /// Begin time, if captured.
    pub begin_ns: Option<u64>,
    /// End time, if captured.
    pub end_ns: Option<u64>,
    tasks: Vec<TaskRow>,
    /// The task rows by id, and the workflow's own data rows: row numbers
    /// under the hash of their id by `hasher`. The ids are the rows'.
    task_index: RowIndex,
    /// The transformations of the task rows, each once, in the order first
    /// seen: what a row's number names.
    transformations: Vec<Id>,
    /// Positions in `transformations` under the hash of their id.
    transformation_index: RowIndex,
    data: Vec<DataRow>,
    data_index: RowIndex,
    hasher: RandomState,
    columns: Columns,
    layouts: Layouts,
    /// Forward derivation references: rows whose source id had not been
    /// ingested when they arrived, drained into index edges the moment the
    /// source row appears.
    pending_derivations: HashMap<Id, Vec<DataIdx>>,
    /// The data items this workflow's tasks reported under *another*
    /// workflow's name (a `DataRecord` whose `workflow` is not its task's),
    /// by `(owning workflow, id)`. They are rows of this table — that is
    /// where their `used_by`, `generated_by` and derivation edges point —
    /// but not of its namespace: indexed apart, shaped by layouts of their
    /// own that feed no column, and never merged with the row the owning
    /// workflow may hold under the same id in its own table. What a table
    /// holds therefore depends on the records that named its workflow and
    /// on nothing else — not on which other workflows the store holds.
    foreign_index: HashMap<(Id, Id), DataIdx>,
    /// The owning workflow of each of those rows, in row order: the one
    /// place a row's workflow is written down, and only where it is not
    /// this table's.
    foreign_owners: Vec<(DataIdx, Id)>,
    foreign_layouts: Layouts,
}

impl WorkflowTable {
    fn new(id: Id) -> Self {
        WorkflowTable {
            id,
            begin_ns: None,
            end_ns: None,
            tasks: Vec::new(),
            task_index: RowIndex::default(),
            transformations: Vec::new(),
            transformation_index: RowIndex::default(),
            data: Vec::new(),
            data_index: RowIndex::default(),
            hasher: RandomState::new(),
            columns: Columns::default(),
            layouts: Layouts::default(),
            pending_derivations: HashMap::new(),
            foreign_index: HashMap::new(),
            foreign_owners: Vec::new(),
            foreign_layouts: Layouts::default(),
        }
    }

    fn ingest(&mut self, record: Record, stats: &mut StoreStats) {
        match record {
            Record::WorkflowBegin { time_ns, .. } => self.begin_ns = Some(time_ns),
            Record::WorkflowEnd { time_ns, .. } => self.end_ns = Some(time_ns),
            Record::TaskBegin { task, inputs } => {
                let time_ns = task.time_ns;
                let t = self.upsert_task(task, stats);
                self.tasks[t as usize].began(time_ns);
                for d in inputs {
                    let idx = self.upsert_data(d, stats);
                    self.tasks[t as usize].inputs.insert(idx);
                    self.data[idx as usize].used_by.insert(t);
                }
            }
            Record::TaskEnd { task, outputs } => {
                let time_ns = task.time_ns;
                let t = self.upsert_task(task, stats);
                self.tasks[t as usize].ended(time_ns);
                for d in outputs {
                    let idx = self.upsert_data(d, stats);
                    self.tasks[t as usize].outputs.insert(idx);
                    self.data[idx as usize].generated_by = Some(t);
                }
            }
        }
    }

    /// The 32 bits of `id`'s hash the id indexes keep.
    fn hash(&self, id: &Id) -> u32 {
        self.hasher.hash_one(id) as u32
    }

    fn task_row(&self, hash: u32, id: &Id) -> Option<TaskIdx> {
        let tasks = &self.tasks;
        self.task_index
            .find(hash, |row| tasks[row as usize].id == *id)
    }

    /// The workflow's own data row of id `id`, found under `hash`.
    fn own_row(&self, hash: u32, id: &Id) -> Option<DataIdx> {
        let data = &self.data;
        self.data_index
            .find(hash, |row| data[row as usize].id == *id)
    }

    /// The next row number of a table of `len` rows: fewer than 2^32 - 1,
    /// for the id indexes mark an empty bucket with the last.
    fn next_row(len: usize) -> u32 {
        u32::try_from(len)
            .ok()
            .filter(|&row| row != crate::index::EMPTY)
            .expect("fewer than 2^32 - 1 rows of a kind in a workflow")
    }

    fn upsert_task(&mut self, task: TaskRecord, stats: &mut StoreStats) -> TaskIdx {
        let hash = self.hash(&task.id);
        let idx = match self.task_row(hash, &task.id) {
            Some(idx) => {
                if task.status == TaskStatus::Finished {
                    self.tasks[idx as usize].status = TaskStatus::Finished;
                }
                idx
            }
            None => {
                let idx = Self::next_row(self.tasks.len());
                let transformation = self.intern_transformation(task.transformation);
                self.task_index.insert(hash, idx);
                stats.tasks += 1;
                self.tasks.push(TaskRow {
                    id: task.id,
                    dependencies: SmallSet::new(),
                    inputs: SmallSet::new(),
                    outputs: SmallSet::new(),
                    start: 0,
                    end: 0,
                    transformation,
                    status: task.status,
                    seen: 0,
                });
                idx
            }
        };
        // Merge dependency info (begin may carry deps, end may not).
        for d in task.dependencies {
            if !self.tasks[idx as usize].dependencies.contains(&d) {
                let held = self.held_task_id(d);
                self.tasks[idx as usize].dependencies.insert(held);
            }
        }
        idx
    }

    /// The number of transformation `id` in this table, listed if new. A
    /// task nearly always has the transformation of the task row before
    /// it, and that costs no hash.
    fn intern_transformation(&mut self, id: Id) -> u32 {
        if let Some(last) = self.tasks.last() {
            if self.transformations[last.transformation as usize] == id {
                return last.transformation;
            }
        }
        let hash = self.hash(&id);
        if let Some(at) = self.transformation_number(hash, &id) {
            return at;
        }
        let at = Self::next_row(self.transformations.len());
        self.transformation_index.insert(hash, at);
        self.transformations.push(id);
        at
    }

    /// The number of transformation `id`, found under `hash`.
    fn transformation_number(&self, hash: u32, id: &Id) -> Option<u32> {
        let held = &self.transformations;
        self.transformation_index
            .find(hash, |at| held[at as usize] == *id)
    }

    /// `id` as this table holds it: the `id` of its task row, or `id`
    /// itself for a task the table does not hold yet. A number is no
    /// allocation to share.
    fn held_task_id(&self, id: Id) -> Id {
        if let Id::Num(_) = id {
            return id;
        }
        match self.task_row(self.hash(&id), &id) {
            Some(row) => self.tasks[row as usize].id.clone(),
            None => id,
        }
    }

    /// The row this table holds for `(workflow, id)` — the workflow's own,
    /// or one of another workflow that a task of this one reported — with
    /// the row's own id. Only the second kind builds a key to probe with,
    /// and only where there is such a row to find.
    fn find(&self, workflow: &Id, id: &Id) -> Option<(&Id, DataIdx)> {
        if *workflow == self.id {
            let idx = self.own_row(self.hash(id), id)?;
            return Some((&self.data[idx as usize].id, idx));
        }
        if self.foreign_index.is_empty() {
            return None;
        }
        let key = (workflow.clone(), id.clone());
        let ((_, held), &idx) = self.foreign_index.get_key_value(&key)?;
        Some((held, idx))
    }

    fn upsert_data(&mut self, data: DataRecord, stats: &mut StoreStats) -> DataIdx {
        let own = data.workflow == self.id;
        let hash = self.hash(&data.id);
        let seen = match own {
            true => self.own_row(hash, &data.id),
            false => self.find(&data.workflow, &data.id).map(|(_, idx)| idx),
        };
        let layouts = match own {
            true => &mut self.layouts,
            false => &mut self.foreign_layouts,
        };
        let known = layouts.len();
        // A row of another workflow is shaped with this table's names and
        // listed in none of its columns.
        let columns = &mut self.columns;
        let resolve = |name: &Arc<str>, kind: AttrType| {
            columns.resolve(name, if own { kind } else { AttrType::Other })
        };
        if let Some(idx) = seen {
            // Re-seen data id: merge unseen derivations and attributes
            // (first value per name wins) instead of dropping them.
            let row = &mut self.data[idx as usize];
            let first_new = layouts.merge(&mut row.attributes, data.attributes, resolve);
            if first_new < row.attributes.len() {
                stats.attr_cells += (row.attributes.len() - first_new) as u64;
                if layouts.len() > known {
                    self.columns.feed(row.attributes.layout());
                }
                layouts.list(idx, &row.attributes);
            }
            for src in data.derivations {
                self.add_derivation(idx, src, stats);
            }
            return idx;
        }
        let idx = Self::next_row(self.data.len());
        stats.data += 1;
        let attributes = layouts.pack(data.attributes, resolve);
        stats.attr_cells += attributes.len() as u64;
        if layouts.len() > known {
            self.columns.feed(attributes.layout());
        }
        layouts.list(idx, &attributes);
        if own {
            self.data_index.insert(hash, idx);
        } else {
            let key = (data.workflow.clone(), data.id.clone());
            self.foreign_index.insert(key, idx);
            self.foreign_owners.push((idx, data.workflow));
        }
        self.data.push(DataRow {
            id: data.id,
            derivations: SmallSet::new(),
            derived_from_idx: SmallSet::new(),
            derived_into: SmallSet::new(),
            attributes,
            generated_by: None,
            used_by: SmallSet::new(),
        });

        // Resolve this row's sources (the index already contains the row
        // itself, so a self-derivation wires as a self-loop — the query
        // engine's cycle guard owns termination, not ingest).
        for src in data.derivations {
            self.add_derivation(idx, src, stats);
        }
        // Rows that referenced this id before it existed are waiting.
        // Sources nearly always arrive before their products, the map is
        // empty, and `remove` would hash the id before it looked.
        if !self.pending_derivations.is_empty() {
            let waiting = self.pending_derivations.remove(&self.data[idx as usize].id);
            for dst in waiting.into_iter().flatten() {
                if self.owner(dst) == self.owner(idx) {
                    self.wire_derivation(idx, dst, stats);
                } else {
                    // The id alone is the key, so a row of another
                    // workflow's namespace waited under it too: it waits on.
                    self.park(self.data[idx as usize].id.clone(), dst);
                }
            }
        }
        idx
    }

    /// Adds `dst wasDerivedFrom src` unless `data[dst]` lists it already,
    /// and resolves it to index edges or parks it until the source row is
    /// ingested. A source is looked for under the workflow `data[dst]`
    /// belongs to; one the table holds is listed under the source row's own
    /// `Id`, found by the probe that resolves the edge; `src` itself is
    /// kept only for a forward reference.
    fn add_derivation(&mut self, dst: DataIdx, src: Id, stats: &mut StoreStats) {
        if self.data[dst as usize].derivations.contains(&src) {
            return;
        }
        match self.find(self.owner(dst), &src) {
            Some((held, s)) => {
                let held = held.clone();
                self.data[dst as usize].derivations.insert(held);
                self.wire_derivation(s, dst, stats);
            }
            None => {
                self.park(src.clone(), dst);
                self.data[dst as usize].derivations.insert(src);
            }
        }
    }

    /// Leaves `dst` waiting for a row of id `src`.
    fn park(&mut self, src: Id, dst: DataIdx) {
        self.pending_derivations.entry(src).or_default().push(dst);
    }

    /// Records the resolved edge `src -> dst` in both directions.
    fn wire_derivation(&mut self, src: DataIdx, dst: DataIdx, stats: &mut StoreStats) {
        if self.data[dst as usize].derived_from_idx.insert(src) {
            self.data[src as usize].derived_into.insert(dst);
            stats.lineage_edges += 1;
        }
    }

    /// Task rows, in ingestion order.
    pub fn tasks(&self) -> &[TaskRow] {
        &self.tasks
    }

    /// The transformation of `task`, a row of this table.
    pub fn transformation(&self, task: &TaskRow) -> &Id {
        &self.transformations[task.transformation as usize]
    }

    /// The task rows of transformation `transformation`, in ingestion
    /// order. The id is resolved once; the rows are matched by number.
    pub(crate) fn tasks_of(&self, transformation: &Id) -> impl Iterator<Item = &TaskRow> {
        let number = self.transformation_number(self.hash(transformation), transformation);
        let tasks = self.tasks.iter();
        tasks.filter(move |t| Some(t.transformation) == number)
    }

    /// Data rows, in ingestion order: the workflow's own, and those of
    /// other workflows that its tasks reported.
    pub fn data(&self) -> &[DataRow] {
        &self.data
    }

    /// The workflow data row `row` belongs to: this table's, or for a row
    /// another workflow owns and a task of this one reported, that one.
    pub fn owner(&self, row: DataIdx) -> &Id {
        match self
            .foreign_owners
            .binary_search_by_key(&row, |&(at, _)| at)
        {
            Ok(at) => &self.foreign_owners[at].1,
            Err(_) => &self.id,
        }
    }

    /// The rows another workflow owns, each with that workflow, in row
    /// order.
    pub fn foreign_owners(&self) -> &[(DataIdx, Id)] {
        &self.foreign_owners
    }

    /// Lookup of one of the workflow's own data rows by id. Clone-free.
    pub fn data_by_id(&self, id: &Id) -> Option<(DataIdx, &DataRow)> {
        let idx = self.own_row(self.hash(id), id)?;
        Some((idx, &self.data[idx as usize]))
    }

    /// The rows of the typed column of attribute `attr`, in row order, each
    /// once: what a scan of the column meets. None for a name with no
    /// column.
    pub fn column_rows(&self, attr: &str) -> impl Iterator<Item = DataIdx> + '_ {
        let column = self.column_id(attr);
        let mut scan = ColumnScan::default();
        std::iter::from_fn(move || Some(self.scan_column(column?, &mut scan)?.0))
    }

    /// The next row of column `column` that `scan` has not passed, with
    /// the row's value in it read as a number. A row is listed by every
    /// layout it has had that feeds the column; it is met under the one
    /// it has now.
    pub(crate) fn scan_column(
        &self,
        column: u32,
        scan: &mut ColumnScan,
    ) -> Option<(DataIdx, Option<f64>)> {
        let feeds = &self.column_at(column).feeds;
        let ColumnScan {
            next,
            heads,
            placed,
        } = scan;
        if !*placed {
            heads.resize(feeds.len(), 0);
            for (head, &(layout, _)) in heads.iter_mut().zip(feeds) {
                *head = self
                    .layouts
                    .rows(layout)
                    .partition_point(|&row| row < *next);
            }
            *placed = true;
        }
        loop {
            let listed = heads.iter().zip(feeds);
            let row = listed
                .filter_map(|(&head, &(layout, _))| self.layouts.rows(layout).get(head).copied())
                .min()?;
            let attributes = &self.data[row as usize].attributes;
            let now = attributes.layout().number();
            let mut found = None;
            for (head, &(layout, slot)) in heads.iter_mut().zip(feeds) {
                if self.layouts.rows(layout).get(*head) == Some(&row) {
                    *head += 1;
                    if layout == now {
                        found = Some(attributes.numeric_at(slot));
                    }
                }
            }
            *next = row + 1;
            if let Some(value) = found {
                return Some((row, value));
            }
        }
    }

    /// Position of an attribute's typed column in this table: what a
    /// cursor keeps, instead of the name, between pages.
    pub(crate) fn column_id(&self, attr: &str) -> Option<u32> {
        self.columns.index.get(attr).copied()
    }

    /// The column at a position [`WorkflowTable::column_id`] returned.
    pub(crate) fn column_at(&self, column: u32) -> &Column {
        &self.columns.table[column as usize]
    }

    /// Folds this workflow into a PROV document, as the record stream that
    /// would rebuild the table.
    fn apply_to_document(&self, doc: &mut ProvDocument) {
        let mut apply = |record: Record| {
            mapping::apply_record(doc, &record).expect("store contents are consistent");
        };
        // Each data row carries its attributes/derivations exactly once.
        let mut data_emitted = vec![false; self.data.len()];
        let mut data_record = |di: DataIdx| {
            let row = &self.data[di as usize];
            let mut record = DataRecord::new(row.id.clone(), self.owner(di).clone());
            if !std::mem::replace(&mut data_emitted[di as usize], true) {
                record.derivations = row.derivations.to_vec();
                record.attributes = row.attributes.to_vec();
            }
            record
        };
        if let Some(time_ns) = self.begin_ns {
            apply(Record::WorkflowBegin {
                workflow: self.id.clone(),
                time_ns,
            });
        }
        for task in &self.tasks {
            let task_record = |time_ns: u64, status: TaskStatus| TaskRecord {
                id: task.id.clone(),
                workflow: self.id.clone(),
                transformation: self.transformation(task).clone(),
                dependencies: task.dependencies.to_vec(),
                time_ns,
                status,
            };
            if let Some(start) = task.start_ns() {
                apply(Record::TaskBegin {
                    task: task_record(start, TaskStatus::Running),
                    inputs: task.inputs.iter().map(|&di| data_record(di)).collect(),
                });
            }
            if let Some(end) = task.end_ns() {
                apply(Record::TaskEnd {
                    task: task_record(end, TaskStatus::Finished),
                    outputs: task.outputs.iter().map(|&di| data_record(di)).collect(),
                });
            }
        }
        if let Some(time_ns) = self.end_ns {
            apply(Record::WorkflowEnd {
                workflow: self.id.clone(),
                time_ns,
            });
        }
    }
}

/// The provenance store: one [`WorkflowTable`] per workflow.
#[derive(Debug, Default)]
pub struct Store {
    workflows: HashMap<Id, WorkflowTable>,
    stats: StoreStats,
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

    /// Ingests one capture record into the table of the workflow it names.
    /// The store owns it: ids and attributes move into the rows, and what
    /// the table already holds a copy of is dropped in favour of that copy.
    pub fn ingest(&mut self, record: Record) {
        self.stats.records += 1;
        let workflow = record.workflow();
        // One probe, and a hit — every record after a workflow's first —
        // clones nothing.
        let table = match self.workflows.get_mut(workflow) {
            Some(table) => table,
            None => {
                let fresh = self.workflows.entry(workflow.clone());
                fresh.or_insert_with_key(|id| WorkflowTable::new(id.clone()))
            }
        };
        table.ingest(record, &mut self.stats);
    }

    /// Ingests a batch.
    pub fn ingest_batch(&mut self, records: impl IntoIterator<Item = Record>) {
        for r in records {
            self.ingest(r);
        }
    }

    // ----- accessors used by the query layer -----

    /// All known workflow ids.
    pub fn workflow_ids(&self) -> Vec<&Id> {
        let mut ids: Vec<&Id> = self.workflows.keys().collect();
        ids.sort();
        ids
    }

    /// A workflow's table.
    pub fn workflow(&self, id: &Id) -> Option<&WorkflowTable> {
        self.workflows.get(id)
    }

    /// Task lookup by (workflow, task id). Clone-free.
    pub fn task_by_id(&self, workflow: &Id, id: &Id) -> Option<&TaskRow> {
        let table = self.workflow(workflow)?;
        let idx = table.task_row(table.hash(id), id)?;
        Some(&table.tasks[idx as usize])
    }

    /// Data lookup by (workflow, data id): the row in the workflow's own
    /// table, clone-free, or else a row some other workflow's task reported
    /// under that name, in whichever table of this store has one. The index
    /// is relative to the table the row was found in.
    pub fn data_by_id(&self, workflow: &Id, id: &Id) -> Option<(DataIdx, &DataRow)> {
        let hosts = self.workflow(workflow).into_iter();
        hosts.chain(self.workflows.values()).find_map(|host| {
            let (_, idx) = host.find(workflow, id)?;
            Some((idx, &host.data[idx as usize]))
        })
    }

    /// Typed column for an attribute within a workflow. Clone-free.
    pub fn column(&self, workflow: &Id, attr: &str) -> Option<&Column> {
        let table = self.workflow(workflow)?;
        table.column_id(attr).map(|c| table.column_at(c))
    }

    /// Number of rows in a column.
    pub fn column_len(&self, workflow: &Id, attr: &str) -> usize {
        let table = self.workflow(workflow);
        table.map_or(0, |table| table.column_rows(attr).count())
    }

    /// Number of distinct attribute layouts — `(names, value tags)` within
    /// one workflow — this store's rows have had.
    pub fn layout_count(&self) -> usize {
        let tables = self.workflows.values();
        tables
            .map(|t| t.layouts.len() + t.foreign_layouts.len())
            .sum()
    }

    /// Exports everything as a validated PROV-DM document (§IV-A
    /// interoperability path).
    ///
    /// The document is reconstructed from the tables; the store keeps no
    /// raw-record log to replay.
    pub fn to_prov_document(&self) -> ProvDocument {
        let mut doc = ProvDocument::new();
        for id in self.workflow_ids() {
            self.workflows[id].apply_to_document(&mut doc);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prov_model::{AttrValue, TaskRecord};

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
        assert_eq!(wf.tasks().len(), 3);
    }

    #[test]
    fn task_begin_end_merge() {
        let s = sample_store();
        let t = s.task_by_id(&Id::Num(1), &Id::Num(0)).unwrap();
        assert_eq!(t.status, TaskStatus::Finished);
        assert_eq!(t.start_ns(), Some(0));
        assert_eq!(t.end_ns(), Some(500));
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
    fn a_row_of_another_workflow_finds_its_sources_among_its_like() {
        // Workflow 1 reports a product of its own and one of workflow 2's,
        // each derived from an `s` that has not come.
        let mut s = Store::new();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![
                DataRecord::new("mine", 1u64).derived_from("s"),
                DataRecord::new("theirs", 2u64).derived_from("s"),
            ],
        });
        assert_eq!(s.stats().lineage_edges, 0);
        // Workflow 2's `s`, reported by a task of workflow 1, is the source
        // of workflow 2's product there and of nothing else.
        s.ingest(Record::TaskBegin {
            task: task(1, 1, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("s", 2u64)],
        });
        assert_eq!(s.stats().lineage_edges, 1);
        let table = s.workflow(&Id::Num(1)).unwrap();
        let [mine, theirs, source] = table.data() else {
            panic!("three rows, got {:?}", table.data());
        };
        assert_eq!(table.owner(0), &Id::Num(1));
        assert_eq!(table.owner(1), &Id::Num(2));
        assert_eq!(table.foreign_owners(), [(1, Id::Num(2)), (2, Id::Num(2))]);
        assert_eq!(theirs.derived_from_idx, [2]);
        assert_eq!(source.derived_into, [1]);
        assert!(
            mine.derived_from_idx.is_empty(),
            "still waiting for its own"
        );
        // Workflow 1's own `s` is what `mine` waited for.
        s.ingest(Record::TaskBegin {
            task: task(1, 2, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("s", 1u64)],
        });
        assert_eq!(s.stats().lineage_edges, 2);
        let table = s.workflow(&Id::Num(1)).unwrap();
        assert_eq!(table.data()[0].derived_from_idx, [3]);
        assert_eq!(table.data()[2].derived_into, [1]);
        // Workflow 2 reporting an `s` itself starts a table of its own.
        s.ingest(Record::TaskBegin {
            task: task(2, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("s", 2u64).with_attr("x", 1.0)],
        });
        assert_eq!(s.stats().data, 5);
        let (at, own) = s.data_by_id(&Id::Num(2), &Id::from("s")).unwrap();
        assert_eq!((at, own.attributes.len()), (0, 1));
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

    /// The rows a column scan meets, in order.
    fn rows(s: &Store, attr: &str) -> Vec<DataIdx> {
        s.workflow(&Id::Num(1)).unwrap().column_rows(attr).collect()
    }

    /// The numbers a column scan reads, in column order.
    fn scan(s: &Store, attr: &str) -> Vec<f64> {
        let path = crate::query::Path::over_attr(attr);
        let mut cursor = crate::query::Cursor::open(s, &Id::Num(1), &path, Default::default())
            .expect("numeric column");
        let page = cursor.next_page(s);
        assert!(page.done);
        page.hits.into_iter().filter_map(|hit| hit.value).collect()
    }

    #[test]
    fn numeric_columns_built() {
        let s = sample_store();
        let column = s.column(&Id::Num(1), "accuracy").unwrap();
        assert_eq!(column.kind(), AttrType::Numeric);
        // The column names the rows; the values are the rows' own.
        assert_eq!(rows(&s, "accuracy"), [1, 3, 5]);
        let max = scan(&s, "accuracy").into_iter().fold(f64::MIN, f64::max);
        assert!((max - 0.9).abs() < 1e-12);
        assert_eq!(s.column_len(&Id::Num(1), "learning_rate"), 3);
        assert_eq!(s.column_len(&Id::Num(1), "missing"), 0);
    }

    #[test]
    fn text_columns_name_the_row_that_owns_the_value() {
        let mut s = Store::new();
        let kind: Arc<str> = Arc::from("sensor");
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("d", 1u64).with_attr("kind", AttrValue::Str(kind.clone()))],
        });
        let column = s.column(&Id::Num(1), "kind").unwrap();
        assert_eq!(column.kind(), AttrType::Text);
        assert_eq!(rows(&s, "kind"), [0]);
        // The row holds the store's only reference to the text; the column
        // holds none, and no query source reads it yet.
        assert_eq!(Arc::strong_count(&kind), 2);
        let (_, row) = s.data_by_id(&Id::Num(1), &Id::from("d")).unwrap();
        assert_eq!(row.attributes.get("kind"), Some(AttrValue::Str(kind)));
        assert_eq!(
            crate::query::Cursor::open(
                &s,
                &Id::Num(1),
                &crate::query::Path::over_attr("kind"),
                Default::default()
            )
            .err(),
            Some(crate::query::QueryError::NotNumeric("kind".to_owned()))
        );
    }

    #[test]
    fn every_value_tag_is_ingested_and_numbers_read_one_way() {
        // A `Bool` used to abort ingest: typed numeric, read as no number.
        let mut s = Store::new();
        let values = [
            AttrValue::Bool(true),
            AttrValue::Null,
            AttrValue::List(vec![AttrValue::Int(1), AttrValue::Null]),
            AttrValue::Bytes(vec![0xde, 0xad]),
            AttrValue::Int(-3),
            AttrValue::Bool(false),
            AttrValue::Float(0.5),
        ];
        let inputs: Vec<DataRecord> = values
            .iter()
            .enumerate()
            .map(|(i, v)| DataRecord::new(i as u64, 1u64).with_attr("flag", v.clone()))
            .collect();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs,
        });
        assert_eq!(s.stats().attr_cells, 7);
        for (i, value) in values.iter().enumerate() {
            let (_, row) = s.data_by_id(&Id::Num(1), &Id::Num(i as u64)).unwrap();
            assert_eq!(row.attributes.get("flag").as_ref(), Some(value));
        }
        // The column takes the numeric tags; a scan and a filter read them
        // alike.
        assert_eq!(rows(&s, "flag"), [0, 4, 5, 6]);
        assert_eq!(scan(&s, "flag"), [1.0, -3.0, 0.0, 0.5]);
        let filter = crate::query::Filter::Attr {
            name: "flag".into(),
            cmp: crate::query::Cmp::Ge,
            threshold: f64::MIN,
        };
        let table = s.workflow(&Id::Num(1)).unwrap();
        let rows = table.data().iter();
        let read: Vec<f64> = rows
            .filter_map(|row| filter.eval(table, row).flatten())
            .collect();
        assert_eq!(read, scan(&s, "flag"));
    }

    #[test]
    fn a_name_twice_in_one_record_is_kept_twice_and_read_once() {
        let mut s = Store::new();
        let twice = DataRecord::new("d", 1u64)
            .with_attr("x", 1.5)
            .with_attr("y", 7i64)
            .with_attr("x", 2.5);
        let sent = twice.attributes.clone();
        s.ingest(Record::TaskBegin {
            task: task(1, 0, "t", None, TaskStatus::Running),
            inputs: vec![twice],
        });
        let (_, row) = s.data_by_id(&Id::Num(1), &Id::from("d")).unwrap();
        // The row is what was sent, and every cell counts.
        assert_eq!(row.attributes, sent);
        assert_eq!(s.stats().attr_cells, 3);
        // The column lists the row once and reads the first value, as
        // `get` and a filter do.
        assert_eq!(rows(&s, "x"), [0]);
        assert_eq!(scan(&s, "x"), [1.5]);
        assert_eq!(row.attributes.get("x"), Some(AttrValue::Float(1.5)));
        // A first value of another kind keeps the row out of the column,
        // whatever follows it under the same name.
        s.ingest(Record::TaskBegin {
            task: task(1, 1, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("e", 1u64)
                .with_attr("x", "text")
                .with_attr("x", 3.5)],
        });
        assert_eq!(s.stats().attr_cells, 5);
        assert_eq!(scan(&s, "x"), [1.5]);
    }

    #[test]
    fn layouts_are_interned_by_content_however_shapes_alternate() {
        // Nine shapes in turn, more than the fast path remembers, from
        // names that are allocations of each record's own.
        let shape = |k: u64, i: u64| {
            let mut d = DataRecord::new(i, 1u64);
            for a in 0..=k % 3 {
                d = match k / 3 {
                    0 => d.with_attr(format!("a{a}"), i as f64),
                    1 => d.with_attr(format!("a{a}"), i as i64),
                    _ => d.with_attr(format!("b{a}"), i as f64),
                };
            }
            d
        };
        let mut s = Store::new();
        for i in 0..1000u64 {
            s.ingest(Record::TaskBegin {
                task: task(1, i, "t", None, TaskStatus::Running),
                inputs: vec![shape(i % 9, i)],
            });
        }
        assert_eq!(s.layout_count(), 9);
        let rows = s.workflow(&Id::Num(1)).unwrap().data();
        for (i, row) in rows.iter().enumerate() {
            let first = &rows[i % 9];
            assert!(Arc::ptr_eq(
                row.attributes.layout(),
                first.attributes.layout()
            ));
            assert_eq!(row.attributes, shape(i as u64 % 9, i as u64).attributes);
        }
        // The same shape in another workflow is that table's layout: its
        // slots feed that workflow's columns. It costs the layout and
        // nothing per row.
        s.ingest(Record::TaskBegin {
            task: task(2, 0, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new(0u64, 2u64).with_attr("a0", 0.0)],
        });
        assert_eq!(s.layout_count(), 10);
        assert_eq!(s.column_len(&Id::Num(2), "a0"), 1);
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
        let expected = DataRecord::new("d", 1u64)
            .with_attr("x", 1i64)
            .with_attr("y", 2.5);
        assert_eq!(row.attributes, expected.attributes, "first value wins");
        assert_eq!(row.derivations, vec![Id::from("src")]);
        // The merged attribute got its column cell; the known one no
        // duplicate.
        assert_eq!(s.column_len(&Id::Num(1), "x"), 1);
        assert_eq!(s.column_len(&Id::Num(1), "y"), 1);
        assert_eq!(s.stats().attr_cells, 2);
        // The row moved to the layout a fresh `[x, y]` row has.
        s.ingest(Record::TaskBegin {
            task: task(1, 2, "t", None, TaskStatus::Running),
            inputs: vec![DataRecord::new("e", 1u64)
                .with_attr("x", 5i64)
                .with_attr("y", 0.5)],
        });
        let (_, merged) = s.data_by_id(&Id::Num(1), &Id::from("d")).unwrap();
        let (_, fresh) = s.data_by_id(&Id::Num(1), &Id::from("e")).unwrap();
        assert!(Arc::ptr_eq(
            merged.attributes.layout(),
            fresh.attributes.layout()
        ));
        assert_eq!(scan(&s, "y"), [2.5, 0.5]);
    }

    #[test]
    fn a_row_merged_between_pages_is_met_once_in_row_order() {
        use crate::query::{Cursor, CursorOpts, Path, SnapshotMode};
        let mut s = Store::new();
        let report = |s: &mut Store, t: u64, data: DataRecord| {
            s.ingest(Record::TaskBegin {
                task: task(1, t, "t", None, TaskStatus::Running),
                inputs: vec![data],
            })
        };
        for i in 0..4u64 {
            report(&mut s, i, DataRecord::new(i, 1u64).with_attr("x", i as f64));
        }
        let opts = CursorOpts {
            page_size: 2,
            max_work: 100,
            snapshot: SnapshotMode::AtOpen,
        };
        let mut cursor = Cursor::open(&s, &Id::Num(1), &Path::over_attr("x"), opts).unwrap();
        let values = |page: crate::query::Page| -> Vec<f64> {
            page.hits.into_iter().filter_map(|hit| hit.value).collect()
        };
        assert_eq!(values(cursor.next_page(&s)), [0.0, 1.0]);
        // Rows 0 and 3 are reported again with a name they lack: both move
        // to the `[x, y]` layout, which lists them again, and a fifth row
        // comes past the horizon.
        for i in [3, 0] {
            let data = DataRecord::new(i, 1u64)
                .with_attr("x", 9.0)
                .with_attr("y", 1.0);
            report(&mut s, 10 + i, data);
        }
        report(&mut s, 20, DataRecord::new(4u64, 1u64).with_attr("x", 4.0));
        assert_eq!(values(cursor.next_page(&s)), [2.0, 3.0]);
        let last = cursor.next_page(&s);
        assert!(last.done && last.hits.is_empty(), "{last:?}");
        assert_eq!(rows(&s, "x"), [0, 1, 2, 3, 4]);
        assert_eq!(rows(&s, "y"), [0, 3]);
        assert_eq!(scan(&s, "x"), [0.0, 1.0, 2.0, 3.0, 4.0]);
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
        assert_eq!(t.start_ns(), Some(5000));
        assert_eq!(t.end_ns(), Some(900));
    }

    #[test]
    fn every_u64_is_a_time_and_an_unseen_end_is_none() {
        let mut s = Store::new();
        let mut begin = task(1, 0, "t", None, TaskStatus::Running);
        begin.time_ns = 0;
        s.ingest(Record::TaskBegin {
            task: begin,
            inputs: vec![],
        });
        let t = s.task_by_id(&Id::Num(1), &Id::Num(0)).unwrap();
        assert_eq!((t.start_ns(), t.end_ns()), (Some(0), None));
        assert_eq!(t.elapsed_s(), None);
        let mut end = task(1, 0, "t", None, TaskStatus::Finished);
        end.time_ns = u64::MAX;
        s.ingest(Record::TaskEnd {
            task: end,
            outputs: vec![],
        });
        let t = s.task_by_id(&Id::Num(1), &Id::Num(0)).unwrap();
        assert_eq!((t.start_ns(), t.end_ns()), (Some(0), Some(u64::MAX)));
        assert_eq!(t.status, TaskStatus::Finished);
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

    /// A task id of a stream: every other one a string, so a dependency
    /// that names it has an allocation to share.
    fn stream_id(n: u64) -> Id {
        match n % 2 {
            0 => Id::Num(n),
            _ => Id::from(format!("t{n}")),
        }
    }

    /// A data item a task of a stream reports: one of five ids, of workflow
    /// 1 or, now and then, of workflow 2, with some of two names and
    /// sources among its like.
    fn arb_stream_data() -> impl Strategy<Value = DataRecord> {
        let attrs = proptest::collection::vec((0u8..2, 0i64..4), 0..3);
        let sources = proptest::collection::vec(0u64..5, 0..3);
        (0u64..5, 0u8..6, attrs, sources).prop_map(|(id, owner, attrs, sources)| {
            let mut data = DataRecord::new(id, if owner == 0 { 2u64 } else { 1 });
            for (name, value) in attrs {
                data = data.with_attr(["x", "y"][name as usize], value);
            }
            sources.into_iter().fold(data, DataRecord::derived_from)
        })
    }

    /// The records of one task: a begin, an end or both, with dependencies
    /// on tasks that may never come and times that may be any `u64`.
    fn arb_stream_task(t: u64) -> impl Strategy<Value = Vec<Record>> {
        let deps = || proptest::collection::vec(0u64..6, 0..3);
        let data = || proptest::collection::vec(arb_stream_data(), 0..3);
        let times = (any::<u64>(), any::<u64>());
        let parts = (0u8..3, 1u8..4, times, deps(), deps(), data(), data());
        parts.prop_map(
            move |(transformation, ends, times, deps_at_begin, deps_at_end, inputs, outputs)| {
                let task = |time_ns, deps: Vec<u64>, status| TaskRecord {
                    id: stream_id(t),
                    workflow: Id::Num(1),
                    transformation: Id::from(["a", "b", "c"][transformation as usize]),
                    dependencies: deps.into_iter().map(stream_id).collect(),
                    time_ns,
                    status,
                };
                let mut records = Vec::new();
                if ends & 1 != 0 {
                    records.push(Record::TaskBegin {
                        task: task(times.0, deps_at_begin, TaskStatus::Running),
                        inputs,
                    });
                }
                if ends & 2 != 0 {
                    records.push(Record::TaskEnd {
                        task: task(times.1, deps_at_end, TaskStatus::Finished),
                        outputs,
                    });
                }
                records
            },
        )
    }

    /// Tasks 0 to 3, where 0 and 2 may be absent.
    fn arb_stream() -> impl Strategy<Value = Vec<Vec<Record>>> {
        let maybe = |t| proptest::collection::vec(arb_stream_task(t), 0..2);
        let tasks = (maybe(0), arb_stream_task(1), maybe(2), arb_stream_task(3));
        tasks.prop_map(|(t0, t1, t2, t3)| vec![t0.concat(), t1, t2.concat(), t3])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A stream whose envelopes come again, whole, at later positions
        /// ingests to the task rows and counts of the stream delivered once:
        /// only `records` sees the copies.
        #[test]
        fn prop_a_redelivered_envelope_leaves_task_rows_as_they_were(
            tasks in arb_stream(),
            keys in proptest::collection::vec(any::<u64>(), 8),
            sizes in proptest::collection::vec(1usize..4, 8),
            again in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        ) {
            // The tasks' records in an order the keys pick, so an end may
            // come before its begin, cut into envelopes.
            let mut records: Vec<(u64, Record)> = keys.into_iter().zip(tasks.concat()).collect();
            records.sort_by_key(|&(key, _)| key);
            let mut records = records.into_iter().map(|(_, record)| record);
            let envelopes: Vec<Vec<Record>> = sizes
                .into_iter()
                .map(|n| records.by_ref().take(n).collect())
                .filter(|envelope: &Vec<Record>| !envelope.is_empty())
                .collect();
            prop_assert!(records.next().is_none());
            // Each copy goes anywhere after its envelope's first delivery.
            let mut order: Vec<usize> = (0..envelopes.len()).collect();
            for (pick, at) in again {
                let Some(envelope) = pick.checked_rem(envelopes.len()) else { break };
                let first = order.iter().position(|&e| e == envelope).unwrap();
                let later = first + 1 + at % (order.len() - first);
                order.insert(later, envelope);
            }
            let (mut once, mut twice) = (Store::new(), Store::new());
            for envelope in &envelopes {
                once.ingest_batch(envelope.iter().cloned());
            }
            for &envelope in &order {
                twice.ingest_batch(envelopes[envelope].iter().cloned());
            }

            let count = |s: &Store| StoreStats { records: 0, ..s.stats() };
            prop_assert_eq!(count(&twice), count(&once));
            prop_assert_eq!(twice.workflow_ids(), once.workflow_ids());
            for wf in once.workflow_ids() {
                let (expected, got) = (once.workflow(wf).unwrap(), twice.workflow(wf).unwrap());
                prop_assert_eq!(got.tasks().len(), expected.tasks().len());
                for (row, like) in got.tasks().iter().zip(expected.tasks()) {
                    // The whole row, times and seen-byte included; its
                    // transformation number names an id only in its own
                    // table, so the ids are compared as well.
                    prop_assert_eq!(row, like);
                    prop_assert_eq!(got.transformation(row), expected.transformation(like));
                }
            }
        }
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
