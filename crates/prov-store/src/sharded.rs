//! The store every translator and reader shares: one [`Store`] behind one
//! lock.
//!
//! A [`Store`] maps a workflow id to that workflow's table, and a table
//! holds all there is of its workflow — a data item one of its tasks
//! reported under another workflow's name included, as a row of the
//! reporting table (see [`WorkflowTable::owner`](crate::store::WorkflowTable::owner)),
//! which [`Store::data_by_id`] finds from its owner too. [`ShardedStore`]
//! puts that map behind one `RwLock`:
//!
//! * a writer ingests a decoded envelope under one write-lock acquisition
//!   ([`ShardRouter::route`], [`ShardedStore::ingest_batch`]), so a reader
//!   sees an envelope whole or not at all, and [`ShardedStore::stats`] is
//!   a consistent cut;
//! * a reader holds the read lock for the life of one
//!   [`ShardedStore::read`] guard or while one cursor page is built
//!   ([`ShardedStore::next_page`]), so writers interleave between pages.
//!
//! One lock, because every entry point runs one translator thread and the
//! work parallel translators would share — decoding — happens before the
//! lock is taken. The type, [`ShardRouter`] and the workflow argument of
//! [`ShardedStore::read`] keep the names of the workflow-hashed shards the
//! lock replaced, because the benchmark package names them.

use crate::query::{Cursor, CursorOpts, Page, Path, QueryError};
use crate::store::{Store, StoreStats};
use parking_lot::RwLock;
use prov_model::{Id, ProvDocument, Record};
use std::sync::Arc;

/// The provenance store behind one lock.
#[derive(Debug)]
pub struct ShardedStore {
    store: RwLock<Store>,
}

/// A thread-safe handle to the store (what servers and translators share).
pub type SharedShardedStore = Arc<ShardedStore>;

/// Creates an empty shared store.
pub fn shared_sharded() -> SharedShardedStore {
    Arc::new(ShardedStore::new())
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new()
    }
}

impl ShardedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ShardedStore {
            store: RwLock::with_rank(parking_lot::rank::STORE, Store::new()),
        }
    }

    /// Read access to the whole store. Every table is behind the one lock,
    /// so `_workflow` is not consulted: the guard reads any workflow, and
    /// [`Store::data_by_id`] on it finds a row wherever its reporter put it.
    pub fn read(&self, _workflow: &Id) -> parking_lot::RwLockReadGuard<'_, Store> {
        self.store.read()
    }

    /// Ingests a single record.
    pub fn ingest(&self, record: Record) {
        self.store.write().ingest(record);
    }

    /// Ingests a batch under one write-lock acquisition: readers see all
    /// of it or none.
    pub fn ingest_batch(&self, records: impl IntoIterator<Item = Record>) {
        self.store.write().ingest_batch(records);
    }

    /// Opens a query cursor over `workflow`.
    ///
    /// The read lock is taken only for the duration of this call
    /// (resolving the path source and, under
    /// [`SnapshotMode::AtOpen`](crate::query::SnapshotMode), pinning the
    /// snapshot horizon). Advance the cursor with
    /// [`ShardedStore::next_page`], which re-acquires the lock per page —
    /// ingest interleaves between pages. See the
    /// [`cursor`](crate::query::cursor) module docs for the
    /// read-consistency contract.
    pub fn open_cursor(
        &self,
        workflow: &Id,
        path: &Path,
        opts: CursorOpts,
    ) -> Result<Cursor, QueryError> {
        Cursor::open(&self.store.read(), workflow, path, opts)
    }

    /// Produces the cursor's next page, holding the read lock only while
    /// the page is built (at most
    /// [`CursorOpts::max_work`](crate::query::CursorOpts) work units).
    pub fn next_page(&self, cursor: &mut Cursor) -> Page {
        cursor.next_page(&self.store.read())
    }

    /// Ingestion statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.read().stats()
    }

    /// All known workflow ids, sorted.
    pub fn workflow_ids(&self) -> Vec<Id> {
        let store = self.store.read();
        store.workflow_ids().into_iter().cloned().collect()
    }

    /// Exports everything as one validated PROV-DM document.
    pub fn to_prov_document(&self) -> ProvDocument {
        self.store.read().to_prov_document()
    }
}

/// Hands a decoded envelope to the store: [`ShardedStore::ingest_batch`],
/// under the name the benchmark package calls.
#[derive(Debug, Default)]
pub struct ShardRouter;

impl ShardRouter {
    /// A router; it holds nothing.
    pub fn new() -> Self {
        ShardRouter
    }

    /// Drains `records` into `store` under one write-lock acquisition.
    pub fn route(&mut self, store: &ShardedStore, records: &mut Vec<Record>) {
        store.ingest_batch(records.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use prov_model::{DataRecord, TaskRecord, TaskStatus};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn wf_records(wf: u64) -> Vec<Record> {
        let t = TaskRecord {
            id: Id::Num(0),
            workflow: Id::Num(wf),
            transformation: Id::from("train"),
            dependencies: vec![],
            time_ns: 1,
            status: TaskStatus::Running,
        };
        let mut end = t.clone();
        end.status = TaskStatus::Finished;
        end.time_ns = 2;
        vec![
            Record::WorkflowBegin {
                workflow: Id::Num(wf),
                time_ns: 0,
            },
            Record::TaskBegin {
                task: t,
                inputs: vec![DataRecord::new("in", wf).with_attr("lr", 0.1)],
            },
            Record::TaskEnd {
                task: end,
                outputs: vec![DataRecord::new("out", wf).derived_from("in")],
            },
            Record::WorkflowEnd {
                workflow: Id::Num(wf),
                time_ns: 3,
            },
        ]
    }

    /// A task `task` of workflow `wf` that uses `d`.
    fn used_by(wf: u64, task: u64, d: DataRecord) -> Record {
        Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(task),
                workflow: Id::Num(wf),
                transformation: Id::from("t"),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![d],
        }
    }

    /// Workflow 2 reports item `d`, a task of workflow 1 uses workflow 2's
    /// `d` (reported bare), and workflow 1 has a `d` of its own.
    fn cross_workflow_records() -> [Record; 3] {
        [
            used_by(2, 10, DataRecord::new("d", 2u64).with_attr("x", 1i64)),
            used_by(1, 10, DataRecord::new("d", 2u64)),
            used_by(1, 11, DataRecord::new("d", 1u64).with_attr("x", 2i64)),
        ]
    }

    #[test]
    fn grouped_ingest_matches_single_store() {
        let sharded = ShardedStore::new();
        let mut single = Store::new();
        let mut batch = Vec::new();
        for wf in 0..20u64 {
            batch.extend(wf_records(wf));
        }
        batch.extend(cross_workflow_records());
        single.ingest_batch(batch.iter().cloned());
        sharded.ingest_batch(batch);

        assert_eq!(sharded.stats(), single.stats());
        assert_eq!(sharded.workflow_ids().len(), 20);
        for wf in 0..20u64 {
            let id = Id::Num(wf);
            let guard = sharded.read(&id);
            let table = guard.workflow(&id).unwrap();
            assert_eq!(table.begin_ns, Some(0));
            assert_eq!(table.end_ns, Some(3));
            let cross_tasks = match wf {
                1 => 2,
                2 => 1,
                _ => 0,
            };
            assert_eq!(table.tasks().len(), 1 + cross_tasks);
            assert_eq!(table.data(), single.workflow(&id).unwrap().data());
            let (_, out) = guard.data_by_id(&id, &Id::from("out")).unwrap();
            assert_eq!(out.derivations, vec![Id::from("in")]);
        }
    }

    #[test]
    fn a_row_reported_under_another_workflow_is_found_from_its_owner() {
        let owner = Id::Num(1);
        for reporter in 2..=40u64 {
            let store = ShardedStore::new();
            store.ingest(used_by(reporter, 0, DataRecord::new("d", 1u64)));
            let found = store
                .read(&owner)
                .data_by_id(&owner, &Id::from("d"))
                .is_some();
            assert!(found, "row reported by workflow {reporter} not found");
        }
    }

    #[test]
    fn an_envelope_lands_whole() {
        // Envelopes of K records over W workflows: a reader never counts
        // part of one.
        const W: u64 = 8;
        const K: u64 = 4 * W;
        const ENVELOPES: u64 = 1000;
        let store = ShardedStore::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| loop {
                let finished = done.load(Ordering::Relaxed);
                let records = store.stats().records;
                assert_eq!(records % K, 0, "{records} records: an envelope was split");
                if finished {
                    break;
                }
            });
            let mut router = ShardRouter::new();
            for first in (0..ENVELOPES * W).step_by(W as usize) {
                let mut envelope: Vec<Record> = (first..first + W).flat_map(wf_records).collect();
                router.route(&store, &mut envelope);
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(store.stats().records, ENVELOPES * K);
    }

    #[test]
    fn cross_workflow_data_stays_findable() {
        // A data item claiming workflow 2 attached to a workflow-1 task is
        // stored in workflow 1's table and found from workflow 2.
        let store = ShardedStore::new();
        store.ingest(used_by(
            1,
            0,
            DataRecord::new("foreign", 2u64).with_attr("x", 1i64),
        ));
        let guard = store.read(&Id::Num(2));
        let (at, row) = guard
            .data_by_id(&Id::Num(2), &Id::from("foreign"))
            .expect("cross-workflow data row must be locatable");
        assert_eq!(row.used_by.len(), 1, "replica carries the local edge");
        // It is a row of workflow 1's table, owned by workflow 2, and of
        // neither's columns.
        let host = guard.workflow(&Id::Num(1)).unwrap();
        assert_eq!(host.data(), std::slice::from_ref(row));
        assert_eq!(host.owner(at), &Id::Num(2));
        assert!(guard.column(&Id::Num(1), "x").is_none());
        assert!(guard.column(&Id::Num(2), "x").is_none());
        assert_eq!(guard.stats().attr_cells, 1);
        drop(guard);
        store.ingest_batch(wf_records(7));
        let guard = store.read(&Id::Num(7));
        assert!(guard.data_by_id(&Id::Num(7), &Id::from("out")).is_some());
        assert!(guard.data_by_id(&Id::Num(7), &Id::from("nope")).is_none());
    }

    #[test]
    fn cross_workflow_reference_materializes_a_replica() {
        // Documented tradeoff: when the owning workflow reports the item
        // AND a foreign task references it, each workflow's table holds its
        // own row — the owner's copy is authoritative and found first;
        // aggregate stats count both rows.
        let store = ShardedStore::new();
        let [owned, referenced, _] = cross_workflow_records();
        let owner = Id::Num(2);
        store.ingest(owned);
        let answers = |store: &ShardedStore| {
            let guard = store.read(&owner);
            let q = Query::new(&guard);
            (
                q.top_k_by_attr(&owner, "x", 5, true),
                q.tasks(&owner).map(|tasks| tasks.len()),
                guard.workflow(&owner).unwrap().data().to_vec(),
            )
        };
        let before = answers(&store);
        store.ingest(referenced);
        assert_eq!(answers(&store), before, "the owner's view is its own");
        assert_eq!(store.stats().data, 2, "one authoritative row + one replica");
        let guard = store.read(&owner);
        let (_, row) = guard.data_by_id(&owner, &Id::from("d")).unwrap();
        assert_eq!(row.attributes.len(), 1, "authoritative copy has the attrs");
        // The replica is a row of the reporting workflow's table.
        let host = guard.workflow(&Id::Num(1)).unwrap();
        let replica = &host.data()[0];
        assert_eq!((host.owner(0), &replica.id), (&owner, &Id::from("d")));
        assert!(replica.attributes.is_empty());
        assert_eq!(replica.used_by.len(), 1);
    }

    #[test]
    fn prov_export_merges_shards() {
        let store = ShardedStore::new();
        for wf in 0..6u64 {
            store.ingest_batch(wf_records(wf));
        }
        let doc = store.to_prov_document();
        doc.validate().unwrap();
        // Per workflow: 1 agent + 1 activity + 2 entities.
        assert_eq!(doc.element_count(), 6 * 4);
    }

    #[test]
    fn parallel_ingest_across_shards() {
        let store = shared_sharded();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut router = ShardRouter::new();
                    for wf in (t * 8)..(t * 8 + 8) {
                        let mut batch = wf_records(wf);
                        router.route(&store, &mut batch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats().records, 32 * 4);
        assert_eq!(store.workflow_ids().len(), 32);
    }
}
