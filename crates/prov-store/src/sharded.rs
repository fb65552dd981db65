//! Workflow-sharded store: the lock-scalable server-side ingest path.
//!
//! The paper's Fig. 5 deployment runs up to 64 provenance translators in
//! parallel, but with a single `Arc<RwLock<Store>>` every translator
//! serializes on one global write lock, so parallelism buys nothing.
//! [`ShardedStore`] splits the store into `N` independent shards, each its
//! own [`Store`] behind its own `RwLock`, routed by a hash of the
//! **record's** workflow id. All records of one workflow land in one
//! shard, in that workflow's table, so every per-workflow invariant
//! (task/data indices, lineage edges, columns) is table-local and needs no
//! cross-shard coordination. The one input class that spans workflows — a
//! data item attached to a task of a *different* workflow — is materialized
//! in the table of the task that reported it: a replica per *reporting
//! workflow*, however many shards there are and whichever of them the two
//! workflows hash to. If the owning workflow also reports the item, its own
//! table holds its own row: that copy is authoritative (and found first by
//! [`ShardedStore::read_for_data`]), the reporting workflow's replica
//! carries that workflow's local `used`/`generated` edges and feeds no
//! column, and aggregate [`ShardedStore::stats`] counts both. Rows, edges
//! and stats are therefore the same at every shard count. This is the
//! deliberate tradeoff — cross-workflow dedup would require a lock across
//! tables on the ingest hot path, which is exactly what sharding removes.
//!
//! Batch ingestion goes through [`ShardRouter::route`]: one grouped pass
//! buckets an envelope's records by shard, then takes each touched shard's
//! write lock **once per envelope** — not once per record — so translators
//! working on different workflows proceed fully in parallel.

use crate::query::{Cursor, CursorOpts, Page, Path, QueryError};
use crate::store::{Store, StoreStats};
use parking_lot::RwLock;
use prov_model::{Id, ProvDocument, Record};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default shard count: enough to keep 64 translators mostly conflict-free
/// without bloating small deployments.
pub const DEFAULT_SHARDS: usize = 16;

/// A store split into independently locked shards, routed by workflow id.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Box<[RwLock<Store>]>,
}

/// A thread-safe handle to a sharded store (what servers and translators
/// share).
pub type SharedShardedStore = Arc<ShardedStore>;

/// Creates a shared sharded store with the default shard count.
pub fn shared_sharded() -> SharedShardedStore {
    Arc::new(ShardedStore::new(DEFAULT_SHARDS))
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new(DEFAULT_SHARDS)
    }
}

impl ShardedStore {
    /// Creates a store with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedStore {
            shards: (0..n)
                .map(|_| RwLock::with_rank(parking_lot::rank::SHARD, Store::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a workflow id routes to. The hash is fixed-key
    /// SipHash, so routing is deterministic across store instances and
    /// process runs (benches and tests rely on reproducible placement).
    pub fn shard_of(&self, workflow: &Id) -> usize {
        let mut h = DefaultHasher::new();
        workflow.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    /// Direct access to a shard's lock (bench/testing and the router).
    pub fn shard(&self, index: usize) -> &RwLock<Store> {
        &self.shards[index]
    }

    /// Read access to the shard holding `workflow`. All per-workflow
    /// queries (`Query::new(&store.read(&wf))`) go through here.
    pub fn read(&self, workflow: &Id) -> parking_lot::RwLockReadGuard<'_, Store> {
        self.shards[self.shard_of(workflow)].read()
    }

    /// Read access to the shard containing data row `(workflow, id)`.
    ///
    /// Records route by the *record's* workflow, so a `DataRecord` whose
    /// own `workflow` field differs from its task's (a cross-workflow
    /// attachment, expressible through the capture API) is stored in the
    /// task's table — not in `shard_of(data.workflow)`. This lookup probes
    /// the home shard first and falls back to scanning the rest, so such
    /// rows stay findable; same-workflow data (the overwhelmingly common
    /// case) resolves on the first probe.
    pub fn read_for_data(
        &self,
        workflow: &Id,
        id: &Id,
    ) -> Option<parking_lot::RwLockReadGuard<'_, Store>> {
        let home = self.shard_of(workflow);
        let probe_order =
            std::iter::once(home).chain((0..self.shards.len()).filter(|&s| s != home));
        for shard in probe_order {
            let guard = self.shards[shard].read();
            if guard.data_by_id(workflow, id).is_some() {
                return Some(guard);
            }
        }
        None
    }

    /// Ingests a single record (convenience; batch paths should use a
    /// [`ShardRouter`] to amortize lock acquisitions).
    pub fn ingest(&self, record: Record) {
        self.shards[self.shard_of(record.workflow())]
            .write()
            .ingest(record);
    }

    /// Ingests a batch through a throwaway router (convenience for tests
    /// and examples; servers keep a per-translator router).
    pub fn ingest_batch(&self, records: impl IntoIterator<Item = Record>) {
        let mut batch: Vec<Record> = records.into_iter().collect();
        ShardRouter::new().route(self, &mut batch);
    }

    /// Opens a query cursor against the shard holding `workflow`.
    ///
    /// The shard read lock is taken only for the duration of this call
    /// (resolving the path source and, under
    /// [`SnapshotMode::AtOpen`](crate::query::SnapshotMode), pinning the
    /// snapshot horizon). Advance the cursor with
    /// [`ShardedStore::next_page`], which re-acquires the lock per page —
    /// translators ingesting into the same shard interleave between
    /// pages. See the [`cursor`](crate::query::cursor) module docs for
    /// the read-consistency contract.
    pub fn open_cursor(
        &self,
        workflow: &Id,
        path: &Path,
        opts: CursorOpts,
    ) -> Result<Cursor, QueryError> {
        let guard = self.read(workflow);
        let mut cursor = Cursor::open(&guard, workflow, path, opts)?;
        cursor.note_shard_visit();
        Ok(cursor)
    }

    /// Produces the cursor's next page, holding the shard read lock only
    /// while the page is built (at most
    /// [`CursorOpts::max_work`](crate::query::CursorOpts) work units).
    pub fn next_page(&self, cursor: &mut Cursor) -> Page {
        let guard = self.read(cursor.workflow());
        cursor.note_shard_visit();
        cursor.next_page(&guard)
    }

    /// Aggregate ingestion statistics across all shards.
    pub fn stats(&self) -> StoreStats {
        self.shards
            .iter()
            .map(|s| s.read().stats())
            .fold(StoreStats::default(), |acc, s| acc.merge(&s))
    }

    /// All known workflow ids across shards, sorted.
    pub fn workflow_ids(&self) -> Vec<Id> {
        let mut ids: Vec<Id> = self
            .shards
            .iter()
            .flat_map(|s| {
                let guard = s.read();
                guard
                    .workflow_ids()
                    .into_iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// Exports every shard's contents as one validated PROV-DM document.
    pub fn to_prov_document(&self) -> ProvDocument {
        let mut doc = ProvDocument::new();
        for shard in self.shards.iter() {
            shard.read().apply_to_document(&mut doc);
        }
        doc
    }
}

/// Reusable per-translator scratch that routes a decoded envelope to
/// shards in one grouped pass.
///
/// Buckets retain their capacity between envelopes, so steady-state routing
/// allocates nothing; each envelope costs one lock acquisition per *touched
/// shard*, not per record.
#[derive(Debug, Default)]
pub struct ShardRouter {
    buckets: Vec<Vec<Record>>,
}

impl ShardRouter {
    /// Empty router; buckets are sized lazily to the target store.
    pub fn new() -> Self {
        ShardRouter::default()
    }

    /// Drains `records` into `store`, grouping by shard first. Returns the
    /// number of shard locks taken.
    pub fn route(&mut self, store: &ShardedStore, records: &mut Vec<Record>) -> usize {
        if self.buckets.len() < store.shard_count() {
            self.buckets.resize_with(store.shard_count(), Vec::new);
        }
        for record in records.drain(..) {
            let shard = store.shard_of(record.workflow());
            self.buckets[shard].push(record);
        }
        let mut locks_taken = 0;
        for (shard, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            locks_taken += 1;
            store.shard(shard).write().ingest_batch(bucket.drain(..));
        }
        locks_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use prov_model::{AttrValue, DataRecord, TaskRecord, TaskStatus};
    use std::collections::BTreeMap;

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

    /// Workflow 2 reports item `d`, a task of workflow 1 uses workflow 2's
    /// `d` (reported bare), and workflow 1 has a `d` of its own.
    fn cross_workflow_records() -> [Record; 3] {
        let used_by = |wf: u64, task: u64, d: DataRecord| Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(task),
                workflow: Id::Num(wf),
                transformation: Id::from("t"),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![d],
        };
        [
            used_by(2, 10, DataRecord::new("d", 2u64).with_attr("x", 1i64)),
            used_by(1, 10, DataRecord::new("d", 2u64)),
            used_by(1, 11, DataRecord::new("d", 1u64).with_attr("x", 2i64)),
        ]
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::new(1).shard_count(), 1);
        assert_eq!(ShardedStore::new(3).shard_count(), 4);
        assert_eq!(ShardedStore::new(16).shard_count(), 16);
        assert_eq!(ShardedStore::new(0).shard_count(), 1);
    }

    #[test]
    fn routing_is_stable_and_workflow_local() {
        let store = ShardedStore::new(8);
        for wf in 0..50u64 {
            let id = Id::Num(wf);
            assert_eq!(store.shard_of(&id), store.shard_of(&id));
            assert!(store.shard_of(&id) < store.shard_count());
        }
    }

    #[test]
    fn grouped_ingest_matches_single_store() {
        let sharded = ShardedStore::new(8);
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

    /// What a row reads as: attributes, derivations, how many tasks use it.
    type RowView = (Vec<(Arc<str>, AttrValue)>, Vec<Id>, usize);

    /// Every data row of `store`, by the workflow whose table holds it, the
    /// workflow that owns it and its id.
    fn rows(store: &ShardedStore) -> BTreeMap<(Id, Id, Id), RowView> {
        let mut rows = BTreeMap::new();
        for shard in 0..store.shard_count() {
            let guard = store.shard(shard).read();
            for host in guard.workflow_ids() {
                let table = guard.workflow(host).unwrap();
                for (d, row) in (0..).zip(table.data()) {
                    let key = (host.clone(), table.owner(d).clone(), row.id.clone());
                    let view = (
                        row.attributes.to_vec(),
                        row.derivations.to_vec(),
                        row.used_by.len(),
                    );
                    assert!(rows.insert(key, view).is_none(), "a row held twice");
                }
            }
        }
        rows
    }

    #[test]
    fn what_is_stored_does_not_depend_on_the_shard_count() {
        // Workflows 1 and 2 share a shard at one count and not at another;
        // a shard used to merge what two shards kept apart (`data` 2 for 3).
        let stores: Vec<ShardedStore> = [1, 2, 16]
            .into_iter()
            .map(|shards| {
                let store = ShardedStore::new(shards);
                store.ingest_batch(cross_workflow_records());
                for wf in 0..12u64 {
                    store.ingest_batch(wf_records(wf));
                }
                store
            })
            .collect();
        let reference = &stores[0];
        assert_eq!(reference.stats().data, 3 + 2 * 12);
        let document = reference.to_prov_document();
        for store in &stores[1..] {
            assert_eq!(store.stats(), reference.stats());
            assert_eq!(rows(store), rows(reference));
            let doc = store.to_prov_document();
            assert_eq!(doc.element_count(), document.element_count());
            assert_eq!(doc.relations().len(), document.relations().len());
        }
    }

    #[test]
    fn router_takes_at_most_one_lock_per_shard() {
        let store = ShardedStore::new(4);
        let mut router = ShardRouter::new();
        let mut batch = Vec::new();
        for wf in 0..32u64 {
            batch.extend(wf_records(wf));
        }
        let locks = router.route(&store, &mut batch);
        assert!(batch.is_empty());
        assert!(
            locks <= store.shard_count(),
            "{locks} locks for {} shards",
            store.shard_count()
        );
        assert_eq!(store.stats().records, 32 * 4);
    }

    #[test]
    fn cross_workflow_data_stays_findable() {
        // A data item claiming workflow 2 attached to a workflow-1 task is
        // stored in workflow 1's table; read_for_data still resolves it.
        let store = ShardedStore::new(8);
        let t = TaskRecord {
            id: Id::Num(0),
            workflow: Id::Num(1),
            transformation: Id::from("t"),
            dependencies: vec![],
            time_ns: 0,
            status: TaskStatus::Running,
        };
        store.ingest(Record::TaskBegin {
            task: t,
            inputs: vec![DataRecord::new("foreign", 2u64).with_attr("x", 1i64)],
        });
        let guard = store
            .read_for_data(&Id::Num(2), &Id::from("foreign"))
            .expect("cross-workflow data row must be locatable");
        let (at, row) = guard.data_by_id(&Id::Num(2), &Id::from("foreign")).unwrap();
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
        // Same-workflow lookups resolve on the home shard.
        store.ingest_batch(wf_records(7));
        let guard = store.read_for_data(&Id::Num(7), &Id::from("out")).unwrap();
        assert!(guard.data_by_id(&Id::Num(7), &Id::from("out")).is_some());
        // Release before probing again: `read_for_data` scans every shard,
        // and re-entering a held shard's lock trips the order tracker (a
        // reader re-acquiring under a waiting writer can deadlock).
        drop(guard);
        assert!(store
            .read_for_data(&Id::Num(7), &Id::from("nope"))
            .is_none());
    }

    #[test]
    fn cross_workflow_reference_materializes_a_replica() {
        // Documented tradeoff: when the owning workflow reports the item
        // AND a foreign task references it, each workflow's table holds its
        // own row — the owner's copy is authoritative and found first;
        // aggregate stats count both rows. One shard or several.
        for shards in [1, 8] {
            let store = ShardedStore::new(shards);
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
            // read_for_data prefers the owner's authoritative copy.
            let guard = store.read_for_data(&owner, &Id::from("d")).unwrap();
            let (_, row) = guard.data_by_id(&owner, &Id::from("d")).unwrap();
            assert_eq!(row.attributes.len(), 1, "authoritative copy has the attrs");
            drop(guard);
            // The replica is a row of the reporting workflow's table.
            let guard = store.read(&Id::Num(1));
            let host = guard.workflow(&Id::Num(1)).unwrap();
            let replica = &host.data()[0];
            assert_eq!((host.owner(0), &replica.id), (&owner, &Id::from("d")));
            assert!(replica.attributes.is_empty());
            assert_eq!(replica.used_by.len(), 1);
        }
    }

    #[test]
    fn prov_export_merges_shards() {
        let store = ShardedStore::new(4);
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
