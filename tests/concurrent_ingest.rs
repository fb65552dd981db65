//! Concurrent / out-of-order ingestion invariants for the shared store.
//!
//! The shared ingest path gives no ordering guarantee beyond "every record
//! is applied exactly once": parallel translators interleave envelopes
//! arbitrarily, and a workflow's begin/end records may arrive around its
//! task records in any order. These tests pin down the property that makes
//! that safe — the final store state is a function of the record *set*,
//! not the record *order* or the thread interleaving — via a property test
//! over stream permutations and a multi-threaded routing test.

use proptest::prelude::*;
use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::sharded::{ShardRouter, ShardedStore};
use provlight::prov_store::store::Store;
use std::sync::Arc;

const WORKFLOWS: u64 = 6;
const TASKS: u64 = 4;

/// An interleaved multi-workflow capture stream: per workflow a task chain
/// where task `t` consumes task `t-1`'s output plus one workflow-shared
/// hyperparameter data item (exercising `used_by` dedup and re-seen-data
/// attribute merging).
fn stream() -> Vec<Record> {
    let mut records = Vec::new();
    for wf in 0..WORKFLOWS {
        records.push(Record::WorkflowBegin {
            workflow: Id::Num(wf),
            time_ns: wf,
        });
        records.push(Record::WorkflowEnd {
            workflow: Id::Num(wf),
            time_ns: 1_000_000 + wf,
        });
        for t in 0..TASKS {
            let task = |status, time_ns| TaskRecord {
                id: Id::Num(t),
                workflow: Id::Num(wf),
                transformation: Id::from("train"),
                dependencies: t.checked_sub(1).map(Id::Num).into_iter().collect(),
                time_ns,
                status,
            };
            let shared = DataRecord::new("hyperparams", wf)
                .with_attr("learning_rate", 0.1)
                .with_attr("batch_size", 32i64);
            let mut inputs = vec![shared];
            if t > 0 {
                inputs.push(DataRecord::new(format!("out{}", t - 1), wf));
            }
            records.push(Record::TaskBegin {
                task: task(TaskStatus::Running, t * 1000),
                inputs,
            });
            records.push(Record::TaskEnd {
                task: task(TaskStatus::Finished, t * 1000 + 500),
                outputs: vec![DataRecord::new(format!("out{t}"), wf)
                    .with_attr("accuracy", 0.5 + t as f64 / 10.0)
                    .derived_from("hyperparams")],
            });
        }
    }
    records
}

/// `(workflow, begin, end, sorted task ids)`.
type CanonWorkflow = (String, Option<u64>, Option<u64>, Vec<String>);
/// `(workflow, task, deps, start, end, finished, inputs, outputs)`.
type CanonTask = (
    String,
    String,
    Vec<String>,
    Option<u64>,
    Option<u64>,
    bool,
    Vec<String>,
    Vec<String>,
);
/// `(host workflow, owning workflow, data, derivations, attributes,
/// generated_by, used_by)`.
type CanonData = (
    String,
    String,
    String,
    Vec<String>,
    Vec<(String, String)>,
    Option<String>,
    Vec<String>,
);

/// Order-independent snapshot of a store's logical content. Row indices,
/// edge insertion order, and column cell order are all representation
/// details that legitimately vary with ingest order, so everything is
/// resolved to ids and sorted.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Canon {
    workflows: Vec<CanonWorkflow>,
    tasks: Vec<CanonTask>,
    data: Vec<CanonData>,
}

fn canon_of(store: &Store) -> Canon {
    let mut workflows = Vec::new();
    let mut tasks = Vec::new();
    let mut data = Vec::new();
    for wf in store.workflow_ids() {
        let table = store.workflow(wf).unwrap();
        let mut task_ids: Vec<String> = table.tasks().iter().map(|t| t.id.to_string()).collect();
        task_ids.sort();
        workflows.push((wf.to_string(), table.begin_ns, table.end_ns, task_ids));
        for t in table.tasks() {
            let data_ids = |idxs: &[u32]| {
                let mut ids: Vec<String> = idxs
                    .iter()
                    .map(|&d| table.data()[d as usize].id.to_string())
                    .collect();
                ids.sort();
                ids
            };
            let mut deps: Vec<String> = t.dependencies.iter().map(Id::to_string).collect();
            deps.sort();
            tasks.push((
                wf.to_string(),
                t.id.to_string(),
                deps,
                t.start_ns,
                t.end_ns,
                t.status == TaskStatus::Finished,
                data_ids(&t.inputs),
                data_ids(&t.outputs),
            ));
        }
        for (at, d) in (0..).zip(table.data()) {
            let mut derivations: Vec<String> = d.derivations.iter().map(Id::to_string).collect();
            derivations.sort();
            let mut attributes: Vec<(String, String)> = d
                .attributes
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect();
            attributes.sort();
            let mut used_by: Vec<String> = d
                .used_by
                .iter()
                .map(|&t| table.tasks()[t as usize].id.to_string())
                .collect();
            used_by.sort();
            data.push((
                wf.to_string(),
                table.owner(at).to_string(),
                d.id.to_string(),
                derivations,
                attributes,
                d.generated_by
                    .map(|t| table.tasks()[t as usize].id.to_string()),
                used_by,
            ));
        }
    }
    workflows.sort();
    tasks.sort();
    data.sort();
    Canon {
        workflows,
        tasks,
        data,
    }
}

fn canon_of_sharded(store: &ShardedStore) -> Canon {
    canon_of(&store.read(&Id::Num(0)))
}

fn reference_canon() -> Canon {
    let mut store = Store::new();
    store.ingest_batch(stream());
    canon_of(&store)
}

fn permute(records: &mut [Record], seed: u64) {
    // Deterministic xorshift64* Fisher-Yates so failures reproduce.
    let mut state = seed | 1;
    let mut next = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for i in (1..records.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        records.swap(i, j);
    }
}

proptest! {
    /// Any permutation of the capture stream folds to the same tables —
    /// on a single store and on the shared one.
    #[test]
    fn ingest_is_order_independent(seed in any::<u64>()) {
        let reference = reference_canon();
        let mut records = stream();
        permute(&mut records, seed);

        let mut single = Store::new();
        single.ingest_batch(records.clone());
        prop_assert_eq!(&canon_of(&single), &reference);

        let sharded = ShardedStore::new();
        sharded.ingest_batch(records);
        prop_assert_eq!(&canon_of_sharded(&sharded), &reference);
    }
}

/// Four translator threads racing interleaved envelopes (each containing a
/// mix of workflows, so threads genuinely contend on the store) must converge
/// to the reference state regardless of scheduling.
#[test]
fn parallel_shard_ingest_is_interleaving_independent() {
    let reference = reference_canon();
    for round in 0..8u64 {
        let mut records = stream();
        permute(&mut records, round * 7919 + 1);
        let store = Arc::new(ShardedStore::new());

        // Round-robin the stream into per-thread envelope queues: records
        // of one workflow deliberately land on different threads.
        let threads = 4;
        let mut queues: Vec<Vec<Vec<Record>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, chunk) in records.chunks(5).enumerate() {
            queues[i % threads].push(chunk.to_vec());
        }

        let handles: Vec<_> = queues
            .into_iter()
            .map(|envelopes| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut router = ShardRouter::new();
                    for mut envelope in envelopes {
                        router.route(&store, &mut envelope);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(
            store.stats().records,
            stream().len() as u64,
            "round {round}: every record applied exactly once"
        );
        assert_eq!(
            canon_of_sharded(&store),
            reference,
            "round {round}: final state must not depend on interleaving"
        );
    }
}
