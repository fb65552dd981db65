//! Queries racing live ingest.
//!
//! The query engine's contract (see `prov_store::query::cursor`) is that a
//! cursor never holds the store lock between pages and never stalls
//! writers: ingest threads drive `ShardRouter::route` at full speed while
//! query threads page through lineage closures on the same store. These
//! tests pin the two snapshot modes' guarantees under that race:
//!
//! * `AtOpen` — a cursor opened before the race and resumed mid-ingest
//!   returns *exactly* the rows reachable at open time;
//! * `Live` — a cursor resumed mid-ingest returns at least the rows
//!   reachable at open time, never a duplicate, and nothing that was
//!   never ingested.

use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::query::{CursorOpts, Path, SnapshotMode};
use provlight::prov_store::sharded::{ShardRouter, ShardedStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

/// Tasks ingested into the probed workflow before any cursor opens.
const SEED: u64 = 64;
/// Tasks each of the four racing writers appends afterwards.
const EXTEND: u64 = 200;
const PROBED_WF: u64 = 1;

/// One link of a derivation chain: task `t` emits `out{t}`, derived from
/// `out{t-1}`. Writers ingest links out of order across threads, so the
/// store wires many of these through its pending (forward-reference)
/// path while cursors are paging.
fn link(wf: u64, t: u64) -> Record {
    let mut out = DataRecord::new(format!("out{t}"), wf);
    if t > 0 {
        out = out.derived_from(format!("out{}", t - 1));
    }
    Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(t),
            workflow: Id::Num(wf),
            transformation: Id::from("train"),
            dependencies: vec![],
            time_ns: t * 1000,
            status: TaskStatus::Finished,
        },
        outputs: vec![out],
    }
}

fn id_set(range: std::ops::Range<u64>) -> BTreeSet<String> {
    range.map(|t| format!("out{t}")).collect()
}

/// Drains a cursor against the shared store with small pages, asserting
/// no id is ever emitted twice. Returns the emitted id set.
fn drain(
    store: &ShardedStore,
    cursor: &mut provlight::prov_store::query::Cursor,
    interleave: Option<&dyn Fn()>,
) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    loop {
        let page = store.next_page(cursor);
        for hit in page.hits {
            assert!(
                seen.insert(hit.id.to_string()),
                "duplicate hit {} from cursor",
                hit.id
            );
        }
        if page.done {
            return seen;
        }
        if let Some(f) = interleave {
            f();
        }
    }
}

#[test]
fn cursors_race_sharded_ingest() {
    let store = Arc::new(ShardedStore::new());
    store.ingest_batch((0..SEED).map(|t| link(PROBED_WF, t)));
    let pre_open = id_set(1..SEED);

    let path = Path::from_data("out0").downstream(usize::MAX);
    let small = |snapshot| CursorOpts {
        page_size: 8,
        max_work: 32,
        snapshot,
    };
    // Opened before the race; resumed from the main thread mid-ingest.
    let mut at_open = store
        .open_cursor(&Id::Num(PROBED_WF), &path, small(SnapshotMode::AtOpen))
        .unwrap();
    let mut live = store
        .open_cursor(&Id::Num(PROBED_WF), &path, small(SnapshotMode::Live))
        .unwrap();

    thread::scope(|s| {
        // Four writers race `ShardRouter::route`: each appends a slice of
        // the probed workflow's chain (interleaved mod 4, so most links
        // arrive before their predecessor and park as forward references)
        // plus traffic for a workflow of its own.
        for w in 0..4u64 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let mut router = ShardRouter::new();
                for t in (SEED + w..SEED + 4 * EXTEND).step_by(4) {
                    let mut batch = vec![link(PROBED_WF, t), link(100 + w, t)];
                    router.route(&store, &mut batch);
                }
            });
        }
        // Two query threads open fresh cursors and page through them
        // while the writers run.
        for q in 0..2u64 {
            let store = Arc::clone(&store);
            let path = &path;
            s.spawn(move || {
                for i in 0..20 {
                    let snapshot = if (q + i) % 2 == 0 {
                        SnapshotMode::AtOpen
                    } else {
                        SnapshotMode::Live
                    };
                    let mut cursor = store
                        .open_cursor(&Id::Num(PROBED_WF), path, small(snapshot))
                        .unwrap();
                    let seen = drain(&store, &mut cursor, None);
                    // Everything reachable at open stays reachable: the
                    // seed chain is always a subset.
                    assert!(seen.is_superset(&id_set(1..SEED)), "cursor lost seed rows");
                    assert!(cursor.stats().pages > 0);
                }
            });
        }
        // Meanwhile: resume the pre-race cursors page by page.
        let at_open_seen = drain(&store, &mut at_open, Some(&|| thread::yield_now()));
        assert_eq!(
            at_open_seen, pre_open,
            "AtOpen cursor must return exactly the rows visible at open"
        );
        let live_seen = drain(&store, &mut live, Some(&|| thread::yield_now()));
        assert!(
            live_seen.is_superset(&pre_open),
            "Live cursor must include everything reachable at open"
        );
        let ever = id_set(1..SEED + 4 * EXTEND);
        assert!(
            live_seen.is_subset(&ever),
            "Live cursor emitted a row that was never ingested"
        );
    });

    // After the race settles, a fresh snapshot sees the whole chain —
    // every forward reference wired despite arrival order and threads.
    let mut full = store
        .open_cursor(
            &Id::Num(PROBED_WF),
            &path,
            CursorOpts {
                page_size: 4096,
                max_work: usize::MAX,
                snapshot: SnapshotMode::AtOpen,
            },
        )
        .unwrap();
    let all = drain(&store, &mut full, None);
    assert_eq!(all, id_set(1..SEED + 4 * EXTEND));
    assert!(full.stats().pages >= 1);
    assert!(full.stats().steps_evaluated as usize > all.len());
}
