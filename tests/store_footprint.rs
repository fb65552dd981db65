//! What a stored row costs, and what it shares with the rows around it.
//!
//! A counting global allocator wraps the system allocator and keeps, per
//! thread, the calls made and the bytes currently live (`zero_alloc.rs`
//! counts calls only), so each test measures its own work however many run
//! beside it. The first half pins the footprint of the store: the inline size
//! of the row types, the heap a lineage DAG retains per row, and that an
//! edge set costs no allocation until its third member. The second half
//! pins what makes that footprint possible and must stay invisible: a row
//! names its sources by allocations the store already holds and its
//! attributes through the layout it shares with every row of its shape,
//! whoever decoded the record. Last, the door the rows come through:
//! what decoding one envelope may hold on the heap is linear in its length,
//! whatever its bytes claim.

use provlight::prov_codec::compress::compress;
use provlight::prov_codec::frame::{Envelope, ENVELOPE_VERSION};
use provlight::prov_codec::CodecError;
use provlight::prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::store::{DataRow, Store, TaskRow};
use provlight::prov_store::{ShardRouter, ShardedStore, SmallSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize, calls: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = CALLS.try_with(|n| n.set(n.get() + calls));
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocator calls made so far by the calling thread.
fn calls() -> usize {
    CALLS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// The most bytes the calling thread holds at any moment of `work`, over
/// what it held going in.
fn peak_bytes_during(work: impl FnOnce()) -> usize {
    let before = live_bytes();
    PEAK_BYTES.with(|peak| peak.set(before));
    work();
    (PEAK_BYTES.with(Cell::get) - before) as usize
}

#[test]
fn row_types_keep_their_edge_sets_inline() {
    assert!(size_of::<SmallSet<u32>>() <= 16);
    // 144 B while its three edge sets were `SmallSet`s of their own and
    // its generator an `Option`.
    assert!(size_of::<DataRow>() <= 128, "{}", size_of::<DataRow>());
    assert!(size_of::<TaskRow>() <= 112, "{}", size_of::<TaskRow>());
}

#[test]
fn first_two_members_of_an_edge_set_allocate_nothing() {
    let (a, b) = (Id::from("in0"), Id::from("out0"));
    let mut edges = SmallSet::new();
    let mut ids = SmallSet::new();
    let before = calls();
    edges.insert(7u32);
    edges.insert(8);
    ids.insert(a);
    ids.insert_cloned(&b);
    assert_eq!(calls() - before, 0);
    assert_eq!(edges, [7, 8]);
    assert_eq!(ids.len(), 2);
}

const DAG_ROWS: usize = 25_000;
const ROWS_PER_TASK: usize = 64;
const TASKS_PER_BATCH: usize = 16;

/// Task `task` of a DAG shaped like the one the benchmark preloads for
/// `query_mix`: row `i` derives from rows `i - 1` and `i - 2` and carries
/// one `f64`. Every id and name is an allocation of its own, as a decoder
/// that met each row in a message of its own would hand them over.
fn dag_task(task: usize) -> Record {
    let row = |i: usize| Id::from(format!("p{i}"));
    let first = task * ROWS_PER_TASK;
    Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(1 << 40 | task as u64),
            workflow: Id::from("Q"),
            transformation: Id::from("preload"),
            dependencies: Vec::new(),
            time_ns: 0,
            status: TaskStatus::Finished,
        },
        outputs: (first..DAG_ROWS.min(first + ROWS_PER_TASK))
            .map(|i| DataRecord {
                id: row(i),
                workflow: Id::from("Q"),
                derivations: (i.saturating_sub(2)..i).map(row).collect(),
                attributes: vec![(Arc::from("w"), AttrValue::Float(i as f64))],
            })
            .collect(),
    }
}

#[test]
fn lineage_dag_retains_under_half_a_kilobyte_per_row() {
    // 25 000 rows fill the tables' power-of-two capacities exactly as far
    // as the benchmark's 200 000 do (both are 0.763 of one), so the figure
    // per row is the benchmark's.
    let tasks = DAG_ROWS.div_ceil(ROWS_PER_TASK);
    let before = live_bytes();
    let store = ShardedStore::default();
    let mut router = ShardRouter::new();
    for first in (0..tasks).step_by(TASKS_PER_BATCH) {
        let mut batch: Vec<Record> = (first..tasks.min(first + TASKS_PER_BATCH))
            .map(dag_task)
            .collect();
        router.route(&store, &mut batch);
    }
    let per_row = (live_bytes() - before) as usize / DAG_ROWS;

    let stats = store.stats();
    assert_eq!(stats.data, DAG_ROWS as u64);
    assert_eq!(stats.lineage_edges, 2 * DAG_ROWS as u64 - 3);
    // 217 B measured, plus a tenth; 249 B while a data row was 144 B and
    // every task's 64 outputs held a hash index beside them; 272 B while
    // the id index held a copy of every id, 25 B a bucket; 357 B while row numbers were 64 bits,
    // every row held its workflow id and its one number in a malloc chunk
    // of its own, 403 B while the index was keyed by `(workflow, id)` and
    // every row held the copy of the workflow id it arrived with, 448 B
    // while a row held its one cell as a 48-byte pair and the column a copy
    // of it, 877 B before edge sets moved inline and rows took the store's
    // own copy of every string it already held.
    assert!(per_row <= 238, "{per_row} B of live heap per row");
}

const WIDE_TASKS: u64 = 2_875;
const WIDE_GROUP: u64 = 25;

#[test]
fn a_task_of_a_hundred_numbers_retains_under_three_kilobytes() {
    // One `grouped_wide` device: 100 `f64` in, one out, every 25 tasks an
    // envelope with a string table of its own. All the store keeps for it —
    // rows, cells, columns, indices, layouts — is counted.
    let before = live_bytes();
    let store = ShardedStore::default();
    let mut router = ShardRouter::new();
    for first in (0..WIDE_TASKS).step_by(WIDE_GROUP as usize) {
        let group: Vec<Record> = (first..first + WIDE_GROUP)
            .flat_map(task_records_wide)
            .collect();
        router.route(&store, &mut over_the_wire(&group));
    }
    let per_task = (live_bytes() - before) as u64 / WIDE_TASKS;

    let stats = store.stats();
    assert_eq!(stats.tasks, WIDE_TASKS);
    assert_eq!(stats.attr_cells, 101 * WIDE_TASKS);
    let wf = Id::from("wf");
    assert_eq!(store.read(&wf).layout_count(), 2);
    // 1 486 B measured, plus a tenth: 808 of cells and 8 of row numbers in
    // the two layouts' lists; the rest is rows, ids, indices, and the slack
    // of tables that double (2 875 tasks fill theirs to 0.70). 1 531 B
    // while a data row was 144 B; 1 578 B while a task row was 144 B and
    // held its message's copy of its transformation; 2 220 B
    // while a column listed its rows, 4 B a cell, and the id indexes held a
    // copy of every id; 2 410 B with 64-bit row numbers, a workflow id in
    // every row and the output's one number in a chunk of its own; 2 493 B
    // while the indexes were keyed by `(workflow, id)` pairs; with 48-byte
    // pairs in the row and 16-byte copies in the column (this test against
    // a `git archive` of the tree before layouts, less the layout count):
    // 8 235 B.
    assert!(per_task <= 1_634, "{per_task} B of live heap per task");
}

const IMMEDIATE_TASKS: u64 = 2_875;

/// Task `t` of an `immediate_small` device of workflow `wf`: ten `Int` in
/// `0..4` in, one `Float` out derived from the input and from the output
/// before it, a dependency on the task before it.
fn task_records_immediate(wf: u64, t: u64) -> [Record; 2] {
    let task = TaskRecord {
        id: Id::Num(t),
        workflow: Id::Num(wf),
        transformation: Id::from("step"),
        dependencies: t.checked_sub(1).map(Id::Num).into_iter().collect(),
        time_ns: t,
        status: TaskStatus::Running,
    };
    let mut input = DataRecord::new(format!("in{t}"), wf);
    input.attributes = (0..10)
        .map(|a| {
            (
                Arc::from(format!("a{a}")),
                AttrValue::Int(((t + a) * 7 % 4) as i64),
            )
        })
        .collect();
    let mut output =
        DataRecord::new(format!("out{t}"), wf).with_attr("result", t as f64 * 0.5 + wf as f64);
    output.derivations = t
        .checked_sub(1)
        .map(|p| Id::from(format!("out{p}")))
        .into_iter()
        .collect();
    output.derivations.push(Id::from(format!("in{t}")));
    [
        Record::TaskBegin {
            task: task.clone(),
            inputs: vec![input],
        },
        Record::TaskEnd {
            task: TaskRecord {
                status: TaskStatus::Finished,
                ..task
            },
            outputs: vec![output],
        },
    ]
}

#[test]
fn an_immediate_task_of_ten_small_numbers_retains_under_a_kilobyte() {
    // Two `immediate_small` devices, each record in an envelope of its own,
    // so every string the store keeps a reference to was decoded from the
    // message it came in. All the store keeps is counted.
    let before = live_bytes();
    let store = ShardedStore::default();
    let mut router = ShardRouter::new();
    for t in 0..IMMEDIATE_TASKS {
        for wf in [1, 2] {
            for record in task_records_immediate(wf, t) {
                router.route(&store, &mut over_the_wire(&[record]));
            }
        }
    }
    let per_task = (live_bytes() - before) as u64 / (2 * IMMEDIATE_TASKS);

    let stats = store.stats();
    assert_eq!(stats.tasks, 2 * IMMEDIATE_TASKS);
    assert_eq!(stats.attr_cells, 11 * 2 * IMMEDIATE_TASKS);
    assert_eq!(stats.lineage_edges, 2 * (2 * IMMEDIATE_TASKS - 1));
    // 708 B measured, plus a tenth: 80 of cells and 8 of row numbers in the
    // layouts' lists; the rest is a task row, two data rows, the text of
    // their ids, indices, and the slack of tables that double (each fills
    // its own to 0.70). 753 B while a data row was 144 B; 823 B while a
    // task row was 144 B and held its message's copy of its
    // transformation.
    assert!(per_task <= 778, "{per_task} B of live heap per task");
}

#[test]
fn a_task_of_sixty_four_ascending_outputs_keeps_no_hash_index() {
    // A task of the DAG above: its outputs are new rows, so their numbers
    // ascend, and a binary search answers for them. A second task naming
    // the same rows in descending order needs a hash index.
    let mut store = Store::new();
    store.ingest(dag_task(0));
    let Record::TaskEnd { task, mut outputs } = dag_task(0) else {
        unreachable!("a DAG task is an end")
    };
    outputs.reverse();
    let task = TaskRecord {
        id: Id::Num(1),
        ..task
    };
    store.ingest(Record::TaskEnd { task, outputs });
    let table = store.workflow(&Id::from("Q")).expect("workflow stored");
    let [ascending, descending] = table.tasks() else {
        panic!("two task rows")
    };
    assert!(ascending.outputs.iter().copied().eq(0..64));
    assert!(descending.outputs.iter().copied().eq((0..64).rev()));
    // A copy allocates what the set holds: the box and 256 B of members,
    // and the index a set holds — 656 B for 64 row numbers.
    let held = |set: &SmallSet<u32>| {
        let before = live_bytes();
        let copy = set.clone();
        let held = live_bytes() - before;
        drop(copy);
        held
    };
    assert!(
        held(&ascending.outputs) <= 384,
        "{} B",
        held(&ascending.outputs)
    );
    assert!(held(&descending.outputs) > 384 + 512);
}

/// Tasks of workflow 1, each using one data item of `cells` numbers under
/// names that are allocations of the record's own.
fn tasks_of_numbers(tasks: std::ops::Range<u64>, cells: usize) -> impl Iterator<Item = Record> {
    tasks.map(move |t| {
        let mut data = DataRecord::new(t, 1u64);
        data.attributes = (0..cells)
            .map(|a| {
                (
                    Arc::from(format!("a{a}")),
                    AttrValue::Float(t as f64 + a as f64),
                )
            })
            .collect();
        Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(t),
                workflow: Id::Num(1),
                transformation: Id::Num(7),
                dependencies: Vec::new(),
                time_ns: t,
                status: TaskStatus::Running,
            },
            inputs: vec![data],
        }
    })
}

#[test]
fn a_row_of_a_known_layout_costs_the_same_whatever_its_typed_cells() {
    // What a thousand rows add to a table that has a thousand of their
    // shape, less their cells: a column names the layout once, and the
    // layout lists each row once, however many columns the row feeds.
    const ROWS: u64 = 1_000;
    let beyond_cells = |cells: usize| {
        let mut store = Store::new();
        store.ingest_batch(tasks_of_numbers(0..ROWS, cells));
        let before = live_bytes();
        store.ingest_batch(tasks_of_numbers(ROWS..2 * ROWS, cells));
        let added = live_bytes() - before;
        assert_eq!(store.column_len(&Id::Num(1), "a1"), 2 * ROWS as usize);
        added - (ROWS as usize * cells * size_of::<u64>()) as isize
    };
    let two = beyond_cells(2);
    for cells in [10, 100] {
        assert_eq!(beyond_cells(cells), two, "{cells} cells");
    }
}

fn text(id: &Id) -> &Arc<str> {
    match id {
        Id::Str(text) => text,
        Id::Num(n) => panic!("{n} is not a string id"),
    }
}

/// What task `t` of a device reports: `in{t}` used, `out{t}` generated from
/// it, both with the same two attribute names.
fn task_records(t: u64) -> Vec<Record> {
    let task = TaskRecord {
        id: Id::Num(t),
        workflow: Id::from("wf"),
        transformation: Id::from("train"),
        dependencies: Vec::new(),
        time_ns: t,
        status: TaskStatus::Running,
    };
    let data = |id: String| {
        DataRecord::new(id, "wf")
            .with_attr("lr", 0.1)
            .with_attr("site", "edge")
    };
    vec![
        Record::TaskBegin {
            task: task.clone(),
            inputs: vec![data(format!("in{t}"))],
        },
        Record::TaskEnd {
            task: TaskRecord {
                status: TaskStatus::Finished,
                ..task
            },
            outputs: vec![data(format!("out{t}")).derived_from(format!("in{t}"))],
        },
    ]
}

/// Task `t` of a `grouped_wide`-shaped device: 100 `f64` in, one out.
fn task_records_wide(t: u64) -> Vec<Record> {
    let mut records = task_records(t);
    if let Record::TaskBegin { inputs, .. } = &mut records[0] {
        inputs[0].attributes = (0..100)
            .map(|a| (Arc::from(format!("a{a}")), AttrValue::Float(a as f64 / 7.0)))
            .collect();
    }
    if let Record::TaskEnd { outputs, .. } = &mut records[1] {
        outputs[0].attributes = vec![(Arc::from("result"), AttrValue::Float(t as f64 / 3.0))];
    }
    records
}

/// `records` as the translator receives them: through the wire format, so
/// every string is an allocation of this message's own string table.
fn over_the_wire(records: &[Record]) -> Vec<Record> {
    Envelope::decode(&Envelope::encode(records, true))
        .expect("envelope decodes")
        .records
}

#[test]
fn rows_share_the_strings_the_shard_already_holds() {
    let wf = Id::from("wf");
    let store = ShardedStore::default();
    let mut router = ShardRouter::new();
    let mut first = over_the_wire(&task_records(0));
    let mut second = over_the_wire(&task_records(1));
    // Nothing is shared on the way in.
    let name_of = |records: &[Record]| match &records[0] {
        Record::TaskBegin { inputs, .. } => Arc::clone(&inputs[0].attributes[0].0),
        other => panic!("unexpected {other:?}"),
    };
    assert!(!Arc::ptr_eq(&name_of(&first), &name_of(&second)));
    // Within a message the second row reused the first one's layout, which
    // hands out the names it already holds.
    match &first[1] {
        Record::TaskEnd { outputs, .. } => {
            assert!(Arc::ptr_eq(&outputs[0].attributes[0].0, &name_of(&first)));
        }
        other => panic!("unexpected {other:?}"),
    }
    router.route(&store, &mut first);
    router.route(&store, &mut second);

    let guard = store.read(&wf);
    let row = |id: &str| guard.data_by_id(&wf, &Id::from(id)).expect("row stored").1;
    // One layout, and so one allocation per attribute name, across rows
    // and messages.
    let reference = row("in0");
    for id in ["in0", "out0", "in1", "out1"] {
        let row = row(id);
        assert_eq!(row.attributes.len(), 2);
        assert!(
            Arc::ptr_eq(row.attributes.layout(), reference.attributes.layout()),
            "{id} has a layout of its own"
        );
    }
    assert_eq!(guard.layout_count(), 1);
    // A row lists its source under the source row's own id.
    for t in 0..2 {
        let (source, product) = (row(&format!("in{t}")), row(&format!("out{t}")));
        assert_eq!(*product.derivations, *std::slice::from_ref(&source.id));
        assert!(Arc::ptr_eq(text(&product.derivations[0]), text(&source.id)));
    }
    // The task rows, from two messages, share one transformation: the
    // table's, which nothing else holds once the records are gone.
    let table = guard.workflow(&wf).expect("workflow stored");
    let held = text(table.transformation(&table.tasks()[0]));
    assert_eq!(**held, *"train");
    for task in table.tasks() {
        assert!(Arc::ptr_eq(text(table.transformation(task)), held));
    }
    assert_eq!(Arc::strong_count(held), 1);
    drop(guard);

    // A task lists a task it depends on under that row's own id, and keeps
    // the copy of one that has not come.
    let named = |id: &str, dependencies: &[&str]| Record::TaskBegin {
        task: TaskRecord {
            id: Id::from(id),
            workflow: wf.clone(),
            transformation: Id::from("train"),
            dependencies: dependencies.iter().map(|&d| Id::from(d)).collect(),
            time_ns: 0,
            status: TaskStatus::Running,
        },
        inputs: Vec::new(),
    };
    for record in [named("fit", &[]), named("score", &["fit", "report"])] {
        router.route(&store, &mut over_the_wire(&[record]));
    }
    let guard = store.read(&wf);
    let (fit, score) = (
        guard.task_by_id(&wf, &Id::from("fit")).expect("fit"),
        guard.task_by_id(&wf, &Id::from("score")).expect("score"),
    );
    assert_eq!(score.dependencies, [Id::from("fit"), Id::from("report")]);
    assert!(Arc::ptr_eq(text(&score.dependencies[0]), text(&fit.id)));
    let table = guard.workflow(&wf).expect("workflow stored");
    let shared = text(table.transformation(&table.tasks()[0]));
    assert!(Arc::ptr_eq(text(table.transformation(score)), shared));
    drop(guard);

    // Invisible: a product that arrives before its source keeps the copy
    // it came with, reads the same, and is wired when the source comes.
    let mut early = over_the_wire(&task_records(2)[1..]);
    let mut late = over_the_wire(&task_records(2)[..1]);
    router.route(&store, &mut early);
    assert_eq!(store.stats().lineage_edges, 2);
    router.route(&store, &mut late);
    assert_eq!(store.stats().lineage_edges, 3);
    let guard = store.read(&wf);
    let (source_idx, source) = guard.data_by_id(&wf, &Id::from("in2")).expect("in2");
    let (_, product) = guard.data_by_id(&wf, &Id::from("out2")).expect("out2");
    assert_eq!(product.derivations, [Id::from("in2")]);
    assert_eq!(product.derived_from(), [source_idx]);
    assert!(Arc::ptr_eq(
        product.attributes.layout(),
        source.attributes.layout()
    ));
    assert_eq!(guard.layout_count(), 1);
}

fn varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A task of workflow 1 with `data` data records written by hand: the first
/// defines a layout of `cells` `Null`s, each a run of its own, and the
/// others reuse it in five bytes each. A batch as `[count, nstrings, ("n"),
/// record]`, the same bytes in versions 2 and 3.
fn null_layout_bomb(cells: usize, data: usize) -> Vec<u8> {
    let mut batch = vec![1, 1, 1, b'n', 2, 0, 0, 0, 1, 0, 0, 0, 0, 0];
    varint(&mut batch, data);
    batch.extend([0, 0, 2, 0]);
    varint(&mut batch, cells << 1);
    batch.extend(std::iter::repeat_n([0, 0], cells).flatten());
    batch.extend(std::iter::repeat_n([0, 0, 2, 0, 1], data - 1).flatten());
    batch
}

fn enveloped(batch: &[u8], compressed: bool) -> Vec<u8> {
    let mut envelope = vec![0xA7, ENVELOPE_VERSION, compressed as u8];
    match compressed {
        true => envelope.extend(compress(batch)),
        false => envelope.extend_from_slice(batch),
    }
    envelope
}

#[test]
fn decoding_an_envelope_holds_heap_linear_in_its_length() {
    let mut records = Vec::new();
    let peak_of = |envelope: &[u8], records: &mut Vec<Record>| {
        let mut result = Ok(false);
        let peak = peak_bytes_during(|| result = Envelope::decode_into(envelope, records));
        let bound = Envelope::decode_heap_bound(envelope.len());
        assert!(peak <= bound, "{peak} B held for {} B", envelope.len());
        (result, peak)
    };

    // Honest envelopes are nowhere near it: a group of wide records holds
    // what its rows hold — 48 B for a cell that took 7 on the wire — plus
    // the decompressed batch.
    let wide: Vec<Record> = (0..25).flat_map(task_records_wide).collect();
    let raw_len = Envelope::encoded_len(&wide, false);
    for compressed in [false, true] {
        let envelope = Envelope::encode(&wide, compressed);
        let (result, peak) = peak_of(&envelope, &mut records);
        assert_eq!(result, Ok(compressed));
        assert_eq!(records, wide);
        assert!(peak <= 8 * raw_len, "{peak} B for {raw_len} B of batch");
        records = Vec::new();
    }

    // What version 2 made possible: 4 KB of zero-width cells named by
    // thousands of five-byte records would be millions of cells. Refused
    // at the first reuse the bytes do not cover, raw or squeezed into a
    // datagram by the compressor.
    let bomb = null_layout_bomb(2_000, 10_000);
    assert!(compress(&bomb).len() < 9_000);
    for compressed in [false, true] {
        let envelope = enveloped(&bomb, compressed);
        let (result, peak) = peak_of(&envelope, &mut records);
        assert_eq!(result, Err(CodecError::LengthOverflow));
        // 2 000 × 10 000 cells × 48 B would be 960 MB.
        assert!(peak < 4 << 20, "{peak} B");
        records = Vec::new();
    }
    // The same shape inside its allowance is a valid batch.
    let (result, _) = peak_of(&enveloped(&null_layout_bomb(8, 4), false), &mut records);
    assert_eq!((result, records.len()), (Ok(false), 1));
    records = Vec::new();

    // What front coding made possible: a string-table entry of two bytes
    // that repeats 15 of the one before it is a 16-byte string. Thousands
    // of them after one long string still hold heap linear in the bytes.
    let entries = 5_000;
    let mut strings = vec![0];
    varint(&mut strings, entries + 1);
    strings.extend(b"\x0f\x0ethe first string of the table");
    strings.extend((0..entries).flat_map(|i| [0xf1, b'a' + (i % 26) as u8]));
    for compressed in [false, true] {
        let (result, peak) = peak_of(&enveloped(&strings, compressed), &mut records);
        assert_eq!((result, records.len()), (Ok(compressed), 0));
        // The `Arc` of a 16-byte string (32 B) and its table slot (16).
        assert!(peak < 60 * entries, "{peak} B");
        records = Vec::new();
    }

    // Counts that claim the rest of the message: every reserve is held to
    // what the remaining bytes could be, level by level — records, data
    // records, ids, lists inside lists.
    let varint_max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let padding = vec![0u8; 20_000];
    // One record, no strings: task 0 of workflow 1, up to its dependencies.
    let task = [1, 0, 2, 0, 0, 0, 1, 0, 0];
    let mut claims = vec![
        // records
        varint_max.to_vec(),
        // dependencies of the task
        [&task[..], &varint_max].concat(),
        // its data records
        [&task[..], &[0, 0, 0], &varint_max].concat(),
        // cells in the layout of its one data record
        [&task[..], &[0, 0, 0, 1, 0, 0, 2, 0], &varint_max].concat(),
    ];
    // Lists nested 64 deep that each claim 300 items: together all the
    // cells 20 KB of batch may have.
    let mut lists = vec![1, 1, 1, b'n'];
    lists.extend(&task[2..]);
    lists.extend([0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 5]);
    lists.extend(std::iter::repeat_n([0xac, 0x02, 5], 64).flatten());
    claims.push(lists);
    for claim in &claims {
        let batch = [&claim[..], &padding].concat();
        for compressed in [false, true] {
            let (result, _) = peak_of(&enveloped(&batch, compressed), &mut records);
            assert!(result.is_err(), "{claim:?} decoded");
            records = Vec::new();
        }
    }
}
