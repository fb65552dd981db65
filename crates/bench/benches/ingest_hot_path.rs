//! Server-side ingest throughput of the store, at one translator.
//!
//! The translator replays a stream of envelope batches exactly like the
//! server decode loop hands them over: one `ingest_batch` — one write-lock
//! acquisition — per envelope, the call `DfAnalyzerTranslator` makes.
//! Every entry point runs one translator thread, so this is the rate the
//! server ingests at once decoding is done.
//!
//! Results replace the `ingest` section of `BENCH_hotpath.json` at the repo
//! root, leaving the other sections untouched. Reps come from
//! `PROVLIGHT_REPS` (default 10); the number is the best rep.

use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use prov_store::sharded::ShardedStore;
use std::hint::black_box;
use std::time::Instant;

const WORKFLOWS: u64 = 32;
const ATTRS: usize = 10;
const ENVELOPE_RECORDS: usize = 64;

/// One workflow's capture stream: begin, a task chain (each task reads the
/// workflow-shared hyperparameter item plus its predecessor's output and
/// writes one output with `ATTRS` attributes), end.
fn workflow_stream(wf: u64, tasks: u64) -> Vec<Record> {
    let attr_names: Vec<std::sync::Arc<str>> = (0..ATTRS)
        .map(|a| std::sync::Arc::from(format!("attr_{a}").as_str()))
        .collect();
    let mut records = Vec::with_capacity(2 + 2 * tasks as usize);
    records.push(Record::WorkflowBegin {
        workflow: Id::Num(wf),
        time_ns: 0,
    });
    for t in 0..tasks {
        let task = |status, time_ns| TaskRecord {
            id: Id::Num(t),
            workflow: Id::Num(wf),
            transformation: Id::Num(7),
            dependencies: t.checked_sub(1).map(Id::Num).into_iter().collect(),
            time_ns,
            status,
        };
        let mut inputs = vec![DataRecord::new(u64::MAX, wf).with_attr("lr", 0.1)];
        if t > 0 {
            inputs.push(DataRecord::new(t - 1, wf));
        }
        records.push(Record::TaskBegin {
            task: task(TaskStatus::Running, t * 1000),
            inputs,
        });
        let mut out = DataRecord::new(t, wf);
        for name in &attr_names {
            out = out.with_attr(std::sync::Arc::clone(name), t as i64);
        }
        records.push(Record::TaskEnd {
            task: task(TaskStatus::Finished, t * 1000 + 500),
            outputs: vec![out],
        });
    }
    records.push(Record::WorkflowEnd {
        workflow: Id::Num(wf),
        time_ns: tasks * 1000 + 999,
    });
    records
}

/// Replays the envelopes into a fresh store; returns records per second.
fn measure(envelopes: &[Vec<Record>], total_records: usize) -> f64 {
    let store = ShardedStore::new();
    let mut envelopes = envelopes.to_vec();
    let start = Instant::now();
    for envelope in &mut envelopes {
        store.ingest_batch(envelope.drain(..));
    }
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(store.stats().records as usize, total_records);
    total_records as f64 / seconds
}

fn main() {
    let configured = provlight_bench::reps().max(1);
    let reps = configured.max(3);
    let tasks_per_workflow: u64 = if configured <= 1 { 300 } else { 750 };

    let records: Vec<Record> = (0..WORKFLOWS)
        .flat_map(|wf| workflow_stream(wf, tasks_per_workflow))
        .collect();
    let total_records = records.len();
    let envelopes: Vec<Vec<Record>> = records
        .chunks(ENVELOPE_RECORDS)
        .map(<[Record]>::to_vec)
        .collect();
    let _ = black_box(&envelopes);
    println!(
        "ingest_hot_path: {total_records} records, {WORKFLOWS} workflows, one translator, \
         reps={reps}"
    );

    // The first run warms up and is not counted.
    let best = (0..reps + 1)
        .map(|_| measure(&envelopes, total_records))
        .skip(1)
        .fold(0.0f64, f64::max);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("  one_translator       {best:>12.0} rec/s");

    let section = format!(
        "{{\n    \"records\": {total_records},\n    \"attrs_per_record\": {ATTRS},\n    \
         \"envelope_records\": {ENVELOPE_RECORDS},\n    \
         \"reps\": {reps},\n    \"cores\": {cores},\n    \
         \"paths\": {{\n      \"one_translator\": {{ \"records_per_sec\": {best:.0} }}\n    }}\n  }}",
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let existing = std::fs::read_to_string(out_path).unwrap_or_default();
    let updated = provlight_bench::bench_json::upsert_section(&existing, "ingest", &section);
    std::fs::write(out_path, updated).expect("write BENCH_hotpath.json");
    println!("  wrote ingest section of {out_path}");
}
