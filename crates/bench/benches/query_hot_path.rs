//! Query-engine throughput over a live store.
//!
//! Two numbers the ISSUE's query tentpole stands on:
//!
//! * `qps_closure_1m` — full downstream-closure queries per second over a
//!   synthetic million-row lineage (a binary-fanout derivation DAG, so the
//!   closure from the root touches every row), executed through the
//!   paginated cursor exactly as a client would: open on the store, page
//!   until done, read lock re-acquired per page.
//! * `ratio_ingest_under_query` — ingest throughput into the same workflow
//!   while two query threads page closures in a loop, divided by
//!   ingest throughput alone. The cursor contract says readers must never
//!   stall writers beyond brief per-page read locks; this ratio is that
//!   promise, measured.
//!
//! Results extend the `query` section of `BENCH_hotpath.json`, leaving the
//! other sections untouched byte for byte. Reps come from
//! `PROVLIGHT_REPS` (default 10, best-of-reps); smoke runs shrink the
//! lineage but keep the full pipeline.

use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use prov_store::query::{CursorOpts, Path, SnapshotMode};
use prov_store::sharded::{ShardRouter, ShardedStore};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WF: u64 = 1;
const ENVELOPE_RECORDS: usize = 512;
const QUERY_THREADS: usize = 2;
/// Closure queries timed per rep for the qps figure.
const QUERIES: usize = 4;

/// One link of the synthetic lineage: task `t` emits `out{t}`, derived
/// from `out{t-1}` (the chain spine) and `out{t/2}` (binary fanout, so
/// every row is on the downstream closure of `out0` and interior nodes
/// have out-degree > 1 — a DAG, not a list).
fn link(t: u64) -> Record {
    let mut out = DataRecord::new(t, WF);
    if t > 0 {
        out = out.derived_from(t - 1);
        if t / 2 != t - 1 {
            out = out.derived_from(t / 2);
        }
    }
    Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(t),
            workflow: Id::Num(WF),
            transformation: Id::Num(7),
            dependencies: vec![],
            time_ns: t,
            status: TaskStatus::Finished,
        },
        outputs: vec![out],
    }
}

fn build_store(rows: u64) -> ShardedStore {
    let store = ShardedStore::new();
    let mut router = ShardRouter::new();
    let mut batch = Vec::with_capacity(ENVELOPE_RECORDS);
    for t in 0..rows {
        batch.push(link(t));
        if batch.len() == ENVELOPE_RECORDS {
            router.route(&store, &mut batch);
        }
    }
    router.route(&store, &mut batch);
    store
}

/// Runs one full downstream closure from the root through the paginated
/// cursor; returns the number of hits.
fn closure(store: &ShardedStore, opts: CursorOpts) -> usize {
    let path = Path::from_data(0u64).downstream(usize::MAX);
    let mut cursor = store
        .open_cursor(&Id::Num(WF), &path, opts)
        .expect("root row exists");
    let mut hits = 0usize;
    loop {
        let page = store.next_page(&mut cursor);
        hits += page.hits.len();
        if page.done {
            return hits;
        }
    }
}

fn query_opts() -> CursorOpts {
    CursorOpts {
        page_size: 4096,
        max_work: 65_536,
        snapshot: SnapshotMode::AtOpen,
    }
}

/// Times ingesting `extra` chain links through the router, optionally
/// with query threads hammering closures on the same workflow. Returns
/// records per second.
fn ingest_rate(rows: u64, extra: u64, with_queries: bool) -> f64 {
    let store = Arc::new(build_store(rows));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..if with_queries { QUERY_THREADS } else { 0 })
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut total = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    total += closure(&store, query_opts());
                }
                total
            })
        })
        .collect();

    let mut router = ShardRouter::new();
    let mut batch = Vec::with_capacity(ENVELOPE_RECORDS);
    let start = Instant::now();
    for t in rows..rows + extra {
        batch.push(link(t));
        if batch.len() == ENVELOPE_RECORDS {
            router.route(&store, &mut batch);
        }
    }
    router.route(&store, &mut batch);
    let elapsed = start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let hits = r.join().expect("query thread");
        // Query threads must have made progress while ingest ran — the
        // point of the bench is concurrency, not alternation.
        assert!(!with_queries || hits > 0, "query threads starved");
    }
    assert_eq!(store.stats().data, rows + extra);
    extra as f64 / elapsed
}

struct QueryRates {
    qps: f64,
    ingest_alone: f64,
    ingest_under_query: f64,
}

fn measure(rows: u64, extra: u64) -> QueryRates {
    let store = build_store(rows);
    // Warm one closure (faults pages, sizes the visited bitset), then time.
    assert_eq!(closure(&store, query_opts()), rows as usize - 1);
    let start = Instant::now();
    for _ in 0..QUERIES {
        black_box(closure(&store, query_opts()));
    }
    let qps = QUERIES as f64 / start.elapsed().as_secs_f64();
    drop(store);

    let ingest_alone = ingest_rate(rows, extra, false);
    let ingest_under_query = ingest_rate(rows, extra, true);
    QueryRates {
        qps,
        ingest_alone,
        ingest_under_query,
    }
}

fn main() {
    let configured = provlight_bench::reps().max(1);
    // Per-rep cost is dominated by the three store builds, so smoke keeps
    // reps low but still best-of-3 for noise rejection.
    let reps = configured.max(3);
    let rows: u64 = if configured <= 1 { 60_000 } else { 1_000_000 };
    let extra: u64 = if configured <= 1 { 10_000 } else { 100_000 };

    println!(
        "query_hot_path: {rows} lineage rows, {extra} ingest-under-query rows, \
         {QUERY_THREADS} query threads, reps={reps}"
    );

    let mut best: Option<QueryRates> = None;
    for rep in 0..reps + 1 {
        let rates = measure(rows, extra);
        if rep == 0 {
            continue; // warmup
        }
        best = Some(match best {
            None => rates,
            Some(b) => QueryRates {
                qps: b.qps.max(rates.qps),
                ingest_alone: b.ingest_alone.max(rates.ingest_alone),
                ingest_under_query: b.ingest_under_query.max(rates.ingest_under_query),
            },
        });
    }
    let best = best.expect("at least one measured rep");
    let ratio = best.ingest_under_query / best.ingest_alone;

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("  closure_qps          {:>12.2} queries/s", best.qps);
    println!("  ingest_alone         {:>12.0} rec/s", best.ingest_alone);
    println!(
        "  ingest_under_query   {:>12.0} rec/s  ({ratio:.2}x of alone)",
        best.ingest_under_query
    );

    let section = format!(
        "{{\n    \"rows\": {rows},\n    \"extra_records\": {extra},\n    \
         \"page_size\": 4096,\n    \"max_work\": 65536,\n    \
         \"query_threads\": {QUERY_THREADS},\n    \"reps\": {reps},\n    \"cores\": {cores},\n    \
         \"ingest_alone_records_per_sec\": {:.0},\n    \
         \"ingest_under_query_records_per_sec\": {:.0},\n    \
         \"qps_closure_1m\": {:.2},\n    \
         \"ratio_ingest_under_query\": {ratio:.2}\n  }}",
        best.ingest_alone, best.ingest_under_query, best.qps,
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let existing = std::fs::read_to_string(out_path).unwrap_or_default();
    let updated = provlight_bench::bench_json::upsert_section(&existing, "query", &section);
    std::fs::write(out_path, updated).expect("write BENCH_hotpath.json");
    println!("  wrote query section of {out_path}");

    // In-process sanity floors, deliberately looser than the committed
    // gate (`provlight_bench::gate::FLOORS`) so a loaded CI host doesn't
    // flake the smoke run; the gate enforces the real floors on the
    // tracked file.
    assert!(
        best.qps >= 1.0,
        "closure throughput collapsed: {:.2} qps",
        best.qps
    );
    assert!(
        ratio >= 0.15,
        "queries must not stall ingest: ratio {ratio:.2}"
    );
}
