//! The built-in correctness check: always on, and a failure fails the run.
//!
//! What the store holds after the final flush is compared with what the
//! generator emitted — exactly-once, nothing lost, nothing altered — using
//! only values the benchmark computes itself.

use crate::live::LiveRun;
use crate::workload::{dag_workflow, Inputs, DAG_ROOT_BACK, PAGE_SIZE};
use provlight::prov_model::{DataRecord, Id};
use provlight::prov_store::{CursorOpts, Path, ShardedStore, StoreStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Tasks re-read in full after the run.
const SAMPLED_TASKS: usize = 256;

/// What the store must count once `tasks[d]` tasks of every device `d` and
/// the preloaded DAG are in.
pub fn expected_stats(inputs: &Inputs, tasks: &[u64]) -> StoreStats {
    let workload = inputs.workload;
    let captured: u64 = tasks.iter().sum();
    let workflows = tasks.len() as u64;
    let dag_rows = workload.preload_rows as u64;
    // Every output derives from its input and, but for a chain's first
    // link, from the previous output; a chain appended to the DAG hangs its
    // first link off the tip.
    let chains = tasks.iter().filter(|&&t| t > 0).count() as u64;
    let hung = u64::from(dag_rows > 0 && tasks[0] > 0);
    StoreStats {
        // workflow.begin + workflow.end per device, two records per task.
        records: 2 * workflows + 2 * captured + inputs.dag_tasks(),
        tasks: captured + inputs.dag_tasks(),
        data: 2 * captured + dag_rows,
        // Input attributes plus the output's `result`; one `w` per DAG row.
        attr_cells: captured * (workload.attrs as u64 + 1) + dag_rows,
        // DAG row i derives from the (up to) two rows before it.
        lineage_edges: 2 * captured - chains + hung + (2 * dag_rows).saturating_sub(3),
    }
}

fn row_matches(store: &ShardedStore, expected: &DataRecord) -> Result<(), String> {
    let guard = store.read(&expected.workflow);
    let (_, row) = guard
        .data_by_id(&expected.workflow, &expected.id)
        .ok_or_else(|| format!("row {:?} missing", expected.id))?;
    if row.attributes != expected.attributes {
        return Err(format!("row {:?}: attributes differ", expected.id));
    }
    if *row.derivations != *expected.derivations {
        return Err(format!(
            "row {:?}: derivations {:?}, expected {:?}",
            expected.id, &*row.derivations, expected.derivations
        ));
    }
    Ok(())
}

/// The downstream closure of DAG row `root`, paged to the end; `on_page` is
/// told how long each `next_page` call took.
pub fn closure(
    store: &ShardedStore,
    root: Id,
    mut on_page: impl FnMut(Duration),
) -> Result<Vec<Id>, String> {
    let path = Path::from_data(root).downstream(usize::MAX);
    let opts = CursorOpts {
        page_size: PAGE_SIZE,
        ..CursorOpts::default()
    };
    let mut cursor = store
        .open_cursor(&dag_workflow(), &path, opts)
        .map_err(|e| format!("closure cursor: {e:?}"))?;
    let mut hits = Vec::new();
    loop {
        let t0 = Instant::now();
        let page = store.next_page(&mut cursor);
        on_page(t0.elapsed());
        hits.extend(page.hits.into_iter().map(|h| h.id));
        if page.done {
            return Ok(hits);
        }
    }
}

/// Every way the run's outputs differ from its inputs; empty when correct.
pub fn failures(inputs: &Inputs, seed: u64, store: &ShardedStore, run: &LiveRun) -> Vec<String> {
    let mut failures = Vec::new();
    let tasks = &run.generated.tasks;

    let expected = expected_stats(inputs, tasks);
    if run.store != expected {
        failures.push(format!(
            "store holds {:?}, generator emitted {expected:?}",
            run.store
        ));
    }
    if run.decode_errors != 0 {
        failures.push(format!("server.decode_errors = {}", run.decode_errors));
    }
    let dropped: u64 = run
        .generated
        .transport
        .iter()
        .map(|t| t.records_dropped)
        .sum();
    if dropped != 0 {
        failures.push(format!("transmitter.records_dropped = {dropped}"));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c4ec);
    let mut mismatches = 0;
    for _ in 0..SAMPLED_TASKS {
        let device = rng.gen_range(0..tasks.len() as u64) as usize;
        if tasks[device] == 0 {
            continue;
        }
        let t = rng.gen_range(0..tasks[device]);
        for expected in [inputs.input(device, t), inputs.output(device, t)] {
            if let Err(why) = row_matches(store, &expected) {
                mismatches += 1;
                if mismatches <= 3 {
                    failures.push(format!("device {device} task {t}: {why}"));
                }
            }
        }
    }
    if mismatches > 3 {
        failures.push(format!("{mismatches} sampled rows differ in all"));
    }

    // The query leg, where the workload has one.
    let Some(root) = inputs.dag_root() else {
        return failures;
    };
    // Every closure paged beside the ingest saw at least the rows that were
    // there before the run began.
    let preloaded = DAG_ROOT_BACK - 1;
    if run.observed.closure_hits_min < preloaded {
        failures.push(format!(
            "a live closure returned {} rows, {preloaded} were preloaded downstream of its root",
            run.observed.closure_hits_min
        ));
    }
    match closure(store, root, |_| {}) {
        Err(why) => failures.push(why),
        Ok(hits) => {
            let expected: HashSet<_> = inputs.expected_closure(tasks[0]).into_iter().collect();
            let distinct: HashSet<_> = hits.iter().cloned().collect();
            if distinct.len() != hits.len() {
                failures.push("closure returned a row twice".to_owned());
            }
            if distinct != expected {
                failures.push(format!(
                    "closure returned {} rows, breadth-first walk over the generated edges gives {}",
                    distinct.len(),
                    expected.len()
                ));
            }
        }
    }
    failures
}
