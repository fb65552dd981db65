//! The four named workloads and the inputs generated for them.
//!
//! Everything the pipeline is fed derives from `--seed`: device phases and
//! every attribute value. Values are drawn per task from a generator seeded
//! by (seed, device, task), so the correctness check regenerates what any
//! task carried without the run having to keep it.

use provlight::core::GroupPolicy;
use provlight::prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// What the task-input attributes hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrKind {
    /// Integers in `0..4`: the paper's synthetic fillers, highly compressible.
    SmallInt,
    /// Uniform `f64` in `[0, 1)`: 52 random mantissa bits, incompressible.
    RandomF64,
}

/// One workload: a load shape chosen to put the work in particular layers.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Device connections, each with its own workflow and topic.
    pub devices: usize,
    /// Tasks captured per second per device.
    pub tasks_per_s: u32,
    /// Records per message on the paper's grouping axis (0 = immediate).
    pub group: usize,
    /// Attributes on every task input.
    pub attrs: usize,
    /// What those attributes hold.
    pub attr_kind: AttrKind,
    /// Rows of the derivation DAG loaded into workflow `Q` during set-up.
    /// With a DAG, device 0 appends to `Q` itself, chaining its outputs
    /// onto the tip, and the observer pages closure cursors over it; with
    /// none there is no query leg.
    pub preload_rows: usize,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "immediate_small",
        why: "one message per record at 1000 records/s: per-message layers (transmitter, MQTT-SN QoS 2, sockets, translator loop) do the work; codec and store idle",
        devices: 2,
        tasks_per_s: 250,
        group: 0,
        attrs: 10,
        attr_kind: AttrKind::SmallInt,
        preload_rows: 0,
    },
    Workload {
        name: "grouped_wide",
        why: "50-record groups of 100 random f64 attrs, 25k cells/s in 10 messages/s: per-byte layers (encode, LZSS, decode, column ingest) do the work; the gateway idles",
        devices: 2,
        tasks_per_s: 125,
        group: 50,
        attrs: 100,
        attr_kind: AttrKind::RandomF64,
        preload_rows: 0,
    },
    Workload {
        name: "sparse_tasks",
        why: "50 tasks/s, immediate, 100 attrs: the paper's Table I regime; nothing queues, so coalescing delay or deferred wake-ups bought for throughput show their cost here",
        devices: 2,
        tasks_per_s: 25,
        group: 0,
        attrs: 100,
        attr_kind: AttrKind::RandomF64,
        preload_rows: 0,
    },
    Workload {
        name: "query_mix",
        why: "grouped ingest appends to the 200k-row workflow that closure cursors page through: reads beside writes on one shard, so a gain for either at the other's cost shows",
        devices: 1,
        tasks_per_s: 500,
        group: 50,
        attrs: 25,
        attr_kind: AttrKind::SmallInt,
        preload_rows: 200_000,
    },
];

/// The observer opens one closure cursor per period, on a fixed schedule.
pub const QUERY_PERIOD: Duration = Duration::from_millis(250);
/// The closure's root lies this many rows before the tip of the DAG.
pub const DAG_ROOT_BACK: usize = 20_000;
/// Hits per cursor page.
pub const PAGE_SIZE: usize = 1024;
/// Outputs per task in the preloaded DAG.
const DAG_ROWS_PER_TASK: usize = 64;

/// Which half of a task a capture call is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `task.begin(inputs)`
    Begin,
    /// `task.end(outputs)`
    End,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The capture-side grouping policy.
    pub fn policy(&self) -> GroupPolicy {
        GroupPolicy::from_group_count(self.group)
    }

    /// The period between two tasks of one device.
    pub fn period(&self) -> Duration {
        Duration::from_secs(1) / self.tasks_per_s
    }

    /// Whether this call's return is a visibility marker: the moment from
    /// which "visible to a query" is timed.
    ///
    /// Immediate capture hands every record to the transmitter at once, and
    /// the task's output row is tracked. Grouped capture sends nothing until
    /// a group fills, so only the call that *closes* a group is a marker —
    /// the time records wait for their group to fill is the policy working
    /// as configured, not pipeline latency. Records are numbered from 1 with
    /// `workflow.begin()` first, so task `t` begins at record `2t + 2` and
    /// ends at `2t + 3`; with an even group size only begins close groups.
    pub fn is_marker(&self, task: u64, call: Call) -> bool {
        match self.group {
            0 => call == Call::End,
            size => record_ordinal(task, call).is_multiple_of(size as u64),
        }
    }

    /// Tasks whose visibility one marker vouches for.
    pub fn tasks_per_marker(&self) -> u64 {
        (self.group as u64 / 2).max(1)
    }
}

/// The 1-based position of a task's call in its device's record stream.
pub fn record_ordinal(task: u64, call: Call) -> u64 {
    2 * task + 2 + u64::from(call == Call::End)
}

/// The id of the workflow holding the preloaded DAG.
pub fn dag_workflow() -> Id {
    Id::from("Q")
}

/// Id of DAG row `i`.
pub fn dag_row(i: usize) -> Id {
    Id::from(format!("p{i}"))
}

/// Id of task `t`'s input row.
pub fn input_id(t: u64) -> Id {
    Id::from(format!("in{t}"))
}

/// Id of task `t`'s output row.
pub fn output_id(t: u64) -> Id {
    Id::from(format!("out{t}"))
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The workload generated for.
    pub workload: Workload,
    seed: u64,
    attr_names: Vec<Arc<str>>,
}

impl Inputs {
    /// Inputs of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs {
            workload,
            seed,
            attr_names: (0..workload.attrs)
                .map(|i| Arc::from(format!("a{i}")))
                .collect(),
        }
    }

    fn rng(&self, device: usize, salt: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03),
        )
    }

    /// Each device's offset into its period.
    pub fn phases(&self) -> Vec<Duration> {
        let period = self.workload.period().as_nanos() as u64;
        (0..self.workload.devices)
            .map(|d| Duration::from_nanos(self.rng(d, u64::MAX).gen_range(0..period)))
            .collect()
    }

    /// The workflow device `device` captures into.
    pub fn workflow(&self, device: usize) -> Id {
        if self.workload.preload_rows > 0 {
            dag_workflow()
        } else {
            Id::Num(device as u64 + 1)
        }
    }

    /// The topic device `device` publishes to.
    pub fn topic(&self, device: usize) -> String {
        format!("provlight/bench/dev{device}")
    }

    /// Input row of task `t` on `device`.
    pub fn input(&self, device: usize, t: u64) -> DataRecord {
        let mut rng = self.rng(device, t);
        DataRecord {
            id: input_id(t),
            workflow: self.workflow(device),
            derivations: Vec::new(),
            attributes: self
                .attr_names
                .iter()
                .map(|name| {
                    let value = match self.workload.attr_kind {
                        AttrKind::SmallInt => AttrValue::Int(rng.gen_range(0..4) as i64),
                        AttrKind::RandomF64 => AttrValue::Float(rng.gen()),
                    };
                    (Arc::clone(name), value)
                })
                .collect(),
        }
    }

    /// Output row of task `t` on `device`: derived from the task's input
    /// and from the previous output, so each device builds one chain. When
    /// the device appends to the DAG the chain hangs off the DAG's tip.
    pub fn output(&self, device: usize, t: u64) -> DataRecord {
        let previous = match t.checked_sub(1) {
            Some(p) => Some(output_id(p)),
            None => self.workload.preload_rows.checked_sub(1).map(dag_row),
        };
        DataRecord {
            id: output_id(t),
            workflow: self.workflow(device),
            derivations: previous.into_iter().chain([input_id(t)]).collect(),
            attributes: vec![(
                Arc::from("result"),
                AttrValue::Float(t as f64 * 0.5 + device as f64),
            )],
        }
    }

    /// Dependencies of task `t`: the task before it.
    pub fn dependencies(t: u64) -> Vec<Id> {
        t.checked_sub(1).map(Id::Num).into_iter().collect()
    }

    /// Task `task` of the preloaded DAG with the rows it generates: row `i`
    /// derives from rows `i - 1` and `i - 2`, so every row fans out into
    /// the two after it and the downstream closure of row `r` is every
    /// later row.
    fn dag_task(&self, task: usize) -> Record {
        let rows = self.workload.preload_rows;
        let first = task * DAG_ROWS_PER_TASK;
        Record::TaskEnd {
            task: TaskRecord {
                // Clear of the ids of live tasks appended to `Q`.
                id: Id::Num(1 << 40 | task as u64),
                workflow: dag_workflow(),
                transformation: Id::from("preload"),
                dependencies: Vec::new(),
                time_ns: 0,
                status: TaskStatus::Finished,
            },
            outputs: (first..rows.min(first + DAG_ROWS_PER_TASK))
                .map(|i| DataRecord {
                    id: dag_row(i),
                    workflow: dag_workflow(),
                    derivations: (i.saturating_sub(2)..i).map(dag_row).collect(),
                    attributes: vec![(Arc::from("w"), AttrValue::Float(i as f64))],
                })
                .collect(),
        }
    }

    /// The preloaded DAG as batches ready for `ShardRouter::route`.
    pub fn dag_batches(&self) -> impl Iterator<Item = Vec<Record>> + '_ {
        const TASKS_PER_BATCH: usize = 16;
        let tasks = self.dag_tasks() as usize;
        (0..tasks).step_by(TASKS_PER_BATCH).map(move |first| {
            (first..tasks.min(first + TASKS_PER_BATCH))
                .map(|task| self.dag_task(task))
                .collect()
        })
    }

    /// Task records the preload adds to the store.
    pub fn dag_tasks(&self) -> u64 {
        self.workload.preload_rows.div_ceil(DAG_ROWS_PER_TASK) as u64
    }

    /// The closure's root row; `None` on a workload without a DAG.
    pub fn dag_root(&self) -> Option<Id> {
        let root = self.workload.preload_rows.checked_sub(DAG_ROOT_BACK)?;
        Some(dag_row(root))
    }

    /// What the downstream closure of the root must return once
    /// `appended` tasks of device 0 are chained onto the DAG: a
    /// breadth-first walk over the benchmark's own edge list, sharing
    /// nothing with the query engine.
    pub fn expected_closure(&self, appended: u64) -> Vec<Id> {
        let rows = self.workload.preload_rows;
        let appended = appended as usize;
        // Nodes: DAG rows, then outputs, then inputs.
        let (out0, in0) = (rows, rows + appended);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); rows + 2 * appended];
        for i in 0..rows {
            for source in &mut children[i.saturating_sub(2)..i] {
                source.push(i);
            }
        }
        for t in 0..appended {
            let previous = if t == 0 { rows - 1 } else { out0 + t - 1 };
            children[previous].push(out0 + t);
            children[in0 + t].push(out0 + t);
        }
        let root = rows - DAG_ROOT_BACK;
        let mut seen = vec![false; children.len()];
        seen[root] = true;
        let mut frontier = std::collections::VecDeque::from([root]);
        let mut reached = Vec::new();
        while let Some(node) = frontier.pop_front() {
            for &child in &children[node] {
                if !std::mem::replace(&mut seen[child], true) {
                    frontier.push_back(child);
                    reached.push(child);
                }
            }
        }
        reached
            .into_iter()
            .map(|n| match n {
                n if n < out0 => dag_row(n),
                n if n < in0 => output_id((n - out0) as u64),
                n => input_id((n - in0) as u64),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped(size: usize) -> Workload {
        Workload {
            group: size,
            ..WORKLOADS[1]
        }
    }

    #[test]
    fn immediate_marks_every_task_end() {
        let w = &WORKLOADS[0];
        assert!(w.is_marker(0, Call::End) && w.is_marker(7, Call::End));
        assert!(!w.is_marker(0, Call::Begin));
        assert_eq!(w.tasks_per_marker(), 1);
    }

    #[test]
    fn grouped_marks_only_the_call_that_closes_a_group() {
        // Size 50: workflow.begin is record 1, so record 50 is the begin of
        // task 24, record 100 the begin of task 49, and no end ever closes.
        let w = grouped(50);
        let markers: Vec<(u64, Call)> = (0..100)
            .flat_map(|t| [(t, Call::Begin), (t, Call::End)])
            .filter(|&(t, c)| w.is_marker(t, c))
            .collect();
        assert_eq!(
            markers,
            vec![
                (24, Call::Begin),
                (49, Call::Begin),
                (74, Call::Begin),
                (99, Call::Begin)
            ]
        );
        assert_eq!(w.tasks_per_marker(), 25);
        // An odd size alternates: record 5 ends task 1, record 10 begins
        // task 4.
        let w = grouped(5);
        assert!(w.is_marker(1, Call::End) && w.is_marker(4, Call::Begin));
        assert!(!w.is_marker(1, Call::Begin) && !w.is_marker(4, Call::End));
        // Every record of a stream belongs to exactly one group: markers are
        // exactly `size` records apart.
        assert_eq!(record_ordinal(24, Call::Begin), 50);
        assert_eq!(record_ordinal(1, Call::End), 5);
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Inputs::new(WORKLOADS[1], 7);
        let b = Inputs::new(WORKLOADS[1], 7);
        let c = Inputs::new(WORKLOADS[1], 8);
        assert_eq!(a.input(1, 42), b.input(1, 42));
        assert_eq!(a.phases(), b.phases());
        assert_ne!(a.input(1, 42), c.input(1, 42));
        assert_ne!(a.input(0, 42).attributes, a.input(1, 42).attributes);
        assert_eq!(a.input(0, 0).attributes.len(), 100);
        assert!(a.phases().iter().all(|p| *p < WORKLOADS[1].period()));
    }

    #[test]
    fn outputs_chain_per_device_and_hang_off_the_dag_when_appending() {
        let own = Inputs::new(WORKLOADS[0], 1);
        assert_eq!(own.output(0, 0).derivations, vec![input_id(0)]);
        assert_eq!(
            own.output(0, 3).derivations,
            vec![output_id(2), input_id(3)]
        );
        let mix = Inputs::new(WORKLOADS[3], 1);
        assert_eq!(
            mix.output(0, 0).derivations,
            vec![dag_row(199_999), input_id(0)]
        );
        assert_eq!(mix.workflow(0), dag_workflow());
    }

    #[test]
    fn closure_oracle_covers_the_dag_tail_and_the_appended_chain() {
        let mix = Inputs::new(WORKLOADS[3], 1);
        let reached = mix.expected_closure(10);
        // 19 999 rows after the root, plus ten outputs; inputs are sources,
        // not descendants.
        assert_eq!(reached.len(), DAG_ROOT_BACK - 1 + 10);
        assert!(reached.contains(&output_id(9)));
        assert!(!reached.contains(&input_id(0)));
        assert_eq!(mix.dag_root(), Some(dag_row(180_000)));
        assert!(!reached.contains(&dag_row(180_000)));
    }

    #[test]
    fn dag_batches_hold_every_row_once() {
        let inputs = Inputs::new(WORKLOADS[3], 1);
        let rows: usize = inputs
            .dag_batches()
            .flatten()
            .map(|r| match r {
                Record::TaskEnd { outputs, .. } => outputs.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(rows, 200_000);
        assert_eq!(
            inputs.dag_batches().flatten().count() as u64,
            inputs.dag_tasks()
        );
        // Only `query_mix` has a DAG, and with it a query leg.
        for workload in &WORKLOADS[..3] {
            let inputs = Inputs::new(*workload, 1);
            assert_eq!(inputs.dag_batches().count(), 0);
            assert_eq!(inputs.dag_root(), None);
        }
    }
}
