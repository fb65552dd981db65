//! Schedule generation — the executable form of a workload.
//!
//! A [`Schedule`] is the sequence of steps the synthetic workflow performs:
//! compute phases (the task bodies) interleaved with capture emissions,
//! generated to mirror the paper's Listing 1 line by line:
//!
//! * `workflow.begin()` / `workflow.end()`;
//! * per task: `Task(...)` linked to the workflow and the previous task,
//!   `task.begin([data_in])` before the body, `task.end([data_out])` after;
//! * input data `in{id}` with the attribute payload, output data `out{id}`
//!   derived from `in{id}` (`wasDerivedFrom` chaining).

use crate::spec::{ValueFill, WorkloadSpec};
use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One step of the workflow.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Run the task body for this long (the `#### ADD YOUR TASK HERE ####`
    /// line of Listing 1).
    Compute(Duration),
    /// Emit a capture record (a call into the capture library).
    Emit(Record),
}

/// A fully generated workflow schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Workflow id.
    pub workflow: Id,
    /// The steps in order.
    pub steps: Vec<Step>,
    /// The spec this schedule was generated from.
    pub spec: WorkloadSpec,
}

impl Schedule {
    /// Sum of compute durations — the no-capture baseline elapsed time.
    pub fn compute_total(&self) -> Duration {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Compute(d) => Some(*d),
                Step::Emit(_) => None,
            })
            .sum()
    }
}

/// Counts the scalar values a record carries (list attributes count their
/// elements) — the `attrs` input to the calibrated cost functions.
pub fn record_value_count(record: &Record) -> usize {
    fn value_scalars(v: &AttrValue) -> usize {
        match v {
            AttrValue::List(items) => items.iter().map(value_scalars).sum::<usize>().max(1),
            _ => 1,
        }
    }
    match record {
        Record::TaskBegin { inputs: d, .. } | Record::TaskEnd { outputs: d, .. } => d
            .iter()
            .flat_map(|x| x.attributes.iter())
            .map(|(_, v)| value_scalars(v))
            .sum(),
        _ => 0,
    }
}

fn make_values(fill: ValueFill, n: usize, rng: &mut StdRng, constant: i64) -> AttrValue {
    match fill {
        ValueFill::Constant => AttrValue::List(vec![AttrValue::Int(constant); n]),
        ValueFill::Random => {
            AttrValue::List((0..n).map(|_| AttrValue::Float(rng.gen::<f64>())).collect())
        }
    }
}

/// Generates the synthetic workflow schedule for a spec (deterministic for
/// a given seed).
pub fn generate(spec: &WorkloadSpec, workflow_id: u64, seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let workflow = Id::Num(workflow_id);
    let mut steps = Vec::with_capacity(2 + spec.tasks * 3 + spec.chained_transformations);
    let mut clock_ns: u64 = 0;

    steps.push(Step::Emit(Record::WorkflowBegin {
        workflow: workflow.clone(),
        time_ns: clock_ns,
    }));

    let per_transf = spec.tasks_per_transformation();
    let mut data_id: u64 = 0;
    let mut previous_task: Vec<Id> = Vec::new();

    for transf_id in 0..spec.chained_transformations {
        for task_in_transf in 0..per_transf {
            data_id += 1;
            // Listing 1 forms the task id from the transformation and task
            // counters; we keep them globally unique.
            let task_id = Id::Num((transf_id * per_transf + task_in_transf) as u64);
            let task = TaskRecord {
                id: task_id.clone(),
                workflow: workflow.clone(),
                transformation: Id::Num(transf_id as u64),
                dependencies: previous_task.clone(),
                time_ns: clock_ns,
                status: TaskStatus::Running,
            };
            let data_in = DataRecord {
                id: Id::Str(format!("in{data_id}").into()),
                workflow: workflow.clone(),
                derivations: if data_id > 1 {
                    vec![Id::Str(format!("out{}", data_id - 1).into())]
                } else {
                    Vec::new()
                },
                attributes: vec![(
                    "in".into(),
                    make_values(spec.value_fill, spec.attrs_per_task, &mut rng, 1),
                )],
            };
            steps.push(Step::Emit(Record::TaskBegin {
                task: task.clone(),
                inputs: vec![data_in],
            }));

            steps.push(Step::Compute(spec.task_duration));
            clock_ns += spec.task_duration.as_nanos() as u64;

            let mut task_end = task;
            task_end.time_ns = clock_ns;
            task_end.status = TaskStatus::Finished;
            let data_out = DataRecord {
                id: Id::Str(format!("out{data_id}").into()),
                workflow: workflow.clone(),
                derivations: vec![Id::Str(format!("in{data_id}").into())],
                attributes: vec![(
                    "out".into(),
                    make_values(spec.value_fill, spec.attrs_per_task, &mut rng, 2),
                )],
            };
            steps.push(Step::Emit(Record::TaskEnd {
                task: task_end,
                outputs: vec![data_out],
            }));
            previous_task = vec![task_id];
        }
    }

    steps.push(Step::Emit(Record::WorkflowEnd {
        workflow: workflow.clone(),
        time_ns: clock_ns,
    }));

    Schedule {
        workflow,
        steps,
        spec: *spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_listing1() {
        let spec = WorkloadSpec::table1(10, 0.5);
        let s = generate(&spec, 1, 42);
        // wf begin + wf end + per task (begin + end) = 202 emits.
        let emits = s.steps.iter().filter(|s| matches!(s, Step::Emit(_)));
        assert_eq!(emits.count(), 202);
        assert_eq!(s.compute_total(), Duration::from_secs(50));
        assert!(matches!(
            s.steps.first(),
            Some(Step::Emit(Record::WorkflowBegin { .. }))
        ));
        assert!(matches!(
            s.steps.last(),
            Some(Step::Emit(Record::WorkflowEnd { .. }))
        ));
    }

    #[test]
    fn tasks_chain_across_transformations() {
        let spec = WorkloadSpec::table1(10, 0.5);
        let s = generate(&spec, 1, 42);
        let begins: Vec<&TaskRecord> = s
            .steps
            .iter()
            .filter_map(|st| match st {
                Step::Emit(Record::TaskBegin { task, .. }) => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 100);
        // First task has no dependency, all others depend on predecessor.
        assert!(begins[0].dependencies.is_empty());
        for w in begins.windows(2) {
            assert_eq!(w[1].dependencies, vec![w[0].id.clone()]);
        }
        // 5 distinct transformations, 20 tasks each.
        let mut per_transf = std::collections::HashMap::new();
        for b in &begins {
            *per_transf.entry(b.transformation.clone()).or_insert(0usize) += 1;
        }
        assert_eq!(per_transf.len(), 5);
        assert!(per_transf.values().all(|&c| c == 20));
    }

    #[test]
    fn data_derivation_chain() {
        let spec = WorkloadSpec::table1(10, 1.0);
        let s = generate(&spec, 1, 42);
        let ends: Vec<&Record> = s
            .steps
            .iter()
            .filter_map(|st| match st {
                Step::Emit(r @ Record::TaskEnd { .. }) => Some(r),
                _ => None,
            })
            .collect();
        match ends[0] {
            Record::TaskEnd { outputs, .. } => {
                assert_eq!(outputs[0].id, Id::from("out1"));
                assert_eq!(outputs[0].derivations, vec![Id::from("in1")]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn value_counts_match_spec() {
        for attrs in [10, 100] {
            let spec = WorkloadSpec::table1(attrs, 0.5);
            let s = generate(&spec, 1, 7);
            for st in &s.steps {
                if let Step::Emit(r @ (Record::TaskBegin { .. } | Record::TaskEnd { .. })) = st {
                    assert_eq!(record_value_count(r), attrs);
                }
            }
        }
    }

    #[test]
    fn constant_fill_matches_listing_values() {
        let mut spec = WorkloadSpec::table1(3, 0.5);
        spec.value_fill = ValueFill::Constant;
        let s = generate(&spec, 1, 0);
        let first_begin = s
            .steps
            .iter()
            .find_map(|st| match st {
                Step::Emit(Record::TaskBegin { inputs, .. }) => Some(&inputs[0]),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            first_begin.attr("in"),
            Some(&AttrValue::List(vec![AttrValue::Int(1); 3]))
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = WorkloadSpec::table1(10, 0.5);
        let a = generate(&spec, 1, 9);
        let b = generate(&spec, 1, 9);
        assert_eq!(a.steps, b.steps);
        let c = generate(&spec, 1, 10);
        assert_ne!(a.steps, c.steps);
    }

    #[test]
    fn nested_list_value_counting() {
        use prov_model::TaskStatus;
        let rec = Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(0),
                workflow: Id::Num(0),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![DataRecord::new(1u64, 0u64)
                .with_attr("scalar", 5i64)
                .with_attr("flat", vec![1i64, 2, 3])],
        };
        assert_eq!(record_value_count(&rec), 4);
        assert_eq!(
            record_value_count(&Record::WorkflowBegin {
                workflow: Id::Num(0),
                time_ns: 0
            }),
            0
        );
    }
}
