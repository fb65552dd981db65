//! The ProvLight data exchange model (paper Table V).
//!
//! These are the wire-level units produced by the capture library. They map
//! onto PROV-DM as follows:
//!
//! | PROV-DM type | ProvLight class | relationships carried |
//! |---|---|---|
//! | Agent    | `Workflow` | — |
//! | Activity | [`TaskRecord`] | `wasAssociatedWith` (workflow), `wasInformedBy` (dependencies), `used` / `wasGeneratedBy` (data) |
//! | Entity   | [`DataRecord`] | `wasAttributedTo` (workflow), `wasDerivedFrom` (derivations) |
//!
//! A [`Record`] is one captured message, i.e. what `workflow.begin()`,
//! `task.begin(..)`, `task.end(..)` and `workflow.end()` emit in Listing 1.

use crate::ids::Id;
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Task lifecycle status (paper Table V: "running or finished").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskStatus {
    /// The task has started and not yet ended.
    Running,
    /// The task has ended.
    Finished,
}

impl TaskStatus {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            TaskStatus::Running => 0,
            TaskStatus::Finished => 1,
        }
    }

    /// Inverse of [`TaskStatus::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TaskStatus::Running),
            1 => Some(TaskStatus::Finished),
            _ => None,
        }
    }
}

/// The `Task` class: one processing step of a workflow (PROV-DM *Activity*).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task id.
    pub id: Id,
    /// Workflow this task belongs to (`wasAssociatedWith`).
    pub workflow: Id,
    /// Transformation (processing-step kind) this task instantiates.
    /// DfAnalyzer calls this the *data transformation*; for a Federated
    /// Learning workload, e.g. `training`.
    pub transformation: Id,
    /// Tasks this task depends on (`wasInformedBy`).
    pub dependencies: Vec<Id>,
    /// Event time in nanoseconds since workflow epoch (start or end time
    /// depending on the enclosing [`Record`] variant).
    pub time_ns: u64,
    /// Task status at capture time.
    pub status: TaskStatus,
}

impl TaskRecord {
    /// Approximate heap footprint, for the device memory accountant.
    pub fn approx_size(&self) -> usize {
        self.id.approx_size()
            + self.workflow.approx_size()
            + self.transformation.approx_size()
            + 24
            + self.dependencies.iter().map(Id::approx_size).sum::<usize>()
            + 9
    }
}

/// The `Data` class: a data item used or generated by tasks (PROV-DM
/// *Entity*).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataRecord {
    /// Data id.
    pub id: Id,
    /// Workflow this data belongs to (`wasAttributedTo`).
    pub workflow: Id,
    /// Chained data this item was derived from (`wasDerivedFrom`).
    pub derivations: Vec<Id>,
    /// Attribute name/value pairs. Names are `Arc<str>` so decoded batches
    /// share one allocation per distinct name across records.
    pub attributes: Vec<(Arc<str>, AttrValue)>,
}

impl DataRecord {
    /// Convenience constructor with no derivations.
    pub fn new(id: impl Into<Id>, workflow: impl Into<Id>) -> Self {
        DataRecord {
            id: id.into(),
            workflow: workflow.into(),
            derivations: Vec::new(),
            attributes: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, name: impl Into<Arc<str>>, value: impl Into<AttrValue>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a derivation link (builder style).
    pub fn derived_from(mut self, id: impl Into<Id>) -> Self {
        self.derivations.push(id.into());
        self
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attributes
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Approximate heap footprint, for the device memory accountant.
    pub fn approx_size(&self) -> usize {
        self.id.approx_size()
            + self.workflow.approx_size()
            + 24
            + self.derivations.iter().map(Id::approx_size).sum::<usize>()
            + 24
            + self
                .attributes
                .iter()
                .map(|(n, v)| 24 + n.len() + v.approx_size())
                .sum::<usize>()
    }
}

/// One captured provenance message.
///
/// `TaskBegin` carries the task's *input* data (PROV-DM `used`), `TaskEnd`
/// carries the *output* data (`wasGeneratedBy`), exactly as the paper's
/// Listing 1 `task.begin([data_in])` / `task.end([data_out])`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// `workflow.begin()`
    WorkflowBegin {
        /// Workflow id (PROV-DM Agent).
        workflow: Id,
        /// Begin time (ns since epoch).
        time_ns: u64,
    },
    /// `workflow.end()`
    WorkflowEnd {
        /// Workflow id.
        workflow: Id,
        /// End time (ns since epoch).
        time_ns: u64,
    },
    /// `task.begin(inputs)`
    TaskBegin {
        /// The starting task (status `Running`).
        task: TaskRecord,
        /// Input data items (`used`).
        inputs: Vec<DataRecord>,
    },
    /// `task.end(outputs)`
    TaskEnd {
        /// The ending task (status `Finished`).
        task: TaskRecord,
        /// Output data items (`wasGeneratedBy`).
        outputs: Vec<DataRecord>,
    },
}

impl Record {
    /// The workflow id this record belongs to.
    pub fn workflow(&self) -> &Id {
        match self {
            Record::WorkflowBegin { workflow, .. } | Record::WorkflowEnd { workflow, .. } => {
                workflow
            }
            Record::TaskBegin { task, .. } | Record::TaskEnd { task, .. } => &task.workflow,
        }
    }

    /// Event time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        match self {
            Record::WorkflowBegin { time_ns, .. } | Record::WorkflowEnd { time_ns, .. } => *time_ns,
            Record::TaskBegin { task, .. } | Record::TaskEnd { task, .. } => task.time_ns,
        }
    }

    /// True for `TaskEnd` / `WorkflowEnd` records. The ProvLight grouping
    /// policy `EndedTasksOnly` only defers these (paper §IV-C: users may
    /// still track *started* tasks at runtime).
    pub fn is_end_event(&self) -> bool {
        matches!(self, Record::TaskEnd { .. } | Record::WorkflowEnd { .. })
    }

    /// Approximate heap footprint, for the device memory accountant.
    pub fn approx_size(&self) -> usize {
        match self {
            Record::WorkflowBegin { workflow, .. } | Record::WorkflowEnd { workflow, .. } => {
                workflow.approx_size() + 9
            }
            Record::TaskBegin { task, inputs: d } | Record::TaskEnd { task, outputs: d } => {
                task.approx_size() + 24 + d.iter().map(DataRecord::approx_size).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> TaskRecord {
        TaskRecord {
            id: Id::Num(1),
            workflow: Id::Num(9),
            transformation: Id::Num(0),
            dependencies: vec![Id::Num(0)],
            time_ns: 123,
            status: TaskStatus::Running,
        }
    }

    #[test]
    fn status_tag_roundtrip() {
        for s in [TaskStatus::Running, TaskStatus::Finished] {
            assert_eq!(TaskStatus::from_tag(s.tag()), Some(s));
        }
        assert_eq!(TaskStatus::from_tag(7), None);
    }

    #[test]
    fn record_workflow_and_time() {
        let r = Record::TaskBegin {
            task: sample_task(),
            inputs: vec![],
        };
        assert_eq!(r.workflow(), &Id::Num(9));
        assert_eq!(r.time_ns(), 123);
        assert!(!r.is_end_event());
        let e = Record::WorkflowEnd {
            workflow: Id::Num(9),
            time_ns: 7,
        };
        assert!(e.is_end_event());
        assert_eq!(e.time_ns(), 7);
    }

    #[test]
    fn data_builder_and_lookup() {
        let d = DataRecord::new("in1", 9u64)
            .with_attr("lr", 0.1)
            .with_attr("epochs", 10i64)
            .derived_from("out0");
        assert_eq!(d.attr("lr"), Some(&AttrValue::Float(0.1)));
        assert_eq!(d.attr("epochs"), Some(&AttrValue::Int(10)));
        assert_eq!(d.attr("missing"), None);
        assert_eq!(d.derivations, vec![Id::from("out0")]);
    }

    #[test]
    fn approx_size_grows_with_payload() {
        let small = Record::TaskBegin {
            task: sample_task(),
            inputs: vec![DataRecord::new(1u64, 9u64)],
        };
        let big = Record::TaskBegin {
            task: sample_task(),
            inputs: vec![DataRecord::new(1u64, 9u64).with_attr("attr_name", "some value")],
        };
        assert!(big.approx_size() > small.approx_size());
    }
}
