//! Record shapes shared by the envelope tests. The version 1 bytes pinned in
//! `envelope_door.rs` were made from these at the last commit that could
//! still encode version 1, so nothing here may change what it builds.

use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::sync::Arc;

/// What the attributes of a generated task input hold, as in the benchmark.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Integers in `0..4`.
    SmallInt,
    /// `f64` in `[0, 1)` with every mantissa bit in play.
    RandomF64,
}

fn f64_at(i: u64) -> f64 {
    let mantissa = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 12;
    f64::from_bits(0x3ff0_0000_0000_0000 | mantissa) - 1.0
}

/// The attribute names of a device: one allocation each, shared by every
/// record built from them.
pub fn names(attrs: usize) -> Vec<Arc<str>> {
    (0..attrs).map(|i| Arc::from(format!("a{i}"))).collect()
}

/// What `task.begin([input])` + `task.end([output])` of task `t` put on the
/// wire: the two-record message of the benchmark's immediate workloads.
pub fn task_message(names: &[Arc<str>], kind: Kind, t: u64) -> Vec<Record> {
    let begun = 7_250_000_000 + t * 4_000_000;
    let task = |time_ns, status| TaskRecord {
        id: Id::Num(t),
        workflow: Id::Num(1),
        transformation: Id::from("step"),
        dependencies: t.checked_sub(1).map(Id::Num).into_iter().collect(),
        time_ns,
        status,
    };
    let input = DataRecord {
        id: Id::from(format!("in{t}")),
        workflow: Id::Num(1),
        derivations: Vec::new(),
        attributes: names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let cell = t * names.len() as u64 + i as u64;
                let value = match kind {
                    Kind::SmallInt => AttrValue::Int((cell * 7 % 4) as i64),
                    Kind::RandomF64 => AttrValue::Float(f64_at(cell)),
                };
                (Arc::clone(name), value)
            })
            .collect(),
    };
    let output = DataRecord {
        id: Id::from(format!("out{t}")),
        workflow: Id::Num(1),
        derivations: t
            .checked_sub(1)
            .map(|p| Id::from(format!("out{p}")))
            .into_iter()
            .chain([Id::from(format!("in{t}"))])
            .collect(),
        attributes: vec![(Arc::from("result"), AttrValue::Float(t as f64 * 0.5))],
    };
    vec![
        Record::TaskBegin {
            task: task(begun, TaskStatus::Running),
            inputs: vec![input],
        },
        Record::TaskEnd {
            task: task(begun + 2_750, TaskStatus::Finished),
            outputs: vec![output],
        },
    ]
}

/// `tasks` consecutive tasks as one grouped message.
pub fn group(names: &[Arc<str>], kind: Kind, tasks: u64) -> Vec<Record> {
    (0..tasks)
        .flat_map(|t| task_message(names, kind, t))
        .collect()
}

/// Every record variant, id form and value type, with a data record that
/// belongs to another workflow than its task and times that run backwards.
pub fn mixed_batch() -> Vec<Record> {
    let task = |id: Id, time_ns, status| TaskRecord {
        id,
        workflow: Id::from("wf-edge"),
        transformation: Id::from("train"),
        dependencies: vec![Id::Num(300), Id::from("warmup")],
        time_ns,
        status,
    };
    let sample = |id: &str, loss: f64| {
        DataRecord::new(id, "wf-edge")
            .with_attr("loss", loss)
            .with_attr("epoch", 3i64)
            .with_attr("site", "edge")
    };
    vec![
        Record::WorkflowBegin {
            workflow: Id::from("wf-edge"),
            time_ns: 1_000_000_000,
        },
        Record::TaskBegin {
            task: task(Id::Num(7), 1_000_400_000, TaskStatus::Running),
            inputs: vec![
                sample("in-a", 0.5),
                sample("in-b", 0.25).derived_from("in-a"),
                DataRecord::new(9u64, 2u64)
                    .with_attr("none", AttrValue::Null)
                    .with_attr("flag", true)
                    .with_attr("big", i64::MIN)
                    .with_attr("list", vec![1i64, -2, 3])
                    .with_attr("digest", AttrValue::Bytes(vec![0, 1, 254, 255])),
            ],
        },
        Record::TaskEnd {
            task: task(Id::from("t-8"), 999_999_000, TaskStatus::Finished),
            outputs: vec![
                sample("out-a", 0.125)
                    .derived_from("in-a")
                    .derived_from("in-b"),
                DataRecord::new("bare", "wf-edge"),
            ],
        },
        Record::WorkflowEnd {
            workflow: Id::from("wf-edge"),
            time_ns: u64::MAX,
        },
    ]
}
