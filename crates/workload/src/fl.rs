//! Federated Learning use-case workload (paper §II-B2).
//!
//! Generates a realistic capture stream for one FL client device: a
//! `prepare` task, `epochs` training tasks (each consuming hyperparameters
//! and producing per-epoch metrics with improving accuracy / decaying
//! loss), and an `evaluate` task — the prepare → train → evaluate dataflow
//! of the paper's FL example.

use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// FL training configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlConfig {
    /// Number of training epochs (tasks of the `train` transformation).
    pub epochs: usize,
    /// Virtual duration of one epoch.
    pub epoch_duration: Duration,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Batch size.
    pub batch_size: i64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            epochs: 10,
            epoch_duration: Duration::from_millis(500),
            learning_rate: 0.01,
            batch_size: 32,
        }
    }
}

/// Generates the capture records of one FL client's training run, with
/// nominal timestamps. Deterministic per seed.
pub fn fl_capture_stream(workflow_id: u64, config: &FlConfig, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let wf = Id::Num(workflow_id);
    let mut records = Vec::with_capacity(config.epochs * 2 + 6);
    let mut clock: u64 = 0;
    let epoch_ns = config.epoch_duration.as_nanos() as u64;

    records.push(Record::WorkflowBegin {
        workflow: wf.clone(),
        time_ns: clock,
    });

    // prepare
    let prepare = TaskRecord {
        id: Id::Str("prepare".into()),
        workflow: wf.clone(),
        transformation: Id::Str("prepare".into()),
        dependencies: vec![],
        time_ns: clock,
        status: TaskStatus::Running,
    };
    records.push(Record::TaskBegin {
        task: prepare.clone(),
        inputs: vec![DataRecord::new("raw", workflow_id).with_attr("samples", 60_000i64)],
    });
    clock += epoch_ns / 2;
    let mut prepare_end = prepare;
    prepare_end.time_ns = clock;
    prepare_end.status = TaskStatus::Finished;
    records.push(Record::TaskEnd {
        task: prepare_end,
        outputs: vec![DataRecord::new("hp", workflow_id)
            .with_attr("learning_rate", config.learning_rate)
            .with_attr("batch_size", config.batch_size)
            .with_attr("epochs", config.epochs as i64)
            .derived_from("raw")],
    });

    // train: one task per epoch
    let mut accuracy: f64 = 0.45 + rng.gen::<f64>() * 0.1;
    let mut loss: f64 = 2.0 + rng.gen::<f64>() * 0.3;
    let mut prev = Id::Str("prepare".into());
    for epoch in 0..config.epochs {
        let tid = Id::Str(format!("epoch{epoch}").into());
        let task = TaskRecord {
            id: tid.clone(),
            workflow: wf.clone(),
            transformation: Id::Str("train".into()),
            dependencies: vec![prev.clone()],
            time_ns: clock,
            status: TaskStatus::Running,
        };
        records.push(Record::TaskBegin {
            task: task.clone(),
            inputs: vec![DataRecord::new("hp", workflow_id)],
        });
        clock += epoch_ns;
        accuracy = (accuracy + rng.gen::<f64>() * 0.08).min(0.99);
        loss = (loss * (0.82 + rng.gen::<f64>() * 0.1)).max(0.01);
        let mut task_end = task;
        task_end.time_ns = clock;
        task_end.status = TaskStatus::Finished;
        records.push(Record::TaskEnd {
            task: task_end,
            outputs: vec![DataRecord::new(format!("metrics{epoch}"), workflow_id)
                .with_attr("epoch", epoch as i64)
                .with_attr("accuracy", accuracy)
                .with_attr("loss", loss)
                .with_attr("elapsed_s", config.epoch_duration.as_secs_f64())
                .derived_from("hp")],
        });
        prev = tid;
    }

    // evaluate
    let eval = TaskRecord {
        id: Id::Str("evaluate".into()),
        workflow: wf.clone(),
        transformation: Id::Str("evaluate".into()),
        dependencies: vec![prev],
        time_ns: clock,
        status: TaskStatus::Running,
    };
    records.push(Record::TaskBegin {
        task: eval.clone(),
        inputs: vec![DataRecord::new(
            format!("metrics{}", config.epochs - 1),
            workflow_id,
        )],
    });
    clock += epoch_ns / 2;
    let mut eval_end = eval;
    eval_end.time_ns = clock;
    eval_end.status = TaskStatus::Finished;
    records.push(Record::TaskEnd {
        task: eval_end,
        outputs: vec![DataRecord::new("model", workflow_id)
            .with_attr("size_bytes", 1_048_576i64)
            .with_attr("final_accuracy", accuracy)
            .derived_from(format!("metrics{}", config.epochs - 1))],
    });
    records.push(Record::WorkflowEnd {
        workflow: wf,
        time_ns: clock,
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_shape() {
        let cfg = FlConfig::default();
        let records = fl_capture_stream(1, &cfg, 42);
        // begin + end + prepare(2) + 10 epochs (2 each) + evaluate(2) = 26.
        assert_eq!(records.len(), 26);
        assert!(matches!(records[0], Record::WorkflowBegin { .. }));
        assert!(matches!(records.last(), Some(Record::WorkflowEnd { .. })));
    }

    #[test]
    fn accuracy_improves_and_loss_decays() {
        let records = fl_capture_stream(1, &FlConfig::default(), 7);
        let accs: Vec<f64> = records
            .iter()
            .filter_map(|r| match r {
                Record::TaskEnd { outputs, .. } => outputs
                    .first()
                    .and_then(|d| d.attr("accuracy"))
                    .and_then(|v| v.as_float()),
                _ => None,
            })
            .collect();
        assert_eq!(accs.len(), 10);
        assert!(accs.last().unwrap() > accs.first().unwrap());
        let losses: Vec<f64> = records
            .iter()
            .filter_map(|r| match r {
                Record::TaskEnd { outputs, .. } => outputs
                    .first()
                    .and_then(|d| d.attr("loss"))
                    .and_then(|v| v.as_float()),
                _ => None,
            })
            .collect();
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fl_capture_stream(1, &FlConfig::default(), 3);
        let b = fl_capture_stream(1, &FlConfig::default(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn epochs_depend_on_predecessor() {
        let records = fl_capture_stream(1, &FlConfig::default(), 3);
        let deps: Vec<Vec<Id>> = records
            .iter()
            .filter_map(|r| match r {
                Record::TaskBegin { task, .. }
                    if task.transformation == Id::Str("train".into()) =>
                {
                    Some(task.dependencies.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(deps[0], vec![Id::from("prepare")]);
        assert_eq!(deps[1], vec![Id::from("epoch0")]);
    }
}
