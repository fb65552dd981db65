//! Workload configurations (paper Table I).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How synthetic attribute values are filled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueFill {
    /// Literal constants, exactly as the paper's Listing 1 (`[1]*attrs`
    /// inputs, `[2]*attrs` outputs). Highly compressible.
    Constant,
    /// Seeded random doubles — representative of real metrics
    /// (losses, accuracies, timings) and nearly incompressible. Used for
    /// the evaluation runs so byte counts are not flattered by
    /// compression.
    Random,
}

/// One synthetic workload configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of chained transformations (paper: 5).
    pub chained_transformations: usize,
    /// Total number of tasks across all transformations (paper: 100).
    pub tasks: usize,
    /// Attributes per task (paper: 10 or 100).
    pub attrs_per_task: usize,
    /// Duration of each task (paper: 0.5, 1, 3.5 or 5 s).
    pub task_duration: Duration,
    /// Attribute value generation.
    pub value_fill: ValueFill,
}

impl WorkloadSpec {
    /// The paper's base configuration with the given attribute count and
    /// task duration.
    pub fn table1(attrs_per_task: usize, task_duration_s: f64) -> Self {
        WorkloadSpec {
            chained_transformations: 5,
            tasks: 100,
            attrs_per_task,
            task_duration: Duration::from_secs_f64(task_duration_s),
            value_fill: ValueFill::Random,
        }
    }

    /// Tasks per transformation (the paper divides evenly).
    pub fn tasks_per_transformation(&self) -> usize {
        self.tasks / self.chained_transformations.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = WorkloadSpec::table1(100, 0.5);
        assert_eq!(s.tasks_per_transformation(), 20);
    }
}
