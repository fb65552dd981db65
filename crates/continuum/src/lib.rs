//! # provlight-continuum
//!
//! The E2Clab-style experiment harness (paper §V): reproducible
//! Edge-to-Cloud provenance-capture experiments.
//!
//! * [`stats`] — repetition statistics: mean and 95 % confidence interval,
//!   matching the paper's "mean of 10 runs with their 95 % CI";
//! * [`config`] — the Listing 2 experiment-configuration model
//!   (layers / services / provenance manager) with a parser for the
//!   paper's YAML-subset syntax;
//! * [`experiment`] — scenario definitions ({system} × {workload} ×
//!   {network} × {device}) and the measurement loop;
//! * [`tables`] — one generator per paper table/figure, each returning
//!   paper-reference vs. measured rows (printed by the bench harness,
//!   asserted by tests);
//! * [`deployment`] — the Provenance Manager (§V-A): the ProvLight
//!   broker, its translator and the DfAnalyzer-style store for real-mode
//!   deployments, and the plan a parsed config maps onto.

pub mod config;
pub mod deployment;
pub mod experiment;
pub mod network;
pub mod stats;
pub mod tables;

pub use config::{ExperimentConfig, Layer, Service};
pub use deployment::ProvenanceManager;
pub use experiment::{measure, Measurement, Scenario, ScenarioResult, System};
pub use network::{parse_networks, NetworkRule};
pub use stats::Sample;
