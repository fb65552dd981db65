//! # provlight-core
//!
//! **ProvLight**: efficient workflow provenance capture for IoT/Edge
//! devices — the paper's primary contribution.
//!
//! The crate implements both sides of the Fig. 3 architecture:
//!
//! * **Client** — the capture library applications instrument their
//!   workflows with ([`api`], mirroring the paper's Listing 1), a
//!   [`grouping`] stage (optionally deferring only *ended* tasks so
//!   started tasks remain trackable at runtime), compression + binary
//!   framing (via `prov-codec`), the sans-io [`device`] end that coalesces,
//!   buffers, paces, reconnects and replays, and an asynchronous
//!   [`transmitter`] thread that drives it over MQTT-SN with QoS 2 on a
//!   reused connection;
//! * **Server** — the Provenance Manager ([`server`]): an MQTT-SN broker
//!   plus the *provenance data translator* ([`translator`]) that converts
//!   the ProvLight wire format into downstream systems' models
//!   (DfAnalyzer-style store ingestion, PROV documents).
//!
//! Two execution modes share all protocol logic:
//!
//! * **real mode** ([`client`], [`server`]) over UDP sockets — what a
//!   deployment uses;
//! * **simulation mode** ([`sim`]) — a calibrated virtual-time driver used
//!   to reproduce the paper's evaluation on modelled A8-M3 devices.

pub mod api;
pub mod client;
pub mod config;
pub mod device;
pub mod grouping;
pub mod server;
pub mod sim;
pub mod translator;
pub mod transmitter;

pub use api::{CaptureError, CaptureSession, RecordSink, Task, VecSink, Workflow};
pub use client::ProvLightClient;
pub use config::{CaptureConfig, GroupPolicy};
pub use server::ProvenanceManager;
pub use sim::{ProvLightSimConfig, SimProvLight};
pub use translator::{DfAnalyzerTranslator, ProvDocumentTranslator, Translator};
pub use transmitter::{Transmitter, TransmitterStats};
