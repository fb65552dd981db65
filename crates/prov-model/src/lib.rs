//! # prov-model
//!
//! The provenance data model underlying ProvLight.
//!
//! This crate contains two layers:
//!
//! 1. [`provdm`] — a faithful implementation of the core of the
//!    **W3C PROV-DM** recommendation: `Entity` / `Activity` / `Agent`
//!    elements, the seven core relations, a validated provenance document
//!    graph, and a PROV-N serializer.
//! 2. [`record`] — the **ProvLight data exchange model** (paper Table V):
//!    the simplified `Workflow` / `Task` / `Data` classes that the capture
//!    library transmits over the wire, together with the mapping back into
//!    PROV-DM ([`mapping`]).
//!
//! The design goal mirrors the paper: a domain-agnostic, minimal schema that
//! is cheap to serialize on a 600 MHz ARM device yet loses nothing when
//! translated into PROV-DM-compliant downstream systems (DfAnalyzer,
//! ProvLake, PROV-IO, ...).

pub mod ids;
pub mod mapping;
pub mod provdm;
pub mod record;
pub mod value;

pub use ids::Id;
pub use provdm::{Element, ElementKind, ProvDocument, Relation, RelationKind};
pub use record::{DataRecord, Record, TaskRecord, TaskStatus};
pub use value::AttrValue;
