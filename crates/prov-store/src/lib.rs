//! # prov-store
//!
//! A DfAnalyzer-style provenance store and query engine.
//!
//! In the paper's integrated architecture (§V), ProvLight captures on the
//! edge and **DfAnalyzer stores and queries** the translated provenance on
//! the cloud (backed by MonetDB). This crate implements that role:
//!
//! * [`schema`] — the dataflow model DfAnalyzer exposes: dataflows,
//!   transformations, datasets, typed attributes;
//! * [`store`] — an in-memory columnar store ingesting capture
//!   [`Record`](prov_model::Record)s at runtime: one table per workflow,
//!   with its task/data/lineage rows and per-attribute typed columns (the
//!   MonetDB substitution);
//! * [`attrs`] — how a row holds its attributes: eight bytes a cell behind
//!   a layout the workflow's table interns per shape;
//! * [`sharded`] — the store behind one lock, as translators and readers
//!   share it: an envelope is ingested under one write lock, a cursor
//!   page is built under one read lock;
//! * [`query`] — the composable traversal engine: queries built from
//!   path steps, filters, and cycle-guarded closure operators, executed
//!   through paginated [`Cursor`]s that run concurrently with live
//!   ingest, plus the [`query::Query`] facade answering the
//!   paper's §I motivating questions (e.g. *"retrieve the hyperparameters
//!   with the 3 best accuracy values"*);
//! * PROV-DM export via [`store::Store::to_prov_document`] for
//!   interoperability (§IV-A).

pub mod attrs;
pub mod query;
pub mod schema;
pub mod sharded;
pub mod smallset;
pub mod store;

pub use attrs::{Attrs, Layout};
pub use query::{
    Cmp, Cursor, CursorOpts, Filter, Hit, LineageDirection, Page, Path, Query, QueryError,
    QueryStats, SnapshotMode, Step,
};
pub use schema::{AttrType, AttributeDef, DataflowSpec, DatasetSpec, TransformationSpec};
pub use sharded::{shared_sharded, ShardRouter, ShardedStore, SharedShardedStore};
pub use smallset::SmallSet;
pub use store::{Store, StoreStats, TaskRow, WorkflowTable};
