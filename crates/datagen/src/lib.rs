//! Seeded synthetic data generation (the §9 evaluation's data side).
//!
//! Layering: above `qarith-types`/`qarith-sql`, below `qarith-bench`
//! (whose suite and serving load replay the workloads defined here).
//!
//! The paper's §9 evaluation uses DataFiller ("generate random data from
//! database schema") to build a ~200K-tuple sales database with nulls,
//! then replaces SQL `NULL`s with distinct markers to obtain marked
//! nulls. This crate is the equivalent generator for the qarith data
//! model: declarative per-column value generators with per-column null
//! probabilities, deterministic under a seed, allocating globally-unique
//! marked-null ids.
//!
//! [`sales`] builds the paper's exact schema (`Products`, `Orders`,
//! `Market`) at configurable scales, along with the three §9
//! decision-support queries as SQL text. [`workload`] spans the
//! scale × query-family grid on top of it: a [`workload::WorkloadSpec`]
//! deterministically names a database plus a family of SQL queries, the
//! unit the `bench_suite` driver (crate `qarith-bench`) measures and
//! the CI perf baseline pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod mutations;
pub mod sales;
pub mod workload;

pub use generator::{ColumnGen, ColumnSpec, Generator, TableSpec};
pub use workload::{QueryFamily, Workload, WorkloadQuery, WorkloadScale, WorkloadSpec};
