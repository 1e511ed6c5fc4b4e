//! # qarith-perfbench — the repository benchmark
//!
//! Drives the real serving stack the way its users do: SQL over the
//! `qarith-net` wire protocol, against a `QueryService` hosted by
//! `NetServer::start` on loopback, at medium scale (20,000 tuples),
//! from at most two client connections. Three workloads
//! ([`load::Workload`]) cross the paper's query families with how much
//! work requests share and with writes. Every input comes from the
//! `--seed` argument ([`streams`]); every percentile is computed from
//! raw per-request samples ([`stats::percentile`]). Timings are also
//! reported at the host's reference speed, measured by a yardstick
//! timed while the load pauses ([`calib`]).
//!
//! A run either measures end to end ([`run::run_e2e`], `--trace 0`) or
//! replays the served history through each layer's public functions
//! with a span around every call ([`run::run_trace`], `--trace 1`).
//! See `perfbench/README.md` for the metrics and what each one should
//! move.

#![forbid(unsafe_code)]

pub mod calib;
pub mod load;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod streams;
