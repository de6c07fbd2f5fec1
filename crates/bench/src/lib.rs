//! Experiment harness library behind the `repro` binary: one module per
//! table/figure of the paper, plus the measurement suite (`suite`).
//!
//! Every experiment prints the same rows/series the paper reports and a
//! short note recalling the published shape, so paper-vs-measured
//! comparisons (EXPERIMENTS.md) can be regenerated with one command.

pub mod ablations;
pub mod common;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod scenarios;
pub mod schedule;
pub mod stats;
pub mod suite;
pub mod table1;
pub mod table2;
