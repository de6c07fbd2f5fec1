//! Experiment harness library behind the `repro` binary: the paper's
//! tables and figures (`paper`, one pass per scenario), the Figure 2,
//! scenario-table and schedule printouts, the ablations, and the
//! measurement suite (`suite`).
//!
//! Every experiment prints the same rows/series the paper reports and a
//! short note recalling the published shape, so paper-vs-measured
//! comparisons (EXPERIMENTS.md) can be regenerated with one command.

pub mod ablations;
pub mod common;
pub mod figure2;
pub mod paper;
pub mod scenarios;
pub mod schedule;
pub mod suite;
