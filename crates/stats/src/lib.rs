//! Statistical toolkit for the KEA reproduction.
//!
//! KEA ("Tuning an Exabyte-Scale Data Infrastructure", SIGMOD 2021) leans on
//! classical statistics rather than heavyweight ML: the paper validates every
//! configuration change with Student's t-tests, summarises machine behaviour
//! with robust descriptive statistics, and evaluates production roll-outs
//! with treatment-effect analysis. This crate implements that machinery from
//! scratch:
//!
//! * [`describe`] — streaming and batch descriptive statistics (mean,
//!   variance, percentiles, five-number summaries).
//! * [`dist`] — special functions (log-gamma, regularized incomplete beta)
//!   and the normal / Student-t distributions built on top of them.
//! * [`ttest`] — Welch's two-sample t-test, the Experiment Module's test.
//! * [`power`] — experiment sizing: the required group size (§7's
//!   "relatively large sample size", made quantitative).
//! * [`bootstrap`] — seeded percentile-bootstrap confidence intervals.
//! * [`treatment`] — before/after treatment effects, as used for the
//!   §5.2.2 production roll-out.
//!
//! All randomised routines take explicit [`rand::Rng`] handles so that every
//! KEA experiment is reproducible from a seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bootstrap;
pub mod describe;
pub mod dist;
pub mod error;
pub mod power;
pub mod treatment;
pub mod ttest;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use describe::{mean, median, percentile, stddev, variance, Summary, Welford};
pub use dist::{Normal, StudentsT};
pub use error::StatsError;
pub use power::required_n_two_sample;
pub use treatment::{treatment_effect, TreatmentEffect};
pub use ttest::{t_test_welch, Alternative, TTestResult};
