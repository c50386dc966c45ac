//! Discrete-event failure/recovery simulator for SFC requests in a mobile
//! edge-cloud network.
//!
//! The analytic model of the paper gives each augmented request a
//! reliability `u_j = Π_i (1 − (1 − r_i)^{k_i+1})` — a *steady-state*
//! probability. This crate closes the loop: it simulates the stochastic
//! processes behind that formula (Poisson arrivals, exponential holding
//! times, per-instance failure/repair cycles whose steady-state availability
//! is exactly `r_i`) and measures the *empirical* time-weighted availability
//! of every admitted request, so analytic predictions and simulated reality
//! can be compared directly — and so repair policies that re-run
//! augmentation at run time can be evaluated against the static baseline.
//!
//! The building blocks:
//! - [`event`]: deterministic future-event list (binary heap keyed by time,
//!   monotone sequence tie-break);
//! - [`process`]: exponential sampling and the MTBF/MTTR ↔ `r_i` derivation;
//! - [`policy`]: pluggable [`RepairPolicy`] implementations
//!   ([`NoRepair`], [`Reactive`], [`PeriodicAudit`]);
//! - [`engine`]: the simulation loop, a failure/repair layer over the stream
//!   engine's per-request step (`relaug::stream::Admission`), which admits
//!   arrivals, re-augments repairs and takes back released capacity;
//! - [`report`]: the per-run [`SloReport`] (empirical vs analytic
//!   availability, outage/repair-latency distributions).
//!
//! Runs are fully deterministic given a seed: same config → byte-identical
//! telemetry and report JSON. See `crates/bench/src/bin/sim_exp.rs` for the
//! CLI harness.

pub mod engine;
pub mod event;
pub mod policy;
pub mod process;
pub mod report;

pub use engine::{run, run_with, PoissonSource, RequestSource, SimConfig};
pub use event::{EventKind, EventQueue, SimEvent};
pub use policy::{from_name, NoRepair, PeriodicAudit, Reactive, RepairPolicy, RequestView};
pub use process::{mtbf_for_availability, sample_exp};
pub use report::{RequestSlo, RunCounts, SloReport};
