//! # relaug — service reliability augmentation for SFC requests
//!
//! Reproduction of the core contribution of *"Reliability Augmentation of
//! Requests with Service Function Chain Requirements in Mobile Edge-Cloud
//! Networks"* (Liang, Ma, Xu, Jia, Chau — ICPP 2020).
//!
//! An admitted request `j` has a service function chain `SFC_j` whose primary
//! VNF instances already sit on cloudlets of an MEC network. Placing `k`
//! secondary (backup) instances of function `f_i` lifts its reliability to
//! `R(f_i, k) = 1 - (1 - r_i)^{k+1}`; the request's reliability is the product
//! over the chain. Secondaries may only go to cloudlets within `l` hops of the
//! primary's cloudlet, every cloudlet has a residual computing capacity, and
//! the goal is to raise the request's reliability to its expectation `ρ_j`
//! (or as high as resources allow). The problem is NP-hard (reduction from
//! the minimum-cost generalized assignment problem; Theorem 3.1).
//!
//! Three algorithms are provided, exactly the paper's lineup:
//!
//! | Paper | Module | Guarantee |
//! |---|---|---|
//! | Section 4 ILP | [`ilp`] | exact optimum (branch & bound on [`milp`]) |
//! | Algorithm 1 | [`randomized`] | approximation w.h.p., bounded capacity violation |
//! | Algorithm 2 | [`heuristic`] | feasible (never violates capacities) |
//!
//! plus a [`greedy`] baseline for ablations, the problem/instance model in
//! [`instance`], reliability math in [`reliability`], solution containers and
//! metrics in [`solution`], and the paper's analytical quantities (Chernoff
//! bounds, `Λ`, approximation ratio) in [`theory`].
//!
//! ## Quick example
//!
//! ```
//! use mecnet::workload::{generate_scenario, WorkloadConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//! use relaug::instance::AugmentationInstance;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let scenario = generate_scenario(&WorkloadConfig::default(), &mut rng);
//! let inst = AugmentationInstance::from_scenario(&scenario, 1);
//! let outcome = relaug::heuristic::solve(&inst, &Default::default());
//! assert!(outcome.metrics.reliability >= inst.base_reliability() - 1e-12);
//! ```

pub mod greedy;
pub mod heuristic;
pub mod ilp;
pub mod instance;
pub mod montecarlo;
pub mod randomized;
pub mod reliability;
pub mod report;
pub mod scratch;
pub mod solution;
pub mod stream;
pub mod theory;

pub use instance::AugmentationInstance;
pub use scratch::SolveScratch;
pub use solution::{Augmentation, Metrics, Outcome};
