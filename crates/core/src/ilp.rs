//! The exact algorithm: the paper's Section 4 integer linear program, solved
//! to proven optimality by branch and bound.
//!
//! Two equivalent formulations are provided:
//!
//! * [`build_model`] — the paper's literal disaggregated variables
//!   `x_{i,k,u} ∈ {0,1}` ("the `k`-th secondary of `f_i` on cloudlet `u`"),
//!   with per-item exclusivity (constraint 8) and per-cloudlet capacity
//!   (constraints 9/11). This is the model whose **LP relaxation** Algorithm 1
//!   rounds, so it is kept verbatim.
//! * [`build_aggregated`] — an exact reformulation used for the *integer*
//!   solve: integer counts `n_{i,u}` (secondaries of `f_i` on `u`) plus a
//!   continuous "slot ladder" `z_{i,k} ∈ [0,1]` carrying the marginal
//!   log-gains, linked by `Σ_k z_{i,k} = Σ_u n_{i,u}`. Because gains strictly
//!   decrease in `k`, the LP always fills the ladder as a prefix, so at any
//!   integer `n` the objective equals the true log-reliability gain — and the
//!   formulation removes the item-permutation symmetry that makes the
//!   disaggregated branch-and-bound blow up on tight instances.
//!
//! The objective is the marginal log-gain linearization of Eq. 5 —
//! mathematically equivalent to minimizing `-log u_j` at integral optima
//! thanks to the prefix property of Lemma 4.2; see DESIGN.md for why the
//! literal Eq. 5–7 cost form cannot be minimized directly.

use std::time::Instant;

use milp::{BnbConfig, BnbStats, Model, Relation, Sense, SolverError, VarId};
use obs::Recorder;

use crate::instance::{AugmentationInstance, Item};
use crate::reliability;
use crate::scratch::SolveScratch;
use crate::solution::{Augmentation, Outcome, SolverInfo};

/// Configuration of the exact solver.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Items whose marginal log-gain falls below this are not enumerated
    /// (lossless beyond this precision; `0.0` disables capping).
    pub gain_floor: f64,
    /// Branch-and-bound limits. Its `warm_start` is overwritten internally:
    /// the search is always seeded with the greedy solution (cheap, prunes
    /// most of the tree).
    pub bnb: BnbConfig,
    /// After solving, trim surplus secondaries so the solution augments
    /// *until the expectation is reached* (Section 4.2's budget semantics)
    /// instead of saturating all capacity. Disable to keep the unconstrained
    /// optimum.
    pub stop_at_expectation: bool,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig { gain_floor: 1e-12, bnb: BnbConfig::default(), stop_at_expectation: true }
    }
}

/// The assembled disaggregated model plus the mapping from variables back to
/// (item, bin) decisions.
pub struct IlpModel {
    pub model: Model,
    /// `(item index into items, bin index, variable)`.
    pub vars: Vec<(usize, usize, VarId)>,
    pub items: Vec<Item>,
}

/// Build the paper's disaggregated placement ILP (Algorithm 1 rounds its LP
/// relaxation).
pub fn build_model(inst: &AugmentationInstance, gain_floor: f64) -> IlpModel {
    let items = inst.items(gain_floor);
    let mut model = Model::new(Sense::Maximize);
    let mut vars = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let f = &inst.functions[item.func];
        let row: Vec<VarId> = f
            .eligible_bins
            .iter()
            .map(|&b| {
                // Upper bound left open: the per-item row enforces x <= 1, and
                // omitting explicit bounds keeps upper-bound rows out of the
                // simplex standard form.
                let v = model.add_integer_var(0.0, f64::INFINITY, item.gain);
                vars.push((idx, b, v));
                v
            })
            .collect();
        if !row.is_empty() {
            // Constraint (8): each item placed at most once.
            model.add_constraint(row.iter().map(|&v| (v, 1.0)).collect(), Relation::Le, 1.0);
        }
    }
    // Constraints (9)/(11): capacity per bin.
    let mut per_bin: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.bins.len()];
    for &(idx, b, v) in &vars {
        per_bin[b].push((v, inst.functions[items[idx].func].demand));
    }
    for (b, terms) in per_bin.into_iter().enumerate() {
        if !terms.is_empty() {
            model.add_constraint(terms, Relation::Le, inst.bins[b].residual);
        }
    }
    IlpModel { model, vars, items }
}

/// The aggregated exact formulation.
pub struct AggModel {
    pub model: Model,
    /// `(func, bin index, variable)` for the integer count variables.
    pub n_vars: Vec<(usize, usize, VarId)>,
    /// Per-function gain variable `G_i` (continuous; bounded above by the
    /// concave tangent cuts of the prefix-gain curve).
    pub g_vars: Vec<(usize, VarId)>,
    /// Per-function slot cap after gain-floor truncation.
    pub slot_cap: Vec<usize>,
}

/// Build the aggregated model (see module docs).
///
/// The concave prefix-gain curve `S_i(m) = Σ_{k<=m} g_i(k)` is encoded with
/// tangent cuts on a per-function gain variable `G_i`:
/// `G_i <= S_i(k-1) + g_i(k)·(T_i - (k-1))` for every slot `k`, where
/// `T_i = Σ_u n_{i,u}`. Gains decrease in `k`, so at any integer `T_i = m`
/// the binding cut yields exactly `G_i = S_i(m)` — the model is exact at
/// integral points and its LP relaxation is the concave envelope (the same
/// bound as the paper's disaggregated relaxation). All rows are `<=` with
/// non-negative right-hand sides, so the simplex never needs a phase-1.
pub fn build_aggregated(inst: &AugmentationInstance, gain_floor: f64) -> AggModel {
    let mut model = Model::new(Sense::Maximize);
    let mut n_vars = Vec::new();
    let mut g_vars = Vec::new();
    let mut slot_cap = Vec::with_capacity(inst.functions.len());
    for (i, f) in inst.functions.iter().enumerate() {
        let cap = f.capped_slots(gain_floor);
        slot_cap.push(cap);
        if cap == 0 {
            continue;
        }
        let ns: Vec<VarId> = f
            .eligible_bins
            .iter()
            .filter_map(|&b| {
                let per_bin = (inst.bins[b].residual / f.demand).floor() as usize;
                let ub = per_bin.min(cap);
                (ub > 0).then(|| {
                    let v = model.add_integer_var(0.0, ub as f64, 0.0);
                    n_vars.push((i, b, v));
                    v
                })
            })
            .collect();
        if ns.is_empty() {
            continue;
        }
        // Prefix gain sums S_i(0..=cap).
        let mut prefix = Vec::with_capacity(cap + 1);
        prefix.push(0.0f64);
        for k in 1..=cap {
            prefix
                .push(prefix[k - 1] + reliability::log_gain(f.reliability, f.existing_backups + k));
        }
        let g = model.add_var(0.0, prefix[cap], 1.0);
        g_vars.push((i, g));
        // Tangent cuts: G - g_i(k)·T <= S_i(k-1) - g_i(k)·(k-1). The k = 1 cut
        // has rhs 0; all rhs are >= 0 by concavity.
        for k in 1..=cap {
            let gain_k = reliability::log_gain(f.reliability, f.existing_backups + k);
            let mut terms: Vec<(VarId, f64)> = vec![(g, 1.0)];
            terms.extend(ns.iter().map(|&v| (v, -gain_k)));
            let rhs = prefix[k - 1] - gain_k * (k as f64 - 1.0);
            debug_assert!(rhs >= -1e-12);
            model.add_constraint(terms, Relation::Le, rhs.max(0.0));
        }
        // Do not pack more instances than enumerated slots (junk placements
        // would waste capacity without gain).
        model.add_constraint(ns.iter().map(|&v| (v, 1.0)).collect(), Relation::Le, cap as f64);
    }
    // Capacity per bin.
    let mut per_bin: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.bins.len()];
    for &(i, b, v) in &n_vars {
        per_bin[b].push((v, inst.functions[i].demand));
    }
    for (b, terms) in per_bin.into_iter().enumerate() {
        if !terms.is_empty() {
            model.add_constraint(terms, Relation::Le, inst.bins[b].residual);
        }
    }
    AggModel { model, n_vars, g_vars, slot_cap }
}

impl AggModel {
    /// Map an augmentation into a feasible point of this model (used for
    /// branch-and-bound warm starts).
    pub fn point_from_augmentation(
        &self,
        inst: &AugmentationInstance,
        aug: &Augmentation,
    ) -> Vec<f64> {
        let mut x = vec![0.0; self.model.num_vars()];
        for &(i, b, v) in &self.n_vars {
            if let Some(&(_, c)) = aug.placements_of(i).iter().find(|&&(bin, _)| bin == b) {
                // Clamp into the variable's bound (the warm solution may have
                // used more slots than the gain-floor cap enumerates).
                let (_, ub) = self.model.var_bounds(v);
                x[v.index()] = (c as f64).min(ub);
            }
        }
        // Recompute per-function totals actually representable, then set each
        // G_i to the prefix-gain value at that total (feasible under every
        // tangent cut by concavity).
        let mut totals = vec![0usize; inst.functions.len()];
        for &(i, _, v) in &self.n_vars {
            totals[i] += x[v.index()] as usize;
        }
        for &(i, v) in &self.g_vars {
            let m = totals[i].min(self.slot_cap[i]);
            let r = inst.functions[i].reliability;
            let e = inst.functions[i].existing_backups;
            let s: f64 = (1..=m).map(|k| crate::reliability::log_gain(r, e + k)).sum();
            x[v.index()] = s;
        }
        x
    }

    /// Convert a solved point into an augmentation.
    pub fn extract(&self, inst: &AugmentationInstance, x: &[f64]) -> Augmentation {
        let mut aug = Augmentation::empty(inst.chain_len());
        for &(i, b, v) in &self.n_vars {
            let c = x[v.index()].round() as usize;
            aug.add(i, b, c);
        }
        aug
    }
}

/// Partition the instance into independent components: two functions are
/// coupled iff their eligible bin sets intersect (directly or transitively).
/// Under the paper's `l = 1` locality the coupling graph is typically a
/// scatter of small clusters, and solving them separately turns the
/// branch-and-bound tree from a *product* of component trees into a *sum* —
/// often orders of magnitude fewer nodes.
fn decompose(inst: &AugmentationInstance) -> Vec<(Vec<usize>, Vec<usize>)> {
    // Union-find over bins.
    let mut parent: Vec<usize> = (0..inst.bins.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for f in &inst.functions {
        if let Some((&first, rest)) = f.eligible_bins.split_first() {
            let r0 = find(&mut parent, first);
            for &b in rest {
                let rb = find(&mut parent, b);
                parent[rb] = r0;
            }
        }
    }
    let mut comp_of_root = std::collections::HashMap::new();
    let mut comps: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for b in 0..inst.bins.len() {
        let root = find(&mut parent, b);
        let idx = *comp_of_root.entry(root).or_insert_with(|| {
            comps.push((Vec::new(), Vec::new()));
            comps.len() - 1
        });
        comps[idx].1.push(b);
    }
    for (i, f) in inst.functions.iter().enumerate() {
        if let Some(&b) = f.eligible_bins.first() {
            let root = find(&mut parent, b);
            let idx = comp_of_root[&root];
            comps[idx].0.push(i);
        }
    }
    // Drop bin-only components (no function can use them).
    comps.retain(|(funcs, _)| !funcs.is_empty());
    comps
}

/// Solve one (sub-)instance to optimality, uncapped and without the
/// early-exit check. Returns the augmentation plus the full search stats.
fn solve_component(
    inst: &AugmentationInstance,
    cfg: &IlpConfig,
    ws: &mut milp::LpWorkspace,
) -> Result<(Augmentation, BnbStats), SolverError> {
    let agg = build_aggregated(inst, cfg.gain_floor);
    let mut bnb = cfg.bnb.clone();
    let warm = crate::greedy::solve(inst, &Default::default());
    bnb.warm_start = Some(agg.point_from_augmentation(inst, &warm.augmentation));
    // Branch first on the count variables that move the most capacity.
    let mut priority = vec![0.0; agg.model.num_vars()];
    for &(i, _, v) in &agg.n_vars {
        priority[v.index()] = inst.functions[i].demand;
    }
    bnb.branch_priority = Some(priority);
    let sol = milp::solve_milp_with_ws(&agg.model, &bnb, ws)?;
    debug_assert!(sol.is_optimal(), "placement ILPs are always feasible (x = 0)");
    Ok((agg.extract(inst, &sol.x), sol.stats))
}

/// Solve the instance exactly on a fresh scratch, untraced. Returns the
/// optimal augmentation, or the empty augmentation immediately when the
/// primaries already meet `ρ_j` (the EXIT in line 2–3 of Algorithm 1, shared
/// by the ILP path).
pub fn solve(inst: &AugmentationInstance, cfg: &IlpConfig) -> Result<Outcome, SolverError> {
    let (mut rec, mut scratch) = (Recorder::noop(), SolveScratch::new());
    let started = Instant::now();
    let info = solve_in(inst, cfg, &mut rec, &mut scratch)?;
    Ok(Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), rec.summary()))
}

/// The exact solve on caller-owned scratch: leaves the solution in
/// `scratch.sol` and returns the search effort. Emits one `ilp.component`
/// event per independent component (branch-and-bound nodes, simplex
/// iterations, incumbent updates, prune counts by reason) and accumulates
/// the same quantities as counters. The LP workspace (factorization +
/// eta-file buffers) is shared across the instance's independent components
/// and across consecutive requests on the same stream, so the stream's exact
/// path allocates nothing per request for it.
pub fn solve_in(
    inst: &AugmentationInstance,
    cfg: &IlpConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> Result<SolverInfo, SolverError> {
    let mut stats = BnbStats::default();
    scratch.sol.begin(inst.chain_len());
    if inst.expectation_met_by_primaries() {
        rec.emit_with(|| {
            obs::Event::new("ilp.early_exit").with("base_reliability", inst.base_reliability())
        });
        return Ok(solver_info(&stats));
    }
    let comps = decompose(inst);
    rec.count("ilp.components", comps.len() as u64);
    for (ci, (funcs, bins)) in comps.into_iter().enumerate() {
        // Build the sub-instance with remapped bin indices.
        let bin_map: std::collections::HashMap<usize, usize> =
            bins.iter().enumerate().map(|(local, &global)| (global, local)).collect();
        let sub = AugmentationInstance {
            functions: funcs
                .iter()
                .map(|&i| {
                    let f = &inst.functions[i];
                    crate::instance::FunctionSlot {
                        eligible_bins: f.eligible_bins.iter().map(|b| bin_map[b]).collect(),
                        ..f.clone()
                    }
                })
                .collect(),
            bins: bins.iter().map(|&b| inst.bins[b].clone()).collect(),
            l: inst.l,
            expectation: inst.expectation,
        };
        let comp_started = Instant::now();
        let (sub_aug, s) = solve_component(&sub, cfg, &mut scratch.lp)?;
        let comp_elapsed = comp_started.elapsed();
        stats.nodes += s.nodes;
        stats.lp_iterations += s.lp_iterations;
        stats.incumbent_updates += s.incumbent_updates;
        stats.pruned_bound += s.pruned_bound;
        stats.pruned_infeasible += s.pruned_infeasible;
        rec.count("ilp.nodes", s.nodes as u64);
        rec.count("ilp.lp_iterations", s.lp_iterations as u64);
        rec.count("ilp.incumbent_updates", s.incumbent_updates as u64);
        rec.count("ilp.pruned_bound", s.pruned_bound as u64);
        rec.count("ilp.pruned_infeasible", s.pruned_infeasible as u64);
        rec.record_time("ilp.component_solve", comp_elapsed);
        rec.emit_with(|| {
            obs::Event::new("ilp.component")
                .with("component", ci)
                .with("functions", funcs.len())
                .with("bins", bins.len())
                .with("nodes", s.nodes)
                .with("lp_iterations", s.lp_iterations)
                .with("incumbent_updates", s.incumbent_updates)
                .with("pruned_bound", s.pruned_bound)
                .with("pruned_infeasible", s.pruned_infeasible)
                .with("secondaries", sub_aug.total_secondaries())
        });
        for (local_f, &global_f) in funcs.iter().enumerate() {
            for &(local_b, count) in sub_aug.placements_of(local_f) {
                scratch.sol.add(global_f, bins[local_b], count);
            }
        }
    }
    if cfg.stop_at_expectation {
        let trimmed = scratch.sol.trim_to_expectation(inst);
        rec.count("ilp.trimmed_secondaries", trimmed as u64);
    }
    debug_assert!(scratch.sol.is_capacity_feasible(inst));
    debug_assert!(scratch.sol.respects_locality(inst));
    Ok(solver_info(&stats))
}

/// The ILP's [`SolverInfo`] from its summed search statistics.
fn solver_info(stats: &BnbStats) -> SolverInfo {
    SolverInfo::Ilp {
        nodes: stats.nodes,
        lp_iterations: stats.lp_iterations,
        incumbent_updates: stats.incumbent_updates,
        pruned_bound: stats.pruned_bound,
        pruned_infeasible: stats.pruned_infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    fn slot(
        demand: f64,
        reliability: f64,
        eligible: Vec<usize>,
        max_secondaries: usize,
    ) -> FunctionSlot {
        FunctionSlot {
            vnf: VnfTypeId(0),
            demand,
            reliability,
            primary: NodeId(0),
            eligible_bins: eligible,
            max_secondaries,
            existing_backups: 0,
        }
    }

    /// One function, one bin with room for exactly 2 secondaries.
    fn single_function_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 2)],
            bins: vec![Bin { node: NodeId(0), residual: 250.0 }],
            l: 1,
            expectation: 0.9999,
        }
    }

    #[test]
    fn fills_available_capacity() {
        let inst = single_function_instance();
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        // Both secondaries fit (200 <= 250) and each adds gain: optimal m = 2.
        assert_eq!(out.augmentation.counts(), vec![2]);
        let expect = crate::reliability::function_reliability(0.8, 2);
        assert!((out.metrics.reliability - expect).abs() < 1e-9);
        assert!(out.augmentation.is_capacity_feasible(&inst));
    }

    #[test]
    fn early_exit_when_primaries_suffice() {
        let mut inst = single_function_instance();
        inst.expectation = 0.5; // base reliability 0.8 >= 0.5
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(
            out.solver,
            SolverInfo::Ilp {
                nodes: 0,
                lp_iterations: 0,
                incumbent_updates: 0,
                pruned_bound: 0,
                pruned_infeasible: 0,
            }
        );
        assert!(out.telemetry.is_empty(), "untraced solve leaves telemetry empty");
    }

    #[test]
    fn traced_solve_reports_effort() {
        let inst = single_function_instance();
        let mut rec = Recorder::memory();
        let info =
            solve_in(&inst, &IlpConfig::default(), &mut rec, &mut SolveScratch::new()).unwrap();
        // One coupled component, at least one B&B node explored and recorded
        // identically in the counters, the events and the SolverInfo.
        assert_eq!(rec.counter("ilp.components"), 1);
        let SolverInfo::Ilp { nodes, lp_iterations, .. } = info else {
            panic!("wrong solver info")
        };
        assert!(nodes >= 1);
        assert_eq!(rec.counter("ilp.nodes"), nodes as u64);
        assert_eq!(rec.counter("ilp.lp_iterations"), lp_iterations as u64);
        let comp_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "ilp.component").collect();
        assert_eq!(comp_events.len(), 1);
        assert_eq!(comp_events[0].field("nodes").unwrap().as_u64(), Some(nodes as u64));
        assert!(rec.summary().timing_s("ilp.component_solve") > 0.0);
    }

    #[test]
    fn capacity_forces_choice_between_functions() {
        // Two functions share one bin with room for exactly one instance.
        // The optimum backs up the *less* reliable function.
        let inst = AugmentationInstance {
            functions: vec![slot(200.0, 0.6, vec![0], 1), slot(200.0, 0.9, vec![0], 1)],
            bins: vec![Bin { node: NodeId(0), residual: 200.0 }],
            l: 1,
            expectation: 0.999999,
        };
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        assert_eq!(out.augmentation.counts(), vec![1, 0]);
        assert!((out.metrics.reliability - 0.84 * 0.9).abs() < 1e-9);
    }

    #[test]
    fn optimum_is_brute_force_on_small_instance() {
        // 2 functions x 2 bins; enumerate all secondary-count allocations.
        let inst = AugmentationInstance {
            functions: vec![slot(150.0, 0.7, vec![0, 1], 3), slot(250.0, 0.8, vec![1], 1)],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99999,
        };
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        // Brute force over (a0, a1) = secondaries of f0 on bins 0/1 and b =
        // secondaries of f1 on bin 1.
        let mut best = 0.0f64;
        for a0 in 0..=2usize {
            for a1 in 0..=2usize {
                for b in 0..=1usize {
                    let bin0 = 150.0 * a0 as f64;
                    let bin1 = 150.0 * a1 as f64 + 250.0 * b as f64;
                    if bin0 <= 300.0 && bin1 <= 400.0 {
                        let rel = crate::reliability::function_reliability(0.7, a0 + a1)
                            * crate::reliability::function_reliability(0.8, b);
                        best = best.max(rel);
                    }
                }
            }
        }
        assert!(
            (out.metrics.reliability - best).abs() < 1e-9,
            "ilp {} vs brute {}",
            out.metrics.reliability,
            best
        );
    }

    #[test]
    fn no_bins_no_secondaries() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![], 0)],
            bins: vec![],
            l: 1,
            expectation: 0.99,
        };
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        assert_eq!(out.metrics.total_secondaries, 0);
        assert!((out.metrics.reliability - 0.8).abs() < 1e-12);
        assert!(!out.metrics.met_expectation);
    }

    #[test]
    fn disaggregated_model_size() {
        let inst = single_function_instance();
        let m = build_model(&inst, 0.0);
        assert_eq!(m.items.len(), 2);
        assert_eq!(m.vars.len(), 2); // one eligible bin each
                                     // 2 item rows + 1 capacity row.
        assert_eq!(m.model.num_constraints(), 3);
    }

    #[test]
    fn aggregated_and_disaggregated_lp_bounds_agree() {
        let inst = AugmentationInstance {
            functions: vec![slot(150.0, 0.7, vec![0, 1], 3), slot(250.0, 0.8, vec![1], 1)],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99999,
        };
        let dis = build_model(&inst, 1e-12);
        let agg = build_aggregated(&inst, 1e-12);
        let lp_d = milp::solve_lp(&dis.model.relax()).unwrap();
        let lp_a = milp::solve_lp(&agg.model.relax()).unwrap();
        assert!(
            (lp_d.objective - lp_a.objective).abs() < 1e-6,
            "dis {} vs agg {}",
            lp_d.objective,
            lp_a.objective
        );
    }

    #[test]
    fn warm_start_point_is_feasible() {
        let inst = AugmentationInstance {
            functions: vec![slot(150.0, 0.7, vec![0, 1], 3), slot(250.0, 0.8, vec![1], 1)],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99999,
        };
        let agg = build_aggregated(&inst, 1e-12);
        let warm = crate::greedy::solve(&inst, &Default::default());
        let point = agg.point_from_augmentation(&inst, &warm.augmentation);
        assert!(agg.model.is_feasible(&point, 1e-6), "warm point must be feasible");
        // Round-trip: extracting the point reproduces the counts.
        let back = agg.extract(&inst, &point);
        assert_eq!(back.counts(), warm.augmentation.counts());
    }

    #[test]
    fn tight_capacity_instance_closes_quickly() {
        // A replica of the pathological regime: many functions, scarce shared
        // capacity. The aggregated model must prove optimality in few nodes.
        let mut functions = Vec::new();
        for j in 0..10 {
            let r = 0.8 + 0.01 * j as f64;
            functions.push(slot(200.0 + 20.0 * j as f64, r, vec![0, 1], 4));
        }
        let inst = AugmentationInstance {
            functions,
            bins: vec![
                Bin { node: NodeId(0), residual: 450.0 },
                Bin { node: NodeId(1), residual: 500.0 },
            ],
            l: 1,
            expectation: 0.999999,
        };
        let out = solve(&inst, &IlpConfig::default()).unwrap();
        if let SolverInfo::Ilp { nodes, .. } = out.solver {
            assert!(nodes < 5_000, "too many nodes: {nodes}");
        }
        assert!(out.augmentation.is_capacity_feasible(&inst));
    }
}
