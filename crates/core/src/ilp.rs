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
//! * [`AggModel::rebuild`] — an exact reformulation used for the *integer*
//!   solve: integer counts `n_{i,u}` (secondaries of `f_i` on `u`) plus one
//!   continuous gain variable `G_i` per function, bounded above by the
//!   tangent cuts of the concave prefix-gain curve `S_i(T_i)`, where
//!   `T_i = Σ_u n_{i,u}`. Because gains decrease in `k`, at any integer `n`
//!   the binding cut gives exactly `G_i = S_i(T_i)`, the true
//!   log-reliability gain — and the formulation removes the
//!   item-permutation symmetry that makes the disaggregated
//!   branch-and-bound blow up on tight instances.
//!
//! [`solve_in`] splits the instance into independent components (functions
//! that share an eligible bin, directly or transitively). No function of a
//! component can place more than its target `T*_i = min(cap_i,
//! Σ_u ⌊r_u/d_i⌋)`, so a placement that puts every function at its target
//! within the bin rows is the component's optimum. One fill tries it,
//! largest demand first, each secondary on the eligible bin with the most
//! room left (`fill_component` gives the argument); it always succeeds on a
//! one-function component, and only the components where it falls short
//! run branch and bound.
//!
//! The objective is the marginal log-gain linearization of Eq. 5 —
//! mathematically equivalent to minimizing `-log u_j` at integral optima
//! thanks to the prefix property of Lemma 4.2; see DESIGN.md for why the
//! literal Eq. 5–7 cost form cannot be minimized directly.

use std::time::Instant;

use milp::{BnbConfig, BnbStats, MilpSolution, Model, Relation, Sense, SolverError, VarId};
use obs::{metrics, Recorder, Telemetry};

use crate::greedy::{self, GreedyConfig};
use crate::instance::{AugmentationInstance, FunctionSlot, Item};
use crate::reliability::{self, LadderTables};
use crate::scratch::SolveScratch;
use crate::solution::{Augmentation, Outcome, SolverInfo};

/// Configuration of the exact solver.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Items whose marginal log-gain falls below this are not enumerated
    /// (lossless beyond this precision; `0.0` disables capping).
    pub gain_floor: f64,
    /// Branch-and-bound limits. Every component's search is seeded with the
    /// greedy solution (cheap, prunes most of the tree) and branches first
    /// on the count variables that move the most capacity.
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
        let first = vars.len();
        for &b in &f.eligible_bins {
            // Upper bound left open: the per-item row enforces x <= 1, and
            // omitting explicit bounds keeps upper-bound rows out of the
            // simplex standard form.
            let v = model.add_integer_var(0.0, f64::INFINITY, item.gain);
            vars.push((idx, b, v));
        }
        if vars.len() > first {
            // Constraint (8): each item placed at most once.
            model.add_constraint(
                vars[first..].iter().map(|&(_, _, v)| (v, 1.0)),
                Relation::Le,
                1.0,
            );
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
#[derive(Debug, Clone)]
pub struct AggModel {
    pub model: Model,
    /// `(func, bin index, variable)` for the integer count variables.
    pub n_vars: Vec<(usize, usize, VarId)>,
    /// Per-function gain variable `G_i` (continuous; bounded above by the
    /// concave tangent cuts of the prefix-gain curve).
    pub g_vars: Vec<(usize, VarId)>,
    /// Per-function slot cap after gain-floor truncation.
    pub slot_cap: Vec<usize>,
    /// Buffers of [`AggModel::rebuild`]: each function's table id, and one
    /// function's count variables, gains `g_i(k)` and prefix sums.
    table_of: Vec<usize>,
    ns: Vec<VarId>,
    gains: Vec<f64>,
    prefix: Vec<f64>,
}

impl Default for AggModel {
    fn default() -> Self {
        AggModel {
            model: Model::new(Sense::Maximize),
            n_vars: Vec::new(),
            g_vars: Vec::new(),
            slot_cap: Vec::new(),
            table_of: Vec::new(),
            ns: Vec::new(),
            gains: Vec::new(),
            prefix: Vec::new(),
        }
    }
}

impl AggModel {
    /// Refill the aggregated model of `inst` in place.
    ///
    /// The concave prefix-gain curve `S_i(m) = Σ_{k<=m} g_i(k)` is encoded
    /// with tangent cuts on a per-function gain variable `G_i`:
    /// `G_i <= S_i(k-1) + g_i(k)·(T_i - (k-1))` for every slot `k`, where
    /// `T_i = Σ_u n_{i,u}`. Gains decrease in `k`, so at any integer
    /// `T_i = m` the binding cut yields exactly `G_i = S_i(m)` — the model is
    /// exact at integral points and its LP relaxation is the concave
    /// envelope (the same bound as the paper's disaggregated relaxation).
    /// All rows are `<=` with non-negative right-hand sides, so the simplex
    /// never needs a phase-1. The gains come from `tables`, whose rungs give
    /// [`reliability::log_gain`] bit for bit.
    pub fn rebuild(
        &mut self,
        inst: &AugmentationInstance,
        gain_floor: f64,
        tables: &mut LadderTables,
    ) {
        self.model.clear();
        self.n_vars.clear();
        self.g_vars.clear();
        self.slot_cap.clear();
        tables.resolve(inst.functions.iter().map(|f| f.reliability), &mut self.table_of);
        for (i, f) in inst.functions.iter().enumerate() {
            let cap = f.capped_slots(gain_floor);
            self.slot_cap.push(cap);
            if cap == 0 {
                continue;
            }
            self.ns.clear();
            for &b in &f.eligible_bins {
                let ub = count_bound(inst.bins[b].residual, f.demand, cap);
                if ub > 0 {
                    let v = self.model.add_integer_var(0.0, ub as f64, 0.0);
                    self.n_vars.push((i, b, v));
                    self.ns.push(v);
                }
            }
            if self.ns.is_empty() {
                continue;
            }
            // Gains g_i(1..=cap) and prefix gain sums S_i(0..=cap).
            let (id, e) = (self.table_of[i], f.existing_backups);
            self.gains.clear();
            self.prefix.clear();
            self.prefix.push(0.0f64);
            let mut ln_below = tables.rung(id, e).ln_rel;
            for k in 1..=cap {
                let ln_at = tables.rung(id, e + k).ln_rel;
                let gain_k = ln_at - ln_below;
                ln_below = ln_at;
                self.gains.push(gain_k);
                self.prefix.push(self.prefix[k - 1] + gain_k);
            }
            let g = self.model.add_var(0.0, self.prefix[cap], 1.0);
            self.g_vars.push((i, g));
            // Tangent cuts: G - g_i(k)·T <= S_i(k-1) - g_i(k)·(k-1). The k = 1
            // cut has rhs 0; all rhs are >= 0 by concavity.
            for k in 1..=cap {
                let gain_k = self.gains[k - 1];
                let terms = self.ns.iter().map(|&v| (v, -gain_k));
                let rhs = self.prefix[k - 1] - gain_k * (k as f64 - 1.0);
                debug_assert!(rhs >= -1e-12);
                self.model.add_constraint(
                    std::iter::once((g, 1.0)).chain(terms),
                    Relation::Le,
                    rhs.max(0.0),
                );
            }
            // Do not pack more instances than enumerated slots (junk
            // placements would waste capacity without gain).
            self.model.add_constraint(self.ns.iter().map(|&v| (v, 1.0)), Relation::Le, cap as f64);
        }
        // Capacity per bin, its count variables in order.
        for (b, bin) in inst.bins.iter().enumerate() {
            let mut terms = self
                .n_vars
                .iter()
                .filter(|&&(_, nb, _)| nb == b)
                .map(|&(i, _, v)| (v, inst.functions[i].demand))
                .peekable();
            if terms.peek().is_some() {
                self.model.add_constraint(terms, Relation::Le, bin.residual);
            }
        }
    }

    /// Map an augmentation into a feasible point of this model, into `x`
    /// (used for branch-and-bound warm starts).
    pub fn point_from_augmentation(
        &self,
        inst: &AugmentationInstance,
        aug: &Augmentation,
        x: &mut Vec<f64>,
    ) {
        x.clear();
        x.resize(self.model.num_vars(), 0.0);
        for &(i, b, v) in &self.n_vars {
            if let Some(&(_, c)) = aug.placements_of(i).iter().find(|&&(bin, _)| bin == b) {
                // Clamp into the variable's bound (the warm solution may have
                // used more slots than the gain-floor cap enumerates).
                let (_, ub) = self.model.var_bounds(v);
                x[v.index()] = (c as f64).min(ub);
            }
        }
        // Per-function totals actually representable; each G_i is the
        // prefix-gain value at that total (feasible under every tangent cut
        // by concavity).
        for &(i, g) in &self.g_vars {
            let total: usize = self
                .n_vars
                .iter()
                .filter(|&&(f, _, _)| f == i)
                .map(|&(_, _, v)| x[v.index()] as usize)
                .sum();
            let m = total.min(self.slot_cap[i]);
            let r = inst.functions[i].reliability;
            let e = inst.functions[i].existing_backups;
            let s: f64 = (1..=m).map(|k| reliability::log_gain(r, e + k)).sum();
            x[g.index()] = s;
        }
    }

    /// The placements of a solved point: `(func, bin, count)` per count
    /// variable, in variable order (zero counts included).
    pub fn extract<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        self.n_vars.iter().map(|&(i, b, v)| (i, b, x[v.index()].round() as usize))
    }
}

/// The bound of the count variable `n_{i,b}`: how many secondaries of
/// demand `demand` a bin with `residual` left fits, at most `cap`.
fn count_bound(residual: f64, demand: f64, cap: usize) -> usize {
    ((residual / demand).floor() as usize).min(cap)
}

/// Buffers of [`fill_component`]: the component's functions in fill order,
/// each function's `(bound, count)` per eligible bin (concatenated in that
/// order), and per global bin the load of the functions already filled.
#[derive(Debug, Clone, Default)]
struct Fill {
    order: Vec<usize>,
    cells: Vec<(usize, usize)>,
    load: Vec<f64>,
}

/// Place every function of a component at its target
/// `T*_i = min(cap_i, Σ_b ⌊r_b/d_i⌋)`, the most its aggregated model lets
/// it reach, and return the secondaries placed; `None`, with `sol`
/// untouched, when some function cannot reach its target.
///
/// In the component's aggregated model `n_{i,b} <= min(⌊r_b/d_i⌋, cap_i)`,
/// `T_i = Σ_b n_{i,b} <= cap_i` and `G_i <= S_i(T_i)`, with `S_i`
/// non-decreasing, so `Σ_i S_i(T*_i)` bounds every feasible objective, and
/// an integral placement with every `T_i = T*_i` that keeps the bin rows
/// `Σ_i d_i·n_{i,b} <= r_b` attains it: it is optimal, exactly, where
/// branch and bound stops within its gap tolerance. The functions go
/// largest demand first (the lower index on ties), each secondary to the
/// eligible bin with the most room left, `r_b − Σ_i c_{i,b}·d_i` among the
/// bins under the function's bound (the lowest bin on ties), tracked as
/// counts so that a function reaches `T*_i` exactly. A bin that holds none
/// of the earlier functions' load has room for one more whenever the
/// count is under its bound; a bin that does must also show room for
/// `d_i`. For one function this is the plain closed form: its bins hold no
/// other load.
fn fill_component(
    inst: &AugmentationInstance,
    funcs: &[usize],
    bins: &[usize],
    gain_floor: f64,
    fill: &mut Fill,
    sol: &mut Augmentation,
) -> Option<usize> {
    let Fill { order, cells, load } = fill;
    if load.len() < inst.bins.len() {
        load.resize(inst.bins.len(), 0.0);
    }
    for &b in bins {
        load[b] = 0.0;
    }
    order.clear();
    order.extend_from_slice(funcs);
    let demand = |i: usize| inst.functions[i].demand;
    order.sort_unstable_by(|&a, &b| demand(b).total_cmp(&demand(a)).then(a.cmp(&b)));
    cells.clear();
    let mut placed = 0;
    for &i in order.iter() {
        let f = &inst.functions[i];
        let cap = f.capped_slots(gain_floor);
        let first = cells.len();
        cells.extend(
            f.eligible_bins.iter().map(|&b| (count_bound(inst.bins[b].residual, f.demand, cap), 0)),
        );
        let row = &mut cells[first..];
        let target = cap.min(row.iter().map(|&(ub, _)| ub).sum());
        for _ in 0..target {
            let mut best: Option<(f64, usize)> = None; // (room, position)
            for (at, &(ub, c)) in row.iter().enumerate() {
                // A bin at its bound has less room than one under it in exact
                // arithmetic; the check keeps `c_b <= ⌊r_b/d_i⌋` under rounding.
                if c == ub {
                    continue;
                }
                let b = f.eligible_bins[at];
                let room = inst.bins[b].residual - (load[b] + c as f64 * f.demand);
                if load[b] > 0.0 && room < f.demand {
                    continue;
                }
                if best.is_none_or(|(r, p)| room > r || (room == r && b < f.eligible_bins[p])) {
                    best = Some((room, at));
                }
            }
            let (_, at) = best?;
            row[at].1 += 1;
        }
        for (&b, &(_, c)) in f.eligible_bins.iter().zip(row.iter()) {
            load[b] += c as f64 * f.demand;
        }
        placed += target;
    }
    // Each function's row in eligible-bin order, as branch and bound's
    // placements are written (the trim breaks ties on row order).
    let mut first = 0;
    for &i in order.iter() {
        let eligible = &inst.functions[i].eligible_bins;
        for (&b, &(_, c)) in eligible.iter().zip(&cells[first..]) {
            sol.add(i, b, c);
        }
        first += eligible.len();
    }
    Some(placed)
}

/// The `ilp.component` event of component `ci`.
fn component_event(
    ci: usize,
    funcs: &[usize],
    bins: &[usize],
    closed_form: bool,
    s: &BnbStats,
    secondaries: usize,
) -> obs::Event {
    obs::Event::new("ilp.component")
        .with("component", ci)
        .with("functions", funcs.len())
        .with("bins", bins.len())
        .with("closed_form", closed_form)
        .with("nodes", s.nodes)
        .with("lp_iterations", s.lp_iterations)
        .with("incumbent_updates", s.incumbent_updates)
        .with("pruned_bound", s.pruned_bound)
        .with("pruned_infeasible", s.pruned_infeasible)
        .with("secondaries", secondaries)
}

/// Marks a bin not yet assigned to a component.
const NONE: usize = usize::MAX;

/// The independent components of an instance in CSR form: component `c`
/// has the bins `bins[bin_start[c]..bin_start[c + 1]]` and the functions
/// `funcs[func_start[c]..func_start[c + 1]]`, both ascending, and
/// components are numbered by their lowest bin.
#[derive(Debug, Clone, Default)]
struct Components {
    /// Union-find parent per bin.
    parent: Vec<usize>,
    /// Component of each union-find root, and of each bin.
    comp_of_root: Vec<usize>,
    comp: Vec<usize>,
    bin_start: Vec<usize>,
    bins: Vec<usize>,
    func_start: Vec<usize>,
    funcs: Vec<usize>,
    cursor: Vec<usize>,
}

impl Components {
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut at = x;
        while self.parent[at] != root {
            at = std::mem::replace(&mut self.parent[at], root);
        }
        root
    }

    /// Partition `inst`: two functions are coupled iff their eligible bin
    /// sets intersect (directly or transitively). Returns the number of
    /// components, function-less ones included (see [`Self::get`]).
    fn split(&mut self, inst: &AugmentationInstance) -> usize {
        let nbins = inst.bins.len();
        self.parent.clear();
        self.parent.extend(0..nbins);
        for f in &inst.functions {
            if let Some((&first, rest)) = f.eligible_bins.split_first() {
                let r0 = self.find(first);
                for &b in rest {
                    let rb = self.find(b);
                    self.parent[rb] = r0;
                }
            }
        }
        self.comp_of_root.clear();
        self.comp_of_root.resize(nbins, NONE);
        self.comp.clear();
        let mut ncomp = 0;
        for b in 0..nbins {
            let root = self.find(b);
            if self.comp_of_root[root] == NONE {
                self.comp_of_root[root] = ncomp;
                ncomp += 1;
            }
            self.comp.push(self.comp_of_root[root]);
        }
        // Counting sort of the bins, then of the functions (by their first
        // eligible bin), into their components.
        self.bin_start.clear();
        self.bin_start.resize(ncomp + 1, 0);
        self.func_start.clear();
        self.func_start.resize(ncomp + 1, 0);
        for &c in &self.comp {
            self.bin_start[c + 1] += 1;
        }
        for f in &inst.functions {
            if let Some(&b) = f.eligible_bins.first() {
                self.func_start[self.comp[b] + 1] += 1;
            }
        }
        for c in 0..ncomp {
            self.bin_start[c + 1] += self.bin_start[c];
            self.func_start[c + 1] += self.func_start[c];
        }
        self.bins.clear();
        self.bins.resize(nbins, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.bin_start);
        for (b, &c) in self.comp.iter().enumerate() {
            self.bins[self.cursor[c]] = b;
            self.cursor[c] += 1;
        }
        self.funcs.clear();
        self.funcs.resize(self.func_start[ncomp], 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.func_start);
        for (i, f) in inst.functions.iter().enumerate() {
            if let Some(&b) = f.eligible_bins.first() {
                let c = self.comp[b];
                self.funcs[self.cursor[c]] = i;
                self.cursor[c] += 1;
            }
        }
        ncomp
    }

    /// Functions and bins of component `c`.
    fn get(&self, c: usize) -> (&[usize], &[usize]) {
        (
            &self.funcs[self.func_start[c]..self.func_start[c + 1]],
            &self.bins[self.bin_start[c]..self.bin_start[c + 1]],
        )
    }
}

/// Buffers of the exact solve ([`solve_in`]): the component decomposition,
/// the fill's buffers, and, for components the fill cannot serve, one
/// sub-instance rebuilt in place per component, the aggregated model, the
/// greedy warm start, the warm point, the branching priorities and the
/// branch-and-bound solution. [`SolveScratch`] holds one, so a warm
/// scratch assembles and solves every component without allocating.
#[derive(Debug, Clone, Default)]
pub struct IlpScratch {
    comps: Components,
    fill: Fill,
    /// Global bin -> index in the current component.
    local: Vec<usize>,
    sub: AugmentationInstance,
    /// `sub`'s pool for [`AugmentationInstance::resize_functions`].
    spare: Vec<Vec<usize>>,
    agg: AggModel,
    warm: Augmentation,
    point: Vec<f64>,
    priority: Vec<f64>,
    milp: MilpSolution,
}

/// Rebuild `sub` in place as the component of `inst` with functions
/// `funcs` and bins `bins`, bins renumbered in component order.
fn restrict(
    inst: &AugmentationInstance,
    funcs: &[usize],
    bins: &[usize],
    local: &mut Vec<usize>,
    spare: &mut Vec<Vec<usize>>,
    sub: &mut AugmentationInstance,
) {
    if local.len() < inst.bins.len() {
        local.resize(inst.bins.len(), NONE);
    }
    for (at, &b) in bins.iter().enumerate() {
        local[b] = at;
    }
    sub.bins.clear();
    sub.bins.extend(bins.iter().map(|&b| inst.bins[b].clone()));
    sub.resize_functions(funcs.len(), spare);
    for (slot, &i) in sub.functions.iter_mut().zip(funcs) {
        let f = &inst.functions[i];
        *slot = FunctionSlot { eligible_bins: std::mem::take(&mut slot.eligible_bins), ..*f };
        slot.eligible_bins.clear();
        slot.eligible_bins.extend(f.eligible_bins.iter().map(|&b| local[b]));
    }
    sub.l = inst.l;
    sub.expectation = inst.expectation;
}

/// Solve the instance exactly on a fresh scratch, untraced. Returns the
/// optimal augmentation, or the empty augmentation immediately when the
/// primaries already meet `ρ_j` (the EXIT in line 2–3 of Algorithm 1, shared
/// by the ILP path).
pub fn solve(inst: &AugmentationInstance, cfg: &IlpConfig) -> Result<Outcome, SolverError> {
    let (mut rec, mut scratch) = (Recorder::noop(), SolveScratch::new());
    let started = Instant::now();
    let info = solve_in(inst, cfg, &mut rec, &mut scratch)?;
    Ok(Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), Telemetry::default()))
}

/// The exact solve on caller-owned scratch: leaves the solution in
/// `scratch.sol` and returns the search effort. Emits one `ilp.component`
/// event per independent component (whether it was solved in closed form,
/// branch-and-bound nodes, simplex iterations, incumbent updates, prune
/// counts by reason) and accumulates the same quantities as counters.
///
/// Under the paper's `l = 1` locality the coupling graph of functions
/// (shared eligible bins) is typically a scatter of small clusters, and
/// solving them separately turns the branch-and-bound tree from a
/// *product* of component trees into a *sum* — often orders of magnitude
/// fewer nodes. A component whose functions all fit at their targets is
/// solved in closed form (`fill_component`: 0 nodes, no model, no LP); that
/// is every one-function component and most coupled ones. Each remaining
/// component's sub-instance, aggregated model, greedy warm start and search
/// state are rebuilt in `scratch` (`scratch.ilp`, `scratch.lp`), shared
/// across components and consecutive requests, so a warm scratch solves
/// without allocating.
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
    let SolveScratch { sol, heur, tables, lp, ilp, .. } = scratch;
    let IlpScratch { comps, fill, local, sub, spare, agg, warm, point, priority, milp } = ilp;
    let ncomp = comps.split(inst);
    let live = (0..ncomp).filter(|&c| !comps.get(c).0.is_empty());
    rec.count(metrics::ILP_COMPONENTS, live.clone().count() as u64);
    for (ci, c) in live.enumerate() {
        let (funcs, bins) = comps.get(c);
        if let Some(secondaries) = fill_component(inst, funcs, bins, cfg.gain_floor, fill, sol) {
            rec.count(metrics::ILP_CLOSED_FORM, 1);
            rec.emit_with(|| {
                component_event(ci, funcs, bins, true, &BnbStats::default(), secondaries)
            });
            continue;
        }
        restrict(inst, funcs, bins, local, spare, sub);
        let comp_started = Instant::now();
        // The aggregated model, seeded with the greedy solution and
        // branching first on the count variables that move the most
        // capacity.
        agg.rebuild(sub, cfg.gain_floor, tables);
        greedy::fill(sub, &GreedyConfig::default(), None, warm, &mut heur.residual);
        agg.point_from_augmentation(sub, warm, point);
        priority.clear();
        priority.resize(agg.model.num_vars(), 0.0);
        for &(i, _, v) in &agg.n_vars {
            priority[v.index()] = sub.functions[i].demand;
        }
        milp::solve_milp_with_ws(
            &agg.model,
            &cfg.bnb,
            Some(point.as_slice()),
            Some(priority.as_slice()),
            lp,
            milp,
        )?;
        debug_assert!(milp.is_optimal(), "placement ILPs are always feasible (x = 0)");
        let comp_elapsed = comp_started.elapsed();
        let s = milp.stats;
        let mut secondaries = 0usize;
        for (i, b, count) in agg.extract(&milp.x) {
            sol.add(funcs[i], bins[b], count);
            secondaries += count;
        }
        stats.nodes += s.nodes;
        stats.lp_iterations += s.lp_iterations;
        stats.incumbent_updates += s.incumbent_updates;
        stats.pruned_bound += s.pruned_bound;
        stats.pruned_infeasible += s.pruned_infeasible;
        rec.count(metrics::ILP_NODES, s.nodes as u64);
        rec.count(metrics::ILP_LP_ITERATIONS, s.lp_iterations as u64);
        rec.count(metrics::ILP_INCUMBENT_UPDATES, s.incumbent_updates as u64);
        rec.count(metrics::ILP_PRUNED_BOUND, s.pruned_bound as u64);
        rec.count(metrics::ILP_PRUNED_INFEASIBLE, s.pruned_infeasible as u64);
        rec.record(metrics::ILP_COMPONENT_SOLVE, comp_elapsed);
        rec.emit_with(|| component_event(ci, funcs, bins, false, &s, secondaries));
    }
    if cfg.stop_at_expectation {
        let trimmed = sol.trim_to_expectation(inst, tables);
        rec.count(metrics::ILP_TRIMMED, trimmed as u64);
    }
    debug_assert!(sol.is_capacity_feasible(inst));
    debug_assert!(sol.respects_locality(inst));
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

    /// The aggregated model of `inst`, on fresh tables.
    fn build_aggregated(inst: &AugmentationInstance, gain_floor: f64) -> AggModel {
        let mut agg = AggModel::default();
        agg.rebuild(inst, gain_floor, &mut LadderTables::default());
        agg
    }

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

    /// Two functions coupled through bin 1: one component, whose targets
    /// (3 and 1 secondaries) fit, so the fill solves it.
    fn coupled_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![slot(150.0, 0.7, vec![0, 1], 3), slot(250.0, 0.8, vec![1], 1)],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99999,
        }
    }

    /// Two functions sharing one bin with room for 4 of their 6 targeted
    /// secondaries: one component, which branch and bound solves.
    fn tight_coupled_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 3), slot(100.0, 0.9, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.999,
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
        let inst = tight_coupled_instance();
        let mut rec = Recorder::memory();
        let info =
            solve_in(&inst, &IlpConfig::default(), &mut rec, &mut SolveScratch::new()).unwrap();
        // One coupled component, at least one B&B node explored and recorded
        // identically in the counters, the events and the SolverInfo.
        assert_eq!(rec.counter("ilp.components"), 1);
        assert_eq!(rec.counter("ilp.closed_form"), 0);
        let SolverInfo::Ilp { nodes, lp_iterations, .. } = info else {
            panic!("wrong solver info")
        };
        assert!(nodes >= 1);
        assert_eq!(rec.counter("ilp.nodes"), nodes as u64);
        assert_eq!(rec.counter("ilp.lp_iterations"), lp_iterations as u64);
        let comp_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "ilp.component").collect();
        assert_eq!(comp_events.len(), 1);
        assert_eq!(comp_events[0].field("closed_form").unwrap().as_bool(), Some(false));
        assert_eq!(comp_events[0].field("nodes").unwrap().as_u64(), Some(nodes as u64));
        assert_eq!(rec.snapshot().hist("ilp.component_solve").map(|h| h.count()), Some(1));
    }

    #[test]
    fn one_function_component_is_solved_in_closed_form() {
        let inst = single_function_instance();
        let mut rec = Recorder::memory();
        let mut scratch = SolveScratch::new();
        let info = solve_in(&inst, &IlpConfig::default(), &mut rec, &mut scratch).unwrap();
        assert_eq!(
            info,
            SolverInfo::Ilp {
                nodes: 0,
                lp_iterations: 0,
                incumbent_updates: 0,
                pruned_bound: 0,
                pruned_infeasible: 0,
            }
        );
        assert_eq!(scratch.sol.counts(), vec![2]);
        assert_eq!(rec.counter("ilp.components"), 1);
        assert_eq!(rec.counter("ilp.closed_form"), 1);
        assert_eq!(rec.counter("ilp.nodes"), 0);
        let comp_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "ilp.component").collect();
        assert_eq!(comp_events.len(), 1);
        assert_eq!(comp_events[0].field("closed_form").unwrap().as_bool(), Some(true));
        assert_eq!(comp_events[0].field("nodes").unwrap().as_u64(), Some(0));
        assert_eq!(comp_events[0].field("secondaries").unwrap().as_u64(), Some(2));
        // The component-solve histogram times branch and bound only.
        assert_eq!(rec.snapshot().hist("ilp.component_solve").map(|h| h.count()), Some(0));
    }

    #[test]
    fn coupled_component_that_fits_skips_branch_and_bound() {
        let inst = coupled_instance();
        let mut rec = Recorder::memory();
        let mut scratch = SolveScratch::new();
        let cfg = IlpConfig { stop_at_expectation: false, ..IlpConfig::default() };
        let info = solve_in(&inst, &cfg, &mut rec, &mut scratch).unwrap();
        let SolverInfo::Ilp { nodes, lp_iterations, .. } = info else {
            panic!("wrong solver info")
        };
        assert_eq!((nodes, lp_iterations), (0, 0));
        // f1 (the larger demand) goes first and takes 250 of bin 1; f0 then
        // fills bin 0 to its bound of 2 (ties to the lower bin) and puts its
        // third secondary in the 150 left on the shared bin 1.
        assert_eq!(scratch.sol.placements_of(0), &[(0, 2), (1, 1)]);
        assert_eq!(scratch.sol.placements_of(1), &[(1, 1)]);
        assert!(scratch.sol.is_capacity_feasible(&inst));
        assert_eq!(rec.counter("ilp.components"), 1);
        assert_eq!(rec.counter("ilp.closed_form"), 1);
        assert_eq!(rec.counter("ilp.nodes"), 0);
        let comp_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "ilp.component").collect();
        assert_eq!(comp_events.len(), 1);
        assert_eq!(comp_events[0].field("closed_form").unwrap().as_bool(), Some(true));
        assert_eq!(comp_events[0].field("functions").unwrap().as_u64(), Some(2));
        assert_eq!(comp_events[0].field("nodes").unwrap().as_u64(), Some(0));
        assert_eq!(comp_events[0].field("secondaries").unwrap().as_u64(), Some(4));
        assert_eq!(rec.snapshot().hist("ilp.component_solve").map(|h| h.count()), Some(0));
    }

    #[test]
    fn fill_checks_room_where_earlier_functions_placed() {
        // f0 (demand 300) takes bin 1's 300 first; f1 (demand 100, bound 3
        // on each bin) then finds no room on bin 1 although its count there
        // is under its bound, and so falls short of its target of 4: the
        // fill leaves the component to branch and bound.
        let inst = AugmentationInstance {
            functions: vec![slot(300.0, 0.7, vec![1], 1), slot(100.0, 0.7, vec![0, 1], 4)],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 300.0 },
            ],
            l: 1,
            expectation: 0.0,
        };
        let (mut fill, mut sol) = (Fill::default(), Augmentation::empty(2));
        assert_eq!(fill_component(&inst, &[0, 1], &[0, 1], 0.0, &mut fill, &mut sol), None);
        assert_eq!(sol.total_secondaries(), 0, "a failed fill writes nothing");
        // With one secondary fewer targeted, f1 fits on bin 0 alone.
        let mut fits = inst.clone();
        fits.functions[1].max_secondaries = 3;
        assert_eq!(fill_component(&fits, &[0, 1], &[0, 1], 0.0, &mut fill, &mut sol), Some(4));
        assert_eq!(sol.placements_of(0), &[(1, 1)]);
        assert_eq!(sol.placements_of(1), &[(0, 3)]);
    }

    #[test]
    fn closed_form_spreads_to_the_bin_with_most_room() {
        // Bounds ⌊r/d⌋ = 3, 1, 3 and a cap of 5. Rooms 350, 150, 350: the
        // first secondary goes to bin 0 (the lowest of the tied bins), then
        // bins 2, 0 and 2 leave 150 of room everywhere, and the fifth goes
        // to bin 0 again.
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.7, vec![0, 1, 2], 5)],
            bins: vec![
                Bin { node: NodeId(0), residual: 350.0 },
                Bin { node: NodeId(1), residual: 150.0 },
                Bin { node: NodeId(2), residual: 350.0 },
            ],
            l: 1,
            expectation: 0.0,
        };
        let (mut fill, mut sol) = (Fill::default(), Augmentation::empty(1));
        assert_eq!(fill_component(&inst, &[0], &[0, 1, 2], 0.0, &mut fill, &mut sol), Some(5));
        assert_eq!(sol.placements_of(0), &[(0, 3), (2, 2)]);
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
        let inst = coupled_instance();
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
        let inst = coupled_instance();
        let dis = build_model(&inst, 1e-12);
        let agg = build_aggregated(&inst, 1e-12);
        // `solve_lp` ignores integrality: these are the LP relaxations.
        let lp_d = milp::solve_lp(&dis.model).unwrap();
        let lp_a = milp::solve_lp(&agg.model).unwrap();
        assert!(
            (lp_d.objective - lp_a.objective).abs() < 1e-6,
            "dis {} vs agg {}",
            lp_d.objective,
            lp_a.objective
        );
    }

    #[test]
    fn warm_start_point_is_feasible() {
        let inst = coupled_instance();
        let agg = build_aggregated(&inst, 1e-12);
        let warm = crate::greedy::solve(&inst, &Default::default());
        let mut point = Vec::new();
        agg.point_from_augmentation(&inst, &warm.augmentation, &mut point);
        assert!(agg.model.is_feasible(&point, 1e-6), "warm point must be feasible");
        // Round-trip: extracting the point reproduces the counts.
        let mut back = Augmentation::empty(inst.chain_len());
        for (i, b, count) in agg.extract(&point) {
            back.add(i, b, count);
        }
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
