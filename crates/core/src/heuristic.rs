//! Algorithm 2: the matching-based heuristic.
//!
//! Builds a series of bipartite graphs `G_1, G_2, …` between cloudlets with
//! remaining residual capacity and still-unplaced candidate secondary items,
//! extracts a minimum-cost maximum matching from each (edge weights are the
//! paper's Eq. 3 costs), commits the matched placements, and repeats. Each
//! round a cloudlet receives at most one new instance, so capacities are never
//! violated (Theorem 6.2's feasibility argument).
//!
//! The loop guard is configurable via [`StopRule`]; see DESIGN.md on why the
//! literal budget guard `c(S) < C` of the pseudocode stops after one round
//! for realistic `ρ_j` and why stopping at the reached expectation is the
//! faithful reading.

use std::time::Instant;

use obs::{metrics, Recorder, Telemetry};

use crate::instance::AugmentationInstance;
use crate::reliability::LadderTables;
use crate::scratch::SolveScratch;
use crate::solution::{rel_from_counts, Outcome, SolverInfo};

/// When the matching loop stops (besides running out of edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop once the achieved reliability reaches `ρ_j` — the problem's
    /// actual goal and the default.
    #[default]
    Expectation,
    /// The pseudocode's literal guard: stop once the accumulated item cost
    /// `c(S)` reaches the budget `C = -log ρ_j`.
    PaperBudget,
    /// Keep matching until no placeable item remains (upper-bounds what the
    /// heuristic could ever achieve).
    Exhaust,
}

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Default)]
pub struct HeuristicConfig {
    pub stop: StopRule,
    /// Item-enumeration cap (see [`crate::ilp::IlpConfig::gain_floor`]);
    /// `0.0` disables capping (and is the default). Positive floors only
    /// drop items whose reliability contribution is below the floor.
    pub gain_floor: f64,
}

impl HeuristicConfig {
    pub fn with_stop(stop: StopRule) -> Self {
        HeuristicConfig { stop, gain_floor: 1e-12 }
    }
}

/// Run Algorithm 2 on a fresh scratch, untraced. Never violates capacities
/// or locality.
pub fn solve(inst: &AugmentationInstance, cfg: &HeuristicConfig) -> Outcome {
    let (mut rec, mut scratch) = (Recorder::noop(), SolveScratch::new());
    let started = Instant::now();
    let info = solve_in(inst, cfg, &mut rec, &mut scratch);
    Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), Telemetry::default())
}

/// Algorithm 2 on caller-owned scratch: builds the solution in
/// `scratch.sol` (see [`Outcome::from_solution`]) and returns the number of
/// matching rounds. Each round is solved exactly by
/// [`matching::LadderMatcher`]: a minimum-cost maximum matching of the
/// round's graph `G_l`. Emits one `heuristic.round` event per matching round
/// carrying the bipartite graph dimensions (bins × items, edge count,
/// signature classes), the matching size, the placements committed and the
/// reliability gain. The result does not depend on the prior state of
/// `scratch`, and with a warm scratch the solve allocates nothing (see
/// `crates/bench/benches/solve_alloc.rs`); only enabled-recorder event
/// closures allocate.
///
/// Under [`StopRule::Expectation`], a first matching round that reaches
/// `ρ_j` is the only committing round, and its overshoot is trimmed count
/// first: [`crate::solution::Augmentation::commit_one_round_trimmed`]
/// writes only the secondaries the trim keeps, the same rows the full commit
/// and [`crate::solution::Augmentation::trim_to_expectation`] leave. A
/// solve with more committing rounds commits them all and trims after.
pub fn solve_in(
    inst: &AugmentationInstance,
    cfg: &HeuristicConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> SolverInfo {
    let SolveScratch { sol, heur, matching_out, ladder, tables, .. } = scratch;
    let crate::scratch::HeuristicScratch {
        cap,
        next_k,
        table_of,
        residual,
        item_of,
        placed_per_func,
    } = heur;
    sol.begin(inst.chain_len());
    if inst.expectation_met_by_primaries() {
        rec.emit_with(|| {
            obs::Event::new("heuristic.early_exit")
                .with("base_reliability", inst.base_reliability())
        });
        return SolverInfo::Heuristic { matching_rounds: 0 };
    }

    let gain_floor = if cfg.gain_floor > 0.0 { cfg.gain_floor } else { 0.0 };
    // Per function: slots still to place are next_k[i]..=cap[i].
    cap.clear();
    cap.extend(inst.functions.iter().map(|f| f.capped_slots(gain_floor)));
    next_k.clear();
    next_k.resize(inst.chain_len(), 1);
    tables.resolve(inst.functions.iter().map(|f| f.reliability), table_of);
    residual.clear();
    residual.extend(inst.bins.iter().map(|b| b.residual));
    let budget = inst.budget();
    let mut total_cost = 0.0f64;
    let mut rounds = 0usize;
    // Telemetry totals, counted once per solve: committing rounds, their
    // placements, `G_l` edges and signature classes.
    let mut counted = 0u64;
    let (mut committed_total, mut edges_total, mut classes_total) = (0usize, 0usize, 0usize);
    // Set when the count-first path has already trimmed.
    let mut trimmed = None;

    loop {
        // Stop-rule check before building the next graph.
        match cfg.stop {
            StopRule::Expectation => {
                if rel_from_tables(inst, tables, table_of, sol.counts()) >= inst.expectation {
                    break;
                }
            }
            StopRule::PaperBudget => {
                if total_cost >= budget {
                    break;
                }
            }
            StopRule::Exhaust => {}
        }

        // Enumerate this round's items (the cost ladders) over each
        // function's usable bins. A function can gain at most `usable`
        // placements per round (each bin hosts at most one match), so only
        // its next `usable` slots can possibly be matched; enumerating more
        // only inflates the graph. The cost is strictly increasing in `k`;
        // once the marginal underflows to zero (cost = +inf) this slot and
        // every later one add no representable reliability, so they can't be
        // usefully matched.
        item_of.clear();
        ladder.begin_round();
        let mut edges_full = 0usize;
        for (i, f) in inst.functions.iter().enumerate() {
            if next_k[i] > cap[i] {
                continue;
            }
            let usable = ladder
                .push_bins(f.eligible_bins.iter().copied().filter(|&b| residual[b] >= f.demand));
            if usable == 0 {
                continue;
            }
            let first_item = item_of.len();
            for k in next_k[i]..=cap[i].min(next_k[i] + usable - 1) {
                let cost = tables.cost(table_of[i], f.existing_backups + k);
                if !cost.is_finite() {
                    break;
                }
                item_of.push((i, k));
                ladder.push_cost(cost);
            }
            edges_full += (item_of.len() - first_item) * usable;
        }
        // Every item carries at least one edge (usable > 0), so "no items"
        // is exactly "no edges".
        if item_of.is_empty() {
            break;
        }
        rounds += 1;

        ladder.solve_into(residual, matching_out);
        if matching_out.is_empty() {
            break;
        }
        // A round matches each bin once and only to functions that fit it,
        // so every pair commits, in any order. The matcher hands out each
        // function's slots in ladder order.
        placed_per_func.clear();
        placed_per_func.resize(inst.chain_len(), 0);
        for &(_, right) in &matching_out.pairs {
            placed_per_func[item_of[right].0] += 1;
        }
        let committed = matching_out.pairs.len();
        // A first committing round that reaches `ρ_j` is also the last: the
        // stop check would end the loop, and the trim follow.
        let one_round = cfg.stop == StopRule::Expectation
            && committed_total == 0
            && rel_from_tables(inst, tables, table_of, placed_per_func) >= inst.expectation;
        if !one_round {
            for &(b, right) in &matching_out.pairs {
                let (i, k) = item_of[right];
                residual[b] -= inst.functions[i].demand;
                sol.add(i, b, 1);
                if cfg.stop == StopRule::PaperBudget {
                    total_cost += tables.cost(table_of[i], inst.functions[i].existing_backups + k);
                }
            }
        }
        counted += 1;
        committed_total += committed;
        edges_total += edges_full;
        classes_total += ladder.classes();
        rec.emit_with(|| {
            // Before a one-round commit the counts are all zero.
            let after: &[usize] = if one_round { placed_per_func } else { sol.counts() };
            let before: Vec<usize> =
                after.iter().zip(placed_per_func.iter()).map(|(&m, &p)| m - p).collect();
            let rel = rel_from_counts(inst, after);
            obs::Event::new("heuristic.round")
                .with("round", rounds)
                .with("left_bins", ladder.usable_bins())
                .with("right_items", item_of.len())
                .with("edges", edges_full)
                .with("classes", ladder.classes())
                .with("matched", matching_out.pairs.len())
                .with("committed", committed)
                .with("reliability", rel)
                .with("reliability_gain", rel - rel_from_counts(inst, &before))
        });
        if one_round {
            trimmed = Some(sol.commit_one_round_trimmed(
                inst,
                tables,
                table_of,
                matching_out.pairs.iter().map(|&(b, r)| (item_of[r].0, b)),
            ));
            break;
        }
        // Matched items per function are exactly its cheapest remaining slots
        // (min-cost matching always prefers lower k).
        for (i, &p) in placed_per_func.iter().enumerate() {
            next_k[i] += p;
        }
    }

    rec.count(metrics::HEURISTIC_ROUNDS, counted);
    rec.count(metrics::HEURISTIC_COMMITTED, committed_total as u64);
    // The size of the paper's `G_l` (stream_exp's matching table).
    rec.count(metrics::MATCHING_EDGES_FULL, edges_total as u64);
    rec.count(metrics::MATCHING_CLASSES, classes_total as u64);
    if cfg.stop == StopRule::Expectation {
        // The final matching round may overshoot the expectation; trim the
        // surplus like the other algorithms do.
        let trimmed = trimmed.unwrap_or_else(|| sol.trim_to_expectation(inst));
        rec.count(metrics::HEURISTIC_TRIMMED, trimmed as u64);
    }
    SolverInfo::Heuristic { matching_rounds: rounds }
}

/// [`rel_from_counts`] with its `R` terms read from the ladder tables: the
/// same product, bit for bit.
fn rel_from_tables(
    inst: &AugmentationInstance,
    tables: &mut LadderTables,
    table_of: &[usize],
    counts: &[usize],
) -> f64 {
    inst.functions
        .iter()
        .zip(table_of.iter().zip(counts))
        .map(|(f, (&id, &m))| tables.rung(id, m + f.existing_backups).rel)
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    fn slot(demand: f64, r: f64, eligible: Vec<usize>, max: usize) -> FunctionSlot {
        FunctionSlot {
            vnf: VnfTypeId(0),
            demand,
            reliability: r,
            primary: NodeId(0),
            eligible_bins: eligible,
            max_secondaries: max,
            existing_backups: 0,
        }
    }

    #[test]
    fn early_exit_when_base_suffices() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.95, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.9,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 0 });
    }

    #[test]
    fn exhausts_capacity_toward_high_expectation() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 350.0 }],
            l: 1,
            expectation: 0.9999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        // 3 secondaries fit; expectation needs R(0.8, k) >= 0.9999999 -> k = 10,
        // so the heuristic should exhaust all 3.
        assert_eq!(out.augmentation.counts(), vec![3]);
        assert!(out.augmentation.is_capacity_feasible(&inst));
        // One bin: each round places one instance -> 3 rounds (+1 empty-check).
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 3 });
    }

    #[test]
    fn stops_at_expectation() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 5)],
            bins: vec![Bin { node: NodeId(0), residual: 600.0 }],
            l: 1,
            expectation: 0.95, // R(0.8, 1) = 0.96 >= 0.95 -> one secondary
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![1]);
        assert!(out.metrics.met_expectation);
    }

    #[test]
    fn paper_budget_rule_stops_after_first_round() {
        // C = -ln(0.95) ≈ 0.051; the first item's cost -ln(0.16) ≈ 1.83
        // already exceeds it, so the literal rule stops after round 1.
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 5)],
            bins: vec![Bin { node: NodeId(0), residual: 600.0 }],
            l: 1,
            expectation: 0.95,
        };
        let out = solve(&inst, &HeuristicConfig::with_stop(StopRule::PaperBudget));
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 1 });
        assert_eq!(out.augmentation.counts(), vec![1]);
    }

    #[test]
    fn exhaust_rule_fills_everything() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.9, vec![0, 1], 7), slot(150.0, 0.85, vec![1], 2)],
            bins: vec![
                Bin { node: NodeId(0), residual: 250.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.5, // trivially met, but Exhaust ignores it...
        };
        // NOTE: early EXIT still applies (paper line 2-4). Use an expectation
        // the base misses.
        let mut inst = inst;
        inst.expectation = 0.9999999999;
        let out = solve(&inst, &HeuristicConfig { stop: StopRule::Exhaust, ..Default::default() });
        // Bin0 fits 2 f0-instances (200 <= 250); bin1: best packing uses all
        // 400 MHz; the matching is greedy per round so verify only feasibility
        // and that nothing more could fit.
        assert!(out.augmentation.is_capacity_feasible(&inst));
        let loads = out.augmentation.bin_loads(&inst);
        // No instance of any function with a usable bin remains placeable.
        for (i, f) in inst.functions.iter().enumerate() {
            let placed: usize = out.augmentation.counts()[i];
            if placed < f.max_secondaries {
                for &b in &f.eligible_bins {
                    assert!(
                        inst.bins[b].residual - loads[b] < f.demand,
                        "function {i} could still fit in bin {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefers_low_reliability_functions_under_scarcity() {
        // One slot of capacity; matching must pick the cheaper item, which by
        // Eq. 3 is the *less reliable* function's first backup...
        // cost(r, 1) = -ln(r(1-r)); r=0.6 -> -ln(0.24)=1.43; r=0.9 ->
        // -ln(0.09)=2.41. So f(r=0.6) wins — which also maximizes gain here.
        let inst = AugmentationInstance {
            functions: vec![slot(200.0, 0.6, vec![0], 1), slot(200.0, 0.9, vec![0], 1)],
            bins: vec![Bin { node: NodeId(0), residual: 200.0 }],
            l: 1,
            expectation: 0.999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![1, 0]);
    }

    #[test]
    fn respects_multiple_bins_per_round() {
        // One function, three eligible bins: a single round can place three
        // instances (one per bin).
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0, 1, 2], 3)],
            bins: vec![
                Bin { node: NodeId(0), residual: 100.0 },
                Bin { node: NodeId(1), residual: 100.0 },
                Bin { node: NodeId(2), residual: 100.0 },
            ],
            l: 1,
            expectation: 0.9999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![3]);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 1 });
    }

    #[test]
    fn traced_solve_records_rounds() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 350.0 }],
            l: 1,
            expectation: 0.9999999,
        };
        let mut rec = Recorder::memory();
        let info = solve_in(&inst, &HeuristicConfig::default(), &mut rec, &mut SolveScratch::new());
        assert_eq!(info, SolverInfo::Heuristic { matching_rounds: 3 });
        assert_eq!(rec.counter("heuristic.rounds"), 3);
        let rounds: Vec<_> = rec.events().iter().filter(|e| e.kind == "heuristic.round").collect();
        assert_eq!(rounds.len(), 3);
        // One bin -> each round matches and commits exactly one placement,
        // and every round strictly improves the reliability.
        for e in &rounds {
            assert_eq!(e.field("matched").unwrap().as_u64(), Some(1));
            assert_eq!(e.field("committed").unwrap().as_u64(), Some(1));
            assert_eq!(e.field("left_bins").unwrap().as_u64(), Some(1));
            assert!(e.field("reliability_gain").unwrap().as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn no_capacity_no_rounds() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![], 0)],
            bins: vec![Bin { node: NodeId(0), residual: 50.0 }],
            l: 1,
            expectation: 0.99,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 0 });
    }
}
