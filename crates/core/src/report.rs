//! Human-readable solution reports: where every secondary went, what each
//! function's reliability became, and how loaded each cloudlet ended up.

use std::fmt::Write as _;

use crate::instance::AugmentationInstance;
use crate::reliability;
use crate::solution::{Outcome, SolverInfo};

/// Render a placement report as plain text (fixed-width columns).
pub fn render(inst: &AugmentationInstance, outcome: &Outcome) -> String {
    let mut out = String::new();
    let m = &outcome.metrics;
    let _ = writeln!(
        out,
        "request reliability: {:.6} (base {:.6}, expectation {:.6}, met: {})",
        m.reliability,
        m.base_reliability,
        inst.expectation,
        if m.met_expectation { "yes" } else { "no" }
    );
    let _ = writeln!(
        out,
        "secondaries placed: {}   paper cost c(S): {:.4}   runtime: {:?}",
        m.total_secondaries, m.paper_cost, outcome.runtime
    );
    let _ = writeln!(out, "solver effort: {}", solver_effort(outcome));
    if !outcome.telemetry.is_empty() {
        for (name, secs) in &outcome.telemetry.timings_s {
            let _ = writeln!(out, "  time {name}: {:.3} ms", secs * 1e3);
        }
    }
    render_placements(inst, outcome, &mut out);
    out
}

/// One-line solver-effort summary for an outcome (always available — it is
/// derived from `SolverInfo`, not from the optional telemetry).
pub fn solver_effort(outcome: &Outcome) -> String {
    match outcome.solver {
        SolverInfo::Ilp {
            nodes,
            lp_iterations,
            incumbent_updates,
            pruned_bound,
            pruned_infeasible,
        } => format!(
            "ILP — {nodes} B&B nodes, {lp_iterations} LP iterations, \
             {incumbent_updates} incumbent updates, pruned {pruned_bound} by bound / \
             {pruned_infeasible} infeasible"
        ),
        SolverInfo::Randomized { lp_iterations, rounds, repairs } => format!(
            "Randomized — {rounds} rounding draws, {lp_iterations} LP iterations, \
             {repairs} repair removals"
        ),
        SolverInfo::Heuristic { matching_rounds } => {
            let gain = outcome.metrics.reliability - outcome.metrics.base_reliability;
            format!(
                "Heuristic — {matching_rounds} matching rounds, {:.6} reliability gain/round",
                gain / matching_rounds.max(1) as f64
            )
        }
        SolverInfo::Greedy { steps } => format!("Greedy — {steps} steps"),
    }
}

/// Render the placement body (everything below the headline lines).
fn render_placements(inst: &AugmentationInstance, outcome: &Outcome, out: &mut String) {
    let _ = writeln!(out, "\nper-function placement:");
    let counts = outcome.augmentation.counts();
    for (i, f) in inst.functions.iter().enumerate() {
        let total = f.existing_backups + counts[i];
        let hosts: Vec<String> = outcome
            .augmentation
            .placements_of(i)
            .iter()
            .map(|&(b, c)| format!("{}x{}", inst.bins[b].node, c))
            .collect();
        let _ = writeln!(
            out,
            "  f{i} @ {}: r={:.3} -> R={:.6}  new={} shared={}  hosts=[{}]",
            f.primary,
            f.reliability,
            reliability::function_reliability(f.reliability, total),
            counts[i],
            f.existing_backups,
            hosts.join(", ")
        );
    }

    let _ = writeln!(out, "\ncloudlet load:");
    let loads = outcome.augmentation.bin_loads(inst);
    for (b, bin) in inst.bins.iter().enumerate() {
        if loads[b] > 0.0 {
            let _ = writeln!(
                out,
                "  {}: {:.0} / {:.0} MHz ({:.0}%)",
                bin.node,
                loads[b],
                bin.residual,
                100.0 * loads[b] / bin.residual
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    #[test]
    fn report_contains_key_fields() {
        let inst = AugmentationInstance {
            functions: vec![FunctionSlot {
                vnf: VnfTypeId(0),
                demand: 100.0,
                reliability: 0.8,
                primary: NodeId(0),
                eligible_bins: vec![0],
                max_secondaries: 3,
                existing_backups: 1,
            }],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.999,
        };
        let out = heuristic::solve(&inst, &Default::default());
        let text = render(&inst, &out);
        assert!(text.contains("request reliability"));
        assert!(text.contains("solver effort: Heuristic"));
        assert!(text.contains("matching rounds"));
        assert!(text.contains("per-function placement"));
        assert!(text.contains("shared=1"));
        assert!(text.contains("cloudlet load"));
        assert!(text.contains("v0"));
    }

    #[test]
    fn traced_report_includes_timing_lines() {
        // Two functions that share bin 0: one coupled component whose
        // targets (3 secondaries each) do not fit its 400, so branch and
        // bound solves it (a component that fits is solved in closed form
        // and not timed).
        let function = |reliability| FunctionSlot {
            vnf: VnfTypeId(0),
            demand: 100.0,
            reliability,
            primary: NodeId(0),
            eligible_bins: vec![0],
            max_secondaries: 3,
            existing_backups: 0,
        };
        let inst = AugmentationInstance {
            functions: vec![function(0.8), function(0.9)],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.999,
        };
        let mut rec = obs::Recorder::memory();
        let out = crate::stream::Algorithm::Ilp(Default::default()).solve_scratch(
            &inst,
            &mut rand::rngs::mock::StepRng::new(0, 1),
            &mut rec,
            &mut crate::SolveScratch::new(),
        );
        let text = render(&inst, &out);
        assert!(text.contains("solver effort: ILP"));
        assert!(text.contains("B&B nodes"));
        assert!(text.contains("time ilp.component_solve"));
    }
}
