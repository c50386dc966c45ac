//! `solve_one` at its command-line surface: the `--json` document of every
//! algorithm on one generated scenario, and the exit code of an unknown
//! `--algo`.

use std::process::{Command, Output};

fn solve_one(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_solve_one")).args(args).output().expect("run solve_one")
}

/// Per `--algo`, at `--seed 1 --len 5 --json`: the `metrics` and `solver`
/// fields as compact JSON, and the `solver_effort` line.
const PINNED: [(&str, &str, &str, &str); 4] = [
    (
        "ilp",
        concat!(
            r#"{"reliability":0.990896228318305,"base_reliability":0.40306481963130847,"#,
            r#""met_expectation":true,"total_secondaries":13,"bin_usage":[0.6874716115898518,"#,
            r#"0.9762065273907803,0.1370105048428779,0.6793782760522862,0.14902553946364644],"#,
            r#""avg_usage":0.5258184918678885,"min_usage":0.1370105048428779,"#,
            r#""max_usage":0.9762065273907803,"max_violation_ratio":0.9762065273907803,"#,
            r#""paper_cost":44.86062087897177}"#,
        ),
        r#"{"Ilp":{"nodes":65,"lp_iterations":245,"incumbent_updates":2,"pruned_bound":41,"pruned_infeasible":10}}"#,
        "ILP — 65 B&B nodes, 245 LP iterations, 2 incumbent updates, pruned 41 by bound / 10 \
         infeasible",
    ),
    (
        "rand",
        concat!(
            r#"{"reliability":0.990896228318305,"base_reliability":0.40306481963130847,"#,
            r#""met_expectation":true,"total_secondaries":13,"bin_usage":[0.6874716115898518,"#,
            r#"0.8288370851128573,0.1370105048428779,0.87756996957582,0.14902553946364644],"#,
            r#""avg_usage":0.5359829421170107,"min_usage":0.1370105048428779,"#,
            r#""max_usage":0.87756996957582,"max_violation_ratio":0.87756996957582,"#,
            r#""paper_cost":44.86062087897177}"#,
        ),
        r#"{"Randomized":{"lp_iterations":32,"rounds":1,"repairs":10}}"#,
        "Randomized — 1 rounding draws, 32 LP iterations, 10 repair removals",
    ),
    (
        "heur",
        concat!(
            r#"{"reliability":0.9900274299583094,"base_reliability":0.40306481963130847,"#,
            r#""met_expectation":true,"total_secondaries":13,"bin_usage":[0.6874716115898518,"#,
            r#"0.6455681050011746,0.2740210096857558,0.8499389654198156,0.14902553946364644],"#,
            r#""avg_usage":0.5212050462320489,"min_usage":0.14902553946364644,"#,
            r#""max_usage":0.8499389654198156,"max_violation_ratio":0.8499389654198156,"#,
            r#""paper_cost":45.1125781645128}"#,
        ),
        r#"{"Heuristic":{"matching_rounds":4}}"#,
        "Heuristic — 4 matching rounds, 0.146741 reliability gain/round",
    ),
    (
        "greedy",
        concat!(
            r#"{"reliability":0.9900274299583094,"base_reliability":0.40306481963130847,"#,
            r#""met_expectation":true,"total_secondaries":13,"bin_usage":[0.6874716115898518,"#,
            r#"0.7089800301423417,0.2740210096857558,0.7646586207360508,0.14902553946364644],"#,
            r#""avg_usage":0.5168313623235293,"min_usage":0.14902553946364644,"#,
            r#""max_usage":0.7646586207360508,"max_violation_ratio":0.7646586207360508,"#,
            r#""paper_cost":45.1125781645128}"#,
        ),
        r#"{"Greedy":{"steps":13}}"#,
        "Greedy — 13 steps",
    ),
];

#[test]
fn json_reports_are_pinned_for_every_algorithm() {
    for (algo, metrics, solver, effort) in PINNED {
        let out = solve_one(&["--algo", algo, "--seed", "1", "--len", "5", "--json"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{algo}: exit {:?}\n{stdout}", out.status);
        let doc: serde_json::Value = serde_json::from_str(&stdout).expect("one JSON document");
        let field = |name: &str| {
            serde_json::to_string(doc.get(name).unwrap_or_else(|| panic!("{algo}: no {name}")))
                .expect("serialize field")
        };
        assert_eq!(field("metrics"), metrics, "{algo}: metrics");
        assert_eq!(field("solver"), solver, "{algo}: solver");
        assert_eq!(doc.get("solver_effort").and_then(|v| v.as_str()), Some(effort), "{algo}");
    }
}

#[test]
fn unknown_algorithm_exits_2_with_one_line() {
    let out = solve_one(&["--algo", "simplex", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("unknown algorithm 'simplex'"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed before failing");
}
