//! `stream_exp` and `sim_exp` at their command-line surface: runs that admit
//! nothing finish cleanly, the telemetry table counts events only when a
//! trace is written, and malformed scenario specs, unknown or removed
//! flags and `sim_exp`-only flags given to `stream_exp` exit 2 with a
//! one-line message.

use std::path::PathBuf;
use std::process::{Command, Output};

fn stream_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stream_exp")).args(args).output().expect("run stream_exp")
}

/// Write `spec` to a per-test file under the system temp dir.
fn spec_file(name: &str, spec: &scen::ScenarioSpec) -> PathBuf {
    let path = std::env::temp_dir().join(format!("stream_exp_{name}_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(spec).expect("serialize spec"))
        .expect("write spec");
    path
}

#[test]
fn a_stream_that_admits_nothing_prints_dashes_and_exits_zero() {
    // Every VNF demands more than any cloudlet holds, so no primary fits.
    let mut spec = scen::ScenarioSpec::preset("waxman-100").expect("known preset");
    spec.catalog.demand_range = (9000.0, 9500.0);
    let path = spec_file("no_admissions", &spec);
    let out = stream_exp(&["--scenario", path.to_str().unwrap(), "--requests", "200"]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for name in ["ILP", "Randomized", "Heuristic", "Greedy"] {
        let row = stdout
            .lines()
            .find(|l| l.starts_with(&format!("| {name} ")))
            .unwrap_or_else(|| panic!("no {name} row in\n{stdout}"));
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        assert_eq!(cells[1], "0.0/200", "{name}: {row}");
        // mean rel., SLO met, early rel., late rel.
        assert_eq!(&cells[2..6], ["-", "-", "-", "-"], "{name}: {row}");
    }
}

#[test]
fn events_column_counts_trace_events_only() {
    // Without `--trace` the observed streams keep counters only: the
    // `events` column prints `-` and the matching counters still fill in.
    let path = std::env::temp_dir().join(format!("stream_exp_events_{}.jsonl", std::process::id()));
    let args = ["--scenario", "waxman-100", "--requests", "300", "--trace", path.to_str().unwrap()];
    for traced in [false, true] {
        let out = stream_exp(&args[..if traced { 6 } else { 4 }]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
        let table = stdout.split("### telemetry").nth(1).unwrap_or_else(|| panic!("{stdout}"));
        for name in ["ILP", "Randomized", "Heuristic", "Greedy"] {
            let row = table.lines().find(|l| l.starts_with(&format!("| {name} "))).unwrap();
            let events = row.trim_matches('|').split('|').map(str::trim).nth(1).unwrap();
            let counted = events.parse::<u64>().is_ok_and(|n| n > 0);
            assert!(if traced { counted } else { events == "-" }, "traced {traced}: {row}");
        }
        assert!(stdout.lines().any(|l| l.starts_with("Heuristic matching: ")), "{stdout}");
        let ilp = stdout.lines().find(|l| l.starts_with("ILP components: ")).expect("ILP line");
        let fields: Vec<u64> = ilp
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().unwrap())
            .collect();
        assert!(fields.len() == 3 && fields[1] <= fields[0], "{ilp}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_specs_exit_2_with_one_line() {
    use scen::{ScenarioSpec, TopologySpec};
    fn waxman(spec: &mut ScenarioSpec) -> (&mut usize, &mut (f64, f64)) {
        match &mut spec.topology {
            TopologySpec::Waxman { nodes, capacity_range, .. } => (nodes, capacity_range),
            _ => unreachable!("waxman-100 is a Waxman topology"),
        }
    }
    type Mutation = fn(&mut ScenarioSpec);
    // (field named in the message, mutation of the waxman-100 preset)
    let cases: [(&str, Mutation); 6] = [
        ("catalog.types", |s| s.catalog.types = 0),
        ("catalog.reliability_range", |s| s.catalog.reliability_range = (0.0, 0.0)),
        ("capacity_range", |s| *waxman(s).1 = (8000.0, 4000.0)),
        ("topology.nodes", |s| *waxman(s).0 = 0),
        ("stream.sfc_len_range", |s| s.stream.sfc_len_range = (6, 3)),
        ("stream.arrival_rate", |s| s.stream.arrival_rate = 0.0),
    ];
    for (field, mutate) in cases {
        let mut spec = ScenarioSpec::preset("waxman-100").expect("known preset");
        mutate(&mut spec);
        let path = spec_file(&format!("malformed_{field}"), &spec);
        let out = stream_exp(&["--scenario", path.to_str().unwrap(), "--requests", "200"]);
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{field}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{field}: {stderr}");
        assert!(stderr.contains("invalid spec") && stderr.contains(field), "{field}: {stderr}");
        assert!(out.stdout.is_empty(), "{field}: printed before failing");
    }
}

/// `out` must be a parse-time failure on `flag`: exit 2, one stderr line
/// naming the flag, nothing on stdout.
fn assert_unknown_flag(bin: &str, out: Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {flag}: {stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{bin}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {flag} printed before failing");
}

#[test]
fn removed_match_engine_flag_exits_2() {
    assert_unknown_flag("stream_exp", stream_exp(&["--match-engine", "rebuild"]), "--match-engine");
}

#[test]
fn removed_plan_cache_flag_exits_2_on_both_binaries() {
    assert_unknown_flag("stream_exp", stream_exp(&["--plan-cache", "4096"]), "--plan-cache");
    let sim = Command::new(env!("CARGO_BIN_EXE_sim_exp"))
        .args(["--plan-cache", "4096"])
        .output()
        .expect("run sim_exp");
    assert_unknown_flag("sim_exp", sim, "--plan-cache");
}

#[test]
fn sim_only_flags_exit_2_on_stream_exp() {
    // `--flight` and a `--workers` above 1 parse (sim_exp takes both) but
    // the sequential stream engine has no flight ring and no workers.
    for (args, flag) in
        [(["--flight", "flight_out"], "--flight"), (["--workers", "2"], "--workers")]
    {
        let out = stream_exp(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} printed before failing");
    }
}
