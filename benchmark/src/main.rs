//! Benchmark of the admission + reliability-augmentation pipeline.
//!
//! `benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1]`
//!
//! Builds the workload's inputs from the seed, runs the engine in one
//! thread, checks its outputs, and prints two JSON lines: a detail line
//! (seed, cores, record hash, pass and sample counts, checks) and, last, the
//! result line `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with telemetry
//! off; with `--trace 1` they are the per-layer ones from a traced run.
//! Exits 1 when a check fails and 2 on bad arguments. See README.md.

mod stats;
mod stream;

use std::time::Instant;

use stats::{json_str, report_line, result_line, Metric};

/// The preset seed of the scenario zoo.
const DEFAULT_SEED: u64 = 20_200_817;
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run at least, and the time they fill at least: `setup_s` is
/// their median, and a cheap set-up is repeated until that median is steady.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// Everything one invocation measured and checked.
#[derive(Default)]
pub struct Run {
    pub metrics: Vec<Metric>,
    /// Requests processed by the measured (or traced) passes.
    pub attempted: u64,
    failures: Vec<&'static str>,
    details: Vec<(&'static str, String)>,
}

impl Run {
    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: &'static str) {
        if !ok && !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// Add a field to the detail line.
    pub fn report(&mut self, key: &'static str, json: String) {
        self.details.push((key, json));
    }
}

/// Build the inputs repeatedly, timing each build; returns the median time
/// and the last build. Earlier builds are dropped first so peak memory holds
/// one build.
pub fn timed_setups<T>(build: impl Fn() -> T) -> (f64, T) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    expkit::mem::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Keep running passes while one more pass of average length fits in
/// `seconds`; always at least `min`.
pub fn more_passes(started: Instant, done: usize, min: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    done < min || elapsed + elapsed / done as f64 <= seconds
}

fn workload_names() -> Vec<&'static str> {
    stream::WORKLOADS.iter().map(|w| w.name).collect()
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workload_names().contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                };
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}; workloads: {}", workload_names().join(", "));
            std::process::exit(2);
        }
    };
    let w = stream::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse_args accepts only listed workloads");
    let run = stream::run(w, args.seed, args.seconds, args.trace);
    let correct = run.failures.is_empty();
    let checks = if correct { "ok".to_string() } else { run.failures.join("; ") };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut details = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("cores", cores.to_string()),
    ];
    details.extend(run.details);
    details.push(("checks", json_str(&checks)));
    println!("{}", report_line(&details));
    let failed = if correct { 0 } else { run.attempted };
    println!("{}", result_line(correct, run.attempted.max(1), failed, &run.metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&["--workload", "ba-ilp", "--seed", "3", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(a, Args { workload: "ba-ilp".into(), seed: 3, seconds: 10.0, trace: true });
        let a = parse(&["--workload", "sagin-admit"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "ba-ilp", "--seed", "x"],
            &["--workload", "ba-ilp", "--seed"],
            &["--workload", "ba-ilp", "--trace", "2"],
            &["--workload", "ba-ilp", "--seconds", "0"],
            &["--workload", "ba-ilp", "--verbose"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
