//! Locality-radius ablation: how the paper's `l`-hop placement restriction
//! shapes attainable reliability and solver effort, for all three
//! algorithms. `l = |V|` recovers the unrestricted placement of the prior
//! work the paper differentiates itself from (Lin et al. 2020).
//!
//! Usage: `cargo run -p bench-harness --release --bin lhop_exp --
//! [--trials N] [--seed S] [--no-ilp] [--trace PATH]`
//!
//! `--trace PATH` records the first trial of every `l` as JSONL solver
//! events (one file for the whole sweep; filter on the `l` field).

use bench_harness::HarnessArgs;
use expkit::stats::Accumulator;
use expkit::Table;
use mecnet::workload::{generate_scenario, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::instance::AugmentationInstance;
use relaug::stream::Algorithm;
use relaug::SolveScratch;

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lhop_exp: {e}");
            std::process::exit(2);
        }
    };
    let mut rec = match &args.trace {
        Some(path) => Recorder::jsonl_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("lhop_exp: cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        None => Recorder::noop(),
    };
    println!("## Locality-radius ablation ({} trials per l)\n", args.trials);
    let mut table = Table::new(vec![
        "l",
        "ILP rel.",
        "Rand rel.",
        "Heur rel.",
        "N (items)",
        "ILP time",
        "eligible bins/fn",
    ]);
    let wl = WorkloadConfig { sfc_len_range: (6, 6), ..Default::default() };
    // One scratch for the sweep: solver output does not depend on what a
    // scratch solved before (`tests/scratch_reuse.rs`).
    let mut scratch = SolveScratch::new();
    let ilp = Algorithm::Ilp(Default::default());
    let randomized = Algorithm::Randomized(Default::default());
    let heuristic = Algorithm::Heuristic(Default::default());
    for &l in &[1u32, 2, 3, 99] {
        let mut ilp_rel = Accumulator::new();
        let mut rand_rel = Accumulator::new();
        let mut heur_rel = Accumulator::new();
        let mut items = Accumulator::new();
        let mut ilp_time = Accumulator::new();
        let mut eligible = Accumulator::new();
        for t in 0..args.trials {
            let seed = expkit::fan_out(args.seed, t as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let s = generate_scenario(&wl, &mut rng);
            let inst = AugmentationInstance::from_scenario(&s, l);
            items.push(inst.total_items() as f64);
            let mean_elig =
                inst.functions.iter().map(|f| f.eligible_bins.len() as f64).sum::<f64>()
                    / inst.chain_len().max(1) as f64;
            eligible.push(mean_elig);
            // Trace the first trial of each l; the rest run untraced.
            let mut noop = Recorder::noop();
            let trial_rec: &mut Recorder = if t == 0 { &mut rec } else { &mut noop };
            trial_rec.emit_with(|| {
                obs::Event::new("lhop.trial").with("l", l).with("items", inst.total_items())
            });
            if args.ilp {
                let e = ilp.solve_scratch(&inst, &mut rng, trial_rec, &mut scratch);
                ilp_rel.push(e.metrics.reliability);
                ilp_time.push(e.runtime.as_secs_f64());
            }
            let r = randomized.solve_scratch(&inst, &mut rng, trial_rec, &mut scratch);
            rand_rel.push(r.metrics.reliability);
            let h = heuristic.solve_scratch(&inst, &mut rng, trial_rec, &mut scratch);
            heur_rel.push(h.metrics.reliability);
        }
        let label = if l >= 99 { "inf".to_string() } else { l.to_string() };
        table.add_row(vec![
            label,
            if args.ilp { format!("{:.4}", ilp_rel.summary().mean) } else { "-".into() },
            format!("{:.4}", rand_rel.summary().mean),
            format!("{:.4}", heur_rel.summary().mean),
            format!("{:.0}", items.summary().mean),
            if args.ilp {
                expkit::table::fmt_duration_s(ilp_time.summary().mean)
            } else {
                "-".into()
            },
            format!("{:.1}", eligible.summary().mean),
        ]);
    }
    println!("{}", table.to_markdown());
    rec.flush().expect("flush trace");
    if let Some(path) = &args.trace {
        println!("\nwrote {} telemetry events to {path}", rec.events_emitted());
    }
    println!(
        "\nLarger l exposes more cloudlets per function (last column), raising\n\
         attainable reliability at the price of a bigger ILP (N, time) — and of\n\
         the longer state-synchronization paths the paper's model charges\n\
         against but does not price explicitly."
    );
}
