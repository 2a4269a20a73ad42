//! `--workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]`
//! (defaults: seed 1, 15 s, trace 0):
//! run one workload in this process, print every metric by name with its
//! unit, and end with the driver's JSON result line. A violated
//! correctness gate prints no metrics and exits non-zero.

use edgstr_benchmark::metrics::{result_line, END_TO_END, PER_LAYER};
use edgstr_benchmark::run::{self, Budget};
use edgstr_benchmark::workloads::{self, SMOKE_DIVISOR, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload is required, one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workloads::find(&args.workload)
        .ok_or_else(|| format!("no workload named {}", args.workload))?;
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let stream = workloads::generate(spec, args.seed, divisor);
    let (outcome, declared) = if args.trace {
        let path: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "out",
            &format!("trace_{}.jsonl", spec.name),
        ]
        .iter()
        .collect();
        (run::traced(spec, &stream, &path)?, &PER_LAYER[..])
    } else {
        let budget = Budget {
            seconds: args.seconds,
            smoke: args.smoke,
        };
        (run::end_to_end(spec, &stream, &budget)?, &END_TO_END[..])
    };
    let rows = outcome.metrics.ordered(declared, args.trace)?;
    println!("workload {} seed {}", spec.name, args.seed);
    for (name, unit, value) in &rows {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    println!("{}", result_line(outcome.attempted, &rows));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
