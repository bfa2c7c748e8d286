//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shared_fabric|shared_fabric_nocache|figure4|app_sessions> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use escudo_perfbench::{run_end_to_end, run_traced, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: --workload <shared_fabric|shared_fabric_nocache|figure4|app_sessions> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let name = args.workload.name();
    let outcome = if args.trace {
        let (outcome, tracer) = run_traced(args.workload, args.seed, budget);
        let path = PathBuf::from(".bench_trace").join(format!("{name}-seed{}.jsonl", args.seed));
        let (stored, dropped) = tracer.span_count();
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {stored} written to {} ({dropped} past capacity)",
                path.display()
            ),
            Err(error) => eprintln!("perfbench: could not write {}: {error}", path.display()),
        }
        outcome
    } else {
        run_end_to_end(args.workload, args.seed, budget)
    };
    println!(
        "workload {name} seed {} trace {} (available parallelism {})",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    print!("{}", outcome.table());
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
