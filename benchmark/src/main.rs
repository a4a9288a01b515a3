//! End-to-end and per-layer host-performance benchmark for the SAVE
//! simulator. See `README.md` next to `Cargo.toml`.

mod compare;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Default measuring time per workload, in seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Command-line usage.
pub const USAGE: &str = "usage:
  save-benchmark run [--workload compute|stream|ablation|mesh|serve] [--seed N]
                     [--seconds N] [--trace [0|1]] [--smoke]
  save-benchmark compare PARENT_DIR CHANGE_DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        // The per-workload process `run` spawns.
        Some("child") => {
            let started = std::time::Instant::now();
            match run::parse(&args[1..]).and_then(|o| run::child(&o, started)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("save-benchmark child: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
