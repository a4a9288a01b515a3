//! save-bench — every table, figure and report of the SAVE paper from one
//! binary: `save-bench <command> [flags]`, e.g. `save-bench fig14 --quick`
//! or `save-bench surface fsck DIR`.
//!
//! [`COMMANDS`] maps each command name to its body. Every command runs
//! through [`save_bench::run_main`] with the arguments it reads beyond the
//! uniform durable-execution flags; any other argument, and an unknown
//! command, is a usage error (exit 2) before any cell runs.

mod ablation;
mod fig12;
mod fig13;
mod mesh;
mod netreport;
mod perfstat;
mod power;
mod simulate;
mod surface;
mod table1;
mod table2;
mod table3;

use save_bench::{figures, run_main, CommandArgs};
use save_sim::durable::EXIT_USAGE;
use std::process::ExitCode;

/// A command: runs it, given its name and the arguments after the name.
type Run = fn(&'static str, Vec<String>) -> ExitCode;

/// Every command, in the order the usage text lists them.
const COMMANDS: &[(&str, Run)] = &[
    ("table1", |name, argv| run_main(name, argv, &CommandArgs::default(), |_, _| table1::body())),
    ("table2", |name, argv| run_main(name, argv, &CommandArgs::default(), |_, _| table2::body())),
    ("table3", |name, argv| run_main(name, argv, &CommandArgs::default(), |_, _| table3::body())),
    ("fig12", |name, argv| run_main(name, argv, &CommandArgs::default(), |_, _| fig12::body())),
    ("fig13", |name, argv| run_main(name, argv, &CommandArgs::default(), |_, _| fig13::body())),
    ("fig14", figures::main),
    ("fig15", figures::main),
    ("fig16", figures::main),
    ("fig17", figures::main),
    ("fig18", figures::main),
    ("fig19", figures::main),
    ("extensions", figures::main),
    ("ablation", |name, argv| run_main(name, argv, &CommandArgs::default(), ablation::body)),
    ("power", |name, argv| run_main(name, argv, &CommandArgs::default(), power::body)),
    ("netreport", |name, argv| {
        let args = CommandArgs { switches: &["--mp", "--mesh"], valued: &["--cores", "--quantum"], positionals: 1,
            synopsis: "[vgg16|resnet50|resnet50-pruned|gnmt] [--mp] [--mesh] [--cores N] [--quantum Q]" };
        run_main(name, argv, &args, netreport::body)
    }),
    ("mesh", |name, argv| {
        let args = CommandArgs { switches: &["--compare-lockstep"], valued: &["--cores", "--quantum"], positionals: 0,
            synopsis: "[--cores N] [--quantum Q] [--compare-lockstep]" };
        run_main(name, argv, &args, mesh::body)
    }),
    ("surface", |name, argv| {
        let args = CommandArgs { switches: &["--fault-first", "--repair"], valued: &["--config", "--cores", "--k", "--tiles"],
            positionals: 2, // fsck PATH
            synopsis: "[--config baseline|save2|save1] [--cores N] [--k K] [--tiles T] [--fault-first]\n       \
                       save-bench surface fsck PATH [--repair]" };
        run_main(name, argv, &args, surface::body)
    }),
    ("simulate", |name, argv| {
        let args = CommandArgs { switches: &["--example", "--detailed", "--json"],
            valued: &["--spec", "--config", "--cores", "--seed", "--sanitize"], positionals: 0,
            synopsis: "--spec <workload.json> [--config baseline|save2|save1]\n\
                       \x20                          [--cores N] [--detailed] [--seed S] [--json]\n\
                       \x20                          [--sanitize off|periodic[:N]|full]\n\
                       \x20      save-bench simulate --example   # print a template workload" };
        run_main(name, argv, &args, simulate::body)
    }),
    ("perfstat", |name, argv| {
        let args = CommandArgs { switches: &["--update", "--check", "--scaling"], valued: &["--label"], positionals: 0,
            synopsis: "[--update] [--check] [--scaling] [--label L]" };
        run_main(name, argv, &args, perfstat::body)
    }),
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    if let Some((name, run)) = COMMANDS.iter().find(|(name, _)| command.as_deref() == Some(*name)) {
        return run(name, argv.collect());
    }
    let what = command.map_or_else(|| "no command given".to_string(), |c| format!("unknown command {c:?}"));
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    eprintln!("save-bench: {what}\nusage: save-bench <command> [flags]\ncommands: {}", names.join(" "));
    ExitCode::from(EXIT_USAGE)
}
