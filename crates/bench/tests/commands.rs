//! The `save-bench` dispatch table: every command rejects an argument it
//! does not read with a usage error (exit 2) before any cell runs, and a
//! missing or unknown command lists the commands.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::SystemTime;

/// Every command, in the order the usage text lists them.
const COMMANDS: &[&str] = &[
    "table1", "table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "extensions", "ablation", "power", "netreport", "mesh", "surface", "simulate", "perfstat",
];

fn save_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_save-bench")).args(args).output().expect("spawn save-bench")
}

/// Every file a command may write, with its modification time: the JSON
/// artifacts and failure reports, and `perfstat`'s trajectory.
fn artifacts() -> Vec<(PathBuf, Option<SystemTime>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::fs::read_dir(root.join("target/experiments"));
    let mut files: Vec<PathBuf> = dir.into_iter().flatten().flatten().map(|e| e.path()).collect();
    files.push(root.join("BENCH_PERF.json"));
    files.sort();
    files.into_iter().map(|p| (p.clone(), std::fs::metadata(p).and_then(|m| m.modified()).ok())).collect()
}

#[test]
fn every_command_rejects_an_argument_it_does_not_read() {
    let before = artifacts();
    // (command, arguments, the argument rejected)
    let unknown = COMMANDS.iter().map(|&cmd| (cmd, &["--no-such-flag"][..], "--no-such-flag"));
    let typos = [
        ("perfstat", &["--chek", "--quick"][..], "--chek"),
        ("mesh", &["--quick", "--core", "4"], "--core"),
        ("fig13", &["--quik"], "--quik"),
    ];
    for (cmd, args, bad) in unknown.chain(typos) {
        let out = save_bench(&[&[cmd], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {args:?}: {stderr}");
        let want = format!("{cmd}: unexpected argument {bad:?}\nusage: save-bench {cmd}");
        assert!(stderr.starts_with(&want), "{cmd} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} {args:?} printed {:?}", String::from_utf8_lossy(&out.stdout));
    }
    assert_eq!(artifacts(), before, "a rejected command line wrote an artifact");
}

#[test]
fn a_missing_or_unknown_command_lists_the_commands() {
    for args in [&[][..], &["fig20"]] {
        let out = save_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().last(), Some(format!("commands: {}", COMMANDS.join(" ")).as_str()), "{args:?}");
    }
}
