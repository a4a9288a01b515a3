//! Kill-and-resume integration test for the durable sweep layer
//! (DESIGN.md §5f): SIGKILL the `surface` binary mid-sweep, resume from
//! its journal, and require the resumed output to be **bit-identical** to
//! an uninterrupted run — same `secs_bits`, same total simulated cycles.
//! A second test covers graceful cancellation: SIGINT must produce exit
//! code 130 with a resumable journal, and a third that `--serve` with no
//! daemon listening degrades to the local run's output.

use serde::Deserialize;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Mirrors the `surface` binary's output line.
#[derive(Debug, Deserialize)]
struct Out {
    secs_bits: Vec<u64>,
    total_cycles: u64,
    resumed: u64,
}

/// Sweep sizing: 16 quick-grid cells, single-threaded, each cell large
/// enough (~100ms+) that the process reliably dies mid-sweep.
const SWEEP_ARGS: &[&str] = &["--quick", "--threads", "1", "--k", "256", "--tiles", "96"];

fn surface_cmd(extra: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_surface"));
    c.args(SWEEP_ARGS).args(extra).stdout(Stdio::piped()).stderr(Stdio::piped());
    c
}

fn run_to_out(extra: &[&str]) -> Out {
    parse_out(surface_cmd(extra), extra)
}

/// Runs `surface` to completion and parses its JSON line; it must exit 0.
fn parse_out(mut cmd: Command, args: &[&str]) -> Out {
    let out = cmd.output().expect("spawn surface");
    assert!(
        out.status.success(),
        "surface {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let line = stdout.lines().last().expect("surface printed a JSON line");
    serde_json::from_str(line).expect("parse surface JSON")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("save-killres-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn journal_lines(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("journal.jsonl"))
        .map(|s| s.lines().count())
        .unwrap_or(0)
}

/// Polls until the sweep journal holds at least `want` complete cells (the
/// signal that the run is genuinely mid-flight), then returns the count.
fn wait_for_journal(dir: &Path, want: usize, child: &mut Child) -> usize {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let lines = journal_lines(dir);
        if lines >= want {
            return lines;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("surface exited ({status}) before journaling {want} cells");
        }
        assert!(Instant::now() < deadline, "no journal progress within 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sigkill_then_resume_is_bit_identical() {
    let reference = run_to_out(&[]);
    assert_eq!(reference.secs_bits.len(), 16, "quick grid is 4x4");
    assert!(reference.secs_bits.iter().all(|&b| !f64::from_bits(b).is_nan()));

    let dir = tmpdir("sigkill");
    let dir_s = dir.display().to_string();
    let mut child = surface_cmd(&["--checkpoint-dir", &dir_s]).spawn().expect("spawn");
    wait_for_journal(&dir, 2, &mut child);
    // SIGKILL: no destructors, no flush beyond what the journal already
    // forced — the worst-case crash the layer promises to survive.
    child.kill().expect("kill");
    let status = child.wait().expect("wait");
    assert!(!status.success(), "killed run must not report success");

    let journaled = journal_lines(&dir);
    assert!(journaled >= 2, "at least the awaited cells are durable");

    let resumed = run_to_out(&["--checkpoint-dir", &dir_s, "--resume"]);
    assert!(
        resumed.resumed >= 2,
        "resume must restore the journaled cells, restored {}",
        resumed.resumed
    );
    assert_eq!(
        resumed.secs_bits, reference.secs_bits,
        "resumed surface must be bit-identical to an uninterrupted run"
    );
    assert_eq!(
        resumed.total_cycles, reference.total_cycles,
        "total simulated cycles are resume-invariant"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigint_exits_130_and_leaves_a_resumable_journal() {
    let dir = tmpdir("sigint");
    let dir_s = dir.display().to_string();
    let mut child = surface_cmd(&["--checkpoint-dir", &dir_s]).spawn().expect("spawn");
    wait_for_journal(&dir, 1, &mut child);
    let sent = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(sent.success(), "kill -INT failed");
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(130), "cancelled-but-resumable exit code");

    // The journal survives and the resumed run completes cleanly.
    let resumed = run_to_out(&["--checkpoint-dir", &dir_s, "--resume"]);
    assert!(resumed.resumed >= 1);
    assert!(resumed.secs_bits.iter().all(|&b| !f64::from_bits(b).is_nan()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreachable_daemon_degrades_to_the_local_run() {
    // A port nothing listens on: bound, read, and released.
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let quick = |args: &[&str]| {
        let mut c = Command::new(env!("CARGO_BIN_EXE_surface"));
        c.arg("--quick").args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
        parse_out(c, args)
    };
    let local = quick(&[]);
    let served = quick(&["--serve", &addr]);
    assert_eq!(served.secs_bits, local.secs_bits, "the degraded run prints the local bits");
    assert_eq!(served.total_cycles, local.total_cycles);
    assert_eq!(served.resumed, 0, "nothing was served or restored");
}
