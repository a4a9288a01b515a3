//! End-to-end daemon tests — the acceptance criteria of DESIGN.md §5g.
//!
//! Each test drives the real `save-serve` binary over TCP:
//!
//! * remote results are bit-identical to running each cell locally, and a
//!   resubmission is served entirely from the memo cache;
//! * a worker killed mid-cell (injected [`Fault::KillWorker`]) recovers,
//!   and the cell still completes with the right bits;
//! * a daemon SIGKILLed mid-job recovers its journal on restart and serves
//!   the already-completed cells from cache, bit-identically;
//! * one SIGTERM drains gracefully to exit 0; a second mid-drain signal
//!   cancels the remaining cells and exits 130;
//! * a daemon that has served many short connections still drains to
//!   exit 0.

use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_serve::{Client, Fault, NamedCell};
use save_sim::{CellSpec, ConfigKind, MachineConfig, Surface};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn wl(k_total: usize, tiles: usize) -> GemmWorkload {
    GemmWorkload::dense(
        "service",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        k_total,
        tiles,
    )
}

/// The grid's cells as the `surface` binary's local batch lists them, so
/// bits are comparable.
fn grid_cells(w: &GemmWorkload, grid: &[f64]) -> Vec<NamedCell> {
    Surface::grid_cells(w, ConfigKind::Save2Vpu, &MachineConfig::default(), grid, grid)
        .into_iter()
        .map(|(label, spec)| NamedCell { label, spec, fault: None })
        .collect()
}

fn local_reference_bits(w: &GemmWorkload, grid: &[f64]) -> Vec<u64> {
    grid_cells(w, grid).iter().map(|c| c.spec.run(None).unwrap().seconds.to_bits()).collect()
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(cache_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_save-serve"))
            .args(["--listen", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn save-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("save-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn signal_term(&self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    fn wait_code(mut self) -> i32 {
        self.child.wait().expect("wait daemon").code().expect("daemon exit code")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("save-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn daemon_matches_local_sweep_bits_and_memoizes_resubmission() {
    let dir = tmpdir("bits");
    let w = wl(32, 4);
    let grid = [0.0, 0.5];
    let reference = local_reference_bits(&w, &grid);
    let cells = grid_cells(&w, &grid);

    let daemon = Daemon::start(&dir, &["--workers", "2"]);
    let mut client = Client::connect(&daemon.addr).unwrap();

    let mut bits = vec![0u64; cells.len()];
    let done = client
        .submit("bits", &cells, |r| {
            assert!(r.ok(), "cell {} failed: {}", r.label, r.error_kind);
            bits[r.index as usize] = r.secs_bits;
        })
        .unwrap();
    assert_eq!(done.ok, cells.len());
    assert_eq!(done.cached, 0, "first submission computes everything");
    assert_eq!(bits, reference, "remote bits must equal the local sweep");

    let mut again = vec![0u64; cells.len()];
    let done = client
        .submit("bits-again", &cells, |r| {
            assert!(r.cached, "cell {} should be served from cache", r.label);
            again[r.index as usize] = r.secs_bits;
        })
        .unwrap();
    assert_eq!(done.cached, cells.len(), "resubmission is fully memoized");
    assert_eq!(again, reference, "cache hits are bit-identical");

    let stats = client.status().unwrap();
    assert!(stats.cached_records >= cells.len());
    client.drain().unwrap();
    drop(client);
    assert_eq!(daemon.wait_code(), 0, "drain exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_respawned_and_the_cell_still_completes() {
    let dir = tmpdir("killworker");
    let w = wl(32, 4);
    let grid = [0.0, 0.5];
    let reference = local_reference_bits(&w, &grid);
    let mut cells = grid_cells(&w, &grid);
    cells[1].fault = Some(Fault::KillWorker);

    let daemon = Daemon::start(&dir, &["--workers", "2"]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let mut bits = vec![0u64; cells.len()];
    let done = client
        .submit("faulted", &cells, |r| {
            assert!(r.ok(), "cell {} failed: {}", r.label, r.error_kind);
            bits[r.index as usize] = r.secs_bits;
        })
        .unwrap();
    assert_eq!(done.ok, cells.len(), "the faulted cell must still complete");
    assert_eq!(bits, reference, "the requeued cell keeps bit identity");
    let stats = client.status().unwrap();
    assert_eq!(stats.workers_respawned, 1, "one injected fault, one recovery");
    assert_eq!(stats.queued, 0, "every admission slot is released once the job is done");

    client.drain().unwrap();
    drop(client);
    assert_eq!(daemon.wait_code(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_daemon_recovers_journal_and_serves_cache_on_restart() {
    let dir = tmpdir("sigkill");
    // Heavy enough cells (~tens of ms each) that the single worker is still
    // mid-sweep when the kill lands after the second streamed result.
    let w = wl(256, 32);
    let grid = [0.0, 0.3, 0.6];
    let reference = local_reference_bits(&w, &grid);
    let cells = grid_cells(&w, &grid);

    // One worker serializes the 9 cells; SIGKILL the daemon the moment the
    // second result is streamed (each streamed cell is already journaled).
    let mut daemon = Daemon::start(&dir, &["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let mut streamed = 0usize;
    let child = &mut daemon.child;
    let outcome = client.submit("victim", &cells, |r| {
        assert!(r.ok());
        streamed += 1;
        if streamed == 2 {
            child.kill().expect("SIGKILL daemon");
        }
    });
    assert!(outcome.is_err(), "the stream must tear when the daemon dies");
    assert!(streamed >= 2);
    daemon.child.wait().expect("reap SIGKILLed daemon");
    drop(daemon);
    drop(client);

    // Restart on the same cache dir: completed cells come back from the
    // journal (tail-repaired if the kill tore a record) and are served as
    // cache hits; the rest recompute. Bits match the local sweep either way.
    let daemon = Daemon::start(&dir, &["--workers", "2"]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    assert!(
        client.status().unwrap().cached_records >= 2,
        "restart must recover the journaled cells"
    );
    let mut bits = vec![0u64; cells.len()];
    let done = client
        .submit("recovery", &cells, |r| {
            assert!(r.ok(), "cell {} failed: {}", r.label, r.error_kind);
            bits[r.index as usize] = r.secs_bits;
        })
        .unwrap();
    assert_eq!(done.ok, cells.len());
    assert!(done.cached >= 2, "recovered cells are cache-served, got {}", done.cached);
    assert_eq!(bits, reference, "recovery keeps every cell bit-identical");

    client.drain().unwrap();
    drop(client);
    assert_eq!(daemon.wait_code(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_sigterm_drains_to_exit_zero() {
    let dir = tmpdir("sigterm");
    let daemon = Daemon::start(&dir, &["--workers", "1"]);
    // A quick job proves the daemon was healthy before the signal.
    let mut client = Client::connect(&daemon.addr).unwrap();
    let cells = grid_cells(&wl(16, 2), &[0.5]);
    let done = client.submit("pre-drain", &cells, |_| {}).unwrap();
    assert_eq!(done.ok, 1);
    daemon.signal_term();
    drop(client);
    assert_eq!(daemon.wait_code(), 0, "first signal = graceful drain = exit 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_signal_cancels_and_exits_130() {
    let dir = tmpdir("cancel");
    let daemon = Daemon::start(&dir, &["--workers", "1"]);
    let addr = daemon.addr.clone();

    // A long job: hundreds of unique cells (distinct seeds defeat the memo
    // cache) against a single worker, so the drain after the first signal
    // has plenty of work left when the second signal arrives.
    let submitter = std::thread::spawn(move || {
        let w = wl(64, 8).with_sparsity(0.5, 0.5);
        let cells: Vec<NamedCell> = (0..400)
            .map(|i| NamedCell {
                label: format!("slow-{i}"),
                spec: CellSpec::new(
                    w.clone(),
                    ConfigKind::Save2Vpu,
                    MachineConfig::default(),
                    1_000_000 + i,
                ),
                fault: None,
            })
            .collect();
        let mut client = Client::connect(&addr).unwrap();
        // Either outcome is fine: a torn stream (daemon exited first) or a
        // completed-but-cancelled job summary.
        let _ = client.submit("long", &cells, |_| {});
    });

    std::thread::sleep(Duration::from_millis(400));
    daemon.signal_term(); // stage 1: drain
    std::thread::sleep(Duration::from_millis(200));
    daemon.signal_term(); // stage 2: cancel
    assert_eq!(daemon.wait_code(), 130, "second signal = cancelled-but-resumable = 130");
    submitter.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_short_connections_then_drain_exits_zero() {
    let dir = tmpdir("conns");
    let daemon = Daemon::start(&dir, &["--workers", "1"]);
    for i in 0..64 {
        let mut client = Client::connect(&daemon.addr).unwrap();
        if i % 8 == 0 {
            assert!(!client.status().unwrap().draining);
        }
    }
    let mut client = Client::connect(&daemon.addr).unwrap();
    let done = client.submit("after-churn", &grid_cells(&wl(16, 2), &[0.5]), |_| {}).unwrap();
    assert_eq!(done.ok, 1);
    client.drain().unwrap();
    drop(client);
    assert_eq!(daemon.wait_code(), 0, "drain after connection churn exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}
