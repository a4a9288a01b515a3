//! The save-serve daemon: accept loop, per-connection protocol handling,
//! and the two-stage graceful-drain state machine.
//!
//! Shutdown contract (the robustness centrepiece):
//!
//! * **first** SIGINT/SIGTERM (or a `Drain` request): stop accepting
//!   connections and admitting jobs, let every admitted cell finish and
//!   journal, flush, exit **0** — clients that were told `Accepted` get
//!   their full result stream;
//! * **second** signal: the supervisor's global cancel token latches
//!   (bridge threshold 2 — see [`save_sim::cancel::Supervisor::start_with_bridge`]),
//!   in-flight cells stop at their next cycle quantum, cancelled cells are
//!   *not* journaled (so they recompute on resubmission), and the daemon
//!   exits **130** — the same "cancelled, resumable" code the sweep
//!   binaries use.
//!
//! A SIGKILL (which cannot be handled) is covered by the journal: at most
//! one torn record, repaired on the next daemon start by
//! [`save_sim::ResultStore::open`]; completed cells are served from the
//! store on resubmission.

use crate::protocol::{
    write_line, CellResult, LineIn, LineReader, Request, Response, ServeStats, PROTOCOL_VERSION,
};
use crate::scheduler::{Scheduler, Task};
use save_sim::cancel::Supervisor;
use save_sim::durable::{exit_code_for, Executor, RetryPolicy};
use save_sim::{ResultStore, SimError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Daemon configuration (see the `save-serve` binary for the flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral; the chosen
    /// address is printed on stdout as `save-serve listening on ADDR`).
    pub listen: String,
    /// Result-store directory: one `journal.jsonl` that survives restarts
    /// and is also a valid `--checkpoint-dir` for a local sweep.
    pub cache_dir: PathBuf,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-control capacity (max admitted-but-incomplete cells).
    pub capacity: usize,
    /// Per-cell deadline/retry policy.
    pub policy: RetryPolicy,
    /// Install process SIGINT/SIGTERM handlers (binaries: yes; in-process
    /// tests: no, to avoid hijacking the test runner's signals).
    pub install_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            cache_dir: PathBuf::from(".save-serve-cache"),
            workers: thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(2),
            capacity: 1024,
            policy: RetryPolicy::default(),
            install_signals: true,
        }
    }
}

struct ServeState {
    sched: Scheduler,
    store: Arc<ResultStore>,
    jobs_accepted: AtomicU64,
    jobs_rejected: AtomicU64,
    drain_requested: AtomicBool,
    capacity: usize,
    workers: usize,
}

impl ServeState {
    fn draining(&self) -> bool {
        self.drain_requested.load(Ordering::SeqCst) || save_signal::signal_count() >= 1
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            version: PROTOCOL_VERSION,
            workers: self.workers,
            capacity: self.capacity,
            queued: self.sched.queued(),
            cached_records: self.store.records(),
            jobs_accepted: self.jobs_accepted.load(Ordering::SeqCst),
            jobs_rejected: self.jobs_rejected.load(Ordering::SeqCst),
            workers_respawned: self.sched.respawned(),
            draining: self.draining(),
        }
    }
}

/// Runs the daemon to completion. Returns the process exit code: 0 after a
/// graceful drain, 130 after a forced (second-signal) cancellation.
pub fn serve(cfg: &ServeConfig) -> Result<u8, SimError> {
    let sup = Supervisor::start_with_bridge(cfg.install_signals, 2);
    let store = Arc::new(ResultStore::open(&cfg.cache_dir, true)?);
    if store.recovered() > 0 {
        eprintln!(
            "save-serve: recovered {} journaled results from {}",
            store.recovered(),
            cfg.cache_dir.display()
        );
    }
    let exec = Executor {
        store: Some(Arc::clone(&store)),
        policy: cfg.policy,
        supervisor: sup.handle(),
    };
    let sched = Scheduler::new(cfg.workers, cfg.capacity, exec);
    let listener = TcpListener::bind(&cfg.listen)
        .map_err(|e| SimError::Io { what: format!("bind {}: {e}", cfg.listen) })?;
    let local = listener
        .local_addr()
        .map_err(|e| SimError::Io { what: format!("local_addr: {e}") })?;
    // The one line tooling depends on: tests and the bench client parse the
    // chosen address from it (port 0 binds an ephemeral port).
    println!("save-serve listening on {local}");
    std::io::stdout().flush().ok();
    listener
        .set_nonblocking(true)
        .map_err(|e| SimError::Io { what: format!("set_nonblocking: {e}") })?;

    let state = Arc::new(ServeState {
        sched,
        store,
        jobs_accepted: AtomicU64::new(0),
        jobs_rejected: AtomicU64::new(0),
        drain_requested: AtomicBool::new(false),
        capacity: cfg.capacity,
        workers: cfg.workers,
    });

    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    while !state.draining() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let st = Arc::clone(&state);
                let handle = thread::Builder::new()
                    .name(format!("save-serve-conn-{peer}"))
                    .spawn(move || {
                        if let Err(e) = handle_conn(stream, &st) {
                            // Disconnections are routine; log and move on.
                            eprintln!("save-serve: connection {peer}: {e}");
                        }
                    })
                    .expect("spawn connection thread");
                // Join the connections that have closed, so a long-lived
                // daemon holds one thread per live connection, not per
                // past one.
                for done in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("save-serve: accept: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }

    // Drain: no new admissions; admitted cells finish and journal, then
    // the workers exit. A second signal latches the global token, which
    // makes the remaining cells cancel at their next quantum — the drain
    // then returns quickly with the queue empty either way.
    eprintln!("save-serve: draining ({} cells in flight)", state.sched.queued());
    state.sched.drain();
    // Let connection threads stream their final results and notice the
    // drain via their read timeouts.
    for h in conns {
        let _ = h.join();
    }
    let forced = sup.handle().global().is_cancelled();
    eprintln!(
        "save-serve: {} ({} results journaled)",
        if forced { "cancelled" } else { "drained" },
        state.store.records()
    );
    Ok(exit_code_for(forced, true))
}

fn handle_conn(stream: TcpStream, state: &Arc<ServeState>) -> Result<(), SimError> {
    // Responses stream one small line per cell; send each as soon as it is
    // written (see the framing rules in `protocol`).
    stream
        .set_nodelay(true)
        .map_err(|e| SimError::Io { what: format!("set_nodelay: {e}") })?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| SimError::Io { what: format!("set_read_timeout: {e}") })?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| SimError::Io { what: format!("clone stream: {e}") })?;
    let mut reader = LineReader::new(stream);
    loop {
        match reader.read::<Request>() {
            Ok(LineIn::Timeout) => {
                if state.draining() {
                    return Ok(()); // no request in flight; close out the drain
                }
            }
            Ok(LineIn::Eof) => return Ok(()),
            Ok(LineIn::Msg(req)) => match req {
                Request::Hello => write_line(&mut writer, &Response::Hello { stats: state.stats() })?,
                Request::Status => {
                    write_line(&mut writer, &Response::Status { stats: state.stats() })?
                }
                Request::Drain => {
                    state.drain_requested.store(true, Ordering::SeqCst);
                    write_line(&mut writer, &Response::Draining)?;
                }
                Request::Submit { name, cells } => run_job(&mut writer, state, name, cells)?,
            },
            Err(e) => {
                // Answer with a protocol error if the socket still works,
                // then drop the connection.
                let _ = write_line(&mut writer, &Response::Error { what: e.to_string() });
                return Err(e);
            }
        }
    }
}

fn run_job(
    writer: &mut TcpStream,
    state: &Arc<ServeState>,
    name: String,
    cells: Vec<crate::protocol::NamedCell>,
) -> Result<(), SimError> {
    if state.draining() {
        state.jobs_rejected.fetch_add(1, Ordering::SeqCst);
        return write_line(
            writer,
            &Response::Rejected { reason: "daemon is draining".into(), retry_after_ms: 0 },
        );
    }
    let (tx, rx) = std::sync::mpsc::channel::<CellResult>();
    let mut tasks = Vec::with_capacity(cells.len());
    for (i, cell) in cells.into_iter().enumerate() {
        let key = match cell.spec.cache_key() {
            Ok(k) => k,
            Err(e) => {
                return write_line(writer, &Response::Error { what: e.to_string() });
            }
        };
        tasks.push(Task {
            index: i as u64,
            label: cell.label,
            spec: cell.spec,
            key,
            fault: cell.fault,
            tx: tx.clone(),
        });
    }
    drop(tx);
    let n = tasks.len();
    match state.sched.try_submit(tasks) {
        Err(SimError::Overloaded { what, retry_after_ms }) => {
            state.jobs_rejected.fetch_add(1, Ordering::SeqCst);
            write_line(writer, &Response::Rejected { reason: what, retry_after_ms })
        }
        Err(e) => write_line(writer, &Response::Error { what: e.to_string() }),
        Ok(()) => {
            state.jobs_accepted.fetch_add(1, Ordering::SeqCst);
            write_line(writer, &Response::Accepted { job: name.clone(), cells: n })?;
            let (mut ok, mut failed, mut cached, mut cancelled) = (0usize, 0usize, 0usize, false);
            for _ in 0..n {
                // Workers send exactly one result per task; a closed
                // channel means a logic bug, surfaced as a short stream.
                let Ok(result) = rx.recv() else { break };
                if result.ok() {
                    ok += 1;
                } else {
                    failed += 1;
                    if result.error_kind == "cancelled" {
                        cancelled = true;
                    }
                }
                if result.cached {
                    cached += 1;
                }
                write_line(writer, &Response::Cell { result })?;
            }
            write_line(writer, &Response::Done { job: name, ok, failed, cached, cancelled })
        }
    }
}
