//! # save-bench — regeneration harness for every table and figure
//!
//! One `save-bench` binary whose first argument names the experiment
//! (`table1`-`table3`, `fig12`-`fig19`, plus the reports); each command
//! prints the same rows/series the paper reports and writes a
//! machine-readable JSON copy under `target/experiments/` for
//! EXPERIMENTS.md. Criterion micro-benchmarks cover the simulator's hot
//! paths and one representative kernel per experiment.
//!
//! The figure sweeps (Figs 14-19, `extensions`, `ablation`) are library
//! data in [`figures`]: labelled cells plus a pure reducer of their seconds
//! to tables, which tests read in-process. Fig 14 and `netreport` take
//! their cells and reducers from [`save_sim::Estimator`].
//!
//! Every command funnels through [`run_main`], which parses the uniform
//! durable-execution flags ([`BenchCli`]: `--checkpoint-dir`, `--resume`,
//! `--cell-deadline`, `--retries`, …) plus the arguments the command
//! declares ([`CommandArgs`]), rejects any other argument, installs the
//! SIGINT/SIGTERM handlers, and maps the run's outcome to one process exit
//! code convention (0 clean / 1 lossy or gate miss / 2 usage / 130
//! cancelled-resumable).
//!
//! Sweeps run through [`SweepSession`]: every list of cells (a figure's
//! cells, `netreport`'s layers, the `surface` grid) is one
//! [`SweepSession::spec_seconds_batch`] call, resolved by the session's
//! [`Executor`] under the per-cell retry/deadline policy (the local cells
//! in one [`Executor::resolve_all`] call on `--threads` workers, settled in
//! submission order), or by a `--serve` daemon. A daemon that cannot be
//! reached, or that fails mid-batch, degrades the session to local
//! execution; [`SweepSession::resumed`] counts the cells the store or the
//! daemon's cache answered without simulating them. A cell that fails (typed
//! [`SimError`] or a panic) becomes a `NaN` entry instead of aborting the
//! figure, and [`SweepSession::finish`] dumps a [`FailureReport`] JSON next
//! to the results. With `--checkpoint-dir`, the executor holds one
//! [`ResultStore`] there: every batch cell is journaled under its
//! [`CellSpec::cache_key`], so a killed run resumed with `--resume`
//! restores finished cells bit-identically instead of recomputing them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use save_serve::{CellResult, Client, Fault, NamedCell};
use save_sim::durable::{exit_code_for, run_cell, Executor, RetryPolicy, EXIT_FAILURES, EXIT_USAGE};
use save_sim::error::{RetryClass, SimError};
use save_sim::parallel::{host_parallelism, FailureReport, JobFailure};
use save_sim::spec::CellSpec;
use save_sim::{CancelToken, CellRecord, ResultStore};
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

pub mod figures;

/// Directory experiment JSON results are written to.
///
/// # Errors
/// [`SimError::Io`] if the directory cannot be created.
pub fn experiments_dir() -> Result<PathBuf, SimError> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir)
        .map_err(|e| SimError::Io { what: format!("create {}: {e}", dir.display()) })?;
    Ok(dir)
}

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`.
///
/// # Errors
/// [`SimError::Io`] on serialization or filesystem failure.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), SimError> {
    let path = experiments_dir()?.join(format!("{name}.json"));
    let s = serde_json::to_string_pretty(value)
        .map_err(|e| SimError::Io { what: format!("serialize {name}: {e}") })?;
    std::fs::write(&path, s).map_err(|e| SimError::Io { what: format!("write {}: {e}", path.display()) })?;
    eprintln!("[saved {}]", path.display());
    Ok(())
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Uniform command line shared by every experiment command.
///
/// Durable-execution flags (`--checkpoint-dir`, `--resume`,
/// `--cell-deadline`, `--retries`) are understood identically everywhere;
/// the switches a command declares in its [`CommandArgs`] land in
/// [`BenchCli::switches`], its valued flags in [`BenchCli::rest`], where it
/// reads them with [`BenchCli::flag`], and its positional arguments in
/// [`BenchCli::positionals`].
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// Reduced sweep sizes (`--quick`).
    pub quick: bool,
    /// Use the paper's full 10-level grid (`--full`).
    pub full: bool,
    /// Journal completed cells here (`--checkpoint-dir DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing journal (`--resume`).
    pub resume: bool,
    /// Per-cell wall-clock deadline in milliseconds (`--cell-deadline MS`).
    pub cell_deadline_ms: Option<u64>,
    /// Extra attempts per transiently-failing cell (`--retries N`).
    pub retries: u32,
    /// Worker threads for sweeps: surface grids and figure batches
    /// (`--threads N`).
    pub threads: Option<usize>,
    /// Submit spec-based cells to a running save-serve daemon at this
    /// address instead of simulating locally (`--serve ADDR`). Transport
    /// failures degrade gracefully back to local execution.
    pub serve_addr: Option<String>,
    /// The command's switches, in order.
    pub switches: Vec<String>,
    /// The command's valued flags, in order, each followed by its value.
    pub rest: Vec<String>,
    /// The command's positional arguments, in order.
    pub positionals: Vec<String>,
}

/// The uniform flags' usage line: the last line of every command's usage text.
pub const BENCH_USAGE: &str = "uniform flags: [--quick] [--full] \
     [--checkpoint-dir DIR] [--resume] [--cell-deadline MS] [--retries N] \
     [--threads N] [--serve ADDR]";

/// The arguments one command reads beyond the uniform [`BenchCli`] flags.
/// Any other argument on its command line is a usage error.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommandArgs {
    /// Flags without a value (`--mp`).
    pub switches: &'static [&'static str],
    /// Flags that take the next argument as their value (`--cores N`).
    pub valued: &'static [&'static str],
    /// The most positional arguments the command takes.
    pub positionals: usize,
    /// The arguments as the command's usage line shows them.
    pub synopsis: &'static str,
}

impl BenchCli {
    /// Parses the uniform flags plus the arguments `command` declares; any
    /// other argument is an error.
    ///
    /// # Errors
    /// A human-readable message naming the first argument that is unknown,
    /// lacks its value or has a malformed one.
    pub fn parse_from<I>(args: I, command: &CommandArgs) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        fn num<T: FromStr>(flag: &str, v: String, unit: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} takes {unit}, got {v:?}"))
        }
        let mut cli = BenchCli { retries: 2, ..BenchCli::default() };
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--full" => cli.full = true,
                "--resume" => cli.resume = true,
                "--checkpoint-dir" => cli.checkpoint_dir = Some(PathBuf::from(value(&arg)?)),
                "--cell-deadline" => cli.cell_deadline_ms = Some(num(&arg, value(&arg)?, "milliseconds")?),
                "--retries" => cli.retries = num(&arg, value(&arg)?, "a count")?,
                "--threads" => cli.threads = Some(num(&arg, value(&arg)?, "a count")?),
                "--serve" => cli.serve_addr = Some(value(&arg)?),
                a if command.switches.contains(&a) => cli.switches.push(arg),
                a if command.valued.contains(&a) => {
                    let v = value(&arg)?;
                    cli.rest.extend([arg, v]);
                }
                a if !a.starts_with('-') && cli.positionals.len() < command.positionals => cli.positionals.push(arg),
                _ => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        if cli.resume && cli.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        Ok(cli)
    }

    /// The sparsity grid implied by the flags.
    pub fn grid(&self) -> Vec<f64> {
        if self.full {
            save_sim::surface::paper_grid()
        } else if self.quick {
            vec![0.0, 0.3, 0.6, 0.9]
        } else {
            save_sim::surface::coarse_grid()
        }
    }

    /// The per-cell retry/deadline policy implied by the flags.
    pub fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            retries: self.retries,
            deadline: self.cell_deadline_ms.map(Duration::from_millis),
            ..RetryPolicy::default()
        }
    }

    /// The value after the command's `flag` in [`BenchCli::rest`],
    /// parsed; `None` when the flag is absent.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the flag has no value or its value
    /// does not parse.
    pub fn flag<T: FromStr>(&self, flag: &str) -> Result<Option<T>, SimError> {
        let Some(pair) = self.rest.chunks(2).find(|p| p[0] == flag) else { return Ok(None) };
        let v = pair.get(1).ok_or_else(|| SimError::InvalidConfig { what: format!("{flag} needs a value") })?;
        let what = format!("{flag} got {v:?}, which does not parse");
        v.parse().map(Some).map_err(|_| SimError::InvalidConfig { what })
    }
}

/// Fault-isolating, durable harness for one experiment command.
///
/// Every simulated cell goes through [`SweepSession::run`] or
/// [`SweepSession::spec_seconds_batch`]: the job runs under the session
/// executor's [`RetryPolicy`] via [`save_sim::durable::run_cell`] — panic
/// isolation, per-attempt wall-clock deadline, bounded retries with
/// exponential backoff — and a cell that still fails is recorded instead
/// of propagated, so the sweep continues with the remaining cells.
///
/// When built with a result store (through [`run_main`] and
/// `--checkpoint-dir`), each batch cell is journaled under its
/// [`CellSpec::cache_key`]; on `--resume`, cells with a final record are
/// restored bit-identically without recomputation. A global cancel
/// (Ctrl-C / SIGTERM) stops claiming cells, leaves the journal flushed,
/// and turns into exit code 130 from [`SweepSession::finish`].
pub struct SweepSession {
    name: String,
    jobs: usize,
    failures: Vec<JobFailure>,
    /// Resolves batch cells; its store is the `--checkpoint-dir` one.
    exec: Executor,
    /// Worker threads a batch's local cells run on (`--threads`).
    threads: usize,
    /// Batch cells served from the store or the daemon's cache instead of
    /// recomputed.
    resumed: usize,
    cancelled: bool,
    /// `--serve ADDR`: submit [`SweepSession::spec_seconds_batch`] cells to
    /// a save-serve daemon instead of simulating locally.
    serve_addr: Option<String>,
    /// Lazily-opened connection to the daemon.
    serve_client: Option<Client>,
    /// Latched after a transport failure: all further cells run locally.
    serve_degraded: bool,
    /// Cells answered by the daemon (including its cache hits).
    served: usize,
    /// A fault for the first cell of the next daemon submission.
    remote_fault: Option<Fault>,
}

impl SweepSession {
    /// Starts a standalone session for the experiment called `name` (used
    /// for the `<name>-failures.json` dump): a private token that ignores
    /// signals, no checkpoint, default retry policy, every host thread.
    pub fn new(name: &str) -> Self {
        let cli = BenchCli { retries: RetryPolicy::default().retries, ..BenchCli::default() };
        Self::durable(name, &cli, CancelToken::new()).expect("a session without a store opens")
    }

    /// Builds the durable session [`run_main`] hands to the command body:
    /// cancelled through `cancel`, the CLI's retry policy and thread count,
    /// and — when `--checkpoint-dir` was given — the [`ResultStore`] there.
    ///
    /// # Errors
    /// Store errors: an existing journal without `--resume`, a corrupt
    /// journal, or plain I/O failure.
    pub fn durable(name: &str, cli: &BenchCli, cancel: CancelToken) -> Result<Self, SimError> {
        let store = cli.checkpoint_dir.as_ref().map(|dir| ResultStore::open(dir, cli.resume).map(Arc::new)).transpose()?;
        Ok(SweepSession {
            name: name.to_string(),
            jobs: 0,
            failures: Vec::new(),
            exec: Executor { store, policy: cli.policy(), cancel },
            threads: cli.threads.unwrap_or_else(host_parallelism),
            resumed: 0,
            cancelled: false,
            serve_addr: cli.serve_addr.clone(),
            serve_client: None,
            serve_degraded: false,
            served: 0,
            remote_fault: None,
        })
    }

    /// `true` once a global cancel has been observed; remaining cells
    /// return `None`/`NaN` immediately.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Number of batch cells restored from the store or served from the
    /// daemon's cache instead of recomputed.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Crash drill for `--serve`: the first cell of the next daemon
    /// submission kills the worker that picks it up. The daemon must
    /// recover and requeue it, so the results do not change.
    pub fn kill_first_remote_worker(&mut self) {
        self.remote_fault = Some(Fault::KillWorker);
    }

    /// Records a failure that happened outside any labelled cell (e.g. a
    /// result-serialization error at the end of a command). A cancellation
    /// error flips the cancelled flag instead of counting as a failure.
    pub fn note_failure(&mut self, label: &str, error: SimError) {
        if error.retry_class() == RetryClass::Cancelled {
            self.cancelled = true;
            return;
        }
        self.tally(label, 1, Some(error));
    }

    /// Counts one finished job, recording its failure, if any.
    fn tally(&mut self, label: &str, attempts: u32, error: Option<SimError>) {
        let job = self.jobs;
        self.jobs += 1;
        if let Some(error) = error {
            eprintln!(
                "[{}] job {job} ({label}) failed after {attempts} attempt(s): [{}] {error}",
                self.name,
                error.kind()
            );
            let (label, attempts) = (Some(label.to_string()), attempts.max(1) as usize);
            self.failures.push(JobFailure { job, label, attempts, error });
        }
    }

    /// Counts one job skipped or stopped by cancellation: resumable, not
    /// failed. Returns the `NaN` seconds and zero cycles its cell reports.
    fn cancel_job(&mut self) -> (f64, u64) {
        self.cancelled = true;
        self.jobs += 1;
        (f64::NAN, 0)
    }

    /// `true` when the session is cancelled, latching a global cancel.
    fn check_cancelled(&mut self) -> bool {
        self.cancelled |= self.exec.cancel.is_cancelled();
        self.cancelled
    }

    /// Runs one labelled job under the retry/deadline policy with panic
    /// isolation. Returns `None` when the job ultimately fails (recording
    /// the failure) or when the session is cancelled (recording nothing —
    /// the cell is resumable, not failed).
    ///
    /// Generic-result cells are *not* journaled; only
    /// [`SweepSession::spec_seconds_batch`] cells participate in
    /// checkpoint/resume.
    pub fn run<R>(
        &mut self,
        label: &str,
        f: impl Fn(&CancelToken) -> Result<R, SimError>,
    ) -> Option<R> {
        if self.check_cancelled() {
            self.cancel_job();
            return None;
        }
        let run = run_cell(&self.exec.cancel, &self.exec.policy, label, self.jobs, f);
        match run.result {
            Ok(r) => {
                self.tally(label, run.attempts, None);
                Some(r)
            }
            Err(e) if e.retry_class() == RetryClass::Cancelled => {
                self.cancel_job();
                None
            }
            Err(e) => {
                self.tally(label, run.attempts, Some(e));
                None
            }
        }
    }

    /// Resolves every `(label, spec)` cell and returns its seconds and
    /// simulated cycles, in submission order; a failed cell reports `NaN`
    /// seconds and zero cycles, so tables and JSON keep their shape.
    ///
    /// Cells are resolved once per distinct [`CellSpec::cache_key`] — a
    /// baseline that several rows compare against runs once, under the
    /// label of its first occurrence — in three steps:
    ///
    /// 1. cells with a final record in the `--checkpoint-dir` store are
    ///    restored from its raw bits, without network or execution;
    /// 2. with `--serve ADDR`, the rest go to the daemon in **one**
    ///    submission, and its answers are journaled in the store by key
    ///    exactly as local runs would be, so `--resume` replays them
    ///    without the daemon; its cache hits count as resumed. Any
    ///    transport failure — refused connection, daemon draining, torn
    ///    stream — degrades the whole session to local execution with a
    ///    warning;
    /// 3. whatever is left goes to one [`Executor::resolve_all`] call on
    ///    the session's `--threads` worker threads, which runs each cell and
    ///    journals its record. Results settle in submission order, so
    ///    job numbers, failure reports and the returned seconds do not
    ///    depend on the thread count.
    ///
    /// The bits are identical whichever step answers, because the
    /// simulator is deterministic.
    pub fn spec_seconds_batch(&mut self, cells: &[(String, CellSpec)]) -> Vec<(f64, u64)> {
        // `slot[i]` is cell i's index in `unique`, the cells with distinct
        // keys (first occurrence wins).
        let mut slot = Vec::with_capacity(cells.len());
        let mut unique: Vec<(usize, u64)> = Vec::new();
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        for (i, (label, spec)) in cells.iter().enumerate() {
            match spec.cache_key() {
                Ok(key) => slot.push(Some(*by_key.entry(key).or_insert_with(|| {
                    unique.push((i, key));
                    unique.len() - 1
                }))),
                Err(e) => {
                    self.note_failure(label, e);
                    slot.push(None);
                }
            }
        }
        let mut secs: Vec<Option<(f64, u64)>> = vec![None; unique.len()];

        if let Some(store) = self.exec.store.clone() {
            for (u, &(i, key)) in unique.iter().enumerate() {
                let Some(rec) = store.lookup(key) else { continue };
                self.resumed += 1;
                self.tally(&cells[i].0, rec.attempts, rec.error());
                secs[u] = Some((rec.secs(), rec.cycles));
            }
        }

        let mut pending: Vec<usize> = (0..unique.len()).filter(|&u| secs[u].is_none()).collect();
        if self.serve_addr.is_some() && !self.serve_degraded && !pending.is_empty() {
            for (u, done) in self.remote_seconds_batch(cells, &unique, &pending) {
                secs[u] = Some(done);
            }
            pending.retain(|&u| secs[u].is_none());
        }

        if self.check_cancelled() {
            // Cancelled cells are not journaled: they re-run on resume.
            for &u in &pending {
                secs[u] = Some(self.cancel_job());
            }
        } else if !pending.is_empty() {
            let todo: Vec<(String, CellSpec)> =
                pending.iter().map(|&u| cells[unique[u].0].clone()).collect();
            let results = self.exec.resolve_all(&todo, self.threads).expect("keys encoded above");
            for ((&u, (label, _)), result) in pending.iter().zip(&todo).zip(results) {
                secs[u] = Some(match result {
                    Ok(cell) => {
                        self.resumed += cell.served as usize;
                        self.tally(label, cell.rec.attempts, cell.error);
                        (cell.rec.secs(), cell.rec.cycles)
                    }
                    Err(e) if e.retry_class() == RetryClass::Cancelled => self.cancel_job(),
                    Err(e) => {
                        self.tally(label, 1, Some(e));
                        (f64::NAN, 0)
                    }
                });
            }
        }
        slot.iter().map(|s| s.and_then(|u| secs[u]).unwrap_or((f64::NAN, 0))).collect()
    }

    /// One batched submission of `pending` (indices into `unique`, whose
    /// entries are `(index into cells, key)`) to the daemon. Returns
    /// definitive `(unique index, (secs, cycles))` outcomes; results the
    /// daemon never delivered — transport failure mid-stream, refused
    /// connection, a cancelled session — are simply absent, and the caller
    /// runs them locally (transport failures latch degraded mode).
    fn remote_seconds_batch(
        &mut self,
        cells: &[(String, CellSpec)],
        unique: &[(usize, u64)],
        pending: &[usize],
    ) -> Vec<(usize, (f64, u64))> {
        let mut out = Vec::new();
        if self.check_cancelled() {
            return out;
        }
        let Some(addr) = self.serve_addr.clone() else {
            return out;
        };
        if self.serve_client.is_none() {
            match Client::connect(&addr) {
                Ok(c) => self.serve_client = Some(c),
                Err(e) => {
                    eprintln!(
                        "[{}] --serve {addr} unavailable ([{}] {e}); degrading to local execution",
                        self.name,
                        e.kind()
                    );
                    self.serve_degraded = true;
                    return out;
                }
            }
        }
        let mut named: Vec<NamedCell> = pending
            .iter()
            .map(|&u| {
                let (label, spec) = &cells[unique[u].0];
                NamedCell { label: label.clone(), spec: spec.clone(), fault: None }
            })
            .collect();
        if let Some(first) = named.first_mut() {
            first.fault = self.remote_fault.take();
        }
        let mut got: Vec<Option<CellResult>> = vec![None; named.len()];
        let outcome = self
            .serve_client
            .as_mut()
            .expect("connected above")
            .submit(&format!("{}:batch", self.name), &named, |r| {
                if let Some(slot) = got.get_mut(r.index as usize) {
                    *slot = Some(r.clone());
                }
            });
        let done = match outcome {
            Ok(done) => Some(done),
            Err(e) => {
                eprintln!(
                    "[{}] --serve {addr} failed ([{}] {e}); degrading to local execution",
                    self.name,
                    e.kind()
                );
                self.serve_degraded = true;
                self.serve_client = None;
                None
            }
        };
        let daemon_cancelled = done.as_ref().is_some_and(|d| d.cancelled);
        for (k, result) in got.into_iter().enumerate() {
            let u = pending[k];
            let (i, key) = unique[u];
            let label = &cells[i].0;
            let Some(result) = result else {
                if daemon_cancelled {
                    // Daemon cancelled before this cell ran: resumable,
                    // not journaled, not run locally.
                    out.push((u, self.cancel_job()));
                }
                continue;
            };
            self.served += 1;
            self.resumed += usize::from(result.cached);
            if result.error_kind == "cancelled" {
                out.push((u, self.cancel_job()));
                continue;
            }
            let rec = CellRecord {
                cell: key,
                secs_bits: result.secs_bits,
                cycles: result.cycles,
                attempts: result.attempts,
                error_kind: result.error_kind,
            };
            let error = (!rec.ok()).then(|| SimError::Io {
                what: format!("remote cell failed (kind: {})", rec.error_kind),
            });
            self.tally(label, rec.attempts, error);
            out.push((u, (rec.secs(), rec.cycles)));
            // A failed append only costs the resume: the result is used.
            if let Some(store) = &self.exec.store {
                if let Err(e) = store.record(rec) {
                    eprintln!("[{}] journal append failed: {e}", self.name);
                }
            }
        }
        out
    }

    /// Number of cells answered by the daemon so far (`--serve` mode).
    pub fn served(&self) -> usize {
        self.served
    }

    /// The failure report accumulated so far.
    pub fn report(&self) -> FailureReport {
        FailureReport {
            total_jobs: self.jobs,
            succeeded: self.jobs - self.failures.len(),
            failures: self.failures.clone(),
        }
    }

    /// `true` when no job has failed yet.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The exit code [`SweepSession::finish`] will map to: cancellation
    /// outranks failures (the run is resumable, not broken). Delegates to
    /// [`save_sim::durable::exit_code_for`] so every binary — and the
    /// save-serve daemon — shares one mapping.
    fn exit_code(&self) -> u8 {
        exit_code_for(self.cancelled, self.failures.is_empty())
    }

    /// Prints the failure report, persists it as
    /// `target/experiments/<name>-failures.json` when lossy, and returns
    /// the process exit code: 0 clean, 1 lossy, 130 cancelled-but-resumable.
    pub fn finish(self) -> ExitCode {
        let code = self.exit_code();
        if self.cancelled {
            eprintln!(
                "[{}] cancelled; journal flushed{}",
                self.name,
                match self.exec.store.as_ref() {
                    Some(store) => format!(
                        " — resume with --checkpoint-dir {} --resume",
                        store.dir().display()
                    ),
                    None => " (no --checkpoint-dir: completed cells are lost)".to_string(),
                }
            );
            return ExitCode::from(code);
        }
        let report = self.report();
        if report.is_clean() {
            return ExitCode::from(code);
        }
        eprintln!("[{}] sweep completed with failures: {report}", self.name);
        if let Err(e) = write_json(&format!("{}-failures", self.name), &report) {
            eprintln!("[{}] could not persist failure report: {e}", self.name);
        }
        ExitCode::from(code)
    }
}

/// Why a command's body stopped short of a clean run.
#[derive(Debug)]
pub enum Failure {
    /// A simulation or I/O error, recorded in the session's failure report
    /// like a failed cell (exit 1).
    Sim(SimError),
    /// A measurement missed the named gate (exit 1, no failure report).
    Gate {
        /// The gate's name.
        gate: &'static str,
        /// What the measurement read against the gate.
        what: String,
    },
    /// The command line asks for something the command cannot do (exit 2).
    Usage(String),
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        Failure::Sim(e)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Sim(e) => write!(f, "[{}] {e}", e.kind()),
            Failure::Gate { gate, what } => write!(f, "[gate {gate}] {what}"),
            Failure::Usage(msg) => f.write_str(msg),
        }
    }
}

/// Entry point shared by every experiment command: parses `argv` (the
/// arguments after the command `name`) into the uniform [`BenchCli`] flags
/// plus what `command` declares (anything else is a usage error, exit 2),
/// installs SIGINT/SIGTERM handlers (the first signal cancels the run),
/// opens the optional result store, runs `body`, and maps the outcome to
/// the exit-code convention (0 clean / 1 lossy or gate miss / 2 usage /
/// 130 cancelled).
pub fn run_main<E: Into<Failure>>(
    name: &str,
    argv: Vec<String>,
    command: &CommandArgs,
    body: impl FnOnce(&BenchCli, &mut SweepSession) -> Result<(), E>,
) -> ExitCode {
    let usage = |msg: &str| {
        let sep = if command.synopsis.is_empty() { "" } else { " " };
        eprintln!("{name}: {msg}\nusage: save-bench {name}{sep}{}\n{BENCH_USAGE}", command.synopsis);
        ExitCode::from(EXIT_USAGE)
    };
    let cli = match BenchCli::parse_from(argv, command) {
        Ok(c) => c,
        Err(msg) => return usage(&msg),
    };
    save_signal::install();
    let mut session = match SweepSession::durable(name, &cli, CancelToken::on_signals(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: [{}] {e}", e.kind());
            return ExitCode::from(EXIT_FAILURES);
        }
    };
    if let Some(store) = session.exec.store.as_ref().filter(|s| s.recovered() > 0) {
        eprintln!("[{name}] resuming: {} journaled cell(s) loaded", store.recovered());
    }
    let missed = match body(&cli, &mut session).map_err(Into::into) {
        Err(Failure::Usage(msg)) => return usage(&msg),
        Err(Failure::Sim(e)) => {
            session.note_failure("main", e);
            None
        }
        outcome => outcome.err(),
    };
    let code = session.finish();
    missed.map_or(code, |gate| {
        eprintln!("[{name}] {gate}");
        ExitCode::from(EXIT_FAILURES)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_core::CoreConfig;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
    use save_sim::durable::EXIT_CANCELLED;
    use save_sim::MachineConfig;

    /// A tiny batch cell; `num_vpus: 0` makes it a permanent
    /// (invalid-config) failure.
    fn cell(label: &str, num_vpus: usize) -> (String, CellSpec) {
        let w = GemmWorkload::dense(
            "session-test",
            GemmKernelSpec {
                m_tiles: 2,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            8,
            1,
        );
        let cfg = CoreConfig { num_vpus, ..CoreConfig::save_2vpu() };
        (label.to_string(), CellSpec::custom(w, cfg, MachineConfig::default(), 3))
    }

    #[test]
    fn session_isolates_failures_and_reports() {
        let mut s = SweepSession::new("unit");
        assert_eq!(s.run("ok", |_| Ok(41)), Some(41));
        assert_eq!(
            s.run::<u32>("typed", |_| Err(SimError::InvalidConfig { what: "x".into() })),
            None
        );
        assert_eq!(s.run::<u32>("panic", |_| panic!("cell exploded")), None);
        assert!(s.spec_seconds_batch(&[cell("nan", 0)])[0].0.is_nan());
        let r = s.report();
        assert_eq!(r.total_jobs, 4);
        assert_eq!(r.succeeded, 1);
        assert_eq!(r.failures.len(), 3);
        assert!(matches!(r.failures[1].error, SimError::WorkerPanic { job: 2, .. }));
        assert_eq!(r.exit_code(), 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn clean_session_exits_zero() {
        let mut s = SweepSession::new("clean");
        assert!(s.spec_seconds_batch(&[cell("ok", 2)])[0].0 > 0.0);
        assert!(s.is_clean());
        assert_eq!(s.report().exit_code(), 0);
    }

    #[test]
    fn transient_failures_are_retried_by_the_session() {
        let mut s = SweepSession::new("retry");
        let calls = std::sync::atomic::AtomicU32::new(0);
        let v = s.run("flaky", |_| {
            if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                Err(SimError::Io { what: "first try flaky".into() })
            } else {
                Ok(5u32)
            }
        });
        assert_eq!(v, Some(5));
        assert!(s.is_clean(), "healed cells are not failures");
    }

    #[test]
    fn cancelled_session_skips_cells_without_recording_failures() {
        let mut s = SweepSession::new("cancel");
        s.exec.cancel.cancel();
        assert_eq!(s.run("skipped", |_| Ok(1u32)), None);
        assert!(s.spec_seconds_batch(&[cell("also skipped", 2)])[0].0.is_nan());
        assert!(s.is_cancelled());
        assert!(s.is_clean(), "cancelled cells are resumable, not failures");
        assert_eq!(s.exit_code(), EXIT_CANCELLED);
    }

    /// `netreport`'s arguments.
    const NETREPORT: CommandArgs =
        CommandArgs { switches: &["--mp"], valued: &["--cores"], positionals: 1, synopsis: "" };

    #[test]
    fn cli_parses_durable_flags_and_rest() {
        let cli = BenchCli::parse_from([
            "--quick",
            "--checkpoint-dir",
            "/tmp/ck",
            "--resume",
            "--cell-deadline",
            "250",
            "--retries",
            "4",
            "--threads",
            "3",
            "resnet50",
            "--mp",
            "--cores",
            "8",
        ], &NETREPORT)
        .unwrap();
        assert!(cli.quick && !cli.full);
        assert_eq!(cli.checkpoint_dir.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert!(cli.resume);
        assert_eq!(cli.cell_deadline_ms, Some(250));
        assert_eq!(cli.retries, 4);
        assert_eq!(cli.threads, Some(3));
        assert_eq!(cli.switches, ["--mp"]);
        assert_eq!(cli.rest, ["--cores", "8"]);
        assert_eq!(cli.positionals, ["resnet50"]);
        let p = cli.policy();
        assert_eq!(p.retries, 4);
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
        let cli = BenchCli::parse_from(["--cores", "--mp"], &NETREPORT).unwrap();
        assert!(cli.switches.is_empty(), "a flag's value is not a switch");
    }

    #[test]
    fn cli_rejects_malformed_values() {
        assert!(BenchCli::parse_from(["--cell-deadline"], &CommandArgs::default()).is_err());
        assert!(BenchCli::parse_from(["--retries", "many"], &CommandArgs::default()).is_err());
        assert!(BenchCli::parse_from(["--resume"], &CommandArgs::default()).is_err(), "--resume needs a directory");
    }

    #[test]
    fn cli_rejects_arguments_the_command_does_not_read() {
        for (argv, what) in [
            (&["--quik"][..], "\"--quik\""),
            (&["--mp"], "\"--mp\""),
            (&["resnet50"], "\"resnet50\""),
        ] {
            let err = BenchCli::parse_from(argv.iter().copied(), &CommandArgs::default()).expect_err(what);
            assert_eq!(err, format!("unexpected argument {what}"));
        }
        for (argv, what) in [
            (&["--core", "4"][..], "unexpected argument \"--core\""),
            (&["vgg16", "gnmt"], "unexpected argument \"gnmt\""),
            (&["--cores"], "--cores needs a value"),
        ] {
            assert_eq!(BenchCli::parse_from(argv.iter().copied(), &NETREPORT).expect_err(what), what);
        }
    }

    #[test]
    fn binary_flags_parse_or_fail_as_invalid_config() {
        let rest = ["--cores", "8", "--config", "save1", "--quantum", "x", "--k"].map(String::from).to_vec();
        let cli = BenchCli { rest, ..BenchCli::default() };
        assert_eq!(cli.flag::<usize>("--cores").unwrap(), Some(8));
        assert_eq!(cli.flag::<String>("--config").unwrap().as_deref(), Some("save1"));
        assert_eq!(cli.flag::<u64>("--tiles").unwrap(), None, "an absent flag has no value");
        for (flag, why) in [("--quantum", "does not parse"), ("--k", "needs a value")] {
            let err = cli.flag::<u64>(flag).expect_err(flag);
            assert!(matches!(&err, SimError::InvalidConfig { what } if what.contains(why)), "{flag}: {err}");
        }
    }

    #[test]
    fn durable_session_journals_batch_cells_by_key() {
        let dir = std::env::temp_dir()
            .join(format!("save-bench-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cli = BenchCli::parse_from([
            "--checkpoint-dir".to_string(),
            dir.display().to_string(),
        ], &CommandArgs::default())
        .unwrap();
        let batch = [cell("cell-a", 2), cell("cell-b", 0), cell("cell-a again", 2)];

        let mut s = SweepSession::durable("unit", &cli, CancelToken::new()).unwrap();
        let first = s.spec_seconds_batch(&batch);
        assert!(!first[0].0.is_nan() && first[0].1 > 0);
        assert!(first[1].0.is_nan(), "invalid config fails");
        assert_eq!(first[1].1, 0, "a failed cell simulated no cycles");
        assert_eq!(first[2].0.to_bits(), first[0].0.to_bits(), "same key, same cell");
        assert_eq!(s.report().total_jobs, 2, "the repeated cell runs once");
        drop(s);

        // Without --resume, the journal refuses to be overwritten.
        let err = SweepSession::durable("unit", &cli, CancelToken::new())
            .err()
            .expect("journal must refuse overwrite");
        assert!(err.to_string().contains("--resume"), "{err}");

        let cli2 = BenchCli { resume: true, ..cli.clone() };
        let mut s = SweepSession::durable("unit", &cli2, CancelToken::new()).unwrap();
        let restored = s.spec_seconds_batch(&batch);
        assert_eq!(s.resumed(), 2, "no recompute");
        assert_eq!(restored[0].0.to_bits(), first[0].0.to_bits(), "bit-identical restore");
        assert_eq!(restored[0].1, first[0].1, "the cycle count is restored too");
        assert!(restored[1].0.is_nan(), "journaled permanent failure fails fast");
        assert_eq!(s.report().failures.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
