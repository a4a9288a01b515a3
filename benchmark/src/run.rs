//! `run`: one fresh child process per workload, and the report those
//! children produce.
//!
//! The child prints `@@ready <seconds>` once set up (its set-up time, from
//! its own start) and `@@result <json>` after measuring. Set-up is repeated
//! in [`SETUP_REPS`] extra set-up-only children, half before and half after
//! the measured one, so `setup_s` is a median over both ends of the run.

use crate::metrics::{self, Value, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Pass, Runner, Workload, DEFAULT_SEED};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Set-up-only children per workload, besides the measured one.
const SETUP_REPS: usize = 10;

/// Command-line options shared by `run` and the child.
#[derive(Clone, Debug)]
pub struct Opts {
    /// One workload, or all of them.
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Run traced passes and report per-layer metrics.
    pub trace: bool,
    /// One short pass per workload.
    pub smoke: bool,
    /// Child only: exit after set-up.
    pub setup_only: bool,
    /// Child only: the run's output directory.
    pub out: Option<PathBuf>,
}

/// Parses `args` (after the subcommand).
pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: crate::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        setup_only: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--trace" {
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            o.trace = it
                .next_if(|v| *v == "0" || *v == "1")
                .is_none_or(|v| v == "1");
            continue;
        }
        let mut next_value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let w = next_value()?;
                o.workload =
                    Some(Workload::parse(&w).ok_or_else(|| format!("unknown workload {w:?}"))?);
            }
            "--seed" => o.seed = next_value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = next_value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--out" => o.out = Some(PathBuf::from(next_value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// One workload's outcome, as stored in `results.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether traced passes ran.
    pub trace: bool,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// Operations attempted: cells run plus oracle checks made.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Simulated cycles of each untraced pass (`golden.json` pins the first
    /// at the default seed).
    pub pass_cycles: Vec<u64>,
    /// Traced passes run.
    pub traced_passes: u64,
    /// End-to-end metrics, then per-layer ones when traced.
    pub metrics: Vec<Value>,
}

/// A whole `results.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Results {
    /// Run id (the output directory's name).
    pub run: String,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Host threads available.
    pub host_threads: u64,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadResult>,
}

/// The workload's pinned cycle total for `seed`, if `golden.json` has one.
fn golden(w: Workload, seed: u64) -> Option<u64> {
    #[derive(Deserialize)]
    struct Golden {
        seed: u64,
        compute: u64,
        stream: u64,
        ablation: u64,
        mesh: u64,
        serve: u64,
    }
    let g: Golden =
        serde_json::from_str(include_str!("../golden.json")).expect("golden.json parses");
    let cycles = match w {
        Workload::Compute => g.compute,
        Workload::Stream => g.stream,
        Workload::Ablation => g.ablation,
        Workload::Mesh => g.mesh,
        Workload::Serve => g.serve,
    };
    (seed == g.seed && cycles != 0).then_some(cycles)
}

/// A metric from its run-level `value` and its per-pass samples.
fn summarize(name: &str, value: f64, per_pass: &[f64], n: usize) -> Value {
    let [q1, _, q3] = stats::quartiles(per_pass);
    let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
    Value {
        name: name.to_string(),
        unit: metrics::describe(name)
            .map_or("", |(unit, _)| unit)
            .to_string(),
        value: finite(value),
        q1: finite(q1),
        q3: finite(q3),
        n: n as u64,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end metrics (all but `setup_s`, which the parent adds) of the
/// untraced passes.
///
/// Every pass does the same work in the same order, so each cell (and each
/// serve job) has one host time per pass. Timings use each one's best time
/// over the run's passes: other tenants of a shared host slow passes down at
/// random, and the best time is the closest a run gets to the uncontended
/// cost a code change moves. Throughput is a pass's mean work over the sum
/// of the best unit times; the latency percentiles are over the cells' best
/// latencies. The quartiles beside each value are of the same quantity
/// computed pass by pass, which shows the noise the best times filter out.
fn end_to_end(passes: &[Pass]) -> Vec<Value> {
    let secs = |p: &Pass| p.host_ns as f64 / 1e9;
    let kcyc: Vec<f64> = passes
        .iter()
        .map(|p| p.cycles as f64 / secs(p) / 1e3)
        .collect();
    let cells: Vec<f64> = passes.iter().map(|p| p.cells as f64 / secs(p)).collect();
    let best_s = best_units_s(passes.iter());
    let mean =
        |f: fn(&Pass) -> u64| passes.iter().map(|p| f(p) as f64).sum::<f64>() / passes.len() as f64;
    let lat: Vec<&[f64]> = passes.iter().map(|p| &p.lat_ms[..]).collect();
    let best_lat = stats::best_by_position(&lat);
    let mut out = vec![
        summarize(
            "sim_kcyc_per_s",
            mean(|p| p.cycles) / best_s / 1e3,
            &kcyc,
            passes.len(),
        ),
        summarize(
            "cells_per_s",
            mean(|p| p.cells) / best_s,
            &cells,
            passes.len(),
        ),
    ];
    for (name, p) in [("cell_p50_ms", 50.0), ("cell_p90_ms", 90.0)] {
        let per_pass: Vec<f64> = lat
            .iter()
            .map(|l| {
                let done: Vec<f64> = l.iter().copied().filter(|t| t.is_finite()).collect();
                stats::percentile(&done, p)
            })
            .collect();
        out.push(summarize(
            name,
            stats::percentile(&best_lat, p),
            &per_pass,
            best_lat.len(),
        ));
    }
    let rss = peak_rss_mb();
    out.push(summarize("peak_rss_mb", rss, &[rss], 1));
    out
}

/// The sum, in seconds, of each unit of work's best time over `passes`.
fn best_units_s<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let units: Vec<&[f64]> = passes.map(|p| &p.unit_ms[..]).collect();
    stats::best_by_position(&units).iter().sum::<f64>() / 1e3
}

/// Per-layer metrics: the median of each over the traced passes, plus the
/// tracing overhead: the traced passes' best unit times against the
/// untraced ones (see [`end_to_end`]).
fn per_layer(passes: &[Pass], traced: &[(Pass, crate::workloads::LayerValues)]) -> Vec<Value> {
    let overhead = best_units_s(traced.iter().map(|(p, _)| p)) / best_units_s(passes.iter()) - 1.0;
    PER_LAYER
        .iter()
        .map(|m| {
            let samples: Vec<f64> = if m.name == "bench.trace_overhead_frac" {
                vec![overhead]
            } else {
                traced
                    .iter()
                    .map(|(_, v)| v.get(m.name).copied().unwrap_or(0.0))
                    .collect()
            };
            summarize(m.name, stats::median(&samples), &samples, traced.len())
        })
        .collect()
}

/// The child process: sets up one workload, signals readiness, measures,
/// and prints its [`WorkloadResult`] as an `@@result` line.
pub fn child(o: &Opts, started: Instant) -> Result<(), String> {
    let w = o.workload.ok_or("the child needs --workload")?;
    let out = o.out.clone().ok_or("the child needs --out")?;
    let scratch = out.join(format!("scratch-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut r = Runner::setup(w, o.seed, o.smoke, &scratch, golden(w, o.seed))?;
    println!("@@ready {}", started.elapsed().as_secs_f64());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let teardown = |r: Runner| {
        r.finish()?;
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))
    };
    if o.setup_only {
        return teardown(r);
    }

    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut tr = Tracer::new();
    let start = Instant::now();
    loop {
        passes.push(r.pass());
        if o.trace {
            traced.push(r.traced_pass(&mut tr));
        }
        if o.smoke || start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let mut metrics = end_to_end(&passes);
    let (checks, pass_cycles) = (r.checks.clone(), r.pass_cycles.clone());
    teardown(r)?;
    if o.trace {
        tr.write_jsonl(&out.join(format!("trace-{}.jsonl", w.name())))
            .map_err(|e| format!("write trace: {e}"))?;
        metrics.extend(per_layer(&passes, &traced));
    }
    let result = WorkloadResult {
        workload: w.name().to_string(),
        seed: o.seed,
        trace: o.trace,
        smoke: o.smoke,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.notes,
        pass_cycles,
        traced_passes: traced.len() as u64,
        metrics,
    };
    let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    println!("@@result {json}");
    Ok(())
}

/// What one child run produced.
struct ChildRun {
    setup_s: f64,
    result: Option<WorkloadResult>,
}

/// Spawns a child for workload `w` and collects its set-up time (reported
/// on its `@@ready` line) and result. Other lines the child prints go to
/// stderr. A child that outlives `limit` is killed.
fn spawn_child(
    o: &Opts,
    w: Workload,
    out: &Path,
    setup_only: bool,
    limit: Duration,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        w.name(),
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
    ]);
    cmd.args(["--trace", if o.trace { "1" } else { "0" }, "--out"])
        .arg(out);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let deadline = Instant::now() + limit;
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let (mut ready, mut result) = (None, None);
    let timed_out = loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                if let Some(secs) = line.strip_prefix("@@ready ") {
                    ready = secs.parse::<f64>().ok();
                } else if let Some(json) = line.strip_prefix("@@result ") {
                    result = Some(json.to_string());
                } else {
                    eprintln!("{line}");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
        }
    };
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    let _ = reader.join();
    if timed_out {
        return Err(format!(
            "{}: child exceeded {} s and was killed",
            w.name(),
            limit.as_secs()
        ));
    }
    if !status.success() {
        return Err(format!("{}: child failed ({status})", w.name()));
    }
    let setup_s = ready.ok_or_else(|| format!("{}: child never reported ready", w.name()))?;
    let result = match (setup_only, result) {
        (true, _) => None,
        (false, Some(json)) => {
            Some(serde_json::from_str(&json).map_err(|e| format!("child result: {e}"))?)
        }
        (false, None) => return Err(format!("{}: child printed no result", w.name())),
    };
    Ok(ChildRun { setup_s, result })
}

/// Runs one workload: the measured child between two halves of the
/// set-up-only children, so set-up is sampled at both ends of the run.
fn run_workload(o: &Opts, w: Workload, out: &Path) -> Result<WorkloadResult, String> {
    let reps = if o.smoke { 0 } else { SETUP_REPS };
    let setup_only = || spawn_child(o, w, out, true, Duration::from_secs(30)).map(|c| c.setup_s);
    let mut setups = (0..reps / 2)
        .map(|_| setup_only())
        .collect::<Result<Vec<f64>, String>>()?;
    let main = spawn_child(o, w, out, false, Duration::from_secs_f64(o.seconds + 120.0))?;
    setups.push(main.setup_s);
    for _ in reps / 2..reps {
        setups.push(setup_only()?);
    }
    let mut result = main.result.expect("a measured child returns a result");
    let setup = summarize("setup_s", stats::median(&setups), &setups, setups.len());
    let at = result
        .metrics
        .iter()
        .position(|m| m.name == "peak_rss_mb")
        .unwrap_or(result.metrics.len());
    result.metrics.insert(at, setup);
    Ok(result)
}

fn output_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `run`: measures the selected workloads, writes `out/<run>/results.json`,
/// prints every metric, and ends with the one-line JSON summary.
pub fn main(args: &[String]) -> ExitCode {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("save-benchmark: {e}\n{}", crate::USAGE);
            return ExitCode::from(2);
        }
    };
    for var in ["SAVE_SANITIZE", "SAVE_DEBUG_IDLE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("save-benchmark: {var} is set; it changes what the simulator does, so the run would not measure the shipped code. Unset it.");
            return ExitCode::from(2);
        }
    }
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let run = format!("{}-{}", now.as_millis(), std::process::id());
    let out = output_dir().join(&run);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("save-benchmark: create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let selected: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Results {
        run,
        seconds: o.seconds,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workloads: Vec::new(),
    };
    for w in selected {
        match run_workload(&o, w, &out) {
            Ok(r) => results.workloads.push(r),
            Err(e) => {
                eprintln!("save-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let path = out.join("results.json");
    let written = serde_json::to_string_pretty(&results)
        .map_err(|e| e.to_string())
        .and_then(|j| std::fs::write(&path, j + "\n").map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("save-benchmark: write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print_report(&results, o.trace);
    println!("results: {}", path.display());
    println!("{}", summary_line(&results, o.trace));
    ExitCode::SUCCESS
}

fn print_report(results: &Results, trace: bool) {
    for r in &results.workloads {
        println!(
            "== {} (seed {}): {} of {} operations failed",
            r.workload, r.seed, r.failed, r.attempted
        );
        for f in &r.failures {
            println!("   FAILED {f}");
        }
        for m in r
            .metrics
            .iter()
            .filter(|m| trace || metrics::end_to_end(&m.name).is_some())
        {
            let better = metrics::describe(&m.name).map_or("", |(_, b)| b.as_str());
            println!(
                "{:<10} {:<28} {:>14.4} {:<9} [q1 {:.4}, q3 {:.4}, n={}] {better} is better",
                r.workload, m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
        }
    }
}

/// The last line of output: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Metrics are the end-to-end ones, or the
/// per-layer ones for a traced run; with several workloads each name is
/// prefixed with its workload.
fn summary_line(results: &Results, trace: bool) -> String {
    #[derive(Serialize)]
    struct Metric {
        value: f64,
        unit: String,
    }
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: HashMap<String, Metric>,
    }
    let single = results.workloads.len() == 1;
    let mut line = Line {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: HashMap::new(),
    };
    for r in &results.workloads {
        line.attempted += r.attempted;
        line.failed += r.failed;
        for m in &r.metrics {
            let layer = PER_LAYER.iter().any(|l| l.name == m.name);
            if layer == trace {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                line.metrics.insert(
                    name,
                    Metric {
                        value: m.value,
                        unit: m.unit.clone(),
                    },
                );
            }
        }
    }
    line.correct = line.failed == 0;
    serde_json::to_string(&line).expect("summary serializes")
}
