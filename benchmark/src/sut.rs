//! The system under test: every call from the benchmark into the simulator
//! crates goes through this file, so the benchmark's coupling to their
//! public APIs is visible in one place.

use crate::trace::Tracer;
use save_mem::{CoreMemory, Uncore, UncoreAccess, UncoreReport};
use save_serve::{Client, NamedCell, ServeConfig};
use save_sim::runner::warm_regions;
use save_sim::{durable::RetryPolicy, CoreSel, SimError};
use std::net::TcpListener;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use save_core::{CoreConfig, CoreStats, SchedulerKind};
pub use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Phase, Precision};
pub use save_mem::BcastDesign;
pub use save_sim::{CellSpec, ConfigKind, KernelResult, MachineConfig, MachineMode, TraceStore};

fn err(e: SimError) -> String {
    e.to_string()
}

/// Every convolution of the paper's VGG16 and ResNet-50 tables as a GEMM
/// workload, one per (layer, training phase, precision).
pub fn conv_workloads() -> Vec<GemmWorkload> {
    let shapes = save_kernels::shapes::vgg16()
        .into_iter()
        .chain(save_kernels::shapes::resnet50());
    shapes
        .flat_map(|s| {
            Phase::ALL.map(|p| [Precision::F32, Precision::Mixed].map(|x| s.workload(p, x)))
        })
        .flatten()
        .collect()
}

/// A machine with `cores` detailed cores over the shared NUCA L3, mesh and
/// DRAM, running the multicore engine selected by `quantum` on `threads`
/// host threads.
pub fn detailed_machine(cores: usize, quantum: u64, threads: usize) -> MachineConfig {
    let mut m = MachineConfig {
        cores,
        mode: MachineMode::Detailed,
        ..MachineConfig::default()
    };
    m.mc.quantum = quantum;
    m.mc.threads = threads;
    m
}

/// Runs a cell the way sweeps do (no trace store).
pub fn run(spec: &CellSpec) -> Result<KernelResult, String> {
    spec.run(None).map_err(err)
}

/// How a cell run through a [`TraceStore`] was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    /// Executed directly while recording a functional trace.
    Record,
    /// Replayed from a recorded trace.
    Replay,
    /// Served from the store's result memo without simulating.
    Memo,
}

/// Runs a cell through `store`, classifying the call from the store's
/// counter deltas.
pub fn run_traced(spec: &CellSpec, store: &TraceStore) -> Result<(KernelResult, Reuse), String> {
    let (hits, memo_hits) = (store.hits(), store.result_hits());
    let r = spec.run_traced(None, store).map_err(err)?;
    let reuse = if store.result_hits() > memo_hits {
        Reuse::Memo
    } else if store.hits() > hits {
        Reuse::Replay
    } else {
        Reuse::Record
    };
    Ok((r, reuse))
}

/// Trace-store counters: (trace lookups, trace hits, memo lookups, memo hits).
pub fn store_counters(store: &TraceStore) -> [u64; 4] {
    [
        store.lookups(),
        store.hits(),
        store.result_lookups(),
        store.result_hits(),
    ]
}

/// Shared-uncore counters of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct UncoreCounts {
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// DRAM line fills, demand and prefetch.
    pub dram_fills: u64,
    /// Deepest DRAM channel queue seen.
    pub dram_max_queue: u64,
    /// L3-slice MSHR conflicts.
    pub mshr_conflicts: u64,
    /// Flits on the busiest mesh link.
    pub max_link_flits: u64,
}

impl From<&UncoreReport> for UncoreCounts {
    fn from(r: &UncoreReport) -> Self {
        UncoreCounts {
            l3_hits: r.l3_hits,
            l3_misses: r.l3_misses,
            dram_fills: r.dram.demand_fills + r.dram.prefetch_fills,
            dram_max_queue: r.dram.max_queue_depth,
            mshr_conflicts: r.total_mshr_conflicts(),
            max_link_flits: r.max_link_flits,
        }
    }
}

/// Runs a named-operating-point cell and keeps its uncore report.
pub fn run_full(spec: &CellSpec) -> Result<(KernelResult, UncoreCounts), String> {
    let CoreSel::Kind { kind } = &spec.core else {
        return Err("run_full needs a named operating point".to_string());
    };
    let run = save_sim::run_kernel_full(
        &spec.workload,
        *kind,
        &spec.machine,
        spec.seed,
        spec.verify,
        None,
    )
    .map_err(err)?;
    Ok((run.result, UncoreCounts::from(&run.uncore)))
}

/// Times every shared-uncore access a core makes; the total is reported as
/// one aggregate span rather than a span per access.
struct TimedUncore<'a> {
    inner: &'a mut Uncore,
    ns: u64,
    calls: u64,
}

impl UncoreAccess for TimedUncore<'_> {
    fn access(&mut self, core: usize, line: u64, start_ns: f64, prefetch: bool) -> f64 {
        let t = Instant::now();
        let done = self.inner.access(core, line, start_ns, prefetch);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        done
    }

    fn warm_line(&mut self, core: usize, line: u64) {
        self.inner.warm_line(core, line)
    }
}

/// Private-cache counters of one directly driven cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrivateCounts {
    /// Demand loads.
    pub loads: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// L1-D hits and misses.
    pub l1: (u64, u64),
    /// L2 hits and misses.
    pub l2: (u64, u64),
}

/// What [`drive`] observed.
#[derive(Clone, Debug)]
pub struct Driven {
    /// Core counters of the run.
    pub stats: CoreStats,
    /// The numerical output matched the reference.
    pub verified: bool,
    /// Private-cache counters.
    pub private: PrivateCounts,
    /// Shared-uncore counters.
    pub uncore: UncoreCounts,
}

/// Executes a symmetric-mode cell step by step with public API — codegen,
/// uncore set-up and warm-up, the `Core::step`/`ff_target`/`advance_to`
/// loop of `Core::run_mut`, and verification — recording a span around
/// each under `parent`. The `core.run` span carries the loop's counters
/// (`steps`, `ff_jumps`, `ff_cycles` skipped, `uncore_calls`, `cycles`) and
/// an aggregate `mem.uncore` child holding the summed uncore-access time.
pub fn drive(spec: &CellSpec, tr: &mut Tracer, parent: usize, cell: u64) -> Result<Driven, String> {
    let machine = &spec.machine;
    if machine.mode != MachineMode::Symmetric {
        return Err("drive runs symmetric-mode cells only".to_string());
    }
    let cfg = match &spec.core {
        CoreSel::Kind { kind } => kind.core_config(),
        CoreSel::Custom { config } => **config,
    };
    cfg.validate()?;
    machine.mem.validate()?;

    let span = tr.open("kernels.build", Some(parent), cell);
    let mut built = spec.workload.build(spec.seed);
    tr.close(span);

    let span = tr.open("mem.warm", Some(parent), cell);
    let mut uncore = Uncore::new_symmetric(&machine.mem, machine.cores);
    let mut cmem = CoreMemory::new(0, machine.mem, cfg.freq_ghz);
    warm_regions(&spec.workload, &built.regions, &mut cmem, &mut uncore);
    tr.close(span);

    let run = tr.open("core.run", Some(parent), cell);
    let mut core = save_core::Core::new(cfg);
    let mut shim = TimedUncore {
        inner: &mut uncore,
        ns: 0,
        calls: 0,
    };
    let (mut steps, mut jumps, mut skipped) = (0u64, 0u64, 0u64);
    cmem.set_freq(cfg.freq_ghz);
    let outcome = loop {
        steps += 1;
        if let Some(o) = core.step(&built.program, &mut built.mem, &mut cmem, &mut shim) {
            break o;
        }
        if let Some(target) = core.ff_target() {
            let from = core.cycle();
            if target > from {
                jumps += 1;
                skipped += target - from;
            }
            if let Some(o) = core.advance_to(target) {
                break o;
            }
        }
    };
    let (uncore_ns, uncore_calls) = (shim.ns, shim.calls);
    tr.close(run);
    tr.aggregate("mem.uncore", run, uncore_ns);
    tr.count(run, "steps", steps as f64);
    tr.count(run, "ff_jumps", jumps as f64);
    tr.count(run, "ff_cycles", skipped as f64);
    tr.count(run, "uncore_calls", uncore_calls as f64);
    tr.count(run, "cycles", outcome.stats.cycles as f64);
    if !outcome.completed {
        return Err(format!(
            "{}: run stopped before completion",
            spec.workload.name
        ));
    }

    let span = tr.open("kernels.verify", Some(parent), cell);
    let verified = built.verify().is_ok();
    tr.close(span);

    let m = cmem.stats();
    Ok(Driven {
        stats: outcome.stats,
        verified,
        private: PrivateCounts {
            loads: m.loads,
            prefetches: m.prefetches,
            l1: (m.l1.hits, m.l1.misses),
            l2: (m.l2.hits, m.l2.misses),
        },
        uncore: UncoreCounts::from(&uncore.report()),
    })
}

/// One cell result streamed back by the daemon.
#[derive(Clone, Copy, Debug)]
pub struct ServedCell {
    /// Index within the submitted job.
    pub index: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// `f64::to_bits` of the simulated seconds.
    pub secs_bits: u64,
    /// Served from the memo cache.
    pub cached: bool,
    /// The cell succeeded.
    pub ok: bool,
}

/// Daemon-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonCounts {
    /// Jobs the daemon rejected.
    pub rejected: u64,
    /// Workers lost and respawned.
    pub respawned: u64,
    /// Results in the memo-cache journal.
    pub journal_records: u64,
}

/// An in-process `save-serve` daemon and one client connection to it.
pub struct Daemon {
    client: Client,
    thread: JoinHandle<Result<u8, SimError>>,
}

impl Daemon {
    /// Starts a daemon with `workers` workers and a memo cache in
    /// `cache_dir`, and connects to it.
    pub fn start(cache_dir: &Path, workers: usize) -> Result<Daemon, String> {
        // The daemon prints its address only to stdout, so pick a free port
        // here and hand it over.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let cfg = ServeConfig {
            listen: addr.clone(),
            cache_dir: cache_dir.to_path_buf(),
            workers,
            capacity: 1024,
            policy: RetryPolicy::default(),
            install_signals: false,
        };
        let thread = std::thread::spawn(move || save_serve::serve(&cfg));
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect(&addr) {
                Ok(c) => break c,
                Err(_) if Instant::now() < deadline && !thread.is_finished() => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    return Err(match thread.is_finished() {
                        true => match thread.join() {
                            Ok(Err(se)) => format!("daemon failed to start: {se}"),
                            _ => format!("daemon exited early: {e}"),
                        },
                        false => format!("connect to daemon: {e}"),
                    })
                }
            }
        };
        Ok(Daemon { client, thread })
    }

    /// Submits `cells` as one job, calling `on_cell` as each result arrives.
    pub fn submit(
        &mut self,
        name: &str,
        cells: &[CellSpec],
        mut on_cell: impl FnMut(ServedCell),
    ) -> Result<(), String> {
        let named: Vec<NamedCell> = cells
            .iter()
            .enumerate()
            .map(|(i, s)| NamedCell {
                label: i.to_string(),
                spec: s.clone(),
                fault: None,
            })
            .collect();
        self.client
            .submit(name, &named, |r| {
                on_cell(ServedCell {
                    index: r.index as usize,
                    cycles: r.cycles,
                    secs_bits: r.secs_bits,
                    cached: r.cached,
                    ok: r.ok(),
                })
            })
            .map(|_| ())
            .map_err(err)
    }

    /// The daemon's counters.
    pub fn counts(&mut self) -> Result<DaemonCounts, String> {
        let s = self.client.status().map_err(err)?;
        Ok(DaemonCounts {
            rejected: s.jobs_rejected,
            respawned: s.workers_respawned,
            journal_records: s.cached_records as u64,
        })
    }

    /// Drains the daemon and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.drain().map_err(err)?;
        drop(self.client);
        match self.thread.join() {
            Ok(Ok(0)) => Ok(()),
            Ok(Ok(code)) => Err(format!("daemon exited with code {code}")),
            Ok(Err(e)) => Err(err(e)),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}
