//! # save-sim — simulation driver and end-to-end estimation
//!
//! This crate ties the core model, memory hierarchy, kernels and sparsity
//! models into the paper's evaluation methodology (§VI):
//!
//! 1. [`CellSpec::run`] executes one kernel on one simulated machine
//!    operating point (baseline 2 VPUs @ 1.7 GHz, SAVE 2 VPUs @ 1.7 GHz,
//!    SAVE 1 VPU @ 2.1 GHz) in either the fast *symmetric* 28-core mode
//!    (one core against its share of the uncore) or the *detailed* mode
//!    that runs every core over the shared NUCA L3 + mesh + DRAM — one
//!    executor in [`multicore`] for both. [`CellSpec::run_traced`] adds
//!    trace record/replay, and [`run_kernel_full`] also returns the uncore
//!    contention report;
//! 2. [`surface`] sweeps a kernel over a 2-D grid of (broadcasted,
//!    non-broadcasted) sparsity and interpolates bilinearly — the paper's
//!    "2D surface of execution times" (§VI). Every cell of a sweep, like
//!    every cell anywhere in the workspace, is resolved by one
//!    [`durable::Executor`]: claimed in the [`ResultStore`], run under the
//!    [`RetryPolicy`], journaled;
//! 3. [`net`] composes the workloads into networks and encodes Table III's
//!    sparsity roles per phase;
//! 4. [`estimate`] produces the end-to-end inference and training numbers of
//!    Fig 14, including the static (per-epoch) and dynamic (per-kernel)
//!    1-vs-2-VPU selection of §IV-D.
//!
//! Every fallible entry point returns a typed [`SimError`] instead of
//! panicking, and [`durable::run_cell`] isolates panics at the cell
//! boundary, so a figure sweep with one bad operating point still completes
//! with partial results and a [`parallel::FailureReport`] (DESIGN.md,
//! "Error handling & fault isolation").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod durable;
pub mod error;
pub mod estimate;
pub mod multicore;
pub mod net;
pub mod parallel;
pub mod policy;
pub mod power;
pub mod relaxed;
pub mod runner;
pub mod spec;
pub mod store;
pub mod surface;
pub mod trace;

pub use cancel::{CancelToken, Supervisor, SupervisorHandle, WatchGuard};
pub use durable::{
    exit_code_for, run_cell, CellRun, Executor, Resolved, RetryPolicy, EXIT_CANCELLED,
    EXIT_FAILURES, EXIT_OK, EXIT_USAGE,
};
pub use error::{RetryClass, SimError};
pub use spec::{CellSpec, CoreSel};
pub use store::{fsck_journal, CellRecord, Claim, FsckReport, ResultStore};
pub use estimate::{Estimator, EstimatorConfig, InferenceEstimate, TrainingEstimate};
pub use net::{LayerShape, Network};
pub use parallel::{
    host_parallelism, parallel_try_map, sim_thread_allowance, FailureReport, JobFailure,
};
pub use policy::{PolicyOutcome, VpuPolicy};
pub use power::{EnergyBreakdown, PowerModel};
pub use runner::{
    run_kernel_full, ConfigKind, KernelResult, KernelRun, MachineConfig, MachineMode,
    MulticoreConfig,
};
pub use surface::{Surface, SweepOutcome};
pub use trace::{trace_key, CoreTrace, KernelTrace, TraceStore};
