//! # save-serve — crash-tolerant sweep service (DESIGN.md §5g)
//!
//! A persistent daemon that accepts sweep jobs over a JSON-lines TCP
//! protocol, executes them on a bounded FIFO worker pool, and streams
//! per-cell results back — built entirely on threads and
//! `std::net` (no async runtime; the workspace builds offline with
//! vendored stubs only).
//!
//! Robustness features, each with a dedicated module:
//!
//! * [`protocol`] — the wire format and timeout-tolerant line framing;
//! * [`scheduler`] — one shared queue with admission control
//!   (reject-with-retry-after; store hits answered at admission) and
//!   workers that recover their own crashes by requeueing the lost cell;
//! * [`server`] — the accept loop and the two-stage graceful drain
//!   (first signal: finish and exit 0; second: cancel, exit 130);
//! * [`client`] — the blocking client the bench binaries' `--serve` mode
//!   uses, with bounded backoff against admission rejections.
//!
//! Results are memoized in a [`save_sim::ResultStore`] keyed by
//! [`save_sim::CellSpec::cache_key`] — the same store local sweeps journal
//! into, so a daemon restart recovers every completed cell, and a daemon's
//! cache directory is a valid `--checkpoint-dir` for a local run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, JobDone};
pub use protocol::{
    CellResult, Fault, LineIn, LineReader, NamedCell, Request, Response, ServeStats,
    PROTOCOL_VERSION,
};
pub use scheduler::{Scheduler, Task};
pub use server::{serve, ServeConfig};
