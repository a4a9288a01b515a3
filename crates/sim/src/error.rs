//! Typed simulation errors.
//!
//! Every fallible entry point in `save-sim` returns [`SimError`] instead of
//! panicking, so figure sweeps can record a failure for one operating point
//! and keep going. The type is serializable (it rides inside the sweep-level
//! [`crate::parallel::FailureReport`]) and keeps only owned strings and
//! plain data so it crosses thread and process boundaries cleanly.

use save_core::{SanitizerReport, StallDiag};
use serde::{Deserialize, Serialize};

/// An error from running or configuring a simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SimError {
    /// A kernel ran to completion but its output disagreed with the
    /// functional reference at `index`.
    VerifyMismatch {
        /// Kernel / workload name.
        kernel: String,
        /// Core that produced the mismatch, when known (multicore runs).
        core: Option<usize>,
        /// Element index of the first mismatch.
        index: usize,
        /// Value the simulated machine produced.
        got: f32,
        /// Value the reference expected.
        want: f32,
    },
    /// The run stopped before draining: it hit the cycle budget or the
    /// retire-progress watchdog. `diag` says which and names the stalled
    /// resource.
    CycleBudgetExceeded {
        /// Kernel / workload name.
        kernel: String,
        /// Core that stalled, when known (multicore runs).
        core: Option<usize>,
        /// Pipeline snapshot at the moment the run was aborted.
        diag: Box<StallDiag>,
    },
    /// The cycle-level sanitizer detected a microarchitectural invariant
    /// violation (or an internal model-integrity check fired) and the run
    /// was aborted. `report` carries the invariant name, detection cycle
    /// and a witness of the inconsistent state.
    InvariantViolation {
        /// Kernel / workload name.
        kernel: String,
        /// Core that tripped the invariant, when known (multicore runs).
        core: Option<usize>,
        /// The sanitizer's structured witness.
        report: Box<SanitizerReport>,
    },
    /// A core or memory configuration failed validation before the run
    /// started.
    InvalidConfig {
        /// Which field is out of range, verbatim from `validate()`.
        what: String,
    },
    /// A parallel sweep job panicked; the panic was caught at the job
    /// boundary so the rest of the sweep could finish.
    WorkerPanic {
        /// Index of the job in the sweep's item list.
        job: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An I/O or serialization failure (writing results, reading configs).
    Io {
        /// Description of what failed.
        what: String,
    },
    /// The run was cancelled cooperatively (Ctrl-C / SIGTERM or an embedder's
    /// cancel token): the core stopped at its next cycle-quantum boundary.
    /// Cancelled cells are *not* failures — a resumed sweep recomputes them.
    Cancelled {
        /// Kernel / sweep cell that was interrupted.
        what: String,
    },
    /// A sweep cell exceeded its per-cell wall-clock deadline and stopped
    /// at its next cycle quantum. Distinct from [`SimError::Cancelled`]:
    /// only this cell was stopped, the sweep keeps going.
    DeadlineExceeded {
        /// Kernel / sweep cell that was interrupted.
        what: String,
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// The `save-serve` daemon refused to admit a job because its bounded
    /// queues are full (admission control / backpressure). The client
    /// should retry after `retry_after_ms` instead of queueing unboundedly.
    Overloaded {
        /// What was rejected (job name / cell count).
        what: String,
        /// Suggested client backoff before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// A malformed or unexpected message on the `save-serve` wire protocol
    /// (bad JSON, wrong response type, version mismatch). Retrying the
    /// same bytes reproduces the same rejection.
    Protocol {
        /// Description of the violation.
        what: String,
    },
    /// A `save-serve` worker crashed while this cell was in flight (a
    /// panic escaped the per-cell isolation); the cell is journaled as
    /// failed-retryable and requeued for another attempt.
    WorkerLost {
        /// The cell that was in flight on the lost worker.
        what: String,
    },
}

/// How a durable sweep should react to a failed cell (DESIGN.md §5f).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetryClass {
    /// Retrying cannot change the outcome (deterministic model error):
    /// record the failure immediately and move on.
    Permanent,
    /// The failure may be environmental (scheduling jitter tripping a
    /// deadline, a panic from resource pressure, a transient I/O error):
    /// retry with exponential backoff up to the policy's attempt budget.
    Transient,
    /// The whole sweep is being cancelled: stop retrying, flush the
    /// journal, and exit with the "cancelled, resumable" code.
    Cancelled,
}

impl SimError {
    /// Short machine-readable tag for tables and filenames.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::VerifyMismatch { .. } => "verify-mismatch",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::WorkerPanic { .. } => "worker-panic",
            SimError::Io { .. } => "io",
            SimError::Cancelled { .. } => "cancelled",
            SimError::DeadlineExceeded { .. } => "deadline",
            SimError::Overloaded { .. } => "overloaded",
            SimError::Protocol { .. } => "protocol",
            SimError::WorkerLost { .. } => "worker-lost",
        }
    }

    /// Classifies this error for the durable sweep's retry state machine.
    ///
    /// The table is deliberately exhaustive (no `_` arm) so adding a variant
    /// forces a classification decision here; `tests::retry_classification`
    /// asserts every `kind()` tag's class.
    ///
    /// * Model-determined outcomes ([`SimError::VerifyMismatch`],
    ///   [`SimError::InvariantViolation`], [`SimError::InvalidConfig`]) are
    ///   [`RetryClass::Permanent`]: the simulator is deterministic, so
    ///   re-running the same cell reproduces the same error.
    /// * [`SimError::CycleBudgetExceeded`] is [`RetryClass::Transient`]: a
    ///   stall diagnosis depends on the configured budget/horizon, and the
    ///   durable layer's policy may raise them between attempts.
    /// * Host-side failures ([`SimError::WorkerPanic`], [`SimError::Io`],
    ///   [`SimError::DeadlineExceeded`]) are [`RetryClass::Transient`]:
    ///   they can come from resource pressure on the machine, not the model.
    /// * Service-side conditions: [`SimError::Overloaded`] and
    ///   [`SimError::WorkerLost`] are [`RetryClass::Transient`] (the queue
    ///   drains, the lost cell is requeued), while [`SimError::Protocol`]
    ///   is [`RetryClass::Permanent`] (resending the same malformed message
    ///   reproduces the same rejection).
    pub fn retry_class(&self) -> RetryClass {
        match self {
            SimError::VerifyMismatch { .. } => RetryClass::Permanent,
            SimError::InvariantViolation { .. } => RetryClass::Permanent,
            SimError::InvalidConfig { .. } => RetryClass::Permanent,
            SimError::CycleBudgetExceeded { .. } => RetryClass::Transient,
            SimError::WorkerPanic { .. } => RetryClass::Transient,
            SimError::Io { .. } => RetryClass::Transient,
            SimError::DeadlineExceeded { .. } => RetryClass::Transient,
            SimError::Cancelled { .. } => RetryClass::Cancelled,
            SimError::Overloaded { .. } => RetryClass::Transient,
            SimError::Protocol { .. } => RetryClass::Permanent,
            SimError::WorkerLost { .. } => RetryClass::Transient,
        }
    }

    /// [`SimError::retry_class`] looked up from a journaled `kind()` tag.
    ///
    /// Journals persist only the tag, not the full error; the
    /// [`crate::ResultStore`] uses this to decide whether a journaled
    /// failure is final (permanent: serve it from the store) or worth
    /// recomputing on the next request (transient: the crash/overload that
    /// produced it may not recur). Returns `None` for unknown tags, which
    /// callers should treat as transient — recomputing is always safe.
    pub fn retry_class_of_kind(kind: &str) -> Option<RetryClass> {
        Some(match kind {
            "verify-mismatch" | "invariant-violation" | "invalid-config" | "protocol" => {
                RetryClass::Permanent
            }
            "cycle-budget" | "worker-panic" | "io" | "deadline" | "overloaded"
            | "worker-lost" => RetryClass::Transient,
            "cancelled" => RetryClass::Cancelled,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::VerifyMismatch { kernel, core, index, got, want } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": output mismatch at {index}: got {got} want {want}")
            }
            SimError::CycleBudgetExceeded { kernel, core, diag } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": did not complete: {diag}")
            }
            SimError::InvariantViolation { kernel, core, report } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": sanitizer abort: {report}")
            }
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            SimError::WorkerPanic { job, message } => {
                write!(f, "sweep job {job} panicked: {message}")
            }
            SimError::Io { what } => write!(f, "i/o error: {what}"),
            SimError::Cancelled { what } => write!(f, "cancelled: {what}"),
            SimError::DeadlineExceeded { what, millis } => {
                write!(f, "deadline exceeded ({millis} ms): {what}")
            }
            SimError::Overloaded { what, retry_after_ms } => {
                write!(f, "service overloaded (retry after {retry_after_ms} ms): {what}")
            }
            SimError::Protocol { what } => write!(f, "protocol error: {what}"),
            SimError::WorkerLost { what } => {
                write!(f, "worker lost with cell in flight: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io { what: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = SimError::VerifyMismatch {
            kernel: "gemm".into(),
            core: Some(3),
            index: 7,
            got: 1.0,
            want: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("gemm") && s.contains("core 3") && s.contains("at 7"), "{s}");
        assert_eq!(e.kind(), "verify-mismatch");
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let e: SimError = io.into();
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("no such file"));
    }

    /// One sample of every `SimError` variant, so the classification table
    /// below provably covers the whole enum (adding a variant without
    /// extending this list fails the count assertion).
    fn one_of_each() -> Vec<SimError> {
        use save_core::{CoreStats, SchedulerKind, StallCause};
        vec![
            SimError::VerifyMismatch {
                kernel: "gemm".into(),
                core: None,
                index: 0,
                got: 0.0,
                want: 1.0,
            },
            SimError::CycleBudgetExceeded {
                kernel: "gemm".into(),
                core: None,
                diag: Box::new(StallDiag {
                    cause: StallCause::CycleBudget,
                    cycle: 10,
                    last_commit_cycle: 5,
                    rob_occupancy: 0,
                    rob_capacity: 224,
                    rs_occupancy: 0,
                    rs_capacity: 97,
                    loads_in_flight: 0,
                    phys_free: 1,
                    oldest_unretired: None,
                    scheduler: SchedulerKind::Baseline,
                    stats: CoreStats::default(),
                }),
            },
            SimError::InvariantViolation {
                kernel: "gemm".into(),
                core: None,
                report: Box::new(SanitizerReport {
                    invariant: "lane-conservation".into(),
                    cycle: 3,
                    rob: None,
                    witness: "mask mismatch".into(),
                }),
            },
            SimError::InvalidConfig { what: "vpus must be 1 or 2".into() },
            SimError::WorkerPanic { job: 4, message: "boom".into() },
            SimError::Io { what: "disk full".into() },
            SimError::Cancelled { what: "cell (0.5, 0.5)".into() },
            SimError::DeadlineExceeded { what: "cell (0.5, 0.5)".into(), millis: 250 },
            SimError::Overloaded { what: "job fig14 (96 cells)".into(), retry_after_ms: 250 },
            SimError::Protocol { what: "expected Submit, got garbage".into() },
            SimError::WorkerLost { what: "cell(a=0.50,b=0.50)".into() },
        ]
    }

    /// The retry-class table asserted per `kind()` tag (ISSUE 6 satellite):
    /// every variant appears exactly once and maps to the documented class.
    #[test]
    fn retry_classification() {
        let expected: &[(&str, RetryClass)] = &[
            ("verify-mismatch", RetryClass::Permanent),
            ("cycle-budget", RetryClass::Transient),
            ("invariant-violation", RetryClass::Permanent),
            ("invalid-config", RetryClass::Permanent),
            ("worker-panic", RetryClass::Transient),
            ("io", RetryClass::Transient),
            ("cancelled", RetryClass::Cancelled),
            ("deadline", RetryClass::Transient),
            ("overloaded", RetryClass::Transient),
            ("protocol", RetryClass::Permanent),
            ("worker-lost", RetryClass::Transient),
        ];
        let samples = one_of_each();
        assert_eq!(
            samples.len(),
            expected.len(),
            "every SimError variant needs a row in the classification table"
        );
        for e in &samples {
            let (_, want) = expected
                .iter()
                .find(|(kind, _)| *kind == e.kind())
                .unwrap_or_else(|| panic!("no expected class for kind {:?}", e.kind()));
            assert_eq!(e.retry_class(), *want, "wrong class for {:?}", e.kind());
        }
    }

    #[test]
    fn cancellation_variants_display() {
        let c = SimError::Cancelled { what: "fig14 cell 3".into() };
        assert_eq!(c.kind(), "cancelled");
        assert!(c.to_string().contains("fig14 cell 3"));
        let d = SimError::DeadlineExceeded { what: "fig14 cell 3".into(), millis: 1500 };
        assert_eq!(d.kind(), "deadline");
        assert!(d.to_string().contains("1500 ms"), "{d}");
    }

    /// The kind-tag lookup table must agree with the value-level
    /// classification for every variant — journaled failures are classified
    /// by tag alone, so a divergence would make the service cache treat a
    /// permanent failure as recomputable (or worse, the reverse).
    #[test]
    fn kind_table_agrees_with_value_classification() {
        for e in one_of_each() {
            assert_eq!(
                SimError::retry_class_of_kind(e.kind()),
                Some(e.retry_class()),
                "kind table diverges for {:?}",
                e.kind()
            );
        }
        assert_eq!(SimError::retry_class_of_kind("no-such-kind"), None);
    }

    #[test]
    fn service_variants_display() {
        let o = SimError::Overloaded { what: "fig14".into(), retry_after_ms: 120 };
        assert_eq!(o.kind(), "overloaded");
        assert!(o.to_string().contains("120 ms"), "{o}");
        let p = SimError::Protocol { what: "bad line".into() };
        assert_eq!(p.kind(), "protocol");
        let w = SimError::WorkerLost { what: "cell 3".into() };
        assert_eq!(w.kind(), "worker-lost");
        assert!(w.to_string().contains("cell 3"));
    }

    #[test]
    fn retry_class_round_trips_through_json() {
        for e in one_of_each() {
            let class = e.retry_class();
            let json = serde_json::to_string(&class).unwrap();
            let back: RetryClass = serde_json::from_str(&json).unwrap();
            assert_eq!(class, back);
        }
    }
}
