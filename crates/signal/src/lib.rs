//! # save-signal — SIGINT/SIGTERM to atomic-counter bridge
//!
//! Long sweeps need graceful cancellation: on Ctrl-C or a scheduler's
//! SIGTERM, in-flight simulation cells should stop at their next
//! cycle-quantum boundary, the checkpoint journal should be flushed, and
//! the process should exit with the distinct "cancelled, resumable" code
//! (DESIGN.md §5f). The rest of the workspace forbids `unsafe`; this crate
//! confines the two `libc` calls a signal handler needs to one audited
//! module so `save-sim`/`save-bench` can stay `#![forbid(unsafe_code)]`.
//!
//! The handler itself only performs one atomic increment, which is
//! async-signal-safe. Everything else (cancel tokens, journal flushes)
//! happens cooperatively on normal threads that read [`signal_count`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU32, Ordering};

/// Number of cancellation signals observed (SIGINT/SIGTERM deliveries plus
/// [`request_cancel`] calls). A long-running daemon distinguishes "first
/// signal: stop admitting work and drain gracefully" from "second signal:
/// force-cancel in-flight cells and exit with the resumable 130 code" by
/// watching this count; one-shot sweep binaries cancel on the first. Never
/// cleared in production code.
static SIGNAL_COUNT: AtomicU32 = AtomicU32::new(0);

/// How many cancellation signals have been observed so far.
pub fn signal_count() -> u32 {
    SIGNAL_COUNT.load(Ordering::SeqCst)
}

/// Programmatic equivalent of receiving a signal — used by tests and by
/// embedders that have their own shutdown source. Each call counts as one
/// signal delivery for [`signal_count`].
pub fn request_cancel() {
    SIGNAL_COUNT.fetch_add(1, Ordering::SeqCst);
}

/// Test-only reset so independent tests can each observe a fresh count.
/// Production code must never call this: a user's Ctrl-C is final.
pub fn reset_for_test() {
    SIGNAL_COUNT.store(0, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    //! The one `unsafe` region in the workspace: registering a C signal
    //! handler. The handler body is a single SeqCst atomic increment, an
    //! async-signal-safe operation.

    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // A single atomic RMW — async-signal-safe.
        super::SIGNAL_COUNT.fetch_add(1, Ordering::SeqCst);
    }

    extern "C" {
        /// `signal(2)` from libc (already linked by std). The return value
        /// (previous handler) is deliberately opaque; we never restore it.
        fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the POSIX API for exactly this; the handler
        // only performs an atomic increment (async-signal-safe), and the
        // function pointer has the required `extern "C" fn(i32)` ABI.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal support off unix: cancellation still works through
    /// [`super::request_cancel`], so sweeps degrade to cooperative-only.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent). After this, a Ctrl-C
/// or SIGTERM no longer kills the process; each delivery increments
/// [`signal_count`], so sweeps can flush their journals and exit with the
/// "cancelled, resumable" code. Every delivery is counted separately: the
/// `save-serve` daemon drains on the first signal and cancels in-flight
/// cells on the second.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_latches_counts_and_resets() {
        reset_for_test();
        assert_eq!(signal_count(), 0);
        request_cancel();
        assert_eq!(signal_count(), 1);
        request_cancel();
        assert_eq!(signal_count(), 2, "each delivery is counted");
        reset_for_test();
        assert_eq!(signal_count(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
