//! The save-serve wire protocol: JSON lines over TCP.
//!
//! One request or response per line, externally-tagged enum JSON exactly as
//! the vendored `serde_json` renders it. JSON lines keeps the protocol
//! debuggable with `nc` and keeps the daemon free of any async runtime —
//! a blocking [`std::io::BufRead`] loop per connection is all it takes.
//!
//! Framing rules:
//!
//! * every message is one `\n`-terminated line, sent with a single write
//!   (body and newline in one buffer) on a `TCP_NODELAY` socket — a line
//!   split across two writes lets Nagle's algorithm hold the newline until
//!   the peer's delayed ACK fires, adding ~40 ms to every message;
//! * lines are decoded as UTF-8 only once complete, so a read timeout in
//!   the middle of a multibyte character never loses bytes;
//! * the server answers `Submit` with either `Rejected` (admission control
//!   said no — retry after the hinted delay) or `Accepted`, followed by one
//!   `Cell` per submitted cell **in completion order**, followed by exactly
//!   one `Done`;
//! * `Hello`/`Status` are answered with a single message each;
//! * anything unparseable is answered with `Error` and the connection is
//!   closed (a protocol error is permanent — see
//!   [`save_sim::SimError::Protocol`]).

use save_sim::{CellSpec, SimError};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};

/// Wire-format version, exchanged in `Hello`/`Status` so mismatched
/// client/daemon builds fail loudly instead of mis-parsing.
pub const PROTOCOL_VERSION: u32 = 1;

/// Fault injection for crash testing. Threads cannot be SIGKILLed, so
/// "kill a worker mid-cell" is injected at the protocol level: a faulted
/// cell panics *outside* the per-cell isolation boundary, which would
/// unwind and end its worker thread. The worker catches that panic at its
/// task boundary, journals the loss, requeues the cell at the front of the
/// queue (fault cleared), and keeps serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Kill the worker thread that picks this cell up (once).
    KillWorker,
}

/// One cell of a submitted job: a client-chosen label plus the
/// self-contained [`CellSpec`] that determines the result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NamedCell {
    /// Client-chosen label echoed back in the matching [`CellResult`].
    pub label: String,
    /// The cell to simulate.
    pub spec: CellSpec,
    /// Optional crash-test fault (see [`Fault`]).
    #[serde(default)]
    pub fault: Option<Fault>,
}

/// Client → daemon messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Version/stats handshake.
    Hello,
    /// Snapshot of daemon statistics.
    Status,
    /// Submit a named job of cells.
    Submit {
        /// Job name (for logs and the `Done` summary).
        name: String,
        /// The cells to run.
        cells: Vec<NamedCell>,
    },
    /// Ask the daemon to stop admitting work and shut down gracefully —
    /// the programmatic equivalent of one SIGTERM.
    Drain,
}

/// One finished (or cache-served) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The label the client attached in [`NamedCell`].
    pub label: String,
    /// Index of the cell within its job's `cells` vector.
    pub index: u64,
    /// The memo-cache key ([`CellSpec::cache_key`]) the result is filed
    /// under.
    pub key: u64,
    /// `f64::to_bits` of the cell's seconds (NaN bits on failure) — raw
    /// bits so remote results are bit-identical to local sweeps.
    pub secs_bits: u64,
    /// Simulated cycles (0 on failure).
    pub cycles: u64,
    /// Attempts the final execution took (0 when served from cache).
    pub attempts: u32,
    /// `SimError::kind()` tag when the cell failed, else empty.
    #[serde(default)]
    pub error_kind: String,
    /// Whether the result came from the memo cache without re-simulation.
    pub cached: bool,
}

impl CellResult {
    /// The cell's seconds value.
    pub fn secs(&self) -> f64 {
        f64::from_bits(self.secs_bits)
    }

    /// Whether the cell succeeded.
    pub fn ok(&self) -> bool {
        self.error_kind.is_empty()
    }
}

/// Daemon statistics, returned by `Hello` and `Status`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeStats {
    /// [`PROTOCOL_VERSION`] of the daemon.
    pub version: u32,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-control capacity (max queued + running cells).
    pub capacity: usize,
    /// Cells currently admitted but not yet completed.
    pub queued: usize,
    /// Records in the memo cache (journal-backed, survives restarts).
    pub cached_records: usize,
    /// Jobs accepted since startup.
    pub jobs_accepted: u64,
    /// Jobs rejected by admission control since startup.
    pub jobs_rejected: u64,
    /// Worker crashes recovered since startup: each one a cell whose
    /// panic escaped the per-cell isolation and was requeued.
    pub workers_respawned: u64,
    /// Whether the daemon is draining (no longer admitting work).
    pub draining: bool,
}

/// Daemon → client messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Hello {
        /// Daemon statistics snapshot.
        stats: ServeStats,
    },
    /// Statistics snapshot.
    Status {
        /// Daemon statistics snapshot.
        stats: ServeStats,
    },
    /// The job was admitted; `Cell` messages follow.
    Accepted {
        /// Echo of the job name.
        job: String,
        /// Number of cells admitted.
        cells: usize,
    },
    /// Admission control refused the job; resubmit after the hinted delay.
    Rejected {
        /// Why (queue full, draining, …).
        reason: String,
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// One completed cell (streamed in completion order).
    Cell {
        /// The result.
        result: CellResult,
    },
    /// End of a job's result stream.
    Done {
        /// Echo of the job name.
        job: String,
        /// Cells that succeeded.
        ok: usize,
        /// Cells that ultimately failed.
        failed: usize,
        /// Cells served from the memo cache (subset of `ok`/`failed`).
        cached: usize,
        /// Whether the job was cut short by cancellation.
        cancelled: bool,
    },
    /// Acknowledges a `Drain` request.
    Draining,
    /// Protocol-level failure; the daemon closes the connection after this.
    Error {
        /// What went wrong.
        what: String,
    },
}

/// Serializes `msg` as one JSON line, hands it to `w` in a single write,
/// and flushes it.
pub fn write_line<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), SimError> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| SimError::Protocol { what: format!("serialize message: {e}") })?;
    line.push('\n');
    w.write_all(line.as_bytes())
        .and_then(|()| w.flush())
        .map_err(|e| SimError::Io { what: format!("write message: {e}") })
}

/// What one poll of a [`LineReader`] produced.
#[derive(Debug)]
pub enum LineIn<T> {
    /// A complete message.
    Msg(T),
    /// The peer closed the connection.
    Eof,
    /// The read timed out before a full line arrived (only with a read
    /// timeout configured on the underlying stream). The raw bytes read so
    /// far are retained — even half of a multibyte UTF-8 character — so
    /// timeouts never tear messages.
    Timeout,
}

/// Incremental JSON-lines reader that is robust to read timeouts: bytes of
/// a partially received line survive a `Timeout` poll and are completed by
/// a later one. This is what lets the daemon's connection threads wake up
/// periodically to notice a drain without losing protocol framing.
pub struct LineReader<R: Read> {
    inner: BufReader<R>,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps `r`.
    pub fn new(r: R) -> Self {
        LineReader { inner: BufReader::new(r), buf: Vec::new() }
    }

    /// Reads (or continues reading) one line and parses it as `T`.
    pub fn read<T: Deserialize>(&mut self) -> Result<LineIn<T>, SimError> {
        use std::io::ErrorKind;
        // `read_until` keeps every byte it consumed in `buf`, even when the
        // call ends in an error; `read_line` would drop them if they ended
        // inside a UTF-8 character.
        match self.inner.read_until(b'\n', &mut self.buf) {
            Ok(0) => {
                if self.buf.trim_ascii().is_empty() {
                    Ok(LineIn::Eof)
                } else {
                    // Peer died mid-line: surface the torn message.
                    Err(SimError::Protocol {
                        what: format!("connection closed mid-message ({} bytes)", self.buf.len()),
                    })
                }
            }
            Ok(_) => {
                let bytes = std::mem::take(&mut self.buf);
                let line = String::from_utf8(bytes).map_err(|e| SimError::Protocol {
                    what: format!("message is not valid UTF-8: {e}"),
                })?;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    // Tolerate blank keep-alive lines.
                    return Ok(LineIn::Timeout);
                }
                let msg = serde_json::from_str::<T>(trimmed).map_err(|e| SimError::Protocol {
                    what: format!("malformed message ({e}): {trimmed}"),
                })?;
                Ok(LineIn::Msg(msg))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(LineIn::Timeout)
            }
            Err(e) => Err(SimError::Io { what: format!("read message: {e}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_sim::runner::{ConfigKind, MachineConfig};
    use save_sim::CellSpec;

    fn spec() -> CellSpec {
        use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
        let w = GemmWorkload::dense(
            "wire",
            GemmKernelSpec {
                m_tiles: 2,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            8,
            1,
        );
        CellSpec::new(w, ConfigKind::Save2Vpu, MachineConfig::default(), 42)
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Hello,
            Request::Status,
            Request::Drain,
            Request::Submit {
                name: "fig14".into(),
                cells: vec![NamedCell {
                    label: "cell(0.5,0.5)".into(),
                    spec: spec(),
                    fault: Some(Fault::KillWorker),
                }],
            },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            write_line(&mut wire, r).unwrap();
        }
        let mut lr = LineReader::new(&wire[..]);
        for want in &reqs {
            match lr.read::<Request>().unwrap() {
                LineIn::Msg(got) => {
                    assert_eq!(serde_json::to_string(&got).unwrap(), serde_json::to_string(want).unwrap())
                }
                other => panic!("expected message, got {other:?}"),
            }
        }
        assert!(matches!(lr.read::<Request>().unwrap(), LineIn::Eof));
    }

    #[test]
    fn torn_final_message_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_line(&mut wire, &Request::Hello).unwrap();
        wire.extend_from_slice(b"{\"Submit\":{\"na"); // no newline, then EOF
        let mut lr = LineReader::new(&wire[..]);
        assert!(matches!(lr.read::<Request>().unwrap(), LineIn::Msg(Request::Hello)));
        let err = lr.read::<Request>().unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    /// A reader that hands out scripted chunks; `None` is a read timeout.
    struct Chunked(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(chunk)) => {
                    out[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn timeout_inside_a_multibyte_character_keeps_the_message() {
        let mut wire = Vec::new();
        write_line(&mut wire, &Request::Submit { name: "jéb".into(), cells: vec![] }).unwrap();
        // Split right after the first byte of the two-byte 'é' (0xC3 0xA9).
        let split = wire.iter().position(|&b| b == 0xC3).unwrap() + 1;
        let chunks = [Some(wire[..split].to_vec()), None, Some(wire[split..].to_vec())];
        let mut lr = LineReader::new(Chunked(chunks.into_iter().collect()));
        assert!(matches!(lr.read::<Request>().unwrap(), LineIn::Timeout));
        match lr.read::<Request>().unwrap() {
            LineIn::Msg(Request::Submit { name, cells }) => {
                assert_eq!(name, "jéb");
                assert!(cells.is_empty());
            }
            other => panic!("expected the Submit, got {other:?}"),
        }
        assert!(matches!(lr.read::<Request>().unwrap(), LineIn::Eof));
    }

    /// A sink that keeps the bytes of each `write` call separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_a_single_write_ending_in_newline() {
        let cell = NamedCell { label: "one".into(), spec: spec(), fault: None };
        let mut log = WriteLog::default();
        write_line(&mut log, &Request::Submit { name: "framing".into(), cells: vec![cell] })
            .unwrap();
        write_line(&mut log, &Response::Draining).unwrap();
        write_line(&mut log, &Response::Error { what: "bad".into() }).unwrap();
        assert_eq!(log.0.len(), 3, "one write call per message");
        for bytes in &log.0 {
            assert_eq!(bytes.last(), Some(&b'\n'));
            assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
        }
    }

    #[test]
    fn malformed_line_is_a_protocol_error() {
        let not_json: &[u8] = b"this is not json\n";
        let not_utf8: &[u8] = b"{\"Submit\":{\"name\":\"\xFF\",\"cells\":[]}}\n";
        for wire in [not_json, not_utf8] {
            let mut lr = LineReader::new(wire);
            let err = lr.read::<Request>().unwrap_err();
            assert_eq!(err.kind(), "protocol");
            assert_eq!(err.retry_class(), save_sim::RetryClass::Permanent);
        }
    }
}
