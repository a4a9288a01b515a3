//! Blocking client for the save-serve protocol.
//!
//! Used by the `save-bench` commands' `--serve ADDR` mode. Submission honours the
//! daemon's admission control: a `Rejected` answer is retried after the
//! hinted backoff, a bounded number of times, before surfacing
//! [`SimError::Overloaded`] to the caller — which the bench harness treats
//! as "degrade gracefully to local execution".

use crate::protocol::{
    write_line, CellResult, LineIn, LineReader, NamedCell, Request, Response, ServeStats,
    PROTOCOL_VERSION,
};
use save_sim::SimError;
use std::net::TcpStream;
use std::time::Duration;

/// How many `Rejected` answers a submission tolerates before giving up.
pub const MAX_REJECTIONS: u32 = 5;

/// Summary of one completed job (the daemon's `Done` message).
#[derive(Clone, Copy, Debug)]
pub struct JobDone {
    /// Cells that succeeded.
    pub ok: usize,
    /// Cells that ultimately failed.
    pub failed: usize,
    /// Cells served from the daemon's memo cache.
    pub cached: usize,
    /// Whether the job was cut short by daemon-side cancellation.
    pub cancelled: bool,
}

/// One connection to a save-serve daemon.
pub struct Client {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
}

fn io_err(what: impl std::fmt::Display) -> SimError {
    SimError::Io { what: what.to_string() }
}

impl Client {
    /// Connects and verifies the protocol version via `Hello`.
    pub fn connect(addr: &str) -> Result<Self, SimError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err(format!("connect {addr}: {e}")))?;
        // Requests are small single-write lines; don't let Nagle hold them
        // back waiting for an ACK (see the framing rules in `protocol`).
        stream.set_nodelay(true).map_err(|e| io_err(format!("set_nodelay: {e}")))?;
        let writer = stream.try_clone().map_err(|e| io_err(format!("clone stream: {e}")))?;
        let mut client = Client { reader: LineReader::new(stream), writer };
        let stats = client.hello()?;
        if stats.version != PROTOCOL_VERSION {
            return Err(SimError::Protocol {
                what: format!(
                    "daemon speaks protocol v{}, this client v{PROTOCOL_VERSION}",
                    stats.version
                ),
            });
        }
        Ok(client)
    }

    fn read_response(&mut self) -> Result<Response, SimError> {
        loop {
            match self.reader.read::<Response>()? {
                LineIn::Msg(r) => return Ok(r),
                LineIn::Timeout => continue,
                LineIn::Eof => {
                    return Err(SimError::Io { what: "daemon closed the connection".into() })
                }
            }
        }
    }

    fn hello(&mut self) -> Result<ServeStats, SimError> {
        write_line(&mut self.writer, &Request::Hello)?;
        match self.read_response()? {
            Response::Hello { stats } => Ok(stats),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Snapshot of daemon statistics.
    pub fn status(&mut self) -> Result<ServeStats, SimError> {
        write_line(&mut self.writer, &Request::Status)?;
        match self.read_response()? {
            Response::Status { stats } => Ok(stats),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Asks the daemon to drain (stop admitting, finish, exit 0).
    pub fn drain(&mut self) -> Result<(), SimError> {
        write_line(&mut self.writer, &Request::Drain)?;
        match self.read_response()? {
            Response::Draining => Ok(()),
            other => Err(unexpected("Draining", &other)),
        }
    }

    /// Submits a job and streams its results: `on_cell` is called once per
    /// cell in completion order. Admission rejections are retried with the
    /// daemon's backoff hint up to [`MAX_REJECTIONS`] times.
    pub fn submit(
        &mut self,
        name: &str,
        cells: &[NamedCell],
        mut on_cell: impl FnMut(&CellResult),
    ) -> Result<JobDone, SimError> {
        let mut rejections = 0u32;
        loop {
            write_line(
                &mut self.writer,
                &Request::Submit { name: name.to_string(), cells: cells.to_vec() },
            )?;
            match self.read_response()? {
                Response::Rejected { reason, retry_after_ms } => {
                    rejections += 1;
                    if rejections > MAX_REJECTIONS || retry_after_ms == 0 {
                        return Err(SimError::Overloaded { what: reason, retry_after_ms });
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(2000)));
                }
                Response::Accepted { .. } => break,
                Response::Error { what } => return Err(SimError::Protocol { what }),
                other => return Err(unexpected("Accepted/Rejected", &other)),
            }
        }
        loop {
            match self.read_response()? {
                Response::Cell { result } => on_cell(&result),
                Response::Done { ok, failed, cached, cancelled, .. } => {
                    return Ok(JobDone { ok, failed, cached, cancelled })
                }
                Response::Error { what } => return Err(SimError::Protocol { what }),
                other => return Err(unexpected("Cell/Done", &other)),
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> SimError {
    SimError::Protocol {
        what: format!(
            "expected {wanted}, got {}",
            serde_json::to_string(got).unwrap_or_else(|_| "<unprintable>".into())
        ),
    }
}
