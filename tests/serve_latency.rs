//! Request latency through save-serve: a round trip costs the work it asks
//! for, not TCP timers.
//!
//! A protocol line split across two writes on a socket with Nagle's
//! algorithm on waits for the peer's delayed ACK (at least 40 ms) before
//! its tail is sent — once on the request, once on the response. These
//! tests hold latency far below that floor for requests that do no
//! simulation: a `Status` round trip and a job served entirely from the
//! memo cache.

use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, MachineConfig, SimError};
use save_serve::{Client, NamedCell, ServeConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An in-process daemon on a free port, with one connected client.
struct Daemon {
    client: Client,
    thread: JoinHandle<Result<u8, SimError>>,
    cache_dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let cache_dir =
            std::env::temp_dir().join(format!("save-serve-latency-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        // The daemon prints its address only to stdout, so pick a free port
        // here and hand it over.
        let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let addr = format!("127.0.0.1:{port}");
        let cfg = ServeConfig {
            listen: addr.clone(),
            cache_dir: cache_dir.clone(),
            workers: 2,
            install_signals: false,
            ..ServeConfig::default()
        };
        let thread = std::thread::spawn(move || save_serve::serve(&cfg));
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect(&addr) {
                Ok(c) => break c,
                Err(e) if Instant::now() >= deadline || thread.is_finished() => {
                    panic!("daemon did not come up on {addr}: {e}")
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        Daemon { client, thread, cache_dir }
    }

    fn stop(mut self) {
        self.client.drain().unwrap();
        drop(self.client);
        assert_eq!(self.thread.join().unwrap().unwrap(), 0, "drain exits 0");
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[test]
fn status_round_trip_is_not_held_by_nagle() {
    let mut daemon = Daemon::start("status");
    let mut rtts: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            daemon.client.status().unwrap();
            ms(t.elapsed())
        })
        .collect();
    rtts.sort_by(f64::total_cmp);
    let median = rtts[rtts.len() / 2];
    assert!(median < 10.0, "median Status round trip {median:.2} ms (all: {rtts:?})");
    daemon.stop();
}

#[test]
fn fully_cached_job_returns_without_tcp_delays() {
    let spec = GemmKernelSpec {
        m_tiles: 2,
        n_vecs: 2,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let w = GemmWorkload::dense("latency", spec, 16, 1).with_sparsity(0.5, 0.5);
    let cells: Vec<NamedCell> = (0..16)
        .map(|i| NamedCell {
            label: format!("cell-{i}"),
            spec: CellSpec::new(w.clone(), ConfigKind::Save2Vpu, MachineConfig::default(), 7 + i),
            fault: None,
        })
        .collect();

    let mut daemon = Daemon::start("cached");
    let mut first = vec![0u64; cells.len()];
    let done = daemon
        .client
        .submit("fresh", &cells, |r| {
            assert!(r.ok(), "cell {} failed: {}", r.label, r.error_kind);
            first[r.index as usize] = r.secs_bits;
        })
        .unwrap();
    assert_eq!((done.ok, done.cached), (cells.len(), 0));

    // Best of three resubmissions, so one scheduling hiccup on a loaded
    // host does not fail the test; the Nagle stall hits every submission.
    let mut best = f64::INFINITY;
    for round in 0..3 {
        let mut again = vec![0u64; cells.len()];
        let t = Instant::now();
        let done = daemon
            .client
            .submit(&format!("hits-{round}"), &cells, |r| again[r.index as usize] = r.secs_bits)
            .unwrap();
        best = best.min(ms(t.elapsed()));
        assert_eq!(done.cached, cells.len(), "resubmission is served from the memo cache");
        assert_eq!(again, first, "cache hits are bit-identical to the first run");
    }
    assert!(best < 40.0, "fully cached 16-cell job took {best:.2} ms");
    daemon.stop();
}
