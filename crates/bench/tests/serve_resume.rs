//! A batch answered by a save-serve daemon is journaled in the session's
//! result store, so a later session resumes it with no daemon at all:
//! same bits, nothing executed.

use save_bench::{BenchCli, CommandArgs, SweepSession};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_serve::{Client, ServeConfig};
use save_sim::{CancelToken, CellSpec, ConfigKind, MachineConfig, Surface};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("save-serve-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Baseline and SAVE cells over a 2x2 sparsity grid.
fn batch() -> Vec<(String, CellSpec)> {
    let w = GemmWorkload::dense(
        "serve-resume",
        GemmKernelSpec {
            m_tiles: 2,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    );
    let mut cells = Vec::new();
    for (a, b) in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)] {
        for kind in [ConfigKind::Baseline, ConfigKind::Save2Vpu] {
            let spec = CellSpec::new(
                w.clone().with_sparsity(a, b),
                kind,
                MachineConfig::default(),
                Surface::point_seed(a, b),
            );
            cells.push((format!("{} a={a} b={b}", kind.label()), spec));
        }
    }
    cells
}

fn bits(secs: &[(f64, u64)]) -> Vec<(u64, u64)> {
    secs.iter().map(|&(s, cycles)| (s.to_bits(), cycles)).collect()
}

#[test]
fn served_batch_resumes_from_the_store_without_the_daemon() {
    let cache = tmpdir("daemon");
    let ckpt = tmpdir("session");
    let ckpt_arg = ckpt.display().to_string();
    let cells = batch();

    // An in-process daemon on a free port (it prints its address only to
    // stdout, so pick the port here).
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let cfg = ServeConfig {
        listen: addr.clone(),
        cache_dir: cache.clone(),
        workers: 2,
        install_signals: false,
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || save_serve::serve(&cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::connect(&addr) {
            Ok(c) => break c,
            Err(e) if Instant::now() >= deadline || daemon.is_finished() => {
                panic!("daemon did not come up on {addr}: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    };

    let cli = BenchCli::parse_from(["--serve", &addr, "--checkpoint-dir", &ckpt_arg], &CommandArgs::default()).unwrap();
    let mut served = SweepSession::durable("serve-resume", &cli, CancelToken::new()).unwrap();
    let first = served.spec_seconds_batch(&cells);
    assert_eq!(served.served(), cells.len(), "every cell answered by the daemon");
    assert!(served.is_clean(), "{}", served.report());
    drop(served);

    client.drain().unwrap();
    drop(client);
    assert_eq!(daemon.join().unwrap().unwrap(), 0, "drain exits 0");

    let cli = BenchCli::parse_from(["--checkpoint-dir", &ckpt_arg, "--resume"], &CommandArgs::default()).unwrap();
    let mut resumed = SweepSession::durable("serve-resume", &cli, CancelToken::new()).unwrap();
    let second = resumed.spec_seconds_batch(&cells);
    assert_eq!(resumed.resumed(), cells.len(), "every cell restored, none executed");
    assert_eq!(resumed.served(), 0);
    assert!(resumed.is_clean(), "{}", resumed.report());
    assert_eq!(bits(&second), bits(&first), "resumed bits equal the daemon's");

    let local: Vec<(f64, u64)> = cells
        .iter()
        .map(|(_, s)| s.run(None).unwrap())
        .map(|r| (r.seconds, r.cycles))
        .collect();
    assert_eq!(bits(&first), bits(&local), "the daemon's bits equal a local run's");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&ckpt);
}
