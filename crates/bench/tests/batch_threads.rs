//! A figure batch resolves its local cells in parallel on `--threads`
//! workers, then settles them in submission order. This test pins that
//! the thread count changes nothing a figure reports: not its numbers,
//! not its job, failure or resume counts, and not what a checkpointed
//! batch restores when it is resumed on a different thread count.

use save_bench::figures::{Figure, Report};
use save_bench::{BenchCli, SweepSession};
use save_sim::{CancelToken, ResultStore};

/// Every row of every table, named "title / label", with its value bits.
fn bits(report: &Report) -> Vec<(String, Vec<u64>)> {
    let rows = report.tables.iter().flat_map(|t| t.rows.iter().map(move |r| (t, r)));
    rows.map(|(t, r)| {
        (format!("{} / {}", t.title, r.label), r.values.iter().map(|v| v.to_bits()).collect())
    })
    .collect()
}

/// Runs fig19 at `--quick` in a durable session built from `args`; returns
/// its value bits and the session's (jobs, failures, resumed) counts.
fn run_fig19(args: &[&str]) -> (Vec<(String, Vec<u64>)>, [usize; 3]) {
    let cli = BenchCli::parse_from(["--quick"].iter().chain(args).copied()).expect("flags parse");
    let mut session =
        SweepSession::durable("fig19", &cli, CancelToken::new()).expect("session opens");
    let report = Figure::build("fig19", &cli).expect("fig19 builds").run(&mut session);
    let r = session.report();
    (bits(&report), [r.total_jobs, r.failures.len(), session.resumed()])
}

#[test]
fn figure_batch_is_independent_of_thread_count() {
    let dir = std::env::temp_dir().join(format!("save-bench-batch-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.display().to_string();
    let journal = || std::fs::read_to_string(ResultStore::journal_path(&dir)).expect("journal");

    let (one, one_counts) = run_fig19(&["--threads", "1"]);
    let (two, two_counts) = run_fig19(&["--threads", "2", "--checkpoint-dir", &ck]);
    assert_eq!(one_counts, two_counts, "(jobs, failures, resumed) at 1 and 2 threads");
    let [unique, failures, resumed] = two_counts;
    assert_eq!((failures, resumed), (0, 0), "every fig19 cell succeeds and runs");
    assert_eq!(one, two, "fig19 at --threads 1 and --threads 2");
    let written = journal();
    assert_eq!(written.lines().count(), unique, "one record per unique cell");

    // Resumed on the other thread count, the batch restores every cell
    // from the store and executes nothing. The store files each record
    // under its cell's key, so this also catches results settled onto the
    // wrong cells, which both fresh runs would share.
    let (restored, counts) = run_fig19(&["--threads", "1", "--checkpoint-dir", &ck, "--resume"]);
    assert_eq!(counts, [unique, 0, unique], "every unique cell restored");
    assert_eq!(journal(), written, "a resume that executes nothing appends nothing");
    assert_eq!(restored, two, "restored fig19 matches the fresh runs");
    let _ = std::fs::remove_dir_all(&dir);
}
