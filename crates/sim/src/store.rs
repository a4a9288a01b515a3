//! The result store: one content-addressed journal of finished cells.
//!
//! Every cell this repository simulates — a surface-sweep grid point, a
//! figure binary's batch cell, an estimator surface point, a `save-serve`
//! job — is a [`crate::CellSpec`], and its result is filed under
//! [`crate::CellSpec::cache_key`], a content hash over everything that can
//! change the answer (DESIGN.md §5f). A store is a directory holding one
//! file, `journal.jsonl`: one [`CellRecord`] JSON line per finished cell,
//! appended and flushed as the cell finishes. Timing results are stored as
//! [`f64::to_bits`] (`secs_bits`), so a restored cell is **bit-identical**
//! to a re-execution: no decimal round-trip is involved, and the vendored
//! JSON layer keeps integer literals as text.
//!
//! There is no manifest. Keys are content hashes, so two different sweeps
//! that share a directory can only ever share identical cells — and a
//! daemon's cache directory is a valid `--checkpoint-dir` for a local
//! sweep of the same cells.
//!
//! **Finality.** Successes and *permanent* failures (verify-mismatch,
//! invalid-config, …) satisfy lookups: re-running them would give the same
//! answer. *Transient* failure records (deadline, worker-lost, …) are kept
//! as history but do not satisfy lookups, so the next request for that key
//! recomputes — a resume with a longer `--cell-deadline` retries cells that
//! overran the old one. Classification is
//! [`SimError::retry_class_of_kind`]; unknown kinds recompute. When a key
//! has several records, the **latest record wins**.
//!
//! **Concurrency.** [`ResultStore::claim`] hands a key to at most one
//! thread at a time; every other claimant waits for that computation and
//! is served its record (`tests/cache_contention.rs` in `save-serve` pins
//! exactly one computation per key across racing threads).
//!
//! **Crash tolerance.** A process killed mid-append (SIGKILL) can leave at
//! most one truncated line at the *end* of the journal; [`ResultStore::open`]
//! repairs that tail before appending (the torn cell is simply recomputed),
//! while a malformed line anywhere else — which no crash can produce — is
//! reported as corruption. [`fsck_journal`] audits a journal offline.

use crate::cancel::CancelToken;
use crate::error::{RetryClass, SimError};
use crate::runner::KernelResult;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One finished cell, as journaled. `secs_bits` is the cell's measured
/// seconds as raw IEEE-754 bits; failed cells journal `f64::NAN`'s bits
/// together with the error kind.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// The cell's [`crate::CellSpec::cache_key`].
    pub cell: u64,
    /// `f64::to_bits` of the cell's seconds value (NaN bits on failure).
    pub secs_bits: u64,
    /// Simulated cycles the cell consumed (0 on failure).
    pub cycles: u64,
    /// How many attempts the cell took (1 = first try).
    pub attempts: u32,
    /// `SimError::kind()` tag when the cell ultimately failed, else empty.
    #[serde(default)]
    pub error_kind: String,
}

impl CellRecord {
    /// The record of a cell that completed with `result`.
    pub fn success(key: u64, result: &KernelResult, attempts: u32) -> Self {
        CellRecord {
            cell: key,
            secs_bits: result.seconds.to_bits(),
            cycles: result.cycles,
            attempts,
            error_kind: String::new(),
        }
    }

    /// The record of a cell that failed with `error`.
    pub fn failure(key: u64, error: &SimError, attempts: u32) -> Self {
        CellRecord {
            cell: key,
            secs_bits: f64::NAN.to_bits(),
            cycles: 0,
            attempts,
            error_kind: error.kind().to_string(),
        }
    }

    /// The journaled seconds value.
    pub fn secs(&self) -> f64 {
        f64::from_bits(self.secs_bits)
    }

    /// Whether the cell completed successfully.
    pub fn ok(&self) -> bool {
        self.error_kind.is_empty()
    }

    /// The failure a served record stands for (`None` for a success). The
    /// original error is gone; its kind is kept in the message.
    pub fn error(&self) -> Option<SimError> {
        (!self.ok()).then(|| SimError::Io {
            what: format!("journaled failure from a previous run (kind: {})", self.error_kind),
        })
    }

    /// Whether the record satisfies lookups (see the module docs).
    fn is_final(&self) -> bool {
        self.ok()
            || matches!(
                SimError::retry_class_of_kind(&self.error_kind),
                Some(RetryClass::Permanent)
            )
    }
}

/// Outcome of [`ResultStore::claim`].
#[derive(Debug)]
pub enum Claim {
    /// A final record exists; serve it without re-simulation.
    Hit(CellRecord),
    /// The caller now owns the key and must call
    /// [`ResultStore::complete`] or [`ResultStore::release`].
    Compute,
    /// Cancelled while waiting for another thread's computation.
    Cancelled,
}

struct Inner {
    journal: File,
    done: HashMap<u64, CellRecord>,
    in_flight: HashSet<u64>,
}

/// An open result store (see the module docs).
pub struct ResultStore {
    dir: PathBuf,
    recovered: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

fn io_err(what: impl std::fmt::Display) -> SimError {
    SimError::Io { what: what.to_string() }
}

impl ResultStore {
    /// Path of the journal file inside `dir`.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("journal.jsonl")
    }

    /// Opens (creating if needed) the store at `dir`.
    ///
    /// * With `resume`, the journal's tail is repaired and every record is
    ///   loaded, so finished cells are served instead of recomputed.
    /// * Without `resume`, a non-empty journal is refused — overwriting it
    ///   would silently discard finished work; the caller must pass
    ///   `--resume` or point at a fresh directory. The `save-serve` daemon
    ///   always resumes.
    pub fn open(dir: &Path, resume: bool) -> Result<Self, SimError> {
        fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("create result store {}: {e}", dir.display())))?;
        let path = Self::journal_path(dir);
        let journal_len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if !resume && journal_len > 0 {
            return Err(io_err(format!(
                "{} already has a journal with finished cells; pass --resume to \
                 continue it or choose a fresh --checkpoint-dir",
                dir.display(),
            )));
        }
        let mut done = HashMap::new();
        if journal_len > 0 {
            // Repair the tail *before* opening the append handle: otherwise
            // the first new record would be glued onto whatever debris the
            // previous crash left on the final line, turning a tolerated
            // torn tail into interior corruption on the *next* open.
            let scan = scan_journal(&path)?;
            repair_tail(&path, &scan.tail)?;
            // A later record for the same cell wins: retries append a fresh
            // record rather than rewriting history.
            done.extend(scan.complete().map(|rec| (rec.cell, rec)));
        }
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(format!("open {}: {e}", path.display())))?;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            recovered: done.len(),
            inner: Mutex::new(Inner { journal, done, in_flight: HashSet::new() }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("result store poisoned")
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of distinct keys with a record (final or not).
    pub fn records(&self) -> usize {
        self.lock().done.len()
    }

    /// Number of distinct keys loaded from the journal at open time.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// The final record for `key`, if any (transient failures are not
    /// final; see the module docs).
    pub fn lookup(&self, key: u64) -> Option<CellRecord> {
        self.lock().done.get(&key).filter(|r| r.is_final()).cloned()
    }

    /// Looks `key` up, claiming it for computation on a miss. If another
    /// thread holds the claim, blocks until that computation finishes
    /// (then serves its record, or claims if the record was transient) or
    /// until `cancel` latches.
    pub fn claim(&self, key: u64, cancel: &CancelToken) -> Claim {
        let mut g = self.lock();
        loop {
            if let Some(rec) = g.done.get(&key).filter(|r| r.is_final()) {
                return Claim::Hit(rec.clone());
            }
            if g.in_flight.insert(key) {
                return Claim::Compute;
            }
            if cancel.is_cancelled() {
                return Claim::Cancelled;
            }
            g = self
                .cv
                .wait_timeout(g, Duration::from_millis(25))
                .expect("result store poisoned")
                .0;
        }
    }

    /// Journals `rec` (keyed by `rec.cell`), releases the claim, and wakes
    /// waiters. Call for successes *and* failures — transient failure
    /// records become history without satisfying future lookups.
    pub fn complete(&self, rec: CellRecord) -> Result<(), SimError> {
        let mut g = self.lock();
        g.in_flight.remove(&rec.cell);
        let r = append(&mut g, rec);
        self.cv.notify_all();
        r
    }

    /// Releases a claim without journaling anything — for a computation
    /// that was cancelled: there is no result to remember, and the cell
    /// recomputes on the next request.
    pub fn release(&self, key: u64) {
        self.lock().in_flight.remove(&key);
        self.cv.notify_all();
    }

    /// Journals a record *without* touching any claim: results computed
    /// elsewhere (a daemon's answer to a session), or the `worker-lost`
    /// event a daemon worker leaves for a cell it requeues after a crash
    /// (the crash came before the key was claimed, so no claim is held).
    pub fn record(&self, rec: CellRecord) -> Result<(), SimError> {
        append(&mut self.lock(), rec)
    }
}

/// Appends `rec` to the journal and flushes it to the OS, so the record
/// survives any subsequent process death; then files it in memory.
fn append(inner: &mut Inner, rec: CellRecord) -> Result<(), SimError> {
    let mut line =
        serde_json::to_string(&rec).map_err(|e| io_err(format!("serialize record: {e}")))?;
    line.push('\n');
    inner
        .journal
        .write_all(line.as_bytes())
        .and_then(|()| inner.journal.flush())
        .map_err(|e| io_err(format!("append journal: {e}")))?;
    inner.done.insert(rec.cell, rec);
    Ok(())
}

/// What follows a journal's last `\n`.
enum Tail {
    /// Nothing: the file ends on a line break (or is empty).
    Clean,
    /// A complete record missing only its `\n` — the crash landed between
    /// the record bytes and the terminator. It is kept and terminated.
    Unterminated(CellRecord),
    /// A partial record torn by a crash mid-append: `bytes` bytes from
    /// offset `at`. It is truncated away, and the cell re-runs.
    Torn { at: u64, bytes: u64 },
}

/// A journal as read from disk by [`scan_journal`].
struct Scan {
    /// The records on `\n`-terminated lines, in file order.
    records: Vec<CellRecord>,
    tail: Tail,
}

impl Scan {
    /// Every complete record in file order, the unterminated tail one last.
    fn complete(self) -> impl Iterator<Item = CellRecord> {
        let tail = if let Tail::Unterminated(rec) = self.tail { Some(rec) } else { None };
        self.records.into_iter().chain(tail)
    }
}

/// Reads and parses the journal at `path` once. Only the final line may be
/// damaged: a malformed line anywhere else cannot come from a crash and is
/// a corruption error.
fn scan_journal(path: &Path) -> Result<Scan, SimError> {
    let text =
        fs::read_to_string(path).map_err(|e| io_err(format!("read {}: {e}", path.display())))?;
    let (terminated, tail) = match text.rfind('\n') {
        Some(i) => text.split_at(i + 1),
        None => ("", text.as_str()),
    };
    let mut records = Vec::new();
    for (i, line) in terminated.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(serde_json::from_str(line).map_err(|e| {
            io_err(format!(
                "corrupt journal {}: line {} is malformed ({e}); only the final \
                 line may be damaged by a crash, so this journal needs manual \
                 triage, not a tail repair",
                path.display(),
                i + 1,
            ))
        })?);
    }
    let tail = if tail.is_empty() {
        Tail::Clean
    } else if let Ok(rec) = serde_json::from_str(tail) {
        Tail::Unterminated(rec)
    } else {
        Tail::Torn { at: terminated.len() as u64, bytes: tail.len() as u64 }
    };
    Ok(Scan { records, tail })
}

/// Repairs a journal's `tail` in place so subsequent appends always start
/// on a fresh line: a torn partial record is truncated away, a complete
/// unterminated one is terminated. Returns whether the file changed.
fn repair_tail(path: &Path, tail: &Tail) -> Result<bool, SimError> {
    if let Tail::Clean = tail {
        return Ok(false);
    }
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(format!("open {}: {e}", path.display())))?;
    match *tail {
        Tail::Torn { at, .. } => f
            .set_len(at)
            .map_err(|e| io_err(format!("truncate torn tail of {}: {e}", path.display())))?,
        _ => f
            .write_all(b"\n")
            .and_then(|()| f.flush())
            .map_err(|e| io_err(format!("terminate journal tail {}: {e}", path.display())))?,
    }
    Ok(true)
}

/// A cell with more than one journal record (retries append rather than
/// rewrite, so duplicates are normal after a flaky run). Reported by
/// [`fsck_journal`] so operators can see latest-record-wins in action.
#[derive(Clone, Debug, Serialize)]
pub struct DuplicateCell {
    /// Flat cell index.
    pub cell: u64,
    /// How many records the journal holds for it.
    pub records: usize,
    /// `error_kind` of the *winning* (latest) record; empty = succeeded.
    pub final_kind: String,
}

/// Outcome of [`fsck_journal`]: integrity findings plus what (if anything)
/// was repaired.
#[derive(Clone, Debug, Serialize)]
pub struct FsckReport {
    /// Journal path that was checked.
    pub path: String,
    /// Total well-formed records (including the unterminated-but-complete
    /// final record, if any).
    pub records: usize,
    /// Distinct cells covered after latest-record-wins collapsing.
    pub unique_cells: usize,
    /// Cells whose winning record is a failure (`error_kind` non-empty).
    pub failed_cells: usize,
    /// Cells with more than one record, ascending by cell index.
    pub duplicate_cells: Vec<DuplicateCell>,
    /// Bytes of torn partial record at the tail (0 when none).
    pub torn_tail_bytes: u64,
    /// Final record is complete JSON but missing its `\n` terminator.
    pub missing_terminator: bool,
    /// Whether a requested repair rewrote the tail.
    pub repaired: bool,
}

impl FsckReport {
    /// Whether the journal needs (or needed) a tail repair.
    pub fn dirty(&self) -> bool {
        self.torn_tail_bytes > 0 || self.missing_terminator
    }
}

/// Validates `path` as a cell journal and optionally repairs its tail.
///
/// * Well-formed records are tallied; duplicate cells are reported with
///   their latest-record-wins winner.
/// * A torn or unterminated *tail* is reported (and fixed when `repair`),
///   exactly as [`ResultStore::open`] does on resume.
/// * A malformed line anywhere *else* cannot come from a crash and is a
///   hard error — fsck refuses to guess which experiment the bytes
///   belonged to.
pub fn fsck_journal(path: &Path, repair: bool) -> Result<FsckReport, SimError> {
    let scan = scan_journal(path)?;
    let torn_tail_bytes = if let Tail::Torn { bytes, .. } = scan.tail { bytes } else { 0 };
    let missing_terminator = matches!(scan.tail, Tail::Unterminated(_));
    let repaired = repair && repair_tail(path, &scan.tail)?;

    let records = scan.records.len() + missing_terminator as usize;
    // cell -> (record count, latest error_kind).
    let mut per_cell: HashMap<u64, (usize, String)> = HashMap::new();
    for rec in scan.complete() {
        let entry = per_cell.entry(rec.cell).or_default();
        *entry = (entry.0 + 1, rec.error_kind);
    }

    let mut duplicate_cells: Vec<DuplicateCell> = per_cell
        .iter()
        .filter(|(_, (n, _))| *n > 1)
        .map(|(&cell, (n, kind))| DuplicateCell { cell, records: *n, final_kind: kind.clone() })
        .collect();
    duplicate_cells.sort_by_key(|d| d.cell);
    let failed_cells = per_cell.values().filter(|(_, kind)| !kind.is_empty()).count();

    Ok(FsckReport {
        path: path.display().to_string(),
        records,
        unique_cells: per_cell.len(),
        failed_cells,
        duplicate_cells,
        torn_tail_bytes,
        missing_terminator,
        repaired,
    })
}


#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("save-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn rec(cell: u64, secs: f64, cycles: u64, attempts: u32, kind: &str) -> CellRecord {
        CellRecord { cell, secs_bits: secs.to_bits(), cycles, attempts, error_kind: kind.into() }
    }

    fn append_raw(dir: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(ResultStore::journal_path(dir)).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn record_and_resume_round_trip_bits() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir, false).unwrap();
        let secs = 1.0_f64 / 3.0; // not representable exactly
        store.record(rec(2, secs, 987654321, 1, "")).unwrap();
        drop(store);

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 1);
        let r = store.lookup(2).expect("cell 2 journaled");
        assert_eq!(r.secs().to_bits(), secs.to_bits(), "bit-identical resume");
        assert_eq!(r.cycles, 987654321);
        assert!(r.ok());
        assert!(store.lookup(0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonempty_journal_without_resume_is_refused() {
        let dir = tmpdir("noresume");
        let store = ResultStore::open(&dir, false).unwrap();
        store.record(rec(0, 1.0, 1, 1, "")).unwrap();
        drop(store);
        let err = ResultStore::open(&dir, false).err().expect("refused");
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_tolerated_but_interior_corruption_is_not() {
        let dir = tmpdir("torn");
        let store = ResultStore::open(&dir, false).unwrap();
        for cell in 0..2u64 {
            store.record(rec(cell, cell as f64, cell, 1, "")).unwrap();
        }
        drop(store);

        // Simulate SIGKILL mid-append: a torn final line.
        append_raw(&dir, b"{\"cell\": 3, \"secs_b");
        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 2, "torn tail dropped, intact records kept");
        drop(store);

        // Interior corruption (cannot come from a crash) is a hard error.
        let jpath = ResultStore::journal_path(&dir);
        let text = fs::read_to_string(&jpath).unwrap();
        fs::write(&jpath, format!("garbage-not-json\n{text}")).unwrap();
        let err = ResultStore::open(&dir, true).err().expect("corruption refused");
        assert!(err.to_string().contains("corrupt journal"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Resuming over a torn tail must not glue the first new record onto
    /// the debris — tolerated on that resume, then fatal interior
    /// corruption on the next one. Repair keeps appends line-aligned
    /// across any number of crash/resume cycles.
    #[test]
    fn torn_tail_is_truncated_so_appends_stay_line_aligned() {
        let dir = tmpdir("repair-torn");
        let store = ResultStore::open(&dir, false).unwrap();
        store.record(rec(0, 0.5, 7, 1, "")).unwrap();
        drop(store);
        append_raw(&dir, b"{\"cell\": 3, \"secs_b");

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 1, "torn record dropped");
        store.record(rec(1, 1.5, 9, 1, "")).unwrap();
        drop(store);

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 2);
        assert_eq!(store.lookup(1).unwrap().secs(), 1.5);
        assert!(store.lookup(3).is_none(), "torn cell re-runs");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The zero-length torn-record case: the crash landed between writing
    /// the record bytes and the `\n` terminator. The record is complete
    /// and must be *kept* (terminator appended), not truncated away — and
    /// the next append must not fuse onto it.
    #[test]
    fn unterminated_complete_record_is_terminated_not_glued() {
        let dir = tmpdir("repair-unterm");
        let store = ResultStore::open(&dir, false).unwrap();
        for cell in 0..2u64 {
            store.record(rec(cell, cell as f64, cell, 1, "")).unwrap();
        }
        drop(store);
        // Strip the final newline: complete record, zero-length torn tail.
        let jpath = ResultStore::journal_path(&dir);
        let text = fs::read_to_string(&jpath).unwrap();
        assert!(text.ends_with('\n'));
        fs::write(&jpath, &text[..text.len() - 1]).unwrap();

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 2, "complete unterminated record kept");
        store.record(rec(2, 2.0, 2, 1, "")).unwrap();
        drop(store);

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 3, "no record lost, no line fused");
        for cell in 0..3u64 {
            assert_eq!(store.lookup(cell).unwrap().secs(), cell as f64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_duplicates_and_repairs_torn_tail() {
        let dir = tmpdir("fsck");
        let store = ResultStore::open(&dir, false).unwrap();
        store.record(rec(1, f64::NAN, 0, 1, "deadline")).unwrap();
        store.record(rec(1, 2.5, 10, 2, "")).unwrap();
        store.record(rec(2, f64::NAN, 0, 3, "cycle-budget")).unwrap();
        drop(store);
        append_raw(&dir, b"{\"cell\": 3,");
        let jpath = ResultStore::journal_path(&dir);

        let report = fsck_journal(&jpath, false).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.unique_cells, 2);
        assert_eq!(report.failed_cells, 1, "cell 1 healed by retry, cell 2 failed");
        assert_eq!(report.duplicate_cells.len(), 1);
        assert_eq!(report.duplicate_cells[0].cell, 1);
        assert_eq!(report.duplicate_cells[0].records, 2);
        assert_eq!(report.duplicate_cells[0].final_kind, "", "latest record wins");
        assert_eq!(report.torn_tail_bytes, 11);
        assert!(report.dirty() && !report.repaired, "validate-only leaves the file alone");

        let report = fsck_journal(&jpath, true).unwrap();
        assert!(report.repaired);
        let report = fsck_journal(&jpath, false).unwrap();
        assert!(!report.dirty(), "second fsck finds a clean journal");
        assert_eq!(report.records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_counts_unterminated_record_and_rejects_interior_corruption() {
        let dir = tmpdir("fsck-unterm");
        let store = ResultStore::open(&dir, false).unwrap();
        store.record(rec(0, 1.0, 1, 1, "")).unwrap();
        drop(store);
        let jpath = ResultStore::journal_path(&dir);
        let text = fs::read_to_string(&jpath).unwrap();
        fs::write(&jpath, &text[..text.len() - 1]).unwrap();

        let report = fsck_journal(&jpath, true).unwrap();
        assert_eq!(report.records, 1, "complete unterminated record counted");
        assert!(report.missing_terminator && report.repaired);

        fs::write(&jpath, format!("not-json\n{text}")).unwrap();
        let err = fsck_journal(&jpath, true).unwrap_err();
        assert!(err.to_string().contains("manual triage"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_cell_latest_record_wins() {
        let dir = tmpdir("latest");
        let store = ResultStore::open(&dir, false).unwrap();
        store.record(rec(1, f64::NAN, 0, 1, "deadline")).unwrap();
        store.record(rec(1, 2.5, 10, 2, "")).unwrap();
        drop(store);
        let store = ResultStore::open(&dir, true).unwrap();
        let r = store.lookup(1).unwrap();
        assert!(r.ok());
        assert_eq!(r.attempts, 2);
        assert_eq!(r.secs(), 2.5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_after_complete_and_across_reopen() {
        let dir = tmpdir("reopen");
        let store = ResultStore::open(&dir, true).unwrap();
        let tok = CancelToken::new();
        assert!(matches!(store.claim(7, &tok), Claim::Compute));
        store.complete(rec(7, 0.25, 100, 1, "")).unwrap();
        match store.claim(7, &tok) {
            Claim::Hit(r) => assert_eq!(r.secs(), 0.25),
            other => panic!("expected hit, got {other:?}"),
        }
        drop(store);

        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 1, "restart recovers journaled results");
        match store.claim(7, &tok) {
            Claim::Hit(r) => assert_eq!(r.secs(), 0.25),
            other => panic!("expected hit after reopen, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_failures_are_served_transient_ones_recompute() {
        let dir = tmpdir("final");
        let store = ResultStore::open(&dir, true).unwrap();
        let tok = CancelToken::new();

        assert!(matches!(store.claim(1, &tok), Claim::Compute));
        store.complete(rec(1, f64::NAN, 0, 1, "verify-mismatch")).unwrap();
        match store.claim(1, &tok) {
            Claim::Hit(r) => assert_eq!(r.error_kind, "verify-mismatch"),
            other => panic!("permanent failure should be served, got {other:?}"),
        }

        assert!(matches!(store.claim(2, &tok), Claim::Compute));
        store.complete(rec(2, f64::NAN, 0, 3, "deadline")).unwrap();
        assert!(
            matches!(store.claim(2, &tok), Claim::Compute),
            "transient failure must be recomputed, not served"
        );
        assert!(store.lookup(2).is_none(), "lookups follow the same rule");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiting_claim_is_cancellable() {
        let dir = tmpdir("cancel");
        let store = ResultStore::open(&dir, true).unwrap();
        let tok = CancelToken::new();
        assert!(matches!(store.claim(9, &tok), Claim::Compute));
        tok.cancel();
        assert!(matches!(store.claim(9, &tok), Claim::Cancelled));
        store.release(9);
        let _ = fs::remove_dir_all(&dir);
    }
}
