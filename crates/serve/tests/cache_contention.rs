//! Contention contract of the result store: N racing threads submitting
//! overlapping keys must trigger **exactly one** computation per unique
//! key — everyone else waits and is served the journaled record.

use save_sim::{CancelToken, CellRecord, Claim, ResultStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 5;
const THREADS: usize = 8;

fn expected_bits(key: u64) -> u64 {
    (key as f64 * 0.5 + 0.125).to_bits()
}

#[test]
fn contended_cache_computes_each_key_exactly_once() {
    let dir =
        std::env::temp_dir().join(format!("save-serve-contention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultStore::open(&dir, true).unwrap());
    let computes: Arc<Vec<AtomicUsize>> =
        Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        let computes = Arc::clone(&computes);
        handles.push(std::thread::spawn(move || {
            let tok = CancelToken::new();
            // Each thread visits every key, but starting at a different
            // offset so claims overlap heavily.
            for i in 0..KEYS {
                let key = (i + t as u64) % KEYS;
                match cache.claim(key, &tok) {
                    Claim::Compute => {
                        computes[key as usize].fetch_add(1, Ordering::SeqCst);
                        // Hold the claim long enough for other threads to
                        // pile up behind it.
                        std::thread::sleep(Duration::from_millis(10));
                        cache
                            .complete(CellRecord {
                                cell: key,
                                secs_bits: expected_bits(key),
                                cycles: key,
                                attempts: 1,
                                error_kind: String::new(),
                            })
                            .unwrap();
                    }
                    Claim::Hit(rec) => {
                        assert_eq!(
                            rec.secs_bits,
                            expected_bits(key),
                            "a hit must serve the bits the single computation recorded"
                        );
                    }
                    Claim::Cancelled => panic!("nothing cancels in this test"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for (k, c) in computes.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "key {k} must be computed exactly once");
    }
    assert_eq!(cache.records(), KEYS as usize);
    let _ = std::fs::remove_dir_all(&dir);
}
