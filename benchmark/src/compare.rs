//! `compare PARENT CHANGE`: judges two sets of runs against the bounds the
//! benchmark fixes.
//!
//! Each side is a directory holding `results.json` files (at any depth up
//! to three levels, e.g. a checkout's `benchmark/out`). Runs pair up in the
//! order of their run ids, which start with their start time. For every
//! workload and end-to-end metric the verdict is:
//!
//! * `unresolved` — either side's run-to-run spread (interquartile range
//!   over median) exceeds the metric's bound (and, for `setup_s`, its
//!   interquartile range exceeds the absolute floor), unless every change
//!   run beats every parent run;
//! * `worse` — the change's median is worse than the parent's by more than
//!   the bound (and, for `setup_s`, by more than its absolute floor);
//! * `better` — the change wins at least 9 of every 10 pairs and the
//!   medians differ by more than the parent's own interquartile range;
//! * `same` — otherwise.
//!
//! `fail_frac` (failed over attempted operations) is `worse` on any rise.

use crate::metrics::{self, Better, EndToEnd, END_TO_END};
use crate::run::Results;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A metric's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond noise.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Judged {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// Judges `change` runs against `parent` runs of metric `m` (one value per
/// run, in pairing order).
pub fn judge(m: &EndToEnd, parent: &[f64], change: &[f64]) -> Judged {
    let (p, c) = (stats::quartiles(parent), stats::quartiles(change));
    let sign = if m.better == Better::Higher {
        1.0
    } else {
        -1.0
    };
    let beats = |x: f64, y: f64| sign * (x - y) > 0.0;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p))
        .count();
    let all_beat =
        !change.is_empty() && change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let spread = stats::rel_spread(parent).max(stats::rel_spread(change));
    let spread_abs = (p[2] - p[0]).max(c[2] - c[0]);
    // Positive when the change is worse.
    let worse_abs = sign * (p[1] - c[1]);
    let worse_rel = if p[1] == 0.0 {
        0.0
    } else {
        worse_abs / p[1].abs()
    };
    let verdict = if m.bound == 0.0 {
        // Exact metrics: any rise is a regression.
        match worse_abs.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        }
    } else if spread > m.bound && spread_abs > m.abs_floor && !all_beat {
        Verdict::Unresolved
    } else if worse_rel > m.bound && worse_abs > m.abs_floor {
        Verdict::Worse
    } else if worse_abs < 0.0 && pairs > 0 && wins * 10 >= pairs * 9 && -worse_abs > p[2] - p[0] {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Judged {
        verdict,
        parent: p,
        change: c,
        wins,
        pairs,
    }
}

/// Collects every `results.json` under `dir`, down to `depth` levels.
fn find_results(dir: &Path, depth: usize, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() && depth > 0 {
            find_results(&path, depth - 1, out)?;
        } else if path.file_name().is_some_and(|n| n == "results.json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Per (workload, metric): one value per run, in run order. `fail_frac`
/// holds a single value, failed over attempted operations across all runs,
/// so one failing run among many still shows.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Series, String> {
    let mut files = Vec::new();
    if dir.is_file() {
        files.push(dir.to_path_buf());
    } else {
        find_results(dir, 3, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut runs: Vec<Results> = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        runs.push(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    if runs.is_empty() {
        return Err(format!("no results.json under {}", dir.display()));
    }
    runs.sort_by(|a, b| a.run.cmp(&b.run));
    let mut series = Series::new();
    let mut ops: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in runs.iter().flat_map(|r| &r.workloads) {
        let o = ops.entry(r.workload.clone()).or_default();
        o.0 += r.attempted;
        o.1 += r.failed;
        for m in r
            .metrics
            .iter()
            .filter(|m| metrics::end_to_end(&m.name).is_some())
        {
            series
                .entry((r.workload.clone(), m.name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    for (w, (attempted, failed)) in ops {
        let frac = if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        };
        series.insert((w, metrics::FAIL_FRAC.name.to_string()), vec![frac]);
    }
    Ok(series)
}

fn fmt_q(q: &[f64; 3], n: usize) -> String {
    format!("{:.4} [{:.4}, {:.4}] n={n}", q[1], q[0], q[2])
}

/// Prints the comparison; returns whether any metric was worse or
/// unresolved.
pub fn report(parent: &Path, change: &Path) -> Result<bool, String> {
    let ps = load(parent)?;
    let cs = load(change)?;
    let mut workloads: Vec<&String> = ps.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "{:<9} {:<15} {:<40} {:<40} {:<34} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "change/parent (base)",
        "wins"
    );
    let mut flagged = false;
    for w in workloads {
        let mut bad = Vec::new();
        for m in END_TO_END.iter().chain([&metrics::FAIL_FRAC]) {
            let key = (w.clone(), m.name.to_string());
            let (Some(p), Some(c)) = (ps.get(&key), cs.get(&key)) else {
                continue;
            };
            let j = judge(m, p, c);
            let ratio = if j.parent[1] == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.3}", j.change[1] / j.parent[1])
            };
            let base = format!("{ratio} (base {:.4} {})", j.parent[1], m.unit);
            println!(
                "{:<9} {:<15} {:<40} {:<40} {:<34} {:>6}  {}",
                w,
                m.name,
                fmt_q(&j.parent, p.len()),
                fmt_q(&j.change, c.len()),
                base,
                format!("{}/{}", j.wins, j.pairs),
                j.verdict.as_str()
            );
            if matches!(j.verdict, Verdict::Worse | Verdict::Unresolved) {
                bad.push(format!("{} {}", m.name, j.verdict.as_str()));
            }
        }
        println!(
            "{w}: {}",
            if bad.is_empty() {
                "no regression".to_string()
            } else {
                bad.join(", ")
            }
        );
        flagged |= !bad.is_empty();
    }
    Ok(flagged)
}

/// `compare PARENT CHANGE`.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("save-benchmark: compare needs two paths\n{}", crate::USAGE);
        return ExitCode::from(2);
    };
    match report(Path::new(parent), Path::new(change)) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("save-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> EndToEnd {
        metrics::end_to_end(name).expect("known metric")
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - 4.5)))
            .collect()
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        // A 20% slowdown against a 10% bound ...
        let tight = EndToEnd {
            bound: 0.10,
            ..metric("sim_kcyc_per_s")
        };
        let j = judge(&tight, &runs(1000.0), &runs(800.0));
        assert_eq!(j.verdict, Verdict::Worse);
        assert_eq!(j.wins, 0);
        // ... is within the benchmark's own 25% bound; 30% is not.
        assert_eq!(
            judge(&metric("sim_kcyc_per_s"), &runs(1000.0), &runs(800.0)).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&metric("sim_kcyc_per_s"), &runs(1000.0), &runs(700.0)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric("cell_p50_ms"), &runs(20.0), &runs(26.0)).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 700.0 } else { 1300.0 })
            .collect();
        let j = judge(&metric("sim_kcyc_per_s"), &runs(1000.0), &noisy);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let faster: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1400.0 } else { 2600.0 })
            .collect();
        assert_eq!(
            judge(&metric("sim_kcyc_per_s"), &runs(1000.0), &faster).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn noise_is_same_and_a_clear_gain_is_better() {
        let m = metric("sim_kcyc_per_s");
        assert_eq!(
            judge(&m, &runs(1000.0), &runs(1001.0)).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&m, &runs(1000.0), &runs(1050.0)).verdict,
            Verdict::Better
        );
        // Lower-is-better metrics mirror it.
        assert_eq!(
            judge(&metric("cell_p90_ms"), &runs(20.0), &runs(18.0)).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn set_up_time_has_an_absolute_floor() {
        let m = metric("setup_s");
        // 50% slower but only 0.01 s: below the floor.
        assert_eq!(judge(&m, &runs(0.02), &runs(0.03)).verdict, Verdict::Same);
        // A wide relative spread of a few milliseconds is not unresolved.
        let jittery = [0.010, 0.010, 0.020, 0.020, 0.010, 0.020];
        assert_eq!(judge(&m, &runs(0.015), &jittery).verdict, Verdict::Same);
        assert_eq!(judge(&m, &runs(0.5), &runs(0.8)).verdict, Verdict::Worse);
    }

    #[test]
    fn any_rise_in_failures_is_worse() {
        let m = metrics::FAIL_FRAC;
        assert_eq!(judge(&m, &[0.0], &[0.001]).verdict, Verdict::Worse);
        assert_eq!(judge(&m, &[0.0], &[0.0]).verdict, Verdict::Same);
    }
}
