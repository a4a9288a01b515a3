//! 2-D sparsity-surface sweeps and bilinear interpolation (§VI).
//!
//! "For each layer, we simulate SAVE with both weight and activation
//! sparsities of 0%-90% at 10% intervals ... The result is a 2D surface of
//! execution times ... we linearly map the profiled weight and activation
//! sparsities to the 2D surface" — this module is exactly that machinery,
//! with degenerate axes collapsed when a phase has no sparsity of one type
//! (Table III), which removes most of the sweep cost.

use crate::cancel::SupervisorHandle;
use crate::durable::{run_cell, RetryPolicy};
use crate::error::{RetryClass, SimError};
use crate::parallel::{parallel_try_map, parallel_try_map_cancel, FailureReport, JobFailure};
use crate::runner::{ConfigKind, MachineConfig};
use crate::spec::CellSpec;
use crate::store::{CellRecord, Claim, ResultStore};
use crate::trace::TraceStore;
use save_kernels::GemmWorkload;
use serde::{Deserialize, Serialize};

/// The paper's 10-level grid (0%..90% at 10% intervals).
pub fn paper_grid() -> Vec<f64> {
    (0..10).map(|i| i as f64 * 0.1).collect()
}

/// A coarser 6-level grid for fast regeneration runs; interpolation fills
/// the gaps exactly as the methodology prescribes.
pub fn coarse_grid() -> Vec<f64> {
    vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9]
}

/// Human-readable label for a grid cell, used in failure reports.
fn cell_label((a, b): (f64, f64)) -> String {
    format!("cell(a={a:.2},b={b:.2})")
}

/// Durability options for [`Surface::sweep_durable`].
pub struct DurableSweep<'a> {
    /// Result store the cells are served from and journaled to; `None`
    /// disables journaling (the sweep still gets deadlines/retries/
    /// cancellation).
    pub store: Option<&'a ResultStore>,
    /// Per-cell deadline/retry policy.
    pub policy: RetryPolicy,
    /// Supervisor enforcing deadlines and propagating Ctrl-C.
    pub supervisor: &'a SupervisorHandle,
}

/// What a durable sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The surface; failed or not-yet-computed cells are `NaN`.
    pub surface: Surface,
    /// Per-cell failures (journaled permanent ones included).
    pub report: FailureReport,
    /// Cells served from the store instead of simulated.
    pub resumed: usize,
    /// `true` when the sweep stopped early due to cancellation; the
    /// journal holds every completed cell, so `--resume` finishes the
    /// rest.
    pub cancelled: bool,
    /// Total simulated cycles across completed cells (journal + fresh) —
    /// the resume-invariance witness used by the kill-and-resume test.
    pub total_cycles: u64,
}

/// An execution-time surface over (broadcast-side, vector-side) sparsity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Surface {
    /// Broadcast-side (BS source) sparsity levels, ascending.
    pub a_levels: Vec<f64>,
    /// Vector-side (NBS source) sparsity levels, ascending.
    pub b_levels: Vec<f64>,
    /// Seconds, `a`-major: `secs[ai * b_levels.len() + bi]`.
    pub secs: Vec<f64>,
}

impl Surface {
    /// Builds a surface by simulating `w` at every grid point for `kind`.
    /// Pass a single-level axis (e.g. `[0.0]`) for a sparsity type the
    /// phase does not exhibit.
    ///
    /// # Errors
    /// A surface is only meaningful when complete, so the first grid point
    /// that fails (stall, invalid config, worker panic) fails the sweep;
    /// the error identifies the point through the kernel name and, for a
    /// panic, the job index.
    pub fn sweep(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
        threads: usize,
    ) -> Result<Surface, SimError> {
        let points: Vec<(f64, f64)> = a_levels
            .iter()
            .flat_map(|&a| b_levels.iter().map(move |&b| (a, b)))
            .collect();
        let secs = parallel_try_map(&points, threads, 0, |&(a, b)| {
            let wk = w.clone().with_sparsity(a, b);
            Ok(CellSpec::new(wk, kind, *machine, Self::point_seed(a, b)).run(None)?.seconds)
        })
        .into_iter()
        .collect::<Result<Vec<f64>, SimError>>()?;
        Ok(Surface { a_levels: a_levels.to_vec(), b_levels: b_levels.to_vec(), secs })
    }

    /// Sweeps the same grid under *several* operating points at once,
    /// executing each grid point's functional work exactly once: the first
    /// operating point to reach a point records its trace, the remaining
    /// points replay it (DESIGN.md §5h, "execute once, time N"). Results
    /// are bit-identical to running [`Surface::sweep`] once per kind —
    /// that equivalence is a tier-1 test — but fig14/fig16-class sweeps
    /// stop paying codegen, operand generation and FMA arithmetic `kinds`
    /// times per point.
    ///
    /// Returns one [`Surface`] per entry of `kinds`, in order.
    ///
    /// # Errors
    /// As [`Surface::sweep`]; additionally, because a recording run always
    /// verifies the kernel's numerical output, a simulator bug surfaces
    /// here as [`SimError::VerifyMismatch`] even though sweeps do not
    /// request verification.
    pub fn sweep_many(
        w: &GemmWorkload,
        kinds: &[ConfigKind],
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
        threads: usize,
    ) -> Result<Vec<Surface>, SimError> {
        let points: Vec<(f64, f64)> = a_levels
            .iter()
            .flat_map(|&a| b_levels.iter().map(move |&b| (a, b)))
            .collect();
        // Parallelism is across grid points; within a point the kinds run
        // sequentially through a point-local store (traces never cross
        // points — each has its own sparsity and seed — so dropping the
        // store per point keeps the sweep's memory footprint flat).
        let per_point = parallel_try_map(&points, threads, 0, |&(a, b)| {
            let wk = w.clone().with_sparsity(a, b);
            let store = TraceStore::new();
            kinds
                .iter()
                .map(|&kind| {
                    let spec = CellSpec::new(wk.clone(), kind, *machine, Self::point_seed(a, b));
                    Ok(spec.run_traced(None, &store)?.seconds)
                })
                .collect::<Result<Vec<f64>, SimError>>()
        })
        .into_iter()
        .collect::<Result<Vec<Vec<f64>>, SimError>>()?;
        Ok(kinds
            .iter()
            .enumerate()
            .map(|(ki, _)| Surface {
                a_levels: a_levels.to_vec(),
                b_levels: b_levels.to_vec(),
                secs: per_point.iter().map(|row| row[ki]).collect(),
            })
            .collect())
    }

    /// The deterministic per-point seed shared by [`Surface::sweep`] and
    /// [`Surface::sweep_durable`]: tied to the sparsity point so repeated
    /// (and resumed) sweeps are deterministic while points stay
    /// independent. Public so `save-serve` clients can build
    /// [`crate::spec::CellSpec`]s whose remote results are bit-identical
    /// to a local sweep of the same grid.
    pub fn point_seed(a: f64, b: f64) -> u64 {
        ((a * 1000.0) as u64) << 20 | ((b * 1000.0) as u64) << 4
    }

    /// Durable counterpart of [`Surface::sweep`] (DESIGN.md §5f): each grid
    /// cell is a [`CellSpec`] filed in `opts.store` under its
    /// [`CellSpec::cache_key`]. A cell with a final record there is served
    /// from the record's raw `f64` bits, so a killed-and-resumed sweep
    /// produces a bit-identical [`Surface`]; every other cell runs under
    /// `opts.policy` (deadline + bounded retries with backoff) and is
    /// journaled as it finishes.
    ///
    /// Unlike [`Surface::sweep`], a failed cell does not abort the sweep:
    /// it becomes `NaN` in the surface and a structured entry in the
    /// returned [`FailureReport`]. Cancellation (Ctrl-C routed through
    /// `opts.supervisor`) stops in-flight cells at their next cycle
    /// quantum and comes back with `cancelled = true`; cancelled cells are
    /// *not* journaled, so a `--resume` recomputes exactly those.
    ///
    /// # Errors
    /// Only result-store problems (an unwritable journal) and unencodable
    /// specs abort the sweep.
    pub fn sweep_durable(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
        threads: usize,
        opts: &DurableSweep<'_>,
    ) -> Result<SweepOutcome, SimError> {
        let points: Vec<(f64, f64)> = a_levels
            .iter()
            .flat_map(|&a| b_levels.iter().map(move |&b| (a, b)))
            .collect();
        let specs: Vec<CellSpec> = points
            .iter()
            .map(|&(a, b)| {
                CellSpec::new(w.clone().with_sparsity(a, b), kind, *machine, Self::point_seed(a, b))
            })
            .collect();
        let keys = specs.iter().map(CellSpec::cache_key).collect::<Result<Vec<u64>, _>>()?;

        // Each cell ends as a record — served from the store or freshly
        // journaled — plus the error that failed it, if any. Only
        // cancellation and journal-write problems are an `Err` here.
        struct Finished {
            rec: CellRecord,
            error: Option<SimError>,
            served: bool,
        }
        let global = opts.supervisor.global();
        let results = parallel_try_map_cancel(&points, threads, &global, |i, &(a, b)| {
            let label = cell_label((a, b));
            if let Some(store) = opts.store {
                match store.claim(keys[i], &global) {
                    Claim::Hit(rec) => {
                        return Ok(Finished { error: rec.error(), rec, served: true })
                    }
                    Claim::Cancelled => return Err(SimError::Cancelled { what: label }),
                    Claim::Compute => {}
                }
            }
            let run =
                run_cell(opts.supervisor, &opts.policy, &label, i, |tok| specs[i].run(Some(tok)));
            let (rec, error) = match run.result {
                Ok(r) => (CellRecord::success(keys[i], &r, run.attempts), None),
                Err(e) if e.retry_class() == RetryClass::Cancelled => {
                    if let Some(store) = opts.store {
                        store.release(keys[i]);
                    }
                    return Err(e);
                }
                Err(e) => (CellRecord::failure(keys[i], &e, run.attempts), Some(e)),
            };
            if let Some(store) = opts.store {
                store.complete(rec.clone())?;
            }
            Ok(Finished { rec, error, served: false })
        });

        let mut secs = vec![f64::NAN; points.len()];
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut total_cycles = 0u64;
        let mut resumed = 0usize;
        let mut cancelled = global.is_cancelled();
        for (i, r) in results.into_iter().enumerate() {
            let label = Some(cell_label(points[i]));
            match r {
                Ok(Finished { rec, error, served }) => {
                    secs[i] = rec.secs();
                    total_cycles += rec.cycles;
                    resumed += served as usize;
                    if let Some(error) = error {
                        let attempts = rec.attempts as usize;
                        failures.push(JobFailure { job: i, label, attempts, error });
                    }
                }
                Err(e) if e.retry_class() == RetryClass::Cancelled => cancelled = true,
                Err(error) => failures.push(JobFailure { job: i, label, attempts: 1, error }),
            }
        }
        let report = FailureReport {
            total_jobs: points.len(),
            succeeded: secs.iter().filter(|s| !s.is_nan()).count(),
            failures,
        };
        Ok(SweepOutcome {
            surface: Surface {
                a_levels: a_levels.to_vec(),
                b_levels: b_levels.to_vec(),
                secs,
            },
            report,
            resumed,
            cancelled,
            total_cycles,
        })
    }

    fn bracket(levels: &[f64], x: f64) -> (usize, usize, f64) {
        if levels.len() == 1 || x <= levels[0] {
            return (0, 0, 0.0);
        }
        let last = levels.len() - 1;
        if x >= levels[last] {
            return (last, last, 0.0);
        }
        let hi = levels.iter().position(|&l| l >= x).unwrap();
        let lo = hi - 1;
        let t = (x - levels[lo]) / (levels[hi] - levels[lo]);
        (lo, hi, t)
    }

    /// Bilinear interpolation of the execution time at `(a, b)` sparsity,
    /// clamped to the grid's hull.
    pub fn interp(&self, a: f64, b: f64) -> f64 {
        let nb = self.b_levels.len();
        let (a0, a1, ta) = Self::bracket(&self.a_levels, a);
        let (b0, b1, tb) = Self::bracket(&self.b_levels, b);
        let v00 = self.secs[a0 * nb + b0];
        let v01 = self.secs[a0 * nb + b1];
        let v10 = self.secs[a1 * nb + b0];
        let v11 = self.secs[a1 * nb + b1];
        let v0 = v00 + (v01 - v00) * tb;
        let v1 = v10 + (v11 - v10) * tb;
        v0 + (v1 - v0) * ta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Surface {
        // time = 10 - 4a - 2b on a 2x3 grid.
        let a_levels = vec![0.0, 1.0];
        let b_levels = vec![0.0, 0.5, 1.0];
        let mut secs = Vec::new();
        for &a in &a_levels {
            for &b in &b_levels {
                secs.push(10.0 - 4.0 * a - 2.0 * b);
            }
        }
        Surface { a_levels, b_levels, secs }
    }

    #[test]
    fn interpolates_grid_points_exactly() {
        let s = synthetic();
        assert_eq!(s.interp(0.0, 0.0), 10.0);
        assert_eq!(s.interp(1.0, 1.0), 4.0);
        assert_eq!(s.interp(0.0, 0.5), 9.0);
    }

    #[test]
    fn bilinear_between_points() {
        let s = synthetic();
        assert!((s.interp(0.5, 0.25) - (10.0 - 2.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_hull() {
        let s = synthetic();
        assert_eq!(s.interp(-0.5, 2.0), s.interp(0.0, 1.0));
    }

    #[test]
    fn degenerate_axis() {
        let s = Surface { a_levels: vec![0.0], b_levels: vec![0.0, 1.0], secs: vec![3.0, 1.0] };
        assert_eq!(s.interp(0.9, 0.5), 2.0);
    }

    #[test]
    fn grids() {
        assert_eq!(paper_grid().len(), 10);
        assert_eq!(coarse_grid().len(), 6);
        assert!((paper_grid()[9] - 0.9).abs() < 1e-12);
    }
}
