//! 2-D sparsity-surface sweeps and bilinear interpolation (§VI).
//!
//! "For each layer, we simulate SAVE with both weight and activation
//! sparsities of 0%-90% at 10% intervals ... The result is a 2D surface of
//! execution times ... we linearly map the profiled weight and activation
//! sparsities to the 2D surface" — this module is exactly that machinery,
//! with degenerate axes collapsed when a phase has no sparsity of one type
//! (Table III), which removes most of the sweep cost.

use crate::runner::{ConfigKind, MachineConfig};
use crate::spec::CellSpec;
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
    /// The grid's cells, `a`-major, each labelled by its sparsity point and
    /// seeded with [`Surface::point_seed`]. Pass a single-level axis (e.g.
    /// `[0.0]`) for a sparsity type the phase does not exhibit. Whoever
    /// resolves these cells (a session batch, an executor, a daemon) gets
    /// the same bits, and their seconds in this order are the surface's
    /// `secs`.
    pub fn grid_cells(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
    ) -> Vec<(String, CellSpec)> {
        a_levels
            .iter()
            .flat_map(|&a| b_levels.iter().map(move |&b| (a, b)))
            .map(|(a, b)| {
                let wk = w.clone().with_sparsity(a, b);
                let spec = CellSpec::new(wk, kind, *machine, Self::point_seed(a, b));
                (format!("cell(a={a:.2},b={b:.2})"), spec)
            })
            .collect()
    }

    /// The deterministic per-point seed of [`Surface::grid_cells`]: tied to
    /// the sparsity point so repeated (and resumed) sweeps are
    /// deterministic while points stay independent.
    pub fn point_seed(a: f64, b: f64) -> u64 {
        ((a * 1000.0) as u64) << 20 | ((b * 1000.0) as u64) << 4
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
