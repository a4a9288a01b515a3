//! 2-D mesh network-on-chip with XY (dimension-ordered) routing.
//!
//! Table I: "2D-mesh, XY routing, 2-cycle hop". The mesh connects cores to
//! the NUCA L3 slices (one slice per core tile) and to the memory
//! controllers. Hops are charged in uncore-reference nanoseconds.

use serde::{Deserialize, Serialize};

/// A `cols x rows` mesh of tiles; tile *i* sits at `(i % cols, i / cols)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    /// Number of tile columns.
    pub cols: usize,
    /// Number of tile rows.
    pub rows: usize,
    /// Per-hop latency in uncore cycles.
    pub hop_cycles: u64,
    /// Uncore reference frequency in GHz used to express hop latency in ns.
    pub uncore_ghz: f64,
}

impl Mesh {
    /// Builds a mesh holding at least `tiles` tiles, as square as possible.
    pub fn for_tiles(tiles: usize, hop_cycles: u64, uncore_ghz: f64) -> Self {
        let cols = (tiles as f64).sqrt().ceil() as usize;
        let rows = tiles.div_ceil(cols);
        Mesh { cols, rows, hop_cycles, uncore_ghz }
    }

    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Manhattan hop count between two tiles under XY routing.
    ///
    /// # Panics
    /// Panics if either tile index is out of range.
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        assert!(from < self.tiles() && to < self.tiles(), "tile out of range");
        let (fx, fy) = (from % self.cols, from / self.cols);
        let (tx, ty) = (to % self.cols, to / self.cols);
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }

    /// One-way latency between two tiles in nanoseconds.
    pub fn latency_ns(&self, from: usize, to: usize) -> f64 {
        self.hops(from, to) as f64 * self.hop_cycles as f64 / self.uncore_ghz
    }

    /// Mean one-way latency from a tile to a uniformly random tile, used by
    /// the symmetric (fast) machine mode for NUCA L3 accesses.
    pub fn mean_latency_ns(&self, from: usize) -> f64 {
        let n = self.tiles();
        let total: u64 = (0..n).map(|t| self.hops(from, t)).sum();
        total as f64 / n as f64 * self.hop_cycles as f64 / self.uncore_ghz
    }

    /// Number of directed-link slots: four outgoing directions per tile
    /// (east, west, south, north), indexed by [`Mesh::link_id`]. Edge tiles
    /// simply never use their outward-facing slots.
    pub fn num_links(&self) -> usize {
        self.tiles() * 4
    }

    /// The directed-link slot leaving `tile` in direction `dir`
    /// (0 = east/+x, 1 = west/-x, 2 = south/+y, 3 = north/-y).
    pub fn link_id(&self, tile: usize, dir: usize) -> usize {
        tile * 4 + dir
    }

    /// Visits the directed link ids a flit traverses from `from` to `to`
    /// under XY routing (all X hops, then all Y hops) — one call per hop.
    ///
    /// # Panics
    /// Panics if either tile index is out of range.
    pub fn xy_route_links(&self, from: usize, to: usize, mut visit: impl FnMut(usize)) {
        assert!(from < self.tiles() && to < self.tiles(), "tile out of range");
        let (mut x, mut y) = (from % self.cols, from / self.cols);
        let (tx, ty) = (to % self.cols, to / self.cols);
        while x != tx {
            let dir = if tx > x { 0 } else { 1 };
            visit(self.link_id(y * self.cols + x, dir));
            if tx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != ty {
            let dir = if ty > y { 2 } else { 3 };
            visit(self.link_id(y * self.cols + x, dir));
            if ty > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_layout_for_28_tiles() {
        let m = Mesh::for_tiles(28, 2, 1.7);
        assert!(m.tiles() >= 28);
        assert_eq!(m.cols, 6);
        assert_eq!(m.rows, 5);
    }

    #[test]
    fn xy_hop_count() {
        let m = Mesh { cols: 4, rows: 4, hop_cycles: 2, uncore_ghz: 1.0 };
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 3), 3); // same row
        assert_eq!(m.hops(0, 15), 6); // (0,0) -> (3,3)
        assert_eq!(m.hops(5, 10), 2); // (1,1) -> (2,2)
    }

    #[test]
    fn hops_symmetric() {
        let m = Mesh::for_tiles(28, 2, 1.7);
        for a in 0..28 {
            for b in 0..28 {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn latency_scales_with_hops() {
        let m = Mesh { cols: 4, rows: 1, hop_cycles: 2, uncore_ghz: 2.0 };
        assert_eq!(m.latency_ns(0, 2), 2.0); // 2 hops * 2 cycles / 2 GHz
    }

    #[test]
    fn xy_route_links_match_hop_count_and_direction() {
        let m = Mesh { cols: 4, rows: 4, hop_cycles: 2, uncore_ghz: 1.0 };
        let mut links = Vec::new();
        m.xy_route_links(5, 10, |l| links.push(l)); // (1,1) -> (2,2): east then south
        assert_eq!(links.len() as u64, m.hops(5, 10));
        assert_eq!(links, vec![m.link_id(5, 0), m.link_id(6, 2)]);
        let mut none = Vec::new();
        m.xy_route_links(7, 7, |l| none.push(l));
        assert!(none.is_empty());
        // Reverse route uses the opposite directions.
        let mut back = Vec::new();
        m.xy_route_links(10, 5, |l| back.push(l));
        assert_eq!(back, vec![m.link_id(10, 1), m.link_id(9, 3)]);
    }

    #[test]
    fn mean_latency_positive_and_bounded() {
        let m = Mesh::for_tiles(28, 2, 1.7);
        let mean = m.mean_latency_ns(0);
        let max = m.latency_ns(0, m.tiles() - 1);
        assert!(mean > 0.0 && mean < max);
    }
}
