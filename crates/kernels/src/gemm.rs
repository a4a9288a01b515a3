//! Register-blocked GEMM micro-kernel generator.
//!
//! The generated stream mirrors a DNNL AVX-512 micro-kernel (§II, Fig 1):
//! a tile of `m_tiles x n_vecs` accumulators lives in vector registers; per
//! reduction step the kernel loads `n_vecs` vectors of the non-broadcasted
//! multiplicand `B`, then for each of the `m_tiles` rows broadcasts one
//! scalar of `A` (explicitly into a register, or embedded in the VFMA) and
//! issues `n_vecs` VFMAs. Broadcasted sparsity (BS) comes from `A`,
//! non-broadcasted sparsity (NBS) from `B` (§III).
//!
//! A workload executes `tiles` such micro-tiles back to back; `reuse_b`
//! controls whether the `B` panel is shared across tiles (convolutions
//! reuse weights across output positions — compute-bound) or distinct per
//! tile (LSTM cells stream their large weight matrices — memory-bound,
//! which is why the paper's LSTM speedups cap early, §VII-A).

use crate::types::{BroadcastPattern, Precision, Region, RegionRole};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use save_isa::{Bf16, Inst, KReg, Memory, Program, VOperand, VReg, LANES, NUM_VREGS};
use serde::{Deserialize, Serialize};

/// Register blocking and operand pattern of a micro-kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemmKernelSpec {
    /// Accumulator rows (broadcast scalars per reduction step). Also the
    /// reuse count of each non-broadcasted register, which divides the
    /// effective combination window (§VII-D).
    pub m_tiles: usize,
    /// Accumulator columns in 16-lane vector registers. This is the
    /// effective combination-window size under register reuse (§VII-D).
    pub n_vecs: usize,
    /// Broadcast pattern.
    pub pattern: BroadcastPattern,
    /// Numeric precision.
    pub precision: Precision,
}

impl GemmKernelSpec {
    /// Number of accumulator registers (`m_tiles * n_vecs`).
    pub fn accumulators(&self) -> usize {
        self.m_tiles * self.n_vecs
    }

    /// Checks the blocking fits the 32-register architectural file
    /// (accumulators + `n_vecs` B registers + 1 broadcast register).
    pub fn fits_register_file(&self) -> bool {
        self.accumulators() + self.n_vecs < NUM_VREGS
    }
}

/// A complete kernel workload: blocking, reduction size, tiling, data
/// sparsity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GemmWorkload {
    /// Human-readable kernel name (e.g. `"ResNet3_2 bwd-input"`).
    pub name: String,
    /// Micro-kernel blocking.
    pub spec: GemmKernelSpec,
    /// Reduction length per tile (must be even for mixed precision).
    pub k_total: usize,
    /// Number of micro-tiles executed sequentially.
    pub tiles: usize,
    /// How many consecutive tiles share one B panel. Convolutions reuse
    /// their weights across all output tiles (`usize::MAX`); LSTM cells
    /// reuse a weight panel only across the batch rows it serves and then
    /// stream the next panel from memory.
    pub b_panel_tiles: usize,
    /// Fraction of zero elements in the broadcasted operand A (BS source).
    pub a_sparsity: f64,
    /// Fraction of zero elements in the non-broadcasted operand B
    /// (NBS source).
    pub b_sparsity: f64,
    /// Use AVX-512 write masks to express A-side sparsity instead of zero
    /// values (the pruned-weights-with-masks form of §III). FP32 +
    /// explicit-broadcast only.
    #[serde(default)]
    pub use_write_masks: bool,
    /// SparseTrain-style *software* broadcast-sparsity skipping (§VIII): the
    /// generated code checks each broadcast scalar and branches around the
    /// whole VFMA group when it is zero, paying one scalar check µop per
    /// row. Exploits BS only (never NBS), on unmodified baseline hardware.
    /// FP32 + explicit-broadcast only.
    #[serde(default)]
    pub software_bs_skip: bool,
    /// ZCOMP-style compressed storage for the B panels (§VIII): each vector
    /// is stored as a 16-bit occupancy bitmap plus its packed non-zero
    /// elements, so the panels' cache/DRAM footprint shrinks with NBS while
    /// the VFMAs consume the decompressed vectors directly. FP32 only.
    #[serde(default)]
    pub compressed_b: bool,
    /// Mean run length of zero/non-zero clusters along the reduction
    /// dimension of A (1 = i.i.d. uniform random, the paper's sweeps).
    /// Real ReLU activations cluster; software zero-skipping depends on it
    /// (branch predictability), while SAVE is insensitive to structure.
    /// FP32 only: mixed-precision A is always i.i.d.
    #[serde(default = "default_cluster")]
    pub a_cluster: usize,
}

// Referenced from the `#[serde(default = "default_cluster")]` attribute only.
#[allow(dead_code)]
fn default_cluster() -> usize {
    1
}

impl GemmWorkload {
    /// Convenience constructor with dense data.
    pub fn dense(name: impl Into<String>, spec: GemmKernelSpec, k_total: usize, tiles: usize) -> Self {
        GemmWorkload {
            name: name.into(),
            spec,
            k_total,
            tiles,
            b_panel_tiles: usize::MAX,
            a_sparsity: 0.0,
            b_sparsity: 0.0,
            use_write_masks: false,
            software_bs_skip: false,
            compressed_b: false,
            a_cluster: 1,
        }
    }

    /// Number of distinct B panels the workload touches.
    pub fn b_panels(&self) -> usize {
        if self.b_panel_tiles == 0 {
            1
        } else {
            self.tiles.div_ceil(self.b_panel_tiles.min(self.tiles))
        }
    }

    /// `true` when all tiles share one B panel (weight reuse).
    pub fn reuse_b(&self) -> bool {
        self.b_panels() == 1
    }

    /// Returns a copy with the given sparsity levels.
    pub fn with_sparsity(mut self, a: f64, b: f64) -> Self {
        self.a_sparsity = a;
        self.b_sparsity = b;
        self
    }

    /// Reduction steps per tile. One step reads 4 bytes of A per row and
    /// one 64-byte B vector per column block: one FP32 element, or one VNNI
    /// BF16 `(k, k+1)` pair under mixed precision.
    fn steps(&self) -> usize {
        match self.spec.precision {
            Precision::F32 => self.k_total,
            Precision::Mixed => self.k_total / 2,
        }
    }

    /// VFMA µops this workload will execute. With
    /// [`GemmWorkload::software_bs_skip`] the built program may contain
    /// fewer (zero blocks are skipped at build time); this is the analytic
    /// count without skipping.
    pub fn fma_count(&self) -> u64 {
        (self.tiles * self.steps() * self.spec.m_tiles * self.spec.n_vecs) as u64
    }

    /// Multiply-accumulate FLOPs (2 per MAC) of the scaled-down workload.
    pub fn flops(&self) -> f64 {
        (self.tiles * self.k_total * self.spec.m_tiles * self.spec.n_vecs * LANES * 2) as f64
    }

    /// Builds the instruction stream, functional memory, and reference
    /// output.
    ///
    /// Both precisions share one layout and one emission loop, counted in
    /// reduction steps. Only the VFMA opcode, the operand fill (FP32
    /// elements or BF16 pairs) and the FP32-only extras (write masks,
    /// software BS skipping, compressed B panels, clustered A) differ.
    ///
    /// # Panics
    /// Panics if the blocking does not fit the register file, if `k_total`
    /// is odd for mixed precision, or if write masks are requested for an
    /// unsupported configuration.
    pub fn build(&self, seed: u64) -> BuiltKernel {
        assert!(self.spec.fits_register_file(), "blocking exceeds 32 registers: {:?}", self.spec);
        let f32 = self.spec.precision == Precision::F32;
        if !f32 {
            assert!(self.k_total.is_multiple_of(2), "mixed precision needs an even reduction length");
        }
        if self.use_write_masks {
            assert!(
                f32 && self.spec.pattern == BroadcastPattern::Explicit,
                "write masks are modelled for FP32 explicit-broadcast kernels"
            );
        }
        if self.software_bs_skip {
            assert!(
                f32 && self.spec.pattern == BroadcastPattern::Explicit && !self.use_write_masks,
                "software BS skipping is modelled for FP32 explicit-broadcast kernels"
            );
        }
        if self.compressed_b {
            assert!(f32, "compressed B panels are modelled for FP32 kernels");
        }
        let rng = &mut StdRng::seed_from_u64(seed ^ 0x5a5e_c0de);
        let (m, n, k, tiles) = (self.spec.m_tiles, self.spec.n_vecs, self.k_total, self.tiles);
        let (steps, pair) = (self.steps(), if f32 { 1 } else { 2 });
        let nb = n * LANES;
        let b_panels = self.b_panels();
        let panel_of = |t: usize| t / self.b_panel_tiles.min(self.tiles).max(1);
        let mut mem = Memory::new(0);
        let a_base = mem.alloc(tiles * m * steps * 4);
        let b_base = mem.alloc(b_panels * steps * nb * 4);
        let c_base = mem.alloc(tiles * m * nb * 4);
        // 4-byte word indices: a step's A scalar (or pair) of row `i`, and
        // lane `col` of its B vector (VNNI-interleaved: [panel][step][col]
        // [pair], one 64-byte vector holding 16 columns' pairs).
        let a_word = |t: usize, i: usize, s: usize| (t * m + i) * steps + s;
        let b_word = |t: usize, s: usize, col: usize| (panel_of(t) * steps + s) * nb + col;

        // Fill A (row-major along k; clustered zeros when requested, FP32
        // only) and B. Mixed precision rounds every value to BF16.
        let cluster = if f32 { self.a_cluster.max(1) } else { 1 };
        let mut a = vec![0.0f32; tiles * m * k];
        for row in a.chunks_mut(k) {
            if cluster == 1 {
                for v in row.iter_mut() {
                    *v = Self::sparse_value(rng, self.a_sparsity);
                }
            } else {
                // Two-state Markov chain with mean zero-run length
                // `cluster` and stationary sparsity `a_sparsity`.
                let p = self.a_sparsity.clamp(1e-6, 1.0 - 1e-6);
                let leave_zero = 1.0 / cluster as f64;
                let leave_nonzero = (leave_zero * p / (1.0 - p)).min(1.0);
                let mut zero = rng.gen_bool(p);
                for v in row.iter_mut() {
                    *v = if zero { 0.0 } else { Self::nonzero_value(rng) };
                    let leave = if zero { leave_zero } else { leave_nonzero };
                    if rng.gen_bool(leave) {
                        zero = !zero;
                    }
                }
            }
        }
        // In the write-mask form (§III: masks identify dropped weights
        // during pruned training) the B values stay non-zero and the
        // sparsity is carried by per-(k, vector) lane masks instead.
        let b_sparsity = if self.use_write_masks { 0.0 } else { self.b_sparsity };
        let mut b: Vec<f32> =
            (0..b_panels * k * nb).map(|_| Self::sparse_value(rng, b_sparsity)).collect();
        if !f32 {
            for v in a.iter_mut().chain(b.iter_mut()) {
                *v = Bf16::from_f32(*v).to_f32();
            }
        }
        for (base, vals) in [(a_base, &a), (b_base, &b)] {
            for (i, &v) in vals.iter().enumerate() {
                if f32 {
                    mem.write_f32(base + 4 * i as u64, v);
                } else {
                    mem.write_bf16(base + 2 * i as u64, Bf16::from_f32(v));
                }
            }
        }
        // masks[(s, j)]: bit l set = lane kept.
        let masks: Vec<u16> = (0..steps * n)
            .map(|_| {
                if !self.use_write_masks {
                    return u16::MAX;
                }
                let mut mk = 0u16;
                for l in 0..LANES {
                    if !rng.gen_bool(self.b_sparsity) {
                        mk |= 1 << l;
                    }
                }
                mk
            })
            .collect();

        // ZCOMP-style compressed B layout: per 16-element vector, a 16-bit
        // occupancy bitmap plus the packed non-zero elements, one entry per
        // B vector in `b_word / LANES` order. Only the timing side uses
        // these addresses; values are read uncompressed.
        let mut b_timing: Vec<u64> = Vec::new();
        let mut bz_base = 0u64;
        if self.compressed_b {
            let mut cursor = 0u64;
            for vector in b.chunks(LANES) {
                b_timing.push(cursor);
                cursor += 2 + 4 * vector.iter().filter(|&&v| v != 0.0).count() as u64;
            }
            bz_base = mem.alloc(cursor.max(4) as usize);
        }

        // Reference. Masked-out lanes skip their MAC (the VFMA leaves the
        // accumulator untouched there); per AL, the two MACs of a BF16 pair
        // run in order (Fig 2).
        let mut expected = vec![0.0f32; tiles * m * nb];
        for t in 0..tiles {
            for i in 0..m {
                for col in 0..nb {
                    let (j, lane) = (col / LANES, col % LANES);
                    let mut c = 0.0f32;
                    for s in 0..steps {
                        if masks[s * n + j] >> lane & 1 == 1 {
                            let (aw, bw) = (a_word(t, i, s) * pair, b_word(t, s, col) * pair);
                            for h in 0..pair {
                                c = a[aw + h].mul_add(b[bw + h], c);
                            }
                        }
                    }
                    expected[(t * m + i) * nb + col] = c;
                }
            }
        }

        // Instruction stream.
        let mut p = Program::new(self.name.clone());
        let acc_reg = |i: usize, j: usize| VReg((i * n + j) as u8);
        let b_reg = |j: usize| VReg((m * n + j) as u8);
        let bcast_reg = VReg((m * n + n) as u8);
        let mask_reg = |j: usize| self.use_write_masks.then_some(KReg(1 + j as u8));
        let vfma = |acc: VReg, a: VOperand, b: VOperand, mask: Option<KReg>| {
            if f32 {
                Inst::VfmaF32 { acc, a, b, mask }
            } else {
                Inst::VdpBf16 { acc, a, b }
            }
        };
        for t in 0..tiles {
            for i in 0..m {
                for j in 0..n {
                    p.push(Inst::Zero { dst: acc_reg(i, j) });
                }
            }
            for s in 0..steps {
                p.push(Inst::ScalarOp);
                for j in 0..n {
                    let word = b_word(t, s, j * LANES);
                    let addr = b_base + 4 * word as u64;
                    if self.compressed_b {
                        p.push(Inst::CompressedVecLoad {
                            dst: b_reg(j),
                            addr,
                            timing_addr: bz_base + b_timing[word / LANES],
                        });
                    } else {
                        p.push(Inst::VecLoad { dst: b_reg(j), addr });
                    }
                    if let Some(dst) = mask_reg(j) {
                        p.push(Inst::SetMask { dst, value: masks[s * n + j] });
                    }
                }
                for i in 0..m {
                    let a_addr = a_base + 4 * a_word(t, i, s) as u64;
                    if self.software_bs_skip {
                        // SparseTrain-style software skipping, at the block
                        // granularity the real implementation uses: one
                        // vectorized all-zero test per row per 16 broadcast
                        // values (a vector compare + branch), skipping the
                        // whole block's loads and VFMAs when it is entirely
                        // zero. The branch is data-dependent: a 1-bit
                        // last-outcome predictor per row mispredicts on
                        // block-outcome transitions, costing a front-end
                        // redirect. Fine-grained zeros inside a non-zero
                        // block are NOT skipped — software can only afford
                        // coarse checks, which is why it needs clustered
                        // (ReLU-like) sparsity to win.
                        const BLK: usize = 16;
                        let block_zero = |kb: usize| -> bool {
                            let lo = kb * BLK;
                            let hi = ((kb + 1) * BLK).min(steps);
                            (lo..hi).all(|kz| a[a_word(t, i, kz)] == 0.0)
                        };
                        if s % BLK == 0 {
                            p.push(Inst::ScalarOp);
                            let zero = block_zero(s / BLK);
                            let prev = (s / BLK).checked_sub(1).map(&block_zero).unwrap_or(false);
                            if zero != prev {
                                p.push(Inst::FrontEndBubble { cycles: 15 });
                            }
                        }
                        if block_zero(s / BLK) {
                            continue;
                        }
                    }
                    match self.spec.pattern {
                        BroadcastPattern::Explicit => {
                            p.push(Inst::BroadcastLoad { dst: bcast_reg, addr: a_addr });
                            for j in 0..n {
                                let (a, b) = (VOperand::Reg(bcast_reg), VOperand::Reg(b_reg(j)));
                                p.push(vfma(acc_reg(i, j), a, b, mask_reg(j)));
                            }
                        }
                        BroadcastPattern::Embedded => {
                            for j in 0..n {
                                let (a, b) = (VOperand::Reg(b_reg(j)), VOperand::MemBcast(a_addr));
                                p.push(vfma(acc_reg(i, j), a, b, None));
                            }
                        }
                    }
                }
            }
            for i in 0..m {
                for j in 0..n {
                    p.push(Inst::VecStore {
                        src: acc_reg(i, j),
                        addr: c_base + 4 * ((t * m + i) * nb + j * LANES) as u64,
                    });
                }
            }
        }

        let b_region = if self.compressed_b {
            Region {
                base: bz_base,
                bytes: b_timing.last().copied().unwrap_or(0) + 66,
                role: RegionRole::VectorInput,
            }
        } else {
            Region {
                base: b_base,
                bytes: (b_panels * steps * nb * 4) as u64,
                role: RegionRole::VectorInput,
            }
        };
        BuiltKernel {
            program: p,
            mem,
            regions: vec![
                Region {
                    base: a_base,
                    bytes: (tiles * m * steps * 4) as u64,
                    role: RegionRole::BroadcastInput,
                },
                b_region,
                Region { base: c_base, bytes: (tiles * m * nb * 4) as u64, role: RegionRole::Output },
            ],
            c_base,
            expected,
        }
    }

    /// A value with magnitude in `[0.125, 1)` and a random sign.
    fn nonzero_value(rng: &mut StdRng) -> f32 {
        let mag: f32 = rng.gen_range(0.125..1.0);
        if rng.gen_bool(0.5) {
            mag
        } else {
            -mag
        }
    }

    /// Zero with probability `sparsity`, else [`Self::nonzero_value`].
    fn sparse_value(rng: &mut StdRng, sparsity: f64) -> f32 {
        if rng.gen_bool(sparsity) {
            0.0
        } else {
            Self::nonzero_value(rng)
        }
    }
}

/// A built kernel: program, functional memory, regions and reference output.
#[derive(Clone, Debug)]
pub struct BuiltKernel {
    /// The instruction stream.
    pub program: Program,
    /// The functional memory holding all matrices.
    pub mem: Memory,
    /// Memory regions with roles (for cache warm-up).
    pub regions: Vec<Region>,
    /// Base address of the output C.
    pub c_base: u64,
    /// Expected output values in storage order.
    pub expected: Vec<f32>,
}

impl BuiltKernel {
    /// Verifies the memory's C region against the reference.
    ///
    /// # Errors
    /// Returns the first mismatching index and the two values.
    pub fn verify(&self) -> Result<(), (usize, f32, f32)> {
        for (i, &e) in self.expected.iter().enumerate() {
            let got = self.mem.read_f32(self.c_base + 4 * i as u64);
            if got != e && !(got.is_nan() && e.is_nan()) {
                return Err((i, got, e));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(m: usize, n: usize, pattern: BroadcastPattern, precision: Precision) -> GemmKernelSpec {
        GemmKernelSpec { m_tiles: m, n_vecs: n, pattern, precision }
    }

    #[test]
    fn register_budget_check() {
        assert!(spec(28, 1, BroadcastPattern::Embedded, Precision::F32).fits_register_file());
        assert!(spec(7, 3, BroadcastPattern::Embedded, Precision::F32).fits_register_file());
        assert!(!spec(16, 2, BroadcastPattern::Explicit, Precision::F32).fits_register_file());
    }

    #[test]
    fn fma_count_accounts_for_precision() {
        let w = GemmWorkload::dense("x", spec(4, 2, BroadcastPattern::Explicit, Precision::F32), 32, 2);
        assert_eq!(w.fma_count(), (2 * 32 * 8) as u64);
        let w = GemmWorkload::dense("x", spec(4, 2, BroadcastPattern::Explicit, Precision::Mixed), 32, 2);
        assert_eq!(w.fma_count(), (2 * 16 * 8) as u64);
    }

    #[test]
    fn build_f32_reference_is_consistent() {
        // The reference must equal a straightforward recomputation from the
        // values stored in functional memory.
        let w = GemmWorkload::dense("t", spec(2, 2, BroadcastPattern::Explicit, Precision::F32), 8, 2)
            .with_sparsity(0.3, 0.4);
        let b = w.build(7);
        let (m, n, k) = (2, 2, 8);
        let nb = n * LANES;
        let a_base = b.regions[0].base;
        let b_base = b.regions[1].base;
        for t in 0..2 {
            for i in 0..m {
                for col in 0..nb {
                    let mut c = 0.0f32;
                    for kk in 0..k {
                        let av = b.mem.read_f32(a_base + 4 * ((t * m + i) * k + kk) as u64);
                        let bv = b.mem.read_f32(b_base + 4 * ((kk) * nb + col) as u64);
                        c = av.mul_add(bv, c);
                    }
                    assert_eq!(b.expected[(t * m + i) * nb + col], c);
                }
            }
        }
    }

    #[test]
    fn sparsity_levels_are_respected() {
        let w = GemmWorkload::dense("t", spec(4, 2, BroadcastPattern::Explicit, Precision::F32), 64, 4)
            .with_sparsity(0.6, 0.2);
        let b = w.build(3);
        let count_zeros = |r: &Region, elem: u64| {
            let n = r.bytes / elem;
            let mut z = 0;
            for i in 0..n {
                if b.mem.read_f32(r.base + elem * i) == 0.0 {
                    z += 1;
                }
            }
            z as f64 / n as f64
        };
        let az = count_zeros(&b.regions[0], 4);
        let bz = count_zeros(&b.regions[1], 4);
        assert!((az - 0.6).abs() < 0.06, "A sparsity {az}");
        assert!((bz - 0.2).abs() < 0.05, "B sparsity {bz}");
    }

    #[test]
    fn mixed_build_produces_even_pairs() {
        let w =
            GemmWorkload::dense("t", spec(2, 1, BroadcastPattern::Explicit, Precision::Mixed), 16, 1);
        let b = w.build(1);
        assert_eq!(b.expected.len(), 2 * LANES);
        assert!(b.program.fma_count() > 0);
    }

    #[test]
    #[should_panic(expected = "even reduction")]
    fn mixed_rejects_odd_k() {
        GemmWorkload::dense("t", spec(2, 1, BroadcastPattern::Explicit, Precision::Mixed), 15, 1)
            .build(0);
    }

    #[test]
    fn clustered_sparsity_realizes_level_and_runs() {
        let w = GemmWorkload {
            a_cluster: 16,
            ..GemmWorkload::dense(
                "c",
                spec(4, 2, BroadcastPattern::Explicit, Precision::F32),
                256,
                4,
            )
        }
        .with_sparsity(0.6, 0.0);
        let b = w.build(11);
        let r = &b.regions[0];
        let n = r.bytes / 4;
        let vals: Vec<bool> =
            (0..n).map(|i| b.mem.read_f32(r.base + 4 * i) == 0.0).collect();
        let sparsity = vals.iter().filter(|z| **z).count() as f64 / n as f64;
        assert!((sparsity - 0.6).abs() < 0.1, "stationary sparsity {sparsity}");
        // Mean zero-run length along each row must be far above the i.i.d.
        // expectation (~2.5 at 60%).
        let k = 256;
        let mut runs = 0usize;
        let mut zeros = 0usize;
        for row in vals.chunks(k) {
            let mut prev = false;
            for &z in row {
                if z {
                    zeros += 1;
                    if !prev {
                        runs += 1;
                    }
                }
                prev = z;
            }
        }
        let mean_run = zeros as f64 / runs.max(1) as f64;
        assert!(mean_run > 6.0, "clustering must lengthen runs: {mean_run:.1}");
    }

    #[test]
    fn software_skip_reduces_program_fmas_by_zero_blocks() {
        let base = GemmWorkload::dense(
            "s",
            spec(4, 2, BroadcastPattern::Explicit, Precision::F32),
            64,
            2,
        )
        .with_sparsity(0.5, 0.0);
        let skipping = GemmWorkload { software_bs_skip: true, a_cluster: 16, ..base.clone() };
        let plain = GemmWorkload { a_cluster: 16, ..base };
        let bp = plain.build(7);
        let bs = skipping.build(7);
        assert!(bs.program.fma_count() < bp.program.fma_count());
        // Identical data -> identical reference output.
        assert_eq!(bs.expected.len(), bp.expected.len());
        for (x, y) in bs.expected.iter().zip(bp.expected.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn compressed_b_region_shrinks_with_sparsity() {
        let mk = |nbs: f64| {
            let w = GemmWorkload {
                compressed_b: true,
                b_panel_tiles: 1,
                ..GemmWorkload::dense(
                    "z",
                    spec(4, 2, BroadcastPattern::Explicit, Precision::F32),
                    64,
                    4,
                )
            }
            .with_sparsity(0.0, nbs);
            let b = w.build(3);
            b.regions[1].bytes
        };
        let dense = mk(0.0);
        let sparse = mk(0.8);
        assert!(
            (sparse as f64) < dense as f64 * 0.45,
            "80% NBS must shrink the compressed footprint: {sparse} vs {dense}"
        );
    }

    #[test]
    fn verify_detects_mismatch() {
        let w = GemmWorkload::dense("t", spec(1, 1, BroadcastPattern::Explicit, Precision::F32), 4, 1);
        let mut b = w.build(0);
        // C memory is still zero (never executed): verification must fail
        // unless the expected output happens to be zero everywhere.
        if b.expected.iter().any(|&e| e != 0.0) {
            assert!(b.verify().is_err());
        }
        // Write the expected values: now it must pass.
        for (i, &e) in b.expected.clone().iter().enumerate() {
            b.mem.write_f32(b.c_base + 4 * i as u64, e);
        }
        assert!(b.verify().is_ok());
    }
}
