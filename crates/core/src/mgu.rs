//! Mask Generation Units (§III, Fig 4).
//!
//! When a VFMA's multiplicands (and write mask) are ready, an MGU compares
//! every lane of both multiplicands against zero and produces the Effectual
//! Lane Mask: lane *i* is effectual iff both multiplicand elements are
//! non-zero and the write-mask bit is set. The paper replicates MGUs to
//! match the issue width so they are never a bottleneck; the core honours
//! that by generating at most `issue_width` ELMs per cycle.

use save_isa::VecF32;

/// ELM for an FP32 VFMA: `nonzero(a) & nonzero(b) & wm`.
pub fn elm_f32(a: &VecF32, b: &VecF32, wm: u16) -> u16 {
    a.nonzero_mask() & b.nonzero_mask() & wm
}

/// Masks for a mixed-precision VFMA.
///
/// Returns `(ml, al)`: `ml` has bit *j* set iff multiplicand lane *j* is
/// effectual (both BF16 elements non-zero); `al` has bit *i* set iff
/// accumulator lane *i* has at least one effectual ML — an AL can only be
/// skipped when *both* of its MLs are ineffectual (§V, Fig 9).
pub fn elm_mp(a: &VecF32, b: &VecF32) -> (u32, u16) {
    let az = a.as_bf16().zero_mask();
    let bz = b.as_bf16().zero_mask();
    let ml = !az & !bz;
    (ml, fold_ml_to_al(ml))
}

/// Collapses each ML pair of `ml` into one AL bit (bit *i* of the result is
/// `ml[2i] | ml[2i+1]`) with a branchless bit fold: OR each bit into its
/// even neighbour, then pack the 16 even bit positions into the low half
/// (the standard parallel-extract ladder for the 0x5555... mask). This is
/// per-ELM-generation hot-path code; the scalar loop it replaces lives on
/// in the tests as the property-test oracle.
#[inline]
pub(crate) fn fold_ml_to_al(ml: u32) -> u16 {
    let mut x = (ml | (ml >> 1)) & 0x5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF;
    x as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use save_isa::{Bf16, VecBf16, LANES};

    proptest! {
        /// The branchless pair-OR fold agrees with the scalar loop it
        /// replaced, for every possible ML pattern.
        #[test]
        fn fold_matches_scalar_loop(ml in any::<u32>()) {
            let mut al = 0u16;
            for i in 0..LANES {
                if ml >> (2 * i) & 0b11 != 0 {
                    al |= 1 << i;
                }
            }
            prop_assert_eq!(fold_ml_to_al(ml), al);
        }
    }

    #[test]
    fn f32_elm_combines_operands_and_mask() {
        let mut a = VecF32::splat(1.0);
        let mut b = VecF32::splat(2.0);
        a.set_lane(0, 0.0); // lane 0 ineffectual via a
        b.set_lane(1, 0.0); // lane 1 ineffectual via b
        let wm = !(1u16 << 2); // lane 2 masked out
        let elm = elm_f32(&a, &b, wm);
        assert_eq!(elm & 0b111, 0);
        assert_eq!(elm.count_ones(), 13);
    }

    #[test]
    fn broadcast_zero_gives_empty_elm() {
        let a = VecF32::splat(0.0);
        let b = VecF32::splat(3.0);
        assert_eq!(elm_f32(&a, &b, u16::MAX), 0); // BS: whole VFMA skippable
    }

    #[test]
    fn mp_al_effectual_if_either_ml_effectual() {
        // AL0: ML0 effectual, ML1 not. AL1: both ineffectual. AL2: both
        // effectual.
        let mut al = [Bf16::from_f32(1.0); 32];
        let bl = [Bf16::from_f32(2.0); 32];
        al[1] = Bf16::ZERO;
        al[2] = Bf16::ZERO;
        al[3] = Bf16::ZERO;
        let a = VecBf16::from_lanes(al).to_vec_f32_bits();
        let b = VecBf16::from_lanes(bl).to_vec_f32_bits();
        let (ml, almask) = elm_mp(&a, &b);
        assert_eq!(ml & 0b11, 0b01);
        assert_eq!(ml >> 2 & 0b11, 0b00);
        assert_eq!(ml >> 4 & 0b11, 0b11);
        assert_eq!(almask & 0b111, 0b101);
    }

    #[test]
    fn mp_exploitable_sparsity_is_squared() {
        // With 50% random sparsity in each operand's MLs, the expected AL
        // skip rate is (1 - p_eff)^2 where p_eff is the per-ML effectual
        // probability; here we just verify a deterministic pattern: operand
        // sparsity 50% aligned -> AL sparsity 50%; anti-aligned -> 0%.
        let mut a_l = [Bf16::from_f32(1.0); 32];
        let b_l = [Bf16::from_f32(1.0); 32];
        for i in (0..32).step_by(2) {
            a_l[i] = Bf16::ZERO;
            a_l[i + 1] = Bf16::ZERO;
        }
        // Every other *pair* zero -> 50% of ALs skippable.
        for i in (0..32).step_by(4) {
            a_l[i] = Bf16::from_f32(1.0);
            a_l[i + 1] = Bf16::from_f32(1.0);
        }
        for i in (2..32).step_by(4) {
            a_l[i] = Bf16::ZERO;
            a_l[i + 1] = Bf16::ZERO;
        }
        let a = VecBf16::from_lanes(a_l).to_vec_f32_bits();
        let b = VecBf16::from_lanes(b_l).to_vec_f32_bits();
        let (_, almask) = elm_mp(&a, &b);
        assert_eq!(almask.count_ones(), 8);
    }
}
