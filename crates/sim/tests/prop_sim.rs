//! Property-based tests for the simulation driver: interpolation bounds and
//! the parallel sweep executor.

use proptest::prelude::*;
use save_sim::{parallel_try_map, CancelToken, Surface};

fn surface_strategy() -> impl Strategy<Value = Surface> {
    (2usize..6, 2usize..6).prop_flat_map(|(na, nb)| {
        let secs = prop::collection::vec(0.1f64..100.0, na * nb);
        secs.prop_map(move |secs| Surface {
            a_levels: (0..na).map(|i| i as f64 / (na - 1) as f64).collect(),
            b_levels: (0..nb).map(|i| i as f64 / (nb - 1) as f64).collect(),
            secs,
        })
    })
}

proptest! {
    /// Bilinear interpolation stays within the hull's min/max and hits grid
    /// points exactly.
    #[test]
    fn interp_bounded_and_exact(s in surface_strategy(), a in -0.5f64..1.5, b in -0.5f64..1.5) {
        let min = s.secs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.secs.iter().cloned().fold(0.0f64, f64::max);
        let v = s.interp(a, b);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9, "v={v} not in [{min},{max}]");
        for (ai, &al) in s.a_levels.iter().enumerate() {
            for (bi, &bl) in s.b_levels.iter().enumerate() {
                let exact = s.secs[ai * s.b_levels.len() + bi];
                prop_assert!((s.interp(al, bl) - exact).abs() < 1e-9);
            }
        }
    }

    /// Interpolation along one axis between two adjacent grid points is
    /// monotone when the endpoint values are ordered.
    #[test]
    fn interp_is_locally_linear(s in surface_strategy(), t in 0.0f64..1.0) {
        let a0 = s.a_levels[0];
        let a1 = s.a_levels[1];
        let b0 = s.b_levels[0];
        let v0 = s.interp(a0, b0);
        let v1 = s.interp(a1, b0);
        let vm = s.interp(a0 + (a1 - a0) * t, b0);
        let expect = v0 + (v1 - v0) * t;
        prop_assert!((vm - expect).abs() < 1e-9);
    }

    /// The parallel map equals the serial map for any input and thread
    /// count.
    #[test]
    fn parallel_map_matches_serial(
        items in prop::collection::vec(any::<u32>(), 0..200),
        threads in 0usize..8,
    ) {
        let serial: Vec<u64> = items.iter().map(|&x| x as u64 * 3 + 1).collect();
        let parallel: Vec<u64> =
            parallel_try_map(&items, threads, &CancelToken::new(), |_, &x| Ok(x as u64 * 3 + 1))
                .into_iter()
                .map(Result::unwrap)
                .collect();
        prop_assert_eq!(serial, parallel);
    }
}
