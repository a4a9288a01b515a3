//! Pins the GEMM generator byte for byte. Each case hashes everything a
//! build hands the simulator: the program (each instruction's `Debug`
//! form), the whole functional memory image, the reference output's bits,
//! the regions and the output base. The matrix covers both precisions ×
//! both broadcast patterns × three panel-reuse settings, plus each
//! FP32-only extra (write masks, software BS skipping over clustered A,
//! compressed B panels, clustered A alone) at each panel setting.
//!
//! A refactor of `GemmWorkload::build` must keep every digest. A change
//! that moves one on purpose (a new instruction, a new RNG draw) must say
//! so and record the new constant.

use save_kernels::{BroadcastPattern, BuiltKernel, GemmKernelSpec, GemmWorkload, Precision};

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(b: &BuiltKernel) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write(b.program.name.as_bytes());
    for inst in &b.program.insts {
        h.write(format!("{inst:?};").as_bytes());
    }
    h.write(format!("{:?}", b.mem).as_bytes());
    for e in &b.expected {
        h.write(&e.to_bits().to_le_bytes());
    }
    h.write(format!("{:?}", b.regions).as_bytes());
    h.write(&b.c_base.to_le_bytes());
    h.0
}

/// Panel-reuse settings: one shared panel, a fresh panel per tile, and a
/// panel per two tiles.
const PANELS: [(&str, usize); 3] = [("all", usize::MAX), ("1", 1), ("2", 2)];

fn cases() -> Vec<(String, GemmWorkload)> {
    let workload = |pattern, precision, b_panel_tiles| GemmWorkload {
        b_panel_tiles,
        ..GemmWorkload::dense(
            "digest",
            GemmKernelSpec {
                m_tiles: 3,
                n_vecs: 2,
                pattern,
                precision,
            },
            48,
            4,
        )
        .with_sparsity(0.6, 0.5)
    };
    let mut cases = Vec::new();
    for (pname, panel) in PANELS {
        for (prec, precision) in [("f32", Precision::F32), ("mixed", Precision::Mixed)] {
            for (pat, pattern) in [
                ("explicit", BroadcastPattern::Explicit),
                ("embedded", BroadcastPattern::Embedded),
            ] {
                cases.push((
                    format!("{prec}/{pat}/panel-{pname}"),
                    workload(pattern, precision, panel),
                ));
            }
        }
        let f32_explicit = workload(BroadcastPattern::Explicit, Precision::F32, panel);
        let extras = [
            (
                "write-masks",
                GemmWorkload {
                    use_write_masks: true,
                    ..f32_explicit.clone()
                },
            ),
            (
                "sw-skip-clustered",
                GemmWorkload {
                    software_bs_skip: true,
                    a_cluster: 16,
                    ..f32_explicit.clone()
                },
            ),
            (
                "compressed-b",
                GemmWorkload {
                    compressed_b: true,
                    ..f32_explicit.clone()
                },
            ),
            (
                "compressed-b-embedded",
                GemmWorkload {
                    compressed_b: true,
                    ..workload(BroadcastPattern::Embedded, Precision::F32, panel)
                },
            ),
            (
                "clustered",
                GemmWorkload {
                    a_cluster: 16,
                    ..f32_explicit
                },
            ),
        ];
        for (extra, w) in extras {
            cases.push((format!("f32/{extra}/panel-{pname}"), w));
        }
    }
    cases
}

/// One recorded digest per case.
const EXPECTED: &[(&str, u64)] = &[
    ("f32/explicit/panel-all", 0xfcddff07c8d32886),
    ("f32/embedded/panel-all", 0x22469840ba243d54),
    ("mixed/explicit/panel-all", 0x3751560ba7d67142),
    ("mixed/embedded/panel-all", 0x5751ceae8975540a),
    ("f32/write-masks/panel-all", 0x44fa874bc6e5b1ea),
    ("f32/sw-skip-clustered/panel-all", 0x6b2975723c2313d7),
    ("f32/compressed-b/panel-all", 0x0369561fc063d5fa),
    ("f32/compressed-b-embedded/panel-all", 0xabc1c68b3cee2d70),
    ("f32/clustered/panel-all", 0xb714a466d71b922f),
    ("f32/explicit/panel-1", 0x9b970c43060275ed),
    ("f32/embedded/panel-1", 0xc2d00c57bb8d7e99),
    ("mixed/explicit/panel-1", 0x672de8f7be55dc51),
    ("mixed/embedded/panel-1", 0x4cde2ff60125a71f),
    ("f32/write-masks/panel-1", 0x41e569637f45421d),
    ("f32/sw-skip-clustered/panel-1", 0x0c8535cf56346942),
    ("f32/compressed-b/panel-1", 0x9cd9f29402de9d15),
    ("f32/compressed-b-embedded/panel-1", 0xfddd5c302d7bf495),
    ("f32/clustered/panel-1", 0xa6f14f54efb20702),
    ("f32/explicit/panel-2", 0xec2d7d334af40b1d),
    ("f32/embedded/panel-2", 0x50d082ecd6b50a01),
    ("mixed/explicit/panel-2", 0x07dd19fc7db35b41),
    ("mixed/embedded/panel-2", 0x8e3ca051b3020793),
    ("f32/write-masks/panel-2", 0x995dd50a52171230),
    ("f32/sw-skip-clustered/panel-2", 0xe8cbd4fa57bb9d55),
    ("f32/compressed-b/panel-2", 0x37bbf13653ed3fc1),
    ("f32/compressed-b-embedded/panel-2", 0xfa5f9fd6e57a2b95),
    ("f32/clustered/panel-2", 0x09a584eba676b027),
];

#[test]
fn every_build_matches_its_recorded_digest() {
    let mut wrong = Vec::new();
    for (name, w) in cases() {
        let built = w.build(7);
        if w.software_bs_skip {
            assert!(
                (built.program.fma_count() as u64) < w.fma_count(),
                "{name}: the case must skip at least one zero block"
            );
        }
        let got = digest(&built);
        match EXPECTED.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == got => {}
            _ => wrong.push(format!("    (\"{name}\", {got:#018x}),")),
        }
    }
    assert!(
        wrong.is_empty(),
        "builds changed; actual digests:\n{}",
        wrong.join("\n")
    );
    assert_eq!(
        cases().len(),
        EXPECTED.len(),
        "one recorded digest per case"
    );
}
