//! Table II — storage structures in SAVE modelled at 22 nm.

use save_bench::print_table;
use save_mem::energy::{PrecisionSupport, StorageModel};

pub fn body() -> Result<(), save_sim::SimError> {
    let m = StorageModel::default();
    let mut rows = Vec::new();
    for (label, support) in [
        ("Only supports FP32", PrecisionSupport::Fp32Only),
        ("FP32 and mixed-precision", PrecisionSupport::Fp32AndMixed),
    ] {
        rows.push(vec![
            format!("T per VPU ({label})"),
            format!("{}B", m.temp_bytes(support)),
            "N/A".into(),
            "N/A".into(),
        ]);
        let e = m.bcast_mask_energy(support);
        rows.push(vec![
            format!("B$ w/ mask ({label})"),
            format!("{}B", m.bcast_mask_bytes(support)),
            format!("{}mW", e.leakage_mw),
            format!("{:.1E}nJ", e.access_nj),
        ]);
        let e = m.bcast_data_energy(support);
        rows.push(vec![
            format!("B$ w/ data ({label})"),
            format!("{}B", m.bcast_data_bytes(support)),
            format!("{}mW", e.leakage_mw),
            format!("{:.1E}nJ", e.access_nj),
        ]);
    }
    print_table(
        "Table II: SAVE storage structures at 22nm",
        &["Structure", "Size", "P_leak", "E_access"],
        &rows,
    );
    save_bench::write_json("table2", &rows)?;
    // Paper check: 56B / 276B / 2260B (FP32) and 168B / 340B / 2260B (MP).
    assert_eq!(m.temp_bytes(PrecisionSupport::Fp32Only), 56);
    assert_eq!(m.temp_bytes(PrecisionSupport::Fp32AndMixed), 168);
    assert_eq!(m.bcast_mask_bytes(PrecisionSupport::Fp32Only), 276);
    assert_eq!(m.bcast_mask_bytes(PrecisionSupport::Fp32AndMixed), 340);
    assert_eq!(m.bcast_data_bytes(PrecisionSupport::Fp32Only), 2260);
    println!("\nAll sizes match Table II of the paper exactly.");
    Ok(())
}
