//! Table I — architecture configuration of the simulated machine.

use save_bench::print_table;
use save_core::CoreConfig;
use save_mem::energy::StorageModel;
use save_sim::MachineConfig;

pub fn body() -> Result<(), save_sim::SimError> {
    let core = CoreConfig::default();
    let m = MachineConfig::default();
    let mem = m.mem;
    let storage = StorageModel::default();
    let rows = vec![
        vec![
            "Core".into(),
            format!(
                "{} cores, no SMT, {} RS entries, {} ROB entries, {}-issue, 1 VPU at 2.1GHz or 2 VPUs at 1.7GHz",
                m.cores, core.rs_entries, core.rob_entries, core.issue_width
            ),
        ],
        vec![
            "B$".into(),
            format!("{} lines direct-mapped, with data or with masks", storage.bcast_entries),
        ],
        vec![
            "L1-D/I".into(),
            format!(
                "{}KB/core private, {}-way, LRU ({}-cycle)",
                mem.l1.capacity_bytes / 1024,
                mem.l1.ways,
                mem.l1_hit_cycles
            ),
        ],
        vec![
            "L2".into(),
            format!(
                "{}MB/core private, inclusive, {}-way, LRU ({}-cycle)",
                mem.l2.capacity_bytes / (1024 * 1024),
                mem.l2.ways,
                mem.l2_hit_cycles
            ),
        ],
        vec![
            "L3".into(),
            format!(
                "{:.3}MB/core, shared, inclusive, {}-way, SRRIP, NUCA",
                mem.l3_slice.capacity_bytes as f64 / (1024.0 * 1024.0),
                mem.l3_slice.ways
            ),
        ],
        vec![
            "NoC".into(),
            format!("2D-mesh, XY routing, {}-cycle hop", mem.noc_hop_cycles),
        ],
        vec![
            "Memory".into(),
            format!(
                "{}GB/s BW, {} channels, {}ns latency",
                mem.dram.bandwidth_gbps, mem.dram.channels, mem.dram.latency_ns
            ),
        ],
        vec![
            "VFMA".into(),
            format!(
                "FP32 latency {} cycles, mixed-precision latency {} cycles",
                core.fp32_fma_cycles, core.mp_fma_cycles
            ),
        ],
    ];
    print_table("Table I: architecture configuration", &["Component", "Configuration"], &rows);
    save_bench::write_json("table1", &rows)?;
    Ok(())
}
