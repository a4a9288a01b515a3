//! Self-contained cell specifications — the unit of remote work.
//!
//! A [`CellSpec`] captures *everything* that determines one simulation
//! cell's result: the workload (shape + sparsity + sparsity seed baked
//! into [`GemmWorkload`]), the core operating point, the machine/memory
//! configuration, the RNG seed, and whether numerical verification runs.
//! Because the simulator is deterministic (DESIGN.md §1), two executions
//! of the same spec — on different machines, in different processes, at
//! different times — produce bit-identical seconds. That determinism is
//! what makes the [`crate::ResultStore`] sound: results are keyed by
//! [`CellSpec::cache_key`], a content hash over the spec's canonical JSON
//! encoding, so a store hit *is* a re-execution as far as the numbers are
//! concerned.
//!
//! Surface sweeps build their specs with
//! [`crate::surface::Surface::grid_cells`], so a grid submitted to a daemon
//! reproduces a local sweep's bits exactly (the acceptance criterion for
//! this subsystem).

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::multicore;
use crate::runner::{ConfigKind, KernelResult, MachineConfig};
use crate::trace::{TraceMode, TraceStore};
use save_core::CoreConfig;
use save_kernels::GemmWorkload;
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over `bytes` — the workspace's dependency-free content
/// hash behind [`CellSpec::cache_key`] and [`crate::trace_key`]. Not
/// cryptographic; it only needs to make accidental key collisions
/// overwhelmingly unlikely.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Which core configuration a cell runs under: one of the paper's three
/// named operating points, or an arbitrary ablation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CoreSel {
    /// A named operating point ([`ConfigKind`]).
    Kind {
        /// The operating point.
        kind: ConfigKind,
    },
    /// An explicit core configuration (ablation studies, Figs 17-19).
    Custom {
        /// The full configuration.
        config: Box<CoreConfig>,
    },
}

/// One fully-specified simulation cell (see module docs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// The kernel to run (name, shape, sparsity levels and seed).
    pub workload: GemmWorkload,
    /// Core operating point.
    pub core: CoreSel,
    /// Machine/memory configuration and simulation mode.
    pub machine: MachineConfig,
    /// RNG seed for operand generation.
    pub seed: u64,
    /// Whether to verify numerical output against the reference.
    pub verify: bool,
}

impl CellSpec {
    /// Builds a spec for a named operating point.
    pub fn new(workload: GemmWorkload, kind: ConfigKind, machine: MachineConfig, seed: u64) -> Self {
        CellSpec { workload, core: CoreSel::Kind { kind }, machine, seed, verify: false }
    }

    /// Builds a spec for an explicit core configuration.
    pub fn custom(
        workload: GemmWorkload,
        config: CoreConfig,
        machine: MachineConfig,
        seed: u64,
    ) -> Self {
        CellSpec {
            workload,
            core: CoreSel::Custom { config: Box::new(config) },
            machine,
            seed,
            verify: false,
        }
    }

    /// The spec's canonical JSON encoding — also the wire format.
    pub fn canonical_json(&self) -> Result<String, SimError> {
        serde_json::to_string(self)
            .map_err(|e| SimError::Protocol { what: format!("serialize cell spec: {e}") })
    }

    /// Content address of the cell's *functional* work: everything shared
    /// by all timing configurations of this cell — the workload, the
    /// machine shape (mode + core count) and the data seed. Cells with
    /// equal trace keys share one recorded trace (see [`crate::trace`]).
    pub fn trace_key(&self) -> Result<u64, SimError> {
        crate::trace::trace_key(&self.workload, &self.machine, self.seed)
    }

    /// Content address of the cell's *timing* configuration: the core
    /// operating point, the memory-system configuration, the relaxed-sync
    /// quantum (it bounds the in-quantum timing error, so different quanta
    /// are different timing results) and the verify flag — everything
    /// [`CellSpec::trace_key`] deliberately excludes. The host-thread count
    /// is deliberately NOT hashed: it provably never changes results
    /// (deterministic barrier reconciliation, DESIGN.md §5i), so cached
    /// cells stay valid across machines with different core counts.
    pub fn timing_key(&self) -> Result<u64, SimError> {
        let cj = serde_json::to_string(&self.core)
            .map_err(|e| SimError::Protocol { what: format!("serialize core sel: {e}") })?;
        let mj = serde_json::to_string(&self.machine.mem)
            .map_err(|e| SimError::Protocol { what: format!("serialize mem config: {e}") })?;
        Ok(fnv1a(
            format!("time|{cj}|{mj}|q{}|{}", self.machine.mc.quantum, self.verify).as_bytes(),
        ))
    }

    /// Content hash keying the [`crate::ResultStore`]: `hash(trace_key ‖ timing_key)`.
    /// Two specs share a key iff every field that can influence the result
    /// is identical — the same contract as the original canonical-JSON
    /// hash, but split along the functional/timing line so that cells
    /// sharing a trace visibly share the functional half of their key.
    pub fn cache_key(&self) -> Result<u64, SimError> {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.trace_key()?.to_le_bytes());
        bytes[8..].copy_from_slice(&self.timing_key()?.to_le_bytes());
        Ok(fnv1a(&bytes))
    }

    /// Executes the cell, honouring an optional cooperative cancel token.
    /// When the token latches (Ctrl-C, a per-cell deadline), the simulated
    /// cores stop at their next [`save_core::CANCEL_QUANTUM`] boundary and
    /// this returns [`SimError::Cancelled`]. See [`crate::run_kernel_full`]
    /// for the other errors.
    pub fn run(&self, cancel: Option<&CancelToken>) -> Result<KernelResult, SimError> {
        self.execute(cancel, None)
    }

    /// Executes the cell through a [`TraceStore`] — "execute once, time N"
    /// (DESIGN.md §5h). The first cell for a given [`CellSpec::trace_key`]
    /// records a functional trace and files it in the store; every later
    /// cell *replays* it — skipping codegen, operand generation and FMA
    /// arithmetic — with bit-identical seconds, cycles and
    /// [`save_core::CoreStats`]. Cells whose *full* [`CellSpec::cache_key`]
    /// already ran through this store are served from its result memo
    /// without entering the core at all — the simulator is deterministic,
    /// so the memoized bits are the bits a re-execution would produce.
    ///
    /// A recording run always checks the numerical output against the
    /// reference before the trace is admitted, so a simulator bug surfaces
    /// as [`SimError::VerifyMismatch`] on the *first* cell rather than being
    /// multiplied across the sweep. The reported `verified` flag still
    /// follows [`CellSpec::verify`].
    pub fn run_traced(
        &self,
        cancel: Option<&CancelToken>,
        store: &TraceStore,
    ) -> Result<KernelResult, SimError> {
        let cache_key = self.cache_key()?;
        if let Some(memo) = store.result(cache_key) {
            return Ok(memo);
        }
        let key = self.trace_key()?;
        let mode = match store.get(key) {
            Some(trace) => TraceMode::Replay { trace },
            None => TraceMode::Record { store, key },
        };
        let result = self.execute(cancel, Some(mode))?;
        store.record_result(cache_key, result);
        Ok(result)
    }

    fn execute(
        &self,
        cancel: Option<&CancelToken>,
        mode: Option<TraceMode<'_>>,
    ) -> Result<KernelResult, SimError> {
        let cfg = match &self.core {
            CoreSel::Kind { kind } => kind.core_config(),
            CoreSel::Custom { config } => **config,
        };
        let (w, m) = (&self.workload, &self.machine);
        Ok(multicore::execute(w, cfg, m, self.seed, self.verify, cancel, mode)?.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Surface;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn tiny() -> GemmWorkload {
        GemmWorkload::dense(
            "tiny",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            2,
        )
        .with_sparsity(0.3, 0.3)
    }

    #[test]
    fn cache_key_is_deterministic_and_input_sensitive() {
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, MachineConfig::default(), 7);
        let k1 = spec.cache_key().unwrap();
        let k2 = spec.clone().cache_key().unwrap();
        assert_eq!(k1, k2, "same spec, same key");

        let mut other = spec.clone();
        other.seed = 8;
        assert_ne!(k1, other.cache_key().unwrap(), "seed is part of the key");

        let other = CellSpec::new(tiny(), ConfigKind::Baseline, MachineConfig::default(), 7);
        assert_ne!(k1, other.cache_key().unwrap(), "operating point is part of the key");

        let other = CellSpec::new(
            tiny().with_sparsity(0.3, 0.4),
            ConfigKind::Save2Vpu,
            MachineConfig::default(),
            7,
        );
        assert_ne!(k1, other.cache_key().unwrap(), "sparsity is part of the key");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CellSpec::custom(
            tiny(),
            ConfigKind::Save1Vpu.core_config(),
            MachineConfig::default(),
            3,
        );
        let wire = spec.canonical_json().unwrap();
        let back: CellSpec = serde_json::from_str(&wire).unwrap();
        assert_eq!(spec.cache_key().unwrap(), back.cache_key().unwrap());
    }

    /// The bit-identity contract: a spec built with [`Surface::point_seed`]
    /// reproduces the exact bits a local [`Surface::sweep`] records for the
    /// same grid point — this is what lets a daemon-side cache substitute
    /// for local execution.
    #[test]
    fn spec_execution_matches_local_sweep_bits() {
        let w = tiny();
        let (a, b) = (0.5, 0.25);
        let sup = crate::Supervisor::start(false);
        let exec = crate::Executor::new(sup.handle());
        let machine = MachineConfig::default();
        let surf = Surface::sweep(&w, ConfigKind::Save2Vpu, &machine, &[a], &[b], 1, &exec)
            .and_then(crate::SweepOutcome::into_surface)
            .unwrap();
        let spec = CellSpec::new(
            w.with_sparsity(a, b),
            ConfigKind::Save2Vpu,
            MachineConfig::default(),
            Surface::point_seed(a, b),
        );
        let remote = spec.run(None).unwrap();
        assert_eq!(
            remote.seconds.to_bits(),
            surf.secs[0].to_bits(),
            "remote execution must be bit-identical to the local sweep"
        );
    }
}
