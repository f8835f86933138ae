//! # indigo-gpusim
//!
//! A deterministic GPU *execution-model simulator* standing in for the two
//! CUDA test systems of the paper (TITAN V and RTX 3090, §4.3).
//!
//! ## Why a simulator
//!
//! The paper's GPU findings are statements about the *relative* cost of
//! parallelization/implementation styles: warp vs thread granularity under
//! skewed degree distributions (§5.8), memory coalescing under cyclic
//! assignment (§2.12), the default-`seq_cst`/system-scope penalty of
//! `cuda::atomic` (§5.1), global vs block vs warp-shuffle reductions (§5.9),
//! and persistent-thread launch overheads (§5.7). Those are all mechanisms
//! of the CUDA *execution model*, not of any one chip. This crate executes
//! kernels functionally on the host — bit-exact, race-free, reproducible —
//! while accounting simulated cycles through a calibrated cost model of
//! exactly those mechanisms:
//!
//! * warps execute their 32 lanes in lockstep; a warp pays for its longest
//!   lane (divergence),
//! * global memory traffic is coalesced into 128-byte segments per lockstep
//!   step ([`cost::StepTable`]),
//! * atomics pay per distinct address touched by the warp in a step, with
//!   cheap hardware aggregation for same-address adds,
//! * `cuda::atomic` with default settings multiplies every access to the
//!   declared array by a device-specific penalty ([`device::Device`]),
//! * blocks are scheduled onto SMs greedily; an SM overlaps the warps it
//!   hosts up to a fixed parallelism, so one monstrous warp still gates the
//!   kernel (load imbalance),
//! * reduction styles (§2.10.1) differ only in *where* their synchronization
//!   cycles are spent, exactly as in Listings 10a–10c.
//!
//! Simulated wall-clock is `cycles / clock`; the harness converts it to the
//! paper's giga-edges-per-second metric. Absolute numbers are meaningless —
//! the *shape* of style ratios is the reproduction target (see DESIGN.md §1).

pub mod ablation;
pub mod buffer;
pub mod cost;
pub mod device;
pub mod fault;
pub mod launch;
pub mod pool;

pub use buffer::{BufKind, GpuBuf, GpuBufF32};
pub use device::{rtx3090, titan_v, CostModel, Device, GPUS};
pub use fault::{FaultKind, FaultPlan};
pub use launch::{Assign, LaneCtx, ReduceStyle, Sim};

/// Re-exported warp width (CUDA's fixed 32).
pub const WARP_SIZE: usize = 32;

/// Most devices one [`Sim`] prices from a single execution: the paper's
/// two GPUs (§4.3).
pub const MAX_DEVICES: usize = 2;

/// Version stamp of the calibrated cost model. Bump whenever a
/// [`CostModel`] constant or a pricing rule changes: the harness folds this
/// into every cell fingerprint, so stale checkpoint journals from an older
/// calibration can never be resumed into a newer run (DESIGN.md §7.3).
pub const COST_MODEL_VERSION: u32 = 1;
