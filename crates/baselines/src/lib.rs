//! # indigo-baselines
//!
//! Optimized "third-party" comparison codes for the paper's §5.17
//! experiment (Fig 16 / Table 6). The paper compares its style variants
//! against Lonestar (CPU) and Gardenia (GPU); both are C++/CUDA code bases
//! we cannot link, so this crate implements *the same documented
//! optimizations* from scratch:
//!
//! * [`bfs`] — direction-optimizing BFS (Beamer et al., the optimization
//!   behind both suites' BFS),
//! * [`sssp`] — delta-stepping bucket scheduling (Lonestar's priority
//!   scheduler that "processes the vertices in ascending distance"),
//! * [`cc`] — union-find with path-halving hooks (Afforest-style, far less
//!   work than label propagation),
//! * [`mis`] — priority MIS with early neighbor-max short-circuiting
//!   (CPU only — the paper notes MIS is missing from Gardenia),
//! * [`pr`] — pull PageRank with a precomputed reciprocal-degree table,
//! * [`tc`] — orientation (redundant-edge-removal) triangle counting, the
//!   Gardenia optimization the paper credits for its TC results.
//!
//! Each baseline produces output in the same shape as `indigo-core` so the
//! same verifiers apply, and each has a CPU entry point plus (where the
//! paper compares on GPUs) a simulated-GPU entry point.
//!
//! ## Zero steady-state allocation (DESIGN.md §7.7)
//!
//! Every CPU kernel leases its scratch (frontier, buckets, score/label
//! arrays, degree tables) from a process-wide [`indigo_exec::PoolRegistry`]
//! and retains capacity across levels, waves, iterations, *and* calls:
//! after a first warm-up call per shape, the kernels allocate nothing.
//! Each module's `cpu` wraps a `cpu_into` variant that also reuses the
//! caller's output buffer — the form `tests/alloc_regression.rs` pins at
//! exactly zero steady-state allocations (and, single-threaded under
//! `--features telemetry`, at exact frontier/bucket counts).

pub mod bfs;
pub mod cc;
pub mod mis;
pub mod pr;
pub mod sssp;
pub mod tc;

use indigo_exec::{Lease, OmpPool, PoolRegistry};

static POOLS: PoolRegistry<OmpPool> = PoolRegistry::new();

/// Leases a worker pool with `threads` workers (min 1) from the process-wide
/// registry, so repeated fig16 cells reuse parked workers instead of
/// respawning a thread team per call.
pub(crate) fn pool(threads: usize) -> Lease<OmpPool> {
    let t = threads.max(1);
    POOLS.lease_guard(t, || OmpPool::new(t))
}
