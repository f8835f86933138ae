//! # indigo-core
//!
//! The Indigo2 style-variant suite in Rust: the paper's six graph problems
//! (Table 1) implemented in **every applicable combination** of the 13
//! parallelization/implementation styles (§2), for the three programming
//! models (CUDA-simulated, OpenMP-analog, C++-threads-analog).
//!
//! Like the paper's generated codes, variants are not hand-written one by
//! one: each algorithm has one *style-parameterized* kernel family per model
//! and the [`runner`] dispatches a fully-specified
//! [`indigo_styles::StyleConfig`] onto it. Three of the six problems — BFS,
//! SSSP, and CC — are monotonic min-relaxation computations that share a
//! relaxation engine ([`cpu`], [`gpu`]), exactly as they share their listing
//! skeletons in the paper; MIS, PR, and TC have their own kernels.
//!
//! Every variant's output is checked against a serial reference
//! implementation ([`serial`], [`verify`]), the Rust analog of the paper's
//! built-in verification (§4.1: "each code verifies its computed solution by
//! comparing it to the solution of a simple serial algorithm").
//!
//! ```
//! use indigo_core::{input::GraphInput, runner, Target};
//! use indigo_graph::gen;
//! use indigo_styles::{Algorithm, Model, StyleConfig};
//!
//! let input = GraphInput::new(gen::grid2d(16, 16));
//! let cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Cpp);
//! let result = runner::run_variant(&cfg, &input, &Target::cpu(2));
//! assert!(indigo_core::verify::check(&cfg, &input, &result.output).is_ok());
//! ```

pub mod cpu;
pub mod gpu;
pub mod input;
pub mod output;
pub mod runner;
pub mod serial;
pub mod verify;

pub use input::GraphInput;
pub use output::Output;
pub use runner::{
    run_gpu, run_gpu_shared, run_gpu_supervised, run_gpu_with, run_variant, run_variant_supervised,
    RunResult, SharedRun, SimStats, Supervision, Target,
};

/// Source vertex used by BFS and SSSP across the whole suite (the paper does
/// not publish its choice; vertex 0 is deterministic and, on the grid/road
/// inputs, a worst-case corner).
pub const SOURCE: u32 = 0;

/// Seed for the MIS random priorities (shared by all models so every variant
/// computes the same maximal independent set).
pub const MIS_SEED: u64 = 0x004d_4953; // "MIS"

/// PageRank damping factor (the standard 0.85).
pub const PR_DAMPING: f32 = 0.85;

/// PageRank convergence threshold on the per-iteration L1 delta.
pub const PR_EPSILON: f32 = 1e-4;

/// PageRank iteration cap (keeps non-converging runs bounded).
pub const PR_MAX_ITERS: usize = 100;
