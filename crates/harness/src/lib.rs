//! # indigo-harness
//!
//! The measurement and reporting harness that regenerates every table and
//! figure of the paper's evaluation (§4.5, §5):
//!
//! * [`matrix`] — runs a (filtered) variant × input × target matrix,
//!   collecting verified [`Measurement`]s in the paper's giga-edges-per-
//!   second metric (median of N repetitions for the wall-clocked CPU
//!   models; the GPU simulator is deterministic, so one run suffices);
//! * [`stats`] — quantile/letter-value summaries (the textual analog of the
//!   paper's boxen plots), geometric means, and Pearson correlation;
//! * [`ratios`] — the paper's "all other styles fixed" pairwise ratio
//!   machinery (§5 intro), built on [`indigo_styles::StyleConfig::peer_key`];
//! * [`schedule`] — the two-level parallel run scheduler: GPU-sim cells fan
//!   out across host threads (simulated cycles are host-load independent),
//!   CPU wall-clock cells keep the machine to themselves, and results stay
//!   bit-identical to a serial run at any `--jobs` setting;
//! * [`outcome`] — the fault-tolerant run model (DESIGN.md §7.3): every
//!   cell ends in a structured [`CellOutcome`] (ok / crashed / timed-out /
//!   wrong-answer) instead of taking the sweep down, under a configurable
//!   [`Resilience`] policy (watchdog timeouts, cycle budgets, deterministic
//!   fault injection);
//! * [`journal`] — the append-only JSONL checkpoint journal keyed by
//!   deterministic cell fingerprints, giving `--resume` bit-exact replay of
//!   completed cells after a crash or SIGKILL;
//! * [`sanitize`] — the style-conformance sanitizer runner (DESIGN.md
//!   §7.6): replays plan cells with the `indigo-exec` conflict collector
//!   armed and judges observed races/atomicity against what each variant's
//!   style labels promise (needs the `sanitize` feature to observe
//!   anything);
//! * [`experiments`] — one module per table/figure, each producing a
//!   [`report::Report`];
//! * the `indigo-exp` binary — CLI driver that writes reports and CSVs
//!   under `results/`.

pub mod advise;
pub mod experiments;
pub mod journal;
pub mod matrix;
pub mod outcome;
pub mod ratios;
pub mod report;
pub mod sanitize;
pub mod schedule;
pub mod stats;

pub use matrix::{Measurement, Prepared, RunPlan, TargetSpec};
pub use outcome::{
    CellFaultKind, CellOutcome, CellRecord, FaultSpec, MatrixRun, Resilience, RunSummary,
};
pub use report::Report;
pub use schedule::{ProgressEvent, RunOptions, RunPhase};
