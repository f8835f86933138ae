//! # indigo-obs
//!
//! The workspace-wide observability layer (DESIGN.md §7.5). Three pieces:
//!
//! * [`counter`] / [`hist`] — **pre-registered, allocation-free metrics**.
//!   Every counter and histogram is a variant of a fixed enum indexing
//!   static atomic storage, so the instrumented hot paths (simulator warp
//!   pricing, worklist pushes, pool leases) never touch the allocator —
//!   compatible with the zero-steady-state-allocation guarantee pinned by
//!   `tests/alloc_regression.rs`. Counters are sharded across cache-line-
//!   padded slots keyed by a thread-local index, so concurrent increments
//!   from the scheduler's job threads don't serialize on one line.
//! * [`event`] / [`sink`] — **lightweight spans**: phase/cell/kernel-level
//!   [`TraceEvent`]s with monotonic microsecond timestamps, streamed to an
//!   append-only JSONL file with the same torn-tail discipline as the
//!   checkpoint journal (newline-guarded append, skip-malformed load).
//!   [`sink::console_line`] is the single-writer console sink: one mutex,
//!   one `write_all` per whole line, so progress output from concurrent
//!   jobs can never interleave mid-line.
//! * [`chrome`] — converts a recorded trace to chrome://tracing JSON
//!   (`indigo-exp trace`).
//! * [`gauge`] / [`window`] / [`ring`] — **live-level primitives** for the
//!   serving layer's `/metrics` and flight recorder (DESIGN.md §7.10):
//!   pre-registered gauges, a 10 s rolling-window histogram for live
//!   p50/p99 and SLO burn, and a seqlock ring of POD records. Gauge
//!   recording is `telemetry`-gated like counters; `RollingHist` and
//!   [`SeqRing`] are instance-owned and always compiled so the serving
//!   layer's always-on stats can use them in every build.
//!
//! ## Feature gating
//!
//! Recording is compile-time gated behind the `telemetry` feature.
//! [`enabled`] is a `const fn` over `cfg!(feature = "telemetry")`: callers
//! wrap any telemetry-only computation in `if indigo_obs::enabled() { … }`
//! and the whole block — including local tallies feeding it — is dead-code
//! eliminated when the feature is off. Reading APIs (trace parsing,
//! validation, chrome export) are always compiled, so `indigo-exp trace` /
//! `indigo-exp profile` work on previously recorded traces from any build.

pub mod chrome;
pub mod counter;
pub mod event;
pub mod gauge;
pub mod hist;
pub mod ring;
pub mod sink;
pub mod window;

pub use counter::{counters_snapshot, Counter, CounterSnapshot, NUM_COUNTERS};
pub use event::{json_num, json_str, load_trace, now_micros, validate_line, TraceEvent};
pub use gauge::{gauges_snapshot, Gauge, GaugeSnapshot, NUM_GAUGES};
pub use hist::{hists_snapshot, Hist, HistSnapshot, NUM_BUCKETS, NUM_HISTS};
pub use ring::SeqRing;
pub use sink::{console_line, emit, install_trace, trace_installed};
pub use window::{RollingHist, RollingSnapshot, WINDOW_SECS};

/// Whether this build records telemetry. `const`-foldable: branches on it
/// vanish entirely in `telemetry`-off builds.
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}
