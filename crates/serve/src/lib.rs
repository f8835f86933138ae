//! `indigo-serve` — a fault-tolerant analytics query server (DESIGN.md
//! §7.8).
//!
//! Exposes the measurement matrix over hand-rolled HTTP/1.1 on std's
//! `TcpListener` (the workspace stays dependency-free): run one style
//! variant, sweep a style slice, or fetch a cached cell by fingerprint.
//! Robustness is the point, not an afterthought — the request pipeline is
//!
//! ```text
//! accept → admission (bounded queue, 429 + Retry-After on overflow)
//!        → deadline (absolute, stamped at accept; queue wait counts)
//!        → cache (fingerprint-keyed, journal-backed, crash-only restart)
//!        → breaker (per-graph-shard; open → degraded answers)
//!        → retry (missing-cells-only re-plan, capped backoff + jitter)
//!        → degrade (journal cache or serial oracle, `degraded: true`)
//! ```
//!
//! and the chaos harness ([`chaos::run_chaos`]) gates it all in CI.
//!
//! PR 8 adds the coalesced, event-driven serving path (DESIGN.md §7.9):
//! single-flight coalescing in front of plan executors (one per usable
//! core) that run on the shards' resident prepared inputs ([`batch`]) and an epoll
//! readiness reactor with HTTP/1.1 keep-alive ([`reactor`], [`http`]). It
//! is the only transport, so serving is Linux-only; its performance is
//! measured by the repo's benchmark (`benchmark/README.md`).
//!
//! PR 9 adds request-scoped observability (DESIGN.md §7.10): every request
//! carries a deterministic ID (echoed as `X-Request-Id`) and a per-stage
//! latency breakdown through coalescing and the executor queue; `/metrics`
//! exposes the full counter/gauge/histogram surface in Prometheus text exposition
//! ([`metrics`]); and a lock-free flight recorder ([`flightrec`]) dumps
//! the recent request tail to `FLIGHT_*.jsonl` on any 5xx.

#![warn(missing_docs)]

pub mod admission;
pub mod advise;
pub mod batch;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod config;
pub mod engine;
pub mod flightrec;
pub mod http;
pub mod metrics;
pub mod reactor;
pub mod retry;
pub mod server;
pub mod stats;

pub use chaos::{ChaosFault, ChaosOptions, ChaosReport};
pub use config::ServerConfig;
pub use server::Server;
