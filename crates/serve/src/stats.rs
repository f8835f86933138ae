//! Always-on server statistics (DESIGN.md §7.8, §7.10).
//!
//! The chaos gate's invariants ("breaker trip/recovery observable",
//! "retries counted") must hold in *every* build, so the server keeps its
//! own plain atomics rather than relying on `crates/obs` counters (which
//! compile to nothing without the `telemetry` feature). Counters are a
//! [`ServeCounter`]-indexed array, so [`Stats::snapshot`] can read the
//! whole array in one coherent sweep (re-read until stable) instead of
//! per-field loads — ratios like coalesced/requests can't be torn by a
//! bump landing mid-snapshot.
//!
//! A [`RollingHist`] of the same latencies rides along so `/metrics` can
//! report live (last ~10 s) p50/p99 and SLO violation ratios next to the
//! cumulative-since-boot histogram.

use indigo_obs::hist::{bucket_of, percentile_floor, NUM_BUCKETS};
use indigo_obs::{RollingHist, RollingSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of serve-layer counters (kept in sync with [`ServeCounter::ALL`]).
pub const NUM_SERVE_COUNTERS: usize = 17;

/// Every always-on serving counter, in storage (and `/stats` JSON) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ServeCounter {
    /// Connections accepted (sheds included).
    Requests,
    /// 2xx responses (degraded included).
    Ok,
    /// 429 sheds from admission control.
    Shed,
    /// 504 deadline exhaustions (in queue or mid-retry).
    Timeouts,
    /// Cell re-executions after a transient failure.
    Retries,
    /// Degraded responses served while a breaker was open.
    Degraded,
    /// Requests fully answered from the fingerprint cache.
    CacheHits,
    /// Breaker transitions closed → open.
    BreakerTrips,
    /// Breaker half-open probes that recovered (→ closed).
    BreakerRecoveries,
    /// 5xx failures (retries exhausted, wrong answers, harness errors).
    Failed,
    /// 4xx client errors.
    BadRequests,
    /// Journal appends that failed (service continued without persistence).
    JournalErrors,
    /// Plans executed by the executor thread (one per submission).
    Batches,
    /// Claimed cells resolved by those plans.
    BatchedCells,
    /// Requests that joined another request's in-flight cells instead of
    /// executing them (single-flight coalescing).
    Coalesced,
    /// Requests served over a reused keep-alive connection.
    KeepAliveReuses,
    /// Style-advisor answers: `style=auto` resolutions on `/run` plus
    /// `/advise` queries (DESIGN.md §7.11).
    Advised,
}

impl ServeCounter {
    /// Every counter, in storage order.
    pub const ALL: [ServeCounter; NUM_SERVE_COUNTERS] = [
        ServeCounter::Requests,
        ServeCounter::Ok,
        ServeCounter::Shed,
        ServeCounter::Timeouts,
        ServeCounter::Retries,
        ServeCounter::Degraded,
        ServeCounter::CacheHits,
        ServeCounter::BreakerTrips,
        ServeCounter::BreakerRecoveries,
        ServeCounter::Failed,
        ServeCounter::BadRequests,
        ServeCounter::JournalErrors,
        ServeCounter::Batches,
        ServeCounter::BatchedCells,
        ServeCounter::Coalesced,
        ServeCounter::KeepAliveReuses,
        ServeCounter::Advised,
    ];

    /// JSON key in the `/stats` body (and, prefixed, the `/metrics` name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServeCounter::Requests => "requests",
            ServeCounter::Ok => "ok",
            ServeCounter::Shed => "shed",
            ServeCounter::Timeouts => "timeouts",
            ServeCounter::Retries => "retries",
            ServeCounter::Degraded => "degraded",
            ServeCounter::CacheHits => "cache_hits",
            ServeCounter::BreakerTrips => "breaker_trips",
            ServeCounter::BreakerRecoveries => "breaker_recoveries",
            ServeCounter::Failed => "failed",
            ServeCounter::BadRequests => "bad_requests",
            ServeCounter::JournalErrors => "journal_errors",
            ServeCounter::Batches => "batches",
            ServeCounter::BatchedCells => "batched_cells",
            ServeCounter::Coalesced => "coalesced",
            ServeCounter::KeepAliveReuses => "keepalive_reuses",
            ServeCounter::Advised => "advised",
        }
    }
}

/// Monotonic request-pipeline counters plus latency histograms (cumulative
/// log₂ buckets and a 10 s rolling window).
pub struct Stats {
    counters: [AtomicU64; NUM_SERVE_COUNTERS],
    /// EWMA of request service time, microseconds (for `Retry-After`).
    pub service_micros_ewma: AtomicU64,
    latency: LatencyHist,
    rolling: RollingHist,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats::new()
    }
}

/// Log₂ latency histogram, same bucketing as `indigo_obs::hist` (which is
/// compiled feature-off too, so the edges stay shared).
#[derive(Default)]
struct LatencyHist {
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Stats {
    /// Fresh zeroed stats.
    pub fn new() -> Stats {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Stats {
            counters: [Z; NUM_SERVE_COUNTERS],
            service_micros_ewma: AtomicU64::new(0),
            latency: LatencyHist::default(),
            rolling: RollingHist::new(),
        }
    }

    /// Adds 1 to `c`.
    #[inline]
    pub fn bump(&self, c: ServeCounter) {
        self.add(c, 1);
    }

    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&self, c: ServeCounter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    #[must_use]
    pub fn get(&self, c: ServeCounter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Records one finished request's end-to-end latency.
    pub fn record_latency(&self, micros: u64) {
        self.latency.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.rolling.record(micros);
        // EWMA with α = 1/8: ewma += (sample − ewma) / 8
        let prev = self.service_micros_ewma.load(Ordering::Relaxed);
        let next = if prev == 0 {
            micros
        } else {
            prev - prev / 8 + micros / 8
        };
        self.service_micros_ewma.store(next, Ordering::Relaxed);
        indigo_obs::Hist::ServeRequestMicros.record(micros);
    }

    /// Live view of the last ~10 s of request latencies.
    #[must_use]
    pub fn rolling_snapshot(&self) -> RollingSnapshot {
        self.rolling.snapshot()
    }

    /// `Retry-After` advice in whole seconds for a shed when `depth`
    /// requests are queued ahead: expected drain time, at least 1 s.
    pub fn retry_after_secs(&self, depth: usize) -> u64 {
        let ewma = self.service_micros_ewma.load(Ordering::Relaxed).max(1_000);
        let drain_us = ewma.saturating_mul(depth as u64 + 1);
        drain_us.div_ceil(1_000_000).max(1)
    }

    /// Point-in-time copy, read in one coherent sweep: all counters are
    /// loaded as a batch and re-loaded until two consecutive sweeps agree
    /// (bounded retries), so no single bump can land between the loads of
    /// two related counters. Under a sustained write storm the last sweep
    /// wins — still a valid point-in-time-ish view, never a torn ratio
    /// from loads spread across the whole snapshot body.
    pub fn snapshot(&self) -> StatsSnapshot {
        let sweep = |vals: &mut [u64; NUM_SERVE_COUNTERS]| {
            for (i, a) in self.counters.iter().enumerate() {
                vals[i] = a.load(Ordering::Acquire);
            }
        };
        let mut vals = [0u64; NUM_SERVE_COUNTERS];
        sweep(&mut vals);
        for _ in 0..8 {
            let mut again = [0u64; NUM_SERVE_COUNTERS];
            sweep(&mut again);
            if again == vals {
                break;
            }
            vals = again;
        }
        let mut latency_buckets = [0u64; NUM_BUCKETS];
        for (i, b) in self.latency.buckets.iter().enumerate() {
            latency_buckets[i] = b.load(Ordering::Relaxed);
        }
        let g = |c: ServeCounter| vals[c as usize];
        StatsSnapshot {
            requests: g(ServeCounter::Requests),
            ok: g(ServeCounter::Ok),
            shed: g(ServeCounter::Shed),
            timeouts: g(ServeCounter::Timeouts),
            retries: g(ServeCounter::Retries),
            degraded: g(ServeCounter::Degraded),
            cache_hits: g(ServeCounter::CacheHits),
            breaker_trips: g(ServeCounter::BreakerTrips),
            breaker_recoveries: g(ServeCounter::BreakerRecoveries),
            failed: g(ServeCounter::Failed),
            bad_requests: g(ServeCounter::BadRequests),
            journal_errors: g(ServeCounter::JournalErrors),
            batches: g(ServeCounter::Batches),
            batched_cells: g(ServeCounter::BatchedCells),
            coalesced: g(ServeCounter::Coalesced),
            keepalive_reuses: g(ServeCounter::KeepAliveReuses),
            advised: g(ServeCounter::Advised),
            latency_buckets,
        }
    }
}

/// A copy of every counter plus the latency buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeCounter::Requests`].
    pub requests: u64,
    /// See [`ServeCounter::Ok`].
    pub ok: u64,
    /// See [`ServeCounter::Shed`].
    pub shed: u64,
    /// See [`ServeCounter::Timeouts`].
    pub timeouts: u64,
    /// See [`ServeCounter::Retries`].
    pub retries: u64,
    /// See [`ServeCounter::Degraded`].
    pub degraded: u64,
    /// See [`ServeCounter::CacheHits`].
    pub cache_hits: u64,
    /// See [`ServeCounter::BreakerTrips`].
    pub breaker_trips: u64,
    /// See [`ServeCounter::BreakerRecoveries`].
    pub breaker_recoveries: u64,
    /// See [`ServeCounter::Failed`].
    pub failed: u64,
    /// See [`ServeCounter::BadRequests`].
    pub bad_requests: u64,
    /// See [`ServeCounter::JournalErrors`].
    pub journal_errors: u64,
    /// See [`ServeCounter::Batches`].
    pub batches: u64,
    /// See [`ServeCounter::BatchedCells`].
    pub batched_cells: u64,
    /// See [`ServeCounter::Coalesced`].
    pub coalesced: u64,
    /// See [`ServeCounter::KeepAliveReuses`].
    pub keepalive_reuses: u64,
    /// See [`ServeCounter::Advised`].
    pub advised: u64,
    /// Log₂ latency buckets (microseconds).
    pub latency_buckets: [u64; NUM_BUCKETS],
}

impl StatsSnapshot {
    /// Value of one counter by enum (the `/metrics` renderer iterates
    /// [`ServeCounter::ALL`] so the exposition can't skip a counter).
    #[must_use]
    pub fn get(&self, c: ServeCounter) -> u64 {
        match c {
            ServeCounter::Requests => self.requests,
            ServeCounter::Ok => self.ok,
            ServeCounter::Shed => self.shed,
            ServeCounter::Timeouts => self.timeouts,
            ServeCounter::Retries => self.retries,
            ServeCounter::Degraded => self.degraded,
            ServeCounter::CacheHits => self.cache_hits,
            ServeCounter::BreakerTrips => self.breaker_trips,
            ServeCounter::BreakerRecoveries => self.breaker_recoveries,
            ServeCounter::Failed => self.failed,
            ServeCounter::BadRequests => self.bad_requests,
            ServeCounter::JournalErrors => self.journal_errors,
            ServeCounter::Batches => self.batches,
            ServeCounter::BatchedCells => self.batched_cells,
            ServeCounter::Coalesced => self.coalesced,
            ServeCounter::KeepAliveReuses => self.keepalive_reuses,
            ServeCounter::Advised => self.advised,
        }
    }

    /// Bucket-floor latency percentile in microseconds (`0.0..=100.0`).
    pub fn latency_percentile_floor(&self, p: f64) -> u64 {
        percentile_floor(&self.latency_buckets, p)
    }

    /// Renders the counters as a flat JSON object body.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        for c in ServeCounter::ALL {
            out.push_str(&format!("\"{}\":{},", c.name(), self.get(c)));
        }
        out.push_str(&format!(
            "\"latency_p50_floor_us\":{},\"latency_p99_floor_us\":{}}}",
            self.latency_percentile_floor(50.0),
            self.latency_percentile_floor(99.0),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_counter_registration_stays_in_sync() {
        assert_eq!(ServeCounter::ALL.len(), NUM_SERVE_COUNTERS);
        let mut names: Vec<&str> = ServeCounter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SERVE_COUNTERS);
        for (i, c) in ServeCounter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "storage order mismatch for {c:?}");
        }
    }

    #[test]
    fn bump_get_and_snapshot_agree() {
        let s = Stats::new();
        s.bump(ServeCounter::Requests);
        s.bump(ServeCounter::Requests);
        s.add(ServeCounter::BatchedCells, 5);
        assert_eq!(s.get(ServeCounter::Requests), 2);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.batched_cells, 5);
        assert_eq!(snap.get(ServeCounter::BatchedCells), 5);
        assert!(snap.to_json().contains("\"batched_cells\":5"));
    }

    #[test]
    fn latency_percentiles_walk_the_buckets() {
        let s = Stats::new();
        for us in [1u64, 2, 4, 1000, 1000, 1000, 1000, 100_000] {
            s.record_latency(us);
        }
        let snap = s.snapshot();
        // 8 samples: p50 rank 4 lands in the 1000 µs bucket (floor 512)
        assert_eq!(snap.latency_percentile_floor(50.0), 512);
        // p99 rank 8 lands in the 100 ms bucket (floor 65536)
        assert_eq!(snap.latency_percentile_floor(99.0), 65_536);
        assert_eq!(snap.latency_percentile_floor(0.0), 1);
        assert!(snap.to_json().contains("\"latency_p50_floor_us\":512"));
        // the rolling window saw the same 8 samples (all just recorded)
        assert_eq!(s.rolling_snapshot().count(), 8);
    }

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let s = Stats::new();
        // no samples yet: minimum 1 s advice
        assert_eq!(s.retry_after_secs(0), 1);
        for _ in 0..50 {
            s.record_latency(2_000_000); // 2 s requests
        }
        assert!(s.retry_after_secs(3) >= 4, "4 × ~2 s should advise ≥ 4 s");
    }

    #[test]
    fn snapshot_sweep_settles_under_concurrent_bumps() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let s = Arc::new(Stats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // requests and coalesced move together: a coherent
                    // sweep can never observe coalesced > requests
                    s.bump(ServeCounter::Requests);
                    s.bump(ServeCounter::Coalesced);
                    // request-scale pacing (bumps arrive per request, not
                    // back-to-back) — gives the double sweep a window to
                    // observe two identical passes
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        for _ in 0..200 {
            let snap = s.snapshot();
            assert!(
                snap.coalesced <= snap.requests,
                "torn snapshot: coalesced {} > requests {}",
                snap.coalesced,
                snap.requests
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
