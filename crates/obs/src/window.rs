//! Rolling-window log₂ histograms: a ring of per-second buckets.
//!
//! The cumulative histograms in [`crate::hist`] answer "since boot"; a
//! live dashboard needs "right now". [`RollingHist`] keeps
//! [`WINDOW_SECS`] one-second rows of the same log₂ buckets, indexed by
//! `second % WINDOW_SECS`. A recorder that lands on a stale row CAS-claims
//! it for the current second and clears it; a snapshot sums only rows
//! whose claimed second is still inside the window. p50/p99 and SLO
//! violation ratios computed from a snapshot therefore reflect the last
//! ~10 s of traffic, not the whole process lifetime.
//!
//! The structure is instance-owned (not a static registry) and always
//! compiled: the serving layer keeps its rolling window alive in every
//! build because the chaos invariants and `/metrics` agreement checks run
//! against telemetry-off binaries. Recording is lock- and allocation-free.
//! The window is deliberately approximate at second boundaries: a sample
//! racing a row reset can land in the cleared row or be lost — one sample
//! of error per rotation, which percentile floors already absorb.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::now_micros;
use crate::hist::{bucket_floor, bucket_of, percentile_floor, NUM_BUCKETS};

/// Seconds of history a [`RollingHist`] retains.
pub const WINDOW_SECS: usize = 10;

/// One second's worth of buckets. `epoch` holds `second + 1` of the
/// traffic it contains (0 = never written).
struct Row {
    epoch: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Row {
    fn new() -> Row {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Row {
            epoch: AtomicU64::new(0),
            buckets: [Z; NUM_BUCKETS],
        }
    }
}

/// A 10-second rolling log₂ histogram (see module docs).
pub struct RollingHist {
    rows: [Row; WINDOW_SECS],
}

impl Default for RollingHist {
    fn default() -> RollingHist {
        RollingHist::new()
    }
}

impl RollingHist {
    /// An empty window.
    #[must_use]
    pub fn new() -> RollingHist {
        RollingHist {
            rows: std::array::from_fn(|_| Row::new()),
        }
    }

    /// Records one value at the current process-monotonic second.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_at(now_micros() / 1_000_000, v);
    }

    /// Records one value at an explicit second (tests use this to cross
    /// window boundaries deterministically).
    pub fn record_at(&self, now_sec: u64, v: u64) {
        let tag = now_sec + 1; // 0 is reserved for "never written"
        let row = &self.rows[(now_sec as usize) % WINDOW_SECS];
        let seen = row.epoch.load(Ordering::Acquire);
        if seen != tag {
            // stale row from a previous rotation: first arrival claims and
            // clears it; losers just record — the row is already current
            if row
                .epoch
                .compare_exchange(seen, tag, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for b in &row.buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
        row.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the rows still inside the window ending at the current second.
    #[must_use]
    pub fn snapshot(&self) -> RollingSnapshot {
        self.snapshot_at(now_micros() / 1_000_000)
    }

    /// Sums the rows still inside the window ending at `now_sec`.
    #[must_use]
    pub fn snapshot_at(&self, now_sec: u64) -> RollingSnapshot {
        let oldest_tag = (now_sec + 1).saturating_sub(WINDOW_SECS as u64 - 1);
        let mut buckets = [0u64; NUM_BUCKETS];
        for row in &self.rows {
            let tag = row.epoch.load(Ordering::Acquire);
            if tag == 0 || tag < oldest_tag || tag > now_sec + 1 {
                continue; // never written, aged out, or from a racing future second
            }
            for (i, b) in row.buckets.iter().enumerate() {
                buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        RollingSnapshot { buckets }
    }
}

/// A point-in-time sum of the live rows of a [`RollingHist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RollingSnapshot {
    /// Log₂ bucket counts (same edges as [`crate::hist`]).
    pub buckets: [u64; NUM_BUCKETS],
}

impl RollingSnapshot {
    /// Total samples inside the window.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// [`percentile_floor`] of the window; 0 when empty.
    #[must_use]
    pub fn percentile_floor(&self, p: f64) -> u64 {
        percentile_floor(&self.buckets, p)
    }

    /// Samples whose bucket floor is at or above `threshold` — the SLO
    /// violation count at bucket granularity (counts a bucket as violating
    /// only when every value it can hold is ≥ `threshold`, so this is a
    /// lower bound).
    #[must_use]
    pub fn over(&self, threshold: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| bucket_floor(*i) >= threshold && *i > 0)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Fraction of windowed samples at or above `threshold` (0.0 when the
    /// window is empty).
    #[must_use]
    pub fn violation_ratio(&self, threshold: u64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        self.over(threshold) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_drops_rows_older_than_ten_seconds() {
        let w = RollingHist::new();
        w.record_at(100, 50);
        w.record_at(104, 50);
        w.record_at(109, 50);
        assert_eq!(w.snapshot_at(109).count(), 3);
        // at t=113 the t=100 row has aged out (window covers 104..=113)
        assert_eq!(w.snapshot_at(113).count(), 2);
        // at t=120 everything is gone
        assert_eq!(w.snapshot_at(120).count(), 0);
    }

    #[test]
    fn ring_reuse_clears_the_stale_row() {
        let w = RollingHist::new();
        for _ in 0..5 {
            w.record_at(7, 100);
        }
        // second 17 maps onto the same row (17 % 10 == 7 % 10) and must
        // not inherit second 7's five samples
        w.record_at(17, 100);
        assert_eq!(w.snapshot_at(17).count(), 1);
    }

    #[test]
    fn percentiles_and_slo_ratio_track_the_window() {
        let w = RollingHist::new();
        for _ in 0..90 {
            w.record_at(50, 100); // bucket floor 64
        }
        for _ in 0..10 {
            w.record_at(50, 10_000); // bucket floor 8192
        }
        let snap = w.snapshot_at(50);
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.percentile_floor(50.0), 64);
        assert_eq!(snap.percentile_floor(99.0), 8192);
        assert_eq!(snap.over(8192), 10);
        assert!((snap.violation_ratio(8192) - 0.10).abs() < 1e-9);
        assert_eq!(snap.violation_ratio(1 << 20), 0.0);
    }

    #[test]
    fn empty_window_is_all_zeros() {
        let snap = RollingHist::new().snapshot_at(42);
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.percentile_floor(99.0), 0);
        assert_eq!(snap.violation_ratio(1), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_at_most_boundary_samples() {
        use std::sync::Arc;
        let w = Arc::new(RollingHist::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        w.record_at(200, 77);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // one second, no rotation: every sample lands
        assert_eq!(w.snapshot_at(200).count(), 40_000);
    }
}
