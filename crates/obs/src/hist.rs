//! Pre-registered, allocation-free log₂ histograms.
//!
//! Same registration model as [`crate::counter`]: every histogram is a
//! [`Hist`] variant indexing a static bucket array, so recording is one
//! relaxed `fetch_add` with no allocation. Buckets are powers of two:
//! bucket 0 holds the value 0, bucket `k ≥ 1` holds `[2^(k−1), 2^k)`, and
//! the last bucket absorbs everything above `2^(NUM_BUCKETS−2)`.
//! Histograms are recorded at coarse boundaries (per launch, per journal
//! append), so they use plain unsharded storage.

#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per histogram.
pub const NUM_BUCKETS: usize = 32;

/// Number of registered histograms.
pub const NUM_HISTS: usize = 11;

/// Every histogram in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Simulated cycles per kernel launch.
    LaunchCycles,
    /// Per-launch SM load imbalance: max-SM work over mean-SM work, in
    /// permille (1000 = perfectly balanced).
    SmImbalancePermille,
    /// Checkpoint-journal append+flush latency, microseconds.
    JournalAppendMicros,
    /// Wall time per executed measurement cell, microseconds.
    CellMicros,
    /// Sparse-frontier size at each level flip in the tuned CPU baselines
    /// (DESIGN.md §7.7).
    FrontierOccupancy,
    /// End-to-end request latency in the query server, microseconds
    /// (accept → response flushed; DESIGN.md §7.8).
    ServeRequestMicros,
    /// Admission-queue depth sampled at each enqueue.
    ServeQueueDepth,
    /// Time a request sat in the admission queue before a worker picked it
    /// up, microseconds (DESIGN.md §7.10 stage attribution).
    ServeQueueWaitMicros,
    /// Time between a cell claim being queued for the serve executor and
    /// its plan starting to execute, microseconds.
    ServeBatchWaitMicros,
    /// Engine execution time (route entry → response body assembled),
    /// microseconds.
    ServeExecuteMicros,
    /// Response serialization + socket write time, microseconds.
    ServeWriteMicros,
}

impl Hist {
    /// Every histogram, in storage order.
    pub const ALL: [Hist; NUM_HISTS] = [
        Hist::LaunchCycles,
        Hist::SmImbalancePermille,
        Hist::JournalAppendMicros,
        Hist::CellMicros,
        Hist::FrontierOccupancy,
        Hist::ServeRequestMicros,
        Hist::ServeQueueDepth,
        Hist::ServeQueueWaitMicros,
        Hist::ServeBatchWaitMicros,
        Hist::ServeExecuteMicros,
        Hist::ServeWriteMicros,
    ];

    /// Stable machine name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::LaunchCycles => "sim.launch_cycles",
            Hist::SmImbalancePermille => "sim.sm_imbalance_permille",
            Hist::JournalAppendMicros => "harness.journal_append_micros",
            Hist::CellMicros => "harness.cell_micros",
            Hist::FrontierOccupancy => "frontier.occupancy",
            Hist::ServeRequestMicros => "serve.request_micros",
            Hist::ServeQueueDepth => "serve.queue_depth",
            Hist::ServeQueueWaitMicros => "serve.queue_wait_micros",
            Hist::ServeBatchWaitMicros => "serve.batch_wait_micros",
            Hist::ServeExecuteMicros => "serve.execute_micros",
            Hist::ServeWriteMicros => "serve.write_micros",
        }
    }

    /// Records one value. Compiles to nothing without `telemetry`.
    #[inline(always)]
    pub fn record(self, v: u64) {
        #[cfg(feature = "telemetry")]
        storage::BUCKETS[self as usize][bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        #[cfg(not(feature = "telemetry"))]
        let _ = v;
    }
}

/// The bucket index `v` lands in.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Lower edge of bucket `i` (inclusive).
#[inline]
#[must_use]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Bucket-floor estimate of the `p`-th percentile (`0.0..=100.0`) of one
/// log₂ bucket array: the lower edge of the bucket where the cumulative
/// count crosses. Returns 0 when nothing was recorded. The one routine
/// behind every bucketed percentile in the workspace.
#[must_use]
pub fn percentile_floor(buckets: &[u64; NUM_BUCKETS], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_floor(i);
        }
    }
    bucket_floor(NUM_BUCKETS - 1)
}

#[cfg(feature = "telemetry")]
mod storage {
    use super::{AtomicU64, NUM_BUCKETS, NUM_HISTS};

    #[allow(clippy::declare_interior_mutable_const)]
    const Z: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [AtomicU64; NUM_BUCKETS] = [Z; NUM_BUCKETS];
    pub(super) static BUCKETS: [[AtomicU64; NUM_BUCKETS]; NUM_HISTS] = [ROW; NUM_HISTS];
}

/// A point-in-time copy of every histogram's buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: [[u64; NUM_BUCKETS]; NUM_HISTS],
}

impl HistSnapshot {
    /// All-zero snapshot.
    #[must_use]
    pub fn zero() -> HistSnapshot {
        HistSnapshot {
            counts: [[0; NUM_BUCKETS]; NUM_HISTS],
        }
    }

    /// Bucket counts of one histogram.
    #[must_use]
    pub fn buckets(&self, h: Hist) -> &[u64; NUM_BUCKETS] {
        &self.counts[h as usize]
    }

    /// Total samples recorded into one histogram.
    #[must_use]
    pub fn count(&self, h: Hist) -> u64 {
        self.counts[h as usize].iter().sum()
    }

    /// [`percentile_floor`] of one histogram.
    #[must_use]
    pub fn percentile_floor(&self, h: Hist, p: f64) -> u64 {
        percentile_floor(self.buckets(h), p)
    }
}

/// Snapshots every histogram (all zeros without `telemetry`).
#[must_use]
pub fn hists_snapshot() -> HistSnapshot {
    #[cfg(feature = "telemetry")]
    {
        let mut counts = [[0u64; NUM_BUCKETS]; NUM_HISTS];
        for (h, row) in counts.iter_mut().enumerate() {
            for (b, v) in row.iter_mut().enumerate() {
                *v = storage::BUCKETS[h][b].load(Ordering::Relaxed);
            }
        }
        HistSnapshot { counts }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        HistSnapshot::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        // every bucket's floor lands in its own bucket, and floor−1 in the
        // previous one — the edges are tight
        for i in 2..NUM_BUCKETS {
            let lo = bucket_floor(i);
            assert_eq!(bucket_of(lo), i, "floor of bucket {i}");
            assert_eq!(bucket_of(lo - 1), i - 1, "below floor of bucket {i}");
        }
        // the last bucket absorbs everything huge
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 40), NUM_BUCKETS - 1);
    }

    #[test]
    fn names_unique_and_order_stable() {
        let mut names: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_HISTS);
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn percentile_floor_on_empty_is_zero() {
        let snap = HistSnapshot::zero();
        assert_eq!(snap.percentile_floor(Hist::LaunchCycles, 50.0), 0);
        assert_eq!(snap.count(Hist::LaunchCycles), 0);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_build_records_nothing() {
        Hist::LaunchCycles.record(123);
        assert_eq!(hists_snapshot().count(Hist::LaunchCycles), 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn recording_fills_the_right_buckets() {
        // Hist storage is process-global; this is the only test that
        // records into CellMicros, so its deltas are self-consistent.
        let before = hists_snapshot();
        Hist::CellMicros.record(0);
        Hist::CellMicros.record(1);
        Hist::CellMicros.record(1000); // bucket_of(1000) = 10
        let after = hists_snapshot();
        let b = |i: usize| after.buckets(Hist::CellMicros)[i] - before.buckets(Hist::CellMicros)[i];
        assert_eq!(b(0), 1);
        assert_eq!(b(1), 1);
        assert_eq!(b(10), 1);
        assert_eq!(
            after.count(Hist::CellMicros) - before.count(Hist::CellMicros),
            3
        );
    }
}
