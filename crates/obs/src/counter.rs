//! Pre-registered, allocation-free atomic counters.
//!
//! Registration is the enum itself: every counter the workspace ever bumps
//! is a [`Counter`] variant indexing static storage — there is nothing to
//! allocate, look up, or lock on the record path. Each counter owns
//! [`NUM_SHARDS`] cache-line-aligned `AtomicU64` slots; a thread picks its
//! shard once (round-robin, stored in a const-initialized thread-local
//! `Cell`, no lazy allocation) and every increment after that is one
//! relaxed `fetch_add` on a line it rarely shares. Reads sum the shards.
//!
//! Counters wrap on overflow (relaxed `fetch_add` semantics); consumers
//! take deltas with [`CounterSnapshot::delta_since`], which subtracts with
//! wrapping arithmetic so a wrapped counter still yields the right delta.

#[cfg(feature = "telemetry")]
use std::cell::Cell;
#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of registered counters (kept in sync with [`Counter::ALL`]).
pub const NUM_COUNTERS: usize = 30;

/// Every counter in the workspace, grouped by layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    // ---- gpusim: per-launch simulator counters ----
    /// Kernel launches simulated.
    SimLaunches,
    /// Simulated cycles accumulated across launches (rounded per launch).
    SimCycles,
    /// Global-memory accesses recorded by warp step tables.
    SimGlobalAccesses,
    /// Shared-memory (block-scope) atomic operations.
    SimSharedAtomics,
    /// Memory transactions from fully coalesced warp steps (one 128 B
    /// segment for the whole warp).
    SimCoalescedTxns,
    /// Memory transactions issued by non-coalesced warp steps (one per
    /// distinct 128 B segment).
    SimUncoalescedTxns,
    /// Global atomic RMW operations (classic and `cuda::atomic`).
    SimAtomicOps,
    /// Atomic operations that hit an address another lane of the same warp
    /// step already touched — the cost model's stand-in for contention
    /// retries.
    SimAtomicConflicts,
    /// Multi-threaded launch fan-outs through the block-execution pool.
    SimPoolJobs,
    /// Parked-worker engagements with a pool job (excludes the caller, who
    /// always participates).
    SimPoolEngagements,
    // ---- exec: CPU substrate counters ----
    /// Pool-cache leases served from an idle cached pool.
    ExecLeaseHits,
    /// Pool-cache leases that had to spawn a fresh pool.
    ExecLeaseMisses,
    /// OpenMP-analog parallel regions executed.
    ExecRegions,
    /// Wall nanoseconds workers spent inside region bodies (busy time).
    ExecWorkerBusyNanos,
    /// Wall nanoseconds workers spent waiting inside regions (region wall
    /// × team size − busy; approximate under concurrent regions).
    ExecWorkerIdleNanos,
    /// Worklist pushes that landed (including `try_push` successes).
    ExecWorklistPushes,
    /// `try_push` calls dropped at capacity.
    ExecWorklistDrops,
    /// Worklist item reads (`get`).
    ExecWorklistPops,
    /// Sparse-frontier pushes in the tuned CPU baselines (DESIGN.md §7.7).
    FrontierPushes,
    /// Direction switches taken by direction-optimizing BFS (top-down ↔
    /// bottom-up).
    FrontierDirectionSwitches,
    /// Delta-stepping bucket insertions (first placement and relocations).
    FrontierBucketPushes,
    /// Delta-stepping entries found stale at pop (vertex already settled in
    /// a lower bucket) — the reinsertion overhead of the bucket structure.
    FrontierBucketReinsertions,
    // ---- harness: supervision + journal counters ----
    /// Cells registered with the watchdog.
    WatchdogArmed,
    /// Wall-clock budgets the watchdog actually fired.
    WatchdogFired,
    /// Checkpoint-journal lines appended.
    JournalAppends,
    /// Wall nanoseconds spent appending+flushing journal lines.
    JournalAppendNanos,
    // ---- sanitizer: style-conformance findings (DESIGN.md §7.6) ----
    /// Conflicting addresses the sanitizer classified (benign or racy).
    SanitizeConflicts,
    /// Style-label violations the sanitizer confirmed.
    SanitizeViolations,
    // ---- serve: the two events `serve::Stats` does not count itself ----
    /// `/metrics` exposition scrapes served (DESIGN.md §7.10).
    ServeMetricsScrapes,
    /// Flight-recorder dumps written to `FLIGHT_*.jsonl` (5xx triggers and
    /// on-demand `/debug/flightrec` requests are counted separately; this
    /// counts files actually written).
    ServeFlightDumps,
}

impl Counter {
    /// Every counter, in storage order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::SimLaunches,
        Counter::SimCycles,
        Counter::SimGlobalAccesses,
        Counter::SimSharedAtomics,
        Counter::SimCoalescedTxns,
        Counter::SimUncoalescedTxns,
        Counter::SimAtomicOps,
        Counter::SimAtomicConflicts,
        Counter::SimPoolJobs,
        Counter::SimPoolEngagements,
        Counter::ExecLeaseHits,
        Counter::ExecLeaseMisses,
        Counter::ExecRegions,
        Counter::ExecWorkerBusyNanos,
        Counter::ExecWorkerIdleNanos,
        Counter::ExecWorklistPushes,
        Counter::ExecWorklistDrops,
        Counter::ExecWorklistPops,
        Counter::FrontierPushes,
        Counter::FrontierDirectionSwitches,
        Counter::FrontierBucketPushes,
        Counter::FrontierBucketReinsertions,
        Counter::WatchdogArmed,
        Counter::WatchdogFired,
        Counter::JournalAppends,
        Counter::JournalAppendNanos,
        Counter::SanitizeConflicts,
        Counter::SanitizeViolations,
        Counter::ServeMetricsScrapes,
        Counter::ServeFlightDumps,
    ];

    /// Stable machine name (used in trace `counters` events and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimLaunches => "sim.launches",
            Counter::SimCycles => "sim.cycles",
            Counter::SimGlobalAccesses => "sim.global_accesses",
            Counter::SimSharedAtomics => "sim.shared_atomics",
            Counter::SimCoalescedTxns => "sim.coalesced_txns",
            Counter::SimUncoalescedTxns => "sim.uncoalesced_txns",
            Counter::SimAtomicOps => "sim.atomic_ops",
            Counter::SimAtomicConflicts => "sim.atomic_conflicts",
            Counter::SimPoolJobs => "sim.pool_jobs",
            Counter::SimPoolEngagements => "sim.pool_engagements",
            Counter::ExecLeaseHits => "exec.lease_hits",
            Counter::ExecLeaseMisses => "exec.lease_misses",
            Counter::ExecRegions => "exec.regions",
            Counter::ExecWorkerBusyNanos => "exec.worker_busy_nanos",
            Counter::ExecWorkerIdleNanos => "exec.worker_idle_nanos",
            Counter::ExecWorklistPushes => "exec.worklist_pushes",
            Counter::ExecWorklistDrops => "exec.worklist_drops",
            Counter::ExecWorklistPops => "exec.worklist_pops",
            Counter::FrontierPushes => "frontier.pushes",
            Counter::FrontierDirectionSwitches => "frontier.direction_switches",
            Counter::FrontierBucketPushes => "frontier.bucket_pushes",
            Counter::FrontierBucketReinsertions => "frontier.bucket_reinsertions",
            Counter::WatchdogArmed => "harness.watchdog_armed",
            Counter::WatchdogFired => "harness.watchdog_fired",
            Counter::JournalAppends => "harness.journal_appends",
            Counter::JournalAppendNanos => "harness.journal_append_nanos",
            Counter::SanitizeConflicts => "sanitize.conflicts",
            Counter::SanitizeViolations => "sanitize.violations",
            Counter::ServeMetricsScrapes => "serve.metrics_scrapes",
            Counter::ServeFlightDumps => "serve.flight_dumps",
        }
    }

    /// Adds `n` (wrapping). Compiles to nothing without `telemetry`.
    #[inline(always)]
    pub fn add(self, n: u64) {
        #[cfg(feature = "telemetry")]
        storage::shard()[self as usize].fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "telemetry"))]
        let _ = n;
    }

    /// Adds 1.
    #[inline(always)]
    pub fn incr(self) {
        self.add(1);
    }

    /// Current value (sum over shards); always 0 without `telemetry`.
    #[must_use]
    pub fn get(self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            storage::sum(self as usize)
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }
}

/// Shards per counter. Threads map round-robin onto shards, bounding the
/// worst-case contention on any one cache line to `threads / NUM_SHARDS`.
#[cfg(feature = "telemetry")]
pub const NUM_SHARDS: usize = 8;

#[cfg(feature = "telemetry")]
mod storage {
    use super::{AtomicU64, AtomicUsize, Cell, Ordering, NUM_COUNTERS, NUM_SHARDS};

    /// One shard: a full set of counters on its own cache-line boundary.
    /// A thread only ever touches its own shard, so intra-shard sharing is
    /// same-thread and free; cross-thread traffic lands on distinct shards.
    #[repr(align(64))]
    struct Shard([AtomicU64; NUM_COUNTERS]);

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_SHARD: Shard = {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Shard([Z; NUM_COUNTERS])
    };
    static SHARDS: [Shard; NUM_SHARDS] = [ZERO_SHARD; NUM_SHARDS];
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// This thread's shard index; `usize::MAX` = not yet assigned.
        /// Const-initialized: no lazy TLS allocation on first touch.
        static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// The calling thread's shard (assigned round-robin on first use).
    #[inline]
    pub(super) fn shard() -> &'static [AtomicU64; NUM_COUNTERS] {
        let idx = MY_SHARD.with(|s| {
            let v = s.get();
            if v != usize::MAX {
                return v;
            }
            let v = NEXT.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
            s.set(v);
            v
        });
        &SHARDS[idx].0
    }

    /// Sum of one counter across all shards (wrapping).
    pub(super) fn sum(counter: usize) -> u64 {
        SHARDS.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.0[counter].load(Ordering::Relaxed))
        })
    }
}

/// A point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// All-zero snapshot.
    #[must_use]
    pub fn zero() -> CounterSnapshot {
        CounterSnapshot {
            values: [0; NUM_COUNTERS],
        }
    }

    /// Value of one counter.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Per-counter difference `self − earlier`, with wrapping subtraction
    /// so counters that overflowed between the snapshots stay correct.
    #[must_use]
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].wrapping_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Sum of every counter (diagnostics; wrapping).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.values.iter().fold(0u64, |a, &v| a.wrapping_add(v))
    }
}

/// Snapshots every counter. Each counter is read atomically (per shard),
/// and successive snapshots are per-counter monotonic while increments run
/// concurrently; there is no cross-counter atomicity (nor does any
/// consumer need it — deltas are taken around quiesced windows).
#[must_use]
pub fn counters_snapshot() -> CounterSnapshot {
    let mut values = [0u64; NUM_COUNTERS];
    for (i, v) in values.iter_mut().enumerate() {
        *v = Counter::ALL[i].get();
    }
    CounterSnapshot { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_complete_and_names_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "storage order mismatch for {c:?}");
        }
    }

    /// `Counter::ALL` order, `NUM_COUNTERS`, and the name table must stay
    /// in lockstep: drift here silently mislabels every exported metric
    /// (the `/metrics` exposition indexes storage by `ALL` position).
    #[test]
    fn all_num_counters_and_name_table_stay_in_sync() {
        // ALL's length is NUM_COUNTERS by type, but assert it anyway so a
        // future refactor to a Vec keeps the invariant visible.
        assert_eq!(Counter::ALL.len(), NUM_COUNTERS);
        // the enum discriminants are exactly 0..NUM_COUNTERS in ALL order,
        // so `ALL[c as usize] == c` round-trips for every variant
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(Counter::ALL[*c as usize], *c);
            assert_eq!(*c as usize, i);
        }
        // every name is `layer.snake_case` — non-empty, one dot, and only
        // characters that survive the Prometheus sanitization (`.` → `_`)
        for c in Counter::ALL {
            let name = c.name();
            assert!(!name.is_empty(), "{c:?} has an empty name");
            assert_eq!(
                name.matches('.').count(),
                1,
                "{c:?} name `{name}` must be layer.metric"
            );
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || "._".contains(ch)),
                "{c:?} name `{name}` has characters invalid for exposition"
            );
        }
    }

    #[test]
    fn snapshot_delta_is_wrapping() {
        // a counter that wrapped past u64::MAX between two snapshots must
        // still produce the true (small) delta
        let mut before = CounterSnapshot::zero();
        let mut after = CounterSnapshot::zero();
        before.values[0] = u64::MAX - 2;
        after.values[0] = 5; // wrapped: 3 to reach MAX+1(=0), then 5 more
        assert_eq!(after.delta_since(&before).values[0], 8);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_build_records_nothing() {
        Counter::SimLaunches.add(1_000);
        Counter::ExecWorklistPushes.incr();
        assert_eq!(Counter::SimLaunches.get(), 0);
        assert!(counters_snapshot().is_zero());
        assert!(!crate::enabled());
    }

    #[cfg(feature = "telemetry")]
    mod live {
        use super::super::*;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // Counter storage is process-global and Rust runs tests on separate
        // threads, so the live tests use disjoint counters per test.

        #[test]
        fn increments_are_visible_and_wrap() {
            let base = Counter::JournalAppendNanos.get();
            Counter::JournalAppendNanos.add(3);
            Counter::JournalAppendNanos.incr();
            assert_eq!(Counter::JournalAppendNanos.get(), base.wrapping_add(4));
            // overflow: adding u64::MAX wraps rather than panicking, and a
            // snapshot delta across the wrap still reads as u64::MAX
            let before = counters_snapshot();
            Counter::JournalAppendNanos.add(u64::MAX);
            let after = counters_snapshot();
            assert_eq!(
                after.delta_since(&before).get(Counter::JournalAppendNanos),
                u64::MAX
            );
        }

        #[test]
        fn snapshots_are_monotonic_under_concurrent_increments() {
            let stop = Arc::new(AtomicBool::new(false));
            let base = Counter::WatchdogArmed.get();
            const PER_THREAD: u64 = 50_000;
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        for _ in 0..PER_THREAD {
                            Counter::WatchdogArmed.incr();
                        }
                    })
                })
                .collect();
            // while writers hammer, successive snapshots never go backwards
            let reader = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let now = counters_snapshot().get(Counter::WatchdogArmed);
                        assert!(now >= last, "snapshot regressed: {now} < {last}");
                        last = now;
                    }
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap();
            // and the settled total is exact: no lost increments
            assert_eq!(Counter::WatchdogArmed.get(), base + 4 * PER_THREAD);
        }
    }
}
