//! Tier-2: the deterministic perf contract (DESIGN.md §7.4, §7.7).
//!
//! **Allocations.** A counting global allocator observes warmed-up
//! windows: after the first launches have grown the per-thread
//! `StepTable`s, sized the outcome arena, and built the SM merge heap,
//! every subsequent launch must run allocation-free — per-launch
//! `Vec`/`StepTable::new` churn cannot silently come back. The same holds
//! for the tuned CPU baselines, feature extraction, telemetry recording
//! and the serving observability primitives.
//!
//! **Exact counts.** The same windows pin what the cost model and the
//! tuned kernels *do*: simulated cycles, accesses, the
//! coalesced/uncoalesced transaction split and atomic ops/conflicts for
//! the five simulator workloads ([`SIM_COUNTS`]), and single-thread
//! frontier/bucket traffic for the six baselines on three suite graphs
//! ([`CPU_COUNTS`]). Comparison is `assert_eq!` against the inline
//! tables; a mismatch prints the observed row in table syntax, so a
//! deliberate model change updates the table in the diff that causes it.
//! `Sim`'s own clock is checked in every build; the obs-counter fields
//! only exist when `--features telemetry` is on (CI runs both ways).
//!
//! Everything runs inside ONE `#[test]` function: the allocation counter
//! and the obs counters are process-global, and Rust's test harness runs
//! separate tests on separate threads, which would make the deltas racy.
//! Even with one test, libtest's own harness thread occasionally
//! allocates while a window is open, so each allocation window is
//! measured as a minimum over a few attempts — a real per-launch
//! regression allocates on every attempt, ambient harness noise does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use indigo_core::{GraphInput, SOURCE};
use indigo_gpusim::{rtx3090, Assign, BufKind, GpuBuf, ReduceStyle, Sim, WARP_SIZE};
use indigo_graph::gen::{self, suite_graph, Scale, SuiteGraph};
use indigo_obs::{counters_snapshot, Counter};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Minimum allocation delta over up to `attempts` runs of `body`,
/// stopping early once an attempt lands within `budget`. Retrying
/// filters out allocations from libtest's harness thread (the counter
/// is process-global); a genuine hot-path regression allocates on
/// every attempt and is still caught.
fn min_delta(attempts: usize, budget: u64, mut body: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        let before = allocs();
        body();
        best = best.min(allocs() - before);
        if best <= budget {
            break;
        }
    }
    best
}

/// Launches per counted simulator window; every [`SIM_COUNTS`] value is a
/// sum over this many identical launches.
const WINDOW: usize = 63;

/// `(workload, [cycles, accesses, coalesced_txns, uncoalesced_txns,
/// atomic_ops, atomic_conflicts])` over one [`WINDOW`] on `rtx3090()`.
/// Cycles are truncated per launch, as `Counter::SimCycles` records them.
type SimRow = (&'static str, [u64; 6]);
const SIM_COUNTS: [SimRow; 5] = [
    ("thread_stream", [64386, 2064384, 64512, 0, 0, 0]),
    ("warp_reduce", [67410, 2064384, 64512, 0, 0, 0]),
    ("thread_stream_pooled", [64386, 2064384, 64512, 0, 0, 0]),
    ("scatter_atomics", [83853, 258048, 0, 0, 258048, 0]),
    ("deep_rounds", [4655448, 2546082, 14238, 2518488, 8064, 126]),
];

/// `(kernel, [pushes, dir_switches, bucket_pushes, bucket_reinserts])` for
/// one warm single-thread call of each tuned baseline from [`SOURCE`] on
/// the `Scale::Small` suite graph — the configuration in which the
/// kernels are fully deterministic.
type CpuRow = (&'static str, [u64; 4]);
const CPU_COUNTS: [(SuiteGraph, [CpuRow; 6]); 3] = [
    (
        SuiteGraph::SocialNetwork,
        [
            ("bfs", [136, 1, 0, 0]),
            ("sssp", [0, 0, 9567, 4499]),
            ("cc", [0, 0, 0, 0]),
            ("mis", [1616, 0, 0, 0]),
            ("pr", [0, 0, 0, 0]),
            ("tc", [0, 0, 0, 0]),
        ],
    ),
    (
        SuiteGraph::RoadMap,
        [
            ("bfs", [3839, 0, 0, 0]),
            ("sssp", [0, 0, 4396, 406]),
            ("cc", [0, 0, 0, 0]),
            ("mis", [1292, 0, 0, 0]),
            ("pr", [0, 0, 0, 0]),
            ("tc", [0, 0, 0, 0]),
        ],
    ),
    (
        SuiteGraph::Grid2d,
        [
            ("bfs", [4095, 0, 0, 0]),
            ("sssp", [0, 0, 5487, 1009]),
            ("cc", [0, 0, 0, 0]),
            ("mis", [1457, 0, 0, 0]),
            ("pr", [0, 0, 0, 0]),
            ("tc", [0, 0, 0, 0]),
        ],
    ),
];

/// One simulator workload: two warm-up launches, then [`WINDOW`] launches
/// that must match `want` exactly and allocate at most `alloc_budget`
/// times.
fn sim_window(want: &SimRow, alloc_budget: u64, mut sim: Sim, launch: impl Fn(&mut Sim)) {
    let (name, _) = *want;
    // warm-up: tables grow, pools spawn, arenas size up; the second round
    // flushes one-time lazy initialization in std (thread parking, panic
    // machinery) that is not part of the launch path proper
    launch(&mut sim);
    launch(&mut sim);
    let allocated = min_delta(5, alloc_budget, || {
        let before = counters_snapshot();
        // fields this build cannot observe stay as expected
        let mut seen = want.1;
        (seen[0], seen[1]) = (0, 0);
        for _ in 0..WINDOW {
            sim.reset_clock();
            launch(&mut sim);
            seen[0] += sim.elapsed_cycles() as u64;
            seen[1] += sim.accesses();
        }
        if indigo_obs::enabled() {
            let d = counters_snapshot().delta_since(&before);
            assert_eq!(
                [d.get(Counter::SimCycles), d.get(Counter::SimGlobalAccesses)],
                seen[..2],
                "`{name}`: obs counters disagree with the Sim's own clock"
            );
            seen[2] = d.get(Counter::SimCoalescedTxns);
            seen[3] = d.get(Counter::SimUncoalescedTxns);
            seen[4] = d.get(Counter::SimAtomicOps);
            seen[5] = d.get(Counter::SimAtomicConflicts);
        }
        assert_eq!(
            (name, seen),
            *want,
            "simulator counts changed; if deliberate, left is the new SIM_COUNTS row"
        );
    });
    assert!(
        allocated <= alloc_budget,
        "`{name}` steady state allocated {allocated} times over {WINDOW} launches"
    );
}

type Kernel<'a> = Box<dyn FnMut() + 'a>;

/// The six tuned CPU baselines as re-runnable calls that keep their own
/// warm output buffers, so a steady window sees no output allocations.
fn baseline_kernels(input: &GraphInput, threads: usize) -> [(&'static str, Kernel<'_>); 6] {
    let mut levels = Vec::new();
    let mut dists = Vec::new();
    let mut labels = Vec::new();
    let mut members = Vec::new();
    let mut ranks = Vec::new();
    [
        (
            "bfs",
            Box::new(move || {
                indigo_baselines::bfs::cpu_into(input, threads, SOURCE, &mut levels);
            }),
        ),
        (
            "sssp",
            Box::new(move || {
                indigo_baselines::sssp::cpu_into(input, threads, SOURCE, &mut dists);
            }),
        ),
        (
            "cc",
            Box::new(move || {
                indigo_baselines::cc::cpu_into(input, threads, &mut labels);
            }),
        ),
        (
            "mis",
            Box::new(move || {
                indigo_baselines::mis::cpu_into(input, threads, &mut members);
            }),
        ),
        (
            "pr",
            Box::new(move || {
                indigo_baselines::pr::cpu_into(input, threads, &mut ranks);
            }),
        ),
        (
            "tc",
            Box::new(move || {
                indigo_baselines::tc::cpu(input, threads);
            }),
        ),
    ]
}

#[test]
fn steady_state_launches_do_not_allocate() {
    let device = rtx3090();
    let [thread_stream, warp_reduce, thread_stream_pooled, scatter_atomics, deep_rounds] =
        &SIM_COUNTS;

    // --- serial fast path (ThreadPerItem, no reduce, no epilogue) ---
    {
        const N: usize = 1 << 14;
        let src = GpuBuf::new(N, 7);
        let dst = GpuBuf::new(N, 0);
        sim_window(thread_stream, 0, Sim::new(device), |sim| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&src, i);
                ctx.st(&dst, i, v + 1);
            });
        });
    }

    // --- generic block path (WarpPerItem + shuffle reduction) ---
    {
        const ITEMS: usize = 1 << 10;
        let src = GpuBuf::new(ITEMS * WARP_SIZE, 1);
        sim_window(warp_reduce, 0, Sim::new(device), |sim| {
            sim.launch_reduce_u64(
                ITEMS,
                Assign::WarpPerItem,
                false,
                ReduceStyle::ReductionAdd,
                BufKind::Atomic,
                |ctx, item| {
                    let v = ctx.ld(&src, item * WARP_SIZE + ctx.lane());
                    ctx.reduce_add_u64(u64::from(v));
                },
            );
        });
    }

    // --- pooled deterministic path (parked workers + slot arena) ---
    // A worker's private StepTable grows the first time that worker
    // actually wins a block, and thread scheduling decides when that
    // happens — so the budget allows that one-time growth (a few
    // reallocs) but nothing proportional to the launch count.
    {
        const N: usize = 1 << 14;
        let src = GpuBuf::new(N, 3);
        let dst = GpuBuf::new(N, 0);
        let mut sim = Sim::new(device);
        sim.set_workers(2);
        sim_window(thread_stream_pooled, 4, sim, |sim| {
            sim.launch_det(N, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&src, i);
                ctx.st(&dst, i, v * 2);
            });
        });
    }

    // --- scattered classic atomics: the dedup fallback in finalize ---
    {
        const N: usize = 1 << 12;
        let hist = GpuBuf::new(257, 0).with_kind(BufKind::Atomic);
        sim_window(scatter_atomics, 0, Sim::new(device), |sim| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                // multiplicative hash scatters lanes across the histogram
                let slot = (i.wrapping_mul(2654435761)) % 257;
                ctx.atomic_add(&hist, slot, 1);
            });
        });
    }

    // --- divergent warp rounds deeper than the step table's inline tier ---
    // Per-lane trip counts of 0..=600 give lanes of unequal depth, so a
    // warp round runs hundreds of steps past ordinal 256. The atomic after
    // each lane's loop switches class below (lane 1), at (lane 0) and above
    // (lane 2 and most others) that ordinal, where other lanes still load.
    {
        const N: usize = 128;
        const LEN: usize = 1 << 12;
        let src = GpuBuf::new(LEN, 5);
        let hist = GpuBuf::new(64, 0);
        sim_window(deep_rounds, 0, Sim::new(device), |sim| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                let trip = match i % 32 {
                    0 => 256,
                    1 => 255,
                    2 => 257,
                    3 => 0,
                    _ => (i * 19) % 601,
                };
                let mut acc = 0u32;
                for k in 0..trip {
                    acc = acc.wrapping_add(ctx.ld(&src, (i * 33 + k * 131) % LEN));
                }
                ctx.atomic_add(&hist, (i + acc as usize) % 64, 1);
            });
        });
    }

    // --- the six tuned CPU baselines are steady-state alloc-free too ---
    // (DESIGN.md §7.7.) All traversal scratch is leased capacity-retaining
    // state and the output buffers are kernel-owned, so after the two
    // warm-up calls every `_into` call must allocate nothing. A weighted
    // G(n, p) exercises all kernels including delta-stepping's buckets.
    {
        let input = GraphInput::new(gen::gnp(600, 0.02, 42));
        for (name, kernel) in baseline_kernels(&input, 2).iter_mut() {
            kernel();
            kernel();
            let delta = min_delta(5, 0, kernel);
            assert_eq!(delta, 0, "CPU baseline `{name}` steady state allocated");
        }
    }

    // --- and their frontier/bucket traffic is the committed contract ---
    // The counters are telemetry-gated; the default build has nothing to
    // compare and skips the runs.
    if indigo_obs::enabled() {
        for (graph, rows) in &CPU_COUNTS {
            let input = GraphInput::new(suite_graph(*graph, Scale::Small));
            for ((name, kernel), want) in baseline_kernels(&input, 1).iter_mut().zip(rows) {
                kernel();
                let before = counters_snapshot();
                kernel();
                let d = counters_snapshot().delta_since(&before);
                let seen = [
                    d.get(Counter::FrontierPushes),
                    d.get(Counter::FrontierDirectionSwitches),
                    d.get(Counter::FrontierBucketPushes),
                    d.get(Counter::FrontierBucketReinsertions),
                ];
                assert_eq!(
                    (*name, seen),
                    *want,
                    "{graph:?} counts changed; if deliberate, left is the new CPU_COUNTS row"
                );
            }
        }
    }

    // --- warmed feature extraction is allocation-free too ---
    // (DESIGN.md §7.11.) The style advisor recomputes graph features on
    // the serving path, so `GraphStats::compute_with` must run out of the
    // leased `StatsScratch` once warm — `bfs_far`'s per-call buffers were
    // exactly the regression this window pins.
    {
        let g = gen::gnp(600, 0.02, 42);
        let mut scratch = indigo_graph::stats::StatsScratch::default();
        for _ in 0..2 {
            let _ = indigo_graph::stats::GraphStats::compute_with(&g, &mut scratch);
        }
        let delta = min_delta(5, 0, || {
            for _ in 0..4 {
                let _ = indigo_graph::stats::GraphStats::compute_with(&g, &mut scratch);
            }
        });
        assert_eq!(delta, 0, "warmed feature extraction allocated");
    }

    // --- telemetry recording is allocation-free too (DESIGN.md §7.5) ---
    // Counters and histograms are pre-registered static atomics, so the
    // instrumented hot paths above stay on the zero-alloc budget whether
    // the `telemetry` feature is on (CI runs both ways) or off. Snapshots
    // are plain arrays, also alloc-free.
    let mut snap = indigo_obs::counters_snapshot();
    let mut hists = indigo_obs::hists_snapshot();
    let delta = min_delta(5, 0, || {
        for i in 0..1_000u64 {
            indigo_obs::Counter::SimLaunches.incr();
            indigo_obs::Hist::LaunchCycles.record(i);
        }
        snap = indigo_obs::counters_snapshot();
        hists = indigo_obs::hists_snapshot();
    });
    assert_eq!(delta, 0, "telemetry recording allocated");
    if indigo_obs::enabled() {
        assert!(
            snap.get(indigo_obs::Counter::SimLaunches) >= 1_000,
            "telemetry build lost counter increments"
        );
        assert!(
            snap.get(indigo_obs::Counter::SimCycles) > 0,
            "the launches above recorded no cycles"
        );
        assert!(hists.count(indigo_obs::Hist::LaunchCycles) >= 1_000);
    } else {
        assert!(
            snap.is_zero(),
            "telemetry-off build recorded counters: {snap:?}"
        );
        assert_eq!(hists.count(indigo_obs::Hist::LaunchCycles), 0);
    }

    // --- PR 9 observability primitives are allocation-free too ---
    // Gauges are static atomics; the rolling window is a fixed ring of
    // bucket rows; the flight recorder stores Copy records in a
    // pre-sized seqlock ring. All of them sit on serving hot paths
    // (admission, reactor turn, request completion), so pushes and
    // snapshots must never touch the heap.
    {
        let rolling = indigo_obs::RollingHist::new();
        let ring = indigo_obs::SeqRing::new(64, 0u64);
        let recorder = indigo_serve::flightrec::FlightRecorder::new();
        let record = indigo_serve::flightrec::ReqRecord::blank();
        let delta = min_delta(5, 0, || {
            for i in 0..1_000u64 {
                indigo_obs::Gauge::ServeQueueDepth.set(i as i64);
                indigo_obs::Gauge::ServeLiveFlights.add(1);
                rolling.record_at(i / 100, i);
                ring.push(i);
                recorder.push(record);
            }
            let _ = indigo_obs::gauges_snapshot();
            let _ = rolling.snapshot_at(10);
        });
        assert_eq!(delta, 0, "serving observability primitives allocated");
        assert_eq!(recorder.pushed(), 1_000);
        if indigo_obs::enabled() {
            assert_eq!(
                indigo_obs::gauges_snapshot().get(indigo_obs::Gauge::ServeQueueDepth),
                999
            );
        } else {
            assert_eq!(
                indigo_obs::gauges_snapshot().get(indigo_obs::Gauge::ServeQueueDepth),
                0,
                "telemetry-off build recorded gauge writes"
            );
        }
    }
}
