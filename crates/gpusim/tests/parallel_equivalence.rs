//! Equivalence gate for the multi-threaded simulator: every `_det` launch
//! must report bit-identical cycles, reduction totals, and buffer state for
//! any host worker count. This is the contract that lets the measurement
//! harness fan GPU cells across threads without perturbing results.

use indigo_gpusim::{rtx3090, titan_v, Assign, BufKind, GpuBuf, GpuBufF32, ReduceStyle, Sim};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const ASSIGNS: [Assign; 3] = [
    Assign::ThreadPerItem,
    Assign::WarpPerItem,
    Assign::BlockPerItem,
];

/// A deliberately skewed per-item workload: item 0 is ~4000× heavier than
/// the tail, like the hub vertex of a power-law graph. Blocks then have
/// very different costs, which is exactly when dynamic block-stealing
/// reorders completion the most.
fn skewed_work(i: usize) -> usize {
    if i == 0 {
        8192
    } else if i.is_multiple_of(97) {
        256
    } else {
        2
    }
}

fn exact_bits(c: f64) -> u64 {
    c.to_bits()
}

#[test]
fn plain_launch_identical_across_workers() {
    for assign in ASSIGNS {
        for persistent in [false, true] {
            let run = |workers: usize| {
                let data = GpuBuf::new(32_768, 1);
                let out = GpuBuf::new(2048, 0);
                let mut sim = Sim::new(titan_v());
                sim.set_workers(workers);
                sim.launch_det(2048, assign, persistent, |ctx, i| {
                    let (lane, lanes) = (ctx.lane(), ctx.lane_count());
                    let mut acc = 0u32;
                    let mut k = lane;
                    while k < skewed_work(i) {
                        acc = acc.wrapping_add(ctx.ld(&data, (i * 31 + k) % data.len()));
                        k += lanes;
                    }
                    ctx.atomic_add(&out, i, acc);
                });
                (exact_bits(sim.elapsed_cycles()), out.to_vec())
            };
            let baseline = run(1);
            for workers in WORKER_COUNTS {
                assert_eq!(
                    run(workers),
                    baseline,
                    "{assign:?} persistent={persistent} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn u64_reduction_identical_across_workers() {
    for assign in ASSIGNS {
        for style in [
            ReduceStyle::GlobalAdd,
            ReduceStyle::BlockAdd,
            ReduceStyle::ReductionAdd,
        ] {
            let run = |workers: usize| {
                let mut sim = Sim::new(rtx3090());
                sim.set_workers(workers);
                let total = sim.launch_reduce_u64_det(
                    3000,
                    assign,
                    false,
                    style,
                    BufKind::CudaAtomic,
                    |ctx, i| {
                        if ctx.lane() == 0 {
                            ctx.reduce_add_u64((i as u64).wrapping_mul(2654435761) % 1013);
                        }
                    },
                );
                (exact_bits(sim.elapsed_cycles()), total)
            };
            let baseline = run(1);
            for workers in WORKER_COUNTS {
                assert_eq!(
                    run(workers),
                    baseline,
                    "{assign:?} {style:?} workers={workers}"
                );
            }
        }
    }
}

/// `f32` addition does not commute, so this only holds because the merge
/// accumulates per-block partials in block index order.
#[test]
fn f32_reduction_bit_identical_across_workers() {
    let run = |workers: usize| {
        let mut sim = Sim::new(titan_v());
        sim.set_workers(workers);
        let total = sim.launch_reduce_f32_det(
            5000,
            Assign::ThreadPerItem,
            false,
            ReduceStyle::ReductionAdd,
            BufKind::Atomic,
            |ctx, i| {
                // values with wildly different magnitudes make f32 sum
                // order-sensitive — any reordering would change the bits
                ctx.reduce_add_f32(if i % 3 == 0 { 1e-6 } else { 1.0 + i as f32 });
            },
        );
        (exact_bits(sim.elapsed_cycles()), total.to_bits())
    };
    let baseline = run(1);
    for workers in WORKER_COUNTS {
        assert_eq!(run(workers), baseline, "workers={workers}");
    }
}

#[test]
fn coop_launch_identical_across_workers() {
    for assign in ASSIGNS {
        for persistent in [false, true] {
            let run = |workers: usize| {
                let out = GpuBufF32::new(600, 0.0);
                let mut sim = Sim::new(rtx3090());
                sim.set_workers(workers);
                let (ru, rf) = sim.launch_coop_det(
                    600,
                    assign,
                    persistent,
                    Some((ReduceStyle::BlockAdd, BufKind::Atomic)),
                    |ctx, i| {
                        let (lane, lanes) = (ctx.lane(), ctx.lane_count());
                        let mut k = lane;
                        while k < skewed_work(i) {
                            ctx.scratch_add_f32(1.0 / (1.0 + (i + k) as f32));
                            k += lanes;
                        }
                    },
                    |ctx, i| {
                        let total = ctx.group_f32();
                        ctx.st_f32(&out, i, total);
                        ctx.reduce_add_u64(1);
                    },
                );
                let bits: Vec<u32> = (0..600).map(|i| out.host_read(i).to_bits()).collect();
                (exact_bits(sim.elapsed_cycles()), ru, rf.to_bits(), bits)
            };
            let baseline = run(1);
            for workers in WORKER_COUNTS {
                assert_eq!(
                    run(workers),
                    baseline,
                    "{assign:?} persistent={persistent} workers={workers}"
                );
            }
        }
    }
}

/// Serial entry points must ignore the worker setting entirely: a kernel
/// without the `deterministic_parallel` capability always simulates
/// single-threaded.
#[test]
fn non_det_launch_stays_serial_and_stable() {
    let run = |workers: usize| {
        let buf = GpuBuf::new(1000, u32::MAX).with_kind(BufKind::Atomic);
        let mut sim = Sim::new(titan_v());
        sim.set_workers(workers);
        sim.launch(1000, Assign::ThreadPerItem, false, |ctx, i| {
            let v = ctx.ld(&buf, (i + 1) % 1000);
            ctx.atomic_min(&buf, i, v.min(i as u32));
        });
        (exact_bits(sim.elapsed_cycles()), buf.to_vec())
    };
    let baseline = run(1);
    for workers in WORKER_COUNTS {
        assert_eq!(run(workers), baseline, "workers={workers}");
    }
}

#[test]
fn worker_setting_round_trips() {
    let mut sim = Sim::new(titan_v());
    assert_eq!(sim.workers(), 1);
    sim.set_workers(8);
    assert_eq!(sim.workers(), 8);
    sim.set_workers(0); // clamped
    assert_eq!(sim.workers(), 1);
}

/// A kernel panic inside a pooled launch must drain every other block,
/// re-raise the earliest block's payload, and leave the `Sim` (and its
/// leased pool) fully usable for the next launch.
#[test]
fn pooled_panic_drains_and_sim_stays_usable() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const N: usize = 4096;
    let executed = AtomicUsize::new(0);
    let dst = GpuBuf::new(N, 0);
    let mut sim = Sim::new(titan_v());
    sim.set_workers(4);

    let err = catch_unwind(AssertUnwindSafe(|| {
        sim.launch_det(N, Assign::ThreadPerItem, false, |ctx, i| {
            // two faulting items in different blocks: the earliest block's
            // payload must be the one re-raised
            if i == 1 || i == N - 1 {
                std::panic::panic_any(format!("boom item {i}"));
            }
            executed.fetch_add(1, Ordering::Relaxed);
            ctx.st(&dst, i, i as u32);
        });
    }))
    .unwrap_err();
    assert_eq!(err.downcast_ref::<String>().unwrap(), "boom item 1");

    // every block outside the two faulting ones drained to completion (a
    // panic skips only the remainder of its own block)
    let done = executed.load(Ordering::Relaxed);
    assert!(
        (N - 2048..N).contains(&done),
        "drained {done} of {N} items; other blocks should have completed"
    );

    // the panicked launch never reached the merge, so the sim's clock is
    // untouched — the follow-up launch must be bit-identical to the same
    // launch on a fresh serial sim
    let run_clean = |sim: &mut Sim| {
        let out = GpuBuf::new(N, 0);
        sim.launch_det(N, Assign::ThreadPerItem, false, |ctx, i| {
            let w = skewed_work(i) as u32;
            ctx.atomic_add(&out, i, w);
        });
        (exact_bits(sim.elapsed_cycles()), out.to_vec())
    };
    let after_panic = run_clean(&mut sim);
    let fresh = run_clean(&mut Sim::new(titan_v()));
    assert_eq!(after_panic, fresh, "sim unusable after pooled panic");
}

/// `workers.min(grid_blocks)`: a launch with a single grid block must run
/// entirely on the calling thread, even when the worker setting is large —
/// no pool threads engage (and no lease is needed at all).
#[test]
fn single_block_launch_runs_on_caller_despite_workers() {
    let caller = std::thread::current().id();
    let out = GpuBuf::new(64, 0);
    let mut sim = Sim::new(titan_v());
    sim.set_workers(8);
    for _ in 0..4 {
        // 64 items at thread granularity fit one block on every device
        sim.launch_det(64, Assign::ThreadPerItem, false, |ctx, i| {
            assert_eq!(std::thread::current().id(), caller);
            ctx.atomic_add(&out, i, 1);
        });
    }
    assert!(out.to_vec().iter().all(|&v| v == 4));
}

/// `workers.min(grid_blocks)` with a pool engaged: an 8-worker sim given a
/// two-block grid must touch at most two distinct threads per launch.
#[test]
fn pooled_engagement_capped_by_grid_blocks() {
    use std::collections::HashSet;
    use std::sync::Mutex;

    let mut sim = Sim::new(rtx3090());
    sim.set_workers(8);
    // BlockPerItem: items == grid blocks, so two items is a two-block grid
    let out = GpuBuf::new(2, 0);
    for _ in 0..8 {
        let threads = Mutex::new(HashSet::new());
        sim.launch_det(2, Assign::BlockPerItem, false, |ctx, i| {
            if ctx.lane() == 0 {
                threads.lock().unwrap().insert(std::thread::current().id());
            }
            ctx.atomic_add(&out, i, 1);
        });
        let engaged = threads.lock().unwrap().len();
        assert!(
            engaged <= 2,
            "two-block launch engaged {engaged} threads (want <= grid_blocks)"
        );
    }
}
