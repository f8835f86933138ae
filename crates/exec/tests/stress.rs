//! Stress and behavioral tests for the CPU execution substrate.

use indigo_exec::sync::{fetch_min, AtomicF32};
use indigo_exec::worklist::{DoubleWorklist, Stamps};
use indigo_exec::{CppThreads, OmpPool, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thousands of small regions through one pool: generation bookkeeping and
/// barriers must hold up under churn.
#[test]
fn omp_pool_survives_many_generations() {
    let pool = OmpPool::new(4);
    let counter = AtomicUsize::new(0);
    for round in 0..2_000usize {
        let sched = if round % 2 == 0 {
            Schedule::Default
        } else {
            Schedule::dynamic()
        };
        pool.parallel_for(8, sched, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(counter.load(Ordering::Relaxed), 16_000);
}

/// Dynamic scheduling must never lose or duplicate iterations even when
/// bodies take wildly different times.
#[test]
fn dynamic_schedule_exactly_once_under_imbalance() {
    let pool = OmpPool::new(4);
    let n = 501;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(n, Schedule::Dynamic { chunk: 3 }, |i, _| {
        if i % 97 == 0 {
            // simulate a heavy iteration
            std::thread::yield_now();
            std::hint::black_box((0..500).sum::<usize>());
        }
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// Static chunks must be contiguous and ordered per thread (the §2.12
/// blocked property the CPU locality argument rests on).
#[test]
fn static_schedule_is_blocked() {
    let pool = OmpPool::new(3);
    let n = 100;
    let owner: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
    pool.parallel_for(n, Schedule::Default, |i, tid| {
        owner[i].store(tid, Ordering::Relaxed);
    });
    let owners: Vec<usize> = owner.iter().map(|o| o.load(Ordering::Relaxed)).collect();
    // non-decreasing means contiguous blocks
    assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
}

/// Nested use: a pool region whose body spawns a C++-style team (the suite
/// never does this, but it must not deadlock or corrupt state).
#[test]
fn pool_and_scoped_teams_compose() {
    let pool = OmpPool::new(2);
    let total = AtomicUsize::new(0);
    pool.parallel_for(4, Schedule::Default, |_, _| {
        let cpp = CppThreads::new(2);
        cpp.parallel_for(10, indigo_exec::cpp::CppSched::Cyclic, |_, _| {
            total.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(total.load(Ordering::Relaxed), 40);
}

/// Worklist swap cycles under concurrent pushes from a real pool.
#[test]
fn double_worklist_driven_by_pool() {
    let pool = OmpPool::new(4);
    let dw = DoubleWorklist::with_capacity(10_000);
    let stamps = Stamps::new(10_000);
    for v in 0..1000u32 {
        dw.current().push(v);
    }
    let mut total_processed = 0usize;
    let mut iter = 0u32;
    while !dw.current().is_empty() {
        iter += 1;
        let cur = dw.current();
        let len = cur.len();
        total_processed += len;
        pool.parallel_for(len, Schedule::dynamic(), |idx, _| {
            let v = cur.get(idx);
            // halve the values each round (0 terminates), no duplicates
            if v >= 2 && v.is_multiple_of(2) && stamps.try_claim(v / 2, iter, false) {
                dw.next().push(v / 2);
            }
        });
        dw.swap();
        assert!(iter < 64, "must converge");
    }
    assert!(total_processed >= 1000);
}

/// CAS-loop helpers under full contention from two team kinds.
#[test]
fn atomics_under_mixed_teams() {
    let min_cell = std::sync::atomic::AtomicU32::new(u32::MAX);
    let sum_cell = AtomicF32::new(0.0);
    let pool = OmpPool::new(3);
    pool.parallel_for(3000, Schedule::dynamic(), |i, _| {
        fetch_min(&min_cell, 5000 - (i as u32 % 997));
        sum_cell.fetch_add(0.5);
    });
    assert_eq!(min_cell.load(Ordering::Relaxed), 5000 - 996);
    assert_eq!(sum_cell.load(), 1500.0);
}
