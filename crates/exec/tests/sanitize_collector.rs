//! Unit tests of the sanitizer's shadow-memory collector
//! (`indigo_exec::sanitize`), in a test binary of their own: the collector
//! is process-global, and inside the crate's lib-test binary every sibling
//! test that ends a parallel region (`omp`, `cpp`, `sync::MinOps`) feeds it
//! from another libtest thread while a session here is armed — a foreign
//! flush bumps `regions`, or lands between two records and splits a race
//! across regions. This process has no other feeders.
#![cfg(feature = "sanitize")]

use indigo_exec::sanitize::*;
use std::sync::{Mutex, MutexGuard};

// the collector is process-global state; serialize the tests touching it
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn begin() -> MutexGuard<'static, ()> {
    let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    session_begin();
    guard
}

#[test]
fn value_changing_ww_is_racy() {
    let _g = begin();
    record(1, 0x100, AccessOp::Store(7));
    record(2, 0x100, AccessOp::Store(9));
    region_flush();
    let r = session_end();
    assert_eq!(r.racy_ww, 1);
    assert_eq!(r.racy(), 1);
    assert_eq!(r.benign_idempotent, 0);
}

#[test]
fn identical_value_ww_is_benign_idempotent() {
    let _g = begin();
    record(1, 0x200, AccessOp::Store(1));
    record(2, 0x200, AccessOp::Store(1));
    record(3, 0x200, AccessOp::Load);
    region_flush();
    let r = session_end();
    assert_eq!(r.benign_idempotent, 1);
    assert_eq!(r.racy(), 0);
    assert!(r.conflicts() > 0);
}

#[test]
fn read_racing_value_changing_writes_is_racy_rw() {
    let _g = begin();
    record(1, 0x300, AccessOp::Store(5));
    record(1, 0x300, AccessOp::Store(7));
    record(2, 0x300, AccessOp::Load);
    region_flush();
    let r = session_end();
    assert_eq!(r.racy_rw, 1);
    assert_eq!(r.racy_ww, 0);
}

#[test]
fn read_racing_constant_write_is_benign() {
    // a single writer storing one constant (the MIS OUT-store pattern):
    // no value diversity was observed, so a racing reader is classified
    // with the idempotent writes, not as a value-changing race
    let _g = begin();
    record(1, 0x340, AccessOp::Store(5));
    record(2, 0x340, AccessOp::Load);
    region_flush();
    let r = session_end();
    assert_eq!(r.racy(), 0);
    assert_eq!(r.benign_idempotent, 1);
}

#[test]
fn read_racing_atomic_is_benign_mixed() {
    let _g = begin();
    record(1, 0x400, AccessOp::Load);
    record(2, 0x400, AccessOp::AtomicRmw);
    region_flush();
    let r = session_end();
    assert_eq!(r.benign_mixed, 1);
    assert_eq!(r.racy(), 0);
}

#[test]
fn atomics_alone_do_not_conflict() {
    let _g = begin();
    record(1, 0x500, AccessOp::AtomicRmw);
    record(2, 0x500, AccessOp::AtomicRmw);
    record(3, 0x500, AccessOp::CudaAtomicRmw);
    region_flush();
    let r = session_end();
    assert_eq!(r.conflicts(), 0);
    assert_eq!(r.atomic_rmws, 2);
    assert_eq!(r.cuda_atomic_rmws, 1);
}

#[test]
fn same_thread_accesses_never_conflict() {
    let _g = begin();
    record(1, 0x600, AccessOp::Store(3));
    record(1, 0x600, AccessOp::Load);
    record(1, 0x600, AccessOp::Store(4));
    region_flush();
    let r = session_end();
    assert_eq!(r.conflicts(), 0);
}

#[test]
fn region_boundary_synchronizes() {
    // a write in one region and a read in the next never conflict
    let _g = begin();
    record(1, 0x700, AccessOp::Store(3));
    region_flush();
    record(2, 0x700, AccessOp::Load);
    region_flush();
    let r = session_end();
    assert_eq!(r.conflicts(), 0);
    assert_eq!(r.regions, 2);
}

#[test]
fn critical_section_accesses_count_as_synchronized() {
    let _g = begin();
    critical_enter();
    record(1, 0x800, AccessOp::Store(3));
    critical_exit();
    critical_enter();
    record(2, 0x800, AccessOp::Store(9));
    critical_exit();
    region_flush();
    let r = session_end();
    assert_eq!(r.conflicts(), 0);
    assert_eq!(r.locked_ops, 2);
}

#[test]
fn disarmed_records_nothing() {
    let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    record(1, 0x900, AccessOp::Store(1));
    record(2, 0x900, AccessOp::Store(2));
    session_begin();
    let r = session_end();
    assert_eq!(r.stores, 0);
    assert_eq!(r.conflicts(), 0);
}

#[test]
fn update_events_split_by_kind() {
    let _g = begin();
    note_update(true);
    note_update(true);
    note_update(false);
    let r = session_end();
    assert_eq!(r.updates_rmw, 2);
    assert_eq!(r.updates_split, 1);
}
