//! Dynamic style-conformance sanitizer (DESIGN.md §7.6).
//!
//! A shadow-memory conflict detector behind the zero-cost `sanitize`
//! feature, mirroring the `telemetry` DCE pattern in `indigo-obs`: with the
//! feature off every entry point is an empty `#[inline]` function and
//! [`enabled`] is `const false`, so instrumented hot paths compile to
//! nothing. With it on, the GPU simulator's access stream and the CPU
//! models' update/critical-section operations feed per-address shadow
//! cells, and every synchronization *region* boundary (kernel launch end,
//! `omp parallel` region end, C++ thread join) classifies the cells it saw:
//!
//! * **racy** — value-changing write/write or read/write between plain
//!   (unsynchronized) accesses of distinct threads;
//! * **benign-idempotent** — conflicting plain writes that all stored one
//!   identical value (the `changed`-flag and MIS `OUT`-store patterns §5.6
//!   calls out as harmless);
//! * **benign-mixed** — a plain read racing an atomic/locked update of the
//!   same address (the hoisted-load pattern of non-deterministic RMW
//!   data-driven variants).
//!
//! The per-address state lives below `gpusim`/`core` in the crate graph so
//! both the simulator ([`record`] from `LaneCtx`) and the CPU substrate
//! (`MinOps`, `omp_critical`) can report into one collector. Sessions are
//! armed per measurement cell by the harness ([`session_begin`] /
//! [`session_end`]); recording is a no-op while disarmed, so sanitize
//! builds can still run ordinary measurements.
//!
//! Semantic *update events* ([`note_update`]) sit one level above raw
//! accesses: relaxation updates report whether they went through a single
//! atomic RMW or the load/compare/store split, which is what lets the
//! harness check the paper's RW-vs-RMW labels (§5.5) independently of the
//! access stream. [`mutate_drop_atomic`] supports mutation tests: when set,
//! RMW update sites deliberately fall back to the split, and the sanitizer
//! must flag the label violation.

/// Compile-time switch; `true` iff the `sanitize` feature is on.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "sanitize")
}

/// One recorded shared-memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOp {
    /// Plain (unsynchronized) load.
    Load,
    /// Plain (unsynchronized) store of this value.
    Store(u32),
    /// Single atomic read-modify-write (host atomic / `atomicMin` class).
    AtomicRmw,
    /// `cuda::atomic` read-modify-write (seq_cst, system scope).
    CudaAtomicRmw,
}

/// Aggregate findings of one sanitize session (one measurement cell).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Synchronization regions flushed (kernel launches / parallel regions).
    pub regions: u64,
    /// Plain loads recorded.
    pub loads: u64,
    /// Plain stores recorded.
    pub stores: u64,
    /// Host-class atomic RMWs recorded.
    pub atomic_rmws: u64,
    /// `cuda::atomic`-class RMWs recorded.
    pub cuda_atomic_rmws: u64,
    /// Operations recorded while holding a critical-section lock.
    pub locked_ops: u64,
    /// Value-changing write/write races between plain accesses.
    pub racy_ww: u64,
    /// Value-changing read/write races between plain accesses.
    pub racy_rw: u64,
    /// Conflicting plain writes that all wrote one identical value.
    pub benign_idempotent: u64,
    /// Plain reads racing an atomic/locked update of the same address.
    pub benign_mixed: u64,
    /// Update events that went through a single atomic RMW.
    pub updates_rmw: u64,
    /// Update events that used the load/compare/store split.
    pub updates_split: u64,
}

impl SanitizeReport {
    /// Total conflicting addresses observed, benign or not.
    pub fn conflicts(&self) -> u64 {
        self.racy_ww + self.racy_rw + self.benign_idempotent + self.benign_mixed
    }

    /// Value-changing (outcome-affecting) races only.
    pub fn racy(&self) -> u64 {
        self.racy_ww + self.racy_rw
    }

    /// Folds another report into this one (summary aggregation).
    pub fn merge(&mut self, other: &SanitizeReport) {
        self.regions += other.regions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.atomic_rmws += other.atomic_rmws;
        self.cuda_atomic_rmws += other.cuda_atomic_rmws;
        self.locked_ops += other.locked_ops;
        self.racy_ww += other.racy_ww;
        self.racy_rw += other.racy_rw;
        self.benign_idempotent += other.benign_idempotent;
        self.benign_mixed += other.benign_mixed;
        self.updates_rmw += other.updates_rmw;
        self.updates_split += other.updates_split;
    }
}

#[cfg(feature = "sanitize")]
mod imp {
    use super::{AccessOp, SanitizeReport};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{LazyLock, Mutex};

    /// CPU thread ids live in a disjoint namespace from simulated GPU
    /// thread ids (which are dense small integers).
    const CPU_TID_BASE: u64 = 1 << 48;

    pub(super) static ARMED: AtomicBool = AtomicBool::new(false);
    static MUTATE_DROP_ATOMICS: AtomicBool = AtomicBool::new(false);
    static NEXT_CPU_TID: AtomicU64 = AtomicU64::new(CPU_TID_BASE);

    thread_local! {
        static CPU_TID: u64 = NEXT_CPU_TID.fetch_add(1, Ordering::Relaxed);
        static CRITICAL_DEPTH: Cell<u32> = const { Cell::new(0) };
    }

    /// Up to two distinct thread ids; `n == 2` means "two or more".
    /// Two distinct ids are enough to decide every conflict predicate the
    /// classifier uses (≥2 distinct writers; a reader/syncer differing from
    /// a single writer), so the set never needs to grow further.
    #[derive(Clone, Copy, Default)]
    struct TidSet {
        a: u64,
        b: u64,
        n: u8,
    }

    impl TidSet {
        fn insert(&mut self, tid: u64) {
            match self.n {
                0 => {
                    self.a = tid;
                    self.n = 1;
                }
                1 if self.a != tid => {
                    self.b = tid;
                    self.n = 2;
                }
                _ => {}
            }
        }

        fn is_empty(&self) -> bool {
            self.n == 0
        }

        /// At least two distinct thread ids recorded.
        fn multi(&self) -> bool {
            self.n >= 2
        }

        /// Contains a thread id other than `tid`.
        fn has_other_than(&self, tid: u64) -> bool {
            match self.n {
                0 => false,
                1 => self.a != tid,
                _ => self.a != tid || self.b != tid,
            }
        }
    }

    /// Shadow state of one address within the current region.
    #[derive(Clone, Copy, Default)]
    struct Shadow {
        /// Plain-store threads.
        writers: TidSet,
        /// Plain-load threads.
        readers: TidSet,
        /// Synchronized accessors (atomic RMW or lock-protected).
        sync: TidSet,
        /// Value of the first plain store.
        first_val: u32,
        /// Every plain store so far wrote `first_val`.
        same_value: bool,
    }

    #[derive(Default)]
    pub(super) struct State {
        cells: HashMap<u64, Shadow>,
        report: SanitizeReport,
    }

    pub(super) static STATE: LazyLock<Mutex<State>> = LazyLock::new(Mutex::default);

    pub(super) fn cpu_tid() -> u64 {
        CPU_TID.with(|t| *t)
    }

    pub(super) fn critical_enter() {
        CRITICAL_DEPTH.with(|d| d.set(d.get() + 1));
    }

    pub(super) fn critical_exit() {
        CRITICAL_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }

    pub(super) fn in_critical() -> bool {
        CRITICAL_DEPTH.with(|d| d.get() > 0)
    }

    pub(super) fn set_mutation(on: bool) {
        MUTATE_DROP_ATOMICS.store(on, Ordering::Relaxed);
    }

    pub(super) fn mutation_on() -> bool {
        MUTATE_DROP_ATOMICS.load(Ordering::Relaxed)
    }

    pub(super) fn record(tid: u64, addr: u64, op: AccessOp) {
        let locked = in_critical();
        let mut st = STATE.lock().expect("sanitizer state poisoned");
        let st = &mut *st;
        let cell = st.cells.entry(addr).or_default();
        if locked {
            st.report.locked_ops += 1;
            cell.sync.insert(tid);
            return;
        }
        match op {
            AccessOp::Load => {
                st.report.loads += 1;
                cell.readers.insert(tid);
            }
            AccessOp::Store(v) => {
                st.report.stores += 1;
                if cell.writers.is_empty() {
                    cell.first_val = v;
                    cell.same_value = true;
                } else if v != cell.first_val {
                    cell.same_value = false;
                }
                cell.writers.insert(tid);
            }
            AccessOp::AtomicRmw => {
                st.report.atomic_rmws += 1;
                cell.sync.insert(tid);
            }
            AccessOp::CudaAtomicRmw => {
                st.report.cuda_atomic_rmws += 1;
                cell.sync.insert(tid);
            }
        }
    }

    pub(super) fn note_update(rmw: bool) {
        let mut st = STATE.lock().expect("sanitizer state poisoned");
        if rmw {
            st.report.updates_rmw += 1;
        } else {
            st.report.updates_split += 1;
        }
    }

    /// Classifies one shadow cell into the report's conflict buckets.
    fn classify(cell: &Shadow, report: &mut SanitizeReport) {
        // plain-plain conflicts first: ≥2 distinct plain writers, a plain
        // reader racing a plain writer, or a plain writer racing a
        // synchronized update of the same address
        let ww = cell.writers.multi();
        let rw = match cell.writers.n {
            0 => false,
            1 => cell.readers.has_other_than(cell.writers.a),
            _ => !cell.readers.is_empty(),
        };
        let wsync = match cell.writers.n {
            0 => false,
            1 => cell.sync.has_other_than(cell.writers.a),
            _ => !cell.sync.is_empty(),
        };
        if ww || rw || wsync {
            if cell.same_value {
                report.benign_idempotent += 1;
            } else if ww {
                report.racy_ww += 1;
            } else {
                report.racy_rw += 1;
            }
            return;
        }
        // no conflicting plain writes: a plain read racing an atomic or
        // locked update is the benign mixed pattern
        let rsync = match cell.sync.n {
            0 => false,
            1 => cell.readers.has_other_than(cell.sync.a),
            _ => !cell.readers.is_empty(),
        };
        if rsync {
            report.benign_mixed += 1;
        }
    }

    pub(super) fn region_flush() {
        let mut st = STATE.lock().expect("sanitizer state poisoned");
        let st = &mut *st;
        st.report.regions += 1;
        for cell in st.cells.values() {
            classify(cell, &mut st.report);
        }
        st.cells.clear();
    }

    pub(super) fn session_begin() {
        let mut st = STATE.lock().expect("sanitizer state poisoned");
        st.cells.clear();
        st.report = SanitizeReport::default();
        drop(st);
        ARMED.store(true, Ordering::SeqCst);
    }

    pub(super) fn session_end() -> SanitizeReport {
        ARMED.store(false, Ordering::SeqCst);
        let mut st = STATE.lock().expect("sanitizer state poisoned");
        let st = &mut *st;
        // classify anything recorded since the last region boundary
        if !st.cells.is_empty() {
            st.report.regions += 1;
            let (cells, report) = (&mut st.cells, &mut st.report);
            for cell in cells.values() {
                classify(cell, report);
            }
            cells.clear();
        }
        std::mem::take(&mut st.report)
    }
}

/// Arms the collector for one measurement cell, discarding prior state.
/// Sessions are strictly sequential: arm, run the cell, then call
/// [`session_end`]. Nested or concurrent sessions are not supported.
#[inline]
pub fn session_begin() {
    #[cfg(feature = "sanitize")]
    imp::session_begin();
}

/// Disarms the collector and returns everything it saw since
/// [`session_begin`] (an empty default report with the feature off).
#[inline]
pub fn session_end() -> SanitizeReport {
    #[cfg(feature = "sanitize")]
    return imp::session_end();
    #[cfg(not(feature = "sanitize"))]
    SanitizeReport::default()
}

/// Records one shared-memory operation by thread `tid` at `addr`. No-op
/// unless a session is armed. Operations performed inside a critical
/// section count as synchronized regardless of `op`.
#[inline]
pub fn record(tid: u64, addr: u64, op: AccessOp) {
    #[cfg(feature = "sanitize")]
    if imp::ARMED.load(std::sync::atomic::Ordering::Relaxed) {
        imp::record(tid, addr, op);
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = (tid, addr, op);
    }
}

/// Reports one semantic relaxation-update event: `rmw` says whether it used
/// a single atomic RMW (vs the load/compare/store split).
#[inline]
pub fn note_update(rmw: bool) {
    #[cfg(feature = "sanitize")]
    if imp::ARMED.load(std::sync::atomic::Ordering::Relaxed) {
        imp::note_update(rmw);
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = rmw;
    }
}

/// Marks a synchronization-region boundary (kernel launch end, `omp
/// parallel` region end, C++ thread join): classifies and resets all shadow
/// cells. Conflicts are only meaningful *within* a region — the boundary
/// itself synchronizes.
#[inline]
pub fn region_flush() {
    #[cfg(feature = "sanitize")]
    if imp::ARMED.load(std::sync::atomic::Ordering::Relaxed) {
        imp::region_flush();
    }
}

/// The calling CPU thread's sanitizer id (disjoint from GPU thread ids).
#[inline]
pub fn cpu_tid() -> u64 {
    #[cfg(feature = "sanitize")]
    return imp::cpu_tid();
    #[cfg(not(feature = "sanitize"))]
    0
}

/// Enters a critical section on this thread (lockset nesting counter).
#[inline]
pub fn critical_enter() {
    #[cfg(feature = "sanitize")]
    imp::critical_enter();
}

/// Leaves a critical section on this thread.
#[inline]
pub fn critical_exit() {
    #[cfg(feature = "sanitize")]
    imp::critical_exit();
}

/// Mutation-test switch: when on, RMW update sites deliberately drop their
/// atomic and take the load/compare/store split instead, so tests can
/// verify the sanitizer catches the label violation. Always off in
/// non-sanitize builds ([`mutate_drop_atomic`] is `const false` there, so
/// the mutated branch folds away).
#[inline]
pub fn set_mutation_drop_atomics(on: bool) {
    #[cfg(feature = "sanitize")]
    imp::set_mutation(on);
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = on;
    }
}

/// Whether update sites should currently drop their atomics (see
/// [`set_mutation_drop_atomics`]).
#[inline]
pub fn mutate_drop_atomic() -> bool {
    #[cfg(feature = "sanitize")]
    return imp::mutation_on();
    #[cfg(not(feature = "sanitize"))]
    false
}
