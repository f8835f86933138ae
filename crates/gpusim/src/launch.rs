//! Kernel launches: grid/block/warp/lane structure, granularity assignment,
//! persistent threads, reductions, and SM scheduling.
//!
//! Kernels are lane closures `Fn(&mut LaneCtx, item)` invoked once per
//! (lane, item) pair; [`Assign`] decides how many lanes cooperate on one
//! item (§2.8's thread/warp/block granularity) and the `persistent` flag
//! selects the grid-stride style of §2.7. All shared-memory traffic flows
//! through the [`LaneCtx`] so every access is both executed (host atomics —
//! results are exact) and priced (the [`crate::cost::StepTable`]).
//!
//! Cooperative kernels (pull-style PageRank, warp/block triangle counting)
//! additionally need a *group-local* sum across the lanes of one item —
//! CUDA code does this with warp shuffles and shared memory. The simulator
//! provides it as the lane *scratch* ([`LaneCtx::scratch_add_f32`]) plus an
//! `epilogue` closure that [`Sim::launch_coop`] runs once per item after its
//! lanes finish, with the group total visible; the shuffle/barrier cycles
//! are charged at that boundary.

use crate::buffer::{BufKind, GpuBuf, GpuBufF32};
use crate::cost::{AccessClass, StepTable};
use crate::device::{CostModel, Device};
use crate::fault::FaultPlan;
use crate::pool::{self, SimPool};
use crate::{MAX_DEVICES, WARP_SIZE};
use indigo_cancel::CancelToken;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;

/// How many lanes process one work item (§2.8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assign {
    /// One thread per item (Listing 8a).
    ThreadPerItem,
    /// One warp (32 lanes) per item (Listing 8b).
    WarpPerItem,
    /// One block per item (Listing 8c).
    BlockPerItem,
}

/// Sum-reduction style (§2.10.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceStyle {
    /// Every contribution is a global atomic add (Listing 10a).
    GlobalAdd,
    /// Shared-memory block accumulator, one global add per block
    /// (Listing 10b).
    BlockAdd,
    /// Warp-shuffle + block reduction, one global add per block
    /// (Listing 10c).
    ReductionAdd,
}

/// Per-lane execution context: the only door to simulated global memory.
pub struct LaneCtx<'a> {
    table: &'a mut StepTable,
    ordinal: usize,
    lane: usize,
    lane_count: usize,
    red_u64: u64,
    red_f32: f32,
    red_calls: usize,
    reduce: Option<(ReduceStyle, BufKind)>,
    scratch_u64: u64,
    scratch_f32: f32,
    /// Group totals, populated only for epilogue contexts.
    group_u64: u64,
    group_f32: f32,
    /// Physical-thread identity for the sanitizer: `block * block_dim +
    /// warp * 32 + lane`. Persistent grid-stride rounds reuse the same id,
    /// exactly like real persistent threads. Only exists in sanitize
    /// builds, so non-sanitize hot paths carry no extra state.
    #[cfg(feature = "sanitize")]
    gtid: u64,
}

impl<'a> LaneCtx<'a> {
    /// This lane's index within its item group (`0..lane_count`).
    #[inline]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Lanes cooperating on the current item (1, 32, or `block_dim`).
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    fn ld_class(kind: BufKind) -> AccessClass {
        match kind {
            BufKind::Plain | BufKind::Atomic => AccessClass::Mem,
            BufKind::CudaAtomic => AccessClass::CudaLdSt,
        }
    }

    fn rmw_class(kind: BufKind) -> AccessClass {
        match kind {
            BufKind::Plain | BufKind::Atomic => AccessClass::AtomicRmw,
            BufKind::CudaAtomic => AccessClass::CudaAtomicRmw,
        }
    }

    /// Feeds one access into the style-conformance sanitizer. Compiles to
    /// nothing without the `sanitize` feature (the `gtid` field does not
    /// even exist there).
    #[inline(always)]
    #[allow(unused_variables)]
    fn sanitize_record(&self, addr: u64, op: indigo_exec::sanitize::AccessOp) {
        #[cfg(feature = "sanitize")]
        indigo_exec::sanitize::record(self.gtid, addr, op);
    }

    /// The sanitizer op matching [`LaneCtx::rmw_class`].
    fn sanitize_rmw_op(kind: BufKind) -> indigo_exec::sanitize::AccessOp {
        match kind {
            BufKind::Plain | BufKind::Atomic => indigo_exec::sanitize::AccessOp::AtomicRmw,
            BufKind::CudaAtomic => indigo_exec::sanitize::AccessOp::CudaAtomicRmw,
        }
    }

    #[inline(always)]
    fn step(&mut self, class: AccessClass, addr: u64) {
        self.table.record(self.ordinal, class, addr);
        self.ordinal += 1;
    }

    /// Global load.
    #[inline(always)]
    pub fn ld(&mut self, buf: &GpuBuf, i: usize) -> u32 {
        self.step(Self::ld_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), indigo_exec::sanitize::AccessOp::Load);
        buf.cell(i).load(Ordering::Relaxed)
    }

    /// Global store.
    #[inline(always)]
    pub fn st(&mut self, buf: &GpuBuf, i: usize, v: u32) {
        self.step(Self::ld_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), indigo_exec::sanitize::AccessOp::Store(v));
        buf.cell(i).store(v, Ordering::Relaxed);
    }

    /// `atomicMin` (Listing 5b / 9). Returns the previous value.
    #[inline(always)]
    pub fn atomic_min(&mut self, buf: &GpuBuf, i: usize, v: u32) -> u32 {
        self.step(Self::rmw_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), Self::sanitize_rmw_op(buf.kind()));
        buf.cell(i).fetch_min(v, Ordering::Relaxed)
    }

    /// `atomicMax` (Listing 3b). Returns the previous value.
    #[inline(always)]
    pub fn atomic_max(&mut self, buf: &GpuBuf, i: usize, v: u32) -> u32 {
        self.step(Self::rmw_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), Self::sanitize_rmw_op(buf.kind()));
        buf.cell(i).fetch_max(v, Ordering::Relaxed)
    }

    /// `atomicAdd` (Listing 3a's worklist push). Returns the previous value.
    #[inline(always)]
    pub fn atomic_add(&mut self, buf: &GpuBuf, i: usize, v: u32) -> u32 {
        self.step(Self::rmw_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), Self::sanitize_rmw_op(buf.kind()));
        buf.cell(i).fetch_add(v, Ordering::Relaxed)
    }

    /// `atomicCAS`. Returns the previous value.
    #[inline(always)]
    pub fn atomic_cas(&mut self, buf: &GpuBuf, i: usize, cur: u32, new: u32) -> u32 {
        self.step(Self::rmw_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), Self::sanitize_rmw_op(buf.kind()));
        match buf
            .cell(i)
            .compare_exchange(cur, new, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(prev) | Err(prev) => prev,
        }
    }

    /// `f32` global load.
    #[inline(always)]
    pub fn ld_f32(&mut self, buf: &GpuBufF32, i: usize) -> f32 {
        self.step(Self::ld_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), indigo_exec::sanitize::AccessOp::Load);
        f32::from_bits(buf.cell(i).load(Ordering::Relaxed))
    }

    /// `f32` global store.
    #[inline(always)]
    pub fn st_f32(&mut self, buf: &GpuBufF32, i: usize, v: f32) {
        self.step(Self::ld_class(buf.kind()), buf.addr(i));
        self.sanitize_record(
            buf.addr(i),
            indigo_exec::sanitize::AccessOp::Store(v.to_bits()),
        );
        buf.cell(i).store(v.to_bits(), Ordering::Relaxed);
    }

    /// `atomicAdd(float*)`. Returns the previous value.
    #[inline(always)]
    pub fn atomic_add_f32(&mut self, buf: &GpuBufF32, i: usize, v: f32) -> f32 {
        self.step(Self::rmw_class(buf.kind()), buf.addr(i));
        self.sanitize_record(buf.addr(i), Self::sanitize_rmw_op(buf.kind()));
        let cell = buf.cell(i);
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return f32::from_bits(prev),
                Err(now) => cur = now,
            }
        }
    }

    /// Contributes to the launch-wide `u64` sum reduction; cost depends on
    /// the launch's [`ReduceStyle`].
    #[inline]
    pub fn reduce_add_u64(&mut self, v: u64) {
        self.record_reduce_call();
        self.red_u64 += v;
    }

    /// Contributes to the launch-wide `f32` sum reduction.
    #[inline]
    pub fn reduce_add_f32(&mut self, v: f32) {
        self.record_reduce_call();
        self.red_f32 += v;
    }

    /// Adds to the *item-group* scratch sum (register/shuffle cooperation;
    /// free per call, priced once at the group boundary).
    #[inline]
    pub fn scratch_add_u64(&mut self, v: u64) {
        self.scratch_u64 += v;
    }

    /// `f32` group scratch add.
    #[inline]
    pub fn scratch_add_f32(&mut self, v: f32) {
        self.scratch_f32 += v;
    }

    /// The group scratch total — valid only inside an epilogue closure.
    #[inline]
    pub fn group_u64(&self) -> u64 {
        self.group_u64
    }

    /// The `f32` group scratch total — valid only inside an epilogue.
    #[inline]
    pub fn group_f32(&self) -> f32 {
        self.group_f32
    }

    fn record_reduce_call(&mut self) {
        self.red_calls += 1;
        match self.reduce {
            Some((ReduceStyle::GlobalAdd, kind)) => {
                // every lane's contribution is a global atomic on one shared
                // counter address
                self.step(Self::rmw_class(kind), GLOBAL_CTR_ADDR);
            }
            Some((ReduceStyle::BlockAdd, _)) => {
                // shared-memory atomic on the block-local counter
                self.step(AccessClass::SharedAtomic, SHARED_CTR_ADDR);
            }
            Some((ReduceStyle::ReductionAdd, _)) | None => {
                // register accumulation; priced at warp/block boundaries
            }
        }
    }
}

/// Synthetic address of the global reduction counter.
const GLOBAL_CTR_ADDR: u64 = 0x7fff_0000_0000;
/// Synthetic shared-memory address of the per-block counter.
const SHARED_CTR_ADDR: u64 = 0x7ffe_0000_0000;

/// A simulated GPU with an accumulating cycle clock — or several GPUs
/// priced from one execution.
///
/// One `Sim` spans one algorithm run, executed once and priced for each of
/// a small fixed set of devices ([`Sim::for_devices`]; [`Sim::new`] is the
/// one-device case of the same code). Every launch adds its simulated
/// cycles to each priced device's clock; [`Sim::elapsed_secs`] converts the
/// first (*primary*) device's clock to seconds, [`Sim::cycles_on`] reads
/// any device's.
///
/// ## One execution, many devices
///
/// Kernels never read the device, and the devices must agree on
/// `block_dim` and `resident_blocks_per_sm` (asserted), so a launch maps
/// items to blocks, warps and lanes identically on every device — with
/// one exception: a persistent launch sizes its grid from `sm_count`.
/// Each warp round's steps are deduplicated once and charged per device;
/// each device keeps its own block cycles, longest warp, SM heap and
/// critical path, so every device's clock carries the bits of its solo
/// run. The primary device always finishes exactly as it would alone. A
/// secondary device stops being priced — [`Sim::cycles_on`] turns `None`
/// and stays so — when
///
/// * a persistent launch's grid would map items differently on it than
///   on the primary (more items than the smaller grid covers in one
///   round), or
/// * its own clock exceeds the cycle budget at a launch boundary, where
///   its solo run would have unwound.
///
/// The caller then runs that device alone to get its record.
///
/// ## Multi-threaded simulation
///
/// [`Sim::set_workers`] lets launches that opt in via the `_det` entry
/// points (`deterministic_parallel` capability) execute their grid blocks
/// on a host thread pool. Blocks are simulated independently into private
/// [`BlockOutcome`]s and merged by a *block-ordered* serial reduction —
/// greedy SM assignment, cycle totals, and `f32` reduction sums are all
/// applied in block index order, so cycles, reduction results, and SM
/// accounting are bit-identical for any worker count. Only kernels whose
/// memory trace and functional effects are invariant to block execution
/// order may opt in; everything else goes through the serial entry points
/// regardless of the worker setting.
///
/// ## Hot-path engineering (DESIGN.md §7.4)
///
/// Steady-state launches perform no heap allocation and spawn no threads:
/// parallel blocks run on a leased parked-worker [`SimPool`] (returned to
/// the process-wide registry when the `Sim` drops), block outcomes land in
/// a reusable index-addressed arena, every simulating thread owns one
/// long-lived [`StepTable`], and the least-loaded-SM merge runs on a
/// [`BinaryHeap`] whose storage round-trips through [`Sim`] between
/// launches. `tests/alloc_regression.rs` pins the zero-allocation claim.
/// A table keeps the capacity of the deepest warp round it has priced: 70 KB
/// of inline steps plus ~8 B per key recorded past ordinal 256, about 2 MiB
/// per thread after the deepest rounds of the Tiny CUDA matrix.
/// ## Supervision (DESIGN.md §7.3)
///
/// A `Sim` may carry a [`CancelToken`], a simulated-cycle budget, and an
/// armed [`FaultPlan`]. All three are polled at *launch boundaries* — the
/// natural cooperative cancellation points, since no shared state is
/// half-mutated between launches — plus once per persistent-kernel round so
/// a single runaway launch cannot dodge the watchdog. A fired token or an
/// exhausted budget unwinds with an [`indigo_cancel::Cancelled`] payload,
/// which the harness records as `TimedOut`; an injected panic unwinds with
/// a plain message, recorded as `Crashed`.
pub struct Sim {
    /// `devices[..count]` are priced; `devices[0]` is the primary.
    devices: [Device; MAX_DEVICES],
    count: usize,
    /// Each device's clock while it is priced; `None` past `count` and for
    /// a secondary that stopped being priced.
    clocks: [Option<f64>; MAX_DEVICES],
    launches: usize,
    accesses: u64,
    workers: usize,
    cancel: Option<CancelToken>,
    cycle_budget: Option<f64>,
    fault: Option<FaultPlan>,
    scratch: SimScratch,
    /// Leased on the first parallel launch, returned to the registry on
    /// drop. Re-leased if [`Sim::set_workers`] changes the team size.
    pool: Option<SimPool>,
}

/// Placeholder epilogue type for launches without one: lets the generic
/// launch path stay monomorphized (kernel calls inline into the block loop
/// instead of going through `dyn` dispatch once per lane).
type NoEpilogue = fn(&mut LaneCtx, usize);

/// Geometry and pricing context shared by every block of one launch.
struct LaunchShape<'s> {
    /// Cost models of the devices priced this launch, primary first:
    /// `costs[..priced]`.
    costs: [CostModel; MAX_DEVICES],
    priced: usize,
    items: usize,
    assign: Assign,
    persistent: bool,
    reduce: Option<(ReduceStyle, BufKind)>,
    warps_per_block: usize,
    lanes_per_item: usize,
    items_per_block: usize,
    block_stride_items: usize,
    /// Borrowed from the owning [`Sim`]; polled once per persistent round
    /// so a runaway grid-stride loop inside a single launch stays
    /// cancellable.
    cancel: Option<&'s CancelToken>,
}

/// Everything one simulated block contributes to the launch: its cycle
/// cost and critical-path warp (per priced device, in [`LaunchShape`]
/// order), reduction partials, access count, and whether it did any work
/// at all. Private to each simulating thread until the block-ordered
/// merge. `Copy` so pooled workers can publish outcomes into plain arena
/// slots.
#[derive(Clone, Copy, Debug, Default)]
struct BlockOutcome {
    cycles: [f64; MAX_DEVICES],
    longest_warp: [f64; MAX_DEVICES],
    sum_u64: u64,
    sum_f32: f32,
    accesses: u64,
    any: bool,
}

thread_local! {
    /// The calling thread's warmed [`StepTable`], handed from a dropped
    /// [`Sim`] to the next one constructed on this thread. The measurement
    /// harness builds a fresh `Sim` per cell, so without this hand-off every
    /// cell would re-grow its scratch from empty. It is the thread's one
    /// table for good, so a process holds one per simulating thread (each
    /// serving executor included; see `StepTable` for its footprint).
    static CALLER_TABLE: std::cell::Cell<Option<StepTable>> =
        const { std::cell::Cell::new(None) };
}

/// Launch-to-launch reusable storage: after a few warm-up launches, nothing
/// in here (nor anywhere else on the launch path) touches the allocator.
#[derive(Default)]
struct SimScratch {
    /// Block-simulation scratch for the calling thread (the pool's workers
    /// each own their own long-lived table).
    table: StepTable,
    /// Per priced device: per-SM critical-path warp cycles, reset per
    /// launch.
    sm_crit: [Vec<f64>; MAX_DEVICES],
    /// Per priced device: backing storage for the SM merge heap;
    /// round-trips through `BinaryHeap::from` / `into_vec` so its capacity
    /// is never dropped.
    heap: [Vec<SmSlot>; MAX_DEVICES],
    /// Index-addressed block outcome slots for pooled launches.
    arena: Vec<BlockOutcome>,
}

/// One SM's accumulated work, ordered for the least-loaded merge.
///
/// [`BinaryHeap`] is a max-heap, so the comparison is inverted: the
/// "greatest" slot is the one with the *least* accumulated work, ties going
/// to the *lowest* SM index. `peek` therefore yields exactly the SM the
/// serial `min_by(total_cmp)` scan would have chosen (Rust's `min_by`
/// returns the first of equal minima), which is what keeps heap-merged
/// cycle totals bit-identical to the O(blocks × sm_count) linear scan this
/// replaces.
#[derive(Clone, Copy, Debug)]
struct SmSlot {
    work: f64,
    sm: usize,
}

impl PartialEq for SmSlot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for SmSlot {}
impl PartialOrd for SmSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SmSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .work
            .total_cmp(&self.work)
            .then_with(|| other.sm.cmp(&self.sm))
    }
}

/// Raw pointer to the outcome arena, smuggled into the pooled block
/// closure.
///
/// Safety: each block index is claimed by exactly one worker (the pool's
/// atomic cursor), so writes to `add(b)` are disjoint; the arena outlives
/// the job because [`SimPool::run_job`] does not return until every engaged
/// worker has checked out.
#[derive(Clone, Copy)]
struct SlotPtr(*mut BlockOutcome);
unsafe impl Send for SlotPtr {}
unsafe impl Sync for SlotPtr {}

impl SlotPtr {
    /// Publishes block `b`'s outcome.
    ///
    /// Safety: the caller must be the sole claimer of `b`, and `b` must be
    /// in bounds of the arena this pointer was taken from.
    unsafe fn publish(self, b: usize, out: BlockOutcome) {
        unsafe { self.0.add(b).write(out) };
    }
}

impl Sim {
    /// New one-device simulator clocked at zero, single-threaded.
    pub fn new(device: Device) -> Self {
        Sim::for_devices(&[device])
    }

    /// New simulator that executes once and prices every launch for each
    /// of `devices`, `devices[0]` being the primary (see the type docs).
    ///
    /// # Panics
    ///
    /// Unless there are 1 to [`MAX_DEVICES`] devices, agreeing on
    /// `block_dim` and `resident_blocks_per_sm`.
    pub fn for_devices(devices: &[Device]) -> Self {
        let count = devices.len();
        assert!(
            (1..=MAX_DEVICES).contains(&count),
            "a Sim prices 1 to {MAX_DEVICES} devices, not {count}"
        );
        let primary = devices[0];
        for d in devices {
            assert!(
                (d.block_dim, d.resident_blocks_per_sm)
                    == (primary.block_dim, primary.resident_blocks_per_sm),
                "{} and {} disagree on block_dim or resident_blocks_per_sm",
                primary.name,
                d.name
            );
        }
        let mut all = [primary; MAX_DEVICES];
        all[..count].copy_from_slice(devices);
        let mut clocks = [None; MAX_DEVICES];
        clocks[..count].fill(Some(0.0));
        let scratch = SimScratch {
            table: CALLER_TABLE.with(std::cell::Cell::take).unwrap_or_default(),
            ..SimScratch::default()
        };
        Sim {
            devices: all,
            count,
            clocks,
            launches: 0,
            accesses: 0,
            workers: 1,
            cancel: None,
            cycle_budget: None,
            fault: None,
            scratch,
            pool: None,
        }
    }

    /// Sets the host thread count used by `_det` launches (min 1).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Arms a cooperative cancellation token, polled at launch boundaries
    /// and persistent-round boundaries. Firing it unwinds the run with an
    /// [`indigo_cancel::Cancelled`] payload at the next poll.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Caps total simulated cycles: the first launch boundary at which the
    /// clock exceeds `cycles` unwinds as a cancellation. Catches variants
    /// whose *simulated* time diverges (e.g. a non-converging worklist
    /// kernel) even when each launch is individually fast in wall clock.
    pub fn set_cycle_budget(&mut self, cycles: f64) {
        self.cycle_budget = Some(cycles);
    }

    /// Arms a deterministic injected fault (see [`crate::fault`]).
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Polls token, cycle budget, and armed fault; called at every launch
    /// boundary. Unwinds instead of returning when any of them trips on the
    /// primary device; a secondary past the budget stops being priced.
    fn supervise(&mut self) {
        if let Some(token) = &self.cancel {
            token.checkpoint();
        }
        if let Some(budget) = self.cycle_budget {
            for clock in &mut self.clocks[1..] {
                if clock.is_some_and(|c| c > budget) {
                    *clock = None;
                }
            }
            let cycles = self.elapsed_cycles();
            if cycles > budget {
                let reason = format!(
                    "simulated-cycle budget of {budget:.0} cycles exceeded at launch {} \
                     ({cycles:.0} cycles elapsed)",
                    self.launches
                );
                if let Some(token) = &self.cancel {
                    token.fire(reason);
                    token.raise();
                }
                std::panic::panic_any(indigo_cancel::Cancelled { reason });
            }
        }
        if let Some(fault) = &self.fault {
            fault.maybe_trigger(self.launches, self.cancel.as_ref());
        }
    }

    /// Host threads used by `_det` launches.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The primary device.
    pub fn device(&self) -> &Device {
        &self.devices[0]
    }

    /// Every device this `Sim` was built for, primary first.
    pub fn devices(&self) -> &[Device] {
        &self.devices[..self.count]
    }

    /// Total simulated cycles so far on the primary device.
    pub fn elapsed_cycles(&self) -> f64 {
        self.clocks[0].expect("the primary device is always priced")
    }

    /// Total simulated seconds so far on the primary device.
    pub fn elapsed_secs(&self) -> f64 {
        self.devices[0].cycles_to_secs(self.elapsed_cycles())
    }

    /// Total simulated cycles so far on `devices()[i]`, or `None` once it
    /// stopped being priced (or past the device count).
    pub fn cycles_on(&self, i: usize) -> Option<f64> {
        self.clocks.get(i).copied().flatten()
    }

    /// Number of kernel launches so far.
    pub fn launches(&self) -> usize {
        self.launches
    }

    /// Total simulated memory-system accesses recorded so far (loads,
    /// stores, and atomics across all launches). Deterministic for a given
    /// kernel sequence, so perf tooling can report exact ns/access figures.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Resets the clocks and access counter (e.g. to exclude initialization
    /// from timing). A secondary that stopped being priced stays unpriced.
    pub fn reset_clock(&mut self) {
        for clock in self.clocks.iter_mut().flatten() {
            *clock = 0.0;
        }
        self.launches = 0;
        self.accesses = 0;
    }

    /// Launches a kernel over `items` work items.
    pub fn launch<F>(&mut self, items: usize, assign: Assign, persistent: bool, kernel: F)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            None,
            &kernel,
            None::<&NoEpilogue>,
            false,
        );
    }

    /// [`Sim::launch`] for kernels with the `deterministic_parallel`
    /// capability: the kernel's memory trace and functional effects must be
    /// invariant to block execution order (read-only inputs, slot-private
    /// writes, or commutative integer atomics only). Such launches may be
    /// simulated by [`Sim::workers`] host threads with bit-identical
    /// results.
    pub fn launch_det<F>(&mut self, items: usize, assign: Assign, persistent: bool, kernel: F)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            None,
            &kernel,
            None::<&NoEpilogue>,
            true,
        );
    }

    /// Launches a kernel carrying a `u64` sum reduction of the given style;
    /// returns the reduced total. `kind` is the atomic flavor of the global
    /// counter (classic vs `cuda::atomic`, §5.1's TC case).
    pub fn launch_reduce_u64<F>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        style: ReduceStyle,
        kind: BufKind,
        kernel: F,
    ) -> u64
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            Some((style, kind)),
            &kernel,
            None::<&NoEpilogue>,
            false,
        )
        .0
    }

    /// [`Sim::launch_reduce_u64`] for order-invariant kernels (see
    /// [`Sim::launch_det`]); `u64` additions commute exactly, so the
    /// reduction total is safe under any block schedule.
    pub fn launch_reduce_u64_det<F>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        style: ReduceStyle,
        kind: BufKind,
        kernel: F,
    ) -> u64
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            Some((style, kind)),
            &kernel,
            None::<&NoEpilogue>,
            true,
        )
        .0
    }

    /// Launches a kernel carrying an `f32` sum reduction; returns the total.
    pub fn launch_reduce_f32<F>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        style: ReduceStyle,
        kind: BufKind,
        kernel: F,
    ) -> f32
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            Some((style, kind)),
            &kernel,
            None::<&NoEpilogue>,
            false,
        )
        .1
    }

    /// [`Sim::launch_reduce_f32`] for order-invariant kernels. The `f32`
    /// total stays bit-identical because per-block partials are accumulated
    /// in block index order by the merge, exactly like the serial loop.
    pub fn launch_reduce_f32_det<F>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        style: ReduceStyle,
        kind: BufKind,
        kernel: F,
    ) -> f32
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            Some((style, kind)),
            &kernel,
            None::<&NoEpilogue>,
            true,
        )
        .1
    }

    /// Cooperative launch: after an item's lanes finish, `epilogue` runs
    /// once for that item with the lanes' scratch totals visible
    /// ([`LaneCtx::group_f32`]); shuffle/barrier cycles for the group
    /// reduction are charged at that boundary. Returns the launch-wide
    /// reduction totals (0 when `reduce` is `None`).
    pub fn launch_coop<F, E>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        reduce: Option<(ReduceStyle, BufKind)>,
        kernel: F,
        epilogue: E,
    ) -> (u64, f32)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
        E: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            reduce,
            &kernel,
            Some(&epilogue),
            false,
        )
    }

    /// [`Sim::launch_coop`] for order-invariant kernel/epilogue pairs (see
    /// [`Sim::launch_det`]); the epilogue must also confine its writes to
    /// item-private slots.
    pub fn launch_coop_det<F, E>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        reduce: Option<(ReduceStyle, BufKind)>,
        kernel: F,
        epilogue: E,
    ) -> (u64, f32)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
        E: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.run(
            items,
            assign,
            persistent,
            reduce,
            &kernel,
            Some(&epilogue),
            true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run<F, E>(
        &mut self,
        items: usize,
        assign: Assign,
        persistent: bool,
        reduce: Option<(ReduceStyle, BufKind)>,
        kernel: &F,
        epilogue: Option<&E>,
        deterministic_parallel: bool,
    ) -> (u64, f32)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
        E: Fn(&mut LaneCtx, usize) + Sync,
    {
        self.supervise();
        let primary = self.devices[0];
        let block_dim = primary.block_dim;
        let lanes_per_item = match assign {
            Assign::ThreadPerItem => 1,
            Assign::WarpPerItem => WARP_SIZE,
            Assign::BlockPerItem => block_dim,
        };
        let items_per_block = block_dim / lanes_per_item;
        let grid_of = |d: &Device| {
            if persistent {
                (d.sm_count * d.resident_blocks_per_sm).max(1)
            } else {
                items.div_ceil(items_per_block).max(1)
            }
        };
        let grid_blocks = grid_of(&primary);
        // A device whose persistent grid differs from the primary's maps the
        // same items alike only while one round of the smaller grid covers
        // them all (the larger grid's extra blocks then stay empty).
        for i in 1..self.count {
            let grid = grid_of(&self.devices[i]);
            if grid != grid_blocks && items > grid.min(grid_blocks) * items_per_block {
                self.clocks[i] = None;
            }
        }
        // the devices priced this launch, compacted, primary first
        let mut live = [0usize; MAX_DEVICES];
        let mut costs = [primary.cost; MAX_DEVICES];
        let mut priced = 0;
        for i in (0..self.count).filter(|&i| self.clocks[i].is_some()) {
            live[priced] = i;
            costs[priced] = self.devices[i].cost;
            priced += 1;
        }
        let shape = LaunchShape {
            costs,
            priced,
            items,
            assign,
            persistent,
            reduce,
            warps_per_block: block_dim / WARP_SIZE,
            lanes_per_item,
            items_per_block,
            block_stride_items: grid_blocks * items_per_block,
            cancel: self.cancel.as_ref(),
        };

        // Reusable merge state, one per priced device: the SM heap starts
        // with every SM at zero work (heapified in place over the retained
        // storage) and sm_crit is zeroed within capacity.
        let scratch = &mut self.scratch;
        let devices = &self.devices;
        let mut merge = Merge {
            heap: std::array::from_fn(|k| {
                let mut store = std::mem::take(&mut scratch.heap[k]);
                store.clear();
                if k < priced {
                    let sm_count = devices[live[k]].sm_count;
                    store.extend((0..sm_count).map(|sm| SmSlot { work: 0.0, sm }));
                }
                BinaryHeap::from(store)
            }),
            sm_crit: &mut scratch.sm_crit,
            priced,
            total_u64: 0,
            total_f32: 0.0,
            accesses: 0,
        };
        for k in 0..priced {
            merge.sm_crit[k].clear();
            merge.sm_crit[k].resize(devices[live[k]].sm_count, 0.0);
        }

        // Blocks are mutually independent simulations; the only cross-block
        // state is the block-ordered merge, which always runs serially in
        // block index order. Parallelism is therefore purely a host-side
        // speedup and only taken when the kernel certified order-invariance.
        let workers = if deterministic_parallel {
            self.workers
        } else {
            1
        };
        if workers.min(grid_blocks) > 1 {
            // Pooled path: lease a parked team sized to the worker setting
            // (the calling thread participates, so the pool holds one less).
            let extra = workers - 1;
            if self.pool.as_ref().map(SimPool::extra_workers) != Some(extra) {
                if let Some(old) = self.pool.take() {
                    pool::give_back_sim_pool(old);
                }
                self.pool = Some(pool::lease_sim_pool(extra));
            }
            let team = self.pool.as_ref().expect("pool just leased");
            scratch.arena.clear();
            scratch.arena.resize(grid_blocks, BlockOutcome::default());
            let slots = SlotPtr(scratch.arena.as_mut_ptr());
            let shape = &shape;
            team.run_job(
                grid_blocks,
                &move |b, table| {
                    let out = run_block(shape, b, kernel, epilogue, table);
                    // Safety: see `SlotPtr` — one writer per index, arena
                    // outlives the job.
                    unsafe { slots.publish(b, out) };
                },
                &mut scratch.table,
            );
            for out in &scratch.arena {
                merge.absorb(out);
            }
        } else {
            // Serial path: simulate and merge each block on the fly with the
            // Sim-owned scratch table — no outcome buffering at all.
            for b in 0..grid_blocks {
                let out = run_block(&shape, b, kernel, epilogue, &mut scratch.table);
                merge.absorb(&out);
            }
        }

        let (total_u64, total_f32, accesses) = (merge.total_u64, merge.total_f32, merge.accesses);
        if indigo_obs::enabled() {
            // mechanism counters count the execution once; cycle-valued
            // telemetry counts once per priced device (see `Merge::cycles`)
            indigo_obs::Counter::SimLaunches.incr();
            indigo_obs::Counter::SimGlobalAccesses.add(accesses);
        }
        for (k, &i) in live[..priced].iter().enumerate() {
            if let Some(clock) = &mut self.clocks[i] {
                *clock += merge.cycles(k, &self.devices[i]);
            }
        }
        scratch.heap = merge.heap.map(BinaryHeap::into_vec);
        self.launches += 1;
        self.accesses += accesses;
        // a kernel launch boundary synchronizes the whole device: classify
        // and reset the sanitizer's shadow cells (no-op unless armed)
        indigo_exec::sanitize::region_flush();
        (total_u64, total_f32)
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool::give_back_sim_pool(pool);
        }
        CALLER_TABLE.with(|t| t.set(Some(std::mem::take(&mut self.scratch.table))));
    }
}

/// Block-ordered merge state: greedy least-loaded SM assignment and the
/// reduction totals see blocks in exactly the serial order, which is what
/// keeps cycles and `f32` sums bit-identical across worker counts (see
/// [`SmSlot`] for the heap/`min_by` equivalence). Each priced device has
/// its own heap and critical paths; `[k]` is the launch's `k`-th priced
/// device.
struct Merge<'a> {
    heap: [BinaryHeap<SmSlot>; MAX_DEVICES],
    sm_crit: &'a mut [Vec<f64>; MAX_DEVICES],
    priced: usize,
    total_u64: u64,
    total_f32: f32,
    accesses: u64,
}

impl Merge<'_> {
    #[inline]
    fn absorb(&mut self, out: &BlockOutcome) {
        self.accesses += out.accesses;
        if !out.any {
            return;
        }
        for k in 0..self.priced {
            let mut top = self.heap[k].peek_mut().expect("sm_count >= 1");
            top.work += out.cycles[k];
            let sm = top.sm;
            drop(top); // sift the updated SM back into heap order
            self.sm_crit[k][sm] = self.sm_crit[k][sm].max(out.longest_warp[k]);
        }
        self.total_u64 += out.sum_u64;
        self.total_f32 += out.sum_f32;
    }

    /// The launch's cycles on priced device `k` (= `d`): its slowest SM
    /// plus the launch overhead. Records the cycle-valued telemetry, once
    /// per priced device.
    fn cycles(&self, k: usize, d: &Device) -> f64 {
        let kernel_time = self.heap[k]
            .iter()
            .map(|s| (s.work / d.warp_parallelism).max(self.sm_crit[k][s.sm]))
            .fold(0.0f64, f64::max);
        let launch_cycles = kernel_time + d.cost.launch;
        if indigo_obs::enabled() {
            use indigo_obs::{Counter, Hist};
            Counter::SimCycles.add(launch_cycles as u64);
            Hist::LaunchCycles.record(launch_cycles as u64);
            // Occupancy imbalance: max per-SM work over the mean, permille.
            // 1000 = perfectly balanced.
            let (mut max_w, mut sum_w, mut n) = (0.0f64, 0.0f64, 0u32);
            for s in self.heap[k].iter() {
                max_w = max_w.max(s.work);
                sum_w += s.work;
                n += 1;
            }
            if n > 0 && sum_w > 0.0 {
                Hist::SmImbalancePermille.record((max_w * f64::from(n) / sum_w * 1000.0) as u64);
            }
        }
        launch_cycles
    }
}

/// Simulates one grid block: all its warp rounds, epilogues, and
/// reduction-style costs. `table` is the simulating thread's long-lived
/// scratch (cleared per warp round, capacity retained forever), so any host
/// thread may run any block without touching the allocator.
#[allow(clippy::too_many_lines)]
fn run_block<F, E>(
    shape: &LaunchShape<'_>,
    b: usize,
    kernel: &F,
    epilogue: Option<&E>,
    table: &mut StepTable,
) -> BlockOutcome
where
    F: Fn(&mut LaneCtx, usize) + Sync,
    E: Fn(&mut LaneCtx, usize) + Sync,
{
    if shape.assign == Assign::ThreadPerItem && shape.reduce.is_none() && epilogue.is_none() {
        return run_block_thread_fast(shape, b, kernel, table);
    }
    let costs = &shape.costs[..shape.priced];
    let LaunchShape {
        items,
        assign,
        persistent,
        reduce,
        warps_per_block,
        lanes_per_item,
        items_per_block,
        block_stride_items,
        ..
    } = *shape;
    // cycles of a group-scratch reduction over `lanes` lanes
    let coop_cost = |c: &CostModel, lanes: usize| (lanes.max(2) as f64).log2() * c.shuffle_step;

    let accesses_before = table.recorded();
    let mut block_cycles = [0.0f64; MAX_DEVICES];
    let mut longest_warp = [0.0f64; MAX_DEVICES];
    let mut block_u64 = 0u64;
    let mut block_f32 = 0.0f32;
    let mut block_reduce_calls = 0usize;
    let mut block_any = false;

    let mut round = 0usize;
    loop {
        // cancellation point between grid-stride rounds (first round free)
        if round > 0 {
            if let Some(token) = shape.cancel {
                token.checkpoint();
            }
        }
        let mut round_any = false;
        // block-granularity scratch spans the whole round
        let mut round_scratch_u64 = 0u64;
        let mut round_scratch_f32 = 0.0f32;
        let mut round_item: Option<usize> = None;

        for w in 0..warps_per_block {
            table.clear();
            let mut warp_any = false;
            let mut warp_reduce_calls = 0usize;
            let mut warp_scratch_u64 = 0u64;
            let mut warp_scratch_f32 = 0.0f32;
            let mut warp_item: Option<usize> = None;

            for l in 0..WARP_SIZE {
                let mapped = map_lane(
                    assign,
                    items,
                    items_per_block,
                    block_stride_items,
                    b,
                    w,
                    round,
                    l,
                );
                let Some((item, lane_id)) = mapped else {
                    continue;
                };
                warp_any = true;
                round_any = true;
                let mut ctx = LaneCtx {
                    table: &mut *table,
                    ordinal: 0,
                    lane: lane_id,
                    lane_count: lanes_per_item,
                    red_u64: 0,
                    red_f32: 0.0,
                    red_calls: 0,
                    reduce,
                    scratch_u64: 0,
                    scratch_f32: 0.0,
                    group_u64: 0,
                    group_f32: 0.0,
                    #[cfg(feature = "sanitize")]
                    gtid: ((b * warps_per_block + w) * WARP_SIZE + l) as u64,
                };
                kernel(&mut ctx, item);
                // thread-granularity epilogue runs inline, its
                // scratch is lane-private
                if assign == Assign::ThreadPerItem {
                    if let Some(ep) = epilogue {
                        ctx.group_u64 = ctx.scratch_u64;
                        ctx.group_f32 = ctx.scratch_f32;
                        ep(&mut ctx, item);
                    }
                }
                warp_scratch_u64 += ctx.scratch_u64;
                warp_scratch_f32 += ctx.scratch_f32;
                warp_item = Some(item);
                block_u64 += ctx.red_u64;
                block_f32 += ctx.red_f32;
                warp_reduce_calls += ctx.red_calls;
            }

            // warp-granularity epilogue: one run per warp's item
            if assign == Assign::WarpPerItem && warp_any {
                if let Some(ep) = epilogue {
                    let item = warp_item.expect("warp had an item");
                    let ordinal = table.steps_used();
                    let mut ctx = LaneCtx {
                        table: &mut *table,
                        ordinal,
                        lane: 0,
                        lane_count: lanes_per_item,
                        red_u64: 0,
                        red_f32: 0.0,
                        red_calls: 0,
                        reduce,
                        scratch_u64: 0,
                        scratch_f32: 0.0,
                        group_u64: warp_scratch_u64,
                        group_f32: warp_scratch_f32,
                        // the epilogue runs as the warp's lane 0
                        #[cfg(feature = "sanitize")]
                        gtid: ((b * warps_per_block + w) * WARP_SIZE) as u64,
                    };
                    ep(&mut ctx, item);
                    block_u64 += ctx.red_u64;
                    block_f32 += ctx.red_f32;
                    warp_reduce_calls += ctx.red_calls;
                }
            }
            round_scratch_u64 += warp_scratch_u64;
            round_scratch_f32 += warp_scratch_f32;
            if warp_any {
                round_item = round_item.or(warp_item);
            }

            if warp_any {
                let mut wc = table.finalize(costs);
                for (k, c) in costs.iter().enumerate() {
                    if epilogue.is_some() && assign != Assign::ThreadPerItem {
                        wc[k] += coop_cost(c, WARP_SIZE);
                    }
                    if warp_reduce_calls > 0
                        && matches!(reduce, Some((ReduceStyle::ReductionAdd, _)))
                    {
                        wc[k] += coop_cost(c, WARP_SIZE);
                    }
                    block_cycles[k] += wc[k];
                    longest_warp[k] = longest_warp[k].max(wc[k]);
                }
                block_reduce_calls += warp_reduce_calls;
                block_any = true;
            }
        }

        // block-granularity epilogue: once per round, after a barrier
        if assign == Assign::BlockPerItem && round_any {
            if let Some(ep) = epilogue {
                let item = round_item.expect("round had an item");
                table.clear();
                let mut ctx = LaneCtx {
                    table: &mut *table,
                    ordinal: 0,
                    lane: 0,
                    lane_count: lanes_per_item,
                    red_u64: 0,
                    red_f32: 0.0,
                    red_calls: 0,
                    reduce,
                    scratch_u64: 0,
                    scratch_f32: 0.0,
                    group_u64: round_scratch_u64,
                    group_f32: round_scratch_f32,
                    // the epilogue runs after a barrier as the block's thread 0
                    #[cfg(feature = "sanitize")]
                    gtid: (b * warps_per_block * WARP_SIZE) as u64,
                };
                ep(&mut ctx, item);
                block_u64 += ctx.red_u64;
                block_f32 += ctx.red_f32;
                block_reduce_calls += ctx.red_calls;
                let wc = table.finalize(costs);
                for (k, c) in costs.iter().enumerate() {
                    block_cycles[k] += wc[k] + c.barrier + warps_per_block as f64 * c.shared_serial;
                }
            }
        }

        round += 1;
        if !round_any || !persistent {
            break;
        }
    }

    if !block_any {
        return BlockOutcome::default();
    }
    // per-block epilogue for the block-cooperative reduction styles
    for (k, c) in costs.iter().enumerate() {
        if block_reduce_calls > 0 {
            if let Some((style, kind)) = &reduce {
                let global_add = match LaneCtx::rmw_class(*kind) {
                    AccessClass::CudaAtomicRmw => {
                        (c.atomic_issue + c.atomic_per_addr) * c.cuda_atomic_mult
                    }
                    _ => c.atomic_issue + c.atomic_per_addr,
                };
                match style {
                    ReduceStyle::GlobalAdd => {}
                    ReduceStyle::BlockAdd => {
                        block_cycles[k] += c.barrier + global_add;
                    }
                    ReduceStyle::ReductionAdd => {
                        // two barriers (Listing 10c) + per-warp shared
                        // stores + the single global add
                        block_cycles[k] +=
                            2.0 * c.barrier + warps_per_block as f64 * c.shared_serial + global_add;
                    }
                }
            }
        }
        block_cycles[k] += c.block_sched;
    }

    BlockOutcome {
        cycles: block_cycles,
        longest_warp,
        sum_u64: block_u64,
        sum_f32: block_f32,
        accesses: table.recorded() - accesses_before,
        any: true,
    }
}

/// Streamlined [`run_block`] for the dominant launch shape — thread
/// granularity, no reduction, no cooperative epilogue. Skips the group
/// scratch, epilogue, and reduction bookkeeping entirely (all of which
/// contribute exactly zero cycles for this shape in the generic path, so
/// results stay bit-identical) and exploits that thread-granularity item
/// indices are monotonic in (warp, lane): the first out-of-range lane ends
/// the warp and the first out-of-range warp ends the round.
fn run_block_thread_fast<F>(
    shape: &LaunchShape<'_>,
    b: usize,
    kernel: &F,
    table: &mut StepTable,
) -> BlockOutcome
where
    F: Fn(&mut LaneCtx, usize) + Sync,
{
    let costs = &shape.costs[..shape.priced];
    let accesses_before = table.recorded();
    let mut block_cycles = [0.0f64; MAX_DEVICES];
    let mut longest_warp = [0.0f64; MAX_DEVICES];
    let mut block_u64 = 0u64;
    let mut block_f32 = 0.0f32;
    let mut block_any = false;

    let mut round = 0usize;
    loop {
        // cancellation point between grid-stride rounds (first round free)
        if round > 0 {
            if let Some(token) = shape.cancel {
                token.checkpoint();
            }
        }
        let block_first_item = b * shape.items_per_block + round * shape.block_stride_items;
        if block_first_item >= shape.items {
            break; // an empty round ends persistent and one-shot grids alike
        }
        block_any = true;
        for w in 0..shape.warps_per_block {
            let warp_first_item = block_first_item + w * WARP_SIZE;
            if warp_first_item >= shape.items {
                break;
            }
            table.clear();
            let live_lanes = (shape.items - warp_first_item).min(WARP_SIZE);
            for l in 0..live_lanes {
                let mut ctx = LaneCtx {
                    table: &mut *table,
                    ordinal: 0,
                    lane: 0,
                    lane_count: 1,
                    red_u64: 0,
                    red_f32: 0.0,
                    red_calls: 0,
                    reduce: None,
                    scratch_u64: 0,
                    scratch_f32: 0.0,
                    group_u64: 0,
                    group_f32: 0.0,
                    #[cfg(feature = "sanitize")]
                    gtid: ((b * shape.warps_per_block + w) * WARP_SIZE + l) as u64,
                };
                kernel(&mut ctx, warp_first_item + l);
                block_u64 += ctx.red_u64;
                block_f32 += ctx.red_f32;
            }
            let wc = table.finalize(costs);
            for k in 0..costs.len() {
                block_cycles[k] += wc[k];
                longest_warp[k] = longest_warp[k].max(wc[k]);
            }
        }
        round += 1;
        if !shape.persistent {
            break;
        }
    }

    if !block_any {
        return BlockOutcome::default();
    }
    for (sum, c) in block_cycles.iter_mut().zip(costs) {
        *sum += c.block_sched;
    }
    BlockOutcome {
        cycles: block_cycles,
        longest_warp,
        sum_u64: block_u64,
        sum_f32: block_f32,
        accesses: table.recorded() - accesses_before,
        any: true,
    }
}

/// Maps (block, warp, round, lane-in-warp) to a work item and the lane's id
/// within the item's lane group. Returns `None` for idle lanes.
#[allow(clippy::too_many_arguments)]
fn map_lane(
    assign: Assign,
    items: usize,
    items_per_block: usize,
    block_stride_items: usize,
    block: usize,
    warp: usize,
    round: usize,
    lane: usize,
) -> Option<(usize, usize)> {
    let block_first_item = block * items_per_block + round * block_stride_items;
    let item = match assign {
        Assign::ThreadPerItem => block_first_item + warp * WARP_SIZE + lane,
        Assign::WarpPerItem => block_first_item + warp,
        Assign::BlockPerItem => block_first_item,
    };
    if item >= items {
        return None;
    }
    let lane_id = match assign {
        Assign::ThreadPerItem => 0,
        Assign::WarpPerItem => lane,
        Assign::BlockPerItem => warp * WARP_SIZE + lane,
    };
    Some((item, lane_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{rtx3090, titan_v};

    fn sim() -> Sim {
        Sim::new(titan_v())
    }

    // ---------- functional correctness ----------

    #[test]
    fn thread_map_touches_every_item_once() {
        for persistent in [false, true] {
            let mut s = sim();
            let out = GpuBuf::new(10_000, 0);
            s.launch(10_000, Assign::ThreadPerItem, persistent, |ctx, i| {
                ctx.atomic_add(&out, i, 1);
            });
            assert!(
                out.to_vec().iter().all(|&v| v == 1),
                "persistent={persistent}"
            );
        }
    }

    #[test]
    fn warp_map_gives_each_item_32_lanes() {
        for persistent in [false, true] {
            let mut s = sim();
            let out = GpuBuf::new(300, 0);
            s.launch(300, Assign::WarpPerItem, persistent, |ctx, i| {
                assert_eq!(ctx.lane_count(), 32);
                ctx.atomic_add(&out, i, 1);
            });
            assert!(
                out.to_vec().iter().all(|&v| v == 32),
                "persistent={persistent}"
            );
        }
    }

    #[test]
    fn block_map_gives_each_item_block_dim_lanes() {
        let mut s = sim();
        let bd = s.device().block_dim as u32;
        let out = GpuBuf::new(50, 0);
        s.launch(50, Assign::BlockPerItem, false, |ctx, i| {
            assert_eq!(ctx.lane_count(), bd as usize);
            ctx.atomic_add(&out, i, 1);
        });
        assert!(out.to_vec().iter().all(|&v| v == bd));
    }

    #[test]
    fn block_map_persistent_covers_all_items() {
        let mut s = sim();
        let items = s.device().sm_count * s.device().resident_blocks_per_sm * 3 + 7;
        let out = GpuBuf::new(items, 0);
        s.launch(items, Assign::BlockPerItem, true, |ctx, i| {
            if ctx.lane() == 0 {
                ctx.atomic_add(&out, i, 1);
            }
        });
        assert!(out.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn lane_ids_partition_the_group() {
        let mut s = sim();
        let seen = GpuBuf::new(32, 0);
        s.launch(1, Assign::WarpPerItem, false, |ctx, _| {
            ctx.atomic_add(&seen, ctx.lane(), 1);
        });
        assert!(seen.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn reductions_are_exact_in_every_style() {
        for style in [
            ReduceStyle::GlobalAdd,
            ReduceStyle::BlockAdd,
            ReduceStyle::ReductionAdd,
        ] {
            let mut s = sim();
            let total = s.launch_reduce_u64(
                5000,
                Assign::ThreadPerItem,
                false,
                style,
                BufKind::Atomic,
                |ctx, i| ctx.reduce_add_u64(i as u64),
            );
            assert_eq!(total, (0..5000u64).sum::<u64>(), "{style:?}");
        }
    }

    #[test]
    fn f32_reduction_sums() {
        let mut s = sim();
        let total = s.launch_reduce_f32(
            1000,
            Assign::ThreadPerItem,
            false,
            ReduceStyle::ReductionAdd,
            BufKind::Atomic,
            |ctx, _| ctx.reduce_add_f32(0.5),
        );
        assert!((total - 500.0).abs() < 1e-3);
    }

    #[test]
    fn coop_scratch_sums_per_group() {
        // every lane contributes its lane id; the epilogue must see the
        // group total and can publish it
        for assign in [
            Assign::ThreadPerItem,
            Assign::WarpPerItem,
            Assign::BlockPerItem,
        ] {
            let mut s = sim();
            let out = GpuBuf::new(40, 0);
            let lanes = match assign {
                Assign::ThreadPerItem => 1usize,
                Assign::WarpPerItem => 32,
                Assign::BlockPerItem => s.device().block_dim,
            };
            let expect: u64 = (0..lanes as u64).sum::<u64>() + 7;
            s.launch_coop(
                40,
                assign,
                false,
                None,
                |ctx, _| {
                    ctx.scratch_add_u64(ctx.lane() as u64);
                    if ctx.lane() == 0 {
                        ctx.scratch_add_u64(7);
                    }
                },
                |ctx, i| {
                    let total = ctx.group_u64() as u32;
                    ctx.st(&out, i, total);
                },
            );
            assert!(
                out.to_vec().iter().all(|&v| v as u64 == expect),
                "{assign:?}: {:?} != {expect}",
                out.host_read(0)
            );
        }
    }

    #[test]
    fn coop_epilogue_runs_once_per_item() {
        for (assign, items) in [
            (Assign::ThreadPerItem, 100usize),
            (Assign::WarpPerItem, 100),
            (Assign::BlockPerItem, 20),
        ] {
            for persistent in [false, true] {
                let mut s = sim();
                let count = GpuBuf::new(items, 0);
                s.launch_coop(
                    items,
                    assign,
                    persistent,
                    None,
                    |_, _| {},
                    |ctx, i| {
                        ctx.atomic_add(&count, i, 1);
                    },
                );
                assert!(
                    count.to_vec().iter().all(|&v| v == 1),
                    "{assign:?} persistent={persistent}"
                );
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut s = sim();
            let buf = GpuBuf::new(1000, u32::MAX).with_kind(BufKind::Atomic);
            s.launch(1000, Assign::ThreadPerItem, false, |ctx, i| {
                ctx.atomic_min(&buf, (i * 7) % 1000, i as u32);
            });
            (s.elapsed_cycles(), buf.to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_items_costs_only_launch() {
        let mut s = sim();
        s.launch(0, Assign::ThreadPerItem, false, |_, _| panic!("no items"));
        assert_eq!(s.elapsed_cycles(), s.device().cost.launch);
    }

    // ---------- cost-model shape calibration ----------

    /// Coalesced (lane i → element i) vs scattered (lane i → element 4096 i)
    /// loads: the paper's §2.12 coalescing argument.
    #[test]
    fn coalesced_loads_beat_scattered() {
        let n = 1 << 20;
        let data = GpuBuf::new(n, 0);
        let mut coal = sim();
        coal.launch(n, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        let mut scat = sim();
        scat.launch(n, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, (i * 128) % data.len());
        });
        let ratio = scat.elapsed_cycles() / coal.elapsed_cycles();
        assert!(ratio > 4.0, "scattered/coalesced = {ratio}");
    }

    /// Fig 1: classic atomics vs default `cuda::atomic`, with the TITAN V
    /// suffering roughly an order of magnitude more than the RTX 3090.
    #[test]
    fn cuda_atomic_penalty_orders_devices_like_fig1() {
        let run = |dev: Device, kind: BufKind| {
            let n = 1 << 16;
            let mut s = Sim::new(dev);
            let dist = GpuBuf::new(n, u32::MAX).with_kind(kind);
            s.launch(n, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&dist, (i + 1) % n);
                ctx.atomic_min(&dist, i, v.min(i as u32));
            });
            s.elapsed_cycles()
        };
        let tv_ratio = run(titan_v(), BufKind::CudaAtomic) / run(titan_v(), BufKind::Atomic);
        let rtx_ratio = run(rtx3090(), BufKind::CudaAtomic) / run(rtx3090(), BufKind::Atomic);
        assert!(tv_ratio > 30.0, "TitanV ratio {tv_ratio}");
        assert!(rtx_ratio > 3.0 && rtx_ratio < 30.0, "RTX ratio {rtx_ratio}");
        assert!(
            tv_ratio > 4.0 * rtx_ratio,
            "device asymmetry lost: {tv_ratio} vs {rtx_ratio}"
        );
    }

    /// §5.8: warp granularity wins on skewed inner loops, thread granularity
    /// wins on uniform small ones.
    #[test]
    fn granularity_tracks_inner_loop_skew() {
        // skewed: item 0 has a huge inner loop, the rest tiny
        let items = 2048;
        let work = |i: usize| if i == 0 { 20_000 } else { 4 };
        let data = GpuBuf::new(32_768, 1);
        let run = |assign: Assign| {
            let mut s = sim();
            s.launch(items, assign, false, |ctx, i| {
                let (lane, lanes) = (ctx.lane(), ctx.lane_count());
                let mut k = lane;
                while k < work(i) {
                    ctx.ld(&data, k % data.len());
                    k += lanes;
                }
            });
            s.elapsed_cycles()
        };
        let thread = run(Assign::ThreadPerItem);
        let warp = run(Assign::WarpPerItem);
        assert!(warp < thread, "skew: warp {warp} must beat thread {thread}");

        // uniform low-degree: thread must win (warp wastes 31 lanes)
        let uniform = |assign: Assign| {
            let mut s = sim();
            s.launch(items, assign, false, |ctx, _| {
                let (lane, lanes) = (ctx.lane(), ctx.lane_count());
                let mut k = lane;
                while k < 4 {
                    ctx.ld(&data, k);
                    k += lanes;
                }
            });
            s.elapsed_cycles()
        };
        assert!(uniform(Assign::ThreadPerItem) < uniform(Assign::BlockPerItem));
    }

    /// §5.7: persistent ≈ non-persistent when nothing is precomputed
    /// (ratios "very close to 1" in Fig 8).
    #[test]
    fn persistent_close_to_non_persistent() {
        let data = GpuBuf::new(1 << 16, 1);
        let run = |persistent: bool| {
            let mut s = sim();
            s.launch(1 << 16, Assign::ThreadPerItem, persistent, |ctx, i| {
                ctx.ld(&data, i);
            });
            s.elapsed_cycles()
        };
        let ratio = run(true) / run(false);
        assert!((0.5..2.0).contains(&ratio), "persistent/non = {ratio}");
    }

    /// §5.9 ordering for sum-heavy kernels: reduction-add fastest,
    /// block-add slowest (its shared-atomic serialization + barrier cannot
    /// offset the aggregated global adds).
    #[test]
    fn reduction_style_ordering_matches_fig10() {
        let run = |style: ReduceStyle| {
            let mut s = sim();
            s.launch_reduce_u64(
                1 << 15,
                Assign::ThreadPerItem,
                false,
                style,
                BufKind::Atomic,
                |ctx, _| ctx.reduce_add_u64(1),
            );
            s.elapsed_cycles()
        };
        let global = run(ReduceStyle::GlobalAdd);
        let block = run(ReduceStyle::BlockAdd);
        let reduction = run(ReduceStyle::ReductionAdd);
        assert!(
            reduction < global,
            "reduction {reduction} < global {global}"
        );
        assert!(global < block, "global {global} < block {block}");
    }

    // ---------- supervision: cancellation, budgets, fault injection ----------

    #[test]
    fn fired_token_cancels_at_next_launch_boundary() {
        let token = CancelToken::new();
        let mut s = sim();
        s.set_cancel(token.clone());
        let data = GpuBuf::new(64, 0);
        s.launch(64, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        token.fire("watchdog says stop");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.launch(64, Assign::ThreadPerItem, false, |ctx, i| {
                ctx.ld(&data, i);
            });
        }))
        .unwrap_err();
        let c = indigo_cancel::as_cancelled(err.as_ref()).expect("Cancelled payload");
        assert_eq!(c.reason, "watchdog says stop");
    }

    #[test]
    fn cycle_budget_cancels_runaway_launch_sequences() {
        let mut s = sim();
        let data = GpuBuf::new(1 << 14, 0);
        s.launch(1 << 14, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        let spent = s.elapsed_cycles();
        s.set_cycle_budget(spent * 1.5);
        // second launch pushes past the budget; the third must unwind
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            s.launch(1 << 14, Assign::ThreadPerItem, false, |ctx, i| {
                ctx.ld(&data, i);
            });
        }))
        .unwrap_err();
        let c = indigo_cancel::as_cancelled(err.as_ref()).expect("Cancelled payload");
        assert!(c.reason.contains("simulated-cycle budget"), "{}", c.reason);
    }

    #[test]
    fn armed_panic_fault_triggers_at_its_launch_ordinal() {
        let mut s = sim();
        s.arm_fault(FaultPlan::new(crate::fault::FaultKind::Panic, 1));
        let data = GpuBuf::new(8, 0);
        s.launch(8, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.launch(8, Assign::ThreadPerItem, false, |ctx, i| {
                ctx.ld(&data, i);
            });
        }))
        .unwrap_err();
        assert!(indigo_cancel::payload_text(err.as_ref()).contains("injected fault"));
    }

    #[test]
    fn persistent_round_loop_is_cancellable() {
        // fire the token up-front: the persistent kernel's first round runs,
        // the round-1 boundary check must unwind before an infinite spin
        let token = CancelToken::new();
        token.fire("stop the grid-stride loop");
        let mut s = sim();
        s.cancel = Some(token);
        let items = s.device().sm_count * s.device().resident_blocks_per_sm * 64;
        let data = GpuBuf::new(items, 0);
        // bypass the launch-boundary check (token is already fired) by
        // clearing it for the supervise call only: supervise() fires first,
        // so instead verify the whole launch unwinds as a cancellation
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.launch(items, Assign::ThreadPerItem, true, |ctx, i| {
                ctx.ld(&data, i);
            });
        }))
        .unwrap_err();
        assert!(indigo_cancel::as_cancelled(err.as_ref()).is_some());
    }

    // ---------- one execution, several devices ----------

    /// Runs `launch` on a shared (TITAN V, RTX 3090) `Sim` and on a solo
    /// `Sim` per device; returns the shared clocks and the solo ones.
    fn shared_and_solo(launch: impl Fn(&mut Sim)) -> ([Option<f64>; 2], [f64; 2]) {
        let devices = [titan_v(), rtx3090()];
        let mut shared = Sim::for_devices(&devices);
        launch(&mut shared);
        let solo = devices.map(|d| {
            let mut s = Sim::new(d);
            launch(&mut s);
            s.elapsed_cycles()
        });
        ([shared.cycles_on(0), shared.cycles_on(1)], solo)
    }

    #[test]
    fn shared_sim_prices_each_device_like_its_solo_sim() {
        for assign in [
            Assign::ThreadPerItem,
            Assign::WarpPerItem,
            Assign::BlockPerItem,
        ] {
            for persistent in [false, true] {
                for reduce in [
                    None,
                    Some(ReduceStyle::GlobalAdd),
                    Some(ReduceStyle::BlockAdd),
                    Some(ReduceStyle::ReductionAdd),
                ] {
                    let (shared, solo) = shared_and_solo(|s| {
                        // fresh buffers: the kernel writes what it reads
                        let data = GpuBuf::new(1 << 12, 3);
                        let hist = GpuBuf::new(97, 0).with_kind(BufKind::CudaAtomic);
                        s.launch_coop(
                            600,
                            assign,
                            persistent,
                            reduce.map(|style| (style, BufKind::CudaAtomic)),
                            |ctx, i| {
                                let v = ctx.ld(&data, (i * 37 + ctx.lane() * 5) % data.len());
                                ctx.atomic_add(&hist, (i + v as usize) % 97, 1);
                                ctx.scratch_add_u64(u64::from(v));
                                ctx.reduce_add_u64(1);
                            },
                            |ctx, i| ctx.st(&data, i, ctx.group_u64() as u32),
                        );
                    });
                    let at = format!("{assign:?} persistent={persistent} {reduce:?}");
                    assert_eq!(shared, solo.map(Some), "{at}");
                }
            }
        }
    }

    #[test]
    fn persistent_grid_that_maps_items_differently_drops_the_secondary() {
        // block granularity: one item per block, so a persistent grid of
        // 80 × 8 = 640 (TITAN V) or 82 × 8 = 656 (RTX 3090) blocks covers
        // the items in one round alike only up to 640 of them
        let grid = |d: Device| d.sm_count * d.resident_blocks_per_sm;
        assert_eq!((grid(titan_v()), grid(rtx3090())), (640, 656));
        for items in [1, 639, 640, 641, 650, 656, 657, 2000] {
            let out = GpuBuf::new(items, 0);
            let (shared, solo) = shared_and_solo(|s| {
                s.launch(items, Assign::BlockPerItem, true, |ctx, i| {
                    if ctx.lane() == 0 {
                        ctx.atomic_add(&out, i, 1);
                    }
                });
            });
            assert_eq!(shared[0], Some(solo[0]), "{items} items: the primary");
            let want = (items <= 640).then_some(solo[1]);
            assert_eq!(shared[1], want, "{items} items: the secondary");
        }
        // non-persistent grids never differ
        let (shared, solo) = shared_and_solo(|s| {
            s.launch(650, Assign::BlockPerItem, false, |_, _| {});
        });
        assert_eq!(shared, solo.map(Some));
    }

    #[test]
    fn dropped_secondary_stays_dropped_and_the_primary_runs_on() {
        let data = GpuBuf::new(1 << 10, 1);
        let mut s = Sim::for_devices(&[titan_v(), rtx3090()]);
        s.launch(700, Assign::BlockPerItem, true, |ctx, i| {
            ctx.ld(&data, i);
        });
        assert_eq!(s.cycles_on(1), None);
        s.reset_clock();
        s.launch(64, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        assert_eq!(s.cycles_on(1), None, "a reset does not re-price it");
        assert!(s.cycles_on(0).is_some());
        assert_eq!(s.cycles_on(2), None, "past the device count");
    }

    #[test]
    fn secondary_past_the_cycle_budget_stops_being_priced() {
        // cuda::atomic RMWs cost ~10x more on the TITAN V, so with the RTX
        // 3090 primary a budget between the two clocks stops only the
        // secondary, at the launch boundary where its solo run unwinds
        let hist = GpuBuf::new(64, 0).with_kind(BufKind::CudaAtomic);
        let step = |s: &mut Sim| {
            s.launch(256, Assign::ThreadPerItem, false, |ctx, i| {
                ctx.atomic_add(&hist, i % 64, 1);
            })
        };
        let mut s = Sim::for_devices(&[rtx3090(), titan_v()]);
        step(&mut s);
        let (rtx, titan) = (s.elapsed_cycles(), s.cycles_on(1).unwrap());
        assert!(titan > 4.0 * rtx, "{titan} vs {rtx}");
        s.set_cycle_budget(2.0 * rtx);
        step(&mut s);
        assert_eq!(s.cycles_on(1), None, "the secondary passed the budget");
        assert_eq!(s.elapsed_cycles(), 2.0 * rtx, "the primary ran on");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..2 {
                step(&mut s);
            }
        }))
        .unwrap_err();
        assert!(indigo_cancel::as_cancelled(err.as_ref()).is_some());
    }

    #[test]
    #[should_panic(expected = "disagree on block_dim")]
    fn devices_of_one_sim_must_share_the_block_shape() {
        let mut small = rtx3090();
        small.block_dim = 128;
        Sim::for_devices(&[titan_v(), small]);
    }

    #[test]
    fn clock_accumulates_across_launches() {
        let mut s = sim();
        let data = GpuBuf::new(64, 0);
        s.launch(64, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        let one = s.elapsed_cycles();
        s.launch(64, Assign::ThreadPerItem, false, |ctx, i| {
            ctx.ld(&data, i);
        });
        assert!((s.elapsed_cycles() - 2.0 * one).abs() < 1e-9);
        assert_eq!(s.launches(), 2);
        s.reset_clock();
        assert_eq!(s.elapsed_cycles(), 0.0);
    }
}
