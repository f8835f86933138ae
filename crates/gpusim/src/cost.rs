//! Per-warp lockstep cost accounting.
//!
//! A warp executes its lanes in lockstep: the k-th shared-memory-visible
//! access of every lane happens in the same machine step. [`StepTable`]
//! aggregates the accesses of one warp "round" by step ordinal, then
//! [`StepTable::finalize`] prices each step:
//!
//! * loads/stores coalesce into distinct 128-byte segments,
//! * global atomics pay per distinct address plus a cheap aggregation cost
//!   for same-address lanes,
//! * `cuda::atomic` steps are multiplied by the device penalty,
//! * shared-memory atomics serialize by same-address multiplicity.
//!
//! Divergence falls out naturally: a lane that runs more steps than its
//! warp-mates still creates (and prices) those extra steps.

use crate::device::CostModel;
use crate::MAX_DEVICES;

/// What kind of machine step an ordinal slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Plain global load or store (coalescable).
    Mem,
    /// Classic global atomic RMW (`atomicMin` etc.).
    AtomicRmw,
    /// `cuda::atomic` load/store with default settings.
    CudaLdSt,
    /// `cuda::atomic` RMW with default settings.
    CudaAtomicRmw,
    /// Shared-memory (block-scope) atomic.
    SharedAtomic,
}

const MAX_LANES: usize = 32;

/// Steps below this ordinal keep [`MAX_LANES`] inline key slots; deeper
/// ones keep only a [`DeepStep`] header (see [`StepTable`]).
const SHALLOW_STEPS: usize = 256;

/// Deep steps are gathered from the log and priced this many at a time.
const GATHER_BLOCK: usize = 64;

/// One lockstep step: the keys its lanes touch, in record order.
///
/// Recording is append-only — no deduplication happens on the access path.
/// A step holds at most one key per lane (32), so [`StepTable::finalize`]
/// deduplicates with branchless fixed-bound scans ([`distinct_keys`],
/// [`max_multiplicity`]) that LLVM vectorizes; doing that work once per
/// step instead of once per access took the dominant term out of the
/// simulator's hot path.
#[derive(Clone)]
#[repr(C)] // class + total + keys[0..6] share the step's first cache line
struct Step {
    class: AccessClass,
    total: usize,
    /// Recorded keys (segment ids for `Mem`/`CudaLdSt`, full addresses for
    /// atomics); `keys[..total]` are live.
    keys: [u64; MAX_LANES],
}

impl Step {
    fn new(class: AccessClass) -> Self {
        Step {
            class,
            total: 0,
            keys: [0; MAX_LANES],
        }
    }

    #[inline]
    fn reset(&mut self, class: AccessClass) {
        self.class = class;
        self.total = 0;
    }

    /// Installs `key` as the step's first access.
    #[inline(always)]
    fn start(&mut self, key: u64) {
        self.keys[0] = key;
        self.total = 1;
    }

    #[inline(always)]
    fn record(&mut self, key: u64) {
        debug_assert!(
            self.total < MAX_LANES,
            "more lanes than WARP_SIZE in one step"
        );
        // the mask elides the bounds check; `total < MAX_LANES` is an
        // invariant (one access per lane per ordinal)
        self.keys[self.total & (MAX_LANES - 1)] = key;
        self.total += 1;
    }
}

/// A step at ordinal ≥ [`SHALLOW_STEPS`]: its class and how many keys it
/// holds. The keys themselves live in the table's log.
#[derive(Clone, Copy)]
struct DeepStep {
    class: AccessClass,
    count: u8,
}

/// Consecutive deep ordinals from `first` whose keys sit in the log from
/// `offset` on; the run ends where the next run's keys begin.
#[derive(Clone, Copy)]
struct Run {
    first: usize,
    offset: usize,
}

/// Number of distinct values in `keys` (at most 32 lanes' worth).
///
/// Warp lanes usually touch monotonically non-decreasing addresses (lane
/// `l` loads `arr[base + l]`), so one O(n) pass checks sortedness — which
/// subsumes the fully-coalesced all-equal warp — and counts run boundaries.
/// Genuinely scattered steps fall back to a branchless O(n²)
/// first-occurrence count over the fixed-size array. All loops are
/// data-independent reductions that auto-vectorize.
#[inline]
fn distinct_keys(keys: &[u64]) -> usize {
    let n = keys.len();
    if n <= 1 {
        return n;
    }
    let mut sorted = true;
    let mut boundaries = 0usize;
    for i in 1..n {
        sorted &= keys[i] >= keys[i - 1];
        boundaries += usize::from(keys[i] != keys[i - 1]);
    }
    if sorted {
        return 1 + boundaries;
    }
    let mut d = 1usize; // keys[0] is always a first occurrence
    for i in 1..n {
        let k = keys[i];
        let mut dup = false;
        for &p in &keys[..i] {
            dup |= p == k;
        }
        d += usize::from(!dup);
    }
    d
}

/// Highest multiplicity of any one key (shared-memory atomics serialize by
/// same-address contention). Branchless O(n²) like [`distinct_keys`].
#[inline]
fn max_multiplicity(keys: &[u64]) -> usize {
    let mut best = 0usize;
    for &k in keys {
        let mut count = 0usize;
        for &p in keys {
            count += usize::from(p == k);
        }
        best = best.max(count);
    }
    best
}

/// Transaction tallies of one [`StepTable::finalize`], flushed to the obs
/// counters once at the end. Without `telemetry` the flush compiles out,
/// the tallies become dead stores, and the whole accounting is eliminated
/// — the priced cycles are bit-identical either way.
#[derive(Default)]
struct Tally {
    coalesced: u64,
    uncoalesced: u64,
    atomic_ops: u64,
    atomic_conflicts: u64,
    shared_atomics: u64,
}

/// The device-independent half of pricing one non-empty step of `class`
/// that recorded `total` accesses, `keys` being the ones it kept (all of
/// them unless a step overflowed its 32 slots, which only a debug
/// assertion stops): the distinct keys, or for shared atomics the highest
/// same-address multiplicity. The tally counts the step once, however
/// many devices [`charge`] then prices it for.
#[inline]
fn measure(class: AccessClass, total: usize, keys: &[u64], t: &mut Tally) -> usize {
    match class {
        AccessClass::Mem | AccessClass::CudaLdSt => {
            let d = distinct_keys(keys);
            if d == 1 {
                t.coalesced += 1;
            } else {
                t.uncoalesced += d as u64;
            }
            d
        }
        AccessClass::AtomicRmw | AccessClass::CudaAtomicRmw => {
            let d = distinct_keys(keys);
            t.atomic_ops += total as u64;
            t.atomic_conflicts += (total - d) as u64;
            d
        }
        AccessClass::SharedAtomic => {
            let m = max_multiplicity(keys);
            t.shared_atomics += total as u64;
            t.atomic_conflicts += (m - 1) as u64;
            m
        }
    }
}

/// Cycles one device charges for a step [`measure`] reduced to `width`.
#[inline]
fn charge(c: &CostModel, class: AccessClass, total: usize, width: usize) -> f64 {
    match class {
        AccessClass::Mem | AccessClass::CudaLdSt => {
            let cycles = c.issue + width as f64 * c.mem_segment;
            if class == AccessClass::CudaLdSt {
                cycles * c.cuda_ldst_mult
            } else {
                cycles
            }
        }
        AccessClass::AtomicRmw | AccessClass::CudaAtomicRmw => {
            let cycles = c.atomic_issue
                + width as f64 * c.atomic_per_addr
                + (total - width) as f64 * c.atomic_aggregate;
            if class == AccessClass::CudaAtomicRmw {
                cycles * c.cuda_atomic_mult
            } else {
                cycles
            }
        }
        AccessClass::SharedAtomic => c.issue + width as f64 * c.shared_serial,
    }
}

/// Measures one step once and adds its price to every device's running
/// sum; `cycles[i]` belongs to `costs[i]`.
#[inline]
fn price_each(
    costs: &[CostModel],
    class: AccessClass,
    total: usize,
    keys: &[u64],
    t: &mut Tally,
    cycles: &mut [f64; MAX_DEVICES],
) {
    let width = measure(class, total, keys, t);
    for (c, sum) in costs.iter().zip(cycles.iter_mut()) {
        *sum += charge(c, class, total, width);
    }
}

/// Aggregates one warp round and prices it.
///
/// Two tiers hold the round. Steps below [`SHALLOW_STEPS`] are [`Step`]s
/// with 32 inline key slots (256 × 272 B = 70 KB): the record path writes
/// the key in place and nothing is copied again. A deeper step — only
/// divergent rounds reach one — keeps a 2-byte [`DeepStep`] header, and its
/// keys go to one dense log in record order. A lane records consecutive
/// ordinals, so its deep keys form one [`Run`] of the log; [`finalize`]
/// gathers [`GATHER_BLOCK`] deep steps at a time from the runs into a stack
/// block and prices them like shallow steps. The one exception is a
/// divergence step (see [`StepTable::record`]) past the shallow tier: its
/// opening key does not belong to the recording lane's ordinal, so it goes
/// to a side list ordered by step, and the lane's next key starts a new
/// run. A warmed table therefore retains ~8 B per key of its deepest round
/// instead of 272 B per step.
///
/// Tables are built for reuse: [`StepTable::clear`] keeps every buffer's
/// capacity, so a table that has warmed up to a kernel's deepest round never
/// touches the allocator again. The simulator holds one table per worker
/// thread for the life of the process (see `pool.rs`).
///
/// [`finalize`]: StepTable::finalize
pub struct StepTable {
    /// Shallow tier: ordinals `0..min(used, SHALLOW_STEPS)`.
    steps: Vec<Step>,
    /// Deep tier headers: ordinal `SHALLOW_STEPS + i` is `deep[i]`, so
    /// `deep.len() == used.saturating_sub(SHALLOW_STEPS)`.
    deep: Vec<DeepStep>,
    /// Deep keys, lane-major.
    log: Vec<u64>,
    /// The log's runs, in record order.
    runs: Vec<Run>,
    /// The ordinal whose key would continue the last run.
    run_next: usize,
    /// `(step, key)`: the opening key of each deep divergence step, in step
    /// order.
    side: Vec<(usize, u64)>,
    used: usize,
    /// Lifetime count of recorded accesses. Monotonic — survives
    /// [`StepTable::clear`] — so callers can take deltas around a block to
    /// attribute access counts without any per-record bookkeeping of their
    /// own.
    recorded: u64,
}

impl Default for StepTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StepTable {
    /// Empty table.
    pub fn new() -> Self {
        StepTable {
            steps: Vec::new(),
            deep: Vec::new(),
            log: Vec::new(),
            runs: Vec::new(),
            run_next: 0,
            side: Vec::new(),
            used: 0,
            recorded: 0,
        }
    }

    /// Clears for the next warp round (keeps capacity).
    pub fn clear(&mut self) {
        self.used = 0;
        self.deep.clear();
        self.log.clear();
        self.runs.clear();
        self.side.clear();
        self.run_next = 0; // never a deep ordinal
    }

    /// Lifetime number of accesses recorded into this table (never reset).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records one access: lane-local step `ordinal`, class, and address
    /// (byte address; segmentation for coalescable classes happens here).
    ///
    /// If lanes disagree on the class at an ordinal (divergent code paths),
    /// the step is split implicitly: the later class opens a fresh step at
    /// the end. This is rare in the structured kernels and errs on the
    /// expensive side, like real divergence.
    #[inline(always)]
    pub fn record(&mut self, ordinal: usize, class: AccessClass, addr: u64) {
        self.recorded += 1;
        let key = match class {
            AccessClass::Mem | AccessClass::CudaLdSt => addr >> 7, // 128 B segment
            _ => addr,
        };
        if ordinal < self.used {
            if ordinal < SHALLOW_STEPS {
                // SAFETY: `steps.len() >= min(used, SHALLOW_STEPS)` is a
                // structural invariant (kept by `open` and `open_slow`).
                let step = unsafe { self.steps.get_unchecked_mut(ordinal) };
                if step.class == class {
                    step.record(key);
                    return;
                }
            } else {
                // SAFETY: `deep.len() == used - SHALLOW_STEPS` whenever
                // `used > SHALLOW_STEPS`, and `ordinal < used` here.
                let head = unsafe { self.deep.get_unchecked_mut(ordinal - SHALLOW_STEPS) };
                if head.class == class {
                    debug_assert!(
                        usize::from(head.count) < MAX_LANES,
                        "more lanes than WARP_SIZE in one step"
                    );
                    head.count += 1;
                    self.log_key(ordinal, key);
                    return;
                }
            }
            self.diverge(class, key);
            return;
        }
        self.open(ordinal, class, key);
    }

    /// Appends a deep step's key to the log, continuing the last run when
    /// `ordinal` follows it.
    #[inline(always)]
    fn log_key(&mut self, ordinal: usize, key: u64) {
        if ordinal != self.run_next {
            self.runs.push(Run {
                first: ordinal,
                offset: self.log.len(),
            });
        }
        self.run_next = ordinal + 1;
        self.log.push(key);
    }

    /// Class mismatch: appends a divergence step at the end, opened by
    /// `key`. Past the shallow tier the key does not belong to the
    /// recording lane's ordinal, so it goes to the side list rather than
    /// the lane's run.
    #[cold]
    #[inline(never)]
    fn diverge(&mut self, class: AccessClass, key: u64) {
        let at = self.used;
        if at < SHALLOW_STEPS {
            self.open(at, class, key);
        } else {
            self.deep.push(DeepStep { class, count: 1 });
            self.side.push((at, key));
            self.used = at + 1;
        }
    }

    /// Opens step `ordinal` and records its first key. Lanes record
    /// consecutive ordinals, so in practice `ordinal == used`: the step's
    /// storage is reused in place, or the deep tier grows by one header.
    #[inline]
    fn open(&mut self, ordinal: usize, class: AccessClass, key: u64) {
        if ordinal == self.used {
            if ordinal < self.steps.len() {
                let step = &mut self.steps[ordinal];
                step.class = class;
                step.start(key);
                self.used = ordinal + 1;
                return;
            }
            if ordinal >= SHALLOW_STEPS {
                self.deep.push(DeepStep { class, count: 1 });
                self.log_key(ordinal, key);
                self.used = ordinal + 1;
                return;
            }
        }
        self.open_slow(ordinal, class, key);
    }

    /// [`StepTable::open`]'s general form, kept for direct callers and the
    /// warm-up: grows the shallow tier and resets any gap steps before
    /// `ordinal` (they stay empty and price at zero).
    #[inline(never)]
    fn open_slow(&mut self, ordinal: usize, class: AccessClass, key: u64) {
        let shallow_end = (ordinal + 1).min(SHALLOW_STEPS);
        if self.steps.len() < shallow_end {
            self.steps.resize(shallow_end, Step::new(class));
        }
        for step in &mut self.steps[self.used.min(shallow_end)..shallow_end] {
            step.reset(class);
        }
        if ordinal < SHALLOW_STEPS {
            self.steps[ordinal].start(key);
        } else {
            let gap = DeepStep { class, count: 0 };
            self.deep.resize(ordinal - SHALLOW_STEPS, gap);
            self.deep.push(DeepStep { class, count: 1 });
            self.log_key(ordinal, key);
        }
        self.used = ordinal + 1;
    }

    /// Number of lockstep steps recorded this round.
    pub fn steps_used(&self) -> usize {
        self.used
    }

    /// Prices the round for each of `costs` (at most [`MAX_DEVICES`]) and
    /// returns the warp cycles, `[i]` for `costs[i]` and zero past them.
    /// Deduplication of each step's keys happens here, once per step and
    /// not once per device or per access (see [`Step`]). Every device's
    /// sum runs in step order, so its bits equal a one-device call's.
    pub fn finalize(&self, costs: &[CostModel]) -> [f64; MAX_DEVICES] {
        debug_assert!(costs.len() <= MAX_DEVICES);
        let mut cycles = [0.0; MAX_DEVICES];
        let mut t = Tally::default();
        for step in &self.steps[..self.used.min(SHALLOW_STEPS)] {
            if step.total > 0 {
                let keys = &step.keys[..step.total.min(MAX_LANES)];
                price_each(costs, step.class, step.total, keys, &mut t, &mut cycles);
            }
        }
        if self.used > SHALLOW_STEPS {
            self.finalize_deep(costs, &mut cycles, &mut t);
        }
        if indigo_obs::enabled() {
            use indigo_obs::Counter;
            Counter::SimCoalescedTxns.add(t.coalesced);
            Counter::SimUncoalescedTxns.add(t.uncoalesced);
            Counter::SimAtomicOps.add(t.atomic_ops);
            Counter::SimAtomicConflicts.add(t.atomic_conflicts);
            Counter::SimSharedAtomics.add(t.shared_atomics);
        }
        cycles
    }

    /// Prices the deep tier in step order, adding into `cycles` (the same
    /// running sums as the shallow steps, so the totals round identically).
    /// Each block of [`GATHER_BLOCK`] steps is gathered in record order —
    /// a divergence step's side key opened it, then the runs in order —
    /// which is exactly the key sequence a 32-slot step would have held.
    fn finalize_deep(&self, costs: &[CostModel], cycles: &mut [f64; MAX_DEVICES], t: &mut Tally) {
        let mut block = [[0u64; MAX_LANES]; GATHER_BLOCK];
        let mut side = self.side.iter().peekable();
        let mut gathered = 0usize;
        let mut base = SHALLOW_STEPS;
        while base < self.used {
            let end = (base + GATHER_BLOCK).min(self.used);
            let mut fill = [0usize; GATHER_BLOCK];
            while let Some(&(step, key)) = side.next_if(|&&(step, _)| step < end) {
                let j = step - base;
                block[j][fill[j] & (MAX_LANES - 1)] = key;
                fill[j] += 1;
            }
            for (i, run) in self.runs.iter().enumerate() {
                let stop = self.runs.get(i + 1).map_or(self.log.len(), |r| r.offset);
                let lo = run.first.max(base);
                let hi = (run.first + (stop - run.offset)).min(end);
                for step in lo..hi {
                    let j = step - base;
                    block[j][fill[j] & (MAX_LANES - 1)] = self.log[run.offset + step - run.first];
                    fill[j] += 1;
                }
            }
            for (j, head) in self.deep[base - SHALLOW_STEPS..end - SHALLOW_STEPS]
                .iter()
                .enumerate()
            {
                let total = usize::from(head.count);
                debug_assert_eq!(fill[j], total, "keys gathered for deep step {}", base + j);
                gathered += fill[j];
                if total > 0 {
                    let keys = &block[j][..total.min(MAX_LANES)];
                    price_each(costs, head.class, total, keys, t, cycles);
                }
            }
            base = end;
        }
        debug_assert_eq!(
            gathered,
            self.log.len() + self.side.len(),
            "every logged key belongs to exactly one deep step"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::titan_v;

    fn costs() -> CostModel {
        titan_v().cost
    }

    #[test]
    fn coalesced_load_is_one_segment() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4); // consecutive u32s
        }
        let c = costs();
        assert_eq!(t.priced(&c), c.issue + c.mem_segment);
    }

    #[test]
    fn scattered_load_pays_per_segment() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4096); // all different segments
        }
        let c = costs();
        assert_eq!(t.priced(&c), c.issue + 32.0 * c.mem_segment);
    }

    #[test]
    fn same_address_atomics_aggregate() {
        let c = costs();
        let mut same = StepTable::new();
        let mut scattered = StepTable::new();
        for lane in 0..32u64 {
            same.record(0, AccessClass::AtomicRmw, 0);
            scattered.record(0, AccessClass::AtomicRmw, lane * 4096);
        }
        assert!(same.priced(&c) < scattered.priced(&c));
        assert_eq!(
            same.priced(&c),
            c.atomic_issue + c.atomic_per_addr + 31.0 * c.atomic_aggregate
        );
    }

    #[test]
    fn cuda_atomic_multiplier_applies() {
        let c = costs();
        let mut classic = StepTable::new();
        let mut cuda = StepTable::new();
        classic.record(0, AccessClass::AtomicRmw, 128);
        cuda.record(0, AccessClass::CudaAtomicRmw, 128);
        let ratio = cuda.priced(&c) / classic.priced(&c);
        assert!((ratio - c.cuda_atomic_mult).abs() < 1e-9);
    }

    #[test]
    fn shared_atomic_serializes_by_multiplicity() {
        let c = costs();
        let mut same = StepTable::new();
        let mut spread = StepTable::new();
        for lane in 0..32u64 {
            same.record(0, AccessClass::SharedAtomic, 0);
            spread.record(0, AccessClass::SharedAtomic, lane * 8);
        }
        assert_eq!(same.priced(&c), c.issue + 32.0 * c.shared_serial);
        assert_eq!(spread.priced(&c), c.issue + c.shared_serial);
    }

    #[test]
    fn divergent_lane_extends_the_round() {
        let c = costs();
        let mut t = StepTable::new();
        // lane 0 performs 10 steps, the others 1
        for step in 0..10u64 {
            t.record(step as usize, AccessClass::Mem, step * 4096);
        }
        for lane in 1..32u64 {
            t.record(0, AccessClass::Mem, lane * 4);
        }
        assert_eq!(t.steps_used(), 10);
        assert!(t.priced(&c) >= 10.0 * c.issue);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut t = StepTable::new();
        t.record(0, AccessClass::Mem, 0);
        t.clear();
        assert_eq!(t.steps_used(), 0);
        assert_eq!(t.priced(&costs()), 0.0);
    }

    #[test]
    fn recorded_counter_is_monotonic_across_clear() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4);
        }
        assert_eq!(t.recorded(), 32);
        t.clear();
        t.record(0, AccessClass::AtomicRmw, 0);
        assert_eq!(t.recorded(), 33);
    }

    #[test]
    fn class_mismatch_splits_step() {
        let mut t = StepTable::new();
        t.record(0, AccessClass::Mem, 0);
        t.record(0, AccessClass::AtomicRmw, 64); // different class, same ordinal
        assert_eq!(t.steps_used(), 2);
    }

    impl StepTable {
        /// The round's cycles on one device.
        fn priced(&self, c: &CostModel) -> f64 {
            self.finalize(std::slice::from_ref(c))[0]
        }

        /// Bytes of capacity the table keeps across [`StepTable::clear`].
        fn retained_bytes(&self) -> usize {
            use std::mem::size_of;
            self.steps.capacity() * size_of::<Step>()
                + self.deep.capacity() * size_of::<DeepStep>()
                + self.log.capacity() * size_of::<u64>()
                + self.runs.capacity() * size_of::<Run>()
                + self.side.capacity() * size_of::<(usize, u64)>()
        }
    }

    /// The table before the deep tier: every step, however deep, is a
    /// 32-slot [`Step`]. The differential tests drive it beside
    /// [`StepTable`] and require the same step count and the same bits.
    #[derive(Default)]
    struct FlatTable {
        steps: Vec<Step>,
        used: usize,
    }

    impl FlatTable {
        fn record(&mut self, ordinal: usize, class: AccessClass, addr: u64) {
            let key = match class {
                AccessClass::Mem | AccessClass::CudaLdSt => addr >> 7,
                _ => addr,
            };
            if ordinal < self.used {
                if self.steps[ordinal].class == class {
                    self.steps[ordinal].record(key);
                    return;
                }
                self.open(self.used, class, key);
                return;
            }
            self.open(ordinal, class, key);
        }

        fn open(&mut self, ordinal: usize, class: AccessClass, key: u64) {
            if self.steps.len() <= ordinal {
                self.steps.resize(ordinal + 1, Step::new(class));
            }
            for i in self.used..ordinal {
                self.steps[i].reset(class);
            }
            self.steps[ordinal].class = class;
            self.steps[ordinal].start(key);
            self.used = ordinal + 1;
        }

        /// Whether recording would put a 33rd key into one step (which
        /// the debug assertion forbids), so the stream skips the access.
        fn would_overflow(&self, ordinal: usize, class: AccessClass) -> bool {
            ordinal < self.used
                && self.steps[ordinal].class == class
                && self.steps[ordinal].total == MAX_LANES
        }

        fn clear(&mut self) {
            self.used = 0;
        }

        fn finalize(&self, c: &CostModel) -> f64 {
            let mut t = Tally::default();
            let mut cycles = 0.0;
            for step in &self.steps[..self.used] {
                if step.total > 0 {
                    let width = measure(step.class, step.total, &step.keys[..step.total], &mut t);
                    cycles += charge(c, step.class, step.total, width);
                }
            }
            cycles
        }

        fn retained_bytes(&self) -> usize {
            self.steps.capacity() * std::mem::size_of::<Step>()
        }
    }

    /// splitmix64: a seeded stream for the random rounds.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        }
    }

    const CLASSES: [AccessClass; 5] = [
        AccessClass::Mem,
        AccessClass::AtomicRmw,
        AccessClass::CudaLdSt,
        AccessClass::CudaAtomicRmw,
        AccessClass::SharedAtomic,
    ];

    /// Records the same access into both tables, unless the reference
    /// says the target step is already full.
    fn both(
        t: &mut StepTable,
        flat: &mut FlatTable,
        ordinal: usize,
        class: AccessClass,
        addr: u64,
    ) {
        if !flat.would_overflow(ordinal, class) {
            t.record(ordinal, class, addr);
            flat.record(ordinal, class, addr);
        }
    }

    /// One random warp round: 1–32 lanes of depth 0–2000 (a third of the
    /// lanes stay shallow), a per-ordinal class with lane-private
    /// mismatches — forced at ordinals 255, 256 and 257 — then, sometimes,
    /// an epilogue-style single-lane run starting at `steps_used()`.
    fn random_round(rng: &mut Rng, t: &mut StepTable, flat: &mut FlatTable) {
        let lanes = 1 + rng.below(32);
        let salt = rng.below(1 << 20);
        let program = |ordinal: u64| CLASSES[((ordinal * 7 + salt) % 23 % 5) as usize];
        for lane in 0..lanes {
            let depth = if rng.below(3) == 0 {
                rng.below(300)
            } else {
                rng.below(2001)
            };
            let flips = rng.below(4) == 0;
            for ordinal in 0..depth {
                let mut class = program(ordinal);
                let forced = flips && (255..=257).contains(&ordinal);
                if forced || rng.below(50) == 0 {
                    class = CLASSES[rng.below(5) as usize];
                }
                let addr = match rng.below(3) {
                    0 => (ordinal * 32 + lane) * 4, // coalesced
                    1 => rng.below(64) * 8,         // contended
                    _ => rng.below(1 << 20) * 128,  // scattered
                };
                both(t, flat, ordinal as usize, class, addr);
            }
        }
        if rng.below(2) == 0 {
            let start = t.steps_used() + rng.below(2) as usize; // sometimes a gap
            for k in 0..rng.below(400) as usize {
                let class = CLASSES[rng.below(5) as usize];
                both(t, flat, start + k, class, rng.below(4096) * 4);
            }
        }
    }

    #[test]
    fn deep_tier_prices_random_rounds_like_the_flat_table() {
        let c = costs();
        let both_devices = [c, crate::device::rtx3090().cost];
        for seed in 0..6u64 {
            let mut rng = Rng(seed);
            let mut t = StepTable::new();
            let mut flat = FlatTable::default();
            for round in 0..12 {
                t.clear();
                flat.clear();
                random_round(&mut rng, &mut t, &mut flat);
                assert_eq!(t.steps_used(), flat.used, "seed {seed} round {round}");
                assert_eq!(
                    t.priced(&c).to_bits(),
                    flat.finalize(&c).to_bits(),
                    "seed {seed} round {round}: {} steps",
                    flat.used
                );
                // one call for two devices: each sum is its solo call's bits
                let shared = t.finalize(&both_devices).map(f64::to_bits);
                let solo = both_devices.map(|d| t.priced(&d).to_bits());
                assert_eq!(shared, solo, "seed {seed} round {round}");
            }
        }
    }

    #[test]
    fn shallow_round_after_a_deep_one_ignores_the_deep_remains() {
        let c = costs();
        let mut t = StepTable::new();
        let mut flat = FlatTable::default();
        for lane in 0..32u64 {
            for ordinal in 0..(600 + lane * 7) {
                let class = if ordinal % 97 == lane {
                    AccessClass::AtomicRmw
                } else {
                    AccessClass::Mem
                };
                both(
                    &mut t,
                    &mut flat,
                    ordinal as usize,
                    class,
                    (ordinal * 131 + lane) * 4,
                );
            }
        }
        assert_eq!(t.priced(&c).to_bits(), flat.finalize(&c).to_bits());
        t.clear();
        flat.clear();
        for lane in 0..32u64 {
            for ordinal in 0..(lane % 5) {
                both(
                    &mut t,
                    &mut flat,
                    ordinal as usize,
                    AccessClass::SharedAtomic,
                    lane % 3,
                );
            }
        }
        assert_eq!(t.steps_used(), 4);
        assert_eq!(t.priced(&c).to_bits(), flat.finalize(&c).to_bits());
    }

    #[test]
    fn deepest_observed_round_retains_under_half_the_flat_footprint() {
        // the deepest warp round of a warmed sweep: 20,039 steps, 262,633
        // keys — one lane runs every step, 31 lanes ~7,825 steps each
        const STEPS: u64 = 20_039;
        const KEYS: u64 = 262_633;
        let c = costs();
        let mut t = StepTable::new();
        let mut flat = FlatTable::default();
        let rest = KEYS - STEPS;
        for lane in 0..32u64 {
            let depth = match lane {
                0 => STEPS,
                l => rest / 31 + u64::from(l <= rest % 31),
            };
            for ordinal in 0..depth {
                let addr = (ordinal * 1031 + lane * 4093) % (1 << 24) * 4;
                both(&mut t, &mut flat, ordinal as usize, AccessClass::Mem, addr);
            }
        }
        assert_eq!((t.steps_used() as u64, t.recorded()), (STEPS, KEYS));
        assert_eq!(t.priced(&c).to_bits(), flat.finalize(&c).to_bits());
        let (deep, flat_bytes) = (t.retained_bytes(), flat.retained_bytes());
        assert!(
            deep <= 5 << 19,
            "the table retains {deep} B (> 2.5 MiB; the flat table: {flat_bytes} B)"
        );
        assert!(
            flat_bytes > 5 << 20,
            "flat table retains only {flat_bytes} B"
        );
    }
}
