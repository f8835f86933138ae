//! Single-flight coalescing and the plan executors (DESIGN.md §7.9).
//!
//! Two cooperating layers sit between the request engine and
//! `RunPlan::run_cells_on`:
//!
//! * **Single-flight ([`Flights`]).** In-flight work is keyed by the PR 2
//!   cell fingerprint. The first request to need a missing cell *claims*
//!   it (and becomes responsible for executing it); every later request
//!   for the same cell *joins* the existing flight and just waits. One
//!   execution fans its outcome out to all waiters. Claims are guarded:
//!   if the claiming executor dies or drops the claim, the flight resolves
//!   as transient so waiters re-claim instead of hanging, and a resolved
//!   flight leaves the registry so the cell can be retried.
//! * **Execution ([`Batcher`]).** Claimed work is a [`Submission`]: the
//!   claimer's missing variants plus its shard's resident
//!   [`Prepared`] input. One executor thread per usable core
//!   ([`executor_count`]) drains submissions from one queue in arrival
//!   order and runs each as one plan through [`run_submission`]. A plan
//!   carries no fixed cost of its own — the graph, its device copy and the
//!   serial references it is verified against stay with the shard — so
//!   nothing is merged and nothing waits for company. Fault-injected
//!   submissions never enter the queue: the claimer runs them itself,
//!   through the same function, so an injected stall wedges its own
//!   attempt only.
//!
//! Coalescing is semantically invisible: answers are assembled per-request
//! from the fingerprint cache (which is keep-first, so a cell's bits never
//! change once served), a waiter whose deadline expires answers 504
//! without cancelling the shared run, and a quarantined `WrongAnswer`
//! poisons exactly the waiters of that cell.

use crate::admission::Admission;
use crate::cache::ResultCache;
use crate::stats::{ServeCounter, Stats};
use indigo_harness::{
    CellOutcome, CellRecord, FaultSpec, Prepared, Resilience, RunOptions, RunPlan,
};
use indigo_obs::now_micros;
use indigo_styles::StyleConfig;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How one flight ended, fanned out to every waiter.
#[derive(Clone, Debug)]
pub enum FlightResult {
    /// The cell completed and is in the result cache.
    Done,
    /// The cell crashed or timed out; waiters may re-claim and retry.
    Transient {
        /// Variant name (for failure bodies).
        variant: String,
        /// Target label.
        target: String,
        /// `"crashed"` or `"timed-out"`.
        outcome: &'static str,
        /// Free-form failure detail.
        detail: String,
    },
    /// The cell failed verification: permanent, poisons all waiters.
    Poisoned {
        /// Variant name.
        variant: String,
        /// Target label.
        target: String,
        /// Verification failure detail.
        detail: String,
    },
}

/// One in-flight cell execution; waiters block on the condvar.
///
/// A flight also carries its request-scoped attribution (DESIGN.md §7.10):
/// the claiming request's sequence number (so coalesced waiters can report
/// `served_by`), when it was claimed, and when its plan actually started
/// executing — the gap between the two, the time queued for a free
/// executor, is the batch-wait stage.
pub struct Flight {
    state: Mutex<Option<FlightResult>>,
    done: Condvar,
    /// Sequence number of the request that claimed this flight.
    owner: u64,
    /// `now_micros()` at claim time.
    claimed_at_us: u64,
    /// `now_micros()` when the plan began executing (0 = not yet).
    exec_start_us: AtomicU64,
}

impl Flight {
    fn new(owner: u64) -> Flight {
        Flight {
            state: Mutex::new(None),
            done: Condvar::new(),
            owner,
            claimed_at_us: now_micros(),
            exec_start_us: AtomicU64::new(0),
        }
    }

    /// Sequence number of the request that claimed this flight.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Stamps the moment the plan started executing (first stamp
    /// wins — a flight runs exactly once).
    pub fn mark_exec_start(&self, at_us: u64) {
        let _ = self.exec_start_us.compare_exchange(
            0,
            at_us.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Claim → plan execution start, µs (0 while still queued for an
    /// executor, or if the flight resolved without executing).
    pub fn batch_wait_us(&self) -> u64 {
        let start = self.exec_start_us.load(Ordering::Relaxed);
        if start == 0 {
            0
        } else {
            start.saturating_sub(self.claimed_at_us)
        }
    }

    fn resolve(&self, result: FlightResult) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.is_none() {
            *st = Some(result);
        }
        drop(st);
        self.done.notify_all();
    }

    /// The result so far, without blocking.
    pub fn peek(&self) -> Option<FlightResult> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Blocks until the flight resolves or `deadline` passes. `None` means
    /// the flight is still running — the waiter's deadline expired, which
    /// does NOT cancel the execution; it keeps running for other waiters
    /// and lands in the cache.
    pub fn wait_until(&self, deadline: Instant) -> Option<FlightResult> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = st.as_ref() {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
}

/// A cell a request wants to claim: fingerprint plus labels for failure
/// bodies.
#[derive(Clone, Copy, Debug)]
pub struct CellClaim<'a> {
    /// Cell fingerprint (the single-flight key).
    pub fp: u64,
    /// Variant name.
    pub variant: &'a str,
    /// Target label.
    pub target: &'a str,
}

/// Responsibility for one claimed flight. Dropping a guard without
/// resolving it resolves the flight as transient — an executor that dies
/// can delay waiters, never strand them.
pub struct ClaimGuard {
    fp: u64,
    variant: String,
    target: String,
    flight: Arc<Flight>,
    registry: Arc<Flights>,
    resolved: bool,
}

impl ClaimGuard {
    /// The claimed cell's fingerprint.
    pub fn fp(&self) -> u64 {
        self.fp
    }

    /// A waitable handle on the claimed flight.
    pub fn flight(&self) -> Arc<Flight> {
        Arc::clone(&self.flight)
    }

    /// Resolves the flight and retires it from the registry.
    pub fn resolve(mut self, result: FlightResult) {
        self.resolved = true;
        self.registry.finish(self.fp, &self.flight, result);
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if !self.resolved {
            self.registry.finish(
                self.fp,
                &self.flight,
                FlightResult::Transient {
                    variant: self.variant.clone(),
                    target: self.target.clone(),
                    outcome: "crashed",
                    detail: "executor dropped the claim".into(),
                },
            );
        }
    }
}

/// The single-flight registry: fingerprint → live flight.
#[derive(Default)]
pub struct Flights {
    map: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Flights {
    /// An empty registry.
    pub fn new() -> Flights {
        Flights::default()
    }

    /// For each wanted cell: create-and-claim a new flight, or join the
    /// one already in the air. Returns the claims this caller now owns and
    /// the flights it merely joined. Atomic across the whole set, so two
    /// racing requests split the cells rather than double-claiming.
    /// `owner` is the claiming request's sequence number, reported as
    /// `served_by` to every later joiner.
    pub fn claim_or_join(
        this: &Arc<Flights>,
        cells: &[CellClaim<'_>],
        owner: u64,
    ) -> (Vec<ClaimGuard>, Vec<Arc<Flight>>) {
        let mut claimed = Vec::new();
        let mut joined = Vec::new();
        let mut map = this.map.lock().unwrap_or_else(|e| e.into_inner());
        for c in cells {
            match map.get(&c.fp) {
                Some(f) => joined.push(Arc::clone(f)),
                None => {
                    let flight = Arc::new(Flight::new(owner));
                    map.insert(c.fp, Arc::clone(&flight));
                    claimed.push(ClaimGuard {
                        fp: c.fp,
                        variant: c.variant.to_string(),
                        target: c.target.to_string(),
                        flight,
                        registry: Arc::clone(this),
                        resolved: false,
                    });
                }
            }
        }
        indigo_obs::Gauge::ServeLiveFlights.set(map.len() as i64);
        (claimed, joined)
    }

    /// The flights already in the air for `fps`, without claiming anything
    /// (used by a request that is out of execution attempts but can still
    /// free-ride on someone else's run).
    pub fn join_only(&self, fps: &[u64]) -> Vec<Arc<Flight>> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        fps.iter().filter_map(|fp| map.get(fp).cloned()).collect()
    }

    /// Flights currently in the air.
    pub fn in_flight(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn finish(&self, fp: u64, flight: &Arc<Flight>, result: FlightResult) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        // remove only our own entry — a later claimer may already have
        // registered a fresh flight under the same fingerprint
        if map.get(&fp).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            map.remove(&fp);
            indigo_obs::Gauge::ServeLiveFlights.set(map.len() as i64);
        }
        drop(map);
        flight.resolve(result);
    }
}

/// One attempt's worth of claimed work: one plan on one resident input.
pub struct Submission {
    /// The shard's resident input; names the plan's graph and scale.
    pub input: Arc<Prepared>,
    /// Repetitions per cell.
    pub reps: usize,
    /// Style variants to replan.
    pub variants: Vec<StyleConfig>,
    /// Per-cell watchdog budget for this attempt.
    pub budget: Duration,
    /// Injected fault (chaos mode); strikes the plan's first cell.
    pub fault: Option<FaultSpec>,
    /// The flights this submission must resolve.
    pub claims: Vec<ClaimGuard>,
}

/// How many executor threads a server with `workers` request workers
/// runs: one per core this thread may use, and never more than `workers`.
/// `available_parallelism` honours the calling thread's CPU affinity, so a
/// server started on a pinned thread gets one executor per pinned CPU.
pub(crate) fn executor_count(workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    workers.clamp(1, cores)
}

/// The plan executors: threads named `serve-batcher` that drain one queue
/// of submissions in arrival order, run each as its own plan, and resolve
/// the claimed flights. Each executor is a simulating thread with its own
/// warmed `StepTable`, which is why there are no more of them than cores.
/// (The name is from when one thread merged submissions into batches; a
/// batch is now one submission, which is what `/stats` `batches` counts.)
pub struct Batcher {
    queue: Arc<Admission<Submission>>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns `executors` (at least one) executor threads.
    pub fn spawn(
        cache: Arc<ResultCache>,
        stats: Arc<Stats>,
        jobs: usize,
        executors: usize,
    ) -> std::io::Result<Batcher> {
        // capacity bounds claimers parked on the executors, not clients —
        // a full queue makes the claimer run inline instead
        let queue: Arc<Admission<Submission>> = Arc::new(Admission::new_unrecorded(64));
        // built first, so a failed spawn drops it: the queue closes and the
        // executors already started are joined
        let mut batcher = Batcher {
            queue,
            runners: Mutex::new(Vec::new()),
        };
        for _ in 0..executors.max(1) {
            let queue = Arc::clone(&batcher.queue);
            let (cache, stats) = (Arc::clone(&cache), Arc::clone(&stats));
            let runner = std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || {
                    while let Some(sub) = queue.pop() {
                        let claims = sub.claims.len() as u64;
                        run_submission(&cache, &stats, jobs, sub);
                        stats.bump(ServeCounter::Batches);
                        stats.add(ServeCounter::BatchedCells, claims);
                    }
                })?;
            batcher
                .runners
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .push(runner);
        }
        Ok(batcher)
    }

    /// Queues a submission for the next free executor. `Err` returns it
    /// (queue full or closed) — the caller should execute inline.
    pub fn submit(&self, sub: Submission) -> Result<(), Submission> {
        self.queue.try_push(sub).map_err(|e| match e {
            crate::admission::PushError::Full(s) => s,
            crate::admission::PushError::Closed(s) => s,
        })
    }

    /// Stops the executors once the queue drains and joins them all.
    pub fn shutdown(&self) {
        self.queue.close();
        let runners = std::mem::take(&mut *self.runners.lock().unwrap_or_else(|e| e.into_inner()));
        for h in runners {
            let _ = h.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Executes one submission as one plan and resolves its claims — the one
/// runner behind the executor threads and the engine's inline route, so
/// both produce identical cache contents and flight outcomes.
pub fn run_submission(cache: &ResultCache, stats: &Stats, jobs: usize, sub: Submission) {
    let Submission {
        input,
        reps,
        variants,
        budget,
        fault,
        claims,
    } = sub;
    let plan = RunPlan {
        variants,
        graphs: vec![input.which()],
        scale: input.scale(),
        reps,
        verify: true,
    };
    let mut res = Resilience::none().with_cell_timeout(budget);
    if let Some(f) = fault {
        res = res.with_fault(f);
    }
    // the plan is now actually running: stamp every claimed flight so the
    // claim → execution gap is attributable as batch wait
    let exec_start = now_micros();
    for guard in &claims {
        let flight = guard.flight();
        flight.mark_exec_start(exec_start);
        indigo_obs::Hist::ServeBatchWaitMicros.record(flight.batch_wait_us());
    }
    let opts = RunOptions::default().with_jobs(jobs.max(1));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        plan.run_cells_on(&[input], &opts, &res, |_| {})
    }));
    let run = match outcome {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => {
            let detail = format!("harness error: {e}");
            return resolve_all_transient(claims, &detail);
        }
        Err(_) => return resolve_all_transient(claims, "plan execution panicked"),
    };
    let ok_records: Vec<&CellRecord> = run
        .records
        .iter()
        .filter(|r| matches!(r.outcome, CellOutcome::Ok(_)))
        .collect();
    let journal_errors = cache.insert_batch(&ok_records);
    stats.add(ServeCounter::JournalErrors, journal_errors as u64);
    let by_fp: HashMap<u64, &CellRecord> = run.records.iter().map(|r| (r.fingerprint, r)).collect();
    for guard in claims {
        let result = match by_fp.get(&guard.fp()) {
            Some(rec) => match &rec.outcome {
                CellOutcome::Ok(_) => FlightResult::Done,
                CellOutcome::Crashed { payload } => FlightResult::Transient {
                    variant: rec.variant.clone(),
                    target: rec.target.clone(),
                    outcome: "crashed",
                    detail: payload.clone(),
                },
                CellOutcome::TimedOut { reason, .. } => FlightResult::Transient {
                    variant: rec.variant.clone(),
                    target: rec.target.clone(),
                    outcome: "timed-out",
                    detail: reason.clone(),
                },
                CellOutcome::WrongAnswer { detail } => FlightResult::Poisoned {
                    variant: rec.variant.clone(),
                    target: rec.target.clone(),
                    detail: detail.clone(),
                },
            },
            None => FlightResult::Transient {
                variant: guard.variant.clone(),
                target: guard.target.clone(),
                outcome: "crashed",
                detail: "cell missing from the executed plan".into(),
            },
        };
        guard.resolve(result);
    }
}

fn resolve_all_transient(claims: Vec<ClaimGuard>, detail: &str) {
    for guard in claims {
        let result = FlightResult::Transient {
            variant: guard.variant.clone(),
            target: guard.target.clone(),
            outcome: "crashed",
            detail: detail.to_string(),
        };
        guard.resolve(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims(this: &Arc<Flights>, fps: &[u64]) -> (Vec<ClaimGuard>, Vec<Arc<Flight>>) {
        let cells: Vec<CellClaim<'_>> = fps
            .iter()
            .map(|&fp| CellClaim {
                fp,
                variant: "v",
                target: "t",
            })
            .collect();
        Flights::claim_or_join(this, &cells, 42)
    }

    #[test]
    fn one_executor_per_usable_core_up_to_the_worker_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (workers, want) in [(1, 1), (4, cores.min(4))] {
            let executors = executor_count(workers);
            assert_eq!(executors, want, "workers: {workers} on {cores} cores");
            let cache = Arc::new(ResultCache::open(None).unwrap());
            let batcher = Batcher::spawn(cache, Arc::new(Stats::new()), 1, executors).unwrap();
            let spawned = batcher.runners.lock().unwrap().len();
            assert_eq!(
                spawned, want,
                "workers: {workers} spawned {spawned} executors"
            );
            batcher.shutdown();
            assert!(
                batcher.runners.lock().unwrap().is_empty(),
                "shutdown joins them all"
            );
        }
    }

    #[test]
    fn second_request_joins_instead_of_claiming() {
        let reg = Arc::new(Flights::new());
        let (c1, j1) = claims(&reg, &[10, 11]);
        assert_eq!((c1.len(), j1.len()), (2, 0));
        let (c2, j2) = claims(&reg, &[11, 12]);
        assert_eq!((c2.len(), j2.len()), (1, 1), "11 joined, 12 claimed");
        assert_eq!(reg.in_flight(), 3);

        // resolving fans out to the joiner and retires the flight
        for g in c1 {
            g.resolve(FlightResult::Done);
        }
        assert!(matches!(
            j2[0].wait_until(Instant::now()),
            Some(FlightResult::Done)
        ));
        assert_eq!(reg.in_flight(), 1);
        drop(c2);
    }

    #[test]
    fn dropped_claim_resolves_transient_so_waiters_reclaim() {
        let reg = Arc::new(Flights::new());
        let (c, _) = claims(&reg, &[77]);
        let (_, joined) = claims(&reg, &[77]);
        drop(c); // executor died without resolving
        match joined[0].wait_until(Instant::now() + Duration::from_secs(2)) {
            Some(FlightResult::Transient { outcome, .. }) => assert_eq!(outcome, "crashed"),
            other => panic!("expected transient after dropped claim, got {other:?}"),
        }
        // the fingerprint is claimable again
        let (c2, j2) = claims(&reg, &[77]);
        assert_eq!((c2.len(), j2.len()), (1, 0));
    }

    #[test]
    fn waiter_deadline_expiry_leaves_the_flight_running() {
        let reg = Arc::new(Flights::new());
        let (c, _) = claims(&reg, &[5]);
        let flight = c[0].flight();
        // a waiter that times out gets None, and the flight is still live
        assert!(flight.wait_until(Instant::now()).is_none());
        assert_eq!(reg.in_flight(), 1);
        c.into_iter().next().unwrap().resolve(FlightResult::Done);
        assert!(matches!(flight.peek(), Some(FlightResult::Done)));
    }
}
