//! The run matrix: every selected variant on every input on every target.
//!
//! [`RunPlan::run_cells`] executes the matrix under a two-level parallel
//! scheduler (see [`crate::schedule`]) with full fault tolerance (DESIGN.md
//! §7.3): every measurement cell runs inside a `catch_unwind` isolation
//! boundary, a watchdog thread enforces per-cell wall-clock budgets through
//! cooperative [`CancelToken`]s, completed cells stream into an append-only
//! checkpoint journal, and deterministic faults can be injected to exercise
//! all of it. Graph preparation and GPU-sim cells fan out across a host
//! thread pool, CPU wall-clock cells run exclusively afterwards, and every
//! cell lands in a slot indexed by the serial nesting order — so results
//! are bit-identical to a single-threaded run for any job count.
//!
//! The Prepare phase is also an entry point: `run_cells` is "prepare, then
//! [`RunPlan::run_cells_on`]", and a caller that keeps its [`Prepared`]
//! inputs (the query server, one per resident graph) calls the second half
//! directly.
//!
//! [`RunPlan::run_with`] is the strict legacy entry point, now a thin layer
//! over `run_cells`: isolation only, and any non-`Ok` outcome re-raised as
//! a panic.

use crate::journal::{self, JournalEntry, JournalOutcome};
use crate::outcome::{CellFaultKind, CellOutcome, CellRecord, MatrixRun, Resilience};
use crate::schedule::{ProgressEvent, RunOptions, RunPhase};
use indigo_cancel::CancelToken;
use indigo_core::gpu::DeviceGraph;
use indigo_core::{
    run_gpu_shared, run_gpu_supervised, run_variant_supervised, verify, GraphInput, Output,
    SimStats, Supervision, Target,
};
use indigo_exec::SYSTEM_PROFILES;
use indigo_gpusim::{rtx3090, titan_v, Device, FaultKind, FaultPlan};
use indigo_graph::gen::{suite_graph, Scale, SuiteGraph, SUITE_GRAPHS};
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One measured (variant, input, target) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The program variant.
    pub cfg: StyleConfig,
    /// Input graph label (`SuiteGraph::label`).
    pub graph: &'static str,
    /// Target label (`"TitanV-sim"`, `"sys1"`, …).
    pub target: String,
    /// Throughput in giga-edges per second (§4.5).
    pub geps: f64,
    /// Convergence iterations of the run.
    pub iterations: usize,
}

/// A measurement target: one simulated GPU or one CPU system profile.
#[derive(Clone, Debug)]
pub enum TargetSpec {
    /// Simulated GPU device.
    Gpu(Device),
    /// CPU profile: name + thread count.
    Cpu(&'static str, usize),
}

impl TargetSpec {
    /// Display label used in reports.
    pub fn label(&self) -> String {
        match self {
            TargetSpec::Gpu(d) => d.name.to_string(),
            TargetSpec::Cpu(name, _) => name.to_string(),
        }
    }

    /// The default targets for a model: both GPUs for CUDA, both system
    /// profiles for the CPU models (§4.3).
    pub fn defaults_for(model: Model) -> Vec<TargetSpec> {
        match model {
            Model::Cuda => vec![TargetSpec::Gpu(titan_v()), TargetSpec::Gpu(rtx3090())],
            _ => SYSTEM_PROFILES
                .iter()
                .map(|p| TargetSpec::Cpu(p.name, p.threads))
                .collect(),
        }
    }
}

/// What to run.
pub struct RunPlan {
    /// Variants to measure.
    pub variants: Vec<StyleConfig>,
    /// Inputs (paper Table 4 families).
    pub graphs: Vec<SuiteGraph>,
    /// Instance scale.
    pub scale: Scale,
    /// Wall-clock repetitions for CPU runs (median taken; the paper uses 9).
    pub reps: usize,
    /// Verify every output against the serial reference (§4.1). Slows large
    /// sweeps; recommended on.
    pub verify: bool,
}

/// One prepared input: a suite graph in every layout the styles need, its
/// copy in simulated device memory, and the `(graph, scale)` it was built
/// from. Preparing is the matrix's fixed cost — generation, layout
/// conversion, upload, and (memoized inside the [`GraphInput`]) the serial
/// reference solutions — so a caller that runs many plans over the same
/// graphs keeps its inputs and hands them to [`RunPlan::run_cells_on`].
pub struct Prepared {
    which: SuiteGraph,
    scale: Scale,
    input: GraphInput,
    device: DeviceGraph,
}

impl Prepared {
    /// Generates `which` at `scale` and uploads it.
    pub fn new(which: SuiteGraph, scale: Scale) -> Prepared {
        let input = GraphInput::new(suite_graph(which, scale));
        // upload once per graph, reused by every GPU variant
        let device = DeviceGraph::upload(&input);
        Prepared {
            which,
            scale,
            input,
            device,
        }
    }

    /// The suite graph this input was generated from.
    pub fn which(&self) -> SuiteGraph {
        self.which
    }

    /// The scale this input was generated at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The host-side input (CSR + COO, always weighted).
    pub fn input(&self) -> &GraphInput {
        &self.input
    }
}

/// One enumerated cell: its slot (serial nesting position) plus indices
/// into the plan's graph/variant lists.
struct Cell {
    slot: usize,
    graph: usize,
    variant: usize,
    target: TargetSpec,
}

impl RunPlan {
    /// Every variant of `algorithms` under `models`, all five inputs.
    pub fn for_algorithms(
        algorithms: &[Algorithm],
        models: &[Model],
        scale: Scale,
        reps: usize,
    ) -> RunPlan {
        let variants = models
            .iter()
            .flat_map(|&m| {
                algorithms
                    .iter()
                    .flat_map(move |&a| enumerate::variants(a, m))
            })
            .collect();
        RunPlan {
            variants,
            graphs: SUITE_GRAPHS.to_vec(),
            scale,
            reps,
            verify: true,
        }
    }

    /// Keeps only variants satisfying `pred`.
    pub fn filter(mut self, pred: impl Fn(&StyleConfig) -> bool) -> RunPlan {
        self.variants.retain(|c| pred(c));
        self
    }

    /// Restricts the input set.
    pub fn with_graphs(mut self, graphs: Vec<SuiteGraph>) -> RunPlan {
        self.graphs = graphs;
        self
    }

    /// Runs the full matrix single-threaded; `progress` is invoked with
    /// (done, total) *measurement cells*.
    pub fn run(&self, mut progress: impl FnMut(usize, usize)) -> Vec<Measurement> {
        self.run_with(&RunOptions::default(), |ev| {
            if let ProgressEvent::Cell { phase, done, total } = ev {
                if phase != RunPhase::Prepare {
                    progress(done, total);
                }
            }
        })
    }

    /// Runs the full matrix under the two-level scheduler, strictly: cells
    /// are isolated (one panicking cell cannot poison the worker pools) but
    /// any non-`Ok` outcome is re-raised as a panic once the matrix
    /// completes. The returned vector — order and values — is identical to
    /// `options.jobs == 1` for any job count.
    ///
    /// For structured outcomes, budgets, checkpointing, and fault injection
    /// use [`RunPlan::run_cells`].
    pub fn run_with(
        &self,
        options: &RunOptions,
        progress: impl FnMut(ProgressEvent),
    ) -> Vec<Measurement> {
        let run = self
            .run_cells(options, &Resilience::none(), progress)
            .expect("isolation-only runs have no journal to fail on");
        let mut out = Vec::with_capacity(run.records.len());
        for r in run.records {
            match r.outcome {
                CellOutcome::Ok(m) => out.push(m),
                CellOutcome::WrongAnswer { detail } => panic!(
                    "verification failed for {} on {}: {detail}",
                    r.variant, r.graph
                ),
                CellOutcome::Crashed { payload } => panic!(
                    "cell {} on {} ({}) crashed: {payload}",
                    r.variant, r.graph, r.target
                ),
                CellOutcome::TimedOut { reason, .. } => panic!(
                    "cell {} on {} ({}) timed out: {reason}",
                    r.variant, r.graph, r.target
                ),
            }
        }
        out
    }

    /// Runs the full matrix fault-tolerantly: every cell ends in exactly
    /// one [`CellOutcome`] and the run always produces a complete
    /// [`MatrixRun`] — crashes, timeouts, and wrong answers become
    /// structured records instead of aborting the sweep.
    ///
    /// Scheduling is identical to [`RunPlan::run_with`] (slot-indexed,
    /// bit-identical across job counts). On top of it, `res` enables:
    ///
    /// * **watchdog timeouts** — `res.cell_timeout` arms a monitor thread
    ///   that fires the cell's [`CancelToken`] past the budget; the cell
    ///   unwinds at its next cancellation point (kernel-launch, pool-chunk,
    ///   or repetition boundary) into a `TimedOut` record;
    /// * **cycle budgets** — `res.cycle_budget` caps *simulated* cycles of
    ///   GPU cells, catching non-converging kernels whose individual
    ///   launches are fast;
    /// * **checkpoint/resume** — `res.journal` streams completed cells to
    ///   an append-only JSONL journal; `res.resume` preloads it and replays
    ///   recorded cells instead of re-running them (bit-exact, see
    ///   [`crate::journal`]);
    /// * **fault injection** — `res.fault` deterministically panics,
    ///   stalls, or corrupts one cell, so all of the above is testable.
    ///
    /// `Err` is returned only for harness-level failures (unusable journal,
    /// invalid fault configuration) — never for failing cells.
    pub fn run_cells(
        &self,
        options: &RunOptions,
        res: &Resilience,
        mut progress: impl FnMut(ProgressEvent),
    ) -> Result<MatrixRun, String> {
        // refuse an unusable configuration before paying for the inputs
        self.check(res)?;
        let inputs = self.prepare(options.jobs.max(1), &mut progress);
        self.run_cells_on(&inputs, options, res, progress)
    }

    /// [`RunPlan::run_cells`] on inputs the caller already holds: the GPU
    /// and CPU phases only, so a plan of one or two cells costs its cells
    /// and not a graph generation. `inputs[i]` must be `self.graphs[i]` at
    /// `self.scale` — anything else is an `Err` before any cell runs,
    /// because the cell fingerprints name the plan's graphs and a
    /// measurement of another input filed under them would be replayed as
    /// theirs from every journal and cache it reaches.
    pub fn run_cells_on(
        &self,
        inputs: &[Arc<Prepared>],
        options: &RunOptions,
        res: &Resilience,
        mut progress: impl FnMut(ProgressEvent),
    ) -> Result<MatrixRun, String> {
        let jobs = options.jobs.max(1);
        self.check(res)?;
        if inputs.len() != self.graphs.len() {
            return Err(format!(
                "plan has {} graph(s) but {} prepared input(s)",
                self.graphs.len(),
                inputs.len()
            ));
        }
        for (want, got) in self.graphs.iter().zip(inputs) {
            if (got.which, got.scale) != (*want, self.scale) {
                return Err(format!(
                    "prepared input is {} at {:?}, the plan wants {} at {:?}",
                    got.which.label(),
                    got.scale,
                    want.label(),
                    self.scale
                ));
            }
        }

        // ---- journal: load what a previous (interrupted) run completed,
        // open the appender for what this run will complete
        let resumed: HashMap<u64, JournalEntry> = match &res.journal {
            Some(path) if res.resume => {
                journal::load(path)
                    .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?
                    .0
            }
            _ => HashMap::new(),
        };
        let writer = match &res.journal {
            Some(path) => Some(
                journal::Journal::append_to(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let journal_err: Mutex<Option<String>> = Mutex::new(None);

        let watchdog = res.cell_timeout.map(|_| Watchdog::start());

        // ---- enumerate cells in serial nesting order; the slot index is
        // the position a single-threaded run would emit the measurement at
        let (gpu_cells, cpu_cells, total_cells) = self.enumerate_cells();
        let slots: Vec<OnceLock<CellRecord>> = (0..total_cells).map(|_| OnceLock::new()).collect();

        // journals a fresh record and files it in its slot
        let file = |cell: &Cell, record: CellRecord| {
            if !record.resumed {
                if let Some(j) = &writer {
                    if let Err(e) = j.record(&record) {
                        let mut slot = journal_err.lock().unwrap_or_else(|p| p.into_inner());
                        if slot.is_none() {
                            *slot = Some(format!("journal write failed: {e}"));
                        }
                    }
                }
            }
            let filled = slots[cell.slot].set(record);
            debug_assert!(filled.is_ok(), "slot {} measured twice", cell.slot);
        };

        // ---- phase 2: GPU-sim cells, fanned across the job pool one
        // (graph, variant) at a time: its device cells sit in adjacent
        // slots and share one execution
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::GpuSim,
            total: gpu_cells.len(),
        });
        let units: Vec<&[Cell]> = gpu_cells
            .chunk_by(|a, b| (a.graph, a.variant) == (b.graph, b.variant))
            .collect();
        let cells_done = AtomicUsize::new(0);
        let mut reported = 0;
        run_indexed_parallel(
            units.len(),
            jobs,
            |u| {
                let unit = units[u];
                let records = self.execute_gpu_cells(
                    unit,
                    &inputs[unit[0].graph],
                    options,
                    res,
                    watchdog.as_ref(),
                    &resumed,
                );
                for (cell, record) in unit.iter().zip(records) {
                    file(cell, record);
                }
                cells_done.fetch_add(unit.len(), Ordering::Release);
            },
            |_| {
                // one event per cell, a unit's back to back
                let done = cells_done.load(Ordering::Acquire);
                while reported < done {
                    reported += 1;
                    progress(ProgressEvent::Cell {
                        phase: RunPhase::GpuSim,
                        done: reported,
                        total: gpu_cells.len(),
                    });
                }
            },
        );
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::GpuSim,
            total: gpu_cells.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::GpuSim, started_us, gpu_cells.len());

        // ---- phase 3: CPU wall-clock cells, exclusive (no concurrent
        // measurement work that would skew the timings)
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::CpuWall,
            total: cpu_cells.len(),
        });
        for (done, cell) in cpu_cells.iter().enumerate() {
            let record = self.execute_cell(
                cell,
                &inputs[cell.graph],
                options,
                res,
                watchdog.as_ref(),
                &resumed,
            );
            file(cell, record);
            progress(ProgressEvent::Cell {
                phase: RunPhase::CpuWall,
                done: done + 1,
                total: cpu_cells.len(),
            });
        }
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::CpuWall,
            total: cpu_cells.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::CpuWall, started_us, cpu_cells.len());

        let records: Vec<CellRecord> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell slot recorded"))
            .collect();
        if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        Ok(MatrixRun { records })
    }

    /// Everything about `res` that can be refused without running anything.
    fn check(&self, res: &Resilience) -> Result<(), String> {
        // A zero-duration budget would arm a watchdog whose deadline has
        // already passed: every cell is cancelled at its first checkpoint
        // and the whole matrix reads as timed out. Nobody means that —
        // reject it loudly ("no timeout" is spelled by omitting the option).
        if res.cell_timeout.is_some_and(|d| d.is_zero()) {
            return Err(
                "cell timeout of 0s would cancel every cell at its first checkpoint; \
                 omit --cell-timeout to run without a watchdog"
                    .to_string(),
            );
        }

        if let Some(f) = res.fault {
            if f.kind == CellFaultKind::Stall && res.cell_timeout.is_none() {
                return Err(
                    "a stall fault needs a cell timeout: the watchdog is what recovers from a stall"
                        .to_string(),
                );
            }
            if f.kind == CellFaultKind::Corrupt && !self.verify {
                return Err(
                    "a corrupt fault needs verification enabled to be observable".to_string(),
                );
            }
        }

        match &res.journal {
            None if res.resume => Err("resume requested without a journal path".to_string()),
            Some(path) if !res.resume => {
                let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                if len > 0 {
                    return Err(format!(
                        "journal {} already exists; resume it or remove it first",
                        path.display()
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Phase 1: prepare inputs (generate + upload), one per graph.
    fn prepare(&self, jobs: usize, progress: &mut impl FnMut(ProgressEvent)) -> Vec<Arc<Prepared>> {
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::Prepare,
            total: self.graphs.len(),
        });
        let inputs = run_indexed_parallel(
            self.graphs.len(),
            jobs,
            |g| Arc::new(Prepared::new(self.graphs[g], self.scale)),
            |done| {
                progress(ProgressEvent::Cell {
                    phase: RunPhase::Prepare,
                    done,
                    total: self.graphs.len(),
                });
            },
        );
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::Prepare,
            total: self.graphs.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::Prepare, started_us, self.graphs.len());
        inputs
    }

    /// Splits the matrix into GPU-sim and CPU wall-clock cells, assigning
    /// serial-nesting slot indices (graphs → variants → targets).
    fn enumerate_cells(&self) -> (Vec<Cell>, Vec<Cell>, usize) {
        let mut gpu_cells = Vec::new();
        let mut cpu_cells = Vec::new();
        let mut slot = 0usize;
        for graph in 0..self.graphs.len() {
            for (variant, cfg) in self.variants.iter().enumerate() {
                for target in TargetSpec::defaults_for(cfg.model) {
                    let is_gpu = matches!(target, TargetSpec::Gpu(_));
                    let cell = Cell {
                        slot,
                        graph,
                        variant,
                        target,
                    };
                    if is_gpu {
                        gpu_cells.push(cell);
                    } else {
                        cpu_cells.push(cell);
                    }
                    slot += 1;
                }
            }
        }
        (gpu_cells, cpu_cells, slot)
    }

    /// Runs (or replays) the GPU cells of one (graph, variant) — one per
    /// device, in adjacent slots — to one record each, in slot order.
    ///
    /// Fresh cells execute once, priced for every device
    /// ([`run_gpu_shared`]), under one token and one watchdog watch, and
    /// their output is verified once. A device the execution stopped
    /// pricing — and every device but the first when the first unwinds —
    /// then runs alone through [`RunPlan::execute_cell`], so every record
    /// equals the one a run of its cell alone writes. A cell resumed from
    /// the journal or targeted by an injected fault runs (or replays) alone
    /// too, and so does its partner.
    fn execute_gpu_cells(
        &self,
        cells: &[Cell],
        prepared: &Prepared,
        options: &RunOptions,
        res: &Resilience,
        watchdog: Option<&Watchdog>,
        resumed: &HashMap<u64, JournalEntry>,
    ) -> Vec<CellRecord> {
        let solo = |cell: &Cell| self.execute_cell(cell, prepared, options, res, watchdog, resumed);
        let alone = cells.len() == 1
            || cells.iter().any(|c| {
                resumed.contains_key(&self.labels(c).3)
                    || res.fault.is_some_and(|f| f.cell == c.slot)
            });
        if alone {
            return cells.iter().map(solo).collect();
        }
        let shared = self.execute_shared(cells, prepared, options, res, watchdog);
        (shared.into_iter().zip(cells))
            .map(|(record, cell)| record.unwrap_or_else(|| solo(cell)))
            .collect()
    }

    /// One execution of `cells` (one graph and variant, one device each),
    /// priced for all of them: a record per cell, `None` where that cell
    /// must run alone (see [`RunPlan::execute_gpu_cells`]).
    fn execute_shared(
        &self,
        cells: &[Cell],
        prepared: &Prepared,
        options: &RunOptions,
        res: &Resilience,
        watchdog: Option<&Watchdog>,
    ) -> Vec<Option<CellRecord>> {
        let cfg = &self.variants[cells[0].variant];
        let devices: Vec<Device> = (cells.iter())
            .map(|c| match c.target {
                TargetSpec::Gpu(d) => d,
                TargetSpec::Cpu(..) => unreachable!("only GPU cells share an execution"),
            })
            .collect();
        let (sup, guard) = supervision(res, watchdog, false);
        let started_us = obs_clock();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_gpu_shared(cfg, &prepared.device, &devices, options.sim_workers, &sup)
        }));
        let outcomes: Vec<Option<(CellOutcome, Option<SimStats>)>> = match run {
            Ok(run) => {
                let verdict = match self.verify {
                    true => verify::check(cfg, &prepared.input, &run.output),
                    false => Ok(()),
                };
                (cells.iter().zip(run.priced))
                    .map(|(cell, priced)| {
                        let (secs, stats) = priced?;
                        let outcome = match &verdict {
                            Ok(()) => CellOutcome::Ok(self.measurement(
                                cell,
                                &prepared.input,
                                secs,
                                run.iterations,
                            )),
                            Err(detail) => CellOutcome::WrongAnswer {
                                detail: detail.clone(),
                            },
                        };
                        Some((outcome, Some(stats)))
                    })
                    .collect()
            }
            // the first device's outcome is the unwind; the rest run alone
            Err(payload) => (0..cells.len())
                .map(|i| (i == 0).then(|| (unwound(payload.as_ref(), guard.as_ref(), res), None)))
                .collect(),
        };
        drop(guard);
        // the execution's wall time, split evenly between the cells it priced
        let dur_us = obs_clock().saturating_sub(started_us);
        let shares = outcomes.iter().flatten().count().max(1) as u64;
        let mut share = 0;
        (cells.iter().zip(outcomes))
            .map(|(cell, outcome)| {
                let (outcome, stats) = outcome?;
                let (variant, graph, target, fp) = self.labels(cell);
                let begin = started_us + dur_us * share / shares;
                share += 1;
                let end = started_us + dur_us * share / shares;
                emit_cell_span(
                    &variant,
                    graph,
                    &target,
                    begin,
                    end - begin,
                    &outcome,
                    stats,
                );
                Some(CellRecord {
                    fingerprint: fp,
                    variant,
                    graph,
                    target,
                    outcome,
                    resumed: false,
                })
            })
            .collect()
    }

    /// A cell's variant name, graph and target labels, and fingerprint.
    fn labels(&self, cell: &Cell) -> (String, &'static str, String, u64) {
        let variant = self.variants[cell.variant].name();
        let graph = self.graphs[cell.graph].label();
        let target = cell.target.label();
        let fp = journal::fingerprint(self.scale, self.reps, self.verify, &variant, graph, &target);
        (variant, graph, target, fp)
    }

    /// Runs (or replays) one cell to a [`CellRecord`]. This is the
    /// isolation boundary: whatever happens inside — panic, cancellation,
    /// verification failure — ends as a structured outcome, never an
    /// unwind into the scheduler.
    fn execute_cell(
        &self,
        cell: &Cell,
        prepared: &Prepared,
        options: &RunOptions,
        res: &Resilience,
        watchdog: Option<&Watchdog>,
        resumed: &HashMap<u64, JournalEntry>,
    ) -> CellRecord {
        let cfg = &self.variants[cell.variant];
        let (variant, graph_label, target_label, fp) = self.labels(cell);
        if let Some(entry) = resumed.get(&fp) {
            return replay_record(fp, cfg, graph_label, &target_label, &variant, entry);
        }

        let fault_here = res.fault.filter(|f| f.cell == cell.slot);
        let (mut sup, guard) = supervision(res, watchdog, fault_here.is_some());
        let mut corrupt = false;
        let mut harness_fault = None;
        if let Some(f) = fault_here {
            let is_gpu = matches!(cell.target, TargetSpec::Gpu(_));
            match f.kind {
                // corruption is injected between the run and the verifier
                CellFaultKind::Corrupt => corrupt = true,
                // GPU faults strike inside the simulator, at a launch
                // boundary; CPU faults are injected right here at the
                // harness layer
                CellFaultKind::Panic if is_gpu => {
                    sup.fault = Some(FaultPlan {
                        kind: FaultKind::Panic,
                        at_launch: 0,
                    })
                }
                CellFaultKind::Stall if is_gpu => {
                    sup.fault = Some(FaultPlan {
                        kind: FaultKind::Stall,
                        at_launch: 0,
                    })
                }
                other => harness_fault = Some(other),
            }
        }

        let cell_started_us = obs_clock();
        let run = catch_unwind(AssertUnwindSafe(|| {
            match harness_fault {
                Some(CellFaultKind::Panic) => {
                    panic!("injected fault: panic at cell {}", cell.slot)
                }
                Some(CellFaultKind::Stall) => {
                    let t = sup.cancel.as_ref().expect("stall faults carry a token");
                    loop {
                        t.checkpoint();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
            self.run_cell(cell, prepared, options.sim_workers, &sup, corrupt)
        }));
        let mut sim_stats = None;
        let outcome = match run {
            Ok(Ok((m, s))) => {
                sim_stats = s;
                CellOutcome::Ok(m)
            }
            Ok(Err(detail)) => CellOutcome::WrongAnswer { detail },
            Err(payload) => unwound(payload.as_ref(), guard.as_ref(), res),
        };
        drop(guard);
        let dur_us = obs_clock().saturating_sub(cell_started_us);
        emit_cell_span(
            &variant,
            graph_label,
            &target_label,
            cell_started_us,
            dur_us,
            &outcome,
            sim_stats,
        );
        CellRecord {
            fingerprint: fp,
            variant,
            graph: graph_label,
            target: target_label,
            outcome,
            resumed: false,
        }
    }

    /// Measures one cell. `Err` means the output diverged from the serial
    /// reference (the detail string); panics — including [`Cancelled`]
    /// unwinds from the supervision machinery — propagate to the caller's
    /// isolation boundary. The second element carries simulator statistics
    /// for GPU cells (telemetry only; `None` for CPU cells).
    ///
    /// [`Cancelled`]: indigo_cancel::Cancelled
    fn run_cell(
        &self,
        cell: &Cell,
        prepared: &Prepared,
        sim_workers: usize,
        sup: &Supervision,
        corrupt: bool,
    ) -> Result<(Measurement, Option<SimStats>), String> {
        let cfg = &self.variants[cell.variant];
        let (input, dg) = (&prepared.input, &prepared.device);
        let (mut result, reps) = match cell.target {
            TargetSpec::Gpu(device) => {
                // the simulator is deterministic: one run is exact
                (run_gpu_supervised(cfg, dg, device, sim_workers, sup), 1)
            }
            TargetSpec::Cpu(_, threads) => (
                run_variant_supervised(cfg, input, &Target::cpu(threads), sup),
                self.reps.max(1),
            ),
        };
        let mut secs = vec![result.secs];
        if let TargetSpec::Cpu(_, threads) = cell.target {
            for _ in 1..reps {
                // repetition boundaries are cancellation points
                if let Some(token) = &sup.cancel {
                    token.checkpoint();
                }
                secs.push(run_variant_supervised(cfg, input, &Target::cpu(threads), sup).secs);
            }
        }
        secs.sort_by(f64::total_cmp);
        let sim_stats = result.sim;
        if corrupt {
            corrupt_output(&mut result.output);
        }
        if self.verify {
            verify::check(cfg, input, &result.output)?;
        }
        let m = self.measurement(cell, input, interp_median(&secs), result.iterations);
        Ok((m, sim_stats))
    }

    /// A cell's [`Measurement`] from its (median) run time.
    fn measurement(
        &self,
        cell: &Cell,
        input: &GraphInput,
        secs: f64,
        iterations: usize,
    ) -> Measurement {
        let geps = if secs > 0.0 {
            input.num_edges() as f64 / secs / 1e9
        } else {
            f64::INFINITY
        };
        Measurement {
            cfg: self.variants[cell.variant],
            graph: self.graphs[cell.graph].label(),
            target: cell.target.label(),
            geps,
            iterations,
        }
    }
}

/// The supervision `res` asks of one cell's run, or of one execution
/// shared by several cells, and its watchdog registration. A token is armed
/// only when something could use it (a budget, or a `fault`), so the
/// strict/legacy path stays token-free.
fn supervision(
    res: &Resilience,
    watchdog: Option<&Watchdog>,
    fault: bool,
) -> (Supervision, Option<WatchGuard>) {
    let needs_token = res.cell_timeout.is_some() || res.cycle_budget.is_some() || fault;
    let token = needs_token.then(CancelToken::new);
    let guard = match (watchdog, &token, res.cell_timeout) {
        (Some(w), Some(t), Some(budget)) => Some(w.watch(budget, t.clone())),
        _ => None,
    };
    let sup = Supervision {
        cancel: token,
        sim_cycle_budget: res.cycle_budget,
        fault: None,
    };
    (sup, guard)
}

/// The record of a cell whose run unwound: a [`Cancelled`] payload (the
/// token, the cycle budget, or the watchdog) is a timeout — with a budget
/// only when the watchdog fired — and anything else a crash.
///
/// [`Cancelled`]: indigo_cancel::Cancelled
fn unwound(
    payload: &(dyn std::any::Any + Send),
    guard: Option<&WatchGuard>,
    res: &Resilience,
) -> CellOutcome {
    match indigo_cancel::as_cancelled(payload) {
        Some(c) => CellOutcome::TimedOut {
            budget_secs: guard
                .filter(|g| g.wall_fired())
                .and(res.cell_timeout)
                .map(|d| d.as_secs_f64()),
            reason: c.reason.clone(),
        },
        None => CellOutcome::Crashed {
            payload: indigo_cancel::payload_text(payload),
        },
    }
}

/// The trace clock, read only when telemetry is on.
fn obs_clock() -> u64 {
    if indigo_obs::enabled() {
        indigo_obs::now_micros()
    } else {
        0
    }
}

/// Records one cell's wall time and emits its trace span (telemetry
/// builds only).
fn emit_cell_span(
    variant: &str,
    graph: &str,
    target: &str,
    started_us: u64,
    dur_us: u64,
    outcome: &CellOutcome,
    sim_stats: Option<SimStats>,
) {
    if !indigo_obs::enabled() {
        return;
    }
    indigo_obs::Hist::CellMicros.record(dur_us);
    let mut ev = indigo_obs::TraceEvent::span(
        "cell",
        format!("{variant}|{graph}|{target}"),
        started_us,
        dur_us.max(1),
    )
    .with_arg("outcome", outcome.label());
    if let CellOutcome::Ok(m) = outcome {
        ev = ev
            .with_arg("geps", format!("{:.6}", m.geps))
            .with_arg("iterations", m.iterations.to_string());
    }
    if let Some(s) = sim_stats {
        ev = ev
            .with_arg("sim_cycles", format!("{:.0}", s.cycles))
            .with_arg("sim_launches", s.launches.to_string())
            .with_arg("sim_accesses", s.accesses.to_string());
    }
    indigo_obs::emit(&ev);
}

/// Median of an already-sorted, non-empty sample. Even-length samples
/// interpolate the two middles (matching `Summary::compute`'s `q(0.5)`);
/// taking the upper middle would report the *slower* of two repetitions
/// under the recorded `--reps 2` default, a systematic downward geps bias.
/// Note: this changes the geps bits for even-rep CPU cells, so journals
/// recorded before the fix replay with the old (biased) values — cell
/// fingerprints cover the plan, not the measured value.
pub(crate) fn interp_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Emits one trace span covering a whole scheduler phase. `started_us` is
/// captured unconditionally at phase start (one clock read per phase); the
/// event itself only exists in telemetry builds with a sink installed.
fn emit_phase_span(phase: RunPhase, started_us: u64, cells: usize) {
    if indigo_obs::enabled() {
        let dur = indigo_obs::now_micros().saturating_sub(started_us);
        indigo_obs::emit(
            &indigo_obs::TraceEvent::span("phase", phase.label(), started_us, dur.max(1))
                .with_arg("cells", cells.to_string()),
        );
    }
}

/// Rebuilds a [`CellRecord`] from a journal entry instead of executing the
/// cell. `Ok` outcomes restore the exact `f64` bits, so downstream CSVs are
/// byte-identical to an uninterrupted run.
fn replay_record(
    fp: u64,
    cfg: &StyleConfig,
    graph: &'static str,
    target: &str,
    variant: &str,
    entry: &JournalEntry,
) -> CellRecord {
    let outcome = match &entry.outcome {
        JournalOutcome::Ok {
            geps_bits,
            iterations,
        } => CellOutcome::Ok(Measurement {
            cfg: *cfg,
            graph,
            target: target.to_string(),
            geps: f64::from_bits(*geps_bits),
            iterations: *iterations,
        }),
        JournalOutcome::Crashed { payload } => CellOutcome::Crashed {
            payload: payload.clone(),
        },
        JournalOutcome::TimedOut {
            budget_secs,
            reason,
        } => CellOutcome::TimedOut {
            budget_secs: *budget_secs,
            reason: reason.clone(),
        },
        JournalOutcome::WrongAnswer { detail } => CellOutcome::WrongAnswer {
            detail: detail.clone(),
        },
    };
    CellRecord {
        fingerprint: fp,
        variant: variant.to_string(),
        graph,
        target: target.to_string(),
        outcome,
        resumed: true,
    }
}

/// Deterministically corrupts one output value — the `Corrupt` fault's
/// payload, guaranteed to trip the §4.1 verifier.
fn corrupt_output(out: &mut Output) {
    match out {
        Output::Levels(v) | Output::Distances(v) | Output::Labels(v) => {
            if let Some(x) = v.first_mut() {
                *x = x.wrapping_add(1);
            }
        }
        Output::MisSet(v) => {
            if let Some(x) = v.first_mut() {
                *x = !*x;
            }
        }
        Output::Ranks(v) => {
            if let Some(x) = v.first_mut() {
                *x += 1.0;
            }
        }
        Output::Triangles(c) => *c = c.wrapping_add(1),
    }
}

// ---- watchdog ------------------------------------------------------------

struct WatchState {
    active: AtomicBool,
    fired: AtomicBool,
}

struct Watched {
    deadline: Instant,
    budget: Duration,
    token: CancelToken,
    state: Arc<WatchState>,
}

struct WatchInner {
    stop: bool,
    cells: Vec<Watched>,
}

struct WatchShared {
    inner: Mutex<WatchInner>,
    wake: std::sync::Condvar,
}

/// The watchdog: one monitor thread per matrix run that fires the
/// [`CancelToken`] of any registered cell past its wall-clock budget. The
/// cell itself unwinds at its next cooperative checkpoint; the watchdog
/// never kills threads.
///
/// The thread sleeps until the *earliest registered deadline* (woken by a
/// condvar on registration and shutdown) rather than polling: with generous
/// budgets it wakes a handful of times per run, so supervision costs no
/// measurable CPU even on a single-core host where a polling watchdog
/// steals cycles from the cell being measured.
struct Watchdog {
    shared: Arc<WatchShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start() -> Watchdog {
        let shared = Arc::new(WatchShared {
            inner: Mutex::new(WatchInner {
                stop: false,
                cells: Vec::new(),
            }),
            wake: std::sync::Condvar::new(),
        });
        let inner = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("cell-watchdog".into())
            .spawn(move || {
                let mut guard = inner.inner.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if guard.stop {
                        return;
                    }
                    let now = Instant::now();
                    guard.cells.retain(|w| {
                        if !w.state.active.load(Ordering::Acquire) {
                            return false;
                        }
                        if now >= w.deadline {
                            w.token.fire(format!(
                                "wall-clock budget of {:.3}s exceeded",
                                w.budget.as_secs_f64()
                            ));
                            w.state.fired.store(true, Ordering::Release);
                            if indigo_obs::enabled() {
                                indigo_obs::Counter::WatchdogFired.incr();
                                indigo_obs::emit(
                                    &indigo_obs::TraceEvent::instant(
                                        "watchdog-fire",
                                        "cell budget exceeded",
                                        indigo_obs::now_micros(),
                                    )
                                    .with_arg(
                                        "budget_secs",
                                        format!("{:.3}", w.budget.as_secs_f64()),
                                    ),
                                );
                            }
                            return false;
                        }
                        true
                    });
                    // registration can only *extend* the earliest deadline
                    // (every budget starts from its own `now`), so sleeping
                    // to the current minimum never overshoots a new cell
                    let timeout = guard
                        .cells
                        .iter()
                        .map(|w| w.deadline.saturating_duration_since(now))
                        .min()
                        .unwrap_or(Duration::from_secs(3600));
                    guard = inner
                        .wake
                        .wait_timeout(guard, timeout)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            })
            .expect("spawn cell-watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Registers one cell; the returned guard deregisters on drop and
    /// remembers whether the watchdog fired.
    fn watch(&self, budget: Duration, token: CancelToken) -> WatchGuard {
        if indigo_obs::enabled() {
            indigo_obs::Counter::WatchdogArmed.incr();
        }
        let state = Arc::new(WatchState {
            active: AtomicBool::new(true),
            fired: AtomicBool::new(false),
        });
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .push(Watched {
                deadline: Instant::now() + budget,
                budget,
                token,
                state: Arc::clone(&state),
            });
        self.shared.wake.notify_one();
        WatchGuard { state }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stop = true;
        self.shared.wake.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct WatchGuard {
    state: Arc<WatchState>,
}

impl WatchGuard {
    /// Whether the watchdog's wall-clock deadline fired for this cell.
    fn wall_fired(&self) -> bool {
        self.state.fired.load(Ordering::Acquire)
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.state.active.store(false, Ordering::Release);
    }
}

// ---- indexed parallel driver ---------------------------------------------

/// Runs `work(i)` for every `i in 0..n` on up to `jobs` threads (dynamic
/// work-stealing from a shared cursor) while the calling thread reports
/// completion counts through `tick`. With `jobs == 1` everything runs
/// inline on the caller — no threads, `tick` after every item.
///
/// A panic inside `work` does **not** poison the queue: the worker records
/// the payload against its index and keeps draining, so every other index
/// still completes. The earliest-index payload is re-raised on the calling
/// thread afterwards. (The resilient cell path wraps `work` in its own
/// isolation and never panics; this matters for graph preparation and any
/// external callers.)
///
/// Returns collected results ordered by index when `work` returns a value;
/// pass a `()`-returning closure for side-effect-only stages.
fn run_indexed_parallel<T, W>(n: usize, jobs: usize, work: W, mut tick: impl FnMut(usize)) -> Vec<T>
where
    T: Send + Sync,
    W: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        return (0..n)
            .map(|i| {
                let r = work(i);
                tick(i + 1);
                r
            })
            .collect();
    }
    let out: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let caller = std::thread::current();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| work(i))) {
                    Ok(v) => {
                        let filled = out[i].set(v);
                        debug_assert!(filled.is_ok(), "index {i} computed twice");
                    }
                    Err(payload) => panics
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, payload)),
                }
                finished.fetch_add(1, Ordering::Release);
                caller.unpark();
            });
        }
        // the caller's thread narrates progress while workers drain; every
        // index finishes (success or recorded panic), so this always
        // converges to n. Each finish unparks the caller (the token makes
        // an unpark that lands before the park a no-wait), so the call
        // returns when the last item does, not at the next poll; the
        // timeout only bounds a wake-up lost to a foreign `unpark`
        let mut last = 0usize;
        while last < n {
            let done = finished.load(Ordering::Acquire);
            if done > last {
                last = done;
                tick(done);
            } else {
                std::thread::park_timeout(std::time::Duration::from_millis(25));
            }
        }
    });
    let mut panics = panics.into_inner().unwrap_or_else(|e| e.into_inner());
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        std::panic::resume_unwind(panics.remove(0).1);
    }
    out.into_iter()
        .map(|c| c.into_inner().expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FaultSpec;
    use indigo_core::run_gpu_shared;

    #[test]
    fn tiny_matrix_runs_and_verifies() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Bfs], &[Model::Cpp], Scale::Tiny, 1)
            .filter(|c| c.cpp_schedule == Some(indigo_styles::CppSchedule::Blocked))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let ms = plan.run(|_, _| {});
        // 20 blocked BFS Cpp variants × 1 graph × 2 system profiles
        assert_eq!(ms.len(), plan.variants.len() * 2);
        assert!(ms.iter().all(|m| m.geps.is_finite() && m.geps > 0.0));
    }

    #[test]
    fn gpu_cells_are_deterministic() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Warp))
            .with_graphs(vec![SuiteGraph::CoPapers]);
        let a = plan.run(|_, _| {});
        let b = plan.run(|_, _| {});
        let ga: Vec<f64> = a.iter().map(|m| m.geps).collect();
        let gb: Vec<f64> = b.iter().map(|m| m.geps).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn parallel_schedule_matches_serial_bitwise() {
        // mixed GPU + CPU slice; geps of GPU cells must be bit-identical
        // across job counts, and cell order must match the serial nesting
        let plan = RunPlan::for_algorithms(
            &[Algorithm::Tc, Algorithm::Pr],
            &[Model::Cuda],
            Scale::Tiny,
            1,
        )
        .filter(|c| c.granularity != Some(indigo_styles::Granularity::Block))
        .with_graphs(vec![SuiteGraph::Grid2d, SuiteGraph::Rmat]);
        let serial = plan.run_with(&RunOptions::default(), |_| {});
        for jobs in [2usize, 4] {
            let par = plan.run_with(
                &RunOptions::default().with_jobs(jobs).with_sim_workers(2),
                |_| {},
            );
            assert_eq!(serial.len(), par.len(), "jobs={jobs}");
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.cfg.name(), b.cfg.name(), "jobs={jobs}");
                assert_eq!(a.graph, b.graph);
                assert_eq!(a.target, b.target);
                assert_eq!(
                    a.geps.to_bits(),
                    b.geps.to_bits(),
                    "{} on {}",
                    a.cfg.name(),
                    a.graph
                );
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    #[test]
    fn progress_events_are_phase_structured() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| {
                c.granularity == Some(indigo_styles::Granularity::Thread)
                    && c.atomic == Some(indigo_styles::AtomicKind::Atomic)
            })
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let mut events = Vec::new();
        let ms = plan.run_with(&RunOptions::default().with_jobs(2), |ev| events.push(ev));
        // three phases, each bracketed by start/end
        for phase in [RunPhase::Prepare, RunPhase::GpuSim, RunPhase::CpuWall] {
            assert!(events
                .iter()
                .any(|e| matches!(e, ProgressEvent::PhaseStart { phase: p, .. } if *p == phase)));
            assert!(events
                .iter()
                .any(|e| matches!(e, ProgressEvent::PhaseEnd { phase: p, .. } if *p == phase)));
        }
        // the GPU phase accounts for every cell (all-CUDA plan)
        let gpu_total = events
            .iter()
            .find_map(|e| match e {
                ProgressEvent::PhaseStart {
                    phase: RunPhase::GpuSim,
                    total,
                } => Some(*total),
                _ => None,
            })
            .unwrap();
        assert_eq!(gpu_total, ms.len());
    }

    #[test]
    fn even_rep_median_interpolates_not_upper_middle() {
        // the recorded default is `--reps 2`: the median must be the
        // midpoint of the two repetitions, not the slower one
        let fast = 0.010;
        let slow = 0.030;
        let m = interp_median(&[fast, slow]);
        assert!((m - 0.020).abs() < 1e-15, "got {m}, want midpoint");
        assert!(m < slow, "even-rep median must not report the slower rep");
        // odd lengths keep the exact middle element
        assert_eq!(interp_median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(interp_median(&[1.0]), 1.0);
        // four reps: average of the two middles
        assert!((interp_median(&[1.0, 2.0, 4.0, 8.0]) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn target_labels_distinct() {
        let cuda = TargetSpec::defaults_for(Model::Cuda);
        let cpu = TargetSpec::defaults_for(Model::Omp);
        assert_eq!(cuda.len(), 2);
        assert_eq!(cpu.len(), 2);
        assert_ne!(cuda[0].label(), cuda[1].label());
        assert_ne!(cpu[0].label(), cpu[1].label());
    }

    #[test]
    fn run_indexed_parallel_drains_after_worker_panic() {
        // a panicking item must neither deadlock the queue nor prevent the
        // remaining indices from completing; its payload re-raises on the
        // caller afterwards
        let done = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_indexed_parallel(
                16,
                4,
                |i| {
                    if i == 3 {
                        panic!("boom at {i}");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                },
                |_| {},
            )
        }))
        .unwrap_err();
        assert_eq!(indigo_cancel::payload_text(err.as_ref()), "boom at 3");
        assert_eq!(done.load(Ordering::Relaxed), 15, "all other items ran");
    }

    #[test]
    fn run_indexed_parallel_returns_when_the_last_item_does() {
        // 8 items of ~1 ms on 2 jobs; the caller used to poll every 25 ms
        // (first check at 0, work done at ~4 ms), so it returned ~21 ms
        // after the last item finished. Each item stamps its finish and the
        // assertion is on that lateness alone: load on thread spawn or on
        // the spinning items is not what this guards
        let best = (0..5)
            .map(|_| {
                let mut ticks = Vec::new();
                let finished: Vec<OnceLock<Instant>> = (0..8).map(|_| OnceLock::new()).collect();
                let out = run_indexed_parallel(
                    8,
                    2,
                    |i| {
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_millis(1) {
                            std::hint::spin_loop();
                        }
                        finished[i].set(Instant::now()).unwrap();
                        i * i
                    },
                    |done| ticks.push(done),
                );
                let returned = Instant::now();
                assert_eq!(out, [0, 1, 4, 9, 16, 25, 36, 49]);
                assert_eq!(ticks.last(), Some(&8));
                assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{ticks:?}");
                let last = finished.iter().map(|f| *f.get().unwrap()).max().unwrap();
                returned - last
            })
            .min()
            .unwrap();
        // best of five: a loaded CI box may preempt one wake-up, not all
        assert!(best < Duration::from_millis(10), "returned {best:?} late");
    }

    fn tc_plan() -> RunPlan {
        RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Thread))
            .with_graphs(vec![SuiteGraph::Grid2d])
    }

    #[test]
    fn run_cells_on_equals_run_cells_and_refuses_foreign_inputs() {
        let plan = tc_plan();
        let opts = RunOptions::default();
        let res = Resilience::none();
        let input = |which, scale| Arc::new(Prepared::new(which, scale));
        let fresh = plan.run_cells(&opts, &res, |_| {}).unwrap();
        let grid = input(SuiteGraph::Grid2d, Scale::Tiny);
        // twice on one input: the second run verifies against memoized
        // references and must still read the same
        for _ in 0..2 {
            let on = plan
                .run_cells_on(std::slice::from_ref(&grid), &opts, &res, |_| {})
                .unwrap();
            assert_eq!(fresh.records.len(), on.records.len());
            for (a, b) in fresh.records.iter().zip(&on.records) {
                assert_eq!(a.fingerprint, b.fingerprint);
                assert_eq!(
                    (&a.variant, a.graph, &a.target),
                    (&b.variant, b.graph, &b.target)
                );
                let (ma, mb) = (
                    a.outcome.measurement().unwrap(),
                    b.outcome.measurement().unwrap(),
                );
                assert_eq!(ma.geps.to_bits(), mb.geps.to_bits(), "{}", a.variant);
                assert_eq!(ma.iterations, mb.iterations);
            }
        }

        // a wrong input under a right fingerprint would poison every cache
        // and journal downstream: refused, and no cell runs
        let foreign = [
            vec![input(SuiteGraph::Rmat, Scale::Tiny)],
            vec![input(SuiteGraph::Grid2d, Scale::Small)],
            vec![],
            vec![Arc::clone(&grid), Arc::clone(&grid)],
        ];
        for inputs in foreign {
            let mut events = 0usize;
            let err = plan
                .run_cells_on(&inputs, &opts, &res, |_| events += 1)
                .unwrap_err();
            assert!(err.contains("prepared input"), "{err}");
            assert_eq!(events, 0, "{err}: cells ran");
        }
    }

    #[test]
    fn injected_gpu_panic_isolates_a_single_cell() {
        let plan = tc_plan();
        let opts = RunOptions::default().with_jobs(2);
        let clean = plan.run_cells(&opts, &Resilience::none(), |_| {}).unwrap();
        let faulty = plan
            .run_cells(
                &opts,
                &Resilience::none().with_fault(FaultSpec::parse("panic@1").unwrap()),
                |_| {},
            )
            .unwrap();
        assert_eq!(clean.records.len(), faulty.records.len());
        for (i, (c, f)) in clean.records.iter().zip(&faulty.records).enumerate() {
            if i == 1 {
                match &f.outcome {
                    CellOutcome::Crashed { payload } => {
                        assert!(payload.contains("injected fault"), "{payload}")
                    }
                    other => panic!("expected crash, got {other:?}"),
                }
            } else {
                // every other cell is bit-identical to the fault-free run
                let (a, b) = (
                    c.outcome.measurement().unwrap(),
                    f.outcome.measurement().unwrap(),
                );
                assert_eq!(a.geps.to_bits(), b.geps.to_bits(), "cell {i}");
            }
        }
        let summary = faulty.summary();
        assert_eq!(summary.crashed, 1);
        assert_eq!(summary.exit_code(), 2);
        assert_eq!(clean.summary().exit_code(), 0);
    }

    #[test]
    fn injected_cpu_panic_is_harness_injected() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Bfs], &[Model::Cpp], Scale::Tiny, 1)
            .filter(|c| c.cpp_schedule == Some(indigo_styles::CppSchedule::Blocked))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("panic@0").unwrap()),
                |_| {},
            )
            .unwrap();
        match &run.records[0].outcome {
            CellOutcome::Crashed { payload } => {
                assert_eq!(payload, "injected fault: panic at cell 0")
            }
            other => panic!("expected crash, got {other:?}"),
        }
        assert_eq!(run.summary().ok, run.records.len() - 1);
    }

    #[test]
    fn injected_stall_is_recovered_by_the_watchdog() {
        let plan = tc_plan();
        let res = Resilience::none()
            .with_cell_timeout(Duration::from_millis(100))
            .with_fault(FaultSpec::parse("stall@0").unwrap());
        let run = plan
            .run_cells(&RunOptions::default(), &res, |_| {})
            .unwrap();
        match &run.records[0].outcome {
            CellOutcome::TimedOut {
                budget_secs,
                reason,
            } => {
                assert_eq!(*budget_secs, Some(0.1));
                assert!(reason.contains("wall-clock budget"), "{reason}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(run.summary().timed_out, 1);
        assert_eq!(run.summary().ok, run.records.len() - 1);
    }

    #[test]
    fn zero_cell_timeout_is_rejected_up_front() {
        // an already-expired watchdog would cancel every cell at its first
        // checkpoint — run_cells must refuse rather than time everything out
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_cell_timeout(Duration::ZERO),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("0s"), "{err}");
        assert!(err.contains("omit"), "{err}");
    }

    #[test]
    fn stall_fault_without_watchdog_is_rejected() {
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("stall@0").unwrap()),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("stall fault"), "{err}");
    }

    #[test]
    fn injected_corruption_is_quarantined_by_verification() {
        let plan = tc_plan();
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("corrupt@2").unwrap()),
                |_| {},
            )
            .unwrap();
        assert!(matches!(
            run.records[2].outcome,
            CellOutcome::WrongAnswer { .. }
        ));
        assert_eq!(run.summary().wrong_answer, 1);
    }

    #[test]
    fn cycle_budget_times_out_gpu_cells_without_a_watchdog() {
        // an absurdly small simulated-cycle budget cancels every GPU cell —
        // PageRank launches one kernel per iteration, so the budget check
        // (which runs at launch boundaries) actually triggers
        let plan = RunPlan::for_algorithms(&[Algorithm::Pr], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Thread))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_cycle_budget(1.0),
                |_| {},
            )
            .unwrap();
        assert_eq!(run.summary().timed_out, run.records.len());
        for r in &run.records {
            match &r.outcome {
                CellOutcome::TimedOut {
                    budget_secs,
                    reason,
                } => {
                    assert_eq!(*budget_secs, None, "no wall-clock budget was set");
                    assert!(reason.contains("simulated-cycle budget"), "{reason}");
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn journal_resume_replays_bit_identical_outcomes() {
        let dir = std::env::temp_dir().join(format!("indigo-matrix-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        std::fs::remove_file(&path).ok();

        let plan = tc_plan();
        let opts = RunOptions::default();
        let full = plan
            .run_cells(&opts, &Resilience::none().with_journal(&path), |_| {})
            .unwrap();
        assert_eq!(full.summary().resumed, 0);

        // emulate a killed run: keep only the first 2 journal lines
        let text = std::fs::read_to_string(&path).unwrap();
        let head: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n", head.join("\n"))).unwrap();

        let resumed = plan
            .run_cells(&opts, &Resilience::none().resuming(&path), |_| {})
            .unwrap();
        assert_eq!(resumed.summary().resumed, 2);
        assert_eq!(full.records.len(), resumed.records.len());
        for (a, b) in full.records.iter().zip(&resumed.records) {
            assert_eq!(a.fingerprint, b.fingerprint);
            let (ma, mb) = (
                a.outcome.measurement().unwrap(),
                b.outcome.measurement().unwrap(),
            );
            assert_eq!(ma.geps.to_bits(), mb.geps.to_bits());
            assert_eq!(ma.iterations, mb.iterations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a record says: fingerprint, outcome label, its reason/detail/
    /// payload text, and the measurement's geps bits and iterations.
    fn says(r: &CellRecord) -> (u64, &'static str, String, Option<(u64, usize)>) {
        let text = match &r.outcome {
            CellOutcome::Ok(_) => String::new(),
            CellOutcome::TimedOut { reason, .. } => reason.clone(),
            CellOutcome::WrongAnswer { detail } => detail.clone(),
            CellOutcome::Crashed { payload } => payload.clone(),
        };
        let m = r.outcome.measurement();
        let m = m.map(|m| (m.geps.to_bits(), m.iterations));
        (r.fingerprint, r.outcome.label(), text, m)
    }

    /// Every cell of an all-CUDA `plan` run alone, the way each cell ran
    /// before the two devices shared an execution.
    fn solo_records(plan: &RunPlan, res: &Resilience) -> Vec<CellRecord> {
        let (gpu, cpu, _) = plan.enumerate_cells();
        assert!(cpu.is_empty(), "an all-CUDA plan");
        let inputs: Vec<Prepared> = (plan.graphs.iter())
            .map(|&g| Prepared::new(g, plan.scale))
            .collect();
        let opts = RunOptions::default();
        (gpu.iter())
            .map(|c| plan.execute_cell(c, &inputs[c.graph], &opts, res, None, &HashMap::new()))
            .collect()
    }

    fn assert_records_match(shared: &MatrixRun, solo: &[CellRecord]) {
        assert_eq!(shared.records.len(), solo.len());
        for (a, b) in shared.records.iter().zip(solo) {
            assert_eq!(
                says(a),
                says(b),
                "{} on {} ({})",
                b.variant,
                b.graph,
                b.target
            );
        }
    }

    #[test]
    fn shared_pairs_write_the_records_of_solo_runs() {
        // edge-parallel TC at persistent block granularity on Tiny road
        // (674 edges) maps edges differently on the two grids (640 and 656
        // blocks), so those pairs fall back to a second, solo run; the
        // vertex-parallel ones share one execution
        let plan = RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| {
                c.granularity == Some(indigo_styles::Granularity::Block)
                    && c.atomic == Some(indigo_styles::AtomicKind::Atomic)
            })
            .with_graphs(vec![SuiteGraph::RoadMap]);
        let road = Prepared::new(SuiteGraph::RoadMap, Scale::Tiny);
        let fallbacks = (plan.variants.iter())
            .filter(|cfg| {
                let devices = [titan_v(), rtx3090()];
                let run = run_gpu_shared(cfg, &road.device, &devices, 1, &Supervision::none());
                run.priced[1].is_none()
            })
            .count();
        assert!(
            fallbacks > 0 && fallbacks < plan.variants.len(),
            "{fallbacks}"
        );
        let res = Resilience::none();
        let solo = solo_records(&plan, &res);
        for jobs in [1, 2] {
            let opts = RunOptions::default().with_jobs(jobs).with_sim_workers(jobs);
            assert_records_match(&plan.run_cells(&opts, &res, |_| {}).unwrap(), &solo);
        }
    }

    #[test]
    fn cycle_budget_between_the_two_devices_times_out_one_cell_of_a_pair() {
        let mut plan = RunPlan::for_algorithms(&[Algorithm::Pr], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| {
                c.granularity == Some(indigo_styles::Granularity::Thread)
                    && c.atomic == Some(indigo_styles::AtomicKind::Atomic)
                    && c.persistence == Some(indigo_styles::Persistence::NonPersistent)
            })
            .with_graphs(vec![SuiteGraph::Grid2d]);
        plan.variants.truncate(1);
        let grid = Prepared::new(SuiteGraph::Grid2d, Scale::Tiny);
        let cycles = |d| {
            let r = run_gpu_supervised(&plan.variants[0], &grid.device, d, 1, &Supervision::none());
            r.sim.unwrap().cycles
        };
        let (titan, rtx) = (cycles(titan_v()), cycles(rtx3090()));
        assert!(titan > rtx, "{titan} vs {rtx}");
        // the RTX 3090 never passes its own total at a launch boundary; the
        // TITAN V passes it before its last launch
        let res = Resilience::none().with_cycle_budget(rtx);
        let solo = solo_records(&plan, &res);
        let labels: Vec<&str> = solo.iter().map(|r| r.outcome.label()).collect();
        assert_eq!(labels, ["timed-out", "ok"]);
        let shared = plan.run_cells(&RunOptions::default(), &res, |_| {});
        assert_records_match(&shared.unwrap(), &solo);
    }

    #[test]
    fn resume_with_half_a_pair_journaled_replays_it_and_runs_the_other() {
        let dir = std::env::temp_dir().join(format!("indigo-matrix-half-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        std::fs::remove_file(&path).ok();
        let plan = tc_plan();
        let opts = RunOptions::default();
        let full = plan
            .run_cells(&opts, &Resilience::none().with_journal(&path), |_| {})
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // slot 0 is the first pair's TITAN V cell, slot 2 the second's
        for keep in [1, 3] {
            let head: Vec<&str> = text.lines().take(keep).collect();
            std::fs::write(&path, format!("{}\n", head.join("\n"))).unwrap();
            let resumed = plan
                .run_cells(&opts, &Resilience::none().resuming(&path), |_| {})
                .unwrap();
            let replayed: Vec<bool> = resumed.records.iter().map(|r| r.resumed).collect();
            assert!(replayed[..keep].iter().all(|&r| r), "keep {keep}");
            assert!(replayed[keep..].iter().all(|&r| !r), "keep {keep}");
            assert_records_match(&resumed, &full.records);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_journal_refuses_to_overwrite_an_existing_one() {
        let dir =
            std::env::temp_dir().join(format!("indigo-matrix-overwrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        std::fs::write(&path, "{}\n").unwrap();
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_journal(&path),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
