//! The two batch workloads: `sweep_sim` (the researcher regenerating the
//! GPU figures through `RunPlan::run_cells`) and `kernels_cpu` (wall-clock
//! CPU kernels through `core::run_variant` and `baselines::*`).

use crate::layers;
use crate::sample::{fixed_slice, rounds, Cell, Code, Population};
use crate::spec::{Report, RunCfg};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{geomean, median, nproc, peak_rss_mib, percentile, sorted, tail_percentile, Rng};
use indigo_core::{run_variant, serial, verify, GraphInput, Output, Target, SOURCE};
use indigo_graph::gen::{suite_graph, Scale, SUITE_GRAPHS};
use indigo_harness::{CellOutcome, ProgressEvent, Resilience, RunOptions, RunPhase, RunPlan};
use indigo_styles::{Algorithm, Model, StyleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One finished op: how long it took and how many input edges it covered.
#[derive(Clone, Copy)]
pub struct Sample {
    pub secs: f64,
    /// Seconds the GE/s figure divides by: the kernel's own clock where the
    /// program reports one, otherwise `secs`.
    pub kernel_secs: f64,
    pub edges: u64,
}

/// What one timed phase produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub wall: f64,
    pub ok: Vec<Sample>,
}

impl Measured {
    pub fn ops_per_s(&self) -> f64 {
        self.ok.len() as f64 / self.wall.max(1e-9)
    }
}

/// What a user of the workload sees in one timed phase: ops per second and
/// the median op (end to end), the tail and the paper's GE/s beside them
/// (reported, not gated: see the README). `p50_ms` overrides the plain
/// median over `m.ok` where a workload defines it otherwise.
pub fn summarize(report: &mut Report, m: &Measured, p50_ms: Option<f64>) {
    report.attempted += m.attempted;
    report.failed += m.failed;
    let lat_ms = sorted(m.ok.iter().map(|s| s.secs * 1e3).collect());
    let geps: Vec<f64> = (m.ok.iter())
        .map(|s| s.edges as f64 / s.kernel_secs.max(1e-12) / 1e9)
        .collect();
    report.set("ops_per_s", m.ops_per_s());
    report.set(
        "p50_ms",
        p50_ms.or(percentile(&lat_ms, 50.0)).unwrap_or(0.0),
    );
    report.set("e2e.p99_ms", percentile(&lat_ms, 99.0).unwrap_or(0.0));
    report.set("e2e.geps_geomean", geomean(&geps));
    report.set("e2e.latency_samples", lat_ms.len() as f64);
    let tail = tail_percentile(lat_ms.len())
        .map_or("none (under 100 samples)".to_string(), |p| format!("p{p}"));
    report.note(format!(
        "{} latency samples; highest percentile with 10 samples beyond it: {tail}; p99 {:.3} ms; {:.6} GE/s geomean",
        lat_ms.len(),
        report.get("e2e.p99_ms"),
        report.get("e2e.geps_geomean")
    ));
}

/// The untraced run's result: [`summarize`] plus memory and set-up time.
/// Memory is read first, after one set-up and one timed phase, which is
/// what a user's process holds; only then does `setup_again` run, so that
/// `setup_s` is the median of `cfg.setup_reps` set-ups without their
/// leftovers counting as memory.
pub fn end_to_end<S>(
    report: &mut Report,
    cfg: &RunCfg,
    first_setup_s: f64,
    m: &Measured,
    p50_ms: Option<f64>,
    mut setup_again: impl FnMut() -> S,
) {
    summarize(report, m, p50_ms);
    report.set("peak_rss_mb", peak_rss_mib());
    let mut setups = vec![first_setup_s];
    for _ in 1..cfg.setup_reps {
        let (state, secs) = timed(&mut setup_again);
        setups.push(secs);
        drop(state); // tearing down is not set-up
    }
    report.set("setup_s", median(&setups));
}

/// The traced run's first two phases: the same ops traced, then untraced.
pub fn traced_pair(report: &mut Report, traced: &Measured, plain: &Measured, p50_ms: Option<f64>) {
    summarize(report, traced, p50_ms);
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    let overhead = if plain.ops_per_s() > 0.0 {
        (plain.ops_per_s() - traced.ops_per_s()) / plain.ops_per_s() * 100.0
    } else {
        0.0
    };
    report.set("trace.overhead_pct", overhead);
}

/// Runs `f` once; returns its result and how many seconds it took.
pub fn timed<S>(f: impl FnOnce() -> S) -> (S, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---- sweep_sim -------------------------------------------------------------

const SWEEP_STEP: usize = 32;
const SWEEP_SCALE: Scale = Scale::Tiny;

struct Sweep {
    pop: Population,
    rounds: Vec<Vec<Cell>>,
    edges: [u64; 5],
}

impl Sweep {
    fn setup(seed: u64) -> Sweep {
        let pop = Population::cuda();
        let rounds = rounds(&pop, SWEEP_STEP, &mut Rng::new(seed));
        let mut edges = [0u64; 5];
        for (e, g) in edges.iter_mut().zip(SUITE_GRAPHS) {
            *e = suite_graph(g, SWEEP_SCALE).num_edges() as u64;
        }
        let sweep = Sweep { pop, rounds, edges };
        // warm the simulator's buffer pools and the allocator
        let warm = fixed_slice(&sweep.pop, SWEEP_STEP);
        let mut sink = Measured::default();
        sweep.run_cells(
            &warm,
            &RunOptions::default(),
            &mut Tracer::new(false, Instant::now()),
            NO_PARENT,
            &mut sink,
        );
        assert_eq!(sink.failed, 0, "warm-up cells failed");
        sweep
    }

    fn style(&self, cell: &Cell) -> StyleConfig {
        match self.pop.codes[cell.code as usize] {
            Code::Style(cfg) => cfg,
            Code::Baseline(_) => unreachable!("the CUDA population holds styles only"),
        }
    }

    /// Runs `cells` as one `run_cells` call per graph, verify on. Per-cell
    /// times are the intervals between the progress callbacks, which at
    /// `jobs 1` fire inline after each cell.
    fn run_cells(
        &self,
        cells: &[Cell],
        opts: &RunOptions,
        tr: &mut Tracer,
        parent: u32,
        out: &mut Measured,
    ) {
        for (gi, &graph) in SUITE_GRAPHS.iter().enumerate() {
            let variants: Vec<StyleConfig> = cells
                .iter()
                .filter(|c| c.graph as usize == gi)
                .map(|c| self.style(c))
                .collect();
            if variants.is_empty() {
                continue;
            }
            let plan = RunPlan {
                variants,
                graphs: vec![graph],
                scale: SWEEP_SCALE,
                reps: 1,
                verify: true,
            };
            let call = tr.begin("harness.run_cells", parent, gi as u64);
            let mut times: Vec<f64> = Vec::new();
            let mut last = Instant::now();
            let mut phase_start_ns = 0;
            let run = plan.run_cells(opts, &Resilience::none(), |ev| match ev {
                ProgressEvent::PhaseStart { .. } => {
                    last = Instant::now();
                    phase_start_ns = tr.now_ns();
                }
                ProgressEvent::Cell {
                    phase: RunPhase::GpuSim,
                    ..
                } => {
                    let now = Instant::now();
                    times.push((now - last).as_secs_f64());
                    last = now;
                    let end = tr.now_ns();
                    tr.add(
                        "harness.cell",
                        end - (times[times.len() - 1] * 1e9) as u64,
                        end,
                        call,
                        gi as u64,
                    );
                }
                ProgressEvent::PhaseEnd {
                    phase: RunPhase::Prepare,
                    ..
                } => {
                    tr.add(
                        "harness.prepare",
                        phase_start_ns,
                        tr.now_ns(),
                        call,
                        gi as u64,
                    );
                }
                _ => {}
            });
            tr.end(call);
            let planned = plan.variants.len() * 2;
            out.attempted += planned as u64;
            match run {
                Ok(run) if run.records.len() == planned => {
                    // at jobs > 1 the callbacks coalesce: spread the wall evenly
                    let even = times.iter().sum::<f64>() / planned as f64;
                    for (i, r) in run.records.iter().enumerate() {
                        if matches!(r.outcome, CellOutcome::Ok(_)) {
                            let secs = if times.len() == planned {
                                times[i]
                            } else {
                                even
                            };
                            out.ok.push(Sample {
                                secs,
                                kernel_secs: secs,
                                edges: self.edges[gi],
                            });
                        } else {
                            out.failed += 1;
                        }
                    }
                }
                _ => out.failed += planned as u64,
            }
        }
    }

    /// Whole rounds from `first` on, until `until` says stop; returns the
    /// number of rounds run.
    fn run_rounds(
        &self,
        first: usize,
        opts: &RunOptions,
        tr: &mut Tracer,
        mut until: impl FnMut(usize, f64) -> bool,
    ) -> (Measured, usize) {
        let mut m = Measured::default();
        let t0 = Instant::now();
        let mut done = 0;
        while !until(done, t0.elapsed().as_secs_f64()) {
            let j = (first + done) % SWEEP_STEP;
            let round = tr.begin("sweep.round", NO_PARENT, j as u64);
            self.run_cells(&self.rounds[j], opts, tr, round, &mut m);
            tr.end(round);
            done += 1;
        }
        m.wall = t0.elapsed().as_secs_f64();
        (m, done)
    }
}

pub fn sweep_sim(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let (sweep, setup_s) = timed(|| Sweep::setup(cfg.seed));
    let serial = RunOptions::default();
    let epoch = Instant::now();
    if !cfg.trace {
        let mut tr = Tracer::new(false, epoch);
        let (m, n) = sweep.run_rounds(0, &serial, &mut tr, |_, t| t >= cfg.seconds);
        end_to_end(&mut report, cfg, setup_s, &m, None, || {
            Sweep::setup(cfg.seed)
        });
        report.note(format!("{n} rounds of {SWEEP_STEP} (each a 1/{SWEEP_STEP} systematic slice of 734 variants x 5 graphs x 2 devices, scale tiny)"));
        return report;
    }

    // traced half, then the same rounds again untraced
    let mut tr = Tracer::new(true, epoch);
    let (traced, n) = sweep.run_rounds(0, &serial, &mut tr, |_, t| t >= cfg.seconds / 2.0);
    let (plain, _) = sweep.run_rounds(0, &serial, &mut Tracer::new(false, epoch), |done, _| {
        done >= n
    });
    traced_pair(&mut report, &traced, &plain, None);

    // layer replay: round 0's cells straight against core + gpusim
    let inputs: Vec<GraphInput> = (SUITE_GRAPHS.iter())
        .map(|&g| GraphInput::new(suite_graph(g, SWEEP_SCALE)))
        .collect();
    let mut round0: Vec<_> = sweep.rounds[0]
        .iter()
        .map(|c| (sweep.style(c), c.graph as usize))
        .collect();
    round0.sort_by_key(|(_, graph)| *graph); // graph by graph, as run_cells goes
    let bare: f64 = (layers::gpu_replay(&round0, &inputs, &mut tr, &mut report).iter())
        .map(|(run, verify)| run + verify)
        .sum();
    // the same round through the harness: what run_cells adds on top
    let (through, _) = sweep.run_rounds(0, &serial, &mut Tracer::new(false, epoch), |done, _| {
        done >= 1
    });
    report.set(
        "harness.overhead_share",
        1.0 - bare / through.wall.max(1e-9),
    );
    // the scheduler's scaling point (ROADMAP item 1a), on rounds 0 and 1
    let rate = |opts: RunOptions| {
        let (m, _) = sweep.run_rounds(0, &opts, &mut Tracer::new(false, epoch), |done, _| {
            done >= 2
        });
        report_failures(&m);
        m.ops_per_s()
    };
    let r1 = rate(serial);
    report.set("harness.eff_jobs2", rate(serial.with_jobs(2)) / (2.0 * r1));
    report.set(
        "harness.eff_jobs2_sw2",
        rate(serial.with_jobs(2).with_sim_workers(2)) / (2.0 * r1),
    );
    report.note(format!(
        "{} load threads; jobs-2 efficiency is against {} cores",
        1,
        nproc()
    ));

    layers::common(SWEEP_SCALE, cfg, &mut tr, &mut report);
    layers::write_trace(cfg, "sweep_sim", &tr.spans, &mut report);
    report
}

fn report_failures(m: &Measured) {
    assert_eq!(
        m.failed, 0,
        "{} of {} replayed cells failed",
        m.failed, m.attempted
    );
}

// ---- kernels_cpu -----------------------------------------------------------

const CPU_STEP: usize = 16;
/// `Scale::Default` is what the issue asked for, but there one CC cell on
/// the grid takes up to 14 s and the matrix 5 min; a 10 s window would be
/// a handful of cells. At `Small` the window holds about half the matrix.
const CPU_SCALE: Scale = Scale::Small;

struct Kernels {
    pop: Population,
    ops: Vec<Cell>,
    inputs: Vec<GraphInput>,
    threads: usize,
    u32s: Vec<u32>,
    bools: Vec<bool>,
    f32s: Vec<f32>,
}

impl Kernels {
    fn setup(seed: u64) -> Kernels {
        let pop = Population::cpu();
        let ops = rounds(&pop, CPU_STEP, &mut Rng::new(seed)).concat();
        let inputs = (SUITE_GRAPHS.iter())
            .map(|&g| GraphInput::new(suite_graph(g, CPU_SCALE)))
            .collect();
        let mut k = Kernels {
            pop,
            ops,
            inputs,
            threads: nproc(),
            u32s: Vec::new(),
            bools: Vec::new(),
            f32s: Vec::new(),
        };
        // spawns the worker pools and memoizes the serial references
        // `verify::check` compares against
        for cell in fixed_slice(&k.pop, 2 * CPU_STEP) {
            let code = k.pop.codes[cell.code as usize];
            assert!(
                k.run(code, cell.graph as usize).is_some(),
                "warm-up {code:?} failed"
            );
        }
        k
    }

    /// Runs one code on one graph and verifies it; `None` on a wrong
    /// answer or a panic, otherwise the kernel's own seconds.
    fn run(&mut self, code: Code, graph: usize) -> Option<f64> {
        let threads = self.threads;
        let input = &self.inputs[graph];
        let (u32s, bools, f32s) = (&mut self.u32s, &mut self.bools, &mut self.f32s);
        catch_unwind(AssertUnwindSafe(|| match code {
            Code::Style(cfg) => {
                let r = run_variant(&cfg, input, &Target::cpu(threads));
                verify::check(&cfg, input, &r.output).ok().map(|()| r.secs)
            }
            Code::Baseline(a) => {
                use indigo_baselines as b;
                let (secs, out) = match a {
                    Algorithm::Bfs => {
                        let s = b::bfs::cpu_into(input, threads, SOURCE, u32s);
                        (s, Output::Levels(std::mem::take(u32s)))
                    }
                    Algorithm::Sssp => {
                        let s = b::sssp::cpu_into(input, threads, SOURCE, u32s);
                        (s, Output::Distances(std::mem::take(u32s)))
                    }
                    Algorithm::Cc => {
                        let s = b::cc::cpu_into(input, threads, u32s);
                        (s, Output::Labels(std::mem::take(u32s)))
                    }
                    Algorithm::Mis => {
                        let s = b::mis::cpu_into(input, threads, bools);
                        (s, Output::MisSet(std::mem::take(bools)))
                    }
                    Algorithm::Pr => {
                        let s = b::pr::cpu_into(input, threads, f32s);
                        (s, Output::Ranks(std::mem::take(f32s)))
                    }
                    Algorithm::Tc => {
                        let (count, s) = b::tc::cpu(input, threads);
                        (s, Output::Triangles(count))
                    }
                };
                let ok = verify::check(&StyleConfig::baseline(a, Model::Omp), input, &out).is_ok();
                match out {
                    // hand the warm buffers back
                    Output::Levels(v) | Output::Distances(v) | Output::Labels(v) => *u32s = v,
                    Output::MisSet(v) => *bools = v,
                    Output::Ranks(v) => *f32s = v,
                    Output::Triangles(_) => {}
                }
                ok.then_some(secs)
            }
        }))
        .ok()
        .flatten()
    }

    /// Ops from the list in order until `until(done, elapsed)`.
    fn run_ops(&mut self, tr: &mut Tracer, mut until: impl FnMut(usize, f64) -> bool) -> Measured {
        let mut m = Measured::default();
        let t0 = Instant::now();
        let mut done = 0;
        while !until(done, t0.elapsed().as_secs_f64()) {
            let cell = self.ops[done % self.ops.len()];
            let code = self.pop.codes[cell.code as usize];
            let span = tr.begin(
                match code {
                    Code::Style(_) => "core.run_variant+verify",
                    Code::Baseline(_) => "baselines.cpu+verify",
                },
                NO_PARENT,
                done as u64,
            );
            let start_ns = tr.now_ns();
            let t = Instant::now();
            let kernel = self.run(code, cell.graph as usize);
            let secs = t.elapsed().as_secs_f64();
            tr.end(span);
            m.attempted += 1;
            match kernel {
                Some(kernel_secs) => {
                    // the kernel's own clock; the rest of the op is set-up,
                    // allocation and verify
                    tr.add(
                        "core.kernel",
                        start_ns,
                        start_ns + (kernel_secs * 1e9) as u64,
                        span,
                        done as u64,
                    );
                    m.ok.push(Sample {
                        secs,
                        kernel_secs,
                        edges: self.inputs[cell.graph as usize].num_edges() as u64,
                    })
                }
                None => m.failed += 1,
            }
            done += 1;
        }
        m.wall = t0.elapsed().as_secs_f64();
        m
    }
}

pub fn kernels_cpu(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let (mut k, setup_s) = timed(|| Kernels::setup(cfg.seed));
    let epoch = Instant::now();
    if !cfg.trace {
        let m = k.run_ops(&mut Tracer::new(false, epoch), |_, t| t >= cfg.seconds);
        end_to_end(&mut report, cfg, setup_s, &m, None, || {
            Kernels::setup(cfg.seed)
        });
        report.note(format!(
            "{} threads, scale small; ops in rounds of 1/{CPU_STEP} systematic slices of 364 variants + 6 baselines x 5 graphs",
            k.threads
        ));
        return report;
    }

    let mut tr = Tracer::new(true, epoch);
    let traced = k.run_ops(&mut tr, |_, t| t >= cfg.seconds / 2.0);
    let n = traced.attempted as usize;
    let plain = k.run_ops(&mut Tracer::new(false, epoch), |done, _| done >= n);
    traced_pair(&mut report, &traced, &plain, None);
    let lat_ms = sorted(traced.ok.iter().map(|s| s.secs * 1e3).collect());
    report.set(
        "core.cpu_cell_ms_p50",
        percentile(&lat_ms, 50.0).unwrap_or(0.0),
    );
    report.set(
        "core.cpu_cell_ms_p99",
        percentile(&lat_ms, 99.0).unwrap_or(0.0),
    );

    // the plain single-threaded run of the same problems
    let mut serial_geps = [[0.0f64; 5]; 6];
    for (ai, a) in Algorithm::ALL.into_iter().enumerate() {
        for (gi, input) in k.inputs.iter().enumerate() {
            let g = &input.csr;
            let span = tr.begin("core.serial", NO_PARENT, (ai * 5 + gi) as u64);
            let t = Instant::now();
            match a {
                Algorithm::Bfs => drop(std::hint::black_box(serial::bfs(g, SOURCE))),
                Algorithm::Sssp => drop(std::hint::black_box(serial::sssp(g, SOURCE))),
                Algorithm::Cc => drop(std::hint::black_box(serial::cc(g))),
                Algorithm::Mis => drop(std::hint::black_box(serial::mis(g, indigo_core::MIS_SEED))),
                Algorithm::Pr => drop(std::hint::black_box(serial::pagerank(
                    g,
                    indigo_core::PR_DAMPING,
                    indigo_core::PR_EPSILON,
                    indigo_core::PR_MAX_ITERS,
                ))),
                Algorithm::Tc => drop(std::hint::black_box(serial::triangles(g))),
            }
            serial_geps[ai][gi] = g.num_edges() as f64 / t.elapsed().as_secs_f64().max(1e-12) / 1e9;
            tr.end(span);
        }
    }
    report.set("core.serial_geps_geomean", geomean(&serial_geps.concat()));
    // paired: each sampled cell against the serial run of its own problem
    let speedups: Vec<f64> = (0..n)
        .zip(&traced.ok)
        .map(|(i, s)| {
            let cell = k.ops[i % k.ops.len()];
            let ai = Algorithm::ALL
                .iter()
                .position(|a| *a == k.pop.codes[cell.code as usize].algorithm())
                .expect("algorithm is one of ALL");
            s.edges as f64 / s.kernel_secs.max(1e-12) / 1e9 / serial_geps[ai][cell.graph as usize]
        })
        .collect();
    report.set("core.speedup_vs_serial", geomean(&speedups));

    // the tuned baselines, warm, against the machine's measured ceilings
    let seq_read_gbs = layers::machine(&mut report);
    for a in Algorithm::ALL {
        let mut geps = Vec::new();
        let mut frac = Vec::new();
        for gi in 0..5 {
            let secs = median(
                &(0..3)
                    .map(|_| k.run(Code::Baseline(a), gi).unwrap_or(f64::INFINITY))
                    .collect::<Vec<_>>(),
            );
            let g = &k.inputs[gi].csr;
            geps.push(g.num_edges() as f64 / secs / 1e9);
            frac.push(layers::csr_pass_bytes(g, a) as f64 / secs / 1e9 / seq_read_gbs);
        }
        let (g_name, f_name) = layers::baseline_metric_names(a);
        report.set(g_name, geomean(&geps));
        report.set(f_name, geomean(&frac));
    }

    layers::common(CPU_SCALE, cfg, &mut tr, &mut report);
    layers::write_trace(cfg, "kernels_cpu", &tr.spans, &mut report);
    report
}
