//! Deterministic CPU-baseline perf probe (DESIGN.md §7.7).
//!
//! Runs the six tuned CPU baselines (`indigo-baselines`) over three suite
//! graphs and reports, per (kernel, graph) workload:
//!
//! * `pushes` — sparse-frontier pushes (`frontier.pushes`),
//! * `dir_switches` — direction-optimizing BFS switches
//!   (`frontier.direction_switches`),
//! * `bucket_pushes` / `bucket_reinserts` — delta-stepping bucket traffic
//!   (`frontier.bucket_pushes` / `frontier.bucket_reinsertions`),
//! * `steady_allocs` — heap allocations in a warm kernel call (the §7.7
//!   zero-allocation discipline makes this exactly 0; counted by a local
//!   `#[global_allocator]`, de-flaked by taking the min over attempts),
//! * `host_ms` — kernel wall-clock milliseconds, min over repetitions
//!   (informational only; never compared, it is wall-clock).
//!
//! The counter fields are measured with a **1-thread** pool, where the
//! kernels are fully deterministic; `steady_allocs` and `host_ms` use 3
//! threads, the fig16 smoke configuration. The probe requires a
//! `--features telemetry` build and refuses to run without it.
//!
//! `cpu_perf` prints the JSON record to stdout. With `--check
//! <baseline.json>` it compares the deterministic fields against a
//! committed baseline: relative deviation above 10% warns, above 30% exits
//! nonzero, and any steady-state allocation where the baseline had none
//! fails — a flake-free CI perf gate (wall-clock deliberately excluded).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use indigo_bench::{field, name_of};
use indigo_core::{GraphInput, SOURCE};
use indigo_graph::gen::{suite_graph, Scale, SuiteGraph};
use indigo_obs::{counters_snapshot, Counter};

/// Counting allocator: every allocation path bumps one relaxed counter.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Threads for the steady-state (allocation + wall-clock) window — the
/// fig16 smoke configuration.
const STEADY_THREADS: usize = 3;
/// Attempts for the min-over-attempts allocation window (PR 5 de-flaking:
/// per-thread buffer watermarks grow monotonically, so the min converges).
const ALLOC_ATTEMPTS: usize = 3;
/// Repetitions for the min-of-N wall-clock field.
const TIME_REPS: usize = 5;

struct Record {
    name: String,
    pushes: u64,
    dir_switches: u64,
    bucket_pushes: u64,
    bucket_reinserts: u64,
    steady_allocs: u64,
    host_ms: f64,
}

/// Probes one kernel: `run(threads)` executes it once end to end (reusing
/// warm output buffers) and returns the kernel's own elapsed seconds.
fn probe(name: String, mut run: impl FnMut(usize) -> f64) -> Record {
    // deterministic pass: 1 thread, warm-up then one counted call
    run(1);
    let before = counters_snapshot();
    run(1);
    let delta = counters_snapshot().delta_since(&before);
    // steady pass: fig16 threads; warm-up twice (pool spawn + scratch
    // growth, then std lazy init), then min-over-attempts allocations and
    // min-of-N wall-clock
    run(STEADY_THREADS);
    run(STEADY_THREADS);
    let mut steady_allocs = u64::MAX;
    for _ in 0..ALLOC_ATTEMPTS {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        run(STEADY_THREADS);
        steady_allocs = steady_allocs.min(ALLOCS.load(Ordering::Relaxed) - a0);
    }
    let mut host_ms = f64::INFINITY;
    for _ in 0..TIME_REPS {
        host_ms = host_ms.min(run(STEADY_THREADS) * 1e3);
    }
    Record {
        name,
        pushes: delta.get(Counter::FrontierPushes),
        dir_switches: delta.get(Counter::FrontierDirectionSwitches),
        bucket_pushes: delta.get(Counter::FrontierBucketPushes),
        bucket_reinserts: delta.get(Counter::FrontierBucketReinsertions),
        steady_allocs,
        host_ms,
    }
}

fn workloads() -> Vec<Record> {
    let graphs = [
        ("social", SuiteGraph::SocialNetwork),
        ("road", SuiteGraph::RoadMap),
        ("grid", SuiteGraph::Grid2d),
    ];
    let mut out = Vec::new();
    for (tag, which) in graphs {
        let input = GraphInput::new(suite_graph(which, Scale::Small));
        // per-kernel warm output buffers, reused across every probe call so
        // the steady window sees zero output allocations
        let mut levels = Vec::new();
        out.push(probe(format!("bfs:{tag}"), |t| {
            indigo_baselines::bfs::cpu_into(&input, t, SOURCE, &mut levels)
        }));
        let mut dists = Vec::new();
        out.push(probe(format!("sssp:{tag}"), |t| {
            indigo_baselines::sssp::cpu_into(&input, t, SOURCE, &mut dists)
        }));
        let mut labels = Vec::new();
        out.push(probe(format!("cc:{tag}"), |t| {
            indigo_baselines::cc::cpu_into(&input, t, &mut labels)
        }));
        let mut members = Vec::new();
        out.push(probe(format!("mis:{tag}"), |t| {
            indigo_baselines::mis::cpu_into(&input, t, &mut members)
        }));
        let mut ranks = Vec::new();
        out.push(probe(format!("pr:{tag}"), |t| {
            indigo_baselines::pr::cpu_into(&input, t, &mut ranks)
        }));
        out.push(probe(format!("tc:{tag}"), |t| {
            indigo_baselines::tc::cpu(&input, t).1
        }));
    }
    out
}

fn emit(records: &[Record]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"pushes\": {}, \"dir_switches\": {}, \
             \"bucket_pushes\": {}, \"bucket_reinserts\": {}, \
             \"steady_allocs\": {}, \"host_ms\": {:.3}}}{}\n",
            r.name,
            r.pushes,
            r.dir_switches,
            r.bucket_pushes,
            r.bucket_reinserts,
            r.steady_allocs,
            r.host_ms,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compares deterministic fields against the baseline file. Returns the
/// number of hard failures (relative deviation > 30%, or any steady-state
/// allocation where the baseline had none).
fn check(records: &[Record], baseline_path: &str) -> usize {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpu_perf: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    for r in records {
        let Some(line) = baseline
            .lines()
            .find(|l| name_of(l) == Some(r.name.as_str()))
        else {
            eprintln!("WARN  {}: not in baseline (new workload?)", r.name);
            continue;
        };
        let mut compare = |what: &str, old: f64, new: f64| {
            if old == 0.0 {
                if new != 0.0 {
                    eprintln!("FAIL  {}: {what} was 0, now {new}", r.name);
                    failures += 1;
                }
                return;
            }
            let dev = (new - old).abs() / old;
            if dev > 0.30 {
                eprintln!(
                    "FAIL  {}: {what} deviates {:.1}% (baseline {old}, now {new})",
                    r.name,
                    dev * 100.0
                );
                failures += 1;
            } else if dev > 0.10 {
                eprintln!(
                    "WARN  {}: {what} deviates {:.1}% (baseline {old}, now {new})",
                    r.name,
                    dev * 100.0
                );
            }
        };
        if let Some(old) = field(line, "pushes") {
            compare("pushes", old, r.pushes as f64);
        }
        if let Some(old) = field(line, "dir_switches") {
            compare("dir_switches", old, r.dir_switches as f64);
        }
        if let Some(old) = field(line, "bucket_pushes") {
            compare("bucket_pushes", old, r.bucket_pushes as f64);
        }
        if let Some(old) = field(line, "bucket_reinserts") {
            compare("bucket_reinserts", old, r.bucket_reinserts as f64);
        }
        if let Some(old) = field(line, "steady_allocs") {
            // the min-over-attempts window makes 0 stable; gate any drift
            compare("steady_allocs", old, r.steady_allocs as f64);
        }
    }
    failures
}

fn main() {
    if !indigo_obs::enabled() {
        eprintln!(
            "cpu_perf: this probe reads telemetry counter deltas; \
             rebuild with `--features telemetry`"
        );
        std::process::exit(1);
    }
    let args: Vec<String> = std::env::args().collect();
    let records = workloads();
    match args.get(1).map(String::as_str) {
        None => print!("{}", emit(&records)),
        Some("--check") => {
            let Some(baseline) = args.get(2) else {
                eprintln!("usage: cpu_perf [--check baseline.json]");
                std::process::exit(1);
            };
            let failures = check(&records, baseline);
            if failures > 0 {
                eprintln!("cpu_perf: {failures} perf regression(s) past the 30% gate");
                std::process::exit(2);
            }
            eprintln!("cpu_perf: deterministic perf within gates");
        }
        Some(other) => {
            eprintln!("cpu_perf: unknown argument {other}");
            std::process::exit(1);
        }
    }
}
