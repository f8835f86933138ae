//! Per-layer probes: timed calls straight into each crate's public
//! functions, the machine ceilings, and the trace file. Run only on a
//! traced run, after the timed phases.

use crate::sample::{run_target, Cell, Population};
use crate::spec::{Report, RunCfg};
use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::util::{nproc, percentile, sorted, Rng};
use indigo_advisor::{Advisor, TrainingCell};
use indigo_core::gpu::DeviceGraph;
use indigo_core::{run_gpu_with, verify, GraphInput};
use indigo_exec::cpp::CppSched;
use indigo_exec::{CppThreads, OmpPool, PoolRegistry, Schedule};
use indigo_gpusim::{rtx3090, titan_v};
use indigo_graph::gen::{suite_graph, Scale, SUITE_GRAPHS};
use indigo_graph::stats::{GraphStats, StatsScratch};
use indigo_graph::Csr;
use indigo_harness::advise::parse_variant_name;
use indigo_harness::journal::{self, fingerprint, Journal, JournalOutcome};
use indigo_harness::{CellOutcome, CellRecord, Measurement};
use indigo_serve::cache::ResultCache;
use indigo_serve::engine::parse_query;
use indigo_serve::http::{Request, Response};
use indigo_serve::ServerConfig;
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times `iters` calls of `f` under one span; returns seconds per call.
fn per_call(tr: &mut Tracer, name: &'static str, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let span = tr.begin(name, NO_PARENT, 0);
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(span);
    secs / iters.max(1) as f64
}

/// The bare loop: each `(style, graph)` on both devices through
/// `core::run_gpu_with` + `verify::check`, no harness. Sets the `gpusim.*`
/// and `core.gpu_*` metrics and returns each op's `(run, verify)` seconds,
/// both devices summed.
pub fn gpu_replay(
    cells: &[(StyleConfig, usize)],
    inputs: &[GraphInput],
    tr: &mut Tracer,
    report: &mut Report,
) -> Vec<(f64, f64)> {
    let uploaded: Vec<DeviceGraph> = inputs.iter().map(DeviceGraph::upload).collect();
    let (mut run_s, mut verify_s) = (0.0f64, 0.0f64);
    let (mut cycles, mut accesses, mut launches) = (0.0f64, 0u64, 0u64);
    let mut cell_ms = Vec::new();
    let mut per_op = Vec::with_capacity(cells.len());
    for (op, (cfg, gi)) in cells.iter().enumerate() {
        per_op.push((0.0, 0.0));
        for device in [titan_v(), rtx3090()] {
            let cell = tr.begin("replay.cell", NO_PARENT, op as u64);
            let span = tr.begin("core.run_gpu_with", cell, op as u64);
            let t = Instant::now();
            let r = run_gpu_with(cfg, &uploaded[*gi], device, 1);
            let ran = t.elapsed().as_secs_f64();
            tr.end(span);
            let span = tr.begin("core.verify.check", cell, op as u64);
            let t = Instant::now();
            let ok = verify::check(cfg, &inputs[*gi], &r.output).is_ok();
            let verified = t.elapsed().as_secs_f64();
            tr.end(span);
            tr.end(cell);
            report.attempted += 1;
            report.failed += u64::from(!ok);
            let sim = r.sim.expect("GPU runs carry simulator statistics");
            cycles += sim.cycles;
            accesses += sim.accesses;
            launches += sim.launches as u64;
            run_s += ran;
            verify_s += verified;
            per_op[op].0 += ran;
            per_op[op].1 += verified;
            cell_ms.push((ran + verified) * 1e3);
        }
    }
    let cell_ms = sorted(cell_ms);
    report.set(
        "gpusim.host_ns_per_access",
        run_s * 1e9 / accesses.max(1) as f64,
    );
    report.set(
        "gpusim.host_us_per_launch",
        run_s * 1e6 / launches.max(1) as f64,
    );
    report.set("gpusim.sim_cycles_total", cycles);
    report.set("gpusim.accesses_total", accesses as f64);
    report.set("gpusim.launches_total", launches as f64);
    report.set(
        "core.gpu_cell_ms_p50",
        percentile(&cell_ms, 50.0).unwrap_or(0.0),
    );
    report.set(
        "core.gpu_cell_ms_p99",
        percentile(&cell_ms, 99.0).unwrap_or(0.0),
    );
    report.set(
        "core.verify_share",
        verify_s / (run_s + verify_s).max(1e-12),
    );
    per_op
}

fn synthetic_record(pop: &Population, i: usize) -> CellRecord {
    let code = i % pop.codes.len();
    let cfg = match pop.codes[code] {
        crate::sample::Code::Style(c) => c,
        crate::sample::Code::Baseline(_) => unreachable!("CUDA population"),
    };
    let graph = SUITE_GRAPHS[(i / pop.codes.len()) % 5].label();
    let target = if i.is_multiple_of(2) {
        "TitanV-sim"
    } else {
        "RTX3090-sim"
    };
    CellRecord {
        // distinct per record, so every insert is a fresh key
        fingerprint: fingerprint(
            Scale::Tiny,
            1 + i / (pop.codes.len() * 5),
            true,
            &pop.names[code],
            graph,
            target,
        ),
        variant: pop.names[code].clone(),
        graph,
        target: target.to_string(),
        outcome: CellOutcome::Ok(Measurement {
            cfg,
            graph,
            target: target.to_string(),
            geps: 0.25 + i as f64 * 1e-4,
            iterations: 7,
        }),
        resumed: false,
    }
}

/// A reply body of the shape `/run` gives for one CUDA variant (2 cells).
pub const TWO_CELL_BODY: &str = "{\"status\":\"ok\",\"cached\":true,\"degraded\":false,\"attempts\":0,\"algo\":\"bfs\",\"model\":\"cuda\",\"graph\":\"rmat\",\"scale\":\"tiny\",\"cells\":[{\"fp\":\"0123456789abcdef\",\"variant\":\"cuda-bfs-vertex-topo-push-rmw-nondet-nonpersist-thread-atomic\",\"target\":\"TitanV-sim\",\"geps\":0.4375,\"geps_bits\":\"3fdc000000000000\",\"iterations\":9},{\"fp\":\"fedcba9876543210\",\"variant\":\"cuda-bfs-vertex-topo-push-rmw-nondet-nonpersist-thread-atomic\",\"target\":\"RTX3090-sim\",\"geps\":0.5625,\"geps_bits\":\"3fe2000000000000\",\"iterations\":9}],\"rid\":\"0000000000000042\",\"served_by\":null,\"timing\":{\"queue_us\":12,\"batch_wait_us\":0,\"execute_us\":88,\"total_us\":100}}";

/// The workload-independent probes, one per crate.
pub fn common(scale: Scale, cfg: &RunCfg, tr: &mut Tracer, report: &mut Report) {
    let threads = nproc();

    // graph
    let mut graphs: Vec<Csr> = Vec::new();
    let gen = per_call(tr, "graph.gen::suite_graph", 1, |_| {
        graphs = SUITE_GRAPHS
            .iter()
            .map(|&g| suite_graph(g, scale))
            .collect();
    });
    report.set("graph.gen_ms", gen * 1e3);
    let mut scratch = StatsScratch::new();
    for g in &graphs {
        black_box(GraphStats::compute_with(g, &mut scratch)); // warm the scratch
    }
    let stats = per_call(tr, "graph.GraphStats::compute_with", 5 * 8, |i| {
        black_box(GraphStats::compute_with(&graphs[i % 5], &mut scratch));
    });
    report.set("graph.stats_us", stats * 1e6);

    // core: input preparation (weights + COO) for the five graphs
    let prep = per_call(tr, "core.GraphInput::new", 1, |_| {
        for g in graphs.drain(..) {
            black_box(GraphInput::new(g));
        }
    });
    report.set("core.input_prep_ms", prep * 1e3);

    // styles: what `engine::parse_query` pays on every request, hits too
    let groups: Vec<(Algorithm, Model)> = (Model::ALL.into_iter())
        .flat_map(|m| Algorithm::ALL.into_iter().map(move |a| (a, m)))
        .collect();
    let en = per_call(tr, "styles.enumerate::variants", groups.len() * 20, |i| {
        let (a, m) = groups[i % groups.len()];
        black_box(enumerate::variants(a, m));
    });
    report.set("styles.enumerate_us", en * 1e6);
    let suite = enumerate::full_suite();
    let name = per_call(tr, "styles.StyleConfig::name", suite.len() * 10, |i| {
        black_box(suite[i % suite.len()].name());
    });
    report.set("styles.name_ns", name * 1e9);

    // exec: an empty region on warm pools, and a pool lease
    let pool = OmpPool::new(threads);
    for _ in 0..200 {
        pool.parallel_for(threads, Schedule::Default, |_, _| {});
    }
    let omp = per_call(tr, "exec.OmpPool::parallel_for", 5000, |_| {
        pool.parallel_for(threads, Schedule::Default, |_, _| {});
    });
    report.set("exec.omp_region_us", omp * 1e6);
    let team = CppThreads::new(threads);
    let cpp = per_call(tr, "exec.CppThreads::parallel_for", 500, |_| {
        team.parallel_for(threads, CppSched::Blocked, |_, _| {});
    });
    report.set("exec.cpp_region_us", cpp * 1e6);
    static LEASES: PoolRegistry<OmpPool> = PoolRegistry::new();
    drop(LEASES.lease_guard(threads, || OmpPool::new(threads)));
    let lease = per_call(tr, "exec.PoolRegistry::lease_guard", 100_000, |_| {
        black_box(&*LEASES.lease_guard(threads, || OmpPool::new(threads)));
    });
    report.set("exec.pool_lease_ns", lease * 1e9);

    // harness: fingerprint and journal append
    let pop = Population::cuda();
    let fp = per_call(tr, "harness.journal::fingerprint", 50_000, |i| {
        black_box(fingerprint(
            Scale::Tiny,
            1,
            true,
            &pop.names[i % pop.names.len()],
            "rmat",
            "TitanV-sim",
        ));
    });
    report.set("harness.fingerprint_ns", fp * 1e9);
    let dir = cfg
        .out_dir
        .join(format!("tmp/probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir under the output dir");
    let records: Vec<CellRecord> = (0..8192).map(|i| synthetic_record(&pop, i)).collect();
    {
        let journal = Journal::append_to(&dir.join("append.jsonl")).expect("probe journal");
        let append = per_call(tr, "harness.Journal::record_all", 1024, |i| {
            journal
                .record_all(&[&records[2 * i], &records[2 * i + 1]])
                .expect("journal append");
        });
        report.set("harness.journal_append_us", append * 1e6 / 2.0);
    }

    // serve, direct calls: parse, cache insert/get on an 8k-cell cache, bytes
    let server_cfg = ServerConfig::default();
    let mut rng = Rng::new(cfg.seed);
    let heads: Vec<String> = (0..512)
        .map(|_| {
            let cell = Cell {
                code: rng.below(pop.codes.len()) as u32,
                graph: rng.below(5) as u8,
            };
            format!(
                "GET {} HTTP/1.1\r\nHost: indigo\r\n\r\n",
                run_target(&pop, cell, 1)
            )
        })
        .collect();
    let parse = per_call(
        tr,
        "serve.Request::parse+parse_query",
        heads.len() * 4,
        |i| {
            let req = Request::parse(&heads[i % heads.len()]).expect("well-formed head");
            black_box(parse_query(&req, &server_cfg, false).expect("valid query"));
        },
    );
    report.set("serve.parse_us", parse * 1e6);
    {
        let cache = ResultCache::open(Some(&dir.join("cache.jsonl"))).expect("probe cache");
        let insert = per_call(
            tr,
            "serve.ResultCache::insert_batch",
            records.len() / 2,
            |i| {
                assert_eq!(
                    cache.insert_batch(&[&records[2 * i], &records[2 * i + 1]]),
                    0
                );
            },
        );
        report.set("serve.cache_insert_us", insert * 1e6 / 2.0);
        assert_eq!(cache.len(), records.len());
        let get = per_call(tr, "serve.ResultCache::get", records.len() * 8, |i| {
            black_box(
                cache
                    .get(records[(i * 7919) % records.len()].fingerprint)
                    .expect("cached"),
            );
        });
        report.set("serve.cache_get_ns", get * 1e9);
    }
    let bytes = per_call(tr, "serve.Response::to_bytes", 50_000, |_| {
        black_box(
            Response::json(200, TWO_CELL_BODY)
                .with_request_id("0000000000000042")
                .to_bytes(),
        );
    });
    report.set("serve.response_bytes_us", bytes * 1e6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `advisor.*` from the cells a server journaled during the run.
pub fn advisor(journal_path: &Path, tr: &mut Tracer, report: &mut Report) {
    let Ok((entries, _)) = journal::load(journal_path) else {
        return;
    };
    let mut scratch = StatsScratch::new();
    let features: Vec<_> = (SUITE_GRAPHS.iter())
        .map(|&g| {
            (
                g.label(),
                GraphStats::compute_with(&suite_graph(g, Scale::Tiny), &mut scratch).features(),
            )
        })
        .collect();
    let mut ok: Vec<_> = entries.into_values().collect();
    ok.sort_by_key(|e| e.fp); // fingerprint order: a seed-independent shuffle
    let cells: Vec<TrainingCell> = ok
        .iter()
        .filter_map(|e| {
            let JournalOutcome::Ok { geps_bits, .. } = e.outcome else {
                return None;
            };
            let (algo, model) = parse_variant_name(&e.variant)?;
            let (_, fv) = features.iter().find(|(l, _)| *l == e.graph)?;
            Some(TrainingCell {
                algo,
                model,
                graph: e.graph.clone(),
                variant: e.variant.clone(),
                features: *fv,
                geps: f64::from_bits(geps_bits),
            })
        })
        .collect();
    report.note(format!("advisor probe: {} journaled cells", cells.len()));
    let mut fitted = None;
    for (n, name) in [(512, "advisor.fit_ms_512"), (1000, "advisor.fit_ms_1k")] {
        if cells.len() >= n {
            let secs = per_call(tr, "advisor.Advisor::fit", 3, |_| {
                fitted = Some(Advisor::fit(black_box(&cells[..n])));
            });
            report.set(name, secs * 1e3);
        }
    }
    if let Some(advisor) = fitted {
        let secs = per_call(tr, "advisor.Advisor::advise", 30 * 20, |i| {
            let a = Algorithm::ALL[i % 6];
            black_box(advisor.advise(a, Model::Cuda, &features[(i / 6) % 5].1));
        });
        report.set("advisor.advise_us", secs * 1e6);
    }
}

/// STREAM-style ceilings, measured in this run on arrays at least four
/// times the last-level cache. Returns the sequential-read GB/s.
pub fn machine(report: &mut Report) -> f64 {
    let llc = (2..=4)
        .rev()
        .find_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            s.trim()
                .strip_suffix('K')?
                .parse::<usize>()
                .ok()
                .map(|k| k * 1024)
        })
        .unwrap_or(32 << 20);
    let bytes = (4 * llc).clamp(64 << 20, 2 << 30);
    let words = bytes / 8;
    let data: Vec<u64> = (0..words as u64).collect();
    let threads = nproc();
    let best = |f: &(dyn Fn() -> f64 + Sync)| (0..3).map(|_| f()).fold(0.0f64, f64::max);
    let seq = best(&|| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for part in data.chunks(words.div_ceil(threads)) {
                s.spawn(move || black_box(part.iter().fold(0u64, |a, x| a.wrapping_add(*x))));
            }
        });
        bytes as f64 / t.elapsed().as_secs_f64() / 1e9
    });
    const GATHERS: usize = 1 << 23;
    let rand = best(&|| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..threads {
                let data = &data;
                s.spawn(move || {
                    let mut rng = Rng::new(tid as u64);
                    let mut sum = 0u64;
                    for _ in 0..GATHERS / threads {
                        sum = sum.wrapping_add(data[rng.below(words)]);
                    }
                    black_box(sum)
                });
            }
        });
        // each independent 8-byte load pulls one 64-byte line
        (GATHERS * 64) as f64 / t.elapsed().as_secs_f64() / 1e9
    });
    report.set("machine.seq_read_gbs", seq);
    report.set("machine.rand_read_gbs", rand);
    report.note(format!(
        "machine probe: {threads} threads, array {} MiB, last-level cache {} MiB; rand counts 64 B per 8 B load",
        bytes >> 20,
        llc >> 20
    ));
    seq
}

/// Bytes of one pass over the arrays a code must at least read and write:
/// CSR offsets and neighbours (weights for SSSP) plus one 4-byte value per
/// vertex. *Computed from array sizes*; cache misses and repeated
/// iterations are not in it.
pub fn csr_pass_bytes(g: &Csr, algo: Algorithm) -> usize {
    let weights = if algo == Algorithm::Sssp {
        std::mem::size_of_val(g.weights())
    } else {
        0
    };
    std::mem::size_of_val(g.row_start())
        + std::mem::size_of_val(g.nbr_list())
        + weights
        + 4 * g.num_nodes()
}

pub fn baseline_metric_names(a: Algorithm) -> (&'static str, &'static str) {
    match a {
        Algorithm::Bfs => ("baselines.bfs_geps", "baselines.bfs_ceiling_frac"),
        Algorithm::Sssp => ("baselines.sssp_geps", "baselines.sssp_ceiling_frac"),
        Algorithm::Cc => ("baselines.cc_geps", "baselines.cc_ceiling_frac"),
        Algorithm::Mis => ("baselines.mis_geps", "baselines.mis_ceiling_frac"),
        Algorithm::Pr => ("baselines.pr_geps", "baselines.pr_ceiling_frac"),
        Algorithm::Tc => ("baselines.tc_geps", "baselines.tc_ceiling_frac"),
    }
}

/// Writes `trace_<workload>.json` under the output directory.
pub fn write_trace(cfg: &RunCfg, workload: &str, spans: &[Span], report: &mut Report) {
    let path = cfg.out_dir.join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(&cfg.out_dir).expect("output dir");
    std::fs::write(&path, trace::to_json(workload, cfg.seed, spans)).expect("trace file");
    report.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
}
