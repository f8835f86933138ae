//! # indigo-bench
//!
//! Criterion benchmarks, one target per table/figure of the paper (see
//! DESIGN.md §5 for the full index). Two measurement styles:
//!
//! * CPU-model benches measure wall-clock directly;
//! * GPU-model benches feed the simulator's *simulated* kernel time into
//!   Criterion through `iter_custom`, so `cargo bench` reports the same
//!   quantity the paper's GPU figures plot (throughput shape, not host
//!   overhead of running the simulation).
//!
//! Benchmarks run at `Scale::Tiny` by default so `cargo bench` terminates
//! quickly; set `INDIGO_BENCH_SCALE=small|default` for larger instances.

use criterion::Criterion;
use indigo_core::{run_gpu, run_variant, GraphInput, Target};
use indigo_gpusim::Device;
use indigo_graph::gen::{suite_graph, Scale, SuiteGraph};
use indigo_styles::StyleConfig;
use std::time::Duration;

/// Benchmark instance scale (`INDIGO_BENCH_SCALE` env override).
pub fn bench_scale() -> Scale {
    match std::env::var("INDIGO_BENCH_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        Ok("default") => Scale::Default,
        Ok("large") => Scale::Large,
        _ => Scale::Tiny,
    }
}

/// Criterion tuned for suite-scale runs: small sample count, short warmup.
pub fn criterion() -> Criterion {
    Criterion::default()
        .without_plots() // simulated durations are exact; plot ranges collapse
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// Prepares one suite input (cached per call site by the caller).
pub fn input(which: SuiteGraph) -> GraphInput {
    GraphInput::new(suite_graph(which, bench_scale()))
}

/// Registers a CPU-model variant as a wall-clock benchmark.
pub fn bench_cpu_variant(
    c: &mut Criterion,
    group: &str,
    name: &str,
    cfg: &StyleConfig,
    input: &GraphInput,
    threads: usize,
) {
    let mut g = c.benchmark_group(group);
    g.bench_function(name, |b| {
        b.iter(|| run_variant(cfg, input, &Target::cpu(threads)).secs)
    });
    g.finish();
}

/// Registers a GPU-model variant: Criterion records the *simulated* kernel
/// duration per iteration via `iter_custom`.
pub fn bench_gpu_variant(
    c: &mut Criterion,
    group: &str,
    name: &str,
    cfg: &StyleConfig,
    input: &GraphInput,
    device: Device,
) {
    let dg = indigo_core::gpu::DeviceGraph::upload(input);
    let mut g = c.benchmark_group(group);
    g.bench_function(name, |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let r = run_gpu(cfg, &dg, device);
                total += Duration::from_secs_f64(r.secs.max(1e-12));
            }
            total
        })
    });
    g.finish();
}

/// Pulls `"field": <number>` off a JSON line. Good enough for the
/// line-per-workload records the `*_perf` probes write and compare against
/// their committed baselines (the workspace is dependency-free, so no
/// serde).
pub fn field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"name": "<workload>"` of a probe record line.
pub fn name_of(line: &str) -> Option<&str> {
    let at = line.find("\"name\": \"")? + 9;
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_record_lines_scrape_by_name_and_field() {
        let line =
            r#"    {"name": "bfs:social", "pushes": 136, "steady_allocs": 0, "host_ms": 0.048},"#;
        assert_eq!(name_of(line), Some("bfs:social"));
        assert_eq!(field(line, "pushes"), Some(136.0));
        assert_eq!(field(line, "steady_allocs"), Some(0.0));
        assert_eq!(field(line, "host_ms"), Some(0.048));
        assert_eq!(field(line, "missing"), None);
        assert_eq!(name_of("  ],"), None);
    }

    #[test]
    fn scale_default_is_tiny() {
        // (environment-dependent overrides are tested manually)
        if std::env::var("INDIGO_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), Scale::Tiny);
        }
    }

    #[test]
    fn input_prepares_weighted_graphs() {
        let i = input(SuiteGraph::RoadMap);
        assert!(i.csr.is_weighted());
    }
}
