//! The metric and workload names, mirrored by `../BENCHMARK.json` (a
//! self-test keeps the two in step), and the result a run accumulates.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 5] = [
    "sweep_sim",
    "kernels_cpu",
    "serve_cold",
    "serve_hot",
    "serve_mixed",
];

/// How long a run measures unless `--seconds` says otherwise:
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

/// `(name, unit)`; printed by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)`; printed by every workload on a traced run. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("e2e.latency_samples", "count"),
    ("e2e.p99_ms", "ms"),
    ("e2e.geps_geomean", "GE/s"),
    ("graph.gen_ms", "ms"),
    ("graph.stats_us", "us"),
    ("styles.enumerate_us", "us"),
    ("styles.name_ns", "ns"),
    ("exec.omp_region_us", "us"),
    ("exec.cpp_region_us", "us"),
    ("exec.pool_lease_ns", "ns"),
    ("gpusim.host_ns_per_access", "ns"),
    ("gpusim.host_us_per_launch", "us"),
    ("gpusim.sim_cycles_total", "count"),
    ("gpusim.accesses_total", "count"),
    ("gpusim.launches_total", "count"),
    ("core.gpu_cell_ms_p50", "ms"),
    ("core.gpu_cell_ms_p99", "ms"),
    ("core.cpu_cell_ms_p50", "ms"),
    ("core.cpu_cell_ms_p99", "ms"),
    ("core.verify_share", "ratio"),
    ("core.input_prep_ms", "ms"),
    ("core.serial_geps_geomean", "GE/s"),
    ("core.speedup_vs_serial", "ratio"),
    ("baselines.bfs_geps", "GE/s"),
    ("baselines.sssp_geps", "GE/s"),
    ("baselines.cc_geps", "GE/s"),
    ("baselines.mis_geps", "GE/s"),
    ("baselines.pr_geps", "GE/s"),
    ("baselines.tc_geps", "GE/s"),
    ("baselines.bfs_ceiling_frac", "ratio"),
    ("baselines.sssp_ceiling_frac", "ratio"),
    ("baselines.cc_ceiling_frac", "ratio"),
    ("baselines.mis_ceiling_frac", "ratio"),
    ("baselines.pr_ceiling_frac", "ratio"),
    ("baselines.tc_ceiling_frac", "ratio"),
    ("machine.seq_read_gbs", "GB/s"),
    ("machine.rand_read_gbs", "GB/s"),
    ("harness.overhead_share", "ratio"),
    ("harness.eff_jobs2", "ratio"),
    ("harness.eff_jobs2_sw2", "ratio"),
    ("harness.journal_append_us", "us"),
    ("harness.fingerprint_ns", "ns"),
    ("advisor.fit_ms_512", "ms"),
    ("advisor.fit_ms_1k", "ms"),
    ("advisor.advise_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.cache_get_ns", "ns"),
    ("serve.response_bytes_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.batch_wait_us_p50", "us"),
    ("serve.batch_wait_us_p99", "us"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.waterfall_gap_pct", "%"),
    ("serve.replay_plan_us", "us"),
    ("serve.replay_kernel_us", "us"),
    ("serve.replay_verify_us", "us"),
    ("serve.replay_insert_us", "us"),
    ("serve.replay_serialize_us", "us"),
    ("serve.replay_gap_pct", "%"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cells_per_batch", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("serve.saturation_rps", "1/s"),
    ("serve.max_ok_rps", "1/s"),
    ("serve.p50_ms_1000rps", "ms"),
    ("serve.p99_ms_1000rps", "ms"),
    ("serve.p50_ms_2000rps", "ms"),
    ("serve.p99_ms_2000rps", "ms"),
    ("serve.p50_ms_4000rps", "ms"),
    ("serve.p99_ms_4000rps", "ms"),
    ("serve.p50_ms_6000rps", "ms"),
    ("serve.p99_ms_6000rps", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.auto_p50_ms", "ms"),
    ("loadgen.lateness_us_p99", "us"),
];

/// What one invocation was asked to do.
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed part runs.
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and the servers' scratch journals go.
    pub out_dir: PathBuf,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
}

/// What a run found: op counts, metric values by name, and free-form
/// lines (sample counts, probe sizes) for the human-readable output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not declared in spec.rs"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn metrics(&self, trace: bool) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        let list = if trace { PER_LAYER } else { END_TO_END };
        list.iter().map(|(n, u)| (*n, *u, self.get(n)))
    }

    /// `name value unit` lines, one metric each. An untraced run also shows
    /// the per-layer figures its workload measured anyway (the tail, the
    /// per-rate and per-class latencies); they are not in its result object.
    pub fn human(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let measured_anyway = (PER_LAYER.iter())
            .filter(|(n, _)| !trace && self.values.contains_key(n))
            .map(|(n, u)| (*n, *u, self.get(n)));
        for (name, unit, v) in self.metrics(trace).chain(measured_anyway) {
            out.push_str(&format!("{workload:<12} {name:<28} {v:>16.6} {unit}\n"));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "{workload:<12} {:<28} {share:>16.6} ratio ({} of {} ops)\n",
            "failed_share", self.failed, self.attempted
        ));
        for n in &self.notes {
            out.push_str(&format!("{workload:<12} # {n}\n"));
        }
        out
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .map(|(n, u, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    json_num(v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testjson::{parse, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn emitted_result_parses_and_names_are_well_formed() {
        for trace in [false, true] {
            let mut r = Report {
                attempted: 10,
                ..Report::default()
            };
            r.set("ops_per_s", 12.5);
            r.set("trace.overhead_pct", -0.25);
            let v = parse(&r.result_line(trace)).unwrap();
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("attempted"), Some(&Value::Num(10.0)));
            assert_eq!(v.get("failed"), Some(&Value::Num(0.0)));
            let Some(Value::Obj(metrics)) = v.get("metrics") else {
                panic!("metrics is not an object");
            };
            let want = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), want.len());
            for ((name, m), (wn, wu)) in metrics.iter().zip(want) {
                assert_eq!(name, wn);
                assert!(valid_name(name), "{name}");
                assert_eq!(m.get("unit").unwrap().str(), *wu);
                assert!(matches!(m.get("value"), Some(Value::Num(_))));
            }
        }
        let failed = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert_eq!(
            parse(&failed.result_line(false)).unwrap().get("correct"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{n}: {u}");
            assert!(seen.insert(*n), "{n} twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let pairs = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().str().to_string(),
                        m.get("unit")
                            .map(|u| u.str().to_string())
                            .unwrap_or_default(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(v.get("run_seconds"), Some(&Value::Num(RUN_SECONDS)));
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        let names: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
        for m in v.get("end_to_end").unwrap().arr() {
            let Some(Value::Num(b)) = m.get("bound") else {
                panic!("bound missing")
            };
            assert!(*b > 0.0 && *b <= 0.25);
        }
        for w in v.get("workloads").unwrap().arr() {
            let why = w.get("why").unwrap().str();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
