//! `indigo-benchmark`: one command that makes its inputs from a seed,
//! drives the workspace through public functions and loopback HTTP, checks
//! every output, and prints every metric by name with its unit.
//!
//! ```text
//! indigo-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--traced] [--quick]
//! ```
//!
//! With `--workload` the last stdout line is the contract's result object;
//! without it all five workloads run, a process each, and the last line is
//! a ledger row.

mod batch;
mod layers;
mod sample;
mod serve;
mod spec;
mod trace;
mod util;

use spec::{Report, RunCfg, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;

fn usage(problem: &str) -> ! {
    eprintln!("indigo-benchmark: {problem}");
    eprintln!(
        "usage: indigo-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--quick]",
        WORKLOADS.join("|")
    );
    std::process::exit(1);
}

fn run(workload: &str, cfg: &RunCfg) -> Report {
    match workload {
        "sweep_sim" => batch::sweep_sim(cfg),
        "kernels_cpu" => batch::kernels_cpu(cfg),
        "serve_cold" => serve::serve_cold(cfg),
        "serve_hot" => serve::serve_hot(cfg),
        "serve_mixed" => serve::serve_mixed(cfg),
        other => usage(&format!("unknown workload `{other}`")),
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        setup_reps: 3,
    };
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")),
            "--seed" => {
                cfg.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed is not a number"))
            }
            "--seconds" => {
                cfg.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds is not a number"));
                if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
                    usage("--seconds must be in (0, 60]");
                }
            }
            "--trace" => {
                cfg.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--traced" => cfg.trace = true,
            "--quick" => quick = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if quick {
        // a tenth of the work, one set-up: for CI, not for comparing commits
        cfg.seconds /= 10.0;
        cfg.setup_reps = 1;
    }

    let Some(name) = workload else {
        all_workloads(&cfg);
    };
    let report = run(&name, &cfg);
    print!("{}", report.human(&name, cfg.trace));
    println!("{}", report.result_line(cfg.trace));
    let _ = std::fs::remove_dir(cfg.out_dir.join("tmp"));
    if report.failed > 0 || report.attempted == 0 {
        eprintln!(
            "indigo-benchmark: {} of {} ops failed their correctness check",
            report.failed, report.attempted
        );
        std::process::exit(2);
    }
}

/// No `--workload`: each of the five in a process of its own (this program
/// again, same arguments), so that `peak_rss_mb` is each workload's and not
/// the sum so far; the last line is a ledger row of the five result objects.
fn all_workloads(cfg: &RunCfg) -> ! {
    let exe = std::env::current_exe().expect("the path of this program");
    let mut rows = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", name])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("starting a workload's process");
        let text = String::from_utf8_lossy(&out.stdout);
        let (human, result) = text.trim_end().rsplit_once('\n').unwrap_or(("", ""));
        println!("{human}");
        rows.push(format!("{}:{result}", util::json_str(name)));
        ok &= out.status.success() && result.starts_with('{');
    }
    println!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"workloads\":{{{}}}}}",
        cfg.seed,
        util::json_num(cfg.seconds),
        cfg.trace,
        util::nproc(),
        rows.join(",")
    );
    std::process::exit(if ok { 0 } else { 2 });
}
