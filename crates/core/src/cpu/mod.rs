//! CPU-model kernels (OpenMP-analog and C++-threads-analog).
//!
//! [`CpuExec`] packages the model-specific pieces every kernel needs: the
//! parallel-for (with the §2.11 / §2.12 schedule from the variant's
//! [`StyleConfig`]) and the update-style dispatch ([`MinOps`]) including the
//! OpenMP critical-section path for min/max (§5.3.1).

pub mod mis;
pub mod pr;
pub mod relax;
pub mod tc;

use indigo_cancel::CancelToken;
use indigo_exec::cpp::{CppSched, CppThreads};
use indigo_exec::sync::MinOps;
use indigo_exec::{shared_omp_pool, OmpPool, Schedule};
use indigo_styles::{CppSchedule, Model, OmpSchedule, StyleConfig, Update};
use std::sync::Arc;

/// A ready-to-run CPU execution context for one variant.
pub struct CpuExec {
    model: Model,
    threads: usize,
    omp: Option<Arc<OmpPool>>,
    omp_sched: Schedule,
    cpp_sched: CppSched,
    cancel: Option<CancelToken>,
}

impl CpuExec {
    /// Builds the context for `cfg` with `threads` workers. Panics if `cfg`
    /// is a GPU variant.
    ///
    /// Omp-model contexts borrow a process-wide cached pool
    /// ([`shared_omp_pool`]) instead of spawning a team per variant: the
    /// harness runs hundreds of thousands of measurement cells and thread
    /// spawn-up is overhead, not kernel time.
    pub fn new(cfg: &StyleConfig, threads: usize) -> Self {
        assert!(cfg.model.is_cpu(), "CpuExec needs a CPU-model variant");
        let omp_sched = match cfg.omp_schedule {
            Some(OmpSchedule::Dynamic) => Schedule::dynamic(),
            _ => Schedule::Default,
        };
        let cpp_sched = match cfg.cpp_schedule {
            Some(CppSchedule::Cyclic) => CppSched::Cyclic,
            _ => CppSched::Blocked,
        };
        CpuExec {
            model: cfg.model,
            threads,
            omp: (cfg.model == Model::Omp).then(|| shared_omp_pool(threads)),
            omp_sched,
            cpp_sched,
            cancel: None,
        }
    }

    /// Attaches a cooperative [`CancelToken`]: every [`CpuExec::pfor`]
    /// polls it at scheduling boundaries (workers drain, the calling thread
    /// raises `Cancelled` after the barrier). Since the algorithm drivers
    /// issue one `pfor` per convergence iteration, this makes even a
    /// non-terminating kernel cancellable at iteration granularity.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The programming model this context realizes.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Model- and schedule-appropriate parallel for over `0..n`;
    /// `body(i, tid)`.
    pub fn pfor<F>(&self, n: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        match self.model {
            Model::Omp => self
                .omp
                .as_ref()
                .expect("omp pool present for Omp model")
                .parallel_for_with(n, self.omp_sched, self.cancel.as_ref(), body),
            Model::Cpp => CppThreads::new(self.threads).parallel_for_with(
                n,
                self.cpp_sched,
                self.cancel.as_ref(),
                body,
            ),
            Model::Cuda => unreachable!("CpuExec is never built for GPU variants"),
        }
    }

    /// The §2.5 update dispatch for this model: the OpenMP model's RMW
    /// min/max must use the critical section (§5.3.1), the C++ model gets
    /// CAS-loop atomics, and read-write is plain loads/stores everywhere.
    pub fn min_ops(&self, update: Update) -> MinOps {
        match (update, self.model) {
            (Update::ReadWrite, _) => MinOps::ReadWrite,
            (Update::ReadModifyWrite, Model::Omp) => MinOps::RmwCritical,
            (Update::ReadModifyWrite, _) => MinOps::RmwAtomic,
        }
    }

    /// Whether worklist-stamp maxes must take the critical path (Omp model).
    pub fn critical_stamps(&self) -> bool {
        self.model == Model::Omp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indigo_styles::Algorithm;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn omp_exec_runs_bodies() {
        let cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Omp);
        let exec = CpuExec::new(&cfg, 2);
        let count = AtomicUsize::new(0);
        exec.pfor(100, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn cpp_exec_runs_bodies() {
        let mut cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Cpp);
        cfg.cpp_schedule = Some(CppSchedule::Cyclic);
        let exec = CpuExec::new(&cfg, 3);
        let count = AtomicUsize::new(0);
        exec.pfor(37, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn min_ops_dispatch_matches_models() {
        let omp = CpuExec::new(&StyleConfig::baseline(Algorithm::Sssp, Model::Omp), 1);
        let cpp = CpuExec::new(&StyleConfig::baseline(Algorithm::Sssp, Model::Cpp), 1);
        assert_eq!(omp.min_ops(Update::ReadModifyWrite), MinOps::RmwCritical);
        assert_eq!(cpp.min_ops(Update::ReadModifyWrite), MinOps::RmwAtomic);
        assert_eq!(omp.min_ops(Update::ReadWrite), MinOps::ReadWrite);
        assert!(omp.critical_stamps());
        assert!(!cpp.critical_stamps());
    }

    #[test]
    #[should_panic(expected = "CPU-model")]
    fn rejects_gpu_variant() {
        CpuExec::new(&StyleConfig::baseline(Algorithm::Bfs, Model::Cuda), 1);
    }
}
