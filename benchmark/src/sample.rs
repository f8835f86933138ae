//! The seeded op lists.
//!
//! A cell's cost varies a hundredfold with its style and graph, so which
//! cells a run happens to draw moves its throughput far more than any code
//! change would: a plain random 1/16 sample of the CUDA matrix moves
//! cells/s by a third from seed to seed. The lists here are therefore
//! *systematic* samples. Codes are grouped by (algorithm, model) in
//! enumeration order, which keeps neighbouring styles together; each
//! (group, graph) stratum gets a seeded rotation; round `j` of `step`
//! rounds takes every `step`-th code of each stratum at offset
//! `bitrev(j) + rotation`. Bit-reversed offsets make every power-of-two
//! prefix of rounds itself an evenly spaced sample, so a time-boxed run
//! sees a representative slice wherever it stops, and every algorithm is
//! kept in proportion.

use crate::util::Rng;
use indigo_graph::gen::{SuiteGraph, SUITE_GRAPHS};
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};
use std::ops::Range;

/// Something the benchmark can run on a graph.
#[derive(Clone, Copy, Debug)]
pub enum Code {
    /// One of the 1098 generated style variants.
    Style(StyleConfig),
    /// The hand-tuned `baselines::<algo>` CPU code.
    Baseline(Algorithm),
}

impl Code {
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Code::Style(c) => c.algorithm,
            Code::Baseline(a) => *a,
        }
    }
}

/// The codes a workload samples from, grouped for stratification.
pub struct Population {
    pub codes: Vec<Code>,
    /// `StyleConfig::name` (or `baseline-<algo>`) per code.
    pub names: Vec<String>,
    /// One contiguous range of `codes` per (algorithm, model) group.
    pub groups: Vec<Range<usize>>,
}

impl Population {
    fn from_groups(groups: Vec<Vec<Code>>) -> Population {
        let mut pop = Population {
            codes: Vec::new(),
            names: Vec::new(),
            groups: Vec::new(),
        };
        for g in groups {
            let start = pop.codes.len();
            for c in g {
                pop.names.push(match &c {
                    Code::Style(cfg) => cfg.name(),
                    Code::Baseline(a) => format!("baseline-{}", a.label()),
                });
                pop.codes.push(c);
            }
            pop.groups.push(start..pop.codes.len());
        }
        pop
    }

    fn styles(models: &[Model]) -> Vec<Vec<Code>> {
        let mut groups = Vec::new();
        for &m in models {
            for a in Algorithm::ALL {
                groups.push(
                    enumerate::variants(a, m)
                        .into_iter()
                        .map(Code::Style)
                        .collect(),
                );
            }
        }
        groups
    }

    /// The 734 CUDA variants.
    pub fn cuda() -> Population {
        Population::from_groups(Population::styles(&[Model::Cuda]))
    }

    /// The 364 OpenMP/C++ variants plus the six tuned baselines.
    pub fn cpu() -> Population {
        let mut groups = Population::styles(&[Model::Omp, Model::Cpp]);
        groups.push(Algorithm::ALL.into_iter().map(Code::Baseline).collect());
        Population::from_groups(groups)
    }
}

/// One op of a batch workload, and the key of one serving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Index into [`Population::codes`].
    pub code: u32,
    /// Index into [`SUITE_GRAPHS`].
    pub graph: u8,
}

impl Cell {
    pub fn suite_graph(&self) -> SuiteGraph {
        SUITE_GRAPHS[self.graph as usize]
    }
}

fn bitrev(j: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        j.reverse_bits() >> (usize::BITS - bits)
    }
}

/// `step` rounds (a power of two) that together hold every (code, graph)
/// pair exactly once; each round is shuffled.
pub fn rounds(pop: &Population, step: usize, rng: &mut Rng) -> Vec<Vec<Cell>> {
    assert!(step.is_power_of_two());
    let bits = step.trailing_zeros();
    let mut out: Vec<Vec<Cell>> = vec![Vec::new(); step];
    for group in &pop.groups {
        for graph in 0..SUITE_GRAPHS.len() {
            let rotation = rng.below(step);
            for (j, round) in out.iter_mut().enumerate() {
                let offset = (bitrev(j, bits) + rotation) % step;
                for code in (group.start + offset..group.end).step_by(step) {
                    round.push(Cell {
                        code: code as u32,
                        graph: graph as u8,
                    });
                }
            }
        }
    }
    for round in &mut out {
        rng.shuffle(round);
    }
    out
}

/// Every `step`-th code of each group, on every graph: the same cells for
/// every seed. Set-up warms the process with these, so `setup_s` measures
/// the same work from run to run.
pub fn fixed_slice(pop: &Population, step: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for group in &pop.groups {
        for code in group.clone().step_by(step) {
            out.extend((0..SUITE_GRAPHS.len()).map(|graph| Cell {
                code: code as u32,
                graph: graph as u8,
            }));
        }
    }
    out
}

/// The `/run` target for one cell. `reps` widens the key space: the cache
/// key is the cell fingerprint, which covers it.
pub fn run_target(pop: &Population, cell: Cell, reps: usize) -> String {
    format!(
        "/run?algo={}&graph={}&scale=tiny&variant={}&reps={reps}&deadline_ms=10000",
        pop.codes[cell.code as usize].algorithm().label(),
        cell.suite_graph().label(),
        pop.names[cell.code as usize]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn targets(seed: u64) -> Vec<String> {
        let pop = Population::cuda();
        rounds(&pop, 32, &mut Rng::new(seed))
            .into_iter()
            .flatten()
            .map(|c| run_target(&pop, c, 1))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_op_lists() {
        assert_eq!(targets(5).join("\n"), targets(5).join("\n"));
        assert_ne!(targets(5), targets(6));
        let cpu = Population::cpu();
        let a = rounds(&cpu, 16, &mut Rng::new(9));
        assert_eq!(a, rounds(&cpu, 16, &mut Rng::new(9)));
        assert_ne!(a, rounds(&cpu, 16, &mut Rng::new(10)));
    }

    #[test]
    fn populations_have_the_suite_sizes() {
        assert_eq!(Population::cuda().codes.len(), 734);
        assert_eq!(Population::cpu().codes.len(), 364 + 6);
        assert_eq!(Population::cpu().groups.len(), 13);
    }

    #[test]
    fn rounds_partition_the_matrix() {
        let pop = Population::cuda();
        let all: Vec<Cell> = rounds(&pop, 32, &mut Rng::new(1))
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(all.len(), 734 * 5);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    }

    #[test]
    fn every_prefix_keeps_every_algorithm_in_proportion() {
        for (pop, step) in [(Population::cuda(), 32), (Population::cpu(), 16)] {
            let rs = rounds(&pop, step, &mut Rng::new(3));
            // first half of the rounds = every second code of every stratum
            for keep in [step / 2, step / 4] {
                let stride = step / keep;
                let prefix: Vec<Cell> = rs[..keep].iter().flatten().copied().collect();
                for group in &pop.groups {
                    for graph in 0..5u8 {
                        let mut picked: Vec<usize> = prefix
                            .iter()
                            .filter(|c| c.graph == graph && group.contains(&(c.code as usize)))
                            .map(|c| c.code as usize - group.start)
                            .collect();
                        picked.sort_unstable();
                        let n = group.len();
                        assert!(
                            picked.len() >= n / stride && picked.len() <= n.div_ceil(stride),
                            "group of {n}: {} picked at stride {stride}",
                            picked.len()
                        );
                        assert!(!picked.is_empty(), "an algorithm was dropped");
                        assert!(picked.windows(2).all(|w| w[1] - w[0] == stride));
                    }
                }
            }
        }
    }
}
