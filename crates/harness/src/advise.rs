//! Journal → advisor glue and held-out validation (DESIGN.md §7.11).
//!
//! The advisor (`crates/advisor`) is fitted from measured sweep cells; this
//! module produces those cells from a checkpoint journal, evaluates the fit
//! against ground-truth sweeps on held-out *generated* graphs the training
//! never saw, and reports top-1/top-3 regret to `BENCH_advisor.json`.
//!
//! The journal does not record the scale or repetition count it was measured
//! at — but every line carries a fingerprint that hashes both, so we recover
//! them by re-fingerprinting each entry against the finite candidate space
//! and requiring a unanimous match (a self-validating load: a corrupted or
//! mixed-scale journal is rejected rather than silently mis-fitted).
//!
//! Ground truth is restricted to the CUDA model: the GPU simulator's cycle
//! counts are deterministic, so the reported regret is reproducible
//! bit-for-bit on any machine — a CI-gateable number, unlike wall-clock CPU
//! sweeps.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;

use crate::journal::{self, fingerprint, JournalOutcome};
use indigo_advisor::{Advisor, Method, TrainingCell};
use indigo_core::gpu::DeviceGraph;
use indigo_core::input::GraphInput;
use indigo_core::runner::run_gpu;
use indigo_gpusim::titan_v;
use indigo_graph::gen::{self, suite_graph, Scale, SUITE_GRAPHS};
use indigo_graph::stats::{GraphStats, StatsScratch};
use indigo_graph::Csr;
use indigo_obs::json_str;
use indigo_styles::{enumerate, Algorithm, Model};

/// A journal distilled into advisor training cells.
pub struct TrainingSet {
    pub cells: Vec<TrainingCell>,
    /// Scale recovered from the fingerprints.
    pub scale: Scale,
    /// Repetition count recovered from the fingerprints.
    pub reps: usize,
    /// Completed (`Ok`) journal entries.
    pub total_ok: usize,
    /// `Ok` entries skipped because their graph or variant is unknown.
    pub skipped: usize,
}

const SCALES: [Scale; 4] = [Scale::Tiny, Scale::Small, Scale::Default, Scale::Large];
const MAX_REPS: usize = 16;

/// Splits a [`indigo_styles::StyleConfig::name`] back into its model and
/// algorithm (the first two `-`-separated tokens, e.g. `cuda-sssp-…`).
pub fn parse_variant_name(name: &str) -> Option<(Algorithm, Model)> {
    let mut it = name.splitn(3, '-');
    let model = it.next()?;
    let algo = it.next()?;
    let model = Model::ALL.into_iter().find(|m| m.label() == model)?;
    let algo = Algorithm::ALL.into_iter().find(|a| a.label() == algo)?;
    Some((algo, model))
}

/// Loads a journal and converts its completed cells into training data.
///
/// Fails if the journal is empty of `Ok` cells or if its fingerprints do not
/// unanimously agree on one `(scale, reps)` pair.
pub fn training_from_journal(path: &Path) -> io::Result<TrainingSet> {
    let (entries, _skipped_lines) = journal::load(path)?;
    let mut ok: Vec<_> = entries
        .values()
        .filter(|e| matches!(e.outcome, JournalOutcome::Ok { .. }))
        .collect();
    // HashMap order is nondeterministic; the fit is order-insensitive but
    // keep the set sorted so diagnostics and tests are stable.
    ok.sort_by_key(|e| e.fp);
    if ok.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal contains no completed cells to fit from",
        ));
    }

    // Recover (scale, reps, verify) from the fingerprints: every entry must
    // match under the same candidate triple.
    let detected = SCALES
        .into_iter()
        .flat_map(|s| (1..=MAX_REPS).map(move |r| (s, r)))
        .flat_map(|(s, r)| [(s, r, true), (s, r, false)])
        .find(|&(s, r, v)| {
            ok.iter()
                .all(|e| fingerprint(s, r, v, &e.variant, &e.graph, &e.target) == e.fp)
        });
    let Some((scale, reps, _verify)) = detected else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal fingerprints do not match any known (scale, reps); \
             mixed-scale or incompatible journal",
        ));
    };

    // Feature vectors per suite graph, computed once at the detected scale.
    let mut scratch = StatsScratch::new();
    let mut features = HashMap::new();
    let mut cells = Vec::new();
    let mut skipped = 0usize;
    for e in &ok {
        let JournalOutcome::Ok { geps_bits, .. } = e.outcome else {
            unreachable!("filtered to Ok above");
        };
        let Some((algo, model)) = parse_variant_name(&e.variant) else {
            skipped += 1;
            continue;
        };
        let Some(which) = SUITE_GRAPHS.iter().find(|g| g.label() == e.graph) else {
            skipped += 1;
            continue;
        };
        let fv = *features.entry(e.graph.clone()).or_insert_with(|| {
            GraphStats::compute_with(&suite_graph(*which, scale), &mut scratch).features()
        });
        cells.push(TrainingCell {
            algo,
            model,
            graph: e.graph.clone(),
            variant: e.variant.clone(),
            features: fv,
            geps: f64::from_bits(geps_bits),
        });
    }

    Ok(TrainingSet {
        total_ok: ok.len(),
        skipped,
        cells,
        scale,
        reps,
    })
}

/// The held-out validation inputs: one instance per suite family plus a
/// uniform-random graph no training family covers, generated with off-suite
/// seeds and shapes so none of them equals a training graph. Sizes track the
/// training `scale` — the advisor matches graphs by *shape* (degree
/// distribution, diameter), and validation should test that transfer within
/// the regime the model was fitted in, not extrapolation across 3 orders of
/// magnitude of size. Deterministic by construction.
pub fn held_out_graphs(scale: Scale) -> Vec<(&'static str, Csr)> {
    const HELD_SEED: u64 = 0xAD115E; // "advise" — distinct from SUITE_SEED
                                     // (grid w×h, gnp n, rmat scale, soc n, road w×h) near — never equal to —
                                     // the suite sizes at `scale`.
    let (grid, gnp_n, rmat_sc, soc_n, road) = match scale {
        Scale::Tiny => ((20, 13), 300, 8, 300, (24, 14)),
        Scale::Small => ((70, 58), 5_000, 11, 3_500, (90, 54)),
        Scale::Default => ((240, 208), 40_000, 15, 33_000, (300, 176)),
        Scale::Large => ((750, 698), 500_000, 18, 220_000, (760, 420)),
    };
    vec![
        ("held-grid", gen::grid2d(grid.0, grid.1)),
        ("held-gnp", gen::gnp(gnp_n, 12.0 / gnp_n as f64, HELD_SEED)),
        ("held-rmat", gen::rmat(rmat_sc, 10, HELD_SEED)),
        (
            "held-soc",
            gen::preferential_attachment(soc_n, 7, HELD_SEED),
        ),
        ("held-road", gen::road(road.0, road.1, HELD_SEED)),
    ]
}

/// One (held-out graph, algorithm) validation case.
pub struct HeldOutCase {
    pub graph: &'static str,
    pub algo: Algorithm,
    pub model: Model,
    pub method: Method,
    /// Nearest training graph and normalized distance, if any.
    pub neighbor: Option<(String, f64)>,
    pub predicted: String,
    pub predicted_geps: f64,
    pub best: String,
    pub best_geps: f64,
    /// `1 − geps(predicted) / geps(best)` over the ground-truth sweep.
    pub regret_top1: f64,
    /// Same, for the best of the advisor's top-3.
    pub regret_top3: f64,
    /// Ground-truth sweep size (training-covered variants only).
    pub candidates: usize,
}

/// The full validation result, serialized to `results/BENCH_advisor.json`.
pub struct AdvisorBench {
    pub scale: Scale,
    pub reps: usize,
    pub training_cells: usize,
    pub training_graphs: usize,
    pub groups: usize,
    pub cases: Vec<HeldOutCase>,
    pub mean_regret_top1: f64,
    pub max_regret_top1: f64,
    pub mean_regret_top3: f64,
    pub max_regret_top3: f64,
}

/// Validates `advisor` against deterministic ground-truth sweeps on the
/// held-out graphs at the training `scale`, for every fitted CUDA group.
///
/// The candidate set per group is the *training-covered* variants: regret
/// measures how well the advisor orders the styles it has data for, not
/// whether the training sweep itself was exhaustive.
pub fn evaluate(advisor: &Advisor, scale: Scale) -> AdvisorBench {
    let groups: Vec<(Algorithm, Model)> = advisor
        .fitted_groups()
        .into_iter()
        .filter(|&(_, m)| m == Model::Cuda)
        .collect();

    let mut cases = Vec::new();
    for (name, g) in held_out_graphs(scale) {
        let stats = GraphStats::compute(&g);
        let features = stats.features();
        let num_edges = g.num_edges();
        let input = GraphInput::new(g);
        let dg = DeviceGraph::upload(&input);
        for &(algo, model) in &groups {
            let by_name: HashMap<String, _> = enumerate::variants(algo, model)
                .into_iter()
                .map(|c| (c.name(), c))
                .collect();
            let covered: Vec<&String> = advisor
                .candidates(algo, model)
                .unwrap_or(&[])
                .iter()
                .filter(|v| by_name.contains_key(*v))
                .collect();
            if covered.is_empty() {
                continue;
            }
            // Deterministic ground truth: simulated cycles on one device.
            let truth: HashMap<&String, f64> = covered
                .iter()
                .map(|v| {
                    let r = run_gpu(&by_name[*v], &dg, titan_v());
                    (*v, r.gigaedges_per_sec(num_edges))
                })
                .collect();
            let (best, best_geps) = truth
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(v, g)| ((*v).clone(), *g))
                .expect("non-empty candidate set");

            let advice = advisor.advise(algo, model, &features);
            let ranked_covered: Vec<&String> = advice
                .ranked
                .iter()
                .filter(|v| truth.contains_key(v))
                .collect();
            let predicted = ranked_covered
                .first()
                .map(|v| (*v).clone())
                .unwrap_or_else(|| best.clone());
            let predicted_geps = truth[&predicted];
            let top3_geps = ranked_covered
                .iter()
                .take(3)
                .map(|v| truth[*v])
                .fold(f64::MIN, f64::max)
                .max(predicted_geps);
            let regret = |g: f64| {
                if best_geps > 0.0 {
                    (1.0 - g / best_geps).max(0.0)
                } else {
                    0.0
                }
            };
            cases.push(HeldOutCase {
                graph: name,
                algo,
                model,
                method: advice.method,
                neighbor: advice.neighbor.clone(),
                regret_top1: regret(predicted_geps),
                regret_top3: regret(top3_geps),
                predicted,
                predicted_geps,
                best,
                best_geps,
                candidates: covered.len(),
            });
        }
    }

    let mean = |f: &dyn Fn(&HeldOutCase) -> f64| {
        if cases.is_empty() {
            0.0
        } else {
            cases.iter().map(f).sum::<f64>() / cases.len() as f64
        }
    };
    let max = |f: &dyn Fn(&HeldOutCase) -> f64| cases.iter().map(f).fold(0.0, f64::max);
    AdvisorBench {
        scale,
        reps: 0,
        training_cells: advisor.num_cells(),
        training_graphs: advisor.num_graphs(),
        groups: groups.len(),
        mean_regret_top1: mean(&|c| c.regret_top1),
        max_regret_top1: max(&|c| c.regret_top1),
        mean_regret_top3: mean(&|c| c.regret_top3),
        max_regret_top3: max(&|c| c.regret_top3),
        cases,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Renders the bench as JSON (schema `bench-advisor-v1`).
pub fn render_bench(b: &AdvisorBench) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"bench-advisor-v1\",\n");
    s.push_str(&format!(
        "  \"scale\": {},\n",
        json_str(&format!("{:?}", b.scale))
    ));
    s.push_str(&format!("  \"reps\": {},\n", b.reps));
    s.push_str(&format!("  \"training_cells\": {},\n", b.training_cells));
    s.push_str(&format!("  \"training_graphs\": {},\n", b.training_graphs));
    s.push_str(&format!("  \"groups\": {},\n", b.groups));
    s.push_str(&format!("  \"held_out_cases\": {},\n", b.cases.len()));
    s.push_str(&format!(
        "  \"mean_regret_top1\": {},\n",
        json_f64(b.mean_regret_top1)
    ));
    s.push_str(&format!(
        "  \"max_regret_top1\": {},\n",
        json_f64(b.max_regret_top1)
    ));
    s.push_str(&format!(
        "  \"mean_regret_top3\": {},\n",
        json_f64(b.mean_regret_top3)
    ));
    s.push_str(&format!(
        "  \"max_regret_top3\": {},\n",
        json_f64(b.max_regret_top3)
    ));
    s.push_str("  \"cases\": [\n");
    for (i, c) in b.cases.iter().enumerate() {
        let neighbor = match &c.neighbor {
            Some((l, d)) => format!(
                "{{\"graph\": {}, \"distance\": {}}}",
                json_str(l),
                json_f64(*d)
            ),
            None => "null".into(),
        };
        s.push_str(&format!(
            "    {{\"graph\": {}, \"algo\": {}, \"model\": {}, \"method\": {}, \
             \"neighbor\": {neighbor}, \"predicted\": {}, \"predicted_geps\": {}, \
             \"best\": {}, \"best_geps\": {}, \"regret_top1\": {}, \
             \"regret_top3\": {}, \"candidates\": {}}}{}\n",
            json_str(c.graph),
            json_str(c.algo.label()),
            json_str(c.model.label()),
            json_str(c.method.label()),
            json_str(&c.predicted),
            json_f64(c.predicted_geps),
            json_str(&c.best),
            json_f64(c.best_geps),
            json_f64(c.regret_top1),
            json_f64(c.regret_top3),
            c.candidates,
            if i + 1 == b.cases.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`render_bench`] to `path`.
pub fn write_bench(path: &Path, b: &AdvisorBench) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_bench(b).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_journal(dir: &Path, cells: &[(Algorithm, Model, &str, f64)]) -> std::path::PathBuf {
        let path = dir.join("advise-test.jsonl");
        let mut lines = String::new();
        for (algo, model, graph, geps) in cells {
            let variants = enumerate::variants(*algo, *model).into_iter().take(4);
            for (k, cfg) in variants.enumerate() {
                // Spread throughputs so the per-graph ranking is non-trivial.
                let geps = geps * (1.0 + k as f64 * 0.5);
                let name = cfg.name();
                let target = "titan-v";
                let fp = fingerprint(Scale::Tiny, 1, true, &name, graph, target);
                lines.push_str(&format!(
                    "{{\"v\":1,\"fp\":\"{fp:016x}\",\"variant\":\"{name}\",\"graph\":\"{graph}\",\
                     \"target\":\"{target}\",\"outcome\":\"ok\",\"geps_bits\":\"{:016x}\",\
                     \"geps\":{geps},\"iterations\":1}}\n",
                    geps.to_bits()
                ));
            }
        }
        std::fs::write(&path, lines).unwrap();
        path
    }

    #[test]
    fn recovers_scale_and_reps_from_fingerprints() {
        let dir = std::env::temp_dir().join(format!("indigo-advise-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_journal(
            &dir,
            &[
                (Algorithm::Bfs, Model::Cuda, "rmat", 2.0),
                (Algorithm::Bfs, Model::Cuda, "2d-grid", 1.0),
            ],
        );
        let set = training_from_journal(&path).unwrap();
        assert_eq!(set.scale, Scale::Tiny);
        assert_eq!(set.reps, 1);
        assert_eq!(set.skipped, 0);
        assert_eq!(set.cells.len(), set.total_ok);
        assert!(set.cells.iter().all(|c| c.algo == Algorithm::Bfs));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn variant_name_round_trips() {
        for algo in Algorithm::ALL {
            for model in Model::ALL {
                for cfg in enumerate::variants(algo, model).into_iter().take(2) {
                    assert_eq!(parse_variant_name(&cfg.name()), Some((algo, model)));
                }
            }
        }
        assert_eq!(parse_variant_name("nonsense"), None);
    }

    #[test]
    fn held_out_regret_is_deterministic_and_bounded() {
        let dir = std::env::temp_dir().join(format!("indigo-advise-regret-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_journal(
            &dir,
            &[
                (Algorithm::Bfs, Model::Cuda, "2d-grid", 1.5),
                (Algorithm::Bfs, Model::Cuda, "rmat", 2.5),
            ],
        );
        let set = training_from_journal(&path).unwrap();
        let advisor = Advisor::fit(&set.cells);
        let bench = evaluate(&advisor, set.scale);

        // One BFS/CUDA case per held-out family, each regret well-formed.
        assert_eq!(bench.cases.len(), held_out_graphs(set.scale).len());
        for c in &bench.cases {
            assert_eq!((c.algo, c.model), (Algorithm::Bfs, Model::Cuda));
            assert!(
                (0.0..=1.0).contains(&c.regret_top1),
                "{}: regret_top1 {} out of range",
                c.graph,
                c.regret_top1
            );
            assert!(
                c.regret_top3 <= c.regret_top1,
                "{}: widening the candidate window cannot increase regret",
                c.graph
            );
            assert_eq!(c.candidates, 4);
        }
        assert!(bench.mean_regret_top3 <= bench.mean_regret_top1);

        // The simulator's cycle counts are deterministic, so a second
        // evaluation must reproduce the report byte-for-byte.
        let again = evaluate(&advisor, set.scale);
        assert_eq!(render_bench(&bench), render_bench(&again));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn held_out_graphs_are_disjoint_from_suite() {
        for held_scale in [Scale::Tiny, Scale::Small] {
            let held = held_out_graphs(held_scale);
            assert_eq!(held.len(), 5);
            for scale in SCALES {
                for which in SUITE_GRAPHS {
                    let suite = suite_graph(which, scale);
                    for (_, g) in &held {
                        assert!(
                            g.num_nodes() != suite.num_nodes()
                                || g.num_edges() != suite.num_edges(),
                            "held-out graph collides with {which:?} at {scale:?}"
                        );
                    }
                }
            }
        }
    }
}
