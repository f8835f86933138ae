//! Serving-side style advisor: `style=auto` resolution and `/advise`
//! (DESIGN.md §7.11).
//!
//! The server already holds everything the offline advisor needs: the
//! fingerprint cache is a measured (variant, graph) → throughput table, and
//! the shards own the resident prepared inputs whose features the model
//! keys on. [`AdvisorHub`] memoizes both halves — per-(graph, scale) feature
//! vectors behind a shared [`StatsScratch`], and one fitted
//! [`Advisor`] per cache generation. The cache is insert-only, so its cell
//! count identifies its contents: any new journaled cell bumps the count
//! and the next advised request refits against the richer table. An empty
//! cache degrades to [`indigo_advisor::Method::Baseline`] — `style=auto`
//! then resolves to the canonical baseline variant, never an error.

use crate::cache::ResultCache;
use crate::engine::Shard;
use indigo_advisor::{Advice, Advisor, TrainingCell};
use indigo_graph::gen::Scale;
use indigo_graph::stats::{FeatureVector, GraphStats, StatsScratch};
use indigo_harness::advise::parse_variant_name;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Feature memo: shared BFS scratch plus per-(graph, scale) vectors.
type FeatureMemo = (StatsScratch, HashMap<(&'static str, Scale), FeatureVector>);

/// One fitted advisor, valid for a (cache generation, feature scale) pair.
struct Memo {
    generation: usize,
    scale: Scale,
    advisor: Arc<Advisor>,
}

/// Memoized feature extraction + advisor fitting for the serving path.
#[derive(Default)]
pub struct AdvisorHub {
    features: Mutex<FeatureMemo>,
    fitted: Mutex<Option<Memo>>,
}

impl AdvisorHub {
    /// An empty hub; everything is computed (and memoized) on first use.
    pub fn new() -> AdvisorHub {
        AdvisorHub::default()
    }

    /// Measured features of `shard`'s graph at `scale`, memoized per
    /// (graph, scale) — the graph generators are deterministic, so a
    /// feature vector never goes stale.
    pub fn features(&self, shard: &Shard, scale: Scale) -> FeatureVector {
        let mut guard = self.features.lock().unwrap_or_else(|e| e.into_inner());
        let (scratch, memo) = &mut *guard;
        let key = (shard.which.label(), scale);
        if let Some(f) = memo.get(&key) {
            return *f;
        }
        let g = shard.prepared(scale);
        let f = GraphStats::compute_with(&g.input().csr, scratch).features();
        memo.insert(key, f);
        f
    }

    /// The advisor fitted from the current cache contents, with training
    /// features taken at `scale`. Refits only when the cache has grown (its
    /// cell count is its generation — the cache is insert-only) or the
    /// scale changed; otherwise the memoized fit is shared.
    pub fn advisor(
        &self,
        cache: &ResultCache,
        shards: &HashMap<&'static str, Shard>,
        scale: Scale,
    ) -> Arc<Advisor> {
        let generation = cache.len();
        {
            let memo = self.fitted.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(m) = &*memo {
                if m.generation == generation && m.scale == scale {
                    return Arc::clone(&m.advisor);
                }
            }
        }
        // Deterministic fit regardless of hash-map iteration order.
        let mut cells = cache.cells();
        cells.sort_by(|a, b| {
            (&a.variant, &a.graph, &a.target).cmp(&(&b.variant, &b.graph, &b.target))
        });
        let mut training = Vec::with_capacity(cells.len());
        for c in &cells {
            let Some((algo, model)) = parse_variant_name(&c.variant) else {
                continue; // foreign journal line; not a style cell
            };
            let Some(shard) = shards.get(c.graph.as_str()) else {
                continue; // not a resident suite graph
            };
            training.push(TrainingCell {
                algo,
                model,
                graph: c.graph.clone(),
                variant: c.variant.clone(),
                features: self.features(shard, scale),
                geps: c.geps(),
            });
        }
        let advisor = Arc::new(Advisor::fit(&training));
        *self.fitted.lock().unwrap_or_else(|e| e.into_inner()) = Some(Memo {
            generation,
            scale,
            advisor: Arc::clone(&advisor),
        });
        advisor
    }
}

/// Everything one advised answer needs: the prediction plus the query
/// graph's features and the fit's provenance for the `/advise` body.
pub struct Advised {
    /// The ranked prediction.
    pub advice: Advice,
    /// Features of the query graph at the requested scale.
    pub features: FeatureVector,
    /// Training cells behind the fit (0 = baseline fallback).
    pub training_cells: usize,
    /// Distinct training graphs behind the fit.
    pub training_graphs: usize,
}

/// One-call advisory: fit (or reuse) the advisor and predict for
/// (`algo`, `model`) on `shard`'s graph at `scale`.
pub fn advise(
    hub: &AdvisorHub,
    cache: &ResultCache,
    shards: &HashMap<&'static str, Shard>,
    shard: &Shard,
    scale: Scale,
    algo: indigo_styles::Algorithm,
    model: indigo_styles::Model,
) -> Advised {
    let features = hub.features(shard, scale);
    let advisor = hub.advisor(cache, shards, scale);
    Advised {
        advice: advisor.advise(algo, model, &features),
        features,
        training_cells: advisor.num_cells(),
        training_graphs: advisor.num_graphs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indigo_advisor::Method;
    use indigo_graph::gen::SuiteGraph;
    use indigo_harness::journal::fingerprint;
    use indigo_harness::{CellOutcome, CellRecord, Measurement};
    use indigo_styles::{Algorithm, Model, StyleConfig};

    fn shards() -> HashMap<&'static str, Shard> {
        let mut m = HashMap::new();
        for g in indigo_graph::gen::SUITE_GRAPHS {
            m.insert(
                g.label(),
                Shard::new(g, crate::breaker::BreakerConfig::default()),
            );
        }
        m
    }

    fn ok_record(cfg: &StyleConfig, graph: &'static str, geps: f64) -> CellRecord {
        let name = cfg.name();
        CellRecord {
            fingerprint: fingerprint(Scale::Tiny, 1, true, &name, graph, "titan-v"),
            variant: name,
            graph,
            target: "titan-v".into(),
            outcome: CellOutcome::Ok(Measurement {
                cfg: *cfg,
                graph,
                target: "titan-v".into(),
                geps,
                iterations: 1,
            }),
            resumed: false,
        }
    }

    #[test]
    fn empty_cache_falls_back_to_baseline() {
        let hub = AdvisorHub::new();
        let cache = ResultCache::open(None).unwrap();
        let shards = shards();
        let shard = &shards["2d-grid"];
        let a = advise(
            &hub,
            &cache,
            &shards,
            shard,
            Scale::Tiny,
            Algorithm::Bfs,
            Model::Cuda,
        );
        assert_eq!(a.advice.method, Method::Baseline);
        assert_eq!(
            a.advice.best(),
            StyleConfig::baseline(Algorithm::Bfs, Model::Cuda).name()
        );
        assert_eq!(a.training_cells, 0);
    }

    #[test]
    fn cached_cells_train_the_advisor_and_the_fit_is_memoized() {
        let hub = AdvisorHub::new();
        let cache = ResultCache::open(None).unwrap();
        let shards = shards();
        // Two measured variants on 2d-grid: the slower baseline and a
        // faster alternative — the advisor must rank the faster one first.
        let variants = indigo_styles::enumerate::variants(Algorithm::Bfs, Model::Cuda);
        let baseline = StyleConfig::baseline(Algorithm::Bfs, Model::Cuda);
        let other = variants
            .iter()
            .find(|c| c.name() != baseline.name())
            .unwrap();
        cache.insert(&ok_record(&baseline, "2d-grid", 1.0)).unwrap();
        cache.insert(&ok_record(other, "2d-grid", 5.0)).unwrap();

        let shard = &shards["2d-grid"];
        let a = advise(
            &hub,
            &cache,
            &shards,
            shard,
            Scale::Tiny,
            Algorithm::Bfs,
            Model::Cuda,
        );
        assert_eq!(a.advice.method, Method::NearestNeighbor);
        assert_eq!(a.advice.best(), other.name());
        assert_eq!(a.training_cells, 2);
        assert_eq!(a.training_graphs, 1);

        // Same generation → the memoized advisor is reused (same Arc).
        let first = hub.advisor(&cache, &shards, Scale::Tiny);
        let again = hub.advisor(&cache, &shards, Scale::Tiny);
        assert!(Arc::ptr_eq(&first, &again));

        // A new cell bumps the generation and triggers a refit.
        let third = variants
            .iter()
            .find(|c| c.name() != baseline.name() && c.name() != other.name())
            .unwrap();
        cache.insert(&ok_record(third, "rmat", 2.0)).unwrap();
        let refit = hub.advisor(&cache, &shards, Scale::Tiny);
        assert!(!Arc::ptr_eq(&first, &refit));
        assert_eq!(refit.num_graphs(), 2);
    }

    #[test]
    fn features_are_memoized_per_graph_and_scale() {
        let hub = AdvisorHub::new();
        let shards = shards();
        let shard = &shards[SuiteGraph::Rmat.label()];
        let f1 = hub.features(shard, Scale::Tiny);
        let f2 = hub.features(shard, Scale::Tiny);
        assert_eq!(f1, f2);
        assert!(f1.get("nodes").unwrap() > 0.0);
    }
}
