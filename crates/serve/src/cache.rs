//! Fingerprint-keyed result cache with crash-only journal persistence
//! (DESIGN.md §7.8).
//!
//! Every successfully measured cell is appended to the server's JSONL
//! journal (the PR 2 format — torn-tail safe on load *and* append, now
//! lockfile-guarded) and kept in an in-memory map keyed by the cell
//! fingerprint. Restart recovery is simply "load the journal": a
//! `SIGKILL`ed server loses at most the line it was writing, and a repeated
//! query is a cache hit, not a rerun. Only `ok` outcomes are persisted —
//! failures are the retry loop's business, and replaying them would turn a
//! transient fault into a permanent one.

use indigo_harness::journal::{self, Journal, JournalOutcome};
use indigo_harness::CellRecord;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

/// One cached measurement cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedCell {
    /// Variant name.
    pub variant: String,
    /// Graph label.
    pub graph: String,
    /// Target label.
    pub target: String,
    /// Exact measured throughput (`f64::to_bits`).
    pub geps_bits: u64,
    /// Convergence iterations.
    pub iterations: usize,
}

impl CachedCell {
    /// The measured throughput.
    pub fn geps(&self) -> f64 {
        f64::from_bits(self.geps_bits)
    }
}

/// The in-memory cache plus its append-only journal.
pub struct ResultCache {
    cells: Mutex<Cells>,
    journal: Option<Journal>,
    /// Cells replayed from the journal at startup.
    pub recovered: usize,
    /// Torn/garbage journal lines skipped at startup.
    pub skipped: usize,
}

/// The cached cells. A cell's labels come from a small set — the suite's
/// variants, graphs and targets — so each label is stored once and an
/// entry holds ids: 32 bytes per cell and no heap memory of its own. Three
/// `String`s per cell made the map most of what a busy server grew by.
#[derive(Default)]
struct Cells {
    map: HashMap<u64, Entry>,
    /// Every distinct label, at its id.
    labels: Vec<String>,
    ids: HashMap<String, u32>,
}

/// One cached cell: its measurement and the ids of its labels.
struct Entry {
    geps_bits: u64,
    iterations: usize,
    variant: u32,
    graph: u32,
    target: u32,
}

impl Cells {
    fn id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("fewer than 2^32 distinct labels");
        self.labels.push(label.to_string());
        self.ids.insert(label.to_string(), id);
        id
    }

    /// Caches a cell unless its fingerprint is cached already (the
    /// keep-first rule of [`ResultCache::insert`]); returns whether it was
    /// new.
    fn insert(&mut self, fp: u64, labels: [&str; 3], geps_bits: u64, iterations: usize) -> bool {
        if self.map.contains_key(&fp) {
            return false;
        }
        let [variant, graph, target] = labels.map(|l| self.id(l));
        let entry = Entry {
            geps_bits,
            iterations,
            variant,
            graph,
            target,
        };
        self.map.insert(fp, entry);
        true
    }

    /// Caches `rec` when its outcome is `ok` and its fingerprint new;
    /// returns whether it did.
    fn insert_record(&mut self, rec: &CellRecord) -> bool {
        let Some(m) = rec.outcome.measurement() else {
            return false;
        };
        let labels = [rec.variant.as_str(), rec.graph, rec.target.as_str()];
        self.insert(rec.fingerprint, labels, m.geps.to_bits(), m.iterations)
    }

    fn cell(&self, e: &Entry) -> CachedCell {
        let label = |id: u32| self.labels[id as usize].clone();
        CachedCell {
            variant: label(e.variant),
            graph: label(e.graph),
            target: label(e.target),
            geps_bits: e.geps_bits,
            iterations: e.iterations,
        }
    }
}

impl ResultCache {
    /// Opens the cache, replaying `journal_path` when given (and taking its
    /// lockfile — a second server on the same journal fails fast here).
    pub fn open(journal_path: Option<&Path>) -> std::io::Result<ResultCache> {
        let mut cells = Cells::default();
        let mut skipped = 0;
        if let Some(path) = journal_path {
            match journal::load(path) {
                Ok((entries, skip)) => {
                    skipped = skip;
                    for (fp, e) in entries {
                        if let JournalOutcome::Ok {
                            geps_bits,
                            iterations,
                        } = e.outcome
                        {
                            let labels = [e.variant.as_str(), &e.graph, &e.target];
                            cells.insert(fp, labels, geps_bits, iterations);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let recovered = cells.map.len();
        let journal = journal_path.map(Journal::append_to).transpose()?;
        Ok(ResultCache {
            cells: Mutex::new(cells),
            journal,
            recovered,
            skipped,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Cells> {
        self.cells.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up one cell.
    pub fn get(&self, fp: u64) -> Option<CachedCell> {
        let cells = self.lock();
        cells.map.get(&fp).map(|e| cells.cell(e))
    }

    /// Caches (and journals) a completed cell. Non-`ok` outcomes are
    /// ignored. Insertion is **keep-first**: a fingerprint already cached is
    /// never overwritten, so the bits a cell was first served with are the
    /// bits it is served with forever — re-measurement of a wall-clock
    /// (CPU) cell that raced into the same fingerprint cannot drift the
    /// answer. Journal write failures degrade persistence, not service —
    /// the error is returned for counting but the cell is still cached.
    pub fn insert(&self, rec: &CellRecord) -> std::io::Result<()> {
        if !self.lock().insert_record(rec) {
            return Ok(());
        }
        match &self.journal {
            Some(j) => j.record(rec),
            None => Ok(()),
        }
    }

    /// Caches a batch of completed cells with one journal lock/flush
    /// (`Journal::record_all`). Same keep-first rule as [`insert`]; cells
    /// already cached are neither overwritten nor re-journaled. Returns how
    /// many journal appends failed (persistence degraded, service intact).
    pub fn insert_batch(&self, records: &[&CellRecord]) -> usize {
        let fresh: Vec<&CellRecord> = {
            let mut cells = self.lock();
            let fresh = records.iter().filter(|rec| cells.insert_record(rec));
            fresh.copied().collect()
        };
        match &self.journal {
            Some(j) => match j.record_all(&fresh) {
                Ok(()) => 0,
                Err(_) => fresh.len(),
            },
            None => 0,
        }
    }

    /// A point-in-time copy of every cached cell, in unspecified order.
    /// The style advisor fits from this (DESIGN.md §7.11); serving caches
    /// stay small enough that a full copy is the simple, safe choice.
    pub fn cells(&self) -> Vec<CachedCell> {
        let cells = self.lock();
        cells.map.values().map(|e| cells.cell(e)).collect()
    }

    /// Cached cell count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indigo_graph::gen::Scale;
    use indigo_harness::journal::fingerprint;
    use indigo_harness::{CellOutcome, Measurement};
    use indigo_styles::{Algorithm, Model, StyleConfig};

    fn record(fp: u64, geps: f64) -> CellRecord {
        CellRecord {
            fingerprint: fp,
            variant: "tc_cuda".into(),
            graph: "2d-grid",
            target: "titan-v".into(),
            outcome: CellOutcome::Ok(Measurement {
                cfg: StyleConfig::baseline(Algorithm::Tc, Model::Cuda),
                graph: "2d-grid",
                target: "titan-v".into(),
                geps,
                iterations: 3,
            }),
            resumed: false,
        }
    }

    #[test]
    fn survives_restart_with_exact_bits() {
        let dir = std::env::temp_dir().join(format!("indigo-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.jsonl");
        std::fs::remove_file(&path).ok();
        let fp = fingerprint(Scale::Tiny, 1, true, "tc_cuda", "2d-grid", "titan-v");
        let geps = f64::from_bits(0x3fb9_9999_9999_999a);
        {
            let cache = ResultCache::open(Some(&path)).unwrap();
            assert_eq!(cache.recovered, 0);
            cache.insert(&record(fp, geps)).unwrap();
            // failures never persist
            cache
                .insert(&CellRecord {
                    outcome: CellOutcome::Crashed {
                        payload: "boom".into(),
                    },
                    ..record(fp + 1, 0.0)
                })
                .unwrap();
            assert_eq!(cache.len(), 1);
        }
        let cache = ResultCache::open(Some(&path)).unwrap();
        assert_eq!(cache.recovered, 1);
        assert_eq!(cache.get(fp).unwrap().geps_bits, geps.to_bits());
        assert_eq!(cache.get(fp + 1), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn works_without_a_journal() {
        let cache = ResultCache::open(None).unwrap();
        assert!(cache.is_empty());
        cache.insert(&record(9, 1.5)).unwrap();
        assert_eq!(cache.get(9).unwrap().geps(), 1.5);
    }
}
