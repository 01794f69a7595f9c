//! The three workloads and their seeded inputs.
//!
//! * `study` — a fixed slice of the paper's 1-NN study on the
//!   `ArchiveConfig::standard` synthetic archive (see [`crate::study`]),
//!   plus a small served probe of the same archive's test splits;
//! * `serve-scan` — unique 1-NN/k-NN queries against train splits of
//!   1000+ series, so every request pays for a pruned or exact scan and
//!   the answer cache never hits;
//! * `serve-hot` — Zipf-repeated queries against small datasets with the
//!   request journal on, so most requests are answer-cache hits.
//!
//! Every input is a pure function of the workload seed.

use std::sync::Arc;

use tsdist_core::elastic::Dtw;
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_serve::{render_query, MeasureResolver, QueryRequest};

use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    ServeScan,
    ServeHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::ServeScan, Workload::ServeHot];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::ServeScan => "serve-scan",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// The served part of the workload.
    pub fn serve_spec(self, seed: u64) -> ServeSpec {
        match self {
            Workload::Study => ServeSpec {
                archive: study_archive(seed),
                measures: &[("ed", 1.0), ("dtw:10", 1.0)],
                norms: &[Normalization::ZScore, Normalization::MinMax],
                // 6 × 65 test series × 4 (measure, normalization) = 1560
                // candidate requests.
                pool: 1200,
                zipf: None,
                knn3_every: 4,
                exact_every: 8,
                journal: false,
                slo_ms: 20.0,
                low_qps: 800.0,
                high_qps: 1600.0,
                window: 8,
            },
            Workload::ServeScan => ServeSpec {
                archive: ArchiveConfig {
                    n_datasets: 4,
                    seed,
                    length: (64, 64),
                    classes: (4, 4),
                    train_size: (1000, 1000),
                    test_size: (500, 500),
                    irregular_fraction: 0.0,
                },
                measures: &[("ed", 1.0), ("lorentzian", 0.3), ("dtw:10", 0.15)],
                norms: &[Normalization::ZScore],
                pool: 1200,
                zipf: None,
                knn3_every: 4,
                exact_every: 8,
                journal: false,
                slo_ms: 100.0,
                low_qps: 300.0,
                high_qps: 600.0,
                window: 8,
            },
            Workload::ServeHot => ServeSpec {
                archive: midpoints(ArchiveConfig::quick(4, seed)),
                measures: &[("ed", 1.0), ("dtw:10", 1.0)],
                norms: &[Normalization::ZScore, Normalization::MinMax],
                // 4 × 30 test series × 4 (measure, normalization) = 480
                // candidate requests.
                pool: 300,
                zipf: Some(1.1),
                knn3_every: 4,
                exact_every: 8,
                journal: true,
                slo_ms: 20.0,
                low_qps: 4000.0,
                high_qps: 8000.0,
                window: 16,
            },
        }
    }
}

/// Datasets in the study slice (and its served probe).
pub const STUDY_DATASETS: usize = 6;

/// The standard archive with its size ranges pinned to their midpoints
/// (length 112, 4 classes, 35 train and 65 test series).
pub fn study_archive(seed: u64) -> ArchiveConfig {
    midpoints(ArchiveConfig::standard(STUDY_DATASETS, seed))
}

/// `cfg` with each size range pinned to its midpoint and no irregular
/// datasets, so every seed asks for the same amount of work: with the
/// ranges left free, one seed's study slice took twice as long as
/// another's, and one seed's `serve-hot` reference pass 1.7 times as long.
fn midpoints(cfg: ArchiveConfig) -> ArchiveConfig {
    let mid = |(lo, hi): (usize, usize)| ((lo + hi) / 2, (lo + hi) / 2);
    ArchiveConfig {
        length: mid(cfg.length),
        classes: mid(cfg.classes),
        train_size: mid(cfg.train_size),
        test_size: mid(cfg.test_size),
        irregular_fraction: 0.0,
        ..cfg
    }
}

pub fn generate(cfg: &ArchiveConfig) -> Vec<Dataset> {
    (0..cfg.n_datasets)
        .map(|i| generate_dataset(cfg, i))
        .collect()
}

/// What a serve workload sends and how it is judged.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub archive: ArchiveConfig,
    /// Measure specs with their relative request weights.
    pub measures: &'static [(&'static str, f64)],
    pub norms: &'static [Normalization],
    /// Distinct requests in the pool.
    pub pool: usize,
    /// Zipf exponent of repeats; `None` cycles the pool in a seeded
    /// order, so an LRU smaller than the pool never hits.
    pub zipf: Option<f64>,
    /// Every n-th pool entry asks for k = 3 (the rest k = 1).
    pub knn3_every: usize,
    /// Every n-th pool entry asks for the exact scan (`pruned: false`).
    pub exact_every: usize,
    /// Journal every accepted request (`FsyncPolicy::Never`).
    pub journal: bool,
    /// Latency limit on p99, in ms.
    pub slo_ms: f64,
    /// The two fixed absolute open-loop rates the traced run reports
    /// latency at (about 15% and 30% of the seed code's closed-loop
    /// capacity on `study` and `serve-scan`, 20% and 40% on `serve-hot`).
    pub low_qps: f64,
    pub high_qps: f64,
    /// Closed-loop window per connection.
    pub window: usize,
}

/// Measure specs served by the benchmark's in-process server.
pub fn resolver() -> MeasureResolver {
    Arc::new(|spec: &str| resolve(spec))
}

pub fn resolve(spec: &str) -> Result<Box<dyn Distance>, String> {
    match spec {
        "ed" => Ok(Box::new(Euclidean)),
        "dtw:10" => Ok(Box::new(Dtw::with_window_pct(10.0))),
        "lorentzian" => Ok(Box::new(Lorentzian)),
        other => Err(format!("unknown measure {other:?}")),
    }
}

/// The pool of distinct requests: every entry is a different test-split
/// series (or the same series under a different measure/normalization),
/// so no two entries share an answer-cache key. Each (measure,
/// normalization) pair gets its weight's share of the pool, and within
/// it every `knn3_every`-th entry asks for k = 3 and every
/// `exact_every`-th for the exact scan, so every seed asks for the same
/// mix (drawn at random, one seed's `serve-scan` pool had 20% more DTW
/// requests than another's). Ids are assigned at send.
pub fn request_pool(spec: &ServeSpec, datasets: &[Dataset], seed: u64) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed ^ 0x9001);
    let combos: Vec<(&str, f64, Normalization)> = spec
        .measures
        .iter()
        .flat_map(|&(m, w)| spec.norms.iter().map(move |&n| (m, w, n)))
        .collect();
    let total: f64 = combos.iter().map(|c| c.1).sum();
    let mut quotas: Vec<usize> = combos
        .iter()
        .map(|c| (spec.pool as f64 * c.1 / total) as usize)
        .collect();
    for i in 0..spec.pool - quotas.iter().sum::<usize>() {
        quotas[i % combos.len()] += 1;
    }
    let mut pool = Vec::with_capacity(spec.pool);
    for (&(measure, _, norm), &quota) in combos.iter().zip(&quotas) {
        // Every (dataset, test series) candidate, shuffled; the combo's
        // share is a prefix.
        let mut slots: Vec<(usize, usize)> = datasets
            .iter()
            .enumerate()
            .flat_map(|(d, ds)| (0..ds.test.len()).map(move |t| (d, t)))
            .collect();
        assert!(
            slots.len() >= quota,
            "workload archive has {} test series, {measure} needs {quota}",
            slots.len()
        );
        shuffle(&mut slots, &mut rng);
        pool.extend(
            slots[..quota]
                .iter()
                .enumerate()
                .map(|(i, &(d, t))| QueryRequest {
                    id: 0,
                    dataset: datasets[d].name.clone(),
                    measure: measure.to_string(),
                    norm,
                    k: if i % spec.knn3_every == 0 { 3 } else { 1 },
                    pruned: i % spec.exact_every != 1,
                    series: datasets[d].test[t].clone(),
                    deadline_ms: None,
                }),
        );
    }
    pool
}

/// The order pool entries are requested in: a seeded permutation cycled
/// (no repeats within a pool length), or Zipf draws over a seeded
/// popularity ranking.
pub fn request_order(spec: &ServeSpec, seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0dde);
    let mut ranking: Vec<usize> = (0..spec.pool).collect();
    shuffle(&mut ranking, &mut rng);
    match spec.zipf {
        None => ranking,
        Some(s) => {
            let mut cdf = Vec::with_capacity(spec.pool);
            let mut acc = 0.0;
            for r in 1..=spec.pool {
                acc += 1.0 / (r as f64).powf(s);
                cdf.push(acc);
            }
            (0..len)
                .map(|_| {
                    let u = rng.unit() * acc;
                    let r = cdf.partition_point(|&c| c < u).min(spec.pool - 1);
                    ranking[r]
                })
                .collect()
        }
    }
}

/// Warm-up requests: one per (dataset, measure, normalization) served,
/// drawn from the *train* split so they never match a measured request.
/// They force the lazy prepare and index build before timing starts.
pub fn warmup_requests(spec: &ServeSpec, datasets: &[Dataset]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for ds in datasets {
        for &(m, _) in spec.measures {
            for &norm in spec.norms {
                out.push(QueryRequest {
                    id: out.len() as u64 + 1,
                    dataset: ds.name.clone(),
                    measure: m.to_string(),
                    norm,
                    k: 1,
                    pruned: true,
                    series: ds.train[0].clone(),
                    deadline_ms: None,
                });
            }
        }
    }
    out
}

/// Splits a request's wire line around its id, so senders splice ids in
/// without re-encoding the series.
pub fn split_line(q: &QueryRequest) -> (String, String) {
    const MARK: u64 = 987_654_321_012_345;
    let mut probe = q.clone();
    probe.id = MARK;
    let line = render_query(&probe);
    let mark = MARK.to_string();
    let at = line.find(&mark).expect("rendered id");
    (line[..at].to_string(), line[at + mark.len()..].to_string())
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i + 1);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_serve::protocol::norm_tag;
    use tsdist_serve::CacheKey;

    type Contents = Vec<(String, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<usize>, Vec<usize>)>;

    fn contents(ds: &[Dataset]) -> Contents {
        ds.iter()
            .map(|d| {
                let bits = |s: &[Vec<f64>]| s.to_vec();
                (
                    d.name.clone(),
                    bits(&d.train),
                    bits(&d.test),
                    d.train_labels.clone(),
                    d.test_labels.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let spec = w.serve_spec(5);
            let a = generate(&spec.archive);
            let b = generate(&w.serve_spec(5).archive);
            assert_eq!(contents(&a), contents(&b), "{}", w.name());
            let pool_a = request_pool(&spec, &a, 5);
            let pool_b = request_pool(&spec, &b, 5);
            assert_eq!(pool_a, pool_b);
            assert_eq!(request_order(&spec, 5, 500), request_order(&spec, 5, 500));
            let other = generate(&w.serve_spec(6).archive);
            assert_ne!(
                contents(&a),
                contents(&other),
                "{}: seed must change the archive",
                w.name()
            );
        }
    }

    #[test]
    fn every_seed_asks_for_the_same_sizes() {
        let sizes = |ds: &[Dataset]| -> Vec<(usize, usize, usize)> {
            ds.iter()
                .map(|d| (d.train.len(), d.test.len(), d.train[0].len()))
                .collect()
        };
        for w in Workload::ALL {
            let first = sizes(&generate(&w.serve_spec(0).archive));
            for seed in 1..8 {
                assert_eq!(
                    sizes(&generate(&w.serve_spec(seed).archive)),
                    first,
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
        let study = study_archive(3);
        assert_eq!(
            (
                study.length,
                study.classes,
                study.train_size,
                study.test_size
            ),
            ((112, 112), (4, 4), (35, 35), (65, 65))
        );
    }

    #[test]
    fn every_seed_yields_a_full_pool() {
        for w in Workload::ALL {
            for seed in 0..64 {
                let spec = w.serve_spec(seed);
                let pool = request_pool(&spec, &generate(&spec.archive), seed);
                assert_eq!(pool.len(), spec.pool, "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn pool_entries_have_distinct_cache_keys() {
        for w in Workload::ALL {
            let spec = w.serve_spec(1);
            let ds = generate(&spec.archive);
            let pool = request_pool(&spec, &ds, 1);
            let keys: std::collections::BTreeSet<CacheKey> =
                pool.iter().map(CacheKey::of).collect();
            assert_eq!(keys.len(), pool.len(), "{}", w.name());
            assert!(pool.iter().any(|q| q.k == 3) && pool.iter().any(|q| !q.pruned));
            let mix = |seed: u64| -> Vec<(String, &'static str, usize, bool)> {
                let ds = generate(&w.serve_spec(seed).archive);
                let mut mix: Vec<_> = request_pool(&spec, &ds, seed)
                    .iter()
                    .map(|q| (q.measure.clone(), norm_tag(q.norm), q.k, q.pruned))
                    .collect();
                mix.sort();
                mix
            };
            assert_eq!(
                mix(1),
                mix(2),
                "{}: every seed asks for the same mix",
                w.name()
            );
        }
    }

    #[test]
    fn warmups_come_from_train_splits() {
        let spec = Workload::ServeScan.serve_spec(2);
        let ds = generate(&spec.archive);
        let pool = request_pool(&spec, &ds, 2);
        for w in warmup_requests(&spec, &ds) {
            assert!(pool.iter().all(|q| q.series != w.series));
        }
    }

    #[test]
    fn split_line_round_trips() {
        let spec = Workload::ServeHot.serve_spec(3);
        let ds = generate(&spec.archive);
        let mut q = request_pool(&spec, &ds, 3).remove(0);
        let (pre, post) = split_line(&q);
        q.id = 42;
        assert_eq!(format!("{pre}42{post}"), render_query(&q));
    }
}
