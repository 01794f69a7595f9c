//! The 1-NN / k-NN scan engine: one cutoff-threaded per-row loop whose
//! candidate order and lower-bound tiers come from a per-row plan.
//!
//! The batch engine in [`crate::matrices`] materializes full
//! dissimilarity matrices because the statistical machinery (pairwise
//! Wilcoxon, Friedman + Nemenyi) needs *every* pairwise distance. The
//! 1-NN classifier of Algorithm 1 does not: once some training series is
//! within distance `best`, any candidate whose distance provably reaches
//! `best` can be skipped or abandoned mid-computation. This module
//! threads that best-so-far through [`Distance::distance_upto`] and
//! reproduces the exact classifier outputs without ever building `E`.
//!
//! # Plans
//!
//! Every row asks [`TrainIndex::plan`] how to search (with no index, or
//! an index built over a different split, the plan is always `Linear`):
//!
//! | plan | candidate order | skipped before `distance_upto` when |
//! |------|-----------------|-------------------------------------|
//! | [`QueryPlan::Linear`] | cheap strided score | never |
//! | [`QueryPlan::Cascade`] (banded DTW) | stored `LB_PAA` | `LB_PAA`, then the envelope's `LB_Keogh` against `cutoff * KEOGH_INFLATE`, reaches the cutoff |
//! | [`QueryPlan::Pivots`] (declared metrics) | pivots first (exact), then the reverse-triangle pivot bound | the pivot bound reaches the cutoff |
//!
//! In the bound-ordered plans the first bound-skip inside the still-sorted
//! region proves every later bound reaches the cutoff too and ends the
//! row. The loop is generic over its collector — the 1-NN incumbent or
//! the k-best list — so one body serves 1-NN, k-NN and LOOCV.
//!
//! # Equivalence contract
//!
//! Every search is **byte-identical** to its matrix-backed counterpart
//! ([`crate::nn::one_nn_accuracy`], [`crate::nn::loocv_accuracy`] on a
//! full — not mirrored — matrix, [`crate::knn::knn_accuracy`]) for every
//! measure honouring the `distance_upto` contract, under any candidate
//! order and any subset of admissible skips:
//!
//! - the cutoff is [`f64::next_up`]` (best)` (k-NN: of the current `k`-th
//!   distance), so a candidate *tying* the incumbent has
//!   `lb <= d < cutoff`, is never skipped, and computes exactly;
//! - the 1-NN update rule `d < best || (d == best && j < best_j)` selects
//!   the smallest index among minimizers, which is what Algorithm 1's
//!   strict `<` scan in natural order produces; k-NN keeps the
//!   `(total_cmp, index)` order of the matrix selection;
//! - non-finite distances never update the incumbent, exactly as strict
//!   `<` (and `total_cmp` top-k selection) never lets them displace a
//!   finite neighbour.
//!
//! Because each row's result is order-independent, the plan, the warm
//! start (visiting the previous row's winners first) and the chunking
//! change only how fast the cutoff tightens, never an answer.
//!
//! Floating-point safety: `LB_PAA` values are stored pre-deflated
//! ([`tsdist_core::index::LB_DEFLATE`]); the `LB_Keogh` tier instead
//! inflates the threshold by [`KEOGH_INFLATE`] — the early-abandoning
//! walk's partial sums are monotone, so `lb_keogh_upto(...) >= thresh`
//! proves the *computed* full bound reaches `thresh`, and the `1e-8`
//! inflation strictly dominates the sum's `~1e-9` relative error, so the
//! *true* bound (and hence the true DTW) still reaches `cutoff`.
//!
//! Symmetric train-by-train matrices feeding the Wilcoxon/Friedman
//! statistics must **not** use this path: a cutoff admissible for one
//! row's 1-NN scan truncates values other rows (and the rank statistics)
//! still need. See the "Early abandoning" section of `DESIGN.md`.

use crate::error::EvalError;
use crate::knn::majority_vote;
use crate::parallel::{parallel_map, worker_count};
use tsdist_core::elastic::lb_keogh_upto;
use tsdist_core::index::{paa_means, QueryPlan, TrainIndex};
use tsdist_core::measure::Distance;
use tsdist_core::Workspace;
use tsdist_data::Label;

/// Relative inflation of the cutoff before the cascade's `LB_Keogh` tier
/// compares against it: skipping requires the computed bound to reach
/// `cutoff * KEOGH_INFLATE`, which (being far above the bound's own
/// relative summation error) guarantees the true bound reaches `cutoff`.
pub const KEOGH_INFLATE: f64 = 1.0 + 1e-8;

/// Result of one nearest-neighbour row scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NearestNeighbour {
    /// Index of the nearest training series — the smallest index among
    /// minimizers, `None` when no candidate had a finite distance (or the
    /// training set was empty).
    pub index: Option<usize>,
    /// The (exact) distance to that neighbour; `f64::INFINITY` when
    /// `index` is `None`.
    pub distance: f64,
    /// First candidate whose *exactly computed* distance came out
    /// non-finite, if any. This is a best-effort screen: candidates
    /// abandoned under a finite cutoff legitimately report `INFINITY`
    /// and are not inspectable, so a `None` here does not prove the full
    /// matrix is finite.
    pub non_finite: Option<usize>,
}

/// Work counters of a search — the evidence that the bound tiers
/// actually prune (and the `bench_index` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexedStats {
    /// Query rows answered.
    pub rows: u64,
    /// Candidate pairs considered (self-exclusions already removed).
    pub candidates: u64,
    /// Candidates that reached a distance computation.
    pub examined: u64,
    /// Candidates skipped by the stored `LB_PAA` tier.
    pub paa_skipped: u64,
    /// Candidates skipped by the envelope `LB_Keogh` tier.
    pub keogh_skipped: u64,
    /// Candidates skipped by the reverse-triangle pivot bound.
    pub pivot_skipped: u64,
    /// Rows that took the linear (exact) scan plan.
    pub fallback_rows: u64,
}

impl IndexedStats {
    /// Fraction of candidates that reached a distance computation.
    pub fn examined_fraction(&self) -> f64 {
        self.examined as f64 / self.candidates.max(1) as f64
    }

    fn absorb(&mut self, o: &IndexedStats) {
        self.rows += o.rows;
        self.candidates += o.candidates;
        self.examined += o.examined;
        self.paa_skipped += o.paa_skipped;
        self.keogh_skipped += o.keogh_skipped;
        self.pivot_skipped += o.pivot_skipped;
        self.fallback_rows += o.fallback_rows;
    }
}

/// Per-training-split candidate-order table, built once and reused
/// across every query (and every search over the split).
///
/// The linear plan visits candidates in a cheap strided-score order. The
/// sample positions depend only on the (uniform) series length, so each
/// training series' samples are query-independent; hoisting them here
/// drops the per-query ordering cost from `O(train x len)` series walks
/// to `O(train x 16)` contiguous reads. Scores produced from the table
/// are bit-identical to the uncached path, so candidate order — and
/// hence (by the order-independence contract) every answer — is
/// unchanged.
pub struct EnvelopeCache {
    /// Number of training series the table was built for.
    n: usize,
    /// The uniform training-series length the strided table was built
    /// for; `0` when the split is empty or ragged (table disabled).
    series_len: usize,
    /// Strided sample positions within a series of `series_len` points.
    sample_positions: Vec<usize>,
    /// Flat `train.len() x sample_positions.len()` table of strided
    /// samples, row `j` holding training series `j`'s samples.
    samples: Vec<f64>,
}

impl EnvelopeCache {
    /// Builds the strided candidate-order table of `train` (disabled when
    /// the split has no single uniform series length).
    pub fn build(train: &[Vec<f64>]) -> EnvelopeCache {
        let series_len = train.first().map_or(0, |t| t.len());
        let uniform = series_len > 0 && train.iter().all(|t| t.len() == series_len);
        let (series_len, sample_positions) = if uniform {
            (series_len, cheap_sample_positions(series_len))
        } else {
            (0, Vec::new())
        };
        let mut samples = Vec::with_capacity(sample_positions.len() * train.len());
        for t in train.iter().filter(|_| uniform) {
            samples.extend(sample_positions.iter().map(|&p| t[p]));
        }
        EnvelopeCache {
            n: train.len(),
            series_len,
            sample_positions,
            samples,
        }
    }

    /// Number of training series the table covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table covers no series.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fills `scores` with every training series' cheap candidate score
    /// against `query` from the hoisted strided table — bit-identical to
    /// scoring each full series, since the sample positions and the
    /// accumulation order match exactly.
    ///
    /// Returns `false` (leaving `scores` untouched) when the table is
    /// unavailable: ragged/empty training split, or a query whose length
    /// differs from the cached series length (the sample positions would
    /// differ). Callers then fall back to the uncached scoring.
    pub fn cheap_scores(
        &self,
        query: &[f64],
        qsamples: &mut Vec<f64>,
        scores: &mut Vec<f64>,
    ) -> bool {
        if self.sample_positions.is_empty() || query.len() != self.series_len {
            return false;
        }
        qsamples.clear();
        qsamples.extend(self.sample_positions.iter().map(|&p| query[p]));
        let width = self.sample_positions.len();
        scores.clear();
        scores.extend(self.samples.chunks_exact(width).map(|row| {
            let mut acc = 0.0;
            for (a, b) in qsamples.iter().zip(row) {
                let d = a - b;
                acc += d * d;
            }
            acc
        }));
        true
    }
}

/// Sampled squared-difference score used only to *order* candidates so
/// the cutoff tightens fast; correctness never depends on it.
fn cheap_score(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n == 0 {
        return 0.0;
    }
    let stride = (n / 16).max(1);
    let mut acc = 0.0;
    let mut k = 0;
    while k < n {
        let d = x[k] - y[k];
        acc += d * d;
        k += stride;
    }
    acc
}

/// The positions [`cheap_score`] samples for two series of length `n`.
/// Must mirror its stride arithmetic exactly, or the cached candidate
/// order diverges.
fn cheap_sample_positions(n: usize) -> Vec<usize> {
    let stride = (n / 16).max(1);
    (0..n).step_by(stride).collect()
}

/// What a row scan keeps: the 1-NN incumbent or the k-best list. A type
/// parameter of the loop, so each collector's per-candidate code is
/// monomorphized in place.
trait Collector {
    /// One row's answer.
    type Row: Send;
    /// Starts a new row.
    fn reset(&mut self);
    /// The cutoff the next candidate is computed (or bound-skipped) under.
    fn cutoff(&self) -> f64;
    /// Offers candidate `j` at distance `v`; `exact` says `v` was computed
    /// without a finite cutoff, so a non-finite value is the measure's own.
    fn offer(&mut self, v: f64, j: usize, exact: bool);
    /// Replaces `seeds` with this row's winners (nearest last) when the
    /// row found a full answer, for the next row's warm start.
    fn seeds(&self, seeds: &mut Vec<usize>);
    /// The row's answer.
    fn finish(&self) -> Self::Row;
}

/// The 1-NN incumbent: smallest index among minimizers, a non-finite
/// value never displaces a finite one, the first non-finite exact value
/// is recorded.
struct Nearest(NearestNeighbour);

impl Collector for Nearest {
    type Row = NearestNeighbour;

    fn reset(&mut self) {
        self.0 = NearestNeighbour {
            index: None,
            distance: f64::INFINITY,
            non_finite: None,
        };
    }

    fn cutoff(&self) -> f64 {
        self.0.distance.next_up()
    }

    fn offer(&mut self, v: f64, j: usize, exact: bool) {
        let nn = &mut self.0;
        if nn.non_finite.is_none() && (v.is_nan() || (exact && !v.is_finite())) {
            // NaN is never a legal abandonment signal, and under an
            // infinite cutoff the value is exact by contract.
            nn.non_finite = Some(j);
        }
        if v < nn.distance || (v == nn.distance && nn.index.is_some_and(|b| j < b)) {
            nn.distance = v;
            nn.index = Some(j);
        }
    }

    fn seeds(&self, seeds: &mut Vec<usize>) {
        if let Some(j) = self.0.index {
            seeds.clear();
            seeds.push(j);
        }
    }

    fn finish(&self) -> NearestNeighbour {
        self.0
    }
}

/// The `k` smallest `(distance, index)` pairs under `(total_cmp, index)`
/// order, ascending.
struct KBest {
    k: usize,
    heap: Vec<(f64, usize)>,
}

impl Collector for KBest {
    type Row = Vec<(f64, usize)>;

    fn reset(&mut self) {
        self.heap.clear();
    }

    fn cutoff(&self) -> f64 {
        match self.heap.get(self.k - 1) {
            // `total_cmp` sorts NaN and +inf last; `next_up` of either is
            // non-finite, which `distance_upto` treats as "no cutoff", so
            // a degenerate k-th neighbour keeps the scan exact.
            Some(&(kv, _)) => kv.next_up(),
            None => f64::INFINITY,
        }
    }

    fn offer(&mut self, v: f64, j: usize, _exact: bool) {
        if let Some(&(kv, kj)) = self.heap.get(self.k - 1) {
            if kv.total_cmp(&v).then(kj.cmp(&j)).is_le() {
                return;
            }
        }
        let pos = self
            .heap
            .partition_point(|&(hv, hj)| hv.total_cmp(&v).then(hj.cmp(&j)).is_lt());
        self.heap.insert(pos, (v, j));
        self.heap.truncate(self.k);
    }

    fn seeds(&self, seeds: &mut Vec<usize>) {
        if self.heap.len() == self.k {
            seeds.clear();
            seeds.extend(self.heap.iter().map(|&(_, j)| j));
        }
    }

    fn finish(&self) -> Vec<(f64, usize)> {
        self.heap.clone()
    }
}

/// Everything a search needs besides its query rows.
#[derive(Clone, Copy)]
pub(crate) struct Search<'a> {
    pub d: &'a dyn Distance,
    pub train: &'a [Vec<f64>],
    /// Supplies per-row plans; `None` means every row is `Linear`.
    pub index: Option<&'a TrainIndex>,
    /// The hoisted candidate-order table for `Linear` rows.
    pub cache: Option<&'a EnvelopeCache>,
    /// Visit the previous row's winners first.
    pub warm_start: bool,
}

impl<'a> Search<'a> {
    /// A search with no index and no cache.
    pub fn new(d: &'a dyn Distance, train: &'a [Vec<f64>], warm_start: bool) -> Self {
        Search {
            d,
            train,
            index: None,
            cache: None,
            warm_start,
        }
    }

    /// The same search planned by `index`.
    pub fn indexed(self, index: &'a TrainIndex) -> Self {
        Search {
            index: Some(index),
            ..self
        }
    }

    /// 1-NN of every query row.
    pub fn nn(&self, queries: &[Vec<f64>]) -> (Vec<NearestNeighbour>, IndexedStats) {
        self.rows(queries, false, || Nearest(NearestNeighbour::default()))
    }

    /// Leave-one-out 1-NN of every train row (row `i` excludes candidate
    /// `i`).
    pub fn loocv(&self) -> (Vec<NearestNeighbour>, IndexedStats) {
        self.rows(self.train, true, || Nearest(NearestNeighbour::default()))
    }

    /// The `min(k, train.len())` nearest `(distance, index)` pairs of
    /// every query row, in `(total_cmp, index)` order.
    pub fn knn(&self, queries: &[Vec<f64>], k: usize) -> (Vec<Vec<(f64, usize)>>, IndexedStats) {
        let k = k.min(self.train.len());
        if k == 0 {
            return (vec![Vec::new(); queries.len()], IndexedStats::default());
        }
        self.rows(queries, false, || KBest {
            k,
            heap: Vec::with_capacity(k + 1),
        })
    }

    /// The parallel row driver: contiguous chunks per worker, each with
    /// its own workspace, scratch, collector and warm-start chain (chunk
    /// boundaries only reset the chain, never change a row's result).
    fn rows<C: Collector>(
        &self,
        queries: &[Vec<f64>],
        loocv: bool,
        collector: impl Fn() -> C + Sync,
    ) -> (Vec<C::Row>, IndexedStats) {
        let n = queries.len();
        if n == 0 {
            return (Vec::new(), IndexedStats::default());
        }
        // An index built over a different split must never prune.
        let index = self.index.filter(|ix| ix.len() == self.train.len());
        let chunk = n.div_ceil(worker_count().max(1)).max(1);
        let per_chunk = parallel_map(n.div_ceil(chunk), |c| {
            let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
            let mut ws = Workspace::new();
            let mut s = Scratch::default();
            let mut stats = IndexedStats::default();
            let mut col = collector();
            let mut out = Vec::with_capacity(hi - lo);
            for (i, x) in queries.iter().enumerate().take(hi).skip(lo) {
                col.reset();
                let plan = index.map_or(QueryPlan::Linear, |ix| ix.plan(self.d, x));
                let skip = if loocv { i } else { usize::MAX };
                self.row(x, plan, skip, &mut s, &mut ws, &mut stats, &mut col);
                if self.warm_start {
                    col.seeds(&mut s.seeds);
                }
                out.push(col.finish());
            }
            (out, stats)
        });
        let mut stats = IndexedStats::default();
        let mut rows = Vec::with_capacity(n);
        for (chunk, chunk_stats) in per_chunk {
            rows.extend(chunk);
            stats.absorb(&chunk_stats);
        }
        (rows, stats)
    }

    /// The per-row loop: the plan fixes the candidate order and the bound
    /// tiers, the collector fixes the cutoff and what a visit keeps.
    #[allow(clippy::too_many_arguments)]
    fn row<C: Collector>(
        &self,
        x: &[f64],
        plan: QueryPlan<'_>,
        skip: usize,
        s: &mut Scratch,
        ws: &mut Workspace,
        stats: &mut IndexedStats,
        col: &mut C,
    ) {
        let train = self.train;
        stats.rows += 1;
        stats.candidates += (train.len() - usize::from(skip < train.len())) as u64;
        s.order.clear();
        let mut keogh = None;
        match plan {
            QueryPlan::Linear => {
                stats.fallback_rows += 1;
                let cached = self
                    .cache
                    .filter(|c| c.len() == train.len())
                    .is_some_and(|c| c.cheap_scores(x, &mut s.qsamples, &mut s.lbs));
                if !cached {
                    s.lbs.clear();
                    s.lbs.extend(train.iter().map(|t| cheap_score(x, t)));
                }
                s.order.extend((0..train.len()).filter(|&j| j != skip));
            }
            QueryPlan::Cascade(bix) => {
                let bounds = self.index.map_or(&[][..], |ix| ix.bounds());
                paa_means(x, bounds, &mut s.qmeans);
                s.lbs.clear();
                s.lbs
                    .extend((0..train.len()).map(|j| bix.lb_paa(&s.qmeans, bounds, j)));
                s.order.extend((0..train.len()).filter(|&j| j != skip));
                keogh = Some(bix);
            }
            QueryPlan::Pivots(table) => {
                s.qd.clear();
                s.is_pivot.clear();
                s.is_pivot.resize(train.len(), false);
                for &p in table.pivots() {
                    s.is_pivot[p] = true;
                    // Exact by construction: this value both visits `p`
                    // and feeds `lower_bound` for every other candidate.
                    let v = self.d.distance_ws(x, &train[p], ws);
                    s.qd.push(v);
                    if p != skip {
                        stats.examined += 1;
                        col.offer(v, p, true);
                    }
                }
                s.lbs.clear();
                s.lbs.resize(train.len(), 0.0);
                for j in 0..train.len() {
                    if j != skip && !s.is_pivot[j] {
                        s.lbs[j] = table.lower_bound(&s.qd, j);
                        s.order.push(j);
                    }
                }
            }
        }
        let lbs = &s.lbs;
        s.order
            .sort_unstable_by(|&a, &b| lbs[a].total_cmp(&lbs[b]).then(a.cmp(&b)));
        // Warm start: visit the previous row's winners first, nearest
        // last so the nearest ends up at the very front. Positions from
        // `sorted_from` on are still in ascending-bound order.
        let mut sorted_from = 0;
        if self.warm_start {
            for &p in s.seeds.iter().rev() {
                if let Some(pos) = s.order.iter().position(|&j| j == p) {
                    s.order[..=pos].rotate_right(1);
                    sorted_from += 1;
                }
            }
        }
        let bounded = !matches!(plan, QueryPlan::Linear);
        let (mut lb_skipped, mut keogh_skipped) = (0, 0);
        for (pos, &j) in s.order.iter().enumerate() {
            let cutoff = col.cutoff();
            if bounded && cutoff.is_finite() && cutoff > 0.0 {
                if lbs[j] >= cutoff {
                    if pos >= sorted_from {
                        lb_skipped += (s.order.len() - pos) as u64;
                        break;
                    }
                    lb_skipped += 1;
                    continue;
                }
                if let Some(bix) = keogh.filter(|bix| bix.is_clean(j)) {
                    let (upper, lower) = bix.envelope(j);
                    let thresh = cutoff * KEOGH_INFLATE;
                    if lb_keogh_upto(x, upper, lower, thresh) >= thresh {
                        keogh_skipped += 1;
                        continue;
                    }
                }
            }
            stats.examined += 1;
            let exact = cutoff.is_nan() || cutoff == f64::INFINITY;
            col.offer(self.d.distance_upto(x, &train[j], ws, cutoff), j, exact);
        }
        stats.keogh_skipped += keogh_skipped;
        match plan {
            QueryPlan::Cascade(_) => stats.paa_skipped += lb_skipped,
            QueryPlan::Pivots(_) => stats.pivot_skipped += lb_skipped,
            QueryPlan::Linear => {}
        }
    }
}

/// Per-chunk scratch reused across rows.
#[derive(Default)]
struct Scratch {
    /// Candidate visiting order.
    order: Vec<usize>,
    /// Per-candidate sort key: the lower bound (bounded plans) or the
    /// cheap score (linear plan).
    lbs: Vec<f64>,
    qmeans: Vec<f64>,
    qsamples: Vec<f64>,
    qd: Vec<f64>,
    is_pivot: Vec<bool>,
    /// The previous row's winners, for the warm start.
    seeds: Vec<usize>,
}

/// Exact 1-NN search of every `test` row against `train`: the linear
/// plan, candidates in cheap-score order, optionally warm-started with
/// the previous row's winner. Results are identical for any chunking,
/// ordering, and warm-start setting.
pub fn pruned_nn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    warm_start: bool,
) -> Vec<NearestNeighbour> {
    Search::new(d, train, warm_start).nn(test).0
}

/// Leave-one-out nearest neighbours of every `train` row against the
/// rest of `train` (row `i` excludes candidate `i`).
pub fn pruned_loocv_search(
    d: &dyn Distance,
    train: &[Vec<f64>],
    warm_start: bool,
) -> Vec<NearestNeighbour> {
    Search::new(d, train, warm_start).loocv().0
}

/// k-nearest-neighbour search of every `test` row against `train`: each
/// row's result is its `min(k, train.len())` nearest `(distance, index)`
/// pairs in `(total_cmp, index)` order — the exact neighbour set (and
/// order) the matrix-backed [`crate::knn::knn_accuracy`] selection
/// produces.
pub fn pruned_knn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    k: usize,
    warm_start: bool,
) -> Vec<Vec<(f64, usize)>> {
    Search::new(d, train, warm_start).knn(test, k).0
}

/// Indexed 1-NN search: byte-identical results to [`pruned_nn_search`],
/// with the index's bound tiers skipping candidates the linear scan
/// would merely abandon late.
pub fn indexed_nn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    warm_start: bool,
) -> Vec<NearestNeighbour> {
    Search::new(d, train, warm_start).indexed(ix).nn(test).0
}

/// [`indexed_nn_search`] also returning the tier work counters.
pub fn indexed_nn_search_stats(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    warm_start: bool,
) -> (Vec<NearestNeighbour>, IndexedStats) {
    Search::new(d, train, warm_start).indexed(ix).nn(test)
}

/// Indexed leave-one-out 1-NN over `train`: byte-identical to
/// [`pruned_loocv_search`].
pub fn indexed_loocv_search(
    d: &dyn Distance,
    train: &[Vec<f64>],
    ix: &TrainIndex,
    warm_start: bool,
) -> Vec<NearestNeighbour> {
    Search::new(d, train, warm_start).indexed(ix).loocv().0
}

/// Indexed k-NN search: byte-identical to [`pruned_knn_search`].
pub fn indexed_knn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    k: usize,
    warm_start: bool,
) -> Vec<Vec<(f64, usize)>> {
    Search::new(d, train, warm_start).indexed(ix).knn(test, k).0
}

/// [`indexed_knn_search`] also returning the tier work counters.
pub fn indexed_knn_search_stats(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    k: usize,
    warm_start: bool,
) -> (Vec<Vec<(f64, usize)>>, IndexedStats) {
    Search::new(d, train, warm_start).indexed(ix).knn(test, k)
}

/// Algorithm 1's accuracy from a batch of 1-NN rows: `predicted` starts
/// at the first training label, which an all-non-finite row never
/// overwrites.
pub(crate) fn one_nn_vote_accuracy(
    nns: &[NearestNeighbour],
    test_labels: &[Label],
    train_labels: &[Label],
) -> f64 {
    let correct = nns
        .iter()
        .zip(test_labels)
        .filter(|(nn, &truth)| nn.index.map_or(train_labels[0], |j| train_labels[j]) == truth)
        .count();
    // Plain `len()`, not `max(1)`: an empty test split yields NaN exactly
    // like the matrix-backed `one_nn_accuracy`.
    correct as f64 / test_labels.len() as f64
}

/// The majority-vote accuracy over k-NN rows.
pub(crate) fn knn_vote_accuracy(
    rows: &[Vec<(f64, usize)>],
    test_labels: &[Label],
    train_labels: &[Label],
) -> f64 {
    let mut neighbours: Vec<usize> = Vec::new();
    let correct = rows
        .iter()
        .zip(test_labels)
        .filter(|(row, &truth)| {
            neighbours.clear();
            neighbours.extend(row.iter().map(|&(_, j)| j));
            majority_vote(&neighbours, train_labels) == Some(truth)
        })
        .count();
    correct as f64 / rows.len().max(1) as f64
}

/// The label-count and empty-train checks of the matrix entry points.
pub(crate) fn check_shapes(
    rows: usize,
    cols: usize,
    test_labels: &[Label],
    train_labels: &[Label],
) -> Result<(), EvalError> {
    if rows != test_labels.len() {
        return Err(EvalError::ShapeMismatch {
            what: "row/label count",
            expected: rows,
            got: test_labels.len(),
        });
    }
    if cols != train_labels.len() {
        return Err(EvalError::ShapeMismatch {
            what: "col/label count",
            expected: cols,
            got: train_labels.len(),
        });
    }
    if cols == 0 {
        return Err(EvalError::EmptyTrainSet);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::distance_matrix;
    use crate::nn::{one_nn_accuracy, try_loocv_accuracy};
    use crate::request::Eval;
    use tsdist_core::elastic::{Dtw, Msm};
    use tsdist_core::lockstep::{Canberra, Euclidean, SquaredEuclidean};
    use tsdist_data::Dataset;
    use tsdist_linalg::Matrix;

    fn toy(n: usize, m: usize, off: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| ((i * m + j) as f64 * 0.7).sin() + off)
                    .collect()
            })
            .collect()
    }

    fn labels(n: usize) -> Vec<Label> {
        (0..n).map(|i| i % 3).collect()
    }

    /// LOOCV accuracy from scan rows: an all-non-finite row predicts
    /// nothing and counts as incorrect.
    fn loocv_accuracy_of(nns: &[NearestNeighbour], train_labels: &[Label]) -> f64 {
        let correct = nns
            .iter()
            .zip(train_labels)
            .filter(|(nn, &truth)| nn.index.map(|j| train_labels[j]) == Some(truth))
            .count();
        correct as f64 / nns.len() as f64
    }

    fn prepared_index(d: &dyn Distance, train: &[Vec<f64>]) -> TrainIndex {
        let mut ix = TrainIndex::build(train);
        ix.prepare_measure(d, train);
        ix
    }

    /// Well-separated clusters: candidates from foreign clusters sit far
    /// outside each other's envelopes, so the bound tiers have something
    /// to prune.
    fn clustered(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let off = (i % 4) as f64 * 4.0;
                (0..m).map(|j| ((i + j) as f64 * 0.7).sin() + off).collect()
            })
            .collect()
    }

    #[test]
    fn one_nn_matches_matrix_path() {
        let train = toy(12, 40, 0.0);
        let test = toy(9, 40, 0.25);
        let (trl, tel) = (labels(12), labels(9));
        let d = Dtw::with_window_pct(10.0);
        let e = distance_matrix(&d, &test, &train);
        let exact = one_nn_accuracy(&e, &tel, &trl);
        for warm in [false, true] {
            let nns = pruned_nn_search(&d, &test, &train, warm);
            let pruned = one_nn_vote_accuracy(&nns, &tel, &trl);
            assert_eq!(pruned.to_bits(), exact.to_bits(), "warm_start={warm}");
        }
    }

    #[test]
    fn nn_indices_break_ties_to_first() {
        // Two identical training series: index 0 must win under any
        // candidate order, exactly like Algorithm 1's strict `<`.
        let s = vec![1.0, 2.0, 3.0, 4.0];
        let train = vec![s.clone(), s.clone()];
        let test = vec![s.clone()];
        let nns = pruned_nn_search(&Euclidean, &test, &train, true);
        assert_eq!(nns[0].index, Some(0));
        assert_eq!(nns[0].distance, 0.0);
    }

    #[test]
    fn loocv_matches_full_matrix_path() {
        let train = toy(14, 32, 0.0);
        let trl = labels(14);
        let d = Msm::new(0.5);
        // Full (non-mirrored) matrix: every cell computed directly.
        let w = Matrix::from_fn(14, 14, |i, j| d.distance(&train[i], &train[j]));
        let exact = try_loocv_accuracy(&w, &trl).unwrap();
        for warm in [false, true] {
            let pruned = loocv_accuracy_of(&pruned_loocv_search(&d, &train, warm), &trl);
            assert_eq!(pruned.to_bits(), exact.to_bits(), "warm_start={warm}");
        }
    }

    #[test]
    fn knn_matches_matrix_path() {
        let train = toy(15, 28, 0.0);
        let test = toy(8, 28, 0.4);
        let (trl, tel) = (labels(15), labels(8));
        let d = Dtw::with_window_pct(10.0);
        let e = distance_matrix(&d, &test, &train);
        for k in [1, 3, 5, 99] {
            let exact = crate::knn::knn_accuracy(&e, &tel, &trl, k);
            for warm in [false, true] {
                let rows = pruned_knn_search(&d, &test, &train, k, warm);
                let pruned = knn_vote_accuracy(&rows, &tel, &trl);
                assert_eq!(pruned.to_bits(), exact.to_bits(), "k={k} warm={warm}");
            }
        }
    }

    #[test]
    fn non_finite_candidates_never_win_and_are_reported() {
        struct Poison;
        impl Distance for Poison {
            fn name(&self) -> String {
                "poison".into()
            }
            fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
                if y[0] < 0.0 {
                    f64::NAN
                } else {
                    Euclidean.distance(x, y)
                }
            }
        }
        let train = vec![vec![-1.0, 0.0], vec![5.0, 5.0]];
        let test = vec![vec![5.0, 5.0]];
        let nns = pruned_nn_search(&Poison, &test, &train, false);
        assert_eq!(nns[0].index, Some(1));
        assert_eq!(nns[0].non_finite, Some(0));
    }

    #[test]
    fn all_non_finite_rows_predict_like_algorithm_1() {
        struct AlwaysNan;
        impl Distance for AlwaysNan {
            fn name(&self) -> String {
                "nan".into()
            }
            fn distance(&self, _: &[f64], _: &[f64]) -> f64 {
                f64::NAN
            }
        }
        let train = toy(3, 4, 0.0);
        let test = toy(2, 4, 0.0);
        // Algorithm 1 falls back to the first training label.
        let nns = pruned_nn_search(&AlwaysNan, &test, &train, false);
        let acc = one_nn_vote_accuracy(&nns, &[0, 1], &labels(3));
        let e = distance_matrix(&AlwaysNan, &test, &train);
        let exact = one_nn_accuracy(&e, &[0, 1], &labels(3));
        assert_eq!(acc.to_bits(), exact.to_bits());
        // LOOCV predicts None instead: nothing is correct.
        let loocv = pruned_loocv_search(&AlwaysNan, &train, true);
        assert_eq!(loocv_accuracy_of(&loocv, &labels(3)), 0.0);
    }

    #[test]
    fn typed_errors_mirror_the_matrix_entry_points() {
        let split = |train: Vec<Vec<f64>>, train_labels, test_labels| Dataset {
            name: "typed".into(),
            train,
            train_labels,
            test: Vec::new(),
            test_labels,
        };
        let mismatched = split(toy(3, 4, 0.0), labels(3), vec![0]);
        let empty = split(Vec::new(), Vec::new(), Vec::new());
        let scan = |ds, k| {
            Eval::new(&Euclidean)
                .on(ds)
                .pruned(true)
                .k(k)
                .assume_prepared(true)
                .run()
        };
        for k in [1, 3] {
            assert!(matches!(
                scan(&mismatched, k),
                Err(EvalError::ShapeMismatch { .. })
            ));
            assert!(matches!(scan(&empty, k), Err(EvalError::EmptyTrainSet)));
        }
        assert!(matches!(scan(&mismatched, 0), Err(EvalError::ZeroK)));
    }

    #[test]
    fn hoisted_cheap_scores_are_bit_identical() {
        let train = toy(7, 33, 0.0);
        let query = toy(1, 33, 0.9).remove(0);
        let cache = EnvelopeCache::build(&train);
        let (mut qs, mut scores) = (Vec::new(), Vec::new());
        assert!(cache.cheap_scores(&query, &mut qs, &mut scores));
        for (j, t) in train.iter().enumerate() {
            assert_eq!(scores[j].to_bits(), cheap_score(&query, t).to_bits());
        }
        // A query of a different length has different sample positions:
        // the table must refuse, forcing the exact fallback.
        assert!(!cache.cheap_scores(&query[..10], &mut qs, &mut scores));
    }

    #[test]
    fn cached_candidate_order_reproduces_uncached_results() {
        let train = toy(12, 40, 0.0);
        let test = toy(9, 40, 0.25);
        let d = Dtw::with_window_pct(10.0);
        let cache = EnvelopeCache::build(&train);
        assert_eq!(cache.len(), train.len());
        for warm in [false, true] {
            let plain = Search::new(&d, &train, warm);
            let cached = Search {
                cache: Some(&cache),
                ..plain
            };
            assert_eq!(plain.nn(&test), cached.nn(&test));
            assert_eq!(plain.knn(&test, 3), cached.knn(&test, 3));
        }
    }

    #[test]
    fn knn_search_rows_match_matrix_selection() {
        let train = toy(10, 24, 0.0);
        let test = toy(4, 24, 0.3);
        let d = Msm::new(0.5);
        let e = distance_matrix(&d, &test, &train);
        let rows = pruned_knn_search(&d, &test, &train, 3, true);
        for (i, row) in rows.iter().enumerate() {
            // The matrix-backed selection order: (total_cmp, index).
            let mut idx: Vec<usize> = (0..train.len()).collect();
            idx.sort_unstable_by(|&a, &b| e[(i, a)].total_cmp(&e[(i, b)]).then(a.cmp(&b)));
            let expect: Vec<(f64, usize)> = idx[..3].iter().map(|&j| (e[(i, j)], j)).collect();
            assert_eq!(row, &expect, "row {i}");
        }
    }

    #[test]
    fn single_series_loocv_is_zero() {
        let train = toy(1, 4, 0.0);
        let nns = pruned_loocv_search(&Euclidean, &train, true);
        assert_eq!(loocv_accuracy_of(&nns, &[0]), 0.0);
    }

    #[test]
    fn cascade_matches_pruned_and_actually_skips() {
        let train = clustered(24, 64);
        let test = clustered(10, 64);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for warm in [false, true] {
            let exact = pruned_nn_search(&d, &test, &train, warm);
            let (got, stats) = indexed_nn_search_stats(&d, &test, &train, &ix, warm);
            assert_eq!(got, exact, "warm={warm}");
            assert_eq!(stats.fallback_rows, 0);
            assert!(
                stats.examined < stats.candidates,
                "no candidate skipped: {stats:?}"
            );
        }
    }

    #[test]
    fn pivots_match_pruned_for_metric_measures() {
        let train = toy(20, 32, 0.0);
        let test = toy(8, 32, 0.5);
        let ix = prepared_index(&Euclidean, &train);
        let exact = pruned_nn_search(&Euclidean, &test, &train, true);
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, true);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 0);
        assert!(stats.pivot_skipped > 0, "pivot tier never fired: {stats:?}");
    }

    #[test]
    fn unindexable_measures_fall_back_to_linear_rows() {
        let train = toy(10, 16, 0.0);
        let test = toy(4, 16, 0.2);
        let ix = prepared_index(&SquaredEuclidean, &train);
        let exact = pruned_nn_search(&SquaredEuclidean, &test, &train, true);
        let (got, stats) = indexed_nn_search_stats(&SquaredEuclidean, &test, &train, &ix, true);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, stats.rows);
        assert_eq!(stats.examined, stats.candidates);
    }

    #[test]
    fn mismatched_index_never_prunes() {
        let train = toy(12, 16, 0.0);
        let other = toy(5, 16, 0.0);
        let test = toy(3, 16, 0.2);
        let ix = prepared_index(&Euclidean, &other);
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, true);
        assert_eq!(got, pruned_nn_search(&Euclidean, &test, &train, true));
        assert_eq!(stats.fallback_rows, stats.rows);
    }

    #[test]
    fn knn_rows_match_pruned_rows() {
        let train = toy(18, 48, 0.0);
        let test = toy(7, 48, 0.4);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for k in [1, 3, 5, 99] {
            for warm in [false, true] {
                let exact = pruned_knn_search(&d, &test, &train, k, warm);
                let got = indexed_knn_search(&d, &test, &train, &ix, k, warm);
                assert_eq!(got, exact, "k={k} warm={warm}");
            }
        }
    }

    #[test]
    fn loocv_matches_pruned_including_self_exclusion() {
        let train = toy(16, 40, 0.0);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for warm in [false, true] {
            assert_eq!(
                indexed_loocv_search(&d, &train, &ix, warm),
                pruned_loocv_search(&d, &train, warm),
                "warm={warm}"
            );
        }
        // Pivot plans must also honour the self-exclusion.
        let ix = prepared_index(&Euclidean, &train);
        assert_eq!(
            indexed_loocv_search(&Euclidean, &train, &ix, true),
            pruned_loocv_search(&Euclidean, &train, true),
        );
    }

    #[test]
    fn positive_regime_queries_fall_back_per_row() {
        // Positive train data with one non-positive query: that row (and
        // only that row) must take the linear plan.
        let train: Vec<Vec<f64>> = toy(10, 16, 2.0);
        let mut test = toy(3, 16, 2.0);
        test[1][4] = 0.0;
        let ix = prepared_index(&Canberra, &train);
        assert_eq!(ix.stats().pivot_tables, 1);
        let exact = pruned_nn_search(&Canberra, &test, &train, false);
        let (got, stats) = indexed_nn_search_stats(&Canberra, &test, &train, &ix, false);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 1);
    }

    #[test]
    fn examined_fraction_is_well_defined_when_empty() {
        assert_eq!(IndexedStats::default().examined_fraction(), 0.0);
    }
}
