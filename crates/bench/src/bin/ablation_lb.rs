//! Ablation: DTW lower-bound pruning rates per distortion archetype
//! (the Section 10 remark that elastic runtimes improve substantially
//! with lower bounding).
//!
//! Each dataset's DTW(δ=10) 1-NN search runs through the index cascade
//! (LB_PAA → LB_Keogh → early-abandoning DTW); "pruned" is the share of
//! candidates the two bound tiers skipped before any DTW ran. Rows run
//! without warm start, so each row is independent and the counts do not
//! depend on how many worker threads split the rows.

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::Dtw;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_eval::{indexed_nn_search_stats, parallel_map, prepare, IndexedStats};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let dtw = Dtw::with_window_pct(10.0);

    let stats: Vec<(String, f64, IndexedStats)> = parallel_map(archive.len(), |i| {
        let ds = prepare(&archive[i], Normalization::ZScore);
        let mut ix = TrainIndex::build(&ds.train);
        ix.prepare_measure(&dtw, &ds.train);
        let (nns, stats) = indexed_nn_search_stats(&dtw, &ds.test, &ds.train, &ix, false);
        // Algorithm 1's prediction rule: an all-non-finite row keeps the
        // first training label.
        let correct = nns
            .iter()
            .zip(&ds.test_labels)
            .filter(|(nn, &truth)| {
                nn.index.map_or(ds.train_labels[0], |j| ds.train_labels[j]) == truth
            })
            .count();
        let accuracy = correct as f64 / ds.test.len().max(1) as f64;
        (archive[i].name.clone(), accuracy, stats)
    });

    let mut out = String::from(
        "## Ablation: LB_PAA + LB_Keogh cascade pruning in exact DTW(δ=10) 1-NN search \
         (pruned = 1 - examined fraction)\n",
    );
    out.push_str(&format!(
        "{:<28} {:>10} {:>8}\n",
        "dataset", "pruned", "acc"
    ));
    let mut total_pruned = 0.0;
    for (name, accuracy, s) in &stats {
        let pruned = 1.0 - s.examined_fraction();
        out.push_str(&format!(
            "{:<28} {:>9.1}% {:>8.4}\n",
            name,
            pruned * 100.0,
            accuracy
        ));
        total_pruned += pruned;
    }
    out.push_str(&format!(
        "average pruned: {:.1}% of DTW computations avoided (accuracy identical to exact search by construction)\n",
        100.0 * total_pruned / stats.len() as f64
    ));
    cfg.save("ablation_lb.txt", &out);
}
