//! Every scan plan answers exactly like the matrix path.
//!
//! The served measure mix — ED, DTW(δ=10) and Lorentzian — is answered
//! three ways: from the materialized test-by-train matrix
//! (`Eval` with `pruned(false)`), by the index-free scan (every row on
//! the linear plan), and by the indexed scan (DTW rows on the LB_PAA →
//! LB_Keogh cascade, the declared metrics ED and Lorentzian on pivot
//! bounds). For 1-NN, 3-NN and leave-one-out 1-NN the three must agree
//! bit for bit, and the bounded plans must actually skip candidates, so
//! a broken plan fails here.

use tsdist_core::elastic::Dtw;
use tsdist_core::lockstep::{Euclidean, Lorentzian, SquaredEuclidean};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::Dataset;
use tsdist_eval::{
    distance_matrix, indexed_knn_search_stats, indexed_loocv_search, indexed_nn_search_stats,
    prepare, pruned_knn_search, pruned_loocv_search, pruned_nn_search, Answer, Eval,
    NearestNeighbour,
};

/// One sine at 32 phase steps around the cycle (train) and 12 queries
/// between steps, visited out of phase order, with a little
/// deterministic noise. Neighbours grow apart gradually, so every bound
/// tier skips candidates whose true distance is still close to the
/// cutoff, and a warm start seeds each row with a wrong incumbent — an
/// inadmissible skip then changes an answer.
fn dataset() -> Dataset {
    let series = |step: f64, seed: usize| -> Vec<f64> {
        (0..48)
            .map(|t| {
                let mut z = ((seed * 48 + t) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 29;
                z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 32;
                let noise = (z % 1024) as f64 / 1024.0 - 0.5;
                (t as f64 * 0.25 + 0.2 * step).sin() + 0.05 * noise
            })
            .collect()
    };
    let steps: Vec<usize> = (0..12).map(|i| (i * 7) % 32).collect();
    Dataset {
        name: "scan-plans".into(),
        train: (0..32).map(|p| series(p as f64, p)).collect(),
        train_labels: (0..32).map(|p| p / 8).collect(),
        test: steps
            .iter()
            .enumerate()
            .map(|(i, &p)| series(p as f64 + 0.5, 32 + i))
            .collect(),
        test_labels: steps.iter().map(|&p| p / 8).collect(),
    }
}

/// The serve-scan measure mix.
fn measures() -> Vec<(&'static str, Box<dyn Distance>)> {
    vec![
        ("ED", Box::new(Euclidean)),
        ("DTW(10)", Box::new(Dtw::with_window_pct(10.0))),
        ("Lorentzian", Box::new(Lorentzian)),
    ]
}

fn index_for(d: &dyn Distance, train: &[Vec<f64>]) -> TrainIndex {
    let mut ix = TrainIndex::build(train);
    ix.prepare_measure(d, train);
    ix
}

fn assert_answers_identical(what: &str, got: &[Answer], want: &[Answer]) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (row, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.index, b.index, "{what} row {row}: index");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{what} row {row}: distance"
        );
        assert_eq!(a.neighbours, b.neighbours, "{what} row {row}: neighbours");
        assert_eq!(a.label, b.label, "{what} row {row}: label");
    }
}

fn assert_rows_identical(what: &str, got: &[NearestNeighbour], want: &[NearestNeighbour]) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (row, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.index, b.index, "{what} row {row}: index");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{what} row {row}: distance"
        );
    }
}

#[test]
fn query_answers_are_identical_across_matrix_linear_and_indexed_scans() {
    let ds = dataset();
    let prepared = prepare(&ds, Normalization::ZScore);
    for (name, d) in measures() {
        let d = d.as_ref();
        let ix = index_for(d, &prepared.train);
        for k in [1, 3] {
            let answers = |pruned: bool, index: Option<&TrainIndex>| {
                let mut eval = Eval::new(d).on(&ds).queries(&ds.test).k(k).pruned(pruned);
                if let Some(ix) = index {
                    eval = eval.indexed(ix);
                }
                eval.run().expect("query evaluation").answers
            };
            let matrix = answers(false, None);
            assert_answers_identical(
                &format!("{name} k={k} linear"),
                &answers(true, None),
                &matrix,
            );
            // An index takes precedence over `pruned(false)`.
            assert_answers_identical(
                &format!("{name} k={k} indexed"),
                &answers(false, Some(&ix)),
                &matrix,
            );
        }
    }
}

#[test]
fn search_rows_are_identical_and_bounded_plans_skip() {
    let ds = prepare(&dataset(), Normalization::ZScore);
    let (test, train) = (&ds.test, &ds.train);
    for (name, d) in measures() {
        let d = d.as_ref();
        let ix = index_for(d, train);
        let e = distance_matrix(d, test, train);
        for warm in [false, true] {
            // k = 1: Algorithm 1's strict-`<` argmin over each matrix row.
            let matrix: Vec<NearestNeighbour> = (0..e.rows())
                .map(|i| {
                    let mut nn = NearestNeighbour {
                        distance: f64::INFINITY,
                        ..NearestNeighbour::default()
                    };
                    for (j, &v) in e.row(i).iter().enumerate() {
                        if v < nn.distance {
                            nn.distance = v;
                            nn.index = Some(j);
                        }
                    }
                    nn
                })
                .collect();
            let linear = pruned_nn_search(d, test, train, warm);
            let (indexed, stats) = indexed_nn_search_stats(d, test, train, &ix, warm);
            assert_rows_identical(&format!("{name} 1-NN linear"), &linear, &matrix);
            assert_rows_identical(&format!("{name} 1-NN indexed"), &indexed, &matrix);
            assert_eq!(stats.fallback_rows, 0, "{name}: a row fell back to linear");
            assert!(
                stats.examined < stats.candidates,
                "{name}: the bounded plan skipped nothing: {stats:?}"
            );

            // k = 3: the `(total_cmp, index)` selection of each matrix row.
            let linear = pruned_knn_search(d, test, train, 3, warm);
            let (indexed, stats) = indexed_knn_search_stats(d, test, train, &ix, 3, warm);
            for i in 0..e.rows() {
                let row = e.row(i);
                let mut order: Vec<usize> = (0..row.len()).collect();
                order.sort_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
                let want: Vec<(u64, usize)> =
                    order[..3].iter().map(|&j| (row[j].to_bits(), j)).collect();
                let bits = |r: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    r.iter().map(|&(v, j)| (v.to_bits(), j)).collect()
                };
                assert_eq!(bits(&linear[i]), want, "{name} 3-NN linear row {i}");
                assert_eq!(bits(&indexed[i]), want, "{name} 3-NN indexed row {i}");
            }
            assert!(
                stats.examined < stats.candidates,
                "{name}: the bounded 3-NN plan skipped nothing: {stats:?}"
            );
        }
    }
}

#[test]
fn loocv_rows_are_identical_across_matrix_linear_and_indexed_scans() {
    let ds = prepare(&dataset(), Normalization::ZScore);
    let train = &ds.train;
    for (name, d) in measures() {
        let d = d.as_ref();
        let ix = index_for(d, train);
        // Full (non-mirrored) train-by-train matrix, self excluded.
        let w = distance_matrix(d, train, train);
        let matrix: Vec<NearestNeighbour> = (0..w.rows())
            .map(|i| {
                let mut nn = NearestNeighbour {
                    distance: f64::INFINITY,
                    ..NearestNeighbour::default()
                };
                for (j, &v) in w.row(i).iter().enumerate() {
                    if j != i && v < nn.distance {
                        nn.distance = v;
                        nn.index = Some(j);
                    }
                }
                nn
            })
            .collect();
        for warm in [false, true] {
            let linear = pruned_loocv_search(d, train, warm);
            let indexed = indexed_loocv_search(d, train, &ix, warm);
            assert_rows_identical(&format!("{name} LOOCV linear"), &linear, &matrix);
            assert_rows_identical(&format!("{name} LOOCV indexed"), &indexed, &matrix);
        }
    }
}

#[test]
fn unindexable_measures_take_the_linear_plan_and_still_agree() {
    let ds = prepare(&dataset(), Normalization::ZScore);
    let ix = index_for(&SquaredEuclidean, &ds.train);
    let (indexed, stats) =
        indexed_nn_search_stats(&SquaredEuclidean, &ds.test, &ds.train, &ix, true);
    let linear = pruned_nn_search(&SquaredEuclidean, &ds.test, &ds.train, true);
    assert_rows_identical("SquaredED indexed", &indexed, &linear);
    assert_eq!(stats.fallback_rows, stats.rows);
    assert_eq!(stats.examined, stats.candidates);
}
