//! The `study` slice: one entrant per Table 1 category on the
//! `ArchiveConfig::standard` archive, then Wilcoxon against ED and
//! Friedman/Nemenyi over every column.
//!
//! [`run`] goes through the same `tsdist_bench` column helpers and
//! `tsdist_eval` cell entry points the table binaries call. [`run_traced`]
//! composes the same cells itself — prepare → matrices → LOOCV →
//! classify — with a span around each call, and must reproduce [`run`]'s
//! accuracies bit for bit.

use tsdist_bench::{
    ranking_matrix, reduce_columns, robust_column, robust_distance_column, robust_kernel_column,
    robust_kernel_supervised_column, robust_supervised_column, RobustColumn,
};
use tsdist_core::elastic::Msm;
use tsdist_core::embedding::{Embedding, Grail};
use tsdist_core::kernel::{Rbf, Sink};
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::measure::{Distance, Kernel};
use tsdist_core::normalization::Normalization;
use tsdist_core::params::{self, EMBEDDING_DIMS};
use tsdist_core::registry::elastic_families;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_data::Dataset;
use tsdist_eval::{
    compare_to_baseline, distance_matrix, embedding_matrices, kernel_matrices, parallel_map,
    prepare, rank_measures, symmetric_distance_matrix, try_evaluate_embedding, try_loocv_accuracy,
    try_one_nn_accuracy, CellRunner, RunnerConfig,
};
use tsdist_linalg::Matrix;

use crate::trace::{SpanId, Tracer};

/// The Table 1 category a column belongs to (names its matrix span).
#[derive(Debug, Clone, Copy)]
enum Family {
    Lockstep,
    Sliding,
    Elastic,
}

impl Family {
    fn span(self) -> &'static str {
        match self {
            Family::Lockstep => "eval.matrices.lockstep",
            Family::Sliding => "eval.matrices.sliding",
            Family::Elastic => "eval.matrices.elastic",
        }
    }
}

enum Entrant {
    Distance(Box<dyn Distance>, Normalization, Family),
    DistanceGrid(Vec<Box<dyn Distance>>, Normalization, Family),
    Kernel(Box<dyn Kernel>),
    KernelGrid(Vec<Box<dyn Kernel>>),
    /// GRAIL at a fixed γ, sized the way Table 7 sizes it.
    Grail,
}

/// The baseline every column is compared with (Wilcoxon).
pub const BASELINE: &str = "ED (z-score)";

fn slice() -> Vec<(&'static str, Entrant)> {
    use Family::*;
    use Normalization::{MinMax, ZScore};
    let dtw_grid = elastic_families()
        .into_iter()
        .find(|f| f.family == "DTW")
        .expect("DTW family is registered")
        .grid;
    let rbf_grid = params::rbf_gammas()
        .into_iter()
        .map(|g| Box::new(Rbf::new(g)) as Box<dyn Kernel>)
        .collect();
    vec![
        (
            BASELINE,
            Entrant::Distance(Box::new(Euclidean), ZScore, Lockstep),
        ),
        (
            "ED (min-max)",
            Entrant::Distance(Box::new(Euclidean), MinMax, Lockstep),
        ),
        (
            "Lorentzian (z-score)",
            Entrant::Distance(Box::new(Lorentzian), ZScore, Lockstep),
        ),
        (
            "Lorentzian (min-max)",
            Entrant::Distance(Box::new(Lorentzian), MinMax, Lockstep),
        ),
        (
            "NCC_c",
            Entrant::Distance(Box::new(CrossCorrelation::sbd()), ZScore, Sliding),
        ),
        (
            "DTW [LOOCV]",
            Entrant::DistanceGrid(dtw_grid, ZScore, Elastic),
        ),
        (
            "MSM(c=0.5)",
            Entrant::Distance(
                Box::new(Msm::new(params::unsupervised::MSM_COST)),
                ZScore,
                Elastic,
            ),
        ),
        (
            "SINK(γ=5)",
            Entrant::Kernel(Box::new(Sink::new(params::unsupervised::SINK_GAMMA))),
        ),
        ("RBF [LOOCCV]", Entrant::KernelGrid(rbf_grid)),
        ("GRAIL(γ=5)", Entrant::Grail),
    ]
}

/// GRAIL with SINK's unsupervised γ; representation length and
/// landmarks as Table 7 and the registry choose them.
fn grail(archive: &[Dataset], seed: u64) -> Grail {
    let min_train = archive
        .iter()
        .map(|d| d.n_train())
        .min()
        .unwrap_or(EMBEDDING_DIMS);
    let dims = EMBEDDING_DIMS.min(min_train);
    Grail::new(params::unsupervised::SINK_GAMMA, dims.max(4), dims, seed)
}

/// What one pass of the slice produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutcome {
    /// `(column, per-dataset test accuracy)` in slice order.
    pub columns: Vec<(String, Vec<f64>)>,
    pub cells: usize,
    pub cells_failed: usize,
    /// Wall seconds of every cell, summed.
    pub cell_seconds: f64,
    /// The Wilcoxon table against the baseline and the Friedman/Nemenyi
    /// ranking, rendered (a pure function of the accuracies).
    pub tables: String,
}

fn rank(columns: &[(String, Vec<f64>)]) -> String {
    let baseline = &columns[0].1;
    let mut tables = String::new();
    for (name, accs) in &columns[1..] {
        let row = compare_to_baseline(name.clone(), accs, baseline);
        tables.push_str(&format!(
            "{name}: better {} equal {} worse {} p {:?}\n",
            row.better, row.equal, row.worse, row.p_value
        ));
    }
    let (names, matrix) = ranking_matrix(columns);
    tables.push_str(&rank_measures(&names, &matrix).render("study slice"));
    tables
}

/// The slice through the table binaries' column helpers.
pub fn run(archive: &[Dataset], seed: u64) -> StudyOutcome {
    let runner = CellRunner::new(RunnerConfig::named("perfbench-study"));
    let columns: Vec<RobustColumn> = slice()
        .into_iter()
        .map(|(label, entrant)| match entrant {
            Entrant::Distance(d, norm, _) => {
                robust_distance_column(&runner, archive, label, d.as_ref(), norm)
            }
            Entrant::DistanceGrid(grid, norm, _) => {
                robust_supervised_column(&runner, archive, label, &grid, norm)
            }
            Entrant::Kernel(k) => robust_kernel_column(&runner, archive, label, k.as_ref()),
            Entrant::KernelGrid(grid) => {
                robust_kernel_supervised_column(&runner, archive, label, &grid)
            }
            Entrant::Grail => {
                let emb = grail(archive, seed);
                robust_column(&runner, archive, label, |ds, flag| {
                    try_evaluate_embedding(&emb, ds, flag)
                })
            }
        })
        .collect();
    let cells: usize = columns.iter().map(|(_, c)| c.len()).sum();
    let cell_seconds = columns.iter().flat_map(|(_, c)| c).map(|c| c.seconds).sum();
    let cells_failed = columns
        .iter()
        .flat_map(|(_, c)| c)
        .filter(|c| !c.outcome.is_ok())
        .count();
    let reduced = reduce_columns(archive, &columns);
    let tables = rank(&reduced.columns);
    StudyOutcome {
        columns: reduced.columns,
        cells,
        cells_failed,
        cell_seconds,
        tables,
    }
}

/// Work counters of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct StudyCounters {
    pub prepare_calls: u64,
    /// Pairwise values computed (a symmetric matrix computes its upper
    /// triangle with the diagonal).
    pub matrix_cells: u64,
    pub grid_points: u64,
}

fn square_cells(n: usize, symmetric: bool) -> u64 {
    let n = n as u64;
    if symmetric {
        n * (n + 1) / 2
    } else {
        n * n
    }
}

/// The same cells composed directly from each layer's public functions,
/// one span per call, parallel over datasets like the column helpers
/// (the matrices themselves stay row-parallel).
pub fn run_traced(
    archive: &[Dataset],
    seed: u64,
    tracer: &Tracer,
) -> (StudyOutcome, StudyCounters) {
    let mut n = StudyCounters::default();
    let root = tracer.open("study", SpanId::ROOT, 0);
    let mut columns = Vec::new();
    let mut cell_seconds = 0.0;
    for (col, (label, entrant)) in slice().into_iter().enumerate() {
        let cells = parallel_map(archive.len(), |di| {
            let id = (col * 1000 + di) as u64;
            let t0 = std::time::Instant::now();
            let cell = tracer.open("eval.runner.cell", root, id);
            let mut counters = StudyCounters::default();
            let acc = traced_cell(
                &entrant,
                archive,
                &archive[di],
                seed,
                tracer,
                cell,
                id,
                &mut counters,
            );
            tracer.close(cell);
            (acc, counters, t0.elapsed().as_secs_f64())
        });
        let mut accs = Vec::with_capacity(archive.len());
        for (acc, c, secs) in cells {
            n.prepare_calls += c.prepare_calls;
            n.matrix_cells += c.matrix_cells;
            n.grid_points += c.grid_points;
            cell_seconds += secs;
            accs.push(acc);
        }
        columns.push((label.to_string(), accs));
    }
    let tables = tracer.span("stats.rank", root, 0, |_| rank(&columns));
    tracer.close(root);
    let cells = columns.len() * archive.len();
    (
        StudyOutcome {
            columns,
            cells,
            cells_failed: 0,
            cell_seconds,
            tables,
        },
        n,
    )
}

#[allow(clippy::too_many_arguments)]
fn traced_cell(
    entrant: &Entrant,
    archive: &[Dataset],
    ds: &Dataset,
    seed: u64,
    tracer: &Tracer,
    cell: SpanId,
    id: u64,
    n: &mut StudyCounters,
) -> f64 {
    let norm = match entrant {
        Entrant::Distance(_, norm, _) | Entrant::DistanceGrid(_, norm, _) => *norm,
        _ => Normalization::ZScore,
    };
    n.prepare_calls += 1;
    let p = tracer.span("eval.prepare", cell, id, |_| prepare(ds, norm));
    let (ntr, nte) = (p.train.len(), p.test.len());
    let classify = |e: &Matrix| {
        tracer.span("eval.classify", cell, id, |_| {
            try_one_nn_accuracy(e, &p.test_labels, &p.train_labels).expect("classify")
        })
    };
    let loocv = |w: &Matrix, n: &mut StudyCounters| {
        n.grid_points += 1;
        tracer.span("eval.loocv", cell, id, |_| {
            try_loocv_accuracy(w, &p.train_labels).expect("loocv")
        })
    };
    match entrant {
        Entrant::Distance(d, _, family) => {
            n.matrix_cells += (nte * ntr) as u64;
            let e = tracer.span(family.span(), cell, id, |_| {
                distance_matrix(d.as_ref(), &p.test, &p.train)
            });
            classify(&e)
        }
        Entrant::DistanceGrid(grid, _, family) => {
            let mut best = (0, f64::NEG_INFINITY);
            for (i, d) in grid.iter().enumerate() {
                n.matrix_cells += square_cells(ntr, d.is_symmetric());
                let w = tracer.span(family.span(), cell, id, |_| {
                    symmetric_distance_matrix(d.as_ref(), &p.train)
                });
                let acc = loocv(&w, n);
                if acc > best.1 {
                    best = (i, acc);
                }
            }
            n.matrix_cells += (nte * ntr) as u64;
            let d = grid[best.0].as_ref();
            let e = tracer.span(family.span(), cell, id, |_| {
                distance_matrix(d, &p.test, &p.train)
            });
            classify(&e)
        }
        Entrant::Kernel(k) => {
            n.matrix_cells += square_cells(ntr, k.is_symmetric()) + (nte * ntr) as u64;
            let (_, e) = tracer.span("eval.matrices.kernel", cell, id, |_| {
                kernel_matrices(k.as_ref(), &p.train, &p.test)
            });
            classify(&e)
        }
        Entrant::KernelGrid(grid) => {
            let mut best = (f64::NEG_INFINITY, None);
            for k in grid {
                n.matrix_cells += square_cells(ntr, k.is_symmetric()) + (nte * ntr) as u64;
                let (w, e) = tracer.span("eval.matrices.kernel", cell, id, |_| {
                    kernel_matrices(k.as_ref(), &p.train, &p.test)
                });
                let acc = loocv(&w, n);
                if acc > best.0 {
                    best = (acc, Some(e));
                }
            }
            classify(&best.1.expect("non-empty grid"))
        }
        Entrant::Grail => {
            let mut all = p.train.clone();
            all.extend(p.test.iter().cloned());
            let emb = grail(archive, seed);
            let z = tracer.span("linalg.embed", cell, id, |_| emb.embed(&all, ntr));
            n.matrix_cells += (ntr * ntr + nte * ntr) as u64;
            let (_, e) = tracer.span("eval.matrices.embedding", cell, id, |_| {
                embedding_matrices(&z, ntr)
            });
            classify(&e)
        }
    }
}

/// Reference accuracies: `seed \t column \t dataset \t f64 bits (hex)`.
pub fn render_reference(seed: u64, outcome: &StudyOutcome) -> String {
    let mut out = String::new();
    for (name, accs) in &outcome.columns {
        for (di, a) in accs.iter().enumerate() {
            out.push_str(&format!("{seed}\t{name}\t{di}\t{:016x}\n", a.to_bits()));
        }
    }
    out
}

/// The reference accuracies recorded for `seed`, if the file covers it.
pub fn reference_for(text: &str, seed: u64) -> Option<Vec<(String, Vec<f64>)>> {
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 4 || f[0].parse::<u64>().ok() != Some(seed) {
            continue;
        }
        let bits = u64::from_str_radix(f[3], 16).ok()?;
        match columns.last_mut() {
            Some((name, accs)) if name == f[1] => accs.push(f64::from_bits(bits)),
            _ => columns.push((f[1].to_string(), vec![f64::from_bits(bits)])),
        }
    }
    (!columns.is_empty()).then_some(columns)
}

/// Cells whose accuracy differs in bits between two outcomes (a missing
/// column or dataset counts every cell it lacks).
pub fn mismatched_cells(got: &[(String, Vec<f64>)], want: &[(String, Vec<f64>)]) -> usize {
    let mut bad = 0;
    for (name, w) in want {
        match got.iter().find(|(n, _)| n == name) {
            Some((_, g)) => {
                bad += w.len().abs_diff(g.len());
                bad += g
                    .iter()
                    .zip(w)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
            }
            None => bad += w.len(),
        }
    }
    bad + got
        .iter()
        .filter(|(n, _)| !want.iter().any(|(m, _)| m == n))
        .map(|(_, g)| g.len())
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips() {
        let outcome = StudyOutcome {
            columns: vec![
                ("A".into(), vec![0.5, 0.25]),
                ("B (x)".into(), vec![1.0, 0.1]),
            ],
            cells: 4,
            cells_failed: 0,
            cell_seconds: 0.0,
            tables: String::new(),
        };
        let text = format!(
            "# header\n{}{}",
            render_reference(3, &outcome),
            render_reference(4, &outcome)
        );
        let back = reference_for(&text, 3).expect("seed 3 recorded");
        assert_eq!(back, outcome.columns);
        assert_eq!(mismatched_cells(&back, &outcome.columns), 0);
        assert!(reference_for(&text, 5).is_none());
        let mut off = outcome.columns.clone();
        off[1].1[1] = f64::from_bits(0.1f64.to_bits() + 1);
        assert_eq!(mismatched_cells(&off, &outcome.columns), 1);
    }
}
