//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <study|serve-scan|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <seeds, e.g. 0-40,9973>
//! ```
//!
//! Run from the repository root. Prints one provenance line, then the
//! result line: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits non-zero, without a result line, when the run is invalid.

mod clock;
mod load;
mod metrics;
mod provenance;
mod serve;
mod stats;
mod study;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{result_line, Metrics};
use serve::{Sequencer, Served};
use stats::median;
use trace::Tracer;
use workloads::Workload;

/// Scratch output (journals, span dumps), relative to the working
/// directory; removed journals aside, only the span dumps stay.
const OUT_DIR: &str = ".bench_out";
const REFERENCE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/reference/study_accuracies.tsv"
);
/// Minimum repetitions of a timed pass; the median is reported.
const MIN_REPEATS: usize = 3;
/// Reconciliation tolerance of the traced `study` run: the traced cells'
/// summed time and the untraced runner's must agree within a factor of
/// 1.25 ([`agreement`] at least 0.8), or the run is invalid.
const STUDY_RECONCILE_MIN: f64 = 0.8;

/// How closely two positive times agree: the smaller over the larger, so
/// 1 is exact agreement and the value does not depend on the order.
fn agreement(a: f64, b: f64) -> f64 {
    a.min(b) / a.max(b)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <study|serve-scan|serve-hot> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      perfbench --write-reference <seeds, e.g. 0-40,9973>"
    );
    std::process::exit(2)
}

/// Parses a seed list such as `0-40,9973`.
fn parse_seeds(text: &str) -> Option<Vec<u64>> {
    let mut seeds = Vec::new();
    for part in text.split(',') {
        match part.split_once('-') {
            Some((a, b)) => seeds.extend(a.parse::<u64>().ok()?..=b.parse::<u64>().ok()?),
            None => seeds.push(part.parse().ok()?),
        }
    }
    Some(seeds)
}

fn parse_args() -> Result<Args, Vec<u64>> {
    let mut workload = None;
    let mut seed = provenance::DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    let num = |v: Option<String>, what: &str| -> u64 {
        v.and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{what} needs a non-negative integer")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let name = args.next().unwrap_or_default();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = num(args.next(), "--seed"),
            "--seconds" => seconds = num(args.next(), "--seconds").max(1),
            "--trace" => trace = num(args.next(), "--trace") != 0,
            "--write-reference" => {
                return Err(args
                    .next()
                    .and_then(|t| parse_seeds(&t))
                    .unwrap_or_else(|| usage("--write-reference needs a seed list")));
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Running totals of operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn fail(&mut self, failed: usize, note: String) {
        self.failed += failed;
        eprintln!("perfbench: {note}");
        self.notes.push(note);
    }
}

/// Repeats `f` until `budget_s` wall seconds have passed and at least
/// [`MIN_REPEATS`] runs were made; returns every run's CPU seconds and
/// result.
fn repeat_timed<T>(budget_s: f64, mut f: impl FnMut() -> T) -> (Vec<f64>, Vec<T>) {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut outs = Vec::new();
    while secs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < budget_s {
        let t0 = clock::Reading::now();
        outs.push(f());
        secs.push(t0.elapsed().cpu_s);
    }
    (secs, outs)
}

fn reference_text() -> String {
    std::fs::read_to_string(REFERENCE).unwrap_or_default()
}

/// Checks the study outcomes of an untraced run: every repetition equals
/// the first bit for bit, no cell failed, and the accuracies match the
/// recorded reference (or, for a seed the file does not cover, the
/// independent composition of the traced pass).
fn check_study(
    outcomes: &[study::StudyOutcome],
    archive: &[tsdist_data::Dataset],
    seed: u64,
    tally: &mut Tally,
) {
    let first = &outcomes[0];
    for (i, o) in outcomes.iter().enumerate() {
        tally.add(o.cells, o.cells_failed);
        if o.cells_failed > 0 {
            eprintln!(
                "perfbench: study pass {i}: {} cell(s) failed",
                o.cells_failed
            );
        }
        let bad = study::mismatched_cells(&o.columns, &first.columns);
        if bad > 0 || o.tables != first.tables {
            tally.fail(
                bad.max(1),
                format!("study pass {i} differs from pass 0 in {bad} cell(s)"),
            );
        }
    }
    let (want, source) = match study::reference_for(&reference_text(), seed) {
        Some(r) => (r, "reference file"),
        None => {
            let (o, _) = study::run_traced(archive, seed, &Tracer::new(false));
            (o.columns, "independent composition")
        }
    };
    let bad = study::mismatched_cells(&first.columns, &want);
    if bad > 0 {
        tally.fail(bad, format!("{bad} study cell(s) differ from the {source}"));
    }
}

fn run(args: &Args) -> Result<(bool, Tally, Metrics), String> {
    let run_clock = clock::Reading::now();
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tag = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let tracer = Tracer::new(args.trace);
    let spec = args.workload.serve_spec(args.seed);
    let seconds = args.seconds as f64;
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    let (served, setup_s) = serve::repeated_set_up(&spec, &out_dir, &tag, &tracer)?;
    let pool = workloads::request_pool(&spec, &served.datasets, args.seed);
    let addr = served.handle.addr();

    // The offline pass: the study slice on `study`, the pool's reference
    // answers on the serve workloads.
    let is_study = args.workload == Workload::Study;
    let offline_budget = if is_study {
        0.5 * seconds
    } else {
        0.1 * seconds
    };
    let serve_seconds = seconds - offline_budget;
    let mut expected = None;
    let (offline_secs, study_outcomes) = if args.trace {
        (Vec::new(), Vec::new())
    } else if is_study {
        let (secs, outs) = repeat_timed(offline_budget, || study::run(&served.datasets, args.seed));
        (secs, outs)
    } else {
        let (secs, mut outs) = repeat_timed(offline_budget, || {
            serve::offline_answers(&served.datasets, &pool)
        });
        let first = outs.swap_remove(0);
        let differ = outs.iter().filter(|o| **o != first).count();
        if differ > 0 {
            tally.fail(
                differ,
                format!("{differ} offline pass(es) differ from the first"),
            );
        }
        expected = Some(first);
        (secs, Vec::new())
    };
    if !study_outcomes.is_empty() {
        check_study(&study_outcomes, &served.datasets, args.seed, &mut tally);
    }
    // Where the offline pass above gave no pool answers (traced runs and
    // `study`), they are computed here once; a traced serve-* run reports
    // this pass's wall time as `study_wall_s`.
    let mut offline_wall_s = 0.0;
    let expected = match expected {
        Some(e) => e,
        None => {
            let t0 = Instant::now();
            let e = serve::offline_answers(&served.datasets, &pool);
            offline_wall_s = t0.elapsed().as_secs_f64();
            e
        }
    };
    // Peak memory of the program's work: set-up and the offline pass.
    // Sampled before any load is generated, because the load generator's
    // per-request samples grow with the answer rate, and a faster server
    // would then read as one that uses more memory.
    let peak_rss_mb = provenance::peak_rss_mb();
    let stream = serve::stream(&spec, &pool, expected, args.seed);
    let (attempted, failed) = serve::burn_in(&spec, &served, 0.05 * serve_seconds)?;
    tally.add(attempted, failed);
    let mut seq = Sequencer {
        addr,
        stream: &stream,
        seed: args.seed,
        offset: 0,
        phases: 0,
    };

    if args.trace {
        trace_run(
            args,
            &spec,
            &served,
            &pool,
            &mut seq,
            serve_seconds,
            offline_wall_s,
            &tracer,
            &mut m,
            &mut tally,
        )?;
    } else {
        let o = serve::measure(&spec, &mut seq, serve_seconds)?;
        tally.add(o.attempted, o.failed);
        m.set("setup_s", setup_s, "s");
        m.set("study_s", median(&offline_secs), "s");
        m.set("capacity_qps", o.capacity_qps, "1/s");
    }
    let restarts = serve::restarts(addr)?;
    if restarts > 0 {
        tally.fail(restarts as usize, format!("{restarts} shard restart(s)"));
    }
    Served::tear_down(served);
    if args.trace {
        m.set(
            "host.steal_frac",
            run_clock.elapsed().steal_frac(clock::cpus()),
            "ratio",
        );
        m.set(
            "fail_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        trace::write_json(&path, &tracer.snapshot())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        m.set("peak_rss_mb", peak_rss_mb, "MB");
    }
    let correct = tally.failed == 0;
    Ok((correct, tally, m))
}

#[allow(clippy::too_many_arguments)]
fn trace_run(
    args: &Args,
    spec: &workloads::ServeSpec,
    served: &Served,
    pool: &[tsdist_serve::QueryRequest],
    seq: &mut Sequencer,
    serve_seconds: f64,
    offline_wall_s: f64,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let spans = tracer.snapshot();
    let generate: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "data.generate")
        .map(|s| s.end - s.start)
        .collect();
    m.set("data.generate_s", median(&generate), "s");

    // Study layers: an untraced pass, then the traced composition.
    let archive = &served.datasets;
    let (mut counters, mut study_overhead, mut reconcile) =
        (study::StudyCounters::default(), 0.0, 0.0);
    // `study_s` on the wall clock: the untraced study passes on `study`,
    // the offline reference-answer pass on serve-*.
    let mut study_wall_s = offline_wall_s;
    let (mut runner_cells, mut runner_failed) = (0usize, 0usize);
    if args.workload == Workload::Study {
        // Untraced, traced, untraced: the traced pass is compared with the
        // mean of the two around it, so a drift of the host's speed cancels.
        let timed = || {
            let t0 = Instant::now();
            let o = study::run(archive, args.seed);
            (o, t0.elapsed().as_secs_f64())
        };
        let (plain, before_s) = timed();
        let t1 = Instant::now();
        let (traced, c) = study::run_traced(archive, args.seed, tracer);
        let traced_s = t1.elapsed().as_secs_f64();
        let (after, after_s) = timed();
        counters = c;
        runner_cells = plain.cells;
        runner_failed = plain.cells_failed;
        for o in [&plain, &after] {
            tally.add(o.cells, o.cells_failed);
        }
        let bad = study::mismatched_cells(&traced.columns, &plain.columns)
            + usize::from(traced.tables != plain.tables);
        if bad > 0 {
            tally.fail(
                bad,
                format!("traced study pass differs from the runner in {bad} cell(s)"),
            );
        }
        let bad = study::mismatched_cells(&after.columns, &plain.columns);
        if bad > 0 {
            tally.fail(
                bad,
                format!("second untraced study pass differs from the first in {bad} cell(s)"),
            );
        }
        if let Some(want) = study::reference_for(&reference_text(), args.seed) {
            let bad = study::mismatched_cells(&traced.columns, &want);
            if bad > 0 {
                tally.fail(
                    bad,
                    format!("traced study pass differs from the reference file in {bad} cell(s)"),
                );
            }
        }
        study_wall_s = 0.5 * (before_s + after_s);
        study_overhead = traced_s / study_wall_s - 1.0;
        // Cell spans tile each cell, so their summed durations equal the
        // summed self times of every layer inside the cells; they must
        // agree with the untraced runner's summed cell time.
        reconcile = agreement(
            traced.cell_seconds,
            0.5 * (plain.cell_seconds + after.cell_seconds),
        );
        if reconcile < STUDY_RECONCILE_MIN {
            return Err(format!(
                "traced study cells and untraced runner cells agree only to {reconcile:.3} \
                 (tolerance {STUDY_RECONCILE_MIN})"
            ));
        }
    }
    let selfs = trace::self_times(&tracer.snapshot());
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let matrices_s: f64 = ["lockstep", "sliding", "elastic", "kernel", "embedding"]
        .iter()
        .map(|f| {
            let s = self_of(&format!("eval.matrices.{f}"));
            m.set(&format!("eval.matrices_s.{f}"), s, "s");
            s
        })
        .sum();
    m.set("eval.matrices_cells", counters.matrix_cells as f64, "count");
    m.set(
        "eval.matrices_cells_per_s",
        if matrices_s > 0.0 {
            counters.matrix_cells as f64 / matrices_s
        } else {
            0.0
        },
        "1/s",
    );
    m.set("eval.loocv_s", self_of("eval.loocv"), "s");
    m.set("eval.grid_points", counters.grid_points as f64, "count");
    m.set("eval.classify_s", self_of("eval.classify"), "s");
    m.set("linalg.embed_s", self_of("linalg.embed"), "s");
    m.set("stats.rank_s", self_of("stats.rank"), "s");
    m.set("eval.runner.cells", runner_cells as f64, "count");
    m.set("eval.runner.cells_failed", runner_failed as f64, "count");
    m.set("eval.runner.cell_self_s", self_of("eval.runner.cell"), "s");
    m.set("study.reconcile_frac", reconcile, "ratio");
    m.set("study_wall_s", study_wall_s, "s");

    // Serve layers (the replay adds its own prepare spans).
    let (attempted, failed, serve_overhead) =
        serve::trace(spec, served, pool, seq, serve_seconds, tracer, m)?;
    tally.add(attempted, failed);
    let prepare: Vec<f64> = tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "eval.prepare")
        .map(|s| s.end - s.start)
        .collect();
    m.set(
        "eval.prepare_s",
        prepare.iter().fold(0.0, |a, b| a + b),
        "s",
    );
    m.set("eval.prepare_calls", prepare.len() as f64, "count");
    m.set(
        "trace.overhead_frac",
        if args.workload == Workload::Study {
            study_overhead
        } else {
            serve_overhead
        },
        "ratio",
    );
    Ok(())
}

fn write_reference(seeds: &[u64]) -> Result<(), String> {
    let mut text = String::from(
        "# Study-slice test accuracies of the seed code, per workload seed:\n\
         # seed \\t column \\t dataset index \\t f64 bits (hex). Written by\n\
         # `perfbench --write-reference <seeds>`.\n",
    );
    for &seed in seeds {
        let archive = workloads::generate(&workloads::study_archive(seed));
        let outcome = study::run(&archive, seed);
        if outcome.cells_failed > 0 {
            return Err(format!(
                "seed {seed}: {} cell(s) failed",
                outcome.cells_failed
            ));
        }
        text.push_str(&study::render_reference(seed, &outcome));
        eprintln!("perfbench: reference seed {seed} done");
    }
    let path = Path::new(REFERENCE);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| e.to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(seeds) => {
            if let Err(e) = write_reference(&seeds) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
    };
    let repeats = format!(
        "setup x{} (median, CPU s); offline pass >= {MIN_REPEATS} (median, CPU s); {} closed-loop bursts (median, answers per CPU s); traced: slo_qps binary search",
        serve::SETUP_REPEATS,
        serve::BURSTS
    );
    println!(
        "{}",
        provenance::line(
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            &repeats
        )
    );
    match run(&args) {
        Ok((correct, tally, m)) => {
            let bad = m.non_finite();
            if !bad.is_empty() {
                eprintln!("perfbench: non-finite metric(s): {}", bad.join(", "));
                std::process::exit(1);
            }
            if !tally.notes.is_empty() {
                eprintln!("perfbench: {} check(s) failed", tally.notes.len());
            }
            println!(
                "{}",
                result_line(correct, tally.attempted.max(1), tally.failed, &m)
            );
        }
        Err(e) => {
            eprintln!("perfbench: invalid run: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_symmetric_and_at_most_one() {
        assert_eq!(agreement(2.0, 2.0), 1.0);
        assert_eq!(agreement(1.0, 1.25), agreement(1.25, 1.0));
        assert_eq!(agreement(1.0, 1.25), STUDY_RECONCILE_MIN);
    }
}
