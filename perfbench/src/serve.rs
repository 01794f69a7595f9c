//! The served part of every workload: set-up, the offline reference
//! pass, the measured phases, and the traced replay.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::Dataset;
use tsdist_eval::journal::{DurableConfig, DurableJournal};
use tsdist_eval::{
    indexed_knn_search_stats, indexed_nn_search_stats, parallel_map, prepare, Answer, Eval,
    IndexedStats,
};
use tsdist_serve::protocol::norm_tag;
use tsdist_serve::{
    parse_request, render_query, CacheKey, Client, Engine, QueryRequest, Request, Response, Server,
    ServerConfig, ServerHandle,
};

use crate::clock;
use crate::load::{run_phase, Mode, Phase, PhaseResult, Stream};
use crate::metrics::Metrics;
use crate::stats::{median, percentile, samples_needed, windowed_percentile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, generate, ServeSpec};

/// Client connections and threads: one per core, as the load comes from
/// this one process.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(1, 2)
}

/// Requests a connection may hold in flight. With two connections this
/// keeps every shard queue (default capacity 64) below its limit, so the
/// server never has to shed load as `queue_full`.
pub const INFLIGHT_CAP: usize = 24;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// The server configuration every workload uses: the defaults (2 shards,
/// queue 64, batch 16, cache 256, index on), plus the journal when the
/// workload asks for it.
pub fn server_config(spec: &ServeSpec, journal: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        journal_path: journal.filter(|_| spec.journal),
        ..ServerConfig::default()
    }
}

/// A started, warmed server and the inputs it serves.
pub struct Served {
    pub datasets: Vec<Dataset>,
    pub handle: ServerHandle,
    pub journal_dir: PathBuf,
}

/// Generates the archive, starts the server, and forces the lazy
/// per-(dataset, normalization, measure) prepare and index build with
/// warm-up queries from the train splits. Returns the server and the
/// CPU seconds this took.
pub fn set_up(
    spec: &ServeSpec,
    out_dir: &Path,
    tag: &str,
    tracer: &Tracer,
) -> Result<(Served, f64), String> {
    let t0 = clock::Reading::now();
    let datasets = tracer.span("data.generate", SpanId::ROOT, 0, |_| {
        generate(&spec.archive)
    });
    let journal_dir = out_dir.join(format!("journal-{tag}"));
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let config = server_config(spec, Some(journal_dir.join("requests")));
    let handle = tracer
        .span("serve.server.start", SpanId::ROOT, 0, |_| {
            Server::start(datasets.clone(), workloads::resolver(), &config)
        })
        .map_err(|e| format!("server start: {e}"))?;
    let warmups = workloads::warmup_requests(spec, &datasets);
    tracer.span("serve.warmup", SpanId::ROOT, 0, |_| {
        warm_up(handle.addr(), &warmups)
    })?;
    let secs = t0.elapsed().cpu_s;
    Ok((
        Served {
            datasets,
            handle,
            journal_dir,
        },
        secs,
    ))
}

fn warm_up(addr: SocketAddr, warmups: &[QueryRequest]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for q in warmups {
        match client.query(q).map_err(|e| e.to_string())? {
            Response::Answer { id, .. } if id == q.id => {}
            other => return Err(format!("warm-up request {} failed: {other:?}", q.id)),
        }
    }
    Ok(())
}

impl Served {
    /// Stops the server and removes its journal.
    pub fn tear_down(self) {
        drop(self.handle);
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

/// The offline answer of every pool entry, each from its own query-mode
/// `Eval` call (the path `bench_serve` checks against).
pub fn offline_answers(datasets: &[Dataset], pool: &[QueryRequest]) -> Vec<Answer> {
    parallel_map(pool.len(), |i| {
        let q = &pool[i];
        let ds = datasets
            .iter()
            .find(|d| d.name == q.dataset)
            .expect("pool dataset is generated");
        let measure = workloads::resolve(&q.measure).expect("pool measure resolves");
        Eval::new(measure.as_ref())
            .on(ds)
            .queries(std::slice::from_ref(&q.series))
            .normalized(q.norm)
            .k(q.k)
            .pruned(q.pruned)
            .run()
            .expect("offline evaluation")
            .answers
            .remove(0)
    })
}

pub fn stream(spec: &ServeSpec, pool: &[QueryRequest], expected: Vec<Answer>, seed: u64) -> Stream {
    Stream {
        lines: pool.iter().map(workloads::split_line).collect(),
        expected,
        order: workloads::request_order(spec, seed, 1 << 20),
    }
}

/// An untimed closed loop of the warm-up requests (train-split series,
/// never part of the measured stream) before the measured phases, so
/// threads, allocator and caches below the answer cache are warm.
pub fn burn_in(spec: &ServeSpec, served: &Served, secs: f64) -> Result<(usize, usize), String> {
    let warmups = workloads::warmup_requests(spec, &served.datasets);
    let expected = offline_answers(&served.datasets, &warmups);
    let warm = Stream {
        lines: warmups.iter().map(workloads::split_line).collect(),
        expected,
        order: (0..warmups.len()).collect(),
    };
    let mut seq = Sequencer {
        addr: served.handle.addr(),
        stream: &warm,
        seed: 0,
        offset: 0,
        phases: 0,
    };
    let r = seq.run(
        Mode::Closed {
            window: spec.window,
        },
        secs,
        None,
    )?;
    Ok((r.attempted, r.failed))
}

/// End-to-end figures of the measured phases.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    pub capacity_qps: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Closed-loop bursts per run; `capacity_qps` is their median.
pub const BURSTS: usize = 9;

/// Correct answers per CPU-second of this process in a closed-loop
/// phase: the server's and the load generator's work per answer, whatever
/// share of the vCPUs the host gave the process meanwhile.
pub fn cpu_qps(r: &PhaseResult) -> f64 {
    r.latencies_ms.len() as f64 / r.usage.cpu_s.max(1e-9)
}

/// `capacity_qps`: the median of [`BURSTS`] closed-loop bursts, each
/// charged on the process's CPU time.
pub fn measure(
    spec: &ServeSpec,
    seq: &mut Sequencer,
    seconds: f64,
) -> Result<ServeOutcome, String> {
    let mut out = ServeOutcome::default();
    let mut qps = Vec::with_capacity(BURSTS);
    for _ in 0..BURSTS {
        let r = seq.run(
            Mode::Closed {
                window: spec.window,
            },
            seconds / BURSTS as f64,
            None,
        )?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        qps.push(cpu_qps(&r));
    }
    out.capacity_qps = median(&qps);
    Ok(out)
}

/// Share of the traced serve time for each `slo_qps` probe (a probe also
/// runs until it has 1000 replies) and for the closed-loop bursts that
/// place its ladder.
const PROBE_SHARE: f64 = 0.04;
const LADDER_SHARE: f64 = 0.08;
/// Closed-loop bursts before the first `slo_qps` probe; the ladder is
/// placed on the fastest of them.
const LADDER_BURSTS: usize = 2;
/// Probes of the `slo_qps` binary search; they resolve
/// `2^SLO_PROBES - 1` rungs exactly.
const SLO_PROBES: usize = 5;
/// The `slo_qps` ladder spans these multiples of the run's own
/// closed-loop wall-clock rate, so the metric has room above the seed
/// code and a slower program still finds passing rungs.
const LADDER_LOW: f64 = 0.25;
const LADDER_HIGH: f64 = 1.3;

/// The `slo_qps` ladder: `2^SLO_PROBES - 1` rates, geometric from
/// [`LADDER_LOW`] to [`LADDER_HIGH`] times `capacity` (5.7% apart).
pub fn slo_ladder(capacity: f64) -> Vec<f64> {
    let rungs = (1usize << SLO_PROBES) - 1;
    let step = (LADDER_HIGH / LADDER_LOW).powf(1.0 / (rungs - 1) as f64);
    (0..rungs)
        .map(|i| capacity * LADDER_LOW * step.powi(i as i32))
        .collect()
}

/// Wall-clock figures of the traced run: open-loop rates are wall-clock
/// rates, so they have no CPU-time form.
#[derive(Debug, Default)]
pub struct WallOutcome {
    pub capacity_wall_qps: f64,
    pub slo_qps: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// `slo_qps`: a binary search over a ladder placed on the faster of
/// [`LADDER_BURSTS`] closed-loop bursts, for the highest rate at which
/// the windowed p99 stays within the workload's limit with a flat
/// backlog. Also the wall-clock rate of those bursts.
pub fn slo_search(
    spec: &ServeSpec,
    seq: &mut Sequencer,
    seconds: f64,
) -> Result<WallOutcome, String> {
    let mut out = WallOutcome::default();
    let mut qps = Vec::with_capacity(LADDER_BURSTS);
    for _ in 0..LADDER_BURSTS {
        let r = seq.run(
            Mode::Closed {
                window: spec.window,
            },
            LADDER_SHARE * seconds / LADDER_BURSTS as f64,
            None,
        )?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        qps.push(r.achieved_qps);
    }
    out.capacity_wall_qps = median(&qps);
    let ladder = slo_ladder(qps.iter().copied().fold(0.0, f64::max));
    let (mut lo, mut hi) = (None::<f64>, ladder.len());
    let mut first = 0;
    for _ in 0..SLO_PROBES {
        if first >= hi {
            break;
        }
        let mid = first + (hi - first) / 2;
        // A rung fails only when two probes in a row miss the limit, so a
        // single stall of the shared host does not sink it.
        let mut met = None;
        for _ in 0..2 {
            let r = seq.run(
                Mode::Open { rate: ladder[mid] },
                PROBE_SHARE * seconds,
                None,
            )?;
            out.attempted += r.attempted;
            out.failed += r.failed;
            if meets_limit(&r, spec) {
                met = Some(r.achieved_qps);
                break;
            }
        }
        match met {
            Some(q) => {
                lo = Some(q);
                first = mid + 1;
            }
            None => hi = mid,
        }
    }
    out.slo_qps = lo.ok_or_else(|| {
        format!(
            "no probed rate met p99 <= {} ms, down to {:.0}/s ({LADDER_LOW} x closed-loop rate)",
            spec.slo_ms, ladder[0]
        )
    })?;
    Ok(out)
}

/// Share of the serve time for each fixed-rate phase of the traced run.
const RATE_SHARE: f64 = 0.15;

/// Sequences the phases so the stream continues where the last phase
/// stopped (a cycled pool then never revisits an entry the answer cache
/// could still hold).
pub struct Sequencer<'a> {
    pub addr: SocketAddr,
    pub stream: &'a Stream,
    pub seed: u64,
    pub offset: usize,
    pub phases: usize,
}

impl Sequencer<'_> {
    pub fn run(
        &mut self,
        mode: Mode,
        secs: f64,
        health: Option<Duration>,
    ) -> Result<PhaseResult, String> {
        let min_requests = match mode {
            Mode::Open { .. } => samples_needed(0.99),
            Mode::Closed { .. } => 0,
        };
        let phase = Phase {
            mode,
            duration: Duration::from_secs_f64(secs),
            min_requests,
            offset: self.offset,
            seed: self.seed.wrapping_add(self.phases as u64 * 7919),
            health_every: health,
        };
        let n = clients();
        let r = run_phase(self.addr, self.stream, &phase, n, INFLIGHT_CAP)
            .map_err(|e| format!("load generator: {e}"))?;
        self.offset += r.attempted + n;
        self.phases += 1;
        let pct = |v: &[f64], q: f64| percentile(v, q).map_or(f64::NAN, |p| p.value);
        eprintln!(
            "perfbench: phase {} {:?}: {} sent, {} failed, {:.0} answers/s, {:.0} answers/CPU-s, steal {:.2}, latency p50 {:.3} p99 {:.3} ms, late p99 {:.3} ms, backlog grew {}",
            self.phases,
            mode,
            r.attempted,
            r.failed,
            r.achieved_qps,
            cpu_qps(&r),
            r.usage.steal_frac(clock::cpus()),
            pct(&r.latencies_ms, 0.5),
            pct(&r.latencies_ms, 0.99),
            pct(&r.late_ms, 0.99),
            r.backlog_grew
        );
        Ok(r)
    }
}

/// How late (p99) the open-loop sender may run before a fixed-rate phase
/// is invalid. Generous on purpose: a shared 2-core host stalls the
/// sender for several ms at times, which is latency to report, not a
/// reason to discard the run.
const LATE_LIMIT_MS: f64 = 100.0;

/// A fixed-rate phase is valid when its backlog did not grow and the
/// sender kept to its schedule within [`LATE_LIMIT_MS`].
fn check_valid(rate: f64, r: &PhaseResult) -> Result<(), String> {
    let late = percentile(&r.late_ms, 0.99).map_or(f64::INFINITY, |p| p.value);
    if r.backlog_grew {
        return Err(format!("{rate}/s: backlog grew; the run is invalid"));
    }
    if late > LATE_LIMIT_MS {
        return Err(format!(
            "{rate}/s: sender ran {late:.2} ms late at p99 (limit {LATE_LIMIT_MS} ms); the run is invalid"
        ));
    }
    Ok(())
}

/// Whether an open-loop probe met the limit: no failures, windowed p99
/// within `slo_ms`, a flat backlog, and a sender at most `slo_ms` late.
fn meets_limit(r: &PhaseResult, spec: &ServeSpec) -> bool {
    let p99 = windowed_percentile(&r.latencies_ms, 0.99).map_or(f64::INFINITY, |p| p.value);
    let late = percentile(&r.late_ms, 0.99).map_or(f64::INFINITY, |p| p.value);
    r.failed == 0 && !r.backlog_grew && late <= spec.slo_ms && p99 <= spec.slo_ms
}

/// Supervisor restarts reported by `health`.
pub fn restarts(addr: SocketAddr) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    Ok(c.health(u64::MAX - 1)
        .map_err(|e| e.to_string())?
        .total_restarts())
}

/// FNV-1a, the server's dataset-to-shard routing hash (replicated so the
/// replay gives each shard the datasets, and so the cache, it has live).
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn span_total(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + (s.end - s.start))
}

/// What one in-process replay of the live request stream found.
#[derive(Default)]
struct Replay {
    failed: usize,
    records: u64,
    journal_bytes: u64,
    hits: u64,
    misses: u64,
    scan: IndexedStats,
    /// Summed `TrainIndex::stats` (series, DTW bands, pivot tables).
    index: (u64, u64, u64),
}

/// Replays the requests `sent` (pool entries in send order) in process,
/// through each layer's public functions: `parse_request`, the journal
/// when the workload has it on, per-shard `Engine::answer_batch` at the
/// server's `batch_max`, and `Response::render`. Then it times prepare
/// and the index build per (dataset, normalization, measure), and the
/// query-mode scan of each request's first occurrence. Every answer is
/// checked against the offline one. A disabled `tracer` gives the same
/// work without spans.
fn replay(
    spec: &ServeSpec,
    served: &Served,
    pool: &[QueryRequest],
    stream: &Stream,
    sent: &[usize],
    tracer: &Tracer,
    journal_dir: &Path,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let config = server_config(spec, None);
    let shards = config.shards.max(1);
    let route = |name: &str| (fnv1a(name) % shards as u64) as usize;
    let mut engines: Vec<Engine> = (0..shards)
        .map(|s| {
            let mine: Vec<Dataset> = served
                .datasets
                .iter()
                .filter(|d| route(&d.name) == s)
                .cloned()
                .collect();
            Engine::new(mine, workloads::resolver(), config.cache_cap)
        })
        .collect();
    let warmups = workloads::warmup_requests(spec, &served.datasets);
    for (s, engine) in engines.iter_mut().enumerate() {
        let mine: Vec<QueryRequest> = warmups
            .iter()
            .filter(|q| route(&q.dataset) == s)
            .cloned()
            .collect();
        engine.answer_batch(&mine);
    }
    let warm_stats: Vec<(u64, u64)> = engines.iter().map(Engine::cache_stats).collect();
    let journal = if spec.journal {
        let _ = std::fs::remove_dir_all(journal_dir);
        std::fs::create_dir_all(journal_dir).map_err(|e| e.to_string())?;
        Some(
            DurableJournal::open(journal_dir.join("requests"), DurableConfig::default())
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let mut batches: Vec<Vec<(QueryRequest, usize)>> = vec![Vec::new(); shards];
    let flush = |s: usize, batch: &mut Vec<(QueryRequest, usize)>, engine: &mut Engine| -> usize {
        let mut wrong = 0;
        let reqs: Vec<QueryRequest> = batch.iter().map(|(q, _)| q.clone()).collect();
        let responses = tracer.span("serve.engine.batch", SpanId::ROOT, s as u64, |_| {
            engine.answer_batch(&reqs)
        });
        for (r, (_, entry)) in responses.iter().zip(batch.iter()) {
            tracer.span("serve.protocol.render", SpanId::ROOT, *entry as u64, |_| {
                r.render()
            });
            let ok = matches!(r, Response::Answer { answer, .. }
                if *answer == stream.expected[*entry]
                    && answer.distance.to_bits() == stream.expected[*entry].distance.to_bits());
            if !ok {
                wrong += 1;
            }
        }
        batch.clear();
        wrong
    };
    for (i, &entry) in sent.iter().enumerate() {
        let (prefix, suffix) = &stream.lines[entry];
        let line = format!("{prefix}{}{suffix}", i + 1);
        let parsed = tracer.span("serve.protocol.parse", SpanId::ROOT, entry as u64, |_| {
            parse_request(&line)
        });
        let Ok(Request::Query(q)) = parsed else {
            out.failed += 1;
            continue;
        };
        if let Some(j) = &journal {
            let text = render_query(&q);
            tracer
                .span("serve.journal.append", SpanId::ROOT, entry as u64, |_| {
                    j.append_line(&text)
                })
                .map_err(|e| e.to_string())?;
            out.records += 1;
        }
        let s = route(&q.dataset);
        batches[s].push((q, entry));
        if batches[s].len() >= config.batch_max {
            out.failed += flush(s, &mut batches[s], &mut engines[s]);
        }
    }
    for (s, engine) in engines.iter_mut().enumerate() {
        if !batches[s].is_empty() {
            out.failed += flush(s, &mut batches[s], engine);
        }
    }
    drop(journal);
    out.journal_bytes = dir_bytes(journal_dir);
    for (e, (wh, wm)) in engines.iter().zip(&warm_stats) {
        let (h, mi) = e.cache_stats();
        out.hits += h - wh;
        out.misses += mi - wm;
    }

    // Prepare and index build, timed per (dataset, normalization) and
    // measure, as the shards do them lazily.
    let mut prepared: BTreeMap<(String, &'static str), (Dataset, TrainIndex)> = BTreeMap::new();
    let combos: BTreeMap<(String, &'static str, String), Normalization> = pool
        .iter()
        .map(|q| {
            (
                (q.dataset.clone(), norm_tag(q.norm), q.measure.clone()),
                q.norm,
            )
        })
        .collect();
    for ((name, tag, measure), norm) in &combos {
        let ds = served
            .datasets
            .iter()
            .find(|d| &d.name == name)
            .ok_or("pool dataset")?;
        let key = (name.clone(), *tag);
        if !prepared.contains_key(&key) {
            let p = tracer.span("eval.prepare", SpanId::ROOT, 0, |_| prepare(ds, *norm));
            let ix = tracer.span("core.index.build", SpanId::ROOT, 0, |_| {
                TrainIndex::build(&p.train)
            });
            prepared.insert(key.clone(), (p, ix));
        }
        let d = workloads::resolve(measure)?;
        let (p, ix) = prepared.get_mut(&key).ok_or("prepared entry")?;
        tracer.span("core.index.build", SpanId::ROOT, 0, |_| {
            ix.prepare_measure(d.as_ref(), &p.train)
        });
    }

    // The scan, on the first occurrence of each request (the answer-cache
    // misses of a cache that never evicts).
    let mut seen = BTreeSet::new();
    for &entry in sent {
        let q = &pool[entry];
        if !seen.insert(CacheKey::of(q)) {
            continue;
        }
        let (p, ix) = &prepared[&(q.dataset.clone(), norm_tag(q.norm))];
        let d = workloads::resolve(&q.measure)?;
        let queries = std::slice::from_ref(&q.series);
        let report = tracer.span("eval.scan", SpanId::ROOT, entry as u64, |_| {
            Eval::new(d.as_ref())
                .on(p)
                .queries(queries)
                .normalized(q.norm)
                .k(q.k)
                .pruned(q.pruned)
                .assume_prepared(true)
                .indexed(ix)
                .run()
        });
        if report
            .ok()
            .and_then(|r| r.answers.into_iter().next())
            .as_ref()
            != Some(&stream.expected[entry])
        {
            out.failed += 1;
        }
        if !q.pruned {
            tracer
                .span("eval.scan.exact", SpanId::ROOT, entry as u64, |_| {
                    Eval::new(d.as_ref())
                        .on(p)
                        .queries(queries)
                        .normalized(q.norm)
                        .k(q.k)
                        .assume_prepared(true)
                        .run()
                })
                .map_err(|e| e.to_string())?;
        }
        let qp = q.norm.apply(&Normalization::ZScore.apply(&q.series));
        let one = std::slice::from_ref(&qp);
        let s = if q.k == 1 {
            indexed_nn_search_stats(d.as_ref(), one, &p.train, ix, true).1
        } else {
            indexed_knn_search_stats(d.as_ref(), one, &p.train, ix, q.k, true).1
        };
        out.scan.rows += s.rows;
        out.scan.candidates += s.candidates;
        out.scan.examined += s.examined;
        out.scan.paa_skipped += s.paa_skipped;
        out.scan.keogh_skipped += s.keogh_skipped;
        out.scan.pivot_skipped += s.pivot_skipped;
        out.scan.fallback_rows += s.fallback_rows;
    }
    out.index = prepared.values().fold((0, 0, 0), |acc, (_, ix)| {
        let s = ix.stats();
        (
            acc.0 + s.series,
            acc.1 + s.dtw_bands,
            acc.2 + s.pivot_tables,
        )
    });
    Ok(out)
}

/// The traced serve run: a closed-loop burst and two fixed-rate phases
/// with `health` polling, the wall-clock `slo_qps` search, then
/// in-process replays of the low-rate phase's request stream through
/// each layer's public functions, one with spans between two without.
/// Returns operations attempted and failed, and the tracing overhead: the
/// traced replay's wall time over the mean of the untraced ones, minus 1.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    spec: &ServeSpec,
    served: &Served,
    pool: &[QueryRequest],
    seq: &mut Sequencer,
    seconds: f64,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(usize, usize, f64), String> {
    let stream = seq.stream;
    let mut attempted = 0;
    let mut failed = 0;

    // The server's per-request busy time, for the reconciliation below.
    let closed = seq.run(
        Mode::Closed {
            window: spec.window,
        },
        0.1 * seconds,
        Some(Duration::from_millis(20)),
    )?;
    // The live low-rate phase the replay reproduces.
    let live = seq.run(
        Mode::Open { rate: spec.low_qps },
        RATE_SHARE * seconds,
        Some(Duration::from_millis(20)),
    )?;
    // Latency at the two fixed rates, reported here rather than end to
    // end: on a shared 2-core host its run-to-run spread is wider than any
    // bound the benchmark may set (see README).
    let high = seq.run(
        Mode::Open {
            rate: spec.high_qps,
        },
        RATE_SHARE * seconds,
        Some(Duration::from_millis(20)),
    )?;
    for r in [&closed, &live, &high] {
        attempted += r.attempted;
        failed += r.failed;
    }
    let wall = slo_search(spec, seq, seconds)?;
    attempted += wall.attempted;
    failed += wall.failed;
    m.set("capacity_wall_qps", wall.capacity_wall_qps, "1/s");
    m.set("slo_qps", wall.slo_qps, "1/s");
    check_valid(spec.low_qps, &live)?;
    check_valid(spec.high_qps, &high)?;
    let pct = |r: &PhaseResult, q: f64| {
        windowed_percentile(&r.latencies_ms, q).map_or(f64::NAN, |p| p.value)
    };
    m.set("p50_ms.low", pct(&live, 0.5), "ms");
    m.set("p99_ms.low", pct(&live, 0.99), "ms");
    m.set("p50_ms.high", pct(&high, 0.5), "ms");
    m.set("p99_ms.high", pct(&high, 0.99), "ms");
    for &(entry, sent, arrived) in &live.timeline {
        tracer.record(
            "client.roundtrip",
            SpanId::ROOT,
            entry as u64,
            sent,
            arrived,
        );
    }
    let roundtrip_ms: Vec<f64> = live
        .timeline
        .iter()
        .map(|(_, s, a)| a.duration_since(*s).as_secs_f64() * 1e3)
        .collect();
    let mut sent: Vec<(Instant, usize)> = live.timeline.iter().map(|&(e, s, _)| (s, e)).collect();
    sent.sort();
    let sent: Vec<usize> = sent.into_iter().map(|(_, e)| e).collect();

    // Untraced, traced, untraced: the overhead compares the traced replay
    // with the mean of the two around it, so a drift of the host's speed
    // cancels.
    let untraced = Tracer::new(false);
    let replay_dir = served.journal_dir.join("replay");
    let timed_replay = |t: &Tracer| -> Result<(Replay, f64), String> {
        let t0 = Instant::now();
        let r = replay(spec, served, pool, stream, &sent, t, &replay_dir)?;
        Ok((r, t0.elapsed().as_secs_f64()))
    };
    let (before, before_s) = timed_replay(&untraced)?;
    let (traced, traced_s) = timed_replay(tracer)?;
    let (after, after_s) = timed_replay(&untraced)?;
    for r in [&before, &traced, &after] {
        attempted += sent.len();
        failed += r.failed;
    }
    set_replay_metrics(m, tracer, &traced);
    let overhead = traced_s / (0.5 * (before_s + after_s)) - 1.0;

    let parse_s = span_total(tracer, "serve.protocol.parse");
    let render_s = span_total(tracer, "serve.protocol.render");
    let batch_s = span_total(tracer, "serve.engine.batch");
    let append_s = span_total(tracer, "serve.journal.append");
    let n = sent.len().max(1) as f64;
    let replay_ms_per_request = (parse_s + render_s + batch_s + append_s) / n * 1e3;
    let unattributed =
        percentile(&roundtrip_ms, 0.5).map_or(f64::NAN, |p| p.value) - replay_ms_per_request;
    // The server's busy time per request in the closed loop, spread over
    // its shards, against what the replayed layers account for.
    let shards = server_config(spec, None).shards.max(1);
    let live_ms_per_request = shards as f64 / closed.achieved_qps * 1e3;
    let depths: Vec<f64> = closed
        .queue_depths
        .iter()
        .chain(&live.queue_depths)
        .chain(&high.queue_depths)
        .map(|&d| d as f64)
        .collect();

    m.set("serve.protocol.parse_s", parse_s, "s");
    m.set("serve.protocol.render_s", render_s, "s");
    m.set("serve.protocol.bytes_in", live.bytes_out as f64, "bytes");
    m.set("serve.protocol.bytes_out", live.bytes_in as f64, "bytes");
    m.set("serve.engine.batch_s", batch_s, "s");
    m.set("serve.journal.append_s", append_s, "s");
    m.set(
        "serve.server.queue_depth.max",
        depths.iter().copied().fold(0.0, f64::max),
        "count",
    );
    m.set(
        "serve.server.queue_depth.mean",
        depths.iter().sum::<f64>() / depths.len().max(1) as f64,
        "count",
    );
    m.set(
        "serve.supervisor.restarts",
        closed.restarts.max(live.restarts).max(high.restarts) as f64,
        "count",
    );
    m.set("serve.unattributed_ms.p50", unattributed, "ms");
    m.set(
        "serve.reconcile_frac",
        replay_ms_per_request / live_ms_per_request,
        "ratio",
    );
    m.set(
        "client.late_ms.p99",
        percentile(&live.late_ms, 0.99).map_or(f64::NAN, |p| p.value),
        "ms",
    );
    Ok((attempted, failed, overhead))
}

/// The counters of the traced replay.
fn set_replay_metrics(m: &mut Metrics, tracer: &Tracer, r: &Replay) {
    m.set(
        "core.index.build_s",
        span_total(tracer, "core.index.build"),
        "s",
    );
    m.set("core.index.series", r.index.0 as f64, "count");
    m.set("core.index.bands", r.index.1 as f64, "count");
    m.set("core.index.pivots", r.index.2 as f64, "count");
    m.set("eval.scan_s", span_total(tracer, "eval.scan"), "s");
    m.set(
        "eval.scan.exact_s",
        span_total(tracer, "eval.scan.exact"),
        "s",
    );
    m.set("eval.scan.candidates", r.scan.candidates as f64, "count");
    m.set("eval.scan.examined", r.scan.examined as f64, "count");
    m.set(
        "eval.scan.examined_frac",
        r.scan.examined_fraction(),
        "ratio",
    );
    m.set("eval.scan.paa_skipped", r.scan.paa_skipped as f64, "count");
    m.set(
        "eval.scan.keogh_skipped",
        r.scan.keogh_skipped as f64,
        "count",
    );
    m.set(
        "eval.scan.pivot_skipped",
        r.scan.pivot_skipped as f64,
        "count",
    );
    m.set(
        "eval.scan.fallback_rows",
        r.scan.fallback_rows as f64,
        "count",
    );
    m.set("serve.cache.hits", r.hits as f64, "count");
    m.set("serve.cache.misses", r.misses as f64, "count");
    m.set(
        "serve.cache.hit_ratio",
        r.hits as f64 / (r.hits + r.misses).max(1) as f64,
        "ratio",
    );
    m.set("serve.journal.records", r.records as f64, "count");
    m.set("serve.journal.bytes", r.journal_bytes as f64, "bytes");
}

/// Median set-up seconds over [`SETUP_REPEATS`] set-ups; the last
/// server stays up for the measured phases.
pub fn repeated_set_up(
    spec: &ServeSpec,
    out_dir: &Path,
    tag: &str,
    tracer: &Tracer,
) -> Result<(Served, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            Served::tear_down(prev);
        }
        let (served, s) = set_up(spec, out_dir, &format!("{tag}-{i}"), tracer)?;
        secs.push(s);
        last = Some(served);
    }
    Ok((last.ok_or("no set-up ran")?, median(&secs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_ladder_spans_the_capacity() {
        let ladder = slo_ladder(2000.0);
        assert_eq!(ladder.len(), (1 << SLO_PROBES) - 1);
        assert!((ladder[0] - LADDER_LOW * 2000.0).abs() < 1e-9);
        assert!((ladder[ladder.len() - 1] - LADDER_HIGH * 2000.0).abs() < 1e-6);
        assert!(ladder.windows(2).all(|w| w[1] / w[0] < 1.06 && w[1] > w[0]));
    }
}
