//! The load generator: one thread and one TCP connection per client,
//! against a server running in this process.
//!
//! Each client thread sends on its own schedule and reads replies on the
//! same thread (socket read timeouts wake it when the next request is
//! due), so `nproc` clients need `nproc` threads. Two modes:
//!
//! * closed loop — each connection keeps a fixed window of requests in
//!   flight, and latency runs from the send;
//! * open loop — Poisson arrivals at a fixed rate, fixed by the seed;
//!   latency runs from when a request was *due*, so a stall also charges
//!   the requests it delayed. A connection never holds more than
//!   `inflight_cap` requests in flight (the server's queues stay below
//!   capacity); due requests beyond that wait in the client and show as
//!   lateness and latency.
//!
//! Every reply is checked against the offline answer of its request:
//! value equality plus `distance.to_bits()`. A wrong answer, a typed
//! rejection, an unparseable line or a missing reply is a failure.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use tsdist_eval::Answer;
use tsdist_serve::{render_health, Response};

use crate::clock;
use crate::stats::Rng;

/// Requests of one workload, pre-rendered so the client threads only
/// splice in an id.
pub struct Stream {
    /// `(prefix, suffix)` of each pool entry's request line around its id.
    pub lines: Vec<(String, String)>,
    /// The offline answer of each pool entry.
    pub expected: Vec<Answer>,
    /// The order in which pool entries are requested (cycled).
    pub order: Vec<usize>,
}

impl Stream {
    /// The pool entry requested at stream position `pos`.
    pub fn entry_at(&self, pos: usize) -> usize {
        self.order[pos % self.order.len()]
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    Closed { window: usize },
    Open { rate: f64 },
}

#[derive(Debug, Clone)]
pub struct Phase {
    pub mode: Mode,
    /// Target length of the send schedule.
    pub duration: Duration,
    /// The schedule is stretched until it holds at least this many
    /// requests (open loop only).
    pub min_requests: usize,
    /// Stream position of the phase's first request.
    pub offset: usize,
    /// Seed of the arrival schedule.
    pub seed: u64,
    /// Poll `health` this often on the first connection (traced runs).
    pub health_every: Option<Duration>,
}

#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    pub attempted: usize,
    pub failed: usize,
    /// Latency of each correct answer, in ms, in reply order.
    pub latencies_ms: Vec<f64>,
    /// How late each send was against its due time, in ms (open loop).
    pub late_ms: Vec<f64>,
    /// Correct answers per second over the phase.
    pub achieved_qps: f64,
    pub elapsed_s: f64,
    /// Wall, process-CPU and steal seconds of the whole phase.
    pub usage: clock::Span,
    /// The open-loop backlog grew from the start to the end of the phase.
    pub backlog_grew: bool,
    /// Summed queue depth of every `health` reply (traced runs).
    pub queue_depths: Vec<usize>,
    /// Supervisor restarts in the last `health` reply.
    pub restarts: u64,
    /// Request bytes sent and reply bytes received.
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// `(pool entry, send instant, reply instant)` of each correct answer
    /// (kept for the traced run's span output).
    pub timeline: Vec<(usize, Instant, Instant)>,
}

impl PhaseResult {
    fn absorb(&mut self, o: PhaseResult) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latencies_ms.extend(o.latencies_ms);
        self.late_ms.extend(o.late_ms);
        self.backlog_grew |= o.backlog_grew;
        self.queue_depths.extend(o.queue_depths);
        self.restarts = self.restarts.max(o.restarts);
        self.bytes_out += o.bytes_out;
        self.bytes_in += o.bytes_in;
        self.timeline.extend(o.timeline);
    }
}

/// Grace period for replies after the last send before the remaining
/// requests count as timed out.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Ids of `health` probes live above this (request ids stay below).
const HEALTH_ID_BASE: u64 = 1 << 52;

/// Runs one phase from `clients` connections and merges their results.
pub fn run_phase(
    addr: SocketAddr,
    stream: &Stream,
    phase: &Phase,
    clients: usize,
    inflight_cap: usize,
) -> std::io::Result<PhaseResult> {
    let reading = clock::Reading::now();
    let started = Instant::now();
    let results: Vec<std::io::Result<PhaseResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    client_loop(addr, stream, phase, c, clients, inflight_cap, started)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(ErrorKind::Other.into())))
            .collect()
    });
    let usage = reading.elapsed();
    let mut total = PhaseResult {
        usage,
        ..PhaseResult::default()
    };
    let mut last_reply = started;
    for r in results {
        let r = r?;
        if let Some(&(_, _, t)) = r.timeline.iter().max_by_key(|(_, _, t)| *t) {
            last_reply = last_reply.max(t);
        }
        total.absorb(r);
    }
    total.elapsed_s = last_reply.duration_since(started).as_secs_f64().max(1e-9);
    total.achieved_qps = total.latencies_ms.len() as f64 / total.elapsed_s;
    // Put latencies in reply order across connections, so windows of
    // consecutive samples are windows of time.
    let mut ordered: Vec<(Instant, f64)> = total
        .timeline
        .iter()
        .map(|&(_, _, arrived)| arrived)
        .zip(total.latencies_ms.iter().copied())
        .collect();
    ordered.sort_by_key(|a| a.0);
    total.latencies_ms = ordered.into_iter().map(|(_, l)| l).collect();
    Ok(total)
}

/// Due times (offsets from the phase start) of one connection's share of
/// an open-loop phase: Poisson arrivals at `rate / clients`.
pub fn open_schedule(phase: &Phase, rate: f64, client: usize, clients: usize) -> Vec<Duration> {
    let total = ((rate * phase.duration.as_secs_f64()).ceil() as usize).max(phase.min_requests);
    let mine = total.div_ceil(clients);
    let mean_gap = clients as f64 / rate;
    let mut rng = Rng::new(phase.seed.wrapping_mul(31).wrapping_add(client as u64));
    let mut t = 0.0;
    (0..mine)
        .map(|_| {
            t += rng.exp(mean_gap);
            Duration::from_secs_f64(t)
        })
        .collect()
}

struct Pending {
    entry: usize,
    due: Instant,
    sent: Instant,
}

fn client_loop(
    addr: SocketAddr,
    stream: &Stream,
    phase: &Phase,
    client: usize,
    clients: usize,
    inflight_cap: usize,
    started: Instant,
) -> std::io::Result<PhaseResult> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut out = PhaseResult::default();

    // Due times: fixed per seed in open loop, "as soon as the window
    // allows" in closed loop.
    let (schedule, window, send_until) = match phase.mode {
        Mode::Open { rate } => (
            Some(open_schedule(phase, rate, client, clients)),
            inflight_cap,
            None,
        ),
        Mode::Closed { window } => (
            None,
            window.min(inflight_cap),
            Some(started + phase.duration),
        ),
    };
    let n_sends = schedule.as_ref().map_or(usize::MAX, Vec::len);

    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut next = 0usize;
    let mut received = 0usize;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut backlog: Vec<(f64, usize)> = Vec::new();
    let mut next_health = phase.health_every.map(|_| started);
    let mut health_seq = 0u64;
    let mut health_outstanding = 0usize;
    let mut line = String::new();

    loop {
        let now = Instant::now();
        // Send everything that is due and fits in the window.
        loop {
            if next >= n_sends || pending.len() >= window {
                break;
            }
            let due = match &schedule {
                Some(s) => started + s[next],
                None => {
                    if send_until.is_some_and(|end| now >= end) {
                        break;
                    }
                    now
                }
            };
            if due > now {
                break;
            }
            let pos = phase.offset + next * clients + client;
            let entry = stream.entry_at(pos);
            let id = (next * clients + client) as u64 + 1;
            let (prefix, suffix) = &stream.lines[entry];
            line.clear();
            line.push_str(prefix);
            line.push_str(&id.to_string());
            line.push_str(suffix);
            line.push('\n');
            conn.write_all(line.as_bytes())?;
            let sent = Instant::now();
            out.bytes_out += line.len() as u64;
            if schedule.is_some() {
                out.late_ms
                    .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            pending.insert(id, Pending { entry, due, sent });
            out.attempted += 1;
            next += 1;
        }
        if let Some(s) = &schedule {
            // Backlog: requests due so far that have no reply yet, sampled
            // at most once a millisecond.
            let elapsed = now.duration_since(started);
            if backlog
                .last()
                .is_none_or(|&(t, _)| elapsed.as_secs_f64() - t >= 1e-3)
            {
                let due_so_far = s.partition_point(|&d| d <= elapsed);
                backlog.push((elapsed.as_secs_f64(), due_so_far - received.min(due_so_far)));
            }
        }
        if let (Some(every), Some(at)) = (phase.health_every, next_health) {
            if client == 0 && now >= at {
                health_seq += 1;
                let probe = render_health(HEALTH_ID_BASE + health_seq) + "\n";
                conn.write_all(probe.as_bytes())?;
                health_outstanding += 1;
                next_health = Some(at + every);
            }
        }

        let sending_done = next >= n_sends || send_until.is_some_and(|end| now >= end);
        if sending_done && pending.is_empty() && health_outstanding == 0 {
            break;
        }
        let last_due = schedule
            .as_ref()
            .and_then(|s| s.last().copied())
            .map_or(phase.duration, |d| d.max(phase.duration));
        if now > started + last_due + DRAIN_GRACE {
            out.failed += pending.len();
            break;
        }

        // Sleep in `read` until a reply arrives or the next send is due.
        let mut wait = Duration::from_millis(20);
        if !sending_done && pending.len() < window {
            if let Some(s) = &schedule {
                wait = wait.min((started + s[next]).saturating_duration_since(now));
            } else {
                wait = Duration::ZERO;
            }
        }
        if let Some(at) = next_health.filter(|_| client == 0) {
            wait = wait.min(at.saturating_duration_since(now));
        }
        if wait.is_zero() && pending.len() < window && !sending_done {
            continue;
        }
        if !readable(&conn, wait)? {
            continue;
        }
        let got = match conn.read(&mut chunk) {
            Ok(0) => {
                out.failed += pending.len();
                break;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => 0,
            Err(e) => return Err(e),
        };
        if got == 0 {
            continue;
        }
        out.bytes_in += got as u64;
        buf.extend_from_slice(&chunk[..got]);
        let arrived = Instant::now();
        let mut consumed = 0;
        while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&buf[consumed..consumed + nl]).into_owned();
            consumed += nl + 1;
            if text.trim().is_empty() {
                continue;
            }
            match Response::parse(&text) {
                Ok(Response::Health { id, report }) if id > HEALTH_ID_BASE => {
                    health_outstanding = health_outstanding.saturating_sub(1);
                    out.queue_depths
                        .push(report.shards.iter().map(|s| s.queue_depth).sum());
                    out.restarts = report.total_restarts();
                }
                Ok(Response::Answer { id, answer }) => match pending.remove(&id) {
                    Some(p) => {
                        received += 1;
                        let want = &stream.expected[p.entry];
                        if answer == *want && answer.distance.to_bits() == want.distance.to_bits() {
                            let from = if schedule.is_some() { p.due } else { p.sent };
                            out.latencies_ms
                                .push(arrived.saturating_duration_since(from).as_secs_f64() * 1e3);
                            out.timeline.push((p.entry, p.sent, arrived));
                        } else {
                            eprintln!(
                                "perfbench: wrong answer for id {id}: {answer:?} != {want:?}"
                            );
                            out.failed += 1;
                        }
                    }
                    None => {
                        eprintln!("perfbench: reply for unknown id {id}");
                        out.failed += 1;
                    }
                },
                other => {
                    // Typed rejections and untyped lines are failures.
                    if let Ok(r) = &other {
                        if pending.remove(&r.id()).is_some() {
                            received += 1;
                        }
                    }
                    eprintln!("perfbench: failed reply: {text}");
                    out.failed += 1;
                }
            }
        }
        buf.drain(..consumed);
    }
    // A stall leaves a backlog that drains; overload leaves one that keeps
    // growing. Allow 10 ms worth of this connection's arrivals as slack.
    let slack = match phase.mode {
        Mode::Open { rate } => (0.01 * rate / clients as f64).max(8.0),
        Mode::Closed { .. } => 8.0,
    };
    out.backlog_grew = backlog_grew(&backlog, slack);
    Ok(out)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `conn` has bytes to read or `timeout` passes. `ppoll`
/// sleeps on a high-resolution timer; socket read timeouts round up to
/// scheduler ticks (several ms), which would make the open-loop sender
/// late by that much.
fn readable(conn: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask; the
    // kernel writes only `fd.revents`.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Whether the backlog at the end of the schedule clearly exceeds the
/// backlog at its start: mean over the last third against the mean over
/// the first third (after a 10% ramp), with an absolute `slack`.
pub fn backlog_grew(samples: &[(f64, usize)], slack: f64) -> bool {
    let Some(&(end, _)) = samples.last() else {
        return false;
    };
    let mean = |lo: f64, hi: f64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, b)| b as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let first = mean(0.1 * end, 0.4 * end);
    let last = mean(0.67 * end, end + 1.0);
    last > (2.0 * first).max(first + slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_is_deterministic_and_sized() {
        let phase = Phase {
            mode: Mode::Open { rate: 1000.0 },
            duration: Duration::from_secs(2),
            min_requests: 10,
            offset: 0,
            seed: 3,
            health_every: None,
        };
        let a = open_schedule(&phase, 1000.0, 0, 2);
        let b = open_schedule(&phase, 1000.0, 0, 2);
        let c = open_schedule(&phase, 1000.0, 1, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!((1.6..2.4).contains(&span), "schedule spans {span}s");
    }

    #[test]
    fn backlog_growth_is_detected() {
        let flat: Vec<(f64, usize)> = (0..100).map(|i| (i as f64, 3)).collect();
        assert!(!backlog_grew(&flat, 8.0));
        let growing: Vec<(f64, usize)> = (0..100).map(|i| (i as f64, i)).collect();
        assert!(backlog_grew(&growing, 8.0));
        assert!(!backlog_grew(&growing, 100.0));
    }
}
