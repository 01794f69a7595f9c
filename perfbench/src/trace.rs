//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, plus per-name self time.
//!
//! A span is `(name, start, end, parent, id)`; `id` names the request or
//! study cell the span belongs to. Spans are kept in memory and written
//! out once, when the run ends. A disabled tracer records nothing, so the
//! untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span; pass it as the parent of nested spans.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const ROOT: SpanId = SpanId(None);
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn open(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent: parent.0,
            id,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, span: SpanId) {
        if let Some(i) = span.0 {
            let end = self.now();
            self.spans()[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let s = self.open(name, parent, id);
        let out = f(s);
        self.close(s);
        out
    }

    /// Records an already-measured interval (for timings taken on another
    /// thread, such as client round trips).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans().push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: parent.0,
            id,
        });
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}

/// Writes the spans as a JSON array, one span per line.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"i\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"id\": {}}}{}\n",
            s.name,
            s.start,
            s.end,
            s.id,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    text.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", 0.0, 10.0, None),
            span("matrices", 1.0, 4.0, Some(0)),
            span("loocv", 4.0, 5.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cell"], 6.0);
        assert_eq!(t["matrices"], 2.0);
        assert_eq!(t["loocv"], 1.0);
        assert_eq!(t["inner"], 1.0);
        let total: f64 = t.values().sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", SpanId::ROOT, 1, |_| ());
        assert!(t.snapshot().is_empty());
        let t = Tracer::new(true);
        t.span("x", SpanId::ROOT, 1, |p| t.span("y", p, 1, |_| ()));
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
