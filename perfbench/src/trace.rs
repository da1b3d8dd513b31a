//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer,
//! plus a count recorded at the same boundary. Spans stay in memory and
//! are written out when the run ends. A span's *self time* is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals: calls, summed duration, summed self time, summed count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
}

/// Span recorder. When `on` is false every call is a no-op except running
/// the closure, so untraced code paths pay one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            count: 0,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Adds `n` to the count of the innermost open span.
    pub fn count(&mut self, n: u64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].count += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans (e.g. a client thread's) into this
    /// one, re-basing their times and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Per-name totals with self time = duration − direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.duration_s();
            t.self_s += s.duration_s() - child_s[i];
            t.count += s.count;
        }
        out
    }

    /// Renders every span as a JSON array of
    /// `[name, start_ns, end_ns, parent, count]`.
    pub fn render_spans(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "[\"{}\",{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.count
            ));
        }
        out.push(']');
        out
    }
}

/// Cost of one enter/exit pair on this host, in ns (median of chunks).
pub fn span_cost_ns() -> f64 {
    let mut chunks = Vec::new();
    for _ in 0..5 {
        let mut t = Tracer::new(true);
        let n = 20_000;
        let start = Instant::now();
        t.span("outer", |t| {
            for _ in 0..n {
                t.span("inner", |t| t.count(1));
            }
        });
        chunks.push(start.elapsed().as_nanos() as f64 / n as f64);
        std::hint::black_box(t.spans.len());
    }
    crate::stats::median(&chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.count(3);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let tot = t.totals();
        let outer = tot["outer"];
        let inner = tot["inner"];
        assert_eq!(inner.count, 3);
        assert!(inner.total_s >= 0.005);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
