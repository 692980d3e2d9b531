//! Bench-side spans: one record per call into a layer, kept in memory and
//! written out when the run ends. The library is not touched — spans wrap
//! the calls the benchmark makes into each layer's public functions.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. `id` is the request or step the call belongs to,
/// `parent` the index of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Each span's duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Records nested spans on one thread. A muted tracer reads no clock and
/// records nothing, so untraced runs and warm-up take the same code path.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    muted: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            muted: false,
        }
    }

    /// A tracer that runs the closures and records nothing.
    pub fn muted() -> Self {
        Tracer {
            muted: true,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn scope<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if self.muted {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            id,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Summed self time of the spans named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self_times_ns(&self.spans);
        let ns: u64 = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| o)
            .sum();
        ns as f64 / 1e9
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the direct children of the single span `root`.
    pub fn children_s(&self, root: &str) -> f64 {
        let Some(index) = self.spans.iter().position(|s| s.name == root) else {
            return 0.0;
        };
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as a JSON array, one object per span in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are identifiers from this crate: nothing to escape.
            let _ = write!(
                out,
                "\n{{\"index\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn scopes_nest_and_aggregate_by_name() {
        let mut t = Tracer::new();
        let got = t.scope("root", 7, |t| {
            t.scope("leaf", 7, |_| std::hint::black_box(1));
            t.scope("leaf", 8, |_| std::hint::black_box(2))
        });
        assert_eq!(got, 2);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((s[1].id, s[2].id), (7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.count("leaf"), 2);
        assert!((t.children_s("root") - t.total_s("leaf")).abs() < 1e-12);
        assert!((t.self_s("root") + t.total_s("leaf") - t.total_s("root")).abs() < 1e-9);
        let json: serde_json::Value =
            serde_json::from_str(&t.to_json()).expect("trace file parses");
        assert!(matches!(json, serde_json::Value::Seq(ref v) if v.len() == 3));
    }

    #[test]
    fn muted_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::muted();
        assert_eq!(t.scope("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
