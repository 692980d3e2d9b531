//! Hierarchical wall-clock spans with thread-safe aggregation.
//!
//! Each thread keeps a stack of open span names; closing a span records
//! its elapsed time under the `/`-joined path of the stack at open time
//! (`"pretrain/epoch0"`). Aggregation is by full path: re-entering the
//! same path accumulates `count` and `total_ns`, so a phase that runs
//! once per seed shows up as one row with `count == seeds`.
//!
//! Spans are per-thread: a guard must be dropped on the thread that
//! opened it for the path nesting to make sense (a guard created on a
//! spawned thread aggregates under that thread's own stack).

use crate::hist::LogHistogram;
use crate::trace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregate of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the path was entered and exited.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
}

/// Per-path aggregate plus duration quantiles, as reported in run logs.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// The `/`-joined span path.
    pub path: String,
    /// Count / total time (as in [`SpanStat`]).
    pub stat: SpanStat,
    /// Median duration estimate in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration estimate in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile duration estimate in nanoseconds.
    pub p99_ns: u64,
}

#[derive(Default)]
struct PathAgg {
    stat: SpanStat,
    hist: LogHistogram,
}

static AGG: Mutex<BTreeMap<String, PathAgg>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of an open span; records on drop. Inert when obtained while
/// instrumentation was disabled.
#[must_use = "a span records when the guard is dropped"]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled path of [`crate::span!`]).
    pub fn inert() -> SpanGuard {
        SpanGuard { start: None }
    }
}

/// Opens a span named `name` (no-op when disabled). Prefer the
/// [`crate::span!`] macro, which skips formatting entirely when disabled.
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    span_owned(name.to_string())
}

/// Opens a span from an owned name; used by the [`crate::span!`] macro
/// after it has already checked [`crate::enabled`].
pub fn span_owned(name: String) -> SpanGuard {
    trace::begin(&name);
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        let (path, name) = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let path = st.join("/");
            (path, st.pop())
        });
        if let Some(name) = &name {
            trace::end(name);
        }
        if path.is_empty() {
            return; // guard outlived a reset that cleared the stack owner
        }
        let mut agg = AGG.lock().unwrap_or_else(|e| e.into_inner());
        let entry = agg.entry(path).or_default();
        entry.stat.count += 1;
        entry.stat.total_ns += elapsed;
        entry.hist.record(elapsed);
    }
}

/// The `/`-joined path of the calling thread's open spans (empty when
/// none are open or instrumentation is disabled).
pub fn current_path() -> String {
    if !crate::enabled() {
        return String::new();
    }
    STACK.with(|s| s.borrow().join("/"))
}

/// All aggregated spans, sorted by path.
pub fn snapshot() -> Vec<(String, SpanStat)> {
    let agg = AGG.lock().unwrap_or_else(|e| e.into_inner());
    agg.iter().map(|(k, v)| (k.clone(), v.stat)).collect()
}

/// All aggregated spans with duration quantiles, sorted by path.
pub fn snapshot_summary() -> Vec<SpanSummary> {
    let agg = AGG.lock().unwrap_or_else(|e| e.into_inner());
    agg.iter()
        .map(|(k, v)| {
            let (p50_ns, p95_ns, p99_ns) = v.hist.percentiles();
            SpanSummary {
                path: k.clone(),
                stat: v.stat,
                p50_ns,
                p95_ns,
                p99_ns,
            }
        })
        .collect()
}

/// Clears the aggregate (open guards on other threads will still record
/// when they close).
pub fn reset() {
    AGG.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn nesting_builds_paths_and_aggregates() {
        let _g = lock();
        for _ in 0..3 {
            let _outer = crate::span!("pretrain");
            assert_eq!(current_path(), "pretrain");
            let _inner = crate::span!("epoch{}", 0);
            assert_eq!(current_path(), "pretrain/epoch0");
        }
        let snap = snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["pretrain", "pretrain/epoch0"]);
        for (_, stat) in &snap {
            assert_eq!(stat.count, 3);
        }
    }

    #[test]
    fn sibling_spans_share_a_parent_path() {
        let _g = lock();
        {
            let _outer = span("run");
            let _a = span("adapt");
            drop(_a);
            let _b = span("probe");
        }
        let paths: Vec<String> = snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["run", "run/adapt", "run/probe"]);
    }

    #[test]
    fn threads_keep_independent_stacks() {
        let _g = lock();
        let _outer = span("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span("worker");
                assert_eq!(current_path(), "worker");
            });
        });
        assert_eq!(current_path(), "main");
    }

    #[test]
    fn summary_quantiles_are_ordered_and_bounded() {
        let _g = lock();
        for ms in [1u64, 1, 1, 2, 5] {
            let _s = span("work");
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let summary = snapshot_summary();
        assert_eq!(summary.len(), 1);
        let s = &summary[0];
        assert_eq!(s.path, "work");
        assert_eq!(s.stat.count, 5);
        assert!(s.p50_ns >= 1_000_000, "{s:?}");
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "{s:?}");
        assert!(s.p99_ns <= s.stat.total_ns, "{s:?}");
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let _g = lock();
        {
            let _s = span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].1.total_ns >= 1_000_000, "{:?}", snap[0]);
    }
}
