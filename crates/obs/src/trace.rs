//! Event timeline: begin/end records with monotonic timestamps.
//!
//! While the [`crate::span`] aggregates answer "how much time went
//! where", the timeline answers "*when* did things happen": every span
//! open/close appends a [`TraceEvent`] — name, begin/end flag,
//! nanoseconds since the first event of the process, and a small
//! per-thread id — to a bounded ring buffer. When full, the **oldest**
//! events are overwritten (the most recent window is the useful one for a
//! post-mortem) and a dropped counter keeps the books honest.
//!
//! [`write_chrome`] exports the buffer as Chrome trace-event JSON
//! (`TRACE_<name>.json`), loadable in Perfetto / `chrome://tracing`.
//!
//! Tracing is gated twice: the global [`crate::enabled`] switch AND
//! `METALORA_OBS_TRACE=1` (or [`set_enabled`]). Both off-paths are a
//! single relaxed atomic load, and recording never touches numerics.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring-buffer capacity in events (~64k events ≈ a few MB).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

const OFF: u8 = 0;
const ON: u8 = 1;
const UNSET: u8 = 2;

static TRACE_ENABLED: AtomicU8 = AtomicU8::new(UNSET);

/// One timeline record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span (or hook) name — *not* the full path; nesting is implied by
    /// begin/end pairing per thread, as in the Chrome trace format.
    pub name: String,
    /// `true` for a begin ("B") event, `false` for an end ("E").
    pub begin: bool,
    /// Nanoseconds since the process trace epoch (monotonic).
    pub ts_ns: u64,
    /// Small sequential id of the recording thread (1-based).
    pub tid: u64,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

static RING: Mutex<Option<Ring>> = Mutex::new(None);

/// `true` when timeline recording is active (requires both the global
/// obs switch and the trace switch).
#[inline]
pub fn enabled() -> bool {
    if !crate::enabled() {
        return false;
    }
    match TRACE_ENABLED.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => enabled_from_env(),
    }
}

#[cold]
fn enabled_from_env() -> bool {
    let on = std::env::var("METALORA_OBS_TRACE")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    TRACE_ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Switches timeline recording on or off, overriding `METALORA_OBS_TRACE`
/// (the global [`crate::set_enabled`] switch must also be on to record).
pub fn set_enabled(on: bool) {
    TRACE_ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Replaces the ring-buffer capacity (and clears the buffer).
pub fn set_capacity(capacity: usize) {
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    *ring = Some(Ring {
        events: VecDeque::with_capacity(capacity.max(1)),
        capacity: capacity.max(1),
        dropped: 0,
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (first use in the process).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Small sequential id of the calling thread, assigned on first use.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

fn push(event: TraceEvent) {
    let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
    let ring = guard.get_or_insert_with(|| Ring {
        events: VecDeque::with_capacity(DEFAULT_CAPACITY),
        capacity: DEFAULT_CAPACITY,
        dropped: 0,
    });
    if ring.events.len() >= ring.capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(event);
}

/// Records a begin event (no-op when tracing is disabled).
#[inline]
pub fn begin(name: &str) {
    if !enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        begin: true,
        ts_ns: now_ns(),
        tid: thread_id(),
    });
}

/// Records an end event (no-op when tracing is disabled).
#[inline]
pub fn end(name: &str) {
    if !enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        begin: false,
        ts_ns: now_ns(),
        tid: thread_id(),
    });
}

/// All buffered events in recording order, plus how many older events the
/// ring has overwritten.
pub fn snapshot() -> (Vec<TraceEvent>, u64) {
    let guard = RING.lock().unwrap_or_else(|e| e.into_inner());
    match &*guard {
        Some(r) => (r.events.iter().cloned().collect(), r.dropped),
        None => (Vec::new(), 0),
    }
}

/// Clears the buffer and the dropped counter (capacity is kept).
pub fn reset() {
    let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(r) = &mut *guard {
        r.events.clear();
        r.dropped = 0;
    }
}

/// Serialises `events` as Chrome trace-event JSON (the "JSON object
/// format": a `traceEvents` array of `B`/`E` phase records, timestamps in
/// microseconds).
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(64 + events.len() * 96);
    s.push_str("{\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"cat\": \"metalora\", \"ph\": \"{}\", \
             \"ts\": {}, \"pid\": 1, \"tid\": {}}}{}\n",
            json::string(&e.name),
            if e.begin { "B" } else { "E" },
            json::num(e.ts_ns as f64 / 1e3),
            e.tid,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    s
}

/// Writes the current buffer as `TRACE_<name>.json` into
/// [`crate::out_dir`], returning the full path. The name is sanitised the
/// same way as run-log names.
pub fn write_chrome(name: &str) -> std::io::Result<std::path::PathBuf> {
    let (events, _) = snapshot();
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("TRACE_{}.json", crate::sanitise_name(name)));
    std::fs::write(&path, to_chrome_json(&events))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    fn trace_lock() -> crate::tests::TestGuard {
        let g = lock();
        set_enabled(true);
        reset();
        g
    }

    #[test]
    fn begin_end_pairs_are_buffered_in_order() {
        let _g = trace_lock();
        begin("outer");
        begin("inner");
        end("inner");
        end("outer");
        let (events, dropped) = snapshot();
        assert_eq!(dropped, 0);
        let names: Vec<(&str, bool)> =
            events.iter().map(|e| (e.name.as_str(), e.begin)).collect();
        assert_eq!(
            names,
            [("outer", true), ("inner", true), ("inner", false), ("outer", false)]
        );
        set_enabled(false);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let _g = lock(); // obs on, trace not explicitly on
        set_enabled(false);
        begin("never");
        end("never");
        assert!(snapshot().0.is_empty());
        // And with obs itself off, even an enabled trace stays silent.
        set_enabled(true);
        crate::set_enabled(false);
        begin("never");
        assert!(snapshot().0.is_empty());
        crate::set_enabled(true);
        set_enabled(false);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = trace_lock();
        set_capacity(4);
        for i in 0..6 {
            begin(&format!("e{i}"));
        }
        let (events, dropped) = snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 2);
        assert_eq!(events[0].name, "e2"); // e0/e1 overwritten
        assert_eq!(events[3].name, "e5");
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(false);
    }

    #[test]
    fn timestamps_are_monotonic_per_thread_and_nesting_is_valid() {
        let _g = trace_lock();
        // Concurrent emitters: each thread opens and closes nested spans.
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..8 {
                        begin(&format!("t{t}.outer{i}"));
                        begin(&format!("t{t}.inner{i}"));
                        end(&format!("t{t}.inner{i}"));
                        end(&format!("t{t}.outer{i}"));
                    }
                });
            }
        });
        let (events, dropped) = snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 4 * 8 * 4);

        // Per-thread: timestamps monotonic non-decreasing, and begin/end
        // pairing follows strict stack discipline.
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each worker got its own tid");
        for tid in tids {
            let mut last_ts = 0u64;
            let mut stack: Vec<&str> = Vec::new();
            for e in events.iter().filter(|e| e.tid == tid) {
                assert!(e.ts_ns >= last_ts, "tid {tid}: time went backwards");
                last_ts = e.ts_ns;
                if e.begin {
                    stack.push(&e.name);
                } else {
                    assert_eq!(
                        stack.pop(),
                        Some(e.name.as_str()),
                        "tid {tid}: end without matching begin"
                    );
                }
            }
            assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
        }
        set_enabled(false);
    }

    #[test]
    fn saturated_concurrent_writers_keep_pairing_and_exact_drop_count() {
        let _g = trace_lock();
        const CAPACITY: usize = 64;
        const THREADS: usize = 4;
        const PAIRS: usize = 200;
        set_capacity(CAPACITY);
        // 4 threads × 200 begin/end pairs = 1600 pushes through a 64-slot
        // ring: heavy saturation with concurrent writers.
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PAIRS {
                        begin(&format!("t{t}.s{i}"));
                        end(&format!("t{t}.s{i}"));
                    }
                });
            }
        });
        let (events, dropped) = snapshot();
        let total = (THREADS * PAIRS * 2) as u64;
        // The drop counter is exact regardless of interleaving: every
        // push past capacity evicts exactly one event under the ring's
        // lock, so dropped == total − capacity.
        assert_eq!(events.len(), CAPACITY);
        assert_eq!(dropped, total - CAPACITY as u64);
        // Pairing stays consistent in the surviving window: per thread,
        // events keep program order (monotonic timestamps), every end
        // matches the innermost open begin, and the only permissible
        // anomaly is an end whose begin was evicted — which can occur
        // only at the start of a thread's surviving subsequence, never
        // after that thread has opened a span inside the window.
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        for tid in tids {
            let mut last_ts = 0u64;
            let mut stack: Vec<&str> = Vec::new();
            let mut seen_begin = false;
            for e in events.iter().filter(|e| e.tid == tid) {
                assert!(e.ts_ns >= last_ts, "tid {tid}: time went backwards");
                last_ts = e.ts_ns;
                if e.begin {
                    seen_begin = true;
                    stack.push(&e.name);
                } else {
                    match stack.pop() {
                        Some(open) => assert_eq!(open, e.name, "tid {tid}: crossed pairing"),
                        None => assert!(
                            !seen_begin,
                            "tid {tid}: unmatched end {:?} after an in-window begin",
                            e.name
                        ),
                    }
                }
            }
            assert!(
                stack.len() <= 1,
                "tid {tid}: flat spans can leave at most the final begin open, got {stack:?}"
            );
        }
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(false);
    }

    #[test]
    fn chrome_json_shape() {
        let events = vec![
            TraceEvent { name: "a\"b".into(), begin: true, ts_ns: 1_500, tid: 1 },
            TraceEvent { name: "a\"b".into(), begin: false, ts_ns: 2_500, tid: 1 },
        ];
        let js = to_chrome_json(&events);
        assert!(js.contains("\"traceEvents\""));
        assert!(js.contains("\"ph\": \"B\""));
        assert!(js.contains("\"ph\": \"E\""));
        assert!(js.contains("\"ts\": 1.5")); // ns → µs
        assert!(js.contains("\"a\\\"b\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(js.matches(open).count(), js.matches(close).count());
        }
    }

    #[test]
    fn write_chrome_lands_on_disk() {
        let _g = trace_lock();
        begin("disk");
        end("disk");
        let dir = std::env::temp_dir().join("metalora_trace_test");
        crate::set_out_dir(Some(dir.clone()));
        let path = write_chrome("unit test").unwrap();
        crate::set_out_dir(None);
        assert_eq!(path.file_name().unwrap(), "TRACE_unit_test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\": \"disk\""));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
        set_enabled(false);
    }
}
