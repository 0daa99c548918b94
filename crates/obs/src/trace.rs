//! Hierarchical span tracing with a process-wide capture window.
//!
//! [`Span::enter`] opens a scope; dropping the guard records the scope's
//! monotonic duration. Spans nest per thread (a thread-local depth counter), so
//! a capture of `fg classify` shows `pipeline → estimate → summarize → spmm`;
//! kernel worker threads record their per-chunk spans on their own thread lane,
//! which is exactly what makes load imbalance visible in a Chrome trace.
//!
//! Capture is process-global and off by default: with no capture active,
//! [`Span::enter`] is **one relaxed atomic load** and returns an inert guard.
//! [`start_capture`] arms the collector, [`finish_capture`] disarms it and
//! returns the [`Trace`], which renders as Chrome trace-event JSON
//! ([`Trace::chrome_json`]) or aggregates into a span tree
//! ([`Trace::aggregate`]). Captures do not nest; the intended owner is a CLI
//! invocation (`fg classify --trace-out`) or a single test.
//!
//! Tracing records wall-clock data only — it never feeds back into any
//! computation, so results are byte-identical with tracing on or off.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on buffered span records per capture, so a runaway loop inside a
/// capture window degrades to dropped spans instead of unbounded memory.
const MAX_RECORDS: usize = 1 << 20;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

struct Collector {
    epoch: Instant,
    records: Vec<SpanRecord>,
    dropped: usize,
}

thread_local! {
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
    static THREAD_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    THREAD_TID.with(|tid| {
        let current = tid.get();
        if current != 0 {
            return current;
        }
        let fresh = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        tid.set(fresh);
        fresh
    })
}

/// Whether a capture window is currently armed (one relaxed load).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Arm the process-wide span collector. Spans entered from now until
/// [`finish_capture`] are recorded. An already-armed capture is replaced (its
/// records are discarded) — captures do not nest.
pub fn start_capture() {
    let mut slot = COLLECTOR.lock().expect("trace collector poisoned");
    *slot = Some(Collector {
        epoch: Instant::now(),
        records: Vec::new(),
        dropped: 0,
    });
    TRACE_ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm the collector and return everything it recorded. Returns an empty
/// [`Trace`] when no capture was armed.
pub fn finish_capture() -> Trace {
    TRACE_ENABLED.store(false, Ordering::SeqCst);
    let mut slot = COLLECTOR.lock().expect("trace collector poisoned");
    match slot.take() {
        Some(collector) => Trace {
            records: collector.records,
            dropped: collector.dropped,
        },
        None => Trace {
            records: Vec::new(),
            dropped: 0,
        },
    }
}

/// One completed span: what ran, where, when (relative to the capture epoch),
/// and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`"pipeline"`, `"summarize"`, `"spmm_chunk"`, ...).
    pub name: &'static str,
    /// Capture-local thread id (1-based; assigned on a thread's first span).
    pub tid: u64,
    /// Nesting depth on its thread when entered (0 = that thread's root).
    pub depth: usize,
    /// Start time in nanoseconds since the capture epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured arguments (e.g. `rows` / `nnz` for kernel chunks).
    pub args: Vec<(&'static str, u64)>,
}

/// An RAII span guard: created by [`Span::enter`], records on drop. Inert (one
/// relaxed load, no allocation) when no capture is armed.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    tid: u64,
    depth: usize,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Open a span named `name` on the current thread.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !TRACE_ENABLED.load(Ordering::Relaxed) {
            return Span(None);
        }
        Span::enter_recording(name, Vec::new())
    }

    /// Open a span with structured arguments (recorded into the Chrome trace).
    #[inline]
    pub fn enter_with(name: &'static str, args: &[(&'static str, u64)]) -> Span {
        if !TRACE_ENABLED.load(Ordering::Relaxed) {
            return Span(None);
        }
        Span::enter_recording(name, args.to_vec())
    }

    /// Attach one more structured argument to an open span, for a value known only
    /// once its work is done (an iteration count, a convergence flag). A no-op when
    /// no capture was armed at entry.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.0 {
            active.args.push((key, value));
        }
    }

    fn enter_recording(name: &'static str, args: Vec<(&'static str, u64)>) -> Span {
        let depth = THREAD_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span(Some(ActiveSpan {
            name,
            tid: thread_tid(),
            depth,
            start: Instant::now(),
            args,
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end = Instant::now();
        THREAD_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let mut slot = COLLECTOR.lock().expect("trace collector poisoned");
        // The capture may have finished while this span was open; its timing
        // then has no epoch to anchor to and is discarded.
        let Some(collector) = slot.as_mut() else {
            return;
        };
        if collector.records.len() >= MAX_RECORDS {
            collector.dropped += 1;
            return;
        }
        let start_ns = active
            .start
            .saturating_duration_since(collector.epoch)
            .as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(active.start).as_nanos() as u64;
        collector.records.push(SpanRecord {
            name: active.name,
            tid: active.tid,
            depth: active.depth,
            start_ns,
            dur_ns,
            args: active.args,
        });
    }
}

/// A finished capture: every recorded span, in completion order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded spans (completion order; sort by `start_ns` for timelines).
    pub records: Vec<SpanRecord>,
    /// Spans discarded because the capture hit its record cap.
    pub dropped: usize,
}

/// One aggregated node of the span tree: all spans sharing a name path, with
/// invocation count and total self-inclusive time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Slash-joined name path from the thread root (`"pipeline/estimate/summarize"`).
    pub path: String,
    /// Nesting depth (number of ancestors).
    pub depth: usize,
    /// How many spans completed on this path.
    pub count: usize,
    /// Total inclusive duration across those spans, in nanoseconds.
    pub total_ns: u64,
}

impl Trace {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the capture recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregate the capture into a span tree: spans are grouped by their full
    /// name path (thread root downward) and summed. Paths sort
    /// depth-first/alphabetically, so rendering the list in order indents into
    /// a tree. Worker threads contribute their own root paths (a kernel chunk
    /// span on a worker lane aggregates as `"spmm_chunk"`).
    pub fn aggregate(&self) -> Vec<SpanSummary> {
        // Reconstruct ancestry per thread: sort by start time within each
        // thread, maintain a name stack driven by the recorded depths.
        let mut by_tid: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
            std::collections::BTreeMap::new();
        for record in &self.records {
            by_tid.entry(record.tid).or_default().push(record);
        }
        let mut totals: std::collections::BTreeMap<String, (usize, usize, u64)> =
            std::collections::BTreeMap::new();
        for records in by_tid.values_mut() {
            records.sort_by_key(|r| (r.start_ns, r.depth));
            let mut stack: Vec<&'static str> = Vec::new();
            for record in records.iter() {
                stack.truncate(record.depth);
                stack.push(record.name);
                let path = stack.join("/");
                let entry = totals.entry(path).or_insert((record.depth, 0, 0));
                entry.1 += 1;
                entry.2 += record.dur_ns;
            }
        }
        totals
            .into_iter()
            .map(|(path, (depth, count, total_ns))| SpanSummary {
                path,
                depth,
                count,
                total_ns,
            })
            .collect()
    }

    /// Render the capture as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto format): one complete (`"ph":"X"`) event per span with
    /// microsecond timestamps, thread lanes matching the capture's thread ids,
    /// and the span arguments attached.
    pub fn chrome_json(&self) -> String {
        let mut records: Vec<&SpanRecord> = self.records.iter().collect();
        records.sort_by_key(|r| (r.tid, r.start_ns, r.depth));
        let mut events = Vec::with_capacity(records.len());
        for r in records {
            let mut args: Vec<String> =
                r.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            args.push(format!("\"depth\":{}", r.depth));
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"fg\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                r.name,
                r.tid,
                r.start_ns as f64 / 1000.0,
                r.dur_ns as f64 / 1000.0,
                args.join(",")
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captures are process-global, so trace tests serialize on one lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        {
            let _span = Span::enter("never");
        }
        // An inert span takes a late argument without recording anything.
        Span::enter("never").record("spmvs", 1);
        start_capture();
        let trace = finish_capture();
        assert!(trace.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _root = Span::enter("pipeline");
            for _ in 0..2 {
                let _child = Span::enter_with("summarize", &[("lmax", 5)]);
                let _leaf = Span::enter("spmm");
            }
        }
        let trace = finish_capture();
        assert_eq!(trace.len(), 5);
        let tree = trace.aggregate();
        let paths: Vec<(&str, usize)> = tree.iter().map(|s| (s.path.as_str(), s.count)).collect();
        assert_eq!(
            paths,
            vec![
                ("pipeline", 1),
                ("pipeline/summarize", 2),
                ("pipeline/summarize/spmm", 2),
            ]
        );
        let root = tree.iter().find(|s| s.path == "pipeline").unwrap();
        let children = tree
            .iter()
            .find(|s| s.path == "pipeline/summarize")
            .unwrap();
        assert!(root.total_ns >= children.total_ns);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _root = Span::enter("pipeline");
            let mut chunk = Span::enter_with("spmm_chunk", &[("rows", 128), ("nnz", 4096)]);
            chunk.record("spmvs", 18);
        }
        let trace = finish_capture();
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"spmm_chunk\""));
        assert!(json.contains("\"rows\":128"));
        assert!(json.contains("\"nnz\":4096"));
        assert!(json.contains("\"spmvs\":18"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn worker_threads_get_their_own_lanes() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _root = Span::enter("pipeline");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _chunk = Span::enter("spmm_chunk");
                    });
                }
            });
        }
        let trace = finish_capture();
        let tids: std::collections::BTreeSet<u64> = trace.records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 3, "root + two workers: {tids:?}");
        // Worker spans are thread roots (depth 0) on their own lanes.
        for record in trace.records.iter().filter(|r| r.name == "spmm_chunk") {
            assert_eq!(record.depth, 0);
        }
    }

    #[test]
    fn capture_replaces_and_caps() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _span = Span::enter("stale");
        }
        start_capture();
        {
            let _span = Span::enter("fresh");
        }
        let trace = finish_capture();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records[0].name, "fresh");
        assert_eq!(trace.dropped, 0);
    }
}
