//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.operation`), start, end, the span
//! that was open on the same thread when it began, and a request id.
//! Spans stay in per-thread memory until [`collect`] gathers them at
//! the end of the run. When tracing is off, [`span`] costs one atomic
//! load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// The request the span served; 0 outside request traffic.
    pub req: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

// ORDERING: `ENABLED` publishes no data; a thread that sees a toggle a
// beat late records a span more or fewer.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Local {
    open: Vec<u64>,
    done: Vec<SpanRec>,
    muted: bool,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mutes (or unmutes) recording on the calling thread only — how a
/// traced run alternates traced and untraced windows of one phase.
pub fn mute(muted: bool) {
    LOCAL.with(|l| l.borrow_mut().muted = muted);
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let opened = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.muted {
            return None;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        Some((id, parent))
    });
    let Some((id, parent)) = opened else {
        return f();
    };
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        l.done.push(SpanRec {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Hands the calling thread's finished spans to the process-wide sink.
/// A thread that traced calls this before it ends (a scoped thread's
/// scope may return before its thread-local destructors run).
pub fn flush() {
    LOCAL.with(|l| {
        let mut all = FINISHED.lock().expect("span sink lock poisoned");
        all.append(&mut l.borrow_mut().done);
    });
}

/// Every span finished so far: those flushed by other threads plus the
/// calling thread's, in id order.
pub fn collect() -> Vec<SpanRec> {
    flush();
    let mut spans = std::mem::take(&mut *FINISHED.lock().expect("span sink lock poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it that its child spans cover.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        *by_layer.entry(s.layer()).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    by_layer
}

/// Writes spans as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            rec(1, 0, "bench.phase", 0, 100),
            rec(2, 1, "session.infer", 10, 40),
            rec(3, 1, "session.infer", 30, 50), // overlaps 2 by 10
            rec(4, 1, "router.route", 60, 70),
            rec(5, 4, "session.infer", 62, 65),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 100 - 40 - 10);
        assert_eq!(by_layer["session"], 30 + 20 + 3);
        assert_eq!(by_layer["router"], 10 - 3);
    }

    #[test]
    fn nested_spans_link_to_their_parent_on_the_same_thread() {
        // Runs on its own thread so the process-wide switch and sink
        // see only this test's spans.
        std::thread::spawn(|| {
            set_enabled(true);
            span("bench.outer", 0, || {
                span("session.inner", 7, || {});
                mute(true);
                span("session.hidden", 8, || {});
                mute(false);
            });
            set_enabled(false);
            span("session.off", 9, || {});
            flush();
        })
        .join()
        .expect("tracing thread");
        let spans = collect();
        let outer = spans
            .iter()
            .find(|s| s.name == "bench.outer")
            .expect("outer");
        let inner = spans
            .iter()
            .find(|s| s.name == "session.inner")
            .expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, inner.req), (0, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans
            .iter()
            .all(|s| s.name != "session.hidden" && s.name != "session.off"));
    }
}
