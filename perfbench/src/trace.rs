//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a program layer goes through
//! [`layer`], which always returns the call's wall time (the end-to-end
//! stopwatch) and, when tracing is on, also records a span: name, start,
//! end, the enclosing span, and a tag (round number or request id). Spans
//! stay in memory until [`drain`] and are written out once, at the end.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// Round number, set-up repetition or request id.
    pub tag: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for the whole process.
pub fn init(on: bool) {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    });
    ON.store(on, Relaxed);
}

fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Runs `f` as one call into the layer `name` and returns its result with
/// its wall time in milliseconds.
pub fn layer<T>(name: &'static str, tag: u64, f: impl FnOnce() -> T) -> (T, f64) {
    if !enabled() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed().as_secs_f64() * 1e3);
    }
    let tracer = TRACER.get().expect("trace::init not called");
    let id = tracer.next.fetch_add(1, Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    let start_ns = start.duration_since(tracer.epoch).as_nanos() as u64;
    let end_ns = end.duration_since(tracer.epoch).as_nanos() as u64;
    tracer.spans.lock().unwrap().push(Span {
        id,
        parent,
        name,
        tag,
        start_ns,
        end_ns,
    });
    (out, (end_ns - start_ns) as f64 / 1e6)
}

/// Takes every recorded span out of the recorder, in start order.
pub fn drain() -> Vec<Span> {
    let Some(tracer) = TRACER.get() else {
        return Vec::new();
    };
    let mut spans = std::mem::take(&mut *tracer.spans.lock().unwrap());
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Writes spans as NDJSON, one object per line.
pub fn write_ndjson(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"tag\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
