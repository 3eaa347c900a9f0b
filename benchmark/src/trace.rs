//! Outside-in tracing: spans recorded only from the benchmark's own files,
//! around the calls into the layers.
//!
//! Spans stay in memory and are written as JSON lines when the benchmark
//! ends. Inside `run`, every simulated thread is always inside one of its own
//! spans — an `access_block` (a batch of typed accesses or gets and puts) or a
//! `barrier` / `lock` / `monitor` call — so the `run` interval can be split
//! among them:
//!
//! * one OS thread runs every slice, so between two consecutive span events
//!   nothing else was recorded, and that interval is charged to the innermost
//!   open span of the thread that recorded the earlier event;
//! * an `access_block` during which the global virtual clock did not move
//!   never yielded: it is one contiguous stretch of host time and is the
//!   application's own work (*app*). One that did yield sat in the fault path
//!   while the runtime worked (*fault*);
//! * a synchronisation span's self time is then exactly what the issue asks
//!   for: its duration minus what other simulated threads recorded while it
//!   was parked (*sync*).

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index); `NO_SPAN` marks "not recorded".
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// Thread id used for spans recorded by the harness itself.
pub const HOST_THREAD: i32 = -1;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Simulated thread (its node number), or [`HOST_THREAD`].
    pub thread: i32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// For an `access_block`: the global virtual clock moved while it was
    /// open, i.e. the thread blocked at least once inside it.
    pub yielded: bool,
}

/// Span recorder for one repeat. A disabled tracer costs one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The open `run` span: parent of everything simulated threads record.
    run_span: AtomicU32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            run_span: AtomicU32::new(NO_SPAN),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, thread: i32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            parent,
            thread,
            start_ns,
            end_ns: start_ns,
            yielded: false,
        });
        (spans.len() - 1) as SpanId
    }

    /// Open the `run` span (around `engine.run()`).
    pub fn begin_run(&self, parent: SpanId) -> SpanId {
        let id = self.begin("run", parent, HOST_THREAD);
        self.run_span.store(id, Ordering::Relaxed);
        id
    }

    /// Open a span of the simulated thread on `node`, under `run`.
    pub fn thread_begin(&self, name: &'static str, node: usize) -> SpanId {
        self.begin(name, self.run_span.load(Ordering::Relaxed), node as i32)
    }

    pub fn end(&self, id: SpanId) {
        self.end_block(id, false);
    }

    /// End a span, noting whether its thread yielded while it was open.
    pub fn end_block(&self, id: SpanId, yielded: bool) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        span.yielded = yielded;
    }

    /// Record `f` as a span of the harness thread.
    pub fn scope<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, HOST_THREAD);
        let out = f();
        self.end(id);
        out
    }

    /// Take what was recorded (simulated threads may still hold the tracer).
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer poisoned"))
    }
}

/// How the `run` span of one traced repeat divides, as shares of its length.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shares {
    /// Application work: `access_block` spans that never yielded.
    pub app: f64,
    /// Self time of `access_block` spans that blocked (the fault path).
    pub fault: f64,
    /// Self time of `barrier`, `lock` and `monitor` spans.
    pub sync: f64,
}

/// Split the `run` span among the spans the simulated threads recorded under
/// it (see the module documentation for the rule).
pub fn shares(spans: &[Span]) -> Shares {
    let Some(run_id) = spans.iter().position(|s| s.name == "run") else {
        return Shares::default();
    };
    let run = &spans[run_id];
    // (time, span index, is_begin), in recording order for equal times.
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == run_id as SpanId && s.thread != HOST_THREAD {
            events.push((s.start_ns, i, true));
            events.push((s.end_ns, i, false));
        }
    }
    events.sort_by_key(|&(t, i, begin)| (t, i, !begin));
    let mut ns = [0u64; 3];
    for pair in events.windows(2) {
        let (t0, i, begin) = pair[0];
        if !begin {
            continue; // the thread closed its span: nobody's time until the next event
        }
        let span = &spans[i];
        let class = match (span.name, span.yielded) {
            ("access_block", false) => 0,
            ("access_block", true) => 1,
            _ => 2,
        };
        ns[class] += pair[1].0 - t0;
    }
    let total = (run.end_ns - run.start_ns).max(1) as f64;
    Shares {
        app: ns[0] as f64 / total,
        fault: ns[1] as f64 / total,
        sync: ns[2] as f64 / total,
    }
}

/// Write spans as JSON lines: one object per span with its parent and
/// simulated-thread id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"yielded\":{}}}",
            s.name, s.thread, s.start_ns, s.end_ns, s.yielded
        )?;
    }
    out.flush()
}
