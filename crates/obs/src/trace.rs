//! Distributed tracing, the one span sink: trace contexts carried
//! across process hops, span-tree collection, tail-sampled retention,
//! and the chrome exporter.
//!
//! A request that should be traced gets a [`Collector`]: a 128-bit
//! trace id, the hop count, and a buffer of completed [`SpanRecord`]s
//! capped at construction; `nvm-llc --trace-out` attaches one root
//! collector to the main thread for the whole run. While a collector
//! is [attached](attach) to a thread, every [`crate::span!`] guard
//! opened on that thread is assigned a process-unique span id, linked
//! to its innermost open parent, and appended to the collector on drop.
//! Threads spawned to help with a traced request (or run) capture a
//! [`Handle`] first and re-attach it, so worker spans stitch into the
//! same tree.
//!
//! Crossing a process boundary uses two headers:
//!
//! * [`TRACE_HEADER`] (`x-nvmllc-trace`) goes **out** with a proxied
//!   request: `<trace_id:032x>-<parent_span:016x>-<hop>`. The receiver
//!   creates its collector from the parsed [`TraceContext`], so its
//!   spans parent under the sender's proxy span.
//! * [`SPANS_HEADER`] (`x-nvmllc-trace-spans`) comes **back** on the
//!   response: the receiver's completed spans, node-labelled and
//!   compactly encoded ([`Collector::encode_spans`]). The origin
//!   ingests them ([`Collector::ingest_remote`]) and ends up with one
//!   span tree spanning every node the request touched.
//!
//! Retention is tail-based: the serving layer keeps a whole tree in a
//! bounded [`TailBuffer`] only when the request turned out slow or
//! errored. [`TailBuffer::render_json`] backs `/tracez`; one renderer,
//! [`render_chrome`], writes both `/tracez?format=chrome` and the
//! `--trace-out` file.
//!
//! When no collector is attached (the common case — benches, untraced
//! CLI runs and endpoints) the per-span cost is one thread-local check,
//! so the existing span-overhead budget is unaffected. Out-of-order span
//! drops stay harmless: closing a span removes *its own* id from the
//! open stack wherever it sits, and a guard dropped on a foreign
//! thread simply skips the stack fix-up and still records.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Request header carrying the trace context to an upstream hop.
pub const TRACE_HEADER: &str = "x-nvmllc-trace";

/// Response header carrying the hop's completed spans back to the
/// origin.
pub const SPANS_HEADER: &str = "x-nvmllc-trace-spans";

/// Spans a request's collector retains; later spans are counted and
/// dropped.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// Spans the root collector of a traced CLI run retains.
pub const MAX_SPANS_PER_RUN: usize = 1 << 20;

/// Spans a hop encodes into [`SPANS_HEADER`] (the most recent ones,
/// which include the outermost handler spans — they complete last).
pub const MAX_HEADER_SPANS: usize = 48;

/// SplitMix64 — a tiny, well-mixed permutation for id generation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A per-process random seed so span/trace ids from different nodes of
/// a cluster never collide in a stitched tree.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
    })
}

/// A fresh process-unique, nonzero span id (zero means "no parent").
pub fn new_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = splitmix64(process_seed().wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed)));
    if id == 0 {
        1
    } else {
        id
    }
}

fn new_trace_id() -> u128 {
    (u128::from(new_span_id()) << 64) | u128::from(new_span_id())
}

/// A small stable id for the calling thread (a chrome thread lane).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The cross-process trace context: what [`TRACE_HEADER`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every hop of one request.
    pub trace_id: u128,
    /// Span id of the sender's span this hop should parent under
    /// (zero: root).
    pub parent_span: u64,
    /// How many process hops the request has taken (0 at the origin).
    pub hop: u32,
}

impl TraceContext {
    /// Renders the header value: `<trace:032x>-<parent:016x>-<hop>`.
    pub fn encode(&self) -> String {
        format!(
            "{:032x}-{:016x}-{}",
            self.trace_id, self.parent_span, self.hop
        )
    }

    /// Parses a header value produced by [`TraceContext::encode`].
    pub fn parse(raw: &str) -> Option<TraceContext> {
        let mut parts = raw.trim().splitn(3, '-');
        let trace_id = u128::from_str_radix(parts.next()?, 16).ok()?;
        let parent_span = u64::from_str_radix(parts.next()?, 16).ok()?;
        let hop = parts.next()?.parse().ok()?;
        Some(TraceContext {
            trace_id,
            parent_span,
            hop,
        })
    }
}

/// One completed span inside a trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`serve_handle`, `tape_replay_batch`, …).
    pub name: String,
    /// Process-unique span id.
    pub span_id: u64,
    /// Parent span id (zero: a root of this hop).
    pub parent_id: u64,
    /// Start offset from the collector's epoch, microseconds.
    pub start_micros: f64,
    /// Duration, microseconds.
    pub dur_micros: f64,
    /// Node label for remote-ingested spans; `None` until the trace is
    /// sealed with the local node's label.
    pub node: Option<String>,
    /// Small id of the thread that closed the span (0 for spans
    /// ingested from another process).
    pub thread: u64,
}

/// Collects the span tree of one in-flight traced request.
#[derive(Debug)]
pub struct Collector {
    trace_id: u128,
    hop: u32,
    root_parent: u64,
    start: Instant,
    max_spans: usize,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl Collector {
    /// Begins collection: a fresh trace for `inbound == None`, or the
    /// continuation of a remote caller's trace. At most `max_spans`
    /// spans are retained; later ones are counted in
    /// [`Collector::dropped`].
    pub fn begin(inbound: Option<TraceContext>, max_spans: usize) -> Arc<Collector> {
        let (trace_id, root_parent, hop) = match inbound {
            Some(ctx) => (ctx.trace_id, ctx.parent_span, ctx.hop),
            None => (new_trace_id(), 0, 0),
        };
        Arc::new(Collector {
            trace_id,
            hop,
            root_parent,
            start: Instant::now(),
            max_spans,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// The 128-bit trace id.
    pub fn trace_id(&self) -> u128 {
        self.trace_id
    }

    /// Process-hop count (0: this node is the origin).
    pub fn hop(&self) -> u32 {
        self.hop
    }

    /// The parent span id local roots attach under.
    pub fn root_parent(&self) -> u64 {
        self.root_parent
    }

    /// Microseconds since collection began.
    pub fn elapsed_micros(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    /// Spans dropped past the collector's cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().expect("trace collector lock");
        if spans.len() >= self.max_spans {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(record);
    }

    /// Called by span guards on drop.
    pub(crate) fn record_span(
        &self,
        name: &str,
        span_id: u64,
        parent_id: u64,
        start: Instant,
        dur: Duration,
    ) {
        let start_micros = start.saturating_duration_since(self.start).as_secs_f64() * 1e6;
        self.push(SpanRecord {
            name: name.to_owned(),
            span_id,
            parent_id,
            start_micros,
            dur_micros: dur.as_secs_f64() * 1e6,
            node: None,
            thread: thread_id(),
        });
    }

    /// Appends a synthetic span (queue wait, head parse — phases that
    /// are measured rather than guarded). Returns its span id.
    pub fn add_synthetic(
        &self,
        name: &str,
        parent_id: u64,
        start_micros: f64,
        dur_micros: f64,
    ) -> u64 {
        let span_id = new_span_id();
        self.push(SpanRecord {
            name: name.to_owned(),
            span_id,
            parent_id,
            start_micros,
            dur_micros,
            node: None,
            thread: thread_id(),
        });
        span_id
    }

    /// A clone of the collected spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("trace collector lock").clone()
    }

    /// Seals the tree: labels every still-local span with `node` and
    /// returns the records. Remote-ingested spans keep their labels.
    pub fn seal(&self, node: &str) -> Vec<SpanRecord> {
        let mut spans = self.spans();
        for span in &mut spans {
            if span.node.is_none() {
                span.node = Some(node.to_owned());
            }
        }
        spans
    }

    /// The whole tree, sealed with `node`, in chrome Trace Event Format
    /// ([`render_chrome`]) — what `--trace-out` writes at exit.
    pub fn render_chrome(&self, node: &str) -> String {
        render_chrome(&[RetainedTrace {
            trace_id: self.trace_id,
            target: String::new(),
            status: 0,
            reason: "root",
            total_micros: self.elapsed_micros(),
            node: node.to_owned(),
            spans: self.seal(node),
            dropped: self.dropped(),
        }])
    }

    /// Encodes this hop's local spans for [`SPANS_HEADER`]:
    /// `node=<label>;<name>,<id:016x>,<parent:016x>,<start_us>,<dur_us>;…`
    /// Only the most recent [`MAX_HEADER_SPANS`] are sent — the
    /// outermost handler spans complete last, so they always survive.
    pub fn encode_spans(&self, node: &str) -> String {
        let spans = self.spans.lock().expect("trace collector lock");
        let skip = spans.len().saturating_sub(MAX_HEADER_SPANS);
        let mut out = String::with_capacity(64 + (spans.len() - skip) * 64);
        out.push_str("node=");
        out.extend(header_safe(node));
        for span in spans.iter().skip(skip) {
            // Local spans only: a middle hop never re-exports spans it
            // ingested (there are none in single-hop routing anyway).
            if span.node.is_some() {
                continue;
            }
            let _ = write!(
                out,
                ";{},{:016x},{:016x},{:.1},{:.1}",
                header_safe(&span.name).collect::<String>(),
                span.span_id,
                span.parent_id,
                span.start_micros,
                span.dur_micros,
            );
        }
        out
    }

    /// Ingests a [`SPANS_HEADER`] value from an upstream response,
    /// shifting remote start offsets by `base_micros` (the local
    /// timeline position where the proxy call began) so the stitched
    /// tree renders on one clock. Malformed entries are skipped.
    pub fn ingest_remote(&self, header: &str, base_micros: f64) {
        let mut parts = header.split(';');
        let node = match parts.next().and_then(|p| p.strip_prefix("node=")) {
            Some(label) if !label.is_empty() => label.to_owned(),
            _ => return,
        };
        for entry in parts {
            let fields: Vec<&str> = entry.split(',').collect();
            let [name, id, parent, start, dur] = fields[..] else {
                continue;
            };
            let (Ok(span_id), Ok(parent_id)) =
                (u64::from_str_radix(id, 16), u64::from_str_radix(parent, 16))
            else {
                continue;
            };
            let (Ok(start_micros), Ok(dur_micros)) = (start.parse::<f64>(), dur.parse::<f64>())
            else {
                continue;
            };
            self.push(SpanRecord {
                name: name.to_owned(),
                span_id,
                parent_id,
                start_micros: base_micros + start_micros,
                dur_micros,
                node: Some(node.clone()),
                thread: 0,
            });
        }
    }
}

/// Characters allowed through header encoding; everything else maps to
/// `_` so structural separators stay unambiguous.
fn header_safe(raw: &str) -> impl Iterator<Item = char> + '_ {
    raw.chars().map(|c| {
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '@' | '/') {
            c
        } else {
            '_'
        }
    })
}

struct ThreadTrace {
    collector: Arc<Collector>,
    /// Parent for spans opened while the open-span stack is empty.
    base_parent: u64,
    /// Ids of spans currently open on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Restores the thread's previous trace attachment on drop.
#[must_use = "detaches on drop; binding to _ detaches immediately"]
pub struct AttachGuard {
    prev: Option<ThreadTrace>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        ACTIVE.with(|cell| *cell.borrow_mut() = self.prev.take());
    }
}

/// Attaches `collector` to the current thread: spans opened until the
/// guard drops are recorded into it, parented under `base_parent` when
/// no local span is open.
pub fn attach(collector: &Arc<Collector>, base_parent: u64) -> AttachGuard {
    let prev = ACTIVE.with(|cell| {
        cell.borrow_mut().replace(ThreadTrace {
            collector: Arc::clone(collector),
            base_parent,
            stack: Vec::new(),
        })
    });
    AttachGuard { prev }
}

/// A sendable snapshot of the thread's trace attachment, for handing
/// to worker threads: the collector plus the innermost open span at
/// capture time (the workers' spans parent under it).
#[derive(Clone)]
pub struct Handle {
    collector: Arc<Collector>,
    parent: u64,
}

impl Handle {
    /// Attaches this handle's collector to the current thread.
    pub fn attach(&self) -> AttachGuard {
        attach(&self.collector, self.parent)
    }
}

/// The current thread's trace attachment, if any.
pub fn handle() -> Option<Handle> {
    ACTIVE.with(|cell| {
        cell.borrow().as_ref().map(|t| Handle {
            collector: Arc::clone(&t.collector),
            parent: t.stack.last().copied().unwrap_or(t.base_parent),
        })
    })
}

/// The collector currently attached to this thread, if any.
pub fn current() -> Option<Arc<Collector>> {
    ACTIVE.with(|cell| cell.borrow().as_ref().map(|t| Arc::clone(&t.collector)))
}

/// The context an outbound proxied request should carry: same trace,
/// parented under the innermost open span, hop count bumped.
pub fn outbound_context() -> Option<TraceContext> {
    ACTIVE.with(|cell| {
        cell.borrow().as_ref().map(|t| TraceContext {
            trace_id: t.collector.trace_id,
            parent_span: t.stack.last().copied().unwrap_or(t.base_parent),
            hop: t.collector.hop + 1,
        })
    })
}

/// An open traced span: issued by [`open_span`] when a collector is
/// attached, consumed by the span guard's drop.
pub(crate) struct OpenSpan {
    collector: Arc<Collector>,
    span_id: u64,
    parent_id: u64,
}

/// Assigns an id to a span opening on this thread and pushes it onto
/// the open stack. `None` when no collector is attached — the span
/// guard then carries no trace state at all.
pub(crate) fn open_span() -> Option<OpenSpan> {
    ACTIVE.with(|cell| {
        let mut active = cell.borrow_mut();
        let t = active.as_mut()?;
        let parent_id = t.stack.last().copied().unwrap_or(t.base_parent);
        let span_id = new_span_id();
        t.stack.push(span_id);
        Some(OpenSpan {
            collector: Arc::clone(&t.collector),
            span_id,
            parent_id,
        })
    })
}

/// Completes a traced span: removes its id from the open stack (by
/// value, so out-of-order drops stay harmless; a guard dropped on a
/// foreign thread skips the fix-up) and appends the record.
pub(crate) fn close_span(open: OpenSpan, name: &str, start: Instant, dur: Duration) {
    ACTIVE.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            if Arc::ptr_eq(&t.collector, &open.collector) {
                if let Some(at) = t.stack.iter().rposition(|&id| id == open.span_id) {
                    t.stack.remove(at);
                }
            }
        }
    });
    open.collector
        .record_span(name, open.span_id, open.parent_id, start, dur);
}

/// One trace kept by tail sampling.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The 128-bit trace id.
    pub trace_id: u128,
    /// The request target that produced it.
    pub target: String,
    /// Response status.
    pub status: u16,
    /// Why it was kept: `"slow"` or `"error"`.
    pub reason: &'static str,
    /// End-to-end handler time, microseconds.
    pub total_micros: f64,
    /// The origin node's label.
    pub node: String,
    /// The sealed span tree (local + ingested remote spans).
    pub spans: Vec<SpanRecord>,
    /// Spans the collector dropped past its cap.
    pub dropped: u64,
}

/// A bounded ring of tail-sampled traces; the oldest is evicted first.
#[derive(Debug)]
pub struct TailBuffer {
    capacity: usize,
    inner: Mutex<VecDeque<RetainedTrace>>,
}

impl TailBuffer {
    /// An empty buffer holding at most `capacity` traces.
    pub fn new(capacity: usize) -> TailBuffer {
        TailBuffer {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Retains one trace, evicting the oldest past capacity.
    pub fn push(&self, trace: RetainedTrace) {
        let mut inner = self.inner.lock().expect("tail buffer lock");
        if inner.len() >= self.capacity {
            inner.pop_front();
        }
        inner.push_back(trace);
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("tail buffer lock").len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A clone of the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<RetainedTrace> {
        self.inner
            .lock()
            .expect("tail buffer lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The `/tracez` JSON body: every retained trace with its span
    /// tree. Span and parent ids render as 16-hex-digit strings, trace
    /// ids as 32.
    pub fn render_json(&self) -> String {
        let traces = self.snapshot();
        let mut out = String::with_capacity(128 + traces.len() * 512);
        let _ = write!(out, "{{\"captured\":{},\"traces\":[", traces.len());
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"trace_id\":\"{:032x}\",\"target\":\"{}\",\"status\":{},\
                 \"reason\":\"{}\",\"total_us\":{:.1},\"node\":\"{}\",\"spans\":[",
                trace.trace_id,
                json_safe(&trace.target),
                trace.status,
                trace.reason,
                trace.total_micros,
                json_safe(&trace.node),
            );
            for (j, span) in trace.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\
                     \"node\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                    json_safe(&span.name),
                    span.span_id,
                    span.parent_id,
                    json_safe(span.node.as_deref().unwrap_or("")),
                    span.start_micros,
                    span.dur_micros,
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Position (1-based) of `key` in `lanes`, appending it if new: stable
/// lane numbers in first-seen order.
fn lane<T: PartialEq>(lanes: &mut Vec<T>, key: T) -> usize {
    match lanes.iter().position(|l| *l == key) {
        Some(at) => at + 1,
        None => {
            lanes.push(key);
            lanes.len()
        }
    }
}

/// Renders span trees in chrome Trace Event Format, loadable by
/// chrome://tracing and Perfetto as-is. Each node label is a *process
/// lane* (named by `process_name` metadata) and each (node, trace,
/// thread) a thread lane inside it, so spans on one lane nest. Every
/// span is a complete (`"ph":"X"`) event; a trace that dropped spans
/// past its collector's cap adds an instant event saying how many.
pub fn render_chrome(traces: &[RetainedTrace]) -> String {
    let mut nodes: Vec<&str> = Vec::new();
    let mut threads: Vec<(&str, usize, u64)> = Vec::new();
    let mut events = String::new();
    for (ti, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            let node = span.node.as_deref().unwrap_or(&trace.node);
            let pid = lane(&mut nodes, node);
            let tid = lane(&mut threads, (node, ti, span.thread));
            if !events.is_empty() {
                events.push(',');
            }
            let _ = write!(
                events,
                "{{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{:.1},\"dur\":{:.1},\"args\":{{\
                 \"trace_id\":\"{:032x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
                json_safe(&span.name),
                span.start_micros,
                span.dur_micros,
                trace.trace_id,
                span.span_id,
                span.parent_id,
            );
        }
        if trace.dropped > 0 {
            let pid = lane(&mut nodes, &trace.node);
            if !events.is_empty() {
                events.push(',');
            }
            let _ = write!(
                events,
                "{{\"name\":\"obs: {} spans dropped (buffer full)\",\"cat\":\"obs\",\
                 \"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"s\":\"g\"}}",
                trace.dropped,
            );
        }
    }
    let mut out = String::with_capacity(events.len() + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, node) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json_safe(node),
        );
    }
    if !nodes.is_empty() && !events.is_empty() {
        out.push(',');
    }
    out.push_str(&events);
    out.push_str("]}");
    out
}

fn json_safe(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_header_round_trips() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_0123_4567_89ab_cdef_5555_aaaa,
            parent_span: 0x1234_5678_9abc_def0,
            hop: 2,
        };
        let encoded = ctx.encode();
        assert_eq!(TraceContext::parse(&encoded), Some(ctx));
        assert_eq!(TraceContext::parse("garbage"), None);
        assert_eq!(TraceContext::parse(""), None);
        assert_eq!(TraceContext::parse("zz-00-1"), None);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = new_span_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate span id");
        }
    }

    #[test]
    fn attached_spans_link_parents_through_nesting() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        {
            let _attach = attach(&collector, 7);
            let outer = crate::span!("trace_outer");
            let inner = crate::span!("trace_inner");
            drop(inner);
            drop(outer);
        }
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "trace_inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "trace_outer").unwrap();
        assert_eq!(inner.parent_id, outer.span_id, "inner parents under outer");
        assert_eq!(outer.parent_id, 7, "outer parents under the base parent");
    }

    #[test]
    fn out_of_order_drops_still_record_and_never_panic() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        let _attach = attach(&collector, 0);
        let a = crate::span!("ooo_a");
        let b = crate::span!("ooo_b");
        let c = crate::span!("ooo_c");
        drop(a);
        drop(c);
        drop(b);
        assert_eq!(collector.spans().len(), 3);
    }

    #[test]
    fn detached_threads_record_nothing() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        {
            let _span = crate::span!("untraced");
        }
        assert!(collector.spans().is_empty());
    }

    #[test]
    fn detached_histogram_spans_time_but_trace_nothing() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        let hist = crate::metrics::histogram("nvmllc_test_detached_seconds", "detached span");
        let before = hist.count();
        {
            let span = crate::span::Span::enter("invisible", || hist);
            assert!(span.is_recording(), "timing stays on without a collector");
        }
        assert_eq!(hist.count(), before + 1, "the histogram still records");
        assert!(collector.spans().is_empty(), "no trace span is buffered");
    }

    #[test]
    fn handles_carry_the_trace_to_worker_threads() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        let _attach = attach(&collector, 0);
        let outer = crate::span!("spawn_site");
        let handle = handle().expect("attached");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _attach = handle.attach();
                let _span = crate::span!("worker_span");
            });
        });
        drop(outer);
        let spans = collector.spans();
        let worker = spans.iter().find(|s| s.name == "worker_span").unwrap();
        let site = spans.iter().find(|s| s.name == "spawn_site").unwrap();
        assert_eq!(
            worker.parent_id, site.span_id,
            "worker spans parent under the span open at capture time"
        );
    }

    #[test]
    fn encode_and_ingest_stitch_across_processes() {
        let _guard = crate::test_enabled_lock();
        // "Remote" side: a continuation collector records two spans.
        let remote = Collector::begin(
            Some(TraceContext {
                trace_id: 42,
                parent_span: 99,
                hop: 1,
            }),
            MAX_SPANS_PER_TRACE,
        );
        remote.record_span(
            "remote_handle",
            11,
            99,
            Instant::now(),
            Duration::from_micros(500),
        );
        remote.record_span(
            "remote_eval",
            12,
            11,
            Instant::now(),
            Duration::from_micros(400),
        );
        let header = remote.encode_spans("shard-2");
        assert!(header.starts_with("node=shard-2;"), "{header}");

        // Origin side ingests at a 1000 µs timeline offset.
        let origin = Collector::begin(None, MAX_SPANS_PER_TRACE);
        origin.ingest_remote(&header, 1000.0);
        let spans = origin.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.node.as_deref() == Some("shard-2")));
        let handle = spans.iter().find(|s| s.name == "remote_handle").unwrap();
        assert_eq!(handle.span_id, 11);
        assert_eq!(
            handle.parent_id, 99,
            "remote root parents under the proxy span"
        );
        assert!(handle.start_micros >= 1000.0, "offsets shift by the base");
        // Garbage is skipped wholesale or per-entry, never panics.
        origin.ingest_remote("not-a-header", 0.0);
        origin.ingest_remote("node=x;bad,entry", 0.0);
        assert_eq!(origin.spans().len(), 2);
    }

    #[test]
    fn collector_bounds_span_count() {
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        for i in 0..(MAX_SPANS_PER_TRACE + 10) {
            collector.add_synthetic("flood", 0, i as f64, 1.0);
        }
        assert_eq!(collector.spans().len(), MAX_SPANS_PER_TRACE);
        assert_eq!(collector.dropped(), 10);
    }

    #[test]
    fn header_encoding_caps_and_keeps_the_latest_spans() {
        let collector = Collector::begin(None, MAX_SPANS_PER_TRACE);
        for i in 0..(MAX_HEADER_SPANS + 20) {
            collector.add_synthetic(&format!("s{i}"), 0, i as f64, 1.0);
        }
        let header = collector.encode_spans("n");
        let entries = header.split(';').count() - 1;
        assert_eq!(entries, MAX_HEADER_SPANS);
        assert!(
            header.contains(&format!("s{}", MAX_HEADER_SPANS + 19)),
            "the last span survives"
        );
        assert!(!header.contains(";s0,"), "the earliest spans are shed");
    }

    #[test]
    fn tail_buffer_rotates_and_renders() {
        let buffer = TailBuffer::new(2);
        for i in 0..3u16 {
            buffer.push(RetainedTrace {
                trace_id: u128::from(i),
                target: format!("/row?i={i}"),
                status: 200,
                reason: "slow",
                total_micros: 1000.0 * f64::from(i + 1),
                node: "node".into(),
                spans: vec![SpanRecord {
                    name: "serve_handle".into(),
                    span_id: 1,
                    parent_id: 0,
                    start_micros: 0.0,
                    dur_micros: 900.0,
                    node: None,
                    thread: 1,
                }],
                dropped: 0,
            });
        }
        assert_eq!(buffer.len(), 2, "capacity evicts the oldest");
        let json = buffer.render_json();
        assert!(json.starts_with("{\"captured\":2,\"traces\":["), "{json}");
        assert!(!json.contains("/row?i=0"), "oldest evicted");
        assert!(json.contains("/row?i=2"), "newest kept");
        assert!(json.contains("\"reason\":\"slow\""), "{json}");
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count(), "balanced JSON");
    }

    #[test]
    fn chrome_rendering_gives_each_node_its_own_lane() {
        let buffer = TailBuffer::new(4);
        buffer.push(RetainedTrace {
            trace_id: 7,
            target: "/row?workload=x".into(),
            status: 200,
            reason: "slow",
            total_micros: 2000.0,
            node: "router".into(),
            spans: vec![
                SpanRecord {
                    name: "serve_handle".into(),
                    span_id: 1,
                    parent_id: 0,
                    start_micros: 0.0,
                    dur_micros: 2000.0,
                    node: Some("router".into()),
                    thread: 1,
                },
                SpanRecord {
                    name: "serve_handle".into(),
                    span_id: 2,
                    parent_id: 1,
                    start_micros: 100.0,
                    dur_micros: 1800.0,
                    node: Some("shard-1".into()),
                    thread: 0,
                },
            ],
            dropped: 0,
        });
        let chrome = render_chrome(&buffer.snapshot());
        assert!(chrome.contains("\"name\":\"process_name\""), "{chrome}");
        assert!(
            chrome.contains("\"args\":{\"name\":\"router\"}"),
            "{chrome}"
        );
        assert!(
            chrome.contains("\"args\":{\"name\":\"shard-1\"}"),
            "{chrome}"
        );
        assert!(chrome.contains("\"pid\":1"), "{chrome}");
        assert!(chrome.contains("\"pid\":2"), "two distinct lanes: {chrome}");
        let opens = chrome.matches('{').count();
        assert_eq!(opens, chrome.matches('}').count(), "balanced JSON");
    }

    #[test]
    fn root_collector_renders_one_lane_per_thread_and_notes_drops() {
        let _guard = crate::test_enabled_lock();
        let collector = Collector::begin(None, 3);
        {
            let _attach = attach(&collector, 0);
            let _outer = crate::span!("root_main");
            let handle = handle().expect("attached");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _attach = handle.attach();
                    let _span = crate::span!("root_worker");
                });
            });
        }
        collector.add_synthetic("fits", 0, 0.0, 1.0);
        collector.add_synthetic("overflows", 0, 0.0, 1.0);
        assert_eq!(collector.dropped(), 1);
        let chrome = collector.render_chrome("cli");
        let tid_of = |name: &str| {
            let at = chrome
                .find(&format!("\"name\":\"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing: {chrome}"));
            let rest = &chrome[at..];
            let rest = &rest[rest.find("\"tid\":").expect("tid") + 6..];
            rest[..rest.find(',').expect("tid ends")].to_owned()
        };
        assert!(chrome.contains("\"args\":{\"name\":\"cli\"}"), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert_ne!(
            tid_of("root_main"),
            tid_of("root_worker"),
            "each thread gets its own lane: {chrome}"
        );
        assert_eq!(
            tid_of("root_main"),
            tid_of("fits"),
            "same thread, same lane"
        );
        assert!(chrome.contains("obs: 1 spans dropped"), "{chrome}");
        let opens = chrome.matches('{').count();
        assert_eq!(opens, chrome.matches('}').count(), "balanced JSON");
    }
}

/// The header parsers read bytes from other processes, so they must be
/// total: arbitrary and mutated input never panics, a collector never
/// retains more than its cap, and valid headers round-trip.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `valid` with the byte at each `(index, mask)` XORed by a non-zero
    /// mask, read as UTF-8 lossily (header values reach the parsers as
    /// strings).
    fn mutate(valid: &str, flips: &[(usize, u8)]) -> String {
        let mut bytes = valid.as_bytes().to_vec();
        for &(at, mask) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask.max(1);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// A span name drawn from the characters header encoding keeps.
    fn name(seed: u64) -> String {
        const ALPHABET: &[u8] = b"abcz09_-.:@/";
        (0..1 + seed % 12)
            .map(|i| char::from(ALPHABET[((seed >> (i * 4)) % ALPHABET.len() as u64) as usize]))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn context_parse_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..96)) {
            if let Some(ctx) = TraceContext::parse(&String::from_utf8_lossy(&bytes)) {
                prop_assert_eq!(TraceContext::parse(&ctx.encode()), Some(ctx));
            }
        }

        #[test]
        fn context_round_trips_and_survives_mutation(
            hi in any::<u64>(),
            lo in any::<u64>(),
            parent_span in any::<u64>(),
            hop in any::<u32>(),
            flips in vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            let ctx = TraceContext {
                trace_id: (u128::from(hi) << 64) | u128::from(lo),
                parent_span,
                hop,
            };
            let encoded = ctx.encode();
            prop_assert_eq!(TraceContext::parse(&encoded), Some(ctx));
            if let Some(parsed) = TraceContext::parse(&mutate(&encoded, &flips)) {
                prop_assert_eq!(TraceContext::parse(&parsed.encode()), Some(parsed));
            }
        }

        #[test]
        fn span_ingest_never_panics_and_stays_bounded(
            bytes in vec(any::<u8>(), 0..256),
            max_spans in 0usize..6,
        ) {
            let collector = Collector::begin(None, max_spans);
            let header = String::from_utf8_lossy(&bytes);
            collector.ingest_remote(&header, 0.0);
            collector.ingest_remote(&format!("node=n;{header}"), 5.0);
            prop_assert!(collector.spans().len() <= max_spans);
        }

        #[test]
        fn span_headers_round_trip_and_survive_mutation(
            spans in vec((any::<u64>(), any::<u64>(), 0u32..1_000_000, 0u32..100_000), 0..40),
            flips in vec((any::<usize>(), any::<u8>()), 1..6),
            max_spans in 0usize..48,
        ) {
            let origin = Collector::begin(None, MAX_SPANS_PER_TRACE);
            for &(seed, parent, start, dur) in &spans {
                // Whole tenths survive the header's one-decimal format.
                origin.add_synthetic(&name(seed), parent, f64::from(start) / 10.0, f64::from(dur) / 10.0);
            }
            let header = origin.encode_spans("shard-3");

            let copy = Collector::begin(None, MAX_SPANS_PER_TRACE);
            copy.ingest_remote(&header, 0.0);
            let sent = origin.spans();
            let got = copy.spans();
            prop_assert_eq!(got.len(), sent.len());
            for (got, sent) in got.iter().zip(&sent) {
                prop_assert_eq!(&got.name, &sent.name);
                prop_assert_eq!(got.span_id, sent.span_id);
                prop_assert_eq!(got.parent_id, sent.parent_id);
                prop_assert_eq!(got.start_micros, sent.start_micros);
                prop_assert_eq!(got.dur_micros, sent.dur_micros);
                prop_assert_eq!(got.node.as_deref(), Some("shard-3"));
            }

            let bounded = Collector::begin(None, max_spans);
            bounded.ingest_remote(&mutate(&header, &flips), 0.0);
            prop_assert!(bounded.spans().len() <= max_spans);
        }
    }
}
