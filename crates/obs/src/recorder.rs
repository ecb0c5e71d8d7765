use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of fixed power-of-two buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 48;

/// How many finished spans a [`Recorder`] retains before evicting the
/// oldest — the bound that keeps a long-lived server's trace store from
/// growing without limit. Evictions are counted in
/// [`Snapshot::spans_dropped`].
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A fixed-bucket latency histogram over nanoseconds.
///
/// Bucket `i` counts samples `v` with `2^(i-1) <= v < 2^i` (bucket 0 holds
/// `v == 0`), so the whole `u64` nanosecond range fits in
/// [`HIST_BUCKETS`] buckets at 2× resolution — enough to tell a 2µs
/// schedule from a 2ms one without configuring bounds per metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample (0 when empty).
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HIST_BUCKETS], count: 0, sum_ns: 0, min_ns: 0, max_ns: 0 }
    }
}

impl Histogram {
    /// The bucket index for a sample.
    pub fn bucket_of(value_ns: u64) -> usize {
        ((64 - value_ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value_ns: u64) {
        self.counts[Self::bucket_of(value_ns)] += 1;
        self.sum_ns += value_ns;
        self.min_ns = if self.count == 0 { value_ns } else { self.min_ns.min(value_ns) };
        self.max_ns = self.max_ns.max(value_ns);
        self.count += 1;
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) from the fixed
    /// power-of-two buckets, interpolating linearly inside the bucket that
    /// holds the rank and clamping to the exact observed `[min, max]`
    /// range. Returns 0 on an empty histogram.
    ///
    /// Buckets are 2× wide, so the estimate is within a factor of two of
    /// the true quantile — sufficient to tell a 50µs p50 from a 5ms p99,
    /// which is what a latency report needs.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank of the quantile sample, 1-based: ceil(q * count).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Bucket i spans [2^(i-1), 2^i); interpolate by the
                // fraction of the bucket's samples below the rank.
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0u64
                } else if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                let into = (rank - seen).saturating_sub(1) as f64;
                let frac = if c > 1 { into / (c - 1) as f64 } else { 0.0 };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min_ns, self.max_ns);
            }
            seen += c;
        }
        self.max_ns
    }
}

/// One finished span: a named phase with its position in a trace tree, its
/// offset from session start and its wall-clock duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`engine_plan`, `sched_srs`, …).
    pub name: &'static str,
    /// The trace this span belongs to — every span in one request tree
    /// shares it. A root span's `trace_id` equals its `span_id`.
    pub trace_id: u64,
    /// This span's unique identifier (FNV-mixed sequence number, never 0).
    pub span_id: u64,
    /// The enclosing span's `span_id`, or 0 for a root span.
    pub parent_id: u64,
    /// Ordinal of the thread that recorded the span (stable per thread,
    /// assigned on first use; used as the Chrome-trace `tid`).
    pub tid: u32,
    /// Start offset from the session epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
}

/// Process-wide span-ID sequence; mixed through FNV so IDs are
/// well-distributed yet fully deterministic (no random per-process seed).
/// Threads draw it in blocks of [`SPAN_ID_BLOCK`].
static NEXT_SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
/// Number of threads with an adopted sink (see [`crate::TraceContext`]).
static ADOPTED_SINKS: AtomicUsize = AtomicUsize::new(0);
/// Process-wide thread ordinal sequence (0 is reserved for "unassigned").
static NEXT_THREAD_SEQ: AtomicU32 = AtomicU32::new(1);

/// How many span-ID sequence numbers a thread reserves at a time.
const SPAN_ID_BLOCK: u64 = 1024;

/// How many finished spans a thread buffers before it flushes them anyway.
const PENDING_CAPACITY: usize = 64;

/// A stable small ordinal for the calling thread, assigned on first use.
pub fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|cell| {
        let current = cell.get();
        if current != 0 {
            return current;
        }
        let assigned = NEXT_THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
        cell.set(assigned);
        assigned
    })
}

/// One level of the thread-local span stack: the ids a child span started
/// on this thread would inherit.
#[derive(Debug, Clone, Copy)]
struct Frame {
    trace_id: u64,
    span_id: u64,
}

thread_local! {
    /// The span bookkeeping of the current thread.
    static THREAD: RefCell<ThreadSpans> = const { RefCell::new(ThreadSpans::new()) };
    static THREAD_ORDINAL: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// A finished span waiting in its thread's buffer.
#[derive(Debug)]
struct Finished {
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    started: Instant,
    ended: Instant,
}

/// The recorder a thread's buffered spans belong to: the global one, or a
/// sink adopted through a [`crate::TraceContext`].
#[derive(Debug)]
enum Owner {
    Global(&'static Recorder),
    Shared(Arc<Recorder>),
}

impl Owner {
    fn recorder(&self) -> &Recorder {
        match self {
            Owner::Global(r) => r,
            Owner::Shared(r) => r,
        }
    }
}

/// One thread's span bookkeeping: its adopted sink, its open-span stack,
/// its block of span IDs, and the spans it finished but has not yet handed
/// to their recorder.
///
/// Finished spans are handed over in batches, under one lock acquisition
/// instead of one per span. Spans of the global recorder and of adopted
/// sinks are buffered, and so are spans of any recorder the buffer already
/// holds; another borrowed recorder is locked per span, since a buffer that
/// outlives the borrow could not reach it. The buffer flushes when the
/// thread's outermost span ends, when an adopted [`crate::TraceContext`]
/// is left, when it holds [`PENDING_CAPACITY`] spans or a span of another
/// recorder arrives, before this thread reads or resets any recorder, and
/// when the thread exits — so a recorder holds every span whose thread has
/// left its outermost span.
#[derive(Debug)]
struct ThreadSpans {
    /// When set, `span!` records into this recorder instead of the global
    /// one — how a serve connection thread redirects library spans into
    /// the server's private recorder.
    sink: Option<Arc<Recorder>>,
    /// The open-span stack; the top frame is the parent of the next span
    /// started here.
    frames: Vec<Frame>,
    /// The unused part `next_seq..end_seq` of this thread's ID block.
    next_seq: u64,
    end_seq: u64,
    owner: Option<Owner>,
    pending: Vec<Finished>,
}

impl ThreadSpans {
    const fn new() -> Self {
        ThreadSpans {
            sink: None,
            frames: Vec::new(),
            next_seq: 0,
            end_seq: 0,
            owner: None,
            pending: Vec::new(),
        }
    }

    /// Opens a span on `sink`: a fresh ID, nested under the top frame.
    fn begin<'a>(&mut self, sink: SinkRef<'a>, name: &'static str) -> SpanActive<'a> {
        let span_id = self.next_span_id();
        let (trace_id, parent_id) = match self.frames.last() {
            Some(top) => (top.trace_id, top.span_id),
            None => (span_id, 0),
        };
        self.frames.push(Frame { trace_id, span_id });
        SpanActive { sink, name, started: Instant::now(), trace_id, span_id, parent_id }
    }

    fn next_span_id(&mut self) -> u64 {
        if self.next_seq == self.end_seq {
            self.next_seq = NEXT_SPAN_SEQ.fetch_add(SPAN_ID_BLOCK, Ordering::Relaxed);
            self.end_seq = self.next_seq + SPAN_ID_BLOCK;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        dmf_hash::mix64(seq).max(1)
    }

    /// Pops the frame of `span_id` and any a leaked inner guard left above
    /// it, so one forgotten span cannot corrupt later parents.
    fn pop_frame(&mut self, span_id: u64) {
        if let Some(pos) = self.frames.iter().rposition(|f| f.span_id == span_id) {
            self.frames.truncate(pos);
        }
    }

    /// Whether spans of `sink` may join the buffer, switching its owner
    /// (after flushing the previous owner's spans) when they can.
    #[inline]
    fn hold(&mut self, sink: &SinkRef<'_>) -> bool {
        if self.owner.as_ref().is_some_and(|o| std::ptr::eq(o.recorder(), sink.recorder())) {
            return true;
        }
        let Some(owner) = sink.owner() else {
            return false;
        };
        self.flush();
        self.owner = Some(owner);
        true
    }

    /// Hands the buffered spans to their recorder and lets go of it, so a
    /// thread never keeps an adopted sink alive once its spans are in.
    fn flush(&mut self) {
        if let Some(owner) = self.owner.take() {
            if !self.pending.is_empty() {
                owner.recorder().push_finished(&mut self.pending);
            }
        }
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Hands the calling thread's buffered spans to their recorder.
pub(crate) fn flush_pending() {
    let _ = THREAD.try_with(|spans| spans.borrow_mut().flush());
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: VecDeque<SpanRecord>,
    span_capacity: usize,
    spans_dropped: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Span-duration histograms, one per distinct span name (the name at
    /// the same index of `span_hist_names`) — no per-span `String`
    /// allocation on the hot path. Merged into `histograms` as
    /// `span.<name>` at snapshot time.
    span_hist_names: Vec<&'static str>,
    span_hists: Vec<Histogram>,
}

impl Inner {
    fn new(span_capacity: usize) -> Self {
        Inner {
            epoch: Instant::now(),
            spans: VecDeque::new(),
            span_capacity,
            spans_dropped: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_hist_names: Vec::new(),
            span_hists: Vec::new(),
        }
    }

    fn push_finished(&mut self, span: Finished, tid: u32) {
        let Finished { name, trace_id, span_id, parent_id, started, ended } = span;
        let nanos = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let start_ns = nanos(started.duration_since(self.epoch));
        let dur_ns = nanos(ended.duration_since(started));
        self.push_span(SpanRecord { name, trace_id, span_id, parent_id, tid, start_ns, dur_ns });
    }

    fn push_span(&mut self, record: SpanRecord) {
        if self.spans.len() >= self.span_capacity {
            self.spans.pop_front();
            self.spans_dropped += 1;
        }
        self.span_hist(record.name).record(record.dur_ns);
        self.spans.push_back(record);
    }

    /// The duration histogram of span `name`. A span site's name is one
    /// static string, so a pointer comparison finds it; equal names at
    /// other addresses share the entry.
    fn span_hist(&mut self, name: &'static str) -> &mut Histogram {
        let names = &self.span_hist_names;
        let index = names
            .iter()
            .position(|&n| std::ptr::eq(n, name))
            .or_else(|| names.iter().position(|&n| n == name))
            .unwrap_or_else(|| {
                self.span_hist_names.push(name);
                self.span_hists.push(Histogram::default());
                self.span_hists.len() - 1
            });
        &mut self.span_hists[index]
    }
}

/// A thread-safe metric store: span trees, counters, gauges and
/// histograms.
///
/// Instrumented hot paths call [`Recorder::span`] / [`Recorder::count`] /
/// [`Recorder::gauge_max`]; each checks one atomic flag first, so a
/// disabled recorder costs a single relaxed load and performs **no
/// allocation** — the contract that lets every crate in the pipeline stay
/// instrumented unconditionally.
///
/// Spans started while another span guard is live on the same thread
/// nest: each carries a `span_id`, its parent's `span_id` and the shared
/// `trace_id` of the outermost span, maintained by a thread-local stack so
/// existing call sites form trees with no code changes. Cross-thread
/// edges are added explicitly with [`crate::TraceContext`].
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder (for injection into tests and embedders).
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::new(DEFAULT_SPAN_CAPACITY)),
        }
    }

    /// A disabled recorder — what [`crate::global`] starts as.
    pub fn disabled() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::new(DEFAULT_SPAN_CAPACITY)),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Enabling does not clear prior data;
    /// call [`Recorder::reset`] for a fresh session.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Bounds the retained-span window to `capacity` entries (clamped to
    /// at least 1); the oldest spans are evicted beyond it and counted in
    /// [`Snapshot::spans_dropped`]. Long-lived servers use a small window;
    /// one-shot profiling runs keep [`DEFAULT_SPAN_CAPACITY`].
    pub fn set_span_capacity(&self, capacity: usize) {
        self.lock().span_capacity = capacity.max(1);
    }

    /// Clears all recorded data and restarts the session epoch, keeping
    /// the configured span capacity.
    pub fn reset(&self) {
        flush_pending();
        let mut inner = self.lock();
        // Cleared in place, so a recorder reset per measurement window
        // keeps its span ring's allocation.
        inner.epoch = Instant::now();
        inner.spans.clear();
        inner.spans_dropped = 0;
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
        inner.span_hist_names.clear();
        inner.span_hists.clear();
    }

    // A thread that panicked while recording leaves at worst one sample
    // partly counted; the collections themselves stay valid, and telemetry
    // must not take every later caller down with it, so the guard is
    // recovered rather than propagated.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a span; dropping the returned guard records it. Inert (and
    /// allocation-free, modulo the span stack's amortised capacity) when
    /// the recorder is disabled.
    ///
    /// The span nests under the newest span still open on this thread (or
    /// an adopted [`crate::TraceContext`]); with neither it becomes a
    /// trace root whose `trace_id` is its own `span_id`.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { active: None };
        }
        let active = THREAD.with(|spans| spans.borrow_mut().begin(SinkRef::Borrowed(self), name));
        Span { active: Some(active) }
    }

    /// An adoptable handle rooting future spans (on any thread) under the
    /// `(trace_id, parent_id)` edge, recording into this recorder; see
    /// [`crate::TraceContext::enter`].
    pub fn trace_context(self: &Arc<Self>, trace_id: u64, parent_id: u64) -> crate::TraceContext {
        crate::TraceContext { sink: Some(Arc::clone(self)), trace_id, parent_id }
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(v) = inner.counters.get_mut(name) {
            *v += delta;
        } else {
            inner.counters.insert(name.to_owned(), delta);
        }
    }

    /// The current value of counter `name` (0 when the counter has never
    /// been bumped). Cheaper than [`Recorder::snapshot`] when only one
    /// counter is needed — e.g. a test polling a server's progress.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(v) = inner.gauges.get_mut(name) {
            *v = value;
        } else {
            inner.gauges.insert(name.to_owned(), value);
        }
    }

    /// Raises gauge `name` to `value` if it is higher than the current
    /// reading — the natural update for peaks such as storage occupancy.
    pub fn gauge_max(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(v) = inner.gauges.get_mut(name) {
            *v = (*v).max(value);
        } else {
            inner.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records a duration sample into histogram `name` without a span.
    pub fn record_duration(&self, name: &str, duration: Duration) {
        if !self.is_enabled() {
            return;
        }
        let ns = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.lock();
        inner.histograms.entry(name.to_owned()).or_default().record(ns);
    }

    /// Records one finished span now, under its own lock acquisition.
    fn finish_span(&self, span: Finished) {
        let tid = thread_ordinal();
        let mut inner = self.lock();
        inner.push_finished(span, tid);
    }

    /// Records (and drains) a thread's buffered spans under one lock
    /// acquisition.
    fn push_finished(&self, spans: &mut Vec<Finished>) {
        let tid = thread_ordinal();
        let mut inner = self.lock();
        for span in spans.drain(..) {
            inner.push_finished(span, tid);
        }
    }

    /// The recorded spans belonging to `trace_id`, in start order — the
    /// per-request stage breakdown a serve `plan` response embeds when the
    /// client asks for a trace.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        flush_pending();
        let inner = self.lock();
        let mut spans: Vec<SpanRecord> =
            inner.spans.iter().filter(|s| s.trace_id == trace_id).cloned().collect();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        spans
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        flush_pending();
        let inner = self.lock();
        let mut histograms = inner.histograms.clone();
        for (name, h) in inner.span_hist_names.iter().zip(&inner.span_hists) {
            histograms.insert(format!("span.{name}"), h.clone());
        }
        Snapshot {
            elapsed_ns: inner.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            spans: inner.spans.iter().cloned().collect(),
            spans_dropped: inner.spans_dropped,
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms,
        }
    }

    /// Serializes the current session as JSON lines (see
    /// [`Snapshot::write_jsonl`] for the schema).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        self.snapshot().write_jsonl(w)
    }

    /// Writes the session's JSONL to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn export_jsonl_path(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.export_jsonl(&mut file)
    }
}

/// Where a live span will record on drop: a borrowed recorder
/// ([`Recorder::span`]) or a shared one (the thread's adopted sink).
#[derive(Debug)]
enum SinkRef<'a> {
    Borrowed(&'a Recorder),
    Shared(Arc<Recorder>),
}

impl SinkRef<'_> {
    fn recorder(&self) -> &Recorder {
        match self {
            SinkRef::Borrowed(r) => r,
            SinkRef::Shared(r) => r,
        }
    }

    /// The owner a thread's span buffer may hold this sink's spans under,
    /// or `None` for a recorder borrowed from elsewhere than the global.
    fn owner(&self) -> Option<Owner> {
        match self {
            SinkRef::Borrowed(r) if std::ptr::eq(*r, crate::global()) => {
                Some(Owner::Global(crate::global()))
            }
            SinkRef::Borrowed(_) => None,
            SinkRef::Shared(r) => Some(Owner::Shared(Arc::clone(r))),
        }
    }
}

#[derive(Debug)]
struct SpanActive<'a> {
    sink: SinkRef<'a>,
    name: &'static str,
    started: Instant,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
}

/// Starts a span on the thread's adopted sink recorder if one is set (see
/// [`crate::TraceContext::enter`]), falling back to the [`crate::global`]
/// recorder — the function behind the [`crate::span!`] macro.
pub fn current_span(name: &'static str) -> Span<'static> {
    // With no sink adopted anywhere and the global recorder off, nothing
    // can record: skip the thread-local state altogether.
    if ADOPTED_SINKS.load(Ordering::Relaxed) == 0 && !crate::global().is_enabled() {
        return Span { active: None };
    }
    THREAD.with(|spans| {
        let mut spans = spans.borrow_mut();
        let sink = match &spans.sink {
            Some(recorder) if recorder.is_enabled() => SinkRef::Shared(Arc::clone(recorder)),
            None if crate::global().is_enabled() => SinkRef::Borrowed(crate::global()),
            _ => return Span { active: None },
        };
        Span { active: Some(spans.begin(sink, name)) }
    })
}

pub(crate) fn current_sink() -> Option<Arc<Recorder>> {
    THREAD.with(|spans| spans.borrow().sink.clone())
}

pub(crate) fn swap_sink(next: Option<Arc<Recorder>>) -> Option<Arc<Recorder>> {
    let adopting = next.is_some();
    let previous = THREAD.with(|spans| std::mem::replace(&mut spans.borrow_mut().sink, next));
    match (previous.is_some(), adopting) {
        (false, true) => ADOPTED_SINKS.fetch_add(1, Ordering::Relaxed),
        (true, false) => ADOPTED_SINKS.fetch_sub(1, Ordering::Relaxed),
        _ => 0,
    };
    previous
}

pub(crate) fn current_frame() -> Option<(u64, u64)> {
    THREAD.with(|spans| spans.borrow().frames.last().map(|f| (f.trace_id, f.span_id)))
}

pub(crate) fn push_frame(trace_id: u64, span_id: u64) {
    THREAD.with(|spans| spans.borrow_mut().frames.push(Frame { trace_id, span_id }));
}

pub(crate) fn pop_frame(span_id: u64) {
    THREAD.with(|spans| spans.borrow_mut().pop_frame(span_id));
}

/// A guard returned by [`Recorder::span`]; records the span when dropped.
#[must_use = "a span records when the guard drops; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    active: Option<SpanActive<'a>>,
}

impl Span<'_> {
    /// The `(trace_id, span_id)` pair of a recording span, or `None` when
    /// the recorder was disabled. Feed these to
    /// [`Recorder::trace_context`] to parent work on another thread under
    /// this span.
    pub fn ids(&self) -> Option<(u64, u64)> {
        self.active.as_ref().map(|a| (a.trace_id, a.span_id))
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let ended = Instant::now();
        THREAD.with(|spans| {
            let mut spans = spans.borrow_mut();
            spans.pop_frame(active.span_id);
            let recorder = active.sink.recorder();
            if !recorder.is_enabled() {
                return;
            }
            let span = Finished {
                name: active.name,
                trace_id: active.trace_id,
                span_id: active.span_id,
                parent_id: active.parent_id,
                started: active.started,
                ended,
            };
            if !spans.hold(&active.sink) {
                recorder.finish_span(span);
                return;
            }
            spans.pending.push(span);
            if spans.pending.len() >= PENDING_CAPACITY || spans.frames.is_empty() {
                spans.flush();
            }
        });
    }
}

/// An immutable copy of one recorded session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Nanoseconds from session epoch to the snapshot.
    pub elapsed_ns: u64,
    /// Finished spans in completion order (oldest evicted beyond the
    /// recorder's span capacity).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the bounded window before this snapshot.
    pub spans_dropped: u64,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name (spans feed `span.<name>`).
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Writes the session as JSON lines with a stable schema and field
    /// order:
    ///
    /// ```text
    /// {"type":"meta","version":2,"elapsed_ns":…,"spans_dropped":…}
    /// {"type":"span","name":…,"trace_id":"<16 hex>","span_id":"<16 hex>","parent_id":"<16 hex>","tid":…,"start_ns":…,"dur_ns":…}
    /// {"type":"counter","name":…,"value":…}
    /// {"type":"gauge","name":…,"value":…}
    /// {"type":"hist","name":…,"count":…,"sum_ns":…,"min_ns":…,"max_ns":…,"buckets":[[i,c],…]}
    /// ```
    ///
    /// IDs are 16-hex-digit strings (not JSON numbers) so consumers that
    /// parse numbers as doubles cannot corrupt them; `parent_id` is
    /// `"0000000000000000"` for a root span.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        use crate::json::escape;
        writeln!(
            w,
            "{{\"type\":\"meta\",\"version\":2,\"elapsed_ns\":{},\"spans_dropped\":{}}}",
            self.elapsed_ns, self.spans_dropped
        )?;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"name\":\"{}\",\"trace_id\":\"{:016x}\",\
                 \"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",\"tid\":{},\
                 \"start_ns\":{},\"dur_ns\":{}}}",
                escape(s.name),
                s.trace_id,
                s.span_id,
                s.parent_id,
                s.tid,
                s.start_ns,
                s.dur_ns
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                escape(name)
            )?;
        }
        for (name, value) in &self.gauges {
            writeln!(w, "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}", escape(name))?;
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> =
                h.nonzero_buckets().iter().map(|(i, c)| format!("[{i},{c}]")).collect();
            writeln!(
                w,
                "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}",
                escape(name),
                h.count,
                h.sum_ns,
                h.min_ns,
                h.max_ns,
                buckets.join(",")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_peak() {
        let rec = Recorder::new();
        rec.count("mixes", 3);
        rec.count("mixes", 4);
        rec.gauge_max("peak", 5);
        rec.gauge_max("peak", 2);
        rec.gauge_set("exact", 9);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["mixes"], 7);
        assert_eq!(snap.gauges["peak"], 5);
        assert_eq!(snap.gauges["exact"], 9);
        assert_eq!(rec.counter("mixes"), 7);
        assert_eq!(rec.counter("never"), 0);
    }

    #[test]
    fn spans_record_duration_and_histogram() {
        let rec = Recorder::new();
        {
            let _g = rec.span("phase_a");
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "phase_a");
        assert!(snap.spans[0].dur_ns >= 1_000_000, "slept 2ms");
        let h = &snap.histograms["span.phase_a"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_ns, snap.spans[0].dur_ns);
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let rec = Recorder::new();
        {
            let outer = rec.span("outer");
            let (outer_trace, outer_id) = outer.ids().unwrap();
            assert_eq!(outer_trace, outer_id, "a root's trace_id is its span_id");
            {
                let inner = rec.span("inner");
                let (inner_trace, inner_id) = inner.ids().unwrap();
                assert_eq!(inner_trace, outer_trace);
                assert_ne!(inner_id, outer_id);
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner finishes first.
        let inner = &snap.spans[0];
        let outer = &snap.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(outer.trace_id, outer.span_id);
        assert!(inner.tid > 0);
    }

    #[test]
    fn sibling_roots_get_distinct_traces() {
        let rec = Recorder::new();
        {
            let _a = rec.span("a");
        }
        {
            let _b = rec.span("b");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_ne!(snap.spans[0].trace_id, snap.spans[1].trace_id);
        assert!(snap.spans.iter().all(|s| s.parent_id == 0));
    }

    #[test]
    fn buffered_spans_reach_the_recorder_before_any_read() {
        let rec = Arc::new(Recorder::new());
        let ctx = rec.trace_context(7, 9);
        {
            let _adopted = ctx.enter();
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner");
            }
            // Read while `outer` is still open: the finished span is there.
            let spans = rec.trace_spans(7);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].name, "inner");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[1].parent_id, 9, "outer hangs under the adopted parent");
        // More spans than one buffer holds, all under one open span.
        {
            let _adopted = ctx.enter();
            let _outer = crate::span!("outer");
            for _ in 0..3 * PENDING_CAPACITY {
                let _tick = crate::span!("tick");
            }
        }
        assert_eq!(rec.snapshot().histograms["span.tick"].count, 3 * PENDING_CAPACITY as u64);
    }

    #[test]
    fn span_window_is_bounded_and_counts_evictions() {
        let rec = Recorder::new();
        rec.set_span_capacity(4);
        for _ in 0..10 {
            let _s = rec.span("tick");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.spans_dropped, 6);
        // The histogram still saw every span.
        assert_eq!(snap.histograms["span.tick"].count, 10);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        {
            let g = rec.span("never");
            assert!(g.ids().is_none());
        }
        rec.count("never", 1);
        rec.gauge_max("never", 1);
        rec.record_duration("never", Duration::from_secs(1));
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn reset_clears_the_session() {
        let rec = Recorder::new();
        rec.count("x", 1);
        rec.set_span_capacity(7);
        rec.reset();
        assert!(rec.snapshot().counters.is_empty());
        // Capacity survives the reset.
        for _ in 0..9 {
            let _s = rec.span("tick");
        }
        assert_eq!(rec.snapshot().spans.len(), 7);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count, 3);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 1000);
        assert_eq!(h.mean_ns(), 334);
        assert_eq!(h.nonzero_buckets().len(), 3);
    }

    #[test]
    fn percentiles_are_ordered_and_clamped() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for v in [100u64, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        assert!(p50 >= h.min_ns && p99 <= h.max_ns);
        // The p99 of this spread must land in the top decade.
        assert!(p99 > 25_600, "p99={p99}");
        // A single-sample histogram pins every percentile to that sample.
        let mut one = Histogram::default();
        one.record(777);
        assert_eq!(one.percentile(0.5), 777);
        assert_eq!(one.percentile(0.99), 777);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let rec = std::sync::Arc::new(Recorder::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        rec.count("shared", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.snapshot().counters["shared"], 8000);
    }
}
