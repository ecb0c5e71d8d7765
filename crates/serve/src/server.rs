//! The planning server: accept loop and connection threads.
//!
//! ```text
//! clients ──TCP──▶ connection threads: parse, cache lookup
//!                    │ hit  ──▶ encode
//!                    │ miss ──▶ wait for a planner permit ──▶ plan ──▶ encode
//!                    ▼
//!                  one write per read batch of replies
//! ```
//!
//! Every thread is scoped ([`std::thread::scope`]), so [`Server::run`]
//! returns only after all connections have exited — no detached threads
//! outlive the server. Each request is answered on its own connection
//! thread. Control requests (`ping`, `stats`, `shutdown`) and plan
//! requests whose key is already cached are answered at once; a cache
//! miss (or a `stall`) first takes one of `workers` planner permits, so
//! at most that many plans run at once and a planner stampede degrades
//! into fast `busy` rejections once `queue_depth` requests wait.
//!
//! Framing: accepted sockets run with `TCP_NODELAY`, and a connection
//! collects the replies to every complete line of one read into a single
//! buffer that goes out in one `write_all` — one segment per reply batch,
//! never a response and its `\n` split across two writes.

use crate::permits::{Permits, Refusal};
use crate::protocol::{self, PlanSpec, Request};
use dmf_engine::{PlanCache, PlanKey, StreamPlan, StreamingEngine, DEFAULT_PLAN_CACHE_CAPACITY};
use dmf_obs::Recorder;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked I/O loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Per-connection socket read timeout; bounds shutdown latency.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Longest request line a connection may send, in bytes (without its
/// `\n`). A longer line — terminated or not — is answered `bad_request`
/// and the connection is hung up, so one client that never sends a
/// newline cannot grow the server's memory without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bytes one socket read may take; the replies to the complete lines it
/// holds go out together in one write.
const READ_CHUNK: usize = 16 * 1024;

/// Configuration of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Plans in flight at once: a cache miss (or a `stall`) holds one of
    /// this many planner permits while it runs on its connection thread.
    pub workers: usize,
    /// Waiters: how many requests may wait for a planner permit, in
    /// arrival order; one more is answered `busy`.
    pub queue_depth: usize,
    /// Plan-cache capacity in entries (LRU beyond that).
    pub cache_capacity: usize,
    /// Plan-cache shard count: independently locked slices of the cache,
    /// selected by plan-key fingerprint, so concurrent connections contend
    /// only when they hit the same shard. Clamped to
    /// `1..=`[`dmf_engine::MAX_PLAN_CACHE_SHARDS`] and to the capacity.
    pub cache_shards: usize,
    /// Default per-request queueing deadline, milliseconds. A request
    /// still waiting for a planner permit after this long is answered
    /// with a `deadline` error instead of being planned; `"deadline_ms"`
    /// on the request overrides it.
    pub default_deadline_ms: u64,
    /// Slow-request threshold, milliseconds: a plan or stall request whose
    /// latency (see `serve.latency` in `DESIGN.md` §13) reaches it is
    /// logged to stderr with its trace ID and counted under `serve.slow`.
    /// `None` disables the log.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()).min(4),
            queue_depth: 64,
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            cache_shards: dmf_engine::default_shard_count(),
            default_deadline_ms: 10_000,
            slow_ms: None,
        }
    }
}

/// How many finished spans the server's recorder retains; old request
/// trees are evicted beyond this, which keeps a long-lived server's
/// memory bounded while leaving plenty of room to fetch the stage
/// breakdown of any in-flight trace.
const SERVE_SPAN_CAPACITY: usize = 8_192;

/// A bound planning service; see the crate docs for the protocol.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    cache: Arc<PlanCache>,
    recorder: Arc<Recorder>,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds the listener and builds the shared plan cache.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission, …).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = config.addr.to_socket_addrs()?.next().map_or_else(
            || Err(io::Error::new(io::ErrorKind::InvalidInput, "empty bind address")),
            TcpListener::bind,
        )?;
        let cache =
            PlanCache::shared_with_capacity_and_shards(config.cache_capacity, config.cache_shards);
        let recorder = Arc::new(Recorder::new());
        recorder.set_span_capacity(SERVE_SPAN_CAPACITY);
        Ok(Server { listener, config, cache, recorder, shutdown: AtomicBool::new(false) })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The server-owned metric recorder backing `stats` responses.
    pub fn recorder(&self) -> &Recorder {
        self.recorder.as_ref()
    }

    /// Requests shutdown from outside the protocol (e.g. a signal
    /// handler); equivalent to a client sending `{"op":"shutdown"}`.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serves until a shutdown request arrives, then drains: requests
    /// already waiting for a planner permit are still answered, every
    /// connection thread is joined, and only then does `run` return.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures; per-connection I/O errors only
    /// terminate that connection.
    pub fn run(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let permits = Permits::new(self.config.workers, self.config.queue_depth);
        std::thread::scope(|s| {
            let result = self.accept_loop(s, &permits);
            // From here on a miss is refused `shutting_down`; requests
            // already in line are still planned before the scope joins.
            permits.close();
            result
        })
    }

    fn accept_loop<'scope>(
        &'scope self,
        s: &'scope std::thread::Scope<'scope, '_>,
        permits: &'scope Permits,
    ) -> io::Result<()> {
        loop {
            if self.shutting_down() {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.recorder.count("serve.connections", 1);
                    s.spawn(move || self.handle_connection(stream, permits));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads newline-delimited requests off one socket and answers each
    /// with one response line. Partial lines survive read timeouts: only
    /// the newly read bytes are scanned for `\n`, and complete lines are
    /// consumed by offset. The replies to every complete line of one read
    /// are collected and sent with a single `write_all` once the read
    /// buffer holds no further complete line.
    fn handle_connection(&self, mut stream: TcpStream, permits: &Permits) {
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err()
        {
            return;
        }
        // Engine `span!` sites record into the server's recorder, under
        // the request's root span (the context names no parent of its own).
        let _sink = self.recorder.trace_context(0, 0).enter();
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut pending: Vec<u8> = Vec::new();
        let mut out: Vec<u8> = Vec::new();
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutting_down() {
                        break;
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Bytes before `scan` were already searched on an earlier read.
            let mut scan = pending.len();
            pending.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            let (mut overlong, mut stop) = (false, false);
            while let Some(offset) = pending[scan..].iter().position(|&b| b == b'\n') {
                let line = &pending[consumed..scan + offset];
                consumed = scan + offset + 1;
                scan = consumed;
                if line.len() > MAX_LINE_BYTES {
                    overlong = true;
                    break;
                }
                let line = String::from_utf8_lossy(line);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (response, hang_up) = self.process_line(line, permits);
                push_line(&mut out, &response);
                if hang_up {
                    stop = true;
                    break;
                }
            }
            pending.drain(..consumed);
            if overlong || (!stop && pending.len() > MAX_LINE_BYTES) {
                push_line(&mut out, &self.overlong_line_response());
                stop = true;
            }
            if !out.is_empty() && stream.write_all(&out).is_err() {
                break;
            }
            out.clear();
            if stop {
                // FIN after the last reply, so the client reads it and then
                // a clean EOF even if unread request bytes remain.
                let _ = stream.shutdown(Shutdown::Write);
                break;
            }
        }
    }

    /// The reply to a request line longer than [`MAX_LINE_BYTES`], after
    /// which the connection is hung up.
    fn overlong_line_response(&self) -> String {
        self.recorder.count("serve.requests", 1);
        self.recorder.count("serve.bad_request", 1);
        protocol::error_response(
            "bad_request",
            &format!("request line longer than {MAX_LINE_BYTES} bytes; closing the connection"),
        )
    }

    /// Turns one request line into one response line; the flag asks the
    /// connection loop to hang up (after a shutdown acknowledgement).
    ///
    /// Every request runs under a `serve_request` root span; decoding is
    /// a `serve_decode` child and the plan cache lookup a
    /// `serve_cache_lookup` child. A hit is encoded at once
    /// (`serve_encode`); a miss waits for a permit (`serve_queue_wait`),
    /// plans (`serve_plan`, with the engine's stages below it) and
    /// encodes — all on this thread, in one span tree.
    fn process_line(&self, line: &str, permits: &Permits) -> (String, bool) {
        let root = self.recorder.span("serve_request");
        let trace_id = root.ids().map_or(0, |(trace_id, _)| trace_id);
        self.recorder.count("serve.requests", 1);
        let parsed = {
            let _decode = self.recorder.span("serve_decode");
            protocol::parse_request(line)
        };
        match parsed {
            Err(e) => {
                // The rejection carries its own code: `infeasible` when
                // the mixability pre-pass proved no plan exists (the
                // request never takes a permit), `unknown_algo` for an
                // algorithm name no `AlgorithmId` answers to,
                // `bad_request` for malformed lines.
                self.recorder.count(
                    match e.code() {
                        "infeasible" => "serve.infeasible",
                        "unknown_algo" => "serve.unknown_algo",
                        _ => "serve.bad_request",
                    },
                    1,
                );
                (protocol::error_response(e.code(), &e.to_string()), false)
            }
            Ok(Request::Ping) => {
                self.recorder.count("serve.op.ping", 1);
                (protocol::pong_response(), false)
            }
            Ok(Request::Stats) => {
                self.recorder.count("serve.op.stats", 1);
                (self.stats_response(), false)
            }
            Ok(Request::Shutdown) => {
                self.recorder.count("serve.op.shutdown", 1);
                self.recorder.count("serve.shutdown", 1);
                self.shutdown.store(true, Ordering::Relaxed);
                (protocol::shutdown_response(), true)
            }
            Ok(Request::Plan(spec)) => {
                self.recorder.count("serve.op.plan", 1);
                let admitted = Instant::now();
                let key = PlanKey::new(&spec.config, &spec.ratio, spec.demand);
                // The request's one counted cache lookup: a miss is planned
                // without looking the key up again.
                let hit = {
                    let _lookup = self.recorder.span("serve_cache_lookup");
                    self.cache.lookup(&key)
                };
                let response = match hit {
                    Some(plan) => {
                        let response = self.plan_reply(&plan, &spec, &key, trace_id);
                        self.record_latency(admitted.elapsed(), Duration::ZERO, trace_id);
                        response
                    }
                    None => {
                        self.under_permit(permits, spec.deadline_ms, admitted, trace_id, || {
                            self.plan(&spec, &key, trace_id)
                        })
                    }
                };
                (response, false)
            }
            Ok(Request::Stall { ms }) => {
                self.recorder.count("serve.op.stall", 1);
                let response = self.under_permit(permits, None, Instant::now(), trace_id, || {
                    std::thread::sleep(Duration::from_millis(ms));
                    protocol::stalled_response(ms)
                });
                (response, false)
            }
        }
    }

    /// Runs `work` under a planner permit, waited for in a
    /// `serve_queue_wait` span; a request still waiting at its deadline
    /// (counted from `admitted`) is answered `deadline` then.
    /// `serve.enqueued` counts admissions, `serve.dequeued` permits
    /// granted, and the `serve.queue_depth` gauge peaks with the waiters.
    fn under_permit(
        &self,
        permits: &Permits,
        deadline_ms: Option<u64>,
        admitted: Instant,
        trace_id: u64,
        work: impl FnOnce() -> String,
    ) -> String {
        let deadline =
            Duration::from_millis(deadline_ms.unwrap_or(self.config.default_deadline_ms));
        let acquired = {
            let _wait = self.recorder.span("serve_queue_wait");
            // A deadline past the clock's range is no deadline.
            permits.acquire(admitted.checked_add(deadline), |waiting| {
                self.recorder.count("serve.enqueued", 1);
                if waiting > 0 {
                    self.recorder.gauge_max("serve.queue_depth", waiting as u64);
                }
            })
        };
        let waited = admitted.elapsed();
        let response = match acquired {
            Ok(_permit) => {
                self.recorder.count("serve.dequeued", 1);
                work()
            }
            Err(Refusal::Busy) => {
                self.recorder.count("serve.busy", 1);
                let waiting = self.config.queue_depth.max(1);
                return protocol::error_response(
                    "busy",
                    &format!("queue full ({waiting} waiting); retry later"),
                );
            }
            Err(Refusal::Closed) => {
                let message = "server is draining; not accepting work";
                return protocol::error_response("shutting_down", message);
            }
            Err(Refusal::Deadline) => {
                self.recorder.count("serve.deadline", 1);
                protocol::error_response(
                    "deadline",
                    &format!(
                        "request waited {}ms in queue, past its {}ms deadline",
                        waited.as_millis(),
                        deadline.as_millis()
                    ),
                )
            }
        };
        self.record_latency(admitted.elapsed(), waited, trace_id);
        response
    }

    /// Records one answered plan or stall request: its latency into the
    /// `serve.latency` histogram and, past the slow threshold, the
    /// slow-request log.
    fn record_latency(&self, total: Duration, queue_wait: Duration, trace_id: u64) {
        self.recorder.record_duration("serve.latency", total);
        if let Some(limit) = self.config.slow_ms {
            if total >= Duration::from_millis(limit) {
                self.recorder.count("serve.slow", 1);
                eprintln!(
                    "slow request: trace={trace_id:016x} total={}ms queue_wait={}ms (threshold {limit}ms)",
                    total.as_millis(),
                    queue_wait.as_millis(),
                );
            }
        }
    }

    /// Plans a cache miss under a `serve_plan` span — uncached, since the
    /// request's one lookup already missed — stores the plan in the cache
    /// and encodes the response.
    fn plan(&self, spec: &PlanSpec, key: &PlanKey, trace_id: u64) -> String {
        let outcome = {
            let _planning = self.recorder.span("serve_plan");
            let plan = StreamingEngine::new(spec.config).plan_shared(&spec.ratio, spec.demand);
            if let Ok(plan) = &plan {
                self.cache.store(key.clone(), Arc::clone(plan));
            }
            plan
        };
        match outcome {
            Ok(plan) => self.plan_reply(&plan, spec, key, trace_id),
            Err(
                e @ (dmf_engine::EngineError::Infeasible { .. }
                | dmf_engine::EngineError::ZeroDemand),
            ) => {
                // Defense in depth: parse-time feasibility should have
                // caught this, but the engine's own preflight is
                // authoritative.
                self.recorder.count("serve.infeasible", 1);
                protocol::error_response("infeasible", &e.to_string())
            }
            Err(e @ dmf_engine::EngineError::LimitExceeded { .. }) => {
                // A demand or mixer budget past the engine's bounds is a
                // bad request line, not a planner failure.
                self.recorder.count("serve.bad_request", 1);
                protocol::error_response("bad_request", &e.to_string())
            }
            Err(e) => {
                self.recorder.count("serve.plan_failed", 1);
                protocol::error_response("plan_failed", &e.to_string())
            }
        }
    }

    /// Encodes a plan response under `serve_encode` and counts it under
    /// `serve.planned` — the one encoder for cache hits and misses. When the request asked for a trace,
    /// the response embeds the request's `trace_id` and the stage
    /// breakdown recorded so far.
    fn plan_reply(
        &self,
        plan: &StreamPlan,
        spec: &PlanSpec,
        key: &PlanKey,
        trace_id: u64,
    ) -> String {
        let _encode = self.recorder.span("serve_encode");
        self.recorder.count("serve.planned", 1);
        if spec.trace {
            let stages = self.recorder.trace_spans(trace_id);
            protocol::plan_response_traced(plan, key.fingerprint(), trace_id, &stages)
        } else {
            protocol::plan_response(plan, key.fingerprint())
        }
    }

    /// The `stats` response: `serve.*` counters (including per-op
    /// counts), request-latency summary with percentile estimates, queue
    /// pressure and plan-cache statistics, as one flat JSON object.
    fn stats_response(&self) -> String {
        let snapshot = self.recorder.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let latency = snapshot.histograms.get("serve.latency");
        let (latency_count, latency_mean_ns) = latency.map_or((0, 0), |h| (h.count, h.mean_ns()));
        let (p50, p90, p99) = latency
            .map_or((0, 0, 0), |h| (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99)));
        let cache = self.cache.stats();
        format!(
            "{{\"ok\":true,\"type\":\"stats\",\
             \"requests\":{},\"connections\":{},\"planned\":{},\"plan_failed\":{},\
             \"bad_request\":{},\"infeasible\":{},\"unknown_algo\":{},\"busy\":{},\
             \"deadline\":{},\"slow\":{},\
             \"op_plan\":{},\"op_stats\":{},\"op_ping\":{},\"op_shutdown\":{},\"op_stall\":{},\
             \"enqueued\":{},\"dequeued\":{},\
             \"latency_count\":{latency_count},\"latency_mean_ns\":{latency_mean_ns},\
             \"latency_p50_ns\":{p50},\"latency_p90_ns\":{p90},\"latency_p99_ns\":{p99},\
             \"workers\":{},\"queue_depth\":{},\"queue_depth_peak\":{},\
             \"cache_len\":{},\"cache_capacity\":{},\"cache_shards\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"cache_evictions\":{}}}",
            counter("serve.requests"),
            counter("serve.connections"),
            counter("serve.planned"),
            counter("serve.plan_failed"),
            counter("serve.bad_request"),
            counter("serve.infeasible"),
            counter("serve.unknown_algo"),
            counter("serve.busy"),
            counter("serve.deadline"),
            counter("serve.slow"),
            counter("serve.op.plan"),
            counter("serve.op.stats"),
            counter("serve.op.ping"),
            counter("serve.op.shutdown"),
            counter("serve.op.stall"),
            counter("serve.enqueued"),
            counter("serve.dequeued"),
            self.config.workers.max(1),
            self.config.queue_depth.max(1),
            snapshot.gauges.get("serve.queue_depth").copied().unwrap_or(0),
            cache.len,
            cache.capacity,
            self.cache.shard_count(),
            cache.hits,
            cache.misses,
            cache.evictions,
        )
    }
}

/// Appends one response line, with its `\n`, to a connection's output.
fn push_line(out: &mut Vec<u8>, response: &str) {
    out.extend_from_slice(response.as_bytes());
    out.push(b'\n');
}
