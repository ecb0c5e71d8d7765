//! `serve_mixed`: the shipped `dmfstream serve` process over loopback.
//!
//! The load comes from this process alone, never more than two threads
//! and one connection: the calling thread writes requests, a scoped
//! reader thread collects the replies ([`exchange`]).
//!
//! * Set-up, [`SETUPS`] times: spawn `dmfstream serve --port 0
//!   --workers 2` and wait for its `listening on` line (`setup_s`), then
//!   connect and send the [`WARM_KEYS`] hottest keys at once. The warm-up
//!   is not part of `setup_s`: its replies arrive in bursts clocked by the
//!   client's delayed ACKs (see the README), so its length moves in 40 ms
//!   steps that have nothing to do with the server.
//! * Open loop at [`RATE`] requests per second for [`FIXED_SHARE`] of the
//!   run: each request is timed from when it was due, so a stall charges
//!   every request queued behind it; `p50_us`/`p90_us` are the medians of
//!   the quantiles of [`WINDOWS`] consecutive slices of the phase.
//! * Pipelined for [`PIPELINED_SHARE`] of the run: [`PIPELINE`] requests
//!   written at once, answered as fast as the server can on one
//!   connection, at least [`MIN_PIPELINES`] times; `throughput_per_s` is
//!   the median reply rate.
//! * The traced run instead measures the open loop at [`LOW_RATE`] and
//!   [`HIGH_RATE`] and searches for the highest rate that meets the
//!   latency limit ([`Phase::meets_limit`]): rungs doubling from
//!   [`HIGH_RATE`] until one misses, then [`BISECTIONS`] bisection steps.
//!
//! Every reply is checked: a plan's `summary` must equal the in-process
//! `plan.to_string()` and its `fingerprint` the `PlanKey` fingerprint; an
//! infeasible line must come back with error `infeasible`.

use crate::inputs::{Item, ServeInputs};
use crate::offline::Tally;
use crate::stats::{self, Digest};
use crate::{Outcome, Run};
use dmf_engine::{plan_batch, BatchOptions, EngineConfig, PlanKey, PlanRequest};
use dmf_obs::json::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Open-loop rate of `p50_us`/`p90_us`, requests per second: about a sixth
/// of the highest rate the server sustains under the latency limit
/// (`serve.max_rate_per_s`), so that a host running it two or three times
/// slower still keeps up.
const RATE: f64 = 1000.0;

/// Share of the run spent at [`RATE`].
const FIXED_SHARE: f64 = 0.5;

/// Share of the untraced run spent pipelining.
const PIPELINED_SHARE: f64 = 0.4;

/// Requests per pipelined exchange.
const PIPELINE: usize = 5000;

/// Fewest pipelined exchanges, however long they take.
const MIN_PIPELINES: usize = 3;

/// Consecutive slices of the fixed-rate phase whose latency quantiles are
/// taken apart; `p50_us`/`p90_us` are their medians, so a burst of host
/// noise inside one slice does not move them.
const WINDOWS: usize = 5;

/// The traced run's low and high fixed rates, requests per second; the
/// max-rate search starts from the high one.
const LOW_RATE: f64 = 500.0;
const HIGH_RATE: f64 = 4000.0;

/// Share of the traced run spent at each of [`LOW_RATE`] and
/// [`HIGH_RATE`].
const PROBE_SHARE: f64 = 0.1;

/// Share of the traced run one max-rate rung lasts.
const RUNG_SHARE: f64 = 0.03;

/// Bisection steps after the doubling ladder: the max rate is found to
/// within 1/2^4 of the last rung that met the limit.
const BISECTIONS: usize = 4;

/// Tries of a rung before it counts as missing the limit, so that one
/// stall of the shared host does not end the search.
const ATTEMPTS: usize = 2;

/// Highest rung the ladder tries, requests per second.
const LADDER_TOP: f64 = 128_000.0;

/// The latency limit: p90 from the due time, microseconds. Some fifty
/// times the server's own median, and well inside one DMF actuation step.
const P90_LIMIT_US: f64 = 1000.0;

/// Generator lateness p99 above which a rung is invalid, microseconds.
const LATE_LIMIT_US: f64 = 100.0;

/// Every reply must arrive within this of the last send, or the backlog
/// was growing.
const DRAIN_LIMIT: Duration = Duration::from_secs(1);

/// Set-ups per run; `setup_s` and `peak_rss_mb` are their medians.
const SETUPS: usize = 5;

/// Hottest keys sent during set-up: the server's default cache capacity.
const WARM_KEYS: usize = 1024;

/// Closed-loop probes per kind in the traced run.
const PROBES: usize = 5;

/// Sent after the last request of an exchange; its reply ends the
/// exchange.
const PING: &str = "{\"op\":\"ping\"}\n";
const PONG: &str = "{\"ok\":true,\"type\":\"pong\"}";

/// How the server under test is started.
#[derive(Debug)]
pub enum Launcher {
    /// Spawn this `dmfstream` binary as a separate process.
    Binary(PathBuf),
    /// Run `dmf_serve::Server` on a thread of this process.
    #[cfg(test)]
    InProcess,
}

#[derive(Debug)]
enum Process {
    /// The stdout pipe stays open so the child never writes into a closed pipe.
    Child { child: Child, _stdout: ChildStdout },
    #[cfg(test)]
    Thread(Option<std::thread::JoinHandle<io::Result<()>>>),
}

/// A running server; dropping it shuts the server down and waits for it.
#[derive(Debug)]
struct Server {
    addr: SocketAddr,
    pid: u32,
    process: Process,
}

impl Launcher {
    fn launch(&self) -> io::Result<Server> {
        match self {
            Launcher::Binary(path) => {
                let mut child = Command::new(path)
                    .args(["serve", "--port", "0", "--workers", "2"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
                let stdout = child.stdout.take().ok_or_else(|| io::Error::other("no stdout"))?;
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                let addr = reader.read_line(&mut line).ok().and_then(|_| {
                    line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok())
                });
                let Some(addr) = addr else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(format!(
                        "server did not announce its address: {line:?}"
                    )));
                };
                Ok(Server {
                    addr,
                    pid: child.id(),
                    process: Process::Child { _stdout: reader.into_inner(), child },
                })
            }
            #[cfg(test)]
            Launcher::InProcess => {
                let config = dmf_serve::ServeConfig { workers: 2, ..Default::default() };
                let server = dmf_serve::Server::bind(config)?;
                let addr = server.local_addr()?;
                let thread = std::thread::spawn(move || server.run());
                Ok(Server { addr, pid: std::process::id(), process: Process::Thread(Some(thread)) })
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
        }
        match &mut self.process {
            Process::Child { child, .. } => {
                let deadline = Instant::now() + Duration::from_secs(5);
                while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            #[cfg(test)]
            Process::Thread(thread) => {
                if let Some(thread) = thread.take() {
                    let _ = thread.join();
                }
            }
        }
    }
}

/// One load phase on one connection.
#[derive(Debug)]
pub struct Exchange {
    /// When the phase began; request `i` of a paced phase was due at
    /// `start + i / rate`.
    pub start: Instant,
    /// When the write of each request began.
    pub sent: Vec<Instant>,
    /// Each reply line and when it was complete.
    pub replies: Vec<(Instant, String)>,
}

impl Exchange {
    fn due(&self, i: usize, rate: f64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / rate)
    }

    /// Latency of each answered request, timed from when it was due,
    /// microseconds.
    pub fn latencies_us(&self, rate: f64) -> Vec<f64> {
        let due = (0..self.replies.len()).map(|i| self.due(i, rate));
        self.replies
            .iter()
            .zip(due)
            .map(|((at, _), due)| micros(at.saturating_duration_since(due)))
            .collect()
    }

    /// How late the generator wrote each request, microseconds.
    pub fn lateness_us(&self, rate: f64) -> Vec<f64> {
        self.sent
            .iter()
            .enumerate()
            .map(|(i, at)| micros(at.saturating_duration_since(self.due(i, rate))))
            .collect()
    }

    /// How long after the last send the last reply arrived.
    pub fn drain(&self) -> Duration {
        match (self.sent.last(), self.replies.last()) {
            (Some(sent), Some((at, _))) => at.saturating_duration_since(*sent),
            _ => Duration::ZERO,
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Sleeps, then spins, until `deadline`.
fn wait_until(deadline: Instant) {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `lines[items[i]]` for every item and a closing ping, while a
/// reader thread collects the replies up to the pong. With a `rate`,
/// request `i` is not sent before `i / rate` seconds, and the requests due
/// by the time the writer wakes go out in one write; without one, all
/// requests go out in one write.
///
/// # Errors
///
/// Socket failures, or the server closing the connection early.
pub fn exchange(
    stream: &TcpStream,
    lines: &[String],
    items: &[usize],
    rate: Option<f64>,
) -> io::Result<Exchange> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let start = Instant::now();
    let due = |i: usize| rate.map(|r| start + Duration::from_secs_f64(i as f64 / r));
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> io::Result<Vec<(Instant, String)>> {
            let mut reader = BufReader::new(stream);
            let mut replies = Vec::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                if line.trim_end() == PONG {
                    return Ok(replies);
                }
                replies.push((Instant::now(), line));
            }
        });
        let mut sent = Vec::with_capacity(items.len());
        let mut writer = stream;
        let mut batch = String::new();
        let mut written = Ok(());
        while sent.len() < items.len() && written.is_ok() {
            if let Some(deadline) = due(sent.len()) {
                wait_until(deadline);
            }
            let now = Instant::now();
            batch.clear();
            while let Some(&item) = items.get(sent.len()) {
                if due(sent.len()).is_some_and(|d| d > now) {
                    break;
                }
                batch.push_str(&lines[item]);
                sent.push(now);
            }
            written = writer.write_all(batch.as_bytes());
        }
        let written = written.and_then(|()| writer.write_all(PING.as_bytes()));
        if written.is_err() {
            // Unblock the reader; the write error is what gets reported.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let replies = reader.join().map_err(|_| io::Error::other("reader thread panicked"))?;
        written?;
        Ok(Exchange { start, sent, replies: replies? })
    })
}

/// Writes `lines` at once, then waits for one reply per line: the time
/// that took and the replies.
fn closed(stream: &TcpStream, lines: &[&str]) -> io::Result<(Duration, Vec<String>)> {
    let start = Instant::now();
    let mut writer = stream;
    writer.write_all(lines.concat().as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        replies.push(reply);
    }
    Ok((start.elapsed(), replies))
}

/// The request line of every item: keys first, then infeasible ratios;
/// the same again with `"trace":true` after them.
fn request_lines(inputs: &ServeInputs) -> Vec<String> {
    let plain = inputs
        .keys
        .iter()
        .map(|(ratio, demand)| (ratio.to_string(), *demand))
        .chain(inputs.infeasible.iter().map(|r| (r.clone(), 16)));
    let plain: Vec<(String, u64)> = plain.collect();
    let line = |(ratio, demand): &(String, u64), extra: &str| {
        format!("{{\"op\":\"plan\",\"ratio\":\"{ratio}\",\"demand\":{demand}{extra}}}\n")
    };
    plain
        .iter()
        .map(|p| line(p, ""))
        .chain(plain.iter().map(|p| line(p, ",\"trace\":true")))
        .collect()
}

/// Index of an item's line in [`request_lines`].
fn line_of(item: Item, inputs: &ServeInputs, traced: bool) -> usize {
    let plain = inputs.keys.len() + inputs.infeasible.len();
    let index = match item {
        Item::Key(k) => k,
        Item::Infeasible(j) => inputs.keys.len() + j,
    };
    index + if traced { plain } else { 0 }
}

/// What the server must answer for each key: the plan summary and the
/// `PlanKey` fingerprint, computed in process.
#[derive(Debug)]
struct Expected {
    summary: Vec<String>,
    fingerprint: Vec<String>,
}

impl Expected {
    fn new(inputs: &ServeInputs) -> Expected {
        let config = EngineConfig::default();
        let requests: Vec<PlanRequest> = inputs
            .keys
            .iter()
            .map(|(r, d)| PlanRequest::new(r.clone(), *d).with_config(config))
            .collect();
        let jobs = NonZeroUsize::new(2).unwrap_or(NonZeroUsize::MIN);
        let summary = plan_batch(&requests, &BatchOptions::new().with_jobs(jobs))
            .into_iter()
            .map(|r| r.map_or_else(|e| format!("error: {e}"), |p| p.to_string()))
            .collect();
        let fingerprint = inputs
            .keys
            .iter()
            .map(|(r, d)| format!("{:016x}", PlanKey::new(&config, r, *d).fingerprint()))
            .collect();
        Expected { summary, fingerprint }
    }

    /// The reply's outcome record (for the digest), or what is wrong
    /// with it.
    fn check(&self, item: Item, reply: &str) -> Result<String, String> {
        let value =
            json::parse(reply.trim()).map_err(|e| format!("unparsable reply {reply:?}: {e}"))?;
        let field = |name| value.get(name).and_then(Json::as_str).unwrap_or("");
        let ok = value.get("ok") == Some(&Json::Bool(true));
        match item {
            Item::Key(k)
                if ok
                    && field("summary") == self.summary[k]
                    && field("fingerprint") == self.fingerprint[k] =>
            {
                Ok(format!("{}|{}", field("fingerprint"), field("summary")))
            }
            Item::Infeasible(_) if !ok && field("error") == "infeasible" => {
                Ok("infeasible".to_owned())
            }
            _ => Err(format!("wrong reply to {item:?}: {}", reply.trim())),
        }
    }
}

/// Checks every reply of an exchange against its item; a request without
/// a reply counts as failed. Returns the checked outcome records and the
/// number of failures.
fn check_replies(
    expected: &Expected,
    items: &[Item],
    exchange: &Exchange,
    tally: &mut Tally,
) -> (Vec<String>, u64) {
    let failed_before = tally.failed;
    let mut records = Vec::new();
    for (i, item) in items.iter().take(exchange.sent.len()).enumerate() {
        match exchange.replies.get(i) {
            Some((_, reply)) => match expected.check(*item, reply) {
                Ok(record) => {
                    tally.check(None);
                    records.push(record);
                }
                Err(fault) => tally.check(Some(fault)),
            },
            None => tally.check(Some(format!("request {i} ({item:?}) got no reply"))),
        }
    }
    (records, tally.failed - failed_before)
}

/// Mean duration per traced reply of each stage the server recorded.
fn stage_means_us(exchange: &Exchange, names: &[&str]) -> Vec<f64> {
    let mut sums = vec![0u64; names.len()];
    let mut traced = 0u64;
    for (_, reply) in &exchange.replies {
        let Ok(value) = json::parse(reply.trim()) else { continue };
        let Some(Json::Arr(stages)) = value.get("stages") else { continue };
        traced += 1;
        for stage in stages {
            let name = stage.get("name").and_then(Json::as_str).unwrap_or("");
            if let Some(i) = names.iter().position(|n| *n == name) {
                sums[i] += stage.get("dur_ns").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    sums.iter().map(|&ns| ns as f64 / traced.max(1) as f64 / 1e3).collect()
}

/// One checked open-loop phase at a fixed rate.
#[derive(Debug)]
struct Phase {
    rate: f64,
    exchange: Exchange,
    /// Requests answered wrongly or not at all.
    failed: u64,
    /// Outcome records of the correct replies.
    records: Vec<String>,
}

impl Phase {
    fn latencies_us(&self) -> Vec<f64> {
        self.exchange.latencies_us(self.rate)
    }

    fn late_p99_us(&self) -> f64 {
        stats::quantile(&self.exchange.lateness_us(self.rate), 0.99)
    }

    /// Whether the server sustained the phase's rate: p90 latency within
    /// [`P90_LIMIT_US`], no failed request, every reply within
    /// [`DRAIN_LIMIT`] of the last send, and a generator on time
    /// ([`LATE_LIMIT_US`] at p99; otherwise the phase is invalid and
    /// counts as missing the limit).
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && stats::quantile(&self.latencies_us(), 0.9) <= P90_LIMIT_US
            && self.exchange.drain() <= DRAIN_LIMIT
            && self.late_p99_us() <= LATE_LIMIT_US
    }
}

/// The median over [`WINDOWS`] consecutive slices of `latency` of each
/// slice's `q`-quantile.
fn windowed(latency: &[f64], q: f64) -> f64 {
    let size = latency.len().div_ceil(WINDOWS).max(1);
    let slices: Vec<f64> = latency.chunks(size).map(|slice| stats::quantile(slice, q)).collect();
    stats::median(&slices)
}

/// The load generator's connection and what it checks replies against.
struct Client<'a> {
    stream: TcpStream,
    inputs: &'a ServeInputs,
    lines: &'a [String],
    expected: &'a Expected,
    seed: u64,
}

impl Client<'_> {
    /// The request lines of `count` requests of stream `stream`, every
    /// second one traced when `traced`.
    fn items(&self, stream: u64, count: usize, traced: bool) -> (Vec<Item>, Vec<usize>) {
        let items = self.inputs.stream(self.seed, stream, count);
        let lines = items
            .iter()
            .enumerate()
            .map(|(i, &item)| line_of(item, self.inputs, traced && i % 2 == 1))
            .collect();
        (items, lines)
    }

    /// Runs `seconds` of stream `stream` at `rate` and checks the replies.
    fn open_loop(
        &self,
        rate: f64,
        seconds: f64,
        stream: u64,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<Phase, String> {
        let (items, lines) = self.items(stream, (rate * seconds).ceil() as usize, traced);
        let exchange = exchange(&self.stream, self.lines, &lines, Some(rate))
            .map_err(|e| format!("serve_mixed at {rate}/s: {e}"))?;
        let (records, failed) = check_replies(self.expected, &items, &exchange, tally);
        Ok(Phase { rate, exchange, failed, records })
    }

    /// Writes [`PIPELINE`] requests of stream `stream` at once and checks
    /// the replies: replies per second over the middle eight tenths of
    /// them (the first and last tenths hold the start and the delayed-ACK
    /// tail).
    fn pipelined(&self, stream: u64, tally: &mut Tally) -> Result<f64, String> {
        let (items, lines) = self.items(stream, PIPELINE, false);
        let exchange = exchange(&self.stream, self.lines, &lines, None)
            .map_err(|e| format!("serve_mixed pipelined: {e}"))?;
        check_replies(self.expected, &items, &exchange, tally);
        let n = exchange.replies.len();
        let (first, last) = (n / 10, (n * 9 / 10).min(n.saturating_sub(1)));
        let span = match (exchange.replies.get(first), exchange.replies.get(last)) {
            (Some((a, _)), Some((b, _))) => b.saturating_duration_since(*a),
            _ => return Err("serve_mixed pipelined: no replies".into()),
        };
        Ok((last - first) as f64 / span.as_secs_f64().max(1e-9))
    }

    /// The highest rate that meets the latency limit: rungs of `seconds`
    /// doubling from `start`'s rate while they meet it, then
    /// [`BISECTIONS`] bisection steps between the last rung that met the
    /// limit (0 when `start` did not) and the first that missed it.
    fn max_rate(&self, start: &Phase, seconds: f64, tally: &mut Tally) -> Result<f64, String> {
        let mut rung = 0;
        let mut meets = |rate: f64, tally: &mut Tally| -> Result<bool, String> {
            for _ in 0..ATTEMPTS {
                rung += 1;
                if self.open_loop(rate, seconds, 100 + rung, false, tally)?.meets_limit() {
                    return Ok(true);
                }
            }
            Ok(false)
        };
        let (mut met, mut missed) =
            if start.meets_limit() { (start.rate, None) } else { (0.0, Some(start.rate)) };
        while missed.is_none() && met < LADDER_TOP {
            if meets(2.0 * met, tally)? {
                met *= 2.0;
            } else {
                missed = Some(2.0 * met);
            }
        }
        if let Some(mut missed) = missed {
            for _ in 0..BISECTIONS {
                let mid = (met + missed) / 2.0;
                if meets(mid, tally)? {
                    met = mid;
                } else {
                    missed = mid;
                }
            }
        }
        Ok(met)
    }
}

/// `serve_mixed` (see the module docs).
///
/// # Errors
///
/// The server would not start or the connection failed.
pub fn serve_mixed(run: &Run, launcher: &Launcher) -> Result<Outcome, String> {
    let io_err = |e: io::Error| format!("serve_mixed: {e}");
    let inputs = ServeInputs::new(run.seed, &run.sizes);
    let expected = Expected::new(&inputs);
    let lines = request_lines(&inputs);
    let warm_items: Vec<Item> = (0..WARM_KEYS.min(inputs.keys.len())).map(Item::Key).collect();
    let warm_lines: Vec<usize> = warm_items.iter().map(|&i| line_of(i, &inputs, false)).collect();
    let mut tally = Tally::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let start = Instant::now();
        let server = launcher.launch().map_err(io_err)?;
        setups.push(start.elapsed().as_secs_f64());
        let stream = TcpStream::connect(server.addr).map_err(io_err)?;
        let warm = exchange(&stream, &lines, &warm_lines, None).map_err(io_err)?;
        rss.push(stats::peak_rss_mb(Some(server.pid)));
        check_replies(&expected, &warm_items, &warm, &mut tally);
        live = Some((server, stream));
    }
    let (server, stream) = live.ok_or("no set-up ran")?;
    let client =
        Client { stream, inputs: &inputs, lines: &lines, expected: &expected, seed: run.seed };

    // The fixed-rate phase; the traced run alternates traced and plain
    // requests. Only its outputs enter the digest: how many requests the
    // other phases send depends on how fast the server is.
    let fixed = client.open_loop(RATE, run.seconds * FIXED_SHARE, 0, run.trace, &mut tally)?;
    let mut digest = Digest::default();
    for record in &fixed.records {
        digest.add(record);
    }
    let latency = fixed.latencies_us();

    let metrics = if run.trace {
        let plain: Vec<f64> = latency.iter().step_by(2).copied().collect();
        let traced: Vec<f64> = latency.iter().skip(1).step_by(2).copied().collect();
        let client_p50 = stats::median(&plain);
        let stages =
            stage_means_us(&fixed.exchange, &["serve_decode", "serve_queue_wait", "serve_plan"]);
        let probe_s = run.seconds * PROBE_SHARE;
        let low = client.open_loop(LOW_RATE, probe_s, 1, false, &mut tally)?.latencies_us();
        let high = client.open_loop(HIGH_RATE, probe_s, 2, false, &mut tally)?;
        let max_rate = client.max_rate(&high, run.seconds * RUNG_SHARE, &mut tally)?;
        let high = high.latencies_us();
        let stream = &client.stream;
        let (_, stats_reply) = closed(stream, &["{\"op\":\"stats\"}\n"]).map_err(io_err)?;
        let server_stats =
            json::parse(stats_reply.concat().trim()).map_err(|e| format!("stats reply: {e}"))?;
        let stat = |name| server_stats.get(name).and_then(crate::spec::number).unwrap_or(0.0);
        let server_p50 = stat("latency_p50_ns") / 1e3;
        let lookups = stat("cache_hits") + stat("cache_misses");
        let mut probe = |line: &str| -> Result<f64, String> {
            let (rtt, reply) = closed(stream, &[line]).map_err(io_err)?;
            let reply = reply.concat();
            tally.check(
                (!reply.contains("\"ok\":true")).then(|| format!("probe {line:?} failed: {reply}")),
            );
            Ok(micros(rtt))
        };
        let hot = &lines[line_of(Item::Key(0), &inputs, false)];
        let mut rtts = [Vec::new(), Vec::new(), Vec::new()];
        for k in 0..PROBES {
            let (ratio, _) = &inputs.keys[k % inputs.keys.len()];
            let cold =
                format!("{{\"op\":\"plan\",\"ratio\":\"{ratio}\",\"demand\":{}}}\n", 100 + 2 * k);
            rtts[0].push(probe(PING)?);
            rtts[1].push(probe(hot)?);
            rtts[2].push(probe(&cold)?);
        }
        let handled: f64 = stages.iter().sum();
        vec![
            ("serve.server_p50_us", server_p50),
            ("serve.wire_us", client_p50 - server_p50),
            ("serve.decode_us", stages[0]),
            ("serve.queue_wait_us", stages[1]),
            ("serve.plan_us", stages[2]),
            ("serve.r500.p50_us", stats::median(&low)),
            ("serve.r500.p90_us", stats::quantile(&low, 0.9)),
            ("serve.r4000.p50_us", stats::median(&high)),
            ("serve.r4000.p90_us", stats::quantile(&high, 0.9)),
            ("serve.max_rate_per_s", max_rate),
            ("serve.ping_rtt_us", stats::median(&rtts[0])),
            ("serve.hit_rtt_us", stats::median(&rtts[1])),
            ("serve.miss_rtt_us", stats::median(&rtts[2])),
            ("serve.cache_hit_ratio", stat("cache_hits") / lookups.max(1.0)),
            ("serve.evictions_per_1k", 1e3 * stat("cache_evictions") / stat("op_plan").max(1.0)),
            ("serve.gen_late_p99_us", fixed.late_p99_us()),
            (
                "trace.overhead_pct",
                100.0 * (stats::median(&traced) - client_p50) / client_p50.max(1e-9),
            ),
            (
                "trace.unattributed_pct",
                100.0 * (client_p50 - handled).max(0.0) / client_p50.max(1e-9),
            ),
        ]
    } else {
        let (mut rates, start) = (Vec::new(), Instant::now());
        while rates.len() < MIN_PIPELINES
            || start.elapsed().as_secs_f64() < run.seconds * PIPELINED_SHARE
        {
            rates.push(client.pipelined(10 + rates.len() as u64, &mut tally)?);
        }
        vec![
            ("p50_us", windowed(&latency, 0.5)),
            ("p90_us", windowed(&latency, 0.9)),
            ("throughput_per_s", stats::median(&rates)),
            ("peak_rss_mb", stats::median(&rss)),
            ("setup_s", stats::median(&setups)),
        ]
    };
    drop(client);
    drop(server);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digest.value(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer that echoes every line back at once and answers the closing
    /// ping with a pong.
    fn echo_peer() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = &stream;
            for line in BufReader::new(&stream).lines() {
                let line = line.unwrap();
                let reply = if line == PING.trim_end() { PONG.to_owned() } else { line };
                writer.write_all(format!("{reply}\n").as_bytes()).unwrap();
            }
        });
        (addr, peer)
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let (addr, peer) = echo_peer();
        let stream = TcpStream::connect(addr).unwrap();
        let lines: Vec<String> = (0..40).map(|i| format!("request {i}\n")).collect();
        let items: Vec<usize> = (0..40).collect();
        let rate = 1000.0;
        let open = exchange(&stream, &lines, &items, Some(rate)).unwrap();
        assert_eq!(open.sent.len(), 40);
        // Replies come back in order and carry their own request.
        for (i, (_, reply)) in open.replies.iter().enumerate() {
            assert_eq!(reply, &lines[i]);
        }
        // Nothing is sent before it is due, and the last request was due
        // 39 ms after the start.
        let late = open.lateness_us(rate);
        assert!(late.iter().all(|&l| l >= 0.0));
        assert!(open.sent[39].duration_since(open.start) >= Duration::from_millis(39));
        // Latency counts from the due time, so it is at least the lateness
        // (the reply follows the send).
        let latency = open.latencies_us(rate);
        assert_eq!(latency.len(), 40);
        assert!(latency.iter().zip(&late).all(|(lat, late)| lat >= late));
        assert!(open.drain() < DRAIN_LIMIT);
        // A request written 5 ms after it was due reports that 5 ms as
        // lateness and inside its latency.
        let mut stalled =
            Exchange { start: open.start, sent: open.sent.clone(), replies: open.replies.clone() };
        stalled.sent[3] = open.start + Duration::from_millis(8);
        stalled.replies[3].0 = open.start + Duration::from_millis(9);
        assert!((stalled.lateness_us(rate)[3] - 5000.0).abs() < 1e-6);
        assert!((stalled.latencies_us(rate)[3] - 6000.0).abs() < 1e-6);
        drop(stream);
        peer.join().unwrap();
    }

    #[test]
    fn a_phase_meets_the_limit_only_when_fast_complete_and_on_time() {
        let start = Instant::now();
        let at = |us: u64| start + Duration::from_micros(us);
        // 100 requests at 10 000/s, each answered 200 µs after it was due.
        let phase = |reply_after_us: u64, late_us: u64, failed: u64| Phase {
            rate: 10_000.0,
            exchange: Exchange {
                start,
                sent: (0..100).map(|i| at(100 * i + late_us)).collect(),
                replies: (0..100).map(|i| (at(100 * i + reply_after_us), String::new())).collect(),
            },
            failed,
            records: Vec::new(),
        };
        assert!(phase(200, 0, 0).meets_limit());
        assert!(!phase(200, 0, 1).meets_limit(), "a failed request misses the limit");
        assert!(!phase(1500, 0, 0).meets_limit(), "p90 above 1 ms");
        assert!(!phase(200, 150, 0).meets_limit(), "a late generator invalidates the rung");
        let mut backlog = phase(200, 0, 0);
        backlog.exchange.replies[99].0 = at(9_900 + 1_200_000);
        assert!(!backlog.meets_limit(), "the last reply came more than 1 s after the last send");
    }

    #[test]
    fn windowed_quantiles_ignore_a_burst_in_one_slice() {
        let mut latency = vec![500.0; 1000];
        latency[..200].fill(5000.0);
        assert_eq!(windowed(&latency, 0.9), 500.0);
        assert_eq!(stats::quantile(&latency, 0.9), 5000.0);
        assert_eq!(windowed(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn a_corrupted_reply_counts_as_failed() {
        let inputs = ServeInputs::new(9, &crate::inputs::Sizes::TINY);
        let expected = Expected::new(&inputs);
        let (ratio, demand) = &inputs.keys[0];
        let plan =
            dmf_engine::StreamingEngine::new(EngineConfig::default()).plan(ratio, *demand).unwrap();
        let fp = PlanKey::new(&EngineConfig::default(), ratio, *demand).fingerprint();
        let good = dmf_serve::protocol::plan_response(&plan, fp);
        assert!(expected.check(Item::Key(0), &good).is_ok());
        let infeasible = dmf_serve::protocol::error_response("infeasible", "FEAS001");
        assert!(expected.check(Item::Infeasible(0), &infeasible).is_ok());
        let mut tally = Tally::default();
        for bad in [
            good.replace("\"summary\":\"D=", "\"summary\":\"D=1"),
            dmf_serve::protocol::plan_response(&plan, fp ^ 1),
            dmf_serve::protocol::error_response("busy", "queue full"),
            "not json".to_owned(),
        ] {
            tally.check(expected.check(Item::Key(0), &bad).err());
        }
        tally.check(expected.check(Item::Infeasible(0), &good).err());
        assert_eq!((tally.attempted, tally.failed), (5, 5));
    }
}
