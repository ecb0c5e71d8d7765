//! End-to-end tests of the planning service over real loopback sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmf_engine::{EngineConfig, PlanKey};
use dmf_obs::json::{self, Json};
use dmf_ratio::TargetRatio;
use dmf_serve::{Client, ServeConfig, Server, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PCR: &str = "2:1:1:1:1:1:9";

fn test_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() }
}

/// Runs `body` against a live server and asserts a clean drain: the
/// shutdown op is sent by the harness, and `run` must return Ok. A
/// failing `body` still shuts the server down, so the test fails rather
/// than hanging on the server thread.
fn with_server(config: ServeConfig, body: impl FnOnce(&Server, std::net::SocketAddr)) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&server, addr)));
        if let Err(panic) = outcome {
            server.request_shutdown();
            std::panic::resume_unwind(panic);
        }
        let mut control = Client::connect(addr).unwrap();
        let line = control.request(r#"{"op":"shutdown"}"#).unwrap();
        assert!(line.contains("\"shutdown\""), "unexpected shutdown ack: {line}");
        handle.join().unwrap().unwrap();
    });
}

/// Polls the server-side counter until it reaches `at_least`; panics
/// after 5 seconds. This is what makes the concurrency tests
/// deterministic without sleeping for fixed amounts.
fn await_counter(server: &Server, name: &str, at_least: u64) {
    let started = Instant::now();
    while server.recorder().counter(name) < at_least {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out waiting for {name} >= {at_least} (now {})",
            server.recorder().counter(name)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn plan_round_trip_matches_the_paper_and_the_cache_key() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request(r#"{"op":"ping"}"#).unwrap(), r#"{"ok":true,"type":"pong"}"#);

        let line =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "not ok: {line}");
        // Paper Figs. 2–3: D=20 PCR streams in one pass, Tc=11, Tms=27,
        // W=5, I=25, q=5 on Mc=3 mixers.
        assert_eq!(v.get("demand").unwrap().as_u64(), Some(20));
        assert_eq!(v.get("passes").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("tc").unwrap().as_u64(), Some(11));
        assert_eq!(v.get("tms").unwrap().as_u64(), Some(27));
        assert_eq!(v.get("waste").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("inputs").unwrap().as_u64(), Some(25));
        assert_eq!(v.get("storage_peak").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("mixers").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("summary").unwrap().as_str(),
            Some("D=20 passes=1 Tc=11 Tms=27 W=5 I=25 q=5 (Mc=3)")
        );

        // The advertised fingerprint is the engine's content address for
        // this (config, target, demand) tuple.
        let target: TargetRatio = PCR.parse().unwrap();
        let key = PlanKey::new(&EngineConfig::default(), &target, 20);
        assert_eq!(
            v.get("fingerprint").unwrap().as_str(),
            Some(format!("{:016x}", key.fingerprint()).as_str())
        );
    });
}

#[test]
fn config_overrides_change_the_fingerprint_and_plan() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        let base =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let constrained = client
            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20,"storage":3}}"#))
            .unwrap();
        let a = json::parse(&base).unwrap();
        let b = json::parse(&constrained).unwrap();
        assert_ne!(a.get("fingerprint"), b.get("fingerprint"));
        // Paper Table 4: the q'=3 budget forces multi-pass streaming.
        assert!(
            b.get("passes").unwrap().as_u64().unwrap() > 1,
            "expected multi-pass: {constrained}"
        );
    });
}

#[test]
fn bad_requests_get_typed_errors_and_do_not_kill_the_connection() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        for (request, expected) in [
            ("definitely not json", "bad_request"),
            (r#"{"op":"teleport"}"#, "bad_request"),
            (r#"{"op":"plan","ratio":"1:x"}"#, "bad_request"),
            (r#"{"op":"plan","ratio":"1:2"}"#, "infeasible"),
            (r#"{"op":"plan","ratio":"1:1","demand":0}"#, "infeasible"),
        ] {
            let line = client.request(request).unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {request}: {line}");
            assert_eq!(v.get("error").and_then(Json::as_str), Some(expected), "for {request}");
        }
        // The connection is still usable afterwards.
        assert!(client.request(r#"{"op":"ping"}"#).unwrap().contains("pong"));
    });
}

#[test]
fn infeasible_requests_fail_fast_with_the_feasibility_rule() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        // Sum 3 is not a power of two: rejected on the connection thread
        // with the FEAS001 rule in the message, before any planning runs.
        let line = client.request(r#"{"op":"plan","ratio":"1:2","demand":8}"#).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("infeasible"), "{line}");
        let message = v.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("FEAS001"), "{line}");
        // A single pure fluid is degenerate (FEAS002).
        let line = client.request(r#"{"op":"plan","ratio":"16","demand":4}"#).unwrap();
        assert!(line.contains("FEAS002"), "{line}");
        // The rejections are accounted under their own counter, not
        // bad_request or plan_failed — and no planning work ever ran.
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("infeasible").and_then(Json::as_u64), Some(2), "{stats}");
        assert_eq!(v.get("bad_request").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(v.get("plan_failed").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(v.get("planned").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(server.cache().stats().len, 0, "infeasible requests never warm the cache");
    });
}

#[test]
fn requests_past_the_engine_bounds_are_bad_requests_and_the_server_survives() {
    with_server(test_config(), |server, addr| {
        for (request, message) in [
            (
                format!(
                    r#"{{"op":"plan","ratio":"{PCR}","demand":4,"mixers":100000000000000000}}"#
                ),
                "mixer budget 100000000000000000 exceeds the limit of 1024",
            ),
            (
                format!(r#"{{"op":"plan","ratio":"{PCR}","demand":1000000000}}"#),
                "demand 1000000000 exceeds the limit of 1048576",
            ),
        ] {
            let mut client = Client::connect(addr).unwrap();
            let line = client.request(&request).unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"), "{line}");
            assert_eq!(v.get("message").and_then(Json::as_str), Some(message), "{line}");
            // The server is still up: a fresh connection gets its pong.
            let mut fresh = Client::connect(addr).unwrap();
            assert_eq!(fresh.request(r#"{"op":"ping"}"#).unwrap(), r#"{"ok":true,"type":"pong"}"#);
        }
        let stats = Client::connect(addr).unwrap().request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("bad_request").and_then(Json::as_u64), Some(2), "{stats}");
        assert_eq!(v.get("plan_failed").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(server.cache().stats().len, 0, "rejected requests never warm the cache");
    });
}

#[test]
fn dilution_algorithms_plan_two_fluid_targets_and_fail_typed_on_others() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        // 16 droplets of CF 5/16 on 2 mixers: the BitScan stream.
        let line = client
            .request(r#"{"op":"plan","ratio":"5:11","demand":16,"algo":"bitscan","mixers":2}"#)
            .unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(v.get("tms").and_then(Json::as_u64), Some(15), "{line}");
        assert_eq!(v.get("inputs").and_then(Json::as_u64), Some(16), "{line}");
        assert_eq!(v.get("waste").and_then(Json::as_u64), Some(0), "{line}");
        assert_eq!(v.get("tc").and_then(Json::as_u64), Some(8), "{line}");
        // A seven-fluid ratio has no dilution tree: a typed planner
        // failure, and the connection keeps serving.
        let line = client
            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":4,"algo":"bitscan"}}"#))
            .unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("plan_failed"), "{line}");
        let message = v.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("exactly two active fluids, got 7"), "{line}");
        assert!(client.request(r#"{"op":"ping"}"#).unwrap().contains("pong"));
    });
}

#[test]
fn eight_concurrent_clients_get_byte_identical_summaries_for_equal_keys() {
    with_server(test_config(), |server, addr| {
        let responses = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        client
                            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<String>>()
        });
        assert_eq!(responses.len(), 8);
        for response in &responses {
            assert_eq!(
                response, &responses[0],
                "equal plan keys must serve byte-identical response lines"
            );
        }
        assert_eq!(server.recorder().counter("serve.planned"), 8);
        // All eight collapse onto one cache entry. Concurrent first
        // requests may each miss (plan_shared has no single-flight), but
        // a plan is a pure function of its key, so duplicated work still
        // yields byte-identical responses — which is what matters.
        let stats = server.cache().stats();
        assert_eq!(stats.len, 1);
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1);
    });
}

#[test]
fn a_traced_plan_request_yields_one_connected_span_tree() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        let line = client
            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20,"trace":true}}"#))
            .unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "not ok: {line}");
        assert_eq!(v.get("tc").unwrap().as_u64(), Some(11), "plan differs under tracing");

        // The response carries the trace ID and a stage breakdown that
        // includes the queue wait and every pipeline stage.
        let trace_hex = v.get("trace_id").and_then(Json::as_str).unwrap();
        assert_eq!(trace_hex.len(), 16);
        let trace_id = u64::from_str_radix(trace_hex, 16).unwrap();
        assert_ne!(trace_id, 0);
        let Some(Json::Arr(stages)) = v.get("stages") else { panic!("no stages: {line}") };
        let stage_names: Vec<&str> =
            stages.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
        for expected in [
            "serve_queue_wait",
            "serve_plan",
            "engine_plan",
            "stage_build_tree",
            "stage_build_forest",
            "stage_schedule",
            "stage_split_passes",
        ] {
            assert!(stage_names.contains(&expected), "missing {expected} in {stage_names:?}");
        }

        // Server-side, the same trace is one connected tree rooted at the
        // connection thread's serve_request span. The root itself is still
        // open while the response is being built, so wait for the request
        // to fully finish before asserting tree shape.
        await_counter(server, "serve.planned", 1);
        let spans = server.recorder().trace_spans(trace_id);
        let root: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(root.len(), 1, "one root per trace: {spans:?}");
        assert_eq!(root[0].name, "serve_request");
        assert_eq!(root[0].trace_id, root[0].span_id);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert_eq!(s.trace_id, trace_id);
            if s.parent_id != 0 {
                assert!(ids.contains(&s.parent_id), "orphan parent on {}", s.name);
            }
        }
        let wait = spans.iter().find(|s| s.name == "serve_queue_wait").unwrap();
        assert_eq!(wait.parent_id, root[0].span_id, "queue wait hangs off the request root");
        // The connection thread decoded and planned.
        let decode = spans.iter().find(|s| s.name == "serve_decode").unwrap();
        let plan_span = spans.iter().find(|s| s.name == "serve_plan").unwrap();
        assert_eq!(decode.tid, root[0].tid);
        assert_eq!(plan_span.tid, root[0].tid, "planning happens on the connection thread");
    });
}

/// The member names of a flat JSON object line, in wire order (the
/// parsed [`Json::Obj`] is a sorted map and loses it).
fn member_names(line: &str) -> Vec<String> {
    let body = line.trim().strip_prefix('{').and_then(|b| b.strip_suffix('}')).unwrap();
    body.split(',')
        .map(|member| member.split(':').next().unwrap().trim_matches('"').to_owned())
        .collect()
}

#[test]
fn the_stats_reply_keeps_its_ordered_key_set() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        let line = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(
            member_names(&line),
            [
                "ok",
                "type",
                "requests",
                "connections",
                "planned",
                "plan_failed",
                "bad_request",
                "infeasible",
                "unknown_algo",
                "busy",
                "deadline",
                "slow",
                "op_plan",
                "op_stats",
                "op_ping",
                "op_shutdown",
                "op_stall",
                "enqueued",
                "dequeued",
                "latency_count",
                "latency_mean_ns",
                "latency_p50_ns",
                "latency_p90_ns",
                "latency_p99_ns",
                "workers",
                "queue_depth",
                "queue_depth_peak",
                "cache_len",
                "cache_capacity",
                "cache_shards",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
            ],
            "{line}"
        );
    });
}

#[test]
fn lru_cache_stays_bounded_under_churn_and_reports_evictions() {
    // One shard: the exact eviction counts below assume a single global
    // LRU domain, not per-shard slices.
    let config = ServeConfig { cache_capacity: 2, cache_shards: 1, ..test_config() };
    with_server(config, |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        for demand in [10, 11, 12, 13] {
            let line = client
                .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":{demand}}}"#))
                .unwrap();
            assert!(line.contains("\"ok\":true"), "demand {demand} failed: {line}");
        }
        let line = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("cache_capacity").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("cache_len").unwrap().as_u64(), Some(2), "cache unbounded: {line}");
        assert_eq!(v.get("cache_evictions").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("planned").unwrap().as_u64(), Some(4));
        assert_eq!(server.cache().stats().evictions, 2);
    });
}

#[test]
fn a_full_queue_rejects_with_busy_instead_of_queueing_unboundedly() {
    // One worker, one queue slot: a stalled worker plus one queued stall
    // leaves no room, so a third request must bounce immediately.
    let config = ServeConfig { workers: 1, queue_depth: 1, ..test_config() };
    with_server(config, |server, addr| {
        std::thread::scope(|s| {
            let occupant = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":1500}"#).unwrap()
            });
            // The worker has picked up the first stall...
            await_counter(server, "serve.dequeued", 1);
            let queued = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":0}"#).unwrap()
            });
            // ...and the second stall now fills the single queue slot.
            await_counter(server, "serve.enqueued", 2);

            let mut client = Client::connect(addr).unwrap();
            let line =
                client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "expected rejection: {line}");
            assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
            assert!(server.recorder().counter("serve.busy") >= 1);

            // Control ops bypass the queue and stay responsive.
            assert!(client.request(r#"{"op":"stats"}"#).unwrap().contains("\"busy\":1"));

            assert!(occupant.join().unwrap().contains("stalled"));
            assert!(queued.join().unwrap().contains("stalled"));
        });
    });
}

#[test]
fn an_expired_queueing_deadline_is_answered_with_a_deadline_error() {
    let config = ServeConfig { workers: 1, queue_depth: 4, ..test_config() };
    with_server(config, |server, addr| {
        std::thread::scope(|s| {
            let stall_sent = Instant::now();
            let occupant = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":400}"#).unwrap()
            });
            await_counter(server, "serve.dequeued", 1);
            // Queued behind a 400ms stall with a 50ms deadline: it goes
            // stale long before a planner permit frees up.
            let mut client = Client::connect(addr).unwrap();
            let line = client
                .request(&format!(
                    r#"{{"op":"plan","ratio":"{PCR}","demand":20,"deadline_ms":50}}"#
                ))
                .unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some("deadline"), "{line}");
            assert_eq!(server.recorder().counter("serve.deadline"), 1);
            // The waiter is answered at its deadline, not when the stall
            // ahead of it ends.
            let answered = stall_sent.elapsed();
            assert!(answered < Duration::from_millis(400), "deadline answered after {answered:?}");
            // A deadline past the clock's range is none: this request
            // waits the stall out and is planned.
            let line = client
                .request(&format!(
                    r#"{{"op":"plan","ratio":"{PCR}","demand":20,"deadline_ms":{}}}"#,
                    u64::MAX
                ))
                .unwrap();
            assert!(line.contains("\"tms\":27"), "{line}");
            occupant.join().unwrap();
        });
    });
}

#[test]
fn queued_requests_are_answered_in_arrival_order() {
    let config = ServeConfig { workers: 1, queue_depth: 4, ..test_config() };
    with_server(config, |server, addr| {
        std::thread::scope(|s| {
            let stall = |ms: u64| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let line = client.request(&format!(r#"{{"op":"stall","ms":{ms}}}"#)).unwrap();
                    assert!(line.contains("stalled"), "{line}");
                    Instant::now()
                })
            };
            let occupant = stall(200);
            await_counter(server, "serve.dequeued", 1);
            // Two waiters: a short stall first, then a long one. Served in
            // arrival order, the short one is answered long before the
            // long one ends; served the other way round, it would be
            // answered only after it.
            let first = stall(0);
            await_counter(server, "serve.enqueued", 2);
            let second = stall(300);
            await_counter(server, "serve.enqueued", 3);
            occupant.join().unwrap();
            let (first, second) = (first.join().unwrap(), second.join().unwrap());
            assert!(
                first + Duration::from_millis(150) < second,
                "the first waiter was answered {:?} before the second",
                second.saturating_duration_since(first)
            );
        });
    });
}

#[test]
fn shutdown_drains_queued_work_before_run_returns() {
    let config = ServeConfig { workers: 1, queue_depth: 8, ..test_config() };
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let occupant = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(r#"{"op":"stall","ms":400}"#).unwrap()
        });
        await_counter(&server, "serve.dequeued", 1);
        // This plan request sits in the queue behind the stall...
        let queued = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap()
        });
        await_counter(&server, "serve.enqueued", 2);
        // ...when the shutdown lands.
        let mut control = Client::connect(addr).unwrap();
        control.request(r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();

        // Both in-flight requests were still answered, not dropped.
        assert!(occupant.join().unwrap().contains("stalled"));
        let line = queued.join().unwrap();
        assert!(line.contains("\"tms\":27"), "queued plan lost in shutdown: {line}");
    });
}

#[test]
fn sequential_pings_and_hits_are_not_held_back_by_delayed_acks() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        let plan = format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#);
        let cold = client.request(&plan).unwrap();
        // One reply per round trip, each a whole line in one segment: a
        // response written as line-then-newline on a Nagle socket waits
        // for the client's delayed ACK (~40 ms) every time.
        let started = Instant::now();
        for _ in 0..20 {
            assert_eq!(client.request(r#"{"op":"ping"}"#).unwrap(), r#"{"ok":true,"type":"pong"}"#);
        }
        for _ in 0..20 {
            assert_eq!(client.request(&plan).unwrap(), cold, "a hit must match the miss");
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "40 sequential round trips took {elapsed:?}");
    });
}

#[test]
fn hits_are_answered_inline_and_misses_are_queued_once() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        let a = format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#);
        let b = format!(r#"{{"op":"plan","ratio":"{PCR}","demand":22}}"#);
        let first = client.request(&a).unwrap();
        assert_eq!(client.request(&a).unwrap(), first, "hit and miss replies are byte-identical");
        assert!(client.request(&b).unwrap().contains("\"ok\":true"));
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        let stat = |name: &str| v.get(name).and_then(Json::as_u64);
        assert_eq!(stat("cache_hits"), Some(1), "{stats}");
        assert_eq!(stat("cache_misses"), Some(2), "{stats}");
        assert_eq!(stat("planned"), Some(3), "{stats}");
        assert_eq!(stat("enqueued"), Some(2), "only misses queue: {stats}");
        assert_eq!(stat("dequeued"), Some(2), "{stats}");
        assert_eq!(stat("latency_count"), Some(3), "hits enter serve.latency: {stats}");
        assert_eq!(server.cache().stats().len, 2);
    });
}

#[test]
fn pipelined_misses_on_one_connection_are_answered_in_request_order() {
    with_server(test_config(), |server, addr| {
        let lines: Vec<String> = (1..=50)
            .map(|demand| format!(r#"{{"op":"plan","ratio":"{PCR}","demand":{demand}}}"#))
            .collect();
        let stream = TcpStream::connect(addr).unwrap();
        let batch: String = lines.iter().map(|line| format!("{line}\n")).collect();
        (&stream).write_all(batch.as_bytes()).unwrap();
        let mut reader = BufReader::new(&stream);
        let replies: Vec<String> = lines
            .iter()
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                reply.trim_end().to_owned()
            })
            .collect();
        assert_eq!(server.recorder().counter("serve.enqueued"), 50, "every line was a miss");
        let mut fresh = Client::connect(addr).unwrap();
        for (demand, (line, reply)) in (1..).zip(lines.iter().zip(&replies)) {
            let v = json::parse(reply).unwrap();
            assert_eq!(v.get("demand").and_then(Json::as_u64), Some(demand), "{reply}");
            assert_eq!(&fresh.request(line).unwrap(), reply, "demand {demand}");
        }
    });
}

#[test]
fn a_cache_hit_is_never_busy_even_with_the_queue_full() {
    let config = ServeConfig { workers: 1, queue_depth: 1, ..test_config() };
    with_server(config, |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        let plan = format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#);
        let cold = client.request(&plan).unwrap();
        std::thread::scope(|s| {
            let occupant = s.spawn(move || {
                Client::connect(addr).unwrap().request(r#"{"op":"stall","ms":500}"#).unwrap()
            });
            await_counter(server, "serve.dequeued", 2);
            let queued = s.spawn(move || {
                Client::connect(addr).unwrap().request(r#"{"op":"stall","ms":0}"#).unwrap()
            });
            await_counter(server, "serve.enqueued", 3);
            // Worker busy, queue full: the cached key is still answered.
            assert_eq!(client.request(&plan).unwrap(), cold);
            assert_eq!(server.recorder().counter("serve.busy"), 0);
            assert!(occupant.join().unwrap().contains("stalled"));
            assert!(queued.join().unwrap().contains("stalled"));
        });
    });
}

#[test]
fn an_unterminated_line_past_the_cap_is_rejected_and_hung_up() {
    with_server(test_config(), |server, addr| {
        let hostile = TcpStream::connect(addr).unwrap();
        let mut writer = hostile.try_clone().unwrap();
        std::thread::scope(|s| {
            // 1 MiB without a newline; the server stops reading after the
            // cap, so the tail of this write may fail — that is expected.
            s.spawn(move || {
                let _ = writer.write_all(&vec![b'x'; 1 << 20]);
            });
            let mut reader = BufReader::new(&hostile);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = json::parse(line.trim()).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"), "{line}");
            let message = v.get("message").and_then(Json::as_str).unwrap_or_default();
            assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{line}");
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF, got {line:?}");
            // Another client on the same server is unaffected.
            let mut other = Client::connect(addr).unwrap();
            assert!(other.request(r#"{"op":"ping"}"#).unwrap().contains("pong"));
        });
        assert_eq!(server.recorder().counter("serve.bad_request"), 1);
    });
}

#[test]
fn deeply_nested_json_is_a_bad_request_and_the_connection_keeps_serving() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        // Well under the line cap, far over the parser's nesting cap.
        let line = client.request(&"[".repeat(50_000)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"), "{line}");
        assert!(line.contains("nesting too deep"), "{line}");
        assert!(client.request(r#"{"op":"ping"}"#).unwrap().contains("pong"));
        assert_eq!(server.recorder().counter("serve.bad_request"), 1);
    });
}
