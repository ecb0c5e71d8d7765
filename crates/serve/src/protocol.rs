//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. The
//! grammar is the small JSON subset [`dmf_obs::json`] parses; every
//! response is a single object whose first member is `"ok"`.
//!
//! # Requests
//!
//! ```text
//! {"op":"plan","ratio":"2:1:1:1:1:1:9","demand":20}
//! {"op":"plan","ratio":"3:5","demand":8,"algorithm":"rma","scheduler":"mms",
//!  "mixers":3,"storage":4,"deadline_ms":5000}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! # Responses
//!
//! ```text
//! {"ok":true,"type":"plan","fingerprint":"<16 hex>","demand":20,"passes":1,
//!  "tc":11,"tms":27,"waste":5,"inputs":25,"storage_peak":5,"mixers":3,
//!  "summary":"D=20 passes=1 Tc=11 Tms=27 W=5 I=25 q=5 (Mc=3)"}
//! {"ok":false,"error":"busy","message":"..."}
//! {"ok":false,"error":"infeasible","message":"FEAS001: component sum 3 is not..."}
//! ```
//!
//! A plain plan response is a pure function of the request's
//! [`dmf_engine::PlanKey`] tuple: equal keys produce byte-identical
//! response lines whether they were served from the cache or planned
//! fresh — the protocol deliberately carries no hit/miss marker. A
//! request may opt out of that purity with `"trace":true`, which appends
//! the request's `trace_id` (16 hex digits) and a `stages` array of
//! `{name, start_ns, dur_ns}` span records — timings, by nature, differ
//! between runs.

use dmf_engine::{EngineConfig, StreamPlan};
use dmf_obs::json::{self, Json};
use dmf_obs::SpanRecord;
use dmf_ratio::TargetRatio;
use std::fmt;

/// Demand used when a plan request omits `"demand"` (matches the
/// `dmfstream` CLI default).
pub const DEFAULT_DEMAND: u64 = 32;

/// Longest `stall` a request may ask for, in milliseconds; a longer one
/// is a `bad_request`, so no client can hold a planner permit (and with
/// it shutdown) for longer than this.
pub const MAX_STALL_MS: u64 = 10_000;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Plan a target; a cache hit is answered at once, a miss is planned
    /// on the connection thread under a planner permit.
    Plan(PlanSpec),
    /// Report `serve.*` metrics and plan-cache statistics.
    Stats,
    /// Liveness probe answered inline by the connection thread.
    Ping,
    /// Stop accepting connections and drain the requests waiting for a
    /// planner permit.
    Shutdown,
    /// Test-only: hold a planner permit for `ms` milliseconds (at most
    /// [`MAX_STALL_MS`]). Used by the integration tests (and nothing
    /// else) to fill the line of waiters deterministically; not part of
    /// the public grammar.
    Stall {
        /// How long the permit is held.
        ms: u64,
    },
}

/// A plan request: the target, demand and engine-config overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// The target CF ratio.
    pub ratio: TargetRatio,
    /// Demand `D` (defaults to [`DEFAULT_DEMAND`]).
    pub demand: u64,
    /// Engine configuration after applying the request's overrides.
    pub config: EngineConfig,
    /// Per-request queueing deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether the response should embed the request's trace ID and
    /// per-stage span breakdown (`"trace":true`; defaults to `false`).
    pub trace: bool,
}

/// Why a request line was rejected.
///
/// Carries the typed response code the connection thread answers with:
/// `bad_request` for malformed lines, `infeasible` when the request was
/// well-formed but the mixability pre-pass proved no plan can exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    code: &'static str,
    message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError::bad_request(message)
    }

    /// A malformed request line (bad JSON, unknown op, ill-typed member).
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtocolError { code: "bad_request", message: message.into() }
    }

    /// A well-formed request the feasibility pre-pass rejected: the CF
    /// vector is unreachable, so the server fails fast instead of
    /// spending a planner permit on it.
    pub fn infeasible(message: impl Into<String>) -> Self {
        ProtocolError { code: "infeasible", message: message.into() }
    }

    /// A well-formed request naming a mixing algorithm the
    /// [`dmf_mixalgo::MixingAlgorithmRegistry`] does not know. Its own
    /// code (rather than `bad_request`) so clients can tell a typo'd
    /// algorithm from a malformed line — the message lists the
    /// registered keys.
    pub fn unknown_algo(message: impl Into<String>) -> Self {
        ProtocolError { code: "unknown_algo", message: message.into() }
    }

    /// The response code this rejection is answered with.
    pub fn code(&self) -> &'static str {
        self.code
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn member_u64(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::new(format!("{key:?} must be a non-negative integer"))),
    }
}

fn member_bool(obj: &Json, key: &str) -> Result<Option<bool>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ProtocolError::new(format!("{key:?} must be a boolean"))),
    }
}

fn member_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ProtocolError::new(format!("{key:?} must be a string"))),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] describing the first problem: malformed
/// JSON, a missing/unknown `"op"`, a bad ratio or an ill-typed member.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value = json::parse(line).map_err(|e| ProtocolError::new(format!("bad JSON: {e}")))?;
    let op = member_str(&value, "op")?.ok_or_else(|| {
        ProtocolError::new("missing \"op\" (expected plan, stats, ping or shutdown)")
    })?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "stall" => match member_u64(&value, "ms")?.unwrap_or(100) {
            ms @ 0..=MAX_STALL_MS => Ok(Request::Stall { ms }),
            _ => Err(ProtocolError::new(format!("\"ms\" must be at most {MAX_STALL_MS}"))),
        },
        "plan" => {
            let ratio_text = member_str(&value, "ratio")?
                .ok_or_else(|| ProtocolError::new("plan needs a \"ratio\" string"))?;
            let parts: Vec<u64> = ratio_text
                .split(':')
                .map(|p| p.trim().parse::<u64>())
                .collect::<Result<_, _>>()
                .map_err(|e| ProtocolError::new(format!("bad ratio {ratio_text:?}: {e}")))?;
            let demand = member_u64(&value, "demand")?.unwrap_or(DEFAULT_DEMAND);
            // The mixability pre-pass runs on the raw parts, before
            // TargetRatio construction: unsatisfiable requests are
            // rejected here and never take a planner permit.
            dmf_check::assert_feasible(&parts, demand)
                .map_err(|e| ProtocolError::infeasible(e.to_string()))?;
            let ratio = TargetRatio::new(parts)
                .map_err(|e| ProtocolError::new(format!("bad ratio {ratio_text:?}: {e}")))?;
            let mut config = EngineConfig::default();
            // "algo" is accepted as an alias for "algorithm" (the CLI's
            // --algo shorthand); "algorithm" wins when both are present.
            let algo_name = match member_str(&value, "algorithm")? {
                Some(name) => Some(name),
                None => member_str(&value, "algo")?,
            };
            if let Some(name) = algo_name {
                let id = dmf_mixalgo::MixingAlgorithmRegistry::resolve(name)
                    .map_err(|e| ProtocolError::unknown_algo(e.to_string()))?;
                config = config.with_algorithm(id);
            }
            if let Some(name) = member_str(&value, "scheduler")? {
                let kind = dmf_sched::SchedulerKind::resolve(name)
                    .map_err(|e| ProtocolError::new(e.to_string()))?;
                config = config.with_scheduler(kind);
            }
            if let Some(mixers) = member_u64(&value, "mixers")? {
                let mixers = usize::try_from(mixers)
                    .map_err(|_| ProtocolError::new("\"mixers\" out of range"))?;
                config = config.with_mixers(mixers);
            }
            if let Some(storage) = member_u64(&value, "storage")? {
                let storage = usize::try_from(storage)
                    .map_err(|_| ProtocolError::new("\"storage\" out of range"))?;
                config = config.with_storage_limit(storage);
            }
            let deadline_ms = member_u64(&value, "deadline_ms")?;
            let trace = member_bool(&value, "trace")?.unwrap_or(false);
            Ok(Request::Plan(PlanSpec { ratio, demand, config, deadline_ms, trace }))
        }
        other => Err(ProtocolError::new(format!(
            "unknown op {other:?} (expected plan, stats, ping or shutdown)"
        ))),
    }
}

fn plan_response_body(plan: &StreamPlan, fingerprint: u64) -> String {
    format!(
        "\"ok\":true,\"type\":\"plan\",\"fingerprint\":\"{fingerprint:016x}\",\
         \"demand\":{},\"passes\":{},\"tc\":{},\"tms\":{},\"waste\":{},\"inputs\":{},\
         \"storage_peak\":{},\"mixers\":{},\"summary\":\"{}\"",
        plan.demand,
        plan.passes.len(),
        plan.total_cycles,
        plan.total_mix_splits,
        plan.total_waste,
        plan.total_inputs,
        plan.storage_peak,
        plan.mixers,
        json::escape(&plan.to_string()),
    )
}

/// The success response for a planned request.
///
/// `fingerprint` is the request's [`dmf_engine::PlanKey::fingerprint`],
/// rendered as 16 lowercase hex digits.
pub fn plan_response(plan: &StreamPlan, fingerprint: u64) -> String {
    format!("{{{}}}", plan_response_body(plan, fingerprint))
}

/// Like [`plan_response`], but for requests that asked for a trace
/// (`"trace":true`): appends the request's `trace_id` as 16 hex digits
/// and a `stages` array with the span breakdown recorded so far
/// (queue wait, pipeline stages, …), each as
/// `{"name":…,"start_ns":…,"dur_ns":…}` relative to the recorder epoch.
pub fn plan_response_traced(
    plan: &StreamPlan,
    fingerprint: u64,
    trace_id: u64,
    stages: &[SpanRecord],
) -> String {
    let mut out = format!("{{{}", plan_response_body(plan, fingerprint));
    out.push_str(&format!(",\"trace_id\":\"{trace_id:016x}\",\"stages\":["));
    for (i, s) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            json::escape(s.name),
            s.start_ns,
            s.dur_ns,
        ));
    }
    out.push_str("]}");
    out
}

/// A typed error response; `code` is one of `bad_request`, `infeasible`,
/// `unknown_algo`, `busy`, `deadline`, `plan_failed`, `shutting_down` or
/// `internal`.
pub fn error_response(code: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}",
        json::escape(code),
        json::escape(message)
    )
}

/// The response to `{"op":"ping"}`.
pub fn pong_response() -> String {
    "{\"ok\":true,\"type\":\"pong\"}".to_owned()
}

/// The response to `{"op":"shutdown"}`.
pub fn shutdown_response() -> String {
    "{\"ok\":true,\"type\":\"shutdown\"}".to_owned()
}

/// The response to a test-only stall request.
pub fn stalled_response(ms: u64) -> String {
    format!("{{\"ok\":true,\"type\":\"stalled\",\"ms\":{ms}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_engine::MixerBudget;
    use dmf_mixalgo::AlgorithmId;
    use dmf_sched::SchedulerKind;

    #[test]
    fn parses_a_minimal_plan_request() {
        let r = parse_request(r#"{"op":"plan","ratio":"2:1:1:1:1:1:9"}"#).unwrap();
        let Request::Plan(spec) = r else { panic!("expected a plan request") };
        assert_eq!(spec.demand, DEFAULT_DEMAND);
        assert_eq!(spec.config, EngineConfig::default());
        assert_eq!(spec.deadline_ms, None);
        assert!(!spec.trace);
        assert_eq!(spec.ratio.parts(), &[2, 1, 1, 1, 1, 1, 9]);
    }

    #[test]
    fn parses_the_trace_flag() {
        let r = parse_request(r#"{"op":"plan","ratio":"1:1","trace":true}"#).unwrap();
        let Request::Plan(spec) = r else { panic!("expected a plan request") };
        assert!(spec.trace);
        assert!(parse_request(r#"{"op":"plan","ratio":"1:1","trace":"yes"}"#).is_err());
    }

    #[test]
    fn parses_all_config_overrides() {
        let r = parse_request(
            r#"{"op":"plan","ratio":"3:5","demand":8,"algorithm":"rma","scheduler":"mms","mixers":3,"storage":4,"deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Plan(spec) = r else { panic!("expected a plan request") };
        assert_eq!(spec.demand, 8);
        assert_eq!(spec.config.algorithm, AlgorithmId::RMA);
        assert_eq!(spec.config.scheduler, SchedulerKind::Mms);
        assert_eq!(spec.config.mixers, MixerBudget::Fixed(3));
        assert_eq!(spec.config.storage_limit, Some(4));
        assert_eq!(spec.deadline_ms, Some(250));
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(parse_request(r#"{"op":"stall","ms":7}"#).unwrap(), Request::Stall { ms: 7 });
    }

    #[test]
    fn stalls_are_bounded() {
        let at_bound = format!(r#"{{"op":"stall","ms":{MAX_STALL_MS}}}"#);
        assert_eq!(parse_request(&at_bound).unwrap(), Request::Stall { ms: MAX_STALL_MS });
        for ms in [MAX_STALL_MS + 1, u64::MAX] {
            let err = parse_request(&format!(r#"{{"op":"stall","ms":{ms}}}"#)).unwrap_err();
            assert_eq!(err.code(), "bad_request");
            assert!(err.to_string().contains(&MAX_STALL_MS.to_string()), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"ratio":"1:1"}"#).is_err());
        assert!(parse_request(r#"{"op":"teleport"}"#).is_err());
        assert!(parse_request(r#"{"op":"plan"}"#).is_err());
        assert!(parse_request(r#"{"op":"plan","ratio":"1:2"}"#).is_err()); // sum not 2^d
        assert!(parse_request(r#"{"op":"plan","ratio":"1:1","demand":"many"}"#).is_err());
        assert!(parse_request(r#"{"op":"plan","ratio":"1:1","algorithm":"magic"}"#).is_err());
    }

    #[test]
    fn infeasible_requests_carry_their_own_code() {
        // Sum 3 is not a power of two: well-formed but unsatisfiable.
        let err = parse_request(r#"{"op":"plan","ratio":"1:2"}"#).unwrap_err();
        assert_eq!(err.code(), "infeasible");
        assert!(err.to_string().contains("FEAS001"), "{err}");
        // A single pure fluid has nothing to mix.
        let err = parse_request(r#"{"op":"plan","ratio":"16"}"#).unwrap_err();
        assert_eq!(err.code(), "infeasible");
        assert!(err.to_string().contains("FEAS002"), "{err}");
        // Zero demand is degenerate, caught before any planning.
        let err = parse_request(r#"{"op":"plan","ratio":"1:1","demand":0}"#).unwrap_err();
        assert_eq!(err.code(), "infeasible");
        // Malformed components stay bad_request: "1:x" is not even a ratio.
        let err = parse_request(r#"{"op":"plan","ratio":"1:x"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn unknown_algorithms_carry_their_own_code() {
        let err = parse_request(r#"{"op":"plan","ratio":"1:1","algorithm":"magic"}"#).unwrap_err();
        assert_eq!(err.code(), "unknown_algo");
        assert!(err.to_string().contains("mm"), "{err}");
        // The short "algo" alias resolves through the same registry.
        let err = parse_request(r#"{"op":"plan","ratio":"1:1","algo":"magic"}"#).unwrap_err();
        assert_eq!(err.code(), "unknown_algo");
        let r = parse_request(r#"{"op":"plan","ratio":"1:1","algo":"rma"}"#).unwrap();
        let Request::Plan(spec) = r else { panic!("expected a plan request") };
        assert_eq!(spec.config.algorithm, AlgorithmId::RMA);
        // Unknown schedulers stay bad_request: the scheduler set is closed.
        let err = parse_request(r#"{"op":"plan","ratio":"1:1","scheduler":"fifo"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert_eq!(err.to_string(), r#"unknown scheduler "fifo" (registered: mms, srs)"#);
    }

    #[test]
    fn responses_parse_back() {
        let err = error_response("busy", "queue full \"now\"");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
        assert_eq!(v.get("message").and_then(Json::as_str), Some("queue full \"now\""));
        assert!(json::parse(&pong_response()).is_ok());
        assert!(json::parse(&shutdown_response()).is_ok());
        assert!(json::parse(&stalled_response(3)).is_ok());
    }

    #[test]
    fn traced_plan_response_parses_back_with_stages() {
        let plan = dmf_engine::StreamingEngine::new(EngineConfig::default())
            .plan(&"2:1:1:1:1:1:9".parse::<TargetRatio>().unwrap(), 20)
            .unwrap();
        let stages = vec![
            SpanRecord {
                name: "serve_queue_wait",
                trace_id: 0xabc,
                span_id: 1,
                parent_id: 0xabc,
                tid: 1,
                start_ns: 10,
                dur_ns: 5,
            },
            SpanRecord {
                name: "stage_schedule",
                trace_id: 0xabc,
                span_id: 2,
                parent_id: 1,
                tid: 2,
                start_ns: 20,
                dur_ns: 7,
            },
        ];
        let line = plan_response_traced(&plan, 0x1234, 0xabc, &stages);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("trace_id").and_then(Json::as_str), Some("0000000000000abc"));
        let Some(Json::Arr(out)) = v.get("stages") else { panic!("stages must be an array") };
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].get("name").and_then(Json::as_str), Some("stage_schedule"));
        assert_eq!(out[1].get("dur_ns").and_then(Json::as_u64), Some(7));
        // The untraced response is the traced one minus the trace members.
        let plain = plan_response(&plan, 0x1234);
        assert!(line.starts_with(&plain[..plain.len() - 1]));
    }
}
