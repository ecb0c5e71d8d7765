//! `dmfstream` — command-line front end for the droplet-streaming engine.
//!
//! ```bash
//! dmfstream plan 2:1:1:1:1:1:9 --demand 20
//! dmfstream plan 26:21:2:2:3:3:199 --demand 32 --algorithm rma --scheduler mms
//! dmfstream plan 2:1:1:1:1:1:9 --demand 32 --storage 3 --mixers 3
//! dmfstream plan --all-protocols --jobs 4
//! dmfstream simulate 2:1:1:1:1:1:9 --demand 20
//! dmfstream gantt 2:1:1:1:1:1:9 --demand 20
//! dmfstream simulate 2:1:1:1:1:1:9 --demand 20 --metrics out.jsonl
//! DMF_OBS=1 dmfstream simulate 2:1:1:1:1:1:9 --demand 20
//! dmfstream fault 2:1:1:1:1:1:9 --demand 20 --seed 42 --fault-rate 0.05
//! dmfstream check --all-protocols --jobs 4
//! dmfstream check --all-protocols --deep --deny warn --json results/findings.json
//! dmfstream check --explain FLOW001
//! dmfstream profile 2:1:1:1:1:1:9 --demand 20 --folded plan.folded --chrome plan.trace.json
//! dmfstream serve --port 7070 --workers 4 --cache-capacity 256 --slow-ms 250
//! dmfstream request 2:1:1:1:1:1:9 --demand 20 --connect 127.0.0.1:7070
//! dmfstream request 2:1:1:1:1:1:9 --demand 20 --trace --connect 127.0.0.1:7070
//! dmfstream request --op stats --connect 127.0.0.1:7070
//! dmfstream request --op shutdown --connect 127.0.0.1:7070
//! ```
//!
//! `plan --all-protocols` and `check --all-protocols` plan every Table 2
//! protocol through the batch planner ([`dmf_engine::plan_batch`]) with a
//! shared content-addressed plan cache; `--jobs N` sets the worker-thread
//! count (default: available parallelism), `--cache-shards N` the cache's
//! lock-shard count (default: available parallelism) and `--no-cache`
//! disables the cache. Output is deterministic and independent of both
//! `--jobs` and `--cache-shards`.
//!
//! `--metrics <path>` (or the `DMF_OBS=1` environment variable, which
//! defaults to `results/obs/dmfstream.jsonl`) enables the global
//! [`dmf_obs`] recorder: the run's spans, counters and gauges are dumped
//! as JSON lines to the path and a human-readable summary table is
//! printed at the end.
//!
//! `serve` starts the [`dmf_serve`] planning service (it prints
//! `listening on ADDR` once bound — pass `--port 0` to pick a free port)
//! and `request` is the matching one-shot client: it builds the protocol
//! line from the same planning flags `plan` takes, sends it, and prints
//! the raw JSON response. `request` exits non-zero when the server
//! answers with an error response.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::chip::presets::streaming_chip;
use dmfstream::engine::{
    default_shard_count, plan_batch, realize_pass, BatchOptions, EngineConfig, PlanCache,
    PlanRequest, RecoveryPolicy, StreamingEngine, DEFAULT_PLAN_CACHE_CAPACITY,
};
use dmfstream::fault::{run_campaign, Campaign, FaultConfig, WearTracker};
use dmfstream::mixalgo::AlgorithmId;
use dmfstream::obs;
use dmfstream::pins::BackendKind;
use dmfstream::ratio::TargetRatio;
use dmfstream::sched::SchedulerKind;
use dmfstream::serve::{Client, ServeConfig, Server};
use dmfstream::sim::Simulator;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    /// Raw positional ratio components. Kept unconstructed so the
    /// feasibility pre-pass can run on shapes `TargetRatio` rejects
    /// (and report FEAS001/FEAS002 instead of a parse error).
    ratio: Option<Vec<u64>>,
    all_protocols: bool,
    demand: u64,
    config: EngineConfig,
    fault: FaultConfig,
    policy: RecoveryPolicy,
    backend: Option<BackendKind>,
    trace: bool,
    metrics: Option<PathBuf>,
    report: Option<PathBuf>,
    jobs: Option<NonZeroUsize>,
    no_cache: bool,
    cache_shards: Option<NonZeroUsize>,
    serve: ServeConfig,
    deadline_ms: Option<u64>,
    connect: Option<String>,
    op: String,
    folded: Option<PathBuf>,
    chrome: Option<PathBuf>,
    deep: bool,
    deny: dmfstream::check::Severity,
    explain: Option<String>,
    json: Option<PathBuf>,
    list_algorithms: bool,
    list_schedulers: bool,
}

/// The flags each verb accepts. Unknown-flag errors quote the relevant
/// list, so a typo under `check` suggests `check`'s flags, not `fault`'s.
fn valid_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "plan" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--metrics",
            "--all-protocols",
            "--jobs",
            "--no-cache",
            "--cache-shards",
            "--backend",
            "--list-algorithms",
            "--list-schedulers",
        ]),
        "gantt" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--metrics",
        ]),
        "simulate" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--metrics",
            "--trace",
        ]),
        "fault" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--metrics",
            "--trace",
            "--seed",
            "--fault-rate",
            "--sensor-period",
            "--max-replans",
            "--backend",
        ]),
        "check" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--metrics",
            "--all-protocols",
            "--jobs",
            "--no-cache",
            "--cache-shards",
            "--report",
            "--backend",
            "--deep",
            "--deny",
            "--explain",
            "--json",
        ]),
        "profile" => Some(&[
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--folded",
            "--chrome",
        ]),
        "serve" => Some(&[
            "--addr",
            "--port",
            "--workers",
            "--queue-depth",
            "--cache-capacity",
            "--cache-shards",
            "--deadline-ms",
            "--slow-ms",
        ]),
        "request" => Some(&[
            "--connect",
            "--op",
            "--demand",
            "--mixers",
            "--storage",
            "--algorithm",
            "--algo",
            "--scheduler",
            "--deadline-ms",
            "--trace",
        ]),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dmfstream <plan|gantt|simulate|fault|check|profile|serve|request> <a1:a2:...:aN> \
         [--demand D] [--mixers M] [--storage Q] \
         [--algorithm|--algo NAME] [--scheduler NAME] [--trace] \
         (`dmfstream plan --list-algorithms` / `--list-schedulers` print the \
         registered names) \
         [--metrics PATH]  (DMF_OBS=1 defaults PATH to results/obs/dmfstream.jsonl)\n\
         fault-only flags: [--seed S] [--fault-rate R] [--sensor-period C] \
         [--max-replans N]\n\
         pin backends (plan/check/fault): [--backend \
         direct-address|row-column|broadcast] wires the chip with a shared-pin \
         backend — plan reports the pin count, check audits the PIN/* rules, \
         fault runs the campaign under the pinned simulator\n\
         batch flags (plan/check with --all-protocols): [--jobs N] [--no-cache] \
         [--cache-shards N]  (default: available parallelism)\n\
         check-only flags: dmfstream check <ratio|--all-protocols> \
         [--deep] [--deny warn|error] [--report PATH] [--json PATH] \
         [--explain CODE]; --deep replays every realized pass through the \
         droplet-lineage dataflow analysis (FLOW/FEAS rules), --deny warn \
         also fails on warnings, --report writes JSONL, --json a single \
         findings document, --explain prints a rule's long-form doc; \
         exit 0 clean, 1 diagnostics at/above the deny level, \
         2 usage/IO errors\n\
         profile flags: dmfstream profile <ratio> [--folded PATH] [--chrome PATH] \
         plans under the tracer and prints the span-tree profile; --folded \
         writes flamegraph.pl folded stacks, --chrome a Chrome/Perfetto trace\n\
         serve flags: [--addr HOST:PORT | --port P] [--workers N] \
         [--queue-depth N] [--cache-capacity N] [--cache-shards N] \
         [--deadline-ms MS] [--slow-ms MS]; --workers caps the plans in \
         flight at once, --queue-depth the requests waiting for one (a \
         further miss is answered busy)\n\
         request flags: --connect HOST:PORT [--op plan|stats|ping|shutdown] \
         [--deadline-ms MS] [--trace] plus the plan flags above"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next().ok_or("missing command")?;
    let allowed = valid_flags(&command).ok_or(format!(
        "unknown command {command:?} (expected plan, gantt, simulate, fault, check, profile, \
         serve or request)"
    ))?;
    let ratio = match argv.peek() {
        Some(text) if !text.starts_with("--") => {
            let text = argv.next().ok_or("missing target ratio")?;
            // Only the *shape* is parsed here; whether the components form
            // a reachable CF vector is the feasibility pre-pass's job, so
            // it can answer with FEAS rule codes instead of a parse error.
            let parts: Vec<u64> = text
                .split(':')
                .map(|p| p.trim().parse::<u64>().map_err(|e| format!("bad ratio {text:?}: {e}")))
                .collect::<Result<_, _>>()?;
            Some(parts)
        }
        _ => None,
    };
    let mut all_protocols = false;
    let mut report: Option<PathBuf> = None;
    let mut demand = 32u64;
    let mut config = EngineConfig::default();
    let mut fault = FaultConfig::default();
    let mut policy = RecoveryPolicy::default();
    let mut backend: Option<BackendKind> = None;
    let mut trace = false;
    let mut metrics: Option<PathBuf> = None;
    let mut jobs: Option<NonZeroUsize> = None;
    let mut no_cache = false;
    let mut cache_shards: Option<NonZeroUsize> = None;
    let mut serve = ServeConfig::default();
    let mut deadline_ms: Option<u64> = None;
    let mut connect: Option<String> = None;
    let mut op = String::from("plan");
    let mut folded: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut deep = false;
    let mut deny = dmfstream::check::Severity::Error;
    let mut explain: Option<String> = None;
    let mut json: Option<PathBuf> = None;
    let mut list_algorithms = false;
    let mut list_schedulers = false;
    while let Some(flag) = argv.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag {flag:?} for {command:?}; valid flags: {}",
                allowed.join(", ")
            ));
        }
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--trace" => trace = true,
            "--all-protocols" => all_protocols = true,
            "--report" => report = Some(PathBuf::from(value()?)),
            "--seed" => {
                fault = fault.with_seed(value()?.parse().map_err(|e| format!("bad seed: {e}"))?)
            }
            "--fault-rate" => {
                fault = fault
                    .with_fault_rate(value()?.parse().map_err(|e| format!("bad fault rate: {e}"))?)
            }
            "--sensor-period" => {
                fault = fault.with_sensor_period(
                    value()?.parse().map_err(|e| format!("bad sensor period: {e}"))?,
                )
            }
            "--max-replans" => {
                policy = policy.with_max_replans(
                    value()?.parse().map_err(|e| format!("bad replan budget: {e}"))?,
                )
            }
            "--backend" => {
                backend = Some(value()?.parse().map_err(|e| format!("bad backend: {e}"))?)
            }
            "--metrics" => metrics = Some(PathBuf::from(value()?)),
            "--jobs" => {
                let raw = value()?;
                jobs = Some(raw.parse::<NonZeroUsize>().map_err(|_| {
                    format!("--jobs must be a positive integer (worker threads), got {raw:?}")
                })?)
            }
            "--no-cache" => no_cache = true,
            "--cache-shards" => {
                let raw = value()?;
                let shards = raw.parse::<NonZeroUsize>().map_err(|_| {
                    format!("--cache-shards must be a positive integer (cache shards), got {raw:?}")
                })?;
                cache_shards = Some(shards);
                serve.cache_shards = shards.get();
            }
            "--addr" => serve.addr = value()?,
            "--port" => {
                let port: u16 = value()?.parse().map_err(|e| format!("bad port: {e}"))?;
                serve.addr = format!("127.0.0.1:{port}");
            }
            "--workers" => {
                serve.workers = value()?.parse().map_err(|e| format!("bad workers: {e}"))?
            }
            "--queue-depth" => {
                serve.queue_depth = value()?.parse().map_err(|e| format!("bad queue depth: {e}"))?
            }
            "--cache-capacity" => {
                serve.cache_capacity =
                    value()?.parse().map_err(|e| format!("bad cache capacity: {e}"))?
            }
            "--deadline-ms" => {
                let ms: u64 = value()?.parse().map_err(|e| format!("bad deadline: {e}"))?;
                serve.default_deadline_ms = ms;
                deadline_ms = Some(ms);
            }
            "--slow-ms" => {
                serve.slow_ms =
                    Some(value()?.parse().map_err(|e| format!("bad slow threshold: {e}"))?)
            }
            "--folded" => folded = Some(PathBuf::from(value()?)),
            "--chrome" => chrome = Some(PathBuf::from(value()?)),
            "--deep" => deep = true,
            "--deny" => {
                deny = match value()?.to_lowercase().as_str() {
                    "warn" | "warning" => dmfstream::check::Severity::Warning,
                    "error" => dmfstream::check::Severity::Error,
                    other => return Err(format!("--deny expects warn or error, got {other:?}")),
                }
            }
            "--explain" => explain = Some(value()?),
            "--json" => json = Some(PathBuf::from(value()?)),
            "--connect" => connect = Some(value()?),
            "--op" => op = value()?,
            "--demand" => demand = value()?.parse().map_err(|e| format!("bad demand: {e}"))?,
            "--mixers" => {
                config =
                    config.with_mixers(value()?.parse().map_err(|e| format!("bad mixers: {e}"))?)
            }
            "--storage" => {
                config = config
                    .with_storage_limit(value()?.parse().map_err(|e| format!("bad storage: {e}"))?)
            }
            "--algorithm" | "--algo" => {
                let name = value()?;
                let id = AlgorithmId::resolve(&name).map_err(|e| {
                    format!("{e}; run `dmfstream plan --list-algorithms` for descriptions")
                })?;
                config = config.with_algorithm(id);
            }
            "--scheduler" => {
                let name = value()?;
                let kind = SchedulerKind::resolve(&name).map_err(|e| {
                    format!("{e}; run `dmfstream plan --list-schedulers` for descriptions")
                })?;
                config = config.with_scheduler(kind);
            }
            "--list-algorithms" => list_algorithms = true,
            "--list-schedulers" => list_schedulers = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if metrics.is_none() && std::env::var_os("DMF_OBS").is_some_and(|v| v != "0") {
        metrics = Some(PathBuf::from("results/obs/dmfstream.jsonl"));
    }
    Ok(Args {
        command,
        ratio,
        all_protocols,
        demand,
        config,
        fault,
        policy,
        backend,
        trace,
        metrics,
        report,
        jobs,
        no_cache,
        cache_shards,
        serve,
        deadline_ms,
        connect,
        op,
        folded,
        chrome,
        deep,
        deny,
        explain,
        json,
        list_algorithms,
        list_schedulers,
    })
}

/// Prints the mixing algorithms and/or schedulers, one per
/// line with its one-line description — the output behind
/// `dmfstream plan --list-algorithms` / `--list-schedulers`.
fn print_registries(algorithms: bool, schedulers: bool) {
    if algorithms {
        println!("mixing algorithms:");
        for id in AlgorithmId::ALL {
            let aliases = if id.aliases().is_empty() {
                String::new()
            } else {
                format!(" (aliases: {})", id.aliases().join(", "))
            };
            println!("  {:<8} {:<6} {}{}", id.key(), id.label(), id.description(), aliases);
        }
    }
    if schedulers {
        println!("schedulers:");
        for kind in SchedulerKind::ALL {
            println!("  {:<8} {:<6} {}", kind.key(), kind.name(), kind.description());
        }
    }
}

/// Resolves the positional ratio parts into a [`TargetRatio`], gated by
/// the mixability pre-pass: an infeasible request prints its FEAS
/// diagnostics and exits 1 before any planning starts.
fn resolve_ratio(parts: &[u64], demand: u64) -> Result<TargetRatio, ExitCode> {
    let feas = dmfstream::check::check_feasibility(parts, demand);
    if !feas.is_empty() {
        eprintln!("error: infeasible request (no plan can exist):");
        eprintln!("{}", feas.table());
        return Err(ExitCode::FAILURE);
    }
    TargetRatio::new(parts.to_vec()).map_err(|e| {
        eprintln!("error: bad ratio: {e}");
        ExitCode::FAILURE
    })
}

/// The ratio text sent over the wire by `dmfstream request` — the raw
/// components, unvalidated: feasibility is deliberately left to the
/// server so its typed `infeasible` rejection is reachable from the CLI.
fn ratio_text(parts: &[u64]) -> String {
    let rendered: Vec<String> = parts.iter().map(u64::to_string).collect();
    rendered.join(":")
}

/// Batch-planner options shared by `plan --all-protocols` and `check`:
/// explicit `--jobs` if given, and a fresh shared cache unless
/// `--no-cache` (sharded per `--cache-shards`, defaulting to the
/// machine's available parallelism).
fn batch_options(args: &Args) -> BatchOptions {
    let mut options = BatchOptions::new();
    if let Some(jobs) = args.jobs {
        options = options.with_jobs(jobs);
    }
    if !args.no_cache {
        let shards = args.cache_shards.map_or_else(default_shard_count, NonZeroUsize::get);
        options = options.with_cache(PlanCache::shared_with_capacity_and_shards(
            DEFAULT_PLAN_CACHE_CAPACITY,
            shards,
        ));
    }
    options
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.metrics.is_some() {
        obs::global().set_enabled(true);
    }
    let code = run(&args);
    if let Some(path) = &args.metrics {
        match obs::global().export_jsonl_path(path) {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => eprintln!("error: cannot write metrics to {}: {e}", path.display()),
        }
        println!("\n{}", obs::MetricsReport::from_recorder(obs::global()));
    }
    code
}

fn run(args: &Args) -> ExitCode {
    if args.list_algorithms || args.list_schedulers {
        print_registries(args.list_algorithms, args.list_schedulers);
        return ExitCode::SUCCESS;
    }
    if args.command == "serve" {
        return run_serve(args);
    }
    if args.command == "request" {
        return run_request(args);
    }
    if args.command == "check" {
        return run_check(args);
    }
    if args.command == "profile" {
        return run_profile(args);
    }
    if args.command == "plan" && args.all_protocols {
        return run_plan_all(args);
    }
    let Some(parts) = &args.ratio else {
        eprintln!("error: missing target ratio");
        return usage();
    };
    let ratio = match resolve_ratio(parts, args.demand) {
        Ok(ratio) => ratio,
        Err(code) => return code,
    };
    let ratio = &ratio;
    if args.command == "fault" {
        return run_fault(args, ratio);
    }
    let engine = StreamingEngine::new(args.config);
    let plan = match engine.plan(ratio, args.demand) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.command.as_str() {
        "plan" => {
            println!("{plan}");
            println!("I[] = {:?}", plan.inputs);
            for (i, pass) in plan.passes.iter().enumerate() {
                println!(
                    "pass {}: D'={} Tc={} q={} Tms={}",
                    i + 1,
                    pass.demand,
                    pass.cycles(),
                    pass.storage_units(),
                    pass.forest.node_count()
                );
            }
            if let Some(backend) = args.backend {
                match backend_pins(backend, ratio, plan.mixers, plan.storage_peak.max(1)) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "gantt" => {
            println!("{plan}");
            for (i, pass) in plan.passes.iter().enumerate() {
                println!("\npass {}:", i + 1);
                println!("{}", pass.schedule.gantt(&pass.forest));
            }
            ExitCode::SUCCESS
        }
        "simulate" => {
            let chip =
                match streaming_chip(ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1)) {
                    Ok(chip) => chip,
                    Err(e) => {
                        eprintln!("error: cannot size a chip: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            println!("{}", chip.render());
            for (i, pass) in plan.passes.iter().enumerate() {
                let program = match realize_pass(pass, &chip) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("error: pass {} does not fit the chip: {e}", i + 1);
                        return ExitCode::FAILURE;
                    }
                };
                let simulator = Simulator::new(&chip);
                let outcome = if args.trace {
                    simulator.run_traced(&program).map(|(report, trace)| {
                        println!("{}", trace.render());
                        report
                    })
                } else {
                    simulator.run(&program)
                };
                match outcome {
                    Ok(report) => {
                        println!("pass {}: {report}", i + 1);
                        if let Some((cell, n)) = report.hottest_electrode() {
                            println!("  hottest electrode: {cell} with {n} actuations");
                        }
                    }
                    Err(e) => {
                        eprintln!("error: simulation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Sizes the plan's chip, wires it with `backend` and formats the
/// `backend:` summary line `plan` prints when `--backend` is given.
fn backend_pins(
    backend: BackendKind,
    ratio: &TargetRatio,
    mixers: usize,
    storage: usize,
) -> Result<String, String> {
    let chip = streaming_chip(ratio.fluid_count(), mixers, storage)
        .map_err(|e| format!("cannot size a chip: {e}"))?;
    let pins = backend.assign(&chip).map_err(|e| format!("backend {backend}: {e}"))?;
    Ok(format!("backend: {backend} pins={} (direct {})", pins.pin_count(), pins.electrode_count()))
}

/// `dmfstream plan --all-protocols`: plans every Table 2 protocol in one
/// [`plan_batch`] call (parallel workers, shared plan cache) and prints each
/// plan in protocol order — output is identical for every `--jobs` value.
fn run_plan_all(args: &Args) -> ExitCode {
    let protocols = dmfstream::workloads::protocols::table2_examples();
    let requests: Vec<PlanRequest> = protocols
        .iter()
        .map(|p| PlanRequest::new(p.ratio.clone(), args.demand).with_config(args.config))
        .collect();
    let results = plan_batch(&requests, &batch_options(args));
    let mut failed = false;
    for (protocol, outcome) in protocols.iter().zip(&results) {
        println!("== {} ({}) ==", protocol.id, protocol.name);
        match outcome {
            Ok(plan) => {
                println!("{plan}");
                println!("I[] = {:?}", plan.inputs);
                if let Some(backend) = args.backend {
                    match backend_pins(
                        backend,
                        &protocol.ratio,
                        plan.mixers,
                        plan.storage_peak.max(1),
                    ) {
                        Ok(line) => println!("{line}"),
                        Err(e) => {
                            eprintln!("error: {}: {e}", protocol.id);
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {}: planning failed: {e}", protocol.id);
                failed = true;
            }
        }
        println!();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `dmfstream check`: runs the mixability pre-pass over each selected
/// target, plans the feasible ones, then runs the independent static
/// verifier over every synthesis artifact — the plan's forests, schedules
/// and storage claims, the streaming chip layout the plan would run on,
/// and a concurrently routed dispense wave across that chip. `--deep`
/// additionally realizes every pass and replays it through the
/// droplet-lineage dataflow analysis (FLOW001–FLOW003). Exit codes:
/// 0 clean, 1 diagnostics at/above the `--deny` level (or planning
/// failures), 2 usage/IO errors.
fn run_check(args: &Args) -> ExitCode {
    use dmfstream::check::{
        check_feasibility, check_pins, check_placement, check_program_flow, check_program_pins,
        check_routes, check_routes_pinned, recount_forest, CheckReport, FlowExpectation, RuleCode,
    };
    use dmfstream::route::{route_concurrent, route_concurrent_pinned, Grid, RouteRequest};

    if let Some(text) = &args.explain {
        return match RuleCode::parse(text) {
            Some(code) => {
                println!("{code} — {}\n\n{}", code.summary(), code.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown rule code {text:?}");
                usage()
            }
        };
    }
    let targets: Vec<(String, Vec<u64>)> = if args.all_protocols {
        dmfstream::workloads::protocols::table2_examples()
            .into_iter()
            .map(|p| (format!("{} ({})", p.id, p.name), p.ratio.parts().to_vec()))
            .collect()
    } else if let Some(parts) = &args.ratio {
        vec![(ratio_text(parts), parts.clone())]
    } else {
        eprintln!("error: check needs a target ratio or --all-protocols");
        return usage();
    };
    // Feasible targets are planned up front by the batch planner — parallel
    // workers plus a shared plan cache — while the chip/route checking below
    // stays a serial walk so the summary prints in target order. Infeasible
    // targets never reach the planner; their FEAS diagnostics fold into the
    // per-target report instead.
    let ratios: Vec<Option<TargetRatio>> = targets
        .iter()
        .map(|(_, parts)| {
            check_feasibility(parts, args.demand)
                .is_empty()
                .then(|| TargetRatio::new(parts.clone()).ok())
                .flatten()
        })
        .collect();
    let requests: Vec<PlanRequest> = ratios
        .iter()
        .flatten()
        .map(|ratio| PlanRequest::new(ratio.clone(), args.demand).with_config(args.config))
        .collect();
    let plans = plan_batch(&requests, &batch_options(args));
    let mut plans = plans.iter();
    let mut summary = obs::Table::new(["target", "artifacts", "errors", "warnings", "verdict"]);
    let mut combined = CheckReport::new();
    let mut failed = false;
    let mut io_error = false;
    for ((label, parts), ratio) in targets.iter().zip(&ratios) {
        // The feasibility pre-pass is itself a checked artifact: its
        // findings appear in the report like any other rule's.
        let mut report = check_feasibility(parts, args.demand);
        let mut artifacts = 1usize;
        let outcome = match ratio {
            Some(_) => plans.next(),
            None => None,
        };
        match (ratio, outcome) {
            (None, _) | (_, None) => {}
            (Some(ratio), Some(Ok(plan))) => {
                artifacts += plan.passes.len() + 1; // per-pass artifacts + aggregates
                report.merge(plan.static_check());
                match streaming_chip(ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1)) {
                    Ok(chip) => {
                        artifacts += 1;
                        report.merge(check_placement(&chip));
                        // With --backend, wire the chip and audit the
                        // assignment itself (PIN001/PIN002), the routes
                        // below (PIN003) and every realized pass (PIN004).
                        let pins = match args.backend {
                            Some(backend) => match backend.assign(&chip) {
                                Ok(pins) => {
                                    artifacts += 1;
                                    report.merge(check_pins(&chip, &pins));
                                    Some(pins)
                                }
                                Err(e) => {
                                    eprintln!("error: {label}: backend cannot wire the chip: {e}");
                                    failed = true;
                                    None
                                }
                            },
                            None => None,
                        };
                        // Route a dispense wave: one droplet per reservoir /
                        // storage-cell pair, across the mixer band.
                        let open: Vec<_> =
                            chip.reservoirs().chain(chip.storage_cells()).map(|m| m.id()).collect();
                        let grid = Grid::from_spec(&chip, &open);
                        let requests: Vec<RouteRequest> = chip
                            .reservoirs()
                            .zip(chip.storage_cells())
                            .map(|(r, s)| RouteRequest { from: r.port(), to: s.port() })
                            .collect();
                        if !requests.is_empty() {
                            artifacts += 1;
                            match &pins {
                                // A shared-pin chip transports serially (the
                                // port lattice aliases with any useful pin
                                // pitch, so concurrent lanes ghost each
                                // other's targets) — route the wave one
                                // droplet at a time, mirroring the
                                // simulator's serialized transport.
                                Some(pins) => {
                                    for req in &requests {
                                        let one = std::slice::from_ref(req);
                                        match route_concurrent_pinned(&grid, one, pins) {
                                            Ok(paths) => report.merge(check_routes_pinned(
                                                &grid, one, &paths, pins,
                                            )),
                                            Err(e) => {
                                                eprintln!(
                                                    "error: {label}: pinned dispense hop \
                                                     unroutable: {e}"
                                                );
                                                failed = true;
                                            }
                                        }
                                    }
                                }
                                None => match route_concurrent(&grid, &requests) {
                                    Ok(paths) => {
                                        report.merge(check_routes(&grid, &requests, &paths))
                                    }
                                    Err(e) => {
                                        eprintln!("error: {label}: dispense wave unroutable: {e}");
                                        failed = true;
                                    }
                                },
                            }
                        }
                        // --deep and --backend both replay realized
                        // passes; realize each pass once and feed every
                        // interested analysis.
                        if args.deep || pins.is_some() {
                            for (i, pass) in plan.passes.iter().enumerate() {
                                let program = match realize_pass(pass, &chip) {
                                    Ok(program) => program,
                                    Err(e) => {
                                        eprintln!(
                                            "error: {label}: pass {} does not fit the chip: {e}",
                                            i + 1
                                        );
                                        failed = true;
                                        continue;
                                    }
                                };
                                artifacts += 1;
                                if let Some(pins) = &pins {
                                    report.merge(check_program_pins(&chip, pins, &program));
                                }
                                if args.deep {
                                    // The expected ledger is re-derived
                                    // from the pass's raw forest, not from
                                    // engine-reported totals.
                                    let counts = recount_forest(&pass.forest);
                                    let expect = FlowExpectation {
                                        dispensed: counts.input_total,
                                        emitted: 2 * counts.trees as u64,
                                        discarded: counts.waste,
                                    };
                                    report.merge(check_program_flow(
                                        &chip,
                                        &program,
                                        Some(&expect),
                                    ));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {label}: cannot size a chip: {e}");
                        failed = true;
                    }
                }
            }
            (Some(_), Some(Err(e))) => {
                eprintln!("error: {label}: planning failed: {e}");
                failed = true;
            }
        }
        // Severity gating: --deny error (the default) fails on errors
        // only; --deny warn also fails on warnings.
        let denied = match args.deny {
            dmfstream::check::Severity::Warning => report.len(),
            dmfstream::check::Severity::Error => report.error_count(),
        };
        let verdict = if denied == 0 { "clean" } else { "FAIL" };
        summary.row([
            label.clone(),
            artifacts.to_string(),
            report.error_count().to_string(),
            report.warning_count().to_string(),
            verdict.to_string(),
        ]);
        if denied > 0 {
            failed = true;
        }
        combined.merge(report);
    }
    println!("{summary}");
    if !combined.is_empty() {
        println!("\n{}", combined.table());
    }
    if let Some(path) = &args.report {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, combined.to_jsonl()) {
            Ok(()) => eprintln!("diagnostics written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write diagnostics to {}: {e}", path.display());
                io_error = true;
            }
        }
    }
    if let Some(path) = &args.json {
        if !write_findings_json(path, &combined) {
            io_error = true;
        }
    }
    if io_error {
        // Usage and IO failures are distinguishable from findings.
        ExitCode::from(2)
    } else if failed {
        ExitCode::FAILURE
    } else {
        println!("check: {} target(s), {} diagnostics — all clean", targets.len(), combined.len());
        ExitCode::SUCCESS
    }
}

/// Writes the combined findings as one machine-readable JSON document and
/// parses it back through [`obs::json`] before reporting success — the
/// `findings json parse OK` line means the file really is loadable.
fn write_findings_json(path: &PathBuf, combined: &dmfstream::check::CheckReport) -> bool {
    let mut doc = format!(
        "{{\"version\":1,\"errors\":{},\"warnings\":{},\"findings\":[",
        combined.error_count(),
        combined.warning_count()
    );
    for (i, diagnostic) in combined.diagnostics().iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&diagnostic.to_json());
    }
    doc.push_str("]}");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("error: cannot write findings to {}: {e}", path.display());
        return false;
    }
    match obs::json::parse(&doc) {
        Ok(v) => {
            let findings = match v.get("findings") {
                Some(obs::json::Json::Arr(findings)) => findings.len(),
                _ => 0,
            };
            eprintln!("findings written to {}", path.display());
            println!("findings json parse OK: {findings} findings");
            true
        }
        Err(e) => {
            eprintln!("error: findings json does not parse back: {e}");
            false
        }
    }
}

/// `dmfstream profile`: plan one target with the tracer on and print the
/// span-tree profile (per-span call counts, total and self time).
/// `--folded` additionally writes flamegraph.pl-style folded stacks and
/// `--chrome` a Chrome trace-event JSON loadable in Perfetto or
/// `chrome://tracing`; the Chrome file is parsed back through
/// [`obs::json`] before the command reports success, so a non-zero exit
/// means the trace really is loadable.
fn run_profile(args: &Args) -> ExitCode {
    let Some(parts) = &args.ratio else {
        eprintln!("error: profile needs a target ratio");
        return usage();
    };
    let ratio = match resolve_ratio(parts, args.demand) {
        Ok(ratio) => ratio,
        Err(code) => return code,
    };
    let ratio = &ratio;
    let recorder = obs::global();
    recorder.reset();
    recorder.set_enabled(true);
    let plan = {
        let _root = obs::span!("dmfstream_profile");
        match StreamingEngine::new(args.config).plan(ratio, args.demand) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{plan}");
    let snapshot = recorder.snapshot();
    let report = obs::ProfileReport::from_snapshot(&snapshot);
    println!("\n{report}");
    let mut failed = false;
    let mut write = |path: &PathBuf, payload: &str, what: &str| {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, payload) {
            Ok(()) => println!("{what} written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {what} to {}: {e}", path.display());
                failed = true;
            }
        }
    };
    if let Some(path) = &args.folded {
        write(path, &report.folded(), "folded stacks");
    }
    if let Some(path) = &args.chrome {
        let trace = obs::chrome_trace(&snapshot);
        write(path, &trace, "chrome trace");
        match obs::json::parse(&trace) {
            Ok(v) => {
                let events = match v.get("traceEvents") {
                    Some(obs::json::Json::Arr(events)) => events.len(),
                    _ => 0,
                };
                println!("chrome trace parse OK: {events} events");
            }
            Err(e) => {
                eprintln!("error: chrome trace does not parse back: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `dmfstream serve`: bind the planning service, announce the address
/// (`--port 0` picks a free port; scripts parse the `listening on` line)
/// and block until a client sends `{"op":"shutdown"}`.
fn run_serve(args: &Args) -> ExitCode {
    use std::io::Write as _;
    let server = match Server::bind(args.serve.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.serve.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("listening on {addr}");
            // The line must reach a piping consumer before we block.
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            eprintln!("serve: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the protocol line for `dmfstream request` from the same flags
/// `plan` takes; config members are only included when they differ from
/// the engine default, so the server plans exactly what `dmfstream plan`
/// would with the same flags.
fn request_line(args: &Args) -> Result<String, String> {
    match args.op.as_str() {
        "stats" | "ping" | "shutdown" => Ok(format!("{{\"op\":\"{}\"}}", args.op)),
        "plan" => {
            let parts = args.ratio.as_ref().ok_or("request --op plan needs a target ratio")?;
            let defaults = EngineConfig::default();
            let mut members = vec![
                format!("\"op\":\"plan\""),
                format!("\"ratio\":\"{}\"", ratio_text(parts)),
                format!("\"demand\":{}", args.demand),
            ];
            if args.config.algorithm != defaults.algorithm {
                members.push(format!("\"algorithm\":\"{}\"", args.config.algorithm.key()));
            }
            if args.config.scheduler != defaults.scheduler {
                members.push(format!("\"scheduler\":\"{}\"", args.config.scheduler.key()));
            }
            if let dmfstream::engine::MixerBudget::Fixed(mixers) = args.config.mixers {
                members.push(format!("\"mixers\":{mixers}"));
            }
            if let Some(storage) = args.config.storage_limit {
                members.push(format!("\"storage\":{storage}"));
            }
            if let Some(ms) = args.deadline_ms {
                members.push(format!("\"deadline_ms\":{ms}"));
            }
            if args.trace {
                members.push("\"trace\":true".to_owned());
            }
            Ok(format!("{{{}}}", members.join(",")))
        }
        other => Err(format!("unknown --op {other:?} (expected plan, stats, ping or shutdown)")),
    }
}

/// `dmfstream request`: one-shot client — send one line, print the raw
/// JSON response, exit non-zero on an `"ok":false` answer.
fn run_request(args: &Args) -> ExitCode {
    let Some(connect) = &args.connect else {
        eprintln!("error: request needs --connect HOST:PORT");
        return usage();
    };
    let line = match request_line(args) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let response = Client::connect(connect).and_then(|mut client| client.request(&line));
    match response {
        Ok(response) => {
            println!("{response}");
            if response.starts_with("{\"ok\":true") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: request to {connect} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_fault(args: &Args, ratio: &TargetRatio) -> ExitCode {
    let campaign = Campaign {
        engine: args.config,
        faults: args.fault,
        policy: args.policy,
        backend: args.backend.unwrap_or_default(),
        chip: None,
    };
    let mut wear = WearTracker::new();
    match run_campaign(ratio, args.demand, &campaign, PlanCache::shared(), &mut wear) {
        Ok(outcome) => {
            if let Some(backend) = args.backend {
                println!("backend: {backend}");
            }
            println!("{outcome}");
            if args.trace {
                for (i, trace) in outcome.traces.iter().enumerate() {
                    println!("\nrun {}:", i + 1);
                    println!("{}", trace.render());
                }
            }
            if !outcome.dead_cells.is_empty() {
                let rendered: Vec<String> =
                    outcome.dead_cells.iter().map(|c| c.to_string()).collect();
                println!("diagnosed dead electrodes: {}", rendered.join(" "));
            }
            if outcome.demand_met() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: delivered {}/{} targets", outcome.delivered(), outcome.demand);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
