//! Fig. 6 — average completion time `Tc` and input requirement `I` versus
//! demand `D` over the synthetic corpus.
//!
//! The scheme set is built from the paper's four baselines
//! ([`dmf_mixalgo::AlgorithmId::BASELINES`]): each is swept as a repeated
//! baseline and as an MMS-scheduled streaming scheme. The dilution-only
//! algorithms stay out, since they fail every ratio with more than two
//! fluids. (The paper's Fig. 6 plots the RMM, RMTCS, MM+MMS and MTCS+MMS
//! subset of these curves.)
//!
//! Pass a corpus size as the first argument (default 600 sampled ratios;
//! pass `full` for the entire 6066-ratio corpus). Set `DMF_OBS=1` to dump
//! the run's metrics to `results/obs/fig6_sweep.jsonl`.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::{export_obs, obs_from_env, run_schemes_batch, Scheme};
use dmf_engine::PlanCache;
use dmf_mixalgo::AlgorithmId;
use dmf_obs::Table;
use dmf_sched::SchedulerKind;
use dmf_workloads::synthetic;

fn main() {
    let obs_path = obs_from_env("fig6_sweep");
    let arg = std::env::args().nth(1);
    let corpus = match arg.as_deref() {
        Some("full") => synthetic::paper_corpus(),
        Some(k) => synthetic::sampled_corpus(k.parse().unwrap_or(600), 2014),
        None => synthetic::sampled_corpus(600, 2014),
    };
    println!(
        "Fig. 6: average Tc and I vs demand over {} ratios (L = 32, N = 2..=12)\n",
        corpus.len()
    );
    let mut schemes = Vec::new();
    for algorithm in AlgorithmId::BASELINES {
        schemes.push(Scheme::Repeated(algorithm));
        schemes.push(Scheme::Streaming(algorithm, SchedulerKind::Mms));
    }
    let mut headers = vec!["D".to_owned()];
    headers.extend(schemes.iter().map(|s| format!("Tc {}", s.name())));
    headers.extend(schemes.iter().map(|s| format!("I {}", s.name())));
    let mut table = Table::new(headers);
    // One shared plan cache across every demand level; each demand level
    // batches the whole corpus (every scheme per target) through the
    // parallel planner in chunks.
    let cache = PlanCache::shared();
    for demand in (2..=32u64).step_by(2) {
        let mut tc = vec![0.0f64; schemes.len()];
        let mut inputs = vec![0.0f64; schemes.len()];
        let mut n = 0usize;
        for chunk in corpus.chunks(512) {
            let work: Vec<(Scheme, _, u64)> = chunk
                .iter()
                .flat_map(|target| schemes.iter().map(move |&s| (s, target.clone(), demand)))
                .collect();
            let results = run_schemes_batch(&work, None, &cache);
            for per_target in results.chunks(schemes.len()) {
                if per_target.iter().all(Result::is_ok) {
                    n += 1;
                    for (k, r) in per_target.iter().flatten().enumerate() {
                        tc[k] += r.cycles as f64;
                        inputs[k] += r.inputs as f64;
                    }
                }
            }
        }
        let mut cells = vec![demand.to_string()];
        cells.extend(tc.iter().map(|v| format!("{:.1}", v / n.max(1) as f64)));
        cells.extend(inputs.iter().map(|v| format!("{:.1}", v / n.max(1) as f64)));
        table.row(cells);
    }
    println!("{table}");
    println!(
        "\n(the paper's Fig. 6 shape: repeated schemes grow linearly in D; MMS grows far slower)"
    );
    if let Some(path) = obs_path {
        export_obs(&path);
    }
}
