//! Table 3 — average % improvements of MMS/SRS over repeated baselines,
//! and of SRS over MMS, across the synthetic corpus (L = 32, N = 2..=12,
//! D = 32).
//!
//! The algorithm columns come from the mixing-algorithm registry
//! ([`dmf_bench::sdst_baselines`]): every registered SDST-only algorithm
//! gets a column, so a newly registered baseline appears here without any
//! change to this binary.
//!
//! Pass a corpus size as the first argument to subsample (default: the
//! full 6066-ratio corpus; use e.g. `500` for a quick run). Set `DMF_OBS=1`
//! to dump the run's metrics to `results/obs/table3_improvements.jsonl`.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::{export_obs, obs_from_env, run_schemes_batch, sdst_baselines, Scheme};
use dmf_engine::PlanCache;
use dmf_obs::Table;
use dmf_sched::SchedulerKind;
use dmf_workloads::synthetic;

fn main() {
    let obs_path = obs_from_env("table3_improvements");
    let sample: Option<usize> = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let corpus = match sample {
        Some(k) => synthetic::sampled_corpus(k, 2014),
        None => synthetic::paper_corpus(),
    };
    println!(
        "Table 3: average % improvements over {} target ratios (L = 32, D = 32)\n",
        corpus.len()
    );

    let demand = 32;
    let algorithms = sdst_baselines();
    let n = algorithms.len();

    // Accumulators per algorithm: sums of ratios for each comparison.
    let mut tc_mms = vec![0.0f64; n];
    let mut tc_srs = vec![0.0f64; n];
    let mut i_stream = vec![0.0f64; n];
    let mut q_srs_vs_mms = vec![0.0f64; n];
    let mut tc_srs_vs_mms = vec![0.0f64; n];
    let mut counted = vec![0usize; n];

    // Batch the corpus through the parallel planner in chunks (three
    // requests per (target, algorithm): {Repeated, MMS, SRS}), sharing one
    // plan cache across chunks.
    let cache = PlanCache::shared();
    for chunk in corpus.chunks(256) {
        let work: Vec<(Scheme, _, u64)> = chunk
            .iter()
            .flat_map(|target| {
                algorithms.iter().flat_map(move |&algorithm| {
                    [
                        (Scheme::Repeated(algorithm), target.clone(), demand),
                        (Scheme::Streaming(algorithm, SchedulerKind::Mms), target.clone(), demand),
                        (Scheme::Streaming(algorithm, SchedulerKind::Srs), target.clone(), demand),
                    ]
                })
            })
            .collect();
        let results = run_schemes_batch(&work, None, &cache);
        for t in 0..chunk.len() {
            for k in 0..n {
                let base = (t * n + k) * 3;
                let (Ok(repeated), Ok(mms), Ok(srs)) =
                    (&results[base], &results[base + 1], &results[base + 2])
                else {
                    continue;
                };
                counted[k] += 1;
                let pct =
                    |new: f64, old: f64| if old > 0.0 { (old - new) / old * 100.0 } else { 0.0 };
                tc_mms[k] += pct(mms.cycles as f64, repeated.cycles as f64);
                tc_srs[k] += pct(srs.cycles as f64, repeated.cycles as f64);
                // MMS and SRS build the same forest, so I is shared.
                i_stream[k] += pct(mms.inputs as f64, repeated.inputs as f64);
                q_srs_vs_mms[k] += pct(srs.storage as f64, mms.storage as f64);
                tc_srs_vs_mms[k] += pct(srs.cycles as f64, mms.cycles as f64);
            }
        }
    }

    let avg = |sums: &[f64], k: usize| sums[k] / counted[k].max(1) as f64;
    let mut headers = vec!["Parameter / relative scheme".to_owned()];
    headers.extend(algorithms.iter().map(|a| a.label().to_owned()));
    let mut table = Table::new(headers);
    for (label, sums) in [
        ("Tc: MMS || Repeated", &tc_mms),
        ("Tc: SRS || Repeated", &tc_srs),
        ("I: streaming || Repeated", &i_stream),
        ("q: SRS || MMS", &q_srs_vs_mms),
        ("Tc: SRS || MMS", &tc_srs_vs_mms),
    ] {
        let mut cells = vec![label.to_owned()];
        cells.extend((0..n).map(|k| format!("{:.1}%", avg(sums, k))));
        table.row(cells);
    }
    println!("{table}");
    let evaluated: Vec<String> =
        algorithms.iter().zip(&counted).map(|(a, c)| format!("{}={}", a.label(), c)).collect();
    println!("\nratios evaluated per algorithm: {}", evaluated.join(" "));
    println!("(paper Table 3: Tc ~72-73%, I ~72-77%, q(SRS||MMS) ~23-27%, Tc(SRS||MMS) ~ -4..-6%)");
    if let Some(path) = obs_path {
        export_obs(&path);
    }
}
