use crate::{EngineError, StreamPlan};
use dmf_mixalgo::{AlgorithmId, MixingAlgorithm};
use dmf_ratio::TargetRatio;
use dmf_sched::{repeated_baseline, RepeatedBaseline};
use std::fmt;

/// Convenience wrapper for the paper's repeated baselines (`RMM`, `RRMA`,
/// `RMTCS`): `⌈D/2⌉` OMS-scheduled passes of `algorithm`'s base tree with
/// `mixers` on-chip mixers.
///
/// # Errors
///
/// Propagates base-tree construction and scheduling failures.
///
/// # Examples
///
/// ```
/// use dmf_engine::repeated;
/// use dmf_mixalgo::AlgorithmId;
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let rmm = repeated(AlgorithmId::MinMix, &target, 20, 3)?;
/// assert_eq!(rmm.passes, 10);
/// # Ok(())
/// # }
/// ```
pub fn repeated(
    algorithm: AlgorithmId,
    target: &TargetRatio,
    demand: u64,
    mixers: usize,
) -> Result<RepeatedBaseline, EngineError> {
    let tree = algorithm.build_graph(target)?;
    Ok(repeated_baseline(&tree, demand, mixers)?)
}

/// Relative gains of a streaming plan over a repeated baseline — the
/// quantities behind the paper's Table 3 ("MMS‖R", "SRS‖R").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Improvement {
    /// Completion-time reduction in percent (`(Tr - Tc) / Tr * 100`).
    pub time_pct: f64,
    /// Input-reactant reduction in percent (`(Ir - I) / Ir * 100`).
    pub input_pct: f64,
    /// Waste-droplet reduction in percent.
    pub waste_pct: f64,
    /// Additional storage units the streaming plan needs (`q - qr`).
    pub storage_delta: i64,
}

/// Computes the improvement of `plan` over `baseline`.
pub fn improvement_over_baseline(plan: &StreamPlan, baseline: &RepeatedBaseline) -> Improvement {
    let pct = |new: f64, old: f64| if old > 0.0 { (old - new) / old * 100.0 } else { 0.0 };
    Improvement {
        time_pct: pct(plan.total_cycles as f64, baseline.total_cycles as f64),
        input_pct: pct(plan.total_inputs as f64, baseline.total_inputs as f64),
        waste_pct: pct(plan.total_waste as f64, baseline.total_waste as f64),
        storage_delta: plan.storage_peak as i64 - baseline.storage as i64,
    }
}

impl fmt::Display for Improvement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ΔTc={:.1}% ΔI={:.1}% ΔW={:.1}% Δq={:+}",
            self.time_pct, self.input_pct, self.waste_pct, self.storage_delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, StreamingEngine};

    #[test]
    fn streaming_beats_repeated_mm_on_pcr() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
        let baseline = repeated(AlgorithmId::MinMix, &target, 32, plan.mixers).unwrap();
        let imp = improvement_over_baseline(&plan, &baseline);
        // The paper reports ~72% time and ~75% reactant savings on average;
        // on the PCR mix the shape must clearly hold.
        assert!(imp.time_pct > 50.0, "ΔTc = {:.1}%", imp.time_pct);
        assert!(imp.input_pct > 50.0, "ΔI = {:.1}%", imp.input_pct);
        assert!(imp.waste_pct > 90.0, "ΔW = {:.1}%", imp.waste_pct);
        // The price is extra storage.
        assert!(imp.storage_delta >= 0);
    }

    #[test]
    fn repeated_baselines_rank_by_tree_waste() {
        // Ex.4 forces RMA's halving to fragment components, so RRMA spends
        // strictly more reactant than RMM (on the d=4 PCR mix they tie).
        let target = TargetRatio::new(vec![9, 17, 26, 9, 195]).unwrap();
        let rmm = repeated(AlgorithmId::MinMix, &target, 32, 3).unwrap();
        let rrma = repeated(AlgorithmId::Rma, &target, 32, 3).unwrap();
        assert!(rrma.total_inputs > rmm.total_inputs);
    }
}
