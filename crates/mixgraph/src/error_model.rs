//! Worst-case CF error propagation under volumetric split errors.
//!
//! Real electrowetting splits are imperfect: the two daughter droplets of a
//! (1:1) mix-split have volumes `1 ± ε` rather than exactly 1. A later mix
//! of droplets with volumes `v₁, v₂` and CF vectors `c₁, c₂` produces
//! `(v₁c₁ + v₂c₂) / (v₁ + v₂)`, so volume errors skew concentrations as
//! they propagate up the tree. This module computes conservative
//! per-fluid CF intervals for every droplet by interval arithmetic: at
//! each mix the blend weight `w = v₁/(v₁+v₂)` ranges over
//! `[(1-ε)/2, (1+ε)/2]`, and the child intervals are combined at both
//! extremes.
//!
//! The analysis answers the operational question behind the paper's
//! accuracy level `d`: how large may the split error be before the
//! prepared mixture leaves the `1/2^d` tolerance band?

use crate::{MixGraph, Operand};

/// Per-fluid CF interval of one droplet under a given split-error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct CfInterval {
    /// Lower CF bound per fluid.
    pub lo: Vec<f64>,
    /// Upper CF bound per fluid.
    pub hi: Vec<f64>,
}

impl CfInterval {
    /// Width of the widest per-fluid interval.
    pub fn max_width(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).fold(0.0, f64::max)
    }
}

impl MixGraph {
    /// Propagates a volumetric split error `epsilon ∈ [0, 1)` through the
    /// graph, returning one conservative [`CfInterval`] per vertex (indexed
    /// like the arena).
    ///
    /// With `epsilon = 0` every interval collapses to the exact CF vector.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 1)`.
    pub fn cf_error_bounds(&self, epsilon: f64) -> Vec<CfInterval> {
        assert!((0.0..1.0).contains(&epsilon), "split error must be in [0, 1)");
        let n_fluids = self.fluid_count();
        let w_lo = (1.0 - epsilon) / 2.0;
        let w_hi = (1.0 + epsilon) / 2.0;
        let mut out: Vec<CfInterval> = Vec::with_capacity(self.node_count());
        let pure = |fluid: usize| {
            let mut lo = vec![0.0; n_fluids];
            lo[fluid] = 1.0;
            let mut hi = vec![0.0; n_fluids];
            hi[fluid] = 1.0;
            CfInterval { lo, hi }
        };
        for (_, node) in self.iter() {
            // Droplet operands borrow the already-computed interval — no
            // per-edge CF-vector copies.
            let operand_interval = |op: Operand| -> std::borrow::Cow<'_, CfInterval> {
                match op {
                    Operand::Input(f) => std::borrow::Cow::Owned(pure(f.0)),
                    Operand::Droplet(src) => std::borrow::Cow::Borrowed(&out[src.index()]),
                }
            };
            let a = operand_interval(node.left());
            let b = operand_interval(node.right());
            let mut lo = vec![0.0; n_fluids];
            let mut hi = vec![0.0; n_fluids];
            for i in 0..n_fluids {
                let candidates_lo = [
                    w_lo * a.lo[i] + (1.0 - w_lo) * b.lo[i],
                    w_hi * a.lo[i] + (1.0 - w_hi) * b.lo[i],
                ];
                let candidates_hi = [
                    w_lo * a.hi[i] + (1.0 - w_lo) * b.hi[i],
                    w_hi * a.hi[i] + (1.0 - w_hi) * b.hi[i],
                ];
                lo[i] = candidates_lo.into_iter().fold(f64::INFINITY, f64::min).max(0.0);
                hi[i] = candidates_hi.into_iter().fold(f64::NEG_INFINITY, f64::max).min(1.0);
            }
            out.push(CfInterval { lo, hi });
        }
        out
    }

    /// Worst per-fluid CF deviation of any emitted target droplet from the
    /// nominal target, under split error `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 1)`.
    pub fn worst_target_error(&self, epsilon: f64) -> f64 {
        let bounds = self.cf_error_bounds(epsilon);
        let mut worst = 0.0f64;
        for &root in self.roots() {
            let nominal = self.mixture(root);
            let denom = (1u64 << nominal.level()) as f64;
            let interval = &bounds[root.index()];
            for (i, &p) in nominal.parts().iter().enumerate() {
                let exact = p as f64 / denom;
                worst = worst.max((exact - interval.lo[i]).abs());
                worst = worst.max((interval.hi[i] - exact).abs());
            }
        }
        worst
    }

    /// The largest split error (searched to `tolerance`) for which every
    /// target stays within the accuracy band `1/2^d` of its nominal CF —
    /// an operational robustness margin for the prepared mixture.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive.
    pub fn split_error_margin(&self, tolerance: f64) -> f64 {
        assert!(tolerance > 0.0, "tolerance must be positive");
        let band = 1.0
            / (1u64 << self.roots().iter().map(|&r| self.mixture(r).level()).max().unwrap_or(0))
                as f64;
        let (mut lo, mut hi) = (0.0f64, 0.999f64);
        while hi - lo > tolerance {
            let mid = (lo + hi) / 2.0;
            if self.worst_target_error(mid) <= band {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Operand};
    use dmf_ratio::{FluidId, TargetRatio};

    fn pcr_like() -> crate::MixGraph {
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half)).unwrap();
        b.finish_tree(root);
        b.finish(&target).unwrap()
    }

    #[test]
    fn zero_error_collapses_to_exact_cfs() {
        let g = pcr_like();
        let bounds = g.cf_error_bounds(0.0);
        let root = g.roots()[0];
        let interval = &bounds[root.index()];
        assert!((interval.lo[0] - 0.75).abs() < 1e-12);
        assert!((interval.hi[0] - 0.75).abs() < 1e-12);
        assert_eq!(g.worst_target_error(0.0), 0.0);
    }

    #[test]
    fn error_grows_monotonically_with_epsilon() {
        let g = pcr_like();
        let mut prev = 0.0;
        for eps in [0.01, 0.02, 0.05, 0.1, 0.2] {
            let err = g.worst_target_error(eps);
            assert!(err >= prev, "eps={eps}");
            assert!(err < 1.0);
            prev = err;
        }
    }

    #[test]
    fn intervals_stay_in_unit_range_and_contain_nominal() {
        // Four-fluid two-level tree.
        let mut b = GraphBuilder::new(7);
        let m1 = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let m2 = b.mix(Operand::Input(FluidId(2)), Operand::Input(FluidId(3))).unwrap();
        let root = b.mix(Operand::Droplet(m1), Operand::Droplet(m2)).unwrap();
        b.finish_tree(root);
        let g = b.finish(&TargetRatio::new(vec![1, 1, 1, 1, 0, 0, 0]).unwrap()).unwrap();
        let bounds = g.cf_error_bounds(0.07);
        for (id, _) in g.iter() {
            let nominal = g.mixture(id);
            let denom = (1u64 << nominal.level()) as f64;
            let interval = &bounds[id.index()];
            for (i, &p) in nominal.parts().iter().enumerate() {
                let exact = p as f64 / denom;
                assert!(interval.lo[i] <= exact + 1e-12);
                assert!(interval.hi[i] >= exact - 1e-12);
                assert!((0.0..=1.0).contains(&interval.lo[i]));
                assert!((0.0..=1.0).contains(&interval.hi[i]));
            }
        }
    }

    #[test]
    fn margin_is_positive_and_bounded() {
        let g = pcr_like();
        let margin = g.split_error_margin(1e-3);
        assert!(margin > 0.0, "some split error is always tolerable");
        assert!(margin < 0.999);
        // At the margin the error fits the band; just beyond it must not.
        let band = 1.0 / 4.0; // root level 2
        assert!(g.worst_target_error(margin) <= band + 1e-9);
        assert!(g.worst_target_error((margin + 0.05).min(0.99)) > band - 1e-9 || margin > 0.9);
    }
}
