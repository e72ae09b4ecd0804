//! System-level evaluation metrics (§3.4, Eq. 8).
//!
//! Network-level objectives combine per-node values as
//! `mean + ϑ · sample_std`: the mean captures the aggregate cost, the
//! standard-deviation term penalizes unbalanced designs where some nodes
//! are heavily optimized and others drain their batteries early (or send
//! data of much worse quality).

use crate::math::{mean, sample_std_about_mean};

/// Eq. 8: weighted combination of average and sample standard deviation.
///
/// `ϑ` (theta) controls how much imbalance is penalized; the paper uses a
/// positive constant. With one node (or `ϑ = 0`) this reduces to the mean.
///
/// The mean is computed once and shared with the deviation term (it is a
/// pure function of the slice, so the result is bit-identical to the
/// two-pass `mean + ϑ·sample_std` form) — this runs three times per
/// evaluation in the DSE hot loop.
///
/// ```
/// use wbsn_model::metrics::balanced_metric;
/// // Perfectly balanced network: metric equals the mean for any ϑ.
/// assert_eq!(balanced_metric(&[3.0, 3.0, 3.0], 5.0), 3.0);
/// // Imbalance raises the metric.
/// assert!(balanced_metric(&[1.0, 5.0], 1.0) > balanced_metric(&[3.0, 3.0], 1.0));
/// ```
#[must_use]
pub fn balanced_metric(per_node: &[f64], theta: f64) -> f64 {
    let m = mean(per_node);
    m + theta * sample_std_about_mean(per_node, m)
}

/// [`balanced_metric`] with the element sum supplied by the caller.
///
/// The `SoA` kernel accumulates each per-node vector's sum inside its
/// gather loops — in the exact left-fold order of `iter().sum()`, so
/// `sum` carries the same bits [`crate::math::mean`] would compute —
/// and hands it in here to spare one traversal per metric. Passing any
/// other value computes a different (wrong) metric; this must stay in
/// lockstep with [`balanced_metric`]. The two forms must never drift:
/// the kernels' bit-parity against the scalar path is property-tested
/// in `crates/wbsn/tests/soa_parity.rs` and `full_eval_parity.rs`.
#[must_use]
pub fn balanced_metric_with_sum(per_node: &[f64], sum: f64, theta: f64) -> f64 {
    let m = if per_node.is_empty() { 0.0 } else { sum / per_node.len() as f64 };
    m + theta * sample_std_about_mean(per_node, m)
}

/// The three network-level objectives of the proposed model (all minimized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkObjectives {
    /// `Enet` (Eq. 8) in mJ/s.
    pub energy: f64,
    /// Balanced worst-case delay metric in seconds.
    pub delay: f64,
    /// Balanced application quality-loss metric (PRD %, Eq. 8 analogue).
    pub prd: f64,
}

impl NetworkObjectives {
    /// The objectives as a slice-friendly array `[energy, delay, prd]`.
    #[must_use]
    pub fn to_array(self) -> [f64; 3] {
        [self.energy, self.delay, self.prd]
    }

    /// Restricted view used by the state-of-the-art energy/delay model
    /// (\[26\] in the paper): drops the application-quality axis.
    #[must_use]
    pub fn energy_delay(self) -> [f64; 2] {
        [self.energy, self.delay]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_zero_is_the_mean() {
        let v = [2.0, 4.0, 9.0];
        assert!((balanced_metric(&v, 0.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eq8_hand_computed() {
        let v = [2.0, 4.0];
        // mean 3, sample std sqrt(2); ϑ = 1.5.
        let expect = 3.0 + 1.5 * 2.0f64.sqrt();
        assert!((balanced_metric(&v, 1.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn single_node_has_no_imbalance_penalty() {
        assert_eq!(balanced_metric(&[7.5], 10.0), 7.5);
    }

    #[test]
    fn metric_monotone_in_theta_for_unbalanced() {
        let v = [1.0, 9.0];
        let m0 = balanced_metric(&v, 0.0);
        let m1 = balanced_metric(&v, 1.0);
        let m2 = balanced_metric(&v, 2.0);
        assert!(m0 < m1 && m1 < m2);
    }

    #[test]
    fn objective_views() {
        let o = NetworkObjectives { energy: 10.0, delay: 1.5, prd: 80.0 };
        assert_eq!(o.to_array(), [10.0, 1.5, 80.0]);
        assert_eq!(o.energy_delay(), [10.0, 1.5]);
    }
}
