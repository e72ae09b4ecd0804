//! Signal-quality metrics: PRD and companions.
//!
//! The paper's application-quality objective is the *percentage
//! root-mean-square difference* (PRD) between the original ECG and the
//! signal reconstructed at the coordinator \[13\].

/// Percentage root-mean-square difference:
/// `PRD = 100 · sqrt(Σ(x−x̂)² / Σx²)`.
///
/// Returns 0 for an identically-zero original (no reference energy).
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// ```
/// use wbsn_dsp::metrics::prd;
/// let x = [1.0, 2.0, 3.0];
/// assert_eq!(prd(&x, &x), 0.0);
/// assert!(prd(&x, &[1.1, 2.0, 3.0]) > 0.0);
/// ```
#[must_use]
pub fn prd(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    let num: f64 = original.iter().zip(reconstructed).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = original.iter().map(|x| x * x).sum();
    if den == 0.0 {
        return 0.0;
    }
    100.0 * (num / den).sqrt()
}

/// Normalized PRD: the reference energy is taken after removing the mean
/// of the original (insensitive to DC offset).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn prdn(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    if original.is_empty() {
        return 0.0;
    }
    let mean = original.iter().sum::<f64>() / original.len() as f64;
    let num: f64 = original.iter().zip(reconstructed).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = original.iter().map(|x| (x - mean) * (x - mean)).sum();
    if den == 0.0 {
        return 0.0;
    }
    100.0 * (num / den).sqrt()
}

/// Root-mean-square error.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn rmse(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    if original.is_empty() {
        return 0.0;
    }
    let ss: f64 = original.iter().zip(reconstructed).map(|(x, y)| (x - y) * (x - y)).sum();
    (ss / original.len() as f64).sqrt()
}

/// Signal-to-noise ratio of the reconstruction, in dB.
/// `SNR = 10·log10(Σx² / Σ(x−x̂)²)`; +∞ for a perfect reconstruction.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn snr_db(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    let noise: f64 = original.iter().zip(reconstructed).map(|(x, y)| (x - y) * (x - y)).sum();
    let sig: f64 = original.iter().map(|x| x * x).sum();
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (sig / noise).log10()
}

/// Achieved compression ratio: compressed bytes over raw bytes.
///
/// The raw size follows the case study's framing: `n` samples at 12 bits
/// = 1.5 bytes each.
#[must_use]
pub fn compression_ratio(compressed_bytes: usize, n_samples: usize) -> f64 {
    if n_samples == 0 {
        return 0.0;
    }
    compressed_bytes as f64 / (n_samples as f64 * 1.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_signals_are_lossless() {
        let x = [0.5, -1.0, 2.0, 0.0];
        assert_eq!(prd(&x, &x), 0.0);
        assert_eq!(prdn(&x, &x), 0.0);
        assert_eq!(rmse(&x, &x), 0.0);
        assert_eq!(snr_db(&x, &x), f64::INFINITY);
    }

    #[test]
    fn prd_hand_computed() {
        // x = [3, 4], x̂ = [3, 0]: PRD = 100·sqrt(16/25) = 80 %.
        assert!((prd(&[3.0, 4.0], &[3.0, 0.0]) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn prd_scale_invariant() {
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [1.1, -1.8, 0.4, 2.9];
        let sx: Vec<f64> = x.iter().map(|v| v * 7.0).collect();
        let sy: Vec<f64> = y.iter().map(|v| v * 7.0).collect();
        assert!((prd(&x, &y) - prd(&sx, &sy)).abs() < 1e-9);
    }

    #[test]
    fn prdn_removes_dc_sensitivity() {
        let x = [10.0, 10.5, 9.5, 10.0];
        let y = [10.1, 10.4, 9.6, 10.0];
        // PRDN uses the AC energy only, so it is much larger than PRD here.
        assert!(prdn(&x, &y) > prd(&x, &y));
    }

    #[test]
    fn zero_reference_defined() {
        let z = [0.0, 0.0];
        assert_eq!(prd(&z, &[1.0, 1.0]), 0.0);
        assert_eq!(prdn(&[5.0, 5.0], &[4.0, 6.0]), 0.0);
    }

    #[test]
    fn rmse_hand_computed() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn snr_relates_to_prd() {
        // PRD 10 % ⇔ SNR 20 dB.
        let x = [1.0, 1.0, 1.0, 1.0];
        let y = [1.05, 0.95, 1.05, 0.95]; // PRD = 5 %
        let p = prd(&x, &y);
        let s = snr_db(&x, &y);
        assert!((s - (-20.0 * (p / 100.0).log10())).abs() < 1e-9);
    }

    #[test]
    fn compression_ratio_accounting() {
        // 256 samples = 384 raw bytes; 96 compressed bytes => CR 0.25.
        assert!((compression_ratio(96, 256) - 0.25).abs() < 1e-12);
        assert_eq!(compression_ratio(10, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn prd_length_mismatch_panics() {
        let _ = prd(&[1.0], &[1.0, 2.0]);
    }
}
