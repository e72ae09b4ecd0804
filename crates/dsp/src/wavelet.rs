//! Orthogonal discrete wavelet transforms with periodized boundaries.
//!
//! The DWT compression application \[23\] and the sparsifying basis of the
//! compressed-sensing reconstruction \[13\] both need a real wavelet
//! transform. This module implements the classic orthogonal filter-bank
//! DWT (Haar, Daubechies 2–4, Symlet 4) in "periodization" mode: an input
//! of even length `n` maps to `n/2 + n/2` coefficients and reconstructs
//! perfectly (up to floating-point round-off).

use std::fmt;

/// Supported orthogonal wavelet families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Haar (db1): 2 taps.
    Haar,
    /// Daubechies 2: 4 taps.
    Db2,
    /// Daubechies 3: 6 taps.
    Db3,
    /// Daubechies 4: 8 taps — the workhorse for ECG.
    Db4,
    /// Symlet 4: 8 taps, near-symmetric.
    Sym4,
}

impl Wavelet {
    /// The low-pass decomposition filter `h` (orthonormal).
    #[must_use]
    pub fn dec_lo(self) -> &'static [f64] {
        match self {
            Self::Haar => &HAAR,
            Self::Db2 => &DB2,
            Self::Db3 => &DB3,
            Self::Db4 => &DB4,
            Self::Sym4 => &SYM4,
        }
    }

    /// The high-pass decomposition filter `g[m] = (−1)^m · h[L−1−m]`.
    #[must_use]
    pub fn dec_hi(self) -> Vec<f64> {
        let h = self.dec_lo();
        let l = h.len();
        (0..l).map(|m| if m % 2 == 0 { h[l - 1 - m] } else { -h[l - 1 - m] }).collect()
    }

    /// Filter length in taps.
    #[must_use]
    pub fn len(self) -> usize {
        self.dec_lo().len()
    }

    /// `true` only for the degenerate case of an empty filter (never).
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// All supported wavelets, for parameter sweeps and tests.
    #[must_use]
    pub fn all() -> [Wavelet; 5] {
        [Self::Haar, Self::Db2, Self::Db3, Self::Db4, Self::Sym4]
    }
}

impl fmt::Display for Wavelet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Haar => "haar",
            Self::Db2 => "db2",
            Self::Db3 => "db3",
            Self::Db4 => "db4",
            Self::Sym4 => "sym4",
        };
        write!(f, "{name}")
    }
}

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
static HAAR: [f64; 2] = [FRAC_1_SQRT_2, FRAC_1_SQRT_2];
static DB2: [f64; 4] = [
    0.482_962_913_144_690_2,
    0.836_516_303_737_469,
    0.224_143_868_041_857_35,
    -0.129_409_522_550_921_45,
];
static DB3: [f64; 6] = [
    0.332_670_552_950_082_8,
    0.806_891_509_311_092_4,
    0.459_877_502_118_491_5,
    -0.135_011_020_010_254_58,
    -0.085_441_273_882_026_66,
    0.035_226_291_882_100_656,
];
static DB4: [f64; 8] = [
    0.230_377_813_308_855_2,
    0.714_846_570_552_541_5,
    0.630_880_767_929_590_4,
    -0.027_983_769_416_983_85,
    -0.187_034_811_718_881_14,
    0.030_841_381_835_986_965,
    0.032_883_011_666_982_945,
    -0.010_597_401_784_997_278,
];
static SYM4: [f64; 8] = [
    -0.075_765_714_789_273_33,
    -0.029_635_527_645_999_026,
    0.497_618_667_632_015_4,
    0.803_738_751_805_916_1,
    0.297_857_795_605_274_2,
    -0.099_219_543_576_847_22,
    -0.012_603_967_262_037_833,
    0.032_223_100_604_042_702,
];

/// Error type for wavelet operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveletError {
    /// Signal length is not divisible by `2^levels` (periodization needs
    /// an even split at every level).
    BadLength {
        /// Offending signal length.
        len: usize,
        /// Requested decomposition depth.
        levels: usize,
    },
    /// Zero decomposition levels requested.
    ZeroLevels,
}

impl fmt::Display for WaveletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLength { len, levels } => {
                write!(f, "signal length {len} is not divisible by 2^{levels}")
            }
            Self::ZeroLevels => write!(f, "decomposition needs at least one level"),
        }
    }
}

impl std::error::Error for WaveletError {}

/// One analysis step with periodized boundaries: `x → (approx, detail)`.
///
/// # Panics
///
/// Panics if `x.len()` is odd or zero (callers go through [`wavedec`],
/// which validates lengths and returns an error instead).
#[must_use]
pub fn dwt_step(x: &[f64], wavelet: Wavelet) -> (Vec<f64>, Vec<f64>) {
    let n = x.len();
    assert!(n >= 2 && n.is_multiple_of(2), "dwt_step needs even length >= 2, got {n}");
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    let half = n / 2;
    let mut approx = vec![0.0; half];
    let mut detail = vec![0.0; half];
    for k in 0..half {
        let mut a = 0.0;
        let mut d = 0.0;
        for (m, (&hm, &gm)) in h.iter().zip(&g).enumerate() {
            let idx = (2 * k + m) % n;
            a += hm * x[idx];
            d += gm * x[idx];
        }
        approx[k] = a;
        detail[k] = d;
    }
    (approx, detail)
}

/// One synthesis step, the exact inverse of [`dwt_step`].
///
/// # Panics
///
/// Panics if the two halves differ in length or are empty.
#[must_use]
pub fn idwt_step(approx: &[f64], detail: &[f64], wavelet: Wavelet) -> Vec<f64> {
    assert_eq!(approx.len(), detail.len(), "approx/detail length mismatch");
    assert!(!approx.is_empty(), "cannot invert empty coefficients");
    let half = approx.len();
    let n = 2 * half;
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    let mut x = vec![0.0; n];
    for k in 0..half {
        for (m, (&hm, &gm)) in h.iter().zip(&g).enumerate() {
            let idx = (2 * k + m) % n;
            x[idx] += hm * approx[k] + gm * detail[k];
        }
    }
    x
}

/// Multi-level wavelet decomposition.
///
/// The coefficient layout is the standard pyramid: final approximation
/// first, then details from coarsest to finest.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveDec {
    /// Final-level approximation coefficients.
    pub approx: Vec<f64>,
    /// Detail coefficients, coarsest (deepest level) first.
    pub details: Vec<Vec<f64>>,
    /// Wavelet used.
    pub wavelet: Wavelet,
}

impl WaveDec {
    /// Total number of coefficients (equals the original signal length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.approx.len() + self.details.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether the decomposition holds no coefficients.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens into a single coefficient vector (approx, then details
    /// coarsest→finest) — the layout the compression codecs threshold.
    #[must_use]
    pub fn to_flat(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.len());
        flat.extend_from_slice(&self.approx);
        for d in &self.details {
            flat.extend_from_slice(d);
        }
        flat
    }

    /// Rebuilds a decomposition with the same shape from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not match [`WaveDec::len`].
    #[must_use]
    pub fn with_flat(&self, flat: &[f64]) -> Self {
        assert_eq!(flat.len(), self.len(), "flat coefficient length mismatch");
        let mut offset = self.approx.len();
        let approx = flat[..offset].to_vec();
        let mut details = Vec::with_capacity(self.details.len());
        for d in &self.details {
            details.push(flat[offset..offset + d.len()].to_vec());
            offset += d.len();
        }
        Self { approx, details, wavelet: self.wavelet }
    }
}

/// Multi-level analysis: decomposes `x` into `levels` octaves.
///
/// # Errors
///
/// * [`WaveletError::ZeroLevels`] when `levels == 0`.
/// * [`WaveletError::BadLength`] when `x.len()` is not divisible by
///   `2^levels`.
///
/// ```
/// use wbsn_dsp::wavelet::{wavedec, waverec, Wavelet};
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let dec = wavedec(&x, Wavelet::Db4, 3)?;
/// let back = waverec(&dec);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok::<(), wbsn_dsp::wavelet::WaveletError>(())
/// ```
pub fn wavedec(x: &[f64], wavelet: Wavelet, levels: usize) -> Result<WaveDec, WaveletError> {
    if levels == 0 {
        return Err(WaveletError::ZeroLevels);
    }
    let n = x.len();
    if n == 0 || !n.is_multiple_of(1 << levels) {
        return Err(WaveletError::BadLength { len: n, levels });
    }
    let mut approx = x.to_vec();
    let mut details_fine_first = Vec::with_capacity(levels);
    for _ in 0..levels {
        let (a, d) = dwt_step(&approx, wavelet);
        approx = a;
        details_fine_first.push(d);
    }
    details_fine_first.reverse();
    Ok(WaveDec { approx, details: details_fine_first, wavelet })
}

/// Multi-level synthesis, the inverse of [`wavedec`].
#[must_use]
pub fn waverec(dec: &WaveDec) -> Vec<f64> {
    let mut x = dec.approx.clone();
    for d in &dec.details {
        x = idwt_step(&x, d, dec.wavelet);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn filters_are_orthonormal() {
        for w in Wavelet::all() {
            let h = w.dec_lo();
            let norm: f64 = h.iter().map(|c| c * c).sum();
            assert!((norm - 1.0).abs() < 1e-10, "{w}: |h|^2 = {norm}");
            // Orthogonality to even shifts.
            for shift in (2..h.len()).step_by(2) {
                let dot: f64 = (0..h.len() - shift).map(|i| h[i] * h[i + shift]).sum();
                assert!(dot.abs() < 1e-10, "{w}: shift {shift} dot {dot}");
            }
            // Low-pass: sum = sqrt(2).
            let sum: f64 = h.iter().sum();
            assert!((sum - std::f64::consts::SQRT_2).abs() < 1e-10, "{w}: sum {sum}");
        }
    }

    #[test]
    fn single_step_perfect_reconstruction() {
        for w in Wavelet::all() {
            for n in [2usize, 4, 8, 16, 64, 256] {
                let x = random_signal(n, 42 + n as u64);
                let (a, d) = dwt_step(&x, w);
                let back = idwt_step(&a, &d, w);
                for (orig, rec) in x.iter().zip(&back) {
                    assert!((orig - rec).abs() < 1e-10, "{w} n={n}");
                }
            }
        }
    }

    #[test]
    fn multi_level_perfect_reconstruction() {
        for w in Wavelet::all() {
            let x = random_signal(256, 7);
            for levels in 1..=5 {
                let dec = wavedec(&x, w, levels).expect("valid");
                assert_eq!(dec.len(), 256);
                let back = waverec(&dec);
                for (orig, rec) in x.iter().zip(&back) {
                    assert!((orig - rec).abs() < 1e-9, "{w} levels={levels}");
                }
            }
        }
    }

    #[test]
    fn energy_preserved_by_orthogonal_transform() {
        let x = random_signal(128, 9);
        let dec = wavedec(&x, Wavelet::Db4, 4).expect("valid");
        let flat = dec.to_flat();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = flat.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() / ex < 1e-10, "Parseval violated: {ex} vs {ec}");
    }

    #[test]
    fn haar_step_is_sum_and_difference() {
        let x = [3.0, 1.0, -2.0, 4.0];
        let (a, d) = dwt_step(&x, Wavelet::Haar);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((a[0] - (3.0 + 1.0) * s).abs() < 1e-12);
        assert!((a[1] - (-2.0 + 4.0) * s).abs() < 1e-12);
        assert!((d[0] - (3.0 - 1.0) * s).abs() < 1e-12);
        assert!((d[1] - (-2.0 - 4.0) * s).abs() < 1e-12);
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let x = vec![5.0; 64];
        let dec = wavedec(&x, Wavelet::Db4, 3).expect("valid");
        for d in &dec.details {
            for &c in d {
                assert!(c.abs() < 1e-9, "detail {c} on constant signal");
            }
        }
    }

    #[test]
    fn length_validation() {
        let x = vec![0.0; 12]; // 12 = 4·3, not divisible by 8
        assert_eq!(
            wavedec(&x, Wavelet::Haar, 3),
            Err(WaveletError::BadLength { len: 12, levels: 3 })
        );
        assert_eq!(wavedec(&x, Wavelet::Haar, 0), Err(WaveletError::ZeroLevels));
        assert!(wavedec(&x, Wavelet::Haar, 2).is_ok());
        assert_eq!(
            wavedec(&[], Wavelet::Haar, 1),
            Err(WaveletError::BadLength { len: 0, levels: 1 })
        );
    }

    #[test]
    fn flat_round_trip() {
        let x = random_signal(64, 21);
        let dec = wavedec(&x, Wavelet::Sym4, 3).expect("valid");
        let flat = dec.to_flat();
        assert_eq!(flat.len(), 64);
        let rebuilt = dec.with_flat(&flat);
        assert_eq!(rebuilt, dec);
        let back = waverec(&rebuilt);
        for (orig, rec) in x.iter().zip(&back) {
            assert!((orig - rec).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_flat_validates_length() {
        let dec = wavedec(&random_signal(32, 1), Wavelet::Haar, 2).expect("valid");
        let _ = dec.with_flat(&[0.0; 31]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Wavelet::Db4.to_string(), "db4");
        assert_eq!(Wavelet::Haar.to_string(), "haar");
    }
}
