//! # wbsn-dsp — signal-processing substrate for WBSN design exploration
//!
//! Everything the DAC 2012 case study assumes about the ECG data path,
//! implemented for real:
//!
//! * [`ecg`] — a synthetic ECG generator (the reproduction's substitute
//!   for recorded signals): quasi-periodic sum-of-Gaussians morphology
//!   with heart-rate variability, baseline wander and sensor noise.
//! * [`wavelet`] — orthogonal discrete wavelet transforms (Haar through
//!   db4/sym4) with periodized boundaries and perfect reconstruction.
//! * [`quantize`] — the 12-bit A/D model and uniform quantizers.
//! * [`compress`] — the two compression applications of the paper:
//!   threshold-based DWT compression \[23\] and compressed sensing \[13\]
//!   with FISTA/OMP reconstruction.
//! * [`metrics`] — PRD and friends, the quality metrics behind Fig. 4.
//!
//! ```
//! use wbsn_dsp::compress::{Codec, DwtCodec};
//! use wbsn_dsp::ecg::EcgGenerator;
//! use wbsn_dsp::metrics::prd;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let signal = EcgGenerator::default().generate(1024, &mut rng);
//! let codec = Codec::Dwt(DwtCodec::default());
//! let out = codec.process(&signal[..256], 0.30, &mut rng)?;
//! let quality = prd(&signal[..256], &out.reconstructed);
//! assert!(quality < 20.0, "30% of the bits keep PRD low, got {quality}");
//! # Ok::<(), wbsn_dsp::compress::CodecError>(())
//! ```

#![warn(missing_docs)]
// Clippy policy (pedantic + curated allows/denies) lives in the
// [workspace.lints] table in the root Cargo.toml.

pub mod compress;
pub mod ecg;
pub mod linalg;
pub mod metrics;
pub mod quantize;
pub mod wavelet;

pub use compress::{Codec, CsCodec, DwtCodec};
pub use ecg::EcgGenerator;
pub use wavelet::Wavelet;
