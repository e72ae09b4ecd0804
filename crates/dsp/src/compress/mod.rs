//! The two compression applications of the case study (§4.1).
//!
//! * [`DwtCodec`] — transform coding: keep the largest wavelet
//!   coefficients within the bit budget implied by the compression ratio
//!   (\[23\]: "fixed percentage of wavelet coefficients to be zeroed").
//! * [`CsCodec`] — compressed sensing \[13\]: random ±1 projections on the
//!   sensor, sparse reconstruction (FISTA or OMP) at the coordinator.
//!
//! Both codecs share the paper's rate convention: a compression ratio
//! `CR` means the node transmits `CR · 12 bits` per original 12-bit
//! sample, i.e. `φout = φin · CR`.

mod cs;
mod dwt;

pub use cs::{CsCodec, CsReconstruction};
pub use dwt::DwtCodec;

use crate::metrics::{compression_ratio, prd};
use crate::wavelet::WaveletError;
use rand::Rng;
use std::fmt;

/// Output of compressing and reconstructing one signal block.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedBlock {
    /// The signal as the coordinator reconstructs it.
    pub reconstructed: Vec<f64>,
    /// Bytes that crossed the radio for this block.
    pub compressed_bytes: usize,
}

/// Errors shared by the codecs.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Compression ratio outside `(0, 1]`.
    BadCompressionRatio(f64),
    /// Block length unsupported (empty, or not divisible by `2^levels`).
    BadBlockLength {
        /// Offending length.
        len: usize,
        /// Required divisor.
        divisor: usize,
    },
    /// Underlying wavelet failure.
    Wavelet(WaveletError),
    /// Reconstruction failed (singular least-squares step in OMP).
    Reconstruction(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadCompressionRatio(cr) => {
                write!(f, "compression ratio must be in (0, 1], got {cr}")
            }
            Self::BadBlockLength { len, divisor } => {
                write!(f, "block length {len} must be a positive multiple of {divisor}")
            }
            Self::Wavelet(e) => write!(f, "wavelet error: {e}"),
            Self::Reconstruction(msg) => write!(f, "reconstruction failed: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wavelet(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WaveletError> for CodecError {
    fn from(e: WaveletError) -> Self {
        Self::Wavelet(e)
    }
}

/// A configured compression application, unifying the two codecs.
#[derive(Debug, Clone, PartialEq)]
pub enum Codec {
    /// Wavelet transform coding.
    Dwt(DwtCodec),
    /// Compressed sensing.
    Cs(CsCodec),
}

impl Codec {
    /// Compresses and reconstructs one block at compression ratio `cr`.
    ///
    /// The RNG drives the CS sensing matrix (shared between encoder and
    /// decoder as in a seeded real deployment); the DWT codec ignores it.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError`] from the underlying codec.
    pub fn process<R: Rng + ?Sized>(
        &self,
        block: &[f64],
        cr: f64,
        rng: &mut R,
    ) -> Result<ProcessedBlock, CodecError> {
        match self {
            Self::Dwt(codec) => codec.process(block, cr),
            Self::Cs(codec) => codec.process(block, cr, rng),
        }
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Dwt(_) => "DWT",
            Self::Cs(_) => "CS",
        }
    }
}

/// Quality/rate report for a whole signal processed block by block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrdReport {
    /// PRD of the concatenated reconstruction against the original, %.
    pub prd: f64,
    /// Achieved compression ratio (bytes sent / raw bytes).
    pub achieved_cr: f64,
    /// Number of blocks processed.
    pub blocks: usize,
}

/// Runs `codec` over `signal` in consecutive `block_len`-sample blocks and
/// reports end-to-end PRD and the achieved rate (trailing partial block is
/// dropped, as a streaming implementation would buffer it).
///
/// # Errors
///
/// Propagates the first [`CodecError`]; fails with
/// [`CodecError::BadBlockLength`] when fewer than one full block exists.
pub fn measure_prd<R: Rng + ?Sized>(
    codec: &Codec,
    signal: &[f64],
    block_len: usize,
    cr: f64,
    rng: &mut R,
) -> Result<PrdReport, CodecError> {
    if block_len == 0 || signal.len() < block_len {
        return Err(CodecError::BadBlockLength { len: signal.len(), divisor: block_len.max(1) });
    }
    let blocks = signal.len() / block_len;
    let used = blocks * block_len;
    let mut reconstructed = Vec::with_capacity(used);
    let mut bytes = 0usize;
    for chunk in signal[..used].chunks_exact(block_len) {
        let out = codec.process(chunk, cr, rng)?;
        bytes += out.compressed_bytes;
        reconstructed.extend_from_slice(&out.reconstructed);
    }
    Ok(PrdReport {
        prd: prd(&signal[..used], &reconstructed),
        achieved_cr: compression_ratio(bytes, used),
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecg::EcgGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ecg(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        EcgGenerator::default().generate(n, &mut rng)
    }

    #[test]
    fn measure_prd_over_blocks() {
        let signal = ecg(1024, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let codec = Codec::Dwt(DwtCodec::default());
        let report = measure_prd(&codec, &signal, 256, 0.30, &mut rng).expect("ok");
        assert_eq!(report.blocks, 4);
        assert!(report.prd > 0.0 && report.prd < 25.0, "prd {}", report.prd);
        assert!(
            (report.achieved_cr - 0.30).abs() < 0.05,
            "achieved {} target 0.30",
            report.achieved_cr
        );
    }

    #[test]
    fn measure_prd_rejects_short_signal() {
        let mut rng = StdRng::seed_from_u64(9);
        let codec = Codec::Dwt(DwtCodec::default());
        assert!(matches!(
            measure_prd(&codec, &[0.0; 100], 256, 0.3, &mut rng),
            Err(CodecError::BadBlockLength { .. })
        ));
        assert!(matches!(
            measure_prd(&codec, &[0.0; 100], 0, 0.3, &mut rng),
            Err(CodecError::BadBlockLength { .. })
        ));
    }

    #[test]
    fn labels() {
        assert_eq!(Codec::Dwt(DwtCodec::default()).label(), "DWT");
        assert_eq!(Codec::Cs(CsCodec::default()).label(), "CS");
    }

    #[test]
    fn error_display() {
        let e = CodecError::BadCompressionRatio(1.5);
        assert!(format!("{e}").contains("1.5"));
        let e = CodecError::BadBlockLength { len: 100, divisor: 16 };
        assert!(format!("{e}").contains("100"));
    }
}
