//! Shimmer-platform instantiation of the node model (§4.3).
//!
//! The case study fixes the sensing chain (ECG at `fs` = 250 Hz, 12-bit
//! A/D ⇒ `φin` = 375 B/s) and characterizes the two compression
//! applications measured in the paper:
//!
//! * **DWT** — wavelet compression \[23\]: heavy compute
//!   (`Duty = 2265.6 / fµC[kHz]`), best quality;
//! * **CS** — compressed sensing \[13\]: light compute
//!   (`Duty = 388.8 / fµC[kHz]`), lower quality at equal rate.
//!
//! Quality is the PRD between original and reconstructed ECG, estimated by
//! fifth-order polynomials `P5(CR)` fitted against empirical samples — in
//! this reproduction the samples come from running real DWT/CS codecs
//! (`wbsn-dsp`) on synthetic ECG (see `wbsn-bench`'s `fit_prd` binary,
//! which regenerates the coefficients below).

use crate::app::{ApplicationModel, ResourceUsage};
use crate::error::ModelError;
use crate::math::Polynomial;
use crate::node::{McuModel, MemoryModel, NodeModel, RadioEnergyModel, SensorModel};
use crate::units::{ByteRate, DutyCycle, Hertz, MilliWatts, Seconds};

/// ECG sampling frequency fixed by the signal's nature (§4.3).
pub const SAMPLING_HZ: f64 = 250.0;
/// A/D converter resolution in bits.
pub const ADC_BITS: u32 = 12;
/// Bytes per sample (12 bit = 1.5 B as streamed).
pub const ADC_BYTES: f64 = ADC_BITS as f64 / 8.0;
/// RAM available on the platform (10 kB).
pub const RAM_BYTES: f64 = 10.0 * 1024.0;
/// Compression-ratio grid bounds explored in the paper's figures.
pub const CR_MIN: f64 = 0.17;
/// Upper compression-ratio bound of the paper's figures.
pub const CR_MAX: f64 = 0.38;
/// Paper §4.3: DWT duty-cycle constant, `Duty = 2265.6 / fµC[kHz]`.
pub const DWT_DUTY_CONSTANT_KHZ: f64 = 2265.6;
/// Paper §4.3: CS duty-cycle constant, `Duty = 388.8 / fµC[kHz]`.
pub const CS_DUTY_CONSTANT_KHZ: f64 = 388.8;

/// Microcontroller clock options offered by the platform.
pub const F_MCU_OPTIONS_MHZ: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Default fifth-order PRD fit for DWT compression, `PRD% = P5(CR)`.
///
/// Coefficients regenerated by `cargo run -p wbsn-bench --bin fit_prd`
/// (least squares over PRD measurements of the real `wbsn-dsp` codec on
/// synthetic ECG; normalized variable `t = (CR − 0.275) / 0.105`).
pub fn dwt_prd_poly() -> Polynomial {
    Polynomial::with_normalization(
        vec![4.38780, -2.15566, 2.22417, -1.46637, -0.08359, 0.38570],
        0.275,
        0.105,
    )
}

/// Default fifth-order PRD fit for compressed sensing, `PRD% = P5(CR)`.
///
/// See [`dwt_prd_poly`] for provenance.
pub fn cs_prd_poly() -> Polynomial {
    Polynomial::with_normalization(
        vec![16.31709, -10.63814, 7.39777, -5.53758, -1.01849, 2.84123],
        0.275,
        0.105,
    )
}

/// Builds the calibrated Shimmer node model (MSP430-class MCU, 10 kB RAM,
/// CC2420-class radio). Constants are documented in `DESIGN.md` §7.
#[must_use]
pub fn node_model() -> NodeModel {
    NodeModel {
        sensor: SensorModel {
            e_transducer: MilliWatts::new(0.35),
            alpha1_mw_per_hz: 0.0014,
            alpha0: MilliWatts::new(0.12),
        },
        mcu: McuModel { alpha1_mw_per_mhz: 1.15, alpha0: MilliWatts::new(0.26) },
        memory: MemoryModel {
            t_access: Seconds::from_micros(0.1),
            e_access: MilliWatts::new(1.4),
            e_bit_idle_mw: 9e-6,
        },
        radio: RadioEnergyModel { e_tx_per_bit_mj: 2.088e-4, e_rx_per_bit_mj: 2.256e-4 },
        fs: Hertz::new(SAMPLING_HZ),
        adc_bytes: ADC_BYTES,
    }
}

/// Namespace struct for the platform constants.
///
/// ```
/// use wbsn_model::shimmer::ShimmerPlatform;
/// let node = ShimmerPlatform::node_model();
/// assert_eq!(node.input_rate().value(), 375.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShimmerPlatform;

impl ShimmerPlatform {
    /// The calibrated node model (see the free function [`node_model`]).
    #[must_use]
    pub fn node_model() -> NodeModel {
        node_model()
    }

    /// Microcontroller clocks selectable on the platform.
    #[must_use]
    pub fn f_mcu_options() -> Vec<Hertz> {
        F_MCU_OPTIONS_MHZ.iter().map(|&m| Hertz::from_mhz(m)).collect()
    }
}

/// Which compression application a node runs (§4.1: half DWT, half CS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressionKind {
    /// Digital wavelet transform compression \[23\].
    Dwt,
    /// Compressed sensing \[13\].
    Cs,
}

impl CompressionKind {
    /// Duty-cycle constant `C` such that `Duty = C / fµC[kHz]` (§4.3).
    #[must_use]
    pub fn duty_constant_khz(self) -> f64 {
        match self {
            Self::Dwt => DWT_DUTY_CONSTANT_KHZ,
            Self::Cs => CS_DUTY_CONSTANT_KHZ,
        }
    }

    /// Resident memory footprint `Mapp` in bytes.
    #[must_use]
    pub fn mem_bytes(self) -> f64 {
        match self {
            Self::Dwt => 4500.0,
            Self::Cs => 2048.0,
        }
    }

    /// Memory access rate `γapp` in accesses per second.
    #[must_use]
    pub fn mem_accesses_per_s(self) -> f64 {
        match self {
            Self::Dwt => 132_000.0,
            Self::Cs => 46_000.0,
        }
    }

    /// The default PRD polynomial for this application.
    #[must_use]
    pub fn prd_poly(self) -> Polynomial {
        match self {
            Self::Dwt => dwt_prd_poly(),
            Self::Cs => cs_prd_poly(),
        }
    }

    /// Builds the configured application model for compression ratio `cr`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `cr` is outside `(0, 1]`.
    pub fn app(self, cr: f64) -> Result<Box<dyn ApplicationModel>, ModelError> {
        Ok(match self {
            Self::Dwt => Box::new(DwtApp::new(cr)?),
            Self::Cs => Box::new(CsApp::new(cr)?),
        })
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Dwt => "DWT",
            Self::Cs => "CS",
        }
    }
}

fn validate_cr(cr: f64) -> Result<(), ModelError> {
    if !(cr > 0.0 && cr <= 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "cr",
            reason: format!("compression ratio must be in (0, 1], got {cr}"),
        });
    }
    Ok(())
}

/// Shared implementation of the two compression application models.
macro_rules! compression_app {
    ($(#[$meta:meta])* $name:ident, $kind:expr, $label:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            cr: f64,
            prd_poly: Polynomial,
        }

        impl $name {
            /// Creates the application at compression ratio `cr` with the
            /// default PRD polynomial.
            ///
            /// # Errors
            ///
            /// Returns [`ModelError::InvalidParameter`] if `cr` ∉ (0, 1].
            pub fn new(cr: f64) -> Result<Self, ModelError> {
                validate_cr(cr)?;
                Ok(Self { cr, prd_poly: $kind.prd_poly() })
            }

            /// Creates the application with a custom PRD polynomial (e.g.
            /// freshly fitted against new empirical data).
            ///
            /// # Errors
            ///
            /// Returns [`ModelError::InvalidParameter`] if `cr` ∉ (0, 1].
            pub fn with_poly(cr: f64, prd_poly: Polynomial) -> Result<Self, ModelError> {
                validate_cr(cr)?;
                Ok(Self { cr, prd_poly })
            }

            /// The configured compression ratio.
            #[must_use]
            pub fn cr(&self) -> f64 {
                self.cr
            }
        }

        impl ApplicationModel for $name {
            fn output_rate(&self, phi_in: ByteRate) -> ByteRate {
                // §4.3: φout = h(φin, χnode) = φin · CR for both codecs.
                phi_in * self.cr
            }

            fn resource_usage(&self, _phi_in: ByteRate, f_mcu: Hertz) -> ResourceUsage {
                ResourceUsage {
                    duty: DutyCycle::new($kind.duty_constant_khz() / f_mcu.khz()),
                    mem_bytes: $kind.mem_bytes(),
                    mem_accesses_per_s: $kind.mem_accesses_per_s(),
                }
            }

            fn quality_loss(&self, _phi_in: ByteRate) -> f64 {
                self.prd_poly.eval(self.cr).max(0.0)
            }

            fn name(&self) -> &'static str {
                $label
            }
        }
    };
}

compression_app!(
    /// Wavelet-compression application model (§4.3, \[23\]).
    ///
    /// ```
    /// use wbsn_model::app::ApplicationModel;
    /// use wbsn_model::shimmer::DwtApp;
    /// use wbsn_model::units::{ByteRate, Hertz};
    ///
    /// let app = DwtApp::new(0.28)?;
    /// assert!((app.output_rate(ByteRate::new(375.0)).value() - 105.0).abs() < 1e-9);
    /// // DWT cannot complete at 1 MHz: duty 226.56 %.
    /// let u = app.resource_usage(ByteRate::new(375.0), Hertz::from_mhz(1.0));
    /// assert!(!u.duty.is_feasible());
    /// # Ok::<(), wbsn_model::ModelError>(())
    /// ```
    DwtApp,
    CompressionKind::Dwt,
    "DWT"
);

compression_app!(
    /// Compressed-sensing application model (§4.3, \[13\]).
    ///
    /// ```
    /// use wbsn_model::app::ApplicationModel;
    /// use wbsn_model::shimmer::CsApp;
    /// use wbsn_model::units::{ByteRate, Hertz};
    ///
    /// let app = CsApp::new(0.28)?;
    /// let u = app.resource_usage(ByteRate::new(375.0), Hertz::from_mhz(1.0));
    /// assert!(u.duty.is_feasible()); // 38.88 % at 1 MHz
    /// # Ok::<(), wbsn_model::ModelError>(())
    /// ```
    CsApp,
    CompressionKind::Cs,
    "CS"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_stream_matches_paper() {
        // 250 Hz × 1.5 B = 375 B/s (§4.3).
        assert_eq!(node_model().input_rate().value(), 375.0);
    }

    #[test]
    fn duty_cycles_match_paper_constants() {
        let phi_in = ByteRate::new(375.0);
        let dwt = DwtApp::new(0.25).expect("valid");
        let cs = CsApp::new(0.25).expect("valid");
        // k = (2265.6/fµC, 388.8/fµC) with fµC in kHz (§4.3).
        let d8 = dwt.resource_usage(phi_in, Hertz::from_mhz(8.0)).duty;
        assert!((d8.fraction() - 2265.6 / 8000.0).abs() < 1e-12);
        let c1 = cs.resource_usage(phi_in, Hertz::from_mhz(1.0)).duty;
        assert!((c1.fraction() - 388.8 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn dwt_infeasible_at_1mhz_feasible_at_8mhz() {
        let phi_in = ByteRate::new(375.0);
        let dwt = DwtApp::new(0.3).expect("valid");
        assert!(!dwt.resource_usage(phi_in, Hertz::from_mhz(1.0)).duty.is_feasible());
        assert!(dwt.resource_usage(phi_in, Hertz::from_mhz(8.0)).duty.is_feasible());
    }

    #[test]
    fn output_rate_is_cr_scaled() {
        let phi_in = ByteRate::new(375.0);
        for cr in [0.17, 0.23, 0.32, 0.38] {
            let dwt = DwtApp::new(cr).expect("valid");
            let cs = CsApp::new(cr).expect("valid");
            assert!((dwt.output_rate(phi_in).value() - 375.0 * cr).abs() < 1e-12);
            assert!((cs.output_rate(phi_in).value() - 375.0 * cr).abs() < 1e-12);
        }
    }

    #[test]
    fn prd_decreases_with_cr() {
        let phi_in = ByteRate::new(375.0);
        for kind in [CompressionKind::Dwt, CompressionKind::Cs] {
            let lo = kind.app(CR_MIN).expect("valid").quality_loss(phi_in);
            let hi = kind.app(CR_MAX).expect("valid").quality_loss(phi_in);
            assert!(
                lo > hi,
                "{}: PRD({CR_MIN})={lo} should exceed PRD({CR_MAX})={hi}",
                kind.label()
            );
        }
    }

    #[test]
    fn dwt_quality_beats_cs() {
        let phi_in = ByteRate::new(375.0);
        for cr in [0.17, 0.25, 0.38] {
            let dwt = DwtApp::new(cr).expect("valid").quality_loss(phi_in);
            let cs = CsApp::new(cr).expect("valid").quality_loss(phi_in);
            assert!(dwt < cs, "cr={cr}: DWT PRD {dwt} should be below CS PRD {cs}");
        }
    }

    #[test]
    fn cr_validation() {
        assert!(DwtApp::new(0.0).is_err());
        assert!(DwtApp::new(-0.1).is_err());
        assert!(DwtApp::new(1.01).is_err());
        assert!(CsApp::new(1.0).is_ok());
    }

    #[test]
    fn custom_poly_is_used() {
        let flat = Polynomial::new(vec![42.0]);
        let app = CsApp::with_poly(0.3, flat).expect("valid");
        assert_eq!(app.quality_loss(ByteRate::new(375.0)), 42.0);
    }

    #[test]
    fn memory_footprints_fit_platform_ram() {
        assert!(CompressionKind::Dwt.mem_bytes() <= RAM_BYTES);
        assert!(CompressionKind::Cs.mem_bytes() <= RAM_BYTES);
    }

    #[test]
    fn kind_round_trip() {
        assert_eq!(CompressionKind::Dwt.label(), "DWT");
        assert_eq!(CompressionKind::Cs.label(), "CS");
        assert!(CompressionKind::Dwt.app(0.25).is_ok());
        assert!(CompressionKind::Cs.app(2.0).is_err());
    }
}
