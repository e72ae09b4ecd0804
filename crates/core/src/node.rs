//! Node-level energy model of §3.3 (Eq. 3–7).
//!
//! A node is a microcontroller-based architecture: sensor front-end with
//! A/D converter, microcontroller, memory bank and radio. Each component
//! contributes a per-second energy term; [`NodeModel::energy_per_second`]
//! combines them into Eq. 7.

use crate::app::{ApplicationModel, ResourceUsage};
use crate::error::ModelError;
use crate::mac::MacModel;
use crate::units::{ByteRate, DutyCycle, Hertz, MilliWatts, Seconds};

/// Sensor front-end energy model (Eq. 3).
///
/// `Esensor = Etransducer + αs,1·fs + αs,0` — a constant transducer
/// overhead plus a linear model of the A/D converter in the sampling
/// frequency.
///
/// ```
/// use wbsn_model::node::SensorModel;
/// use wbsn_model::units::{Hertz, MilliWatts};
///
/// let s = SensorModel {
///     e_transducer: MilliWatts::new(0.35),
///     alpha1_mw_per_hz: 0.0014,
///     alpha0: MilliWatts::new(0.12),
/// };
/// let e = s.energy_per_second(Hertz::new(250.0));
/// assert!((e.mj_per_s() - 0.82).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorModel {
    /// `Etransducer`: constant transducer consumption, mJ/s.
    pub e_transducer: MilliWatts,
    /// `αs,1`: A/D slope, mW per Hz of sampling frequency.
    pub alpha1_mw_per_hz: f64,
    /// `αs,0`: A/D offset, mW.
    pub alpha0: MilliWatts,
}

impl SensorModel {
    /// Eq. 3 evaluated at sampling frequency `fs`.
    #[must_use]
    pub fn energy_per_second(&self, fs: Hertz) -> MilliWatts {
        self.e_transducer + MilliWatts::new(self.alpha1_mw_per_hz * fs.value()) + self.alpha0
    }
}

/// Microcontroller energy model (Eq. 4).
///
/// `EµC = Dutyapp · (αµC,1·fµC + αµC,0)` — linear in frequency, scaled by
/// the application duty cycle \[21\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McuModel {
    /// `αµC,1` expressed in mW per MHz (i.e. mJ/s per MHz of clock).
    pub alpha1_mw_per_mhz: f64,
    /// `αµC,0`: frequency-independent active power, mW.
    pub alpha0: MilliWatts,
}

impl McuModel {
    /// Eq. 4 evaluated for a given duty cycle and clock.
    #[must_use]
    pub fn energy_per_second(&self, duty: DutyCycle, f_mcu: Hertz) -> MilliWatts {
        let active = MilliWatts::new(self.alpha1_mw_per_mhz * f_mcu.mhz()) + self.alpha0;
        active * duty.fraction()
    }
}

/// Memory energy model (Eq. 5).
///
/// `Emem = γapp·Tmem·Eacc + (1 − γapp·Tmem)·8·Mapp·Ebitidle` — dynamic
/// consumption of the `γapp` accesses per second plus leakage of the
/// resident footprint during the remaining time \[7\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// `Tmem`: access time.
    pub t_access: Seconds,
    /// `Eacc`: power drawn while an access is in flight, mW.
    pub e_access: MilliWatts,
    /// `Ebitidle`: leakage per resident bit, mW/bit.
    pub e_bit_idle_mw: f64,
}

impl MemoryModel {
    /// Eq. 5 evaluated for a resource-usage vector.
    ///
    /// The access-time fraction `γapp·Tmem` is clamped to `[0, 1]`; a
    /// workload that would access memory more than 100 % of the time is a
    /// duty-cycle problem surfaced by the MCU feasibility check, not a
    /// memory-model panic.
    #[must_use]
    pub fn energy_per_second(&self, usage: &ResourceUsage) -> MilliWatts {
        let access_fraction = (usage.mem_accesses_per_s * self.t_access.value()).clamp(0.0, 1.0);
        let dynamic = self.e_access * access_fraction;
        let idle =
            MilliWatts::new((1.0 - access_fraction) * 8.0 * usage.mem_bytes * self.e_bit_idle_mw);
        dynamic + idle
    }
}

/// Radio energy model (Eq. 6).
///
/// `Eradio = [8(φout + Ω(φout)) + 8Ψn→c]·Etx + 8Ψc→n·Erx`, with the
/// physical-layer per-packet bytes (preamble/SFD/PHR) added to the
/// transmitted volume through [`MacModel::phy_overhead`] — the paper folds
/// radio-specific costs into `Ttx(·)`/`Etx`; we keep them explicit so the
/// simulator and the model account the same bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioEnergyModel {
    /// `Etx`: transmission energy per bit, mJ/bit.
    pub e_tx_per_bit_mj: f64,
    /// `Erx`: reception energy per bit, mJ/bit.
    pub e_rx_per_bit_mj: f64,
}

impl RadioEnergyModel {
    /// Eq. 6 evaluated against a configured MAC model.
    #[must_use]
    pub fn energy_per_second(&self, phi_out: ByteRate, mac: &dyn MacModel) -> MilliWatts {
        let tx_bytes = phi_out
            + mac.data_overhead(phi_out)
            + mac.control_from_node(phi_out)
            + mac.phy_overhead(phi_out);
        let rx_bytes = mac.control_to_node(phi_out);
        MilliWatts::new(
            tx_bytes.bits_per_second() * self.e_tx_per_bit_mj
                + rx_bytes.bits_per_second() * self.e_rx_per_bit_mj,
        )
    }
}

/// Per-component energy breakdown returned by [`NodeModel::energy_per_second`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEnergyBreakdown {
    /// Sensor front-end share (Eq. 3).
    pub sensor: MilliWatts,
    /// Microcontroller share (Eq. 4).
    pub mcu: MilliWatts,
    /// Memory share (Eq. 5).
    pub memory: MilliWatts,
    /// Radio share (Eq. 6).
    pub radio: MilliWatts,
    /// Application duty cycle that produced the MCU share.
    pub duty: DutyCycle,
    /// Output stream `φout` of the application.
    pub phi_out: ByteRate,
}

impl NodeEnergyBreakdown {
    /// `Enode` (Eq. 7): total per-second consumption.
    #[must_use]
    pub fn total(&self) -> MilliWatts {
        self.sensor + self.mcu + self.memory + self.radio
    }
}

/// Complete node model: hardware component models plus sensing parameters.
///
/// The sampling chain produces `φin = fs · Ladc` bytes per second (§3.3).
///
/// ```
/// use wbsn_model::shimmer::ShimmerPlatform;
/// let node = ShimmerPlatform::node_model();
/// assert_eq!(node.input_rate().value(), 375.0); // 250 Hz × 1.5 B
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    /// Sensor front-end model.
    pub sensor: SensorModel,
    /// Microcontroller model.
    pub mcu: McuModel,
    /// Memory model.
    pub memory: MemoryModel,
    /// Radio model.
    pub radio: RadioEnergyModel,
    /// Sampling frequency `fs`.
    pub fs: Hertz,
    /// A/D sample width `Ladc` in bytes (12 bit ⇒ 1.5 B).
    pub adc_bytes: f64,
}

impl NodeModel {
    /// Input stream `φin = fs · Ladc` in bytes per second.
    #[must_use]
    pub fn input_rate(&self) -> ByteRate {
        ByteRate::new(self.fs.value() * self.adc_bytes)
    }

    /// Evaluates Eq. 3–7 for one node running `app` at clock `f_mcu` under
    /// the configured MAC.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DutyCycleExceeded`] when the application duty
    /// cycle is above 100 % — the node cannot sustain real-time operation
    /// (`node` is reported as 0; callers evaluating a network re-tag it).
    pub fn energy_per_second(
        &self,
        app: &dyn ApplicationModel,
        f_mcu: Hertz,
        mac: &dyn MacModel,
    ) -> Result<NodeEnergyBreakdown, ModelError> {
        let phi_in = self.input_rate();
        let usage = app.resource_usage(phi_in, f_mcu);
        if !usage.duty.is_feasible() {
            return Err(ModelError::DutyCycleExceeded { node: 0, duty: usage.duty.fraction() });
        }
        let phi_out = app.output_rate(phi_in);
        Ok(NodeEnergyBreakdown {
            sensor: self.sensor.energy_per_second(self.fs),
            mcu: self.mcu.energy_per_second(usage.duty, f_mcu),
            memory: self.memory.energy_per_second(&usage),
            radio: self.radio.energy_per_second(phi_out, mac),
            duty: usage.duty,
            phi_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Passthrough;
    use crate::mac::TdmaMac;

    fn test_node() -> NodeModel {
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
            fs: Hertz::new(250.0),
            adc_bytes: 1.5,
        }
    }

    #[test]
    fn eq3_sensor_hand_computed() {
        let node = test_node();
        // 0.35 + 0.0014·250 + 0.12 = 0.82 mJ/s
        assert!((node.sensor.energy_per_second(node.fs).mj_per_s() - 0.82).abs() < 1e-12);
    }

    #[test]
    fn eq4_mcu_hand_computed() {
        let node = test_node();
        // duty 0.2832 at 8 MHz: 0.2832·(1.15·8 + 0.26) = 0.2832·9.46
        let e = node.mcu.energy_per_second(DutyCycle::new(0.2832), Hertz::from_mhz(8.0));
        assert!((e.mj_per_s() - 0.2832 * 9.46).abs() < 1e-12);
    }

    #[test]
    fn eq4_scales_linearly_with_duty() {
        let node = test_node();
        let f = Hertz::from_mhz(4.0);
        let e1 = node.mcu.energy_per_second(DutyCycle::new(0.2), f);
        let e2 = node.mcu.energy_per_second(DutyCycle::new(0.4), f);
        assert!((e2.value() - 2.0 * e1.value()).abs() < 1e-12);
    }

    #[test]
    fn eq5_memory_hand_computed() {
        let node = test_node();
        let usage = ResourceUsage {
            duty: DutyCycle::new(0.3),
            mem_bytes: 4500.0,
            mem_accesses_per_s: 132_000.0,
        };
        // access fraction = 132000·1e-7 = 0.0132
        let frac: f64 = 0.0132;
        let expect = frac * 1.4 + (1.0 - frac) * 8.0 * 4500.0 * 9e-6;
        let e = node.memory.energy_per_second(&usage);
        assert!((e.mj_per_s() - expect).abs() < 1e-9);
    }

    #[test]
    fn eq5_access_fraction_clamped() {
        let node = test_node();
        let usage = ResourceUsage {
            duty: DutyCycle::new(0.3),
            mem_bytes: 1000.0,
            mem_accesses_per_s: 1e12, // would exceed 100 % of time
        };
        let e = node.memory.energy_per_second(&usage);
        // Fully dynamic: exactly Eacc, no idle term.
        assert!((e.mj_per_s() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn eq6_radio_counts_all_streams() {
        let node = test_node();
        let mac = TdmaMac::new(Seconds::from_millis(1.0), 0.1, 250_000.0);
        let phi_out = ByteRate::new(100.0);
        // TDMA has zero overheads: energy = 8·100·Etx.
        let e = node.radio.energy_per_second(phi_out, &mac);
        assert!((e.mj_per_s() - 800.0 * 2.088e-4).abs() < 1e-12);
    }

    #[test]
    fn eq7_total_is_component_sum() {
        let node = test_node();
        let mac = TdmaMac::new(Seconds::from_millis(1.0), 0.1, 250_000.0);
        let breakdown =
            node.energy_per_second(&Passthrough, Hertz::from_mhz(8.0), &mac).expect("feasible");
        let sum = breakdown.sensor + breakdown.mcu + breakdown.memory + breakdown.radio;
        assert!((breakdown.total().value() - sum.value()).abs() < 1e-12);
    }

    #[test]
    fn infeasible_duty_is_an_error() {
        struct HungryApp;
        impl ApplicationModel for HungryApp {
            fn output_rate(&self, phi_in: ByteRate) -> ByteRate {
                phi_in
            }
            fn resource_usage(&self, _phi_in: ByteRate, _f: Hertz) -> ResourceUsage {
                ResourceUsage {
                    duty: DutyCycle::new(2.2656),
                    mem_bytes: 0.0,
                    mem_accesses_per_s: 0.0,
                }
            }
            fn quality_loss(&self, _phi_in: ByteRate) -> f64 {
                0.0
            }
            fn name(&self) -> &'static str {
                "hungry"
            }
        }
        let node = test_node();
        let mac = TdmaMac::new(Seconds::from_millis(1.0), 0.1, 250_000.0);
        let err = node
            .energy_per_second(&HungryApp, Hertz::from_mhz(1.0), &mac)
            .expect_err("must be infeasible");
        assert_eq!(err, ModelError::DutyCycleExceeded { node: 0, duty: 2.2656 });
    }

    #[test]
    fn input_rate_matches_case_study() {
        // fs = 250 Hz, 12-bit samples => 375 B/s (paper §4.3).
        assert_eq!(test_node().input_rate().value(), 375.0);
    }
}
