//! End-to-end system-level evaluation: the object the DSE loop calls
//! thousands of times per second (§5.2 reports ≈4800 evaluations/s for the
//! authors' implementation).
//!
//! [`WbsnModel::evaluate`] chains the whole paper: application models
//! (§3.3) → node energy (Eq. 3–7) → slot assignment (Eq. 1–2) → delay
//! bound (Eq. 9) → balanced network metrics (Eq. 8).

use crate::app::ApplicationModel;
use crate::assignment::{assign_slots, assign_slots_into, SlotAssignment};
use crate::delay::{worst_case_delay_from_slots, worst_case_delays};
use crate::error::ModelError;
use crate::ieee802154::{Ieee802154Config, Ieee802154Mac};
use crate::metrics::{balanced_metric, NetworkObjectives};
use crate::node::{NodeEnergyBreakdown, NodeModel};
use crate::shimmer::{self, CompressionKind};
use crate::units::{ByteRate, Hertz, Seconds};

/// Per-node configuration `χnode = {CR, fµC}` plus the application choice
/// (fixed per node in the case study: half DWT, half CS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Which compression application the node runs.
    pub kind: CompressionKind,
    /// Compression ratio `CR ∈ (0, 1]`.
    pub cr: f64,
    /// Microcontroller clock `fµC`.
    pub f_mcu: Hertz,
}

impl NodeConfig {
    /// Convenience constructor.
    #[must_use]
    pub fn new(kind: CompressionKind, cr: f64, f_mcu: Hertz) -> Self {
        Self { kind, cr, f_mcu }
    }
}

/// Everything the model computes for a single node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEvaluation {
    /// Energy breakdown (Eq. 3–7).
    pub energy: NodeEnergyBreakdown,
    /// Worst-case delay bound (Eq. 9).
    pub delay_bound: Seconds,
    /// Estimated PRD (quality loss, §4.3).
    pub prd: f64,
    /// GTS slots granted per superframe.
    pub slots: u32,
}

/// Full evaluation of one network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEvaluation {
    /// The three network objectives (Eq. 8 combinations).
    pub objectives: NetworkObjectives,
    /// Per-node details.
    pub per_node: Vec<NodeEvaluation>,
    /// The Eq. 1–2 slot assignment.
    pub assignment: SlotAssignment,
}

impl SystemEvaluation {
    /// `Enet` in mJ/s.
    #[must_use]
    pub fn energy_metric(&self) -> f64 {
        self.objectives.energy
    }

    /// Balanced delay metric in seconds.
    #[must_use]
    pub fn delay_metric(&self) -> f64 {
        self.objectives.delay
    }

    /// Balanced PRD metric in percent.
    #[must_use]
    pub fn prd_metric(&self) -> f64 {
        self.objectives.prd
    }
}

/// The proposed multi-layer analytical model, configured for a platform.
///
/// ```
/// use wbsn_model::evaluate::{NodeConfig, WbsnModel};
/// use wbsn_model::ieee802154::Ieee802154Config;
/// use wbsn_model::shimmer::CompressionKind;
/// use wbsn_model::units::Hertz;
///
/// let model = WbsnModel::shimmer();
/// let mac = Ieee802154Config::new(114, 6, 6)?;
/// let nodes: Vec<NodeConfig> = (0..6)
///     .map(|i| {
///         let kind = if i < 3 { CompressionKind::Dwt } else { CompressionKind::Cs };
///         NodeConfig::new(kind, 0.25, Hertz::from_mhz(8.0))
///     })
///     .collect();
/// let eval = model.evaluate(&mac, &nodes)?;
/// assert!(eval.energy_metric() > 0.0);
/// assert_eq!(eval.per_node.len(), 6);
/// # Ok::<(), wbsn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WbsnModel {
    node_model: NodeModel,
    theta: f64,
    packet_error_rate: f64,
}

impl WbsnModel {
    /// Model over the calibrated Shimmer platform with ϑ = 1 and a clean
    /// channel (the case study sets the carrier power "to a sufficient
    /// level in order to minimize the probability of a packet error").
    #[must_use]
    pub fn shimmer() -> Self {
        Self { node_model: shimmer::node_model(), theta: 1.0, packet_error_rate: 0.0 }
    }

    /// Model over a custom node model.
    #[must_use]
    pub fn new(node_model: NodeModel, theta: f64) -> Self {
        Self { node_model, theta, packet_error_rate: 0.0 }
    }

    /// Sets the imbalance weight ϑ of Eq. 8.
    #[must_use]
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Enables the §3.3 retransmission extension: "if an estimation of
    /// the transmission errors is available, then the average amount of
    /// retransmitted data can be added to the original φout". With ARQ,
    /// a packet error rate `p` inflates the effective stream to
    /// `φout / (1 − p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn with_packet_error_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "packet error rate must be in [0, 1), got {p}");
        self.packet_error_rate = p;
        self
    }

    /// The configured packet error rate.
    #[must_use]
    pub fn packet_error_rate(&self) -> f64 {
        self.packet_error_rate
    }

    /// The configured imbalance weight ϑ.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The underlying node model.
    #[must_use]
    pub fn node_model(&self) -> &NodeModel {
        &self.node_model
    }

    /// Evaluates one full network configuration.
    ///
    /// # Errors
    ///
    /// Propagates every infeasibility the paper's model detects:
    /// duty-cycle overflow ([`ModelError::DutyCycleExceeded`], tagged with
    /// the node index), GTS capacity overflow
    /// ([`ModelError::GtsCapacityExceeded`]), per-node bandwidth shortfall
    /// ([`ModelError::BandwidthExceeded`]) and invalid parameters.
    pub fn evaluate(
        &self,
        mac_cfg: &Ieee802154Config,
        nodes: &[NodeConfig],
    ) -> Result<SystemEvaluation, ModelError> {
        mac_cfg.validate()?;
        let mac = Ieee802154Mac::new(*mac_cfg, nodes.len() as u32);
        let phi_in = self.node_model.input_rate();

        // §3.3 retransmission extension: ARQ over a lossy channel carries
        // each packet 1/(1−p) times on average.
        let retransmission_factor = 1.0 / (1.0 - self.packet_error_rate);

        let mut breakdowns = Vec::with_capacity(nodes.len());
        let mut prds = Vec::with_capacity(nodes.len());
        let mut phi_outs = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let app =
                RetransmittingApp { inner: node.kind.app(node.cr)?, factor: retransmission_factor };
            let breakdown =
                self.node_model.energy_per_second(&app, node.f_mcu, &mac).map_err(|e| match e {
                    ModelError::DutyCycleExceeded { duty, .. } => {
                        ModelError::DutyCycleExceeded { node: i, duty }
                    }
                    other => other,
                })?;
            phi_outs.push(breakdown.phi_out);
            prds.push(app.quality_loss(phi_in));
            breakdowns.push(breakdown);
        }

        let assignment = assign_slots(&mac, &phi_outs)?;
        let delays = worst_case_delays(&mac, &assignment);

        let energies: Vec<f64> = breakdowns.iter().map(|b| b.total().mj_per_s()).collect();
        let delay_vals: Vec<f64> = delays.iter().map(|d| d.value()).collect();
        let objectives = NetworkObjectives {
            energy: balanced_metric(&energies, self.theta),
            delay: balanced_metric(&delay_vals, self.theta),
            prd: balanced_metric(&prds, self.theta),
        };

        let per_node = breakdowns
            .into_iter()
            .zip(delays)
            .zip(prds)
            .zip(&assignment.slots)
            .map(|(((energy, delay_bound), prd), &slots)| NodeEvaluation {
                energy,
                delay_bound,
                prd,
                slots,
            })
            .collect();

        Ok(SystemEvaluation { objectives, per_node, assignment })
    }
}

impl Default for WbsnModel {
    fn default() -> Self {
        Self::shimmer()
    }
}

/// Upper bound on *off-axis* `(kind, CR, fµC)` node configurations
/// memoized at once (the canonical case-study grid lives in a dense
/// 176-slot table that cannot grow). The cap only guards against
/// unbounded growth when a caller sweeps a continuous CR axis through
/// one scratch (excess configurations are simply computed fresh).
const MEMO_CAPACITY: usize = 1024;

/// Slots of the open-addressing fallback table (power of two, ≤ 50 %
/// load at capacity so probe chains stay short).
const MEMO_SLOTS: usize = 2048;

/// Fingerprint of everything a memoized node evaluation depends on
/// besides the node's own `(kind, CR, fµC)`: the channel loss model and
/// the platform constants. Deliberately *not* the MAC configuration —
/// only the radio term of Eq. 7 sees the MAC, and that term is
/// recomputed on every hit, so one warm memo serves an entire
/// design-space exploration across all MAC configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemoStamp {
    packet_error_rate: f64,
    node_model: NodeModel,
}

type MemoKey = (CompressionKind, u64, u64);

/// Cached MAC-independent outcome of one node evaluation. Infeasibility
/// is cached too — rejecting a configuration is as hot a path as
/// accepting one. Shared with the struct-of-arrays kernel
/// ([`crate::soa`]) so both caches are built by the identical code path.
#[derive(Debug, Clone)]
pub(crate) enum MemoOutcome {
    Feasible {
        /// `Esensor` (Eq. 3). The three MAC-independent components are
        /// stored separately — the full-evaluation batch kernel emits
        /// them as per-node lanes — and consumers re-sum them in the
        /// exact order of [`NodeEnergyBreakdown::total`]
        /// (`sensor + mcu + memory` then `+ radio`), so the full
        /// evaluation is reproduced bit-for-bit.
        sensor: crate::units::MilliWatts,
        /// `EµC` (Eq. 4).
        mcu: crate::units::MilliWatts,
        /// `Emem` (Eq. 5).
        memory: crate::units::MilliWatts,
        /// Application output stream (retransmission-inflated).
        phi_out: ByteRate,
        /// Estimated PRD.
        prd: f64,
    },
    /// The stored error carries node index 0; it is re-tagged with the
    /// actual node index on every hit.
    Infeasible(ModelError),
}

/// Caller-provided working memory for [`WbsnModel::evaluate_objectives`].
///
/// Holds the per-node buffers the full [`WbsnModel::evaluate`] allocates
/// on every call, plus a memo of the MAC-independent node evaluations
/// keyed by `(kind, CR, fµC)`: nodes draw from a tiny configuration
/// grid, so an entire design-space exploration costs at most `|grid|`
/// application-model evaluations in total — each hit only recomputes the
/// cheap per-MAC radio term of Eq. 6.
///
/// One scratch serves one thread; create one per worker for parallel
/// batch evaluation. Reusing a scratch across models, MAC configurations
/// or network sizes is safe — the memo revalidates itself and the buffers
/// are cleared on every call.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    stamp: Option<MemoStamp>,
    memo: MemoTable,
    phi_outs: Vec<ByteRate>,
    prds: Vec<f64>,
    energies: Vec<f64>,
    slots: Vec<u32>,
    delta_tx: Vec<Seconds>,
    delays: Vec<f64>,
    hits: u64,
    misses: u64,
}

/// Map from node configurations to [`MemoOutcome`]s, looked up six
/// times per evaluation, so lookup must be O(1), not a scan of the
/// whole grid. Two tiers:
///
/// * **dense direct index** — picks on the canonical case-study axes
///   (the entire DSE workload) resolve with one load at the perfect
///   index [`crate::space::node_axis_index`] derives arithmetically
///   from the pick — no hashing, no probing;
/// * **open-addressing fallback** — off-axis picks (continuous CR
///   sweeps, custom spaces) hash into a fixed-size linear-probing
///   table capped at [`MEMO_CAPACITY`] entries.
#[derive(Debug, Clone, Default)]
struct MemoTable {
    /// `dense[axis slot]` for on-axis picks; lazily sized to
    /// [`crate::space::NODE_AXIS_SLOTS`].
    dense: Vec<Option<MemoOutcome>>,
    /// Off-axis fallback (linear probing over [`MEMO_SLOTS`]).
    slots: Vec<Option<(MemoKey, MemoOutcome)>>,
    /// Total memoized configurations across both tiers (the
    /// [`EvalScratch::memo_len`] statistic).
    len: usize,
    /// Entries in the fallback tier alone — the [`MEMO_CAPACITY`] cap
    /// applies to this count, so dense entries never consume the
    /// off-axis budget.
    fallback_len: usize,
}

/// Hash of an *off-axis* node-configuration key
/// `(kind, CR bits, fµC bits)` for [`MemoTable`]'s fallback tier (the
/// dense tier needs no hash — its index is perfect).
#[inline]
fn node_key_hash(kind: CompressionKind, cr_bits: u64, f_bits: u64) -> u64 {
    let kind_salt: u64 = match kind {
        CompressionKind::Dwt => 0x9E37_79B9_7F4A_7C15,
        CompressionKind::Cs => 0xC2B2_AE3D_27D4_EB4F,
    };
    let mut h = kind_salt
        ^ cr_bits.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ f_bits.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

impl MemoTable {
    fn hash(key: &MemoKey) -> usize {
        (node_key_hash(key.0, key.1, key.2) as usize) & (MEMO_SLOTS - 1)
    }

    /// Looks up a node's outcome: one load for on-axis picks
    /// (`dense_slot` is `Some`), a linear probe otherwise.
    fn get(&self, dense_slot: Option<usize>, key: &MemoKey) -> Option<&MemoOutcome> {
        if let Some(slot) = dense_slot {
            return self.dense.get(slot)?.as_ref();
        }
        if self.slots.is_empty() {
            return None;
        }
        let mut i = Self::hash(key);
        loop {
            match &self.slots[i] {
                Some((k, outcome)) if k == key => return Some(outcome),
                Some(_) => i = (i + 1) & (MEMO_SLOTS - 1),
                None => return None,
            }
        }
    }

    /// Inserts a freshly computed outcome. On-axis picks always fit
    /// (the dense table covers the whole axis); off-axis picks are
    /// dropped once the fallback is at capacity (callers then just
    /// recompute such entries every time). The key must not be present.
    fn insert(&mut self, dense_slot: Option<usize>, key: MemoKey, outcome: MemoOutcome) {
        if let Some(slot) = dense_slot {
            if self.dense.is_empty() {
                self.dense.resize(crate::space::NODE_AXIS_SLOTS, None);
            }
            self.dense[slot] = Some(outcome);
            self.len += 1;
            return;
        }
        if self.fallback_len >= MEMO_CAPACITY {
            return;
        }
        if self.slots.is_empty() {
            self.slots.resize_with(MEMO_SLOTS, || None);
        }
        let mut i = Self::hash(&key);
        while self.slots[i].is_some() {
            i = (i + 1) & (MEMO_SLOTS - 1);
        }
        self.slots[i] = Some((key, outcome));
        self.len += 1;
        self.fallback_len += 1;
    }

    fn clear(&mut self) {
        self.dense.iter_mut().for_each(|s| *s = None);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
        self.fallback_len = 0;
    }
}

impl EvalScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memo hits since construction (node evaluations skipped).
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.hits
    }

    /// Memo misses since construction (node evaluations performed).
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.misses
    }

    /// Number of node configurations currently memoized.
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo.len
    }
}

impl WbsnModel {
    /// Objectives-only fast path: computes exactly
    /// `self.evaluate(mac_cfg, nodes)?.objectives` (bit-identical, same
    /// error on infeasible configurations) without any heap allocation in
    /// the steady state.
    ///
    /// Two mechanisms make it fast:
    ///
    /// * every per-call `Vec` of [`WbsnModel::evaluate`] is replaced by a
    ///   buffer reused from `scratch`;
    /// * per-node evaluations are memoized in `scratch` keyed by
    ///   `(kind, CR, fµC)` — under a fixed MAC configuration an N-node
    ///   network costs at most `|grid|` node-model evaluations in total.
    ///
    /// The objectives `SoA` batch kernels (`crate::soa`) fall back to
    /// it, point by point, for every point they cannot intern (their
    /// spill path).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`WbsnModel::evaluate`].
    pub fn evaluate_objectives(
        &self,
        mac_cfg: &Ieee802154Config,
        nodes: &[NodeConfig],
        scratch: &mut EvalScratch,
    ) -> Result<NetworkObjectives, ModelError> {
        mac_cfg.validate()?;
        let mac = Ieee802154Mac::new(*mac_cfg, nodes.len() as u32);
        let stamp =
            MemoStamp { packet_error_rate: self.packet_error_rate, node_model: self.node_model };
        if scratch.stamp != Some(stamp) {
            scratch.memo.clear();
            scratch.stamp = Some(stamp);
        }
        let retransmission_factor = 1.0 / (1.0 - self.packet_error_rate);

        scratch.phi_outs.clear();
        scratch.prds.clear();
        scratch.energies.clear();
        for (i, node) in nodes.iter().enumerate() {
            let dense_slot = crate::space::node_axis_index(node.kind, node.cr, node.f_mcu);
            let key: MemoKey = (node.kind, node.cr.to_bits(), node.f_mcu.value().to_bits());
            let outcome = if let Some(cached) = scratch.memo.get(dense_slot, &key) {
                scratch.hits += 1;
                cached.clone()
            } else {
                scratch.misses += 1;
                let fresh = self.node_outcome(node, retransmission_factor, &mac);
                scratch.memo.insert(dense_slot, key, fresh.clone());
                fresh
            };
            match outcome {
                MemoOutcome::Feasible { sensor, mcu, memory, phi_out, prd } => {
                    let radio = self.node_model.radio.energy_per_second(phi_out, &mac);
                    scratch.energies.push((sensor + mcu + memory + radio).mj_per_s());
                    scratch.phi_outs.push(phi_out);
                    scratch.prds.push(prd);
                }
                MemoOutcome::Infeasible(err) => {
                    return Err(match err {
                        ModelError::DutyCycleExceeded { duty, .. } => {
                            ModelError::DutyCycleExceeded { node: i, duty }
                        }
                        other => other,
                    });
                }
            }
        }

        assign_slots_into(&mac, &scratch.phi_outs, &mut scratch.slots, &mut scratch.delta_tx)?;

        scratch.delays.clear();
        for n in 0..nodes.len() {
            scratch.delays.push(worst_case_delay_from_slots(&mac, &scratch.slots, n).value());
        }

        Ok(NetworkObjectives {
            energy: balanced_metric(&scratch.energies, self.theta),
            delay: balanced_metric(&scratch.delays, self.theta),
            prd: balanced_metric(&scratch.prds, self.theta),
        })
    }

    /// One node's MAC-independent evaluation, sharing the exact code path
    /// of [`WbsnModel::evaluate`] so memoized results cannot drift. The
    /// radio term is dropped here and recomputed per MAC by the caller,
    /// which re-sums the stored components in the order of
    /// [`NodeEnergyBreakdown::total`]. Also the grid-building primitive
    /// of the [`crate::soa`] kernel.
    pub(crate) fn node_outcome(
        &self,
        node: &NodeConfig,
        retransmission_factor: f64,
        mac: &Ieee802154Mac,
    ) -> MemoOutcome {
        let inner = match node.kind.app(node.cr) {
            Ok(app) => app,
            Err(e) => return MemoOutcome::Infeasible(e),
        };
        let app = RetransmittingApp { inner, factor: retransmission_factor };
        match self.node_model.energy_per_second(&app, node.f_mcu, mac) {
            Ok(breakdown) => MemoOutcome::Feasible {
                sensor: breakdown.sensor,
                mcu: breakdown.mcu,
                memory: breakdown.memory,
                phi_out: breakdown.phi_out,
                prd: app.quality_loss(self.node_model.input_rate()),
            },
            Err(e) => MemoOutcome::Infeasible(e),
        }
    }
}

/// Wraps an application model, inflating its output stream by the ARQ
/// retransmission factor (§3.3 extension). Quality and resource usage are
/// unchanged: retransmissions cost radio bytes, not CPU or fidelity.
struct RetransmittingApp {
    inner: Box<dyn ApplicationModel>,
    factor: f64,
}

impl ApplicationModel for RetransmittingApp {
    fn output_rate(&self, phi_in: crate::units::ByteRate) -> crate::units::ByteRate {
        self.inner.output_rate(phi_in) * self.factor
    }

    fn resource_usage(
        &self,
        phi_in: crate::units::ByteRate,
        f_mcu: Hertz,
    ) -> crate::app::ResourceUsage {
        self.inner.resource_usage(phi_in, f_mcu)
    }

    fn quality_loss(&self, phi_in: crate::units::ByteRate) -> f64 {
        self.inner.quality_loss(phi_in)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Builds the paper's reference scenario: `n` nodes, the first half running
/// DWT and the rest CS (§4.1), all at the same `cr` and `f_mcu`.
#[must_use]
pub fn half_dwt_half_cs(n: usize, cr: f64, f_mcu: Hertz) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| {
            let kind = if i < n / 2 { CompressionKind::Dwt } else { CompressionKind::Cs };
            NodeConfig::new(kind, cr, f_mcu)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_mac() -> Ieee802154Config {
        Ieee802154Config::new(114, 6, 6).expect("valid")
    }

    #[test]
    fn six_node_case_study_is_feasible_at_8mhz() {
        let model = WbsnModel::shimmer();
        let nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        let eval = model.evaluate(&default_mac(), &nodes).expect("feasible");
        assert_eq!(eval.per_node.len(), 6);
        // Plausible absolute range (mJ/s per node, per Fig. 3): 1..10.
        for n in &eval.per_node {
            let e = n.energy.total().mj_per_s();
            assert!((0.5..10.0).contains(&e), "node energy {e} out of plausible range");
        }
        assert!(eval.energy_metric() > 0.0);
        assert!(eval.delay_metric() > 0.0);
        assert!(eval.prd_metric() > 0.0);
    }

    #[test]
    fn dwt_at_1mhz_is_rejected_with_node_index() {
        let model = WbsnModel::shimmer();
        let mut nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        nodes[2].f_mcu = Hertz::from_mhz(1.0); // node 2 runs DWT
        let err = model.evaluate(&default_mac(), &nodes).expect_err("infeasible");
        assert!(matches!(err, ModelError::DutyCycleExceeded { node: 2, .. }), "{err:?}");
    }

    #[test]
    fn cs_at_1mhz_is_feasible() {
        let model = WbsnModel::shimmer();
        let nodes = vec![NodeConfig::new(CompressionKind::Cs, 0.25, Hertz::from_mhz(1.0)); 4];
        model.evaluate(&default_mac(), &nodes).expect("CS fits in 1 MHz");
    }

    #[test]
    fn higher_cr_means_more_energy_less_prd() {
        let model = WbsnModel::shimmer();
        let lo = model
            .evaluate(&default_mac(), &half_dwt_half_cs(6, 0.17, Hertz::from_mhz(8.0)))
            .expect("feasible");
        let hi = model
            .evaluate(&default_mac(), &half_dwt_half_cs(6, 0.38, Hertz::from_mhz(8.0)))
            .expect("feasible");
        assert!(hi.energy_metric() > lo.energy_metric(), "more data ⇒ more radio energy");
        assert!(hi.prd_metric() < lo.prd_metric(), "more data ⇒ better quality");
    }

    #[test]
    fn theta_zero_matches_mean_energy() {
        let model = WbsnModel::shimmer().with_theta(0.0);
        let nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        let eval = model.evaluate(&default_mac(), &nodes).expect("feasible");
        let mean = eval.per_node.iter().map(|n| n.energy.total().mj_per_s()).sum::<f64>() / 6.0;
        assert!((eval.energy_metric() - mean).abs() < 1e-12);
    }

    #[test]
    fn theta_penalizes_imbalance() {
        let model = WbsnModel::shimmer();
        let balanced = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        let mut unbalanced = balanced.clone();
        // Same *average* CR, spread apart: imbalance must not decrease Enet.
        unbalanced[3].cr = 0.17;
        unbalanced[4].cr = 0.33;
        let e_bal = model.evaluate(&default_mac(), &balanced).expect("ok");
        let e_unb = model.evaluate(&default_mac(), &unbalanced).expect("ok");
        let theta0 = WbsnModel::shimmer().with_theta(0.0);
        let m_bal = theta0.evaluate(&default_mac(), &balanced).expect("ok");
        let m_unb = theta0.evaluate(&default_mac(), &unbalanced).expect("ok");
        let spread_with = e_unb.energy_metric() - m_unb.energy_metric();
        let spread_without = e_bal.energy_metric() - m_bal.energy_metric();
        assert!(spread_with > spread_without);
    }

    #[test]
    fn invalid_mac_config_propagates() {
        let model = WbsnModel::shimmer();
        let bad = Ieee802154Config { payload_bytes: 0, ..Ieee802154Config::default() };
        let nodes = half_dwt_half_cs(2, 0.25, Hertz::from_mhz(8.0));
        assert!(model.evaluate(&bad, &nodes).is_err());
    }

    #[test]
    fn helper_splits_applications() {
        let nodes = half_dwt_half_cs(6, 0.3, Hertz::from_mhz(4.0));
        assert_eq!(nodes.iter().filter(|n| n.kind == CompressionKind::Dwt).count(), 3);
        assert_eq!(nodes.iter().filter(|n| n.kind == CompressionKind::Cs).count(), 3);
        let nodes = half_dwt_half_cs(5, 0.3, Hertz::from_mhz(4.0));
        assert_eq!(nodes.iter().filter(|n| n.kind == CompressionKind::Dwt).count(), 2);
    }

    #[test]
    fn retransmissions_inflate_radio_energy_and_slots() {
        let mac = default_mac();
        let nodes = half_dwt_half_cs(6, 0.3, Hertz::from_mhz(8.0));
        let clean = WbsnModel::shimmer().evaluate(&mac, &nodes).expect("ok");
        let lossy =
            WbsnModel::shimmer().with_packet_error_rate(0.3).evaluate(&mac, &nodes).expect("ok");
        for (c, l) in clean.per_node.iter().zip(&lossy.per_node) {
            assert!(
                l.energy.radio.value() > c.energy.radio.value() * 1.3,
                "30% PER must inflate radio energy by >30%: {} vs {}",
                l.energy.radio.value(),
                c.energy.radio.value()
            );
            // Non-radio components are untouched.
            assert_eq!(l.energy.mcu, c.energy.mcu);
            assert_eq!(l.energy.sensor, c.energy.sensor);
            assert_eq!(l.prd, c.prd);
        }
        assert!(lossy.energy_metric() > clean.energy_metric());
    }

    #[test]
    fn extreme_per_exhausts_gts_capacity() {
        let mac = default_mac();
        let nodes = half_dwt_half_cs(6, 0.38, Hertz::from_mhz(8.0));
        // 92 % loss rate: 12.5x the traffic cannot fit in 7 GTSs.
        let err = WbsnModel::shimmer()
            .with_packet_error_rate(0.92)
            .evaluate(&mac, &nodes)
            .expect_err("saturated");
        assert!(matches!(
            err,
            ModelError::GtsCapacityExceeded { .. } | ModelError::BandwidthExceeded { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "packet error rate")]
    fn per_validation() {
        let _ = WbsnModel::shimmer().with_packet_error_rate(1.0);
    }

    #[test]
    fn fast_path_matches_full_eval_bitwise_across_the_grid() {
        let model = WbsnModel::shimmer();
        let mut scratch = EvalScratch::new();
        for (sfo, bco) in [(6u8, 6u8), (4, 7)] {
            for payload in [30u16, 114] {
                let mac = Ieee802154Config::new(payload, sfo, bco).expect("valid");
                for cr in [0.17, 0.25, 0.38] {
                    for f_mhz in [1.0, 2.0, 4.0, 8.0] {
                        let nodes = half_dwt_half_cs(6, cr, Hertz::from_mhz(f_mhz));
                        let full = model.evaluate(&mac, &nodes);
                        let fast = model.evaluate_objectives(&mac, &nodes, &mut scratch);
                        match (full, fast) {
                            (Ok(full), Ok(fast)) => {
                                assert_eq!(full.objectives.energy.to_bits(), fast.energy.to_bits());
                                assert_eq!(full.objectives.delay.to_bits(), fast.delay.to_bits());
                                assert_eq!(full.objectives.prd.to_bits(), fast.prd.to_bits());
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            (a, b) => panic!("feasibility disagreement: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_reports_infeasible_node_index() {
        let model = WbsnModel::shimmer();
        let mut scratch = EvalScratch::new();
        let mut nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        nodes[2].f_mcu = Hertz::from_mhz(1.0); // node 2 runs DWT
        let err = model
            .evaluate_objectives(&default_mac(), &nodes, &mut scratch)
            .expect_err("infeasible");
        assert!(matches!(err, ModelError::DutyCycleExceeded { node: 2, .. }), "{err:?}");
        // A *different* node with the same config hits the memo and still
        // gets its own index.
        let mut nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        nodes[1].f_mcu = Hertz::from_mhz(1.0);
        let err = model
            .evaluate_objectives(&default_mac(), &nodes, &mut scratch)
            .expect_err("infeasible");
        assert!(matches!(err, ModelError::DutyCycleExceeded { node: 1, .. }), "{err:?}");
    }

    #[test]
    fn memo_caps_node_evaluations_at_grid_size() {
        let model = WbsnModel::shimmer();
        let mut scratch = EvalScratch::new();
        let mac = default_mac();
        // 8 distinct (kind, cr, f) combinations, evaluated 50 times.
        for _ in 0..50 {
            for cr in [0.2, 0.3] {
                for f in [4.0, 8.0] {
                    let nodes = half_dwt_half_cs(6, cr, Hertz::from_mhz(f));
                    model.evaluate_objectives(&mac, &nodes, &mut scratch).expect("feasible");
                }
            }
        }
        assert_eq!(scratch.memo_len(), 8);
        assert_eq!(scratch.memo_misses(), 8);
        // 50 rounds × 4 configs × 6 nodes = 1200 node draws, 8 misses.
        assert_eq!(scratch.memo_hits() + scratch.memo_misses(), 1200);
    }

    #[test]
    fn memo_survives_mac_changes_but_revalidates_on_model_changes() {
        let model = WbsnModel::shimmer();
        let mut scratch = EvalScratch::new();
        let nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        model.evaluate_objectives(&default_mac(), &nodes, &mut scratch).expect("ok");
        let first_misses = scratch.memo_misses();
        assert!(first_misses > 0);

        // New MAC: only the per-call radio term depends on it, so the
        // memo keeps serving — and the result stays exact.
        let other_mac = Ieee802154Config::new(70, 5, 6).expect("valid");
        let fast = model.evaluate_objectives(&other_mac, &nodes, &mut scratch).expect("ok");
        let full = model.evaluate(&other_mac, &nodes).expect("ok").objectives;
        assert_eq!(full.energy.to_bits(), fast.energy.to_bits());
        assert_eq!(full.delay.to_bits(), fast.delay.to_bits());
        assert_eq!(
            scratch.memo_misses(),
            first_misses,
            "a MAC change must not invalidate the MAC-independent memo"
        );

        // Lossy model through the same scratch: node outcomes change, so
        // the memo must revalidate.
        let lossy = WbsnModel::shimmer().with_packet_error_rate(0.3);
        let fast = lossy.evaluate_objectives(&default_mac(), &nodes, &mut scratch).expect("ok");
        let full = lossy.evaluate(&default_mac(), &nodes).expect("ok").objectives;
        assert!(scratch.memo_misses() > first_misses, "stale memo reused across models");
        assert_eq!(full.energy.to_bits(), fast.energy.to_bits());
        assert_eq!(full.delay.to_bits(), fast.delay.to_bits());
        assert_eq!(full.prd.to_bits(), fast.prd.to_bits());

        // Different platform constants likewise.
        let mut other_platform = shimmer::node_model();
        other_platform.radio.e_tx_per_bit_mj *= 2.0;
        let custom = WbsnModel::new(other_platform, 1.0);
        let fast = custom.evaluate_objectives(&default_mac(), &nodes, &mut scratch).expect("ok");
        let full = custom.evaluate(&default_mac(), &nodes).expect("ok").objectives;
        assert_eq!(full.energy.to_bits(), fast.energy.to_bits());
    }

    #[test]
    fn fast_path_respects_theta() {
        let mut scratch = EvalScratch::new();
        let nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        for theta in [0.0, 0.5, 2.0] {
            let model = WbsnModel::shimmer().with_theta(theta);
            let fast = model.evaluate_objectives(&default_mac(), &nodes, &mut scratch).expect("ok");
            let full = model.evaluate(&default_mac(), &nodes).expect("ok").objectives;
            assert_eq!(full.energy.to_bits(), fast.energy.to_bits());
        }
    }

    #[test]
    fn slots_reported_per_node() {
        let model = WbsnModel::shimmer();
        let nodes = half_dwt_half_cs(6, 0.25, Hertz::from_mhz(8.0));
        let eval = model.evaluate(&default_mac(), &nodes).expect("feasible");
        for n in &eval.per_node {
            assert!(n.slots >= 1, "every active node needs at least one slot");
        }
    }
}
