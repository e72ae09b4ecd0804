//! Design-space definition (§4.1: "the number of possible network
//! configurations of this case study exceeds the tens of millions").
//!
//! A design point is a MAC configuration `χmac` (payload, SFO, BCO) plus
//! one `χnode = {CR, fµC}` per node. The application kind of each node is
//! fixed by the deployment (half DWT, half CS in the case study), so it is
//! part of the space definition, not of the point.
//!
//! # Small-vec decode
//!
//! [`DesignPoint::nodes`] is a [`NodeVec`]: up to [`INLINE_NODES`]
//! per-node configurations stored inline (`NodeConfig` is `Copy`), with a
//! transparent heap spill for larger deployments. Decoding a point via
//! [`DesignSpace::point_with`] / [`DesignSpace::point_at`] therefore
//! allocates nothing for deployments up to [`INLINE_NODES`] nodes — the
//! batch evaluation pipeline decodes and evaluates millions of points per
//! second, and the per-point `Vec<NodeConfig>` was its last allocation.
//! `NodeVec` derefs to `[NodeConfig]`, so existing slice-based call sites
//! (`model.evaluate(&point.mac, &point.nodes)`, indexing, iteration) are
//! unchanged.

use crate::evaluate::NodeConfig;
use crate::ieee802154::Ieee802154Config;
use crate::shimmer::{CompressionKind, F_MCU_OPTIONS_MHZ};
use crate::units::Hertz;

// ---------------------------------------------------------------------
// Canonical case-study axes and their perfect indices
// ---------------------------------------------------------------------
//
// The DAC 2012 design space is small and fully enumerable: per-node
// picks are `(kind, CR, fµC)` drawn from fixed axes, MAC picks are
// `(payload, SFO, BCO)` from fixed axes. The batch kernels
// (`crate::soa`) and the scalar memo (`crate::evaluate`) exploit that
// by interning picks into *dense* tables indexed by a perfect index
// computed arithmetically from the pick — no hashing, no probing. The
// helpers below derive those indices and verify them **bitwise**
// against the canonical axis values, so two distinct `f64` bit patterns
// can never alias one table slot: a pick that is not bit-identical to a
// canonical value is *off-axis* (`None`) and takes the scalar path.

/// The canonical CR axis: 0.17..=0.38 in steps of 0.01 (§4.1). The
/// literals are bit-identical to `round(cr · 100) / 100` over the
/// paper's range — IEEE division is correctly rounded, so `k / 100.0`
/// *is* the nearest double to `0.k`, which is what the literal parses
/// to (asserted in this module's tests).
pub const CR_AXIS: [f64; 22] = [
    0.17, 0.18, 0.19, 0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29, 0.30, 0.31, 0.32,
    0.33, 0.34, 0.35, 0.36, 0.37, 0.38,
];

/// The canonical µC clock axis in Hz: `Hertz::from_mhz(m)` for the
/// platform options `m ∈ {1, 2, 4, 8}` (`m * 1e6` is exact for all
/// four, asserted in tests).
pub const F_MCU_AXIS_HZ: [f64; 4] = [1e6, 2e6, 4e6, 8e6];

/// The canonical packet payload axis (`Lpayload`, bytes).
pub const PAYLOAD_AXIS: [u16; 5] = [30, 50, 70, 90, 114];

/// Smallest superframe/beacon order on the canonical axis.
pub const ORDER_AXIS_MIN: u8 = 4;
/// Largest superframe/beacon order on the canonical axis.
pub const ORDER_AXIS_MAX: u8 = 9;
/// Levels per order axis (SFO and BCO each).
pub const ORDER_AXIS_LEVELS: usize = (ORDER_AXIS_MAX - ORDER_AXIS_MIN + 1) as usize;
/// Dense `(SFO, BCO)` pair slots — the full square, *including*
/// `SFO > BCO` pairs, so a MAC-validation error is representable (and
/// cacheable) like any other outcome.
pub const ORDER_PAIR_SLOTS: usize = ORDER_AXIS_LEVELS * ORDER_AXIS_LEVELS;

/// Application-kind levels ([`CompressionKind`] variants).
pub const KIND_AXIS_LEVELS: usize = 2;

/// Dense node-configuration slots: kind × CR level × fµC level (176 for
/// the case study) — the codomain of [`node_axis_index`].
pub const NODE_AXIS_SLOTS: usize = KIND_AXIS_LEVELS * CR_AXIS.len() * F_MCU_AXIS_HZ.len();

/// Level of `cr` on the canonical CR axis, or `None` when `cr` is not
/// bit-identical to a canonical value (off-axis, NaN, out of range).
#[inline]
#[must_use]
pub fn cr_axis_index(cr: f64) -> Option<usize> {
    let r = (cr * 100.0).round();
    if !(17.0..=38.0).contains(&r) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let level = (r as i64 - 17) as usize;
    (CR_AXIS[level].to_bits() == cr.to_bits()).then_some(level)
}

/// Level of `f` on the canonical µC clock axis (bitwise), or `None`.
#[inline]
#[must_use]
pub fn f_mcu_axis_index(f: Hertz) -> Option<usize> {
    let bits = f.value().to_bits();
    F_MCU_AXIS_HZ.iter().position(|c| c.to_bits() == bits)
}

/// Level of an application kind (total: every kind is on-axis).
#[inline]
#[must_use]
pub fn kind_axis_index(kind: CompressionKind) -> usize {
    match kind {
        CompressionKind::Dwt => 0,
        CompressionKind::Cs => 1,
    }
}

/// Perfect dense index of a `(kind, CR, fµC)` node pick in
/// `0..`[`NODE_AXIS_SLOTS`], or `None` when any component is off-axis.
#[inline]
#[must_use]
pub fn node_axis_index(kind: CompressionKind, cr: f64, f_mcu: Hertz) -> Option<usize> {
    let c = cr_axis_index(cr)?;
    let f = f_mcu_axis_index(f_mcu)?;
    Some((kind_axis_index(kind) * CR_AXIS.len() + c) * F_MCU_AXIS_HZ.len() + f)
}

/// Level of a payload size on the canonical axis, or `None`.
#[inline]
#[must_use]
pub fn payload_axis_index(payload_bytes: u16) -> Option<usize> {
    PAYLOAD_AXIS.iter().position(|&p| p == payload_bytes)
}

/// Perfect dense index of an `(SFO, BCO)` pair in
/// `0..`[`ORDER_PAIR_SLOTS`], or `None` when either order is outside
/// the canonical `4..=9` axis. `SFO > BCO` pairs are representable on
/// purpose — their validation error caches like any other entry.
#[inline]
#[must_use]
pub fn order_pair_axis_index(sfo: u8, bco: u8) -> Option<usize> {
    let on_axis = |o: u8| (ORDER_AXIS_MIN..=ORDER_AXIS_MAX).contains(&o);
    (on_axis(sfo) && on_axis(bco)).then(|| {
        usize::from(sfo - ORDER_AXIS_MIN) * ORDER_AXIS_LEVELS + usize::from(bco - ORDER_AXIS_MIN)
    })
}

/// Per-node configurations a [`NodeVec`] stores without heap allocation.
///
/// The paper's case study uses 6 nodes; 16 leaves room for the larger
/// deployments of the ward/team examples while keeping a `DesignPoint`
/// comfortably cache-resident (16 × 24 B inline payload).
pub const INLINE_NODES: usize = 16;

/// A small-vec of [`NodeConfig`]s: inline up to [`INLINE_NODES`]
/// entries, spilling to the heap beyond that.
///
/// Invariant: `len ≤ INLINE_NODES` ⇒ elements live in `inline` and
/// `spill` is empty; otherwise *all* elements live in `spill`.
#[derive(Debug)]
pub struct NodeVec {
    inline: [NodeConfig; INLINE_NODES],
    len: usize,
    spill: Vec<NodeConfig>,
}

impl NodeVec {
    /// Placeholder filling unused inline slots (`NodeConfig` is `Copy`,
    /// so the array needs a value; slots past `len` are never read).
    fn filler() -> NodeConfig {
        NodeConfig::new(CompressionKind::Dwt, 1.0, Hertz::from_mhz(1.0))
    }

    /// Creates an empty node vector (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self { inline: [Self::filler(); INLINE_NODES], len: 0, spill: Vec::new() }
    }

    /// Appends a node configuration, spilling to the heap past
    /// [`INLINE_NODES`] elements.
    pub fn push(&mut self, node: NodeConfig) {
        if self.len < INLINE_NODES {
            self.inline[self.len] = node;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(self.len + 1);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(node);
            self.len += 1;
        }
    }

    /// The stored configurations as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeConfig] {
        if self.len <= INLINE_NODES {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Mutable slice view.
    pub fn as_mut_slice(&mut self) -> &mut [NodeConfig] {
        if self.len <= INLINE_NODES {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl Clone for NodeVec {
    fn clone(&self) -> Self {
        Self { inline: self.inline, len: self.len, spill: self.spill.clone() }
    }

    /// Copies only the live configurations into `self`'s existing
    /// storage — the exhaustive sweep refills a reused point buffer this
    /// way, so a 2-node point costs two node copies, not sixteen.
    fn clone_from(&mut self, source: &Self) {
        if source.len <= INLINE_NODES {
            self.inline[..source.len].copy_from_slice(&source.inline[..source.len]);
            self.spill.clear();
        } else {
            self.spill.clone_from(&source.spill);
        }
        self.len = source.len;
    }
}

impl Default for NodeVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for NodeVec {
    type Target = [NodeConfig];

    fn deref(&self) -> &[NodeConfig] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for NodeVec {
    fn deref_mut(&mut self) -> &mut [NodeConfig] {
        self.as_mut_slice()
    }
}

/// Compares the stored slices (inline or spilled is irrelevant).
impl PartialEq for NodeVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl FromIterator<NodeConfig> for NodeVec {
    fn from_iter<I: IntoIterator<Item = NodeConfig>>(iter: I) -> Self {
        let mut v = Self::new();
        for node in iter {
            v.push(node);
        }
        v
    }
}

impl From<Vec<NodeConfig>> for NodeVec {
    fn from(nodes: Vec<NodeConfig>) -> Self {
        nodes.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a NodeVec {
    type Item = &'a NodeConfig;
    type IntoIter = std::slice::Iter<'a, NodeConfig>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A full design point: the paper's `(χmac, χnode(1..N))`.
#[derive(Debug, PartialEq)]
pub struct DesignPoint {
    /// MAC configuration.
    pub mac: Ieee802154Config,
    /// Per-node configurations (inline up to [`INLINE_NODES`] nodes).
    pub nodes: NodeVec,
}

impl Clone for DesignPoint {
    fn clone(&self) -> Self {
        Self { mac: self.mac, nodes: self.nodes.clone() }
    }

    /// Field-wise, so the node copy goes through [`NodeVec`]'s
    /// live-entries-only `clone_from`.
    fn clone_from(&mut self, source: &Self) {
        self.mac = source.mac;
        self.nodes.clone_from(&source.nodes);
    }
}

/// Digit significance of a mixed-radix enumeration over the pick
/// dimensions of [`DesignSpace::dimension_radices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigitOrder {
    /// First dimension (the payload) fastest: [`DesignSpace::point_at`]'s
    /// canonical order.
    FirstFastest,
    /// Last dimension (the final node's fµC) fastest: axis-major order,
    /// in which consecutive points share the MAC configuration and every
    /// node but the last for runs of `|CR| × |fµC|` points.
    LastFastest,
}

/// The discrete configuration space explored by the DSE.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Compression-ratio grid per node.
    pub cr_values: Vec<f64>,
    /// Microcontroller clock options per node.
    pub f_mcu_values: Vec<Hertz>,
    /// Packet payload options (`Lpayload`).
    pub payload_values: Vec<u16>,
    /// Legal `(SFO, BCO)` pairs.
    pub order_pairs: Vec<(u8, u8)>,
    /// Application of each node (fixed by the deployment).
    pub node_kinds: Vec<CompressionKind>,
}

impl DesignSpace {
    /// The paper's case study: 6 nodes (3 DWT + 3 CS), CR from 0.17 to
    /// 0.38 in steps of 0.01, `fµC` ∈ {1, 2, 4, 8} MHz, payloads from 30
    /// to 114 bytes, superframe/beacon orders from 4 to 9.
    ///
    /// ```
    /// use wbsn_model::space::DesignSpace;
    /// let space = DesignSpace::case_study(6);
    /// // "exceeds the tens of millions" (§4.1)
    /// assert!(space.cardinality() > 10_000_000);
    /// ```
    #[must_use]
    pub fn case_study(n_nodes: usize) -> Self {
        let mut order_pairs = Vec::new();
        for sfo in ORDER_AXIS_MIN..=ORDER_AXIS_MAX {
            for bco in sfo..=ORDER_AXIS_MAX {
                order_pairs.push((sfo, bco));
            }
        }
        let node_kinds = (0..n_nodes)
            .map(|i| if i < n_nodes / 2 { CompressionKind::Dwt } else { CompressionKind::Cs })
            .collect();
        // Axes come from the canonical tables, so every generated point
        // is on-axis for the dense-index interning of the batch kernels.
        Self {
            cr_values: CR_AXIS.to_vec(),
            f_mcu_values: F_MCU_OPTIONS_MHZ.iter().map(|&m| Hertz::from_mhz(m)).collect(),
            payload_values: PAYLOAD_AXIS.to_vec(),
            order_pairs,
            node_kinds,
        }
    }

    /// Number of nodes in the deployment.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_kinds.len()
    }

    /// Total number of configurations:
    /// `(|CR| · |fµC|)^N · |Lpayload| · |(SFO, BCO)|`, saturated at
    /// `u128::MAX`.
    ///
    /// The count outgrows `u128` from 19 case-study nodes on; such a
    /// space reports `u128::MAX`, so read the result as "at least this
    /// many". Saturating rather than wrapping keeps an enumeration limit
    /// check and [`DesignSpace::point_at`]'s index bound honest.
    #[must_use]
    pub fn cardinality(&self) -> u128 {
        let per_node = (self.cr_values.len() * self.f_mcu_values.len()) as u128;
        let nodes = u32::try_from(self.num_nodes()).unwrap_or(u32::MAX);
        per_node
            .saturating_pow(nodes)
            .saturating_mul(self.payload_values.len() as u128)
            .saturating_mul(self.order_pairs.len() as u128)
    }

    /// Materializes a design point from index choices.
    ///
    /// `pick` is called with the size of each dimension and must return an
    /// index below it; passing a uniform sampler yields a uniform random
    /// point. Keeping the sampler abstract avoids coupling the model crate
    /// to an RNG implementation.
    ///
    /// # Panics
    ///
    /// Panics if `pick` returns an out-of-range index.
    pub fn point_with(&self, mut pick: impl FnMut(usize) -> usize) -> DesignPoint {
        let checked = |idx: usize, len: usize, dim: &str| {
            assert!(idx < len, "pick returned {idx} for dimension `{dim}` of size {len}");
            idx
        };
        let payload = self.payload_values
            [checked(pick(self.payload_values.len()), self.payload_values.len(), "payload")];
        let (sfo, bco) = self.order_pairs
            [checked(pick(self.order_pairs.len()), self.order_pairs.len(), "orders")];
        let mut nodes = NodeVec::new();
        for &kind in &self.node_kinds {
            let cr =
                self.cr_values[checked(pick(self.cr_values.len()), self.cr_values.len(), "cr")];
            let f = self.f_mcu_values
                [checked(pick(self.f_mcu_values.len()), self.f_mcu_values.len(), "f_mcu")];
            nodes.push(NodeConfig::new(kind, cr, f));
        }
        DesignPoint {
            mac: Ieee802154Config {
                payload_bytes: payload,
                sfo,
                bco,
                beacon_payload_bytes: 0,
                acknowledged: true,
            },
            nodes,
        }
    }

    /// The size of every pick dimension, in the order
    /// [`DesignSpace::point_with`] consumes them: payload, (SFO, BCO)
    /// pair, then `(CR, fµC)` per node.
    #[must_use]
    pub fn dimension_radices(&self) -> Vec<usize> {
        (0..2 + 2 * self.num_nodes()).map(|dim| self.radix(dim)).collect()
    }

    /// Size of pick dimension `dim` (see [`DesignSpace::dimension_radices`]).
    fn radix(&self, dim: usize) -> usize {
        match dim {
            0 => self.payload_values.len(),
            1 => self.order_pairs.len(),
            d if d % 2 == 0 => self.cr_values.len(),
            _ => self.f_mcu_values.len(),
        }
    }

    /// Writes pick `digit` of dimension `dim` into `point`, leaving every
    /// other field alone.
    fn write_pick(&self, point: &mut DesignPoint, dim: usize, digit: usize) {
        match dim {
            0 => point.mac.payload_bytes = self.payload_values[digit],
            1 => (point.mac.sfo, point.mac.bco) = self.order_pairs[digit],
            d if d % 2 == 0 => point.nodes[d / 2 - 1].cr = self.cr_values[digit],
            d => point.nodes[d / 2 - 1].f_mcu = self.f_mcu_values[digit],
        }
    }

    /// Odometer step: moves `point` in place to the next index of the
    /// mixed-radix enumeration in `order`.
    ///
    /// `digits` holds `point`'s pick digits, one per dimension in
    /// [`DesignSpace::dimension_radices`] order; start from all zeros
    /// with `point_at(0)`. A step is a carry chain — no division — and
    /// rewrites only the fields whose digit changed, so a sequential
    /// sweep pays for the one or two picks that roll rather than for a
    /// full decode. Returns `false` when the step wrapped from the last
    /// index back to index 0.
    pub fn step_point(
        &self,
        point: &mut DesignPoint,
        digits: &mut [usize],
        order: DigitOrder,
    ) -> bool {
        let dims = digits.len();
        for k in 0..dims {
            let dim = match order {
                DigitOrder::FirstFastest => k,
                DigitOrder::LastFastest => dims - 1 - k,
            };
            let next = digits[dim] + 1;
            let carry = next == self.radix(dim);
            digits[dim] = if carry { 0 } else { next };
            self.write_pick(point, dim, digits[dim]);
            if !carry {
                return true;
            }
        }
        false
    }

    /// Materializes the `index`-th design point of the mixed-radix
    /// enumeration (first dimension fastest-varying — the same order a
    /// digit-odometer over [`DesignSpace::point_with`] produces).
    ///
    /// A linear index makes exhaustive enumeration embarrassingly
    /// parallel: any sub-range of `0..cardinality()` can be decoded
    /// independently.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ cardinality()`.
    #[must_use]
    pub fn point_at(&self, index: u128) -> DesignPoint {
        assert!(
            index < self.cardinality(),
            "index {index} out of range for a space of {} points",
            self.cardinality()
        );
        let mut rem = index;
        self.point_with(|n| {
            let digit = (rem % n as u128) as usize;
            rem /= n as u128;
            digit
        })
    }

    /// Deterministic pseudo-random sweep of `count` design points mixing
    /// feasible and infeasible regions — the shared workload generator
    /// for throughput benches and batch-evaluation tests (an LCG index
    /// scramble, so no RNG dependency and identical points everywhere
    /// it is used).
    #[must_use]
    pub fn sample_sweep(&self, count: usize) -> Vec<DesignPoint> {
        let mut k = 0usize;
        (0..count)
            .map(|i| {
                self.point_with(|dim| {
                    k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i + dim);
                    k % dim.max(1)
                })
            })
            .collect()
    }

    /// Enumerates every MAC configuration of the space (the per-node
    /// dimensions usually make full enumeration intractable; this iterator
    /// covers the tractable global part).
    pub fn mac_configs(&self) -> impl Iterator<Item = Ieee802154Config> + '_ {
        self.payload_values.iter().flat_map(move |&payload| {
            self.order_pairs.iter().map(move |&(sfo, bco)| Ieee802154Config {
                payload_bytes: payload,
                sfo,
                bco,
                beacon_payload_bytes: 0,
                acknowledged: true,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shimmer::{CR_MAX, CR_MIN};

    /// The literal axis tables must be bit-identical to the values the
    /// rest of the model computes: `CR_AXIS` to `round(cr·100)/100`
    /// over the paper's range (the expression the CR grid historically
    /// used) and `F_MCU_AXIS_HZ` to `Hertz::from_mhz` of the platform
    /// options. A mismatch would silently split one configuration
    /// across a dense slot and the scalar spill path.
    #[test]
    fn axis_tables_are_bit_identical_to_computed_values() {
        for (level, &canon) in CR_AXIS.iter().enumerate() {
            let computed = (17.0 + level as f64).round() / 100.0;
            assert_eq!(canon.to_bits(), computed.to_bits(), "CR level {level}");
        }
        // The historical accumulating generator (cr += 0.01, snapped to
        // two decimals) produces the same bits.
        let mut cr = CR_MIN;
        let mut accumulated = Vec::new();
        while cr <= CR_MAX + 1e-9 {
            accumulated.push((cr * 100.0).round() / 100.0);
            cr += 0.01;
        }
        assert_eq!(accumulated.len(), CR_AXIS.len());
        for (a, c) in accumulated.iter().zip(&CR_AXIS) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
        for (level, &m) in F_MCU_OPTIONS_MHZ.iter().enumerate() {
            assert_eq!(
                F_MCU_AXIS_HZ[level].to_bits(),
                Hertz::from_mhz(m).value().to_bits(),
                "fµC level {level}"
            );
        }
    }

    /// Every axis value of the case-study space must resolve to its own
    /// dense index (round trip), and near misses must be rejected.
    #[test]
    fn axis_indices_round_trip_and_reject_off_axis_picks() {
        let space = DesignSpace::case_study(6);
        for (i, &cr) in space.cr_values.iter().enumerate() {
            assert_eq!(cr_axis_index(cr), Some(i), "cr {cr}");
            // One ulp off is off-axis.
            assert_eq!(cr_axis_index(f64::from_bits(cr.to_bits() + 1)), None);
        }
        for (i, &f) in space.f_mcu_values.iter().enumerate() {
            assert_eq!(f_mcu_axis_index(f), Some(i), "f {f:?}");
        }
        for (i, &p) in space.payload_values.iter().enumerate() {
            assert_eq!(payload_axis_index(p), Some(i), "payload {p}");
        }
        for &(sfo, bco) in &space.order_pairs {
            let slot = order_pair_axis_index(sfo, bco).expect("case-study pair on axis");
            assert!(slot < ORDER_PAIR_SLOTS);
        }
        // Composed node indices are injective over the whole axis grid.
        let mut seen = [false; NODE_AXIS_SLOTS];
        for kind in [CompressionKind::Dwt, CompressionKind::Cs] {
            for &cr in &space.cr_values {
                for &f in &space.f_mcu_values {
                    let slot = node_axis_index(kind, cr, f).expect("on-axis");
                    assert!(!seen[slot], "slot {slot} aliased");
                    seen[slot] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "axis grid must fill every dense slot");
        // Off-axis rejections: accumulated drift, out-of-range values,
        // NaN, off-axis MAC shapes.
        assert_eq!(cr_axis_index(0.17 + 0.01), None, "accumulated 0.18 is off-axis bits");
        assert_eq!(cr_axis_index(0.0), None);
        assert_eq!(cr_axis_index(-0.25), None);
        assert_eq!(cr_axis_index(1.5), None);
        assert_eq!(cr_axis_index(f64::NAN), None);
        assert_eq!(f_mcu_axis_index(Hertz::from_mhz(3.0)), None);
        assert_eq!(payload_axis_index(0), None);
        assert_eq!(payload_axis_index(120), None);
        assert_eq!(order_pair_axis_index(3, 5), None);
        assert_eq!(order_pair_axis_index(4, 10), None);
        // SFO > BCO within the axis IS representable (validation errors
        // are cacheable).
        assert!(order_pair_axis_index(9, 4).is_some());
    }

    #[test]
    fn case_study_cardinality_exceeds_tens_of_millions() {
        let space = DesignSpace::case_study(6);
        assert!(space.cardinality() > 10_000_000, "got {}", space.cardinality());
    }

    /// Counts past `u128` saturate instead of wrapping (which made
    /// `case_study(24)` report fewer points than `case_study(19)`).
    #[test]
    fn cardinality_saturates_instead_of_wrapping() {
        assert_eq!(DesignSpace::case_study(18).cardinality(), 88u128.pow(18) * 105);
        assert_eq!(DesignSpace::case_study(19).cardinality(), u128::MAX);
        assert_eq!(DesignSpace::case_study(24).cardinality(), u128::MAX);
        let mut empty = DesignSpace::case_study(24);
        empty.payload_values.clear();
        assert_eq!(empty.cardinality(), 0, "an empty axis empties the space");
    }

    #[test]
    fn cr_grid_covers_paper_range() {
        let space = DesignSpace::case_study(6);
        assert_eq!(space.cr_values.first().copied(), Some(0.17));
        assert_eq!(space.cr_values.last().copied(), Some(0.38));
        assert_eq!(space.cr_values.len(), 22);
    }

    #[test]
    fn order_pairs_respect_sfo_le_bco() {
        let space = DesignSpace::case_study(6);
        assert!(space.order_pairs.iter().all(|&(sfo, bco)| sfo <= bco));
    }

    #[test]
    fn deterministic_pick_yields_first_point() {
        let space = DesignSpace::case_study(4);
        let point = space.point_with(|_| 0);
        assert_eq!(point.mac.payload_bytes, 30);
        assert_eq!(point.mac.sfo, 4);
        assert_eq!(point.nodes.len(), 4);
        assert_eq!(point.nodes[0].cr, 0.17);
        point.mac.validate().expect("generated configs are valid");
    }

    #[test]
    fn picks_address_every_dimension() {
        let space = DesignSpace::case_study(2);
        let mut sizes = Vec::new();
        let _ = space.point_with(|n| {
            sizes.push(n);
            n - 1 // always pick the last element
        });
        // payload, orders, then (cr, f) per node.
        assert_eq!(sizes.len(), 2 + 2 * 2);
        let point = space.point_with(|n| n - 1);
        assert_eq!(point.mac.payload_bytes, 114);
        assert_eq!(point.nodes[1].cr, 0.38);
    }

    #[test]
    #[should_panic(expected = "pick returned")]
    fn out_of_range_pick_panics() {
        let space = DesignSpace::case_study(2);
        let _ = space.point_with(|n| n);
    }

    #[test]
    fn point_at_covers_corners_and_matches_point_with() {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.25];
        space.f_mcu_values = vec![Hertz::from_mhz(4.0), Hertz::from_mhz(8.0)];
        space.payload_values = vec![70, 114];
        space.order_pairs = vec![(5, 5), (6, 6)];
        assert_eq!(space.point_at(0), space.point_with(|_| 0));
        let last = space.cardinality() - 1;
        assert_eq!(space.point_at(last), space.point_with(|n| n - 1));
        // First dimension (payload) varies fastest.
        assert_eq!(space.point_at(1).mac.payload_bytes, 114);
        assert_eq!(space.point_at(1).nodes, space.point_at(0).nodes);
    }

    #[test]
    fn dimension_radices_match_point_with_dry_run() {
        let space = DesignSpace::case_study(3);
        let mut observed = Vec::new();
        let _ = space.point_with(|n| {
            observed.push(n);
            0
        });
        assert_eq!(space.dimension_radices(), observed);
        let product: u128 = space.dimension_radices().iter().map(|&n| n as u128).product();
        assert_eq!(product, space.cardinality());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_at_rejects_out_of_range_index() {
        let mut space = DesignSpace::case_study(1);
        space.cr_values = vec![0.2];
        space.f_mcu_values = vec![Hertz::from_mhz(8.0)];
        space.payload_values = vec![114];
        space.order_pairs = vec![(6, 6)];
        let _ = space.point_at(space.cardinality());
    }

    #[test]
    fn mac_config_enumeration_size() {
        let space = DesignSpace::case_study(6);
        let count = space.mac_configs().count();
        assert_eq!(count, space.payload_values.len() * space.order_pairs.len());
        for cfg in space.mac_configs() {
            cfg.validate().expect("enumerated configs are valid");
        }
    }

    #[test]
    fn node_vec_spills_transparently_past_inline_capacity() {
        let reference: Vec<NodeConfig> = (0..INLINE_NODES + 5)
            .map(|i| {
                NodeConfig::new(
                    if i % 2 == 0 { CompressionKind::Dwt } else { CompressionKind::Cs },
                    0.17 + 0.01 * i as f64,
                    Hertz::from_mhz(4.0),
                )
            })
            .collect();
        let mut small = NodeVec::new();
        for (i, n) in reference.iter().enumerate() {
            small.push(*n);
            assert_eq!(small.len(), i + 1);
            assert_eq!(&small[..], &reference[..=i], "slice mismatch after push {i}");
        }
        // Collect and From<Vec> agree with push-by-push construction.
        let collected: NodeVec = reference.iter().copied().collect();
        assert_eq!(collected, small);
        assert_eq!(NodeVec::from(reference.clone()), small);
        // Equality is slice-based: an inline vec equals a spilled prefix.
        let short: NodeVec = reference[..3].iter().copied().collect();
        assert_eq!(&short[..], &reference[..3]);
        assert_ne!(short, small);
    }

    /// `clone_from` reuses the destination's storage but must leave the
    /// same value as `clone`, across inline/spilled shape changes.
    #[test]
    fn clone_from_equals_clone_across_shapes() {
        let narrow = DesignSpace::case_study(2).point_with(|n| n - 1);
        let wide = DesignSpace::case_study(INLINE_NODES + 3).point_with(|_| 0);
        for (mut dst, src) in [
            (wide.clone(), narrow.clone()),
            (narrow.clone(), wide.clone()),
            (narrow.clone(), DesignSpace::case_study(2).point_with(|_| 0)),
        ] {
            dst.clone_from(&src);
            assert_eq!(dst, src);
            assert_eq!(dst.nodes.len(), src.nodes.len());
        }
    }

    #[test]
    fn node_vec_mutation_via_deref() {
        let mut nodes: NodeVec = DesignSpace::case_study(4).point_with(|_| 0).nodes;
        nodes[2].cr = 0.99;
        assert_eq!(nodes[2].cr, 0.99);
        assert_eq!(nodes.iter().count(), 4);
        assert!(NodeVec::default().is_empty());
    }

    #[test]
    fn large_deployments_decode_past_inline_capacity() {
        let space = DesignSpace::case_study(INLINE_NODES + 4);
        let point = space.point_with(|n| n - 1);
        assert_eq!(point.nodes.len(), INLINE_NODES + 4);
        assert!(point.nodes.iter().all(|n| n.cr == 0.38));
        assert_eq!(point, point.clone());
    }

    #[test]
    fn kinds_split_half() {
        let space = DesignSpace::case_study(6);
        let dwt = space.node_kinds.iter().filter(|&&k| k == CompressionKind::Dwt).count();
        assert_eq!(dwt, 3);
    }
}
