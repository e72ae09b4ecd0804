//! Objective vectors and Pareto dominance (all objectives minimized).
//!
//! # Inline representation
//!
//! [`ObjectiveVector`] stores its values inline as a fixed-capacity
//! `[f64; MAX_OBJECTIVES]` plus an active length — no heap allocation,
//! ever. The type is `Copy`, so the clones scattered through fast
//! non-dominated sorting, crowding and archive insertion are register
//! moves instead of `Vec` allocations (the search loops clone objective
//! vectors millions of times per run).
//!
//! The capacity limit is [`MAX_OBJECTIVES`] (currently 4): enough for the
//! paper's three objectives (energy, delay, PRD) plus one extension axis
//! (e.g. lifetime or reliability à la Xu et al.). Constructing a longer
//! vector panics — widen `MAX_OBJECTIVES` if a workload ever needs it.
//!
//! Construction zero-fills the inactive tail, and nothing writes the
//! values afterwards. [`ObjectiveVector::compare`] relies on that: it
//! compares all `MAX_OBJECTIVES` lanes without branching on the length,
//! and two zero tails tie, so every dominance test of the crate (NSGA-II
//! ranking, archive inserts, MOSA acceptance) costs the same at two,
//! three or four objectives.
//!
//! # Value policy
//!
//! `NaN` is rejected at construction (dominance would be ill-defined).
//! Non-finite `±∞` values are *accepted deliberately*: the searchers
//! encode infeasible configurations as all-`+∞` vectors, which dominance
//! pushes to the last fronts automatically (see `nsga2`).

use std::fmt;

/// Maximum number of objectives an [`ObjectiveVector`] can hold inline.
pub const MAX_OBJECTIVES: usize = 4;

/// Which objective projection an evaluator lane computes.
///
/// Every variant maps to one concrete evaluator (see
/// `wbsn_dse::evaluator`) and one memo lane in the serve engine, so the
/// enum is the single place the repertoire of projections is spelled
/// out. All projections are minimized on every axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objectives {
    /// The paper's three objectives: energy, delay, PRD.
    #[default]
    EnergyDelayPrd,
    /// The state-of-the-art baseline: energy and delay only.
    EnergyDelay,
    /// The paper's three objectives plus a battery-lifetime axis
    /// (negated days on the Shimmer battery, so smaller is better like
    /// every other axis). The first three components are bit-identical
    /// to [`Objectives::EnergyDelayPrd`]; disabling the lane recovers
    /// the three-objective projection exactly.
    EnergyDelayPrdLifetime,
}

impl Objectives {
    /// Every projection, in lane order (see [`Objectives::lane`]).
    pub const ALL: [Self; 3] =
        [Self::EnergyDelayPrd, Self::EnergyDelay, Self::EnergyDelayPrdLifetime];

    /// Number of objective values the projection produces.
    #[must_use]
    pub const fn num_objectives(self) -> usize {
        match self {
            Self::EnergyDelayPrd => 3,
            Self::EnergyDelay => 2,
            Self::EnergyDelayPrdLifetime => 4,
        }
    }

    /// Stable dense index of the projection (memo/evaluator lane
    /// selection; outcomes of different projections have different
    /// shapes and must never mix).
    #[must_use]
    pub const fn lane(self) -> usize {
        match self {
            Self::EnergyDelayPrd => 0,
            Self::EnergyDelay => 1,
            Self::EnergyDelayPrdLifetime => 2,
        }
    }
}

/// Relation between two objective vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// Left dominates right (≤ everywhere, < somewhere).
    Dominates,
    /// Left is dominated by right.
    DominatedBy,
    /// Neither dominates (the interesting Pareto case).
    Incomparable,
    /// Identical vectors.
    Equal,
}

/// A point in objective space; smaller is better on every axis.
///
/// Values live inline (`[f64; MAX_OBJECTIVES]` + length), so the type is
/// `Copy` and never touches the heap; see the module docs for the
/// capacity and non-finite-value policy.
///
/// ```
/// use wbsn_dse::objective::{Dominance, ObjectiveVector};
/// let a = ObjectiveVector::new(vec![1.0, 2.0]);
/// let b = ObjectiveVector::from_slice(&[2.0, 3.0]);
/// assert_eq!(a.compare(&b), Dominance::Dominates);
/// assert!(a.dominates(&b));
/// ```
#[derive(Clone, Copy)]
pub struct ObjectiveVector {
    values: [f64; MAX_OBJECTIVES],
    len: u8,
}

impl ObjectiveVector {
    /// Wraps raw objective values (allocating caller-side only; prefer
    /// [`ObjectiveVector::from_slice`] in hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, longer than [`MAX_OBJECTIVES`] or
    /// contains NaN. `±∞` is accepted (infeasibility encoding).
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // keeps the historical Vec-based signature
    pub fn new(values: Vec<f64>) -> Self {
        Self::from_slice(&values)
    }

    /// Builds an objective vector from a slice without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, longer than [`MAX_OBJECTIVES`] or
    /// contains NaN. `±∞` is accepted (infeasibility encoding).
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "objective vector cannot be empty");
        assert!(
            values.len() <= MAX_OBJECTIVES,
            "objective vector holds at most {MAX_OBJECTIVES} values, got {}",
            values.len()
        );
        assert!(values.iter().all(|v| !v.is_nan()), "objectives must not be NaN");
        let mut inline = [0.0; MAX_OBJECTIVES];
        inline[..values.len()].copy_from_slice(values);
        Self {
            values: inline,
            len: u8::try_from(values.len()).expect("len bounded by MAX_OBJECTIVES"),
        }
    }

    /// The raw values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }

    /// Number of objectives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no values — derived from [`len`]
    /// (always `false` in practice: construction forbids empty vectors).
    ///
    /// [`len`]: ObjectiveVector::len
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pareto comparison.
    ///
    /// Folds `a < b` and `a > b` over all [`MAX_OBJECTIVES`] inline lanes
    /// with no data-dependent branch: the inactive tail is zero on both
    /// sides (see the module docs), so it never sets either flag.
    ///
    /// # Panics
    ///
    /// Panics when vectors have different dimensionality.
    #[must_use]
    pub fn compare(&self, other: &Self) -> Dominance {
        assert_eq!(self.len, other.len, "objective dimensionality mismatch");
        let mut better = false;
        let mut worse = false;
        for (a, b) in self.values.iter().zip(&other.values) {
            better |= a < b;
            worse |= a > b;
        }
        match (better, worse) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Equal,
            (true, true) => Dominance::Incomparable,
        }
    }

    /// `true` when `self` strictly dominates `other`.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        self.compare(other) == Dominance::Dominates
    }

    /// `true` when `self` dominates or equals `other`.
    #[must_use]
    pub fn weakly_dominates(&self, other: &Self) -> bool {
        matches!(self.compare(other), Dominance::Dominates | Dominance::Equal)
    }
}

/// Compares only the active values (the unused tail of the inline array
/// is ignored).
impl PartialEq for ObjectiveVector {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

/// Shows only the active values, like the old `Vec`-backed tuple struct.
impl fmt::Debug for ObjectiveVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObjectiveVector").field(&self.values()).finish()
    }
}

impl fmt::Display for ObjectiveVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(v: &[f64]) -> ObjectiveVector {
        ObjectiveVector::new(v.to_vec())
    }

    #[test]
    fn dominance_cases() {
        assert_eq!(ov(&[1.0, 1.0]).compare(&ov(&[2.0, 2.0])), Dominance::Dominates);
        assert_eq!(ov(&[2.0, 2.0]).compare(&ov(&[1.0, 1.0])), Dominance::DominatedBy);
        assert_eq!(ov(&[1.0, 2.0]).compare(&ov(&[2.0, 1.0])), Dominance::Incomparable);
        assert_eq!(ov(&[1.0, 2.0]).compare(&ov(&[1.0, 2.0])), Dominance::Equal);
        // Weak dominance: equal on one axis, better on the other.
        assert_eq!(ov(&[1.0, 1.0]).compare(&ov(&[1.0, 2.0])), Dominance::Dominates);
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let a = ov(&[1.0, 2.0, 3.0]);
        assert!(!a.dominates(&a));
        assert!(a.weakly_dominates(&a));
        let b = ov(&[2.0, 3.0, 4.0]);
        assert!(a.dominates(&b) && !b.dominates(&a));
    }

    #[test]
    fn dominance_is_transitive() {
        let a = ov(&[1.0, 1.0]);
        let b = ov(&[2.0, 2.0]);
        let c = ov(&[3.0, 3.0]);
        assert!(a.dominates(&b) && b.dominates(&c) && a.dominates(&c));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_lengths_panic() {
        let _ = ov(&[1.0]).compare(&ov(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        let _ = ov(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn over_capacity_rejected() {
        let _ = ov(&[1.0; MAX_OBJECTIVES + 1]);
    }

    #[test]
    fn capacity_boundary_accepted() {
        let v = ov(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.len(), MAX_OBJECTIVES);
        assert_eq!(v.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn infinity_is_dominated() {
        // Infeasible points encoded as +∞ are dominated by any feasible.
        assert!(ov(&[1.0, 1.0]).dominates(&ov(&[f64::INFINITY, f64::INFINITY])));
    }

    #[test]
    fn from_slice_equals_new() {
        let a = ObjectiveVector::from_slice(&[1.0, 2.0, 3.0]);
        let b = ObjectiveVector::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn equality_ignores_inactive_tail() {
        // Same active prefix, different lengths: never equal.
        assert_ne!(ov(&[1.0, 2.0]), ov(&[1.0, 2.0, 0.0]));
        assert_eq!(ov(&[1.0, 2.0]), ov(&[1.0, 2.0]));
    }

    #[test]
    #[allow(clippy::len_zero)] // the point is exactly that is_empty mirrors len()
    fn is_empty_derives_from_len() {
        let v = ov(&[1.0]);
        assert_eq!(v.is_empty(), v.len() == 0, "is_empty must mirror len()");
        assert!(!v.is_empty());
    }

    #[test]
    fn copy_semantics_preserve_values() {
        let a = ov(&[1.0, 2.0, 3.0]);
        let b = a; // Copy, not move
        assert_eq!(a, b);
        assert_eq!(a.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", ov(&[1.0, 2.5])), "(1.0000, 2.5000)");
    }

    #[test]
    fn debug_shows_active_prefix_only() {
        assert_eq!(format!("{:?}", ov(&[1.0, 2.0])), "ObjectiveVector([1.0, 2.0])");
    }

    #[test]
    fn objectives_lanes_are_dense_and_distinct() {
        for (i, o) in Objectives::ALL.iter().enumerate() {
            assert_eq!(o.lane(), i, "ALL must be listed in lane order");
            assert!(o.num_objectives() <= MAX_OBJECTIVES);
        }
        assert_eq!(Objectives::default(), Objectives::EnergyDelayPrd);
        assert_eq!(Objectives::EnergyDelayPrdLifetime.num_objectives(), 4);
    }
}
