//! Non-dominated archive: the running Pareto set of a search.

use crate::objective::ObjectiveVector;

/// An entry of the archive: objectives plus an arbitrary payload (the
/// design point that produced them).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry<T> {
    /// Objective values.
    pub objectives: ObjectiveVector,
    /// The design point (or any payload).
    pub payload: T,
}

/// A Pareto archive: keeps only mutually non-dominated entries.
///
/// ```
/// use wbsn_dse::objective::ObjectiveVector;
/// use wbsn_dse::pareto::ParetoArchive;
///
/// let mut archive = ParetoArchive::new();
/// assert!(archive.insert(ObjectiveVector::new(vec![2.0, 2.0]), "a"));
/// assert!(archive.insert(ObjectiveVector::new(vec![1.0, 3.0]), "b"));
/// // Dominated by "a": rejected.
/// assert!(!archive.insert(ObjectiveVector::new(vec![3.0, 3.0]), "c"));
/// // Dominates "a": replaces it.
/// assert!(archive.insert(ObjectiveVector::new(vec![1.5, 1.5]), "d"));
/// assert_eq!(archive.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoArchive<T> {
    entries: Vec<ArchiveEntry<T>>,
}

impl<T> ParetoArchive<T> {
    /// Creates an empty archive.
    #[must_use]
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Attempts to insert a point. Returns `true` when the point enters
    /// the archive (it was not weakly dominated); dominated incumbents
    /// are evicted.
    pub fn insert(&mut self, objectives: ObjectiveVector, payload: T) -> bool {
        self.insert_with(objectives, || payload).is_ok()
    }

    /// [`ParetoArchive::insert`] with a lazily built payload: `payload`
    /// runs only when the candidate enters. A rejected candidate leaves
    /// the archive untouched and returns the incumbent that weakly
    /// dominates it.
    ///
    /// Single scan: each incumbent is compared to the candidate exactly
    /// once, deciding rejection *and* eviction — inserts run inside every
    /// search loop, so the former reject-scan + `retain` double pass was
    /// measurable at O(front²) per generation. Soundness of the early
    /// return: incumbents are mutually non-dominated, so if any incumbent
    /// weakly dominates the candidate, no incumbent can be dominated *by*
    /// the candidate (transitivity would make that incumbent dominated by
    /// the weak dominator) — rejection can never race an eviction.
    pub(crate) fn insert_with(
        &mut self,
        objectives: ObjectiveVector,
        payload: impl FnOnce() -> T,
    ) -> Result<(), ObjectiveVector> {
        use crate::objective::Dominance;
        let mut write = 0;
        for read in 0..self.entries.len() {
            match self.entries[read].objectives.compare(&objectives) {
                Dominance::Dominates | Dominance::Equal => {
                    debug_assert_eq!(write, read, "eviction cannot precede rejection");
                    return Err(self.entries[read].objectives);
                }
                Dominance::DominatedBy => {} // evicted: not copied forward
                Dominance::Incomparable => {
                    self.entries.swap(write, read);
                    write += 1;
                }
            }
        }
        self.entries.truncate(write);
        self.entries.push(ArchiveEntry { objectives, payload: payload() });
        Ok(())
    }

    /// Inserts every entry of `other`, in order. The result equals
    /// replaying the two insertion sequences back-to-back, which makes
    /// chunk-local archives of a partitioned search mergeable
    /// deterministically.
    pub fn merge(&mut self, other: Self) {
        for entry in other.entries {
            self.insert(entry.objectives, entry.payload);
        }
    }

    /// Number of non-dominated entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries.
    #[must_use]
    pub fn entries(&self) -> &[ArchiveEntry<T>] {
        &self.entries
    }

    /// Iterates over the objective vectors of the front.
    pub fn objectives(&self) -> impl Iterator<Item = &ObjectiveVector> {
        self.entries.iter().map(|e| &e.objectives)
    }

    /// Consumes the archive, returning its entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<ArchiveEntry<T>> {
        self.entries
    }
}

impl<T> Default for ParetoArchive<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pre-filter for one long stream of inserts into one archive (the
/// exhaustive sweep's): remembers the last incumbent that rejected a
/// candidate and drops every later candidate it weakly dominates
/// without scanning the archive.
///
/// Exact: an incumbent is only evicted by a candidate that dominates
/// it, and that candidate stays in the archive until something
/// dominating it arrives, so every vector that was ever in the archive
/// is weakly dominated by a current incumbent. A candidate the
/// remembered rejector weakly dominates is one [`ParetoArchive::insert`]
/// would reject without changing anything — the rejector need not still
/// be in the archive.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RejectFilter(Option<ObjectiveVector>);

impl RejectFilter {
    /// Same outcome and archive state as
    /// `archive.insert(objectives, payload())`, with `payload` built only
    /// on acceptance. `archive` must be the one every earlier call of
    /// this filter inserted into.
    pub(crate) fn insert<T>(
        &mut self,
        archive: &mut ParetoArchive<T>,
        objectives: ObjectiveVector,
        payload: impl FnOnce() -> T,
    ) -> bool {
        if self.0.is_some_and(|rejector| rejector.weakly_dominates(&objectives)) {
            return false;
        }
        match archive.insert_with(objectives, payload) {
            Ok(()) => true,
            Err(rejector) => {
                self.0 = Some(rejector);
                false
            }
        }
    }
}

/// Extracts the non-dominated subset of a list of objective vectors,
/// returning their indices.
#[must_use]
pub fn non_dominated_indices(points: &[ObjectiveVector]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points.iter().enumerate().any(|(j, other)| {
                j != i && (other.dominates(&points[i]) || (other == &points[i] && j < i))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(v: &[f64]) -> ObjectiveVector {
        ObjectiveVector::new(v.to_vec())
    }

    #[test]
    fn archive_never_holds_dominated_pairs() {
        let mut archive = ParetoArchive::new();
        let pts = [
            [3.0, 1.0],
            [1.0, 3.0],
            [2.0, 2.0],
            [2.5, 2.5], // dominated
            [0.5, 4.0],
            [2.0, 2.0], // duplicate
        ];
        for (i, p) in pts.iter().enumerate() {
            archive.insert(ov(p), i);
        }
        for a in archive.objectives() {
            for b in archive.objectives() {
                assert!(!a.dominates(b), "{a} dominates {b} inside the archive");
            }
        }
        assert_eq!(archive.len(), 4);
    }

    #[test]
    fn duplicates_rejected() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(ov(&[1.0, 1.0]), ()));
        assert!(!archive.insert(ov(&[1.0, 1.0]), ()));
        assert_eq!(archive.len(), 1);
    }

    #[test]
    fn dominating_insert_evicts_multiple() {
        let mut archive = ParetoArchive::new();
        archive.insert(ov(&[5.0, 1.0]), "a");
        archive.insert(ov(&[1.0, 5.0]), "b");
        archive.insert(ov(&[3.0, 3.0]), "c");
        // Dominates everything: archive collapses to one entry.
        assert!(archive.insert(ov(&[0.5, 0.5]), "king"));
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.entries()[0].payload, "king");
    }

    #[test]
    fn non_dominated_indices_basic() {
        let pts = vec![ov(&[1.0, 4.0]), ov(&[2.0, 2.0]), ov(&[4.0, 1.0]), ov(&[3.0, 3.0])];
        assert_eq!(non_dominated_indices(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn non_dominated_keeps_first_duplicate() {
        let pts = vec![ov(&[1.0, 1.0]), ov(&[1.0, 1.0])];
        assert_eq!(non_dominated_indices(&pts), vec![0]);
    }

    #[test]
    fn insert_matches_two_pass_reference() {
        // Deterministic pseudo-random stream of small integer points:
        // plenty of dominance, equality and eviction cases.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            f64::from((state >> 33) as u32 % 8)
        };
        let mut fast = ParetoArchive::new();
        let mut slow: Vec<ArchiveEntry<usize>> = Vec::new();
        // The stream filter must match too, including when its cached
        // rejector has since been evicted.
        let mut filtered = ParetoArchive::new();
        let mut filter = RejectFilter::default();
        let (mut payloads_built, mut acceptances, mut evicted_rejector_hits) = (0, 0, 0);
        for i in 0..500 {
            let p = ov(&[next(), next(), next()]);
            let accepted_fast = fast.insert(p, i);
            if filter.0.is_some_and(|r| {
                r.weakly_dominates(&p) && !filtered.objectives().any(|o: &ObjectiveVector| *o == r)
            }) {
                evicted_rejector_hits += 1;
            }
            let accepted_filtered = filter.insert(&mut filtered, p, || {
                payloads_built += 1;
                i
            });
            assert_eq!(accepted_filtered, accepted_fast, "filtered insert #{i}");
            acceptances += usize::from(accepted_fast);
            assert_eq!(filtered.entries(), fast.entries(), "filtered insert #{i}");
            // Reference: the original reject-scan + retain double pass.
            let accepted_slow = if slow.iter().any(|e| e.objectives.weakly_dominates(&p)) {
                false
            } else {
                slow.retain(|e| !p.dominates(&e.objectives));
                slow.push(ArchiveEntry { objectives: p, payload: i });
                true
            };
            assert_eq!(accepted_fast, accepted_slow, "insert #{i}");
            assert_eq!(fast.len(), slow.len(), "insert #{i}");
            for (a, b) in fast.entries().iter().zip(&slow) {
                assert_eq!(a, b, "insert #{i}");
            }
        }
        assert!(!fast.is_empty());
        assert_eq!(payloads_built, acceptances, "payloads are built on acceptance only");
        assert!(evicted_rejector_hits > 0, "the stream must exercise an evicted rejector");
    }

    #[test]
    fn merge_equals_replayed_insertions() {
        let points_a = [[3.0, 1.0], [1.0, 3.0], [2.5, 2.5]];
        let points_b = [[2.0, 2.0], [1.0, 3.0], [0.5, 3.5]];
        let mut merged = ParetoArchive::new();
        let mut chunk_a = ParetoArchive::new();
        let mut chunk_b = ParetoArchive::new();
        let mut replay = ParetoArchive::new();
        for (i, p) in points_a.iter().enumerate() {
            chunk_a.insert(ov(p), i);
            replay.insert(ov(p), i);
        }
        for (i, p) in points_b.iter().enumerate() {
            chunk_b.insert(ov(p), 100 + i);
            replay.insert(ov(p), 100 + i);
        }
        merged.merge(chunk_a);
        merged.merge(chunk_b);
        assert_eq!(merged.entries(), replay.entries());
    }

    #[test]
    fn empty_cases() {
        let archive: ParetoArchive<()> = ParetoArchive::default();
        assert!(archive.is_empty());
        assert!(non_dominated_indices(&[]).is_empty());
    }
}
