//! # wbsn-dse — multi-objective design-space exploration for WBSNs
//!
//! The exploration layer of the DAC 2012 reproduction: given the
//! analytical model of `wbsn-model` as a fast evaluator, search the
//! configuration space (§4.1: tens of millions of points) for the
//! Pareto-optimal energy/delay/quality trade-offs (Fig. 5).
//!
//! * [`objective`] / [`pareto`] — dominance, non-dominated archives;
//!   objective vectors are inline `Copy` values (no heap), so sorting
//!   and archiving never allocate;
//! * [`genome`] — index encoding of a full network configuration with an
//!   allocation-free decode;
//! * [`memo`] — genome-keyed evaluation memo: identical genomes are
//!   never re-evaluated across generations/iterations, bit-identically;
//!   [`memo::ShardedGenomeMemo`] is its lock-sharded thread-safe form
//!   for concurrent consumers (the `wbsn-serve` worker pool);
//! * [`evaluator`] — the proposed 3-objective model and the
//!   energy/delay-only state-of-the-art baseline (\[26\]), both with a
//!   [`Evaluator::evaluate_batch`] running every batch through the
//!   struct-of-arrays kernel `WbsnModel::evaluate_objectives_batch`,
//!   inline up to one chunk and fanned out per chunk across cores
//!   above it;
//! * [`parallel`] — the scoped-thread work-stealing map behind batch
//!   evaluation;
//! * [`nsga2`](mod@nsga2) — elitist non-dominated sorting GA, one evaluation batch
//!   per generation (bit-identical to serial for a fixed seed);
//! * [`mosa`](mod@mosa) — multi-objective simulated annealing (\[27\]), a random
//!   search baseline, and parallel independent restarts
//!   ([`mosa::mosa_restarts`]);
//! * [`quality`] — C-metric, Pareto membership, hypervolume;
//! * [`truth`] — exact ground-truth fronts per reduced scenario
//!   (computed by the axis-major exhaustive sweep, which the model
//!   evaluators run as the `SoA` whole-space walk; golden-snapshotted)
//!   and the search-quality harness gating NSGA-II/MOSA on hypervolume
//!   ratio + front coverage vs truth.
//!
//! ```no_run
//! use wbsn_dse::evaluator::ModelEvaluator;
//! use wbsn_dse::nsga2::{nsga2, Nsga2Config};
//! use wbsn_model::space::DesignSpace;
//!
//! let space = DesignSpace::case_study(6);
//! let cfg = Nsga2Config { population: 120, generations: 150, ..Nsga2Config::default() };
//! let result = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
//! for entry in result.front.entries() {
//!     println!("{}", entry.objectives);
//! }
//! ```

#![warn(missing_docs)]
// Clippy policy (pedantic + curated allows/denies) lives in the
// [workspace.lints] table in the root Cargo.toml.

pub mod evaluator;
pub mod exhaustive;
pub mod genome;
pub mod memo;
pub mod mosa;
pub mod nsga2;
pub mod objective;
pub mod parallel;
pub mod pareto;
pub mod quality;
pub mod scenario;
pub mod truth;

pub use evaluator::{
    EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator, SerialEvaluator,
};
pub use genome::Genome;
pub use memo::{GenomeMemo, ShardedGenomeMemo};
pub use mosa::{mosa, mosa_restarts, mosa_with_memo, random_search, MosaConfig};
pub use nsga2::{nsga2, nsga2_with_memo, Nsga2Config, SearchResult};
pub use objective::{Dominance, ObjectiveVector, Objectives, MAX_OBJECTIVES};
pub use pareto::ParetoArchive;
pub use truth::{scenarios, SearchQuality, TruthFront, TruthScenario};
