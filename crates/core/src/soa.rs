//! Struct-of-arrays batch evaluation kernel.
//!
//! [`WbsnModel::evaluate_objectives_batch`] evaluates a whole slice of
//! [`DesignPoint`]s against the model in one call, bit-identical to
//! mapping [`WbsnModel::evaluate_objectives`] over the slice (same
//! objectives, same [`ModelError`] on every infeasible point) but
//! restructured for throughput:
//!
//! * **Dense direct-index interning.** The DAC 2012 design space is
//!   small and fully enumerable: per-node picks are `(kind, CR, fµC)`
//!   from fixed axes, MAC picks `(payload, SFO, BCO)` from fixed axes.
//!   Each pick's table index is therefore *computed arithmetically* —
//!   [`crate::space::node_axis_index`] for nodes, the composed
//!   payload × order × acknowledged × node-count slot for MACs — and
//!   verified bitwise against the canonical axis value. Interning is
//!   one load from a stamped dense table: no hashing, no probing (the
//!   hash-interning walk used to eat ~80 % of the 6-node per-point
//!   budget). Off-axis picks (continuous CR sweeps, custom spaces,
//!   beacon payloads, deployments past [`MAX_DENSE_NODES`]) and MAC
//!   pairs past [`MAC_ENTRY_CAPACITY`] materialized entries *spill to
//!   the scalar path*, point by point, bit-identically — the same
//!   bounded-memory stance the scalar memo takes.
//! * **Pre-evaluate the unique grid once per MAC configuration.** Every
//!   `(node-config, MAC)` *cell* — energy with the per-MAC radio term
//!   folded in, PRD, Eq. 1 slot count, bandwidth feasibility — is
//!   computed once and then served as plain loads. The cell cache
//!   persists inside [`SoaScratch`] across batches.
//! * **Tight `f64`/`u32` loops.** The per-point reductions (slot total,
//!   the Eq. 9 delay loop, the Eq. 8 metrics) contain no enum matching,
//!   no `Result` branching and no virtual calls — just slice arithmetic
//!   the compiler can unroll and vectorize.
//!
//! # One walk, mask-based infeasibility, error semantics
//!
//! The scalar path returns the **first** infeasibility it meets, in a
//! fixed order: MAC validation, then the node loop (application
//! parameter errors and duty-cycle overflows, tagged with the node
//! index), then the Eq. 1–2 assignment (per-node bandwidth shortfall in
//! node order, then the GTS capacity total). That resolution sequence
//! lives in **exactly one place** — the monomorphized `walk_point`
//! helper both batch kernels (objectives, full) instantiate with their
//! own per-node sink — so the order cannot drift between kernels. Two
//! mechanisms reproduce it:
//!
//! * a *node-outcome* failure stops the decode walk at the failing node
//!   — exactly where the scalar node loop stops — and re-tags the
//!   grid-cached error with the node index, like the scalar memo does;
//! * *assignment* feasibility travels as a per-point **mask**: every
//!   cell carries a bandwidth-OK flag bit, the gather loop only ANDs
//!   flags into the mask, and a masked point is resolved **at the end**
//!   by re-scanning its (cached) grid indices in node order for the
//!   first bandwidth-flagged node, then checking the capacity total —
//!   the exact order of `assign_slots_into`.
//!
//! Because grid entries are built by the same `WbsnModel::node_outcome`
//! code path the scalar memo uses, the resolved error is identical to
//! the scalar one — a property `crates/wbsn/tests/soa_parity.rs` checks
//! against random batches (including batches straddling the interning
//! capacity).
//!
//! # Whole-space walk
//!
//! [`WbsnModel::sweep_axis_major`] evaluates a whole [`DesignSpace`]
//! without building a [`DesignPoint`]: per MAC configuration it copies
//! the space's cells out of the tables once, then descends node by node
//! carrying the left-fold sums. A dead cell or a prefix past the slot
//! capacity counts its subtree as infeasible unvisited (slot counts are
//! never negative); a feasible leaf runs the kernels' Eq. 8/9 reductions.
//!
//! # Full evaluations
//!
//! [`WbsnModel::evaluate_batch_full`] extends the kernel to everything
//! the scalar [`WbsnModel::evaluate`] computes: per-node energy
//! breakdowns (sensor / µC / memory / radio and the Eq. 7 total), the
//! Eq. 9 per-node delay bounds, per-node PRD and the Eq. 1 slot counts,
//! written into the caller-owned flat arrays of [`FullEvalOut`]
//! (struct-of-arrays out-params, no per-point allocation). The output
//! contract: point `i` always owns lane range `node_range(i)` of
//! exactly `points[i].nodes.len()` entries — bit-exact per-node values
//! when `outcomes()[i]` is `Ok`, zero-filled when it carries the
//! (identical-to-scalar) `ModelError`. Cells are shared with the
//! objectives kernel and the walk, so mixed calls through one scratch
//! reuse all warmth.
//!
//! # Bit-exactness
//!
//! Cells are filled by calling the very functions the scalar path calls
//! (`RadioEnergyModel::energy_per_second`, `MacModel::tx_time`,
//! `control_time_from_total_slots`, …) on the interned values, and the
//! per-point reductions reproduce the scalar expressions operation by
//! operation (same association order). Feasible objectives are
//! therefore bit-identical, not merely close.
//!
//! One [`SoaScratch`] serves one thread; create one per worker for
//! parallel batches (see `wbsn-dse`'s `Evaluator::evaluate_batch`).
//! Steady state (tables warm, buffers grown) performs zero heap
//! allocations per batch or walk — enforced by
//! `crates/dse/tests/alloc_free.rs`.

use crate::delay::control_time_from_total_slots;
use crate::error::ModelError;
use crate::evaluate::{EvalScratch, MemoOutcome, NodeConfig, SystemEvaluation, WbsnModel};
use crate::ieee802154::{Ieee802154Config, Ieee802154Mac, MAX_GTS_SLOTS};
use crate::mac::MacModel;
use crate::metrics::{balanced_metric_with_sum, NetworkObjectives};
use crate::node::NodeModel;
use crate::space::{
    node_axis_index, order_pair_axis_index, payload_axis_index, DesignPoint, DesignSpace,
    NODE_AXIS_SLOTS, ORDER_PAIR_SLOTS, PAYLOAD_AXIS,
};
use crate::units::ByteRate;

/// Outcome of one point of a batch: exactly what
/// [`WbsnModel::evaluate_objectives`] would have returned for it.
pub type PointOutcome = Result<NetworkObjectives, ModelError>;

/// Cell flag: the cell has been computed (tables are lazily filled).
const FILLED: u32 = 1;
/// Cell flag: the node outcome is feasible (no application-parameter or
/// duty-cycle error).
const ENTRY_OK: u32 = 2;
/// Cell flag: the node's Eq. 1 airtime fits the per-node budget under
/// this MAC.
const BW_OK: u32 = 4;
/// Both feasibility flags: a cell with these set can be part of a
/// feasible point.
const LIVE: u32 = ENTRY_OK | BW_OK;

/// One `(node configuration, MAC configuration)` cell: the hot scalars
/// the gather loop needs, 24 bytes. The cold bandwidth detail lives in
/// [`CellBlock::bw_needed`].
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// `Enode` in mJ/s with the per-MAC radio term folded in (exact
    /// scalar summation order `base + radio`). NaN when infeasible.
    energy: f64,
    /// Estimated PRD. NaN when infeasible.
    prd: f64,
    /// Eq. 1 slot count `k(n)`; 0 when the cell is not feasible.
    k: u32,
    /// [`FILLED`] | [`ENTRY_OK`] | [`BW_OK`] bits.
    flags: u32,
}

const EMPTY_CELL: Cell = Cell { energy: f64::NAN, prd: f64::NAN, k: 0, flags: 0 };

/// Dense node-configuration slots: the full case-study node axis
/// (kind × CR level × fµC level, 176 slots).
/// [`crate::space::node_axis_index`] is a perfect index into it, so
/// interning a node pick is one load — no hashing, no probing.
/// Off-axis picks spill the point to the scalar path.
const GRID_SLOTS: usize = NODE_AXIS_SLOTS;

/// Largest node count representable in the dense MAC slot index; wider
/// deployments spill to the scalar path (the inline-decode limit is 16
/// nodes, so 128 leaves generous headroom).
pub const MAX_DENSE_NODES: u32 = 128;

/// Dense `(MAC configuration, node count)` slots: payload level ×
/// (SFO, BCO) pair × acknowledged × node count. The slot index is
/// computed arithmetically by [`mac_dense_slot`]; slots hold `u32`
/// entry references, so the table is ~180 KiB per scratch.
const MAC_SLOTS: usize = PAYLOAD_AXIS.len() * ORDER_PAIR_SLOTS * 2 * (MAX_DENSE_NODES as usize + 1);

/// Upper bound on *materialized* MAC entries (the case study uses 105):
/// each entry owns a lazily-grown cell block, so this bounds worst-case
/// cell memory at `MAC_ENTRY_CAPACITY × GRID_SLOTS` cells. New pairs
/// beyond the cap spill to the scalar path, bit-identically.
pub const MAC_ENTRY_CAPACITY: usize = 512;

/// Perfect dense index of an on-axis `(MAC configuration, node count)`
/// pair, or `None` for off-axis shapes — payloads or orders outside the
/// case-study axes, beacon payloads, deployments past
/// [`MAX_DENSE_NODES`] — which spill to the scalar path. Pairs with
/// `SFO > BCO` are representable on purpose: their validation error is
/// cached like any other entry.
#[inline]
fn mac_dense_slot(cfg: Ieee802154Config, n_nodes: u32) -> Option<usize> {
    if cfg.beacon_payload_bytes != 0 || n_nodes > MAX_DENSE_NODES {
        return None;
    }
    let p = payload_axis_index(cfg.payload_bytes)?;
    let o = order_pair_axis_index(cfg.sfo, cfg.bco)?;
    let shape = (p * ORDER_PAIR_SLOTS + o) * 2 + usize::from(cfg.acknowledged);
    Some(shape * (MAX_DENSE_NODES as usize + 1) + n_nodes as usize)
}

/// The cell cache of one MAC configuration, indexed by grid index.
#[derive(Debug, Clone, Default)]
struct CellBlock {
    cells: Vec<Cell>,
    /// Parallel cold data: Eq. 1 airtime needed per allocation round
    /// (the [`ModelError::BandwidthExceeded`] detail).
    bw_needed: Vec<f64>,
    /// Parallel cold data: the per-MAC radio term of Eq. 6 in mJ/s (the
    /// full-evaluation path emits it as a breakdown lane; `Cell::energy`
    /// only stores the pre-summed total).
    radio: Vec<f64>,
}

impl CellBlock {
    /// The cell of grid entry `g` under MAC `me`, grown and filled on
    /// first use.
    #[inline]
    fn cell(&mut self, model: &WbsnModel, me: &MacEntry, grid: &GridTable, g: usize) -> Cell {
        if g >= self.cells.len() {
            self.cells.resize(grid.entries.len(), EMPTY_CELL);
            self.bw_needed.resize(grid.entries.len(), 0.0);
            self.radio.resize(grid.entries.len(), 0.0);
        }
        let mut cell = self.cells[g];
        if cell.flags & FILLED == 0 {
            let (fresh, bw, radio) = fill_cell(model, me, &grid.entries[g], grid.errs[g].is_none());
            self.cells[g] = fresh;
            self.bw_needed[g] = bw;
            self.radio[g] = radio;
            cell = fresh;
        }
        cell
    }
}

/// MAC-independent outcome of one unique `(kind, CR, fµC)` combination.
#[derive(Debug, Clone, Copy)]
struct GridEntry {
    /// `Esensor` in mJ/s (Eq. 3). NaN when infeasible.
    sensor: f64,
    /// `EµC` in mJ/s (Eq. 4). NaN when infeasible.
    mcu: f64,
    /// `Emem` in mJ/s (Eq. 5). NaN when infeasible.
    memory: f64,
    /// `Esensor + EµC + Emem` in mJ/s (exact summation order of the
    /// scalar memo / `NodeEnergyBreakdown::total`). NaN when infeasible.
    base: f64,
    /// Retransmission-inflated output stream `φout` in B/s.
    phi_out: f64,
    /// Estimated PRD.
    prd: f64,
}

/// Per-(MAC configuration, node count) derived constants.
#[derive(Debug, Clone, Copy)]
struct MacEntry {
    /// The configured MAC model (`n_gts` = node count, as in the scalar
    /// path).
    mac: Ieee802154Mac,
    /// Base time unit `δ` (slot duration), seconds.
    delta: f64,
    /// Allocation rounds (superframes) per second.
    rounds: f64,
    /// Per-node airtime budget per round, `capacity · δ`.
    max_per_round: f64,
    /// Protocol slot capacity per round (7 GTSs).
    capacity: u32,
    /// Packet transaction time (Eq. 9's non-preemptive blocking term).
    pkt: f64,
    /// Eq. 9 control time per superframe, indexed by the point's total
    /// slot count (only totals `0..=capacity` are reachable).
    control: [f64; (MAX_GTS_SLOTS + 1) as usize],
}

/// Everything the stamped caches depend on besides the node/MAC
/// configurations themselves (mirrors the scalar memo's stamp).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SoaStamp {
    packet_error_rate: f64,
    node_model: NodeModel,
}

/// The interned unique node configurations, directly indexed by the
/// perfect axis slot ([`crate::space::node_axis_index`]).
#[derive(Debug, Clone, Default)]
struct GridTable {
    /// `dense[axis slot]` = entry index + 1 (0 marks a vacant slot).
    /// Lazily sized to [`GRID_SLOTS`]; the perfect index is injective
    /// (bit-verified against the canonical axis values), so no key
    /// comparison is needed.
    dense: Vec<u32>,
    entries: Vec<GridEntry>,
    /// Parallel to `entries`: `Some` = infeasible node outcome (stored
    /// with node index 0, re-tagged on resolution).
    errs: Vec<Option<ModelError>>,
}

impl GridTable {
    /// Entry index of an already-interned configuration — the read-only
    /// lookup the (cold) bandwidth-mask resolution re-walks a point
    /// with, instead of the hot walk recording indices it almost never
    /// needs.
    #[inline]
    fn index_of(&self, node: &NodeConfig) -> Option<usize> {
        let slot = node_axis_index(node.kind, node.cr, node.f_mcu)?;
        match self.dense.get(slot) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Interns a node configuration by its perfect axis index, computing
    /// its MAC-independent outcome on first sight (via the shared scalar
    /// code path). Returns `None` when the pick is off-axis — the
    /// caller spills that point to the scalar path.
    #[inline]
    fn intern(
        &mut self,
        model: &WbsnModel,
        node: &NodeConfig,
        retransmission_factor: f64,
        mac: &Ieee802154Mac,
    ) -> Option<usize> {
        let slot = node_axis_index(node.kind, node.cr, node.f_mcu)?;
        if let Some(&s) = self.dense.get(slot) {
            if s != 0 {
                return Some(s as usize - 1);
            }
        }
        Some(self.intern_slow(model, node, retransmission_factor, mac, slot))
    }

    #[cold]
    fn intern_slow(
        &mut self,
        model: &WbsnModel,
        node: &NodeConfig,
        retransmission_factor: f64,
        mac: &Ieee802154Mac,
        slot: usize,
    ) -> usize {
        let (entry, err) = match model.node_outcome(node, retransmission_factor, mac) {
            MemoOutcome::Feasible { sensor, mcu, memory, phi_out, prd } => (
                GridEntry {
                    sensor: sensor.mj_per_s(),
                    mcu: mcu.mj_per_s(),
                    memory: memory.mj_per_s(),
                    base: (sensor + mcu + memory).mj_per_s(),
                    phi_out: phi_out.value(),
                    prd,
                },
                None,
            ),
            MemoOutcome::Infeasible(e) => (
                GridEntry {
                    sensor: f64::NAN,
                    mcu: f64::NAN,
                    memory: f64::NAN,
                    base: f64::NAN,
                    phi_out: f64::NAN,
                    prd: f64::NAN,
                },
                Some(e),
            ),
        };
        let idx = self.entries.len();
        self.entries.push(entry);
        self.errs.push(err);
        if self.dense.is_empty() {
            self.dense.resize(GRID_SLOTS, 0);
        }
        self.dense[slot] = u32::try_from(idx + 1).expect("grid far below u32 capacity");
        idx
    }

    fn clear(&mut self) {
        self.dense.iter_mut().for_each(|s| *s = 0);
        self.entries.clear();
        self.errs.clear();
    }
}

/// The interned unique `(MAC configuration, node count)` pairs,
/// directly indexed by the perfect slot ([`mac_dense_slot`]). The
/// beacon announces one GTS descriptor per node, so every derived
/// constant depends on both the configuration and the node count.
#[derive(Debug, Clone, Default)]
struct MacTable {
    /// `dense[mac slot]` = entry index + 1 (0 marks a vacant slot).
    /// Lazily sized to [`MAC_SLOTS`]; injective by construction, so no
    /// key comparison is needed.
    dense: Vec<u32>,
    entries: Vec<MacEntry>,
    /// Parallel to `entries`: `Some` = the configuration fails
    /// [`Ieee802154Config::validate`].
    errs: Vec<Option<ModelError>>,
}

impl MacTable {
    /// Interns a pair by its perfect dense slot, deriving the per-MAC
    /// constants on first sight and growing `cells` by one (empty)
    /// block. Returns `None` when the pair is off-axis, or new while
    /// [`MAC_ENTRY_CAPACITY`] entries are already materialized — the
    /// caller spills that point to the scalar path.
    #[inline]
    fn intern(
        &mut self,
        cfg: Ieee802154Config,
        n_nodes: u32,
        cells: &mut Vec<CellBlock>,
    ) -> Option<usize> {
        let slot = mac_dense_slot(cfg, n_nodes)?;
        if let Some(&s) = self.dense.get(slot) {
            if s != 0 {
                return Some(s as usize - 1);
            }
        }
        if self.entries.len() >= MAC_ENTRY_CAPACITY {
            return None;
        }
        Some(self.intern_slow(cfg, n_nodes, slot, cells))
    }

    #[cold]
    fn intern_slow(
        &mut self,
        cfg: Ieee802154Config,
        n_nodes: u32,
        slot: usize,
        cells: &mut Vec<CellBlock>,
    ) -> usize {
        // Validate-first, like the scalar path: deriving timing constants
        // from an invalid configuration is not merely wasted work — an
        // out-of-range order pair (e.g. SFO = 9 > BCO = 5) can make
        // derived quantities meaningless. Invalid entries keep inert
        // zeroed constants; the walk returns their stored error before
        // touching anything derived.
        let err = cfg.validate().err();
        let mac = Ieee802154Mac::new(cfg, n_nodes);
        let entry = if err.is_none() {
            let capacity = mac.capacity_slots_per_round();
            let mut control = [0.0; (MAX_GTS_SLOTS + 1) as usize];
            for (total, slot) in control.iter_mut().enumerate() {
                *slot = control_time_from_total_slots(&mac, total as u32).value();
            }
            MacEntry {
                mac,
                delta: mac.base_time_unit().value(),
                rounds: mac.allocation_rounds_per_second(),
                max_per_round: f64::from(capacity) * mac.base_time_unit().value(),
                capacity,
                pkt: mac.packet_transaction_time().value(),
                control,
            }
        } else {
            MacEntry {
                mac,
                delta: 0.0,
                rounds: 0.0,
                max_per_round: 0.0,
                capacity: 0,
                pkt: 0.0,
                control: [0.0; (MAX_GTS_SLOTS + 1) as usize],
            }
        };
        let idx = self.entries.len();
        self.entries.push(entry);
        self.errs.push(err);
        cells.push(CellBlock::default());
        if self.dense.is_empty() {
            self.dense.resize(MAC_SLOTS, 0);
        }
        self.dense[slot] = u32::try_from(idx + 1).expect("mac table far below u32 capacity");
        idx
    }
}

/// Computes one cell: the exact scalar per-node work under a fixed MAC,
/// reduced to plain scalars. Calls the same model functions the scalar
/// path calls, so every stored number is bit-identical to what
/// [`WbsnModel::evaluate_objectives`] computes per node. Returns the
/// cell plus its cold companions: the Eq. 1 airtime detail and the
/// per-MAC radio term (a full-evaluation breakdown lane).
#[cold]
fn fill_cell(model: &WbsnModel, me: &MacEntry, ge: &GridEntry, entry_ok: bool) -> (Cell, f64, f64) {
    if !entry_ok {
        return (Cell { flags: FILLED, ..EMPTY_CELL }, 0.0, 0.0);
    }
    let phi = ByteRate::new(ge.phi_out);
    let radio = model.node_model().radio.energy_per_second(phi, &me.mac);
    let energy = ge.base + radio.mj_per_s();
    // Eq. 1 sizing, mirroring `assign_slots_into`'s per-node body.
    let (k, bw_ok, bw_needed) = if ge.phi_out <= 0.0 {
        (0u32, true, 0.0)
    } else {
        let per_second = me.mac.tx_time(phi);
        let per_round = per_second.value() / me.rounds;
        let k = (per_round / me.delta - 1e-9).ceil().max(1.0);
        if per_round > me.max_per_round + 1e-12 {
            (0, false, per_round)
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let k = k as u32;
            (k, true, per_round)
        }
    };
    let flags = FILLED | ENTRY_OK | if bw_ok { BW_OK } else { 0 };
    (Cell { energy, prd: ge.prd, k, flags }, bw_needed, radio.mj_per_s())
}

/// Outcome of [`walk_point`] for one design point.
enum Walked {
    /// An off-axis pick (or a full MAC table) — the caller degrades the
    /// point to the bit-identical scalar path.
    Spill,
    /// Infeasible, carrying exactly the scalar path's error.
    Dead(ModelError),
    /// Feasible: the MAC entry, the Eq. 1 slot total and the Eq. 8
    /// element sums (accumulated in the scalar left-fold node order, so
    /// they carry `iter().sum()`'s exact bits).
    Alive { mac: usize, total: u32, sum_energy: f64, sum_prd: f64 },
}

/// **The** per-point walk — the single place the decode + intern +
/// gather loop and its error-resolution sequence exist. Both batch
/// kernels (objectives and full evaluation) instantiate it with their
/// own monomorphized `per_node` sink, so the resolution order — MAC
/// validation, first failing node outcome (re-tagged with its node
/// index), first bandwidth-flagged node in `assign_slots_into`'s scan
/// order, then the GTS capacity total — cannot drift between kernels.
///
/// `per_node(j, g, cell, grid_entries, radio_lane)` fires once per
/// node, after the cell is warm and **before** feasibility is judged
/// (exactly where the old walks stored their gathers; infeasible
/// points' partial writes are overwritten or zero-filled by the
/// caller). The grid entry and radio value are handed over as slices
/// plus the index `g`, so a sink that ignores them costs nothing — an
/// eagerly-indexed argument would force the bounds-checked loads even
/// into the objectives kernel, which needs neither. The walk keeps no
/// record of the indices it visited: the cold bandwidth-mask
/// resolution re-derives them via [`GridTable::index_of`] instead of
/// taxing the hot loop with bookkeeping.
// The borrow flow wants the raw table parts, not a bundling struct:
// `macs.intern` needs `cells` whole before `&mut cells[m]` splits off.
// verify: hot-path-begin(walk-point)
#[inline]
fn walk_point(
    model: &WbsnModel,
    grid: &mut GridTable,
    macs: &mut MacTable,
    cells: &mut Vec<CellBlock>,
    point: &DesignPoint,
    retransmission_factor: f64,
    mut per_node: impl FnMut(usize, usize, &Cell, &[GridEntry], &[f64]),
) -> Walked {
    let Some(m) = macs.intern(point.mac, point.nodes.len() as u32, cells) else {
        return Walked::Spill;
    };
    if let Some(err) = &macs.errs[m] {
        return Walked::Dead(err.clone());
    }
    let me = &macs.entries[m];
    let block = &mut cells[m];
    let mut mask: u32 = BW_OK;
    let mut total: u32 = 0;
    let mut sum_energy = 0.0f64;
    let mut sum_prd = 0.0f64;
    for (j, node) in point.nodes.iter().enumerate() {
        let Some(g) = grid.intern(model, node, retransmission_factor, &me.mac) else {
            return Walked::Spill;
        };
        let cell = block.cell(model, me, grid, g);
        per_node(j, g, &cell, &grid.entries, &block.radio);
        sum_energy += cell.energy;
        sum_prd += cell.prd;
        total += cell.k;
        mask &= cell.flags;
        if cell.flags & ENTRY_OK == 0 {
            // A node-outcome failure stops the walk at the failing node,
            // exactly like the scalar node loop (which errors before the
            // assignment stage runs); the grid-cached error is re-tagged
            // with the node index, like the scalar memo does.
            let err = grid.errs[g].as_ref().expect("entry-infeasible cell has a stored error");
            let err = match err {
                ModelError::DutyCycleExceeded { duty, .. } => {
                    ModelError::DutyCycleExceeded { node: j, duty: *duty }
                }
                other => other.clone(),
            };
            return Walked::Dead(err);
        }
    }
    if mask & BW_OK == 0 {
        // Resolve the mask: first bandwidth-flagged node in node order,
        // mirroring `assign_slots_into`'s scan. The walk interned every
        // node of the point before reaching this (cold) branch, so the
        // read-only re-derivation cannot miss.
        let (node, g) = point
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                (i, grid.index_of(node).expect("mask resolution re-walks interned nodes"))
            })
            .find(|&(_, g)| block.cells[g].flags & BW_OK == 0)
            .expect("masked point must contain a bandwidth-flagged node");
        return Walked::Dead(ModelError::BandwidthExceeded {
            node,
            needed_s: block.bw_needed[g],
            available_s: me.max_per_round,
        });
    }
    if total > me.capacity {
        return Walked::Dead(ModelError::GtsCapacityExceeded {
            required: total,
            available: me.capacity,
        });
    }
    Walked::Alive { mac: m, total, sum_energy, sum_prd }
}
// verify: hot-path-end(walk-point)

/// Eq. 9 delay reduction for one feasible point: writes each node's
/// worst-case bound and returns the left-fold delay sum. Pure f64/u32
/// arithmetic in the exact association order of
/// `worst_case_delay_from_slots`.
// verify: hot-path-begin(delay-reduce)
#[inline]
fn delay_reduce(me: &MacEntry, total: u32, slots: &[u32], delays: &mut [f64]) -> f64 {
    let control = me.control[total as usize];
    let (delta, pkt) = (me.delta, me.pkt);
    let mut sum = 0.0f64;
    for (delay, &k) in delays.iter_mut().zip(slots) {
        let others = total - k;
        let crossed = others.div_ceil(MAX_GTS_SLOTS).max(1);
        let d =
            delta * f64::from(others) + control * f64::from(crossed) + delta * f64::from(k) + pkt;
        *delay = d;
        sum += d;
    }
    sum
}
// verify: hot-path-end(delay-reduce)

/// Reusable working memory (and persistent caches) of the `SoA` kernel.
///
/// Holds the interned grid/MAC/cell tables plus every per-batch buffer,
/// so repeated [`WbsnModel::evaluate_objectives_batch`] calls allocate
/// nothing once warm. One scratch per thread; reusing it across models
/// is safe — the caches revalidate themselves against the model stamp.
#[derive(Debug, Clone, Default)]
pub struct SoaScratch {
    stamp: Option<SoaStamp>,
    grid: GridTable,
    macs: MacTable,
    /// `cells[mac]` is the cell cache of MAC entry `mac`, lazily grown
    /// and filled.
    cells: Vec<CellBlock>,
    energies: Vec<f64>,
    delays: Vec<f64>,
    prds: Vec<f64>,
    slots: Vec<u32>,
    results: Vec<PointOutcome>,
    /// Scalar scratch serving the spill path (off-axis picks, beacon
    /// payloads, deployments past [`MAX_DENSE_NODES`], a full MAC
    /// table): the kernel degrades to the (bit-identical) scalar path
    /// instead of growing unboundedly.
    fallback: EvalScratch,
    /// Cumulative count of points served by the scalar spill path
    /// (off-axis picks, beacon payloads, deployments past
    /// [`MAX_DENSE_NODES`], interning-cap overflow) across every batch
    /// run through this scratch. Diagnostic only — results never depend
    /// on the path taken — but it lets harnesses *assert* that a
    /// workload really exercised the spill path instead of assuming it.
    spills: u64,
    /// Buffers of the whole-space walk.
    walk: WalkBuffers,
}

/// Left folds over the nodes before one depth of the whole-space walk:
/// the Eq. 8 energy and PRD sums and the Eq. 1 slot total.
#[derive(Debug, Clone, Copy, Default)]
struct Prefix {
    energy: f64,
    prd: f64,
    total: u32,
}

/// Buffers of [`WbsnModel::sweep_axis_major`], reused across walks.
#[derive(Debug, Clone, Default)]
struct WalkBuffers {
    /// MAC entry per [`DesignSpace::mac_configs`] item.
    macs: Vec<usize>,
    /// Grid entry per `(node, pick)`, node-major; pick `q` of a node is
    /// `CR digit × |fµC| + fµC digit`.
    grid: Vec<usize>,
    /// The current MAC's cells, laid out like `grid`.
    cells: Vec<Cell>,
    /// Points below one pick of node `j`: `|picks|^(n − 1 − j)`.
    subtree: Vec<u64>,
    /// Per node: its next pick, and the folds over the nodes before it.
    picks: Vec<usize>,
    prefix: Vec<Prefix>,
    /// The current point's digits, in [`DesignSpace::dimension_radices`]
    /// order.
    digits: Vec<usize>,
}

/// One feasible point of [`WbsnModel::sweep_axis_major`].
#[derive(Debug, Clone, Copy)]
pub struct SweepLeaf<'a> {
    /// The point's pick digits, in [`DesignSpace::dimension_radices`]
    /// order: [`DesignSpace::point_with`] builds the point from them.
    pub digits: &'a [usize],
    /// Exactly what [`WbsnModel::evaluate_objectives`] returns for the
    /// point.
    pub objectives: NetworkObjectives,
    /// Per-node `Enode` in mJ/s: the energy lane
    /// [`WbsnModel::evaluate_batch_full`] writes for the point.
    pub energies: &'a [f64],
}

impl SoaScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique `(kind, CR, fµC)` node configurations interned so far.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.grid.entries.len()
    }

    /// Unique `(MAC configuration, node count)` pairs interned so far.
    #[must_use]
    pub fn mac_len(&self) -> usize {
        self.macs.entries.len()
    }

    /// Cumulative number of points this scratch has served through the
    /// bit-identical scalar spill path (off-axis picks, beacon
    /// payloads, deployments past [`MAX_DENSE_NODES`], interning-cap
    /// overflow). Monotone across batches; compare before/after a batch
    /// to attribute spills to it.
    #[must_use]
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Revalidates the node-model-derived caches against `model`,
    /// clearing them when the stamp changed (the purely MAC-derived
    /// entries stay valid). Shared by every batch entry point.
    fn revalidate(&mut self, model: &WbsnModel) {
        let stamp = SoaStamp {
            packet_error_rate: model.packet_error_rate(),
            node_model: *model.node_model(),
        };
        if self.stamp != Some(stamp) {
            self.grid.clear();
            self.cells.iter_mut().for_each(|block| {
                block.cells.clear();
                block.bw_needed.clear();
                block.radio.clear();
            });
            self.stamp = Some(stamp);
        }
    }
}

impl WbsnModel {
    /// Struct-of-arrays batch fast path: computes, for every point,
    /// exactly `self.evaluate_objectives(&p.mac, &p.nodes, ..)` —
    /// bit-identical objectives, identical error on infeasible points —
    /// with the arithmetic restructured into tight loops over interned
    /// tables (see the [module docs](crate::soa)).
    ///
    /// The returned slice lives in `scratch` and is valid until the next
    /// call; `result[i]` corresponds to `points[i]`. Steady state
    /// allocates nothing.
    pub fn evaluate_objectives_batch<'s>(
        &self,
        points: &[DesignPoint],
        scratch: &'s mut SoaScratch,
    ) -> &'s [PointOutcome] {
        scratch.revalidate(self);
        let retransmission_factor = 1.0 / (1.0 - self.packet_error_rate());
        let theta = self.theta();

        let SoaScratch {
            grid,
            macs,
            cells,
            energies,
            delays,
            prds,
            slots,
            results,
            fallback,
            spills,
            ..
        } = scratch;
        results.clear();
        results.reserve(points.len());

        for point in points {
            let n = point.nodes.len();
            if n > energies.len() {
                energies.resize(n, 0.0);
                delays.resize(n, 0.0);
                prds.resize(n, 0.0);
                slots.resize(n, 0);
            }
            // The sink gathers the per-node cell scalars into per-point
            // arrays; the walk resolves every infeasibility and carries
            // the Eq. 8 element sums out in `iter().sum()`'s left-fold
            // order (see `balanced_metric_with_sum`).
            let (en, pr, sl) = (&mut energies[..n], &mut prds[..n], &mut slots[..n]);
            let walked = walk_point(
                self,
                grid,
                macs,
                cells,
                point,
                retransmission_factor,
                |j, _, cell, _, _| {
                    en[j] = cell.energy;
                    pr[j] = cell.prd;
                    sl[j] = cell.k;
                },
            );
            results.push(match walked {
                Walked::Spill => {
                    *spills += 1;
                    self.evaluate_objectives(&point.mac, &point.nodes, fallback)
                }
                Walked::Dead(err) => Err(err),
                Walked::Alive { mac, total, sum_energy, sum_prd } => {
                    let me = &macs.entries[mac];
                    let sum_delay = delay_reduce(me, total, &slots[..n], &mut delays[..n]);
                    Ok(NetworkObjectives {
                        energy: balanced_metric_with_sum(&energies[..n], sum_energy, theta),
                        delay: balanced_metric_with_sum(&delays[..n], sum_delay, theta),
                        prd: balanced_metric_with_sum(&prds[..n], sum_prd, theta),
                    })
                }
            });
        }
        results
    }

    /// Whole-space walk: calls `visit` once per feasible point of
    /// `space` in axis-major order (payload slowest, then the `(SFO,
    /// BCO)` pair, then each node's `(CR, fµC)` pick, the last node's
    /// fµC fastest) with exactly the objectives
    /// [`WbsnModel::evaluate_objectives`] returns for it, and returns
    /// the number of infeasible points (see the [module docs](crate::soa)).
    ///
    /// Returns `None` before any visit when the dense tables cannot take
    /// the space whole — an axis value off the canonical axes, a full
    /// MAC table, no nodes or picks, a point count past `u64` — and the
    /// caller evaluates it point by point instead. Runs on the calling
    /// thread; a warm `scratch` allocates nothing.
    pub fn sweep_axis_major(
        &self,
        space: &DesignSpace,
        scratch: &mut SoaScratch,
        mut visit: impl FnMut(&SweepLeaf<'_>),
    ) -> Option<u64> {
        let n = space.num_nodes();
        let n_f = space.f_mcu_values.len();
        let n_picks = space.cr_values.len() * n_f;
        if n == 0 || n_picks == 0 {
            return None;
        }
        scratch.revalidate(self);
        let retransmission_factor = 1.0 / (1.0 - self.packet_error_rate());
        let theta = self.theta();
        let SoaScratch { grid, macs, cells, energies, delays, prds, slots, walk, .. } = scratch;

        // Intern every MAC and node pick of the space before visiting
        // anything, so an unsupported space is reported up front.
        let n_nodes = u32::try_from(n).ok()?;
        walk.macs.clear();
        for cfg in space.mac_configs() {
            walk.macs.push(macs.intern(cfg, n_nodes, cells)?);
        }
        walk.subtree.resize(n, 0);
        let mut per_mac = 1u64;
        for size in walk.subtree.iter_mut().rev() {
            *size = per_mac;
            per_mac = per_mac.checked_mul(n_picks as u64)?;
        }
        per_mac.checked_mul(walk.macs.len() as u64)?;
        // Grid entries are MAC-independent (`node_outcome` drops the
        // radio term), so any valid MAC interns them. With none, every
        // point is dead whatever its node axes.
        let valid = walk.macs.iter().find(|&&m| macs.errs[m].is_none());
        walk.grid.clear();
        if let Some(mac) = valid.map(|&m| macs.entries[m].mac) {
            for &kind in &space.node_kinds {
                for &cr in &space.cr_values {
                    for &f_mcu in &space.f_mcu_values {
                        let node = NodeConfig::new(kind, cr, f_mcu);
                        walk.grid.push(grid.intern(self, &node, retransmission_factor, &mac)?);
                    }
                }
            }
        }
        if n > energies.len() {
            energies.resize(n, 0.0);
            delays.resize(n, 0.0);
            prds.resize(n, 0.0);
            slots.resize(n, 0);
        }
        walk.cells.resize(n * n_picks, EMPTY_CELL);
        walk.picks.resize(n, 0);
        walk.prefix.resize(n, Prefix::default());
        walk.digits.resize(2 + 2 * n, 0);

        let n_orders = space.order_pairs.len();
        let last = n - 1;
        let mut infeasible = 0u64;
        let WalkBuffers {
            macs: mac_ids,
            grid: grid_ids,
            cells: row,
            subtree,
            picks,
            prefix,
            digits,
        } = walk;
        // verify: hot-path-begin(sweep-walk)
        for (i, &m) in mac_ids.iter().enumerate() {
            if macs.errs[m].is_some() {
                infeasible += per_mac;
                continue;
            }
            let me = &macs.entries[m];
            let block = &mut cells[m];
            for (cell, &g) in row.iter_mut().zip(grid_ids.iter()) {
                *cell = block.cell(self, me, grid, g);
            }
            digits[0] = i / n_orders;
            digits[1] = i % n_orders;
            // Depth-first over the prefix nodes `0..last`: `picks[j]` is
            // node `j`'s next pick, `prefix[j]` folds nodes `0..j`.
            prefix[0] = Prefix::default();
            picks[0] = 0;
            let mut j = 0;
            loop {
                if j == last {
                    // The leaves: every pick of the last node.
                    let at = prefix[last];
                    let leaves = &row[last * n_picks..];
                    for (c, by_f) in leaves.chunks_exact(n_f).enumerate() {
                        digits[2 * last + 2] = c;
                        for (f, cell) in by_f.iter().enumerate() {
                            let total = at.total + cell.k;
                            if cell.flags & LIVE != LIVE || total > me.capacity {
                                infeasible += 1;
                                continue;
                            }
                            energies[last] = cell.energy;
                            prds[last] = cell.prd;
                            slots[last] = cell.k;
                            let sum_delay = delay_reduce(me, total, &slots[..n], &mut delays[..n]);
                            let (sum_energy, sum_prd) =
                                (at.energy + cell.energy, at.prd + cell.prd);
                            let objectives = NetworkObjectives {
                                energy: balanced_metric_with_sum(&energies[..n], sum_energy, theta),
                                delay: balanced_metric_with_sum(&delays[..n], sum_delay, theta),
                                prd: balanced_metric_with_sum(&prds[..n], sum_prd, theta),
                            };
                            digits[2 * last + 3] = f;
                            visit(&SweepLeaf { digits, objectives, energies: &energies[..n] });
                        }
                    }
                } else if picks[j] < n_picks {
                    let q = picks[j];
                    picks[j] += 1;
                    let cell = row[j * n_picks + q];
                    let at = prefix[j];
                    let total = at.total + cell.k;
                    if cell.flags & LIVE != LIVE || total > me.capacity {
                        infeasible += subtree[j];
                        continue;
                    }
                    energies[j] = cell.energy;
                    prds[j] = cell.prd;
                    slots[j] = cell.k;
                    prefix[j + 1] =
                        Prefix { energy: at.energy + cell.energy, prd: at.prd + cell.prd, total };
                    digits[2 * j + 2] = q / n_f;
                    digits[2 * j + 3] = q % n_f;
                    j += 1;
                    picks[j] = 0;
                    continue;
                }
                // Node `j`'s picks are exhausted: back up one node.
                if j == 0 {
                    break;
                }
                j -= 1;
            }
        }
        // verify: hot-path-end(sweep-walk)
        Some(infeasible)
    }
}

/// Caller-owned flat output of the full-evaluation batch kernel
/// ([`WbsnModel::evaluate_batch_full`]): everything
/// [`WbsnModel::evaluate`] computes, laid out struct of arrays so
/// figure-regeneration binaries can walk whole sweeps without
/// materializing a [`SystemEvaluation`] per point.
///
/// Point `i` of the evaluated batch owns lane range
/// [`FullEvalOut::node_range`]`(i)` — always exactly
/// `points[i].nodes.len()` lanes, feasible or not, so the layout depends
/// only on the batch shape. For a feasible point
/// ([`FullEvalOut::outcomes`]`[i]` is `Ok`) the lanes carry the
/// bit-exact per-node values of the scalar [`WbsnModel::evaluate`]; for
/// an infeasible point (`outcomes[i]` holds the identical
/// [`ModelError`] the scalar path raises) the lanes are zero-filled.
///
/// All buffers are reused across calls: a warm `FullEvalOut` re-running
/// a same-shaped batch allocates nothing (enforced by
/// `crates/dse/tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct FullEvalOut {
    /// Per-point aggregate outcome: exactly what
    /// `WbsnModel::evaluate(..).map(|e| e.objectives)` returns.
    outcomes: Vec<PointOutcome>,
    /// Lane offsets: point `i` owns `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// `Esensor` per node in mJ/s (Eq. 3).
    sensor: Vec<f64>,
    /// `EµC` per node in mJ/s (Eq. 4).
    mcu: Vec<f64>,
    /// `Emem` per node in mJ/s (Eq. 5).
    memory: Vec<f64>,
    /// Radio share per node in mJ/s (Eq. 6).
    radio: Vec<f64>,
    /// `Enode` per node in mJ/s (Eq. 7 total).
    energy: Vec<f64>,
    /// Eq. 9 worst-case delay bound per node in seconds.
    delay: Vec<f64>,
    /// Estimated PRD per node in percent.
    prd: Vec<f64>,
    /// Eq. 1 slot count `k(n)` per node.
    slots: Vec<u32>,
}

impl FullEvalOut {
    /// Creates an empty output buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points of the last evaluated batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the last evaluated batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Per-point aggregate outcomes, `outcomes()[i]` for `points[i]`.
    pub fn outcomes(&self) -> &[PointOutcome] {
        &self.outcomes
    }

    /// The node-lane range of point `i` (length = node count of the
    /// point; zero-filled when the point is infeasible).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the last batch.
    #[must_use]
    pub fn node_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// `Esensor` lane (mJ/s, Eq. 3), indexed via [`FullEvalOut::node_range`].
    #[must_use]
    pub fn sensor(&self) -> &[f64] {
        &self.sensor
    }

    /// `EµC` lane (mJ/s, Eq. 4).
    #[must_use]
    pub fn mcu(&self) -> &[f64] {
        &self.mcu
    }

    /// `Emem` lane (mJ/s, Eq. 5).
    #[must_use]
    pub fn memory(&self) -> &[f64] {
        &self.memory
    }

    /// Radio lane (mJ/s, Eq. 6).
    #[must_use]
    pub fn radio(&self) -> &[f64] {
        &self.radio
    }

    /// `Enode` lane (mJ/s, Eq. 7 total).
    #[must_use]
    pub fn energy(&self) -> &[f64] {
        &self.energy
    }

    /// Eq. 9 worst-case delay-bound lane (seconds).
    #[must_use]
    pub fn delay(&self) -> &[f64] {
        &self.delay
    }

    /// Estimated PRD lane (percent).
    #[must_use]
    pub fn prd(&self) -> &[f64] {
        &self.prd
    }

    /// Eq. 1 slot-count lane.
    #[must_use]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Sizes the offsets and lanes for `points` (lane contents are then
    /// either written or zeroed per point — nothing stale survives).
    fn reset(&mut self, points: &[DesignPoint]) {
        self.outcomes.clear();
        self.offsets.clear();
        self.offsets.reserve(points.len() + 1);
        self.offsets.push(0);
        let mut total: u32 = 0;
        for p in points {
            total += u32::try_from(p.nodes.len()).expect("node count fits u32");
            self.offsets.push(total);
        }
        let total = total as usize;
        self.sensor.resize(total, 0.0);
        self.mcu.resize(total, 0.0);
        self.memory.resize(total, 0.0);
        self.radio.resize(total, 0.0);
        self.energy.resize(total, 0.0);
        self.delay.resize(total, 0.0);
        self.prd.resize(total, 0.0);
        self.slots.resize(total, 0);
    }

    /// Zero-fills the lanes of point `i` (the infeasible-point contract).
    fn zero_point(&mut self, i: usize) {
        let r = self.node_range(i);
        self.sensor[r.clone()].fill(0.0);
        self.mcu[r.clone()].fill(0.0);
        self.memory[r.clone()].fill(0.0);
        self.radio[r.clone()].fill(0.0);
        self.energy[r.clone()].fill(0.0);
        self.delay[r.clone()].fill(0.0);
        self.prd[r.clone()].fill(0.0);
        self.slots[r].fill(0);
    }

    /// Copies a scalar [`WbsnModel::evaluate`] result into the lanes of
    /// point `i` — the interning-overflow spill path, bit-identical by
    /// construction.
    fn write_point_from_eval(&mut self, i: usize, eval: &SystemEvaluation) {
        let r = self.node_range(i);
        for (j, node) in eval.per_node.iter().enumerate() {
            let o = r.start + j;
            self.sensor[o] = node.energy.sensor.mj_per_s();
            self.mcu[o] = node.energy.mcu.mj_per_s();
            self.memory[o] = node.energy.memory.mj_per_s();
            self.radio[o] = node.energy.radio.mj_per_s();
            self.energy[o] = node.energy.total().mj_per_s();
            self.delay[o] = node.delay_bound.value();
            self.prd[o] = node.prd;
            self.slots[o] = node.slots;
        }
    }
}

impl WbsnModel {
    /// Full-evaluation batch kernel: computes, for every point, exactly
    /// `self.evaluate(&p.mac, &p.nodes)` — bit-identical aggregate
    /// objectives, bit-identical per-node energy breakdown / delay
    /// bound / PRD / Eq. 1 slot counts, and the identical [`ModelError`]
    /// on every infeasible point — writing the per-node values into the
    /// caller-owned flat arrays of `out` (see [`FullEvalOut`] for the
    /// layout contract) instead of allocating a [`SystemEvaluation`]
    /// per point.
    ///
    /// Reuses the same interned `(node, MAC)` cell tables as
    /// [`WbsnModel::evaluate_objectives_batch`], so mixing objective-only
    /// and full batches through one [`SoaScratch`] shares all cache
    /// warmth. Steady state allocates nothing.
    pub fn evaluate_batch_full(
        &self,
        points: &[DesignPoint],
        scratch: &mut SoaScratch,
        out: &mut FullEvalOut,
    ) {
        scratch.revalidate(self);
        let retransmission_factor = 1.0 / (1.0 - self.packet_error_rate());
        let theta = self.theta();
        out.reset(points);
        let SoaScratch { grid, macs, cells, spills, .. } = scratch;

        for (pi, point) in points.iter().enumerate() {
            let n = point.nodes.len();
            let off = out.offsets[pi] as usize;
            // The sink writes the per-node lanes in place (point-major);
            // infeasible points are zero-filled right after.
            let walked = {
                let FullEvalOut { sensor, mcu, memory, radio, energy, prd, slots, .. } = &mut *out;
                walk_point(
                    self,
                    grid,
                    macs,
                    cells,
                    point,
                    retransmission_factor,
                    |j, g, cell, entries, radio_lane| {
                        let ge = &entries[g];
                        let o = off + j;
                        sensor[o] = ge.sensor;
                        mcu[o] = ge.mcu;
                        memory[o] = ge.memory;
                        radio[o] = radio_lane[g];
                        energy[o] = cell.energy;
                        prd[o] = cell.prd;
                        slots[o] = cell.k;
                    },
                )
            };
            match walked {
                Walked::Spill => {
                    *spills += 1;
                    match self.evaluate(&point.mac, &point.nodes) {
                        Ok(eval) => {
                            out.write_point_from_eval(pi, &eval);
                            out.outcomes.push(Ok(eval.objectives));
                        }
                        Err(e) => {
                            out.zero_point(pi);
                            out.outcomes.push(Err(e));
                        }
                    }
                }
                Walked::Dead(err) => {
                    out.zero_point(pi);
                    out.outcomes.push(Err(err));
                }
                Walked::Alive { mac, total, sum_energy, sum_prd } => {
                    // Eq. 9, writing the per-node bounds straight into
                    // the lane.
                    let me = &macs.entries[mac];
                    let sum_delay = delay_reduce(
                        me,
                        total,
                        &out.slots[off..off + n],
                        &mut out.delay[off..off + n],
                    );
                    out.outcomes.push(Ok(NetworkObjectives {
                        energy: balanced_metric_with_sum(
                            &out.energy[off..off + n],
                            sum_energy,
                            theta,
                        ),
                        delay: balanced_metric_with_sum(&out.delay[off..off + n], sum_delay, theta),
                        prd: balanced_metric_with_sum(&out.prd[off..off + n], sum_prd, theta),
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvalScratch;
    use crate::space::DesignSpace;
    use crate::units::Hertz;

    fn assert_batch_matches_scalar(model: &WbsnModel, points: &[DesignPoint]) {
        let mut soa = SoaScratch::new();
        let mut scalar = EvalScratch::new();
        let batch: Vec<PointOutcome> = model.evaluate_objectives_batch(points, &mut soa).to_vec();
        assert_eq!(batch.len(), points.len());
        for (p, soa_outcome) in points.iter().zip(batch) {
            let scalar_outcome = model.evaluate_objectives(&p.mac, &p.nodes, &mut scalar);
            match (scalar_outcome, soa_outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                    assert_eq!(a.delay.to_bits(), b.delay.to_bits());
                    assert_eq!(a.prd.to_bits(), b.prd.to_bits());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("feasibility disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn sweep_matches_scalar_bitwise() {
        let space = DesignSpace::case_study(6);
        assert_batch_matches_scalar(&WbsnModel::shimmer(), &space.sample_sweep(600));
    }

    #[test]
    fn sweep_matches_scalar_with_lossy_channel_and_theta() {
        let space = DesignSpace::case_study(5);
        let model = WbsnModel::shimmer().with_packet_error_rate(0.3).with_theta(0.4);
        assert_batch_matches_scalar(&model, &space.sample_sweep(300));
    }

    #[test]
    fn invalid_mac_and_invalid_cr_resolve_to_scalar_errors() {
        let space = DesignSpace::case_study(4);
        let mut points = space.sample_sweep(8);
        points[1].mac.payload_bytes = 0; // invalid MAC
        points[3].mac.sfo = 9;
        points[3].mac.bco = 5; // SFO > BCO
        points[5].nodes[2].cr = 0.0; // invalid CR -> InvalidParameter
        points[6].nodes[0].cr = -0.25;
        // Out-of-range orders: `1 << order` would overflow if derived
        // constants were computed before validation (regression).
        points[7].mac.sfo = 35;
        points[7].mac.bco = 40;
        assert_batch_matches_scalar(&WbsnModel::shimmer(), &points);
    }

    /// A continuous CR sweep is off-axis for the dense grid: every such
    /// point must spill to the scalar path bit-identically, and the
    /// dense tables must stay bounded (nothing off-axis is interned).
    #[test]
    fn continuous_cr_sweep_spills_to_scalar_beyond_grid_capacity() {
        let model = WbsnModel::shimmer();
        let base = DesignSpace::case_study(3);
        let points: Vec<DesignPoint> = (0..700)
            .map(|i| {
                let mut p = base.point_at((i * 9973) as u128 % base.cardinality());
                // ~2100 distinct CR values across the batch, every one
                // provably off-axis (a 1e-4 ladder crosses the 0.01-step
                // axis, so bitwise collisions are dodged explicitly): the
                // walk spills at node 0 before any feasibility judgment,
                // making the spill count exact.
                for (j, node) in p.nodes.iter_mut().enumerate() {
                    let mut cr = 0.17 + (i * 3 + j + 1) as f64 * 1e-4;
                    if crate::space::cr_axis_index(cr).is_some() {
                        cr += 1e-9;
                    }
                    node.cr = cr;
                }
                p
            })
            .collect();
        let mut soa = SoaScratch::new();
        let mut scalar = EvalScratch::new();
        let outcomes: Vec<PointOutcome> =
            model.evaluate_objectives_batch(&points, &mut soa).to_vec();
        assert!(soa.grid_len() <= GRID_SLOTS, "grid grew past its cap: {}", soa.grid_len());
        assert_eq!(
            soa.spill_count(),
            points.len() as u64,
            "every off-axis point must be accounted to the spill path"
        );
        for (p, outcome) in points.iter().zip(outcomes) {
            let reference = model.evaluate_objectives(&p.mac, &p.nodes, &mut scalar);
            match (reference, outcome) {
                (Ok(a), Ok(b)) => assert_eq!(a.energy.to_bits(), b.energy.to_bits()),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    /// The spill counter attributes points to the right engine: fully
    /// on-axis batches never touch it, off-axis picks are counted once
    /// per point, on both kernels (objectives, full).
    #[test]
    fn spill_count_tracks_off_axis_points_on_every_kernel() {
        let model = WbsnModel::shimmer();
        let space = DesignSpace::case_study(4);
        let on_axis = space.sample_sweep(40);
        let mut off_axis = on_axis.clone();
        for p in &mut off_axis {
            // Nudge node 0 so the walk hits the off-axis pick before any
            // feasibility judgment: a point that is duty-infeasible at a
            // later node still spills, keeping the expected count exact.
            p.nodes[0].cr += 5e-4; // a tiny nudge is enough: indexing is bitwise
        }
        let mut full = FullEvalOut::new();
        for kernel in 0..2u8 {
            let mut soa = SoaScratch::new();
            let run =
                |pts: &[DesignPoint], soa: &mut SoaScratch, full: &mut FullEvalOut| match kernel {
                    0 => drop(model.evaluate_objectives_batch(pts, soa)),
                    _ => model.evaluate_batch_full(pts, soa, full),
                };
            run(&on_axis, &mut soa, &mut full);
            assert_eq!(soa.spill_count(), 0, "kernel {kernel}: on-axis batch must not spill");
            run(&off_axis, &mut soa, &mut full);
            assert_eq!(
                soa.spill_count(),
                off_axis.len() as u64,
                "kernel {kernel}: every off-axis point spills exactly once"
            );
        }
    }

    #[test]
    fn bandwidth_and_gts_overflows_resolve_to_scalar_errors() {
        let space = DesignSpace::case_study(6);
        let mut points = space.sample_sweep(6);
        // 92 % loss inflates traffic 12.5x: capacity errors appear.
        let model = WbsnModel::shimmer().with_packet_error_rate(0.92);
        for p in &mut points {
            for node in p.nodes.iter_mut() {
                node.f_mcu = Hertz::from_mhz(8.0); // duty-feasible everywhere
            }
        }
        assert_batch_matches_scalar(&model, &points);
    }

    #[test]
    fn empty_points_and_empty_batches() {
        let model = WbsnModel::shimmer();
        let mut soa = SoaScratch::new();
        assert!(model.evaluate_objectives_batch(&[], &mut soa).is_empty());
        let empty_point =
            DesignPoint { mac: Ieee802154Config::default(), nodes: crate::space::NodeVec::new() };
        assert_batch_matches_scalar(&model, std::slice::from_ref(&empty_point));
        assert_full_matches_scalar(&model, &[empty_point]);
    }

    #[test]
    fn scratch_revalidates_across_models() {
        let space = DesignSpace::case_study(4);
        let points = space.sample_sweep(120);
        let mut soa = SoaScratch::new();
        let clean = WbsnModel::shimmer();
        let lossy = WbsnModel::shimmer().with_packet_error_rate(0.2);
        // Alternate models through one scratch; every pass must match a
        // fresh scalar evaluation of the active model.
        for model in [&clean, &lossy, &clean] {
            let batch: Vec<PointOutcome> =
                model.evaluate_objectives_batch(&points, &mut soa).to_vec();
            let mut scalar = EvalScratch::new();
            for (p, outcome) in points.iter().zip(batch) {
                let reference = model.evaluate_objectives(&p.mac, &p.nodes, &mut scalar);
                match (reference, outcome) {
                    (Ok(a), Ok(b)) => assert_eq!(a.energy.to_bits(), b.energy.to_bits()),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn tables_intern_uniques_only() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(500);
        let mut soa = SoaScratch::new();
        let model = WbsnModel::shimmer();
        let _ = model.evaluate_objectives_batch(&points, &mut soa);
        // The case study offers 22 CRs × 4 clocks × 2 kinds = 176 node
        // configurations and 5 payloads × 21 order pairs MACs.
        assert!(soa.grid_len() <= 176, "grid over-interned: {}", soa.grid_len());
        assert!(soa.mac_len() <= 105, "macs over-interned: {}", soa.mac_len());
        // A second identical batch interns nothing new.
        let (g, m) = (soa.grid_len(), soa.mac_len());
        let _ = model.evaluate_objectives_batch(&points, &mut soa);
        assert_eq!((soa.grid_len(), soa.mac_len()), (g, m));
    }

    #[test]
    fn heterogeneous_node_counts_in_one_batch() {
        let model = WbsnModel::shimmer();
        let mut points = Vec::new();
        for n in [1usize, 3, 6, 17] {
            let space = DesignSpace::case_study(n);
            points.extend(space.sample_sweep(20));
        }
        assert_batch_matches_scalar(&model, &points);
        assert_full_matches_scalar(&model, &points);
    }

    /// Full-evaluation batches must reproduce the scalar `evaluate()`
    /// bit for bit: aggregate objectives, every per-node lane, identical
    /// errors, zero-filled infeasible ranges.
    fn assert_full_matches_scalar(model: &WbsnModel, points: &[DesignPoint]) {
        let mut soa = SoaScratch::new();
        let mut out = FullEvalOut::new();
        model.evaluate_batch_full(points, &mut soa, &mut out);
        assert_eq!(out.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            let r = out.node_range(i);
            assert_eq!(r.len(), p.nodes.len(), "point {i}: lane range length");
            match (model.evaluate(&p.mac, &p.nodes), &out.outcomes()[i]) {
                (Ok(eval), Ok(obj)) => {
                    assert_eq!(eval.objectives.energy.to_bits(), obj.energy.to_bits());
                    assert_eq!(eval.objectives.delay.to_bits(), obj.delay.to_bits());
                    assert_eq!(eval.objectives.prd.to_bits(), obj.prd.to_bits());
                    for (j, node) in eval.per_node.iter().enumerate() {
                        let o = r.start + j;
                        let lanes = [
                            (out.sensor()[o], node.energy.sensor.mj_per_s()),
                            (out.mcu()[o], node.energy.mcu.mj_per_s()),
                            (out.memory()[o], node.energy.memory.mj_per_s()),
                            (out.radio()[o], node.energy.radio.mj_per_s()),
                            (out.energy()[o], node.energy.total().mj_per_s()),
                            (out.delay()[o], node.delay_bound.value()),
                            (out.prd()[o], node.prd),
                        ];
                        for (got, want) in lanes {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "point {i} node {j}: {got} vs {want}"
                            );
                        }
                        assert_eq!(out.slots()[o], node.slots, "point {i} node {j}");
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(&a, b, "point {i}");
                    assert!(
                        out.energy()[r.clone()].iter().all(|&v| v == 0.0)
                            && out.slots()[r.clone()].iter().all(|&v| v == 0),
                        "point {i}: infeasible lanes must be zero-filled"
                    );
                }
                (a, b) => panic!("point {i}: feasibility disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn full_sweep_matches_scalar_bitwise() {
        let space = DesignSpace::case_study(6);
        assert_full_matches_scalar(&WbsnModel::shimmer(), &space.sample_sweep(400));
    }

    #[test]
    fn full_kernel_resolves_every_error_kind() {
        let space = DesignSpace::case_study(4);
        let mut points = space.sample_sweep(12);
        points[1].mac.payload_bytes = 0; // invalid MAC
        points[3].mac.sfo = 9;
        points[3].mac.bco = 5; // SFO > BCO
        points[5].nodes[2].cr = 0.0; // invalid CR
        points[7].nodes[0].f_mcu = Hertz::from_mhz(1.0); // DWT duty overflow
        assert_full_matches_scalar(&WbsnModel::shimmer(), &points);
        // Capacity/bandwidth errors under heavy loss.
        let lossy = WbsnModel::shimmer().with_packet_error_rate(0.92);
        assert_full_matches_scalar(&lossy, &space.sample_sweep(40));
    }

    /// The walk visits exactly the feasible points of the axis-major
    /// enumeration, in order, with their digits, the scalar objectives'
    /// bits and the full kernel's energy lane, on a space with
    /// duty-cycle, bandwidth, GTS and MAC-validation deaths. Off the
    /// dense axes it refuses before any visit.
    #[test]
    fn walk_visits_the_feasible_axis_major_points_bitwise() {
        let model = WbsnModel::shimmer().with_packet_error_rate(0.6);
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.38];
        space.f_mcu_values = [1.0, 4.0, 8.0].map(Hertz::from_mhz).to_vec();
        space.payload_values = vec![30, 114];
        space.order_pairs = vec![(4, 4), (4, 8), (9, 5), (6, 9)];
        let bits = |v: &mut dyn Iterator<Item = f64>| v.map(f64::to_bits).collect::<Vec<_>>();
        let (mut point, mut digits) = (space.point_at(0), vec![0; 6]);
        let (mut expected, mut infeasible) = (Vec::new(), 0);
        loop {
            match model.evaluate(&point.mac, &point.nodes) {
                Ok(e) => expected.push((
                    digits.clone(),
                    bits(&mut e.objectives.to_array().into_iter()),
                    bits(&mut e.per_node.iter().map(|n| n.energy.total().mj_per_s())),
                )),
                Err(_) => infeasible += 1,
            }
            if !space.step_point(&mut point, &mut digits, crate::space::DigitOrder::LastFastest) {
                break;
            }
        }
        let mut soa = SoaScratch::new();
        let mut visited = Vec::new();
        let walked = model.sweep_axis_major(&space, &mut soa, |leaf| {
            let objectives = bits(&mut leaf.objectives.to_array().into_iter());
            let lane = bits(&mut leaf.energies.iter().copied());
            visited.push((leaf.digits.to_vec(), objectives, lane));
        });
        assert_eq!(walked, Some(infeasible));
        assert!(infeasible > 0 && !expected.is_empty());
        assert_eq!(visited, expected);
        space.cr_values.push(0.175);
        let mut visits = 0;
        assert_eq!(model.sweep_axis_major(&space, &mut soa, |_| visits += 1), None);
        assert_eq!(visits, 0);
    }

    /// Mixing objective-only and full batches through one scratch shares
    /// the interned tables without cross-talk.
    #[test]
    fn full_and_objective_batches_share_one_scratch() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(300);
        let model = WbsnModel::shimmer();
        let mut soa = SoaScratch::new();
        let mut out = FullEvalOut::new();
        let objectives: Vec<PointOutcome> =
            model.evaluate_objectives_batch(&points, &mut soa).to_vec();
        model.evaluate_batch_full(&points, &mut soa, &mut out);
        let again: Vec<PointOutcome> = model.evaluate_objectives_batch(&points, &mut soa).to_vec();
        for ((a, b), c) in objectives.iter().zip(out.outcomes()).zip(&again) {
            match (a, b, c) {
                (Ok(a), Ok(b), Ok(c)) => {
                    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                    assert_eq!(a.energy.to_bits(), c.energy.to_bits());
                }
                (Err(a), Err(b), Err(c)) => {
                    assert_eq!(a, b);
                    assert_eq!(a, c);
                }
                other => panic!("outcome disagreement: {other:?}"),
            }
        }
    }
}
