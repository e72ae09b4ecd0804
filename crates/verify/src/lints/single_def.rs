//! `single-definition`: the MAC error-resolution sequence has exactly
//! one batch definition.
//!
//! The error-priority contract — MAC validation finds the *first*
//! failing node, then duty-cycle, bandwidth and GTS failures resolve in
//! that fixed order — is what makes every evaluation route return
//! bit-identical `Err` values. The scalar reference spells it out in
//! `assign_slots_into`; the `SoA` layer re-derives it once, in
//! `walk_point`, and both batch kernels (objectives, full) funnel
//! through that single copy. The whole-space walk needs only verdicts
//! and names no error. A third copy would be a fork waiting to drift.
//!
//! Detection: any non-test function mentioning **both**
//! `BandwidthExceeded` and `GtsCapacityExceeded` is a resolution site
//! (constructing or ordering the two slot-capacity failures is the
//! tail of the sequence, and nothing else in the codebase needs both).
//! Sites outside [`ALLOWED_FNS`] are violations. In `soa.rs` the lint
//! additionally checks the order inside `walk_point`: the first
//! mentions of `DutyCycleExceeded`, `BandwidthExceeded` and
//! `GtsCapacityExceeded` must appear in that resolution order.

use super::FileCtx;
use crate::tokenizer::TokKind;
use crate::Violation;

/// The two functions allowed to resolve slot-capacity errors: the
/// scalar reference and its single batch re-derivation.
pub const ALLOWED_FNS: &[&str] = &["walk_point", "assign_slots_into"];

/// The batch re-derivation lives here, and only here.
pub const BATCH_FILE: &str = "crates/core/src/soa.rs";

const DUTY: &str = "DutyCycleExceeded";
const BANDWIDTH: &str = "BandwidthExceeded";
const GTS: &str = "GtsCapacityExceeded";

/// Runs the lint on `.rs` sources under `src/` (examples, benches and
/// test targets may legitimately quote both variants).
#[must_use]
pub fn check(ctx: &FileCtx<'_>) -> Vec<Violation> {
    if !ctx.rel_path.contains("/src/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in ctx.fns {
        if f.is_test {
            continue;
        }
        let mentions = |name: &str| {
            ctx.toks[f.body.clone()].iter().position(|t| t.kind == TokKind::Ident && t.text == name)
        };
        let (bw, gts) = (mentions(BANDWIDTH), mentions(GTS));
        let allowed =
            f.name == "assign_slots_into" || (f.name == "walk_point" && ctx.rel_path == BATCH_FILE);
        if bw.is_some() && gts.is_some() && !allowed {
            out.push(Violation::new(
                "single-definition",
                ctx.rel_path,
                f.line,
                format!(
                    "fn `{}` resolves both {BANDWIDTH} and {GTS} — the MAC \
                     error-resolution sequence is defined once in `walk_point` \
                     (scalar reference: `assign_slots_into`); call it instead of \
                     re-deriving the order",
                    f.name
                ),
            ));
        }
        if ctx.rel_path == BATCH_FILE && f.name == "walk_point" {
            let duty = mentions(DUTY);
            let ordered = matches!((duty, bw, gts), (Some(d), Some(b), Some(g)) if d < b && b < g);
            if !ordered {
                out.push(Violation::new(
                    "single-definition",
                    ctx.rel_path,
                    f.line,
                    format!(
                        "`walk_point` must resolve errors in the fixed priority order \
                         {DUTY} < {BANDWIDTH} < {GTS}; the first mention of each must \
                         appear in that order"
                    ),
                ));
            }
        }
    }
    out
}
