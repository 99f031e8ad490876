//! Compiled plan tapes: a [`DecodePlan`] lowered to flat instruction
//! lists. The tape is the only thing the executor runs (`crate::exec`):
//! a decode replays pure region arithmetic, never the plan's term graph.
//!
//! Lowering happens once per plan — [`crate::PlanCache`] compiles at
//! insert time via [`DecodePlan::ensure_tape`], a bare plan on its first
//! decode — and fixes everything a decode needs ahead of time:
//!
//! * each phase-A sub-plan and the phase-B `H_rest` program become one
//!   [`TapeSegment`]: a `Vec<Instr>` of `{kernel, src, dst, op}` records
//!   whose kernels are `Arc`-shared [`RegionMul`] tables (the isa-l
//!   `ec_init_tables` pattern — tables initialized per plan, not per
//!   region call);
//! * the segment's scratch layout is precomputed: slot counts are fixed
//!   at compile time, so execution makes **one** arena reservation per
//!   segment and slices it, instead of allocating a `Vec<Vec<u8>>` of
//!   per-destination buffers;
//! * consecutive `mult_XORs` sharing a destination are fused into one
//!   multi-source accumulate ([`ppm_gf::mul_copy_fused`]): the first
//!   instruction of a run is [`OpCode::MulCopy`] — an *overwrite*, since
//!   every slot is written by exactly one run and the compiler knows its
//!   first touch — continuations are [`OpCode::MulXorFusedCont`], and
//!   the executor applies the whole run block-by-block so the
//!   destination is written from cache rather than streamed from memory
//!   once per term. Overwriting heads let the executor take *unzeroed*
//!   scratch ([`crate::ScratchArena::take_dirty`]), so no decode pays a
//!   zeroing sweep;
//! * surplus verify rows lower to per-row fused runs into a single
//!   accumulator slot, and the update path's delta plan is lowered
//!   analogously by [`crate::UpdatePlan`] into per-column patch lists.
//!
//! The fusion rule never reorders terms across destinations — a run is a
//! *consecutive* group sharing one `dst`, in program order — and per-byte
//! XOR accumulation is order-independent, so tape execution is
//! bit-identical to evaluating the plan term by term (the word-level
//! oracle in `tests/common` pins this). The cost-model invariant carries
//! over unchanged: the tape holds exactly one instruction per predicted
//! `mult_XORs`, so executed == predicted holds on every decode.

use crate::cost::CostReport;
use crate::plan::{DecodePlan, Program, RegionCache, SubPlan};
use ppm_gf::{GfWord, RegionMul};
use std::sync::Arc;

/// Where a tape instruction reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// A stripe sector (a surviving input, or for verify runs any sector
    /// of the reconstructed stripe).
    Sector(usize),
    /// A scratch slot of the segment's single arena reservation.
    Slot(usize),
}

/// What an instruction does with its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpCode {
    /// `slot[dst] = kernel · src`, starting a new destination run. The
    /// head *overwrites*: every slot is written by exactly one run, so
    /// the compiler knows this is the slot's first touch — the executor
    /// can take unzeroed scratch and skip the arena's zeroing sweep.
    MulCopy,
    /// Continuation of the run started by the nearest preceding
    /// [`OpCode::MulCopy`]: `slot[dst] ^= kernel · src`, same
    /// destination, folded by the executor into one fused multi-source
    /// accumulate.
    MulXorFusedCont,
}

/// One lowered `mult_XORs`: `slot[dst] (^)= kernel · src`.
#[derive(Debug)]
pub(crate) struct Instr<W: GfWord> {
    /// Shared multiply-by-constant kernel (tables built once per plan).
    pub(crate) kernel: Arc<RegionMul<W>>,
    /// Source region.
    pub(crate) src: Loc,
    /// Destination slot in the segment's reservation.
    pub(crate) dst: usize,
    /// Run-start or fused continuation.
    pub(crate) op: OpCode,
}

/// One sub-plan (an independent `Hᵢ` or `H_rest`) lowered to a flat
/// instruction run with a precomputed scratch layout.
///
/// Slot layout of the single arena reservation, in sector-sized units:
/// slots `0..scratch_slots` are intermediates (`T = S · BS` accumulators
/// of the Normal sequence), slots `scratch_slots..total_slots()` are the
/// recovered outputs. Instructions before `scratch_boundary` write
/// intermediate slots reading only stripe sectors; instructions after it
/// write output slots reading sectors or intermediates — so the executor
/// can split the reservation once and never alias a live borrow.
#[derive(Debug)]
pub(crate) struct TapeSegment<W: GfWord> {
    /// Instructions in execution order.
    pub(crate) instrs: Vec<Instr<W>>,
    /// Index into `instrs` where the output-writing section starts.
    pub(crate) scratch_boundary: usize,
    /// Number of intermediate slots.
    pub(crate) scratch_slots: usize,
    /// Per output: its absolute slot index and the stripe sector it
    /// installs to. Output `i` lives in slot `scratch_slots + i`.
    pub(crate) outputs: Vec<(usize, usize)>,
    /// Slots whose term list lowered to nothing (degenerate all-zero
    /// rows): no run writes them, so the executor must zero them
    /// explicitly — the reservation is otherwise taken unzeroed.
    pub(crate) zero_slots: Vec<usize>,
}

impl<W: GfWord> TapeSegment<W> {
    /// Sector-sized slots in the segment's reservation.
    pub(crate) fn total_slots(&self) -> usize {
        self.scratch_slots + self.outputs.len()
    }
}

/// One surplus parity-check row lowered to a fused run accumulating the
/// row's check value into a single scratch slot.
#[derive(Debug)]
pub(crate) struct VerifyRun<W: GfWord> {
    /// Global `H` row index (reported on violation).
    pub(crate) row: usize,
    /// The row's terms, all targeting slot 0.
    pub(crate) instrs: Vec<Instr<W>>,
}

/// A [`DecodePlan`] compiled to linear instruction tapes — what every
/// `Decoder`/`Executor` decode and verify entry point executes.
///
/// Obtained via [`DecodePlan::ensure_tape`], or rebuilt from a
/// [`WirePlan`](crate::WirePlan) on a machine that never saw the plan.
/// Compilation preserves the §III-B cost model exactly: one instruction
/// per predicted `mult_XORs`.
#[derive(Debug)]
pub struct PlanTape<W: GfWord> {
    /// One segment per independent sub-matrix (parallel in phase A).
    pub(crate) phase_a: Vec<TapeSegment<W>>,
    /// The `H_rest` segment, run after phase-A outputs install.
    pub(crate) phase_b: Option<TapeSegment<W>>,
    /// Surplus verify rows (empty for restricted plans).
    pub(crate) verify: Vec<VerifyRun<W>>,
    /// Sectors in the stripe geometry the tape expects.
    pub(crate) total_sectors: usize,
    /// The concrete strategy of the plan the tape was lowered from.
    pub(crate) strategy: crate::plan::Strategy,
    /// `C₁..C₄` of the plan's candidates, when it was chosen by
    /// [`Strategy::PpmAuto`](crate::Strategy::PpmAuto) (never travels
    /// over the wire).
    pub(crate) predicted_costs: Option<CostReport>,
    mult_xors: usize,
    verify_mult_xors: usize,
}

impl<W: GfWord> PlanTape<W> {
    /// Lowers `plan` — called once per plan by
    /// [`DecodePlan::ensure_tape`].
    pub(crate) fn compile(plan: &DecodePlan<W>) -> Self {
        let phase_a: Vec<TapeSegment<W>> = plan
            .phase_a
            .iter()
            .map(|sp| lower_subplan(sp, &plan.regions))
            .collect();
        let phase_b = plan
            .phase_b
            .as_ref()
            .map(|sp| lower_subplan(sp, &plan.regions));
        let verify: Vec<VerifyRun<W>> = plan
            .surplus
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|(row, terms)| {
                let mut instrs = Vec::with_capacity(terms.len());
                emit_run(
                    &mut instrs,
                    0,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    &plan.regions,
                );
                VerifyRun { row: *row, instrs }
            })
            .collect();
        #[cfg(debug_assertions)]
        #[allow(clippy::indexing_slicing)] // bounds asserted by construction
        for seg in phase_a.iter().chain(&phase_b) {
            // Unzeroed-scratch soundness: every slot of the reservation
            // is either overwritten by exactly one run head or listed
            // for explicit zeroing.
            let mut written = vec![false; seg.total_slots()];
            for instr in &seg.instrs {
                if instr.op == OpCode::MulCopy {
                    debug_assert!(!written[instr.dst], "slot written by two run heads");
                    written[instr.dst] = true;
                } else {
                    debug_assert!(written[instr.dst], "continuation before its head");
                }
            }
            for &slot in &seg.zero_slots {
                debug_assert!(!written[slot], "zero slot also written by a run");
                written[slot] = true;
            }
            debug_assert!(
                written.iter().all(|&w| w),
                "a slot is neither written nor zeroed"
            );
        }
        let tape = PlanTape::from_parts(
            phase_a,
            phase_b,
            verify,
            plan.total_sectors(),
            plan.strategy(),
            plan.predicted_costs(),
        );
        debug_assert_eq!(
            tape.mult_xors,
            plan.mult_xors(),
            "tape lowering must preserve the plan's predicted cost"
        );
        tape
    }

    /// Assembles a tape from already-validated segments, deriving the
    /// instruction counts. Shared by [`PlanTape::compile`] and
    /// [`WirePlan::compile`](crate::WirePlan::compile).
    pub(crate) fn from_parts(
        phase_a: Vec<TapeSegment<W>>,
        phase_b: Option<TapeSegment<W>>,
        verify: Vec<VerifyRun<W>>,
        total_sectors: usize,
        strategy: crate::plan::Strategy,
        predicted_costs: Option<CostReport>,
    ) -> Self {
        let mult_xors = phase_a.iter().map(|s| s.instrs.len()).sum::<usize>()
            + phase_b.as_ref().map_or(0, |s| s.instrs.len());
        let verify_mult_xors = verify.iter().map(|r| r.instrs.len()).sum();
        PlanTape {
            phase_a,
            phase_b,
            verify,
            total_sectors,
            strategy,
            predicted_costs,
            mult_xors,
            verify_mult_xors,
        }
    }

    /// Total decode instructions — equal to the plan's predicted
    /// `mult_XORs`, since every instruction is exactly one region op.
    pub fn mult_xors(&self) -> usize {
        self.mult_xors
    }

    /// Total verify-section instructions — equal to the plan's
    /// [`DecodePlan::verify_mult_xors`].
    pub fn verify_mult_xors(&self) -> usize {
        self.verify_mult_xors
    }

    /// Number of decode segments (phase-A parallelism plus `H_rest`).
    pub fn segments(&self) -> usize {
        self.phase_a.len() + usize::from(self.phase_b.is_some())
    }

    /// Number of fused continuations — instructions folded into a
    /// preceding run instead of streaming the destination again.
    pub fn fused_continuations(&self) -> usize {
        self.phase_a
            .iter()
            .flat_map(|s| &s.instrs)
            .chain(self.phase_b.iter().flat_map(|s| &s.instrs))
            .filter(|i| i.op == OpCode::MulXorFusedCont)
            .count()
    }
}

/// Emits one destination's terms as a fused run: first instruction
/// [`OpCode::MulCopy`] (the overwriting head), continuations
/// [`OpCode::MulXorFusedCont`]. Term order within the run is exactly
/// the program's term order; runs for distinct destinations are never
/// interleaved. Returns whether anything was emitted — an empty term
/// list produces no run, and the caller must record the destination as
/// a zero slot.
fn emit_run<W: GfWord>(
    instrs: &mut Vec<Instr<W>>,
    dst: usize,
    terms: impl Iterator<Item = (W, Loc)>,
    regions: &RegionCache<W>,
) -> bool {
    let mut emitted = false;
    for (i, (c, src)) in terms.enumerate() {
        emitted = true;
        instrs.push(Instr {
            kernel: regions.get_arc(c),
            src,
            dst,
            op: if i == 0 {
                OpCode::MulCopy
            } else {
                OpCode::MulXorFusedCont
            },
        });
    }
    emitted
}

/// Lowers one sub-plan to a [`TapeSegment`].
pub(crate) fn lower_subplan<W: GfWord>(
    sp: &SubPlan<W>,
    regions: &RegionCache<W>,
) -> TapeSegment<W> {
    let mut instrs = Vec::new();
    match &sp.program {
        Program::MatrixFirst { outputs } => {
            let mut outs = Vec::with_capacity(outputs.len());
            let mut zero_slots = Vec::new();
            for (slot, (sector, terms)) in outputs.iter().enumerate() {
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
                outs.push((slot, *sector));
            }
            TapeSegment {
                instrs,
                scratch_boundary: 0,
                scratch_slots: 0,
                outputs: outs,
                zero_slots,
            }
        }
        Program::Normal { t_terms, f_terms } => {
            let scratch_slots = t_terms.len();
            let mut zero_slots = Vec::new();
            for (slot, terms) in t_terms.iter().enumerate() {
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
            }
            let scratch_boundary = instrs.len();
            let mut outs = Vec::with_capacity(f_terms.len());
            for (i, (sector, terms)) in f_terms.iter().enumerate() {
                let slot = scratch_slots + i;
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, e)| (c, Loc::Slot(e))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
                outs.push((slot, *sector));
            }
            TapeSegment {
                instrs,
                scratch_boundary,
                scratch_slots,
                outputs: outs,
                zero_slots,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::Strategy as PlanStrategy;
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use ppm_gf::Backend;
    use proptest::prelude::*;

    fn paper_plan() -> DecodePlan<u8> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        DecodePlan::build(&h, &sc, PlanStrategy::PpmNormalRest, Backend::Scalar).unwrap()
    }

    #[test]
    fn compile_preserves_cost_and_structure() {
        let plan = paper_plan();
        let tape = plan.ensure_tape();
        assert_eq!(tape.mult_xors(), plan.mult_xors());
        assert_eq!(tape.mult_xors(), 29);
        assert_eq!(tape.verify_mult_xors(), plan.verify_mult_xors());
        assert_eq!(tape.phase_a.len(), plan.parallelism());
        assert_eq!(tape.phase_b.is_some(), plan.has_phase_b());
        assert_eq!(tape.verify.len(), plan.verify_rows());
        // The OnceLock caches: a second call hands back the same tape.
        assert!(std::ptr::eq(tape, plan.ensure_tape()));
    }

    #[test]
    fn kernels_are_shared_with_the_plan() {
        let plan = paper_plan();
        let tape = plan.ensure_tape();
        for instr in tape
            .phase_a
            .iter()
            .flat_map(|s| &s.instrs)
            .chain(tape.phase_b.iter().flat_map(|s| &s.instrs))
        {
            let owned = plan.regions.get_arc(instr.kernel.constant());
            assert!(
                Arc::ptr_eq(&instr.kernel, &owned),
                "instruction kernel must share the plan's table"
            );
        }
    }

    #[test]
    fn segment_layout_separates_scratch_from_outputs() {
        let plan = paper_plan();
        let tape = plan.ensure_tape();
        for seg in tape.phase_a.iter().chain(&tape.phase_b) {
            for (i, instr) in seg.instrs.iter().enumerate() {
                if i < seg.scratch_boundary {
                    assert!(instr.dst < seg.scratch_slots);
                    assert!(matches!(instr.src, Loc::Sector(_)));
                } else {
                    assert!(instr.dst >= seg.scratch_slots);
                    assert!(instr.dst < seg.total_slots());
                    if let Loc::Slot(e) = instr.src {
                        assert!(e < seg.scratch_slots);
                    }
                }
            }
        }
    }

    /// Splits a segment's instruction list into its maximal same-`dst`
    /// runs, checking the opcode discipline along the way.
    fn runs(instrs: &[Instr<u8>]) -> Vec<(usize, Vec<(u8, Loc)>)> {
        let mut out: Vec<(usize, Vec<(u8, Loc)>)> = Vec::new();
        for instr in instrs {
            match instr.op {
                OpCode::MulCopy => {
                    out.push((instr.dst, vec![(instr.kernel.constant(), instr.src)]));
                }
                OpCode::MulXorFusedCont => {
                    let last = out.last_mut().expect("continuation without a run start");
                    assert_eq!(last.0, instr.dst, "continuation switched destination");
                    last.1.push((instr.kernel.constant(), instr.src));
                }
            }
        }
        out
    }

    /// Strategy: a small Normal program — per-destination term lists with
    /// non-zero coefficients over a handful of sources.
    fn term_lists(max_dests: usize) -> impl Strategy<Value = Vec<Vec<(u8, usize)>>> {
        proptest::collection::vec(
            proptest::collection::vec((1u8..=255, 0usize..8), 0..5),
            0..max_dests,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fusion never reorders terms across distinct destinations: the
        /// lowered tape is exactly one contiguous run per destination, in
        /// program order, with each run's terms in program order.
        #[test]
        fn fusion_preserves_program_order(
            t_terms in term_lists(4),
            f_terms in term_lists(4),
        ) {
            let scratch = t_terms.len();
            let program = Program::Normal {
                t_terms: t_terms.clone(),
                // f-term scratch indices must point at real T slots; an
                // empty t_terms forces empty f-term lists.
                f_terms: f_terms
                    .iter()
                    .enumerate()
                    .map(|(i, terms)| {
                        let terms = if scratch == 0 {
                            Vec::new()
                        } else {
                            terms.iter().map(|&(c, e)| (c, e % scratch)).collect()
                        };
                        (100 + i, terms)
                    })
                    .collect(),
            };
            let regions = RegionCache::build(
                program_coeffs(&program),
                Backend::Scalar,
            );
            let seg = lower_subplan(&SubPlan { program: program.clone() }, &regions);

            let got = runs(&seg.instrs);
            // Expected runs: every destination with at least one term, in
            // program order (T slots first, then outputs).
            let mut expect: Vec<(usize, Vec<(u8, Loc)>)> = Vec::new();
            if let Program::Normal { t_terms, f_terms } = &program {
                for (slot, terms) in t_terms.iter().enumerate() {
                    if !terms.is_empty() {
                        expect.push((
                            slot,
                            terms.iter().map(|&(c, s)| (c, Loc::Sector(s))).collect(),
                        ));
                    }
                }
                for (i, (_, terms)) in f_terms.iter().enumerate() {
                    if !terms.is_empty() {
                        expect.push((
                            scratch + i,
                            terms.iter().map(|&(c, e)| (c, Loc::Slot(e))).collect(),
                        ));
                    }
                }
            }
            prop_assert_eq!(got, expect);

            // Each destination appears in exactly one maximal run.
            let mut seen = std::collections::HashSet::new();
            for (dst, _) in runs(&seg.instrs) {
                prop_assert!(seen.insert(dst), "destination {} split across runs", dst);
            }
        }
    }

    /// All coefficients of a program, for building a region cache.
    fn program_coeffs(program: &Program<u8>) -> Vec<u8> {
        match program {
            Program::MatrixFirst { outputs } => outputs
                .iter()
                .flat_map(|(_, t)| t.iter().map(|&(c, _)| c))
                .collect(),
            Program::Normal { t_terms, f_terms } => t_terms
                .iter()
                .flatten()
                .map(|&(c, _)| c)
                .chain(f_terms.iter().flat_map(|(_, t)| t.iter().map(|&(c, _)| c)))
                .collect(),
        }
    }
}
