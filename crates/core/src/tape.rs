//! Compiled plan tapes: a [`DecodePlan`] lowered to flat instruction
//! lists. The tape is the only plan form that executes (`crate::exec`)
//! or travels ([`WirePlan`](crate::WirePlan)): a decode replays pure
//! region arithmetic, never the plan's term graph.
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
//! * the segment's slot layout is precomputed: output slots name the
//!   stripe sectors they are written into, in place, and the `T = S · BS`
//!   intermediates of a Normal `H_rest` are its only scratch, so a decode
//!   makes **one** arena reservation per span (none at all without
//!   `T` slots) instead of allocating per-destination buffers;
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
//!   accumulator slot — on the plan's first verify, not at compile
//!   ([`PlanTape::compile`] leaves the section empty and
//!   [`DecodePlan::verify_runs`] fills it once), so a plan that only
//!   repairs never builds the surplus rows' kernels. A wire-compiled tape
//!   has no plan and carries its verify runs from the bytes. Small writes
//!   use the same kernels and fused accumulate without a tape:
//!   [`crate::UpdatePlan`] holds each data column's kernels, and
//!   [`RepairService::apply_update`](crate::RepairService::apply_update)
//!   runs one fused run per touched parity;
//! * the runs are grouped into [`Bundle`]s, derived in
//!   [`PlanTape::from_parts`] so wire-compiled tapes get them too (they
//!   never travel). A tape has three [`Domain`]s whose runs never read
//!   each other's destinations — every phase-A run (phase A is
//!   matrix-first, independent sub-matrices), `H_rest`'s scratch section
//!   and its output section — so runs group across segments and in any
//!   order: runs that read the same set of sources bundle, up to four. A
//!   bundle of two or more runs whose kernels qualify executes as one
//!   pass over the shared sources through [`ppm_gf::MultiDot`]; any other
//!   runs run by run. In `encode_mid`'s LRC(12,2,2) encode each row's two
//!   global parities share a pass over the row's 12 data sectors, so a
//!   data sector is read twice instead of three times.
//!
//! [`Instr`], [`TapeSegment`] and [`VerifyRun`] are generic over their
//! kernel: an executable tape holds [`Kernel`]s, a wire plan the same
//! structs with each kernel's GF constant as a `u64`, and
//! `map_kernels` converts one into the other. One validator, [`check`],
//! states the invariants the executor's unzeroed-scratch fast path and
//! its slicing rely on; it guards every wire plan before compilation
//! and, in debug builds, every tape the in-process compiler emits.
//!
//! The fusion rule never reorders terms across destinations — a run is a
//! *consecutive* group sharing one `dst`, in program order — and per-byte
//! XOR accumulation is order-independent, so tape execution is
//! bit-identical to evaluating the plan term by term (the word-level
//! oracle in `tests/common` pins this). The cost-model invariant carries
//! over unchanged: the tape holds exactly one instruction per predicted
//! `mult_XORs`, so executed == predicted holds on every decode.

use crate::cost::CostReport;
use crate::plan::{DecodePlan, Program, RegionCache, SubPlan, SurplusRow};
use ppm_gf::{GfWord, MultiDot, RegionMul};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The kernel of an executable tape instruction: a multiply-by-constant
/// table shared by every instruction of the plan that uses the constant.
pub(crate) type Kernel<W> = Arc<RegionMul<W>>;

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Instr<K> {
    /// The multiply-by-constant: a [`Kernel`] to execute, or its GF
    /// constant on the wire.
    pub(crate) kernel: K,
    /// Source region.
    pub(crate) src: Loc,
    /// Destination slot in the segment's reservation.
    pub(crate) dst: usize,
    /// Run-start or fused continuation.
    pub(crate) op: OpCode,
}

/// Converts every instruction's kernel with `f`, keeping the rest.
fn map_kernels<K, K2, E>(
    instrs: &[Instr<K>],
    f: &mut impl FnMut(&K) -> Result<K2, E>,
) -> Result<Vec<Instr<K2>>, E> {
    // Sized up front: collecting into `Result<Vec<_>, _>` loses the
    // exact length and regrows the vector.
    let mut out = Vec::with_capacity(instrs.len());
    for i in instrs {
        out.push(Instr {
            kernel: f(&i.kernel)?,
            src: i.src,
            dst: i.dst,
            op: i.op,
        });
    }
    Ok(out)
}

/// One sub-plan (an independent `Hᵢ` or `H_rest`) lowered to a flat
/// instruction run with a precomputed scratch layout.
///
/// Slot layout, in sector-sized units: slots `0..scratch_slots` are
/// intermediates (`T = S · BS` accumulators of the Normal sequence, the
/// segment's arena reservation), slots `scratch_slots..total_slots()` are
/// the recovered outputs, each written in place into the sector
/// `outputs` names. Instructions before `scratch_boundary` write
/// intermediate slots reading only stripe sectors; instructions after it
/// write outputs reading sectors or intermediates, never a sector the
/// segment outputs ([`check`]) — so no read aliases a write, and a
/// Normal `H_rest` splits across the wire at the boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TapeSegment<K> {
    /// Instructions in execution order.
    pub(crate) instrs: Vec<Instr<K>>,
    /// Index into `instrs` where the output-writing section starts.
    pub(crate) scratch_boundary: usize,
    /// Number of intermediate slots.
    pub(crate) scratch_slots: usize,
    /// Per output: its absolute slot index and the stripe sector it is
    /// written into. Output `i` is slot `scratch_slots + i`.
    pub(crate) outputs: Vec<(usize, usize)>,
    /// Slots whose term list lowered to nothing (degenerate all-zero
    /// rows): no run writes them, so the executor must zero them
    /// explicitly — the reservation is otherwise taken unzeroed.
    pub(crate) zero_slots: Vec<usize>,
}

/// One half of a [`TapeSegment`], split at its scratch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Section {
    /// The intermediate `T` slots, computed from stripe sectors.
    Scratch,
    /// The output slots, computed from sectors and intermediates.
    Output,
}

impl<K> TapeSegment<K> {
    /// Sector-sized slots in the segment's reservation.
    pub(crate) fn total_slots(&self) -> usize {
        self.scratch_slots + self.outputs.len()
    }

    /// The instructions of one section and the absolute slots it writes.
    //
    // In bounds by [`check`]: the boundary lies inside `instrs`.
    #[allow(clippy::indexing_slicing)]
    pub(crate) fn section(&self, section: Section) -> (&[Instr<K>], std::ops::Range<usize>) {
        match section {
            Section::Scratch => (&self.instrs[..self.scratch_boundary], 0..self.scratch_slots),
            Section::Output => (
                &self.instrs[self.scratch_boundary..],
                self.scratch_slots..self.total_slots(),
            ),
        }
    }

    /// Where slot `slot` lives in the span view (see [`Domain`]): a `T`
    /// slot after the stripe's sectors, an output slot in its sector.
    pub(crate) fn view_index(&self, slot: usize, total_sectors: usize) -> Option<usize> {
        match slot.checked_sub(self.scratch_slots) {
            None => Some(total_sectors + slot),
            Some(i) => self.outputs.get(i).map(|&(_, sector)| sector),
        }
    }

    /// The same segment with every kernel converted by `f`.
    pub(crate) fn map_kernels<K2, E>(
        &self,
        f: &mut impl FnMut(&K) -> Result<K2, E>,
    ) -> Result<TapeSegment<K2>, E> {
        Ok(TapeSegment {
            instrs: map_kernels(&self.instrs, f)?,
            scratch_boundary: self.scratch_boundary,
            scratch_slots: self.scratch_slots,
            outputs: self.outputs.clone(),
            zero_slots: self.zero_slots.clone(),
        })
    }
}

/// Most runs one [`Bundle`] computes: the multi-destination kernel's
/// destination limit.
pub(crate) const BUNDLE_RUNS: usize = MultiDot::MAX_DESTS;

/// One fused run of a tape, addressed for in-place execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    /// Its segment: phase-A segments in order, then `H_rest`.
    pub(crate) seg: usize,
    /// Its instructions, `instrs[range]` of that segment.
    pub(crate) instrs: Range<usize>,
    /// Its destination in the span view (see [`Domain`]).
    pub(crate) dst: usize,
}

/// Runs that read the same sources and execute as one pass over them.
#[derive(Debug)]
pub(crate) struct Bundle {
    /// One to [`BUNDLE_RUNS`] runs over the same sources.
    pub(crate) runs: Vec<Run>,
    /// For a bundle of two or more runs whose kernels the
    /// multi-destination kernel runs: its table over the shared sources,
    /// and those sources' view indices in table order. `None` runs each
    /// run on its own through the fused kernel.
    pub(crate) multi: Option<(MultiDot, Vec<usize>)>,
}

/// One execution domain: runs that never read each other's
/// destinations, so they execute in any order and group into bundles
/// freely. A tape has three: every phase-A run, the `H_rest` scratch
/// section and the `H_rest` output section.
///
/// Indices address the *span view* of a decode: entries
/// `0..total_sectors` are the span's sector ranges, written in place,
/// and entries `total_sectors..` the `H_rest` segment's `T` slots.
#[derive(Debug, Default)]
pub(crate) struct Domain {
    /// View entries to zero first: destinations whose term list lowered
    /// to nothing.
    pub(crate) zero: Vec<usize>,
    pub(crate) bundles: Vec<Bundle>,
}

/// One surplus parity-check row lowered to a fused run accumulating the
/// row's check value into a single scratch slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VerifyRun<K> {
    /// Global `H` row index (reported on violation).
    pub(crate) row: usize,
    /// The row's terms, all targeting slot 0.
    pub(crate) instrs: Vec<Instr<K>>,
}

impl<K> VerifyRun<K> {
    /// The same run with every kernel converted by `f`.
    pub(crate) fn map_kernels<K2, E>(
        &self,
        f: &mut impl FnMut(&K) -> Result<K2, E>,
    ) -> Result<VerifyRun<K2>, E> {
        Ok(VerifyRun {
            row: self.row,
            instrs: map_kernels(&self.instrs, f)?,
        })
    }
}

/// A [`DecodePlan`] compiled to linear instruction tapes — what every
/// decode and verify entry point executes, in process or on a cluster
/// node.
///
/// Obtained via [`DecodePlan::ensure_tape`], or rebuilt from a
/// [`WirePlan`](crate::WirePlan) on a machine that never saw the plan
/// ([`WirePlan::compile`](crate::WirePlan::compile)). Compilation
/// preserves the §III-B cost model exactly: one instruction per
/// predicted `mult_XORs`.
#[derive(Debug)]
pub struct PlanTape<W: GfWord> {
    /// One segment per independent sub-matrix (parallel in phase A).
    pub(crate) phase_a: Vec<TapeSegment<Kernel<W>>>,
    /// The `H_rest` segment, run after phase A wrote its outputs.
    pub(crate) phase_b: Option<TapeSegment<Kernel<W>>>,
    /// Surplus verify rows, lowered on the plan's first verify
    /// ([`DecodePlan::verify_runs`]) or set from a wire plan's bytes.
    /// Empty once lowered for a restricted plan.
    pub(crate) verify: OnceLock<Vec<VerifyRun<Kernel<W>>>>,
    /// Sectors in the stripe geometry the tape expects.
    pub(crate) total_sectors: usize,
    /// The faulty sectors the tape recovers, ascending.
    faulty: Vec<usize>,
    /// The concrete strategy of the plan the tape was lowered from.
    pub(crate) strategy: crate::plan::Strategy,
    /// `C₁..C₄` of the plan's candidates, when it was chosen by
    /// [`Strategy::PpmAuto`](crate::Strategy::PpmAuto) (never travels
    /// over the wire).
    pub(crate) predicted_costs: Option<CostReport>,
    /// The execution domains, derived from the segments: every phase-A
    /// run, then the `H_rest` scratch and output sections.
    pub(crate) domains: [Domain; 3],
    mult_xors: usize,
    rest_splittable: bool,
}

impl<W: GfWord> PlanTape<W> {
    /// Lowers `plan`'s decode programs — called once per plan by
    /// [`DecodePlan::ensure_tape`]. The verify section stays unlowered
    /// until the plan's first verify.
    pub(crate) fn compile(plan: &DecodePlan<W>) -> Self {
        let phase_a: Vec<TapeSegment<Kernel<W>>> = plan
            .phase_a
            .iter()
            .map(|sp| lower_subplan(sp, &plan.regions))
            .collect();
        let phase_b = plan
            .phase_b
            .as_ref()
            .map(|sp| lower_subplan(sp, &plan.regions));
        let tape = PlanTape::from_parts(
            phase_a,
            phase_b,
            None,
            plan.total_sectors(),
            plan.faulty().to_vec(),
            plan.strategy(),
            plan.predicted_costs(),
        );
        debug_assert_eq!(
            check(
                &tape.phase_a,
                tape.phase_b.as_ref(),
                &[],
                &tape.faulty,
                tape.total_sectors
            ),
            Ok(()),
            "the tape compiler emitted a tape the wire validator rejects"
        );
        debug_assert_eq!(
            tape.mult_xors,
            plan.mult_xors(),
            "tape lowering must preserve the plan's predicted cost"
        );
        tape
    }

    /// Assembles a tape from segments that pass [`check`], deriving the
    /// instruction count and [`PlanTape::rest_splittable`]. Shared by
    /// [`PlanTape::compile`] (`verify` is `None`: the plan lowers it on
    /// first verify) and [`WirePlan::compile`](crate::WirePlan::compile)
    /// (`verify` comes with the bytes).
    pub(crate) fn from_parts(
        phase_a: Vec<TapeSegment<Kernel<W>>>,
        phase_b: Option<TapeSegment<Kernel<W>>>,
        verify: Option<Vec<VerifyRun<Kernel<W>>>>,
        total_sectors: usize,
        faulty: Vec<usize>,
        strategy: crate::plan::Strategy,
        predicted_costs: Option<CostReport>,
    ) -> Self {
        let mult_xors = phase_a.iter().map(|s| s.instrs.len()).sum::<usize>()
            + phase_b.as_ref().map_or(0, |s| s.instrs.len());
        let rest_splittable = phase_b.as_ref().is_some_and(|seg| {
            seg.instrs
                .get(seg.scratch_boundary..)
                .is_some_and(|outs| outs.iter().all(|i| matches!(i.src, Loc::Slot(_))))
        });
        let n = total_sectors;
        let domains = [
            Domain::derive(
                phase_a
                    .iter()
                    .enumerate()
                    .map(|(i, seg)| (i, seg, Section::Output)),
                n,
            ),
            Domain::derive(
                phase_b
                    .iter()
                    .map(|seg| (phase_a.len(), seg, Section::Scratch)),
                n,
            ),
            Domain::derive(
                phase_b
                    .iter()
                    .map(|seg| (phase_a.len(), seg, Section::Output)),
                n,
            ),
        ];
        PlanTape {
            phase_a,
            phase_b,
            verify: verify.map_or_else(OnceLock::new, OnceLock::from),
            total_sectors,
            faulty,
            strategy,
            predicted_costs,
            domains,
            mult_xors,
            rest_splittable,
        }
    }

    /// Segment `i`: phase-A segments in order, then `H_rest`.
    pub(crate) fn segment(&self, i: usize) -> Option<&TapeSegment<Kernel<W>>> {
        self.phase_a
            .get(i)
            .or_else(|| self.phase_b.as_ref().filter(|_| i == self.phase_a.len()))
    }

    /// Total decode instructions — equal to the plan's predicted
    /// `mult_XORs`, since every instruction is exactly one region op.
    pub fn mult_xors(&self) -> usize {
        self.mult_xors
    }

    /// Instructions of the lowered verify section: a wire-compiled
    /// tape's, or an in-process tape's once its plan has verified —
    /// then equal to the plan's [`DecodePlan::verify_mult_xors`], which
    /// is exact without lowering. `0` while the section is unlowered.
    pub fn verify_mult_xors(&self) -> usize {
        self.verify
            .get()
            .map_or(0, |runs| runs.iter().map(|r| r.instrs.len()).sum())
    }

    /// The faulty sectors the tape recovers, ascending.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// Sectors in the stripe geometry the tape expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors
    }

    /// Phase-A parallelism (independent sub-matrix segments).
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the tape carries an `H_rest` phase-B segment.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Whether phase B splits across nodes: true when every output-
    /// section instruction of `H_rest` reads intermediate `T` slots only
    /// (the Normal sequence), so a survivor host can compute the
    /// partial-sum `T` blocks from its local sectors and ship *those* —
    /// `z_b` blocks — instead of whole surviving sectors, and the
    /// aggregator finishes `F⁻¹ · T` without ever seeing the stripe.
    /// False for a matrix-first `H_rest`, which reads sectors directly.
    pub fn rest_splittable(&self) -> bool {
        self.rest_splittable
    }

    /// Number of partial-sum (`T`) blocks a split phase B ships — the
    /// scratch slots of the `H_rest` segment (0 without a phase B).
    pub fn rest_scratch_slots(&self) -> usize {
        self.phase_b.as_ref().map_or(0, |seg| seg.scratch_slots)
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

impl Domain {
    /// Collects the runs of the given segment sections (`(segment index,
    /// segment, section)`) and groups them into bundles by one rule: runs
    /// that read the same set of sources bundle, up to [`BUNDLE_RUNS`] at
    /// a time ([`group`]). So every term of a bundle is a real product:
    /// the branch-free kernel multiplies each source into every
    /// destination, and a run over a subset of the sources would spend a
    /// zero-matrix product per missing term.
    ///
    /// A run that lists one source twice stays alone (its terms would
    /// share a table entry). A bundle of two or more runs takes the
    /// multi-destination kernel when its kernels allow
    /// ([`MultiDot::new`]).
    ///
    /// The segments must pass [`check`]; every index is then in range.
    fn derive<'s, W: GfWord>(
        sections: impl Iterator<Item = (usize, &'s TapeSegment<Kernel<W>>, Section)>,
        total_sectors: usize,
    ) -> Domain {
        let mut zero = Vec::new();
        let mut runs: Vec<RunTerms<'s, W>> = Vec::new();
        for (seg_index, seg, section) in sections {
            let (instrs, slots) = seg.section(section);
            zero.extend(
                seg.zero_slots
                    .iter()
                    .filter(|z| slots.contains(z))
                    .filter_map(|&z| seg.view_index(z, total_sectors)),
            );
            let base = match section {
                Section::Scratch => 0,
                Section::Output => seg.scratch_boundary,
            };
            let mut start = 0;
            while let Some(head) = instrs.get(start) {
                let len = 1 + instrs
                    .get(start + 1..)
                    .unwrap_or_default()
                    .iter()
                    .take_while(|i| i.op == OpCode::MulXorFusedCont)
                    .count();
                let terms = instrs.get(start..start + len).unwrap_or_default();
                if let Some(dst) = seg.view_index(head.dst, total_sectors) {
                    let mut sources: Vec<usize> = terms
                        .iter()
                        .map(|i| view_source(i.src, total_sectors))
                        .collect();
                    sources.sort_unstable();
                    let distinct = sources.windows(2).all(|w| w.first() != w.get(1));
                    runs.push(RunTerms {
                        run: Run {
                            seg: seg_index,
                            instrs: base + start..base + start + len,
                            dst,
                        },
                        sources,
                        distinct,
                        terms,
                    });
                }
                start += len;
            }
        }
        let bundles = group(&runs)
            .into_iter()
            .map(|members| Bundle {
                multi: multi_table(&members, total_sectors),
                runs: members.iter().map(|m| m.run.clone()).collect(),
            })
            .collect();
        Domain { zero, bundles }
    }
}

/// A run with what bundling reads of it: its sorted sources (view
/// indices), whether they are distinct, and its instructions.
struct RunTerms<'s, W: GfWord> {
    run: Run,
    sources: Vec<usize>,
    distinct: bool,
    terms: &'s [Instr<Kernel<W>>],
}

/// The span-view index a source reads (see [`Domain`]).
pub(crate) fn view_source(loc: Loc, total_sectors: usize) -> usize {
    match loc {
        Loc::Sector(s) => s,
        Loc::Slot(e) => total_sectors + e,
    }
}

/// The bundling rule of [`Domain::derive`]: runs with the same source set
/// group, [`BUNDLE_RUNS`] at a time, in program order; a run that lists a
/// source twice stays alone. Returns each bundle's members.
fn group<'r, 's, W: GfWord>(runs: &'r [RunTerms<'s, W>]) -> Vec<Vec<&'r RunTerms<'s, W>>> {
    let mut order: Vec<&RunTerms<W>> = runs.iter().collect();
    order.sort_by(|a, b| a.sources.cmp(&b.sources));
    let mut bundles: Vec<Vec<&RunTerms<W>>> = Vec::new();
    for run in order {
        match bundles.last_mut() {
            Some(last)
                if run.distinct
                    && last.len() < BUNDLE_RUNS
                    && last
                        .first()
                        .is_some_and(|seed| seed.distinct && seed.sources == run.sources) =>
            {
                last.push(run);
            }
            _ => bundles.push(vec![run]),
        }
    }
    bundles
}

/// The multi-destination table of a bundle of two or more runs, over
/// their shared sources, when its kernels allow.
fn multi_table<W: GfWord>(
    members: &[&RunTerms<'_, W>],
    total_sectors: usize,
) -> Option<(MultiDot, Vec<usize>)> {
    let first = members.first().filter(|_| members.len() > 1)?;
    let dests = members.len();
    let mut coeffs: Vec<Option<&RegionMul<W>>> = vec![None; first.sources.len() * dests];
    for (d, member) in members.iter().enumerate() {
        for ins in member.terms {
            let s = first
                .sources
                .binary_search(&view_source(ins.src, total_sectors))
                .ok()?;
            *coeffs.get_mut(s * dests + d)? = Some(&*ins.kernel);
        }
    }
    let table = MultiDot::new(dests, &coeffs)?;
    Some((table, first.sources.clone()))
}

/// The one tape validator: every invariant the executor relies on to
/// run a tape without bounds failures, aliasing or reads of unwritten
/// scratch, for tapes over any kernel type.
/// [`WirePlan::compile`](crate::WirePlan::compile) runs it on untrusted
/// input before building a kernel; [`PlanTape::compile`] asserts it in
/// debug builds.
///
/// * The faulty list is ascending, unique and inside the stripe.
/// * Per segment ([`check_segment`]): the scratch boundary lies inside
///   the instructions; the scratch section writes `T` slots from stripe
///   sectors, the output section writes output slots; sources are in
///   range; every continuation follows its run's head; every slot has
///   exactly one writer — one run head or one zero-slot entry; output
///   `i` sits in slot `scratch_slots + i` and is written to an in-range
///   sector.
/// * No sector is produced twice, and every produced sector is faulty.
/// * Outputs are written into the stripe in place, so a read must never
///   alias a write: a phase-A segment has no scratch slots and reads
///   surviving (non-faulty) sectors only, and no segment reads a sector
///   it outputs.
/// * Verify runs read stripe sectors only, write slot 0, and start with
///   their one head.
///
/// Returns the first violated rule as the message
/// [`WireError::Malformed`](crate::WireError::Malformed) carries.
pub(crate) fn check<K>(
    phase_a: &[TapeSegment<K>],
    phase_b: Option<&TapeSegment<K>>,
    verify: &[VerifyRun<K>],
    faulty: &[usize],
    total_sectors: usize,
) -> Result<(), &'static str> {
    if faulty.windows(2).any(|w| w.first() >= w.get(1)) {
        return Err("faulty set not sorted and unique");
    }
    if faulty.iter().any(|&s| s >= total_sectors) {
        return Err("faulty sector out of range");
    }
    for seg in phase_a.iter().chain(phase_b) {
        check_segment(seg, total_sectors)?;
    }
    let mut produced: Vec<usize> = phase_a
        .iter()
        .chain(phase_b)
        .flat_map(|seg| seg.outputs.iter().map(|&(_, sector)| sector))
        .collect();
    produced.sort_unstable();
    if produced.windows(2).any(|w| w.first() == w.get(1)) {
        return Err("sector produced by two segments");
    }
    if produced.iter().any(|s| faulty.binary_search(s).is_err()) {
        return Err("output sector not in faulty set");
    }
    // Outputs are written into the stripe in place, and a phase-A
    // segment's runs share one domain with every other phase-A run.
    for seg in phase_a {
        if seg.scratch_slots != 0 {
            return Err("phase-A segment has scratch slots");
        }
        let reads_faulty = seg
            .instrs
            .iter()
            .any(|i| matches!(i.src, Loc::Sector(s) if faulty.binary_search(&s).is_ok()));
        if reads_faulty {
            return Err("phase-A segment reads a faulty sector");
        }
    }
    let mut outs: Vec<usize> = Vec::new();
    for seg in phase_a.iter().chain(phase_b) {
        outs.clear();
        outs.extend(seg.outputs.iter().map(|&(_, sector)| sector));
        outs.sort_unstable();
        let reads_own = seg
            .instrs
            .iter()
            .any(|i| matches!(i.src, Loc::Sector(s) if outs.binary_search(&s).is_ok()));
        if reads_own {
            return Err("segment reads a sector it outputs");
        }
    }
    check_verify(verify, total_sectors)
}

/// [`check`]'s rules for verify runs, also asserted in debug builds when
/// a plan lowers its verify section ([`lower_verify`]).
pub(crate) fn check_verify<K>(
    verify: &[VerifyRun<K>],
    total_sectors: usize,
) -> Result<(), &'static str> {
    for run in verify {
        for (i, instr) in run.instrs.iter().enumerate() {
            match instr.src {
                Loc::Sector(s) if s >= total_sectors => {
                    return Err("verify source sector out of range");
                }
                Loc::Sector(_) => {}
                Loc::Slot(_) => return Err("verify run reads a scratch slot"),
            }
            if instr.dst != 0 {
                return Err("verify run writes a non-zero slot");
            }
            if (instr.op == OpCode::MulCopy) != (i == 0) {
                return Err("verify run head/continuation order");
            }
        }
    }
    Ok(())
}

/// [`check`] for one segment.
fn check_segment<K>(seg: &TapeSegment<K>, total_sectors: usize) -> Result<(), &'static str> {
    let scratch_slots = seg.scratch_slots;
    let scratch_boundary = seg.scratch_boundary;
    let total_slots = scratch_slots.saturating_add(seg.outputs.len());
    if scratch_boundary > seg.instrs.len() {
        return Err("scratch boundary past segment end");
    }
    // Every slot has one writer — a run head or a zero-slot entry — so a
    // segment with more slots than both together leaves one unwritten.
    // Checked first, this also bounds the bitmap below by the input.
    if total_slots > seg.instrs.len().saturating_add(seg.zero_slots.len()) {
        return Err("a slot is neither written nor zeroed");
    }

    let mut written = vec![false; total_slots];
    let mut prev_dst: Option<usize> = None;
    for (i, instr) in seg.instrs.iter().enumerate() {
        let dst = instr.dst;
        if i < scratch_boundary {
            if dst >= scratch_slots {
                return Err("scratch-section write past T slots");
            }
            if !matches!(instr.src, Loc::Sector(_)) {
                return Err("scratch section reads a slot");
            }
        } else if dst < scratch_slots || dst >= total_slots {
            return Err("output-section write out of range");
        }
        match instr.src {
            Loc::Sector(s) if s >= total_sectors => return Err("source sector out of range"),
            Loc::Slot(e) if e >= scratch_slots => return Err("source slot out of range"),
            _ => {}
        }
        if instr.op == OpCode::MulXorFusedCont {
            // A continuation extends the run immediately before it; the
            // executor folds a maximal head+continuations group into one
            // fused accumulate, so the destination must match (which also
            // keeps a run from crossing the scratch boundary: the two
            // sections write disjoint slots).
            if prev_dst != Some(dst) {
                return Err("continuation without its run head");
            }
        } else {
            let slot = written.get_mut(dst).ok_or("run head out of range")?;
            if std::mem::replace(slot, true) {
                return Err("slot written by two run heads");
            }
        }
        prev_dst = Some(dst);
    }

    for &slot in &seg.zero_slots {
        let flag = written.get_mut(slot).ok_or("zero slot out of range")?;
        if std::mem::replace(flag, true) {
            return Err("zero slot also written by a run");
        }
    }
    if !written.iter().all(|&w| w) {
        return Err("a slot is neither written nor zeroed");
    }

    for (i, &(slot, sector)) in seg.outputs.iter().enumerate() {
        if slot != scratch_slots + i {
            return Err("non-canonical output slot layout");
        }
        if sector >= total_sectors {
            return Err("output sector out of range");
        }
    }
    Ok(())
}

/// Emits one destination's terms as a fused run: first instruction
/// [`OpCode::MulCopy`] (the overwriting head), continuations
/// [`OpCode::MulXorFusedCont`]. Term order within the run is exactly
/// the program's term order; runs for distinct destinations are never
/// interleaved. Returns whether anything was emitted — an empty term
/// list produces no run, and the caller must record the destination as
/// a zero slot.
fn emit_run<W: GfWord>(
    instrs: &mut Vec<Instr<Kernel<W>>>,
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

/// Lowers surplus rows to verify runs, one fused run per row into slot
/// 0, over kernels shared from `regions` where it has the constant and
/// built (checked) otherwise — one per distinct surplus constant. Called
/// once per plan, on its first verify ([`DecodePlan::verify_runs`]).
pub(crate) fn lower_verify<W: GfWord>(
    surplus: &[SurplusRow<W>],
    regions: &RegionCache<W>,
    total_sectors: usize,
) -> Vec<VerifyRun<Kernel<W>>> {
    let regions = regions.share(
        surplus
            .iter()
            .flat_map(|(_, terms)| terms.iter().map(|&(c, _)| c))
            .collect(),
    );
    let runs: Vec<VerifyRun<Kernel<W>>> = surplus
        .iter()
        .map(|(row, terms)| {
            let mut instrs = Vec::with_capacity(terms.len());
            emit_run(
                &mut instrs,
                0,
                terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                &regions,
            );
            VerifyRun { row: *row, instrs }
        })
        .collect();
    debug_assert_eq!(
        check_verify(&runs, total_sectors),
        Ok(()),
        "the verify lowering emitted runs the wire validator rejects"
    );
    runs
}

/// Lowers one sub-plan to a [`TapeSegment`].
pub(crate) fn lower_subplan<W: GfWord>(
    sp: &SubPlan<W>,
    regions: &RegionCache<W>,
) -> TapeSegment<Kernel<W>> {
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
        assert_eq!(tape.phase_a.len(), plan.parallelism());
        assert_eq!(tape.phase_b.is_some(), plan.has_phase_b());
        // The verify section waits for the plan's first verify.
        assert!(tape.verify.get().is_none());
        assert_eq!(plan.verify_runs().len(), plan.verify_rows());
        assert_eq!(tape.verify_mult_xors(), plan.verify_mult_xors());
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
    fn runs(instrs: &[Instr<Kernel<u8>>]) -> Vec<(usize, Vec<(u8, Loc)>)> {
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

    /// Each domain's bundles as their runs' term counts, with whether
    /// the bundle takes the multi-destination kernel; sorted, since a
    /// domain runs its bundles in any order.
    fn shapes(tape: &PlanTape<u8>) -> Vec<Vec<(Vec<usize>, bool)>> {
        tape.domains
            .iter()
            .map(|domain| {
                let mut shape: Vec<(Vec<usize>, bool)> = domain
                    .bundles
                    .iter()
                    .map(|b| {
                        let lens = b.runs.iter().map(|r| r.instrs.len()).collect();
                        (lens, b.multi.is_some())
                    })
                    .collect();
                shape.sort();
                shape
            })
            .collect()
    }

    fn auto_tape(h: &ppm_matrix::Matrix<u8>, sc: &FailureScenario) -> DecodePlan<u8> {
        DecodePlan::build(h, sc, PlanStrategy::PpmAuto, Backend::Auto).unwrap()
    }

    /// Whether this host runs the multi-destination kernel, so bundles
    /// of two or more runs carry a table.
    fn multi_runs() -> bool {
        Backend::Gfni.is_available()
    }

    /// `encode_mid`'s LRC(12,2,2) encode: per row, the two global
    /// parities read the same 12 data sectors and share one pass; the two
    /// local ones read disjoint halves and run alone.
    #[test]
    fn encode_mid_bundles_each_rows_global_parities() {
        let code = ppm_codes::LrcCode::<u8>::new(12, 2, 2, 4).unwrap();
        let sc = FailureScenario::new(code.parity_sectors());
        let plan = auto_tape(&code.parity_check_matrix(), &sc);
        let mut rows = vec![(vec![6], false); 8];
        rows.extend(vec![(vec![12, 12], multi_runs()); 4]);
        assert_eq!(shapes(plan.ensure_tape()), [rows, vec![], vec![]]);
    }

    /// `repair_large`'s SD(16,16,2,2) worst case, two disks plus two
    /// sectors of one row: the 15 other rows pair their two phase-A
    /// runs; `H_rest` pairs its two 252-term global `T` runs and its two
    /// 12-term row runs, and its four outputs read the same four slots.
    #[test]
    fn repair_large_bundles_pairs_and_one_four() {
        use rand::SeedableRng;
        let code = SdCode::<u8>::search(16, 16, 2, 2, 2015, 3).unwrap();
        let h = code.parity_check_matrix();
        let m = multi_runs();
        for seed in 0..2 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sc = code.decodable_worst_case(1, &mut rng, 300).unwrap();
            assert_eq!(
                shapes(auto_tape(&h, &sc).ensure_tape()),
                [
                    vec![(vec![14, 14], m); 15],
                    vec![(vec![12, 12], m), (vec![252, 252], m)],
                    vec![(vec![4, 4, 4, 4], m)],
                ],
                "{:?}",
                sc.faulty()
            );
        }
    }

    /// `repair_warm_small`'s SD(6,4,2,1) worst cases: three phase-A row
    /// pairs; in `H_rest` the two 3-term row runs pair while the 21-term
    /// global `T` run has no partner, and the three outputs share their
    /// slots.
    #[test]
    fn repair_warm_small_bundles() {
        use rand::SeedableRng;
        let code = SdCode::<u8>::search(6, 4, 2, 1, 2015, 3).unwrap();
        let h = code.parity_check_matrix();
        let m = multi_runs();
        for seed in 0..4 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sc = code.decodable_worst_case(1, &mut rng, 300).unwrap();
            assert_eq!(
                shapes(auto_tape(&h, &sc).ensure_tape()),
                [
                    vec![(vec![4, 4], m); 3],
                    vec![(vec![3, 3], m), (vec![21], false)],
                    vec![(vec![3, 3, 3], m)],
                ],
                "{:?}",
                sc.faulty()
            );
        }
    }

    /// The rule's edges: runs over one source set bundle whatever their
    /// term order; a subset does not join; a fifth equal run starts a new
    /// bundle; a run listing a source twice stays alone; and a scalar
    /// tape keeps its bundles but runs them per run.
    #[test]
    fn bundling_rule_edges() {
        let coeffs: Vec<u8> = (1..=255).collect();
        let mf = |outputs: Vec<(usize, Vec<(u8, usize)>)>| SubPlan {
            program: Program::MatrixFirst { outputs },
        };
        let terms =
            |srcs: &[usize]| -> Vec<(u8, usize)> { srcs.iter().map(|&s| (0x1D, s)).collect() };
        let build = |backend| {
            let regions = RegionCache::build(coeffs.clone(), backend);
            let seg = lower_subplan(
                &mf(vec![
                    (20, terms(&[0, 1, 2, 3])),
                    (21, terms(&[3, 2, 1, 0])), // same set: joins 20
                    (22, terms(&[0, 1, 2])),    // a subset: alone
                    (23, terms(&[0, 1, 2, 3])), // joins 20
                    (24, terms(&[1, 0, 3, 2])), // joins 20, which is full
                    (25, terms(&[0, 1, 2, 3])), // a fifth: a new bundle
                    (26, vec![(0x1D, 1), (0x53, 1), (2, 2)]), // repeats a source
                    (27, terms(&[1, 2])),       // 26's set without the repeat
                ]),
                &regions,
            );
            PlanTape::from_parts(
                vec![seg],
                None,
                None,
                32,
                (20..28).collect(),
                PlanStrategy::PpmNormalRest,
                None,
            )
        };
        let runs = |tape: &PlanTape<u8>| -> Vec<Vec<usize>> {
            tape.domains[0]
                .bundles
                .iter()
                .map(|b| b.runs.iter().map(|r| r.dst).collect())
                .collect()
        };
        let auto = build(Backend::Auto);
        assert_eq!(
            runs(&auto),
            [vec![22], vec![20, 21, 23, 24], vec![25], vec![26], vec![27]]
        );
        let multi: Vec<bool> = auto.domains[0]
            .bundles
            .iter()
            .map(|b| b.multi.is_some())
            .collect();
        let m = multi_runs();
        assert_eq!(multi, [false, m, false, false, false]);
        let scalar = build(Backend::Scalar);
        assert_eq!(runs(&scalar), runs(&auto));
        assert!(scalar.domains[0].bundles.iter().all(|b| b.multi.is_none()));
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
