//! Plan execution: one loop over a compiled tape.
//!
//! A [`Decoder`] carries a thread budget `T` and executes exactly one
//! thing: a [`PlanTape`]. Phase A replays the tape's `p` independent
//! segments, each recovering its sectors from the surviving sectors only
//! and installing them; phase B then replays the `H_rest` segment with
//! the recovered blocks as additional inputs.
//!
//! The threads divide bytes, not sub-matrices. `mult_XORs` are byte-wise
//! independent, so a decoder with `T > 1` cuts sectors of at least
//! `2 · T · 4 KiB` into 4 KiB spans and maps the spans over `T` per-call
//! threads ([`par_map`]), each span running the whole tape — phase A and
//! `H_rest` — over its own byte range. This departs from the paper's
//! Algorithm 1, which runs the `p` sub-matrices on `T ≤ p` threads and
//! `H_rest` on one thread after them. Every other decode is one
//! whole-sector span on the calling thread. Every run is instrumented —
//! the region kernels tally into [`ExecStats`]; callers that do not want
//! the ledger drop it.
//!
//! This module is decode hot path: its public entry points must stay
//! panic-free on bad input (structured [`RepairError`](crate::RepairError)s
//! instead of asserts), so the usual escape hatches are denied below and
//! re-allowed only where a tape-construction invariant makes them
//! provably unreachable.
use crate::arena::ScratchArena;
use crate::par::par_map;
use crate::plan::{DecodePlan, Strategy};
use crate::stats::{ExecStats, SubPlanStats};
use crate::tape::{Instr, Loc, OpCode, PlanTape, TapeSegment};
use crate::DecodeError;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::{mul_copy_fused_with, Backend, GfWord, RegionMul, RegionStats};
use ppm_matrix::Matrix;
use ppm_stripe::{Stripe, StripeSpan};
use std::convert::Infallible;
use std::time::Instant;

/// Bytes per span when a threaded decode cuts its sectors (see
/// `Decoder::run_spans`).
const SPAN_BYTES: usize = 4096;

/// Decoder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Thread budget `T`. A decode of sectors of at least `2 · T · 4 KiB`
    /// cuts them into 4 KiB spans and maps the spans, each running the
    /// whole tape, over `T` threads; any other decode, and every decode
    /// with `T = 1`, runs on the calling thread and never spawns. The
    /// paper restrains `T ≤ min{4, core count}` to avoid
    /// thread-overloading; [`DecoderConfig::default`] follows that rule.
    pub threads: usize,
    /// Region-operation backend (SIMD/scalar) used by plans built through
    /// this decoder.
    pub backend: Backend,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        DecoderConfig {
            threads: cores.min(4),
            backend: Backend::Auto,
        }
    }
}

/// Executes decode plans, optionally in parallel. A decoder is just its
/// configuration: threads are created per decode, so building one costs
/// nothing.
#[derive(Debug)]
pub struct Decoder {
    config: DecoderConfig,
}

impl Decoder {
    /// Creates a decoder.
    ///
    /// # Panics
    /// Panics if `threads` is zero. This is the one deliberate panic in
    /// the module: a zero-thread decoder is a configuration bug, not a
    /// data-path fault.
    pub fn new(config: DecoderConfig) -> Self {
        assert!(config.threads > 0, "decoder needs at least one thread");
        Decoder { config }
    }

    /// The configuration this decoder was built with.
    pub fn config(&self) -> DecoderConfig {
        self.config
    }

    /// Builds a [`DecodePlan`] using this decoder's backend.
    pub fn plan<W: GfWord>(
        &self,
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
    ) -> Result<DecodePlan<W>, DecodeError> {
        DecodePlan::build(h, scenario, strategy, self.config.backend)
    }

    /// Executes `plan` against `stripe`, overwriting the faulty sectors
    /// with their recovered contents, and returns the run's
    /// [`ExecStats`] — executed counts straight from the region kernels
    /// next to the plan's predicted costs, the runtime cross-check of the
    /// §III-B cost model. The plan's tape is compiled on first use.
    pub fn decode<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.run_tape(plan.ensure_tape(), stripe, None)
    }

    /// Like [`Decoder::decode`], but borrows every working buffer from
    /// `arena` (and returns them afterwards) instead of allocating —
    /// steady-state decode through a warm arena performs zero heap
    /// allocations on the data path.
    pub fn decode_in<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
        arena: &ScratchArena,
    ) -> Result<ExecStats, DecodeError> {
        self.run_tape(plan.ensure_tape(), stripe, Some(arena))
    }

    /// The pre-PR-12 name of [`Decoder::decode_in`], kept for the frozen
    /// `benchmark/` harness.
    #[doc(hidden)]
    pub fn decode_tape_in<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
        arena: &ScratchArena,
    ) -> Result<ExecStats, DecodeError> {
        self.decode_in(plan, stripe, arena)
    }

    /// Convenience: plan and decode in one call.
    pub fn decode_scenario<W: GfWord>(
        &self,
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.decode(&self.plan(h, scenario, strategy)?, stripe)
    }

    /// Runs the surplus-row verification pass: re-evaluates every
    /// parity-check row of `H` the plan did *not* consume as part of `F`
    /// against the (recovered) stripe, by replaying the verify runs
    /// lowered into the plan's tape. The decode satisfies its consumed
    /// rows by construction, so a non-zero surplus row is independent
    /// evidence that a *surviving* input block is corrupt.
    ///
    /// The pass uses the plan's region kernels, so its executed
    /// `mult_XORs` land in [`VerifyReport::stats`] in the same unit as
    /// the decode ledger and equal [`DecodePlan::verify_mult_xors`]
    /// exactly.
    ///
    /// # Errors
    /// [`RepairError::VerificationUnavailable`](crate::RepairError::VerificationUnavailable)
    /// for restricted (degraded-read) plans, and
    /// [`RepairError::GeometryMismatch`](crate::RepairError::GeometryMismatch)
    /// when the stripe does not match the plan. A report with violated
    /// rows is *not* an error here — deciding what to do about it is the
    /// caller's (typically the escalation loop's) job.
    pub fn verify<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        verify_plan(plan, stripe, None)
    }

    /// [`Decoder::verify`] with the accumulator buffer borrowed from
    /// `arena` (see [`Decoder::decode_in`]).
    pub fn verify_in<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &Stripe,
        arena: &ScratchArena,
    ) -> Result<VerifyReport, DecodeError> {
        verify_plan(plan, stripe, Some(arena))
    }

    /// The one execution loop, behind every in-process and wire-plan
    /// decode: geometry check → `Decoder::run_spans` over every segment
    /// (phase A, then `H_rest`) → [`ExecStats`].
    ///
    /// The span map's wall time is split between `phase_a_nanos` and
    /// `phase_b.nanos` in proportion to each phase's summed span time,
    /// so the two still add up to the tape's wall time.
    pub(crate) fn run_tape<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        stripe: &mut Stripe,
        arena: Option<&ScratchArena>,
    ) -> Result<ExecStats, DecodeError> {
        check_geometry(tape.total_sectors, stripe)?;
        let started = Instant::now();
        let (mut phase_a, wall) =
            self.run_spans(tape.phase_a.iter().chain(&tape.phase_b), stripe, arena);
        let mut phase_b = tape.phase_b.as_ref().and_then(|_| phase_a.pop());
        let busy_a: u128 = phase_a.iter().map(|s| s.nanos).sum();
        let mut phase_a_nanos = wall;
        if let Some(rest) = &mut phase_b {
            let busy = busy_a + rest.nanos;
            rest.nanos = (wall * rest.nanos).checked_div(busy).unwrap_or(0);
            phase_a_nanos = wall - rest.nanos;
        }
        Ok(ExecStats {
            strategy: tape.strategy,
            threads: self.config.threads,
            parallelism: tape.phase_a.len(),
            predicted_mult_xors: tape.mult_xors(),
            predicted_costs: tape.predicted_costs,
            phase_a,
            phase_a_nanos,
            phase_b,
            verify: None,
            update: None,
            total_nanos: started.elapsed().as_nanos(),
        })
    }

    /// Runs `segments` over the stripe with [`map_spans`], choosing the
    /// span size: with `threads > 1` and sectors of at least `2 · threads
    /// · SPAN_BYTES` bytes, `SPAN_BYTES` spans mapped over the threads;
    /// otherwise one whole-sector span on the calling thread.
    pub(crate) fn run_spans<'t, W: GfWord>(
        &self,
        segments: impl Iterator<Item = &'t TapeSegment<W>> + Clone + Sync,
        stripe: &mut Stripe,
        arena: Option<&ScratchArena>,
    ) -> (Vec<SubPlanStats>, u128) {
        let threads = self.config.threads;
        let sb = stripe.sector_bytes();
        let span_bytes = if threads > 1 && sb >= 2 * threads * SPAN_BYTES {
            SPAN_BYTES
        } else {
            sb
        };
        map_spans(threads, segments, stripe, span_bytes, arena)
    }
}

/// Cuts every sector into `span_bytes` spans and maps them over up to
/// `threads` threads; each span runs `segments` with [`run_span`] over
/// its own byte range. `mult_XORs` are byte-wise independent, so every
/// span size gives the bytes a whole-sector run gives. A span as long as
/// the sector is the stripe itself, run on the calling thread.
///
/// Returns one [`SubPlanStats`] per segment — the op counts of any one
/// span, `bytes` and `nanos` summed over spans — and the wall time of
/// the whole map.
fn map_spans<'t, W: GfWord>(
    threads: usize,
    segments: impl Iterator<Item = &'t TapeSegment<W>> + Clone + Sync,
    stripe: &mut Stripe,
    span_bytes: usize,
    arena: Option<&ScratchArena>,
) -> (Vec<SubPlanStats>, u128) {
    let started = Instant::now();
    let per_span = if span_bytes >= stripe.sector_bytes() {
        vec![run_span(segments, stripe, arena)]
    } else {
        let Ok(spans) = par_map(threads, stripe.spans_mut(span_bytes), |mut span| {
            Ok::<_, Infallible>(run_span(segments.clone(), &mut span, arena))
        });
        spans
    };
    let wall = started.elapsed().as_nanos();
    let mut spans = per_span.into_iter();
    let mut total = spans.next().unwrap_or_default();
    for span in spans {
        for (sum, part) in total.iter_mut().zip(span) {
            sum.bytes += part.bytes;
            sum.nanos += part.nanos;
        }
    }
    (total, wall)
}

/// Runs `segments` in order over one span and installs each segment's
/// outputs before the next one runs, so a later segment (`H_rest`) reads
/// what an earlier one recovered. Returns each segment's counters.
fn run_span<'t, W: GfWord>(
    segments: impl Iterator<Item = &'t TapeSegment<W>>,
    span: &mut impl Sectors,
    arena: Option<&ScratchArena>,
) -> Vec<SubPlanStats> {
    segments
        .map(|seg| {
            let (flat, stats) = run_tape_segment(seg, span, arena);
            install_tape_outputs(seg, flat, span, arena);
            stats
        })
        .collect()
}

/// What [`run_span`] reads and writes: the same byte range of every
/// sector — all of each sector for a [`Stripe`], one span of each for a
/// [`StripeSpan`]. The whole stripe implements it so that a one-span
/// decode reads the stripe in place: cutting it into a one-span
/// [`StripeSpan`] first made `encode_mid`'s T = 1 encode 4–21 % slower
/// in 5 of 6 benchmark pairs.
trait Sectors {
    fn sector_bytes(&self) -> usize;
    fn sector(&self, l: usize) -> &[u8];
    fn sector_mut(&mut self, l: usize) -> &mut [u8];
}

impl Sectors for Stripe {
    fn sector_bytes(&self) -> usize {
        Stripe::sector_bytes(self)
    }
    fn sector(&self, l: usize) -> &[u8] {
        Stripe::sector(self, l)
    }
    fn sector_mut(&mut self, l: usize) -> &mut [u8] {
        Stripe::sector_mut(self, l)
    }
}

impl Sectors for StripeSpan<'_> {
    fn sector_bytes(&self) -> usize {
        StripeSpan::sector_bytes(self)
    }
    fn sector(&self, l: usize) -> &[u8] {
        StripeSpan::sector(self, l)
    }
    fn sector_mut(&mut self, l: usize) -> &mut [u8] {
        StripeSpan::sector_mut(self, l)
    }
}

/// The stripe must have exactly the sector count the plan was built for.
pub(crate) fn check_geometry(expected: usize, stripe: &Stripe) -> Result<(), DecodeError> {
    let actual = stripe.layout().sectors();
    if actual != expected {
        return Err(DecodeError::GeometryMismatch { expected, actual });
    }
    Ok(())
}

fn verify_plan<W: GfWord>(
    plan: &DecodePlan<W>,
    stripe: &Stripe,
    arena: Option<&ScratchArena>,
) -> Result<VerifyReport, DecodeError> {
    if !plan.supports_verify() {
        return Err(DecodeError::VerificationUnavailable);
    }
    run_verify_runs(plan.ensure_tape(), stripe, arena)
}

/// Replays a tape's lowered verify runs against a stripe: each surplus
/// row is one fused run into a single accumulator slot. The only verify
/// implementation — in-process plans and wire plans both end up here.
pub(crate) fn run_verify_runs<W: GfWord>(
    tape: &PlanTape<W>,
    stripe: &Stripe,
    arena: Option<&ScratchArena>,
) -> Result<VerifyReport, DecodeError> {
    check_geometry(tape.total_sectors, stripe)?;
    let sink = RegionStats::new();
    let started = Instant::now();
    let mut violated = Vec::new();
    // Each run's head overwrites the accumulator, so it needs no
    // zeroing — not on take, not between rows.
    let mut acc = take_buf_dirty(arena, stripe.sector_bytes());
    for run in &tape.verify {
        if run.instrs.is_empty() {
            // An all-zero surplus row: the empty XOR sum is zero, never
            // violated — and nothing wrote the (dirty) accumulator, so it
            // must not be inspected.
            continue;
        }
        run_tape_section(
            &run.instrs,
            |loc| match loc {
                Loc::Sector(s) => stripe.sector(s),
                // Verify runs are lowered from surplus rows, whose
                // terms are all stripe sectors.
                Loc::Slot(_) => unreachable!("verify runs read sectors only"),
            },
            &mut acc,
            0,
            stripe.sector_bytes(),
            &sink,
        );
        if acc.iter().any(|&b| b != 0) {
            violated.push(run.row);
        }
    }
    give_buf(arena, acc);
    Ok(VerifyReport {
        rows_checked: tape.verify.len(),
        violated_rows: violated,
        stats: SubPlanStats::collect(&sink, 0, started.elapsed()),
    })
}

/// Outcome of one surplus-row verification pass (see
/// [`Decoder::verify`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Surplus parity-check rows evaluated. `0` means the failure
    /// pattern consumed every row of `H` — no redundancy was left to
    /// check against, so a clean report carries no evidence.
    pub rows_checked: usize,
    /// Global `H` row indices whose parity equation came out non-zero.
    pub violated_rows: Vec<usize>,
    /// Executed work of the pass, from the region kernels.
    pub stats: SubPlanStats,
}

impl VerifyReport {
    /// True when every evaluated row XOR-summed to the zero region.
    pub fn clean(&self) -> bool {
        self.violated_rows.is_empty()
    }
}

/// Borrows a `len`-byte buffer with arbitrary contents from `arena`, or
/// allocates one when no arena is in play. Tape run heads overwrite
/// every slot before reading it, so no caller needs zeroed scratch.
pub(crate) fn take_buf_dirty(arena: Option<&ScratchArena>, len: usize) -> Vec<u8> {
    match arena {
        Some(a) => a.take_dirty(len),
        None => vec![0u8; len],
    }
}

/// Returns a buffer to `arena` (no-op without one).
pub(crate) fn give_buf(arena: Option<&ScratchArena>, buf: Vec<u8>) {
    if let Some(a) = arena {
        a.give(buf);
    }
}

/// Executes one tape segment over one span of every sector it touches:
/// takes the segment's single arena reservation (sized for span-long
/// slots), replays its fused instruction runs, and returns the flat
/// buffer with the outputs at their precomputed slots together with the
/// run's counters (the caller installs the outputs and recycles the
/// buffer).
//
// The slot arithmetic is safe by tape construction (`crate::tape`,
// re-validated for wire input by `WirePlan::compile`): every destination
// is below the segment's slot count, every `Slot` source is below
// `scratch_slots`, and the reservation is exactly `total_slots()` slots
// long.
#[allow(clippy::indexing_slicing)]
fn run_tape_segment<W: GfWord>(
    seg: &TapeSegment<W>,
    span: &impl Sectors,
    arena: Option<&ScratchArena>,
) -> (Vec<u8>, SubPlanStats) {
    let sink = RegionStats::new();
    let started = Instant::now();
    let len = span.sector_bytes();
    // Unzeroed reservation: every slot's first touch is an overwriting
    // run head (enforced at tape compile), except the listed zero slots
    // — degenerate empty term lists — which are cleared here.
    let mut flat = take_buf_dirty(arena, seg.total_slots() * len);
    for &slot in &seg.zero_slots {
        flat[slot * len..(slot + 1) * len].fill(0);
    }
    let (scratch, outs) = flat.split_at_mut(seg.scratch_slots * len);

    // Intermediate section: T-slot accumulators, reading sectors only.
    run_tape_section(
        &seg.instrs[..seg.scratch_boundary],
        |loc| match loc {
            Loc::Sector(s) => span.sector(s),
            // Tape invariant: the intermediate section never reads slots.
            Loc::Slot(_) => unreachable!("scratch section reads sectors only"),
        },
        scratch,
        0,
        len,
        &sink,
    );

    // Output section: reads sectors or the intermediates just computed.
    let scratch = &*scratch;
    run_tape_section(
        &seg.instrs[seg.scratch_boundary..],
        |loc| match loc {
            Loc::Sector(s) => span.sector(s),
            Loc::Slot(e) => &scratch[e * len..(e + 1) * len],
        },
        outs,
        seg.scratch_slots,
        len,
        &sink,
    );
    let stats = SubPlanStats::collect(&sink, seg.outputs.len(), started.elapsed());
    (flat, stats)
}

/// Replays one tape section: gathers each maximal same-destination run
/// (one [`OpCode::MulCopy`] plus its [`OpCode::MulXorFusedCont`]s) and
/// applies it as a single fused operation into `dst_region`, whose
/// first slot is absolute slot `slot_base` and whose slots are `sb`
/// bytes long. The run head *overwrites* its slot (tape slots are taken
/// unzeroed — every slot's first touch is a head, enforced at compile),
/// continuations accumulate. Every term is tallied into `stats`.
///
/// This is the only function that walks tape instructions.
//
// Indexing is safe by tape construction: run boundaries come from the
// opcodes the compiler emitted, and destinations lie inside this
// section's slot range.
#[allow(clippy::indexing_slicing)]
pub(crate) fn run_tape_section<'a, W: GfWord>(
    instrs: &[Instr<W>],
    source: impl Fn(Loc) -> &'a [u8],
    dst_region: &mut [u8],
    slot_base: usize,
    sb: usize,
    stats: &RegionStats,
) {
    let mut terms: Vec<(&RegionMul<W>, &[u8])> = Vec::new();
    let mut i = 0;
    while i < instrs.len() {
        let dst = instrs[i].dst;
        let mut j = i + 1;
        while j < instrs.len() && instrs[j].op == OpCode::MulXorFusedCont {
            j += 1;
        }
        let off = (dst - slot_base) * sb;
        let dslice = &mut dst_region[off..off + sb];
        if j == i + 1 {
            // Single-term run: dispatch the kernel directly, skipping
            // the fused block sweep and its term list. The head
            // overwrites — the slot arrives with arbitrary contents.
            let ins = &instrs[i];
            ins.kernel.mul_copy_with(source(ins.src), dslice, stats);
        } else {
            terms.clear();
            terms.extend(
                instrs[i..j]
                    .iter()
                    .map(|ins| (&*ins.kernel, source(ins.src))),
            );
            mul_copy_fused_with(&terms, dslice, stats);
        }
        i = j;
    }
}

/// Writes a tape segment's outputs into their sectors' span from the
/// flat reservation [`run_tape_segment`] returned for that span, then
/// recycles the buffer.
//
// `slot * len..` is in bounds: outputs live inside the reservation the
// tape sized (see `run_tape_segment`).
#[allow(clippy::indexing_slicing)]
fn install_tape_outputs<W: GfWord>(
    seg: &TapeSegment<W>,
    flat: Vec<u8>,
    span: &mut impl Sectors,
    arena: Option<&ScratchArena>,
) {
    let len = span.sector_bytes();
    for &(slot, sector) in &seg.outputs {
        span.sector_mut(sector)
            .copy_from_slice(&flat[slot * len..(slot + 1) * len]);
    }
    give_buf(arena, flat);
}

/// Encodes a stripe in place: computes every parity sector from the data
/// sectors. Per the paper (§II-B footnote 1), encoding is the decoding
/// special case where all parity blocks are "faulty".
pub fn encode<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    decoder: &Decoder,
    stripe: &mut Stripe,
) -> Result<ExecStats, DecodeError> {
    let scenario = FailureScenario::new(code.parity_sectors());
    let h = code.parity_check_matrix();
    decoder.decode_scenario(&h, &scenario, Strategy::PpmAuto, stripe)
}

/// Verifies `H · B = 0` over the stripe's regions: every parity-check
/// equation must XOR-sum to the zero region.
pub fn parity_consistent<W: GfWord>(h: &Matrix<W>, stripe: &Stripe, backend: Backend) -> bool {
    assert_eq!(h.cols(), stripe.layout().sectors(), "geometry mismatch");
    let sb = stripe.sector_bytes();
    let mut cache: std::collections::HashMap<u64, RegionMul<W>> = Default::default();
    let mut acc = vec![0u8; sb];
    for row in 0..h.rows() {
        acc.fill(0);
        for col in 0..h.cols() {
            let c = h.get(row, col);
            if c == W::ZERO {
                continue;
            }
            cache
                .entry(c.to_u64())
                .or_insert_with(|| RegionMul::new(c, backend))
                .mul_xor(stripe.sector(col), &mut acc);
        }
        if acc.iter().any(|&b| b != 0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{LrcCode, RsCode, SdCode};
    use ppm_stripe::random_data_stripe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decoder(threads: usize) -> Decoder {
        Decoder::new(DecoderConfig {
            threads,
            backend: Backend::Scalar,
        })
    }

    fn roundtrip<W: GfWord, C: ErasureCode<W>>(
        code: &C,
        scenario: &FailureScenario,
        threads: usize,
        strategy: Strategy,
        seed: u64,
    ) {
        let dec = decoder(threads);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(code, 64, &mut rng);
        encode(code, &dec, &mut stripe).expect("encode");
        let h = code.parity_check_matrix();
        assert!(
            parity_consistent(&h, &stripe, Backend::Scalar),
            "encode must satisfy H·B=0"
        );

        let pristine = stripe.clone();
        stripe.erase(scenario);
        assert_ne!(stripe, pristine, "erasure must change the stripe");
        let stats = dec
            .decode_scenario(&h, scenario, strategy, &mut stripe)
            .expect("decode");
        assert_eq!(
            stripe, pristine,
            "decode must restore every sector ({strategy:?})"
        );
        assert!(stats.matches_prediction(), "{strategy:?}");
        assert_eq!(stats.threads, threads);
    }

    #[test]
    fn paper_example_roundtrips_all_strategies() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            for threads in [1, 2, 4] {
                roundtrip(&code, &sc, threads, strategy, 42);
            }
        }
    }

    #[test]
    fn sd_worst_cases_roundtrip() {
        let code = SdCode::<u8>::search(6, 8, 2, 2, 3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for z in 1..=2 {
            let sc = code.decodable_worst_case(z, &mut rng, 100).unwrap();
            roundtrip(&code, &sc, 4, Strategy::PpmAuto, 100 + z as u64);
            roundtrip(&code, &sc, 1, Strategy::TraditionalNormal, 200 + z as u64);
        }
    }

    #[test]
    fn rs_disk_failures_roundtrip() {
        let code = RsCode::<u8>::new(5, 3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let sc = code.random_disk_failures(3, &mut rng);
        roundtrip(&code, &sc, 4, Strategy::PpmAuto, 7);
        roundtrip(&code, &sc, 1, Strategy::TraditionalMatrixFirst, 8);
    }

    #[test]
    fn lrc_disk_failures_roundtrip() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let sc = code.decodable_disk_failures(4, &mut rng, 500).unwrap();
        roundtrip(&code, &sc, 4, Strategy::PpmAuto, 9);
        roundtrip(&code, &sc, 2, Strategy::PpmNormalRest, 10);
    }

    #[test]
    fn gf16_and_gf32_roundtrip() {
        let code16 = SdCode::<u16>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        if let Some(sc) = code16.decodable_worst_case(1, &mut rng, 50) {
            roundtrip(&code16, &sc, 2, Strategy::PpmAuto, 11);
        }
        let code32 = SdCode::<u32>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        if let Some(sc) = code32.decodable_worst_case(1, &mut rng, 50) {
            roundtrip(&code32, &sc, 2, Strategy::PpmAuto, 12);
        }
    }

    /// Decodes `sc` span by span at every size in `spans` and checks
    /// the recovered sectors and the ledger against the pristine stripe.
    fn check_spans<W: GfWord>(plan: &DecodePlan<W>, pristine: &Stripe, sc: &FailureScenario) {
        let sb = pristine.sector_bytes();
        let tape = plan.ensure_tape();
        for span_bytes in [8, 40, 64, SPAN_BYTES, sb] {
            let mut broken = pristine.clone();
            broken.erase(sc);
            let segments = tape.phase_a.iter().chain(&tape.phase_b);
            let (stats, _) = map_spans(2, segments, &mut broken, span_bytes, None);
            let label = format!("{:?}, {span_bytes}-byte spans", plan.strategy());
            for &l in plan.faulty() {
                assert_eq!(broken.sector(l), pristine.sector(l), "{label}: sector {l}");
            }
            // Every span replays every segment, yet the ledger stays
            // sector-granular: executed == predicted, bytes whole.
            let executed: u64 = stats.iter().map(|s| s.mult_xors).sum();
            assert_eq!(executed, plan.mult_xors() as u64, "{label}");
            let bytes: u64 = stats.iter().map(|s| s.bytes).sum();
            assert_eq!(bytes, sb as u64 * executed, "{label}");
        }
    }

    #[test]
    fn spans_match_whole_sector_decode() {
        // Two full spans and a 24-byte tail: 40, 64 and SPAN_BYTES all
        // leave a short last span.
        let sb = 2 * SPAN_BYTES + 24;
        let dec = decoder(1);
        let code = SdCode::<u8>::search(6, 6, 2, 2, 3, 3).unwrap();
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(55);
        let sc = code.decodable_worst_case(1, &mut rng, 100).unwrap();
        let mut pristine = random_data_stripe(&code, sb, &mut rng);
        encode(&code, &dec, &mut pristine).unwrap();
        // Every strategy shape: traditional (one program, no phase A)
        // and the partitioned variants.
        for strategy in Strategy::CONCRETE {
            check_spans(&dec.plan(&h, &sc, strategy).unwrap(), &pristine, &sc);
        }
        // A restricted plan recovers only its wanted sectors.
        let restricted = dec
            .plan(&h, &sc, Strategy::PpmNormalRest)
            .unwrap()
            .restrict_to(&sc.faulty()[..2]);
        check_spans(&restricted, &pristine, &sc);

        let code16 = SdCode::<u16>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        let sc16 = code16.decodable_worst_case(1, &mut rng, 50).unwrap();
        let mut pristine16 = random_data_stripe(&code16, sb, &mut rng);
        encode(&code16, &dec, &mut pristine16).unwrap();
        let plan16 = dec.plan(&code16.parity_check_matrix(), &sc16, Strategy::PpmAuto);
        check_spans(&plan16.unwrap(), &pristine16, &sc16);

        let code32 = SdCode::<u32>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        let sc32 = code32.decodable_worst_case(1, &mut rng, 50).unwrap();
        let mut pristine32 = random_data_stripe(&code32, sb, &mut rng);
        encode(&code32, &dec, &mut pristine32).unwrap();
        let plan32 = dec.plan(&code32.parity_check_matrix(), &sc32, Strategy::PpmAuto);
        check_spans(&plan32.unwrap(), &pristine32, &sc32);
    }

    /// A threaded decoder spans sectors of at least `2 · threads ·
    /// SPAN_BYTES` bytes and nothing smaller — visible in the arena,
    /// whose reservations shrink to span-long slots — and either way the
    /// stripe comes back whole, on the ledger, with phase times inside
    /// the decode's wall time.
    #[test]
    fn threaded_decode_spans_large_sectors_only() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let mut rng = StdRng::seed_from_u64(8);
        for (sb, spanned) in [
            (64, false),
            (4 * SPAN_BYTES - 8, false),
            (4 * SPAN_BYTES + 24, true),
        ] {
            let mut pristine = random_data_stripe(&code, sb, &mut rng);
            encode(&code, &decoder(1), &mut pristine).unwrap();
            let pooled = [1, 2].map(|threads| {
                let dec = decoder(threads);
                let plan = dec.plan(&h, &sc, Strategy::PpmAuto).unwrap();
                let arena = ScratchArena::new();
                let mut broken = pristine.clone();
                broken.erase(&sc);
                let stats = dec.decode_in(&plan, &mut broken, &arena).unwrap();
                assert_eq!(broken, pristine, "{sb} B, T={threads}");
                assert!(stats.matches_prediction(), "{sb} B, T={threads}");
                assert_eq!(stats.bytes_moved(), sb as u64 * stats.executed_mult_xors());
                assert!(stats.phase_a_nanos + stats.phase_b_nanos() <= stats.total_nanos);
                arena.stats().pooled_bytes
            });
            assert_eq!(pooled[1] < pooled[0], spanned, "{sb} B: {pooled:?}");
        }
    }

    #[test]
    fn decode_geometry_mismatch_rejected() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let dec = decoder(1);
        let plan = dec
            .plan(&h, &FailureScenario::new(vec![2]), Strategy::PpmAuto)
            .unwrap();
        let mut wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        let err = dec.decode(&plan, &mut wrong).unwrap_err();
        assert!(matches!(err, DecodeError::GeometryMismatch { .. }));
    }

    /// A restricted (degraded-read) plan recovers exactly the wanted
    /// sectors and leaves the rest erased.
    #[test]
    fn restricted_plan_decodes_wanted_sectors() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let dec = decoder(2);
        let mut rng = StdRng::seed_from_u64(91);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &dec, &mut stripe).unwrap();
        let pristine = stripe.clone();

        let full = dec.plan(&h, &sc, Strategy::PpmNormalRest).unwrap();
        for wanted in [vec![2usize], vec![13], vec![6, 14]] {
            let plan = full.restrict_to(&wanted);
            let mut broken = pristine.clone();
            broken.erase(&sc);
            dec.decode(&plan, &mut broken).unwrap();
            for &w in &wanted {
                assert_eq!(broken.sector(w), pristine.sector(w), "wanted {w}");
            }
            // Unwanted, non-input faulty sectors stay erased. b14 is never
            // an input, so check it when it isn't requested.
            if !wanted.contains(&14) && !plan.faulty().contains(&14) {
                assert!(broken.sector(14).iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn verify_pass_is_clean_after_decode_and_flags_corruption() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        // Two faulty sectors leave 3 of the 5 parity rows surplus.
        let sc = FailureScenario::new(vec![2, 6]);
        let dec = decoder(2);
        let mut rng = StdRng::seed_from_u64(17);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &dec, &mut stripe).unwrap();
        stripe.erase(&sc);
        let plan = dec.plan(&h, &sc, Strategy::PpmAuto).unwrap();
        dec.decode(&plan, &mut stripe).unwrap();

        let report = dec.verify(&plan, &stripe).unwrap();
        assert_eq!(report.rows_checked, plan.verify_rows());
        assert!(report.clean(), "{:?}", report.violated_rows);
        // Executed verify cost equals the plan's surplus-row prediction.
        assert_eq!(report.stats.mult_xors, plan.verify_mult_xors() as u64);
        assert_eq!(
            plan.ensure_tape().verify_mult_xors(),
            plan.verify_mult_xors(),
            "the lowered verify runs are what executed"
        );

        // Corrupt a *surviving* sector: the pass must notice.
        stripe.sector_mut(0)[5] ^= 0x40;
        let report = dec.verify(&plan, &stripe).unwrap();
        assert!(!report.clean());
        assert!(report
            .violated_rows
            .iter()
            .all(|r| plan.surplus_row_indices().contains(r)));

        // Arena-borrowing variant agrees.
        let arena = crate::ScratchArena::new();
        let in_arena = dec.verify_in(&plan, &stripe, &arena).unwrap();
        assert_eq!(in_arena.violated_rows, report.violated_rows);
    }

    #[test]
    fn verify_errors_are_structured() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6]);
        let dec = decoder(1);
        let plan = dec.plan(&h, &sc, Strategy::PpmNormalRest).unwrap();

        // Restricted plans cannot verify.
        let restricted = plan.restrict_to(&[2]);
        let stripe = Stripe::zeroed(code.layout(), 64);
        assert_eq!(
            dec.verify(&restricted, &stripe).unwrap_err(),
            DecodeError::VerificationUnavailable
        );

        // Wrong-geometry stripes are rejected, not sliced.
        let wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        assert!(matches!(
            dec.verify(&plan, &wrong).unwrap_err(),
            DecodeError::GeometryMismatch { .. }
        ));
    }

    /// The verify accumulator is taken *dirty* (no zeroing sweep), which
    /// is only sound because a run's head overwrites it — so an all-zero
    /// surplus row (no instructions, nothing overwrites) must be skipped
    /// as "not violated" rather than judged on stale bytes.
    #[test]
    fn verify_takes_a_dirty_accumulator_and_skips_empty_rows() {
        let tape: PlanTape<u8> = PlanTape::from_parts(
            Vec::new(),
            None,
            vec![crate::tape::VerifyRun {
                row: 7,
                instrs: Vec::new(),
            }],
            16,
            Strategy::PpmNormalRest,
            None,
        );
        let stripe = Stripe::zeroed(ppm_codes::StripeLayout::new(4, 4), 64);
        let arena = ScratchArena::new();
        arena.give(vec![0xAB; 64]);

        let report = run_verify_runs(&tape, &stripe, Some(&arena)).unwrap();
        assert_eq!(report.rows_checked, 1);
        assert!(report.clean(), "an empty row is never violated");
        assert_eq!(report.stats.mult_xors, 0);
        // The pass borrowed the poisoned buffer as-is and handed it back
        // untouched: a zeroing take would have cleared it.
        assert_eq!(arena.stats().fresh, 0);
        assert_eq!(arena.take_dirty(64), vec![0xAB; 64]);
    }

    #[test]
    fn parity_consistent_detects_corruption() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let dec = decoder(1);
        let mut rng = StdRng::seed_from_u64(77);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &dec, &mut stripe).unwrap();
        let h = code.parity_check_matrix();
        assert!(parity_consistent(&h, &stripe, Backend::Scalar));
        stripe.sector_mut(0)[0] ^= 1;
        assert!(!parity_consistent(&h, &stripe, Backend::Scalar));
    }

    #[test]
    fn zero_failures_decode_is_noop() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let dec = decoder(2);
        let mut rng = StdRng::seed_from_u64(13);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &dec, &mut stripe).unwrap();
        let pristine = stripe.clone();
        let h = code.parity_check_matrix();
        dec.decode_scenario(
            &h,
            &FailureScenario::new(vec![]),
            Strategy::PpmAuto,
            &mut stripe,
        )
        .unwrap();
        assert_eq!(stripe, pristine);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = Decoder::new(DecoderConfig {
            threads: 0,
            backend: Backend::Scalar,
        });
    }

    #[test]
    fn default_config_caps_at_four_threads() {
        let c = DecoderConfig::default();
        assert!(c.threads >= 1 && c.threads <= 4);
    }
}
