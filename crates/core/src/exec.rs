//! Plan execution: one loop over a compiled tape.
//!
//! A [`Decoder`] carries a thread budget `T` and executes exactly one
//! thing: a [`PlanTape`]. Phase A replays the tape's `p` independent
//! segments, each recovering its sectors from the surviving sectors
//! only; phase B then replays the `H_rest` segment with the recovered
//! blocks as additional inputs.
//!
//! Every recovered sector is written once, in place: a run computes
//! straight into its sector's bytes in the stripe. Only `H_rest`'s
//! Normal-sequence `T` slots come from the arena, one reservation per
//! span. The borrow split is safe Rust: a span is a view of one
//! `&mut [u8]` per sector plus one per `T` slot, and a run takes its
//! destination out of the view (`std::mem::take`), reads its sources
//! through the rest and puts it back. Runs execute in the tape's
//! *bundles* ([`crate::tape`]): up to four runs that read the same sources
//! make one pass over them through the multi-destination kernel
//! ([`ppm_gf::MultiDot`]), so a source is read once for all of them.
//!
//! [`run_bundle`] is the only function that runs a tape's kernels; its
//! callers differ only in where sources and destinations live. A decode
//! reads and writes its span view, a verify reads the stripe into
//! sector-sized accumulators, and the cluster split's two halves write
//! and read the shipped `T` blocks ([`crate::Executor`]).
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
use crate::tape::{
    view_source, Bundle, Domain, Instr, Kernel, Loc, PlanTape, Run, VerifySection, BUNDLE_RUNS,
};
use crate::DecodeError;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::{mul_copy_fused, mul_xor_fused, Backend, GfWord, RegionMul, RegionStats};
use ppm_matrix::Matrix;
use ppm_stripe::Stripe;
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

    /// Like [`Decoder::decode`], but borrows every working buffer — the
    /// `H_rest` `T` slots; outputs are written in place — from `arena`
    /// (and returns them afterwards) instead of allocating. Steady-state
    /// decode through a warm arena allocates no region buffer; what it
    /// does allocate is bookkeeping: each span's sector view and
    /// per-segment counters, and the returned stats.
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
    /// A plan's first verify lowers those runs and builds the kernels of
    /// the surplus constants its decode does not use; later verifies
    /// replay them. The pass uses the plan's region kernels, so its executed
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

    /// The one execution loop, behind every in-process and wire-plan
    /// decode: geometry check → `Decoder::run_spans` over phase A, then
    /// `H_rest` → [`ExecStats`].
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
        let (mut phase_a, wall) = self.run_spans(tape, true, stripe, arena);
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

    /// Runs the tape's phase A — and `H_rest` too when `with_rest` — over
    /// the stripe with [`map_spans`], choosing the span size: with
    /// `threads > 1` and sectors of at least `2 · threads · SPAN_BYTES`
    /// bytes, `SPAN_BYTES` spans mapped over the threads; otherwise one
    /// whole-sector span on the calling thread.
    pub(crate) fn run_spans<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        with_rest: bool,
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
        map_spans(threads, tape, with_rest, stripe, span_bytes, arena)
    }
}

/// Cuts every sector into `span_bytes` spans and maps them over up to
/// `threads` threads; each span runs the tape with [`run_span`] over its
/// own byte range. `mult_XORs` are byte-wise independent, so every span
/// size gives the bytes a whole-sector run gives. A span as long as the
/// sector is the whole stripe, run on the calling thread.
///
/// Returns one [`SubPlanStats`] per segment run — the op counts of any
/// one span, `bytes` and `nanos` summed over spans — and the wall time
/// of the whole map.
fn map_spans<W: GfWord>(
    threads: usize,
    tape: &PlanTape<W>,
    with_rest: bool,
    stripe: &mut Stripe,
    span_bytes: usize,
    arena: Option<&ScratchArena>,
) -> (Vec<SubPlanStats>, u128) {
    let started = Instant::now();
    let sb = stripe.sector_bytes();
    let per_span = if span_bytes >= sb {
        vec![run_span(tape, with_rest, stripe.sectors_mut(), sb, arena)]
    } else {
        let Ok(spans) = par_map(threads, stripe.spans_mut(span_bytes), |span| {
            let len = span.sector_bytes();
            Ok::<_, Infallible>(run_span(tape, with_rest, span.into_sectors(), len, arena))
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

/// Runs the tape over one span — `sectors`, the same `len`-byte range of
/// every sector — and returns each segment's counters: phase A's domain
/// and then, when `with_rest`, `H_rest`'s scratch and output domains
/// (see [`Domain`]).
///
/// Every run writes its destination in place: a recovered sector's range
/// in the stripe, or an `H_rest` `T` slot. The `T` slots are the span's
/// one arena reservation, `scratch_slots × len` bytes, taken unzeroed
/// (every slot's first touch is a run head or an explicit zero). The
/// view addresses both: entries `0..total_sectors` are the sectors, the
/// `T` slots follow.
///
/// Each term is tallied into its own segment's [`RegionStats`], so the
/// ledger stays per segment where a bundle mixes segments. Phase A runs
/// as one domain, so its wall time is split over its segments by their
/// executed `mult_XORs`.
fn run_span<'s, W: GfWord>(
    tape: &PlanTape<W>,
    with_rest: bool,
    sectors: impl IntoIterator<Item = &'s mut [u8]>,
    len: usize,
    arena: Option<&ScratchArena>,
) -> Vec<SubPlanStats> {
    let rest = tape.phase_b.as_ref().filter(|_| with_rest);
    let slots = rest.map_or(0, |seg| seg.scratch_slots);
    let mut scratch = match slots {
        0 => Vec::new(),
        _ => take_buf_dirty(arena, slots * len),
    };
    let mut view: Vec<&mut [u8]> = Vec::with_capacity(tape.total_sectors + slots);
    for sector in sectors {
        view.push(sector);
    }
    view.extend(scratch.chunks_exact_mut(len.max(1)));
    let sinks: Vec<RegionStats> = tape
        .phase_a
        .iter()
        .chain(rest)
        .map(|_| RegionStats::new())
        .collect();

    let started = Instant::now();
    let [phase_a, rest_scratch, rest_output] = &tape.domains;
    run_domain(tape, phase_a, &mut view, &sinks);
    let nanos_a = started.elapsed().as_nanos();
    if rest.is_some() {
        run_domain(tape, rest_scratch, &mut view, &sinks);
        run_domain(tape, rest_output, &mut view, &sinks);
    }
    let nanos_b = started.elapsed().as_nanos() - nanos_a;
    drop(view);
    if slots > 0 {
        give_buf(arena, scratch);
    }

    let p = tape.phase_a.len();
    let mult_xors_a: u64 = sinks.iter().take(p).map(RegionStats::mult_xors).sum();
    tape.phase_a
        .iter()
        .chain(rest)
        .zip(&sinks)
        .enumerate()
        .map(|(i, (seg, sink))| {
            let mut stats = SubPlanStats::collect(sink, seg.outputs.len(), Default::default());
            stats.nanos = if i < p {
                (nanos_a * u128::from(stats.mult_xors))
                    .checked_div(u128::from(mult_xors_a))
                    .unwrap_or(0)
            } else {
                nanos_b
            };
            stats
        })
        .collect()
}

/// Runs one domain over a span view: zeroes its empty destinations, then
/// runs each bundle in place. The bundle's destinations are taken out of
/// the view (`std::mem::take` leaves an empty slice), its sources are
/// read through the rest of it, and the destinations go back.
//
// Indexing is safe by [`crate::tape::check`] and bundle derivation:
// every destination is in range, and no run reads a destination of its
// domain, so no source is a taken entry.
#[allow(clippy::indexing_slicing)]
pub(crate) fn run_domain<W: GfWord>(
    tape: &PlanTape<W>,
    domain: &Domain,
    view: &mut [&mut [u8]],
    sinks: &[RegionStats],
) {
    for &z in &domain.zero {
        if let Some(dst) = view.get_mut(z) {
            dst.fill(0);
        }
    }
    for bundle in &domain.bundles {
        let mut dsts: [&mut [u8]; BUNDLE_RUNS] = Default::default();
        for (dst, run) in dsts.iter_mut().zip(&bundle.runs) {
            *dst = std::mem::take(&mut view[run.dst]);
        }
        let dsts = &mut dsts[..bundle.runs.len()];
        let view_ref = &*view;
        run_bundle(
            bundle,
            |run| tape.run_instrs(run),
            sinks,
            |v| &*view_ref[v],
            tape.total_sectors,
            dsts,
        );
        for (dst, run) in dsts.iter_mut().zip(&bundle.runs) {
            view[run.dst] = std::mem::take(dst);
        }
    }
}

/// Runs one bundle: `dsts[i]` receives `bundle.runs[i]`, whose
/// instructions `instrs` looks up, and every source is read through
/// `source` by its view index (see [`Domain`]) — `total_sectors` maps a
/// run's locations to view indices. A bundle with a multi-destination
/// table computes all its destinations in one pass over the shared
/// sources; any other runs its runs one by one through [`run_fused`].
/// Every term is recorded into `sinks[run.seg]`, so the ledger stays per
/// segment where a bundle mixes segments; a caller that keeps no ledger
/// passes no sinks. The only function that runs a tape's kernels.
//
// Indexing is safe by bundle derivation: `dsts` holds one destination
// per run, and a multi-destination table one source per column.
#[allow(clippy::indexing_slicing)]
pub(crate) fn run_bundle<'i, 'a, W: GfWord>(
    bundle: &Bundle,
    instrs: impl Fn(&Run) -> &'i [Instr<Kernel<W>>],
    sinks: &[RegionStats],
    source: impl Fn(usize) -> &'a [u8],
    total_sectors: usize,
    dsts: &mut [&mut [u8]],
) {
    let len = dsts.first().map_or(0, |d| d.len());
    for run in &bundle.runs {
        if let Some(sink) = sinks.get(run.seg) {
            for ins in instrs(run) {
                ins.kernel.record_with(len, sink);
            }
        }
    }
    if let Some((table, sources)) = &bundle.multi {
        table.mul_copy(|s| source(sources[s]), dsts);
        return;
    }
    for (run, dst) in bundle.runs.iter().zip(dsts) {
        run_fused(
            instrs(run),
            |loc| source(view_source(loc, total_sectors)),
            dst,
        );
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

/// [`Decoder::verify`], with the accumulators borrowed from `arena` when
/// one is given.
pub(crate) fn verify_plan<W: GfWord>(
    plan: &DecodePlan<W>,
    stripe: &Stripe,
    arena: Option<&ScratchArena>,
) -> Result<VerifyReport, DecodeError> {
    if !plan.supports_verify() {
        return Err(DecodeError::VerificationUnavailable);
    }
    run_verify(plan.verify_section(), plan.total_sectors(), stripe, arena)
}

/// Runs a verify section's bundles against a stripe of `total_sectors`
/// sectors, each run into its own sector-sized accumulator, and reports
/// the rows whose check value is non-zero in surplus order. The only
/// verify implementation — in-process plans and wire plans both end up
/// here.
pub(crate) fn run_verify<W: GfWord>(
    section: &VerifySection<W>,
    total_sectors: usize,
    stripe: &Stripe,
    arena: Option<&ScratchArena>,
) -> Result<VerifyReport, DecodeError> {
    check_geometry(total_sectors, stripe)?;
    let sink = RegionStats::new();
    let started = Instant::now();
    let sb = stripe.sector_bytes();
    // One accumulator per run of the widest bundle, taken dirty: each
    // run's head overwrites its own. An all-zero row has no run, so it is
    // never violated and no stale accumulator is inspected for it.
    let width = section.bundles.iter().map(|b| b.runs.len()).max();
    let mut bufs: Vec<Vec<u8>> = (0..width.unwrap_or(0))
        .map(|_| take_buf_dirty(arena, sb))
        .collect();
    let mut accs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    let mut violated = Vec::new();
    for bundle in &section.bundles {
        let dsts = accs.get_mut(..bundle.runs.len()).unwrap_or_default();
        run_bundle(
            bundle,
            |run| {
                section
                    .runs
                    .get(run.dst)
                    .map(|r| r.instrs.as_slice())
                    .unwrap_or_default()
            },
            std::slice::from_ref(&sink),
            |s| stripe.sector(s),
            total_sectors,
            dsts,
        );
        for (run, acc) in bundle.runs.iter().zip(&*dsts) {
            if !is_zero(acc) {
                violated.push(run.dst);
            }
        }
    }
    drop(accs);
    for buf in bufs {
        give_buf(arena, buf);
    }
    // Bundles follow source sets; the report follows the surplus rows.
    violated.sort_unstable();
    Ok(VerifyReport {
        rows_checked: section.runs.len(),
        violated_rows: violated
            .into_iter()
            .filter_map(|i| section.runs.get(i).map(|run| run.row))
            .collect(),
        stats: SubPlanStats::collect(&sink, 0, started.elapsed()),
    })
}

/// Whether every byte of `buf` is zero, tested a `u64` word at a time.
fn is_zero(buf: &[u8]) -> bool {
    let (words, tail) = buf.as_chunks::<8>();
    words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) == 0 && tail.iter().all(|&b| b == 0)
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

/// Terms one fused-kernel call takes from [`run_fused`]'s stack array:
/// the dot kernel's pass length, so chunking costs it nothing.
const FUSED_TERMS: usize = 16;

/// Applies one fused run: `dst = Σ kernel · source(src)` over `instrs`,
/// overwriting (the run head is the destination's first touch). A
/// single-term run dispatches its kernel directly; a longer one goes to
/// [`mul_copy_fused`] — then [`mul_xor_fused`] — [`FUSED_TERMS`] terms
/// per call from a stack array, so no run allocates. Records nothing:
/// callers tally the terms.
fn run_fused<'a, W: GfWord>(
    instrs: &[Instr<Kernel<W>>],
    source: impl Fn(Loc) -> &'a [u8],
    dst: &mut [u8],
) {
    if let [one] = instrs {
        one.kernel.mul_copy(source(one.src), dst);
        return;
    }
    for (pass, chunk) in instrs.chunks(FUSED_TERMS).enumerate() {
        let Some(first) = chunk.first() else {
            return;
        };
        let mut terms = [(&*first.kernel, source(first.src)); FUSED_TERMS];
        for (term, ins) in terms.iter_mut().zip(chunk).skip(1) {
            *term = (&*ins.kernel, source(ins.src));
        }
        let terms = terms.get(..chunk.len()).unwrap_or_default();
        if pass == 0 {
            mul_copy_fused(terms, dst);
        } else {
            mul_xor_fused(terms, dst);
        }
    }
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
        if !is_zero(&acc) {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::plan::Program;
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
            let (stats, _) = map_spans(2, tape, true, &mut broken, span_bytes, None);
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
    /// whose one reservation per span, `H_rest`'s `T` slots, shrinks to
    /// span-long slots — and either way the stripe comes back whole, on
    /// the ledger, with phase times inside the decode's wall time.
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
                // The paper case's H_rest is Normal: its T slots are the
                // arena reservation that shows the span size.
                assert!(plan.ensure_tape().rest_scratch_slots() > 0);
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

    /// A random tape over 16 sectors, 8 surviving and 8 faulty: up to
    /// three matrix-first phase-A segments over the survivors, then an
    /// optional `H_rest` — matrix-first or Normal — over survivors and
    /// phase-A outputs. Sources come from small pools so runs nest into
    /// bundles; some term lists are empty and some repeat a source.
    fn random_programs(rng: &mut StdRng) -> (Vec<Program<u8>>, Option<Program<u8>>) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let terms = random_terms;
        let mut faulty: Vec<usize> = (8..16).collect();
        faulty.shuffle(rng);
        let survivors: Vec<usize> = (0..8).collect();
        let mut phase_a = Vec::new();
        let mut recovered = Vec::new();
        for _ in 0..rng.random_range(0..=3usize) {
            let pool = &survivors[..rng.random_range(1..=8usize)];
            let outputs: Vec<(usize, Vec<(u8, usize)>)> = (0..rng.random_range(1..=3usize))
                .filter_map(|_| faulty.pop())
                .map(|sector| (sector, terms(pool, rng)))
                .collect();
            recovered.extend(outputs.iter().map(|o| o.0));
            phase_a.push(Program::MatrixFirst { outputs });
        }
        let inputs: Vec<usize> = survivors.iter().chain(&recovered).copied().collect();
        let outs: Vec<usize> = faulty.drain(..rng.random_range(0..=faulty.len())).collect();
        let phase_b = (!outs.is_empty()).then(|| {
            if rng.random_range(0..2usize) == 0 {
                Program::MatrixFirst {
                    outputs: outs.iter().map(|&s| (s, terms(&inputs, rng))).collect(),
                }
            } else {
                let t_terms: Vec<_> = (0..rng.random_range(1..=4usize))
                    .map(|_| terms(&inputs, rng))
                    .collect();
                let slots: Vec<usize> = (0..t_terms.len()).collect();
                Program::Normal {
                    f_terms: outs.iter().map(|&s| (s, terms(&slots, rng))).collect(),
                    t_terms,
                }
            }
        });
        (phase_a, phase_b)
    }

    /// A random term list over `pool`: a shuffled prefix of it, now and
    /// then repeating its first source.
    fn random_terms(pool: &[usize], rng: &mut StdRng) -> Vec<(u8, usize)> {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut srcs: Vec<usize> = pool.to_vec();
        srcs.shuffle(rng);
        srcs.truncate(rng.random_range(0..=pool.len()));
        if !srcs.is_empty() && rng.random_range(0..8usize) == 0 {
            srcs.push(srcs[0]);
        }
        srcs.into_iter()
            .map(|s| {
                (
                    [1u8, 1, 2, 0x1D, 0x53, 0xFF][rng.random_range(0..6usize)],
                    s,
                )
            })
            .collect()
    }

    /// Evaluates programs in order, word by word with `gf_mul`: the
    /// per-run ground truth the bundled executor must match.
    fn evaluate(programs: &[&Program<u8>], stripe: &mut Stripe) {
        let sum = |terms: &[(u8, usize)], read: &dyn Fn(usize) -> Vec<u8>, len: usize| {
            let mut out = vec![0u8; len];
            for &(c, s) in terms {
                for (o, b) in out.iter_mut().zip(read(s)) {
                    *o ^= c.gf_mul(b);
                }
            }
            out
        };
        let len = stripe.sector_bytes();
        for program in programs {
            match program {
                Program::MatrixFirst { outputs } => {
                    for (sector, terms) in outputs {
                        let out = sum(terms, &|s| stripe.sector(s).to_vec(), len);
                        stripe.write_sector(*sector, &out);
                    }
                }
                Program::Normal { t_terms, f_terms } => {
                    let t: Vec<Vec<u8>> = t_terms
                        .iter()
                        .map(|terms| sum(terms, &|s| stripe.sector(s).to_vec(), len))
                        .collect();
                    for (sector, terms) in f_terms {
                        let out = sum(terms, &|e| t[e].clone(), len);
                        stripe.write_sector(*sector, &out);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Bundled in-place execution — multi-destination tables where
        /// this host runs them, whole sectors and 40-byte spans — equals
        /// evaluating the same random programs run by run, on the
        /// ledger too.
        #[test]
        fn bundled_execution_equals_per_run(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (phase_a, phase_b) = random_programs(&mut rng);
            let programs: Vec<&Program<u8>> = phase_a.iter().chain(&phase_b).collect();
            let coeffs: Vec<u8> = (1..=255).collect();
            let regions = crate::plan::RegionCache::build(coeffs, Backend::Auto);
            let lower = |p: &Program<u8>| {
                crate::tape::lower_subplan(&crate::plan::SubPlan { program: p.clone() }, &regions)
            };
            let mut faulty: Vec<usize> = phase_a
                .iter()
                .chain(&phase_b)
                .flat_map(|p| p.output_sectors())
                .collect();
            faulty.sort_unstable();
            let tape = PlanTape::from_parts(
                phase_a.iter().map(lower).collect(),
                phase_b.as_ref().map(lower),
                None,
                16,
                faulty.clone(),
                Strategy::PpmNormalRest,
                None,
            );
            proptest::prop_assert_eq!(
                crate::tape::check(&tape.phase_a, tape.phase_b.as_ref(), &[], &faulty, 16),
                Ok(())
            );
            let mut pristine = Stripe::zeroed(ppm_codes::StripeLayout::new(4, 4), 200);
            for l in 0..16 {
                let bytes: Vec<u8> = (0..200).map(|_| rand::Rng::random(&mut rng)).collect();
                pristine.write_sector(l, &bytes);
            }
            let mut want = pristine.clone();
            evaluate(&programs, &mut want);
            for span_bytes in [200, 40] {
                let mut got = pristine.clone();
                let (stats, _) = map_spans(2, &tape, true, &mut got, span_bytes, None);
                proptest::prop_assert!(got == want, "seed {} span {}", seed, span_bytes);
                let executed: u64 = stats.iter().map(|s| s.mult_xors).sum();
                proptest::prop_assert_eq!(executed, tape.mult_xors() as u64);
            }
        }

        /// Bundled verify runs equal checking random surplus rows one by
        /// one. Rows draw from small source pools, so they share source
        /// sets and bundle; some are empty, some repeat a source, and rows
        /// over sectors 12..16 — zero in the stripe — check clean.
        #[test]
        fn bundled_verify_equals_per_row(seed in 0u64..1_000_000) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let pools: [&[usize]; 3] = [&[0, 1, 2, 3], &[4, 5, 6, 7, 8, 9, 10, 11], &[12, 13, 14, 15]];
            let rows: Vec<crate::plan::SurplusRow<u8>> = (0..rng.random_range(0..=12usize))
                .map(|i| (3 * i + 1, random_terms(pools[rng.random_range(0..3usize)], &mut rng)))
                .collect();
            let mut stripe = Stripe::zeroed(ppm_codes::StripeLayout::new(4, 4), 72);
            for l in 0..12 {
                let bytes: Vec<u8> = (0..72).map(|_| rng.random()).collect();
                stripe.write_sector(l, &bytes);
            }
            let violated: Vec<usize> = rows
                .iter()
                .filter(|(_, terms)| {
                    let mut sum = [0u8; 72];
                    for &(c, s) in terms {
                        for (o, &b) in sum.iter_mut().zip(stripe.sector(s)) {
                            *o ^= c.gf_mul(b);
                        }
                    }
                    sum.iter().any(|&b| b != 0)
                })
                .map(|(row, _)| *row)
                .collect();
            let terms: usize = rows.iter().map(|(_, t)| t.len()).sum();

            let regions = crate::plan::RegionCache::build((1..=255).collect(), Backend::Auto);
            let section = VerifySection::new(crate::tape::lower_verify(&rows, &regions, 16), 16);
            let bundled: usize = section.bundles.iter().map(|b| b.runs.len()).sum();
            let nonempty = rows.iter().filter(|(_, t)| !t.is_empty()).count();
            proptest::prop_assert_eq!(bundled, nonempty);
            let report = run_verify(&section, 16, &stripe, None).unwrap();
            proptest::prop_assert_eq!(report.rows_checked, rows.len());
            proptest::prop_assert_eq!(report.violated_rows, violated);
            proptest::prop_assert_eq!(report.stats.mult_xors, terms as u64);
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

        // The executor's arena-borrowing verify agrees.
        let executor = crate::Executor::new(dec.config());
        let in_arena = executor.verify(&plan, &stripe).unwrap();
        assert_eq!(in_arena.violated_rows, report.violated_rows);
        assert!(
            executor.arena().stats().fresh > 0,
            "borrowed from the arena"
        );
    }

    /// SD(8,8,2,2) with one lost disk: each stripe row keeps one
    /// row-parity check and the two global checks read every sector, so
    /// they share one bundle. The bundled report equals the scalar wire
    /// tape's run-by-run report: clean with the exact ledger after the
    /// decode, and after a one-byte flip both global rows and the
    /// flipped row's check are reported, in ascending order.
    #[test]
    fn sd_verify_bundles_equal_run_by_run() {
        let code = SdCode::<u8>::search(8, 8, 2, 2, 2015, 3).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::whole_disks(code.layout(), &[3]);
        let dec = Decoder::new(DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        });
        let mut rng = StdRng::seed_from_u64(88);
        let mut pristine = random_data_stripe(&code, 96, &mut rng);
        encode(&code, &dec, &mut pristine).unwrap();
        let plan = dec.plan(&h, &sc, Strategy::PpmAuto).unwrap();
        let mut stripe = pristine.clone();
        stripe.erase(&sc);
        dec.decode(&plan, &mut stripe).unwrap();
        assert_eq!(stripe, pristine);

        let section = plan.verify_section();
        assert_eq!(section.runs.len(), plan.verify_rows());
        assert!(
            section.bundles.len() < plan.verify_rows(),
            "{} bundles for {} rows",
            section.bundles.len(),
            plan.verify_rows()
        );
        // On a GFNI host the shared pass is one multi-destination table.
        let multi = section.bundles.iter().any(|b| b.multi.is_some());
        assert_eq!(multi, Backend::Gfni.is_available());
        let wire = crate::WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap();
        let scalar = crate::Executor::new(decoder(1).config());
        let outcome =
            |r: &VerifyReport| (r.rows_checked, r.violated_rows.clone(), r.stats.mult_xors);

        let report = dec.verify(&plan, &stripe).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.stats.mult_xors, plan.verify_mult_xors() as u64);
        assert_eq!(
            outcome(&scalar.verify_wire(&wire, &stripe).unwrap()),
            outcome(&report)
        );

        stripe.sector_mut(0)[17] ^= 0x3C;
        let report = dec.verify(&plan, &stripe).unwrap();
        let mut expect: Vec<usize> = plan
            .surplus_row_indices()
            .into_iter()
            .filter(|&row| h.get(row, 0) != 0)
            .collect();
        expect.sort_unstable();
        assert_eq!(report.violated_rows, expect);
        assert_eq!(expect.len(), 3, "a row check and two global checks");
        assert_eq!(
            outcome(&scalar.verify_wire(&wire, &stripe).unwrap()),
            outcome(&report)
        );
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

    /// Verify accumulators are taken *dirty* (no zeroing sweep), which
    /// is only sound because a run's head overwrites its accumulator — so
    /// an all-zero surplus row (no instructions, nothing overwrites) must
    /// be skipped as "not violated" rather than judged on stale bytes.
    #[test]
    fn verify_takes_a_dirty_accumulator_and_skips_empty_rows() {
        let regions = crate::plan::RegionCache::build(vec![1u8, 2], Backend::Scalar);
        let section = |rows: &[crate::plan::SurplusRow<u8>]| {
            VerifySection::new(crate::tape::lower_verify(rows, &regions, 16), 16)
        };
        let stripe = Stripe::zeroed(ppm_codes::StripeLayout::new(4, 4), 64);
        let arena = ScratchArena::new();
        arena.give(vec![0xAB; 64]);

        // Only an empty row: nothing runs, no accumulator is taken, and
        // the poisoned buffer stays in the arena untouched.
        let empty = section(&[(7, Vec::new())]);
        let report = run_verify(&empty, 16, &stripe, Some(&arena)).unwrap();
        assert_eq!(report.rows_checked, 1);
        assert!(report.clean(), "an empty row is never violated");
        assert_eq!(report.stats.mult_xors, 0);
        assert_eq!(arena.take_dirty(64), vec![0xAB; 64]);

        // Beside a real row the pass borrows the poisoned buffer as-is —
        // a zeroing take would have allocated — and the row's head
        // overwrites it: on a zero stripe the check is clean.
        arena.give(vec![0xAB; 64]);
        let rows = section(&[(3, vec![(1, 0), (2, 5)]), (7, Vec::new())]);
        let report = run_verify(&rows, 16, &stripe, Some(&arena)).unwrap();
        assert_eq!(report.rows_checked, 2);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.stats.mult_xors, 2);
        assert_eq!(arena.stats().fresh, 0);
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
