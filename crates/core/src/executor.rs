//! The execution half of the planner/executor split: runs plans against
//! locally held sectors.
//!
//! An [`Executor`] owns everything a decode's *data path* needs — the
//! [`Decoder`] and the [`ScratchArena`] of recycled buffers — and nothing
//! the *planning* path needs: no code, no parity-check matrix, no plan
//! cache. It can therefore run on a machine that has never seen the code,
//! executing the [`PlanTape`] a [`WirePlan`](crate::WirePlan) from a
//! coordinator compiles to ([`Executor::execute_wire`]), or serve as the
//! in-process engine behind [`RepairService`](crate::RepairService).
//! Either way the work is one `PlanTape` run by the same loop
//! (`Decoder::run_tape`).
//!
//! The cluster-facing entry points implement *partial-block repair*. A
//! tape segment splits at its scratch boundary into a `T = S · BS`
//! section and an `F⁻¹ · T` section (the paper's Normal sequence,
//! §II-B), and each side of the wire runs one of them with the same
//! section runner. [`Executor::wire_partials`] runs the phase-A segments
//! locally and, when the tape's `H_rest` is splittable, only the `T`
//! section of `H_rest` — `z_b` sector-sized blocks to ship instead of
//! the `n − z` surviving sectors a naive repair would move. The
//! aggregating side runs the `F⁻¹ · T` section with
//! [`Executor::finish_rest`] without ever holding the stripe; a
//! coordinator runs it on the tape of the plan its session cached.

use crate::arena::ScratchArena;
use crate::exec::{
    check_geometry, give_buf, run_section, run_verify_runs, sectors_only, take_buf_dirty, Decoder,
    DecoderConfig, VerifyReport,
};
use crate::plan::DecodePlan;
use crate::stats::ExecStats;
use crate::tape::{Loc, PlanTape, Section};
use crate::DecodeError;
use ppm_gf::{GfWord, RegionStats};
use ppm_stripe::Stripe;

/// The data-path half of a repair session: decoder and scratch arena.
/// See the module docs.
pub struct Executor {
    decoder: Decoder,
    arena: ScratchArena,
}

impl Executor {
    /// Creates an executor with its own decoder and empty arena.
    pub fn new(config: DecoderConfig) -> Self {
        Executor {
            decoder: Decoder::new(config),
            arena: ScratchArena::new(),
        }
    }

    /// The decoder, carrying the session's thread budget.
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// The executor's scratch-buffer arena.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Decodes one stripe on the decoder's thread budget (intra-stripe
    /// parallelism over 4 KiB spans of long sectors, see
    /// [`DecoderConfig::threads`]), borrowing scratch from the executor's
    /// arena.
    pub fn decode<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.decoder.decode_in(plan, stripe, &self.arena)
    }

    /// Verifies a recovered stripe against the plan's surplus rows,
    /// borrowing the accumulator from the arena.
    pub fn verify<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        self.decoder.verify_in(plan, stripe, &self.arena)
    }

    /// Executes a tape compiled from a wire plan
    /// ([`WirePlan::compile`](crate::WirePlan::compile)) fully against a
    /// locally held stripe — the same tape loop as [`Executor::decode`],
    /// so bit-identical to the in-process path for the plan the wire
    /// encoding came from, with the same executed == predicted ledger.
    pub fn execute_wire<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.decoder.run_tape(tape, stripe, Some(&self.arena))
    }

    /// The survivor side of partial-block repair: runs the tape's
    /// phase-A segments against the locally held stripe (writing their
    /// recovered sectors in place) and then, if the tape's `H_rest` is
    /// [splittable](PlanTape::rest_splittable), computes only its
    /// partial-sum `T` blocks — the payload that crosses the wire. A
    /// non-splittable `H_rest` (matrix-first, reads sectors directly) is
    /// finished locally instead, so nothing ships either way except when
    /// splitting genuinely pays.
    ///
    /// Returns [`WirePartials`]: `rest_pending == true` means the
    /// aggregator must run [`Executor::finish_rest`] over `rest_blocks`
    /// and send the recovered sectors back; `false` means the stripe is
    /// already fully repaired locally.
    pub fn wire_partials<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        stripe: &mut Stripe,
    ) -> Result<WirePartials, DecodeError> {
        let arena = Some(&self.arena);
        let Some(seg) = tape.phase_b.as_ref().filter(|_| tape.rest_splittable()) else {
            // No H_rest, or one that reads sectors directly: the whole
            // tape runs here and nothing ships.
            self.decoder.run_tape(tape, stripe, arena)?;
            return Ok(WirePartials {
                rest_blocks: Vec::new(),
                rest_pending: false,
            });
        };
        check_geometry(tape.total_sectors, stripe)?;
        self.decoder.run_spans(tape, false, stripe, arena);

        // Splittable H_rest: compute the scratch (T) section only — the
        // sums over locally held sectors. The output section (F⁻¹ · T)
        // belongs to the aggregator.
        let sb = stripe.sector_bytes();
        let mut scratch = take_buf_dirty(arena, seg.scratch_slots * sb);
        run_section(
            seg,
            Section::Scratch,
            sectors_only(&*stripe),
            &mut scratch,
            sb,
            &RegionStats::new(),
        );
        let rest_blocks = scratch.chunks_exact(sb).map(<[u8]>::to_vec).collect();
        give_buf(arena, scratch);
        Ok(WirePartials {
            rest_blocks,
            rest_pending: true,
        })
    }

    /// The aggregator side of partial-block repair: finishes a split
    /// `H_rest` from the survivor's partial-sum `T` blocks, returning the
    /// recovered `(sector, bytes)` pairs to send back. Runs entirely on
    /// the `T` blocks — the aggregator never holds the stripe — so a
    /// coordinator runs it on the tape of the plan it shipped.
    ///
    /// # Errors
    /// [`GeometryMismatch`](crate::RepairError::GeometryMismatch) when
    /// the block count differs from the plan's scratch slots, and
    /// [`SectorLengthMismatch`](crate::RepairError::SectorLengthMismatch)
    /// when a block is not exactly `sector_bytes` long, and
    /// [`RestNotSplittable`](crate::RepairError::RestNotSplittable) when
    /// the plan's `H_rest` does not split — callers route on
    /// [`WirePartials::rest_pending`], but that bit arrives over the
    /// wire, so a wrong peer gets an error here, never a panic.
    //
    // Slicing is safe by the length checks above plus
    // `crate::tape::check`: every `Slot` source is below `scratch_slots`,
    // every block is `sector_bytes` long, and the output reservation is
    // exactly `outputs.len()` sectors.
    #[allow(clippy::indexing_slicing)]
    pub fn finish_rest<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        rest_blocks: &[Vec<u8>],
        sector_bytes: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, DecodeError> {
        let Some(seg) = &tape.phase_b else {
            return Ok(Vec::new());
        };
        if !tape.rest_splittable() {
            return Err(DecodeError::RestNotSplittable);
        }
        if rest_blocks.len() != seg.scratch_slots {
            return Err(DecodeError::GeometryMismatch {
                expected: seg.scratch_slots,
                actual: rest_blocks.len(),
            });
        }
        for (slot, block) in rest_blocks.iter().enumerate() {
            if block.len() != sector_bytes {
                return Err(DecodeError::SectorLengthMismatch {
                    sector: slot,
                    expected: sector_bytes,
                    actual: block.len(),
                });
            }
        }

        let sb = sector_bytes;
        let arena = Some(&self.arena);
        let mut outs = take_buf_dirty(arena, seg.outputs.len() * sb);
        run_section(
            seg,
            Section::Output,
            |loc| match loc {
                Loc::Slot(e) => &rest_blocks[e][..],
                // `rest_splittable` means the output section reads slots only.
                Loc::Sector(_) => unreachable!("split output section reads slots only"),
            },
            &mut outs,
            sb,
            &RegionStats::new(),
        );
        let recovered = seg
            .outputs
            .iter()
            .enumerate()
            .map(|(i, &(_, sector))| (sector, outs[i * sb..(i + 1) * sb].to_vec()))
            .collect();
        give_buf(arena, outs);
        Ok(recovered)
    }

    /// Verifies a locally held stripe against a tape's surplus rows. A
    /// tape compiled from a wire plan carrying no verify rows reports
    /// zero `rows_checked` (vacuously clean) — the wire encoding cannot
    /// distinguish "surplus not retained" from "no surplus rows existed".
    pub fn verify_wire<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        run_verify_runs(tape, stripe, Some(&self.arena))
    }
}

/// What a survivor produced from its portion of a wire plan (see
/// [`Executor::wire_partials`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePartials {
    /// The partial-sum `T` blocks of a split `H_rest`, one per scratch
    /// slot, each one sector long. Empty when nothing needs to travel.
    pub rest_blocks: Vec<Vec<u8>>,
    /// True when the aggregator still owes the stripe its phase-B
    /// sectors ([`Executor::finish_rest`]); false when the repair
    /// finished locally.
    pub rest_pending: bool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.decoder.config().threads)
            .field("arena", &self.arena)
            .finish()
    }
}
