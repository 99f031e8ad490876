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
//! tape's `H_rest` splits at its scratch boundary into a `T = S · BS`
//! domain and an `F⁻¹ · T` domain (the paper's Normal sequence, §II-B),
//! and each side of the wire runs one of them through the bundle runner
//! every decode uses. [`Executor::wire_partials`] runs the phase-A
//! segments locally and, when the tape's `H_rest` is splittable, only
//! the `T` domain of `H_rest`, straight into the blocks it returns —
//! `z_b` sector-sized blocks to ship instead of the `n − z` surviving
//! sectors a naive repair would move. The aggregating side runs the
//! `F⁻¹ · T` domain with [`Executor::finish_rest`] from the shipped
//! blocks into the sectors it returns, without ever holding the stripe;
//! a coordinator runs it on the tape of the plan its session cached.

use crate::arena::ScratchArena;
use crate::exec::{
    check_geometry, run_bundle, run_domain, run_verify, verify_plan, Decoder, DecoderConfig,
    VerifyReport,
};
use crate::plan::DecodePlan;
use crate::stats::ExecStats;
use crate::tape::{PlanTape, BUNDLE_RUNS};
use crate::DecodeError;
use ppm_gf::GfWord;
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

    /// Verifies a recovered stripe against the plan's surplus rows
    /// ([`Decoder::verify`]), borrowing the accumulators from the arena.
    pub fn verify<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        verify_plan(plan, stripe, Some(&self.arena))
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

        // Splittable H_rest: run the scratch (T) domain only — the sums
        // over locally held sectors — with the blocks to ship as its
        // T slots in the span view. The output domain (F⁻¹ · T) belongs
        // to the aggregator.
        let sb = stripe.sector_bytes();
        let mut rest_blocks: Vec<Vec<u8>> = (0..seg.scratch_slots).map(|_| vec![0; sb]).collect();
        let mut view: Vec<&mut [u8]> = stripe.sectors_mut().collect();
        view.extend(rest_blocks.iter_mut().map(Vec::as_mut_slice));
        let [_, rest_scratch, _] = &tape.domains;
        run_domain(tape, rest_scratch, &mut view, &[]);
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
    // Indexing is safe by the length checks above plus
    // `crate::tape::check` and bundle derivation: a splittable output
    // domain reads `T` slots only, each below `scratch_slots`, every
    // bundle writes outputs of `H_rest`, and `dsts` holds a destination
    // per run.
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

        // Fresh zeroed sectors: the domain's zero entries need no fill.
        let mut recovered: Vec<(usize, Vec<u8>)> = seg
            .outputs
            .iter()
            .map(|&(_, sector)| (sector, vec![0; sector_bytes]))
            .collect();
        let n = tape.total_sectors;
        let [_, _, rest_output] = &tape.domains;
        for bundle in &rest_output.bundles {
            let mut dsts: [&mut [u8]; BUNDLE_RUNS] = Default::default();
            for (sector, bytes) in &mut recovered {
                if let Some(i) = bundle.runs.iter().position(|run| run.dst == *sector) {
                    dsts[i] = bytes;
                }
            }
            run_bundle(
                bundle,
                |run| tape.run_instrs(run),
                &[],
                |v| &rest_blocks[v - n],
                n,
                &mut dsts[..bundle.runs.len()],
            );
        }
        Ok(recovered)
    }

    /// Verifies a locally held stripe against the surplus rows of a tape
    /// compiled from a wire plan. A wire plan carrying no verify rows
    /// reports zero `rows_checked` (vacuously clean) — the wire encoding
    /// cannot distinguish "surplus not retained" from "no surplus rows
    /// existed".
    ///
    /// # Errors
    /// [`RepairError::VerificationUnavailable`](crate::RepairError::VerificationUnavailable)
    /// for an in-process tape whose plan has not verified yet: its verify
    /// section is lowered on the plan's first verify
    /// ([`Executor::verify`]), and the tape alone cannot lower it.
    /// [`RepairError::GeometryMismatch`](crate::RepairError::GeometryMismatch)
    /// when the stripe does not match the tape.
    pub fn verify_wire<W: GfWord>(
        &self,
        tape: &PlanTape<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        let section = tape
            .verify
            .get()
            .ok_or(DecodeError::VerificationUnavailable)?;
        run_verify(section, tape.total_sectors(), stripe, Some(&self.arena))
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
