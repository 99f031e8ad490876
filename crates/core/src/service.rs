//! The repair session layer: one object that amortizes everything a
//! decode can amortize.
//!
//! A [`Decoder`] prices and executes one decode; a [`RepairService`]
//! owns the context that *repeats* across decodes — the code's
//! parity-check matrix, a [`PlanCache`] of built plans keyed by erasure
//! signature, a [`ScratchArena`] of recycled data-path buffers, and the
//! decoder itself. Repairing a failed device is then a loop of
//! [`RepairService::repair`] calls that, after the first stripe, perform
//! zero matrix factorizations and zero plan-time allocations: the plan is
//! an `Arc` handed back by the cache, and the working buffers cycle
//! through the arena.
//!
//! The service is a *shared* session: every entry point takes `&self` and
//! `RepairService` is `Sync`, so N repair workers can drive one session
//! concurrently — sharing the plan cache and the scratch arena — either
//! by hand or through the built-in [`RepairService::repair_batch`] /
//! [`RepairService::repair_stream`] drivers, which split work between
//! intra-stripe parallelism (the decoder's threads over 4 KiB spans of
//! long sectors) and one-worker-per-stripe parallelism adaptively. Each
//! entry point looks its plan up once per call (once per batch for the
//! drivers), so the cache is one lock with single-flight builds, while
//! the arena, which every stripe's decode borrows from, keeps
//! thread-affine shards.

use crate::arena::ScratchArena;
use crate::cache::PlanCacheStats;
use crate::exec::{Decoder, DecoderConfig, VerifyReport};
use crate::executor::Executor;
use crate::par::par_map;
use crate::plan::{DecodePlan, Strategy};
use crate::planner::Planner;
use crate::stats::{ExecStats, SubPlanStats, UpdateStats, VerifyStats};
use crate::update::UpdatePlan;
use crate::DecodeError;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::{GfWord, RegionStats};
use ppm_stripe::Stripe;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A long-lived repair session for one erasure code.
///
/// The service is generic over the code (`&dyn ErasureCode<W>` works via
/// the blanket borrow impl) and captures the parity-check matrix once at
/// construction. Every decode entry point takes `&self` — the cache, the
/// arena, and their counters use interior mutability, and the service is
/// `Sync` — and returns the decode's [`ExecStats`]. The cache and arena
/// counters are read from the session itself
/// ([`RepairService::cache_stats`], [`RepairService::arena`]).
///
/// ```
/// use ppm_codes::{FailureScenario, SdCode};
/// use ppm_core::{RepairService, Strategy};
/// use ppm_stripe::random_data_stripe;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
/// let service = RepairService::new(code, Default::default());
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut stripe = random_data_stripe(service.code(), 512, &mut rng);
/// service.encode(&mut stripe).unwrap();
///
/// let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
/// let pristine = stripe.clone();
/// for _ in 0..3 {
///     let mut broken = pristine.clone();
///     broken.erase(&scenario);
///     let stats = service.repair(&mut broken, &scenario).unwrap();
///     assert_eq!(broken, pristine);
///     assert!(stats.matches_prediction());
/// }
/// // One build served all three repairs (the other miss is encode's plan).
/// assert_eq!(service.cache_stats().misses, 2);
/// assert_eq!(service.cache_stats().hits, 2);
/// ```
pub struct RepairService<W: GfWord, C: ErasureCode<W>> {
    /// The planning half: code, parity-check matrix, strategy, and the
    /// plan cache. Produces in-process plans and serializable
    /// [`WirePlan`](crate::WirePlan)s.
    planner: Planner<W, C>,
    /// The execution half: the decoder and the scratch arena. Never
    /// touches the code or the cache.
    executor: Executor,
    /// The small-write planner, built lazily on the first update and
    /// shared by every subsequent flush (one generator inversion per
    /// session, like one plan build per erasure signature).
    update_plan: OnceLock<Arc<UpdatePlan<W>>>,
}

impl<W: GfWord, C: ErasureCode<W>> RepairService<W, C> {
    /// Creates a session for `code` with [`Strategy::PpmAuto`] and an
    /// empty plan cache.
    pub fn new(code: C, config: DecoderConfig) -> Self {
        Self::from_parts(Planner::new(code, config.backend), Executor::new(config))
    }

    /// Wires an existing planner and executor into a session — the same
    /// composition [`RepairService::new`] performs, exposed for callers
    /// that built the halves separately (a coordinator's planner, a
    /// worker's executor).
    pub fn from_parts(planner: Planner<W, C>, executor: Executor) -> Self {
        RepairService {
            planner,
            executor,
            update_plan: OnceLock::new(),
        }
    }

    /// Sets the strategy requested for every plan this session builds.
    /// The strategy is part of the cache key, so sessions wanting to
    /// compare strategies should use one service per strategy (or accept
    /// the cache holding both).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.planner = self.planner.with_strategy(strategy);
        self
    }

    /// The planning half of the session.
    pub fn planner(&self) -> &Planner<W, C> {
        &self.planner
    }

    /// The execution half of the session.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The code this session repairs.
    pub fn code(&self) -> &C {
        self.planner.code()
    }

    /// The underlying decoder.
    pub fn decoder(&self) -> &Decoder {
        self.executor.decoder()
    }

    /// The strategy requested for plan builds.
    pub fn strategy(&self) -> Strategy {
        self.planner.strategy()
    }

    /// Cumulative plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.planner.cache_stats()
    }

    /// The session's scratch-buffer arena (telemetry: fresh allocations
    /// vs reuses).
    pub fn arena(&self) -> &ScratchArena {
        self.executor.arena()
    }

    /// Drops every cached plan, keeping the cumulative counters.
    pub fn clear_cache(&self) {
        self.planner.clear_cache();
    }

    /// A one-thread decoder for inter-stripe workers: when each worker
    /// owns whole stripes there is nothing left to parallelize inside
    /// one, and a serial decoder reports its thread budget honestly.
    fn serial_decoder(&self) -> Decoder {
        Decoder::new(DecoderConfig {
            threads: 1,
            ..self.decoder().config()
        })
    }

    /// The session's plan for `scenario`: cached when seen before (in
    /// any faulty-column order), built and cached otherwise. Returns the
    /// plan and whether the lookup hit. Concurrent callers missing on the
    /// same cold key build the plan once (single-flight).
    pub fn plan_for(
        &self,
        scenario: &FailureScenario,
    ) -> Result<(Arc<DecodePlan<W>>, bool), DecodeError> {
        self.planner.plan_for(scenario)
    }

    /// Repairs one stripe in place: plans (or re-uses the cached plan
    /// for) `scenario`, replays its compiled tape through the arena, and
    /// returns the run's stats.
    pub fn repair(
        &self,
        stripe: &mut Stripe,
        scenario: &FailureScenario,
    ) -> Result<ExecStats, DecodeError> {
        let (plan, _) = self.plan_for(scenario)?;
        self.executor.decode(&plan, stripe)
    }

    /// The escalation budget: the session code's declared
    /// [`ErasureCode::fault_tolerance`], captured at construction.
    pub fn fault_tolerance(&self) -> usize {
        self.planner.fault_tolerance()
    }

    /// Repairs one stripe and *checks the work*: after decoding,
    /// re-evaluates the plan's surplus parity-check rows against the
    /// recovered stripe (see [`Decoder::verify`]); on violation runs
    /// **erasure escalation** — each suspect surviving sector is promoted
    /// into the faulty set and the decode retried from the original
    /// surviving data, until one promotion yields a stripe that verifies
    /// clean with redundancy to spare or the code's declared
    /// fault-tolerance budget is exhausted.
    ///
    /// Suspects are tried in evidence order. A violated parity row must
    /// contain at least one corrupt sector, so surviving sectors that
    /// appear in *every* violated row form the first tier; within a tier,
    /// sectors the original decode actually read come first (one corrupt
    /// input poisons every output), then the surviving sectors it never
    /// touched (which still trip the surplus rows they appear in).
    ///
    /// When the surviving data admits more than one consistent
    /// explanation — too little surplus redundancy to isolate the corrupt
    /// sector uniquely — escalation returns the first hypothesis whose
    /// recovered stripe satisfies every remaining parity-check row. The
    /// evidence ordering makes that the true one whenever the code has
    /// the redundancy to distinguish; DESIGN.md §8 quantifies the bound.
    ///
    /// The returned [`ExecStats`] describes the decode that produced the
    /// final bytes and carries [`VerifyStats`] with the verify-pass
    /// ledger, escalation count, and the sectors located as silently
    /// corrupt (now overwritten with their recovered contents).
    ///
    /// Two proof-strength rules:
    /// * A clean *first* pass with `rows_available == 0` is accepted
    ///   vacuously — a failure pattern consuming every row of `H` leaves
    ///   nothing to check against, and corruption is then
    ///   information-theoretically undetectable.
    /// * An *escalated* decode is never accepted vacuously: a promotion
    ///   only wins if its own plan keeps at least one surplus row and
    ///   every such row checks out.
    ///
    /// # Errors
    /// [`RepairError::VerificationFailed`](crate::RepairError::VerificationFailed)
    /// when the first pass found violations and no escalation attempt was
    /// admissible;
    /// [`RepairError::EscalationExhausted`](crate::RepairError::EscalationExhausted)
    /// when every attempt within budget failed its own verification. On
    /// either error the stripe holds the unverified first decode —
    /// callers must treat its recovered sectors as untrusted.
    pub fn repair_verified(
        &self,
        stripe: &mut Stripe,
        scenario: &FailureScenario,
    ) -> Result<ExecStats, DecodeError> {
        let (plan, _) = self.plan_for(scenario)?;
        let mut stats = self.executor.decode(&plan, stripe)?;
        let report = self.executor.verify(&plan, stripe)?;
        let mut verify = VerifyStats {
            rows_available: plan.verify_rows(),
            predicted_mult_xors: plan.verify_mult_xors(),
            first_pass: report.stats,
            extra: SubPlanStats::default(),
            passes: 1,
            violated_rows: report.violated_rows.clone(),
            escalations: 0,
            located: Vec::new(),
        };
        if report.clean() {
            stats.verify = Some(verify);
            return Ok(stats);
        }

        // Escalated retries must re-read the *original* surviving data:
        // a failed hypothesis overwrites sectors a later hypothesis
        // treats as inputs, so each attempt decodes a fresh copy. The
        // copy is taken only here, off the clean path: the first decode
        // wrote nothing but `plan.faulty()`, every escalation plan
        // erases a superset of those sectors, and a decode never reads
        // what it erases — so the decoded stripe is as good a baseline
        // as the stripe handed in.
        let baseline = stripe.clone();

        // Suspect list: consumed inputs first, then the rest of the
        // surviving sectors.
        let faulty = plan.faulty().to_vec();
        let mut suspects = plan.read_sectors();
        for s in 0..plan.total_sectors() {
            if faulty.binary_search(&s).is_err() && !suspects.contains(&s) {
                suspects.push(s);
            }
        }
        // Evidence ordering: every violated row necessarily contains a
        // corrupt sector, so sectors appearing (with a non-zero
        // coefficient) in *all* violated rows are the strongest suspects.
        // The sort is stable, keeping read-order within each tier.
        let h = self.planner.h();
        suspects.sort_by_key(|&s| report.violated_rows.iter().any(|&r| h.get(r, s) == W::ZERO));

        let budget = self.planner.fault_tolerance();
        let mut attempts = 0usize;
        if faulty.len() < budget {
            for suspect in suspects {
                let mut promoted = faulty.clone();
                promoted.push(suspect);
                let esc_scenario = FailureScenario::new(promoted);
                let esc_plan = match self.plan_for(&esc_scenario) {
                    Ok((p, _)) => p,
                    // This particular promotion is beyond the code's
                    // erasure-pattern story; the next suspect may not be.
                    Err(DecodeError::Unrecoverable { .. }) => continue,
                    Err(e) => return Err(e),
                };
                // No vacuous proofs: skip promotions that would consume
                // every remaining parity-check row.
                if esc_plan.verify_rows() == 0 {
                    continue;
                }
                attempts += 1;
                let mut candidate = baseline.clone();
                let esc_stats = self.executor.decode(&esc_plan, &mut candidate)?;
                let esc_report = self.executor.verify(&esc_plan, &candidate)?;
                verify.passes += 1;
                accumulate_extra(&mut verify.extra, &esc_stats, &esc_report);
                if esc_report.clean() {
                    *stripe = candidate;
                    verify.escalations = attempts;
                    verify.located = vec![suspect];
                    let mut out = esc_stats;
                    out.verify = Some(verify);
                    return Ok(out);
                }
            }
        }
        if attempts == 0 {
            Err(DecodeError::VerificationFailed {
                violated_rows: report.violated_rows,
            })
        } else {
            Err(DecodeError::EscalationExhausted { attempts, budget })
        }
    }

    /// Encodes a stripe in place — the decoding special case where every
    /// parity sector is "faulty" (paper §II-B, footnote 1). The encode
    /// plan is cached like any repair plan, so streaming ingest pays the
    /// plan build once.
    pub fn encode(&self, stripe: &mut Stripe) -> Result<ExecStats, DecodeError> {
        let scenario = FailureScenario::new(self.planner.code().parity_sectors());
        self.repair(stripe, &scenario)
    }

    /// The session's small-write planner ([`UpdatePlan`]), built on first
    /// use and shared thereafter. Concurrent first callers may race the
    /// build; exactly one result is kept and every caller gets the same
    /// `Arc` from then on.
    pub fn update_plan(&self) -> Result<Arc<UpdatePlan<W>>, DecodeError> {
        if let Some(plan) = self.update_plan.get() {
            return Ok(Arc::clone(plan));
        }
        let built = Arc::new(UpdatePlan::build(
            self.planner.code(),
            self.planner.backend(),
        )?);
        // A lost race keeps the winner's plan — both builds are
        // identical, the session just refuses to hold two.
        let _ = self.update_plan.set(Arc::clone(&built));
        Ok(self.update_plan.get().map(Arc::clone).unwrap_or(built))
    }

    /// Applies a batch of small writes (`(data_sector, new_contents)`)
    /// to one stripe through the session: delta scratch comes from the
    /// shared arena, parity patches run through the counted kernels, and
    /// the result is an [`ExecStats`] whose `phase_a` carries one
    /// [`SubPlanStats`] per write and whose `update` field records the
    /// flush totals ([`UpdateStats`]).
    ///
    /// The prediction side of the ledger is
    /// [`UpdatePlan::update_mult_xors`] summed over the batch, so
    /// [`ExecStats::matches_prediction`] holds for updates exactly as it
    /// does for decodes. Later writes to the same sector supersede
    /// earlier ones, as on a real device.
    ///
    /// Like every session entry point this takes `&self`: N workers may
    /// flush different stripes through one service concurrently.
    ///
    /// # Errors
    /// Structured [`RepairError`](crate::RepairError)s from the planner
    /// or the per-write validation (geometry, non-data sector, length
    /// mismatch). The stripe holds all writes before the failing one.
    pub fn apply_update(
        &self,
        stripe: &mut Stripe,
        writes: &[(usize, &[u8])],
    ) -> Result<ExecStats, DecodeError> {
        let started = Instant::now();
        let plan = self.update_plan()?;
        let mut predicted = 0usize;
        for &(sector, _) in writes {
            predicted += plan.update_mult_xors(sector)?;
        }

        let mut scratch = self.executor.arena().take(stripe.sector_bytes());
        let sink = RegionStats::new();
        let mut phase_a = Vec::with_capacity(writes.len());
        let mut parity_patches = 0usize;
        let mut dirty_bytes = 0u64;
        for &(sector, data) in writes {
            let before = (sink.mult_xors(), sink.plain_xors(), sink.bytes());
            let write_started = Instant::now();
            match plan.apply_with_stats(stripe, sector, data, &mut scratch, &sink) {
                Ok(patched) => {
                    parity_patches += patched;
                    dirty_bytes += data.len() as u64;
                    phase_a.push(SubPlanStats {
                        outputs: patched,
                        mult_xors: sink.mult_xors() - before.0,
                        plain_xors: sink.plain_xors() - before.1,
                        bytes: sink.bytes() - before.2,
                        nanos: write_started.elapsed().as_nanos(),
                    });
                }
                Err(e) => {
                    self.executor.arena().give(scratch);
                    return Err(e);
                }
            }
        }
        self.executor.arena().give(scratch);

        let parallelism = phase_a.len();
        let phase_a_nanos = phase_a.iter().map(|s| s.nanos).sum();
        Ok(ExecStats {
            strategy: self.planner.strategy(),
            threads: 1,
            parallelism,
            predicted_mult_xors: predicted,
            predicted_costs: None,
            phase_a,
            phase_a_nanos,
            phase_b: None,
            verify: None,
            update: Some(UpdateStats {
                sectors_patched: writes.len(),
                parity_patches,
                full_reencode: false,
                dirty_bytes,
            }),
            total_nanos: started.elapsed().as_nanos(),
        })
    }

    /// Repairs a slice of stripes sharing one scenario with up to
    /// `workers` OS worker threads driving this *shared* session.
    ///
    /// The split between the two axes of parallelism is adaptive:
    ///
    /// * **Many stripes** (`stripes.len() ≥ 2 × workers` and
    ///   `workers > 1`): inter-stripe mode. The slice is partitioned into
    ///   contiguous chunks, one [`par_map`] worker per chunk, each
    ///   decoding its stripes serially. Stripe-level parallelism
    ///   dominates here — every worker runs the full §III-B workload with
    ///   no synchronization beyond the shared cache and arena.
    /// * **Few stripes**: intra-stripe mode. Stripes decode sequentially
    ///   on the session decoder's thread budget, which cuts sectors of at
    ///   least `2 · T · 4 KiB` into 4 KiB spans and runs the whole tape on
    ///   each span across its threads — the only parallelism that helps
    ///   when there aren't enough stripes to go around. Shorter sectors
    ///   decode on the calling thread without spawning.
    ///
    /// Either way the plan is looked up once (workers arriving at a cold
    /// key coalesce into a single build) and every worker borrows decode
    /// buffers from the shared arena. Per-stripe stats come back in
    /// stripe order inside a [`BatchReport`]; the cache and arena
    /// counters stay with the session ([`RepairService::cache_stats`],
    /// [`RepairService::arena`]).
    ///
    /// # Errors
    /// Geometry is validated for the whole batch before any decode, so a
    /// mixed-shape batch fails with
    /// [`RepairError::GeometryMismatch`](crate::RepairError::GeometryMismatch)
    /// leaving every stripe untouched. A decode error mid-batch (not
    /// reachable for validated erasure repairs) aborts with stripes in
    /// mixed states.
    pub fn repair_batch(
        &self,
        stripes: &mut [Stripe],
        scenario: &FailureScenario,
        workers: usize,
    ) -> Result<BatchReport, DecodeError> {
        let workers = workers.max(1);
        let started = Instant::now();
        let (plan, _) = self.plan_for(scenario)?;
        for stripe in stripes.iter() {
            if stripe.layout().sectors() != plan.total_sectors() {
                return Err(DecodeError::GeometryMismatch {
                    expected: plan.total_sectors(),
                    actual: stripe.layout().sectors(),
                });
            }
        }
        let inter_stripe = workers > 1 && stripes.len() >= 2 * workers;
        let stats: Vec<ExecStats>;
        let workers_used;
        if inter_stripe {
            // A static partition, one contiguous chunk per worker: no
            // per-stripe hand-off, the only shared state is the arena.
            let serial = self.serial_decoder();
            let chunks = stripes.chunks_mut(stripes.len().div_ceil(workers));
            let per_chunk = par_map(workers, chunks, |chunk| {
                chunk
                    .iter_mut()
                    .map(|stripe| serial.decode_in(&plan, stripe, self.arena()))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            workers_used = per_chunk.len();
            stats = per_chunk.into_iter().flatten().collect();
        } else {
            workers_used = 1;
            stats = stripes
                .iter_mut()
                .map(|stripe| self.executor.decode(&plan, stripe))
                .collect::<Result<_, _>>()?;
        }
        Ok(BatchReport {
            stats,
            workers: workers_used,
            inter_stripe,
            wall_nanos: started.elapsed().as_nanos(),
        })
    }

    /// Streaming variant of [`RepairService::repair_batch`]: pulls owned
    /// stripes from `stripes` as up to `workers` [`par_map`] workers
    /// become free (one shared iterator, so skewed per-stripe costs
    /// self-balance), repairs each against `scenario`, and returns the
    /// repaired stripes **in input order** together with the batch
    /// report. With `workers == 1` the stream is consumed on the calling
    /// thread through the session's decoder, whose threads split long
    /// sectors into spans (intra-stripe parallelism).
    ///
    /// # Errors
    /// The first decode error stops all workers and is returned; stripes
    /// already pulled from the iterator are dropped with it. Use
    /// [`RepairService::repair_batch`] when partial results must stay
    /// addressable.
    pub fn repair_stream<I>(
        &self,
        stripes: I,
        scenario: &FailureScenario,
        workers: usize,
    ) -> Result<(Vec<Stripe>, BatchReport), DecodeError>
    where
        I: IntoIterator<Item = Stripe>,
        I::IntoIter: Send,
    {
        let workers = workers.max(1);
        let started = Instant::now();
        let (plan, _) = self.plan_for(scenario)?;
        let inter_stripe = workers > 1;
        let serial = self.serial_decoder();
        let decoder = if inter_stripe {
            &serial
        } else {
            self.decoder()
        };
        let repaired = par_map(workers, stripes, |mut stripe| {
            let stats = decoder.decode_in(&plan, &mut stripe, self.arena())?;
            Ok::<_, DecodeError>((stripe, stats))
        })?;
        let (out_stripes, stats): (Vec<Stripe>, Vec<ExecStats>) = repaired.into_iter().unzip();
        Ok((
            out_stripes,
            BatchReport {
                // `par_map` runs no more workers than there are stripes.
                workers: workers.min(stats.len()).max(1),
                stats,
                inter_stripe,
                wall_nanos: started.elapsed().as_nanos(),
            },
        ))
    }
}

/// Outcome of one [`RepairService::repair_batch`] /
/// [`RepairService::repair_stream`] run: per-stripe stats in stripe
/// order plus how the driver split the work.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-stripe decode telemetry, in stripe order.
    pub stats: Vec<ExecStats>,
    /// Worker threads actually used at the stripe level (1 in
    /// intra-stripe mode, and never more than the stripes repaired).
    pub workers: usize,
    /// True when the driver chose one-worker-per-stripe parallelism;
    /// false when it kept intra-stripe parallelism.
    pub inter_stripe: bool,
    /// Wall time of the whole batch call, nanoseconds.
    pub wall_nanos: u128,
}

impl BatchReport {
    /// Stripes repaired.
    pub fn stripes(&self) -> usize {
        self.stats.len()
    }

    /// Batch throughput in stripes per second (0.0 for an empty or
    /// instantaneous batch).
    pub fn stripes_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.stats.len() as f64 * 1e9 / self.wall_nanos as f64
    }

    /// True when every stripe's executed `mult_XORs` matched the §III-B
    /// prediction.
    pub fn all_match_prediction(&self) -> bool {
        self.stats.iter().all(ExecStats::matches_prediction)
    }
}

/// Folds one escalation attempt (re-decode + re-verify) into the
/// [`VerifyStats::extra`] ledger.
fn accumulate_extra(extra: &mut SubPlanStats, decode: &ExecStats, verify: &VerifyReport) {
    for sp in decode.phase_a.iter().chain(&decode.phase_b) {
        extra.outputs += sp.outputs;
        extra.mult_xors += sp.mult_xors;
        extra.plain_xors += sp.plain_xors;
        extra.bytes += sp.bytes;
    }
    extra.nanos += decode.total_nanos;
    extra.mult_xors += verify.stats.mult_xors;
    extra.plain_xors += verify.stats.plain_xors;
    extra.bytes += verify.stats.bytes;
    extra.nanos += verify.stats.nanos;
}

impl<W: GfWord, C: ErasureCode<W>> std::fmt::Debug for RepairService<W, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairService")
            .field("code", &self.planner.code_id())
            .field("strategy", &self.planner.strategy())
            .field("cache", self.planner.cache())
            .field("arena", self.executor.arena())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::SdCode;
    use ppm_gf::Backend;
    use ppm_stripe::random_data_stripe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service(threads: usize) -> RepairService<u8, SdCode<u8>> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        RepairService::new(
            code,
            DecoderConfig {
                threads,
                backend: Backend::Scalar,
            },
        )
    }

    #[test]
    fn repeated_repair_hits_cache_and_reuses_buffers() {
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);

        for round in 0..4 {
            let mut broken = pristine.clone();
            broken.erase(&scenario);
            let stats = svc.repair(&mut broken, &scenario).unwrap();
            assert_eq!(broken, pristine, "round {round}");
            assert!(stats.matches_prediction());
            let cache = svc.cache_stats();
            // Round 0 misses (plus the encode's miss); later rounds hit.
            assert_eq!(cache.misses, 2);
            assert_eq!(cache.hits, round);
        }
        // Warm rounds recycled buffers instead of allocating.
        assert!(svc.arena().stats().reused > 0);

        // Steady state: a warm repair of the paper case takes exactly 4
        // arena reservations — one per tape segment (3 independent
        // sub-matrices + H_rest) — and every one of them is a reuse, not a
        // fresh allocation.
        let warm = service(1);
        for _ in 0..2 {
            let mut broken = pristine.clone();
            broken.erase(&scenario);
            warm.repair(&mut broken, &scenario).unwrap();
            assert_eq!(broken, pristine);
        }
        let before = warm.arena().stats();
        let mut broken = pristine.clone();
        broken.erase(&scenario);
        warm.repair(&mut broken, &scenario).unwrap();
        assert_eq!(broken, pristine);
        let after = warm.arena().stats();
        assert_eq!(after.fresh, before.fresh, "steady state allocates nothing");
        assert_eq!(after.reused - before.reused, 4, "one take per segment");
    }

    #[test]
    fn scenario_order_does_not_defeat_the_cache() {
        let svc = service(1);
        let mut rng = StdRng::seed_from_u64(4);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();

        for faulty in [vec![2, 6, 10], vec![10, 2, 6], vec![6, 10, 2, 2]] {
            let scenario = FailureScenario::new(faulty);
            let mut broken = pristine.clone();
            broken.erase(&scenario);
            svc.repair(&mut broken, &scenario).unwrap();
            assert_eq!(broken, pristine);
        }
        let s = svc.cache_stats();
        assert_eq!(s.misses, 2, "encode + one decode pattern");
        assert_eq!(s.hits, 2, "permuted scenarios hit");
    }

    #[test]
    fn batch_and_spanned_flow_through_cache() {
        let svc = service(2);
        let scenario = FailureScenario::new(vec![2, 6]);
        let mut rng = StdRng::seed_from_u64(5);

        let mut pristine = Vec::new();
        let mut broken = Vec::new();
        for _ in 0..3 {
            let mut s = random_data_stripe(svc.code(), 64, &mut rng);
            svc.encode(&mut s).unwrap();
            let mut b = s.clone();
            b.erase(&scenario);
            pristine.push(s);
            broken.push(b);
        }
        let all = svc.repair_batch(&mut broken, &scenario, 2).unwrap().stats;
        assert_eq!(broken, pristine);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|s| s.matches_prediction()));

        // Sectors long enough for the T = 2 decode to cut them into
        // spans, with a short tail.
        let mut large = random_data_stripe(svc.code(), 4 * 4096 + 24, &mut rng);
        svc.encode(&mut large).unwrap();
        let mut b = large.clone();
        b.erase(&scenario);
        let takes = |svc: &RepairService<u8, SdCode<u8>>| {
            let a = svc.arena().stats();
            a.fresh + a.reused
        };
        let before = takes(&svc);
        let stats = svc.repair(&mut b, &scenario).unwrap();
        assert_eq!(b, large);
        assert!(stats.matches_prediction(), "spanned stats are complete");
        assert!(
            takes(&svc) > before,
            "spanned decode borrows from the arena"
        );
        // Hits: two repeated encode plans, the large stripe's encode and
        // its decode's plan.
        assert_eq!(svc.cache_stats().hits, 4);
    }

    #[test]
    fn verified_repair_accepts_clean_stripes_with_telemetry() {
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let scenario = FailureScenario::new(vec![2, 6]);
        let mut broken = pristine.clone();
        broken.erase(&scenario);

        let stats = svc.repair_verified(&mut broken, &scenario).unwrap();
        assert_eq!(broken, pristine);
        let v = stats.verify.expect("verified repair attaches VerifyStats");
        assert!(v.clean());
        assert_eq!(v.passes, 1);
        assert_eq!(v.rows_available, 3, "2 faulty leave 3 of 5 rows surplus");
        assert!(v.matches_prediction(), "verify executed == predicted");
        assert!(v.first_pass.mult_xors > 0);
        // Regression (PR 12): the pass that ran is the one lowered into the
        // cached plan's tape, not a second interpretation of the surplus
        // rows. (`exec::tests` pins that it takes its accumulator dirty
        // and that an all-zero surplus row stays "not violated".)
        let (plan, _) = svc.plan_for(&scenario).unwrap();
        assert!(plan.ensure_tape().verify_mult_xors() > 0);
        assert_eq!(
            v.first_pass.mult_xors,
            plan.ensure_tape().verify_mult_xors() as u64
        );
    }

    #[test]
    fn verified_repair_locates_and_repairs_a_corrupt_survivor() {
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(12);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let scenario = FailureScenario::new(vec![2, 6]);

        let mut broken = pristine.clone();
        broken.erase(&scenario);
        // Silently corrupt a surviving sector the decode reads.
        broken.sector_mut(0)[7] ^= 0x21;

        let stats = svc.repair_verified(&mut broken, &scenario).unwrap();
        assert_eq!(broken, pristine, "bit-exact after escalation");
        let v = stats.verify.expect("attached");
        assert!(!v.violated_rows.is_empty(), "first pass must complain");
        assert_eq!(v.located, vec![0], "exactly the corrupted sector");
        assert!(v.escalations >= 1);
        assert!(v.passes >= 2);
        assert!(v.extra.mult_xors > 0, "escalation work is on the ledger");
    }

    #[test]
    fn verified_repair_heals_a_mislabeled_scenario() {
        // Sector 3 is truly lost (zeroed) but the label only declares
        // sector 2: a plain repair would succeed with silently wrong
        // bytes; verified repair promotes 3 and recovers everything.
        //
        // This needs a code with enough surplus redundancy to make the
        // explanation unique: SD(n=6, r=4, m=2, s=1) keeps the global
        // sector-parity row surplus under every same-row hypothesis, so
        // only the true one verifies clean.
        let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
        let svc = RepairService::new(
            code,
            DecoderConfig {
                threads: 1,
                backend: Backend::Scalar,
            },
        );
        let mut rng = StdRng::seed_from_u64(13);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();

        let mut broken = pristine.clone();
        broken.erase(&FailureScenario::new(vec![2, 3]));
        let understated = FailureScenario::new(vec![2]);
        let stats = svc.repair_verified(&mut broken, &understated).unwrap();
        assert_eq!(broken, pristine);
        assert_eq!(
            stats.verify.expect("attached").located,
            vec![3],
            "the undeclared loss is what escalation finds"
        );
    }

    #[test]
    fn verified_repair_errors_are_structured_and_stripe_left_decoded() {
        // Corrupt surviving sectors in stripe rows 2 and 3 while the
        // declared failures sit in rows 0 and 1. A single promotion can
        // absorb at most one of the two violated disk-parity rows, so no
        // escalated verify can come out clean: the repair must fail
        // loudly — no panic, no silent acceptance.
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(14);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let scenario = FailureScenario::new(vec![2, 6]);
        stripe.erase(&scenario);
        stripe.sector_mut(8)[0] ^= 0x01; // stripe row 2
        stripe.sector_mut(12)[1] ^= 0x80; // stripe row 3

        let err = svc.repair_verified(&mut stripe, &scenario).unwrap_err();
        match err {
            DecodeError::EscalationExhausted { attempts, budget } => {
                assert!(attempts > 0);
                assert_eq!(budget, svc.fault_tolerance());
            }
            other => panic!("expected EscalationExhausted, got {other:?}"),
        }
    }

    /// The error contract the escalation baseline now rests on: a first
    /// pass with violations followed by an exhausted escalation leaves
    /// every surviving sector as handed in and the faulty ones holding
    /// the first decode.
    #[test]
    fn exhausted_escalation_leaves_survivors_untouched_and_the_first_decode_in_place() {
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(14);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let scenario = FailureScenario::new(vec![2, 6]);
        stripe.erase(&scenario);
        stripe.sector_mut(8)[0] ^= 0x01;
        stripe.sector_mut(12)[1] ^= 0x80;
        let input = stripe.clone();
        let mut first_decode = input.clone();
        svc.repair(&mut first_decode, &scenario).unwrap();

        let err = svc.repair_verified(&mut stripe, &scenario).unwrap_err();
        assert!(matches!(err, DecodeError::EscalationExhausted { .. }));
        for s in 0..stripe.layout().sectors() {
            if scenario.faulty().contains(&s) {
                assert_eq!(stripe.sector(s), first_decode.sector(s), "faulty {s}");
            } else {
                assert_eq!(stripe.sector(s), input.sector(s), "survivor {s}");
            }
        }
    }

    /// Tape run heads overwrite their destination, so no decode may
    /// depend on what an erased sector held: an escalation that locates
    /// a corrupt survivor lands on the same bytes whether the declared
    /// faulty sectors went in zeroed, full of garbage, or holding the
    /// failed first decode — which is what lets the escalation baseline
    /// be the decoded stripe.
    #[test]
    fn escalation_does_not_depend_on_what_the_faulty_sectors_held() {
        let svc = service(2);
        let mut rng = StdRng::seed_from_u64(12);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let scenario = FailureScenario::new(vec![2, 6]);

        let mut zeroed = pristine.clone();
        zeroed.erase(&scenario);
        zeroed.sector_mut(0)[7] ^= 0x21;
        let mut garbage = zeroed.clone();
        for &s in scenario.faulty() {
            garbage.sector_mut(s).fill(0xA5);
        }
        let mut failed_decode = zeroed.clone();
        svc.repair(&mut failed_decode, &scenario).unwrap();
        assert_ne!(failed_decode, pristine, "the corrupt input poisons it");

        for (label, mut broken) in [
            ("zeros", zeroed),
            ("garbage", garbage),
            ("failed first decode", failed_decode),
        ] {
            let stats = svc.repair_verified(&mut broken, &scenario).unwrap();
            assert_eq!(broken, pristine, "{label}");
            assert_eq!(stats.verify.expect("attached").located, vec![0], "{label}");
        }
    }

    #[test]
    fn verified_repair_rejects_unexplainable_corruption_without_escalation() {
        // Four declared failures consume four of the five parity rows;
        // every single promotion would consume the fifth, leaving no
        // surplus row to check — so escalation has no admissible attempt
        // and the first pass's evidence comes back as VerificationFailed.
        let svc = service(1);
        let mut rng = StdRng::seed_from_u64(15);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let scenario = FailureScenario::new(vec![2, 6, 10, 13]);

        // Find the one surplus row and corrupt a survivor it covers.
        let (plan, _) = svc.plan_for(&scenario).unwrap();
        let rows = plan.surplus_row_indices();
        assert_eq!(rows.len(), 1);
        let h = ErasureCode::<u8>::parity_check_matrix(svc.code());
        let victim = (0..plan.total_sectors())
            .find(|&s| plan.faulty().binary_search(&s).is_err() && h.get(rows[0], s) != 0)
            .expect("some survivor appears in the surplus row");
        drop(plan);
        stripe.erase(&scenario);
        stripe.sector_mut(victim)[3] ^= 0x10;

        let err = svc.repair_verified(&mut stripe, &scenario).unwrap_err();
        match err {
            DecodeError::VerificationFailed { violated_rows } => {
                assert_eq!(violated_rows, rows);
            }
            other => panic!("expected VerificationFailed, got {other:?}"),
        }
    }

    #[test]
    fn fault_tolerance_is_captured_from_the_code() {
        let svc = service(1);
        // SD(n=4, r=4, m=1, s=1): budget m·r + s = 5.
        assert_eq!(svc.fault_tolerance(), 5);
        assert_eq!(svc.fault_tolerance(), svc.code().fault_tolerance());
    }

    #[test]
    fn works_through_dyn_code() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let dynamic: &dyn ErasureCode<u8> = &code;
        let svc = RepairService::new(
            dynamic,
            DecoderConfig {
                threads: 1,
                backend: Backend::Scalar,
            },
        );
        let mut rng = StdRng::seed_from_u64(6);
        let mut stripe = random_data_stripe(&dynamic, 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let scenario = FailureScenario::new(vec![2]);
        let mut broken = pristine.clone();
        broken.erase(&scenario);
        svc.repair(&mut broken, &scenario).unwrap();
        assert_eq!(broken, pristine);
    }

    /// Compile-time guarantee behind the shared-session design: the
    /// service (including through a `dyn` code) can be referenced from
    /// many worker threads at once.
    #[test]
    fn service_is_sync_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RepairService<u8, SdCode<u8>>>();
        assert_send_sync::<RepairService<u8, &dyn ErasureCode<u8>>>();
    }

    #[test]
    fn repair_batch_picks_mode_adaptively_and_restores_bits() {
        let svc = service(2);
        let scenario = FailureScenario::new(vec![2, 6]);
        let mut rng = StdRng::seed_from_u64(21);
        let mut pristine = Vec::new();
        for _ in 0..8 {
            let mut s = random_data_stripe(svc.code(), 64, &mut rng);
            svc.encode(&mut s).unwrap();
            pristine.push(s);
        }
        let erase_all = |stripes: &mut [Stripe]| {
            for s in stripes.iter_mut() {
                s.erase(&scenario);
            }
        };

        // Few stripes (< 2×workers): intra-stripe mode on the pooled
        // decoder.
        let mut few = pristine[..2].to_vec();
        erase_all(&mut few);
        let report = svc.repair_batch(&mut few, &scenario, 2).unwrap();
        assert!(!report.inter_stripe);
        assert_eq!(report.workers, 1);
        assert_eq!(few, pristine[..2].to_vec());
        assert!(report.all_match_prediction());
        assert!(
            report.stats.iter().all(|s| s.threads == 2),
            "a small batch keeps the pooled decoder's intra-stripe parallelism"
        );

        // Many stripes: one worker per chunk, serial per stripe.
        let mut many = pristine.clone();
        erase_all(&mut many);
        let report = svc.repair_batch(&mut many, &scenario, 4).unwrap();
        assert!(report.inter_stripe);
        assert_eq!(report.workers, 4);
        assert_eq!(many, pristine);
        assert!(report.all_match_prediction());
        assert_eq!(report.stripes(), 8);
        assert!(report.stats.iter().all(|s| s.threads == 1));

        // A bad-geometry batch is rejected up front, untouched.
        let mut mixed = vec![
            pristine[0].clone(),
            Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64),
        ];
        assert!(matches!(
            svc.repair_batch(&mut mixed, &scenario, 4).unwrap_err(),
            DecodeError::GeometryMismatch { .. }
        ));
        assert_eq!(mixed[0], pristine[0]);
    }

    #[test]
    fn apply_update_patches_parity_and_matches_prediction() {
        let svc = service(1);
        let mut rng = StdRng::seed_from_u64(31);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();

        let a = vec![0xA1u8; stripe.sector_bytes()];
        let b = vec![0x5Eu8; stripe.sector_bytes()];
        let writes: Vec<(usize, &[u8])> = vec![(0, a.as_slice()), (1, b.as_slice())];
        let stats = svc.apply_update(&mut stripe, &writes).unwrap();

        assert!(stats.matches_prediction(), "update ledger is exact");
        assert_eq!(stats.phase_a.len(), 2, "one sub-plan entry per write");
        let u = stats.update.expect("update stats attached");
        assert_eq!(u.sectors_patched, 2);
        assert!(!u.full_reencode);
        assert_eq!(u.dirty_bytes, 2 * stripe.sector_bytes() as u64);
        assert_eq!(
            u.parity_patches as u64,
            stats.executed_mult_xors(),
            "every executed mult_XOR is a parity patch"
        );
        let h = ErasureCode::<u8>::parity_check_matrix(svc.code());
        assert!(crate::parity_consistent(
            &h,
            &stripe,
            svc.decoder().config().backend
        ));
        assert_eq!(stripe.sector(0), a.as_slice());
        assert_eq!(stripe.sector(1), b.as_slice());

        // A second flush reuses both the plan and the arena scratch.
        let stats2 = svc.apply_update(&mut stripe, &writes).unwrap();
        assert!(stats2.matches_prediction());
        assert!(svc.arena().stats().reused > 0, "delta scratch recycled");
    }

    #[test]
    fn apply_update_error_reports_structured_and_returns_scratch() {
        let svc = service(1);
        let mut rng = StdRng::seed_from_u64(32);
        let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut stripe).unwrap();
        let good = vec![0u8; stripe.sector_bytes()];
        let short = vec![0u8; stripe.sector_bytes() - 8];

        // Prediction-time validation: a parity target fails the whole
        // batch before any write lands.
        let untouched = stripe.clone();
        let err = svc
            .apply_update(&mut stripe, &[(3, good.as_slice())])
            .unwrap_err();
        assert_eq!(err, DecodeError::NotADataSector { sector: 3 });
        assert_eq!(stripe, untouched);

        // Apply-time validation: the bad write surfaces its error and
        // the arena gets its scratch buffer back (give resets counters'
        // balance — a following flush reuses rather than allocates).
        let before_fresh = svc.arena().stats().fresh;
        let err = svc
            .apply_update(&mut stripe, &[(0, good.as_slice()), (1, short.as_slice())])
            .unwrap_err();
        assert!(matches!(err, DecodeError::SectorLengthMismatch { .. }));
        svc.apply_update(&mut stripe, &[(0, good.as_slice())])
            .unwrap();
        assert_eq!(
            svc.arena().stats().fresh,
            before_fresh,
            "error path returned its scratch for reuse"
        );
    }

    #[test]
    fn update_plan_is_shared_across_threads() {
        let svc = service(1);
        let plans: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| svc.update_plan().unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in plans.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]), "one plan per session");
        }
    }

    #[test]
    fn concurrent_updates_share_the_session() {
        // N workers flush different stripes through one service on
        // `&self` — the update analogue of `repair_batch`.
        let svc = service(1);
        let mut rng = StdRng::seed_from_u64(33);
        let mut stripes = Vec::new();
        for _ in 0..8 {
            let mut s = random_data_stripe(svc.code(), 64, &mut rng);
            svc.encode(&mut s).unwrap();
            stripes.push(s);
        }
        let payload = vec![0xC3u8; 64];
        let results: Vec<ExecStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .iter_mut()
                .map(|stripe| {
                    scope.spawn(|| {
                        svc.apply_update(stripe, &[(0, payload.as_slice())])
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(ExecStats::matches_prediction));
        let h = ErasureCode::<u8>::parity_check_matrix(svc.code());
        for s in &stripes {
            assert!(crate::parity_consistent(&h, s, Backend::Scalar));
        }
    }

    #[test]
    fn repair_stream_returns_stripes_in_input_order() {
        let svc = service(2);
        let scenario = FailureScenario::new(vec![2, 6, 10]);
        let mut rng = StdRng::seed_from_u64(22);
        let mut pristine = Vec::new();
        for _ in 0..10 {
            let mut s = random_data_stripe(svc.code(), 64, &mut rng);
            svc.encode(&mut s).unwrap();
            pristine.push(s);
        }
        let broken: Vec<Stripe> = pristine
            .iter()
            .map(|s| {
                let mut b = s.clone();
                b.erase(&scenario);
                b
            })
            .collect();
        let (repaired, report) = svc.repair_stream(broken, &scenario, 3).unwrap();
        assert_eq!(repaired, pristine, "order and bits both preserved");
        assert!(report.inter_stripe);
        assert_eq!(report.stripes(), 10);
        assert!(report.all_match_prediction());
        assert!(report.stripes_per_sec() > 0.0);

        // Single worker flows through the pooled decoder.
        let broken: Vec<Stripe> = pristine
            .iter()
            .map(|s| {
                let mut b = s.clone();
                b.erase(&scenario);
                b
            })
            .collect();
        let (repaired, report) = svc.repair_stream(broken, &scenario, 1).unwrap();
        assert_eq!(repaired, pristine);
        assert!(!report.inter_stripe);
    }

    /// `repair_stream`'s docs promise that one worker consumes the stream
    /// on the calling thread; before PR 13 it spawned a thread to do so.
    #[test]
    fn repair_stream_with_one_worker_pulls_on_the_calling_thread() {
        let svc = service(2);
        let scenario = FailureScenario::new(vec![2, 6]);
        let mut rng = StdRng::seed_from_u64(23);
        let mut pristine = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut pristine).unwrap();
        let mut broken = pristine.clone();
        broken.erase(&scenario);

        let caller = std::thread::current().id();
        let mut pulls = 0;
        let stream = std::iter::repeat_n(broken, 5).inspect(|_| {
            assert_eq!(std::thread::current().id(), caller);
            pulls += 1;
        });
        let (repaired, report) = svc.repair_stream(stream, &scenario, 1).unwrap();
        assert_eq!(repaired, vec![pristine; 5]);
        assert_eq!(report.workers, 1);
        assert_eq!(pulls, 5);
    }

    /// `BatchReport::workers` counts the workers that ran, not the ones
    /// asked for: one stripe is repaired by one worker.
    #[test]
    fn repair_stream_reports_the_workers_it_used() {
        let svc = service(2);
        let scenario = FailureScenario::new(vec![2, 6]);
        let mut rng = StdRng::seed_from_u64(24);
        let mut pristine = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut pristine).unwrap();
        let mut broken = pristine.clone();
        broken.erase(&scenario);

        let (repaired, report) = svc.repair_stream([broken], &scenario, 4).unwrap();
        assert_eq!(repaired, vec![pristine]);
        assert_eq!(report.workers, 1);
        let (_, report) = svc.repair_stream(Vec::new(), &scenario, 4).unwrap();
        assert_eq!(report.workers, 1);
    }
}
