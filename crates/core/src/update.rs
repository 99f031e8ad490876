//! Incremental parity updates (small writes).
//!
//! Erasure-coded systems rarely rewrite whole stripes; a small write
//! changes one data sector and must patch every parity sector that
//! depends on it. For a linear code the patch is exact and local: with
//! generator `G = F⁻¹ · S` (parity sectors expressed over data sectors),
//! changing data sector `d` by `Δ = old ⊕ new` changes each parity `q` by
//! `G[q, d] · Δ` — a handful of `mult_XORs`, no re-encode.
//!
//! The per-sector *update cost* (`parity_touched().len()`) is where the
//! asymmetric codes' design shows up directly: an LRC data write touches
//! its one local parity plus the `g` globals, while RS touches all `m`
//! parities — the same locality the paper's degraded-read motivation is
//! built on.

use crate::RepairError;
use ppm_codes::ErasureCode;
use ppm_gf::{Backend, GfWord, RegionMul, RegionStats};
use ppm_matrix::Matrix;
use ppm_stripe::Stripe;
use std::collections::HashMap;
use std::sync::Arc;

/// A precomputed small-write planner for one code instance.
///
/// ```
/// use ppm_codes::{ErasureCode, LrcCode};
/// use ppm_core::{encode, parity_consistent, Decoder, DecoderConfig, UpdatePlan};
/// use ppm_gf::Backend;
/// use ppm_stripe::random_data_stripe;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
/// let decoder = Decoder::new(DecoderConfig::default());
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut stripe = random_data_stripe(&code, 512, &mut rng);
/// encode(&code, &decoder, &mut stripe).unwrap();
///
/// let plan = UpdatePlan::build(&code, Backend::Auto).unwrap();
/// // An LRC data write touches its local parity plus the g globals.
/// assert_eq!(plan.parity_touched(0).unwrap().len(), 1 + 2);
/// let new_data = vec![0xAB; stripe.sector_bytes()];
/// plan.apply(&mut stripe, 0, &new_data).unwrap();
/// assert!(parity_consistent(&code.parity_check_matrix(), &stripe, Backend::Auto));
/// ```
#[derive(Debug)]
pub struct UpdatePlan<W: GfWord> {
    total_sectors: usize,
    /// Parity sector per generator row.
    parity: Vec<usize>,
    /// `data_index[sector] = Some(column in gen)` for data sectors.
    data_index: Vec<Option<usize>>,
    /// `gen[q][j]`: coefficient of data column `j` in parity `q`.
    gen: Matrix<W>,
    /// The write's delta plan, lowered at build time: per data column
    /// `j`, the `(parity_sector, kernel)` patches a write to `j` applies
    /// — the non-zero entries of `gen`'s column `j` with their region
    /// kernels resolved, so the flush hot path walks a flat list instead
    /// of scanning the generator and hashing coefficients per patch.
    patches: Vec<Vec<(usize, Arc<RegionMul<W>>)>>,
}

impl<W: GfWord> UpdatePlan<W> {
    /// Builds the planner for `code`, preparing region tables on
    /// `backend`.
    ///
    /// Fails with [`RepairError::Unrecoverable`] if the code cannot
    /// encode (its parity columns are singular) — the same condition
    /// under which encoding itself would fail.
    pub fn build<C: ErasureCode<W>>(code: &C, backend: Backend) -> Result<Self, RepairError> {
        let h = code.parity_check_matrix();
        let parity = code.parity_sectors();
        let data = code.data_sectors();
        let f = h.select_columns(&parity);
        let s = h.select_columns(&data);
        let f_inv = f.inverse().ok_or(RepairError::Unrecoverable {
            needed: parity.len(),
            rank: f.rank(),
        })?;
        let gen = f_inv.mul(&s);

        let mut data_index = vec![None; h.cols()];
        for (j, &d) in data.iter().enumerate() {
            if let Some(slot) = data_index.get_mut(d) {
                *slot = Some(j);
            }
        }
        let mut regions: HashMap<u64, Arc<RegionMul<W>>> = HashMap::new();
        for q in 0..gen.rows() {
            for &c in gen.row(q) {
                if c != W::ZERO {
                    regions
                        .entry(c.to_u64())
                        .or_insert_with(|| Arc::new(RegionMul::new(c, backend)));
                }
            }
        }
        let mut patches = Vec::with_capacity(gen.cols());
        for j in 0..gen.cols() {
            let mut list = Vec::new();
            for (q, &p) in parity.iter().enumerate() {
                let c = gen.get(q, j);
                if c == W::ZERO {
                    continue;
                }
                let kernel = regions.get(&c.to_u64()).ok_or(RepairError::Unrecoverable {
                    needed: parity.len(),
                    rank: 0,
                })?;
                list.push((p, Arc::clone(kernel)));
            }
            patches.push(list);
        }
        Ok(UpdatePlan {
            total_sectors: h.cols(),
            parity,
            data_index,
            gen,
            patches,
        })
    }

    /// The parity sectors affected by a write to `data_sector`, with the
    /// coefficient each applies to the data delta.
    ///
    /// # Errors
    /// Rejects out-of-range and parity sectors.
    pub fn parity_touched(&self, data_sector: usize) -> Result<Vec<(usize, W)>, RepairError> {
        let j = self.data_column(data_sector)?;
        Ok(self
            .parity
            .iter()
            .enumerate()
            .filter_map(|(q, &p)| {
                let c = self.gen.get(q, j);
                (c != W::ZERO).then_some((p, c))
            })
            .collect())
    }

    /// The `mult_XORs` a write to `data_sector` will execute: one region
    /// multiply per parity with a non-zero generator coefficient. This is
    /// the update path's analogue of
    /// [`DecodePlan::mult_xors`](crate::DecodePlan::mult_xors) — the
    /// §III-B cost-model unit — so flush engines can weigh delta patching
    /// against a full re-encode in the same currency.
    ///
    /// # Errors
    /// Rejects out-of-range and parity sectors.
    pub fn update_mult_xors(&self, data_sector: usize) -> Result<usize, RepairError> {
        let j = self.data_column(data_sector)?;
        Ok(self.patches.get(j).map_or(0, Vec::len))
    }

    /// Writes `new_data` into `data_sector` and patches every dependent
    /// parity sector in place. The stripe must be parity-consistent
    /// before the call; it is parity-consistent after.
    pub fn apply(
        &self,
        stripe: &mut Stripe,
        data_sector: usize,
        new_data: &[u8],
    ) -> Result<(), RepairError> {
        let mut delta = vec![0u8; stripe.sector_bytes()];
        let sink = RegionStats::new();
        self.apply_with_stats(stripe, data_sector, new_data, &mut delta, &sink)
            .map(|_| ())
    }

    /// Like [`apply`](Self::apply), but recycles a caller-supplied delta
    /// scratch buffer and records the parity patches' region traffic into
    /// `sink`, so a session layer can fold small writes into its
    /// [`ExecStats`](crate::ExecStats) ledger. Returns the number of
    /// parity sectors patched (the write's executed `mult_XORs`).
    ///
    /// The Δ-computation XOR is bookkeeping, not parity math, and is left
    /// uncounted: the ledger records exactly the `G[q,d]·Δ` multiplies the
    /// cost model predicts.
    pub fn apply_with_stats(
        &self,
        stripe: &mut Stripe,
        data_sector: usize,
        new_data: &[u8],
        delta_scratch: &mut [u8],
        sink: &RegionStats,
    ) -> Result<usize, RepairError> {
        if stripe.layout().sectors() != self.total_sectors {
            return Err(RepairError::GeometryMismatch {
                expected: self.total_sectors,
                actual: stripe.layout().sectors(),
            });
        }
        let j = self.data_column(data_sector)?;
        if new_data.len() != stripe.sector_bytes() {
            return Err(RepairError::SectorLengthMismatch {
                sector: data_sector,
                expected: stripe.sector_bytes(),
                actual: new_data.len(),
            });
        }
        if delta_scratch.len() != stripe.sector_bytes() {
            return Err(RepairError::SectorLengthMismatch {
                sector: data_sector,
                expected: stripe.sector_bytes(),
                actual: delta_scratch.len(),
            });
        }

        // Δ = old ⊕ new, then sector := new.
        delta_scratch.copy_from_slice(new_data);
        ppm_gf::xor_region(stripe.sector(data_sector), delta_scratch);
        stripe.write_sector(data_sector, new_data);

        let patch_list = self.patches.get(j).ok_or(RepairError::Unrecoverable {
            needed: self.parity.len(),
            rank: 0,
        })?;
        for (p, kernel) in patch_list {
            kernel.mul_xor_with(delta_scratch, stripe.sector_mut(*p), sink);
        }
        Ok(patch_list.len())
    }

    /// Applies several updates in sequence (later writes to the same
    /// sector supersede earlier ones, as on a real device).
    pub fn apply_batch(
        &self,
        stripe: &mut Stripe,
        updates: &[(usize, &[u8])],
    ) -> Result<(), RepairError> {
        for &(sector, data) in updates {
            self.apply(stripe, sector, data)?;
        }
        Ok(())
    }

    fn data_column(&self, sector: usize) -> Result<usize, RepairError> {
        if sector >= self.total_sectors {
            return Err(RepairError::SectorOutOfRange {
                sector,
                total: self.total_sectors,
            });
        }
        let slot = self.data_index.get(sector).copied().unwrap_or(None);
        slot.ok_or(RepairError::NotADataSector { sector })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::{DecodePlan, Strategy};
    use ppm_codes::FailureScenario;

    /// Re-encode reference — an update must be indistinguishable from
    /// writing the data and fully re-encoding.
    fn reencode_reference<W: GfWord, C: ErasureCode<W>>(
        code: &C,
        decoder: &crate::Decoder,
        stripe: &mut Stripe,
    ) -> Result<(), RepairError> {
        let scenario = FailureScenario::new(code.parity_sectors());
        let h = code.parity_check_matrix();
        let plan = DecodePlan::build(&h, &scenario, Strategy::PpmAuto, decoder.config().backend)?;
        decoder.decode(&plan, stripe).map(drop)
    }

    use super::*;
    use crate::{encode, parity_consistent, Decoder, DecoderConfig};
    use ppm_codes::{LrcCode, RsCode, SdCode};
    use ppm_stripe::random_data_stripe;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn decoder() -> Decoder {
        Decoder::new(DecoderConfig {
            threads: 1,
            backend: Backend::Scalar,
        })
    }

    fn encoded_stripe<W: GfWord, C: ErasureCode<W>>(code: &C, seed: u64) -> Stripe {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(code, 64, &mut rng);
        encode(code, &decoder(), &mut stripe).unwrap();
        stripe
    }

    #[test]
    fn update_matches_full_reencode() {
        let code = SdCode::<u8>::new(6, 4, 2, 2, vec![1, 2, 4, 8]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 3);
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(7);

        for &d in code.data_sectors().iter().step_by(3) {
            let mut new_data = vec![0u8; stripe.sector_bytes()];
            rng.fill(new_data.as_mut_slice());

            // Reference: write + full re-encode.
            let mut reference = stripe.clone();
            reference.write_sector(d, &new_data);
            reencode_reference(&code, &decoder(), &mut reference).unwrap();

            // Incremental path.
            plan.apply(&mut stripe, d, &new_data).unwrap();
            assert!(
                parity_consistent(&h, &stripe, Backend::Scalar),
                "sector {d}"
            );
            assert_eq!(stripe, reference, "sector {d}");
        }
    }

    #[test]
    fn lrc_update_touches_local_plus_globals() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let layout = code.layout();
        // A data block touches exactly its local parity + g globals.
        let touched = plan.parity_touched(layout.sector(1, 0)).unwrap();
        assert_eq!(touched.len(), 1 + 2);
        let parities: Vec<usize> = touched.iter().map(|(p, _)| layout.col_of(*p)).collect();
        assert!(parities.contains(&6)); // local parity of group 0
        assert!(parities.contains(&8) && parities.contains(&9)); // globals
                                                                 // RS with the same reliability touches every parity.
        let rs = RsCode::<u8>::new(6, 4, 4).unwrap();
        let rs_plan = UpdatePlan::build(&rs, Backend::Scalar).unwrap();
        assert_eq!(rs_plan.parity_touched(0).unwrap().len(), 4);
    }

    #[test]
    fn sd_update_touches_disk_and_sector_parity() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        // b0 influences its row's disk parity (b3) and, through the global
        // equation, the sector parity (b14) — which in turn perturbs other
        // disk parities; all touched coefficients must be non-zero.
        let touched = plan.parity_touched(0).unwrap();
        assert!(!touched.is_empty());
        assert!(touched.iter().all(|&(_, c)| c != 0));
    }

    #[test]
    fn batch_updates_stay_consistent() {
        let code = LrcCode::<u8>::new(4, 2, 1, 3).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 11);
        let h = code.parity_check_matrix();
        let a = vec![0xAAu8; stripe.sector_bytes()];
        let b = vec![0x55u8; stripe.sector_bytes()];
        let layout = code.layout();
        plan.apply_batch(
            &mut stripe,
            &[
                (layout.sector(0, 0), a.as_slice()),
                (layout.sector(1, 2), b.as_slice()),
                (layout.sector(0, 0), b.as_slice()), // overwrite again
            ],
        )
        .unwrap();
        assert!(parity_consistent(&h, &stripe, Backend::Scalar));
        assert_eq!(stripe.sector(layout.sector(0, 0)), b.as_slice());
    }

    #[test]
    fn rejects_parity_and_out_of_range_sectors() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 5);
        let data = vec![0u8; stripe.sector_bytes()];
        assert_eq!(
            plan.apply(&mut stripe, 3, &data).unwrap_err(),
            RepairError::NotADataSector { sector: 3 }
        );
        assert_eq!(
            plan.apply(&mut stripe, 99, &data).unwrap_err(),
            RepairError::SectorOutOfRange {
                sector: 99,
                total: 16
            }
        );
        let mut wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        assert!(matches!(
            plan.apply(&mut wrong, 0, &[0u8; 64]).unwrap_err(),
            RepairError::GeometryMismatch { .. }
        ));
    }

    #[test]
    fn apply_with_stats_counts_exactly_the_patches() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 9);
        let sector_bytes = stripe.sector_bytes();
        let layout = code.layout();
        let d = layout.sector(1, 1);

        let predicted = plan.update_mult_xors(d).unwrap();
        assert_eq!(predicted, plan.parity_touched(d).unwrap().len());

        let sink = RegionStats::new();
        let mut scratch = vec![0u8; sector_bytes];
        let new_data = vec![0x3Cu8; sector_bytes];
        let patched = plan
            .apply_with_stats(&mut stripe, d, &new_data, &mut scratch, &sink)
            .unwrap();
        assert_eq!(patched, predicted);
        // The ledger records exactly the parity patches: one region
        // multiply per touched parity (coefficient-1 patches additionally
        // tally a plain XOR), the Δ XOR stays uncounted.
        assert_eq!(sink.mult_xors(), predicted as u64);
        let ones = plan
            .parity_touched(d)
            .unwrap()
            .iter()
            .filter(|&&(_, c)| c == 1)
            .count();
        assert_eq!(sink.plain_xors(), ones as u64);
        assert!(parity_consistent(
            &code.parity_check_matrix(),
            &stripe,
            Backend::Scalar
        ));
    }

    #[test]
    fn patch_lists_match_generator_and_share_kernels() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        for (j, list) in plan.patches.iter().enumerate() {
            // The lowered list is exactly the non-zero generator column,
            // in parity order, with coefficients preserved.
            let expect: Vec<(usize, u8)> = plan
                .parity
                .iter()
                .enumerate()
                .filter_map(|(q, &p)| {
                    let c = plan.gen.get(q, j);
                    (c != 0).then_some((p, c))
                })
                .collect();
            let got: Vec<(usize, u8)> = list.iter().map(|(p, k)| (*p, k.constant())).collect();
            assert_eq!(got, expect, "column {j}");
        }
        // Kernels are deduplicated plan-wide: every patch with the same
        // coefficient shares one table, across columns and parities.
        let mut canon: HashMap<u8, &Arc<RegionMul<u8>>> = HashMap::new();
        for (_, kernel) in plan.patches.iter().flatten() {
            let first = canon.entry(kernel.constant()).or_insert(kernel);
            assert!(Arc::ptr_eq(kernel, first));
        }
        assert!(canon.len() > 1, "instance exercises several coefficients");
    }

    #[test]
    fn rejects_wrong_length_payload_and_scratch() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 13);
        let short = vec![0u8; stripe.sector_bytes() - 8];
        assert_eq!(
            plan.apply(&mut stripe, 0, &short).unwrap_err(),
            RepairError::SectorLengthMismatch {
                sector: 0,
                expected: stripe.sector_bytes(),
                actual: stripe.sector_bytes() - 8,
            }
        );
        let good = vec![0u8; stripe.sector_bytes()];
        let mut bad_scratch = vec![0u8; stripe.sector_bytes() + 8];
        let sink = RegionStats::new();
        assert!(matches!(
            plan.apply_with_stats(&mut stripe, 0, &good, &mut bad_scratch, &sink)
                .unwrap_err(),
            RepairError::SectorLengthMismatch { .. }
        ));
    }

    #[test]
    fn update_then_decode_roundtrips() {
        // End-to-end: small write, then disk failure, then recovery.
        let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let mut stripe = encoded_stripe(&code, 21);
        let new_data = vec![0x5Au8; stripe.sector_bytes()];
        plan.apply(&mut stripe, 1, &new_data).unwrap();
        let pristine = stripe.clone();

        let mut rng = StdRng::seed_from_u64(2);
        let sc = code.decodable_worst_case(1, &mut rng, 100).unwrap();
        stripe.erase(&sc);
        let h = code.parity_check_matrix();
        decoder()
            .decode_scenario(&h, &sc, Strategy::PpmAuto, &mut stripe)
            .unwrap();
        assert_eq!(stripe, pristine);
    }
}
