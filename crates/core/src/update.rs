//! Incremental parity updates (small writes).
//!
//! Erasure-coded systems rarely rewrite whole stripes; a small write
//! changes one data sector and must patch every parity sector that
//! depends on it. For a linear code the patch is exact and local: with
//! generator `G = F⁻¹ · S` (parity sectors expressed over data sectors),
//! changing data sector `d` by `Δ = old ⊕ new` changes each parity `q` by
//! `G[q, d] · Δ` — a handful of `mult_XORs`, no re-encode.
//!
//! [`UpdatePlan`] holds those coefficients per data column with their
//! region kernels; [`RepairService::apply_update`](crate::RepairService::apply_update)
//! is the one code path that applies writes with them.
//!
//! The per-sector *update cost* (`parity_touched().len()`) is where the
//! asymmetric codes' design shows up directly: an LRC data write touches
//! its one local parity plus the `g` globals, while RS touches all `m`
//! parities — the same locality the paper's degraded-read motivation is
//! built on.

use crate::plan::RegionCache;
use crate::tape::Kernel;
use crate::RepairError;
use ppm_codes::ErasureCode;
use ppm_gf::{Backend, GfWord};
use ppm_stripe::Stripe;

/// One data column's patch list: `(parity sector, kernel of G[q, j])`
/// for every non-zero generator entry, in parity order.
pub(crate) type Column<W> = [(usize, Kernel<W>)];

/// A precomputed small-write planner for one code instance.
///
/// ```
/// use ppm_codes::{ErasureCode, LrcCode};
/// use ppm_core::UpdatePlan;
/// use ppm_gf::Backend;
///
/// let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
/// let plan = UpdatePlan::build(&code, Backend::Auto).unwrap();
/// // An LRC data write touches its local parity plus the g globals.
/// assert_eq!(plan.parity_touched(0).unwrap().len(), 1 + 2);
/// assert_eq!(plan.update_mult_xors(0).unwrap(), 1 + 2);
/// ```
#[derive(Debug)]
pub struct UpdatePlan<W: GfWord> {
    total_sectors: usize,
    /// `data_index[sector] = Some(column of G)` for data sectors.
    data_index: Vec<Option<usize>>,
    /// One [`Column`] per data column of `G`. Kernels come from one
    /// checked [`RegionCache`], so a coefficient shared by several
    /// entries shares one table.
    columns: Vec<Vec<(usize, Kernel<W>)>>,
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
        let coeffs = (0..gen.rows())
            .flat_map(|q| gen.row(q).iter().copied())
            .filter(|&c| c != W::ZERO)
            .collect();
        let regions = RegionCache::build(coeffs, backend);
        let columns = (0..gen.cols())
            .map(|j| {
                parity
                    .iter()
                    .enumerate()
                    .map(|(q, &p)| (p, gen.get(q, j)))
                    .filter(|&(_, c)| c != W::ZERO)
                    .map(|(p, c)| (p, regions.get_arc(c)))
                    .collect()
            })
            .collect();
        Ok(UpdatePlan {
            total_sectors: h.cols(),
            data_index,
            columns,
        })
    }

    /// The parity sectors affected by a write to `data_sector`, with the
    /// coefficient each applies to the data delta.
    ///
    /// # Errors
    /// Rejects out-of-range and parity sectors.
    pub fn parity_touched(&self, data_sector: usize) -> Result<Vec<(usize, W)>, RepairError> {
        Ok(self
            .column(data_sector)?
            .iter()
            .map(|(p, kernel)| (*p, kernel.constant()))
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
        Ok(self.column(data_sector)?.len())
    }

    /// Validates a whole batch of writes against `stripe` — geometry,
    /// data sector, payload length — and returns each write's patch
    /// list, so nothing is written unless every write is valid.
    pub(crate) fn columns_for(
        &self,
        stripe: &Stripe,
        writes: &[(usize, &[u8])],
    ) -> Result<Vec<&Column<W>>, RepairError> {
        if stripe.layout().sectors() != self.total_sectors {
            return Err(RepairError::GeometryMismatch {
                expected: self.total_sectors,
                actual: stripe.layout().sectors(),
            });
        }
        writes
            .iter()
            .map(|&(sector, data)| {
                let column = self.column(sector)?;
                if data.len() != stripe.sector_bytes() {
                    return Err(RepairError::SectorLengthMismatch {
                        sector,
                        expected: stripe.sector_bytes(),
                        actual: data.len(),
                    });
                }
                Ok(column)
            })
            .collect()
    }

    fn column(&self, sector: usize) -> Result<&Column<W>, RepairError> {
        if sector >= self.total_sectors {
            return Err(RepairError::SectorOutOfRange {
                sector,
                total: self.total_sectors,
            });
        }
        self.data_index
            .get(sector)
            .copied()
            .flatten()
            .and_then(|j| self.columns.get(j))
            .map(Vec::as_slice)
            .ok_or(RepairError::NotADataSector { sector })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ppm_codes::{LrcCode, RsCode, SdCode};
    use std::collections::HashMap;
    use std::sync::Arc;

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
    fn columns_match_generator_and_share_kernels() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        let h = code.parity_check_matrix();
        let parity = code.parity_sectors();
        let gen = h
            .select_columns(&parity)
            .inverse()
            .unwrap()
            .mul(&h.select_columns(&code.data_sectors()));
        for (j, &d) in code.data_sectors().iter().enumerate() {
            // Each column is exactly the non-zero generator column, in
            // parity order, with coefficients preserved.
            let expect: Vec<(usize, u8)> = parity
                .iter()
                .enumerate()
                .filter_map(|(q, &p)| {
                    let c = gen.get(q, j);
                    (c != 0).then_some((p, c))
                })
                .collect();
            assert_eq!(plan.parity_touched(d).unwrap(), expect, "column {j}");
            assert_eq!(plan.update_mult_xors(d).unwrap(), expect.len());
        }
        // Kernels are deduplicated plan-wide: every entry with the same
        // coefficient shares one table, across columns and parities.
        let mut canon: HashMap<u8, &Kernel<u8>> = HashMap::new();
        for (_, kernel) in plan.columns.iter().flatten() {
            let first = canon.entry(kernel.constant()).or_insert(kernel);
            assert!(Arc::ptr_eq(kernel, first));
        }
        assert!(canon.len() > 1, "instance exercises several coefficients");
    }

    #[test]
    fn rejects_parity_and_out_of_range_sectors() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = UpdatePlan::build(&code, Backend::Scalar).unwrap();
        assert_eq!(
            plan.update_mult_xors(3).unwrap_err(),
            RepairError::NotADataSector { sector: 3 }
        );
        assert_eq!(
            plan.parity_touched(99).unwrap_err(),
            RepairError::SectorOutOfRange {
                sector: 99,
                total: 16
            }
        );
    }
}
