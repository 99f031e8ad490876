//! Independence exploitation and matrix partition (paper §III-A).
//!
//! Rows of the log table with identical faulty footprints `(tᵢ, lᵢ)` are
//! grouped; a group of `f` rows whose footprint has exactly `f` columns is
//! an *independent sub-matrix*: its faulty blocks depend only on each
//! other and on surviving blocks, so it can be solved standalone — and in
//! parallel with the other independent sub-matrices. All remaining faulty
//! blocks are solved by the *remaining sub-matrix* `H_rest` afterwards,
//! using the recovered blocks as additional inputs.

use crate::LogTable;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::GfWord;
use ppm_matrix::Matrix;
use std::collections::BTreeMap;

/// One sub-matrix of the partition: which `H` rows it uses and which
/// faulty sectors it recovers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubSystem {
    /// Row indices into `H`, ascending.
    pub rows: Vec<usize>,
    /// Faulty sector (column) indices this sub-system recovers, ascending.
    pub faulty: Vec<usize>,
}

/// The four parallelism regimes of paper §III-C.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParallelismCase {
    /// Case 1: `p = 0` — no independent sub-matrix; `H_rest = H` and no
    /// parallelism is triggered.
    NoIndependent,
    /// Case 2: `p = 1` — a single independent sub-matrix; still no
    /// parallelism.
    SingleIndependent,
    /// Case 3.1: `1 < p`, `H_rest = NULL` — no dependent faulty blocks.
    AllIndependent,
    /// Case 3.2: `1 < p`, `H_rest ≠ NULL` — "the common case processed by
    /// PPM".
    Common,
    /// Case 4: every faulty sector is its own independent sub-matrix —
    /// maximum parallelism. (A refinement of case 3.1 with all groups
    /// 1×1.)
    MaximumParallelism,
}

/// The partition `H → H₀ … H_{p−1}, H_rest`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The `p` independent sub-matrices, each decodable from surviving
    /// blocks alone.
    pub independent: Vec<SubSystem>,
    /// The remaining sub-matrix, if any faulty blocks are left. Its `rows`
    /// are *candidates* (every row touching a remaining faulty column); a
    /// decode plan later selects a square independent subset.
    pub rest: Option<SubSystem>,
}

impl Partition {
    /// Partitions `H` under `scenario` (paper Algorithm step 2).
    ///
    /// Group qualification follows §III-A, with two safeguards the paper's
    /// prose leaves implicit: a group is only extracted if its square
    /// system is actually invertible (otherwise its rows stay available to
    /// `H_rest`), and groups whose faulty columns were already claimed by
    /// an earlier group are skipped so no block is recovered twice.
    ///
    /// ```
    /// use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    /// use ppm_core::Partition;
    ///
    /// // Figure 3: b2, b6, b10 are independent; b13, b14 go to H_rest.
    /// let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    /// let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    /// let part = Partition::build(&code.parity_check_matrix(), &scenario);
    /// assert_eq!(part.degree(), 3);
    /// assert_eq!(part.independent_faulty(), vec![2, 6, 10]);
    /// assert_eq!(part.rest.as_ref().unwrap().faulty, vec![13, 14]);
    /// ```
    pub fn build<W: GfWord>(h: &Matrix<W>, scenario: &FailureScenario) -> Partition {
        let log = LogTable::build(h, scenario);
        // Footprint -> rows sharing it. BTreeMap gives deterministic
        // processing order (by footprint size, then columns).
        let mut groups: BTreeMap<(usize, Vec<usize>), Vec<usize>> = BTreeMap::new();
        for row in log.rows() {
            if row.t > 0 {
                groups
                    .entry((row.t, row.l.clone()))
                    .or_default()
                    .push(row.row);
            }
        }

        let mut independent = Vec::new();
        let mut claimed: Vec<usize> = Vec::new();
        for ((t, support), rows) in &groups {
            if rows.len() < *t {
                continue; // fewer equations than unknowns: not standalone
            }
            if support.iter().any(|c| claimed.binary_search(c).is_ok()) {
                continue; // overlaps an already-extracted group
            }
            // Solvability: t linearly independent rows over the t columns.
            let sub = h.select_rows(rows).select_columns(support);
            let picked = sub.select_independent_rows();
            if picked.len() < *t {
                continue; // rank-deficient standalone; leave for H_rest
            }
            let chosen: Vec<usize> = picked
                .iter()
                .filter_map(|&i| rows.get(i).copied())
                .collect();
            independent.push(SubSystem {
                rows: chosen,
                faulty: support.clone(),
            });
            claimed.extend(support.iter().copied());
            claimed.sort_unstable();
        }

        let rest_faulty: Vec<usize> = scenario
            .faulty()
            .iter()
            .copied()
            .filter(|c| claimed.binary_search(c).is_err())
            .collect();
        let rest = if rest_faulty.is_empty() {
            None
        } else {
            // Every row that touches a remaining faulty column is a
            // candidate equation for H_rest.
            let rows: Vec<usize> = log
                .rows()
                .iter()
                .filter(|r| r.l.iter().any(|c| rest_faulty.binary_search(c).is_ok()))
                .map(|r| r.row)
                .collect();
            Some(SubSystem {
                rows,
                faulty: rest_faulty,
            })
        };

        Partition { independent, rest }
    }

    /// The SD-specific shortcut of the paper's Algorithm 1: instead of
    /// scanning every row of `H` for matching footprints, count the faulty
    /// sectors `v` in each *stripe* row — a row with `1 ≤ v ≤ m` failures
    /// is recovered by (v of) its own `m` disk-parity equations, forming
    /// an independent sub-matrix; rows with more failures, plus the `s`
    /// global sector-parity equations, form `H_rest`.
    ///
    /// Produces the same recovered-block partition as the general
    /// [`Partition::build`] (see the equivalence tests) at `O(r + |faulty|)`
    /// bookkeeping cost instead of a full `H` scan. (The paper states the
    /// rule for `v = m` — the whole-disk worst case; `v < m` rows are
    /// independent by the same argument, so we include them.)
    pub fn build_sd<W: GfWord>(
        code: &ppm_codes::SdCode<W>,
        h: &Matrix<W>,
        scenario: &FailureScenario,
    ) -> Partition {
        let (r, m, s) = (code.r(), code.m(), code.s());
        debug_assert_eq!(h.rows(), m * r + s, "H does not match the code");
        let layout = code.layout();

        // Bucket faulty sectors by stripe row. A sector outside the
        // layout has no row; `DecodePlan::build_sd` rejects it first.
        let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); r];
        for &f in scenario.faulty() {
            if let Some(row) = by_row.get_mut(layout.row_of(f)) {
                row.push(f);
            }
        }

        let mut independent = Vec::new();
        let mut rest_faulty: Vec<usize> = Vec::new();
        let mut rest_rows: Vec<usize> = Vec::new();
        for (i, row_faulty) in by_row.iter().enumerate() {
            if row_faulty.is_empty() {
                continue;
            }
            let eq_rows: Vec<usize> = (0..m).map(|q| q * r + i).collect();
            if row_faulty.len() <= m {
                let sub = h.select_rows(&eq_rows).select_columns(row_faulty);
                let picked = sub.select_independent_rows();
                if picked.len() == row_faulty.len() {
                    independent.push(SubSystem {
                        rows: picked
                            .iter()
                            .filter_map(|&e| eq_rows.get(e).copied())
                            .collect(),
                        faulty: row_faulty.clone(),
                    });
                    continue;
                }
            }
            rest_rows.extend(eq_rows);
            rest_faulty.extend(row_faulty.iter().copied());
        }

        let rest = if rest_faulty.is_empty() {
            None
        } else {
            rest_rows.extend(m * r..m * r + s); // the global equations
            rest_rows.sort_unstable();
            rest_faulty.sort_unstable();
            Some(SubSystem {
                rows: rest_rows,
                faulty: rest_faulty,
            })
        };
        Partition { independent, rest }
    }

    /// The degree of parallelism `p` (paper §III-C).
    pub fn degree(&self) -> usize {
        self.independent.len()
    }

    /// Classifies the partition into the parallelism cases of §III-C.
    pub fn case(&self) -> ParallelismCase {
        let p = self.degree();
        match (p, &self.rest) {
            (0, _) => ParallelismCase::NoIndependent,
            (1, _) => ParallelismCase::SingleIndependent,
            (_, Some(_)) => ParallelismCase::Common,
            (_, None) => {
                if self.independent.iter().all(|s| s.faulty.len() == 1) {
                    ParallelismCase::MaximumParallelism
                } else {
                    ParallelismCase::AllIndependent
                }
            }
        }
    }

    /// All faulty sectors recovered by the independent phase.
    pub fn independent_faulty(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .independent
            .iter()
            .flat_map(|s| s.faulty.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, LrcCode, RsCode, SdCode, StripeLayout};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_example() -> (Matrix<u8>, FailureScenario) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        (
            code.parity_check_matrix(),
            FailureScenario::new(vec![2, 6, 10, 13, 14]),
        )
    }

    /// Paper Figure 3: p = 3 independent 1×1 sub-matrices (b2, b6, b10)
    /// and H_rest = rows {3, 4} recovering {b13, b14}.
    #[test]
    fn figure3_partition() {
        let (h, sc) = paper_example();
        let p = Partition::build(&h, &sc);
        assert_eq!(p.degree(), 3);
        assert_eq!(
            p.independent[0],
            SubSystem {
                rows: vec![0],
                faulty: vec![2]
            }
        );
        assert_eq!(
            p.independent[1],
            SubSystem {
                rows: vec![1],
                faulty: vec![6]
            }
        );
        assert_eq!(
            p.independent[2],
            SubSystem {
                rows: vec![2],
                faulty: vec![10]
            }
        );
        let rest = p.rest.as_ref().expect("b13, b14 remain");
        assert_eq!(rest.faulty, vec![13, 14]);
        assert_eq!(rest.rows, vec![3, 4]);
        assert_eq!(p.independent_faulty(), vec![2, 6, 10]);
    }

    /// SD worst case: every stripe row without a sector error yields one
    /// independent m×m group, so p = r − z (paper §IV: "for SD code, the
    /// degree of parallelism p is equal to r − z").
    #[test]
    fn sd_worst_case_degree_is_r_minus_z() {
        let code = SdCode::<u8>::search(8, 8, 2, 2, 5, 3).unwrap();
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(17);
        for z in 1..=2usize {
            let sc = code.decodable_worst_case(z, &mut rng, 100).unwrap();
            let p = Partition::build(&h, &sc);
            assert_eq!(p.degree(), 8 - z, "z={z}");
            let rest = p.rest.unwrap();
            assert_eq!(rest.faulty.len(), 2 * z + 2, "z={z}");
        }
    }

    /// Case 4 of §III-C: no dependent blocks at all → H_rest is null and
    /// parallelism is maximal.
    #[test]
    fn rest_is_null_when_all_blocks_independent() {
        // RS with whole-disk failures: each stripe row's m equations form
        // an independent group; no sector-parity rows exist to tie rows
        // together.
        let code = RsCode::<u8>::new(4, 2, 5).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::whole_disks(code.layout(), &[1, 3]);
        let p = Partition::build(&h, &sc);
        assert_eq!(p.degree(), 5); // one group per stripe row
        assert!(p.rest.is_none());
    }

    /// Case 1 of §III-C: p = 0, H_rest = H (no independent groups).
    #[test]
    fn no_independent_groups_when_rows_disagree() {
        // SD 1 disk + 1 sector in the same stripe row: that row's disk
        // equation sees {disk cell, sector cell} (t=2, one row), the
        // global row sees everything. No group qualifies.
        let code = SdCode::<u8>::new(4, 2, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let layout = code.layout();
        // Fail disk 0 entirely and sector (1,1); disk rows: row0 sees
        // {s0}, row1 sees {s4, s5}; global sees {0,4,5}.
        let sc = FailureScenario::new(vec![
            layout.sector(0, 0),
            layout.sector(1, 0),
            layout.sector(1, 1),
        ]);
        let p = Partition::build(&h, &sc);
        // Row 0 ({s0}) is a valid 1x1 group; rows for stripe-row 1 are not.
        assert_eq!(p.degree(), 1);
        let rest = p.rest.unwrap();
        assert_eq!(rest.faulty.len(), 2);
    }

    /// LRC disk failures: local groups with exactly one failure become 1×1
    /// independent sub-matrices, one per stripe row.
    #[test]
    fn lrc_local_repairs_are_independent() {
        let code = LrcCode::<u8>::new(4, 2, 2, 3).unwrap();
        let h = code.parity_check_matrix();
        // Fail data disk 0 (group 0) and data disk 2 (group 1).
        let sc = FailureScenario::whole_disks(code.layout(), &[0, 2]);
        let p = Partition::build(&h, &sc);
        // Per stripe row: both local equations have t=1 footprints.
        assert_eq!(p.degree(), 2 * 3);
        assert!(p.rest.is_none());
    }

    #[test]
    fn empty_scenario_partitions_to_nothing() {
        let (h, _) = paper_example();
        let p = Partition::build(&h, &FailureScenario::new(vec![]));
        assert_eq!(p.degree(), 0);
        assert!(p.rest.is_none());
    }

    #[test]
    fn overlapping_groups_claimed_once() {
        // Construct H by hand: two 2-row groups sharing a faulty column.
        // Group A: rows 0,1 over cols {0,1}; group B: rows 2,3 over {1,2}.
        let h = Matrix::<u8>::from_rows(&[
            vec![1, 1, 0, 1],
            vec![1, 2, 0, 1],
            vec![0, 1, 1, 0],
            vec![0, 1, 3, 0],
        ]);
        let sc = FailureScenario::new(vec![0, 1, 2]);
        let p = Partition::build(&h, &sc);
        // First group (by footprint order) claims {0,1}; B overlaps and is
        // skipped, so col 2 goes to H_rest.
        assert_eq!(p.degree(), 1);
        assert_eq!(p.independent[0].faulty, vec![0, 1]);
        assert_eq!(p.rest.as_ref().unwrap().faulty, vec![2]);
    }

    #[test]
    fn rank_deficient_group_left_to_rest() {
        // Two rows with the same footprint {0,1} but proportional entries:
        // rank 1, cannot stand alone. (Row 2 touches no faulty column.)
        let h = Matrix::<u8>::from_rows(&[vec![1, 1, 7], vec![2, 2, 9], vec![0, 0, 4]]);
        let sc = FailureScenario::new(vec![0, 1]);
        // Rows 0,1 have footprint {0,1}; their 2x2 system [[1,1],[2,2]] is
        // singular -> no independent extraction.
        let p = Partition::build(&h, &sc);
        assert_eq!(p.degree(), 0);
        assert_eq!(p.rest.as_ref().unwrap().faulty, vec![0, 1]);
        assert_eq!(p.rest.as_ref().unwrap().rows, vec![0, 1]);
    }

    /// The §III-C case taxonomy.
    #[test]
    fn parallelism_cases() {
        // Case 3.2 (common): the paper's worked example.
        let (h, sc) = paper_example();
        assert_eq!(Partition::build(&h, &sc).case(), ParallelismCase::Common);

        // Case 1: no independent groups.
        let h1 = Matrix::<u8>::from_rows(&[vec![1, 1, 7], vec![2, 2, 9]]);
        let p = Partition::build(&h1, &FailureScenario::new(vec![0, 1]));
        assert_eq!(p.case(), ParallelismCase::NoIndependent);

        // Case 2: exactly one independent group.
        let code = SdCode::<u8>::new(4, 2, 1, 1, vec![1, 2]).unwrap();
        let layout = code.layout();
        let sc = FailureScenario::new(vec![
            layout.sector(0, 0),
            layout.sector(1, 0),
            layout.sector(1, 1),
        ]);
        let p = Partition::build(&code.parity_check_matrix(), &sc);
        assert_eq!(p.case(), ParallelismCase::SingleIndependent);

        // Case 4: every faulty sector independent (RS single-disk loss).
        let rs = RsCode::<u8>::new(4, 2, 5).unwrap();
        let sc = FailureScenario::whole_disks(rs.layout(), &[1]);
        let p = Partition::build(&rs.parity_check_matrix(), &sc);
        assert_eq!(p.case(), ParallelismCase::MaximumParallelism);

        // Case 3.1: independent groups bigger than 1x1, no rest.
        let sc = FailureScenario::whole_disks(rs.layout(), &[1, 3]);
        let p = Partition::build(&rs.parity_check_matrix(), &sc);
        assert_eq!(p.case(), ParallelismCase::AllIndependent);
    }

    /// Algorithm 1's fast SD partition must agree with the general
    /// footprint-grouping method on the recovered-block structure.
    #[test]
    fn sd_fast_partition_matches_general() {
        let code = SdCode::<u8>::search(8, 8, 2, 2, 5, 3).unwrap();
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(41);
        // Worst cases for every z, plus random partial scenarios.
        let mut scenarios: Vec<FailureScenario> = (1..=2)
            .filter_map(|z| code.decodable_worst_case(z, &mut rng, 100))
            .collect();
        for count in [1usize, 3, 7, 12] {
            scenarios.push(FailureScenario::random(code.layout(), count, &mut rng));
        }
        for sc in &scenarios {
            let general = Partition::build(&h, sc);
            let fast = Partition::build_sd(&code, &h, sc);
            assert_eq!(
                fast.independent_faulty(),
                general.independent_faulty(),
                "phase-A blocks differ for {:?}",
                sc.faulty()
            );
            assert_eq!(
                fast.rest.as_ref().map(|r| r.faulty.clone()),
                general.rest.as_ref().map(|r| r.faulty.clone()),
                "rest blocks differ for {:?}",
                sc.faulty()
            );
        }
    }

    #[test]
    fn sd_fast_partition_on_paper_example() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let p = Partition::build_sd(&code, &h, &sc);
        assert_eq!(p.degree(), 3);
        assert_eq!(p.independent_faulty(), vec![2, 6, 10]);
        let rest = p.rest.unwrap();
        assert_eq!(rest.faulty, vec![13, 14]);
        assert_eq!(rest.rows, vec![3, 4]); // row-3 disk eq + the global eq
    }

    #[test]
    fn whole_disk_layout_sanity() {
        let layout = StripeLayout::new(6, 4);
        let sc = FailureScenario::whole_disks(layout, &[5]);
        assert_eq!(sc.len(), 4);
    }

    /// The tentpole assertion for product codes: a whole failed column
    /// decomposes into one independent *row-code* repair per grid row —
    /// the partitioner discovers the row/column split from `H` alone.
    #[test]
    fn product_whole_column_decomposes_per_row() {
        let code = ppm_codes::ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let h = code.parity_check_matrix();
        let layout = code.layout();
        let sc = FailureScenario::whole_disks(layout, &[1]);
        let p = Partition::build(&h, &sc);
        // One 1×1 group per grid row (r = k2 + m2 = 5), nothing left over.
        assert_eq!(p.degree(), 5);
        assert_eq!(p.case(), ParallelismCase::MaximumParallelism);
        assert!(p.rest.is_none());
        // Every group solves through a row-check equation (H rows 0..r·m1).
        let row_checks = code.row_check_rows();
        for sub in &p.independent {
            assert!(
                sub.rows.iter().all(|&row| row < row_checks),
                "column failure must repair through row checks, got rows {:?}",
                sub.rows
            );
        }
        assert_eq!(p.independent_faulty(), sc.faulty().to_vec());
    }

    /// The dual split: a co-located burst within one stripe-row
    /// decomposes into one independent *column-code* repair per hit data
    /// column.
    #[test]
    fn product_row_burst_decomposes_per_column() {
        let code = ppm_codes::ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let h = code.parity_check_matrix();
        let layout = code.layout();
        let sc = FailureScenario::try_row_burst(layout, 1, 0, 3).unwrap();
        let p = Partition::build(&h, &sc);
        assert_eq!(p.degree(), 3);
        assert_eq!(p.case(), ParallelismCase::MaximumParallelism);
        assert!(p.rest.is_none());
        // Every group solves through a column-check equation.
        let row_checks = code.row_check_rows();
        for sub in &p.independent {
            assert!(
                sub.rows.iter().all(|&row| row >= row_checks),
                "burst must repair through column checks, got rows {:?}",
                sub.rows
            );
        }
    }

    /// A "cross" (one full grid row plus one full data column) exercises
    /// both axes at once: the off-cross cells split into independent
    /// row-check and column-check groups, the row parities at the
    /// intersection fall to H_rest — the paper's common case.
    #[test]
    fn product_cross_is_common_with_both_axes() {
        let code = ppm_codes::ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let h = code.parity_check_matrix();
        let layout = code.layout();
        let row = FailureScenario::try_row_burst(layout, 1, 0, 6).unwrap();
        let col: Vec<usize> = (0..5).map(|i| layout.sector(i, 2)).collect();
        let sc = row.union(&FailureScenario::new(col));
        let p = Partition::build(&h, &sc);
        // (k1 − 1) column repairs in the burst row + (r − 1) row repairs
        // in the failed column.
        assert_eq!(p.degree(), 3 + 4);
        assert_eq!(p.case(), ParallelismCase::Common);
        let row_checks = code.row_check_rows();
        let via_row_checks = p
            .independent
            .iter()
            .filter(|s| s.rows.iter().all(|&row| row < row_checks))
            .count();
        let via_col_checks = p
            .independent
            .iter()
            .filter(|s| s.rows.iter().all(|&row| row >= row_checks))
            .count();
        assert_eq!(
            via_row_checks, 4,
            "one per surviving grid row of the column"
        );
        assert_eq!(
            via_col_checks, 3,
            "one per surviving data column of the row"
        );
        // The intersection cell and the burst row's parity cells remain.
        let rest = p.rest.as_ref().expect("cross leaves a rest");
        assert_eq!(
            rest.faulty,
            vec![
                layout.sector(1, 2),
                layout.sector(1, 4),
                layout.sector(1, 5)
            ]
        );
    }

    /// Hitchhiker: a single failed data disk splits into two independent
    /// sub-stripe repairs — the coupled row-1 check is avoided because
    /// its footprint differs from the uncoupled checks'.
    #[test]
    fn hitchhiker_single_disk_splits_substripes() {
        let code = ppm_codes::HitchhikerXor::<u8>::new(5, 3).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::whole_disks(code.layout(), &[1]);
        let p = Partition::build(&h, &sc);
        assert_eq!(p.degree(), 2);
        assert_eq!(p.case(), ParallelismCase::MaximumParallelism);
        assert!(p.rest.is_none());
    }

    /// Hitchhiker worst case (`m` whole disks): sub-stripe a's Cauchy
    /// block is the single independent group, sub-stripe b — whose
    /// coupled checks have divergent footprints — goes to H_rest.
    #[test]
    fn hitchhiker_m_disk_loss_is_single_independent() {
        let code = ppm_codes::HitchhikerXor::<u8>::new(5, 3).unwrap();
        let h = code.parity_check_matrix();
        let layout = code.layout();
        let sc = FailureScenario::whole_disks(layout, &[0, 1, 2]);
        let p = Partition::build(&h, &sc);
        assert_eq!(p.case(), ParallelismCase::SingleIndependent);
        // The independent group is row 0 (sub-stripe a): its faulty cells
        // all live in stripe-row 0.
        assert_eq!(p.independent.len(), 1);
        assert!(p.independent[0]
            .faulty
            .iter()
            .all(|&f| layout.row_of(f) == 0));
        assert_eq!(p.rest.as_ref().unwrap().faulty.len(), 3);
    }

    /// Correlated rack loss on a product code: a two-disk group failure
    /// still decomposes row-by-row (each grid row loses 2 ≤ m1 cells).
    #[test]
    fn product_rack_loss_decomposes_per_row() {
        let code = ppm_codes::ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
        let layout = code.layout();
        // 6 disks in 3 groups of 2; lose group 1 (disks 2 and 3).
        let sc = FailureScenario::try_disk_group(layout, 1, 3).unwrap();
        assert_eq!(sc.failed_disks(layout), vec![2, 3]);
        let p = Partition::build(&code.parity_check_matrix(), &sc);
        assert_eq!(p.degree(), 5);
        assert_eq!(p.case(), ParallelismCase::AllIndependent);
        assert!(p.independent.iter().all(|s| s.faulty.len() == 2));
    }
}
