//! The computational-cost model `C₁..C₄` (paper §II-B and §III-B).
//!
//! Every decoding strategy's cost is its number of `mult_XORs` region
//! operations, which equals a count of non-zero matrix coefficients:
//!
//! * `C₁ = u(F⁻¹) + u(S)` — traditional, normal sequence,
//! * `C₂ = u(F⁻¹·S)` — traditional, matrix-first sequence,
//! * `C₃ = Σᵢ u(Fᵢ⁻¹·Sᵢ) + u(F_rest⁻¹·S_rest)` — PPM, matrix-first rest,
//! * `C₄ = Σᵢ u(Fᵢ⁻¹·Sᵢ) + u(F_rest⁻¹) + u(S_rest)` — PPM, normal rest.
//!
//! [`analyze`] computes all four numerically for any `(H, scenario)` by
//! building the corresponding plans and counting their terms — the same
//! counts the executor will actually perform. [`SdClosedForm`] implements
//! the paper's closed-form expressions for SD codes (`s` faulty sectors on
//! `z` rows), which Figures 4–6 sweep.

use crate::{DecodeError, DecodePlan, Strategy};
use ppm_codes::FailureScenario;
use ppm_gf::{Backend, GfWord};
use ppm_matrix::Matrix;

/// The four costs for one concrete failure scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// Traditional, normal sequence.
    pub c1: usize,
    /// Traditional, matrix-first sequence.
    pub c2: usize,
    /// PPM, matrix-first remaining sub-matrix.
    pub c3: usize,
    /// PPM, normal-sequence remaining sub-matrix.
    pub c4: usize,
    /// Degree of parallelism `p` of the partitioned plans.
    pub parallelism: usize,
}

impl CostReport {
    /// The minimum cost and the strategy achieving it (partitioned plans
    /// win ties, as in [`Strategy::PpmAuto`]).
    pub fn best(&self) -> (Strategy, usize) {
        let mut best = (Strategy::PpmNormalRest, self.c4);
        for (s, c) in [
            (Strategy::PpmMatrixFirstRest, self.c3),
            (Strategy::TraditionalMatrixFirst, self.c2),
            (Strategy::TraditionalNormal, self.c1),
        ] {
            if c < best.1 {
                best = (s, c);
            }
        }
        best
    }
}

/// Computes `C₁..C₄` for decoding `scenario` under `h`, by constructing
/// each strategy's plan and counting its mult_XORs.
///
/// ```
/// use ppm_codes::{ErasureCode, FailureScenario, SdCode};
/// use ppm_core::cost::analyze;
///
/// // §II-B's worked numbers: C1 = 35, C2 = 31 (and C3 = 37, C4 = 29).
/// let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
/// let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
/// let report = analyze(&code.parity_check_matrix(), &scenario).unwrap();
/// assert_eq!((report.c1, report.c2, report.c3, report.c4), (35, 31, 37, 29));
/// assert_eq!(report.parallelism, 3);
/// ```
pub fn analyze<W: GfWord>(
    h: &Matrix<W>,
    scenario: &FailureScenario,
) -> Result<CostReport, DecodeError> {
    let cost = |s: Strategy| -> Result<usize, DecodeError> {
        Ok(DecodePlan::build(h, scenario, s, Backend::Scalar)?.mult_xors())
    };
    let c1 = cost(Strategy::TraditionalNormal)?;
    let c2 = cost(Strategy::TraditionalMatrixFirst)?;
    let c3 = cost(Strategy::PpmMatrixFirstRest)?;
    let c4_plan = DecodePlan::build(h, scenario, Strategy::PpmNormalRest, Backend::Scalar)?;
    Ok(CostReport {
        c1,
        c2,
        c3,
        c4: c4_plan.mult_xors(),
        parallelism: c4_plan.parallelism(),
    })
}

/// The paper's closed-form cost expressions for an SD worst case: `m` disk
/// failures plus `s` sector failures located on `z` rows (§III-B, derived
/// there "by the simulation results of Figures 4–6").
///
/// Valid for `1 ≤ z ≤ s`; the expressions assume the generic case where no
/// accidental GF cancellation zeroes a product coefficient, which holds
/// for the instances the experiments use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SdClosedForm {
    /// Strips per stripe.
    pub n: usize,
    /// Rows per strip.
    pub r: usize,
    /// Parity strips.
    pub m: usize,
    /// Sector parities (and additional faulty sectors).
    pub s: usize,
    /// Rows containing the `s` faulty sectors.
    pub z: usize,
}

impl SdClosedForm {
    /// `C₁ = n·r·(m+s) + m·(m·r+s)·(z−1) + m²·(r−z)`.
    pub fn c1(&self) -> usize {
        let Self { n, r, m, s, z } = *self;
        n * r * (m + s) + m * (m * r + s) * (z - 1) + m * m * (r - z)
    }

    /// `C₂ = (n·r − (m·r+s))·(m·z+s) + m·(n−m)·(r−z)`.
    pub fn c2(&self) -> usize {
        let Self { n, r, m, s, z } = *self;
        (n * r - (m * r + s)) * (m * z + s) + m * (n - m) * (r - z)
    }

    /// `C₃ = (n·r − (m·z+s))·(m·z+s) + m·(n−m)·(r−z)`.
    ///
    /// The paper prints `(n·r − (m+s))·(m·z+s) + m·(n−m)·(r−z)`, which is
    /// this expression specialized to `z = 1` (the only `z` its C₃ plots
    /// use): `H_rest` recovers `m·z+s` blocks — not `m+s` — so its
    /// matrix-first product has `n·r − (m·z+s)` source columns. Our
    /// numeric counts confirm the general form (see the tests).
    pub fn c3(&self) -> usize {
        let Self { n, r, m, s, z } = *self;
        (n * r - (m * z + s)) * (m * z + s) + m * (n - m) * (r - z)
    }

    /// `C₄ = n·r·(m+s) + m·(m·z+s)·(z−1) − m²·(r−z)`.
    pub fn c4(&self) -> usize {
        let Self { n, r, m, s, z } = *self;
        n * r * (m + s) + m * (m * z + s) * (z - 1) - m * m * (r - z)
    }

    /// `C₁ − C₄ = m²·(z+1)·(r−z)`, the cost PPM saves over the
    /// traditional method — always positive, per the paper's analysis.
    pub fn savings(&self) -> usize {
        self.c1() - self.c4()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::ErasureCode;
    use ppm_codes::SdCode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// §III-B's worked numbers for the Figure 2 instance.
    #[test]
    fn closed_form_matches_paper_example() {
        let cf = SdClosedForm {
            n: 4,
            r: 4,
            m: 1,
            s: 1,
            z: 1,
        };
        assert_eq!(cf.c1(), 35);
        assert_eq!(cf.c2(), 31);
        assert_eq!(cf.c3(), 37);
        assert_eq!(cf.c4(), 29);
        assert_eq!(cf.savings(), 6);
        // "The computational cost is reduced by (C1-C4)/C1 = 17.14%".
        assert!((cf.savings() as f64 / cf.c1() as f64 - 0.1714).abs() < 1e-3);
    }

    #[test]
    fn closed_form_identities() {
        // §III-B states C1 − C4 = m²(z+1)(r−z) (its in-text variant says
        // (z+1)(r−1); both agree at z=1) and C3 − C2 = m(r−1)(mz+s).
        // The general identities are C1 − C4 = m²(z+1)(r−z) and
        // C3 − C2 = m(r−z)(mz+s), which reduce to the printed ones at z=1.
        for n in [6usize, 11, 16, 21] {
            for r in [8usize, 16, 24] {
                for m in 1..=3usize {
                    for s in 1..=3usize {
                        for z in 1..=s.min(r) {
                            let cf = SdClosedForm { n, r, m, s, z };
                            assert_eq!(cf.c1() - cf.c4(), m * m * (z + 1) * (r - z), "{cf:?}");
                            assert_eq!(cf.c3() - cf.c2(), m * (r - z) * (m * z + s), "{cf:?}");
                            if z == 1 {
                                assert_eq!(
                                    cf.c3() - cf.c2(),
                                    m * (r - 1) * (m * z + s),
                                    "paper identity at z=1: {cf:?}"
                                );
                            }
                            assert!(cf.c4() < cf.c1());
                        }
                    }
                }
            }
        }
    }

    /// The numeric plan-based counts must reproduce the closed forms on
    /// real SD instances and worst-case scenarios.
    #[test]
    fn numeric_analysis_matches_closed_forms() {
        let mut rng = StdRng::seed_from_u64(2024);
        for (n, r, m, s) in [(4, 4, 1, 1), (6, 8, 2, 2), (8, 6, 1, 2), (6, 6, 2, 1)] {
            let code = match SdCode::<u8>::with_generator_coeffs(n, r, m, s) {
                Ok(c) => c,
                Err(_) => SdCode::<u8>::search(n, r, m, s, 11, 2).unwrap(),
            };
            let h = code.parity_check_matrix();
            for z in 1..=s {
                let Some(sc) = code.decodable_worst_case(z, &mut rng, 200) else {
                    continue;
                };
                let report = analyze(&h, &sc).unwrap();
                let cf = SdClosedForm { n, r, m, s, z };
                // The closed forms are generic-position counts; an
                // accidental GF cancellation can zero the odd product
                // coefficient, putting the numeric count a hair *below*
                // the formula. Never above.
                // With a product of k generic GF(2^8) entries, roughly
                // k/256 of them vanish by chance; allow that much slack.
                let close = |numeric: usize, formula: usize, tag: &str| {
                    assert!(
                        numeric <= formula && formula - numeric <= formula / 40 + 2,
                        "{tag} n={n} r={r} m={m} s={s} z={z}: numeric={numeric} formula={formula}"
                    );
                };
                close(report.c1, cf.c1(), "C1");
                close(report.c2, cf.c2(), "C2");
                close(report.c3, cf.c3(), "C3");
                close(report.c4, cf.c4(), "C4");
                assert_eq!(report.parallelism, r - z, "p n={n} r={r} m={m} s={s} z={z}");
            }
        }
    }

    #[test]
    fn best_prefers_partitioned_on_tie() {
        let rep = CostReport {
            c1: 10,
            c2: 8,
            c3: 9,
            c4: 8,
            parallelism: 3,
        };
        let (s, c) = rep.best();
        assert_eq!(c, 8);
        assert_eq!(s, Strategy::PpmNormalRest);
    }

    #[test]
    fn best_picks_c2_when_strictly_smaller() {
        let rep = CostReport {
            c1: 10,
            c2: 7,
            c3: 9,
            c4: 8,
            parallelism: 3,
        };
        assert_eq!(rep.best(), (Strategy::TraditionalMatrixFirst, 7));
    }
}
