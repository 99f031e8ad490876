//! Exhaustive ground truth where the space is small enough to enumerate:
//! for one small geometry of each of the nine code families, *every*
//! erasure pattern of size `1..=fault_tolerance` either decodes
//! bit-identically to the word-level oracle of `tests/common` or is
//! reported `Unrecoverable` — and the engine and the oracle agree on
//! which — through both the whole-sector path (serial decoder) and the
//! span path (a T = 2 decoder on sectors long enough to be cut into 4 KiB
//! spans), with executed == predicted on each. On every pattern the `PpmAuto` plan also picks exactly what
//! the long way picks: all four concrete plans built, the first strict
//! minimum kept.
//!
//! For SD and PMDS the suite additionally pins the families' defining
//! guarantees (Plank & Blaum, arXiv:1401.4715): any `m` whole disks plus
//! any `s` further sectors decode under SD; any `m` sectors *per stripe
//! row* plus any `s` further sectors decode under PMDS.

mod common;

use common::reference_decode;
use ppm::cost::CostReport;
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, DecodeError, DecodePlan, Decoder, DecoderConfig, ErasureCode, EvenOddCode,
    FailureScenario, HitchhikerXor, LrcCode, PmdsCode, ProductCode, RdpCode, RepairError, RsCode,
    SdCode, StarCode, Strategy, Stripe,
};
use rand::{rngs::StdRng, SeedableRng};

const SECTOR_BYTES: usize = 32;
/// Four 4 KiB spans and a 24-byte tail: a T = 2 decoder cuts these
/// sectors into spans.
const SPANNED_SECTOR_BYTES: usize = 4 * 4096 + 24;

/// Calls `visit` with every `k`-subset of `0..n`, in lexicographic order.
fn for_each_subset(n: usize, k: usize, visit: &mut impl FnMut(&[usize])) {
    fn extend(
        n: usize,
        k: usize,
        from: usize,
        chosen: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if chosen.len() == k {
            visit(chosen);
            return;
        }
        for next in from..n {
            chosen.push(next);
            extend(n, k, next + 1, chosen, visit);
            chosen.pop();
        }
    }
    extend(n, k, 0, &mut Vec::with_capacity(k), visit);
}

/// The sequence optimization the long way: build the four concrete plans
/// and keep the first strict minimum in C₄, C₃, C₂, C₁ order. Returns the
/// winner, its cost and the four costs.
fn reference_auto(
    h: &ppm::Matrix<u8>,
    scenario: &FailureScenario,
) -> Result<(Strategy, usize, CostReport), DecodeError> {
    let build = |s| DecodePlan::build(h, scenario, s, Backend::Scalar);
    let c4 = build(Strategy::PpmNormalRest)?;
    let c3 = build(Strategy::PpmMatrixFirstRest)?;
    let c2 = build(Strategy::TraditionalMatrixFirst)?;
    let c1 = build(Strategy::TraditionalNormal)?;
    let mut best = &c4;
    for plan in [&c3, &c2, &c1] {
        if plan.mult_xors() < best.mult_xors() {
            best = plan;
        }
    }
    let report = CostReport {
        c1: c1.mult_xors(),
        c2: c2.mult_xors(),
        c3: c3.mult_xors(),
        c4: c4.mult_xors(),
        parallelism: c4.parallelism(),
    };
    Ok((best.strategy(), best.mult_xors(), report))
}

struct Harness<'a, C> {
    code: &'a C,
    h: ppm::Matrix<u8>,
    pristine: Stripe,
    spanned: Stripe,
    serial: Decoder,
    pooled: Decoder,
}

impl<'a, C: ErasureCode<u8>> Harness<'a, C> {
    fn new(code: &'a C) -> Self {
        let decoder = |threads| {
            Decoder::new(DecoderConfig {
                threads,
                backend: Backend::Auto,
            })
        };
        let mut rng = StdRng::seed_from_u64(common::seed_from_env());
        let mut pristine = random_data_stripe(code, SECTOR_BYTES, &mut rng);
        encode(code, &decoder(1), &mut pristine).expect("encode");
        let mut spanned = random_data_stripe(code, SPANNED_SECTOR_BYTES, &mut rng);
        encode(code, &decoder(1), &mut spanned).expect("encode");
        Harness {
            code,
            h: code.parity_check_matrix(),
            pristine,
            spanned,
            serial: decoder(1),
            pooled: decoder(2),
        }
    }

    /// Checks one pattern; returns whether it was decodable.
    fn check(&self, faulty: &[usize]) -> bool {
        let name = self.code.name();
        let scenario = FailureScenario::new(faulty.to_vec());
        let mut by_oracle = self.pristine.clone();
        by_oracle.erase(&scenario);
        let decodable = reference_decode(&self.h, &scenario, &mut by_oracle);

        let auto = self.serial.plan(&self.h, &scenario, Strategy::PpmAuto);
        match (&auto, reference_auto(&self.h, &scenario)) {
            (Ok(plan), Ok(reference)) => assert_eq!(
                (plan.strategy(), plan.mult_xors(), plan.predicted_costs()),
                (reference.0, reference.1, Some(reference.2)),
                "{name} {faulty:?}: PpmAuto against the four concrete plans"
            ),
            (Err(e), Err(reference)) => assert_eq!(*e, reference, "{name} {faulty:?}"),
            (got, reference) => panic!("{name} {faulty:?}: {got:?} against {reference:?}"),
        }
        let plan = match auto {
            Ok(plan) => plan,
            Err(RepairError::Unrecoverable { needed, rank }) => {
                assert!(
                    !decodable,
                    "{name} {faulty:?}: engine gave up on a decodable pattern"
                );
                assert!(rank < needed && needed <= faulty.len(), "{name} {faulty:?}");
                return false;
            }
            Err(e) => panic!("{name} {faulty:?}: unexpected planning error {e}"),
        };
        assert!(
            decodable,
            "{name} {faulty:?}: engine planned an undecodable pattern"
        );
        assert_eq!(by_oracle, self.pristine, "{name} {faulty:?}: oracle");

        let mut whole = self.pristine.clone();
        whole.erase(&scenario);
        let stats = self.serial.decode(&plan, &mut whole).expect("decode");
        assert_eq!(whole, by_oracle, "{name} {faulty:?}: whole-sector decode");
        assert!(stats.matches_prediction(), "{name} {faulty:?}: ledger");

        // The oracle agreed the pattern decodes, so the spanned decode
        // must restore its own pristine stripe.
        let mut spanned = self.spanned.clone();
        spanned.erase(&scenario);
        let stats = self
            .pooled
            .decode(&plan, &mut spanned)
            .expect("spanned decode");
        assert_eq!(spanned, self.spanned, "{name} {faulty:?}: spanned decode");
        assert!(
            stats.matches_prediction(),
            "{name} {faulty:?}: spanned ledger"
        );
        true
    }
}

/// Every pattern of size `1..=fault_tolerance`. Returns `(decodable,
/// total)` pattern counts.
fn exhaustive<C: ErasureCode<u8>>(code: &C) -> (usize, usize) {
    let harness = Harness::new(code);
    let sectors = code.layout().sectors();
    let (mut decodable, mut total) = (0, 0);
    for size in 1..=code.fault_tolerance() {
        for_each_subset(sectors, size, &mut |faulty| {
            total += 1;
            decodable += usize::from(harness.check(faulty));
        });
    }
    // Sanity on the enumeration itself: every single erasure decodes,
    // and the family has patterns on both sides of the boundary or is
    // MDS-like (all decodable).
    assert!(decodable >= sectors, "{}: single erasures", code.name());
    (decodable, total)
}

/// The "any `m` disks plus any `s` sectors" patterns of an `n × r` SD
/// layout.
fn sd_guarantee_set(code: &SdCode<u8>, visit: &mut impl FnMut(&[usize])) {
    let layout = code.layout();
    for_each_subset(layout.n, code.m(), &mut |disks| {
        let lost = FailureScenario::whole_disks(layout, disks);
        let rest: Vec<usize> = (0..layout.sectors())
            .filter(|s| !lost.contains(*s))
            .collect();
        for_each_subset(rest.len(), code.s(), &mut |extra| {
            let mut faulty = lost.faulty().to_vec();
            faulty.extend(extra.iter().map(|&i| rest[i]));
            faulty.sort_unstable();
            visit(&faulty);
        });
    });
}

#[test]
fn sd_every_pattern_up_to_fault_tolerance() {
    // The paper's running example, SD^{1,1}_{4,4}(8|1,2).
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("code");
    let (decodable, total) = exhaustive(&code);
    assert_eq!(total, 16 + 120 + 560 + 1820 + 4368);
    assert!(decodable < total, "SD is not MDS over sectors");

    // SD's defining guarantee: any m disks + any s sectors.
    let harness = Harness::new(&code);
    let mut guaranteed = 0;
    sd_guarantee_set(&code, &mut |faulty| {
        guaranteed += 1;
        assert!(harness.check(faulty), "SD guarantee broken at {faulty:?}");
    });
    assert_eq!(guaranteed, 4 * 12);
}

#[test]
fn pmds_every_pattern_up_to_fault_tolerance() {
    let code = PmdsCode::<u8>::search(4, 3, 1, 1, 2015, 64).expect("code");
    let (decodable, total) = exhaustive(&code);
    assert_eq!(total, 12 + 66 + 220 + 495);
    assert!(decodable < total, "PMDS is not MDS over sectors");

    // PMDS's defining guarantee: any m sectors per row + any s more —
    // which contains SD's "m disks + s sectors" set.
    let harness = Harness::new(&code);
    let layout = code.layout();
    let mut guaranteed = 0;
    for d0 in 0..layout.n {
        for d1 in 0..layout.n {
            for d2 in 0..layout.n {
                let per_row = [
                    layout.sector(0, d0),
                    layout.sector(1, d1),
                    layout.sector(2, d2),
                ];
                for extra in (0..layout.sectors()).filter(|s| !per_row.contains(s)) {
                    let mut faulty = per_row.to_vec();
                    faulty.push(extra);
                    faulty.sort_unstable();
                    guaranteed += 1;
                    assert!(
                        harness.check(&faulty),
                        "PMDS guarantee broken at {faulty:?}"
                    );
                }
            }
        }
    }
    assert_eq!(guaranteed, 4 * 4 * 4 * 9);
    sd_guarantee_set(code.as_sd(), &mut |faulty| {
        assert!(harness.check(faulty), "SD guarantee broken at {faulty:?}");
    });
}

#[test]
fn lrc_every_pattern_up_to_fault_tolerance() {
    // (4,2,1)-LRC: two local groups of two, one global parity.
    let code = LrcCode::<u8>::new(4, 2, 1, 2).expect("code");
    let (decodable, total) = exhaustive(&code);
    assert!(decodable < total, "LRC trades MDS-ness for locality");
}

#[test]
fn rs_every_pattern_up_to_fault_tolerance() {
    let code = RsCode::<u8>::new(4, 2, 2).expect("code");
    let (decodable, total) = exhaustive(&code);
    // RS is MDS per stripe row: a pattern decodes iff no row loses more
    // than m = 2 of its 6 sectors.
    assert_eq!(total, 12 + 66 + 220 + 495);
    assert_eq!(
        decodable,
        12 + 66 + (220 - 2 * 20) + (495 - 2 * (15 + 20 * 6))
    );
}

#[test]
fn evenodd_every_pattern_up_to_fault_tolerance() {
    let (decodable, total) = exhaustive(&EvenOddCode::<u8>::new(3).expect("code"));
    assert!(decodable < total);
    whole_disk_patterns(&EvenOddCode::<u8>::new(5).expect("code"), 2);
}

#[test]
fn rdp_every_pattern_up_to_fault_tolerance() {
    let (decodable, total) = exhaustive(&RdpCode::<u8>::new(3).expect("code"));
    assert!(decodable < total);
    whole_disk_patterns(&RdpCode::<u8>::new(5).expect("code"), 2);
}

#[test]
fn star_every_pattern_up_to_fault_tolerance() {
    let (decodable, total) = exhaustive(&StarCode::<u8>::new(3).expect("code"));
    assert!(decodable < total);
    whole_disk_patterns(&StarCode::<u8>::new(5).expect("code"), 3);
}

/// The array codes' own guarantee at the paper-sized `p = 5` (too large
/// to enumerate sector by sector): every loss of up to `m` whole disks
/// decodes.
fn whole_disk_patterns<C: ErasureCode<u8>>(code: &C, m: usize) {
    let harness = Harness::new(code);
    let layout = code.layout();
    for lost in 1..=m {
        for_each_subset(layout.n, lost, &mut |disks| {
            let scenario = FailureScenario::whole_disks(layout, disks);
            assert!(
                harness.check(scenario.faulty()),
                "{}: disks {disks:?} must decode",
                code.name()
            );
        });
    }
}

#[test]
fn product_every_pattern_up_to_fault_tolerance() {
    // 2×2 data grid plus one parity row and one parity column.
    let code = ProductCode::<u8>::new(2, 1, 2, 1).expect("code");
    let (decodable, total) = exhaustive(&code);
    assert_eq!(total, 9 + 36 + 84 + 126 + 126);
    assert!(decodable < total);
}

#[test]
fn hitchhiker_every_pattern_up_to_fault_tolerance() {
    let code = HitchhikerXor::<u8>::new(4, 2).expect("code");
    let (decodable, total) = exhaustive(&code);
    assert_eq!(total, 12 + 66 + 220 + 495);
    assert!(decodable < total);
}
