//! Exhaustive ground truth where the space is small enough to enumerate:
//! for one small geometry of each of the nine code families, *every*
//! erasure pattern of size `1..=fault_tolerance` either decodes
//! bit-identically to the word-level oracle of `tests/common` or is
//! reported `Unrecoverable` — and the engine and the oracle agree on
//! which — through both the whole-sector path (serial decoder) and the
//! span path (a T = 2 decoder on sectors long enough to be cut into 4 KiB
//! spans), with executed == predicted on each. Both decodes run the
//! tape's bundles — through the multi-destination kernel on a GFNI host
//! — and the plan's wire tape, compiled with scalar kernels, runs the
//! same bundles run by run to the same bytes. On every pattern the `PpmAuto` plan also picks exactly what
//! the long way picks: all four concrete plans built, the first strict
//! minimum kept. And on every decodable pattern the plan's wire form
//! passes the tape validator and compiles to a tape with the in-process
//! tape's `mult_xors`, faulty list and phase-B split. On every
//! decodable pattern the decoded stripe verifies clean against the
//! plan's surplus rows, with executed == predicted verify `mult_XORs`,
//! the wire tape's verify gives the same report, and a one-byte flip in
//! a surviving sector a surplus row reads is reported on that row. On
//! every decodable pattern the cluster split repairs too: a survivor runs
//! the wire tape's phase A and `H_rest`'s `T` section, the coordinator
//! finishes `F⁻¹ · T` from the shipped blocks on its own tape, and the
//! installed sectors are the oracle's.
//! Every single data-sector write and every two-sector batch through
//! `RepairService::apply_update` equals writing the data and
//! re-encoding, with executed == predicted.
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
    ExecStats, Executor, FailureScenario, HitchhikerXor, LrcCode, PlanTape, PmdsCode, ProductCode,
    RdpCode, RepairError, RepairService, RsCode, SdCode, StarCode, Strategy, Stripe, WirePlan,
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
    wire: Executor,
    /// Patterns whose verify leg flipped a byte (see `check_verify`).
    flips: std::cell::Cell<usize>,
    /// Patterns whose `H_rest` split across the wire (see `check_split`).
    splits: std::cell::Cell<usize>,
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
            wire: Executor::new(DecoderConfig {
                threads: 1,
                backend: Backend::Scalar,
            }),
            flips: std::cell::Cell::new(0),
            splits: std::cell::Cell::new(0),
        }
    }

    /// The verify leg on a correctly decoded stripe: clean with the exact
    /// ledger, the same report through the wire tape, and a one-byte flip
    /// in a surviving sector that a surplus row reads violates that row.
    fn check_verify(&self, plan: &DecodePlan<u8>, remote: &PlanTape<u8>, decoded: &Stripe) {
        let name = self.code.name();
        let faulty = plan.faulty();
        let report = self.serial.verify(plan, decoded).expect("verify");
        assert!(report.clean(), "{name} {faulty:?}: {report:?}");
        assert_eq!(report.rows_checked, plan.verify_rows(), "{name} {faulty:?}");
        assert_eq!(
            report.stats.mult_xors,
            plan.verify_mult_xors() as u64,
            "{name} {faulty:?}: verify ledger"
        );
        let outcome = |r: &ppm::VerifyReport| (r.rows_checked, r.violated_rows.clone());
        let by_wire = self.wire.verify_wire(remote, decoded).expect("wire verify");
        assert_eq!(
            outcome(&by_wire),
            outcome(&report),
            "{name} {faulty:?}: wire verify"
        );
        assert_eq!(by_wire.stats.mult_xors, report.stats.mult_xors);

        let read = plan.surplus_row_indices().into_iter().find_map(|row| {
            (0..plan.total_sectors())
                .find(|&s| faulty.binary_search(&s).is_err() && self.h.get(row, s) != 0)
                .map(|s| (row, s))
        });
        if let Some((row, sector)) = read {
            let mut flipped = decoded.clone();
            let byte = sector % flipped.sector_bytes();
            flipped.sector_mut(sector)[byte] ^= 0x5A;
            let report = self.serial.verify(plan, &flipped).expect("verify");
            assert!(
                report.violated_rows.contains(&row),
                "{name} {faulty:?}: flip in sector {sector} missed by row {row}: {report:?}"
            );
            self.flips.set(self.flips.get() + 1);
        }
    }

    /// The cluster split: a survivor runs the wire tape's phase A and,
    /// when `H_rest` splits, only its `T` section; the coordinator
    /// finishes `F⁻¹ · T` on its in-process tape from the shipped blocks
    /// alone. The installed sectors must be the oracle's.
    fn check_split(
        &self,
        local: &PlanTape<u8>,
        remote: &PlanTape<u8>,
        scenario: &FailureScenario,
        by_oracle: &Stripe,
    ) {
        let name = self.code.name();
        let faulty = scenario.faulty();
        let mut survivor = self.pristine.clone();
        survivor.erase(scenario);
        let partials = self
            .wire
            .wire_partials(remote, &mut survivor)
            .expect("wire partials");
        assert_eq!(
            (partials.rest_pending, partials.rest_blocks.len()),
            (local.rest_splittable(), local.rest_scratch_slots()),
            "{name} {faulty:?}: split shape"
        );
        if partials.rest_pending {
            let recovered = self
                .wire
                .finish_rest(local, &partials.rest_blocks, survivor.sector_bytes())
                .expect("finish rest");
            for (sector, bytes) in &recovered {
                survivor.write_sector(*sector, bytes);
            }
            self.splits.set(self.splits.get() + 1);
        }
        assert_eq!(survivor, *by_oracle, "{name} {faulty:?}: split repair");
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

        // The tape validator that guards wire input accepts the tape the
        // compiler emitted: the plan's wire form compiles back to a tape
        // of the same shape.
        let local = plan.ensure_tape();
        let remote = WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap_or_else(|e| panic!("{name} {faulty:?}: wire plan rejected: {e}"));
        assert_eq!(
            (
                remote.mult_xors(),
                remote.faulty(),
                remote.rest_splittable()
            ),
            (local.mult_xors(), local.faulty(), local.rest_splittable()),
            "{name} {faulty:?}: wire tape against in-process tape"
        );

        let mut whole = self.pristine.clone();
        whole.erase(&scenario);
        let stats = self.serial.decode(&plan, &mut whole).expect("decode");
        assert_eq!(whole, by_oracle, "{name} {faulty:?}: whole-sector decode");
        assert!(stats.matches_prediction(), "{name} {faulty:?}: ledger");
        self.check_verify(&plan, &remote, &whole);

        // The same bundles with scalar kernels run run by run: the wire
        // tape must give the bytes the multi-destination passes gave.
        let mut by_wire = self.pristine.clone();
        by_wire.erase(&scenario);
        let stats = self
            .wire
            .execute_wire(&remote, &mut by_wire)
            .expect("wire decode");
        assert_eq!(by_wire, by_oracle, "{name} {faulty:?}: per-run bundles");
        assert!(stats.matches_prediction(), "{name} {faulty:?}: wire ledger");
        self.check_split(local, &remote, &scenario, &by_oracle);

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

/// One batch of small writes through `RepairService::apply_update`
/// must equal writing the data and re-encoding the whole stripe, with
/// executed == predicted `mult_XORs`. Returns the session's stats.
fn check_update<C: ErasureCode<u8>>(
    service: &RepairService<u8, &C>,
    pristine: &Stripe,
    writes: &[(usize, &[u8])],
) -> ExecStats {
    let name = service.code().name();
    let sectors: Vec<usize> = writes.iter().map(|&(d, _)| d).collect();
    let mut patched = pristine.clone();
    let stats = service
        .apply_update(&mut patched, writes)
        .unwrap_or_else(|e| panic!("{name} {sectors:?}: update refused: {e}"));
    let mut reference = pristine.clone();
    for &(d, data) in writes {
        reference.write_sector(d, data);
    }
    service.encode(&mut reference).expect("re-encode");
    assert_eq!(
        patched, reference,
        "{name} {sectors:?}: update == re-encode"
    );
    assert!(stats.matches_prediction(), "{name} {sectors:?}: ledger");
    stats
}

/// Every single data-sector write and every two-sector batch.
fn every_small_write<C: ErasureCode<u8>>(code: &C, pristine: &Stripe) {
    let service = RepairService::new(code, DecoderConfig::default());
    let data = code.data_sectors();
    let payload: Vec<Vec<u8>> = (0..2u8)
        .map(|i| vec![0xA5 ^ i.wrapping_mul(0x3C); pristine.sector_bytes()])
        .collect();
    for size in 1..=2 {
        for_each_subset(data.len(), size, &mut |picked| {
            let writes: Vec<(usize, &[u8])> = picked
                .iter()
                .zip(&payload)
                .map(|(&i, p)| (data[i], p.as_slice()))
                .collect();
            check_update(&service, pristine, &writes);
        });
    }
}

/// Every pattern of size `1..=fault_tolerance`, and every one- and
/// two-sector small write. Returns `(decodable, total)` pattern counts.
fn exhaustive<C: ErasureCode<u8>>(code: &C) -> (usize, usize) {
    let harness = Harness::new(code);
    every_small_write(code, &harness.pristine);
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
    // MDS-like (all decodable). Single erasures leave surplus rows, so
    // the verify leg flipped bytes.
    assert!(decodable >= sectors, "{}: single erasures", code.name());
    assert!(
        harness.flips.get() >= sectors,
        "{}: verify flips",
        code.name()
    );
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
    assert!(harness.splits.get() > 0, "no SD pattern split H_rest");
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

/// A batch writing every data sector of SD(8,4,2,2), where parities
/// depend on more data sectors than the dot kernel takes per pass, so
/// those parities' fused runs accumulate over several passes.
#[test]
fn whole_stripe_update_batch_runs_multi_pass_parities() {
    let code = SdCode::<u8>::new(8, 4, 2, 2, vec![1, 2, 4, 8]).expect("code");
    let service = RepairService::new(&code, DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(common::seed_from_env());
    let mut pristine = random_data_stripe(&code, SECTOR_BYTES, &mut rng);
    service.encode(&mut pristine).expect("encode");

    let plan = service.update_plan().expect("update plan");
    let data = code.data_sectors();
    let mut terms_per_parity = vec![0usize; code.layout().sectors()];
    for &d in &data {
        for (p, _) in plan.parity_touched(d).expect("data sector") {
            terms_per_parity[p] += 1;
        }
    }
    let widest = terms_per_parity.iter().copied().max().unwrap_or(0);
    assert_eq!(widest, data.len(), "a parity depends on every data sector");
    assert!(widest > 16, "more terms than one dot-kernel pass: {widest}");

    let payloads: Vec<Vec<u8>> = (0..data.len())
        .map(|i| vec![(i as u8).wrapping_mul(29) ^ 0x5A; SECTOR_BYTES])
        .collect();
    let writes: Vec<(usize, &[u8])> = data
        .iter()
        .zip(&payloads)
        .map(|(&d, p)| (d, p.as_slice()))
        .collect();
    let stats = check_update(&service, &pristine, &writes);
    let touched = terms_per_parity.iter().filter(|&&t| t > 0).count();
    assert_eq!(stats.phase_a.len(), 1);
    assert_eq!(
        stats.phase_a[0].outputs, touched,
        "each parity written once"
    );
    assert_eq!(
        stats.predicted_mult_xors,
        terms_per_parity.iter().sum::<usize>()
    );
}
