//! Instance preparation and timing loops shared by the figure binaries.

use ppm_codes::{
    ErasureCode, FailureScenario, HitchhikerXor, LrcCode, ProductCode, RsCode, SdCode,
};
use ppm_core::{encode, DecodePlan, Decoder, DecoderConfig, ExecStats, Strategy};
use ppm_gf::{Backend, GfWord};
use ppm_matrix::Matrix;
use ppm_stripe::{random_data_stripe, Stripe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A ready-to-measure experiment: encoded stripe + failure scenario.
pub struct Prepared<W: GfWord> {
    /// Instance name for table labels.
    pub name: String,
    /// The parity-check matrix.
    pub h: Matrix<W>,
    /// The injected failure.
    pub scenario: FailureScenario,
    /// The encoded, intact stripe (ground truth).
    pub pristine: Stripe,
}

fn sector_bytes(stripe_bytes: usize, sectors: usize) -> usize {
    (stripe_bytes / sectors / 8 * 8).max(8)
}

/// Builds an SD instance over GF(2^8) — see [`prepare_sd_w`] for other
/// word widths.
pub fn prepare_sd(
    n: usize,
    r: usize,
    m: usize,
    s: usize,
    z: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    prepare_sd_w::<u8>(n, r, m, s, z, stripe_bytes, seed)
}

/// Builds an SD instance (coefficient search), encodes a stripe of
/// roughly `stripe_bytes`, and draws a decodable worst-case scenario
/// (`m` disks + `s` sectors on `z` rows). Returns `None` if no decodable
/// instance/scenario is found within the search budget.
pub fn prepare_sd_w<W: GfWord>(
    n: usize,
    r: usize,
    m: usize,
    s: usize,
    z: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<W>> {
    let code = SdCode::<W>::with_generator_coeffs(n, r, m, s)
        .or_else(|_| SdCode::<W>::search(n, r, m, s, seed, 2))
        .ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = if s == 0 {
        FailureScenario::sd_worst_case(code.layout(), m, 0, 0, &mut rng)
    } else {
        code.decodable_worst_case(z, &mut rng, 300)?
    };
    let h = code.parity_check_matrix();
    if h.select_columns(scenario.faulty()).rank() < scenario.len() {
        return None;
    }
    let mut pristine = random_data_stripe(&code, sector_bytes(stripe_bytes, n * r), &mut rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(&code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Builds a `(k,l,g)`-LRC with `r` rows, encodes, and injects the
/// maximum-tolerable spread outage (`l + g` disks: one per local group
/// plus the global parities — see [`LrcCode::spread_disk_failures`]).
pub fn prepare_lrc(
    k: usize,
    l: usize,
    g: usize,
    r: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    let code = LrcCode::<u8>::new(k, l, g, r).ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = code.spread_disk_failures(&mut rng);
    if code
        .parity_check_matrix()
        .select_columns(scenario.faulty())
        .rank()
        < scenario.len()
    {
        return None;
    }
    let h = code.parity_check_matrix();
    let sectors = code.layout().sectors();
    let mut pristine = random_data_stripe(&code, sector_bytes(stripe_bytes, sectors), &mut rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(&code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Builds an RS baseline (`k` data + `m` parity strips) and an `m`-disk
/// failure, generic over the word width (the paper overlays RS at
/// w = 8, 16, 32).
pub fn prepare_rs<W: GfWord>(
    k: usize,
    m: usize,
    r: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<W>> {
    let code = RsCode::<W>::new(k, m, r).ok()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = code.random_disk_failures(m, &mut rng);
    let h = code.parity_check_matrix();
    let sectors = code.layout().sectors();
    let mut pristine = random_data_stripe(&code, sector_bytes(stripe_bytes, sectors), &mut rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(&code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Builds a product code (`k1 × k2` data grid, `m1` column parities,
/// `m2` row parities) and injects a correlated failure: a rack loss
/// (`group` of `groups` contiguous disk groups) when `groups > 0`, or
/// a row burst across `m1` disks otherwise.
pub fn prepare_product(
    k1: usize,
    m1: usize,
    k2: usize,
    m2: usize,
    groups: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    let code = ProductCode::<u8>::new(k1, m1, k2, m2).ok()?;
    let layout = code.layout();
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = if groups > 0 {
        FailureScenario::try_disk_group(layout, (seed as usize) % groups, groups).ok()?
    } else {
        FailureScenario::random_row_burst(layout, m1, &mut rng).ok()?
    };
    let h = code.parity_check_matrix();
    if h.select_columns(scenario.faulty()).rank() < scenario.len() {
        return None;
    }
    let sectors = layout.sectors();
    let mut pristine = random_data_stripe(&code, sector_bytes(stripe_bytes, sectors), &mut rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(&code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Builds a Hitchhiker-XOR instance (`k` data + `m` parity disks, two
/// coupled sub-stripes) and an `m`-whole-disk failure — the family's
/// worst tolerable outage.
pub fn prepare_hitchhiker(
    k: usize,
    m: usize,
    stripe_bytes: usize,
    seed: u64,
) -> Option<Prepared<u8>> {
    let code = HitchhikerXor::<u8>::new(k, m).ok()?;
    let layout = code.layout();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut disks: Vec<usize> = (0..layout.n).collect();
    rand::seq::SliceRandom::shuffle(disks.as_mut_slice(), &mut rng);
    disks.truncate(m);
    disks.sort_unstable();
    let scenario = FailureScenario::whole_disks(layout, &disks);
    let h = code.parity_check_matrix();
    if h.select_columns(scenario.faulty()).rank() < scenario.len() {
        return None;
    }
    let sectors = layout.sectors();
    let mut pristine = random_data_stripe(&code, sector_bytes(stripe_bytes, sectors), &mut rng);
    let enc = Decoder::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(&code, &enc, &mut pristine).ok()?;
    Some(Prepared {
        name: code.name(),
        h,
        scenario,
        pristine,
    })
}

/// Times decoding `prep` with the given strategy and thread budget:
/// best-of-`reps` wall-clock seconds, plus the plan (for cost/parallelism
/// introspection). Panics if recovery is not bit-exact.
pub fn time_plan<W: GfWord>(
    prep: &Prepared<W>,
    strategy: Strategy,
    threads: usize,
    reps: usize,
) -> (f64, DecodePlan<W>) {
    let decoder = Decoder::new(DecoderConfig {
        threads,
        backend: Backend::Auto,
    });
    let plan = decoder
        .plan(&prep.h, &prep.scenario, strategy)
        .expect("plan");
    let mut scratch = prep.pristine.clone();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        scratch.erase(&prep.scenario);
        let t = Instant::now();
        decoder.decode(&plan, &mut scratch).expect("decode");
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(
        scratch == prep.pristine,
        "{}: recovery not bit-exact",
        prep.name
    );
    (best, plan)
}

/// Decodes `prep` once with runtime telemetry and verifies the §III-B
/// ledger: the executed `mult_XORs` counted by the region kernels must
/// equal the plan's predicted cost, and recovery must be bit-exact.
/// Returns the stats and the plan for table rendering.
pub fn ledger_plan<W: GfWord>(
    prep: &Prepared<W>,
    strategy: Strategy,
    threads: usize,
) -> (ExecStats, DecodePlan<W>) {
    let decoder = Decoder::new(DecoderConfig {
        threads,
        backend: Backend::Auto,
    });
    let plan = decoder
        .plan(&prep.h, &prep.scenario, strategy)
        .expect("plan");
    let mut scratch = prep.pristine.clone();
    scratch.erase(&prep.scenario);
    let stats = decoder.decode(&plan, &mut scratch).expect("decode");
    assert!(
        scratch == prep.pristine,
        "{}: recovery not bit-exact",
        prep.name
    );
    assert!(
        stats.matches_prediction(),
        "{}: executed {} mult_XORs, planner predicted {}",
        prep.name,
        stats.executed_mult_xors(),
        stats.predicted_mult_xors
    );
    (stats, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_matches_on_sd() {
        let prep = prepare_sd(6, 4, 2, 1, 1, 64 * 24, 3).expect("prep");
        let (stats, plan) = ledger_plan(&prep, Strategy::PpmAuto, 2);
        assert_eq!(stats.executed_mult_xors(), plan.mult_xors() as u64);
        assert!(stats.predicted_costs.is_some());
    }

    #[test]
    fn prepare_and_time_sd() {
        let prep = prepare_sd(6, 4, 1, 1, 1, 64 * 24, 3).expect("prep");
        let (secs, plan) = time_plan(&prep, Strategy::PpmAuto, 2, 2);
        assert!(secs > 0.0);
        assert!(plan.mult_xors() > 0);
        assert_eq!(plan.parallelism(), 3); // r - z
    }

    #[test]
    fn prepare_lrc_and_rs() {
        let lrc = prepare_lrc(4, 2, 2, 2, 4096, 5).expect("lrc");
        let (secs, _) = time_plan(&lrc, Strategy::TraditionalNormal, 1, 1);
        assert!(secs > 0.0);
        let rs = prepare_rs::<u8>(4, 2, 2, 4096, 5).expect("rs");
        let (secs, _) = time_plan(&rs, Strategy::TraditionalMatrixFirst, 1, 1);
        assert!(secs > 0.0);
    }

    #[test]
    fn prepare_product_and_hitchhiker() {
        let rack = prepare_product(4, 2, 3, 2, 3, 4096, 5).expect("product rack");
        let (stats, _) = ledger_plan(&rack, Strategy::PpmAuto, 2);
        assert!(stats.matches_prediction());
        let burst = prepare_product(4, 2, 3, 2, 0, 4096, 5).expect("product burst");
        assert_eq!(burst.scenario.len(), 2); // width m1
        let hh = prepare_hitchhiker(5, 3, 4096, 5).expect("hitchhiker");
        assert_eq!(hh.scenario.len(), 6); // m disks x 2 rows
        let (secs, _) = time_plan(&hh, Strategy::PpmAuto, 1, 1);
        assert!(secs > 0.0);
    }

    #[test]
    fn sector_bytes_floors_and_aligns() {
        assert_eq!(sector_bytes(1 << 20, 256), 4096);
        assert_eq!(sector_bytes(100, 256), 8);
        assert_eq!(sector_bytes(1000, 3), 328);
    }
}
