//! Workload generation: stripes filled the way the experiments need them.

use crate::Stripe;
use ppm_codes::{ErasureCode, StripeLayout};
use ppm_gf::GfWord;
use rand::prelude::*;

/// A stripe with *every* sector filled from `rng` (parity included, so the
/// parity is inconsistent until an encoder overwrites it). Useful for
/// region-level benchmarks that don't care about code semantics.
pub fn random_stripe<R: Rng + ?Sized>(
    layout: StripeLayout,
    sector_bytes: usize,
    rng: &mut R,
) -> Stripe {
    let mut s = Stripe::zeroed(layout, sector_bytes);
    for l in 0..layout.sectors() {
        rng.fill(s.sector_mut(l));
    }
    s
}

/// A stripe whose data sectors are random and whose parity sectors are
/// zero — the input to an encoder.
pub fn random_data_stripe<W, C, R>(code: &C, sector_bytes: usize, rng: &mut R) -> Stripe
where
    W: GfWord,
    C: ErasureCode<W>,
    R: Rng + ?Sized,
{
    let mut s = Stripe::zeroed(code.layout(), sector_bytes);
    fill_random_data(code, &mut s, rng);
    s
}

/// Overwrites the data sectors of `stripe` from `rng`, leaving its
/// parity sectors alone — [`random_data_stripe`] into a buffer the
/// caller already holds.
pub fn fill_random_data<W, C, R>(code: &C, stripe: &mut Stripe, rng: &mut R)
where
    W: GfWord,
    C: ErasureCode<W>,
    R: Rng + ?Sized,
{
    for l in code.data_sectors() {
        rng.fill(stripe.sector_mut(l));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_codes::SdCode;
    use rand::rngs::StdRng;

    #[test]
    fn random_stripe_fills_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_stripe(StripeLayout::new(4, 4), 64, &mut rng);
        // Overwhelmingly unlikely that any 64-byte sector is all zero.
        for l in 0..16 {
            assert!(s.sector(l).iter().any(|&b| b != 0), "sector {l} all zero");
        }
    }

    #[test]
    fn random_data_stripe_leaves_parity_zero() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let s = random_data_stripe(&code, 64, &mut rng);
        for l in code.parity_sectors() {
            assert!(
                s.sector(l).iter().all(|&b| b == 0),
                "parity sector {l} not zero"
            );
        }
        for l in code.data_sectors() {
            assert!(
                s.sector(l).iter().any(|&b| b != 0),
                "data sector {l} all zero"
            );
        }
    }

    #[test]
    fn seeded_workloads_are_reproducible() {
        let layout = StripeLayout::new(3, 3);
        let a = random_stripe(layout, 32, &mut StdRng::seed_from_u64(7));
        let b = random_stripe(layout, 32, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
