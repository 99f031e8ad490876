//! The independent oracle every differential suite is anchored on: a
//! word-level decoder and verifier that use nothing but `Matrix`
//! arithmetic — no plans, no tapes, no region kernels.
//!
//! A stripe with `B`-byte sectors over GF(2^w) is exactly `B / (w/8)`
//! independent copies of the word-level code: byte-column `t` of every
//! sector forms a codeword vector. The oracle extracts each word column,
//! computes `BF = F⁻¹ · (S · BS)` with plain matrix–vector products, and
//! writes the words back. Any disagreement with the engine exposes a bug
//! in the table-driven kernels, the plan or tape compiler, or the
//! executor.
//!
//! It lives under `tests/` on purpose: the engine has exactly one
//! execution path, and the thing it is checked against must not share
//! code with it.

// Each integration-test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use ppm::{FailureScenario, GfWord, Matrix, Stripe};

fn load_word<W: GfWord>(sector: &[u8], t: usize) -> W {
    let mut x = 0u64;
    for i in 0..W::BYTES {
        x |= (sector[t * W::BYTES + i] as u64) << (8 * i);
    }
    W::from_u64(x)
}

fn store_word<W: GfWord>(sector: &mut [u8], t: usize, v: W) {
    let x = v.to_u64();
    for i in 0..W::BYTES {
        sector[t * W::BYTES + i] = (x >> (8 * i)) as u8;
    }
}

/// Recovers the faulty sectors of `stripe` word by word with pure matrix
/// arithmetic. Returns `false` — leaving the stripe untouched — when the
/// pattern is not decodable (the faulty columns of `h` are rank
/// deficient).
pub fn reference_decode<W: GfWord>(
    h: &Matrix<W>,
    scenario: &FailureScenario,
    stripe: &mut Stripe,
) -> bool {
    let total = stripe.layout().sectors();
    let faulty = scenario.faulty();
    let surviving = scenario.surviving(total);
    let f_all = h.select_columns(faulty);
    let rows = f_all.select_independent_rows();
    if rows.len() != faulty.len() {
        return false;
    }
    let f_inv = f_all.select_rows(&rows).inverse().unwrap();
    let s = h.select_rows(&rows).select_columns(&surviving);

    let words = stripe.sector_bytes() / W::BYTES;
    for t in 0..words {
        let bs: Vec<W> = surviving
            .iter()
            .map(|&l| load_word(stripe.sector(l), t))
            .collect();
        let bf = f_inv.mul_vec(&s.mul_vec(&bs));
        for (&sector, &v) in faulty.iter().zip(&bf) {
            store_word(stripe.sector_mut(sector), t, v);
        }
    }
    true
}

/// The rows among `rows` of `h` whose parity-check equation does not
/// hold on `stripe`, evaluated word by word.
pub fn reference_violated_rows<W: GfWord>(
    h: &Matrix<W>,
    rows: &[usize],
    stripe: &Stripe,
) -> Vec<usize> {
    let words = stripe.sector_bytes() / W::BYTES;
    let checks = h.select_rows(rows);
    let mut violated = vec![false; rows.len()];
    for t in 0..words {
        let b: Vec<W> = (0..h.cols())
            .map(|l| load_word(stripe.sector(l), t))
            .collect();
        for (flag, v) in violated.iter_mut().zip(checks.mul_vec(&b)) {
            *flag |= v != W::ZERO;
        }
    }
    rows.iter()
        .zip(violated)
        .filter_map(|(&row, bad)| bad.then_some(row))
        .collect()
}

/// The workload seed of a differential suite: `PPM_SEED` (default 2015),
/// so CI can run a seed matrix without recompiling.
pub fn seed_from_env() -> u64 {
    std::env::var("PPM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2015)
}
