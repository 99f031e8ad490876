//! Property-based tests of the GF(2^w) field axioms and region-operation
//! invariants, over all three word widths.

use ppm_gf::{xor_region, Backend, GfWord, RegionMul};
use proptest::prelude::*;

fn load_le<W: GfWord>(b: &[u8]) -> W {
    let mut x = 0u64;
    for (i, &v) in b.iter().enumerate() {
        x |= (v as u64) << (8 * i);
    }
    W::from_u64(x)
}

macro_rules! field_axioms {
    ($mod_name:ident, $W:ty) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn mul_commutative(a: $W, b: $W) {
                    prop_assert_eq!(a.gf_mul(b), b.gf_mul(a));
                }

                #[test]
                fn mul_associative(a: $W, b: $W, c: $W) {
                    prop_assert_eq!(a.gf_mul(b).gf_mul(c), a.gf_mul(b.gf_mul(c)));
                }

                #[test]
                fn distributive(a: $W, b: $W, c: $W) {
                    prop_assert_eq!(
                        a.gf_mul(b.gf_add(c)),
                        a.gf_mul(b).gf_add(a.gf_mul(c))
                    );
                }

                #[test]
                fn one_is_identity(a: $W) {
                    prop_assert_eq!(a.gf_mul(<$W as GfWord>::ONE), a);
                }

                #[test]
                fn zero_annihilates(a: $W) {
                    prop_assert_eq!(a.gf_mul(<$W as GfWord>::ZERO), <$W as GfWord>::ZERO);
                }

                #[test]
                fn inverse_cancels(a: $W) {
                    prop_assume!(a != <$W as GfWord>::ZERO);
                    prop_assert_eq!(a.gf_mul(a.gf_inv()), <$W as GfWord>::ONE);
                    prop_assert_eq!(a.gf_div(a), <$W as GfWord>::ONE);
                }

                #[test]
                fn pow_adds_exponents(a: $W, e1 in 0u64..64, e2 in 0u64..64) {
                    prop_assert_eq!(
                        a.gf_pow(e1).gf_mul(a.gf_pow(e2)),
                        a.gf_pow(e1 + e2)
                    );
                }

                #[test]
                fn product_of_nonzero_is_nonzero(a: $W, b: $W) {
                    prop_assume!(a != 0 && b != 0);
                    prop_assert_ne!(a.gf_mul(b), 0);
                }

                #[test]
                fn xtimes_is_mul_by_gen(a: $W) {
                    prop_assert_eq!(a.xtimes(), a.gf_mul(<$W as GfWord>::GEN));
                }
            }
        }
    };
}

field_axioms!(gf8, u8);
field_axioms!(gf16, u16);
field_axioms!(gf32, u32);

macro_rules! region_props {
    ($mod_name:ident, $W:ty) => {
        mod $mod_name {
            use super::*;

            const B: usize = <$W as GfWord>::BYTES;

            proptest! {
                /// The region op must equal word-by-word scalar multiplication.
                #[test]
                fn region_matches_wordwise(
                    a: $W,
                    words in proptest::collection::vec(any::<u8>(), 0..40),
                ) {
                    let n = (words.len() / B) * B;
                    let src = &words[..n];
                    let mut dst = vec![0xA5u8; n];
                    let mut expect = dst.clone();
                    for (s, d) in src.chunks_exact(B).zip(expect.chunks_exact_mut(B)) {
                        let p = a.gf_mul(load_le::<$W>(s)).gf_add(load_le::<$W>(d));
                        let v = p.to_u64();
                        for (i, out) in d.iter_mut().enumerate() {
                            *out = (v >> (8 * i)) as u8;
                        }
                    }
                    RegionMul::<$W>::new(a, Backend::Scalar).mul_xor(src, &mut dst);
                    prop_assert_eq!(dst, expect);
                }

                /// Applying a then its inverse must restore the region.
                #[test]
                fn inverse_region_roundtrips(
                    a: $W,
                    words in proptest::collection::vec(any::<u8>(), 0..40),
                ) {
                    prop_assume!(a != 0);
                    let n = (words.len() / B) * B;
                    let src = words[..n].to_vec();
                    let mut mid = vec![0u8; n];
                    RegionMul::<$W>::new(a, Backend::Scalar).mul_copy(&src, &mut mid);
                    let mut back = vec![0u8; n];
                    RegionMul::<$W>::new(a.gf_inv(), Backend::Scalar).mul_copy(&mid, &mut back);
                    prop_assert_eq!(back, src);
                }

                /// mult_XORs is additive in the destination: applying twice
                /// cancels (characteristic 2).
                #[test]
                fn double_apply_cancels(
                    a: $W,
                    words in proptest::collection::vec(any::<u8>(), 0..40),
                ) {
                    let n = (words.len() / B) * B;
                    let src = &words[..n];
                    let orig = vec![0x3Cu8; n];
                    let mut dst = orig.clone();
                    let rm = RegionMul::<$W>::new(a, Backend::Scalar);
                    rm.mul_xor(src, &mut dst);
                    rm.mul_xor(src, &mut dst);
                    prop_assert_eq!(dst, orig);
                }
            }
        }
    };
}

region_props!(region8, u8);
region_props!(region16, u16);
region_props!(region32, u32);

proptest! {
    /// Every available backend must agree with the scalar one on GF(2^8).
    #[test]
    fn backends_agree(a: u8, data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut scalar = vec![0u8; data.len()];
        RegionMul::<u8>::new(a, Backend::Scalar).mul_xor(&data, &mut scalar);
        for backend in [Backend::Ssse3, Backend::Avx2, Backend::Gfni, Backend::Auto] {
            if !backend.is_available() {
                continue;
            }
            let mut out = vec![0u8; data.len()];
            RegionMul::<u8>::new(a, backend).mul_xor(&data, &mut out);
            prop_assert_eq!(&out, &scalar, "backend {:?}", backend);
        }
    }

    /// The GF(2^16) SIMD kernel must agree with scalar on arbitrary data.
    #[test]
    fn backends_agree_w16(a: u16, words in proptest::collection::vec(any::<u8>(), 0..200)) {
        let n = words.len() / 2 * 2;
        let data = &words[..n];
        let mut scalar = vec![0u8; n];
        RegionMul::<u16>::new(a, Backend::Scalar).mul_xor(data, &mut scalar);
        for backend in [Backend::Ssse3, Backend::Avx2, Backend::Gfni, Backend::Auto] {
            if !backend.is_available() {
                continue;
            }
            let mut out = vec![0u8; n];
            RegionMul::<u16>::new(a, backend).mul_xor(data, &mut out);
            prop_assert_eq!(&out, &scalar, "backend {:?}", backend);
        }
    }

    #[test]
    fn xor_region_is_self_inverse(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let orig: Vec<u8> = data.iter().map(|b| b.wrapping_add(7)).collect();
        let mut dst = orig.clone();
        xor_region(&data, &mut dst);
        xor_region(&data, &mut dst);
        prop_assert_eq!(dst, orig);
    }
}

/// Exhaustive GF(2^8): every constant's region op matches direct word
/// multiplication on a probe vector covering all byte values.
#[test]
fn exhaustive_w8_constants() {
    let src: Vec<u8> = (0..=255u8).collect();
    for a in 0..=255u8 {
        let rm = RegionMul::<u8>::new(a, Backend::Scalar);
        let mut out = vec![0u8; 256];
        rm.mul_copy(&src, &mut out);
        for (b, &got) in src.iter().zip(&out) {
            assert_eq!(got, a.gf_mul(*b), "a={a} b={b}");
        }
        for backend in [Backend::Ssse3, Backend::Avx2, Backend::Gfni] {
            if backend.is_available() {
                let mut vec_out = vec![0u8; 256];
                RegionMul::<u8>::new(a, backend).mul_copy(&src, &mut vec_out);
                assert_eq!(vec_out, out, "{backend:?} a={a}");
            }
        }
    }
}
