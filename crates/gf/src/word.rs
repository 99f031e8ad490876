//! The [`GfWord`] trait: element arithmetic in GF(2^w) for w ∈ {8, 16, 32}.

use crate::tables;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

/// An element of GF(2^w), stored in the unsigned integer of the same width.
///
/// Addition in a characteristic-2 field is XOR (use [`GfWord::gf_add`] or the
/// `^` operator directly); multiplication is defined modulo the field's
/// primitive polynomial [`GfWord::POLY`]. Because the polynomials are
/// primitive, `2` (the polynomial `x`) generates the multiplicative group,
/// which the erasure-code constructions rely on when they take powers
/// `a^j` of coding coefficients.
pub trait GfWord:
    sealed::Sealed
    + Copy
    + Eq
    + Ord
    + std::hash::Hash
    + std::fmt::Debug
    + std::fmt::Display
    + Send
    + Sync
    + 'static
{
    /// Field width in bits (the paper's `w`).
    const WIDTH: u32;
    /// Bytes per word (`WIDTH / 8`).
    const BYTES: usize;
    /// Full primitive polynomial, including the leading `x^w` bit.
    const POLY: u64;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The generator `x` of the multiplicative group.
    const GEN: Self;

    /// Number of elements in the multiplicative group (`2^w - 1`).
    const ORDER: u64;

    /// Builds a word from the low bits of `x`.
    fn from_u64(x: u64) -> Self;
    /// Widens the word to `u64`.
    fn to_u64(self) -> u64;

    /// Field addition (XOR).
    #[inline]
    fn gf_add(self, rhs: Self) -> Self {
        Self::from_u64(self.to_u64() ^ rhs.to_u64())
    }

    /// Field multiplication.
    fn gf_mul(self, rhs: Self) -> Self;

    /// Multiplicative inverse, or `None` for zero.
    fn gf_checked_inv(self) -> Option<Self>;

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[inline]
    #[allow(
        clippy::expect_used,
        reason = "the documented panic for zero; `gf_checked_inv` is the fallible form"
    )]
    fn gf_inv(self) -> Self {
        self.gf_checked_inv()
            .expect("zero has no inverse in GF(2^w)")
    }

    /// Field division.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    fn gf_div(self, rhs: Self) -> Self {
        self.gf_mul(rhs.gf_inv())
    }

    /// Raises the element to the power `e` by square-and-multiply.
    ///
    /// `0^0` is defined as `1`, matching the usual convention for
    /// Vandermonde-style matrix constructions.
    fn gf_pow(self, e: u64) -> Self {
        let mut base = self;
        let mut e = e;
        let mut acc = Self::ONE;
        while e != 0 {
            if e & 1 == 1 {
                acc = acc.gf_mul(base);
            }
            base = base.gf_mul(base);
            e >>= 1;
        }
        acc
    }

    /// `GEN^e`: the e-th power of the generator. Code constructions use
    /// this to derive Vandermonde coefficients; exponents are reduced
    /// modulo the group order so arbitrarily large sector indices are fine.
    #[inline]
    fn gen_pow(e: u64) -> Self {
        Self::GEN.gf_pow(e % Self::ORDER)
    }

    /// Multiplies by `x` (the generator), i.e. one shift-and-reduce step.
    #[inline]
    fn xtimes(self) -> Self {
        let shifted = self.to_u64() << 1;
        let reduced = if shifted >> Self::WIDTH != 0 {
            shifted ^ Self::POLY
        } else {
            shifted
        };
        Self::from_u64(reduced)
    }
}

/// Shift-and-reduce ("schoolbook" carry-less) multiply, used directly for
/// GF(2^32) and as the table-free reference implementation in tests.
pub(crate) fn clmul_reduce(a: u64, b: u64, width: u32, poly: u64) -> u64 {
    debug_assert!(width <= 32);
    let mut acc: u64 = 0;
    let mut a = a;
    let mut i = 0;
    while a != 0 {
        if a & 1 == 1 {
            acc ^= b << i;
        }
        a >>= 1;
        i += 1;
    }
    // Reduce the up-to-(2w-1)-bit product back below 2^w.
    let mut bit = 2 * width as i64 - 2;
    while bit >= width as i64 {
        if acc >> bit & 1 == 1 {
            acc ^= poly << (bit - width as i64);
        }
        bit -= 1;
    }
    acc
}

impl GfWord for u8 {
    const WIDTH: u32 = 8;
    const BYTES: usize = 1;
    // x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the standard GF(2^8) polynomial.
    const POLY: u64 = 0x11D;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const GEN: Self = 2;
    const ORDER: u64 = 255;

    #[inline]
    fn from_u64(x: u64) -> Self {
        x as u8
    }
    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn gf_mul(self, rhs: Self) -> Self {
        if self == 0 || rhs == 0 {
            return 0;
        }
        let t = tables::tables8();
        let idx = t.log[self as usize] as usize + t.log[rhs as usize] as usize;
        t.exp[idx]
    }

    #[inline]
    fn gf_checked_inv(self) -> Option<Self> {
        if self == 0 {
            return None;
        }
        let t = tables::tables8();
        Some(t.exp[255 - t.log[self as usize] as usize])
    }
}

impl GfWord for u16 {
    const WIDTH: u32 = 16;
    const BYTES: usize = 2;
    // x^16 + x^12 + x^3 + x + 1 (0x1100B), as in Jerasure/GF-Complete.
    const POLY: u64 = 0x1100B;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const GEN: Self = 2;
    const ORDER: u64 = 65_535;

    #[inline]
    fn from_u64(x: u64) -> Self {
        x as u16
    }
    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn gf_mul(self, rhs: Self) -> Self {
        if self == 0 || rhs == 0 {
            return 0;
        }
        let t = tables::tables16();
        let idx = t.log[self as usize] as usize + t.log[rhs as usize] as usize;
        t.exp[idx]
    }

    #[inline]
    fn gf_checked_inv(self) -> Option<Self> {
        if self == 0 {
            return None;
        }
        let t = tables::tables16();
        Some(t.exp[65_535 - t.log[self as usize] as usize])
    }
}

impl GfWord for u32 {
    const WIDTH: u32 = 32;
    const BYTES: usize = 4;
    // x^32 + x^22 + x^2 + x + 1 (0x1_0040_0007), as in Jerasure/GF-Complete.
    const POLY: u64 = 0x1_0040_0007;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const GEN: Self = 2;
    const ORDER: u64 = 0xFFFF_FFFF;

    #[inline]
    fn from_u64(x: u64) -> Self {
        x as u32
    }
    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }

    fn gf_mul(self, rhs: Self) -> Self {
        clmul_reduce(self as u64, rhs as u64, 32, Self::POLY) as u32
    }

    fn gf_checked_inv(self) -> Option<Self> {
        if self == 0 {
            return None;
        }
        // a^(2^32 - 2) = a^(-1) by Fermat's little theorem for fields.
        Some(self.gf_pow(Self::ORDER - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_mul<W: GfWord>(a: W, b: W) -> W {
        W::from_u64(clmul_reduce(a.to_u64(), b.to_u64(), W::WIDTH, W::POLY))
    }

    #[test]
    fn gf8_known_products() {
        // Classic GF(2^8)/0x11D values.
        assert_eq!(2u8.gf_mul(2), 4);
        assert_eq!(0x80u8.gf_mul(2), 0x1D); // reduction kicks in
        assert_eq!(0u8.gf_mul(0xFF), 0);
        assert_eq!(1u8.gf_mul(0xAB), 0xAB);
    }

    #[test]
    fn gf8_tables_match_clmul() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(a.gf_mul(b), ref_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gf16_tables_match_clmul_sampled() {
        let mut x: u32 = 0x1234_5678;
        for _ in 0..4096 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let a = (x >> 16) as u16;
            let b = x as u16;
            assert_eq!(a.gf_mul(b), ref_mul(a, b), "a={a} b={b}");
        }
    }

    #[test]
    fn inverses_roundtrip_u8() {
        for a in 1..=255u8 {
            assert_eq!(a.gf_mul(a.gf_inv()), 1);
        }
        assert_eq!(0u8.gf_checked_inv(), None);
    }

    #[test]
    fn inverses_roundtrip_u16_sampled() {
        for a in (1..=65_535u16).step_by(251) {
            assert_eq!(a.gf_mul(a.gf_inv()), 1);
        }
        assert_eq!(0u16.gf_checked_inv(), None);
    }

    #[test]
    fn inverses_roundtrip_u32_sampled() {
        for a in [1u32, 2, 3, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x8000_0000, 12345] {
            assert_eq!(a.gf_mul(a.gf_inv()), 1, "a={a}");
        }
        assert_eq!(0u32.gf_checked_inv(), None);
    }

    #[test]
    fn generator_has_full_order_u8() {
        // x must be primitive: the first 255 powers are all distinct.
        let mut seen = [false; 256];
        let mut v = 1u8;
        for _ in 0..255 {
            assert!(!seen[v as usize], "generator order < 255");
            seen[v as usize] = true;
            v = v.xtimes();
        }
        assert_eq!(v, 1, "x^255 must return to 1");
    }

    #[test]
    fn generator_has_full_order_u16() {
        let mut v = 1u16;
        for i in 1..=65_535u32 {
            v = v.xtimes();
            if v == 1 {
                assert_eq!(i, 65_535, "x has order {i}, not 2^16-1");
            }
        }
        assert_eq!(v, 1);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for w in [3u8, 9, 0x53] {
            let mut acc = 1u8;
            for e in 0..20u64 {
                assert_eq!(w.gf_pow(e), acc);
                acc = acc.gf_mul(w);
            }
        }
        assert_eq!(0u8.gf_pow(0), 1);
        assert_eq!(0u8.gf_pow(5), 0);
    }

    #[test]
    fn gen_pow_reduces_large_exponents() {
        assert_eq!(u8::gen_pow(255), 1);
        assert_eq!(u8::gen_pow(256), 2);
        assert_eq!(u16::gen_pow(65_535), 1);
        assert_eq!(u32::gen_pow(u32::ORDER), 1);
    }

    #[test]
    fn distributivity_sampled_u32() {
        let vals = [0u32, 1, 2, 0x8000_0001, 0x1234_5678, 0xFFFF_FFFF];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    assert_eq!(a.gf_mul(b.gf_add(c)), a.gf_mul(b).gf_add(a.gf_mul(c)));
                }
            }
        }
    }
}
