//! Galois-field arithmetic for the PPM erasure-coding library.
//!
//! All erasure codes in this workspace (RS, SD, PMDS, LRC) perform linear
//! algebra over the finite fields GF(2^w) for w ∈ {8, 16, 32}, matching the
//! word sizes evaluated in the PPM paper (Li et al., ICPP 2015). This crate
//! provides:
//!
//! * **Word arithmetic** — [`GfWord`] is implemented for [`u8`], [`u16`] and
//!   [`u32`]; addition is XOR, multiplication uses log/exp tables (w = 8, 16)
//!   or a shift-and-reduce carry-less multiply (w = 32). All three fields use
//!   the standard primitive polynomials (the same ones used by Jerasure and
//!   GF-Complete), so `x = 2` is a generator in each.
//! * **Region operations** — the `mult_XORs(d0, d1, a)` primitive the paper
//!   counts its computational cost in: multiply a region of bytes by the
//!   w-bit constant `a` and XOR the product into a same-sized target region.
//!   [`RegionMul`] precomputes per-constant product tables (the 32 nibble
//!   products at w = 8, one 256-entry table per byte of the word at w = 16
//!   and 32) so the per-byte work is one or two lookups, and SIMD
//!   paths (SSSE3/AVX2 nibble shuffles, the "screaming fast" technique of
//!   Plank et al., FAST'13) accelerate GF(2^8) and GF(2^16) when available.
//!   On CPUs with GFNI, GF(2^8) multiplies 32 bytes per affine instruction
//!   against an 8×8 bit matrix of the constant, and a fused run of terms
//!   into one destination is summed in registers: each source is read
//!   once and the destination written once (the isa-l dot-product shape).
//!
//! # Example
//!
//! ```
//! use ppm_gf::{GfWord, RegionMul, Backend};
//!
//! // Word arithmetic over GF(2^8).
//! let a: u8 = 0x53;
//! let b: u8 = 0xCA;
//! let p = a.gf_mul(b);
//! assert_eq!(p.gf_mul(b.gf_inv()), a);
//!
//! // Region arithmetic: dst ^= 0x1D * src, byte-wise over GF(2^8).
//! let src = vec![7u8; 64];
//! let mut dst = vec![0u8; 64];
//! let rm = RegionMul::<u8>::new(0x1D, Backend::Auto);
//! rm.mul_xor(&src, &mut dst);
//! assert_eq!(dst[0], 0x1Du8.gf_mul(7));
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod fault;
mod region;
mod simd;
mod stats;
mod tables;
mod word;

pub use fault::{force_simd_miscompute, kernel_fallbacks, simd_miscompute_forced};
pub use region::{
    mul_copy_fused, mul_copy_fused_with, mul_xor_fused, mul_xor_fused_with, xor_region,
    xor_region_with, MultiDot, RegionMul,
};
pub use stats::RegionStats;
pub use word::GfWord;

/// Selects the implementation used by region operations.
///
/// The paper's experiments "employ Intel's SIMD instruction to accelerate
/// the encoding/decoding performance" \[23\]; `Auto` mirrors that setup by
/// using the best vector unit the CPU reports at runtime, while `Scalar`
/// forces the portable table-lookup path (useful for ablations and for
/// verifying the SIMD kernels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Portable split-table lookups; works everywhere.
    Scalar,
    /// Pick the fastest available backend at runtime (GFNI, then AVX2,
    /// then SSSE3, then scalar). The choice is made when a multiplier is
    /// constructed and is free after the first feature probe.
    #[default]
    Auto,
    /// Force the 128-bit vector kernels: SSSE3 nibble shuffles for
    /// GF(2^8) and GF(2^16), PCLMULQDQ + Barrett reduction for GF(2^32)
    /// (falling back to scalar where a unit is missing). Panics at use if
    /// unsupported.
    Ssse3,
    /// Force the 256-bit AVX2 kernel for GF(2^8); GF(2^16) and GF(2^32)
    /// use their 128-bit kernels. Panics at use if unsupported.
    Avx2,
    /// Force the GFNI kernel for GF(2^8): one `vgf2p8affineqb` per 32
    /// bytes against the constant's 8×8 bit matrix, with every term of a
    /// fused run accumulated in AVX2 registers. GF(2^16) and GF(2^32) use
    /// their 128-bit kernels, as with `Avx2`. Needs GFNI and AVX2; panics
    /// at use if unsupported.
    Gfni,
}

impl Backend {
    /// Returns the backend `Auto` would select on this machine for GF(2^8)
    /// region operations.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if Backend::Gfni.is_available() {
                return Backend::Gfni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return Backend::Ssse3;
            }
        }
        Backend::Scalar
    }

    /// True if this backend can actually run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar | Backend::Auto => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_available_backend() {
        let b = Backend::detect();
        assert!(b.is_available());
    }

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::Auto.is_available());
    }
}
