//! x86-64 SIMD kernels for GF(2^8) region multiplication.
//!
//! The SSSE3 and AVX2 kernels implement the PSHUFB nibble-table technique
//! of Plank, Greenan and Miller ("Screaming Fast Galois Field Arithmetic
//! Using Intel SIMD Instructions", FAST'13), which the PPM paper
//! integrates into all of its experiments. A byte product `a·b` splits
//! linearly over the nibbles of `b`: `a·b = a·(b & 0x0F) ⊕ a·(b & 0xF0)`,
//! so two 16-entry tables looked up with a byte shuffle compute 16 (SSSE3)
//! or 32 (AVX2) products per instruction pair.
//!
//! The GFNI kernel uses the same linearity at the bit level: multiplying
//! by `a` is an 8×8 matrix over GF(2), and `vgf2p8affineqb` applies one to
//! 32 bytes per instruction. It is a dot product, `dst (^)= Σ mᵢ·srcᵢ`
//! over up to [`DOT_TERMS`] sources, that keeps four 32-byte accumulators
//! in registers per 128-byte step: each source is loaded once, and the
//! destination is loaded only when accumulating and stored once.
//! Coefficient-1 terms are a plain `vpxor` in the same loop, and a
//! single-term multiply on the GFNI backend is the kernel with one term.
//!
//! The w = 8 table holds the whole per-constant state: `t[..16]` = `a·i`,
//! `t[16..32]` = `a·(i << 4)` and `t[32..40]` = the bit matrix as a
//! little-endian `u64`. The scalar path looks up the same nibble tables,
//! so the shuffle kernels agree with it by construction.

use crate::Backend;

/// Most terms one [`DotKernel::run`] call sums; longer runs chain calls.
pub(crate) const DOT_TERMS: usize = 16;

/// One source of a dot product: `src` times the constant whose GFNI bit
/// matrix is `matrix`, or `src` itself (coefficient 1) when `None`.
#[derive(Clone, Copy)]
pub(crate) struct DotTerm<'a> {
    pub(crate) matrix: Option<u64>,
    pub(crate) src: &'a [u8],
}

/// The register-accumulating dot kernel, constructed only after the CPU
/// was found to support GFNI and AVX2.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DotKernel(());

impl DotKernel {
    /// The kernel, if this CPU can run it.
    pub(crate) fn detect() -> Option<DotKernel> {
        Backend::Gfni.is_available().then_some(DotKernel(()))
    }

    /// `dst = Σ terms`, or `dst ^= Σ terms` when `accumulate`. With no
    /// terms that zeroes `dst` (or leaves it alone).
    ///
    /// # Panics
    /// Panics if there are more than [`DOT_TERMS`] terms or a source's
    /// length differs from `dst`'s.
    #[allow(unused_variables)]
    pub(crate) fn run(self, terms: &[DotTerm<'_>], dst: &mut [u8], accumulate: bool) {
        assert!(terms.len() <= DOT_TERMS, "too many dot-product terms");
        assert!(
            terms.iter().all(|t| t.src.len() == dst.len()),
            "region length mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `detect` verified GFNI and AVX2; the asserts above
            // give every source `dst.len()` bytes.
            unsafe { x86::dot(terms, dst, accumulate) };
        }
    }
}

impl DotKernel {
    /// The multi-destination dot product `dsts[d] = Σₛ matrices[s][d] ·
    /// srcs[s]`, or `^=` when `accumulate`, for `D` destinations at once:
    /// each 64-byte step loads each source once and keeps two 32-byte
    /// accumulators per destination in registers. Every term is an
    /// affine product — an absent term is the zero matrix, a coefficient
    /// 1 the identity — so the loop never branches on a coefficient.
    ///
    /// # Panics
    /// Panics if there are more than [`DOT_TERMS`] sources, the matrix
    /// rows do not match the sources one to one, or a source or
    /// destination length differs from the first destination's.
    #[allow(unused_variables)]
    pub(crate) fn run_multi<const D: usize>(
        self,
        srcs: &[&[u8]],
        matrices: &[[u64; D]],
        dsts: &mut [&mut [u8]; D],
        accumulate: bool,
    ) {
        assert!(srcs.len() <= DOT_TERMS, "too many dot-product terms");
        assert_eq!(srcs.len(), matrices.len(), "one matrix row per source");
        let len = dsts.first().map_or(0, |d| d.len());
        assert!(
            srcs.iter().all(|s| s.len() == len) && dsts.iter().all(|d| d.len() == len),
            "region length mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `detect` verified GFNI and AVX2; the asserts above
            // give every source and destination `len` bytes.
            unsafe { x86::multi(srcs, matrices, dsts, accumulate) };
        }
    }
}

/// Attempts to run the GF(2^8) region multiply on a vector unit.
///
/// `table` is the constant's 40-byte table (32 nibble products, then the
/// GFNI bit matrix). Returns `false` when no SIMD path applies (non-x86
/// build, scalar backend, or a forced backend that the CPU lacks — the
/// latter is rejected earlier at `RegionMul::new`).
#[allow(unused_variables)]
pub(crate) fn try_mul_u8(
    backend: Backend,
    table: &[u8],
    src: &[u8],
    dst: &mut [u8],
    accumulate: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert_eq!(table.len(), 40);
        match backend {
            Backend::Gfni => {
                if let (Some(kernel), Some(matrix)) = (DotKernel::detect(), table.last_chunk()) {
                    let term = DotTerm {
                        matrix: Some(u64::from_le_bytes(*matrix)),
                        src,
                    };
                    kernel.run(&[term], dst, accumulate);
                    return true;
                }
            }
            Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: AVX2 support was just verified.
                unsafe { x86::mul_avx2(table, src, dst, accumulate) };
                return true;
            }
            Backend::Ssse3 if std::arch::is_x86_feature_detected!("ssse3") => {
                // SAFETY: SSSE3 support was just verified.
                unsafe { x86::mul_ssse3(table, src, dst, accumulate) };
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Attempts the GF(2^16) region multiply on a vector unit (SSSE3 nibble
/// split, the SPLIT(16,4) scheme of GF-Complete). `table` is the 512-entry
/// split table (`table[k*256 + b] = a·(b << 8k)`, `k ∈ {0,1}`).
#[allow(unused_variables)]
pub(crate) fn try_mul_u16(
    backend: Backend,
    table: &[u16],
    src: &[u8],
    dst: &mut [u8],
    accumulate: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert_eq!(table.len(), 512);
        match backend {
            Backend::Ssse3 | Backend::Avx2 | Backend::Gfni
                if std::arch::is_x86_feature_detected!("ssse3") =>
            {
                // SAFETY: SSSE3 support was just verified.
                unsafe { x86::mul_ssse3_w16(table, src, dst, accumulate) };
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Attempts the GF(2^32) region multiply with carry-less multiplication
/// (PCLMULQDQ + Barrett reduction, the CARRY_FREE scheme of GF-Complete).
#[allow(unused_variables)]
pub(crate) fn try_mul_u32(
    backend: Backend,
    a: u32,
    src: &[u8],
    dst: &mut [u8],
    accumulate: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match backend {
            Backend::Ssse3 | Backend::Avx2 | Backend::Gfni
                if std::arch::is_x86_feature_detected!("pclmulqdq") =>
            {
                // SAFETY: PCLMULQDQ support was just verified (SSE2 is
                // baseline on x86-64).
                unsafe { x86::mul_clmul_w32(a, src, dst, accumulate) };
                return true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{DotTerm, DOT_TERMS};
    use std::arch::x86_64::*;

    /// Bytes per dot-kernel step: four 32-byte accumulators.
    const STEP: usize = 128;

    /// The dot product `dst (^)= Σ terms`: whole 128-byte steps in place,
    /// then the partial last step term by term through a zero-padded copy,
    /// so one compiled step loop (the one the construction probe runs)
    /// computes every byte.
    ///
    /// # Safety
    /// The CPU supports GFNI and AVX2. Every term's source is `dst.len()`
    /// bytes.
    pub(super) unsafe fn dot(terms: &[DotTerm<'_>], dst: &mut [u8], accumulate: bool) {
        let len = dst.len();
        let full = len - len % STEP;
        if full > 0 {
            // SAFETY: every source and `dst` hold `len >= full` bytes; the
            // features are the caller's guarantee.
            unsafe { steps(terms, dst.as_mut_ptr(), full / STEP, accumulate) };
        }
        let tail = len - full;
        if tail == 0 {
            return;
        }
        // With no terms, `out` already holds the result: zero or `dst`.
        let mut out = [0u8; STEP];
        if accumulate {
            out[..tail].copy_from_slice(&dst[full..]);
        }
        let mut pad = [0u8; STEP];
        for (j, t) in terms.iter().enumerate() {
            pad[..tail].copy_from_slice(&t.src[full..]);
            let one = [DotTerm {
                matrix: t.matrix,
                src: &pad,
            }];
            // SAFETY: `pad` and `out` hold exactly one STEP.
            unsafe { steps(&one, out.as_mut_ptr(), 1, accumulate || j > 0) };
        }
        dst[full..].copy_from_slice(&out[..tail]);
    }

    /// `n` steps of 128 bytes: four accumulators start from `dst`
    /// (accumulate) or zero, take `affine(src, matrix)` for each GF term
    /// and `src` for each XOR term, and are stored once.
    ///
    /// # Safety
    /// The CPU supports GFNI and AVX2. Every source must be readable, and
    /// `dst` readable and writable, for `n * STEP` bytes.
    #[target_feature(enable = "avx2,gfni")]
    unsafe fn steps(terms: &[DotTerm<'_>], dst: *mut u8, n: usize, accumulate: bool) {
        // SAFETY: every access is below `n * STEP` bytes past a pointer
        // the caller vouches for; loadu/storeu need no alignment.
        unsafe {
            for i in 0..n {
                let off = i * STEP;
                let d = dst.add(off);
                let mut acc = [_mm256_setzero_si256(); 4];
                if accumulate {
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_loadu_si256(d.add(32 * k).cast());
                    }
                }
                for t in terms {
                    let s = t.src.as_ptr().add(off);
                    match t.matrix {
                        Some(m) => {
                            let m = _mm256_set1_epi64x(m as i64);
                            for (k, a) in acc.iter_mut().enumerate() {
                                let v = _mm256_loadu_si256(s.add(32 * k).cast());
                                *a = _mm256_xor_si256(*a, _mm256_gf2p8affine_epi64_epi8::<0>(v, m));
                            }
                        }
                        None => {
                            for (k, a) in acc.iter_mut().enumerate() {
                                let v = _mm256_loadu_si256(s.add(32 * k).cast());
                                *a = _mm256_xor_si256(*a, v);
                            }
                        }
                    }
                }
                for (k, a) in acc.iter().enumerate() {
                    _mm256_storeu_si256(d.add(32 * k).cast(), *a);
                }
            }
        }
    }

    /// Bytes per multi-destination step: two 32-byte accumulators per
    /// destination, so four destinations fill eight registers.
    const MULTI_STEP: usize = 64;

    /// The multi-destination dot product: whole 64-byte steps in place,
    /// then the partial last step through zero-padded copies of every
    /// source and destination, so one compiled step loop computes every
    /// byte.
    ///
    /// # Safety
    /// The CPU supports GFNI and AVX2. At most [`DOT_TERMS`] sources,
    /// one matrix row each, and every source and destination is
    /// `dsts[0].len()` bytes.
    pub(super) unsafe fn multi<const D: usize>(
        srcs: &[&[u8]],
        matrices: &[[u64; D]],
        dsts: &mut [&mut [u8]; D],
        accumulate: bool,
    ) {
        let len = dsts.first().map_or(0, |d| d.len());
        let full = len - len % MULTI_STEP;
        if full > 0 {
            let ptrs: [*mut u8; D] = std::array::from_fn(|d| dsts[d].as_mut_ptr());
            // SAFETY: every source and destination holds `len >= full`
            // bytes; the features are the caller's guarantee.
            unsafe { multi_steps(srcs, matrices, ptrs, full / MULTI_STEP, accumulate) };
        }
        let tail = len - full;
        if tail == 0 {
            return;
        }
        let mut pad = [[0u8; MULTI_STEP]; DOT_TERMS];
        for (p, s) in pad.iter_mut().zip(srcs) {
            p[..tail].copy_from_slice(&s[full..]);
        }
        let mut out = [[0u8; MULTI_STEP]; D];
        if accumulate {
            for (o, d) in out.iter_mut().zip(dsts.iter()) {
                o[..tail].copy_from_slice(&d[full..]);
            }
        }
        let padded: [&[u8]; DOT_TERMS] = std::array::from_fn(|i| &pad[i][..]);
        let ptrs: [*mut u8; D] = std::array::from_fn(|d| out[d].as_mut_ptr());
        // SAFETY: every padded source and output holds one step.
        unsafe { multi_steps(&padded[..srcs.len()], matrices, ptrs, 1, accumulate) };
        for (o, d) in out.iter().zip(dsts.iter_mut()) {
            d[full..].copy_from_slice(&o[..tail]);
        }
    }

    /// `n` steps of 64 bytes: per destination, two accumulators start
    /// from the destination (accumulate) or zero, take
    /// `affine(src, matrices[s][d])` for every source, and are stored
    /// once.
    ///
    /// # Safety
    /// The CPU supports GFNI and AVX2. Every source must be readable, and
    /// every destination readable and writable, for `n * MULTI_STEP`
    /// bytes; `matrices` has a row per source.
    #[target_feature(enable = "avx2,gfni")]
    unsafe fn multi_steps<const D: usize>(
        srcs: &[&[u8]],
        matrices: &[[u64; D]],
        dsts: [*mut u8; D],
        n: usize,
        accumulate: bool,
    ) {
        // SAFETY: every access is below `n * MULTI_STEP` bytes past a
        // pointer the caller vouches for; loadu/storeu need no alignment.
        unsafe {
            for i in 0..n {
                let off = i * MULTI_STEP;
                let mut acc = [[_mm256_setzero_si256(); 2]; D];
                if accumulate {
                    for (a, d) in acc.iter_mut().zip(dsts) {
                        a[0] = _mm256_loadu_si256(d.add(off).cast());
                        a[1] = _mm256_loadu_si256(d.add(off + 32).cast());
                    }
                }
                for (s, row) in srcs.iter().zip(matrices) {
                    let p = s.as_ptr().add(off);
                    let v0 = _mm256_loadu_si256(p.cast());
                    let v1 = _mm256_loadu_si256(p.add(32).cast());
                    for (a, &m) in acc.iter_mut().zip(row) {
                        let m = _mm256_set1_epi64x(m as i64);
                        a[0] = _mm256_xor_si256(a[0], _mm256_gf2p8affine_epi64_epi8::<0>(v0, m));
                        a[1] = _mm256_xor_si256(a[1], _mm256_gf2p8affine_epi64_epi8::<0>(v1, m));
                    }
                }
                for (a, d) in acc.iter().zip(dsts) {
                    _mm256_storeu_si256(d.add(off).cast(), a[0]);
                    _mm256_storeu_si256(d.add(off + 32).cast(), a[1]);
                }
            }
        }
    }

    /// Splits the 32 nibble products into the low and high 16-byte tables.
    #[inline]
    fn nibble_tables(table: &[u8]) -> ([u8; 16], [u8; 16]) {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        lo.copy_from_slice(&table[..16]);
        hi.copy_from_slice(&table[16..32]);
        (lo, hi)
    }

    #[inline]
    fn scalar_tail(table: &[u8], src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = nibble_tables(table);
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            let p = lo[usize::from(s & 15)] ^ hi[usize::from(s >> 4)];
            *d = if accumulate { *d ^ p } else { p };
        }
    }

    /// 16 bytes per iteration via `pshufb`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSSE3.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3(table: &[u8], src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = nibble_tables(table);
        // SAFETY: loads/stores below stay within the checked slice bounds;
        // loadu/storeu have no alignment requirements.
        unsafe {
            let tlo = _mm_loadu_si128(lo.as_ptr().cast());
            let thi = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0F);
            let chunks = src.len() / 16;
            for i in 0..chunks {
                let sp = src.as_ptr().add(i * 16).cast();
                let dp = dst.as_mut_ptr().add(i * 16).cast();
                let v = _mm_loadu_si128(sp);
                let l = _mm_shuffle_epi8(tlo, _mm_and_si128(v, mask));
                let h = _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
                let mut r = _mm_xor_si128(l, h);
                if accumulate {
                    r = _mm_xor_si128(r, _mm_loadu_si128(dp));
                }
                _mm_storeu_si128(dp, r);
            }
            let done = chunks * 16;
            scalar_tail(table, &src[done..], &mut dst[done..], accumulate);
        }
    }

    /// GF(2^16), 16 words (32 bytes) per iteration: split each word into
    /// four nibbles, shuffle each through two 16-entry tables (result low
    /// byte, result high byte), re-interleave.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSSE3.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3_w16(
        table: &[u16],
        src: &[u8],
        dst: &mut [u8],
        accumulate: bool,
    ) {
        // Nibble tables: product of a with (x << 4k), split into result
        // low/high bytes. Nibble k=0,1 come from split-table byte 0,
        // k=2,3 from byte 1.
        let mut tl = [[0u8; 16]; 4];
        let mut th = [[0u8; 16]; 4];
        for x in 0..16usize {
            let prods = [
                table[x],              // a·x
                table[x << 4],         // a·(x<<4)
                table[256 + x],        // a·(x<<8)
                table[256 + (x << 4)], // a·(x<<12)
            ];
            for (k, &p) in prods.iter().enumerate() {
                tl[k][x] = p as u8;
                th[k][x] = (p >> 8) as u8;
            }
        }
        // SAFETY: all loads/stores below stay inside the checked slice
        // bounds; loadu/storeu have no alignment requirements.
        unsafe {
            let tl: [__m128i; 4] = std::array::from_fn(|k| _mm_loadu_si128(tl[k].as_ptr().cast()));
            let th: [__m128i; 4] = std::array::from_fn(|k| _mm_loadu_si128(th[k].as_ptr().cast()));
            let nib = _mm_set1_epi8(0x0F);
            let bytemask = _mm_set1_epi16(0x00FF);

            let chunks = src.len() / 32;
            for i in 0..chunks {
                let sp = src.as_ptr().add(i * 32);
                let dp = dst.as_mut_ptr().add(i * 32);
                let v0 = _mm_loadu_si128(sp.cast()); // words 0..8 (LE)
                let v1 = _mm_loadu_si128(sp.add(16).cast()); // words 8..16
                                                             // Gather the 16 low bytes and 16 high bytes.
                let lo = _mm_packus_epi16(_mm_and_si128(v0, bytemask), _mm_and_si128(v1, bytemask));
                let hi = _mm_packus_epi16(_mm_srli_epi16(v0, 8), _mm_srli_epi16(v1, 8));
                let n0 = _mm_and_si128(lo, nib);
                let n1 = _mm_and_si128(_mm_srli_epi64(lo, 4), nib);
                let n2 = _mm_and_si128(hi, nib);
                let n3 = _mm_and_si128(_mm_srli_epi64(hi, 4), nib);
                let rlo = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(tl[0], n0), _mm_shuffle_epi8(tl[1], n1)),
                    _mm_xor_si128(_mm_shuffle_epi8(tl[2], n2), _mm_shuffle_epi8(tl[3], n3)),
                );
                let rhi = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(th[0], n0), _mm_shuffle_epi8(th[1], n1)),
                    _mm_xor_si128(_mm_shuffle_epi8(th[2], n2), _mm_shuffle_epi8(th[3], n3)),
                );
                // Re-interleave into little-endian words.
                let mut out0 = _mm_unpacklo_epi8(rlo, rhi);
                let mut out1 = _mm_unpackhi_epi8(rlo, rhi);
                if accumulate {
                    out0 = _mm_xor_si128(out0, _mm_loadu_si128(dp.cast()));
                    out1 = _mm_xor_si128(out1, _mm_loadu_si128(dp.add(16).cast()));
                }
                _mm_storeu_si128(dp.cast(), out0);
                _mm_storeu_si128(dp.add(16).cast(), out1);
            }
            let done = chunks * 32;
            scalar_tail_w16(table, &src[done..], &mut dst[done..], accumulate);
        }
    }

    #[inline]
    fn scalar_tail_w16(table: &[u16], src: &[u8], dst: &mut [u8], accumulate: bool) {
        for (s, d) in src.chunks_exact(2).zip(dst.chunks_exact_mut(2)) {
            let prod = table[s[0] as usize] ^ table[256 + s[1] as usize];
            let cur = if accumulate {
                u16::from_le_bytes([d[0], d[1]])
            } else {
                0
            };
            let out = prod ^ cur;
            d.copy_from_slice(&out.to_le_bytes());
        }
    }

    /// Quotient of `x^64 / poly` over GF(2) — the Barrett constant `μ`
    /// for a degree-32 polynomial (33 bits).
    fn barrett_mu(poly: u64) -> u64 {
        let mut rem: u128 = 1u128 << 64;
        let mut q: u64 = 0;
        for bit in (0..=32u32).rev() {
            if rem >> (bit + 32) & 1 == 1 {
                q |= 1 << bit;
                rem ^= (poly as u128) << bit;
            }
        }
        q
    }

    /// GF(2^32) region multiply: one carry-less multiply per word plus a
    /// two-multiply Barrett reduction, four independent chains kept in
    /// XMM registers per 16-byte block (all bits ≥ 32 of `c ^ q·P` cancel
    /// by construction, so only the low lane's low 32 bits are read).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports PCLMULQDQ. `src.len()` must be
    /// a multiple of 4 (enforced by the region-op entry point).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn mul_clmul_w32(a: u32, src: &[u8], dst: &mut [u8], accumulate: bool) {
        const POLY: u64 = 0x1_0040_0007;
        let mu = barrett_mu(POLY);
        // SAFETY: loads/stores stay within the checked slice bounds;
        // loadu/storeu have no alignment requirements.
        unsafe {
            let va = _mm_set_epi64x(0, a as i64);
            let vmu = _mm_set_epi64x(0, mu as i64);
            let vp = _mm_set_epi64x(0, POLY as i64);
            let zero = _mm_setzero_si128();

            // One full Barrett chain; the input word sits alone in the
            // selected 64-bit lane, the result's low 32 bits are valid.
            #[inline(always)]
            unsafe fn chain(
                v: __m128i,
                lane: i32,
                va: __m128i,
                vmu: __m128i,
                vp: __m128i,
            ) -> __m128i {
                // SAFETY: register-only intrinsics.
                unsafe {
                    let c = if lane == 0 {
                        _mm_clmulepi64_si128(v, va, 0x00)
                    } else {
                        _mm_clmulepi64_si128(v, va, 0x01)
                    };
                    let q =
                        _mm_srli_epi64(_mm_clmulepi64_si128(_mm_srli_epi64(c, 32), vmu, 0x00), 32);
                    _mm_xor_si128(c, _mm_clmulepi64_si128(q, vp, 0x00))
                }
            }

            let blocks = src.len() / 16;
            for i in 0..blocks {
                let sp = src.as_ptr().add(i * 16).cast();
                let dp = dst.as_mut_ptr().add(i * 16).cast();
                let v = _mm_loadu_si128(sp); // [w0 w1 w2 w3]
                let vlo = _mm_unpacklo_epi32(v, zero); // lanes (w0, w1)
                let vhi = _mm_unpackhi_epi32(v, zero); // lanes (w2, w3)
                let r0 = chain(vlo, 0, va, vmu, vp);
                let r1 = chain(vlo, 1, va, vmu, vp);
                let r2 = chain(vhi, 0, va, vmu, vp);
                let r3 = chain(vhi, 1, va, vmu, vp);
                // Gather the four low-32 results back into one register.
                let t0 = _mm_unpacklo_epi32(r0, r1); // [r0 r1 ..]
                let t1 = _mm_unpacklo_epi32(r2, r3); // [r2 r3 ..]
                let mut out = _mm_unpacklo_epi64(t0, t1);
                if accumulate {
                    out = _mm_xor_si128(out, _mm_loadu_si128(dp));
                }
                _mm_storeu_si128(dp, out);
            }

            // Word-at-a-time tail (< 4 words).
            let done = blocks * 16;
            let (s4, _) = src[done..].as_chunks::<4>();
            let (d4, _) = dst[done..].as_chunks_mut::<4>();
            for (s, d) in s4.iter().zip(d4) {
                let vw = _mm_set_epi64x(0, u32::from_le_bytes(*s) as i64);
                let r = chain(vw, 0, va, vmu, vp);
                let mut r = _mm_cvtsi128_si64(r) as u32;
                if accumulate {
                    r ^= u32::from_le_bytes(*d);
                }
                *d = r.to_le_bytes();
            }
        }
    }

    /// 32 bytes per iteration via `vpshufb`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2(table: &[u8], src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = nibble_tables(table);
        // SAFETY: loads/stores below stay within the checked slice bounds;
        // loadu/storeu have no alignment requirements.
        unsafe {
            let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
            let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
            let mask = _mm256_set1_epi8(0x0F);
            let chunks = src.len() / 32;
            for i in 0..chunks {
                let sp = src.as_ptr().add(i * 32).cast();
                let dp = dst.as_mut_ptr().add(i * 32).cast();
                let v = _mm256_loadu_si256(sp);
                let l = _mm256_shuffle_epi8(tlo, _mm256_and_si256(v, mask));
                let h = _mm256_shuffle_epi8(thi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
                let mut r = _mm256_xor_si256(l, h);
                if accumulate {
                    r = _mm256_xor_si256(r, _mm256_loadu_si256(dp));
                }
                _mm256_storeu_si256(dp, r);
            }
            let done = chunks * 32;
            scalar_tail(table, &src[done..], &mut dst[done..], accumulate);
        }
    }
}
