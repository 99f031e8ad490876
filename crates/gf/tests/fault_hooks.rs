//! Tests for the forced-miscompute switch and the checked constructor.
//!
//! These live in their own integration binary because the switch is
//! process-global: toggling it while the unit binary's SIMD-vs-scalar
//! comparison tests run would poison their results. Within this binary a
//! mutex serializes every test that flips the switch.

use ppm_gf::{
    force_simd_miscompute, kernel_fallbacks, mul_copy_fused, mul_xor_fused, simd_miscompute_forced,
    Backend, GfWord, MultiDot, RegionMul,
};
use std::sync::{Mutex, PoisonError};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the miscompute switch forced on, guaranteeing it is
/// switched back off even if `f` panics.
fn with_forced_miscompute<R>(f: impl FnOnce() -> R) -> R {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            force_simd_miscompute(false);
        }
    }
    let _reset = Reset;
    force_simd_miscompute(true);
    f()
}

fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as u8
        })
        .collect()
}

#[test]
fn switch_roundtrips() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(!simd_miscompute_forced());
    force_simd_miscompute(true);
    assert!(simd_miscompute_forced());
    force_simd_miscompute(false);
    assert!(!simd_miscompute_forced());
}

#[test]
fn forced_miscompute_corrupts_simd_output() {
    if Backend::detect() == Backend::Scalar {
        return; // no vector unit to corrupt
    }
    let src = pseudo_bytes(64, 3);
    let base = pseudo_bytes(64, 4);
    let mut expect = base.clone();
    RegionMul::<u8>::new(0x1D, Backend::Scalar).mul_xor(&src, &mut expect);

    let mut poisoned = base.clone();
    with_forced_miscompute(|| {
        RegionMul::<u8>::new(0x1D, Backend::Auto).mul_xor(&src, &mut poisoned);
    });
    assert_ne!(poisoned, expect, "forced fault must corrupt the SIMD path");
    assert_eq!(poisoned[1..], expect[1..], "only the first byte is flipped");

    // The scalar path ignores the switch entirely.
    let mut scalar = base.clone();
    with_forced_miscompute(|| {
        RegionMul::<u8>::new(0x1D, Backend::Scalar).mul_xor(&src, &mut scalar);
    });
    assert_eq!(scalar, expect);
}

#[test]
fn checked_constructor_demotes_faulty_kernel_to_scalar() {
    let src = pseudo_bytes(64, 51);
    let base = pseudo_bytes(64, 52);
    let mut expect = base.clone();
    RegionMul::<u8>::new(0x1D, Backend::Scalar).mul_xor(&src, &mut expect);

    let before = kernel_fallbacks();
    let (rm, faulted) = with_forced_miscompute(|| {
        let rm = RegionMul::<u8>::new_checked(0x1D, Backend::Auto);
        (rm, Backend::detect() != Backend::Scalar)
    });
    assert_eq!(rm.backend(), Backend::Scalar);
    if faulted {
        assert!(
            kernel_fallbacks() > before,
            "the probe mismatch must be counted"
        );
    }
    // Post-fallback the multiplier computes correct bytes even while the
    // fault persists.
    let mut dst = base.clone();
    with_forced_miscompute(|| rm.mul_xor(&src, &mut dst));
    assert_eq!(dst, expect);
}

#[test]
fn checked_constructor_keeps_healthy_kernel() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let before = kernel_fallbacks();
    let rm = RegionMul::<u8>::new_checked(0x1D, Backend::Auto);
    assert_eq!(rm.backend(), Backend::detect());
    assert_eq!(kernel_fallbacks(), before, "healthy probe must not count");

    // 0/1 fast paths skip the probe (no table kernel to check).
    for a in [0u8, 1] {
        let rm = RegionMul::<u8>::new_checked(a, Backend::Auto);
        assert_eq!(rm.constant(), a);
    }
}

#[test]
fn checked_constructor_all_widths() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    macro_rules! go {
        ($W:ty, $a:expr) => {{
            let a = <$W as GfWord>::from_u64($a);
            let src = pseudo_bytes(64, 7);
            let mut want = pseudo_bytes(64, 8);
            let mut got = want.clone();
            RegionMul::<$W>::new(a, Backend::Scalar).mul_xor(&src, &mut want);
            RegionMul::<$W>::new_checked(a, Backend::Auto).mul_xor(&src, &mut got);
            assert_eq!(got, want, "w={}", <$W as GfWord>::WIDTH);
        }};
    }
    go!(u8, 0x1D);
    go!(u16, 0x1D2C);
    go!(u32, 0xDEAD_BEEF);
}

/// A GFNI kernel whose probe sees a forced miscompute demotes to scalar
/// and is counted. A fused run mixing it with a healthy GFNI kernel then
/// leaves the dot kernel for the per-term sweep and stays bit-exact.
#[test]
fn gfni_kernel_demotes_and_mixed_run_stays_exact() {
    if !Backend::Gfni.is_available() {
        return;
    }
    let before = kernel_fallbacks();
    let demoted = with_forced_miscompute(|| RegionMul::<u8>::new_checked(0x1D, Backend::Gfni));
    assert_eq!(demoted.backend(), Backend::Scalar);
    assert!(kernel_fallbacks() > before, "the demotion must be counted");

    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let healthy = RegionMul::<u8>::new_checked(0xCA, Backend::Gfni);
    assert_eq!(healthy.backend(), Backend::Gfni);
    for len in [64usize, 1000, 4096] {
        let srcs = [pseudo_bytes(len, 61), pseudo_bytes(len, 62)];
        let base = pseudo_bytes(len, 63);
        let terms = [(&demoted, &srcs[0][..]), (&healthy, &srcs[1][..])];
        let mut want = base.clone();
        for (a, src) in [0x1Du8, 0xCA].into_iter().zip(&srcs) {
            RegionMul::<u8>::new(a, Backend::Scalar).mul_xor(src, &mut want);
        }
        let mut got = base.clone();
        mul_xor_fused(&terms, &mut got);
        assert_eq!(got, want, "accumulate len={len}");

        let mut want = vec![0u8; len];
        for (a, src) in [0x1Du8, 0xCA].into_iter().zip(&srcs) {
            RegionMul::<u8>::new(a, Backend::Scalar).mul_xor(src, &mut want);
        }
        let mut got = base;
        mul_copy_fused(&terms, &mut got);
        assert_eq!(got, want, "overwrite len={len}");
    }
}

/// Under a forced miscompute the dot kernel's output is poisoned once
/// when its run has a GF term; an XOR-only run runs no GF instruction
/// and, like `xor_region`, is left alone.
#[test]
fn forced_miscompute_poisons_gf_runs_not_xor_runs() {
    if !Backend::Gfni.is_available() {
        return;
    }
    let srcs = [pseudo_bytes(256, 71), pseudo_bytes(256, 72)];
    let base = pseudo_bytes(256, 73);
    let one = RegionMul::<u8>::new(1, Backend::Gfni);
    let mul = RegionMul::<u8>::new(0x53, Backend::Gfni);
    let mut want = base.clone();
    RegionMul::<u8>::new(0x53, Backend::Scalar).mul_xor(&srcs[0], &mut want);
    one.mul_xor(&srcs[1], &mut want);
    let mut xor_want = base.clone();
    one.mul_xor(&srcs[0], &mut xor_want);
    one.mul_xor(&srcs[1], &mut xor_want);

    let (got, xor_got) = with_forced_miscompute(|| {
        let mut got = base.clone();
        mul_xor_fused(&[(&mul, &srcs[0][..]), (&one, &srcs[1][..])], &mut got);
        let mut xor_got = base.clone();
        mul_xor_fused(&[(&one, &srcs[0][..]), (&one, &srcs[1][..])], &mut xor_got);
        (got, xor_got)
    });
    assert_ne!(got[0], want[0], "a GF run is poisoned");
    assert_eq!(got[1..], want[1..], "once, in its first byte");
    assert_eq!(xor_got, xor_want, "an XOR-only run is not");
}

/// The poison does not cancel by call count: two poisoned accumulate
/// calls into one buffer — two small writes into one parity — still
/// leave it wrong. An XOR poison applied twice restored the right bytes.
#[test]
fn poison_survives_two_accumulate_calls() {
    if Backend::detect() == Backend::Scalar {
        return; // no vector unit to corrupt
    }
    let srcs = [pseudo_bytes(64, 81), pseudo_bytes(64, 82)];
    let base = pseudo_bytes(64, 83);
    let mut want = base.clone();
    for src in &srcs {
        RegionMul::<u8>::new(0x1D, Backend::Scalar).mul_xor(src, &mut want);
    }
    let got = with_forced_miscompute(|| {
        let mut got = base.clone();
        for src in &srcs {
            RegionMul::<u8>::new(0x1D, Backend::Auto).mul_xor(src, &mut got);
        }
        got
    });
    assert_ne!(got, want, "two poisoned calls must not cancel");
    assert_eq!(got[1..], want[1..], "only the first byte is poisoned");
}

/// A multi-destination call poisons every destination it writes, once.
#[test]
fn forced_miscompute_poisons_every_multi_destination() {
    if !Backend::Gfni.is_available() {
        return;
    }
    let srcs = [pseudo_bytes(200, 91), pseudo_bytes(200, 92)];
    let kernels = [0x1Du8, 1, 0x53, 0xCA, 2, 0].map(|a| RegionMul::<u8>::new(a, Backend::Gfni));
    // Source-major, three destinations; destination 1 reads only
    // coefficient-1 and zero terms.
    let coeffs: Vec<Option<&RegionMul<u8>>> = [0, 1, 2, 3, 5, 4]
        .iter()
        .map(|&k| Some(&kernels[k]))
        .collect();
    let table = MultiDot::new(3, &coeffs).expect("GFNI kernels qualify");
    let mut want = vec![vec![0u8; 200]; 3];
    for (s, src) in srcs.iter().enumerate() {
        for (d, region) in want.iter_mut().enumerate() {
            let a = coeffs[s * 3 + d].map_or(0, |k| k.constant());
            RegionMul::<u8>::new(a, Backend::Scalar).mul_xor(src, region);
        }
    }
    let got = with_forced_miscompute(|| {
        let mut got = vec![pseudo_bytes(200, 93); 3];
        let mut dsts: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
        table.mul_copy(|s| &srcs[s], &mut dsts);
        got
    });
    for (d, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_ne!(got[0], want[0], "destination {d} is poisoned");
        assert_eq!(
            got[1..],
            want[1..],
            "destination {d}: once, in its first byte"
        );
    }
}

/// Every backend this CPU runs, `Auto` included.
fn backends() -> Vec<Backend> {
    [
        Backend::Scalar,
        Backend::Ssse3,
        Backend::Avx2,
        Backend::Gfni,
        Backend::Auto,
    ]
    .into_iter()
    .filter(|b| b.is_available())
    .collect()
}

/// Checks `RegionMul::new_checked(a, backend)` against `a.gf_mul(b)` for
/// every word `b` of `words`, both accumulating and overwriting.
fn check_products<W: GfWord>(a: W, backend: Backend, words: &[W]) {
    let src: Vec<u8> = words
        .iter()
        .flat_map(|b| b.to_u64().to_le_bytes().into_iter().take(W::BYTES))
        .collect();
    let rm = RegionMul::<W>::new_checked(a, backend);
    let mut copied = vec![0xA5u8; src.len()];
    rm.mul_copy(&src, &mut copied);
    let mut accumulated = src.clone();
    rm.mul_xor(&src, &mut accumulated);
    for (i, &b) in words.iter().enumerate() {
        let at = |buf: &[u8]| {
            let bytes = &buf[i * W::BYTES..(i + 1) * W::BYTES];
            W::from_u64(bytes.iter().rev().fold(0, |x, &v| x << 8 | u64::from(v)))
        };
        let want = a.gf_mul(b);
        assert_eq!(at(&copied), want, "mul_copy a={a:?} b={b:?} {backend:?}");
        assert_eq!(at(&accumulated), want.gf_add(b), "mul_xor a={a:?} b={b:?}");
    }
}

/// The product tables are pinned exhaustively at w = 8 — every constant
/// against every byte, through the checked constructor on every backend,
/// with a 7-byte tail past the last vector block — and on sampled
/// constants at w = 16 and w = 32. A healthy probe never falls back.
#[test]
fn checked_tables_match_gf_mul() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let before = kernel_fallbacks();
    let bytes: Vec<u8> = (0..=255).chain(249..=255).collect();
    let halves: Vec<u16> = (0..=u16::MAX).collect();
    let words: Vec<u32> = pseudo_bytes(4 * 4096, 5)
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .chain([0, 1, 0x8000_0000, u32::MAX])
        .collect();
    for backend in backends() {
        for a in 0..=255u8 {
            check_products(a, backend, &bytes);
        }
        for a in [0u16, 1, 2, 3, 0x100, 0x1D2C, 0x8000, 0xFFFF, 0x1234, 0xBEEF] {
            check_products(a, backend, &halves);
        }
        for a in [
            0u32,
            1,
            2,
            0x100,
            0x1_0000,
            0x0040_0007,
            0x8000_0000,
            0xDEAD_BEEF,
        ] {
            check_products(a, backend, &words);
        }
    }
    assert_eq!(
        kernel_fallbacks(),
        before,
        "healthy probes must not fall back"
    );
}
