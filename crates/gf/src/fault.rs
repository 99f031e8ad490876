//! Kernel fault hooks: forced SIMD miscompute and the fallback counter.
//!
//! A production repair path must not trust its own vector kernels blindly:
//! a miscompiled or CPU-errata-afflicted SIMD path returns *plausible*
//! wrong bytes, which an erasure decode would then write over good data.
//! [`RegionMul::new_checked`](crate::RegionMul::new_checked) defends
//! against this with a construction-time probe that compares the
//! dispatched kernel against the portable scalar reference and falls back
//! to the scalar backend on any mismatch.
//!
//! To make that defence testable, this module provides a process-global
//! switch that deliberately corrupts the output of every *successful*
//! SIMD region operation. The scalar path ignores the switch, so a
//! checked multiplier built while the switch is on demotes itself to
//! scalar and keeps computing correct bytes — which is exactly what the
//! fault-injection suite asserts. The switch is a relaxed atomic load per
//! SIMD region call: noise next to the table work it guards.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static FORCE_SIMD_MISCOMPUTE: AtomicBool = AtomicBool::new(false);
static KERNEL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Forces every subsequent SIMD region operation in this process to
/// produce a deliberately corrupted result (the first output byte is
/// shifted, see `poison_if_forced`). Scalar operations are unaffected. Intended for fault
/// injection in tests and benches; pair every `true` with a `false` (the
/// switch is process-global).
pub fn force_simd_miscompute(enabled: bool) {
    FORCE_SIMD_MISCOMPUTE.store(enabled, Ordering::Relaxed);
}

/// Whether [`force_simd_miscompute`] is currently engaged.
pub fn simd_miscompute_forced() -> bool {
    FORCE_SIMD_MISCOMPUTE.load(Ordering::Relaxed)
}

/// Corrupts a freshly written SIMD result when the miscompute switch is
/// on. Called by the region kernels at each vector-path exit, once per
/// destination written.
///
/// The poison is a wrapping add of an odd constant, not an XOR: XOR
/// poison cancels whenever an even number of poisoned accumulate calls
/// land in one destination (two small writes into the same parity, say),
/// so a forced miscompute would pass unseen. An added constant survives
/// the XORs of later calls except on byte values that happen to absorb
/// it, never by call count alone.
#[inline]
pub(crate) fn poison_if_forced(dst: &mut [u8]) {
    if simd_miscompute_forced() {
        if let Some(b) = dst.first_mut() {
            *b = b.wrapping_add(POISON);
        }
    }
}

/// What [`poison_if_forced`] adds to the first byte; odd, so it is a
/// generator of the additive group mod 256.
const POISON: u8 = 0x5B;

/// Records one self-check failure that demoted a multiplier to scalar.
pub(crate) fn record_fallback() {
    KERNEL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of kernel self-check failures: how many
/// [`RegionMul::new_checked`](crate::RegionMul::new_checked) probes
/// disagreed with the scalar reference and fell back. Zero on healthy
/// hardware with the miscompute switch off.
pub fn kernel_fallbacks() -> u64 {
    KERNEL_FALLBACKS.load(Ordering::Relaxed)
}

// The switch is process-global, so tests that toggle it would race the
// SIMD-vs-scalar comparison tests in this crate's unit binary. All
// toggling tests live in `tests/fault_hooks.rs`, which serializes them.
