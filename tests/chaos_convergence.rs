//! Chaos convergence: the cluster repair must produce byte-identical
//! archives under injected network faults, with bounded retry
//! amplification — the end-to-end contract of the chaos hardening
//! (`ChaosTransport` + v2 framing + supervised coordinator).
//!
//! The matrix: three seeds × four fault profiles (drop-heavy,
//! corrupt-heavy, straggler-heavy, partition), each checked for
//! convergence, detection (corrupt frames must be *caught*, not
//! decoded), and amplification against a clean run of the same
//! configuration.

use ppm::{
    run_sim, ChaosConfig, ChaosRates, RepairMode, RetryPolicy, SdCode, SimConfig, SimReport,
};

/// Base seed for the per-test seed triplets, read from `PPM_SEED`
/// (default 1) so CI can sweep the whole suite across seeds.
fn seed_from_env() -> u64 {
    std::env::var("PPM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn seed_triplet() -> [u64; 3] {
    let base = seed_from_env();
    [base, base + 1, base + 2]
}

/// Frames moved under chaos may exceed the clean run by at most this
/// factor. Generous on purpose: measured amplification at these rates
/// is 1.1–2.5×, so only a real regression (unbounded retry, per-retry
/// plan re-shipping) trips it.
const AMPLIFICATION_BOUND: f64 = 4.0;

fn paper_code() -> SdCode<u8> {
    SdCode::new(4, 4, 1, 1, vec![1, 2]).expect("paper code")
}

fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        workers: 3,
        stripes: 1_000_000,
        damaged: 6,
        scenarios: 3,
        sector_bytes: 512,
        seed,
        threads: 1,
        retry: RetryPolicy::aggressive(),
        ..SimConfig::default()
    }
}

fn run_chaotic(seed: u64, rates: ChaosRates) -> (SimReport, SimReport) {
    let code = paper_code();
    let clean = base_cfg(seed);
    let chaotic = SimConfig {
        chaos: Some(ChaosConfig {
            seed: seed ^ 0xC4A0_57AE,
            rates,
            delay_ms: 5,
        }),
        ..clean
    };
    let reference = run_sim(&code, &clean, RepairMode::Partial).expect("clean sim");
    let report = run_sim(&code, &chaotic, RepairMode::Partial).expect("chaotic sim");
    (reference, report)
}

fn assert_converged(label: &str, reference: &SimReport, report: &SimReport) {
    assert!(reference.identical, "{label}: clean run diverged");
    assert!(
        report.identical,
        "{label}: chaotic archive differs from the single-node reference"
    );
    assert_eq!(
        report.repaired, report.damaged,
        "{label}: repairs went missing"
    );
    assert!(
        report.chaos.injected.total() > 0,
        "{label}: the configured chaos never fired"
    );
    let amplification = report.traffic.frames as f64 / reference.traffic.frames as f64;
    assert!(
        amplification <= AMPLIFICATION_BOUND,
        "{label}: retry amplification {amplification:.2} exceeds {AMPLIFICATION_BOUND}"
    );
}

#[test]
fn drop_heavy_profile_converges_across_seeds() {
    for seed in seed_triplet() {
        let rates = ChaosRates {
            drop: 0.20,
            delay: 0.05,
            ..ChaosRates::default()
        };
        let (reference, report) = run_chaotic(seed, rates);
        assert_converged(&format!("drop-heavy/{seed}"), &reference, &report);
    }
}

#[test]
fn corrupt_heavy_profile_catches_every_flip() {
    for seed in seed_triplet() {
        let rates = ChaosRates {
            corrupt: 0.20,
            truncate: 0.05,
            ..ChaosRates::default()
        };
        let (reference, report) = run_chaotic(seed, rates);
        let label = format!("corrupt-heavy/{seed}");
        assert_converged(&label, &reference, &report);
        assert!(
            report.chaos.injected.corrupted > 0,
            "{label}: profile injected no corruption"
        );
        assert!(
            report.chaos.corrupt_frames_caught > 0,
            "{label}: corruption crossed the wire uncaught"
        );
        assert_eq!(report.violations, 0, "{label}: corruption reached sectors");
    }
}

#[test]
fn straggler_heavy_profile_survives_reorder_and_duplication() {
    for seed in seed_triplet() {
        let rates = ChaosRates {
            delay: 0.25,
            reorder: 0.08,
            duplicate: 0.05,
            ..ChaosRates::default()
        };
        let (reference, report) = run_chaotic(seed, rates);
        let label = format!("straggler-heavy/{seed}");
        assert_converged(&label, &reference, &report);
        // Chaos duplicates resend the same sealed frame, so the
        // sequence check must be what absorbs them.
        if report.chaos.injected.duplicated > 0 {
            assert!(
                report.chaos.dup_frames_dropped > 0,
                "{label}: duplicates delivered but never dropped"
            );
        }
    }
}

#[test]
fn partition_profile_fails_over_from_dead_workers() {
    for seed in seed_triplet() {
        let rates = ChaosRates {
            drop: 0.10,
            hang: 0.02,
            ..ChaosRates::default()
        };
        let (reference, report) = run_chaotic(seed, rates);
        let label = format!("partition/{seed}");
        assert_converged(&label, &reference, &report);
        if report.chaos.workers_declared_dead > 0 {
            assert!(
                report.chaos.redispatches + report.chaos.degraded_local > 0,
                "{label}: dead workers but no failover"
            );
        }
    }
}

#[test]
fn hung_workers_fail_over_and_the_archive_survives() {
    let code = paper_code();
    let mut cfg = base_cfg(11);
    cfg.damaged = 4;
    cfg.chaos = Some(ChaosConfig {
        seed: 11,
        rates: ChaosRates {
            hang: 1.0,
            ..ChaosRates::default()
        },
        delay_ms: 5,
    });
    cfg.retry = RetryPolicy {
        deadline_ms: 40,
        max_attempts: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        hedge_after_ms: 0,
    };
    let report = run_sim(&code, &cfg, RepairMode::Partial).expect("hung sim");
    assert!(report.identical, "degraded repairs must still converge");
    assert_eq!(report.repaired, report.damaged);
    assert_eq!(report.chaos.workers_declared_dead as usize, cfg.workers);
    assert_eq!(report.chaos.degraded_local as usize, cfg.damaged);
}

#[test]
fn naive_mode_survives_chaos_too() {
    let code = paper_code();
    let cfg = SimConfig {
        chaos: Some(ChaosConfig {
            seed: 5,
            rates: ChaosRates {
                drop: 0.10,
                corrupt: 0.10,
                ..ChaosRates::default()
            },
            delay_ms: 5,
        }),
        ..base_cfg(5)
    };
    let report = run_sim(&code, &cfg, RepairMode::Naive).expect("naive chaotic sim");
    assert!(report.identical);
    assert_eq!(report.repaired, report.damaged);
}
