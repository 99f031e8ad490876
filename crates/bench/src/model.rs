//! The paper's metrics and the multi-core execution model.

use ppm_core::DecodePlan;
use ppm_gf::GfWord;

/// Per-thread spawn overhead the model columns assume: the order of
/// magnitude of creating and joining one scoped thread (`par_map` spawns
/// per decode, as the paper does). An assumption, not a measurement —
/// `benchmark/`'s `executor.thread_speedup` is the measured counterpart.
pub const SPAWN_OVERHEAD: f64 = 15e-6;

/// The paper's improvement ratio: how much faster `new` is than `base`
/// (0.5 = "50% improvement", i.e. 1.5× the speed).
pub fn improvement(base_secs: f64, new_secs: f64) -> f64 {
    base_secs / new_secs - 1.0
}

/// Decode throughput in MB/s for a stripe of `bytes`.
pub fn throughput_mbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// Models the wall-clock of executing `plan` with `threads` threads on a
/// machine with `cores` cores, calibrated by a measured serial run.
///
/// This is the paper's own §III-C time model: the `p` independent
/// sub-matrices cost `c₀..c_{p−1}` (here in mult_XORs, converted to time
/// via the measured per-mult_XOR constant `τ = serial_secs / total_cost`);
/// they are LPT-scheduled onto `min(threads, cores, p)` workers, the ideal
/// saving being `Σcᵢ − c_max`; `H_rest` runs serially afterwards; and each
/// extra thread adds `spawn_overhead` (the paper: "some additional time is
/// spent on creating multiple threads", small relative to large sectors).
///
/// Used for the columns that stand in for the paper's 4-, 6- and 8-core
/// machines — see DESIGN.md §3. With `threads = 1` (or `cores = 1`) it
/// returns the serial time plus nothing, so measured and modeled columns
/// coincide there.
pub fn modeled_decode_time<W: GfWord>(
    plan: &DecodePlan<W>,
    serial_secs: f64,
    threads: usize,
    cores: usize,
    spawn_overhead: f64,
) -> f64 {
    let costs = plan.independent_costs();
    let total = plan.mult_xors();
    if total == 0 {
        return 0.0;
    }
    let tau = serial_secs / total as f64;
    let workers = threads.min(cores).max(1).min(costs.len().max(1));
    let makespan = lpt_makespan(&costs, workers);
    let extra_threads = workers.saturating_sub(1);
    (makespan + plan.rest_cost()) as f64 * tau + extra_threads as f64 * spawn_overhead
}

/// Like [`modeled_decode_time`], but with the `H_rest` phase *also*
/// parallelized across the workers, as a threaded decode of long sectors
/// does: it cuts every sector into 4 KiB spans and runs the whole tape,
/// `H_rest` included, on each span, so the byte-wise-independent region
/// work of the remaining sub-matrix is split instead of left serial.
/// Phase A is still modeled per sub-matrix. The span-dispatch overhead
/// is folded into `spawn_overhead`.
pub fn modeled_decode_time_chunked<W: GfWord>(
    plan: &DecodePlan<W>,
    serial_secs: f64,
    threads: usize,
    cores: usize,
    spawn_overhead: f64,
) -> f64 {
    let costs = plan.independent_costs();
    let total = plan.mult_xors();
    if total == 0 {
        return 0.0;
    }
    let tau = serial_secs / total as f64;
    let workers = threads.min(cores).max(1);
    let phase_a_workers = workers.min(costs.len().max(1));
    let makespan = lpt_makespan(&costs, phase_a_workers);
    let rest = (plan.rest_cost() as f64 / workers as f64).ceil();
    let extra_threads = workers.saturating_sub(1);
    (makespan as f64 + rest) * tau + extra_threads as f64 * spawn_overhead
}

/// Longest-processing-time-first makespan of `jobs` on `workers` machines.
fn lpt_makespan(jobs: &[usize], workers: usize) -> usize {
    if jobs.is_empty() {
        return 0;
    }
    let mut sorted = jobs.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0usize; workers.max(1)];
    for j in sorted {
        let min = loads.iter_mut().min().expect("non-empty loads");
        *min += j;
    }
    loads.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use ppm_core::Strategy;
    use ppm_gf::Backend;

    #[test]
    fn improvement_metric() {
        assert!((improvement(2.0, 1.0) - 1.0).abs() < 1e-12); // 2x faster = 100%
        assert!((improvement(1.5, 1.0) - 0.5).abs() < 1e-12);
        assert!(improvement(1.0, 2.0) < 0.0);
    }

    #[test]
    fn lpt_basics() {
        assert_eq!(lpt_makespan(&[], 4), 0);
        assert_eq!(lpt_makespan(&[5, 5, 5], 1), 15);
        assert_eq!(lpt_makespan(&[5, 5, 5], 3), 5);
        assert_eq!(lpt_makespan(&[4, 3, 3, 2], 2), 6); // 4+2 / 3+3
        assert_eq!(lpt_makespan(&[10, 1, 1], 8), 10); // bounded by longest
    }

    #[test]
    fn model_reduces_to_serial_at_one_thread() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = DecodePlan::build(
            &code.parity_check_matrix(),
            &FailureScenario::new(vec![2, 6, 10, 13, 14]),
            Strategy::PpmNormalRest,
            Backend::Scalar,
        )
        .unwrap();
        let serial = 1.0;
        let t1 = modeled_decode_time(&plan, serial, 1, 8, 0.0);
        assert!(
            (t1 - serial).abs() < 1e-9,
            "T=1 model must equal serial, got {t1}"
        );
        // With 3 threads the three 3-cost groups run concurrently:
        // makespan 3 + rest 20 of total 29.
        let t3 = modeled_decode_time(&plan, serial, 3, 8, 0.0);
        assert!((t3 - 23.0 / 29.0).abs() < 1e-9, "got {t3}");
        // Extra threads beyond p don't help further.
        let t8 = modeled_decode_time(&plan, serial, 8, 8, 0.0);
        assert!((t8 - t3).abs() < 1e-12);
        // But a core cap does: cores=1 pins it back to serial.
        let c1 = modeled_decode_time(&plan, serial, 8, 1, 0.0);
        assert!((c1 - serial).abs() < 1e-9);
    }

    #[test]
    fn spawn_overhead_counts_extra_threads() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let plan = DecodePlan::build(
            &code.parity_check_matrix(),
            &FailureScenario::new(vec![2, 6, 10, 13, 14]),
            Strategy::PpmNormalRest,
            Backend::Scalar,
        )
        .unwrap();
        let without = modeled_decode_time(&plan, 1.0, 3, 8, 0.0);
        let with = modeled_decode_time(&plan, 1.0, 3, 8, 0.1);
        assert!((with - without - 0.2).abs() < 1e-9);
    }
}
