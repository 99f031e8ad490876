//! `cluster_repair`: coordinator/worker partial-sum repair.

use super::{build_code, Checked, Code, Workload};
use crate::host::nproc;
use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeCtx};
use crate::stats;
use crate::trace::{Tracer, OP};
use ppm_cluster::{run_sim, ClusterError, RepairMode, SimConfig, SimReport};
use ppm_codes::FailureScenario;
use ppm_core::Planner;
use ppm_gf::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SPEC: &str = "lrc:12,2,2,4";
const SECTOR_BYTES: usize = 16 << 10;

/// `run_sim(RepairMode::Partial)` over a 1 M-stripe id space: 128 damaged
/// stripes per call drawn over 8 scenarios, LRC(12,2,2) with 4 rows,
/// 16 KiB sectors, v2 frames, workers = nproc, no chaos (deadline timers
/// would make wall time measure the retry policy, not the code). A
/// sample is one call; ops are repaired stripes. Each call gets its own
/// seed derived from the run's, so no two calls repair the same damage.
pub struct ClusterRepair {
    code: Code,
    base: SimConfig,
    seed: u64,
    last: Option<Result<SimReport, ClusterError>>,
    call_ns: Vec<f64>,
    totals: Totals,
}

/// `SimReport` counters summed over the first [`EXACT_PREFIX_CALLS`]
/// checked calls: how many calls fit in the measuring time varies from
/// run to run, but the first three are the same repairs for the same
/// seed, so the counts made from them repeat exactly.
#[derive(Default)]
struct Totals {
    calls: u64,
    repaired: u64,
    wire_bytes: u64,
    plan_bytes: u64,
    frames: u64,
    plans_shipped: u64,
}

const EXACT_PREFIX_CALLS: u64 = 3;

impl ClusterRepair {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let code = build_code(SPEC)?;
        let base = SimConfig {
            workers: nproc(),
            stripes: 1_000_000,
            damaged: if scale.smoke { 8 } else { 128 },
            scenarios: 8,
            sector_bytes: SECTOR_BYTES,
            threads: 1,
            frame_version: 2,
            chaos: None,
            ..SimConfig::default()
        };
        let mut w = ClusterRepair {
            code,
            base,
            seed,
            last: None,
            call_ns: Vec::new(),
            totals: Totals::default(),
        };
        // Warm-up: one whole call, so the allocator holds the pages the
        // timed calls will reuse.
        w.call(u64::MAX, None);
        if w.check(u64::MAX).failed > 0 {
            return Err("cluster warm-up repair is not bit-identical".into());
        }
        w.call_ns.clear();
        w.totals = Totals::default();
        Ok(w)
    }

    fn config(&self, index: u64) -> SimConfig {
        SimConfig {
            seed: self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index),
            ..self.base
        }
    }

    fn stripe_bytes(&self) -> u64 {
        (self.code.layout().sectors() * SECTOR_BYTES) as u64
    }
}

impl Workload for ClusterRepair {
    fn calls_per_round(&self) -> usize {
        1
    }

    fn working_set_bytes(&self) -> u64 {
        self.base.damaged as u64 * self.stripe_bytes()
    }

    fn prepare(&mut self, _index: u64) {}

    fn call(&mut self, index: u64, tracer: Option<&mut Tracer>) {
        let cfg = self.config(index);
        let code = self.code;
        let started = Instant::now();
        self.last = Some(match tracer {
            None => run_sim::<u8, _>(&code, &cfg, RepairMode::Partial),
            // `run_sim` is the cluster layer's one public entry point and
            // `SimReport` carries no times, so the whole call is one span.
            Some(t) => t.span(OP, |t| {
                t.span("cluster", |_| {
                    run_sim::<u8, _>(&code, &cfg, RepairMode::Partial)
                })
            }),
        });
        self.call_ns.push(started.elapsed().as_nanos() as f64);
    }

    fn check(&mut self, _index: u64) -> Checked {
        let damaged = self.base.damaged as u64;
        let repaired = match self.last.take() {
            Some(Ok(report)) if report.identical && report.violations == 0 => {
                let t = &mut self.totals;
                if t.calls < EXACT_PREFIX_CALLS {
                    t.calls += 1;
                    t.repaired += report.repaired as u64;
                    t.wire_bytes += report.traffic.total_bytes();
                    t.plan_bytes += report.traffic.plan_bytes;
                    t.frames += report.traffic.frames;
                    t.plans_shipped += report.plans_shipped as u64;
                }
                (report.repaired as u64).min(damaged)
            }
            _ => 0,
        };
        Checked {
            ops: damaged,
            bytes: repaired * self.stripe_bytes(),
            failed: damaged - repaired,
        }
    }

    fn wire_bytes_per_op(&self) -> Option<f64> {
        let t = &self.totals;
        (t.repaired > 0).then(|| t.wire_bytes as f64 / t.repaired as f64)
    }

    fn probe_ctx(&self) -> ProbeCtx {
        // The first seeded pattern whose H_rest splits, so both halves of
        // partial-block repair (survivor partial sums, aggregator finish)
        // have something to do; drawn the way `run_sim` draws its pool.
        let sectors = self.code.layout().sectors();
        let planner = Planner::new(self.code, Backend::Auto);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let splits = |scenario: &FailureScenario| {
            planner
                .wire_plan_for(scenario)
                .ok()
                .and_then(|(wire, _)| wire.compile::<u8>(Backend::Auto).ok())
                .is_some_and(|compiled| compiled.has_phase_b() && compiled.rest_splittable())
        };
        let scenario = (0..256)
            .map(|_| {
                let faults = rng.random_range(1..=planner.fault_tolerance());
                FailureScenario::random(self.code.layout(), faults.min(sectors - 1), &mut rng)
            })
            .find(splits)
            .unwrap_or_else(|| FailureScenario::new(vec![0]));
        ProbeCtx {
            spec: SPEC,
            code: self.code,
            scenario,
            sector_bytes: SECTOR_BYTES,
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, scale: Scale) {
        let t = &self.totals;
        let repaired = t.repaired.max(1) as f64;
        m.put("cluster.frames_per_stripe", t.frames as f64 / repaired);
        m.put(
            "cluster.plan_bytes_per_stripe",
            t.plan_bytes as f64 / repaired,
        );
        m.put(
            "cluster.plans_shipped",
            t.plans_shipped as f64 / t.calls.max(1) as f64,
        );

        // The ship-everything baseline on the first call's damage.
        let cfg = self.config(0);
        let partial = run_sim::<u8, _>(&self.code, &cfg, RepairMode::Partial);
        let naive = run_sim::<u8, _>(&self.code, &cfg, RepairMode::Naive);
        if let (Ok(p), Ok(n)) = (partial, naive) {
            m.put(
                "cluster.partial_vs_naive_bytes",
                p.traffic.total_bytes() as f64 / n.traffic.total_bytes().max(1) as f64,
            );
        }

        // The same repair without a cluster: `repair_verified` of one
        // stripe on a local session, which is also what `run_sim` does
        // for its reference copy.
        let local_ns = probes::reference_repair(&self.probe_ctx(), 1, true, scale, m);
        if let Some(call_ns) = stats::median(&self.call_ns) {
            m.put(
                "cluster.sim_over_local_x",
                call_ns / self.base.damaged as f64 / local_ns,
            );
        }
    }
}
