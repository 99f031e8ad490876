//! The seven workloads and what they share.
//!
//! Each workload is a set of inputs generated from the seed, an
//! operation the program performs on them, and a check of what came
//! back. Shapes are fixed; only the number of operations scales with the
//! measuring time.

mod cli_archive;
mod cluster_repair;
mod repair;
mod update_zipf;

use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::probes::ProbeCtx;
use crate::trace::{Tracer, OP};
use ppm_codes::{ErasureCode, FailureScenario, LrcCode, PmdsCode, ProductCode, RsCode, SdCode};
use ppm_core::{ArenaStats, DecodeError, DecoderConfig, ExecStats, PlanCacheStats, RepairService};
use ppm_gf::Backend;
use ppm_stripe::{random_data_stripe, Stripe};
use rand::rngs::StdRng;

/// Workload names, in the order they run and are reported.
pub const NAMES: [&str; 7] = [
    "repair_large",
    "encode_mid",
    "repair_warm_small",
    "repair_cold_patterns",
    "update_zipf",
    "cluster_repair",
    "cli_archive",
];

/// Why each workload exists (one line; also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "repair_large" => "SD(16,16,2,2) 32 MiB stripes, worst-case repair, T=nproc: the paper's Fig. 8 point; bandwidth-bound kernels and tape dominate, planner is ~0",
        "encode_mid" => "LRC(12,2,2) 1 MiB L2-resident stripes, encode, T=1: the same kernels compute-bound, many destinations per source",
        "repair_warm_small" => "SD(6,4,2,1) 512 B sectors, 16 cached patterns, repair_batch of 256 at nproc workers: session-bound, cache hit, arena and thread hand-off dominate",
        "repair_cold_patterns" => "five code families, 4 KiB sectors, every op a never-seen pattern, T=1: plan build, factorisation and tape compile dominate; kernels do almost nothing",
        "update_zipf" => "UpdateEngine over 256 SD(8,8,2,2) stripes, Zipf(0.99) 1 KiB writes, 1 MiB LRU buffer: the write path beside the read path",
        "cluster_repair" => "run_sim partial-sum repair of 128 damaged LRC(12,2,2) stripes per call at nproc workers: wire plans, frames and coordinator hand-off on the blocking path",
        "cli_archive" => "ppm-cli encode, corrupt, repair, decode and compare of a 64 MiB file as subprocesses: process start, argument parsing and archive file I/O",
        _ => "",
    }
}

/// A code chosen at run time. Leaked on purpose: a handful of small
/// objects per process, and `'static` lets sessions, engines and probes
/// share one without lifetime plumbing.
pub type Code = &'static dyn ErasureCode<u8>;
pub type Service = RepairService<u8, Code>;

/// Builds a code from the CLI's spec syntax (`sd:n,r,m,s`,
/// `pmds:n,r,m,s`, `lrc:k,l,g,r`, `rs:k,m,r`, `pc:k1,m1,k2,m2`), with the
/// CLI's coefficient-search seed so both name the same code.
pub fn parse_code(spec: &str) -> Result<Box<dyn ErasureCode<u8>>, String> {
    let (family, params) = spec
        .split_once(':')
        .ok_or("code spec needs family:params")?;
    let p: Vec<usize> = params
        .split(',')
        .map(|x| {
            x.trim()
                .parse::<usize>()
                .map_err(|e| format!("{spec}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let err = |e: ppm_codes::CodeError| format!("{spec}: {e}");
    let code: Box<dyn ErasureCode<u8>> = match (family, p.as_slice()) {
        ("sd", &[n, r, m, s]) => Box::new(SdCode::<u8>::search(n, r, m, s, 2015, 3).map_err(err)?),
        ("pmds", &[n, r, m, s]) => {
            Box::new(PmdsCode::<u8>::search(n, r, m, s, 2015, 3).map_err(err)?)
        }
        ("lrc", &[k, l, g, r]) => Box::new(LrcCode::<u8>::new(k, l, g, r).map_err(err)?),
        ("rs", &[k, m, r]) => Box::new(RsCode::<u8>::new(k, m, r).map_err(err)?),
        ("pc", &[k1, m1, k2, m2]) => Box::new(ProductCode::<u8>::new(k1, m1, k2, m2).map_err(err)?),
        _ => return Err(format!("unsupported code spec {spec:?}")),
    };
    Ok(code)
}

/// [`parse_code`], leaked into a [`Code`] a workload keeps for good.
pub fn build_code(spec: &str) -> Result<Code, String> {
    parse_code(spec).map(|code| &*Box::leak(code))
}

pub fn decoder_config(threads: usize) -> DecoderConfig {
    DecoderConfig {
        threads,
        backend: Backend::Auto,
    }
}

pub fn service(code: Code, threads: usize) -> Service {
    RepairService::new(code, decoder_config(threads))
}

/// A random-data stripe encoded through `svc`.
pub fn encoded_stripe(
    svc: &Service,
    sector_bytes: usize,
    rng: &mut StdRng,
) -> Result<Stripe, String> {
    let mut stripe = random_data_stripe(svc.code(), sector_bytes, rng);
    svc.encode(&mut stripe)
        .map_err(|e| format!("encode: {e}"))?;
    Ok(stripe)
}

/// What checking one call found.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Operations the call attempted.
    pub ops: u64,
    /// Bytes those operations completed.
    pub bytes: u64,
    /// Operations that errored, were refused, or produced wrong bytes.
    pub failed: u64,
}

/// The executed side of the mult_XORs ledger, summed over a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub ops: u64,
    pub executed_mult_xors: u64,
    pub mismatches: u64,
    /// Predicted `mult_XORs` and region bytes of the first
    /// [`EXACT_PREFIX_OPS`] ops only.
    prefix_mult_xors: u64,
    prefix_region_bytes: u64,
}

/// Per-op counts are averaged over this many leading ops. How many ops
/// fit in the measuring time varies from run to run; the first thousand
/// are the same ops for the same seed, so the counts repeat exactly.
pub const EXACT_PREFIX_OPS: u64 = 1024;

impl Ledger {
    /// Folds one op's stats in; returns whether executed == predicted.
    pub fn absorb(&mut self, stats: &ExecStats) -> bool {
        let matches = stats.matches_prediction();
        if self.ops < EXACT_PREFIX_OPS {
            self.prefix_mult_xors += stats.predicted_mult_xors as u64;
            self.prefix_region_bytes += stats.bytes_moved();
        }
        self.ops += 1;
        self.executed_mult_xors += stats.executed_mult_xors();
        self.mismatches += u64::from(!matches);
        matches
    }

    /// The workload-derived planner/kernel counters every workload
    /// reports: exact `mult_XORs` per op, whether the executed count met
    /// the prediction every time, computed region bytes per op, and the
    /// session's cache and arena counters.
    pub fn put(&self, m: &mut Metrics, cache: PlanCacheStats, arena: ArenaStats) {
        let prefix = self.ops.clamp(1, EXACT_PREFIX_OPS) as f64;
        m.put(
            "plan.mult_xors_per_op",
            self.prefix_mult_xors as f64 / prefix,
        );
        m.put("gf.bytes_per_op", self.prefix_region_bytes as f64 / prefix);
        m.put(
            "plan.predicted_eq_executed",
            1.0 - self.mismatches as f64 / self.ops.max(1) as f64,
        );
        m.put("planner.hit_rate", cache.hit_rate());
        m.put("planner.evictions", cache.evictions as f64);
        let takes = (arena.reused + arena.fresh).max(1) as f64;
        m.put("arena.reuse_rate", arena.reused as f64 / takes);
        m.put("arena.contended", arena.contended as f64);
    }
}

/// One stripe repair: `RepairService::repair` untraced, or the same work
/// through the decomposed public path — `Planner::plan_for` →
/// `DecodePlan::ensure_tape` → `Executor::decode` — with a span around
/// each. The tape's execution (kernels included) runs inside
/// `Executor::decode`, so it enters the trace from the phase times
/// `ExecStats` reports.
pub fn repair_call(
    svc: &Service,
    stripe: &mut Stripe,
    scenario: &FailureScenario,
    tracer: Option<&mut Tracer>,
) -> Result<ExecStats, DecodeError> {
    let Some(t) = tracer else {
        return svc.repair(stripe, scenario);
    };
    t.span(OP, |t| {
        let (plan, _) = t.span("core.planner", |_| svc.planner().plan_for(scenario))?;
        t.span("core.tape.compile", |_| {
            plan.ensure_tape();
        });
        t.span("core.executor", |t| {
            let stats = svc.executor().decode(&plan, stripe)?;
            t.reported("core.tape.exec", tape_exec_ns(&stats), |_| {});
            Ok(stats)
        })
    })
}

/// Wall time `stats` spent executing tape segments (phase A is
/// parallel, so its wall time, not the sum of its sub-plans).
pub fn tape_exec_ns(stats: &ExecStats) -> u64 {
    (stats.phase_a_nanos + stats.phase_b_nanos()) as u64
}

/// One workload instance, set up and warm.
pub trait Workload {
    /// Calls grouped into one throughput sample.
    fn calls_per_round(&self) -> usize;
    /// Bytes the timed loop cycles through.
    fn working_set_bytes(&self) -> u64;
    /// Untimed: put call `index`'s inputs in place.
    fn prepare(&mut self, index: u64);
    /// Timed: the operation, through the traced path when `tracer` is set.
    fn call(&mut self, index: u64, tracer: Option<&mut Tracer>);
    /// Untimed: check what the call produced.
    fn check(&mut self, index: u64) -> Checked;
    /// Untimed, after the last call: end-of-run work and checks.
    fn finish(&mut self, _tracer: Option<&mut Tracer>) -> Checked {
        Checked::default()
    }
    /// `Traffic` bytes per repaired stripe; only `cluster_repair` has a wire.
    fn wire_bytes_per_op(&self) -> Option<f64> {
        None
    }
    /// The geometry the per-layer probes run at.
    fn probe_ctx(&self) -> ProbeCtx;
    /// Traced pass: counters from the workload itself and the metrics of
    /// the layer only this workload exercises.
    fn layer_metrics(&mut self, m: &mut Metrics, scale: Scale);
}

/// Sets up workload `name` from `seed`, warm-up included.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "repair_large" => Box::new(repair::PoolRepair::repair_large(seed, scale)?),
        "encode_mid" => Box::new(repair::PoolRepair::encode_mid(seed, scale)?),
        "repair_warm_small" => Box::new(repair::WarmBatch::new(seed, scale)?),
        "repair_cold_patterns" => Box::new(repair::ColdPatterns::new(seed, scale)?),
        "update_zipf" => Box::new(update_zipf::UpdateZipf::new(seed, scale)?),
        "cluster_repair" => Box::new(cluster_repair::ClusterRepair::new(seed, scale)?),
        "cli_archive" => Box::new(cli_archive::CliArchive::new(seed, scale)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}
