//! A simulated cluster repair over a sharded archive: the harness
//! around a [`Coordinator`]. It builds the damaged stripes and their
//! single-node reference repairs, hands the stripes to N worker
//! threads, lets the coordinator drive the repair over in-process
//! links — only plans and partial-sum blocks cross the wire — and
//! compares every repaired stripe with its reference.
//!
//! The archive is *simulated* at scale: stripe ids range over
//! `0..stripes` (a million by default) but only the damaged stripes are
//! ever materialized — each one's contents are a deterministic function
//! of `(seed, id)`, so the simulation holds dozens of stripes in memory
//! while behaving as if it sharded a million. Failure scenarios are
//! drawn from a small pool, matching the operational reality that a
//! failed disk produces the *same* erasure pattern across every stripe
//! it touches — which is exactly what lets one shipped
//! [`WirePlan`](ppm_core::WirePlan) amortize over a whole repair job.
//!
//! Every damaged stripe is materialised exactly once, by
//! `Archive::materialise`: the generated buffer is encoded and erased
//! in place and moved into its owner's shard, and the one copy taken of
//! it is the reference the result is compared against. Nothing is
//! retained for failover — a dead worker's stripe is materialised again
//! from `(seed, id)`. Materialisation and the reference repairs run
//! `nproc` stripes at a time; per-stripe RNGs and an ordered map keep
//! the result bit-for-bit the serial one.
//!
//! The links can optionally run through a
//! [`ChaosTransport`](crate::ChaosTransport) (see [`SimConfig::chaos`]);
//! the [`Coordinator`]'s supervision and failover keep the archive
//! converging bit-identical to the single-node reference, and
//! [`ChaosStats`] reports what it cost.

use crate::chaos::{ChaosConfig, ChaosCounters, ChaosTransport};
use crate::coordinator::{
    ChaosStats, Coordinator, Home, RepairJob, RepairMode, RetryPolicy, Traffic,
};
use crate::error::ClusterError;
use crate::frame::FRAME_VERSION;
use crate::transport::{channel_pair, Transport};
use crate::worker::Worker;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{par_map, DecoderConfig, RepairService};
use ppm_gf::GfWord;
use ppm_stripe::{fill_random_data, Stripe};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Shape of a simulated archive repair job.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Worker count; stripes are owned by `id % workers`.
    pub workers: usize,
    /// Archive size in stripes — the id space, not the resident set.
    pub stripes: u64,
    /// How many stripes carry injected erasures.
    pub damaged: usize,
    /// Size of the failure-scenario pool the damage is drawn from.
    pub scenarios: usize,
    /// Bytes per sector.
    pub sector_bytes: usize,
    /// Seed for damage placement, scenario drawing, and stripe contents.
    pub seed: u64,
    /// Thread budget for every decoder in the simulation.
    pub threads: usize,
    /// Frame envelope version on the links. Must be
    /// [`FRAME_VERSION`] (`2`: every frame sealed with a CRC and
    /// sequence number) — any other value is a configuration error.
    pub frame_version: u8,
    /// Fault injection on every coordinator↔worker link (per-link
    /// seeds derive from the configured seed).
    pub chaos: Option<ChaosConfig>,
    /// Supervision policy for every exchange.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workers: 4,
            stripes: 1_000_000,
            damaged: 16,
            scenarios: 3,
            sector_bytes: 4096,
            seed: 2015,
            threads: 1,
            frame_version: FRAME_VERSION,
            chaos: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Outcome of one [`run_sim`] call.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Repair mode the job ran under.
    pub mode: RepairMode,
    /// Worker count.
    pub workers: usize,
    /// Archive id space.
    pub archive_stripes: u64,
    /// Bytes per sector.
    pub sector_bytes: usize,
    /// Stripes that carried injected erasures.
    pub damaged: usize,
    /// Stripes repaired (always equals `damaged` on success).
    pub repaired: usize,
    /// Repairs whose `H_rest` was split: phase B ran at the
    /// coordinator on partial-sum blocks.
    pub split_rests: usize,
    /// Repairs finished entirely on the worker (no phase B, or a
    /// matrix-first `H_rest` that reads sectors directly).
    pub local_rests: usize,
    /// Distinct wire plans shipped (once per `(worker, plan key)`).
    pub plans_shipped: usize,
    /// Whether every repaired stripe came back bit-identical to the
    /// single-node [`RepairService`] reference repair.
    pub identical: bool,
    /// Repairs whose surplus-row verify pass came back clean.
    pub verified_clean: usize,
    /// Total violated surplus rows across all verify passes (zero on
    /// pure-erasure damage).
    pub violations: usize,
    /// Frame envelope version the links ran.
    pub frame_version: u8,
    /// Wire accounting.
    pub traffic: Traffic,
    /// Supervision and fault-injection accounting (all zero on a clean
    /// run).
    pub chaos: ChaosStats,
    /// Wall time of the whole call; the four phases below run one after
    /// the other and account for all but its fixed set-up.
    pub wall_nanos: u64,
    /// Wall time of materialising the damaged stripes (generate, encode,
    /// erase), `nproc` stripes at a time.
    pub materialise_nanos: u64,
    /// Wall time of the single-node reference: copying every damaged
    /// stripe and repairing the copies, `nproc` at a time.
    pub reference_nanos: u64,
    /// Wall time of [`Coordinator::repair`]: everything on the wire.
    pub drive_nanos: u64,
    /// Wall time of shutting the workers down, collecting their shards
    /// and comparing every stripe with its reference.
    pub compare_nanos: u64,
    /// Median time one stripe spent being driven (first request to last
    /// acknowledgement, failover included).
    pub stripe_p50_nanos: u64,
    /// 99th percentile of the same.
    pub stripe_p99_nanos: u64,
    /// The slowest stripe.
    pub stripe_max_nanos: u64,
    /// Per worker, time spent serving requests.
    pub worker_busy_nanos: Vec<u64>,
    /// Per worker, time spent waiting for the coordinator's next frame.
    pub worker_wait_nanos: Vec<u64>,
}

impl SimReport {
    /// Serializes the report as a JSON object (hand-rolled, like
    /// [`PlanCacheStats::to_json`](ppm_core::PlanCacheStats::to_json)).
    pub fn to_json(&self) -> String {
        let list = |nanos: &[u64]| {
            let items: Vec<String> = nanos.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"mode\":\"{}\",\"workers\":{},\"archive_stripes\":{},\
             \"sector_bytes\":{},\"damaged\":{},\"repaired\":{},\
             \"split_rests\":{},\"local_rests\":{},\"plans_shipped\":{},\
             \"identical\":{},\"verified_clean\":{},\"violations\":{},\
             \"frame_version\":{},\
             \"to_workers_bytes\":{},\"from_workers_bytes\":{},\
             \"plan_bytes\":{},\"frames\":{},\"total_bytes\":{},\
             \"chaos\":{},\
             \"wall_nanos\":{},\"materialise_nanos\":{},\"reference_nanos\":{},\
             \"drive_nanos\":{},\"compare_nanos\":{},\
             \"stripe_p50_nanos\":{},\"stripe_p99_nanos\":{},\"stripe_max_nanos\":{},\
             \"worker_busy_nanos\":{},\"worker_wait_nanos\":{}}}",
            self.mode.name(),
            self.workers,
            self.archive_stripes,
            self.sector_bytes,
            self.damaged,
            self.repaired,
            self.split_rests,
            self.local_rests,
            self.plans_shipped,
            self.identical,
            self.verified_clean,
            self.violations,
            self.frame_version,
            self.traffic.to_workers_bytes,
            self.traffic.from_workers_bytes,
            self.traffic.plan_bytes,
            self.traffic.frames,
            self.traffic.total_bytes(),
            self.chaos.to_json(),
            self.wall_nanos,
            self.materialise_nanos,
            self.reference_nanos,
            self.drive_nanos,
            self.compare_nanos,
            self.stripe_p50_nanos,
            self.stripe_p99_nanos,
            self.stripe_max_nanos,
            list(&self.worker_busy_nanos),
            list(&self.worker_wait_nanos),
        )
    }
}

/// The simulated archive: every stripe's contents and damage are a pure
/// function of `(seed, id)`.
struct Archive<'a, W: GfWord, C: ErasureCode<W>> {
    code: &'a C,
    service: &'a RepairService<W, &'a C>,
    cfg: &'a SimConfig,
    /// The failure scenarios the damage is drawn from; never empty.
    pool: Vec<FailureScenario>,
}

impl<W: GfWord, C: ErasureCode<W>> Archive<'_, W, C> {
    /// An all-zero stripe of the archive's geometry, for
    /// [`fill`](Self::fill).
    fn blank(&self) -> Stripe {
        Stripe::zeroed(self.code.layout(), self.cfg.sector_bytes)
    }

    /// Turns a blank stripe into damaged stripe `id` and returns what
    /// failed in it: data drawn from `(seed, id)`, encoded and erased,
    /// all in the one buffer.
    fn fill(&self, id: u64, stripe: &mut Stripe) -> Result<FailureScenario, ClusterError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        fill_random_data(self.code, stripe, &mut rng);
        self.service.encode(stripe)?;
        let scenario = self
            .pool
            .get((id % self.pool.len().max(1) as u64) as usize)
            .cloned()
            .ok_or_else(|| ClusterError::Protocol("empty failure-scenario pool".into()))?;
        stripe.erase(&scenario);
        Ok(scenario)
    }

    /// The one way a damaged stripe comes into being: [`blank`]
    /// (Self::blank) then [`fill`](Self::fill). Calling it again —
    /// failover does, for a stripe whose worker died — gives the same
    /// scenario and the same bytes.
    fn materialise(&self, id: u64) -> Result<(FailureScenario, Stripe), ClusterError> {
        let mut stripe = self.blank();
        let scenario = self.fill(id, &mut stripe)?;
        Ok((scenario, stripe))
    }
}

/// Runs a full simulated cluster repair and checks it bit-for-bit
/// against single-node [`RepairService::repair_verified`].
///
/// The harness materialises each damaged stripe deterministically,
/// repairs a copy through the reference service, and hands the damaged
/// original to its owning worker. A [`Coordinator`] then drives the
/// repair over in-process channel transports in the requested
/// [`RepairMode`] — through a fault-injecting
/// [`ChaosTransport`](crate::ChaosTransport) when [`SimConfig::chaos`]
/// is set — supervised per [`SimConfig::retry`], with worker failover
/// on retry exhaustion. Finally the harness shuts the workers down,
/// collects the shards (and any degraded-local orphans), and compares
/// every repaired stripe against the reference.
///
/// # Errors
/// [`ClusterError::Protocol`] on nonsensical configuration, worker-side
/// failures, or out-of-protocol responses; [`ClusterError::Repair`] /
/// [`ClusterError::Wire`] / [`ClusterError::Io`] when planning,
/// compilation, or transport fail.
pub fn run_sim<W, C>(code: &C, cfg: &SimConfig, mode: RepairMode) -> Result<SimReport, ClusterError>
where
    W: GfWord,
    C: ErasureCode<W>,
{
    if cfg.workers == 0 {
        return Err(ClusterError::Protocol("workers must be >= 1".into()));
    }
    if cfg.stripes == 0 || cfg.damaged == 0 || cfg.scenarios == 0 {
        return Err(ClusterError::Protocol(
            "stripes, damaged, and scenarios must all be >= 1".into(),
        ));
    }
    if cfg.damaged as u64 > cfg.stripes {
        return Err(ClusterError::Protocol(
            "cannot damage more stripes than the archive holds".into(),
        ));
    }
    if cfg.sector_bytes == 0 || cfg.threads == 0 {
        return Err(ClusterError::Protocol(
            "sector_bytes and threads must be >= 1".into(),
        ));
    }
    if cfg.frame_version != FRAME_VERSION {
        return Err(ClusterError::Protocol(format!(
            "unsupported frame version {} (every link speaks v{FRAME_VERSION})",
            cfg.frame_version
        )));
    }
    if let Some(chaos) = &cfg.chaos {
        let total = chaos.rates.total();
        if !(0.0..=1.0).contains(&total) {
            return Err(ClusterError::Protocol(format!(
                "chaos rates sum to {total}, must stay within [0, 1]"
            )));
        }
    }

    let wall = Instant::now();
    let config = DecoderConfig {
        threads: cfg.threads,
        ..DecoderConfig::default()
    };
    let service = RepairService::new(code, config);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = scenario_pool(&service, cfg, code.layout().sectors(), &mut rng)?;
    let archive = Archive {
        code,
        service: &service,
        cfg,
        pool,
    };

    // Damage placement over the full id space; only these ids are ever
    // materialized.
    let mut damaged_ids: BTreeSet<u64> = BTreeSet::new();
    while damaged_ids.len() < cfg.damaged {
        damaged_ids.insert(rng.random_range(0..cfg.stripes));
    }

    // Build phase. The stripe-sized buffers — the damaged stripes, and
    // the one copy of each that the single-node reference repairs — are
    // allocated here on the calling thread, which also frees them, so
    // call after call reuses the same pages; allocated on short-lived
    // helpers they would strand in whichever malloc arena each helper
    // happened to get (measured: +100 MiB peak RSS, −15 % throughput).
    // The work on them runs `nproc` stripes at a time.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let materialising = Instant::now();
    let mut damaged: Vec<Stripe> = damaged_ids.iter().map(|_| archive.blank()).collect();
    let scenarios = par_map(
        nproc,
        damaged_ids.iter().zip(&mut damaged),
        |(&id, stripe)| archive.fill(id, stripe),
    )?;
    let materialise_nanos = materialising.elapsed().as_nanos() as u64;

    let referencing = Instant::now();
    let mut references = damaged.clone();
    par_map(
        nproc,
        references.iter_mut().zip(&scenarios),
        |(expected, scenario)| {
            service.repair_verified(expected, scenario)?;
            Ok::<_, ClusterError>(())
        },
    )?;
    let reference_nanos = referencing.elapsed().as_nanos() as u64;

    let jobs: Vec<RepairJob> = damaged_ids
        .iter()
        .zip(scenarios)
        .map(|(&stripe, scenario)| RepairJob { stripe, scenario })
        .collect();
    let mut shards: Vec<HashMap<u64, Stripe>> = (0..cfg.workers).map(|_| HashMap::new()).collect();
    for (job, damaged) in jobs.iter().zip(damaged) {
        let owner = (job.stripe % cfg.workers as u64) as usize;
        if let Some(shard) = shards.get_mut(owner) {
            shard.insert(job.stripe, damaged);
        }
    }

    // Spawn the workers on their own threads, each holding its shard;
    // wrap the coordinator end of each link in chaos when configured.
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(cfg.workers);
    let mut chaos_counters: Vec<Arc<ChaosCounters>> = Vec::new();
    let mut handles = Vec::with_capacity(cfg.workers);
    for (w, shard) in shards.into_iter().enumerate() {
        let (coordinator_end, worker_end) = channel_pair();
        let worker: Worker<W> = Worker::new(w, shard, config);
        handles.push(std::thread::spawn(move || worker.serve(&worker_end)));
        transports.push(match &cfg.chaos {
            Some(chaos) => {
                let chaotic = ChaosTransport::new(coordinator_end, chaos.for_link(w as u64));
                chaos_counters.push(chaotic.counters());
                Box::new(chaotic)
            }
            None => Box::new(coordinator_end),
        });
    }

    let drive = Instant::now();
    let mut coordinator =
        Coordinator::new(&service, transports, cfg.retry, cfg.sector_bytes, cfg.seed);
    let outcome = coordinator.repair(mode, &jobs, &|job| {
        archive.materialise(job.stripe).map(|(_, damaged)| damaged)
    });
    let drive_nanos = drive.elapsed().as_nanos() as u64;

    // Always shut the workers down and join them, even on a drive
    // error, so threads never outlive the call; `serve` hands the shard
    // back however its loop ended.
    let compare = Instant::now();
    let (traffic, mut chaos) = coordinator.shutdown();
    for counters in &chaos_counters {
        chaos.injected.absorb(&counters.snapshot());
    }
    let mut final_shards: Vec<HashMap<u64, Stripe>> = Vec::with_capacity(cfg.workers);
    let mut worker_busy_nanos = Vec::with_capacity(cfg.workers);
    let mut worker_wait_nanos = Vec::with_capacity(cfg.workers);
    for handle in handles {
        let (shard, _closed, worker_stats) = handle
            .join()
            .map_err(|_| ClusterError::Protocol("worker thread panicked".into()))?;
        chaos.corrupt_frames_caught += worker_stats.corrupt_caught;
        chaos.dup_frames_dropped += worker_stats.dups_dropped;
        worker_busy_nanos.push(worker_stats.busy_nanos);
        worker_wait_nanos.push(worker_stats.wait_nanos);
        final_shards.push(shard);
    }
    let outcome = outcome?;

    let identical =
        jobs.iter()
            .zip(&outcome.homes)
            .zip(&references)
            .all(|((job, home), expected)| {
                let repaired = match home {
                    Home::Worker(w) => final_shards.get(*w).and_then(|s| s.get(&job.stripe)),
                    Home::Coordinator => outcome.orphans.get(&job.stripe),
                };
                repaired == Some(expected)
            });

    let mut latencies = outcome.drive_nanos;
    latencies.sort_unstable();
    // Nearest-rank percentile; 0 when nothing was repaired.
    let percentile = |pct: usize| {
        let rank = (latencies.len() * pct).div_ceil(100).max(1);
        latencies.get(rank - 1).copied().unwrap_or(0)
    };
    Ok(SimReport {
        mode,
        workers: cfg.workers,
        archive_stripes: cfg.stripes,
        sector_bytes: cfg.sector_bytes,
        damaged: cfg.damaged,
        repaired: outcome.homes.len(),
        split_rests: outcome.tally.split_rests,
        local_rests: outcome.tally.local_rests,
        plans_shipped: outcome.tally.plans_shipped,
        identical,
        verified_clean: outcome.tally.verified_clean,
        violations: outcome.tally.violations,
        frame_version: cfg.frame_version,
        traffic,
        chaos,
        wall_nanos: wall.elapsed().as_nanos() as u64,
        materialise_nanos,
        reference_nanos,
        drive_nanos,
        compare_nanos: compare.elapsed().as_nanos() as u64,
        stripe_p50_nanos: percentile(50),
        stripe_p99_nanos: percentile(99),
        stripe_max_nanos: percentile(100),
        worker_busy_nanos,
        worker_wait_nanos,
    })
}

/// Draws a pool of decodable failure scenarios: distinct sector sets of
/// size `1..=fault_tolerance` for which the planner can actually build
/// a plan.
fn scenario_pool<W, C>(
    service: &RepairService<W, &C>,
    cfg: &SimConfig,
    total_sectors: usize,
    rng: &mut StdRng,
) -> Result<Vec<FailureScenario>, ClusterError>
where
    W: GfWord,
    C: ErasureCode<W>,
{
    let max_faults = service
        .planner()
        .fault_tolerance()
        .min(total_sectors.saturating_sub(1))
        .max(1);
    let mut pool: Vec<FailureScenario> = Vec::new();
    let mut attempts = 0;
    while pool.len() < cfg.scenarios && attempts < 64 * cfg.scenarios {
        attempts += 1;
        let faults = rng.random_range(1..=max_faults);
        let mut sectors: BTreeSet<usize> = BTreeSet::new();
        while sectors.len() < faults {
            sectors.insert(rng.random_range(0..total_sectors));
        }
        let scenario = FailureScenario::new(sectors.into_iter().collect());
        if pool.contains(&scenario) {
            continue;
        }
        if service.planner().plan_for(&scenario).is_ok() {
            pool.push(scenario);
        }
    }
    if pool.is_empty() {
        return Err(ClusterError::Protocol(
            "no decodable failure scenario found for this code".into(),
        ));
    }
    Ok(pool)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::chaos::ChaosConfig;
    use ppm_codes::{HitchhikerXor, LrcCode, PmdsCode, ProductCode, RsCode, SdCode};
    use ppm_faults::ChaosRates;

    fn paper_code() -> SdCode<u8> {
        // The paper's running example: SD^{1,1}_{4,4}(8|1,2).
        SdCode::new(4, 4, 1, 1, vec![1, 2]).expect("paper code")
    }

    fn small_cfg(workers: usize) -> SimConfig {
        SimConfig {
            workers,
            stripes: 1_000_000,
            damaged: 12,
            scenarios: 3,
            sector_bytes: 512,
            seed: 2015,
            threads: 1,
            frame_version: FRAME_VERSION,
            chaos: None,
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn partial_repair_is_bit_identical_across_worker_counts() {
        let code = paper_code();
        for workers in [1, 2, 4] {
            let report =
                run_sim(&code, &small_cfg(workers), RepairMode::Partial).expect("sim runs");
            assert!(report.identical, "{workers} workers diverged");
            assert_eq!(report.repaired, report.damaged);
            assert_eq!(report.split_rests + report.local_rests, report.repaired);
            assert_eq!(report.violations, 0);
            // One shipped plan per (worker, scenario) at most.
            assert!(report.plans_shipped <= workers * 3);
            // Clean links: supervision never fires.
            assert_eq!(report.chaos, ChaosStats::default());
        }
    }

    #[test]
    fn naive_repair_is_bit_identical() {
        let code = paper_code();
        let report = run_sim(&code, &small_cfg(4), RepairMode::Naive).expect("sim runs");
        assert!(report.identical);
        assert_eq!(report.repaired, report.damaged);
        assert_eq!(report.verified_clean, report.repaired);
        assert_eq!(report.plans_shipped, 0);
    }

    /// Moving plans and partial sums beats moving sectors, strictly, for
    /// every code family — and both modes land on the single-node repair.
    #[test]
    fn partial_mode_moves_fewer_bytes_than_naive() {
        let codes: [(&str, Box<dyn ErasureCode<u8>>); 6] = [
            ("sd_4_4", Box::new(paper_code())),
            (
                "pmds_6_4",
                Box::new(PmdsCode::<u8>::search(6, 4, 1, 1, 7, 3).expect("PMDS code")),
            ),
            (
                "lrc_6_2_2",
                Box::new(LrcCode::<u8>::new(6, 2, 2, 3).expect("LRC code")),
            ),
            (
                "rs_5_3",
                Box::new(RsCode::<u8>::new(5, 3, 4).expect("RS code")),
            ),
            (
                "pc_4_2_3_2",
                Box::new(ProductCode::<u8>::new(4, 2, 3, 2).expect("product code")),
            ),
            (
                "hh_5_3",
                Box::new(HitchhikerXor::<u8>::new(5, 3).expect("Hitchhiker code")),
            ),
        ];
        let cfg = small_cfg(4);
        for (name, code) in &codes {
            let code = &**code;
            let partial = run_sim(&code, &cfg, RepairMode::Partial).expect("partial");
            let naive = run_sim(&code, &cfg, RepairMode::Naive).expect("naive");
            assert!(partial.identical, "{name}: partial repair diverged");
            assert!(naive.identical, "{name}: naive repair diverged");
            assert_eq!(partial.repaired, cfg.damaged, "{name}: partial short");
            assert_eq!(naive.repaired, cfg.damaged, "{name}: naive short");
            assert_eq!(partial.violations, 0, "{name}: verify violations");
            assert!(
                partial.traffic.total_bytes() < naive.traffic.total_bytes(),
                "{name}: partial moved {} bytes, naive {}",
                partial.traffic.total_bytes(),
                naive.traffic.total_bytes()
            );
        }
    }

    /// Everything `run_sim` counts (times are not counts).
    fn counters(r: &SimReport) -> (Traffic, [usize; 5]) {
        (
            r.traffic,
            [
                r.plans_shipped,
                r.split_rests,
                r.local_rests,
                r.verified_clean,
                r.repaired,
            ],
        )
    }

    /// The links are driven on their own threads, and nothing counted
    /// may depend on how those threads interleave: two runs of a seed
    /// agree on the whole counter set at every worker count, and they
    /// agree with what the serial coordinator this one replaced (commit
    /// 5444d2c) counted for the same seed — the frozen benchmark's
    /// `wire_bytes_per_op` and `cluster.frames_per_stripe` are
    /// exact-repeat counts.
    #[test]
    fn sim_is_deterministic_for_a_seed() {
        let code = paper_code();
        let traffic = |to_workers_bytes, plan_bytes, frames| Traffic {
            to_workers_bytes,
            from_workers_bytes: 10_956,
            plan_bytes,
            frames,
        };
        let recorded = [
            (1, traffic(13_601, 2_018, 45), 3),
            (2, traffic(14_980, 3_374, 46), 5),
            (3, traffic(13_631, 2_018, 47), 3),
            (5, traffic(17_055, 5_392, 49), 8),
        ];
        for (workers, traffic, plans_shipped) in recorded {
            let cfg = small_cfg(workers);
            let a = run_sim(&code, &cfg, RepairMode::Partial).expect("a");
            let b = run_sim(&code, &cfg, RepairMode::Partial).expect("b");
            assert_eq!(counters(&a), counters(&b), "{workers} workers");
            assert_eq!(
                counters(&a),
                (traffic, [plans_shipped, 10, 2, 12, 12]),
                "{workers} workers against the serial coordinator"
            );
        }
    }

    /// Failover re-materialises a dead worker's stripe instead of
    /// keeping a copy of every stripe around: the second materialisation
    /// must be the first, byte for byte.
    #[test]
    fn materialising_a_stripe_twice_gives_identical_bytes() {
        let code = paper_code();
        let cfg = small_cfg(2);
        let service = RepairService::new(&code, DecoderConfig::default());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pool = scenario_pool(&service, &cfg, code.layout().sectors(), &mut rng).unwrap();
        let archive = Archive {
            code: &code,
            service: &service,
            cfg: &cfg,
            pool,
        };
        for id in [0, 7, 999_999] {
            let (scenario, damaged) = archive.materialise(id).unwrap();
            assert_eq!(
                archive.materialise(id).unwrap(),
                (scenario.clone(), damaged.clone())
            );
            // And it is damaged: the scenario's sectors are erased.
            for &s in scenario.faulty() {
                assert!(damaged.sector(s).iter().all(|&b| b == 0));
            }
        }
        assert_ne!(
            archive.materialise(0).unwrap().1,
            archive.materialise(1).unwrap().1
        );
    }

    #[test]
    fn nonsense_configs_are_rejected() {
        let code = paper_code();
        let bad = SimConfig {
            workers: 0,
            ..small_cfg(1)
        };
        assert!(run_sim(&code, &bad, RepairMode::Partial).is_err());
        let bad = SimConfig {
            damaged: 100,
            stripes: 10,
            ..small_cfg(2)
        };
        assert!(run_sim(&code, &bad, RepairMode::Partial).is_err());
        // The unsealed v1 wire image is gone: only v2 is a valid version.
        for frame_version in [0, 1, 3] {
            let bad = SimConfig {
                frame_version,
                ..small_cfg(2)
            };
            let err = run_sim(&code, &bad, RepairMode::Partial).unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol(m) if m.contains("frame version")),
                "{err}"
            );
        }
        // Fault mass over 1.0 is rejected, not a panic.
        let bad = SimConfig {
            chaos: Some(ChaosConfig {
                rates: ChaosRates {
                    drop: 0.8,
                    corrupt: 0.8,
                    ..ChaosRates::default()
                },
                ..ChaosConfig::default()
            }),
            ..small_cfg(2)
        };
        assert!(run_sim(&code, &bad, RepairMode::Partial).is_err());
    }

    #[test]
    fn report_json_carries_the_grep_targets() {
        let code = paper_code();
        let report = run_sim(&code, &small_cfg(2), RepairMode::Partial).expect("sim");
        let json = report.to_json();
        for needle in [
            "\"mode\":\"partial\"",
            "\"workers\":2",
            "\"identical\":true",
            "\"total_bytes\":",
            "\"plan_bytes\":",
            "\"frame_version\":2",
            "\"chaos\":{\"retries\":0",
            "\"injected\":{\"dropped\":0",
            "\"wall_nanos\":",
            "\"materialise_nanos\":",
            "\"reference_nanos\":",
            "\"drive_nanos\":",
            "\"compare_nanos\":",
            "\"stripe_p50_nanos\":",
            "\"stripe_p99_nanos\":",
            "\"stripe_max_nanos\":",
            "\"worker_busy_nanos\":[",
            "\"worker_wait_nanos\":[",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The phases are inside the wall, and the latency summary is
        // ordered.
        assert!(report.drive_nanos + report.compare_nanos <= report.wall_nanos);
        assert!(report.stripe_p50_nanos > 0);
        assert!(report.stripe_p50_nanos <= report.stripe_p99_nanos);
        assert!(report.stripe_p99_nanos <= report.stripe_max_nanos);
        assert_eq!(report.worker_busy_nanos.len(), 2);
        assert!(report.worker_busy_nanos.iter().all(|&n| n > 0));
    }
}
