//! `ppm-cli` — file-level erasure coding driven by the PPM library.
//!
//! Splits a file into stripes, encodes it with any code in the workspace
//! (over GF(2^8)), stores one strip per "device" file, and repairs lost
//! devices with the PPM decoder:
//!
//! ```text
//! ppm-cli encode  --code sd:6,8,2,2 [--sector-kib 64] [--stats] <input> <dir>
//! ppm-cli verify  <dir>                 # H·B = 0 for every stripe
//! ppm-cli corrupt <dir> --disks 1,3     # simulate device failures
//! ppm-cli repair  <dir> [--threads T] [--workers N] [--stats] [--verify] [--inject SEED]
//! ppm-cli update  <dir> (--trace FILE | --synth zipf|seq|uniform) [--ops N] [--write-bytes B]
//!                 [--policy lru|mmb|mms] [--buffer BYTES] [--workers N] [--seed S] [--naive] [--stats]
//! ppm-cli decode  <dir> <output>        # reassemble the original file
//! ppm-cli info    <dir>
//! ppm-cli cluster sim [--workers N] [--stripes M] [--damaged D] [--code spec]
//!                 [--bytes B] [--seed S] [--threads T] [--mode partial|naive|both] [--stats]
//!                 [--chaos SEED] [--drop R] [--corrupt R] [--truncate R] [--duplicate R]
//!                 [--reorder R] [--delay R] [--hang R] [--delay-ms MS]
//!                 [--deadline MS] [--retries N] [--hedge MS]
//! ```
//!
//! Code specs: `sd:n,r,m,s` · `pmds:n,r,m,s` · `lrc:k,l,g,r` · `rs:k,m,r` ·
//! `evenodd:p` · `rdp:p` · `star:p` · `pc:k1,m1,k2,m2` (row × column
//! product code over the sector grid) · `hh:k,m` (Hitchhiker-XOR).
//!
//! Every encode and repair runs through one `RepairService` session: the
//! plan is built once per erasure signature and cached, working buffers
//! are recycled through a scratch arena, and each stripe replays the
//! plan's compiled instruction tape — so every stripe after the first
//! performs zero matrix factorizations. `--stats` prints one JSON object
//! to stdout from the `ExecStats` each decode returns: aggregate executed
//! `mult_XORs` (counted by the region kernels) against the planner's
//! predicted cost, bytes moved, wall times, the session's `"cache"`
//! counters (hits/misses/evictions/hit_rate), and a per-sub-plan sample.
//!
//! `repair --workers N` repairs the whole archive through one shared
//! `RepairService` session driving `repair_batch`: the broken stripes
//! are read into memory and split across `N` worker threads (the
//! service picks inter-stripe vs intra-stripe parallelism adaptively —
//! see `DESIGN.md` §9), then written back. The summary line reports the
//! mode, throughput in stripes/s, and the session's plan-cache
//! (hits/misses/coalesced) and scratch-arena (reuses/fresh/contended)
//! counters.
//!
//! `repair --verify` checks every recovered stripe against the surplus
//! parity-check rows of `H` (the rows the decode did not consume) and,
//! on violation, runs erasure escalation: suspect surviving sectors are
//! promoted into the faulty set and the decode retried until the stripe
//! verifies clean or the code's fault-tolerance budget runs out.
//! `--inject SEED` (requires `--verify`) flips one random bit in one
//! surviving sector of every stripe before repairing it — a
//! deterministic end-to-end demonstration that silent corruption is
//! detected, located, and healed.
//!
//! `cluster sim` runs a simulated coordinator/worker repair over a
//! sharded archive (`ppm_cluster::run_sim`): stripe ids shard over `N`
//! worker threads by ownership, the coordinator ships each failure
//! scenario's serialized wire plan to the owning worker once, survivors
//! execute phase A locally, and only partial-sum blocks and recovered
//! sectors cross the in-process wire. Every repaired stripe is compared
//! bit-for-bit against a single-node `RepairService` repair; any
//! divergence is a hard error (nonzero exit). The summary line is
//! greppable (`cluster-sim ... identical=true ... ratio=...`), and
//! `--mode both` (the default) also runs the naive ship-everything
//! baseline so the line carries the measured bandwidth ratio, and each
//! run's wall time, drive time and per-stripe drive latency
//! (`<mode>_stripe_us=p50/p99/max`). `--stats` prints the full JSON
//! report(s), phase totals and per-worker busy/wait included.
//!
//! `cluster sim --chaos SEED` injects seeded faults into every
//! coordinator↔worker link (`ppm_cluster::ChaosTransport`): `--drop`,
//! `--corrupt`, `--truncate`, `--duplicate`, `--reorder`, `--delay`,
//! and `--hang` set per-frame probabilities (summing to at most 1),
//! `--delay-ms` sizes the delay fault. Frames travel in the v2 envelope
//! (CRC32 + sequence number), so corruption and duplication are caught
//! at the frame layer, while the supervised coordinator rides out loss
//! and silence with deadlines (`--deadline`), bounded retries
//! (`--retries`), straggler hedging (`--hedge`), and worker failover —
//! the repaired archive must *still* come back bit-identical, or the
//! command exits nonzero. The summary line gains
//! `chaos_seed=... injected=... retries=... corrupt_caught=...` fields
//! for CI to grep.
//!
//! `update` replays a small-write trace against a healthy archive
//! through the buffered update engine (`ppm_update::UpdateEngine`):
//! writes coalesce in a bounded dirty buffer (`--buffer`, evicting by
//! `--policy`), and each flush settles by delta-parity patching or full
//! re-encode, whichever the §III-B cost model prices cheaper. The trace
//! is either a CSV/JSONL file (`offset,len[,timestamp]`) or a seeded
//! synthetic workload (`--synth zipf[:SKEW]|seq|uniform`, `--ops`,
//! `--write-bytes`, `--seed` — payload bytes are derived
//! deterministically from the seed and op index, so two replays of the
//! same trace produce bit-identical archives). `--naive` forces every
//! flush down the full re-encode route — the ground-truth baseline the
//! buffered path is compared against in CI. `--workers N` drains the
//! final flush with N threads through the one shared session.

use ppm::update::trace::{parse_trace, synthesize, SynthKind, TraceOp};
use ppm::{
    parity_consistent, run_sim, Backend, ChaosConfig, ChaosRates, DecoderConfig, EngineConfig,
    ErasureCode, EvenOddCode, EvictionPolicy, ExecStats, FailureScenario, FaultInjector, FlushMode,
    HitchhikerXor, LrcCode, PlanCacheStats, PmdsCode, ProductCode, RdpCode, RepairMode,
    RepairService, RetryPolicy, RsCode, SdCode, SimConfig, SimReport, StarCode, Stripe,
    StripeLayout, UpdateEngine,
};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// All supported code families, monomorphized to GF(2^8).
enum Code {
    Sd(SdCode<u8>),
    Pmds(PmdsCode<u8>),
    Lrc(LrcCode<u8>),
    Rs(RsCode<u8>),
    EvenOdd(EvenOddCode<u8>),
    Rdp(RdpCode<u8>),
    Star(StarCode<u8>),
    Product(ProductCode<u8>),
    Hitchhiker(HitchhikerXor<u8>),
}

impl Code {
    fn parse(spec: &str) -> Result<Code, String> {
        let (family, params) = spec
            .split_once(':')
            .ok_or("code spec needs family:params")?;
        let nums: Vec<usize> = params
            .split(',')
            .map(|x| {
                x.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad number {x:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let wrong = |want: usize| format!("{family} expects {want} parameters, got {}", nums.len());
        let code = match family {
            "sd" => {
                if nums.len() != 4 {
                    return Err(wrong(4));
                }
                Code::Sd(
                    SdCode::search(nums[0], nums[1], nums[2], nums[3], 2015, 3)
                        .map_err(|e| e.to_string())?,
                )
            }
            "pmds" => {
                if nums.len() != 4 {
                    return Err(wrong(4));
                }
                Code::Pmds(
                    PmdsCode::search(nums[0], nums[1], nums[2], nums[3], 2015, 3)
                        .map_err(|e| e.to_string())?,
                )
            }
            "lrc" => {
                if nums.len() != 4 {
                    return Err(wrong(4));
                }
                Code::Lrc(
                    LrcCode::new(nums[0], nums[1], nums[2], nums[3]).map_err(|e| e.to_string())?,
                )
            }
            "rs" => {
                if nums.len() != 3 {
                    return Err(wrong(3));
                }
                Code::Rs(RsCode::new(nums[0], nums[1], nums[2]).map_err(|e| e.to_string())?)
            }
            "evenodd" => {
                if nums.len() != 1 {
                    return Err(wrong(1));
                }
                Code::EvenOdd(EvenOddCode::new(nums[0]).map_err(|e| e.to_string())?)
            }
            "rdp" => {
                if nums.len() != 1 {
                    return Err(wrong(1));
                }
                Code::Rdp(RdpCode::new(nums[0]).map_err(|e| e.to_string())?)
            }
            "star" => {
                if nums.len() != 1 {
                    return Err(wrong(1));
                }
                Code::Star(StarCode::new(nums[0]).map_err(|e| e.to_string())?)
            }
            "pc" => {
                if nums.len() != 4 {
                    return Err(wrong(4));
                }
                Code::Product(
                    ProductCode::new(nums[0], nums[1], nums[2], nums[3])
                        .map_err(|e| e.to_string())?,
                )
            }
            "hh" => {
                if nums.len() != 2 {
                    return Err(wrong(2));
                }
                Code::Hitchhiker(HitchhikerXor::new(nums[0], nums[1]).map_err(|e| e.to_string())?)
            }
            other => return Err(format!("unknown code family {other:?}")),
        };
        Ok(code)
    }

    fn as_dyn(&self) -> &dyn ErasureCode<u8> {
        match self {
            Code::Sd(c) => c,
            Code::Pmds(c) => c,
            Code::Lrc(c) => c,
            Code::Rs(c) => c,
            Code::EvenOdd(c) => c,
            Code::Rdp(c) => c,
            Code::Star(c) => c,
            Code::Product(c) => c,
            Code::Hitchhiker(c) => c,
        }
    }
}

/// The on-disk archive: a manifest plus one file per device.
struct Archive {
    dir: PathBuf,
    spec: String,
    code: Code,
    sector_bytes: usize,
    stripes: usize,
    file_len: u64,
}

impl Archive {
    const MANIFEST: &'static str = "ppm-manifest.txt";

    fn strip_path(&self, disk: usize) -> PathBuf {
        self.dir.join(format!("strip_{disk:03}.bin"))
    }

    fn save_manifest(&self) -> std::io::Result<()> {
        let text = format!(
            "code={}\nsector_bytes={}\nstripes={}\nfile_len={}\n",
            self.spec, self.sector_bytes, self.stripes, self.file_len
        );
        fs::write(self.dir.join(Self::MANIFEST), text)
    }

    fn load(dir: &Path) -> Result<Archive, String> {
        let text = fs::read_to_string(dir.join(Self::MANIFEST))
            .map_err(|e| format!("cannot read manifest in {}: {e}", dir.display()))?;
        let mut spec = None;
        let mut sector_bytes = None;
        let mut stripes = None;
        let mut file_len = None;
        for line in text.lines() {
            match line.split_once('=') {
                Some(("code", v)) => spec = Some(v.to_string()),
                Some(("sector_bytes", v)) => sector_bytes = v.parse().ok(),
                Some(("stripes", v)) => stripes = v.parse().ok(),
                Some(("file_len", v)) => file_len = v.parse().ok(),
                _ => {}
            }
        }
        let spec = spec.ok_or("manifest missing code=")?;
        Ok(Archive {
            dir: dir.to_path_buf(),
            code: Code::parse(&spec)?,
            spec,
            sector_bytes: sector_bytes.ok_or("manifest missing sector_bytes=")?,
            stripes: stripes.ok_or("manifest missing stripes=")?,
            file_len: file_len.ok_or("manifest missing file_len=")?,
        })
    }

    fn layout(&self) -> StripeLayout {
        self.code.as_dyn().layout()
    }

    /// Bytes of user data per stripe.
    fn data_per_stripe(&self) -> usize {
        self.code.as_dyn().data_sectors().len() * self.sector_bytes
    }

    /// Reads stripe `s` from the strip files. Missing or short devices
    /// yield zeroed sectors and are reported in the returned scenario.
    fn read_stripe(&self, s: usize) -> (Stripe, FailureScenario) {
        let layout = self.layout();
        let mut stripe = Stripe::zeroed(layout, self.sector_bytes);
        let mut lost = Vec::new();
        for disk in 0..layout.n {
            let path = self.strip_path(disk);
            let mut ok = false;
            if let Ok(mut f) = fs::File::open(&path) {
                let mut buf = vec![0u8; self.sector_bytes * layout.r];
                use std::io::Seek;
                if f.seek(std::io::SeekFrom::Start(
                    (s * layout.r * self.sector_bytes) as u64,
                ))
                .is_ok()
                    && f.read_exact(&mut buf).is_ok()
                {
                    for row in 0..layout.r {
                        stripe.write_sector(
                            layout.sector(row, disk),
                            &buf[row * self.sector_bytes..(row + 1) * self.sector_bytes],
                        );
                    }
                    ok = true;
                }
            }
            if !ok {
                for row in 0..layout.r {
                    lost.push(layout.sector(row, disk));
                }
            }
        }
        (stripe, FailureScenario::new(lost))
    }

    /// Writes stripe `s` back to the strip files (creating them).
    fn write_stripe(&self, s: usize, stripe: &Stripe) -> std::io::Result<()> {
        let layout = self.layout();
        for disk in 0..layout.n {
            let path = self.strip_path(disk);
            // No truncate: stripes are written at their own offsets into
            // the shared per-device file.
            #[allow(clippy::suspicious_open_options)]
            let mut f = fs::OpenOptions::new()
                .create(true)
                .write(true)
                .open(&path)?;
            use std::io::Seek;
            f.seek(std::io::SeekFrom::Start(
                (s * layout.r * self.sector_bytes) as u64,
            ))?;
            for row in 0..layout.r {
                f.write_all(stripe.sector(layout.sector(row, disk)))?;
            }
        }
        Ok(())
    }
}

/// Aggregates [`ExecStats`] across the stripes of one run and renders a
/// single JSON summary: totals for the executed side of the §III-B
/// ledger, the shared per-stripe prediction, and the first stripe's full
/// `ExecStats` as a representative sample.
#[derive(Default)]
struct StatsAgg {
    stripes: usize,
    executed_mult_xors: u64,
    executed_plain_xors: u64,
    bytes_moved: u64,
    total_nanos: u128,
    utilization_sum: f64,
    mismatches: usize,
    sample: Option<String>,
    cache: Option<PlanCacheStats>,
}

impl StatsAgg {
    fn add(&mut self, stats: &ExecStats) {
        self.stripes += 1;
        self.executed_mult_xors += stats.executed_mult_xors();
        self.executed_plain_xors += stats.executed_plain_xors();
        self.bytes_moved += stats.bytes_moved();
        self.total_nanos += stats.total_nanos;
        self.utilization_sum += stats.thread_utilization();
        if !stats.matches_prediction() {
            self.mismatches += 1;
        }
        if self.sample.is_none() {
            self.sample = Some(stats.to_json());
        }
        // Keep the latest snapshot: its cumulative counters cover the run.
        self.cache = stats.cache.or(self.cache);
    }

    fn to_json(&self, predicted_per_stripe: usize) -> String {
        let predicted_total = predicted_per_stripe as u64 * self.stripes as u64;
        format!(
            "{{\"stripes\":{},\"predicted_mult_xors_per_stripe\":{},\
             \"predicted_mult_xors_total\":{},\"executed_mult_xors_total\":{},\
             \"matches_prediction\":{},\"executed_plain_xors_total\":{},\
             \"bytes_moved_total\":{},\"total_nanos\":{},\
             \"mean_thread_utilization\":{:.4},\"cache\":{},\"sample\":{}}}",
            self.stripes,
            predicted_per_stripe,
            predicted_total,
            self.executed_mult_xors,
            self.mismatches == 0 && self.executed_mult_xors == predicted_total,
            self.executed_plain_xors,
            self.bytes_moved,
            self.total_nanos,
            self.utilization_sum / self.stripes.max(1) as f64,
            self.cache.map_or("null".into(), |c| c.to_json()),
            self.sample.as_deref().unwrap_or("null"),
        )
    }
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "encode --code <spec> [--sector-kib K] [--stats] <input> <dir>";
    let (flags, pos) = split_flags(args, USAGE)?;
    let spec = flags
        .get("code")
        .ok_or("encode requires --code <spec>")?
        .clone();
    let sector_kib: usize = flag_num(&flags, "sector-kib").unwrap_or(64);
    let [input, dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };

    let code = Code::parse(&spec)?;
    let data = fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;

    let sector_bytes = sector_kib * 1024;
    let archive = Archive {
        dir: PathBuf::from(dir),
        spec,
        code,
        sector_bytes,
        stripes: 0,
        file_len: data.len() as u64,
    };
    let per_stripe = archive.data_per_stripe();
    let stripes = data.len().div_ceil(per_stripe).max(1);
    let archive = Archive { stripes, ..archive };
    let dyn_code = archive.code.as_dyn();

    // Encoding is decoding with every parity sector "faulty": the
    // session builds that plan once and every stripe replays it.
    let service = RepairService::new(dyn_code, DecoderConfig::default());
    let (plan, _) = service
        .plan_for(&FailureScenario::new(dyn_code.parity_sectors()))
        .map_err(|e| e.to_string())?;
    let predicted = plan.mult_xors();
    let data_sectors = dyn_code.data_sectors();
    let mut agg = StatsAgg::default();
    for s in 0..stripes {
        let mut stripe = Stripe::zeroed(archive.layout(), sector_bytes);
        let base = s * per_stripe;
        for (i, &sector) in data_sectors.iter().enumerate() {
            let start = base + i * sector_bytes;
            if start >= data.len() {
                break;
            }
            let end = (start + sector_bytes).min(data.len());
            stripe.sector_mut(sector)[..end - start].copy_from_slice(&data[start..end]);
        }
        agg.add(&service.encode(&mut stripe).map_err(|e| e.to_string())?);
        archive
            .write_stripe(s, &stripe)
            .map_err(|e| e.to_string())?;
    }
    archive.save_manifest().map_err(|e| e.to_string())?;
    if flags.contains_key("stats") {
        println!("{}", agg.to_json(predicted));
    }
    println!(
        "encoded {} bytes into {} stripes across {} devices ({})",
        data.len(),
        stripes,
        archive.layout().n,
        dyn_code.name()
    );
    Ok(())
}

fn cmd_corrupt(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "corrupt <dir> --disks a,b,...";
    let (flags, pos) = split_flags(args, USAGE)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let disks: Vec<usize> = flags
        .get("disks")
        .ok_or("corrupt requires --disks a,b,...")?
        .split(',')
        .map(|d| d.trim().parse().map_err(|e| format!("bad disk: {e}")))
        .collect::<Result<_, _>>()?;
    for &d in &disks {
        if d >= archive.layout().n {
            return Err(format!("disk {d} out of range (n={})", archive.layout().n));
        }
        fs::remove_file(archive.strip_path(d)).map_err(|e| e.to_string())?;
    }
    println!("removed devices {disks:?}");
    Ok(())
}

fn cmd_repair(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "repair <dir> [--threads T] [--workers N] [--stats] [--verify] [--inject SEED]";
    let (flags, pos) = split_flags(args, USAGE)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let config = DecoderConfig {
        threads: flag_num(&flags, "threads").unwrap_or(4),
        backend: Backend::Auto,
    };

    let (_, scenario) = archive.read_stripe(0);
    if scenario.is_empty() {
        println!("nothing to repair");
        return Ok(());
    }
    let verify = flags.contains_key("verify");
    let inject_seed = match flags.get("inject") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|e| format!("bad --inject seed: {e}"))?,
        ),
        None => None,
    };
    let workers = flag_num(&flags, "workers");
    if workers.is_some() && (verify || inject_seed.is_some()) {
        return Err(
            "--workers cannot be combined with --verify/--inject (verified repair \
             escalates per stripe and runs sequentially)"
                .into(),
        );
    }
    if inject_seed.is_some() && !verify {
        return Err(
            "--inject requires --verify: without verification the injected corruption \
             would be silently written back to the archive"
                .into(),
        );
    }

    // One session for every variant: the plan is built here, once, and
    // every stripe after that is a cache hit replaying its tape through
    // the shared arena.
    let service = RepairService::new(archive.code.as_dyn(), config);
    let (plan, _) = service
        .plan_for(&scenario)
        .map_err(|e| format!("unrepairable: {e}"))?;
    let predicted = plan.mult_xors();
    let shape = format!(
        "strategy {:?}, parallelism {}, {} mult_XORs/stripe",
        plan.strategy(),
        plan.parallelism(),
        predicted
    );
    let mut agg = StatsAgg::default();
    let summary = match workers {
        Some(workers) => {
            println!(
                "repairing {} lost sectors/stripe ({shape}, {} workers)",
                scenario.len(),
                workers.max(1)
            );
            repair_workers(&archive, &service, &scenario, workers, &mut agg)?
        }
        None => {
            if verify {
                println!(
                    "repairing {} lost sectors/stripe with verification (strategy {:?}, {} surplus rows, {} verify mult_XORs/pass, escalation budget {})",
                    scenario.len(),
                    plan.strategy(),
                    plan.verify_rows(),
                    plan.verify_mult_xors(),
                    service.fault_tolerance(),
                );
                if plan.verify_rows() == 0 {
                    println!(
                        "warning: the failure pattern consumes every parity-check row; \
                         verification is vacuous and corruption undetectable"
                    );
                }
            } else {
                println!("repairing {} lost sectors/stripe ({shape})", scenario.len());
            }
            repair_sequential(&archive, &service, &scenario, verify, inject_seed, &mut agg)?
        }
    };
    if flags.contains_key("stats") {
        println!("{}", agg.to_json(predicted));
    }
    println!("{summary}");
    Ok(())
}

/// A repair session over the archive's (dynamically chosen) code.
type Session<'a> = RepairService<u8, &'a dyn ErasureCode<u8>>;

/// The `repair --workers N` path: every broken stripe is read into
/// memory and repaired through the shared session via `repair_batch`,
/// which splits the job across `N` worker threads (inter-stripe when the
/// batch is large enough, intra-stripe otherwise) against the sharded
/// plan cache and scratch arena. Returns the summary line.
fn repair_workers(
    archive: &Archive,
    service: &Session<'_>,
    scenario: &FailureScenario,
    workers: usize,
    agg: &mut StatsAgg,
) -> Result<String, String> {
    let mut stripes = Vec::with_capacity(archive.stripes);
    for s in 0..archive.stripes {
        let (stripe, lost) = archive.read_stripe(s);
        if &lost != scenario {
            return Err(format!("stripe {s}: inconsistent failure pattern"));
        }
        stripes.push(stripe);
    }
    let report = service
        .repair_batch(&mut stripes, scenario, workers)
        .map_err(|e| e.to_string())?;
    for (s, stripe) in stripes.iter().enumerate() {
        archive.write_stripe(s, stripe).map_err(|e| e.to_string())?;
    }
    for st in &report.stats {
        agg.add(st);
    }
    let cs = service.cache_stats();
    let ar = service.arena().stats();
    Ok(format!(
        "repaired {} stripes with {} workers ({} split) at {:.0} stripes/s \
         (plan cache: {} hits / {} misses / {} coalesced; arena: {} reuses / {} fresh / {} contended)",
        report.stripes(),
        report.workers,
        if report.inter_stripe {
            "inter-stripe"
        } else {
            "intra-stripe"
        },
        report.stripes_per_sec(),
        cs.hits,
        cs.misses,
        cs.coalesced,
        ar.reused,
        ar.fresh,
        ar.contended,
    ))
}

/// The stripe-at-a-time path. With `verify`, every recovered stripe is
/// checked against the surplus parity-check rows and violations trigger
/// erasure escalation; with `inject_seed` on top, one surviving sector
/// per stripe is bit-flipped first and the summary reports how many
/// injections escalation located. Returns the summary line(s).
fn repair_sequential(
    archive: &Archive,
    service: &Session<'_>,
    scenario: &FailureScenario,
    verify: bool,
    inject_seed: Option<u64>,
    agg: &mut StatsAgg,
) -> Result<String, String> {
    let mut injector = inject_seed.map(FaultInjector::new);
    let (mut injected, mut located_exactly, mut escalations, mut extra_passes) = (0, 0, 0, 0);
    for s in 0..archive.stripes {
        let (mut stripe, lost) = archive.read_stripe(s);
        if &lost != scenario {
            return Err(format!("stripe {s}: inconsistent failure pattern"));
        }
        let flip = injector
            .as_mut()
            .map(|inj| inj.corrupt_survivor(&mut stripe, scenario));
        if flip.is_some() {
            injected += 1;
        }
        let st = if verify {
            service.repair_verified(&mut stripe, scenario)
        } else {
            service.repair(&mut stripe, scenario)
        }
        .map_err(|e| format!("stripe {s}: {e}"))?;
        if let Some(v) = &st.verify {
            escalations += v.escalations;
            extra_passes += v.passes.saturating_sub(1);
            if let Some(f) = &flip {
                if v.located == [f.sector] {
                    located_exactly += 1;
                }
            }
        }
        agg.add(&st);
        archive
            .write_stripe(s, &stripe)
            .map_err(|e| e.to_string())?;
    }
    let mut summary = String::new();
    if let Some(seed) = inject_seed {
        summary.push_str(&format!(
            "fault injection (seed {seed}): {injected} stripes corrupted, {located_exactly} located exactly, {escalations} escalation decodes, {extra_passes} extra verify passes\n"
        ));
    }
    let cs = service.cache_stats();
    summary.push_str(&format!(
        "repaired{} {} stripes (plan cache: {} hits / {} misses, {} scratch reuses)",
        if verify { " and verified" } else { "" },
        archive.stripes,
        cs.hits,
        cs.misses,
        service.arena().reuses()
    ));
    Ok(summary)
}

/// Deterministic payload bytes for synthetic replay: xorshift64* keyed
/// by `(seed, op index)`, so buffered and naive runs of the same trace
/// write identical data without threading an RNG through the CLI.
fn payload_bytes(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn cmd_update(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "update <dir> (--trace FILE | --synth zipf|seq|uniform) [--ops N] \
         [--write-bytes B] [--policy lru|mmb|mms] [--buffer BYTES] [--workers N] \
         [--threads T] [--seed S] [--naive] [--stats]";
    let (flags, pos) = split_flags(args, USAGE)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let dyn_code = archive.code.as_dyn();
    let data_per_stripe = archive.data_per_stripe() as u64;
    let volume_bytes = data_per_stripe * archive.stripes as u64;

    let seed: u64 = match flags.get("seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --seed: {e}"))?,
        None => 2015,
    };
    let ops: Vec<TraceOp> = match (flags.get("trace"), flags.get("synth")) {
        (Some(path), None) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_trace(&text).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(spec)) => {
            let kind = SynthKind::parse(spec)
                .ok_or_else(|| format!("bad --synth {spec:?} (zipf[:SKEW], seq, uniform)"))?;
            let n = flag_num(&flags, "ops").unwrap_or(256);
            let write_bytes = flag_num(&flags, "write-bytes")
                .map(|b| b as u64)
                .unwrap_or_else(|| (archive.sector_bytes as u64 / 4).max(1))
                .min(volume_bytes);
            synthesize(kind, n, volume_bytes, write_bytes, seed)
        }
        (Some(_), Some(_)) => return Err("--trace and --synth are mutually exclusive".into()),
        (None, None) => return Err("update requires --trace FILE or --synth KIND".into()),
    };
    let policy = match flags.get("policy") {
        Some(p) => EvictionPolicy::parse(p).ok_or_else(|| format!("bad --policy {p:?}"))?,
        None => EvictionPolicy::Lru,
    };
    let buffer_bytes = flag_num(&flags, "buffer")
        .map(|b| b.max(1) as u64)
        .unwrap_or(1 << 20);
    let workers = flag_num(&flags, "workers").unwrap_or(1);
    let threads = flag_num(&flags, "threads").unwrap_or(4);
    let mode = if flags.contains_key("naive") {
        FlushMode::ReencodeOnly
    } else {
        FlushMode::Auto
    };

    // The whole archive must be healthy: updates patch parity in place,
    // so a missing device would silently diverge.
    let mut stripes = Vec::with_capacity(archive.stripes);
    for s in 0..archive.stripes {
        let (stripe, lost) = archive.read_stripe(s);
        if !lost.is_empty() {
            return Err(format!(
                "stripe {s}: {} sectors unavailable (run repair before update)",
                lost.len()
            ));
        }
        stripes.push(stripe);
    }

    let service = RepairService::new(
        dyn_code,
        DecoderConfig {
            threads,
            backend: Backend::Auto,
        },
    );
    let config = EngineConfig {
        buffer_bytes,
        policy,
        mode,
    };
    let mut engine =
        UpdateEngine::new(&service, stripes, config).map_err(|e| format!("update: {e}"))?;

    let started = std::time::Instant::now();
    let mut reports = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let payload = payload_bytes(seed, i as u64, op.len as usize);
        reports.extend(
            engine
                .write(op.offset, &payload)
                .map_err(|e| format!("op {i} (offset {}, len {}): {e}", op.offset, op.len))?,
        );
    }
    reports.extend(
        engine
            .flush_all(workers)
            .map_err(|e| format!("final flush: {e}"))?,
    );
    let elapsed = started.elapsed();

    let stats = engine.stats();
    let reencode_cost = engine.reencode_mult_xors();
    let volume = engine.into_volume();
    for (s, stripe) in volume.iter().enumerate() {
        archive.write_stripe(s, stripe).map_err(|e| e.to_string())?;
    }

    if flags.contains_key("stats") {
        let executed: u64 = reports.iter().map(|r| r.exec.executed_mult_xors()).sum();
        let predicted: u64 = reports
            .iter()
            .map(|r| r.exec.predicted_mult_xors as u64)
            .sum();
        let matches = reports.iter().all(|r| r.exec.matches_prediction());
        let sample = reports.first().map(|r| r.exec.to_json());
        let ar = service.arena().stats();
        println!(
            "{{\"ops\":{},\"volume_bytes\":{},\"policy\":{:?},\"mode\":{:?},\"workers\":{},\
             \"engine\":{},\"predicted_mult_xors_total\":{},\"executed_mult_xors_total\":{},\
             \"matches_prediction\":{},\"reencode_mult_xors_per_stripe\":{},\
             \"arena\":{{\"reuses\":{},\"fresh\":{},\"contended\":{}}},\"nanos\":{},\"sample\":{}}}",
            ops.len(),
            volume_bytes,
            format!("{policy:?}").to_ascii_lowercase(),
            format!("{mode:?}").to_ascii_lowercase(),
            workers.max(1),
            stats.to_json(),
            predicted,
            executed,
            matches,
            reencode_cost,
            ar.reused,
            ar.fresh,
            ar.contended,
            elapsed.as_nanos(),
            sample.as_deref().unwrap_or("null"),
        );
    }
    println!(
        "replayed {} writes ({} bytes, {} coalesced) in {} flushes \
         ({} delta / {} re-encode, {} evictions, {} parity patches) in {:.1} ms",
        stats.writes,
        stats.bytes_written,
        stats.bytes_coalesced,
        stats.flushes,
        stats.delta_flushes,
        stats.reencode_flushes,
        stats.evictions,
        stats.parity_patches,
        elapsed.as_secs_f64() * 1e3,
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "verify <dir>";
    let (_, pos) = split_flags(args, USAGE)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let h = archive.code.as_dyn().parity_check_matrix();
    for s in 0..archive.stripes {
        let (stripe, lost) = archive.read_stripe(s);
        if !lost.is_empty() {
            return Err(format!(
                "stripe {s}: {} sectors unavailable (run repair)",
                lost.len()
            ));
        }
        if !parity_consistent(&h, &stripe, Backend::Auto) {
            return Err(format!("stripe {s}: parity check FAILED"));
        }
    }
    println!("all {} stripes parity-consistent", archive.stripes);
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "decode <dir> <output>";
    let (_, pos) = split_flags(args, USAGE)?;
    let [dir, output] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let dyn_code = archive.code.as_dyn();
    let data_sectors = dyn_code.data_sectors();
    let mut out = Vec::with_capacity(archive.file_len as usize);
    for s in 0..archive.stripes {
        let (stripe, lost) = archive.read_stripe(s);
        if !lost.is_empty() {
            return Err(format!("stripe {s}: data unavailable (run repair first)"));
        }
        for &sector in &data_sectors {
            out.extend_from_slice(stripe.sector(sector));
        }
    }
    out.truncate(archive.file_len as usize);
    fs::write(output, &out).map_err(|e| e.to_string())?;
    println!("wrote {} bytes to {output}", out.len());
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "info <dir>";
    let (_, pos) = split_flags(args, USAGE)?;
    let [dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };
    let archive = Archive::load(Path::new(dir))?;
    let dyn_code = archive.code.as_dyn();
    let layout = archive.layout();
    println!("code:         {}", dyn_code.name());
    println!(
        "devices:      {} ({} rows x {} B sectors)",
        layout.n, layout.r, archive.sector_bytes
    );
    println!("stripes:      {}", archive.stripes);
    println!("file length:  {} bytes", archive.file_len);
    println!("symmetric:    {}", dyn_code.is_symmetric());
    let missing: Vec<usize> = (0..layout.n)
        .filter(|&d| !archive.strip_path(d).exists())
        .collect();
    println!("missing:      {missing:?}");
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: cluster sim [--workers N] [--stripes M] ...".into());
    };
    match sub.as_str() {
        "sim" => cluster_sim(rest),
        other => Err(format!("unknown cluster subcommand {other:?} (try: sim)")),
    }
}

/// The `cluster sim` path: repair a simulated sharded archive over N
/// worker threads and check the result bit-for-bit against a
/// single-node repair. With `--mode both` (the default) the naive
/// ship-everything baseline runs on the same damage, and the summary
/// line reports the measured bandwidth ratio.
fn cluster_sim(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "cluster sim [--workers N] [--stripes M] [--damaged D] [--scenarios K] \
         [--code spec] [--bytes B] [--seed S] [--threads T] [--mode partial|naive|both] [--stats] \
         [--chaos SEED] [--drop R] [--corrupt R] [--truncate R] [--duplicate R] [--reorder R] \
         [--delay R] [--hang R] [--delay-ms MS] [--deadline MS] \
         [--retries N] [--hedge MS]";
    let (flags, pos) = split_flags(args, USAGE)?;
    if !pos.is_empty() {
        return Err(format!(
            "cluster sim takes no positional arguments, got {pos:?}"
        ));
    }
    let spec = flags
        .get("code")
        .cloned()
        .unwrap_or_else(|| "sd:4,4,1,1".to_string());
    let code = Code::parse(&spec)?;
    let dyn_code = code.as_dyn();
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flags.get(name) {
            Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
            None => Ok(default),
        }
    };
    let parse_rate = |name: &str| -> Result<f64, String> {
        match flags.get(name) {
            Some(v) => {
                let rate: f64 = v.parse().map_err(|e| format!("bad --{name}: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("bad --{name}: rate {rate} outside [0, 1]"));
                }
                Ok(rate)
            }
            None => Ok(0.0),
        }
    };
    let rates = ChaosRates {
        drop: parse_rate("drop")?,
        corrupt: parse_rate("corrupt")?,
        truncate: parse_rate("truncate")?,
        duplicate: parse_rate("duplicate")?,
        reorder: parse_rate("reorder")?,
        delay: parse_rate("delay")?,
        hang: parse_rate("hang")?,
    };
    let chaos = match flags.get("chaos") {
        Some(v) => Some(ChaosConfig {
            seed: v.parse().map_err(|e| format!("bad --chaos: {e}"))?,
            rates,
            delay_ms: parse_u64("delay-ms", 5)?,
        }),
        None if rates.total() > 0.0 => {
            return Err("fault rates need --chaos SEED to take effect".into())
        }
        None => None,
    };
    // Chaos runs default to the tight supervision profile; individual
    // knobs override either way.
    let mut retry = if chaos.is_some() {
        RetryPolicy::aggressive()
    } else {
        RetryPolicy::default()
    };
    if let Some(v) = flags.get("deadline") {
        retry.deadline_ms = v.parse().map_err(|e| format!("bad --deadline: {e}"))?;
    }
    if let Some(v) = flags.get("retries") {
        retry.max_attempts = v.parse().map_err(|e| format!("bad --retries: {e}"))?;
    }
    if let Some(v) = flags.get("hedge") {
        retry.hedge_after_ms = v.parse().map_err(|e| format!("bad --hedge: {e}"))?;
    }
    let cfg = SimConfig {
        workers: flag_num(&flags, "workers").unwrap_or(4),
        stripes: parse_u64("stripes", 1_000_000)?,
        damaged: flag_num(&flags, "damaged").unwrap_or(16),
        scenarios: flag_num(&flags, "scenarios").unwrap_or(3),
        sector_bytes: flag_num(&flags, "bytes").unwrap_or(4096),
        seed: parse_u64("seed", 2015)?,
        threads: flag_num(&flags, "threads").unwrap_or(1),
        chaos,
        retry,
        ..SimConfig::default()
    };
    let mode = flags.get("mode").map(String::as_str).unwrap_or("both");

    let run = |mode: RepairMode| -> Result<SimReport, String> {
        run_sim(&dyn_code, &cfg, mode).map_err(|e| format!("{} sim: {e}", mode.name()))
    };
    let (partial, naive) = match mode {
        "partial" => (Some(run(RepairMode::Partial)?), None),
        "naive" => (None, Some(run(RepairMode::Naive)?)),
        "both" => (
            Some(run(RepairMode::Partial)?),
            Some(run(RepairMode::Naive)?),
        ),
        other => return Err(format!("bad --mode {other:?} (partial|naive|both)")),
    };

    if flags.contains_key("stats") {
        let json =
            |r: &Option<SimReport>| r.as_ref().map(SimReport::to_json).unwrap_or("null".into());
        println!(
            "{{\"code\":\"{spec}\",\"partial\":{},\"naive\":{}}}",
            json(&partial),
            json(&naive)
        );
    }

    let identical = partial.as_ref().map(|r| r.identical).unwrap_or(true)
        && naive.as_ref().map(|r| r.identical).unwrap_or(true);
    let mut line = format!(
        "cluster-sim code={spec} workers={} stripes={} damaged={} identical={identical}",
        cfg.workers, cfg.stripes, cfg.damaged
    );
    if let Some(p) = &partial {
        line.push_str(&format!(
            " partial_bytes={} plans_shipped={} plan_bytes={} split_rests={}",
            p.traffic.total_bytes(),
            p.plans_shipped,
            p.traffic.plan_bytes,
            p.split_rests
        ));
    }
    if let Some(n) = &naive {
        line.push_str(&format!(" naive_bytes={}", n.traffic.total_bytes()));
    }
    if let (Some(p), Some(n)) = (&partial, &naive) {
        line.push_str(&format!(
            " ratio={:.3}",
            p.traffic.total_bytes() as f64 / n.traffic.total_bytes() as f64
        ));
    }
    // Where each run's time went: whole call, the coordinator's drive,
    // and per-stripe drive latency p50/p99/max (`--stats` has the rest).
    for r in [&partial, &naive].into_iter().flatten() {
        let mode = r.mode.name();
        line.push_str(&format!(
            " {mode}_wall_ms={:.1} {mode}_drive_ms={:.1} {mode}_stripe_us={}/{}/{}",
            r.wall_nanos as f64 / 1e6,
            r.drive_nanos as f64 / 1e6,
            r.stripe_p50_nanos / 1_000,
            r.stripe_p99_nanos / 1_000,
            r.stripe_max_nanos / 1_000,
        ));
    }
    if let Some(chaos) = &cfg.chaos {
        let mut retries = 0u64;
        let mut timeouts = 0u64;
        let mut redispatches = 0u64;
        let mut degraded = 0u64;
        let mut corrupt_caught = 0u64;
        let mut injected = 0u64;
        let mut workers_dead = 0u64;
        for r in [&partial, &naive].into_iter().flatten() {
            retries += r.chaos.retries;
            timeouts += r.chaos.timeouts;
            redispatches += r.chaos.redispatches;
            degraded += r.chaos.degraded_local;
            corrupt_caught += r.chaos.corrupt_frames_caught;
            injected += r.chaos.injected.total();
            workers_dead += r.chaos.workers_declared_dead;
        }
        line.push_str(&format!(
            " chaos_seed={} injected={injected} retries={retries} timeouts={timeouts} \
             corrupt_caught={corrupt_caught} redispatches={redispatches} \
             degraded={degraded} workers_dead={workers_dead}",
            chaos.seed
        ));
    }
    println!("{line}");
    if !identical {
        return Err("cluster repair diverged from the single-node reference".into());
    }
    Ok(())
}

type Flags = std::collections::HashMap<String, String>;

/// Splits `args` into `--flag` settings and positional arguments. The
/// command's `usage` string is the flag table: `[--name]` declares a
/// boolean flag, `--name` followed by anything else a flag that consumes
/// the next token. A flag the usage does not mention — or a valued flag
/// with nothing after it — is the usage error.
fn split_flags(args: &[String], usage: &str) -> Result<(Flags, Vec<String>), String> {
    let declared = |name: &str| {
        usage
            .split_whitespace()
            .map(|token| token.trim_start_matches(['[', '(']))
            .find_map(
                |token| match token.strip_prefix("--")?.strip_prefix(name)? {
                    "" => Some(true),
                    "]" => Some(false),
                    _ => None,
                },
            )
    };
    let mut flags = Flags::new();
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            pos.push(a.clone());
            continue;
        };
        let value = match declared(name) {
            Some(false) => String::new(),
            Some(true) => it
                .next()
                .cloned()
                .ok_or_else(|| format!("--{name} needs a value\nusage: {usage}"))?,
            None => return Err(format!("unknown flag --{name}\nusage: {usage}")),
        };
        flags.insert(name.to_string(), value);
    }
    Ok((flags, pos))
}

fn flag_num(flags: &Flags, name: &str) -> Option<usize> {
    flags.get(name).and_then(|v| v.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: ppm-cli <encode|corrupt|repair|update|verify|decode|info|cluster> ...");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "encode" => cmd_encode(rest),
        "corrupt" => cmd_corrupt(rest),
        "repair" => cmd_repair(rest),
        "update" => cmd_update(rest),
        "verify" => cmd_verify(rest),
        "decode" => cmd_decode(rest),
        "info" => cmd_info(rest),
        "cluster" => cmd_cluster(rest),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
