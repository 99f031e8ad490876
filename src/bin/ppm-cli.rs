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
//! Every command streams the archive through one reused stripe buffer:
//! each device file is opened once (and once more if it is written),
//! and each sector moves with positioned I/O straight between its strip
//! file and the buffer. A command reads only the sectors it needs
//! (`decode` the data sectors, `repair` the sectors its plan reads) and
//! `repair` writes back only the sectors it recovered, so surviving
//! devices are never rewritten.
//!
//! `repair --workers N` splits the stripes into `N` contiguous ranges
//! when there are at least `2·N` of them (the inter-stripe split of
//! `repair_batch`, `DESIGN.md` §9): each range streams through its own
//! buffer on a one-decode-thread session shared by all `N` workers.
//! Fewer stripes keep the intra-stripe split, one stream on the
//! `--threads` decoder. The summary line reports the mode, throughput in
//! stripes/s, and the session's plan-cache (hits/misses/coalesced) and
//! scratch-arena (reuses/fresh/contended) counters.
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ppm::core::par_map;
use ppm::stripe::SECTOR_ALIGN;
use ppm::update::trace::{parse_trace, synthesize, SynthKind, TraceOp};
use ppm::{
    parity_consistent, run_sim, Backend, ChaosConfig, ChaosRates, DecoderConfig, EngineConfig,
    ErasureCode, EvenOddCode, EvictionPolicy, ExecStats, FailureScenario, FaultInjector, FlushMode,
    HitchhikerXor, LrcCode, PlanCacheStats, PmdsCode, ProductCode, RdpCode, RepairMode,
    RepairService, RetryPolicy, RsCode, SdCode, SimConfig, SimReport, StarCode, Stripe,
    StripeLayout, UpdateEngine,
};
use std::fs;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

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
        let err = |e: ppm::CodeError| e.to_string();
        let code = match (family, nums.as_slice()) {
            ("sd", &[n, r, m, s]) => Code::Sd(SdCode::search(n, r, m, s, 2015, 3).map_err(err)?),
            ("pmds", &[n, r, m, s]) => {
                Code::Pmds(PmdsCode::search(n, r, m, s, 2015, 3).map_err(err)?)
            }
            ("lrc", &[k, l, g, r]) => Code::Lrc(LrcCode::new(k, l, g, r).map_err(err)?),
            ("rs", &[k, m, r]) => Code::Rs(RsCode::new(k, m, r).map_err(err)?),
            ("evenodd", &[p]) => Code::EvenOdd(EvenOddCode::new(p).map_err(err)?),
            ("rdp", &[p]) => Code::Rdp(RdpCode::new(p).map_err(err)?),
            ("star", &[p]) => Code::Star(StarCode::new(p).map_err(err)?),
            ("pc", &[k1, m1, k2, m2]) => {
                Code::Product(ProductCode::new(k1, m1, k2, m2).map_err(err)?)
            }
            ("hh", &[k, m]) => Code::Hitchhiker(HitchhikerXor::new(k, m).map_err(err)?),
            ("sd" | "pmds" | "lrc" | "pc", _) => return Err(wrong(4)),
            ("rs", _) => return Err(wrong(3)),
            ("hh", _) => return Err(wrong(2)),
            ("evenodd" | "rdp" | "star", _) => return Err(wrong(1)),
            (other, _) => return Err(format!("unknown code family {other:?}")),
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
        let archive = Archive {
            dir: dir.to_path_buf(),
            code: Code::parse(&spec)?,
            spec,
            sector_bytes: sector_bytes.ok_or("manifest missing sector_bytes=")?,
            stripes: stripes.ok_or("manifest missing stripes=")?,
            file_len: file_len.ok_or("manifest missing file_len=")?,
        };
        archive.check_sector_bytes()?;
        let per_stripe = archive.data_per_stripe() as u64;
        let expected = archive.file_len.div_ceil(per_stripe).max(1);
        if archive.stripes as u64 != expected {
            return Err(format!(
                "manifest stripes={} does not match file_len={} ({expected} stripes of {per_stripe} bytes)",
                archive.stripes, archive.file_len
            ));
        }
        Ok(archive)
    }

    /// The sector size comes from outside the program (`--sector-kib` or
    /// the manifest): a stripe buffer needs a positive multiple of
    /// [`SECTOR_ALIGN`] whose stripe size fits in memory.
    fn check_sector_bytes(&self) -> Result<(), String> {
        let sector_bytes = self.sector_bytes;
        if sector_bytes == 0
            || !sector_bytes.is_multiple_of(SECTOR_ALIGN)
            || self.layout().sectors().checked_mul(sector_bytes).is_none()
        {
            return Err(format!(
                "sector size of {sector_bytes} bytes: must be a positive multiple of {SECTOR_ALIGN}"
            ));
        }
        Ok(())
    }

    fn layout(&self) -> StripeLayout {
        self.code.as_dyn().layout()
    }

    /// Bytes of user data per stripe.
    fn data_per_stripe(&self) -> usize {
        self.code.as_dyn().data_sectors().len() * self.sector_bytes
    }
}

/// One command's handles on an archive's device files. Each file is
/// opened at most once for reading and once for writing, and every
/// sector moves with positioned I/O straight between its place in the
/// strip file and a stripe buffer — no staging copy, and a command
/// touches only the sectors it names.
struct Devices {
    layout: StripeLayout,
    sector_bytes: usize,
    devices: Vec<Device>,
}

/// One device's strip file: stripe `s` occupies bytes
/// `[s·r·sector_bytes, (s+1)·r·sector_bytes)`, row by row.
struct Device {
    path: PathBuf,
    /// Read handle and file length; `None` when the file is missing.
    reader: Option<(fs::File, u64)>,
    /// Write handle, opened (creating the file) on the device's first
    /// write: a device the command never writes is never opened for
    /// writing.
    writer: OnceLock<fs::File>,
}

impl Device {
    /// The read handle when the file holds its first `end` bytes.
    fn reader(&self, end: u64) -> Option<&fs::File> {
        match &self.reader {
            Some((file, len)) if *len >= end => Some(file),
            _ => None,
        }
    }

    fn writer(&self) -> Result<&fs::File, String> {
        if let Some(file) = self.writer.get() {
            return Ok(file);
        }
        // No truncate: stripes are written at their own offsets into the
        // shared per-device file.
        #[allow(clippy::suspicious_open_options)]
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| self.error(e))?;
        // A racing worker may have opened it first; keep one handle.
        Ok(self.writer.get_or_init(|| file))
    }

    fn error(&self, e: std::io::Error) -> String {
        format!("{}: {e}", self.path.display())
    }
}

impl Devices {
    /// Opens every existing device file of `archive` for reading; a
    /// missing file is a device lost from every stripe.
    fn open(archive: &Archive) -> Devices {
        let layout = archive.layout();
        let device = |d| {
            let path = archive.strip_path(d);
            let reader = fs::File::open(&path).ok().and_then(|file| {
                let len = file.metadata().ok()?.len();
                Some((file, len))
            });
            Device {
                path,
                reader,
                writer: OnceLock::new(),
            }
        };
        Devices {
            layout,
            sector_bytes: archive.sector_bytes,
            devices: (0..layout.n).map(device).collect(),
        }
    }

    fn strip_bytes(&self) -> u64 {
        (self.layout.r * self.sector_bytes) as u64
    }

    /// Byte offset of sector `l` of stripe `s` in its device's file.
    fn offset(&self, s: usize, l: usize) -> u64 {
        s as u64 * self.strip_bytes() + (self.layout.row_of(l) * self.sector_bytes) as u64
    }

    /// Every sector of stripe `s` on a device whose file is missing or
    /// too short to hold the stripe.
    fn lost(&self, s: usize) -> FailureScenario {
        let end = (s as u64 + 1) * self.strip_bytes();
        let disks: Vec<usize> = (self.devices.iter().enumerate())
            .filter(|(_, device)| device.reader(end).is_none())
            .map(|(d, _)| d)
            .collect();
        FailureScenario::whole_disks(self.layout, &disks)
    }

    /// Loads stripe `s` into `stripe`: reads the sectors `want` accepts
    /// from the devices that hold the stripe, zero-fills every sector of
    /// the devices that do not, and returns those as the lost sectors.
    fn load(
        &self,
        s: usize,
        stripe: &mut Stripe,
        want: impl Fn(usize) -> bool,
    ) -> Result<FailureScenario, String> {
        let end = (s as u64 + 1) * self.strip_bytes();
        for (d, device) in self.devices.iter().enumerate() {
            let reader = device.reader(end);
            for row in 0..self.layout.r {
                let l = self.layout.sector(row, d);
                match reader {
                    None => stripe.sector_mut(l).fill(0),
                    Some(file) if want(l) => file
                        .read_exact_at(stripe.sector_mut(l), self.offset(s, l))
                        .map_err(|e| device.error(e))?,
                    Some(_) => {}
                }
            }
        }
        Ok(self.lost(s))
    }

    /// Streams stripes `range` through one reused buffer: loads each
    /// stripe (see [`Devices::load`]) and hands it to `f` with its lost
    /// sectors.
    fn stream(
        &self,
        range: Range<usize>,
        want: impl Fn(usize) -> bool,
        mut f: impl FnMut(usize, &mut Stripe, FailureScenario) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut stripe = Stripe::zeroed(self.layout, self.sector_bytes);
        for s in range {
            let lost = self.load(s, &mut stripe, &want)?;
            f(s, &mut stripe, lost)?;
        }
        Ok(())
    }

    /// Writes the sectors `sectors` of `stripe` as stripe `s`.
    fn write(
        &self,
        s: usize,
        stripe: &Stripe,
        sectors: impl IntoIterator<Item = usize>,
    ) -> Result<(), String> {
        for l in sectors {
            let d = self.layout.col_of(l);
            let device = self
                .devices
                .get(d)
                .ok_or_else(|| format!("sector {l}: no device {d}"))?;
            device
                .writer()?
                .write_all_at(stripe.sector(l), self.offset(s, l))
                .map_err(|e| device.error(e))?;
        }
        Ok(())
    }
}

/// Fills `sector` from `input` and zero-fills what the input could not:
/// returns the input bytes copied, short of the sector only at the end
/// of the input.
fn read_sector(input: &mut impl Read, sector: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    loop {
        let rest = sector.get_mut(filled..).unwrap_or_default();
        match input.read(rest) {
            Ok(0) => {
                rest.fill(0);
                return Ok(filled);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
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
    let sector_kib = flag_num(&flags, "sector-kib")?.unwrap_or(64);
    let [input, dir] = pos.as_slice() else {
        return Err(format!("usage: {USAGE}"));
    };

    let mut archive = Archive {
        dir: PathBuf::from(dir),
        code: Code::parse(&spec)?,
        spec,
        sector_bytes: sector_kib
            .checked_mul(1024)
            .ok_or_else(|| format!("--sector-kib {sector_kib} is too large"))?,
        stripes: 0,
        file_len: 0,
    };
    archive.check_sector_bytes()?;
    let mut input_file = fs::File::open(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let dyn_code = archive.code.as_dyn();

    // Encoding is decoding with every parity sector "faulty": the
    // session builds that plan once and every stripe replays it.
    let service = RepairService::new(dyn_code, DecoderConfig::default());
    let (plan, _) = service
        .plan_for(&FailureScenario::new(dyn_code.parity_sectors()))
        .map_err(|e| e.to_string())?;
    let predicted = plan.mult_xors();
    let data_sectors = dyn_code.data_sectors();
    let per_stripe = archive.data_per_stripe();
    let layout = archive.layout();
    let devices = Devices::open(&archive);
    let mut stripe = Stripe::zeroed(layout, archive.sector_bytes);
    let mut agg = StatsAgg::default();
    // The input streams into the data sectors one stripe at a time: the
    // last stripe is zero-padded, and an empty input still makes one.
    let (mut stripes, mut file_len) = (0, 0u64);
    loop {
        let mut filled = 0;
        for &sector in &data_sectors {
            filled += read_sector(&mut input_file, stripe.sector_mut(sector))
                .map_err(|e| format!("cannot read {input}: {e}"))?;
        }
        if filled == 0 && stripes > 0 {
            break;
        }
        agg.add(&service.encode(&mut stripe).map_err(|e| e.to_string())?);
        devices.write(stripes, &stripe, 0..layout.sectors())?;
        stripes += 1;
        file_len += filled as u64;
        if filled < per_stripe {
            break;
        }
    }
    archive.stripes = stripes;
    archive.file_len = file_len;
    archive.save_manifest().map_err(|e| e.to_string())?;
    if flags.contains_key("stats") {
        agg.cache = Some(service.cache_stats());
        println!("{}", agg.to_json(predicted));
    }
    println!(
        "encoded {file_len} bytes into {stripes} stripes across {} devices ({})",
        layout.n,
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
    let threads = flag_num(&flags, "threads")?.unwrap_or(DecoderConfig::default().threads);
    let workers = flag_num(&flags, "workers")?;
    let archive = Archive::load(Path::new(dir))?;
    let devices = Devices::open(&archive);

    let scenario = devices.lost(0);
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

    // `repair_batch`'s rule: split between stripes only when every
    // worker gets two or more. Each worker then owns whole stripes, so
    // the session decodes on one thread; otherwise one stream keeps the
    // paper's intra-stripe parallelism on `--threads`.
    let stripes = archive.stripes;
    let workers_asked = workers.unwrap_or(1).max(1);
    let inter_stripe = workers_asked > 1 && stripes >= 2 * workers_asked;
    let chunk = if inter_stripe {
        stripes.div_ceil(workers_asked)
    } else {
        stripes
    };
    let ranges: Vec<Range<usize>> = (0..stripes)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(stripes))
        .collect();
    let config = DecoderConfig {
        threads: if inter_stripe { 1 } else { threads },
        backend: Backend::Auto,
    };

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
    let started = Instant::now();
    let summary = if verify {
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
        repair_verified(
            &devices,
            &service,
            &scenario,
            stripes,
            inject_seed,
            &mut agg,
        )?
    } else {
        let workers_note = workers.map_or(String::new(), |_| format!(", {workers_asked} workers"));
        println!(
            "repairing {} lost sectors/stripe ({shape}{workers_note})",
            scenario.len()
        );
        let workers_used = ranges.len();
        let reads = plan.read_sectors();
        for st in &repair_ranges(&devices, &service, &scenario, &reads, ranges)? {
            agg.add(st);
        }
        let (cs, ar) = (service.cache_stats(), service.arena().stats());
        if workers.is_none() {
            format!(
                "repaired {stripes} stripes (plan cache: {} hits / {} misses, {} scratch reuses)",
                cs.hits, cs.misses, ar.reused
            )
        } else {
            let split = if inter_stripe {
                "inter-stripe"
            } else {
                "intra-stripe"
            };
            format!(
                "repaired {stripes} stripes with {workers_used} workers ({split} split) at {:.0} stripes/s \
                 (plan cache: {} hits / {} misses / {} coalesced; arena: {} reuses / {} fresh / {} contended)",
                stripes as f64 / started.elapsed().as_secs_f64(),
                cs.hits,
                cs.misses,
                cs.coalesced,
                ar.reused,
                ar.fresh,
                ar.contended,
            )
        }
    };
    if flags.contains_key("stats") {
        // Workers finish in any order: report the session's final counters.
        agg.cache = Some(service.cache_stats());
        println!("{}", agg.to_json(predicted));
    }
    println!("{summary}");
    Ok(())
}

/// A repair session over the archive's (dynamically chosen) code.
type Session<'a> = RepairService<u8, &'a dyn ErasureCode<u8>>;

/// Repairs stripe `ranges` with one worker thread per range, each
/// streaming its range through its own stripe buffer: it reads only the
/// sectors the plan reads (`reads`), repairs the stripe, and writes back
/// only the lost sectors. Returns the per-stripe stats in stripe order.
fn repair_ranges(
    devices: &Devices,
    service: &Session<'_>,
    scenario: &FailureScenario,
    reads: &[usize],
    ranges: Vec<Range<usize>>,
) -> Result<Vec<ExecStats>, String> {
    let per_range = par_map(ranges.len(), ranges, |range| {
        let mut stats = Vec::with_capacity(range.len());
        let wanted = |l: usize| reads.binary_search(&l).is_ok();
        devices.stream(range, wanted, |s, stripe, lost| {
            if &lost != scenario {
                return Err(format!("stripe {s}: inconsistent failure pattern"));
            }
            stats.push(
                service
                    .repair(stripe, scenario)
                    .map_err(|e| format!("stripe {s}: {e}"))?,
            );
            devices.write(s, stripe, scenario.faulty().iter().copied())
        })?;
        Ok::<_, String>(stats)
    })?;
    Ok(per_range.into_iter().flatten().collect())
}

/// The verified path, one stripe at a time: every recovered stripe is
/// checked against the surplus parity-check rows and violations trigger
/// erasure escalation; with `inject_seed`, one surviving sector per
/// stripe is bit-flipped first and the summary reports how many
/// injections escalation located. Besides the lost sectors, the sectors
/// escalation located are written back, so corruption found on disk is
/// healed there. Returns the summary line(s).
fn repair_verified(
    devices: &Devices,
    service: &Session<'_>,
    scenario: &FailureScenario,
    stripes: usize,
    inject_seed: Option<u64>,
    agg: &mut StatsAgg,
) -> Result<String, String> {
    let mut injector = inject_seed.map(FaultInjector::new);
    let (mut injected, mut located_exactly, mut escalations, mut extra_passes) = (0, 0, 0, 0);
    devices.stream(
        0..stripes,
        |_| true,
        |s, stripe, lost| {
            if &lost != scenario {
                return Err(format!("stripe {s}: inconsistent failure pattern"));
            }
            let flip = injector
                .as_mut()
                .map(|inj| inj.corrupt_survivor(stripe, scenario));
            if flip.is_some() {
                injected += 1;
            }
            let st = service
                .repair_verified(stripe, scenario)
                .map_err(|e| format!("stripe {s}: {e}"))?;
            let located = st.verify.as_ref().map_or(&[][..], |v| &v.located);
            if let Some(v) = &st.verify {
                escalations += v.escalations;
                extra_passes += v.passes.saturating_sub(1);
                if let Some(f) = &flip {
                    if v.located == [f.sector] {
                        located_exactly += 1;
                    }
                }
            }
            let written = scenario.faulty().iter().chain(located).copied();
            devices.write(s, stripe, written)?;
            agg.add(&st);
            Ok(())
        },
    )?;
    let mut summary = String::new();
    if let Some(seed) = inject_seed {
        summary.push_str(&format!(
            "fault injection (seed {seed}): {injected} stripes corrupted, {located_exactly} located exactly, {escalations} escalation decodes, {extra_passes} extra verify passes\n"
        ));
    }
    let cs = service.cache_stats();
    summary.push_str(&format!(
        "repaired and verified {stripes} stripes (plan cache: {} hits / {} misses, {} scratch reuses)",
        cs.hits,
        cs.misses,
        service.arena().stats().reused
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
            let n = flag_num(&flags, "ops")?.unwrap_or(256);
            let write_bytes = flag_num(&flags, "write-bytes")?
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
    let buffer_bytes = flag_num(&flags, "buffer")?
        .map(|b| b.max(1) as u64)
        .unwrap_or(1 << 20);
    let workers = flag_num(&flags, "workers")?.unwrap_or(1);
    let threads = flag_num(&flags, "threads")?.unwrap_or(DecoderConfig::default().threads);
    let mode = if flags.contains_key("naive") {
        FlushMode::ReencodeOnly
    } else {
        FlushMode::Auto
    };

    // The whole archive must be healthy: updates patch parity in place,
    // so a missing device would silently diverge.
    // The engine owns the volume, so every stripe is kept.
    let devices = Devices::open(&archive);
    let mut stripes = Vec::with_capacity(archive.stripes);
    devices.stream(
        0..archive.stripes,
        |_| true,
        |s, stripe, lost| {
            if !lost.is_empty() {
                return Err(format!(
                    "stripe {s}: {} sectors unavailable (run repair before update)",
                    lost.len()
                ));
            }
            stripes.push(stripe.clone());
            Ok(())
        },
    )?;

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
        let op_err = |e| format!("op {i} (offset {}, len {}): {e}", op.offset, op.len);
        // Range-check before building the payload: a trace record's
        // `len` is untrusted and must not size an allocation.
        engine
            .address_map()
            .check_range(op.offset, op.len)
            .map_err(op_err)?;
        let payload = payload_bytes(seed, i as u64, op.len as usize);
        reports.extend(engine.write(op.offset, &payload).map_err(op_err)?);
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
        devices.write(s, stripe, 0..stripe.layout().sectors())?;
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
    let devices = Devices::open(&archive);
    devices.stream(
        0..archive.stripes,
        |_| true,
        |s, stripe, lost| {
            if !lost.is_empty() {
                return Err(format!(
                    "stripe {s}: {} sectors unavailable (run repair)",
                    lost.len()
                ));
            }
            if !parity_consistent(&h, stripe, Backend::Auto) {
                return Err(format!("stripe {s}: parity check FAILED"));
            }
            Ok(())
        },
    )?;
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
    let devices = Devices::open(&archive);
    // A damaged archive is refused, not served degraded: every device,
    // parity included, must hold every stripe.
    if let Some(s) = (0..archive.stripes).find(|&s| !devices.lost(s).is_empty()) {
        return Err(format!("stripe {s}: data unavailable (run repair first)"));
    }
    let data_sectors = archive.code.as_dyn().data_sectors();
    let file = fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut out = BufWriter::new(file);
    let mut remaining = archive.file_len;
    let is_data = |l: usize| data_sectors.contains(&l);
    devices.stream(0..archive.stripes, is_data, |_, stripe, _| {
        for &sector in &data_sectors {
            let take = remaining.min(archive.sector_bytes as u64);
            let (bytes, _) = stripe.sector(sector).split_at(take as usize);
            out.write_all(bytes).map_err(|e| format!("{output}: {e}"))?;
            remaining -= take;
        }
        Ok(())
    })?;
    out.flush().map_err(|e| format!("{output}: {e}"))?;
    println!("wrote {} bytes to {output}", archive.file_len);
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
        workers: flag_num(&flags, "workers")?.unwrap_or(4),
        stripes: parse_u64("stripes", 1_000_000)?,
        damaged: flag_num(&flags, "damaged")?.unwrap_or(16),
        scenarios: flag_num(&flags, "scenarios")?.unwrap_or(3),
        sector_bytes: flag_num(&flags, "bytes")?.unwrap_or(4096),
        seed: parse_u64("seed", 2015)?,
        threads: flag_num(&flags, "threads")?.unwrap_or(1),
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

/// The value of the numeric flag `--name`, if given: a value that does
/// not parse is the usage error, never a silent default.
fn flag_num(flags: &Flags, name: &str) -> Result<Option<usize>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|e| format!("bad --{name} {v:?}: {e}")))
        .transpose()
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
