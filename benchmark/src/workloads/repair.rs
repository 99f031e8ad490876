//! The four in-process repair/encode workloads.

use super::{
    build_code, encoded_stripe, repair_call, service, tape_exec_ns, Checked, Code, Ledger, Service,
    Workload,
};
use crate::host::nproc;
use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::probes::ProbeCtx;
use crate::trace::{Tracer, OP};
use ppm_codes::{FailureScenario, SdCode};
use ppm_core::{BatchReport, DecodeError, ExecStats};
use ppm_matrix::Matrix;
use ppm_stripe::Stripe;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// The pristine bytes of a stripe's `sectors`, concatenated.
fn sector_bytes_of(stripe: &Stripe, sectors: &[usize]) -> Vec<u8> {
    sectors
        .iter()
        .flat_map(|&s| stripe.sector(s))
        .copied()
        .collect()
}

fn sectors_match(stripe: &Stripe, sectors: &[usize], pristine: &[u8]) -> bool {
    let sb = stripe.sector_bytes();
    pristine.len() == sectors.len() * sb
        && sectors
            .iter()
            .zip(pristine.chunks_exact(sb))
            .all(|(&s, want)| stripe.sector(s) == want)
}

/// `repair_large` and `encode_mid`: one fixed erasure pattern, repaired
/// one stripe per call, cycling a pool of pristine stripes. Only the lost
/// sectors' pristine bytes are kept for the check, so the pool is the
/// working set.
pub struct PoolRepair {
    spec: &'static str,
    svc: Service,
    scenario: FailureScenario,
    /// True for `encode_mid`: the untraced call is `RepairService::encode`.
    encode: bool,
    pool: Vec<Stripe>,
    lost: Vec<Vec<u8>>,
    calls_per_round: usize,
    last: Option<Result<ExecStats, DecodeError>>,
    ledger: Ledger,
}

impl PoolRepair {
    /// SD^{2,2}_{16,16} over GF(2^8), 128 KiB sectors (32 MiB stripes),
    /// 2 disks + 2 sectors in one row lost, T = nproc, 8-stripe pool.
    pub fn repair_large(seed: u64, scale: Scale) -> Result<Self, String> {
        let spec = "sd:16,16,2,2";
        let code = SdCode::<u8>::search(16, 16, 2, 2, 2015, 3).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = code
            .decodable_worst_case(1, &mut rng, 300)
            .ok_or("no decodable worst case for sd:16,16,2,2")?;
        let code: Code = Box::leak(Box::new(code));
        let (sector_bytes, pool) = if scale.smoke {
            (4 << 10, 2)
        } else {
            (128 << 10, 8)
        };
        Self::new(
            spec,
            code,
            scenario,
            false,
            nproc(),
            sector_bytes,
            pool,
            pool,
            &mut rng,
        )
    }

    /// LRC(12,2,2) with 4 rows over GF(2^8), 16 KiB sectors (1 MiB
    /// stripes), every parity sector recomputed, T = 1, 2-stripe pool.
    pub fn encode_mid(seed: u64, scale: Scale) -> Result<Self, String> {
        let spec = "lrc:12,2,2,4";
        let code = build_code(spec)?;
        let scenario = FailureScenario::new(code.parity_sectors());
        let mut rng = StdRng::seed_from_u64(seed);
        let round = if scale.smoke { 16 } else { 512 };
        Self::new(spec, code, scenario, true, 1, 16 << 10, 2, round, &mut rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        spec: &'static str,
        code: Code,
        scenario: FailureScenario,
        encode: bool,
        threads: usize,
        sector_bytes: usize,
        pool_len: usize,
        calls_per_round: usize,
        rng: &mut StdRng,
    ) -> Result<Self, String> {
        let svc = service(code, threads);
        let mut pool = Vec::with_capacity(pool_len);
        let mut lost = Vec::with_capacity(pool_len);
        for _ in 0..pool_len {
            let stripe = encoded_stripe(&svc, sector_bytes, rng)?;
            lost.push(sector_bytes_of(&stripe, scenario.faulty()));
            pool.push(stripe);
        }
        let mut w = PoolRepair {
            spec,
            svc,
            scenario,
            encode,
            pool,
            lost,
            calls_per_round,
            last: None,
            ledger: Ledger::default(),
        };
        // Warm-up: one checked repair per pool stripe builds and caches
        // the plan, fills the arena, and touches every page.
        for i in 0..pool_len as u64 {
            w.prepare(i);
            w.call(i, None);
            if w.check(i).failed > 0 {
                return Err(format!("{spec}: warm-up repair is not bit-identical"));
            }
        }
        w.ledger = Ledger::default();
        Ok(w)
    }
}

impl Workload for PoolRepair {
    fn calls_per_round(&self) -> usize {
        self.calls_per_round
    }

    fn working_set_bytes(&self) -> u64 {
        self.pool.iter().map(|s| s.total_bytes() as u64).sum()
    }

    fn prepare(&mut self, index: u64) {
        let slot = index as usize % self.pool.len();
        self.pool[slot].erase(&self.scenario);
    }

    fn call(&mut self, index: u64, tracer: Option<&mut Tracer>) {
        let slot = index as usize % self.pool.len();
        let stripe = &mut self.pool[slot];
        self.last = Some(match tracer {
            None if self.encode => self.svc.encode(stripe),
            tracer => repair_call(&self.svc, stripe, &self.scenario, tracer),
        });
    }

    fn check(&mut self, index: u64) -> Checked {
        let slot = index as usize % self.pool.len();
        let stripe = &self.pool[slot];
        let ok = match self.last.take() {
            Some(Ok(stats)) => {
                let ledger_ok = self.ledger.absorb(&stats);
                ledger_ok && sectors_match(stripe, self.scenario.faulty(), &self.lost[slot])
            }
            _ => false,
        };
        Checked {
            ops: 1,
            bytes: stripe.total_bytes() as u64,
            failed: u64::from(!ok),
        }
    }

    fn probe_ctx(&self) -> ProbeCtx {
        ProbeCtx {
            spec: self.spec,
            code: *self.svc.code(),
            scenario: self.scenario.clone(),
            sector_bytes: self.pool[0].sector_bytes(),
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, _scale: Scale) {
        self.ledger
            .put(m, self.svc.cache_stats(), self.svc.arena().stats());
    }
}

/// `repair_warm_small`: SD^{2,1}_{6,4}, 512 B sectors, 16 cached erasure
/// patterns, `repair_batch(workers = nproc)` in calls of 256 stripes.
pub struct WarmBatch {
    svc: Service,
    patterns: Vec<FailureScenario>,
    pristine: Vec<Stripe>,
    work: Vec<Stripe>,
    calls_per_round: usize,
    last: Option<Result<BatchReport, DecodeError>>,
    ledger: Ledger,
}

const WARM_SPEC: &str = "sd:6,4,2,1";
const WARM_SECTOR_BYTES: usize = 512;
const WARM_PATTERNS: usize = 16;

impl WarmBatch {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let code = SdCode::<u8>::search(6, 4, 2, 1, 2015, 3).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut patterns: Vec<FailureScenario> = Vec::new();
        let mut tries = 0;
        while patterns.len() < WARM_PATTERNS {
            tries += 1;
            if tries > 10_000 {
                return Err(format!(
                    "{WARM_SPEC}: fewer than {WARM_PATTERNS} distinct patterns"
                ));
            }
            let p = code
                .decodable_worst_case(1, &mut rng, 300)
                .ok_or("no decodable worst case for sd:6,4,2,1")?;
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        let svc = service(Box::leak(Box::new(code)), nproc());
        let batch = if scale.smoke { 16 } else { 256 };
        let pristine = (0..batch)
            .map(|_| encoded_stripe(&svc, WARM_SECTOR_BYTES, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = WarmBatch {
            svc,
            patterns,
            work: pristine.clone(),
            pristine,
            calls_per_round: if scale.smoke { 4 } else { 32 },
            last: None,
            ledger: Ledger::default(),
        };
        // Warm-up: every pattern once, so all 16 plans are cached.
        for i in 0..WARM_PATTERNS as u64 {
            w.prepare(i);
            w.call(i, None);
            if w.check(i).failed > 0 {
                return Err(format!("{WARM_SPEC}: warm-up batch is not bit-identical"));
            }
        }
        w.ledger = Ledger::default();
        Ok(w)
    }
}

impl Workload for WarmBatch {
    fn calls_per_round(&self) -> usize {
        self.calls_per_round
    }

    fn working_set_bytes(&self) -> u64 {
        self.work.iter().map(|s| s.total_bytes() as u64).sum()
    }

    fn prepare(&mut self, index: u64) {
        let pattern = &self.patterns[index as usize % self.patterns.len()];
        for stripe in &mut self.work {
            stripe.erase(pattern);
        }
    }

    fn call(&mut self, index: u64, tracer: Option<&mut Tracer>) {
        let pattern = &self.patterns[index as usize % self.patterns.len()];
        let (svc, work) = (&self.svc, &mut self.work);
        self.last = Some(match tracer {
            None => svc.repair_batch(work, pattern, nproc()),
            // The batch driver's threads are the service's own, so the
            // call is one `core.service` span; what its workers did
            // enters from the per-stripe stats, averaged over the
            // workers that ran side by side.
            Some(t) => t.span(OP, |t| {
                t.span("core.service", |t| {
                    let report = svc.repair_batch(work, pattern, nproc())?;
                    let workers = report.workers.max(1) as u64;
                    let decode: u64 = report.stats.iter().map(|s| s.total_nanos as u64).sum();
                    let tape: u64 = report.stats.iter().map(tape_exec_ns).sum();
                    t.reported("core.executor", decode / workers, |t| {
                        t.reported("core.tape.exec", tape / workers, |_| {});
                    });
                    Ok(report)
                })
            }),
        });
    }

    fn check(&mut self, _index: u64) -> Checked {
        let ops = self.work.len() as u64;
        let mut failed = 0;
        match self.last.take() {
            Some(Ok(report)) if report.stats.len() == self.work.len() => {
                for ((got, want), stats) in self.work.iter().zip(&self.pristine).zip(&report.stats)
                {
                    let ledger_ok = self.ledger.absorb(stats);
                    failed += u64::from(!(ledger_ok && got == want));
                }
            }
            _ => failed = ops,
        }
        Checked {
            ops,
            bytes: self.working_set_bytes(),
            failed,
        }
    }

    fn probe_ctx(&self) -> ProbeCtx {
        ProbeCtx {
            spec: WARM_SPEC,
            code: *self.svc.code(),
            scenario: self.patterns[0].clone(),
            sector_bytes: WARM_SECTOR_BYTES,
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, _scale: Scale) {
        self.ledger
            .put(m, self.svc.cache_stats(), self.svc.arena().stats());
    }
}

/// One code family of `repair_cold_patterns`.
struct Family {
    svc: Service,
    h: Matrix<u8>,
    /// Sectors lost per pattern.
    faults: usize,
    pristine: Stripe,
    work: Stripe,
    /// Patterns already used, as [`pattern_key`]s. Kept small: it grows
    /// with every op, and a faster program must not look like a bigger one.
    seen: HashSet<u64>,
}

/// `repair_cold_patterns`: rotating over five code families at 4 KiB
/// sectors, every op a never-seen decodable pattern of random sectors,
/// `RepairService::repair`, T = 1. Thousands of patterns against a
/// 64-entry plan cache: the hit rate is ~0 by construction.
pub struct ColdPatterns {
    families: Vec<Family>,
    rng: StdRng,
    pattern: FailureScenario,
    /// The first pattern drawn, kept for the per-layer probes.
    probe_pattern: FailureScenario,
    last: Option<Result<ExecStats, DecodeError>>,
    ledger: Ledger,
    calls_per_round: usize,
}

/// A pattern of at most four sectors packed into one word, 16 bits each
/// (`faulty()` is sorted, so equal patterns give equal keys).
fn pattern_key(pattern: &FailureScenario) -> u64 {
    debug_assert!(pattern.len() <= 4);
    pattern
        .faulty()
        .iter()
        .fold(0, |key, &sector| key << 16 | (sector as u64 & 0xFFFF))
}

/// Family spec and how many random sectors each of its patterns loses.
const COLD_FAMILIES: [(&str, usize); 5] = [
    ("sd:8,8,2,2", 4),
    ("pmds:8,8,2,2", 4),
    ("lrc:12,2,2,4", 4),
    ("pc:4,2,4,2", 4),
    ("rs:10,4,4", 4),
];
const COLD_SECTOR_BYTES: usize = 4 << 10;

impl ColdPatterns {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut families = Vec::new();
        for (spec, faults) in COLD_FAMILIES {
            let code = build_code(spec)?;
            let svc = service(code, 1);
            let pristine = encoded_stripe(&svc, COLD_SECTOR_BYTES, &mut rng)?;
            families.push(Family {
                h: code.parity_check_matrix(),
                svc,
                faults,
                work: pristine.clone(),
                pristine,
                seen: HashSet::new(),
            });
        }
        let mut w = ColdPatterns {
            families,
            rng,
            pattern: FailureScenario::new(Vec::new()),
            probe_pattern: FailureScenario::new(Vec::new()),
            last: None,
            ledger: Ledger::default(),
            calls_per_round: if scale.smoke { 10 } else { 250 },
        };
        // Warm-up: a few cold repairs per family touch the code paths and
        // the allocator; the patterns they use are never drawn again.
        for i in 0..(COLD_FAMILIES.len() * 4) as u64 {
            w.prepare(i);
            w.call(i, None);
            if w.check(i).failed > 0 {
                return Err("cold warm-up repair is not bit-identical".into());
            }
        }
        // One more draw, kept for the probes and never repaired here.
        w.prepare(0);
        w.probe_pattern = w.pattern.clone();
        w.families[0].work = w.families[0].pristine.clone();
        w.ledger = Ledger::default();
        Ok(w)
    }
}

impl Workload for ColdPatterns {
    fn calls_per_round(&self) -> usize {
        self.calls_per_round
    }

    fn working_set_bytes(&self) -> u64 {
        self.families
            .iter()
            .map(|f| f.work.total_bytes() as u64)
            .sum()
    }

    fn prepare(&mut self, index: u64) {
        let family = &mut self.families[index as usize % COLD_FAMILIES.len()];
        let layout = family.work.layout();
        // The space of small patterns is finite and a long run can use it
        // up: when many draws in a row have all been used before, forget
        // the used set. A pattern then recurs only after thousands of
        // others, far past the 64-entry plan cache, so it is still cold.
        let mut already_used = 0;
        self.pattern = loop {
            let candidate = FailureScenario::random(layout, family.faults, &mut self.rng);
            if family.h.select_columns(candidate.faulty()).rank() < candidate.len() {
                continue;
            }
            if family.seen.insert(pattern_key(&candidate)) {
                break candidate;
            }
            already_used += 1;
            if already_used >= 64 {
                family.seen.clear();
            }
        };
        family.work.erase(&self.pattern);
    }

    fn call(&mut self, index: u64, tracer: Option<&mut Tracer>) {
        let family = &mut self.families[index as usize % COLD_FAMILIES.len()];
        self.last = Some(repair_call(
            &family.svc,
            &mut family.work,
            &self.pattern,
            tracer,
        ));
    }

    fn check(&mut self, index: u64) -> Checked {
        let family = &mut self.families[index as usize % COLD_FAMILIES.len()];
        let ok = match self.last.take() {
            Some(Ok(stats)) => self.ledger.absorb(&stats) && family.work == family.pristine,
            _ => false,
        };
        if !ok {
            // Leave the next call a consistent stripe to damage.
            family.work = family.pristine.clone();
        }
        Checked {
            ops: 1,
            bytes: family.work.total_bytes() as u64,
            failed: u64::from(!ok),
        }
    }

    fn probe_ctx(&self) -> ProbeCtx {
        ProbeCtx {
            spec: COLD_FAMILIES[0].0,
            code: *self.families[0].svc.code(),
            scenario: self.probe_pattern.clone(),
            sector_bytes: COLD_SECTOR_BYTES,
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, _scale: Scale) {
        // Cache and arena counters summed over the five sessions.
        let mut cache = self.families[0].svc.cache_stats();
        let mut arena = self.families[0].svc.arena().stats();
        for f in &self.families[1..] {
            let (c, a) = (f.svc.cache_stats(), f.svc.arena().stats());
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            arena.reused += a.reused;
            arena.fresh += a.fresh;
            arena.contended += a.contended;
        }
        self.ledger.put(m, cache, arena);
    }
}
