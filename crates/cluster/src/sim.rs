//! A simulated cluster repair over a sharded archive: the coordinator
//! keeps the [`Planner`](ppm_core::Planner) half of the repair session,
//! N worker threads keep the sectors, and only plans and partial-sum
//! blocks cross the (in-process) wire.
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
//! # Chaos and supervision
//!
//! The links can optionally run through a
//! [`ChaosTransport`](crate::ChaosTransport) (see [`SimConfig::chaos`]),
//! which drops, corrupts, truncates, duplicates, reorders, delays, and
//! hangs frames per a seeded schedule. The coordinator survives all of
//! it through one supervised exchange primitive: every request gets a
//! fresh v2-sealed frame (sequence numbers make chaos duplicates
//! detectable without eating retries), a per-attempt deadline, a
//! speculative hedge resend for stragglers, and bounded retries with
//! decorrelated-jitter backoff. When a worker exhausts its retries it
//! is declared dead and its remaining repairs fail over: the stripe is
//! re-homed onto a surviving worker via
//! [`CoordinatorRequest::Adopt`] and repaired there, or — with nobody
//! left — repaired at the coordinator itself
//! ([`RepairService::repair_verified`] on the retained damaged copy).
//! Either way the archive converges bit-identical to the single-node
//! reference; [`ChaosStats`] reports what it cost.

use crate::chaos::{ChaosConfig, ChaosCounters, ChaosTransport, InjectedFaults};
use crate::error::ClusterError;
use crate::frame::{seal_v2, unseal, FRAME_VERSION};
use crate::message::{CoordinatorRequest, WorkerResponse};
use crate::transport::{channel_pair, Transport};
use crate::worker::Worker;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{DecoderConfig, ExecutableWirePlan, RepairError, RepairService};
use ppm_gf::GfWord;
use ppm_stripe::{random_data_stripe, Stripe};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the coordinator repairs a damaged stripe on a remote worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// Ship the wire plan to the data: the worker runs phase A locally
    /// and only partial-sum blocks cross the wire (the PPM way).
    Partial,
    /// Ship the data to the plan: fetch every surviving sector, repair
    /// centrally, ship the recovered sectors back (the baseline).
    Naive,
}

impl RepairMode {
    /// Stable lowercase name, used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            RepairMode::Partial => "partial",
            RepairMode::Naive => "naive",
        }
    }
}

/// How the coordinator supervises each request: per-attempt deadline,
/// bounded retries with decorrelated-jitter backoff, and an optional
/// straggler hedge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long one attempt waits for a matching response.
    pub deadline_ms: u64,
    /// Total attempts per exchange before the worker is declared dead.
    pub max_attempts: u32,
    /// Backoff floor between attempts.
    pub backoff_base_ms: u64,
    /// Backoff ceiling between attempts.
    pub backoff_cap_ms: u64,
    /// After this much silence within an attempt, resend the request
    /// speculatively (a hedge against stragglers). `0` disables.
    pub hedge_after_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Clean links answer in microseconds; these only matter under
        // chaos, where tests tighten them. The default deadline is
        // generous so slow debug builds never time out spuriously, and
        // hedging is off so clean runs stay byte-deterministic.
        RetryPolicy {
            deadline_ms: 10_000,
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_cap_ms: 100,
            hedge_after_ms: 0,
        }
    }
}

impl RetryPolicy {
    /// A tight policy for chaos tests: short deadlines, fast hedging,
    /// enough attempts to ride out bursty loss.
    pub fn aggressive() -> Self {
        RetryPolicy {
            deadline_ms: 150,
            max_attempts: 6,
            backoff_base_ms: 2,
            backoff_cap_ms: 20,
            hedge_after_ms: 40,
        }
    }
}

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

/// Bytes and frames moved over every coordinator↔worker link, counted
/// as framed payloads (each frame costs its payload plus the 4-byte
/// length prefix a stream transport would add). Under chaos this counts
/// what the coordinator *offered and accepted* — retries, hedges, and
/// chaos duplicates included — so comparing against a clean run of the
/// same seed measures retry amplification directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Coordinator → worker bytes (requests, shipped plans, installs).
    pub to_workers_bytes: u64,
    /// Worker → coordinator bytes (partial blocks, fetched sectors).
    pub from_workers_bytes: u64,
    /// Of `to_workers_bytes`, how many were encoded wire plans.
    pub plan_bytes: u64,
    /// Frames in both directions.
    pub frames: u64,
}

impl Traffic {
    /// Total bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.to_workers_bytes + self.from_workers_bytes
    }
}

/// What surviving the chaos cost: supervision-side counters plus the
/// injected-fault totals from every link's [`ChaosTransport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Full re-sends after a timed-out attempt.
    pub retries: u64,
    /// Attempts whose deadline elapsed with no matching response.
    pub timeouts: u64,
    /// Speculative straggler re-sends within an attempt.
    pub hedges: u64,
    /// Exchanges that completed while a hedge was outstanding.
    pub hedges_won: u64,
    /// Stripes re-homed onto a surviving worker via `Adopt`.
    pub redispatches: u64,
    /// Stripes repaired at the coordinator because no worker survived.
    pub degraded_local: u64,
    /// Frames failing the v2 integrity checks, coordinator and worker
    /// sides summed.
    pub corrupt_frames_caught: u64,
    /// v2 frames discarded for a non-advancing sequence number, both
    /// sides summed.
    pub dup_frames_dropped: u64,
    /// Well-formed responses for the wrong stripe or kind (hedge and
    /// retry leftovers), discarded.
    pub stale_discarded: u64,
    /// Workers that exhausted retries and were failed over.
    pub workers_declared_dead: u64,
    /// What the chaos layer actually injected, summed over links.
    pub injected: InjectedFaults,
}

impl ChaosStats {
    /// Hand-rolled JSON object, matching the workspace's report style.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"retries\":{},\"timeouts\":{},\"hedges\":{},\
             \"hedges_won\":{},\"redispatches\":{},\"degraded_local\":{},\
             \"corrupt_frames_caught\":{},\"dup_frames_dropped\":{},\
             \"stale_discarded\":{},\"workers_declared_dead\":{},\
             \"injected\":{}}}",
            self.retries,
            self.timeouts,
            self.hedges,
            self.hedges_won,
            self.redispatches,
            self.degraded_local,
            self.corrupt_frames_caught,
            self.dup_frames_dropped,
            self.stale_discarded,
            self.workers_declared_dead,
            self.injected.to_json(),
        )
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
}

impl SimReport {
    /// The report of a run that has not repaired anything yet.
    fn blank(cfg: &SimConfig, mode: RepairMode) -> Self {
        SimReport {
            mode,
            workers: cfg.workers,
            archive_stripes: cfg.stripes,
            sector_bytes: cfg.sector_bytes,
            damaged: cfg.damaged,
            repaired: 0,
            split_rests: 0,
            local_rests: 0,
            plans_shipped: 0,
            identical: true,
            verified_clean: 0,
            violations: 0,
            frame_version: cfg.frame_version,
            traffic: Traffic::default(),
            chaos: ChaosStats::default(),
        }
    }

    /// Serializes the report as a JSON object (hand-rolled, like
    /// [`PlanCacheStats::to_json`](ppm_core::PlanCacheStats::to_json)).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"workers\":{},\"archive_stripes\":{},\
             \"sector_bytes\":{},\"damaged\":{},\"repaired\":{},\
             \"split_rests\":{},\"local_rests\":{},\"plans_shipped\":{},\
             \"identical\":{},\"verified_clean\":{},\"violations\":{},\
             \"frame_version\":{},\
             \"to_workers_bytes\":{},\"from_workers_bytes\":{},\
             \"plan_bytes\":{},\"frames\":{},\"total_bytes\":{},\
             \"chaos\":{}}}",
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
        )
    }
}

/// One damaged stripe the coordinator tracks: where it lives, what
/// failed, what the single-node reference repair says its final bytes
/// must be — and a retained copy of the damage itself, which is what
/// makes failover possible (a dead worker's stripe can be re-homed or
/// repaired in place from this copy).
struct Case {
    id: u64,
    scenario: FailureScenario,
    expected: Stripe,
    damaged: Stripe,
}

/// Where a case's repaired bytes ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Location {
    /// In worker `w`'s shard (the original owner or an adopter).
    Worker(usize),
    /// In the coordinator's orphan map (degraded local repair).
    Coordinator,
}

/// Which response kind an exchange is waiting for; anything else for
/// the right stripe is a stale leftover from a retry or hedge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    Partials,
    Sectors,
    Installed,
}

fn matches(response: &WorkerResponse, want: Want, stripe: u64) -> bool {
    match (want, response) {
        (Want::Partials, WorkerResponse::Partials { stripe: s, .. }) => *s == stripe,
        (Want::Sectors, WorkerResponse::Sectors { stripe: s, .. }) => *s == stripe,
        (Want::Installed, WorkerResponse::Installed { stripe: s, .. }) => *s == stripe,
        _ => false,
    }
}

/// One coordinator↔worker link with its supervision state.
struct Link {
    transport: Box<dyn Transport>,
    /// Injected-fault counters when the link runs through chaos.
    counters: Option<Arc<ChaosCounters>>,
    /// Next outbound v2 sequence number; every send — retries and
    /// hedges included — burns a fresh one, so only *chaos-made*
    /// duplicates are non-advancing.
    next_seq: u32,
    /// Highest inbound v2 sequence number accepted.
    last_seen: Option<u32>,
    /// Cleared when the worker exhausts its retries; dead links get no
    /// further requests and their shard entries are written off.
    alive: bool,
}

/// The coordinator's drive state: links, plan bookkeeping, supervision
/// policy, and the counters everything feeds.
struct Coordinator<'a, W: GfWord, C: ErasureCode<W>> {
    service: &'a RepairService<W, &'a C>,
    links: Vec<Link>,
    shipped: HashSet<(usize, String)>,
    compiled: HashMap<String, ExecutableWirePlan<W>>,
    policy: RetryPolicy,
    jitter: StdRng,
    traffic: Traffic,
    stats: ChaosStats,
    sector_bytes: usize,
    total_sectors: usize,
}

impl<'a, W: GfWord, C: ErasureCode<W>> Coordinator<'a, W, C> {
    fn link_mut(&mut self, worker: usize) -> Result<&mut Link, ClusterError> {
        self.links
            .get_mut(worker)
            .ok_or_else(|| ClusterError::Protocol(format!("no link for worker {worker}")))
    }

    fn is_alive(&self, worker: usize) -> bool {
        self.links.get(worker).is_some_and(|l| l.alive)
    }

    fn declare_dead(&mut self, worker: usize) {
        if let Some(link) = self.links.get_mut(worker) {
            if link.alive {
                link.alive = false;
                self.stats.workers_declared_dead += 1;
            }
        }
    }

    /// Sends one framed request. Every call seals a fresh frame with
    /// the link's next sequence number.
    fn send_on(&mut self, worker: usize, payload: &[u8]) -> Result<(), ClusterError> {
        let link = self.link_mut(worker)?;
        let frame = seal_v2(link.next_seq, payload);
        link.next_seq = link.next_seq.wrapping_add(1);
        self.traffic.to_workers_bytes += 4 + frame.len() as u64;
        self.traffic.frames += 1;
        self.link_mut(worker)?
            .transport
            .send(frame)
            .map_err(ClusterError::Io)
    }

    /// Receives decodable responses from one link until `deadline`,
    /// discarding line noise: frames failing the v2 checks (a bare or
    /// magic-flipped frame among them) are counted and skipped,
    /// duplicates (non-advancing sequence) are counted and skipped.
    /// `Ok(None)` means the deadline passed in silence.
    fn recv_until(
        &mut self,
        worker: usize,
        deadline: Instant,
    ) -> Result<Option<WorkerResponse>, ClusterError> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let received = self
                .link_mut(worker)?
                .transport
                .recv_timeout(remaining)
                .map_err(ClusterError::Io)?;
            let Some(frame) = received else {
                return Ok(None);
            };
            self.traffic.from_workers_bytes += 4 + frame.len() as u64;
            self.traffic.frames += 1;
            let Ok(opened) = unseal(frame) else {
                self.stats.corrupt_frames_caught += 1;
                continue;
            };
            let link = self.link_mut(worker)?;
            if link.last_seen.is_some_and(|prev| opened.seq <= prev) {
                self.stats.dup_frames_dropped += 1;
                continue;
            }
            link.last_seen = Some(opened.seq);
            // CRC-clean but undecodable is a protocol bug, not line
            // noise — `?` surfaces it.
            return match WorkerResponse::decode(&opened.payload)? {
                WorkerResponse::Error { message } => Err(ClusterError::Protocol(message)),
                response => Ok(Some(response)),
            };
        }
    }

    /// The supervised request/response primitive everything else rides
    /// on: per-attempt deadline, optional straggler hedge, bounded
    /// retries with decorrelated-jitter backoff. Responses that don't
    /// match (`want`, `stripe`) are stale leftovers and are discarded.
    ///
    /// Returns [`ClusterError::RetriesExhausted`] when every attempt
    /// timed out — the caller's cue to declare the worker dead.
    fn exchange(
        &mut self,
        worker: usize,
        stripe: u64,
        payload: &[u8],
        want: Want,
    ) -> Result<WorkerResponse, ClusterError> {
        let policy = self.policy;
        let deadline_len = Duration::from_millis(policy.deadline_ms.max(1));
        let mut prev_backoff = policy.backoff_base_ms.max(1);
        for attempt in 1..=policy.max_attempts.max(1) {
            if attempt > 1 {
                self.stats.retries += 1;
                // Decorrelated jitter: sleep in [base, min(cap, 3·prev)],
                // feeding the draw back in as the next "prev".
                let base = policy.backoff_base_ms.max(1);
                let cap = policy.backoff_cap_ms.max(base + 1);
                let hi = prev_backoff.saturating_mul(3).clamp(base + 1, cap);
                let sleep_ms = self.jitter.random_range(base..=hi);
                prev_backoff = sleep_ms;
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            self.send_on(worker, payload)?;
            let attempt_deadline = Instant::now() + deadline_len;
            let mut hedged = false;
            loop {
                let now = Instant::now();
                if now >= attempt_deadline {
                    break;
                }
                let hedge_pending = policy.hedge_after_ms > 0 && !hedged;
                let slice_deadline = if hedge_pending {
                    attempt_deadline.min(now + Duration::from_millis(policy.hedge_after_ms))
                } else {
                    attempt_deadline
                };
                match self.recv_until(worker, slice_deadline)? {
                    Some(response) => {
                        if matches(&response, want, stripe) {
                            if hedged {
                                self.stats.hedges_won += 1;
                            }
                            return Ok(response);
                        }
                        self.stats.stale_discarded += 1;
                    }
                    None => {
                        if hedge_pending && slice_deadline < attempt_deadline {
                            // Silence past the hedge threshold: resend
                            // speculatively and keep waiting out the
                            // attempt. Workers are idempotent and the
                            // fresh sequence number keeps the hedge
                            // from being eaten as a duplicate.
                            self.stats.hedges += 1;
                            hedged = true;
                            self.send_on(worker, payload)?;
                        }
                    }
                }
            }
            self.stats.timeouts += 1;
        }
        Err(ClusterError::RetriesExhausted {
            worker,
            stripe,
            attempts: policy.max_attempts.max(1),
        })
    }

    /// PPM-mode repair of one stripe on `owner`: plan up (first time
    /// only), partial blocks back, aggregated sectors down.
    fn repair_partial(
        &mut self,
        case: &Case,
        owner: usize,
        report: &mut SimReport,
    ) -> Result<(), ClusterError> {
        let key = self.service.planner().plan_key(&case.scenario).to_string();
        let plan = if self.shipped.insert((owner, key.clone())) {
            let (wire, _) = self.service.planner().wire_plan_for(&case.scenario)?;
            if !self.compiled.contains_key(&key) {
                self.compiled.insert(
                    key.clone(),
                    wire.compile::<W>(self.service.planner().backend())?,
                );
            }
            let bytes = wire.encode();
            self.traffic.plan_bytes += bytes.len() as u64;
            report.plans_shipped += 1;
            Some(bytes)
        } else {
            None
        };

        let request = CoordinatorRequest::Repair {
            stripe: case.id,
            plan_key: key.clone(),
            plan,
        }
        .encode();
        let response = self.exchange(owner, case.id, &request, Want::Partials)?;
        let WorkerResponse::Partials {
            rest_blocks,
            rest_pending,
            violated_rows,
            ..
        } = response
        else {
            return unexpected(response);
        };
        if !rest_pending {
            report.local_rests += 1;
            tally_verify(report, violated_rows.as_deref());
            return Ok(());
        }
        let compiled = self.compiled.get(&key).ok_or_else(|| {
            ClusterError::Protocol(format!("no compiled plan retained for key {key}"))
        })?;
        // Phase B: F⁻¹ · T on the shipped partial sums — the
        // coordinator never holds the stripe.
        let recovered = self
            .service
            .executor()
            .finish_rest(compiled, &rest_blocks, self.sector_bytes)
            .map_err(|e| match e {
                // `rest_pending` is a wire-supplied bit: a worker that
                // sets it for a plan whose H_rest cannot split is
                // wrong, and that must not take the coordinator down.
                RepairError::RestNotSplittable => ClusterError::Protocol(format!(
                    "worker {owner} reported a pending rest for non-splittable plan {key}"
                )),
                e => ClusterError::Repair(e),
            })?;
        let sectors = recovered
            .into_iter()
            .map(|(sector, bytes)| (sector as u32, bytes))
            .collect();
        let install = CoordinatorRequest::Install {
            stripe: case.id,
            sectors,
        }
        .encode();
        let response = self.exchange(owner, case.id, &install, Want::Installed)?;
        let WorkerResponse::Installed { violated_rows, .. } = response else {
            return unexpected(response);
        };
        report.split_rests += 1;
        tally_verify(report, violated_rows.as_deref());
        Ok(())
    }

    /// Baseline repair of one stripe on `owner`: every surviving sector
    /// up, repair centrally, recovered sectors down.
    fn repair_naive(
        &mut self,
        case: &Case,
        owner: usize,
        report: &mut SimReport,
    ) -> Result<(), ClusterError> {
        let survivors: Vec<u32> = case
            .scenario
            .surviving(self.total_sectors)
            .into_iter()
            .map(|s| s as u32)
            .collect();
        let fetch = CoordinatorRequest::FetchSectors {
            stripe: case.id,
            sectors: survivors,
        }
        .encode();
        let response = self.exchange(owner, case.id, &fetch, Want::Sectors)?;
        let WorkerResponse::Sectors {
            sectors: fetched, ..
        } = response
        else {
            return unexpected(response);
        };

        // Rebuild the stripe centrally from the shipped survivors and
        // repair it with the full single-node service.
        let mut stripe = Stripe::zeroed(self.service.planner().code().layout(), self.sector_bytes);
        for (sector, bytes) in &fetched {
            let s = *sector as usize;
            if s >= self.total_sectors || bytes.len() != self.sector_bytes {
                return Err(ClusterError::Protocol(format!(
                    "worker returned malformed sector {s}"
                )));
            }
            stripe.write_sector(s, bytes);
        }
        self.service.repair_verified(&mut stripe, &case.scenario)?;

        let sectors = case
            .scenario
            .faulty()
            .iter()
            .map(|&s| (s as u32, stripe.sector(s).to_vec()))
            .collect();
        let install = CoordinatorRequest::Install {
            stripe: case.id,
            sectors,
        }
        .encode();
        let response = self.exchange(owner, case.id, &install, Want::Installed)?;
        let WorkerResponse::Installed { .. } = response else {
            return unexpected(response);
        };
        report.verified_clean += 1;
        Ok(())
    }

    fn repair_one(
        &mut self,
        mode: RepairMode,
        case: &Case,
        owner: usize,
        report: &mut SimReport,
    ) -> Result<(), ClusterError> {
        match mode {
            RepairMode::Partial => self.repair_partial(case, owner, report),
            RepairMode::Naive => self.repair_naive(case, owner, report),
        }
    }

    /// Failover for a case whose owner is dead: re-home the retained
    /// damaged copy onto a surviving worker via `Adopt` and repair it
    /// there; with no survivors, repair it at the coordinator. The
    /// archive converges either way — failover changes *where*, never
    /// *whether*.
    fn failover(
        &mut self,
        mode: RepairMode,
        case: &Case,
        original: usize,
        report: &mut SimReport,
        orphans: &mut HashMap<u64, Stripe>,
    ) -> Result<Location, ClusterError> {
        let layout = case.damaged.layout();
        let candidates: Vec<usize> = (0..self.links.len())
            .filter(|&w| w != original && self.is_alive(w))
            .collect();
        for candidate in candidates {
            let sectors: Vec<(u32, Vec<u8>)> = (0..layout.sectors())
                .map(|s| (s as u32, case.damaged.sector(s).to_vec()))
                .collect();
            let adopt = CoordinatorRequest::Adopt {
                stripe: case.id,
                n: layout.n as u32,
                r: layout.r as u32,
                sector_bytes: self.sector_bytes as u32,
                sectors,
            }
            .encode();
            match self.exchange(candidate, case.id, &adopt, Want::Installed) {
                Ok(_) => {}
                Err(ClusterError::RetriesExhausted { .. }) => {
                    self.declare_dead(candidate);
                    continue;
                }
                Err(e) => return Err(e),
            }
            self.stats.redispatches += 1;
            match self.repair_one(mode, case, candidate, report) {
                Ok(()) => return Ok(Location::Worker(candidate)),
                Err(ClusterError::RetriesExhausted { .. }) => {
                    self.declare_dead(candidate);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // Nobody left standing: degrade to a local verified repair on
        // the retained copy. "Data stays put" yields to "data stays
        // *alive*".
        let mut stripe = case.damaged.clone();
        self.service.repair_verified(&mut stripe, &case.scenario)?;
        report.verified_clean += 1;
        self.stats.degraded_local += 1;
        orphans.insert(case.id, stripe);
        Ok(Location::Coordinator)
    }
}

/// Runs a full simulated cluster repair and checks it bit-for-bit
/// against single-node [`RepairService::repair_verified`].
///
/// The coordinator materializes each damaged stripe deterministically,
/// injects the erasures, repairs a retained copy through the reference
/// service, and hands the damaged original to its owning worker. It
/// then drives the repair over in-process channel transports in the
/// requested [`RepairMode`] — through a fault-injecting
/// [`ChaosTransport`](crate::ChaosTransport) when [`SimConfig::chaos`]
/// is set — supervised per [`SimConfig::retry`], with worker failover
/// on retry exhaustion. Finally it shuts the workers down, collects the
/// shards (and any degraded-local orphans), and compares every repaired
/// stripe against the reference.
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

    let config = DecoderConfig {
        threads: cfg.threads,
        ..DecoderConfig::default()
    };
    let service = RepairService::new(code, config);
    let total_sectors = code.layout().sectors();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = scenario_pool(&service, cfg, total_sectors, &mut rng)?;

    // Damage placement over the full id space; only these ids are ever
    // materialized.
    let mut damaged_ids: BTreeSet<u64> = BTreeSet::new();
    while damaged_ids.len() < cfg.damaged {
        damaged_ids.insert(rng.random_range(0..cfg.stripes));
    }

    let mut cases: Vec<Case> = Vec::with_capacity(cfg.damaged);
    let mut shards: Vec<HashMap<u64, Stripe>> = (0..cfg.workers).map(|_| HashMap::new()).collect();
    for &id in &damaged_ids {
        let mut stripe_rng =
            StdRng::seed_from_u64(cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut stripe = random_data_stripe(code, cfg.sector_bytes, &mut stripe_rng);
        service.encode(&mut stripe)?;
        let scenario = pool
            .get((id % pool.len() as u64) as usize)
            .cloned()
            .unwrap_or_else(|| pool[0].clone());
        let mut damaged = stripe.clone();
        damaged.erase(&scenario);

        // The single-node reference: repair a retained copy locally.
        let mut expected = damaged.clone();
        service.repair_verified(&mut expected, &scenario)?;

        let owner = (id % cfg.workers as u64) as usize;
        if let Some(shard) = shards.get_mut(owner) {
            shard.insert(id, damaged.clone());
        }
        cases.push(Case {
            id,
            scenario,
            expected,
            damaged,
        });
    }

    // Spawn the workers on their own threads, each holding its shard;
    // wrap the coordinator end of each link in chaos when configured.
    let mut links: Vec<Link> = Vec::with_capacity(cfg.workers);
    let mut handles = Vec::with_capacity(cfg.workers);
    for (w, shard) in shards.into_iter().enumerate() {
        let (coordinator_end, worker_end) = channel_pair();
        let worker: Worker<W> = Worker::new(w, shard, config);
        handles.push(std::thread::spawn(move || worker.serve(&worker_end)));
        let (transport, counters): (Box<dyn Transport>, Option<Arc<ChaosCounters>>) =
            match &cfg.chaos {
                Some(chaos) => {
                    let chaotic = ChaosTransport::new(coordinator_end, chaos.for_link(w as u64));
                    let counters = chaotic.counters();
                    (Box::new(chaotic), Some(counters))
                }
                None => (Box::new(coordinator_end), None),
            };
        links.push(Link {
            transport,
            counters,
            next_seq: 0,
            last_seen: None,
            alive: true,
        });
    }

    let mut report = SimReport::blank(cfg, mode);

    let mut coordinator = Coordinator {
        service: &service,
        links,
        shipped: HashSet::new(),
        compiled: HashMap::new(),
        policy: cfg.retry,
        jitter: StdRng::seed_from_u64(cfg.seed ^ 0x000C_4A05_u64),
        traffic: Traffic::default(),
        stats: ChaosStats::default(),
        sector_bytes: cfg.sector_bytes,
        total_sectors,
    };

    // Degraded-local repairs land here; `locations` remembers where
    // every case's final bytes live for the comparison pass.
    let mut orphans: HashMap<u64, Stripe> = HashMap::new();
    let mut locations: HashMap<u64, Location> = HashMap::new();

    let mut drive_err: Option<ClusterError> = None;
    for case in &cases {
        let owner = (case.id % cfg.workers as u64) as usize;
        let outcome = if coordinator.is_alive(owner) {
            coordinator.repair_one(mode, case, owner, &mut report)
        } else {
            Err(ClusterError::WorkerDead { worker: owner })
        };
        let location = match outcome {
            Ok(()) => Ok(Location::Worker(owner)),
            Err(ClusterError::RetriesExhausted { worker, .. }) => {
                coordinator.declare_dead(worker);
                coordinator.failover(mode, case, owner, &mut report, &mut orphans)
            }
            Err(ClusterError::WorkerDead { .. }) => {
                coordinator.failover(mode, case, owner, &mut report, &mut orphans)
            }
            Err(e) => Err(e),
        };
        match location {
            Ok(location) => {
                locations.insert(case.id, location);
                report.repaired += 1;
            }
            Err(e) => {
                drive_err = Some(e);
                break;
            }
        }
    }

    // Always shut the workers down and join them, even on a drive
    // error, so threads never outlive the call. Chaos may eat a
    // Shutdown frame — dropping the links afterwards closes every
    // channel, and `serve` hands the shard back either way.
    let shutdown = CoordinatorRequest::Shutdown.encode();
    for w in 0..cfg.workers {
        if coordinator.is_alive(w) {
            let _ = coordinator.send_on(w, &shutdown);
        }
    }
    for link in &coordinator.links {
        if let Some(counters) = &link.counters {
            coordinator.stats.injected.absorb(&counters.snapshot());
        }
    }
    coordinator.links.clear();
    let mut final_shards: Vec<HashMap<u64, Stripe>> = Vec::with_capacity(cfg.workers);
    for handle in handles {
        let (shard, _closed, worker_stats) = handle
            .join()
            .map_err(|_| ClusterError::Protocol("worker thread panicked".into()))?;
        coordinator.stats.corrupt_frames_caught += worker_stats.corrupt_caught;
        coordinator.stats.dup_frames_dropped += worker_stats.dups_dropped;
        final_shards.push(shard);
    }
    if let Some(e) = drive_err {
        return Err(e);
    }

    for case in &cases {
        let repaired = match locations.get(&case.id) {
            Some(Location::Worker(w)) => final_shards.get(*w).and_then(|s| s.get(&case.id)),
            Some(Location::Coordinator) => orphans.get(&case.id),
            None => None,
        };
        if repaired != Some(&case.expected) {
            report.identical = false;
        }
    }
    report.traffic = coordinator.traffic;
    report.chaos = coordinator.stats;
    Ok(report)
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

fn unexpected(response: WorkerResponse) -> Result<(), ClusterError> {
    Err(ClusterError::Protocol(format!(
        "unexpected response kind: {response:?}"
    )))
}

fn tally_verify(report: &mut SimReport, violated: Option<&[u32]>) {
    if let Some(rows) = violated {
        if rows.is_empty() {
            report.verified_clean += 1;
        } else {
            report.violations += rows.len();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::chaos::ChaosConfig;
    use ppm_codes::SdCode;
    use ppm_core::Strategy;
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

    fn chaos_cfg(workers: usize, seed: u64, rates: ChaosRates) -> SimConfig {
        SimConfig {
            damaged: 8,
            chaos: Some(ChaosConfig {
                seed,
                rates,
                delay_ms: 5,
            }),
            retry: RetryPolicy::aggressive(),
            ..small_cfg(workers)
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

    #[test]
    fn partial_mode_moves_fewer_bytes_than_naive() {
        let code = paper_code();
        let cfg = small_cfg(4);
        let partial = run_sim(&code, &cfg, RepairMode::Partial).expect("partial");
        let naive = run_sim(&code, &cfg, RepairMode::Naive).expect("naive");
        assert!(
            partial.traffic.total_bytes() < naive.traffic.total_bytes(),
            "partial moved {} bytes, naive {}",
            partial.traffic.total_bytes(),
            naive.traffic.total_bytes()
        );
    }

    #[test]
    fn sim_is_deterministic_for_a_seed() {
        let code = paper_code();
        let cfg = small_cfg(3);
        let a = run_sim(&code, &cfg, RepairMode::Partial).expect("a");
        let b = run_sim(&code, &cfg, RepairMode::Partial).expect("b");
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.plans_shipped, b.plans_shipped);
        assert_eq!(a.split_rests, b.split_rests);
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
    fn chaos_drops_are_survived_by_retries() {
        let code = paper_code();
        let cfg = chaos_cfg(
            3,
            41,
            ChaosRates {
                drop: 0.15,
                delay: 0.10,
                ..ChaosRates::default()
            },
        );
        let report = run_sim(&code, &cfg, RepairMode::Partial).expect("chaotic sim");
        assert!(report.identical, "chaos must not change the bytes");
        assert_eq!(report.repaired, report.damaged);
        assert!(
            report.chaos.injected.total() > 0,
            "the configured chaos must actually fire"
        );
        assert!(
            report.chaos.injected.dropped == 0 || report.chaos.timeouts > 0,
            "dropped frames must surface as timeouts"
        );
    }

    #[test]
    fn chaos_corruption_is_caught_not_decoded() {
        let code = paper_code();
        let cfg = chaos_cfg(
            3,
            42,
            ChaosRates {
                corrupt: 0.20,
                truncate: 0.05,
                ..ChaosRates::default()
            },
        );
        let report = run_sim(&code, &cfg, RepairMode::Partial).expect("chaotic sim");
        assert!(report.identical);
        assert!(report.chaos.injected.corrupted > 0);
        assert!(
            report.chaos.corrupt_frames_caught > 0,
            "every corruption that reached a peer must be caught, got stats {:?}",
            report.chaos
        );
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn all_links_hanging_degrades_to_local_repair() {
        let code = paper_code();
        let mut cfg = chaos_cfg(
            2,
            43,
            ChaosRates {
                hang: 1.0,
                ..ChaosRates::default()
            },
        );
        cfg.damaged = 4;
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
        assert_eq!(report.chaos.redispatches, 0);
    }

    /// Trust boundary: `rest_pending` arrives over the wire. A worker
    /// that sets it on a matrix-first plan (whose `H_rest` reads sectors
    /// directly and cannot be finished from partial sums) is a protocol
    /// violation the coordinator reports — it must not panic.
    #[test]
    fn forged_rest_pending_on_a_matrix_first_plan_is_a_protocol_error() {
        let code = paper_code();
        let cfg = small_cfg(1);
        let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        for strategy in [
            Strategy::TraditionalMatrixFirst,
            Strategy::PpmMatrixFirstRest,
        ] {
            let service =
                RepairService::new(&code, DecoderConfig::default()).with_strategy(strategy);
            let (coordinator_end, worker_end) = channel_pair();
            // The rogue worker's answer is already on the wire when the
            // request goes out.
            let forged = WorkerResponse::Partials {
                stripe: 7,
                rest_blocks: Vec::new(),
                rest_pending: true,
                violated_rows: None,
            };
            worker_end.send(seal_v2(0, &forged.encode())).unwrap();
            let mut coordinator = lone_coordinator(&service, coordinator_end, &cfg);
            let stripe = Stripe::zeroed(code.layout(), cfg.sector_bytes);
            let case = Case {
                id: 7,
                scenario: scenario.clone(),
                expected: stripe.clone(),
                damaged: stripe,
            };
            let mut report = SimReport::blank(&cfg, RepairMode::Partial);
            let err = coordinator
                .repair_partial(&case, 0, &mut report)
                .unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol(m) if m.contains("non-splittable")),
                "{strategy:?}: {err}"
            );
            assert_eq!(report.split_rests, 0);
        }
    }

    /// A coordinator over one clean link, for driving its primitives
    /// directly.
    fn lone_coordinator<'a>(
        service: &'a RepairService<u8, &'a SdCode<u8>>,
        coordinator_end: crate::transport::ChannelTransport,
        cfg: &SimConfig,
    ) -> Coordinator<'a, u8, SdCode<u8>> {
        Coordinator {
            service,
            links: vec![Link {
                transport: Box::new(coordinator_end),
                counters: None,
                next_seq: 0,
                last_seen: None,
                alive: true,
            }],
            shipped: HashSet::new(),
            compiled: HashMap::new(),
            policy: cfg.retry,
            jitter: StdRng::seed_from_u64(1),
            traffic: Traffic::default(),
            stats: ChaosStats::default(),
            sector_bytes: cfg.sector_bytes,
            total_sectors: service.code().layout().sectors(),
        }
    }

    /// With v1 gone, a frame without the magic — a bare payload, or a
    /// sealed frame whose magic byte took a bit-flip — is line noise on
    /// both ends: counted as caught corruption, never handed to the
    /// protocol decoder, never answered.
    #[test]
    fn bare_frames_are_caught_on_both_ends_and_never_decoded() {
        let code = paper_code();
        let bare_shutdown = CoordinatorRequest::Shutdown.encode();
        let mut demoted = seal_v2(0, &bare_shutdown);
        demoted[0] ^= 0x10;

        // Worker side. Had either frame reached `CoordinatorRequest::
        // decode`, the loop would have shut down before the sealed fetch
        // was answered (and garbage would have counted `undecodable`).
        let (coordinator_end, worker_end) = channel_pair();
        let worker: Worker<u8> = Worker::new(0, HashMap::new(), DecoderConfig::default());
        coordinator_end.send(bare_shutdown).unwrap();
        coordinator_end.send(demoted).unwrap();
        coordinator_end.send(vec![0xFF; 32]).unwrap();
        let fetch = CoordinatorRequest::FetchSectors {
            stripe: 9,
            sectors: vec![0],
        };
        coordinator_end.send(seal_v2(0, &fetch.encode())).unwrap();
        coordinator_end
            .send(seal_v2(1, &CoordinatorRequest::Shutdown.encode()))
            .unwrap();
        let (_, err, stats) = worker.serve(&worker_end);
        assert!(err.is_none());
        assert_eq!(
            stats,
            crate::WorkerFrameStats {
                corrupt_caught: 3,
                dups_dropped: 0,
                undecodable: 0,
            }
        );
        // Exactly one reply — to the sealed fetch — and it is sealed.
        let reply = unseal(coordinator_end.recv().unwrap()).expect("sealed reply");
        assert!(matches!(
            WorkerResponse::decode(&reply.payload).unwrap(),
            WorkerResponse::Error { .. }
        ));
        assert!(coordinator_end
            .recv_timeout(Duration::from_millis(1))
            .is_ok_and(|f| f.is_none()));

        // Coordinator side: a bare response ahead of the sealed one is
        // skipped and counted; the sealed one is what comes back.
        let service = RepairService::new(&code, DecoderConfig::default());
        let (coordinator_end, worker_end) = channel_pair();
        let installed = WorkerResponse::Installed {
            stripe: 7,
            violated_rows: None,
        };
        worker_end.send(installed.encode()).unwrap();
        worker_end.send(seal_v2(0, &installed.encode())).unwrap();
        let mut coordinator = lone_coordinator(&service, coordinator_end, &small_cfg(1));
        let got = coordinator
            .recv_until(0, Instant::now() + Duration::from_secs(10))
            .unwrap();
        assert_eq!(got, Some(installed));
        assert_eq!(coordinator.stats.corrupt_frames_caught, 1);
        assert_eq!(coordinator.stats.dup_frames_dropped, 0);
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
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
