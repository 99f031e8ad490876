//! The coordinator side: keeps the [`Planner`](ppm_core::Planner) half
//! of the repair session, ships wire plans to the workers that hold the
//! damaged stripes, finishes phase B on the partial sums they send
//! back, and supervises every exchange.
//!
//! # Supervision
//!
//! The links may drop, corrupt, truncate, duplicate, reorder, delay and
//! hang frames (see [`ChaosTransport`](crate::ChaosTransport)). The
//! coordinator survives all of it through one supervised exchange
//! primitive: every request gets a fresh v2-sealed frame (sequence
//! numbers make chaos duplicates detectable without eating retries), a
//! per-attempt deadline, a speculative hedge resend for stragglers, and
//! bounded retries with decorrelated-jitter backoff. A worker that
//! exhausts its retries is declared dead and its repairs fail over: the
//! stripe is re-homed onto a surviving worker via
//! [`CoordinatorRequest::Adopt`] and repaired there, or — with nobody
//! left — repaired at the coordinator itself
//! ([`RepairService::repair_verified`]). [`ChaosStats`] reports what it
//! cost.
//!
//! # Concurrency
//!
//! A stripe is owned by link `id % links`, so the links' queues are
//! disjoint and [`Coordinator::repair`] drives each on its own thread
//! (the paper's independent sub-matrices side by side, one level up).
//! Everything an exchange touches — sequence numbers, the shipped-plan
//! ledger, the jitter RNG, traffic and supervision counters — is
//! per-link state; the only shared mutable thing is the session's own
//! plan cache, whose lock is never held across an exchange or a phase B
//! (phase B runs on the cached plan's tape, so the coordinator keeps no
//! plans of its own). Failover crosses links, so it runs serially after
//! the parallel phase, when every surviving link is idle again.

use crate::chaos::InjectedFaults;
use crate::error::ClusterError;
use crate::frame::{advances, seal_v2, unseal};
use crate::message::{CoordinatorRequest, WorkerResponse};
use crate::transport::Transport;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{par_map, RepairError, RepairService, WirePlan};
use ppm_gf::GfWord;
use ppm_stripe::Stripe;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
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

    fn absorb(&mut self, other: &Traffic) {
        self.to_workers_bytes += other.to_workers_bytes;
        self.from_workers_bytes += other.from_workers_bytes;
        self.plan_bytes += other.plan_bytes;
        self.frames += other.frames;
    }
}

/// What surviving the chaos cost: supervision-side counters plus the
/// injected-fault totals from every link's
/// [`ChaosTransport`](crate::ChaosTransport).
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

    fn absorb(&mut self, other: &ChaosStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.hedges += other.hedges;
        self.hedges_won += other.hedges_won;
        self.redispatches += other.redispatches;
        self.degraded_local += other.degraded_local;
        self.corrupt_frames_caught += other.corrupt_frames_caught;
        self.dup_frames_dropped += other.dup_frames_dropped;
        self.stale_discarded += other.stale_discarded;
        self.workers_declared_dead += other.workers_declared_dead;
        self.injected.absorb(&other.injected);
    }
}

/// One damaged stripe for [`Coordinator::repair`]: which stripe, and
/// what failed in it. Link `stripe % links` holds it.
#[derive(Clone, Debug)]
pub struct RepairJob {
    /// Archive-wide stripe id.
    pub stripe: u64,
    /// The sectors lost.
    pub scenario: FailureScenario,
}

/// Where a job's repaired bytes ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    /// In worker `w`'s shard (the original owner or an adopter).
    Worker(usize),
    /// In [`RepairOutcome::orphans`] (degraded local repair).
    Coordinator,
}

/// How the repairs of one [`Coordinator::repair`] call went, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairTally {
    /// Repairs whose `H_rest` was split: phase B ran at the coordinator
    /// on partial-sum blocks.
    pub split_rests: usize,
    /// Repairs finished entirely on the worker (no phase B, or a
    /// matrix-first `H_rest` that reads sectors directly).
    pub local_rests: usize,
    /// Wire plans shipped (once per `(link, plan key)`).
    pub plans_shipped: usize,
    /// Repairs whose surplus-row verify pass came back clean.
    pub verified_clean: usize,
    /// Total violated surplus rows across all verify passes.
    pub violations: usize,
}

impl RepairTally {
    fn absorb(&mut self, other: &RepairTally) {
        self.split_rests += other.split_rests;
        self.local_rests += other.local_rests;
        self.plans_shipped += other.plans_shipped;
        self.verified_clean += other.verified_clean;
        self.violations += other.violations;
    }

    fn verified(&mut self, violated: Option<&[u32]>) {
        match violated {
            Some([]) => self.verified_clean += 1,
            Some(rows) => self.violations += rows.len(),
            None => {}
        }
    }
}

/// Result of one [`Coordinator::repair`] call. `homes` and
/// `drive_nanos` are indexed like the `jobs` slice that went in.
#[derive(Clone, Debug, Default)]
pub struct RepairOutcome {
    /// Where each job's repaired stripe lives.
    pub homes: Vec<Home>,
    /// Wall time each job spent being driven — first request to last
    /// acknowledgement, failover included.
    pub drive_nanos: Vec<u64>,
    /// Stripes repaired at the coordinator because no worker survived.
    pub orphans: HashMap<u64, Stripe>,
    /// Repairs by kind, summed over links.
    pub tally: RepairTally,
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

fn unexpected(response: WorkerResponse) -> Result<(), ClusterError> {
    Err(ClusterError::Protocol(format!(
        "unexpected response kind: {response:?}"
    )))
}

/// One coordinator↔worker link with everything an exchange on it reads
/// or writes, so a link can be driven from its own thread.
struct Link {
    /// This link's index — the worker it leads to.
    worker: usize,
    transport: Box<dyn Transport>,
    /// Next outbound v2 sequence number; every send — retries and
    /// hedges included — burns a fresh one, so only *chaos-made*
    /// duplicates are non-advancing.
    next_seq: u32,
    /// Last inbound v2 sequence number accepted.
    last_seen: Option<u32>,
    /// Cleared when the worker exhausts its retries; dead links get no
    /// further requests and their shard entries are written off.
    alive: bool,
    /// Plan keys this worker already holds.
    shipped: HashSet<String>,
    /// Backoff jitter, seeded from `(seed, link)`.
    jitter: StdRng,
    traffic: Traffic,
    stats: ChaosStats,
    tally: RepairTally,
}

impl Link {
    fn declare_dead(&mut self) {
        if self.alive {
            self.alive = false;
            self.stats.workers_declared_dead += 1;
        }
    }

    /// Sends one framed request. Every call seals a fresh frame with
    /// the link's next sequence number.
    fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
        let frame = seal_v2(self.next_seq, payload);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.traffic.to_workers_bytes += 4 + frame.len() as u64;
        self.traffic.frames += 1;
        self.transport.send(frame).map_err(ClusterError::Io)
    }

    /// Receives decodable responses until `deadline`, discarding line
    /// noise: frames failing the v2 checks (a bare or magic-flipped
    /// frame among them) are counted and skipped, duplicates
    /// (non-advancing sequence) are counted and skipped. `Ok(None)`
    /// means the deadline passed in silence.
    fn recv_until(&mut self, deadline: Instant) -> Result<Option<WorkerResponse>, ClusterError> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let received = self
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
            if !advances(self.last_seen, opened.seq) {
                self.stats.dup_frames_dropped += 1;
                continue;
            }
            self.last_seen = Some(opened.seq);
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
        policy: &RetryPolicy,
        stripe: u64,
        payload: &[u8],
        want: Want,
    ) -> Result<WorkerResponse, ClusterError> {
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
            self.send(payload)?;
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
                match self.recv_until(slice_deadline)? {
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
                            self.send(payload)?;
                        }
                    }
                }
            }
            self.stats.timeouts += 1;
        }
        Err(ClusterError::RetriesExhausted {
            worker: self.worker,
            stripe,
            attempts: policy.max_attempts.max(1),
        })
    }
}

/// What every link driver shares: the session and the policy.
struct Shared<'a, W: GfWord, C: ErasureCode<W>> {
    service: &'a RepairService<W, &'a C>,
    policy: RetryPolicy,
    sector_bytes: usize,
}

impl<W: GfWord, C: ErasureCode<W>> Shared<'_, W, C> {
    /// PPM-mode repair of one stripe over `link`: plan up (first time
    /// only), partial blocks back, aggregated sectors down. Phase B runs
    /// on the tape of the session's cached plan — the plan the wire
    /// bytes were encoded from, so its constants and backend are the
    /// ones the worker compiled.
    fn repair_partial(&self, link: &mut Link, job: &RepairJob) -> Result<(), ClusterError> {
        let planner = self.service.planner();
        let (plan, _) = planner.plan_for(&job.scenario)?;
        let key = planner.plan_key(&job.scenario).to_string();
        let plan_bytes = if link.shipped.insert(key.clone()) {
            let bytes = WirePlan::from_plan(&plan).encode();
            link.traffic.plan_bytes += bytes.len() as u64;
            link.tally.plans_shipped += 1;
            Some(bytes)
        } else {
            None
        };

        let request = CoordinatorRequest::Repair {
            stripe: job.stripe,
            plan_key: key.clone(),
            plan: plan_bytes,
        }
        .encode();
        let response = link.exchange(&self.policy, job.stripe, &request, Want::Partials)?;
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
            link.tally.local_rests += 1;
            link.tally.verified(violated_rows.as_deref());
            return Ok(());
        }
        // Phase B: F⁻¹ · T on the shipped partial sums — the
        // coordinator never holds the stripe.
        let recovered = self
            .service
            .executor()
            .finish_rest(plan.ensure_tape(), &rest_blocks, self.sector_bytes)
            .map_err(|e| match e {
                // `rest_pending` is a wire-supplied bit: a worker that
                // sets it for a plan whose H_rest cannot split is
                // wrong, and that must not take the coordinator down.
                RepairError::RestNotSplittable => ClusterError::Protocol(format!(
                    "worker {} reported a pending rest for non-splittable plan {key}",
                    link.worker
                )),
                e => ClusterError::Repair(e),
            })?;
        let sectors = recovered
            .into_iter()
            .map(|(sector, bytes)| (sector as u32, bytes))
            .collect();
        let install = CoordinatorRequest::Install {
            stripe: job.stripe,
            sectors,
        }
        .encode();
        let response = link.exchange(&self.policy, job.stripe, &install, Want::Installed)?;
        let WorkerResponse::Installed { violated_rows, .. } = response else {
            return unexpected(response);
        };
        link.tally.split_rests += 1;
        link.tally.verified(violated_rows.as_deref());
        Ok(())
    }

    /// Baseline repair of one stripe over `link`: every surviving
    /// sector up, repair centrally, recovered sectors down.
    fn repair_naive(&self, link: &mut Link, job: &RepairJob) -> Result<(), ClusterError> {
        let layout = self.service.planner().code().layout();
        let total_sectors = layout.sectors();
        let survivors: Vec<u32> = job
            .scenario
            .surviving(total_sectors)
            .into_iter()
            .map(|s| s as u32)
            .collect();
        let fetch = CoordinatorRequest::FetchSectors {
            stripe: job.stripe,
            sectors: survivors,
        }
        .encode();
        let response = link.exchange(&self.policy, job.stripe, &fetch, Want::Sectors)?;
        let WorkerResponse::Sectors {
            sectors: fetched, ..
        } = response
        else {
            return unexpected(response);
        };

        // Rebuild the stripe centrally from the shipped survivors and
        // repair it with the full single-node service.
        let mut stripe = Stripe::zeroed(layout, self.sector_bytes);
        for (sector, bytes) in &fetched {
            let s = *sector as usize;
            if s >= total_sectors || bytes.len() != self.sector_bytes {
                return Err(ClusterError::Protocol(format!(
                    "worker returned malformed sector {s}"
                )));
            }
            stripe.write_sector(s, bytes);
        }
        self.service.repair_verified(&mut stripe, &job.scenario)?;

        let sectors = job
            .scenario
            .faulty()
            .iter()
            .map(|&s| (s as u32, stripe.sector(s).to_vec()))
            .collect();
        let install = CoordinatorRequest::Install {
            stripe: job.stripe,
            sectors,
        }
        .encode();
        let response = link.exchange(&self.policy, job.stripe, &install, Want::Installed)?;
        let WorkerResponse::Installed { .. } = response else {
            return unexpected(response);
        };
        link.tally.verified_clean += 1;
        Ok(())
    }

    fn repair_one(
        &self,
        mode: RepairMode,
        link: &mut Link,
        job: &RepairJob,
    ) -> Result<(), ClusterError> {
        match mode {
            RepairMode::Partial => self.repair_partial(link, job),
            RepairMode::Naive => self.repair_naive(link, job),
        }
    }

    /// Drives one link's queue to the end. Each job comes back under its
    /// index with where it landed — `None` when the link died under it
    /// or before it, which is failover's cue — and how long it was
    /// driven.
    fn drive(
        &self,
        mode: RepairMode,
        link: &mut Link,
        queue: Vec<(usize, &RepairJob)>,
    ) -> Result<Vec<(usize, Option<Home>, u64)>, ClusterError> {
        let mut driven = Vec::with_capacity(queue.len());
        for (index, job) in queue {
            if !link.alive {
                driven.push((index, None, 0));
                continue;
            }
            let started = Instant::now();
            let home = match self.repair_one(mode, link, job) {
                Ok(()) => Some(Home::Worker(link.worker)),
                Err(ClusterError::RetriesExhausted { .. }) => {
                    link.declare_dead();
                    None
                }
                Err(e) => return Err(e),
            };
            driven.push((index, home, started.elapsed().as_nanos() as u64));
        }
        Ok(driven)
    }
}

/// The coordinator of a cluster repair: owns the links to the workers
/// and drives [`RepairJob`]s over them — plan shipping, supervised
/// exchanges, phase B, failover. It never holds a stripe a worker owns.
pub struct Coordinator<'a, W: GfWord, C: ErasureCode<W>> {
    shared: Shared<'a, W, C>,
    links: Vec<Link>,
    /// Failover accounting that belongs to no single link.
    stats: ChaosStats,
}

impl<'a, W: GfWord, C: ErasureCode<W>> Coordinator<'a, W, C> {
    /// A coordinator planning with `service` over one transport per
    /// worker, in worker order. `sector_bytes` is the archive's sector
    /// size; `seed` decorrelates the links' backoff jitter.
    pub fn new(
        service: &'a RepairService<W, &'a C>,
        transports: Vec<Box<dyn Transport>>,
        policy: RetryPolicy,
        sector_bytes: usize,
        seed: u64,
    ) -> Self {
        let links = transports
            .into_iter()
            .enumerate()
            .map(|(worker, transport)| Link {
                worker,
                transport,
                next_seq: 0,
                last_seen: None,
                alive: true,
                shipped: HashSet::new(),
                jitter: StdRng::seed_from_u64(
                    seed ^ 0x000C_4A05 ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                traffic: Traffic::default(),
                stats: ChaosStats::default(),
                tally: RepairTally::default(),
            })
            .collect();
        Coordinator {
            shared: Shared {
                service,
                policy,
                sector_bytes,
            },
            links,
            stats: ChaosStats::default(),
        }
    }

    /// Repairs every job, each on the worker that owns its stripe
    /// (`stripe % links`), the links driven side by side. Jobs whose
    /// owner stops answering fail over afterwards, in job order:
    /// `rehome` must hand back the damaged stripe (the owner's copy is
    /// written off), which is adopted by a surviving worker and
    /// repaired there, or repaired here when none survives. The archive
    /// converges either way — failover changes *where*, never
    /// *whether*.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] on worker-side failures or
    /// out-of-protocol responses; [`ClusterError::Repair`] /
    /// [`ClusterError::Wire`] / [`ClusterError::Io`] when planning,
    /// compilation or a transport fail. The links stay usable for
    /// [`Coordinator::shutdown`].
    pub fn repair(
        &mut self,
        mode: RepairMode,
        jobs: &[RepairJob],
        rehome: &dyn Fn(&RepairJob) -> Result<Stripe, ClusterError>,
    ) -> Result<RepairOutcome, ClusterError> {
        if self.links.is_empty() {
            return Err(ClusterError::Protocol("coordinator has no links".into()));
        }
        let mut queues: Vec<Vec<(usize, &RepairJob)>> = vec![Vec::new(); self.links.len()];
        for (index, job) in jobs.iter().enumerate() {
            let owner = (job.stripe % self.links.len() as u64) as usize;
            if let Some(queue) = queues.get_mut(owner) {
                queue.push((index, job));
            }
        }
        let shared = &self.shared;
        let mut driven: Vec<(usize, Option<Home>, u64)> = par_map(
            self.links.len(),
            self.links.iter_mut().zip(queues),
            |(link, queue)| shared.drive(mode, link, queue),
        )?
        .into_iter()
        .flatten()
        .collect();
        driven.sort_unstable_by_key(|(index, ..)| *index);

        let mut outcome = RepairOutcome::default();
        for (job, (_, home, nanos)) in jobs.iter().zip(driven) {
            let started = Instant::now();
            let home = match home {
                Some(home) => home,
                None => self.failover(mode, job, rehome, &mut outcome)?,
            };
            outcome.homes.push(home);
            outcome
                .drive_nanos
                .push(nanos + started.elapsed().as_nanos() as u64);
        }
        for link in &mut self.links {
            outcome.tally.absorb(&std::mem::take(&mut link.tally));
        }
        Ok(outcome)
    }

    /// Failover for a job whose owner is dead: re-home the damaged
    /// stripe onto a surviving worker via `Adopt` and repair it there;
    /// with no survivors, repair it here.
    fn failover(
        &mut self,
        mode: RepairMode,
        job: &RepairJob,
        rehome: &dyn Fn(&RepairJob) -> Result<Stripe, ClusterError>,
        outcome: &mut RepairOutcome,
    ) -> Result<Home, ClusterError> {
        let mut damaged = rehome(job)?;
        // One `Adopt` image per job, however many candidates it takes to
        // land it — and none when nobody is left to adopt.
        let mut image: Option<Vec<u8>> = None;
        for link in self.links.iter_mut().filter(|link| link.alive) {
            let adopt = image.get_or_insert_with(|| {
                let layout = damaged.layout();
                CoordinatorRequest::Adopt {
                    stripe: job.stripe,
                    n: layout.n as u32,
                    r: layout.r as u32,
                    sector_bytes: damaged.sector_bytes() as u32,
                    sectors: (0..layout.sectors())
                        .map(|s| (s as u32, damaged.sector(s).to_vec()))
                        .collect(),
                }
                .encode()
            });
            let landed = link
                .exchange(&self.shared.policy, job.stripe, adopt, Want::Installed)
                .and_then(|_| {
                    link.stats.redispatches += 1;
                    self.shared.repair_one(mode, link, job)
                });
            match landed {
                Ok(()) => return Ok(Home::Worker(link.worker)),
                Err(ClusterError::RetriesExhausted { .. }) => link.declare_dead(),
                Err(e) => return Err(e),
            }
        }
        // Nobody left standing: degrade to a local verified repair.
        // "Data stays put" yields to "data stays *alive*".
        self.shared
            .service
            .repair_verified(&mut damaged, &job.scenario)?;
        outcome.tally.verified_clean += 1;
        self.stats.degraded_local += 1;
        outcome.orphans.insert(job.stripe, damaged);
        Ok(Home::Coordinator)
    }

    /// Tells every live worker to stop, hangs up every link, and
    /// returns the wire and supervision accounting summed in link
    /// order. Chaos may eat a `Shutdown` frame; dropping the links
    /// closes every channel, so a worker loop ends either way.
    pub fn shutdown(mut self) -> (Traffic, ChaosStats) {
        let shutdown = CoordinatorRequest::Shutdown.encode();
        let mut traffic = Traffic::default();
        let mut stats = self.stats;
        for link in &mut self.links {
            if link.alive {
                let _ = link.send(&shutdown);
            }
            traffic.absorb(&link.traffic);
            stats.absorb(&link.stats);
        }
        (traffic, stats)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::sim::{run_sim, SimConfig};
    use crate::transport::{channel_pair, ChannelTransport};
    use crate::worker::{Worker, WorkerFrameStats};
    use ppm_codes::SdCode;
    use ppm_core::{DecoderConfig, Strategy};
    use ppm_faults::ChaosRates;
    use ppm_stripe::random_data_stripe;

    const SECTOR_BYTES: usize = 512;

    fn paper_code() -> SdCode<u8> {
        // The paper's running example: SD^{1,1}_{4,4}(8|1,2).
        SdCode::new(4, 4, 1, 1, vec![1, 2]).expect("paper code")
    }

    /// A coordinator over one clean link, for driving its primitives
    /// directly.
    fn lone_coordinator<'a>(
        service: &'a RepairService<u8, &'a SdCode<u8>>,
        coordinator_end: ChannelTransport,
        policy: RetryPolicy,
    ) -> Coordinator<'a, u8, SdCode<u8>> {
        Coordinator::new(
            service,
            vec![Box::new(coordinator_end)],
            policy,
            SECTOR_BYTES,
            1,
        )
    }

    fn no_rehome(job: &RepairJob) -> Result<Stripe, ClusterError> {
        Err(ClusterError::Protocol(format!(
            "stripe {} must not fail over",
            job.stripe
        )))
    }

    /// Trust boundary: `rest_pending` arrives over the wire. A worker
    /// that sets it on a matrix-first plan (whose `H_rest` reads sectors
    /// directly and cannot be finished from partial sums) is a protocol
    /// violation the coordinator reports — it must not panic.
    #[test]
    fn forged_rest_pending_on_a_matrix_first_plan_is_a_protocol_error() {
        let code = paper_code();
        let job = RepairJob {
            stripe: 7,
            scenario: FailureScenario::new(vec![2, 6, 10, 13, 14]),
        };
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
            let mut coordinator =
                lone_coordinator(&service, coordinator_end, RetryPolicy::default());
            let err = coordinator
                .repair(RepairMode::Partial, std::slice::from_ref(&job), &no_rehome)
                .unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol(m) if m.contains("non-splittable")),
                "{strategy:?}: {err}"
            );
            assert_eq!(coordinator.links[0].tally.split_rests, 0);
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
            WorkerFrameStats {
                corrupt_caught: 3,
                dups_dropped: 0,
                undecodable: 0,
                ..stats
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
        let mut coordinator = lone_coordinator(&service, coordinator_end, RetryPolicy::default());
        let link = &mut coordinator.links[0];
        let got = link
            .recv_until(Instant::now() + Duration::from_secs(10))
            .unwrap();
        assert_eq!(got, Some(installed));
        assert_eq!(link.stats.corrupt_frames_caught, 1);
        assert_eq!(link.stats.dup_frames_dropped, 0);
    }

    /// Both ends count frames with `wrapping_add`; a receiver that
    /// compared sequence numbers with a plain `<=` would discard every
    /// frame after the wrap as a duplicate and the link would time out
    /// forever. Start both directions three frames short of `u32::MAX`
    /// and repair across it.
    #[test]
    fn a_link_survives_the_sequence_counter_wrapping_in_both_directions() {
        let code = paper_code();
        let service = RepairService::new(&code, DecoderConfig::default());
        let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let mut rng = StdRng::seed_from_u64(16);
        let mut pristine = HashMap::new();
        let mut shard = HashMap::new();
        for stripe in 0..4u64 {
            let mut s = random_data_stripe(&code, SECTOR_BYTES, &mut rng);
            service.encode(&mut s).unwrap();
            let mut damaged = s.clone();
            damaged.erase(&scenario);
            pristine.insert(stripe, s);
            shard.insert(stripe, damaged);
        }
        let jobs: Vec<RepairJob> = (0..4)
            .map(|stripe| RepairJob {
                stripe,
                scenario: scenario.clone(),
            })
            .collect();

        let start = u32::MAX - 2;
        let (coordinator_end, worker_end) = channel_pair();
        let worker: Worker<u8> = Worker::new(0, shard, DecoderConfig::default());
        let handle = std::thread::spawn(move || worker.serve_from(&worker_end, start));
        // Short deadlines: at the parent every post-wrap frame is
        // dropped, and the failure should not take 30 s to show.
        let policy = RetryPolicy {
            deadline_ms: 2_000,
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut coordinator = lone_coordinator(&service, coordinator_end, policy);
        coordinator.links[0].next_seq = start;

        let outcome = coordinator
            .repair(RepairMode::Partial, &jobs, &no_rehome)
            .expect("repair across the wrap");
        assert_eq!(outcome.homes, vec![Home::Worker(0); 4]);
        assert_eq!(outcome.tally.split_rests + outcome.tally.local_rests, 4);
        let link = &coordinator.links[0];
        assert!(link.next_seq < start, "the request stream wrapped");
        assert!(
            link.last_seen.is_some_and(|seq| seq < start),
            "the response stream wrapped"
        );
        let (_, stats) = coordinator.shutdown();
        assert_eq!(stats, ChaosStats::default(), "no retry, nothing dropped");
        let (repaired, err, worker_stats) = handle.join().unwrap();
        assert!(err.is_none());
        assert_eq!(worker_stats.dups_dropped, 0);
        assert_eq!(repaired, pristine);
    }

    // Supervision and failover end to end, through the `run_sim` harness
    // and its chaotic links.

    fn small_cfg(workers: usize) -> SimConfig {
        SimConfig {
            workers,
            damaged: 12,
            sector_bytes: SECTOR_BYTES,
            ..SimConfig::default()
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
}
