//! The worker side: owns a shard of stripes, executes wire plans
//! against them, and never sees the code or its parity-check matrix —
//! everything it knows about decoding arrived as a
//! [`WirePlan`](ppm_core::WirePlan).

use crate::error::ClusterError;
use crate::frame::{advances, seal_v2, unseal};
use crate::message::{CoordinatorRequest, WorkerResponse};
use crate::transport::Transport;
use ppm_codes::StripeLayout;
use ppm_core::{DecoderConfig, Executor, PlanTape, WirePlan};
use ppm_gf::{Backend, GfWord};
use ppm_stripe::{Stripe, SECTOR_ALIGN};
use std::collections::HashMap;
use std::time::Instant;

/// What a worker's frame layer saw and survived: the detection-side
/// counters chaos tests assert on (the coordinator keeps its own; the
/// sum is the cluster's "corrupt frames caught" figure).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerFrameStats {
    /// Frames that failed the v2 integrity checks and were discarded
    /// (the coordinator's retry redelivers).
    pub corrupt_caught: u64,
    /// v2 frames with a non-advancing sequence number, dropped as
    /// duplicates or stale reorders.
    pub dups_dropped: u64,
    /// CRC-clean frames whose payload still failed to decode; answered
    /// with a [`WorkerResponse::Error`] instead of killing the loop.
    pub undecodable: u64,
    /// Time spent serving: from a frame's arrival to its response
    /// being handed to the transport (unseal, decode, the repair work,
    /// encode, seal, send).
    pub busy_nanos: u64,
    /// Time spent blocked waiting for the coordinator's next frame.
    pub wait_nanos: u64,
}

/// One worker: a shard of stripes keyed by archive-wide id, an
/// [`Executor`] for the data path, and the [`PlanTape`]s its received
/// wire plans compiled to, keyed by the coordinator's
/// [`PlanKey`](ppm_core::PlanKey) string.
///
/// `W` is the Galois-field word the archive's code operates over; the
/// worker needs it only to re-materialize kernel tables when compiling a
/// received plan.
pub struct Worker<W: GfWord> {
    id: usize,
    stripes: HashMap<u64, Stripe>,
    executor: Executor,
    backend: Backend,
    plans: HashMap<String, PlanTape<W>>,
    /// Stripes repaired through the split path whose verify pass waits
    /// for the coordinator's phase-B install, mapped to the plan that
    /// will verify them.
    pending_verify: HashMap<u64, String>,
}

impl<W: GfWord> Worker<W> {
    /// Creates a worker owning `stripes`, executing with `config`'s
    /// thread budget and compiling received plans for `config.backend`.
    pub fn new(id: usize, stripes: HashMap<u64, Stripe>, config: DecoderConfig) -> Self {
        Worker {
            id,
            stripes,
            executor: Executor::new(config),
            backend: config.backend,
            plans: HashMap::new(),
            pending_verify: HashMap::new(),
        }
    }

    /// This worker's index in the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The stripes this worker currently holds.
    pub fn stripes(&self) -> &HashMap<u64, Stripe> {
        &self.stripes
    }

    /// Distinct plans compiled so far (one network-shipped plan serves
    /// every stripe sharing its failure scenario).
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Serves requests from `transport` until
    /// [`Shutdown`](CoordinatorRequest::Shutdown), then returns the
    /// shard in its final state. Equivalent to [`Worker::serve`] with
    /// the frame counters discarded.
    ///
    /// # Errors
    /// [`ClusterError::Io`] when the transport drops mid-conversation
    /// (including a coordinator that walked away from a dead link).
    /// Request handling failures are *not* errors here — they travel
    /// back as [`WorkerResponse::Error`] and the loop keeps serving —
    /// and neither is line noise: frames failing the v2 integrity
    /// checks are counted and dropped, trusting the coordinator's
    /// retry to redeliver.
    pub fn run<T: Transport>(self, transport: &T) -> Result<HashMap<u64, Stripe>, ClusterError> {
        let (stripes, err, _) = self.serve(transport);
        match err {
            None => Ok(stripes),
            Some(e) => Err(e),
        }
    }

    /// [`Worker::run`], but the shard and the frame-layer detection
    /// counters come back even when the loop exits on a transport
    /// error — a coordinator that walked away from a hung link (the
    /// worker sees its channel close) must still be able to account
    /// the shard's repaired stripes and the worker's catches.
    pub fn serve<T: Transport>(
        self,
        transport: &T,
    ) -> (HashMap<u64, Stripe>, Option<ClusterError>, WorkerFrameStats) {
        self.serve_from(transport, 0)
    }

    /// [`Worker::serve`] with the outbound sequence stream starting at
    /// `next_send_seq` instead of 0 — how the tests put a link right
    /// before the counter's wrap.
    pub(crate) fn serve_from<T: Transport>(
        mut self,
        transport: &T,
        mut next_send_seq: u32,
    ) -> (HashMap<u64, Stripe>, Option<ClusterError>, WorkerFrameStats) {
        let mut stats = WorkerFrameStats::default();
        // Sequence state for the v2 envelope: outbound responses get
        // this worker's own monotonic stream; inbound requests must
        // advance the last-seen number or be dropped as duplicates.
        let mut last_seen: Option<u32> = None;
        loop {
            let waiting = Instant::now();
            let received = transport.recv();
            let serving = Instant::now();
            stats.wait_nanos += (serving - waiting).as_nanos() as u64;
            let frame = match received {
                Ok(f) => f,
                Err(e) => return (self.stripes, Some(ClusterError::Io(e)), stats),
            };
            // Nothing reaches the protocol decoder without an envelope
            // that proves its integrity and freshness.
            let Ok(opened) = unseal(frame) else {
                stats.corrupt_caught += 1;
                continue;
            };
            if !advances(last_seen, opened.seq) {
                stats.dups_dropped += 1;
                continue;
            }
            last_seen = Some(opened.seq);
            let response = match CoordinatorRequest::decode(&opened.payload) {
                Ok(CoordinatorRequest::Shutdown) => return (self.stripes, None, stats),
                Ok(request) => self.handle(request),
                Err(e) => {
                    // CRC-clean but undecodable: report it and keep
                    // serving rather than dying mid-shard.
                    stats.undecodable += 1;
                    WorkerResponse::Error {
                        message: format!("worker {}: undecodable request: {e}", self.id),
                    }
                }
            };
            let sealed = seal_v2(next_send_seq, &response.encode());
            next_send_seq = next_send_seq.wrapping_add(1);
            let sent = transport.send(sealed);
            stats.busy_nanos += serving.elapsed().as_nanos() as u64;
            if let Err(e) = sent {
                return (self.stripes, Some(ClusterError::Io(e)), stats);
            }
        }
    }

    /// Handles one request, folding every failure into
    /// [`WorkerResponse::Error`]. Exposed so tests and alternative
    /// event loops can drive a worker without a transport.
    pub fn handle(&mut self, request: CoordinatorRequest) -> WorkerResponse {
        let result = match request {
            CoordinatorRequest::Repair {
                stripe,
                plan_key,
                plan,
            } => self.repair(stripe, plan_key, plan),
            CoordinatorRequest::FetchSectors { stripe, sectors } => self.fetch(stripe, &sectors),
            CoordinatorRequest::Install { stripe, sectors } => self.install(stripe, sectors),
            CoordinatorRequest::Adopt {
                stripe,
                n,
                r,
                sector_bytes,
                sectors,
            } => self.adopt(stripe, n, r, sector_bytes, sectors),
            CoordinatorRequest::Shutdown => Err("shutdown is handled by the run loop".to_string()),
        };
        result.unwrap_or_else(|message| WorkerResponse::Error {
            message: format!("worker {}: {message}", self.id),
        })
    }

    fn repair(
        &mut self,
        stripe_id: u64,
        plan_key: String,
        plan_bytes: Option<Vec<u8>>,
    ) -> Result<WorkerResponse, String> {
        if let Some(bytes) = plan_bytes {
            let wire = WirePlan::decode(&bytes)
                .map_err(|e| format!("plan {plan_key} failed to decode: {e}"))?;
            let compiled = wire
                .compile::<W>(self.backend)
                .map_err(|e| format!("plan {plan_key} failed to compile: {e}"))?;
            self.plans.insert(plan_key.clone(), compiled);
        }
        let plan = self
            .plans
            .get(&plan_key)
            .ok_or_else(|| format!("unknown plan {plan_key}"))?;
        let stripe = self
            .stripes
            .get_mut(&stripe_id)
            .ok_or_else(|| format!("stripe {stripe_id} is not owned here"))?;

        let partials = self
            .executor
            .wire_partials(plan, stripe)
            .map_err(|e| format!("repair of stripe {stripe_id} failed: {e}"))?;
        let violated_rows = if partials.rest_pending {
            // Phase B happens at the coordinator; verify once its
            // install lands.
            self.pending_verify.insert(stripe_id, plan_key);
            None
        } else {
            Some(verified_rows(&self.executor, plan, stripe)?)
        };
        Ok(WorkerResponse::Partials {
            stripe: stripe_id,
            rest_blocks: partials.rest_blocks,
            rest_pending: partials.rest_pending,
            violated_rows,
        })
    }

    fn fetch(&self, stripe_id: u64, sectors: &[u32]) -> Result<WorkerResponse, String> {
        let stripe = self
            .stripes
            .get(&stripe_id)
            .ok_or_else(|| format!("stripe {stripe_id} is not owned here"))?;
        let total = stripe.layout().sectors();
        let mut out = Vec::with_capacity(sectors.len());
        for &s in sectors {
            let s = s as usize;
            if s >= total {
                return Err(format!("sector {s} out of range (stripe has {total})"));
            }
            out.push((s as u32, stripe.sector(s).to_vec()));
        }
        Ok(WorkerResponse::Sectors {
            stripe: stripe_id,
            sectors: out,
        })
    }

    fn install(
        &mut self,
        stripe_id: u64,
        sectors: Vec<(u32, Vec<u8>)>,
    ) -> Result<WorkerResponse, String> {
        {
            let stripe = self
                .stripes
                .get_mut(&stripe_id)
                .ok_or_else(|| format!("stripe {stripe_id} is not owned here"))?;
            let total = stripe.layout().sectors();
            let sector_bytes = stripe.sector_bytes();
            for (s, bytes) in &sectors {
                let s = *s as usize;
                if s >= total {
                    return Err(format!("sector {s} out of range (stripe has {total})"));
                }
                if bytes.len() != sector_bytes {
                    return Err(format!(
                        "sector {s} carries {} bytes, stripe holds {sector_bytes}",
                        bytes.len()
                    ));
                }
            }
            for (s, bytes) in &sectors {
                stripe.write_sector(*s as usize, bytes);
            }
        }

        let violated_rows = match self.pending_verify.remove(&stripe_id) {
            None => None,
            Some(plan_key) => {
                let plan = self
                    .plans
                    .get(&plan_key)
                    .ok_or_else(|| format!("pending verify names unknown plan {plan_key}"))?;
                let stripe = self
                    .stripes
                    .get(&stripe_id)
                    .ok_or_else(|| format!("stripe {stripe_id} vanished mid-install"))?;
                Some(verified_rows(&self.executor, plan, stripe)?)
            }
        };
        Ok(WorkerResponse::Installed {
            stripe: stripe_id,
            violated_rows,
        })
    }

    /// Failover adoption: build the stripe from the shipped geometry
    /// and contents and take ownership. Overwrites any existing copy
    /// (a retried adoption must converge, and a half-repaired orphan
    /// from a previous owner is stale by definition). Everything the
    /// coordinator sent is checked before the stripe is allocated, so a
    /// bad request costs an error and no memory.
    fn adopt(
        &mut self,
        stripe_id: u64,
        n: u32,
        r: u32,
        sector_bytes: u32,
        sectors: Vec<(u32, Vec<u8>)>,
    ) -> Result<WorkerResponse, String> {
        let sb = sector_bytes as usize;
        if n == 0 || r == 0 || sb == 0 || !sb.is_multiple_of(SECTOR_ALIGN) {
            return Err(format!(
                "adoption of stripe {stripe_id} names a degenerate geometry {n}x{r}x{sector_bytes} \
                 (sector size must be a positive multiple of {SECTOR_ALIGN})"
            ));
        }
        let layout = StripeLayout::new(n as usize, r as usize);
        let total = layout.sectors();
        if sectors.len() != total {
            return Err(format!(
                "adoption of stripe {stripe_id} carries {} sectors, layout holds {total}",
                sectors.len()
            ));
        }
        let mut seen = vec![false; total];
        for (s, bytes) in &sectors {
            let s = *s as usize;
            let Some(seen) = seen.get_mut(s) else {
                return Err(format!(
                    "adopted sector {s} out of range (layout holds {total})"
                ));
            };
            if std::mem::replace(seen, true) {
                return Err(format!("adopted sector {s} appears twice"));
            }
            if bytes.len() != sb {
                return Err(format!(
                    "adopted sector {s} carries {} bytes, stripe holds {sector_bytes}",
                    bytes.len()
                ));
            }
        }
        let mut stripe = Stripe::zeroed(layout, sb);
        for (s, bytes) in &sectors {
            stripe.write_sector(*s as usize, bytes);
        }
        // Ownership transfer invalidates any verify still waiting on a
        // previous incarnation of this stripe.
        self.pending_verify.remove(&stripe_id);
        self.stripes.insert(stripe_id, stripe);
        Ok(WorkerResponse::Installed {
            stripe: stripe_id,
            violated_rows: None,
        })
    }
}

/// Runs the plan's surplus-row verify pass, returning the violated
/// global row indices (empty means clean — vacuously so when the plan
/// retained no surplus rows).
fn verified_rows<W: GfWord>(
    executor: &Executor,
    plan: &PlanTape<W>,
    stripe: &Stripe,
) -> Result<Vec<u32>, String> {
    let report = executor
        .verify_wire(plan, stripe)
        .map_err(|e| format!("verify failed: {e}"))?;
    Ok(report.violated_rows.iter().map(|&r| r as u32).collect())
}

impl<W: GfWord> std::fmt::Debug for Worker<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("id", &self.id)
            .field("stripes", &self.stripes.len())
            .field("plans", &self.plans.len())
            .field("pending_verify", &self.pending_verify.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adopt(sector_bytes: u32, sectors: Vec<(u32, Vec<u8>)>) -> CoordinatorRequest {
        CoordinatorRequest::Adopt {
            stripe: 3,
            n: 1,
            r: 1,
            sector_bytes,
            sectors,
        }
    }

    /// An `Adopt` is checked before the stripe is built: a sector size
    /// the stripe buffer cannot hold, or a shipped sector of the wrong
    /// length, is an error response — the worker keeps serving, and a
    /// valid adoption of the same stripe still lands.
    #[test]
    fn bad_adoptions_are_errors_and_a_valid_one_still_lands() {
        let mut worker: Worker<u8> = Worker::new(0, HashMap::new(), DecoderConfig::default());
        for bad in [
            adopt(12, vec![(0, vec![0; 12])]),
            adopt(0, vec![(0, Vec::new())]),
            adopt(16, vec![(0, vec![0; 8])]),
            adopt(16, vec![(1, vec![0; 16])]),
        ] {
            let response = worker.handle(bad);
            assert!(
                matches!(&response, WorkerResponse::Error { .. }),
                "{response:?}"
            );
            assert!(worker.stripes().is_empty());
        }
        let response = worker.handle(adopt(16, vec![(0, vec![7; 16])]));
        assert_eq!(
            response,
            WorkerResponse::Installed {
                stripe: 3,
                violated_rows: None,
            }
        );
        assert_eq!(worker.stripes()[&3].sector(0), &[7; 16]);
    }
}
