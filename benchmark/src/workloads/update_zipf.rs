//! `update_zipf`: the buffered small-write path.

use super::{build_code, encoded_stripe, service, Checked, Ledger, Service, Workload};
use crate::host::nproc;
use crate::measure::Scale;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeCtx};
use crate::stats;
use crate::trace::{Tracer, OP};
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_stripe::Stripe;
use ppm_update::trace::{synthesize, SynthKind, TraceOp};
use ppm_update::{EngineConfig, EvictionPolicy, FlushMode, FlushReport, UpdateEngine, UpdateError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SPEC: &str = "sd:8,8,2,2";
const SECTOR_BYTES: usize = 4 << 10;
const WRITE_BYTES: u64 = 1 << 10;
const ZIPF_SKEW: f64 = 0.99;
/// Writes per timed call. A lone buffered write takes well under a
/// microsecond, too close to the clock's own cost to time singly.
const WRITES_PER_CALL: usize = 64;
/// Trace ops synthesized at a time (untimed), as the loop consumes them.
const TRACE_CHUNK: usize = 1 << 16;

/// `UpdateEngine` over 256 stripes of SD^{2,2}_{8,8} × 4 KiB sectors,
/// Zipf(0.99) 1 KiB writes, 1 MiB LRU buffer, `FlushMode::Auto`, final
/// `flush_all(nproc)`. An op is one `write`; a timed call is 64 of them.
pub struct UpdateZipf {
    svc: &'static Service,
    engine: UpdateEngine<'static, u8, super::Code>,
    /// The same writes applied straight to the data sectors; re-encoded
    /// naively at the end, it is what the engine's volume must equal.
    shadow: Vec<Stripe>,
    seed: u64,
    chunk: Vec<TraceOp>,
    chunks_made: u64,
    next_op: usize,
    payload_pool: Vec<u8>,
    /// The call's ops and the flush reports its writes returned.
    current: Vec<(u64, usize, usize)>,
    reports: Vec<FlushReport>,
    errors: u64,
    ledger: Ledger,
    call_write_ns: Vec<f64>,
    flush_all_us: Option<f64>,
    calls_per_round: usize,
}

impl UpdateZipf {
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let code = build_code(SPEC)?;
        // The engine borrows its session for as long as it lives; both
        // live to the end of the process.
        let svc: &'static Service = Box::leak(Box::new(service(code, nproc())));
        let mut rng = StdRng::seed_from_u64(seed);
        let stripes = if scale.smoke { 16 } else { 256 };
        let volume = (0..stripes)
            .map(|_| encoded_stripe(svc, SECTOR_BYTES, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        let shadow = volume.clone();
        let config = EngineConfig {
            buffer_bytes: 1 << 20,
            policy: EvictionPolicy::Lru,
            mode: FlushMode::Auto,
        };
        let engine = UpdateEngine::new(svc, volume, config).map_err(|e| e.to_string())?;
        let mut payload_pool = vec![0u8; 1 << 20];
        rng.fill(payload_pool.as_mut_slice());
        let mut w = UpdateZipf {
            svc,
            engine,
            shadow,
            seed,
            chunk: Vec::new(),
            chunks_made: 0,
            next_op: 0,
            payload_pool,
            current: Vec::with_capacity(WRITES_PER_CALL),
            reports: Vec::new(),
            errors: 0,
            ledger: Ledger::default(),
            call_write_ns: Vec::new(),
            flush_all_us: None,
            calls_per_round: if scale.smoke { 8 } else { 200 },
        };
        // Warm-up: enough writes to fill the buffer and start evicting,
        // so the timed loop starts in the steady state.
        for i in 0..(if scale.smoke { 8 } else { 64 }) {
            w.prepare(i);
            w.call(i, None);
            if w.check(i).failed > 0 {
                return Err("update warm-up write failed".into());
            }
        }
        w.ledger = Ledger::default();
        w.call_write_ns.clear();
        Ok(w)
    }

    /// Where in the payload pool op `op_index`'s bytes start: the same
    /// op always writes the same bytes.
    fn payload_at(&self, op_index: u64) -> usize {
        let span = self.payload_pool.len() - WRITE_BYTES as usize;
        (op_index.wrapping_mul(1031) % span as u64) as usize
    }
}

/// Issues the call's writes, collecting the reports of the flushes they
/// forced; returns how many writes were refused.
fn write_all(
    engine: &mut UpdateEngine<'static, u8, super::Code>,
    pool: &[u8],
    current: &[(u64, usize, usize)],
    reports: &mut Vec<FlushReport>,
) -> u64 {
    let mut errors = 0;
    for &(offset, at, len) in current {
        match engine.write(offset, &pool[at..at + len]) {
            Ok(flushed) => reports.extend(flushed),
            Err(_) => errors += 1,
        }
    }
    errors
}

/// Applies one write to `shadow`'s data sectors through the engine's
/// own address map.
fn apply_to_shadow(
    shadow: &mut [Stripe],
    engine: &UpdateEngine<'static, u8, super::Code>,
    offset: u64,
    payload: &[u8],
) {
    let map = engine.address_map();
    let sb = map.sector_bytes() as u64;
    let mut consumed = 0usize;
    for (stripe, rel, take) in map.split_write(offset, payload.len() as u64) {
        let mut rel = rel;
        let mut left = take;
        while left > 0 {
            let sector = map.data_sectors()[(rel / sb) as usize];
            let within = (rel % sb) as usize;
            let n = left.min(sb - within as u64) as usize;
            shadow[stripe].sector_mut(sector)[within..within + n]
                .copy_from_slice(&payload[consumed..consumed + n]);
            consumed += n;
            rel += n as u64;
            left -= n as u64;
        }
    }
}

impl Workload for UpdateZipf {
    fn calls_per_round(&self) -> usize {
        self.calls_per_round
    }

    fn working_set_bytes(&self) -> u64 {
        self.engine
            .volume()
            .iter()
            .map(|s| s.total_bytes() as u64)
            .sum()
    }

    fn prepare(&mut self, _index: u64) {
        self.current.clear();
        self.reports.clear();
        for _ in 0..WRITES_PER_CALL {
            if self.next_op == self.chunk.len() {
                self.chunk = synthesize(
                    SynthKind::Zipf(ZIPF_SKEW),
                    TRACE_CHUNK,
                    self.engine.address_map().volume_bytes(),
                    WRITE_BYTES,
                    self.seed
                        .wrapping_add(self.chunks_made.wrapping_mul(0x9E37_79B9)),
                );
                self.chunks_made += 1;
                self.next_op = 0;
            }
            let op = self.chunk[self.next_op];
            let op_index = (self.chunks_made - 1) * TRACE_CHUNK as u64 + self.next_op as u64;
            self.next_op += 1;
            self.current
                .push((op.offset, self.payload_at(op_index), op.len as usize));
        }
    }

    fn call(&mut self, _index: u64, tracer: Option<&mut Tracer>) {
        let (engine, pool) = (&mut self.engine, &self.payload_pool);
        let (current, reports) = (&self.current, &mut self.reports);
        let started = Instant::now();
        self.errors = match tracer {
            None => write_all(engine, pool, current, reports),
            Some(t) => t.span(OP, |t| {
                t.span("update", |t| {
                    let errors = write_all(engine, pool, current, reports);
                    // Flushes the writes forced ran inside `write`; they
                    // enter from the session's own report of each.
                    for report in reports.iter() {
                        let kernels: u64 = report.exec.phase_a.iter().map(|s| s.nanos as u64).sum();
                        t.reported("core.service", report.exec.total_nanos as u64, |t| {
                            t.reported("gf", kernels, |_| {});
                        });
                    }
                    errors
                })
            }),
        };
        self.call_write_ns
            .push(started.elapsed().as_nanos() as f64 / WRITES_PER_CALL as f64);
    }

    fn check(&mut self, _index: u64) -> Checked {
        let mut bytes = 0u64;
        for i in 0..self.current.len() {
            let (offset, at, len) = self.current[i];
            bytes += len as u64;
            let payload = &self.payload_pool[at..at + len];
            apply_to_shadow(&mut self.shadow, &self.engine, offset, payload);
        }
        let mut failed = self.errors;
        for report in &self.reports {
            failed += u64::from(!self.ledger.absorb(&report.exec));
        }
        Checked {
            ops: self.current.len() as u64,
            bytes,
            failed,
        }
    }

    /// The final `flush_all(nproc)`, then the whole volume against a
    /// naive re-encode of the shadow. A stripe that differs counts as one
    /// failed op.
    fn finish(&mut self, tracer: Option<&mut Tracer>) -> Checked {
        let workers = nproc();
        let started = Instant::now();
        let flushed: Result<Vec<FlushReport>, UpdateError> = match tracer {
            None => self.engine.flush_all(workers),
            Some(t) => {
                let engine = &mut self.engine;
                t.span(OP, |t| t.span("update", |_| engine.flush_all(workers)))
            }
        };
        self.flush_all_us = Some(started.elapsed().as_secs_f64() * 1e6);
        let mut failed = 0u64;
        match flushed {
            Ok(reports) => {
                for report in &reports {
                    failed += u64::from(!self.ledger.absorb(&report.exec));
                }
            }
            Err(_) => failed += 1,
        }
        let parity = FailureScenario::new(self.svc.code().parity_sectors());
        for (shadow, got) in self.shadow.iter_mut().zip(self.engine.volume()) {
            shadow.erase(&parity);
            let encoded = self.svc.encode(shadow).is_ok();
            failed += u64::from(!(encoded && shadow == got));
        }
        Checked {
            ops: 0,
            bytes: 0,
            failed,
        }
    }

    fn probe_ctx(&self) -> ProbeCtx {
        let code = *self.svc.code();
        ProbeCtx {
            spec: SPEC,
            code,
            // The update path's decode-shaped work is the re-encode.
            scenario: FailureScenario::new(code.parity_sectors()),
            sector_bytes: SECTOR_BYTES,
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics, scale: Scale) {
        self.ledger
            .put(m, self.svc.cache_stats(), self.svc.arena().stats());
        let s = self.engine.stats();
        let writes = s.writes.max(1) as f64;
        m.put_opt("update.write_ns", stats::median(&self.call_write_ns));
        m.put_opt("update.flush_us", self.flush_all_us);
        m.put(
            "update.coalesce_ratio",
            s.bytes_coalesced as f64 / s.bytes_written.max(1) as f64,
        );
        m.put(
            "update.delta_flush_frac",
            s.delta_flushes as f64 / s.flushes.max(1) as f64,
        );
        m.put("update.evictions", s.evictions as f64);
        m.put(
            "update.parity_patches_per_write",
            s.parity_patches as f64 / writes,
        );
        m.put(
            "update.mult_xors_per_kib",
            self.ledger.executed_mult_xors as f64 / (s.bytes_written.max(1) as f64 / 1024.0),
        );

        // `RepairService::apply_update` of one 4 KiB sector, on a stripe
        // of its own so the volume under test is left alone.
        let mut stripe = self.shadow[0].clone();
        let sector = self.svc.code().data_sectors()[0];
        let data = self.payload_pool[..SECTOR_BYTES].to_vec();
        let svc = self.svc;
        let ns = probes::median_ns(scale.probe_budget(), || {
            let t = Instant::now();
            let _ = std::hint::black_box(svc.apply_update(&mut stripe, &[(sector, &data)]));
            t.elapsed()
        });
        m.put("update.apply_update_us", ns / 1e3);
    }
}
