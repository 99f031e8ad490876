//! The flush engine: buffered small writes settled through the shared
//! repair session.
//!
//! [`UpdateEngine`] owns a volume of stripes and a [`DirtyBuffer`], and
//! borrows a [`RepairService`] (`&self` entry points — N engine flushes
//! can share one session). Each flush settles one stripe's pending
//! ranges by whichever route the §III-B cost model prices cheaper:
//!
//! * **delta patching** — one [`RepairService::apply_update`] call with
//!   every dirty data sector: per sector `Δ = old ⊕ new`, and each
//!   dependent parity read and written once; cost = Σ per-sector
//!   `update_mult_xors`, small when few sectors are dirty and the code
//!   is asymmetric (LRC touches 1 local + g globals, RS all m);
//! * **full re-encode** — overlay the dirty bytes in place and re-derive
//!   every parity through the cached encode plan; cost = the encode
//!   plan's `mult_XORs`, flat in dirtiness and cheaper past the
//!   crossover.
//!
//! The crossover — the dirty fraction where delta stops winning — is
//! exactly what the `update_throughput` bench reports per code family.

use crate::buffer::{DirtyBuffer, EvictionPolicy, PendingStripe};
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{par_map, ExecStats, RepairError, RepairService, UpdatePlan, UpdateStats};
use ppm_gf::GfWord;
use ppm_stripe::Stripe;
use std::sync::Arc;

/// How the engine decides each flush's route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushMode {
    /// Per flush, pick the route the cost model prices cheaper.
    #[default]
    Auto,
    /// Always re-encode the full stripe — the "naive" baseline the
    /// buffered path is measured against.
    ReencodeOnly,
}

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Dirty-byte bound of the buffer; exceeding it evicts via `policy`.
    pub buffer_bytes: u64,
    /// Which stripe to flush when over capacity.
    pub policy: EvictionPolicy,
    /// Flush-route selection.
    pub mode: FlushMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_bytes: 1 << 20,
            policy: EvictionPolicy::Lru,
            mode: FlushMode::Auto,
        }
    }
}

/// Why an engine operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The session layer rejected a flush.
    Repair(RepairError),
    /// A write runs past the volume's data address space.
    OutOfRange {
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Data bytes the volume actually addresses.
        volume_bytes: u64,
    },
    /// The engine was built over zero stripes.
    EmptyVolume,
    /// A stripe in the volume does not match the code's geometry.
    MixedGeometry {
        /// Sectors the code's layout expects.
        expected: usize,
        /// Sectors the offending stripe has.
        actual: usize,
    },
}

impl From<RepairError> for UpdateError {
    fn from(e: RepairError) -> Self {
        UpdateError::Repair(e)
    }
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Repair(e) => write!(f, "flush failed: {e}"),
            UpdateError::OutOfRange {
                offset,
                len,
                volume_bytes,
            } => write!(
                f,
                "write [{offset}, {}) outruns the {volume_bytes}-byte volume",
                u128::from(*offset) + u128::from(*len)
            ),
            UpdateError::EmptyVolume => write!(f, "engine needs at least one stripe"),
            UpdateError::MixedGeometry { expected, actual } => {
                write!(f, "stripe has {actual} sectors, code expects {expected}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Flat byte addressing over a volume's *data* sectors.
///
/// The volume concatenates each stripe's data sectors (in ascending
/// sector order) into one address space: byte `o` lives in stripe
/// `o / data_per_stripe`, data-relative offset `o % data_per_stripe`.
/// Parity sectors are not addressable — they are derived state.
#[derive(Clone, Debug)]
pub struct AddressMap {
    /// Data sector indices within one stripe, ascending.
    data_sectors: Vec<usize>,
    sector_bytes: usize,
    stripes: usize,
}

impl AddressMap {
    /// Builds the map for `stripes` stripes of `code`'s geometry with
    /// `sector_bytes`-byte sectors.
    pub fn new<W: GfWord, C: ErasureCode<W>>(
        code: &C,
        sector_bytes: usize,
        stripes: usize,
    ) -> Self {
        AddressMap {
            data_sectors: code.data_sectors(),
            sector_bytes,
            stripes,
        }
    }

    /// Data bytes one stripe contributes to the address space.
    pub fn data_per_stripe(&self) -> u64 {
        (self.data_sectors.len() * self.sector_bytes) as u64
    }

    /// Total addressable data bytes of the volume.
    pub fn volume_bytes(&self) -> u64 {
        self.data_per_stripe() * self.stripes as u64
    }

    /// Checks that a write of `len` bytes at volume byte `offset` lies
    /// inside the volume. The sum is checked, so a range near `u64::MAX`
    /// is refused rather than wrapped.
    ///
    /// # Errors
    /// [`UpdateError::OutOfRange`] when the write ends past the volume.
    pub fn check_range(&self, offset: u64, len: u64) -> Result<(), UpdateError> {
        let volume_bytes = self.volume_bytes();
        match offset.checked_add(len) {
            Some(end) if end <= volume_bytes => Ok(()),
            _ => Err(UpdateError::OutOfRange {
                offset,
                len,
                volume_bytes,
            }),
        }
    }

    /// Sector size in bytes.
    pub fn sector_bytes(&self) -> usize {
        self.sector_bytes
    }

    /// The stripe-local data sectors, ascending.
    pub fn data_sectors(&self) -> &[usize] {
        &self.data_sectors
    }

    /// Splits a volume-address write into per-stripe pieces
    /// `(stripe, stripe_relative_offset, len)`, in address order.
    pub fn split_write(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let per = self.data_per_stripe();
        let mut out = Vec::new();
        let mut at = offset;
        let end = offset + len;
        while at < end {
            let stripe = (at / per) as usize;
            let rel = at % per;
            let take = (per - rel).min(end - at);
            out.push((stripe, rel, take));
            at += take;
        }
        out
    }
}

/// What one flush did: the stripe it settled and the session's
/// instrumented stats for the parity work. `exec.update` records the
/// route, the sectors written, the parity patches and the dirty bytes.
#[derive(Clone, Debug)]
pub struct FlushReport {
    /// Volume stripe index flushed.
    pub stripe: usize,
    /// The session's executed ledger for the flush (`update` field set
    /// either way).
    pub exec: ExecStats,
}

/// Cumulative engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Writes accepted by [`UpdateEngine::write`].
    pub writes: usize,
    /// Raw bytes those writes carried.
    pub bytes_written: u64,
    /// Bytes absorbed by coalescing (raw − newly-dirty): rewrites of
    /// already-dirty bytes that cost no buffer and no extra flush work.
    pub bytes_coalesced: u64,
    /// Flushes executed (evictions + final drains).
    pub flushes: usize,
    /// Flushes that took the delta route.
    pub delta_flushes: usize,
    /// Flushes that took the re-encode route.
    pub reencode_flushes: usize,
    /// Flushes forced by the capacity bound (vs requested drains).
    pub evictions: usize,
    /// Parity-sector region patches applied across all delta flushes.
    pub parity_patches: u64,
}

impl EngineStats {
    /// Renders the counters as one JSON object (hand-rolled; the
    /// workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"writes\":{},\"bytes_written\":{},\"bytes_coalesced\":{},\"flushes\":{},\"delta_flushes\":{},\"reencode_flushes\":{},\"evictions\":{},\"parity_patches\":{}}}",
            self.writes,
            self.bytes_written,
            self.bytes_coalesced,
            self.flushes,
            self.delta_flushes,
            self.reencode_flushes,
            self.evictions,
            self.parity_patches
        )
    }

    fn absorb(&mut self, report: &FlushReport, eviction: bool) {
        let update = report.exec.update.unwrap_or_default();
        self.flushes += 1;
        if update.full_reencode {
            self.reencode_flushes += 1;
        } else {
            self.delta_flushes += 1;
        }
        if eviction {
            self.evictions += 1;
        }
        self.parity_patches += update.parity_patches as u64;
    }
}

/// A buffered, trace-driven write path over a volume of stripes,
/// flushing through a shared [`RepairService`].
///
/// ```
/// use ppm_codes::LrcCode;
/// use ppm_core::RepairService;
/// use ppm_update::{EngineConfig, UpdateEngine};
/// use ppm_stripe::random_data_stripe;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
/// let service = RepairService::new(code, Default::default());
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut stripes = Vec::new();
/// for _ in 0..4 {
///     let mut s = random_data_stripe(service.code(), 64, &mut rng);
///     service.encode(&mut s).unwrap();
///     stripes.push(s);
/// }
///
/// let mut engine = UpdateEngine::new(&service, stripes, EngineConfig::default()).unwrap();
/// engine.write(100, &[0xAB; 40]).unwrap(); // unaligned small write
/// let reports = engine.flush_all(1).unwrap();
/// assert_eq!(reports.len(), 1);
/// let update = reports[0].exec.update.unwrap();
/// assert!(!update.full_reencode, "one dirty sector: delta wins");
/// ```
pub struct UpdateEngine<'s, W: GfWord, C: ErasureCode<W>> {
    service: &'s RepairService<W, C>,
    volume: Vec<Stripe>,
    map: AddressMap,
    buffer: DirtyBuffer,
    config: EngineConfig,
    plan: Arc<UpdatePlan<W>>,
    /// The encode plan's `mult_XORs` — the flat re-encode price every
    /// flush compares against.
    reencode_mult_xors: usize,
    stats: EngineStats,
}

impl<'s, W: GfWord, C: ErasureCode<W>> UpdateEngine<'s, W, C> {
    /// Builds an engine over `volume` (stripes of `service`'s code,
    /// already parity-consistent). Captures the session's update plan
    /// and the encode plan's cost once; both are shared with any other
    /// user of the session.
    pub fn new(
        service: &'s RepairService<W, C>,
        volume: Vec<Stripe>,
        config: EngineConfig,
    ) -> Result<Self, UpdateError> {
        if volume.is_empty() {
            return Err(UpdateError::EmptyVolume);
        }
        let expected = service.code().layout().sectors();
        for stripe in &volume {
            if stripe.layout().sectors() != expected {
                return Err(UpdateError::MixedGeometry {
                    expected,
                    actual: stripe.layout().sectors(),
                });
            }
        }
        let sector_bytes = volume[0].sector_bytes();
        for stripe in &volume {
            if stripe.sector_bytes() != sector_bytes {
                return Err(UpdateError::MixedGeometry {
                    expected: expected * sector_bytes,
                    actual: stripe.layout().sectors() * stripe.sector_bytes(),
                });
            }
        }
        let map = AddressMap::new(service.code(), sector_bytes, volume.len());
        let plan = service.update_plan()?;
        let encode_scenario = FailureScenario::new(service.code().parity_sectors());
        let (encode_plan, _) = service.plan_for(&encode_scenario)?;
        Ok(UpdateEngine {
            service,
            volume,
            map,
            buffer: DirtyBuffer::new(config.buffer_bytes),
            config,
            plan,
            reencode_mult_xors: encode_plan.mult_xors(),
            stats: EngineStats::default(),
        })
    }

    /// Stages a write of `payload` at volume byte `offset`, splitting
    /// across stripes as needed, then evicts (serially, on the calling
    /// thread) while the buffer is over capacity. Returns the reports
    /// of any flushes the write forced.
    pub fn write(&mut self, offset: u64, payload: &[u8]) -> Result<Vec<FlushReport>, UpdateError> {
        let len = payload.len() as u64;
        self.map.check_range(offset, len)?;
        self.stats.writes += 1;
        self.stats.bytes_written += len;
        if len == 0 {
            return Ok(Vec::new());
        }
        let mut consumed = 0usize;
        let mut newly = 0u64;
        for (stripe, rel, take) in self.map.split_write(offset, len) {
            let piece = &payload[consumed..consumed + take as usize];
            newly += self
                .buffer
                .stage(stripe, rel, piece, self.map.data_per_stripe() as usize);
            consumed += take as usize;
        }
        self.stats.bytes_coalesced += len - newly;

        let mut reports = Vec::new();
        while self.buffer.over_capacity() {
            let Some(victim) = self
                .buffer
                .victim(self.config.policy, self.map.sector_bytes())
            else {
                break;
            };
            let Some(pending) = self.buffer.take(victim) else {
                break;
            };
            let report = flush_one(
                self.service,
                &self.plan,
                &self.map,
                self.config.mode,
                self.reencode_mult_xors,
                victim,
                &mut self.volume[victim],
                pending,
            )?;
            self.stats.absorb(&report, true);
            reports.push(report);
        }
        Ok(reports)
    }

    /// Flushes every pending stripe with up to `workers` OS threads
    /// driving the shared session concurrently (`&self` flushes — the
    /// stripes are disjoint `&mut` borrows, the session is shared); with
    /// `workers ≤ 1` everything runs on the calling thread. Reports come
    /// back in ascending stripe order.
    ///
    /// # Errors
    /// The first failing flush stops the workers from starting further
    /// stripes and is returned; the buffer has been drained either way.
    pub fn flush_all(&mut self, workers: usize) -> Result<Vec<FlushReport>, UpdateError> {
        let pending = self.buffer.drain();
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        // Pair each pending stripe with its disjoint `&mut Stripe`, in
        // ascending stripe order.
        let mut by_index: std::collections::HashMap<usize, PendingStripe> =
            pending.into_iter().collect();
        let mut jobs: Vec<(usize, &mut Stripe, PendingStripe)> = Vec::new();
        for (i, stripe) in self.volume.iter_mut().enumerate() {
            if let Some(p) = by_index.remove(&i) {
                jobs.push((i, stripe, p));
            }
        }
        let service = self.service;
        let plan = &self.plan;
        let map = &self.map;
        let mode = self.config.mode;
        let reencode = self.reencode_mult_xors;

        let reports = par_map(workers, jobs, |(index, stripe, p)| {
            flush_one(service, plan, map, mode, reencode, index, stripe, p)
        })?;
        for r in &reports {
            self.stats.absorb(r, false);
        }
        Ok(reports)
    }

    /// Coalesced dirty bytes currently buffered.
    pub fn pending_bytes(&self) -> u64 {
        self.buffer.dirty_bytes()
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine's address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// The flat re-encode price (`mult_XORs`) flushes compare against.
    pub fn reencode_mult_xors(&self) -> usize {
        self.reencode_mult_xors
    }

    /// The volume (pending writes are *not* reflected until flushed).
    pub fn volume(&self) -> &[Stripe] {
        &self.volume
    }

    /// Consumes the engine, returning the volume. Call
    /// [`UpdateEngine::flush_all`] first — buffered writes still
    /// pending are dropped.
    pub fn into_volume(self) -> Vec<Stripe> {
        self.volume
    }
}

/// Settles one stripe's pending ranges. Route choice: `mode`, with
/// [`FlushMode::Auto`] taking delta iff its predicted `mult_XORs` are
/// strictly cheaper than the flat re-encode price.
#[allow(clippy::too_many_arguments)]
fn flush_one<W: GfWord, C: ErasureCode<W>>(
    service: &RepairService<W, C>,
    plan: &UpdatePlan<W>,
    map: &AddressMap,
    mode: FlushMode,
    reencode_mult_xors: usize,
    index: usize,
    stripe: &mut Stripe,
    pending: PendingStripe,
) -> Result<FlushReport, UpdateError> {
    let sector_bytes = map.sector_bytes();
    let dirty_bytes = pending.ranges.dirty_bytes();

    // Dirty data sectors, ascending, from the coalesced ranges.
    let mut dirty_sectors: Vec<usize> = Vec::new();
    for (start, end) in pending.ranges.iter() {
        let first = (start as usize) / sector_bytes;
        let last = ((end - 1) as usize) / sector_bytes;
        for slot in first..=last {
            if dirty_sectors.last() != Some(&slot) {
                dirty_sectors.push(slot);
            }
        }
    }

    let mut predicted_delta = 0usize;
    for &slot in &dirty_sectors {
        predicted_delta += plan.update_mult_xors(map.data_sectors()[slot])?;
    }
    let use_delta = mode == FlushMode::Auto && predicted_delta < reencode_mult_xors;

    let exec = if use_delta {
        // Per dirty sector: new contents = old bytes overlaid with the
        // staged ranges. Sector buffers cycle through the session arena;
        // each is overwritten whole, so none needs zeroing.
        let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(dirty_sectors.len());
        for &slot in &dirty_sectors {
            let sector = map.data_sectors()[slot];
            let mut buf = service.arena().take_dirty(sector_bytes);
            buf.copy_from_slice(stripe.sector(sector));
            overlay(&mut buf, slot, sector_bytes, &pending);
            buffers.push(buf);
        }
        let writes: Vec<(usize, &[u8])> = dirty_sectors
            .iter()
            .zip(&buffers)
            .map(|(&slot, buf)| (map.data_sectors()[slot], buf.as_slice()))
            .collect();
        let result = service.apply_update(stripe, &writes);
        for buf in buffers {
            service.arena().give(buf);
        }
        let mut exec = result?;
        if let Some(u) = &mut exec.update {
            u.dirty_bytes = dirty_bytes;
        }
        exec
    } else {
        // Overlay the staged bytes in place, then re-derive every parity
        // through the cached encode plan.
        for &slot in &dirty_sectors {
            let sector = map.data_sectors()[slot];
            overlay(stripe.sector_mut(sector), slot, sector_bytes, &pending);
        }
        let mut exec = service.encode(stripe)?;
        exec.update = Some(UpdateStats {
            sectors_patched: dirty_sectors.len(),
            parity_patches: 0,
            full_reencode: true,
            dirty_bytes,
        });
        exec
    };

    Ok(FlushReport {
        stripe: index,
        exec,
    })
}

/// Copies the staged ranges intersecting data-sector slot `slot` from
/// the pending image into `buf` (a full-sector buffer).
fn overlay(buf: &mut [u8], slot: usize, sector_bytes: usize, pending: &PendingStripe) {
    let sector_start = (slot * sector_bytes) as u64;
    let sector_end = sector_start + sector_bytes as u64;
    for (start, end) in pending.ranges.iter() {
        let s = start.max(sector_start);
        let e = end.min(sector_end);
        if s >= e {
            continue;
        }
        let src = &pending.data[s as usize..e as usize];
        let rel = (s - sector_start) as usize;
        buf[rel..rel + src.len()].copy_from_slice(src);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ppm_codes::LrcCode;
    use ppm_stripe::random_data_stripe;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn writes_past_the_volume_end_are_refused_without_overflow() {
        let service =
            RepairService::new(LrcCode::<u8>::new(4, 2, 1, 2).unwrap(), Default::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut stripe = random_data_stripe(service.code(), 64, &mut rng);
        service.encode(&mut stripe).unwrap();
        let mut engine =
            UpdateEngine::new(&service, vec![stripe], EngineConfig::default()).unwrap();
        let volume_bytes = engine.address_map().volume_bytes();

        for (offset, len) in [(u64::MAX - 4, 8), (volume_bytes - 4, 8), (volume_bytes, 1)] {
            let err = engine.write(offset, &vec![0; len]).unwrap_err();
            assert_eq!(
                err,
                UpdateError::OutOfRange {
                    offset,
                    len: len as u64,
                    volume_bytes
                }
            );
            assert!(err.to_string().contains("outruns"), "{err}");
        }
        assert_eq!(engine.stats(), EngineStats::default(), "nothing was staged");
        assert!(engine.address_map().check_range(0, u64::MAX).is_err());
        assert!(engine.address_map().check_range(volume_bytes, 0).is_ok());
        engine.write(volume_bytes - 8, &[1; 8]).unwrap();
        assert_eq!(engine.stats().writes, 1);
    }
}
