//! Differential replay tests for the buffered update engine: the same
//! small-write trace is settled three ways — buffered through
//! [`UpdateEngine`] (tiny buffer, so evictions and the cost-model route
//! choice both exercise), immediately through
//! [`RepairService::apply_update`] one write at a time, and by patching
//! a flat byte image and fully re-encoding every stripe — and all three
//! must produce bit-identical volumes that pass the parity check.
//!
//! The grid crosses code families (SD, PMDS, LRC — the asymmetric codes
//! the update path exists for) with thread budgets and GF backends, and
//! a separate test checks that a concurrent `flush_all(4)` through the
//! shared session equals the serial drain bit for bit.
//!
//! The workload seed is read from `PPM_SEED` (default 2015) so CI can
//! run these under a seed matrix without recompiling.

use ppm::stripe::random_data_stripe;
use ppm::update::trace::{synthesize, SynthKind, TraceOp};
use ppm::update::AddressMap;
use ppm::{
    parity_consistent, Backend, DecoderConfig, EngineConfig, ErasureCode, EvictionPolicy,
    FlushMode, HitchhikerXor, LrcCode, PmdsCode, ProductCode, RepairService, SdCode, Stripe,
    UpdateEngine,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SECTOR_BYTES: usize = 64;
const STRIPES: usize = 8;

fn seed_from_env() -> u64 {
    std::env::var("PPM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2015)
}

/// A mixed trace: Zipf-skewed sub-sector writes, uniform writes that
/// straddle sector (and stripe) boundaries, and a sequential sweep —
/// every op carrying seeded payload bytes shared by all replay paths.
fn workload(volume_bytes: u64, seed: u64) -> Vec<(TraceOp, Vec<u8>)> {
    let mut ops = synthesize(SynthKind::Zipf(1.0), 120, volume_bytes, 40, seed);
    ops.extend(synthesize(
        SynthKind::Uniform,
        60,
        volume_bytes,
        100,
        seed ^ 1,
    ));
    ops.extend(synthesize(
        SynthKind::Sequential,
        40,
        volume_bytes,
        SECTOR_BYTES as u64,
        seed ^ 2,
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    ops.into_iter()
        .map(|op| {
            let mut payload = vec![0u8; op.len as usize];
            rng.fill(&mut payload[..]);
            (op, payload)
        })
        .collect()
}

/// A freshly encoded volume plus its flat data image.
fn fresh_volume<C: ErasureCode<u8>>(
    service: &RepairService<u8, C>,
    seed: u64,
) -> (Vec<Stripe>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut volume = Vec::with_capacity(STRIPES);
    let mut image = Vec::new();
    for _ in 0..STRIPES {
        let mut s = random_data_stripe(service.code(), SECTOR_BYTES, &mut rng);
        service.encode(&mut s).unwrap();
        for &sector in &service.code().data_sectors() {
            image.extend_from_slice(s.sector(sector));
        }
        volume.push(s);
    }
    (volume, image)
}

/// Path A: the buffered engine with a buffer far smaller than the
/// workload, so most flushes are capacity evictions.
fn replay_buffered<C: ErasureCode<u8>>(
    service: &RepairService<u8, C>,
    volume: Vec<Stripe>,
    ops: &[(TraceOp, Vec<u8>)],
    policy: EvictionPolicy,
    workers: usize,
) -> Vec<Stripe> {
    let config = EngineConfig {
        buffer_bytes: 256,
        policy,
        mode: FlushMode::Auto,
    };
    let mut engine = UpdateEngine::new(service, volume, config).unwrap();
    let mut reports = Vec::new();
    for (op, payload) in ops {
        reports.extend(engine.write(op.offset, payload).unwrap());
    }
    reports.extend(engine.flush_all(workers).unwrap());
    for r in &reports {
        assert!(
            r.exec.matches_prediction(),
            "flush of stripe {} executed {} mult_XORs, predicted {}",
            r.stripe,
            r.exec.executed_mult_xors(),
            r.exec.predicted_mult_xors
        );
    }
    assert_eq!(engine.pending_bytes(), 0, "flush_all left bytes pending");
    engine.into_volume()
}

/// Path B: no buffering — every write settles immediately through
/// `RepairService::apply_update`, sector by sector.
fn replay_immediate<C: ErasureCode<u8>>(
    service: &RepairService<u8, C>,
    volume: &mut [Stripe],
    ops: &[(TraceOp, Vec<u8>)],
) {
    let map = AddressMap::new(service.code(), SECTOR_BYTES, volume.len());
    for (op, payload) in ops {
        let mut consumed = 0usize;
        for (stripe, rel, len) in map.split_write(op.offset, op.len) {
            let piece = &payload[consumed..consumed + len as usize];
            consumed += len as usize;
            // Overlay the piece across the data sectors it touches and
            // apply each rewritten sector as one immediate update.
            let mut at = rel;
            let mut taken = 0usize;
            while at < rel + len {
                let slot = (at as usize) / SECTOR_BYTES;
                let sector = map.data_sectors()[slot];
                let sector_start = (slot * SECTOR_BYTES) as u64;
                let sector_end = sector_start + SECTOR_BYTES as u64;
                let end = (rel + len).min(sector_end);
                let mut buf = volume[stripe].sector(sector).to_vec();
                let lo = (at - sector_start) as usize;
                buf[lo..lo + (end - at) as usize]
                    .copy_from_slice(&piece[taken..taken + (end - at) as usize]);
                service
                    .apply_update(&mut volume[stripe], &[(sector, &buf)])
                    .unwrap();
                taken += (end - at) as usize;
                at = end;
            }
        }
    }
}

/// Path C: patch a flat byte image, then rebuild and re-encode every
/// stripe from scratch — the ground truth both update routes must hit.
fn replay_reencode<C: ErasureCode<u8>>(
    service: &RepairService<u8, C>,
    mut image: Vec<u8>,
    ops: &[(TraceOp, Vec<u8>)],
) -> Vec<Stripe> {
    for (op, payload) in ops {
        image[op.offset as usize..(op.offset + op.len) as usize].copy_from_slice(payload);
    }
    let code = service.code();
    let data_sectors = code.data_sectors();
    let per = data_sectors.len() * SECTOR_BYTES;
    let mut volume = Vec::with_capacity(STRIPES);
    for s in 0..STRIPES {
        let mut stripe = Stripe::zeroed(code.layout(), SECTOR_BYTES);
        for (i, &sector) in data_sectors.iter().enumerate() {
            let start = s * per + i * SECTOR_BYTES;
            stripe.write_sector(sector, &image[start..start + SECTOR_BYTES]);
        }
        service.encode(&mut stripe).unwrap();
        volume.push(stripe);
    }
    volume
}

fn assert_volumes_equal<C: ErasureCode<u8>>(code: &C, a: &[Stripe], b: &[Stripe], what: &str) {
    let h = code.parity_check_matrix();
    assert_eq!(a.len(), b.len());
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: stripe {s} diverged");
        assert!(
            parity_consistent(&h, x, Backend::Auto),
            "{what}: stripe {s} fails the parity check"
        );
    }
}

fn differential_grid<C: ErasureCode<u8> + Clone>(code: C, tag: &str) {
    let seed = seed_from_env();
    let policies = [
        EvictionPolicy::Lru,
        EvictionPolicy::MostModifiedBlock,
        EvictionPolicy::MostModifiedStripe,
    ];
    let mut policy_at = 0;
    for threads in [1usize, 4] {
        for backend in [Backend::Scalar, Backend::Auto] {
            let config = DecoderConfig { threads, backend };
            let service = RepairService::new(code.clone(), config);
            let (volume, image) = fresh_volume(&service, seed);
            let map = AddressMap::new(service.code(), SECTOR_BYTES, STRIPES);
            let ops = workload(map.volume_bytes(), seed);

            let policy = policies[policy_at % policies.len()];
            policy_at += 1;
            let buffered = replay_buffered(&service, volume.clone(), &ops, policy, 1);
            let mut immediate = volume.clone();
            replay_immediate(&service, &mut immediate, &ops);
            let reencoded = replay_reencode(&service, image, &ops);

            let what = format!("{tag} threads={threads} backend={backend:?} policy={policy:?}");
            assert_volumes_equal(&code, &buffered, &immediate, &format!("{what} buf-vs-imm"));
            assert_volumes_equal(
                &code,
                &buffered,
                &reencoded,
                &format!("{what} buf-vs-reenc"),
            );
        }
    }
}

#[test]
fn sd_buffered_immediate_and_reencode_agree() {
    differential_grid(SdCode::<u8>::search(6, 4, 2, 1, 2015, 3).unwrap(), "sd");
}

#[test]
fn pmds_buffered_immediate_and_reencode_agree() {
    differential_grid(PmdsCode::<u8>::search(6, 4, 2, 1, 2015, 3).unwrap(), "pmds");
}

#[test]
fn lrc_buffered_immediate_and_reencode_agree() {
    differential_grid(LrcCode::<u8>::new(6, 2, 2, 4).unwrap(), "lrc");
}

#[test]
fn concurrent_flush_equals_serial() {
    let seed = seed_from_env();
    let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
    let service = RepairService::new(code.clone(), DecoderConfig::default());
    let (volume, _) = fresh_volume(&service, seed);
    let map = AddressMap::new(service.code(), SECTOR_BYTES, STRIPES);
    let ops = workload(map.volume_bytes(), seed ^ 7);

    // Huge buffer: nothing evicts, every stripe settles in one final
    // drain — serially, then with 4 workers on the shared session.
    let drain = |workers: usize| {
        let config = EngineConfig {
            buffer_bytes: 1 << 30,
            policy: EvictionPolicy::Lru,
            mode: FlushMode::Auto,
        };
        let mut engine = UpdateEngine::new(&service, volume.clone(), config).unwrap();
        for (op, payload) in &ops {
            let forced = engine.write(op.offset, payload).unwrap();
            assert!(forced.is_empty(), "nothing should evict under a 1 GiB cap");
        }
        let reports = engine.flush_all(workers).unwrap();
        assert!(!reports.is_empty());
        engine.into_volume()
    };
    let serial = drain(1);
    let concurrent = drain(4);
    assert_volumes_equal(&code, &serial, &concurrent, "serial-vs-concurrent flush");
}

/// Auto and forced re-encode settle the same trace to the same bytes,
/// and on an asymmetric code the buffered delta route does it in
/// strictly fewer executed `mult_XORs`.
fn naive_matches_auto_and_costs_more<C: ErasureCode<u8> + Clone>(code: C, tag: &str) {
    let seed = seed_from_env();
    let service = RepairService::new(code.clone(), DecoderConfig::default());
    let (volume, _) = fresh_volume(&service, seed);
    let map = AddressMap::new(service.code(), SECTOR_BYTES, STRIPES);
    // Sparse sub-sector writes: the regime where delta patching wins.
    let ops = workload(map.volume_bytes(), seed ^ 21);

    let run = |mode: FlushMode| {
        let config = EngineConfig {
            buffer_bytes: 512,
            policy: EvictionPolicy::Lru,
            mode,
        };
        let mut engine = UpdateEngine::new(&service, volume.clone(), config).unwrap();
        let mut mult_xors = 0u64;
        for (op, payload) in &ops {
            for r in engine.write(op.offset, payload).unwrap() {
                mult_xors += r.exec.executed_mult_xors();
            }
        }
        for r in engine.flush_all(1).unwrap() {
            mult_xors += r.exec.executed_mult_xors();
        }
        (engine.into_volume(), mult_xors)
    };
    let (auto_vol, auto_cost) = run(FlushMode::Auto);
    let (naive_vol, naive_cost) = run(FlushMode::ReencodeOnly);
    assert_volumes_equal(
        &code,
        &auto_vol,
        &naive_vol,
        &format!("{tag} auto-vs-naive"),
    );
    assert!(
        auto_cost < naive_cost,
        "{tag}: buffered delta should beat naive re-encode: \
         {auto_cost} vs {naive_cost} mult_XORs"
    );
}

#[test]
fn naive_mode_matches_auto_and_costs_more() {
    naive_matches_auto_and_costs_more(SdCode::<u8>::search(6, 4, 2, 1, 2015, 3).unwrap(), "sd");
    naive_matches_auto_and_costs_more(PmdsCode::<u8>::search(6, 4, 2, 1, 2015, 3).unwrap(), "pmds");
    naive_matches_auto_and_costs_more(LrcCode::<u8>::new(6, 2, 2, 4).unwrap(), "lrc");
    naive_matches_auto_and_costs_more(ProductCode::<u8>::new(4, 2, 3, 2).unwrap(), "product");
    naive_matches_auto_and_costs_more(HitchhikerXor::<u8>::new(5, 3).unwrap(), "hitchhiker");
}
