//! Integration tests for the repair-session layer: canonical cache-key
//! properties, warm-vs-cold bit-identity across the decoder
//! configuration matrix, LRU eviction, and stats plumbing through
//! [`RepairService`].

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, Decoder, DecoderConfig, ErasureCode, FailureScenario, PlanCache, PlanKey,
    RepairService, SdCode, Strategy,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// A deterministic re-presentation of the same faulty *set*: reversed,
/// rotated, and sometimes with a duplicated element.
fn permuted(faulty: &[usize], seed: u64) -> Vec<usize> {
    let mut v = faulty.to_vec();
    if seed & 1 == 1 {
        v.reverse();
    }
    let rot = (seed as usize / 2) % v.len().max(1);
    v.rotate_left(rot);
    if seed & 4 != 0 {
        let dup = v[0];
        v.push(dup);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same faulty set in any presentation order — permuted, even
    /// with duplicates — canonicalizes to the same cache key, so a
    /// scattered repair job can never defeat the cache by enumeration
    /// order.
    #[test]
    fn key_is_order_insensitive(
        (faulty, seed) in (pvec(0usize..64, 1..8), any::<u64>())
    ) {
        let a = FailureScenario::new(faulty.clone());
        let b = FailureScenario::new(permuted(&faulty, seed));
        let ka = PlanKey::new("sd#6x8", 8, &a, Strategy::PpmAuto);
        let kb = PlanKey::new("sd#6x8", 8, &b, Strategy::PpmAuto);
        prop_assert_eq!(ka, kb);
    }

    /// Keys are structural, not digests: two keys are equal exactly when
    /// their canonical faulty sets are equal, and changing any other
    /// component (code id, GF width, strategy) always splits the key.
    /// Distinct erasure patterns therefore *never* collide.
    #[test]
    fn distinct_patterns_never_collide(
        (fa, fb) in (pvec(0usize..64, 1..8), pvec(0usize..64, 1..8))
    ) {
        let a = FailureScenario::new(fa);
        let b = FailureScenario::new(fb);
        let ka = PlanKey::new("sd#6x8", 8, &a, Strategy::PpmAuto);
        let kb = PlanKey::new("sd#6x8", 8, &b, Strategy::PpmAuto);
        prop_assert_eq!(ka == kb, a.faulty() == b.faulty());

        // Any other key component splits otherwise-identical keys.
        let other_code = PlanKey::new("lrc#6x4", 8, &a, Strategy::PpmAuto);
        let other_width = PlanKey::new("sd#6x8", 16, &a, Strategy::PpmAuto);
        let other_strategy = PlanKey::new("sd#6x8", 8, &a, Strategy::TraditionalNormal);
        prop_assert_ne!(ka.clone(), other_code);
        prop_assert_ne!(ka.clone(), other_width);
        prop_assert_ne!(ka, other_strategy);
    }
}

/// A warm (cache-hit) decode is bit-identical to the cold decode that
/// built the plan, across the full executor matrix: serial and the
/// paper's T = 4, scalar and (where the host supports it) SIMD region
/// kernels. The cache counters prove the warm repeats performed zero
/// matrix inversions: one build (miss) serves every later repair.
#[test]
fn warm_hit_decode_is_bit_identical_to_cold() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let backends = match Backend::detect() {
        Backend::Scalar => vec![Backend::Scalar],
        simd => vec![Backend::Scalar, simd],
    };
    const REPEATS: usize = 5;

    for threads in [1usize, 4] {
        for &backend in &backends {
            let svc = RepairService::new(&code, DecoderConfig { threads, backend });
            let mut rng = StdRng::seed_from_u64(101);
            let mut stripe = random_data_stripe(svc.code(), 64, &mut rng);
            svc.encode(&mut stripe).unwrap();
            let pristine = stripe.clone();

            // Cold: the first repair pays the plan build (a cache miss).
            let mut cold = pristine.clone();
            cold.erase(&scenario);
            svc.repair(&mut cold, &scenario).unwrap();
            assert_eq!(
                cold, pristine,
                "cold repair restores (T={threads} {backend:?})"
            );

            // Warm: every repeat is a cache hit and bit-identical.
            for round in 0..REPEATS {
                let mut warm = pristine.clone();
                warm.erase(&scenario);
                let stats = svc.repair(&mut warm, &scenario).unwrap();
                assert_eq!(warm, cold, "round {round} T={threads} {backend:?}");
                assert!(stats.matches_prediction());
            }

            // Zero inversions while warm: only encode + the cold repair
            // ever built a plan; every warm decode hit the cache.
            let s = svc.cache_stats();
            assert_eq!(
                s.misses, 2,
                "encode + cold build only (T={threads} {backend:?})"
            );
            assert_eq!(s.hits, REPEATS as u64, "every warm repeat hits");
            assert_eq!(s.evictions, 0);
        }
    }
}

/// Under capacity pressure the session cache evicts the least recently
/// *used* plan — a hit refreshes recency, so the hot pattern survives
/// while the stale one is rebuilt.
#[test]
fn session_cache_evicts_least_recently_used() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let config = DecoderConfig {
        threads: 1,
        backend: Backend::Scalar,
    };
    let svc = RepairService::new(&code, config);

    // Encode outside the session so the cache only ever sees repairs.
    let dec = Decoder::new(config);
    let mut rng = StdRng::seed_from_u64(9);
    let mut stripe = random_data_stripe(&code, 64, &mut rng);
    encode(&code, &dec, &mut stripe).unwrap();
    let pristine = stripe.clone();

    // CAPACITY + 1 distinct patterns: every single lost sector, then
    // pairs of them.
    const CAPACITY: usize = PlanCache::<u8>::CAPACITY;
    let sectors = code.layout().sectors();
    let patterns: Vec<FailureScenario> = (0..sectors)
        .map(|a| vec![a])
        .chain((0..sectors).flat_map(|a| (a + 1..sectors).map(move |b| vec![a, b])))
        .take(CAPACITY + 1)
        .map(FailureScenario::new)
        .collect();
    let run = |sc: &FailureScenario| {
        let mut broken = pristine.clone();
        broken.erase(sc);
        svc.repair(&mut broken, sc).unwrap();
        assert_eq!(broken, pristine);
    };

    for p in &patterns[..CAPACITY] {
        run(p); // misses fill the cache
    }
    run(&patterns[0]); // hit (bumps the first pattern)
    run(&patterns[CAPACITY]); // miss, evicts the second (least recently used)
    run(&patterns[0]); // hit — the first survived the eviction
    run(&patterns[1]); // miss — the second was evicted, rebuilt; evicts the third

    let s = svc.cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (2, CAPACITY as u64 + 2, 2));
    assert_eq!(s.entries, CAPACITY);
    assert_eq!(s.capacity, CAPACITY);
}

/// Batch, stream, single, verified and chunked decodes through the
/// session report complete per-stripe stats (the executed == predicted
/// ledger holds), restore every stripe, and each look the plan up
/// exactly once per call — not once per stripe. That traffic is what
/// the plan cache's design rests on: one mutex for the whole map and
/// one build lock are enough because a session takes them a handful of
/// times per call, however many stripes or workers the call spans.
#[test]
fn batch_and_chunked_report_full_stats() {
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    let svc = RepairService::new(
        &code,
        DecoderConfig {
            threads: 4,
            backend: Backend::Scalar,
        },
    );
    let mut rng = StdRng::seed_from_u64(23);

    let mut pristine = Vec::new();
    let mut broken = Vec::new();
    for _ in 0..4 {
        let mut s = random_data_stripe(svc.code(), 64, &mut rng);
        svc.encode(&mut s).unwrap();
        let mut b = s.clone();
        b.erase(&scenario);
        pristine.push(s);
        broken.push(b);
    }
    let lookups = || {
        let s = svc.cache_stats();
        s.hits + s.misses
    };

    let before = lookups();
    let report = svc.repair_batch(&mut broken, &scenario, 2).unwrap();
    assert_eq!(lookups(), before + 1, "one lookup per batch");
    assert_eq!(broken, pristine, "batch restores every stripe in order");
    assert!(
        report.inter_stripe,
        "4 stripes over 2 workers split by stripe"
    );
    assert_eq!(report.stripes(), 4);
    for stats in &report.stats {
        assert!(stats.matches_prediction(), "batched stats stay on ledger");
    }

    let erased: Vec<_> = pristine
        .iter()
        .map(|s| {
            let mut b = s.clone();
            b.erase(&scenario);
            b
        })
        .collect();
    let before = lookups();
    let (repaired, report) = svc.repair_stream(erased, &scenario, 2).unwrap();
    assert_eq!(lookups(), before + 1, "one lookup per stream");
    assert_eq!(repaired, pristine);
    assert!(report.all_match_prediction());

    for (label, verified) in [("repair", false), ("repair_verified", true)] {
        let mut b = pristine[0].clone();
        b.erase(&scenario);
        let before = lookups();
        let stats = if verified {
            svc.repair_verified(&mut b, &scenario).unwrap()
        } else {
            svc.repair(&mut b, &scenario).unwrap()
        };
        assert_eq!(lookups(), before + 1, "one lookup per {label}");
        assert_eq!(b, pristine[0]);
        assert!(stats.matches_prediction(), "{label} stats stay on ledger");
    }

    let mut b = pristine[0].clone();
    b.erase(&scenario);
    let before = lookups();
    let stats = svc.decode_chunked(&mut b, &scenario, 32).unwrap();
    assert_eq!(lookups(), before + 1, "one lookup per chunked decode");
    assert_eq!(b, pristine[0]);
    assert!(stats.matches_prediction(), "chunked stats stay on ledger");
}
