//! Plan caching: amortize plan construction across repeated decodes.
//!
//! The paper's cost model (§III-B) prices a *single* decode, but a repair
//! pipeline decodes the same `(code, erasure pattern)` combination
//! thousands of times — once per stripe of a failed device. Rebuilding
//! the plan each time repeats the log-table scan, the partition, and the
//! `F` factorization, all of which depend only on `H` and the faulty
//! columns, never on the stripe payload. [`PlanCache`] keys fully built
//! [`DecodePlan`]s by a canonical erasure signature ([`PlanKey`]) and
//! hands out shared references, so a warm decode performs zero matrix
//! inversions and zero plan-construction allocations.
//!
//! The cache is shared by every worker of a session and sized to its
//! traffic: a session looks a plan up once per call, not once per
//! stripe, so one mutex guards the whole map. Cold builds are
//! **single-flight** — when k workers miss on the same key at once, one
//! runs the factorization under a build lock while the other k−1 wait
//! for it and then share its result, instead of duplicating the
//! inversion k times.

use crate::plan::{DecodePlan, Strategy};
use ppm_codes::FailureScenario;
use ppm_gf::GfWord;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the plain data on poison.
///
/// Both locks here guard plain data with no invariant that a panicking
/// peer could have left half-established: the map, clock and counters
/// are updated together under one guard, and the build lock guards
/// nothing. A poisoned lock is therefore safe to strip; after a build
/// panics, the next waiter looks again, finds no plan, and builds it.
fn lock_plain<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Canonical erasure signature: the complete identity of a decode plan.
///
/// Two decode requests may share one plan exactly when they agree on all
/// four components: the code (hence `H`), the GF word width the matrix is
/// expressed in, the *set* of faulty columns, and the strategy. The
/// faulty set is stored sorted and deduplicated (inherited from
/// [`FailureScenario`]'s canonical form), so scenarios enumerating the
/// same failures in any order — or equivalently, any surviving-sector
/// order — produce the same key. The key is structural (no hashing down
/// to a digest), so distinct patterns can never collide.
///
/// The code identity is an `Arc<str>`, so a session mints the string once
/// and every per-stripe key clones a pointer, not a heap buffer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    code_id: Arc<str>,
    gf_width: u32,
    faulty: Vec<usize>,
    strategy: Strategy,
}

impl PlanKey {
    /// Builds the canonical key for decoding `scenario` of the code
    /// identified by `code_id` (see
    /// [`ErasureCode::cache_id`](ppm_codes::ErasureCode::cache_id)) over
    /// GF(2^`gf_width`) with `strategy`.
    pub fn new(
        code_id: impl Into<Arc<str>>,
        gf_width: u32,
        scenario: &FailureScenario,
        strategy: Strategy,
    ) -> Self {
        PlanKey {
            code_id: code_id.into(),
            gf_width,
            faulty: scenario.faulty().to_vec(),
            strategy,
        }
    }

    /// Builds a key directly from its components, canonicalizing the
    /// faulty set (sorted, deduplicated) — the constructor behind
    /// [`PlanKey::parse`] and cluster-side key reconstruction.
    pub fn from_parts(
        code_id: impl Into<Arc<str>>,
        gf_width: u32,
        mut faulty: Vec<usize>,
        strategy: Strategy,
    ) -> Self {
        faulty.sort_unstable();
        faulty.dedup();
        PlanKey {
            code_id: code_id.into(),
            gf_width,
            faulty,
            strategy,
        }
    }

    /// The code identity this key stands for (see
    /// [`ErasureCode::cache_id`](ppm_codes::ErasureCode::cache_id)).
    pub fn code_id(&self) -> &str {
        &self.code_id
    }

    /// The GF word width (in bits) the plan's matrix is expressed in.
    pub fn gf_width(&self) -> u32 {
        self.gf_width
    }

    /// The sorted faulty columns this key stands for.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// The strategy component of the key.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Parses the stable serialized form produced by the
    /// [`Display`](std::fmt::Display) impl back into a key. The code-id may
    /// itself contain `|`, so the three trailing fields are split off
    /// from the right. Returns `None` for anything malformed.
    pub fn parse(s: &str) -> Option<PlanKey> {
        // rsplitn yields the fields right-to-left: strategy, faulty,
        // width, then everything left of them (the code id, verbatim).
        let mut fields = s.rsplitn(4, '|');
        let strategy = Strategy::from_name(fields.next()?)?;
        let faulty_field = fields.next()?.strip_prefix('f')?;
        let width_field = fields.next()?.strip_prefix('w')?;
        let code_id = fields.next()?;
        let gf_width: u32 = width_field.parse().ok()?;
        let faulty: Vec<usize> = if faulty_field.is_empty() {
            Vec::new()
        } else {
            faulty_field
                .split('.')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?
        };
        Some(PlanKey::from_parts(code_id, gf_width, faulty, strategy))
    }
}

/// The stable serialized form: `code-id|w<width>|f<c0.c1...>|<strategy>`,
/// e.g. `sd:4,4,1,1:1,2|w8|f2.6.14|ppm-auto`. An empty faulty set renders
/// as a bare `f`. Only the code-id may contain `|`; [`PlanKey::parse`]
/// splits the trailing fields from the right, so the round trip is exact
/// for every key. Coordinator logs and cluster messages name plans by
/// this string.
impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}|w{}|f", self.code_id, self.gf_width)?;
        for (i, s) in self.faulty.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "|{}", self.strategy.name())
    }
}

/// Point-in-time counters of a [`PlanCache`], read from the session
/// that owns it ([`RepairService::cache_stats`](crate::RepairService::cache_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (no plan build, no inversion).
    pub hits: u64,
    /// Lookups that had to build (and insert) a plan.
    pub misses: u64,
    /// Lookups that waited on another worker's build and then shared its
    /// plan (single-flight coalescing). These also count as hits: the
    /// caller performed no factorization.
    pub coalesced: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// The capacity bound, [`PlanCache::CAPACITY`].
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Hit fraction in `[0, 1]` (1.0 when there were no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Renders the counters as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{},\
             \"entries\":{},\"capacity\":{},\"hit_rate\":{:.4}}}",
            self.hits,
            self.misses,
            self.coalesced,
            self.evictions,
            self.entries,
            self.capacity,
            self.hit_rate()
        )
    }
}

/// Everything the cache's one lock guards: each resident plan with the
/// tick of its last use, the clock those ticks come from, and the
/// counters.
struct Inner<W: GfWord> {
    map: HashMap<PlanKey, (Arc<DecodePlan<W>>, u64)>,
    tick: u64,
    stats: PlanCacheStats,
}

/// A bounded LRU cache of built decode plans, shared by every worker of
/// a session.
///
/// Plans are immutable and `Sync`, so the cache hands out [`Arc`]s; a
/// borrowed plan stays valid even if it is evicted mid-use. One mutex
/// guards the map, the recency clock and the counters: a session looks a
/// plan up once per call (once per batch for
/// [`RepairService::repair_batch`](crate::RepairService::repair_batch)),
/// never once per stripe, so the lock is taken a handful of times per
/// repair and a hit costs tens of nanoseconds against a decode's
/// microseconds. A second mutex, `building`, is held across a cold
/// build, so workers that miss on the same key at once build it once.
/// Eviction scans for the smallest tick, which is O([`Self::CAPACITY`])
/// and is paid only on an insert that follows a full plan build.
pub struct PlanCache<W: GfWord> {
    inner: Mutex<Inner<W>>,
    building: Mutex<()>,
}

impl<W: GfWord> Default for PlanCache<W> {
    fn default() -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: PlanCacheStats::default(),
            }),
            building: Mutex::new(()),
        }
    }
}

impl<W: GfWord> PlanCache<W> {
    /// Plans resident at most: comfortably above the distinct erasure
    /// patterns of any device-repair job (one pattern repeated per
    /// stripe) while bounding memory for degraded-read floods.
    pub const CAPACITY: usize = 64;

    /// Creates an empty cache holding at most [`Self::CAPACITY`] plans.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner<W>> {
        lock_plain(&self.inner)
    }

    /// Looks `key` up, counting a hit and bumping its tick when found.
    fn get(&self, key: &PlanKey) -> Option<Arc<DecodePlan<W>>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let (plan, used) = inner.map.get_mut(key)?;
        inner.tick += 1;
        *used = inner.tick;
        inner.stats.hits += 1;
        Some(Arc::clone(plan))
    }

    /// Inserts a plan under `key`, evicting the least-recently-used entry
    /// when the cache is over capacity. The new entry carries the newest
    /// tick, so it is never the one evicted.
    ///
    /// Insertion compiles the plan's instruction tape
    /// ([`DecodePlan::ensure_tape`]): the lowering is matrix-free
    /// bookkeeping that belongs with the one-time plan cost, so every
    /// warm hit finds the tape ready and pays pure region arithmetic.
    fn insert(&self, key: PlanKey, plan: Arc<DecodePlan<W>>) {
        plan.ensure_tape();
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let replaced = inner.map.insert(key, (plan, inner.tick));
        let mut evicted = None;
        if inner.map.len() > Self::CAPACITY {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key.clone());
            evicted = oldest.and_then(|key| inner.map.remove(&key));
            inner.stats.evictions += 1;
        }
        // A replaced or evicted plan (its kernels and tape) is freed after
        // the guard is released, not under it.
        drop(guard);
        drop((replaced, evicted));
    }

    /// The cached plan for `key`, building and inserting it on a miss.
    /// Returns the plan together with `true` on a hit, `false` when
    /// `build` ran. A failed build inserts nothing (and still counts as
    /// a miss — the lookup did not find a plan).
    ///
    /// Builds are **single-flight**: a miss takes the build lock and
    /// looks again before building, so when several workers miss on the
    /// same key at once, one runs `build` and the rest find its plan
    /// (counted as a hit plus a `coalesced` tick). If that build fails or
    /// panics, the next waiter finds no plan and builds with its own
    /// closure — an error poisons nothing and is never served to later
    /// lookups. Builds of distinct keys queue behind one another.
    ///
    /// `build` must not look anything up in this cache: the build lock is
    /// held while it runs and is not re-entrant.
    pub fn get_or_build<E>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<DecodePlan<W>, E>,
    ) -> Result<(Arc<DecodePlan<W>>, bool), E> {
        if let Some(plan) = self.get(&key) {
            return Ok((plan, true));
        }
        let _building = lock_plain(&self.building);
        if let Some(plan) = self.get(&key) {
            self.lock().stats.coalesced += 1;
            return Ok((plan, true));
        }
        self.lock().stats.misses += 1;
        let plan = Arc::new(build()?);
        self.insert(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident plan, keeping the cumulative counters.
    pub fn clear(&self) {
        // The plans are freed after the guard is released.
        let resident = std::mem::take(&mut self.lock().map);
        drop(resident);
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            entries: inner.map.len(),
            capacity: Self::CAPACITY,
            ..inner.stats
        }
    }
}

impl<W: GfWord> std::fmt::Debug for PlanCache<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("coalesced", &stats.coalesced)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ppm_codes::ErasureCode;
    use ppm_gf::Backend;

    fn plan_for(faulty: &[usize]) -> DecodePlan<u8> {
        let code = ppm_codes::SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        DecodePlan::build(
            &code.parity_check_matrix(),
            &FailureScenario::new(faulty.to_vec()),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap()
    }

    fn key(faulty: &[usize]) -> PlanKey {
        PlanKey::new(
            "test",
            8,
            &FailureScenario::new(faulty.to_vec()),
            Strategy::PpmAuto,
        )
    }

    /// Fills `cache` to capacity under keys `[0]..[CAPACITY - 1]`, all
    /// sharing one plan (the key alone is the cache's identity), inserted
    /// in key order.
    fn fill(cache: &PlanCache<u8>) -> Arc<DecodePlan<u8>> {
        let plan = Arc::new(plan_for(&[2]));
        for i in 0..PlanCache::<u8>::CAPACITY {
            cache.insert(key(&[i]), Arc::clone(&plan));
        }
        plan
    }

    #[test]
    fn key_is_order_insensitive_and_structural() {
        let a = PlanKey::new(
            "c",
            8,
            &FailureScenario::new(vec![14, 2, 6, 2]),
            Strategy::PpmAuto,
        );
        let b = PlanKey::new(
            "c",
            8,
            &FailureScenario::new(vec![6, 14, 2]),
            Strategy::PpmAuto,
        );
        assert_eq!(a, b);
        assert_eq!(a.faulty(), &[2, 6, 14]);
        // Any differing component separates the keys.
        let other_set = PlanKey::new("c", 8, &FailureScenario::new(vec![2, 6]), Strategy::PpmAuto);
        let other_code = PlanKey::new(
            "d",
            8,
            &FailureScenario::new(vec![2, 6, 14]),
            Strategy::PpmAuto,
        );
        let other_width = PlanKey::new(
            "c",
            16,
            &FailureScenario::new(vec![2, 6, 14]),
            Strategy::PpmAuto,
        );
        let other_strategy = PlanKey::new(
            "c",
            8,
            &FailureScenario::new(vec![2, 6, 14]),
            Strategy::TraditionalNormal,
        );
        for wrong in [other_set, other_code, other_width, other_strategy] {
            assert_ne!(a, wrong);
        }
    }

    #[test]
    fn display_form_is_stable_and_round_trips() {
        let k = PlanKey::new(
            "sd:4,4,1,1:1,2",
            8,
            &FailureScenario::new(vec![14, 2, 6]),
            Strategy::PpmAuto,
        );
        assert_eq!(k.to_string(), "sd:4,4,1,1:1,2|w8|f2.6.14|ppm-auto");
        assert_eq!(PlanKey::parse(&k.to_string()), Some(k.clone()));
        assert_eq!(k.code_id(), "sd:4,4,1,1:1,2");
        assert_eq!(k.gf_width(), 8);
        assert_eq!(k.strategy(), Strategy::PpmAuto);

        // Every strategy, every width, empty and singleton faulty sets —
        // and a code id containing the separator — all round trip.
        for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            for width in [8u32, 16, 32] {
                for faulty in [vec![], vec![0], vec![3, 1, 3, 7]] {
                    let key = PlanKey::from_parts("odd|code|id", width, faulty, strategy);
                    let parsed = PlanKey::parse(&key.to_string());
                    assert_eq!(parsed, Some(key));
                }
            }
        }
        // from_parts canonicalizes like FailureScenario does.
        assert_eq!(
            PlanKey::from_parts("c", 8, vec![3, 1, 3, 7], Strategy::PpmAuto).faulty(),
            &[1, 3, 7]
        );
        assert_eq!(
            PlanKey::from_parts("c", 8, vec![], Strategy::PpmAuto).to_string(),
            "c|w8|f|ppm-auto"
        );
    }

    #[test]
    fn parse_rejects_malformed_forms() {
        for bad in [
            "",
            "c|w8|f2",                   // missing strategy
            "c|w8|f2|nonsense-strategy", // unknown strategy
            "c|8|f2|ppm-auto",           // missing width marker
            "c|wx|f2|ppm-auto",          // non-numeric width
            "c|w8|2.6|ppm-auto",         // missing faulty marker
            "c|w8|f2.x|ppm-auto",        // non-numeric faulty column
        ] {
            assert_eq!(PlanKey::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PlanCache::<u8>::new();
        assert!(cache.get(&key(&[2])).is_none());
        let (_, hit) = cache
            .get_or_build(key(&[2]), || Ok::<_, crate::DecodeError>(plan_for(&[2])))
            .unwrap();
        assert!(!hit);
        assert!(cache.get(&key(&[2])).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (1, 1, 1, 64));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_or_build_builds_once() {
        let cache = PlanCache::<u8>::new();
        let mut builds = 0;
        for _ in 0..3 {
            let (plan, hit) = cache
                .get_or_build(key(&[2, 6]), || {
                    builds += 1;
                    Ok::<_, crate::DecodeError>(plan_for(&[2, 6]))
                })
                .unwrap();
            assert_eq!(plan.faulty(), &[2, 6]);
            assert_eq!(hit, builds == 1 && cache.stats().hits > 0);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::<u8>::new();
        let plan = fill(&cache);
        // Touch every key but [5], newest-inserted first: [5] is now the
        // least recently used, then [CAPACITY - 1].
        for i in (0..PlanCache::<u8>::CAPACITY).rev().filter(|&i| i != 5) {
            assert!(cache.get(&key(&[i])).is_some());
        }
        cache.insert(key(&[100]), Arc::clone(&plan));
        assert_eq!(cache.len(), PlanCache::<u8>::CAPACITY);
        assert!(cache.get(&key(&[5])).is_none(), "LRU entry evicted");
        cache.insert(key(&[101]), plan);
        assert!(cache.get(&key(&[PlanCache::<u8>::CAPACITY - 1])).is_none());
        for i in [0, 100, 101] {
            assert!(cache.get(&key(&[i])).is_some());
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache = PlanCache::<u8>::new();
        let plan = fill(&cache);
        cache.insert(key(&[0]), plan);
        assert_eq!(cache.len(), PlanCache::<u8>::CAPACITY);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = PlanCache::<u8>::new();
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        let _ = cache.get(&key(&[2]));
        cache.clear();
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (1, 0));
    }

    #[test]
    fn failed_build_is_not_cached() {
        let cache = PlanCache::<u8>::new();
        let err = cache.get_or_build(key(&[2]), || {
            Err::<DecodePlan<u8>, _>(crate::RepairError::Unrecoverable { needed: 9, rank: 5 })
        });
        assert!(err.is_err());
        assert!(cache.is_empty(), "a failed build must insert nothing");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 0));

        // The next lookup for the same key must build again, not hit.
        let (_, hit) = cache
            .get_or_build(key(&[2]), || Ok::<_, crate::RepairError>(plan_for(&[2])))
            .unwrap();
        assert!(!hit, "an error result must never satisfy a later lookup");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_build_leaves_cache_consistent() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let cache = PlanCache::<u8>::new();
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = cache.get_or_build(
                key(&[6]),
                || -> Result<DecodePlan<u8>, crate::RepairError> {
                    panic!("plan build blew up mid-flight")
                },
            );
        }));
        assert!(result.is_err());
        // No half-built plan is observable and the resident entry survived.
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(&[6])).is_none());
        assert!(cache.get(&key(&[2])).is_some());
        // The cache keeps working after the unwind: the poisoned build
        // lock is stripped, so this build runs fresh instead of blocking
        // on a dead leader.
        let (_, hit) = cache
            .get_or_build(key(&[6]), || Ok::<_, crate::RepairError>(plan_for(&[6])))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_at_capacity_never_victimizes_the_new_entry() {
        let cache = PlanCache::<u8>::new();
        let plan = fill(&cache);
        // Every resident entry is touched after the fill, so the new
        // entry is the only one without a hit.
        for i in 0..PlanCache::<u8>::CAPACITY {
            assert!(cache.get(&key(&[i])).is_some());
        }
        cache.insert(key(&[100]), plan);
        assert_eq!(cache.len(), PlanCache::<u8>::CAPACITY);
        assert!(
            cache.get(&key(&[100])).is_some(),
            "newest entry must survive"
        );
        assert!(cache.get(&key(&[0])).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_cold_misses_build_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;

        const WORKERS: usize = 8;
        let cache = PlanCache::<u8>::new();
        let barrier = Barrier::new(WORKERS);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    barrier.wait();
                    let (plan, _) = cache
                        .get_or_build(key(&[2, 6]), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so followers really
                            // do arrive while the build is in flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, crate::DecodeError>(plan_for(&[2, 6]))
                        })
                        .unwrap();
                    assert_eq!(plan.faulty(), &[2, 6]);
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "single-flight must coalesce concurrent builds of one key"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, (WORKERS - 1) as u64);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn follower_retries_after_leader_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Barrier;

        let cache = PlanCache::<u8>::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _ = cache.get_or_build(
                        key(&[2]),
                        || -> Result<DecodePlan<u8>, crate::RepairError> {
                            barrier.wait();
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("leader died mid-build")
                        },
                    );
                }));
                assert!(result.is_err());
            });
            let follower = scope.spawn(|| {
                barrier.wait();
                // Arrives while the leader is (probably) still building;
                // either way it must end up with a real plan.
                let (plan, _) = cache
                    .get_or_build(key(&[2]), || Ok::<_, crate::RepairError>(plan_for(&[2])))
                    .unwrap();
                assert_eq!(plan.faulty(), &[2]);
            });
            leader.join().unwrap();
            follower.join().unwrap();
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_json_shape() {
        let cache = PlanCache::<u8>::new();
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        let _ = cache.get(&key(&[2]));
        let j = cache.stats().to_json();
        for needle in [
            "\"hits\":1",
            "\"misses\":0",
            "\"coalesced\":0",
            "\"evictions\":0",
            "\"entries\":1",
            "\"capacity\":64",
            "\"hit_rate\":1.0000",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}
