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
//! The cache is a concurrent structure: every method takes `&self`, the
//! key space is split across [`RwLock`]ed shards so warm lookups from
//! different workers take disjoint read locks, and cold builds are
//! **single-flight** — when k workers miss on the same key at once, one
//! becomes the leader and runs the factorization while the other k−1
//! block on the in-flight build and then share its result, instead of
//! duplicating the inversion k times.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::plan::{DecodePlan, Strategy};
use ppm_codes::FailureScenario;
use ppm_gf::GfWord;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Number of independent key-space shards. Eight read-write locks are
/// plenty to keep tens of repair workers from serializing on warm hits,
/// while the cross-shard eviction scan (cold path only) stays trivial.
const SHARD_COUNT: usize = 8;

/// Locks a mutex, recovering the plain data on poison.
///
/// Every value guarded here (shard maps, in-flight markers) is a plain
/// collection with no invariant that a panicking peer could have left
/// half-established, so a poisoned lock is safe to strip: the worst case
/// is a stale in-flight marker, which the owning guard removes on unwind
/// anyway.
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

    /// The shard this key hashes into, for `shard_count` shards.
    fn shard_index(&self, shard_count: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % shard_count
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

/// Point-in-time counters of a [`PlanCache`], carried in
/// [`ExecStats`](crate::ExecStats) so cache behaviour shows up in the
/// same telemetry stream as the §III-B ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (no plan build, no inversion).
    pub hits: u64,
    /// Lookups that had to build (and insert) a plan.
    pub misses: u64,
    /// Lookups that blocked on another worker's in-flight build and then
    /// shared its plan (single-flight coalescing). These also count as
    /// hits: the caller performed no factorization.
    pub coalesced: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Configured capacity bound.
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

struct Entry<W: GfWord> {
    plan: Arc<DecodePlan<W>>,
    /// Global recency tick at last touch. Atomic so a warm hit can bump
    /// recency under the shard's *read* lock — the hit path never takes a
    /// write lock and never scans.
    last_used: AtomicU64,
}

/// Rendezvous point for one in-flight plan build. The leader flips
/// `done` and notifies when the build finishes (successfully or not);
/// followers block until then and re-check the cache.
struct InFlight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = lock_plain(&self.done);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish(&self) {
        *lock_plain(&self.done) = true;
        self.cv.notify_all();
    }
}

struct Shard<W: GfWord> {
    map: RwLock<HashMap<PlanKey, Entry<W>>>,
    /// Keys with a build currently in flight, each with its rendezvous.
    building: Mutex<HashMap<PlanKey, Arc<InFlight>>>,
}

impl<W: GfWord> Default for Shard<W> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            building: Mutex::new(HashMap::new()),
        }
    }
}

/// Removes the in-flight marker and wakes followers when the leader's
/// build scope exits — by success, error return, or panic. Dropping on
/// the unwind path is what keeps a panicking build from wedging every
/// follower forever: they wake, find no plan and no marker, and elect a
/// new leader.
struct FlightGuard<'a, W: GfWord> {
    shard: &'a Shard<W>,
    key: &'a PlanKey,
}

impl<W: GfWord> Drop for FlightGuard<'_, W> {
    fn drop(&mut self) {
        let flight = lock_plain(&self.shard.building).remove(self.key);
        if let Some(flight) = flight {
            flight.finish();
        }
    }
}

/// A bounded, concurrent LRU cache of built decode plans.
///
/// Plans are immutable and `Sync`, so the cache hands out [`Arc`]s; a
/// borrowed plan stays valid even if it is evicted mid-use. All methods
/// take `&self`: the map is sharded across [`RwLock`]s by key hash, warm
/// hits take only a read lock on one shard (recency is an atomic tick, so
/// hits never scan and never write-lock), and cold builds are
/// single-flight per key. Eviction scans for the global minimum recency,
/// which is O(capacity) — capacities here are tens of entries (distinct
/// erasure patterns under repair), not millions, and the scan is only
/// paid on insert-at-capacity, right after a full matrix factorization
/// that dwarfs it.
pub struct PlanCache<W: GfWord> {
    shards: Box<[Shard<W>]>,
    capacity: usize,
    /// Resident entries across all shards.
    len: AtomicUsize,
    /// Global recency clock; each touch takes the next tick.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl<W: GfWord> PlanCache<W> {
    /// Default capacity used by [`PlanCache::with_default_capacity`] and
    /// the session layer: comfortably above the distinct erasure patterns
    /// of any device-repair job (one pattern repeated per stripe) while
    /// bounding memory for degraded-read floods.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a cache that can hold nothing would
    /// silently turn every lookup into a rebuild; disable caching by not
    /// using a cache instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        let shards = (0..SHARD_COUNT).map(|_| Shard::default()).collect();
        PlanCache {
            shards,
            capacity,
            len: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a cache with [`PlanCache::DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    fn shard_for(&self, key: &PlanKey) -> &Shard<W> {
        let index = key.shard_index(self.shards.len());
        self.shards
            .get(index)
            .unwrap_or_else(|| unreachable!("shard index is reduced modulo shard count"))
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up `key` without touching the hit/miss counters, bumping its
    /// recency on success. This is the shared warm path: one shard read
    /// lock, one atomic store.
    fn peek(&self, shard: &Shard<W>, key: &PlanKey) -> Option<Arc<DecodePlan<W>>> {
        let map = shard.map.read().unwrap_or_else(PoisonError::into_inner);
        map.get(key).map(|entry| {
            entry.last_used.store(self.next_tick(), Ordering::Relaxed);
            Arc::clone(&entry.plan)
        })
    }

    /// Looks up `key`, counting a hit or miss, and bumps its recency.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<DecodePlan<W>>> {
        match self.peek(self.shard_for(key), key) {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a plan under `key`, evicting the least-recently-used
    /// entry if the cache is over capacity. Does not touch the hit/miss
    /// counters (pair with [`PlanCache::get`], or use
    /// [`PlanCache::get_or_build`]).
    ///
    /// Insertion compiles the plan's instruction tape
    /// ([`DecodePlan::ensure_tape`]): the lowering is matrix-free
    /// bookkeeping that belongs with the one-time plan cost, so every
    /// warm hit finds the tape ready and pays pure region arithmetic.
    pub fn insert(&self, key: PlanKey, plan: Arc<DecodePlan<W>>) {
        plan.ensure_tape();
        let shard = self.shard_for(&key);
        let entry = Entry {
            plan,
            last_used: AtomicU64::new(self.next_tick()),
        };
        let fresh = {
            let mut map = shard.map.write().unwrap_or_else(PoisonError::into_inner);
            map.insert(key, entry).is_none()
        };
        // Evict only after the new plan is resident: the cache can
        // momentarily hold capacity+1 entries, but never loses an entry
        // without gaining one, and the brand-new entry carries the
        // freshest tick so the LRU scan cannot victimize it.
        if fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
            self.evict_over_capacity();
        }
    }

    /// Evicts globally-least-recently-used entries until the resident
    /// count is back within capacity. Cold path only (runs after an
    /// insert that grew the cache past its bound).
    fn evict_over_capacity(&self) {
        while self.len.load(Ordering::Relaxed) > self.capacity {
            let mut victim: Option<(usize, PlanKey, u64)> = None;
            for (index, shard) in self.shards.iter().enumerate() {
                let map = shard.map.read().unwrap_or_else(PoisonError::into_inner);
                let mut oldest: Option<(&PlanKey, u64)> = None;
                for (key, entry) in map.iter() {
                    let used = entry.last_used.load(Ordering::Relaxed);
                    if oldest.is_none_or(|(_, best)| used < best) {
                        oldest = Some((key, used));
                    }
                }
                // Clone a key only for a shard's oldest entry, and only
                // when it beats every earlier shard's.
                if let Some((key, used)) = oldest {
                    if victim.as_ref().is_none_or(|(_, _, best)| used < *best) {
                        victim = Some((index, key.clone(), used));
                    }
                }
            }
            let Some((index, key, _)) = victim else {
                // Counter raced ahead of the maps; nothing left to evict.
                break;
            };
            let Some(shard) = self.shards.get(index) else {
                break;
            };
            // The evicted plan (its kernels and tape) is freed after the
            // write guard is released, not under it.
            let removed = {
                let mut map = shard.map.write().unwrap_or_else(PoisonError::into_inner);
                map.remove(&key)
            };
            if removed.is_some() {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            drop(removed);
            // If another worker evicted the same key first, loop and
            // re-scan; the while condition re-checks the bound either way.
        }
    }

    /// The cached plan for `key`, building and inserting it on a miss.
    /// Returns the plan together with `true` on a hit, `false` when
    /// `build` ran. A failed build inserts nothing (and still counts as
    /// a miss — the lookup did not find a plan).
    ///
    /// Builds are **single-flight**: when several workers miss on the
    /// same key concurrently, exactly one runs `build` while the rest
    /// block on the in-flight marker, then share the finished plan
    /// (counted as a hit plus a `coalesced` tick). If the leader's build
    /// fails or panics, waiters wake, find neither plan nor marker, and
    /// elect a new leader with their own `build` closure — an error poisons
    /// nothing and is never served to later lookups.
    pub fn get_or_build<E>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<DecodePlan<W>, E>,
    ) -> Result<(Arc<DecodePlan<W>>, bool), E> {
        let shard = self.shard_for(&key);
        let mut waited = false;
        loop {
            if let Some(plan) = self.peek(shard, &key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok((plan, true));
            }
            // Contend for build leadership.
            let flight = {
                let mut building = lock_plain(&shard.building);
                // Re-check under the build lock: a leader may have
                // published between our peek and this lock.
                if let Some(plan) = self.peek(shard, &key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((plan, true));
                }
                match building.get(&key) {
                    Some(flight) => Some(Arc::clone(flight)),
                    None => {
                        building.insert(key.clone(), Arc::new(InFlight::new()));
                        None
                    }
                }
            };
            if let Some(flight) = flight {
                // Follower: block on the leader, then re-check the map.
                flight.wait();
                waited = true;
                continue;
            }
            // Leader: build outside every lock. The guard removes the
            // marker and wakes followers however this scope exits.
            self.misses.fetch_add(1, Ordering::Relaxed);
            let _guard = FlightGuard { shard, key: &key };
            let plan = Arc::new(build()?);
            self.insert(key.clone(), Arc::clone(&plan));
            return Ok((plan, false));
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident plan, keeping the cumulative counters.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut map = shard.map.write().unwrap_or_else(PoisonError::into_inner);
            let removed = map.len();
            map.clear();
            self.len.fetch_sub(removed, Ordering::Relaxed);
        }
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
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
        let cache = PlanCache::<u8>::new(4);
        assert!(cache.get(&key(&[2])).is_none());
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        assert!(cache.get(&key(&[2])).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (1, 1, 1, 4));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_or_build_builds_once() {
        let cache = PlanCache::<u8>::new(4);
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
        let cache = PlanCache::<u8>::new(2);
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        cache.insert(key(&[6]), Arc::new(plan_for(&[6])));
        // Touch [2] so [6] becomes the LRU victim.
        assert!(cache.get(&key(&[2])).is_some());
        cache.insert(key(&[10]), Arc::new(plan_for(&[10])));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(&[2])).is_some());
        assert!(cache.get(&key(&[6])).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(&[10])).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache = PlanCache::<u8>::new(1);
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = PlanCache::<u8>::new(2);
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        let _ = cache.get(&key(&[2]));
        cache.clear();
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (1, 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PlanCache::<u8>::new(0);
    }

    #[test]
    fn failed_build_is_not_cached() {
        let cache = PlanCache::<u8>::new(4);
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

        let cache = PlanCache::<u8>::new(2);
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
        // The cache keeps working after the unwind: the in-flight marker
        // was removed by the leader's guard, so this build runs fresh
        // instead of blocking on a dead leader.
        let (_, hit) = cache
            .get_or_build(key(&[6]), || Ok::<_, crate::RepairError>(plan_for(&[6])))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_at_capacity_never_victimizes_the_new_entry() {
        let cache = PlanCache::<u8>::new(1);
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        cache.insert(key(&[6]), Arc::new(plan_for(&[6])));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(&[6])).is_some(), "newest entry must survive");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_is_lru_across_shards() {
        // Keys hash to arbitrary shards, so a capacity-3 cache filled
        // with four keys must evict the globally least-recently-used one
        // no matter which shard it landed in.
        let cache = PlanCache::<u8>::new(3);
        for faulty in [[2usize], [6], [10]] {
            cache.insert(key(&faulty), Arc::new(plan_for(&faulty)));
        }
        // Refresh [2] and [6]; [10] is now the global LRU.
        assert!(cache.get(&key(&[2])).is_some());
        assert!(cache.get(&key(&[6])).is_some());
        cache.insert(key(&[14]), Arc::new(plan_for(&[14])));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key(&[10])).is_none(), "global LRU evicted");
        for faulty in [[2usize], [6], [14]] {
            assert!(cache.get(&key(&faulty)).is_some());
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_cold_misses_build_once() {
        use std::sync::Barrier;

        const WORKERS: usize = 8;
        let cache = PlanCache::<u8>::new(4);
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

        let cache = PlanCache::<u8>::new(4);
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
        let cache = PlanCache::<u8>::new(3);
        cache.insert(key(&[2]), Arc::new(plan_for(&[2])));
        let _ = cache.get(&key(&[2]));
        let j = cache.stats().to_json();
        for needle in [
            "\"hits\":1",
            "\"misses\":0",
            "\"coalesced\":0",
            "\"evictions\":0",
            "\"entries\":1",
            "\"capacity\":3",
            "\"hit_rate\":1.0000",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}
