//! The planning half of the planner/executor split: owns the code, the
//! parity-check matrix, and the plan cache — and never touches stripe
//! data.
//!
//! A [`Planner`] turns failure scenarios into plans: cached
//! [`DecodePlan`]s for in-process execution ([`Planner::plan_for`]) and
//! serializable [`WirePlan`]s for execution elsewhere
//! ([`Planner::wire_plan_for`]). It is the half of
//! [`RepairService`](crate::RepairService) that a cluster coordinator
//! keeps: plans travel to the data, the data stays put.

use crate::cache::{PlanCache, PlanCacheStats, PlanKey};
use crate::plan::{DecodePlan, Strategy};
use crate::wire::WirePlan;
use crate::DecodeError;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::{Backend, GfWord};
use ppm_matrix::Matrix;
use std::sync::Arc;

/// The planning half of a repair session: code, parity-check matrix,
/// strategy, and the one-lock [`PlanCache`] with its single-flight
/// builds. Every entry point takes `&self`; the planner is `Sync` and
/// shareable like the service it came out of.
pub struct Planner<W: GfWord, C: ErasureCode<W>> {
    code: C,
    code_id: Arc<str>,
    h: Matrix<W>,
    cache: PlanCache<W>,
    strategy: Strategy,
    backend: Backend,
    /// The code's declared erasure budget
    /// ([`ErasureCode::fault_tolerance`]), captured once.
    tolerance: usize,
}

impl<W: GfWord, C: ErasureCode<W>> Planner<W, C> {
    /// Creates a planner for `code` building plans for `backend`, with
    /// [`Strategy::PpmAuto`] and an empty cache of
    /// [`PlanCache::CAPACITY`] plans.
    pub fn new(code: C, backend: Backend) -> Self {
        let code_id: Arc<str> = Arc::from(code.cache_id());
        let h = code.parity_check_matrix();
        let tolerance = code.fault_tolerance();
        Planner {
            code,
            code_id,
            h,
            cache: PlanCache::new(),
            strategy: Strategy::PpmAuto,
            backend,
            tolerance,
        }
    }

    /// Sets the strategy requested for every plan this planner builds
    /// (part of the cache key).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The code this planner plans for.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// The code's structural cache identity (see
    /// [`ErasureCode::cache_id`]).
    pub fn code_id(&self) -> &str {
        &self.code_id
    }

    /// The parity-check matrix, captured at construction.
    pub(crate) fn h(&self) -> &Matrix<W> {
        &self.h
    }

    /// The plan cache itself (facade plumbing).
    pub(crate) fn cache(&self) -> &PlanCache<W> {
        &self.cache
    }

    /// The strategy requested for plan builds.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The backend plans are built (and kernels priced) for.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The escalation budget: the code's declared
    /// [`ErasureCode::fault_tolerance`].
    pub fn fault_tolerance(&self) -> usize {
        self.tolerance
    }

    /// Cumulative plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// Drops every cached plan, keeping the cumulative counters.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The cache key this planner files `scenario` under — its stable
    /// `Display` form is how coordinator logs and cluster messages name
    /// the plan.
    pub fn plan_key(&self, scenario: &FailureScenario) -> PlanKey {
        PlanKey::new(Arc::clone(&self.code_id), W::WIDTH, scenario, self.strategy)
    }

    /// The planner's plan for `scenario`: cached when seen before (in
    /// any faulty-column order), built and cached otherwise. Returns the
    /// plan and whether the lookup hit. Concurrent callers missing on
    /// the same cold key build the plan once (single-flight).
    pub fn plan_for(
        &self,
        scenario: &FailureScenario,
    ) -> Result<(Arc<DecodePlan<W>>, bool), DecodeError> {
        let key = self.plan_key(scenario);
        let (h, backend, strategy) = (&self.h, self.backend, self.strategy);
        self.cache
            .get_or_build(key, || DecodePlan::build(h, scenario, strategy, backend))
    }

    /// The serializable form of the plan for `scenario`: the compiled
    /// tape's instruction segments, kernel constants, scratch layout,
    /// and verify rows, ready to [`encode`](WirePlan::encode) and send
    /// to wherever the sectors live. Returns the wire plan and whether
    /// the underlying cache lookup hit — a coordinator sends the bytes
    /// once per (worker, key) and names the plan by its
    /// [`PlanKey`] thereafter.
    pub fn wire_plan_for(
        &self,
        scenario: &FailureScenario,
    ) -> Result<(WirePlan, bool), DecodeError> {
        let (plan, hit) = self.plan_for(scenario)?;
        Ok((WirePlan::from_plan(&plan), hit))
    }
}

impl<W: GfWord, C: ErasureCode<W>> std::fmt::Debug for Planner<W, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("code", &self.code_id)
            .field("strategy", &self.strategy)
            .field("cache", &self.cache)
            .finish()
    }
}
