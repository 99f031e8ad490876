//! Runtime decode telemetry: what the executor *actually* did.
//!
//! The planner prices every calculation sequence in predicted
//! `mult_XORs` (§III-B of the paper, [`crate::cost`]); this module holds
//! the executed side of that ledger. [`ExecStats`] is returned by every
//! decode ([`Decoder::decode`](crate::Decoder::decode)) and carries, per
//! sub-plan, the region-operation counts reported by
//! `ppm-gf`'s counted kernels plus wall-clock phase timings — enough to
//! assert `executed == predicted` in tests and to print
//! predicted-vs-executed tables from the CLI and benches.

use crate::cost::CostReport;
use crate::plan::Strategy;
use ppm_gf::RegionStats;
use std::time::Duration;

/// Executed-work tallies for one sub-plan (an independent `Hᵢ` or
/// `H_rest`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubPlanStats {
    /// Sectors this sub-plan recovered.
    pub outputs: usize,
    /// Executed `mult_XORs` (region ops with a non-zero coefficient) —
    /// the paper's cost unit.
    pub mult_xors: u64,
    /// The subset of operations executed as plain region XORs
    /// (coefficient-1 fast path).
    pub plain_xors: u64,
    /// Region bytes processed.
    pub bytes: u64,
    /// Wall time spent running this sub-plan, in nanoseconds.
    pub nanos: u128,
}

impl SubPlanStats {
    pub(crate) fn collect(sink: &RegionStats, outputs: usize, elapsed: Duration) -> Self {
        SubPlanStats {
            outputs,
            mult_xors: sink.mult_xors(),
            plain_xors: sink.plain_xors(),
            bytes: sink.bytes(),
            nanos: elapsed.as_nanos(),
        }
    }
}

/// Telemetry for one verified repair: the surplus-row parity check and
/// any erasure escalation it triggered.
///
/// The verify pass re-evaluates the parity-check rows of `H` that the
/// decode's `F` did *not* consume; its cost model is exact — one
/// `mult_XORs` per non-zero coefficient across the surplus rows — so
/// [`VerifyStats::matches_prediction`] holding is the same
/// executed-equals-predicted invariant the decode ledger asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Surplus parity-check rows available to the first verify pass.
    pub rows_available: usize,
    /// Predicted verify cost: non-zero coefficients summed over those
    /// surplus rows.
    pub predicted_mult_xors: usize,
    /// Executed work of the first verify pass (over the original plan).
    pub first_pass: SubPlanStats,
    /// Extra work done by escalation: re-decodes plus re-verifies,
    /// accumulated across all attempts.
    pub extra: SubPlanStats,
    /// Verification passes run (1 when the first pass was clean).
    pub passes: usize,
    /// Global `H` row indices the *first* pass found violated (empty when
    /// the stripe verified clean immediately).
    pub violated_rows: Vec<usize>,
    /// Escalation decode attempts performed.
    pub escalations: usize,
    /// Sectors escalation identified as silently corrupt and repaired
    /// (empty when no escalation was needed).
    pub located: Vec<usize>,
}

impl VerifyStats {
    /// True when the first verify pass executed exactly the predicted
    /// number of `mult_XORs` — the surplus-row cost model analogue of
    /// [`ExecStats::matches_prediction`].
    pub fn matches_prediction(&self) -> bool {
        self.first_pass.mult_xors == self.predicted_mult_xors as u64
    }

    /// True when the first pass found no violations and nothing was
    /// escalated.
    pub fn clean(&self) -> bool {
        self.violated_rows.is_empty() && self.escalations == 0
    }

    fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        push_kv(&mut out, "rows_available", &self.rows_available.to_string());
        push_kv(
            &mut out,
            "predicted_mult_xors",
            &self.predicted_mult_xors.to_string(),
        );
        push_kv(
            &mut out,
            "executed_mult_xors",
            &self.first_pass.mult_xors.to_string(),
        );
        push_kv(
            &mut out,
            "matches_prediction",
            if self.matches_prediction() {
                "true"
            } else {
                "false"
            },
        );
        push_kv(&mut out, "passes", &self.passes.to_string());
        push_kv(&mut out, "escalations", &self.escalations.to_string());
        let rows: Vec<String> = self.violated_rows.iter().map(|r| r.to_string()).collect();
        push_kv(&mut out, "violated_rows", &format!("[{}]", rows.join(",")));
        let located: Vec<String> = self.located.iter().map(|s| s.to_string()).collect();
        push_kv(&mut out, "located", &format!("[{}]", located.join(",")));
        push_kv(
            &mut out,
            "extra_mult_xors",
            &self.extra.mult_xors.to_string(),
        );
        push_kv(
            &mut out,
            "nanos",
            &(self.first_pass.nanos + self.extra.nanos).to_string(),
        );
        out.pop();
        out.push('}');
        out
    }
}

/// Telemetry for one small-write flush through the session layer.
///
/// A flush settles buffered dirty ranges into a stripe by one of two
/// routes: *delta patching* (per dirty data sector, `Δ = old ⊕ new` is
/// multiplied into every dependent parity —
/// [`RepairService::apply_update`](crate::RepairService::apply_update)) or a
/// *full re-encode* when the stripe is dirty enough that re-deriving all
/// parities is cheaper under the §III-B cost model. Either way the region
/// work lands in the owning [`ExecStats`]'s phase ledger; this struct
/// records which route ran and how much payload it settled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Data sectors the flush wrote (patched or rewritten).
    pub sectors_patched: usize,
    /// Parity-sector region patches applied (0 on the re-encode route,
    /// where every parity is re-derived by the encode plan instead).
    pub parity_patches: usize,
    /// True when the flush chose full-stripe re-encode over delta
    /// patching.
    pub full_reencode: bool,
    /// Dirty payload bytes the flush settled.
    pub dirty_bytes: u64,
}

impl UpdateStats {
    fn to_json(self) -> String {
        format!(
            "{{\"sectors_patched\":{},\"parity_patches\":{},\"full_reencode\":{},\"dirty_bytes\":{}}}",
            self.sectors_patched, self.parity_patches, self.full_reencode, self.dirty_bytes
        )
    }
}

/// Telemetry for one decode.
///
/// Executed counters come from the region kernels themselves
/// ([`ppm_gf::RegionStats`]), so any divergence between what the planner
/// predicted and what the data path ran shows up as a mismatch here
/// rather than silent drift.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Concrete strategy the executed plan used.
    pub strategy: Strategy,
    /// Thread budget `T` of the decoder that ran the plan.
    pub threads: usize,
    /// Degree of parallelism `p` (independent sub-plans in phase A).
    pub parallelism: usize,
    /// The plan's predicted total `mult_XORs` (the chosen sequence's
    /// cost `C`).
    pub predicted_mult_xors: usize,
    /// Predicted `C₁..C₄` of all candidates, when the plan was chosen by
    /// [`Strategy::PpmAuto`].
    pub predicted_costs: Option<CostReport>,
    /// Per-sub-plan executed work for phase A, in plan order: the op
    /// counts of one span, `bytes` and `nanos` summed over spans.
    pub phase_a: Vec<SubPlanStats>,
    /// Phase A's share of the span map's wall time, nanoseconds: the
    /// map's wall time split between the phases in proportion to their
    /// busy time, so `phase_a_nanos + phase_b_nanos()` is the tape's
    /// wall time.
    pub phase_a_nanos: u128,
    /// Executed work of the `H_rest` sub-plan, if the plan has one,
    /// counted like a phase-A entry except that `nanos` is phase B's
    /// share of the span map's wall time.
    pub phase_b: Option<SubPlanStats>,
    /// Wall time of the whole decode call, nanoseconds.
    pub total_nanos: u128,
    /// Surplus-row verification and escalation telemetry, when the decode
    /// went through [`RepairService::repair_verified`](crate::RepairService::repair_verified)
    /// (plain decodes leave this `None`).
    pub verify: Option<VerifyStats>,
    /// Small-write flush telemetry, when the stats describe an update
    /// flush through
    /// [`RepairService::apply_update`](crate::RepairService::apply_update)
    /// or the `ppm-update` engine (decodes leave this `None`).
    pub update: Option<UpdateStats>,
}

impl ExecStats {
    /// Total executed `mult_XORs` across both phases — the number to
    /// compare against [`ExecStats::predicted_mult_xors`].
    pub fn executed_mult_xors(&self) -> u64 {
        self.phase_a.iter().map(|s| s.mult_xors).sum::<u64>()
            + self.phase_b.map_or(0, |s| s.mult_xors)
    }

    /// Total operations executed as plain region XORs.
    pub fn executed_plain_xors(&self) -> u64 {
        self.phase_a.iter().map(|s| s.plain_xors).sum::<u64>()
            + self.phase_b.map_or(0, |s| s.plain_xors)
    }

    /// Total region bytes moved across both phases.
    pub fn bytes_moved(&self) -> u64 {
        self.phase_a.iter().map(|s| s.bytes).sum::<u64>() + self.phase_b.map_or(0, |s| s.bytes)
    }

    /// Phase B's share of the span map's wall time, nanoseconds (0 if
    /// no phase B).
    pub fn phase_b_nanos(&self) -> u128 {
        self.phase_b.map_or(0, |s| s.nanos)
    }

    /// True when the executed `mult_XORs` equal the planner's predicted
    /// cost — the invariant [`crate::cost::analyze`] assumes.
    pub fn matches_prediction(&self) -> bool {
        self.executed_mult_xors() == self.predicted_mult_xors as u64
    }

    /// Thread utilization in `[0, 1]`: phase A's busy time (summed over
    /// spans) divided by its share of the wall time × `T`. Phase A's
    /// share of the wall time is in proportion to its busy time, so this
    /// is the whole decode's busy time over wall time × `T`. `1.0` means
    /// every thread was busy for the whole span map; a decode too small
    /// to cut into spans runs on one thread and reports about `1/T`.
    /// Returns 1.0 for plans with no phase A.
    pub fn thread_utilization(&self) -> f64 {
        if self.phase_a.is_empty() || self.phase_a_nanos == 0 {
            return 1.0;
        }
        let busy: u128 = self.phase_a.iter().map(|s| s.nanos).sum();
        let workers = self.threads.max(1) as u128;
        (busy as f64 / (self.phase_a_nanos * workers) as f64).min(1.0)
    }

    /// Renders the stats as a single JSON object (hand-rolled; the
    /// workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_kv(&mut out, "strategy", &format!("\"{:?}\"", self.strategy));
        push_kv(&mut out, "threads", &self.threads.to_string());
        push_kv(&mut out, "parallelism", &self.parallelism.to_string());
        push_kv(
            &mut out,
            "predicted_mult_xors",
            &self.predicted_mult_xors.to_string(),
        );
        match self.predicted_costs {
            Some(c) => push_kv(
                &mut out,
                "predicted_costs",
                &format!(
                    "{{\"c1\":{},\"c2\":{},\"c3\":{},\"c4\":{}}}",
                    c.c1, c.c2, c.c3, c.c4
                ),
            ),
            None => push_kv(&mut out, "predicted_costs", "null"),
        }
        push_kv(
            &mut out,
            "executed_mult_xors",
            &self.executed_mult_xors().to_string(),
        );
        push_kv(
            &mut out,
            "executed_plain_xors",
            &self.executed_plain_xors().to_string(),
        );
        push_kv(&mut out, "bytes_moved", &self.bytes_moved().to_string());
        push_kv(
            &mut out,
            "matches_prediction",
            if self.matches_prediction() {
                "true"
            } else {
                "false"
            },
        );
        push_kv(
            &mut out,
            "thread_utilization",
            &format!("{:.4}", self.thread_utilization()),
        );
        push_kv(&mut out, "phase_a_nanos", &self.phase_a_nanos.to_string());
        push_kv(&mut out, "phase_b_nanos", &self.phase_b_nanos().to_string());
        push_kv(&mut out, "total_nanos", &self.total_nanos.to_string());
        let subs: Vec<String> = self
            .phase_a
            .iter()
            .map(|s| {
                format!(
                    "{{\"outputs\":{},\"mult_xors\":{},\"plain_xors\":{},\"bytes\":{},\"nanos\":{}}}",
                    s.outputs, s.mult_xors, s.plain_xors, s.bytes, s.nanos
                )
            })
            .collect();
        push_kv(&mut out, "phase_a", &format!("[{}]", subs.join(",")));
        match self.phase_b {
            Some(s) => push_kv(
                &mut out,
                "phase_b",
                &format!(
                    "{{\"outputs\":{},\"mult_xors\":{},\"plain_xors\":{},\"bytes\":{},\"nanos\":{}}}",
                    s.outputs, s.mult_xors, s.plain_xors, s.bytes, s.nanos
                ),
            ),
            None => push_kv(&mut out, "phase_b", "null"),
        }
        match &self.verify {
            Some(v) => push_kv(&mut out, "verify", &v.to_json()),
            None => push_kv(&mut out, "verify", "null"),
        }
        match &self.update {
            Some(u) => push_kv(&mut out, "update", &u.to_json()),
            None => push_kv(&mut out, "update", "null"),
        }
        // Drop the trailing comma push_kv left behind.
        out.pop();
        out.push('}');
        out
    }
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
    out.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecStats {
        ExecStats {
            strategy: Strategy::PpmNormalRest,
            threads: 2,
            parallelism: 3,
            predicted_mult_xors: 29,
            predicted_costs: Some(CostReport {
                c1: 35,
                c2: 31,
                c3: 37,
                c4: 29,
                parallelism: 3,
            }),
            phase_a: vec![
                SubPlanStats {
                    outputs: 1,
                    mult_xors: 4,
                    plain_xors: 1,
                    bytes: 256,
                    nanos: 100,
                },
                SubPlanStats {
                    outputs: 1,
                    mult_xors: 5,
                    plain_xors: 0,
                    bytes: 320,
                    nanos: 150,
                },
            ],
            phase_a_nanos: 150,
            phase_b: Some(SubPlanStats {
                outputs: 2,
                mult_xors: 20,
                plain_xors: 2,
                bytes: 1280,
                nanos: 400,
            }),
            total_nanos: 600,
            verify: None,
            update: None,
        }
    }

    #[test]
    fn totals_sum_phases() {
        let s = sample();
        assert_eq!(s.executed_mult_xors(), 29);
        assert_eq!(s.executed_plain_xors(), 3);
        assert_eq!(s.bytes_moved(), 1856);
        assert!(s.matches_prediction());
        assert_eq!(s.phase_b_nanos(), 400);
    }

    #[test]
    fn utilization_bounds() {
        let s = sample();
        let u = s.thread_utilization();
        // busy = 250, phase-A wall = 150, T = 2 → 250/300.
        assert!((u - 250.0 / 300.0).abs() < 1e-9, "{u}");

        let empty = ExecStats {
            phase_a: Vec::new(),
            phase_a_nanos: 0,
            ..sample()
        };
        assert_eq!(empty.thread_utilization(), 1.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = sample();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"strategy\":\"PpmNormalRest\""), "{j}");
        assert!(j.contains("\"predicted_mult_xors\":29"), "{j}");
        assert!(j.contains("\"executed_mult_xors\":29"), "{j}");
        assert!(j.contains("\"matches_prediction\":true"), "{j}");
        assert!(j.contains("\"c4\":29"), "{j}");
        assert!(!j.contains(",}") && !j.contains(",]"), "{j}");
        // Balanced braces/brackets (no string values contain either).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces: {j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        let none = ExecStats {
            predicted_costs: None,
            phase_b: None,
            ..sample()
        };
        let j = none.to_json();
        assert!(j.contains("\"predicted_costs\":null"), "{j}");
        assert!(j.contains("\"phase_b\":null"), "{j}");
    }

    #[test]
    fn verify_stats_prediction_and_json() {
        let v = VerifyStats {
            rows_available: 3,
            predicted_mult_xors: 12,
            first_pass: SubPlanStats {
                outputs: 0,
                mult_xors: 12,
                plain_xors: 2,
                bytes: 768,
                nanos: 50,
            },
            extra: SubPlanStats::default(),
            passes: 1,
            violated_rows: Vec::new(),
            escalations: 0,
            located: Vec::new(),
        };
        assert!(v.matches_prediction());
        assert!(v.clean());

        let s = ExecStats {
            verify: Some(v.clone()),
            ..sample()
        };
        let j = s.to_json();
        assert!(j.contains("\"verify\":{\"rows_available\":3"), "{j}");
        assert!(j.contains("\"violated_rows\":[]"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        let escalated = VerifyStats {
            violated_rows: vec![1, 4],
            escalations: 2,
            located: vec![7],
            first_pass: SubPlanStats {
                mult_xors: 11,
                ..v.first_pass
            },
            ..v
        };
        assert!(!escalated.matches_prediction());
        assert!(!escalated.clean());
        let j = ExecStats {
            verify: Some(escalated),
            ..sample()
        }
        .to_json();
        assert!(j.contains("\"violated_rows\":[1,4]"), "{j}");
        assert!(j.contains("\"located\":[7]"), "{j}");
        assert!(j.contains("\"escalations\":2"), "{j}");
        assert!(j.contains("\"matches_prediction\":false"), "{j}");
    }

    #[test]
    fn update_stats_json() {
        let s = ExecStats {
            update: Some(UpdateStats {
                sectors_patched: 2,
                parity_patches: 6,
                full_reencode: false,
                dirty_bytes: 96,
            }),
            ..sample()
        };
        let j = s.to_json();
        assert!(j.contains("\"update\":{\"sectors_patched\":2"), "{j}");
        assert!(j.contains("\"parity_patches\":6"), "{j}");
        assert!(j.contains("\"full_reencode\":false"), "{j}");
        assert!(j.contains("\"dirty_bytes\":96"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let j = sample().to_json();
        assert!(j.contains("\"update\":null"), "{j}");
    }
}
