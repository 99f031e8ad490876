//! Decode plans: the matrix work of decoding, done once per failure
//! scenario and reusable across stripes.
//!
//! A [`DecodePlan`] captures Steps 1–3 of both the traditional method and
//! PPM (derive/partition `H`, extract `F` and `S`, invert, choose a
//! calculation sequence) as straight-line *programs* of `mult_XORs`
//! region operations. Executing a plan (see [`Decoder`](crate::Decoder))
//! touches only sector buffers — mirroring the paper's observation that
//! the matrix manipulation is negligible next to the region arithmetic
//! (footnote 2), so the plan may be amortized or rebuilt per decode
//! without affecting the comparison.

use crate::{DecodeError, Partition};
use ppm_codes::FailureScenario;
use ppm_gf::{Backend, GfWord, RegionMul};
use ppm_matrix::Matrix;
use std::sync::{Arc, OnceLock};

/// The two orders in which `F⁻¹ · S · BS` can be evaluated (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CalcSequence {
    /// *Normal sequence*: compute `T = S · BS` first, then `F⁻¹ · T`.
    /// Costs `u(F⁻¹) + u(S)` mult_XORs.
    Normal,
    /// *Matrix-first sequence*: form `G = F⁻¹ · S` (cheap matrix×matrix),
    /// then `G · BS`. Costs `u(F⁻¹ · S)` mult_XORs. Equivalent to the
    /// generator-matrix method.
    MatrixFirst,
}

/// A decoding strategy, named by the cost term of paper §III-B it incurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Traditional decoding, normal sequence — cost `C₁`, no parallelism.
    /// This is what the open-source SD coder does.
    TraditionalNormal,
    /// Traditional decoding, matrix-first sequence — cost `C₂`, no
    /// parallelism.
    TraditionalMatrixFirst,
    /// PPM partition; matrix-first for the independent sub-matrices *and*
    /// for `H_rest` — cost `C₃`.
    PpmMatrixFirstRest,
    /// PPM partition; matrix-first for the independent sub-matrices,
    /// normal sequence for `H_rest` — cost `C₄`, the paper's usual choice.
    PpmNormalRest,
    /// Evaluate `C₁..C₄` for the concrete scenario and take the cheapest
    /// plan (preferring the partitioned ones on ties, for their
    /// parallelism). This is the full PPM algorithm.
    PpmAuto,
}

impl Strategy {
    /// All concrete (non-auto) strategies, in the cost-model order
    /// `C₁, C₂, C₃, C₄`.
    pub const CONCRETE: [Strategy; 4] = [
        Strategy::TraditionalNormal,
        Strategy::TraditionalMatrixFirst,
        Strategy::PpmMatrixFirstRest,
        Strategy::PpmNormalRest,
    ];

    /// The strategy's stable wire/display name. These strings are part of
    /// the serialized [`PlanKey`](crate::PlanKey) form and of cluster
    /// messages, so they must never change for an existing variant.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::TraditionalNormal => "traditional-normal",
            Strategy::TraditionalMatrixFirst => "traditional-matrix-first",
            Strategy::PpmMatrixFirstRest => "ppm-matrix-first-rest",
            Strategy::PpmNormalRest => "ppm-normal-rest",
            Strategy::PpmAuto => "ppm-auto",
        }
    }

    /// Parses a [`Strategy::name`] back into the strategy.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::CONCRETE
            .into_iter()
            .chain([Strategy::PpmAuto])
            .find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::from_name(s).ok_or(())
    }
}

/// A straight-line region program recovering some faulty sectors.
#[derive(Clone, Debug)]
pub(crate) enum Program<W: GfWord> {
    /// `BF_f = Σ_j G[f,j] · BS_j` directly into each output.
    MatrixFirst {
        /// Per faulty sector: `(sector, [(coeff, source sector)])`.
        outputs: Vec<(usize, Vec<(W, usize)>)>,
    },
    /// `T_e = Σ_j S[e,j] · BS_j`, then `BF_f = Σ_e F⁻¹[f,e] · T_e`.
    Normal {
        /// Per selected equation: terms over stripe sectors.
        t_terms: Vec<Vec<(W, usize)>>,
        /// Per faulty sector: `(sector, [(coeff, scratch index)])`.
        f_terms: Vec<(usize, Vec<(W, usize)>)>,
    },
}

impl<W: GfWord> Program<W> {
    /// Number of mult_XORs the program performs (the paper's `C` for this
    /// sub-matrix).
    pub(crate) fn mult_xors(&self) -> usize {
        match self {
            Program::MatrixFirst { outputs } => outputs.iter().map(|(_, t)| t.len()).sum(),
            Program::Normal { t_terms, f_terms } => {
                t_terms.iter().map(Vec::len).sum::<usize>()
                    + f_terms.iter().map(|(_, t)| t.len()).sum::<usize>()
            }
        }
    }

    /// The faulty sectors this program writes.
    pub(crate) fn output_sectors(&self) -> impl Iterator<Item = usize> + '_ {
        let outs: &[(usize, Vec<(W, usize)>)] = match self {
            Program::MatrixFirst { outputs } => outputs,
            Program::Normal { f_terms, .. } => f_terms,
        };
        outs.iter().map(|(s, _)| *s)
    }

    /// Every stripe sector the program reads.
    pub(crate) fn stripe_sources(&self) -> impl Iterator<Item = usize> + '_ {
        let reads: &[Vec<(W, usize)>] = match self {
            Program::MatrixFirst { .. } => &[],
            Program::Normal { t_terms, .. } => t_terms,
        };
        let direct = match self {
            Program::MatrixFirst { outputs } => Some(outputs),
            Program::Normal { .. } => None,
        };
        reads.iter().flatten().map(|(_, src)| *src).chain(
            direct
                .into_iter()
                .flatten()
                .flat_map(|(_, t)| t.iter().map(|(_, s)| *s)),
        )
    }

    /// A copy of the program producing only the `keep` output sectors
    /// (dead scratch regions are dropped and re-indexed).
    pub(crate) fn prune_outputs(&self, keep: &std::collections::BTreeSet<usize>) -> Program<W> {
        match self {
            Program::MatrixFirst { outputs } => Program::MatrixFirst {
                outputs: outputs
                    .iter()
                    .filter(|(s, _)| keep.contains(s))
                    .cloned()
                    .collect(),
            },
            Program::Normal { t_terms, f_terms } => {
                let f_kept: Vec<(usize, Vec<(W, usize)>)> = f_terms
                    .iter()
                    .filter(|(s, _)| keep.contains(s))
                    .cloned()
                    .collect();
                // Scratch regions still referenced, in ascending order; a
                // region's new index is its position in this list.
                let used: Vec<usize> = {
                    let mut u: Vec<usize> = f_kept
                        .iter()
                        .flat_map(|(_, t)| t.iter().map(|(_, e)| *e))
                        .collect();
                    u.sort_unstable();
                    u.dedup();
                    u
                };
                Program::Normal {
                    t_terms: used
                        .iter()
                        .map(|&e| t_terms.get(e).cloned().unwrap_or_default())
                        .collect(),
                    f_terms: f_kept
                        .into_iter()
                        .map(|(s, terms)| {
                            let terms = terms
                                .into_iter()
                                .filter_map(|(c, e)| Some((c, used.binary_search(&e).ok()?)))
                                .collect();
                            (s, terms)
                        })
                        .collect(),
                }
            }
        }
    }

    fn coefficients(&self) -> impl Iterator<Item = W> + '_ {
        let (a, b): (&[Vec<(W, usize)>], Option<_>) = match self {
            Program::MatrixFirst { outputs } => (&[], Some(outputs)),
            Program::Normal { t_terms, f_terms } => (t_terms.as_slice(), Some(f_terms)),
        };
        a.iter().flatten().map(|(c, _)| *c).chain(
            b.into_iter()
                .flatten()
                .flat_map(|(_, t)| t.iter().map(|(c, _)| *c)),
        )
    }
}

/// One sub-matrix's worth of work (an independent `Hᵢ` or `H_rest`).
#[derive(Clone, Debug)]
pub(crate) struct SubPlan<W: GfWord> {
    pub(crate) program: Program<W>,
}

/// Precomputed [`RegionMul`] per distinct coefficient of a plan's decode
/// programs.
///
/// Kernels are held behind `Arc` so derived plans ([`DecodePlan::
/// restrict_to`]), compiled tapes ([`crate::tape::PlanTape`]) and the
/// verify runs a plan lowers on its first verify
/// ([`DecodePlan::verify_runs`]) share the plan's multiplication tables
/// instead of rebuilding them. Surplus-row constants the decode does not
/// use are not here: they get their kernels only when the plan verifies.
#[derive(Debug)]
pub(crate) struct RegionCache<W: GfWord> {
    /// One kernel per distinct coefficient, sorted by coefficient.
    kernels: Vec<(W, Arc<RegionMul<W>>)>,
    backend: Backend,
}

impl<W: GfWord> RegionCache<W> {
    /// One kernel per distinct coefficient among `coeffs` (which may
    /// repeat).
    pub(crate) fn build(coeffs: Vec<W>, backend: Backend) -> Self {
        let empty = RegionCache {
            kernels: Vec::new(),
            backend,
        };
        empty.share(coeffs)
    }

    fn find(&self, c: W) -> Option<&Arc<RegionMul<W>>> {
        let i = self.kernels.binary_search_by_key(&c, |(k, _)| *k).ok()?;
        self.kernels.get(i).map(|(_, kernel)| kernel)
    }

    /// A cache for `coeffs`, sharing this cache's kernels where it has
    /// them and building the rest: a restricted plan's coefficients all
    /// come from parent programs, so restriction never rebuilds a table
    /// the parent already owns, and a verify lowering builds only the
    /// surplus constants the decode lacks.
    pub(crate) fn share(&self, mut coeffs: Vec<W>) -> Self {
        coeffs.sort_unstable();
        coeffs.dedup();
        let kernels = coeffs.into_iter().map(|c| (c, self.get_arc(c))).collect();
        RegionCache {
            kernels,
            backend: self.backend,
        }
    }

    /// A shared handle to the multiplier for `c` — the tape compiler
    /// embeds these in its instructions. A coefficient the cache lacks is
    /// built fresh rather than panicking.
    pub(crate) fn get_arc(&self, c: W) -> Arc<RegionMul<W>> {
        match self.find(c) {
            Some(kernel) => Arc::clone(kernel),
            // Checked construction: each multiplier probes its dispatched
            // kernel against the scalar reference once (at plan build,
            // not per region op) and demotes itself to scalar on a
            // mismatch, so a faulty SIMD unit degrades throughput instead
            // of bytes.
            None => Arc::new(RegionMul::new_checked(c, self.backend)),
        }
    }
}

/// A complete, executable decoding plan for one failure scenario.
///
/// Build with [`DecodePlan::build`] (or via
/// [`Decoder::plan`](crate::Decoder::plan)), execute with
/// [`Decoder::decode`](crate::Decoder::decode). The plan is immutable and
/// `Sync`; one plan can decode any number of stripes of the same geometry.
#[derive(Debug)]
pub struct DecodePlan<W: GfWord> {
    pub(crate) phase_a: Vec<SubPlan<W>>,
    pub(crate) phase_b: Option<SubPlan<W>>,
    pub(crate) regions: RegionCache<W>,
    total_sectors: usize,
    faulty: Vec<usize>,
    strategy: Strategy,
    backend: Backend,
    cost: usize,
    /// `C₁..C₄` of every candidate sequence, captured when the plan was
    /// chosen by [`Strategy::PpmAuto`] (which prices all four as
    /// programs before materializing the winner). `None` for plans built
    /// with a concrete strategy or derived by [`DecodePlan::restrict_to`].
    predicted: Option<crate::cost::CostReport>,
    /// Surplus parity-check rows: `(global H row, non-zero terms over all
    /// stripe sectors)` for every row of `H` the plan's sub-systems did
    /// *not* consume as part of `F`. The decode satisfies its consumed
    /// rows by construction, so re-evaluating these is an independent
    /// detector of corrupt surviving inputs. `None` for restricted plans
    /// (they do not materialize the full stripe, so no full parity
    /// equation can be checked).
    pub(crate) surplus: Option<Vec<SurplusRow<W>>>,
    /// Lazily compiled linear instruction tape (see [`crate::tape`]).
    /// Filled at most once; [`PlanCache`](crate::PlanCache) compiles it
    /// at insert time so warm hits execute pure region arithmetic. Its
    /// verify section is lowered separately, on the first verify
    /// ([`DecodePlan::verify_runs`]).
    pub(crate) tape: OnceLock<crate::tape::PlanTape<W>>,
}

/// One surplus parity-check row: its global `H` row index and the
/// non-zero `(coefficient, sector)` terms of its check equation.
pub(crate) type SurplusRow<W> = (usize, Vec<(W, usize)>);

impl<W: GfWord> DecodePlan<W> {
    /// Builds a plan for recovering `scenario` under parity-check matrix
    /// `h`, using `strategy` and preparing region tables for `backend`.
    pub fn build(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
        backend: Backend,
    ) -> Result<DecodePlan<W>, DecodeError> {
        Self::build_with(h, scenario, strategy, backend, None)
    }

    /// Like [`DecodePlan::build`], but partitions with the SD-specific
    /// Algorithm 1 shortcut ([`Partition::build_sd`]) instead of the
    /// general footprint scan. Produces an equivalent plan; only the
    /// partitioning bookkeeping is cheaper.
    pub fn build_sd(
        code: &ppm_codes::SdCode<W>,
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
        backend: Backend,
    ) -> Result<DecodePlan<W>, DecodeError> {
        if let Some(&bad) = scenario.faulty().iter().find(|&&s| s >= h.cols()) {
            return Err(DecodeError::SectorOutOfRange {
                sector: bad,
                total: h.cols(),
            });
        }
        let part = Partition::build_sd(code, h, scenario);
        Self::build_with(h, scenario, strategy, backend, Some(&part))
    }

    fn build_with(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
        backend: Backend,
        precomputed: Option<&Partition>,
    ) -> Result<DecodePlan<W>, DecodeError> {
        if let Some(&bad) = scenario.faulty().iter().find(|&&s| s >= h.cols()) {
            return Err(DecodeError::SectorOutOfRange {
                sector: bad,
                total: h.cols(),
            });
        }

        let faulty = scenario.faulty().to_vec();
        let (strategy, programs, predicted) = match strategy {
            _ if faulty.is_empty() => {
                // Nothing to recover: every candidate costs 0, so the
                // sequence optimization keeps the first one it prices, C₄.
                let none = Programs {
                    phase_a: Vec::new(),
                    phase_b: None,
                    consumed: Vec::new(),
                };
                match strategy {
                    Strategy::PpmAuto => {
                        let zero = crate::cost::CostReport {
                            c1: 0,
                            c2: 0,
                            c3: 0,
                            c4: 0,
                            parallelism: 0,
                        };
                        (Strategy::PpmNormalRest, none, Some(zero))
                    }
                    concrete => (concrete, none, None),
                }
            }
            Strategy::TraditionalNormal | Strategy::TraditionalMatrixFirst => {
                let sys = SolvedSystem::traditional(h, scenario)?;
                let program = sys.program(sequence_of(strategy));
                (strategy, Programs::traditional(program, sys.rows), None)
            }
            Strategy::PpmMatrixFirstRest | Strategy::PpmNormalRest => {
                let ppm = Partitioned::build(h, scenario, precomputed)?;
                let rest = ppm.rest.as_ref().map(|r| r.program(sequence_of(strategy)));
                (strategy, ppm.with_rest(rest), None)
            }
            Strategy::PpmAuto => {
                // The paper's sequence optimization: price C₁..C₄ as
                // programs and keep the cheapest. Each system is
                // eliminated once — the partition and phase A serve C₃
                // and C₄, one factorization of H_rest emits both of their
                // rest programs, one of the traditional system emits C₁
                // and C₂ — and only the winner gets kernels and surplus
                // rows. The partitioned candidates are priced first, so
                // an unrecoverable pattern reports their error.
                let ppm = Partitioned::build(h, scenario, precomputed)?;
                let trad = SolvedSystem::traditional(h, scenario)?;
                let rest_normal = ppm.rest.as_ref().map(|r| r.program(CalcSequence::Normal));
                let rest_first = ppm
                    .rest
                    .as_ref()
                    .map(|r| r.program(CalcSequence::MatrixFirst));
                let trad_normal = trad.program(CalcSequence::Normal);
                let trad_first = trad.program(CalcSequence::MatrixFirst);
                let phase_a_cost: usize = ppm.phase_a.iter().map(Program::mult_xors).sum();
                let rest_cost = |p: &Option<Program<W>>| p.as_ref().map_or(0, Program::mult_xors);
                let report = crate::cost::CostReport {
                    c1: trad_normal.mult_xors(),
                    c2: trad_first.mult_xors(),
                    c3: phase_a_cost + rest_cost(&rest_first),
                    c4: phase_a_cost + rest_cost(&rest_normal),
                    parallelism: ppm.phase_a.len(),
                };
                // Ties go to the partitioned plans, for their parallelism.
                let (winner, _) = report.best();
                let programs = match winner {
                    Strategy::TraditionalNormal => Programs::traditional(trad_normal, trad.rows),
                    Strategy::TraditionalMatrixFirst => {
                        Programs::traditional(trad_first, trad.rows)
                    }
                    Strategy::PpmMatrixFirstRest => ppm.with_rest(rest_first),
                    _ => ppm.with_rest(rest_normal),
                };
                (winner, programs, Some(report))
            }
        };
        Ok(Self::materialize(
            h, faulty, programs, strategy, backend, predicted,
        ))
    }

    /// Turns the chosen programs into an executable plan: the surplus
    /// rows (every parity equation the programs do not consume, as terms)
    /// and one checked kernel per distinct coefficient of the programs.
    /// The surplus rows' kernels wait for the plan's first verify
    /// ([`DecodePlan::verify_runs`]): a plain repair never runs them.
    fn materialize(
        h: &Matrix<W>,
        faulty: Vec<usize>,
        Programs {
            phase_a,
            phase_b,
            consumed,
        }: Programs<W>,
        strategy: Strategy,
        backend: Backend,
        predicted: Option<crate::cost::CostReport>,
    ) -> DecodePlan<W> {
        // Surplus rows: every parity equation the decode did not consume,
        // with its non-zero terms over the full stripe. An empty scenario
        // leaves all of H surplus — verification degenerates to the full
        // parity-consistency check.
        let mut used = vec![false; h.rows()];
        for r in consumed {
            if let Some(u) = used.get_mut(r) {
                *u = true;
            }
        }
        let surplus: Vec<SurplusRow<W>> = used
            .iter()
            .enumerate()
            .filter(|(_, &u)| !u)
            .map(|(r, _)| (r, nonzero_terms(h.row(r), 0..)))
            .collect();

        let phase_a: Vec<SubPlan<W>> = phase_a
            .into_iter()
            .map(|program| SubPlan { program })
            .collect();
        let phase_b = phase_b.map(|program| SubPlan { program });
        let cost = phase_a.iter().map(|s| s.program.mult_xors()).sum::<usize>()
            + phase_b.as_ref().map_or(0, |s| s.program.mult_xors());
        let coeffs = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(|s| s.program.coefficients())
            .collect();
        DecodePlan {
            phase_a,
            phase_b,
            regions: RegionCache::build(coeffs, backend),
            total_sectors: h.cols(),
            faulty,
            strategy,
            backend,
            cost,
            predicted,
            surplus: Some(surplus),
            tape: OnceLock::new(),
        }
    }

    /// Derives a *degraded-read* plan recovering only the `wanted` faulty
    /// sectors (plus whatever intermediate blocks they transitively need).
    ///
    /// PPM's partition makes the dependency structure explicit: an
    /// independent sub-matrix is kept only if it recovers a wanted sector
    /// or produces an input of the (pruned) remaining sub-matrix; within
    /// every kept program, outputs for unwanted sectors are dropped.
    /// For an LRC single-block degraded read this collapses the plan to
    /// one local-group repair — the scenario the paper's introduction
    /// motivates ("local parity to reduce disk I/O … and degraded read
    /// latency").
    ///
    /// Decoding the restricted plan writes only the retained sectors;
    /// other faulty sectors stay erased.
    ///
    /// ```
    /// use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    /// use ppm_core::{DecodePlan, Strategy};
    /// use ppm_gf::Backend;
    ///
    /// // The paper's example: b2 is independent, b13 depends on everything.
    /// let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    /// let h = code.parity_check_matrix();
    /// let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    /// let full = DecodePlan::build(&h, &scenario, Strategy::PpmNormalRest,
    ///                              Backend::Scalar).unwrap();
    /// let read_b2 = full.restrict_to(&[2]);
    /// assert_eq!(read_b2.mult_xors(), 3);      // one 1x1 local repair
    /// let read_b13 = full.restrict_to(&[13]);
    /// assert!(read_b13.mult_xors() < full.mult_xors());
    /// ```
    pub fn restrict_to(&self, wanted: &[usize]) -> DecodePlan<W> {
        let wanted: std::collections::BTreeSet<usize> = wanted
            .iter()
            .copied()
            .filter(|s| self.faulty.binary_search(s).is_ok())
            .collect();

        // Prune phase B to the wanted rest-outputs; collect which faulty
        // sectors it still reads (they must be produced by phase A).
        let mut rest_inputs: std::collections::BTreeSet<usize> = Default::default();
        let phase_b = self.phase_b.as_ref().and_then(|sp| {
            let keep: std::collections::BTreeSet<usize> = sp
                .program
                .output_sectors()
                .filter(|s| wanted.contains(s))
                .collect();
            if keep.is_empty() {
                return None;
            }
            let program = sp.program.prune_outputs(&keep);
            for src in program.stripe_sources() {
                if self.faulty.binary_search(&src).is_ok() {
                    rest_inputs.insert(src);
                }
            }
            Some(SubPlan { program })
        });

        // Keep phase-A sub-plans that produce a wanted sector or a rest
        // input, pruned to exactly those outputs.
        let phase_a: Vec<SubPlan<W>> = self
            .phase_a
            .iter()
            .filter_map(|sp| {
                let keep: std::collections::BTreeSet<usize> = sp
                    .program
                    .output_sectors()
                    .filter(|s| wanted.contains(s) || rest_inputs.contains(s))
                    .collect();
                if keep.is_empty() {
                    None
                } else {
                    Some(SubPlan {
                        program: sp.program.prune_outputs(&keep),
                    })
                }
            })
            .collect();

        let cost = phase_a.iter().map(|s| s.program.mult_xors()).sum::<usize>()
            + phase_b.as_ref().map_or(0, |s| s.program.mult_xors());
        let mut faulty: Vec<usize> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(|s| s.program.output_sectors())
            .collect();
        faulty.sort_unstable();
        let coeffs: Vec<W> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(|s| s.program.coefficients())
            .collect();
        DecodePlan {
            phase_a,
            phase_b,
            regions: self.regions.share(coeffs),
            total_sectors: self.total_sectors,
            faulty,
            strategy: self.strategy,
            backend: self.backend,
            cost,
            // The candidate costs predicted the *full* repair; this plan
            // does strictly less work, so carrying them over would lie.
            predicted: None,
            // A restricted decode leaves unwanted faulty sectors erased,
            // so no full parity equation can be evaluated afterwards.
            surplus: None,
            tape: OnceLock::new(),
        }
    }

    /// The plan's compiled instruction tape, compiling it on first use.
    ///
    /// [`PlanCache`](crate::PlanCache) calls this at insert time, so a
    /// warm cache hit always finds the tape ready; calling it again is a
    /// cheap read of the `OnceLock`.
    pub fn ensure_tape(&self) -> &crate::tape::PlanTape<W> {
        self.tape
            .get_or_init(|| crate::tape::PlanTape::compile(self))
    }

    /// The surplus rows lowered to verify runs in the plan's tape,
    /// lowering them on the first call: only a verify (or a
    /// [`WirePlan::from_plan`](crate::WirePlan::from_plan), which ships
    /// them) pays for the surplus kernels. Concurrent first calls lower
    /// once. Empty for restricted plans.
    pub(crate) fn verify_runs(&self) -> &[crate::tape::VerifyRun<crate::tape::Kernel<W>>] {
        self.ensure_tape().verify.get_or_init(|| {
            crate::tape::lower_verify(
                self.surplus.as_deref().unwrap_or_default(),
                &self.regions,
                self.total_sectors,
            )
        })
    }

    /// The degree of parallelism `p`: how many independent sub-matrices
    /// run concurrently in phase A.
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the plan has a remaining sub-matrix `H_rest` phase.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Per-independent-sub-matrix mult_XORs costs (`c₀ … c_{p−1}` of
    /// §III-C). The paper's ideal parallel saving is `Σcᵢ − c_max`; the
    /// experiment harness uses these to model multi-core execution.
    pub fn independent_costs(&self) -> Vec<usize> {
        self.phase_a.iter().map(|s| s.program.mult_xors()).collect()
    }

    /// mult_XORs of the remaining sub-matrix `H_rest` (0 if null).
    pub fn rest_cost(&self) -> usize {
        self.phase_b.as_ref().map_or(0, |s| s.program.mult_xors())
    }

    /// Total mult_XORs this plan performs — the paper's computational
    /// cost `C` for the chosen strategy.
    pub fn mult_xors(&self) -> usize {
        self.cost
    }

    /// The strategy the plan was built with (for `PpmAuto`, the winning
    /// concrete strategy).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The predicted `C₁..C₄` of all four candidate sequences, when this
    /// plan was selected by [`Strategy::PpmAuto`], which prices every
    /// candidate to choose. `None` for plans built with a concrete
    /// strategy or restricted plans.
    pub fn predicted_costs(&self) -> Option<crate::cost::CostReport> {
        self.predicted
    }

    /// The faulty sectors this plan recovers.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// Number of sectors in the stripe geometry this plan expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors
    }

    /// The distinct *surviving* sectors this plan reads — the repair's
    /// disk I/O in sectors. (Recovered phase-A blocks consumed by
    /// `H_rest` are produced in memory, not read from devices, so they
    /// are excluded.)
    ///
    /// This is the metric behind LRC's design: a single-block degraded
    /// read under a `(k, l, g)`-LRC plan reads its `k/l`-disk local group,
    /// while the same read under RS touches the whole stripe row (paper
    /// §I: local parity "to reduce disk I/O, network overhead, and
    /// degraded read latency").
    pub fn sectors_read(&self) -> usize {
        self.read_sectors().len()
    }

    /// The distinct surviving sectors this plan reads, ascending — the
    /// list behind [`DecodePlan::sectors_read`]. Erasure escalation walks
    /// these first: a sector the decode actually consumed is the prime
    /// suspect when the recovered stripe fails verification.
    pub fn read_sectors(&self) -> Vec<usize> {
        let mut read: Vec<usize> = self
            .phase_a
            .iter()
            .chain(&self.phase_b)
            .flat_map(|sp| sp.program.stripe_sources())
            .filter(|s| self.faulty.binary_search(s).is_err())
            .collect();
        read.sort_unstable();
        read.dedup();
        read
    }

    /// Whether this plan can run the surplus-row verification pass.
    /// `false` only for [`DecodePlan::restrict_to`] projections, which do
    /// not materialize the full stripe.
    pub fn supports_verify(&self) -> bool {
        self.surplus.is_some()
    }

    /// Global `H` row indices of the surplus (unconsumed) parity-check
    /// rows available for verification. Empty when the failure pattern
    /// consumed every row of `H` — at the code's rank limit no redundancy
    /// is left over, so corruption in surviving blocks is
    /// information-theoretically undetectable.
    pub fn surplus_row_indices(&self) -> Vec<usize> {
        self.surplus
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|(r, _)| *r)
            .collect()
    }

    /// Number of surplus parity-check rows available to a verify pass.
    pub fn verify_rows(&self) -> usize {
        self.surplus.as_deref().unwrap_or_default().len()
    }

    /// Predicted cost of one verify pass in `mult_XORs`: the non-zero
    /// coefficients summed over the surplus rows — the same unit and the
    /// same exactness as the decode ledger, since verification reuses the
    /// identical region kernels.
    pub fn verify_mult_xors(&self) -> usize {
        self.surplus
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|(_, t)| t.len())
            .sum()
    }
}

/// The calculation sequence a concrete strategy uses for its last
/// (traditional or `H_rest`) system.
fn sequence_of(strategy: Strategy) -> CalcSequence {
    match strategy {
        Strategy::TraditionalNormal | Strategy::PpmNormalRest => CalcSequence::Normal,
        _ => CalcSequence::MatrixFirst,
    }
}

/// The non-zero entries of `row` as `(coefficient, label)` terms, where
/// the `j`-th entry is labelled with the `j`-th item of `labels`.
fn nonzero_terms<W: GfWord>(row: &[W], labels: impl IntoIterator<Item = usize>) -> Vec<(W, usize)> {
    row.iter()
        .zip(labels)
        .filter(|(&c, _)| c != W::ZERO)
        .map(|(&c, l)| (c, l))
        .collect()
}

/// One sub-matrix's square system, eliminated once: the independent rows
/// chosen from the candidates, their factored `F`, and `S` over the
/// sources. Either calculation sequence is emitted from the same
/// factorization.
struct SolvedSystem<W: GfWord> {
    faulty: Vec<usize>,
    sources: Vec<usize>,
    /// The *global* `H` rows the system consumes, so the caller can
    /// derive the plan's surplus (unused) verification rows.
    rows: Vec<usize>,
    fact: ppm_matrix::Factorization<W>,
    s: Matrix<W>,
}

impl<W: GfWord> SolvedSystem<W> {
    /// Selects a square invertible system for `faulty` from the candidate
    /// rows and factors it.
    fn solve(
        h: &Matrix<W>,
        candidate_rows: &[usize],
        faulty: Vec<usize>,
        sources: Vec<usize>,
    ) -> Result<Self, DecodeError> {
        let f_all = h.select_rows(candidate_rows).select_columns(&faulty);
        let picked = f_all.select_independent_rows();
        let unrecoverable = DecodeError::Unrecoverable {
            needed: faulty.len(),
            rank: picked.len(),
        };
        if picked.len() < faulty.len() {
            return Err(unrecoverable);
        }
        let Some(rows) = picked
            .iter()
            .map(|&i| candidate_rows.get(i).copied())
            .collect::<Option<Vec<usize>>>()
        else {
            return Err(unrecoverable);
        };
        // Independent row selection guarantees invertibility, so the
        // None arm is defensive.
        let Some((fact, _unused_local)) = ppm_matrix::Factorization::with_residual(&f_all, &picked)
        else {
            return Err(unrecoverable);
        };
        let s = h.select_rows(&rows).select_columns(&sources);
        Ok(SolvedSystem {
            faulty,
            sources,
            rows,
            fact,
            s,
        })
    }

    /// The traditional method's one system: every row of `H`, every
    /// faulty sector, every surviving sector as a source.
    fn traditional(h: &Matrix<W>, scenario: &FailureScenario) -> Result<Self, DecodeError> {
        let all_rows: Vec<usize> = (0..h.rows()).collect();
        Self::solve(
            h,
            &all_rows,
            scenario.faulty().to_vec(),
            scenario.surviving(h.cols()),
        )
    }

    /// The system's program in sequence `seq`: the matrix-first product
    /// `F⁻¹·S` straight from the factors (no explicit inverse), or `S`
    /// and the explicit `F⁻¹` for the normal sequence.
    fn program(&self, seq: CalcSequence) -> Program<W> {
        match seq {
            CalcSequence::MatrixFirst => {
                let g = self.fact.solve_mat(&self.s);
                let outputs = self
                    .faulty
                    .iter()
                    .enumerate()
                    .map(|(fi, &sector)| {
                        (
                            sector,
                            nonzero_terms(g.row(fi), self.sources.iter().copied()),
                        )
                    })
                    .collect();
                Program::MatrixFirst { outputs }
            }
            CalcSequence::Normal => {
                let f_inv = self.fact.inverse();
                let t_terms = (0..self.rows.len())
                    .map(|e| nonzero_terms(self.s.row(e), self.sources.iter().copied()))
                    .collect();
                let f_terms = self
                    .faulty
                    .iter()
                    .enumerate()
                    .map(|(fi, &sector)| (sector, nonzero_terms(f_inv.row(fi), 0..)))
                    .collect();
                Program::Normal { t_terms, f_terms }
            }
        }
    }
}

/// A decode's programs before kernels are attached: phase A, the last
/// (traditional or `H_rest`) system, and every global `H` row they
/// consume.
struct Programs<W: GfWord> {
    phase_a: Vec<Program<W>>,
    phase_b: Option<Program<W>>,
    consumed: Vec<usize>,
}

impl<W: GfWord> Programs<W> {
    /// The traditional method's one program over `rows`.
    fn traditional(program: Program<W>, rows: Vec<usize>) -> Self {
        Programs {
            phase_a: Vec::new(),
            phase_b: Some(program),
            consumed: rows,
        }
    }
}

/// PPM's partitioned systems for one scenario: phase A's independent
/// sub-matrices (always matrix-first, shared by C₃ and C₄) and the
/// factored `H_rest`, whose sequence is still open.
struct Partitioned<W: GfWord> {
    phase_a: Vec<Program<W>>,
    /// Global `H` rows phase A consumed.
    consumed: Vec<usize>,
    rest: Option<SolvedSystem<W>>,
}

impl<W: GfWord> Partitioned<W> {
    fn build(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        precomputed: Option<&Partition>,
    ) -> Result<Self, DecodeError> {
        let owned;
        let part = match precomputed {
            Some(p) => p,
            None => {
                owned = Partition::build(h, scenario);
                &owned
            }
        };
        let surviving = scenario.surviving(h.cols());
        // Independent sub-matrices always use matrix-first: every element
        // on their faulty columns is non-zero, so u(Fᵢ) + u(Sᵢ) >
        // u(Fᵢ⁻¹·Sᵢ) (paper §III-B).
        let mut phase_a = Vec::with_capacity(part.independent.len());
        let mut consumed = Vec::new();
        for sub in &part.independent {
            let sys = SolvedSystem::solve(h, &sub.rows, sub.faulty.clone(), surviving.clone())?;
            consumed.extend_from_slice(&sys.rows);
            phase_a.push(sys.program(CalcSequence::MatrixFirst));
        }
        let rest = match &part.rest {
            None => None,
            Some(rest) => {
                // Recovered independent blocks are inputs here.
                let mut sources = surviving;
                sources.extend(part.independent_faulty());
                sources.sort_unstable();
                Some(SolvedSystem::solve(
                    h,
                    &rest.rows,
                    rest.faulty.clone(),
                    sources,
                )?)
            }
        };
        Ok(Partitioned {
            phase_a,
            consumed,
            rest,
        })
    }

    /// The partitioned plan's programs, with `rest` (emitted from
    /// [`Partitioned::rest`] in either sequence) as `H_rest`'s.
    fn with_rest(mut self, rest: Option<Program<W>>) -> Programs<W> {
        if let Some(sys) = &self.rest {
            self.consumed.extend_from_slice(&sys.rows);
        }
        Programs {
            phase_a: self.phase_a,
            phase_b: rest,
            consumed: self.consumed,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, SdCode};

    fn paper_case() -> (Matrix<u8>, FailureScenario) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        (
            code.parity_check_matrix(),
            FailureScenario::new(vec![2, 6, 10, 13, 14]),
        )
    }

    /// §II-B: C₁ = 35 and C₂ = 31 for the Figure 2 example.
    #[test]
    fn figure2_c1_c2() {
        let (h, sc) = paper_case();
        let c1 = DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar)
            .unwrap()
            .mult_xors();
        let c2 = DecodePlan::build(&h, &sc, Strategy::TraditionalMatrixFirst, Backend::Scalar)
            .unwrap()
            .mult_xors();
        assert_eq!(c1, 35);
        assert_eq!(c2, 31);
    }

    /// §III-B: the example's PPM cost reduction is (C₁−C₄)/C₁ = 17.14%.
    #[test]
    fn figure3_c4_reduction() {
        let (h, sc) = paper_case();
        let c1 = DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar)
            .unwrap()
            .mult_xors();
        let c4 = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar)
            .unwrap()
            .mult_xors();
        assert_eq!(c1, 35);
        assert_eq!(c4, 29); // C₁ − C₄ = m²(z+1)(r−z) = 6
        let reduction = (c1 - c4) as f64 / c1 as f64;
        assert!((reduction - 0.1714).abs() < 0.001, "got {reduction}");
    }

    #[test]
    fn ppm_plans_have_parallelism_3() {
        let (h, sc) = paper_case();
        for s in [
            Strategy::PpmMatrixFirstRest,
            Strategy::PpmNormalRest,
            Strategy::PpmAuto,
        ] {
            let plan = DecodePlan::build(&h, &sc, s, Backend::Scalar).unwrap();
            assert_eq!(plan.parallelism(), 3, "{s:?}");
            assert!(plan.phase_b.is_some());
        }
    }

    #[test]
    fn auto_picks_minimum_cost() {
        let (h, sc) = paper_case();
        let costs: Vec<usize> = Strategy::CONCRETE
            .iter()
            .map(|&s| {
                DecodePlan::build(&h, &sc, s, Backend::Scalar)
                    .unwrap()
                    .mult_xors()
            })
            .collect();
        let auto = DecodePlan::build(&h, &sc, Strategy::PpmAuto, Backend::Scalar).unwrap();
        assert_eq!(auto.mult_xors(), *costs.iter().min().unwrap());
    }

    /// Degraded read of an independent block keeps exactly one 1×1
    /// sub-plan; of a dependent block, phase B plus its inputs.
    #[test]
    fn restrict_to_prunes_structurally() {
        let (h, sc) = paper_case();
        let full = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        assert_eq!(full.mult_xors(), 29);

        // b2 is independent: one group, 3 mult_XORs, no rest.
        let only_b2 = full.restrict_to(&[2]);
        assert_eq!(only_b2.parallelism(), 1);
        assert_eq!(only_b2.faulty(), &[2]);
        assert!(only_b2.phase_b.is_none());
        assert_eq!(only_b2.mult_xors(), 3);

        // b13 is dependent: rest kept (outputs pruned to b13), and all
        // three independent groups retained as its inputs.
        let only_b13 = full.restrict_to(&[13]);
        assert_eq!(only_b13.parallelism(), 3);
        assert!(only_b13.phase_b.is_some());
        assert!(only_b13.faulty().contains(&13));
        assert!(!only_b13.faulty().contains(&14));
        assert!(only_b13.mult_xors() < full.mult_xors());

        // Restricting to everything changes nothing material.
        let all = full.restrict_to(&[2, 6, 10, 13, 14]);
        assert_eq!(all.mult_xors(), full.mult_xors());
        assert_eq!(all.parallelism(), full.parallelism());

        // Unknown sectors are ignored.
        let none = full.restrict_to(&[0, 1]);
        assert_eq!(none.mult_xors(), 0);
        assert_eq!(none.parallelism(), 0);
    }

    /// Restriction shares the parent's region kernels: every coefficient
    /// of a restricted plan resolves to the *same* `RegionMul` allocation
    /// the parent owns — no multiplication table is rebuilt.
    #[test]
    fn restrict_to_shares_parent_kernels() {
        let (h, sc) = paper_case();
        let full = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        for wanted in [&[2][..], &[13], &[2, 6, 10, 13, 14]] {
            let restricted = full.restrict_to(wanted);
            assert!(!restricted.regions.kernels.is_empty(), "{wanted:?}");
            for (c, kernel) in &restricted.regions.kernels {
                let parent = full
                    .regions
                    .find(*c)
                    .expect("restricted coefficient must come from the parent");
                assert!(
                    Arc::ptr_eq(kernel, parent),
                    "kernel for coefficient {c:#x} was rebuilt on restriction"
                );
            }
        }
    }

    /// The Algorithm 1 fast path must yield plans with identical cost and
    /// parallelism to the general path.
    #[test]
    fn build_sd_equivalent_to_general() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        for s in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            let general = DecodePlan::build(&h, &sc, s, Backend::Scalar).unwrap();
            let fast = DecodePlan::build_sd(&code, &h, &sc, s, Backend::Scalar).unwrap();
            assert_eq!(fast.mult_xors(), general.mult_xors(), "{s:?}");
            assert_eq!(fast.parallelism(), general.parallelism(), "{s:?}");
        }
    }

    #[test]
    fn empty_scenario_plans_to_nothing() {
        let (h, _) = paper_case();
        let plan = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(plan.parallelism(), 0);
        assert_eq!(plan.mult_xors(), 0);
        assert!(plan.phase_b.is_none());
    }

    #[test]
    fn out_of_range_sector_rejected() {
        let (h, _) = paper_case();
        let err = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![99]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DecodeError::SectorOutOfRange {
                sector: 99,
                total: 16
            }
        );
    }

    #[test]
    fn unrecoverable_pattern_rejected() {
        let (h, _) = paper_case();
        // 6 faulty blocks with only 5 equations can never be recovered.
        let sc = FailureScenario::new(vec![0, 1, 2, 3, 4, 5]);
        let err =
            DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar).unwrap_err();
        assert!(matches!(err, DecodeError::Unrecoverable { needed: 6, .. }));
    }

    #[test]
    fn surplus_rows_complement_consumed() {
        let (h, sc) = paper_case();
        // Worst case: 5 faulty sectors consume all 5 parity rows, so no
        // redundancy is left for verification.
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        assert!(plan.supports_verify());
        assert_eq!(plan.verify_rows(), 0);
        assert_eq!(plan.verify_mult_xors(), 0);

        // Two faulty sectors leave three surplus rows, whatever strategy.
        let small = FailureScenario::new(vec![2, 6]);
        for s in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            let plan = DecodePlan::build(&h, &small, s, Backend::Scalar).unwrap();
            assert_eq!(plan.verify_rows(), 3, "{s:?}");
            let idx = plan.surplus_row_indices();
            assert!(idx.iter().all(|&r| r < h.rows()), "{s:?}");
            // Predicted verify cost = non-zeros of H over those rows.
            let expect: usize = idx.iter().map(|&r| h.row_nonzeros(r)).sum();
            assert_eq!(plan.verify_mult_xors(), expect, "{s:?}");
        }

        // Empty scenario: every row is surplus — a full parity check.
        let empty = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(empty.verify_rows(), h.rows());

        // Restricted plans cannot verify.
        let restricted = plan.restrict_to(&[2]);
        assert!(!restricted.supports_verify());
        assert_eq!(restricted.verify_rows(), 0);
        assert_eq!(restricted.verify_mult_xors(), 0);
        assert!(restricted.surplus_row_indices().is_empty());
    }

    #[test]
    fn read_sectors_lists_what_sectors_read_counts() {
        let (h, sc) = paper_case();
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        let read = plan.read_sectors();
        assert_eq!(read.len(), plan.sectors_read());
        assert!(read.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
        assert!(read.iter().all(|s| plan.faulty().binary_search(s).is_err()));
    }

    /// The paper's inequality: independent sub-matrices are always cheaper
    /// matrix-first, so C₃ ≤ C₁-with-partition; more precisely C₂ ≤ C₃
    /// never needs to hold, but C₄ ≤ C₁ and C₃ ≥ C₂ do for SD worst cases.
    #[test]
    fn cost_order_on_paper_example() {
        let (h, sc) = paper_case();
        let c: Vec<usize> = Strategy::CONCRETE
            .iter()
            .map(|&s| {
                DecodePlan::build(&h, &sc, s, Backend::Scalar)
                    .unwrap()
                    .mult_xors()
            })
            .collect();
        let (c1, c2, c3, c4) = (c[0], c[1], c[2], c[3]);
        assert!(c4 < c1, "C4={c4} must beat C1={c1}");
        assert!(
            c2 < c3,
            "paper: C3 - C2 = m(r-1)(mz+s) > 0; got C2={c2}, C3={c3}"
        );
        // Figure-2 instance: C3 = 37 per the formulas in §III-B.
        assert_eq!(c3, 37);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod restrict_matrix_first_tests {
    use super::*;
    use ppm_codes::{ErasureCode, SdCode};

    /// Pruning a plan whose H_rest uses the matrix-first sequence
    /// exercises Program::MatrixFirst's prune/stripe_sources paths.
    #[test]
    fn restrict_matrix_first_rest() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let full =
            DecodePlan::build(&h, &sc, Strategy::PpmMatrixFirstRest, Backend::Scalar).unwrap();
        let only_b14 = full.restrict_to(&[14]);
        assert!(only_b14.faulty().contains(&14));
        assert!(!only_b14.faulty().contains(&13));
        assert!(only_b14.mult_xors() < full.mult_xors());
        // The matrix-first rest reads recovered blocks directly, so the
        // independent groups feeding it are retained.
        assert_eq!(only_b14.parallelism(), 3);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod io_tests {
    use super::*;
    use ppm_codes::{ErasureCode, LrcCode, RsCode};

    /// The LRC degraded-read I/O claim: one lost block reads its local
    /// group (k/l sectors) under LRC, but k sectors under RS.
    #[test]
    fn degraded_read_io_lrc_vs_rs() {
        let lrc = LrcCode::<u8>::new(12, 2, 2, 4).unwrap();
        let lost = FailureScenario::new(vec![lrc.layout().sector(1, 3)]);
        let plan = DecodePlan::build(
            &lrc.parity_check_matrix(),
            &lost,
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(plan.sectors_read(), lrc.group_size(), "LRC local repair");

        let rs = RsCode::<u8>::new(12, 4, 4).unwrap();
        let lost = FailureScenario::new(vec![rs.layout().sector(1, 3)]);
        let plan = DecodePlan::build(
            &rs.parity_check_matrix(),
            &lost,
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        // Each Cauchy check equation spans all n disks of its row, so a
        // single-block repair reads the other n − 1 = 15 sectors.
        assert_eq!(plan.sectors_read(), 15, "RS reads a full row");
    }

    /// Recovered intermediates don't count as device reads; restriction
    /// can only reduce the I/O.
    #[test]
    fn sectors_read_excludes_recovered_blocks() {
        let code = ppm_codes::SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        // All 11 surviving sectors participate in the worst case.
        assert_eq!(plan.sectors_read(), 11);
        let restricted = plan.restrict_to(&[2]);
        assert_eq!(restricted.sectors_read(), 3, "local 1x1 repair reads 3");
        assert!(plan.restrict_to(&[13]).sectors_read() <= 11);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod lazy_verify_tests {
    use super::*;
    use crate::{Decoder, DecoderConfig, RepairService, WirePlan};
    use ppm_codes::{ErasureCode, SdCode};
    use ppm_stripe::{random_data_stripe, Stripe};
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::BTreeSet;

    const CONFIG: DecoderConfig = DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    };

    /// The paper's code with two lost sectors: three surplus rows, some
    /// of whose constants the decode does not use.
    fn case() -> (SdCode<u8>, FailureScenario, Stripe) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let mut stripe = random_data_stripe(&code, 256, &mut StdRng::seed_from_u64(5));
        crate::encode(&code, &Decoder::new(CONFIG), &mut stripe).unwrap();
        (code, FailureScenario::new(vec![2, 6]), stripe)
    }

    fn decode_constants(plan: &DecodePlan<u8>) -> BTreeSet<u8> {
        plan.phase_a
            .iter()
            .chain(&plan.phase_b)
            .flat_map(|s| s.program.coefficients())
            .collect()
    }

    fn surplus_constants(plan: &DecodePlan<u8>) -> BTreeSet<u8> {
        plan.surplus
            .as_deref()
            .unwrap()
            .iter()
            .flat_map(|(_, terms)| terms.iter().map(|&(c, _)| c))
            .collect()
    }

    /// A plain repair compiles the decode and nothing else: the verify
    /// section stays unlowered and the plan holds one kernel per
    /// distinct decode coefficient, none for surplus-only constants.
    #[test]
    fn plain_repair_leaves_verify_unlowered() {
        let (code, sc, pristine) = case();
        let svc = RepairService::new(&code, CONFIG);
        let mut stripe = pristine.clone();
        stripe.erase(&sc);
        svc.repair(&mut stripe, &sc).unwrap();
        assert_eq!(stripe, pristine);

        let (plan, hit) = svc.planner().plan_for(&sc).unwrap();
        assert!(hit);
        assert!(plan.ensure_tape().verify.get().is_none());
        let decode = decode_constants(&plan);
        let held: BTreeSet<u8> = plan.regions.kernels.iter().map(|(c, _)| *c).collect();
        assert_eq!(held.len(), plan.regions.kernels.len(), "one kernel each");
        assert_eq!(held, decode);
        assert!(
            !surplus_constants(&plan).is_subset(&decode),
            "the case must have surplus-only constants to leave out"
        );
        // The verify counts are exact without lowering.
        assert_eq!(plan.verify_rows(), 3);
        assert!(plan.verify_mult_xors() > 0);
        assert!(plan.ensure_tape().verify.get().is_none());
    }

    /// Threads verifying one fresh cached plan at once lower its verify
    /// runs once: identical reports, and one kernel per surplus constant,
    /// shared with the decode where the decode has the constant.
    #[test]
    fn concurrent_first_verifies_lower_once() {
        let (code, sc, pristine) = case();
        let svc = RepairService::new(&code, CONFIG);
        let (plan, _) = svc.planner().plan_for(&sc).unwrap();
        assert!(plan.ensure_tape().verify.get().is_none());
        let mut stripe = pristine.clone();
        stripe.sector_mut(0)[7] ^= 0x21;

        let reports: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| svc.executor().verify(&plan, &stripe).unwrap()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let first = &reports[0];
        assert!(!first.clean());
        assert_eq!(first.rows_checked, plan.verify_rows());
        assert_eq!(first.stats.mult_xors, plan.verify_mult_xors() as u64);
        for report in &reports {
            assert_eq!(
                (
                    report.rows_checked,
                    &report.violated_rows,
                    report.stats.mult_xors
                ),
                (
                    first.rows_checked,
                    &first.violated_rows,
                    first.stats.mult_xors
                )
            );
        }

        let mut by_constant: std::collections::HashMap<u8, &Arc<RegionMul<u8>>> =
            Default::default();
        for instr in plan.verify_runs().iter().flat_map(|r| &r.instrs) {
            let kernel = by_constant
                .entry(instr.kernel.constant())
                .or_insert(&instr.kernel);
            assert!(Arc::ptr_eq(kernel, &instr.kernel));
        }
        assert_eq!(
            by_constant.keys().copied().collect::<BTreeSet<u8>>(),
            surplus_constants(&plan)
        );
        for (c, kernel) in by_constant {
            if let Some(decode) = plan.regions.find(c) {
                assert!(Arc::ptr_eq(kernel, decode), "{c:#x} rebuilt");
            }
        }
        assert_eq!(
            plan.ensure_tape().verify_mult_xors(),
            plan.verify_mult_xors()
        );
    }

    /// A wire plan carries the verify runs whether or not the plan has
    /// verified: the bytes are the same before and after.
    #[test]
    fn wire_bytes_do_not_depend_on_a_verify() {
        let (code, sc, pristine) = case();
        let h = code.parity_check_matrix();
        let build = || DecodePlan::build(&h, &sc, Strategy::PpmAuto, Backend::Auto).unwrap();
        let fresh = build();
        let before = WirePlan::from_plan(&fresh).encode();
        let verified = build();
        let report = Decoder::new(CONFIG).verify(&verified, &pristine).unwrap();
        assert!(report.clean() && report.rows_checked == 3);
        assert_eq!(WirePlan::from_plan(&verified).encode(), before);
        assert_eq!(WirePlan::from_plan(&fresh).encode(), before);
    }

    /// Debug builds validate verify runs when a plan lowers them, as the
    /// tape compiler's output is validated.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the verify lowering emitted runs the wire validator rejects")]
    fn lowering_checks_the_verify_runs() {
        let (code, sc, _) = case();
        let h = code.parity_check_matrix();
        let mut plan = DecodePlan::build(&h, &sc, Strategy::PpmAuto, Backend::Auto).unwrap();
        let total = plan.total_sectors();
        plan.surplus.as_mut().unwrap()[0].1.push((1, total));
        plan.verify_runs();
    }

    /// The plan and its tape are no larger than before the verify
    /// section became lazy: `encode_mid`'s set-up time moves with their
    /// allocation size.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn plan_and_tape_sizes_hold() {
        assert!(std::mem::size_of::<DecodePlan<u8>>() <= 616);
        assert!(std::mem::size_of::<crate::tape::PlanTape<u8>>() <= 384);
    }
}
