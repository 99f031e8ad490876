//! Serializable decode plans: *plans travel, data stays put*.
//!
//! A [`WirePlan`] is a compiled [`PlanTape`] with each kernel replaced
//! by its GF constant: the same [`TapeSegment`]s — instructions,
//! precomputed scratch layout — and [`VerifyRun`]s, over `u64`
//! constants instead of `Arc`-shared tables, plus the faulty list and
//! the stripe geometry. It is what a cluster coordinator sends to a
//! worker so the worker can execute a repair against locally held
//! sectors without ever learning the code's parity-check matrix or
//! running a factorization.
//!
//! The byte format is a hand-rolled little-endian layout behind a
//! `"PPMW"` magic and a format version — no serialization framework, so
//! the encoding is stable by construction and auditable byte for byte;
//! indices travel as `u32`. Decoding is *structural* (tags, counts,
//! truncation). [`WirePlan::compile`] turns a decoded plan back into a
//! plain [`PlanTape`]: it runs the one tape validator,
//! [`check`](crate::tape::check) — the executor's unzeroed-scratch fast
//! path is only sound against checked input, and wire input is
//! untrusted — and then rebuilds one [`RegionMul`] kernel per distinct
//! constant (the isa-l `ec_init_tables` pattern, applied across the
//! network: ship the seed, rebuild the table), shared across all
//! instructions of the plan via `Arc` exactly like an in-process tape.

use crate::plan::{DecodePlan, Strategy};
use crate::tape::{check, Instr, Kernel, Loc, OpCode, PlanTape, TapeSegment, VerifyRun};
use ppm_gf::{Backend, GfWord, RegionMul};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// Wire format version (bumped on any layout change).
pub const WIRE_VERSION: u16 = 1;

/// Magic prefix of every encoded plan.
const MAGIC: [u8; 4] = *b"PPMW";

/// Upper bound on any length field — far above any real plan, low enough
/// that a malformed length cannot drive an allocation into the gigabytes.
const MAX_COUNT: usize = 1 << 24;

/// Errors of wire-plan encoding, decoding, and compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The buffer does not start with the `"PPMW"` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The plan was built for a different GF word width than the
    /// compilation target.
    WidthMismatch {
        /// Width recorded in the plan.
        plan: u32,
        /// Width of the word type compilation was requested for.
        word: u32,
    },
    /// A length field exceeded the sanity bound.
    Oversized {
        /// The decoded count.
        count: usize,
        /// The bound it violated.
        max: usize,
    },
    /// A structural or semantic invariant does not hold.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire plan truncated"),
            WireError::BadMagic => write!(f, "not a wire plan (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire-plan version {v} (have {WIRE_VERSION})")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after wire plan")
            }
            WireError::WidthMismatch { plan, word } => write!(
                f,
                "wire plan is for GF(2^{plan}) but compilation target is GF(2^{word})"
            ),
            WireError::Oversized { count, max } => {
                write!(f, "wire-plan length field {count} exceeds bound {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed wire plan: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decode plan in transportable form: pure data, no kernel tables, no
/// lifetime ties to the plan it came from — a [`PlanTape`] whose kernels
/// are GF constants.
///
/// Produce one with [`WirePlan::from_plan`] (or
/// [`Planner::wire_plan_for`](crate::Planner::wire_plan_for)), move it as
/// bytes via [`WirePlan::encode`] / [`WirePlan::decode`], and turn it
/// back into an executable [`PlanTape`] with [`WirePlan::compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePlan {
    gf_width: u32,
    total_sectors: usize,
    strategy: Strategy,
    faulty: Vec<usize>,
    phase_a: Vec<TapeSegment<u64>>,
    phase_b: Option<TapeSegment<u64>>,
    verify: Vec<VerifyRun<u64>>,
}

/// Narrows a plan-side `usize` into the wire's `u32`. Plan dimensions
/// are sector/slot counts — a value past `u32::MAX` is not a plan, it is
/// a bug, so this panics rather than producing a silently wrong wire.
fn narrow(value: usize) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("plan dimension {value} exceeds wire width"))
}

impl WirePlan {
    /// Captures `plan`'s compiled tape as a wire plan (compiling the tape
    /// first if the plan never went through a
    /// [`PlanCache`](crate::PlanCache) insert, and lowering its verify
    /// runs if the plan never verified).
    pub fn from_plan<W: GfWord>(plan: &DecodePlan<W>) -> WirePlan {
        let verify_runs = plan.verify_runs();
        let tape = plan.ensure_tape();
        let mut constant = |k: &Kernel<W>| Ok::<_, Infallible>(k.constant().to_u64());
        let mut segment = |seg: &TapeSegment<Kernel<W>>| {
            let Ok(seg) = seg.map_kernels(&mut constant);
            seg
        };
        let phase_a = tape.phase_a.iter().map(&mut segment).collect();
        let phase_b = tape.phase_b.as_ref().map(segment);
        let verify = verify_runs
            .iter()
            .map(|run| {
                let Ok(run) = run.map_kernels(&mut constant);
                run
            })
            .collect();
        WirePlan {
            gf_width: W::WIDTH,
            total_sectors: tape.total_sectors(),
            strategy: tape.strategy,
            faulty: tape.faulty().to_vec(),
            phase_a,
            phase_b,
            verify,
        }
    }

    /// GF word width (bits) the plan's constants are expressed in.
    pub fn gf_width(&self) -> u32 {
        self.gf_width
    }

    /// Sectors in the stripe geometry the plan expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The faulty sectors the plan recovers, ascending.
    pub fn faulty(&self) -> Vec<usize> {
        self.faulty.clone()
    }

    /// Phase-A parallelism (independent sub-matrix segments).
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the plan carries an `H_rest` phase-B segment.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Surplus verify rows carried by the plan.
    pub fn verify_rows(&self) -> usize {
        self.verify.len()
    }

    /// Total decode instructions (= predicted `mult_XORs`).
    pub fn mult_xors(&self) -> usize {
        self.phase_a.iter().map(|s| s.instrs.len()).sum::<usize>()
            + self.phase_b.as_ref().map_or(0, |s| s.instrs.len())
    }

    /// Serializes the plan to its stable byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 18 * self.mult_xors());
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, WIRE_VERSION);
        put_u32(&mut out, self.gf_width);
        put_index(&mut out, self.total_sectors);
        put_u8(&mut out, strategy_tag(self.strategy));
        put_index(&mut out, self.faulty.len());
        for &s in &self.faulty {
            put_index(&mut out, s);
        }
        put_index(&mut out, self.phase_a.len());
        for seg in &self.phase_a {
            put_segment(&mut out, seg);
        }
        match &self.phase_b {
            Some(seg) => {
                put_u8(&mut out, 1);
                put_segment(&mut out, seg);
            }
            None => put_u8(&mut out, 0),
        }
        put_index(&mut out, self.verify.len());
        for run in &self.verify {
            put_index(&mut out, run.row);
            put_instrs(&mut out, &run.instrs);
        }
        out
    }

    /// Deserializes a plan from bytes, checking magic, version, tags, and
    /// lengths. Structural only — execution-soundness invariants are
    /// checked by [`WirePlan::compile`].
    pub fn decode(bytes: &[u8]) -> Result<WirePlan, WireError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let gf_width = r.u32()?;
        let total_sectors = r.index()?;
        let strategy = strategy_from_tag(r.u8()?)?;
        let faulty = r.vec(Reader::index)?;
        let phase_a = r.vec(read_segment)?;
        let phase_b = match r.u8()? {
            0 => None,
            1 => Some(read_segment(&mut r)?),
            _ => return Err(WireError::Malformed("phase-B flag out of range")),
        };
        let verify = r.vec(|r| {
            Ok(VerifyRun {
                row: r.index()?,
                instrs: r.vec(read_instr)?,
            })
        })?;
        r.finish()?;
        Ok(WirePlan {
            gf_width,
            total_sectors,
            strategy,
            faulty,
            phase_a,
            phase_b,
            verify,
        })
    }

    /// Compiles the plan into an executable [`PlanTape`] for word type
    /// `W`: runs the tape validator every in-process tape also passes
    /// (any violation is [`WireError::Malformed`]), then rebuilds one
    /// shared [`RegionMul`] kernel per distinct constant (checked
    /// construction — the scalar self-probe runs on the receiving host's
    /// hardware).
    pub fn compile<W: GfWord>(&self, backend: Backend) -> Result<PlanTape<W>, WireError> {
        if self.gf_width != W::WIDTH {
            return Err(WireError::WidthMismatch {
                plan: self.gf_width,
                word: W::WIDTH,
            });
        }
        check(
            &self.phase_a,
            self.phase_b.as_ref(),
            &self.verify,
            &self.faulty,
            self.total_sectors,
        )
        .map_err(WireError::Malformed)?;

        let mut kernels: HashMap<u64, Kernel<W>> = HashMap::new();
        let mut kernel = |&constant: &u64| {
            if W::WIDTH < 64 && (constant >> W::WIDTH) != 0 {
                return Err(WireError::Malformed("constant exceeds field width"));
            }
            Ok(Arc::clone(kernels.entry(constant).or_insert_with(|| {
                Arc::new(RegionMul::new_checked(W::from_u64(constant), backend))
            })))
        };
        let phase_a = self
            .phase_a
            .iter()
            .map(|seg| seg.map_kernels(&mut kernel))
            .collect::<Result<_, _>>()?;
        let phase_b = self
            .phase_b
            .as_ref()
            .map(|seg| seg.map_kernels(&mut kernel))
            .transpose()?;
        let verify = self
            .verify
            .iter()
            .map(|run| run.map_kernels(&mut kernel))
            .collect::<Result<_, _>>()?;
        Ok(PlanTape::from_parts(
            phase_a,
            phase_b,
            Some(verify),
            self.total_sectors,
            self.faulty.clone(),
            self.strategy,
            None,
        ))
    }
}

fn strategy_tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::TraditionalNormal => 0,
        Strategy::TraditionalMatrixFirst => 1,
        Strategy::PpmMatrixFirstRest => 2,
        Strategy::PpmNormalRest => 3,
        Strategy::PpmAuto => 4,
    }
}

fn strategy_from_tag(tag: u8) -> Result<Strategy, WireError> {
    Ok(match tag {
        0 => Strategy::TraditionalNormal,
        1 => Strategy::TraditionalMatrixFirst,
        2 => Strategy::PpmMatrixFirstRest,
        3 => Strategy::PpmNormalRest,
        4 => Strategy::PpmAuto,
        _ => return Err(WireError::Malformed("strategy tag out of range")),
    })
}

// ---- byte-level encoding helpers (little endian throughout) ----

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A count, sector, slot or row index, as the wire's `u32`.
fn put_index(out: &mut Vec<u8>, v: usize) {
    put_u32(out, narrow(v));
}

fn put_instrs(out: &mut Vec<u8>, instrs: &[Instr<u64>]) {
    put_index(out, instrs.len());
    for instr in instrs {
        put_u8(out, u8::from(instr.op == OpCode::MulXorFusedCont));
        match instr.src {
            Loc::Sector(s) => {
                put_u8(out, 0);
                put_index(out, s);
            }
            Loc::Slot(e) => {
                put_u8(out, 1);
                put_index(out, e);
            }
        }
        put_index(out, instr.dst);
        put_u64(out, instr.kernel);
    }
}

fn put_segment(out: &mut Vec<u8>, seg: &TapeSegment<u64>) {
    put_index(out, seg.scratch_boundary);
    put_index(out, seg.scratch_slots);
    put_instrs(out, &seg.instrs);
    put_index(out, seg.outputs.len());
    for &(slot, sector) in &seg.outputs {
        put_index(out, slot);
        put_index(out, sector);
    }
    put_index(out, seg.zero_slots.len());
    for &slot in &seg.zero_slots {
        put_index(out, slot);
    }
}

/// Bounds-checked byte reader over an encoded plan.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(*self.take(1)?.first().ok_or(WireError::Truncated)?)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let bytes: [u8; 2] = self.take(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A `u32` index widened to `usize` (see [`put_index`]).
    fn index(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }

    /// A length-prefixed list with the [`MAX_COUNT`] sanity bound.
    fn vec<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.index()?;
        if count > MAX_COUNT {
            return Err(WireError::Oversized {
                count,
                max: MAX_COUNT,
            });
        }
        // Guard allocation by the bytes actually present: every element
        // encodes to at least one byte, so a count past the remaining
        // buffer is a lie — reject before reserving.
        if count > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(read(self)?);
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), WireError> {
        let extra = self.buf.len().saturating_sub(self.pos);
        if extra != 0 {
            return Err(WireError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn read_instr(r: &mut Reader<'_>) -> Result<Instr<u64>, WireError> {
    let op = match r.u8()? {
        0 => OpCode::MulCopy,
        1 => OpCode::MulXorFusedCont,
        _ => return Err(WireError::Malformed("opcode tag out of range")),
    };
    let src = match r.u8()? {
        0 => Loc::Sector(r.index()?),
        1 => Loc::Slot(r.index()?),
        _ => return Err(WireError::Malformed("source tag out of range")),
    };
    Ok(Instr {
        op,
        src,
        dst: r.index()?,
        kernel: r.u64()?,
    })
}

fn read_segment(r: &mut Reader<'_>) -> Result<TapeSegment<u64>, WireError> {
    let scratch_boundary = r.index()?;
    let scratch_slots = r.index()?;
    let instrs = r.vec(read_instr)?;
    let outputs = r.vec(|r| Ok((r.index()?, r.index()?)))?;
    let zero_slots = r.vec(Reader::index)?;
    Ok(TapeSegment {
        instrs,
        scratch_boundary,
        scratch_slots,
        outputs,
        zero_slots,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};

    fn paper_plan(strategy: Strategy) -> DecodePlan<u8> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        DecodePlan::build(&h, &sc, strategy, Backend::Scalar).unwrap()
    }

    fn all_strategies() -> impl Iterator<Item = Strategy> {
        Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto])
    }

    #[test]
    fn byte_round_trip_is_exact() {
        for strategy in all_strategies() {
            let plan = paper_plan(strategy);
            let wire = WirePlan::from_plan(&plan);
            let bytes = wire.encode();
            let back = WirePlan::decode(&bytes).unwrap();
            assert_eq!(back, wire, "{strategy:?}");
            assert_eq!(back.encode(), bytes, "{strategy:?}: re-encode is stable");
        }
    }

    /// The byte format is frozen at `WIRE_VERSION = 1`: the paper
    /// example's plan under every strategy encodes to exactly the bytes
    /// captured in `testdata/paper_wire_plans.hex` (one `Strategy hex`
    /// line each), and those bytes decode and compile.
    #[test]
    fn paper_example_bytes_are_golden() {
        let golden = include_str!("../testdata/paper_wire_plans.hex");
        let mut lines = golden.lines();
        for strategy in all_strategies() {
            let (label, hex) = lines.next().unwrap().split_once(' ').unwrap();
            assert_eq!(label, format!("{strategy:?}"));
            let bytes = WirePlan::from_plan(&paper_plan(strategy)).encode();
            let encoded: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(encoded, hex, "{strategy:?}: wire bytes changed");
            WirePlan::decode(&bytes)
                .unwrap()
                .compile::<u8>(Backend::Scalar)
                .unwrap();
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn wire_metadata_matches_the_plan() {
        let plan = paper_plan(Strategy::PpmNormalRest);
        let wire = WirePlan::from_plan(&plan);
        assert_eq!(wire.gf_width(), 8);
        assert_eq!(wire.total_sectors(), plan.total_sectors());
        assert_eq!(wire.strategy(), plan.strategy());
        assert_eq!(wire.faulty(), plan.faulty());
        assert_eq!(wire.parallelism(), plan.parallelism());
        assert_eq!(wire.has_phase_b(), plan.has_phase_b());
        assert_eq!(wire.mult_xors(), plan.mult_xors());
        assert_eq!(wire.verify_rows(), plan.verify_rows());
    }

    #[test]
    fn compile_rebuilds_shared_kernels() {
        let plan = paper_plan(Strategy::PpmNormalRest);
        let wire = WirePlan::from_plan(&plan);
        let tape = wire.compile::<u8>(Backend::Scalar).unwrap();
        assert_eq!(tape.mult_xors(), plan.mult_xors());
        assert_eq!(tape.faulty(), plan.faulty());
        assert_eq!(tape.parallelism(), plan.parallelism());
        assert!(tape.rest_splittable(), "Normal H_rest splits");
        assert_eq!(
            tape.rest_scratch_slots(),
            2,
            "paper case ships 2 partial-sum blocks"
        );
        // The compiled tape is the in-process tape, kernels aside.
        let local = plan.ensure_tape();
        assert_eq!(tape.rest_splittable(), local.rest_splittable());
        assert_eq!(tape.total_sectors(), local.total_sectors());
        // Distinct instructions with the same constant share one kernel.
        let mut by_constant: HashMap<u64, *const RegionMul<u8>> = HashMap::new();
        for instr in tape.phase_a.iter().flat_map(|s| &s.instrs) {
            let c = instr.kernel.constant().to_u64();
            let ptr = Arc::as_ptr(&instr.kernel);
            assert_eq!(*by_constant.entry(c).or_insert(ptr), ptr);
        }
    }

    #[test]
    fn matrix_first_rest_is_not_splittable() {
        let plan = paper_plan(Strategy::PpmMatrixFirstRest);
        let tape = WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap();
        assert!(!tape.rest_splittable(), "matrix-first rest reads sectors");
        assert!(!plan.ensure_tape().rest_splittable());
        assert_eq!(tape.rest_scratch_slots(), 0);
    }

    #[test]
    fn truncation_and_garbage_are_structured_errors() {
        let wire = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));
        let bytes = wire.encode();
        for cut in [0, 3, 4, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = WirePlan::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            WirePlan::decode(&extra).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            WirePlan::decode(&wrong_magic).unwrap_err(),
            WireError::BadMagic
        );
        let mut bad_strategy = bytes.clone();
        bad_strategy[14] = 9;
        assert_eq!(
            WirePlan::decode(&bad_strategy).unwrap_err(),
            WireError::Malformed("strategy tag out of range")
        );
        let mut future = bytes;
        future[4] = 0xFF;
        assert!(matches!(
            WirePlan::decode(&future).unwrap_err(),
            WireError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn width_mismatch_is_rejected_at_compile() {
        let wire = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));
        let err = wire.compile::<u16>(Backend::Scalar).unwrap_err();
        assert_eq!(err, WireError::WidthMismatch { plan: 8, word: 16 });
    }

    fn instr(kernel: u64, src: Loc, dst: usize, op: OpCode) -> Instr<u64> {
        Instr {
            kernel,
            src,
            dst,
            op,
        }
    }

    /// The paper plan (`PpmNormalRest`) plus one well-formed verify run.
    /// Its phase B is `H_rest` on the Normal sequence: 16 scratch-section
    /// instructions writing `T` slots 0 (2 terms) and 1 (14 terms), then
    /// 4 output-section instructions writing slots 2 and 3 from the `T`
    /// slots, written to sectors 13 and 14.
    fn tamper_base() -> WirePlan {
        let mut base = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));
        base.verify.push(VerifyRun {
            row: 0,
            instrs: vec![
                instr(1, Loc::Sector(0), 0, OpCode::MulCopy),
                instr(2, Loc::Sector(13), 0, OpCode::MulXorFusedCont),
            ],
        });
        base
    }

    fn rest(plan: &mut WirePlan) -> &mut TapeSegment<u64> {
        plan.phase_b.as_mut().unwrap()
    }

    /// One tamper per rule of the tape validator, each rejected at
    /// compile with that rule's message — never reaching execution.
    #[test]
    fn tampered_plans_fail_compile_not_execution() {
        let base = tamper_base();
        assert!(base.compile::<u8>(Backend::Scalar).is_ok());
        let seg = rest(&mut base.clone()).clone();
        assert_eq!((seg.scratch_boundary, seg.scratch_slots), (16, 2));
        assert_eq!(seg.instrs.len(), 20);

        type Tamper = fn(&mut WirePlan);
        let cases: &[(&str, Tamper)] = &[
            ("faulty set not sorted and unique", |p| p.faulty.swap(0, 1)),
            ("faulty set not sorted and unique", |p| p.faulty.push(14)),
            ("faulty sector out of range", |p| p.faulty.push(16)),
            ("scratch boundary past segment end", |p| {
                rest(p).scratch_boundary = 21;
            }),
            // The allocation guard: a slot count far past the segment's
            // writers is rejected before the slot bitmap is allocated.
            ("a slot is neither written nor zeroed", |p| {
                rest(p).scratch_slots = u32::MAX as usize;
            }),
            ("scratch-section write past T slots", |p| {
                rest(p).instrs[0].dst = 2;
            }),
            ("scratch section reads a slot", |p| {
                rest(p).instrs[0].src = Loc::Slot(0);
            }),
            ("output-section write out of range", |p| {
                rest(p).instrs[16].dst = 1;
            }),
            ("output-section write out of range", |p| {
                rest(p).instrs[16].dst = 4;
            }),
            ("source sector out of range", |p| {
                p.phase_a[0].instrs[0].src = Loc::Sector(9999);
            }),
            ("source slot out of range", |p| {
                rest(p).instrs[16].src = Loc::Slot(2);
            }),
            ("continuation without its run head", |p| {
                p.phase_a[0].instrs[0].op = OpCode::MulXorFusedCont;
            }),
            ("continuation without its run head", |p| {
                rest(p).instrs[1].dst = 1;
            }),
            ("slot written by two run heads", |p| {
                let seg = rest(p);
                seg.instrs[18].dst = 2;
                seg.instrs[19].dst = 2;
            }),
            ("zero slot out of range", |p| rest(p).zero_slots.push(4)),
            ("zero slot also written by a run", |p| {
                rest(p).zero_slots.push(2);
            }),
            ("a slot is neither written nor zeroed", |p| {
                let seg = rest(p);
                seg.scratch_slots += 1;
                for instr in seg.instrs.iter_mut().skip(seg.scratch_boundary) {
                    instr.dst += 1;
                }
                for out in seg.outputs.iter_mut() {
                    out.0 += 1;
                }
            }),
            ("non-canonical output slot layout", |p| {
                rest(p).outputs.swap(0, 1);
            }),
            ("output sector out of range", |p| rest(p).outputs[0].1 = 16),
            ("sector produced by two segments", |p| {
                p.phase_a[1].outputs[0].1 = 2;
            }),
            ("output sector not in faulty set", |p| {
                p.phase_a[0].outputs[0].1 = 0;
            }),
            // In-place outputs: a phase-A segment computes straight into
            // its sectors, with no T slots to stage them in.
            ("phase-A segment has scratch slots", |p| {
                let seg = &mut p.phase_a[0];
                seg.scratch_slots = 1;
                seg.zero_slots.push(0);
                for instr in &mut seg.instrs {
                    instr.dst += 1;
                }
                for out in &mut seg.outputs {
                    out.0 += 1;
                }
            }),
            // Phase A reads survivors only: sector 6 is another phase-A
            // segment's output, written in the same domain.
            ("phase-A segment reads a faulty sector", |p| {
                p.phase_a[0].instrs[0].src = Loc::Sector(6);
            }),
            // H_rest's T slot reads sector 13, which its own output
            // section overwrites in place.
            ("segment reads a sector it outputs", |p| {
                rest(p).instrs[0].src = Loc::Sector(13);
            }),
            ("verify source sector out of range", |p| {
                p.verify[0].instrs[1].src = Loc::Sector(16);
            }),
            ("verify run reads a scratch slot", |p| {
                p.verify[0].instrs[0].src = Loc::Slot(0);
            }),
            ("verify run writes a non-zero slot", |p| {
                p.verify[0].instrs[1].dst = 1;
            }),
            ("verify run head/continuation order", |p| {
                p.verify[0].instrs[0].op = OpCode::MulXorFusedCont;
            }),
            ("verify run head/continuation order", |p| {
                p.verify[0].instrs[1].op = OpCode::MulCopy;
            }),
            // Not a tape rule: the kernel mapping rejects a constant the
            // field cannot hold.
            ("constant exceeds field width", |p| {
                p.phase_a[0].instrs[0].kernel = 0x100;
            }),
        ];
        for (i, (rule, tamper)) in cases.iter().enumerate() {
            let mut bad = base.clone();
            tamper(&mut bad);
            assert_eq!(
                bad.compile::<u8>(Backend::Scalar).unwrap_err(),
                WireError::Malformed(rule),
                "case {i}"
            );
            // The tamper survives the byte round trip, so a peer sending
            // it is caught the same way.
            let back = WirePlan::decode(&bad.encode()).unwrap();
            assert_eq!(
                back.compile::<u8>(Backend::Scalar).unwrap_err(),
                WireError::Malformed(rule),
                "case {i} after the byte round trip"
            );
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_without_allocation() {
        // A 4-byte "plan" claiming 2^31 faulty entries must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_u16(&mut bytes, WIRE_VERSION);
        put_u32(&mut bytes, 8);
        put_u32(&mut bytes, 16);
        put_u8(&mut bytes, 4);
        put_u32(&mut bytes, u32::MAX);
        let err = WirePlan::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::Oversized { .. } | WireError::Truncated
        ));
    }
}
