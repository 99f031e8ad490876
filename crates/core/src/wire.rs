//! Serializable decode plans: *plans travel, data stays put*.
//!
//! A [`WirePlan`] is the compact wire encoding of a compiled
//! [`PlanTape`](crate::PlanTape): the instruction segments, the
//! per-constant kernel-table seeds (the GF constants — multiplication
//! tables are rebuilt on the receiving side, never shipped), the
//! precomputed scratch layout, and the surplus verify rows. It is what a
//! cluster coordinator sends to a worker so the worker can execute a
//! repair against locally held sectors without ever learning the code's
//! parity-check matrix or running a factorization.
//!
//! The byte format is a hand-rolled little-endian layout behind a
//! `"PPMW"` magic and a format version — no serialization framework, so
//! the encoding is stable by construction and auditable byte for byte.
//! Decoding is *structural* (tags, counts, truncation); turning a decoded
//! plan into something executable goes through [`WirePlan::compile`],
//! which re-validates every invariant the in-process tape compiler
//! guarantees (slot bounds, run-head discipline, full slot coverage) —
//! the executor's unzeroed-scratch fast path is only sound against
//! checked input, and wire input is untrusted.
//!
//! Compilation rebuilds one [`RegionMul`] kernel per distinct constant
//! (the isa-l `ec_init_tables` pattern, now applied across the network:
//! ship the seed, rebuild the table), shared across all instructions of
//! the plan via `Arc` exactly like an in-process tape.

use crate::plan::{DecodePlan, Strategy};
use crate::tape::{Instr, Loc, OpCode, PlanTape, TapeSegment, VerifyRun};
use ppm_gf::{Backend, GfWord, RegionMul};
use std::collections::HashMap;
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

/// Where a wire instruction reads from (the wire form of
/// [`Loc`](crate::tape::Loc)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireLoc {
    Sector(u32),
    Slot(u32),
}

/// One lowered `mult_XORs` on the wire: the kernel travels as its GF
/// constant (the table seed), not as a table.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WireInstr {
    constant: u64,
    src: WireLoc,
    dst: u32,
    /// `false` for a run head ([`OpCode::MulCopy`]), `true` for a fused
    /// continuation ([`OpCode::MulXorFusedCont`]).
    cont: bool,
}

/// One tape segment on the wire, scratch layout included.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct WireSegment {
    instrs: Vec<WireInstr>,
    scratch_boundary: u32,
    scratch_slots: u32,
    /// Per output: `(absolute slot, stripe sector)`.
    outputs: Vec<(u32, u32)>,
    zero_slots: Vec<u32>,
}

/// One surplus verify row on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WireVerifyRun {
    row: u32,
    instrs: Vec<WireInstr>,
}

/// A decode plan in transportable form: pure data, no kernel tables, no
/// lifetime ties to the plan it came from.
///
/// Produce one with [`WirePlan::from_plan`] (or
/// [`Planner::wire_plan_for`](crate::Planner::wire_plan_for)), move it as
/// bytes via [`WirePlan::encode`] / [`WirePlan::decode`], and turn it
/// back into something executable with [`WirePlan::compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePlan {
    gf_width: u32,
    total_sectors: u32,
    strategy: Strategy,
    faulty: Vec<u32>,
    phase_a: Vec<WireSegment>,
    phase_b: Option<WireSegment>,
    verify: Vec<WireVerifyRun>,
}

/// Narrows a plan-side `usize` into the wire's `u32`. Plan dimensions
/// are sector/slot counts — a value past `u32::MAX` is not a plan, it is
/// a bug, so this panics rather than producing a silently wrong wire.
fn narrow(value: usize) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("plan dimension {value} exceeds wire width"))
}

fn wire_instr<W: GfWord>(instr: &Instr<W>) -> WireInstr {
    WireInstr {
        constant: instr.kernel.constant().to_u64(),
        src: match instr.src {
            Loc::Sector(s) => WireLoc::Sector(narrow(s)),
            Loc::Slot(e) => WireLoc::Slot(narrow(e)),
        },
        dst: narrow(instr.dst),
        cont: instr.op == OpCode::MulXorFusedCont,
    }
}

fn wire_segment<W: GfWord>(seg: &TapeSegment<W>) -> WireSegment {
    WireSegment {
        instrs: seg.instrs.iter().map(wire_instr).collect(),
        scratch_boundary: narrow(seg.scratch_boundary),
        scratch_slots: narrow(seg.scratch_slots),
        outputs: seg
            .outputs
            .iter()
            .map(|&(slot, sector)| (narrow(slot), narrow(sector)))
            .collect(),
        zero_slots: seg.zero_slots.iter().map(|&s| narrow(s)).collect(),
    }
}

impl WirePlan {
    /// Captures `plan`'s compiled tape as a wire plan (compiling the tape
    /// first if the plan never went through a
    /// [`PlanCache`](crate::PlanCache) insert).
    pub fn from_plan<W: GfWord>(plan: &DecodePlan<W>) -> WirePlan {
        let tape = plan.ensure_tape();
        WirePlan {
            gf_width: W::WIDTH,
            total_sectors: narrow(plan.total_sectors()),
            strategy: plan.strategy(),
            faulty: plan.faulty().iter().map(|&s| narrow(s)).collect(),
            phase_a: tape.phase_a.iter().map(wire_segment).collect(),
            phase_b: tape.phase_b.as_ref().map(wire_segment),
            verify: tape
                .verify
                .iter()
                .map(|run| WireVerifyRun {
                    row: narrow(run.row),
                    instrs: run.instrs.iter().map(wire_instr).collect(),
                })
                .collect(),
        }
    }

    /// GF word width (bits) the plan's constants are expressed in.
    pub fn gf_width(&self) -> u32 {
        self.gf_width
    }

    /// Sectors in the stripe geometry the plan expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors as usize
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The faulty sectors the plan recovers, ascending.
    pub fn faulty(&self) -> Vec<usize> {
        self.faulty.iter().map(|&s| s as usize).collect()
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
        put_u32(&mut out, self.total_sectors);
        put_u8(&mut out, strategy_tag(self.strategy));
        put_u32(&mut out, narrow(self.faulty.len()));
        for &s in &self.faulty {
            put_u32(&mut out, s);
        }
        put_u32(&mut out, narrow(self.phase_a.len()));
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
        put_u32(&mut out, narrow(self.verify.len()));
        for run in &self.verify {
            put_u32(&mut out, run.row);
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
        let total_sectors = r.u32()?;
        let strategy = strategy_from_tag(r.u8()?)?;
        let faulty = r.vec(|r| r.u32())?;
        let phase_a = r.vec(read_segment)?;
        let phase_b = match r.u8()? {
            0 => None,
            1 => Some(read_segment(&mut r)?),
            _ => return Err(WireError::Malformed("phase-B flag out of range")),
        };
        let verify = r.vec(|r| {
            Ok(WireVerifyRun {
                row: r.u32()?,
                instrs: read_instrs(r)?,
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

    /// Compiles the plan into an executable form for word type `W`:
    /// validates every invariant the executor's unzeroed-scratch fast
    /// path relies on, then rebuilds one shared [`RegionMul`] kernel per
    /// distinct constant (checked construction — the scalar self-probe
    /// runs on the receiving host's hardware).
    pub fn compile<W: GfWord>(&self, backend: Backend) -> Result<ExecutableWirePlan<W>, WireError> {
        if self.gf_width != W::WIDTH {
            return Err(WireError::WidthMismatch {
                plan: self.gf_width,
                word: W::WIDTH,
            });
        }
        let total_sectors = self.total_sectors as usize;
        let faulty: Vec<usize> = self.faulty.iter().map(|&s| s as usize).collect();
        if faulty.windows(2).any(|w| w.first() >= w.get(1)) {
            return Err(WireError::Malformed("faulty set not sorted and unique"));
        }
        if faulty.iter().any(|&s| s >= total_sectors) {
            return Err(WireError::Malformed("faulty sector out of range"));
        }

        let mut kernels: KernelCache<W> = KernelCache::new(backend);
        let phase_a: Vec<TapeSegment<W>> = self
            .phase_a
            .iter()
            .map(|seg| compile_segment(seg, total_sectors, &mut kernels))
            .collect::<Result<_, _>>()?;
        let phase_b = self
            .phase_b
            .as_ref()
            .map(|seg| compile_segment(seg, total_sectors, &mut kernels))
            .transpose()?;

        // Every output sector must be one of the declared faulty sectors,
        // and no sector may be produced twice.
        let mut produced: Vec<usize> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(|seg| seg.outputs.iter().map(|&(_, sector)| sector))
            .collect();
        produced.sort_unstable();
        if produced.windows(2).any(|w| w.first() == w.get(1)) {
            return Err(WireError::Malformed("sector produced by two segments"));
        }
        if produced.iter().any(|s| faulty.binary_search(s).is_err()) {
            return Err(WireError::Malformed("output sector not in faulty set"));
        }

        let verify: Vec<VerifyRun<W>> = self
            .verify
            .iter()
            .map(|run| {
                let instrs = compile_instrs(
                    &run.instrs,
                    &mut kernels,
                    // Verify runs accumulate into a single slot, reading
                    // stripe sectors only.
                    |i, instr| match instr.src {
                        WireLoc::Sector(s) if (s as usize) < total_sectors => {
                            if instr.dst != 0 {
                                Err(WireError::Malformed("verify run writes a non-zero slot"))
                            } else if instr.cont == (i == 0) {
                                Err(WireError::Malformed("verify run head/continuation order"))
                            } else {
                                Ok(())
                            }
                        }
                        WireLoc::Sector(_) => {
                            Err(WireError::Malformed("verify source sector out of range"))
                        }
                        WireLoc::Slot(_) => {
                            Err(WireError::Malformed("verify run reads a scratch slot"))
                        }
                    },
                )?;
                Ok(VerifyRun {
                    row: run.row as usize,
                    instrs,
                })
            })
            .collect::<Result<_, WireError>>()?;

        let rest_splittable = phase_b.as_ref().is_some_and(|seg| {
            seg.instrs
                .get(seg.scratch_boundary..)
                .is_some_and(|outs| outs.iter().all(|i| matches!(i.src, Loc::Slot(_))))
        });
        Ok(ExecutableWirePlan {
            tape: PlanTape::from_parts(
                phase_a,
                phase_b,
                verify,
                total_sectors,
                self.strategy,
                None,
            ),
            faulty,
            rest_splittable,
        })
    }
}

/// A [`WirePlan`] compiled for local execution: the same [`PlanTape`] an
/// in-process plan compiles to — rebuilt, `Arc`-shared kernels included —
/// plus the plan metadata a cluster node needs. Execution entry points
/// live on [`Executor`](crate::Executor).
#[derive(Debug)]
pub struct ExecutableWirePlan<W: GfWord> {
    pub(crate) tape: PlanTape<W>,
    faulty: Vec<usize>,
    rest_splittable: bool,
}

impl<W: GfWord> ExecutableWirePlan<W> {
    /// The faulty sectors the plan recovers, ascending.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// Sectors in the stripe geometry the plan expects.
    pub fn total_sectors(&self) -> usize {
        self.tape.total_sectors
    }

    /// Total decode instructions (= predicted `mult_XORs`).
    pub fn mult_xors(&self) -> usize {
        self.tape.mult_xors()
    }

    /// Total verify-section instructions.
    pub fn verify_mult_xors(&self) -> usize {
        self.tape.verify_mult_xors()
    }

    /// Phase-A parallelism (independent sub-matrix segments).
    pub fn parallelism(&self) -> usize {
        self.tape.phase_a.len()
    }

    /// Whether the plan carries an `H_rest` phase-B segment.
    pub fn has_phase_b(&self) -> bool {
        self.tape.phase_b.is_some()
    }

    /// Whether phase B splits across nodes: true when every output-
    /// section instruction of `H_rest` reads intermediate `T` slots only
    /// (the Normal sequence), so a survivor host can compute the
    /// partial-sum `T` blocks from its local sectors and ship *those* —
    /// `z_b` blocks — instead of whole surviving sectors, and the
    /// aggregator finishes `F⁻¹ · T` without ever seeing the stripe.
    /// False for a matrix-first `H_rest`, which reads sectors directly.
    pub fn rest_splittable(&self) -> bool {
        self.rest_splittable
    }

    /// Number of partial-sum (`T`) blocks a split phase B ships — the
    /// scratch slots of the `H_rest` segment (0 without a phase B).
    pub fn rest_scratch_slots(&self) -> usize {
        self.tape
            .phase_b
            .as_ref()
            .map_or(0, |seg| seg.scratch_slots)
    }
}

/// Deduplicating kernel builder: one checked [`RegionMul`] per distinct
/// constant, shared by every instruction that uses it.
struct KernelCache<W: GfWord> {
    map: HashMap<u64, Arc<RegionMul<W>>>,
    backend: Backend,
}

impl<W: GfWord> KernelCache<W> {
    fn new(backend: Backend) -> Self {
        KernelCache {
            map: HashMap::new(),
            backend,
        }
    }

    fn get(&mut self, constant: u64) -> Result<Arc<RegionMul<W>>, WireError> {
        if W::WIDTH < 64 && (constant >> W::WIDTH) != 0 {
            return Err(WireError::Malformed("constant exceeds field width"));
        }
        let backend = self.backend;
        Ok(Arc::clone(self.map.entry(constant).or_insert_with(|| {
            Arc::new(RegionMul::new_checked(W::from_u64(constant), backend))
        })))
    }
}

/// Compiles a wire instruction list, running `check(index, instr)` on
/// each before building its kernel.
fn compile_instrs<W: GfWord>(
    instrs: &[WireInstr],
    kernels: &mut KernelCache<W>,
    check: impl Fn(usize, &WireInstr) -> Result<(), WireError>,
) -> Result<Vec<Instr<W>>, WireError> {
    instrs
        .iter()
        .enumerate()
        .map(|(i, instr)| {
            check(i, instr)?;
            Ok(Instr {
                kernel: kernels.get(instr.constant)?,
                src: match instr.src {
                    WireLoc::Sector(s) => Loc::Sector(s as usize),
                    WireLoc::Slot(e) => Loc::Slot(e as usize),
                },
                dst: instr.dst as usize,
                op: if instr.cont {
                    OpCode::MulXorFusedCont
                } else {
                    OpCode::MulCopy
                },
            })
        })
        .collect()
}

/// Validates and compiles one wire segment into a [`TapeSegment`],
/// enforcing the exact invariants the in-process tape compiler asserts:
/// section/slot bounds, run-head-before-continuation discipline, every
/// slot written by exactly one run head or listed for zeroing, and the
/// canonical output layout (output `i` in slot `scratch_slots + i`).
fn compile_segment<W: GfWord>(
    seg: &WireSegment,
    total_sectors: usize,
    kernels: &mut KernelCache<W>,
) -> Result<TapeSegment<W>, WireError> {
    let scratch_slots = seg.scratch_slots as usize;
    let scratch_boundary = seg.scratch_boundary as usize;
    let total_slots = scratch_slots + seg.outputs.len();
    if scratch_boundary > seg.instrs.len() {
        return Err(WireError::Malformed("scratch boundary past segment end"));
    }
    if total_slots > MAX_COUNT {
        return Err(WireError::Oversized {
            count: total_slots,
            max: MAX_COUNT,
        });
    }

    let mut written = vec![false; total_slots];
    let mut prev_dst: Option<usize> = None;
    for (i, instr) in seg.instrs.iter().enumerate() {
        let dst = instr.dst as usize;
        let in_scratch_section = i < scratch_boundary;
        if in_scratch_section {
            if dst >= scratch_slots {
                return Err(WireError::Malformed("scratch-section write past T slots"));
            }
            if !matches!(instr.src, WireLoc::Sector(_)) {
                return Err(WireError::Malformed("scratch section reads a slot"));
            }
        } else if dst < scratch_slots || dst >= total_slots {
            return Err(WireError::Malformed("output-section write out of range"));
        }
        match instr.src {
            WireLoc::Sector(s) => {
                if s as usize >= total_sectors {
                    return Err(WireError::Malformed("source sector out of range"));
                }
            }
            WireLoc::Slot(e) => {
                if e as usize >= scratch_slots {
                    return Err(WireError::Malformed("source slot out of range"));
                }
            }
        }
        if instr.cont {
            // A continuation extends the run immediately before it; the
            // executor folds a maximal head+continuations group into one
            // fused accumulate, so the destination must match.
            if prev_dst != Some(dst) || i == scratch_boundary {
                return Err(WireError::Malformed("continuation without its run head"));
            }
        } else {
            let slot = written
                .get_mut(dst)
                .ok_or(WireError::Malformed("run head out of range"))?;
            if *slot {
                return Err(WireError::Malformed("slot written by two run heads"));
            }
            *slot = true;
        }
        prev_dst = Some(dst);
    }

    for &slot in &seg.zero_slots {
        let flag = written
            .get_mut(slot as usize)
            .ok_or(WireError::Malformed("zero slot out of range"))?;
        if *flag {
            return Err(WireError::Malformed("zero slot also written by a run"));
        }
        *flag = true;
    }
    if !written.iter().all(|&w| w) {
        return Err(WireError::Malformed("a slot is neither written nor zeroed"));
    }

    let outputs: Vec<(usize, usize)> = seg
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &(slot, sector))| {
            if slot as usize != scratch_slots + i {
                Err(WireError::Malformed("non-canonical output slot layout"))
            } else if sector as usize >= total_sectors {
                Err(WireError::Malformed("output sector out of range"))
            } else {
                Ok((slot as usize, sector as usize))
            }
        })
        .collect::<Result<_, _>>()?;

    let instrs = compile_instrs(&seg.instrs, kernels, |_, _| Ok(()))?;
    Ok(TapeSegment {
        instrs,
        scratch_boundary,
        scratch_slots,
        outputs,
        zero_slots: seg.zero_slots.iter().map(|&s| s as usize).collect(),
    })
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

fn put_instrs(out: &mut Vec<u8>, instrs: &[WireInstr]) {
    put_u32(out, narrow(instrs.len()));
    for instr in instrs {
        put_u8(out, u8::from(instr.cont));
        match instr.src {
            WireLoc::Sector(s) => {
                put_u8(out, 0);
                put_u32(out, s);
            }
            WireLoc::Slot(e) => {
                put_u8(out, 1);
                put_u32(out, e);
            }
        }
        put_u32(out, instr.dst);
        put_u64(out, instr.constant);
    }
}

fn put_segment(out: &mut Vec<u8>, seg: &WireSegment) {
    put_u32(out, seg.scratch_boundary);
    put_u32(out, seg.scratch_slots);
    put_instrs(out, &seg.instrs);
    put_u32(out, narrow(seg.outputs.len()));
    for &(slot, sector) in &seg.outputs {
        put_u32(out, slot);
        put_u32(out, sector);
    }
    put_u32(out, narrow(seg.zero_slots.len()));
    for &slot in &seg.zero_slots {
        put_u32(out, slot);
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

    /// A length-prefixed list with the [`MAX_COUNT`] sanity bound.
    fn vec<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
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

fn read_instr(r: &mut Reader<'_>) -> Result<WireInstr, WireError> {
    let cont = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("opcode tag out of range")),
    };
    let src = match r.u8()? {
        0 => WireLoc::Sector(r.u32()?),
        1 => WireLoc::Slot(r.u32()?),
        _ => return Err(WireError::Malformed("source tag out of range")),
    };
    Ok(WireInstr {
        cont,
        src,
        dst: r.u32()?,
        constant: r.u64()?,
    })
}

fn read_instrs(r: &mut Reader<'_>) -> Result<Vec<WireInstr>, WireError> {
    r.vec(read_instr)
}

fn read_segment(r: &mut Reader<'_>) -> Result<WireSegment, WireError> {
    let scratch_boundary = r.u32()?;
    let scratch_slots = r.u32()?;
    let instrs = read_instrs(r)?;
    let outputs = r.vec(|r| Ok((r.u32()?, r.u32()?)))?;
    let zero_slots = r.vec(|r| r.u32())?;
    Ok(WireSegment {
        scratch_boundary,
        scratch_slots,
        instrs,
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

    #[test]
    fn byte_round_trip_is_exact() {
        for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            let plan = paper_plan(strategy);
            let wire = WirePlan::from_plan(&plan);
            let bytes = wire.encode();
            let back = WirePlan::decode(&bytes).unwrap();
            assert_eq!(back, wire, "{strategy:?}");
            assert_eq!(back.encode(), bytes, "{strategy:?}: re-encode is stable");
        }
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
        let exec = wire.compile::<u8>(Backend::Scalar).unwrap();
        assert_eq!(exec.mult_xors(), plan.mult_xors());
        assert_eq!(exec.faulty(), plan.faulty());
        assert_eq!(exec.parallelism(), plan.parallelism());
        assert!(exec.rest_splittable(), "Normal H_rest splits");
        assert_eq!(
            exec.rest_scratch_slots(),
            2,
            "paper case ships 2 partial-sum blocks"
        );
        // Distinct instructions with the same constant share one kernel.
        let mut by_constant: HashMap<u64, *const RegionMul<u8>> = HashMap::new();
        for instr in exec.tape.phase_a.iter().flat_map(|s| &s.instrs) {
            let c = instr.kernel.constant().to_u64();
            let ptr = Arc::as_ptr(&instr.kernel);
            assert_eq!(*by_constant.entry(c).or_insert(ptr), ptr);
        }
    }

    #[test]
    fn matrix_first_rest_is_not_splittable() {
        let plan = paper_plan(Strategy::PpmMatrixFirstRest);
        let exec = WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap();
        assert!(!exec.rest_splittable(), "matrix-first rest reads sectors");
        assert_eq!(exec.rest_scratch_slots(), 0);
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

    #[test]
    fn tampered_plans_fail_compile_not_execution() {
        let base = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));

        // Out-of-range source sector.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].src = WireLoc::Sector(9999);
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Continuation with no head.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].cont = true;
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Output sector outside the faulty set.
        let mut bad = base.clone();
        bad.phase_a[0].outputs[0].1 = 0;
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Constant past the field width.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].constant = 0x100;
        assert_eq!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed("constant exceeds field width")
        );

        // A slot no run writes and no zero list covers.
        let mut bad = base;
        if let Some(seg) = bad.phase_b.as_mut() {
            seg.scratch_slots += 1;
            for instr in seg.instrs.iter_mut().skip(seg.scratch_boundary as usize) {
                instr.dst += 1;
            }
            for out in seg.outputs.iter_mut() {
                out.0 += 1;
            }
        }
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));
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
