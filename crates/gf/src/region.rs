//! Region operations: the `mult_XORs` primitive of the PPM paper.
//!
//! `mult_XORs(d0, d1, a)` multiplies a region `d0` of bytes by a w-bit
//! constant `a` in GF(2^w) and XOR-sums the product into the same-sized
//! region `d1`. The paper measures every encoding/decoding strategy by how
//! many of these it performs, so this is the hot kernel of the whole
//! workspace.
//!
//! A [`RegionMul`] precomputes, for its constant, the products of every
//! nibble value, exploiting the linearity of GF(2^w) multiplication: a
//! word is the XOR of its nibbles shifted into place, so its product is
//! the XOR of their products. At w = 8 the two 16-entry nibble tables are
//! the whole state (a byte costs two lookups), together with the 8×8 bit
//! matrix of the constant that the GFNI kernel applies; at w = 16 and 32
//! they are expanded into one 256-entry table per byte of the word
//! (`table_k[b] = a · (b · x^{8k})`, one lookup per byte).
//! Buffers hold words in little-endian byte order and must be a multiple of
//! the word size in length.

use crate::simd::{self, DotKernel, DotTerm, DOT_TERMS};
use crate::stats::RegionStats;
use crate::word::GfWord;
use crate::Backend;

/// XORs `src` into `dst` (`dst ^= src`), 64 bits at a time.
///
/// This is the coefficient-1 fast path of `mult_XORs`; parity equations of
/// XOR-based codes (local parities of LRC, the `a₀ = 1` disk parity of SD)
/// consist entirely of these.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xor_region(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "region length mismatch");
    let (s8, s_tail) = src.as_chunks::<8>();
    let (d8, d_tail) = dst.as_chunks_mut::<8>();
    for (s, d) in s8.iter().zip(d8) {
        *d = (u64::from_ne_bytes(*s) ^ u64::from_ne_bytes(*d)).to_ne_bytes();
    }
    for (s, d) in s_tail.iter().zip(d_tail) {
        *d ^= *s;
    }
}

/// [`xor_region`], recording the operation into `stats`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xor_region_with(src: &[u8], dst: &mut [u8], stats: &RegionStats) {
    stats.record_plain_xor(src.len());
    xor_region(src, dst);
}

/// A precomputed multiply-by-constant over byte regions in GF(2^w).
///
/// Constructing one costs 30 XORs per byte of the word: the 16 + 16
/// products of the low and high nibble. At w = 8 those 32 bytes are the
/// table (what isa-l's `ec_init_tables` keeps per coefficient) and a
/// byte's product is `lo[b & 15] ^ hi[b >> 4]`; eight more bytes hold the
/// constant's GFNI bit matrix, a transpose of eight of those products. At
/// w = 16 and 32 they expand into one 256-entry table per byte of the
/// word, one XOR per entry, looked up once per byte. Decoding plans cache one `RegionMul`
/// per distinct non-zero matrix coefficient.
pub struct RegionMul<W: GfWord> {
    a: W,
    kind: Kind,
    backend: Backend,
    /// 32 nibble products and the 8 GFNI matrix bytes at w = 8,
    /// `256 * W::BYTES` split-table entries otherwise; empty for the 0/1
    /// fast paths.
    tables: Box<[W]>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Zero,
    One,
    Table,
}

impl<W: GfWord> RegionMul<W> {
    /// Prepares multiplication by `a` using the given [`Backend`].
    ///
    /// # Panics
    /// Panics if a forced SIMD backend is not available on this CPU.
    pub fn new(a: W, backend: Backend) -> Self {
        let backend = match backend {
            Backend::Auto => Backend::detect(),
            other => {
                assert!(
                    other.is_available(),
                    "backend {other:?} not available on this CPU"
                );
                other
            }
        };
        let kind = if a == W::ZERO {
            Kind::Zero
        } else if a == W::ONE {
            Kind::One
        } else {
            Kind::Table
        };
        let tables = match kind {
            Kind::Table => build_tables(a),
            _ => Box::default(),
        };
        RegionMul {
            a,
            kind,
            backend,
            tables,
        }
    }

    /// Like [`RegionMul::new`], but self-checking: after resolving the
    /// backend, probes the dispatched kernel against the portable scalar
    /// reference on a 64-byte buffer (covering every vector body and tail
    /// path for w ∈ {8, 16, 32}). If the kernel disagrees — a miscompiled
    /// vector path, a CPU erratum, or a fault forced via
    /// [`crate::force_simd_miscompute`] — the multiplier demotes itself to
    /// [`Backend::Scalar`] and bumps the process-wide
    /// [`crate::kernel_fallbacks`] counter, so callers always get correct
    /// region arithmetic. The probe runs once per constructed multiplier
    /// (plan-build time, not per region op), on stack buffers: two
    /// 64-byte passes.
    ///
    /// # Panics
    /// Panics if a forced SIMD backend is not available on this CPU.
    pub fn new_checked(a: W, backend: Backend) -> Self {
        let rm = Self::new(a, backend);
        if rm.kind != Kind::Table || rm.backend == Backend::Scalar {
            return rm;
        }
        let mut src = [0u8; 64];
        for (i, b) in (0u8..).zip(&mut src) {
            *b = i.wrapping_mul(37).wrapping_add(11);
        }
        let mut got = [0xA5u8; 64];
        let mut want = got;
        rm.table_apply(&src, &mut got, true);
        scalar_apply::<W>(&rm.tables, &src, &mut want, true);
        if got == want {
            rm
        } else {
            crate::fault::record_fallback();
            RegionMul {
                backend: Backend::Scalar,
                ..rm
            }
        }
    }

    /// The constant this region multiplier applies.
    pub fn constant(&self) -> W {
        self.a
    }

    /// The backend this multiplier resolved to (never [`Backend::Auto`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `dst ^= a · src` — the paper's `mult_XORs(src, dst, a)`.
    ///
    /// # Panics
    /// Panics if lengths differ or are not a multiple of the word size.
    pub fn mul_xor(&self, src: &[u8], dst: &mut [u8]) {
        self.check(src, dst);
        match self.kind {
            Kind::Zero => {}
            Kind::One => xor_region(src, dst),
            Kind::Table => self.table_apply(src, dst, true),
        }
    }

    /// [`RegionMul::mul_xor`], recording the operation into `stats`.
    ///
    /// A non-zero coefficient counts as one `mult_XORs` — the unit the
    /// paper's cost model predicts — with the coefficient-1 XOR fast
    /// path additionally tallied as a plain XOR. A zero coefficient does
    /// no work and records nothing.
    ///
    /// # Panics
    /// Panics if lengths differ or are not a multiple of the word size.
    pub fn mul_xor_with(&self, src: &[u8], dst: &mut [u8], stats: &RegionStats) {
        if self.kind != Kind::Zero {
            stats.record_mult_xor(src.len(), self.kind == Kind::One);
        }
        self.mul_xor(src, dst);
    }

    /// Records the stats of one logical `mult_XORs` over `bytes` region
    /// bytes into `stats` *without* performing it — for executors that
    /// split a region into chunks (each chunk applies the coefficient
    /// separately) but must tally the operation once, keeping the
    /// executed ledger comparable to the unchunked plan prediction.
    pub fn record_with(&self, bytes: usize, stats: &RegionStats) {
        if self.kind != Kind::Zero {
            stats.record_mult_xor(bytes, self.kind == Kind::One);
        }
    }

    /// `dst = a · src` (overwrites the destination).
    ///
    /// # Panics
    /// Panics if lengths differ or are not a multiple of the word size.
    pub fn mul_copy(&self, src: &[u8], dst: &mut [u8]) {
        self.check(src, dst);
        match self.kind {
            Kind::Zero => dst.fill(0),
            Kind::One => dst.copy_from_slice(src),
            Kind::Table => self.table_apply(src, dst, false),
        }
    }

    fn check(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "region length mismatch");
        assert_eq!(
            src.len() % W::BYTES,
            0,
            "region length {} is not a multiple of the {}-byte word",
            src.len(),
            W::BYTES
        );
    }

    /// The table as bytes at w = 8: 32 nibble products, then the GFNI
    /// bit matrix.
    fn tables_u8(&self) -> Option<&[u8]> {
        (W::WIDTH == 8).then(|| {
            // SAFETY: W::WIDTH == 8 implies W = u8 (the trait is sealed
            // over u8/u16/u32), so the table memory is `len` bytes of u8.
            unsafe {
                std::slice::from_raw_parts(self.tables.as_ptr().cast::<u8>(), self.tables.len())
            }
        })
    }

    /// The GFNI bit matrix of a w = 8 table constant.
    fn gfni_matrix(&self) -> Option<u64> {
        let m = self.tables_u8()?.last_chunk()?;
        Some(u64::from_le_bytes(*m))
    }

    fn table_apply(&self, src: &[u8], dst: &mut [u8], accumulate: bool) {
        if let Some(t8) = self.tables_u8() {
            if simd::try_mul_u8(self.backend, t8, src, dst, accumulate) {
                crate::fault::poison_if_forced(dst);
                return;
            }
        }
        if W::WIDTH == 32
            && simd::try_mul_u32(self.backend, self.a.to_u64() as u32, src, dst, accumulate)
        {
            crate::fault::poison_if_forced(dst);
            return;
        }
        if W::WIDTH == 16 {
            // SAFETY: W::WIDTH == 16 implies W = u16 (sealed trait), so the
            // table memory is exactly 512 u16 entries.
            let t16: &[u16] = unsafe {
                std::slice::from_raw_parts(self.tables.as_ptr().cast::<u16>(), self.tables.len())
            };
            if simd::try_mul_u16(self.backend, t16, src, dst, accumulate) {
                crate::fault::poison_if_forced(dst);
                return;
            }
        }
        scalar_apply::<W>(&self.tables, src, dst, accumulate);
    }

    /// [`RegionMul::mul_copy`], recording the operation into `stats`.
    ///
    /// The ledger entry is identical to [`RegionMul::mul_xor_with`]'s —
    /// overwriting and accumulating are the same table pass over the
    /// same bytes, so a run-head overwrite counts exactly like the XOR
    /// the graph walker would have issued into zeroed scratch.
    ///
    /// # Panics
    /// Panics if lengths differ or are not a multiple of the word size.
    pub fn mul_copy_with(&self, src: &[u8], dst: &mut [u8], stats: &RegionStats) {
        if self.kind != Kind::Zero {
            stats.record_mult_xor(src.len(), self.kind == Kind::One);
        }
        self.mul_copy(src, dst);
    }

    /// `mul_xor`/`mul_copy` dispatch without the length check — the
    /// fused entry points validate every term once up front and then
    /// sweep the destination block by block, where the slicing
    /// guarantees the invariant per block.
    fn apply_unchecked(&self, src: &[u8], dst: &mut [u8], accumulate: bool) {
        match self.kind {
            Kind::Zero => {
                if !accumulate {
                    dst.fill(0);
                }
            }
            Kind::One => {
                if accumulate {
                    xor_region(src, dst);
                } else {
                    dst.copy_from_slice(src);
                }
            }
            Kind::Table => self.table_apply(src, dst, accumulate),
        }
    }
}

/// Destination block size for the fused accumulate sweep: small enough to
/// stay resident in L1/L2 while every source term is applied to it, large
/// enough to amortize loop overhead. A multiple of every word size (1, 2,
/// 4 bytes).
const FUSE_BLOCK_BYTES: usize = 256 * 1024;

/// Fused multi-source accumulate: `dst ^= Σ aᵢ · srcᵢ` over all `terms`.
///
/// Semantically identical to calling [`RegionMul::mul_xor`] once per term
/// (per-byte XOR accumulation is order-independent), but the destination
/// is swept in `FUSE_BLOCK_BYTES` blocks with every term applied to a
/// block before moving on — so for plans whose destinations are fed by
/// several coefficients, `dst` is written from cache instead of streamed
/// from memory once per term. This is the execution kernel behind the
/// plan tape's fused instruction runs.
///
/// # Panics
/// Panics if any source length differs from `dst` or is not a multiple of
/// the word size.
pub fn mul_xor_fused<W: GfWord>(terms: &[(&RegionMul<W>, &[u8])], dst: &mut [u8]) {
    fused_sweep(terms, dst, true);
}

/// [`mul_xor_fused`] with the first term *overwriting* the destination:
/// `dst = a₀ · src₀ ^ Σᵢ₌₁ aᵢ · srcᵢ`. With no terms, `dst` is zeroed
/// (the empty sum).
///
/// This is the run-head kernel for compiled plan tapes: the tape knows
/// each scratch slot's first write, so the head overwrites whatever the
/// buffer held and the executor never needs zeroed scratch — dropping
/// the arena's per-decode zeroing sweep.
///
/// # Panics
/// Panics if any source length differs from `dst` or is not a multiple of
/// the word size.
pub fn mul_copy_fused<W: GfWord>(terms: &[(&RegionMul<W>, &[u8])], dst: &mut [u8]) {
    if terms.is_empty() {
        dst.fill(0);
        return;
    }
    fused_sweep(terms, dst, false);
}

fn fused_sweep<W: GfWord>(terms: &[(&RegionMul<W>, &[u8])], dst: &mut [u8], accumulate: bool) {
    for (rm, src) in terms {
        rm.check(src, dst);
    }
    if dot_run(terms, dst, accumulate) {
        return;
    }
    let mut off = 0;
    while off < dst.len() {
        let end = (off + FUSE_BLOCK_BYTES).min(dst.len());
        for (i, (rm, src)) in terms.iter().enumerate() {
            rm.apply_unchecked(&src[off..end], &mut dst[off..end], accumulate || i > 0);
        }
        off = end;
    }
}

/// Runs a whole fused run through the register-accumulating dot kernel,
/// [`DOT_TERMS`] terms per pass, so the destination is written once per
/// pass instead of once per term. A run qualifies when every non-zero
/// term is a [`Backend::Gfni`] multiplier (a kernel its probe demoted is
/// [`Backend::Scalar`] and does not) and every table term is a w = 8
/// kernel. Returns `false`, having written nothing, when the run must
/// take the per-term sweep.
fn dot_run<W: GfWord>(terms: &[(&RegionMul<W>, &[u8])], dst: &mut [u8], accumulate: bool) -> bool {
    let mut gf = false;
    for (rm, _) in terms {
        match rm.kind {
            Kind::Zero => {}
            _ if rm.backend != Backend::Gfni => return false,
            Kind::One => {}
            Kind::Table if rm.gfni_matrix().is_some() => gf = true,
            Kind::Table => return false,
        }
    }
    let Some(kernel) = DotKernel::detect() else {
        return false;
    };
    let mut group = [DotTerm {
        matrix: None,
        src: &[],
    }; DOT_TERMS];
    let mut n = 0;
    let mut acc = accumulate;
    for (rm, src) in terms {
        let matrix = match rm.kind {
            Kind::Zero => continue,
            Kind::One => None,
            // Checked above: every table term has a matrix.
            Kind::Table => rm.gfni_matrix(),
        };
        if n == DOT_TERMS {
            kernel.run(&group, dst, acc);
            acc = true;
            n = 0;
        }
        group[n] = DotTerm { matrix, src };
        n += 1;
    }
    if n > 0 || !acc {
        kernel.run(&group[..n], dst, acc);
    }
    if gf {
        crate::fault::poison_if_forced(dst);
    }
    true
}

/// The GFNI bit matrix of the constant 1 (the identity over GF(2)):
/// what [`affine_matrix`] gives for the basis `x^j`.
const IDENTITY_MATRIX: u64 = 0x0102_0408_1020_4080;

/// A multi-destination dot product compiled once from its coefficients:
/// `dst_d = Σₛ M[d][s] · src_s` for up to [`MultiDot::MAX_DESTS`]
/// destinations, the shape of isa-l's `gf_Nvect_dot_prod`. Each 64-byte
/// step reads each source once and keeps two accumulators per
/// destination in registers, so a source that `D` fused runs share is
/// read once instead of `D` times. The kernel never branches on a
/// coefficient: an absent term multiplies by the zero matrix.
///
/// A table exists only where its kernel runs — see [`MultiDot::new`];
/// where it does not, the caller runs each destination through
/// [`mul_copy_fused`] instead, bit-identically.
#[derive(Clone, Debug)]
pub struct MultiDot {
    kernel: DotKernel,
    dests: usize,
    /// GFNI bit matrices, source-major: entry `s · dests + d` multiplies
    /// source `s` into destination `d`.
    matrices: Box<[u64]>,
}

impl MultiDot {
    /// Most destinations one table computes.
    pub const MAX_DESTS: usize = 4;

    /// Compiles `coeffs` — source-major rows of `dests` entries, `None`
    /// for an absent term — into a table, or returns `None` when the
    /// kernel cannot run them. It runs when `1 ≤ dests ≤ MAX_DESTS`,
    /// the CPU has GFNI and AVX2, and every non-zero coefficient is a
    /// [`Backend::Gfni`] w = 8 multiplier: the gate a fused run's dot
    /// kernel applies, so a kernel its probe demoted (now
    /// [`Backend::Scalar`]), a forced SSSE3/AVX2/scalar backend and every
    /// w = 16 or 32 table all refuse.
    pub fn new<W: GfWord>(dests: usize, coeffs: &[Option<&RegionMul<W>>]) -> Option<Self> {
        if !(1..=Self::MAX_DESTS).contains(&dests) || !coeffs.len().is_multiple_of(dests) {
            return None;
        }
        let kernel = DotKernel::detect()?;
        let matrices = coeffs
            .iter()
            .map(|c| match c.map(|rm| (rm.kind, rm)) {
                None | Some((Kind::Zero, _)) => Some(0),
                Some((_, rm)) if rm.backend != Backend::Gfni => None,
                Some((Kind::One, _)) => Some(IDENTITY_MATRIX),
                Some((Kind::Table, rm)) => rm.gfni_matrix(),
            })
            .collect::<Option<Box<[u64]>>>()?;
        Some(MultiDot {
            kernel,
            dests,
            matrices,
        })
    }

    /// `dsts[d] = Σₛ M[d][s] · src(s)` for every destination at once
    /// (overwriting; no sources zeroes them). `src(s)` is asked once per
    /// source.
    ///
    /// # Panics
    /// Panics if `dsts` does not hold the table's destination count of
    /// regions or a region's length differs from the first destination's.
    pub fn mul_copy<'a>(&self, src: impl Fn(usize) -> &'a [u8], dsts: &mut [&mut [u8]]) {
        self.apply(src, dsts, false);
    }

    /// [`MultiDot::mul_copy`], accumulating: `dsts[d] ^= Σₛ M[d][s] ·
    /// src(s)`.
    ///
    /// # Panics
    /// As [`MultiDot::mul_copy`].
    pub fn mul_xor<'a>(&self, src: impl Fn(usize) -> &'a [u8], dsts: &mut [&mut [u8]]) {
        self.apply(src, dsts, true);
    }

    fn apply<'a>(&self, src: impl Fn(usize) -> &'a [u8], dsts: &mut [&mut [u8]], accumulate: bool) {
        assert_eq!(dsts.len(), self.dests, "destination count mismatch");
        match dsts {
            [a] => self.passes(&src, [a], accumulate),
            [a, b] => self.passes(&src, [a, b], accumulate),
            [a, b, c] => self.passes(&src, [a, b, c], accumulate),
            [a, b, c, d] => self.passes(&src, [a, b, c, d], accumulate),
            _ => unreachable!("MultiDot::new bounds the destinations"),
        }
    }

    /// Runs the kernel [`DOT_TERMS`] sources per pass; later passes
    /// accumulate onto the first.
    fn passes<'a, const D: usize>(
        &self,
        src: &impl Fn(usize) -> &'a [u8],
        dsts: [&mut &mut [u8]; D],
        accumulate: bool,
    ) {
        let mut dsts = dsts.map(|d| &mut **d);
        let (rows, _) = self.matrices.as_chunks::<D>();
        if rows.is_empty() {
            if !accumulate {
                dsts.iter_mut().for_each(|d| d.fill(0));
            }
            return;
        }
        let mut srcs: [&[u8]; DOT_TERMS] = [&[]; DOT_TERMS];
        let mut acc = accumulate;
        for (pass, mats) in rows.chunks(DOT_TERMS).enumerate() {
            for (j, slot) in srcs.iter_mut().take(mats.len()).enumerate() {
                *slot = src(pass * DOT_TERMS + j);
            }
            self.kernel
                .run_multi(&srcs[..mats.len()], mats, &mut dsts, acc);
            acc = true;
        }
        for d in &mut dsts {
            crate::fault::poison_if_forced(d);
        }
    }
}

/// [`mul_xor_fused`], recording each term into `stats`.
///
/// The ledger is identical to the unfused loop: every non-zero term
/// tallies one `mult_XORs` over the full region (coefficient-1 terms also
/// tally a plain XOR); zero terms record nothing. Executors on the tape
/// path therefore count exactly what the cost model predicted.
///
/// # Panics
/// Panics if any source length differs from `dst` or is not a multiple of
/// the word size.
pub fn mul_xor_fused_with<W: GfWord>(
    terms: &[(&RegionMul<W>, &[u8])],
    dst: &mut [u8],
    stats: &RegionStats,
) {
    for (rm, src) in terms {
        rm.record_with(src.len(), stats);
    }
    mul_xor_fused(terms, dst);
}

/// [`mul_copy_fused`], recording each term into `stats` with the same
/// ledger as [`mul_xor_fused_with`] — the overwriting head is the same
/// table pass as an XOR into zeroed scratch, so executed == predicted
/// is preserved.
///
/// # Panics
/// Panics if any source length differs from `dst` or is not a multiple of
/// the word size.
pub fn mul_copy_fused_with<W: GfWord>(
    terms: &[(&RegionMul<W>, &[u8])],
    dst: &mut [u8],
    stats: &RegionStats,
) {
    for (rm, src) in terms {
        rm.record_with(src.len(), stats);
    }
    mul_copy_fused(terms, dst);
}

impl<W: GfWord> std::fmt::Debug for RegionMul<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionMul")
            .field("a", &self.a)
            .field("kind", &self.kind)
            .field("backend", &self.backend)
            .finish()
    }
}

/// Builds the product tables for a non-trivial constant.
///
/// For byte `k` of the word, the 16 + 16 products `a · (n << 8k)` and
/// `a · (n << (8k + 4))` of its low and high nibble are filled
/// incrementally (the entry for `n` is the entry for `n` with its lowest
/// set bit cleared, XOR the basis product for that bit). At w = 8 those
/// 32 products are the table. Wider words expand each pair into the
/// 256-entry split table `tables[k*256 + b] = a · (b << 8k)`, which by
/// linearity is `lo[b & 15] ^ hi[b >> 4]`; at w = 8 the GFNI bit matrix
/// follows the 32 products.
fn build_tables<W: GfWord>(a: W) -> Box<[W]> {
    let mut nibbles = [[W::ZERO; 16]; 8];
    let mut cur = a; // a · x^(4j + i), advanced as we walk j and i
    for half in nibbles.iter_mut().take(2 * W::BYTES) {
        let mut basis = [W::ZERO; 4];
        for slot in &mut basis {
            *slot = cur;
            cur = cur.xtimes();
        }
        for n in 1..16usize {
            half[n] = half[n & (n - 1)].gf_add(basis[n.trailing_zeros() as usize]);
        }
    }
    if W::BYTES == 1 {
        // The basis products a·x^j are entries 1, 2, 4, 8 of each half.
        let basis = std::array::from_fn(|j| nibbles[j / 4][1 << (j % 4)].to_u64() as u8);
        let mut t = [W::ZERO; 40];
        let (lo, rest) = t.split_at_mut(16);
        let (hi, matrix) = rest.split_at_mut(16);
        lo.copy_from_slice(&nibbles[0]);
        hi.copy_from_slice(&nibbles[1]);
        for (slot, b) in matrix.iter_mut().zip(affine_matrix(basis).to_le_bytes()) {
            *slot = W::from_u64(b.into());
        }
        return Box::new(t);
    }
    let mut t = vec![W::ZERO; 256 * W::BYTES];
    for (tk, pair) in t.chunks_exact_mut(256).zip(nibbles.chunks_exact(2)) {
        // Row `h` of the 16×16 table is entry `16·h + l`.
        for (row, &h) in tk.chunks_exact_mut(16).zip(&pair[1]) {
            for (entry, &l) in row.iter_mut().zip(&pair[0]) {
                *entry = l.gf_add(h);
            }
        }
    }
    t.into_boxed_slice()
}

/// The `vgf2p8affineqb` operand that multiplies each byte by `a`, from
/// its basis products `basis[j] = a·x^j`. Output bit `i` of `a·b` is the
/// parity of `b` masked by bit `i` of every basis product, a row the
/// instruction reads from byte `7 - i`: so transpose the 8×8 bit matrix
/// whose byte `j` is `basis[j]` (three delta swaps), then reverse bytes.
fn affine_matrix(basis: [u8; 8]) -> u64 {
    let mut x = u64::from_le_bytes(basis);
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x.swap_bytes()
}

fn scalar_apply<W: GfWord>(tables: &[W], src: &[u8], dst: &mut [u8], accumulate: bool) {
    if W::BYTES == 1 {
        let (lo, hi) = tables.split_at(16);
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            let p = lo[usize::from(s & 15)].gf_add(hi[usize::from(s >> 4)]);
            let p = p.to_u64() as u8;
            *d = if accumulate { *d ^ p } else { p };
        }
        return;
    }
    let b = W::BYTES;
    for (s, d) in src.chunks_exact(b).zip(dst.chunks_exact_mut(b)) {
        let mut acc = W::ZERO;
        for (k, &byte) in s.iter().enumerate() {
            acc = acc.gf_add(tables[k * 256 + byte as usize]);
        }
        let out = if accumulate {
            acc.gf_add(load_le::<W>(d))
        } else {
            acc
        };
        store_le(out, d);
    }
}

#[inline]
fn load_le<W: GfWord>(b: &[u8]) -> W {
    let mut x = 0u64;
    for (i, &v) in b.iter().enumerate() {
        x |= (v as u64) << (8 * i);
    }
    W::from_u64(x)
}

#[inline]
fn store_le<W: GfWord>(x: W, b: &mut [u8]) {
    let v = x.to_u64();
    for (i, out) in b.iter_mut().enumerate() {
        *out = (v >> (8 * i)) as u8;
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    fn wordwise_reference<W: GfWord>(a: W, src: &[u8], dst: &mut [u8]) {
        for (s, d) in src
            .chunks_exact(W::BYTES)
            .zip(dst.chunks_exact_mut(W::BYTES))
        {
            let prod = a.gf_mul(load_le::<W>(s));
            store_le(prod.gf_add(load_le::<W>(d)), d);
        }
    }

    fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect()
    }

    fn check_all_widths(len: usize, a64: u64) {
        macro_rules! go {
            ($W:ty) => {{
                let a = <$W as GfWord>::from_u64(a64);
                let src = pseudo_bytes(len, 42);
                let mut dst = pseudo_bytes(len, 77);
                let mut expect = dst.clone();
                wordwise_reference::<$W>(a, &src, &mut expect);
                let rm = RegionMul::<$W>::new(a, Backend::Scalar);
                rm.mul_xor(&src, &mut dst);
                assert_eq!(dst, expect, "w={} a={a64:#x}", <$W as GfWord>::WIDTH);
            }};
        }
        go!(u8);
        go!(u16);
        go!(u32);
    }

    #[test]
    fn scalar_region_matches_wordwise_reference() {
        for a in [0u64, 1, 2, 3, 0x1D, 0xAB, 0xFE] {
            check_all_widths(64, a);
        }
        check_all_widths(8, 0x53);
    }

    #[test]
    fn mul_copy_matches_mul_xor_from_zero() {
        let src = pseudo_bytes(96, 9);
        let rm = RegionMul::<u16>::new(0x1234, Backend::Scalar);
        let mut a = vec![0u8; 96];
        let mut b = pseudo_bytes(96, 5);
        rm.mul_xor(&src, &mut a);
        rm.mul_copy(&src, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_and_one_fast_paths() {
        let src = pseudo_bytes(32, 3);
        let orig = pseudo_bytes(32, 4);

        let mut dst = orig.clone();
        RegionMul::<u8>::new(0, Backend::Scalar).mul_xor(&src, &mut dst);
        assert_eq!(dst, orig, "a=0 must leave dst unchanged");

        let mut dst = orig.clone();
        RegionMul::<u8>::new(1, Backend::Scalar).mul_xor(&src, &mut dst);
        let expect: Vec<u8> = src.iter().zip(&orig).map(|(s, d)| s ^ d).collect();
        assert_eq!(dst, expect, "a=1 must be plain XOR");

        let mut dst = orig.clone();
        RegionMul::<u8>::new(0, Backend::Scalar).mul_copy(&src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn simd_w16_matches_scalar() {
        if !Backend::Ssse3.is_available() {
            return;
        }
        for backend in [Backend::Ssse3, Backend::Avx2, Backend::Gfni, Backend::Auto] {
            if !backend.is_available() {
                continue;
            }
            // Lengths probing the 32-byte vector body and the 2-byte tail.
            for len in [0usize, 2, 30, 32, 34, 64, 66, 1024] {
                let src = pseudo_bytes(len, 31);
                let base = pseudo_bytes(len, 37);
                for a in [1u16, 2, 0x1D2C, 0x8000, 0xFFFF] {
                    let mut scalar = base.clone();
                    RegionMul::<u16>::new(a, Backend::Scalar).mul_xor(&src, &mut scalar);
                    let mut vect = base.clone();
                    RegionMul::<u16>::new(a, backend).mul_xor(&src, &mut vect);
                    assert_eq!(scalar, vect, "xor backend={backend:?} len={len} a={a:#x}");

                    let mut scalar = base.clone();
                    RegionMul::<u16>::new(a, Backend::Scalar).mul_copy(&src, &mut scalar);
                    let mut vect = base.clone();
                    RegionMul::<u16>::new(a, backend).mul_copy(&src, &mut vect);
                    assert_eq!(scalar, vect, "copy backend={backend:?} len={len} a={a:#x}");
                }
            }
        }
    }

    /// The GFNI operand, applied as `vgf2p8affineqb` applies it (output bit
    /// `i` is the parity of the input masked by byte `7 - i`), multiplies
    /// every byte by its constant — checked in software, on any host.
    #[test]
    fn gfni_matrix_multiplies_by_its_constant() {
        for a in 0..=255u8 {
            let t = build_tables(a);
            let m = u64::from_le_bytes(std::array::from_fn(|i| t[32 + i]));
            for b in 0..=255u8 {
                let affine = (0..8).fold(0u8, |out, i| {
                    let row = (m >> (8 * (7 - i))) as u8;
                    out | (((row & b).count_ones() & 1) as u8) << i
                });
                assert_eq!(affine, a.gf_mul(b), "a={a:#x} b={b:#x}");
            }
        }
    }

    /// Differential gate for the w = 8 vector kernels: fused runs (the
    /// dot kernel where they qualify, the per-term sweep otherwise) and
    /// single-term multiplies against scalar per-term `mul_xor`. Every
    /// length 0..=160, and two that run many 128-byte steps, meets 32
    /// (source, destination) offset pairs in 0..32, and the lengths
    /// together cover all 1024 pairs; both overwriting and accumulating;
    /// 1..=17 terms, across the 16-term pass boundary; mixed 0/1/table,
    /// table-only and XOR-only coefficients.
    #[test]
    fn vector_kernels_match_scalar_per_term() {
        const MAX_LEN: usize = 4096 + 37;
        const OFFSETS: usize = 32;
        const MAX_TERMS: usize = 17;
        const SPAN: usize = MAX_LEN + OFFSETS;
        let backends: Vec<Backend> = [Backend::Ssse3, Backend::Avx2, Backend::Gfni]
            .into_iter()
            .filter(|b| b.is_available())
            .collect();
        println!("ppm-gf w8 differential: backends exercised {backends:?}");
        let mixes: [&[u8]; 3] = [
            &[0, 0x1D, 1, 0x02, 0xFF, 0, 0x80, 1, 0x53],
            &[0x1D, 0x02, 0xFF, 0x8E, 0x53, 0xCA, 0x80],
            &[1, 0, 1],
        ];
        let pool = pseudo_bytes(MAX_TERMS * SPAN, 7);
        let base = pseudo_bytes(SPAN, 8);
        let scalar: Vec<RegionMul<u8>> = (0..=255)
            .map(|a| RegionMul::new(a, Backend::Scalar))
            .collect();
        for backend in backends {
            let rms: Vec<RegionMul<u8>> = (0..=255).map(|a| RegionMul::new(a, backend)).collect();
            for len in (0..=160).chain([4096, MAX_LEN]) {
                for i in 0..OFFSETS {
                    let (so, d0) = (i, (5 * i + len) % OFFSETS);
                    let d = d0..d0 + len;
                    let mix = mixes[(len + i) % mixes.len()];
                    let coeffs: Vec<u8> = (0..1 + (len + i) % MAX_TERMS)
                        .map(|j| mix[(3 * j + len) % mix.len()])
                        .collect();
                    let srcs: Vec<&[u8]> = (0..coeffs.len())
                        .map(|j| &pool[j * SPAN + so..j * SPAN + so + len])
                        .collect();
                    let terms: Vec<(&RegionMul<u8>, &[u8])> = coeffs
                        .iter()
                        .zip(&srcs)
                        .map(|(&c, &src)| (&rms[usize::from(c)], src))
                        .collect();
                    for accumulate in [false, true] {
                        let mut want = base.clone();
                        if !accumulate {
                            want[d.clone()].fill(0);
                        }
                        for (&c, src) in coeffs.iter().zip(&srcs) {
                            scalar[usize::from(c)].mul_xor(src, &mut want[d.clone()]);
                        }
                        let mut got = base.clone();
                        if accumulate {
                            mul_xor_fused(&terms, &mut got[d.clone()]);
                        } else {
                            mul_copy_fused(&terms, &mut got[d.clone()]);
                        }
                        assert_eq!(
                            got, want,
                            "{backend:?} fused len={len} src+{so} dst+{d0} \
                             accumulate={accumulate} coeffs={coeffs:?}"
                        );

                        let c = 2 + ((7 * len + i) % 254) as u8;
                        let mut want = base.clone();
                        if !accumulate {
                            want[d.clone()].fill(0);
                        }
                        scalar[usize::from(c)].mul_xor(srcs[0], &mut want[d.clone()]);
                        let mut got = base.clone();
                        if accumulate {
                            rms[usize::from(c)].mul_xor(srcs[0], &mut got[d.clone()]);
                        } else {
                            rms[usize::from(c)].mul_copy(srcs[0], &mut got[d.clone()]);
                        }
                        assert_eq!(
                            got, want,
                            "{backend:?} single len={len} src+{so} dst+{d0} \
                             accumulate={accumulate} a={c:#x}"
                        );
                    }
                }
            }
        }
    }

    /// A run takes the dot kernel only when every non-zero term is GFNI,
    /// so a forced SSSE3 or AVX2 run keeps its own kernels. A refused run
    /// is left untouched for the per-term sweep.
    #[test]
    fn dot_run_routes_by_term_backends() {
        let src = pseudo_bytes(200, 1);
        let base = pseudo_bytes(200, 2);
        let dot = |pair: [(u8, Backend); 2]| {
            let rms = pair.map(|(a, backend)| RegionMul::<u8>::new(a, backend));
            let mut dst = base.clone();
            let ran = dot_run(&[(&rms[0], &src[..]), (&rms[1], &src[..])], &mut dst, true);
            assert!(ran || dst == base, "a refused run must write nothing");
            ran
        };
        assert!(!dot([(1, Backend::Scalar), (0, Backend::Scalar)]));
        assert!(!dot([(0x1D, Backend::Scalar), (1, Backend::Scalar)]));
        if Backend::Avx2.is_available() {
            assert!(!dot([(1, Backend::Avx2), (1, Backend::Avx2)]));
            assert!(!dot([(1, Backend::Ssse3), (0, Backend::Ssse3)]));
            assert!(!dot([(0x1D, Backend::Avx2), (1, Backend::Avx2)]));
        }
        if Backend::Gfni.is_available() {
            assert!(dot([(0x1D, Backend::Gfni), (1, Backend::Gfni)]));
            assert!(dot([(1, Backend::Gfni), (1, Backend::Gfni)]));
            assert!(dot([(0x1D, Backend::Gfni), (0, Backend::Scalar)]));
            assert!(!dot([(0x1D, Backend::Gfni), (1, Backend::Avx2)]));
            assert!(!dot([(0x1D, Backend::Gfni), (0x53, Backend::Scalar)]));
            assert!(!dot([(0x1D, Backend::Gfni), (0x53, Backend::Avx2)]));
        }
    }

    /// ROADMAP 9(c) for the multi-destination kernel: every length
    /// 0..=4·step+tail (step 64) meets 8 (source, destination) offset
    /// pairs in 0..32, and the lengths together cover all 1024 pairs;
    /// D = 1..=4 destinations over 1..=2·DOT_TERMS+1 sources, so one,
    /// two and three kernel passes; zero, one and general coefficients,
    /// absent terms among them; overwrite and accumulate. Each
    /// destination is checked against scalar per-term `mul_xor`.
    #[test]
    fn multi_dot_matches_scalar_per_term() {
        const STEP: usize = 64;
        const MAX_LEN: usize = 4 * STEP + STEP - 1;
        const OFFSETS: usize = 32;
        const PAIRS: usize = 8;
        const MAX_SOURCES: usize = 2 * DOT_TERMS + 1;
        const SPAN: usize = MAX_LEN + OFFSETS;
        if !Backend::Gfni.is_available() {
            return;
        }
        let mixes: [&[u8]; 3] = [
            &[0, 0x1D, 1, 0x02, 0xFF, 0, 0x80, 1, 0x53],
            &[0x1D, 0x02, 0xFF, 0x8E, 0x53, 0xCA, 0x80],
            &[1, 0, 1],
        ];
        let pool = pseudo_bytes(MAX_SOURCES * SPAN, 17);
        let base = pseudo_bytes(MultiDot::MAX_DESTS * SPAN, 18);
        let scalar: Vec<RegionMul<u8>> = (0..=255)
            .map(|a| RegionMul::new(a, Backend::Scalar))
            .collect();
        let gfni: Vec<RegionMul<u8>> = (0..=255)
            .map(|a| RegionMul::new(a, Backend::Gfni))
            .collect();
        for len in 0..=MAX_LEN {
            for j in 0..PAIRS {
                let pair = (len * PAIRS + j) % (OFFSETS * OFFSETS);
                let (so, d0) = (pair / OFFSETS, pair % OFFSETS);
                let dests = 1 + (len + j) % MultiDot::MAX_DESTS;
                let sources = 1 + (7 * len + 3 * j) % MAX_SOURCES;
                let mix = mixes[(len + j) % mixes.len()];
                // Source-major coefficients; `None` (an absent term) where
                // the mix picks 0 on odd positions.
                let coeffs: Vec<Option<u8>> = (0..sources * dests)
                    .map(|k| {
                        let c = mix[(5 * k + len) % mix.len()];
                        (c != 0 || k % 2 == 0).then_some(c)
                    })
                    .collect();
                let srcs: Vec<&[u8]> = (0..sources)
                    .map(|s| &pool[s * SPAN + so..s * SPAN + so + len])
                    .collect();
                let table = MultiDot::new(
                    dests,
                    &coeffs
                        .iter()
                        .map(|c| c.map(|c| &gfni[usize::from(c)]))
                        .collect::<Vec<_>>(),
                )
                .expect("GFNI kernels qualify");
                for accumulate in [false, true] {
                    let mut want = base.clone();
                    let mut got = base.clone();
                    for (d, region) in want.chunks_exact_mut(SPAN).take(dests).enumerate() {
                        let region = &mut region[d0..d0 + len];
                        if !accumulate {
                            region.fill(0);
                        }
                        for (s, src) in srcs.iter().enumerate() {
                            if let Some(c) = coeffs[s * dests + d] {
                                scalar[usize::from(c)].mul_xor(src, region);
                            }
                        }
                    }
                    let mut dsts: Vec<&mut [u8]> = got
                        .chunks_exact_mut(SPAN)
                        .take(dests)
                        .map(|r| &mut r[d0..d0 + len])
                        .collect();
                    if accumulate {
                        table.mul_xor(|s| srcs[s], &mut dsts);
                    } else {
                        table.mul_copy(|s| srcs[s], &mut dsts);
                    }
                    assert_eq!(
                        got, want,
                        "len={len} src+{so} dst+{d0} D={dests} sources={sources} \
                         accumulate={accumulate}"
                    );
                }
            }
        }
    }

    /// A multi-destination table is built only when every non-zero term
    /// is a GFNI w = 8 kernel — the fused run's gate — so a bundle with a
    /// demoted (scalar) or AVX2/SSSE3 term goes to the per-run path, as
    /// does a w = 16 one; zero terms and absent terms pass on any backend.
    #[test]
    fn multi_dot_routes_by_term_backends() {
        let table = |terms: &[(u8, Backend)]| {
            let rms: Vec<RegionMul<u8>> =
                terms.iter().map(|&(a, b)| RegionMul::new(a, b)).collect();
            let coeffs: Vec<Option<&RegionMul<u8>>> = rms.iter().map(Some).collect();
            MultiDot::new(2, &coeffs).is_some()
        };
        assert!(!table(&[(0x1D, Backend::Scalar), (1, Backend::Scalar)]));
        assert!(MultiDot::new::<u8>(0, &[]).is_none(), "no destinations");
        assert!(
            MultiDot::new::<u8>(5, &[None; 5]).is_none(),
            "past MAX_DESTS"
        );
        assert!(MultiDot::new::<u8>(2, &[None; 3]).is_none(), "ragged rows");
        if Backend::Avx2.is_available() {
            assert!(!table(&[(0x1D, Backend::Avx2), (0x53, Backend::Avx2)]));
            assert!(!table(&[(1, Backend::Ssse3), (0, Backend::Ssse3)]));
        }
        if Backend::Gfni.is_available() {
            assert!(table(&[(0x1D, Backend::Gfni), (1, Backend::Gfni)]));
            assert!(table(&[(0x1D, Backend::Gfni), (0, Backend::Scalar)]));
            assert!(MultiDot::new::<u8>(2, &[None; 4]).is_some(), "absent terms");
            // A demoted kernel is a scalar one; a forced AVX2 one refuses too.
            assert!(!table(&[(0x1D, Backend::Gfni), (0x53, Backend::Scalar)]));
            assert!(!table(&[(0x1D, Backend::Gfni), (1, Backend::Avx2)]));
            let w16 = RegionMul::<u16>::new(0x1D, Backend::Gfni);
            assert!(MultiDot::new(1, &[Some(&w16)]).is_none(), "w = 16");
        }
    }

    #[test]
    fn identity_matrix_is_the_constant_one() {
        assert_eq!(
            affine_matrix(std::array::from_fn(|j| 1 << j)),
            IDENTITY_MATRIX
        );
    }

    #[test]
    fn xor_region_handles_tails() {
        for len in [0usize, 1, 7, 8, 9, 23] {
            let src = pseudo_bytes(len, 21);
            let mut dst = pseudo_bytes(len, 22);
            let expect: Vec<u8> = src.iter().zip(&dst).map(|(s, d)| s ^ d).collect();
            xor_region(&src, &mut dst);
            assert_eq!(dst, expect, "len={len}");
        }
    }

    #[test]
    fn counted_ops_match_uncounted_and_tally() {
        let stats = RegionStats::new();
        let src = pseudo_bytes(64, 3);
        let base = pseudo_bytes(64, 4);

        // Table path: counts a mult_XOR, not a plain XOR.
        let rm = RegionMul::<u8>::new(0x1D, Backend::Scalar);
        let mut counted = base.clone();
        rm.mul_xor_with(&src, &mut counted, &stats);
        let mut plain = base.clone();
        rm.mul_xor(&src, &mut plain);
        assert_eq!(counted, plain);
        assert_eq!((stats.mult_xors(), stats.plain_xors()), (1, 0));

        // Coefficient 1: a mult_XOR executed as a plain XOR.
        let one = RegionMul::<u8>::new(1, Backend::Scalar);
        one.mul_xor_with(&src, &mut counted, &stats);
        assert_eq!((stats.mult_xors(), stats.plain_xors()), (2, 1));

        // Coefficient 0: no work, no tally.
        let zero = RegionMul::<u8>::new(0, Backend::Scalar);
        zero.mul_xor_with(&src, &mut counted, &stats);
        assert_eq!(stats.mult_xors(), 2);

        // Standalone XOR: plain only.
        xor_region_with(&src, &mut counted, &stats);
        assert_eq!((stats.mult_xors(), stats.plain_xors()), (2, 2));
        assert_eq!(stats.bytes(), 3 * 64);
    }

    #[test]
    fn fused_accumulate_matches_per_term_loop() {
        // Lengths straddling the fuse block boundary so both the one-block
        // and multi-block sweeps are exercised.
        for len in [
            0usize,
            64,
            FUSE_BLOCK_BYTES,
            FUSE_BLOCK_BYTES + 64,
            3 * FUSE_BLOCK_BYTES,
        ] {
            let srcs: Vec<Vec<u8>> = (0..4).map(|i| pseudo_bytes(len, 50 + i)).collect();
            let kernels = [
                RegionMul::<u8>::new(0, Backend::Scalar),
                RegionMul::<u8>::new(1, Backend::Scalar),
                RegionMul::<u8>::new(0x1D, Backend::Scalar),
                RegionMul::<u8>::new(0xAB, Backend::Scalar),
            ];
            let base = pseudo_bytes(len, 99);

            let mut unfused = base.clone();
            for (rm, src) in kernels.iter().zip(&srcs) {
                rm.mul_xor(src, &mut unfused);
            }

            let terms: Vec<(&RegionMul<u8>, &[u8])> = kernels
                .iter()
                .zip(&srcs)
                .map(|(rm, src)| (rm, src.as_slice()))
                .collect();
            let mut fused = base.clone();
            mul_xor_fused(&terms, &mut fused);
            assert_eq!(fused, unfused, "len={len}");

            // Counted variant: same bytes, same ledger as the per-term loop.
            let stats = RegionStats::new();
            let mut counted = base.clone();
            mul_xor_fused_with(&terms, &mut counted, &stats);
            assert_eq!(counted, unfused, "len={len}");
            // 3 non-zero terms, of which the coefficient-1 term is a plain XOR.
            assert_eq!((stats.mult_xors(), stats.plain_xors()), (3, 1));
            assert_eq!(stats.bytes(), 3 * len as u64);
        }
    }

    #[test]
    fn copy_fused_overwrites_stale_destination() {
        // The overwrite-head variant must produce, on a garbage-filled
        // destination, exactly what the accumulate variant produces on a
        // zeroed one — that is the contract that lets the tape executor
        // take unzeroed scratch.
        for len in [0usize, 64, FUSE_BLOCK_BYTES + 64] {
            let srcs: Vec<Vec<u8>> = (0..3).map(|i| pseudo_bytes(len, 70 + i)).collect();
            let kernels = [
                RegionMul::<u8>::new(0x1D, Backend::Scalar),
                RegionMul::<u8>::new(1, Backend::Scalar),
                RegionMul::<u8>::new(0xAB, Backend::Scalar),
            ];
            let terms: Vec<(&RegionMul<u8>, &[u8])> = kernels
                .iter()
                .zip(&srcs)
                .map(|(rm, src)| (rm, src.as_slice()))
                .collect();

            let mut reference = vec![0u8; len];
            mul_xor_fused(&terms, &mut reference);

            let mut dirty = pseudo_bytes(len, 123);
            mul_copy_fused(&terms, &mut dirty);
            assert_eq!(dirty, reference, "len={len}");

            // Counted variant: identical bytes and identical ledger.
            let stats = RegionStats::new();
            let mut counted = pseudo_bytes(len, 45);
            mul_copy_fused_with(&terms, &mut counted, &stats);
            assert_eq!(counted, reference, "len={len}");
            assert_eq!((stats.mult_xors(), stats.plain_xors()), (3, 1));

            // Single-term head via mul_copy_with: same contract.
            let mut single = pseudo_bytes(len, 46);
            let head_stats = RegionStats::new();
            kernels[0].mul_copy_with(&srcs[0], &mut single, &head_stats);
            let mut single_ref = vec![0u8; len];
            kernels[0].mul_xor(&srcs[0], &mut single_ref);
            assert_eq!(single, single_ref, "len={len}");
            assert_eq!(head_stats.mult_xors(), 1);

            // No terms: the empty sum, i.e. a zeroed destination.
            let mut empty = pseudo_bytes(len, 47);
            mul_copy_fused::<u8>(&[], &mut empty);
            assert_eq!(empty, vec![0u8; len]);
        }
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn fused_length_mismatch_panics() {
        let rm = RegionMul::<u8>::new(3, Backend::Scalar);
        let src = [0u8; 4];
        mul_xor_fused(&[(&rm, &src[..])], &mut [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn length_mismatch_panics() {
        let rm = RegionMul::<u8>::new(3, Backend::Scalar);
        rm.mul_xor(&[0u8; 4], &mut [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let rm = RegionMul::<u32>::new(3, Backend::Scalar);
        rm.mul_xor(&[0u8; 6], &mut [0u8; 6]);
    }
}

#[cfg(test)]
mod clmul_tests {
    use super::*;

    fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect()
    }

    /// The PCLMUL GF(2^32) kernel must agree with the scalar split tables
    /// for adversarial constants and data.
    #[test]
    fn clmul_w32_matches_scalar() {
        for backend in [Backend::Ssse3, Backend::Avx2, Backend::Gfni, Backend::Auto] {
            if !backend.is_available() {
                continue;
            }
            for len in [0usize, 4, 8, 60, 256, 1000] {
                let src = pseudo_bytes(len, 91);
                let base = pseudo_bytes(len, 92);
                for a in [2u32, 3, 0x8000_0000, 0xFFFF_FFFF, 0x0040_0007, 0xDEAD_BEEF] {
                    let mut scalar = base.clone();
                    RegionMul::<u32>::new(a, Backend::Scalar).mul_xor(&src, &mut scalar);
                    let mut vect = base.clone();
                    RegionMul::<u32>::new(a, backend).mul_xor(&src, &mut vect);
                    assert_eq!(scalar, vect, "xor backend={backend:?} len={len} a={a:#x}");

                    let mut scalar = base.clone();
                    RegionMul::<u32>::new(a, Backend::Scalar).mul_copy(&src, &mut scalar);
                    let mut vect = base.clone();
                    RegionMul::<u32>::new(a, backend).mul_copy(&src, &mut vect);
                    assert_eq!(scalar, vect, "copy backend={backend:?} len={len} a={a:#x}");
                }
            }
        }
    }
}
