//! The vectorized word-engine: the innermost kernels of the SRAM hot path.
//!
//! Every compute instruction — emitted or replayed — bottoms out in a pass
//! over `u64` storage words ([`crate::BitRow`] bit `c` lives at word
//! `c/64`). At the paper's full 256-column geometry those passes dominate
//! the runtime, so this module concentrates them behind one dispatch
//! boundary:
//!
//! * **Chunked layout.** Row storage is padded to whole
//!   [`CHUNK`](crate::bitrow::WORD_CHUNK)-word blocks (256 bits — exactly
//!   one AVX2 vector) with a hard invariant that every bit at or above the
//!   column count is zero. Kernels therefore never handle remainders: an
//!   elementwise pass is a clean multiple of four words that LLVM
//!   autovectorizes, and the explicit SIMD paths load whole vectors.
//! * **Explicit AVX2 for the carry chains.** The add-B and
//!   Montgomery-halve kernels contain a one-bit shift whose
//!   carry crosses word boundaries; that loop-carried dependence defeats
//!   autovectorization, so each gets a hand-written `std::arch` path that
//!   materializes the shift with a lane permute (`valign`-style) and keeps
//!   the ~10 boolean layers per word in 256-bit registers.
//! * **Runtime dispatch, bit-identical fallback.** AVX2 use is decided
//!   once per process: `BPNTT_FORCE_SCALAR=1` (or
//!   [`force_scalar`]`(true)`) pins the scalar path, otherwise
//!   `is_x86_feature_detected!("avx2")` decides. Every kernel is pure
//!   bitwise integer arithmetic, so the two paths are bit-identical by
//!   construction — and verified against each other by this module's tests
//!   and by the workspace's replay-equivalence property tests run under
//!   both settings in CI.
//! * **Register-resident execution up to four chunks.** Rows of 1–4
//!   chunks (≤1024 columns — the paper's geometry *and* the HE-batch lane
//!   counts) execute whole multiplier chains and whole butterfly
//!   epilogues with every live row held in vector registers, the inter-chunk shift
//!   carries threaded in-register; see [`FastPathKind`], which each
//!   geometry decides once instead of re-testing row widths per superop.
//!
//! The module also hosts the *epilogue kernel*: one word-level body per
//! typed butterfly epilogue ([`crate::epilogue`]), written once over word
//! slices and instantiated both plainly and inside an AVX2
//! `target_feature` wrapper over register-resident local arrays.

// SIMD intrinsics need raw-pointer loads/stores; this module owns the
// crate's entire unsafe surface (see `#![deny(unsafe_code)]` in lib.rs).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::array::SramArray;
use crate::epilogue::{Epilogue, EpilogueOp};
use crate::isa::RowAddr;

pub(crate) use crate::bitrow::WORD_CHUNK as CHUNK;

const UNDECIDED: u8 = 0;
const SIMD: u8 = 1;
const SCALAR: u8 = 2;

/// Lazily decided dispatch state (process-wide; see [`simd_active`]).
static STATE: AtomicU8 = AtomicU8::new(UNDECIDED);

fn detect() -> bool {
    if std::env::var_os("BPNTT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return false;
    }
    hardware_has_simd()
}

fn hardware_has_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the word-engine is running its SIMD path: the CPU supports
/// AVX2 and neither `BPNTT_FORCE_SCALAR` nor [`force_scalar`] pinned the
/// scalar fallback. Decided once and cached; cheap to call from hot loops.
#[must_use]
pub fn simd_active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        SIMD => true,
        SCALAR => false,
        _ => {
            let active = detect();
            STATE.store(if active { SIMD } else { SCALAR }, Ordering::Relaxed);
            active
        }
    }
}

/// Pins the word-engine to the scalar path (`true`) or returns it to
/// hardware auto-detection (`false`, ignoring `BPNTT_FORCE_SCALAR`).
///
/// A test/bench hook: results are bit-identical either way, so flipping
/// this mid-run is safe — it only selects which kernel implementation
/// executes. Process-wide; concurrent tests that exercise both settings
/// must serialize around it.
pub fn force_scalar(on: bool) {
    let s = if on || !hardware_has_simd() {
        SCALAR
    } else {
        SIMD
    };
    STATE.store(s, Ordering::Relaxed);
}

// ---- carry-chain kernels ---------------------------------------------------
//
// Shared contract: all slices have the same, CHUNK-multiple length (the
// padded word count of one row); tile gating uses `mask`/`pred` column
// images whose padding words are zero, which keeps every output's padding
// zero as well. Each function documents its semantics once, in the scalar
// body — the AVX2 variants are transliterations kept lock-step by the
// equivalence tests at the bottom of this module.

/// One fused add-B step (`c1,s1 = Sum&B, Sum⊕B; Carry <<= 1 (global);
/// c2,Sum = Carry&s1, Carry⊕s1; Carry = c1|c2`), gated per tile by
/// `g = mask` or `g = mask & pred`: disabled tiles keep their old row
/// contents, exactly like four gated write-backs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn addb(
    sw: &mut [u64],
    cw: &mut [u64],
    tsw: &mut [u64],
    tcw: &mut [u64],
    bw: &[u64],
    mask: &[u64],
    pred: &[u64],
    if_set: bool,
) {
    let n = sw.len();
    assert!(
        cw.len() == n
            && tsw.len() == n
            && tcw.len() == n
            && bw.len() == n
            && mask.len() == n
            && pred.len() == n
    );
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        unsafe { avx2::addb(sw, cw, tsw, tcw, bw, mask, pred, if_set) };
        return;
    }
    addb_scalar(sw, cw, tsw, tcw, bw, mask, pred, if_set);
}

#[allow(clippy::too_many_arguments)]
fn addb_scalar(
    sw: &mut [u64],
    cw: &mut [u64],
    tsw: &mut [u64],
    tcw: &mut [u64],
    bw: &[u64],
    mask: &[u64],
    pred: &[u64],
    if_set: bool,
) {
    let mut carry_in = 0u64;
    for w in 0..sw.len() {
        let g = if if_set { mask[w] & pred[w] } else { mask[w] };
        let s_w = sw[w];
        let b_w = bw[w];
        let c_old = cw[w];
        let c1 = s_w & b_w;
        let s1 = s_w ^ b_w;
        // Global left shift computed from the *old* carry row (bits may
        // cross tile boundaries, exactly like emission).
        let csh = (c_old << 1) | carry_in;
        carry_in = c_old >> 63;
        // Gated intermediates: disabled tiles observe old contents.
        let c_eff = (csh & g) | (c_old & !g);
        let ts_eff = (s1 & g) | (tsw[w] & !g);
        let tc_new = (c1 & g) | (tcw[w] & !g);
        let c2 = c_eff & ts_eff;
        let s2 = c_eff ^ ts_eff;
        sw[w] = (s2 & g) | (s_w & !g);
        tsw[w] = ts_eff;
        tcw[w] = tc_new;
        cw[w] = ((c2 | tc_new) & g) | (c_eff & !g);
    }
}

/// One fused Montgomery halve step: `tmp = Sum ⊕ (M in pred-set tiles)` is
/// the m-selection, `c1 = Sum ∧ M ∧ pred` the half-adder carry, then the
/// tile-masked right shift of `tmp` and the two remaining half-adder
/// layers. Single pass with a one-word lookahead (only `sw[w]` has been
/// overwritten when the lookahead reads `sw[w+1]`). The predicate column
/// mask must already reflect `Check(Sum, bit 0)` and every tile must be
/// write-enabled.
pub(crate) fn halve(
    sw: &mut [u64],
    cw: &mut [u64],
    tsw: &mut [u64],
    tcw: &mut [u64],
    mw: &[u64],
    pred: &[u64],
    shr_keep: &[u64],
) {
    let n = sw.len();
    assert!(
        cw.len() == n
            && tsw.len() == n
            && tcw.len() == n
            && mw.len() == n
            && pred.len() == n
            && shr_keep.len() == n
    );
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        unsafe { avx2::halve(sw, cw, tsw, tcw, mw, pred, shr_keep) };
        return;
    }
    halve_scalar(sw, cw, tsw, tcw, mw, pred, shr_keep);
}

fn halve_scalar(
    sw: &mut [u64],
    cw: &mut [u64],
    tsw: &mut [u64],
    tcw: &mut [u64],
    mw: &[u64],
    pred: &[u64],
    shr_keep: &[u64],
) {
    let n = sw.len();
    let mut tmp_cur = if n > 0 { sw[0] ^ (mw[0] & pred[0]) } else { 0 };
    for w in 0..n {
        let tmp_next = if w + 1 < n {
            sw[w + 1] ^ (mw[w + 1] & pred[w + 1])
        } else {
            0
        };
        let tc1 = sw[w] & mw[w] & pred[w];
        let ts1 = ((tmp_cur >> 1) | (tmp_next << 63)) & shr_keep[w];
        let new_tc = ts1 & tc1;
        let new_ts = ts1 ^ tc1;
        let c_old = cw[w];
        let c5 = c_old & new_ts;
        sw[w] = c_old ^ new_ts;
        tsw[w] = new_ts;
        tcw[w] = new_tc;
        cw[w] = c5 | new_tc;
        tmp_cur = tmp_next;
    }
}

// ---- butterfly epilogue kernel ---------------------------------------------
//
// One kernel runs each typed epilogue (`crate::epilogue`) whole: working
// copies of its rows go in once, both carry-resolution loops run in place,
// and the results come out once. `epilogue_body` below is the scalar
// kernel over word slices (the scalar dispatch, and rows too wide to pin);
// `avx2::epilogue_chunks` is its register-resident transliteration for
// rows of up to MAX_RESIDENT_CHUNKS chunks, kept lock-step by this
// module's tests.

/// Geometry of one epilogue run: column images and loop bounds.
pub(crate) struct EpiGeom<'a> {
    /// Keep-mask of a tile-masked left shift.
    pub shl_keep: &'a [u64],
    /// Every real column set (the all-tiles write mask).
    pub valid: &'a [u64],
    /// Column image of the final write's tile mask (`valid` when none).
    pub final_mask: &'a [u64],
    /// Tile-base columns (the predicate latch's select layer).
    pub base_mask: &'a [u64],
    pub tile_width: usize,
    /// Tile-relative bit of the sign `Check` (w − 1).
    pub msb: usize,
    /// Zero-flag checks allowed per resolution loop.
    pub max_checks: usize,
}

/// How an epilogue's two resolution loops ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LoopTally {
    /// Resolution rounds executed, both loops together.
    pub bodies: u64,
    /// Zero-flag checks executed, both loops together.
    pub checks: u64,
    /// Whether the last loop saw a zero carry row (the final zero flag).
    pub converged: bool,
}

/// Runs one epilogue on `array`, register-resident when `kind` and the
/// SIMD dispatch allow it, leaving the expansion's last `Check` latch in
/// `pm`. The op must be [`EpilogueOp::fusable`]: the kernel reads all its
/// inputs before it writes. `buf` (five rows of words) holds the scalar
/// path's working copies. Returns the loop tally and whether the resident
/// path ran. Caller must hold an all-enabled tile mask.
pub(crate) fn epilogue(
    kind: FastPathKind,
    op: &EpilogueOp,
    array: &mut SramArray,
    g: &EpiGeom<'_>,
    pm: &mut [u64],
    buf: &mut [u64],
) -> (LoopTally, bool) {
    #[cfg(target_arch = "x86_64")]
    if let FastPathKind::Resident(chunks) = kind {
        if simd_active() {
            debug_assert_eq!(pm.len(), usize::from(chunks) * CHUNK);
            // SAFETY: the dispatch above verified AVX2 support, and every
            // row and column image spans the geometry's `chunks` chunks.
            let t = unsafe {
                match chunks {
                    1 => avx2::epilogue_chunks::<1>(op, array, g, pm),
                    2 => avx2::epilogue_chunks::<2>(op, array, g, pm),
                    3 => avx2::epilogue_chunks::<3>(op, array, g, pm),
                    _ => avx2::epilogue_chunks::<4>(op, array, g, pm),
                }
            };
            return (t, true);
        }
    }
    let _ = kind;
    let n = pm.len();
    let (s, rest) = buf.split_at_mut(n);
    let (c, rest) = rest.split_at_mut(n);
    let (ts, rest) = rest.split_at_mut(n);
    let (tc, d) = rest.split_at_mut(n);
    let r = &op.rows;
    let row = |a: RowAddr| array.row(a.index()).words();
    // `Finish` reads no operands; the constant row stands in.
    let (dst, x, y) = match op.kind {
        Epilogue::Finish { dst } => {
            copy_words(s, row(r.sum));
            copy_words(c, row(r.carry));
            (dst, r.comp_modulus, r.comp_modulus)
        }
        Epilogue::AddMod { dst, x, y, .. } | Epilogue::SubMod { dst, x, y, .. } => {
            copy_words(d, row(dst));
            (Some(dst), x, y)
        }
    };
    let rows = EpiRows {
        s,
        c,
        ts,
        tc,
        d,
        pm,
    };
    let t = epilogue_body(&op.kind, rows, row(x), row(y), row(r.comp_modulus), g);
    let mut put =
        |a: RowAddr, words: &[u64]| copy_words(array.row_mut(a.index()).words_mut(), words);
    match op.kind {
        Epilogue::Finish { .. } => {
            put(r.sum, s);
            put(r.carry, c);
            if let Some(dst) = dst {
                put(dst, s);
            }
        }
        Epilogue::AddMod { dst, .. } => {
            put(r.carry, c);
            put(dst, d);
        }
        Epilogue::SubMod { dst, .. } => put(dst, d),
    }
    put(r.t_sum, ts);
    put(r.t_carry, tc);
    (t, false)
}

/// Working copies of the rows the scalar epilogue body reads and writes.
struct EpiRows<'a> {
    s: &'a mut [u64],
    c: &'a mut [u64],
    ts: &'a mut [u64],
    tc: &'a mut [u64],
    d: &'a mut [u64],
    pm: &'a mut [u64],
}

/// Copies one row image over another a chunk at a time, so short rows
/// move with inline vector moves rather than a `memcpy` call.
#[inline]
fn copy_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.chunks_exact_mut(CHUNK).zip(src.chunks_exact(CHUNK)) {
        d.copy_from_slice(s);
    }
}

/// One zero-terminated carry-resolution loop over an aligned pair:
/// up to `max_checks` rounds of *stop if `c` is zero, else
/// `c, s = (s ∧ c) ≪ 1 (tile-masked), s ⊕ c`*.
fn resolve_loop(s: &mut [u64], c: &mut [u64], keep: &[u64], max_checks: usize, t: &mut LoopTally) {
    t.converged = false;
    for _ in 0..max_checks {
        t.checks += 1;
        if c.iter().fold(0, |acc, &w| acc | w) == 0 {
            t.converged = true;
            return;
        }
        let mut carry_in = 0u64;
        for ((sw, cw), &k) in s.iter_mut().zip(c.iter_mut()).zip(keep) {
            let and = *sw & *cw;
            *sw ^= *cw;
            *cw = ((and << 1) | carry_in) & k;
            carry_in = and >> 63;
        }
        t.bodies += 1;
    }
}

/// Carry-save initiator: `c, s = (a ∧ b) ≪ 1 (tile-masked), a ⊕ b`.
fn csa(c: &mut [u64], s: &mut [u64], a: &[u64], b: &[u64], keep: &[u64]) {
    let mut carry_in = 0u64;
    for i in 0..c.len() {
        let and = a[i] & b[i];
        c[i] = ((and << 1) | carry_in) & keep[i];
        carry_in = and >> 63;
        s[i] = a[i] ^ b[i];
    }
}

/// The scalar epilogue body over word slices: the expansion of
/// [`crate::epilogue::EpilogueOp::expand`] with every tile enabled at
/// entry, one statement group per instruction or loop.
fn epilogue_body(
    op: &Epilogue,
    r: EpiRows<'_>,
    x: &[u64],
    y: &[u64],
    comp: &[u64],
    g: &EpiGeom<'_>,
) -> LoopTally {
    let EpiRows {
        s,
        c,
        ts,
        tc,
        d,
        pm,
    } = r;
    let keep = g.shl_keep;
    let mut t = LoopTally::default();
    match op {
        Epilogue::Finish { .. } => {
            let mut carry_in = 0u64;
            for (cw, &kw) in c.iter_mut().zip(keep) {
                let v = *cw;
                *cw = ((v << 1) | carry_in) & kw;
                carry_in = v >> 63;
            }
            resolve_loop(s, c, keep, g.max_checks, &mut t);
            csa(tc, ts, s, comp, keep);
            resolve_loop(ts, tc, keep, g.max_checks, &mut t);
            latch_tile_bit(g.base_mask, g.tile_width, ts, g.msb, pm);
            // Copy Sum ← t_sum where the sign bit is clear.
            for i in 0..s.len() {
                let sel = g.valid[i] & !pm[i];
                s[i] = (s[i] & !sel) | (ts[i] & sel);
            }
        }
        Epilogue::AddMod { .. } => {
            csa(tc, ts, x, y, keep);
            resolve_loop(ts, tc, keep, g.max_checks, &mut t);
            csa(tc, c, ts, comp, keep);
            resolve_loop(c, tc, keep, g.max_checks, &mut t);
            latch_tile_bit(g.base_mask, g.tile_width, c, g.msb, pm);
            // dst ← t_sum where set, Carry where clear, inside the mask.
            for i in 0..d.len() {
                let (m, p) = (g.final_mask[i], pm[i]);
                d[i] = (ts[i] & m & p) | (c[i] & m & !p) | (d[i] & !m);
            }
        }
        Epilogue::SubMod { .. } => {
            for i in 0..ts.len() {
                ts[i] = !x[i] & g.valid[i];
            }
            // t_carry, t_sum = (t_sum ∧ y) ≪ 1, t_sum ⊕ y: one round of
            // the resolution loop with y as the carry operand.
            let mut carry_in = 0u64;
            for i in 0..ts.len() {
                let and = ts[i] & y[i];
                ts[i] ^= y[i];
                tc[i] = ((and << 1) | carry_in) & keep[i];
                carry_in = and >> 63;
            }
            resolve_loop(ts, tc, keep, g.max_checks, &mut t);
            latch_tile_bit(g.base_mask, g.tile_width, ts, g.msb, pm);
            // The same initiator with 2^w − q, written where the sign bit
            // is clear (the shift sees the whole row, like the activation).
            let mut carry_in = 0u64;
            for i in 0..ts.len() {
                let sel = g.valid[i] & !pm[i];
                let and = ts[i] & comp[i];
                let sh = ((and << 1) | carry_in) & keep[i];
                carry_in = and >> 63;
                tc[i] = (sh & sel) | (tc[i] & !sel);
                ts[i] = ((ts[i] ^ comp[i]) & sel) | (ts[i] & !sel);
            }
            resolve_loop(ts, tc, keep, g.max_checks, &mut t);
            for i in 0..d.len() {
                let m = g.final_mask[i];
                d[i] = (!ts[i] & m) | (d[i] & !m);
            }
        }
    }
    t
}

// ---- register-resident multi-chunk execution -------------------------------
//
// Rows of up to MAX_RESIDENT_CHUNKS chunks (1024 bits — the HE-batch
// 1024-column geometry) qualify for register-resident execution: a whole
// multiplier chain or butterfly epilogue keeps every live row in vector
// registers for its entire duration, touching memory only at entry, exit,
// and the halve steps' predicate-latch spills. This is where the
// word-engine's speedup actually comes from: the per-step kernels above
// spend most of their time on loads and stores (nine memory ops for ~a
// dozen ALU ops), which the chain executor repeats ~36 times per modular
// multiplication. The one-bit shifts thread their carries between chunks
// in-register (`shl1_chain`/`shr1_chain`), so the K-chunk variants are the
// exact widening of the single-chunk case — K = 1 *is* the paper-geometry
// fast path of PR 2, now one instantiation of the const-generic kernels.

/// Widest register-resident row, in chunks. Four chunks (16 words) is 42
/// Dilithium lanes at 1024 columns; beyond that the working set is no
/// longer worth pinning and the per-step kernels take over.
pub(crate) const MAX_RESIDENT_CHUNKS: usize = 4;

/// Storage words behind the widest register-resident row (the chain
/// executor's fixed-size latch spill buffers).
pub(crate) const MAX_RESIDENT_WORDS: usize = MAX_RESIDENT_CHUNKS * CHUNK;

/// How a controller geometry executes fused multiplier chains and
/// butterfly epilogues. Decided once per geometry (and recorded per
/// [`CompiledProgram`](crate::CompiledProgram) at compile time), so replay
/// never re-derives it from the row width per superop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathKind {
    /// Row too wide (or not x86-64): per-step kernels only.
    PerStep,
    /// Row spans this many whole chunks (1..=[`MAX_RESIDENT_CHUNKS`]),
    /// kept register-resident when SIMD is active.
    Resident(u8),
}

impl FastPathKind {
    /// The fast-path kind of a row backed by `n_words` (chunk-padded)
    /// storage words.
    #[must_use]
    pub fn for_words(n_words: usize) -> FastPathKind {
        debug_assert!(n_words.is_multiple_of(CHUNK));
        let chunks = n_words / CHUNK;
        #[cfg(target_arch = "x86_64")]
        if (1..=MAX_RESIDENT_CHUNKS).contains(&chunks) {
            return FastPathKind::Resident(chunks as u8);
        }
        let _ = chunks;
        FastPathKind::PerStep
    }

    /// True when this geometry can run register-resident (given SIMD is
    /// also active at run time).
    #[must_use]
    pub fn is_resident(self) -> bool {
        matches!(self, FastPathKind::Resident(_))
    }
}

/// Branchless predicate latch: reads tile-relative bit `bit` of every
/// tile of `src` and broadcasts it across the tile's columns of `pm`.
///
/// Three word-level layers, no per-tile loop:
///
/// 1. *align* — a global right shift by `bit` moves every tile's checked
///    bit onto its tile-base column (borrowing from the next word, like
///    any cross-word shift);
/// 2. *select* — `base_mask` keeps exactly the tile-base columns;
/// 3. *smear* — multiplying a word whose set bits sit ≥ `tile_width`
///    apart by `2^tile_width − 1` replicates each bit across its whole
///    tile with no carry collisions; the 128-bit high half is the spill
///    of a tile straddling into the next word.
///
/// `base_mask` covers only real tiles, so padding words (and the tail of
/// a partial last word) latch as zero — the invariant every kernel
/// expects of the predicate image.
///
/// Requires `tile_width <= 64` (a tile wider than its smear constant
/// would broadcast across only 64 of its columns) — the controller
/// rejects wider tiles at construction, as the whole ISA does.
///
/// Always inlined: a call inside a register-resident kernel would spill
/// every live vector register around it.
#[inline(always)]
pub(crate) fn latch_tile_bit(
    base_mask: &[u64],
    tile_width: usize,
    src: &[u64],
    bit: usize,
    pm: &mut [u64],
) {
    debug_assert!(tile_width <= 64, "tile words are at most 64 bits");
    debug_assert!(bit < tile_width && src.len() >= pm.len());
    let smear = if tile_width == 64 {
        u128::from(u64::MAX)
    } else {
        (1u128 << tile_width) - 1
    };
    let n = pm.len();
    let mut spill = 0u64;
    for w in 0..n {
        let aligned = if bit == 0 {
            src[w]
        } else {
            let hi = if w + 1 < n { src[w + 1] } else { 0 };
            (src[w] >> bit) | (hi << (64 - bit))
        };
        let prod = u128::from(aligned & base_mask[w]) * smear;
        pm[w] = (prod as u64) | spill;
        spill = (prod >> 64) as u64;
    }
}

/// Runs a whole multiplier chain (add-B / halve steps over one accumulator
/// row set) register-resident when `kind` and the SIMD dispatch allow it;
/// memory is touched once on entry, once per halve-latch spill, and once
/// on exit. `pred_row` is the multiplier row `AddBIf` steps latch from
/// (empty when the chain has none). `pred_mask` is read at entry and left
/// holding the last latch image — exactly the state per-step execution
/// leaves. Caller must
/// hold an all-enabled tile mask. Returns `false` (rows untouched) when
/// the geometry or dispatch demands the per-step path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn chain_resident(
    kind: FastPathKind,
    sw: &mut [u64],
    cw: &mut [u64],
    tsw: &mut [u64],
    tcw: &mut [u64],
    bw: &[u64],
    mw: &[u64],
    pred_row: &[u64],
    pred_mask: &mut [u64],
    shr_keep: &[u64],
    steps: &[crate::program::ChainStep],
    base_mask: &[u64],
    tile_width: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let FastPathKind::Resident(chunks) = kind else {
            return false;
        };
        if !simd_active() {
            return false;
        }
        debug_assert_eq!(sw.len(), usize::from(chunks) * CHUNK);
        // SAFETY: the dispatch above verified AVX2 support.
        unsafe {
            match chunks {
                1 => avx2::chain_chunks::<1>(
                    sw, cw, tsw, tcw, bw, mw, pred_row, pred_mask, shr_keep, steps, base_mask,
                    tile_width,
                ),
                2 => avx2::chain_chunks::<2>(
                    sw, cw, tsw, tcw, bw, mw, pred_row, pred_mask, shr_keep, steps, base_mask,
                    tile_width,
                ),
                3 => avx2::chain_chunks::<3>(
                    sw, cw, tsw, tcw, bw, mw, pred_row, pred_mask, shr_keep, steps, base_mask,
                    tile_width,
                ),
                _ => avx2::chain_chunks::<4>(
                    sw, cw, tsw, tcw, bw, mw, pred_row, pred_mask, shr_keep, steps, base_mask,
                    tile_width,
                ),
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (
            kind, sw, cw, tsw, tcw, bw, mw, pred_row, pred_mask, shr_keep, steps, base_mask,
            tile_width,
        );
        false
    }
}

// ---- AVX2 paths ------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{latch_tile_bit, CHUNK, MAX_RESIDENT_WORDS};
    use crate::array::SramArray;
    use crate::epilogue::{Epilogue, EpilogueOp};
    use crate::isa::RowAddr;
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_blend_epi32, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_permute4x64_epi64, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_testz_si256, _mm256_xor_si256,
    };

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(s: &[u64], i: usize) -> __m256i {
        debug_assert!(i + CHUNK <= s.len());
        // SAFETY: `i + CHUNK <= s.len()` (all kernel slices are CHUNK
        // multiples and `i` steps by CHUNK); unaligned load is allowed.
        unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(s: &mut [u64], i: usize, v: __m256i) {
        debug_assert!(i + CHUNK <= s.len());
        // SAFETY: as for `load`; unaligned store is allowed.
        unsafe { _mm256_storeu_si256(s.as_mut_ptr().add(i).cast(), v) }
    }

    /// `(v << 1) | (prev >> 63)` per lane with the carry chained across
    /// lanes: lane 0's predecessor is `carry` (the previous chunk's last
    /// *old* word). Returns the shifted vector and this chunk's last old
    /// word, to be fed into the next chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shl1_chain(v: __m256i, carry: u64) -> (__m256i, u64) {
        // rot = [v3, v0, v1, v2]; blend lane 0 to carry → prev.
        let rot = _mm256_permute4x64_epi64::<0b10_01_00_11>(v);
        let prev = _mm256_blend_epi32::<0b0000_0011>(rot, _mm256_set1_epi64x(carry as i64));
        let sh = _mm256_or_si256(_mm256_slli_epi64::<1>(v), _mm256_srli_epi64::<63>(prev));
        (sh, _mm256_extract_epi64::<3>(v) as u64)
    }

    /// `(v >> 1) | (next << 63)` per lane with the borrow chained from the
    /// *next* lane: lane 3's successor is `next_word` (the next chunk's
    /// first value, or zero at the end of the row).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shr1_chain(v: __m256i, next_word: u64) -> __m256i {
        // rot = [v1, v2, v3, v0]; blend lane 3 to next_word → next.
        let rot = _mm256_permute4x64_epi64::<0b00_11_10_01>(v);
        let nxt = _mm256_blend_epi32::<0b1100_0000>(rot, _mm256_set1_epi64x(next_word as i64));
        _mm256_or_si256(_mm256_srli_epi64::<1>(v), _mm256_slli_epi64::<63>(nxt))
    }

    /// AVX2 transliteration of [`super::addb_scalar`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn addb(
        sw: &mut [u64],
        cw: &mut [u64],
        tsw: &mut [u64],
        tcw: &mut [u64],
        bw: &[u64],
        mask: &[u64],
        pred: &[u64],
        if_set: bool,
    ) {
        let mut carry = 0u64;
        let mut i = 0;
        while i < sw.len() {
            // SAFETY: all slices share the same CHUNK-multiple length.
            unsafe {
                let s = load(sw, i);
                let b = load(bw, i);
                let c = load(cw, i);
                let ts = load(tsw, i);
                let tc = load(tcw, i);
                let g = if if_set {
                    _mm256_and_si256(load(mask, i), load(pred, i))
                } else {
                    load(mask, i)
                };
                let c1 = _mm256_and_si256(s, b);
                let s1 = _mm256_xor_si256(s, b);
                let (csh, nc) = shl1_chain(c, carry);
                carry = nc;
                let c_eff = _mm256_or_si256(_mm256_and_si256(csh, g), _mm256_andnot_si256(g, c));
                let ts_eff = _mm256_or_si256(_mm256_and_si256(s1, g), _mm256_andnot_si256(g, ts));
                let tc_new = _mm256_or_si256(_mm256_and_si256(c1, g), _mm256_andnot_si256(g, tc));
                let c2 = _mm256_and_si256(c_eff, ts_eff);
                let s2 = _mm256_xor_si256(c_eff, ts_eff);
                store(
                    sw,
                    i,
                    _mm256_or_si256(_mm256_and_si256(s2, g), _mm256_andnot_si256(g, s)),
                );
                store(tsw, i, ts_eff);
                store(tcw, i, tc_new);
                store(
                    cw,
                    i,
                    _mm256_or_si256(
                        _mm256_and_si256(_mm256_or_si256(c2, tc_new), g),
                        _mm256_andnot_si256(g, c_eff),
                    ),
                );
            }
            i += CHUNK;
        }
    }

    /// AVX2 transliteration of [`super::halve_scalar`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn halve(
        sw: &mut [u64],
        cw: &mut [u64],
        tsw: &mut [u64],
        tcw: &mut [u64],
        mw: &[u64],
        pred: &[u64],
        shr_keep: &[u64],
    ) {
        let n = sw.len();
        let mut i = 0;
        while i < n {
            // The lookahead reads the *next* chunk's first sum word, which
            // has not been overwritten yet (chunks ascend).
            let next_word = if i + CHUNK < n {
                sw[i + CHUNK] ^ (mw[i + CHUNK] & pred[i + CHUNK])
            } else {
                0
            };
            // SAFETY: all slices share the same CHUNK-multiple length.
            unsafe {
                let s = load(sw, i);
                let m = load(mw, i);
                let p = load(pred, i);
                let c = load(cw, i);
                let mp = _mm256_and_si256(m, p);
                let tmp = _mm256_xor_si256(s, mp);
                let ts1 = _mm256_and_si256(shr1_chain(tmp, next_word), load(shr_keep, i));
                let tc1 = _mm256_and_si256(s, mp);
                let new_tc = _mm256_and_si256(ts1, tc1);
                let new_ts = _mm256_xor_si256(ts1, tc1);
                let c5 = _mm256_and_si256(c, new_ts);
                store(sw, i, _mm256_xor_si256(c, new_ts));
                store(tsw, i, new_ts);
                store(tcw, i, new_tc);
                store(cw, i, _mm256_or_si256(c5, new_tc));
            }
            i += CHUNK;
        }
    }

    /// Loads `K` consecutive chunks of a row into a register array.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_row<const K: usize>(s: &[u64]) -> [__m256i; K] {
        let mut v = [_mm256_setzero_si256(); K];
        for (k, vk) in v.iter_mut().enumerate() {
            // SAFETY: caller guarantees `s.len() == K * CHUNK`.
            *vk = unsafe { load(s, k * CHUNK) };
        }
        v
    }

    /// Stores a register array back over `K` consecutive chunks.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_row<const K: usize>(s: &mut [u64], v: &[__m256i; K]) {
        for (k, &vk) in v.iter().enumerate() {
            // SAFETY: caller guarantees `s.len() == K * CHUNK`.
            unsafe { store(s, k * CHUNK, vk) };
        }
    }

    /// Register-resident multiplier chain over a `K`-chunk row set (see
    /// [`super::chain_resident`]). Each step is the in-register
    /// specialization of the per-step kernels above — `Always` add-B with
    /// an all-enabled mask loses its gating entirely, halve spills `Sum`
    /// once per step for the scalar predicate latch — with the one-bit
    /// shift carries threaded between chunks through `shl1_chain` /
    /// `shr1_chain` instead of round-tripping through memory.
    ///
    /// Register budget: only the four accumulator rows live in register
    /// arrays (4·K vectors). The read-only operand rows (`b`, `m`,
    /// `shr_keep`) reload from their L1-hot slices per use, and the
    /// predicate image lives canonically in its latch spill buffer — at
    /// K = 2 the accumulators plus temporaries fit the 16-register file,
    /// where keeping every row resident would thrash the stack.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chain_chunks<const K: usize>(
        sw: &mut [u64],
        cw: &mut [u64],
        tsw: &mut [u64],
        tcw: &mut [u64],
        bw: &[u64],
        mw: &[u64],
        pred_row: &[u64],
        pred_mask: &mut [u64],
        shr_keep: &[u64],
        steps: &[crate::program::ChainStep],
        base_mask: &[u64],
        tile_width: usize,
    ) {
        use crate::isa::PredMode;
        use crate::program::ChainStep;
        // SAFETY: all slices are K chunks long (caller contract).
        unsafe {
            let mut s = load_row::<K>(sw);
            let mut c = load_row::<K>(cw);
            let mut ts = load_row::<K>(tsw);
            let mut tc = load_row::<K>(tcw);
            let mut sum_buf = [0u64; MAX_RESIDENT_WORDS];
            let mut pm_buf = [0u64; MAX_RESIDENT_WORDS];
            pm_buf[..K * CHUNK].copy_from_slice(pred_mask);
            for step in steps {
                match *step {
                    ChainStep::AddB(PredMode::Always) => {
                        // All-enabled, unpredicated: the gating drops out.
                        let mut carry = 0u64;
                        for k in 0..K {
                            let b = load(bw, k * CHUNK);
                            let c1 = _mm256_and_si256(s[k], b);
                            let s1 = _mm256_xor_si256(s[k], b);
                            let (csh, nc) = shl1_chain(c[k], carry);
                            carry = nc;
                            let c2 = _mm256_and_si256(csh, s1);
                            s[k] = _mm256_xor_si256(csh, s1);
                            ts[k] = s1;
                            tc[k] = c1;
                            c[k] = _mm256_or_si256(c2, c1);
                        }
                    }
                    ChainStep::AddB(_) | ChainStep::AddBIf { .. } => {
                        // IfSet (IfClear is never matched into add-B ops),
                        // latched first from the multiplier row when the
                        // step carries its own `Check`.
                        if let ChainStep::AddBIf { bit } = *step {
                            latch_tile_bit(
                                base_mask,
                                tile_width,
                                pred_row,
                                usize::from(bit),
                                &mut pm_buf[..K * CHUNK],
                            );
                        }
                        let mut carry = 0u64;
                        for k in 0..K {
                            let b = load(bw, k * CHUNK);
                            let g = load(&pm_buf[..K * CHUNK], k * CHUNK);
                            let c1 = _mm256_and_si256(s[k], b);
                            let s1 = _mm256_xor_si256(s[k], b);
                            let (csh, nc) = shl1_chain(c[k], carry);
                            carry = nc;
                            let c_eff = _mm256_or_si256(
                                _mm256_and_si256(csh, g),
                                _mm256_andnot_si256(g, c[k]),
                            );
                            let ts_eff = _mm256_or_si256(
                                _mm256_and_si256(s1, g),
                                _mm256_andnot_si256(g, ts[k]),
                            );
                            let tc_new = _mm256_or_si256(
                                _mm256_and_si256(c1, g),
                                _mm256_andnot_si256(g, tc[k]),
                            );
                            let c2 = _mm256_and_si256(c_eff, ts_eff);
                            let s2 = _mm256_xor_si256(c_eff, ts_eff);
                            s[k] = _mm256_or_si256(
                                _mm256_and_si256(s2, g),
                                _mm256_andnot_si256(g, s[k]),
                            );
                            ts[k] = ts_eff;
                            tc[k] = tc_new;
                            c[k] = _mm256_or_si256(
                                _mm256_and_si256(_mm256_or_si256(c2, tc_new), g),
                                _mm256_andnot_si256(g, c_eff),
                            );
                        }
                    }
                    ChainStep::Halve => {
                        // The Check(Sum, bit 0) latch: spill Sum, run the
                        // scalar fill plan into the canonical predicate
                        // buffer.
                        store_row::<K>(&mut sum_buf[..K * CHUNK], &s);
                        latch_tile_bit(
                            base_mask,
                            tile_width,
                            &sum_buf[..K * CHUNK],
                            0,
                            &mut pm_buf[..K * CHUNK],
                        );
                        // Single pass per chunk: the right-shift
                        // lookahead word is recomputed scalar-side from
                        // the spill buffers, so no whole-row temporary
                        // arrays are needed.
                        for k in 0..K {
                            let m = load(mw, k * CHUNK);
                            let p = load(&pm_buf[..K * CHUNK], k * CHUNK);
                            let mp = _mm256_and_si256(m, p);
                            let tmp = _mm256_xor_si256(s[k], mp);
                            let next_word = if k + 1 < K {
                                let w = (k + 1) * CHUNK;
                                sum_buf[w] ^ (mw[w] & pm_buf[w])
                            } else {
                                0
                            };
                            let ts1 = _mm256_and_si256(
                                shr1_chain(tmp, next_word),
                                load(shr_keep, k * CHUNK),
                            );
                            let tc1 = _mm256_and_si256(s[k], mp);
                            let new_tc = _mm256_and_si256(ts1, tc1);
                            let new_ts = _mm256_xor_si256(ts1, tc1);
                            let c5 = _mm256_and_si256(c[k], new_ts);
                            s[k] = _mm256_xor_si256(c[k], new_ts);
                            ts[k] = new_ts;
                            tc[k] = new_tc;
                            c[k] = _mm256_or_si256(c5, new_tc);
                        }
                    }
                }
            }
            store_row::<K>(sw, &s);
            store_row::<K>(cw, &c);
            store_row::<K>(tsw, &ts);
            store_row::<K>(tcw, &tc);
            pred_mask.copy_from_slice(&pm_buf[..K * CHUNK]);
        }
    }

    /// Wired-OR zero test of a register-resident row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn is_zero_regs<const K: usize>(v: &[__m256i; K]) -> bool {
        let mut any = v[0];
        for &vk in &v[1..] {
            any = _mm256_or_si256(any, vk);
        }
        _mm256_testz_si256(any, any) == 1
    }

    /// `(v ≪ 1) ∧ keep` over a register-resident row (the tile-masked
    /// left shift), with the carries threaded between chunks.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shl_keep<const K: usize>(v: &[__m256i; K], keep: &[__m256i; K]) -> [__m256i; K] {
        let mut out = *v;
        let mut carry = 0u64;
        for k in 0..K {
            let (sh, nc) = shl1_chain(v[k], carry);
            carry = nc;
            out[k] = _mm256_and_si256(sh, keep[k]);
        }
        out
    }

    /// Carry-save initiator in registers: `((a ∧ b) ≪ 1 ∧ keep, a ⊕ b)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn csa_regs<const K: usize>(
        a: &[__m256i; K],
        b: &[__m256i; K],
        keep: &[__m256i; K],
    ) -> ([__m256i; K], [__m256i; K]) {
        let (mut and, mut xor) = (*a, *a);
        for k in 0..K {
            and[k] = _mm256_and_si256(a[k], b[k]);
            xor[k] = _mm256_xor_si256(a[k], b[k]);
        }
        (shl_keep(&and, keep), xor)
    }

    /// Register-resident transliteration of [`super::resolve_loop`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn resolve_regs<const K: usize>(
        s: &mut [__m256i; K],
        c: &mut [__m256i; K],
        keep: &[__m256i; K],
        max_checks: usize,
        t: &mut super::LoopTally,
    ) {
        t.converged = false;
        for _ in 0..max_checks {
            t.checks += 1;
            if is_zero_regs(c) {
                t.converged = true;
                return;
            }
            let (sh, xor) = csa_regs(s, c, keep);
            *c = sh;
            *s = xor;
            t.bodies += 1;
        }
    }

    /// The sign `Check` of a register-resident row: spills it, runs the
    /// scalar latch into `pm`, and returns the predicate image. Always
    /// inlined into its AVX2 caller, so no call spills the live rows.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and `pm` is `K` chunks long.
    #[inline(always)]
    unsafe fn latch_regs<const K: usize>(
        v: &[__m256i; K],
        g: &super::EpiGeom<'_>,
        pm: &mut [u64],
    ) -> [__m256i; K] {
        let mut spill = [0u64; MAX_RESIDENT_WORDS];
        // SAFETY: `pm` and the spill prefix are K chunks long.
        unsafe {
            store_row::<K>(&mut spill[..K * CHUNK], v);
            latch_tile_bit(g.base_mask, g.tile_width, &spill[..K * CHUNK], g.msb, pm);
            load_row::<K>(pm)
        }
    }

    /// `(a ∧ g) ∨ (b ∧ ¬g)` per chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn blend_regs<const K: usize>(
        g: &[__m256i; K],
        a: &[__m256i; K],
        b: &[__m256i; K],
    ) -> [__m256i; K] {
        let mut out = *a;
        for k in 0..K {
            out[k] = _mm256_or_si256(
                _mm256_and_si256(a[k], g[k]),
                _mm256_andnot_si256(g[k], b[k]),
            );
        }
        out
    }

    /// `¬p ∧ m` per chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn andnot_regs<const K: usize>(p: &[__m256i; K], m: &[__m256i; K]) -> [__m256i; K] {
        let mut out = *m;
        for k in 0..K {
            out[k] = _mm256_andnot_si256(p[k], m[k]);
        }
        out
    }

    /// Storage words of array row `r`.
    fn row_mut(array: &mut SramArray, r: RowAddr) -> &mut [u64] {
        array.row_mut(r.index()).words_mut()
    }

    /// Register-resident transliteration of [`super::epilogue_body`] over
    /// `K`-chunk rows (see [`super::epilogue`]): inputs load straight from
    /// the array into registers and results store straight back.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and every row of `array`, every column image
    /// of `g` and `pm` is `K` chunks long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn epilogue_chunks<const K: usize>(
        op: &EpilogueOp,
        array: &mut SramArray,
        g: &super::EpiGeom<'_>,
        pm: &mut [u64],
    ) -> super::LoopTally {
        let mut t = super::LoopTally::default();
        let r = &op.rows;
        // SAFETY: every row and column image is K chunks long (caller
        // contract).
        unsafe {
            let ld = |a: RowAddr| load_row::<K>(array.row(a.index()).words());
            let keep = load_row::<K>(g.shl_keep);
            let valid = load_row::<K>(g.valid);
            let comp = ld(r.comp_modulus);
            match op.kind {
                Epilogue::Finish { dst } => {
                    let mut s = ld(r.sum);
                    let mut c = shl_keep(&ld(r.carry), &keep);
                    resolve_regs(&mut s, &mut c, &keep, g.max_checks, &mut t);
                    let (mut tc, mut ts) = csa_regs(&s, &comp, &keep);
                    resolve_regs(&mut ts, &mut tc, &keep, g.max_checks, &mut t);
                    let p = latch_regs(&ts, g, pm);
                    let s = blend_regs(&andnot_regs(&p, &valid), &ts, &s);
                    store_row::<K>(row_mut(array, r.sum), &s);
                    store_row::<K>(row_mut(array, r.carry), &c);
                    store_row::<K>(row_mut(array, r.t_sum), &ts);
                    store_row::<K>(row_mut(array, r.t_carry), &tc);
                    if let Some(dst) = dst {
                        store_row::<K>(row_mut(array, dst), &s);
                    }
                }
                Epilogue::AddMod { dst, x, y, .. } => {
                    let (mut tc, mut ts) = csa_regs(&ld(x), &ld(y), &keep);
                    let d = ld(dst);
                    resolve_regs(&mut ts, &mut tc, &keep, g.max_checks, &mut t);
                    let (mut tc, mut c) = csa_regs(&ts, &comp, &keep);
                    resolve_regs(&mut c, &mut tc, &keep, g.max_checks, &mut t);
                    let p = latch_regs(&c, g, pm);
                    let m = load_row::<K>(g.final_mask);
                    let d = blend_regs(&m, &blend_regs(&p, &ts, &c), &d);
                    store_row::<K>(row_mut(array, r.carry), &c);
                    store_row::<K>(row_mut(array, r.t_sum), &ts);
                    store_row::<K>(row_mut(array, r.t_carry), &tc);
                    store_row::<K>(row_mut(array, dst), &d);
                }
                Epilogue::SubMod { dst, x, y, .. } => {
                    let nx = andnot_regs(&ld(x), &valid);
                    let (mut tc, mut ts) = csa_regs(&nx, &ld(y), &keep);
                    let d = ld(dst);
                    resolve_regs(&mut ts, &mut tc, &keep, g.max_checks, &mut t);
                    let p = latch_regs(&ts, g, pm);
                    let sel = andnot_regs(&p, &valid);
                    let (sh, sum) = csa_regs(&ts, &comp, &keep);
                    let mut tc = blend_regs(&sel, &sh, &tc);
                    let mut ts = blend_regs(&sel, &sum, &ts);
                    resolve_regs(&mut ts, &mut tc, &keep, g.max_checks, &mut t);
                    let m = load_row::<K>(g.final_mask);
                    let d = blend_regs(&m, &andnot_regs(&ts, &m), &d);
                    store_row::<K>(row_mut(array, r.t_sum), &ts);
                    store_row::<K>(row_mut(array, r.t_carry), &tc);
                    store_row::<K>(row_mut(array, dst), &d);
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_words(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// Tile-keep style mask: mostly ones with periodic holes.
    fn keep_words(n: usize, hole: u64) -> Vec<u64> {
        (0..n).map(|w| !(hole << (w % 7))).collect()
    }

    #[test]
    fn dispatch_state_round_trips() {
        force_scalar(true);
        assert!(!simd_active());
        force_scalar(false);
        // On AVX2 hardware this re-enables SIMD; elsewhere it stays scalar.
        assert_eq!(
            simd_active(),
            hardware_has_simd(),
            "force_scalar(false) returns to hardware detection"
        );
        // Restore lazy env-aware detection for the rest of the process
        // (this test must not undo a BPNTT_FORCE_SCALAR run).
        STATE.store(UNDECIDED, Ordering::Relaxed);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2; skipping");
            return;
        }
        for n in [4usize, 8, 12, 16, 32] {
            for seed in 1..=8u64 {
                let bw = rng_words(n, seed * 11);
                let mask = keep_words(n, 0x8000_0001);
                let pred = rng_words(n, seed * 13);
                let shr = keep_words(n, 0x8000_0000_0000_0000);
                for if_set in [false, true] {
                    let mut s1 = rng_words(n, seed);
                    let mut c1 = rng_words(n, seed + 100);
                    let mut ts1 = rng_words(n, seed + 200);
                    let mut tc1 = rng_words(n, seed + 300);
                    let (mut s2, mut c2, mut ts2, mut tc2) =
                        (s1.clone(), c1.clone(), ts1.clone(), tc1.clone());
                    addb_scalar(
                        &mut s1, &mut c1, &mut ts1, &mut tc1, &bw, &mask, &pred, if_set,
                    );
                    unsafe {
                        avx2::addb(
                            &mut s2, &mut c2, &mut ts2, &mut tc2, &bw, &mask, &pred, if_set,
                        )
                    };
                    assert_eq!((&s1, &c1, &ts1, &tc1), (&s2, &c2, &ts2, &tc2), "addb n={n}");
                }

                let mut s1 = rng_words(n, seed + 1);
                let mut c1 = rng_words(n, seed + 2);
                let mut ts1 = rng_words(n, seed + 3);
                let mut tc1 = rng_words(n, seed + 4);
                let (mut s2, mut c2, mut ts2, mut tc2) =
                    (s1.clone(), c1.clone(), ts1.clone(), tc1.clone());
                halve_scalar(&mut s1, &mut c1, &mut ts1, &mut tc1, &bw, &pred, &shr);
                unsafe { avx2::halve(&mut s2, &mut c2, &mut ts2, &mut tc2, &bw, &pred, &shr) };
                assert_eq!(
                    (&s1, &c1, &ts1, &tc1),
                    (&s2, &c2, &ts2, &tc2),
                    "halve n={n}"
                );
            }
        }
    }

    #[test]
    fn fast_path_kind_tracks_chunk_count() {
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(FastPathKind::for_words(4), FastPathKind::Resident(1));
            assert_eq!(FastPathKind::for_words(8), FastPathKind::Resident(2));
            assert_eq!(FastPathKind::for_words(12), FastPathKind::Resident(3));
            assert_eq!(FastPathKind::for_words(16), FastPathKind::Resident(4));
            assert_eq!(FastPathKind::for_words(20), FastPathKind::PerStep);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert_eq!(FastPathKind::for_words(4), FastPathKind::PerStep);
        }
    }

    /// Tile-base column image for a row of `n_words` full storage words
    /// tiled at `tile_width` (the same construction as
    /// `exec::Controller::new`, for kernel-local tests).
    fn base_mask_of(n_words: usize, tile_width: usize) -> Vec<u64> {
        let cols = n_words * 64;
        let mut mask = vec![0u64; n_words];
        for base in (0..cols).step_by(tile_width) {
            mask[base / 64] |= 1u64 << (base % 64);
        }
        mask
    }

    /// The multiply-smear latch agrees with a naive per-tile read.
    #[test]
    fn latch_tile_bit_matches_naive_broadcast() {
        // Tile widths always divide the column count (controller
        // invariant); cover in-word, cross-word, and whole-word tiles.
        for (n_words, tile_width) in [(4usize, 32usize), (3, 24), (12, 24), (7, 14), (16, 64)] {
            let cols = n_words * 64;
            let usable_tiles = cols / tile_width;
            let base_mask = base_mask_of(n_words, tile_width);
            for seed in 1..=4u64 {
                let src = rng_words(n_words, seed * 31);
                for bit in [0usize, 1, tile_width / 2, tile_width - 1] {
                    let mut pm = rng_words(n_words, seed * 37);
                    latch_tile_bit(&base_mask, tile_width, &src, bit, &mut pm);
                    let mut expect = vec![0u64; n_words];
                    for t in 0..usable_tiles {
                        let pos = t * tile_width + bit;
                        if (src[pos / 64] >> (pos % 64)) & 1 == 1 {
                            for col in t * tile_width..(t + 1) * tile_width {
                                expect[col / 64] |= 1u64 << (col % 64);
                            }
                        }
                    }
                    assert_eq!(
                        pm, expect,
                        "n_words={n_words} tile={tile_width} bit={bit} seed={seed}"
                    );
                }
            }
        }
    }

    /// Register-resident K-chunk chains and epilogues (with their
    /// resolution loops) match the per-step scalar kernels bit for bit,
    /// for every resident chunk count.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn resident_chains_and_loops_match_per_step() {
        use crate::epilogue::ModRows;
        use crate::isa::PredMode;
        use crate::program::ChainStep;
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2; skipping");
            return;
        }

        fn run_chunks<const K: usize>(seed: u64) {
            const TILE: usize = 32;
            let n = K * CHUNK;
            let base_mask = base_mask_of(n, TILE);
            // All-enabled mask; tile-boundary keep masks for 32-bit tiles.
            let mask: Vec<u64> = vec![u64::MAX; n];
            let shr: Vec<u64> = vec![!((1u64 << 31) | (1u64 << 63)); n];
            let shl: Vec<u64> = vec![!((1u64) | (1u64 << 32)); n];
            let steps = [
                ChainStep::AddB(PredMode::Always),
                ChainStep::Halve,
                ChainStep::AddB(PredMode::IfSet),
                ChainStep::Halve,
                ChainStep::AddBIf { bit: 5 },
                ChainStep::Halve,
                ChainStep::AddB(PredMode::IfSet),
                ChainStep::Halve,
                ChainStep::AddBIf { bit: 31 },
            ];

            // Per-step reference (the exec_chain fallback path, scalar).
            let bw = rng_words(n, seed * 3 + 1);
            let mw = rng_words(n, seed * 3 + 2);
            let aw = rng_words(n, seed * 3 + 3);
            let mut s1 = rng_words(n, seed * 7 + 1);
            let mut c1 = rng_words(n, seed * 7 + 2);
            let mut ts1 = rng_words(n, seed * 7 + 3);
            let mut tc1 = rng_words(n, seed * 7 + 4);
            let mut p1 = rng_words(n, seed * 7 + 5);
            let (mut s2, mut c2, mut ts2, mut tc2, mut p2) =
                (s1.clone(), c1.clone(), ts1.clone(), tc1.clone(), p1.clone());
            for step in &steps {
                match *step {
                    ChainStep::AddB(pred) => addb_scalar(
                        &mut s1,
                        &mut c1,
                        &mut ts1,
                        &mut tc1,
                        &bw,
                        &mask,
                        &p1,
                        pred == PredMode::IfSet,
                    ),
                    ChainStep::AddBIf { bit } => {
                        latch_tile_bit(&base_mask, TILE, &aw, usize::from(bit), &mut p1);
                        addb_scalar(&mut s1, &mut c1, &mut ts1, &mut tc1, &bw, &mask, &p1, true);
                    }
                    ChainStep::Halve => {
                        latch_tile_bit(&base_mask, TILE, &s1, 0, &mut p1);
                        halve_scalar(&mut s1, &mut c1, &mut ts1, &mut tc1, &mw, &p1, &shr);
                    }
                }
            }
            unsafe {
                avx2::chain_chunks::<K>(
                    &mut s2, &mut c2, &mut ts2, &mut tc2, &bw, &mw, &aw, &mut p2, &shr, &steps,
                    &base_mask, TILE,
                );
            }
            assert_eq!(
                (&s1, &c1, &ts1, &tc1, &p1),
                (&s2, &c2, &ts2, &tc2, &p2),
                "chain K={K} seed={seed}"
            );

            // Each epilogue: the scalar path against the resident one,
            // from identical random rows (a resolution loop converges
            // within w + 1 checks from any data).
            let final_mask = keep_words(n, 0xFFFF_FFFF);
            let geom = EpiGeom {
                shl_keep: &shl,
                valid: &mask,
                final_mask: &final_mask,
                base_mask: &base_mask,
                tile_width: TILE,
                msb: TILE - 1,
                max_checks: TILE + 1,
            };
            let mut start = SramArray::new(8, K * 256).unwrap();
            for r in 0..8 {
                let words = rng_words(n, seed * 13 + r as u64);
                start.row_mut(r).words_mut().copy_from_slice(&words);
            }
            let rows = ModRows {
                sum: RowAddr(0),
                carry: RowAddr(1),
                t_sum: RowAddr(2),
                t_carry: RowAddr(3),
                comp_modulus: RowAddr(4),
                bitwidth: TILE as u16,
            };
            let (d, x, y, final_mask) = (RowAddr(5), RowAddr(6), RowAddr(7), Some((0, false)));
            for kind in [
                Epilogue::Finish { dst: None },
                Epilogue::Finish { dst: Some(d) },
                Epilogue::AddMod {
                    dst: d,
                    x,
                    y,
                    final_mask,
                },
                Epilogue::SubMod {
                    dst: d,
                    x,
                    y,
                    final_mask,
                },
            ] {
                let op = EpilogueOp { rows, kind };
                let (mut a, mut b) = (start.clone(), start.clone());
                let (mut pa, mut pb) = (vec![0u64; n], vec![0u64; n]);
                let mut buf = vec![0u64; 5 * n];
                let plain = epilogue(FastPathKind::PerStep, &op, &mut a, &geom, &mut pa, &mut buf);
                let resident = unsafe { avx2::epilogue_chunks::<K>(&op, &mut b, &geom, &mut pb) };
                assert_eq!(
                    (plain.0, &pa),
                    (resident, &pb),
                    "epilogue {kind:?} loops K={K} seed={seed}"
                );
                for r in 0..8 {
                    assert_eq!(
                        a.row(r),
                        b.row(r),
                        "epilogue {kind:?} row {r} K={K} seed={seed}"
                    );
                }
            }
        }

        for seed in 1..=6u64 {
            run_chunks::<1>(seed);
            run_chunks::<2>(seed);
            run_chunks::<3>(seed);
            run_chunks::<4>(seed);
        }
    }

    /// The scalar epilogue kernel leaves rows, the predicate latch, the
    /// zero flag and the loop counts exactly as a controller running the
    /// op's expansion instruction by instruction (24-bit tiles, so tiles
    /// straddle storage words; random rows, operands in [0, q)).
    #[test]
    fn epilogue_kernels_match_reference_semantics() {
        use crate::epilogue::{Epilogue, EpilogueOp, ModRows};
        use crate::exec::Controller;
        use crate::isa::RowAddr;
        use crate::program::InstrSink;
        use crate::BitRow;

        const W: usize = 24;
        const COLS: usize = 240;
        const Q: u64 = 8_380_417;
        let n = crate::bitrow::padded_words(COLS);
        let mut x = 0x5eed_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut start = SramArray::new(8, COLS).unwrap();
        for r in 0..8 {
            let mut row = BitRow::zero(COLS);
            for t in 0..COLS / W {
                let v = if r == 4 { (1 << W) - Q } else { next() % Q };
                row.set_tile_word(t, W, v);
            }
            start.write_row(r, row);
        }
        let valid = {
            let mut v = BitRow::zero(COLS);
            v.fill_range(0, COLS, true);
            v
        };
        let mut shl_keep = valid.clone();
        let mut base = BitRow::zero(COLS);
        for b in (0..COLS).step_by(W) {
            shl_keep.set_bit(b, false);
            base.set_bit(b, true);
        }
        let geom = EpiGeom {
            shl_keep: shl_keep.words(),
            valid: valid.words(),
            final_mask: valid.words(),
            base_mask: base.words(),
            tile_width: W,
            msb: W - 1,
            max_checks: W + 1,
        };
        let rows = ModRows {
            sum: RowAddr(0),
            carry: RowAddr(1),
            t_sum: RowAddr(2),
            t_carry: RowAddr(3),
            comp_modulus: RowAddr(4),
            bitwidth: W as u16,
        };
        let (lo, hi) = (RowAddr(5), RowAddr(6));
        for kind in [
            Epilogue::Finish { dst: None },
            Epilogue::Finish { dst: Some(hi) },
            Epilogue::AddMod {
                dst: lo,
                x: lo,
                y: rows.sum,
                final_mask: None,
            },
            Epilogue::SubMod {
                dst: rows.sum,
                x: lo,
                y: hi,
                final_mask: None,
            },
        ] {
            let op = EpilogueOp { rows, kind };
            let mut reference = Controller::new(start.clone(), W).unwrap();
            reference.epilogue(op).unwrap();

            let mut array = start.clone();
            let mut pm = vec![0u64; n];
            let mut buf = vec![0u64; 5 * n];
            let (tally, _) = epilogue(
                FastPathKind::PerStep,
                &op,
                &mut array,
                &geom,
                &mut pm,
                &mut buf,
            );
            for r in 0..8 {
                assert_eq!(array.row(r), reference.peek_row(r), "{kind:?}: row {r}");
            }
            for t in 0..COLS / W {
                let latched = (pm[t * W / 64] >> (t * W % 64)) & 1 == 1;
                assert_eq!(latched, reference.pred(t), "{kind:?}: pred {t}");
            }
            assert_eq!(tally.converged, reference.zero_flag(), "{kind:?}");
            assert_eq!(
                tally.checks,
                reference.stats().counts.check_zero,
                "{kind:?}"
            );
        }
    }
}
