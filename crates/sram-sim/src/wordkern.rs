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
//!   autovectorizes, and the kernels below load whole chunks.
//! * **One body per kernel, generic over the lane.** The add-B and
//!   Montgomery-halve steps, the register-resident multiplier chain and
//!   the typed butterfly epilogue ([`crate::epilogue`]) are each written
//!   once, over a private `Lane` trait: the boolean layers plus a one-bit
//!   shift whose carry crosses lanes (the loop-carried dependence that
//!   defeats autovectorization). `Lane` has a `u64` impl (one storage
//!   word) and an `__m256i` impl (one chunk, the shift carry
//!   materialized with a cross-lane permute); an AVX2 `target_feature`
//!   entry point instantiates each body for `__m256i`.
//! * **Runtime dispatch.** AVX2 use is decided once per process:
//!   `BPNTT_FORCE_SCALAR=1` (or [`force_scalar`]`(true)`) pins the `u64`
//!   lane, otherwise `is_x86_feature_detected!("avx2")` decides. Both
//!   lanes run the same bodies on the same fast paths, and every kernel
//!   is pure bitwise integer arithmetic, so the two are bit-identical by
//!   construction. A shared body cannot expose a bug common to both
//!   lanes; the independent oracles are per-instruction execution
//!   (`ExecMode::Generic`, in the workspace's replay-equivalence suites)
//!   and this module's reference-semantics test of the epilogue.
//! * **Register-resident execution up to four chunks.** Rows of 1–4
//!   chunks (≤1024 columns — the paper's geometry *and* the HE-batch lane
//!   counts) execute whole multiplier chains and whole butterfly
//!   epilogues with every live row held in local lane arrays (vector
//!   registers on the AVX2 lane), the inter-chunk shift carries threaded
//!   in-register; see [`FastPathKind`], which each geometry decides once
//!   instead of re-testing row widths per op.

// SIMD intrinsics need raw-pointer loads/stores; this module owns the
// crate's entire unsafe surface (see `#![deny(unsafe_code)]` in lib.rs).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::array::SramArray;
use crate::epilogue::{halve_aligns, Epilogue, EpilogueOp};
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

// ---- lanes and dispatch ----------------------------------------------------

/// The machine word a kernel body computes on: a `u64` (one storage word)
/// or an `__m256i` (one chunk). A row is a run of lanes in ascending
/// column order, so the one-bit shifts take the neighbouring lane whose
/// edge bit crosses over.
///
/// The `__m256i` impl executes AVX2 instructions: it is instantiated only
/// under [`avx2::run`], which [`dispatch`] enters after detecting AVX2.
trait Lane: Copy {
    /// Storage words per lane.
    const WORDS: usize;
    /// Every word set to `w`.
    fn splat(w: u64) -> Self;
    /// Lane `i` of a word slice (bounds-checked).
    fn load(words: &[u64], i: usize) -> Self;
    /// Stores over lane `i` of a word slice (bounds-checked).
    fn store(self, words: &mut [u64], i: usize);
    fn and(self, o: Self) -> Self;
    fn or(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// `¬self ∧ o`.
    fn andnot(self, o: Self) -> Self;
    /// `self ≪ 1`, the top bit of the previous lane `prev` shifting in.
    fn shl1(self, prev: Self) -> Self;
    /// `self ≫ 1`, the low bit of the next lane `next` shifting in.
    fn shr1(self, next: Self) -> Self;
    /// True when every bit is clear (the wired-OR zero detector).
    fn is_zero(self) -> bool;
}

impl Lane for u64 {
    const WORDS: usize = 1;
    #[inline(always)]
    fn splat(w: u64) -> u64 {
        w
    }
    #[inline(always)]
    fn load(words: &[u64], i: usize) -> u64 {
        words[i]
    }
    #[inline(always)]
    fn store(self, words: &mut [u64], i: usize) {
        words[i] = self;
    }
    #[inline(always)]
    fn and(self, o: u64) -> u64 {
        self & o
    }
    #[inline(always)]
    fn or(self, o: u64) -> u64 {
        self | o
    }
    #[inline(always)]
    fn xor(self, o: u64) -> u64 {
        self ^ o
    }
    #[inline(always)]
    fn andnot(self, o: u64) -> u64 {
        !self & o
    }
    #[inline(always)]
    fn shl1(self, prev: u64) -> u64 {
        (self << 1) | (prev >> 63)
    }
    #[inline(always)]
    fn shr1(self, next: u64) -> u64 {
        (self >> 1) | (next << 63)
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }
}

/// `(a ∧ g) ∨ (b ∧ ¬g)`: `a` where the gate is set, `b` elsewhere.
#[inline(always)]
fn blend<L: Lane>(g: L, a: L, b: L) -> L {
    a.and(g).or(g.andnot(b))
}

/// A kernel body, runnable on either lane. `N` is the lane count of a
/// register-resident row; the per-step kernels walk rows of any length
/// and ignore it.
trait Kernel {
    type Out;
    fn run<L: Lane, const N: usize>(self) -> Self::Out;
}

/// Runs `k` on `__m256i` lanes when the dispatch allows, else on `u64`
/// lanes; a register-resident row is `K` chunks, or `W` words.
#[inline(always)]
fn dispatch<R: Kernel, const K: usize, const W: usize>(k: R) -> R::Out {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` is only true on a CPU with AVX2.
        return unsafe { avx2::run::<R, K>(k) };
    }
    on_u64::<R, W>(k)
}

/// The `u64` instantiation of a kernel, kept out of line so that every
/// dispatching caller stays a small function.
#[inline(never)]
fn on_u64<R: Kernel, const W: usize>(k: R) -> R::Out {
    k.run::<u64, W>()
}

/// Runs a register-resident kernel over rows of `chunks` chunks (the
/// payload of [`FastPathKind::Resident`]).
#[inline(always)]
fn resident<R: Kernel>(chunks: u8, k: R) -> R::Out {
    match chunks {
        1 => dispatch::<R, 1, CHUNK>(k),
        2 => dispatch::<R, 2, { 2 * CHUNK }>(k),
        3 => dispatch::<R, 3, { 3 * CHUNK }>(k),
        4 => dispatch::<R, 4, { 4 * CHUNK }>(k),
        _ => unreachable!("resident rows span 1..={MAX_RESIDENT_CHUNKS} chunks"),
    }
}

/// Loads a row of words into lanes.
#[inline(always)]
fn get<L: Lane>(v: &mut [L], words: &[u64]) {
    for (k, x) in v.iter_mut().enumerate() {
        *x = L::load(words, k);
    }
}

/// Stores lanes over a row of words.
#[inline(always)]
fn put<L: Lane>(v: &[L], words: &mut [u64]) {
    for (k, &x) in v.iter().enumerate() {
        x.store(words, k);
    }
}

// ---- multiplier steps --------------------------------------------------------
//
// The add-B and halve lane bodies serve both the per-step kernels (rows
// in memory, any width: chains on rows too wide to pin) and the
// register-resident chain. Shared contract: all rows of
// one call have the same, CHUNK-multiple length; tile gating uses
// `mask`/`pred` column images whose padding words are zero, which keeps
// every output's padding zero as well.

/// One add-B step (`c1,s1 = Sum&B, Sum⊕B; Carry <<= 1 (global, with
/// `shift`); c2,Sum = Carry&s1, Carry⊕s1; Carry = c1|c2`) on one lane of
/// `[Sum, Carry, t_sum, t_carry]`, gated per tile by `g`: disabled tiles
/// keep their old row contents, exactly like the gated write-backs.
/// `c_prev` is the previous lane of the *old* carry row (the shift
/// crosses tile boundaries, exactly like emission).
#[inline(always)]
fn addb_lane<L: Lane>([s, c, ts, tc]: [L; 4], c_prev: L, b: L, g: L, shift: bool) -> [L; 4] {
    let c1 = s.and(b);
    let s1 = s.xor(b);
    let c_eff = if shift {
        blend(g, c.shl1(c_prev), c)
    } else {
        c
    };
    let ts = blend(g, s1, ts);
    let tc = blend(g, c1, tc);
    let s = blend(g, c_eff.xor(ts), s);
    [s, blend(g, c_eff.and(ts).or(tc), c_eff), ts, tc]
}

/// One Montgomery halve step on one lane: `tmp = Sum ⊕ mp` (with
/// `mp = M ∧ pred`) is the m-selection, `c1 = Sum ∧ mp` the half-adder
/// carry, then the tile-masked right shift of `tmp` and the two remaining
/// half-adder layers. `next` is the next lane of `tmp` (zero past the
/// row's end). The predicate must already reflect `Check(Sum, bit 0)`.
/// The carry comes out unaligned; [`align_carry`] shifts it when the
/// step's consumer wants it aligned.
#[inline(always)]
fn halve_lane<L: Lane>(s: L, c: L, mp: L, next: L, keep: L) -> [L; 4] {
    let ts1 = s.xor(mp).shr1(next).and(keep);
    let tc1 = s.and(mp);
    let (ts, tc) = (ts1.xor(tc1), ts1.and(tc1));
    [c.xor(ts), c.and(ts).or(tc), ts, tc]
}

/// `Carry ≪ 1` on a halve step's closing write-back, lane by lane: the
/// global shift, with the bits past the last column cleared by `valid`.
/// `c_prev` carries the previous lane's unshifted carry.
#[inline(always)]
fn align_carry<L: Lane>(out: &mut [L; 4], c_prev: &mut L, valid: L) {
    let c = out[1];
    out[1] = c.shl1(*c_prev).and(valid);
    *c_prev = c;
}

/// Lane `i` of four rows.
#[inline(always)]
fn get4<L: Lane>(rows: &[&mut [u64]; 4], i: usize) -> [L; 4] {
    let [s, c, ts, tc] = rows;
    [L::load(s, i), L::load(c, i), L::load(ts, i), L::load(tc, i)]
}

/// Stores over lane `i` of four rows.
#[inline(always)]
fn put4<L: Lane>(rows: &mut [&mut [u64]; 4], i: usize, v: [L; 4]) {
    for (row, x) in rows.iter_mut().zip(v) {
        x.store(row, i);
    }
}

/// The per-step add-B kernel over rows in memory: `(rows, B, mask,
/// pred, shift)`, gated by `mask ∧ pred`.
struct AddB<'a, 'b>(
    &'a mut [&'b mut [u64]; 4],
    &'a [u64],
    &'a [u64],
    &'a [u64],
    bool,
);

impl Kernel for AddB<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lane, const N: usize>(self) {
        let AddB(acc, b, mask, pred, shift) = self;
        let mut c_prev = L::splat(0);
        for i in 0..acc[0].len() / L::WORDS {
            let g = L::load(mask, i).and(L::load(pred, i));
            let old = get4(acc, i);
            put4(acc, i, addb_lane(old, c_prev, L::load(b, i), g, shift));
            c_prev = old[1];
        }
    }
}

/// The per-step halve kernel over rows in memory: `(rows, M, pred,
/// shr_keep, align)`, where `align` is the valid-column image when the
/// carry is written aligned.
struct Halve<'a, 'b>(
    &'a mut [&'b mut [u64]; 4],
    &'a [u64],
    &'a [u64],
    &'a [u64],
    Option<&'a [u64]>,
);

impl Kernel for Halve<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lane, const N: usize>(self) {
        let Halve(acc, m, pred, keep, align) = self;
        let n = acc[0].len() / L::WORDS;
        let mp = |i| L::load(m, i).and(L::load(pred, i));
        let mut c_prev = L::splat(0);
        for i in 0..n {
            // The lookahead reads the next lane of Sum, not yet overwritten.
            let next = if i + 1 < n {
                L::load(acc[0], i + 1).xor(mp(i + 1))
            } else {
                L::splat(0)
            };
            let (s, c) = (L::load(acc[0], i), L::load(acc[1], i));
            let mut out = halve_lane(s, c, mp(i), next, L::load(keep, i));
            if let Some(valid) = align {
                align_carry(&mut out, &mut c_prev, L::load(valid, i));
            }
            put4(acc, i, out);
        }
    }
}

/// One add-B step over whole rows `[Sum, Carry, t_sum, t_carry]` in
/// memory (see [`addb_lane`]), gated per tile by `mask ∧ pred`: an
/// `IfSet` step passes the predicate image, an unpredicated one `mask`.
fn addb(acc: &mut [&mut [u64]; 4], b: &[u64], mask: &[u64], pred: &[u64], shift: bool) {
    dispatch::<_, 0, 0>(AddB(acc, b, mask, pred, shift));
}

/// One Montgomery halve step over whole rows in memory (see
/// [`halve_lane`]), its carry written aligned under `align` (the
/// valid-column image). The predicate column mask must already reflect
/// `Check(Sum, bit 0)` and every tile must be write-enabled.
fn halve(
    acc: &mut [&mut [u64]; 4],
    m: &[u64],
    pred: &[u64],
    shr_keep: &[u64],
    align: Option<&[u64]>,
) {
    dispatch::<_, 0, 0>(Halve(acc, m, pred, shr_keep, align));
}

// ---- register-resident multi-chunk execution -------------------------------
//
// Rows of up to MAX_RESIDENT_CHUNKS chunks (1024 bits — the HE-batch
// 1024-column geometry) qualify for register-resident execution: a whole
// multiplier chain or butterfly epilogue keeps every live row in local
// lane arrays for its entire duration, touching memory only at entry,
// exit, and the predicate-latch spills. This is where the word-engine's
// speedup actually comes from: the per-step kernels spend most of their
// time on loads and stores (nine memory ops for ~a dozen ALU ops), which
// the chain executor repeats ~36 times per modular multiplication. The
// one-bit shifts thread their carries between lanes in-register, so the
// K-chunk variants are the exact widening of the single-chunk case.

/// Widest register-resident row, in chunks. Four chunks (16 words) is 42
/// Dilithium lanes at 1024 columns; beyond that the working set is no
/// longer worth pinning and the per-step kernels take over.
pub(crate) const MAX_RESIDENT_CHUNKS: usize = 4;

/// How a controller geometry executes fused multiplier chains and
/// butterfly epilogues. Decided once per geometry (and recorded per
/// [`CompiledProgram`](crate::CompiledProgram) at compile time), so replay
/// never re-derives it from the row width per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathKind {
    /// Row too wide: per-step kernels only.
    PerStep,
    /// Row spans this many whole chunks (1..=[`MAX_RESIDENT_CHUNKS`]),
    /// kept register-resident on either word-engine lane.
    Resident(u8),
}

impl FastPathKind {
    /// The fast-path kind of a row backed by `n_words` (chunk-padded)
    /// storage words.
    #[must_use]
    pub fn for_words(n_words: usize) -> FastPathKind {
        debug_assert!(n_words.is_multiple_of(CHUNK));
        match n_words / CHUNK {
            chunks @ 1..=MAX_RESIDENT_CHUNKS => FastPathKind::Resident(chunks as u8),
            _ => FastPathKind::PerStep,
        }
    }
}

/// Branchless predicate latch, in place: reads tile-relative bit `bit` of
/// every tile of the row image in `pm` and broadcasts it across the
/// tile's columns. (A forward pass: word `w + 1` is read before it is
/// overwritten.)
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
pub(crate) fn latch_tile_bit(base_mask: &[u64], tile_width: usize, bit: usize, pm: &mut [u64]) {
    debug_assert!(tile_width <= 64, "tile words are at most 64 bits");
    debug_assert!(bit < tile_width);
    let smear = if tile_width == 64 {
        u128::from(u64::MAX)
    } else {
        (1u128 << tile_width) - 1
    };
    let (n, base_mask) = (pm.len(), &base_mask[..pm.len()]);
    let mut spill = 0u64;
    for w in 0..n {
        let aligned = if bit == 0 {
            pm[w]
        } else {
            let hi = if w + 1 < n { pm[w + 1] } else { 0 };
            (pm[w] >> bit) | (hi << (64 - bit))
        };
        let prod = u128::from(aligned & base_mask[w]) * smear;
        pm[w] = (prod as u64) | spill;
        spill = (prod >> 64) as u64;
    }
}

/// The multiplier a chain consumes, one bit per step.
#[derive(Clone, Copy)]
pub(crate) enum Factor<'a> {
    /// A constant: each set bit adds `B` in every tile.
    Const(u64),
    /// A row image: each bit adds `B` in the tiles where that bit is set.
    Row(&'a [u64]),
}

impl Factor<'_> {
    /// Whether the halve step of bit `bit` (of `bits`) writes its carry
    /// aligned, as [`halve_aligns`] decides for the expansion.
    fn aligns_after(self, bit: usize, bits: usize) -> bool {
        let constant = match self {
            Factor::Const(a) => Some(a),
            Factor::Row(_) => None,
        };
        halve_aligns(constant, bit, bits)
    }
}

/// One Algorithm 2 multiplier chain over one accumulator row set: per
/// multiplier bit an add-B step (when the bit asks for one) and a halve
/// step, exactly the steps of `ModMulOp::expand` after its clears. A
/// constant's add-B step finds the carry aligned by the halve step
/// before it; a row's aligns it itself. The chain stores its final carry
/// aligned.
pub(crate) struct Chain<'a, 'b> {
    /// Sum, Carry, t_sum, t_carry.
    pub acc: &'a mut [&'b mut [u64]; 4],
    pub b: &'a [u64],
    pub m: &'a [u64],
    pub factor: Factor<'a>,
    /// Multiplier bits consumed (the word width `w`).
    pub bits: usize,
    /// The predicate image: read at entry, left holding the last latch.
    pub pm: &'a mut [u64],
    /// Every real column set: the all-tiles write mask the per-step
    /// kernels gate with.
    pub valid: &'a [u64],
    pub shr_keep: &'a [u64],
    pub base_mask: &'a [u64],
    pub tile_width: usize,
}

/// Each step is the per-step kernels' lane body over register-resident
/// rows: a constant's add-B with an all-enabled mask loses its gating
/// entirely, halve spills `Sum` once for its predicate latch.
///
/// Register budget: only the four accumulator rows live in lane arrays
/// (4·N lanes). The read-only operand rows (`b`, `m`, `shr_keep`) reload
/// from their L1-hot slices per use, and the predicate image lives in a
/// local word buffer — at K = 2 the accumulators plus temporaries fit
/// the 16-register file, where keeping every row resident would thrash
/// the stack.
impl Kernel for Chain<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lane, const N: usize>(self) {
        let (acc, base, width) = (self.acc, self.base_mask, self.tile_width);
        let n = N * L::WORDS;
        let (b, m, keep) = (&self.b[..n], &self.m[..n], &self.shr_keep[..n]);
        // Lane-major: `r[k]` is lane `k` of `[Sum, Carry, t_sum, t_carry]`.
        let mut r = [[L::splat(0); 4]; N];
        for (k, lane) in r.iter_mut().enumerate() {
            *lane = get4(acc, k);
        }
        // The predicate image in a local buffer, which the compiler keeps
        // in registers: no latch round-trips through memory.
        let mut pm = [0u64; MAX_RESIDENT_CHUNKS * CHUNK];
        let pm = &mut pm[..n];
        pm.copy_from_slice(self.pm);
        let valid = &self.valid[..n];
        for bit in 0..self.bits {
            match self.factor {
                Factor::Const(a) if (a >> bit) & 1 == 1 => {
                    addb_lanes(&mut r, b, |_| L::splat(!0), false);
                }
                Factor::Const(_) => {}
                Factor::Row(row) => {
                    // The step's own `Check` of the multiplier bit.
                    pm.copy_from_slice(&row[..n]);
                    latch_tile_bit(base, width, bit, pm);
                    addb_lanes(&mut r, b, |k| L::load(pm, k), true);
                }
            }
            // The Check(Sum, bit 0) latch, from Sum spilled into `pm`.
            for (k, lane) in r.iter().enumerate() {
                lane[0].store(pm, k);
            }
            latch_tile_bit(base, width, 0, pm);
            let mp = |k| L::load(m, k).and(L::load(pm, k));
            let align = self.factor.aligns_after(bit, self.bits);
            let mut c_prev = L::splat(0);
            for k in 0..N {
                let next = if k + 1 < N {
                    r[k + 1][0].xor(mp(k + 1))
                } else {
                    L::splat(0)
                };
                r[k] = halve_lane(r[k][0], r[k][1], mp(k), next, L::load(keep, k));
                if align {
                    align_carry(&mut r[k], &mut c_prev, L::load(valid, k));
                }
            }
        }
        for (k, lane) in r.into_iter().enumerate() {
            put4(acc, k, lane);
        }
        self.pm.copy_from_slice(pm);
    }
}

/// One add-B step over register-resident lanes, gated per lane by `g`.
#[inline(always)]
fn addb_lanes<L: Lane>(r: &mut [[L; 4]], b: &[u64], g: impl Fn(usize) -> L, shift: bool) {
    let mut c_prev = L::splat(0);
    for (k, lane) in r.iter_mut().enumerate() {
        let old = *lane;
        *lane = addb_lane(old, c_prev, L::load(b, k), g(k), shift);
        c_prev = old[1];
    }
}

/// Runs one multiplier chain: register-resident over rows of `kind`'s
/// 1–4 chunks, touching memory once on entry, once per halve-latch spill
/// and once on exit; through the per-step kernels under one borrow on
/// wider rows. Either way `pm` ends holding the last latch image — exactly
/// the state the expansion leaves. Returns whether it ran resident.
/// Caller must hold an all-enabled tile mask.
pub(crate) fn chain(kind: FastPathKind, op: Chain<'_, '_>) -> bool {
    if let FastPathKind::Resident(chunks) = kind {
        resident(chunks, op);
        return true;
    }
    let Chain {
        acc,
        b,
        m,
        factor,
        bits,
        pm,
        valid,
        shr_keep,
        base_mask,
        tile_width,
    } = op;
    for bit in 0..bits {
        match factor {
            Factor::Const(a) if (a >> bit) & 1 == 1 => addb(acc, b, valid, valid, false),
            Factor::Const(_) => {}
            Factor::Row(row) => {
                pm.copy_from_slice(row);
                latch_tile_bit(base_mask, tile_width, bit, pm);
                addb(acc, b, valid, pm, true);
            }
        }
        pm.copy_from_slice(acc[0]);
        latch_tile_bit(base_mask, tile_width, 0, pm);
        let align = factor.aligns_after(bit, bits).then_some(valid);
        halve(acc, m, pm, shr_keep, align);
    }
    false
}

// ---- butterfly epilogue kernel ---------------------------------------------
//
// One body runs each typed epilogue (`crate::epilogue`) whole: working
// rows go in once, both carry-resolution loops run in place, and the
// results come out once. Resident geometries hold the working rows in
// local lane arrays; wider rows use `u64` lanes over five rows of words.

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

/// Runs one epilogue on `array`, register-resident when `kind` allows,
/// leaving the expansion's last `Check` latch in `pm`. The op must be
/// [`EpilogueOp::fusable`]: the kernel reads all its inputs before it
/// writes. `buf` (five rows of words) holds the working rows of a row too
/// wide to pin. Returns the loop tally and whether the resident path ran.
/// Caller must hold an all-enabled tile mask.
pub(crate) fn epilogue(
    kind: FastPathKind,
    op: &EpilogueOp,
    array: &mut SramArray,
    g: &EpiGeom<'_>,
    pm: &mut [u64],
    buf: &mut [u64],
) -> (LoopTally, bool) {
    if let FastPathKind::Resident(chunks) = kind {
        return (resident(chunks, Epi(op, array, g, pm)), true);
    }
    let mut rows = buf.chunks_exact_mut(pm.len());
    let work = std::array::from_fn(|_| rows.next().expect("five working rows"));
    (epilogue_body::<u64>(op, array, g, pm, work), false)
}

/// One epilogue over register-resident working rows: `(op, array,
/// geometry, pm)` of [`epilogue`].
struct Epi<'a, 'g>(
    &'a EpilogueOp,
    &'a mut SramArray,
    &'a EpiGeom<'g>,
    &'a mut [u64],
);

impl Kernel for Epi<'_, '_> {
    type Out = LoopTally;
    #[inline(always)]
    fn run<L: Lane, const N: usize>(self) -> LoopTally {
        let Epi(op, array, g, pm) = self;
        let [mut s, mut c, mut ts, mut tc, mut d] = [[L::splat(0); N]; 5];
        let work = [&mut s[..], &mut c, &mut ts, &mut tc, &mut d];
        // A local predicate image, kept in registers like the chain's.
        let mut p = [0u64; MAX_RESIDENT_CHUNKS * CHUNK];
        let p = &mut p[..N * L::WORDS];
        let t = epilogue_body::<L>(op, array, g, p, work);
        pm.copy_from_slice(p);
        t
    }
}

/// One carry-save round per lane, `c, s = (s ∧ b) ≪ 1 (tile-masked),
/// s ⊕ b`, where `b(k, c_k)` gives lane `k` of the operand from the old
/// carry lane.
#[inline(always)]
fn csa<L: Lane>(s: &mut [L], c: &mut [L], keep: &[u64], b: impl Fn(usize, L) -> L) {
    let mut prev = L::splat(0);
    for k in 0..s.len() {
        let bk = b(k, c[k]);
        let and = s[k].and(bk);
        s[k] = s[k].xor(bk);
        c[k] = and.shl1(prev).and(L::load(keep, k));
        prev = and;
    }
}

/// One zero-terminated carry-resolution loop over an aligned pair:
/// up to `max_checks` rounds of *stop if `c` is zero, else
/// `c, s = (s ∧ c) ≪ 1 (tile-masked), s ⊕ c`*.
#[inline(always)]
fn resolve<L: Lane>(s: &mut [L], c: &mut [L], keep: &[u64], max_checks: usize, t: &mut LoopTally) {
    t.converged = false;
    for _ in 0..max_checks {
        t.checks += 1;
        if c.iter().fold(L::splat(0), |a, &x| a.or(x)).is_zero() {
            t.converged = true;
            return;
        }
        csa(s, c, keep, |_, ck| ck);
        t.bodies += 1;
    }
}

/// The epilogue body: the expansion of [`EpilogueOp::expand`] with every
/// tile enabled at entry, one statement group per instruction or loop,
/// over working rows `[Sum, Carry, t_sum, t_carry, dst]` of lanes.
#[inline(always)]
fn epilogue_body<L: Lane>(
    op: &EpilogueOp,
    array: &mut SramArray,
    g: &EpiGeom<'_>,
    pm: &mut [u64],
    [s, c, ts, tc, d]: [&mut [L]; 5],
) -> LoopTally {
    let n = s.len() * L::WORDS;
    let (keep, valid, fmask) = (&g.shl_keep[..n], &g.valid[..n], &g.final_mask[..n]);
    // The sign `Check`, spilling the row into `pm`.
    let latch = |v: &[L], pm: &mut [u64]| {
        put(v, pm);
        latch_tile_bit(g.base_mask, g.tile_width, g.msb, pm);
    };
    let r = &op.rows;
    let mut t = LoopTally::default();
    let row = |a: RowAddr| &array.row(a.index()).words()[..n];
    let comp = row(r.comp_modulus);
    match op.kind {
        Epilogue::Finish { dst } => {
            // The multiply left the pair aligned: resolve it as it stands.
            get(s, row(r.sum));
            get(c, row(r.carry));
            resolve(s, c, keep, g.max_checks, &mut t);
            ts.copy_from_slice(s);
            csa(ts, tc, keep, |k, _| L::load(comp, k));
            resolve(ts, tc, keep, g.max_checks, &mut t);
            latch(ts, pm);
            // Copy Sum ← t_sum where the sign bit is clear.
            for k in 0..s.len() {
                let sel = L::load(pm, k).andnot(L::load(valid, k));
                s[k] = blend(sel, ts[k], s[k]);
            }
            put(s, array.row_mut(r.sum.index()).words_mut());
            put(c, array.row_mut(r.carry.index()).words_mut());
            if let Some(dst) = dst {
                put(s, array.row_mut(dst.index()).words_mut());
            }
        }
        Epilogue::AddMod { dst, x, y, .. } => {
            get(d, row(dst));
            get(ts, row(x));
            let y = row(y);
            csa(ts, tc, keep, |k, _| L::load(y, k));
            resolve(ts, tc, keep, g.max_checks, &mut t);
            c.copy_from_slice(ts);
            csa(c, tc, keep, |k, _| L::load(comp, k));
            resolve(c, tc, keep, g.max_checks, &mut t);
            latch(c, pm);
            // dst ← t_sum where set, Carry where clear, inside the mask.
            for k in 0..d.len() {
                let sum = blend(L::load(pm, k), ts[k], c[k]);
                d[k] = blend(L::load(fmask, k), sum, d[k]);
            }
            put(c, array.row_mut(r.carry.index()).words_mut());
            put(d, array.row_mut(dst.index()).words_mut());
        }
        Epilogue::SubMod { dst, x, y, .. } => {
            get(d, row(dst));
            let (x, y) = (row(x), row(y));
            for (k, v) in ts.iter_mut().enumerate() {
                *v = L::load(x, k).andnot(L::load(valid, k));
            }
            // t_carry, t_sum = (t_sum ∧ y) ≪ 1, t_sum ⊕ y: one round of
            // the resolution loop with y as the carry operand.
            csa(ts, tc, keep, |k, _| L::load(y, k));
            resolve(ts, tc, keep, g.max_checks, &mut t);
            latch(ts, pm);
            // The same initiator with 2^w − q, written where the sign bit
            // is clear (the shift sees the whole row, like the activation).
            let mut prev = L::splat(0);
            for k in 0..ts.len() {
                let sel = L::load(pm, k).andnot(L::load(valid, k));
                let q = L::load(comp, k);
                let and = ts[k].and(q);
                tc[k] = blend(sel, and.shl1(prev).and(L::load(keep, k)), tc[k]);
                ts[k] = blend(sel, ts[k].xor(q), ts[k]);
                prev = and;
            }
            resolve(ts, tc, keep, g.max_checks, &mut t);
            for k in 0..d.len() {
                let m = L::load(fmask, k);
                d[k] = blend(m, ts[k].andnot(m), d[k]);
            }
            put(d, array.row_mut(dst.index()).words_mut());
        }
    }
    put(ts, array.row_mut(r.t_sum.index()).words_mut());
    put(tc, array.row_mut(r.t_carry.index()).words_mut());
    t
}

// ---- the AVX2 lane ---------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Kernel, Lane, CHUNK};
    use std::arch::x86_64::{
        __m256i, _mm256_alignr_epi8, _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_permute2x128_si256, _mm256_set1_epi64x, _mm256_slli_epi64,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_testz_si256, _mm256_xor_si256,
    };

    /// Runs `k` on `__m256i` lanes, over resident rows of `K` chunks.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run<R: Kernel, const K: usize>(k: R) -> R::Out {
        k.run::<__m256i, K>()
    }

    // Every `unsafe` block below calls AVX2 intrinsics. That is sound
    // because this impl is only instantiated under `run`, which the
    // dispatch enters after detecting AVX2, and its methods are always
    // inlined into it; memory goes through bounds-checked subslices.
    impl Lane for __m256i {
        const WORDS: usize = CHUNK;
        #[inline(always)]
        fn splat(w: u64) -> Self {
            // SAFETY: AVX2 is available (see the impl comment).
            unsafe { _mm256_set1_epi64x(w as i64) }
        }
        #[inline(always)]
        fn load(words: &[u64], i: usize) -> Self {
            let w = &words[i * CHUNK..(i + 1) * CHUNK];
            // SAFETY: `w` holds one whole chunk, unaligned loads are
            // allowed, and AVX2 is available.
            unsafe { _mm256_loadu_si256(w.as_ptr().cast()) }
        }
        #[inline(always)]
        fn store(self, words: &mut [u64], i: usize) {
            let w = &mut words[i * CHUNK..(i + 1) * CHUNK];
            // SAFETY: as for `load`.
            unsafe { _mm256_storeu_si256(w.as_mut_ptr().cast(), self) }
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_and_si256(self, o) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_or_si256(self, o) }
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_xor_si256(self, o) }
        }
        #[inline(always)]
        fn andnot(self, o: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_andnot_si256(self, o) }
        }
        #[inline(always)]
        fn shl1(self, prev: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe {
                // [prev₃, v₀, v₁, v₂]: each word's lower neighbour.
                let lo =
                    _mm256_alignr_epi8::<8>(self, _mm256_permute2x128_si256::<0x03>(self, prev));
                _mm256_or_si256(_mm256_slli_epi64::<1>(self), _mm256_srli_epi64::<63>(lo))
            }
        }
        #[inline(always)]
        fn shr1(self, next: Self) -> Self {
            // SAFETY: AVX2 is available.
            unsafe {
                // [v₁, v₂, v₃, next₀]: each word's upper neighbour.
                let hi =
                    _mm256_alignr_epi8::<8>(_mm256_permute2x128_si256::<0x21>(self, next), self);
                _mm256_or_si256(_mm256_srli_epi64::<1>(self), _mm256_slli_epi64::<63>(hi))
            }
        }
        #[inline(always)]
        fn is_zero(self) -> bool {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_testz_si256(self, self) == 1 }
        }
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

    /// Four random accumulator rows.
    fn acc_words(n: usize, seed: u64) -> [Vec<u64>; 4] {
        std::array::from_fn(|r| rng_words(n, seed + 100 * r as u64))
    }

    /// The row slices of [`acc_words`], as the kernels take them.
    fn rows(v: &mut [Vec<u64>; 4]) -> [&mut [u64]; 4] {
        v.each_mut().map(|r| r.as_mut_slice())
    }

    /// The lanes to test: `u64` everywhere, `__m256i` where the CPU has
    /// AVX2 (`true`).
    fn lanes() -> Vec<bool> {
        if hardware_has_simd() {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    /// Runs `k` on the `__m256i` lane (`simd`) or the `u64` lane, over
    /// resident rows of `K` chunks (`W` words).
    fn run_lane<R: Kernel, const K: usize, const W: usize>(simd: bool, k: R) -> R::Out {
        #[cfg(target_arch = "x86_64")]
        if simd {
            assert!(hardware_has_simd());
            // SAFETY: AVX2 support was just checked.
            return unsafe { avx2::run::<R, K>(k) };
        }
        assert!(!simd, "the __m256i lane needs x86-64");
        k.run::<u64, W>()
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

    /// The `u64` and `__m256i` instantiations of the per-step add-B and
    /// halve kernels agree bit for bit.
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
                for (gate, shift) in [(&mask, false), (&mask, true), (&pred, true)] {
                    let outs = [false, true].map(|simd| {
                        let mut a = acc_words(n, seed);
                        let acc = &mut rows(&mut a);
                        run_lane::<_, 0, 0>(simd, AddB(acc, &bw, &mask, gate, shift));
                        a
                    });
                    assert_eq!(outs[0], outs[1], "addb n={n} shift={shift}");
                }
                for align in [None, Some(&mask[..])] {
                    let outs = [false, true].map(|simd| {
                        let mut a = acc_words(n, seed + 1);
                        let acc = &mut rows(&mut a);
                        run_lane::<_, 0, 0>(simd, Halve(acc, &bw, &pred, &shr, align));
                        a
                    });
                    assert_eq!(outs[0], outs[1], "halve n={n} align={}", align.is_some());
                }
            }
        }
    }

    #[test]
    fn fast_path_kind_tracks_chunk_count() {
        assert_eq!(FastPathKind::for_words(4), FastPathKind::Resident(1));
        assert_eq!(FastPathKind::for_words(8), FastPathKind::Resident(2));
        assert_eq!(FastPathKind::for_words(12), FastPathKind::Resident(3));
        assert_eq!(FastPathKind::for_words(16), FastPathKind::Resident(4));
        assert_eq!(FastPathKind::for_words(20), FastPathKind::PerStep);
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
                    let mut pm = src.clone();
                    latch_tile_bit(&base_mask, tile_width, bit, &mut pm);
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
    /// resolution loops) match the per-step kernels bit for bit, for every
    /// resident chunk count: on the `u64` lane everywhere, and on the
    /// `__m256i` lane where the CPU has AVX2.
    #[test]
    fn resident_chains_and_loops_match_per_step() {
        use crate::epilogue::ModRows;

        fn run_chunks<const K: usize, const W: usize>(seed: u64) {
            const TILE: usize = 32;
            let n = K * CHUNK;
            let base_mask = base_mask_of(n, TILE);
            // All-enabled mask; tile-boundary keep masks for 32-bit tiles.
            let mask: Vec<u64> = vec![u64::MAX; n];
            let shr: Vec<u64> = vec![!((1u64 << 31) | (1u64 << 63)); n];
            let shl: Vec<u64> = vec![!((1u64) | (1u64 << 32)); n];
            let (bw, mw) = (rng_words(n, seed * 3 + 1), rng_words(n, seed * 3 + 2));
            let aw = rng_words(n, seed * 3 + 3);
            let a = rng_words(1, seed * 3 + 4)[0];
            for factor in [Factor::Const(a), Factor::Row(&aw)] {
                // Step-by-step reference, written out from the expansion.
                let (mut want, mut p1) = (acc_words(n, seed * 7), rng_words(n, seed * 7 + 5));
                let p_start = p1.clone();
                for bit in 0..TILE {
                    let acc = &mut rows(&mut want);
                    match factor {
                        Factor::Const(a) if (a >> bit) & 1 == 1 => {
                            addb(acc, &bw, &mask, &mask, false);
                        }
                        Factor::Const(_) => {}
                        Factor::Row(row) => {
                            p1.copy_from_slice(row);
                            latch_tile_bit(&base_mask, TILE, bit, &mut p1);
                            addb(acc, &bw, &mask, &p1, true);
                        }
                    }
                    p1.copy_from_slice(acc[0]);
                    latch_tile_bit(&base_mask, TILE, 0, &mut p1);
                    let last = bit + 1 == TILE;
                    let align = match factor {
                        Factor::Const(a) => last || (a >> (bit + 1)) & 1 == 1,
                        Factor::Row(_) => last,
                    };
                    halve(acc, &mw, &p1, &shr, align.then_some(&mask[..]));
                }
                // The per-step path (`None`), then the resident one on
                // every lane.
                for path in std::iter::once(None).chain(lanes().into_iter().map(Some)) {
                    let (mut got, mut p2) = (acc_words(n, seed * 7), p_start.clone());
                    let op = Chain {
                        acc: &mut rows(&mut got),
                        b: &bw,
                        m: &mw,
                        factor,
                        bits: TILE,
                        pm: &mut p2,
                        valid: &mask,
                        shr_keep: &shr,
                        base_mask: &base_mask,
                        tile_width: TILE,
                    };
                    match path {
                        None => assert!(!chain(FastPathKind::PerStep, op)),
                        Some(simd) => run_lane::<_, K, W>(simd, op),
                    }
                    let what = format!("chain K={K} seed={seed} path={path:?}");
                    assert_eq!((&got, &p2), (&want, &p1), "{what}");
                }
            }

            // Each epilogue: the wide-row path against the resident one,
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
                modulus: RowAddr(4),
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
                let mut a = start.clone();
                let mut pa = vec![0u64; n];
                let mut buf = vec![0u64; 5 * n];
                let plain = epilogue(FastPathKind::PerStep, &op, &mut a, &geom, &mut pa, &mut buf);
                for simd in lanes() {
                    let mut b = start.clone();
                    let mut pb = vec![0u64; n];
                    let epi = Epi(&op, &mut b, &geom, &mut pb);
                    let resident = run_lane::<_, K, W>(simd, epi);
                    let what = format!("epilogue {kind:?} K={K} seed={seed} simd={simd}");
                    assert_eq!((plain.0, &pa), (resident, &pb), "{what}: loops");
                    for r in 0..8 {
                        assert_eq!(a.row(r), b.row(r), "{what}: row {r}");
                    }
                }
            }
        }

        for seed in 1..=6u64 {
            run_chunks::<1, 4>(seed);
            run_chunks::<2, 8>(seed);
            run_chunks::<3, 12>(seed);
            run_chunks::<4, 16>(seed);
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
            modulus: RowAddr(7),
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
