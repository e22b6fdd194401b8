//! Differential tests for the typed butterfly epilogues: every
//! [`EpilogueOp`] replayed through its word kernel must leave every row,
//! the predicate latch, the zero flag and the `Stats` (counts, cycles and
//! energy bits) exactly as the `Generic` oracle — the controller running
//! the op's canonical expansion instruction by instruction — leaves them.
//!
//! Coverage: `Finish` with and without a destination copy, `AddMod` and
//! `SubMod` with and without a final tile mask, at the benchmark widths
//! w ∈ {14, 24, 32} with the benchmark moduli and a modulus just below
//! 2^(w−1); operands at 0 and q − 1 next to random residues; the row
//! aliasing the butterflies use (`add_mod(lo, lo, sum)`, GS's
//! `sub_mod(sum, lo, hi)`); both word-engine modes; and the two fallback
//! triggers (rows the kernel does not model, an active tile mask), which
//! must replay the expansion instead.

use std::sync::{Mutex, MutexGuard};

use bpntt_sram::{
    BitRow, Controller, Epilogue, EpilogueOp, InstrSink, Instruction, ModRows, Recorder, RowAddr,
    SramArray,
};

static DISPATCH: Mutex<()> = Mutex::new(());

/// Locks the dispatch mutex and pins the requested kernel path.
fn pin_dispatch(scalar: bool) -> MutexGuard<'static, ()> {
    let guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    bpntt_sram::force_scalar(scalar);
    guard
}

const ROWS: usize = 12;
const SUM: RowAddr = RowAddr(0);
const CARRY: RowAddr = RowAddr(1);
const T_SUM: RowAddr = RowAddr(2);
const T_CARRY: RowAddr = RowAddr(3);
const COMP: RowAddr = RowAddr(4);
const LO: RowAddr = RowAddr(5);
const HI: RowAddr = RowAddr(6);
const OUT: RowAddr = RowAddr(7);

/// `(w, q)`: the benchmark moduli and a modulus just below 2^(w−1).
const MODULI: [(usize, u64); 6] = [
    (14, 7681),
    (14, (1 << 13) - 1),
    (24, 8_380_417),
    (24, (1 << 23) - 1),
    (32, 1_073_738_753),
    (32, (1 << 31) - 1),
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A controller with about 256 columns of `w`-bit tiles: reduced operands
/// in `LO`/`HI` (tile 0 holds 0 and tile 1 holds q − 1, against random
/// residues elsewhere), an arbitrary carry-save pair in `SUM`/`CARRY`,
/// garbage in the temporaries and the output row, and `2^w − q` in `COMP`.
fn start(w: usize, q: u64, seed: u64) -> Controller {
    let tiles = 256 / w;
    let mut ctl = Controller::new(SramArray::new(ROWS, tiles * w).unwrap(), w).unwrap();
    let mut rng = Rng(seed | 1);
    let word_mask = if w == 64 { u64::MAX } else { (1 << w) - 1 };
    for r in 0..ROWS {
        let mut row = BitRow::zero(tiles * w);
        for t in 0..tiles {
            let v = match RowAddr(r as u16) {
                COMP => (1u64 << w) - q,
                LO if t == 0 => 0,
                LO if t == 1 => q - 1,
                HI if t == 0 => q - 1,
                HI if t == 1 => 0,
                LO | HI | SUM | CARRY => rng.next() % q,
                _ => rng.next() & word_mask,
            };
            row.set_tile_word(t, w, v);
        }
        ctl.load_data_row(r, row);
    }
    ctl.reset_stats();
    ctl
}

fn op(w: usize, kind: Epilogue) -> EpilogueOp {
    EpilogueOp {
        rows: ModRows {
            sum: SUM,
            carry: CARRY,
            t_sum: T_SUM,
            t_carry: T_CARRY,
            comp_modulus: COMP,
            bitwidth: w as u16,
        },
        kind,
    }
}

/// Every op shape the butterflies emit, plus the masked finals.
fn ops(w: usize) -> Vec<(&'static str, EpilogueOp)> {
    let masks = [None, Some((0u8, false)), Some((1u8, true))];
    let mut v = vec![
        ("finish", op(w, Epilogue::Finish { dst: None })),
        ("finish_into", op(w, Epilogue::Finish { dst: Some(HI) })),
    ];
    for final_mask in masks {
        v.push((
            "add_mod(lo, lo, sum)",
            op(
                w,
                Epilogue::AddMod {
                    dst: LO,
                    x: LO,
                    y: SUM,
                    final_mask,
                },
            ),
        ));
        v.push((
            "add_mod(out, lo, hi)",
            op(
                w,
                Epilogue::AddMod {
                    dst: OUT,
                    x: LO,
                    y: HI,
                    final_mask,
                },
            ),
        ));
        v.push((
            "sub_mod(sum, lo, hi)",
            op(
                w,
                Epilogue::SubMod {
                    dst: SUM,
                    x: LO,
                    y: HI,
                    final_mask,
                },
            ),
        ));
        v.push((
            "sub_mod(hi, lo, sum)",
            op(
                w,
                Epilogue::SubMod {
                    dst: HI,
                    x: LO,
                    y: SUM,
                    final_mask,
                },
            ),
        ));
    }
    v
}

/// Runs `emit` twice from `start`: through the generic controller and
/// recorded + replayed. Asserts rows, predicate latches, zero flag and
/// `Stats` agree, and returns the replayed controller.
fn replay_like_generic(
    start: &Controller,
    emit: &dyn Fn(&mut dyn InstrSink),
    what: &str,
) -> Controller {
    let mut generic = start.clone();
    emit(&mut generic);
    let mut rec = Recorder::new();
    emit(&mut rec);
    let mut replayed = start.clone();
    let prog = rec.finish().compile(&replayed).unwrap();
    replayed.run_compiled(&prog).unwrap();
    for r in 0..ROWS {
        assert_eq!(replayed.peek_row(r), generic.peek_row(r), "{what}: row {r}");
    }
    for t in 0..start.n_tiles() {
        assert_eq!(replayed.pred(t), generic.pred(t), "{what}: pred {t}");
    }
    assert_eq!(
        replayed.zero_flag(),
        generic.zero_flag(),
        "{what}: zero flag"
    );
    let (rs, gs) = (replayed.stats(), generic.stats());
    assert_eq!(rs.counts, gs.counts, "{what}: counts");
    assert_eq!(rs.cycles, gs.cycles, "{what}: cycles");
    assert_eq!(
        rs.energy_pj.to_bits(),
        gs.energy_pj.to_bits(),
        "{what}: energy"
    );
    assert_eq!(
        generic.fastpath_stats().hits(),
        0,
        "{what}: the oracle stays per-instruction"
    );
    replayed
}

#[test]
fn typed_epilogues_replay_like_generic_in_both_engine_modes() {
    for scalar in [false, true] {
        let _guard = pin_dispatch(scalar);
        for (i, (w, q)) in MODULI.into_iter().enumerate() {
            for seed in 1..=3u64 {
                let ctl = start(w, q, seed * 131 + i as u64);
                for (name, op) in ops(w) {
                    let what = format!(
                        "{name} {:?} w={w} q={q} seed={seed} scalar={scalar}",
                        op.kind
                    );
                    let emit = |s: &mut dyn InstrSink| s.epilogue(op).unwrap();
                    let replayed = replay_like_generic(&ctl, &emit, &what);
                    let fp = replayed.fastpath_stats();
                    assert_eq!(
                        (fp.superops_fused, fp.fallbacks),
                        (1, 0),
                        "{what}: one fused op"
                    );
                    assert_eq!(
                        fp.resolve_loops_resident + fp.resolve_loops_per_step,
                        2,
                        "{what}: two loops"
                    );
                }
            }
        }
        bpntt_sram::force_scalar(false);
    }
}

/// Rows the kernel does not model (a destination inside the op's working
/// rows) and an active tile mask at entry both replay the expansion.
#[test]
fn unmodelled_rows_and_active_masks_fall_back_to_the_expansion() {
    let _guard = pin_dispatch(false);
    let (w, q) = (24, 8_380_417);
    let ctl = start(w, q, 7);
    let aliased = op(
        w,
        Epilogue::AddMod {
            dst: T_SUM,
            x: LO,
            y: HI,
            final_mask: None,
        },
    );
    let emit = |s: &mut dyn InstrSink| s.epilogue(aliased).unwrap();
    let replayed = replay_like_generic(&ctl, &emit, "aliased dst");
    assert_eq!(replayed.fastpath_stats().fallbacks, 1);

    // Under an entry mask the disabled tiles keep their carry rows, so the
    // loops converge only when those rows start clear.
    let mut ctl = ctl;
    let cols = ctl.cols();
    for r in [CARRY, T_CARRY] {
        ctl.load_data_row(r.index(), BitRow::zero(cols));
    }
    let plain = op(w, Epilogue::Finish { dst: Some(OUT) });
    let emit = |s: &mut dyn InstrSink| {
        s.emit(Instruction::MaskTiles {
            stride_log2: 1,
            phase: false,
        })
        .unwrap();
        s.epilogue(plain).unwrap();
        s.emit(Instruction::MaskAll).unwrap();
    };
    let replayed = replay_like_generic(&ctl, &emit, "masked entry");
    assert_eq!(replayed.fastpath_stats().fallbacks, 1);
}
