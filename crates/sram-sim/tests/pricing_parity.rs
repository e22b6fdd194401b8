//! Pricing parity: `Stats` are integer class counts; `cost.rs` prices
//! cycles and energy from them on read. Under both timing models, priced
//! `cycles` must equal Σ [`TimingModel::cycles`] over the executed
//! instructions (plus row I/O) exactly, and priced `energy_pj` must equal
//! Σ [`EnergyModel::energy_pj`] (plus row I/O) to 1e-12 relative.
//!
//! Random streams cover every class, `Unary` zero-fill vs copy, single vs
//! dual write-back, zero-terminated loops and row loads, summed in
//! emission order (and replayed against emission). Generic polymuls at
//! the three `perfbench` parameter sets check the pricing at full scale.

use proptest::prelude::*;

use bpntt_core::{BpNtt, BpNttConfig, ExecMode, PipelineSpec};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_ntt::NttParams;
use bpntt_sram::{
    BitOp, BitRow, Controller, EnergyModel, InstrSink, Instruction, PredMode, Recorder, RowAddr,
    ShiftDir, SramArray, SramError, Stats, TimingModel, UnaryKind, ZeroLoopSpec,
};

const ROWS: usize = 12;
const LOOP_ROW: RowAddr = RowAddr(ROWS as u16 - 1);
const PREDS: [PredMode; 3] = [PredMode::Always, PredMode::IfSet, PredMode::IfClear];
const DIRS: [ShiftDir; 2] = [ShiftDir::Left, ShiftDir::Right];
const OPS: [BitOp; 4] = [BitOp::And, BitOp::Or, BitOp::Xor, BitOp::Nor];

/// Per-instruction reference sums. Energy is Neumaier-compensated, so
/// the reference stays accurate to a few ulps over a million terms.
#[derive(Default)]
struct Reference {
    paper_cycles: u64,
    conservative_cycles: u64,
    row_io: u64,
    energy: f64,
    energy_comp: f64,
}

impl Reference {
    fn add_energy(&mut self, x: f64) {
        let t = self.energy + x;
        self.energy_comp += if self.energy.abs() >= x.abs() {
            (self.energy - t) + x
        } else {
            (x - t) + self.energy
        };
        self.energy = t;
    }

    fn instr(&mut self, i: &Instruction, cols: usize) {
        self.paper_cycles += TimingModel::paper().cycles(i);
        self.conservative_cycles += TimingModel::conservative().cycles(i);
        self.add_energy(EnergyModel::cmos_45nm().energy_pj(i, cols));
    }

    fn row(&mut self, cols: usize) {
        self.row_io += 1;
        self.add_energy(EnergyModel::cmos_45nm().row_io_pj(cols));
    }

    /// Checks priced statistics; `stats` reads them under a timing model.
    fn check(&self, mut stats: impl FnMut(TimingModel) -> Stats) {
        for (timing, cycles) in [
            (TimingModel::paper(), self.paper_cycles),
            (TimingModel::conservative(), self.conservative_cycles),
        ] {
            let s = stats(timing);
            assert_eq!(s.cycles, cycles + self.row_io * timing.row_io, "{timing:?}");
            assert_eq!(s.row_loads + s.row_stores, self.row_io);
            let reference = self.energy + self.energy_comp;
            let rel = (s.energy_pj - reference).abs() / reference;
            assert!(rel <= 1e-12, "priced {} pJ vs {reference} pJ", s.energy_pj);
        }
    }
}

/// Reads a controller's statistics under `timing`.
fn priced(ctl: &mut Controller) -> impl FnMut(TimingModel) -> Stats + '_ {
    |timing| {
        ctl.set_timing_model(timing);
        ctl.stats()
    }
}

/// Executes on a controller and tallies every executed instruction,
/// unrolling zero loops itself.
struct Tally<'a> {
    ctl: &'a mut Controller,
    reference: Reference,
}

impl InstrSink for Tally<'_> {
    fn emit(&mut self, i: Instruction) -> Result<(), SramError> {
        self.ctl.emit(i)?;
        self.reference.instr(&i, self.ctl.cols());
        Ok(())
    }

    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError> {
        let mut bodies = 0;
        for k in 0..spec.max_checks {
            self.emit(Instruction::CheckZero { src: spec.src })?;
            if self.ctl.zero_flag() {
                break;
            }
            let body = [spec.even_body, spec.odd_body][k % 2];
            body.iter().try_for_each(|i| self.emit(*i))?;
            bodies += 1;
        }
        if bodies % 2 == 1 {
            spec.odd_epilogue.iter().try_for_each(|i| self.emit(*i))?;
        }
        Ok(())
    }

    fn load_row(&mut self, row: RowAddr, data: &BitRow) -> Result<(), SramError> {
        self.ctl.load_row(row, data)?;
        self.reference.row(self.ctl.cols());
        Ok(())
    }
}

/// xorshift64, seeded per proptest case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Any row but the loop row.
    fn row(&mut self) -> RowAddr {
        RowAddr(self.below(ROWS as u64 - 1) as u16)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn data(&mut self, cols: usize) -> BitRow {
        let mut r = BitRow::zero(cols);
        (0..cols).for_each(|c| r.set_bit(c, self.coin()));
        r
    }

    /// One instruction of class `class` (0..8), fields drawn at random.
    fn instr(&mut self, class: u64, tile_width: usize) -> Instruction {
        match class {
            0 => Instruction::Check {
                src: self.row(),
                bit: self.below(tile_width as u64) as u16,
            },
            1 => Instruction::CheckZero { src: self.row() },
            2 => Instruction::MaskTiles {
                stride_log2: self.below(3) as u8,
                phase: self.coin(),
            },
            3 => Instruction::MaskAll,
            4 | 5 => Instruction::Unary {
                dst: self.row(),
                src: self.row(),
                // Class 5 is the zero-fill, which reads no source.
                kind: match class {
                    5 => UnaryKind::Zero,
                    _ => self.pick(&[UnaryKind::Copy, UnaryKind::Not]),
                },
                pred: self.pick(&PREDS),
            },
            6 => Instruction::Shift {
                dst: self.row(),
                src: self.row(),
                dir: self.pick(&DIRS),
                masked: self.coin(),
                pred: self.pick(&PREDS),
            },
            _ => Instruction::Binary {
                dst: self.row(),
                op: self.pick(&OPS),
                src0: self.row(),
                src1: self.row(),
                dst2: self.coin().then(|| (self.row(), self.pick(&OPS))),
                shift: self.coin().then(|| (self.pick(&DIRS), self.coin())),
                pred: self.pick(&PREDS),
            },
        }
    }
}

/// One instruction of every class, then random instructions, row loads
/// and draining loops (a masked left shift of the loop row until it is
/// zero, with a zero-fill epilogue).
fn random_stream(sink: &mut impl InstrSink, seed: u64, cols: usize, tile_width: usize) {
    let mut rng = Rng(seed | 1);
    for class in 0..8 {
        let i = rng.instr(class, tile_width);
        sink.emit(i).unwrap();
    }
    for _ in 0..24 {
        match rng.below(10) {
            0 => sink.load_row(rng.row(), &rng.data(cols)).unwrap(),
            1 => {
                sink.load_row(LOOP_ROW, &rng.data(cols)).unwrap();
                let body = [
                    Instruction::MaskAll,
                    Instruction::Shift {
                        dst: LOOP_ROW,
                        src: LOOP_ROW,
                        dir: ShiftDir::Left,
                        masked: true,
                        pred: PredMode::Always,
                    },
                ];
                let epilogue = [rng.instr(5, tile_width)];
                sink.zero_loop(ZeroLoopSpec {
                    src: LOOP_ROW,
                    even_body: &body,
                    odd_body: &body,
                    max_checks: tile_width + 1,
                    odd_epilogue: &epilogue,
                })
                .unwrap();
            }
            _ => {
                let class = rng.below(8);
                let i = rng.instr(class, tile_width);
                sink.emit(i).unwrap();
            }
        }
    }
}

fn controller(cols: usize, tile_width: usize) -> Controller {
    Controller::new(SramArray::new(ROWS, cols).unwrap(), tile_width).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random streams: priced `Stats` equal the per-instruction sums,
    /// emitted and replayed.
    #[test]
    fn random_streams_price_like_per_instruction_sums(seed in any::<u64>()) {
        let (cols, tile_width) = [(64, 16), (128, 32), (200, 8), (256, 64)][(seed % 4) as usize];
        let mut emitted = controller(cols, tile_width);
        let mut tally = Tally { ctl: &mut emitted, reference: Reference::default() };
        random_stream(&mut tally, seed, cols, tile_width);
        let reference = tally.reference;

        let mut rec = Recorder::new();
        random_stream(&mut rec, seed, cols, tile_width);
        let mut replayed = controller(cols, tile_width);
        let prog = rec.finish().compile(&replayed).unwrap();
        replayed.run_compiled(&prog).unwrap();
        for r in 0..ROWS {
            prop_assert_eq!(emitted.peek_row(r), replayed.peek_row(r));
        }
        prop_assert_eq!(emitted.stats(), replayed.stats());
        reference.check(priced(&mut emitted));
        reference.check(priced(&mut replayed));
    }
}

/// The per-instruction sums over a run's executed instructions. An
/// instruction's cost depends only on its class, whether a `Unary` is a
/// zero-fill and whether a `Binary` writes back twice — exactly what the
/// counts record — so this adds one instruction of each such shape per
/// counted instruction.
fn reference_from_counts(s: &Stats, cols: usize) -> Reference {
    let c = &s.counts;
    let mut rng = Rng(1);
    let binary = |rng: &mut Rng, dual: bool| loop {
        let i = rng.instr(7, 8);
        if matches!(i, Instruction::Binary { dst2, .. } if dst2.is_some() == dual) {
            break i;
        }
    };
    let shapes = [
        (rng.instr(0, 8), c.check),
        (rng.instr(1, 8), c.check_zero),
        (rng.instr(3, 8), c.mask),
        (rng.instr(4, 8), c.unary - c.unary_zero),
        (rng.instr(5, 8), c.unary_zero),
        (rng.instr(6, 8), c.shift),
        (binary(&mut rng, false), c.binary - c.second_writebacks),
        (binary(&mut rng, true), c.second_writebacks),
    ];
    let mut reference = Reference::default();
    for (shape, n) in shapes {
        (0..n).for_each(|_| reference.instr(&shape, cols));
    }
    (0..s.row_loads + s.row_stores).for_each(|_| reference.row(cols));
    reference
}

#[test]
fn generic_polymul_prices_like_per_instruction_sums() {
    let rns_prime = find_ntt_primes(30, 256, 1).unwrap()[0];
    // array_polymul, wire_mixed and one rns_polymul limb.
    for (rows, n, q, bits) in [
        (518, 256, 8_380_417, 24),
        (134, 64, 7681, 14),
        (518, 256, rns_prime, 32),
    ] {
        let cfg = BpNttConfig::new(rows, 256, bits, NttParams::new(n, q).unwrap()).unwrap();
        let lanes = cfg.layout().lanes();
        let mut rng = Rng(q);
        let mut batch = || -> Vec<Vec<u64>> {
            (0..lanes)
                .map(|_| (0..n).map(|_| rng.below(q)).collect())
                .collect()
        };
        let (a, b) = (batch(), batch());
        let mut engine = BpNtt::new(cfg.clone()).unwrap();
        engine.reset_stats();
        engine
            .run_pipeline(&PipelineSpec::polymul(), ExecMode::Generic, &[&a, &b])
            .unwrap();
        let s = engine.stats();
        assert!(s.counts.total() > 100_000, "a full-scale product");
        reference_from_counts(&s, cfg.layout().active_cols()).check(|timing| {
            engine.set_timing_model(timing);
            engine.stats()
        });
    }
}
