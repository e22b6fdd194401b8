//! Bit-accurate in-SRAM computing simulator for the BP-NTT reproduction.
//!
//! The BP-NTT paper repurposes 6T SRAM subarrays as vector compute units:
//! activating two wordlines simultaneously makes each column's sense
//! amplifier read a boolean function of the two stored bits (AND on the
//! bitline, NOR on its complement; XOR/OR by combining them — Fig. 3), and
//! a small modification to the sense amplifiers (a latch and a MUX,
//! Fig. 5(b)) adds a one-bit bidirectional shift on write-back. This crate
//! simulates that substrate exactly at the bit level:
//!
//! * [`bitrow`] — rows of bits with the peripheral operations (logic,
//!   global and tile-masked 1-bit shifts);
//! * [`array`] — the subarray with dual-wordline [`SramArray::sense`];
//! * [`isa`] — the paper's `Check`/`Unary`/`Shift`/`Binary` instruction
//!   classes (Fig. 4(d)) with a binary encoding, plus the predication /
//!   zero-detect / tile-mask facilities its dataflow implies;
//! * [`exec`] — the [`Controller`] that executes programs and counts
//!   instructions by class;
//! * [`program`] — the compile-once/replay-many layer: record a kernel's
//!   instruction stream once ([`Recorder`]), validate it once
//!   ([`ReplayProgram::compile`], one control entry per recorded op),
//!   replay it many times ([`Controller::run_compiled`]) identically to
//!   emission;
//! * [`epilogue`] — Algorithm 2's multiply and the butterfly epilogues
//!   (modular resolve + reduce, add, subtract) as typed ops with one
//!   canonical expansion each;
//! * [`wordkern`] — the vectorized word-engine behind both paths: chunked
//!   storage kernels with runtime-dispatched AVX2 implementations and a
//!   bit-identical scalar fallback (`BPNTT_FORCE_SCALAR=1` pins it);
//! * [`cost`] — calibrated timing and energy models that price class
//!   counts;
//! * [`geometry`] — 45 nm area and frequency models reproducing Table I's
//!   0.063 mm² / 3.8 GHz and the <2% overhead claim;
//! * [`stats`] — cycle/energy/instruction statistics. `Stats` are integer
//!   class counts; `cost.rs` prices cycles and energy from them on read.
//!
//! The accelerator logic itself (data layout, Algorithm 2 code generation,
//! NTT scheduling) lives in `bpntt-core`; this crate knows nothing about
//! number theory.
//!
//! # Example
//!
//! ```
//! use bpntt_sram::{BitOp, BitRow, Controller, Instruction, PredMode, RowAddr, SramArray};
//!
//! // Eight 32-bit tiles in a 256-column array, exactly Fig. 5(a).
//! let mut ctl = Controller::new(SramArray::new(256, 256)?, 32)?;
//! let mut a = BitRow::zero(256);
//! let mut b = BitRow::zero(256);
//! for t in 0..8 {
//!     a.set_tile_word(t, 32, 100 + t as u64); // eight independent words
//!     b.set_tile_word(t, 32, 7);
//! }
//! ctl.load_data_row(0, a);
//! ctl.load_data_row(1, b);
//! // One activation computes carry and sum half-adders in every tile.
//! ctl.execute(&Instruction::Binary {
//!     dst: RowAddr(2),
//!     op: BitOp::And,
//!     src0: RowAddr(0),
//!     src1: RowAddr(1),
//!     dst2: Some((RowAddr(3), BitOp::Xor)),
//!     shift: None,
//!     pred: PredMode::Always,
//! })?;
//! assert_eq!(ctl.peek_row(2).tile_word(3, 32), 103 & 7);
//! assert_eq!(ctl.peek_row(3).tile_word(3, 32), 103 ^ 7);
//! # Ok::<(), bpntt_sram::SramError>(())
//! ```

// Unsafe is denied crate-wide and re-allowed only inside `wordkern`, whose
// AVX2 paths need raw-pointer vector loads/stores (each documented with a
// SAFETY comment and covered by scalar-equivalence tests).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bitrow;
pub mod cost;
pub mod epilogue;
pub mod error;
pub mod exec;
pub mod fault;
pub mod geometry;
pub mod isa;
pub mod program;
pub mod stats;
pub mod wordkern;

pub use array::{SenseResult, SramArray};
pub use bitrow::BitRow;
pub use cost::{EnergyModel, TimingModel};
pub use epilogue::{Epilogue, EpilogueOp, ModMulOp, ModRows, Multiplier};
pub use error::SramError;
pub use exec::Controller;
pub use fault::{FaultPlan, FaultStats};
pub use geometry::{AreaBreakdown, AreaModel, ArrayGeometry, FrequencyModel};
pub use isa::{BitOp, Instruction, PredMode, Program, RowAddr, ShiftDir, UnaryKind};
pub use program::{CompiledProgram, InstrSink, Recorder, ReplayOp, ReplayProgram, ZeroLoopSpec};
pub use stats::{FastPathStats, InstrCounts, Stats};
pub use wordkern::{force_scalar, simd_active, FastPathKind};
