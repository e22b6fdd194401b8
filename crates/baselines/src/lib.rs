//! Comparison baselines for the BP-NTT evaluation.
//!
//! Table I of the paper compares BP-NTT against seven prior designs. The
//! paper itself takes those competitors' numbers from their publications
//! and projects them to 45 nm; this crate does the same:
//!
//! * [`spec`] — the Table-I schema (`DesignSpec`) with derived
//!   throughput-per-area and throughput-per-power;
//! * [`published`] — the seven baseline design points at 45 nm (MeNTT,
//!   CryptoPIM, RM-NTT, LEIA, Sapphire, an FPGA implementation, and a CPU);
//! * [`footprint`] — the memory-footprint models behind Fig. 7 (BP-NTT vs
//!   MeNTT vs RM-NTT for a 32-bit, 128-point NTT);
//! * [`bitserial`] — a *measured* bit-serial (Neural-Cache-style,
//!   transposed layout) modular-multiplication kernel running on the same
//!   SRAM simulator, used by the ablation study to quantify the paper's
//!   "half the shifts / bit-parallel beats bit-serial" arguments with real
//!   instruction counts rather than citations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitserial;
pub mod footprint;
pub mod published;
pub mod spec;

pub use spec::{DesignSpec, MemTechnology};
