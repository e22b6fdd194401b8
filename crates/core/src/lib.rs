//! The BP-NTT accelerator: bit-parallel in-SRAM number-theoretic transform.
//!
//! This crate is the reproduction of the BP-NTT paper's primary
//! contribution. It maps the Cooley–Tukey NTT (and its Gentleman–Sande
//! inverse) onto the in-SRAM computing substrate simulated by
//! [`bpntt_sram`], using:
//!
//! * a **tile-based data layout** ([`layout`]) in which every coefficient
//!   of a polynomial shares one tile's bitlines, so butterflies pick
//!   operands by row address — the paper's *implicit, costless shift*;
//! * **bit-parallel Montgomery modular multiplication** ([`kernels`],
//!   paper Algorithm 2): a carry-save formulation needing only AND/XOR/OR
//!   and one-bit shifts, with the multiplier folded into the instruction
//!   stream (compile-time twiddles) or streamed per tile from a row
//!   (pointwise products, multi-tile twiddles);
//! * a **batch engine** ([`engine`]) that runs one instruction stream over
//!   all tiles, computing up to `⌊cols / bitwidth⌋` independent NTTs at
//!   once, or one large NTT spanning several tiles (with explicit
//!   cross-tile shift costs, reproducing the scaling behaviour of the
//!   paper's Fig. 8(b)).
//!
//! # Example
//!
//! ```
//! use bpntt_core::{BpNtt, BpNttConfig};
//!
//! // The paper's design point: 16 parallel 256-point NTTs, 16-bit words.
//! let cfg = BpNttConfig::paper_256pt_16bit()?;
//! let mut acc = BpNtt::new(cfg)?;
//! let q = acc.config().params().modulus();
//! let polys: Vec<Vec<u64>> = (0..16)
//!     .map(|lane| (0..256).map(|j| (lane * 4099 + j * 7) as u64 % q).collect())
//!     .collect();
//! acc.load_batch(&polys)?;
//! acc.forward()?;
//! let spectra = acc.read_batch(16)?;
//! assert_eq!(spectra.len(), 16);
//! # Ok::<(), bpntt_core::BpNttError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod artifacts;
pub mod config;
pub mod engine;
pub mod error;
pub mod health;
pub mod kernels;
pub mod layout;
pub mod metrics;
pub mod pipeline;
pub mod rns;
pub mod service;
pub mod sharded;
pub mod verify;

pub use artifacts::ArtifactCache;
pub use config::BpNttConfig;
pub use engine::BpNtt;
pub use error::BpNttError;
pub use health::{
    HealthCounters, HealthMonitor, HealthOptions, HealthTransition, ShardHealthState,
};
pub use kernels::Kernels;
pub use layout::{Layout, RowMap};
pub use metrics::{PerfReport, ServiceMetrics, TenantMetrics};
pub use pipeline::{CompiledPipeline, ExecMode, PipeOp, PipelineSpec};
pub use rns::{BackendKind, RnsContext, RnsWaveReport};
pub use service::{
    NttService, PipelineRequest, RateLimit, RnsHandle, RnsRequest, RnsResult, RnsTicket,
    ServiceOptions, TenantId, Ticket,
};
pub use sharded::{RecoveryOptions, RecoveryReport, ScrubReport, ShardedBpNtt};
pub use verify::{Verifier, VerifyPolicy};

// The fault-injection surface of the SRAM layer, re-exported so chaos
// drills and the service's chaos knob need only this crate.
pub use bpntt_sram::{FaultPlan, FaultStats};

// The RNS vocabulary types, re-exported so `submit_rns` callers need
// only this crate.
pub use bpntt_rns::{BigUint, RnsBasis, RnsError};
