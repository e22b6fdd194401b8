//! Host crate of the `loadgen` binary (`src/bin/loadgen.rs`), which
//! drives the wire front-end and service under zipf tenants and chaos.

#![forbid(unsafe_code)]
