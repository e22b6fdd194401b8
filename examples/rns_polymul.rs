//! Big-modulus polynomial multiplication via RNS/CRT limb decomposition.
//!
//! ```text
//! cargo run --release --example rns_polymul
//! ```
//!
//! A single BP-NTT tile computes mod one word-sized prime `q`. HE-style
//! workloads need coefficient moduli of hundreds of bits — far past any
//! tile word. The residue number system bridges the gap: pick `L`
//! NTT-friendly primes, work mod each independently (one engine per
//! limb, fanned out concurrently), and reconstruct the big-integer
//! answer with the Chinese Remainder Theorem. This example walks the
//! whole path twice — through the raw [`RnsContext`] engine layer, then
//! through the [`NttService`] multi-tenant front-end — and checks both
//! against a hand-rolled bigint schoolbook product mod `Q`.

use std::sync::Arc;

use bpntt_core::{
    BackendKind, BigUint, ExecMode, NttService, PipelineSpec, RnsBasis, RnsContext, RnsRequest,
    ServiceOptions,
};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_rns::reference::negacyclic_polymul_basis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- build a basis: three ~30-bit NTT-friendly primes for N = 256 ----
    // Q = q0·q1·q2 is ~90 bits — no single tile word could hold it.
    let n: usize = 256;
    let primes = find_ntt_primes(30, n as u64, 3)?;
    let basis = Arc::new(RnsBasis::new(n, &primes)?);
    println!(
        "basis: {:?} → Q is {} bits ({})",
        basis.primes(),
        basis.modulus_bits(),
        basis.modulus()
    );

    // Deterministic operands with coefficients over the full 0..Q range.
    let mut x = 0x5EEDu64;
    let mut big_poly = || -> Vec<BigUint> {
        (0..n)
            .map(|_| {
                let mut limbs = Vec::with_capacity(2);
                for _ in 0..2 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    limbs.push(x);
                }
                BigUint::from_limbs(limbs).rem(basis.modulus())
            })
            .collect()
    };
    let a = big_poly();
    let b = big_poly();
    let expect = negacyclic_polymul_basis(&a, &b, &basis)?;

    // ---- engine layer: one sharded engine per limb, fanned out -----------
    // Polymul holds both operands resident: 2N + 6 rows. 31-bit words on
    // a 62-column slice give 2 lanes per limb engine.
    let mut ctx = RnsContext::new(
        Arc::clone(&basis),
        2 * n + 6,
        62,
        31,
        basis.limbs(),
        BackendKind::Sim,
    )?;
    let product = ctx.run_rns(
        &PipelineSpec::polymul(),
        ExecMode::Replay,
        &[a.clone(), b.clone()],
    )?;
    assert_eq!(product, expect, "CRT reconstruction diverged");
    let wave = ctx.last_wave();
    println!(
        "engine fan-out: {} of {} shards busy in one wave (occupancy {:.2}), wall {:.2} ms",
        wave.participating,
        wave.capacity,
        wave.occupancy,
        wave.wall_secs * 1e3
    );
    println!("  c[0] = {}", product[0]);

    // The sequential baseline computes the same answer with one limb's
    // shards busy at a time — the gap is what the fan-out recovers.
    let slots_a = vec![a.clone()];
    let slots_b = vec![b.clone()];
    let sequential = ctx.run_limbs_sequential(
        &PipelineSpec::polymul(),
        ExecMode::Replay,
        &[&slots_a, &slots_b],
    )?;
    assert_eq!(sequential[0], expect);
    println!(
        "sequential baseline: occupancy {:.2} — identical answer, idle budget",
        ctx.last_wave().occupancy
    );

    // ---- service layer: an RNS tenant group over the same basis ----------
    let service = NttService::start(
        &bpntt_core::BpNttConfig::paper_256pt_16bit()?,
        ServiceOptions::default(),
    )?;
    let handle = service.add_rns_tenant(2 * n + 6, 62, 31, &basis)?;
    let result = service
        .submit_rns(&handle, RnsRequest::polymul(a, b))?
        .wait()?;
    assert_eq!(result.coefficients, expect, "service path diverged");
    let m = service.shutdown();
    println!(
        "service: {} RNS request ({} limbs) through tenants {:?}, fan-out occupancy {:.2}",
        m.rns_requests,
        m.rns_limbs,
        handle.limb_tenants(),
        m.rns_fanout_occupancy
    );
    println!("all three paths agree with the bigint reference");
    Ok(())
}
