//! The request-queue service end to end: three client threads stream
//! mixed forward/polymul/custom-pipeline requests at the dispatcher,
//! which coalesces them into `(tenant, spec, mode)` waves over a 2-shard
//! engine; a second tenant with the same configuration shows the
//! service's shared artifact cache at work.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```

use std::time::Duration;

use bpntt_core::{BpNttConfig, NttService, PipelineRequest, PipelineSpec, ServiceOptions};
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::NttParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 64-point Kyber-class workload with polymul capacity (2·64 + 6 rows).
    let params = NttParams::new(64, 7681)?;
    let cfg = BpNttConfig::new(134, 256, 14, params.clone())?;
    println!(
        "service over {}-point NTT mod {}: {} lanes/shard × 2 shards",
        params.n(),
        params.modulus(),
        cfg.layout().lanes()
    );

    let service = NttService::start(
        &cfg,
        ServiceOptions {
            shards: 2,
            max_queue: 256,
            coalesce_window: Duration::from_micros(500),
            ..ServiceOptions::default()
        },
    )?;

    // A second tenant with an identical configuration finds its
    // pipelines in the shared artifact cache instead of recompiling.
    let compiled = service.metrics().pipeline_cache_entries;
    let tenant2 = service.add_tenant(&cfg)?;
    assert_eq!(
        service.metrics().pipeline_cache_entries,
        compiled,
        "tenant 2 must reuse tenant 1's compiled pipelines"
    );

    let n = params.n();
    let q = params.modulus();
    let mk_poly =
        |seed: u64| -> Vec<u64> { (0..n as u64).map(|j| (seed * 31 + j * 7) % q).collect() };

    std::thread::scope(|scope| {
        let service = &service;
        let params = &params;
        // Client 1: forward transforms on the default tenant.
        scope.spawn(move || {
            for s in 0..24u64 {
                let ticket = service.submit_forward(mk_poly(s)).expect("submit forward");
                let spectrum = ticket.wait().expect("forward result");
                assert_eq!(spectrum.len(), n);
            }
        });
        // Client 2: polymuls on the second tenant, verified against the
        // software schoolbook reference.
        scope.spawn(move || {
            for s in 0..12u64 {
                let a = mk_poly(1000 + s);
                let b = mk_poly(2000 + s);
                let ticket = service
                    .submit_polymul_as(tenant2, a.clone(), b.clone())
                    .expect("submit polymul");
                let got = ticket.wait().expect("polymul result");
                let expect = polymul_schoolbook(params, &a, &b).expect("schoolbook");
                assert_eq!(got, expect, "service polymul must match the reference");
            }
        });
        // Client 3: a custom op-graph — scale-and-roundtrip — through
        // submit_pipeline. Identical specs coalesce into shared waves.
        scope.spawn(move || {
            let spec = PipelineSpec::new()
                .input(0)
                .forward(0)
                .inverse(0)
                .scale_by(0, 3)
                .output(0);
            for s in 0..12u64 {
                let p = mk_poly(3000 + s);
                let ticket = service
                    .submit_pipeline(PipelineRequest::new(spec.clone(), vec![p.clone()]))
                    .expect("submit pipeline");
                let got = ticket.wait().expect("pipeline result");
                let expect: Vec<u64> = p.iter().map(|&c| c * 3 % q).collect();
                assert_eq!(got, expect, "scale-and-roundtrip must equal 3·p");
            }
        });
    });

    let metrics = service.shutdown();
    println!("\nall 48 requests verified; final service metrics:");
    println!("{}", metrics.to_json());
    assert_eq!(metrics.completed, 48);
    assert_eq!(metrics.failed, 0);
    assert!(
        metrics.pipeline_cache_entries >= 4,
        "canned specs plus the custom graph live in the pipeline cache"
    );
    Ok(())
}
