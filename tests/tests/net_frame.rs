//! Property and adversarial tests for the `bpntt-net` wire codec.
//!
//! The codec is the trust boundary between hostile sockets and the
//! verified pipeline, so the bar is: arbitrary submissions round-trip
//! exactly, and arbitrary *bytes* — truncations, oversized prefixes,
//! bad versions, garbage — produce typed [`FrameError`]s, never panics.

use proptest::prelude::*;

use bpntt_core::{ExecMode, PipelineSpec};
use bpntt_net::{
    decode_poly_body, decode_request, decode_response, encode_poly_body, encode_request,
    encode_response, read_frame, FrameError, FrameLimits, RecvError, Request, Response,
    SubmitRequest, WireErrorCode,
};

/// Deterministic polynomial from a seed (the codec does not care about
/// reduction; that is the service's job).
fn poly_from(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z ^ (z >> 29)
        })
        .collect()
}

/// Strategy pieces → a structurally arbitrary submission (not
/// necessarily a *valid* pipeline — the codec must carry invalid specs
/// too; semantic validation happens in the service).
#[allow(clippy::type_complexity)]
fn build_submit(
    (mode_sel, tenant_sel, deadline_ms): (u8, u32, u32),
    ops: Vec<(u8, u8, u8, u64)>,
    ins: Vec<(u8, u64)>,
    ((out_flag, out_slot), n): ((u8, u8), usize),
) -> SubmitRequest {
    let mut spec = PipelineSpec::new();
    for (tag, a, b, factor) in ops {
        spec = match tag {
            1 => spec.forward(a),
            2 => spec.inverse(a),
            3 => spec.pointwise(a, b),
            _ => spec.scale_by(a, factor),
        };
    }
    for &(slot, _) in &ins {
        spec = spec.input(slot);
    }
    if out_flag == 1 {
        spec = spec.output(out_slot);
    }
    SubmitRequest {
        tenant: if tenant_sel == 0 {
            None
        } else {
            Some(tenant_sel * 7919)
        },
        mode: match mode_sel {
            0 => ExecMode::Replay,
            _ => ExecMode::Generic,
        },
        deadline_ms,
        spec,
        inputs: ins.iter().map(|&(_, seed)| poly_from(seed, n)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every structurally arbitrary submission round-trips exactly.
    #[test]
    fn submit_round_trip(
        hdr in (0u8..2, 0u32..5, any::<u32>()),
        ops in proptest::collection::vec((1u8..=4, 0u8..4, 0u8..4, any::<u64>()), 0..7),
        ins in proptest::collection::vec((0u8..4, any::<u64>()), 0..4),
        tail in ((0u8..2, 0u8..4), 0usize..17),
    ) {
        let sub = build_submit(hdr, ops, ins, tail);
        let req = Request::Submit(sub);
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes, &FrameLimits::default()), Ok(req));
    }

    /// Every *proper prefix* of a valid frame decodes to a typed error
    /// (the structure is prefix-determined, so truncation can never be
    /// silently accepted) — and never panics.
    #[test]
    fn truncation_is_typed(
        hdr in (0u8..2, 0u32..5, any::<u32>()),
        ops in proptest::collection::vec((1u8..=4, 0u8..4, 0u8..4, any::<u64>()), 0..5),
        ins in proptest::collection::vec((0u8..4, any::<u64>()), 1..4),
        tail in ((0u8..2, 0u8..4), 1usize..9),
        frac in 0u32..1000,
    ) {
        let bytes = encode_request(&Request::Submit(build_submit(hdr, ops, ins, tail)));
        let cut = (frac as usize * bytes.len()) / 1000;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode_request(&bytes[..cut], &FrameLimits::default()).is_err());
    }

    /// Arbitrary garbage never panics the decoder (and anything it does
    /// accept must re-encode without panicking either).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        if let Ok(req) = decode_request(&bytes, &FrameLimits::default()) {
            let _ = encode_request(&req);
        }
        let _ = decode_response(&bytes);
        let _ = decode_poly_body(&bytes);
    }

    /// Response and poly-body codecs round-trip.
    #[test]
    fn response_round_trip(seed in any::<u64>(), n in 0usize..33, retry in any::<u32>()) {
        let poly = poly_from(seed, n);
        prop_assert_eq!(decode_poly_body(&encode_poly_body(&poly)), Ok(poly.clone()));
        let ok = Response::Ok(encode_poly_body(&poly));
        prop_assert_eq!(decode_response(&encode_response(&ok)), Ok(ok));
        let err = Response::Err {
            code: WireErrorCode::Overloaded,
            retry_after_ms: retry,
            message: format!("queue full ({seed})"),
        };
        prop_assert_eq!(decode_response(&encode_response(&err)), Ok(err));
    }
}

fn valid_submit_bytes() -> Vec<u8> {
    encode_request(&Request::Submit(SubmitRequest {
        tenant: None,
        mode: ExecMode::Replay,
        deadline_ms: 0,
        spec: PipelineSpec::forward_ntt(),
        inputs: vec![vec![1, 2, 3, 4]],
    }))
}

#[test]
fn adversarial_bytes_yield_typed_errors() {
    let limits = FrameLimits::default();
    let good = valid_submit_bytes();

    // Empty payload: truncated before the magic.
    assert!(matches!(
        decode_request(&[], &limits),
        Err(FrameError::Truncated { .. })
    ));

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert_eq!(decode_request(&bad, &limits), Err(FrameError::BadMagic));

    // Unknown version.
    let mut bad = good.clone();
    bad[4] = 99;
    assert_eq!(
        decode_request(&bad, &limits),
        Err(FrameError::BadVersion { version: 99 })
    );

    // Unknown request kind.
    let mut bad = good.clone();
    bad[5] = 200;
    assert_eq!(
        decode_request(&bad, &limits),
        Err(FrameError::BadKind { kind: 200 })
    );

    // Unknown execution mode (byte 10: after magic+ver+kind+tenant);
    // code 1 is retired and decodes as unknown.
    for mode in [1, 7] {
        let mut bad = good.clone();
        bad[10] = mode;
        assert_eq!(
            decode_request(&bad, &limits),
            Err(FrameError::BadMode { mode })
        );
    }

    // Unknown op tag (byte 17: first op after the u16 op count).
    let mut bad = good.clone();
    assert_eq!(bad[17], 1, "fixture layout changed");
    bad[17] = 9;
    assert_eq!(
        decode_request(&bad, &limits),
        Err(FrameError::BadOpTag { tag: 9 })
    );

    // Trailing garbage after a complete message.
    let mut bad = good.clone();
    bad.extend_from_slice(&[0, 0, 0]);
    assert_eq!(
        decode_request(&bad, &limits),
        Err(FrameError::TrailingBytes { extra: 3 })
    );

    // Op count beyond the cap.
    let mut bad = good.clone();
    bad[15..17].copy_from_slice(&1000u16.to_le_bytes());
    assert_eq!(
        decode_request(&bad, &limits),
        Err(FrameError::TooManyOps {
            ops: 1000,
            max: limits.max_ops
        })
    );

    // Unknown wire error code in a response.
    let mut resp = encode_response(&Response::Err {
        code: WireErrorCode::Internal,
        retry_after_ms: 0,
        message: String::new(),
    });
    resp[6] = 77;
    assert_eq!(
        decode_response(&resp),
        Err(FrameError::BadErrorCode { code: 77 })
    );

    // Non-UTF-8 error message.
    let mut resp = encode_response(&Response::Err {
        code: WireErrorCode::Internal,
        retry_after_ms: 0,
        message: "x".into(),
    });
    let end = resp.len() - 1;
    resp[end] = 0xFF;
    assert_eq!(decode_response(&resp), Err(FrameError::BadText));
}

#[test]
fn slot_and_poly_caps_are_enforced() {
    let limits = FrameLimits {
        max_slots: 2,
        max_poly_len: 8,
        ..FrameLimits::default()
    };
    let sub = |slots: usize, n: usize| {
        let mut spec = PipelineSpec::new();
        for s in 0..slots {
            spec = spec.input(s as u8);
        }
        encode_request(&Request::Submit(SubmitRequest {
            tenant: None,
            mode: ExecMode::Replay,
            deadline_ms: 0,
            spec,
            inputs: (0..slots).map(|_| vec![0u64; n]).collect(),
        }))
    };
    assert_eq!(
        decode_request(&sub(3, 4), &limits),
        Err(FrameError::TooManySlots { slots: 3, max: 2 })
    );
    assert_eq!(
        decode_request(&sub(1, 9), &limits),
        Err(FrameError::PolyTooLong { n: 9, max: 8 })
    );
    assert!(decode_request(&sub(2, 8), &limits).is_ok());
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let limits = FrameLimits::default();
    // A 4 GiB promise must be refused from the 4 prefix bytes alone.
    let hostile = u32::MAX.to_le_bytes();
    match read_frame(&mut &hostile[..], &limits) {
        Err(RecvError::Frame(FrameError::FrameTooLarge { len, max })) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(max, limits.max_frame_bytes);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // Clean EOF at a frame boundary is Closed, not an error soup.
    assert!(matches!(
        read_frame(&mut &[][..], &limits),
        Err(RecvError::Closed)
    ));
    // EOF inside the prefix is a truncation-style I/O error.
    assert!(matches!(
        read_frame(&mut &[1u8, 0][..], &limits),
        Err(RecvError::Io(_))
    ));
    // EOF inside a promised payload likewise.
    let mut partial = 100u32.to_le_bytes().to_vec();
    partial.extend_from_slice(&[0u8; 10]);
    assert!(matches!(
        read_frame(&mut &partial[..], &limits),
        Err(RecvError::Io(_))
    ));
}
