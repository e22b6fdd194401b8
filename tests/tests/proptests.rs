//! Property-based tests over the whole stack.

use proptest::prelude::*;

use bpntt_core::{BpNttConfig, HealthOptions, Kernels, Layout, RowMap, ShardedBpNtt};
use bpntt_modmath::bitparallel::{bp_modmul_full, bp_modmul_reduced};
use bpntt_modmath::bits::{bit_reverse, low_mask};
use bpntt_modmath::carrysave::CsPair;
use bpntt_modmath::montgomery::MontCtx;
use bpntt_modmath::primes::find_ntt_prime_high;
use bpntt_modmath::zq::{add_mod, inv_mod, mul_mod, pow_mod, reduce_once, sub_mod};
use bpntt_ntt::polymul::{polymul_ntt, polymul_schoolbook};
use bpntt_ntt::{forward, inverse, NttParams, TwiddleTable};
use bpntt_sram::{
    BitRow, Controller, InstrSink, Instruction, Recorder, ReplayOp, ReplayProgram, RowAddr,
    SramArray, ZeroLoopSpec,
};

/// Strategy: a width w ∈ 3..=24 and an odd modulus with one headroom bit.
fn width_and_modulus() -> impl Strategy<Value = (u32, u64)> {
    (3u32..=24).prop_flat_map(|w| {
        let max = (1u64 << (w - 1)) - 1;
        (Just(w), (3u64..=max.max(3)).prop_map(|q| q | 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2 (word model) equals the interleaved Montgomery
    /// reference for every in-headroom modulus.
    #[test]
    fn algorithm2_matches_montgomery((w, q) in width_and_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % q, b % q);
        let ctx = MontCtx::new(q, w).unwrap();
        let out = bp_modmul_full(a, b, q, w);
        prop_assert!(out.is_exact(), "packing observations violated with headroom");
        prop_assert_eq!(out.value(), u128::from(ctx.mont_mul_interleaved(a, b)));
        prop_assert_eq!(bp_modmul_reduced(a, b, q, w), ctx.mont_mul(a, b));
    }

    /// Carry-save pairs always represent their value exactly.
    #[test]
    fn carry_save_value_invariant(adds in proptest::collection::vec(0u64..(1 << 50), 1..8)) {
        let mut p = CsPair::ZERO;
        let mut expect: u128 = 0;
        for a in adds {
            p = p.add(a);
            expect += u128::from(a);
            prop_assert_eq!(p.value(), expect);
        }
        let (v, _) = p.resolve();
        prop_assert_eq!(u128::from(v), expect);
    }

    /// Bit reversal is an involution and preserves the value set.
    #[test]
    fn bit_reverse_involution(bits in 1u32..=32, v in any::<u64>()) {
        let v = v & low_mask(bits);
        prop_assert_eq!(bit_reverse(bit_reverse(v, bits), bits), v);
    }

    /// NTT then inverse NTT is the identity for random valid parameters.
    #[test]
    fn ntt_roundtrip(seed in any::<u64>(), idx in 0usize..4) {
        let (n, q) = [(8usize, 97u64), (16, 193), (32, 12_289), (64, 7681)][idx];
        let params = NttParams::new(n, q).unwrap();
        let tw = TwiddleTable::new(&params);
        let mut x = seed | 1;
        let orig: Vec<u64> = (0..n).map(|_| {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            x % q
        }).collect();
        let mut a = orig.clone();
        forward::ntt_in_place(&params, &tw, &mut a).unwrap();
        inverse::intt_in_place(&params, &tw, &mut a).unwrap();
        prop_assert_eq!(a, orig);
    }

    /// NTT-based negacyclic multiplication equals schoolbook.
    #[test]
    fn polymul_matches_schoolbook(seed in any::<u64>()) {
        let params = NttParams::new(16, 12_289).unwrap();
        let mut x = seed | 1;
        let mut rand_poly = || -> Vec<u64> {
            (0..16).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                x % 12_289
            }).collect()
        };
        let a = rand_poly();
        let b = rand_poly();
        prop_assert_eq!(
            polymul_ntt(&params, &a, &b).unwrap(),
            polymul_schoolbook(&params, &a, &b).unwrap()
        );
    }

    /// ISA instructions survive an encode/decode round trip.
    #[test]
    fn isa_roundtrip(dst in 0u16..1024, src0 in 0u16..1024, src1 in 0u16..1024,
                     op in 0u8..4, dual in any::<bool>(), shift in 0u8..3,
                     masked in any::<bool>(), pred in 0u8..3) {
        use bpntt_sram::{BitOp, PredMode, ShiftDir};
        let bitop = [BitOp::And, BitOp::Or, BitOp::Xor, BitOp::Nor][op as usize];
        let predmode = [PredMode::Always, PredMode::IfSet, PredMode::IfClear][pred as usize];
        let instr = Instruction::Binary {
            dst: RowAddr(dst),
            op: bitop,
            src0: RowAddr(src0),
            src1: RowAddr(src1),
            dst2: dual.then_some((RowAddr(src1 ^ 1), bitop)),
            shift: match shift {
                0 => None,
                1 => Some((ShiftDir::Left, masked)),
                _ => Some((ShiftDir::Right, masked)),
            },
            pred: predmode,
        };
        prop_assert_eq!(Instruction::decode(instr.encode()).unwrap(), instr);
    }
}

/// Builds a small in-SRAM kernel bench: 4 tiles of width `w`, modulus `q`,
/// with per-tile operand words, and runs `f`.
fn with_kernel_setup(
    w: usize,
    q: u64,
    b_words: &[u64; 4],
    f: impl FnOnce(&Kernels, &mut Controller, &Layout),
) {
    let layout = Layout::new(16, 4 * w, w, 4).unwrap();
    let array = SramArray::new(16, layout.active_cols()).unwrap();
    let mut ctl = Controller::new(array, w).unwrap();
    let kernels = Kernels::new(*layout.rowmap(), q, w);
    let mask = low_mask(w as u32);
    let mut m_row = BitRow::zero(layout.active_cols());
    let mut c_row = BitRow::zero(layout.active_cols());
    let mut b_row = BitRow::zero(layout.active_cols());
    for (t, &bw) in b_words.iter().enumerate() {
        m_row.set_tile_word(t, w, q);
        c_row.set_tile_word(t, w, q.wrapping_neg() & mask);
        b_row.set_tile_word(t, w, bw);
    }
    ctl.load_data_row(layout.rowmap().modulus.index(), m_row);
    ctl.load_data_row(layout.rowmap().comp_modulus.index(), c_row);
    ctl.load_data_row(0, b_row);
    f(&kernels, &mut ctl, &layout);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The in-SRAM constant-multiplier kernel matches the word model in
    /// every tile simultaneously (which also proves tile isolation: each
    /// tile carries different data through shared instructions).
    #[test]
    fn insram_modmul_matches_word_model(
        (w32, q) in (4u32..=16).prop_flat_map(|w| {
            let max = (1u64 << (w - 1)) - 1;
            (Just(w), (3u64..=max.max(3)).prop_map(|q| q | 1))
        }),
        a in any::<u64>(),
        bs in [any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()],
    ) {
        let w = w32 as usize;
        let a = a % q;
        let b_words = [bs[0] % q, bs[1] % q, bs[2] % q, bs[3] % q];
        with_kernel_setup(w, q, &b_words, |kernels, ctl, layout| {
            kernels.modmul_const(ctl, RowAddr(0), a).unwrap();
            kernels.finish_modmul(ctl).unwrap();
            let sum_row = layout.rowmap().sum.index();
            for (t, &b) in b_words.iter().enumerate() {
                let got = ctl.peek_row(sum_row).tile_word(t, w);
                let expect = bp_modmul_reduced(a, b, q, w32);
                assert_eq!(got, expect, "tile {t}: a={a} b={b} q={q} w={w}");
            }
        });
    }

    /// The in-SRAM add/sub kernels compute modular sums and differences.
    #[test]
    fn insram_addsub_matches_reference(
        (w32, q) in (4u32..=16).prop_flat_map(|w| {
            let max = (1u64 << (w - 1)) - 1;
            (Just(w), (3u64..=max.max(3)).prop_map(|q| q | 1))
        }),
        xs in [any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()],
        ys in [any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()],
    ) {
        let w = w32 as usize;
        let x_words = [xs[0] % q, xs[1] % q, xs[2] % q, xs[3] % q];
        let y_words = [ys[0] % q, ys[1] % q, ys[2] % q, ys[3] % q];
        with_kernel_setup(w, q, &x_words, |kernels, ctl, _layout| {
            let mut y_row = BitRow::zero(ctl.cols());
            for (t, &yw) in y_words.iter().enumerate() {
                y_row.set_tile_word(t, w, yw);
            }
            ctl.load_data_row(1, y_row);
            kernels.add_mod(ctl, RowAddr(2), RowAddr(0), RowAddr(1), None).unwrap();
            kernels.sub_mod(ctl, RowAddr(3), RowAddr(0), RowAddr(1), None).unwrap();
            for t in 0..4 {
                assert_eq!(
                    ctl.peek_row(2).tile_word(t, w),
                    add_mod(x_words[t], y_words[t], q),
                    "add tile {t} q={q} w={w}"
                );
                assert_eq!(
                    ctl.peek_row(3).tile_word(t, w),
                    sub_mod(x_words[t], y_words[t], q),
                    "sub tile {t} q={q} w={w}"
                );
            }
        });
    }

    /// Modular identities hold for the reference layer (sanity anchor).
    #[test]
    fn reference_ring_identities(q in (3u64..=1_000_000).prop_map(|q| q | 1), a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(add_mod(sub_mod(a, b, q), b, q), a);
        prop_assert_eq!(reduce_once(add_mod(a, b, q), q), add_mod(a, b, q));
        prop_assert_eq!(mul_mod(a, b, q), mul_mod(b, a, q));
    }
}

/// Runs one recorded kernel stream twice from the same array image: once
/// emitted instruction by instruction (the `ExecMode::Generic` path) and
/// once compiled and replayed. Asserts every row and the `Stats` bits agree,
/// then returns the replayed controller.
fn replay_like_generic(start: &Controller, recorded: ReplayProgram, what: &str) -> Controller {
    let mut generic = start.clone();
    for op in recorded.ops() {
        match op {
            ReplayOp::Instr(i) => generic.emit(*i).unwrap(),
            ReplayOp::LoadRow { row, data } => generic.load_row(*row, data).unwrap(),
            ReplayOp::ZeroLoop {
                src,
                body,
                max_checks,
            } => generic
                .zero_loop(ZeroLoopSpec {
                    src: *src,
                    body,
                    max_checks: *max_checks,
                })
                .unwrap(),
            ReplayOp::Epilogue(op) => generic.epilogue(*op).unwrap(),
        }
    }
    let mut replayed = start.clone();
    let prog = recorded.compile(&replayed).unwrap();
    replayed.run_compiled(&prog).unwrap();
    for r in 0..start.rows() {
        assert_eq!(replayed.peek_row(r), generic.peek_row(r), "{what}: row {r}");
    }
    let (rs, gs) = (replayed.stats(), generic.stats());
    assert_eq!(rs.counts, gs.counts, "{what}: counts");
    assert_eq!(rs.cycles, gs.cycles, "{what}: cycles");
    assert_eq!(
        rs.energy_pj.to_bits(),
        gs.energy_pj.to_bits(),
        "{what}: energy"
    );
    replayed
}

/// The butterfly arithmetic at the sign-bit extremes: operands
/// {0, 1, q−2, q−1} against each other and against random residues (so
/// `x − y` reaches −(q−1) and q−1), for q = 7681, 8380417 and the largest
/// NTT primes below 2^(w−1) at w = 24 and w = 32. Every kernel whose
/// correctness rests on the headroom bit — `add_mod`, `sub_mod`,
/// `finish_modmul` and both butterflies, constant and per-tile twiddle —
/// replays exactly like generic emission and matches the `Zq` reference.
#[test]
fn kernels_at_sign_bit_extremes_replay_like_generic_and_match_zq() {
    let moduli = [
        (14usize, 7681u64),
        (24, 8_380_417),
        (24, find_ntt_prime_high(23, 512).unwrap()),
        (32, find_ntt_prime_high(31, 512).unwrap()),
    ];
    for (w, q) in moduli {
        let mut seed = q ^ 0x9e37_79b9_7f4a_7c15;
        let mut random = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % q
        };
        let extremes = [0, 1, q - 2, q - 1];
        let mut pairs = Vec::new();
        for &x in &extremes {
            for &y in &extremes {
                pairs.push((x, y));
            }
            for _ in 0..2 {
                pairs.push((x, random()));
                pairs.push((random(), x));
            }
        }
        let twiddles: Vec<u64> = (0..pairs.len())
            .map(|t| extremes.get(t % 6).copied().unwrap_or_else(&mut random))
            .collect();
        let consts = [1, q - 1, random()];

        let tiles = pairs.len();
        let cols = tiles * w;
        let (x_row, y_row, tw_row, scratch_row, dst_row) = (0usize, 1, 2, 3, 4);
        let base = *Layout::new(16, cols, w, 4).unwrap().rowmap();
        let rm = RowMap {
            twiddle: Some(RowAddr(tw_row as u16)),
            scratch: Some(RowAddr(scratch_row as u16)),
            ..base
        };
        let kernels = Kernels::new(rm, q, w);
        let row_of = |words: Vec<u64>| {
            let mut row = BitRow::zero(cols);
            for (t, v) in words.into_iter().enumerate() {
                row.set_tile_word(t, w, v);
            }
            row
        };
        let mut start = Controller::new(SramArray::new(16, cols).unwrap(), w).unwrap();
        let comp = q.wrapping_neg() & low_mask(w as u32);
        start.load_data_row(rm.modulus.index(), row_of(vec![q; tiles]));
        start.load_data_row(rm.comp_modulus.index(), row_of(vec![comp; tiles]));
        start.load_data_row(x_row, row_of(pairs.iter().map(|p| p.0).collect()));
        start.load_data_row(y_row, row_of(pairs.iter().map(|p| p.1).collect()));
        start.load_data_row(tw_row, row_of(twiddles.clone()));
        start.reset_stats();

        let r_inv = inv_mod(pow_mod(2, w as u64, q), q).unwrap();
        let mont = |a: u64, b: u64| mul_mod(mul_mod(a, b, q), r_inv, q);
        let run = |what: &str, emit: &dyn Fn(&mut Recorder)| {
            let mut rec = Recorder::new();
            emit(&mut rec);
            replay_like_generic(&start, rec.finish(), &format!("{what} q={q} w={w}"))
        };
        let check =
            |ctl: &Controller, row: usize, what: &str, f: &dyn Fn(usize, u64, u64) -> u64| {
                for (t, &(x, y)) in pairs.iter().enumerate() {
                    assert_eq!(
                        ctl.peek_row(row).tile_word(t, w),
                        f(t, x, y),
                        "{what} q={q} w={w} tile {t}: x={x} y={y}"
                    );
                }
            };
        let (x, y, dst) = (RowAddr(0), RowAddr(1), RowAddr(dst_row as u16));

        let ctl = run("add_mod", &|s| kernels.add_mod(s, dst, x, y, None).unwrap());
        check(&ctl, dst_row, "add_mod", &|_, x, y| add_mod(x, y, q));
        let ctl = run("sub_mod", &|s| kernels.sub_mod(s, dst, x, y, None).unwrap());
        check(&ctl, dst_row, "sub_mod", &|_, x, y| sub_mod(x, y, q));

        let ctl = run("modmul_data+finish", &|s| {
            kernels.modmul_data(s, y, x).unwrap();
            kernels.finish_modmul(s).unwrap();
        });
        check(&ctl, rm.sum.index(), "finish_modmul", &|_, x, y| mont(x, y));
        let ctl = run("ct_butterfly_data", &|s| {
            kernels.ct_butterfly_data(s, x, y).unwrap()
        });
        check(&ctl, x_row, "ct lo", &|t, x, y| {
            add_mod(x, mont(twiddles[t], y), q)
        });
        check(&ctl, y_row, "ct hi", &|t, x, y| {
            sub_mod(x, mont(twiddles[t], y), q)
        });
        let ctl = run("gs_butterfly_data", &|s| {
            kernels.gs_butterfly_data(s, x, y).unwrap()
        });
        check(&ctl, x_row, "gs lo", &|_, x, y| add_mod(x, y, q));
        check(&ctl, y_row, "gs hi", &|t, x, y| {
            mont(twiddles[t], sub_mod(x, y, q))
        });

        for c in consts {
            let ctl = run("modmul_const+finish", &|s| {
                kernels.modmul_const(s, y, c).unwrap();
                kernels.finish_modmul(s).unwrap();
            });
            check(&ctl, rm.sum.index(), "finish_modmul const", &|_, _, y| {
                mont(c, y)
            });
            let ctl = run("ct_butterfly_const", &|s| {
                kernels.ct_butterfly_const(s, x, y, c).unwrap();
            });
            check(&ctl, x_row, "ct const lo", &|_, x, y| {
                add_mod(x, mont(c, y), q)
            });
            check(&ctl, y_row, "ct const hi", &|_, x, y| {
                sub_mod(x, mont(c, y), q)
            });
            let ctl = run("gs_butterfly_const", &|s| {
                kernels.gs_butterfly_const(s, x, y, c).unwrap();
            });
            check(&ctl, x_row, "gs const lo", &|_, x, y| add_mod(x, y, q));
            check(&ctl, y_row, "gs const hi", &|_, x, y| {
                mont(c, sub_mod(x, y, q))
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scrubber probes are invisible to tenants: interleaving scrub
    /// passes with batches changes no tenant-visible result (probes run
    /// on probe-owned operand slots), and probes replay the warmed
    /// program cache — they never recompile or replace cached program
    /// objects.
    #[test]
    fn scrub_probes_are_tenant_invisible(
        seed in any::<u64>(),
        shards in 1usize..=3,
        scrubs in 1usize..=3,
    ) {
        let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
        let mut x = seed | 1;
        let batch: Vec<Vec<u64>> = (0..6)
            .map(|_| {
                (0..8)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % 97
                    })
                    .collect()
            })
            .collect();

        let mut control = ShardedBpNtt::new(&cfg, shards).unwrap();
        let mut scrubbed = ShardedBpNtt::new(&cfg, shards).unwrap();
        scrubbed.set_health_options(HealthOptions::aggressive());
        if shards > 1 {
            // Bench one shard so the scrubber exercises the quarantine
            // probe path; single-shard engines are patrol-probed.
            scrubbed.quarantine(shards - 1);
        }

        let mut probes_run = 0u64;
        let mut warm = None;
        for round in 0..3 {
            for _ in 0..scrubs {
                // The aggressive probe/patrol intervals are 1 ms / 5 ms
                // of wall clock; give each pass a chance to come due.
                std::thread::sleep(std::time::Duration::from_millis(2));
                probes_run += scrubbed.scrub_pass().probes_run;
            }
            let expect = control.forward_batch(&batch).unwrap();
            let got = scrubbed.forward_batch(&batch).unwrap();
            prop_assert_eq!(
                &got, &expect,
                "round {}: scrub probes leaked into tenant-visible results", round
            );
            if round == 0 {
                warm = Some((scrubbed.cached_programs(), scrubbed.program_identities(0)));
            }
        }
        prop_assert!(probes_run >= 1, "vacuous run: no probe ever came due");
        let (warm_count, warm_ids) = warm.unwrap();
        prop_assert_eq!(
            scrubbed.cached_programs(), warm_count,
            "scrub probes changed the number of cached programs"
        );
        prop_assert_eq!(
            scrubbed.program_identities(0), warm_ids,
            "scrub probes replaced cached program objects"
        );
    }
}
