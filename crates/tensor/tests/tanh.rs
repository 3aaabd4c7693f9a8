//! The in-house `tanh` (`kgag_tensor::tanh`, a port of glibc 2.36's
//! fdlibm `tanhf`) against the platform's `f32::tanh`.
//!
//! The default-on table test pins both entry points against outputs of
//! glibc 2.36's `tanhf` recorded at every branch edge of the port, so a
//! host with another libm still checks the port. The exhaustive
//! comparison with the platform's `f32::tanh` is `#[ignore]`d — it walks
//! all 2³² inputs through both entry points, under a minute on 2 cores in
//! release — and runs in the opt-in `./ci.sh --stage tanh`; it holds on
//! a host whose libm is glibc 2.36's.

use kgag_tensor::infer::isa;
use kgag_tensor::pool;
use kgag_tensor::tanh::{tanh, tanh16};

/// (input bits, glibc 2.36 `tanhf` output bits), each input with both
/// signs: ±0; subnormals; around 2⁻⁵⁵ (below it `tanhf` returns
/// `x·(1+x)`), 2⁻²⁶ (below it `expm1f(−2|x|)` returns its argument),
/// 0.25·ln 2 and 0.75·ln 2 (`expm1f`'s 0.5·ln 2 and 1.5·ln 2 reduction
/// thresholds of `2|x|`), 1 (the switch to `expm1f(2|x|)`), 7.5 (the
/// edge of the 16-lane domain), the first inputs of reductions
/// k = 4, 22, 23 (`expm1f`'s 1 − 2⁻ᵏ arm ends) and 56, 57 (its plain
/// arm starts above 56), 13.5·ln 2 (glibc's `expm1f` enters its
/// 27·ln 2 filter there, which the port leaves out as a no-op) and 22
/// (above it `tanhf` returns ±1); the largest finite value, ±∞, and
/// quiet and signalling NaNs with payloads.
const GLIBC_2_36: [(u32, u32); 102] = [
    (0x00000000, 0x00000000),
    (0x00000001, 0x00000001),
    (0x00000002, 0x00000002),
    (0x00400000, 0x00400000),
    (0x007fffff, 0x007fffff),
    (0x00800000, 0x00800000),
    (0x23ffffff, 0x23ffffff),
    (0x24000000, 0x24000000),
    (0x24000001, 0x24000001),
    (0x327fffff, 0x327fffff),
    (0x32800000, 0x32800000),
    (0x32800001, 0x32800001),
    (0x3e317217, 0x3e2fb0cc),
    (0x3e317218, 0x3e2fb0cd),
    (0x3e317219, 0x3e2fb0cd),
    (0x3e800000, 0x3e7acbf5),
    (0x3f000000, 0x3eec9a9f),
    (0x3f051591, 0x3ef486f8),
    (0x3f051592, 0x3ef486f8),
    (0x3f051593, 0x3ef486fb),
    (0x3f7fffff, 0x3f42f7d5),
    (0x3f800000, 0x3f42f7d6),
    (0x3f800001, 0x3f42f7d6),
    (0x3f9b43d4, 0x3f566b9a),
    (0x3f9b43d5, 0x3f566b9a),
    (0x3fc00000, 0x3f67b7cc),
    (0x40000000, 0x3f76ca83),
    (0x40800000, 0x3f7fd40c),
    (0x40ee714f, 0x3f7ffff5),
    (0x40ee7150, 0x3f7ffff5),
    (0x40efffff, 0x3f7ffff6),
    (0x40f00000, 0x3f7ffff6),
    (0x40f00001, 0x3f7ffff6),
    (0x40f98871, 0x3f7ffffa),
    (0x40f98872, 0x3f7ffffa),
    (0x4115b843, 0x3f800000),
    (0x4115b844, 0x3f800000),
    (0x4115b845, 0x3f800000),
    (0x4199e0f0, 0x3f800000),
    (0x4199e0f1, 0x3f800000),
    (0x419ca6b8, 0x3f800000),
    (0x419ca6b9, 0x3f800000),
    (0x41afffff, 0x3f800000),
    (0x41b00000, 0x3f800000),
    (0x41b00001, 0x3f800000),
    (0x7f7fffff, 0x3f800000),
    (0x7f800000, 0x3f800000),
    (0x7f800001, 0x7fc00001),
    (0x7fc00000, 0x7fc00000),
    (0x7fc00001, 0x7fc00001),
    (0x7fffffff, 0x7fffffff),
    (0x80000000, 0x80000000),
    (0x80000001, 0x80000001),
    (0x80000002, 0x80000002),
    (0x80400000, 0x80400000),
    (0x807fffff, 0x807fffff),
    (0x80800000, 0x80800000),
    (0xa3ffffff, 0xa3ffffff),
    (0xa4000000, 0xa4000000),
    (0xa4000001, 0xa4000001),
    (0xb27fffff, 0xb27fffff),
    (0xb2800000, 0xb2800000),
    (0xb2800001, 0xb2800001),
    (0xbe317217, 0xbe2fb0cc),
    (0xbe317218, 0xbe2fb0cd),
    (0xbe317219, 0xbe2fb0cd),
    (0xbe800000, 0xbe7acbf5),
    (0xbf000000, 0xbeec9a9f),
    (0xbf051591, 0xbef486f8),
    (0xbf051592, 0xbef486f8),
    (0xbf051593, 0xbef486fb),
    (0xbf7fffff, 0xbf42f7d5),
    (0xbf800000, 0xbf42f7d6),
    (0xbf800001, 0xbf42f7d6),
    (0xbf9b43d4, 0xbf566b9a),
    (0xbf9b43d5, 0xbf566b9a),
    (0xbfc00000, 0xbf67b7cc),
    (0xc0000000, 0xbf76ca83),
    (0xc0800000, 0xbf7fd40c),
    (0xc0ee714f, 0xbf7ffff5),
    (0xc0ee7150, 0xbf7ffff5),
    (0xc0efffff, 0xbf7ffff6),
    (0xc0f00000, 0xbf7ffff6),
    (0xc0f00001, 0xbf7ffff6),
    (0xc0f98871, 0xbf7ffffa),
    (0xc0f98872, 0xbf7ffffa),
    (0xc115b843, 0xbf800000),
    (0xc115b844, 0xbf800000),
    (0xc115b845, 0xbf800000),
    (0xc199e0f0, 0xbf800000),
    (0xc199e0f1, 0xbf800000),
    (0xc19ca6b8, 0xbf800000),
    (0xc19ca6b9, 0xbf800000),
    (0xc1afffff, 0xbf800000),
    (0xc1b00000, 0xbf800000),
    (0xc1b00001, 0xbf800000),
    (0xff7fffff, 0xbf800000),
    (0xff800000, 0xbf800000),
    (0xff812345, 0xffc12345),
    (0xffc00000, 0xffc00000),
    (0xffc12345, 0xffc12345),
    (0xffffffff, 0xffffffff),
];

/// Both entry points reproduce the recorded outputs bit for bit; the
/// 16-lane one with each input among 15 in-domain lanes, so an
/// in-domain input takes the branch-free path.
#[test]
fn both_entry_points_reproduce_recorded_glibc_outputs() {
    for &(x, want) in &GLIBC_2_36 {
        let x = f32::from_bits(x);
        assert_eq!(tanh(x).to_bits(), want, "tanh({x:e}) [{:#010x}]", x.to_bits());
        for lane in [0, 7, 15] {
            let mut row = [0.5f32; 16];
            row[lane] = x;
            tanh16(&mut row);
            assert_eq!(row[lane].to_bits(), want, "tanh16 lane {lane} of {x:e}");
            assert_eq!(row[(lane + 1) % 16].to_bits(), tanh(0.5).to_bits());
        }
    }
}

/// Inputs of one pool task.
const BLOCK: u64 = 1 << 22;

/// Every input whose port result differs from `f32::tanh` in any bit,
/// NaN payloads included, through the scalar entry point and through
/// [`tanh16`] on 16 consecutive bit patterns at a time. `tanh16` runs
/// the compilation the host supports: the AVX2 one on an AVX2 host, the
/// baseline one elsewhere. The test prints which (`isa`), and the
/// unit tests of `kgag_tensor::tanh` pin the two against each other.
#[test]
#[ignore = "walks all 2^32 inputs; run with ./ci.sh --stage tanh"]
fn both_entry_points_equal_libm_on_every_input() {
    let blocks: Vec<u64> = (0..(1u64 << 32) / BLOCK).collect();
    let mismatches: Vec<(u64, Vec<u32>)> = pool::par_map(&blocks, |_, &b| {
        let mut bad = Vec::new();
        let mut row = [0.0f32; 16];
        for base in (b * BLOCK..(b + 1) * BLOCK).step_by(16) {
            for (j, x) in row.iter_mut().enumerate() {
                *x = f32::from_bits((base + j as u64) as u32);
            }
            let want = row.map(|x| x.tanh().to_bits());
            let scalar = row.map(|x| tanh(x).to_bits());
            tanh16(&mut row);
            for j in 0..16 {
                if scalar[j] != want[j] || row[j].to_bits() != want[j] {
                    bad.push((base + j as u64) as u32);
                }
            }
        }
        (b, bad)
    });
    let total: usize = mismatches.iter().map(|(_, bad)| bad.len()).sum();
    let first: Vec<u32> =
        mismatches.iter().flat_map(|(_, bad)| bad.iter().copied()).take(8).collect();
    println!("tanh: {total} mismatches of 2^32 inputs, tanh16 compiled for {}", isa());
    assert_eq!(total, 0, "first mismatching inputs: {first:08x?}");
}
