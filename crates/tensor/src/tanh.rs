//! The one `tanh` of the workspace: a bit-exact port of fdlibm's
//! `tanhf`/`expm1f` as built into glibc 2.36 (plain SSE, no FMA), in a
//! scalar form and a 16-lane form for packed rows.
//!
//! The tape ([`crate::Tape::tanh`]) and the inference kernels
//! ([`crate::infer`]) both call this code, so the two agree by
//! construction on any host, whatever its libm. On a glibc 2.36 host
//! both forms also equal `f32::tanh` on all 2³² inputs, NaN payloads
//! included (`tests/tanh.rs`).
//!
//! [`tanh16`] evaluates a row without branches on the common domain
//! 2⁻²⁶ ≤ |x| < 7.5, where `expm1f`'s argument `±2|x|` takes only the
//! reductions k = 0, −1, −2/−3 and 3…22. Every lane computes the one
//! reduction formula, the polynomial and each of those four tails, and
//! keeps the tail its `k` selects; the two quotients of `tanhf`
//! (`1 − 2/(t+2)` for |x| ≥ 1, `−t/(t+2)` below) become one division
//! with a selected numerator. Each selected value is the very
//! expression the scalar code evaluates, on the same bits. A row with
//! any lane outside the domain runs [`tanh`] lane by lane.

// The algorithm and its constants are from fdlibm:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

use crate::infer::{packed_twins, Isa};

const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// |`expm1f` argument| at or below which it takes no reduction (k = 0):
/// 0.5·ln 2.
const HALF_LN2: f32 = f32::from_bits(0x3eb1_7218);
/// |`expm1f` argument| below which a reduction takes k = ±1: 1.5·ln 2.
const THREE_HALVES_LN2: f32 = f32::from_bits(0x3f85_1592);
/// The lower edge of [`tanh16`]'s branch-free domain, 2⁻²⁶: below it
/// `expm1f(−2|x|)` returns its argument.
const LANE_MIN: f32 = f32::from_bits(0x3280_0000);
/// The upper edge of [`tanh16`]'s branch-free domain: below 7.5 the
/// reduction of `2|x|` keeps k ≤ 22.
const LANE_MAX: f32 = 7.5;

/// `y` with `k` added to its exponent field — fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `exp(x) − 1`: fdlibm's `expm1f` on the arguments [`tanh`] passes,
/// −2 < x ≤ −2⁻⁵⁴ and 2 ≤ x < 44. The paths of `expm1f` no such
/// argument reaches are left out: its huge and non-finite block, which
/// returns early only for x < −27·ln 2, x > 88.7 and ±∞ or NaN, and the
/// positive side of its k = ±1 arm (0.5·ln 2 < x < 1.5·ln 2). So the
/// exhaustive test in `tests/tanh.rs` runs every line of this port.
fn expm1(x: f32) -> f32 {
    debug_assert!((-2.0 < x && x < 0.0) || (2.0..44.0).contains(&x), "expm1({x:e})");
    let bits = x.to_bits();
    let negative = bits & 0x8000_0000 != 0;
    let hx = bits & 0x7fff_ffff;

    // argument reduction
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln 2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln 2, so x < 0
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k) // t·ln2_hi is exact here
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: x
        let t = HUGE + x;
        return x - (t - HUGE);
    } else {
        (x, 0.0, 0)
    };

    // x is now in the primary range
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        // exp(x) − 1 suffices
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        add_exponent((x - (e + t)) + 1.0, k)
    }
}

/// Hyperbolic tangent: fdlibm's `tanhf`, bit for bit.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    // ±∞ → ±1, NaN → NaN
    if ix >= 0x7f80_0000 {
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }

    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2⁻⁵⁵
        }
        if ix >= 0x3f80_0000 {
            // |x| ≥ 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| ≥ 22: ±1
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// [`tanh`] of one lane in 2⁻²⁶ ≤ |x| < 7.5, with no branch: every
/// path of `expm1f(±2|x|)` the domain reaches is evaluated and the one
/// its reduction `k` takes is selected.
///
/// # Safety
/// `x` must lie in the domain, `LANE_MIN ≤ |x| < LANE_MAX`: the
/// reduction truncates `INVLN2·y ± 0.5` without a range check.
#[inline(always)]
unsafe fn tanh_lane(x: f32) -> f32 {
    debug_assert!((LANE_MIN..LANE_MAX).contains(&x.abs()), "tanh_lane({x:e})");
    let a = x.abs();
    let big = a >= 1.0;
    // the expm1f argument, and its magnitude 2|x| (both exact)
    let y = if big { 2.0 * a } else { -2.0 * a };
    let ay = 2.0 * a;
    // the reduction: no k for |y| ≤ 0.5·ln 2, k = −1 up to 1.5·ln 2
    // (y ≥ 2 whenever y is positive), the truncated quotient above.
    // SAFETY: |y| < 15 in the domain, so |INVLN2·y ± 0.5| < 23 is finite
    // and fits an i32; unchecked, the truncation is one packed
    // `cvttps2dq` instead of a saturating scalar conversion a lane
    let rounded: i32 = unsafe { (INVLN2 * y + if big { 0.5 } else { -0.5 }).to_int_unchecked() };
    let k = if ay <= HALF_LN2 {
        0
    } else if ay < THREE_HALVES_LN2 {
        -1
    } else {
        rounded
    };
    // at k = 0 this leaves y as it is and c = 0; at k = −1 it is the
    // x + ln2_hi, −ln2_lo of fdlibm's k = −1 arm bit for bit
    let t = k as f32;
    let hi = y - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let at_zero = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let at_minus_one = 0.5 * (r - e) - 0.5;
    let below = add_exponent(1.0 - (e - r), k) - 1.0;
    // 1 − 2⁻ᵏ, exact for the k ≤ 22 it is kept for
    let one_less = 1.0 - f32::from_bits(((0x7f - k) << 23) as u32);
    let above = add_exponent(one_less - (e - r), k);
    let t = if k == 0 {
        at_zero
    } else if k == -1 {
        at_minus_one
    } else if k < 0 {
        below
    } else {
        above
    };

    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// [`tanh`] of a packed row, in place: 16 lanes at a time where every
/// lane is in 2⁻²⁶ ≤ |x| < 7.5, lane by lane otherwise. Runs the
/// compilation of [`tanh16_packed`] the host supports
/// ([`crate::infer::isa`]); both give the same bits.
#[inline]
pub fn tanh16(row: &mut [f32; 16]) {
    tanh16_in(Isa::host(), row)
}

/// The body of [`tanh16`], inlined into the packed kernel epilogues.
#[inline(always)]
pub(crate) fn tanh16_packed(row: &mut [f32; 16]) {
    let lanes_ok = row.iter().fold(true, |ok, x| ok & (x.abs() >= LANE_MIN) & (x.abs() < LANE_MAX));
    if lanes_ok {
        for x in row.iter_mut() {
            // SAFETY: every lane is in the domain
            *x = unsafe { tanh_lane(*x) };
        }
    } else {
        for x in row.iter_mut() {
            *x = tanh(*x);
        }
    }
}

packed_twins!(
    /// [`tanh16_packed`] in the compilation `isa` names.
    fn tanh16_in[](row: &mut [f32; 16]) = tanh16_packed
);

/// [`tanh`] of every element, in place: whole 16-element chunks through
/// [`tanh16`], the rest one at a time.
pub fn tanh_inplace(xs: &mut [f32]) {
    let isa = Isa::host();
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        tanh16_in(isa, chunk.try_into().expect("a 16-element chunk"));
    }
    for x in chunks.into_remainder() {
        *x = tanh(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // the decimals as fdlibm's source spells them
    #[allow(clippy::excessive_precision, clippy::approx_constant)]
    fn constants_are_fdlibms() {
        assert_eq!(LN2_HI, 6.9313812256e-01);
        assert_eq!(LN2_LO, 9.0580006145e-06);
        assert_eq!(INVLN2, 1.4426950216e+00);
        assert_eq!(Q1, -3.3333335072e-02);
        assert_eq!(Q5, -2.0109921195e-07);
        assert_eq!(LANE_MIN, 2.0f32.powi(-26));
    }

    #[test]
    fn the_lane_form_equals_the_scalar_form_on_its_domain() {
        let check = |x: f32| {
            if (LANE_MIN..LANE_MAX).contains(&x) {
                for v in [x, -x] {
                    // SAFETY: |v| is in the domain
                    let lane = unsafe { tanh_lane(v) };
                    assert_eq!(lane.to_bits(), tanh(v).to_bits(), "x = {v:e}");
                }
            }
        };
        let mut x = LANE_MIN;
        while x < LANE_MAX {
            check(x);
            x = f32::from_bits(x.to_bits() + 997);
        }
        // the reduction `k` of |x|, as the lane form truncates it
        let k_of = |x: f32| {
            let big = x >= 1.0;
            let y = if big { 2.0 * x } else { -2.0 * x };
            (INVLN2 * y + if big { 0.5 } else { -0.5 }) as i32
        };
        // the least x in (lo, hi] at which `reached` starts to hold
        let first = |lo: f32, hi: f32, reached: &dyn Fn(f32) -> bool| {
            let (mut lo, mut hi) = (lo.to_bits(), hi.to_bits());
            assert!(!reached(f32::from_bits(lo)) && reached(f32::from_bits(hi)));
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if reached(f32::from_bits(mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f32::from_bits(hi)
        };
        // every edge of the reduction exactly and one ulp either side:
        // the domain's ends, 2|x| at 0.5·ln 2 (k = 0 → −1) and 1.5·ln 2
        // (→ −2), the −2 → −3 step below 1, |x| = 1 (the quotient
        // switch, where k = 3 starts) and each step to k = 4…22
        let mut edges = vec![LANE_MIN, LANE_MAX, HALF_LN2 / 2.0, THREE_HALVES_LN2 / 2.0, 1.0];
        let below_one = f32::from_bits(1.0f32.to_bits() - 1);
        edges.push(first(THREE_HALVES_LN2 / 2.0, below_one, &|x| k_of(x) <= -3));
        assert_eq!((k_of(below_one), k_of(1.0)), (-3, 3));
        for k in 4..=22 {
            edges.push(first(1.0, LANE_MAX, &|x| k_of(x) >= k));
        }
        assert_eq!(k_of(f32::from_bits(LANE_MAX.to_bits() - 1)), 22, "k ≤ 22 on the domain");
        for edge in edges {
            let b = edge.to_bits();
            for b in [b - 1, b, b + 1] {
                check(f32::from_bits(b));
            }
        }
    }

    #[test]
    fn a_row_with_a_lane_outside_the_domain_runs_the_scalar_form() {
        let mut row: [f32; 16] = std::array::from_fn(|i| i as f32 * 0.4 - 3.0);
        row[5] = 0.0;
        row[9] = f32::INFINITY;
        let want = row.map(tanh);
        tanh16(&mut row);
        assert_eq!(row.map(f32::to_bits), want.map(f32::to_bits));
        assert_eq!(row[5].to_bits(), 0);
        assert_eq!(row[9], 1.0);
    }

    /// The baseline and the AVX2 compilation of [`tanh16`] give the
    /// same bits, NaN payloads included (each lane's NaN meets no other
    /// NaN, so its payload is the input's): on rows wholly inside the
    /// branch-free domain and on rows with one or more lanes outside it.
    #[test]
    fn the_twins_agree_bit_for_bit() {
        const OUTSIDE: [u32; 14] = [
            0x0000_0000, // ±0
            0x8000_0000,
            0x0000_0001, // subnormals
            0x807f_ffff,
            0x1f80_0000, // 2⁻⁶⁰
            0x327f_ffff, // just below 2⁻²⁶
            0x40f0_0000, // 7.5
            0xc100_0000, // −8
            0x41b0_0001, // just above 22
            0x7149_f2ca, // 1e30
            0x7f80_0000, // ±∞
            0xff80_0000,
            0x7fc0_1234, // NaN payloads, quiet and signalling
            0xff81_2345,
        ];
        let Some(avx2) = Isa::avx2() else {
            println!("tanh16: the host has no AVX2; only the baseline compilation ran");
            return;
        };
        let mut rng = crate::rng::SplitMix64::new(0x7a2b);
        for round in 0..4096 {
            let mut row: [f32; 16] = std::array::from_fn(|_| {
                let x = LANE_MIN + rng.next_f32() * (LANE_MAX - LANE_MIN);
                if rng.next_below(2) == 0 {
                    x
                } else {
                    -x
                }
            });
            // three rounds in four put lanes outside the domain
            for _ in 0..round % 4 {
                row[rng.next_below(16)] = f32::from_bits(OUTSIDE[rng.next_below(OUTSIDE.len())]);
            }
            let mut twin = row;
            tanh16_in(Isa::BASELINE, &mut row);
            tanh16_in(avx2, &mut twin);
            assert_eq!(twin.map(f32::to_bits), row.map(f32::to_bits), "round {round}");
        }
    }
}
