//! GELU and tanh as vector kernels: fdlibm's `tanhf`, lane for lane.
//!
//! The tape's and the serving engine's GELU (tanh approximation) and
//! `tanh` are one body here. Each lane runs exactly the operation sequence
//! of fdlibm's `s_tanhf.c` over `s_expm1f.c`: glibc's generic single
//! precision `tanhf`, scalar SSE with no fused multiply-add, which is
//! what every golden in this repository was recorded with. The body is
//! branch-free: a lane computes every path of both functions and keeps its
//! own by select, so the compiler can run [`LANES`] of them in one vector.
//! A lane's value is the scalar function's value; the vector only decides
//! where it runs.
//!
//! # Why the port is exact
//!
//! Every step is one correctly rounded `f32` add, subtract, multiply or
//! divide (Rust never contracts `a·b + c` into a fused multiply-add), or
//! an exact bit operation, in fdlibm's order. The four places a literal
//! transcription would branch or convert are rewritten, each exactly:
//!
//! * the tail divides once: `2` over `t + 2` (`|x| ≥ 1`), `−t` over
//!   `t + 2` (`|x| < 1`) or, for ±Inf and NaN, `1` over `x`, selected
//!   before the division, so each lane still gets its own quotient;
//! * `expm1f`'s reduction by `k = ±1` (`½·ln2 < |a| < 1.5·ln2`) and by
//!   `k = 0` is the general reduction with `k` forced to that value:
//!   `a − k·ln2_hi` and `k·ln2_lo` are then the same roundings;
//! * `k = (int)(a/ln2 ± ½)` is `trunc` of the same float, and its integer
//!   is read from the bits of `k + 1.5·2²³`, exact for `|k| < 2²²`;
//! * `tanhf(±0) = x` is its `x·(1 + x)` path for tiny `x`, which returns
//!   the same signed zero.
//!
//! `tanhf` calls `expm1f` only on `2|x| ∈ [2, 44)` and `−2|x| ∈ (−2, 0)`,
//! so `expm1f`'s overflow, `−1` saturation and `k = 1` paths never run and
//! are left out. `tests/act_exact.rs` holds every SIMD level to a verbatim
//! scalar transcription, and (release, ignored) to the host libm on all
//! 2³² inputs.
//!
//! # Kernels
//!
//! [`simd_level`] picks the instantiation, as it does for `gemm` and
//! `lowrank`: one portable loop, compiled under `target_feature` on
//! AVX-512 and AVX2 and plain elsewhere. The per-lane function is
//! `#[inline(always)]` inside that loop; a closure through [`super::map`]
//! is not inlined into a featured instantiation and runs slower than libm.

use super::microkernel::{simd_level, SimdLevel};
use crate::{Result, Tensor, TensorError};

/// Lanes one vector step carries: one 512-bit register, or two 256-bit
/// ones.
const LANES: usize = 16;

/// `√(2/π)`, GELU's inner scale.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;
/// GELU's cubic coefficient.
const CUBIC: f32 = 0.044_715;

/// `tanh` of every element: bitwise fdlibm's `tanhf` (glibc's generic
/// one, which the goldens were recorded with) on every host and SIMD
/// level, whatever the host libm. The tape's `tanh` node and the serving
/// engine's mapping net both run it.
pub fn tanh(t: &Tensor) -> Tensor {
    run::<Tanh>(t, t)
}

/// Tanh-approximated GELU of every element,
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`: the single definition
/// the tape's forward and tape-free inference share, so both compute
/// bit-identical activations. Its `tanh` is [`tanh`]'s lane.
pub fn gelu(t: &Tensor) -> Tensor {
    run::<Gelu>(t, t)
}

/// The GELU backward: `gy ⊙ gelu'(x)` for the upstream gradient `gy`,
/// with `gelu'` the derivative of [`gelu`]'s formula over the same `tanh`
/// lane. `x` and `gy` must have the same shape.
pub fn gelu_backward(x: &Tensor, gy: &Tensor) -> Result<Tensor> {
    if x.shape() != gy.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "gelu_backward",
            lhs: x.dims().to_vec(),
            rhs: gy.dims().to_vec(),
        });
    }
    Ok(run::<GeluSlope>(x, gy))
}

/// One elementwise function of the kernel loop.
trait Curve {
    /// The value at `x`; `gy` is the upstream gradient a backward curve
    /// scales by, and a forward curve ignores it.
    fn at(x: f32, gy: f32) -> f32;
}

/// [`tanh`].
struct Tanh;
/// [`gelu`].
struct Gelu;
/// [`gelu_backward`].
struct GeluSlope;

impl Curve for Tanh {
    #[inline(always)]
    fn at(x: f32, _: f32) -> f32 {
        tanhf(x)
    }
}

impl Curve for Gelu {
    #[inline(always)]
    fn at(x: f32, _: f32) -> f32 {
        0.5 * x * (1.0 + tanhf(SQRT_2_OVER_PI * (x + CUBIC * x * x * x)))
    }
}

impl Curve for GeluSlope {
    #[inline(always)]
    fn at(x: f32, gy: f32) -> f32 {
        let t = tanhf(SQRT_2_OVER_PI * (x + CUBIC * x * x * x));
        let du = SQRT_2_OVER_PI * (1.0 + 3.0 * CUBIC * x * x);
        gy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    }
}

/// `C` over every element of `x` (with `gy` beside it).
fn run<C: Curve>(x: &Tensor, gy: &Tensor) -> Tensor {
    let (xd, gd) = (x.data(), gy.data());
    let mut data = vec![0.0f32; xd.len()];
    match simd_level() {
        // SAFETY: `simd_level` reports a vector level only when the host
        // has it.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { lanes_avx512::<C>(xd, gd, &mut data) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { lanes_avx2::<C>(xd, gd, &mut data) },
        _ => lanes::<C>(xd, gd, &mut data),
    }
    Tensor::from_vec(data, x.dims()).expect("same shape")
}

/// [`lanes`] where one step is one 512-bit vector.
///
/// # Safety
/// The host has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lanes_avx512<C: Curve>(x: &[f32], gy: &[f32], out: &mut [f32]) {
    lanes::<C>(x, gy, out)
}

/// [`lanes`] where one step is two 256-bit vectors.
///
/// # Safety
/// The host has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2<C: Curve>(x: &[f32], gy: &[f32], out: &mut [f32]) {
    lanes::<C>(x, gy, out)
}

/// `out[i] = C::at(x[i], gy[i])`, [`LANES`] at a time; a short tail runs
/// as one zero-padded step, whose extra lanes are dropped.
#[inline(always)]
fn lanes<C: Curve>(x: &[f32], gy: &[f32], out: &mut [f32]) {
    let mut xs = x.chunks_exact(LANES);
    let mut gs = gy.chunks_exact(LANES);
    let mut os = out.chunks_exact_mut(LANES);
    for ((o, x), gy) in (&mut os).zip(&mut xs).zip(&mut gs) {
        step::<C>(
            x.try_into().expect("LANES"),
            gy.try_into().expect("LANES"),
            o,
        );
    }
    let tail = os.into_remainder();
    if !tail.is_empty() {
        let n = tail.len();
        let (mut xv, mut gv) = ([0.0; LANES], [0.0; LANES]);
        xv[..n].copy_from_slice(xs.remainder());
        gv[..n].copy_from_slice(gs.remainder());
        let mut ov = [0.0; LANES];
        step::<C>(&xv, &gv, &mut ov);
        tail.copy_from_slice(&ov[..n]);
    }
}

/// One vector step.
#[inline(always)]
fn step<C: Curve>(x: &[f32; LANES], gy: &[f32; LANES], out: &mut [f32]) {
    for ((o, &x), &gy) in out.iter_mut().zip(x).zip(gy) {
        *o = C::at(x, gy);
    }
}

/// fdlibm `tanhf`, branch-free.
#[inline(always)]
fn tanhf(x: f32) -> f32 {
    const TINY: f32 = 1.0e-30;
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2), t = expm1(−2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1f(if big { 2.0 * ax } else { -2.0 * ax });
    // ±Inf and NaN: 1/x ± 1.
    let special = ix >= 0x7f80_0000;
    let num = if special {
        1.0
    } else if big {
        2.0
    } else {
        -t
    };
    let den = if special { x } else { t + 2.0 };
    let q = num / den;
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22: ±(1 − tiny).
    let z = if ix >= 0x41b0_0000 { 1.0 - TINY } else { z };
    let z = if jx >> 31 == 0 { z } else { -z };
    if special {
        q + 1.0f32.copysign(x)
    } else if ix < 0x2400_0000 {
        // |x| < 2⁻⁵⁵, ±0 included.
        x * (1.0 + x)
    } else {
        z
    }
}

/// fdlibm `expm1f` on the arguments [`tanhf`] passes, `[2, 44)` and
/// `(−2, −2⁻⁵⁴]`, branch-free; other lanes compute a value no select
/// keeps.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);
    // `k + MAGIC` holds the integer `k` in its low mantissa bits.
    const MAGIC: f32 = 12_582_912.0; // 1.5·2²³
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;
    // Argument reduction: x = k·ln2 + r, |r| ≤ ½·ln2 (k = 0 below that).
    let kf = (INVLN2 * x + if neg { -0.5 } else { 0.5 }).trunc();
    let kf = if hx < 0x3f85_1592 {
        1.0f32.copysign(x)
    } else {
        kf
    };
    let kf = if hx <= 0x3eb1_7218 { 0.0 } else { kf };
    let k = (kf + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    // The rational approximation on the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let at_k0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let at_km1 = 0.5 * (r - e) - 0.5;
    // 2^k·(1 + r − e) − 1, with the `− 1` placed by the size of `k`.
    let outer = k <= -2 || k > 56;
    let y = if outer {
        1.0 - (e - r)
    } else if k < 23 {
        // 1 − 2⁻ᵏ
        let t = f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
        t - (e - r)
    } else {
        // 2⁻ᵏ
        let t = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
        r - (e + t) + 1.0
    };
    let y = f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let y = if outer { y - 1.0 } else { y };
    let y = match k {
        0 => at_k0,
        -1 => at_km1,
        _ => y,
    };
    // |x| < 2⁻²⁵: x itself.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}
