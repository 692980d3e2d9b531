//! The vector GELU and tanh against fdlibm, bit for bit.
//!
//! `ops::tanh`, `ops::gelu` and `ops::gelu_backward` run a branch-free
//! port of fdlibm's `tanhf` (`s_tanhf.c` over `s_expm1f.c`). The oracle
//! here is a verbatim scalar transcription of those two C functions, every
//! branch kept, with the GELU and GELU-derivative formulas built on it.
//! Each kernel output must equal the oracle's bits at every SIMD level the
//! host has (a NaN matches any NaN), forced through `with_kernel_path`.
//!
//! The debug suite sweeps every 1009th bit pattern, ±2048-ulp windows
//! around each threshold and `k` step of the two functions, the special
//! values, and every vector tail length. The ignored test runs all 2³²
//! inputs (release only) and also compares with the host libm, which this
//! port assumes is glibc's generic fdlibm `tanhf` (x86-64 glibc 2.36
//! ships it).

use metalora_tensor::ops::{self, simd_level, with_kernel_path, SimdLevel};
use metalora_tensor::Tensor;

// ---------------------------------------------------------------------------
// The oracle: fdlibm `s_expm1f.c` and `s_tanhf.c`, transcribed verbatim
// ---------------------------------------------------------------------------

const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Adds `k` to the exponent field of `y` (`SET_FLOAT_WORD(y, i + (k<<23))`).
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

fn expm1f(mut x: f32) -> f32 {
    let mut hx = x.to_bits();
    let xsb = hx & 0x8000_0000;
    hx &= 0x7fff_ffff;

    // Filter out huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if xsb != 0 {
            return TINY - ONE;
        }
    }

    // Argument reduction.
    let k: i32;
    let mut c = 0.0f32;
    if hx > 0x3eb1_7218 {
        let (hi, lo);
        if hx < 0x3f85_1592 {
            if xsb == 0 {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            } else {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            ONE + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        let mut y = ONE - (e - x);
        if k == 128 {
            y = y * 2.0 * f32::from_bits(0x7f00_0000);
        } else {
            y = add_exponent(y, k);
        }
        return y - ONE;
    }
    if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        let mut y = x - (e + t);
        y += ONE;
        add_exponent(y, k)
    }
}

fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    // x is Inf or NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 {
            ONE / x + ONE
        } else {
            ONE / x - ONE
        };
    }

    let z;
    if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2**-55
            return x * (ONE + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(TWO * x.abs());
            z = ONE - TWO / (t + TWO);
        } else {
            let t = expm1f(-TWO * x.abs());
            z = -t / (t + TWO);
        }
    } else {
        // |x| >= 22, return +-1
        z = ONE - TINY;
    }
    if jx >= 0 {
        z
    } else {
        -z
    }
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanhf(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

fn gelu_slope(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    let t = tanhf(u);
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Every level the host has, lowest first.
fn levels() -> Vec<SimdLevel> {
    let host = simd_level();
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= host)
        .collect()
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The first element where `got` differs from `want(x)`.
fn first_mismatch(xs: &[f32], got: &Tensor, want: impl Fn(usize, f32) -> f32) -> Option<String> {
    xs.iter()
        .zip(got.data())
        .enumerate()
        .find_map(|(i, (&x, &g))| {
            let w = want(i, x);
            (!same(g, w)).then(|| {
                format!(
                    "x = {x:e} (0x{:08x}): got 0x{:08x}, want 0x{:08x}",
                    x.to_bits(),
                    g.to_bits(),
                    w.to_bits()
                )
            })
        })
}

/// The upstream gradient the backward check scales by: varied, finite,
/// and 1 for the first element.
fn upstream(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 1.0 + (i % 13) as f32 * 0.375 - 2.0 * (i % 3) as f32)
        .collect()
}

/// Asserts all three kernels equal the oracle on `xs`, at every level.
fn check(xs: &[f32]) {
    let x = Tensor::from_vec(xs.to_vec(), &[xs.len()]).unwrap();
    let gy_data = upstream(xs.len());
    let gy = Tensor::from_vec(gy_data.clone(), &[xs.len()]).unwrap();
    for level in levels() {
        let (t, g, d) = with_kernel_path(level, || {
            (
                ops::tanh(&x),
                ops::gelu(&x),
                ops::gelu_backward(&x, &gy).unwrap(),
            )
        });
        let name = level.name();
        if let Some(m) = first_mismatch(xs, &t, |_, x| tanhf(x)) {
            panic!("tanh at {name}: {m}");
        }
        if let Some(m) = first_mismatch(xs, &g, |_, x| gelu(x)) {
            panic!("gelu at {name}: {m}");
        }
        if let Some(m) = first_mismatch(xs, &d, |i, x| gy_data[i] * gelu_slope(x)) {
            panic!("gelu_backward at {name}: {m}");
        }
    }
}

/// `x` and the `radius` patterns on each side of it, both signs.
fn window(x: f32, radius: u32) -> Vec<f32> {
    let b = x.abs().to_bits();
    let lo = b.saturating_sub(radius);
    (lo..=b + radius)
        .flat_map(|u| [f32::from_bits(u), -f32::from_bits(u)])
        .collect()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn a_strided_sweep_of_all_bit_patterns_matches() {
    let xs: Vec<f32> = (0..=u32::MAX).step_by(1009).map(f32::from_bits).collect();
    for chunk in xs.chunks(1 << 16) {
        check(chunk);
    }
}

#[test]
fn every_threshold_and_k_step_matches_within_2048_ulps() {
    let ln2 = std::f32::consts::LN_2;
    let mut points = vec![
        0.0,
        f32::from_bits(0x2400_0000), // 2⁻⁵⁵: below it, x·(1 + x)
        f32::from_bits(0x3280_0000), // 2⁻²⁶: below it, expm1(−2|x|) = −2|x|
        0.25 * ln2,                  // expm1's k = 0 / k = −1 edge
        0.75 * ln2,                  // expm1's k = −1 / general edge
        1.25 * ln2,                  // −2|x| crosses −2.5·ln2: k = −2 / −3
        1.0,                         // the two tails
        22.0,                        // ±1 from here on
    ];
    points.extend((2..=63).map(|j| (j as f32 + 0.5) * ln2 / 2.0));
    for p in points {
        check(&window(p, 2048));
    }
}

#[test]
fn zeros_infinities_nans_and_subnormals_match() {
    let mut xs = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];
    // Quiet and signalling NaNs with payloads, both signs.
    for bits in [0x7fc0_0001, 0x7fa0_0000, 0x7f80_0001, 0x7fff_ffff] {
        xs.push(f32::from_bits(bits));
        xs.push(f32::from_bits(bits | 0x8000_0000));
    }
    // Subnormals: the smallest, the largest and a spread between.
    for bits in (1..0x0080_0000u32)
        .step_by(4099)
        .chain([1, 2, 3, 0x007f_ffff])
    {
        xs.push(f32::from_bits(bits));
        xs.push(-f32::from_bits(bits));
    }
    xs.extend([
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        9.0,
        -9.0,
        1e-20,
        -1e-20,
    ]);
    check(&xs);
}

#[test]
fn every_vector_tail_length_matches() {
    let pool: Vec<f32> = (0..40).map(|i| (i as f32 - 19.5) * 0.37).collect();
    for len in 0..=40 {
        check(&pool[..len]);
    }
}

#[test]
fn gelu_backward_rejects_a_gradient_of_another_shape() {
    let x = Tensor::zeros(&[2, 3]);
    assert!(ops::gelu_backward(&x, &Tensor::zeros(&[3, 2])).is_err());
    assert!(ops::gelu_backward(&x, &Tensor::zeros(&[3])).is_err());
}

/// All 2³² inputs, against the oracle and the host libm. Release only:
/// a debug build would take hours.
#[test]
#[ignore = "exhaustive: all 2^32 inputs; run with --release --include-ignored"]
fn tanh_matches_fdlibm_and_the_host_libm_on_every_input() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the exhaustive sweep needs a release build");
        return;
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let per = (1u64 << 32).div_ceil(workers as u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|w| {
                s.spawn(move || {
                    let end = ((w + 1) * per).min(1 << 32);
                    let mut start = w * per;
                    let mut xs = Vec::with_capacity(1 << 16);
                    while start < end {
                        let stop = (start + (1 << 16)).min(end);
                        xs.clear();
                        xs.extend((start..stop).map(|b| f32::from_bits(b as u32)));
                        let x = Tensor::from_vec(xs.clone(), &[xs.len()]).unwrap();
                        for level in levels() {
                            let got = with_kernel_path(level, || ops::tanh(&x));
                            if let Some(m) = first_mismatch(&xs, &got, |_, x| tanhf(x)) {
                                panic!("tanh at {} against fdlibm: {m}", level.name());
                            }
                        }
                        for &x in &xs {
                            assert!(
                                same(tanhf(x), x.tanh()),
                                "the host libm's tanhf is not glibc's fdlibm port at x = {x:e} \
                                 (0x{:08x}): libm 0x{:08x}, fdlibm 0x{:08x}",
                                x.to_bits(),
                                x.tanh().to_bits(),
                                tanhf(x).to_bits()
                            );
                        }
                        start = stop;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a sweep worker panicked");
        }
    });
}
