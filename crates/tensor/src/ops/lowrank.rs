//! The segmented low-rank pass: every factored tenant's scaled update,
//! added in place onto its rows of a stacked base product.
//!
//! A served batch multiplies all its rows by the frozen base once
//! (`x·W + b`). What is left per request is its tenant's low-rank update,
//! one "shrink, mix, expand" shape: `x·A` down to the rank, a middle, then
//! `·B` back up, scaled. The middle is what tells the adapters apart:
//!
//! * nothing — LoRA and a `peft::multi` bank slot, `(x·A)·B`;
//! * a diagonal gate by the seed — MetaLoRA-CP (Eq. 6), `((x·A) ⊙ c)·B`;
//! * a per-row `r×r` mix by the seed — MetaLoRA-TR (Eq. 7), the network
//!   `"ni,xiy,yoz,nzx->no"` over cores `A:[r,I,r]`, `B:[r,O,r]` and seed
//!   rows `[n, r·r]`.
//!
//! [`lowrank`] takes a batch's updates as one table of [`Segment`]s — a row
//! range, the two factors, the scaling and the middle — and adds each
//! onto its rows of `y` in one pass over the table: no per-request
//! product, temporary or add pass.
//!
//! # Bitwise contract
//!
//! The pass is a member of the `gemm` family: every output element gets
//! exactly the scalar sequence of the `ops` chain it replaces
//! (`matmul → mul → matmul → scale → add`, and the planner's three GEMMs
//! for Tensor-Ring), so it is bitwise that chain:
//!
//! 1. a fused multiply-add chain from `+0.0` over increasing `k` for `x·A`;
//! 2. for CP, the multiply by the seed;
//! 3. for TR, a fused multiply-add chain from `+0.0` over `x` for `C·XA`;
//! 4. a fused multiply-add chain from `+0.0` over the rank index for `·B`;
//! 5. `scaling *` the result;
//! 6. its add onto the base row.
//!
//! For TR the order is the one `contract::Plan` picks for the spec on every
//! shape with `r ≥ 2` and `I, O > r` (pinned by
//! `contract::tests::the_tr_update_plans_shrink_mix_expand`): `A` read as
//! `[I, r²]` (column `x·r + y`) through its strides, the mix batched over
//! rows, and `B` read as `[r², O]` (row `z·r + y`), transposed into the
//! pass's arena lease once per segment. Nothing is prepared ahead of the
//! call. A degenerate TR shape (`r = 1`, or `I ≤ r`, or `O ≤ r`) may plan
//! another order; such a segment runs `contract_spec` itself, so the pass
//! equals the tape's planned forward at every shape.
//!
//! # Kernels
//!
//! [`simd_level`] picks the instantiation, as it does for `gemm`: one
//! portable body, compiled under `target_feature` on AVX-512 and AVX2
//! (where `mul_add` is one instruction) and plain elsewhere. It runs a
//! segment in 8-row strips: the shrink through an `8 × 16` accumulator
//! tile per `[I, r]` block of `A`, reading `A` in place, then per row the
//! middle and an expand through 64-column accumulator tiles. The tiles
//! are fixed-size arrays, so the compiler keeps them in vector registers.
//! `tests/lowrank_equiv.rs` holds every level to the `ops` chain, under
//! both forced kernel paths: the pass has no reference twin, and the path
//! only decides which obs counter it lands in.

use super::microkernel::{simd_level, use_packed, SimdLevel};
use crate::{contract, workspace, Result, Tensor, TensorError};
use std::ops::Range;

/// A MetaLoRA seed.
#[derive(Clone, Copy, Debug)]
pub enum Seed<'a> {
    /// One seed for every row (a pinned, frozen-task seed), read in place:
    /// `r` values for CP, `r·r` for TR.
    Pinned(&'a Tensor),
    /// One seed row per row of the segment: `[n, r]` for CP, `[n, r·r]`
    /// (row `z·r + x`) for TR.
    Rows(&'a Tensor),
}

/// What sits between a segment's down and up factors.
#[derive(Clone, Copy, Debug)]
pub enum Mix<'a> {
    /// LoRA and a bank slot: `A:[I,r]`, `B:[r,O]`.
    None,
    /// MetaLoRA-CP: `x·A` gated by the seed, factors as for LoRA.
    Gate(Seed<'a>),
    /// MetaLoRA-TR: cores `A:[r,I,r]` and `B:[r,O,r]` mixed per row by the
    /// seed.
    Ring(Seed<'a>),
}

/// One tenant's update: `y[rows] += scaling · update(x[rows])`.
#[derive(Clone, Debug)]
pub struct Segment<'a> {
    /// Rows of `x` and `y` the update covers.
    pub rows: Range<usize>,
    /// The down factor `A`.
    pub down: &'a Tensor,
    /// The up factor `B`.
    pub up: &'a Tensor,
    /// The adapter scaling.
    pub scaling: f32,
    /// The middle operation.
    pub mix: Mix<'a>,
}

/// The Tensor-Ring network a TR segment computes.
const TR_SPEC: &str = "ni,xiy,yoz,nzx->no";

/// A segment whose shapes passed [`Segment::check`].
struct Checked {
    /// The adapter rank.
    r: usize,
    /// Values per row between shrink and expand: `r`, or `r·r` for TR.
    width: usize,
    /// A TR segment (its `B` is transposed before the expand).
    ring: bool,
    /// `false` for a degenerate TR shape, which runs `contract_spec`.
    fused: bool,
}

impl Seed<'_> {
    /// Whether the seed fits `n` rows of `width` values.
    fn fits(&self, n: usize, width: usize) -> bool {
        match self {
            Seed::Pinned(c) => c.len() == width,
            Seed::Rows(c) => c.dims() == [n, width],
        }
    }

    /// The seed values of segment row `row`.
    fn row(&self, row: usize, width: usize) -> &[f32] {
        match self {
            Seed::Pinned(c) => c.data(),
            Seed::Rows(c) => &c.data()[row * width..][..width],
        }
    }
}

impl Segment<'_> {
    /// Validates the segment against `x:[n, i]` and `y:[n, o]`: a rank
    /// error or a seed of the wrong shape is `InvalidArgument`, factors
    /// whose extents disagree are `ShapeMismatch` — the variants the `ops`
    /// chain returns for the same faults.
    fn check(&self, s: usize, n: usize, i: usize, o: usize) -> Result<Checked> {
        let (rows, down, up) = (&self.rows, self.down, self.up);
        if rows.start > rows.end || rows.end > n {
            return Err(TensorError::InvalidArgument(format!(
                "lowrank: segment {s} rows {rows:?} outside the {n} rows of x"
            )));
        }
        let mismatch = || TensorError::ShapeMismatch {
            op: "lowrank factors",
            lhs: down.dims().to_vec(),
            rhs: up.dims().to_vec(),
        };
        let bad_seed = |seed: &Seed, width: usize| {
            let dims = match seed {
                Seed::Pinned(c) | Seed::Rows(c) => c.dims(),
            };
            TensorError::InvalidArgument(format!(
                "lowrank: segment {s} seed shape {dims:?}, expected [{}, {width}] or {width} pinned values",
                rows.len()
            ))
        };
        match self.mix {
            Mix::None | Mix::Gate(_) => {
                let (&[di, r], &[ur, uo]) = (down.dims(), up.dims()) else {
                    return Err(TensorError::InvalidArgument(format!(
                        "lowrank: segment {s} factors A {:?} and B {:?} must be rank 2",
                        down.dims(),
                        up.dims()
                    )));
                };
                if let Mix::Gate(seed) = &self.mix {
                    if !seed.fits(rows.len(), r) {
                        return Err(bad_seed(seed, r));
                    }
                }
                if (di, ur, uo) != (i, r, o) {
                    return Err(mismatch());
                }
                Ok(Checked { r, width: r, ring: false, fused: true })
            }
            Mix::Ring(seed) => {
                let (&[r0, di, r1], &[r, uo, r3]) = (down.dims(), up.dims()) else {
                    return Err(TensorError::InvalidArgument(format!(
                        "lowrank: segment {s} cores A {:?} and B {:?} must be rank 3",
                        down.dims(),
                        up.dims()
                    )));
                };
                if !seed.fits(rows.len(), r * r) {
                    return Err(bad_seed(&seed, r * r));
                }
                if (r0, di, r1, uo, r3) != (r, i, r, o, r) {
                    return Err(mismatch());
                }
                Ok(Checked { r, width: r * r, ring: true, fused: r >= 2 && i > r && o > r })
            }
        }
    }
}

/// `y[rows] += scaling · update(x[rows])` for every segment of the table,
/// in table order, in one pass; `x` is `[n, I]` and `y` is `[n, O]`.
///
/// Every segment is validated before any row is written. The pass
/// records one `Matmul` call carrying the flops of the products it
/// replaces (`2nIr + 2nrO` for a LoRA / CP segment, `2nIr² + 2nr³ +
/// 2nr²O` for TR); a degenerate TR segment's `contract_spec` records its
/// own.
pub fn lowrank(x: &Tensor, y: &mut Tensor, segments: &[Segment]) -> Result<()> {
    let (&[n, i], &[ny, o]) = (x.dims(), y.dims()) else {
        return Err(TensorError::InvalidArgument(format!(
            "lowrank: x {:?} and y {:?} must be rank 2",
            x.dims(),
            y.dims()
        )));
    };
    if n != ny {
        return Err(TensorError::ShapeMismatch {
            op: "lowrank rows",
            lhs: x.dims().to_vec(),
            rhs: y.dims().to_vec(),
        });
    }
    let checked = segments
        .iter()
        .enumerate()
        .map(|(s, seg)| seg.check(s, n, i, o))
        .collect::<Result<Vec<_>>>()?;
    if segments.is_empty() {
        return Ok(());
    }

    // One lease for the pass, sized for its widest segment.
    let len = checked.iter().filter(|c| c.fused).map(|c| scratch_len(c.width, o, c.ring)).max();
    let mut scratch = workspace::take(len.unwrap_or(0));
    let lvl = simd_level();
    let (mut flops, mut floats) = (0u64, 0usize);
    for (seg, c) in segments.iter().zip(&checked) {
        let rows = seg.rows.clone();
        let rn = rows.len();
        if rn == 0 {
            continue;
        }
        let xs = &x.data()[rows.start * i..rows.end * i];
        let ys = &mut y.data_mut()[rows.start * o..rows.end * o];
        if !c.fused {
            ring_by_plan(seg, xs, ys, rn, i, c.r)?;
            continue;
        }
        let (r, w) = (c.r, c.width);
        let job = Job {
            x: xs,
            n: rn,
            i,
            o,
            down: seg.down.data(),
            up: seg.up.data(),
            r,
            w,
            scaling: seg.scaling,
            mix: seg.mix,
        };
        match lvl {
            // SAFETY: `simd_level` reports a vector level only when the
            // host has it, FMA included.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { segment_avx512(&job, ys, &mut scratch) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { segment_avx2(&job, ys, &mut scratch) },
            _ => segment(&job, ys, &mut scratch),
        }
        let (rn, i, o, r, w) = (rn as u64, i as u64, o as u64, r as u64, w as u64);
        flops += 2 * rn * i * w + 2 * rn * w * o;
        if c.ring {
            flops += 2 * rn * r * r * r;
        }
        floats += xs.len() + seg.down.len() + seg.up.len() + 2 * ys.len();
        if let Mix::Gate(Seed::Pinned(s) | Seed::Rows(s)) | Mix::Ring(Seed::Pinned(s) | Seed::Rows(s)) = seg.mix {
            floats += s.len();
        }
    }
    metalora_obs::counters::record_kernel(
        metalora_obs::counters::Kernel::Matmul,
        flops,
        4 * floats as u64,
    );
    metalora_obs::counters::record_matmul_path(use_packed());
    Ok(())
}

/// A degenerate TR segment (`r = 1`, `I ≤ r` or `O ≤ r`): the planned
/// network over its rows, then `ys += scaling · Δ` — the chain the tape
/// runs, whatever order the planner picks for this shape.
fn ring_by_plan(seg: &Segment, xs: &[f32], ys: &mut [f32], n: usize, i: usize, r: usize) -> Result<()> {
    let Mix::Ring(seed) = seg.mix else {
        unreachable!("only a TR segment runs by plan")
    };
    let x = Tensor::from_vec(xs.to_vec(), &[n, i])?;
    let c = match seed {
        Seed::Rows(c) => c.reshaped(&[n, r, r])?,
        Seed::Pinned(c) => Tensor::from_vec(c.data().repeat(n), &[n, r, r])?,
    };
    let delta = contract::contract_spec(TR_SPEC, &[&x, seg.down, seg.up, &c])?;
    for (yv, &d) in ys.iter_mut().zip(delta.data()) {
        *yv += seg.scaling * d;
    }
    Ok(())
}

/// Rows of `x` one shrink strip carries.
const STRIP: usize = 8;
/// Columns of one shrink group: one 512-bit register, or two 256-bit ones.
const LANES: usize = 16;
/// Output columns per expand block.
const BLOCK: usize = 64;

/// One fused segment's operands.
struct Job<'a> {
    /// The segment's rows of `x`, `[n, i]`.
    x: &'a [f32],
    n: usize,
    i: usize,
    o: usize,
    /// `A:[I, r]`, or the TR core `[r, I, r]`: `r` blocks of `[I, r]`,
    /// block `b` filling shrink columns `b·r..b·r + r`.
    down: &'a [f32],
    /// `B:[r, O]`, or the TR core `[r, O, r]`.
    up: &'a [f32],
    r: usize,
    /// Values per row between shrink and expand: `r`, or `r·r` for TR.
    w: usize,
    scaling: f32,
    mix: Mix<'a>,
}

impl Job<'_> {
    /// The `[w, O]` matrix the expand reads: `B` as stored, or the TR core
    /// transposed into `bt` (row `z·r + y` is `B[y, :, z]`).
    #[inline(always)]
    fn up_rows<'b>(&'b self, bt: &'b mut [f32]) -> &'b [f32] {
        if !matches!(self.mix, Mix::Ring(_)) {
            return self.up;
        }
        let (r, o) = (self.r, self.o);
        for (y, core) in self.up.chunks_exact(o * r).enumerate() {
            for z in 0..r {
                let dst = &mut bt[(z * r + y) * o..][..o];
                for (d, zs) in dst.iter_mut().zip(core.chunks_exact(r)) {
                    *d = zs[z];
                }
            }
        }
        bt
    }

    /// The middle for segment row `row`: `xa` itself (LoRA), `xa` gated
    /// in place by the seed (CP), or the row's TR mix written to `mixed`.
    #[inline(always)]
    fn middle<'m>(&self, row: usize, xa: &'m mut [f32], mixed: &'m mut [f32]) -> &'m [f32] {
        let (r, w) = (self.r, self.w);
        match self.mix {
            Mix::None => xa,
            Mix::Gate(seed) => {
                for (v, &c) in xa.iter_mut().zip(seed.row(row, w)) {
                    *v *= c;
                }
                xa
            }
            Mix::Ring(seed) => {
                // `mixed[z·r + y] = Σ_x c[z·r + x] · xa[x·r + y]`, one chain
                // from `+0.0` in increasing `x`: the planner's batched
                // `[r,r]·[r,r]` step for this row.
                mixed.fill(0.0);
                for (mrow, crow) in mixed.chunks_exact_mut(r).zip(seed.row(row, w).chunks_exact(r)) {
                    for (&cv, arow) in crow.iter().zip(xa.chunks_exact(r)) {
                        for (mv, &a) in mrow.iter_mut().zip(arow) {
                            *mv = cv.mul_add(a, *mv);
                        }
                    }
                }
                mixed
            }
        }
    }
}

/// [`segment`] where `f32::mul_add` is one `vfmadd` and a shrink group
/// is one 512-bit register.
///
/// # Safety
/// The host has AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn segment_avx512(job: &Job, y: &mut [f32], scratch: &mut [f32]) {
    segment(job, y, scratch)
}

/// [`segment`] where `f32::mul_add` is one `vfmadd` and a shrink group
/// is two 256-bit registers.
///
/// # Safety
/// The host has AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn segment_avx2(job: &Job, y: &mut [f32], scratch: &mut [f32]) {
    segment(job, y, scratch)
}

/// Floats of scratch [`segment`] takes for a segment of width `w` over
/// `O` outputs: a strip's shrink rows, one row's mix, and a TR segment's
/// transposed `B`.
fn scratch_len(w: usize, o: usize, ring: bool) -> usize {
    STRIP * (w + LANES) + w + if ring { w * o } else { 0 }
}

/// The body of a fused segment: [`STRIP`]-row strips, each shrunk through
/// a `STRIP × LANES` accumulator tile per `[I, r]` block of `A`, then per
/// row the middle and an expand through `BLOCK`-column accumulator tiles.
/// The tiles are fixed-size arrays the compiler keeps in vector registers;
/// each output element still gets the module contract's scalar sequence.
/// Without FMA hardware (the un-featured instantiation) `mul_add` is
/// libm's `fmaf`: the same bits, slowly.
#[inline(always)]
fn segment(job: &Job, y: &mut [f32], scratch: &mut [f32]) {
    let Job { x, n, i, o, down, r, w, scaling, .. } = *job;
    // Shrink rows carry `LANES` floats of slack for `shrink`'s last group.
    let stride = w + LANES;
    let (xa, rest) = scratch.split_at_mut(STRIP * stride);
    let (mixed, bt) = rest.split_at_mut(w);
    let up = job.up_rows(bt);
    for first in (0..n).step_by(STRIP) {
        let h = STRIP.min(n - first);
        let xs = &x[first * i..(first + h) * i];
        if i * r == 0 {
            xa.fill(0.0);
        } else {
            // `A`, or each block of the TR core, fills its `r` columns.
            for (b, block) in down.chunks_exact(i * r).enumerate() {
                shrink(xs, h, i, block, r, stride, &mut xa[b * r..]);
            }
        }
        for k in 0..h {
            let mid = job.middle(first + k, &mut xa[k * stride..][..w], mixed);
            let yrow = &mut y[(first + k) * o..][..o];
            for c0 in (0..o).step_by(BLOCK) {
                match o - c0 {
                    // A full block: the width is a constant, so the tile
                    // lives in registers.
                    rest if rest >= BLOCK => expand(mid, up, o, c0, BLOCK, scaling, yrow),
                    rest => expand(mid, up, o, c0, rest, scaling, yrow),
                }
            }
        }
    }
}

/// `xa[q, c] = Σ_k xs[q, k] · a[k, c]` for the `h ≤ STRIP` rows of a
/// strip, `a` being `[I, r]` and `xa` rows `stride` apart, [`LANES`]
/// columns at a time. The tile runs all `STRIP` rows (a short strip
/// repeats its last row, whose results are dropped) and reads `LANES`
/// consecutive floats of `a` per `k` step; the lanes past column `r` hold
/// junk, which lands in columns a later block overwrites or the middle
/// never reads.
#[inline(always)]
fn shrink(xs: &[f32], h: usize, i: usize, a: &[f32], r: usize, stride: usize, xa: &mut [f32]) {
    let row = |q: usize| &xs[q.min(h - 1) * i..][..i];
    let rows: [&[f32]; STRIP] = [row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)];
    for g in (0..r).step_by(LANES) {
        let mut acc = [[0.0f32; LANES]; STRIP];
        // The `k` steps whose `LANES` floats lie inside `a` read them in
        // place; the last few read a zero-padded copy.
        let inside = (a.len() + 1).saturating_sub(g + LANES).div_ceil(r).min(i);
        for k in 0..inside {
            let av = a[k * r + g..][..LANES].try_into().expect("LANES floats");
            step(&mut acc, &rows, k, av);
        }
        for k in inside..i {
            let (mut av, s) = ([0.0; LANES], &a[k * r + g..]);
            let n = s.len().min(LANES);
            av[..n].copy_from_slice(&s[..n]);
            step(&mut acc, &rows, k, &av);
        }
        for (q, tile) in acc.iter().take(h).enumerate() {
            xa[q * stride + g..][..LANES].copy_from_slice(tile);
        }
    }
}

/// One `k` step of the shrink tile.
#[inline(always)]
fn step(acc: &mut [[f32; LANES]; STRIP], rows: &[&[f32]; STRIP], k: usize, av: &[f32; LANES]) {
    for (tile, row) in acc.iter_mut().zip(rows) {
        let xv = row[k];
        for (t, &v) in tile.iter_mut().zip(av) {
            *t = xv.mul_add(v, *t);
        }
    }
}

/// `y[c0 + j] += scaling · Σ_t mid[t] · up[t, c0 + j]` for `j < width ≤
/// BLOCK`.
#[inline(always)]
fn expand(mid: &[f32], up: &[f32], o: usize, c0: usize, width: usize, scaling: f32, y: &mut [f32]) {
    let mut acc = [0.0f32; BLOCK];
    let acc = &mut acc[..width];
    for (t, &m) in mid.iter().enumerate() {
        for (a, &u) in acc.iter_mut().zip(&up[t * o + c0..][..width]) {
            *a = m.mul_add(u, *a);
        }
    }
    for (yv, &a) in y[c0..][..width].iter_mut().zip(&*acc) {
        *yv += scaling * a;
    }
}
