//! Packed, register-tiled GEMM microkernel with a parallel tile-grid
//! scheduler.
//!
//! Every layout / batching combination [`super::gemm`] accepts
//! reduces to the same computation — `C[i,j] += Σ_k A[i,k]·B[k,j]` over
//! strided operands (`StridedGemm`) — so they all funnel into one driver
//! here, `gemm_packed`:
//!
//! 1. **Pack `B` only where a strip re-reads it.** When every batch is
//!    one strip (`m ≤ MR`) and `B` has unit column stride — every forward
//!    `x·W` of a few rows, the tape's `dB = hᵀ·dY` at `m = r` — each
//!    element of `B` is read exactly once, so the register tiles read it
//!    where it lies, at its row stride: no pack, no lease. Any other
//!    product packs `B` once per call into KC-tall panels of [`NR`]-wide
//!    column tiles (`[kc×NR]`, k-major) — shared, read-only, visible to
//!    every worker. Packing linearises the strided loads of the transposed
//!    variants, so the inner kernel streams two contiguous panels that
//!    every strip re-reads.
//! 2. **Claim C-tile blocks from a shared atomic queue**
//!    ([`crate::par::par_task_queue`]): the output is a grid of
//!    `MR`-row strips × `NC`-column groups, and each team worker claims
//!    grid cells until the queue is dry. On first touch of a strip the
//!    worker packs that strip's `A` rows into its **private arena lease**
//!    (`[kc×MR]` row tiles, k-major; the team's leases are taken by the
//!    caller before the team starts) and keeps it for subsequent claims
//!    of the same strip — `A` is packed at most once per (strip, worker)
//!    and `B` at most once per call, which is what lets the packed path
//!    scale instead of fighting the thread team (the old design split
//!    rows *above* the packing).
//! 3. Per claimed cell, run the **register tile** of the strip's height
//!    (`1..=MR` rows) over its columns: two adjacent `NR`-wide panels at
//!    once while at least `2·NR` columns remain, one panel otherwise, and
//!    the ragged `n % NR` columns through masked lanes. The accumulator
//!    block (`8 × 32` at full height: sixteen `zmm`) lives in SIMD
//!    registers, `C` is loaded into it at the start of each KC tile and
//!    stored back after, and `k` advances one fused multiply-add at a time.
//!
//! # Bitwise equivalence to the reference kernel
//!
//! Every output element receives exactly one fused multiply-add per `k`
//! step — `acc ← fma(a, b, acc)`, one rounding — in strictly increasing
//! `k` order, starting from the zero-initialised output: the same abstract
//! sequence the strided reference kernel in [`super::gemm`]'s module
//! performs with `f32::mul_add`. Spilling the accumulator to `C` between
//! KC tiles is exact (an `f32` store/load round-trip loses nothing), and
//! the tile shape, the row pass, the lane, the SIMD level and whether `B`
//! was packed or is read in place only decide *where* an element's
//! sequence runs and where its operands are loaded from, never what it
//! is. Hence packed results are **bitwise identical** to the reference
//! path at every SIMD level, which is what lets the reference kernel
//! serve as the oracle this one is tested against: every production
//! product runs here, and the reference kernel runs only where
//! [`with_kernel_path`] forces it.
//!
//! Work *stealing* cannot move a bit either: each grid cell is a
//! self-contained block of output elements, computed by exactly one
//! worker from shared immutable operands over the full `k` range.
//! Which worker computes which cell — and in which order — changes
//! nothing about any element's operation sequence, so the scheduler is
//! free to interleave claims arbitrarily (tallied by the obs
//! `tile_steals` counter) while staying bitwise equal to the serial
//! claim order.
//!
//! # SIMD dispatch
//!
//! One kernel per level, detected once at runtime ([`simd_level`]).
//! AVX-512F + FMA and AVX2 + FMA run explicit `core::arch` tiles,
//! monomorphised for every strip height `1..=MR`; AVX2 has sixteen vector
//! registers, so it runs a strip as passes of at most four rows over one
//! panel at a time. A host without FMA runs the portable tile, whose
//! `f32::mul_add` lowers to libm's `fmaf` — bit-equal to the hardware
//! instruction, and slow. [`with_kernel_path`] can cap the level on the
//! calling thread, which is how the equivalence suite runs every level
//! the host has.
//!
//! # Fused bias
//!
//! A GEMM call may carry a per-output-column bias, which each worker adds
//! to a column tile immediately after that tile's final KC tile stores,
//! i.e. once the full `k` accumulation of those elements is complete. The
//! per-element value is `acc + bias[j]`, exactly what the separate
//! broadcast `ops::add` pass computes; the sequence is pure per element,
//! so store time vs. a second full output pass cannot change a bit (see
//! DESIGN.md "Bias epilogue").

use crate::conv::ConvSpec;
use crate::par::{par_task_queue, TaskQueue};
use crate::workspace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Rows of the register tile: the height of a tile-grid strip and of a
/// packed `A` tile.
pub const MR: usize = 8;
/// Width of a packed `B` panel (one `zmm`, two `ymm`); the register tile
/// streams two adjacent panels where the columns allow.
pub const NR: usize = 16;
/// k-dimension tile, shared with the reference kernel: the packed `KC×NR`
/// panel of `B` stays cache-resident while a row block streams past it.
pub const KC: usize = 128;
/// Columns per tile-grid cell (a multiple of [`NR`]): one claimed cell is
/// an `MR`-row strip crossed with up to `NC` columns. Wide outputs split
/// into several cells per strip so short-and-wide products still expose
/// enough parallelism; `NC·KC` floats of `B` per cell stay cache-resident
/// while the strip streams past.
pub const NC: usize = 256;

// ---------------------------------------------------------------------------
// Kernel path: packed, or the reference oracle when forced
// ---------------------------------------------------------------------------

/// The two kernels a GEMM can run on (bitwise identical by construction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelPath {
    /// The strided scalar reference kernel: the test oracle, run only
    /// where [`with_kernel_path`] forces it.
    Reference,
    /// The packed register-tiled kernel in this module: every production
    /// product.
    Packed,
}

/// What [`with_kernel_path`] forces on the calling thread; `None` leaves
/// the default (the packed kernel, the host's SIMD level). A
/// [`KernelPath`] or a [`SimdLevel`] converts into one that forces only
/// itself.
#[derive(Clone, Copy, Debug)]
pub struct Forced {
    /// The kernel every product on this thread takes.
    path: Option<KernelPath>,
    /// A ceiling on [`simd_level`] (the host's own level still bounds it).
    simd: Option<SimdLevel>,
}

impl From<KernelPath> for Forced {
    fn from(path: KernelPath) -> Forced {
        Forced { path: Some(path), simd: None }
    }
}

impl From<SimdLevel> for Forced {
    fn from(simd: SimdLevel) -> Forced {
        Forced { path: None, simd: Some(simd) }
    }
}

thread_local! {
    static FORCED: Cell<Forced> = const { Cell::new(Forced { path: None, simd: None }) };
}

/// Test seam: runs `f` with the kernel path and/or the SIMD ceiling
/// **on this thread** forced as `force` says, and restores the previous
/// state afterwards — also when `f` panics. What `force` leaves `None`
/// keeps the enclosing scope's value, so a path and a level nest. The
/// equivalence suites and the K1 sweep use it to compare kernels and
/// levels on the same shape; production code never forces either.
#[doc(hidden)]
pub fn with_kernel_path<R>(force: impl Into<Forced>, f: impl FnOnce() -> R) -> R {
    struct Restore(Forced);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|p| p.set(self.0));
        }
    }
    let force = force.into();
    let outer = FORCED.with(Cell::get);
    let _restore = Restore(outer);
    FORCED.with(|p| {
        p.set(Forced { path: force.path.or(outer.path), simd: force.simd.or(outer.simd) })
    });
    f()
}

/// `true` unless the calling thread is inside
/// `with_kernel_path(KernelPath::Reference, …)`.
pub(crate) fn use_packed() -> bool {
    FORCED.with(Cell::get).path != Some(KernelPath::Reference)
}

// ---------------------------------------------------------------------------
// Fused bias
// ---------------------------------------------------------------------------

/// `row[j] += bias[j]`: the bias half of an output element's sequence,
/// applied once its full `k` accumulation is complete. The separate
/// broadcast `ops::add` pass computes the same single f32 add per element,
/// so when it runs cannot change a bit. Both kernels call this.
#[inline]
pub(crate) fn add_bias(row: &mut [f32], bias: &[f32]) {
    for (v, &b) in row.iter_mut().zip(bias) {
        *v += b;
    }
}

// ---------------------------------------------------------------------------
// SIMD level detection
// ---------------------------------------------------------------------------

/// Instruction-set level the kernels are dispatched to, in increasing
/// order. Both vector levels include FMA.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdLevel {
    /// No FMA: the portable tile (SSE2 on x86_64).
    Scalar = 0,
    /// 256-bit vectors and FMA.
    Avx2 = 1,
    /// 512-bit vectors and FMA.
    Avx512 = 2,
}

impl SimdLevel {
    /// Stable lowercase name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

static SIMD_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Best SIMD level the host supports (detected once, then cached),
/// capped by [`with_kernel_path`] on the calling thread.
pub fn simd_level() -> SimdLevel {
    let host = match SIMD_LEVEL.load(Relaxed) {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Avx2,
        2 => SimdLevel::Avx512,
        _ => {
            let l = detect();
            SIMD_LEVEL.store(l as u8, Relaxed);
            l
        }
    };
    FORCED.with(Cell::get).simd.map_or(host, |cap| cap.min(host))
}

/// A vector level needs FMA beside its vector width: its kernels issue
/// one `vfmadd` per k step.
#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    use std::arch::is_x86_feature_detected as has;
    if !has!("fma") {
        SimdLevel::Scalar
    } else if has!("avx512f") {
        SimdLevel::Avx512
    } else if has!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Copies one contiguous run of stored elements into a panel row. With
/// both lengths fixed at the call site (`NR`, `MR`) this is a handful of
/// vector moves.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s;
    }
}

/// One `[kc×w]` column tile of [`pack_b`]: columns `j0..j0+w` of the k
/// rows `kb..kb+kc`. With `cs == 1` (`B` as stored — every forward `x·W`)
/// each k step's `w` columns are one contiguous run, copied as a slice;
/// any other stride (`B` transposed: backward, `data::knn`) walks
/// elements — a transposing copy measured no faster there. Both write
/// the same panel.
#[inline(always)]
fn pack_b_tile(
    bd: &[f32],
    base: usize,
    (kb, kc): (usize, usize),
    (j0, w): (usize, usize),
    ks: usize,
    cs: usize,
    dst: &mut [f32],
) {
    if cs == 1 {
        for (dk, row) in dst.chunks_exact_mut(w).enumerate() {
            let src = base + (kb + dk) * ks + j0;
            copy_run(row, &bd[src..src + w]);
        }
    } else {
        for dk in 0..kc {
            let src = base + (kb + dk) * ks + j0 * cs;
            for jj in 0..w {
                dst[dk * w + jj] = bd[src + jj * cs];
            }
        }
    }
}

/// Packs all `k×n` of `B` (element `(kk, j)` at `bd[base + kk*ks + j*cs]`)
/// into KC-tile-major panels: the tile for `kk ∈ [kb, kb+kc)` starts at
/// `kb*n` and holds the full-width column tiles `[kc×NR]` (element
/// `(kk-kb, jj)` at `jt*NR*kc + (kk-kb)*NR + jj`) followed by one ragged
/// tile `[kc×ne]`, `ne = n % NR`.
pub fn pack_b(bd: &[f32], base: usize, k: usize, n: usize, ks: usize, cs: usize, packed: &mut [f32]) {
    debug_assert!(packed.len() >= k * n);
    let n_full = n - n % NR;
    for kb in (0..k).step_by(KC) {
        let kc = (kb + KC).min(k) - kb;
        let tile = &mut packed[kb * n..kb * n + kc * n];
        for j0 in (0..n_full).step_by(NR) {
            let dst = &mut tile[j0 * kc..j0 * kc + kc * NR];
            pack_b_tile(bd, base, (kb, kc), (j0, NR), ks, cs, dst);
        }
        let ne = n - n_full;
        if ne > 0 {
            pack_b_tile(bd, base, (kb, kc), (n_full, ne), ks, cs, &mut tile[n_full * kc..]);
        }
    }
}

/// One `[kc×h]` row tile of [`pack_a`]: rows `i0..i0+h` (absolute) of the
/// k columns `kb..kb+kc`. `ks == 1` (`A` as stored) interleaves the `h`
/// rows' `kc`-long runs; `rs == 1` (`A` transposed) copies one `h`-long
/// run per k step; any other stride walks elements. All three write the
/// same panel.
#[inline(always)]
fn pack_a_tile(
    ad: &[f32],
    base: usize,
    (kb, kc): (usize, usize),
    (i0, h): (usize, usize),
    rs: usize,
    ks: usize,
    dst: &mut [f32],
) {
    if ks == 1 {
        // Slots past a ragged tile's `h` repeat its last row, unread.
        let rows: [&[f32]; MR] = std::array::from_fn(|r| {
            let src = base + (i0 + r.min(h - 1)) * rs + kb;
            &ad[src..src + kc]
        });
        for (dk, q) in dst.chunks_exact_mut(h).enumerate() {
            for r in 0..h {
                q[r] = rows[r][dk];
            }
        }
    } else if rs == 1 {
        for (dk, col) in dst.chunks_exact_mut(h).enumerate() {
            let src = base + i0 + (kb + dk) * ks;
            copy_run(col, &ad[src..src + h]);
        }
    } else {
        for dk in 0..kc {
            let src = base + i0 * rs + (kb + dk) * ks;
            for r in 0..h {
                dst[dk * h + r] = ad[src + r * rs];
            }
        }
    }
}

/// Packs `rows` rows of `A` starting at row `first` (element `(i, kk)` at
/// `ad[base + i*rs + kk*ks]`) into KC-tile-major panels: the tile for
/// `kk ∈ [kb, kb+kc)` starts at `kb*rows` and holds MR-tall row tiles
/// `[kc×MR]` (element `(kk-kb, r)` at `it*MR*kc + (kk-kb)*MR + r`) followed
/// by one ragged tile `[kc×me]`, `me = rows % MR`.
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    ad: &[f32],
    base: usize,
    first: usize,
    rows: usize,
    k: usize,
    rs: usize,
    ks: usize,
    packed: &mut [f32],
) {
    debug_assert!(packed.len() >= rows * k);
    let rows_full = rows - rows % MR;
    for kb in (0..k).step_by(KC) {
        let kc = (kb + KC).min(k) - kb;
        let tile = &mut packed[kb * rows..kb * rows + kc * rows];
        for i0 in (0..rows_full).step_by(MR) {
            let dst = &mut tile[i0 * kc..i0 * kc + kc * MR];
            pack_a_tile(ad, base, (kb, kc), (first + i0, MR), rs, ks, dst);
        }
        let me = rows - rows_full;
        if me > 0 {
            let dst = &mut tile[rows_full * kc..];
            pack_a_tile(ad, base, (kb, kc), (first + rows_full, me), rs, ks, dst);
        }
    }
}

/// The patch matrix `[N·OH·OW, C·KH·KW]` of a convolution over the
/// unpadded image `x:[N, C, H, W]`, never built: row `(n, oh, ow)`, column
/// `(c, kh, kw)` holds `x[n, c, oh·sh + kh − ph, ow·sw + kw − pw]`, and
/// `+0.0` where that position falls in the padding — element for element
/// what `conv::im2col` writes.
#[derive(Clone, Copy)]
pub(crate) struct Patches<'a> {
    pub x: &'a [f32],
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub oh: usize,
    pub ow: usize,
    pub h_spec: ConvSpec,
    pub w_spec: ConvSpec,
}

impl Patches<'_> {
    /// Packs patch rows `i0..i0 + me` (`me ≤ MR`), every column, in
    /// [`pack_a`]'s layout — for one strip that is element `(i0 + r, kk)`
    /// at `kk·me + r`. The strip splits into runs of rows that share an
    /// image and an output row; along such a run a column reads the input
    /// row at stride `sw`, so at stride 1 the part of a run inside the
    /// image is one contiguous copy. Positions are `usize`: one left of
    /// the image wraps to a huge value and fails the `< h` / `< w` bound
    /// like any other position outside it.
    fn pack_strip(&self, i0: usize, me: usize, dst: &mut [f32]) {
        let Patches { x, c, h, w, oh, ow, h_spec: hs, w_spec: ws } = *self;
        let (kh, kw, sw) = (hs.kernel, ws.kernel, ws.stride);
        debug_assert!(me <= MR && dst.len() == me * c * kh * kw);
        let mut r0 = 0;
        while r0 < me {
            let (ni, pix) = ((i0 + r0) / (oh * ow), (i0 + r0) % (oh * ow));
            let (ohi, owi) = (pix / ow, pix % ow);
            let len = (ow - owi).min(me - r0);
            let image = &x[ni * c * h * w..][..c * h * w];
            for ci in 0..c {
                for khi in 0..kh {
                    let ih = (ohi * hs.stride + khi).wrapping_sub(hs.pad);
                    for kwi in 0..kw {
                        let q = &mut dst[((ci * kh + khi) * kw + kwi) * me + r0..][..len];
                        if ih >= h {
                            q.fill(0.0);
                            continue;
                        }
                        let row = &image[(ci * h + ih) * w..][..w];
                        let iw = |r: usize| ((owi + r) * sw + kwi).wrapping_sub(ws.pad);
                        if sw == 1 && len == MR && iw(0) < w && iw(MR - 1) < w {
                            // A whole strip clear of the padding: one
                            // fixed-size move.
                            let run: &[f32; MR] = row[iw(0)..][..MR].try_into().unwrap();
                            <&mut [f32; MR]>::try_from(q).unwrap().copy_from_slice(run);
                        } else if sw == 1 {
                            // The run's pixels inside the image, `lo..hi`,
                            // read one contiguous input run.
                            let lo = ws.pad.saturating_sub(owi + kwi).min(len);
                            let hi = (w + ws.pad).saturating_sub(owi + kwi).clamp(lo, len);
                            q[..lo].fill(0.0);
                            copy_run(&mut q[lo..hi], &row[iw(lo).min(w)..]);
                            q[hi..].fill(0.0);
                        } else {
                            for (r, v) in q.iter_mut().enumerate() {
                                *v = if iw(r) < w { row[iw(r)] } else { 0.0 };
                            }
                        }
                    }
                }
            }
            r0 += len;
        }
    }
}

/// The left operand of a [`StridedGemm`].
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// Element `(bi, i, kk)` at `a[bi·batch + i·rs + kk·ks]`; `batch = 0`
    /// shares one matrix across the batch.
    Strided { a: &'a [f32], batch: usize, rs: usize, ks: usize },
    /// A convolution's patch matrix, read from the image (unbatched).
    Patches(Patches<'a>),
}

impl Lhs<'_> {
    /// Packs rows `i0..i0 + me` (`me ≤ MR`) of batch `bi` into `dst`, in
    /// [`pack_a`]'s layout.
    fn pack_strip(&self, bi: usize, i0: usize, me: usize, k: usize, dst: &mut [f32]) {
        match *self {
            Lhs::Strided { a, batch, rs, ks } => pack_a(a, bi * batch, i0, me, k, rs, ks, dst),
            Lhs::Patches(p) => p.pack_strip(i0, me, dst),
        }
    }
}

// ---------------------------------------------------------------------------
// Register tiles
// ---------------------------------------------------------------------------

/// Where a register tile loads and stores `C`: the top-left element of a
/// block at row stride `ldc`, and how many floats of the output buffer lie
/// from there to its end — the bound each tile's debug assertion checks
/// its last store against.
#[derive(Clone, Copy)]
struct CTile {
    ptr: *mut f32,
    ldc: usize,
    avail: usize,
}

impl CTile {
    /// `true` when a `rows × cols` block at this corner lies inside the
    /// output buffer.
    fn fits(self, rows: usize, cols: usize) -> bool {
        rows == 0 || cols == 0 || (rows - 1) * self.ldc + cols <= self.avail
    }

    /// The corner `rows` down and `cols` right of this one.
    ///
    /// # Safety
    /// The new corner must lie inside the output buffer.
    unsafe fn offset(self, rows: usize, cols: usize) -> CTile {
        let off = rows * self.ldc + cols;
        debug_assert!(off <= self.avail, "C corner {off} past the {} floats left", self.avail);
        CTile { ptr: self.ptr.add(off), ldc: self.ldc, avail: self.avail - off }
    }
}

/// One register tile of an `R`-row strip (`R` fixed by the instantiation):
/// loads the `R × w` block of `C` at `c`, adds `Σ_k a·b` into it one fused
/// multiply-add per `k` in increasing order, and stores it back. `a` is
/// the strip's `[kc×R]` packed A tile; `b` holds `w` columns of one KC
/// tile of `B` — two adjacent `NR`-wide panels (`w = 2·NR`), one
/// (`w = NR`), or the ragged columns (`w < NR`) — with k step `kk`'s
/// columns of a panel at `kk·ldb` and a pair's second panel `next` floats
/// after its first. Packed panels are `[kc×NR]` (`ldb = NR`,
/// `next = kc·NR`) or the ragged `[kc×w]` tile (`ldb = w`); `B` read in
/// place has its row stride as `ldb` and `next = NR`.
///
/// # Safety
/// `a.len() == kc·R`; `b` is cut to exactly what the tile reads,
/// `(kc−1)·ldb + w` floats (a pair: `(kc−1)·ldb + NR + next`); `kc > 0`,
/// `w` is what the instantiation serves, `c.fits(R, w)` and nothing else
/// accesses that block meanwhile; the host has the instantiation's SIMD
/// level.
type TileFn =
    unsafe fn(a: &[f32], b: &[f32], ldb: usize, next: usize, w: usize, kc: usize, c: CTile);

/// The register tiles one strip height runs at one SIMD level.
struct Tiles {
    /// Two adjacent `NR`-wide panels at once, where the level has the
    /// registers for it (AVX-512); elsewhere the walk takes them one by
    /// one.
    pair: Option<TileFn>,
    /// One `NR`-wide panel.
    full: TileFn,
    /// The ragged `n % NR` columns.
    ragged: TileFn,
}

// `Tiles::new` instantiates every strip height by hand.
const _: () = assert!(MR == 8);

impl Tiles {
    /// The tiles of an `me`-row strip at `lvl`.
    fn new(lvl: SimdLevel, me: usize) -> Tiles {
        match me {
            1 => Tiles::at::<1>(lvl),
            2 => Tiles::at::<2>(lvl),
            3 => Tiles::at::<3>(lvl),
            4 => Tiles::at::<4>(lvl),
            5 => Tiles::at::<5>(lvl),
            6 => Tiles::at::<6>(lvl),
            7 => Tiles::at::<7>(lvl),
            8 => Tiles::at::<8>(lvl),
            _ => unreachable!("strip height {me} outside 1..={MR}"),
        }
    }

    fn at<const R: usize>(lvl: SimdLevel) -> Tiles {
        match lvl {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Tiles {
                pair: Some(x86::panels512::<R, 2>),
                full: x86::panels512::<R, 1>,
                ragged: x86::ragged512::<R>,
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Tiles {
                pair: None,
                full: x86::strip256::<R, false>,
                ragged: x86::strip256::<R, true>,
            },
            _ => Tiles { pair: None, full: portable::<R>, ragged: portable::<R> },
        }
    }
}

/// The portable tile, the only one on a host without FMA: `w ≤ NR`
/// columns, one `f32::mul_add` per `k` step. There `mul_add` lowers to
/// libm's `fmaf` — bit-equal to the hardware instruction, and slow.
///
/// # Safety
/// As [`TileFn`] with `w ≤ NR`.
unsafe fn portable<const R: usize>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    _next: usize,
    w: usize,
    kc: usize,
    c: CTile,
) {
    debug_assert!(kc > 0 && 0 < w && w <= NR);
    debug_assert!(a.len() == kc * R && b.len() == (kc - 1) * ldb + w && c.fits(R, w));
    let mut acc = [[0.0f32; NR]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (j, v) in row[..w].iter_mut().enumerate() {
            *v = *c.ptr.add(r * c.ldc + j);
        }
    }
    for (kk, ak) in a.chunks_exact(R).enumerate() {
        let bk = &b[kk * ldb..][..w];
        for (row, &av) in acc.iter_mut().zip(ak) {
            for (v, &bv) in row.iter_mut().zip(bk) {
                *v = av.mul_add(bv, *v);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (j, v) in row[..w].iter().enumerate() {
            *c.ptr.add(r * c.ldc + j) = *v;
        }
    }
}

/// The FMA tiles. Accumulators are arrays of vectors indexed by const
/// bounds, which LLVM keeps in registers; left to the autovectorizer the
/// same loops compiled to gathers and scatters.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CTile, NR};
    use std::arch::x86_64::*;

    /// `R` rows × `P` adjacent panels: `R·P` `zmm` accumulators (sixteen
    /// at `R = 8`, `P = 2`), `P` B vectors and one broadcast — inside the
    /// 32 registers, and enough independent chains to cover FMA latency.
    ///
    /// # Safety
    /// As [`super::TileFn`] with `w == P·NR`; the host has AVX-512F and FMA.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn panels512<const R: usize, const P: usize>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        next: usize,
        w: usize,
        kc: usize,
        c: CTile,
    ) {
        debug_assert!(kc > 0 && w == P * NR);
        debug_assert!(a.len() == kc * R && c.fits(R, w));
        debug_assert!(b.len() == (kc - 1) * ldb + NR + (P - 1) * next);
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); P]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (p, v) in row.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(c.ptr.add(r * c.ldc + p * NR));
            }
        }
        for kk in 0..kc {
            let mut bv = [_mm512_setzero_ps(); P];
            for (p, v) in bv.iter_mut().enumerate() {
                // Panel p of the pair starts `next` floats after panel p − 1.
                *v = _mm512_loadu_ps(bp.add(p * next + kk * ldb));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(kk * R + r));
                for (v, bv) in row.iter_mut().zip(&bv) {
                    *v = _mm512_fmadd_ps(av, *bv, *v);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (p, v) in row.iter().enumerate() {
                _mm512_storeu_ps(c.ptr.add(r * c.ldc + p * NR), *v);
            }
        }
    }

    /// `R` rows × the ragged `w < NR` columns: `B` is read at stride `ldb`
    /// and `B` and `C` through a `w`-lane mask, so no lane past column `w`
    /// is touched.
    ///
    /// # Safety
    /// As [`super::TileFn`] with `w < NR`; the host has AVX-512F and FMA.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn ragged512<const R: usize>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        _next: usize,
        w: usize,
        kc: usize,
        c: CTile,
    ) {
        debug_assert!(kc > 0 && 0 < w && w < NR);
        debug_assert!(a.len() == kc * R && b.len() == (kc - 1) * ldb + w && c.fits(R, w));
        let lanes: __mmask16 = (1 << w) - 1;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm512_setzero_ps(); R];
        for (r, v) in acc.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(lanes, c.ptr.add(r * c.ldc));
        }
        for kk in 0..kc {
            let bv = _mm512_maskz_loadu_ps(lanes, bp.add(kk * ldb));
            for (r, v) in acc.iter_mut().enumerate() {
                *v = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(kk * R + r)), bv, *v);
            }
        }
        for (r, v) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(c.ptr.add(r * c.ldc), lanes, *v);
        }
    }

    /// An `R`-row strip × one 16-column panel as passes of at most four
    /// rows, each reading the strip's A tile at stride `R`: a pass holds
    /// eight `ymm` accumulators, two B vectors and one broadcast — 11 of
    /// the 16 registers. `MASKED` serves the ragged `w < NR` columns
    /// through lane masks; otherwise `w == NR`.
    ///
    /// # Safety
    /// As [`super::TileFn`]; the host has AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn strip256<const R: usize, const MASKED: bool>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        _next: usize,
        w: usize,
        kc: usize,
        c: CTile,
    ) {
        debug_assert!(kc > 0 && if MASKED { 0 < w && w < NR } else { w == NR });
        debug_assert!(a.len() == kc * R && b.len() == (kc - 1) * ldb + w && c.fits(R, w));
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let masks = [
            _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), lane),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32 - 8), lane),
        ];
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for r0 in (0..R).step_by(4) {
            let (ap, c) = (ap.add(r0), c.offset(r0, 0));
            match R - r0 {
                1 => pass256::<1, MASKED>(ap, R, bp, ldb, kc, c, masks),
                2 => pass256::<2, MASKED>(ap, R, bp, ldb, kc, c, masks),
                3 => pass256::<3, MASKED>(ap, R, bp, ldb, kc, c, masks),
                _ => pass256::<4, MASKED>(ap, R, bp, ldb, kc, c, masks),
            }
        }
    }

    /// One pass of [`strip256`]: `H ≤ 4` rows of A (at `ap`, stride
    /// `lda`) × 16 columns of B (k rows `ldb` apart). Masked-off lanes are
    /// neither read nor written; their pointers are formed with
    /// `wrapping_add` because they may point past the panel.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass256<const H: usize, const MASKED: bool>(
        ap: *const f32,
        lda: usize,
        bp: *const f32,
        ldb: usize,
        kc: usize,
        c: CTile,
        masks: [__m256i; 2],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; H];
        for (r, row) in acc.iter_mut().enumerate() {
            for (h, v) in row.iter_mut().enumerate() {
                *v = load256::<MASKED>(c.ptr.wrapping_add(r * c.ldc + 8 * h), masks[h]);
            }
        }
        for kk in 0..kc {
            let b0 = load256::<MASKED>(bp.wrapping_add(kk * ldb), masks[0]);
            let b1 = load256::<MASKED>(bp.wrapping_add(kk * ldb + 8), masks[1]);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(kk * lda + r));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (h, v) in row.iter().enumerate() {
                store256::<MASKED>(c.ptr.wrapping_add(r * c.ldc + 8 * h), masks[h], *v);
            }
        }
    }

    /// Eight lanes at `p`, through `m` when `MASKED`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load256<const MASKED: bool>(p: *const f32, m: __m256i) -> __m256 {
        if MASKED {
            _mm256_maskload_ps(p, m)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// Stores eight lanes at `p`, through `m` when `MASKED`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store256<const MASKED: bool>(p: *mut f32, m: __m256i, v: __m256) {
        if MASKED {
            _mm256_maskstore_ps(p, m, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }
}

// ---------------------------------------------------------------------------
// Tile-grid scheduler
// ---------------------------------------------------------------------------

/// Raw output pointer a scoped worker team shares. Safety rests on the
/// grid geometry: every task index maps to a distinct (row strip ×
/// column group) block of `C`, so no two workers ever write the same
/// element.
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    // Accessor (rather than a public field) so closures capture the whole
    // `SendPtr` — precise closure capture would otherwise grab the bare
    // `*mut f32` field, which is not `Sync`.
    #[inline]
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Where the cells of one batch read `B`.
#[derive(Clone, Copy)]
enum BSrc<'a> {
    /// The batch's `k·n` floats in [`pack_b`]'s layout.
    Packed(&'a [f32]),
    /// The batch's `B` as stored at unit column stride: element `(kk, j)`
    /// at `b[kk·ld + j]`.
    InPlace { b: &'a [f32], ld: usize },
}

/// Computes one claimed grid cell: the `me ≤ MR` rows of a packed A strip
/// (`[kc×me]` tiles at `kb·me`, [`pack_a`] layout) times columns
/// `j_lo..j_hi` of one batch's `B`, into `C` at `c` (top-left of the
/// strip, row stride `n`).
///
/// Columns advance in the outer loop — a panel pair while at least
/// `2·NR` full columns remain (where the level pairs), then one panel,
/// then the ragged tile — so
/// each accumulator block only spills to `C` between KC tiles (an exact
/// f32 round trip); `kb` advances inner, keeping every element's
/// accumulation in strictly increasing `k` order.
///
/// # Safety
/// `c.fits(me, j_hi)`, and that block of `C` is not accessed by any other
/// thread; `apack` holds `me*k` packed floats and `b` all `k×n` of the
/// batch's `B`; `j_lo` is `2·NR`-aligned; a `bias` has length `n`; the
/// host has `lvl`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_cell(
    lvl: SimdLevel,
    apack: &[f32],
    me: usize,
    b: BSrc,
    (n, k): (usize, usize),
    (j_lo, j_hi): (usize, usize),
    c: CTile,
    bias: Option<&[f32]>,
) {
    debug_assert!(apack.len() == me * k && c.fits(me, j_hi));
    debug_assert!(match b {
        BSrc::Packed(bp) => bp.len() == k * n,
        BSrc::InPlace { b, ld } => k == 0 || b.len() >= (k - 1) * ld + n,
    });
    let tiles = Tiles::new(lvl, me);
    let full_end = j_hi.min(n - n % NR);
    let mut j0 = j_lo;
    while j0 < full_end {
        let (tile, w) = match tiles.pair {
            Some(pair) if full_end - j0 >= 2 * NR => (pair, 2 * NR),
            _ => (tiles.full, NR),
        };
        column_step(tile, apack, me, b, (n, k), (j0, w), c, bias);
        j0 += w;
    }
    // The ragged column tile (n % NR) always lands in the grid's last
    // column group (n % NR < NR ≤ NC).
    if j_hi == n && full_end < n {
        column_step(tiles.ragged, apack, me, b, (n, k), (full_end, n - full_end), c, bias);
    }
}

/// Runs `tile` over every KC tile of columns `j0..j0+w` of a strip, then
/// adds the `bias`, if any, to them: their accumulation over the full `k`
/// range is complete at that point (for `k == 0`, over an empty range,
/// leaving zeros), so this is the store-time equivalent of a separate
/// post-pass.
///
/// # Safety
/// As [`gemm_cell`], with `tile` serving width `w` and `c.fits(me, j0 + w)`.
#[allow(clippy::too_many_arguments)]
unsafe fn column_step(
    tile: TileFn,
    apack: &[f32],
    me: usize,
    b: BSrc,
    (n, k): (usize, usize),
    (j0, w): (usize, usize),
    c: CTile,
    bias: Option<&[f32]>,
) {
    debug_assert!(c.fits(me, j0 + w));
    for kb in (0..k).step_by(KC) {
        let kc = (kb + KC).min(k) - kb;
        // The slices bound what the tile may read: its A tile, and its
        // `w` columns of this KC tile (a packed pair's two panels are
        // adjacent; in place, a pair's columns are one run per k step).
        let a = &apack[kb * me..(kb + kc) * me];
        let (b, ldb, next) = match b {
            BSrc::Packed(bp) => (&bp[kb * n + j0 * kc..][..kc * w], w.min(NR), kc * NR),
            BSrc::InPlace { b, ld } => (&b[kb * ld + j0..][..(kc - 1) * ld + w], ld, NR),
        };
        tile(a, b, ldb, next, w, kc, c.offset(0, j0));
    }
    if let Some(bias) = bias {
        for r in 0..me {
            // SAFETY: row `r`'s columns `j0..j0 + w` lie inside the
            // `c.fits(me, j0 + w)` block this call owns exclusively.
            let row = std::slice::from_raw_parts_mut(c.offset(r, j0).ptr, w);
            add_bias(row, &bias[j0..j0 + w]);
        }
    }
}

/// One batched GEMM over strided operands — the description both kernels
/// (the packed one here, the reference one beside [`super::gemm`]) take:
/// `out[bi, i, j] = Σ_kk A[bi, i, kk] · b[bi·b_batch + kk·b_ks + j·b_cs] (+ bias[j])`
/// into a zero-initialised row-major `out` of `bs·m·n` floats, with `A`
/// as [`Lhs`] says. Strides express the transposes, `bs = 1` the unbatched
/// calls, `n = 1` the matrix–vector product. Only the packed kernel reads
/// [`Lhs::Patches`].
#[derive(Clone, Copy)]
pub(crate) struct StridedGemm<'a> {
    pub a: Lhs<'a>,
    pub b: &'a [f32],
    pub b_batch: usize,
    pub b_ks: usize,
    pub b_cs: usize,
    pub bs: usize,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Per-output-column bias (length `n`), added per element once its
    /// full-`k` accumulation is complete; every batch sees the same one.
    pub bias: Option<&'a [f32]>,
}

/// The packed path of [`super::gemm`].
///
/// `B` is packed **once** up front (shared read-only across the worker
/// team — the obs `tile_bpacks` counter counts one pass per GEMM that
/// packs) unless no strip would re-read it: when every batch is one strip
/// (`m ≤ MR`) and `B` has unit column stride, the tiles read `B` where it
/// lies and the call packs and leases nothing for it. The output is then a
/// grid of `MR`-row strips × `NC`-column
/// groups — a fixed function of the problem shape, never of the thread
/// count — and [`par_task_queue`] workers claim cells from a shared
/// atomic queue. Each worker holds one `MR×k` A-panel buffer for its whole
/// lifetime and re-packs it only when it claims a cell from a different
/// strip than its previous one. The team's panels are leased from the
/// workspace arena **on the calling thread before the team starts** (no
/// cross-thread aliasing: the arena hands out disjoint buffers), so one
/// call checks out exactly team-size panels at once, plus the `B` panel
/// when it packs — a function of the shape and the thread count, never of
/// whether an early worker finished before a late one started; a warm
/// arena therefore never misses. A bias is added to each column tile right
/// after its last KC tile stores.
pub(crate) fn gemm_packed(g: &StridedGemm, out: &mut [f32]) {
    let StridedGemm { a, b, b_batch, b_ks, b_cs, bs, m, n, k, bias } = *g;
    debug_assert_eq!(out.len(), bs * m * n);
    if bs * m * n == 0 {
        return;
    }
    let bpack = (m > MR || b_cs != 1).then(|| {
        let mut bpack = workspace::take(bs * k * n);
        for bi in 0..bs {
            pack_b(b, bi * b_batch, k, n, b_ks, b_cs, &mut bpack[bi * k * n..(bi + 1) * k * n]);
        }
        metalora_obs::counters::TILE_BPACKS.add(1);
        bpack
    });
    let b_of = |bi: usize| match &bpack {
        Some(bp) => BSrc::Packed(&bp[bi * k * n..(bi + 1) * k * n]),
        None => BSrc::InPlace { b: &b[bi * b_batch..], ld: b_ks },
    };

    // The tile grid: strips never straddle batch boundaries, column
    // groups are NR-aligned. Task index → (strip, group) with groups
    // adjacent for the same strip, so a worker draining consecutive
    // indices keeps its packed A strip.
    let strips_per_batch = m.div_ceil(MR);
    let col_groups = n.div_ceil(NC);
    let tasks = bs * strips_per_batch * col_groups;
    let lvl = simd_level();
    let out_len = out.len();
    let c_out = SendPtr(out.as_mut_ptr());
    let worker = |slot: usize, queue: &TaskQueue, mut apack: workspace::WorkspaceGuard| {
        let mut packed_strip = usize::MAX;
        let (mut claimed, mut steals, mut last) = (0u64, 0u64, usize::MAX);
        while let Some(task) = queue.claim() {
            claimed += 1;
            if last != usize::MAX && task != last + 1 {
                steals += 1;
            }
            last = task;
            let (strip, g) = (task / col_groups, task % col_groups);
            let (bi, i0) = (strip / strips_per_batch, (strip % strips_per_batch) * MR);
            let me = (m - i0).min(MR);
            if strip != packed_strip {
                a.pack_strip(bi, i0, me, k, &mut apack[..me * k]);
                packed_strip = strip;
            }
            let (j_lo, j_hi) = (g * NC, ((g + 1) * NC).min(n));
            let off = bi * m * n + i0 * n;
            // SAFETY: task indices are claimed exactly once, and each maps
            // to a disjoint me×(j_hi-j_lo) block of `out`, which holds
            // `out_len - off` floats from the strip's corner on; the packed
            // A panel was sized by pack_a, `B` holds the batch's `k×n`
            // (packed by pack_b above, or as stored), and `lvl` is the
            // host's level or below it.
            unsafe {
                let c = CTile { ptr: c_out.get().add(off), ldc: n, avail: out_len - off };
                gemm_cell(lvl, &apack[..me * k], me, b_of(bi), (n, k), (j_lo, j_hi), c, bias);
            }
        }
        metalora_obs::counters::record_tile_grid_worker(slot, claimed, steals);
    };
    let a_panel = || workspace::take(MR * k);
    par_task_queue("tile_grid", tasks, 2 * MR * k * NC.min(n.max(1)), a_panel, worker);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_level_is_cached_and_consistent() {
        let a = simd_level();
        let b = simd_level();
        assert_eq!(a, b);
        assert!(!a.name().is_empty());
    }

    #[test]
    fn pack_b_roundtrip_identity_layout() {
        // 2 KC tiles, ragged n: every element must land exactly once.
        let k = KC + 3;
        let n = NR + 5;
        let bd: Vec<f32> = (0..k * n).map(|x| x as f32).collect();
        let mut packed = vec![f32::NAN; k * n];
        pack_b(&bd, 0, k, n, n, 1, &mut packed);
        assert!(packed.iter().all(|x| !x.is_nan()));
        // Spot-check the documented layout: tile kb=KC, full tile 0,
        // dk=1, jj=2 holds B[KC+1, 2].
        let off = KC * n + NR + 2;
        assert_eq!(packed[off], bd[(KC + 1) * n + 2]);
    }

    #[test]
    fn pack_a_covers_ragged_rows() {
        let (rows, k) = (MR + 2, KC + 1);
        let ad: Vec<f32> = (0..rows * k).map(|x| x as f32).collect();
        let mut packed = vec![f32::NAN; rows * k];
        pack_a(&ad, 0, 0, rows, k, k, 1, &mut packed);
        assert!(packed.iter().all(|x| !x.is_nan()));
        // Full tile 0, dk=0, r=3 holds A[3, 0].
        assert_eq!(packed[3], ad[3 * k]);
        // Edge tile (rows MR..MR+2), tile kb=0 starts after the full tiles.
        assert_eq!(packed[MR * KC], ad[MR * k]);
    }

    #[test]
    fn gating_toggles() {
        // Unforced: packed. Forced: the seam decides, nests, and unwinds
        // to the previous state.
        assert!(use_packed());
        with_kernel_path(KernelPath::Reference, || {
            assert!(!use_packed());
            with_kernel_path(KernelPath::Packed, || assert!(use_packed()));
            assert!(!use_packed());
        });
        assert!(use_packed());
    }

    #[test]
    fn forced_path_is_per_thread_and_survives_a_panic() {
        use std::sync::Barrier;
        // Two threads force different paths at the same time (the barrier
        // holds both inside their scopes); each observes only its own.
        let both_inside = Barrier::new(2);
        std::thread::scope(|s| {
            for path in [KernelPath::Reference, KernelPath::Packed] {
                let both_inside = &both_inside;
                s.spawn(move || {
                    with_kernel_path(path, || {
                        both_inside.wait();
                        assert_eq!(use_packed(), path == KernelPath::Packed);
                        both_inside.wait();
                    });
                    assert!(use_packed());
                });
            }
        });
        // A panic inside the scope still restores the override.
        let caught = std::panic::catch_unwind(|| {
            with_kernel_path(KernelPath::Reference, || panic!("inside the seam"))
        });
        assert!(caught.is_err());
        assert!(use_packed());
    }

    #[test]
    fn the_seam_caps_the_simd_level_and_nests_with_the_path() {
        let host = simd_level();
        with_kernel_path(SimdLevel::Scalar, || {
            assert_eq!(simd_level(), SimdLevel::Scalar);
            with_kernel_path(KernelPath::Reference, || {
                assert_eq!((simd_level(), use_packed()), (SimdLevel::Scalar, false));
            });
            // A cap never lifts the level above what the host has.
            with_kernel_path(SimdLevel::Avx512, || assert_eq!(simd_level(), host));
        });
        assert_eq!(simd_level(), host);
    }

    /// Plain row-major `[m,k]·[k,n]` through the packed kernel.
    fn packed(
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        let g = StridedGemm {
            a: Lhs::Strided { a, batch: m * k, rs: k, ks: 1 },
            b, b_batch: k * n, b_ks: n, b_cs: 1, bs: 1, m, n, k, bias,
        };
        gemm_packed(&g, &mut out);
        out
    }

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Ragged in every dimension, 2 KC tiles, 2 column groups.
    fn ragged_operands() -> ((usize, usize, usize), Vec<f32>, Vec<f32>) {
        let (m, k, n) = (37, 150, 290);
        let ad = (0..m * k).map(|x| (x % 17) as f32 * 0.25 - 2.0).collect();
        let bd = (0..k * n).map(|x| (x % 13) as f32 * 0.5 - 3.0).collect();
        ((m, k, n), ad, bd)
    }

    #[test]
    fn fused_epilogue_is_bitwise_separate_pass() {
        // The fused store must reproduce the exact bits of GEMM followed
        // by a full bias-broadcast pass.
        let (dims, ad, bd) = ragged_operands();
        let n = dims.2;
        let bias: Vec<f32> = (0..n).map(|j| (j % 7) as f32 * 0.125 - 0.4).collect();
        let mut separate = packed(&ad, &bd, dims, None);
        for row in separate.chunks_mut(n) {
            for (j, v) in row.iter_mut().enumerate() {
                *v += bias[j];
            }
        }
        let fused = packed(&ad, &bd, dims, Some(&bias));
        assert!(bits_eq(&fused, &separate));
    }

    #[test]
    fn serial_tile_grid_matches_parallel_tile_grid() {
        // One worker draining the grid in order and a team of four
        // claiming cells in any order must not differ in a bit.
        let (dims, ad, bd) = ragged_operands();
        let run = || packed(&ad, &bd, dims, None);
        let serial = crate::par::with_num_threads(1, run);
        let parallel = crate::par::with_par_threshold(0, || crate::par::with_num_threads(4, run));
        assert!(bits_eq(&serial, &parallel));
    }
}
