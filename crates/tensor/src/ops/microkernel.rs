//! Packed, register-tiled GEMM microkernel with a parallel tile-grid
//! scheduler.
//!
//! Every layout / batching combination [`super::gemm`] accepts
//! reduces to the same computation — `C[i,j] += Σ_k A[i,k]·B[k,j]` over
//! strided operands (`StridedGemm`) — so they all funnel into one driver
//! here, `gemm_packed`:
//!
//! 1. **Pack `B` once per call** into KC-tall panels of [`NR`]-wide column
//!    tiles (`[kc×NR]`, k-major) — shared, read-only, visible to every
//!    worker. Packing linearises the strided loads of the transposed
//!    variants, so the inner kernel always streams two contiguous panels.
//! 2. **Claim C-tile blocks from a shared atomic queue**
//!    ([`crate::par::par_task_queue`]): the output is a grid of
//!    `MR`-row strips × `NC`-column groups, and each team worker claims
//!    grid cells until the queue is dry. On first touch of a strip the
//!    worker packs that strip's `A` rows into its **private arena lease**
//!    (`[kc×MR]` row tiles, k-major; the team's leases are taken by the
//!    caller before the team starts) and keeps it for subsequent claims
//!    of the same strip — `A` is packed at most once per (strip, worker)
//!    and `B` is never re-packed, which is what lets the packed path
//!    scale instead of fighting the thread team (the old design split
//!    rows *above* the packing).
//! 3. Per claimed cell, run the `MR×NR` **register-tiled kernel** for
//!    each column tile: the 4×16 accumulator block lives in SIMD
//!    registers, `C` is loaded into it at the start of each KC tile and
//!    stored back after, and `k` advances one step at a time. Ragged
//!    edges (`m % MR`, `n % NR`) fall to a bounds-checked edge kernel
//!    with the identical accumulation order.
//!
//! # Bitwise equivalence to the reference kernel
//!
//! Every output element receives exactly one `f32` multiply and one add
//! per `k` step, in strictly increasing `k` order, starting from the
//! zero-initialised output — the same abstract sequence the strided
//! reference kernel in [`super::gemm`]'s module performs. Spilling the
//! accumulator to `C` between KC tiles is exact (an `f32` store/load
//! round-trip loses nothing), and rustc never contracts `mul`+`add` into
//! an FMA, so vector width cannot change any element either. Hence packed
//! results are **bitwise identical** to the reference path, which is why
//! dispatch may pick between them from the flop count alone.
//!
//! Work *stealing* cannot move a bit either: each grid cell is a
//! self-contained block of output elements, computed by exactly one
//! worker from shared immutable packed panels over the full `k` range.
//! Which worker computes which cell — and in which order — changes
//! nothing about any element's operation sequence, so the scheduler is
//! free to interleave claims arbitrarily (tallied by the obs
//! `tile_steals` counter) while staying bitwise equal to the serial
//! claim order.
//!
//! # SIMD dispatch
//!
//! The kernel body is a plain Rust loop nest the autovectorizer unrolls;
//! `#[target_feature]` wrappers re-instantiate it for AVX2 and AVX-512F
//! (detected once at runtime). The `fma` feature is deliberately **not**
//! enabled: contraction would fuse the rounding step away and break
//! bitwise equality.
//!
//! # Fused epilogues
//!
//! A GEMM call may carry an [`Epilogue`] — a per-output-column bias and/or
//! a scalar [`Activation`] — which each worker applies to a column tile
//! immediately after that tile's final KC tile stores, i.e. once the full
//! `k` accumulation of those elements is complete. The per-element value
//! is `act(acc + bias[j])`, exactly what the separate `ops::add` +
//! `ops::map` passes compute; the sequence is pure per element, so store
//! time vs. a second full output pass cannot change a bit (see
//! DESIGN.md "Epilogue fusion").

use crate::par::{par_task_queue, TaskQueue};
use crate::workspace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Rows of the register tile (accumulator rows per kernel invocation).
pub const MR: usize = 4;
/// Columns of the register tile (one or two SIMD vectors wide).
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
// Gating: packed vs reference
// ---------------------------------------------------------------------------

/// Products below this flop count stay on the reference kernel — packing
/// two operands cannot pay for itself on tiny products.
pub const PACK_MIN_FLOPS: usize = 1 << 15;

/// The two kernels a GEMM can run on (bitwise identical by construction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelPath {
    /// The strided scalar reference kernel.
    Reference,
    /// The packed register-tiled kernel in this module.
    Packed,
}

thread_local! {
    static FORCED_PATH: Cell<Option<KernelPath>> = const { Cell::new(None) };
}

/// Test seam: runs `f` with every gate decision taken **on this thread**
/// forced to `path`, whatever the flop count, and restores the previous
/// state afterwards — also when `f` panics. The equivalence suites and
/// the K1 sweep use it to compare the two kernels on the same shape;
/// production code never forces a path.
#[doc(hidden)]
pub fn with_kernel_path<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelPath>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_PATH.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(FORCED_PATH.with(|p| p.replace(Some(path))));
    f()
}

/// `true` when a product of `flops` multiply-adds takes the packed path:
/// the flop count against [`PACK_MIN_FLOPS`], unless the calling thread is
/// inside [`with_kernel_path`].
pub fn use_packed(flops: usize) -> bool {
    match FORCED_PATH.with(Cell::get) {
        Some(path) => path == KernelPath::Packed,
        None => flops >= PACK_MIN_FLOPS,
    }
}

// ---------------------------------------------------------------------------
// Fused epilogue
// ---------------------------------------------------------------------------

/// Scalar activation a fused epilogue may apply. Each variant computes the
/// exact same f32 expression the separate `ops::map` pass computes, so
/// applying it at store time cannot change a bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// The tanh-approximated GELU the autograd tape uses
    /// (`metalora_autograd::gelu_fwd` delegates here).
    Gelu,
    /// `x.tanh()`.
    Tanh,
}

impl Activation {
    /// Applies the activation to one element.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Gelu => gelu(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Stable lowercase name for bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Gelu => "gelu",
            Activation::Tanh => "tanh",
        }
    }
}

/// Tanh-approximated GELU, the single shared definition: the autograd
/// tape's forward delegates here, so fused inference and tape training
/// compute bit-identical activations.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Epilogue fused into the C-tile store: per element, `bias[j]` (the
/// output-column bias, if any) is added and the activation (if any) is
/// applied — `act(acc + bias[j])` — immediately after that element's full
/// `k` accumulation completes. The unfused path computes the identical
/// per-element scalar sequence in two separate full passes (`ops::add`
/// broadcast, then `ops::map`); since the sequence is pure per element,
/// the order elements are visited in is irrelevant and fused output is
/// bitwise identical to unfused.
#[derive(Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-output-column bias (length `n`), added before the activation.
    pub bias: Option<&'a [f32]>,
    /// Activation applied after the bias.
    pub act: Option<Activation>,
}

impl<'a> Epilogue<'a> {
    /// The identity epilogue (plain GEMM store).
    pub fn none() -> Epilogue<'static> {
        Epilogue { bias: None, act: None }
    }

    /// `true` when there is nothing to apply.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.bias.is_none() && self.act.is_none()
    }

    /// Applies the epilogue to the element in output column `j`.
    #[inline]
    pub fn apply_one(&self, j: usize, v: f32) -> f32 {
        let v = match self.bias {
            Some(b) => v + b[j],
            None => v,
        };
        match self.act {
            Some(a) => a.apply(v),
            None => v,
        }
    }

    /// Applies the epilogue in place to a row-major block of `rows` rows
    /// whose first element sits in output column `j0`, row stride `ldc`.
    ///
    /// # Safety
    /// `c` must be valid for a `rows × cols` block at row stride `ldc`,
    /// not accessed concurrently; `j0 + cols` must not exceed the bias
    /// length when a bias is present.
    unsafe fn apply_tile(&self, c: *mut f32, ldc: usize, rows: usize, j0: usize, cols: usize) {
        for r in 0..rows {
            let row = c.add(r * ldc + j0);
            for jj in 0..cols {
                *row.add(jj) = self.apply_one(j0 + jj, *row.add(jj));
            }
        }
    }

    /// Applies the epilogue in place to contiguous row-major `rows × n`
    /// output rows (the reference kernel's variant — safe slices, same
    /// per-element sequence).
    pub fn apply_rows(&self, out: &mut [f32], n: usize) {
        if self.is_noop() || n == 0 {
            return;
        }
        for row in out.chunks_mut(n) {
            for (j, v) in row.iter_mut().enumerate() {
                *v = self.apply_one(j, *v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD level detection
// ---------------------------------------------------------------------------

/// Instruction-set level the kernel wrappers were dispatched to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Baseline autovectorization (SSE2 on x86_64).
    Scalar = 0,
    /// 256-bit vectors.
    Avx2 = 1,
    /// 512-bit vectors.
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

/// Best SIMD level the host supports (detected once, then cached).
pub fn simd_level() -> SimdLevel {
    match SIMD_LEVEL.load(Relaxed) {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Avx2,
        2 => SimdLevel::Avx512,
        _ => {
            let l = detect();
            SIMD_LEVEL.store(l as u8, Relaxed);
            l
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
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

// ---------------------------------------------------------------------------
// Register-tiled kernels
// ---------------------------------------------------------------------------

/// Full `MR×NR` tile: `ap` is a `[kc×MR]` packed A tile, `bp` a `[kc×NR]`
/// packed B tile, `c` the top-left of the destination tile with row stride
/// `ldc`. The accumulator block is loaded from `C`, updated in increasing
/// `k` order, and stored back — never zero-initialised, so KC tiling keeps
/// the per-element accumulation sequence intact.
///
/// # Safety
/// `ap`/`bp` must be valid for `kc*MR` / `kc*NR` reads and `c` for an
/// `MR×NR` block at row stride `ldc`.
#[inline(always)]
unsafe fn kernel_full_body(ap: *const f32, bp: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..MR {
        for j in 0..NR {
            acc[r][j] = *c.add(r * ldc + j);
        }
    }
    for kk in 0..kc {
        let mut b = [0.0f32; NR];
        for j in 0..NR {
            b[j] = *bp.add(kk * NR + j);
        }
        for r in 0..MR {
            let a = *ap.add(kk * MR + r);
            for j in 0..NR {
                acc[r][j] += a * b[j];
            }
        }
    }
    for r in 0..MR {
        for j in 0..NR {
            *c.add(r * ldc + j) = acc[r][j];
        }
    }
}

/// Ragged-edge tile: like [`kernel_full_body`] but for `me ≤ MR` rows of a
/// `[kc×me]` A tile and `ne ≤ NR` columns of a `[kc×ne]` B tile. The
/// fixed-size accumulator keeps `me` independent chains per `k` step, which
/// also makes this the matvec kernel (`ne = 1`).
///
/// # Safety
/// `ap`/`bp` must be valid for `kc*me` / `kc*ne` reads and `c` for an
/// `me×ne` block at row stride `ldc`; `me ≤ MR`, `ne ≤ NR`.
#[inline(always)]
unsafe fn kernel_edge_body(
    ap: *const f32,
    me: usize,
    bp: *const f32,
    ne: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..me {
        for j in 0..ne {
            acc[r][j] = *c.add(r * ldc + j);
        }
    }
    for kk in 0..kc {
        for r in 0..me {
            let a = *ap.add(kk * me + r);
            for j in 0..ne {
                acc[r][j] += a * *bp.add(kk * ne + j);
            }
        }
    }
    for r in 0..me {
        for j in 0..ne {
            *c.add(r * ldc + j) = acc[r][j];
        }
    }
}

// Per-level instantiations. The bodies are identical; the target_feature
// attribute is what lets LLVM widen the inner loops to 256/512-bit ops.

unsafe fn kernel_full_scalar(ap: *const f32, bp: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    kernel_full_body(ap, bp, kc, c, ldc)
}

unsafe fn kernel_edge_scalar(
    ap: *const f32,
    me: usize,
    bp: *const f32,
    ne: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    kernel_edge_body(ap, me, bp, ne, kc, c, ldc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_full_avx2(ap: *const f32, bp: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    kernel_full_body(ap, bp, kc, c, ldc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_edge_avx2(
    ap: *const f32,
    me: usize,
    bp: *const f32,
    ne: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    kernel_edge_body(ap, me, bp, ne, kc, c, ldc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_full_avx512(ap: *const f32, bp: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    kernel_full_body(ap, bp, kc, c, ldc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_edge_avx512(
    ap: *const f32,
    me: usize,
    bp: *const f32,
    ne: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    kernel_edge_body(ap, me, bp, ne, kc, c, ldc)
}

#[inline]
unsafe fn run_full(lvl: SimdLevel, ap: *const f32, bp: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => kernel_full_avx512(ap, bp, kc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => kernel_full_avx2(ap, bp, kc, c, ldc),
        _ => kernel_full_scalar(ap, bp, kc, c, ldc),
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn run_edge(
    lvl: SimdLevel,
    ap: *const f32,
    me: usize,
    bp: *const f32,
    ne: usize,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => kernel_edge_avx512(ap, me, bp, ne, kc, c, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => kernel_edge_avx2(ap, me, bp, ne, kc, c, ldc),
        _ => kernel_edge_scalar(ap, me, bp, ne, kc, c, ldc),
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

/// Computes one claimed grid cell: the `me ≤ MR` rows of a packed A strip
/// (`[kc×me]` tiles at `kb·me`, [`pack_a`] layout) times columns
/// `j_lo..j_hi` of one batch's packed `B` (`bp`, [`pack_b`] layout), into
/// `C` at `c_row` (top-left of the strip, row stride `n`).
///
/// Column tiles advance in the outer loop so each `MR×NR` accumulator
/// block only spills to `C` between KC tiles (an exact f32 round trip);
/// `kb` advances inner, keeping every element's accumulation in strictly
/// increasing `k` order. A non-noop `ep` is applied to each column tile
/// right after its final KC tile stores — every element's accumulation
/// over the full `k` range is complete at that point, so this is the
/// store-time equivalent of a separate post-pass.
///
/// # Safety
/// `c_row` must be valid for an `me × (j_hi - j_lo)` block at row stride
/// `n`, not written concurrently by any other thread; `apack`/`bp` must
/// hold `me*k` / `k*n` packed floats; `j_lo` must be `NR`-aligned; a bias
/// in `ep` must have length `≥ n`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_cell(
    lvl: SimdLevel,
    apack: &[f32],
    me: usize,
    bp: &[f32],
    n: usize,
    k: usize,
    j_lo: usize,
    j_hi: usize,
    c_row: *mut f32,
    ep: Epilogue,
) {
    let n_full = n - n % NR;
    for j0 in (j_lo..j_hi.min(n_full)).step_by(NR) {
        for kb in (0..k).step_by(KC) {
            let kc = (kb + KC).min(k) - kb;
            let ap = apack.as_ptr().add(kb * me);
            let bt = bp.as_ptr().add(kb * n + j0 * kc);
            if me == MR {
                run_full(lvl, ap, bt, kc, c_row.add(j0), n);
            } else {
                run_edge(lvl, ap, me, bt, NR, kc, c_row.add(j0), n);
            }
        }
        if !ep.is_noop() {
            // Full k range accumulated for these NR columns: fuse the
            // epilogue into the store (also correct for k == 0, where
            // the accumulation over an empty range left zeros).
            ep.apply_tile(c_row, n, me, j0, NR);
        }
    }
    // The ragged column tile (ne = n % NR) always lands in the grid's
    // last column group (ne < NR ≤ NC).
    let ne = n - n_full;
    if ne > 0 && j_hi == n {
        for kb in (0..k).step_by(KC) {
            let kc = (kb + KC).min(k) - kb;
            let ap = apack.as_ptr().add(kb * me);
            let bt = bp.as_ptr().add(kb * n + n_full * kc);
            run_edge(lvl, ap, me, bt, ne, kc, c_row.add(n_full), n);
        }
        if !ep.is_noop() {
            ep.apply_tile(c_row, n, me, n_full, ne);
        }
    }
}

/// One batched GEMM over strided operands — the description both kernels
/// (the packed one here, the reference one beside [`super::gemm`]) take:
/// `out[bi, i, j] = ep(Σ_kk a[bi·a_batch + i·a_rs + kk·a_ks] · b[bi·b_batch + kk·b_ks + j·b_cs])`
/// into a zero-initialised row-major `out` of `bs·m·n` floats. Strides
/// express the transposes, `bs = 1` the unbatched calls, `n = 1` the
/// matrix–vector product.
#[derive(Clone, Copy)]
pub(crate) struct StridedGemm<'a> {
    pub a: &'a [f32],
    pub a_batch: usize,
    pub a_rs: usize,
    pub a_ks: usize,
    pub b: &'a [f32],
    pub b_batch: usize,
    pub b_ks: usize,
    pub b_cs: usize,
    pub bs: usize,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Applied per element once its full-`k` accumulation is complete;
    /// bias indices are the absolute output column, so every batch sees
    /// the same per-column bias.
    pub ep: Epilogue<'a>,
}

/// The packed path of [`super::gemm`].
///
/// `B` is packed **once** up front (shared read-only across the worker
/// team — the obs `tile_bpacks` counter asserts exactly one pass per
/// call). The output is then a grid of `MR`-row strips × `NC`-column
/// groups — a fixed function of the problem shape, never of the thread
/// count — and [`par_task_queue`] workers claim cells from a shared
/// atomic queue. Each worker holds one `MR×k` A-panel buffer for its whole
/// lifetime and re-packs it only when it claims a cell from a different
/// strip than its previous one. The team's panels are leased from the
/// workspace arena **on the calling thread before the team starts** (no
/// cross-thread aliasing: the arena hands out disjoint buffers), so one
/// call checks out exactly team-size panels at once — a function of the
/// shape and the thread count, never of whether an early worker finished
/// before a late one started; a warm arena therefore never misses, and
/// one thread takes exactly one lease. A non-noop `ep` is applied to each
/// column tile right after its last KC tile stores.
pub(crate) fn gemm_packed(g: &StridedGemm, out: &mut [f32]) {
    let StridedGemm { a, a_batch, a_rs, a_ks, b, b_batch, b_ks, b_cs, bs, m, n, k, ep } = *g;
    debug_assert_eq!(out.len(), bs * m * n);
    if bs * m * n == 0 {
        return;
    }
    let mut bpack = workspace::take(bs * k * n);
    for bi in 0..bs {
        pack_b(b, bi * b_batch, k, n, b_ks, b_cs, &mut bpack[bi * k * n..(bi + 1) * k * n]);
    }
    metalora_obs::counters::record_tile_grid_bpack();
    let bp: &[f32] = &bpack;

    // The tile grid: strips never straddle batch boundaries, column
    // groups are NR-aligned. Task index → (strip, group) with groups
    // adjacent for the same strip, so a worker draining consecutive
    // indices keeps its packed A strip.
    let strips_per_batch = m.div_ceil(MR);
    let col_groups = n.div_ceil(NC);
    let tasks = bs * strips_per_batch * col_groups;
    let lvl = simd_level();
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
                pack_a(a, bi * a_batch, i0, me, k, a_rs, a_ks, &mut apack[..me * k]);
                packed_strip = strip;
            }
            let (j_lo, j_hi) = (g * NC, ((g + 1) * NC).min(n));
            // Safety: task indices are claimed exactly once, and each maps
            // to a disjoint me×(j_hi-j_lo) block of `out`; the packed
            // panels were sized by pack_a/pack_b above.
            unsafe {
                gemm_cell(
                    lvl,
                    &apack[..me * k],
                    me,
                    &bp[bi * k * n..(bi + 1) * k * n],
                    n,
                    k,
                    j_lo,
                    j_hi,
                    c_out.get().add(bi * m * n + i0 * n),
                    ep,
                );
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
        // Edge tile (rows 4..6), tile kb=0 starts after the full tiles.
        assert_eq!(packed[MR * KC], ad[MR * k]);
    }

    #[test]
    fn gating_toggles() {
        // Auto: the flop count decides. Forced: the seam decides, nests,
        // and unwinds to the previous state.
        assert!(use_packed(PACK_MIN_FLOPS) && !use_packed(PACK_MIN_FLOPS - 1));
        with_kernel_path(KernelPath::Reference, || {
            assert!(!use_packed(usize::MAX));
            with_kernel_path(KernelPath::Packed, || assert!(use_packed(0)));
            assert!(!use_packed(usize::MAX));
        });
        assert!(use_packed(1 << 20) && !use_packed(8));
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
                        let want = path == KernelPath::Packed;
                        assert_eq!((use_packed(0), use_packed(usize::MAX)), (want, want));
                        both_inside.wait();
                    });
                    assert!(!use_packed(0) && use_packed(usize::MAX));
                });
            }
        });
        // A panic inside the scope still restores the override.
        let caught = std::panic::catch_unwind(|| {
            with_kernel_path(KernelPath::Packed, || panic!("inside the seam"))
        });
        assert!(caught.is_err());
        assert!(!use_packed(0));
    }

    /// Plain row-major `[m,k]·[k,n]` through the packed kernel.
    fn packed(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize), ep: Epilogue) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        let g = StridedGemm {
            a, a_batch: m * k, a_rs: k, a_ks: 1, b, b_batch: k * n, b_ks: n, b_cs: 1,
            bs: 1, m, n, k, ep,
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
        // by two full passes (bias broadcast, then activation) in the
        // same scalar order.
        let (dims, ad, bd) = ragged_operands();
        let n = dims.2;
        let bias: Vec<f32> = (0..n).map(|j| (j % 7) as f32 * 0.125 - 0.4).collect();
        for act in [None, Some(Activation::Relu), Some(Activation::Gelu), Some(Activation::Tanh)] {
            let mut separate = packed(&ad, &bd, dims, Epilogue::none());
            for row in separate.chunks_mut(n) {
                for (j, v) in row.iter_mut().enumerate() {
                    *v += bias[j];
                }
            }
            if let Some(a) = act {
                for v in &mut separate {
                    *v = a.apply(*v);
                }
            }
            let ep = Epilogue { bias: Some(&bias), act };
            let fused = packed(&ad, &bd, dims, ep);
            assert!(bits_eq(&fused, &separate));
        }
    }

    #[test]
    fn serial_tile_grid_matches_parallel_tile_grid() {
        // One worker draining the grid in order and a team of four
        // claiming cells in any order must not differ in a bit.
        let (dims, ad, bd) = ragged_operands();
        let run = || packed(&ad, &bd, dims, Epilogue::none());
        crate::par::set_num_threads(1);
        let serial = run();
        crate::par::set_num_threads(4);
        crate::par::set_par_threshold(0);
        let parallel = run();
        crate::par::set_num_threads(0);
        crate::par::set_par_threshold(usize::MAX);
        assert!(bits_eq(&serial, &parallel));
    }
}
