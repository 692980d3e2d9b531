//! Checks of the packed register-tiled microkernel's own machinery — the
//! tile grid, the one-strip path, the register tiles and packing — and
//! that the workspace arena actually reuses buffers without ever aliasing
//! concurrent checkouts. (Packed ≡ reference over the full descriptor
//! space — layouts × batching × bias on ragged, degenerate, `k = 0` and
//! KC-crossing shapes — is swept by `gemm_equiv.rs`.)
//!
//! Each kernel is forced through the scoped thread-local seam
//! ([`with_kernel_path`]); the suite lock remains for what is
//! process-wide — the obs counters the accounting tests read.
//!
//! The tile grid gets its own checks here: ragged shapes that cross the
//! NC column-group boundary, and calls of different shapes interleaved so
//! each can reuse the other's arena panels, must stay bitwise-equal to the
//! reference kernel, and the obs tallies must show exactly one B pack per
//! GEMM that packs with claims covering the whole grid.
//!
//! The one-strip path gets a deterministic table: products whose every
//! batch is one strip read `B` in place — no pack, no `B` lease — and stay
//! bitwise-equal to the reference kernel at every SIMD level, while one
//! more row, or a transposed `B`, packs again.
//!
//! The register tiles get a deterministic sweep: every strip height, panel
//! pairs, single panels and masked ragged columns, `k` around `KC`, in
//! every layout and at every SIMD level the host has — in the debug
//! profile the tiles' bounds assertions check each read and write.
//!
//! Packing itself is pinned to its definition: for each operand and each
//! stride class (as stored — the run-copy paths — and transposed), the
//! packed panel equals the per-element formula in `pack_a` / `pack_b`'s
//! doc comments, element for element.

use metalora_tensor::ops::{
    gemm, matmul, microkernel, simd_level, with_kernel_path, GemmDesc, KernelPath, Layout,
    SimdLevel,
};
use metalora_tensor::{init, workspace, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialises the suite: the accounting tests read the process-wide obs
/// counters, which every GEMM here would otherwise add to.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` on the reference kernel, then on the packed kernel, and
/// asserts the outputs agree to the bit.
fn assert_pack_equiv(f: impl Fn() -> Tensor) {
    let _g = lock();
    let reference = with_kernel_path(KernelPath::Reference, &f);
    let packed = with_kernel_path(KernelPath::Packed, &f);
    assert!(bits_eq(&reference, &packed), "packed result diverged from the reference kernel");
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    let mut r = init::rng(seed);
    init::uniform(dims, -1.0, 1.0, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tile_grid_spans_column_groups_bitwise(
        m in 1usize..20,
        k in 1usize..80,
        n in 250usize..300,
        seed in 0u64..1000,
    ) {
        // n crosses NC = 256: at least two column groups per strip, with
        // the ragged NR edge always landing in the last group.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_pack_equiv(|| matmul(&a, &b).unwrap());
    }

    #[test]
    fn tile_grid_survives_arena_reuse_interleaving(
        m in 1usize..30,
        k in 1usize..60,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        // Alternate two shapes call to call: a pooled A/B panel one
        // product parks can be checked out by the other (one more strip, a
        // longer `k`, a wider `n`) and must never leak stale data into it.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        let wide_a = rand_t(&[m + microkernel::MR, k + 5], seed + 2);
        let wide_b = rand_t(&[k + 5, n + 3], seed + 3);
        for _ in 0..3 {
            assert_pack_equiv(|| matmul(&a, &b).unwrap());
            assert_pack_equiv(|| matmul(&wide_a, &wide_b).unwrap());
        }
    }
}

/// `m` ∈ 1..=17 is every strip height, twice full plus one; `n` sits
/// around one and two panels (the masked ragged tile alone, a single
/// panel, a pair, a pair plus ragged columns) and past the `NC` column
/// group; `k` is empty, one step, and around the `KC` tile. Every layout,
/// packed at every SIMD level the host has ≡ the reference kernel.
#[test]
fn register_tile_sweep_is_bitwise_at_every_level() {
    use Layout::{N, T};
    const LAYOUTS: [(Layout, Layout); 4] = [(N, N), (N, T), (T, N), (T, T)];
    let _g = lock();
    let levels = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
    let levels: Vec<_> = levels.into_iter().filter(|&l| l <= simd_level()).collect();
    let mut seed = 0;
    for k in [0, 1, 127, 128, 129] {
        for n in [1, 12, 15, 16, 17, 24, 31, 32, 33, 48, 257] {
            for m in 1..=17 {
                for (a_layout, b_layout) in LAYOUTS {
                    seed += 2;
                    let a_dims = if a_layout == Layout::T { [k, m] } else { [m, k] };
                    let b_dims = if b_layout == Layout::T { [n, k] } else { [k, n] };
                    let (a, b) = (rand_t(&a_dims, seed), rand_t(&b_dims, seed + 1));
                    let desc = GemmDesc { a_layout, b_layout, ..GemmDesc::new(&a, &b) };
                    let want =
                        with_kernel_path(KernelPath::Reference, || gemm(&desc).unwrap());
                    for &level in &levels {
                        let got = with_kernel_path(level, || {
                            with_kernel_path(KernelPath::Packed, || gemm(&desc).unwrap())
                        });
                        assert!(
                            bits_eq(&want, &got),
                            "{level:?}: m={m} n={n} k={k} {a_layout:?}{b_layout:?}"
                        );
                    }
                }
            }
        }
    }
}

/// A one-strip product reads `B` in place. `m` ∈ 1..=MR+1 is every strip
/// height and the smallest two-strip product; `n` is the masked ragged
/// tile alone, one panel and either side of it, a pair plus ragged
/// columns, and two column groups; `k` is one step, one `KC` tile, and
/// just past one and two. Unbatched and batched, bias on and off, `B` as
/// stored and transposed: packed at every SIMD level the host has ≡ the
/// reference kernel. The obs counters say which path ran: `tile_bpacks`
/// moves by 0 when every batch is one strip and `B` has unit column
/// stride (as stored; a one-deep transposed `B` is one row at unit stride
/// too) and by 1 otherwise, and a call checks out one `A` panel plus the
/// `B` panel only when it packs.
#[test]
fn one_strip_products_read_b_in_place_bitwise() {
    use microkernel::{KC, MR};
    let _g = lock();
    let levels = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
    let levels: Vec<_> = levels.into_iter().filter(|&l| l <= simd_level()).collect();
    let counts = || {
        let s = metalora_obs::counters::snapshot();
        (s.tile_bpacks, s.workspace_hits + s.workspace_misses)
    };
    let check = |(m, n, k): (usize, usize, usize),
                 bs: Option<usize>,
                 b_layout: Layout,
                 with_bias: bool,
                 seed: u64| {
        let dims = |r: usize, c: usize| bs.map_or(vec![r, c], |bs| vec![bs, r, c]);
        let b_dims = if b_layout == Layout::T { dims(n, k) } else { dims(k, n) };
        let (a, b) = (rand_t(&dims(m, k), seed), rand_t(&b_dims, seed + 1));
        let bias = rand_t(&[n], seed + 2);
        let desc = GemmDesc { b_layout, bias: with_bias.then_some(&bias), ..GemmDesc::new(&a, &b) };
        let want = with_kernel_path(KernelPath::Reference, || gemm(&desc).unwrap());
        let packs = u64::from(m > MR || (b_layout == Layout::T && k > 1));
        for &level in &levels {
            let before = counts();
            let got = with_kernel_path(level, || {
                with_kernel_path(KernelPath::Packed, || gemm(&desc).unwrap())
            });
            let after = counts();
            let what =
                format!("{level:?}: m={m} n={n} k={k} bs={bs:?} {b_layout:?} bias={with_bias}");
            assert!(bits_eq(&want, &got), "{what}");
            assert_eq!(after.0 - before.0, packs, "{what}: B packs");
            assert_eq!(after.1 - before.1, 1 + packs, "{what}: arena checkouts");
        }
    };
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let mut seed = 10_000;
    for k in [1, KC, KC + 1, 2 * KC + 3] {
        for n in [1, 15, 16, 17, 33, 257] {
            for m in 1..=MR + 1 {
                for bs in [None, Some(3)] {
                    for b_layout in [Layout::N, Layout::T] {
                        for with_bias in [false, true] {
                            seed += 3;
                            check((m, n, k), bs, b_layout, with_bias, seed);
                        }
                    }
                }
            }
        }
    }
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
}

/// Where the doc comments of [`microkernel::pack_b`] / [`microkernel::pack_a`]
/// put element `(kk, c)` of a packed operand `k` deep and `extent` columns
/// (`B`, `tile = NR`) or rows (`A`, `tile = MR`) wide: KC tile `kb` starts
/// at `kb·extent` and holds the full `[kc×tile]` register tiles, then one
/// ragged `[kc×(extent % tile)]` tile.
fn panel_index(extent: usize, tile: usize, k: usize, kk: usize, c: usize) -> usize {
    let kb = kk - kk % microkernel::KC;
    let kc = (kb + microkernel::KC).min(k) - kb;
    let full = extent - extent % tile;
    if c < full {
        kb * extent + (c / tile) * tile * kc + (kk - kb) * tile + c % tile
    } else {
        kb * extent + full * kc + (kk - kb) * (extent - full) + (c - full)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `pack_b` ≡ its definition, element for element, for `B` as stored
    /// (`cs == 1`, the run-copy class) and transposed (`ks == 1`):
    /// ragged `n % NR`, `k` across `KC` tiles (and `k = 0`), a non-zero
    /// `base`.
    #[test]
    fn pack_b_is_its_definition(
        k in 0usize..300,
        n in 1usize..40,
        base in 0usize..7,
        transposed in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (ks, cs) = if transposed == 1 { (1, k) } else { (n, 1) };
        let stored = rand_t(&[base + k * n], seed);
        let mut packed = vec![f32::NAN; k * n];
        microkernel::pack_b(stored.data(), base, k, n, ks, cs, &mut packed);
        for kk in 0..k {
            for j in 0..n {
                let (src, at) = (base + kk * ks + j * cs, panel_index(n, microkernel::NR, k, kk, j));
                prop_assert_eq!(packed[at].to_bits(), stored.data()[src].to_bits());
            }
        }
    }

    /// `pack_a` ≡ its definition for `A` as stored (`ks == 1`) and
    /// transposed (`rs == 1`): a window of `rows` rows
    /// starting at `first` inside a taller operand, ragged `rows % MR`,
    /// `k` across `KC` tiles (and `k = 0`), a non-zero `base`.
    #[test]
    fn pack_a_is_its_definition(
        rows in 1usize..11,
        first in 0usize..4,
        k in 0usize..300,
        base in 0usize..7,
        transposed in 0usize..2,
        seed in 0u64..1000,
    ) {
        let m = first + rows + 1;
        let (rs, ks) = if transposed == 1 { (1, m) } else { (k, 1) };
        let stored = rand_t(&[base + m * k], seed);
        let mut packed = vec![f32::NAN; rows * k];
        microkernel::pack_a(stored.data(), base, first, rows, k, rs, ks, &mut packed);
        for r in 0..rows {
            for kk in 0..k {
                let src = base + (first + r) * rs + kk * ks;
                let at = panel_index(rows, microkernel::MR, k, kk, r);
                prop_assert_eq!(packed[at].to_bits(), stored.data()[src].to_bits());
            }
        }
    }
}

/// The arena really recycles: after a warm-up call populates the pool,
/// identical matmuls must check their packing buffers back out as hits.
#[test]
fn workspace_reuse_shows_up_in_obs_counters() {
    let _g = lock();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    workspace::clear();
    let a = rand_t(&[64, 48], 7);
    let b = rand_t(&[48, 56], 8);
    for _ in 0..4 {
        let _ = matmul(&a, &b).unwrap();
    }
    let snap = metalora_obs::counters::snapshot();
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
    assert!(
        snap.workspace_hits > 0,
        "no pool hits across repeated identical matmuls: {snap:?}"
    );
    assert!(snap.workspace_bytes_reused > 0);
}

/// The tile grid's accounting invariants: exactly one B pack per GEMM
/// that packs (each of these has more than one strip), and claims
/// covering every cell of every grid.
#[test]
fn tile_grid_counters_account_for_every_cell() {
    let _g = lock();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let (m, k, n) = (37usize, 50usize, 300usize);
    let a = rand_t(&[m, k], 11);
    let b = rand_t(&[k, n], 12);
    let gemms = 5u64;
    for _ in 0..gemms {
        let _ = matmul(&a, &b).unwrap();
    }
    let snap = metalora_obs::counters::snapshot();
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
    let grid = (m.div_ceil(microkernel::MR) * n.div_ceil(microkernel::NC)) as u64;
    assert_eq!(snap.tile_bpacks, gemms, "B must be packed exactly once per GEMM");
    assert_eq!(snap.tile_claims, gemms * grid, "claims must cover the whole grid: {snap:?}");
}

/// Concurrent checkouts must hand out disjoint buffers: each thread stamps
/// its guard with a unique pattern and must read it back intact while
/// other threads are stamping theirs. (Under the suite lock: its checkouts
/// would land in another test's exact arena tallies.)
#[test]
fn concurrent_checkouts_are_never_aliased() {
    let _g = lock();
    std::thread::scope(|s| {
        for tid in 0..6 {
            s.spawn(move || {
                for round in 0..300usize {
                    let len = 32 + (tid * 53 + round * 17) % 900;
                    let mut buf = workspace::take(len);
                    let stamp = (tid * 10_000 + round) as f32;
                    buf.fill(stamp);
                    assert!(
                        buf.iter().all(|&x| x == stamp),
                        "buffer aliased across threads"
                    );
                }
            });
        }
    });
}
