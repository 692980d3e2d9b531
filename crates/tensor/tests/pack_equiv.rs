//! Property tests asserting the packed register-tiled microkernel is
//! **bitwise identical** to the reference kernel under every wrapper name,
//! at rank 2 and rank 3, across ragged shapes (m, n, k not multiples of
//! MR/NR/KC, including 1×n and m×1), and that the workspace arena actually
//! reuses buffers without ever aliasing concurrent checkouts. (The full
//! descriptor space — layouts × batching × bias — is swept by
//! `gemm_equiv.rs`.)
//!
//! Each kernel, worker count and parallel threshold is forced through the
//! scoped thread-local seams ([`with_kernel_path`],
//! [`par::with_num_threads`], [`par::with_par_threshold`]); the suite
//! lock remains for what is still process-wide — the obs counters the
//! accounting tests read.
//!
//! The tile-grid scheduler gets its own sweep here: packed × parallel at
//! worker counts {1, 2, 3, 4, 7} over ragged shapes (including ones that
//! cross the NC column-group boundary), interleaved with arena reuse, must
//! stay bitwise-equal to the reference serial run, and the obs tallies must
//! show exactly one B pack per GEMM with claims covering the whole grid.
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
    gemm, matmul, matmul_transpose_a, matmul_transpose_b, microkernel, simd_level,
    with_kernel_path, GemmDesc, KernelPath, Layout, SimdLevel,
};
use metalora_tensor::{init, par, workspace, Tensor};
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

/// Runs `f` on the reference kernel with one worker, then on the packed
/// kernel at each of `threads`, and asserts every run agrees to the bit.
fn assert_thread_sweep(threads: &[usize], f: impl Fn() -> Tensor) {
    let _g = lock();
    let reference = par::with_num_threads(1, || with_kernel_path(KernelPath::Reference, &f));
    for &t in threads {
        let out = par::with_par_threshold(0, || {
            par::with_num_threads(t, || with_kernel_path(KernelPath::Packed, &f))
        });
        assert!(bits_eq(&reference, &out), "packed at {t} workers diverged");
    }
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    let mut r = init::rng(seed);
    init::uniform(dims, -1.0, 1.0, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_packed_bitwise(
        m in 1usize..48,
        k in 0usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_pack_equiv(|| matmul(&a, &b).unwrap());

        let at = rand_t(&[k, m], seed + 2);
        assert_pack_equiv(|| matmul_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[n, k], seed + 3);
        assert_pack_equiv(|| matmul_transpose_b(&a, &bt).unwrap());

        let x = rand_t(&[k], seed + 4);
        assert_pack_equiv(|| gemm(&GemmDesc::new(&a, &x)).unwrap());
    }

    #[test]
    fn matmul_packed_spans_multiple_kc_tiles(
        m in 1usize..10,
        k in 100usize..300,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // k crosses the KC=128 tile boundary (often several times): the
        // accumulator spill/reload between tiles must not move a bit.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_pack_equiv(|| matmul(&a, &b).unwrap());
        let bt = rand_t(&[n, k], seed + 2);
        assert_pack_equiv(|| matmul_transpose_b(&a, &bt).unwrap());
    }

    #[test]
    fn matmul_packed_degenerate_shapes(n in 1usize..64, seed in 0u64..1000) {
        // 1×n: a single output row, thinner than the MR tile.
        let a = rand_t(&[1, n], seed);
        let b = rand_t(&[n, n], seed + 1);
        assert_pack_equiv(|| matmul(&a, &b).unwrap());
        // m×1: a single output column — every column tile is the ragged
        // edge, same shape matvec takes.
        let c = rand_t(&[n, n], seed + 2);
        let d = rand_t(&[n, 1], seed + 3);
        assert_pack_equiv(|| matmul(&c, &d).unwrap());
        // Empty inner dimension: all-zero output from both paths.
        let e = Tensor::zeros(&[n, 0]);
        let f = Tensor::zeros(&[0, n]);
        assert_pack_equiv(|| matmul(&e, &f).unwrap());
    }

    #[test]
    fn bmm_family_packed_bitwise(
        bs in 1usize..5,
        m in 1usize..14,
        k in 0usize..14,
        n in 1usize..14,
        seed in 0u64..1000,
    ) {
        // Each layout at rank 3: one product per batch slice.
        let a = rand_t(&[bs, m, k], seed);
        let b = rand_t(&[bs, k, n], seed + 1);
        assert_pack_equiv(|| matmul(&a, &b).unwrap());

        let at = rand_t(&[bs, k, m], seed + 2);
        assert_pack_equiv(|| matmul_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[bs, n, k], seed + 3);
        assert_pack_equiv(|| matmul_transpose_b(&a, &bt).unwrap());
    }

    #[test]
    fn packed_composes_with_row_block_parallelism(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Thread splits can cut through an MR row tile; per-element k-order
        // is independent of the row partition, so packed ∥ must equal
        // reference serial bit-for-bit.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_thread_sweep(&[2, 7, 64], || matmul(&a, &b).unwrap());
    }

    #[test]
    fn tile_grid_thread_sweep_is_bitwise(
        m in 1usize..60,
        k in 1usize..150,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        // The tile grid hands out (strip, column-group) cells in whatever
        // order the team claims them; no worker count may move a bit.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_thread_sweep(&[1, 2, 3, 4, 7], || matmul(&a, &b).unwrap());
    }

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
        assert_thread_sweep(&[2, 3, 7], || matmul(&a, &b).unwrap());
    }

    #[test]
    fn tile_grid_bmm_thread_sweep_is_bitwise(
        bs in 1usize..4,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Rank-3 products share the grid (strips never straddle batches).
        let a = rand_t(&[bs, m, k], seed);
        let b = rand_t(&[bs, k, n], seed + 1);
        let at = rand_t(&[bs, k, m], seed + 2);
        let bt = rand_t(&[bs, n, k], seed + 3);
        let threads = [1, 2, 3, 4, 7];
        assert_thread_sweep(&threads, || matmul(&a, &b).unwrap());
        assert_thread_sweep(&threads, || matmul_transpose_a(&at, &b).unwrap());
        assert_thread_sweep(&threads, || matmul_transpose_b(&a, &bt).unwrap());
    }

    #[test]
    fn tile_grid_survives_arena_reuse_interleaving(
        m in 1usize..30,
        k in 1usize..60,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        // Alternate thread counts call-to-call on the same shapes: the
        // pooled A/B panels from a 7-worker run are recycled into a
        // 2-worker run (and vice versa) and must never leak stale data.
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_thread_sweep(&[7, 1, 4, 2, 7, 3, 1, 2], || matmul(&a, &b).unwrap());
    }
}

/// `m` ∈ 1..=17 is every strip height, twice full plus one; `n` sits
/// around one and two panels (the masked ragged tile alone, a single
/// panel, a pair, a pair plus ragged columns) and past the `NC` column
/// group; `k` is empty, one step, and around the `KC` tile. Every layout,
/// at 1 and 4 workers, packed at every SIMD level the host has ≡ the
/// reference kernel.
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
                    let want = par::with_num_threads(1, || {
                        with_kernel_path(KernelPath::Reference, || gemm(&desc).unwrap())
                    });
                    for &level in &levels {
                        for threads in [1, 4] {
                            let got = par::with_par_threshold(0, || {
                                par::with_num_threads(threads, || {
                                    with_kernel_path(level, || {
                                        with_kernel_path(KernelPath::Packed, || gemm(&desc).unwrap())
                                    })
                                })
                            });
                            assert!(
                                bits_eq(&want, &got),
                                "{level:?}@{threads}: m={m} n={n} k={k} {a_layout:?}{b_layout:?}"
                            );
                        }
                    }
                }
            }
        }
    }
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

/// The scheduler's accounting invariants: exactly one B pack per packed
/// GEMM, claims covering every cell of every grid, and the per-slot
/// tallies summing to the total.
#[test]
fn tile_grid_counters_account_for_every_cell() {
    let _g = lock();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let (m, k, n) = (37usize, 50usize, 300usize);
    let a = rand_t(&[m, k], 11);
    let b = rand_t(&[k, n], 12);
    let gemms = 5u64;
    par::with_par_threshold(0, || {
        par::with_num_threads(3, || {
            for _ in 0..gemms {
                let _ = matmul(&a, &b).unwrap();
            }
        })
    });
    let snap = metalora_obs::counters::snapshot();
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
    let grid = (m.div_ceil(microkernel::MR) * n.div_ceil(microkernel::NC)) as u64;
    assert_eq!(snap.tile_bpacks, gemms, "B must be packed exactly once per GEMM");
    assert_eq!(snap.tile_claims, gemms * grid, "claims must cover the whole grid: {snap:?}");
    let per_slot: u64 = snap.tile_claims_per_slot.iter().sum();
    assert_eq!(per_slot, snap.tile_claims, "per-slot tallies must sum to the total");
}

/// Concurrent checkouts must hand out disjoint buffers: each thread stamps
/// its guard with a unique pattern and must read it back intact while
/// other threads are stamping theirs.
#[test]
fn concurrent_checkouts_are_never_aliased() {
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
