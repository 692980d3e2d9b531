//! Global kernel and memory counters.
//!
//! All counters are process-wide relaxed atomics: recording from inside a
//! parallel kernel is safe and nearly free, and the exact interleaving of
//! increments does not matter because only totals are reported.
//!
//! Two accounting caveats, by design:
//!
//! * Lowered kernels count at every layer they pass through — `conv2d`
//!   records under [`Kernel::Conv`] *and* its internal patch-matrix GEMM
//!   records under [`Kernel::Matmul`]; likewise `contract` lowers to
//!   matmul. Per-kernel rows answer "how much work did this entry point
//!   see", not a disjoint partition of machine flops.
//! * [`track_alloc`]/[`track_free`] may be toggled on mid-run, so frees
//!   of buffers allocated while disabled can drive the live-byte count
//!   negative; the snapshot clamps at zero and the peak only ratchets up.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Instrumented kernel entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense matmul family (`gemm` and its `matmul*` wrappers, rank 2 or 3).
    Matmul,
    /// `conv2d` (one GEMM over the patch matrix, packed from the image).
    Conv,
    /// Pairwise tensor contraction (`contract`).
    Contract,
    /// The general einsum evaluator.
    Einsum,
    /// KNN probe: one score GEMM + the vote (flops are the GEMM's).
    Knn,
}

const N_KERNELS: usize = 5;

impl Kernel {
    /// All kernels, in reporting order.
    pub const ALL: [Kernel; N_KERNELS] = [
        Kernel::Matmul,
        Kernel::Conv,
        Kernel::Contract,
        Kernel::Einsum,
        Kernel::Knn,
    ];

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::Conv => "conv",
            Kernel::Contract => "contract",
            Kernel::Einsum => "einsum",
            Kernel::Knn => "knn",
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

static CALLS: [AtomicU64; N_KERNELS] = [ZERO_U64; N_KERNELS];
static FLOPS: [AtomicU64; N_KERNELS] = [ZERO_U64; N_KERNELS];
static BYTES: [AtomicU64; N_KERNELS] = [ZERO_U64; N_KERNELS];

static DISPATCH_PARALLEL: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

static MATMUL_PACKED: AtomicU64 = AtomicU64::new(0);
static MATMUL_LEGACY: AtomicU64 = AtomicU64::new(0);

/// Team slots individually tracked by the tile-grid per-thread claim
/// tally; slots past this fold into the last bucket.
pub const MAX_TRACKED_SLOTS: usize = 32;

static TILE_CLAIMS: AtomicU64 = AtomicU64::new(0);
static TILE_BPACKS: AtomicU64 = AtomicU64::new(0);
static TILE_STEALS: AtomicU64 = AtomicU64::new(0);
static TILE_CLAIMS_PER_SLOT: [AtomicU64; MAX_TRACKED_SLOTS] = [ZERO_U64; MAX_TRACKED_SLOTS];

static TENSOR_BYTES_ALIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_TENSOR_BYTES: AtomicI64 = AtomicI64::new(0);

static WS_HITS: AtomicU64 = AtomicU64::new(0);
static WS_MISSES: AtomicU64 = AtomicU64::new(0);
static WS_BYTES_REUSED: AtomicU64 = AtomicU64::new(0);
static WS_POOLED_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_WS_POOLED_BYTES: AtomicI64 = AtomicI64::new(0);

static FUSED_EPILOGUES: AtomicU64 = AtomicU64::new(0);
static FUSED_ELEMS: AtomicU64 = AtomicU64::new(0);
static OUTPUT_PASSES: AtomicU64 = AtomicU64::new(0);

static SERVE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static SERVE_BATCHES: AtomicU64 = AtomicU64::new(0);
static SERVE_SEED_ROWS: AtomicU64 = AtomicU64::new(0);
static SERVE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static SERVE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static SERVE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static SERVE_MERGES: AtomicU64 = AtomicU64::new(0);

static TELEMETRY_REQUESTS: AtomicU64 = AtomicU64::new(0);
static TAIL_ATTRIBUTIONS: AtomicU64 = AtomicU64::new(0);

/// Records one invocation of `kernel` with its estimated flop count and
/// the bytes it moved (inputs + outputs).
#[inline]
pub fn record_kernel(kernel: Kernel, flops: u64, bytes: u64) {
    if !crate::enabled() {
        return;
    }
    let i = kernel as usize;
    CALLS[i].fetch_add(1, Relaxed);
    FLOPS[i].fetch_add(flops, Relaxed);
    BYTES[i].fetch_add(bytes, Relaxed);
}

/// Records one serial-vs-parallel dispatch decision of the `par` layer.
#[inline]
pub fn record_dispatch(parallel: bool) {
    if !crate::enabled() {
        return;
    }
    if parallel {
        DISPATCH_PARALLEL.fetch_add(1, Relaxed);
    } else {
        DISPATCH_SERIAL.fetch_add(1, Relaxed);
    }
}

/// Records which matmul kernel ran: the packed register-tiled one
/// (`packed == true`) or the reference row-block kernel, which runs only
/// where a test or the K1 sweep forces it.
#[inline]
pub fn record_matmul_path(packed: bool) {
    if !crate::enabled() {
        return;
    }
    if packed {
        MATMUL_PACKED.fetch_add(1, Relaxed);
    } else {
        MATMUL_LEGACY.fetch_add(1, Relaxed);
    }
}

/// Records one worker's tallies from a tile-grid GEMM team: how many
/// C-tile blocks the worker at `slot` claimed, and how many of those
/// claims were "steals" — claims whose queue index was not adjacent to
/// the worker's previous claim, i.e. another worker grabbed the
/// intervening block (a direct measure of cross-thread interleaving on
/// the shared queue).
#[inline]
pub fn record_tile_grid_worker(slot: usize, claimed: u64, steals: u64) {
    if !crate::enabled() {
        return;
    }
    TILE_CLAIMS.fetch_add(claimed, Relaxed);
    TILE_STEALS.fetch_add(steals, Relaxed);
    TILE_CLAIMS_PER_SLOT[slot.min(MAX_TRACKED_SLOTS - 1)].fetch_add(claimed, Relaxed);
}

/// Records one shared B-panel packing pass of the tile-grid GEMM. The
/// scheduler packs `B` exactly once per GEMM invocation (shared
/// read-only across the team), so this total must equal the number of
/// packed GEMM calls — redundant per-thread re-packing would show up as
/// a higher count.
#[inline]
pub fn record_tile_grid_bpack() {
    if !crate::enabled() {
        return;
    }
    TILE_BPACKS.fetch_add(1, Relaxed);
}

/// Records one workspace-arena checkout: `hit` when a pooled buffer was
/// reused (its `bytes` count toward the reuse total), `!hit` when the
/// arena had to allocate fresh.
#[inline]
pub fn record_workspace_checkout(hit: bool, bytes: usize) {
    if !crate::enabled() {
        return;
    }
    if hit {
        WS_HITS.fetch_add(1, Relaxed);
        WS_BYTES_REUSED.fetch_add(bytes as u64, Relaxed);
    } else {
        WS_MISSES.fetch_add(1, Relaxed);
    }
}

/// Adjusts the bytes idling in the workspace pool (positive when a buffer
/// is parked, negative when one is checked out or evicted), ratcheting the
/// peak-resident mark. Subject to the same toggled-mid-run caveat as
/// [`track_alloc`]/[`track_free`]; the snapshot clamps at zero.
#[inline]
pub fn record_workspace_pooled(delta_bytes: i64) {
    if !crate::enabled() {
        return;
    }
    let now = WS_POOLED_BYTES.fetch_add(delta_bytes, Relaxed) + delta_bytes;
    let mut peak = PEAK_WS_POOLED_BYTES.load(Relaxed);
    while now > peak {
        match PEAK_WS_POOLED_BYTES.compare_exchange_weak(peak, now, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Records one GEMM whose bias add was fused into the store over `elems`
/// output elements — work a separate full output pass would otherwise
/// have done.
#[inline]
pub fn record_fused_epilogue(elems: u64) {
    if !crate::enabled() {
        return;
    }
    FUSED_EPILOGUES.fetch_add(1, Relaxed);
    FUSED_ELEMS.fetch_add(elems, Relaxed);
}

/// Records one separate (unfused) bias pass over a full output — a
/// broadcast add. The fused serving path must drive this to zero;
/// `serve/tests/steady_state.rs` asserts it.
#[inline]
pub fn record_output_pass() {
    if !crate::enabled() {
        return;
    }
    OUTPUT_PASSES.fetch_add(1, Relaxed);
}

/// Records one served batch carrying `requests` requests.
#[inline]
pub fn record_serve_batch(requests: u64) {
    if !crate::enabled() {
        return;
    }
    SERVE_BATCHES.fetch_add(1, Relaxed);
    SERVE_REQUESTS.fetch_add(requests, Relaxed);
}

/// Records `rows` seed rows produced by one amortised mapping-net pass of
/// the serving batcher (all dynamic-MetaLoRA rows of a batch share one
/// forward; a per-request engine would record a pass per row).
#[inline]
pub fn record_serve_seed_rows(rows: u64) {
    if !crate::enabled() {
        return;
    }
    SERVE_SEED_ROWS.fetch_add(rows, Relaxed);
}

/// Records one merged-weight cache lookup by outcome.
#[inline]
pub fn record_serve_cache(hit: bool) {
    if !crate::enabled() {
        return;
    }
    if hit {
        SERVE_CACHE_HITS.fetch_add(1, Relaxed);
    } else {
        SERVE_CACHE_MISSES.fetch_add(1, Relaxed);
    }
}

/// Records `n` merged weights evicted from the serving cache.
#[inline]
pub fn record_serve_evictions(n: u64) {
    if !crate::enabled() {
        return;
    }
    SERVE_CACHE_EVICTIONS.fetch_add(n, Relaxed);
}

/// Records one `W + ΔW` merge computed for the serving cache.
#[inline]
pub fn record_serve_merge() {
    if !crate::enabled() {
        return;
    }
    SERVE_MERGES.fetch_add(1, Relaxed);
}

/// Records one request fully accounted by the live telemetry registry
/// (`obs::registry` + `obs::slo`) — the cheap process-wide tally the run
/// report carries even after the registry itself is reset per window.
#[inline]
pub fn record_telemetry_request() {
    if !crate::enabled() {
        return;
    }
    TELEMETRY_REQUESTS.fetch_add(1, Relaxed);
}

/// Records one tail-latency attribution sample (a request beyond the SLO
/// target whose dominant stage was identified).
#[inline]
pub fn record_tail_attribution() {
    if !crate::enabled() {
        return;
    }
    TAIL_ATTRIBUTIONS.fetch_add(1, Relaxed);
}

/// Records a tensor buffer allocation, ratcheting the peak-alive mark.
#[inline]
pub fn track_alloc(bytes: usize) {
    if !crate::enabled() {
        return;
    }
    let now = TENSOR_BYTES_ALIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    let mut peak = PEAK_TENSOR_BYTES.load(Relaxed);
    while now > peak {
        match PEAK_TENSOR_BYTES.compare_exchange_weak(peak, now, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Records a tensor buffer release.
#[inline]
pub fn track_free(bytes: usize) {
    if !crate::enabled() {
        return;
    }
    TENSOR_BYTES_ALIVE.fetch_sub(bytes as i64, Relaxed);
}

/// One row of the per-kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name (see [`Kernel::name`]).
    pub kernel: &'static str,
    /// Invocation count.
    pub calls: u64,
    /// Estimated floating-point operations.
    pub flops: u64,
    /// Bytes moved (inputs + outputs, 4 bytes per element).
    pub bytes_moved: u64,
}

/// A consistent-enough copy of every counter (individually atomic reads;
/// a concurrent recorder may land between rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Per-kernel stats in [`Kernel::ALL`] order.
    pub kernels: Vec<KernelStat>,
    /// `par_row_blocks` calls that spawned a thread team.
    pub dispatch_parallel: u64,
    /// `par_row_blocks` calls that stayed on the calling thread.
    pub dispatch_serial: u64,
    /// Matmuls that ran the packed register-tiled microkernel.
    pub matmul_packed: u64,
    /// Matmuls that ran the reference row-block kernel — only when forced
    /// (tests, the K1 sweep), so a production run reads 0. The name is the
    /// one run logs and the repo benchmark read.
    pub matmul_legacy: u64,
    /// C-tile blocks claimed from tile-grid GEMM queues, all workers.
    pub tile_claims: u64,
    /// Shared B-panel packing passes (exactly one per packed GEMM).
    pub tile_bpacks: u64,
    /// Tile claims that interleaved with another worker (see
    /// [`record_tile_grid_worker`]).
    pub tile_steals: u64,
    /// Per-team-slot claim totals, trailing zero slots trimmed (empty
    /// when no tile-grid GEMM ran).
    pub tile_claims_per_slot: Vec<u64>,
    /// Tensor bytes currently alive (clamped at zero).
    pub tensor_bytes_alive: u64,
    /// High-water mark of tensor bytes alive.
    pub peak_tensor_bytes: u64,
    /// Workspace-arena checkouts satisfied from the pool.
    pub workspace_hits: u64,
    /// Workspace-arena checkouts that had to allocate fresh.
    pub workspace_misses: u64,
    /// Bytes handed out from recycled workspace buffers.
    pub workspace_bytes_reused: u64,
    /// Bytes currently idling in the workspace pool (clamped at zero).
    pub workspace_pooled_bytes: u64,
    /// High-water mark of bytes idling in the workspace pool.
    pub peak_workspace_pooled_bytes: u64,
    /// GEMMs whose bias add was fused into the store.
    pub fused_epilogues: u64,
    /// Output elements the fused epilogues covered.
    pub fused_elems: u64,
    /// Separate (unfused) full bias passes over an output.
    pub output_passes: u64,
    /// Always 0: the static-plan layer is gone and nothing records into
    /// this field. It survives only because the frozen `benchmark/` reads
    /// it by name for its `serve.engine.plans_built` metric; the next
    /// benchmark issue drops that metric and this field together.
    pub plans_built: u64,
    /// Requests served by the serving engine.
    pub serve_requests: u64,
    /// Batches the serving engine executed.
    pub serve_batches: u64,
    /// Seed rows produced by amortised mapping-net passes.
    pub serve_seed_rows: u64,
    /// Merged-weight cache lookups that hit.
    pub serve_cache_hits: u64,
    /// Merged-weight cache lookups that missed.
    pub serve_cache_misses: u64,
    /// Merged weights evicted from the serving cache.
    pub serve_cache_evictions: u64,
    /// `W + ΔW` merges computed for the serving cache.
    pub serve_merges: u64,
    /// Requests accounted by the live telemetry registry.
    pub telemetry_requests: u64,
    /// Tail-latency attribution samples recorded.
    pub tail_attributions: u64,
}

/// Snapshots every counter.
pub fn snapshot() -> CounterSnapshot {
    let kernels = Kernel::ALL
        .iter()
        .map(|&k| {
            let i = k as usize;
            KernelStat {
                kernel: k.name(),
                calls: CALLS[i].load(Relaxed),
                flops: FLOPS[i].load(Relaxed),
                bytes_moved: BYTES[i].load(Relaxed),
            }
        })
        .collect();
    let mut tile_claims_per_slot: Vec<u64> =
        TILE_CLAIMS_PER_SLOT.iter().map(|c| c.load(Relaxed)).collect();
    while tile_claims_per_slot.last() == Some(&0) {
        tile_claims_per_slot.pop();
    }
    CounterSnapshot {
        kernels,
        dispatch_parallel: DISPATCH_PARALLEL.load(Relaxed),
        dispatch_serial: DISPATCH_SERIAL.load(Relaxed),
        matmul_packed: MATMUL_PACKED.load(Relaxed),
        matmul_legacy: MATMUL_LEGACY.load(Relaxed),
        tile_claims: TILE_CLAIMS.load(Relaxed),
        tile_bpacks: TILE_BPACKS.load(Relaxed),
        tile_steals: TILE_STEALS.load(Relaxed),
        tile_claims_per_slot,
        tensor_bytes_alive: TENSOR_BYTES_ALIVE.load(Relaxed).max(0) as u64,
        peak_tensor_bytes: PEAK_TENSOR_BYTES.load(Relaxed).max(0) as u64,
        workspace_hits: WS_HITS.load(Relaxed),
        workspace_misses: WS_MISSES.load(Relaxed),
        workspace_bytes_reused: WS_BYTES_REUSED.load(Relaxed),
        workspace_pooled_bytes: WS_POOLED_BYTES.load(Relaxed).max(0) as u64,
        peak_workspace_pooled_bytes: PEAK_WS_POOLED_BYTES.load(Relaxed).max(0) as u64,
        fused_epilogues: FUSED_EPILOGUES.load(Relaxed),
        fused_elems: FUSED_ELEMS.load(Relaxed),
        output_passes: OUTPUT_PASSES.load(Relaxed),
        plans_built: 0,
        serve_requests: SERVE_REQUESTS.load(Relaxed),
        serve_batches: SERVE_BATCHES.load(Relaxed),
        serve_seed_rows: SERVE_SEED_ROWS.load(Relaxed),
        serve_cache_hits: SERVE_CACHE_HITS.load(Relaxed),
        serve_cache_misses: SERVE_CACHE_MISSES.load(Relaxed),
        serve_cache_evictions: SERVE_CACHE_EVICTIONS.load(Relaxed),
        serve_merges: SERVE_MERGES.load(Relaxed),
        telemetry_requests: TELEMETRY_REQUESTS.load(Relaxed),
        tail_attributions: TAIL_ATTRIBUTIONS.load(Relaxed),
    }
}

/// Zeroes every counter.
pub fn reset() {
    for i in 0..N_KERNELS {
        CALLS[i].store(0, Relaxed);
        FLOPS[i].store(0, Relaxed);
        BYTES[i].store(0, Relaxed);
    }
    DISPATCH_PARALLEL.store(0, Relaxed);
    DISPATCH_SERIAL.store(0, Relaxed);
    MATMUL_PACKED.store(0, Relaxed);
    MATMUL_LEGACY.store(0, Relaxed);
    TILE_CLAIMS.store(0, Relaxed);
    TILE_BPACKS.store(0, Relaxed);
    TILE_STEALS.store(0, Relaxed);
    for c in &TILE_CLAIMS_PER_SLOT {
        c.store(0, Relaxed);
    }
    TENSOR_BYTES_ALIVE.store(0, Relaxed);
    PEAK_TENSOR_BYTES.store(0, Relaxed);
    WS_HITS.store(0, Relaxed);
    WS_MISSES.store(0, Relaxed);
    WS_BYTES_REUSED.store(0, Relaxed);
    WS_POOLED_BYTES.store(0, Relaxed);
    PEAK_WS_POOLED_BYTES.store(0, Relaxed);
    FUSED_EPILOGUES.store(0, Relaxed);
    FUSED_ELEMS.store(0, Relaxed);
    OUTPUT_PASSES.store(0, Relaxed);
    SERVE_REQUESTS.store(0, Relaxed);
    SERVE_BATCHES.store(0, Relaxed);
    SERVE_SEED_ROWS.store(0, Relaxed);
    SERVE_CACHE_HITS.store(0, Relaxed);
    SERVE_CACHE_MISSES.store(0, Relaxed);
    SERVE_CACHE_EVICTIONS.store(0, Relaxed);
    SERVE_MERGES.store(0, Relaxed);
    TELEMETRY_REQUESTS.store(0, Relaxed);
    TAIL_ATTRIBUTIONS.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn kernel_counters_accumulate() {
        let _g = lock();
        record_kernel(Kernel::Matmul, 100, 8);
        record_kernel(Kernel::Matmul, 50, 4);
        record_kernel(Kernel::Knn, 7, 2);
        let snap = snapshot();
        let mm = &snap.kernels[Kernel::Matmul as usize];
        assert_eq!((mm.calls, mm.flops, mm.bytes_moved), (2, 150, 12));
        let knn = &snap.kernels[Kernel::Knn as usize];
        assert_eq!((knn.calls, knn.flops, knn.bytes_moved), (1, 7, 2));
        assert_eq!(snap.kernels[Kernel::Conv as usize].calls, 0);
    }

    #[test]
    fn dispatch_tally() {
        let _g = lock();
        record_dispatch(true);
        record_dispatch(false);
        record_dispatch(false);
        let snap = snapshot();
        assert_eq!(snap.dispatch_parallel, 1);
        assert_eq!(snap.dispatch_serial, 2);
    }

    #[test]
    fn matmul_path_tally() {
        let _g = lock();
        record_matmul_path(true);
        record_matmul_path(true);
        record_matmul_path(false);
        let snap = snapshot();
        assert_eq!(snap.matmul_packed, 2);
        assert_eq!(snap.matmul_legacy, 1);
        crate::set_enabled(false);
        record_matmul_path(true);
        crate::set_enabled(true);
        assert_eq!(snapshot().matmul_packed, 2);
    }

    #[test]
    fn tile_grid_tallies_accumulate_per_slot() {
        let _g = lock();
        record_tile_grid_worker(0, 10, 0);
        record_tile_grid_worker(1, 6, 2);
        record_tile_grid_worker(1, 4, 1);
        record_tile_grid_bpack();
        let snap = snapshot();
        assert_eq!(snap.tile_claims, 20);
        assert_eq!(snap.tile_steals, 3);
        assert_eq!(snap.tile_bpacks, 1);
        assert_eq!(snap.tile_claims_per_slot, vec![10, 10]);
        // Out-of-range slots fold into the last tracked bucket instead of
        // panicking.
        record_tile_grid_worker(MAX_TRACKED_SLOTS + 5, 1, 0);
        let snap = snapshot();
        assert_eq!(snap.tile_claims_per_slot.len(), MAX_TRACKED_SLOTS);
        assert_eq!(*snap.tile_claims_per_slot.last().unwrap(), 1);
        crate::set_enabled(false);
        record_tile_grid_worker(0, 99, 99);
        record_tile_grid_bpack();
        crate::set_enabled(true);
        assert_eq!(snapshot().tile_claims, 21);
        assert_eq!(snapshot().tile_bpacks, 1);
    }

    #[test]
    fn peak_ratchets_and_alive_clamps() {
        let _g = lock();
        track_alloc(100);
        track_alloc(50);
        track_free(120);
        track_alloc(10);
        let snap = snapshot();
        assert_eq!(snap.peak_tensor_bytes, 150);
        assert_eq!(snap.tensor_bytes_alive, 40);
        // Frees of untracked buffers cannot push the reported value below 0.
        track_free(1_000_000);
        assert_eq!(snapshot().tensor_bytes_alive, 0);
        assert_eq!(snapshot().peak_tensor_bytes, 150);
    }

    #[test]
    fn workspace_counters_accumulate_and_clamp() {
        let _g = lock();
        record_workspace_checkout(false, 256);
        record_workspace_checkout(true, 128);
        record_workspace_checkout(true, 64);
        record_workspace_pooled(512);
        record_workspace_pooled(-128);
        let snap = snapshot();
        assert_eq!(snap.workspace_hits, 2);
        assert_eq!(snap.workspace_misses, 1);
        assert_eq!(snap.workspace_bytes_reused, 192);
        assert_eq!(snap.workspace_pooled_bytes, 384);
        assert_eq!(snap.peak_workspace_pooled_bytes, 512);
        // Evictions past zero clamp, and the peak only ratchets.
        record_workspace_pooled(-1_000_000);
        assert_eq!(snapshot().workspace_pooled_bytes, 0);
        assert_eq!(snapshot().peak_workspace_pooled_bytes, 512);
    }

    #[test]
    fn serve_counters_accumulate_and_respect_toggle() {
        let _g = lock();
        record_serve_batch(3);
        record_serve_batch(1);
        record_serve_seed_rows(5);
        record_serve_cache(true);
        record_serve_cache(false);
        record_serve_cache(false);
        record_serve_evictions(2);
        record_serve_merge();
        let snap = snapshot();
        assert_eq!(snap.serve_batches, 2);
        assert_eq!(snap.serve_requests, 4);
        assert_eq!(snap.serve_seed_rows, 5);
        assert_eq!(snap.serve_cache_hits, 1);
        assert_eq!(snap.serve_cache_misses, 2);
        assert_eq!(snap.serve_cache_evictions, 2);
        assert_eq!(snap.serve_merges, 1);
        crate::set_enabled(false);
        record_serve_batch(9);
        record_serve_cache(true);
        record_serve_merge();
        crate::set_enabled(true);
        assert_eq!(snapshot().serve_requests, 4);
        assert_eq!(snapshot().serve_merges, 1);
    }

    #[test]
    fn telemetry_counters_accumulate_and_respect_toggle() {
        let _g = lock();
        record_telemetry_request();
        record_telemetry_request();
        record_tail_attribution();
        let snap = snapshot();
        assert_eq!(snap.telemetry_requests, 2);
        assert_eq!(snap.tail_attributions, 1);
        crate::set_enabled(false);
        record_telemetry_request();
        record_tail_attribution();
        crate::set_enabled(true);
        assert_eq!(snapshot().telemetry_requests, 2);
        assert_eq!(snapshot().tail_attributions, 1);
    }

    #[test]
    fn fusion_counters_accumulate_and_respect_toggle() {
        let _g = lock();
        record_fused_epilogue(64);
        record_fused_epilogue(36);
        record_output_pass();
        let snap = snapshot();
        assert_eq!(snap.fused_epilogues, 2);
        assert_eq!(snap.fused_elems, 100);
        assert_eq!(snap.output_passes, 1);
        crate::set_enabled(false);
        record_fused_epilogue(1_000);
        record_output_pass();
        crate::set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.fused_elems, 100);
        assert_eq!(snap.output_passes, 1);
    }

    #[test]
    fn peak_is_ratcheted_concurrently() {
        let _g = lock();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        track_alloc(8);
                        track_free(8);
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.tensor_bytes_alive, 0);
        assert!(snap.peak_tensor_bytes >= 8);
    }
}
