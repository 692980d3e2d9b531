//! Global kernel and memory counters.
//!
//! Every counter is declared once, in the `counters!` list below, by its
//! run-log name (`group`, `name`) and its storage. Reset, the run log's
//! `counters` object and the summary table all walk that list; a
//! declaration's `=> field` puts the counter in [`CounterSnapshot`], the
//! typed view for readers outside this crate that want fields.
//!
//! All counters are process-wide relaxed atomics: recording from any
//! thread is safe and nearly free, and the exact interleaving of
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
//!   negative; reads clamp at zero and the peak only ratchets up.

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

impl Kernel {
    /// All kernels, in reporting order.
    pub const ALL: [Kernel; 5] = [
        Kernel::Matmul,
        Kernel::Conv,
        Kernel::Contract,
        Kernel::Einsum,
        Kernel::Knn,
    ];

    /// Stable lowercase name: the kernel's group in the run log.
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::Conv => "conv",
            Kernel::Contract => "contract",
            Kernel::Einsum => "einsum",
            Kernel::Knn => "knn",
        }
    }

    /// The kernel's row of the typed view.
    fn stat(self) -> KernelStat {
        let [calls, flops, bytes] = self.totals();
        KernelStat {
            kernel: self.name(),
            calls: calls.get(),
            flops: flops.get(),
            bytes_moved: bytes.get(),
        }
    }

    /// The kernel's calls, flops and bytes-moved totals.
    fn totals(self) -> [&'static Total; 3] {
        match self {
            Kernel::Matmul => [&MATMUL_CALLS, &MATMUL_FLOPS, &MATMUL_BYTES],
            Kernel::Conv => [&CONV_CALLS, &CONV_FLOPS, &CONV_BYTES],
            Kernel::Contract => [&CONTRACT_CALLS, &CONTRACT_FLOPS, &CONTRACT_BYTES],
            Kernel::Einsum => [&EINSUM_CALLS, &EINSUM_FLOPS, &EINSUM_BYTES],
            Kernel::Knn => [&KNN_CALLS, &KNN_FLOPS, &KNN_BYTES],
        }
    }
}

/// A running total.
pub struct Total(AtomicU64);

impl Total {
    const fn new() -> Self {
        Total(AtomicU64::new(0))
    }

    /// Adds `n` while instrumentation is on.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Relaxed);
        }
    }

    fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A level that rises and falls; reads clamp at zero.
struct Level(AtomicI64);

impl Level {
    const fn new() -> Self {
        Level(AtomicI64::new(0))
    }
}

/// Storage the list can read and zero.
trait Cell: Sync {
    fn read(&self) -> u64;
    fn zero(&self);
}

impl Cell for Total {
    fn read(&self) -> u64 {
        self.get()
    }
    fn zero(&self) {
        self.0.store(0, Relaxed);
    }
}

impl Cell for Level {
    fn read(&self) -> u64 {
        self.0.load(Relaxed).max(0) as u64
    }
    fn zero(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Declares each counter once: its static, its entry in [`LIST`] and,
/// after `=>`, the [`CounterSnapshot`] field that reads it.
macro_rules! counters {
    ($($(#[$doc:meta])* $vis:vis $id:ident: $cell:ident = ($group:expr, $name:literal)
        $(=> $field:ident: $ty:ty)?;)+) => {
        $($(#[$doc])* $vis static $id: $cell = $cell::new();)+

        /// Every counter in reporting order: run-log group, name, storage.
        static LIST: &[(&str, &str, &dyn Cell)] = &[$(($group, $name, &$id)),+];

        /// A typed view of the counters that code outside this crate reads
        /// by field (the repo benchmark, K1 and the kernel suites); each
        /// field reads the counter declared with it. Every counter is in
        /// the run log.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct CounterSnapshot {
            /// Per-kernel stats in [`Kernel::ALL`] order.
            pub kernels: Vec<KernelStat>,
            /// Always 0: the static-plan layer is gone and nothing records
            /// into this field. It survives only because the frozen
            /// `benchmark/` reads it by name for its
            /// `serve.engine.plans_built` metric; the next benchmark change
            /// drops that metric and this field together.
            pub plans_built: u64,
            /// Always 0: kernels run on the calling thread, so no call
            /// starts a thread team. Kept for the frozen `benchmark/`'s
            /// `tensor.par.parallel_dispatches`, like [`Self::plans_built`].
            pub dispatch_parallel: u64,
            /// Always 0, for the same reason and reader
            /// (`tensor.par.serial_dispatches`).
            pub dispatch_serial: u64,
            $($(pub $field: $ty,)?)+
        }

        /// Snapshots the typed view.
        pub fn snapshot() -> CounterSnapshot {
            CounterSnapshot {
                kernels: Kernel::ALL.iter().map(|&k| k.stat()).collect(),
                plans_built: 0,
                dispatch_parallel: 0,
                dispatch_serial: 0,
                $($($field: $id.get(),)?)+
            }
        }
    };
}

counters! {
    MATMUL_CALLS: Total = (Kernel::Matmul.name(), "calls");
    MATMUL_FLOPS: Total = (Kernel::Matmul.name(), "flops");
    MATMUL_BYTES: Total = (Kernel::Matmul.name(), "bytes_moved");
    CONV_CALLS: Total = (Kernel::Conv.name(), "calls");
    CONV_FLOPS: Total = (Kernel::Conv.name(), "flops");
    CONV_BYTES: Total = (Kernel::Conv.name(), "bytes_moved");
    CONTRACT_CALLS: Total = (Kernel::Contract.name(), "calls");
    CONTRACT_FLOPS: Total = (Kernel::Contract.name(), "flops");
    CONTRACT_BYTES: Total = (Kernel::Contract.name(), "bytes_moved");
    EINSUM_CALLS: Total = (Kernel::Einsum.name(), "calls");
    EINSUM_FLOPS: Total = (Kernel::Einsum.name(), "flops");
    EINSUM_BYTES: Total = (Kernel::Einsum.name(), "bytes_moved");
    KNN_CALLS: Total = (Kernel::Knn.name(), "calls");
    KNN_FLOPS: Total = (Kernel::Knn.name(), "flops");
    KNN_BYTES: Total = (Kernel::Knn.name(), "bytes_moved");
    /// Matmuls that ran the packed register-tiled microkernel.
    pub MATMUL_PACKED: Total = ("dispatch", "matmul_packed") => matmul_packed: u64;
    /// Matmuls that ran the reference kernel — only when forced (tests,
    /// K1's oracle run), so a production run reads 0.
    pub MATMUL_LEGACY: Total = ("dispatch", "matmul_legacy") => matmul_legacy: u64;
    /// Cells (`MR`-row strip × `NC`-column group) the packed GEMM computed.
    pub TILE_CLAIMS: Total = ("tile_grid", "claims") => tile_claims: u64;
    /// B-panel packing passes. A GEMM packs `B` at most once, and not at
    /// all for a one-strip product that reads `B` in place, so this is at
    /// most the packed GEMM calls.
    pub TILE_BPACKS: Total = ("tile_grid", "bpacks") => tile_bpacks: u64;
    /// High-water mark of tensor bytes alive.
    PEAK_TENSOR_BYTES: Total = ("memory", "peak_tensor_bytes") => peak_tensor_bytes: u64;
    /// Tensor bytes currently alive.
    TENSOR_BYTES_ALIVE: Level = ("memory", "tensor_bytes_alive");
    /// Workspace-arena checkouts satisfied from the pool.
    pub WORKSPACE_HITS: Total = ("workspace", "hits") => workspace_hits: u64;
    /// Workspace-arena checkouts that had to allocate fresh.
    pub WORKSPACE_MISSES: Total = ("workspace", "misses") => workspace_misses: u64;
    /// Bytes handed out from recycled workspace buffers.
    pub WORKSPACE_BYTES_REUSED: Total = ("workspace", "bytes_reused")
        => workspace_bytes_reused: u64;
    /// Bytes currently idling in the workspace pool.
    WORKSPACE_POOLED_BYTES: Level = ("workspace", "pooled_bytes");
    /// High-water mark of bytes idling in the workspace pool.
    PEAK_WORKSPACE_POOLED_BYTES: Total = ("workspace", "peak_pooled_bytes")
        => peak_workspace_pooled_bytes: u64;
    /// Seed rows produced by amortised mapping-net passes of the serving
    /// batcher (all dynamic-MetaLoRA rows of a batch share one forward).
    pub SERVE_SEED_ROWS: Total = ("serve", "seed_rows") => serve_seed_rows: u64;
    /// `W + ΔW` merges computed for the serving cache.
    pub SERVE_MERGES: Total = ("serve", "merges") => serve_merges: u64;
    /// GEMMs whose bias add was fused into the store.
    pub FUSED_EPILOGUES: Total = ("fusion", "fused_epilogues") => fused_epilogues: u64;
    /// Output elements the fused epilogues covered.
    pub FUSED_ELEMS: Total = ("fusion", "fused_elems");
    /// Separate (unfused) bias passes over a full output. The fused
    /// serving path must keep this at zero.
    pub OUTPUT_PASSES: Total = ("fusion", "output_passes") => output_passes: u64;
}

/// Records one invocation of `kernel` with its estimated flop count and
/// the bytes it moved (inputs + outputs).
#[inline]
pub fn record_kernel(kernel: Kernel, flops: u64, bytes: u64) {
    if !crate::enabled() {
        return;
    }
    let [calls, f, b] = kernel.totals();
    calls.0.fetch_add(1, Relaxed);
    f.0.fetch_add(flops, Relaxed);
    b.0.fetch_add(bytes, Relaxed);
}

/// Moves `level` by `delta` and ratchets `peak` up to the new level.
#[inline]
fn ratchet(level: &Level, peak: &Total, delta: i64) {
    let now = level.0.fetch_add(delta, Relaxed) + delta;
    if now > 0 {
        peak.0.fetch_max(now as u64, Relaxed);
    }
}

/// Adjusts the bytes idling in the workspace pool (positive when a buffer
/// is parked, negative when one is checked out or evicted), ratcheting the
/// peak-resident mark. Subject to the same toggled-mid-run caveat as
/// [`track_alloc`]/[`track_free`].
#[inline]
pub fn record_workspace_pooled(delta_bytes: i64) {
    if crate::enabled() {
        ratchet(&WORKSPACE_POOLED_BYTES, &PEAK_WORKSPACE_POOLED_BYTES, delta_bytes);
    }
}

/// Records a tensor buffer allocation, ratcheting the peak-alive mark.
#[inline]
pub fn track_alloc(bytes: usize) {
    if crate::enabled() {
        ratchet(&TENSOR_BYTES_ALIVE, &PEAK_TENSOR_BYTES, bytes as i64);
    }
}

/// Records a tensor buffer release.
#[inline]
pub fn track_free(bytes: usize) {
    if crate::enabled() {
        TENSOR_BYTES_ALIVE.0.fetch_sub(bytes as i64, Relaxed);
    }
}

/// One counter of the list, as read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    pub group: &'static str,
    pub name: &'static str,
    pub value: u64,
}

/// Reads every counter of the list, in list order (individually atomic
/// reads; a concurrent recorder may land between them).
pub(crate) fn read_all() -> Vec<Reading> {
    LIST.iter()
        .map(|&(group, name, cell)| Reading { group, name, value: cell.read() })
        .collect()
}

/// Zeroes every counter.
pub fn reset() {
    for (_, _, cell) in LIST {
        cell.zero();
    }
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

    /// Adds `n` while recording is on and more while it is off.
    fn add_on_then_off(total: &Total, n: u64) {
        total.add(n);
        crate::set_enabled(false);
        total.add(1_000);
        crate::set_enabled(true);
    }

    #[test]
    fn dispatch_tally() {
        // Nothing starts a thread team, so the dispatch fields read 0
        // however much the kernels record.
        let _g = lock();
        record_kernel(Kernel::Matmul, 100, 8);
        MATMUL_PACKED.add(1);
        TILE_CLAIMS.add(4);
        let snap = snapshot();
        assert_eq!((snap.dispatch_parallel, snap.dispatch_serial), (0, 0));
    }

    #[test]
    fn matmul_path_tally() {
        let _g = lock();
        add_on_then_off(&MATMUL_PACKED, 2);
        add_on_then_off(&MATMUL_LEGACY, 1);
        let snap = snapshot();
        assert_eq!((snap.matmul_packed, snap.matmul_legacy), (2, 1));
    }

    #[test]
    fn serve_counters_accumulate_and_respect_toggle() {
        let _g = lock();
        add_on_then_off(&SERVE_SEED_ROWS, 5);
        add_on_then_off(&SERVE_MERGES, 1);
        let snap = snapshot();
        assert_eq!((snap.serve_seed_rows, snap.serve_merges), (5, 1));
    }

    #[test]
    fn fusion_counters_accumulate_and_respect_toggle() {
        let _g = lock();
        add_on_then_off(&FUSED_EPILOGUES, 2);
        add_on_then_off(&FUSED_ELEMS, 100);
        add_on_then_off(&OUTPUT_PASSES, 1);
        let snap = snapshot();
        assert_eq!((snap.fused_epilogues, snap.output_passes), (2, 1));
        assert_eq!(FUSED_ELEMS.get(), 100);
    }

    #[test]
    fn tile_grid_tallies_accumulate_and_respect_toggle() {
        let _g = lock();
        add_on_then_off(&TILE_CLAIMS, 20);
        add_on_then_off(&TILE_BPACKS, 1);
        let snap = snapshot();
        assert_eq!((snap.tile_claims, snap.tile_bpacks), (20, 1));
    }

    #[test]
    fn peak_ratchets_and_alive_clamps() {
        let _g = lock();
        track_alloc(100);
        track_alloc(50);
        track_free(120);
        track_alloc(10);
        assert_eq!(snapshot().peak_tensor_bytes, 150);
        assert_eq!(TENSOR_BYTES_ALIVE.read(), 40);
        // Frees of untracked buffers cannot push the reported value below 0.
        track_free(1_000_000);
        assert_eq!(TENSOR_BYTES_ALIVE.read(), 0);
        assert_eq!(snapshot().peak_tensor_bytes, 150);
    }

    #[test]
    fn workspace_counters_accumulate_and_clamp() {
        let _g = lock();
        add_on_then_off(&WORKSPACE_MISSES, 1);
        add_on_then_off(&WORKSPACE_HITS, 2);
        add_on_then_off(&WORKSPACE_BYTES_REUSED, 192);
        record_workspace_pooled(512);
        record_workspace_pooled(-128);
        let snap = snapshot();
        assert_eq!((snap.workspace_hits, snap.workspace_misses), (2, 1));
        assert_eq!(snap.workspace_bytes_reused, 192);
        assert_eq!(WORKSPACE_POOLED_BYTES.read(), 384);
        assert_eq!(snap.peak_workspace_pooled_bytes, 512);
        // Evictions past zero clamp, and the peak only ratchets.
        record_workspace_pooled(-1_000_000);
        assert_eq!(WORKSPACE_POOLED_BYTES.read(), 0);
        assert_eq!(snapshot().peak_workspace_pooled_bytes, 512);
    }

    #[test]
    fn the_list_names_every_counter_once_and_reset_zeroes_it() {
        let _g = lock();
        for k in Kernel::ALL {
            record_kernel(k, 1, 1);
        }
        TILE_CLAIMS.add(1);
        track_alloc(4);
        record_workspace_pooled(4);
        let readings = read_all();
        assert_eq!(readings.len(), LIST.len());
        let names: std::collections::BTreeSet<(&str, &str)> =
            readings.iter().map(|r| (r.group, r.name)).collect();
        assert_eq!(names.len(), readings.len(), "a counter is listed twice");
        for k in Kernel::ALL {
            for name in ["calls", "flops", "bytes_moved"] {
                assert!(names.contains(&(k.name(), name)), "{} {name}", k.name());
            }
        }
        assert!(readings.iter().any(|r| r.name == "claims" && r.value == 1));
        reset();
        for r in read_all() {
            assert_eq!(r.value, 0, "{r:?}");
        }
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
        assert_eq!(TENSOR_BYTES_ALIVE.read(), 0);
        assert!(snapshot().peak_tensor_bytes >= 8);
    }
}
