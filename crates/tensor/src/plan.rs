//! Static inference plans: workspace demands computed once per shape.
//!
//! The workspace arena discovers buffer sizes dynamically — each kernel
//! call probes its size bucket and allocates on a miss. That discovery is
//! cheap but not free, and on the serving hot path it repeats identically
//! for every request of a batch because the shapes never change. A
//! [`Plan`] moves it off the hot path: built once per (shape, thread
//! count) signature, it records every arena checkout the planned calls
//! will make — packed GEMM `B` panels, per-worker `A` panels, bf16 widen
//! scratch, `im2col` padded images and column matrices — and
//! [`Plan::warm`] leases them all **up front** through
//! [`workspace::lease_all`].
//!
//! The lease's lifetime model: taking every planned size simultaneously
//! forces the arena to materialise one distinct buffer per concurrent
//! need (sequential warming could satisfy two same-bucket needs with the
//! same buffer); releasing parks them all back in the pool. Every
//! in-batch checkout of a planned size is then a guaranteed pool hit —
//! the bucket probe still happens, but it never allocates, so a whole
//! serve batch runs without touching the allocator. Plans are pure size
//! arithmetic over immutable shapes; they change **no numerics**.
//!
//! GEMM sizing is not mirrored here: the builder asks
//! [`crate::ops::gemm_scratch`], defined beside the dispatch it describes.

use crate::conv::ConvSpec;
use crate::ops::{gemm_scratch, Storage};
use crate::workspace;

/// Accumulates the workspace demands of a sequence of planned kernel
/// calls. Finish with [`PlanBuilder::build`].
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    threads: usize,
    sizes: Vec<usize>,
}

impl PlanBuilder {
    /// A builder for a team of `threads` workers (`0` is treated as 1 —
    /// the serial fallback).
    pub fn new(threads: usize) -> PlanBuilder {
        PlanBuilder { threads: threads.max(1), sizes: Vec::new() }
    }

    /// Plans one GEMM `[m,k]·[k,n]` of f32 activations against weights
    /// stored as `weights`.
    pub fn gemm(&mut self, m: usize, n: usize, k: usize, weights: Storage) -> &mut PlanBuilder {
        self.sizes.extend(gemm_scratch(m, n, k, [Storage::F32, weights], self.threads));
        self
    }

    /// Plans one `conv2d` of an `[n,c,h,w]` input with `o` output
    /// channels: the padded-image scratch (when padding is in play), the
    /// `im2col` column matrix, and the production GEMM behind it.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        h_spec: ConvSpec,
        w_spec: ConvSpec,
        o: usize,
    ) -> &mut PlanBuilder {
        let (oh, ow) = match (h_spec.out_size(h), w_spec.out_size(w)) {
            (Ok(oh), Ok(ow)) => (oh, ow),
            // An invalid geometry will error in the kernel itself; there
            // is nothing to plan for it.
            _ => return self,
        };
        if h_spec.pad > 0 || w_spec.pad > 0 {
            let (hp, wp) = (h + 2 * h_spec.pad, w + 2 * w_spec.pad);
            self.sizes.push(n * c * hp * wp);
        }
        let (rows, cols) = (n * oh * ow, c * h_spec.kernel * w_spec.kernel);
        // The column matrix is a pooled tensor (`workspace::zeroed_tensor`).
        self.sizes.push(rows * cols);
        self.gemm(rows, o, cols, Storage::F32)
    }

    /// Freezes the accumulated demands into a reusable [`Plan`].
    pub fn build(self) -> Plan {
        metalora_obs::counters::record_plan_built();
        Plan { threads: self.threads, sizes: self.sizes }
    }
}

/// The frozen workspace demands of one (shape, threads) signature. Build
/// once, [`warm`](Plan::warm) once per serve batch, reuse forever — the
/// plan itself is immutable and cheap to keep in a map keyed by the
/// signature.
#[derive(Debug, Clone)]
pub struct Plan {
    threads: usize,
    sizes: Vec<usize>,
}

impl Plan {
    /// Worker-team size the plan was built for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The planned checkout lengths (floats), in plan order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total bytes the planned checkouts cover.
    pub fn bytes(&self) -> usize {
        4 * self.sizes.iter().sum::<usize>()
    }

    /// Checks out every planned buffer at once and returns the live
    /// batch lease (all buffers distinct by construction).
    pub fn lease(&self) -> workspace::BatchLease {
        let lease = workspace::lease_all(&self.sizes);
        metalora_obs::counters::record_plan_lease(lease.buffers() as u64, 4 * lease.floats() as u64);
        lease
    }

    /// Leases and immediately releases every planned buffer: after this,
    /// the arena holds a distinct pooled buffer for each planned size, so
    /// every checkout the planned calls make during the batch is a
    /// guaranteed hit. Call once at the start of each serve batch.
    pub fn warm(&self) {
        self.lease().release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::microkernel::MR;

    #[test]
    fn legacy_f32_gemm_plans_no_scratch() {
        let mut b = PlanBuilder::new(4);
        b.gemm(8, 8, 8, Storage::F32);
        assert!(b.build().sizes().is_empty());
    }

    #[test]
    fn packed_gemm_plans_b_panel_plus_worker_a_panels() {
        let (m, n, k) = (37, 290, 150);
        let mut b = PlanBuilder::new(4);
        b.gemm(m, n, k, Storage::F32);
        let plan = b.build();
        // B panel + min(threads, tasks) A panels; 37 rows × 290 cols is
        // 10 strips × 2 col groups = 20 tasks, so the team caps at 4.
        assert_eq!(plan.sizes()[0], k * n);
        assert_eq!(plan.sizes()[1..], [MR * k, MR * k, MR * k, MR * k]);
        assert_eq!(plan.bytes(), 4 * (k * n + 4 * MR * k));
    }

    #[test]
    fn bf16_legacy_plans_widen_buffer() {
        let mut b = PlanBuilder::new(2);
        b.gemm(2, 8, 8, Storage::Bf16);
        assert_eq!(b.build().sizes(), &[8 * 8]);
    }

    #[test]
    fn conv_plans_padded_image_cols_and_gemm() {
        let spec = ConvSpec { kernel: 3, stride: 1, pad: 1 };
        let (n, c, h, w, o) = (2, 3, 8, 8, 4);
        let mut b = PlanBuilder::new(1);
        // The production GEMM (128×27·27×4) is under the pack gate: no panels.
        b.conv2d(n, c, h, w, spec, spec, o);
        let plan = b.build();
        let (hp, wp) = (h + 2, w + 2);
        let (oh, ow) = (spec.out_size(h).unwrap(), spec.out_size(w).unwrap());
        assert_eq!(plan.sizes(), &[n * c * hp * wp, n * oh * ow * c * 9]);
    }

    #[test]
    fn warm_makes_every_planned_checkout_hit() {
        workspace::clear();
        let mut b = PlanBuilder::new(3);
        b.gemm(40, 50, 140, Storage::F32).gemm(40, 50, 140, Storage::Bf16);
        let plan = b.build();
        plan.warm();
        // Every planned size (including the same-bucket duplicates) must
        // now check out simultaneously from the pool without allocating:
        // re-leasing returns exactly the warmed buffers.
        let lease = plan.lease();
        assert_eq!(lease.buffers(), plan.sizes().iter().filter(|&&s| s > 0).count());
        lease.release();
    }

    #[test]
    fn degenerate_shapes_plan_nothing() {
        let mut b = PlanBuilder::new(2);
        b.gemm(0, 8, 8, Storage::F32).gemm(8, 0, 8, Storage::F32).gemm(0, 4, 4, Storage::Bf16);
        assert!(b.build().sizes().is_empty());
    }
}
