//! Reusable workspace arena for kernel scratch buffers.
//!
//! The hot path — matmul packing panels, `im2col`'s padded image and
//! patch matrix (`dW`'s patches), autograd backward temporaries (`col2im`'s
//! output among them) — used to allocate a fresh `Vec<f32>` on
//! every call. This module replaces those allocations with a process-wide,
//! thread-safe pool of size-bucketed buffers:
//!
//! * [`take`] / [`take_zeroed`] check a buffer out and return a
//!   [`WorkspaceGuard`] that parks it back in the pool on drop — the
//!   pattern for scratch that lives for one kernel invocation;
//! * [`zeroed_tensor`] / [`recycle`] move pooled buffers in and out of
//!   [`Tensor`] values — the pattern for autograd temporaries that are
//!   built, consumed by an accumulation, and then discarded.
//!
//! The arena lends scratch, not storage: what outlives the call that made
//! it — a served model's merged weights among them — owns its allocation
//! and never enters the pool.
//!
//! Buffers are bucketed by capacity rounded to a power of two, so a
//! checkout of any size in `(bucket/2, bucket]` can reuse any buffer of
//! that bucket. Buckets are capped (count and total bytes) to bound how
//! much memory idles in the pool; overflow buffers are simply dropped.
//!
//! The arena changes **no numerics**: a recycled buffer is either fully
//! overwritten ([`take`], contents unspecified) or zero-filled
//! ([`take_zeroed`], [`zeroed_tensor`]) before use, exactly like the
//! `vec![0.0; n]` it replaces.
//!
//! Checkouts are **disjoint by construction** — `pop` removes the buffer
//! from the pool under the lock, so two live guards can never alias, even
//! across threads. The GEMM tile-grid scheduler leans on this: every
//! worker in the team holds its own A-panel lease for its whole lifetime
//! (the calling thread takes the team's leases before the team starts, so
//! how many are out at once is a function of shape and team size) while
//! the shared B panel of a product that packs `B` (one whose strips
//! re-read it; a one-strip product reads `B` in place and leases none)
//! and other threads' checkouts churn through the same pool concurrently.
//!
//! Checkout hits/misses, bytes reused and the pooled-bytes high-water mark
//! are reported to `metalora_obs` (visible in `RUNLOG_*.json` under
//! `workspace` when `METALORA_OBS=1`).

use crate::Tensor;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Max buffers parked per size bucket; further returns are dropped.
pub const MAX_PER_BUCKET: usize = 16;

/// Max total bytes the pool will hold onto; returns past this are dropped.
pub const MAX_POOLED_BYTES: usize = 256 << 20;

/// Number of power-of-two size buckets (bucket `i` holds capacity `2^i`
/// floats; the largest bucket covers 2^31 floats = 8 GiB, far beyond any
/// tensor in this workspace).
const N_BUCKETS: usize = 32;

struct Pool {
    buckets: [Vec<Vec<f32>>; N_BUCKETS],
    pooled_bytes: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    buckets: [const { Vec::new() }; N_BUCKETS],
    pooled_bytes: 0,
});

/// Bucket index for a checkout of `len` floats: smallest power of two
/// `>= len`.
fn bucket_for_len(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// Bucket index a buffer of `cap` floats can serve: largest power of two
/// `<= cap` (a bucket-`i` checkout needs capacity `>= 2^i`).
fn bucket_for_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Pops a pooled buffer able to hold `len` floats, or `None` on miss.
/// Only the exact bucket is probed — first-fit over larger buckets would
/// slowly migrate big buffers into small checkouts and fragment the pool.
fn pop(len: usize) -> Option<Vec<f32>> {
    let bucket = bucket_for_len(len);
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let v = pool.buckets[bucket].pop();
    if let Some(v) = &v {
        pool.pooled_bytes -= 4 * v.capacity();
        metalora_obs::counters::record_workspace_pooled(-4 * v.capacity() as i64);
    }
    drop(pool);
    if v.is_some() {
        metalora_obs::counters::WORKSPACE_HITS.add(1);
        metalora_obs::counters::WORKSPACE_BYTES_REUSED.add(4 * len as u64);
    } else {
        metalora_obs::counters::WORKSPACE_MISSES.add(1);
    }
    v
}

/// A buffer able to hold `len` floats, stale contents and all: pooled when
/// the bucket has one, else allocated at the bucket's capacity.
fn checkout(len: usize) -> Vec<f32> {
    pop(len).unwrap_or_else(|| Vec::with_capacity(len.next_power_of_two()))
}

/// Returns `buf` to the pool (or drops it when its bucket / the byte cap
/// is full). Accepts buffers of any capacity, including ones that never
/// came from the pool — that is how tensors recycled via [`recycle`] seed
/// the arena.
pub fn give(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    let bucket = bucket_for_cap(cap);
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if pool.buckets[bucket].len() >= MAX_PER_BUCKET
        || pool.pooled_bytes + 4 * cap > MAX_POOLED_BYTES
    {
        return; // dropped: pool full
    }
    pool.pooled_bytes += 4 * cap;
    pool.buckets[bucket].push(buf);
    drop(pool);
    metalora_obs::counters::record_workspace_pooled(4 * cap as i64);
}

/// Checks out a buffer of `len` floats with **unspecified contents** (the
/// caller must overwrite every element it reads). Returned to the pool
/// when the guard drops.
pub fn take(len: usize) -> WorkspaceGuard {
    let mut buf = checkout(len);
    // Stale pooled contents are deliberately kept (resize only fills the
    // grown tail); `take` is for buffers that are packed/copied into.
    buf.resize(len, 0.0);
    WorkspaceGuard { buf }
}

/// Checks out a buffer of `len` floats, zero-filled — a pooled stand-in
/// for `vec![0.0; len]`.
pub fn take_zeroed(len: usize) -> WorkspaceGuard {
    let mut g = take(len);
    g.buf.fill(0.0);
    g
}

/// A checked-out workspace buffer; derefs to `[f32]` of exactly the
/// requested length and parks itself back in the pool on drop.
pub struct WorkspaceGuard {
    buf: Vec<f32>,
}

impl Deref for WorkspaceGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for WorkspaceGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WorkspaceGuard {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.buf));
    }
}

/// A zero-filled tensor whose buffer is drawn from the arena — the pooled
/// twin of [`Tensor::zeros`]. Pair with [`recycle`] on the consuming side
/// to keep the buffer cycling.
pub fn zeroed_tensor(dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    let mut buf = checkout(len);
    buf.clear();
    buf.resize(len, 0.0);
    Tensor::from_vec(buf, dims).expect("len matches dims by construction")
}

/// Consumes a tensor and parks its buffer in the arena for reuse.
pub fn recycle(t: Tensor) {
    give(t.into_vec());
}

/// Drops every pooled buffer (tests; also handy to release memory after a
/// large one-off workload).
pub fn clear() {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let freed = pool.pooled_bytes;
    for b in pool.buckets.iter_mut() {
        b.clear();
    }
    pool.pooled_bytes = 0;
    drop(pool);
    metalora_obs::counters::record_workspace_pooled(-(freed as i64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_correctly() {
        assert_eq!(bucket_for_len(1), 0);
        assert_eq!(bucket_for_len(2), 1);
        assert_eq!(bucket_for_len(3), 2);
        assert_eq!(bucket_for_len(1024), 10);
        assert_eq!(bucket_for_len(1025), 11);
        assert_eq!(bucket_for_cap(1024), 10);
        assert_eq!(bucket_for_cap(1500), 10);
        assert_eq!(bucket_for_cap(2048), 11);
    }

    #[test]
    fn take_returns_exact_len_and_reuses() {
        let first_ptr;
        {
            let g = take(100);
            assert_eq!(g.len(), 100);
            first_ptr = g.as_ptr();
        }
        // Same bucket (128) → the very same allocation comes back.
        let g = take(120);
        assert_eq!(g.len(), 120);
        assert_eq!(g.as_ptr(), first_ptr);
    }

    #[test]
    fn take_zeroed_really_zeroes() {
        {
            let mut g = take(64);
            g.fill(7.0);
        }
        let g = take_zeroed(64);
        assert!(g.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zeroed_tensor_roundtrips_through_recycle() {
        let t = zeroed_tensor(&[4, 8]);
        assert_eq!(t.dims(), &[4, 8]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let ptr = t.data().as_ptr();
        recycle(t);
        let t2 = zeroed_tensor(&[32]);
        assert_eq!(t2.data().as_ptr(), ptr);
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn concurrent_checkouts_never_alias() {
        // Hammer the pool from several threads; each guard stamps its own
        // pattern and must read it back intact.
        std::thread::scope(|s| {
            for tid in 0..8 {
                s.spawn(move || {
                    for round in 0..200usize {
                        let len = 1 + (tid * 37 + round * 11) % 500;
                        let mut g = take(len);
                        let stamp = (tid * 1_000 + round) as f32;
                        g.fill(stamp);
                        // Another thread writing into the same buffer
                        // would break this read-back.
                        assert!(g.iter().all(|&x| x == stamp));
                    }
                });
            }
        });
    }

    #[test]
    fn long_lived_leases_survive_concurrent_churn() {
        // The tile-grid pattern: each worker holds one lease for its whole
        // lifetime (its A panel) while short-lived checkouts (B panels,
        // im2col scratch) cycle through the pool around it. The long lease
        // must stay intact throughout.
        std::thread::scope(|s| {
            for tid in 0..6 {
                s.spawn(move || {
                    let len = 256 + tid;
                    let mut lease = take(len);
                    let stamp = (7_000 + tid) as f32;
                    lease.fill(stamp);
                    for round in 0..300usize {
                        // Churn: same-bucket checkouts that are stamped,
                        // verified and returned while the lease is live.
                        let mut short = take(256 + (round % 64));
                        short.fill(-(round as f32));
                        assert!(short.iter().all(|&x| x == -(round as f32)));
                        drop(short);
                        assert!(lease.iter().all(|&x| x == stamp));
                    }
                });
            }
        });
    }

    #[test]
    fn zero_len_checkout_is_fine() {
        let g = take(0);
        assert!(g.is_empty());
        give(Vec::new()); // no-op, must not poison the pool
    }
}
