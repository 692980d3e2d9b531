//! Deterministic parallel execution layer.
//!
//! Two primitives share one thread-count / threshold policy:
//!
//! * [`par_row_blocks`] — the output buffer is split into disjoint,
//!   fixed-size row blocks and a scoped thread team pulls blocks from a
//!   shared queue. Used by the reference matmul kernel, im2col (`dW`'s
//!   patches and the forced-reference forward), col2im, the large
//!   elementwise/reduction ops.
//! * [`par_task_queue`] — a scoped team (the **calling thread
//!   participates** as worker 0) drains an atomic counter of task
//!   indices; each worker is invoked once, with scratch the caller built
//!   for its slot before the team started (e.g. a packed-panel lease from
//!   the workspace arena), and claims tasks until the queue is dry. This
//!   is what the packed GEMM microkernel's tile-grid scheduler runs on.
//!
//! # Determinism guarantee
//!
//! Results are **bitwise identical** to the serial path regardless of the
//! worker count, because the unit of work is a *row* of the output and the
//! kernels invoked here compute each row self-containedly, reading only
//! shared immutable inputs. Block boundaries are a fixed function of the
//! problem shape (never of the thread count), so even a kernel that did
//! couple rows within a block would stay deterministic. No reduction ever
//! combines per-thread partials — ops whose accumulation order would have
//! to change under parallelism (e.g. `sum_all`) deliberately stay serial.
//!
//! # Controls
//!
//! * `METALORA_THREADS` — environment variable fixing the worker count
//!   (read once, first use).
//! * [`set_num_threads`] — programmatic override, takes precedence.
//! * [`with_num_threads`] — a scoped override on the calling thread only,
//!   ahead of both (the equivalence suites' thread sweeps).
//! * [`DEFAULT_PAR_THRESHOLD`] — minimum estimated flop count below which
//!   work stays on the calling thread; small problems never pay the
//!   thread-spawn cost. [`with_par_threshold`] moves it on the calling
//!   thread only (the equivalence suites force the parallel path on tiny
//!   shapes with it).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Work below this estimated flop count runs serially (moved per thread
/// by [`with_par_threshold`]).
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 19;

/// Upper bound on the number of blocks a problem is split into.
const MAX_BLOCKS: usize = 64;

/// Minimum elements per block, so tiny rows are grouped into chunks big
/// enough to amortise queue traffic.
const MIN_BLOCK_ELEMS: usize = 1 << 12;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The [`with_num_threads`] scope of this thread; `0` outside one.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
    /// The [`with_par_threshold`] scope of this thread; `None` outside one.
    static SCOPED_THRESHOLD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Fixes the worker count for the whole process; `0` reverts to
/// `METALORA_THREADS` / hardware detection. `1` forces fully serial
/// execution.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs `f` with the worker count of parallel sections started **on this
/// thread** fixed at `n` (`0`: the process-wide setting), and restores the
/// enclosing scope's count afterwards — also when `f` panics. Scopes nest;
/// other threads are unaffected, so concurrent tests can sweep worker
/// counts without racing on [`set_num_threads`].
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREADS.with(|s| s.replace(n)));
    f()
}

/// The worker count parallel sections will use: the [`with_num_threads`]
/// scope of the calling thread if inside one, else the
/// [`set_num_threads`] override if set, else `METALORA_THREADS`, else the
/// hardware parallelism.
pub fn num_threads() -> usize {
    let scoped = SCOPED_THREADS.with(Cell::get);
    if scoped > 0 {
        return scoped;
    }
    let n = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("METALORA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Runs `f` with the serial/parallel flop threshold of parallel sections
/// started **on this thread** at `flops` (`0`: every non-empty problem may
/// go parallel), and restores the enclosing scope's threshold afterwards —
/// also when `f` panics. Scopes nest; other threads keep
/// [`DEFAULT_PAR_THRESHOLD`], so concurrent tests cannot race on it.
pub fn with_par_threshold<R>(flops: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THRESHOLD.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THRESHOLD.with(|s| s.replace(Some(flops))));
    f()
}

/// The serial/parallel flop threshold on the calling thread: its
/// [`with_par_threshold`] scope if inside one, else
/// [`DEFAULT_PAR_THRESHOLD`].
pub fn par_threshold() -> usize {
    SCOPED_THRESHOLD.with(Cell::get).unwrap_or(DEFAULT_PAR_THRESHOLD)
}

/// Rows per block: a fixed function of the problem shape only, so the
/// partition (and therefore any block-coupled numerics) is independent of
/// the thread count.
fn block_rows_for(rows: usize, row_len: usize) -> usize {
    let by_count = rows.div_ceil(MAX_BLOCKS);
    let by_elems = MIN_BLOCK_ELEMS.div_ceil(row_len.max(1));
    by_count.max(by_elems).clamp(1, rows.max(1))
}

/// Runs `kernel` over the rows of `out` (`row_len` elements each),
/// possibly in parallel.
///
/// `kernel(first_row, block)` must fill `block` — the rows
/// `first_row .. first_row + block.len() / row_len` — reading only shared
/// inputs and writing only `block`. **Each row must be computed
/// independently of every other row**; that is what makes the parallel
/// schedule bitwise-equal to the serial one.
///
/// `cost_per_row` is an estimated flop count per row; the whole call runs
/// on the calling thread when `rows * cost_per_row` is under
/// [`par_threshold`], when only one worker is configured, or when there is
/// a single block.
pub fn par_row_blocks<T, F>(out: &mut [T], row_len: usize, cost_per_row: usize, kernel: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    debug_assert!(row_len > 0 && out.len() % row_len == 0);
    let rows = out.len() / row_len;
    let block = block_rows_for(rows, row_len);
    let n_blocks = rows.div_ceil(block);
    let threads = num_threads().min(n_blocks);
    if threads <= 1 || rows.saturating_mul(cost_per_row) < par_threshold() {
        metalora_obs::counters::DISPATCH_SERIAL.add(1);
        kernel(0, out);
        return;
    }
    metalora_obs::counters::DISPATCH_PARALLEL.add(1);
    // Timeline hook on the calling thread only: one begin/end pair around
    // the whole team, so traces show when parallel sections ran without a
    // per-block event flood from the workers.
    metalora_obs::trace::begin("par_row_blocks");
    // Fixed-size blocks, dynamically scheduled: workers pull the next
    // (index, slice) pair from a shared iterator. Scheduling order cannot
    // affect results because blocks are disjoint and rows independent.
    let queue = Mutex::new(out.chunks_mut(block * row_len).enumerate());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").next();
                match next {
                    Some((bi, chunk)) => kernel(bi * block, chunk),
                    None => break,
                }
            });
        }
    });
    metalora_obs::trace::end("par_row_blocks");
}

/// A dried-once atomic work queue over task indices `0..total`.
///
/// Claims are a single `fetch_add`; once the counter passes `total` the
/// queue stays empty forever. Which worker claims which index is
/// scheduler-dependent, so callers must make each task's result
/// independent of the claim order (the tile-grid GEMM achieves this by
/// making every task a self-contained C-tile block).
pub struct TaskQueue {
    next: AtomicUsize,
    total: usize,
}

impl TaskQueue {
    /// A fresh queue over `0..total`.
    pub fn new(total: usize) -> TaskQueue {
        TaskQueue { next: AtomicUsize::new(0), total }
    }

    /// Claims the next unclaimed task index, or `None` when the queue is
    /// dry.
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.total {
            Some(i)
        } else {
            None
        }
    }

    /// Number of tasks the queue was created with.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Runs `worker` over a shared [`TaskQueue`] of `tasks` indices, possibly
/// in parallel.
///
/// Each team member calls `worker(slot, queue, scratch)` **exactly once**
/// and is expected to loop on [`TaskQueue::claim`] until the queue is dry —
/// per-thread state (counter tallies, which strip is packed) is set up
/// once per worker, not once per task. `slot` is the team-member index
/// (`0..team size`); the **calling thread participates as slot 0**, so a
/// team of `N` spawns only `N - 1` threads and `METALORA_THREADS=1` (or
/// an estimated cost `tasks * cost_per_task` below [`par_threshold`])
/// runs the whole queue on the calling thread with no spawn at all —
/// the same serial-fallback semantics as [`par_row_blocks`].
///
/// `scratch` is called once per team member **on the calling thread,
/// before any worker starts**, and slot `s` is handed the `s`-th value.
/// The team size is a function of `(tasks, cost_per_task)` and the
/// thread-count policy only, so what a call checks out of a shared pool
/// this way (the packed GEMM's A-panel leases) never depends on how the
/// workers' lifetimes happen to overlap.
///
/// `trace_name` labels the begin/end pair emitted around a parallel team
/// in the obs timeline (e.g. `"tile_grid"`), mirroring the
/// `par_row_blocks` mark.
pub fn par_task_queue<S, F>(
    trace_name: &'static str,
    tasks: usize,
    cost_per_task: usize,
    mut scratch: impl FnMut() -> S,
    worker: F,
) where
    S: Send,
    F: Fn(usize, &TaskQueue, S) + Sync,
{
    if tasks == 0 {
        return;
    }
    let queue = TaskQueue::new(tasks);
    let threads = num_threads().min(tasks);
    if threads <= 1 || tasks.saturating_mul(cost_per_task) < par_threshold() {
        metalora_obs::counters::DISPATCH_SERIAL.add(1);
        worker(0, &queue, scratch());
        return;
    }
    metalora_obs::counters::DISPATCH_PARALLEL.add(1);
    let own = scratch();
    let spawned: Vec<S> = std::iter::repeat_with(scratch).take(threads - 1).collect();
    metalora_obs::trace::begin(trace_name);
    std::thread::scope(|s| {
        for (slot, scratch) in (1..).zip(spawned) {
            let queue = &queue;
            let worker = &worker;
            s.spawn(move || worker(slot, queue, scratch));
        }
        worker(0, &queue, own);
    });
    metalora_obs::trace::end(trace_name);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that set the process-wide worker count and
    /// restores the default on drop (the test harness runs tests
    /// concurrently); every other test scopes its count and threshold to
    /// its own thread.
    struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    fn guard() -> Guard {
        static LOCK: Mutex<()> = Mutex::new(());
        Guard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }

    /// Runs `f` with `threads` workers and the parallel path forced on.
    fn parallel<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        with_par_threshold(0, || with_num_threads(threads, f))
    }

    #[test]
    fn serial_fallback_below_threshold() {
        // Everything is "too small".
        with_par_threshold(usize::MAX, || {
            with_num_threads(4, || {
                let mut out = vec![0.0f32; 64];
                par_row_blocks(&mut out, 8, 1, |first, block| {
                    for (r, row) in block.chunks_mut(8).enumerate() {
                        row.fill((first + r) as f32);
                    }
                });
                for (r, row) in out.chunks(8).enumerate() {
                    assert!(row.iter().all(|&x| x == r as f32));
                }
            })
        });
    }

    #[test]
    fn parallel_covers_all_rows_exactly_once() {
        for threads in [1, 2, 3, 7, 16] {
            parallel(threads, || {
                let rows = 97; // not a multiple of any block size
                let mut out = vec![-1.0f32; rows * 5];
                par_row_blocks(&mut out, 5, 1000, |first, block| {
                    for (r, row) in block.chunks_mut(5).enumerate() {
                        assert!(row.iter().all(|&x| x == -1.0), "row visited twice");
                        row.fill((first + r) as f32);
                    }
                });
                for (r, row) in out.chunks(5).enumerate() {
                    assert!(
                        row.iter().all(|&x| x == r as f32),
                        "threads={threads} row={r} wrong: {row:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn empty_output_invokes_no_work() {
        // The scheduler must return without calling the kernel at all on a
        // zero-size output — even with parallelism forced on.
        for threads in [1, 4] {
            let calls = AtomicUsize::new(0);
            parallel(threads, || {
                par_row_blocks(&mut [] as &mut [f32], 4, 1, |_, _| {
                    calls.fetch_add(1, Ordering::SeqCst);
                })
            });
            assert_eq!(calls.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn block_sizes_are_shape_deterministic() {
        // Only the shape feeds the partition; calling twice must agree.
        assert_eq!(block_rows_for(256, 256), block_rows_for(256, 256));
        assert!(block_rows_for(1, 1) == 1);
        // Tiny rows get grouped; big rows split down to MAX_BLOCKS.
        assert!(block_rows_for(1 << 20, 1) >= MIN_BLOCK_ELEMS);
        assert_eq!(block_rows_for(6400, 512), 100);
    }

    #[test]
    fn task_queue_hands_out_each_index_once() {
        let q = TaskQueue::new(10);
        let claimed: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(claimed, (0..10).collect::<Vec<_>>());
        assert_eq!(q.claim(), None);
        assert_eq!(q.total(), 10);
    }

    #[test]
    fn par_task_queue_covers_all_tasks_exactly_once() {
        for threads in [1, 2, 3, 7] {
            let tasks = 53;
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            parallel(threads, || {
                par_task_queue("test_queue", tasks, 1000, || (), |_slot, q, ()| {
                    while let Some(i) = q.claim() {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    }
                })
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "threads={threads} task={i}");
            }
        }
    }

    #[test]
    fn par_task_queue_serial_fallback_claims_in_order() {
        let order = Mutex::new(Vec::new());
        // Everything is "too small".
        with_par_threshold(usize::MAX, || {
            with_num_threads(4, || {
                par_task_queue("test_queue", 6, 1, || (), |slot, q, ()| {
                    assert_eq!(slot, 0, "serial fallback must run on the calling thread");
                    while let Some(i) = q.claim() {
                        order.lock().unwrap().push(i);
                    }
                })
            })
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn par_task_queue_calling_thread_is_slot_zero() {
        let caller = std::thread::current().id();
        let slot0_on_caller = AtomicUsize::new(0);
        parallel(3, || {
            par_task_queue("test_queue", 64, 1000, || (), |slot, q, ()| {
                if slot == 0 && std::thread::current().id() == caller {
                    slot0_on_caller.fetch_add(1, Ordering::SeqCst);
                }
                while q.claim().is_some() {}
            })
        });
        assert_eq!(slot0_on_caller.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn par_task_queue_builds_scratch_on_the_caller_one_per_slot() {
        for threads in [1, 3] {
            let caller = std::thread::current().id();
            let mut built = 0;
            let seen = Mutex::new(Vec::new());
            parallel(threads, || {
                par_task_queue(
                    "test_queue",
                    64,
                    1000,
                    || {
                        assert_eq!(std::thread::current().id(), caller);
                        built += 1;
                        built - 1
                    },
                    |slot, q, nth| {
                        seen.lock().unwrap().push((slot, nth));
                        while q.claim().is_some() {}
                    },
                )
            });
            // One value per team member, slot s holding the s-th built.
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..threads).map(|s| (s, s)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_task_queue_empty_is_a_noop() {
        let calls = AtomicUsize::new(0);
        parallel(4, || {
            par_task_queue("test_queue", 0, 1, || (), |_, _, ()| {
                calls.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn threads_env_override_applies() {
        let _g = guard();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn scoped_threads_are_per_thread_nest_and_survive_a_panic() {
        let _g = guard();
        set_num_threads(3);
        with_num_threads(5, || {
            assert_eq!(num_threads(), 5);
            with_num_threads(2, || assert_eq!(num_threads(), 2));
            // `0` defers to the process-wide setting.
            with_num_threads(0, || assert_eq!(num_threads(), 3));
            assert_eq!(num_threads(), 5);
            // Another thread sees only the process-wide count.
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(num_threads(), 3));
            });
        });
        let caught = std::panic::catch_unwind(|| with_num_threads(7, || panic!("inside")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), 3);
    }

    #[test]
    fn scoped_threshold_is_per_thread_nests_and_survives_a_panic() {
        assert_eq!(par_threshold(), DEFAULT_PAR_THRESHOLD);
        with_par_threshold(0, || {
            assert_eq!(par_threshold(), 0);
            with_par_threshold(7, || assert_eq!(par_threshold(), 7));
            assert_eq!(par_threshold(), 0);
            // Another thread sees only the default.
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(par_threshold(), DEFAULT_PAR_THRESHOLD));
            });
        });
        let caught = std::panic::catch_unwind(|| with_par_threshold(0, || panic!("inside")));
        assert!(caught.is_err());
        assert_eq!(par_threshold(), DEFAULT_PAR_THRESHOLD);
    }
}
