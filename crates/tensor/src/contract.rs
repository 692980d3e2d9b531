//! Tensor contraction — Eq. 1 of the paper, the operation every
//! tensor-network format in this crate is built from — and the planner
//! that lowers a whole network of them to `gemm`.
//!
//! `contract(A, B, axes_a, axes_b)` sums over the paired axes
//! `(axes_a[k], axes_b[k])`, producing a tensor whose axes are the free
//! axes of `A` (in order) followed by the free axes of `B` (in order) —
//! exactly the `𝒜 ×ᵐₙ ℬ` notation of Section II-B. [`contract_naive`] is
//! the direct nested-loop evaluation kept as the oracle for tests and for
//! the Fig. 1 verification bench.
//!
//! # The planner
//!
//! [`Plan::new`] takes a label spec (`"xiy,yoz,zx->io"`: one letter `a`–`z`
//! per axis, two to four comma-separated operands, an explicit output) and
//! the operand shapes, and returns a list of pairwise [`Step`]s:
//!
//! * **Label classes.** When two operands meet, a label both carry is
//!   *summed* if nothing else needs it any more (no other operand, not the
//!   output) and a *batch* label otherwise — that is how the CP hyper-edge
//!   `r` of `"ir,r,ro->io"` is handled; a label only one of them carries is
//!   *free*. A label repeated inside one operand, or summed out of a single
//!   operand, is outside the grammar: a typed `Err`, never a fallback.
//! * **Order.** Every pairwise order is tried (≤ 18 for four operands) on
//!   `u32` label masks; the cheapest by total GEMM flops wins, ties go to
//!   the smaller peak intermediate, then to the first order tried. The plan
//!   is a pure function of `(spec, dims)` and cheap enough to rebuild on
//!   every call — there is no plan cache.
//! * **Lowering.** A step is `permute → reshape → matmul → reshape`
//!   (plus a closing `permute` when the spec's output order asks for one):
//!   the left operand reads `[batch.., free.., summed..]`, the right one
//!   `[batch.., summed.., free..]`. Which operand goes left, and which one's
//!   axis order the shared labels follow, is whichever choice sends the
//!   fewest elements through `permute`; a `permute`/`reshape` that would
//!   change nothing is not emitted.
//!
//! The step list is walked by [`Plan::run`] over a [`Lowering`]: plain
//! tensors here ([`contract_spec`]), tape nodes in `metalora_autograd`
//! (`Graph::contract`). Both issue the identical `ops::` sequence, so a
//! tape forward and a tape-free forward of one spec agree bitwise by
//! construction. [`contract`] is the same lowering applied to one
//! hand-specified step.

use crate::ops;
use crate::shape::IndexIter;
use crate::{Result, Shape, Tensor, TensorError};
use std::borrow::Cow;
use std::marker::PhantomData;

/// Validates contraction axes and returns the free axes of each operand.
fn split_axes(
    a: &Tensor,
    b: &Tensor,
    axes_a: &[usize],
    axes_b: &[usize],
) -> Result<(Vec<usize>, Vec<usize>)> {
    if axes_a.len() != axes_b.len() {
        return Err(TensorError::InvalidArgument(format!(
            "contract: {} axes for lhs but {} for rhs",
            axes_a.len(),
            axes_b.len()
        )));
    }
    let mut used_a = vec![false; a.rank()];
    let mut used_b = vec![false; b.rank()];
    for (&ax, &bx) in axes_a.iter().zip(axes_b) {
        if ax >= a.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis: ax,
                rank: a.rank(),
            });
        }
        if bx >= b.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis: bx,
                rank: b.rank(),
            });
        }
        if used_a[ax] || used_b[bx] {
            return Err(TensorError::InvalidArgument(format!(
                "contract: repeated axis in {axes_a:?} / {axes_b:?}"
            )));
        }
        used_a[ax] = true;
        used_b[bx] = true;
        if a.dims()[ax] != b.dims()[bx] {
            return Err(TensorError::ShapeMismatch {
                op: "contract",
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
    }
    let free_a = (0..a.rank()).filter(|&k| !used_a[k]).collect();
    let free_b = (0..b.rank()).filter(|&k| !used_b[k]).collect();
    Ok((free_a, free_b))
}

/// Contracts `a` and `b` over the paired axes `(axes_a[k], axes_b[k])`.
///
/// Output shape: free dims of `a` followed by free dims of `b`.
pub fn contract(
    a: &Tensor,
    b: &Tensor,
    axes_a: &[usize],
    axes_b: &[usize],
) -> Result<Tensor> {
    let (free_a, free_b) = split_axes(a, b, axes_a, axes_b)?;
    // Free axes first (lhs) / last (rhs), contracted axes adjacent.
    let a_perm = [&free_a[..], axes_a].concat();
    let b_perm = [axes_b, &free_b[..]].concat();
    let (ad, bd) = (a.dims(), b.dims());
    let step = Step::new((0, |k| ad[k], a_perm), (1, |k| bd[k], b_perm), 0, axes_a.len(), None);
    let out = step.run(&mut Eager(PhantomData), Cow::Borrowed(a), Cow::Borrowed(b))?;
    Ok(out.into_owned())
}

/// Contracts a whole network: plans `spec` for these operands' shapes and
/// runs the plan over plain tensors. See the module docs for the grammar.
pub fn contract_spec(spec: &str, operands: &[&Tensor]) -> Result<Tensor> {
    let dims: Vec<&[usize]> = operands.iter().map(|t| t.dims()).collect();
    let plan = Plan::new(spec, &dims)?;
    let out = plan.run(&mut Eager(PhantomData), operands.iter().map(|&t| Cow::Borrowed(t)))?;
    Ok(out.into_owned())
}

/// The three primitives a [`Step`] lowers to. Implemented here over plain
/// tensors and by `metalora_autograd::Graph` over tape nodes.
pub trait Lowering {
    /// Handle to one tensor value.
    type Val;
    /// Output axis `k` is input axis `perm[k]`.
    fn permute(&mut self, v: Self::Val, perm: &[usize]) -> Result<Self::Val>;
    /// Same elements under a new shape.
    fn reshape(&mut self, v: Self::Val, dims: &[usize]) -> Result<Self::Val>;
    /// `[m,k]·[k,n]`, or `[b,m,k]·[b,k,n]` per batch slice.
    fn matmul(&mut self, a: Self::Val, b: Self::Val) -> Result<Self::Val>;
}

/// [`Lowering`] over plain tensors through `ops::`. Operands stay
/// borrowed, so one that needs neither permute nor reshape is never copied.
struct Eager<'a>(PhantomData<&'a Tensor>);

impl<'a> Lowering for Eager<'a> {
    type Val = Cow<'a, Tensor>;

    fn permute(&mut self, v: Self::Val, perm: &[usize]) -> Result<Self::Val> {
        Ok(Cow::Owned(ops::permute(&v, perm)?))
    }
    fn reshape(&mut self, v: Self::Val, dims: &[usize]) -> Result<Self::Val> {
        Ok(Cow::Owned(v.into_owned().reshape(dims)?))
    }
    fn matmul(&mut self, a: Self::Val, b: Self::Val) -> Result<Self::Val> {
        Ok(Cow::Owned(ops::matmul(&a, &b)?))
    }
}

/// How one input of a step becomes its GEMM matrix: a permute that brings
/// its label groups together, then a reshape that flattens them.
#[derive(Debug, Clone, PartialEq)]
struct View {
    /// `None` when the axes are already in group order.
    perm: Option<Vec<usize>>,
    /// `false` when the permuted tensor already has the matrix shape.
    reshape: bool,
}

impl View {
    fn new(dims: impl Fn(usize) -> usize, perm: Vec<usize>, matrix: &[usize]) -> View {
        View {
            reshape: !perm.iter().map(|&k| dims(k)).eq(matrix.iter().copied()),
            perm: (!perm.iter().copied().eq(0..perm.len())).then_some(perm),
        }
    }

    fn apply<L: Lowering>(&self, l: &mut L, mut v: L::Val, matrix: &[usize]) -> Result<L::Val> {
        if let Some(perm) = &self.perm {
            v = l.permute(v, perm)?;
        }
        if self.reshape {
            v = l.reshape(v, matrix)?;
        }
        Ok(v)
    }
}

/// One pairwise contraction in matrix form.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Value slots of the two inputs: `0..n` are the plan's operands,
    /// `n + s` is the result of step `s`.
    slots: (usize, usize),
    lhs: View,
    rhs: View,
    /// Group extents `[batch, m, k, n]` of the GEMM.
    sizes: [usize; 4],
    /// With batch labels the matrices are rank 3, without them rank 2.
    batched: bool,
    /// The result's axes, `[batch.., lhs free.., rhs free..]`.
    out_dims: Vec<usize>,
    /// Reorders those axes into the spec's output order (last step only).
    out_perm: Option<Vec<usize>>,
}

impl Step {
    /// `a` (axis extents `a_dims(k)`) permuted by `a_perm` reads
    /// `[batch.., free.., summed..]` and `b` permuted by `b_perm` reads
    /// `[batch.., summed.., free..]`, with `n_batch` batch and `n_summed`
    /// summed axes each.
    fn new(
        (a_slot, a_dims, a_perm): (usize, impl Fn(usize) -> usize, Vec<usize>),
        (b_slot, b_dims, b_perm): (usize, impl Fn(usize) -> usize, Vec<usize>),
        n_batch: usize,
        n_summed: usize,
        out_perm: Option<Vec<usize>>,
    ) -> Step {
        let ext = |axes: &[usize], dims: &dyn Fn(usize) -> usize| -> usize {
            axes.iter().map(|&k| dims(k)).product()
        };
        let (a_kept, a_summed) = a_perm.split_at(a_perm.len() - n_summed);
        let b_free = &b_perm[n_batch + n_summed..];
        let sizes @ [bt, m, k, n] = [
            ext(&a_kept[..n_batch], &a_dims),
            ext(&a_kept[n_batch..], &a_dims),
            ext(a_summed, &a_dims),
            ext(b_free, &b_dims),
        ];
        let out_dims =
            a_kept.iter().map(|&x| a_dims(x)).chain(b_free.iter().map(|&x| b_dims(x))).collect();
        let batched = n_batch > 0;
        let skip = usize::from(!batched);
        Step {
            slots: (a_slot, b_slot),
            lhs: View::new(&a_dims, a_perm, &[bt, m, k][skip..]),
            rhs: View::new(&b_dims, b_perm, &[bt, k, n][skip..]),
            sizes,
            batched,
            out_dims,
            out_perm,
        }
    }

    /// Multiply-adds counted as two flops each.
    pub fn flops(&self) -> u64 {
        self.sizes.iter().fold(2, |f, &s| f.saturating_mul(s as u64))
    }

    /// Elements of the result.
    pub fn out_len(&self) -> usize {
        let [bt, m, _, n] = self.sizes;
        bt * m * n
    }

    /// The one lowering of a pairwise contraction — [`contract`] and every
    /// planned step go through here.
    fn run<L: Lowering>(&self, l: &mut L, a: L::Val, b: L::Val) -> Result<L::Val> {
        let [bt, m, k, n] = self.sizes;
        let skip = usize::from(!self.batched);
        let a = self.lhs.apply(l, a, &[bt, m, k][skip..])?;
        let b = self.rhs.apply(l, b, &[bt, k, n][skip..])?;
        let mut out = l.matmul(a, b)?;
        // Counted at this entry point *and* inside the matmul it lowers to —
        // see the layering note in `metalora_obs::counters`.
        metalora_obs::counters::record_kernel(
            metalora_obs::counters::Kernel::Contract,
            self.flops(),
            (4 * bt * (m * k + k * n + m * n)) as u64,
        );
        if self.out_dims != [bt, m, n][skip..] {
            out = l.reshape(out, &self.out_dims)?;
        }
        if let Some(perm) = &self.out_perm {
            out = l.permute(out, perm)?;
        }
        Ok(out)
    }
}

/// Most operands a spec may name: the pairwise-order search is exhaustive.
const MAX_OPERANDS: usize = 4;

/// A pairwise order: the positions `(i, j)`, `i < j`, paired at each step;
/// the result takes position `i` and position `j` closes up.
type Pairs = [(usize, usize); MAX_OPERANDS - 1];

/// A live value while planning: an operand, or an intermediate.
struct Live {
    slot: usize,
    /// Axis labels, `0` = `a`.
    labels: Vec<u8>,
    mask: u32,
}

fn mask(labels: &[u8]) -> u32 {
    labels.iter().fold(0, |m, &l| m | 1 << l)
}

/// Product of the extents of the labels in `m`.
fn size(mut m: u32, ext: &[usize; 26]) -> u64 {
    let mut p = 1u64;
    while m != 0 {
        p = p.saturating_mul(ext[m.trailing_zeros() as usize] as u64);
        m &= m - 1;
    }
    p
}

/// The labels of each part that its mask admits, parts in turn.
fn seq<'a>([a, b, c]: [(&'a [u8], u32); 3]) -> impl Iterator<Item = u8> + 'a {
    let pick = |(labels, m): (&'a [u8], u32)| {
        labels.iter().copied().filter(move |&l| m >> l & 1 == 1)
    };
    pick(a).chain(pick(b)).chain(pick(c))
}

/// One way to lower a pair: `x` goes left, `y` right, and the labels they
/// share keep the order `src` (one of the two) lists them in.
#[derive(Clone, Copy)]
struct Arrangement<'a> {
    x: &'a Live,
    y: &'a Live,
    src: &'a Live,
    batch: u32,
    summed: u32,
}

impl<'a> Arrangement<'a> {
    /// Label orders `[lhs, rhs, result]`: the left matrix reads
    /// `[batch.., free.., summed..]`, the right `[batch.., summed.., free..]`.
    fn orders(&self) -> [impl Iterator<Item = u8> + 'a; 3] {
        let Arrangement { batch, summed, .. } = *self;
        let (x, y, src) = (&self.x.labels[..], &self.y.labels[..], &self.src.labels[..]);
        let free = !(batch | summed);
        [
            seq([(src, batch), (x, free), (src, summed)]),
            seq([(src, batch), (src, summed), (y, free)]),
            seq([(src, batch), (x, free), (y, free)]),
        ]
    }

    /// Elements this arrangement sends through `permute`; `out` is the
    /// order the spec wants of a final result.
    fn moved(&self, out: Option<&[u8]>, ext: &[usize; 26]) -> u64 {
        let [xo, yo, ro] = self.orders();
        let (x, y) = (self.x, self.y);
        let mut moved = 0;
        if !xo.eq(x.labels.iter().copied()) {
            moved += size(x.mask, ext);
        }
        if !yo.eq(y.labels.iter().copied()) {
            moved += size(y.mask, ext);
        }
        if out.is_some_and(|out| !ro.eq(out.iter().copied())) {
            moved += size((x.mask | y.mask) & !self.summed, ext);
        }
        moved
    }
}

/// Exhaustive search over pairwise orders on label masks.
struct Search<'a> {
    operands: usize,
    out: u32,
    ext: &'a [usize; 26],
    /// The order being tried.
    pairs: Pairs,
    /// `(flops, peak intermediate, order)` of the best order so far.
    best: Option<(u64, u64, Pairs)>,
}

impl Search<'_> {
    /// Tries every pair of `live` next, at the costs spent so far.
    fn go(&mut self, live: &[u32], flops: u64, peak: u64) {
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                let needed = (0..live.len())
                    .filter(|&k| k != i && k != j)
                    .fold(self.out, |m, k| m | live[k]);
                let union = live[i] | live[j];
                let result = union & !(live[i] & live[j] & !needed);
                let flops = flops.saturating_add(size(union, self.ext).saturating_mul(2));
                // The last result is the output, not an intermediate.
                let last = live.len() == 2;
                let peak = if last { peak } else { peak.max(size(result, self.ext)) };
                // Costs only grow along an order, so one already no better
                // than the best is finished; orders arrive in lexicographic
                // sequence, which makes the first of any tie the one kept.
                if self.best.is_some_and(|(f, p, _)| (flops, peak) >= (f, p)) {
                    continue;
                }
                self.pairs[self.operands - live.len()] = (i, j);
                if last {
                    self.best = Some((flops, peak, self.pairs));
                    continue;
                }
                let mut next = [0u32; MAX_OPERANDS];
                let next = &mut next[..live.len() - 1];
                next[..j].copy_from_slice(&live[..j]);
                next[j..].copy_from_slice(&live[j + 1..]);
                next[i] = result;
                self.go(next, flops, peak);
            }
        }
    }
}

/// A contraction network lowered to pairwise GEMM steps in cost order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    operands: usize,
    steps: Vec<Step>,
}

impl Plan {
    /// Plans `spec` for operands of the given shapes.
    pub fn new(spec: &str, dims: &[&[usize]]) -> Result<Plan> {
        let bad = |why: String| {
            TensorError::InvalidArgument(format!("contract spec `{spec}`: {why}"))
        };
        let (inputs, output) = spec.split_once("->").ok_or_else(|| bad("missing `->`".into()))?;
        let labels_of = |side: &str| -> Result<Vec<u8>> {
            let mut labels = Vec::with_capacity(side.len());
            for ch in side.bytes() {
                if !ch.is_ascii_lowercase() {
                    return Err(bad(format!("label `{}` (only a-z allowed)", ch as char)));
                }
                if labels.contains(&(ch - b'a')) {
                    return Err(bad(format!("label `{}` repeats inside `{side}`", ch as char)));
                }
                labels.push(ch - b'a');
            }
            Ok(labels)
        };
        let n = inputs.split(',').count();
        if !(2..=MAX_OPERANDS).contains(&n) || n != dims.len() {
            return Err(bad(format!(
                "names {n} operands for {} tensors (2 to {MAX_OPERANDS} supported)",
                dims.len()
            )));
        }
        let out = labels_of(output)?;
        let out_mask = mask(&out);
        let mut ext = [1usize; 26];
        let (mut seen, mut twice) = (0u32, 0u32);
        let mut live = Vec::with_capacity(n);
        for (slot, (side, &d)) in inputs.split(',').zip(dims).enumerate() {
            let labels = labels_of(side)?;
            if labels.len() != d.len() {
                return Err(bad(format!("operand `{side}` labels a rank-{} tensor", d.len())));
            }
            for (&l, &e) in labels.iter().zip(d) {
                if seen >> l & 1 == 1 && ext[l as usize] != e {
                    return Err(TensorError::ShapeMismatch {
                        op: "contract_spec",
                        lhs: vec![ext[l as usize]],
                        rhs: vec![e],
                    });
                }
                ext[l as usize] = e;
            }
            let mask = mask(&labels);
            twice |= seen & mask;
            seen |= mask;
            live.push(Live { slot, labels, mask });
        }
        if out_mask & !seen != 0 {
            return Err(bad("output label missing from every operand".into()));
        }
        if seen & !out_mask & !twice != 0 {
            return Err(bad("a label is summed out of a single operand".into()));
        }

        let mut masks = [0u32; MAX_OPERANDS];
        for (m, v) in masks.iter_mut().zip(&live) {
            *m = v.mask;
        }
        let mut search = Search {
            operands: n,
            out: out_mask,
            ext: &ext,
            pairs: [(0, 0); MAX_OPERANDS - 1],
            best: None,
        };
        search.go(&masks[..n], 0, 0);
        let (.., pairs) = search.best.expect("two or more operands have an order");

        let mut steps = Vec::with_capacity(n - 1);
        for &(i, j) in &pairs[..n - 1] {
            let q = live.remove(j);
            let p = &live[i];
            let needed = live
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .fold(out_mask, |m, (_, v)| m | v.mask);
            let shared = p.mask & q.mask;
            let (batch, summed) = (shared & needed, shared & !needed);
            // The output order only constrains the last step.
            let out_order = (live.len() == 1).then_some(&out[..]);
            let arr = [(p, &q, p), (p, &q, &q), (&q, p, &q), (&q, p, p)]
                .map(|(x, y, src)| Arrangement { x, y, src, batch, summed })
                .into_iter()
                .min_by_key(|arr| arr.moved(out_order, &ext))
                .expect("four candidates");
            let (x, y) = (arr.x, arr.y);
            let [xo, yo, ro] = arr.orders();
            let at = |v: &Live, l: u8| v.labels.iter().position(|&m| m == l).expect("label of v");
            let labels: Vec<u8> = ro.collect();
            let out_perm = out_order.filter(|&out| labels != out).map(|out| {
                out.iter()
                    .map(|l| labels.iter().position(|m| m == l).expect("validated above"))
                    .collect()
            });
            steps.push(Step::new(
                (x.slot, |k| ext[x.labels[k] as usize], xo.map(|l| at(x, l)).collect()),
                (y.slot, |k| ext[y.labels[k] as usize], yo.map(|l| at(y, l)).collect()),
                batch.count_ones() as usize,
                summed.count_ones() as usize,
                out_perm,
            ));
            live[i] = Live { slot: n + steps.len() - 1, mask: mask(&labels), labels };
        }
        Ok(Plan { operands: n, steps })
    }

    /// The pairwise steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Total GEMM flops of the plan.
    pub fn flops(&self) -> u64 {
        self.steps.iter().fold(0, |f, s| f.saturating_add(s.flops()))
    }

    /// Elements of the largest intermediate (the output is not one).
    pub fn peak_intermediate(&self) -> usize {
        let inner = &self.steps[..self.steps.len() - 1];
        inner.iter().map(Step::out_len).max().unwrap_or(0)
    }

    /// Walks the steps over `l`. Each value feeds exactly one step, so
    /// intermediates are released as soon as they are consumed.
    pub fn run<L: Lowering>(
        &self,
        l: &mut L,
        operands: impl IntoIterator<Item = L::Val>,
    ) -> Result<L::Val> {
        let mut slots: Vec<Option<L::Val>> = operands.into_iter().map(Some).collect();
        if slots.len() != self.operands {
            return Err(TensorError::InvalidArgument(format!(
                "contract plan for {} operands run on {}",
                self.operands,
                slots.len()
            )));
        }
        for step in &self.steps {
            let (a, b) = step.slots;
            let a = slots[a].take().expect("a plan reads each slot once");
            let b = slots[b].take().expect("a plan reads each slot once");
            slots.push(Some(step.run(l, a, b)?));
        }
        Ok(slots.pop().flatten().expect("a plan has at least one step"))
    }
}

/// Reference nested-loop implementation of [`contract`], used as the oracle
/// in tests and the Fig. 1 bench. O(|out| · |contracted|).
pub fn contract_naive(
    a: &Tensor,
    b: &Tensor,
    axes_a: &[usize],
    axes_b: &[usize],
) -> Result<Tensor> {
    let (free_a, free_b) = split_axes(a, b, axes_a, axes_b)?;
    let mut out_dims: Vec<usize> = free_a.iter().map(|&k| a.dims()[k]).collect();
    out_dims.extend(free_b.iter().map(|&k| b.dims()[k]));
    let sum_dims: Vec<usize> = axes_a.iter().map(|&k| a.dims()[k]).collect();

    let out_shape = Shape::new(&out_dims);
    let sum_shape = Shape::new(&sum_dims);
    let mut out = Tensor::zeros(&out_dims);

    let mut ia = vec![0usize; a.rank()];
    let mut ib = vec![0usize; b.rank()];
    for (flat, out_idx) in IndexIter::new(&out_shape).enumerate() {
        let mut acc = 0.0f32;
        for sum_idx in IndexIter::new(&sum_shape) {
            for (k, &ax) in free_a.iter().enumerate() {
                ia[ax] = out_idx[k];
            }
            for (k, &ax) in axes_a.iter().enumerate() {
                ia[ax] = sum_idx[k];
            }
            for (k, &bx) in free_b.iter().enumerate() {
                ib[bx] = out_idx[free_a.len() + k];
            }
            for (k, &bx) in axes_b.iter().enumerate() {
                ib[bx] = sum_idx[k];
            }
            acc += a.get(&ia)? * b.get(&ib)?;
        }
        out.data_mut()[flat] = acc;
    }
    Ok(out)
}

/// Outer product: contraction over zero axes.
pub fn outer(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    contract(a, b, &[], &[])
}

/// Full inner product of two same-shaped tensors (contracts every axis).
pub fn inner(a: &Tensor, b: &Tensor) -> Result<f32> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "inner",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, init, ops};

    #[test]
    fn contract_reduces_to_matmul() {
        let mut r = init::rng(1);
        let a = init::uniform(&[4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[5, 6], -1.0, 1.0, &mut r);
        let c = contract(&a, &b, &[1], &[0]).unwrap();
        let m = ops::matmul(&a, &b).unwrap();
        assert!(approx_eq(&c, &m, 1e-5));
    }

    #[test]
    fn contract_matches_naive_rank3() {
        let mut r = init::rng(2);
        let a = init::uniform(&[3, 4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[5, 4, 2], -1.0, 1.0, &mut r);
        // Contract a's axes (1,2) with b's axes (1,0).
        let fast = contract(&a, &b, &[1, 2], &[1, 0]).unwrap();
        let slow = contract_naive(&a, &b, &[1, 2], &[1, 0]).unwrap();
        assert_eq!(fast.dims(), &[3, 2]);
        assert!(approx_eq(&fast, &slow, 1e-4));
    }

    #[test]
    fn contract_output_axis_order() {
        // Free axes of a then free axes of b, in original order.
        let a = Tensor::zeros(&[2, 3, 4]);
        let b = Tensor::zeros(&[4, 5, 3]);
        let c = contract(&a, &b, &[2], &[0]).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5, 3]);
    }

    #[test]
    fn contract_over_zero_axes_is_outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = outer(&a, &b).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn full_contraction_yields_scalar_tensor() {
        let mut r = init::rng(3);
        let a = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let c = contract(&a, &b, &[0, 1], &[0, 1]).unwrap();
        assert_eq!(c.dims(), &[] as &[usize]);
        let expect = inner(&a, &b).unwrap();
        assert!((c.item().unwrap() - expect).abs() < 1e-4);
    }

    #[test]
    fn contract_validation() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(contract(&a, &b, &[1], &[0]).is_err()); // 3 != 4
        assert!(contract(&a, &b, &[1], &[0, 1]).is_err()); // arity
        assert!(contract(&a, &b, &[2], &[0]).is_err()); // out of range
        assert!(contract(&a, &a, &[0, 0], &[0, 1]).is_err()); // repeated
    }

    #[test]
    fn inner_requires_same_shape() {
        assert!(inner(&Tensor::zeros(&[2]), &Tensor::zeros(&[3])).is_err());
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(inner(&a, &a).unwrap(), 5.0);
    }

    /// The order `ops::lowrank` fuses a Tensor-Ring update in: on every
    /// shape with `r ≥ 2` and `I, O > r`, at any row count, the planner
    /// shrinks `x·A` with `A` read as `[I, (x, y)]`, mixes each row by its
    /// seed `C[n, z, x]`, and expands with `B` read as `[(z, y), O]`.
    #[test]
    fn the_tr_update_plans_shrink_mix_expand() {
        for r in 2..=8 {
            let widths: Vec<usize> = (r + 1..=r + 9).chain([64, 256]).collect();
            for &i in &widths {
                for &o in &widths {
                    for n in (1..=17).chain([64, 256, 1024]) {
                        let dims: [&[usize]; 4] = [&[n, i], &[r, i, r], &[r, o, r], &[n, r, r]];
                        let plan = Plan::new("ni,xiy,yoz,nzx->no", &dims).unwrap();
                        let what = format!("n={n} I={i} O={o} r={r}");
                        let [shrink, mix, expand] = plan.steps() else { panic!("{what}") };
                        let view = |s: &Step| (s.slots, s.sizes, s.lhs.perm.clone(), s.rhs.perm.clone());
                        assert_eq!(view(shrink), ((0, 1), [1, n, i, r * r], None, Some(vec![1, 0, 2])), "{what}");
                        assert_eq!(view(mix), ((3, 4), [n, r, r, r], None, None), "{what}");
                        assert_eq!(view(expand), ((5, 2), [1, n, r * r, o], None, Some(vec![2, 0, 1])), "{what}");
                        assert_eq!(expand.out_perm, None, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn contraction_order_invariance_matrix_chain() {
        // (A·B)·C == A·(B·C) via contract.
        let mut r = init::rng(9);
        let a = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[4, 5], -1.0, 1.0, &mut r);
        let c = init::uniform(&[5, 2], -1.0, 1.0, &mut r);
        let left = contract(&contract(&a, &b, &[1], &[0]).unwrap(), &c, &[1], &[0]).unwrap();
        let right = contract(&a, &contract(&b, &c, &[1], &[0]).unwrap(), &[1], &[0]).unwrap();
        assert!(approx_eq(&left, &right, 1e-4));
    }
}
