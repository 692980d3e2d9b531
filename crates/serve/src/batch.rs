//! The request batcher and row packing helpers.
//!
//! Batching exists to run what requests share once: all dynamic MetaLoRA
//! rows of one batch are stacked into a single `[ΣN, D]` matrix and pushed
//! through the mapping MLP once, and the rows of every request served
//! factored are stacked into one `[ΣN, I]` matrix for one product with
//! the frozen base. Because matmul computes rows independently (the
//! kernel layer's bitwise row-invariance), each row's seed and base
//! output are bitwise identical to what a one-request-at-a-time engine
//! would produce — the `batcher_determinism` suite asserts it.

use crate::store::TenantId;
use crate::Result;
use metalora_tensor::{Tensor, TensorError};

/// One inference request: a tenant id routing to a stored adapter, and an
/// input of `[N, in]` rows (dense) or `[N, C, H, W]` (conv tenants).
#[derive(Clone, Debug)]
pub struct Request {
    /// The adapter to apply.
    pub tenant: TenantId,
    /// The input rows.
    pub x: Tensor,
}

impl Request {
    /// Convenience constructor.
    pub fn new(tenant: TenantId, x: Tensor) -> Self {
        Request { tenant, x }
    }

    /// Leading (row/batch) extent of the input — the `N` every per-request
    /// GEMM of the forward runs over; 0 for a rank-0 input.
    pub fn rows(&self) -> usize {
        self.x.dims().first().copied().unwrap_or(0)
    }
}

/// Accumulates requests into fixed-size batches.
#[derive(Default)]
pub struct Batcher {
    pending: Vec<Request>,
    max_batch: usize,
}

impl Batcher {
    /// A batcher that releases batches of at most `max_batch` requests.
    pub fn new(max_batch: usize) -> Self {
        Batcher {
            pending: Vec::new(),
            max_batch: max_batch.max(1),
        }
    }

    /// Adds a request; returns a full batch once `max_batch` accumulate.
    pub fn push(&mut self, req: Request) -> Option<Vec<Request>> {
        self.pending.push(req);
        (self.pending.len() >= self.max_batch).then(|| self.flush())
    }

    /// Releases whatever is pending (possibly empty) — the ragged tail.
    pub fn flush(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.pending)
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The configured batch size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

/// Stacks `[n_i, D]` row blocks into one `[Σn_i, D]` matrix.
pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
    if parts.is_empty() {
        return Err(TensorError::InvalidArgument(
            "concat_rows: empty input".into(),
        ));
    }
    if parts.iter().any(|p| p.dims().len() != 2) {
        return Err(TensorError::InvalidArgument(
            "concat_rows: inputs must be 2-D".into(),
        ));
    }
    let d = parts[0].dims()[1];
    let mut rows = 0;
    for p in parts {
        if p.dims()[1] != d {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: parts[0].dims().to_vec(),
                rhs: p.dims().to_vec(),
            });
        }
        rows += p.dims()[0];
    }
    let mut data = Vec::with_capacity(rows * d);
    for p in parts {
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(data, &[rows, d])
}

/// Splits a `[Σn_i, D]` matrix back into blocks of `counts[i]` rows.
pub fn split_rows(stacked: &Tensor, counts: &[usize]) -> Result<Vec<Tensor>> {
    if stacked.dims().len() != 2 {
        return Err(TensorError::InvalidArgument(
            "split_rows: input must be 2-D".into(),
        ));
    }
    let (rows, d) = (stacked.dims()[0], stacked.dims()[1]);
    if counts.iter().sum::<usize>() != rows {
        return Err(TensorError::InvalidArgument(format!(
            "split_rows: counts sum to {}, input has {rows} rows",
            counts.iter().sum::<usize>()
        )));
    }
    let mut out = Vec::with_capacity(counts.len());
    let mut offset = 0;
    for &n in counts {
        let slice = stacked.data()[offset * d..(offset + n) * d].to_vec();
        out.push(Tensor::from_vec(slice, &[n, d])?);
        offset += n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len() / 2, 2]).unwrap()
    }

    #[test]
    fn batcher_releases_full_batches_and_ragged_tail() {
        let mut b = Batcher::new(3);
        assert!(b.push(Request::new(1, rows(&[1.0, 2.0]))).is_none());
        assert!(b.push(Request::new(2, rows(&[3.0, 4.0]))).is_none());
        let full = b.push(Request::new(3, rows(&[5.0, 6.0]))).unwrap();
        assert_eq!(full.len(), 3);
        assert_eq!(full[2].tenant, 3);
        assert_eq!(b.pending(), 0);
        b.push(Request::new(4, rows(&[7.0, 8.0])));
        let tail = b.flush();
        assert_eq!(tail.len(), 1);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn concat_then_split_roundtrips() {
        let a = rows(&[1.0, 2.0, 3.0, 4.0]); // [2, 2]
        let b = rows(&[5.0, 6.0]); // [1, 2]
        let stacked = concat_rows(&[&a, &b]).unwrap();
        assert_eq!(stacked.dims(), &[3, 2]);
        let parts = split_rows(&stacked, &[2, 1]).unwrap();
        assert_eq!(parts[0].data(), a.data());
        assert_eq!(parts[1].data(), b.data());
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = rows(&[1.0, 2.0]);
        let bad = Tensor::from_vec(vec![0.0; 3], &[1, 3]).unwrap();
        assert!(concat_rows(&[]).is_err());
        assert!(matches!(
            concat_rows(&[&a, &bad]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        // A non-2-D part is a malformed argument wherever it sits, not a
        // mismatch between two shapes.
        for flat in [Tensor::zeros(&[]), Tensor::zeros(&[2])] {
            assert!(matches!(
                concat_rows(&[&a, &flat]),
                Err(TensorError::InvalidArgument(_))
            ));
        }
        assert!(split_rows(&a, &[2]).is_err());
    }
}
