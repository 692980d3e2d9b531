//! Numeric kernels over [`crate::Tensor`]: elementwise arithmetic with
//! broadcasting, reductions, axis permutation, concatenation and a blocked
//! matrix multiply.

mod concat;
mod elementwise;
mod matmul;
pub mod microkernel;
mod permute;
mod reduce;

pub use concat::concat;
pub use elementwise::{add, add_scaled, div, gelu, map, mul, neg, scale, sub, zip_with};
pub use matmul::{
    bmm, bmm_transpose_a, bmm_transpose_b, epilogue_pass, gemm, matmul,
    matmul_transpose_a, matmul_transpose_b, GemmDesc, Layout,
};
pub use microkernel::{
    simd_level, use_packed, with_kernel_path, KernelPath, SimdLevel, PACK_MIN_FLOPS,
};
pub use permute::{permute, swap_axes, transpose2d};
pub use reduce::{argmax, max_axis, mean_all, mean_axis, sum_all, sum_axis};
