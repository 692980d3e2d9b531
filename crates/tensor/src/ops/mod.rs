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
    epilogue_pass, gemm, matmul, matmul_transpose_a, matmul_transpose_b, GemmDesc, Layout,
};
pub use microkernel::{simd_level, with_kernel_path, KernelPath, SimdLevel};
pub(crate) use matmul::run_gemm;
pub use permute::{permute, swap_axes, transpose2d};
pub use reduce::{argmax, max_axis, mean_all, mean_axis, sum_all, sum_axis};
