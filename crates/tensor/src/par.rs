//! The worker-count surface the frozen repo benchmark compiles against.
//!
//! Every kernel runs on the calling thread, so there is no worker count
//! to set: [`set_num_threads`] does nothing and [`num_threads`] always
//! returns one. Both stay only because `benchmark/` calls them by name;
//! ROADMAP item 1(d) drops them with the rest of its frozen surface.

/// Does nothing: kernels run on the calling thread.
pub fn set_num_threads(_n: usize) {}

/// Always 1: kernels run on the calling thread.
pub fn num_threads() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d, ConvSpec};
    use crate::{init, ops, Tensor};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// No process-global setting reaches a kernel: after asking for four
    /// workers there is still one, and a GEMM, a conv and a GELU well
    /// above 2^19 flops give the same bits as before the call.
    #[test]
    fn set_num_threads_is_inert() {
        let mut rng = init::rng(42);
        let a = init::uniform(&[96, 128], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[128, 80], -1.0, 1.0, &mut rng);
        let x = init::uniform(&[2, 8, 16, 16], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[3, 3, 8, 16], -1.0, 1.0, &mut rng);
        let g = init::uniform(&[1024, 1024], -4.0, 4.0, &mut rng);
        let spec = ConvSpec::new(3, 1, 1).unwrap();
        let run = || {
            [
                ops::matmul(&a, &b).unwrap(),
                conv2d(&x, &w, spec, spec).unwrap(),
                ops::gelu(&g),
            ]
            .map(|t| bits(&t))
        };
        let before = run();
        set_num_threads(4);
        assert_eq!(num_threads(), 1);
        assert!(before == run(), "a kernel moved after set_num_threads(4)");
    }
}
