//! The segmented low-rank pass ≡ the `ops` chain it replaces, **bitwise**.
//!
//! [`lowrank`] adds every segment's scaled update onto its rows of `y` in
//! one pass. Each segment must leave exactly the bits of the per-request
//! chain the serving engine ran before it — `matmul → matmul`
//! (LoRA), `matmul → mul → matmul` (MetaLoRA-CP) or the planner's
//! `contract_spec` (MetaLoRA-TR), then `scale` and `add` onto the base
//! rows — on every shape of the grid:
//!
//! * 0 to 17 rows per segment, so strips of 8 rows end short and full;
//! * rank `r ∈ {1, 2, 3, 4, 8}`;
//! * ragged `I, O` (none a multiple of 16), some `≤ r` — the degenerate
//!   Tensor-Ring shapes the pass hands to the planner — and empty ones;
//! * wide `I ∈ {64, 256}`, `O ∈ {64, 65, 130, 256}` — the served shapes,
//!   long `k` chains and several 64-column blocks per row — over a reduced
//!   set of row counts;
//! * NaN / ±Inf input rows, `-0.0` input and base rows, and scalings of
//!   `0.0` and below zero;
//! * one mixed table per shape: LoRA, pinned and per-row CP, pinned and
//!   per-row TR segments interleaved.
//!
//! Both sides run at every SIMD level the host has and under both forced
//! kernel paths. Malformed segments are typed errors that write nothing.

use metalora_tensor::contract::contract_spec;
use metalora_tensor::ops::{
    self, lowrank, simd_level, with_kernel_path, KernelPath, Mix, Seed, Segment, SimdLevel,
};
use metalora_tensor::{init, Tensor, TensorError};

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
const PATHS: [KernelPath; 2] = [KernelPath::Reference, KernelPath::Packed];
const RANKS: [usize; 5] = [1, 2, 3, 4, 8];
/// Rows per segment on the ragged shapes.
const ALL_ROWS: [usize; 18] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17];
/// Rows per segment on the wide shapes: empty, one, and past one and two
/// 8-row strips.
const WIDE_ROWS: [usize; 4] = [0, 1, 9, 17];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Lora,
    CpPinned,
    CpRows,
    TrPinned,
    TrRows,
}

const KINDS: [Kind; 5] = [Kind::Lora, Kind::CpPinned, Kind::CpRows, Kind::TrPinned, Kind::TrRows];

/// One segment's operands, owned.
struct Tenant {
    kind: Kind,
    rows: std::ops::Range<usize>,
    down: Tensor,
    up: Tensor,
    seed: Option<Tensor>,
    scaling: f32,
}

impl Tenant {
    fn segment(&self) -> Segment<'_> {
        let seed = self.seed.as_ref();
        let mix = match self.kind {
            Kind::Lora => Mix::None,
            Kind::CpPinned => Mix::Gate(Seed::Pinned(seed.unwrap())),
            Kind::CpRows => Mix::Gate(Seed::Rows(seed.unwrap())),
            Kind::TrPinned => Mix::Ring(Seed::Pinned(seed.unwrap())),
            Kind::TrRows => Mix::Ring(Seed::Rows(seed.unwrap())),
        };
        Segment { rows: self.rows.clone(), down: &self.down, up: &self.up, scaling: self.scaling, mix }
    }

    /// The seed as `[n, width]` rows, a pinned one repeated.
    fn seed_rows(&self, n: usize) -> Tensor {
        let seed = self.seed.as_ref().unwrap();
        match self.kind {
            Kind::CpPinned | Kind::TrPinned => {
                Tensor::from_vec(seed.data().repeat(n), &[n, seed.len()]).unwrap()
            }
            _ => seed.clone(),
        }
    }

    /// The unscaled update of `x:[n, I]` through today's `ops` chain.
    fn chain(&self, x: &Tensor) -> Tensor {
        let n = x.dims()[0];
        match self.kind {
            Kind::Lora => ops::matmul(&ops::matmul(x, &self.down).unwrap(), &self.up).unwrap(),
            Kind::CpPinned | Kind::CpRows => {
                let xa = ops::matmul(x, &self.down).unwrap();
                let gated = ops::mul(&xa, &self.seed_rows(n)).unwrap();
                ops::matmul(&gated, &self.up).unwrap()
            }
            Kind::TrPinned | Kind::TrRows => {
                let r = self.up.dims()[0];
                let c = self.seed_rows(n).reshape(&[n, r, r]).unwrap();
                contract_spec("ni,xiy,yoz,nzx->no", &[x, &self.down, &self.up, &c]).unwrap()
            }
        }
    }
}

/// A mixed table over `x:[N, i]` / `y:[N, o]` at rank `r`: every kind at
/// every row count of `counts`, interleaved, with poisoned and signed-zero
/// rows among them.
fn table(r: usize, i: usize, o: usize, counts: &[usize], seed: u64) -> (Tensor, Tensor, Vec<Tenant>) {
    let mut rng = init::rng(seed);
    let mut tenants = Vec::new();
    let mut next = 0;
    for &rows in counts {
        for kind in KINDS {
            let s = tenants.len();
            let mut u = |dims: &[usize]| init::uniform(dims, -1.0, 1.0, &mut rng);
            let ring = matches!(kind, Kind::TrPinned | Kind::TrRows);
            let (down, up) = if ring { (u(&[r, i, r]), u(&[r, o, r])) } else { (u(&[i, r]), u(&[r, o])) };
            let width = if ring { r * r } else { r };
            let seed = match kind {
                Kind::Lora => None,
                Kind::CpPinned | Kind::TrPinned => Some(u(&[width])),
                Kind::CpRows | Kind::TrRows => Some(u(&[rows, width])),
            };
            let scaling = [0.75, -1.5, 2.0, 0.0, 1.0][s % 5];
            tenants.push(Tenant { kind, rows: next..next + rows, down, up, seed, scaling });
            next += rows;
        }
    }
    let mut x = init::uniform(&[next, i], -1.0, 1.0, &mut rng);
    let mut y = init::uniform(&[next, o], -1.0, 1.0, &mut rng);
    for (s, t) in tenants.iter().enumerate() {
        let Some(first) = t.rows.clone().next().filter(|_| i > 0) else { continue };
        let xrow = &mut x.data_mut()[first * i..(first + 1) * i];
        match s % 7 {
            2 => xrow[s % i] = f32::NAN,
            4 => xrow[s % i] = f32::INFINITY,
            5 => xrow[s % i] = f32::NEG_INFINITY,
            6 => {
                xrow.fill(-0.0);
                y.data_mut()[first * o..(first + 1) * o].fill(-0.0);
            }
            _ => {}
        }
    }
    (x, y, tenants)
}

/// `y` after each segment's chain, scaled and added onto its rows in
/// table order.
fn expected(x: &Tensor, y: &Tensor, tenants: &[Tenant]) -> Tensor {
    let (i, o) = (x.dims()[1], y.dims()[1]);
    let mut out = y.clone();
    for t in tenants.iter().filter(|t| !t.rows.is_empty()) {
        let rows = t.rows.clone();
        let n = rows.len();
        let xs = Tensor::from_vec(x.data()[rows.start * i..rows.end * i].to_vec(), &[n, i]).unwrap();
        let base = Tensor::from_vec(out.data()[rows.start * o..rows.end * o].to_vec(), &[n, o]).unwrap();
        let sum = ops::add(&base, &ops::scale(&t.chain(&xs), t.scaling)).unwrap();
        out.data_mut()[rows.start * o..rows.end * o].copy_from_slice(sum.data());
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `(I, O, row counts)`: the ragged grid at every row count, then the
/// wide shapes at [`WIDE_ROWS`].
fn shapes(r: usize) -> Vec<(usize, usize, &'static [usize])> {
    let mut v = Vec::new();
    for i in [0, 1, r, r + 1, 17, 33] {
        for o in [0, 1, r, r + 2, 19, 35] {
            if !v.iter().any(|&(vi, vo, _)| (vi, vo) == (i, o)) {
                v.push((i, o, &ALL_ROWS[..]));
            }
        }
    }
    for i in [64, 256] {
        for o in [64, 65, 130, 256] {
            v.push((i, o, &WIDE_ROWS[..]));
        }
    }
    v
}

#[test]
fn the_pass_is_bitwise_the_ops_chain_on_every_shape_level_and_path() {
    for r in RANKS {
        for (i, o, counts) in shapes(r) {
            let (x, y, tenants) = table(r, i, o, counts, (r * 1000 + i * 40 + o) as u64);
            let segments: Vec<Segment> = tenants.iter().map(Tenant::segment).collect();
            for level in LEVELS.into_iter().filter(|&l| l <= simd_level()) {
                for path in PATHS {
                    let (want, got) = with_kernel_path(level, || {
                        with_kernel_path(path, || {
                            let mut got = y.clone();
                            lowrank(&x, &mut got, &segments).unwrap();
                            (expected(&x, &y, &tenants), got)
                        })
                    });
                    let what = format!("r={r} I={i} O={o} {path:?}@{level:?}");
                    for (t, seg) in tenants.iter().zip(0..) {
                        let span = t.rows.start * o..t.rows.end * o;
                        assert_eq!(
                            bits(&got)[span.clone()],
                            bits(&want)[span],
                            "{what}: segment {seg} ({:?}, {} rows)",
                            t.kind,
                            t.rows.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_pinned_seed_is_its_tiled_rows() {
    let (x, y, tenants) = table(4, 33, 19, &ALL_ROWS, 5);
    for t in tenants.iter().filter(|t| matches!(t.kind, Kind::CpPinned | Kind::TrPinned)) {
        let rows_seed = t.seed_rows(t.rows.len());
        let mut seg = t.segment();
        let (mut pinned, mut tiled) = (y.clone(), y.clone());
        lowrank(&x, &mut pinned, std::slice::from_ref(&seg)).unwrap();
        seg.mix = match seg.mix {
            Mix::Gate(_) => Mix::Gate(Seed::Rows(&rows_seed)),
            _ => Mix::Ring(Seed::Rows(&rows_seed)),
        };
        lowrank(&x, &mut tiled, &[seg]).unwrap();
        assert_eq!(bits(&pinned), bits(&tiled), "{:?}, {} rows", t.kind, t.rows.len());
    }
}

#[test]
fn malformed_segments_are_typed_errors_that_write_nothing() {
    let (x, y, tenants) = table(2, 5, 6, &ALL_ROWS, 9);
    let valid: Vec<Segment> = tenants.iter().map(Tenant::segment).collect();
    let n = x.dims()[0];
    let lora = tenants.iter().find(|t| t.kind == Kind::Lora && t.rows.len() == 3).unwrap();
    let tr = tenants.iter().find(|t| t.kind == Kind::TrRows && t.rows.len() == 3).unwrap();
    let v = |dims: &[usize]| Tensor::zeros(dims);
    let (flat, wide, core, narrow_core, seed3) = (v(&[5]), v(&[2, 7]), v(&[2, 5, 2]), v(&[2, 4, 2]), v(&[3, 3]));
    // What is wrong, the segment, and the error variant it must yield.
    type Case<'a> = (&'static str, Segment<'a>, fn(&TensorError) -> bool);
    let cases: Vec<Case> = vec![
        ("rank-1 down factor", Segment { down: &flat, ..lora.segment() }, is_invalid),
        ("rank-3 down factor", Segment { down: &core, ..lora.segment() }, is_invalid),
        ("B wider than y", Segment { up: &wide, ..lora.segment() }, is_mismatch),
        ("CP seed of the wrong width", Segment { mix: Mix::Gate(Seed::Rows(&seed3)), ..lora.segment() }, is_invalid),
        ("CP pinned seed of the wrong length", Segment { mix: Mix::Gate(Seed::Pinned(&flat)), ..lora.segment() }, is_invalid),
        ("rank-2 TR core", Segment { up: &wide, ..tr.segment() }, is_invalid),
        ("TR seed of the wrong width", Segment { mix: Mix::Ring(Seed::Rows(&seed3)), ..tr.segment() }, is_invalid),
        ("TR core of the wrong input width", Segment { down: &narrow_core, ..tr.segment() }, is_mismatch),
        ("rows past the end", Segment { rows: n - 1..n + 1, ..lora.segment() }, is_invalid),
    ];
    for (what, bad, kind) in cases {
        // The bad segment last: nothing before it may have been written.
        let mut table = valid.clone();
        table.push(bad);
        let mut got = y.clone();
        let err = lowrank(&x, &mut got, &table).expect_err(what);
        assert!(kind(&err), "{what}: {err:?}");
        assert_eq!(bits(&got), bits(&y), "{what}: a row was written");
    }
    let mut short = Tensor::zeros(&[n - 1, 6]);
    assert!(is_mismatch(&lowrank(&x, &mut short, &valid).unwrap_err()));
    let mut flat_y = Tensor::zeros(&[n * 6]);
    assert!(is_invalid(&lowrank(&x, &mut flat_y, &valid).unwrap_err()));
}

fn is_invalid(e: &TensorError) -> bool {
    matches!(e, TensorError::InvalidArgument(_))
}

fn is_mismatch(e: &TensorError) -> bool {
    matches!(e, TensorError::ShapeMismatch { .. })
}
