//! The contraction planner against the `einsum` oracle: planned pairwise
//! GEMM steps must agree with direct summation on every spec the library
//! hands it and on random ones, reject what the grammar excludes, and pick
//! the orders the cost model promises.

use metalora_tensor::contract::{contract, contract_spec, Plan};
use metalora_tensor::einsum::einsum;
use metalora_tensor::{init, max_rel_err, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

fn labels(idx: &[usize]) -> String {
    idx.iter().map(|&l| (b'a' + l as u8) as char).collect()
}

/// A random spec the planner's grammar admits, with its operand shapes:
/// every label lands in a random set of operands (two or more unless the
/// output keeps it), so free, contracted, batch and hyper-edge labels all
/// occur; axis orders are shuffled and extents include 1.
fn random_spec(rng: &mut StdRng) -> (String, Vec<Vec<usize>>) {
    let n_ops = rng.gen_range(2usize..=4);
    let n_labels = rng.gen_range(1usize..=6);
    let ext: Vec<usize> = (0..n_labels).map(|_| rng.gen_range(1usize..=4)).collect();
    let mut ops: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    let mut out = Vec::new();
    for l in 0..n_labels {
        let mut holders: Vec<usize> = (0..n_ops).collect();
        holders.shuffle(rng);
        let kept = rng.gen_range(0u32..2) == 1;
        let min = if kept { 1 } else { 2 };
        holders.truncate(rng.gen_range(min..=n_ops));
        for h in holders {
            ops[h].push(l);
        }
        if kept {
            out.push(l);
        }
    }
    for o in ops.iter_mut() {
        o.shuffle(rng);
    }
    out.shuffle(rng);
    let ins: Vec<String> = ops.iter().map(|o| labels(o)).collect();
    let dims = ops.iter().map(|o| o.iter().map(|&l| ext[l]).collect()).collect();
    (format!("{}->{}", ins.join(","), labels(&out)), dims)
}

fn operands(dims: &[Vec<usize>], rng: &mut StdRng) -> Vec<Tensor> {
    dims.iter().map(|d| init::uniform(d, -1.0, 1.0, rng)).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn plan(spec: &str, dims: &[Vec<usize>]) -> Plan {
    let dims: Vec<&[usize]> = dims.iter().map(|d| &d[..]).collect();
    Plan::new(spec, &dims).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_specs_match_einsum(seed in 0u64..1_000_000) {
        let mut rng = init::rng(seed);
        let (spec, dims) = random_spec(&mut rng);
        let ts = operands(&dims, &mut rng);
        let refs: Vec<&Tensor> = ts.iter().collect();
        let got = contract_spec(&spec, &refs).unwrap();
        let want = einsum(&spec, &refs).unwrap();
        prop_assert!(max_rel_err(&got, &want) <= 1e-5, "{spec} {dims:?}");
        // The plan is a pure function of (spec, dims).
        prop_assert_eq!(plan(&spec, &dims), plan(&spec, &dims));
    }

    #[test]
    fn library_specs_match_einsum(
        n in 1usize..4, i in 1usize..7, o in 1usize..7, r in 1usize..4, p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cases: [(&str, Vec<Vec<usize>>); 5] = [
            ("xiy,yoz,zx->io", vec![vec![r, i, r], vec![r, o, r], vec![r, r]]),
            ("ir,r,ro->io", vec![vec![i, r], vec![r], vec![r, o]]),
            ("sxy,yoz,zx->so", vec![vec![i * p, r, r], vec![r, o, r], vec![r, r]]),
            ("ni,xiy,yoz,nzx->no", vec![vec![n, i], vec![r, i, r], vec![r, o, r], vec![n, r, r]]),
            ("nxyp,nzx,yoz->nop", vec![vec![n, r, r, p], vec![n, r, r], vec![r, o, r]]),
        ];
        let mut rng = init::rng(seed);
        for (spec, dims) in cases {
            let ts = operands(&dims, &mut rng);
            let refs: Vec<&Tensor> = ts.iter().collect();
            let got = contract_spec(spec, &refs).unwrap();
            let want = einsum(spec, &refs).unwrap();
            prop_assert!(max_rel_err(&got, &want) <= 1e-5, "{spec} {dims:?}");
        }
    }

    #[test]
    fn contract_is_the_two_operand_plan_bitwise(
        free_a in 0usize..3, free_b in 0usize..3, summed in 0usize..3, seed in 0u64..10_000,
    ) {
        // Free and summed axes interleave at random in both operands; the
        // summed labels keep one relative order, so `contract`'s axis
        // lists and the plan's label order name the same k sequence.
        let mut rng = init::rng(seed);
        let n_labels = free_a + free_b + summed;
        let ext: Vec<usize> = (0..n_labels).map(|_| rng.gen_range(1usize..=5)).collect();
        let summed_labels: Vec<usize> = (free_a + free_b..ext.len()).collect();
        let interleave = |free: Vec<usize>, rng: &mut StdRng| {
            let mut slots: Vec<bool> = (0..free.len() + summed).map(|k| k < summed).collect();
            slots.shuffle(rng);
            let (mut f, mut s) = (free.into_iter(), summed_labels.iter().copied());
            let label = |&is_summed: &bool| if is_summed { s.next() } else { f.next() }.unwrap();
            slots.iter().map(label).collect::<Vec<_>>()
        };
        let mut fa: Vec<usize> = (0..free_a).collect();
        fa.shuffle(&mut rng);
        let la = interleave(fa, &mut rng);
        let lb = interleave((free_a..free_a + free_b).collect(), &mut rng);
        let axes = |l: &[usize]| -> Vec<usize> {
            summed_labels.iter().map(|s| l.iter().position(|x| x == s).unwrap()).collect()
        };
        let kept = |l: &usize| !summed_labels.contains(l);
        let out: Vec<usize> = la.iter().chain(&lb).copied().filter(kept).collect();
        let spec = format!("{},{}->{}", labels(&la), labels(&lb), labels(&out));
        let dims = |l: &[usize]| l.iter().map(|&x| ext[x]).collect::<Vec<_>>();
        let a = init::uniform(&dims(&la), -1.0, 1.0, &mut rng);
        let b = init::uniform(&dims(&lb), -1.0, 1.0, &mut rng);
        let pair = contract(&a, &b, &axes(&la), &axes(&lb)).unwrap();
        let planned = contract_spec(&spec, &[&a, &b]).unwrap();
        prop_assert_eq!(pair.dims(), planned.dims());
        prop_assert_eq!(bits(&pair), bits(&planned), "{}", spec);
    }
}

#[test]
fn unsupported_specs_are_errors_not_panics() {
    let m = Tensor::zeros(&[2, 2]);
    let v = Tensor::zeros(&[2]);
    let cases: [(&str, Vec<&Tensor>); 12] = [
        ("ij,jk", vec![&m, &m]),                       // no `->`
        ("ii,ij->j", vec![&m, &m]),                    // label repeated inside an operand
        ("ij,jk->ii", vec![&m, &m]),                   // label repeated in the output
        ("ij,k->k", vec![&m, &v]),                     // i and j summed out of one operand
        ("ij,jk->iz", vec![&m, &m]),                   // output label in no operand
        ("iJ,jk->ik", vec![&m, &m]),                   // not a-z
        ("i,i,i,i,i->i", vec![&v, &v, &v, &v, &v]),    // five operands
        ("ij->ji", vec![&m]),                          // one operand
        ("ij,jk->ik", vec![&m]),                       // operand count
        ("ijk,kl->ijl", vec![&m, &m]),                 // rank
        ("ij,jk->ik", vec![&m, &v]),                   // rank
        ("", vec![]),                                  // nothing at all
    ];
    for (spec, ops) in cases {
        assert!(contract_spec(spec, &ops).is_err(), "`{spec}` must be an error");
    }
    // Extents that disagree on a shared label.
    let wide = Tensor::zeros(&[2, 3]);
    assert!(contract_spec("ij,jk->ik", &[&wide, &wide]).is_err());
}

#[test]
fn dense_tr_contracts_the_seed_first() {
    let (r, i, o) = (4usize, 256usize, 256usize);
    let p = plan("xiy,yoz,zx->io", &[vec![r, i, r], vec![r, o, r], vec![r, r]]);
    assert_eq!(p.steps().len(), 2);
    assert!(p.flops() <= 2 * (r * r * r * i + r * r * i * o) as u64, "{} flops", p.flops());
    assert_eq!(p.peak_intermediate(), r * r * i);
    // The conv-TR dense delta is the same network over s = K·K·I.
    let q = plan("sxy,yoz,zx->so", &[vec![i, r, r], vec![r, o, r], vec![r, r]]);
    assert_eq!((q.flops(), q.peak_intermediate()), (p.flops(), p.peak_intermediate()));
}

#[test]
fn per_row_tr_never_forms_the_r_squared_times_output_intermediate() {
    let (n, r, i, o) = (4usize, 4usize, 256usize, 256usize);
    let p = plan(
        "ni,xiy,yoz,nzx->no",
        &[vec![n, i], vec![r, i, r], vec![r, o, r], vec![n, r, r]],
    );
    assert!(p.peak_intermediate() <= n * (r * r).max(o), "{}", p.peak_intermediate());
    assert_eq!(p.flops(), 2 * (n * i * r * r + n * r * r * r + n * r * r * o) as u64);
}

#[test]
fn conv_tr_tail_stays_within_the_output_size() {
    let (n, r, p_) = (4usize, 4usize, 64usize);
    for o in [16usize, 64, 128] {
        let p = plan(
            "nxyp,nzx,yoz->nop",
            &[vec![n, r, r, p_], vec![n, r, r], vec![r, o, r]],
        );
        let peak = p.peak_intermediate();
        assert!(peak <= n * p_ * (r * r).max(o), "o = {o}: {peak}");
        let bound = 2 * (n * r * r * r * p_.min(o) + n * p_ * r * r * o) as u64;
        assert!(p.flops() <= bound, "o = {o}");
    }
}

#[test]
fn cp_hyper_edge_is_a_batch_label() {
    // `r` sits in all three operands: it must survive the first pairing
    // (as a batch label) and be summed by the second.
    let (i, r, o) = (64usize, 4usize, 48usize);
    let p = plan("ir,r,ro->io", &[vec![i, r], vec![r], vec![r, o]]);
    assert_eq!(p.steps().len(), 2);
    assert_eq!(p.flops(), 2 * (r * i.min(o) + i * r * o) as u64);
    assert_eq!(p.peak_intermediate(), r * i.min(o));
}
