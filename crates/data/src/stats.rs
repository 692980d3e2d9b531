//! Statistics for the evaluation harness: sample moments and Welch's
//! two-sided t-test — the paper's "`*` = p < 0.05 vs the best baseline"
//! marker, implemented from scratch (regularised incomplete beta via
//! Lentz's continued fraction).

/// Sample mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (0 when fewer than two samples).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Result of a Welch two-sample t-test.
#[derive(Debug, Clone, Copy)]
pub struct WelchResult {
    /// The t statistic (`mean_a − mean_b` in units of pooled s.e.).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
}

impl WelchResult {
    /// `true` when the difference is significant at the given level and
    /// `a`'s mean is the larger one.
    pub fn significantly_greater(&self, alpha: f64) -> bool {
        self.t > 0.0 && self.p < alpha
    }
}

/// Welch's unequal-variance t-test for `a` vs `b` (two-sided).
///
/// Returns `None` when either sample has fewer than two values or both
/// variances vanish with equal means (no evidence either way).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<WelchResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        // Identical constants: either indistinguishable or trivially
        // different; report p accordingly with df = n−1 convention.
        return if ma == mb {
            Some(WelchResult {
                t: 0.0,
                df: na + nb - 2.0,
                p: 1.0,
            })
        } else {
            Some(WelchResult {
                t: if ma > mb { f64::INFINITY } else { f64::NEG_INFINITY },
                df: na + nb - 2.0,
                p: 0.0,
            })
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2
        / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = two_sided_p(t, df);
    Some(WelchResult { t, df, p })
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom:
/// `p = I_{df/(df+t²)}(df/2, 1/2)`.
pub fn two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    inc_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Regularised incomplete beta function `I_x(a, b)` via the continued
/// fraction of Numerical Recipes (Lentz's algorithm).
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front =
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry that keeps the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn inc_beta_endpoints_and_symmetry() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a).
        let x = 0.37;
        let lhs = inc_beta(2.5, 1.5, x);
        let rhs = 1.0 - inc_beta(1.5, 2.5, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
        // I_x(1,1) = x (uniform CDF).
        assert!((inc_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-10);
    }

    #[test]
    fn two_sided_p_reference_values() {
        // Standard t-table: t = 2.776, df = 4 → p ≈ 0.05.
        let p = two_sided_p(2.776, 4.0);
        assert!((p - 0.05).abs() < 2e-3, "p = {p}");
        // t = 0 → p = 1.
        assert!((two_sided_p(0.0, 10.0) - 1.0).abs() < 1e-9);
        // Large t → tiny p.
        assert!(two_sided_p(50.0, 10.0) < 1e-9);
        assert_eq!(two_sided_p(f64::INFINITY, 5.0), 0.0);
    }

    #[test]
    fn welch_detects_separated_samples() {
        let a = [10.1, 10.3, 9.9, 10.2, 10.0];
        let b = [8.0, 8.2, 7.9, 8.1, 8.05];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.t > 0.0);
        assert!(r.p < 0.001, "p = {}", r.p);
        assert!(r.significantly_greater(0.05));
        // Symmetric: b vs a has negative t and equal p.
        let r2 = welch_t_test(&b, &a).unwrap();
        assert!((r.p - r2.p).abs() < 1e-12);
        assert!(!r2.significantly_greater(0.05));
    }

    #[test]
    fn welch_overlapping_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.5, 2.5, 2.8, 4.2, 4.5];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p > 0.5, "p = {}", r.p);
    }

    #[test]
    fn welch_degenerate_inputs() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        let r = welch_t_test(&[2.0, 2.0], &[2.0, 2.0]).unwrap();
        assert_eq!(r.p, 1.0);
        let r = welch_t_test(&[3.0, 3.0], &[2.0, 2.0]).unwrap();
        assert_eq!(r.p, 0.0);
        assert!(r.significantly_greater(0.05));
    }

    #[test]
    fn welch_df_between_bounds() {
        // Welch df lies in [min(n)−1, n_a+n_b−2].
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 30.0, 50.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.df >= 2.0 - 1e-9 && r.df <= 5.0 + 1e-9, "df = {}", r.df);
    }
}
