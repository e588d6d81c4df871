//! Numeric helpers: tolerant comparison and 1-D minimization of convex
//! functions.
//!
//! The SDEM block optimizations repeatedly minimize smooth convex energy
//! functions of a sleep length over an interval. Closed forms exist for the
//! common-release cases (Eq. 4 / Eq. 8 of the paper); the agreeable-deadline
//! block solver needs a numeric 1-D minimizer, provided here as a
//! golden-section search plus a derivative bisection.

/// Default relative tolerance for floating-point comparisons across the
/// workspace.
pub const DEFAULT_REL_TOL: f64 = 1e-9;

/// Returns `true` if `a` and `b` agree to relative tolerance `rel`
/// (with an absolute floor of `rel` for values near zero).
///
/// # Examples
///
/// ```
/// use sdem_types::numeric::approx_eq;
/// assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel * scale
}

/// Returns `true` if `a ≤ b` up to relative tolerance `rel`.
pub fn approx_le(a: f64, b: f64, rel: f64) -> bool {
    a <= b || approx_eq(a, b, rel)
}

/// Minimizes a strictly unimodal (e.g. convex) function `f` over `[lo, hi]`
/// by golden-section search, returning `(argmin, min)`.
///
/// Terminates once the bracket is narrower than
/// `tol * max(1, |lo|, |hi|)`. For a convex `f` the result is within the
/// final bracket of the true minimizer. `f` may carry state between calls
/// (a memo of its terms, say); it is called in a fixed order.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is non-finite.
///
/// # Examples
///
/// ```
/// use sdem_types::numeric::minimize_unimodal;
/// let (x, v) = minimize_unimodal(|x| (x - 2.0).powi(2) + 1.0, 0.0, 10.0, 1e-12);
/// assert!((x - 2.0).abs() < 1e-6);
/// assert!((v - 1.0).abs() < 1e-9);
/// ```
pub fn minimize_unimodal(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "lo must not exceed hi");
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let scale = lo.abs().max(hi.abs()).max(1.0);
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a) > tol * scale {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    // Evaluate the midpoint and both endpoints; endpoints matter when the
    // minimum is at the boundary of the feasible box.
    let xm = 0.5 * (a + b);
    let candidates = [(lo, f(lo)), (hi, f(hi)), (xm, f(xm))];
    candidates
        .into_iter()
        .min_by(|p, q| p.1.total_cmp(&q.1))
        .expect("three candidates")
}

/// Finds a root of a continuous, monotonically increasing function `g` on
/// `[lo, hi]` by bisection, returning `None` when `g` has the same sign at
/// both ends (no sign change ⇒ no interior root).
///
/// Used to solve the first-order conditions of the block energy functions,
/// whose derivatives are monotone in the sleep lengths.
///
/// # Examples
///
/// ```
/// use sdem_types::numeric::bisect_increasing;
/// let root = bisect_increasing(|x| x * x * x - 8.0, 0.0, 10.0, 1e-12).unwrap();
/// assert!((root - 2.0).abs() < 1e-6);
/// ```
pub fn bisect_increasing(g: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> Option<f64> {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "lo must not exceed hi");
    let (mut a, mut b) = (lo, hi);
    let (ga, gb) = (g(a), g(b));
    if ga > 0.0 || gb < 0.0 {
        return None;
    }
    if ga == 0.0 {
        return Some(a);
    }
    if gb == 0.0 {
        return Some(b);
    }
    let scale = lo.abs().max(hi.abs()).max(1.0);
    while (b - a) > tol * scale {
        let mid = 0.5 * (a + b);
        let gm = g(mid);
        if gm == 0.0 {
            return Some(mid);
        }
        if gm < 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    Some(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_near_zero_uses_absolute_floor() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_le_accepts_slightly_greater() {
        assert!(approx_le(1.0 + 1e-12, 1.0, 1e-9));
        assert!(!approx_le(1.1, 1.0, 1e-9));
    }

    #[test]
    fn golden_section_interior_minimum() {
        let (x, v) = minimize_unimodal(|x| (x - 3.5).powi(2), 0.0, 10.0, 1e-12);
        assert!((x - 3.5).abs() < 1e-6);
        assert!(v < 1e-10);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        // Decreasing on the whole interval: minimum at hi.
        let (x, _) = minimize_unimodal(|x| -x, 0.0, 4.0, 1e-12);
        assert!((x - 4.0).abs() < 1e-9);
        // Increasing: minimum at lo.
        let (x, _) = minimize_unimodal(|x| x, 1.0, 4.0, 1e-12);
        assert!((x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_degenerate_interval() {
        let (x, v) = minimize_unimodal(|x| x * x, 2.0, 2.0, 1e-12);
        assert_eq!(x, 2.0);
        assert_eq!(v, 4.0);
    }

    #[test]
    fn golden_section_matches_energy_shape() {
        // The paper's E(Δ) = α_m (L − Δ) + k (L − Δ)^{1−λ} shape, λ = 3.
        let (alpha_m, k, l) = (4.0, 2.0e-3, 0.1);
        let f = |delta: f64| alpha_m * (l - delta) + k * (l - delta).powi(-2);
        // Interior optimum: d/dΔ = −α_m + 2k(L−Δ)^{−3} = 0 ⇒ L−Δ = (2k/α_m)^{1/3}.
        let expected = l - (2.0 * k / alpha_m).powf(1.0 / 3.0);
        let (x, _) = minimize_unimodal(f, 0.0, l * 0.99, 1e-13);
        assert!((x - expected).abs() < 1e-6, "{x} vs {expected}");
    }

    #[test]
    fn bisection_finds_root() {
        let root = bisect_increasing(|x| x - 1.25, 0.0, 2.0, 1e-14).unwrap();
        assert!((root - 1.25).abs() < 1e-9);
    }

    #[test]
    fn bisection_detects_no_root() {
        assert!(bisect_increasing(|x| x + 10.0, 0.0, 1.0, 1e-12).is_none());
        assert!(bisect_increasing(|x| x - 10.0, 0.0, 1.0, 1e-12).is_none());
    }

    #[test]
    fn bisection_root_at_boundary() {
        let r = bisect_increasing(|x| x, 0.0, 1.0, 1e-12).unwrap();
        assert_eq!(r, 0.0);
        let r = bisect_increasing(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn minimize_rejects_inverted_interval() {
        let _ = minimize_unimodal(|x| x, 1.0, 0.0, 1e-9);
    }
}
