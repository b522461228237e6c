//! Mixed-precision iterative refinement (the paper's ref. \[3], Haidar
//! et al. SC'18): factorize `A` in a *low* precision — where Matrix
//! Cores deliver 2–8× the FP64 throughput at 2–8× the power efficiency
//! (paper §V/§VI) — then recover FP64-level accuracy with cheap
//! residual-correction iterations.
//!
//! `A·x = b`:
//! 1. `LU ← getrf(lo(A))` in the working precision (f32 here; the f16
//!    variant additionally scales, which ref. \[3] covers);
//! 2. `x ← LU⁻¹·b`;
//! 3. repeat: `r ← b − A·x` in FP64, `d ← LU⁻¹·r`, `x ← x + d`,
//!    until `‖r‖∞ / (‖A‖∞·‖x‖∞)` reaches FP64 round-off.

use crate::getrf::getrf;
use crate::matrix::Matrix;
use crate::SolverError;

/// Options for [`refine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineOptions {
    /// Maximum refinement iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the scaled residual.
    pub tolerance: f64,
    /// Panel block size for the low-precision factorization.
    pub block: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_iterations: 30,
            tolerance: 1e-12,
            block: 64,
        }
    }
}

/// Convergence report from [`refine`].
#[derive(Clone, Debug, PartialEq)]
pub struct RefineReport {
    /// The solution vector(s).
    pub x: Matrix<f64>,
    /// Scaled residual after each iteration (index 0 = initial solve).
    pub residual_history: Vec<f64>,
    /// Iterations taken (refinement steps after the initial solve).
    pub iterations: usize,
}

/// Solves `A·x = b` by f32-factorization + FP64 iterative refinement.
pub fn refine(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    opts: RefineOptions,
) -> Result<RefineReport, SolverError> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("A {}x{} vs b {}x{}", a.rows(), a.cols(), b.rows(), b.cols()),
        });
    }

    // Low-precision factorization: round A to f32, factor, and keep the
    // factors in f64 storage for the solves (as the GPU algorithm keeps
    // them in registers/HBM at working precision).
    let a_lo: Matrix<f32> = a.cast();
    let lu = getrf(&a_lo.cast::<f64>(), opts.block)?;

    let ncols = b.cols();
    let a_norm = a.max_abs().max(f64::MIN_POSITIVE);
    let mut x = lu.solve(b)?;
    let mut history = Vec::new();

    for it in 0..=opts.max_iterations {
        // FP64 residual r = b - A x: one ascending-k dot product of a
        // row of A with a column of x (a row of xᵀ) per element.
        let xt = x.transposed();
        let mut r = b.clone();
        for i in 0..n {
            let ai = a.row(i);
            let ri = &mut r.as_mut_slice()[i * ncols..(i + 1) * ncols];
            for (col, rv) in ri.iter_mut().enumerate() {
                let xc = &xt.as_slice()[col * n..(col + 1) * n];
                let s = ai.iter().zip(xc).fold(0.0, |s, (&av, &xv)| s + av * xv);
                *rv -= s;
            }
        }
        let scaled = r.max_abs() / (a_norm * x.max_abs().max(1.0));
        history.push(scaled);
        if scaled <= opts.tolerance {
            return Ok(RefineReport {
                x,
                residual_history: history,
                iterations: it,
            });
        }
        if it == opts.max_iterations {
            break;
        }
        // Correction through the low-precision factors.
        let d = lu.solve(&r)?;
        for (xv, dv) in x.as_mut_slice().iter_mut().zip(d.as_slice()) {
            *xv += dv;
        }
    }

    Err(SolverError::NoConvergence {
        iterations: opts.max_iterations,
        residual: *history.last().unwrap_or(&f64::INFINITY),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned(n: usize) -> Matrix<f64> {
        // Strongly diagonally dominant: condition number O(1).
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (n as f64) + 2.0
            } else {
                (((i * 13 + j * 7) % 11) as f64) / 11.0 - 0.5
            }
        })
    }

    fn rhs_for(a: &Matrix<f64>, x_true: &Matrix<f64>) -> Matrix<f64> {
        let n = a.rows();
        let mut b = Matrix::zeros(n, x_true.cols());
        for i in 0..n {
            for col in 0..x_true.cols() {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.get(i, k) * x_true.get(k, col);
                }
                b.set(i, col, s);
            }
        }
        b
    }

    #[test]
    fn converges_to_fp64_accuracy_from_f32_factors() {
        let n = 128;
        let a = well_conditioned(n);
        let x_true = Matrix::from_fn(n, 1, |i, _| ((i * 29 % 17) as f64) / 17.0 - 0.5);
        let b = rhs_for(&a, &x_true);
        let report = refine(&a, &b, RefineOptions::default()).unwrap();
        // FP64-level solution despite the f32 factorization.
        for i in 0..n {
            assert!(
                (report.x.get(i, 0) - x_true.get(i, 0)).abs() < 1e-10,
                "row {i}: {} vs {}",
                report.x.get(i, 0),
                x_true.get(i, 0)
            );
        }
        // A couple of iterations suffice on a well-conditioned system.
        assert!(report.iterations <= 4, "{}", report.iterations);
    }

    #[test]
    fn residual_history_is_decreasing() {
        let n = 96;
        let a = well_conditioned(n);
        let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64).cos());
        let b = rhs_for(&a, &x_true);
        let report = refine(&a, &b, RefineOptions::default()).unwrap();
        for w in report.residual_history.windows(2) {
            assert!(w[1] < w[0], "history {:?}", report.residual_history);
        }
        // The initial (f32-only) solve sits well above the final
        // FP64-refined residual.
        let first = report.residual_history[0];
        let last = *report.residual_history.last().unwrap();
        assert!(first > 50.0 * last, "{first} vs {last}");
        assert!(last <= 1e-12);
    }

    #[test]
    fn zero_iterations_when_fp32_is_enough() {
        // Tiny well-conditioned system where the f32 solve already meets
        // a loose tolerance.
        let a = well_conditioned(8);
        let x_true = Matrix::from_fn(8, 1, |i, _| i as f64);
        let b = rhs_for(&a, &x_true);
        let report = refine(
            &a,
            &b,
            RefineOptions {
                tolerance: 1e-4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn no_convergence_is_reported() {
        let a = well_conditioned(32);
        let b = Matrix::from_fn(32, 1, |i, _| i as f64);
        let err = refine(
            &a,
            &b,
            RefineOptions {
                tolerance: 0.0, // unattainable
                max_iterations: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolverError::NoConvergence { iterations: 2, .. }
        ));
    }

    #[test]
    fn multiple_right_hand_sides() {
        let n = 64;
        let a = well_conditioned(n);
        let x_true = Matrix::from_fn(n, 3, |i, c| ((i + c * 31) % 19) as f64 - 9.0);
        let b = rhs_for(&a, &x_true);
        let report = refine(&a, &b, RefineOptions::default()).unwrap();
        for i in 0..n {
            for c in 0..3 {
                assert!((report.x.get(i, c) - x_true.get(i, c)).abs() < 1e-9);
            }
        }
    }
}
