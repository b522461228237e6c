//! Blocked LU factorization with partial pivoting (LAPACK `DGETRF`).
//!
//! Right-looking blocked algorithm: factor a column panel with row
//! pivoting on scalar arithmetic, apply the pivots across the matrix,
//! triangular-solve the block row, then rank-`nb` update the trailing
//! matrix through the [`mc_blas`] GEMM path. The panel's row swaps and
//! rank-1 updates run on whole row slices, and the trailing update
//! stages its operands in buffers reused across steps.

use mc_blas::{host_gemm_backend, run_functional_with, select_strategy, GemmDesc, GemmOp};

use crate::matrix::Matrix;
use crate::trsm::{solve_lower, trsm_left_lower};
use crate::SolverError;

/// The result of an LU factorization: `P·A = L·U` packed LAPACK-style
/// (unit-lower `L` below the diagonal, `U` on and above), plus the
/// pivot row `ipiv[k]` swapped with row `k` at step `k`.
#[derive(Clone, Debug, PartialEq)]
pub struct Lu {
    /// Packed L\U factors.
    pub lu: Matrix<f64>,
    /// Pivot indices (LAPACK `ipiv`, 0-based).
    pub ipiv: Vec<usize>,
}

impl Lu {
    /// Solves `A·x = b` using the packed factors.
    pub fn solve(&self, b: &Matrix<f64>) -> Result<Matrix<f64>, SolverError> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(SolverError::ShapeMismatch {
                what: format!("rhs has {} rows, factor is {n}x{n}", b.rows()),
            });
        }
        // Apply the pivots to b.
        let mut y = b.clone();
        for (k, &p) in self.ipiv.iter().enumerate() {
            y.swap_rows(k, p);
        }
        // Forward (unit lower), then backward (upper).
        trsm_left_lower(&self.lu, &mut y, true)?;
        crate::trsm::trsm_left_upper(&self.lu, &mut y)?;
        Ok(y)
    }
}

/// Factorizes `A` as `P·A = L·U` with partial pivoting.
pub fn getrf(a: &Matrix<f64>, block: usize) -> Result<Lu, SolverError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("GETRF needs square input, got {}x{}", a.rows(), a.cols()),
        });
    }
    let nb = block.max(1);
    let mut w = a.clone();
    let mut ipiv = vec![0usize; n];
    // One GEMM dispatcher and staging buffers sized by the first step,
    // reused by every step.
    let backend = host_gemm_backend();
    let (mut l21, mut u12) = (Vec::new(), Vec::new());
    let (mut c, mut d) = (Vec::new(), Vec::new());

    let mut k = 0;
    while k < n {
        let b = nb.min(n - k);

        // 1. Panel factorization with partial pivoting over rows k..n.
        for (j, slot) in (k..k + b).zip(&mut ipiv[k..k + b]) {
            // Pivot search in column j, rows j..n.
            let mut piv = j;
            let mut best = w.get(j, j).abs();
            for i in j + 1..n {
                let v = w.get(i, j).abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if best == 0.0 {
                return Err(SolverError::Singular { index: j });
            }
            *slot = piv;
            w.swap_rows(j, piv);
            // Scale the column and update the rest of the panel: each
            // row below j takes its multiplier, then an axpy with the
            // pivot row's panel segment.
            let (top, below) = w.as_mut_slice().split_at_mut((j + 1) * n);
            let pivot_row = &top[j * n..];
            let pivot = pivot_row[j];
            let u = &pivot_row[j + 1..k + b];
            for row in below.chunks_exact_mut(n) {
                let l = row[j] / pivot;
                row[j] = l;
                for (x, &uv) in row[j + 1..k + b].iter_mut().zip(u) {
                    *x -= l * uv;
                }
            }
        }

        let rest = n - k - b;
        if rest > 0 {
            // 2. Block-row solve: U12 <- L11^-1 · A12 (unit lower).
            w.gather(k, k + b, b, rest, &mut u12);
            solve_lower(&backend, &w, k, &mut u12, rest, true)?;
            w.scatter(k, k + b, rest, &u12);

            // 3. Trailing update: A22 <- A22 - L21 · U12 via GEMM.
            w.gather(k + b, k, rest, b, &mut l21);
            w.gather(k + b, k + b, rest, rest, &mut c);
            d.resize(rest * rest, 0.0);
            let desc = GemmDesc::new(GemmOp::Dgemm, rest, rest, b, -1.0, 1.0);
            run_functional_with::<f64, f64, f64>(
                &backend,
                &desc,
                &select_strategy(&desc),
                &l21,
                &u12,
                &c,
                &mut d,
            )
            .map_err(|e| SolverError::Blas(e.to_string()))?;
            w.scatter(k + b, k + b, rest, &d);
        }
        k += b;
    }

    Ok(Lu { lu: w, ipiv })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(n: usize) -> Matrix<f64> {
        // Diagonally dominant-ish but with pivoting-forcing structure.
        Matrix::from_fn(n, n, |i, j| {
            let v = (((i * 7 + j * 13) % 19) as f64) - 9.0;
            if i == j {
                v + 0.5 // small diagonal: pivoting must kick in
            } else {
                v
            }
        })
    }

    fn residual(a: &Matrix<f64>, lu: &Lu, x: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        let _ = lu;
        let n = a.rows();
        let mut max = 0.0f64;
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a.get(i, k) * x.get(k, 0);
            }
            max = max.max((s - b.get(i, 0)).abs());
        }
        max / b.max_abs().max(1.0)
    }

    #[test]
    fn factor_and_solve_various_sizes() {
        for n in [1usize, 5, 33, 64, 129] {
            let a = test_matrix(n);
            let lu = getrf(&a, 32).unwrap();
            let x_true = Matrix::from_fn(n, 1, |i, _| ((i % 9) as f64) - 4.0);
            let mut b = Matrix::zeros(n, 1);
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.get(i, k) * x_true.get(k, 0);
                }
                b.set(i, 0, s);
            }
            let x = lu.solve(&b).unwrap();
            assert!(residual(&a, &lu, &x, &b) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn pivoting_actually_happens() {
        // First pivot must not be the (tiny) diagonal element.
        let mut a = test_matrix(16);
        a.set(0, 0, 1e-12);
        a.set(8, 0, 100.0);
        let lu = getrf(&a, 8).unwrap();
        assert_eq!(lu.ipiv[0], 8);
        // All multipliers bounded by 1 in magnitude (partial pivoting).
        for i in 0..16 {
            for j in 0..i {
                assert!(lu.lu.get(i, j).abs() <= 1.0 + 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn block_size_invariance() {
        let a = test_matrix(96);
        let x = Matrix::from_fn(96, 1, |i, _| (i as f64).sin());
        let mut b = Matrix::zeros(96, 1);
        for i in 0..96 {
            let mut s = 0.0;
            for k in 0..96 {
                s += a.get(i, k) * x.get(k, 0);
            }
            b.set(i, 0, s);
        }
        let s1 = getrf(&a, 8).unwrap().solve(&b).unwrap();
        let s2 = getrf(&a, 96).unwrap().solve(&b).unwrap();
        for i in 0..96 {
            assert!((s1.get(i, 0) - s2.get(i, 0)).abs() < 1e-6, "row {i}");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = test_matrix(8);
        for j in 0..8 {
            a.set(3, j, 0.0); // zero row -> singular at some pivot
        }
        // Make column 3 otherwise zero below too to force exact zero pivot.
        for i in 0..8 {
            a.set(i, 3, 0.0);
        }
        assert!(matches!(getrf(&a, 4), Err(SolverError::Singular { .. })));
    }

    #[test]
    fn rhs_shape_checked() {
        let a = test_matrix(8);
        let lu = getrf(&a, 4).unwrap();
        let bad = Matrix::<f64>::zeros(5, 1);
        assert!(matches!(
            lu.solve(&bad),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }
}
