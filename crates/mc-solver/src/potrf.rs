//! Blocked Cholesky factorization (LAPACK `DPOTRF`, lower variant).
//!
//! The right-looking blocked algorithm: factor a diagonal block on
//! scalar arithmetic, triangular-solve the panel below it, then update
//! the trailing matrix with GEMMs — routed through [`mc_blas`]'s
//! functional executor so the update carries Matrix Core tiling and
//! precision semantics, exactly as rocSOLVER delegates to rocBLAS.
//!
//! Only the lower triangle is ever read, so the trailing update is
//! SYRK-shaped: one GEMM per lower block column, about half the FLOPs
//! and copy traffic of the full square. Each updated element is still
//! the same panel-width dot product on the same tier-independent rounding
//! chain, so the factor's bits do not depend on how the update is cut.

use mc_blas::{host_gemm_backend, run_functional_with, select_strategy, GemmDesc, GemmOp};

use crate::matrix::{transpose_into, Matrix};
use crate::trsm::solve_lower;
use crate::SolverError;

/// Default block size (matches the GEMM macro-tile granularity).
pub const DEFAULT_BLOCK: usize = 64;

/// Computes the lower Cholesky factor `L` with `A = L·Lᵀ`.
///
/// Reads only the lower triangle of `A`. Returns `L` (strictly-upper
/// part zeroed). Fails with [`SolverError::NotPositiveDefinite`] when a
/// pivot is non-positive or NaN.
///
/// ```
/// use mc_solver::{potrf, Matrix};
///
/// // A small SPD matrix: diag-dominant symmetric.
/// let a = Matrix::from_fn(4, 4, |i, j| if i == j { 5.0 } else { 1.0 });
/// let l = potrf(&a, 64).unwrap();
/// // First pivot is sqrt(5).
/// assert!((l.get(0, 0) - 5.0f64.sqrt()).abs() < 1e-12);
/// assert_eq!(l.get(0, 3), 0.0); // upper triangle cleared
/// ```
pub fn potrf(a: &Matrix<f64>, block: usize) -> Result<Matrix<f64>, SolverError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("POTRF needs square input, got {}x{}", a.rows(), a.cols()),
        });
    }
    let nb = block.max(1);
    let mut w = a.clone();
    // One GEMM dispatcher and staging buffers sized by the first step,
    // reused by every step.
    let backend = host_gemm_backend();
    let (mut panel, mut panel_t) = (Vec::new(), Vec::new());
    let (mut c, mut d) = (Vec::new(), Vec::new());

    let mut k = 0;
    while k < n {
        let b = nb.min(n - k);

        // 1. Unblocked Cholesky of the diagonal block.
        let mut dkk = w.block(k, k, b, b);
        unblocked_cholesky(&mut dkk, k)?;
        w.set_block(k, k, &dkk);

        let rest = n - k - b;
        if rest > 0 {
            // 2. Panel solve A21 <- A21 · L11^-T, run as the forward
            //    solve L11 · A21ᵀ = A21ᵀ on the transposed panel.
            w.gather(k + b, k, rest, b, &mut panel);
            transpose_into(&panel, rest, b, &mut panel_t);
            solve_lower(&backend, &w, k, &mut panel_t, rest, false)?;
            transpose_into(&panel_t, b, rest, &mut panel);
            w.scatter(k + b, k, b, &panel);

            // 3. Trailing update A22 <- A22 - panel · panelᵀ on the lower
            //    block columns only (SYRK as one GEMM per block column
            //    with trans_b, alpha = -1, beta = 1), on the Matrix Core
            //    GEMM path: column block [jb, jb+nbj) takes rows jb.. of
            //    the panel against its rows jb..jb+nbj.
            let mut jb = 0;
            while jb < rest {
                let nbj = nb.min(rest - jb);
                let m = rest - jb;
                let r0 = k + b + jb;
                let desc = GemmDesc {
                    trans_b: crate::Transpose::Trans,
                    ..GemmDesc::new(GemmOp::Dgemm, m, nbj, b, -1.0, 1.0)
                };
                w.gather(r0, r0, m, nbj, &mut c);
                d.resize(m * nbj, 0.0);
                run_functional_with::<f64, f64, f64>(
                    &backend,
                    &desc,
                    &select_strategy(&desc),
                    &panel[jb * b..],
                    &panel[jb * b..(jb + nbj) * b],
                    &c,
                    &mut d,
                )
                .map_err(|e| SolverError::Blas(e.to_string()))?;
                w.scatter(r0, r0, nbj, &d);
                jb += nbj;
            }
        }
        k += b;
    }

    // Zero the strictly-upper triangle.
    let data = w.as_mut_slice();
    for i in 0..n {
        data[i * n + i + 1..(i + 1) * n].fill(0.0);
    }
    Ok(w)
}

/// Unblocked Cholesky of the square `a` in place (lower triangle),
/// reporting a failed pivot at `base_index` plus its position. Like
/// LAPACK's `DPOTF2` it rejects a pivot that is `≤ 0` or NaN.
fn unblocked_cholesky(a: &mut Matrix<f64>, base_index: usize) -> Result<(), SolverError> {
    let n = a.rows();
    let data = a.as_mut_slice();
    for j in 0..n {
        let (top, below) = data.split_at_mut((j + 1) * n);
        let rj = &mut top[j * n..];
        let mut d = rj[j];
        for &x in &rj[..j] {
            d -= x * x;
        }
        if d <= 0.0 || d.is_nan() {
            return Err(SolverError::NotPositiveDefinite {
                index: base_index + j,
            });
        }
        let d = d.sqrt();
        rj[j] = d;
        for ri in below.chunks_exact_mut(n) {
            let mut v = ri[j];
            for (&x, &y) in ri[..j].iter().zip(&rj[..j]) {
                v -= x * y;
            }
            ri[j] = v / d;
        }
    }
    Ok(())
}

/// Solves `A·x = b` given the Cholesky factor `L` (two triangular
/// solves, the second reading `Lᵀ` in place).
pub fn potrs(l: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>, SolverError> {
    let mut y = b.clone();
    crate::trsm::trsm_left_lower(l, &mut y, false)?;
    crate::trsm::trsm_left_lower_transpose(l, &mut y)?;
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic SPD matrix: A = M·Mᵀ + n·I.
    fn spd(n: usize) -> Matrix<f64> {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += m.get(i, k) * m.get(j, k);
                }
                a.set(i, j, s);
            }
        }
        a
    }

    fn reconstruct_error(a: &Matrix<f64>, l: &Matrix<f64>) -> f64 {
        let n = a.rows();
        let mut max = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += l.get(i, k) * l.get(j, k);
                }
                max = max.max((s - a.get(i, j)).abs());
            }
        }
        max / a.max_abs()
    }

    #[test]
    fn factorizes_spd_matrices_of_odd_sizes() {
        for n in [1usize, 7, 32, 65, 130] {
            let a = spd(n);
            let l = potrf(&a, DEFAULT_BLOCK).unwrap();
            assert!(reconstruct_error(&a, &l) < 1e-10, "n={n}");
            // Lower triangular with positive diagonal.
            for i in 0..n {
                assert!(l.get(i, i) > 0.0);
                for j in i + 1..n {
                    assert_eq!(l.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn block_size_does_not_change_the_factor() {
        let a = spd(96);
        let l1 = potrf(&a, 16).unwrap();
        let l2 = potrf(&a, 96).unwrap(); // unblocked in one shot
        for i in 0..96 {
            for j in 0..=i {
                assert!(
                    (l1.get(i, j) - l2.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    l1.get(i, j),
                    l2.get(i, j)
                );
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrices() {
        let mut a = spd(16);
        a.set(5, 5, -1.0);
        let err = potrf(&a, 8).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_nan_pivots() {
        // A NaN on the diagonal is rejected at its own index.
        let mut a = spd(16);
        a.set(5, 5, f64::NAN);
        assert_eq!(
            potrf(&a, 8),
            Err(SolverError::NotPositiveDefinite { index: 5 })
        );
        // An off-diagonal NaN in the lower triangle propagates into the
        // row's own pivot through the panel solve and the trailing
        // update, and is rejected there.
        let n = 130;
        let mut a = spd(n);
        a.set(100, 3, f64::NAN);
        for block in [8, 64] {
            assert_eq!(
                potrf(&a, block),
                Err(SolverError::NotPositiveDefinite { index: 100 }),
                "block {block}"
            );
        }
    }

    #[test]
    fn never_reads_the_strict_upper_triangle() {
        // The lower-only trailing update relies on this: NaN above the
        // diagonal must not change a single bit of the factor.
        for (n, block) in [(7usize, 64usize), (130, 16), (130, 64), (200, 64)] {
            let a = spd(n);
            let mut poisoned = a.clone();
            for i in 0..n {
                for j in i + 1..n {
                    poisoned.set(i, j, f64::NAN);
                }
            }
            let want = potrf(&a, block).unwrap();
            let got = potrf(&poisoned, block).unwrap();
            let bits =
                |m: &Matrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n} block={block}");
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::<f64>::zeros(4, 5);
        assert!(matches!(
            potrf(&a, 4),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn potrs_solves_linear_systems() {
        let n = 48;
        let a = spd(n);
        let l = potrf(&a, 16).unwrap();
        let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64) / 7.0 - 3.0);
        // b = A x.
        let mut b = Matrix::zeros(n, 1);
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a.get(i, k) * x_true.get(k, 0);
            }
            b.set(i, 0, s);
        }
        let x = potrs(&l, &b).unwrap();
        for i in 0..n {
            assert!((x.get(i, 0) - x_true.get(i, 0)).abs() < 1e-8, "row {i}");
        }
    }
}
