//! Triangular solves with multiple right-hand sides.
//!
//! These are the panel-level kernels of the blocked factorizations; like
//! rocSOLVER's, they run substitution on scalar/SIMD arithmetic (it has
//! no `m×n×k` structure for Matrix Cores). Above [`TRSM_BLOCK`] unknowns
//! each solve is itself blocked: substitution stays on `TRSM_BLOCK`-wide
//! diagonal blocks and the off-diagonal bulk of the work becomes rank-k
//! updates on the shared [`mc_compute::Auto`] GEMM dispatch — the same
//! BLAS-3 shift the factorizations make, applied one level down.
//!
//! Substitution is row-oriented over the row-major right-hand sides:
//! row `i` of `X` is `B[i] − Σₖ L[i][k]·X[k]` as `k` ascends, each term
//! an axpy over a whole contiguous row, then one division by the pivot.
//! Every element still sees the same multiplies, subtractions and
//! division in the same order as the textbook column-at-a-time loop,
//! so the loop order moves time only, never an output bit.

use mc_compute::{Auto, GemmParams, MatMul, Trans};

use crate::matrix::Matrix;
use crate::SolverError;

/// Unknowns per substitution block; solves at or below this size run
/// the plain substitution loops.
pub const TRSM_BLOCK: usize = 64;

/// Runs `D ← α·A·B + β·C` on the shared GEMM dispatch (solver-internal
/// shapes are always in-bounds, so the buffer check cannot fail). The
/// [`Auto`] crossover keeps the frequent small panel updates off the
/// packed tiers' packing toll without changing a bit of the result;
/// large rank-k updates land on the f64 SIMD microkernel when the
/// vector unit allows, the scalar blocked kernel otherwise — bitwise
/// identical either way. Each solve resolves the dispatcher (an
/// environment and core-count read) once and reuses it for every block.
fn gemm_update(
    backend: &Auto,
    params: &GemmParams,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &mut [f64],
) {
    backend
        .gemm::<f64, f64, f64>(params, a, b, c, d)
        .expect("solver gemm shapes are validated by construction");
}

/// `row ← row − Σₖ coef[k]·rows[k]`, with `rows` holding `coef.len()`
/// row-major rows as wide as `row`, subtracting the terms in ascending
/// `k`: an axpy per term across the whole row or, for a single column,
/// the same chain as a dot product kept in a register.
#[inline]
fn sub_rows(row: &mut [f64], coef: &[f64], rows: &[f64]) {
    if let [x] = row {
        *x = coef.iter().zip(rows).fold(*x, |x, (&c, &v)| x - c * v);
        return;
    }
    for (&c, src) in coef.iter().zip(rows.chunks_exact(row.len())) {
        for (x, &v) in row.iter_mut().zip(src) {
            *x -= c * v;
        }
    }
}

/// Solves `L·X = B` for `X`, with `L` lower triangular (`unit_diag`
/// selects implicit ones on the diagonal). `B` is overwritten by `X`.
pub fn trsm_left_lower(
    l: &Matrix<f64>,
    b: &mut Matrix<f64>,
    unit_diag: bool,
) -> Result<(), SolverError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("L {}x{} vs B {}x{}", l.rows(), l.cols(), b.rows(), b.cols()),
        });
    }
    let ncols = b.cols();
    solve_lower(&Auto::from_env(), l, 0, b.as_mut_slice(), ncols, unit_diag)
}

/// Solves `L₁₁·X = B` in place, with `x` the row-major `n×ncols`
/// right-hand sides and `L₁₁` the `n×n` diagonal block of `l` at
/// `(base, base)`. A zero pivot is reported at its index in `l`.
pub(crate) fn solve_lower(
    backend: &Auto,
    l: &Matrix<f64>,
    base: usize,
    x: &mut [f64],
    ncols: usize,
    unit_diag: bool,
) -> Result<(), SolverError> {
    if ncols == 0 {
        return Ok(());
    }
    let n = x.len() / ncols;
    let mut l21 = Vec::new();
    let mut out = Vec::new();
    let mut ib = 0;
    while ib < n {
        let nb = TRSM_BLOCK.min(n - ib);
        let (head, b2) = x.split_at_mut((ib + nb) * ncols);
        let x1 = &mut head[ib * ncols..];
        forward_substitute(l, base + ib, x1, ncols, unit_diag)?;
        let rest = n - ib - nb;
        if rest > 0 {
            // B₂ ← B₂ − L₂₁·X₁ : the bulk of the solve, as a GEMM.
            l.gather(base + ib + nb, base + ib, rest, nb, &mut l21);
            out.resize(rest * ncols, 0.0);
            gemm_update(
                backend,
                &GemmParams::new(rest, ncols, nb).with_scaling(-1.0, 1.0),
                &l21,
                x1,
                b2,
                &mut out,
            );
            b2.copy_from_slice(&out);
        }
        ib += nb;
    }
    Ok(())
}

/// Forward substitution on the `x.len()/ncols` rows of `x` against the
/// diagonal block of `l` at `(base, base)`.
fn forward_substitute(
    l: &Matrix<f64>,
    base: usize,
    x: &mut [f64],
    ncols: usize,
    unit_diag: bool,
) -> Result<(), SolverError> {
    for i in 0..x.len() / ncols {
        let (solved, rest) = x.split_at_mut(i * ncols);
        let row = &mut rest[..ncols];
        let li = &l.row(base + i)[base..=base + i];
        sub_rows(row, &li[..i], solved);
        if !unit_diag {
            let d = li[i];
            if d == 0.0 {
                return Err(SolverError::Singular { index: base + i });
            }
            for v in row.iter_mut() {
                *v /= d;
            }
        }
    }
    Ok(())
}

/// Solves `X·Lᵀ = B` for `X`, with `L` lower triangular (so `Lᵀ` is
/// upper). `B` is `m×n`, `L` is `n×n`; `B` is overwritten by `X`.
/// This is the Cholesky panel update `A₂₁ ← A₂₁·L₁₁⁻ᵀ`, run as the
/// forward solve `L·Xᵀ = Bᵀ` on the transposed panel so that the
/// substitution streams rows.
pub fn trsm_right_lower_transpose(l: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let n = l.rows();
    if l.cols() != n || b.cols() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("L {}x{} vs B {}x{}", l.rows(), l.cols(), b.rows(), b.cols()),
        });
    }
    let mut bt = b.transposed();
    solve_lower(&Auto::from_env(), l, 0, bt.as_mut_slice(), b.rows(), false)?;
    *b = bt.transposed();
    Ok(())
}

/// Solves `U·X = B` with `U` upper triangular (back substitution).
pub fn trsm_left_upper(u: &Matrix<f64>, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    solve_upper(u, false, b)
}

/// Solves `Lᵀ·X = B` with `L` lower triangular, reading `Lᵀ` in place
/// of a transposed copy: the same back substitution, bit for bit, as
/// [`trsm_left_upper`] on `l.transposed()`.
pub(crate) fn trsm_left_lower_transpose(
    l: &Matrix<f64>,
    b: &mut Matrix<f64>,
) -> Result<(), SolverError> {
    solve_upper(l, true, b)
}

/// Back substitution `U·X = B` with `U = t`, or `U = tᵀ` when
/// `transposed`; `B` is overwritten by `X`.
fn solve_upper(t: &Matrix<f64>, transposed: bool, b: &mut Matrix<f64>) -> Result<(), SolverError> {
    let n = t.rows();
    if t.cols() != n || b.rows() != n {
        return Err(SolverError::ShapeMismatch {
            what: format!("U {}x{} vs B {}x{}", t.rows(), t.cols(), b.rows(), b.cols()),
        });
    }
    let ncols = b.cols();
    if ncols == 0 {
        return Ok(());
    }
    let backend = Auto::from_env();
    let x = b.as_mut_slice();
    let mut u12 = Vec::new();
    let mut out = Vec::new();
    // Back substitution: blocks bottom-up, each preceded by the rank-k
    // update from the rows already solved below it.
    let blocks = n.div_ceil(TRSM_BLOCK);
    for blk in (0..blocks).rev() {
        let ib = blk * TRSM_BLOCK;
        let nb = TRSM_BLOCK.min(n - ib);
        let below = n - ib - nb;
        let (head, x2) = x.split_at_mut((ib + nb) * ncols);
        let b1 = &mut head[ib * ncols..];
        if below > 0 {
            // B₁ ← B₁ − U₁₂·X₂ with X₂ the already-solved rows below;
            // U₁₂ of tᵀ is t's block below the diagonal, read transposed.
            let params = GemmParams::new(nb, ncols, below).with_scaling(-1.0, 1.0);
            let params = if transposed {
                t.gather(ib + nb, ib, below, nb, &mut u12);
                params.with_transposes(Trans::Trans, Trans::None)
            } else {
                t.gather(ib, ib + nb, nb, below, &mut u12);
                params
            };
            out.resize(nb * ncols, 0.0);
            gemm_update(&backend, &params, &u12, x2, b1, &mut out);
            b1.copy_from_slice(&out);
        }
        let u11 = t.block(ib, ib, nb, nb);
        let u11 = if transposed { u11.transposed() } else { u11 };
        back_substitute(&u11, ib, b1, ncols)?;
    }
    Ok(())
}

/// Back substitution on the rows of `x` against the upper-triangular
/// diagonal block `u11`, reporting a zero pivot at `base` plus its row.
fn back_substitute(
    u11: &Matrix<f64>,
    base: usize,
    x: &mut [f64],
    ncols: usize,
) -> Result<(), SolverError> {
    for i in (0..u11.rows()).rev() {
        let (head, solved) = x.split_at_mut((i + 1) * ncols);
        let row = &mut head[i * ncols..];
        let ui = &u11.row(i)[i..];
        sub_rows(row, &ui[1..], solved);
        let d = ui[0];
        if d == 0.0 {
            return Err(SolverError::Singular { index: base + i });
        }
        for v in row.iter_mut() {
            *v /= d;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower3() -> Matrix<f64> {
        Matrix::from_slice(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 4.0, 5.0, 6.0])
    }

    /// A well-conditioned lower-triangular test matrix.
    fn lower_n(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + (i % 5) as f64
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5
            }
        })
    }

    #[test]
    fn left_lower_solves() {
        let l = lower3();
        // Choose X, compute B = L X, recover X.
        let x_true = Matrix::from_slice(3, 2, &[1.0, 2.0, -1.0, 0.5, 3.0, -2.0]);
        let mut b = Matrix::zeros(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_lower(&l, &mut b, false).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        let mut l = lower3();
        l.set(0, 0, 999.0); // must be ignored with unit_diag
        l.set(1, 1, 999.0);
        l.set(2, 2, 999.0);
        let mut b = Matrix::from_slice(3, 1, &[1.0, 2.0, 3.0]);
        trsm_left_lower(&l, &mut b, true).unwrap();
        // Forward substitution with unit diagonal:
        // x0 = 1; x1 = 2 - 1*1 = 1; x2 = 3 - 4*1 - 5*1 = -6.
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(1, 0), 1.0);
        assert_eq!(b.get(2, 0), -6.0);
    }

    #[test]
    fn right_lower_transpose_solves() {
        let l = lower3();
        let x_true = Matrix::from_slice(2, 3, &[1.0, -2.0, 0.5, 2.0, 1.0, -1.0]);
        // B = X * L^T.
        let mut b = Matrix::zeros(2, 3);
        for i in 0..2 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += x_true.get(i, k) * l.get(j, k);
                }
                b.set(i, j, s);
            }
        }
        trsm_right_lower_transpose(&l, &mut b).unwrap();
        for i in 0..2 {
            for j in 0..3 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn upper_back_substitution() {
        let u = Matrix::from_slice(2, 2, &[2.0, 1.0, 0.0, 4.0]);
        let mut b = Matrix::from_slice(2, 1, &[5.0, 8.0]);
        trsm_left_upper(&u, &mut b).unwrap();
        assert_eq!(b.get(1, 0), 2.0);
        assert_eq!(b.get(0, 0), 1.5);
    }

    #[test]
    fn singular_and_mismatch_rejected() {
        let mut z = lower3();
        z.set(1, 1, 0.0);
        let mut b = Matrix::zeros(3, 1);
        assert!(matches!(
            trsm_left_lower(&z, &mut b, false),
            Err(SolverError::Singular { index: 1 })
        ));
        let mut wrong = Matrix::zeros(2, 1);
        assert!(matches!(
            trsm_left_lower(&lower3(), &mut wrong, false),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn blocked_left_lower_matches_naive_path() {
        let n = 3 * TRSM_BLOCK + 17; // straddles block boundaries
        let l = lower_n(n);
        let x_true = Matrix::from_fn(n, 5, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
        let mut b = Matrix::zeros(n, 5);
        for i in 0..n {
            for j in 0..5 {
                let mut s = 0.0;
                for k in 0..n {
                    s += l.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_lower(&l, &mut b, false).unwrap();
        for i in 0..n {
            for j in 0..5 {
                assert!(
                    (b.get(i, j) - x_true.get(i, j)).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    b.get(i, j),
                    x_true.get(i, j)
                );
            }
        }
    }

    #[test]
    fn blocked_right_lower_transpose_recovers_x() {
        let n = 2 * TRSM_BLOCK + 9;
        let m = 23;
        let l = lower_n(n);
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 7) % 13) as f64 / 6.0 - 1.0);
        let mut b = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += x_true.get(i, k) * l.get(j, k);
                }
                b.set(i, j, s);
            }
        }
        trsm_right_lower_transpose(&l, &mut b).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_left_upper_recovers_x() {
        let n = 2 * TRSM_BLOCK + 31;
        let u = lower_n(n).transposed();
        let x_true = Matrix::from_fn(n, 4, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let mut b = Matrix::zeros(n, 4);
        for i in 0..n {
            for j in 0..4 {
                let mut s = 0.0;
                for k in 0..n {
                    s += u.get(i, k) * x_true.get(k, j);
                }
                b.set(i, j, s);
            }
        }
        trsm_left_upper(&u, &mut b).unwrap();
        for i in 0..n {
            for j in 0..4 {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_singular_index_is_global() {
        let n = TRSM_BLOCK + 40;
        let mut l = lower_n(n);
        let bad = TRSM_BLOCK + 7;
        l.set(bad, bad, 0.0);
        let mut b = Matrix::zeros(n, 2);
        assert!(matches!(
            trsm_left_lower(&l, &mut b, false),
            Err(SolverError::Singular { index }) if index == bad
        ));
    }
}
