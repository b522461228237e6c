//! Golden pin of the solver's output bits.
//!
//! The solver's host loops may be reordered for speed — row-oriented
//! substitution, lower-only Cholesky updates, staging buffers reused
//! across steps — but every output element must keep its exact
//! sequence of multiplies, subtractions, divisions and square roots
//! (docs/PERFORMANCE.md, "Solver host path"). This test hashes the
//! output bits of every public solver routine over a grid of orders,
//! block sizes and right-hand-side counts and compares the hash with a
//! committed constant; a second test pins the pivot index that
//! singular and indefinite inputs report. Residual and reconstruction
//! checks elsewhere only bound the error; this pin fails on any changed
//! bit.
//!
//! The constant is machine-independent: f64 products, sums, divisions
//! and square roots are IEEE-defined, and the GEMM tiers all follow the
//! naive ascending-k rounding chain (`tests/compute_parity.rs`).

use amd_matrix_cores::solver::potrf::potrs;
use amd_matrix_cores::solver::trsm::{
    trsm_left_lower, trsm_left_upper, trsm_right_lower_transpose, TRSM_BLOCK,
};
use amd_matrix_cores::solver::{getrf, potrf, refine, Matrix, RefineOptions, SolverError};

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix<f64>) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for v in m.as_slice() {
            self.word(v.to_bits());
        }
    }
}

/// Deterministic fill in [-1, 1) (xorshift64*): full mantissas, so
/// every rounding step shows up in the output bits.
fn random(rows: usize, cols: usize, mut state: u64) -> Matrix<f64> {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64;
        data.push(mantissa / (1u64 << 53) as f64 * 2.0 - 1.0);
    }
    Matrix::from_slice(rows, cols, &data)
}

/// Symmetric and strictly diagonally dominant, hence SPD.
fn spd(n: usize, seed: u64) -> Matrix<f64> {
    let r = random(n, n, seed);
    let mut a = Matrix::from_fn(n, n, |i, j| r.get(i.max(j), i.min(j)));
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
        a.set(i, i, off + 1.0);
    }
    a
}

/// A general matrix with a mildly dominant diagonal, so refinement
/// converges from f32 factors in a few iterations at every order.
fn general(n: usize, seed: u64) -> Matrix<f64> {
    let mut a = random(n, n, seed);
    for i in 0..n {
        a.set(i, i, a.get(i, i) + 0.25 * (n as f64).sqrt());
    }
    a
}

fn factor_and_solve_hash() -> u64 {
    let mut h = Fnv::new();
    for n in [1usize, 7, 63, 64, 65, 130, 200] {
        for block in [16usize, 64] {
            let seed = 0x9E37_79B9_7F4A_7C15 ^ (n as u64 * 131 + block as u64);
            let a = spd(n, seed);
            let l = potrf(&a, block).unwrap();
            h.matrix(&l);

            let g = general(n, seed.rotate_left(17));
            let lu = getrf(&g, block).unwrap();
            h.matrix(&lu.lu);
            for &p in &lu.ipiv {
                h.word(p as u64);
            }

            for nrhs in [1usize, 3] {
                let b = random(n, nrhs, seed.rotate_left(31) ^ nrhs as u64);
                h.matrix(&potrs(&l, &b).unwrap());
                h.matrix(&lu.solve(&b).unwrap());
                let rep = refine(
                    &g,
                    &b,
                    RefineOptions {
                        block,
                        ..Default::default()
                    },
                )
                .unwrap();
                h.matrix(&rep.x);
                h.word(rep.iterations as u64);
                for r in &rep.residual_history {
                    h.word(r.to_bits());
                }
            }
        }
    }
    h.0
}

/// A well-conditioned lower-triangular matrix with exact zeros on the
/// diagonal at `zeros`.
fn lower_with_zero_diagonal(n: usize, zeros: &[usize]) -> Matrix<f64> {
    let r = random(n, n, 0xD1B5_4A32_D192_ED03);
    Matrix::from_fn(n, n, |i, j| {
        if j > i {
            0.0
        } else if i == j {
            if zeros.contains(&i) {
                0.0
            } else {
                2.0 + r.get(i, i)
            }
        } else {
            r.get(i, j) / n as f64
        }
    })
}

/// The error of every singular or indefinite probe, in probe order.
fn failure_indices() -> Vec<SolverError> {
    let mut errors = Vec::new();
    let past = TRSM_BLOCK + 6;

    // Indefinite inputs: a negative pivot early and past TRSM_BLOCK.
    for (n, bad) in [(16usize, 5usize), (130, past)] {
        for block in [8usize, 16, 64] {
            let mut a = spd(n, 0x1234_5678_9ABC_DEF0);
            a.set(bad, bad, -a.get(bad, bad));
            errors.push(potrf(&a, block).unwrap_err());
        }
    }

    // Singular LU: an all-zero column stays zero under elimination.
    for block in [16usize, 64] {
        let mut g = general(130, 0x0F0F_0F0F_0F0F_0F0F);
        for i in 0..130 {
            g.set(i, past, 0.0);
        }
        errors.push(getrf(&g, block).unwrap_err());
    }

    // Triangular solves with two zero pivots: forward substitution
    // reports the first, back substitution the last.
    for n in [40usize, 130] {
        let zeros = [3, n - 7];
        let l = lower_with_zero_diagonal(n, &zeros);
        let b = random(n, 2, 0x5555_AAAA_5555_AAAA);
        let mut x = b.clone();
        errors.push(trsm_left_lower(&l, &mut x, false).unwrap_err());
        errors.push(potrs(&l, &b).unwrap_err());
        let mut x = b.clone();
        errors.push(trsm_left_upper(&l.transposed(), &mut x).unwrap_err());
        let mut xt = b.transposed();
        errors.push(trsm_right_lower_transpose(&l, &mut xt).unwrap_err());
    }
    // A single zero pivot past the first substitution block.
    let l = lower_with_zero_diagonal(130, &[past]);
    let mut x = random(130, 3, 0x0123_4567_89AB_CDEF);
    errors.push(trsm_left_lower(&l, &mut x, false).unwrap_err());
    let mut xt = random(5, 130, 0x0123_4567_89AB_CDEF);
    errors.push(trsm_right_lower_transpose(&l, &mut xt).unwrap_err());
    errors
}

#[test]
fn solver_output_bits_are_pinned() {
    const GOLDEN: u64 = 0x3510_09d2_a408_6354;
    assert_eq!(
        factor_and_solve_hash(),
        GOLDEN,
        "a solver routine changed an output bit"
    );
}

#[test]
fn solver_failure_indices_are_pinned() {
    use SolverError::{NotPositiveDefinite as Npd, Singular};
    let past = TRSM_BLOCK + 6;
    let probe = |n: usize| {
        [
            Singular { index: 3 },
            Singular { index: 3 },
            Singular { index: n - 7 },
            Singular { index: 3 },
        ]
    };
    let mut expected = vec![Npd { index: 5 }; 3];
    expected.extend(vec![Npd { index: past }; 3]);
    expected.extend([Singular { index: past }, Singular { index: past }]);
    expected.extend(probe(40));
    expected.extend(probe(130));
    expected.extend([Singular { index: past }, Singular { index: past }]);
    assert_eq!(
        failure_indices(),
        expected,
        "a solver routine changed which pivot it reports"
    );
}
