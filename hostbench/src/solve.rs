//! `solve`: one SPD solve (`potrf` + `potrs`) and one mixed-precision
//! solve (`refine`) per op.

use mc_solver::potrf::potrs;
use mc_solver::{potrf, refine, Matrix, RefineOptions, SolverError};

use crate::check::{fingerprint, mix, HASH_START};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;

/// Order of both systems.
pub const SOLVE_N: usize = 384;

/// Panel block size of the Cholesky factorization.
const BLOCK: usize = 64;

/// Largest accepted scaled residual `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞)`: the
/// refinement's own convergence target (`RefineOptions::default`).
pub const RESIDUAL_TOL: f64 = 1e-12;

/// The general system's last row repeats the row before it up to this
/// relative perturbation. The near-dependence raises the condition
/// number to about 1e4, so each f32-factor correction gains only a few
/// digits and refinement takes more than one iteration.
const NEAR_DEPENDENCE: f64 = 1e-3;

/// The inputs and last outputs of the `solve` workload.
pub struct Solve {
    spd: Matrix<f64>,
    spd_rhs: Matrix<f64>,
    general: Matrix<f64>,
    general_rhs: Matrix<f64>,
    x_spd: Matrix<f64>,
    x_refine: Matrix<f64>,
    refine_iters: usize,
    reference: u64,
}

/// `b = A·x` in f64.
fn product(a: &Matrix<f64>, x: &Matrix<f64>) -> Matrix<f64> {
    let n = a.rows();
    Matrix::from_fn(n, 1, |i, _| (0..n).map(|k| a.get(i, k) * x.get(k, 0)).sum())
}

/// `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞)` with the matrix ∞-norm (max row sum).
pub fn scaled_residual(a: &Matrix<f64>, x: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let n = a.rows();
    let ax = product(a, x);
    let r = (0..n)
        .map(|i| (b.get(i, 0) - ax.get(i, 0)).abs())
        .fold(0.0, f64::max);
    let a_norm = (0..n)
        .map(|i| (0..n).map(|k| a.get(i, k).abs()).sum::<f64>())
        .fold(0.0, f64::max);
    r / (a_norm * x.max_abs())
}

impl Solve {
    /// Seeded systems: a symmetric, diagonally dominant (hence SPD)
    /// matrix, and an ill-conditioned general matrix; both
    /// right-hand sides are `A·x` for a random `x`. Runs one warm op.
    pub fn new(seed: u64) -> Result<Self, String> {
        let n = SOLVE_N;
        let mut rng = Rng::new(seed, 1);
        let mut spd = Matrix::from_fn(n, n, |_, _| 0.0);
        for i in 0..n {
            for j in 0..i {
                let v = rng.sym();
                spd.set(i, j, v);
                spd.set(j, i, v);
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).map(|j| spd.get(i, j).abs()).sum();
            spd.set(i, i, off + 1.0);
        }
        let mut general = Matrix::from_fn(n, n, |_, _| rng.sym());
        for j in 0..n {
            let v = general.get(n - 2, j) + NEAR_DEPENDENCE * rng.sym();
            general.set(n - 1, j, v);
        }
        let x1 = Matrix::from_fn(n, 1, |_, _| rng.sym());
        let x2 = Matrix::from_fn(n, 1, |_, _| rng.sym());
        let mut w = Solve {
            spd_rhs: product(&spd, &x1),
            general_rhs: product(&general, &x2),
            spd,
            general,
            x_spd: Matrix::zeros(n, 1),
            x_refine: Matrix::zeros(n, 1),
            refine_iters: 0,
            reference: 0,
        };
        w.op()?;
        w.reference = w.output_hash();
        w.check()?;
        Ok(w)
    }

    fn factor_solve(&self) -> Result<Matrix<f64>, SolverError> {
        potrs(&potrf(&self.spd, BLOCK)?, &self.spd_rhs)
    }
}

impl Workload for Solve {
    fn op(&mut self) -> Result<(), String> {
        self.x_spd = self.factor_solve().map_err(|e| e.to_string())?;
        let rep = refine(&self.general, &self.general_rhs, RefineOptions::default())
            .map_err(|e| e.to_string())?;
        self.x_refine = rep.x;
        self.refine_iters = rep.iterations;
        Ok(())
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let rep = tr
            .span("op", |tr| -> Result<_, SolverError> {
                let l = tr.span("solver.potrf", |_| potrf(&self.spd, BLOCK))?;
                self.x_spd = tr.span("solver.potrs", |_| potrs(&l, &self.spd_rhs))?;
                tr.span("solver.refine", |_| {
                    refine(&self.general, &self.general_rhs, RefineOptions::default())
                })
            })
            .map_err(|e| e.to_string())?;
        self.x_refine = rep.x;
        self.refine_iters = rep.iterations;
        tr.add("solver.refine_iters", rep.iterations as f64);
        tr.add("solver.scaled_residual", self.worst_residual());
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.output_hash() != self.reference {
            return Err("solution differs from the set-up fingerprint".to_owned());
        }
        for (what, a, x, b) in [
            ("potrs", &self.spd, &self.x_spd, &self.spd_rhs),
            ("refine", &self.general, &self.x_refine, &self.general_rhs),
        ] {
            let r = scaled_residual(a, x, b);
            if r.is_nan() || r > RESIDUAL_TOL {
                return Err(format!("{what}: scaled residual {r:e} > {RESIDUAL_TOL:e}"));
            }
        }
        Ok(())
    }

    fn corrupt(&mut self) {
        let x = self.x_spd.get(0, 0);
        self.x_spd.set(0, 0, f64::from_bits(x.to_bits() ^ 1));
    }

    fn output_hash(&self) -> u64 {
        let h = mix(HASH_START, self.refine_iters as u64);
        let h = fingerprint(h, self.x_spd.as_slice());
        fingerprint(h, self.x_refine.as_slice())
    }
}

impl Solve {
    /// The larger scaled residual of the last op's two solutions.
    fn worst_residual(&self) -> f64 {
        scaled_residual(&self.spd, &self.x_spd, &self.spd_rhs).max(scaled_residual(
            &self.general,
            &self.x_refine,
            &self.general_rhs,
        ))
    }
}
