//! Output checks: bitwise fingerprints and the naive-oracle parity
//! samples (every host tier must equal `mc_compute::Naive` bit for bit).

use mc_blas::{select_strategy, GemmDesc, Transpose};
use mc_compute::{Epilogue, GemmParams, MatMul, Naive};
use mc_types::Real;

use crate::rng::Rng;

/// Starting value for [`mix`] chains (the FNV-1a offset basis).
pub const HASH_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one 64-bit word into an order-sensitive hash.
pub fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
}

/// Folds the exact bit patterns of `xs` into `h` (`to_f64` is exact for
/// every element type, so distinct bits stay distinct).
pub fn fingerprint<T: Real>(h: u64, xs: &[T]) -> u64 {
    xs.iter().fold(h, |h, x| mix(h, x.to_f64().to_bits()))
}

/// Seeded output positions of a (batched) GEMM with the naive oracle's
/// value at each, computed once at set-up and compared on every op.
pub struct NaiveSamples {
    expected: Vec<(usize, u64)>,
}

impl NaiveSamples {
    /// Draws `count` positions over `batch` packed problems of `desc` and
    /// evaluates each with [`Naive`] as a `1×1×k` GEMM over the same
    /// row of op(A), column of op(B) and element of C. The epilogue is
    /// the one the functional path picks for the static strategy.
    #[allow(clippy::too_many_arguments)]
    pub fn new<AB: Real, CD: Real, CT: Real>(
        desc: &GemmDesc,
        batch: usize,
        a: &[AB],
        b: &[AB],
        c: &[CD],
        rng: &mut Rng,
        count: usize,
    ) -> Result<Self, String> {
        let (m, n, k) = (desc.m, desc.n, desc.k);
        let epilogue = if select_strategy(desc).uses_matrix_cores() {
            Epilogue::ComputeRounded
        } else {
            Epilogue::Direct
        };
        let params = GemmParams::new(1, 1, k)
            .with_scaling(desc.alpha, desc.beta)
            .with_epilogue(epilogue);
        let mut expected = Vec::with_capacity(count);
        for _ in 0..count {
            let (e, i, j) = (rng.below(batch), rng.below(m), rng.below(n));
            let (a, b) = (&a[e * m * k..], &b[e * k * n..]);
            let row: Vec<AB> = (0..k)
                .map(|p| match desc.trans_a {
                    Transpose::None => a[i * k + p],
                    Transpose::Trans => a[p * m + i],
                })
                .collect();
            let col: Vec<AB> = (0..k)
                .map(|p| match desc.trans_b {
                    Transpose::None => b[p * n + j],
                    Transpose::Trans => b[j * k + p],
                })
                .collect();
            let at = e * m * n + i * n + j;
            let mut out = [CD::zero()];
            Naive
                .gemm::<AB, CD, CT>(&params, &row, &col, &c[at..=at], &mut out)
                .map_err(|err| format!("naive oracle: {err:?}"))?;
            expected.push((at, out[0].to_f64().to_bits()));
        }
        Ok(NaiveSamples { expected })
    }

    /// Compares the sampled elements of `d` with the oracle, bitwise.
    pub fn check<CD: Real>(&self, d: &[CD]) -> Result<(), String> {
        for &(at, bits) in &self.expected {
            let got = d[at].to_f64();
            if got.to_bits() != bits {
                return Err(format!(
                    "element {at}: {got:e} differs from the naive oracle {:e}",
                    f64::from_bits(bits)
                ));
            }
        }
        Ok(())
    }
}
