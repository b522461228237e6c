//! A minimal dense row-major matrix for the solver routines.

use mc_types::Real;

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::one());
        }
        m
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Swaps rows `i` and `j`.
    pub(crate) fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (top, bottom) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Copies the block `[r0, r0+h) × [c0, c0+w)` row by row into `out`
    /// (cleared first, capacity kept), row-major with width `w`.
    pub(crate) fn gather(&self, r0: usize, c0: usize, h: usize, w: usize, out: &mut Vec<T>) {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        out.clear();
        for i in r0..r0 + h {
            out.extend_from_slice(&self.row(i)[c0..c0 + w]);
        }
    }

    /// Writes the row-major `w`-wide block `src` at `(r0, c0)`.
    pub(crate) fn scatter(&mut self, r0: usize, c0: usize, w: usize, src: &[T]) {
        if w == 0 {
            return;
        }
        let h = src.len() / w;
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        for (i, s) in src.chunks_exact(w).enumerate() {
            let start = (r0 + i) * self.cols + c0;
            self.data[start..start + w].copy_from_slice(s);
        }
    }

    /// Copies the block `[r0, r0+h) × [c0, c0+w)` into a new matrix.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix<T> {
        let mut data = Vec::with_capacity(h * w);
        self.gather(r0, c0, h, w, &mut data);
        Matrix {
            rows: h,
            cols: w,
            data,
        }
    }

    /// Writes `src` into the block at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of range"
        );
        self.scatter(r0, c0, src.cols, &src.data);
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<T> {
        let mut data = Vec::with_capacity(self.data.len());
        transpose_into(&self.data, self.rows, self.cols, &mut data);
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Frobenius norm (computed in f64).
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64() * x.to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Converts every element to another [`Real`] type.
    pub fn cast<U: Real>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| U::from_f64(x.to_f64())).collect(),
        }
    }

    /// Maximum absolute element (in f64).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64().abs())
            .fold(0.0, f64::max)
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `src`
/// into `out` (cleared first, capacity kept).
pub(crate) fn transpose_into<T: Copy>(src: &[T], rows: usize, cols: usize, out: &mut Vec<T>) {
    debug_assert_eq!(src.len(), rows * cols);
    out.clear();
    for j in 0..cols {
        out.extend((0..rows).map(|i| src[i * cols + j]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::<f64>::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(Matrix::<f32>::identity(4).get(2, 2), 1.0);
        assert_eq!(Matrix::<f32>::identity(4).get(2, 1), 0.0);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::<f64>::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 2, 2);
        assert_eq!(b.get(0, 0), 15.0);
        assert_eq!(b.get(1, 1), 22.0);
        let mut z = Matrix::<f64>::zeros(6, 6);
        z.set_block(2, 3, &b);
        assert_eq!(z.get(3, 4), 22.0);
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn row_swaps_and_gather_scatter() {
        let mut m = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        m.swap_rows(3, 1);
        m.swap_rows(2, 2);
        assert_eq!(m.row(1), &[9.0, 10.0, 11.0]);
        assert_eq!(m.row(3), &[3.0, 4.0, 5.0]);
        let mut buf = vec![7.0; 9];
        m.gather(1, 1, 2, 2, &mut buf);
        assert_eq!(buf, vec![10.0, 11.0, 7.0, 8.0]);
        let mut z = Matrix::<f64>::zeros(4, 3);
        z.scatter(2, 0, 2, &buf);
        assert_eq!(z.row(2), &[10.0, 11.0, 0.0]);
        assert_eq!(z.row(3), &[7.0, 8.0, 0.0]);
    }

    #[test]
    fn transpose_and_norm() {
        let m = Matrix::<f64>::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let t = m.transposed();
        assert_eq!(t.get(0, 1), 3.0);
        assert!((m.frobenius_norm() - 30f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn cast_rounds_per_type() {
        use mc_types::F16;
        let m = Matrix::<f64>::from_slice(1, 2, &[1.0, 1.0 + 2f64.powi(-12)]);
        let h: Matrix<F16> = m.cast();
        assert_eq!(h.get(0, 0).to_f64(), 1.0);
        assert_eq!(h.get(0, 1).to_f64(), 1.0); // rounded away
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn oob_block_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }
}
