//! Dense `f32` matrix and vector primitives. Row-major, no BLAS —
//! everything the LSTM/attention stack needs, nothing more.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage (`rows * cols`).
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Uniform random matrix in `[-scale, scale]` (the paper
    /// initializes all LSTM parameters uniformly in `[-0.1, 0.1]`).
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Wrap row-major storage (`data.len() == rows * cols`).
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_flat shape mismatch");
        Matrix { rows, cols, data }
    }

    /// `y = A x` (len(x) == cols, len(y) == rows).
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] writing into a caller-owned buffer. One
    /// vectorized [`crate::kernel::dot`] per row — measured faster
    /// than a 4-row register tile here (the tile's 32 accumulators
    /// spill on narrow ISAs, and rows are walked sequentially anyway).
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for (r, yv) in y.iter_mut().enumerate() {
            *yv = crate::kernel::dot(self.row(r), x);
        }
    }

    /// `y = A^T x` (len(x) == rows, len(y) == cols).
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.rows);
        let mut y = vec![0.0f32; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            if xv != 0.0 {
                crate::kernel::axpy(&mut y, xv, self.row(r));
            }
        }
        y
    }

    /// Rank-1 accumulate: `A += dy ⊗ x` (len(dy) == rows, len(x) ==
    /// cols). This is the gradient of `matvec` w.r.t. the matrix.
    pub fn add_outer(&mut self, dy: &[f32], x: &[f32]) {
        debug_assert_eq!(dy.len(), self.rows);
        debug_assert_eq!(x.len(), self.cols);
        for (r, &dyr) in dy.iter().enumerate() {
            if dyr != 0.0 {
                let row = self.row_mut(r);
                for (c, xv) in x.iter().enumerate() {
                    row[c] += dyr * xv;
                }
            }
        }
    }

    /// `self += other * scale` (shape-checked).
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        debug_assert_eq!(self.rows, other.rows);
        debug_assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Set every element to zero (gradient reset between batches).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Deterministic RNG helper shared by the initialization paths.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------- vector ops

/// Elementwise sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable softmax.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|v| v / sum).collect()
}

/// In-place numerically stable softmax (no allocation — the decode
/// hot path reuses its logits buffer).
pub fn softmax_in_place(x: &mut [f32]) {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Gradient of softmax composed with an arbitrary upstream gradient:
/// `ds_i = p_i * (dp_i - Σ_j p_j dp_j)`.
pub fn softmax_backward(p: &[f32], dp: &[f32]) -> Vec<f32> {
    let dot: f32 = p.iter().zip(dp).map(|(a, b)| a * b).sum();
    p.iter().zip(dp).map(|(pi, dpi)| pi * (dpi - dot)).collect()
}

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let mut m = Matrix::zeros(2, 3);
        m.data.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // A = [[1,2,3],[4,5,6]]; A^T [1,1] = [5,7,9].
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_outer_matches_manual() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.data, vec![3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_backward_finite_difference() {
        let x = [0.3f32, -0.1, 0.7, 0.2];
        let upstream = [0.5f32, -0.2, 0.1, 0.9];
        let p = softmax(&x);
        let analytic = softmax_backward(&p, &upstream);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f32 = softmax(&xp).iter().zip(&upstream).map(|(a, b)| a * b).sum();
            let fm: f32 = softmax(&xm).iter().zip(&upstream).map(|(a, b)| a * b).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-3,
                "i={i} {numeric} vs {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn uniform_init_within_bounds_and_deterministic() {
        let mut rng = seeded_rng(7);
        let a = Matrix::uniform(4, 5, 0.1, &mut rng);
        assert!(a.data.iter().all(|v| v.abs() <= 0.1));
        let mut rng2 = seeded_rng(7);
        let b = Matrix::uniform(4, 5, 0.1, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
