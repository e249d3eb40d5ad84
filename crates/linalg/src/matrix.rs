//! Heap-allocated dense matrix with `f64` entries.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// Sized dynamically; intended for the small systems that appear in the
/// paper (design matrices with a few dozen rows and 3 columns for the
/// curvature quadric fit).
///
/// # Example
///
/// ```
/// use cps_linalg::DMatrix;
///
/// let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// let c = (a.clone() * b).unwrap();
/// assert_eq!(c[(0, 0)], 5.0); // 1*1 + 2*2
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        DMatrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the rows have differing
    /// lengths, and treats an empty input as the 0×0 matrix.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(DMatrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    expected: (rows.len(), cols),
                    actual: (i + 1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(DMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(DMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns entry `(r, c)` without bounds checks beyond the slice's own.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Returns one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                actual: (x.len(), 1),
            });
        }
        let out = (0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(out)
    }

    /// Gram matrix `Aᵀ·A` (always square, `cols × cols`).
    pub fn gram(&self) -> DMatrix {
        let mut g = DMatrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
        }
        g
    }

    /// `Aᵀ·b` for a right-hand side vector `b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.rows()`.
    pub fn transpose_mul_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                actual: (b.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self[(r, c)] * b[r];
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for DMatrix {
    type Output = Result<DMatrix, LinalgError>;

    fn add(self, rhs: DMatrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                actual: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(DMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Sub for DMatrix {
    type Output = Result<DMatrix, LinalgError>;

    fn sub(self, rhs: DMatrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                actual: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(DMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Mul for DMatrix {
    type Output = Result<DMatrix, LinalgError>;

    fn mul(self, rhs: DMatrix) -> Self::Output {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, rhs.cols),
                actual: rhs.shape(),
            });
        }
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = DMatrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_validates_shape() {
        let err = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
        let ok = DMatrix::from_rows(&[]).unwrap();
        assert_eq!(ok.shape(), (0, 0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matrix_multiplication() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = (a * b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn multiplication_shape_mismatch() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!((a * b).is_err());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = DMatrix::from_rows(&[&[1.0, -2.5], &[0.5, 3.0]]).unwrap();
        let i = DMatrix::identity(2);
        assert_eq!((a.clone() * i).unwrap(), a);
    }

    #[test]
    fn mul_vec_and_transpose_mul_vec() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(
            a.transpose_mul_vec(&[1.0, 1.0, 1.0]).unwrap(),
            vec![9.0, 12.0]
        );
        assert!(a.mul_vec(&[1.0]).is_err());
        assert!(a.transpose_mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let explicit = (a.transpose() * a).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn add_sub_frobenius() {
        let a = DMatrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        assert_eq!((a.clone() + b.clone()).unwrap()[(0, 0)], 4.0);
        assert_eq!((a.clone() - b).unwrap()[(0, 1)], 3.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn accessors() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 1), Some(4.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert!(m.is_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = DMatrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }
}
