//! Eigendecomposition of small Hermitian matrices (complex Jacobi).
//!
//! The MUSIC angle estimator needs the eigenvectors of the 4×4 antenna
//! covariance matrix. Rather than pull in a linear-algebra dependency,
//! this module implements the classic cyclic Jacobi method with
//! complex (phase-aware) rotations — simple, numerically robust, and
//! exact enough for any array size the radar will see.

use ros_em::Complex64;

/// A dense, square, complex matrix in row-major storage.
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    /// Dimension.
    pub n: usize,
    /// Row-major entries.
    pub data: Vec<Complex64>,
}

impl CMatrix {
    /// A zero matrix.
    pub fn zeros(n: usize) -> Self {
        CMatrix {
            n,
            data: vec![Complex64::ZERO; n * n],
        }
    }

    /// The identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(n: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Frobenius norm of the off-diagonal part.
    pub(crate) fn off_diagonal_norm(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    s += self[(i, j)].norm_sqr();
                }
            }
        }
        s.sqrt()
    }

    /// True when `self` equals its conjugate transpose within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in 0..self.n {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.n + j]
    }
}

/// Eigendecomposition result: `values[k]` (ascending) with column `k`
/// of `vectors` its eigenvector.
#[derive(Clone, Debug)]
pub struct Eigen {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns (unit norm).
    pub vectors: CMatrix,
}

/// Diagonalizes a Hermitian matrix with cyclic complex Jacobi sweeps.
///
/// # Panics
/// Panics when the input is not Hermitian (within 1e-9 of its
/// conjugate transpose).
pub fn hermitian_eig(a: &CMatrix) -> Eigen {
    assert!(a.is_hermitian(1e-9), "matrix is not Hermitian");
    let n = a.n;
    let mut m = a.clone();
    let mut v = CMatrix::identity(n);

    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        if m.off_diagonal_norm() < 1e-13 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                // Phase and rotation angle.
                let phi = apq.arg();
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let theta = 0.5 * (2.0 * apq.abs()).atan2(aqq - app);
                let (s, c) = theta.sin_cos();
                let e_pos = Complex64::cis(phi);
                let e_neg = Complex64::cis(-phi);

                // Apply G^H M G with G affecting rows/cols p, q:
                // col_p' = c·col_p − s·e^{-jφ}·col_q
                // col_q' = s·e^{+jφ}·col_p + c·col_q
                for i in 0..n {
                    let mip = m[(i, p)];
                    let miq = m[(i, q)];
                    m[(i, p)] = mip * c - miq * e_neg * s;
                    m[(i, q)] = mip * e_pos * s + miq * c;
                }
                for j in 0..n {
                    let mpj = m[(p, j)];
                    let mqj = m[(q, j)];
                    m[(p, j)] = mpj * c - mqj * e_pos * s;
                    m[(q, j)] = mpj * e_neg * s + mqj * c;
                }
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = vip * c - viq * e_neg * s;
                    v[(i, q)] = vip * e_pos * s + viq * c;
                }
            }
        }
    }

    // Extract and sort.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)].re, i)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let mut vectors = CMatrix::zeros(n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for i in 0..n {
            vectors[(i, new_col)] = v[(i, old_col)];
        }
    }
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &CMatrix, eig: &Eigen) -> f64 {
        // max_k ||A v_k − λ_k v_k||
        let n = a.n;
        let mut worst = 0.0f64;
        for k in 0..n {
            for i in 0..n {
                let mut av = Complex64::ZERO;
                for j in 0..n {
                    av += a[(i, j)] * eig.vectors[(j, k)];
                }
                let r = (av - eig.vectors[(i, k)] * eig.values[k]).abs();
                worst = worst.max(r);
            }
        }
        worst
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = CMatrix::from_fn(3, |i, j| {
            if i == j {
                Complex64::real((i + 1) as f64)
            } else {
                Complex64::ZERO
            }
        });
        let e = hermitian_eig(&a);
        assert_eq!(e.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn real_symmetric_2x2() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3.
        let a = CMatrix::from_fn(2, |i, j| Complex64::real(if i == j { 2.0 } else { 1.0 }));
        let e = hermitian_eig(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!(residual(&a, &e) < 1e-9);
    }

    #[test]
    fn complex_hermitian_4x4() {
        // A random-ish Hermitian matrix; check A v = λ v.
        let a = CMatrix::from_fn(4, |i, j| {
            if i == j {
                Complex64::real((i * i) as f64 + 1.0)
            } else if i < j {
                Complex64::new(0.3 * (i + j) as f64, 0.7 * (j as f64 - i as f64))
            } else {
                Complex64::new(0.3 * (i + j) as f64, -0.7 * (i as f64 - j as f64))
            }
        });
        assert!(a.is_hermitian(1e-12));
        let e = hermitian_eig(&a);
        assert!(residual(&a, &e) < 1e-8, "residual {}", residual(&a, &e));
        // Ascending.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preserved.
        let trace: f64 = (0..4).map(|i| a[(i, i)].re).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = CMatrix::from_fn(4, |i, j| {
            if i == j {
                Complex64::real(2.0)
            } else {
                Complex64::new(0.25, if i < j { 0.5 } else { -0.5 })
            }
        });
        let e = hermitian_eig(&a);
        for p in 0..4 {
            for q in 0..4 {
                let mut dot = Complex64::ZERO;
                for i in 0..4 {
                    dot += e.vectors[(i, p)].conj() * e.vectors[(i, q)];
                }
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!((dot.abs() - expect).abs() < 1e-9, "<v{p}, v{q}> = {dot:?}");
            }
        }
    }

    #[test]
    fn rank_one_matrix() {
        // x x^H has one eigenvalue ||x||², rest 0.
        let x = [
            Complex64::new(1.0, 0.5),
            Complex64::new(-0.2, 0.8),
            Complex64::new(0.0, -1.1),
        ];
        let a = CMatrix::from_fn(3, |i, j| x[i] * x[j].conj());
        let e = hermitian_eig(&a);
        let norm2: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        assert!(e.values[0].abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!((e.values[2] - norm2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Hermitian")]
    fn non_hermitian_rejected() {
        let a = CMatrix::from_fn(2, |i, j| Complex64::real((i + 2 * j) as f64));
        hermitian_eig(&a);
    }
}
