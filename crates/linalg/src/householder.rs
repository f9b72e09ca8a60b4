//! Elementary Householder reflector generation and application
//! (LAPACK `dlarfg` / `dlarf` / `dlarft` analogues).

use crate::blas::{ddot, dnrm2};
use crate::matrix::Matrix;

/// Generate an elementary Householder reflector.
///
/// Given `alpha` (the pivot entry) and `x` (the entries to annihilate),
/// computes `tau` and overwrites `x` with the reflector tail `v[1..]`
/// (with the implicit convention `v[0] = 1`) such that
///
/// ```text
/// (I - tau * v * v^T) * [alpha; x] = [beta; 0]
/// ```
///
/// Returns `(beta, tau)`. When `x` is already zero, `tau == 0` and the
/// reflector is the identity.
pub fn dlarfg(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let Some((beta, tau, scale)) = larfg_scalars(alpha, dnrm2(x)) else {
        return (alpha, 0.0);
    };
    for xi in x.iter_mut() {
        *xi *= scale;
    }
    (beta, tau)
}

/// The scalars of the [`dlarfg`] reflector for pivot `alpha` and tail norm
/// `xnorm`: `(beta, tau, scale)`, the tail to be multiplied by `scale`.
/// `None` when the tail is zero (the reflector is the identity).
pub(crate) fn larfg_scalars(alpha: f64, xnorm: f64) -> Option<(f64, f64, f64)> {
    if xnorm == 0.0 {
        return None;
    }
    // beta = -sign(alpha) * ||[alpha; x]||, computed stably.
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    Some((beta, tau, 1.0 / (alpha - beta)))
}

/// Apply the elementary reflector `H = I - tau * v * v^T` from the left to
/// the sub-block of `c` spanning rows `i0..i0+v.len()` and columns
/// `j0..c.ncols()`. `v` includes its unit head (`v[0]` is read, pass `1.0`).
pub fn dlarf_left(v: &[f64], tau: f64, c: &mut Matrix, i0: usize, j0: usize) {
    if tau == 0.0 {
        return;
    }
    let k = v.len();
    for j in j0..c.ncols() {
        let col = c.col_mut(j);
        let seg = &mut col[i0..i0 + k];
        let w = tau * ddot(v, seg);
        for (s, vi) in seg.iter_mut().zip(v) {
            *s -= w * vi;
        }
    }
}

/// Form the upper-triangular block-reflector factor `T` (forward,
/// column-wise storage) for the reflectors stored in the strictly-lower
/// part of `v` (unit diagonal implicit), LAPACK `dlarft` analogue.
///
/// `v` is `m x k` with reflector `j` in `v[j+1.., j]`; `taus` has length `k`.
/// On return `t` holds the `k x k` upper-triangular factor such that
/// `H_0 H_1 ... H_{k-1} = I - V T V^T`.
pub fn dlarft_forward(v: &Matrix, taus: &[f64], t: &mut Matrix) {
    let m = v.nrows();
    let k = taus.len();
    assert!(t.nrows() >= k && t.ncols() >= k);
    for j in 0..k {
        let tau = taus[j];
        t[(j, j)] = tau;
        if tau == 0.0 {
            for i in 0..j {
                t[(i, j)] = 0.0;
            }
            continue;
        }
        // t[0..j, j] = -tau * V[:, 0..j]^T * v_j   (v_j has unit head at row j)
        for i in 0..j {
            // dot of column i of V (rows i.., unit head at i) with v_j (rows j..).
            let mut s = v[(j, i)]; // unit head of v_j times V[j, i]
            for r in j + 1..m {
                s += v[(r, i)] * v[(r, j)];
            }
            t[(i, j)] = -tau * s;
        }
        // t[0..j, j] = T[0..j, 0..j] * t[0..j, j]  (triangular update, in place)
        for i in 0..j {
            let mut s = 0.0;
            for l in i..j {
                s += t[(i, l)] * t[(l, j)];
            }
            t[(i, j)] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{dgemm, Trans};
    use crate::matrix::Matrix;

    #[test]
    fn larfg_annihilates() {
        let alpha = 3.0;
        let mut x = vec![1.0, -2.0, 0.5];
        let orig = {
            let mut v = vec![alpha];
            v.extend_from_slice(&x);
            v
        };
        let (beta, tau) = dlarfg(alpha, &mut x);
        // Apply H = I - tau v v^T to the original vector; expect [beta; 0].
        let mut v = vec![1.0];
        v.extend_from_slice(&x);
        let w: f64 = tau * v.iter().zip(&orig).map(|(a, b)| a * b).sum::<f64>();
        let result: Vec<f64> = orig.iter().zip(&v).map(|(o, vi)| o - w * vi).collect();
        assert!((result[0] - beta).abs() < 1e-14);
        for r in &result[1..] {
            assert!(r.abs() < 1e-14);
        }
        // Norm preserved.
        let n0: f64 = orig.iter().map(|a| a * a).sum::<f64>().sqrt();
        assert!((beta.abs() - n0).abs() < 1e-14);
    }

    #[test]
    fn larfg_zero_tail_is_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = dlarfg(5.0, &mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(beta, 5.0);
    }

    #[test]
    fn larf_left_applies_reflector() {
        let mut rng = rand::rng();
        let mut c = Matrix::random(4, 3, &mut rng);
        let c0 = c.clone();
        let v = vec![1.0, 0.5, -0.25];
        let tau = 0.8;
        dlarf_left(&v, tau, &mut c, 1, 0);
        // Dense H acting on rows 1..4.
        let mut h = Matrix::identity(4);
        for i in 0..3 {
            for j in 0..3 {
                h[(1 + i, 1 + j)] -= tau * v[i] * v[j];
            }
        }
        let want = h.matmul(&c0);
        assert!(c.sub(&want).norm_fro() < 1e-13);
    }

    #[test]
    fn larft_reproduces_product_of_reflectors() {
        // Random V (m x k) with unit-lower storage, random taus.
        let mut rng = rand::rng();
        let (m, k) = (6, 3);
        let mut v = Matrix::random(m, k, &mut rng);
        for j in 0..k {
            for i in 0..=j {
                v[(i, j)] = 0.0; // above-diagonal ignored; diag implicit 1
            }
        }
        let taus = [0.9, 1.3, 0.4];
        let mut t = Matrix::zeros(k, k);
        dlarft_forward(&v, &taus, &mut t);

        // Dense product H0 H1 H2.
        let mut q = Matrix::identity(m);
        for j in 0..k {
            let mut vj = vec![0.0; m];
            vj[j] = 1.0;
            for i in j + 1..m {
                vj[i] = v[(i, j)];
            }
            let mut h = Matrix::identity(m);
            for a in 0..m {
                for b in 0..m {
                    h[(a, b)] -= taus[j] * vj[a] * vj[b];
                }
            }
            q = q.matmul(&h);
        }
        // I - V_full T V_full^T, where V_full includes unit diagonal.
        let mut vfull = v.clone();
        for j in 0..k {
            vfull[(j, j)] = 1.0;
        }
        let mut vt = Matrix::zeros(m, k);
        dgemm(Trans::No, Trans::No, 1.0, &vfull, &t, 0.0, &mut vt);
        let mut qblk = Matrix::identity(m);
        dgemm(Trans::No, Trans::Yes, -1.0, &vt, &vfull, 1.0, &mut qblk);
        assert!(q.sub(&qblk).norm_fro() < 1e-12);
    }
}
