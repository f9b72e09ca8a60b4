//! `geqrt` (tile QR) and `unmqr` (apply tile Q), with inner blocking.
//!
//! The panel factorization is itself blocked: a wide `ib`-wide inner block
//! is factored in sub-panels of width [`super::PANEL_IB`], so the
//! Householder sweep only ever touches a sub-panel — the rest of the block
//! and the trailing tile columns are updated through the zero-padded
//! pure-GEMM block apply, and all `T` factors come from the `V̂` Gram.

use super::sweep::{householder_sweep, Heads};
use super::{
    apply_tile_block, form_block_t, inner_blocks, pad_tile_v, sub_panel_width, ApplyTrans,
};
use crate::matrix::Matrix;
use crate::workspace::{grow, with_thread_workspace, Workspace};

/// QR factorization of the `m x n` tile `a` with inner block size `ib`.
///
/// On return the upper triangle of `a` holds `R`, the strict lower triangle
/// holds the Householder reflectors `V` (unit diagonal implicit), and
/// `t[0..ibb, jb..jb+ibb]` holds the upper-triangular inner-block factors.
/// `t` must be at least `min(ib, k) x k` with `k = min(m, n)`.
///
/// Uses the thread-local [`Workspace`]; see [`geqrt_ws`] for the
/// explicit-workspace variant.
pub fn geqrt(a: &mut Matrix, t: &mut Matrix, ib: usize) {
    with_thread_workspace(|ws| geqrt_ws(a, t, ib, ws));
}

/// [`geqrt`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
pub fn geqrt_ws(a: &mut Matrix, t: &mut Matrix, ib: usize, ws: &mut Workspace) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert!(
        t.nrows() >= ib.min(k.max(1)) && t.ncols() >= k,
        "t too small"
    );
    let taus = grow(&mut ws.taus, k);

    for (jb, ibb) in inner_blocks(k, ib, ApplyTrans::Trans) {
        // Blocked panel factorization: the Householder sweep confined to
        // `pib`-wide sub-panels, each applied to the rest of the block via
        // the padded-GEMM block apply. Narrow blocks stay one sweep.
        let pib = sub_panel_width(ibb);
        for (p0l, pw) in inner_blocks(ibb, pib, ApplyTrans::Trans) {
            let p0 = jb + p0l;
            let cols = p0..p0 + pw;
            householder_sweep(
                a.data_mut(),
                m,
                Heads::Diagonal,
                cols,
                &mut taus[p0..p0 + pw],
            );
            // Apply the finished sub-panel to the rest of this inner block.
            if p0 + pw < jb + ibb {
                let (vpart, cpart) = a.split_cols_mut(p0 + pw);
                let rows = pad_tile_v(vpart, m, p0, pw, &mut ws.vpad);
                form_block_t(
                    &ws.vpad[..rows * pw],
                    rows,
                    rows,
                    pw,
                    &taus[p0..p0 + pw],
                    grow(&mut ws.tsub, pw * pw),
                    pw,
                    0,
                    &mut ws.tgram,
                );
                apply_tile_block(
                    &ws.vpad[..rows * pw],
                    rows,
                    pw,
                    &ws.tsub[..pw * pw],
                    pw,
                    0,
                    ApplyTrans::Trans,
                    cpart,
                    m,
                    p0,
                    0,
                    jb + ibb - (p0 + pw),
                    &mut ws.w,
                    &mut ws.gemm,
                );
            }
        }

        // Form the block's T factor (Gram + triangular recurrence on the
        // padded V̂ copy, which the trailing apply then reuses).
        let t_ld = t.nrows();
        let rows = pad_tile_v(a.data(), m, jb, ibb, &mut ws.vpad);
        form_block_t(
            &ws.vpad[..rows * ibb],
            rows,
            rows,
            ibb,
            &taus[jb..jb + ibb],
            t.data_mut(),
            t_ld,
            jb,
            &mut ws.tgram,
        );

        // Apply the block reflector (transposed) to the trailing columns.
        if jb + ibb < n {
            apply_tile_block(
                &ws.vpad[..rows * ibb],
                rows,
                ibb,
                t.data(),
                t_ld,
                jb,
                ApplyTrans::Trans,
                a.data_mut(),
                m,
                jb,
                jb + ibb,
                n - (jb + ibb),
                &mut ws.w,
                &mut ws.gemm,
            );
        }
    }
}

/// Apply `Q` or `Q^T` from a [`geqrt`] factorization to the tile `c`
/// (from the left): `c := op(Q) * c`.
///
/// `v` is the factored tile (reflectors in its strict lower triangle) and
/// `t` the matching inner-block factors. `c` must have the same row count.
///
/// Uses the thread-local [`Workspace`]; see [`unmqr_ws`] for the
/// explicit-workspace variant.
pub fn unmqr(v: &Matrix, t: &Matrix, trans: ApplyTrans, c: &mut Matrix, ib: usize) {
    with_thread_workspace(|ws| unmqr_ws(v, t, trans, c, ib, ws));
}

/// [`unmqr`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
pub fn unmqr_ws(
    v: &Matrix,
    t: &Matrix,
    trans: ApplyTrans,
    c: &mut Matrix,
    ib: usize,
    ws: &mut Workspace,
) {
    let m = v.nrows();
    let k = m.min(v.ncols());
    assert_eq!(c.nrows(), m, "C row count must match V");
    let n = c.ncols();
    let t_ld = t.nrows();

    for (jb, ibb) in inner_blocks(k, ib, trans) {
        let rows = pad_tile_v(v.data(), m, jb, ibb, &mut ws.vpad);
        apply_tile_block(
            &ws.vpad[..rows * ibb],
            rows,
            ibb,
            t.data(),
            t_ld,
            jb,
            trans,
            c.data_mut(),
            m,
            jb,
            0,
            n,
            &mut ws.w,
            &mut ws.gemm,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::set_panel_ib;
    use super::*;
    use crate::matrix::Matrix;

    /// Explicitly form Q by applying it to the identity.
    fn form_q(v: &Matrix, t: &Matrix, ib: usize) -> Matrix {
        let m = v.nrows();
        let mut q = Matrix::identity(m);
        unmqr(v, t, ApplyTrans::NoTrans, &mut q, ib);
        q
    }

    fn check_qr(m: usize, n: usize, ib: usize) {
        let mut rng = rand::rng();
        let a0 = Matrix::random(m, n, &mut rng);
        let mut a = a0.clone();
        let k = m.min(n);
        let mut t = Matrix::zeros(ib.min(k), k);
        geqrt(&mut a, &mut t, ib);

        let q = form_q(&a, &t, ib);
        // Orthogonality.
        let qtq = q.transpose().matmul(&q);
        assert!(
            qtq.sub(&Matrix::identity(m)).norm_fro() < 1e-12 * (m as f64),
            "Q not orthogonal ({m}x{n}, ib={ib})"
        );
        // Residual: Q * R == A.
        let mut r = Matrix::zeros(m, n);
        for j in 0..n {
            for i in 0..=j.min(m - 1) {
                r[(i, j)] = a[(i, j)];
            }
        }
        let back = q.matmul(&r);
        assert!(
            back.sub(&a0).norm_fro() < 1e-12 * a0.norm_fro().max(1.0),
            "QR != A ({m}x{n}, ib={ib})"
        );
    }

    #[test]
    fn geqrt_square_various_ib() {
        for ib in [1, 2, 3, 8, 16] {
            check_qr(8, 8, ib);
        }
    }

    #[test]
    fn geqrt_tall() {
        check_qr(12, 5, 2);
        check_qr(16, 4, 4);
        check_qr(9, 1, 2);
    }

    #[test]
    fn geqrt_wide() {
        check_qr(4, 9, 2);
        check_qr(1, 5, 1);
    }

    #[test]
    fn geqrt_ib_larger_than_n() {
        check_qr(6, 3, 10);
    }

    #[test]
    fn geqrt_big_tile_exercises_packed_path() {
        // 96x96 with ib=24 pushes the trailing update over the packed GEMM
        // crossover, covering the packed W accumulation/write-back.
        check_qr(96, 96, 24);
    }

    #[test]
    fn geqrt_sub_panel_sizes_cover_ragged_splits() {
        // Sub-panel widths that do and don't divide ib, including 1.
        for pib in [1, 3, 5, 8] {
            set_panel_ib(Some(pib));
            check_qr(24, 24, 12);
            check_qr(20, 13, 6);
        }
        set_panel_ib(None);
    }

    #[test]
    fn geqrt_blocked_matches_unblocked_panel() {
        // The sub-panel blocked factorization must produce the same V, T,
        // and R as the single-scalar-panel path (pib = MAX) up to roundoff
        // reordering of the same sums.
        let mut rng = rand::rng();
        let a0 = Matrix::random(48, 48, &mut rng);

        set_panel_ib(Some(usize::MAX));
        let mut a_ref = a0.clone();
        let mut t_ref = Matrix::zeros(16, 48);
        geqrt(&mut a_ref, &mut t_ref, 16);

        // Pin a width the adaptive gate can't widen back to a single panel.
        set_panel_ib(Some(4));
        let mut a_blk = a0.clone();
        let mut t_blk = Matrix::zeros(16, 48);
        geqrt(&mut a_blk, &mut t_blk, 16);
        set_panel_ib(None);

        let scale = a0.norm_fro().max(1.0);
        assert!(
            a_blk.sub(&a_ref).norm_fro() < 1e-11 * scale,
            "blocked V/R drifted from unblocked panel"
        );
        assert!(
            t_blk.sub(&t_ref).norm_fro() < 1e-11 * scale,
            "blocked T drifted from unblocked panel"
        );
    }

    #[test]
    fn unmqr_trans_then_notrans_roundtrip() {
        let mut rng = rand::rng();
        let mut a = Matrix::random(7, 7, &mut rng);
        let mut t = Matrix::zeros(3, 7);
        geqrt(&mut a, &mut t, 3);
        let c0 = Matrix::random(7, 4, &mut rng);
        let mut c = c0.clone();
        unmqr(&a, &t, ApplyTrans::Trans, &mut c, 3);
        unmqr(&a, &t, ApplyTrans::NoTrans, &mut c, 3);
        assert!(c.sub(&c0).norm_fro() < 1e-12);
    }

    #[test]
    fn unmqr_trans_reduces_a_to_r() {
        // Q^T A == R.
        let mut rng = rand::rng();
        let a0 = Matrix::random(9, 5, &mut rng);
        let mut a = a0.clone();
        let mut t = Matrix::zeros(2, 5);
        geqrt(&mut a, &mut t, 2);
        let mut c = a0.clone();
        unmqr(&a, &t, ApplyTrans::Trans, &mut c, 2);
        for j in 0..5 {
            for i in 0..9 {
                if i > j {
                    assert!(c[(i, j)].abs() < 1e-12, "below-diagonal not annihilated");
                } else {
                    assert!((c[(i, j)] - a[(i, j)]).abs() < 1e-11, "R mismatch");
                }
            }
        }
    }

    #[test]
    fn geqrt_on_zero_matrix() {
        let mut a = Matrix::zeros(5, 3);
        let mut t = Matrix::zeros(2, 3);
        geqrt(&mut a, &mut t, 2);
        assert_eq!(a.norm_fro(), 0.0);
        assert_eq!(t.norm_fro(), 0.0);
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let mut rng = rand::rng();
        let a0 = Matrix::random(12, 12, &mut rng);
        let mut a1 = a0.clone();
        let mut t1 = Matrix::zeros(4, 12);
        geqrt(&mut a1, &mut t1, 4);

        let mut ws = Workspace::new();
        let mut a2 = a0.clone();
        let mut t2 = Matrix::zeros(4, 12);
        geqrt_ws(&mut a2, &mut t2, 4, &mut ws);
        assert_eq!(a1, a2);
        assert_eq!(t1, t2);
    }
}
