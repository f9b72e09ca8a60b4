//! `tsqrt` / `tsmqr`: incremental QR of a triangle stacked on a full tile.
//!
//! The reflector tails live in a full `m2 x n` tile, so no padding is
//! needed anywhere: the sweep reads whole columns, `T` formation takes
//! the Gram of the tails (the unit heads are orthogonal `e_j`'s and
//! contribute nothing), and the trailing block applies are straight
//! GEMM-shaped.

use super::sweep::{householder_sweep, Heads};
use super::{apply_stacked_block, form_block_t, inner_blocks, sub_panel_width, ApplyTrans};
use crate::matrix::Matrix;
use crate::workspace::{grow, with_thread_workspace, Workspace};

/// Incremental QR of the stacked pair `[A1; A2]` where `a1` is an `n x n`
/// upper-triangular tile (an `R` factor) and `a2` is a full `m2 x n` tile.
///
/// On return `a1` holds the updated `R` factor, `a2` holds the Householder
/// reflector tails `V2` (the top part of each reflector is an implicit unit
/// vector), and `t[0..ibb, jb..jb+ibb]` the inner-block factors.
///
/// Uses the thread-local [`Workspace`]; see [`tsqrt_ws`] for the
/// explicit-workspace variant.
pub fn tsqrt(a1: &mut Matrix, a2: &mut Matrix, t: &mut Matrix, ib: usize) {
    with_thread_workspace(|ws| tsqrt_ws(a1, a2, t, ib, ws));
}

/// [`tsqrt`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
pub fn tsqrt_ws(a1: &mut Matrix, a2: &mut Matrix, t: &mut Matrix, ib: usize, ws: &mut Workspace) {
    let n = a1.ncols();
    // a1 may be a full tile taller than its column count; only its top
    // n x n triangle (the R factor) is read and written.
    assert!(a1.nrows() >= n, "a1 must cover an n x n R factor");
    assert_eq!(a2.ncols(), n, "a2 must have the same column count");
    let m2 = a2.nrows();
    assert!(
        t.nrows() >= ib.min(n.max(1)) && t.ncols() >= n,
        "t too small"
    );

    let taus = grow(&mut ws.taus, ib.min(n.max(1)));
    for (jb, ibb) in inner_blocks(n, ib, ApplyTrans::Trans) {
        let pib = sub_panel_width(ibb);
        for (p0l, pw) in inner_blocks(ibb, pib, ApplyTrans::Trans) {
            let p0 = jb + p0l;
            let a1m = a1.nrows();
            let heads = Heads::Full(a1.data_mut(), a1m);
            let cols = p0..p0 + pw;
            householder_sweep(a2.data_mut(), m2, heads, cols, &mut taus[p0l..p0l + pw]);
            // Apply the finished sub-panel to the rest of this inner block.
            if p0 + pw < jb + ibb {
                form_block_t(
                    &a2.data()[p0 * m2..(p0 + pw) * m2],
                    m2,
                    m2,
                    pw,
                    &taus[p0l..p0l + pw],
                    grow(&mut ws.tsub, pw * pw),
                    pw,
                    0,
                    &mut ws.tgram,
                );
                // a2 is both reflector store and update target: split it at
                // the sub-panel boundary and apply in place, no V copy.
                let (vpart, cpart) = a2.split_cols_mut(p0 + pw);
                apply_stacked_block(
                    vpart,
                    m2,
                    p0,
                    m2,
                    &ws.tsub[..pw * pw],
                    pw,
                    0,
                    pw,
                    ApplyTrans::Trans,
                    a1,
                    p0,
                    cpart,
                    m2,
                    p0 + pw,
                    p0 + pw..jb + ibb,
                    &mut ws.w,
                    &mut ws.gemm,
                );
            }
        }
        // Form the block's T factor from the tails' Gram.
        let t_ld = t.nrows();
        form_block_t(
            &a2.data()[jb * m2..(jb + ibb) * m2],
            m2,
            m2,
            ibb,
            &taus[..ibb],
            t.data_mut(),
            t_ld,
            jb,
            &mut ws.tgram,
        );
        // Apply the block reflector to the trailing columns: split `a2` at
        // the block boundary (reflector store left, target right).
        if jb + ibb < n {
            let (vpart, cpart) = a2.split_cols_mut(jb + ibb);
            apply_stacked_block(
                vpart,
                m2,
                jb,
                m2,
                t.data(),
                t_ld,
                jb,
                ibb,
                ApplyTrans::Trans,
                a1,
                jb,
                cpart,
                m2,
                jb + ibb,
                jb + ibb..n,
                &mut ws.w,
                &mut ws.gemm,
            );
        }
    }
}

/// Apply `Q` or `Q^T` from a [`tsqrt`] factorization to the stacked pair
/// `[a1; a2]` from the left.
///
/// `v` is the `m2 x k` reflector-tail tile produced by `tsqrt` (i.e. its
/// `a2` output) and `t` the matching inner-block factors; `a1` must have at
/// least `k` rows and `a2` exactly `m2` rows.
///
/// Uses the thread-local [`Workspace`]; see [`tsmqr_ws`] for the
/// explicit-workspace variant.
pub fn tsmqr(
    a1: &mut Matrix,
    a2: &mut Matrix,
    v: &Matrix,
    t: &Matrix,
    trans: ApplyTrans,
    ib: usize,
) {
    with_thread_workspace(|ws| tsmqr_ws(a1, a2, v, t, trans, ib, ws));
}

/// [`tsmqr`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
#[allow(clippy::too_many_arguments)]
pub fn tsmqr_ws(
    a1: &mut Matrix,
    a2: &mut Matrix,
    v: &Matrix,
    t: &Matrix,
    trans: ApplyTrans,
    ib: usize,
    ws: &mut Workspace,
) {
    let k = v.ncols();
    let m2 = v.nrows();
    assert!(a1.nrows() >= k, "a1 must cover the factored rows");
    assert_eq!(a2.nrows(), m2, "a2 rows must match V");
    assert_eq!(a1.ncols(), a2.ncols(), "a1/a2 must have equal column count");
    let nc = a1.ncols();
    let t_ld = t.nrows();

    for (jb, ibb) in inner_blocks(k, ib, trans) {
        apply_stacked_block(
            v.data(),
            m2,
            jb,
            m2,
            t.data(),
            t_ld,
            jb,
            ibb,
            trans,
            a1,
            jb,
            a2.data_mut(),
            m2,
            0,
            0..nc,
            &mut ws.w,
            &mut ws.gemm,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::set_panel_ib;
    use super::*;
    use crate::kernels::geqrt;
    use crate::matrix::Matrix;

    /// Factor [R1; B] with tsqrt and rebuild the stacked Q explicitly.
    fn form_q_ts(v: &Matrix, t: &Matrix, n: usize, ib: usize) -> Matrix {
        let m2 = v.nrows();
        let m = n + m2;
        // Apply Q to the identity, column block by column block.
        let mut top = Matrix::identity(n);
        let mut top_rest = Matrix::zeros(n, m2);
        let mut bot = Matrix::zeros(m2, n);
        let mut bot_rest = Matrix::identity(m2);
        tsmqr(&mut top, &mut bot, v, t, ApplyTrans::NoTrans, ib);
        tsmqr(&mut top_rest, &mut bot_rest, v, t, ApplyTrans::NoTrans, ib);
        let mut q = Matrix::zeros(m, m);
        q.set_submatrix(0, 0, &top);
        q.set_submatrix(0, n, &top_rest);
        q.set_submatrix(n, 0, &bot);
        q.set_submatrix(n, n, &bot_rest);
        q
    }

    fn check_ts(n: usize, m2: usize, ib: usize) {
        let mut rng = rand::rng();
        // Start from a random R1 (upper triangular) and a full B.
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let b = Matrix::random(m2, n, &mut rng);
        let mut a1 = r1.clone();
        let mut a2 = b.clone();
        let mut t = Matrix::zeros(ib.min(n), n);
        tsqrt(&mut a1, &mut a2, &mut t, ib);

        // a1 must be upper triangular.
        for j in 0..n {
            for i in j + 1..n {
                assert!(a1[(i, j)].abs() < 1e-12, "R not triangular");
            }
        }
        // Q * [R; 0] must equal [R1; B].
        let q = form_q_ts(&a2, &t, n, ib);
        let m = n + m2;
        let qtq = q.transpose().matmul(&q);
        assert!(
            qtq.sub(&Matrix::identity(m)).norm_fro() < 1e-12 * m as f64,
            "stacked Q not orthogonal (n={n}, m2={m2}, ib={ib})"
        );
        let mut rstack = Matrix::zeros(m, n);
        rstack.set_submatrix(0, 0, &a1.upper_triangle());
        let back = q.matmul(&rstack);
        let mut orig = Matrix::zeros(m, n);
        orig.set_submatrix(0, 0, &r1);
        orig.set_submatrix(n, 0, &b);
        assert!(
            back.sub(&orig).norm_fro() < 1e-12 * orig.norm_fro().max(1.0),
            "ts QR mismatch (n={n}, m2={m2}, ib={ib})"
        );
    }

    #[test]
    fn tsqrt_various_shapes() {
        check_ts(4, 4, 2);
        check_ts(6, 6, 3);
        check_ts(5, 8, 2);
        check_ts(8, 3, 4);
        check_ts(1, 1, 1);
    }

    #[test]
    fn tsqrt_ib_extremes() {
        check_ts(6, 6, 1);
        check_ts(6, 6, 6);
        check_ts(6, 6, 100);
    }

    #[test]
    fn tsqrt_big_tile_exercises_packed_path() {
        // Large enough that the stacked applies cross the packed GEMM
        // threshold inside apply_stacked_block.
        check_ts(48, 48, 12);
    }

    #[test]
    fn tsqrt_sub_panel_sizes_cover_ragged_splits() {
        for pib in [1, 3, 5, 8] {
            set_panel_ib(Some(pib));
            check_ts(24, 24, 12);
            check_ts(13, 20, 6);
        }
        set_panel_ib(None);
    }

    #[test]
    fn tsqrt_blocked_matches_unblocked_panel() {
        // Same V2, T, and R as the single-scalar-panel path up to roundoff
        // reordering of the same sums.
        let mut rng = rand::rng();
        let n = 48;
        let ib = 16;
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let b = Matrix::random(n, n, &mut rng);

        set_panel_ib(Some(usize::MAX));
        let mut a1_ref = r1.clone();
        let mut a2_ref = b.clone();
        let mut t_ref = Matrix::zeros(ib, n);
        tsqrt(&mut a1_ref, &mut a2_ref, &mut t_ref, ib);

        // Pin a width the adaptive gate can't widen back to a single panel.
        set_panel_ib(Some(4));
        let mut a1_blk = r1.clone();
        let mut a2_blk = b.clone();
        let mut t_blk = Matrix::zeros(ib, n);
        tsqrt(&mut a1_blk, &mut a2_blk, &mut t_blk, ib);
        set_panel_ib(None);

        let scale = r1.norm_fro().max(b.norm_fro()).max(1.0);
        assert!(a1_blk.sub(&a1_ref).norm_fro() < 1e-11 * scale, "R drifted");
        assert!(a2_blk.sub(&a2_ref).norm_fro() < 1e-11 * scale, "V2 drifted");
        assert!(t_blk.sub(&t_ref).norm_fro() < 1e-11 * scale, "T drifted");
    }

    #[test]
    fn tsmqr_roundtrip() {
        let mut rng = rand::rng();
        let n = 5;
        let m2 = 6;
        let ib = 2;
        let mut a1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let mut a2 = Matrix::random(m2, n, &mut rng);
        let mut t = Matrix::zeros(ib, n);
        tsqrt(&mut a1, &mut a2, &mut t, ib);

        let c1_0 = Matrix::random(n, 4, &mut rng);
        let c2_0 = Matrix::random(m2, 4, &mut rng);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tsmqr(&mut c1, &mut c2, &a2, &t, ApplyTrans::Trans, ib);
        tsmqr(&mut c1, &mut c2, &a2, &t, ApplyTrans::NoTrans, ib);
        assert!(c1.sub(&c1_0).norm_fro() < 1e-12);
        assert!(c2.sub(&c2_0).norm_fro() < 1e-12);
    }

    #[test]
    fn two_tile_flat_tree_equals_tall_qr() {
        // Factor a 2-tile column [A0; A1] via geqrt + tsqrt and compare the
        // R factor with a direct QR of the stacked matrix (up to signs).
        let mut rng = rand::rng();
        let nb = 6;
        let ib = 3;
        let a0 = Matrix::random(nb, nb, &mut rng);
        let a1 = Matrix::random(nb, nb, &mut rng);

        let mut top = a0.clone();
        let mut t0 = Matrix::zeros(ib, nb);
        geqrt(&mut top, &mut t0, ib);
        let mut bot = a1.clone();
        let mut t1 = Matrix::zeros(ib, nb);
        tsqrt(&mut top, &mut bot, &mut t1, ib);

        // Direct QR of the 12x6 stacked matrix.
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.set_submatrix(0, 0, &a0);
        stacked.set_submatrix(nb, 0, &a1);
        let mut tref = Matrix::zeros(ib, nb);
        geqrt(&mut stacked, &mut tref, ib);

        // R factors must agree up to per-row sign.
        for i in 0..nb {
            let sign = if (top[(i, i)] >= 0.0) == (stacked[(i, i)] >= 0.0) {
                1.0
            } else {
                -1.0
            };
            for j in i..nb {
                assert!(
                    (top[(i, j)] - sign * stacked[(i, j)]).abs() < 1e-10,
                    "R mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let mut rng = rand::rng();
        let n = 16;
        let ib = 4;
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let b = Matrix::random(n, n, &mut rng);

        let mut a1 = r1.clone();
        let mut a2 = b.clone();
        let mut t = Matrix::zeros(ib, n);
        tsqrt(&mut a1, &mut a2, &mut t, ib);

        let mut ws = Workspace::new();
        let mut a1w = r1.clone();
        let mut a2w = b.clone();
        let mut tw = Matrix::zeros(ib, n);
        tsqrt_ws(&mut a1w, &mut a2w, &mut tw, ib, &mut ws);
        assert_eq!(a1, a1w);
        assert_eq!(a2, a2w);
        assert_eq!(t, tw);
    }
}
