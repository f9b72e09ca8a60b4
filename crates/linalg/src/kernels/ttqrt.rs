//! `ttqrt` / `ttmqr`: incremental QR of a triangle stacked on a triangle
//! (the binary-tree reduction kernels).
//!
//! The reflector tails form a staircase (tail `j` spans rows `0..=j` of
//! `a2`'s upper triangle). All block operations zero-pad the staircase into
//! a dense `V̂` copy ([`super::pad_stair_v`]) so the applies and the `T`
//! formation are pure GEMM-shaped — no scalar fringe loops. The padded
//! lanes are exact zeros, so results are unchanged, and the strict lower
//! triangle of `a2` (poison by contract) is never read.

use super::sweep::{householder_sweep, Heads};
use super::{
    apply_stacked_block, form_block_t, inner_blocks, pad_stair_v, sub_panel_width, ApplyTrans,
};
use crate::matrix::Matrix;
use crate::workspace::{grow, with_thread_workspace, Workspace};

/// Incremental QR of the stacked pair `[A1; A2]` where **both** `a1` and
/// `a2` are `n x n` upper-triangular tiles (two `R` factors meeting in a
/// tree reduction).
///
/// On return `a1` holds the combined `R`, the upper triangle of `a2` holds
/// the reflector tails `V2` (tail `j` spans rows `0..=j`; the strict lower
/// triangle of `a2` is never read or written), and `t` the inner-block
/// factors.
///
/// Uses the thread-local [`Workspace`]; see [`ttqrt_ws`] for the
/// explicit-workspace variant.
pub fn ttqrt(a1: &mut Matrix, a2: &mut Matrix, t: &mut Matrix, ib: usize) {
    with_thread_workspace(|ws| ttqrt_ws(a1, a2, t, ib, ws));
}

/// [`ttqrt`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
pub fn ttqrt_ws(a1: &mut Matrix, a2: &mut Matrix, t: &mut Matrix, ib: usize, ws: &mut Workspace) {
    let n = a1.ncols();
    // Tiles may be taller than their column count (ragged column edges);
    // only the top n x n triangles participate.
    assert!(a1.nrows() >= n, "a1 must cover an n x n R factor");
    assert!(a2.nrows() >= n, "a2 must cover an n x n R factor");
    assert_eq!(a2.ncols(), n, "a2 column count must match");
    assert!(
        t.nrows() >= ib.min(n.max(1)) && t.ncols() >= n,
        "t too small"
    );
    let a2m = a2.nrows();

    let taus = grow(&mut ws.taus, ib.min(n.max(1)));
    for (jb, ibb) in inner_blocks(n, ib, ApplyTrans::Trans) {
        let pib = sub_panel_width(ibb);
        for (p0l, pw) in inner_blocks(ibb, pib, ApplyTrans::Trans) {
            let p0 = jb + p0l;
            let a1m = a1.nrows();
            let heads = Heads::Stair(a1.data_mut(), a1m);
            let cols = p0..p0 + pw;
            householder_sweep(a2.data_mut(), a2m, heads, cols, &mut taus[p0l..p0l + pw]);
            // Apply the finished sub-panel to the rest of this inner block.
            // Padding the staircase also takes the place of the V copy (a2
            // is both reflector store and update target). Target columns
            // c >= p0 + pw have valid rows 0..p0+pw, so the padded apply
            // never touches the poison triangle.
            if p0 + pw < jb + ibb {
                let vrows = pad_stair_v(a2.data(), a2m, p0, p0 + 1, pw, &mut ws.vpad);
                form_block_t(
                    &ws.vpad[..vrows * pw],
                    vrows,
                    vrows,
                    pw,
                    &taus[p0l..p0l + pw],
                    grow(&mut ws.tsub, pw * pw),
                    pw,
                    0,
                    &mut ws.tgram,
                );
                apply_stacked_block(
                    &ws.vpad[..vrows * pw],
                    vrows,
                    0,
                    vrows,
                    &ws.tsub[..pw * pw],
                    pw,
                    0,
                    pw,
                    ApplyTrans::Trans,
                    a1,
                    p0,
                    a2.data_mut(),
                    a2m,
                    0,
                    p0 + pw..jb + ibb,
                    &mut ws.w,
                    &mut ws.gemm,
                );
            }
        }
        // Form the block's T factor from the zero-padded staircase.
        let t_ld = t.nrows();
        let vrows = pad_stair_v(a2.data(), a2m, jb, jb + 1, ibb, &mut ws.vcopy);
        form_block_t(
            &ws.vcopy[..vrows * ibb],
            vrows,
            vrows,
            ibb,
            &taus[..ibb],
            t.data_mut(),
            t_ld,
            jb,
            &mut ws.tgram,
        );
        // Apply the block reflector to the trailing columns, reusing the
        // padded V̂ copy (trailing columns c >= jb + ibb have valid rows
        // 0..jb+ibb, so the poison triangle stays untouched).
        if jb + ibb < n {
            apply_stacked_block(
                &ws.vcopy[..vrows * ibb],
                vrows,
                0,
                vrows,
                t.data(),
                t_ld,
                jb,
                ibb,
                ApplyTrans::Trans,
                a1,
                jb,
                a2.data_mut(),
                a2m,
                0,
                jb + ibb..n,
                &mut ws.w,
                &mut ws.gemm,
            );
        }
    }
}

/// Apply `Q` or `Q^T` from a [`ttqrt`] factorization to the stacked pair
/// `[a1; a2]` from the left.
///
/// `v` is the triangular reflector-tail tile produced by `ttqrt` (its `a2`
/// output; only its upper triangle is read) and `t` the matching factors.
///
/// Uses the thread-local [`Workspace`]; see [`ttmqr_ws`] for the
/// explicit-workspace variant.
pub fn ttmqr(
    a1: &mut Matrix,
    a2: &mut Matrix,
    v: &Matrix,
    t: &Matrix,
    trans: ApplyTrans,
    ib: usize,
) {
    with_thread_workspace(|ws| ttmqr_ws(a1, a2, v, t, trans, ib, ws));
}

/// [`ttmqr`] with caller-provided scratch: allocation-free once `ws` has
/// warmed up to the problem size.
#[allow(clippy::too_many_arguments)]
pub fn ttmqr_ws(
    a1: &mut Matrix,
    a2: &mut Matrix,
    v: &Matrix,
    t: &Matrix,
    trans: ApplyTrans,
    ib: usize,
    ws: &mut Workspace,
) {
    let k = v.ncols();
    assert!(a1.nrows() >= k, "a1 must cover the factored rows");
    assert!(a2.nrows() >= k, "a2 must cover the reflector tails");
    assert_eq!(a1.ncols(), a2.ncols(), "a1/a2 must have equal column count");
    let nc = a1.ncols();
    let a2m = a2.nrows();
    let t_ld = t.nrows();

    for (jb, ibb) in inner_blocks(k, ib, trans) {
        let vrows = pad_stair_v(v.data(), v.nrows(), jb, jb + 1, ibb, &mut ws.vpad);
        apply_stacked_block(
            &ws.vpad[..vrows * ibb],
            vrows,
            0,
            vrows,
            t.data(),
            t_ld,
            jb,
            ibb,
            trans,
            a1,
            jb,
            a2.data_mut(),
            a2m,
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
    use crate::matrix::Matrix;

    fn form_q_tt(v: &Matrix, t: &Matrix, n: usize, ib: usize) -> Matrix {
        let m = 2 * n;
        let mut top = Matrix::identity(n);
        let mut top_rest = Matrix::zeros(n, n);
        let mut bot = Matrix::zeros(n, n);
        let mut bot_rest = Matrix::identity(n);
        ttmqr(&mut top, &mut bot, v, t, ApplyTrans::NoTrans, ib);
        ttmqr(&mut top_rest, &mut bot_rest, v, t, ApplyTrans::NoTrans, ib);
        let mut q = Matrix::zeros(m, m);
        q.set_submatrix(0, 0, &top);
        q.set_submatrix(0, n, &top_rest);
        q.set_submatrix(n, 0, &bot);
        q.set_submatrix(n, n, &bot_rest);
        q
    }

    fn check_tt(n: usize, ib: usize) {
        let mut rng = rand::rng();
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let r2 = Matrix::random(n, n, &mut rng).upper_triangle();
        let mut a1 = r1.clone();
        // Poison the strict lower triangle of a2 to verify it is ignored.
        let mut a2 = r2.clone();
        for j in 0..n {
            for i in j + 1..n {
                a2[(i, j)] = f64::NAN;
            }
        }
        let mut t = Matrix::zeros(ib.min(n), n);
        ttqrt(&mut a1, &mut a2, &mut t, ib);

        for j in 0..n {
            for i in j + 1..n {
                assert!(a1[(i, j)].abs() < 1e-12, "R not triangular");
                assert!(a2[(i, j)].is_nan(), "lower triangle of a2 written");
            }
        }
        // Zero the poison before using a2 as V (ttmqr only reads the upper
        // triangle, but form_q builds a dense Q).
        let v = a2.upper_triangle();
        let q = form_q_tt(&v, &t, n, ib);
        let m = 2 * n;
        let qtq = q.transpose().matmul(&q);
        assert!(
            qtq.sub(&Matrix::identity(m)).norm_fro() < 1e-12 * m as f64,
            "tt Q not orthogonal (n={n}, ib={ib})"
        );
        let mut rstack = Matrix::zeros(m, n);
        rstack.set_submatrix(0, 0, &a1.upper_triangle());
        let back = q.matmul(&rstack);
        let mut orig = Matrix::zeros(m, n);
        orig.set_submatrix(0, 0, &r1);
        orig.set_submatrix(n, 0, &r2);
        assert!(
            back.sub(&orig).norm_fro() < 1e-12 * orig.norm_fro().max(1.0),
            "tt QR mismatch (n={n}, ib={ib})"
        );
    }

    #[test]
    fn ttqrt_various() {
        check_tt(1, 1);
        check_tt(4, 2);
        check_tt(6, 3);
        check_tt(7, 2);
        check_tt(5, 100);
    }

    #[test]
    fn ttqrt_big_tile_exercises_packed_path() {
        // Large enough that the rectangle part of the staircase apply
        // crosses the packed GEMM threshold.
        check_tt(48, 12);
    }

    #[test]
    fn ttqrt_sub_panel_sizes_cover_ragged_splits() {
        for pib in [1, 3, 5, 8] {
            set_panel_ib(Some(pib));
            check_tt(24, 12);
            check_tt(13, 6);
        }
        set_panel_ib(None);
    }

    #[test]
    fn ttqrt_blocked_matches_unblocked_panel() {
        // Same V2, T, and R as the single-scalar-panel path up to roundoff
        // reordering of the same sums.
        let mut rng = rand::rng();
        let n = 48;
        let ib = 16;
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let r2 = Matrix::random(n, n, &mut rng).upper_triangle();

        set_panel_ib(Some(usize::MAX));
        let mut a1_ref = r1.clone();
        let mut a2_ref = r2.clone();
        let mut t_ref = Matrix::zeros(ib, n);
        ttqrt(&mut a1_ref, &mut a2_ref, &mut t_ref, ib);

        // Pin a width the adaptive gate can't widen back to a single panel.
        set_panel_ib(Some(4));
        let mut a1_blk = r1.clone();
        let mut a2_blk = r2.clone();
        let mut t_blk = Matrix::zeros(ib, n);
        ttqrt(&mut a1_blk, &mut a2_blk, &mut t_blk, ib);
        set_panel_ib(None);

        let scale = r1.norm_fro().max(r2.norm_fro()).max(1.0);
        assert!(a1_blk.sub(&a1_ref).norm_fro() < 1e-11 * scale, "R drifted");
        assert!(a2_blk.sub(&a2_ref).norm_fro() < 1e-11 * scale, "V2 drifted");
        assert!(t_blk.sub(&t_ref).norm_fro() < 1e-11 * scale, "T drifted");
    }

    #[test]
    fn ttmqr_roundtrip() {
        let mut rng = rand::rng();
        let n = 5;
        let ib = 2;
        let mut a1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let mut a2 = Matrix::random(n, n, &mut rng).upper_triangle();
        let mut t = Matrix::zeros(ib, n);
        ttqrt(&mut a1, &mut a2, &mut t, ib);

        let c1_0 = Matrix::random(n, 3, &mut rng);
        let c2_0 = Matrix::random(n, 3, &mut rng);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        ttmqr(&mut c1, &mut c2, &a2, &t, ApplyTrans::Trans, ib);
        ttmqr(&mut c1, &mut c2, &a2, &t, ApplyTrans::NoTrans, ib);
        assert!(c1.sub(&c1_0).norm_fro() < 1e-12);
        assert!(c2.sub(&c2_0).norm_fro() < 1e-12);
    }

    #[test]
    fn ttqrt_identity_second_block_keeps_r() {
        // Reducing [R; 0] must leave R unchanged up to signs and produce
        // tau = 0 reflectors.
        let mut rng = rand::rng();
        let n = 4;
        let r = Matrix::random(n, n, &mut rng).upper_triangle();
        let mut a1 = r.clone();
        let mut a2 = Matrix::zeros(n, n);
        let mut t = Matrix::zeros(2, n);
        ttqrt(&mut a1, &mut a2, &mut t, 2);
        assert!(
            a1.sub(&r).norm_fro() < 1e-14,
            "R changed by trivial reduction"
        );
        assert_eq!(t.norm_fro(), 0.0);
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let mut rng = rand::rng();
        let n = 16;
        let ib = 4;
        let r1 = Matrix::random(n, n, &mut rng).upper_triangle();
        let r2 = Matrix::random(n, n, &mut rng).upper_triangle();

        let mut a1 = r1.clone();
        let mut a2 = r2.clone();
        let mut t = Matrix::zeros(ib, n);
        ttqrt(&mut a1, &mut a2, &mut t, ib);

        let mut ws = Workspace::new();
        let mut a1w = r1.clone();
        let mut a2w = r2.clone();
        let mut tw = Matrix::zeros(ib, n);
        ttqrt_ws(&mut a1w, &mut a2w, &mut tw, ib, &mut ws);
        assert_eq!(a1, a1w);
        assert_eq!(a2, a2w);
        assert_eq!(t, tw);
    }
}
