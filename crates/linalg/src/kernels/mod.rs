//! PLASMA-style tile QR kernels.
//!
//! These are the computational kernels from Section V-B of the paper:
//!
//! | kernel               | role |
//! |----------------------|------|
//! | [`geqrt`]            | QR of a tile; R in the upper triangle, reflectors below, `T` factors on the side. Sweep heads: the diagonal; tails: the rows below it |
//! | [`unmqr`]            | apply a `geqrt` transformation to a tile of the trailing submatrix |
//! | [`tsqrt`]            | incremental QR of a triangle stacked on a full tile. Sweep heads: the triangle's diagonal; tails: whole columns |
//! | [`tsmqr`]            | apply a `tsqrt` transformation to two stacked tiles |
//! | [`ttqrt`]            | incremental QR of a triangle stacked on a triangle. Sweep heads: as `tsqrt`; tails: the staircase, its ragged end a masked chunk |
//! | [`ttmqr`]            | apply a `ttqrt` transformation to two stacked tiles |
//! | [`apply_narrow`]     | apply any of the three stored transformations to an operand of a few columns in place (solves, `apply-q`): SIMD along rows, no padded copies |
//!
//! All kernels use inner blocking with block size `ib` and store the
//! block-reflector factors in a `ib x n` matrix `t`: the `T` factor of the
//! inner block starting at column `jb` lives in `t[0..ibb, jb..jb+ibb]`
//! (upper triangular, `ibb = min(ib, n - jb)`).
//!
//! The factorizations themselves are blocked twice: each `ib`-wide panel is
//! factored in sub-panels (one sub-panel up to `2 * PANEL_IB + 1` columns,
//! [`PANEL_IB`]-wide ones above that; override with [`set_panel_ib`]).
//! Inside a sub-panel a Householder sweep generates each reflector and
//! applies it to the sub-panel columns right of it — on the narrow kernel's
//! SIMD lanes (`sweep.rs`): one row-vectorized pass takes the dots for 8
//! target columns at once, a second does their rank-1 update, and the
//! reflector norm runs on the same lanes. The finished sub-panel is applied
//! to the rest of its panel through the same GEMM-shaped block apply the
//! trailing update uses, and the `T` factors come from the `V̂^T V̂` Gram
//! (on the same lanes) plus a triangular recurrence. Ragged reflector shapes (the
//! unit-triangle heads of `geqrt`, the staircase tails of `ttqrt`) are
//! zero-padded into dense `V̂` copies so every apply is two GEMMs — the
//! padded lanes contribute exact zeros, so results are unchanged. Each
//! kernel has a `*_ws` variant taking an explicit [`Workspace`]
//! (allocation-free in steady state); the plain names borrow the
//! thread-local workspace.

pub mod cholesky;
mod geqrt;
mod lanes;
mod narrow;
mod sweep;
mod tsqrt;
mod ttqrt;

pub use geqrt::{geqrt, geqrt_ws, unmqr, unmqr_ws};
pub use narrow::{apply_narrow, VShape, NARROW_MAX};
pub use tsqrt::{tsmqr, tsmqr_ws, tsqrt, tsqrt_ws};
pub use ttqrt::{ttmqr, ttmqr_ws, ttqrt, ttqrt_ws};

pub use cholesky::{potrf_lower, syrk_lower, trsm_right_lower_trans};

use crate::blas::ddot;
use crate::gemm::{gemm_into, GemmScratch, MatMut, MatRef};
use crate::matrix::Matrix;
use crate::workspace::grow;
use std::cell::Cell;
use sweep::gram_upper;

/// Which operator to apply in the `*mqr` kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ApplyTrans {
    /// Apply `Q` itself.
    NoTrans,
    /// Apply `Q^T` (the direction used during factorization updates).
    Trans,
}

/// Default sub-panel width of the blocked panel factorizations: an inner
/// block wider than `2 * PANEL_IB + 1` is factored `PANEL_IB` columns at a
/// time by the Householder sweep, and everything wider goes through GEMM;
/// narrower blocks are one sweep. A multiple of every microkernel MR, so
/// the `V̂^T C` sub-panel GEMMs run unmasked. Set from a sweep of
/// sub-panel widths 16, 32 and the whole block over `(nb, ib)` from
/// (128, 32) to (384, 96) on the AVX-512 tier: one sweep was fastest up to
/// `ib = 48`, level at 64, and sub-panels won at 96 (DESIGN.md §8).
pub(crate) const PANEL_IB: usize = 32;

thread_local! {
    static PANEL_IB_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Override the factorization sub-panel width for the current thread
/// (`None` restores [`PANEL_IB`]). `Some(usize::MAX)` disables sub-panel
/// blocking entirely (one scalar panel per inner block, the pre-blocking
/// code path) — a test/bench hook, not a tuning knob.
pub fn set_panel_ib(width: Option<usize>) {
    assert!(width != Some(0), "sub-panel width must be positive");
    PANEL_IB_OVERRIDE.with(|c| c.set(width));
}

/// The sub-panel width in effect on this thread.
pub(crate) fn panel_ib() -> usize {
    PANEL_IB_OVERRIDE.with(|c| c.get()).unwrap_or(PANEL_IB)
}

/// Sub-panel width used to factor an `ibb`-wide inner block: the thread's
/// [`panel_ib`] when the block is wide enough for the pad/Gram/apply
/// machinery to amortize, the full block width otherwise (one sweep — the
/// fastest shape up to `2 * PANEL_IB + 1` columns, where splitting only adds
/// copies and small GEMMs).
pub(crate) fn sub_panel_width(ibb: usize) -> usize {
    let pib = panel_ib();
    if ibb / 2 > pib {
        pib
    } else {
        ibb.max(1)
    }
}

/// Iterate over the inner blocks of a factorization with `k` columns:
/// yields `(jb, ibb)` pairs, ascending for [`ApplyTrans::Trans`] (and for
/// factorization), descending for [`ApplyTrans::NoTrans`]. Allocation-free.
pub(crate) fn inner_blocks(
    k: usize,
    ib: usize,
    trans: ApplyTrans,
) -> impl Iterator<Item = (usize, usize)> {
    assert!(ib > 0, "inner block size must be positive");
    let nblocks = k.div_ceil(ib);
    (0..nblocks).map(move |bi| {
        let bi = if trans == ApplyTrans::NoTrans {
            nblocks - 1 - bi
        } else {
            bi
        };
        let jb = bi * ib;
        (jb, ib.min(k - jb))
    })
}

/// Below this block width `apply_t_block` keeps its in-place scalar
/// triangular loops: the dense-`T` GEMM doubles the flops, and for small
/// `ibb` the product falls under the packed-GEMM threshold anyway, so the
/// 2x runs in the slow small-product loops and loses outright.
const T_APPLY_GEMM_MIN: usize = 16;

/// Multiply the `ibb x nc` column-major workspace `w` (leading dimension
/// `ibb`) by the upper-triangular `T` block stored in columns
/// `t_col0..t_col0+ibb` of the flat column-major buffer `t` (leading
/// dimension `t_ld`). **Out of place**: the result `op(T) * w` lands in the
/// first `ibb * nc` elements of `scratch`, which is returned; `w` is left
/// untouched.
///
/// For `ibb >= T_APPLY_GEMM_MIN` the triangle is zero-filled into a dense
/// `ibb x ibb` copy (the tail of `scratch`, which must hold `ibb * (nc +
/// ibb)` elements) and the whole product becomes one GEMM from `w` into the
/// output — no copy of `w` at all. The padded zeros contribute exact zeros,
/// so the math is unchanged; it trades 2x the flops for the vectorized GEMM
/// rate, which wins by an order of magnitude over the scalar triangular
/// loops that would otherwise dominate every block apply.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_t_block<'s>(
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    ibb: usize,
    trans: ApplyTrans,
    w: &[f64],
    scratch: &'s mut [f64],
    nc: usize,
    gemm: &mut GemmScratch,
) -> &'s mut [f64] {
    debug_assert!(w.len() >= ibb * nc);
    debug_assert!(scratch.len() >= ibb * (nc + ibb));
    let tcol = |j: usize| &t[(t_col0 + j) * t_ld..][..ibb.min(t_ld)];
    let (out, td) = scratch.split_at_mut(ibb * nc);
    if ibb >= T_APPLY_GEMM_MIN {
        for j in 0..ibb {
            let dst = &mut td[j * ibb..(j + 1) * ibb];
            dst[..=j].copy_from_slice(&tcol(j)[..=j]);
            dst[j + 1..].fill(0.0);
        }
        let tv = MatRef::new(&td[..ibb * ibb], ibb, ibb, 1, ibb);
        let tv = match trans {
            ApplyTrans::Trans => tv.t(),
            ApplyTrans::NoTrans => tv,
        };
        gemm_into(
            1.0,
            tv,
            MatRef::new(&w[..ibb * nc], ibb, nc, 1, ibb),
            0.0,
            MatMut::new(out, ibb, nc, 1, ibb),
            gemm,
        );
        return out;
    }
    out.copy_from_slice(&w[..ibb * nc]);
    let w = out;
    match trans {
        ApplyTrans::Trans => {
            // Row i of T^T w depends on rows <= i of w: bottom-up in place.
            for c in 0..nc {
                let col = &mut w[c * ibb..(c + 1) * ibb];
                for i in (0..ibb).rev() {
                    col[i] = ddot(&tcol(i)[..=i], &col[..=i]);
                }
            }
        }
        ApplyTrans::NoTrans => {
            // Row i of T w depends on rows >= i of w: top-down in place.
            for c in 0..nc {
                let col = &mut w[c * ibb..(c + 1) * ibb];
                for i in 0..ibb {
                    let mut s = 0.0;
                    for (l, &cl) in col.iter().enumerate().take(ibb).skip(i) {
                        s += tcol(l)[i] * cl;
                    }
                    col[i] = s;
                }
            }
        }
    }
    w
}

/// Form the upper-triangular `T` factor of an `ibb`-wide reflector block
/// from its dense `rows x ibb` column-major representation `vhat` (leading
/// dimension `v_ld`, zero-padded where reflectors are ragged; unit heads
/// explicit for in-tile blocks, absent for stacked blocks whose heads live
/// in a separate identity part).
///
/// The cross products `V̂^T V̂` come from [`gram_upper`] on the sweep's
/// lanes (`gram` scratch); the dlarft recurrence then builds `T` one column
/// at a time, `T[0..j, j] = -tau_j T[0..j, 0..j] (V̂^T v̂_j)`, the
/// triangular product as one axpy per column of `T` (contiguous, so it
/// vectorizes). Its `ibb^3 / 6` multiply-adds stay below the Gram's
/// `ibb^2 rows / 2`. The result goes to columns `t_col0..t_col0+ibb` of the
/// flat column-major buffer `t` (leading dimension `t_ld`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn form_block_t(
    vhat: &[f64],
    v_ld: usize,
    rows: usize,
    ibb: usize,
    taus: &[f64],
    t: &mut [f64],
    t_ld: usize,
    t_col0: usize,
    gram: &mut Vec<f64>,
) {
    let g = grow(gram, ibb * ibb);
    gram_upper(vhat, v_ld, rows, ibb, g, ibb);
    for j in 0..ibb {
        let (prev, col) = t.split_at_mut((t_col0 + j) * t_ld);
        let col = &mut col[..=j];
        let tau = taus[j];
        col[j] = tau;
        if tau == 0.0 {
            col[..j].fill(0.0);
            continue;
        }
        for (c, gv) in col[..j].iter_mut().zip(&g[j * ibb..]) {
            *c = -tau * gv;
        }
        // col := T[0..j, 0..j] col, column `l` of T scaled by the old
        // col[l]: in place top-down, since column l only reaches rows <= l.
        for l in 0..j {
            let x = col[l];
            col[l] = 0.0;
            let tl = &prev[(t_col0 + l) * t_ld..][..=l];
            for (ci, ti) in col[..=l].iter_mut().zip(tl) {
                *ci += ti * x;
            }
        }
    }
}

/// Build the zero-padded dense `V̂` for one in-tile reflector block: column
/// `l` gets zeros above its head, an explicit unit head at local row `l`,
/// and the stored tail below. `v` is the flat column-major tile (leading
/// dimension `ld` = tile rows) holding reflector `l` in column `jb + l`.
/// Returns the padded row count `ld - jb`.
pub(crate) fn pad_tile_v(v: &[f64], ld: usize, jb: usize, ibb: usize, out: &mut Vec<f64>) -> usize {
    let rows = ld - jb;
    let buf = grow(out, rows * ibb);
    for l in 0..ibb {
        let src = &v[(jb + l) * ld..][..ld];
        let dst = &mut buf[l * rows..(l + 1) * rows];
        dst[..l].fill(0.0);
        dst[l] = 1.0;
        dst[l + 1..].copy_from_slice(&src[jb + l + 1..]);
    }
    rows
}

/// Build the zero-padded dense `V̂` for one staircase reflector-tail block
/// (`ttqrt` family): local tail `l` (column `col0 + l` of `v`, leading
/// dimension `ld`) has `first + l` valid rows; shorter tails are padded
/// with exact zeros at the bottom. Returns the padded row count
/// `first + ibb - 1`.
pub(crate) fn pad_stair_v(
    v: &[f64],
    ld: usize,
    col0: usize,
    first: usize,
    ibb: usize,
    out: &mut Vec<f64>,
) -> usize {
    let rows = first + ibb - 1;
    let buf = grow(out, rows * ibb);
    for l in 0..ibb {
        let len = first + l;
        let src = &v[(col0 + l) * ld..][..len];
        let dst = &mut buf[l * rows..(l + 1) * rows];
        dst[..len].copy_from_slice(src);
        dst[len..].fill(0.0);
    }
    rows
}

/// Apply one inner block of a *stacked* block reflector from the left to
/// the pair `(rows a1_row0..a1_row0+ibb of a1, rows 0..v2_rows of a2)`,
/// columns `cols` of both:
///
/// ```text
/// W  = A1[a1_row0.., cols] + V2^T * A2[0..v2_rows, cols]
/// W := op(T_blk) * W
/// A1[a1_row0.., cols] -= W
/// A2[0..v2_rows, cols] -= V2 * W
/// ```
///
/// `v2` is a dense column-major reflector-tail store with leading dimension
/// `v2_ld`: local reflector `l` has its tail in column `v2_col0 + l`, rows
/// `0..v2_rows` (staircase tails must be zero-padded, see [`pad_stair_v`]).
/// The `T` block lives in columns `t_col0..` of the flat buffer `t`
/// (leading dimension `t_ld`). `a2` is a raw column-major slice (leading
/// dimension `a2m`) whose first column is global column `a2_col0` — this
/// lets `tsqrt` split its tile into reflector and target halves and apply
/// in place, with no `V` copy. Both `V2` products are single GEMMs;
/// `w`/`gemm` are the caller's scratch (no allocations in steady state).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_stacked_block(
    v2: &[f64],
    v2_ld: usize,
    v2_col0: usize,
    v2_rows: usize,
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    ibb: usize,
    trans: ApplyTrans,
    a1: &mut Matrix,
    a1_row0: usize,
    a2: &mut [f64],
    a2m: usize,
    a2_col0: usize,
    cols: std::ops::Range<usize>,
    w: &mut Vec<f64>,
    gemm: &mut GemmScratch,
) {
    let nc = cols.len();
    if nc == 0 || ibb == 0 {
        return;
    }
    let a2_off = (cols.start - a2_col0) * a2m;
    let wbuf = grow(w, ibb * (2 * nc + ibb));
    let (w, tscratch) = wbuf.split_at_mut(ibb * nc);

    // W = A1[a1_row0..a1_row0+ibb, cols].
    for (wc, c) in cols.clone().enumerate() {
        w[wc * ibb..(wc + 1) * ibb].copy_from_slice(&a1.col(c)[a1_row0..a1_row0 + ibb]);
    }
    // W += V2^T * A2.
    if v2_rows > 0 {
        let v2v = MatRef::new(&v2[v2_col0 * v2_ld..], v2_rows, ibb, 1, v2_ld).t();
        let a2v = MatRef::new(&a2[a2_off..], v2_rows, nc, 1, a2m);
        gemm_into(
            1.0,
            v2v,
            a2v,
            1.0,
            MatMut::new(&mut w[..], ibb, nc, 1, ibb),
            gemm,
        );
    }

    let w = apply_t_block(t, t_ld, t_col0, ibb, trans, w, tscratch, nc, gemm);

    // A1[a1_row0..a1_row0+ibb, cols] -= W.
    for (wc, c) in cols.clone().enumerate() {
        let dst = &mut a1.col_mut(c)[a1_row0..a1_row0 + ibb];
        for (x, wv) in dst.iter_mut().zip(&w[wc * ibb..(wc + 1) * ibb]) {
            *x -= wv;
        }
    }
    // A2 -= V2 * W.
    if v2_rows > 0 {
        let v2v = MatRef::new(&v2[v2_col0 * v2_ld..], v2_rows, ibb, 1, v2_ld);
        let wv = MatRef::new(&w[..], ibb, nc, 1, ibb);
        let cv = MatMut::new(&mut a2[a2_off..], v2_rows, nc, 1, a2m);
        gemm_into(-1.0, v2v, wv, 1.0, cv, gemm);
    }
}

/// Apply one inner block of an *in-tile* block reflector (`geqrt` trailing
/// update / `unmqr`) from the left to columns `c_col0..c_col0+nc` of the
/// column-major buffer `c` (leading dimension `ld`), rows
/// `row0..row0+rows`:
///
/// ```text
/// W  = V̂^T * C[row0.., cols]
/// W := op(T_blk) * W
/// C[row0.., cols] -= V̂ * W
/// ```
///
/// `vhat` is the zero-padded dense `rows x ibb` reflector block from
/// [`pad_tile_v`] (unit heads explicit, so the whole apply is two GEMMs —
/// no triangular fringe). The `T` block lives in columns `t_col0..` of the
/// flat buffer `t` (leading dimension `t_ld`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_tile_block(
    vhat: &[f64],
    rows: usize,
    ibb: usize,
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    trans: ApplyTrans,
    c: &mut [f64],
    ld: usize,
    row0: usize,
    c_col0: usize,
    nc: usize,
    w: &mut Vec<f64>,
    gemm: &mut GemmScratch,
) {
    if nc == 0 || ibb == 0 || rows == 0 {
        return;
    }
    let wbuf = grow(w, ibb * (2 * nc + ibb));
    let (w, tscratch) = wbuf.split_at_mut(ibb * nc);
    let vv = MatRef::new(&vhat[..rows * ibb], rows, ibb, 1, rows);

    // W = V̂^T * C (beta = 0: W scratch may hold stale garbage).
    let cv = MatRef::new(&c[c_col0 * ld + row0..], rows, nc, 1, ld);
    gemm_into(
        1.0,
        vv.t(),
        cv,
        0.0,
        MatMut::new(&mut w[..], ibb, nc, 1, ibb),
        gemm,
    );

    let w = apply_t_block(t, t_ld, t_col0, ibb, trans, w, tscratch, nc, gemm);

    // C -= V̂ * W.
    let wv = MatRef::new(&w[..], ibb, nc, 1, ibb);
    let cm = MatMut::new(&mut c[c_col0 * ld + row0..], rows, nc, 1, ld);
    gemm_into(-1.0, vv, wv, 1.0, cm, gemm);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_blocks_cover_columns() {
        let blocks: Vec<_> = inner_blocks(10, 4, ApplyTrans::Trans).collect();
        assert_eq!(blocks, vec![(0, 4), (4, 4), (8, 2)]);
        let rev: Vec<_> = inner_blocks(10, 4, ApplyTrans::NoTrans).collect();
        assert_eq!(rev, vec![(8, 2), (4, 4), (0, 4)]);
    }

    #[test]
    fn inner_blocks_single() {
        let blocks: Vec<_> = inner_blocks(3, 8, ApplyTrans::Trans).collect();
        assert_eq!(blocks, vec![(0, 3)]);
        assert_eq!(inner_blocks(0, 4, ApplyTrans::Trans).count(), 0);
    }

    // Checks both dispatch paths: `ibb = 3` runs the scalar triangular
    // loops, `ibb = 24` the zero-padded dense-T GEMM.
    fn check_apply_t_block(ibb: usize, nc: usize, tol: f64) {
        use crate::blas::{dgemm, Trans};
        let mut rng = rand::rng();
        // t with the block at columns 2..2+ibb, upper triangular.
        let mut t = Matrix::zeros(ibb + 1, ibb + 4);
        for j in 0..ibb {
            for i in 0..=j {
                t[(i, 2 + j)] = rand::Rng::random::<f64>(&mut rng);
            }
        }
        let tdense = Matrix::from_fn(ibb, ibb, |i, j| if i <= j { t[(i, 2 + j)] } else { 0.0 });
        let w0 = Matrix::random(ibb, nc, &mut rng);
        let mut scratch = vec![0.0; ibb * (nc + ibb)];
        let mut gemm = GemmScratch::default();

        for (trans, tt) in [
            (ApplyTrans::Trans, Trans::Yes),
            (ApplyTrans::NoTrans, Trans::No),
        ] {
            let out = apply_t_block(
                t.data(),
                t.nrows(),
                2,
                ibb,
                trans,
                w0.data(),
                &mut scratch,
                nc,
                &mut gemm,
            );
            let got = Matrix::from_fn(ibb, nc, |i, j| out[i + j * ibb]);
            let mut want = Matrix::zeros(ibb, nc);
            dgemm(tt, Trans::No, 1.0, &tdense, &w0, 0.0, &mut want);
            assert!(
                got.sub(&want).norm_fro() < tol,
                "ibb={ibb} nc={nc} trans={trans:?}"
            );
        }
    }

    #[test]
    fn apply_t_block_matches_dense_scalar_path() {
        check_apply_t_block(3, 5, 1e-13);
    }

    #[test]
    fn apply_t_block_matches_dense_gemm_path() {
        check_apply_t_block(24, 17, 1e-12);
    }

    #[test]
    fn pad_tile_v_builds_unit_lower_copy() {
        // 5x3 tile, block at jb = 1, ibb = 2.
        let m = 5;
        let v: Vec<f64> = (0..15).map(|x| x as f64 + 1.0).collect();
        let mut out = Vec::new();
        let rows = pad_tile_v(&v, m, 1, 2, &mut out);
        assert_eq!(rows, 4);
        // Column 0 = reflector in tile column 1: head at local row 0.
        assert_eq!(&out[0..4], &[1.0, v[7], v[8], v[9]]);
        // Column 1 = reflector in tile column 2: zero, head, tail.
        assert_eq!(&out[4..8], &[0.0, 1.0, v[13], v[14]]);
    }

    #[test]
    fn form_block_t_matches_dlarft() {
        // Unit-lower reflectors (the in-tile shape), one with tau = 0, at
        // block widths below, at and past the 8-column Gram groups; `t`
        // starts dirty so every written entry is checked.
        use crate::householder::dlarft_forward;
        use crate::workspace::Workspace;
        let mut rng = rand::rng();
        let mut ws = Workspace::new();
        for ibb in [1, 5, 8, 17, 32] {
            let rows = ibb + 7;
            let v = Matrix::random(rows, ibb, &mut rng);
            let taus: Vec<f64> = (0..ibb)
                .map(|j| {
                    if j == ibb / 2 {
                        0.0
                    } else {
                        1.0 + 0.01 * j as f64
                    }
                })
                .collect();
            let mut t_ref = Matrix::zeros(ibb, ibb);
            dlarft_forward(&v, &taus, &mut t_ref);
            let mut out = Vec::new();
            let n = pad_tile_v(v.data(), rows, 0, ibb, &mut out);
            let mut t = Matrix::from_fn(ibb + 2, ibb + 1, |_, _| f64::NAN);
            form_block_t(
                &out,
                n,
                n,
                ibb,
                &taus,
                t.data_mut(),
                ibb + 2,
                1,
                &mut ws.tgram,
            );
            for j in 0..ibb {
                for i in 0..=j {
                    let (got, want) = (t[(i, j + 1)], t_ref[(i, j)]);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "ibb={ibb} T[{i},{j}]: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn pad_stair_v_zero_pads_short_tails() {
        // Tails at col0 = 1, first = 2, ibb = 2: lengths 2 and 3.
        let ld = 4;
        let v: Vec<f64> = (0..12).map(|x| x as f64 + 1.0).collect();
        let mut out = Vec::new();
        let rows = pad_stair_v(&v, ld, 1, 2, 2, &mut out);
        assert_eq!(rows, 3);
        assert_eq!(&out[0..3], &[v[4], v[5], 0.0]);
        assert_eq!(&out[3..6], &[v[8], v[9], v[10]]);
    }
}
