//! PLASMA-style tile QR kernels.
//!
//! These are the computational kernels from Section V-B of the paper:
//!
//! | kernel               | role |
//! |----------------------|------|
//! | [`geqrt`]            | QR of a tile; R in the upper triangle, reflectors below, `T` factors on the side |
//! | [`unmqr`]            | apply a `geqrt` transformation to a tile of the trailing submatrix |
//! | [`tsqrt`]            | incremental QR of a triangle stacked on a full tile |
//! | [`tsmqr`]            | apply a `tsqrt` transformation to two stacked tiles |
//! | [`ttqrt`]            | incremental QR of a triangle stacked on a triangle |
//! | [`ttmqr`]            | apply a `ttqrt` transformation to two stacked tiles |
//! | [`apply_narrow`]     | apply any of the three stored transformations to an operand of a few columns in place (solves, `apply-q`): SIMD along rows, no padded copies |
//!
//! All kernels use inner blocking with block size `ib` and store the
//! block-reflector factors in a `ib x n` matrix `t`: the `T` factor of the
//! inner block starting at column `jb` lives in `t[0..ibb, jb..jb+ibb]`
//! (upper triangular, `ibb = min(ib, n - jb)`).
//!
//! The factorizations themselves are blocked twice: each `ib`-wide panel is
//! factored in sub-panels of width [`PANEL_IB`] (override with
//! [`set_panel_ib`]), where only the current sub-panel runs scalar
//! Householder loops — the finished sub-panel is applied to the rest of its
//! panel through the same GEMM-shaped block apply the trailing update uses,
//! and the `T` factors come from a `V̂^T V̂` Gram GEMM plus a small
//! triangular recurrence. Ragged reflector shapes (the unit-triangle heads
//! of `geqrt`, the staircase tails of `ttqrt`) are zero-padded into dense
//! `V̂` copies so every apply is two GEMMs — the padded lanes contribute
//! exact zeros, so results are unchanged. Each kernel has a `*_ws` variant
//! taking an explicit [`Workspace`] (allocation-free in steady state); the
//! plain names borrow the thread-local workspace.

pub mod cholesky;
mod geqrt;
mod narrow;
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

/// Which operator to apply in the `*mqr` kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ApplyTrans {
    /// Apply `Q` itself.
    NoTrans,
    /// Apply `Q^T` (the direction used during factorization updates).
    Trans,
}

/// Default sub-panel width of the blocked panel factorizations: within each
/// `ib`-wide inner block, only `PANEL_IB` columns at a time are factored
/// with scalar Householder loops; everything wider goes through GEMM. 16
/// matches the microkernel's full MR tile, so the `V̂^T C` sub-panel
/// GEMMs run unmasked.
pub(crate) const PANEL_IB: usize = 16;

/// Column-block width of the T-recurrence lift and the Gram floor inside
/// [`form_block_t`]: small enough that the per-block scalar recurrence
/// stays negligible, big enough that the lift GEMMs aren't degenerate.
const T_BLOCK_IB: usize = 8;

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
/// machinery to amortize, the full block width otherwise (one scalar
/// panel — the fastest shape for small `ib`, where splitting only adds
/// copies and tiny GEMMs).
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
/// The cross products come from one Gram GEMM `G = V̂^T V̂` (`gram`
/// scratch); the dlarft recurrence is then blocked over the `ibb x ibb`
/// triangle: a scalar recurrence on each `T_BLOCK_IB`-wide diagonal block
/// `T22`, followed by a GEMM lift `T12 = -T11 (V1^T V2) T22` for the rows
/// above it (the cross Gram `V1^T V2` is already sitting in `g`). The
/// result goes to columns `t_col0..t_col0+ibb` of the flat column-major
/// buffer `t` (leading dimension `t_ld`).
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
    gemm: &mut GemmScratch,
) {
    if ibb == 0 {
        return;
    }
    let tq = T_BLOCK_IB;
    // Narrow blocks (`ibb < 2 * tq`, e.g. small-`ib` tiles) skip both the
    // Gram GEMM and the recurrence lift: at that size the GEMMs fall under
    // the packed threshold and run generic full-rectangle loops, losing to
    // plain triangular dots.
    let narrow = ibb < 2 * tq;
    let lift = !narrow && ibb > tq;
    // Scratch layout: Gram `g` (ibb^2), then — only when lifting — dense
    // zero-padded copies `t11d` (ibb^2) and `t22d` (tq^2) of the triangular
    // factors plus the `tmp` product (ibb*tq). The dense copies exist
    // because `t`'s sub-diagonal is caller-owned (possibly dirty) and GEMM
    // can't honor triangular structure.
    let want = if lift {
        2 * ibb * ibb + tq * tq + ibb * tq
    } else {
        ibb * ibb
    };
    let buf = grow(gram, want);
    let (g, dense) = buf.split_at_mut(ibb * ibb);
    if rows > 0 && ibb > 1 {
        if narrow {
            // Upper triangle only, by plain dots over the columns.
            for lj in 1..ibb {
                let vj = &vhat[lj * v_ld..][..rows];
                for li in 0..lj {
                    g[li + lj * ibb] = ddot(&vhat[li * v_ld..][..rows], vj);
                }
            }
        } else {
            // The recurrence only reads the upper triangle `g[li, lj]`,
            // `li < lj`, so form the Gram in column blocks: each block of
            // columns `b0..b0+bw` needs rows `0..b0+bw` only. Two halves is
            // the sweet spot — narrower blocks save more flops but the
            // skinny GEMMs run slower than the saved work is worth.
            let gw = (ibb / 2).max(T_BLOCK_IB);
            for (b0, bw) in inner_blocks(ibb, gw, ApplyTrans::Trans) {
                let hi = b0 + bw;
                let va = MatRef::new(vhat, rows, hi, 1, v_ld).t();
                let vb = MatRef::new(&vhat[b0 * v_ld..], rows, bw, 1, v_ld);
                let gb = MatMut::new(&mut g[b0 * ibb..], hi, bw, 1, ibb);
                gemm_into(1.0, va, vb, 0.0, gb, gemm);
            }
        }
    }
    // Without the lift the recurrence must run as one full block (there is
    // nothing else to fill rows above the diagonal blocks).
    let rw = if lift { tq } else { ibb };
    for (b0, bw) in inner_blocks(ibb, rw, ApplyTrans::Trans) {
        // Scalar recurrence confined to the diagonal block: for columns
        // `b0..b0+bw` only rows `b0..` are built here; rows `0..b0` come
        // from the lift GEMMs below.
        for lj in b0..b0 + bw {
            let tau = taus[lj];
            let colbase = (t_col0 + lj) * t_ld;
            t[lj + colbase] = tau;
            if tau == 0.0 {
                for li in b0..lj {
                    t[li + colbase] = 0.0;
                }
                // Rows 0..b0 are still written by the lift (T22 column is
                // zero, so the GEMM lands zeros there too).
                continue;
            }
            // t[b0..lj, col] = -tau * V̂[:, b0..lj]^T v̂_lj from the Gram.
            for li in b0..lj {
                t[li + colbase] = -tau * g[li + lj * ibb];
            }
            // t[b0..lj, col] = T22_partial * t[b0..lj, col], ascending
            // in-place triangular product within the block.
            for li in b0..lj {
                let mut s = 0.0;
                for ll in li..lj {
                    s += t[li + (t_col0 + ll) * t_ld] * t[ll + colbase];
                }
                t[li + colbase] = s;
            }
        }
        if lift && b0 > 0 {
            let (t11d, rest) = dense.split_at_mut(ibb * ibb);
            let (t22d, tmp) = rest.split_at_mut(tq * tq);
            // Dense zero-padded copy of the fresh diagonal block T22.
            for j in 0..bw {
                let src = &t[(t_col0 + b0 + j) * t_ld + b0..];
                let dst = &mut t22d[j * bw..(j + 1) * bw];
                dst[..=j].copy_from_slice(&src[..=j]);
                dst[j + 1..].fill(0.0);
            }
            // tmp = G12 * T22, then T12 = -T11 * tmp straight into `t`.
            let g12 = MatRef::new(&g[b0 * ibb..], b0, bw, 1, ibb);
            let t22 = MatRef::new(&t22d[..bw * bw], bw, bw, 1, bw);
            let tmp = &mut tmp[..b0 * bw];
            gemm_into(1.0, g12, t22, 0.0, MatMut::new(tmp, b0, bw, 1, b0), gemm);
            let t11 = MatRef::new(t11d, b0, b0, 1, ibb);
            let t12 = MatMut::new(&mut t[(t_col0 + b0) * t_ld..], b0, bw, 1, t_ld);
            gemm_into(-1.0, t11, MatRef::new(tmp, b0, bw, 1, b0), 0.0, t12, gemm);
        }
        if lift {
            // Extend the dense T11 copy with this block's finished columns
            // so later blocks can lift against it.
            let t11d = &mut dense[..ibb * ibb];
            for j in 0..bw {
                let col = b0 + j;
                let src = &t[(t_col0 + col) * t_ld..];
                let dst = &mut t11d[col * ibb..(col + 1) * ibb];
                dst[..=col].copy_from_slice(&src[..=col]);
                dst[col + 1..].fill(0.0);
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
