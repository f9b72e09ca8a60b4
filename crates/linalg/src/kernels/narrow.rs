//! Narrow-operand block-reflector apply: `Q` or `Q^T` of one stored
//! transformation applied in place to an operand of a few columns.
//!
//! The `*mqr` kernels are shaped for trailing updates, where the operand is
//! as wide as a tile: every inner block becomes two GEMMs against a
//! zero-padded `V̂` copy. A least-squares solve or an `apply-q` verb pushes
//! one or two columns through the whole reflector tree instead, and there
//! those GEMMs degenerate into padding, dispatch and strict-order dot
//! products. [`apply_narrow`] reads the stored reflectors where they lie
//! and vectorizes along rows. Per inner block:
//!
//! ```text
//! W  = V^T X      8 reflector columns per register group: 8 row-vector
//!                 accumulators, then one transposing reduce
//! W := op(T) W    the ibb x ibb triangle, per operand column
//! X -= V W        over the same 8-column groups
//! ```
//!
//! The ragged 8-row diagonal chunk of a group — the unit-lower heads of a
//! `geqrt` tile, the staircase of a `ttqrt` tail — is read with lane
//! masks, so no padded copy is built and no scalar triangle is walked.
//! Any `ib` works (groups of 8 columns plus a ragged last group) and any
//! tile height (masked row tails).
//!
//! The kernel follows the GEMM microkernel tier ([`active_gemm_tier`]):
//! AVX-512 intrinsics, AVX2+FMA intrinsics, or a portable scalar loop.
//! The portable tier writes `a * b + c`, never `f64::mul_add`: without
//! hardware FMA the latter is a libm call.

use super::lanes::{lanes, G};
use super::{inner_blocks, ApplyTrans};
use crate::gemm::{active_gemm_tier, GemmTier};
use crate::matrix::Matrix;
use crate::workspace::{grow, Workspace};
use std::ops::Range;

/// Widest operand `TileQrFactors::apply` (pulsar-core) sends through
/// [`apply_narrow`]; wider ones go through the `*mqr` kernels. The
/// crossover depends on `ib`, since the `*mqr` GEMMs get their reuse from
/// it: at `ib = 8` the narrow kernel was faster at every width measured
/// (1..=256), at `ib = 16` up to about 384 columns, and at `ib = 32` it
/// stayed within 4% of them at 128 and 256.
pub const NARROW_MAX: usize = 256;

/// Which stored reflector family a narrow apply reads, and which operand
/// rows it touches. Row offsets are absolute rows of the operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VShape {
    /// A `geqrt` tile: reflector `l` has an implicit unit at tile row `l`
    /// and its stored tail below; it acts on operand rows
    /// `row0..row0 + v.nrows()`.
    Tile {
        /// First operand row of the tile.
        row0: usize,
    },
    /// A `tsqrt` pair: identity heads on operand rows `head..head + k` and
    /// full stored tails on rows `tail..tail + v.nrows()`.
    Full {
        /// First operand row of the head (triangle) tile.
        head: usize,
        /// First operand row of the tail tile.
        tail: usize,
    },
    /// A `ttqrt` pair: identity heads as for [`VShape::Full`]; tail `l` has
    /// `l + 1` valid rows and the rest of the stored tile is ignored.
    Stair {
        /// First operand row of the head (triangle) tile.
        head: usize,
        /// First operand row of the tail tile.
        tail: usize,
    },
}

/// Apply `Q` or `Q^T` of one stored transformation (`v`, `t` as written by
/// `geqrt` / `tsqrt` / `ttqrt` with inner block size `ib`) to the operand
/// `x` from the left, in place. Agrees with [`unmqr_ws`](super::unmqr_ws),
/// [`tsmqr_ws`](super::tsmqr_ws) and [`ttmqr_ws`](super::ttmqr_ws) up to
/// rounding; fastest for operands of at most [`NARROW_MAX`] columns.
/// Allocation-free once `ws` has warmed up.
pub fn apply_narrow(
    shape: VShape,
    v: &Matrix,
    t: &Matrix,
    ib: usize,
    trans: ApplyTrans,
    x: &mut Matrix,
    ws: &mut Workspace,
) {
    let rows = v.nrows();
    let (form, x0, head, k) = match shape {
        VShape::Tile { row0 } => (Form::Tile, row0, None, rows.min(v.ncols())),
        VShape::Full { head, tail } => (Form::Full, tail, Some(head), v.ncols()),
        VShape::Stair { head, tail } => (Form::Stair, tail, Some(head), v.ncols()),
    };
    let (ld, nc) = (x.nrows(), x.ncols());
    if nc == 0 || k == 0 {
        return;
    }
    let p = Plan {
        v: v.data(),
        rows,
        k,
        form,
        t: t.data(),
        t_ld: t.nrows(),
        ib,
        trans,
        x0,
        head,
        ld,
        nc,
    };
    let w = grow(&mut ws.w, w_stride(ib.min(k)) * nc);
    let x = x.data_mut();
    match active_gemm_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx512f support on this CPU.
        GemmTier::Avx512 => unsafe { simd::apply_avx512(&p, x, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx2 + fma support on this CPU.
        GemmTier::Avx2 => unsafe { simd::apply_avx2(&p, x, w) },
        _ => apply_scalar(&p, x, w),
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Form {
    Tile,
    Full,
    Stair,
}

/// One transformation against the operand rows it touches.
struct Plan<'a> {
    /// Reflector store, column-major with leading dimension `rows`.
    v: &'a [f64],
    /// Rows of the reflector store = rows of the operand region.
    rows: usize,
    /// Reflectors.
    k: usize,
    form: Form,
    /// `T` factors, column-major with leading dimension `t_ld`.
    t: &'a [f64],
    t_ld: usize,
    ib: usize,
    trans: ApplyTrans,
    /// First operand row of the region.
    x0: usize,
    /// First operand row of the identity heads (stacked forms).
    head: Option<usize>,
    /// Operand leading dimension.
    ld: usize,
    /// Operand columns.
    nc: usize,
}

/// The 8-row masked chunk at the head of a ragged register group. Bit `i`
/// of a mask is row `r0 + i` of the region.
struct Diag {
    r0: usize,
    /// Rows inside the region.
    rows: u8,
    /// Per group column: rows holding stored reflector entries.
    v: [u8; G],
    /// Per group column: the row holding its implicit unit head (Tile).
    unit: [u8; G],
}

impl Diag {
    /// The region rows of a contiguous lane mask.
    fn span(&self, mask: u8) -> Range<usize> {
        if mask == 0 {
            return self.r0..self.r0;
        }
        let lo = mask.trailing_zeros() as usize;
        self.r0 + lo..self.r0 + G - mask.leading_zeros() as usize
    }
}

/// Up to [`G`] consecutive reflector columns and the region rows they
/// read: `dense` rows are valid in every column, `diag` is the ragged
/// chunk.
struct Group {
    c0: usize,
    gw: usize,
    dense: Range<usize>,
    diag: Option<Diag>,
}

/// Column stride of the `W` scratch for an `ibb`-wide inner block: padded
/// to whole groups, so every group's reduce stores all [`G`] lanes.
#[inline]
fn w_stride(ibb: usize) -> usize {
    ibb.next_multiple_of(G)
}

impl Plan<'_> {
    /// Assert every row this plan names lies inside `v`, `t`, an operand
    /// buffer of `x_len` elements and a `W` buffer of `w_len`: the SIMD
    /// tiers index by raw offset on the strength of this check.
    fn check(&self, x_len: usize, w_len: usize) {
        assert!(self.k > 0 && self.nc > 0, "nothing to apply");
        assert!(self.ib > 0, "inner block size must be positive");
        assert!(self.v.len() >= self.k * self.rows, "v too small");
        assert!(
            self.form == Form::Full || self.k <= self.rows,
            "ragged reflectors need v.nrows() >= k"
        );
        let ibmax = self.ib.min(self.k);
        assert!(
            self.t_ld >= ibmax && self.t.len() >= self.k * self.t_ld,
            "t too small"
        );
        assert!(x_len >= self.nc * self.ld, "operand too small");
        assert!(
            self.x0 + self.rows <= self.ld,
            "reflector rows must lie inside the operand"
        );
        if let Some(h) = self.head {
            assert!(
                h + self.k <= self.ld,
                "head rows must lie inside the operand"
            );
            assert!(
                h + self.k <= self.x0 || self.x0 + self.rows <= h,
                "head and tail rows must not overlap"
            );
        }
        assert!(w_len >= w_stride(ibmax) * self.nc, "W scratch too small");
    }

    /// Column `c` of the reflector store.
    #[inline]
    fn col(&self, c: usize) -> &[f64] {
        &self.v[c * self.rows..][..self.rows]
    }

    /// The group starting at reflector column `c0`, `gw` columns wide. Its
    /// diagonal chunk starts at the row of its first reflector head.
    #[inline]
    fn group(&self, c0: usize, gw: usize) -> Group {
        if self.form == Form::Full {
            return Group {
                c0,
                gw,
                dense: 0..self.rows,
                diag: None,
            };
        }
        let rows = lanes((self.rows - c0).min(G));
        let mut d = Diag {
            r0: c0,
            rows,
            v: [0; G],
            unit: [0; G],
        };
        for l in 0..gw {
            if self.form == Form::Tile {
                // Column c0 + l: zero above row c0 + l, unit on it, stored below.
                d.v[l] = rows & !lanes(l + 1);
                d.unit[l] = 1 << l;
            } else {
                // Column c0 + l: stored on rows ..= c0 + l.
                d.v[l] = rows & lanes(l + 1);
            }
        }
        let dense = if self.form == Form::Tile {
            (c0 + G).min(self.rows)..self.rows
        } else {
            0..c0
        };
        Group {
            c0,
            gw,
            dense,
            diag: Some(d),
        }
    }

    /// Column slices of group `g`, padded to [`G`] by repeating its last
    /// column (the padded lanes' results are discarded).
    #[inline]
    fn group_cols(&self, g: &Group) -> [&[f64]; G] {
        std::array::from_fn(|l| self.col(g.c0 + l.min(g.gw - 1)))
    }

    /// The `W` of the inner block at `jb`, `ibb` wide, gains the identity
    /// heads' rows (stacked forms): `W += X[head + jb.., :]`.
    #[inline]
    fn add_head(&self, jb: usize, ibb: usize, x: &[f64], w: &mut [f64]) {
        if let Some(h) = self.head {
            for (c, wc) in w.chunks_exact_mut(w_stride(ibb)).enumerate() {
                let xh = &x[c * self.ld + h + jb..][..ibb];
                for (wl, xl) in wc.iter_mut().zip(xh) {
                    *wl += xl;
                }
            }
        }
    }

    /// `X[head + jb.., :] -= W` (stacked forms).
    #[inline]
    fn sub_head(&self, jb: usize, ibb: usize, x: &mut [f64], w: &[f64]) {
        if let Some(h) = self.head {
            for (c, wc) in w.chunks_exact(w_stride(ibb)).enumerate() {
                let xh = &mut x[c * self.ld + h + jb..][..ibb];
                for (xl, wl) in xh.iter_mut().zip(wc) {
                    *xl -= wl;
                }
            }
        }
    }

    /// `w := op(T) w` for one operand column, `T` the upper-triangular
    /// `ibb x ibb` block in columns `jb..`, `ibb = w.len()`.
    fn apply_t(&self, jb: usize, w: &mut [f64]) {
        let ibb = w.len();
        let tcol = |j: usize| &self.t[(jb + j) * self.t_ld..][..=j];
        match self.trans {
            // Row i of T^T w reads w[..=i]: bottom-up in place.
            ApplyTrans::Trans => {
                for i in (0..ibb).rev() {
                    let mut s = 0.0;
                    for (tl, wl) in tcol(i).iter().zip(&w[..=i]) {
                        s += tl * wl;
                    }
                    w[i] = s;
                }
            }
            // T w as a sum of T's columns scaled by w: top-down in place,
            // since column l only reaches rows <= l.
            ApplyTrans::NoTrans => {
                for l in 0..ibb {
                    let wl = w[l];
                    w[l] = 0.0;
                    for (wi, ti) in w[..=l].iter_mut().zip(tcol(l)) {
                        *wi += ti * wl;
                    }
                }
            }
        }
    }
}

/// Rows `r..r + 4` of `s`.
#[inline]
fn quad(s: &[f64], r: usize) -> [f64; 4] {
    s[r..r + 4].try_into().expect("a slice of four rows")
}

/// The portable tier: the same groups as the SIMD tiers, the ragged
/// diagonal chunk as per-column row spans and the dense rows four at a
/// time in plain arrays (which the baseline target vectorizes).
fn apply_scalar(p: &Plan<'_>, x: &mut [f64], w: &mut [f64]) {
    p.check(x.len(), w.len());
    for (jb, ibb) in inner_blocks(p.k, p.ib, p.trans) {
        let wst = w_stride(ibb);
        let w = &mut w[..wst * p.nc];
        for g0 in (0..ibb).step_by(G) {
            let g = p.group(jb + g0, G.min(ibb - g0));
            let vc = p.group_cols(&g);
            for c in 0..p.nc {
                let xc = &x[c * p.ld + p.x0..][..p.rows];
                let mut acc = [0.0f64; G];
                if let Some(d) = &g.diag {
                    for (l, a) in acc.iter_mut().enumerate().take(g.gw) {
                        let span = d.span(d.v[l]);
                        for (v, xr) in vc[l][span.clone()].iter().zip(&xc[span]) {
                            *a += v * xr;
                        }
                        if d.unit[l] != 0 {
                            *a += xc[d.span(d.unit[l]).start];
                        }
                    }
                }
                // Dense rows four at a time, so the lanes vectorize.
                let xd = &xc[g.dense.clone()];
                let vd = vc.map(|v| &v[g.dense.clone()]);
                let mut quads = [[0.0f64; 4]; G];
                let n4 = xd.len() / 4 * 4;
                for r in (0..n4).step_by(4) {
                    let xv = quad(xd, r);
                    for (q, v) in quads.iter_mut().zip(&vd) {
                        let vv = quad(v, r);
                        for j in 0..4 {
                            q[j] += vv[j] * xv[j];
                        }
                    }
                }
                for ((a, q), v) in acc.iter_mut().zip(&quads).zip(&vd) {
                    for r in n4..xd.len() {
                        *a += v[r] * xd[r];
                    }
                    *a += (q[0] + q[1]) + (q[2] + q[3]);
                }
                w[c * wst + g0..][..G].copy_from_slice(&acc);
            }
        }
        p.add_head(jb, ibb, x, w);
        for wc in w.chunks_exact_mut(wst) {
            p.apply_t(jb, &mut wc[..ibb]);
        }
        p.sub_head(jb, ibb, x, w);
        for g0 in (0..ibb).step_by(G) {
            let g = p.group(jb + g0, G.min(ibb - g0));
            let vc = p.group_cols(&g);
            for c in 0..p.nc {
                let xc = &mut x[c * p.ld + p.x0..][..p.rows];
                let mut wl = [0.0f64; G];
                for (l, wv) in w[c * wst + g0..][..g.gw].iter().enumerate() {
                    wl[l] = *wv;
                }
                if let Some(d) = &g.diag {
                    for l in 0..g.gw {
                        let span = d.span(d.v[l]);
                        for (xr, v) in xc[span.clone()].iter_mut().zip(&vc[l][span]) {
                            *xr -= v * wl[l];
                        }
                        if d.unit[l] != 0 {
                            xc[d.span(d.unit[l]).start] -= wl[l];
                        }
                    }
                }
                let xd = &mut xc[g.dense.clone()];
                let vd = vc.map(|v| &v[g.dense.clone()]);
                let n4 = xd.len() / 4 * 4;
                for r in (0..n4).step_by(4) {
                    let mut xv = quad(xd, r);
                    for (v, wv) in vd.iter().zip(&wl) {
                        let vv = quad(v, r);
                        for j in 0..4 {
                            xv[j] -= vv[j] * wv;
                        }
                    }
                    xd[r..r + 4].copy_from_slice(&xv);
                }
                for r in n4..xd.len() {
                    for (v, wv) in vd.iter().zip(&wl) {
                        xd[r] -= v[r] * wv;
                    }
                }
            }
        }
    }
}

/// The intrinsic tiers: one generic body over the shared `Lanes` trait,
/// instantiated per ISA behind runtime detection.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::super::lanes::{Lanes, Ymm, Zmm};
    use super::{inner_blocks, lanes, w_stride, ApplyTrans, Group, Plan, G};

    /// `acc[c][l] += V_l . X_c` over one masked 8-row chunk starting at `r`,
    /// for `C` operand columns at once (each `V` load feeds all of them):
    /// `rows` selects the chunk rows to read, `vmask[l]` / `unit[l]` the rows
    /// where column `l` holds a stored entry / its implicit unit head.
    ///
    /// # Safety
    /// `S`'s ISA is available; every lane the masks select lies inside
    /// the slice its pointer came from.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn chunk_dots<S: Lanes, const C: usize>(
        acc: &mut [[S; G]; C],
        vp: &[*const f64; G],
        xp: &[*const f64; C],
        r: usize,
        rows: u8,
        vmask: &[u8; G],
        unit: &[u8; G],
    ) {
        for h in (0..G).step_by(S::L) {
            if (rows >> h) & lanes(S::L) == 0 {
                continue;
            }
            let mut xv = [S::zero(); C];
            for c in 0..C {
                xv[c] = S::load(xp[c].add(r + h), rows >> h);
            }
            for l in 0..G {
                let vv = S::load(vp[l].add(r + h), vmask[l] >> h).set_one(unit[l] >> h);
                for c in 0..C {
                    acc[c][l] = S::fmadd(vv, xv[c], acc[c][l]);
                }
            }
        }
    }

    /// `X_c -= sum_l V_l w[c][l]` over one masked 8-row chunk (masks as for
    /// [`chunk_dots`]).
    ///
    /// # Safety
    /// As for [`chunk_dots`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn chunk_update<S: Lanes, const C: usize>(
        wl: &[[S; G]; C],
        vp: &[*const f64; G],
        xp: &[*mut f64; C],
        r: usize,
        rows: u8,
        vmask: &[u8; G],
        unit: &[u8; G],
    ) {
        for h in (0..G).step_by(S::L) {
            if (rows >> h) & lanes(S::L) == 0 {
                continue;
            }
            let mut xv = [S::zero(); C];
            for c in 0..C {
                xv[c] = S::load(xp[c].add(r + h), rows >> h);
            }
            for l in 0..G {
                let vv = S::load(vp[l].add(r + h), vmask[l] >> h).set_one(unit[l] >> h);
                for c in 0..C {
                    xv[c] = S::fnmadd(vv, wl[c][l], xv[c]);
                }
            }
            for c in 0..C {
                xv[c].store(xp[c].add(r + h), rows >> h);
            }
        }
    }

    /// `W` of group `g` for operand columns `c0..c0 + C`: the diagonal chunk,
    /// the dense rows `L` at a time, the masked row tail, then one transposing
    /// reduce per column into `w` (column stride `wst`, group offset `g0`).
    ///
    /// # Safety
    /// `S`'s ISA is available and `p.check` passed for `x` and `w`; `g`
    /// and `vp` come from `p.group` / `p.group_cols`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn group_dots<S: Lanes, const C: usize>(
        p: &Plan<'_>,
        g: &Group,
        vp: &[*const f64; G],
        x: &[f64],
        c0: usize,
        w: &mut [f64],
        wst: usize,
        g0: usize,
    ) {
        let mut xp = [std::ptr::null(); C];
        for (c, xc) in xp.iter_mut().enumerate() {
            *xc = x[(c0 + c) * p.ld + p.x0..][..p.rows].as_ptr();
        }
        let mut acc = [[S::zero(); G]; C];
        if let Some(d) = &g.diag {
            chunk_dots(&mut acc, vp, &xp, d.r0, d.rows, &d.v, &d.unit);
        }
        let mut r = g.dense.start;
        while r + S::L <= g.dense.end {
            let mut xv = [S::zero(); C];
            for c in 0..C {
                xv[c] = S::load_all(xp[c].add(r));
            }
            for l in 0..G {
                let vv = S::load_all(vp[l].add(r));
                for c in 0..C {
                    acc[c][l] = S::fmadd(vv, xv[c], acc[c][l]);
                }
            }
            r += S::L;
        }
        if r < g.dense.end {
            let m = lanes(g.dense.end - r);
            chunk_dots(&mut acc, vp, &xp, r, m, &[m; G], &[0; G]);
        }
        for (c, a) in acc.iter().enumerate() {
            let out = (&mut w[(c0 + c) * wst + g0..][..G]).try_into();
            S::reduce(a, out.expect("W groups are G wide"));
        }
    }

    /// `X -= V W` of group `g` for operand columns `c0..c0 + C` (layout as
    /// for [`group_dots`]). The dense rows run two accumulation chains per
    /// column so the eight dependent updates of a row overlap.
    ///
    /// # Safety
    /// As for [`group_dots`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn group_update<S: Lanes, const C: usize>(
        p: &Plan<'_>,
        g: &Group,
        vp: &[*const f64; G],
        x: &mut [f64],
        c0: usize,
        w: &[f64],
        wst: usize,
        g0: usize,
    ) {
        let mut wl = [[S::zero(); G]; C];
        let mut xp = [std::ptr::null_mut(); C];
        for c in 0..C {
            for (l, wv) in w[(c0 + c) * wst + g0..][..g.gw].iter().enumerate() {
                wl[c][l] = S::splat(*wv);
            }
            xp[c] = x[(c0 + c) * p.ld + p.x0..][..p.rows].as_mut_ptr();
        }
        if let Some(d) = &g.diag {
            chunk_update(&wl, vp, &xp, d.r0, d.rows, &d.v, &d.unit);
        }
        let mut r = g.dense.start;
        while r + S::L <= g.dense.end {
            let mut xa = [S::zero(); C];
            let mut xb = [S::zero(); C];
            for c in 0..C {
                xa[c] = S::load_all(xp[c].add(r));
            }
            for l in (0..G).step_by(2) {
                let va = S::load_all(vp[l].add(r));
                let vb = S::load_all(vp[l + 1].add(r));
                for c in 0..C {
                    xa[c] = S::fnmadd(va, wl[c][l], xa[c]);
                    xb[c] = S::fnmadd(vb, wl[c][l + 1], xb[c]);
                }
            }
            for c in 0..C {
                S::add(xa[c], xb[c]).store_all(xp[c].add(r));
            }
            r += S::L;
        }
        if r < g.dense.end {
            let m = lanes(g.dense.end - r);
            chunk_update(&wl, vp, &xp, r, m, &[m; G], &[0; G]);
        }
    }

    /// The vector tiers' body, shared by every [`Lanes`] implementation; `C`
    /// operand columns share each pass over a group's reflectors.
    ///
    /// # Safety
    /// The CPU must support `S`'s ISA. Every offset is a row below `p.rows`
    /// of a column slice [`Plan::check`] bounded, or a masked-off lane.
    #[inline(always)]
    unsafe fn apply_lanes<S: Lanes, const C: usize>(p: &Plan<'_>, x: &mut [f64], w: &mut [f64]) {
        p.check(x.len(), w.len());
        let ncc = p.nc / C * C;
        for (jb, ibb) in inner_blocks(p.k, p.ib, p.trans) {
            let wst = w_stride(ibb);
            let w = &mut w[..wst * p.nc];
            // W = V^T X, one group of 8 reflector columns at a time.
            for g0 in (0..ibb).step_by(G) {
                let g = p.group(jb + g0, G.min(ibb - g0));
                let vp = p.group_cols(&g).map(<[f64]>::as_ptr);
                for c in (0..ncc).step_by(C) {
                    group_dots::<S, C>(p, &g, &vp, x, c, w, wst, g0);
                }
                for c in ncc..p.nc {
                    group_dots::<S, 1>(p, &g, &vp, x, c, w, wst, g0);
                }
            }
            p.add_head(jb, ibb, x, w);
            // W := op(T) W. One group's triangle is itself one masked chunk:
            // T^T W is a staircase dot per row, T W a masked update. At
            // ib = 8 this takes 13-22% off a 1-2 column apply against the
            // scalar `apply_t`.
            if ibb <= G {
                let tp: [*const f64; G] =
                    std::array::from_fn(|l| p.t[(jb + l.min(ibb - 1)) * p.t_ld..][..ibb].as_ptr());
                let tri: [u8; G] = std::array::from_fn(|l| lanes(l + 1) & lanes(ibb));
                for wc in w.chunks_exact_mut(G) {
                    let wc: &mut [f64; G] = wc.try_into().expect("one group per column");
                    let mut out = [0.0; G];
                    match p.trans {
                        ApplyTrans::Trans => {
                            let mut acc = [[S::zero(); G]];
                            chunk_dots(&mut acc, &tp, &[wc.as_ptr()], 0, lanes(ibb), &tri, &[0; G]);
                            S::reduce(&acc[0], &mut out);
                        }
                        ApplyTrans::NoTrans => {
                            // out = 0 - sum_l T_l (-w_l).
                            let mut wl = [[S::zero(); G]];
                            for (l, wv) in wc[..ibb].iter().enumerate() {
                                wl[0][l] = S::splat(-wv);
                            }
                            let op = [out.as_mut_ptr()];
                            chunk_update(&wl, &tp, &op, 0, lanes(G), &tri, &[0; G]);
                        }
                    }
                    *wc = out;
                }
            } else {
                for wc in w.chunks_exact_mut(wst) {
                    p.apply_t(jb, &mut wc[..ibb]);
                }
            }
            p.sub_head(jb, ibb, x, w);
            // X -= V W over the same groups.
            for g0 in (0..ibb).step_by(G) {
                let g = p.group(jb + g0, G.min(ibb - g0));
                let vp = p.group_cols(&g).map(<[f64]>::as_ptr);
                for c in (0..ncc).step_by(C) {
                    group_update::<S, C>(p, &g, &vp, x, c, w, wst, g0);
                }
                for c in ncc..p.nc {
                    group_update::<S, 1>(p, &g, &vp, x, c, w, wst, g0);
                }
            }
        }
    }

    /// AVX-512 tier: one zmm holds a whole 8-row chunk; operand columns go
    /// in pairs (16 accumulators of the 32 registers).
    ///
    /// # Safety
    /// The CPU must support avx512f.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn apply_avx512(p: &Plan<'_>, x: &mut [f64], w: &mut [f64]) {
        apply_lanes::<Zmm, 2>(p, x, w);
    }

    /// AVX2+FMA tier: an 8-row chunk is two ymm halves; one operand column
    /// at a time (its 8 accumulators already take half the 16 registers).
    ///
    /// # Safety
    /// The CPU must support avx2 and fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn apply_avx2(p: &Plan<'_>, x: &mut [f64], w: &mut [f64]) {
        apply_lanes::<Ymm, 1>(p, x, w);
    }
}
