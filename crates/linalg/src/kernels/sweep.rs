//! The Householder sweep inside a panel factorization: for each column `j`
//! of a sub-panel, generate its reflector (`dlarfg`) and apply it to the
//! sub-panel columns right of it. `geqrt`, `tsqrt` and `ttqrt` differ only
//! in where reflector `j` keeps its head and which rows its tail spans
//! ([`Heads`]); everything wider than a sub-panel goes through the GEMM
//! block applies instead.
//!
//! The vector tiers follow [`active_gemm_tier`], as
//! [`apply_narrow`](super::apply_narrow) does, over the shared
//! [`Lanes`](super::lanes) registers. Per reflector `j`:
//!
//! ```text
//! ||v||      one accumulator along the tail rows, then dlarfg's scalars
//! v *= s     the tail scaled in place
//! per group of 8 target columns:
//!   d = V^T x    8 accumulators along the rows (one v load feeds all 8),
//!                one transposing reduce
//!   w = tau (head + d), head -= w
//!   x -= v w     the rank-1 update over the same rows, still in L1
//! ```
//!
//! The tail's ragged last row chunk is a masked load/store, so the unit
//! head of a `geqrt` column (the tail starts one row below it) and the
//! staircase of a `ttqrt` tail (rows `0..=j`) need no padding, and rows
//! outside the tail are never read. The portable tier is the per-column
//! `ddot`/`axpy` loop.
//!
//! [`gram_upper`] runs the same dot pass over a block's finished
//! reflectors, for the Gram `V̂^T V̂` that `form_block_t` builds `T` from.

use crate::blas::{daxpy, ddot};
use crate::gemm::{active_gemm_tier, GemmTier};
use crate::householder::dlarfg;
use std::ops::Range;

/// Where the reflectors of a sweep keep their heads, and which rows of the
/// swept buffer their tails span.
pub(crate) enum Heads<'a> {
    /// `geqrt`: reflector `j`'s head is row `j` of the swept tile itself
    /// (an implicit unit once factored), its tail rows `j + 1..ld`.
    Diagonal,
    /// `tsqrt`: the head is row `j` of the triangle `a1` (column-major,
    /// leading dimension `.1`); the tail is the whole swept column.
    Full(&'a mut [f64], usize),
    /// `ttqrt`: heads as for [`Heads::Full`]; the tail is the staircase
    /// rows `0..=j`.
    Stair(&'a mut [f64], usize),
}

/// Factor columns `cols` of the column-major buffer `a` (leading dimension
/// `ld`): reflector `j` from its head and tail, applied to the columns
/// `j + 1..cols.end` (their heads and tail rows). Reflector tails replace
/// the tail rows, `beta` the head of column `j`, and `taus[j - cols.start]`
/// gets `tau`. Rows outside the tails are never read or written.
pub(crate) fn householder_sweep(
    a: &mut [f64],
    ld: usize,
    mut heads: Heads<'_>,
    cols: Range<usize>,
    taus: &mut [f64],
) {
    if cols.is_empty() {
        return;
    }
    assert!(cols.end * ld <= a.len(), "swept columns outside the buffer");
    assert!(taus.len() >= cols.len(), "taus too short");
    match &heads {
        Heads::Diagonal | Heads::Stair(..) => assert!(cols.end <= ld, "tails below the buffer"),
        Heads::Full(..) => {}
    }
    if let Heads::Full(h, h_ld) | Heads::Stair(h, h_ld) = &heads {
        assert!(
            cols.end <= *h_ld && cols.end * h_ld <= h.len(),
            "heads outside the triangle"
        );
    }
    match active_gemm_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx512f support on this CPU; the asserts above bound every row.
        GemmTier::Avx512 => unsafe {
            simd::sweep_avx512(&simd::Sweep::new(a, ld, &mut heads, cols), taus)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx2 + fma support on this CPU; the asserts above bound every row.
        GemmTier::Avx2 => unsafe {
            simd::sweep_avx2(&simd::Sweep::new(a, ld, &mut heads, cols), taus)
        },
        _ => sweep_portable(a, ld, heads, cols, taus),
    }
}

impl Heads<'_> {
    /// Which rows the tails span.
    #[inline]
    fn tail(&self) -> Tail {
        match self {
            Heads::Diagonal => Tail::Below,
            Heads::Full(..) => Tail::Whole,
            Heads::Stair(..) => Tail::Stair,
        }
    }

    /// The head of reflector `j` in column `c`, whose swept column is `col`.
    #[inline]
    fn at<'s>(&'s mut self, col: &'s mut [f64], j: usize, c: usize) -> &'s mut f64 {
        match self {
            Heads::Diagonal => &mut col[j],
            Heads::Full(h, h_ld) | Heads::Stair(h, h_ld) => &mut h[j + c * *h_ld],
        }
    }
}

/// Which rows of a swept column reflector `j`'s tail spans.
#[derive(Copy, Clone)]
enum Tail {
    Below,
    Whole,
    Stair,
}

impl Tail {
    #[inline]
    fn rows(self, ld: usize, j: usize) -> Range<usize> {
        match self {
            Tail::Below => j + 1..ld,
            Tail::Whole => 0..ld,
            Tail::Stair => 0..j + 1,
        }
    }
}

/// The portable tier: per target column one `ddot` and one `axpy`.
fn sweep_portable(
    a: &mut [f64],
    ld: usize,
    mut heads: Heads<'_>,
    cols: Range<usize>,
    taus: &mut [f64],
) {
    let tail = heads.tail();
    for j in cols.clone() {
        let rows = tail.rows(ld, j);
        let (left, right) = a.split_at_mut((j + 1) * ld);
        let colj = &mut left[j * ld..];
        let alpha = *heads.at(colj, j, j);
        let (beta, tau) = dlarfg(alpha, &mut colj[rows.clone()]);
        *heads.at(colj, j, j) = beta;
        taus[j - cols.start] = tau;
        if tau == 0.0 {
            continue;
        }
        let v = &colj[rows.clone()];
        for (c, colc) in (j + 1..cols.end).zip(right.chunks_exact_mut(ld)) {
            let d = ddot(v, &colc[rows.clone()]);
            let head = heads.at(colc, j, c);
            let w = tau * (*head + d);
            *head -= w;
            daxpy(-w, v, &mut colc[rows.clone()]);
        }
    }
}

/// `g[i + j * g_ld] = v_i . v_j` for `i < j < k`: the strict upper triangle
/// of the Gram `VᵀV` of the `k` columns of `v` (column-major, leading
/// dimension `v_ld`), over rows `0..rows`. Column `j` is dotted with up to 8
/// earlier columns per pass on the sweep's lanes (`ddot` per pair on the
/// portable tier); the lower triangle and the diagonal are left as they are.
pub(crate) fn gram_upper(
    v: &[f64],
    v_ld: usize,
    rows: usize,
    k: usize,
    g: &mut [f64],
    g_ld: usize,
) {
    if k < 2 {
        return;
    }
    assert!(
        rows <= v_ld && (k - 1) * v_ld + rows <= v.len(),
        "v too small"
    );
    assert!(k <= g_ld && (k - 1) * g_ld + k <= g.len(), "g too small");
    match active_gemm_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx512f support on this CPU; the asserts above bound every row.
        GemmTier::Avx512 => unsafe { simd::gram_avx512(v.as_ptr(), v_ld, rows, k, g, g_ld) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx2 + fma support on this CPU; the asserts above bound every row.
        GemmTier::Avx2 => unsafe { simd::gram_avx2(v.as_ptr(), v_ld, rows, k, g, g_ld) },
        _ => {
            for j in 1..k {
                let vj = &v[j * v_ld..][..rows];
                for i in 0..j {
                    g[i + j * g_ld] = ddot(&v[i * v_ld..][..rows], vj);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::super::lanes::{lanes, Lanes, Ymm, Zmm, G};
    use super::{Heads, Tail};
    use crate::householder::larfg_scalars;
    use std::ops::Range;

    /// Call `f::<S, W>(args..)` with the const `W` equal to the runtime
    /// group width `w` (1..=8), so every per-column array of a group lives
    /// in registers.
    macro_rules! with_width {
        ($w:expr, $f:ident::<$s:ty>($($arg:expr),*)) => {
            match $w {
                1 => $f::<$s, 1>($($arg),*),
                2 => $f::<$s, 2>($($arg),*),
                3 => $f::<$s, 3>($($arg),*),
                4 => $f::<$s, 4>($($arg),*),
                5 => $f::<$s, 5>($($arg),*),
                6 => $f::<$s, 6>($($arg),*),
                7 => $f::<$s, 7>($($arg),*),
                _ => $f::<$s, 8>($($arg),*),
            }
        };
    }

    /// A sweep as raw pointers: the swept buffer and the head store (the
    /// same buffer for [`Heads::Diagonal`]).
    pub(super) struct Sweep {
        a: *mut f64,
        ld: usize,
        h: *mut f64,
        h_ld: usize,
        tail: Tail,
        cols: Range<usize>,
    }

    impl Sweep {
        pub(super) fn new(
            a: &mut [f64],
            ld: usize,
            heads: &mut Heads<'_>,
            cols: Range<usize>,
        ) -> Self {
            let tail = heads.tail();
            let a = a.as_mut_ptr();
            let (h, h_ld) = match heads {
                Heads::Diagonal => (a, ld),
                Heads::Full(h, h_ld) | Heads::Stair(h, h_ld) => (h.as_mut_ptr(), *h_ld),
            };
            Sweep {
                a,
                ld,
                h,
                h_ld,
                tail,
                cols,
            }
        }
    }

    /// `out[l] = v . x_l` over `n` rows for the `W <= 8` columns `xp`: one
    /// accumulator per column, one `v` load feeding all of them, one
    /// transposing reduce.
    ///
    /// # Safety
    /// `S`'s ISA is available and `v..v + n` and every `xp[l]..xp[l] + n`
    /// are readable.
    #[inline(always)]
    unsafe fn dots<S: Lanes, const W: usize>(
        v: *const f64,
        xp: &[*const f64; W],
        n: usize,
    ) -> [f64; G] {
        let mut acc = [S::zero(); G];
        let mut r = 0;
        while r + S::L <= n {
            let vv = S::load_all(v.add(r));
            for l in 0..W {
                acc[l] = S::fmadd(vv, S::load_all(xp[l].add(r)), acc[l]);
            }
            r += S::L;
        }
        if r < n {
            let m = lanes(n - r);
            let vv = S::load(v.add(r), m);
            for l in 0..W {
                acc[l] = S::fmadd(vv, S::load(xp[l].add(r), m), acc[l]);
            }
        }
        let mut out = [0.0; G];
        S::reduce(&acc, &mut out);
        out
    }

    /// `v[r] *= s` over `n` rows.
    ///
    /// # Safety
    /// `S`'s ISA is available and `v..v + n` is writable.
    #[inline(always)]
    unsafe fn scale<S: Lanes>(v: *mut f64, n: usize, s: f64) {
        let sv = S::splat(s);
        let mut r = 0;
        while r + S::L <= n {
            S::mul(S::load_all(v.add(r)), sv).store_all(v.add(r));
            r += S::L;
        }
        if r < n {
            let m = lanes(n - r);
            S::mul(S::load(v.add(r), m), sv).store(v.add(r), m);
        }
    }

    /// Reflector `j` (tail `v`, rows `rows`, scalar `tau`) applied to the
    /// `W` columns from `c0`: their dots in one pass, `w = tau (head + d)`,
    /// `head -= w`, then `x -= v w` in a second pass over the same rows.
    ///
    /// # Safety
    /// As for [`sweep_lanes`]; `c0 + W <= s.cols.end`.
    #[inline(always)]
    unsafe fn group<S: Lanes, const W: usize>(
        s: &Sweep,
        j: usize,
        rows: &Range<usize>,
        v: *const f64,
        tau: f64,
        c0: usize,
    ) {
        let n = rows.len();
        let xp: [*mut f64; W] = std::array::from_fn(|l| s.a.add((c0 + l) * s.ld + rows.start));
        let d = dots::<S, W>(v, &xp.map(|p| p.cast_const()), n);
        let mut w = [S::zero(); W];
        for (l, wl) in w.iter_mut().enumerate() {
            let h = s.h.add((c0 + l) * s.h_ld + j);
            let x = tau * (*h + d[l]);
            *h -= x;
            *wl = S::splat(x);
        }
        let mut r = 0;
        while r + S::L <= n {
            let vv = S::load_all(v.add(r));
            for l in 0..W {
                let p = xp[l].add(r);
                S::fnmadd(vv, w[l], S::load_all(p)).store_all(p);
            }
            r += S::L;
        }
        if r < n {
            let m = lanes(n - r);
            let vv = S::load(v.add(r), m);
            for l in 0..W {
                let p = xp[l].add(r);
                S::fnmadd(vv, w[l], S::load(p, m)).store(p, m);
            }
        }
    }

    /// The vector tiers' sweep, shared by every [`Lanes`] implementation.
    ///
    /// # Safety
    /// The CPU must support `S`'s ISA, and `householder_sweep`'s asserts
    /// must hold for the buffers `s` points into: every offset is then a
    /// tail row of a swept column, a head in the head store, or a masked-off
    /// lane.
    #[inline(always)]
    unsafe fn sweep_lanes<S: Lanes>(s: &Sweep, taus: &mut [f64]) {
        let end = s.cols.end;
        for j in s.cols.clone() {
            let rows = s.tail.rows(s.ld, j);
            let n = rows.len();
            let v = s.a.add(j * s.ld + rows.start);
            let hj = s.h.add(j * s.h_ld + j);
            let xnorm = dots::<S, 1>(v, &[v.cast_const()], n)[0].sqrt();
            let Some((beta, tau, sc)) = larfg_scalars(*hj, xnorm) else {
                taus[j - s.cols.start] = 0.0;
                continue;
            };
            scale::<S>(v, n, sc);
            *hj = beta;
            taus[j - s.cols.start] = tau;
            let mut c0 = j + 1;
            while c0 < end {
                let gw = G.min(end - c0);
                with_width!(gw, group::<S>(s, j, &rows, v, tau, c0));
                c0 += gw;
            }
        }
    }

    /// [`gram_upper`](super::gram_upper) on the lanes.
    ///
    /// # Safety
    /// The CPU must support `S`'s ISA, and `gram_upper`'s asserts must hold
    /// for `v` and `g`.
    #[inline(always)]
    unsafe fn gram_lanes<S: Lanes>(
        v: *const f64,
        v_ld: usize,
        rows: usize,
        k: usize,
        g: &mut [f64],
        g_ld: usize,
    ) {
        for j in 1..k {
            let vj = v.add(j * v_ld);
            for i0 in (0..j).step_by(G) {
                let gw = G.min(j - i0);
                let d = with_width!(gw, gram_group::<S>(v, v_ld, vj, rows, i0));
                g[j * g_ld + i0..][..gw].copy_from_slice(&d[..gw]);
            }
        }
    }

    /// The dots of column `vj` with the `W` columns from `i0`.
    ///
    /// # Safety
    /// As for [`gram_lanes`].
    #[inline(always)]
    unsafe fn gram_group<S: Lanes, const W: usize>(
        v: *const f64,
        v_ld: usize,
        vj: *const f64,
        rows: usize,
        i0: usize,
    ) -> [f64; G] {
        let xp: [*const f64; W] = std::array::from_fn(|l| v.add((i0 + l) * v_ld));
        dots::<S, W>(vj, &xp, rows)
    }

    /// AVX-512 tier: one zmm holds 8 rows.
    ///
    /// # Safety
    /// The CPU must support avx512f; see [`sweep_lanes`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn sweep_avx512(s: &Sweep, taus: &mut [f64]) {
        sweep_lanes::<Zmm>(s, taus);
    }

    /// AVX2+FMA tier: one ymm holds 4 rows.
    ///
    /// # Safety
    /// The CPU must support avx2 and fma; see [`sweep_lanes`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sweep_avx2(s: &Sweep, taus: &mut [f64]) {
        sweep_lanes::<Ymm>(s, taus);
    }

    /// AVX-512 tier of the Gram.
    ///
    /// # Safety
    /// The CPU must support avx512f; see [`gram_lanes`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gram_avx512(
        v: *const f64,
        v_ld: usize,
        rows: usize,
        k: usize,
        g: &mut [f64],
        g_ld: usize,
    ) {
        gram_lanes::<Zmm>(v, v_ld, rows, k, g, g_ld);
    }

    /// AVX2+FMA tier of the Gram.
    ///
    /// # Safety
    /// The CPU must support avx2 and fma; see [`gram_lanes`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gram_avx2(
        v: *const f64,
        v_ld: usize,
        rows: usize,
        k: usize,
        g: &mut [f64],
        g_ld: usize,
    ) {
        gram_lanes::<Ymm>(v, v_ld, rows, k, g, g_ld);
    }
}
