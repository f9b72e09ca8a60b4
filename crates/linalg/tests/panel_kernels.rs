//! The panel kernels against the reference Householder QR, under every
//! microkernel tier this CPU has: `geqrt`, `tsqrt` and `ttqrt` factor a
//! seeded tile (or stacked pair), `Q` is rebuilt from the stored `V` and
//! `T` through the matching `*mqr` kernel, and both `R` and `Q` must agree
//! with `reference::geqrf` of the dense matrix. The grid crosses tile sizes
//! (including ragged ones, whose last inner block is short) with inner
//! block sizes, and adds an all-zero column (`tau = 0`) and an input that
//! is already triangular. A determinism check runs the same factorization
//! twice and on a second thread and requires the same bits.

use pulsar_linalg::gemm::{set_gemm_tier, GemmTier};
use pulsar_linalg::reference::geqrf;
use pulsar_linalg::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, ApplyTrans, Matrix, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NBS: [usize; 6] = [5, 8, 16, 32, 33, 128];
const TIERS: [GemmTier; 3] = [GemmTier::Scalar, GemmTier::Avx2, GemmTier::Avx512];

fn ibs(nb: usize) -> Vec<usize> {
    let mut v = vec![1, 3, 8, 16, 32, nb];
    v.sort_unstable();
    v.dedup();
    v
}

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    Matrix::random(m, n, &mut StdRng::seed_from_u64(seed))
}

#[derive(Copy, Clone, Debug)]
enum Family {
    /// `geqrt` on one `nb x nb` tile.
    Tile,
    /// `tsqrt` on a triangle over a full tile.
    Full,
    /// `ttqrt` on a triangle over a triangle.
    Stair,
}

#[derive(Copy, Clone, Debug)]
enum Case {
    Random,
    /// Column `nb / 2` is zero in every tile: its reflector has `tau = 0`.
    ZeroColumn,
    /// Nothing to annihilate: every reflector is the identity.
    Triangular,
}

/// The kernel's input: the tile (or the two stacked tiles) of `family`.
fn input(family: Family, case: Case, nb: usize, seed: u64) -> (Matrix, Matrix) {
    let (mut a1, mut a2) = match family {
        Family::Tile => (rand_matrix(nb, nb, seed), Matrix::zeros(0, nb)),
        Family::Full => (
            rand_matrix(nb, nb, seed).upper_triangle(),
            rand_matrix(nb, nb, seed ^ 1),
        ),
        Family::Stair => (
            rand_matrix(nb, nb, seed).upper_triangle(),
            rand_matrix(nb, nb, seed ^ 1).upper_triangle(),
        ),
    };
    match case {
        Case::Random => {}
        Case::ZeroColumn => {
            let z = nb / 2;
            a1.col_mut(z).fill(0.0);
            a2.col_mut(z).fill(0.0);
        }
        Case::Triangular => match family {
            Family::Tile => a1 = a1.upper_triangle(),
            Family::Full | Family::Stair => a2 = Matrix::zeros(nb, nb),
        },
    }
    (a1, a2)
}

/// The dense matrix the kernel factors: the tile, or the stacked pair.
fn dense(a1: &Matrix, a2: &Matrix) -> Matrix {
    let mut a = Matrix::zeros(a1.nrows() + a2.nrows(), a1.ncols());
    a.set_submatrix(0, 0, a1);
    a.set_submatrix(a1.nrows(), 0, a2);
    a
}

/// Run the kernel; returns `(R, V, T)`. The stair family's input has its
/// strict lower triangle poisoned with NaN, which the kernel must not read.
fn factor(family: Family, a1: &Matrix, a2: &Matrix, ib: usize, ws: &mut Workspace) -> [Matrix; 3] {
    let nb = a1.ncols();
    let mut t = Matrix::zeros(ib.min(nb), nb);
    let (mut r, mut v) = (a1.clone(), a2.clone());
    match family {
        Family::Tile => geqrt_ws(&mut r, &mut t, ib, ws),
        Family::Full => tsqrt_ws(&mut r, &mut v, &mut t, ib, ws),
        Family::Stair => {
            for j in 0..nb {
                for i in j + 1..nb {
                    v[(i, j)] = f64::NAN;
                }
            }
            ttqrt_ws(&mut r, &mut v, &mut t, ib, ws);
            for j in 0..nb {
                for i in j + 1..nb {
                    assert!(v[(i, j)].is_nan(), "ttqrt wrote below the staircase");
                    v[(i, j)] = 0.0;
                }
            }
        }
    }
    if let Family::Tile = family {
        // V is the strict lower triangle of the factored tile.
        v = Matrix::from_fn(nb, nb, |i, j| if i > j { r[(i, j)] } else { 0.0 });
    }
    [r.upper_triangle(), v, t]
}

/// The first `nb` columns of `Q`, rebuilt from `V` and `T` by applying `Q`
/// to `[I; 0]` with the family's `*mqr` kernel.
fn thin_q(family: Family, v: &Matrix, t: &Matrix, ib: usize, ws: &mut Workspace) -> Matrix {
    let nb = t.ncols();
    match family {
        Family::Tile => {
            let mut q = Matrix::identity(nb);
            unmqr_ws(v, t, ApplyTrans::NoTrans, &mut q, ib, ws);
            q
        }
        Family::Full | Family::Stair => {
            let mut top = Matrix::identity(nb);
            let mut bot = Matrix::zeros(nb, nb);
            if let Family::Full = family {
                tsmqr_ws(&mut top, &mut bot, v, t, ApplyTrans::NoTrans, ib, ws);
            } else {
                ttmqr_ws(&mut top, &mut bot, v, t, ApplyTrans::NoTrans, ib, ws);
            }
            dense(&top, &bot)
        }
    }
}

/// Check every (tier, inner block size) of one input against the reference.
fn check_case(family: Family, case: Case, nb: usize, seed: u64) {
    let (a1, a2) = input(family, case, nb, seed);
    let a = dense(&a1, &a2);
    let m = a.nrows();
    let reference = geqrf(a.clone());
    let r_ref = reference.r();
    let mut q_ref = Matrix::zeros(m, nb);
    q_ref.set_submatrix(0, 0, &Matrix::identity(nb));
    reference.apply_q(&mut q_ref, false);
    let tol = 1e-14 * m as f64 * a.norm_fro().max(1.0);
    let mut ws = Workspace::new();
    for tier in TIERS {
        if !tier.is_available() {
            eprintln!("skipping tier {tier}: not supported by this CPU");
            continue;
        }
        set_gemm_tier(Some(tier));
        for ib in ibs(nb) {
            let what = format!("{family:?} {case:?} nb={nb} ib={ib} tier={tier}");
            let [r, v, t] = factor(family, &a1, &a2, ib, &mut ws);
            let dr = r.sub(&r_ref).norm_fro();
            assert!(dr <= tol, "{what}: R off the reference by {dr:e}");
            let q = thin_q(family, &v, &t, ib, &mut ws);
            let dq = q.sub(&q_ref).norm_fro();
            assert!(
                dq <= 1e-14 * (m * nb) as f64,
                "{what}: Q off the reference by {dq:e}"
            );
            if let Case::Triangular = case {
                assert_eq!(t.norm_fro(), 0.0, "{what}: identity reflectors need T = 0");
                assert_eq!(r, a1.upper_triangle(), "{what}: R must be the input");
            }
        }
        set_gemm_tier(None);
    }
}

fn check_family(family: Family) {
    for nb in NBS {
        for (s, case) in [Case::Random, Case::ZeroColumn, Case::Triangular]
            .into_iter()
            .enumerate()
        {
            check_case(family, case, nb, 100 * nb as u64 + s as u64);
        }
    }
}

#[test]
fn geqrt_matches_reference_qr() {
    check_family(Family::Tile);
}

#[test]
fn tsqrt_matches_reference_qr() {
    check_family(Family::Full);
}

#[test]
fn ttqrt_matches_reference_qr() {
    check_family(Family::Stair);
}

/// Same input, same bits: twice on this thread with one workspace, and on
/// a fresh thread with a fresh workspace, under every available tier.
#[test]
fn panel_kernels_are_deterministic() {
    for tier in TIERS.into_iter().filter(|t| t.is_available()) {
        for family in [Family::Tile, Family::Full, Family::Stair] {
            for (nb, ib) in [(32, 8), (33, 16), (128, 32)] {
                let (a1, a2) = input(family, Case::Random, nb, 7);
                set_gemm_tier(Some(tier));
                let mut ws = Workspace::new();
                let first = factor(family, &a1, &a2, ib, &mut ws);
                let second = factor(family, &a1, &a2, ib, &mut ws);
                set_gemm_tier(None);
                let other = std::thread::scope(|s| {
                    s.spawn(|| {
                        set_gemm_tier(Some(tier));
                        factor(family, &a1, &a2, ib, &mut Workspace::new())
                    })
                    .join()
                    .expect("factor thread")
                });
                for (run, out) in [("rerun", &second), ("thread", &other)] {
                    for (x, y) in first.iter().zip(out) {
                        let same = x
                            .data()
                            .iter()
                            .zip(y.data())
                            .all(|(p, q)| p.to_bits() == q.to_bits());
                        assert!(
                            same,
                            "{family:?} nb={nb} ib={ib} tier={tier}: {run} differs"
                        );
                    }
                }
            }
        }
    }
}
