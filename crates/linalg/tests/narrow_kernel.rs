//! The narrow-operand apply against the `*mqr` kernels it stands in for:
//! every stored reflector shape, both directions, over a grid of tile
//! sizes, inner block sizes and operand widths: every width up to 33 (the
//! column pairs and odd remainders of the SIMD tiers) plus wider ones up
//! to `NARROW_MAX`. The operand is embedded in a taller buffer so row
//! offsets are exercised too, and rows outside the transformation must
//! come back untouched.

use pulsar_linalg::kernels::{ApplyTrans, VShape, NARROW_MAX};
use pulsar_linalg::{
    apply_narrow, geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Matrix, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NBS: [usize; 5] = [5, 8, 16, 32, 33];
/// Rows of the operand above the first transformed row.
const PAD: usize = 3;

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    Matrix::random(m, n, &mut StdRng::seed_from_u64(seed))
}

fn ibs(nb: usize) -> [usize; 5] {
    [1, 3, 8, 12, nb]
}

#[derive(Copy, Clone, Debug)]
enum Family {
    Tile,
    Full,
    Stair,
}

/// Factor one seeded transformation of `family` at tile size `nb`.
fn factor(family: Family, nb: usize, ib: usize, seed: u64, ws: &mut Workspace) -> (Matrix, Matrix) {
    let mut t = Matrix::zeros(ib.min(nb), nb);
    match family {
        Family::Tile => {
            let mut v = rand_matrix(nb, nb, seed);
            geqrt_ws(&mut v, &mut t, ib, ws);
            (v, t)
        }
        Family::Full => {
            let mut r = rand_matrix(nb, nb, seed).upper_triangle();
            let mut v = rand_matrix(nb, nb, seed ^ 1);
            tsqrt_ws(&mut r, &mut v, &mut t, ib, ws);
            (v, t)
        }
        Family::Stair => {
            let mut r = rand_matrix(nb, nb, seed).upper_triangle();
            // Poison below the staircase: both kernels must ignore it.
            let mut v = rand_matrix(nb, nb, seed ^ 1);
            for j in 0..nb {
                for i in j + 1..nb {
                    v[(i, j)] = 1e6;
                }
            }
            ttqrt_ws(&mut r, &mut v, &mut t, ib, ws);
            (v, t)
        }
    }
}

/// Check one case: the narrow apply on an embedded operand agrees with the
/// wide kernel to 1e-13 ||b|| and leaves every other row bit-identical.
#[allow(clippy::too_many_arguments)]
fn check(
    family: Family,
    nb: usize,
    ib: usize,
    k: usize,
    trans: ApplyTrans,
    tail_first: bool,
    seed: u64,
    ws: &mut Workspace,
) {
    let (v, t) = factor(family, nb, ib, seed, ws);
    let stacked = !matches!(family, Family::Tile);
    let height = PAD + if stacked { 2 * nb } else { nb } + 2;
    let b = rand_matrix(height, k, seed ^ 2);
    // Operand rows of the two tiles (the second is unused for Tile).
    let (head, tail) = if stacked && tail_first {
        (PAD + nb, PAD)
    } else {
        (PAD, PAD + nb)
    };

    let mut want = b.clone();
    match family {
        Family::Tile => {
            let mut c = b.submatrix(PAD, 0, nb, k);
            unmqr_ws(&v, &t, trans, &mut c, ib, ws);
            want.set_submatrix(PAD, 0, &c);
        }
        Family::Full | Family::Stair => {
            let mut a1 = b.submatrix(head, 0, nb, k);
            let mut a2 = b.submatrix(tail, 0, nb, k);
            if matches!(family, Family::Full) {
                tsmqr_ws(&mut a1, &mut a2, &v, &t, trans, ib, ws);
            } else {
                ttmqr_ws(&mut a1, &mut a2, &v, &t, trans, ib, ws);
            }
            want.set_submatrix(head, 0, &a1);
            want.set_submatrix(tail, 0, &a2);
        }
    }

    let shape = match family {
        Family::Tile => VShape::Tile { row0: PAD },
        Family::Full => VShape::Full { head, tail },
        Family::Stair => VShape::Stair { head, tail },
    };
    let mut got = b.clone();
    apply_narrow(shape, &v, &t, ib, trans, &mut got, ws);

    let what = format!("{family:?} nb={nb} ib={ib} k={k} {trans:?} tail_first={tail_first}");
    let err = got.sub(&want).norm_fro();
    assert!(
        err <= 1e-13 * b.norm_fro().max(1.0),
        "{what}: narrow differs from wide by {err:e}"
    );
    let touched =
        |i: usize| (head..head + nb).contains(&i) || (stacked && (tail..tail + nb).contains(&i));
    for j in 0..k {
        for i in (0..height).filter(|&i| !touched(i)) {
            assert_eq!(
                got[(i, j)],
                b[(i, j)],
                "{what}: row {i} outside the transform moved"
            );
        }
    }
}

fn sweep(family: Family) {
    let mut ws = Workspace::new();
    let mut seed = 0u64;
    for nb in NBS {
        for ib in ibs(nb) {
            for k in (0..=33).chain([64, 129, NARROW_MAX]) {
                for trans in [ApplyTrans::Trans, ApplyTrans::NoTrans] {
                    seed += 1;
                    check(
                        family,
                        nb,
                        ib,
                        k,
                        trans,
                        seed.is_multiple_of(2),
                        seed,
                        &mut ws,
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_matches_unmqr_on_tile_reflectors() {
    sweep(Family::Tile);
}

#[test]
fn narrow_matches_tsmqr_on_full_tails() {
    sweep(Family::Full);
}

#[test]
fn narrow_matches_ttmqr_on_staircase_tails() {
    sweep(Family::Stair);
}

#[test]
fn narrow_roundtrip_restores_operand() {
    let mut ws = Workspace::new();
    for (seed, family) in [Family::Tile, Family::Full, Family::Stair]
        .into_iter()
        .enumerate()
    {
        let (v, t) = factor(family, 33, 12, seed as u64, &mut ws);
        let shape = match family {
            Family::Tile => VShape::Tile { row0: 0 },
            Family::Full => VShape::Full { head: 0, tail: 33 },
            Family::Stair => VShape::Stair { head: 33, tail: 0 },
        };
        let b = rand_matrix(66, 3, seed as u64);
        let mut x = b.clone();
        apply_narrow(shape, &v, &t, 12, ApplyTrans::NoTrans, &mut x, &mut ws);
        apply_narrow(shape, &v, &t, 12, ApplyTrans::Trans, &mut x, &mut ws);
        assert!(
            x.sub(&b).norm_fro() <= 1e-13 * b.norm_fro(),
            "{family:?}: Q^T Q b != b"
        );
    }
}
