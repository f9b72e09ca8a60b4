//! `TileQrFactors` applies `Q` / `Q^T` to operands of at most
//! `NARROW_MAX` columns with the narrow kernel and to wider ones with the
//! `*mqr` tile kernels. The two paths must agree on every tree, before and
//! after streaming rows in with `append_rows`, and `Q^T (Q b) = b`.
//!
//! The wide answer for a narrow `b` is read off a zero-padded operand
//! wider than `NARROW_MAX`: columns are transformed independently, so its
//! first columns are the wide path's answer for `b` itself.

use pulsar_core::{append_rows, tile_qr_seq, QrOptions, TileQrFactors, Tree};
use pulsar_linalg::kernels::NARROW_MAX;
use pulsar_linalg::{back_substitute, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trees() -> Vec<Tree> {
    vec![
        Tree::Flat,
        Tree::Binary,
        Tree::BinaryOnFlat { h: 3 },
        Tree::Greedy,
        Tree::custom([2, 3]),
    ]
}

/// `b` padded with zero columns past `NARROW_MAX`.
fn padded(b: &Matrix) -> Matrix {
    let mut p = Matrix::zeros(b.nrows(), NARROW_MAX + 1);
    p.set_submatrix(0, 0, b);
    p
}

fn close(got: &Matrix, want: &Matrix, tol: f64, what: &str) {
    let err = got.sub(want).norm_fro();
    assert!(
        err <= tol * want.norm_fro().max(1.0),
        "{what}: paths differ by {err:e}"
    );
}

/// The first `k` columns of `w`.
fn cols(w: &Matrix, k: usize) -> Matrix {
    w.submatrix(0, 0, w.nrows(), k)
}

fn check_paths(f: &TileQrFactors, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = Matrix::random(f.m, NARROW_MAX, &mut rng);
    let wide_qt = f.apply_qt(&padded(&full));
    let wide_q = f.apply_q(&padded(&full));
    let mut wide_x = wide_qt.submatrix(0, 0, f.n, NARROW_MAX);
    back_substitute(&f.r, &mut wide_x).expect("full-rank factors");
    for k in [1, 2, 5, NARROW_MAX] {
        let b = cols(&full, k);
        let what = format!("{what} k={k}");
        let qtb = f.apply_qt(&b);
        close(&qtb, &cols(&wide_qt, k), 1e-13, &format!("{what} apply_qt"));
        let qb = f.apply_q(&b);
        close(&qb, &cols(&wide_q, k), 1e-13, &format!("{what} apply_q"));
        close(&f.apply_qt(&qb), &b, 1e-13, &format!("{what} Q^T Q b"));
        let x = f.solve_ls(&b);
        close(&x, &cols(&wide_x, k), 1e-10, &format!("{what} solve_ls"));
    }
}

#[test]
fn narrow_and_wide_paths_agree_on_every_tree() {
    // ib below, at and above the kernel's 8-column register group, and a
    // ragged last column block.
    let shapes = [
        (96, 24, 8, 3),
        (128, 32, 16, 16),
        (96, 20, 8, 8),
        (64, 32, 32, 12),
    ];
    for (i, (m, n, nb, ib)) in shapes.into_iter().enumerate() {
        for (j, tree) in trees().into_iter().enumerate() {
            let seed = (10 * i + j) as u64;
            let a = Matrix::random(m, n, &mut StdRng::seed_from_u64(seed));
            let f = tile_qr_seq(&a, &QrOptions::new(nb, ib, tree.clone()));
            check_paths(&f, seed, &format!("{m}x{n} nb={nb} ib={ib} {tree:?}"));
        }
    }
}

#[test]
fn narrow_and_wide_paths_agree_after_append_rows() {
    for (j, tree) in trees().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + j as u64);
        let a = Matrix::random(64, 16, &mut rng);
        let f = tile_qr_seq(&a, &QrOptions::new(8, 4, tree.clone()));
        let grown = append_rows(&f, &Matrix::random(24, 16, &mut rng)).expect("tiled rows");
        let grown = append_rows(&grown, &Matrix::random(8, 16, &mut rng)).expect("tiled rows");
        check_paths(&grown, j as u64, &format!("appended {tree:?}"));
    }
}
