//! # pulsar-linalg
//!
//! Dense linear-algebra substrate for the PULSAR tree-QR reproduction:
//! column-major matrices, BLAS-like primitives, and the PLASMA-style tile
//! QR kernels (`geqrt`, `unmqr`, `tsqrt`, `tsmqr`, `ttqrt`, `ttmqr`) the
//! paper's Section V-B lists, implemented from scratch with inner blocking.
//!
//! The tile kernels follow PLASMA core-blas calling conventions so the
//! algorithm layer (`pulsar-core`) can be transcribed from the paper's
//! pseudocode (Fig. 5) directly.

#![warn(missing_docs)]

pub mod blas;
pub mod cond;
pub mod flops;
pub mod gemm;
pub mod householder;
pub mod kernels;
pub mod matrix;
pub mod reference;
pub mod solve;
pub mod tile;
pub mod verify;
pub mod workspace;

pub use kernels::{
    apply_narrow, geqrt, geqrt_ws, set_panel_ib, tsmqr, tsmqr_ws, tsqrt, tsqrt_ws, ttmqr, ttmqr_ws,
    ttqrt, ttqrt_ws, unmqr, unmqr_ws, ApplyTrans,
};
pub use matrix::Matrix;
pub use solve::{back_substitute, SolveError};
pub use tile::TileMatrix;
pub use workspace::{with_thread_workspace, Workspace};
