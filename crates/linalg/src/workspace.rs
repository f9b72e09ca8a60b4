//! Reusable scratch arena for the tile kernels.
//!
//! Every tile kernel needs a handful of temporaries: the `W` block of a
//! reflector apply, a copy of the `V` block when a tile is both reflector
//! store and update target, the per-panel `tau` scalars, and the GEMM
//! packing buffers. A [`Workspace`] owns all of them as grow-only buffers,
//! so a kernel invoked repeatedly at steady-state sizes performs zero heap
//! allocations after warm-up.
//!
//! Callers that manage their own scratch (the runtime's per-worker storage,
//! the sequential driver) pass `&mut Workspace` into the `*_ws` kernel
//! entry points. The plain kernel names fall back to a thread-local
//! workspace via [`with_thread_workspace`].

use crate::gemm::GemmScratch;
use std::cell::RefCell;

/// Grow-only scratch buffers shared by the tile kernels and the packed GEMM
/// engine. Create one per worker thread (or per call chain) and reuse it;
/// buffers expand on first use and are retained across calls.
#[derive(Default)]
pub struct Workspace {
    /// The `ibb x nc` reflector-apply block `W`.
    pub(crate) w: Vec<f64>,
    /// Copy of a `V` block when it aliases the update target.
    pub(crate) vcopy: Vec<f64>,
    /// Zero-padded `V̂` copy (unit heads explicit, staircase tails padded)
    /// used by the pure-GEMM block applies and the sub-panel updates.
    pub(crate) vpad: Vec<f64>,
    /// Per-panel Householder scalars.
    pub(crate) taus: Vec<f64>,
    /// `V̂^T V̂` Gram block for the `T` formation.
    pub(crate) tgram: Vec<f64>,
    /// Sub-panel `T` factor used inside a blocked panel factorization.
    pub(crate) tsub: Vec<f64>,
    /// Packing buffers for the packed GEMM path.
    pub(crate) gemm: GemmScratch,
}

impl Workspace {
    /// Create an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total `f64` capacity currently held across all buffers (diagnostics).
    pub fn capacity(&self) -> usize {
        self.w.capacity()
            + self.vcopy.capacity()
            + self.vpad.capacity()
            + self.taus.capacity()
            + self.tgram.capacity()
            + self.tsub.capacity()
            + self.gemm.capacity()
    }
}

/// Grow `buf` to at least `len` elements and return the `len`-prefix.
/// Contents of the returned slice are unspecified (stale scratch data).
pub(crate) fn grow(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Run `f` with this thread's shared [`Workspace`].
///
/// This is the scratch source for the plain kernel entry points. Do not
/// call it re-entrantly (a kernel running under it must not call back into
/// it); the `*_ws` kernels take their workspace by argument precisely so
/// the borrow is never nested.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_only_grows() {
        let mut buf = Vec::new();
        assert_eq!(grow(&mut buf, 10).len(), 10);
        let cap = buf.capacity();
        assert_eq!(grow(&mut buf, 4).len(), 4);
        assert_eq!(buf.capacity(), cap, "shrink must not reallocate");
        assert_eq!(grow(&mut buf, 20).len(), 20);
    }

    #[test]
    fn thread_workspace_persists() {
        with_thread_workspace(|ws| {
            grow(&mut ws.w, 64);
        });
        with_thread_workspace(|ws| {
            assert!(ws.w.capacity() >= 64);
        });
    }
}
