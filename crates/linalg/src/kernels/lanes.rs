//! The SIMD register abstraction the vector kernel tiers share: the
//! narrow-operand apply ([`super::apply_narrow`]) and the Householder
//! panel sweep ([`super::sweep`]) are each one generic body over
//! [`Lanes`], instantiated per ISA behind runtime detection
//! ([`crate::gemm::active_gemm_tier`]).

/// Registers one transposing [`Lanes::reduce`] folds (and reflector
/// columns per register group of the narrow apply).
pub(super) const G: usize = 8;

/// Mask of the low `n <= 8` lanes.
#[inline]
pub(super) fn lanes(n: usize) -> u8 {
    ((1u16 << n) - 1) as u8
}

#[cfg(target_arch = "x86_64")]
pub(super) use simd::{Lanes, Ymm, Zmm};

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::G;

    /// One SIMD register of `L` `f64` lanes, as the vector tiers use it.
    /// Each implementation wraps one ISA's intrinsics.
    ///
    /// # Safety
    /// Every method requires that ISA; the pointer methods also require
    /// every lane selected by `mask` (bit `i` = lane `i`, all `L` lanes for
    /// the `_all` forms) to lie inside the slice the pointer came from.
    pub(in crate::kernels) trait Lanes: Copy {
        /// Lanes per register.
        const L: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(x: f64) -> Self;
        /// Load the lanes in `mask`, zero the rest.
        unsafe fn load(p: *const f64, mask: u8) -> Self;
        unsafe fn load_all(p: *const f64) -> Self;
        /// Store the lanes in `mask`.
        unsafe fn store(self, p: *mut f64, mask: u8);
        unsafe fn store_all(self, p: *mut f64);
        /// The lanes in `mask` replaced by `1.0`.
        unsafe fn set_one(self, mask: u8) -> Self;
        /// `a * b + c`, fused.
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
        /// `c - a * b`, fused.
        unsafe fn fnmadd(a: Self, b: Self, c: Self) -> Self;
        /// `a + b`.
        unsafe fn add(a: Self, b: Self) -> Self;
        /// `a * b`.
        unsafe fn mul(a: Self, b: Self) -> Self;
        /// Transposing reduce: `out[l]` = the sum of the lanes of `acc[l]`.
        unsafe fn reduce(acc: &[Self; G], out: &mut [f64; G]);
    }

    #[derive(Copy, Clone)]
    pub(in crate::kernels) struct Zmm(core::arch::x86_64::__m512d);

    impl Lanes for Zmm {
        const L: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Zmm(core::arch::x86_64::_mm512_setzero_pd())
        }

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Zmm(core::arch::x86_64::_mm512_set1_pd(x))
        }

        #[inline(always)]
        unsafe fn load(p: *const f64, mask: u8) -> Self {
            Zmm(core::arch::x86_64::_mm512_maskz_loadu_pd(mask, p))
        }

        #[inline(always)]
        unsafe fn load_all(p: *const f64) -> Self {
            Zmm(core::arch::x86_64::_mm512_loadu_pd(p))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64, mask: u8) {
            core::arch::x86_64::_mm512_mask_storeu_pd(p, mask, self.0)
        }

        #[inline(always)]
        unsafe fn store_all(self, p: *mut f64) {
            core::arch::x86_64::_mm512_storeu_pd(p, self.0)
        }

        #[inline(always)]
        unsafe fn set_one(self, mask: u8) -> Self {
            use core::arch::x86_64::*;
            Zmm(_mm512_mask_mov_pd(self.0, mask, _mm512_set1_pd(1.0)))
        }

        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            Zmm(core::arch::x86_64::_mm512_fmadd_pd(a.0, b.0, c.0))
        }

        #[inline(always)]
        unsafe fn fnmadd(a: Self, b: Self, c: Self) -> Self {
            Zmm(core::arch::x86_64::_mm512_fnmadd_pd(a.0, b.0, c.0))
        }

        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            Zmm(core::arch::x86_64::_mm512_add_pd(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            Zmm(core::arch::x86_64::_mm512_mul_pd(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn reduce(acc: &[Self; G], out: &mut [f64; G]) {
            use core::arch::x86_64::*;
            let a = acc.map(|z| z.0);
            // Pairs: each 128-bit lane of s_p holds (a[2p], a[2p+1]) partials.
            let s0 = _mm512_add_pd(
                _mm512_unpacklo_pd(a[0], a[1]),
                _mm512_unpackhi_pd(a[0], a[1]),
            );
            let s1 = _mm512_add_pd(
                _mm512_unpacklo_pd(a[2], a[3]),
                _mm512_unpackhi_pd(a[2], a[3]),
            );
            let s2 = _mm512_add_pd(
                _mm512_unpacklo_pd(a[4], a[5]),
                _mm512_unpackhi_pd(a[4], a[5]),
            );
            let s3 = _mm512_add_pd(
                _mm512_unpacklo_pd(a[6], a[7]),
                _mm512_unpackhi_pd(a[6], a[7]),
            );
            // Fold 128-bit lanes {0,1} and {2,3} of two vectors into one.
            const EVEN: i32 = 0b10_00_10_00;
            const ODD: i32 = 0b11_01_11_01;
            let u0 = _mm512_add_pd(
                _mm512_shuffle_f64x2::<EVEN>(s0, s1),
                _mm512_shuffle_f64x2::<ODD>(s0, s1),
            );
            let u1 = _mm512_add_pd(
                _mm512_shuffle_f64x2::<EVEN>(s2, s3),
                _mm512_shuffle_f64x2::<ODD>(s2, s3),
            );
            let sum = _mm512_add_pd(
                _mm512_shuffle_f64x2::<EVEN>(u0, u1),
                _mm512_shuffle_f64x2::<ODD>(u0, u1),
            );
            _mm512_storeu_pd(out.as_mut_ptr(), sum);
        }
    }

    /// `i64` lane masks for the AVX2 masked moves, indexed by a 4-bit mask.
    const MASK4: [[i64; 4]; 16] = {
        let mut t = [[0i64; 4]; 16];
        let mut bits = 0;
        while bits < 16 {
            let mut i = 0;
            while i < 4 {
                if bits >> i & 1 == 1 {
                    t[bits][i] = -1;
                }
                i += 1;
            }
            bits += 1;
        }
        t
    };

    /// The ymm lane mask of the low 4 bits of `bits`.
    ///
    /// # Safety
    /// avx is available.
    #[inline(always)]
    unsafe fn mask4(bits: u8) -> core::arch::x86_64::__m256i {
        core::arch::x86_64::_mm256_loadu_si256(MASK4[usize::from(bits & 0xF)].as_ptr().cast())
    }

    #[derive(Copy, Clone)]
    pub(in crate::kernels) struct Ymm(core::arch::x86_64::__m256d);

    impl Lanes for Ymm {
        const L: usize = 4;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Ymm(core::arch::x86_64::_mm256_setzero_pd())
        }

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Ymm(core::arch::x86_64::_mm256_set1_pd(x))
        }

        #[inline(always)]
        unsafe fn load(p: *const f64, mask: u8) -> Self {
            Ymm(core::arch::x86_64::_mm256_maskload_pd(p, mask4(mask)))
        }

        #[inline(always)]
        unsafe fn load_all(p: *const f64) -> Self {
            Ymm(core::arch::x86_64::_mm256_loadu_pd(p))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64, mask: u8) {
            core::arch::x86_64::_mm256_maskstore_pd(p, mask4(mask), self.0)
        }

        #[inline(always)]
        unsafe fn store_all(self, p: *mut f64) {
            core::arch::x86_64::_mm256_storeu_pd(p, self.0)
        }

        #[inline(always)]
        unsafe fn set_one(self, mask: u8) -> Self {
            use core::arch::x86_64::*;
            let m = _mm256_castsi256_pd(mask4(mask));
            Ymm(_mm256_blendv_pd(self.0, _mm256_set1_pd(1.0), m))
        }

        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            Ymm(core::arch::x86_64::_mm256_fmadd_pd(a.0, b.0, c.0))
        }

        #[inline(always)]
        unsafe fn fnmadd(a: Self, b: Self, c: Self) -> Self {
            Ymm(core::arch::x86_64::_mm256_fnmadd_pd(a.0, b.0, c.0))
        }

        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            Ymm(core::arch::x86_64::_mm256_add_pd(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            Ymm(core::arch::x86_64::_mm256_mul_pd(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn reduce(acc: &[Self; G], out: &mut [f64; G]) {
            use core::arch::x86_64::*;
            // hadd pairs, then fold the 128-bit halves of two pairs.
            for (half, a) in out.chunks_exact_mut(4).zip(acc.chunks_exact(4)) {
                let h01 = _mm256_hadd_pd(a[0].0, a[1].0);
                let h23 = _mm256_hadd_pd(a[2].0, a[3].0);
                let s = _mm256_add_pd(
                    _mm256_permute2f128_pd::<0x20>(h01, h23),
                    _mm256_permute2f128_pd::<0x31>(h01, h23),
                );
                _mm256_storeu_pd(half.as_mut_ptr(), s);
            }
        }
    }
}
