//! Sixteen `f32` lanes: the vector type the GEMM core is written over.
//!
//! The type is explicit because auto-vectorization does not reach 512 bits
//! here: LLVM's tuning for the AVX-512 server cores this workspace is built
//! for (`target-cpu=native`) prefers 256-bit vectors, so a plain `f32` loop
//! runs at eight lanes even where the CPU has sixteen. The compile-time
//! `target_feature = "avx512f"` picks the implementation: a `__m512` wrapper
//! where the build enables AVX-512, otherwise a `[f32; 16]` whose lane-wise
//! loops the compiler vectorizes at whatever width the target has. There is
//! no runtime CPU dispatch.
//!
//! Both implementations round each lane's multiply and add separately (there
//! is no fused multiply-add operation), so a lane computes exactly what the
//! scalar `a * b` and `a + b` compute, at any vector width.

/// Lanes per vector.
pub(crate) const LANES: usize = 16;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod imp {
    use super::LANES;
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_storeu_ps,
    };

    /// Sixteen `f32` lanes in one `zmm` register.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x16(__m512);

    impl F32x16 {
        #[inline(always)]
        pub(crate) fn load(src: &[f32; LANES]) -> Self {
            // SAFETY: this module is compiled only when the build enables
            // `avx512f`, and `src` borrows exactly the 16 initialized `f32`s
            // the unaligned 64-byte load reads.
            F32x16(unsafe { _mm512_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        pub(crate) fn splat(v: f32) -> Self {
            // SAFETY: this module is compiled only when the build enables
            // `avx512f`; the intrinsic touches registers only.
            F32x16(unsafe { _mm512_set1_ps(v) })
        }

        #[inline(always)]
        pub(crate) fn mul(self, rhs: Self) -> Self {
            // SAFETY: this module is compiled only when the build enables
            // `avx512f`; the intrinsic touches registers only.
            F32x16(unsafe { _mm512_mul_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        pub(crate) fn add(self, rhs: Self) -> Self {
            // SAFETY: this module is compiled only when the build enables
            // `avx512f`; the intrinsic touches registers only.
            F32x16(unsafe { _mm512_add_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f32; LANES]) {
            // SAFETY: this module is compiled only when the build enables
            // `avx512f`, and `dst` borrows exactly the 16 `f32`s the unaligned
            // 64-byte store writes.
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod imp {
    use super::LANES;

    /// Sixteen `f32` lanes as a plain array.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x16([f32; LANES]);

    impl F32x16 {
        #[inline(always)]
        pub(crate) fn load(src: &[f32; LANES]) -> Self {
            F32x16(*src)
        }

        #[inline(always)]
        pub(crate) fn splat(v: f32) -> Self {
            F32x16([v; LANES])
        }

        #[inline(always)]
        pub(crate) fn mul(mut self, rhs: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(rhs.0) {
                *a *= b;
            }
            self
        }

        #[inline(always)]
        pub(crate) fn add(mut self, rhs: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(rhs.0) {
                *a += b;
            }
            self
        }

        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f32; LANES]) {
            *dst = self.0;
        }
    }
}

pub(crate) use imp::F32x16;
