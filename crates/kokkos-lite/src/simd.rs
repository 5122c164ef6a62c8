//! Portable SIMD pack type — the `Kokkos::Experimental::simd` /
//! HPX-SIMD-types layer the paper's related work integrates for A64FX
//! (SVE) and x86 (AVX) kernels.
//!
//! [`Simd<W>`] is a fixed-width pack of `f64` lanes stored as a plain
//! `[f64; W]`. Its arithmetic is chosen at compile time, the way Kokkos
//! SIMD picks an ABI: where the build enables AVX2+FMA a `Simd<4>` operation
//! is one `ymm` instruction, where it enables AVX-512F a `Simd<8>` operation
//! is one `zmm` instruction, and every other width and target runs the
//! element-wise loops of [`lanes`] — the scalar fallback. Nothing is
//! selected at run time.
//!
//! **Bitwise contract.** A backend operation is the same IEEE-754 operation
//! per lane as its [`lanes`] loop (`add`, `mul`, `div`, `sqrt`, fused
//! multiply-add, sign flip), so a kernel's result does not depend on which
//! one was compiled in; a property test pins every backend operation to the
//! lane loop bit for bit, NaN, infinities, subnormals and signed zeros
//! included. [`Simd::recip_sqrt`] is the one operation that is a *sequence*:
//! two correctly rounded single-precision operations and five double-
//! precision ones, each IEEE-defined, in one fixed order in the lane loop
//! and in both backends — no hardware estimate (`rsqrt14`, `rsqrtps`), whose
//! bits differ between CPUs and which a lane loop cannot reproduce.
//! Operations whose vector instruction differs from the `f64`
//! method on those inputs (`min`, `max`) or that gain nothing (`abs`,
//! compares, `select`, the ordered horizontal sums) stay lane loops. All
//! `unsafe` of the SIMD layer is the two blocks of `backend_op!` below.
//!
//! The width a *target* architecture would use is Table 2's vector length
//! (`rv_machine::CpuSpec::vector`): 8 for A64FX/Skylake AVX-512, 4 for the
//! EPYC's AVX2, and **1 for the RISC-V boards**, which implement neither the
//! V nor the P extension — the scalar-fallback case the paper highlights.
//! On GPUs Kokkos maps the same type to scalars; `Simd<1>` is exactly that
//! degenerate pack.

/// Element-wise reference loops: the fallback every width and target
/// without a backend runs, and what the backends are tested against.
mod lanes {
    #[inline(always)]
    fn zip<const W: usize>(a: [f64; W], b: [f64; W], f: impl Fn(f64, f64) -> f64) -> [f64; W] {
        std::array::from_fn(|i| f(a[i], b[i]))
    }

    #[inline(always)]
    pub(crate) fn add<const W: usize>(a: [f64; W], b: [f64; W]) -> [f64; W] {
        zip(a, b, |x, y| x + y)
    }

    #[inline(always)]
    pub(crate) fn sub<const W: usize>(a: [f64; W], b: [f64; W]) -> [f64; W] {
        zip(a, b, |x, y| x - y)
    }

    #[inline(always)]
    pub(crate) fn mul<const W: usize>(a: [f64; W], b: [f64; W]) -> [f64; W] {
        zip(a, b, |x, y| x * y)
    }

    #[inline(always)]
    pub(crate) fn div<const W: usize>(a: [f64; W], b: [f64; W]) -> [f64; W] {
        zip(a, b, |x, y| x / y)
    }

    #[inline(always)]
    pub(crate) fn neg<const W: usize>(a: [f64; W]) -> [f64; W] {
        a.map(|x| -x)
    }

    #[inline(always)]
    pub(crate) fn sqrt<const W: usize>(a: [f64; W]) -> [f64; W] {
        a.map(f64::sqrt)
    }

    /// The definition of [`Simd::recip_sqrt`](super::Simd::recip_sqrt): the
    /// seed `y0` is `1/√x` from three single-precision roundings (relative
    /// error `e` of a few 2⁻²⁴), `r = 1 − x·y0²` is its residual, and
    /// `y0·(1 + r/2 + 3r²/8)` is the cubic (Halley) correction, which leaves
    /// `O(e³)` — far below the rounding of the last `fma`.
    #[inline(always)]
    pub(crate) fn recip_sqrt<const W: usize>(a: [f64; W]) -> [f64; W] {
        a.map(|x| {
            debug_assert!(
                x.is_nan() || (f64::from(f32::MIN_POSITIVE)..=f64::from(f32::MAX)).contains(&x),
                "recip_sqrt({x:e}): outside the normal f32 range"
            );
            let y0 = f64::from(1.0f32 / (x as f32).sqrt());
            let r = fma(-(x * y0), y0, 1.0);
            fma(y0 * r, fma(r, 0.375, 0.5), y0)
        })
    }

    /// `a * b + c`, fused only where the target has FMA hardware — without
    /// it `f64::mul_add` lowers to a libm call an order of magnitude slower
    /// than mul+add, which would make every "vectorized" kernel lose to its
    /// scalar reference.
    #[inline(always)]
    fn fma(a: f64, b: f64, c: f64) -> f64 {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }

    #[inline(always)]
    pub(crate) fn mul_add<const W: usize>(a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        std::array::from_fn(|i| fma(a[i], b[i], c[i]))
    }
}

/// The 4-lane backend: one `ymm` instruction per operation.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod avx2 {
    use core::arch::x86_64::*;
    pub use core::arch::x86_64::{
        _mm256_add_pd as add, _mm256_div_pd as div, _mm256_fmadd_pd as mul_add,
        _mm256_loadu_pd as load, _mm256_mul_pd as mul, _mm256_sqrt_pd as sqrt,
        _mm256_storeu_pd as store, _mm256_sub_pd as sub,
    };

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn neg(a: __m256d) -> __m256d {
        _mm256_xor_pd(a, _mm256_set1_pd(-0.0))
    }

    /// Four lanes of `lanes::recip_sqrt`: the seed on the low half of the
    /// f32 unit (`vcvtpd2ps`, `vsqrtps xmm`, `vdivps xmm`, `vcvtps2pd`), then
    /// five `ymm` operations.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn recip_sqrt(a: __m256d) -> __m256d {
        let seed = _mm_div_ps(_mm_set1_ps(1.0), _mm_sqrt_ps(_mm256_cvtpd_ps(a)));
        let y0 = _mm256_cvtps_pd(seed);
        let r = _mm256_fnmadd_pd(_mm256_mul_pd(a, y0), y0, _mm256_set1_pd(1.0));
        let c = _mm256_fmadd_pd(r, _mm256_set1_pd(0.375), _mm256_set1_pd(0.5));
        _mm256_fmadd_pd(_mm256_mul_pd(y0, r), c, y0)
    }
}

/// The 8-lane backend: one `zmm` instruction per operation.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use core::arch::x86_64::*;
    pub use core::arch::x86_64::{
        _mm512_add_pd as add, _mm512_div_pd as div, _mm512_fmadd_pd as mul_add,
        _mm512_loadu_pd as load, _mm512_mul_pd as mul, _mm512_sqrt_pd as sqrt,
        _mm512_storeu_pd as store, _mm512_sub_pd as sub,
    };

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn neg(a: __m512d) -> __m512d {
        // AVX-512F has no f64 xor; the integer one flips the same bit.
        _mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(a),
            _mm512_castpd_si512(_mm512_set1_pd(-0.0)),
        ))
    }

    /// Eight lanes of `lanes::recip_sqrt`: the seed on a `ymm` of f32, then
    /// five `zmm` operations.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn recip_sqrt(a: __m512d) -> __m512d {
        let seed = _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_sqrt_ps(_mm512_cvtpd_ps(a)));
        let y0 = _mm512_cvtps_pd(seed);
        let r = _mm512_fnmadd_pd(_mm512_mul_pd(a, y0), y0, _mm512_set1_pd(1.0));
        let c = _mm512_fmadd_pd(r, _mm512_set1_pd(0.375), _mm512_set1_pd(0.5));
        _mm512_fmadd_pd(_mm512_mul_pd(y0, r), c, y0)
    }
}

/// `backend_op!(op(a, b, ..))`: the `[f64; W]` result of lane-wise `op` on
/// the arrays `a, b, ..` — through the ISA backend compiled in for this `W`
/// (unaligned load, one instruction, unaligned store; the round trip through
/// the array folds away once inlined), through [`lanes`] otherwise. `W` is a
/// const, so the test costs nothing.
macro_rules! backend_op {
    ($op:ident($($arg:expr),+)) => {{
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
        if W == 4 {
            let mut out = [0.0; W];
            // SAFETY: the cfg makes AVX2 and FMA part of this build's
            // baseline, so every CPU the binary may run on has the
            // instructions; and `W == 4`, so each array is exactly the four
            // f64 the unaligned load reads and the unaligned store writes.
            unsafe { avx2::store(out.as_mut_ptr(), avx2::$op($(avx2::load($arg.as_ptr())),+)) };
            return Simd(out);
        }
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        if W == 8 {
            let mut out = [0.0; W];
            // SAFETY: as above with AVX-512F and `W == 8`: eight f64 per
            // array, no alignment requirement.
            unsafe { avx512::store(out.as_mut_ptr(), avx512::$op($(avx512::load($arg.as_ptr())),+)) };
            return Simd(out);
        }
        Simd(lanes::$op($($arg),+))
    }};
}

/// Pack of `W` f64 lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simd<const W: usize>(pub [f64; W]);

/// Per-lane boolean mask — the result of a [`Simd`] comparison and the
/// selector of [`Mask::select`]. This is how branchy scalar code (limiters,
/// entropy fixes, floor clamps) becomes divergence-free vector code: both
/// sides are computed, the mask picks per lane, exactly like
/// `Kokkos::Experimental::simd_mask` / SVE predication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask<const W: usize>(pub [bool; W]);

impl<const W: usize> Mask<W> {
    /// Per-lane choice: `t` where the lane is true, `f` otherwise.
    #[inline]
    pub fn select(self, t: Simd<W>, f: Simd<W>) -> Simd<W> {
        let mut out = f.0;
        for (i, (o, tv)) in out.iter_mut().zip(t.0.iter()).enumerate() {
            if self.0[i] {
                *o = *tv;
            }
        }
        Simd(out)
    }
}

impl<const W: usize> Simd<W> {
    /// All lanes equal to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Simd([v; W])
    }

    /// All-zero pack.
    #[inline]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Load `W` consecutive lanes from `slice[offset..]`.
    #[inline]
    pub fn from_slice(slice: &[f64], offset: usize) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&slice[offset..offset + W]);
        Simd(out)
    }

    /// Store lanes to `slice[offset..]`.
    #[inline]
    pub fn write_to(self, slice: &mut [f64], offset: usize) {
        slice[offset..offset + W].copy_from_slice(&self.0);
    }

    /// Lane `i`.
    #[inline]
    pub fn extract(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Multiply-add: `self * b + c` per lane. Fused (single-rounding) only
    /// when the target actually has FMA hardware.
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        backend_op!(mul_add(self.0, b.0, c.0))
    }

    /// Horizontal sum of all lanes.
    #[inline]
    pub fn reduce_sum(self) -> f64 {
        self.0.iter().sum()
    }

    /// Horizontal max of all lanes.
    #[inline]
    pub fn reduce_max(self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Lane-wise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0.iter()) {
            *o = o.max(*b);
        }
        Simd(out)
    }

    /// Lane-wise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0.iter()) {
            *o = o.min(*b);
        }
        Simd(out)
    }

    /// Lane-wise absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = o.abs();
        }
        Simd(out)
    }

    /// Lane-wise `self < other`.
    #[inline]
    pub fn lt(self, other: Self) -> Mask<W> {
        let mut out = [false; W];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a < b;
        }
        Mask(out)
    }

    /// Lane-wise `self <= other`.
    #[inline]
    pub fn le(self, other: Self) -> Mask<W> {
        let mut out = [false; W];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a <= b;
        }
        Mask(out)
    }

    /// Lane-wise `self >= other`.
    #[inline]
    pub fn ge(self, other: Self) -> Mask<W> {
        let mut out = [false; W];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a >= b;
        }
        Mask(out)
    }

    /// Lane-wise square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        backend_op!(sqrt(self.0))
    }

    /// Lane-wise reciprocal square root, kept off the f64 divider: the seed
    /// `y0 = f64::from(1.0f32 / (x as f32).sqrt())` — two correctly rounded
    /// single-precision operations — and one cubic (Halley) correction in
    /// f64, `r = fma(-(x·y0), y0, 1)`, `y = fma(y0·r, fma(r, 3/8, 1/2), y0)`.
    /// Every step is an IEEE-defined operation, so the lane loop and both
    /// backends give the same bits at every width. Within 2 ulp of
    /// `1.0 / x.sqrt()` and no further from the true value than that doubly
    /// rounded composition (maximum relative error 0.62 ε against 0.75 ε;
    /// 0.86 ε on builds whose `mul_add` is not fused — EXPERIMENTS.md,
    /// "Gravity kernel codegen").
    ///
    /// **Domain:** the normal `f32` range, `f32::MIN_POSITIVE ..= f32::MAX`
    /// (the seed is computed in single precision); NaN propagates. Outside
    /// it the result is unspecified — zero and infinity give NaN, not ±∞/0 —
    /// and the lane loop `debug_assert!`s. A caller that needs the whole
    /// `f64` range writes `Simd::splat(1.0) / x.sqrt()`.
    #[inline(always)]
    pub fn recip_sqrt(self) -> Self {
        backend_op!(recip_sqrt(self.0))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident) => {
        impl<const W: usize> std::ops::$trait for Simd<W> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                backend_op!($method(self.0, rhs.0))
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);
impl_binop!(Div, div);

impl<const W: usize> std::ops::Neg for Simd<W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        backend_op!(neg(self.0))
    }
}

/// The tail-masked pack sweep: walk `len` elements in `W`-lane packs, calling
/// `pack(offset, is_tail)` for each. Full packs (`is_tail == false`) take
/// branch-free unpadded loads; the at-most-one ragged remainder
/// (`is_tail == true`) is the caller's to pad. The hydro row kernels drive their k-rows
/// through this skeleton (the gravity kernels put whole target packs across
/// the lanes and have no tail).
#[inline]
pub fn sweep_packs<const W: usize>(len: usize, mut pack: impl FnMut(usize, bool)) {
    let full = len / W * W;
    let mut off = 0;
    while off < full {
        pack(off, false);
        off += W;
    }
    if off < len {
        pack(off, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_lanewise() {
        let a = Simd::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = Simd::<4>::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a / b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn fma_and_reductions() {
        let a = Simd::<2>([2.0, 3.0]);
        let r = a.mul_add(Simd::splat(10.0), Simd::splat(1.0));
        assert_eq!(r.0, [21.0, 31.0]);
        assert_eq!(r.reduce_sum(), 52.0);
        assert_eq!(r.reduce_max(), 31.0);
        assert_eq!(a.max(Simd([5.0, 1.0])).0, [5.0, 3.0]);
    }

    /// SplitMix64 step.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The domain of `recip_sqrt`.
    const RSQRT_DOMAIN: (f64, f64) = (f32::MIN_POSITIVE as f64, f32::MAX as f64);

    /// Log-uniform sample of [`RSQRT_DOMAIN`] from 53 random bits.
    fn rsqrt_domain_sample(bits: u64) -> f64 {
        let (lo, hi) = RSQRT_DOMAIN;
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        (lo.ln() + u * (hi.ln() - lo.ln())).exp().clamp(lo, hi)
    }

    /// Every operation with an ISA backend against its lane loop, bit for
    /// bit. Only a build that enables the backend (`-C target-cpu=native` on
    /// an AVX2 / AVX-512 host: the CI's native step, the benchmark, the
    /// full bench runs) compares two different code paths here; elsewhere
    /// both sides are the lane loop.
    fn backend_ops_equal_lane_loops<const W: usize>() {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            -2.5e-310,
            f64::MAX,
            f64::EPSILON,
        ];
        // Every lane is a special value, any finite/infinite bit pattern, or
        // an O(1) number (where sums and products stay finite).
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ W as u64;
        let mut next = move || splitmix64(&mut state);
        let mut lane = move || {
            let r = next();
            match r % 4 {
                0 => SPECIAL[(r >> 8) as usize % SPECIAL.len()],
                // One NaN payload only: which operand's payload an
                // instruction propagates is not part of the contract.
                1 => Some(f64::from_bits(next()))
                    .filter(|x| !x.is_nan())
                    .unwrap_or(f64::NAN),
                _ => (next() >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0,
            }
        };
        let check = |op: &str, got: Simd<W>, want: [f64; W], inputs: &[Simd<W>]| {
            assert_eq!(
                got.0.map(f64::to_bits),
                want.map(f64::to_bits),
                "W={W} {op}: backend {got:?} vs lanes {want:?} on {inputs:?}"
            );
        };
        // `recip_sqrt` lanes stay inside its domain, NaN included.
        let mut domain_state = 0x5851_f42d_4c95_7f2du64 ^ W as u64;
        let mut domain_lane = move || match splitmix64(&mut domain_state) {
            r if r % 16 == 0 => f64::NAN,
            r => rsqrt_domain_sample(r),
        };
        for _ in 0..20_000 {
            let a = Simd::<W>(std::array::from_fn(|_| lane()));
            let b = Simd::<W>(std::array::from_fn(|_| lane()));
            let c = Simd::<W>(std::array::from_fn(|_| lane()));
            let d = Simd::<W>(std::array::from_fn(|_| domain_lane()));
            check("add", a + b, lanes::add(a.0, b.0), &[a, b]);
            check("sub", a - b, lanes::sub(a.0, b.0), &[a, b]);
            check("mul", a * b, lanes::mul(a.0, b.0), &[a, b]);
            check("div", a / b, lanes::div(a.0, b.0), &[a, b]);
            check("neg", -a, lanes::neg(a.0), &[a]);
            check("sqrt", a.sqrt(), lanes::sqrt(a.0), &[a]);
            check("recip_sqrt", d.recip_sqrt(), lanes::recip_sqrt(d.0), &[d]);
            check(
                "mul_add",
                a.mul_add(b, c),
                lanes::mul_add(a.0, b.0, c.0),
                &[a, b, c],
            );
        }
    }

    #[test]
    fn backend_ops_are_bitwise_the_lane_loops() {
        backend_ops_equal_lane_loops::<4>();
        backend_ops_equal_lane_loops::<8>();
        // A width without a backend goes through the same entry points.
        backend_ops_equal_lane_loops::<2>();
    }

    #[test]
    fn sqrt_lanewise() {
        let a = Simd::<2>([4.0, 9.0]).sqrt();
        assert_eq!(a.0, [2.0, 3.0]);
    }

    #[test]
    fn slice_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let p = Simd::<3>::from_slice(&src, 1);
        assert_eq!(p.0, [2.0, 3.0, 4.0]);
        let mut dst = [0.0; 5];
        p.write_to(&mut dst, 2);
        assert_eq!(dst, [0.0, 0.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.extract(2), 4.0);
    }

    /// `y` as an approximation of `1/√x`: relative error in units of
    /// `f64::EPSILON`, from the residual `1 − x·y²` carried as a
    /// double-double (half the residual, to first order).
    fn rsqrt_rel_error_eps(x: f64, y: f64) -> f64 {
        let p = x * y;
        let p_err = x.mul_add(y, -p);
        let q = p * y;
        let q_err = p.mul_add(y, -q);
        let residual = (1.0 - q) - q_err - p_err * y;
        (0.5 * residual).abs() / f64::EPSILON
    }

    #[test]
    fn recip_sqrt_is_within_two_ulp_of_sqrt_then_div() {
        // Builds whose `mul_add` is mul + add round the residual `r` twice
        // more (absolute error ≤ 2 u, halved in `y`): one more ulp and a
        // quarter ε of slack. Measured maxima: 2 ulp both; 0.62 ε fused,
        // 0.86 ε unfused (0.75 ε for `1.0 / x.sqrt()` itself).
        let (max_ulp, max_eps) = if cfg!(target_feature = "fma") {
            (2, 1.0)
        } else {
            (3, 1.25)
        };
        let check = |xs: [f64; 4]| {
            let ys = Simd::<4>(xs).recip_sqrt().0;
            for (x, y) in xs.into_iter().zip(ys) {
                let composed = 1.0 / x.sqrt();
                let ulps = y.to_bits().abs_diff(composed.to_bits());
                assert!(ulps <= max_ulp, "recip_sqrt({x:e}) = {y:e}: {ulps} ulp");
                let eps = rsqrt_rel_error_eps(x, y);
                assert!(eps <= max_eps, "recip_sqrt({x:e}) = {y:e}: {eps} ε");
            }
            ys
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..(1 << 18) {
            check(std::array::from_fn(|_| {
                rsqrt_domain_sample(splitmix64(&mut state))
            }));
        }
        let (lo, hi) = RSQRT_DOMAIN;
        check([lo, hi, lo * (1.0 + f64::EPSILON), hi * (1.0 - f64::EPSILON)]);
        // Powers of two; at the even ones (powers of four) the seed is
        // already exact and the correction adds nothing.
        for e in -126..=127 {
            let y = check([2f64.powi(e); 4])[0];
            if e % 2 == 0 {
                assert_eq!(y, 2f64.powi(-e / 2), "1/sqrt(2^{e})");
            }
        }
    }

    #[test]
    fn min_abs_lanewise() {
        let a = Simd::<4>([-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(a.abs().0, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.min(Simd::splat(1.5)).0, [-1.0, 1.5, -3.0, 1.5]);
    }

    #[test]
    fn masks_compare_and_select_lanewise() {
        let a = Simd::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = Simd::<4>::splat(2.5);
        assert_eq!(a.lt(b).0, [true, true, false, false]);
        assert_eq!(a.ge(b).0, [false, false, true, true]);
        assert_eq!(a.le(Simd::splat(2.0)).0, [true, true, false, false]);
        let sel = a.lt(b).select(Simd::splat(-1.0), a);
        assert_eq!(sel.0, [-1.0, -1.0, 3.0, 4.0]);
        // Select reproduces the branchy scalar minmod limiter bit-for-bit.
        let x = Simd::<4>([1.0, -3.0, 1.0, 0.0]);
        let y = Simd::<4>([2.0, -2.0, -1.0, 5.0]);
        let zero = Simd::zero();
        let slope = x.abs().lt(y.abs()).select(x, y);
        let mm = (x * y).le(zero).select(zero, slope);
        assert_eq!(mm.0, [1.0, -2.0, 0.0, 0.0]);
    }

    #[test]
    fn sweep_packs_covers_every_element_exactly_once() {
        for len in [0usize, 1, 3, 4, 7, 8, 64, 65] {
            let mut seen = vec![0u32; len];
            let mut tails = 0;
            sweep_packs::<4>(len, |off, is_tail| {
                if is_tail {
                    tails += 1;
                    for s in &mut seen[off..] {
                        *s += 1;
                    }
                } else {
                    for s in &mut seen[off..off + 4] {
                        *s += 1;
                    }
                }
            });
            assert!(seen.iter().all(|&c| c == 1), "len {len}: {seen:?}");
            assert_eq!(tails, usize::from(len % 4 != 0), "len {len}");
        }
    }

    #[test]
    fn sweep_packs_tail_offset_is_last_full_pack_end() {
        let mut full_offsets = Vec::new();
        let mut tail_off = None;
        sweep_packs::<8>(13, |o, is_tail| {
            if is_tail {
                tail_off = Some(o);
            } else {
                full_offsets.push(o);
            }
        });
        assert_eq!(full_offsets, [0]);
        assert_eq!(tail_off, Some(8));
        // Exact multiple: no tail call at all.
        tail_off = None;
        sweep_packs::<8>(16, |o, is_tail| {
            if is_tail {
                tail_off = Some(o);
            }
        });
        assert_eq!(tail_off, None);
    }

    #[test]
    fn sweep_packs_padded_sum_matches_scalar() {
        // The canonical use: full packs load unpadded, the tail loads with a
        // zero fill — the sum must match a lane-ordered scalar reference
        // bitwise for every length.
        let data: Vec<f64> = (0..29).map(|i| (i as f64) * 0.5 - 3.0).collect();
        for take in 0..data.len() {
            let mut acc = Simd::<4>::zero();
            sweep_packs::<4>(take, |off, is_tail| {
                acc = acc
                    + if is_tail {
                        let mut lanes = [0.0; 4];
                        lanes[..take - off].copy_from_slice(&data[off..take]);
                        Simd(lanes)
                    } else {
                        Simd::from_slice(&data[..take], off)
                    };
            });
            assert_eq!(acc.reduce_sum().to_bits(), {
                // Scalar reference accumulates in the same pack-lane order.
                let mut lanes = [0.0f64; 4];
                for (i, &x) in data[..take].iter().enumerate() {
                    lanes[i % 4] += x;
                }
                lanes.iter().sum::<f64>().to_bits()
            });
        }
    }
}
