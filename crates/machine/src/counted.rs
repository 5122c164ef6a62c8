//! Flop-counting instrumented arithmetic.
//!
//! The paper measures the floating-point operation count of its Maclaurin
//! benchmark *once*, with `perf` on a single Intel core (100000028581 flops
//! for n = 10⁹, i.e. ≈100 flops per series term), and reuses that count on
//! every architecture because "the RISC-V boards do not yet provide hardware
//! counters". This module is our `perf` substitute: a [`CountedF64`] scalar
//! whose every elementary operation increments a [`FlopCounter`], including
//! the operations *inside* `exp`/`log`/`pow`, which we implement in software
//! (see [`softmath`]) exactly because that is how the RISC-V boards compute
//! them (§8: "Exponentiation in RISC-V is performed in software").
//!
//! Counting is scoped: install a counter for the current thread with
//! [`FlopCounter::install`] (tasks running on an `amt` worker install the
//! same shared counter), run the workload, read the totals.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Categories of counted operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FlopKind {
    /// Add or subtract.
    Add,
    /// Multiply.
    Mul,
    /// Divide.
    Div,
    /// Square root.
    Sqrt,
    /// Compare / abs / min / max / negate.
    Cmp,
}

/// Thread-safe flop counter. All increments are `Relaxed`: totals are only
/// read after the workload has joined.
#[derive(Debug, Default)]
pub struct FlopCounter {
    adds: AtomicU64,
    muls: AtomicU64,
    divs: AtomicU64,
    sqrts: AtomicU64,
    cmps: AtomicU64,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FlopCounter>>> = const { RefCell::new(None) };
}

/// RAII guard returned by [`FlopCounter::install`]; restores the previously
/// installed counter (if any) on drop.
pub struct InstallGuard {
    prev: Option<Arc<FlopCounter>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

impl FlopCounter {
    /// New zeroed counter behind an `Arc` (the only form that can be
    /// installed on multiple threads).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Install `self` as the current thread's counter; uncounted before/after.
    pub fn install(self: &Arc<Self>) -> InstallGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        InstallGuard { prev }
    }

    /// Record one operation on the calling thread's installed counter
    /// (no-op when none is installed).
    #[inline]
    pub(crate) fn record(kind: FlopKind) {
        CURRENT.with(|c| {
            if let Some(ctr) = c.borrow().as_ref() {
                ctr.bump(kind);
            }
        });
    }

    #[inline]
    fn bump(&self, kind: FlopKind) {
        let cell = match kind {
            FlopKind::Add => &self.adds,
            FlopKind::Mul => &self.muls,
            FlopKind::Div => &self.divs,
            FlopKind::Sqrt => &self.sqrts,
            FlopKind::Cmp => &self.cmps,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Total flops: every elementary arithmetic operation counts 1
    /// (comparisons are reported separately, exactly like `perf`'s
    /// `fp_arith` events).
    pub fn flops(&self) -> u64 {
        self.adds.load(Ordering::Relaxed)
            + self.muls.load(Ordering::Relaxed)
            + self.divs.load(Ordering::Relaxed)
            + self.sqrts.load(Ordering::Relaxed)
    }

    /// Multiplies.
    pub fn muls(&self) -> u64 {
        self.muls.load(Ordering::Relaxed)
    }
    /// Comparisons / sign ops.
    pub fn cmps(&self) -> u64 {
        self.cmps.load(Ordering::Relaxed)
    }
    /// Reset all counts to zero.
    pub fn reset(&self) {
        for c in [&self.adds, &self.muls, &self.divs, &self.sqrts, &self.cmps] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Software implementations of `exp`, `log` and `pow` built from counted
/// elementary operations — the RISC-V code path (no hardware transcendental
/// support), modelled on fdlibm-style argument reduction + polynomial
/// evaluation with compensated (double-double) correction steps, which is
/// why a single `pow` costs ≈90–100 elementary flops, matching the paper's
/// measured ≈100 flops per Maclaurin term.
pub mod softmath {
    use super::{FlopCounter, FlopKind};

    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        FlopCounter::record(FlopKind::Add);
        a + b
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        FlopCounter::record(FlopKind::Mul);
        a * b
    }
    #[inline]
    fn div(a: f64, b: f64) -> f64 {
        FlopCounter::record(FlopKind::Div);
        a / b
    }

    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

    /// Two-sum: s = a+b exactly represented as (s, err). 6 flops.
    #[inline]
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = add(a, b);
        let bb = add(s, -a);
        let err = add(add(a, -add(s, -bb)), add(b, -bb));
        (s, err)
    }

    /// Counted natural logarithm via reduction x = 2^k · m, m ∈ [√½, √2),
    /// and the atanh series ln(m) = 2·(t + t³/3 + t⁵/5 + …), t = (m−1)/(m+1),
    /// evaluated to degree 13 with a compensated accumulation pass.
    pub fn soft_ln(x: f64) -> f64 {
        if x <= 0.0 {
            FlopCounter::record(FlopKind::Cmp);
            return if x == 0.0 {
                f64::NEG_INFINITY
            } else {
                f64::NAN
            };
        }
        // Exponent/mantissa split is integer work (free), mirroring frexp.
        let bits = x.to_bits();
        let mut k = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
        FlopCounter::record(FlopKind::Cmp);
        if m > std::f64::consts::SQRT_2 {
            m *= 0.5; // exponent adjustment, counted as one mul
            FlopCounter::record(FlopKind::Mul);
            k += 1;
        }
        let num = add(m, -1.0);
        let den = add(m, 1.0);
        let t = div(num, den);
        let t2 = mul(t, t);
        // Horner over odd coefficients 1/3..1/13 (6 mul + 6 add).
        let mut p = 1.0 / 13.0;
        for c in [1.0 / 11.0, 1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0] {
            p = add(mul(p, t2), c);
        }
        let series = mul(mul(p, t2), t);
        // ln(m) = 2t + 2·series with a compensated sum of the k·ln2 part.
        let lnm = add(mul(2.0, t), mul(2.0, series));
        let kf = k as f64;
        let (hi, e1) = two_sum(mul(kf, LN2_HI), lnm);
        let lo = add(mul(kf, LN2_LO), e1);
        add(hi, lo)
    }

    /// Counted exponential via k = round(y/ln2), r = y − k·ln2 (compensated),
    /// e^r by a degree-11 Taylor/Horner polynomial, then scale by 2^k.
    ///
    /// Like glibc's `exp`, the over/underflow ranges still execute the full
    /// reduction + polynomial before the result saturates — there is no
    /// cheap early exit (this is what makes the paper's measured cost an
    /// almost exact 100 flops *per term* even for deeply underflowing
    /// terms).
    pub fn soft_exp(y: f64) -> f64 {
        FlopCounter::record(FlopKind::Cmp);
        FlopCounter::record(FlopKind::Cmp);
        let saturated = if y > 709.0 {
            Some(f64::INFINITY)
        } else if y < -745.0 {
            Some(0.0)
        } else {
            None
        };
        let y = y.clamp(-745.0, 709.0);
        let kf = mul(y, std::f64::consts::LOG2_E).round();
        FlopCounter::record(FlopKind::Cmp); // round
                                            // r = y - k*ln2 in two pieces (compensated reduction).
        let r_hi = add(y, -mul(kf, LN2_HI));
        let r = add(r_hi, -mul(kf, LN2_LO));
        // Degree-11 Horner for e^r: plain steps for the small high-order
        // coefficients, compensated (two_sum) accumulation for the last
        // five where cancellation matters — the double-double bookkeeping
        // that makes a real libm exp cost tens of flops rather than a
        // handful.
        let mut p = 1.0 / 39_916_800.0; // 1/11!
        for inv in [
            1.0 / 3_628_800.0,
            1.0 / 362_880.0,
            1.0 / 40_320.0,
            1.0 / 5_040.0,
            1.0 / 720.0,
            1.0 / 120.0,
        ] {
            p = add(mul(p, r), inv);
        }
        let mut comp = 0.0;
        for inv in [1.0 / 24.0, 1.0 / 6.0, 1.0 / 2.0, 1.0, 1.0] {
            let prod = mul(add(p, comp), r);
            let (s, e) = two_sum(prod, inv);
            p = s;
            comp = e;
        }
        let p = add(p, comp);
        // Scale by 2^k (ldexp; one counted mul for the scaling multiply —
        // powi handles the subnormal range a raw exponent-bit splice
        // cannot).
        let scale = 2.0f64.powi(kf as i32);
        let result = mul(p, scale);
        saturated.unwrap_or(result)
    }

    /// Counted `pow(x, y) = exp(y · ln x)` with an extra compensated
    /// product step for the exponent (the fdlibm-style accuracy fixup).
    pub fn soft_pow(x: f64, y: f64) -> f64 {
        FlopCounter::record(FlopKind::Cmp);
        if x == 1.0 || y == 0.0 {
            FlopCounter::record(FlopKind::Cmp);
            return 1.0;
        }
        FlopCounter::record(FlopKind::Cmp);
        if x <= 0.0 {
            // Integer exponents of negative bases: route through repeated
            // squaring on |x| and fix the sign.
            let yi = y as i64;
            if (yi as f64) == y {
                let mag = soft_pow(-x, y);
                return if yi % 2 == 0 { mag } else { -mag };
            }
            return f64::NAN;
        }
        let l = soft_ln(x);
        // Compensated product y·l: Dekker split (counted as its real flops).
        let p = mul(y, l);
        let split = 134_217_729.0; // 2^27 + 1
        let cy = mul(y, split);
        let hy = add(cy, -add(cy, -y));
        let ty = add(y, -hy);
        let cl = mul(l, split);
        let hl = add(cl, -add(cl, -l));
        let tl = add(l, -hl);
        let e = add(
            add(add(mul(hy, hl), -p), add(mul(hy, tl), mul(ty, hl))),
            mul(ty, tl),
        );
        let base = soft_exp(p);
        // First-order correction: exp(p+e) ≈ exp(p)·(1+e).
        mul(base, add(1.0, e))
    }
}

/// An `f64` whose arithmetic is counted through the thread's installed
/// [`FlopCounter`]. Transcendentals use [`softmath`], so their internal
/// elementary operations are counted too.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CountedF64(pub f64);

impl CountedF64 {
    /// Wrap a value.
    #[inline]
    pub fn new(v: f64) -> Self {
        CountedF64(v)
    }
    /// Unwrap.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
    /// Counted `pow` with an arbitrary (possibly fractional) exponent —
    /// this is what `std::pow(x, n)` does in the paper's benchmark even for
    /// integer `n`.
    pub fn powf(self, y: f64) -> Self {
        CountedF64(softmath::soft_pow(self.0, y))
    }
    /// Counted square root.
    pub fn sqrt(self) -> Self {
        FlopCounter::record(FlopKind::Sqrt);
        CountedF64(self.0.sqrt())
    }
}

impl std::ops::Add for CountedF64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        FlopCounter::record(FlopKind::Add);
        CountedF64(self.0 + rhs.0)
    }
}
impl std::ops::Sub for CountedF64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        FlopCounter::record(FlopKind::Add);
        CountedF64(self.0 - rhs.0)
    }
}
impl std::ops::Mul for CountedF64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        FlopCounter::record(FlopKind::Mul);
        CountedF64(self.0 * rhs.0)
    }
}
impl std::ops::Div for CountedF64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        FlopCounter::record(FlopKind::Div);
        CountedF64(self.0 / rhs.0)
    }
}
impl std::ops::Neg for CountedF64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        FlopCounter::record(FlopKind::Cmp);
        CountedF64(-self.0)
    }
}
impl std::ops::AddAssign for CountedF64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl From<f64> for CountedF64 {
    fn from(v: f64) -> Self {
        CountedF64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops_are_counted() {
        let ctr = FlopCounter::new();
        let _g = ctr.install();
        let a = CountedF64::new(2.0);
        let b = CountedF64::new(3.0);
        let _ = a + b;
        let _ = a - b;
        assert_eq!(ctr.flops(), 2);
        let _ = a * b;
        assert_eq!(ctr.muls(), 1);
        let _ = a / b;
        assert_eq!(ctr.flops(), 4);
        assert_eq!(ctr.muls(), 1);
    }

    #[test]
    fn nothing_counted_without_install() {
        let ctr = FlopCounter::new();
        let a = CountedF64::new(2.0);
        let _ = a * a;
        assert_eq!(ctr.flops(), 0);
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let outer = FlopCounter::new();
        let inner = FlopCounter::new();
        let _g1 = outer.install();
        let _ = CountedF64::new(1.0) + CountedF64::new(2.0);
        {
            let _g2 = inner.install();
            let _ = CountedF64::new(1.0) * CountedF64::new(2.0);
        }
        let _ = CountedF64::new(1.0) + CountedF64::new(2.0);
        assert_eq!(outer.flops(), 2);
        assert_eq!(outer.muls(), 0);
        assert_eq!(inner.muls(), 1);
    }

    #[test]
    fn soft_ln_accuracy() {
        for &x in &[0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 10.0, 1234.5, 1e-8, 1e8] {
            let got = softmath::soft_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "ln({x}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn soft_exp_accuracy() {
        for &y in &[-20.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5, 10.0, 50.0] {
            let got = softmath::soft_exp(y);
            let want = y.exp();
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "exp({y}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn soft_exp_extremes() {
        assert_eq!(softmath::soft_exp(1000.0), f64::INFINITY);
        assert_eq!(softmath::soft_exp(-1000.0), 0.0);
    }

    #[test]
    fn soft_pow_accuracy() {
        for &(x, y) in &[
            (0.5, 3.0),
            (0.9, 100.0),
            (2.0, 10.0),
            (1.0001, 12345.0),
            (0.999, 7.0),
            (3.0, 0.5),
        ] {
            let got = softmath::soft_pow(x, y);
            let want = x.powf(y);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "pow({x},{y}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn soft_pow_negative_base_integer_exponent() {
        assert!((softmath::soft_pow(-2.0, 3.0) + 8.0).abs() < 1e-12);
        assert!((softmath::soft_pow(-2.0, 2.0) - 4.0).abs() < 1e-12);
        assert!(softmath::soft_pow(-2.0, 0.5).is_nan());
    }

    #[test]
    fn pow_costs_about_one_hundred_flops() {
        // The paper's measured Maclaurin cost is ≈100 flops/term, dominated
        // by one pow; our software pow must land in that neighbourhood.
        let ctr = FlopCounter::new();
        let _g = ctr.install();
        let _ = CountedF64::new(0.731).powf(17.0);
        let flops = ctr.flops();
        assert!(
            (60..=140).contains(&(flops as usize)),
            "soft_pow cost {flops} flops, expected ≈100"
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let ctr = FlopCounter::new();
        let _g = ctr.install();
        let _ = CountedF64::new(2.0).powf(3.0);
        assert!(ctr.flops() > 0);
        ctr.reset();
        assert_eq!(ctr.flops(), 0);
        assert_eq!(ctr.cmps(), 0);
    }

    #[test]
    fn counting_is_thread_safe() {
        let ctr = FlopCounter::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&ctr);
            handles.push(std::thread::spawn(move || {
                let _g = c.install();
                let mut acc = CountedF64::new(0.0);
                for i in 0..1000 {
                    acc += CountedF64::new(i as f64);
                }
                acc.get()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctr.flops(), 4000);
    }
}
