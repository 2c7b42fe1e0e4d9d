//! Exact rational numbers: the workhorse numeric type of the workspace.
//!
//! Invariants: denominator > 0, gcd(|num|, den) = 1, and 0 is `0/1`.
//!
//! # Representation
//!
//! The LP solver and the schedule validators perform millions of rational
//! operations whose operands almost always fit machine words, so
//! [`Rational`] keeps two representations:
//!
//! * **Small** — numerator and denominator as `i128`, no heap allocation.
//!   Every operation uses checked arithmetic; on overflow the operation
//!   transparently escapes to the big path. Two integers add and
//!   multiply with checked `i128` operations and no gcd (subtraction
//!   adds the negation, division multiplies by the reciprocal; `+=` and
//!   `-=` of two integers update the numerator in place), a gcd of 1 is
//!   never divided out, and two values over one denominator compare by
//!   numerator.
//! * **Big** — numerator and denominator as heap-allocated [`BigInt`]s
//!   (the exact fallback; arbitrarily large values).
//!
//! The representation is *canonical*: a value is stored Small if and only
//! if both components fit in `i128`. Every constructor and operation
//! re-establishes this (big results are demoted when they shrink), which
//! is what makes the derived `Eq`/`Hash` correct across representations.
//! The integer shortcuts keep it: a sum or product of integers is an
//! integer `n/1`, already in lowest terms, and stored Small exactly when
//! the checked operation did not overflow — the only case in which `n`
//! fits — while an overflow takes the big path and its demotion rule.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::bigint::BigInt;
use crate::gcd_u128;

/// Exact rational number `num / den` in lowest terms with `den > 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// Internal representation; see the module docs for the canonicity rule.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `den > 0`, `gcd(|num|, den) = 1`; present iff both fit in `i128`.
    Small { num: i128, den: i128 },
    /// Same invariants over arbitrary-precision integers.
    Big { num: BigInt, den: BigInt },
}

/// `v` rounded to the nearest `f64`, through the hardware `i64`
/// conversion when it fits.
#[inline]
fn small_to_f64(v: i128) -> f64 {
    match i64::try_from(v) {
        Ok(v) => v as f64,
        Err(_) => v as f64,
    }
}

/// Divide out the gcd of an already sign-normalized pair (`den > 0`).
#[inline]
fn reduce_small(num: i128, den: i128) -> Repr {
    if num == 0 {
        return Repr::Small { num: 0, den: 1 };
    }
    let g = gcd_u128(num.unsigned_abs(), den.unsigned_abs());
    if g == 1 {
        Repr::Small { num, den }
    } else {
        Repr::Small { num: num / g as i128, den: den / g as i128 }
    }
}

/// Normalize a raw small pair (any signs, `den != 0`); `None` when a sign
/// flip would overflow (only at `i128::MIN`).
#[inline]
fn normalize_small(mut num: i128, mut den: i128) -> Option<Repr> {
    debug_assert!(den != 0);
    if den < 0 {
        num = num.checked_neg()?;
        den = den.checked_neg()?;
    }
    Some(reduce_small(num, den))
}

impl Rational {
    #[inline]
    fn small(num: i128, den: i128) -> Self {
        Rational { repr: Repr::Small { num, den } }
    }

    /// Build the canonical form from a normalized big pair (`den > 0`,
    /// lowest terms), demoting to the small representation when it fits.
    fn from_normalized_big(num: BigInt, den: BigInt) -> Self {
        match (num.to_i128(), den.to_i128()) {
            (Some(n), Some(d)) => Rational::small(n, d),
            _ => Rational { repr: Repr::Big { num, den } },
        }
    }

    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        Rational::small(0, 1)
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        Rational::small(1, 1)
    }

    /// Construct `num / den`, normalizing; panics if `den == 0`.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            if let Some(r) = normalize_small(n, d) {
                return Rational { repr: r };
            }
        }
        Self::new_big(num, den)
    }

    /// The big normalization path of [`new`](Self::new).
    fn new_big(num: BigInt, den: BigInt) -> Self {
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        if num.is_zero() {
            return Self::zero();
        }
        let g = num.gcd(&den);
        if !g.is_zero() && g != BigInt::one() {
            num = num.div_rem(&g).0;
            den = den.div_rem(&g).0;
        }
        Self::from_normalized_big(num, den)
    }

    /// Construct from an integer.
    #[inline]
    pub fn from_int(v: i64) -> Self {
        Rational::small(v as i128, 1)
    }

    /// Construct from an `i128` integer.
    #[inline]
    pub fn from_i128(v: i128) -> Self {
        Rational::small(v, 1)
    }

    /// Construct from a [`BigInt`].
    pub fn from_bigint(v: BigInt) -> Self {
        match v.to_i128() {
            Some(n) => Rational::small(n, 1),
            None => Rational { repr: Repr::Big { num: v, den: BigInt::one() } },
        }
    }

    /// Construct `p / q` from machine integers; panics if `q == 0`.
    pub fn ratio(p: i64, q: i64) -> Self {
        assert!(q != 0, "Rational with zero denominator");
        Rational {
            repr: normalize_small(p as i128, q as i128).expect("i64 inputs never overflow i128"),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, .. } => BigInt::from_i128(*num),
            Repr::Big { num, .. } => num.clone(),
        }
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.repr {
            Repr::Small { den, .. } => BigInt::from_i128(*den),
            Repr::Big { den, .. } => den.clone(),
        }
    }

    /// Numerator and denominator as `i128`s when the value is in the
    /// small representation (canonically: whenever both fit).
    #[inline]
    pub fn to_i128_pair(&self) -> Option<(i128, i128)> {
        match &self.repr {
            Repr::Small { num, den } => Some((*num, *den)),
            Repr::Big { .. } => None,
        }
    }

    /// True iff 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num == 0,
            Repr::Big { num, .. } => num.is_zero(),
        }
    }

    /// True iff 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(&self.repr, Repr::Small { num: 1, den: 1 })
    }

    /// True iff > 0.
    #[inline]
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big { num, .. } => num.is_positive(),
        }
    }

    /// True iff < 0.
    #[inline]
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big { num, .. } => num.is_negative(),
        }
    }

    /// True iff the value is an integer.
    #[inline]
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small { den, .. } => *den == 1,
            Repr::Big { den, .. } => *den == BigInt::one(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse; panics if 0.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small { num, den } => {
                if let Some(r) = normalize_small(*den, *num) {
                    return Rational { repr: r };
                }
                Self::new_big(BigInt::from_i128(*den), BigInt::from_i128(*num))
            }
            Repr::Big { num, den } => Self::new_big(den.clone(), num.clone()),
        }
    }

    /// Floor: greatest integer ≤ self.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, den } => BigInt::from_i128(num.div_euclid(*den)),
            Repr::Big { num, den } => {
                let (q, r) = num.div_rem(den);
                if r.is_negative() {
                    q - BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Ceiling: least integer ≥ self.
    pub fn ceil(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, den } => {
                let q = num.div_euclid(*den);
                if num.rem_euclid(*den) != 0 {
                    BigInt::from_i128(q + 1)
                } else {
                    BigInt::from_i128(q)
                }
            }
            Repr::Big { num, den } => {
                let (q, r) = num.div_rem(den);
                if r.is_positive() {
                    q + BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Approximate `f64` value (reporting only; never drives decisions).
    ///
    /// `i128 → f64` is a software libcall on most targets; values that
    /// fit in `i64` (almost all of them in practice) take the hardware
    /// conversion instead, and integers skip the division, which by 1 is
    /// exact — this sits on the hybrid solver's hot assembly path.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small { num, den: 1 } => small_to_f64(*num),
            Repr::Small { num, den } => small_to_f64(*num) / small_to_f64(*den),
            Repr::Big { num, den } => big_ratio_to_f64(num, den),
        }
    }

    /// min of two rationals by value.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// max of two rationals by value.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Sum of an iterator of rationals (owned values or references).
    pub fn sum<I>(iter: I) -> Self
    where
        I: IntoIterator,
        I::Item: core::borrow::Borrow<Rational>,
    {
        use core::borrow::Borrow;
        let mut acc = Rational::zero();
        for r in iter {
            acc += r.borrow().clone();
        }
        acc
    }

    /// `self mod m` for positive modulus `m`: the representative in `[0, m)`.
    ///
    /// This is the wrap-around operation of Algorithms 1 and 3 in the paper
    /// (time instants live on the circle `[0, T)`).
    pub fn rem_euclid(&self, m: &Rational) -> Self {
        assert!(m.is_positive(), "rem_euclid needs a positive modulus");
        let q = (self.clone() / m.clone()).floor();
        self.clone() - m.clone() * Rational::from_bigint(q)
    }

    /// The value as a big pair `(num, den)` regardless of representation.
    fn to_big_parts(&self) -> (BigInt, BigInt) {
        (self.numer(), self.denom())
    }

    /// `a/b + c/d` over big integers (exact fallback path).
    fn add_big(&self, rhs: &Rational) -> Rational {
        let (an, ad) = self.to_big_parts();
        let (bn, bd) = rhs.to_big_parts();
        Rational::new_big(an.mul_ref(&bd).add_ref(&bn.mul_ref(&ad)), ad.mul_ref(&bd))
    }

    /// `a/b * c/d` over big integers (exact fallback path).
    fn mul_big(&self, rhs: &Rational) -> Rational {
        let (an, ad) = self.to_big_parts();
        let (bn, bd) = rhs.to_big_parts();
        Rational::new_big(an.mul_ref(&bn), ad.mul_ref(&bd))
    }
}

/// `a/b + c/d` entirely in `i128`; `None` on any overflow.
///
/// Two integers need one checked add and no gcd. Otherwise the
/// gcd-of-denominators trick (Knuth 4.5.1): with `g = gcd(b, d)` the
/// result `(a·d/g + c·b/g) / (b/g · d)` needs only one small gcd to reach
/// lowest terms, keeping intermediates far from overflow. A unit
/// denominator makes `g = 1` without computing it, and a gcd of 1 is
/// never divided out.
#[inline]
fn add_small(a: i128, b: i128, c: i128, d: i128) -> Option<Repr> {
    if b == 1 && d == 1 {
        return Some(Repr::Small { num: a.checked_add(c)?, den: 1 });
    }
    let g = if b == 1 || d == 1 { 1 } else { gcd_u128(b.unsigned_abs(), d.unsigned_abs()) as i128 };
    if g == 1 {
        let num = a.checked_mul(d)?.checked_add(c.checked_mul(b)?)?;
        let den = b.checked_mul(d)?;
        // gcd(b, d) = 1 ⇒ already in lowest terms (Knuth 4.5.1).
        return Some(if num == 0 {
            Repr::Small { num: 0, den: 1 }
        } else {
            Repr::Small { num, den }
        });
    }
    let (b1, d1) = (b / g, d / g);
    let t = a.checked_mul(d1)?.checked_add(c.checked_mul(b1)?)?;
    if t == 0 {
        return Some(Repr::Small { num: 0, den: 1 });
    }
    let g2 = gcd_u128(t.unsigned_abs(), g.unsigned_abs()) as i128;
    if g2 == 1 {
        return Some(Repr::Small { num: t, den: b1.checked_mul(d)? });
    }
    Some(Repr::Small { num: t / g2, den: b1.checked_mul(d / g2)? })
}

/// `a/b * c/d` entirely in `i128`; `None` on any overflow. Cross-reduces
/// before multiplying so the products stay small and no final gcd is
/// needed. A unit denominator has nothing to cross-reduce, so two
/// integers multiply with no gcd, and a gcd of 1 is never divided out.
#[inline]
fn mul_small(a: i128, b: i128, c: i128, d: i128) -> Option<Repr> {
    if a == 0 || c == 0 {
        return Some(Repr::Small { num: 0, den: 1 });
    }
    let g1 = if d == 1 { 1 } else { gcd_u128(a.unsigned_abs(), d.unsigned_abs()) as i128 };
    let g2 = if b == 1 { 1 } else { gcd_u128(c.unsigned_abs(), b.unsigned_abs()) as i128 };
    let (a, d) = if g1 == 1 { (a, d) } else { (a / g1, d / g1) };
    let (c, b) = if g2 == 1 { (c, b) } else { (c / g2, b / g2) };
    Some(Repr::Small { num: a.checked_mul(c)?, den: b.checked_mul(d)? })
}

impl Default for Rational {
    fn default() -> Self {
        Self::zero()
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if let Some(r) = add_small(*a, *b, *c, *d) {
                return Rational { repr: r };
            }
        }
        self.add_big(&rhs)
    }
}

impl<'a> Add<&'a Rational> for Rational {
    type Output = Rational;
    fn add(self, rhs: &'a Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if let Some(r) = add_small(*a, *b, *c, *d) {
                return Rational { repr: r };
            }
        }
        self.add_big(rhs)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        // Two integers update in place with one checked add.
        if let (Repr::Small { num: a, den: 1 }, Repr::Small { num: c, den: 1 }) =
            (&mut self.repr, &rhs.repr)
        {
            if let Some(sum) = a.checked_add(*c) {
                *a = sum;
                return;
            }
        }
        let lhs = core::mem::take(self);
        *self = lhs + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        // Two integers update in place with one checked subtract.
        if let (Repr::Small { num: a, den: 1 }, Repr::Small { num: c, den: 1 }) =
            (&mut self.repr, &rhs.repr)
        {
            if let Some(diff) = a.checked_sub(*c) {
                *a = diff;
                return;
            }
        }
        let lhs = core::mem::take(self);
        *self = lhs - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if let Some(r) = mul_small(*a, *b, *c, *d) {
                return Rational { repr: r };
            }
        }
        self.mul_big(&rhs)
    }
}

impl<'a> Mul<&'a Rational> for Rational {
    type Output = Rational;
    fn mul(self, rhs: &'a Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if let Some(r) = mul_small(*a, *b, *c, *d) {
                return Rational { repr: r };
            }
        }
        self.mul_big(rhs)
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        let lhs = core::mem::take(self);
        *self = lhs * rhs;
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "Rational division by zero");
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            // a/b ÷ c/d = (a·d)/(b·c); mul_small's cross-reduction already
            // yields lowest terms, so only the sign of c (now on the
            // denominator) needs normalizing — no second gcd.
            if let Some(Repr::Small { num, den }) = mul_small(*a, *b, *d, *c) {
                if den > 0 {
                    return Rational::small(num, den);
                }
                if let (Some(n), Some(d)) = (num.checked_neg(), den.checked_neg()) {
                    return Rational::small(n, d);
                }
            }
        }
        let (an, ad) = self.to_big_parts();
        let (bn, bd) = rhs.to_big_parts();
        Rational::new_big(an.mul_ref(&bd), ad.mul_ref(&bn))
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        let lhs = core::mem::take(self);
        *self = lhs / rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.repr {
            Repr::Small { num, den } => match num.checked_neg() {
                Some(n) => Rational::small(n, den),
                // Only −i128::MIN escapes; the magnitude then needs Big.
                None => Rational {
                    repr: Repr::Big { num: -BigInt::from_i128(num), den: BigInt::from_i128(den) },
                },
            },
            Repr::Big { num, den } => Rational::from_normalized_big(-num, den),
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d with b,d > 0  ⇔  a*d vs c*b
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            // Equal denominators (every pair of integers among them)
            // compare by numerator alone.
            if b == d {
                return a.cmp(c);
            }
            // Cheap sign screen first.
            match (a.signum(), c.signum()) {
                (x, y) if x < y => return Ordering::Less,
                (x, y) if x > y => return Ordering::Greater,
                (0, 0) => return Ordering::Equal,
                _ => {}
            }
            if let (Some(l), Some(r)) = (a.checked_mul(*d), c.checked_mul(*b)) {
                return l.cmp(&r);
            }
        }
        let (an, ad) = self.to_big_parts();
        let (bn, bd) = other.to_big_parts();
        an.mul_ref(&bd).cmp(&bn.mul_ref(&ad))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small { num, den } => {
                if *den == 1 {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
            Repr::Big { num, den } => {
                if self.is_integer() {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
        }
    }
}

/// `num/den` as the nearest `f64` for big operands. Converting each side
/// separately collapses as soon as either magnitude leaves f64 range
/// (`inf/inf = NaN`, `x/inf = 0`) even when the *ratio* is perfectly
/// representable. Instead, pre-scale by the operands' bit lengths so the
/// truncated integer quotient carries ~128 significant bits, convert that
/// mantissa, and restore the power-of-two scale in two exact factors
/// (split so a subnormal result survives the intermediate products).
fn big_ratio_to_f64(num: &BigInt, den: &BigInt) -> f64 {
    let n = num.magnitude();
    let d = den.magnitude(); // canonical: denominator > 0
    if n.is_zero() {
        return 0.0;
    }
    let k = d.bits() as i64 - n.bits() as i64 + 128;
    let q = if k >= 0 { n.shl(k as u64).div_rem(d).0 } else { n.div_rem(&d.shl(-k as u64)).0 };
    // Result exponent ≈ 128 - k; beyond ±2400 the clamped scale already
    // saturates to the correctly signed 0/inf.
    let e = (-k).clamp(-2400, 2400);
    let (h1, h2) = ((e / 2) as i32, (e - e / 2) as i32);
    let mag = q.to_f64() * 2f64.powi(h1) * 2f64.powi(h2);
    if num.is_negative() {
        -mag
    } else {
        mag
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl From<i64> for Rational {
    #[inline]
    fn from(v: i64) -> Self {
        Self::from_int(v)
    }
}

impl From<u64> for Rational {
    #[inline]
    fn from(v: u64) -> Self {
        Rational::small(v as i128, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rational::zero());
        assert!(r(1, -2).denom().is_positive());
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 3).recip(), r(3, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(r(7, 2) > r(3, 1));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from_i64(3));
        assert_eq!(r(7, 2).ceil(), BigInt::from_i64(4));
        assert_eq!(r(-7, 2).floor(), BigInt::from_i64(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from_i64(-3));
        assert_eq!(r(6, 2).floor(), BigInt::from_i64(3));
        assert_eq!(r(6, 2).ceil(), BigInt::from_i64(3));
    }

    #[test]
    fn rem_euclid_wraps_onto_circle() {
        let t = r(10, 1);
        assert_eq!(r(3, 1).rem_euclid(&t), r(3, 1));
        assert_eq!(r(13, 1).rem_euclid(&t), r(3, 1));
        assert_eq!(r(10, 1).rem_euclid(&t), Rational::zero());
        assert_eq!(r(-3, 1).rem_euclid(&t), r(7, 1));
        assert_eq!(r(25, 2).rem_euclid(&t), r(5, 2));
    }

    #[test]
    fn min_max_sum() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        assert_eq!(Rational::sum(xs.iter()), Rational::one());
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-3, 2).to_string(), "-3/2");
        assert_eq!(Rational::zero().to_string(), "0");
    }

    #[test]
    fn to_f64_close() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    /// `2^bits + 1` as a rational — odd, so it stays coprime to any power
    /// of two and the ratio cannot demote to the small representation.
    fn huge_odd(bits: u64) -> Rational {
        use crate::bigint::Sign;
        use crate::biguint::BigUint;
        let mag = BigUint::from_u64(1).shl(bits).add(&BigUint::one());
        Rational::from_bigint(BigInt::from_parts(Sign::Positive, mag))
    }

    fn pow2_q(bits: u64) -> Rational {
        use crate::bigint::Sign;
        use crate::biguint::BigUint;
        Rational::from_bigint(BigInt::from_parts(Sign::Positive, BigUint::from_u64(1).shl(bits)))
    }

    /// Regression: both operands far beyond f64 range used to convert as
    /// `inf/inf = NaN` (or `x/inf = 0`); the ratio itself is tame and
    /// must convert to the nearest finite f64.
    #[test]
    fn to_f64_huge_over_huge() {
        // (2^1500 + 1) / 2^1500 ≈ 1: nearest f64 is exactly 1.0.
        let near_one = huge_odd(1500) / pow2_q(1500);
        assert!(near_one.to_i128_pair().is_none(), "must exercise the big path");
        assert_eq!(near_one.to_f64(), 1.0);
        // (2^1500 + 1) / 2^1501 ≈ 1/2.
        let near_half = huge_odd(1500) / pow2_q(1501);
        assert_eq!(near_half.to_f64(), 0.5);
        // Sign handling on both sides.
        assert_eq!((-huge_odd(1500) / pow2_q(1500)).to_f64(), -1.0);
        assert_eq!((-huge_odd(1500) / pow2_q(1501)).to_f64(), -0.5);
    }

    /// Big ratios whose value is finite but large/small still convert to
    /// the correctly scaled f64 (including the subnormal range); only a
    /// value genuinely outside f64 range saturates to ±inf/0.
    #[test]
    fn to_f64_big_scales() {
        // (2^1100 + 1) / 2^300 ≈ 2^800 — large but finite.
        let big = huge_odd(1100) / pow2_q(300);
        assert_eq!(big.to_f64(), (2f64).powi(800));
        // 1 / 2^1074 is the smallest positive subnormal.
        let tiny = Rational::one() / pow2_q(1074);
        assert_eq!(tiny.to_f64(), f64::MIN_POSITIVE * f64::EPSILON); // 2^-1074
        assert!(tiny.to_f64() > 0.0);
        // Genuine overflow/underflow saturates instead of NaN.
        assert_eq!((huge_odd(3000) / pow2_q(100)).to_f64(), f64::INFINITY);
        assert_eq!((-huge_odd(3000) / pow2_q(100)).to_f64(), f64::NEG_INFINITY);
        assert_eq!((Rational::one() / huge_odd(3000)).to_f64(), 0.0);
        // And everything above is finite-or-saturating, never NaN.
        for v in [huge_odd(2000) / huge_odd(1999), huge_odd(1999) / huge_odd(2000)] {
            assert!(v.to_f64().is_finite(), "{:?}", v.to_f64());
        }
    }

    // ---- fast-path / escape behaviour -------------------------------

    /// A value near the i128 boundary: operations overflow the small path
    /// and must escape to BigInt, then demote when they shrink back.
    #[test]
    fn overflow_escape_and_demotion() {
        let huge = Rational::from_i128(i128::MAX / 2);
        let p = huge.clone() * huge.clone(); // ≈ 2^250: must be Big
        assert!(p.to_i128_pair().is_none(), "product escapes to Big");
        let back = p.clone() / huge.clone();
        assert_eq!(back, huge, "dividing back demotes to Small");
        assert!(back.to_i128_pair().is_some());
        // Ordering straddles representations.
        assert!(huge < p);
        assert!(p > Rational::one());
    }

    #[test]
    fn small_stays_small() {
        let a = r(1, 3);
        let mut acc = Rational::zero();
        for _ in 0..100 {
            acc += a.clone();
        }
        assert_eq!(acc, Rational::ratio(100, 3));
        assert!(acc.to_i128_pair().is_some());
    }

    #[test]
    fn neg_at_i128_min_roundtrips() {
        let v = Rational::from_i128(i128::MIN);
        assert!(v.to_i128_pair().is_some());
        let n = -v.clone(); // 2^127 does not fit i128: Big
        assert!(n.to_i128_pair().is_none());
        assert_eq!(-n, v, "negation is an involution across representations");
    }

    #[test]
    fn eq_and_hash_canonical_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Build 1/2 via a Big detour and via the small path.
        let big_half =
            Rational::new(BigInt::from_i128(i128::MAX / 2), BigInt::from_i128(i128::MAX - 1));
        let small_half = r(1, 2);
        assert_eq!(big_half, small_half);
        let h = |x: &Rational| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&big_half), h(&small_half));
    }

    #[test]
    fn big_integer_display_and_floor() {
        let p = Rational::from_i128(i128::MAX) * Rational::from_i128(4);
        assert!(p.is_integer());
        assert_eq!(p.floor(), p.ceil());
        assert_eq!((p.clone() / Rational::from_i128(4)).floor(), BigInt::from_i128(i128::MAX));
    }
}
