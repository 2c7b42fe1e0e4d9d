//! Property-based tests: the numeric crate must behave as the mathematical
//! structures it models (ℕ for BigUint, ℤ for BigInt, ℚ for Rational),
//! cross-checked against i128 arithmetic as the oracle.

use numeric::{gcd_u128, BigInt, BigUint, Rational};
use proptest::prelude::*;

fn big(v: u64) -> BigUint {
    BigUint::from_u64(v)
}

/// Pure-BigInt rational reference for the fast-path differential test:
/// deliberately naive (no cross-reduction tricks, no small representation)
/// so it shares no code with `Rational`'s i128 fast path.
#[derive(Clone, Debug)]
struct RefRat {
    num: BigInt,
    den: BigInt,
}

impl RefRat {
    fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero());
        let (mut num, mut den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return RefRat { num: BigInt::zero(), den: BigInt::one() };
        }
        let g = num.gcd(&den);
        if g != BigInt::one() {
            num = num.div_rem(&g).0;
            den = den.div_rem(&g).0;
        }
        RefRat { num, den }
    }

    fn add(&self, o: &RefRat) -> RefRat {
        RefRat::new(
            self.num.mul_ref(&o.den).add_ref(&o.num.mul_ref(&self.den)),
            self.den.mul_ref(&o.den),
        )
    }

    fn sub(&self, o: &RefRat) -> RefRat {
        RefRat::new(
            self.num.mul_ref(&o.den).sub_ref(&o.num.mul_ref(&self.den)),
            self.den.mul_ref(&o.den),
        )
    }

    fn mul(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul_ref(&o.num), self.den.mul_ref(&o.den))
    }

    fn div(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul_ref(&o.den), self.den.mul_ref(&o.num))
    }

    fn cmp(&self, o: &RefRat) -> std::cmp::Ordering {
        self.num.mul_ref(&o.den).cmp(&o.num.mul_ref(&self.den))
    }
}

/// `(v << shift)` as a BigInt — large shifts push operands out of i128.
fn shift_i64(v: i64, shift: u32) -> BigInt {
    let mut acc = BigInt::from_i64(v);
    let two = BigInt::from_i64(2);
    for _ in 0..shift {
        acc = acc.mul_ref(&two);
    }
    acc
}

/// Integers at the edge of `i128`, where `Rational`'s integer shortcuts
/// must escape to `Big` instead of wrapping.
const I128_EDGES: [i128; 5] = [1 << 126, -(1 << 126), i128::MAX, -i128::MAX, i128::MIN];

/// One operand as a big pair. Kinds 0–3 are integers (denominator 1):
/// small (0–1) or an edge value plus a small offset (2–3, which may
/// leave `i128`). Kind 4 is a small fraction, kind 5 an edge value over
/// a small denominator.
fn edge_operand(kind: u8, v: i64, den: i64, edge: usize) -> (BigInt, BigInt) {
    let edge = BigInt::from_i128(I128_EDGES[edge % I128_EDGES.len()]);
    match kind {
        0 | 1 => (BigInt::from_i64(v), BigInt::one()),
        2 | 3 => (edge.add_ref(&BigInt::from_i64(v)), BigInt::one()),
        4 => (BigInt::from_i64(v), BigInt::from_i64(den)),
        _ => (edge, BigInt::from_i64(den)),
    }
}

/// A multiple of `common` on either side of 2^64: below it, up to
/// 2^96, or full-width.
fn wide_u128(width: u8, x: u64, y: u64, common: u64) -> u128 {
    let common = common as u128;
    match width {
        0 => (x >> 32) as u128 * common,
        1 => x as u128 * common,
        _ => ((x as u128) << 64 | y as u128) / common * common,
    }
}

proptest! {
    #[test]
    fn biguint_add_matches_u128(a: u64, b: u64) {
        let s = big(a).add(&big(b));
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn biguint_mul_matches_u128(a: u64, b: u64) {
        let p = big(a).mul(&big(b));
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn biguint_divrem_invariant(a: u128, b in 1u128..) {
        let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn biguint_mul_then_div_roundtrip(a: u128, b in 1u64..) {
        let prod = BigUint::from_u128(a).mul(&big(b));
        let (q, r) = prod.div_rem(&big(b));
        prop_assert_eq!(q, BigUint::from_u128(a));
        prop_assert!(r.is_zero());
    }

    #[test]
    fn biguint_shift_roundtrip(a: u128, s in 0u64..300) {
        let x = BigUint::from_u128(a);
        prop_assert_eq!(x.shl(s).shr(s), x);
    }

    #[test]
    fn biguint_decimal_roundtrip(a: u128) {
        let x = BigUint::from_u128(a);
        prop_assert_eq!(BigUint::from_decimal(&x.to_string()), Some(x));
    }

    #[test]
    fn biguint_gcd_divides_both(a: u64, b: u64) {
        let g = big(a).gcd(&big(b));
        if !g.is_zero() {
            prop_assert!(big(a).div_rem(&g).1.is_zero());
            prop_assert!(big(b).div_rem(&g).1.is_zero());
        } else {
            prop_assert_eq!((a, b), (0, 0));
        }
    }

    #[test]
    fn bigint_ring_laws(a: i64, b: i64, c: i64) {
        let (x, y, z) = (BigInt::from_i64(a), BigInt::from_i64(b), BigInt::from_i64(c));
        // commutativity / associativity / distributivity
        prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
        prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
        prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
        prop_assert_eq!(x.mul_ref(&y).mul_ref(&z), x.mul_ref(&y.mul_ref(&z)));
        prop_assert_eq!(
            x.mul_ref(&y.add_ref(&z)),
            x.mul_ref(&y).add_ref(&x.mul_ref(&z))
        );
    }

    #[test]
    fn bigint_sub_add_inverse(a: i64, b: i64) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        prop_assert_eq!(x.sub_ref(&y).add_ref(&y), x);
    }

    #[test]
    fn bigint_divrem_identity(a: i64, b in prop::num::i64::ANY.prop_filter("nonzero", |v| *v != 0)) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        let (q, r) = x.div_rem(&y);
        prop_assert_eq!(q.mul_ref(&y).add_ref(&r), x);
        prop_assert!(r.abs() < y.abs());
    }

    #[test]
    fn bigint_order_consistent_with_i64(a: i64, b: i64) {
        prop_assert_eq!(BigInt::from_i64(a).cmp(&BigInt::from_i64(b)), a.cmp(&b));
    }

    #[test]
    fn rational_field_laws(
        an in -1000i64..1000, ad in 1i64..100,
        bn in -1000i64..1000, bd in 1i64..100,
        cn in -1000i64..1000, cd in 1i64..100,
    ) {
        let a = Rational::ratio(an, ad);
        let b = Rational::ratio(bn, bd);
        let c = Rational::ratio(cn, cd);
        prop_assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
        prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a.clone() + (b.clone() + c.clone()));
        prop_assert_eq!(a.clone() * b.clone(), b.clone() * a.clone());
        prop_assert_eq!(
            a.clone() * (b.clone() + c.clone()),
            a.clone() * b.clone() + a.clone() * c.clone()
        );
        prop_assert_eq!(a.clone() - a.clone(), Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(a.clone() * a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_normalized(an in -10000i64..10000, ad in 1i64..1000) {
        let a = Rational::ratio(an, ad);
        // lowest terms: gcd(num, den) == 1 (or num == 0 with den == 1)
        let g = a.numer().gcd(&a.denom());
        if a.is_zero() {
            prop_assert!(a.denom() == BigInt::one());
        } else {
            prop_assert_eq!(g, BigInt::one());
        }
        prop_assert!(a.denom().is_positive());
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -10000i64..10000, ad in 1i64..1000) {
        let a = Rational::ratio(an, ad);
        let fl = Rational::from_bigint(a.floor());
        let ce = Rational::from_bigint(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(a.clone() - fl.clone() < Rational::one());
        prop_assert!(ce - a.clone() < Rational::one());
    }

    #[test]
    fn rational_rem_euclid_in_range(
        an in -10000i64..10000, ad in 1i64..100,
        mn in 1i64..1000, md in 1i64..100,
    ) {
        let a = Rational::ratio(an, ad);
        let m = Rational::ratio(mn, md);
        let r = a.rem_euclid(&m);
        prop_assert!(r >= Rational::zero());
        prop_assert!(r < m);
        // a - r is an integer multiple of m
        let k = (a - r) / m;
        prop_assert!(k.is_integer());
    }

    /// Differential test for the i128 small-value fast path: random
    /// left-deep expression trees over ±, ×, ÷ evaluated with `Rational`
    /// (fast path + overflow escape) must agree with a pure-BigInt
    /// reference evaluator. Shifted operands force the BigInt escape and
    /// demotion paths to be exercised, not just the small path.
    #[test]
    fn rational_fast_path_matches_bigint_reference(
        seed_n in -1000i64..1000, seed_d in 1i64..100,
        ops in proptest::collection::vec(
            (0u8..4, -10_000i64..10_000, 1i64..1000, 0u32..140), 1..24),
    ) {
        let mut fast = Rational::ratio(seed_n, seed_d);
        let mut reference = RefRat::new(BigInt::from_i64(seed_n), BigInt::from_i64(seed_d));
        for (op, on, od, shift) in ops {
            // Operand (on << shift) / od: shifts ≥ ~64 leave i128 range.
            let shifted = shift_i64(on, shift);
            let operand_fast =
                Rational::new(shifted.clone(), BigInt::from_i64(od));
            let operand_ref = RefRat::new(shifted, BigInt::from_i64(od));
            match op {
                0 => {
                    fast += operand_fast;
                    reference = reference.add(&operand_ref);
                }
                1 => {
                    fast -= operand_fast;
                    reference = reference.sub(&operand_ref);
                }
                2 => {
                    fast *= operand_fast;
                    reference = reference.mul(&operand_ref);
                }
                _ => {
                    if operand_fast.is_zero() {
                        continue;
                    }
                    fast /= operand_fast;
                    reference = reference.div(&operand_ref);
                }
            }
            prop_assert_eq!(fast.numer(), reference.num.clone(), "numerator diverged");
            prop_assert_eq!(fast.denom(), reference.den.clone(), "denominator diverged");
        }
        // Comparison agrees with the reference cross-multiplication.
        let half = Rational::ratio(1, 2);
        let ref_half = RefRat::new(BigInt::from_i64(1), BigInt::from_i64(2));
        prop_assert_eq!(fast.cmp(&half), reference.cmp(&ref_half));
    }

    /// The integer shortcuts and their checked-overflow escape: chains
    /// over ±, ×, ÷ (and resets) whose operands are integers two thirds
    /// of the time and reach the `i128` edge must agree with the
    /// pure-BigInt reference after every operation, and stay canonical —
    /// `Small` exactly when numerator and denominator both fit. `+=` and
    /// `-=` of two integers take the in-place path. Before every
    /// operation the running value is compared with the operand and with
    /// itself plus an integer, which keeps its denominator, so `cmp`'s
    /// equal-denominator shortcut is checked on integers and fractions.
    #[test]
    fn rational_integer_shortcuts_match_bigint_reference(
        seed in (0u8..6, -10_000i64..10_000, 2i64..1000, 0usize..5),
        ops in proptest::collection::vec(
            (0u8..5, (0u8..6, -10_000i64..10_000, 2i64..1000, 0usize..5)), 1..24),
    ) {
        let (num, den) = edge_operand(seed.0, seed.1, seed.2, seed.3);
        let mut fast = Rational::new(num.clone(), den.clone());
        let mut reference = RefRat::new(num, den);
        for (op, (kind, v, d, edge)) in ops {
            let (num, den) = edge_operand(kind, v, d, edge);
            let operand_fast = Rational::new(num.clone(), den.clone());
            let operand_ref = RefRat::new(num, den);
            prop_assert_eq!(fast.cmp(&operand_fast), reference.cmp(&operand_ref), "cmp diverged");
            let shifted = fast.clone() + Rational::from_int(v);
            let shifted_ref = reference.add(&RefRat::new(BigInt::from_i64(v), BigInt::one()));
            prop_assert_eq!(fast.cmp(&shifted), reference.cmp(&shifted_ref), "cmp diverged");
            match op {
                0 => {
                    fast += operand_fast;
                    reference = reference.add(&operand_ref);
                }
                1 => {
                    fast -= operand_fast;
                    reference = reference.sub(&operand_ref);
                }
                2 => {
                    fast *= operand_fast;
                    reference = reference.mul(&operand_ref);
                }
                3 => {
                    if operand_fast.is_zero() {
                        continue;
                    }
                    fast /= operand_fast;
                    reference = reference.div(&operand_ref);
                }
                _ => {
                    fast = operand_fast;
                    reference = operand_ref;
                }
            }
            prop_assert_eq!(fast.numer(), reference.num.clone(), "numerator diverged");
            prop_assert_eq!(fast.denom(), reference.den.clone(), "denominator diverged");
            let fits = reference.num.to_i128().is_some() && reference.den.to_i128().is_some();
            prop_assert_eq!(fast.to_i128_pair().is_some(), fits, "not canonical: {:?}", fast);
        }
    }

    /// `to_f64`'s integer path gives the bits of the general formula
    /// `n / d` (each side rounded to `f64`, through `i64` when it fits):
    /// a division by 1 is exact, so no float proposal can move. Integers
    /// are drawn on both sides of `2^63` (`shift` moves a 64-bit draw
    /// across the whole `i128` range), fractions over small and wide
    /// denominators.
    #[test]
    fn rational_to_f64_integer_path_matches_general_formula(
        v in any::<i64>(),
        shift in 0u32..64,
        wide in any::<bool>(),
        small_den in 1i128..1000,
        wide_den in 1i128..i128::MAX,
    ) {
        let den = if wide { wide_den } else { small_den };
        fn side(x: i128) -> f64 {
            match i64::try_from(x) {
                Ok(v) => v as f64,
                Err(_) => x as f64,
            }
        }
        let num = i128::from(v) << shift;
        for (n, d) in [(num, 1), (num, den)] {
            let q = Rational::new(BigInt::from_i128(n), BigInt::from_i128(d));
            let (n, d) = q.to_i128_pair().expect("small operands stay small");
            prop_assert_eq!(q.to_f64().to_bits(), (side(n) / side(d)).to_bits(), "{}/{}", n, d);
        }
        for n in [i128::MAX, i128::MIN + 1, 1i128 << 63, -(1i128 << 63), (1i128 << 63) - 1] {
            let q = Rational::from_i128(n);
            prop_assert_eq!(q.to_f64().to_bits(), (side(n) / 1.0).to_bits(), "{}", n);
        }
    }

    /// `gcd_u128` (which hands 64-bit operands to `gcd_u64`) against
    /// Euclid on `BigUint`, with operands on both sides of 2^64 and a
    /// shared factor so the gcd is not always 1.
    #[test]
    fn gcd_u128_matches_biguint_gcd(
        wa in 0u8..3, xa: u64, ya: u64,
        wb in 0u8..3, xb: u64, yb: u64,
        common in 1u64..=u32::MAX as u64,
    ) {
        let a = wide_u128(wa, xa, ya, common);
        let b = wide_u128(wb, xb, yb, common);
        let want = BigUint::from_u128(a).gcd(&BigUint::from_u128(b)).to_u128();
        prop_assert_eq!(Some(gcd_u128(a, b)), want, "gcd({}, {})", a, b);
    }

    #[test]
    fn rational_order_antisymmetric(
        an in -100i64..100, ad in 1i64..50,
        bn in -100i64..100, bd in 1i64..50,
    ) {
        let a = Rational::ratio(an, ad);
        let b = Rational::ratio(bn, bd);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // consistency with f64 when comparison is strict and far apart
        if (a.to_f64() - b.to_f64()).abs() > 1e-9 {
            prop_assert_eq!(a > b, a.to_f64() > b.to_f64());
        }
    }
}
