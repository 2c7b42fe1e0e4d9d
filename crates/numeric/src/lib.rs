//! Exact arbitrary-precision arithmetic for the hier-sched scheduling stack.
//!
//! Every quantity manipulated by the scheduling algorithms — processing
//! times, loads, LP coefficients, schedule segment endpoints, the makespan
//! `T` — is represented exactly. The paper's correctness arguments
//! (Lemma IV.1, Lemma V.1, the pseudoforest structure of LP vertex
//! solutions) rely on exact comparisons such as `TOT-LOAD[i, α] ≤ T` and
//! `Σ_i x_ij = 1`; floating point would turn those equalities into
//! tolerance checks and break the combinatorial structure the rounding
//! steps depend on. This crate provides:
//!
//! * [`BigUint`] — unsigned magnitude, little-endian `u64` limbs;
//! * [`BigInt`] — sign-magnitude signed integer;
//! * [`Rational`] — normalized fraction of two [`BigInt`]s (the workhorse
//!   type; the rest of the workspace uses the alias `Q = Rational`).
//!
//! The big types favour obvious correctness over micro-optimized
//! arithmetic: schoolbook multiplication and binary-shift long division
//! are ample for the rare values that leave machine words, and the
//! simple representations keep the proptest oracles easy to trust. The
//! speed lives in [`Rational`]'s `i128` fast path, which the exact LP
//! certificates run on: integer operands take checked `i128` operations
//! and no gcd, a gcd of 1 is never divided out, and [`gcd_u128`] hands
//! 64-bit operands to [`gcd_u64`]. Each shortcut is checked against a
//! pure-BigInt reference by the property tests, at the `i128` edge too.

mod bigint;
mod biguint;
mod rational;

pub use bigint::BigInt;
pub use biguint::BigUint;
pub use rational::Rational;

/// Shorthand used across the workspace for exact rational quantities.
pub type Q = Rational;

/// Greatest common divisor of two `u64`s (binary / Stein's algorithm).
///
/// Used by limb-level fast paths; `BigUint::gcd` handles the general case.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Greatest common divisor of two `u128`s (binary / Stein's algorithm).
///
/// The workhorse of [`Rational`]'s small-value fast path: every reduce of
/// an `i128` fraction goes through here instead of `BigUint::gcd`. When
/// both operands fit in 64 bits, as almost all LP data does, it hands off
/// to [`gcd_u64`], whose shifts and subtractions are single instructions.
pub fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if (a | b) >> 64 == 0 {
        return gcd_u64(a as u64, b as u64) as u128;
    }
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_u128_basics() {
        assert_eq!(gcd_u128(0, 0), 0);
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(12, 18), 6);
        assert_eq!(gcd_u128(u128::MAX, u128::MAX), u128::MAX);
        assert_eq!(gcd_u128(1 << 100, 1 << 20), 1 << 20);
        assert_eq!(gcd_u128(1 << 127, 3), 1);
    }

    #[test]
    fn gcd_u64_basics() {
        assert_eq!(gcd_u64(0, 0), 0);
        assert_eq!(gcd_u64(0, 7), 7);
        assert_eq!(gcd_u64(7, 0), 7);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(17, 13), 1);
        assert_eq!(gcd_u64(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(gcd_u64(1 << 63, 1 << 20), 1 << 20);
    }
}
