//! Probabilistic prime generation for RSA key material.
//!
//! Miller–Rabin with trial division pre-sieving. Witness count follows the
//! usual "error < 4^-k" bound; 20 rounds is far beyond what key sizes here
//! require. The candidate and witness draws are the same calls in the same
//! order as ever: a seed yields the primes, and so the key, it always has.

use crate::bignum::{BigUint, Montgomery};
use crate::error::{CryptoError, Result};
use rand::Rng;

/// Small primes used for fast trial-division rejection.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds.
pub const MR_ROUNDS: usize = 20;

/// Miller–Rabin primality test with `rounds` random witnesses.
///
/// Deterministically correct answers for n < 212 via the sieve; for larger
/// `n`, "true" means "probably prime" with error ≤ 4^-rounds.
pub fn is_probably_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    let two = BigUint::from_u64(2);
    if n == &two {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_limb(p) == 0 {
            return n == &BigUint::from_u64(p);
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let mut d = n.sub(&BigUint::one());
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    let ctx = Montgomery::new(n);
    for _ in 0..rounds {
        // a in [2, n-2]
        let a = BigUint::random_below(rng, &n_minus_3).add(&two);
        if !ctx.is_strong_probable_prime_to(&a, &d, s) {
            return false;
        }
    }
    true
}

/// Generate a random probable prime of exactly `bits` bits.
///
/// # Errors
/// Returns [`CryptoError::GenerationFailed`] if no prime is found within a
/// generous attempt budget (statistically unreachable for `bits ≥ 16`).
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<BigUint> {
    if bits < 8 {
        return Err(CryptoError::GenerationFailed(format!(
            "prime size {bits} bits too small (min 8)"
        )));
    }
    // Expected number of candidates is O(bits/ln 2); budget generously.
    let budget = bits * 40;
    for _ in 0..budget {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bit_len() != bits {
                continue; // overflow to bits+1, retry
            }
        }
        if is_probably_prime(&candidate, MR_ROUNDS, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::GenerationFailed(format!(
        "no {bits}-bit prime found in {budget} attempts"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_values() {
        let mut rng = seeded(1);
        assert!(!is_probably_prime(&n(0), 10, &mut rng));
        assert!(!is_probably_prime(&n(1), 10, &mut rng));
        assert!(is_probably_prime(&n(2), 10, &mut rng));
        assert!(is_probably_prime(&n(3), 10, &mut rng));
        assert!(!is_probably_prime(&n(4), 10, &mut rng));
        assert!(is_probably_prime(&n(5), 10, &mut rng));
    }

    #[test]
    fn known_primes_and_composites() {
        let mut rng = seeded(2);
        for p in [101u64, 257, 65537, 1_000_003, 2_147_483_647] {
            assert!(is_probably_prime(&n(p), MR_ROUNDS, &mut rng), "{p} is prime");
        }
        for c in [100u64, 255, 65535, 1_000_001, 2_147_483_649] {
            assert!(!is_probably_prime(&n(c), MR_ROUNDS, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut rng = seeded(3);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041] {
            assert!(!is_probably_prime(&n(c), MR_ROUNDS, &mut rng), "{c} is Carmichael");
        }
    }

    #[test]
    fn large_known_prime() {
        let mut rng = seeded(4);
        // 2^127 - 1 is a Mersenne prime.
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probably_prime(&m127, MR_ROUNDS, &mut rng));
        // 2^128 - 1 = 3 * 5 * 17 * ... is composite.
        let m128 = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probably_prime(&m128, MR_ROUNDS, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = seeded(5);
        for bits in [16usize, 64, 128, 256] {
            let p = generate_prime(&mut rng, bits).unwrap();
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(is_probably_prime(&p, MR_ROUNDS, &mut rng));
        }
    }

    #[test]
    fn tiny_request_rejected() {
        let mut rng = seeded(6);
        assert!(generate_prime(&mut rng, 4).is_err());
    }
}
