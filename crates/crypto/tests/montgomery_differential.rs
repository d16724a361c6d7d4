//! The Montgomery kernel against the division-based arithmetic it replaced
//! (frozen in `reference/`): `modpow` over odd moduli of 1 to 33 limbs with
//! the edge cases named below, Miller–Rabin verdict for verdict and draw for
//! draw, CRT private operations against the full-width exponent for every
//! key `rsa_golden.rs` pins, and the check that keeps a key file with a
//! wrong `d` from putting a bad signature on the wire.
//! Std-only and seeded, so the offline mirror runs it.

mod reference;

use ig_crypto::prime::is_probably_prime;
use ig_crypto::rng::seeded;
use ig_crypto::{BigUint, CryptoError, RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use rand::Rng;

fn n(v: u64) -> BigUint {
    BigUint::from_u64(v)
}

/// An odd number of exactly `limbs` limbs; the top limb is all ones or
/// random with any number of leading zeros.
fn odd_modulus<R: Rng>(rng: &mut R, limbs: usize, top_all_ones: bool) -> BigUint {
    let mut bytes = vec![0u8; 8 * limbs];
    rng.fill_bytes(&mut bytes);
    if top_all_ones {
        bytes[..8].fill(0xff);
    }
    bytes[7] |= 1;
    bytes[8 * limbs - 1] |= 1;
    BigUint::from_bytes_be(&bytes)
}

fn assert_modpow(base: &BigUint, exp: &BigUint, modulus: &BigUint) {
    assert_eq!(
        base.modpow(exp, modulus).unwrap(),
        reference::modpow(base, exp, modulus),
        "{base:?} ^ {exp:?} mod {modulus:?}"
    );
}

#[test]
fn modpow_agrees_with_division_on_odd_moduli_of_1_to_33_limbs() {
    let mut rng = seeded(0x4D6F_6E74);
    let two_64 = BigUint::one().shl(64);
    // Zero, one, a lone top window, interior and leading zero windows, F4.
    let short_exps = [
        BigUint::zero(),
        n(1),
        n(2),
        n(15),
        n(16),
        n(0x1001),
        n(65537),
        n(0x1000_0000_0000_0001),
        two_64.clone(),
        two_64.add(&n(1)),
        BigUint::random_bits(&mut rng, 61),
    ];
    let mut moduli = vec![n(3), n(5), n(u64::MAX)];
    for limbs in 1..=33 {
        moduli.push(odd_modulus(&mut rng, limbs, false));
        moduli.push(odd_modulus(&mut rng, limbs, true));
    }
    for modulus in &moduli {
        let bits = modulus.bit_len();
        let below = BigUint::random_below(&mut rng, modulus);
        let above = BigUint::random_bits(&mut rng, 2 * bits + 7);
        let minus_one = modulus.sub(&n(1));
        let bases = [
            BigUint::zero(),
            n(1),
            n(2),
            minus_one.clone(),
            modulus.clone(),
            modulus.add(&n(1)),
            below.clone(),
            above.clone(),
        ];
        for base in &bases {
            for exp in &short_exps {
                assert_modpow(base, exp, modulus);
            }
        }
        // Exponents as wide as the modulus, as RSA's are.
        for base in [&below, &above, &minus_one] {
            assert_modpow(base, &BigUint::random_bits(&mut rng, bits), modulus);
            assert_modpow(base, &BigUint::random_below(&mut rng, modulus), modulus);
        }
    }
}

#[test]
fn an_even_modulus_still_takes_the_division_arm() {
    let mut rng = seeded(0xE7E4);
    for bits in [2, 8, 64, 65, 300] {
        let modulus = BigUint::random_bits(&mut rng, bits).shl(1);
        for _ in 0..4 {
            let base = BigUint::random_bits(&mut rng, bits + 9);
            assert_modpow(&base, &BigUint::random_bits(&mut rng, 70), &modulus);
        }
    }
}

/// The verdict, and where it leaves the generator: a round that draws one
/// witness more or fewer than it used to moves every key after it.
fn assert_same_verdict(candidate: &BigUint, seed: u64) -> bool {
    let (mut live, mut frozen) = (seeded(seed), seeded(seed));
    let verdict = is_probably_prime(candidate, reference::MR_ROUNDS, &mut live);
    assert_eq!(
        verdict,
        reference::is_probably_prime(candidate, reference::MR_ROUNDS, &mut frozen),
        "{candidate:?}"
    );
    assert_eq!(live.gen::<u64>(), frozen.gen::<u64>(), "draws consumed on {candidate:?}");
    verdict
}

#[test]
fn miller_rabin_agrees_with_the_division_arithmetic_draw_for_draw() {
    for v in 0..3000 {
        assert_same_verdict(&n(v), v);
    }
    // Carmichael numbers and strong pseudoprimes to base 2 pass weaker tests.
    for v in [561, 1105, 1729, 41041, 2047, 3277, 4033, 3_215_031_751, 3_825_123_056_546_413_051] {
        assert!(!assert_same_verdict(&n(v), v), "{v} is composite");
    }
    for v in [65537, 2_147_483_647, (1 << 61) - 1, 18_446_744_073_709_551_557] {
        assert!(assert_same_verdict(&n(v), v), "{v} is prime");
    }
    let m127 = BigUint::one().shl(127).sub(&n(1));
    assert!(assert_same_verdict(&m127, 127));
    assert!(!assert_same_verdict(&m127.mul(&m127), 128), "a square that passes the sieve");

    // What key generation feeds it: random odd candidates, primes, and
    // products of two primes (no small factor, so every one reaches a witness).
    let mut rng = seeded(0x5EED);
    let mut primes_seen = 0;
    for bits in [64, 65, 128, 192, 256, 384, 512] {
        for i in 0..40 {
            let candidate = BigUint::random_bits(&mut rng, bits);
            let candidate = if candidate.is_even() { candidate.add(&n(1)) } else { candidate };
            primes_seen += assert_same_verdict(&candidate, i) as usize;
        }
        let p = reference::generate_prime(&mut rng, bits);
        let q = reference::generate_prime(&mut rng, bits);
        assert!(assert_same_verdict(&p, 1));
        assert!(assert_same_verdict(&q, 2));
        assert!(!assert_same_verdict(&p.mul(&q), 3));
    }
    assert!(primes_seen > 0, "the random candidates included no prime");
}

/// A private key file for the given factors, its `d` off by `d_offset`.
fn key_file(p: BigUint, q: BigUint, d_offset: u64) -> Vec<u8> {
    let e = n(65537);
    let phi = p.sub(&n(1)).mul(&q.sub(&n(1)));
    let d = e.mod_inverse(&phi).unwrap().add(&n(d_offset));
    reference::RefKey { n: p.mul(&q), e, d, p, q }.encode()
}

/// Signatures and decryptions by the live key equal `m^d mod n` by the
/// frozen full-width exponentiation.
fn assert_crt_is_the_private_exponent(private: &RsaPrivateKey, why: &str) {
    let frozen = reference::RefKey::decode(&private.encode());
    let mut rng = seeded(frozen.byte_len() as u64);
    for round in 0..3 {
        let mut message = [0u8; 24];
        ig_crypto::rng::fill(&mut rng, &mut message);
        let sig = private.sign(&message).unwrap();
        assert_eq!(sig, frozen.sign(&message), "{why}, signature {round}");
        private.public().verify(&message, &sig).unwrap();
        let ct = private.public().encrypt(&mut rng, &message).unwrap();
        assert_eq!(private.decrypt(&ct).unwrap(), message, "{why}, decryption {round}");
        assert!(frozen.decrypt_block(&ct).ends_with(&message), "{why}, decryption {round}");
    }
}

#[test]
fn crt_is_the_private_exponent_for_every_golden_key() {
    for seed in [1, 2, 3, 4, 5, 6, 7, 0x1957_0A04] {
        for bits in [512, 768, 1024] {
            let kp = RsaKeyPair::generate(&mut seeded(seed), bits).unwrap();
            assert_crt_is_the_private_exponent(&kp.private, &format!("seed {seed}, {bits} bits"));
        }
    }
    // Key files whose factors differ in size, either way round: the power
    // modulo q can exceed p, and the recombination must not care.
    let mut rng = seeded(0xC127);
    let small = reference::generate_prime(&mut rng, 160);
    let large = reference::generate_prime(&mut rng, 416);
    for (p, q, why) in [(&small, &large, "p < q"), (&large, &small, "p > q")] {
        let private = RsaPrivateKey::decode(&key_file(p.clone(), q.clone(), 0)).unwrap();
        assert_crt_is_the_private_exponent(&private, why);
    }
}

#[test]
fn a_key_file_with_a_wrong_d_signs_nothing() {
    let mut rng = seeded(0xBADD);
    let p = reference::generate_prime(&mut rng, 256);
    let q = reference::generate_prime(&mut rng, 256);
    let file = key_file(p, q, 2);
    // The frozen arithmetic signs with it, and the peer is who finds out.
    let frozen = reference::RefKey::decode(&file);
    let public = RsaPublicKey::decode(&frozen.encode_public()).unwrap();
    assert_eq!(public.verify(b"message", &frozen.sign(b"message")), Err(CryptoError::BadSignature));
    // The live key refuses: nothing that fails under e leaves private_op.
    let private = RsaPrivateKey::decode(&file).unwrap();
    assert!(matches!(private.sign(b"message"), Err(CryptoError::InvalidKey(_))));
    let ct = public.encrypt(&mut rng, b"secret").unwrap();
    assert!(matches!(private.decrypt(&ct), Err(CryptoError::InvalidKey(_))));

    // Factors no CRT can be built on are refused where the file is read.
    let p = reference::generate_prime(&mut rng, 256);
    for (a, b) in [(p.clone(), p.clone()), (n(1), p.mul(&p)), (p.mul(&p), n(1))] {
        let file = reference::RefKey { n: a.mul(&b), e: n(65537), d: n(3), p: a, q: b }.encode();
        assert!(RsaPrivateKey::decode(&file).is_err());
    }
}
