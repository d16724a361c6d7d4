//! Verbatim freeze of ig-crypto's RSA arithmetic as of the parent of
//! PR 24 (`bignum.rs::modpow`, `prime.rs`, `rsa.rs::{generate, sign,
//! decrypt}`): bit-at-a-time square-and-multiply over `mul` + Knuth
//! `rem`, Miller–Rabin on it, private operations by the full-width `d`.
//! The live crate and this module link the same `rand`, so "same seed,
//! same key" is checkable under the published crate and under the offline
//! stand-in alike (the idiom of `netsim/tests/golden_reno.rs`).
//!
//! Do not "clean up": the order of the draws from the generator is the
//! contract. Shared by `rsa_golden.rs` and `montgomery_differential.rs`.

#![allow(dead_code)]

use ig_crypto::{BigUint, Sha256};
use rand::Rng;

const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

pub const MR_ROUNDS: usize = 20;

/// `base^exp mod modulus` by division; `modulus` is nonzero.
pub fn modpow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    if modulus.is_one() {
        return BigUint::zero();
    }
    let mut base = base.rem(modulus).unwrap();
    let mut result = BigUint::one();
    let bits = exp.bit_len();
    for i in 0..bits {
        if exp.bit(i) {
            result = result.mul(&base).rem(modulus).unwrap();
        }
        if i + 1 < bits {
            base = base.mul(&base).rem(modulus).unwrap();
        }
    }
    result
}

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
        let bp = BigUint::from_u64(p);
        if n == &bp {
            return true;
        }
        if n.rem(&bp).expect("nonzero divisor").is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = BigUint::random_below(rng, &n_minus_3).add(&two);
        let mut x = modpow(&a, &d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.mul(&x).rem(n).expect("modulus nonzero");
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
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
            return candidate;
        }
    }
    panic!("no {bits}-bit prime found in {budget} attempts");
}

/// The five integers of a private key, in the order `encode` writes them.
pub struct RefKey {
    pub n: BigUint,
    pub e: BigUint,
    pub d: BigUint,
    pub p: BigUint,
    pub q: BigUint,
}

pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RefKey {
    let e = BigUint::from_u64(65537);
    loop {
        let p = generate_prime(rng, bits / 2);
        let q = generate_prime(rng, bits - bits / 2);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        if phi.gcd(&e).unwrap() != BigUint::one() {
            continue;
        }
        let d = e.mod_inverse(&phi).unwrap();
        return RefKey { n, e, d, p, q };
    }
}

fn push_field(out: &mut Vec<u8>, v: &BigUint) {
    let bytes = v.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

impl RefKey {
    /// What `RsaPrivateKey::encode` writes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [&self.n, &self.e, &self.d, &self.p, &self.q] {
            push_field(&mut out, v);
        }
        out
    }

    /// What `RsaPublicKey::encode` writes.
    pub fn encode_public(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_field(&mut out, &self.n);
        push_field(&mut out, &self.e);
        out
    }

    /// Read back `RsaPrivateKey::encode` output (well-formed input only).
    pub fn decode(data: &[u8]) -> RefKey {
        let mut fields = Vec::new();
        let mut rest = data;
        while !rest.is_empty() {
            let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
            fields.push(BigUint::from_bytes_be(&rest[4..4 + len]));
            rest = &rest[4 + len..];
        }
        let [n, e, d, p, q]: [BigUint; 5] = fields.try_into().expect("five fields");
        RefKey { n, e, d, p, q }
    }

    pub fn byte_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// `m^d mod n`: the private operation with no CRT.
    pub fn private_op(&self, m: &BigUint) -> BigUint {
        modpow(m, &self.d, &self.n)
    }

    /// What `RsaPrivateKey::sign` returns.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.byte_len();
        let digest = Sha256::digest(message);
        let prefix = b"IG-SIG-SHA256:";
        let t_len = prefix.len() + digest.len();
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x01);
        em.resize(k - t_len - 1, 0xff);
        em.push(0x00);
        em.extend_from_slice(prefix);
        em.extend_from_slice(&digest);
        self.private_op(&BigUint::from_bytes_be(&em)).to_bytes_be_padded(k).unwrap()
    }

    /// The padded block `RsaPrivateKey::decrypt` strips, before stripping.
    pub fn decrypt_block(&self, ciphertext: &[u8]) -> Vec<u8> {
        self.private_op(&BigUint::from_bytes_be(ciphertext))
            .to_bytes_be_padded(self.byte_len())
            .unwrap()
    }
}
