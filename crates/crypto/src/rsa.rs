//! RSA: key generation, PKCS#1 v1.5-style signatures (with SHA-256), and
//! PKCS#1 v1.5-style encryption used for GSI key transport.
//!
//! Key encoding is a simple deterministic length-prefixed binary layout
//! (`u32-be length || big-endian value` per field) wrapped in PEM by the
//! PKI layer — an intentionally simplified stand-in for ASN.1 DER that
//! keeps certificates byte-exact and diffable in tests.

use crate::bignum::BigUint;
use crate::error::{CryptoError, Result};
use crate::prime::generate_prime;
use crate::sha256::Sha256;
use rand::Rng;

/// Default public exponent (F4).
pub const DEFAULT_E: u64 = 65537;

/// SHA-256 DigestInfo-style prefix binding the signature to the hash
/// algorithm (analogous to the ASN.1 prefix in real PKCS#1 v1.5).
const SHA256_PREFIX: &[u8] = b"IG-SIG-SHA256:";

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key. `sign` and `decrypt` work modulo the two factors
/// and recombine (CRT); the three values that takes are derived from `d`,
/// `p` and `q` where the key is made and are not part of its encoding.
#[derive(Clone, PartialEq, Eq)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    /// `d mod (p − 1)`, `d mod (q − 1)`, `q⁻¹ mod p`.
    dp: BigUint,
    dq: BigUint,
    q_inv: BigUint,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.bits())
            .finish_non_exhaustive()
    }
}

/// A matched public/private key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKeyPair {
    /// Public half.
    pub public: RsaPublicKey,
    /// Private half.
    pub private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Construct from raw components.
    pub fn new(n: BigUint, e: BigUint) -> Result<Self> {
        if n.bit_len() < 32 {
            return Err(CryptoError::InvalidKey("modulus too small".into()));
        }
        if n.is_even() {
            return Err(CryptoError::InvalidKey("even modulus".into()));
        }
        if e.is_zero() || e.is_one() || e.is_even() {
            return Err(CryptoError::InvalidKey("bad public exponent".into()));
        }
        Ok(RsaPublicKey { n, e })
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Modulus size in whole bytes.
    pub fn byte_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify a signature over `message` (hashes internally).
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<()> {
        if signature.len() != self.byte_len() {
            return Err(CryptoError::BadSignature);
        }
        let sig = BigUint::from_bytes_be(signature);
        if sig >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = sig.modpow(&self.e, &self.n)?;
        let em_bytes = em
            .to_bytes_be_padded(self.byte_len())
            .map_err(|_| CryptoError::BadSignature)?;
        let expect = encode_signature_padding(message, self.byte_len())?;
        if crate::ct::ct_eq(&em_bytes, &expect) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Encrypt a short message (≤ modulus_len − 11) with PKCS#1 v1.5
    /// type-2 random padding. Used for GSI pre-master-secret transport.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Result<Vec<u8>> {
        let k = self.byte_len();
        if plaintext.len() + 11 > k {
            return Err(CryptoError::InvalidKey(format!(
                "plaintext {} bytes too long for {}-byte modulus",
                plaintext.len(),
                k
            )));
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        // Nonzero random padding bytes.
        for _ in 0..(k - plaintext.len() - 3) {
            let mut b = 0u8;
            while b == 0 {
                b = rng.gen();
            }
            em.push(b);
        }
        em.push(0x00);
        em.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        let c = m.modpow(&self.e, &self.n)?;
        c.to_bytes_be_padded(k)
    }

    /// Deterministic binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_field(&mut out, &self.n);
        push_field(&mut out, &self.e);
        out
    }

    /// Decode from [`RsaPublicKey::encode`] output.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut cursor = 0usize;
        let n = read_field(data, &mut cursor)?;
        let e = read_field(data, &mut cursor)?;
        if cursor != data.len() {
            return Err(CryptoError::Decode("trailing bytes after public key".into()));
        }
        RsaPublicKey::new(n, e)
    }

    /// A short fingerprint (first 8 bytes of SHA-256 of the encoding) used
    /// in logs and endpoint identities.
    pub fn fingerprint(&self) -> String {
        let d = Sha256::digest(&self.encode());
        crate::encode::hex_encode(&d[..8])
    }
}

impl RsaPrivateKey {
    /// Derive the CRT values. `p·q` is `public`'s modulus, so both are odd
    /// and nonzero; a factor of 1, or `p = q`, is an error from the
    /// arithmetic.
    fn new(public: RsaPublicKey, d: BigUint, p: BigUint, q: BigUint) -> Result<Self> {
        let one = BigUint::one();
        let dp = d.rem(&p.sub(&one))?;
        let dq = d.rem(&q.sub(&one))?;
        let q_inv = q.mod_inverse(&p)?;
        Ok(RsaPrivateKey { public, d, p, q, dp, dq, q_inv })
    }

    /// Public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// `m^d mod n` for `m < n`, by Garner's recombination of the powers
    /// modulo `p` and `q`. Nothing is released that does not check under
    /// the public exponent: a miscomputation, or a key file whose `d` does
    /// not belong to its factors, is an error here and not a bad signature
    /// at the peer.
    fn private_op(&self, m: &BigUint) -> Result<BigUint> {
        let m1 = m.modpow(&self.dp, &self.p)?;
        let m2 = m.modpow(&self.dq, &self.q)?;
        // h = q⁻¹·(m1 − m2) mod p; n ≡ 0 (mod p) and n > q > m2 keep the
        // difference positive whichever of m1, m2 is larger.
        let diff = m1.add(&self.public.n).sub(&m2);
        let h = self.q_inv.mul(&diff).rem(&self.p)?;
        let s = m2.add(&h.mul(&self.q));
        if s.modpow(&self.public.e, &self.public.n)? != *m {
            return Err(CryptoError::InvalidKey(
                "private operation does not check under the public exponent".into(),
            ));
        }
        Ok(s)
    }

    /// Sign `message` (hashes internally with SHA-256).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>> {
        let k = self.public.byte_len();
        let em = encode_signature_padding(message, k)?;
        let m = BigUint::from_bytes_be(&em);
        self.private_op(&m)?.to_bytes_be_padded(k)
    }

    /// Decrypt a PKCS#1 v1.5 type-2 ciphertext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        let k = self.public.byte_len();
        if ciphertext.len() != k {
            return Err(CryptoError::BadCiphertext);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::BadCiphertext);
        }
        let em = self
            .private_op(&c)?
            .to_bytes_be_padded(k)
            .map_err(|_| CryptoError::BadCiphertext)?;
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::BadCiphertext);
        }
        // Find the 0x00 separator after at least 8 padding bytes.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadCiphertext)?;
        if sep < 8 {
            return Err(CryptoError::BadCiphertext);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Deterministic binary encoding (includes public key fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_field(&mut out, &self.public.n);
        push_field(&mut out, &self.public.e);
        push_field(&mut out, &self.d);
        push_field(&mut out, &self.p);
        push_field(&mut out, &self.q);
        out
    }

    /// Decode from [`RsaPrivateKey::encode`] output, checking consistency.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut cursor = 0usize;
        let n = read_field(data, &mut cursor)?;
        let e = read_field(data, &mut cursor)?;
        let d = read_field(data, &mut cursor)?;
        let p = read_field(data, &mut cursor)?;
        let q = read_field(data, &mut cursor)?;
        if cursor != data.len() {
            return Err(CryptoError::Decode("trailing bytes after private key".into()));
        }
        if p.mul(&q) != n {
            return Err(CryptoError::InvalidKey("p*q != n".into()));
        }
        RsaPrivateKey::new(RsaPublicKey::new(n, e)?, d, p, q)
    }
}

impl RsaKeyPair {
    /// Generate a fresh key pair with modulus of roughly `bits` bits.
    ///
    /// # Errors
    /// Propagates prime-generation failure (statistically unreachable) and
    /// rejects `bits < 64`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<Self> {
        if bits < 64 {
            return Err(CryptoError::InvalidKey(format!(
                "modulus {bits} bits too small (min 64)"
            )));
        }
        let e = BigUint::from_u64(DEFAULT_E);
        loop {
            let p = generate_prime(rng, bits / 2)?;
            let q = generate_prime(rng, bits - bits / 2)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            if phi.gcd(&e)? != BigUint::one() {
                continue;
            }
            let d = e.mod_inverse(&phi)?;
            let public = RsaPublicKey::new(n, e.clone())?;
            let private = RsaPrivateKey::new(public.clone(), d, p, q)?;
            return Ok(RsaKeyPair { public, private });
        }
    }
}

/// PKCS#1-v1.5-style EMSA padding: 00 01 FF..FF 00 prefix || SHA-256(msg).
fn encode_signature_padding(message: &[u8], k: usize) -> Result<Vec<u8>> {
    let digest = Sha256::digest(message);
    let t_len = SHA256_PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::InvalidKey(format!(
            "modulus {k} bytes too small for signature encoding"
        )));
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(SHA256_PREFIX);
    em.extend_from_slice(&digest);
    Ok(em)
}

fn push_field(out: &mut Vec<u8>, v: &BigUint) {
    let bytes = v.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

fn read_field(data: &[u8], cursor: &mut usize) -> Result<BigUint> {
    if data.len() < *cursor + 4 {
        return Err(CryptoError::Decode("truncated length prefix".into()));
    }
    let len = u32::from_be_bytes([
        data[*cursor],
        data[*cursor + 1],
        data[*cursor + 2],
        data[*cursor + 3],
    ]) as usize;
    *cursor += 4;
    if data.len() < *cursor + len {
        return Err(CryptoError::Decode("truncated field body".into()));
    }
    let v = BigUint::from_bytes_be(&data[*cursor..*cursor + len]);
    *cursor += len;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn test_keypair(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(&mut seeded(seed), 512).expect("keygen")
    }

    #[test]
    fn generate_reasonable_key() {
        let kp = test_keypair(1);
        assert!(kp.public.bits() >= 505 && kp.public.bits() <= 512);
        assert_eq!(kp.public, *kp.private.public());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair(2);
        let msg = b"GridFTP control channel transcript";
        let sig = kp.private.sign(msg).unwrap();
        assert_eq!(sig.len(), kp.public.byte_len());
        kp.public.verify(msg, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_tampering() {
        let kp = test_keypair(3);
        let sig = kp.private.sign(b"message").unwrap();
        assert!(kp.public.verify(b"message2", &sig).is_err());
        let mut bad = sig.clone();
        bad[10] ^= 1;
        assert!(kp.public.verify(b"message", &bad).is_err());
        assert!(kp.public.verify(b"message", &sig[..sig.len() - 1]).is_err());
        // Signature from a different key fails.
        let other = test_keypair(4);
        let sig2 = other.private.sign(b"message").unwrap();
        assert!(kp.public.verify(b"message", &sig2).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = test_keypair(5);
        let mut rng = seeded(50);
        let secret = b"pre-master-secret-32-bytes......";
        let ct = kp.public.encrypt(&mut rng, secret).unwrap();
        assert_eq!(ct.len(), kp.public.byte_len());
        assert_eq!(kp.private.decrypt(&ct).unwrap(), secret);
    }

    #[test]
    fn encrypt_is_randomized() {
        let kp = test_keypair(6);
        let mut rng = seeded(60);
        let a = kp.public.encrypt(&mut rng, b"same").unwrap();
        let b = kp.public.encrypt(&mut rng, b"same").unwrap();
        assert_ne!(a, b);
        assert_eq!(kp.private.decrypt(&a).unwrap(), b"same");
        assert_eq!(kp.private.decrypt(&b).unwrap(), b"same");
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let kp = test_keypair(7);
        assert!(kp.private.decrypt(&[0u8; 10]).is_err());
        let garbage = vec![0xaau8; kp.public.byte_len()];
        assert!(kp.private.decrypt(&garbage).is_err());
    }

    #[test]
    fn plaintext_too_long_rejected() {
        let kp = test_keypair(8);
        let mut rng = seeded(80);
        let too_long = vec![1u8; kp.public.byte_len() - 10];
        assert!(kp.public.encrypt(&mut rng, &too_long).is_err());
    }

    #[test]
    fn key_encoding_roundtrip() {
        let kp = test_keypair(9);
        let pub_enc = kp.public.encode();
        assert_eq!(RsaPublicKey::decode(&pub_enc).unwrap(), kp.public);
        let priv_enc = kp.private.encode();
        assert_eq!(RsaPrivateKey::decode(&priv_enc).unwrap(), kp.private);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(RsaPublicKey::decode(&[1, 2, 3]).is_err());
        let kp = test_keypair(10);
        let mut enc = kp.public.encode();
        enc.push(0); // trailing byte
        assert!(RsaPublicKey::decode(&enc).is_err());
        // Corrupt the private key's q so p*q != n.
        let mut penc = kp.private.encode();
        let last = penc.len() - 1;
        penc[last] ^= 0xff;
        assert!(RsaPrivateKey::decode(&penc).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let a = test_keypair(11);
        let b = test_keypair(12);
        assert_eq!(a.public.fingerprint(), a.public.fingerprint());
        assert_ne!(a.public.fingerprint(), b.public.fingerprint());
        assert_eq!(a.public.fingerprint().len(), 16);
    }

    #[test]
    fn debug_does_not_leak_private_key() {
        let kp = test_keypair(13);
        let s = format!("{:?}", kp.private);
        assert!(s.contains("bits"));
        assert!(!s.contains("limbs"));
    }

    #[test]
    fn small_modulus_rejected() {
        assert!(RsaKeyPair::generate(&mut seeded(14), 32).is_err());
        assert!(RsaPublicKey::new(BigUint::from_u64(15), BigUint::from_u64(3)).is_err());
        // Even exponent rejected.
        let kp = test_keypair(15);
        let n = BigUint::from_bytes_be(&kp.public.encode()[4..4 + kp.public.byte_len()]);
        assert!(RsaPublicKey::new(n.clone(), BigUint::from_u64(4)).is_err());
        // An even modulus is not a key, at any size.
        let even = RsaPublicKey::new(n.add(&BigUint::one()), BigUint::from_u64(DEFAULT_E));
        assert_eq!(even, Err(CryptoError::InvalidKey("even modulus".into())));
    }
}
