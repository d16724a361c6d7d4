//! # ig-crypto — from-scratch cryptographic substrate for Instant GridFTP
//!
//! The Instant GridFTP reproduction cannot use OpenSSL or any existing
//! GSI/X.509 crate (none exist offline), so this crate implements the
//! primitives the Grid Security Infrastructure layer needs:
//!
//! * [`bignum::BigUint`] — arbitrary-precision unsigned integers with
//!   Knuth Algorithm-D division and fixed-window Montgomery modular
//!   exponentiation.
//! * [`rsa`] — RSA key generation (Miller–Rabin primes), PKCS#1-v1.5-style
//!   signing/verification with SHA-256 (private operations by CRT, checked
//!   under the public exponent), and RSA key transport used by the GSI
//!   handshake.
//! * [`sha256`], [`hmac`], [`hkdf`] — hashing, message authentication and
//!   the key schedule for sealed GSI records.
//! * [`chacha20`] — the stream cipher used for `PROT P` (private) channels.
//! * [`encode`] — base64 / hex / PEM codecs (DCSC blobs are base64-encoded
//!   PEM bundles, exactly as §V of the paper specifies).
//! * [`ct`] — constant-time comparison for MAC/password checks.
//!
//! Keys default to small-but-real sizes (512/1024 bit) so the full test
//! suite and benchmark harness run in seconds; the algorithms are identical
//! at 2048 bit. This is a *research reproduction*, not a production
//! cryptography library — the point is that every byte that crosses a
//! GridFTP channel in this repo is genuinely signed, MACed and encrypted by
//! these routines, so the security workflows of the paper are exercised for
//! real rather than stubbed.

#![deny(rust_2018_idioms)]

pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod encode;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;

pub use bignum::BigUint;
pub use error::CryptoError;
pub use hmac::{HmacKey, HmacSha256};
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::Sha256;
