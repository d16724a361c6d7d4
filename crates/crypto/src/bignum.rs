//! Arbitrary-precision unsigned integers for RSA.
//!
//! Little-endian `u64` limbs, normalized (no trailing zero limbs; zero is
//! the empty limb vector). Division is Knuth TAOCP vol. 2 Algorithm D.
//! Modular exponentiation has one kernel, [`Montgomery`]: CIOS
//! multiplication into caller-held buffers under a 4-bit fixed window, for
//! every odd modulus — which is every RSA modulus, prime candidate and CRT
//! factor. The division-based loop it replaced stays as the even-modulus
//! arm of [`BigUint::modpow`], which no production caller reaches.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{CryptoError, Result};

/// Arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Minimal big-endian byte representation (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Big-endian bytes left-padded with zeros to exactly `len` bytes.
    ///
    /// # Errors
    /// Returns [`CryptoError::Arithmetic`] if the value needs more than
    /// `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::Arithmetic(format!(
                "value needs {} bytes, caller allowed {}",
                raw.len(),
                len
            )));
        }
        let mut out = Vec::with_capacity(len);
        out.resize(len - raw.len(), 0);
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the low bit is clear (0 counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().map_or(true, |l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (LSB = bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .map_or(false, |l| (l >> (i % 64)) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = *short.get(i).unwrap_or(&0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`, or `None` if it would underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics on underflow; use [`BigUint::checked_sub`] for fallible code.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self * other` (schoolbook; fine at RSA sizes).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        // Room for the carry limb and for the one Algorithm D appends.
        let mut out = Vec::with_capacity(limb_shift + self.limbs.len() + 2);
        out.resize(limb_shift, 0);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Errors
    /// Returns [`CryptoError::Arithmetic`] if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint)> {
        if divisor.is_zero() {
            return Err(CryptoError::Arithmetic("division by zero".into()));
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return Ok((q, BigUint::from_u64(r)));
        }
        Ok(self.div_rem_knuth(divisor))
    }

    /// `self mod divisor`.
    pub fn rem(&self, divisor: &BigUint) -> Result<BigUint> {
        Ok(self.div_rem(divisor)?.1)
    }

    fn div_rem_limb(&self, d: u64) -> (BigUint, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut n = BigUint { limbs: q };
        n.normalize();
        (n, rem as u64)
    }

    /// `self mod d` for a one-limb `d`, with no allocation (the sieve's
    /// remainder).
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn rem_limb(&self, d: u64) -> u64 {
        let d = d as u128;
        self.limbs.iter().rev().fold(0, |rem, &l| ((rem << 64) | l as u128) % d) as u64
    }

    /// Knuth Algorithm D. Precondition: divisor has ≥ 2 limbs, self ≥ divisor.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        let m = u.len() - n;
        u.push(0); // extra high limb for the algorithm
        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_second = v[n - 2];
        for j in (0..=m).rev() {
            let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;
            // Refine qhat: at most two corrections needed (TAOCP D3).
            while qhat >= 1u128 << 64
                || qhat * v_second as u128 > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            borrow = sub >> 64;
            q[j] = qhat as u64;
            if borrow < 0 {
                // qhat was one too large: add back (TAOCP D6).
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = t as u64;
                    carry = t >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: u[..n].to_vec() };
        rem.normalize();
        let rem = rem.shr(shift);
        (quotient, rem)
    }

    /// Modular exponentiation: `self^exp mod modulus`.
    ///
    /// # Errors
    /// Returns [`CryptoError::Arithmetic`] if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Arithmetic("modpow modulus is zero".into()));
        }
        if modulus.is_one() {
            return Ok(BigUint::zero());
        }
        if modulus.is_even() {
            return self.modpow_by_division(exp, modulus);
        }
        Ok(Montgomery::new(modulus).modpow(self, exp))
    }

    /// Bit-at-a-time square-and-multiply, a Knuth division per step: the
    /// even-modulus arm of [`BigUint::modpow`] (Montgomery reduction needs
    /// an odd modulus) and the unit tests' reference. `modulus` is ≥ 2.
    fn modpow_by_division(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        let mut base = self.rem(modulus)?;
        let mut result = BigUint::one();
        let bits = exp.bit_len();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.mul(&base).rem(modulus)?;
            }
            if i + 1 < bits {
                base = base.mul(&base).rem(modulus)?;
            }
        }
        Ok(result)
    }

    /// Greatest common divisor (binary-free Euclid; division is fast here).
    pub fn gcd(&self, other: &BigUint) -> Result<BigUint> {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b)?;
            a = b;
            b = r;
        }
        Ok(a)
    }

    /// Modular inverse of `self` mod `m` via extended Euclid.
    ///
    /// # Errors
    /// Returns [`CryptoError::Arithmetic`] if `gcd(self, m) != 1` or `m < 2`.
    pub fn mod_inverse(&self, m: &BigUint) -> Result<BigUint> {
        if m.bit_len() < 2 {
            return Err(CryptoError::Arithmetic("modulus must be >= 2".into()));
        }
        // Track coefficients as (magnitude, is_negative) pairs.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m)?;
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1)?;
            // t2 = t0 - q * t1 (signed arithmetic on magnitudes).
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(CryptoError::Arithmetic("no modular inverse (gcd != 1)".into()));
        }
        let (mag, neg) = t0;
        let inv = if neg { m.sub(&mag.rem(m)?) } else { mag.rem(m)? };
        // m - 0 == m; re-reduce to keep the result canonical.
        inv.rem(m)
    }

    /// Uniformly random value with exactly `bits` significant bits
    /// (top bit set), using the supplied RNG.
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "cannot generate 0-bit number");
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
        let top = &mut v[limbs - 1];
        *top &= mask;
        *top |= 1u64 << (top_bits - 1); // force exact bit length
        let mut n = BigUint { limbs: v };
        n.normalize();
        n
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let limbs = bits.div_ceil(64);
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs - 1) * 64;
            let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
            v[limbs - 1] &= mask;
            let mut n = BigUint { limbs: v };
            n.normalize();
            if &n < bound {
                return n;
            }
        }
    }
}

/// Montgomery arithmetic modulo an odd `n > 1` of `k` limbs, `R = 2^(64k)`.
///
/// A residue is `k` limbs, not normalized, holding `x·R mod n`. The caller
/// owns every buffer, so a multiplication allocates nothing.
pub(crate) struct Montgomery {
    n: BigUint,
    /// `−n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod n`: multiplying by it carries a value into residue form.
    r2: Vec<u64>,
    /// The residues of 1 and of −1.
    one: Vec<u64>,
    minus_one: Vec<u64>,
}

/// Bits of exponent consumed per multiplication by a table entry. Divides
/// 64, so no window straddles two limbs.
const WINDOW: usize = 4;

impl Montgomery {
    /// # Panics
    /// Panics if `modulus` is even or 1.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_even() && !modulus.is_one(), "Montgomery modulus must be odd and > 1");
        let k = modulus.limbs.len();
        // Newton's iteration doubles the correct low bits of an inverse mod
        // 2^64: n0 is its own inverse mod 8, five rounds give 96 bits.
        let n0 = modulus.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let r = BigUint::one().shl(64 * k).rem(modulus).expect("modulus nonzero");
        let padded = |v: BigUint| {
            let mut limbs = v.limbs;
            limbs.resize(k, 0);
            limbs
        };
        Montgomery {
            n0_inv: inv.wrapping_neg(),
            r2: padded(r.mul(&r).rem(modulus).expect("modulus nonzero")),
            minus_one: padded(modulus.sub(&r)),
            one: padded(r),
            n: modulus.clone(),
        }
    }

    /// `out = a·b·R⁻¹ mod n` by coarsely integrated operand scanning (Koç,
    /// Acar, Kaliski 1996): each limb of `b` is multiplied in and one limb
    /// of the sum reduced away in the same pass. `a`, `b` and `out` are
    /// `k` limbs, `a` and `b` below `n`; `t` is `k + 2` limbs of scratch.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n.limbs[..];
        let k = n.len();
        let (a, b, out, t) = (&a[..k], &b[..k], &mut out[..k], &mut t[..k + 2]);
        t.fill(0);
        for &bi in b {
            let mut carry = 0u128;
            for j in 0..k {
                let sum = t[j] as u128 + a[j] as u128 * bi as u128 + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[k] as u128 + carry;
            t[k] = sum as u64;
            t[k + 1] = (sum >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..k {
                let sum = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[k] as u128 + carry;
            t[k - 1] = sum as u64;
            t[k] = t[k + 1] + (sum >> 64) as u64;
        }
        // t < 2n: one subtraction, kept unless it borrowed out of t[k].
        let mut borrow = false;
        for j in 0..k {
            let (d, b1) = t[j].overflowing_sub(n[j]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            out[j] = d;
            borrow = b1 | b2;
        }
        if borrow && t[k] == 0 {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// `base^exp` as a residue. Fixed window: sixteen powers of the base
    /// are tabled, and every window of the exponent, a zero one included,
    /// costs four squarings and one multiplication by a table entry — the
    /// sequence of operations follows the exponent's length, not its bits.
    /// Which entry is read still does: this is not a constant-time claim.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        let k = self.n.limbs.len();
        let mut base = if base < &self.n {
            base.limbs.clone()
        } else {
            base.rem(&self.n).expect("modulus nonzero").limbs
        };
        base.resize(k, 0);

        const ENTRIES: usize = 1 << WINDOW;
        let mut buf = vec![0u64; (ENTRIES + 3) * k + 2];
        let (table, rest) = buf.split_at_mut(ENTRIES * k);
        let (mut acc, rest) = rest.split_at_mut(k);
        let (mut tmp, t) = rest.split_at_mut(k);
        table[..k].copy_from_slice(&self.one);
        self.mul(&mut table[k..2 * k], &base, &self.r2, t);
        for i in 2..ENTRIES {
            let (done, next) = table.split_at_mut(i * k);
            self.mul(&mut next[..k], &done[(i - 1) * k..], &done[k..2 * k], t);
        }
        let entry = |w: usize| {
            let digit = (exp.limbs[w * WINDOW / 64] >> (w * WINDOW % 64)) as usize % ENTRIES;
            &table[digit * k..(digit + 1) * k]
        };

        // The top window is copied, not multiplied in; an exponent of zero
        // has no window and leaves the residue of 1.
        let windows = exp.bit_len().div_ceil(WINDOW);
        acc.copy_from_slice(if windows == 0 { &self.one } else { entry(windows - 1) });
        for w in (0..windows.saturating_sub(1)).rev() {
            for _ in 0..WINDOW {
                self.mul(tmp, acc, acc, t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mul(tmp, acc, entry(w), t);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc.to_vec()
    }

    /// `base^exp mod n`.
    pub(crate) fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.n.limbs.len();
        let residue = self.pow(base, exp);
        let mut buf = vec![0u64; 3 * k + 2];
        let (out, rest) = buf.split_at_mut(k);
        let (unit, t) = rest.split_at_mut(k);
        unit[0] = 1;
        self.mul(out, &residue, unit, t);
        buf.truncate(k);
        let mut plain = BigUint { limbs: buf };
        plain.normalize();
        plain
    }

    /// One Miller–Rabin round on `n`, where `n − 1 = d·2^s` with `d` odd:
    /// true iff `a^d ≡ 1` or `a^(d·2^r) ≡ −1 (mod n)` for some `r < s`. The
    /// power and the squarings after it never leave residue form.
    pub(crate) fn is_strong_probable_prime_to(&self, a: &BigUint, d: &BigUint, s: usize) -> bool {
        let k = self.n.limbs.len();
        let mut x = self.pow(a, d);
        if x == self.one || x == self.minus_one {
            return true;
        }
        let mut buf = vec![0u64; 2 * k + 2];
        let (square, t) = buf.split_at_mut(k);
        for _ in 1..s {
            self.mul(square, &x, &x, t);
            x.copy_from_slice(square);
            if x == self.minus_one {
                return true;
            }
        }
        false
    }
}

/// Signed subtraction on (magnitude, negative) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with same effective signs: combine magnitudes.
        (false, true) => (a.0.add(&b.0), false),  // a - (-b) = a + b
        (true, false) => (a.0.add(&b.0), true),   // -a - b = -(a+b)
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            // -a - (-b) = b - a
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x{}", crate::encode::hex_encode(&self.to_bytes_be()))?;
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_limb(CHUNK);
            digits.push(r.to_string());
            cur = q;
        }
        let mut out = String::new();
        for (i, d) in digits.iter().rev().enumerate() {
            if i == 0 {
                out.push_str(d);
            } else {
                out.push_str(&format!("{d:0>19}"));
            }
        }
        write!(f, "{out}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_bytes() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0]), BigUint::zero());
        let x = BigUint::from_bytes_be(&[1, 0]);
        assert_eq!(x, n(256));
        assert_eq!(x.to_bytes_be(), vec![1, 0]);
        assert_eq!(n(0x1234).to_bytes_be(), vec![0x12, 0x34]);
        // Multi-limb roundtrip.
        let big = BigUint::from_bytes_be(&[0xff; 25]);
        assert_eq!(big.to_bytes_be(), vec![0xff; 25]);
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(n(0x1234).to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2).unwrap(), vec![0, 0]);
        assert!(n(0x123456).to_bytes_be_padded(2).is_err());
    }

    #[test]
    fn bit_accessors() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(n(1).bit_len(), 1);
        assert_eq!(n(255).bit_len(), 8);
        assert_eq!(n(256).bit_len(), 9);
        let x = BigUint::one().shl(127);
        assert_eq!(x.bit_len(), 128);
        assert!(x.bit(127));
        assert!(!x.bit(126));
        assert!(!x.bit(500));
        assert!(n(6).is_even());
        assert!(!n(7).is_even());
        assert!(BigUint::zero().is_even());
    }

    #[test]
    fn add_sub_basic() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(u64::MAX).add(&n(1)), BigUint::one().shl(64));
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(5).sub(&n(5)), BigUint::zero());
        assert_eq!(BigUint::one().shl(64).sub(&n(1)), n(u64::MAX));
        assert!(n(3).checked_sub(&n(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(1).sub(&n(2));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(n(6).mul(&n(7)), n(42));
        assert_eq!(n(0).mul(&n(7)), BigUint::zero());
        let x = n(u64::MAX);
        let sq = x.mul(&x);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&n(1));
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(3), n(8));
        assert_eq!(n(8).shr(3), n(1));
        assert_eq!(n(1).shl(64).shr(64), n(1));
        assert_eq!(n(1).shl(65).shr(1), BigUint::one().shl(64));
        assert_eq!(n(0xff).shl(0), n(0xff));
        assert_eq!(n(0xff).shr(0), n(0xff));
        assert_eq!(n(0xff).shr(100), BigUint::zero());
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = n(17).div_rem(&n(5)).unwrap();
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(5).div_rem(&n(17)).unwrap();
        assert_eq!((q, r), (BigUint::zero(), n(5)));
        assert!(n(5).div_rem(&BigUint::zero()).is_err());
    }

    #[test]
    fn div_rem_multi_limb() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let abits = 1 + (rng.gen::<usize>() % 512);
            let bbits = 1 + (rng.gen::<usize>() % 320);
            let a = BigUint::random_bits(&mut rng, abits);
            let b = BigUint::random_bits(&mut rng, bbits);
            let (q, r) = a.div_rem(&b).unwrap();
            assert!(r < b, "remainder must be < divisor");
            assert_eq!(q.mul(&b).add(&r), a, "a = q*b + r");
        }
    }

    #[test]
    fn rem_limb_matches_div_rem() {
        let mut rng = StdRng::seed_from_u64(43);
        assert_eq!(BigUint::zero().rem_limb(7), 0);
        for _ in 0..200 {
            let bits = 1 + (rng.gen::<usize>() % 700);
            let a = BigUint::random_bits(&mut rng, bits);
            let d = rng.gen::<u64>() >> (rng.gen::<u32>() % 64) | 1;
            assert_eq!(n(a.rem_limb(d)), a.rem(&n(d)).unwrap(), "{a:?} mod {d}");
        }
    }

    #[test]
    fn div_rem_knuth_addback_path() {
        // Construct a case known to trigger the rare D6 add-back step:
        // u = b^2/2, v slightly above b/2 style values.
        let b64 = BigUint::one().shl(64);
        let u = b64.shl(64).sub(&BigUint::one().shl(32)); // 2^128 - 2^32
        let v = b64.sub(&n(1)); // 2^64 - 1
        let (q, r) = u.div_rem(&v).unwrap();
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn modpow_known_values() {
        // 4^13 mod 497 = 445 (classic example)
        assert_eq!(n(4).modpow(&n(13), &n(497)).unwrap(), n(445));
        // Fermat: 2^(p-1) mod p = 1 for prime p
        assert_eq!(n(2).modpow(&n(1008), &n(1009)).unwrap(), n(1));
        // exponent zero
        assert_eq!(n(7).modpow(&BigUint::zero(), &n(13)).unwrap(), n(1));
        // modulus one
        assert_eq!(n(7).modpow(&n(3), &n(1)).unwrap(), BigUint::zero());
        assert!(n(7).modpow(&n(3), &BigUint::zero()).is_err());
    }

    #[test]
    fn modpow_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let base = BigUint::random_bits(&mut rng, 40);
            let exp = rng.gen::<u64>() % 50;
            let m = BigUint::random_bits(&mut rng, 50);
            let fast = base.modpow(&n(exp), &m).unwrap();
            let mut naive = BigUint::one().rem(&m).unwrap();
            for _ in 0..exp {
                naive = naive.mul(&base).rem(&m).unwrap();
            }
            assert_eq!(fast, naive);
        }
    }

    #[test]
    fn both_modpow_arms_agree_on_odd_moduli() {
        let mut rng = StdRng::seed_from_u64(8);
        for bits in [2usize, 63, 64, 65, 128, 521] {
            let m = BigUint::random_bits(&mut rng, bits).shl(1).add(&n(1));
            let base = BigUint::random_bits(&mut rng, bits + 70);
            let exp = BigUint::random_bits(&mut rng, bits);
            assert_eq!(
                base.modpow(&exp, &m).unwrap(),
                base.modpow_by_division(&exp, &m).unwrap(),
                "{base:?} ^ {exp:?} mod {m:?}"
            );
        }
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(n(12).gcd(&n(18)).unwrap(), n(6));
        assert_eq!(n(17).gcd(&n(31)).unwrap(), n(1));
        assert_eq!(BigUint::zero().gcd(&n(5)).unwrap(), n(5));
        let inv = n(3).mod_inverse(&n(11)).unwrap();
        assert_eq!(inv, n(4)); // 3*4 = 12 ≡ 1 mod 11
        assert!(n(4).mod_inverse(&n(8)).is_err()); // gcd 4
        assert!(n(3).mod_inverse(&n(1)).is_err());
    }

    #[test]
    fn mod_inverse_random() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let m = BigUint::random_bits(&mut rng, 128);
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() || a.gcd(&m).unwrap() != BigUint::one() {
                continue;
            }
            let inv = a.mod_inverse(&m).unwrap();
            assert_eq!(a.mul(&inv).rem(&m).unwrap(), BigUint::one());
            assert!(inv < m);
        }
    }

    #[test]
    fn ordering() {
        assert!(n(1) < n(2));
        assert!(BigUint::one().shl(64) > n(u64::MAX));
        assert_eq!(n(5).cmp(&n(5)), Ordering::Equal);
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [1usize, 8, 63, 64, 65, 256, 511] {
            let x = BigUint::random_bits(&mut rng, bits);
            assert_eq!(x.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let bound = n(1000);
        for _ in 0..100 {
            let x = BigUint::random_below(&mut rng, &bound);
            assert!(x < bound);
        }
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(n(1234567890).to_string(), "1234567890");
        // 2^64 = 18446744073709551616
        assert_eq!(BigUint::one().shl(64).to_string(), "18446744073709551616");
        // 10^19 boundary
        assert_eq!(
            n(10_000_000_000_000_000_000).to_string(),
            "10000000000000000000"
        );
    }
}
