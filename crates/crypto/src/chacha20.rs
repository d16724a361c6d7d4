//! ChaCha20 stream cipher (RFC 8439) — the `PROT P` data-channel cipher.
//!
//! §IIC of the paper notes that data-channel confidentiality is supported
//! but off by default because of its cost ("an order of magnitude slowdown
//! is not unusual"). Experiment E3 measures exactly that cost with this
//! cipher (plus an HMAC), so the implementation is a real keystream cipher
//! rather than a placeholder XOR — and a reasonably fast one: the state
//! words are assembled once per cipher, whole 64-byte blocks are XORed as
//! `u64` lanes, bulk data takes an AVX2 eight-blocks-at-once path when
//! the CPU supports it, and only sub-block tails fall back to
//! byte-at-a-time.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Assemble the 16-word initial state from key, counter and nonce.
fn build_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes([
            key[i * 4],
            key[i * 4 + 1],
            key[i * 4 + 2],
            key[i * 4 + 3],
        ]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    state
}

/// The 20-round core: returns the keystream block as 16 words.
fn chacha_core(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state.iter()) {
        *w = w.wrapping_add(*s);
    }
    working
}

/// AVX2 batch path: eight keystream blocks computed side by side, one
/// word per 256-bit register lane, XORed into 512 bytes of data without
/// ever serializing the keystream through memory. Selected at runtime via
/// CPU detection; every byte it produces is identical to the scalar path
/// (`vectorized_matches_scalar_reference` and the proptests pin this).
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::*;

    /// Bytes consumed per batch: 8 blocks × 64 bytes.
    pub const BATCH: usize = 512;

    /// Whether the batch path can run on this CPU (cached by std).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(_mm256_slli_epi32($v, $n), _mm256_srli_epi32($v, 32 - $n))
        };
    }

    macro_rules! qr {
        ($a:ident, $b:ident, $c:ident, $d:ident) => {
            $a = _mm256_add_epi32($a, $b);
            $d = rotl!(_mm256_xor_si256($d, $a), 16);
            $c = _mm256_add_epi32($c, $d);
            $b = rotl!(_mm256_xor_si256($b, $c), 12);
            $a = _mm256_add_epi32($a, $b);
            $d = rotl!(_mm256_xor_si256($d, $a), 8);
            $c = _mm256_add_epi32($c, $d);
            $b = rotl!(_mm256_xor_si256($b, $c), 7);
        };
    }

    /// Transpose an 8×8 matrix of `u32` held as 8 vectors: output row L
    /// is lane L of each input vector.
    #[inline(always)]
    unsafe fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256(u0, u4, 0x20),
            _mm256_permute2x128_si256(u1, u5, 0x20),
            _mm256_permute2x128_si256(u2, u6, 0x20),
            _mm256_permute2x128_si256(u3, u7, 0x20),
            _mm256_permute2x128_si256(u0, u4, 0x31),
            _mm256_permute2x128_si256(u1, u5, 0x31),
            _mm256_permute2x128_si256(u2, u6, 0x31),
            _mm256_permute2x128_si256(u3, u7, 0x31),
        ]
    }

    /// XOR eight consecutive keystream blocks (counters `state[12]` to
    /// `state[12] + 7`, wrapping like the scalar path) into `chunk`.
    ///
    /// # Safety
    /// The caller must have checked [`available`] first.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_batch(state: &[u32; 16], chunk: &mut [u8; BATCH]) {
        let mut v: [__m256i; 16] = [_mm256_setzero_si256(); 16];
        for w in 0..16 {
            v[w] = _mm256_set1_epi32(state[w] as i32);
        }
        v[12] = _mm256_add_epi32(v[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let init = v;
        let [mut x0, mut x1, mut x2, mut x3, mut x4, mut x5, mut x6, mut x7, mut x8, mut x9, mut x10, mut x11, mut x12, mut x13, mut x14, mut x15] =
            v;
        for _ in 0..10 {
            qr!(x0, x4, x8, x12);
            qr!(x1, x5, x9, x13);
            qr!(x2, x6, x10, x14);
            qr!(x3, x7, x11, x15);
            qr!(x0, x5, x10, x15);
            qr!(x1, x6, x11, x12);
            qr!(x2, x7, x8, x13);
            qr!(x3, x4, x9, x14);
        }
        // Keystream words 0–7 and 8–15 of each block, transposed so each
        // row is one block's contiguous 32 bytes.
        let lo = transpose8([
            _mm256_add_epi32(x0, init[0]),
            _mm256_add_epi32(x1, init[1]),
            _mm256_add_epi32(x2, init[2]),
            _mm256_add_epi32(x3, init[3]),
            _mm256_add_epi32(x4, init[4]),
            _mm256_add_epi32(x5, init[5]),
            _mm256_add_epi32(x6, init[6]),
            _mm256_add_epi32(x7, init[7]),
        ]);
        let hi = transpose8([
            _mm256_add_epi32(x8, init[8]),
            _mm256_add_epi32(x9, init[9]),
            _mm256_add_epi32(x10, init[10]),
            _mm256_add_epi32(x11, init[11]),
            _mm256_add_epi32(x12, init[12]),
            _mm256_add_epi32(x13, init[13]),
            _mm256_add_epi32(x14, init[14]),
            _mm256_add_epi32(x15, init[15]),
        ]);
        let base = chunk.as_mut_ptr();
        for lane in 0..8 {
            let p0 = base.add(lane * 64) as *mut __m256i;
            let p1 = base.add(lane * 64 + 32) as *mut __m256i;
            _mm256_storeu_si256(p0, _mm256_xor_si256(_mm256_loadu_si256(p0 as *const _), lo[lane]));
            _mm256_storeu_si256(p1, _mm256_xor_si256(_mm256_loadu_si256(p1 as *const _), hi[lane]));
        }
    }
}

/// XOR one whole 64-byte block with a keystream block, eight `u64` lanes
/// at a time. Keystream words serialize little-endian (RFC 8439 §2.3), so
/// a lane of two words is `w0 | w1 << 32` read/written via `from_le`/
/// `to_le` — on little-endian hardware this compiles to plain 64-bit XORs.
#[inline(always)]
fn xor_block64(chunk: &mut [u8], ks: &[u32; 16]) {
    debug_assert_eq!(chunk.len(), 64);
    for (lane, kw) in chunk.chunks_exact_mut(8).zip(ks.chunks_exact(2)) {
        let k = (kw[0] as u64) | ((kw[1] as u64) << 32);
        let v = u64::from_le_bytes(lane.try_into().expect("8-byte lane")) ^ k;
        lane.copy_from_slice(&v.to_le_bytes());
    }
}

/// Stateful ChaCha20 keystream: encrypts/decrypts a byte stream
/// incrementally (encryption and decryption are the same XOR operation).
pub struct ChaCha20 {
    /// Initial state (constants ‖ key ‖ counter ‖ nonce); word 12 is the
    /// live block counter, everything else is fixed at construction.
    state: [u32; 16],
    /// Serialized keystream of the most recent partially-consumed block.
    block: [u8; 64],
    /// Offset of the next unused keystream byte in `block` (64 = exhausted).
    block_off: usize,
    /// Whether the AVX2 8-block batch path is usable on this CPU.
    #[cfg(target_arch = "x86_64")]
    use_wide: bool,
}

impl ChaCha20 {
    /// Create a cipher positioned at block counter `initial_counter`
    /// (RFC 8439 uses 1 for payload when block 0 is reserved; we use 0).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        ChaCha20 {
            state: build_state(key, 0, nonce),
            block: [0u8; 64],
            block_off: 64,
            #[cfg(target_arch = "x86_64")]
            use_wide: wide::available(),
        }
    }

    /// Produce the next keystream block as words and advance the counter.
    #[inline(always)]
    fn next_block_words(&mut self) -> [u32; 16] {
        let words = chacha_core(&self.state);
        self.state[12] = self.state[12].wrapping_add(1);
        words
    }

    /// XOR the keystream into `data` in place.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut i = 0usize;
        // Drain keystream left over from a previous partial block.
        while i < data.len() && self.block_off < 64 {
            data[i] ^= self.block[self.block_off];
            i += 1;
            self.block_off += 1;
        }
        // Wide batches: eight blocks per AVX2 pass where the CPU allows.
        #[cfg(target_arch = "x86_64")]
        if self.use_wide {
            while data.len() - i >= wide::BATCH {
                let chunk: &mut [u8; wide::BATCH] =
                    (&mut data[i..i + wide::BATCH]).try_into().expect("512-byte chunk");
                // SAFETY: `use_wide` is only set when AVX2 is available.
                unsafe { wide::xor_batch(&self.state, chunk) };
                self.state[12] = self.state[12].wrapping_add(8);
                i += wide::BATCH;
            }
        }
        // Whole blocks: XOR straight from the keystream words, no
        // serialization into `block` and no per-byte loop.
        while data.len() - i >= 64 {
            let ks = self.next_block_words();
            xor_block64(&mut data[i..i + 64], &ks);
            i += 64;
        }
        // Sub-block tail: serialize one keystream block and keep the
        // unused remainder for the next call.
        if i < data.len() {
            let ks = self.next_block_words();
            for (b, w) in self.block.chunks_exact_mut(4).zip(ks.iter()) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            self.block_off = 0;
            while i < data.len() {
                data[i] ^= self.block[self.block_off];
                i += 1;
                self.block_off += 1;
            }
        }
    }

    /// One-shot convenience: returns `data ^ keystream(key, nonce)`.
    pub fn xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        ChaCha20::new(key, nonce).apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::hex_encode;

    /// The scalar reference: one keystream block serialized to bytes.
    fn chacha_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
        let words = chacha_core(&build_state(key, counter, nonce));
        let mut out = [0u8; 64];
        for (i, w) in words.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha_block(&key, 1, &nonce);
        assert_eq!(
            hex_encode(&block[..16]),
            "10f1e7e4d13b5915500fdd1fa32071c4"
        );
        assert_eq!(hex_encode(&block[48..]), "b5129cd1de164eb9cbd083e8a2503c4e");
    }

    /// RFC 8439 §2.4.2 encryption test vector ("Ladies and Gentlemen...").
    #[test]
    fn rfc8439_encrypt() {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plain = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        // RFC uses initial counter 1; advance one block manually.
        let mut cipher = ChaCha20::new(&key, &nonce);
        let mut skip = [0u8; 64];
        cipher.apply(&mut skip);
        let mut data = plain.to_vec();
        cipher.apply(&mut data);
        assert_eq!(
            hex_encode(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(
            hex_encode(&data[96..]),
            "5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let plain: Vec<u8> = (0u32..5000).map(|i| (i * 31 % 251) as u8).collect();
        let ct = ChaCha20::xor(&key, &nonce, &plain);
        assert_ne!(ct, plain);
        assert_eq!(ChaCha20::xor(&key, &nonce, &ct), plain);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let plain = vec![0xa5u8; 1000];
        let whole = ChaCha20::xor(&key, &nonce, &plain);
        let mut cipher = ChaCha20::new(&key, &nonce);
        let mut pieces = plain.clone();
        for chunk in pieces.chunks_mut(13) {
            cipher.apply(chunk);
        }
        assert_eq!(pieces, whole);
    }

    /// The vectorized path (whole blocks) and the scalar reference
    /// (`chacha_block` serialization) must agree byte for byte, at every
    /// chunking pattern that mixes tails and whole blocks.
    #[test]
    fn vectorized_matches_scalar_reference() {
        let key = [0x42u8; 32];
        let nonce = [0x17u8; 12];
        let plain: Vec<u8> = (0u32..4096).map(|i| (i * 131 % 256) as u8).collect();
        // Scalar reference: XOR against per-block serialized keystream.
        let mut reference = plain.clone();
        for (blk_idx, chunk) in reference.chunks_mut(64).enumerate() {
            let ks = chacha_block(&key, blk_idx as u32, &nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        // One-shot (hits the u64-lane path for all whole blocks).
        assert_eq!(ChaCha20::xor(&key, &nonce, &plain), reference);
        // Awkward chunkings (hit drain/whole/tail combinations).
        for chunk_size in [1usize, 7, 63, 64, 65, 100, 128, 1000] {
            let mut cipher = ChaCha20::new(&key, &nonce);
            let mut pieces = plain.clone();
            for chunk in pieces.chunks_mut(chunk_size) {
                cipher.apply(chunk);
            }
            assert_eq!(pieces, reference, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = [3u8; 32];
        let a = ChaCha20::xor(&key, &[0u8; 12], &[0u8; 64]);
        let b = ChaCha20::xor(&key, &[1u8; 12], &[0u8; 64]);
        assert_ne!(a, b);
    }
}
