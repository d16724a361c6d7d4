//! Stand-in for `rand` 0.8: `Rng`, `RngCore`, `SeedableRng` and `rngs::StdRng`.
//!
//! `StdRng` is xoshiro256++ seeded through splitmix64. It is not the published
//! crate's ChaCha12 generator, so seeded streams differ from a registry build;
//! the ig-* crates only need a stream that is a pure function of the seed.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::draw(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
}

/// The user-facing generator interface, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;

    /// Seed from the operating system, falling back to the clock.
    fn from_entropy() -> Self {
        use std::io::Read;
        let mut buf = [0u8; 8];
        let from_os = std::fs::File::open("/dev/urandom").and_then(|mut f| f.read_exact(&mut buf));
        let seed = match from_os {
            Ok(()) => u64::from_le_bytes(buf),
            Err(_) => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0x9E37_79B9_7F4A_7C15, |d| d.as_nanos() as u64),
        };
        Self::seed_from_u64(seed)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
        for _ in 0..10_000 {
            assert!((3..9u8).contains(&a.gen_range(3..9u8)));
            assert!((-5..=5i32).contains(&a.gen_range(-5..=5i32)));
            let f = a.gen_range(1.5..2.5);
            assert!((1.5..2.5).contains(&f));
            assert!((0.0..1.0).contains(&a.gen::<f64>()));
        }
        let mut buf = [0u8; 13];
        a.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&x| x != 0));
    }
}
