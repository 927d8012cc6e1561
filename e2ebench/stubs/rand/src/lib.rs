//! Offline stand-in for `rand` 0.8: `StdRng::seed_from_u64`, `gen`,
//! `gen_range` and `gen_bool`, backed by xoshiro256++ seeded through
//! splitmix64. The stream differs from the real crate's ChaCha12, so
//! trained models and generated traces differ from a registry build; it is
//! the same on every build of this benchmark, which is what a comparison
//! between two commits needs.

use std::ops::{Range, RangeInclusive};

/// The raw generator.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Values `Rng::gen` can produce.
pub trait Random {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Uniform in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Types `gen_range` can sample. One generic `SampleRange` impl per range
/// shape hangs off this trait, so an integer literal in a range infers its
/// type from the call site the way it does with the real crate.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: $t,
                high: $t,
                inclusive: bool,
            ) -> $t {
                let span = (high as i128 - low as i128) as u128 + u128::from(inclusive);
                assert!(span > 0, "cannot sample an empty range");
                // Multiply-shift maps 64 random bits onto the span; the bias
                // is below 2^-32 for every span this workspace asks for.
                let offset = (u128::from(rng.next_u64()) * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64, _: bool) -> f64 {
        assert!(low < high, "cannot sample an empty range");
        low + (high - low) * unit_f64(rng)
    }
}

/// Range shapes `gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(rng, low, high, true)
    }
}

/// The user-facing sampling methods, on every generator.
pub trait Rng: RngCore {
    fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside 0..=1");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! The one generator the workspace names.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // splitmix64 expands the seed; it never yields the all-zero
            // state xoshiro cannot leave.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
