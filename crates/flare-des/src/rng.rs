//! Deterministic random-variate helpers.
//!
//! All stochastic elements of the simulations (packet interarrival jitter,
//! host imbalance, value generation) are driven by seeded [`rand::rngs::StdRng`]
//! instances so every experiment is exactly reproducible from its seed.
//!
//! The paper models host/network-induced jitter by generating packets "with a
//! random and exponentially distributed arrival rate" (Section 6.4);
//! [`exp_time`] provides that variate by inverse-transform sampling, avoiding
//! an extra dependency on `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::Time;

/// Derive an independent stream from `(seed, stream)`.
///
/// Uses SplitMix64 finalization to decorrelate streams so per-host RNGs can
/// be derived from one experiment seed.
pub fn rng_stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)))
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sample an exponentially distributed duration with the given mean.
///
/// Inverse-transform: `-mean * ln(1 - U)` with `U ~ Uniform[0, 1)`. The
/// result is rounded to whole nanoseconds and clamped to at least 1 so an
/// arrival process can never schedule two events at the same instant with
/// zero spacing (which would break interarrival bookkeeping).
pub fn exp_time<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> Time {
    debug_assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.random::<f64>();
    let x = -mean * (1.0 - u).ln();
    (x.round() as u64).max(1)
}

/// Sample a standard normal variate via Box–Muller (used by workloads).
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rngs_are_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut a = rng_stream(42, 0);
        let mut b = rng_stream(42, 1);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exp_time_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(7);
        let mean = 1000.0;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp_time(&mut rng, mean)).sum();
        let observed = total as f64 / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn exp_time_is_strictly_positive() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(exp_time(&mut rng, 0.01) >= 1);
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn splitmix_is_nontrivial() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
