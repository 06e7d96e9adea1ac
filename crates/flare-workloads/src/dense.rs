//! Dense vector generators (seeded, reproducible).

use rand::RngExt;

use flare_des::rng::{normal, rng_stream};

/// Uniform f32 values in `[lo, hi)`.
pub fn dense_uniform_f32(seed: u64, stream: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    assert!(hi > lo);
    let mut rng = rng_stream(seed, stream);
    (0..n)
        .map(|_| lo + rng.random::<f32>() * (hi - lo))
        .collect()
}

/// Uniform i32 values in `[lo, hi)`. Test input:
/// `tests/allreduce_correctness.rs` and `tests/session_api.rs` draw from it.
pub fn dense_i32(seed: u64, stream: u64, n: usize, lo: i32, hi: i32) -> Vec<i32> {
    assert!(hi > lo);
    let mut rng = rng_stream(seed, stream);
    (0..n).map(|_| rng.random_range(lo..hi)).collect()
}

/// Gradient-like values: mostly small normal noise with occasional large
/// spikes — the heavy-tailed distribution that makes top-k sparsification
/// effective in deep learning.
pub fn gradient_like_f32(seed: u64, stream: u64, n: usize) -> Vec<f32> {
    let mut rng = rng_stream(seed, stream);
    (0..n)
        .map(|_| {
            let base = normal(&mut rng) as f32 * 1e-3;
            if rng.random::<f32>() < 0.002 {
                base + normal(&mut rng) as f32 // rare large component
            } else {
                base
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_stream() {
        assert_eq!(
            dense_uniform_f32(1, 0, 64, 0.0, 1.0),
            dense_uniform_f32(1, 0, 64, 0.0, 1.0)
        );
        assert_ne!(
            dense_uniform_f32(1, 0, 64, 0.0, 1.0),
            dense_uniform_f32(1, 1, 64, 0.0, 1.0)
        );
        assert_ne!(
            dense_uniform_f32(1, 0, 64, 0.0, 1.0),
            dense_uniform_f32(2, 0, 64, 0.0, 1.0)
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        for v in dense_uniform_f32(3, 0, 10_000, -2.0, 5.0) {
            assert!((-2.0..5.0).contains(&v));
        }
        for v in dense_i32(3, 0, 10_000, -7, 9) {
            assert!((-7..9).contains(&v));
        }
    }

    #[test]
    fn gradient_like_is_heavy_tailed() {
        let v = gradient_like_f32(7, 0, 200_000);
        let big = v.iter().filter(|x| x.abs() > 0.1).count();
        let small = v.iter().filter(|x| x.abs() <= 0.01).count();
        assert!(big > 50, "spikes present: {big}");
        assert!(small > v.len() * 9 / 10, "mostly noise: {small}");
    }
}
