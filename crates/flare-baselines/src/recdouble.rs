//! Recursive-doubling allreduce.
//!
//! `log₂P` rounds; in round `r` each rank exchanges its full working
//! vector with partner `rank XOR 2^r` and combines. Latency-optimal for
//! small messages (the regime where fixed-function offloads like Aries
//! and Tofu operate) but transmits `Z·log₂P` bytes per host — the
//! bandwidth baseline SparCML's sparse variant improves on.

use flare_core::dtype::Element;
use flare_core::op::ReduceOp;

/// Pure-function recursive-doubling allreduce. `inputs.len()` must be a
/// power of two. Combination order is partner-rank order, identical on
/// every host — deterministic, though different from `golden_reduce`'s
/// host order for non-associative operators.
pub fn recursive_doubling_allreduce<T: Element, O: ReduceOp<T>>(
    op: &O,
    inputs: &[Vec<T>],
) -> Vec<Vec<T>> {
    let p = inputs.len();
    assert!(p.is_power_of_two(), "recursive doubling needs 2^k ranks");
    let mut state: Vec<Vec<T>> = inputs.to_vec();
    let rounds = p.trailing_zeros();
    for r in 0..rounds {
        let stride = 1usize << r;
        let prev = state.clone();
        for (rank, cur) in state.iter_mut().enumerate() {
            let partner = rank ^ stride;
            // Fixed operand order (lower rank left) keeps all ranks
            // bitwise identical even for non-associative ops.
            for (i, v) in cur.iter_mut().enumerate() {
                let (a, b) = if rank < partner {
                    (prev[rank][i], prev[partner][i])
                } else {
                    (prev[partner][i], prev[rank][i])
                };
                *v = op.combine(a, b);
            }
        }
    }
    state
}

/// Bytes each host transmits: `Z·log₂P` (vs `≈2Z` for ring).
pub fn recdouble_bytes_per_host(z_bytes: u64, p: usize) -> u64 {
    z_bytes * p.trailing_zeros() as u64
}

/// Ring-allreduce bytes each host transmits: `2(P−1)/P·Z`.
pub fn ring_bytes_per_host(z_bytes: u64, p: usize) -> u64 {
    (2 * (p as u64 - 1) * z_bytes) / p as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_core::op::{golden_reduce, Sum};

    fn inputs(p: usize, z: usize) -> Vec<Vec<i32>> {
        (0..p)
            .map(|r| (0..z).map(|i| (r * 7 + i) as i32).collect())
            .collect()
    }

    #[test]
    fn matches_golden_for_associative_ops() {
        for p in [1usize, 2, 4, 8, 16] {
            let ins = inputs(p, 33);
            let out = recursive_doubling_allreduce(&Sum, &ins);
            let want = golden_reduce(&Sum, &ins);
            for (r, o) in out.iter().enumerate() {
                assert_eq!(*o, want, "rank {r}, p={p}");
            }
        }
    }

    #[test]
    fn all_ranks_agree_for_non_associative_ops() {
        let op = flare_core::op::Custom::new("na", 0i32, false, |a: i32, b: i32| {
            a.wrapping_mul(3).wrapping_sub(b)
        });
        let ins = inputs(8, 5);
        let out = recursive_doubling_allreduce(&op, &ins);
        for o in &out[1..] {
            assert_eq!(*o, out[0], "deterministic across ranks");
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_power_of_two() {
        recursive_doubling_allreduce(&Sum, &inputs(6, 4));
    }

    #[test]
    fn traffic_formulas() {
        assert_eq!(recdouble_bytes_per_host(1024, 8), 3072);
        assert_eq!(ring_bytes_per_host(1024, 8), 1792); // 2·7/8·1024
                                                        // Ring beats recursive doubling in bytes for P ≥ 4.
        for p in [4usize, 8, 64] {
            assert!(ring_bytes_per_host(1 << 20, p) < recdouble_bytes_per_host(1 << 20, p));
        }
    }
}
