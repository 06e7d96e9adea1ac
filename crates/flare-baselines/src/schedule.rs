//! Host-based allreduce algorithms as data: a pure generator of
//! `(p, rank, elems)` gives one rank's list of [`Step`]s, which the
//! [`ScheduleHost`](crate::ScheduleHost) runs on the network simulator.

use std::ops::Range;

use crate::ring::chunk_bounds;

/// One step of one rank: send the elements `send` to rank `to`, receive
/// the elements `recv` from rank `from`, and fold what arrives into the
/// rank's own values (`fold`) or overwrite them with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The rank this step sends to.
    pub to: usize,
    /// The elements it sends.
    pub send: Range<usize>,
    /// The rank this step receives from.
    pub from: usize,
    /// The elements it receives.
    pub recv: Range<usize>,
    /// Fold the received elements in, or overwrite with them.
    pub fold: bool,
}

/// Ring allreduce (paper Section 1) over `elems` elements cut into `p`
/// near-equal chunks: `P−1` folding steps of scatter-reduce, after which
/// rank `r` owns chunk `r+1` fully reduced, then `P−1` overwriting steps
/// of allgather. At step `s` every rank sends chunk `rank − s` (mod `P`)
/// to its successor, in both phases.
pub fn ring(p: usize, rank: usize, elems: usize) -> Vec<Step> {
    assert!(p >= 2, "ring needs at least two hosts");
    let bounds = chunk_bounds(elems, p);
    let chunk = |r: usize, s: usize| bounds[(r + 2 * p - s) % p].clone();
    let (to, from) = ((rank + 1) % p, (rank + p - 1) % p);
    (0..2 * (p - 1))
        .map(|s| Step {
            to,
            send: chunk(rank, s),
            from,
            recv: chunk(from, s),
            fold: s < p - 1,
        })
        .collect()
}

/// Recursive doubling over `elems` elements: `log₂P` steps, each
/// exchanging everything with partner `rank XOR 2^s` and folding.
pub fn recursive_doubling(p: usize, rank: usize, elems: usize) -> Vec<Step> {
    assert!(p.is_power_of_two(), "recursive doubling needs 2^k ranks");
    (0..p.trailing_zeros())
        .map(|s| {
            let peer = rank ^ (1 << s);
            Step {
                to: peer,
                send: 0..elems,
                from: peer,
                recv: 0..elems,
                fold: true,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recursive_doubling_allreduce, ring_allreduce};
    use flare_core::dtype::Element;
    use flare_core::op::{golden_reduce, Custom, ReduceOp, Sum};
    use flare_model::fabric::{recdouble_bytes_per_host, ring_bytes_per_host};

    type Generator = fn(usize, usize, usize) -> Vec<Step>;

    /// Run every rank's schedule over in-memory vectors, step by step, and
    /// check at each step that what a rank receives is what its `from`
    /// sends to it.
    fn execute<T: Element, O: ReduceOp<T>>(
        op: &O,
        gen: Generator,
        inputs: &[Vec<T>],
    ) -> Vec<Vec<T>> {
        let (p, elems) = (inputs.len(), inputs[0].len());
        let schedules: Vec<Vec<Step>> = (0..p).map(|r| gen(p, r, elems)).collect();
        let mut state = inputs.to_vec();
        for s in 0..schedules[0].len() {
            let sent: Vec<Vec<T>> = (0..p)
                .map(|r| state[r][schedules[r][s].send.clone()].to_vec())
                .collect();
            for (r, values) in state.iter_mut().enumerate() {
                let step = &schedules[r][s];
                let theirs = &schedules[step.from][s];
                assert_eq!(theirs.to, r, "step {s}: rank {} sends elsewhere", step.from);
                assert_eq!(theirs.send, step.recv, "step {s}: rank {r} receives");
                for (mine, &v) in values[step.recv.clone()].iter_mut().zip(&sent[step.from]) {
                    *mine = if step.fold { op.combine(*mine, v) } else { v };
                }
            }
        }
        state
    }

    fn inputs(p: usize, z: usize) -> Vec<Vec<i32>> {
        (0..p)
            .map(|r| (0..z).map(|i| (r * 1000 + i * 7) as i32).collect())
            .collect()
    }

    /// Bytes rank `rank` sends under `gen`, at 4 bytes an element.
    fn sent_bytes(gen: Generator, p: usize, rank: usize, elems: usize) -> u64 {
        let steps = gen(p, rank, elems);
        steps.iter().map(|s| 4 * s.send.len() as u64).sum()
    }

    #[test]
    fn ring_schedule_matches_the_functional_ring_bit_for_bit() {
        // A non-associative, non-commutative operator: only the same
        // operands in the same order give the same bits.
        let op = Custom::new("na", 0i32, false, |a: i32, b: i32| {
            a.wrapping_mul(3).wrapping_sub(b)
        });
        for p in 2..=16 {
            for z in [1, p - 1, p, 17, 64] {
                let ins = inputs(p, z);
                let want = ring_allreduce(&op, &ins);
                for (r, got) in execute(&op, ring, &ins).iter().enumerate() {
                    assert_eq!(*got, want, "p={p} z={z} rank {r}");
                }
                assert_eq!(ring_allreduce(&Sum, &ins), golden_reduce(&Sum, &ins));
            }
        }
    }

    #[test]
    fn recursive_doubling_schedule_matches_its_functional_reference() {
        for p in [2usize, 4, 8, 16] {
            for z in [1, 33] {
                let ins = inputs(p, z);
                let want = recursive_doubling_allreduce(&Sum, &ins);
                assert_eq!(execute(&Sum, recursive_doubling, &ins), want, "p={p} z={z}");
            }
        }
    }

    #[test]
    fn each_rank_sends_the_closed_form_bytes() {
        for p in [2usize, 4, 8, 16, 64] {
            let z = 64 * p;
            let z_bytes = 4 * z as u64;
            for rank in 0..p {
                let ring_sent = sent_bytes(ring, p, rank, z);
                assert_eq!(ring_sent, ring_bytes_per_host(z_bytes, p), "p={p}");
                let rd_sent = sent_bytes(recursive_doubling, p, rank, z);
                assert_eq!(rd_sent, recdouble_bytes_per_host(z_bytes, p), "p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn recursive_doubling_rejects_non_power_of_two() {
        recursive_doubling(6, 0, 4);
    }
}
