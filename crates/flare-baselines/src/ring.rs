//! Rabenseifner (ring) allreduce — the host-based dense baseline.
//!
//! Two phases over a logical ring of `P` hosts (paper Section 1): a
//! scatter-reduce of `P−1` steps (each host ends up owning one fully
//! reduced chunk of `Z/P` elements) and an allgather of `P−1` steps
//! (the owned chunks circulate until everyone has everything). Each host
//! transmits `2(P−1)·Z/P ≈ 2Z` bytes — twice the in-network allreduce.
//!
//! On the network simulator, [`RingHost`] runs [`schedule::ring`] in
//! MTU-sized packets, so transfers pipeline across hops.

use std::ops::Range;

use flare_core::dtype::Element;
use flare_core::host::ResultSink;
use flare_core::op::ReduceOp;
use flare_net::NodeId;

use crate::host::{DensePayload, ScheduleHost};
use crate::schedule;

/// Pure-function ring allreduce over one vector per host; returns the
/// common result (identical on every host). Its users are tests:
/// `tests/baselines_equivalence.rs` checks the simulated ring against it,
/// and the test executor of [`crate::schedule`] the ring schedule.
pub fn ring_allreduce<T: Element, O: ReduceOp<T>>(op: &O, inputs: &[Vec<T>]) -> Vec<T> {
    let p = inputs.len();
    assert!(p >= 1);
    let z = inputs[0].len();
    let bounds = chunk_bounds(z, p);
    // Scatter-reduce: after P−1 steps host r owns chunk (r+1) mod p.
    let mut state: Vec<Vec<T>> = inputs.to_vec();
    for s in 0..p.saturating_sub(1) {
        // Every host sends chunk (r - s) mod p to host (r + 1) mod p.
        let sent: Vec<Vec<T>> = (0..p)
            .map(|r| {
                let c = (r + p - s % p) % p;
                state[r][bounds[c].clone()].to_vec()
            })
            .collect();
        for (r, st) in state.iter_mut().enumerate() {
            let from = (r + p - 1) % p;
            let c = (from + p - s % p) % p;
            for (dst, src) in st[bounds[c].clone()].iter_mut().zip(&sent[from]) {
                *dst = op.combine(*dst, *src);
            }
        }
    }
    // Host r now owns chunk (r+1) mod p fully reduced; gather them all.
    let mut result = vec![op.identity(); z];
    for (r, st) in state.iter().enumerate() {
        let chunk = bounds[(r + 1) % p].clone();
        result[chunk.clone()].copy_from_slice(&st[chunk]);
    }
    result
}

/// Chunk boundaries: `z` elements into `p` near-equal chunks, the first
/// `z mod p` of them one element longer.
pub(crate) fn chunk_bounds(z: usize, p: usize) -> Vec<Range<usize>> {
    let start = |i: usize| i * (z / p) + i.min(z % p);
    (0..p).map(|i| start(i)..start(i + 1)).collect()
}

/// Ring allreduce host program for the network simulator.
pub type RingHost<T, O> = ScheduleHost<DensePayload<T, O>>;

impl<T: Element, O: ReduceOp<T>> RingHost<T, O> {
    /// Create rank `rank` of a ring over `peers` (all hosts, rank order).
    pub fn new(
        rank: usize,
        peers: Vec<NodeId>,
        flow: u32,
        op: O,
        data: Vec<T>,
        segment_bytes: usize,
        sink: ResultSink<T>,
    ) -> Self {
        assert!(segment_bytes >= T::WIRE_BYTES);
        let schedule = schedule::ring(peers.len(), rank, data.len());
        let per_seg = segment_bytes / T::WIRE_BYTES;
        let payload = DensePayload { op, data, per_seg };
        Self::from_schedule(peers, flow, schedule, payload, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_core::op::{golden_reduce, Sum};

    fn inputs(p: usize, z: usize) -> Vec<Vec<i32>> {
        (0..p)
            .map(|r| (0..z).map(|i| (r * 1000 + i) as i32).collect())
            .collect()
    }

    #[test]
    fn functional_ring_matches_golden() {
        for p in [2usize, 3, 4, 7, 8] {
            for z in [p, 17, 64] {
                let ins = inputs(p, z);
                assert_eq!(
                    ring_allreduce(&Sum, &ins),
                    golden_reduce(&Sum, &ins),
                    "p={p} z={z}"
                );
            }
        }
    }

    #[test]
    fn functional_ring_single_host_is_identity() {
        let ins = inputs(1, 8);
        assert_eq!(ring_allreduce(&Sum, &ins), ins[0]);
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for (z, p) in [(10, 3), (64, 8), (7, 7), (5, 8)] {
            let b = chunk_bounds(z, p);
            assert_eq!(b.len(), p);
            assert_eq!(b[0].start, 0);
            assert_eq!(b[p - 1].end, z);
            for w in b.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn chunk_schedule_ends_with_ownership() {
        // After P−1 scatter steps, rank r has fully reduced chunk (r+1)%P:
        // what rank 1 sends at step s is what rank 2 receives at step s,
        // and rank 2's last scatter step (step 2) folds in chunk 3.
        let sender = schedule::ring(4, 1, 64);
        let receiver = schedule::ring(4, 2, 64);
        for (s, (a, b)) in sender.iter().zip(&receiver).enumerate() {
            assert_eq!((a.to, b.from), (2, 1), "step {s}");
            assert_eq!(a.send, b.recv, "step {s}");
        }
        let bounds = chunk_bounds(64, 4);
        assert!(receiver[2].fold && !receiver[3].fold);
        assert_eq!(receiver[2].recv, bounds[3]);
    }
}
