//! SparCML-style host-based sparse allreduce (Renggli et al., SC'19) —
//! the "Host-Based Sparse" baseline of Figure 15.
//!
//! Recursive doubling over sparse `(index, value)` streams: in round `r`
//! each rank exchanges its accumulated sparse set with partner
//! `rank XOR 2^r` and merges (union, combining duplicate indexes). The
//! stream grows with the union — the *densification* effect — and SparCML
//! switches to a dense representation when the sparse encoding stops
//! paying off (pairs are 8 bytes vs 4 for dense f32 slots).

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use flare_core::dtype::{encode_slice, Element};
use flare_core::host::ResultSink;
use flare_core::op::ReduceOp;
use flare_net::{NetPacket, NodeId};

use crate::host::{segments, Payload, ScheduleHost, LAST};
use crate::schedule;

/// Pure-function SparCML allreduce over f32 pairs. Returns the dense
/// result (length `n`) shared by all ranks. Its user is
/// `tests/baselines_equivalence.rs`, which checks every rank of a
/// simulated [`SparcmlHost`] against it.
pub fn sparcml_allreduce<O: ReduceOp<f32>>(
    op: &O,
    n: usize,
    inputs: &[Vec<(u32, f32)>],
) -> Vec<f32> {
    let p = inputs.len();
    assert!(p.is_power_of_two(), "SparCML uses recursive doubling (2^k)");
    let mut state: Vec<HashMap<u32, f32>> = inputs
        .iter()
        .map(|pairs| pairs.iter().copied().collect())
        .collect();
    for r in 0..p.trailing_zeros() {
        let stride = 1usize << r;
        let prev = state.clone();
        for (rank, cur) in state.iter_mut().enumerate() {
            let partner = rank ^ stride;
            for (&i, &v) in &prev[partner] {
                cur.entry(i)
                    .and_modify(|acc| *acc = op.combine(*acc, v))
                    .or_insert(v);
            }
        }
    }
    let mut out = vec![0.0f32; n];
    for (&i, &v) in &state[0] {
        out[i as usize] = v;
    }
    out
}

/// Packet kinds, each with its round's-last twin: pairs (20, 21) and the
/// dense switch-over's segments (22, 23).
const KIND_PAIRS: u8 = 20;
const KIND_DENSE: u8 = 22;

fn encode_pairs(pairs: &[(u32, f32)]) -> Bytes {
    let mut out = BytesMut::with_capacity(pairs.len() * 8);
    f32::write_pairs_le(pairs, &mut out);
    out.freeze()
}

/// A rank's accumulated pair set over `n` elements: each round sends all
/// of it, as sorted pairs or, once those are no smaller, as the dense
/// vector (SparCML's switch-over), and merges what the partner sends. A
/// dense segment's zeros are absent pairs, so only an operator whose
/// identity is 0 switches over.
pub struct SparcmlPayload<O> {
    op: O,
    n: usize,
    acc: BTreeMap<u32, f32>,
    segment_bytes: usize,
}

impl<O: ReduceOp<f32>> SparcmlPayload<O> {
    fn merge(&mut self, (i, v): (u32, f32)) {
        let op = &self.op;
        self.acc
            .entry(i)
            .and_modify(|acc| *acc = op.combine(*acc, v))
            .or_insert(v);
    }

    fn dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        for (&i, &v) in &self.acc {
            out[i as usize] = v;
        }
        out
    }
}

impl<O: ReduceOp<f32>> Payload for SparcmlPayload<O> {
    type Elem = f32;

    fn send(&self, range: Range<usize>, mut emit: impl FnMut(u64, u8, Bytes)) {
        if self.acc.len() * 8 < self.n * 4 || self.op.identity() != 0.0 {
            let pairs: Vec<(u32, f32)> = self.acc.iter().map(|(&i, &v)| (i, v)).collect();
            for (s, seg, kind) in segments(&pairs, self.segment_bytes / 8, KIND_PAIRS) {
                emit(s as u64, kind, encode_pairs(seg));
            }
        } else {
            let (dense, per_seg) = (self.dense(), self.segment_bytes / 4);
            for (s, seg, kind) in segments(&dense[range.clone()], per_seg, KIND_DENSE) {
                emit((range.start + s * per_seg) as u64, kind, encode_slice(seg));
            }
        }
    }

    fn recv(&mut self, _fold: bool, pkt: &NetPacket) {
        if pkt.kind & !LAST == KIND_PAIRS {
            let mut pairs = Vec::new();
            f32::read_pairs_le(&pkt.payload, &mut pairs);
            pairs.into_iter().for_each(|p| self.merge(p));
        } else {
            for (k, c) in pkt.payload.chunks_exact(4).enumerate() {
                let v = f32::read_le(c);
                if v != 0.0 {
                    self.merge(((pkt.block as usize + k) as u32, v));
                }
            }
        }
    }

    fn take_result(&mut self) -> Vec<f32> {
        self.dense()
    }
}

/// SparCML host program for the network simulator.
pub type SparcmlHost<O> = ScheduleHost<SparcmlPayload<O>>;

impl<O: ReduceOp<f32>> SparcmlHost<O> {
    /// Create rank `rank` with its sparsified input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        peers: Vec<NodeId>,
        flow: u32,
        op: O,
        n: usize,
        pairs: Vec<(u32, f32)>,
        segment_bytes: usize,
        sink: ResultSink<f32>,
    ) -> Self {
        assert!(segment_bytes >= 8);
        let schedule = schedule::recursive_doubling(peers.len(), rank, n);
        let acc = pairs.into_iter().collect();
        let payload = SparcmlPayload {
            op,
            n,
            acc,
            segment_bytes,
        };
        Self::from_schedule(peers, flow, schedule, payload, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_core::op::Sum;
    use flare_workloads::{densify_f32, sparsify_random_k};

    #[test]
    fn functional_sparcml_matches_dense_reference() {
        let n = 4096;
        let p = 8;
        let inputs: Vec<Vec<(u32, f32)>> = (0..p)
            .map(|h| sparsify_random_k(42, h as u64, n, 0.02))
            .collect();
        let got = sparcml_allreduce(&Sum, n, &inputs);
        let mut want = vec![0.0f32; n];
        for pairs in &inputs {
            for (i, w) in densify_f32(pairs, n).into_iter().enumerate() {
                want[i] += w;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn pair_codec_roundtrips() {
        let pairs = vec![(0u32, 1.5f32), (1000, -2.0), (u32::MAX, 0.25)];
        let mut decoded = Vec::new();
        f32::read_pairs_le(&encode_pairs(&pairs), &mut decoded);
        assert_eq!(decoded, pairs);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn functional_rejects_non_power_of_two() {
        sparcml_allreduce(&Sum, 8, &vec![vec![]; 3]);
    }
}
