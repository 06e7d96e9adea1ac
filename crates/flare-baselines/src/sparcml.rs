//! SparCML-style host-based sparse allreduce (Renggli et al., SC'19) —
//! the "Host-Based Sparse" baseline of Figure 15.
//!
//! Recursive doubling over sparse `(index, value)` streams: in round `r`
//! each rank exchanges its accumulated sparse set with partner
//! `rank XOR 2^r` and merges (union, combining duplicate indexes). The
//! stream grows with the union — the *densification* effect — and SparCML
//! switches to a dense representation when the sparse encoding stops
//! paying off (pairs are 8 bytes vs 4 for dense f32 slots).

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};

use flare_core::dtype::{encode_slice, Element};
use flare_core::host::ResultSink;
use flare_core::op::ReduceOp;
use flare_net::{HostCtx, HostProgram, NetPacket, NodeId};

/// Pure-function SparCML allreduce over f32 pairs. Returns the dense
/// result (length `n`) shared by all ranks.
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

const KIND_SPARSE_SEG: u8 = 20;
const KIND_SPARSE_LAST: u8 = 21;
const KIND_DENSE_SEG: u8 = 22;
const KIND_DENSE_LAST: u8 = 23;

fn encode_pairs(pairs: &[(u32, f32)]) -> Bytes {
    let mut out = BytesMut::with_capacity(pairs.len() * 8);
    f32::write_pairs_le(pairs, &mut out);
    out.freeze()
}

fn decode_pairs(b: &[u8]) -> Vec<(u32, f32)> {
    b.chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                f32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect()
}

/// SparCML host program for the network simulator.
pub struct SparcmlHost<O> {
    rank: usize,
    peers: Vec<NodeId>,
    flow: u32,
    op: O,
    n: usize,
    /// Accumulated sparse state (kept sorted only at the end).
    acc: HashMap<u32, f32>,
    round: usize,
    segment_bytes: usize,
    /// Received-but-not-yet-merged pairs of the current round.
    inbox: Vec<(u32, f32)>,
    inbox_dense: Vec<f32>,
    dense_mode_rx: bool,
    sink: ResultSink<f32>,
    /// Total payload bytes sent (for traffic analysis).
    pub sent_bytes: u64,
}

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
        assert!(peers.len().is_power_of_two() && peers.len() >= 2);
        assert!(segment_bytes >= 8);
        Self {
            rank,
            peers,
            flow,
            op,
            n,
            acc: pairs.into_iter().collect(),
            round: 0,
            segment_bytes,
            inbox: Vec::new(),
            inbox_dense: Vec::new(),
            dense_mode_rx: false,
            sink,
            sent_bytes: 0,
        }
    }

    fn rounds(&self) -> usize {
        self.peers.len().trailing_zeros() as usize
    }

    fn partner(&self) -> NodeId {
        self.peers[self.rank ^ (1 << self.round)]
    }

    /// Send the accumulated state to this round's partner, sparse or dense
    /// depending on which encoding is smaller (SparCML's switch-over).
    fn send_round(&mut self, ctx: &mut HostCtx<'_>) {
        let dst = self.partner();
        let sparse_bytes = self.acc.len() * 8;
        let dense_bytes = self.n * 4;
        if sparse_bytes < dense_bytes {
            let mut pairs: Vec<(u32, f32)> = self.acc.iter().map(|(&i, &v)| (i, v)).collect();
            pairs.sort_unstable_by_key(|&(i, _)| i);
            let per_seg = self.segment_bytes / 8;
            let nsegs = pairs.len().div_ceil(per_seg).max(1);
            for (s, chunk) in pairs.chunks(per_seg.max(1)).enumerate() {
                let body = encode_pairs(chunk);
                let kind = if s + 1 == nsegs {
                    KIND_SPARSE_LAST
                } else {
                    KIND_SPARSE_SEG
                };
                self.sent_bytes += body.len() as u64;
                let pkt = crate::packet(dst, self.flow, s as u64, self.round as u16, kind, body);
                ctx.send(pkt);
            }
            if pairs.is_empty() {
                let pkt = crate::packet(
                    dst,
                    self.flow,
                    0,
                    self.round as u16,
                    KIND_SPARSE_LAST,
                    Bytes::new(),
                );
                ctx.send(pkt);
            }
        } else {
            // Dense switch-over: stream the full vector.
            let mut dense = vec![0.0f32; self.n];
            for (&i, &v) in &self.acc {
                dense[i as usize] = v;
            }
            let per_seg = self.segment_bytes / 4;
            let nsegs = self.n.div_ceil(per_seg);
            for s in 0..nsegs {
                let lo = s * per_seg;
                let hi = ((s + 1) * per_seg).min(self.n);
                let body = encode_slice(&dense[lo..hi]);
                let kind = if s + 1 == nsegs {
                    KIND_DENSE_LAST
                } else {
                    KIND_DENSE_SEG
                };
                self.sent_bytes += body.len() as u64;
                let pkt = crate::packet(dst, self.flow, lo as u64, self.round as u16, kind, body);
                ctx.send(pkt);
            }
        }
    }

    fn merge_round(&mut self, ctx: &mut HostCtx<'_>) {
        if self.dense_mode_rx {
            let dense = std::mem::take(&mut self.inbox_dense);
            for (i, v) in dense.into_iter().enumerate() {
                if v != 0.0 {
                    let e = self.acc.entry(i as u32).or_insert(0.0);
                    *e = self.op.combine(*e, v);
                }
            }
        } else {
            for (i, v) in std::mem::take(&mut self.inbox) {
                let e = self.acc.entry(i).or_insert(0.0);
                *e = self.op.combine(*e, v);
            }
        }
        self.dense_mode_rx = false;
        self.round += 1;
        if self.round < self.rounds() {
            self.send_round(ctx);
        } else {
            let mut out = vec![0.0f32; self.n];
            for (&i, &v) in &self.acc {
                out[i as usize] = v;
            }
            *self.sink.lock().expect("sink lock") = Some(out);
            ctx.mark_done();
        }
    }
}

impl<O: ReduceOp<f32> + 'static> HostProgram for SparcmlHost<O> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.send_round(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        if pkt.flow != self.flow {
            return;
        }
        debug_assert_eq!(pkt.child as usize, self.round, "rounds are lock-step");
        match pkt.kind {
            KIND_SPARSE_SEG | KIND_SPARSE_LAST => {
                self.inbox.extend(decode_pairs(&pkt.payload));
                if pkt.kind == KIND_SPARSE_LAST {
                    self.merge_round(ctx);
                }
            }
            KIND_DENSE_SEG | KIND_DENSE_LAST => {
                self.dense_mode_rx = true;
                if self.inbox_dense.is_empty() {
                    self.inbox_dense = vec![0.0; self.n];
                }
                let lo = pkt.block as usize;
                for (i, c) in pkt.payload.chunks_exact(4).enumerate() {
                    self.inbox_dense[lo + i] = f32::from_le_bytes(c.try_into().unwrap());
                }
                if pkt.kind == KIND_DENSE_LAST {
                    self.merge_round(ctx);
                }
            }
            _ => {}
        }
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
        assert_eq!(decode_pairs(&encode_pairs(&pairs)), pairs);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn functional_rejects_non_power_of_two() {
        sparcml_allreduce(&Sum, 8, &vec![vec![]; 3]);
    }
}
