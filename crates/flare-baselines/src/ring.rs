//! Rabenseifner (ring) allreduce — the host-based dense baseline.
//!
//! Two phases over a logical ring of `P` hosts (paper Section 1): a
//! scatter-reduce of `P−1` steps (each host ends up owning one fully
//! reduced chunk of `Z/P` elements) and an allgather of `P−1` steps
//! (the owned chunks circulate until everyone has everything). Each host
//! transmits `2(P−1)·Z/P ≈ 2Z` bytes — twice the in-network allreduce.
//!
//! The network-simulator implementation segments each chunk into MTU-sized
//! packets so transfers pipeline across hops; step `s+1` starts only after
//! step `s`'s incoming chunk fully arrived (the ring dependency). Segments
//! of one flow follow one ECMP path and links are FIFO, so a last-segment
//! flag suffices to detect chunk completion.

use flare_core::dtype::{decode_slice, encode_slice, Element};
use flare_core::host::ResultSink;
use flare_core::op::ReduceOp;
use flare_net::{HostCtx, HostProgram, NetPacket, NodeId};

/// Pure-function ring allreduce over one vector per host; returns the
/// common result (identical on every host). Used as the functional
/// baseline and to validate the simulated version.
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
                let (lo, hi) = bounds[c];
                state[r][lo..hi].to_vec()
            })
            .collect();
        for (r, st) in state.iter_mut().enumerate() {
            let from = (r + p - 1) % p;
            let c = (from + p - s % p) % p;
            let (lo, hi) = bounds[c];
            for (dst, src) in st[lo..hi].iter_mut().zip(&sent[from]) {
                *dst = op.combine(*dst, *src);
            }
        }
    }
    // Host r now owns chunk (r+1) mod p fully reduced; gather them all.
    let mut result = vec![op.identity(); z];
    for (r, st) in state.iter().enumerate() {
        let c = (r + 1) % p;
        let (lo, hi) = bounds[c];
        result[lo..hi].copy_from_slice(&st[lo..hi]);
    }
    result
}

/// Chunk boundaries: `z` elements into `p` near-equal chunks.
pub fn chunk_bounds(z: usize, p: usize) -> Vec<(usize, usize)> {
    let base = z / p;
    let extra = z % p;
    let mut bounds = Vec::with_capacity(p);
    let mut lo = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

const KIND_SEG: u8 = 10;
const KIND_LAST_SEG: u8 = 11;

/// Ring allreduce host program for the network simulator.
pub struct RingHost<T: Element, O> {
    rank: usize,
    peers: Vec<NodeId>,
    flow: u32,
    op: O,
    data: Vec<T>,
    bounds: Vec<(usize, usize)>,
    segment_elems: usize,
    /// Global step: 0..P−1 scatter, P−1..2(P−1) gather.
    step: usize,
    recv_elems_this_step: usize,
    sink: ResultSink<T>,
    /// Bytes sent by this host (payloads), for traffic cross-checks.
    pub sent_bytes: u64,
}

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
        let p = peers.len();
        assert!(p >= 2, "ring needs at least two hosts");
        assert!(segment_bytes >= T::WIRE_BYTES);
        let bounds = chunk_bounds(data.len(), p);
        Self {
            rank,
            peers,
            flow,
            op,
            data,
            bounds,
            segment_elems: segment_bytes / T::WIRE_BYTES,
            step: 0,
            recv_elems_this_step: 0,
            sink,
            sent_bytes: 0,
        }
    }

    fn p(&self) -> usize {
        self.peers.len()
    }

    /// Chunk this host *sends* at `step`.
    fn send_chunk(&self, step: usize) -> usize {
        let p = self.p();
        if step < p - 1 {
            (self.rank + p - step % p) % p
        } else {
            let s = step - (p - 1);
            (self.rank + 1 + p - s % p) % p
        }
    }

    /// Chunk this host *receives* at `step` (what its predecessor sends).
    fn recv_chunk(&self, step: usize) -> usize {
        let p = self.p();
        let pred = (self.rank + p - 1) % p;
        if step < p - 1 {
            (pred + p - step % p) % p
        } else {
            let s = step - (p - 1);
            (pred + 1 + p - s % p) % p
        }
    }

    fn total_steps(&self) -> usize {
        2 * (self.p() - 1)
    }

    fn send_step(&mut self, ctx: &mut HostCtx<'_>) {
        let chunk = self.send_chunk(self.step);
        let (lo, hi) = self.bounds[chunk];
        let next = self.peers[(self.rank + 1) % self.p()];
        let mut off = lo;
        while off < hi {
            let end = (off + self.segment_elems).min(hi);
            let body = encode_slice(&self.data[off..end]);
            let kind = if end == hi { KIND_LAST_SEG } else { KIND_SEG };
            self.sent_bytes += body.len() as u64;
            // The block is the absolute element offset.
            let pkt = crate::packet(next, self.flow, off as u64, self.step as u16, kind, body);
            ctx.send(pkt);
            off = end;
        }
    }

    fn finish(&mut self, ctx: &mut HostCtx<'_>) {
        *self.sink.lock().expect("sink lock") = Some(std::mem::take(&mut self.data));
        ctx.mark_done();
    }
}

impl<T: Element, O: ReduceOp<T>> HostProgram for RingHost<T, O> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.send_step(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        if pkt.flow != self.flow {
            return;
        }
        debug_assert_eq!(pkt.child as usize, self.step, "ring steps are in order");
        let vals: Vec<T> = decode_slice(&pkt.payload);
        let off = pkt.block as usize;
        let scatter = self.step < self.p() - 1;
        for (i, v) in vals.iter().enumerate() {
            let dst = &mut self.data[off + i];
            *dst = if scatter {
                self.op.combine(*dst, *v)
            } else {
                *v
            };
        }
        self.recv_elems_this_step += vals.len();
        let chunk = self.recv_chunk(self.step);
        let (lo, hi) = self.bounds[chunk];
        if self.recv_elems_this_step < hi - lo {
            return;
        }
        // Step complete: advance and send the next one.
        self.recv_elems_this_step = 0;
        self.step += 1;
        if self.step < self.total_steps() {
            self.send_step(ctx);
        } else {
            self.finish(ctx);
        }
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
            assert_eq!(b[0].0, 0);
            assert_eq!(b[p - 1].1, z);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn chunk_schedule_ends_with_ownership() {
        // After P−1 scatter steps, rank r has fully reduced chunk (r+1)%P:
        // verify the send/recv chunk schedule is consistent (what r sends
        // at step s is what r+1 receives at step s).
        let sink = flare_core::host::result_sink();
        let h = RingHost::new(
            1,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            1,
            Sum,
            vec![0i32; 64],
            1024,
            sink,
        );
        for s in 0..h.total_steps() {
            let sent = h.send_chunk(s);
            // Receiver is rank 2; its recv_chunk must equal what rank 1
            // sends. Emulate rank 2's view:
            let sink2 = flare_core::host::result_sink();
            let h2 = RingHost::new(
                2,
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                1,
                Sum,
                vec![0i32; 64],
                1024,
                sink2,
            );
            assert_eq!(h2.recv_chunk(s), sent, "step {s}");
        }
    }
}
