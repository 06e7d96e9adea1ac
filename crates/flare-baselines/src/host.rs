//! [`ScheduleHost`], the one network-simulator host program of the
//! host-based baselines, runs a rank's [`Step`]s over a [`Payload`].
//!
//! A step sends its range to `to` in packets, the last one flagged, and
//! completes when the last packet from `from` arrives: one peer's packets
//! share one ECMP path of FIFO links. Another peer's later step can
//! overtake them, so a packet names its step (`child`) and one that comes
//! early is held until its step is current.

use std::ops::Range;

use bytes::Bytes;
use flare_core::dtype::{encode_slice, Element};
use flare_core::host::ResultSink;
use flare_core::op::ReduceOp;
use flare_core::wire::HEADER_BYTES;
use flare_net::{HostCtx, HostProgram, NetPacket, NodeId};

use crate::schedule::Step;

/// The flag a step's last packet sets in its `kind`: a payload's kinds
/// come in pairs, `kind` and `kind | LAST`.
pub(crate) const LAST: u8 = 1;

/// What a schedule moves.
pub trait Payload {
    /// The result's element type.
    type Elem;
    /// One step's `range` as `(block, kind, body)` packets, in order, only
    /// the last one's kind flagged.
    fn send(&self, range: Range<usize>, emit: impl FnMut(u64, u8, Bytes));
    /// Take in one packet of the current step, folding (`fold`) or
    /// overwriting.
    fn recv(&mut self, fold: bool, pkt: &NetPacket);
    /// The result, once every step is done.
    fn take_result(&mut self) -> Vec<Self::Elem>;
}

/// `units` in packets of at most `per_seg`, at least one (so that an
/// empty step still completes): each one's index, units and `kind`, the
/// last one's flagged.
pub(crate) fn segments<U>(
    units: &[U],
    per_seg: usize,
    kind: u8,
) -> impl Iterator<Item = (usize, &[U], u8)> {
    let count = units.len().div_ceil(per_seg).max(1);
    (0..count).map(move |s| {
        let seg = &units[s * per_seg..units.len().min((s + 1) * per_seg)];
        (s, seg, if s + 1 == count { kind | LAST } else { kind })
    })
}

/// Runs one rank's schedule on NetSim. [`RingHost`](crate::RingHost) and
/// [`SparcmlHost`](crate::SparcmlHost) are this host over their payloads.
pub struct ScheduleHost<P: Payload> {
    peers: Vec<NodeId>,
    flow: u32,
    schedule: Vec<Step>,
    /// The current step.
    step: usize,
    payload: P,
    /// Packets of later steps, in arrival order.
    early: Vec<NetPacket>,
    sink: ResultSink<P::Elem>,
}

impl<P: Payload> ScheduleHost<P> {
    /// Run `schedule` over `payload` as one rank of `peers` (all hosts, in
    /// rank order), on `flow`.
    pub(crate) fn from_schedule(
        peers: Vec<NodeId>,
        flow: u32,
        schedule: Vec<Step>,
        payload: P,
        sink: ResultSink<P::Elem>,
    ) -> Self {
        Self {
            peers,
            flow,
            schedule,
            step: 0,
            payload,
            early: Vec::new(),
            sink,
        }
    }

    /// Send the current step; past the last one, hand the result over,
    /// mark this host done and return false.
    fn begin_step(&mut self, ctx: &mut HostCtx<'_>) -> bool {
        let Some(step) = self.schedule.get(self.step) else {
            *self.sink.lock().expect("sink lock") = Some(self.payload.take_result());
            ctx.mark_done();
            return false;
        };
        let (dst, flow, at) = (self.peers[step.to], self.flow, self.step as u16);
        self.payload.send(step.send.clone(), |block, kind, body| {
            let mut pkt = NetPacket::new(dst, flow, block, at, kind, body);
            pkt.wire_bytes += HEADER_BYTES as u32;
            ctx.send(pkt);
        });
        true
    }

    /// Take in one packet of the current step; whether it was the last.
    fn take(&mut self, pkt: &NetPacket) -> bool {
        self.payload.recv(self.schedule[self.step].fold, pkt);
        pkt.kind & LAST != 0
    }
}

impl<P: Payload + 'static> HostProgram for ScheduleHost<P> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.begin_step(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        if pkt.flow != self.flow {
            return;
        }
        if usize::from(pkt.child) != self.step {
            self.early.push(pkt);
            return;
        }
        let mut complete = self.take(&pkt);
        while complete {
            self.step += 1;
            if !self.begin_step(ctx) {
                return;
            }
            let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.early)
                .into_iter()
                .partition(|p| usize::from(p.child) == self.step);
            self.early = later;
            complete = now.iter().fold(false, |_, p| self.take(p));
        }
    }
}

/// Dense values: a step sends its range in packets of `per_seg` elements
/// (kinds 10 and 11), each one's block its first element's index, and
/// folds in or overwrites what a packet carries.
pub struct DensePayload<T, O> {
    pub(crate) op: O,
    pub(crate) data: Vec<T>,
    pub(crate) per_seg: usize,
}

impl<T: Element, O: ReduceOp<T>> Payload for DensePayload<T, O> {
    type Elem = T;

    fn send(&self, range: Range<usize>, mut emit: impl FnMut(u64, u8, Bytes)) {
        for (s, seg, kind) in segments(&self.data[range.clone()], self.per_seg, 10) {
            let block = range.start + s * self.per_seg;
            emit(block as u64, kind, encode_slice(seg));
        }
    }

    fn recv(&mut self, fold: bool, pkt: &NetPacket) {
        let len = pkt.payload.len() / T::WIRE_BYTES;
        let dst = &mut self.data[pkt.block as usize..][..len];
        if fold {
            T::fold_slice_le(&pkt.payload, dst, |a, b| self.op.combine(a, b));
        } else {
            T::copy_slice_le(&pkt.payload, dst);
        }
    }

    fn take_result(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_exactly_and_flag_only_the_last() {
        let units: Vec<u32> = (0..10).collect();
        let segs: Vec<_> = segments(&units, 4, 20).collect();
        let kinds: Vec<u8> = segs.iter().map(|s| s.2).collect();
        assert_eq!(kinds, [20, 20, 20 | LAST]);
        let indexes: Vec<usize> = segs.iter().map(|s| s.0).collect();
        assert_eq!(indexes, [0, 1, 2]);
        assert_eq!(segs.iter().map(|s| s.1).collect::<Vec<_>>().concat(), units);
        // Nothing to send still sends one (empty) last packet, so the
        // receiver's step completes.
        let empty: Vec<_> = segments::<u32>(&[], 4, 20).collect();
        assert_eq!(empty, [(0, &[][..], 20 | LAST)]);
    }
}
