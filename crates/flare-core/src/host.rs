//! Host-side Flare library: packetization, staggered sending, windowing
//! and retransmission (paper Sections 4–5).
//!
//! There is one host, [`FlareHost`]: it splits its contribution into
//! blocks, keeps at most `window` of them in flight (bounded by the
//! switch's working-memory reservation ℛ, Section 4.3), rotates its block
//! send order by a per-host *stagger offset* (Section 5), and retransmits
//! blocks whose result has not arrived within a timeout (Section 4.1 —
//! switch-side duplicate rejection absorbs the retransmissions). What a
//! block *is* comes from its [`Payload`]: `N` dense elements in one
//! packet, reduced in place ([`DenseFlareHost`]), or a span's `(index,
//! value)` pairs in numbered shards ([`SparseFlareHost`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use flare_des::Time;
use flare_net::{HostCtx, HostProgram, NetPacket, NodeId, TraceKind};

use crate::dtype::Element;
use crate::op::ReduceOp;
use crate::sparse::{ShardEvent, ShardTracker};
use crate::tag::FlowTag;
use crate::wire::{encode_dense, encode_sparse, DenseView, Header, PacketKind, SparseView};

/// Shared slot a host writes its final reduced vector into, readable by
/// the caller after the simulation (the simulator owns the programs).
///
/// `Arc<Mutex<_>>` rather than `Rc<RefCell<_>>` so host programs are
/// `Send` and can run under the parallel driver; the lock is touched once
/// per completed allreduce, never per packet.
pub type ResultSink<T> = Arc<Mutex<Option<Vec<T>>>>;

/// Create an empty result sink.
pub fn result_sink<T>() -> ResultSink<T> {
    Arc::new(Mutex::new(None))
}

/// Configuration of a [`FlareHost`], whatever its payload.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Allreduce id (from the network manager).
    pub allreduce: u32,
    /// This host's leaf switch in the reduction tree.
    pub leaf: NodeId,
    /// This host's child index at the leaf.
    pub child_index: u16,
    /// Maximum blocks in flight (ℛ-derived window).
    pub window: usize,
    /// Rotation of the block send order (staggered sending): host `i`
    /// typically uses `i × blocks / P`.
    pub stagger_offset: u64,
    /// Retransmit a block if its result is missing after this long.
    pub retransmit_after: Option<Time>,
    /// Offset added to block ids on the wire. Host-side block numbering
    /// stays local (`0..blocks`); the wire carries `block_base + local`.
    /// Successive runs over one admitted collective (DNN iterations driven
    /// by a traffic engine) bump this so every iteration uses a fresh
    /// block-id stream and stale switch state can never alias.
    pub block_base: u64,
    /// Incarnation sequence for this host's wake tags ([`FlowTag::seq`]).
    /// A traffic engine re-running one admitted collective bumps this per
    /// iteration so a stale retransmit timer armed by iteration `k` is
    /// ignored by iteration `k+1` (the tag no longer matches). Standalone
    /// collectives use 0. At most [`crate::tag::MAX_SEQ`] — host
    /// constructors panic past that; admission layers validate first via
    /// [`FlowTag::pack`].
    pub wake_seq: u32,
}

impl HostConfig {
    /// The packed retransmission wake tag for this configuration:
    /// `FlowTag { flow: allreduce, kind: KIND_RETRANSMIT, seq: wake_seq }`.
    fn retx_tag(&self) -> u64 {
        FlowTag::retransmit(self.allreduce, self.wake_seq)
            .pack()
            .expect("wake_seq exceeds FlowTag seq field; validate at admission")
    }
}

/// The send window: which blocks are in flight, since when, in send order.
///
/// Blocks leave a host in rotation order — position `p` carries block
/// `(p + stagger_offset) % blocks` — so the window is a deque of send
/// times over the positions `[first, first + slots.len())`, with
/// [`CLOSED`] marking a position whose result has arrived. Insert, remove
/// and lookup are O(1) whatever the window size, and iteration is in
/// position order: the order of first sends, which makes the
/// retransmission scan reproducible. The deque reaches back to the oldest
/// open position, so it holds 8 B per position a straggler keeps it from
/// popping (under staggering, the blocks other hosts send last) — at
/// worst `blocks` entries, on the hosts that have one.
#[derive(Debug)]
struct SendWindow {
    blocks: u64,
    /// `stagger_offset % blocks`.
    offset: u64,
    /// Position of `slots[0]`; every earlier position is closed.
    first: u64,
    slots: VecDeque<Time>,
    /// Slots not [`CLOSED`].
    open: usize,
}

/// Slot value of a position whose block is no longer in flight.
const CLOSED: Time = Time::MAX;

impl SendWindow {
    fn new(blocks: u64, stagger_offset: u64) -> Self {
        assert!(blocks > 0);
        Self {
            blocks,
            offset: stagger_offset % blocks,
            first: 0,
            slots: VecDeque::new(),
            open: 0,
        }
    }

    /// Blocks in flight.
    fn len(&self) -> usize {
        self.open
    }

    fn block_at(&self, pos: u64) -> u64 {
        (pos + self.offset) % self.blocks
    }

    fn pos_of(&self, block: u64) -> u64 {
        (block + self.blocks - self.offset) % self.blocks
    }

    /// The next block in send order that has never been sent (`None` once
    /// all have).
    fn next_unsent(&self) -> Option<u64> {
        let pos = self.first + self.slots.len() as u64;
        (pos < self.blocks).then(|| self.block_at(pos))
    }

    /// Record `block` as in flight since `at`: either the
    /// [`next_unsent`](Self::next_unsent) block, which opens its position,
    /// or a block already in flight (a retransmission), whose send time is
    /// updated in place.
    fn insert(&mut self, block: u64, at: Time) {
        debug_assert!(at != CLOSED);
        let slot = self.pos_of(block).checked_sub(self.first);
        match slot.map(|s| s as usize) {
            Some(s) if s == self.slots.len() => {
                self.slots.push_back(at);
                self.open += 1;
            }
            Some(s) if self.slots.get(s).is_some_and(|&t| t != CLOSED) => self.slots[s] = at,
            _ => panic!("block {block} is neither next to send nor in flight"),
        }
    }

    /// The deque slot of `block` if it is in flight: sent, and its result
    /// not yet arrived.
    fn in_flight(&self, block: u64) -> Option<usize> {
        if block >= self.blocks {
            return None;
        }
        let slot = self.pos_of(block).checked_sub(self.first)? as usize;
        (*self.slots.get(slot)? != CLOSED).then_some(slot)
    }

    /// Close `block`, returning its send time (`None` if not in flight:
    /// never sent, or already closed).
    fn remove(&mut self, block: u64) -> Option<Time> {
        let slot = self.in_flight(block)?;
        let at = std::mem::replace(&mut self.slots[slot], CLOSED);
        self.open -= 1;
        while self.slots.front() == Some(&CLOSED) {
            self.slots.pop_front();
            self.first += 1;
        }
        Some(at)
    }

    /// In-flight `(block, sent_at)` pairs in send order.
    fn iter(&self) -> impl Iterator<Item = (u64, Time)> + '_ {
        (self.first..)
            .zip(&self.slots)
            .filter(|&(_, &at)| at != CLOSED)
            .map(|(pos, &at)| (self.block_at(pos), at))
    }
}

/// What a [`Payload`] made of one result packet.
pub enum Applied {
    /// Nothing: not a result of this payload, or a shard it already has
    /// (a loss-path replay).
    Ignored,
    /// Shard `index` of a block's result; `complete` when it was the last
    /// one outstanding.
    Shard {
        /// The shard's sequence number.
        index: u16,
        /// Whether the block's result is now whole.
        complete: bool,
    },
    /// The block's whole result.
    Block,
}

/// What a Flare host sends and receives. The host owns the protocol —
/// window, stagger, retransmission, block numbering — and the payload knows
/// only how to encode and apply its packets.
pub trait Payload: Send {
    /// Element type of the reduced vector.
    type Elem: Element;

    /// The packet kind of this payload's contributions.
    const CONTRIB: PacketKind;

    /// How many packets local block `block` is sent as.
    fn packets(&self, block: u64) -> usize;

    /// Encode packet `i` of local block `block`. `header` is a
    /// [`Self::CONTRIB`] header carrying the wire block id and the host's
    /// child index. A re-send must produce the same packet.
    fn encode(&self, block: u64, i: usize, header: Header) -> Bytes;

    /// Apply one result packet addressed to the in-flight local block
    /// `block`.
    fn apply(&mut self, block: u64, packet: &[u8]) -> Applied;

    /// The reduced vector, once every block is complete.
    fn take_result(&mut self) -> Vec<Self::Elem>;
}

/// A Flare allreduce participant over payload `P` (see
/// [`DenseFlareHost`] and [`SparseFlareHost`]).
///
/// Loss recovery is the same for every payload: in-flight blocks live in
/// the send window, a [`HostConfig::retransmit_after`] timer re-encodes
/// and re-sends every packet of an overdue block (same shard sequence
/// numbers, so switches reject the duplicates), and a result for a block
/// no longer in flight — a replay — is dropped before it reaches the
/// payload.
pub struct FlareHost<P: Payload> {
    cfg: HostConfig,
    /// Packed [`FlowTag`] this host's retransmit timer fires with.
    retx_tag: u64,
    payload: P,
    /// Wire bytes of the whole contribution (telemetry).
    wire_bytes: u64,
    outstanding: SendWindow,
    completed: u64,
    sink: ResultSink<P::Elem>,
    /// Contribution packets sent (including retransmissions).
    pub sent_packets: u64,
    /// Blocks re-sent by the retransmission timer.
    pub retransmits: u64,
}

impl<P: Payload> FlareHost<P> {
    /// A participant contributing `payload`: `blocks` blocks, `wire_bytes`
    /// bytes in all.
    fn over(
        cfg: HostConfig,
        payload: P,
        blocks: usize,
        wire_bytes: usize,
        sink: ResultSink<P::Elem>,
    ) -> Self {
        Self {
            retx_tag: cfg.retx_tag(),
            outstanding: SendWindow::new(blocks as u64, cfg.stagger_offset),
            wire_bytes: wire_bytes as u64,
            cfg,
            payload,
            completed: 0,
            sink,
            sent_packets: 0,
            retransmits: 0,
        }
    }

    /// Whether every block's result has arrived (the reduced vector is in
    /// the sink).
    pub fn finished(&self) -> bool {
        self.completed == self.outstanding.blocks
    }

    fn send_block(&mut self, ctx: &mut HostCtx<'_>, block: u64) {
        let flow = self.cfg.allreduce as u64;
        let wire_block = self.cfg.block_base + block;
        let header = Header {
            allreduce: self.cfg.allreduce,
            block: wire_block as u32,
            child: self.cfg.child_index,
            kind: P::CONTRIB,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        for i in 0..self.payload.packets(block) {
            let pkt = NetPacket::new(
                ctx.node(),
                self.cfg.leaf,
                self.cfg.allreduce,
                wire_block,
                self.cfg.child_index,
                P::CONTRIB as u8,
                0,
                self.payload.encode(block, i, header),
            );
            let wire = pkt.wire_bytes as u64;
            ctx.send(pkt);
            self.sent_packets += 1;
            ctx.trace(TraceKind::ShardSend, flow, wire_block, wire);
        }
        self.outstanding.insert(block, ctx.now());
        ctx.trace(TraceKind::InFlight, flow, self.outstanding.len() as u64, 0);
    }

    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        while self.outstanding.len() < self.cfg.window {
            let Some(block) = self.outstanding.next_unsent() else {
                break;
            };
            self.send_block(ctx, block);
        }
    }
}

impl<P: Payload> HostProgram for FlareHost<P> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.trace(
            TraceKind::FlowSubmit,
            self.cfg.allreduce as u64,
            self.outstanding.blocks,
            self.wire_bytes,
        );
        self.pump(ctx);
        if let Some(t) = self.cfg.retransmit_after {
            ctx.wake_in(t, self.retx_tag);
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        let flow = self.cfg.allreduce as u64;
        // Translate the wire block id back into local numbering. Ids
        // outside this run's window are stale (an earlier iteration over
        // the same collective) and ids not in flight already have their
        // result (a loss-path replay): both are dropped.
        let local = pkt.block.checked_sub(self.cfg.block_base);
        let Some(local) = local.filter(|&b| self.outstanding.in_flight(b).is_some()) else {
            return;
        };
        let complete = match self.payload.apply(local, &pkt.payload) {
            Applied::Ignored => false,
            Applied::Shard { index, complete } => {
                ctx.trace(TraceKind::ShardRecv, flow, pkt.block, index as u64);
                complete
            }
            Applied::Block => true,
        };
        if !complete {
            return;
        }
        // Consumed: if this was its last handle, the payload's block is
        // free (and cache-hot) for the sends below.
        let wire_block = pkt.block;
        drop(pkt);
        self.outstanding.remove(local);
        self.completed += 1;
        ctx.trace(TraceKind::BlockRetire, flow, wire_block, 0);
        ctx.trace(TraceKind::InFlight, flow, self.outstanding.len() as u64, 0);
        if self.finished() {
            *self.sink.lock().expect("sink lock") = Some(self.payload.take_result());
            ctx.mark_done();
        } else {
            self.pump(ctx);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
        // A stale tag (earlier `wake_seq` incarnation under a traffic
        // mux) dies here without re-arming, bounding timer chains to one
        // per live incarnation.
        if tag != self.retx_tag || self.finished() {
            return;
        }
        let timeout = self.cfg.retransmit_after.expect("timer armed");
        let now = ctx.now();
        let overdue: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|&(_, sent)| now.saturating_sub(sent) >= timeout)
            .map(|(b, _)| b)
            .collect();
        for block in overdue {
            self.retransmits += 1;
            ctx.trace(
                TraceKind::Retransmit,
                self.cfg.allreduce as u64,
                self.cfg.block_base + block,
                0,
            );
            self.send_block(ctx, block);
        }
        ctx.wake_in(timeout, self.retx_tag);
    }
}

/// Dense allreduce participant: one packet per block.
///
/// The reduction is performed *in place* (the `MPI_IN_PLACE` pattern): a
/// block's result overwrites that block's range of the input buffer. This
/// is safe — a result only arrives after the block's contribution was
/// sent, and retransmission only re-reads blocks whose result has *not*
/// arrived — and it halves the per-host memory footprint, which both
/// matters at the 256-host sweep scale and avoids a page-fault storm on
/// first write to a fresh result allocation.
pub type DenseFlareHost<T> = FlareHost<DensePayload<T>>;

/// The [`Payload`] of a [`DenseFlareHost`].
pub struct DensePayload<T> {
    elems_per_packet: usize,
    /// Input data, progressively overwritten with reduced blocks.
    data: Vec<T>,
}

impl<T: Element> FlareHost<DensePayload<T>> {
    /// Create a participant contributing `data`.
    pub fn new(
        cfg: HostConfig,
        elems_per_packet: usize,
        data: Vec<T>,
        sink: ResultSink<T>,
    ) -> Self {
        assert!(elems_per_packet > 0 && !data.is_empty());
        let blocks = data.len().div_ceil(elems_per_packet);
        let wire_bytes = data.len() * T::WIRE_BYTES;
        let payload = DensePayload {
            elems_per_packet,
            data,
        };
        Self::over(cfg, payload, blocks, wire_bytes, sink)
    }
}

impl<T> DensePayload<T> {
    fn block_range(&self, block: u64) -> std::ops::Range<usize> {
        let start = block as usize * self.elems_per_packet;
        start..(start + self.elems_per_packet).min(self.data.len())
    }
}

impl<T: Element> Payload for DensePayload<T> {
    type Elem = T;
    const CONTRIB: PacketKind = PacketKind::DenseContrib;

    fn packets(&self, _block: u64) -> usize {
        1
    }

    fn encode(&self, block: u64, _i: usize, header: Header) -> Bytes {
        encode_dense(header, &self.data[self.block_range(block)])
    }

    fn apply(&mut self, block: u64, packet: &[u8]) -> Applied {
        let Ok((header, view)) = DenseView::<T>::parse(packet) else {
            return Applied::Ignored;
        };
        if header.kind != PacketKind::DenseResult {
            return Applied::Ignored;
        }
        let range = self.block_range(block);
        if view.len() < range.len() {
            // Well-formed but short (a foreign flow on this allreduce id, a
            // truncated replay): the block stays in flight for the
            // retransmit timer or the stall report, like any other packet
            // that is not this block's result.
            return Applied::Ignored;
        }
        // In place: the block is no longer outstanding, so its input
        // range will never be re-read for a retransmission.
        view.copy_to_slice(&mut self.data[range]);
        Applied::Block
    }

    fn take_result(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }
}

/// Sparse allreduce participant (paper Section 7).
///
/// Input is the host's sparsified `(global index, value)` list; blocks
/// span `span` consecutive indexes; each block's pairs are chunked into
/// shards of at most `pairs_per_packet`, the last shard announcing the
/// count; empty blocks still send a header-only packet. Incoming result
/// shards are deduplicated by sequence number before accumulating — a
/// replayed result must not double-count.
pub type SparseFlareHost<T, O> = FlareHost<SparsePayload<T, O>>;

/// The [`Payload`] of a [`SparseFlareHost`].
pub struct SparsePayload<T, O> {
    op: O,
    span: usize,
    pairs_per_packet: usize,
    /// Every block's block-relative pairs, ordered by block and within a
    /// block as given; kept to the end so overdue blocks can be re-sent.
    pairs: Vec<(u32, T)>,
    /// Block `b` owns `pairs[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    trackers: Vec<ShardTracker>,
    result: Vec<T>,
}

impl<T: Element, O: ReduceOp<T>> FlareHost<SparsePayload<T, O>> {
    /// Create a sparse participant. `pairs` must be within
    /// `0..total_elems`; a block sends its pairs in the order given.
    pub fn new(
        cfg: HostConfig,
        op: O,
        total_elems: usize,
        span: usize,
        pairs_per_packet: usize,
        pairs: Vec<(u32, T)>,
        sink: ResultSink<T>,
    ) -> Self {
        assert!(span > 0 && pairs_per_packet > 0 && total_elems > 0);
        assert!(u32::try_from(pairs.len()).is_ok(), "offsets are 32-bit");
        let blocks = total_elems.div_ceil(span);
        let wire_bytes = pairs.len() * (4 + T::WIRE_BYTES);
        // Stable counting sort by block: count, prefix-sum into each
        // block's start, scatter with the starts as cursors.
        let mut offsets = vec![0u32; blocks + 1];
        for &(idx, _) in &pairs {
            offsets[idx as usize / span + 1] += 1;
        }
        for b in 0..blocks {
            offsets[b + 1] += offsets[b];
        }
        let mut by_block = vec![(0, op.identity()); pairs.len()];
        for (idx, v) in pairs {
            let cursor = &mut offsets[idx as usize / span];
            by_block[*cursor as usize] = (idx % span as u32, v);
            *cursor += 1;
        }
        // Each cursor now stands at its block's end, the next one's start.
        offsets.copy_within(..blocks, 1);
        offsets[0] = 0;
        let payload = SparsePayload {
            result: vec![op.identity(); total_elems],
            op,
            span,
            pairs_per_packet,
            pairs: by_block,
            offsets,
            trackers: vec![ShardTracker::default(); blocks],
        };
        Self::over(cfg, payload, blocks, wire_bytes, sink)
    }
}

impl<T, O> SparsePayload<T, O> {
    fn block_pairs(&self, block: u64) -> &[(u32, T)] {
        let b = block as usize;
        &self.pairs[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

impl<T: Element, O: ReduceOp<T>> Payload for SparsePayload<T, O> {
    type Elem = T;
    const CONTRIB: PacketKind = PacketKind::SparseContrib;

    fn packets(&self, block: u64) -> usize {
        // An empty block still sends its header-only packet.
        let pairs = self.block_pairs(block).len();
        pairs.div_ceil(self.pairs_per_packet).max(1)
    }

    fn encode(&self, block: u64, i: usize, header: Header) -> Bytes {
        let shards = self.packets(block);
        let last = i + 1 == shards;
        let header = Header {
            last_shard: last,
            shard_count: Header::shard_seq_field(last, i as u16, shards as u16),
            ..header
        };
        let mut chunks = self.block_pairs(block).chunks(self.pairs_per_packet);
        encode_sparse(header, chunks.nth(i).unwrap_or(&[]))
    }

    fn apply(&mut self, block: u64, packet: &[u8]) -> Applied {
        let Ok((header, view)) = SparseView::<T>::parse(packet) else {
            return Applied::Ignored;
        };
        if header.kind != PacketKind::SparseResult {
            return Applied::Ignored;
        }
        // Shard protocol first: a replayed result shard (loss recovery)
        // must not accumulate pairs it already delivered.
        let index = header.shard_index();
        let event =
            self.trackers[block as usize].on_shard(index, header.last_shard, header.shard_count);
        if event == ShardEvent::Duplicate {
            return Applied::Ignored;
        }
        // Combine: spilled elements may deliver the same index in several
        // result shards, so accumulation (not overwrite) is required.
        let base = block as usize * self.span;
        view.for_each(|idx, val| {
            if let Some(acc) = self.result.get_mut(base + idx as usize) {
                *acc = self.op.combine(*acc, val);
            }
        });
        Applied::Shard {
            index,
            complete: event == ShardEvent::Complete,
        }
    }

    fn take_result(&mut self) -> Vec<T> {
        std::mem::take(&mut self.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear-scan in-flight map [`SendWindow`] replaced, kept as the
    /// model: `(block, sent_at)` in insertion order, removal preserving
    /// the relative order of the rest.
    #[derive(Default)]
    struct VecModel {
        entries: Vec<(u64, Time)>,
    }

    impl VecModel {
        fn insert(&mut self, block: u64, at: Time) {
            match self.entries.iter_mut().find(|(b, _)| *b == block) {
                Some(e) => e.1 = at,
                None => self.entries.push((block, at)),
            }
        }

        fn remove(&mut self, block: u64) -> Option<Time> {
            let at = self.entries.iter().position(|(b, _)| *b == block)?;
            Some(self.entries.remove(at).1)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random interleavings of what the hosts do — send the next
        // unsent block, re-send an in-flight one, receive a result for an
        // in-flight / completed / never-sent / out-of-range block — leave
        // the window and the model with the same length, the same
        // `remove` answers and the same iteration order.
        #[test]
        fn send_window_matches_the_insertion_ordered_vec(
            blocks in 1u64..40,
            stagger in any::<u64>(),
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..200),
        ) {
            let mut window = SendWindow::new(blocks, stagger);
            let mut model = VecModel::default();
            for (now, &(op, pick)) in ops.iter().enumerate() {
                let now = now as Time;
                match op {
                    0 | 1 => {
                        if let Some(block) = window.next_unsent() {
                            prop_assert!(model.entries.iter().all(|e| e.0 != block), "sent twice");
                            window.insert(block, now);
                            model.insert(block, now);
                        }
                    }
                    2 => {
                        if !model.entries.is_empty() {
                            let block = model.entries[pick as usize % model.entries.len()].0;
                            window.insert(block, now);
                            model.insert(block, now);
                        }
                    }
                    _ => {
                        let block = pick % (blocks + 2);
                        prop_assert_eq!(window.remove(block), model.remove(block));
                    }
                }
                prop_assert_eq!(window.len(), model.entries.len());
                prop_assert_eq!(window.iter().collect::<Vec<_>>(), model.entries.clone());
            }
        }
    }

    #[test]
    fn send_window_sends_every_block_once_in_rotation_order() {
        let mut window = SendWindow::new(5, 7);
        let mut sent = Vec::new();
        while let Some(block) = window.next_unsent() {
            window.insert(block, sent.len() as Time);
            sent.push(block);
        }
        assert_eq!(sent, [2, 3, 4, 0, 1]);
        // Results out of order: the closed prefix pops only once position
        // 0 (block 2) closes.
        assert_eq!(window.remove(3), Some(1));
        assert_eq!(window.slots.len(), 5);
        assert_eq!(window.remove(2), Some(0));
        assert_eq!((window.first, window.slots.len()), (2, 3));
        assert_eq!(window.remove(2), None, "already closed");
        assert_eq!(window.iter().collect::<Vec<_>>(), [(4, 2), (0, 3), (1, 4)]);
    }

    fn cfg() -> HostConfig {
        HostConfig {
            allreduce: 1,
            leaf: NodeId(0),
            child_index: 0,
            window: 4,
            stagger_offset: 3,
            retransmit_after: None,
            block_base: 0,
            wake_seq: 0,
        }
    }

    #[test]
    fn dense_host_staggers_its_block_order() {
        let sink = result_sink();
        let h = DenseFlareHost::new(cfg(), 4, vec![1i32; 40], sink);
        // 10 blocks rotated by 3.
        let order: Vec<u64> = (0..10).map(|p| h.outstanding.block_at(p)).collect();
        assert_eq!(order, [3, 4, 5, 6, 7, 8, 9, 0, 1, 2]);
        for (pos, &block) in order.iter().enumerate() {
            assert_eq!(h.outstanding.pos_of(block), pos as u64);
        }
        assert_eq!(h.outstanding.next_unsent(), Some(3));
    }

    #[test]
    fn dense_host_handles_short_final_block() {
        let sink = result_sink();
        let h = DenseFlareHost::new(cfg(), 4, vec![1i32; 10], sink);
        assert_eq!(h.outstanding.blocks, 3);
        assert_eq!(h.payload.block_range(2), 8..10);
    }

    #[test]
    fn sparse_host_chunks_blocks_into_shards() {
        let sink = result_sink();
        let pairs: Vec<(u32, f32)> = vec![(0, 1.0), (1, 2.0), (2, 3.0), (17, 4.0)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 8, 2, pairs, sink);
        // Block 0 holds indexes 0..8 → 3 pairs → 2 shards (2+1);
        // block 1 (8..16) empty → 1 empty shard; block 2 (16..24) → 1 shard.
        let p = &h.payload;
        assert_eq!(
            (0..4).map(|b| p.packets(b)).collect::<Vec<_>>(),
            [2, 1, 1, 1]
        );
        assert_eq!(p.block_pairs(0), [(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(p.block_pairs(1), []);
        assert_eq!(p.block_pairs(2), [(1, 4.0)]);
        assert_eq!(p.offsets, [0, 3, 3, 4, 4]);
    }

    #[test]
    fn sparse_host_groups_unsorted_pairs_by_block_in_input_order() {
        let sink = result_sink();
        let pairs: Vec<(u32, f32)> = vec![(17, 4.0), (2, 3.0), (31, 5.0), (0, 1.0), (16, 6.0)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 8, 2, pairs, sink);
        let p = &h.payload;
        assert_eq!(p.block_pairs(0), [(2, 3.0), (0, 1.0)]);
        assert_eq!(p.block_pairs(2), [(1, 4.0), (0, 6.0)]);
        assert_eq!(p.block_pairs(3), [(7, 5.0)]);
    }

    #[test]
    fn sparse_host_encodes_the_chunk_a_shard_index_selects() {
        // The second shard of a three-pair block is its third pair alone.
        let pairs = vec![(1, 1.0), (2, 2.0), (3, 3.0f32)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 8, 8, 2, pairs, result_sink());
        let header = Header {
            allreduce: 1,
            block: 0,
            child: 0,
            kind: PacketKind::SparseContrib,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        let wire = h.payload.encode(0, 1, header);
        let (header, view) = SparseView::<f32>::parse(&wire).expect("a sparse packet");
        assert!(header.last_shard);
        let mut got = Vec::new();
        view.for_each(|idx, v| got.push((idx, v)));
        assert_eq!(got, [(3, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "span > 0")]
    fn sparse_host_rejects_zero_span() {
        let sink = result_sink();
        let _ = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 0, 2, vec![(0, 1f32)], sink);
    }
}
