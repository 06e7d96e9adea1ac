//! The Flare switch-side block protocol, written once per payload.
//!
//! A block's life on a switch is the same wherever the switch is modeled:
//! *admit* the packet (a retired block's retransmission is a *poke*,
//! answered from the replay entry; anything else opens a block from a
//! spare shell), *reject* the duplicate (child bitmap dense, shard
//! sequence sparse — paper Section 4.1), *fold*, and on completion
//! *retire* the block, encode the aggregate once, send it up — or, at the
//! root, down to every child by refcount — and keep it for replays only on
//! lossy fabrics.
//!
//! [`DenseCore`] and [`SparseCore`] are that lifecycle over one
//! [`BlockTable`]; the NetSim programs in [`crate::switch_prog`] and the
//! PsPIN handlers in [`crate::handlers`] parse the packet, say which
//! [`Side`] they are on, and call in.
//!
//! Recovery costs one answer per round of pokes ([`BlockTable::admit`]). A
//! switch that has the block's result replays it to the poking child alone.
//! One that does not (the loss was above it) re-sends its cached aggregate
//! upward for the first poke and absorbs the others of that round: its
//! children time out together, and each further copy would buy a further
//! replay of the result from above, replicated to all of them again. For
//! the same reason a result this switch has already cached is not
//! replicated a second time; a child that still misses it pokes and is
//! answered from the cache.
//!
//! A side is two things only: **where emissions go** and **what handler
//! cycles cost**. A new cost calibration is a change to [`Side`]'s cost
//! hooks (or to the PsPIN dense storage's `fold`); a new fault or timer is
//! a change to the cores and reaches all four adapters at once.

use bytes::Bytes;

use flare_des::Time;
use flare_model::sparse as cycles;
use flare_net::{NetPacket, NodeId, SwitchCtx};
use flare_pspin::{HpuCtx, PspinPacket};

use crate::dense::{ChildBitmap, InsertReport, TreeBlock};
use crate::dtype::Element;
use crate::handlers::SparseStorageKind;
use crate::op::ReduceOp;
use crate::pool::{BlockSlab, BufferPool, PoolStats, ReplayRing, RetirementFloor};
use crate::sparse::{HashInsert, ShardEvent, ShardTracker, SparseArrayStore, SparseHashStore};
use crate::switch_prog::{ProgramStats, RecoveryStats, TreePlacement};
use crate::wire::{encode_dense, encode_sparse, DenseView, Header, PacketKind, SparseView};

/// Which model of a switch is running the protocol.
pub(crate) enum Side<'a, 'c> {
    /// A NetSim switch: emissions go to the tree neighbours of `place` at
    /// `at` (the packet's `processing_done_for` time); the packet was
    /// charged up front, so handler cycles cost nothing here.
    Net {
        ctx: &'a mut SwitchCtx<'c>,
        place: &'a TreePlacement,
        at: Time,
    },
    /// The PsPIN engine: a switch that is the whole tree — no parent, one
    /// output — and that pays the paper's Section 6/7 cycle costs.
    Hpu {
        ctx: &'a mut HpuCtx<'c>,
        allreduce: u32,
    },
}

/// Where an emission goes, relative to this switch's place in the tree.
#[derive(Clone, Copy)]
pub(crate) enum To {
    Parent,
    Children,
    /// One child, by child index (replays).
    Child(u16),
}

// Where emissions go.
impl<'c> Side<'_, 'c> {
    fn allreduce(&self) -> u32 {
        match self {
            Side::Net { place, .. } => place.allreduce,
            Side::Hpu { allreduce, .. } => *allreduce,
        }
    }

    fn is_root(&self) -> bool {
        match self {
            Side::Net { place, .. } => place.parent.is_none(),
            Side::Hpu { .. } => true,
        }
    }

    /// The child index a packet going `to` carries: this switch's index at
    /// its parent on the way up, 0 on the way down.
    fn stamp(&self, to: To) -> u16 {
        match (self, to) {
            (Side::Net { place, .. }, To::Parent) => place.my_child_index,
            _ => 0,
        }
    }

    /// Send one encoded payload, sharing it by refcount between recipients.
    fn send(&mut self, to: To, block: u64, kind: PacketKind, payload: &Bytes) {
        let (allreduce, child) = (self.allreduce(), self.stamp(to));
        match self {
            Side::Net { ctx, place, at } => {
                let dsts: &[NodeId] = match to {
                    To::Parent => place.parent.as_slice(),
                    To::Children => &place.children,
                    To::Child(i) => std::slice::from_ref(&place.children[i as usize]),
                };
                for &dst in dsts {
                    let pkt =
                        NetPacket::new(dst, allreduce, block, child, kind as u8, payload.clone());
                    ctx.send_at(*at, pkt);
                }
            }
            // The payload carries the full Flare header; no extra
            // link-layer header is modeled.
            Side::Hpu { ctx, .. } => ctx.emit(PspinPacket::new(block, payload.clone())),
        }
    }

    // What handler cycles cost: nothing on NetSim, the paper's Section 6/7
    // costs on PsPIN. Holds on a buffer homed on another cluster pay the
    // remote-L1 factor (global FCFS scheduling; hierarchical FCFS keeps a
    // block's packets on its home cluster).

    /// The PsPIN context, for storage that charges its own cycles
    /// (the handlers' Section 6 dense designs).
    pub(crate) fn hpu(&mut self) -> Option<&mut HpuCtx<'c>> {
        match self {
            Side::Net { .. } => None,
            Side::Hpu { ctx, .. } => Some(ctx),
        }
    }

    fn working_mem(&mut self, delta_bytes: i64) {
        if let Some(ctx) = self.hpu() {
            ctx.working_mem(delta_bytes);
        }
    }

    fn complete(&mut self) {
        if let Some(ctx) = self.hpu() {
            ctx.complete_block();
        }
    }

    /// Take the block's lock for the per-element insertion cost of `pairs`
    /// pairs (Section 6.1's argument: sparse handlers need mutual
    /// exclusion anyway).
    fn sparse_lock<T: Element>(&mut self, block: u64, b: &SparseBlock<T>, pairs: usize) {
        if let Some(ctx) = self.hpu() {
            let per_pair = match b.store {
                SparseStore::Hash(_) => cycles::HASH_INSERT_CYCLES,
                SparseStore::Array(_) => cycles::ARRAY_STORE_CYCLES,
            };
            let hold = (pairs as f64 * per_pair).ceil() as u64 + 1;
            ctx.acquire_any([(block, 0)], hold * ctx.remote_factor(b.home_cluster));
        }
    }

    /// Lengthen the hold by one spill event pushing `elems` elements.
    fn sparse_spill(&mut self, block: u64, home: usize, elems: usize) {
        if let Some(ctx) = self.hpu() {
            let push = (elems as f64 * cycles::SPILL_PUSH_CYCLES).ceil() as u64;
            ctx.extend_hold((block, 0), push * ctx.remote_factor(home));
        }
    }

    /// Pay for draining `b`'s store into `drained` pairs (an array scans
    /// its whole span), then release the lock and the block's memory.
    fn sparse_flush<T: Element>(&mut self, block: u64, b: &SparseBlock<T>, drained: usize) {
        if let Some(ctx) = self.hpu() {
            let scan = match &b.store {
                SparseStore::Hash(_) => 0,
                SparseStore::Array(a) => a.span(),
            };
            let flush = (scan as f64 * cycles::ARRAY_FLUSH_SCAN_CYCLES
                + drained as f64 * cycles::EMIT_CYCLES)
                .ceil() as u64;
            ctx.extend_hold((block, 0), flush * ctx.remote_factor(b.home_cluster));
            ctx.release_buffer((block, 0));
            ctx.working_mem(-(b.store.memory_bytes() as i64));
        }
    }
}

/// Completed `(block, result)` pairs a handler keeps for inspection.
type Captured<R> = Vec<(u64, R)>;

/// How many finished block shells a table keeps for reuse.
const SPARE_BLOCKS: usize = 512;

/// What a finished block's replay entry holds, as the poke protocol sees
/// it.
pub(crate) trait Replay {
    /// Whether the block's final result has passed through this switch (or
    /// was produced here, at a root): the entry can then answer a poke on
    /// its own.
    fn has_result(&self) -> bool;
}

/// A finished block's replay entry and its poke round.
#[derive(Default)]
pub(crate) struct Retired<R> {
    pub(crate) sent: R,
    /// The children that have poked since this switch last re-sent its
    /// aggregate upward (unsized until the first does). One that pokes
    /// again has waited out a whole host timeout without the result: that
    /// ends the round. Until then the others' pokes belong to it and are
    /// absorbed. A set, not the child that opened the round: pokes that
    /// arrive in one instant then get one answer, at the same time,
    /// whatever order a driver delivers them in.
    poked: ChildBitmap,
}

impl<R> Retired<R> {
    /// Whether a poke from `child`, one of `children`, opens a round.
    fn opens_round(&mut self, child: u16, children: u16) -> bool {
        if self.poked.count() == 0 {
            self.poked = ChildBitmap::new(children);
        } else if self.poked.is_set(child) {
            self.poked.clear();
        } else {
            self.poked.set(child);
            return false;
        }
        self.poked.set(child)
    }
}

impl<R> From<R> for Retired<R> {
    fn from(sent: R) -> Self {
        let poked = ChildBitmap::default();
        Self { sent, poked }
    }
}

/// How a poke is answered.
#[derive(Clone, Copy)]
enum Answer {
    /// Replay the cached result down to the poking child.
    ReplayDown,
    /// Re-send the cached aggregate to the parent.
    ResendUp,
}

/// What a table keeps only on a fabric that can lose packets. A reliable
/// run caches nothing — cached payloads pin their blocks, for replays that
/// can never be requested — and carries none of this.
struct LossRecovery<R> {
    /// What each finished block sent, kept for duplicate-contribution
    /// replays.
    replay: ReplayRing<Retired<R>>,
    stats: RecoveryStats,
}

impl<R> LossRecovery<R> {
    fn new(slots: usize) -> Box<Self> {
        Box::new(Self {
            replay: ReplayRing::new(slots),
            stats: RecoveryStats::default(),
        })
    }
}

/// The state every block lifecycle shares: open blocks in a direct-mapped
/// slab that grows with the span of open ids, the retirement floor (late
/// packets are rejected on a comparison before they reach the slab),
/// finished shells kept for reuse, and — on a lossy fabric only — the
/// replay entries.
pub(crate) struct BlockTable<B, R> {
    /// Children of this switch in the reduction tree.
    children: u16,
    pub(crate) open: BlockSlab<B>,
    /// Most blocks open at once: what the admitted reservation must hold.
    /// A `u32` (block ids on the wire are one) sits beside `children` in
    /// what would be padding, so the table does not grow.
    open_peak: u32,
    retired: RetirementFloor,
    spare: Vec<B>,
    /// `Some` iff the deployment injects loss.
    lossy: Option<Box<LossRecovery<R>>>,
}

impl<B, R: Replay> BlockTable<B, R> {
    fn new(children: u16) -> Self {
        Self {
            children,
            open: BlockSlab::new(BlockSlab::<B>::DEFAULT_SLOTS),
            open_peak: 0,
            retired: RetirementFloor::new(),
            spare: Vec::new(),
            lossy: None,
        }
    }

    /// Keep (or stop keeping) replay entries, in a ring of `slots` (by
    /// default [`ReplayRing::DEFAULT_CAPACITY`]).
    pub(crate) fn set_loss_recovery(&mut self, yes: bool, slots: Option<usize>) {
        let slots = slots.unwrap_or(ReplayRing::<R>::DEFAULT_CAPACITY);
        self.lossy = yes.then(|| LossRecovery::new(slots));
    }

    /// Replay-ring slots allocated so far.
    #[cfg(test)]
    pub(crate) fn replay_slots_allocated(&self) -> usize {
        self.lossy
            .as_ref()
            .map_or(0, |lossy| lossy.replay.allocated_slots())
    }

    /// The counters of a program over this table.
    fn stats(&self, agg_pool: PoolStats, byte_pool: PoolStats) -> ProgramStats {
        ProgramStats {
            agg_pool,
            byte_pool,
            slab: self.open.stats(),
            recovery: self
                .lossy
                .as_ref()
                .map_or_else(Default::default, |l| l.stats),
            open_peak: self.open_peak as usize,
        }
    }

    /// Admit a packet of `block` from `child`: the open block — opened
    /// with `open` (handed a spare shell when one is kept) if this is its
    /// first packet — and whether this packet opened it. `None` when the
    /// packet is dropped: `child` is out of range, or the block already
    /// finished here and the packet is a retransmission. That is a poke if
    /// `pokes` (a sparse burst pokes once, with its last shard), and
    /// `answer` sends what the replay entry answers it with: the result to
    /// the poking child if the entry has it, else the cached aggregate to
    /// the parent for the poke that opens a round, nothing for the rest of
    /// the round — and nothing if the entry was evicted: the next
    /// retransmission retries.
    fn admit(
        &mut self,
        block: u64,
        child: u16,
        pokes: bool,
        open: impl FnOnce(Option<B>) -> B,
        answer: impl FnOnce(Answer, &R),
    ) -> Option<(&mut B, bool)> {
        if child >= self.children {
            return None;
        }
        if self.retired.is_retired(block) {
            let lossy = self.lossy.as_mut().filter(|_| pokes)?;
            lossy.stats.pokes += 1;
            if let Some(entry) = lossy.replay.get_mut(block) {
                if entry.sent.has_result() {
                    answer(Answer::ReplayDown, &entry.sent);
                    lossy.stats.replays_down += 1;
                } else if entry.opens_round(child, self.children) {
                    answer(Answer::ResendUp, &entry.sent);
                    lossy.stats.resends_up += 1;
                } else {
                    lossy.stats.absorbed += 1;
                }
            }
            return None;
        }
        let mut opened = false;
        let open_now = self.open.len() as u32 + 1;
        let (spare, peak) = (&mut self.spare, &mut self.open_peak);
        let entry = self.open.get_or_insert_with(block, || {
            opened = true;
            *peak = open_now.max(*peak);
            open(spare.pop())
        });
        Some((entry, opened))
    }

    /// Close `block`: out of the slab and retired. The shell comes back for
    /// the caller to strip and [`park`](Self::park).
    fn retire(&mut self, block: u64) -> B {
        let shell = self.open.remove(block).expect("retiring an open block");
        self.retired.retire(block);
        shell
    }

    fn park(&mut self, shell: B) {
        if self.spare.len() < SPARE_BLOCKS {
            self.spare.push(shell);
        }
    }
}

/// Dense block storage: a parameter of [`DenseCore`], because a slab
/// stores its entries inline. NetSim keeps a bare [`TreeBlock`] (the
/// single/multi/tree distinction only changes switch timing there, which
/// the calibrated processing rate captures); PsPIN keeps the design its
/// Section 6.4 policy picked plus the block's home cluster.
pub(crate) trait DenseStorage<T: Element>: Sized {
    /// Fold one child's contribution, charging what that costs on `side`.
    fn fold<O: ReduceOp<T>>(
        &mut self,
        side: &mut Side<'_, '_>,
        op: &O,
        block: u64,
        child: u16,
        vals: &DenseView<'_, T>,
        pool: &mut BufferPool<T>,
    ) -> InsertReport<T>;

    /// A finished block's shell, reset for reuse — or `None` to drop it.
    fn recycle(self) -> Option<Self>;
}

impl<T: Element> DenseStorage<T> for TreeBlock<T> {
    fn fold<O: ReduceOp<T>>(
        &mut self,
        _side: &mut Side<'_, '_>,
        op: &O,
        _block: u64,
        child: u16,
        vals: &DenseView<'_, T>,
        pool: &mut BufferPool<T>,
    ) -> InsertReport<T> {
        self.insert_from(op, child, vals, pool)
    }

    fn recycle(mut self) -> Option<Self> {
        self.reset();
        Some(self)
    }
}

/// The dense replay entry is the one payload the block last sent or
/// passed on: its upward aggregate, until the result supersedes it.
impl Replay for Bytes {
    fn has_result(&self) -> bool {
        matches!(Header::decode(self), Ok((h, _)) if h.kind == PacketKind::DenseResult)
    }
}

/// The dense block lifecycle of one (switch, allreduce).
pub(crate) struct DenseCore<T: Element, O, D> {
    op: O,
    pub(crate) table: BlockTable<D, Bytes>,
    val_pool: BufferPool<T>,
    /// Payload blocks this program's encodes took, and how many of them a
    /// free list served.
    byte_pool: PoolStats,
}

impl<T: Element, O: ReduceOp<T>, D: DenseStorage<T>> DenseCore<T, O, D> {
    pub(crate) fn new(children: u16, op: O) -> Self {
        Self {
            op,
            table: BlockTable::new(children),
            val_pool: BufferPool::new(),
            byte_pool: PoolStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> ProgramStats {
        self.table.stats(self.val_pool.stats(), self.byte_pool)
    }

    /// One child's contribution to `block`. `open` builds the block's
    /// storage from a spare shell or from scratch; a completed result goes
    /// to `capture` when given, else back to the pool.
    pub(crate) fn on_contrib(
        &mut self,
        side: &mut Side<'_, '_>,
        block: u64,
        header: &Header,
        vals: &DenseView<'_, T>,
        open: impl FnOnce(Option<D>) -> D,
        capture: Option<&mut Captured<Vec<T>>>,
    ) {
        // Paper Section 4.1, duplicate rejection + result replay. An
        // aggregate re-sent upward is answered by the parent once it has
        // the result, which then replicates down normally: replaying the
        // *partial* subtree aggregate down as if it were the result would
        // hand the child a wrong vector.
        let answer = |answer, cached: &Bytes| match answer {
            Answer::ReplayDown => {
                let to = To::Child(header.child);
                side.send(to, block, PacketKind::DenseResult, cached)
            }
            Answer::ResendUp => side.send(To::Parent, block, PacketKind::DenseContrib, cached),
        };
        let admitted = self.table.admit(block, header.child, true, open, answer);
        let Some((store, _)) = admitted else {
            return;
        };
        let report = store.fold(
            side,
            &self.op,
            block,
            header.child,
            vals,
            &mut self.val_pool,
        );
        // A duplicate reports no buffers and no result: it charges nothing
        // and returns below.
        let buffers = report.buffers_allocated as i64 - report.buffers_freed as i64;
        side.working_mem(buffers * (vals.len() * T::WIRE_BYTES) as i64);
        let Some(result) = report.result else {
            return;
        };
        if let Some(shell) = self.table.retire(block).recycle() {
            self.table.park(shell);
        }
        // One encode per block: the payload actually sent (up as a
        // contribution, or down as the result) doubles as the replay
        // entry on lossy fabrics.
        let (to, kind) = if side.is_root() {
            (To::Children, PacketKind::DenseResult)
        } else {
            (To::Parent, PacketKind::DenseContrib)
        };
        let header = Header {
            allreduce: side.allreduce(),
            block: block as u32,
            child: side.stamp(to),
            kind,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        let payload = self
            .byte_pool
            .count_payloads(|| encode_dense(header, &result));
        side.send(to, block, kind, &payload);
        if let Some(lossy) = &mut self.table.lossy {
            lossy.replay.put(block, payload.into());
        }
        side.complete();
        match capture {
            Some(results) => results.push((block, result)),
            None => self.val_pool.put(result),
        }
    }

    /// A result from the parent: replicate it down to every child by
    /// refcount (the payload is shared, not rebuilt).
    pub(crate) fn on_result(&mut self, side: &mut Side<'_, '_>, block: u64, payload: &Bytes) {
        if let Some(lossy) = &mut self.table.lossy {
            // The final result supersedes the cached upward aggregate:
            // future pokes replay it directly instead of round-tripping
            // through the parent. One that is already cached is the
            // parent's answer to a poke this switch has no more use for.
            let entry = lossy.replay.get_or_insert_with(block, Retired::default);
            if entry.sent.has_result() {
                return;
            }
            entry.sent = payload.clone();
        }
        side.send(To::Children, block, PacketKind::DenseResult, payload);
    }
}

/// The one sparse block store: a hash table with a spill buffer where data
/// is sparse, an array over the block span where it has densified.
enum SparseStore<T: Element> {
    Hash(SparseHashStore<T>),
    Array(SparseArrayStore<T>),
}

impl<T: Element> SparseStore<T> {
    fn memory_bytes(&self) -> usize {
        match self {
            SparseStore::Hash(h) => h.memory_bytes(),
            SparseStore::Array(a) => a.memory_bytes(),
        }
    }
}

pub(crate) struct SparseBlock<T: Element> {
    store: SparseStore<T>,
    /// Per-child shard sequence tracking.
    shards: Vec<ShardTracker>,
    children_done: u16,
    /// Shard packets already sent for this block (spill flushes) — also
    /// the next shard sequence number, so spills and the final drain share
    /// one contiguous sequence per block (the identity the shard-dedup
    /// protocol relies on).
    sent_up: u16,
    /// Clones of the spill payloads sent while the block was open, so the
    /// cached replay set covers the *whole* announced shard sequence, not
    /// just the final drain. Empty unless loss recovery is on.
    sent_cache: Vec<Bytes>,
    home_cluster: usize,
}

/// Cached shard payloads of one finished block, the sparse counterpart of
/// the dense single-payload replay entry.
#[derive(Default)]
pub(crate) struct SparseReplay {
    /// Encoded shards this switch sent up (spills + the final drained
    /// aggregate), replayed towards the parent while the block's result
    /// has not come back down. Empty at the root.
    up: Vec<Bytes>,
    /// Encoded downward `SparseResult` shards: generated at the root,
    /// recorded in passing at inner switches. Replayed to a poking child
    /// once the set is complete.
    down: Vec<Bytes>,
    /// Completion of the downward set (duplicate shards rejected by
    /// sequence number).
    down_tracker: ShardTracker,
}

impl Replay for SparseReplay {
    fn has_result(&self) -> bool {
        self.down_tracker.is_complete()
    }
}

/// Send `pairs` chunked into shard packets of at most `per` pairs: up to
/// the parent (spill shards as `SparseSpill`, the `last` burst as
/// `SparseContrib`), or — at the root, where every shard is part of the
/// result — down to every child as `SparseResult`. Chunks get consecutive
/// shard sequence numbers starting at `first_seq`; the wire's
/// `shard_count` field carries the sequence number on non-last shards and
/// the announced total on the last one. Payload clones go to `keep` (the
/// replay set) when given.
#[allow(clippy::too_many_arguments)]
fn send_shards<T: Element>(
    side: &mut Side<'_, '_>,
    byte_pool: &mut PoolStats,
    per: usize,
    block: u64,
    pairs: &[(u32, T)],
    first_seq: u16,
    last: bool,
    mut keep: Option<&mut Vec<Bytes>>,
) {
    // An empty pair set still sends one header-only packet (paper
    // Section 7 "Empty blocks"), hence the `.max(1)`.
    let chunks = pairs.len().div_ceil(per).max(1);
    let (to, kind) = match (side.is_root(), last) {
        (true, _) => (To::Children, PacketKind::SparseResult),
        (false, true) => (To::Parent, PacketKind::SparseContrib),
        (false, false) => (To::Parent, PacketKind::SparseSpill),
    };
    let (allreduce, child) = (side.allreduce(), side.stamp(to));
    for i in 0..chunks {
        let chunk = &pairs[(i * per).min(pairs.len())..((i + 1) * per).min(pairs.len())];
        let last_shard = last && i + 1 == chunks;
        let (seq, total) = (first_seq + i as u16, first_seq + chunks as u16);
        let header = Header {
            allreduce,
            block: block as u32,
            child,
            kind,
            last_shard,
            shard_count: Header::shard_seq_field(last_shard, seq, total),
            elem_count: 0,
        };
        let payload = byte_pool.count_payloads(|| encode_sparse(header, chunk));
        side.send(to, block, kind, &payload);
        if let Some(keep) = keep.as_deref_mut() {
            keep.push(payload);
        }
    }
}

/// The sparse block lifecycle of one (switch, allreduce) — paper Section 7.
pub(crate) struct SparseCore<T: Element, O> {
    op: O,
    storage: SparseStorageKind,
    pub(crate) table: BlockTable<SparseBlock<T>, SparseReplay>,
    pairs_per_packet: usize,
    pair_pool: BufferPool<(u32, T)>,
    /// Payload blocks this program's encodes took, and how many of them a
    /// free list served.
    byte_pool: PoolStats,
    /// Spilled elements forwarded unaggregated — the paper's Figure 14
    /// "extra traffic".
    pub(crate) spilled_elems: u64,
}

impl<T: Element, O: ReduceOp<T>> SparseCore<T, O> {
    pub(crate) fn new(
        children: u16,
        op: O,
        storage: SparseStorageKind,
        pairs_per_packet: usize,
    ) -> Self {
        assert!(pairs_per_packet > 0);
        Self {
            op,
            storage,
            table: BlockTable::new(children),
            pairs_per_packet,
            pair_pool: BufferPool::new(),
            byte_pool: PoolStats::default(),
            spilled_elems: 0,
        }
    }

    pub(crate) fn stats(&self) -> ProgramStats {
        self.table.stats(self.pair_pool.stats(), self.byte_pool)
    }

    /// One shard of one child's contribution to `block` (a child switch's
    /// spill shards arrive the same way and count towards its announced
    /// total). A completed result goes to `capture`, sorted by index, when
    /// given, else back to the pool.
    pub(crate) fn on_contrib(
        &mut self,
        side: &mut Side<'_, '_>,
        block: u64,
        header: &Header,
        pairs: &SparseView<'_, T>,
        capture: Option<&mut Captured<Vec<(u32, T)>>>,
    ) {
        let (op, children, storage) = (&self.op, self.table.children, self.storage);
        let (per, byte_pool) = (self.pairs_per_packet, &mut self.byte_pool);
        let keep = self.table.lossy.is_some();
        // A new block's store lives in the L1 of the cluster that opens it.
        let opener = side.hpu().map_or(0, |ctx| ctx.cluster);
        let open = |spare: Option<SparseBlock<T>>| match spare {
            // A drained shell's store is already empty; only the
            // bookkeeping needs resetting.
            Some(mut b) => {
                b.shards.fill(ShardTracker::default());
                b.children_done = 0;
                b.sent_up = 0;
                b.sent_cache.clear();
                b.home_cluster = opener;
                b
            }
            None => SparseBlock {
                store: match storage {
                    SparseStorageKind::Hash { slots, spill_cap } => {
                        SparseStore::Hash(SparseHashStore::new(slots, spill_cap))
                    }
                    SparseStorageKind::Array { span } => {
                        SparseStore::Array(SparseArrayStore::new(op, span))
                    }
                },
                shards: vec![ShardTracker::default(); children as usize],
                children_done: 0,
                sent_up: 0,
                sent_cache: Vec::new(),
                home_cluster: opener,
            },
        };
        // The sparse mirror of the dense answers, in whole shard sets:
        // hosts and the parent reject the duplicates by shard sequence.
        let answer = |answer, entry: &SparseReplay| match answer {
            Answer::ReplayDown => {
                let to = To::Child(header.child);
                for payload in &entry.down {
                    side.send(to, block, PacketKind::SparseResult, payload);
                }
            }
            Answer::ResendUp => {
                for payload in &entry.up {
                    let kind = Header::decode(payload);
                    let kind = kind.map_or(PacketKind::SparseContrib, |(h, _)| h.kind);
                    side.send(To::Parent, block, kind, payload);
                }
            }
        };
        // Only the *last* shard of a retransmission burst pokes, so one
        // burst is one poke, not one per shard.
        let pokes = header.last_shard;
        let admitted = self.table.admit(block, header.child, pokes, open, answer);
        let Some((b, opened)) = admitted else {
            return;
        };
        if opened {
            side.working_mem(b.store.memory_bytes() as i64);
        }
        // Shard protocol first: a retransmitted shard whose original made
        // it through must not fold its pairs into the store a second time.
        let event = b.shards[header.child as usize].on_shard(
            header.shard_index(),
            header.last_shard,
            header.shard_count,
        );
        if event == ShardEvent::Duplicate {
            return; // rejected at parse cost, before taking the lock
        }
        side.sparse_lock(block, b, pairs.len());

        // Aggregate straight from the packet view; spill flushes collect
        // into a pooled batch.
        let mut flushed = self.pair_pool.get(0);
        let home = b.home_cluster;
        match &mut b.store {
            SparseStore::Hash(h) => pairs.for_each(|idx, val| match h.insert(op, idx, val) {
                HashInsert::SpillFlush(batch) => {
                    side.sparse_spill(block, home, batch.len());
                    flushed.extend_from_slice(&batch);
                    h.recycle_spill(batch);
                }
                HashInsert::Spilled => side.sparse_spill(block, home, 1),
                _ => {}
            }),
            // A pair outside the block span (a foreign or malformed
            // contribution) is skipped here, so the store's span assert is
            // unreachable from the wire.
            SparseStore::Array(a) => pairs.for_each(|idx, val| {
                if (idx as usize) < a.span() {
                    a.insert(op, idx, val);
                }
            }),
        }
        if !flushed.is_empty() {
            // Spilled data leaves the switch unaggregated: extra traffic.
            // The spill shards take the block's next sequence numbers and
            // (on lossy fabrics) join its replay set.
            self.spilled_elems += flushed.len() as u64;
            let first_seq = b.sent_up;
            b.sent_up += flushed.len().div_ceil(per) as u16;
            let keep = keep.then_some(&mut b.sent_cache);
            send_shards(
                side, byte_pool, per, block, &flushed, first_seq, false, keep,
            );
        }
        if event == ShardEvent::Complete {
            b.children_done += 1;
        }
        if b.children_done < children {
            self.pair_pool.put(flushed);
            return;
        }

        // Every child delivered: drain the store into the pooled batch and
        // send it as the burst that announces the block's shard total.
        let mut done = self.table.retire(block);
        flushed.clear();
        let mut result = flushed;
        match &mut done.store {
            SparseStore::Hash(h) => h.drain_into(&mut result),
            SparseStore::Array(a) => a.drain_into(&mut result),
        }
        side.sparse_flush(block, &done, result.len());
        let mut sent = std::mem::take(&mut done.sent_cache);
        let first_seq = done.sent_up;
        self.table.park(done);
        let kept = keep.then_some(&mut sent);
        send_shards(side, byte_pool, per, block, &result, first_seq, true, kept);
        if let Some(lossy) = &mut self.table.lossy {
            // Merged into any entry `on_result` already opened: root spill
            // shards can pass down while this block is still open here,
            // and overwriting would wipe their recorded down set.
            let entry = &mut lossy
                .replay
                .get_or_insert_with(block, Retired::default)
                .sent;
            if side.is_root() {
                // The shards just sent *are* the complete downward result.
                entry.down = sent;
                entry.down_tracker = ShardTracker::completed();
            } else {
                // The upward aggregate, awaiting its result.
                entry.up = sent;
            }
        }
        side.complete();
        match capture {
            Some(results) => {
                result.sort_unstable_by_key(|&(i, _)| i);
                results.push((block, result));
            }
            None => self.pair_pool.put(result),
        }
    }

    /// A result shard from the parent: replicate it down by refcount.
    pub(crate) fn on_result(
        &mut self,
        side: &mut Side<'_, '_>,
        block: u64,
        header: &Header,
        payload: &Bytes,
    ) {
        if let Some(lossy) = &mut self.table.lossy {
            // Record the passing shard so a later poke can be answered
            // from here instead of round-tripping to the root. A shard
            // already recorded is part of the root's answer to a poke, and
            // was replicated when it first passed.
            let entry = &mut lossy
                .replay
                .get_or_insert_with(block, Retired::default)
                .sent;
            let event = entry.down_tracker.on_shard(
                header.shard_index(),
                header.last_shard,
                header.shard_count,
            );
            if event == ShardEvent::Duplicate {
                return;
            }
            entry.down.push(payload.clone());
        }
        side.send(To::Children, block, PacketKind::SparseResult, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admit a packet of `block` from `child`: whether it opened the block,
    /// `None` if it was dropped.
    fn opens(table: &mut BlockTable<u64, Bytes>, block: u64, child: u16) -> Option<bool> {
        let admitted = table.admit(block, child, true, |_| block, |_, _| {});
        admitted.map(|(_, opened)| opened)
    }

    fn open_peak(table: &BlockTable<u64, Bytes>) -> usize {
        table
            .stats(PoolStats::default(), PoolStats::default())
            .open_peak
    }

    #[test]
    fn the_open_block_high_water_counts_opens_until_retirement() {
        let mut table = BlockTable::new(2);
        assert_eq!(opens(&mut table, 0, 0), Some(true));
        assert_eq!(
            opens(&mut table, 0, 1),
            Some(false),
            "a second packet joins"
        );
        assert_eq!(opens(&mut table, 1, 0), Some(true));
        assert_eq!(open_peak(&table), 2);
        table.retire(0);
        assert_eq!(opens(&mut table, 2, 0), Some(true));
        assert_eq!(open_peak(&table), 2, "a retired block no longer counts");
        assert_eq!(
            opens(&mut table, 0, 0),
            None,
            "a retransmission opens nothing"
        );
        assert_eq!(opens(&mut table, 3, 0), Some(true));
        assert_eq!(open_peak(&table), 3);
    }
}
