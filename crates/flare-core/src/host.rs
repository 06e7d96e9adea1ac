//! Host-side Flare library: packetization, staggered sending, windowing
//! and retransmission (paper Sections 4–5).
//!
//! There is one host, [`FlareHost`]: it splits its contribution into
//! blocks, keeps at most `window` of them in flight (the admitted plan's
//! window, which the switches' working-memory reservations are sized
//! for), rotates its block
//! send order by a per-host *stagger offset* (Section 5), and retransmits
//! blocks whose result is overdue (Section 4.1 — switch-side duplicate
//! rejection absorbs the retransmissions). What a block *is* comes from its
//! [`Payload`]: `N` dense elements in one packet, reduced in place
//! ([`DenseFlareHost`]), or a span's `(index, value)` pairs in numbered
//! shards ([`SparseFlareHost`]).
//!
//! *Overdue* is measured, not configured: a deadline per block, from the
//! round trips the send window already records ([`RttEstimate`], and
//! [`FlareHost`] for the two kinds of deadline), with
//! [`HostConfig::retransmit_after`] as the timeout only until the first
//! result is in. NetReduce (PAPERS.md) is the reference for recovering at
//! transport timescales; the loss detection is TCP RACK-TLP's (RFC 8985)
//! idea applied to blocks: a block is lost when one sent after it has come
//! back and a reorder window has passed, and a flow that hears nothing
//! probes with one block rather than re-sending its window.

use std::collections::VecDeque;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use bytes::{prefetch, Bytes};

use flare_des::Time;
use flare_net::{HostCtx, HostProgram, NetPacket, NodeId, TraceKind};

use crate::dtype::Element;
use crate::op::ReduceOp;
use crate::sparse::{ShardEvent, ShardTracker};
use crate::wire::{encode_dense, encode_sparse, DenseView, Header, PacketKind, SparseView};
use crate::wiring::check_iteration;

/// Shared slot a host-based baseline (`flare-baselines`) writes its final
/// reduced vector into, readable by the caller after the simulation (the
/// simulator owns the programs). A Flare participant keeps its result
/// itself: it is read back with [`FlareHost::take_result`].
///
/// `Arc<Mutex<_>>` rather than `Rc<RefCell<_>>` only because the
/// benchmark package reads it with `.lock()`; the lock is touched once per
/// completed allreduce, never per packet.
pub type ResultSink<T> = Arc<Mutex<Option<Vec<T>>>>;

/// Create an empty result sink.
pub fn result_sink<T>() -> ResultSink<T> {
    Arc::new(Mutex::new(None))
}

/// One rank's reduced vector, read back from its participant after a run.
///
/// A dense rank's is the participant's own input buffer, reduced in place:
/// owned, and no allocation of its own. A sparse rank's is built after the
/// run from the result shards its participant accepted, and ranks whose
/// participants accepted the same shard buffers in the same order share
/// one vector ([`SharedResults`]): on a lossless fabric every rank of a
/// sparse collective holds the same vector, because the switches multicast
/// one set of result shards to all of them.
#[derive(Clone)]
pub struct RankResult<T>(Held<T>);

#[derive(Clone)]
enum Held<T> {
    Owned(Vec<T>),
    Shared(Rc<Vec<T>>),
}

impl<T> Deref for RankResult<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Held::Owned(v) => v,
            Held::Shared(v) => v,
        }
    }
}

impl<T: Clone> RankResult<T> {
    /// The vector, copied only if another rank still shares it.
    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Held::Owned(v) => v,
            Held::Shared(v) => Rc::unwrap_or_clone(v),
        }
    }
}

impl<T: PartialEq> PartialEq for RankResult<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for RankResult<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

impl<T: PartialEq> PartialEq<[T]> for RankResult<T> {
    fn eq(&self, other: &[T]) -> bool {
        **self == *other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankResult<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The sparse results one read-back has built so far, each beside the
/// result shards it was built from. A participant whose accepted shards
/// are, element for element, the same buffers (by data pointer) in the
/// same order shares that vector instead of building its own: the same
/// pairs combined in the same order are the same bits. A participant that
/// accepted a shard another did not, or in another order (a replay after a
/// loss), builds its own.
pub struct SharedResults<T> {
    built: Vec<(Vec<Bytes>, Rc<Vec<T>>)>,
}

impl<T> Default for SharedResults<T> {
    fn default() -> Self {
        Self { built: Vec::new() }
    }
}

impl<T> SharedResults<T> {
    /// The vector built from `shards`, if one was; else `build(&shards)`,
    /// kept for the participants read after this one.
    fn share(
        &mut self,
        shards: Vec<Bytes>,
        build: impl FnOnce(&[Bytes]) -> Vec<T>,
    ) -> RankResult<T> {
        let same = |built: &[Bytes]| {
            built.len() == shards.len()
                && built
                    .iter()
                    .zip(&shards)
                    .all(|(a, b)| a.as_ptr() == b.as_ptr())
        };
        let result = match self.built.iter().find(|(built, _)| same(built)) {
            Some((_, result)) => result.clone(),
            None => {
                let result = Rc::new(build(&shards));
                self.built.push((shards, result.clone()));
                result
            }
        };
        RankResult(Held::Shared(result))
    }
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
    /// Maximum blocks in flight: the admitted plan's window
    /// (`AllreducePlan::window`), the paper's ℛ where no rank is staggered
    /// on a lossless fabric of serial pipelines and the stagger-spread
    /// window elsewhere.
    pub window: usize,
    /// Rotation of the block send order (staggered sending): rank `i`
    /// uses `i × step`, with a step that never wraps the block range
    /// (`blocks / P` when the window covers every block, so 0 when there
    /// are more hosts than blocks).
    pub stagger_offset: u64,
    /// Retransmit a block if its result is missing after this long, until
    /// the flow's round trip has been measured ([`RttEstimate`]); `None`
    /// on a reliable network: no timer is armed.
    pub retransmit_after: Option<Time>,
    /// Which run over one admitted collective this participant is: 0 for a
    /// standalone collective, 0, 1, 2, … for the DNN iterations a traffic
    /// engine drives through it. It namespaces the two things a later
    /// iteration must not mistake for its own:
    /// * block ids on the wire: local block `b` of `blocks` is sent as
    ///   `iteration × blocks + b`, so stale switch state never aliases;
    /// * the retransmission wake tag (its
    ///   [`seq`](crate::tag::FlowTag::seq) is `iteration`), so a timer
    ///   armed by iteration `k` is ignored by iteration `k + 1`.
    ///
    /// Host constructors panic on an iteration the wire cannot carry;
    /// [`crate::wiring::FlowWiring::host`] returns it as a typed error
    /// ([`crate::wiring::check_iteration`] is the rule).
    pub iteration: u32,
}

/// One window position: when its block was last sent and how many times
/// it has been re-sent, in one word.
///
/// Packed rather than widened because the window is what a host's state
/// for its flow is made of (8 B per position, at most 2W positions a host;
/// see [`SendWindow`]): the re-send count takes the top byte, which a
/// simulated time in ns does not reach in two years.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u64);

impl Slot {
    /// A position whose block is no longer in flight.
    const CLOSED: Slot = Slot(u64::MAX);
    const TIME_BITS: u32 = 56;

    fn new(sent: Time, tries: u8) -> Self {
        debug_assert!(sent >> Self::TIME_BITS == 0 && tries < u8::MAX);
        Slot((tries as u64) << Self::TIME_BITS | sent)
    }

    /// When the block was last sent.
    fn sent(self) -> Time {
        self.0 & ((1 << Self::TIME_BITS) - 1)
    }

    /// How many times the block was re-sent: 0 while its first send is the
    /// only one.
    fn tries(self) -> u8 {
        (self.0 >> Self::TIME_BITS) as u8
    }
}

/// The send window: which blocks are in flight, since when, in send order.
///
/// Blocks leave a host in rotation order — position `p` carries block
/// `(p + stagger_offset) % blocks` — and a host holds state only for what
/// it has in flight, not for the span of its flow. The newest positions,
/// at most `reach` of them (the host's window `W`), are a deque of
/// [`Slot`]s over `[first, first + slots.len())`, with [`Slot::CLOSED`]
/// marking a position whose result has arrived. Beside each slot sits the
/// payload's state `S` for the block (see [`Payload::BlockState`]), made
/// when the position opens and dropped when it closes. An open position
/// that falls out of the deque, a straggler, moves to `behind`, a list of
/// `(position, slot, state)` in position order: under staggering, the
/// blocks the other hosts send last. A host has at most `W` blocks open,
/// so the window holds at most `2W` entries whatever the flow's length
/// (`dense_star`, W = 96: at most 96 deque positions and 62 stragglers a
/// host, where a deque reaching back to the oldest open position grew to
/// 8 192), and `behind` is allocated only once a block stays out for more
/// than `W` sends.
///
/// Open, close and lookup are O(1) in the deque and a binary search in
/// `behind`. Entries are numbered `behind` first, then the deque: position
/// order, the order of first sends, which makes the retransmission scan
/// reproducible.
#[derive(Debug)]
struct SendWindow<S> {
    /// 32-bit, as wire block ids are.
    blocks: u32,
    /// `stagger_offset % blocks`.
    offset: u32,
    /// Position of `slots[0]`; every earlier position is closed or in
    /// `behind`.
    first: u32,
    /// Blocks in flight: entries not [`Slot::CLOSED`].
    open: u32,
    slots: VecDeque<(Slot, S)>,
    /// The open positions before `first`, ascending.
    behind: Vec<(u32, Slot, S)>,
}

impl<S: Default> SendWindow<S> {
    fn new(blocks: u64, stagger_offset: u64) -> Self {
        let blocks = u32::try_from(blocks).expect("positions are 32-bit, as wire block ids");
        assert!(blocks > 0);
        Self {
            blocks,
            offset: (stagger_offset % blocks as u64) as u32,
            first: 0,
            open: 0,
            slots: VecDeque::new(),
            behind: Vec::new(),
        }
    }

    /// Blocks in flight.
    fn len(&self) -> usize {
        self.open as usize
    }

    /// Positions sent.
    fn sent(&self) -> u32 {
        self.first + self.slots.len() as u32
    }

    /// Blocks whose result has arrived.
    fn closed(&self) -> u32 {
        self.sent() - self.open
    }

    /// Entries: the stragglers, then the deque's positions.
    fn entries(&self) -> usize {
        self.behind.len() + self.slots.len()
    }

    fn block_at(&self, pos: u32) -> u64 {
        (pos as u64 + self.offset as u64) % self.blocks as u64
    }

    /// The position of `block`, one of `0..blocks`.
    fn pos_of(&self, block: u64) -> u32 {
        let blocks = self.blocks as u64;
        ((block + blocks - self.offset as u64) % blocks) as u32
    }

    /// The next block in send order that has never been sent (`None` once
    /// all have).
    fn next_unsent(&self) -> Option<u64> {
        let pos = self.sent();
        (pos < self.blocks).then(|| self.block_at(pos))
    }

    /// Record the [`next_unsent`](Self::next_unsent) block as in flight
    /// since `at`, keeping the deque to the newest `reach` positions.
    fn push(&mut self, at: Time, reach: usize) {
        while self.slots.len() >= reach.max(1) {
            let (oldest, state) = self.slots.pop_front().expect("a full deque");
            if oldest != Slot::CLOSED {
                self.behind.push((self.first, oldest, state));
            }
            self.first += 1;
        }
        self.pop_closed();
        self.slots.push_back((Slot::new(at, 0), S::default()));
        self.open += 1;
    }

    /// Drop the closed positions at the front of the deque.
    fn pop_closed(&mut self) {
        while self.slots.front().is_some_and(|e| e.0 == Slot::CLOSED) {
            self.slots.pop_front();
            self.first += 1;
        }
    }

    /// The block in entry `entry` and its state, if it is in flight.
    fn in_slot(&self, entry: usize) -> Option<(u64, Slot)> {
        let (pos, state) = match self.behind.get(entry) {
            Some(&(pos, state, _)) => (pos, state),
            None => {
                let slot = entry - self.behind.len();
                (self.first + slot as u32, self.slots.get(slot)?.0)
            }
        };
        (state != Slot::CLOSED).then(|| (self.block_at(pos), state))
    }

    /// Record the in-flight block in entry `entry` as re-sent at `at`; its
    /// new state.
    fn resent(&mut self, entry: usize, at: Time) -> Slot {
        let stragglers = self.behind.len();
        let state = match entry.checked_sub(stragglers) {
            None => &mut self.behind[entry].1,
            Some(slot) => &mut self.slots[slot].0,
        };
        *state = Slot::new(at, state.tries().saturating_add(1).min(u8::MAX - 1));
        *state
    }

    /// The entry of `block` if it is in flight: sent, and its result not
    /// yet arrived.
    fn in_flight(&self, block: u64) -> Option<usize> {
        if block >= self.blocks as u64 {
            return None;
        }
        let pos = self.pos_of(block);
        let Some(slot) = pos.checked_sub(self.first) else {
            return self.behind.binary_search_by_key(&pos, |s| s.0).ok();
        };
        let state = self.slots.get(slot as usize)?.0;
        (state != Slot::CLOSED).then_some(self.behind.len() + slot as usize)
    }

    /// The payload's state for the block in entry `entry`.
    fn block_state(&mut self, entry: usize) -> &mut S {
        match entry.checked_sub(self.behind.len()) {
            None => &mut self.behind[entry].2,
            Some(slot) => &mut self.slots[slot].1,
        }
    }

    /// Close `block`, returning its state (`None` if not in flight: never
    /// sent, or already closed).
    fn remove(&mut self, block: u64) -> Option<Slot> {
        let entry = self.in_flight(block)?;
        self.open -= 1;
        let Some(slot) = entry.checked_sub(self.behind.len()) else {
            return Some(self.behind.remove(entry).1);
        };
        let (state, _) = std::mem::replace(&mut self.slots[slot], (Slot::CLOSED, S::default()));
        self.pop_closed();
        Some(state)
    }
}

/// What one host has measured of a flow's round trips — the time from
/// sending a block to its result arriving — in ns: what its retransmission
/// deadlines are made of.
///
/// A block's round trip is not only the fabric's: its result waits for the
/// slowest participant, so a host that is recovering a loss, or still in
/// the iteration before, stretches every other host's "round trip" by its
/// own delay. A timeout on the smoothed round trip therefore feeds on
/// itself (one host's timeout lengthens the samples, and so the timeouts,
/// of all the others: measured, `traffic_lossy`'s estimates ran away to
/// milliseconds). Two quantities do not: the *shortest* round trip, which
/// no wait can shorten, and how much *later* a result arrives than that of
/// a block sent no earlier, which starts counting only once the flow is
/// known to be moving.
///
/// Integers throughout — the gains of the smoothed lateness are shifts, as
/// in TCP (RFC 6298: 1/8 on the mean, 1/4 on the deviation) — because the
/// deadlines are simulated time: the same bits on every driver and every
/// machine. A flow's estimate outlives the host that took it: an engine
/// that re-runs the flow hands each iteration's estimate to the next
/// ([`crate::wiring::FlowWiring::host`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimate {
    /// Shortest round trip of a block that was sent once; 0 until the
    /// first.
    pub min_rtt: Time,
    /// Smoothed lateness: by how much a block's round trip exceeded that
    /// of the most recently sent block whose result was already in.
    pub late: Time,
    /// Smoothed mean deviation of the lateness from `late`.
    pub late_dev: Time,
}

/// Lower bound of a measured timeout. In a simulation round trips repeat to
/// the nanosecond, the deviation decays to nothing and a deadline would sit
/// on the expected arrival itself, where one queued packet ahead is a
/// spurious timeout. 2 µs is that slack: two dozen 1 KiB packets on a
/// 100 Gbit/s link, and the order of the round trip of the smallest fabric
/// (a star's four hops are 1.2 µs).
const MIN_TIMEOUT: Time = 2_000;

impl RttEstimate {
    /// Fold in the round trip `rtt` of a block that was sent once (Karn's
    /// rule: the result of a re-sent block cannot be matched to one of its
    /// sends).
    fn round_trip(&mut self, rtt: Time) {
        if self.min_rtt == 0 || rtt < self.min_rtt {
            // A result cannot arrive in the instant its block was sent.
            self.min_rtt = rtt.max(1);
        }
    }

    /// Fold in one lateness sample.
    fn lateness(&mut self, late: Time) {
        if self.late == 0 && self.late_dev == 0 {
            (self.late, self.late_dev) = (late, late / 2);
        } else {
            let err = self.late.abs_diff(late);
            self.late_dev = self.late_dev - (self.late_dev >> 2) + (err >> 2);
            self.late = self.late - (self.late >> 3) + (late >> 3);
        }
    }

    /// How long past the round trip of a block sent no earlier a result
    /// may be before its block counts as lost: `late + 4·late_dev`, at
    /// least [`MIN_TIMEOUT`].
    fn reorder_window(&self) -> Time {
        (self.late + 4 * self.late_dev).max(MIN_TIMEOUT)
    }

    /// How long a block may be out with nothing sent since having come
    /// back: `initial` until the first round trip, then twice the shortest
    /// one (a lone re-sent packet meets no queue of its own flow; the
    /// factor is the slack for other flows'), at least [`MIN_TIMEOUT`].
    fn probe_timeout(&self, initial: Time) -> Time {
        match self.min_rtt {
            0 => initial,
            rtt => (2 * rtt).max(MIN_TIMEOUT),
        }
    }
}

/// The retransmission state of a host on a fabric that can lose packets.
struct Retransmit {
    /// Packed [`FlowTag`](crate::tag::FlowTag) this host's wakes carry.
    tag: u64,
    /// [`HostConfig::retransmit_after`]: the timeout until the first round
    /// trip is in, and the cap of a block's backoff.
    initial: Time,
    rtt: RttEstimate,
    /// The latest send time of any block that was sent once and whose
    /// result is in, and the round trip of the latest such block to close
    /// (0: none yet). A block sent no later has *evidence*: the flow was
    /// moving after it left, so its own result is late, not waiting.
    newest_sent: Time,
    newest_rtt: Time,
    /// When a block last closed, re-sent or not.
    last_close: Time,
    /// When the one wake that counts fires ([`Time::MAX`]: none pending).
    /// Wakes cannot be cancelled, so arming an earlier one leaves the
    /// later one in the queue; it fires before `next_due` has come round
    /// again and returns on that comparison.
    next_due: Time,
}

impl Retransmit {
    fn has_evidence(&self, slot: Slot) -> bool {
        self.newest_rtt != 0 && slot.sent() <= self.newest_sent
    }

    /// When the block in `slot` is overdue. With evidence, once it has been
    /// out for the newest round trip plus the reorder window; without, once
    /// the probe timeout has passed with nothing coming in (a flow that is
    /// moving will bring the evidence). Either wait doubles per re-send of
    /// the block, up to [`HostConfig::retransmit_after`]: backoff keeps a
    /// host from re-sending into the congestion that delayed the result
    /// (and a block that staggering leaves open to the end of the flow from
    /// being re-sent every round trip: every host has some, the blocks the
    /// others send last). A lower cap re-sends more into a congested fabric
    /// — measured on 32 hosts × 32 tenants, capping at four waits took
    /// 9.2 ms where this takes 7.5 — and a higher one only lengthens the
    /// tail: a block that is lost three times over holds its tenant's next
    /// jobs behind it.
    fn due(&self, slot: Slot) -> Time {
        let (since, wait) = if self.has_evidence(slot) {
            (slot.sent(), self.newest_rtt + self.rtt.reorder_window())
        } else {
            let since = slot.sent().max(self.last_close);
            (since, self.rtt.probe_timeout(self.initial))
        };
        let backed_off = wait.saturating_mul(1 << slot.tries().min(16));
        since + backed_off.min(self.initial.max(wait))
    }

    /// The block that was in `slot` closed at `now`.
    fn closed(&mut self, slot: Slot, now: Time) {
        self.last_close = now;
        if slot.tries() != 0 {
            return; // Karn's rule
        }
        let rtt = now - slot.sent();
        self.rtt.round_trip(rtt);
        if self.newest_rtt == 0 || slot.sent() > self.newest_sent {
            (self.newest_sent, self.newest_rtt) = (slot.sent(), rtt);
            return;
        }
        // Sent no later than the newest, in later: by this much.
        self.rtt.lateness(rtt.saturating_sub(self.newest_rtt));
        if slot.sent() == self.newest_sent {
            self.newest_rtt = rtt;
        }
    }

    /// Make the wake that counts the one at `due` (now, if that is past).
    fn arm(&mut self, ctx: &mut HostCtx<'_>, due: Time) {
        self.next_due = due.max(ctx.now());
        ctx.wake_in(self.next_due - ctx.now(), self.tag);
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
pub trait Payload {
    /// Element type of the reduced vector.
    type Elem: Element;

    /// The packet kind of this payload's contributions.
    const CONTRIB: PacketKind;

    /// What the host keeps for one block while it is in flight, beside its
    /// position in the send window: made when the block is first sent,
    /// dropped when its result is whole. A result for a block not in
    /// flight never reaches the payload, so no block needs more.
    type BlockState: Default;

    /// How many packets local block `block` is sent as.
    fn packets(&self, block: u64) -> usize;

    /// Encode packet `i` of local block `block`. `header` is a
    /// [`Self::CONTRIB`] header carrying the wire block id and the host's
    /// child index. A re-send must produce the same packet.
    fn encode(&self, block: u64, i: usize, header: Header) -> Bytes;

    /// Apply one result packet addressed to the in-flight local block
    /// `block`, whose state is `state`. The payload may keep a handle on
    /// `packet`.
    fn apply(&mut self, block: u64, state: &mut Self::BlockState, packet: &Bytes) -> Applied;

    /// The reduced vector, once every block is complete: a sparse payload
    /// builds it, or shares one in `shared` built from the same shards.
    fn take_result(&mut self, shared: &mut SharedResults<Self::Elem>) -> RankResult<Self::Elem>;
}

/// A Flare allreduce participant over payload `P` (see
/// [`DenseFlareHost`] and [`SparseFlareHost`]).
///
/// Loss recovery is the same for every payload. In-flight blocks live in
/// the send window with the time of their latest send, and each has a
/// deadline made of the flow's own round trips ([`RttEstimate`]; until the
/// first block closes, of [`HostConfig::retransmit_after`]), doubled per
/// re-send of the block:
///
/// * A block with *evidence* — the result of a block sent no earlier is in
///   — is overdue once it has been out for that block's round trip plus
///   the reorder window, and every such block is re-sent (all packets
///   re-encoded, same shard sequence numbers, so switches reject the
///   duplicates).
/// * Without evidence nothing tells a lost block from a flow that is
///   waiting for its slowest participant, and a host that re-sent its
///   window each time would, with every block of an iteration in flight at
///   once, re-send the iteration. So past the probe timeout one block, the
///   oldest, is re-sent as a probe; the rest wait for evidence or their
///   turn.
///
/// One wake is pending, for the earliest deadline. A result for a block no
/// longer in flight — a replay — is dropped before it reaches the payload.
///
/// The reduced vector stays with the participant: once it has
/// [`finished`](Self::finished), whoever installed it takes the program
/// back from the simulation and reads it with
/// [`take_result`](Self::take_result).
pub struct FlareHost<P: Payload> {
    cfg: HostConfig,
    /// `Some` iff [`HostConfig::retransmit_after`] is: a host on a reliable
    /// fabric carries no timer state (boxed, so not its size either).
    retx: Option<Box<Retransmit>>,
    payload: P,
    /// Wire bytes of the whole contribution (telemetry).
    wire_bytes: u64,
    outstanding: SendWindow<P::BlockState>,
    /// Blocks re-sent by the retransmission timer.
    pub retransmits: u64,
}

impl<P: Payload> FlareHost<P> {
    /// A participant contributing `payload`: `blocks` blocks, `wire_bytes`
    /// bytes in all.
    fn over(cfg: HostConfig, payload: P, blocks: usize, wire_bytes: usize) -> Self {
        let tag = check_iteration(cfg.allreduce, cfg.iteration as u64, blocks as u64)
            .unwrap_or_else(|e| panic!("{e}; FlowWiring::host checks first"));
        let retx = cfg.retransmit_after.map(|initial| {
            Box::new(Retransmit {
                tag,
                initial,
                rtt: RttEstimate::default(),
                newest_sent: 0,
                newest_rtt: 0,
                last_close: 0,
                next_due: Time::MAX,
            })
        });
        Self {
            retx,
            outstanding: SendWindow::new(blocks as u64, cfg.stagger_offset),
            wire_bytes: wire_bytes as u64,
            cfg,
            payload,
            retransmits: 0,
        }
    }

    /// The wire id of local block `block`: this iteration's range of
    /// [`HostConfig::iteration`] × blocks onwards.
    fn wire_block(&self, block: u64) -> u64 {
        self.cfg.iteration as u64 * self.outstanding.blocks as u64 + block
    }

    /// Whether every block's result has arrived.
    pub fn finished(&self) -> bool {
        self.outstanding.closed() == self.outstanding.blocks
    }

    /// The reduced vector, once [`finished`](Self::finished) (`None`
    /// before); read it once. A sparse participant shares a vector in
    /// `shared` that was built from the same result shards (see
    /// [`SharedResults`]), and adds the one it builds otherwise.
    pub fn take_result(
        &mut self,
        shared: &mut SharedResults<P::Elem>,
    ) -> Option<RankResult<P::Elem>> {
        self.finished().then(|| self.payload.take_result(shared))
    }

    /// The flow's round-trip estimate as this host has it now (all zero on
    /// a host without a retransmission timer).
    pub fn rtt(&self) -> RttEstimate {
        self.retx.as_ref().map_or_else(Default::default, |r| r.rtt)
    }

    /// Start from `rtt`, the estimate an earlier participant of the same
    /// flow finished with, instead of from
    /// [`HostConfig::retransmit_after`]. Call before the host starts.
    pub fn resume_rtt(&mut self, rtt: RttEstimate) {
        if let Some(retx) = &mut self.retx {
            retx.rtt = rtt;
        }
    }

    /// Put every packet of `block` on the wire.
    fn send_block(&mut self, ctx: &mut HostCtx<'_>, block: u64) {
        let flow = self.cfg.allreduce as u64;
        let wire_block = self.wire_block(block);
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
                self.cfg.leaf,
                self.cfg.allreduce,
                wire_block,
                self.cfg.child_index,
                P::CONTRIB as u8,
                self.payload.encode(block, i, header),
            );
            let wire = pkt.wire_bytes as u64;
            ctx.send(pkt);
            ctx.trace(TraceKind::ShardSend, flow, wire_block, wire);
        }
    }

    fn trace_in_flight(&self, ctx: &mut HostCtx<'_>) {
        let (flow, open) = (self.cfg.allreduce as u64, self.outstanding.len() as u64);
        ctx.trace(TraceKind::InFlight, flow, open, 0);
    }

    /// Fill the window with first sends, then see to the timer.
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        let mut sent = false;
        while self.outstanding.len() < self.cfg.window {
            let Some(block) = self.outstanding.next_unsent() else {
                break;
            };
            self.send_block(ctx, block);
            self.outstanding.push(ctx.now(), self.cfg.window);
            self.trace_in_flight(ctx);
            sent = true;
        }
        let Some(retx) = &mut self.retx else {
            return;
        };
        // The earliest deadline, as far as one look tells: the oldest
        // position's, or that of the blocks just sent where the oldest is
        // backed off past them. What lies between was covered when it was
        // sent or by the last scan; where the estimate has moved since, the
        // pending wake finds it that much early or late.
        let Some((_, oldest)) = self.outstanding.in_slot(0) else {
            return;
        };
        let mut due = retx.due(oldest);
        if sent {
            due = due.min(ctx.now() + retx.rtt.probe_timeout(retx.initial));
        }
        // Only if it is earlier than the pending wake by more than an
        // eighth of the shortest timeout: an estimate that creeps down with
        // every sample would otherwise put a wake behind every result.
        if due.saturating_add(MIN_TIMEOUT / 8) < retx.next_due {
            retx.arm(ctx, due);
        }
    }
}

impl<P: Payload + 'static> HostProgram for FlareHost<P> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.trace(
            TraceKind::FlowSubmit,
            self.cfg.allreduce as u64,
            self.outstanding.blocks as u64,
            self.wire_bytes,
        );
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        let flow = self.cfg.allreduce as u64;
        // Translate the wire block id back into local numbering. Ids
        // outside this run's window are stale (an earlier iteration over
        // the same collective) and ids not in flight already have their
        // result (a loss-path replay): both are dropped.
        let Some(local) = pkt.block.checked_sub(self.wire_block(0)) else {
            return;
        };
        let Some(entry) = self.outstanding.in_flight(local) else {
            return;
        };
        let state = self.outstanding.block_state(entry);
        let complete = match self.payload.apply(local, state, &pkt.payload) {
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
        // Consumed: if this was its last handle (a dense result), the
        // payload's block is free (and cache-hot) for the sends below.
        let wire_block = pkt.block;
        drop(pkt);
        let closed = self.outstanding.remove(local);
        if let (Some(retx), Some(slot)) = (&mut self.retx, closed) {
            retx.closed(slot, ctx.now());
        }
        ctx.trace(TraceKind::BlockRetire, flow, wire_block, 0);
        self.trace_in_flight(ctx);
        if self.finished() {
            ctx.mark_done();
        } else {
            self.pump(ctx);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
        // A stale tag (an earlier iteration's under a traffic mux)
        // and a wake that an earlier one has superseded die here without
        // re-arming: one chain of wakes per live incarnation.
        let now = ctx.now();
        let live = |r: &mut Box<Retransmit>| r.tag == tag && now >= r.next_due;
        let Some(mut retx) = self.retx.take_if(live) else {
            return;
        };
        // Re-send what is overdue and find the earliest deadline left. A
        // re-send changes an entry in place, so the window holds still.
        let mut earliest = Time::MAX;
        let mut probed = false;
        for entry in 0..self.outstanding.entries() {
            let Some((block, state)) = self.outstanding.in_slot(entry) else {
                continue;
            };
            let (due, evidence) = (retx.due(state), retx.has_evidence(state));
            if due > now {
                earliest = earliest.min(due);
                // Blocks that were sent once are due in send order, those
                // with evidence before those without, and a re-sent block
                // later than when it was first: past the first position
                // that is sent once, without evidence and not yet due,
                // nothing is.
                if state.tries() == 0 && !evidence {
                    break;
                }
                continue;
            }
            // Blocks sent once and without evidence are probed one a wake
            // (the rest are looked at again a probe timeout on); one that
            // was re-sent has its own backoff.
            let probe = !evidence && state.tries() == 0;
            if probe && probed {
                earliest = earliest.min(now + retx.rtt.probe_timeout(retx.initial));
                continue;
            }
            probed |= probe;
            let state = self.outstanding.resent(entry, now);
            earliest = earliest.min(retx.due(state));
            self.retransmits += 1;
            let (flow, wire_block) = (self.cfg.allreduce as u64, self.wire_block(block));
            let tries = state.tries() as u64;
            ctx.trace(TraceKind::Retransmit, flow, wire_block, tries);
            self.send_block(ctx, block);
            self.trace_in_flight(ctx);
        }
        // Nothing in flight: every result has arrived, no wake is needed.
        retx.next_due = Time::MAX;
        if earliest != Time::MAX {
            retx.arm(ctx, earliest);
        }
        self.retx = Some(retx);
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
    pub fn new(cfg: HostConfig, elems_per_packet: usize, data: Vec<T>) -> Self {
        assert!(elems_per_packet > 0 && !data.is_empty());
        let blocks = data.len().div_ceil(elems_per_packet);
        let wire_bytes = data.len() * T::WIRE_BYTES;
        let payload = DensePayload {
            elems_per_packet,
            data,
        };
        Self::over(cfg, payload, blocks, wire_bytes)
    }
}

/// How many blocks ahead of the one it copies a dense host prefetches.
///
/// A host sends its blocks in order and receives their results in the same
/// order about one multicast round later, so the next block is the one a
/// cursor touches next.
const LOOKAHEAD: u64 = 1;

impl<T> DensePayload<T> {
    fn block_range(&self, block: u64) -> std::ops::Range<usize> {
        let start = block as usize * self.elems_per_packet;
        start..(start + self.elems_per_packet).min(self.data.len())
    }

    /// The range [`LOOKAHEAD`] blocks after `block`, wrapping past the last
    /// block to block 0 as the stagger does.
    fn ahead(&self, block: u64) -> std::ops::Range<usize> {
        let blocks = self.data.len().div_ceil(self.elems_per_packet) as u64;
        self.block_range((block + LOOKAHEAD) % blocks.max(1))
    }
}

impl<T: Element> Payload for DensePayload<T> {
    type Elem = T;
    const CONTRIB: PacketKind = PacketKind::DenseContrib;
    /// Nothing: one packet is the whole result.
    type BlockState = ();

    fn packets(&self, _block: u64) -> usize {
        1
    }

    fn encode(&self, block: u64, _i: usize, header: Header) -> Bytes {
        let packet = encode_dense(header, &self.data[self.block_range(block)]);
        prefetch::for_read(&self.data[self.ahead(block)]);
        packet
    }

    fn apply(&mut self, block: u64, _: &mut (), packet: &Bytes) -> Applied {
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
        let ahead = self.ahead(block);
        prefetch::for_write(&mut self.data[ahead]);
        Applied::Block
    }

    fn take_result(&mut self, _: &mut SharedResults<T>) -> RankResult<T> {
        RankResult(Held::Owned(std::mem::take(&mut self.data)))
    }
}

/// Sparse allreduce participant (paper Section 7).
///
/// Input is the host's sparsified `(global index, value)` list; blocks
/// span `span` consecutive indexes; each block's pairs are chunked into
/// shards of at most `pairs_per_packet`, the last shard announcing the
/// count; empty blocks still send a header-only packet. Incoming result
/// shards are deduplicated by sequence number — a replayed result must not
/// double-count.
///
/// The host builds no dense vector while it runs. It records each result
/// shard it accepts, a handle on the packet buffer the switch multicast to
/// every child (a reference count, not a copy), in acceptance order. The
/// vector is built when the result is read
/// ([`FlareHost::take_result`]): the operator's identity everywhere, then
/// every shard's pairs combined into its block's span in the order they
/// were accepted, a pair outside the span skipped. Ranks that accepted the
/// same shards in the same order share that vector ([`SharedResults`]), so
/// a lossless sparse collective holds one result, not one per rank.
pub type SparseFlareHost<T, O> = FlareHost<SparsePayload<T, O>>;

/// The [`Payload`] of a [`SparseFlareHost`].
pub struct SparsePayload<T, O> {
    op: O,
    /// Indexes per block; block-relative indexes on the wire are below it.
    span: u32,
    pairs_per_packet: u32,
    /// Elements of the whole domain, the length of the result.
    total: usize,
    /// Every block's block-relative pairs, ordered by block and within a
    /// block as given; kept to the end so overdue blocks can be re-sent.
    pairs: Vec<(u32, T)>,
    /// Block `b` owns `pairs[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    /// Every result shard accepted, in acceptance order: what the result
    /// is built from. Sized for one shard a block, so a flow of one-shard
    /// results never grows it.
    shards: Vec<Bytes>,
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
    ) -> Self {
        assert!(span > 0 && pairs_per_packet > 0 && total_elems > 0);
        assert!(u32::try_from(pairs.len()).is_ok(), "offsets are 32-bit");
        let span32 = u32::try_from(span).expect("a span is a 32-bit wire index");
        let pairs_per_packet = u32::try_from(pairs_per_packet).expect("pairs_per_packet is 32-bit");
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
            by_block[*cursor as usize] = (idx % span32, v);
            *cursor += 1;
        }
        // Each cursor now stands at its block's end, the next one's start.
        offsets.copy_within(..blocks, 1);
        offsets[0] = 0;
        let payload = SparsePayload {
            op,
            span: span32,
            pairs_per_packet,
            total: total_elems,
            pairs: by_block,
            offsets,
            shards: Vec::with_capacity(blocks),
        };
        Self::over(cfg, payload, blocks, wire_bytes)
    }
}

impl<T, O> SparsePayload<T, O> {
    fn block_pairs(&self, block: u64) -> &[(u32, T)] {
        let b = block as usize;
        &self.pairs[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Blocks of the domain.
    fn blocks(&self) -> u64 {
        self.offsets.len() as u64 - 1
    }
}

impl<T: Element, O: ReduceOp<T>> SparsePayload<T, O> {
    /// The reduced vector `shards` make: the operator's identity
    /// everywhere, then each shard's pairs combined into its block's span
    /// in order, a pair outside the span (a foreign or malformed shard)
    /// skipped, never written into a neighbouring block. Spilled elements
    /// may deliver the same index in several shards, so pairs combine,
    /// never overwrite.
    fn densify(&self, shards: &[Bytes]) -> Vec<T> {
        let (span, blocks) = (self.span as usize, self.blocks());
        let mut result = vec![self.op.identity(); self.total];
        for shard in shards {
            let (header, view) = SparseView::<T>::parse(shard).expect("an accepted shard");
            // `apply` accepts only shards whose header names their block.
            let base = (header.block as u64 % blocks) as usize * span;
            let block_result = &mut result[base..(base + span).min(self.total)];
            view.for_each(|idx, val| {
                if let Some(acc) = block_result.get_mut(idx as usize) {
                    *acc = self.op.combine(*acc, val);
                }
            });
        }
        result
    }
}

impl<T: Element, O: ReduceOp<T>> Payload for SparsePayload<T, O> {
    type Elem = T;
    const CONTRIB: PacketKind = PacketKind::SparseContrib;
    /// Which result shards of the block have arrived.
    type BlockState = ShardTracker;

    fn packets(&self, block: u64) -> usize {
        // An empty block still sends its header-only packet.
        let pairs = self.block_pairs(block).len();
        pairs.div_ceil(self.pairs_per_packet as usize).max(1)
    }

    fn encode(&self, block: u64, i: usize, header: Header) -> Bytes {
        let shards = self.packets(block);
        let last = i + 1 == shards;
        let header = Header {
            last_shard: last,
            shard_count: Header::shard_seq_field(last, i as u16, shards as u16),
            ..header
        };
        let mut chunks = self
            .block_pairs(block)
            .chunks(self.pairs_per_packet as usize);
        encode_sparse(header, chunks.nth(i).unwrap_or(&[]))
    }

    fn apply(&mut self, block: u64, shards: &mut ShardTracker, packet: &Bytes) -> Applied {
        let Ok((header, _)) = SparseView::<T>::parse(packet) else {
            return Applied::Ignored;
        };
        // A shard whose header names another block is not this block's
        // result, like a packet of another kind.
        if header.kind != PacketKind::SparseResult || header.block as u64 % self.blocks() != block {
            return Applied::Ignored;
        }
        // Shard protocol first: a replayed result shard (loss recovery)
        // must not add pairs it already delivered.
        let index = header.shard_index();
        let event = shards.on_shard(index, header.last_shard, header.shard_count);
        if event == ShardEvent::Duplicate {
            return Applied::Ignored;
        }
        self.shards.push(packet.clone());
        Applied::Shard {
            index,
            complete: event == ShardEvent::Complete,
        }
    }

    fn take_result(&mut self, shared: &mut SharedResults<T>) -> RankResult<T> {
        let shards = std::mem::take(&mut self.shards);
        shared.share(shards, |shards| self.densify(shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::FlowTag;
    use proptest::prelude::*;

    /// The linear-scan in-flight map [`SendWindow`] replaced, kept as the
    /// model: `(block, last sent at, re-sends)` in order of first send,
    /// removal preserving the relative order of the rest.
    #[derive(Default)]
    struct VecModel {
        entries: Vec<(u64, Time, u8)>,
    }

    impl VecModel {
        fn remove(&mut self, block: u64) -> Option<(Time, u8)> {
            let at = self.entries.iter().position(|e| e.0 == block)?;
            let (_, sent, tries) = self.entries.remove(at);
            Some((sent, tries))
        }
    }

    /// In-flight `(block, last sent at, re-sends)` in send order.
    fn in_flight(window: &SendWindow<()>) -> Vec<(u64, Time, u8)> {
        let entries = (0..window.entries()).filter_map(|e| window.in_slot(e));
        entries.map(|(b, s)| (b, s.sent(), s.tries())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random interleavings of what the hosts do — send the next
        // unsent block, re-send an in-flight one, receive a result for an
        // in-flight / completed / never-sent / out-of-range block — leave
        // the window and the model with the same length, the same
        // `remove` answers and the same iteration order, whether the deque
        // reaches back 1–6 positions, so that open blocks straggle behind
        // it, or without bound (reach 0 below).
        #[test]
        fn send_window_matches_the_insertion_ordered_vec(
            blocks in 1u64..40,
            stagger in any::<u64>(),
            reach in 0usize..7,
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..200),
        ) {
            let reach = if reach == 0 { usize::MAX } else { reach };
            let mut window = SendWindow::new(blocks, stagger);
            let mut model = VecModel::default();
            for (now, &(op, pick)) in ops.iter().enumerate() {
                let now = now as Time;
                match op {
                    0 | 1 => {
                        if let Some(block) = window.next_unsent() {
                            prop_assert!(model.entries.iter().all(|e| e.0 != block), "sent twice");
                            window.push(now, reach);
                            model.entries.push((block, now, 0));
                        }
                    }
                    2 => {
                        if !model.entries.is_empty() {
                            let entry = pick as usize % model.entries.len();
                            let entry = &mut model.entries[entry];
                            (entry.1, entry.2) = (now, entry.2 + 1);
                            let slot = window.in_flight(entry.0).expect("the model has it");
                            let state = window.resent(slot, now);
                            prop_assert_eq!((state.sent(), state.tries()), (entry.1, entry.2));
                        }
                    }
                    _ => {
                        let block = pick % (blocks + 2);
                        let closed = window.remove(block).map(|s| (s.sent(), s.tries()));
                        prop_assert_eq!(closed, model.remove(block));
                    }
                }
                prop_assert_eq!(window.len(), model.entries.len());
                prop_assert!(window.slots.len() <= reach);
                prop_assert_eq!(in_flight(&window), model.entries.clone());
            }
        }
    }

    #[test]
    fn a_straggler_leaves_the_deque_and_the_window_stays_within_twice_its_size() {
        // A host's discipline at W = 4 over 10 000 positions: send while
        // fewer than W are open, else close one of the open blocks (never
        // position 0's, held to the end, and in an order that lets others
        // straggle too), now and then a result for a block not in flight.
        const W: usize = 4;
        let mut window = SendWindow::new(10_000, 17);
        let mut model = VecModel::default();
        let held = window.next_unsent().expect("a block");
        let (mut now, mut last_closed) = (0, 10_000);
        while window.next_unsent().is_some() || model.entries.len() > 1 {
            now += 1;
            if window.len() < W && window.next_unsent().is_some() {
                let block = window.next_unsent().expect("checked");
                window.push(now, W);
                model.entries.push((block, now, 0));
            } else {
                let others = model.entries.len() - 1;
                let block = model.entries[1 + (now as usize * 7) % others].0;
                let closed = window.remove(block).map(|s| (s.sent(), s.tries()));
                assert_eq!(closed, model.remove(block));
                last_closed = block;
            }
            if now % 97 == 0 {
                // A replay: the result of a block already closed.
                assert_eq!(window.remove(last_closed), None);
            }
            assert!(window.entries() <= 2 * W, "{} entries", window.entries());
            assert_eq!(in_flight(&window), model.entries);
            if now <= W as Time {
                assert_eq!(window.behind.capacity(), 0, "nothing has straggled yet");
            }
        }
        assert_eq!(window.remove(held), Some(Slot::new(1, 0)));
        assert_eq!(
            (window.len(), window.closed(), window.entries()),
            (0, 10_000, 0)
        );
    }

    #[test]
    fn a_host_is_no_larger_than_it_was() {
        // `dense_scale` runs 512 hosts, and 32 B more a host (a `Vec` and a
        // `usize` beside the deque) was a measured rise of its peak heap:
        // positions are 32-bit and the count of closed blocks is derived.
        // A dense block keeps no state in flight, so its window entry is
        // the bare slot; a sparse host's shard trackers live in its window
        // entries, not in a `Vec` beside it. A participant keeps its result
        // itself, with no handle on a sink beside it.
        assert_eq!(std::mem::size_of::<(Slot, ())>(), 8);
        assert_eq!(std::mem::size_of::<DenseFlareHost<f32>>(), 176);
        assert_eq!(
            std::mem::size_of::<SparseFlareHost<f32, crate::op::Sum>>(),
            232
        );
    }

    #[test]
    fn a_sparse_host_tracks_shards_only_for_its_window_entries() {
        use flare_net::{LinkSpec, NetSim, SwitchCtx, SwitchModel, SwitchProgram, Topology};
        use std::cell::Cell;
        use std::rc::Rc;
        const W: usize = 4;
        const HELD: u64 = 1;
        const LATE: Time = 1_000_000;
        /// Answers every contribution shard with the same pairs as a result
        /// shard. Block `HELD`'s first shard is answered at once and again
        /// late (a replay), its second only late: the block straggles
        /// behind the window with one shard in and must keep its tracker.
        struct Mirror(NodeId);
        impl SwitchProgram for Mirror {
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
                let (header, view) = SparseView::<f32>::parse(&pkt.payload).expect("a shard");
                let mut pairs = Vec::new();
                view.for_each(|idx, v| pairs.push((idx, v)));
                let header = Header {
                    kind: PacketKind::SparseResult,
                    ..header
                };
                let result = || {
                    let payload = encode_sparse(header, &pairs);
                    NetPacket::new(self.0, pkt.flow, pkt.block, 0, 0, payload)
                };
                let late = ctx.now() + LATE;
                match (pkt.block, header.shard_index()) {
                    (HELD, 0) => {
                        ctx.send(result());
                        ctx.send_at(late, result());
                    }
                    (HELD, _) => ctx.send_at(late, result()),
                    _ => ctx.send(result()),
                }
                None
            }
        }
        /// The host, noting its most window entries and stragglers after
        /// any packet.
        struct Entries(
            SparseFlareHost<f32, crate::op::Sum>,
            Rc<Cell<(usize, usize)>>,
        );
        impl HostProgram for Entries {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                self.0.on_start(ctx);
            }
            fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
                self.0.on_packet(ctx, pkt);
                let window = &self.0.outstanding;
                let (entries, behind) = self.1.get();
                let now = (window.entries(), window.behind.len());
                self.1.set((entries.max(now.0), behind.max(now.1)));
            }
            fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
                self.0.on_wake(ctx, tag);
            }
        }
        // 40 blocks of 8 indexes, each with two pairs a shard: block
        // `HELD` has three pairs, so two shards.
        let (blocks, span) = (40u64, 8);
        let mut pairs: Vec<(u32, f32)> =
            (0..blocks as u32).map(|b| (b * 8 + 3, b as f32)).collect();
        pairs.extend([(HELD as u32 * 8, 0.5), (HELD as u32 * 8 + 5, 0.25)]);
        let mut want = vec![0.0f32; blocks as usize * span];
        for &(idx, v) in &pairs {
            want[idx as usize] += v;
        }
        let (topo, sw, hosts) = Topology::star(1, LinkSpec::hundred_gig());
        let mut sim = NetSim::new(topo, 1);
        sim.install_switch(sw, Box::new(Mirror(hosts[0])), SwitchModel::calibrated());
        let cfg = HostConfig {
            leaf: sw,
            window: W,
            stagger_offset: 0,
            ..cfg()
        };
        let peak = Rc::new(Cell::new((0, 0)));
        let total = blocks as usize * span;
        let host = SparseFlareHost::new(cfg, crate::op::Sum, total, span, 2, pairs);
        sim.install_host(hosts[0], Box::new(Entries(host, peak.clone())));
        sim.run(None);
        let host = sim.take_host(hosts[0]).expect("installed") as Box<dyn std::any::Any>;
        let mut host = host.downcast::<Entries>().expect("the wrapper");
        let got = host.0.take_result(&mut SharedResults::default());
        assert_eq!(
            got.expect("the host finished"),
            want,
            "the replayed shard counted once"
        );
        let (entries, behind) = peak.get();
        assert_eq!(behind, 1, "block {HELD} straggled behind the deque");
        assert!(entries <= 2 * W, "{entries} entries");
    }

    #[test]
    fn send_window_sends_every_block_once_in_rotation_order() {
        let mut window = SendWindow::new(5, 7);
        let mut sent = Vec::new();
        while let Some(block) = window.next_unsent() {
            window.push(sent.len() as Time, usize::MAX);
            sent.push(block);
        }
        assert_eq!(sent, [2, 3, 4, 0, 1]);
        // Results out of order: the closed prefix pops only once position
        // 0 (block 2) closes.
        assert_eq!(window.remove(3), Some(Slot::new(1, 0)));
        assert_eq!(window.slots.len(), 5);
        assert_eq!(window.remove(2), Some(Slot::new(0, 0)));
        assert_eq!((window.first, window.slots.len()), (2, 3));
        assert_eq!(window.remove(2), None, "already closed");
        assert_eq!(in_flight(&window), [(4, 2, 0), (0, 3, 0), (1, 4, 0)]);
    }

    #[test]
    fn a_slot_packs_the_send_time_and_the_re_send_count() {
        let latest = (1 << Slot::TIME_BITS) - 1;
        let slot = Slot::new(latest, 0);
        assert_eq!((slot.sent(), slot.tries()), (latest, 0));
        assert_ne!(Slot::new(latest, u8::MAX - 1), Slot::CLOSED);
        // The count saturates below the closed marker's.
        let mut window = SendWindow::new(1, 0);
        window.push(5, 1);
        for at in 0..300 {
            window.resent(0, at);
        }
        assert_eq!(in_flight(&window), [(0, 299, u8::MAX - 1)]);
    }

    const INITIAL: Time = 200_000;

    fn retransmit() -> Retransmit {
        Retransmit {
            tag: 0,
            initial: INITIAL,
            rtt: RttEstimate::default(),
            newest_sent: 0,
            newest_rtt: 0,
            last_close: 0,
            next_due: Time::MAX,
        }
    }

    #[test]
    fn a_re_sent_block_yields_no_sample() {
        // Karn's rule: the result of a re-sent block moves neither the
        // estimate nor the evidence, whichever of its sends it answers.
        let mut retx = retransmit();
        retx.closed(Slot::new(100, 1), 150);
        assert_eq!(retx.rtt, RttEstimate::default());
        assert!(!retx.has_evidence(Slot::new(100, 0)));
        assert_eq!(retx.last_close, 150, "but the flow did move");
        retx.closed(Slot::new(100, 0), 9_100);
        assert_eq!(retx.rtt.min_rtt, 9_000);
        retx.closed(Slot::new(100, 3), 9_200);
        assert_eq!((retx.rtt.min_rtt, retx.newest_rtt), (9_000, 9_000));
    }

    #[test]
    fn timeouts_start_at_the_initial_one_and_stay_above_the_floor() {
        let mut retx = retransmit();
        // Blind: the configured timeout, from the send.
        assert_eq!(retx.due(Slot::new(1_000, 0)), 1_000 + INITIAL);
        // A round trip of 300 ns: twice that is under the floor.
        retx.closed(Slot::new(1_000, 0), 1_300);
        assert_eq!(retx.rtt.probe_timeout(INITIAL), MIN_TIMEOUT);
        // No evidence for a block sent later: the probe timeout, counted
        // from the last thing that came in.
        assert_eq!(retx.due(Slot::new(1_200, 0)), 1_300 + MIN_TIMEOUT);
        assert_eq!(retx.due(Slot::new(5_000, 0)), 5_000 + MIN_TIMEOUT);
        // Evidence for one sent no later: that round trip plus the
        // window, which identical samples leave at the floor.
        for at in [1_310, 1_320, 1_330] {
            retx.closed(Slot::new(1_000, 0), at);
        }
        assert!(retx.rtt.late + 4 * retx.rtt.late_dev < MIN_TIMEOUT);
        assert_eq!(retx.due(Slot::new(1_000, 0)), 1_000 + 330 + MIN_TIMEOUT);
        // Each re-send doubles the wait, up to the initial timeout.
        let waits = [1, 2, 6, 7, 200].map(|tries| retx.due(Slot::new(10_000, tries)) - 10_000);
        let floor = MIN_TIMEOUT;
        assert_eq!(waits, [2 * floor, 4 * floor, 64 * floor, INITIAL, INITIAL]);
    }

    #[test]
    fn lateness_is_smoothed_with_integer_gains() {
        let mut rtt = RttEstimate::default();
        rtt.lateness(8_000);
        assert_eq!((rtt.late, rtt.late_dev), (8_000, 4_000));
        rtt.lateness(16_000);
        // dev: 4000 - 1000 + 8000/4; mean: 8000 - 1000 + 16000/8.
        assert_eq!((rtt.late, rtt.late_dev), (9_000, 5_000));
        assert_eq!(rtt.reorder_window(), 29_000);
        // The shortest round trip only ever falls.
        rtt.round_trip(700);
        rtt.round_trip(900);
        assert_eq!(rtt.min_rtt, 700);
    }

    fn cfg() -> HostConfig {
        HostConfig {
            allreduce: 1,
            leaf: NodeId(0),
            child_index: 0,
            window: 4,
            stagger_offset: 3,
            retransmit_after: None,
            iteration: 0,
        }
    }

    #[test]
    fn dense_host_staggers_its_block_order() {
        let h = DenseFlareHost::new(cfg(), 4, vec![1i32; 40]);
        // 10 blocks rotated by 3.
        let order: Vec<u64> = (0..10).map(|p| h.outstanding.block_at(p)).collect();
        assert_eq!(order, [3, 4, 5, 6, 7, 8, 9, 0, 1, 2]);
        for (pos, &block) in order.iter().enumerate() {
            assert_eq!(h.outstanding.pos_of(block), pos as u32);
        }
        assert_eq!(h.outstanding.next_unsent(), Some(3));
    }

    #[test]
    fn an_iteration_sends_its_own_block_ids_and_wake_sequence() {
        use flare_net::{LinkSpec, NetSim, SwitchCtx, SwitchModel, SwitchProgram, Topology};
        use std::cell::RefCell;
        use std::rc::Rc;
        type Seen = Rc<RefCell<Vec<u64>>>;
        /// Swallows every contribution, noting its wire block id.
        struct Blocks(Seen);
        impl SwitchProgram for Blocks {
            fn on_packet(&mut self, _: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
                self.0.borrow_mut().push(pkt.block);
                None
            }
        }
        /// The host, noting the tag of every wake it is handed.
        struct Wakes(DenseFlareHost<i32>, Seen);
        impl HostProgram for Wakes {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                self.0.on_start(ctx);
            }
            fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
                self.0.on_packet(ctx, pkt);
            }
            fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
                self.1.borrow_mut().push(tag);
                self.0.on_wake(ctx, tag);
            }
        }
        let (blocks, k) = (10, 3);
        let (topo, sw, hosts) = Topology::star(1, LinkSpec::hundred_gig());
        let mut sim = NetSim::new(topo, 1);
        let (sent, wakes) = (Seen::default(), Seen::default());
        sim.install_switch(
            sw,
            Box::new(Blocks(sent.clone())),
            SwitchModel::calibrated(),
        );
        let cfg = HostConfig {
            leaf: sw,
            window: blocks,
            retransmit_after: Some(10_000),
            iteration: k,
            ..cfg()
        };
        let host = DenseFlareHost::new(cfg, 4, vec![1i32; 4 * blocks]);
        sim.install_host(hosts[0], Box::new(Wakes(host, wakes.clone())));
        // No result ever comes back: the timer fires and re-sends.
        sim.run(Some(30_000));
        let mut sent = sent.take();
        assert!(sent.len() > blocks, "a block was re-sent");
        sent.sort_unstable();
        sent.dedup();
        let first = k as u64 * blocks as u64;
        assert_eq!(sent, (first..first + blocks as u64).collect::<Vec<_>>());
        let wakes = wakes.borrow();
        assert!(!wakes.is_empty());
        for &tag in wakes.iter() {
            assert_eq!(FlowTag::unpack(tag), FlowTag::retransmit(1, k));
        }
    }

    #[test]
    fn dense_host_handles_short_final_block() {
        let h = DenseFlareHost::new(cfg(), 4, vec![1i32; 10]);
        assert_eq!(h.outstanding.blocks, 3);
        assert_eq!(h.payload.block_range(2), 8..10);
        // The look-ahead follows the send order and wraps from the short
        // last block to block 0.
        let ahead: Vec<_> = (0..3).map(|b| h.payload.ahead(b)).collect();
        assert_eq!(ahead, [4..8, 8..10, 0..4]);
    }

    #[test]
    fn a_ragged_allreduce_staggered_onto_its_last_block_reduces_every_rank() {
        // 73 elements in blocks of 7: ten whole blocks and a 3-element
        // last one. Rank 0's stagger starts it on that last block, so both
        // its send and its result cursor look ahead across the wrap to
        // block 0 first; the others start at the front and the middle.
        use crate::op::golden_reduce;
        use crate::switch_prog::{FlareSwitch, TreePlacement};
        use flare_net::{LinkSpec, NetSim, SwitchModel, Topology};
        let (elems, per_packet) = (73, 7);
        let (topo, sw, hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut sim = NetSim::new(topo, 1);
        let place = TreePlacement {
            allreduce: 1,
            parent: None,
            children: hosts.clone(),
            my_child_index: 0,
        };
        let prog = FlareSwitch::<i32, crate::op::Sum>::dense(place, crate::op::Sum);
        sim.install_switch(sw, Box::new(prog), SwitchModel::calibrated());
        let inputs: Vec<Vec<i32>> = (0..3)
            .map(|rank| (0..elems).map(|i| rank * 100 + i).collect())
            .collect();
        for (rank, &h) in hosts.iter().enumerate() {
            let cfg = HostConfig {
                leaf: sw,
                child_index: rank as u16,
                // A window of every block: under a spread wider than the
                // window, each rank waits on blocks no other has reached.
                window: 11,
                stagger_offset: [10, 0, 5][rank],
                ..cfg()
            };
            let host = DenseFlareHost::new(cfg, per_packet, inputs[rank].clone());
            assert_eq!(host.outstanding.blocks, 11);
            sim.install_host(h, Box::new(host));
        }
        assert!(sim.run(None).last_done.is_some(), "allreduce completes");
        let want = golden_reduce(&crate::op::Sum, &inputs);
        for (rank, &h) in hosts.iter().enumerate() {
            let host = sim.take_host(h).expect("installed") as Box<dyn std::any::Any>;
            let mut host = host.downcast::<DenseFlareHost<i32>>().expect("dense");
            let got = host.take_result(&mut SharedResults::default());
            assert_eq!(got.expect("the host finished"), want, "rank {rank}");
        }
    }

    #[test]
    fn sparse_host_chunks_blocks_into_shards() {
        let pairs: Vec<(u32, f32)> = vec![(0, 1.0), (1, 2.0), (2, 3.0), (17, 4.0)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 8, 2, pairs);
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
        let pairs: Vec<(u32, f32)> = vec![(17, 4.0), (2, 3.0), (31, 5.0), (0, 1.0), (16, 6.0)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 8, 2, pairs);
        let p = &h.payload;
        assert_eq!(p.block_pairs(0), [(2, 3.0), (0, 1.0)]);
        assert_eq!(p.block_pairs(2), [(1, 4.0), (0, 6.0)]);
        assert_eq!(p.block_pairs(3), [(7, 5.0)]);
    }

    #[test]
    fn sparse_host_encodes_the_chunk_a_shard_index_selects() {
        // The second shard of a three-pair block is its third pair alone.
        let pairs = vec![(1, 1.0), (2, 2.0), (3, 3.0f32)];
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, 8, 8, 2, pairs);
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

    /// The header of result shard `seq` of `total` for local block
    /// `block`, as a switch sends it.
    fn result_header(block: u64, seq: u16, total: u16) -> Header {
        let last = seq + 1 == total;
        Header {
            allreduce: 1,
            block: block as u32,
            child: 0,
            kind: PacketKind::SparseResult,
            last_shard: last,
            shard_count: Header::shard_seq_field(last, seq, total),
            elem_count: 0,
        }
    }

    /// A sparse payload and, per block, the shard tracker its window entry
    /// would hold while it is in flight.
    struct Receiver {
        payload: SparsePayload<f32, crate::op::Sum>,
        shards: Vec<ShardTracker>,
    }

    /// A sparse host over `total` elements in spans of `span`.
    fn receiver(total: usize, span: usize) -> Receiver {
        let h = SparseFlareHost::new(cfg(), crate::op::Sum, total, span, 4, vec![]);
        let shards = vec![ShardTracker::default(); total.div_ceil(span)];
        Receiver {
            payload: h.payload,
            shards,
        }
    }

    /// A sparse host over 30 elements in spans of 8: blocks 0..3 are
    /// whole, block 3 holds indexes 24..30.
    fn sparse_payload() -> Receiver {
        receiver(30, 8)
    }

    /// Apply `shard` to `block`: `None` if it was ignored, else whether it
    /// completed the block.
    fn apply(r: &mut Receiver, block: u64, shard: &Bytes) -> Option<bool> {
        match r.payload.apply(block, &mut r.shards[block as usize], shard) {
            Applied::Shard { complete, .. } => Some(complete),
            Applied::Ignored | Applied::Block => None,
        }
    }

    /// Apply result shard `seq` of `total` to `block`: `None` if it was
    /// ignored, else whether it completed the block.
    fn deliver(
        r: &mut Receiver,
        block: u64,
        seq: u16,
        total: u16,
        pairs: &[(u32, f32)],
    ) -> Option<bool> {
        let shard = encode_sparse(result_header(block, seq, total), pairs);
        apply(r, block, &shard)
    }

    /// The vector a receiver builds from the shards it accepted.
    fn result(r: &mut Receiver) -> Vec<f32> {
        r.payload
            .take_result(&mut SharedResults::default())
            .into_vec()
    }

    #[test]
    fn a_sparse_host_keeps_the_shards_it_accepts_and_builds_nothing_before_it_is_read() {
        let mut p = sparse_payload();
        // Not a sparse result, a shard whose header names another block,
        // a replay: none is kept.
        let header = Header {
            kind: PacketKind::DenseResult,
            ..result_header(1, 0, 1)
        };
        let dense = encode_dense(header, &[1.0f32; 8]);
        assert_eq!(apply(&mut p, 1, &dense), None);
        let foreign = encode_sparse(result_header(2, 0, 1), &[(2, 3.0f32)]);
        assert_eq!(apply(&mut p, 1, &foreign), None);
        let shard = encode_sparse(result_header(1, 0, 1), &[(2, 3.0f32)]);
        assert_eq!(apply(&mut p, 1, &shard), Some(true));
        assert_eq!(apply(&mut p, 1, &shard), None);
        // The accepted shard is a handle on the packet's buffer, not a copy.
        let kept: Vec<*const u8> = p.payload.shards.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(kept, [shard.as_ptr()]);
        let mut want = vec![0.0f32; 30];
        want[10] = 3.0;
        assert_eq!(result(&mut p), want);
    }

    #[test]
    fn a_later_block_completing_first_leaves_the_earlier_spans_to_their_shards() {
        let mut p = sparse_payload();
        assert_eq!(deliver(&mut p, 3, 0, 1, &[(5, 1.5)]), Some(true));
        assert_eq!(deliver(&mut p, 0, 0, 1, &[(7, 2.0)]), Some(true));
        assert_eq!(deliver(&mut p, 2, 0, 1, &[]), Some(true));
        assert_eq!(deliver(&mut p, 1, 0, 1, &[(0, 4.0)]), Some(true));
        let mut want = vec![0.0f32; 30];
        (want[7], want[8], want[29]) = (2.0, 4.0, 1.5);
        assert_eq!(result(&mut p), want);
    }

    #[test]
    fn a_spilled_index_delivered_in_two_shards_is_combined() {
        let mut p = sparse_payload();
        assert_eq!(deliver(&mut p, 2, 0, 2, &[(3, 1.0)]), Some(false));
        assert_eq!(deliver(&mut p, 2, 1, 2, &[(3, 2.5), (4, 1.0)]), Some(true));
        let got = result(&mut p);
        assert_eq!((got[19], got[20]), (3.5, 1.0));
    }

    #[test]
    fn a_replayed_result_shard_is_a_duplicate_and_counted_once() {
        let mut p = sparse_payload();
        assert_eq!(deliver(&mut p, 0, 0, 2, &[(1, 1.0)]), Some(false));
        assert_eq!(deliver(&mut p, 0, 0, 2, &[(1, 1.0)]), None);
        assert_eq!(deliver(&mut p, 0, 1, 2, &[]), Some(true));
        assert_eq!(deliver(&mut p, 0, 0, 2, &[(1, 1.0)]), None);
        assert_eq!(result(&mut p)[1], 1.0);
    }

    #[test]
    fn ranks_share_a_result_only_where_they_accepted_the_same_shards_in_order() {
        // Three shards of block 0 that all name index 1, and one of block
        // 1, multicast: every rank sees the same four buffers.
        let shards = [
            encode_sparse(result_header(0, 0, 3), &[(1, 1e8f32)]),
            encode_sparse(result_header(0, 1, 3), &[(1, 1.0f32)]),
            encode_sparse(result_header(0, 2, 3), &[(1, -1e8f32)]),
            encode_sparse(result_header(1, 0, 1), &[(3, 1.0f32)]),
        ];
        // Shard 1 replayed after shard 2 reached a rank.
        let (on_time, late) = ([0, 1, 2, 3], [0, 2, 1, 3]);
        let mut shared = SharedResults::default();
        let ranks: Vec<RankResult<f32>> = [on_time, on_time, late, on_time]
            .iter()
            .map(|order| {
                let mut p = sparse_payload();
                for &i in order {
                    let block = (i / 3) as u64;
                    apply(&mut p, block, &shards[i]).expect("accepted");
                }
                p.payload.take_result(&mut shared)
            })
            .collect();
        let storage: Vec<*const f32> = ranks.iter().map(|r| r.as_ptr()).collect();
        assert_eq!(storage[0], storage[1]);
        assert_eq!(storage[0], storage[3]);
        assert_ne!(storage[0], storage[2], "another order, its own vector");
        // Each is what its own order makes: 1e8 + 1 is 1e8 in f32, so the
        // order of block 0's shards shows in the bits.
        assert_eq!((ranks[0][1], ranks[0][11]), (0.0, 1.0));
        assert_eq!((ranks[2][1], ranks[2][11]), (1.0, 1.0));
        assert_eq!(shared.built.len(), 2);
    }

    #[test]
    fn an_out_of_span_result_pair_leaves_the_neighbouring_span_untouched() {
        let mut p = sparse_payload();
        // Block 1 is in first, so its span is filled when block 0 names
        // index 8, which would be element 8, block 1's first. Index 6 of
        // block 3 would be element 30, past the domain.
        deliver(&mut p, 1, 0, 1, &[(0, 2.0)]);
        deliver(&mut p, 0, 0, 1, &[(8, 5.0), (1, 1.0)]);
        deliver(&mut p, 3, 0, 1, &[(6, 9.0), (5, 2.0)]);
        let got = result(&mut p);
        assert_eq!(got.len(), 30);
        assert_eq!((got[1], got[8], got[29]), (1.0, 2.0, 2.0));
        assert_eq!(got.iter().sum::<f32>(), 5.0);
    }

    /// Result shard `(block, seq, shards, pairs)`: shard `seq` of the
    /// `shards` that make block `block`'s result.
    type Delivery = (usize, u16, u16, Vec<(u32, f32)>);

    /// The progressive densify a sparse host once ran as each shard came
    /// in, kept as the reference: the vector is identity-filled up to the
    /// end of a block's span when a shard of that block is accepted, every
    /// pair inside the span is combined in acceptance order and every
    /// other pair is skipped.
    fn progressive<O: ReduceOp<f32>>(
        op: &O,
        total: usize,
        span: usize,
        accepted: &[&Delivery],
    ) -> Vec<f32> {
        let mut result = Vec::new();
        for &&(block, _, _, ref pairs) in accepted {
            let base = block * span;
            let end = (base + span).min(total);
            if result.len() < end {
                result.resize(end, op.identity());
            }
            let block_result = &mut result[base..end];
            for &(idx, val) in pairs {
                if let Some(acc) = block_result.get_mut(idx as usize) {
                    *acc = op.combine(*acc, val);
                }
            }
        }
        result.resize(total, op.identity());
        result
    }

    /// What a sparse payload over `total` elements in spans of `span`
    /// makes of `deliveries`, in order: the deliveries it accepted and the
    /// result it builds from them.
    fn built<O: ReduceOp<f32>>(
        op: O,
        total: usize,
        span: usize,
        deliveries: &[Delivery],
    ) -> (Vec<&Delivery>, Vec<f32>) {
        let h = SparseFlareHost::new(cfg(), op, total, span, 4, vec![]);
        let mut payload = h.payload;
        let mut trackers = vec![ShardTracker::default(); total.div_ceil(span)];
        let mut accepted = Vec::new();
        for d @ &(block, seq, shards, ref pairs) in deliveries {
            let shard = encode_sparse(result_header(block as u64, seq, shards), pairs);
            let tracker = &mut trackers[block];
            if let Applied::Shard { .. } = payload.apply(block as u64, tracker, &shard) {
                accepted.push(d);
            }
        }
        let result = payload.take_result(&mut SharedResults::default());
        (accepted, result.into_vec())
    }

    /// `deliveries` built under `op` equal the progressive reference bit
    /// for bit, and the accepted ones are each shard's first delivery.
    fn built_as_progressive<O: ReduceOp<f32> + Clone>(
        op: O,
        total: usize,
        span: usize,
        deliveries: &[Delivery],
    ) {
        let (accepted, got) = built(op.clone(), total, span, deliveries);
        let mut seen = std::collections::HashSet::new();
        let first: Vec<&Delivery> = deliveries
            .iter()
            .filter(|d| seen.insert((d.0, d.1)))
            .collect();
        prop_assert_eq!(&accepted, &first);
        let want = progressive(&op, total, span, &accepted);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random accepted-shard sequences — replays among them, an index
        // delivered in several shards of its block (a spill), pairs outside
        // their span — leave the result bit for bit where the progressive
        // densify left it, under every built-in operator. The values mix
        // magnitudes so that an f32 `Sum` in another order has other bits.
        #[test]
        fn a_sparse_result_is_built_as_the_progressive_densify_built_it(
            op in 0usize..4,
            span in 1usize..12,
            short in 0usize..12,
            shards in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(
                        (0u32..14, (0u8..6, -1e3f32..1e3).prop_map(|(pick, v)| match pick {
                            0 => 1e8,
                            1 => -1e8,
                            2 => 0.1,
                            3 => v / 512.0,
                            _ => v,
                        })),
                        0..6,
                    ),
                    1..4,
                ),
                1..8,
            ),
            order in proptest::collection::vec(any::<u16>(), 0..60),
        ) {
            // The last block is `short % span` indexes short of a span.
            let total = shards.len() * span - short % span;
            let all: Vec<Delivery> = shards
                .iter()
                .enumerate()
                .flat_map(|(b, set)| {
                    let n = set.len() as u16;
                    set.iter().enumerate().map(move |(i, p)| (b, i as u16, n, p.clone()))
                })
                .collect();
            // Random picks (replays among them), then every shard once.
            let picks = order.iter().map(|&o| all[o as usize % all.len()].clone());
            let deliveries: Vec<Delivery> = picks.chain(all.iter().cloned()).collect();
            match op {
                0 => built_as_progressive(crate::op::Sum, total, span, &deliveries),
                1 => built_as_progressive(crate::op::Max, total, span, &deliveries),
                2 => built_as_progressive(crate::op::Min, total, span, &deliveries),
                _ => built_as_progressive(crate::op::Prod, total, span, &deliveries),
            }
        }
    }

    #[test]
    #[should_panic(expected = "span > 0")]
    fn sparse_host_rejects_zero_span() {
        let _ = SparseFlareHost::new(cfg(), crate::op::Sum, 32, 0, 2, vec![(0, 1f32)]);
    }
}
