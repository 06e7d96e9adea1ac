//! Steady-state allocation recycling for the per-packet datapath.
//!
//! The paper's premise is that in-network aggregation wins by touching
//! each byte as few times as possible; the simulator must therefore not
//! spend its time in the allocator. What recycles where:
//!
//! * **Packet payloads do not pool here.** A payload travels — host to
//!   switch, switch to parent, root to every host — so a pool owned by one
//!   node fills on the receiving side and starves on the sending side (31
//!   of `dense_star`'s 32 hosts `malloc`ed every packet they sent, and each
//!   of `traffic_lossy`'s 48 switch programs sat on up to 1 024 idle ~1 KiB
//!   buffers). A payload is one block of `vendor/bytes`, which returns to a
//!   thread-wide free list when its last handle drops, whoever drops it;
//!   encoders take a block of exactly the packet's size from the same list.
//!   A switch program's `byte_pool` counters are its share of that
//!   traffic: the blocks its encodes asked for and how many a free list
//!   served.
//! * [`BufferPool`] — a free-list of `Vec`s for what stays on its node:
//!   aggregation buffers and sparse pair batches. Completed blocks return
//!   their buffers; new blocks take them back. Hit/miss counters make
//!   "zero allocations per packet in steady state" a testable property
//!   instead of a hope (`tests/zero_copy_datapath.rs` also counts the
//!   allocator's calls).
//! * [`BlockSlab`] — open-block state indexed by `block % slots` instead
//!   of a `HashMap` probe per packet. Block ids are dense and windowed
//!   (hosts keep at most `window` consecutive ids in flight), so the
//!   direct-mapped slot almost always hits. The table starts small and
//!   doubles on a would-be collision up to its full size, so it holds
//!   about as many slots as the span of open ids; collisions at full size
//!   fall back to an overflow map. The slab knows nothing of retirement:
//!   a late packet for a finished block is turned away by the block
//!   table's `RetirementFloor` before it reaches the slab.

use std::collections::{HashMap, VecDeque};

/// Counters exposed by [`BufferPool`] for steady-state assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers requested.
    pub gets: u64,
    /// Requests served from the free-list (no allocation).
    pub hits: u64,
    /// Buffers returned to the free-list.
    pub puts: u64,
}

impl PoolStats {
    /// Requests that had to allocate (`gets - hits`). Read by
    /// `tests/zero_copy_datapath.rs`, which bounds a warm pool's misses.
    pub fn misses(&self) -> u64 {
        self.gets - self.hits
    }

    /// Fraction of requests served without allocating (1.0 for an idle
    /// pool).
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// Run `encode`, counting the payload blocks it takes from
    /// `vendor/bytes` on this thread as gets, and those a free list served
    /// as hits. (`puts` stays 0: a payload finds its own way back.)
    pub(crate) fn count_payloads<R>(&mut self, encode: impl FnOnce() -> R) -> R {
        let before = bytes::pool_stats();
        let out = encode();
        let after = bytes::pool_stats();
        self.gets += after.requests - before.requests;
        self.hits += after.reused - before.reused;
        out
    }
}

/// A free-list of `Vec<E>` buffers with reuse accounting.
#[derive(Debug)]
pub struct BufferPool<E> {
    free: Vec<Vec<E>>,
    max_free: usize,
    stats: PoolStats,
}

impl<E> Default for BufferPool<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BufferPool<E> {
    /// Default free-list bound: enough for every concurrently-open block
    /// of a windowed allreduce without holding a whole run's buffers.
    pub const DEFAULT_MAX_FREE: usize = 1024;

    /// Pool with the default free-list bound.
    pub fn new() -> Self {
        Self::with_max_free(Self::DEFAULT_MAX_FREE)
    }

    /// Pool keeping at most `max_free` idle buffers (excess is dropped).
    pub fn with_max_free(max_free: usize) -> Self {
        Self {
            free: Vec::new(),
            max_free,
            stats: PoolStats::default(),
        }
    }

    /// Take a cleared buffer with capacity for at least `cap` elements.
    /// Served from the free-list when possible; counts a hit either way
    /// the buffer came from the list (growing a recycled buffer is
    /// amortized away once sizes stabilize).
    pub fn get(&mut self, cap: usize) -> Vec<E> {
        self.stats.gets += 1;
        match self.free.pop() {
            Some(mut v) => {
                self.stats.hits += 1;
                v.clear();
                v.reserve(cap);
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a buffer to the free-list (dropped if the list is full).
    pub fn put(&mut self, mut v: Vec<E>) {
        if self.free.len() < self.max_free {
            v.clear();
            self.free.push(v);
            self.stats.puts += 1;
        }
    }

    /// Reuse accounting.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Replay cache for completed blocks: a direct-mapped ring indexed by
/// `block % capacity`.
///
/// Block ids are dense and windowed, so the ring behaves like a FIFO
/// `HashMap` cache but costs one index compare per lookup instead of a
/// SipHash probe — the lookup sits on the per-contribution hot path
/// (gated behind the block table's `RetirementFloor`, which rejects
/// non-retired blocks on a comparison and a bit test). The block protocol
/// keeps its completed-block payloads here so a retransmitted contribution
/// can be answered with a replay instead of deadlocking the block (paper
/// Section 4.1); the entry type is generic because the dense protocol
/// caches one encoded payload per block while the sparse protocol caches a
/// whole shard set.
#[derive(Debug)]
pub struct ReplayRing<P> {
    capacity: usize,
    /// Empty until the first entry is cached: only lossy fabrics cache, and
    /// a reliable run should not pay for (or tear down) `capacity` slots.
    slots: Vec<Option<(u64, P)>>,
}

impl<P> ReplayRing<P> {
    /// Slot count of a ring nobody sized for its flow (a PsPIN handler's;
    /// `FlowWiring` sizes a NetSim program's to the flow's iteration): far
    /// larger than any admitted window.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Ring with `capacity` direct-mapped slots. Entries evict when a
    /// block `capacity` ids later completes. A sender's window is far
    /// smaller, but it counts open blocks, not positions: a sender runs
    /// ahead of a block it is recovering, so only a ring as long as the
    /// flow never evicts an entry that is still needed.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            slots: Vec::new(),
        }
    }

    /// The slot of `block`, allocating the slots on first use.
    fn slot_mut(&mut self, block: u64) -> &mut Option<(u64, P)> {
        if self.slots.is_empty() {
            self.slots.resize_with(self.capacity, || None);
        }
        &mut self.slots[(block % self.capacity as u64) as usize]
    }

    /// Cache `payload` for `block`, handing back any evicted (or
    /// replaced) payload.
    pub fn put(&mut self, block: u64, payload: P) -> Option<P> {
        self.slot_mut(block)
            .replace((block, payload))
            .map(|(_, old)| old)
    }

    /// The cached payload for `block`, if still resident.
    pub fn get(&self, block: u64) -> Option<&P> {
        match self.slots.get((block % self.capacity as u64) as usize)? {
            Some((b, payload)) if *b == block => Some(payload),
            _ => None,
        }
    }

    /// Mutable access to the cached payload for `block`, if still resident.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut P> {
        match self
            .slots
            .get_mut((block % self.capacity as u64) as usize)?
        {
            Some((b, payload)) if *b == block => Some(payload),
            _ => None,
        }
    }

    /// Mutable access to the cached payload for `block`, creating it with
    /// `make` if absent (evicting whatever held the slot; the evicted
    /// payload is dropped).
    pub fn get_or_insert_with(&mut self, block: u64, make: impl FnOnce() -> P) -> &mut P {
        let slot = self.slot_mut(block);
        if !matches!(slot, Some((b, _)) if *b == block) {
            *slot = Some((block, make()));
        }
        &mut slot.as_mut().expect("just ensured").1
    }

    /// Slots allocated so far: 0 until something is cached.
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.len()
    }
}

/// Tracks retired (completed) block ids as a contiguous floor plus a
/// sliding bitmap of the out-of-order completions above it.
///
/// Block ids are dense, so where no rank is staggered completions are
/// nearly in order: the common case is `retire(floor)` advancing the floor
/// without touching the bitmap, and `is_retired` is one comparison plus at
/// most one bit test. The bitmap holds one bit per id from the floor's
/// 64-aligned base up to the highest retired id, in words that drop off the
/// front as the floor passes them, so it costs span / 8 bytes, where the
/// span is the highest retired id less the floor. The sender window does
/// not bound the span: under staggering the blocks the last rank sends last
/// retire last, and the floor waits for them. A flow's wire ids are dense
/// (iteration × blocks + local block), so the span stays within one flow's
/// ids. On `dense_star` (32 ranks, 8 192 blocks, window 96) the root's
/// floor stays at 0 while up to 8 160 ids wait above it: 1 KiB of bits.
#[derive(Debug, Default)]
pub(crate) struct RetirementFloor {
    floor: u64,
    /// Bit `i` of word `w` is id `(floor & !63) + 64·w + i`; only the bits
    /// of ids above the floor mean anything. Empty while nothing above the
    /// floor is retired.
    words: VecDeque<u64>,
}

impl RetirementFloor {
    /// A fresh tracker: nothing retired, floor at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The contiguous retirement floor: every id below it is retired.
    #[cfg(test)]
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Completed ids still waiting for the floor to catch up.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        let below = self
            .words
            .front()
            .map_or(0, |w| w & ((1 << (self.floor & 63)) - 1));
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        (set - below.count_ones()) as usize
    }

    /// The word and bit of `id`, which must not be below the floor.
    fn bit(&self, id: u64) -> (usize, u64) {
        let off = id - (self.floor & !63);
        ((off >> 6) as usize, 1 << (off & 63))
    }

    /// Whether `id` has been retired.
    pub(crate) fn is_retired(&self, id: u64) -> bool {
        if id < self.floor {
            return true;
        }
        let (word, bit) = self.bit(id);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Retire `id` and return the (possibly advanced) contiguous floor.
    /// Retiring an id twice, or below the floor, is a no-op.
    pub(crate) fn retire(&mut self, id: u64) -> u64 {
        if id > self.floor {
            let (word, bit) = self.bit(id);
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= bit;
        } else if id == self.floor {
            self.floor += 1;
            if !self.words.is_empty() {
                self.absorb(id & !63);
            }
        }
        self.floor
    }

    /// Advance the floor over the retired run that starts at it, then drop
    /// the words it has passed since it stood in the word based at `base`.
    fn absorb(&mut self, base: u64) {
        while let Some(&w) = self.words.get(((self.floor - base) >> 6) as usize) {
            let at = self.floor & 63;
            let run = u64::from((w >> at).trailing_ones());
            self.floor += run;
            if at + run < 64 {
                break;
            }
        }
        let passed = ((self.floor - base) >> 6) as usize;
        self.words.drain(..passed.min(self.words.len()));
        // The last word holds the highest retired id; once that is below
        // the floor, nothing is pending.
        if self.words.len() == 1 && self.words[0] >> (self.floor & 63) == 0 {
            self.words.clear();
        }
    }
}

/// Counters exposed by [`BlockSlab`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Lookups answered by the direct-mapped slot.
    pub direct: u64,
    /// Lookups that fell back to the overflow map (slot collision).
    pub collisions: u64,
}

/// Open-block storage indexed by `block % slots` with an overflow map.
///
/// The slot table grows with the flow: it starts at 8 slots and doubles,
/// rehashing every open entry, whenever a block would land on a slot
/// another open block holds — up to the slot count it was created with.
/// Only a collision at that size goes to the overflow map. Two ids in
/// different slots of a table are in different slots of its double, so a
/// rehash never collides, and the slab stores, finds and counts
/// ([`SlabStats`]) exactly as one created at full size would; it only
/// holds fewer slots while the span of open ids is narrow.
#[derive(Debug)]
pub struct BlockSlab<V> {
    slots: Vec<Option<(u64, V)>>,
    /// The slot count growth stops at.
    max_slots: usize,
    overflow: HashMap<u64, V>,
    len: usize,
    stats: SlabStats,
}

impl<V> BlockSlab<V> {
    /// Default slot count: what a switch's slab grows to before
    /// collisions go to the overflow map.
    pub const DEFAULT_SLOTS: usize = 1024;

    /// Slots a slab starts with (fewer if it was created smaller).
    const INITIAL_SLOTS: usize = 8;

    /// Slab of `min_slots` direct-mapped slots (rounded up to a power of
    /// two), allocated as the span of open ids needs them.
    pub fn new(min_slots: usize) -> Self {
        let max_slots = min_slots.max(2).next_power_of_two();
        let slots = max_slots.min(Self::INITIAL_SLOTS);
        Self {
            slots: (0..slots).map(|_| None).collect(),
            max_slots,
            overflow: HashMap::new(),
            len: 0,
            stats: SlabStats::default(),
        }
    }

    /// `block`'s slot: the table's length is a power of two.
    fn idx(&self, block: u64) -> usize {
        (block & (self.slots.len() as u64 - 1)) as usize
    }

    /// Double the table until `block`'s slot is free or its own, or the
    /// table is full size.
    fn grow_for(&mut self, block: u64) {
        while self.slots.len() < self.max_slots
            && self.slots[self.idx(block)]
                .as_ref()
                .is_some_and(|(b, _)| *b != block)
        {
            let size = 2 * self.slots.len();
            let old = std::mem::replace(&mut self.slots, (0..size).map(|_| None).collect());
            for (b, v) in old.into_iter().flatten() {
                let i = self.idx(b);
                self.slots[i] = Some((b, v));
            }
        }
    }

    /// Slots allocated so far.
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Open blocks currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no blocks are open.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lookup/insert accounting.
    pub fn stats(&self) -> SlabStats {
        self.stats
    }

    /// The open entry for `block`, or `None` when it is not open.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut V> {
        let i = self.idx(block);
        match &self.slots[i] {
            Some((b, _)) if *b == block => {
                self.stats.direct += 1;
                Some(&mut self.slots[i].as_mut().expect("just matched").1)
            }
            _ => match self.overflow.get_mut(&block) {
                Some(v) => {
                    self.stats.collisions += 1;
                    Some(v)
                }
                None => None,
            },
        }
    }

    /// The open entry for `block`, creating it with `make` if absent.
    pub fn get_or_insert_with(&mut self, block: u64, make: impl FnOnce() -> V) -> &mut V {
        self.grow_for(block);
        let i = self.idx(block);
        let state = match &self.slots[i] {
            Some((b, _)) if *b == block => 0u8, // present in slot
            None => 1,                          // free slot
            Some(_) => 2,                       // collision
        };
        match state {
            0 => {
                self.stats.direct += 1;
                &mut self.slots[i].as_mut().expect("matched").1
            }
            1 => {
                // The slot is free, but the block may already live in the
                // overflow map (it collided while a different block held
                // the slot). Migrate it home instead of opening a
                // duplicate that would orphan its state.
                if let Some(v) = self.overflow.remove(&block) {
                    self.stats.collisions += 1;
                    self.slots[i] = Some((block, v));
                } else {
                    self.stats.direct += 1;
                    self.len += 1;
                    self.slots[i] = Some((block, make()));
                }
                &mut self.slots[i].as_mut().expect("inserted").1
            }
            _ => {
                self.stats.collisions += 1;
                let entry = self.overflow.entry(block);
                if matches!(entry, std::collections::hash_map::Entry::Vacant(_)) {
                    self.len += 1;
                }
                entry.or_insert_with(make)
            }
        }
    }

    /// Close `block`, handing its state back (slot or overflow).
    pub fn remove(&mut self, block: u64) -> Option<V> {
        let i = self.idx(block);
        if self.slots[i].as_ref().is_some_and(|(b, _)| *b == block) {
            self.len -= 1;
            return self.slots[i].take().map(|(_, v)| v);
        }
        let out = self.overflow.remove(&block);
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Iterate the open `(block, state)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(b, v)| (*b, v)))
            .chain(self.overflow.iter().map(|(b, v)| (*b, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pool_reuses_returned_buffers() {
        let mut pool: BufferPool<i32> = BufferPool::new();
        let a = pool.get(16);
        assert_eq!(pool.stats().misses(), 1, "first get allocates");
        pool.put(a);
        let b = pool.get(16);
        assert_eq!(pool.stats().hits, 1, "second get reuses");
        assert!(b.capacity() >= 16 && b.is_empty());
        assert_eq!(pool.stats().hit_rate(), 0.5);
    }

    #[test]
    fn pool_steady_state_is_allocation_free() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        // Warm up with one buffer, then churn get/put 1000 times.
        let warm = pool.get(64);
        pool.put(warm);
        for _ in 0..1000 {
            let v = pool.get(64);
            pool.put(v);
        }
        assert_eq!(pool.stats().misses(), 1, "only the warm-up allocated");
    }

    #[test]
    fn pool_bounds_its_free_list() {
        let mut pool: BufferPool<u8> = BufferPool::with_max_free(2);
        for _ in 0..5 {
            pool.put(Vec::new());
        }
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().puts, 2, "overflowing puts are dropped");
    }

    #[test]
    fn reclaim_recovers_unique_payloads_only() {
        // Dropping a payload's last handle is what returns its block, and
        // the next payload of that size is counted as a hit.
        let mut stats = PoolStats::default();
        let payload = stats.count_payloads(|| bytes::Bytes::copy_from_slice(&[1u8; 700]));
        let shared = payload.clone();
        drop(payload);
        let second = stats.count_payloads(|| bytes::Bytes::copy_from_slice(&[2u8; 700]));
        assert_ne!(second.as_ptr(), shared.as_ptr(), "a shared block stays");
        let block = shared.as_ptr();
        drop(shared);
        let third = stats.count_payloads(|| bytes::Bytes::copy_from_slice(&[3u8; 700]));
        assert_eq!(third.as_ptr(), block, "a unique one comes back");
        assert_eq!((stats.gets, stats.puts), (3, 0));
        assert!(stats.hits >= 2, "all but a first carve: {stats:?}");
    }

    #[test]
    fn replay_ring_is_direct_mapped_and_evicts_by_modulus() {
        let mut ring: ReplayRing<&'static str> = ReplayRing::new(4);
        assert_eq!(ring.put(1, "a"), None);
        assert_eq!(ring.get(1), Some(&"a"));
        assert_eq!(ring.get(5), None, "same slot, different block");
        // Block 5 maps to the same slot: evicts 1, handing it back.
        assert_eq!(ring.put(5, "b"), Some("a"));
        assert_eq!(ring.get(1), None);
        assert_eq!(ring.get(5), Some(&"b"));
        // Replacing the same block also hands back the old payload.
        assert_eq!(ring.put(5, "c"), Some("b"));
        *ring.get_or_insert_with(5, || "x") = "d";
        assert_eq!(ring.get(5), Some(&"d"));
        assert_eq!(*ring.get_or_insert_with(2, || "fresh"), "fresh");
    }

    #[test]
    fn replay_ring_allocates_its_slots_on_first_use() {
        let mut ring: ReplayRing<u8> = ReplayRing::new(4);
        assert_eq!(ring.get(1), None, "an empty ring answers None");
        assert_eq!(ring.allocated_slots(), 0);
        ring.put(1, 7);
        assert_eq!(ring.allocated_slots(), 4);
        let mut other: ReplayRing<u8> = ReplayRing::new(4);
        *other.get_or_insert_with(6, || 0) += 1;
        assert_eq!((other.get(6), other.allocated_slots()), (Some(&1), 4));
    }

    #[test]
    fn slab_stores_and_removes_without_collisions() {
        let mut slab: BlockSlab<u32> = BlockSlab::new(8);
        for b in 0..8u64 {
            *slab.get_or_insert_with(b, || 0) = b as u32;
        }
        assert_eq!(slab.len(), 8);
        assert_eq!(slab.stats().collisions, 0);
        for b in 0..8u64 {
            assert_eq!(slab.remove(b), Some(b as u32));
        }
        assert!(slab.is_empty());
    }

    #[test]
    fn slab_wraps_around_the_window() {
        // Dense windowed ids: open/close a sliding window of 4 over 100
        // ids through an 8-slot slab; every id reuses slots mod 8.
        let mut slab: BlockSlab<u64> = BlockSlab::new(8);
        for b in 0..100u64 {
            slab.get_or_insert_with(b, || b);
            if b >= 4 {
                assert_eq!(slab.remove(b - 4), Some(b - 4));
            }
        }
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.stats().collisions, 0, "windowed ids never collide");
    }

    #[test]
    fn slab_collisions_fall_back_to_overflow_correctly() {
        let mut slab: BlockSlab<&'static str> = BlockSlab::new(4);
        slab.get_or_insert_with(1, || "a");
        slab.get_or_insert_with(5, || "b"); // 5 % 4 == 1: collides
        assert_eq!(slab.len(), 2);
        assert!(slab.stats().collisions > 0);
        assert_eq!(*slab.get_mut(1).unwrap(), "a");
        assert_eq!(*slab.get_mut(5).unwrap(), "b");
        assert_eq!(slab.remove(5), Some("b"));
        assert_eq!(slab.remove(1), Some("a"));
    }

    #[test]
    fn slab_migrates_overflow_entries_home_when_their_slot_frees() {
        // X and Y collide; X owns the slot, Y lives in overflow. When X
        // closes, a later get_or_insert_with for Y must find Y's existing
        // state (migrated into the slot), not open a duplicate.
        let mut slab: BlockSlab<u32> = BlockSlab::new(4);
        slab.get_or_insert_with(1, || 10); // slot 1
        *slab.get_or_insert_with(5, || 0) = 50; // 5 % 4 == 1: overflow
        assert_eq!(slab.remove(1), Some(10)); // slot 1 now free
        let y = slab.get_or_insert_with(5, || 999);
        assert_eq!(*y, 50, "must migrate the live overflow entry, not make()");
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(5), Some(50));
        assert!(slab.is_empty());
    }

    #[test]
    fn retirement_floor_advances_contiguously() {
        let mut r = RetirementFloor::new();
        assert!(!r.is_retired(0));
        assert_eq!(r.retire(0), 1);
        assert_eq!(r.retire(1), 2);
        assert!(r.is_retired(0) && r.is_retired(1));
        assert!(!r.is_retired(2));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn retirement_floor_absorbs_out_of_order_completions() {
        let mut r = RetirementFloor::new();
        // Blocks complete 2, 3, 0, 1 (window reordering).
        assert_eq!(r.retire(2), 0);
        assert_eq!(r.retire(3), 0);
        assert_eq!(r.pending(), 2);
        assert!(r.is_retired(2) && r.is_retired(3));
        assert!(!r.is_retired(0) && !r.is_retired(1));
        assert_eq!(r.retire(0), 1);
        assert_eq!(r.retire(1), 4, "floor jumps over the pending run");
        assert_eq!(r.pending(), 0);
        for b in 0..4 {
            assert!(r.is_retired(b));
        }
        assert!(!r.is_retired(4));
    }

    #[test]
    fn retirement_floor_ignores_duplicates_and_below_floor() {
        let mut r = RetirementFloor::new();
        r.retire(0);
        assert_eq!(r.retire(0), 1, "re-retiring below the floor is a no-op");
        r.retire(5);
        r.retire(5);
        assert_eq!(r.pending(), 1, "duplicate pending id not double-counted");
        assert_eq!(r.floor(), 1);
    }

    #[test]
    fn in_order_completions_allocate_no_words() {
        let mut r = RetirementFloor::new();
        for id in 0..1_000 {
            assert_eq!(r.retire(id), id + 1);
        }
        assert_eq!(r.words.capacity(), 0);
        // A run that waited above the floor is given back once absorbed.
        r.retire(1_070);
        r.retire(1_001);
        assert_eq!(r.words.len(), 2);
        for id in 1_000..1_070 {
            r.retire(id);
        }
        assert_eq!((r.floor(), r.pending(), r.words.len()), (1_071, 0, 0));
    }

    /// Retire schedules for [`check_retirement_floor`]: `ranks` ranks
    /// sending `blocks` blocks, each rotated `offset` positions from the
    /// one before, and a list of `(kind, draw)` steps.
    fn retire_schedules() -> impl Strategy<Value = (u64, u64, u64, Vec<(u8, u64)>)> {
        let steps = proptest::collection::vec((0u8..6, any::<u64>()), 0..300);
        (1u64..400, 1u64..9, any::<u64>(), steps)
    }

    /// Drive a [`RetirementFloor`] and a `BTreeSet` model through one
    /// schedule. Steps 0–1 retire the next block the rotated ranks finish
    /// (the last rank to send a block finishes it; in order with one
    /// rank), or the floor once they are done; 2 an id just above the
    /// floor; 3 a jump of up to 300 ids; 4 an id below the floor; 5 the
    /// last id retired again. After every step the floor, the pending count
    /// and `is_retired` for the ids around the floor and the retired id
    /// agree with the model.
    fn check_retirement_floor((blocks, ranks, offset, steps): (u64, u64, u64, Vec<(u8, u64)>)) {
        let last_send = |b: u64| {
            let pos = |r: u64| (b + blocks - (r * (offset % blocks)) % blocks) % blocks;
            (0..ranks).map(pos).max().expect("a rank")
        };
        let mut staggered: Vec<u64> = (0..blocks).collect();
        staggered.sort_by_key(|&b| (last_send(b), b));
        let mut staggered = staggered.into_iter();
        let mut r = RetirementFloor::new();
        let mut model = std::collections::BTreeSet::new();
        let mut floor = 0u64;
        let mut last = 0u64;
        for (kind, draw) in steps {
            let id = match kind {
                0 | 1 => staggered.next().unwrap_or(floor),
                2 => floor + draw % 8,
                3 => floor + draw % 300,
                4 => draw % floor.max(1),
                _ => last,
            };
            model.insert(id);
            while model.contains(&floor) {
                floor += 1;
            }
            last = id;
            assert_eq!(r.retire(id), floor, "retire({id})");
            assert_eq!(r.floor(), floor);
            assert_eq!(r.pending(), model.len() - floor as usize);
            let probes = floor.saturating_sub(65)..floor + 130;
            for probe in probes.chain(id.saturating_sub(2)..id + 3) {
                assert_eq!(
                    r.is_retired(probe),
                    model.contains(&probe),
                    "is_retired({probe})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // In-order, staggered, near, jumping, below-floor and duplicate
        // retires leave the floor, the pending count and every probed id's
        // answer where a set of the retired ids puts them.
        #[test]
        fn retirement_floor_matches_a_set_of_retired_ids(schedule in retire_schedules()) {
            check_retirement_floor(schedule);
        }
    }

    /// The differential proptest above at 4 096 cases. Tier-1 skips it; CI
    /// runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "4 096 cases: CI runs it with --release"]
    fn retirement_floor_matches_a_set_of_retired_ids_over_4096_cases() {
        let mut rng = proptest::TestRng::from_name("retirement_floor_over_4096_cases");
        for _ in 0..4096 {
            check_retirement_floor(retire_schedules().sample(&mut rng));
        }
    }

    /// A slab holding its full slot count from the start, as every slab
    /// did before tables grew.
    fn full_size<V>(min_slots: usize) -> BlockSlab<V> {
        let mut slab = BlockSlab::new(min_slots);
        slab.slots = (0..slab.max_slots).map(|_| None).collect();
        slab
    }

    #[test]
    fn slab_grows_with_the_span_of_open_ids() {
        let mut slab: BlockSlab<u64> = BlockSlab::new(BlockSlab::<u64>::DEFAULT_SLOTS);
        assert_eq!(slab.allocated_slots(), BlockSlab::<u64>::INITIAL_SLOTS);
        // Eight ids across the wrap of 8, 16 and 32 slots fit in 8.
        for b in 29..37u64 {
            slab.get_or_insert_with(b, || b);
        }
        assert_eq!(slab.allocated_slots(), 8);
        // 37 would take 29's slot: the table doubles instead.
        slab.get_or_insert_with(37, || 37);
        assert_eq!(slab.allocated_slots(), 16);
        for b in 29..38u64 {
            assert_eq!(slab.get_mut(b).copied(), Some(b), "rehashed {b}");
        }
        // A span of 100 open ids needs 128 slots, never more.
        for b in 38..129u64 {
            slab.get_or_insert_with(b, || b);
        }
        assert_eq!((slab.len(), slab.allocated_slots()), (100, 128));
        assert_eq!(slab.stats().collisions, 0);
        // Capped at the created size: then the overflow map, as before.
        let mut small: BlockSlab<u64> = BlockSlab::new(16);
        for b in 0..20u64 {
            small.get_or_insert_with(b, || b);
        }
        assert_eq!(small.allocated_slots(), 16);
        assert_eq!(small.stats().collisions, 4);
        assert_eq!(small.len(), 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Opens, look-ups and closes over ids 0..300 in a slab of 64:
        // growth from 8 slots is invisible in every answer, every counter
        // and the open set.
        #[test]
        fn growing_slab_matches_a_full_size_one(
            ops in proptest::collection::vec((0u8..4, 0u64..300), 0..200),
        ) {
            let mut slab: BlockSlab<u32> = BlockSlab::new(64);
            let mut full: BlockSlab<u32> = full_size(64);
            for (step, &(op, id)) in ops.iter().enumerate() {
                let step = step as u32;
                match op {
                    0 | 1 => prop_assert_eq!(
                        *slab.get_or_insert_with(id, || step),
                        *full.get_or_insert_with(id, || step)
                    ),
                    2 => prop_assert_eq!(slab.get_mut(id).copied(), full.get_mut(id).copied()),
                    _ => prop_assert_eq!(slab.remove(id), full.remove(id)),
                }
                prop_assert_eq!(slab.stats(), full.stats());
                prop_assert_eq!(slab.len(), full.len());
                let mut got: Vec<(u64, u32)> = slab.iter().map(|(b, v)| (b, *v)).collect();
                let mut want: Vec<(u64, u32)> = full.iter().map(|(b, v)| (b, *v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn slab_iter_covers_slots_and_overflow() {
        let mut slab: BlockSlab<u8> = BlockSlab::new(2);
        slab.get_or_insert_with(0, || 10);
        slab.get_or_insert_with(2, || 20); // collides with 0
        let mut seen: Vec<(u64, u8)> = slab.iter().map(|(b, v)| (b, *v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 10), (2, 20)]);
    }
}
