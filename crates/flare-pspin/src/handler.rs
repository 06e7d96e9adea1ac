//! sPIN packet-handler abstraction.
//!
//! A handler is plain code executed per packet on an HPU (paper Section 3:
//! "C functions defining how to process the content of the packet"). In
//! this reproduction a handler is a Rust value implementing
//! [`PacketHandler`]; it performs the *actual* aggregation arithmetic and
//! simultaneously drives a cycle cursor through the [`HpuCtx`] so the
//! engine can account core busy time, critical-section serialization,
//! remote-L1 penalties and memory occupancy.
//!
//! Handlers are never suspended (PsPIN avoids context switches), so a
//! handler waiting on a critical section actively burns HPU cycles — the
//! `acquire_any` accounting reflects exactly that.

use std::collections::HashMap;

use flare_des::Time;

use crate::packet::PspinPacket;

/// Identifies a lockable aggregation buffer: `(block, buffer index)`.
///
/// Locks are spinlocks guarding L1 aggregation buffers; the engine
/// serializes critical sections per lock id.
pub type LockId = (u64, u32);

/// Outcome of processing one packet, reported back to the engine.
#[derive(Debug, Default)]
pub struct HandlerEffects {
    /// Packets to emit (to the parent switch or multicast to children),
    /// timestamped at handler completion.
    pub emissions: Vec<PspinPacket>,
    /// Net change in working-memory (L1) bytes: positive when aggregation
    /// buffers were allocated, negative when released.
    pub working_mem_delta: i64,
    /// Blocks fully reduced by this handler execution.
    pub blocks_completed: u64,
}

/// Lock table shared by all HPUs: per-lock earliest-free time.
#[derive(Debug, Default)]
pub struct LockTable {
    free_at: HashMap<LockId, Time>,
}

impl LockTable {
    /// Time at which `lock` becomes free (0 if never taken).
    pub fn free_at(&self, lock: LockId) -> Time {
        self.free_at.get(&lock).copied().unwrap_or(0)
    }

    fn set_free_at(&mut self, lock: LockId, t: Time) {
        self.free_at.insert(lock, t);
    }

    /// Drop bookkeeping for a released buffer (block finished).
    pub fn forget(&mut self, lock: LockId) {
        self.free_at.remove(&lock);
    }
}

/// Execution context of one handler invocation on one HPU.
///
/// The handler advances a *cycle cursor* by calling [`HpuCtx::compute`],
/// [`HpuCtx::dma_copy`] and [`HpuCtx::acquire_any`]; when the handler
/// returns, the engine keeps the core busy until the cursor.
pub struct HpuCtx<'a> {
    /// Cluster owning the core.
    pub cluster: usize,
    pub(crate) cursor: Time,
    pub(crate) locks: &'a mut LockTable,
    pub(crate) lock_wait_cycles: u64,
    pub(crate) dma_copy_cycles: u64,
    pub(crate) remote_l1_factor: u64,
    pub(crate) effects: HandlerEffects,
}

impl<'a> HpuCtx<'a> {
    pub(crate) fn new(
        start: Time,
        cluster: usize,
        locks: &'a mut LockTable,
        dma_copy_cycles: u64,
        remote_l1_factor: u64,
        emissions: Vec<PspinPacket>,
    ) -> Self {
        debug_assert!(emissions.is_empty());
        Self {
            cluster,
            cursor: start,
            locks,
            lock_wait_cycles: 0,
            dma_copy_cycles,
            remote_l1_factor,
            effects: HandlerEffects {
                emissions,
                ..HandlerEffects::default()
            },
        }
    }

    /// Current position of the cycle cursor (absolute time).
    pub fn now(&self) -> Time {
        self.cursor
    }

    /// Burn `cycles` of plain compute.
    pub fn compute(&mut self, cycles: u64) {
        self.cursor += cycles;
    }

    /// Burn compute cycles touching an aggregation buffer homed on
    /// `home_cluster`, at its [`HpuCtx::remote_factor`].
    pub fn compute_on_buffer(&mut self, cycles: u64, home_cluster: usize) {
        self.cursor += cycles * self.remote_factor(home_cluster);
    }

    /// Issue a DMA copy of one packet into an L1 buffer (fixed cost,
    /// paper: 64 cycles vs 1024 for a full aggregation).
    pub fn dma_copy(&mut self) {
        self.cursor += self.dma_copy_cycles;
    }

    /// Spin until one of `candidates` is free, then hold it for
    /// `hold_cycles`. Returns the acquired lock.
    ///
    /// The engine picks the candidate that frees earliest (ties: the first
    /// one), models the spin-wait as core-busy time, and serializes the
    /// critical section by publishing the new `free_at`.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn acquire_any(
        &mut self,
        candidates: impl IntoIterator<Item = LockId>,
        hold_cycles: u64,
    ) -> LockId {
        let (best_at, lock) = candidates
            .into_iter()
            .map(|lock| (self.locks.free_at(lock), lock))
            .min_by_key(|&(at, _)| at)
            .expect("acquire_any needs candidates");
        let acquired_at = self.cursor.max(best_at);
        self.lock_wait_cycles += acquired_at - self.cursor;
        self.cursor = acquired_at + hold_cycles;
        self.locks.set_free_at(lock, self.cursor);
        lock
    }

    /// Extend the critical section of `lock` (which this handler must
    /// currently hold) by `extra_cycles` — used by "last handler" folds.
    pub fn extend_hold(&mut self, lock: LockId, extra_cycles: u64) {
        self.cursor += extra_cycles;
        self.locks.set_free_at(lock, self.cursor);
    }

    /// Release lock-table bookkeeping for a finished buffer.
    pub fn release_buffer(&mut self, lock: LockId) {
        self.locks.forget(lock);
    }

    /// Emit a packet at handler completion.
    pub fn emit(&mut self, pkt: PspinPacket) {
        self.effects.emissions.push(pkt);
    }

    /// Account a working-memory allocation (positive) or release (negative).
    pub fn working_mem(&mut self, delta_bytes: i64) {
        self.effects.working_mem_delta += delta_bytes;
    }

    /// Count a block as fully reduced.
    pub fn complete_block(&mut self) {
        self.effects.blocks_completed += 1;
    }

    /// Cycles this invocation spent spinning on locks so far.
    pub fn lock_wait(&self) -> u64 {
        self.lock_wait_cycles
    }

    /// What touching a buffer homed on `home_cluster` costs per cycle: 1
    /// on this core's cluster, the configured remote-L1 factor (paper: up
    /// to 25×) on another.
    pub fn remote_factor(&self, home_cluster: usize) -> u64 {
        if home_cluster == self.cluster {
            1
        } else {
            self.remote_l1_factor
        }
    }
}

/// An sPIN packet handler: the code installed on the switch for one flow.
pub trait PacketHandler {
    /// Process one packet on the HPU described by `ctx`.
    fn process(&mut self, ctx: &mut HpuCtx<'_>, pkt: &PspinPacket);
}

impl<F: FnMut(&mut HpuCtx<'_>, &PspinPacket)> PacketHandler for F {
    fn process(&mut self, ctx: &mut HpuCtx<'_>, pkt: &PspinPacket) {
        self(ctx, pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_on<'a>(locks: &'a mut LockTable, start: Time) -> HpuCtx<'a> {
        HpuCtx::new(start, 0, locks, 64, 25, Vec::new())
    }

    #[test]
    fn compute_advances_cursor() {
        let mut locks = LockTable::default();
        let mut ctx = ctx_on(&mut locks, 100);
        ctx.compute(10);
        ctx.dma_copy();
        assert_eq!(ctx.now(), 174);
    }

    #[test]
    fn remote_buffer_access_pays_the_penalty() {
        let mut locks = LockTable::default();
        let mut ctx = ctx_on(&mut locks, 0);
        ctx.compute_on_buffer(10, 0); // local
        assert_eq!(ctx.now(), 10);
        ctx.compute_on_buffer(10, 5); // remote: ×25
        assert_eq!(ctx.now(), 260);
    }

    #[test]
    fn uncontended_lock_has_no_wait() {
        let mut locks = LockTable::default();
        let mut ctx = ctx_on(&mut locks, 50);
        let chosen = ctx.acquire_any([(1, 0)], 100);
        assert_eq!(chosen, (1, 0));
        assert_eq!(ctx.now(), 150);
        assert_eq!(ctx.lock_wait(), 0);
        assert_eq!(locks.free_at((1, 0)), 150);
    }

    #[test]
    fn contended_lock_serializes_and_burns_cycles() {
        let mut locks = LockTable::default();
        {
            let mut a = ctx_on(&mut locks, 0);
            a.acquire_any([(7, 0)], 1000);
            assert_eq!(a.now(), 1000);
        }
        let mut b = ctx_on(&mut locks, 10);
        b.acquire_any([(7, 0)], 1000);
        assert_eq!(b.lock_wait(), 990);
        assert_eq!(b.now(), 2000);
    }

    #[test]
    fn acquire_any_picks_the_earliest_free_buffer() {
        let mut locks = LockTable::default();
        {
            let mut a = ctx_on(&mut locks, 0);
            a.acquire_any([(7, 0)], 1000);
        }
        // Buffer 0 busy until 1000, buffer 1 free: pick 1, no wait.
        let mut b = ctx_on(&mut locks, 5);
        let chosen = b.acquire_any((0..2).map(|i| (7, i)), 500);
        assert_eq!(chosen, (7, 1));
        assert_eq!(b.lock_wait(), 0);
        assert_eq!(b.now(), 505);
    }

    #[test]
    fn extend_hold_pushes_free_time() {
        let mut locks = LockTable::default();
        {
            let mut ctx = ctx_on(&mut locks, 0);
            ctx.acquire_any([(3, 0)], 100);
            ctx.extend_hold((3, 0), 50);
            assert_eq!(ctx.now(), 150);
        }
        assert_eq!(locks.free_at((3, 0)), 150);
        let mut ctx = ctx_on(&mut locks, 200);
        ctx.release_buffer((3, 0));
        drop(ctx);
        assert_eq!(locks.free_at((3, 0)), 0);
    }

    #[test]
    fn closures_implement_packet_handler() {
        let mut total = 0u64;
        {
            let mut h = |ctx: &mut HpuCtx<'_>, pkt: &PspinPacket| {
                ctx.compute(pkt.wire_bytes as u64);
                total += 1;
            };
            let mut locks = LockTable::default();
            let mut ctx = ctx_on(&mut locks, 0);
            let pkt = PspinPacket::new(0, bytes::Bytes::from_static(b"xy"));
            h.process(&mut ctx, &pkt);
            assert_eq!(ctx.now(), 2);
        }
        assert_eq!(total, 1);
    }
}
