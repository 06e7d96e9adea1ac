//! Flare as an in-network program for the system-level simulator.
//!
//! One [`FlareDenseProgram`] / [`FlareSparseProgram`] instance is installed
//! per (switch, allreduce): built by
//! [`FlowWiring::switch_program`](crate::wiring::FlowWiring::switch_program)
//! from the network manager's plan, for a one-shot collective and for a
//! traffic-engine tenant alike. Contributions flow *up*
//! the reduction tree (aggregated at every switch), results flow *down*
//! (replicated to every child); sparse spills are forwarded up immediately
//! and re-aggregated by the parent (paper Section 7).
//!
//! Both programs are adapters: they parse the packet, charge the switch
//! for it, and hand it to the one block protocol in `protocol.rs` as its
//! NetSim side — emissions go to the [`TreePlacement`]'s parent and
//! children at the packet's processing-done time. That core keeps the
//! per-packet datapath zero-copy and allocation-free in steady state
//! (contributions fold straight out of the packet bytes via
//! [`DenseView`]/[`SparseView`], aggregation buffers cycle through
//! per-program pools, a result is encoded once into a payload block from
//! the thread's free list and multicast by `Bytes` refcount) and, on
//! lossy sessions (`with_loss_recovery`), implements the paper's Section
//! 4.1 recovery: duplicate contributions are rejected, and a
//! retransmitted contribution for a *retired* block — a poke — is answered
//! with the cached result if it already passed through this switch, or,
//! once per round of pokes, by re-sending the cached upward aggregate
//! towards the parent if not ([`RecoveryStats`] counts which).
//!
//! The processing time of each switch is modeled by
//! [`flare_net::SwitchCtx::processing_done_for`]: under the session's
//! default [`flare_net::SwitchModel::RateLimited`] a serial pipeline
//! calibrated against the PsPIN engine (the paper's SST methodology), and
//! under [`flare_net::SwitchModel::Hpu`] the event-driven multi-core HPU
//! scheduler of [`flare_net::compute`] — handlers of one block pinned
//! hierarchical-FCFS to a core subset, exactly the Section 3 architecture.

use flare_net::{NetPacket, NodeId, PortId, SwitchCtx, SwitchProgram};

use crate::dense::TreeBlock;
use crate::dtype::Element;
use crate::handlers::SparseStorageKind;
use crate::op::ReduceOp;
use crate::pool::{PoolStats, SlabStats};
use crate::protocol::{DenseCore, Side, SparseCore};
use crate::wire::{DenseView, PacketKind, SparseView};

/// Placement of a switch within one allreduce's reduction tree.
#[derive(Debug, Clone)]
pub struct TreePlacement {
    /// The allreduce id this program serves.
    pub allreduce: u32,
    /// Parent switch (`None` for the root).
    pub parent: Option<NodeId>,
    /// Downstream tree neighbors (hosts or switches), in child-index order.
    pub children: Vec<NodeId>,
    /// This switch's child index at its parent.
    pub my_child_index: u16,
}

/// Loss-recovery work of one switch program (paper Section 4.1), counted
/// where it happens. All zero on a lossless session, which keeps no replay
/// entries to poke. `pokes - resends_up - replays_down - absorbed` is the
/// pokes that found their entry evicted and went unanswered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Pokes received: retransmitted contributions for a block that had
    /// already finished here (a sparse burst counts once, on its last
    /// shard).
    pub pokes: u64,
    /// Pokes answered by re-sending the cached aggregate to the parent:
    /// one per round of pokes.
    pub resends_up: u64,
    /// Pokes answered by replaying the cached result to the poking child.
    pub replays_down: u64,
    /// Pokes absorbed: later ones of a round already answered upward.
    pub absorbed: u64,
}

/// Combined recycling and recovery counters of one switch program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Aggregation-buffer pool (elements / pairs).
    pub agg_pool: PoolStats,
    /// Payload blocks the program's encodes asked `vendor/bytes` for
    /// (`gets`) and how many of them a free list served (`hits`). `hits`
    /// depends on what the thread freed before, so it is a recycling
    /// statistic, not a simulation result.
    pub byte_pool: PoolStats,
    /// Open-block slab lookups.
    pub slab: SlabStats,
    /// Loss recovery: pokes received and how they were answered. Unlike
    /// the pools, a simulation result.
    pub recovery: RecoveryStats,
    /// Most blocks open at once on the switch (opened by a first packet,
    /// closed by retirement): what its admitted reservation has to hold.
    /// A simulation result; summing two programs keeps the larger.
    pub open_peak: usize,
}

impl std::ops::AddAssign for ProgramStats {
    fn add_assign(&mut self, other: Self) {
        self.open_peak = self.open_peak.max(other.open_peak);
        for (sum, pool) in [
            (&mut self.agg_pool, other.agg_pool),
            (&mut self.byte_pool, other.byte_pool),
        ] {
            sum.gets += pool.gets;
            sum.hits += pool.hits;
            sum.puts += pool.puts;
        }
        self.slab.direct += other.slab.direct;
        self.slab.collisions += other.slab.collisions;
        self.recovery.pokes += other.recovery.pokes;
        self.recovery.resends_up += other.recovery.resends_up;
        self.recovery.replays_down += other.recovery.replays_down;
        self.recovery.absorbed += other.recovery.absorbed;
    }
}

/// Dense Flare aggregation program for one switch.
///
/// Functionally the aggregation uses the reproducible combining tree for
/// every configuration — on the single-threaded network simulator the
/// single/multi/tree distinction only changes switch timing, which is
/// captured by the calibrated processing rate instead.
pub struct FlareDenseProgram<T: Element, O> {
    place: TreePlacement,
    core: DenseCore<T, O, TreeBlock<T>>,
}

impl<T: Element, O: ReduceOp<T>> FlareDenseProgram<T, O> {
    /// Create the program for one switch of the tree.
    pub fn new(place: TreePlacement, op: O) -> Self {
        Self {
            core: DenseCore::new(place.children.len() as u16, op),
            place,
        }
    }

    /// Enable (or disable) the loss-recovery replay cache. The session
    /// turns this on whenever `link_drop_prob > 0`; reliable runs leave
    /// it off so completed payloads go back to the free lists instead of
    /// being pinned for replays that can never be requested.
    pub fn with_loss_recovery(mut self, yes: bool) -> Self {
        self.core.table.set_loss_recovery(yes);
        self
    }

    /// Size the replay ring, if one is kept
    /// ([`FlowWiring`](crate::wiring::FlowWiring) knows how many blocks the
    /// flow has; the default is for a caller that does not).
    pub(crate) fn replay_slots(mut self, slots: usize) -> Self {
        self.core.table.set_replay_slots(slots);
        self
    }

    /// Recycling counters for steady-state zero-allocation assertions.
    pub fn stats(&self) -> ProgramStats {
        self.core.stats()
    }
}

impl<T: Element, O: ReduceOp<T> + 'static> SwitchProgram for FlareDenseProgram<T, O> {
    fn matches(&self, pkt: &NetPacket) -> bool {
        pkt.flow == self.place.allreduce
    }

    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in_port: PortId, pkt: NetPacket) {
        let Ok((header, vals)) = DenseView::<T>::parse(&pkt.payload) else {
            return;
        };
        let contrib = match header.kind {
            PacketKind::DenseContrib => true,
            PacketKind::DenseResult => false,
            _ => return,
        };
        let at = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
        let place = &self.place;
        let open = |spare: Option<TreeBlock<T>>| {
            spare.unwrap_or_else(|| TreeBlock::new(place.children.len() as u16))
        };
        let mut side = Side::Net { ctx, place, at };
        if contrib {
            self.core
                .on_contrib(&mut side, pkt.block, &header, &vals, open, None);
        } else {
            self.core.on_result(&mut side, pkt.block, &pkt.payload);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Sparse Flare aggregation program for one switch (Section 7). Leaves
/// typically use hash storage, the root an array (paper: data densifies
/// toward the root).
pub struct FlareSparseProgram<T: Element, O> {
    place: TreePlacement,
    core: SparseCore<T, O>,
}

impl<T: Element, O: ReduceOp<T>> FlareSparseProgram<T, O> {
    /// Create the program for one switch of the tree.
    pub fn new(
        place: TreePlacement,
        op: O,
        storage: SparseStorageKind,
        pairs_per_packet: usize,
    ) -> Self {
        let children = place.children.len() as u16;
        Self {
            core: SparseCore::new(children, op, storage, pairs_per_packet),
            place,
        }
    }

    /// Enable (or disable) the loss-recovery replay caches; see
    /// [`FlareDenseProgram::with_loss_recovery`].
    pub fn with_loss_recovery(mut self, yes: bool) -> Self {
        self.core.table.set_loss_recovery(yes);
        self
    }

    /// Size the replay ring; see [`FlareDenseProgram::replay_slots`].
    pub(crate) fn replay_slots(mut self, slots: usize) -> Self {
        self.core.table.set_replay_slots(slots);
        self
    }

    /// Recycling counters for steady-state zero-allocation assertions.
    pub fn stats(&self) -> ProgramStats {
        self.core.stats()
    }
}

impl<T: Element, O: ReduceOp<T> + 'static> SwitchProgram for FlareSparseProgram<T, O> {
    fn matches(&self, pkt: &NetPacket) -> bool {
        pkt.flow == self.place.allreduce
    }

    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in_port: PortId, pkt: NetPacket) {
        let Ok((header, pairs)) = SparseView::<T>::parse(&pkt.payload) else {
            return;
        };
        let contrib = match header.kind {
            PacketKind::SparseContrib | PacketKind::SparseSpill => true,
            PacketKind::SparseResult => false,
            _ => return,
        };
        let at = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
        let place = &self.place;
        let mut side = Side::Net { ctx, place, at };
        if contrib {
            self.core
                .on_contrib(&mut side, pkt.block, &header, &pairs, None);
        } else {
            self.core
                .on_result(&mut side, pkt.block, &header, &pkt.payload);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;

    #[test]
    fn placement_describes_tree_position() {
        let p = TreePlacement {
            allreduce: 3,
            parent: Some(NodeId(9)),
            children: vec![NodeId(1), NodeId(2)],
            my_child_index: 1,
        };
        let prog: FlareDenseProgram<i32, Sum> = FlareDenseProgram::new(p, Sum);
        let pkt = NetPacket::new(NodeId(1), NodeId(0), 3, 0, 0, 0, 0, bytes::Bytes::new());
        assert!(prog.matches(&pkt));
        let other = NetPacket::new(NodeId(1), NodeId(0), 4, 0, 0, 0, 0, bytes::Bytes::new());
        assert!(!prog.matches(&other));
    }

    #[test]
    fn dense_slab_entries_are_bare_tree_blocks() {
        // 1 024 inline slab slots per program, 128 programs at 512 hosts:
        // a word more per entry is a measurable share of peak heap.
        type Program = FlareDenseProgram<f32, Sum>;
        fn entry_bytes<D>(_: fn(&Program) -> &DenseCore<f32, Sum, D>) -> usize {
            std::mem::size_of::<D>()
        }
        let tree_block = std::mem::size_of::<TreeBlock<f32>>();
        assert_eq!(entry_bytes(|program| &program.core), tree_block);
    }

    #[test]
    fn lossless_runs_allocate_no_replay_slots() {
        // 1 024 slots of `Option<(u64, Bytes)>` are 16 KiB a program (96
        // KiB sparse): only a fabric that can lose packets caches replays,
        // so only there may a program pay for the ring.
        use crate::host::{result_sink, DenseFlareHost, HostConfig};
        use flare_net::{LinkSpec, NetSim, Topology};
        let replay_slots = |lossy: bool| {
            let (topo, sw, hosts) = Topology::star(3, LinkSpec::hundred_gig());
            let mut sim = NetSim::new(topo, 1);
            let place = TreePlacement {
                allreduce: 1,
                parent: None,
                children: hosts.clone(),
                my_child_index: 0,
            };
            let prog = FlareDenseProgram::<i32, Sum>::new(place, Sum).with_loss_recovery(lossy);
            sim.install_switch(sw, Box::new(prog), 512.0);
            for (rank, &h) in hosts.iter().enumerate() {
                let cfg = HostConfig {
                    allreduce: 1,
                    leaf: sw,
                    child_index: rank as u16,
                    window: 4,
                    stagger_offset: 0,
                    retransmit_after: None,
                    iteration: 0,
                };
                let host = DenseFlareHost::new(cfg, 8, vec![1i32; 64], result_sink());
                sim.install_host(h, Box::new(host));
            }
            assert!(sim.run(None).last_done.is_some(), "allreduce completes");
            let mut prog = sim.take_switch(sw).expect("installed");
            let prog = prog.as_any_mut().expect("opts in").downcast_mut();
            let prog: &mut FlareDenseProgram<i32, Sum> = prog.expect("concrete type");
            prog.core.table.replay_slots_allocated()
        };
        assert_eq!(replay_slots(false), 0);
        assert_eq!(replay_slots(true), 1024, "a lossy fabric does cache");
    }

    #[test]
    fn fresh_programs_report_idle_stats() {
        let p = TreePlacement {
            allreduce: 1,
            parent: None,
            children: vec![NodeId(1)],
            my_child_index: 0,
        };
        let prog: FlareSparseProgram<f32, Sum> = FlareSparseProgram::new(
            p,
            Sum,
            SparseStorageKind::Hash {
                slots: 8,
                spill_cap: 4,
            },
            16,
        );
        let s = prog.stats();
        assert_eq!(s.agg_pool.gets, 0);
        assert_eq!(s.byte_pool.hit_rate(), 1.0);
        assert_eq!(s.slab.collisions, 0);
    }
}
