//! Flare as an in-network program for the system-level simulator.
//!
//! One [`FlareSwitch`] is installed per switch, and it serves every
//! allreduce the network manager routed through that switch, dispatching
//! each packet by its allreduce id (paper Sections 3–4): a one-shot
//! collective's one flow and a traffic engine's tenants alike.
//! [`run_fabric`](crate::wiring::run_fabric) builds it from the flows'
//! plans and reads it back after the run. Contributions flow *up*
//! the reduction tree (aggregated at every switch), results flow *down*
//! (replicated to every child); sparse spills are forwarded up immediately
//! and re-aggregated by the parent (paper Section 7).
//!
//! The switch is an adapter: it parses the packet, charges the switch for
//! it, and hands it to its flow's core, the one block protocol of
//! `protocol.rs`, as its NetSim side — emissions go to the parent and
//! children of the flow's [`TreePlacement`] at the packet's
//! processing-done time. That core keeps the per-packet datapath
//! zero-copy and allocation-free in steady state (contributions fold
//! straight out of the packet bytes via
//! [`DenseView`]/[`SparseView`], aggregation buffers cycle through
//! per-flow pools, a result is encoded once into a payload block from
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

use flare_net::{NetPacket, NodeId, SwitchCtx, SwitchProgram};

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

/// One allreduce a [`FlareSwitch`] serves.
struct Flow<T: Element, O> {
    place: TreePlacement,
    /// Wire bytes of the flow's packets this switch served.
    bytes: u64,
    core: Core<T, O>,
}

/// A flow's block protocol, by payload. Dense blocks fold into the
/// reproducible combining tree for every configuration: on the network
/// simulator the single/multi/tree distinction only changes switch timing,
/// which the calibrated processing rate captures instead.
enum Core<T: Element, O> {
    Dense(DenseCore<T, O, TreeBlock<T>>),
    Sparse(SparseCore<T, O>),
}

/// The Flare program of one switch: every allreduce the network manager
/// routed through it, each at its own place in its own tree. Packets go to
/// their flow's core by allreduce id; packets of any other flow are
/// handed back, and the simulator forwards them normally. The flows share
/// the switch's compute model (HPU cores, rate limit), so contention
/// between them is physical, not modeled.
pub struct FlareSwitch<T: Element, O> {
    flows: Box<[Flow<T, O>]>,
}

impl<T: Element, O: ReduceOp<T>> FlareSwitch<T, O> {
    fn serving(place: TreePlacement, core: Core<T, O>) -> Self {
        let flow = Flow {
            place,
            bytes: 0,
            core,
        };
        let flows = Box::new([flow]);
        Self { flows }
    }

    /// A switch serving one dense allreduce at `place`.
    pub fn dense(place: TreePlacement, op: O) -> Self {
        let core = DenseCore::new(place.children.len() as u16, op);
        Self::serving(place, Core::Dense(core))
    }

    /// A switch serving one sparse allreduce at `place` (Section 7).
    /// Leaves typically use hash storage, the root an array (paper: data
    /// densifies toward the root).
    pub fn sparse(
        place: TreePlacement,
        op: O,
        storage: SparseStorageKind,
        pairs_per_packet: usize,
    ) -> Self {
        let children = place.children.len() as u16;
        let core = SparseCore::new(children, op, storage, pairs_per_packet);
        Self::serving(place, Core::Sparse(core))
    }

    /// Serve `other`'s flows too, after this switch's own.
    pub fn join(self, other: Self) -> Self {
        let mut flows = self.flows.into_vec();
        flows.extend(other.flows);
        let flows = flows.into_boxed_slice();
        Self { flows }
    }

    /// Enable (or disable) every flow's loss-recovery replay cache. The
    /// session turns this on whenever `link_drop_prob > 0`; reliable runs
    /// leave it off so completed payloads go back to the free lists instead
    /// of being pinned for replays that can never be requested.
    pub fn with_loss_recovery(self, yes: bool) -> Self {
        self.loss_recovery(yes, None)
    }

    /// [`with_loss_recovery`](Self::with_loss_recovery) with replay rings
    /// of `slots` ([`FlowWiring`](crate::wiring::FlowWiring) knows how
    /// many blocks a flow has; the default is for a caller that does not).
    pub(crate) fn loss_recovery(mut self, yes: bool, slots: Option<usize>) -> Self {
        for flow in self.flows.iter_mut() {
            match &mut flow.core {
                Core::Dense(core) => core.table.set_loss_recovery(yes, slots),
                Core::Sparse(core) => core.table.set_loss_recovery(yes, slots),
            }
        }
        self
    }

    /// The wire bytes this switch served for `allreduce` and the counters
    /// of its flow; `None` if the switch does not serve it.
    pub fn flow(&self, allreduce: u32) -> Option<(u64, ProgramStats)> {
        let flow = self.flows.iter().find(|f| f.place.allreduce == allreduce)?;
        Some((flow.bytes, flow.core.stats()))
    }

    /// Recycling and recovery counters, summed over the flows.
    pub fn stats(&self) -> ProgramStats {
        let mut sum = ProgramStats::default();
        self.flows.iter().for_each(|flow| sum += flow.core.stats());
        sum
    }
}

impl<T: Element, O: ReduceOp<T>> Core<T, O> {
    fn stats(&self) -> ProgramStats {
        match self {
            Core::Dense(core) => core.stats(),
            Core::Sparse(core) => core.stats(),
        }
    }
}

impl<T: Element, O: ReduceOp<T> + 'static> SwitchProgram for FlareSwitch<T, O> {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
        let flow = self
            .flows
            .iter_mut()
            .find(|f| f.place.allreduce == pkt.flow);
        let Some(flow) = flow else {
            return Some(pkt);
        };
        flow.bytes += pkt.wire_bytes as u64;
        let place = &flow.place;
        match &mut flow.core {
            Core::Dense(core) => {
                let Ok((header, vals)) = DenseView::<T>::parse(&pkt.payload) else {
                    return None;
                };
                let contrib = match header.kind {
                    PacketKind::DenseContrib => true,
                    PacketKind::DenseResult => false,
                    _ => return None,
                };
                let at = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
                let open = |spare: Option<TreeBlock<T>>| {
                    spare.unwrap_or_else(|| TreeBlock::new(place.children.len() as u16))
                };
                let mut side = Side::Net { ctx, place, at };
                if contrib {
                    core.on_contrib(&mut side, pkt.block, &header, &vals, open, None);
                } else {
                    core.on_result(&mut side, pkt.block, &pkt.payload);
                }
            }
            Core::Sparse(core) => {
                let Ok((header, pairs)) = SparseView::<T>::parse(&pkt.payload) else {
                    return None;
                };
                let contrib = match header.kind {
                    PacketKind::SparseContrib | PacketKind::SparseSpill => true,
                    PacketKind::SparseResult => false,
                    _ => return None,
                };
                let at = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
                let mut side = Side::Net { ctx, place, at };
                if contrib {
                    core.on_contrib(&mut side, pkt.block, &header, &pairs, None);
                } else {
                    core.on_result(&mut side, pkt.block, &header, &pkt.payload);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use std::any::Any;

    #[test]
    fn placement_describes_tree_position() {
        let p = TreePlacement {
            allreduce: 3,
            parent: Some(NodeId(9)),
            children: vec![NodeId(1), NodeId(2)],
            my_child_index: 1,
        };
        let prog: FlareSwitch<i32, Sum> = FlareSwitch::dense(p, Sum);
        assert_eq!(prog.flow(3), Some((0, ProgramStats::default())));
        assert_eq!(prog.flow(4), None);
    }

    #[test]
    fn dense_slab_entries_are_bare_tree_blocks() {
        // 1 024 inline slab slots per program, 128 programs at 512 hosts:
        // a word more per entry is a measurable share of peak heap.
        type Program = FlareSwitch<f32, Sum>;
        fn entry_bytes<D>(_: fn(&Program) -> Option<&DenseCore<f32, Sum, D>>) -> usize {
            std::mem::size_of::<D>()
        }
        let tree_block = std::mem::size_of::<TreeBlock<f32>>();
        let dense = entry_bytes(|program| match &program.flows[0].core {
            Core::Dense(core) => Some(core),
            Core::Sparse(_) => None,
        });
        assert_eq!(dense, tree_block);
    }

    #[test]
    fn lossless_runs_allocate_no_replay_slots() {
        // 1 024 slots of `Option<(u64, Bytes)>` are 16 KiB a program (96
        // KiB sparse): only a fabric that can lose packets caches replays,
        // so only there may a program pay for the ring.
        use crate::host::{result_sink, DenseFlareHost, HostConfig};
        use flare_net::{LinkSpec, NetSim, SwitchModel, Topology};
        let replay_slots = |lossy: bool| {
            let (topo, sw, hosts) = Topology::star(3, LinkSpec::hundred_gig());
            let mut sim = NetSim::new(topo, 1);
            let place = TreePlacement {
                allreduce: 1,
                parent: None,
                children: hosts.clone(),
                my_child_index: 0,
            };
            let prog = FlareSwitch::<i32, Sum>::dense(place, Sum).with_loss_recovery(lossy);
            sim.install_switch(sw, Box::new(prog), SwitchModel::calibrated());
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
            let prog: Box<dyn Any> = sim.take_switch(sw).expect("installed");
            let prog: Box<FlareSwitch<i32, Sum>> = prog.downcast().expect("concrete type");
            match &prog.flows[0].core {
                Core::Dense(core) => core.table.replay_slots_allocated(),
                Core::Sparse(_) => unreachable!("a dense flow"),
            }
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
        let prog: FlareSwitch<f32, Sum> = FlareSwitch::sparse(
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

    #[test]
    fn one_switch_serves_a_dense_and_a_sparse_flow_at_once() {
        // Hosts 0–1 reduce a dense vector (flow 1), hosts 2–3 a sparse one
        // (flow 2), and host 4 sends host 5 a packet of flow 3, which the
        // switch does not serve.
        use crate::host::{result_sink, DenseFlareHost, HostConfig, SparseFlareHost};
        use crate::op::golden_reduce;
        use flare_net::Topology;
        use flare_net::{HostCtx, HostProgram, LinkSpec, NetSim, SwitchModel, TelemetryConfig};
        struct Stray(NodeId);
        impl HostProgram for Stray {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                let payload = bytes::Bytes::from(vec![0u8; 100]);
                ctx.send(NetPacket::new(self.0, 3, 0, 0, 0, payload));
            }
            fn on_packet(&mut self, ctx: &mut HostCtx<'_>, _pkt: NetPacket) {
                ctx.mark_done();
            }
        }
        let (topo, sw, hosts) = Topology::star(6, LinkSpec::hundred_gig());
        let mut sim = NetSim::new(topo, 1);
        sim.enable_telemetry(TelemetryConfig { bucket_ns: 1_000 });
        let place = |allreduce, children: &[NodeId]| TreePlacement {
            allreduce,
            parent: None,
            children: children.to_vec(),
            my_child_index: 0,
        };
        let (total, span, ppp) = (48, 16, 2);
        let storage = SparseStorageKind::Array { span };
        let sparse = FlareSwitch::sparse(place(2, &hosts[2..4]), Sum, storage, ppp);
        let switch = FlareSwitch::<i32, Sum>::dense(place(1, &hosts[..2]), Sum).join(sparse);
        sim.install_switch(sw, Box::new(switch), SwitchModel::calibrated());
        let cfg = |allreduce, rank: usize| HostConfig {
            allreduce,
            leaf: sw,
            child_index: rank as u16,
            window: 4,
            stagger_offset: 0,
            retransmit_after: None,
            iteration: 0,
        };
        let dense_in: Vec<Vec<i32>> = vec![(0..64).collect(), (0..64).map(|i| 3 * i).collect()];
        let sparse_in: Vec<Vec<(u32, i32)>> = vec![
            vec![(1, 5), (17, 2), (20, 4), (40, 7)],
            vec![(1, 1), (33, 4)],
        ];
        let (dense_sink, sparse_sink) = (result_sink(), result_sink());
        for rank in 0..2 {
            let data = dense_in[rank].clone();
            let host = DenseFlareHost::new(cfg(1, rank), 8, data, dense_sink.clone());
            sim.install_host(hosts[rank], Box::new(host));
            let pairs = sparse_in[rank].clone();
            let sink = sparse_sink.clone();
            let host = SparseFlareHost::new(cfg(2, rank), Sum, total, span, ppp, pairs, sink);
            sim.install_host(hosts[2 + rank], Box::new(host));
        }
        sim.install_host(hosts[4], Box::new(Stray(hosts[5])));
        sim.install_host(hosts[5], Box::new(Stray(hosts[4])));
        let net = sim.run(None);

        let got = |sink: &crate::host::ResultSink<i32>| sink.lock().unwrap().take();
        assert_eq!(got(&dense_sink), Some(golden_reduce(&Sum, &dense_in)));
        let densify = |pairs: &Vec<(u32, i32)>| {
            let mut v = vec![0; total];
            pairs.iter().for_each(|&(i, x)| v[i as usize] += x);
            v
        };
        let sparse_dense: Vec<Vec<i32>> = sparse_in.iter().map(densify).collect();
        assert_eq!(got(&sparse_sink), Some(golden_reduce(&Sum, &sparse_dense)));
        assert!(
            net.done_at[hosts[5].index()].is_some(),
            "flow 3 was forwarded"
        );

        // A star's switch serves exactly what its flow's hosts send it.
        let trace = sim.take_telemetry().expect("telemetry on");
        let uplink = |h: NodeId| -> u64 {
            let link = trace.links.iter().find(|l| l.a == h.0 || l.b == h.0);
            let link = link.expect("every host is linked");
            let up = &link.dirs[usize::from(link.b == h.0)];
            up.buckets.iter().map(|b| b.bytes).sum()
        };
        let prog: Box<dyn Any> = sim.take_switch(sw).expect("installed");
        let prog: Box<FlareSwitch<i32, Sum>> = prog.downcast().expect("concrete type");
        for (flow, senders) in [(1, &hosts[..2]), (2, &hosts[2..4])] {
            let (bytes, _) = prog.flow(flow).expect("served");
            let sent: u64 = senders.iter().map(|&h| uplink(h)).sum();
            assert!(sent > 0);
            assert_eq!(bytes, sent, "flow {flow}");
        }
        assert!(prog.flow(3).is_none());
    }
}
