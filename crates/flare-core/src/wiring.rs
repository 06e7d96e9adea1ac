//! One flow, wired once: what the paper's network manager does after it
//! has computed a reduction tree — install one handler per tree switch,
//! start one windowed sender per host, run the fabric.
//!
//! A [`FlowWiring`] is an admitted plan plus a payload [`FlowShape`] plus
//! the validated [`Tuning`]: it builds the participant of a rank for one
//! iteration ([`FlowWiring::host`]) and its flow's share of a tree
//! switch's program. [`run_fabric`] is the one bring-up of a [`NetSim`]
//! over the session's topology: it installs one [`FlareSwitch`] per switch
//! of the flows' trees, serving every flow routed through it, and reads
//! back what each flow did there. `Collective::run` wires one flow; the
//! `flare-workloads` traffic engine wires one flow per tenant. Neither
//! constructs a switch program, a host or a simulation itself.
//!
//! The third thing assembled here is the single-switch run of the paper's
//! Sections 6.4 and 7 ([`SwitchRun`]): `P` ports offering 1 KiB packets to
//! one PsPIN unit at the line rate `δ = τ/K`, block order staggered,
//! arrivals exponentially jittered, one Flare handler installed. Figures
//! 11 and 14, the ablations and the model cross-checks all build from it.

#![deny(missing_docs)]

use std::any::Any;
use std::collections::HashSet;

use bytes::Bytes;
use flare_des::Time;
use flare_model::{AggKind, SwitchParams};
use flare_net::{HostProgram, NetReport, NetSim, NodeId, TelemetryReport};
use flare_pspin::engine::run_trace;
use flare_pspin::{
    ArrivalTrace, Engine, PacketHandler, PspinConfig, Report, StaggerMode, TraceConfig,
};

use crate::dtype::Element;
use crate::handlers::{
    agg_cycles, DenseAllreduceHandler, DenseHandlerConfig, SparseAllreduceHandler,
    SparseHandlerConfig, SparseStorageKind,
};
use crate::host::{
    DenseFlareHost, FlareHost, HostConfig, Payload, RankResult, RttEstimate, SharedResults,
    SparseFlareHost,
};
use crate::manager::{AllreducePlan, TreeSwitch};
use crate::op::{ReduceOp, Sum};
use crate::pool::ReplayRing;
use crate::session::{FlareSession, SessionError, SparsePolicy, Tuning};
use crate::switch_prog::{FlareSwitch, ProgramStats, TreePlacement};
use crate::tag::FlowTag;
use crate::wire::{encode_dense, encode_sparse, Header, PacketKind};

/// What a flow's blocks are made of.
#[derive(Debug, Clone, Copy)]
pub enum FlowShape {
    /// `elems` dense elements per rank, one packet
    /// ([`Tuning::elems_per_packet`] elements) per block.
    Dense {
        /// Elements per rank.
        elems: usize,
    },
    /// `(index, value)` pairs over a `total_elems` domain, one
    /// [`SparsePolicy::span`] of indexes per block, sent as shards of
    /// [`Tuning::pairs_per_packet`] pairs.
    Sparse {
        /// Size of the index domain.
        total_elems: usize,
        /// Storage along the tree and the block span.
        policy: SparsePolicy,
    },
}

impl FlowShape {
    /// Blocks one iteration of the flow is split into.
    pub fn blocks(&self, tuning: &Tuning) -> u64 {
        match *self {
            FlowShape::Dense { elems } => elems.div_ceil(tuning.elems_per_packet) as u64,
            FlowShape::Sparse {
                total_elems,
                policy,
            } => total_elems.div_ceil(policy.span) as u64,
        }
    }
}

/// One rank's contribution to one iteration of a flow.
#[derive(Debug)]
pub enum FlowInput<T> {
    /// The rank's dense vector.
    Dense(Vec<T>),
    /// The rank's sparsified `(global index, value)` list.
    Sparse(Vec<(u32, T)>),
}

/// A rank's participant with its payload erased, as [`FlowWiring::host`]
/// hands it out.
pub trait WiredHost<T>: HostProgram {
    /// Blocks this participant's retransmission timer re-sent.
    fn retransmits(&self) -> u64;
    /// Whether every block's result has arrived.
    fn finished(&self) -> bool;
    /// The flow's round-trip estimate as this participant has it: what
    /// [`FlowWiring::host`] takes for the flow's next iteration.
    fn rtt(&self) -> RttEstimate;
    /// The reduced vector, once [`finished`](Self::finished)
    /// ([`FlareHost::take_result`]).
    fn take_result(&mut self, shared: &mut SharedResults<T>) -> Option<RankResult<T>>;
}

impl<P: Payload + 'static> WiredHost<P::Elem> for FlareHost<P> {
    fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn finished(&self) -> bool {
        self.finished()
    }

    fn rtt(&self) -> RttEstimate {
        self.rtt()
    }

    fn take_result(&mut self, shared: &mut SharedResults<P::Elem>) -> Option<RankResult<P::Elem>> {
        self.take_result(shared)
    }
}

/// A participant list a flow can run over: not empty, no host twice (a
/// repeated host would be two ranks behind one child index, and the second
/// would never complete).
pub(crate) fn check_participants(hosts: &[NodeId]) -> Result<(), SessionError> {
    if hosts.is_empty() {
        return Err(SessionError::NoHosts);
    }
    let mut seen = HashSet::with_capacity(hosts.len());
    match hosts.iter().find(|&&h| !seen.insert(h)) {
        Some(&host) => Err(SessionError::DuplicateHost { host }),
        None => Ok(()),
    }
}

/// Whether the wire can carry iteration `iteration` of flow `flow`, a flow
/// of `blocks` blocks per iteration, and if so the packed retransmission
/// wake tag its participants arm. Two fields tell one iteration from the
/// others, and both must fit:
/// * its block ids, `iteration × blocks` onwards, stay below `u32::MAX`
///   (a header's block id is 32 bits; past it an id aliases an earlier
///   iteration's): [`SessionError::BlockIdOverflow`];
/// * `iteration` fits the wake tag's [`crate::tag::MAX_SEQ`]:
///   [`SessionError::WakeTagOverflow`].
///
/// [`FlowWiring::host`] checks every participant by it and the traffic
/// engine every tenant's last iteration at admission.
pub fn check_iteration(flow: u32, iteration: u64, blocks: u64) -> Result<u64, SessionError> {
    let ids = iteration
        .checked_add(1)
        .and_then(|n| n.checked_mul(blocks.max(1)));
    if ids.is_none_or(|ids| ids > u32::MAX as u64) {
        return Err(SessionError::BlockIdOverflow { iteration, blocks });
    }
    // Below u32::MAX now, as the ids are.
    let tag = FlowTag::retransmit(flow, iteration as u32);
    tag.pack().map_err(SessionError::WakeTagOverflow)
}

/// The per-rank stagger step, in blocks: rank `r` starts its block order
/// at `r × step` (Section 5's staggered sending). The offsets never wrap
/// the block range, `(hosts − 1) · step < blocks`: a wrapped offset puts
/// two ranks on the same block a whole pass of the burst apart, so that
/// block, and the broadcast behind it, waits for the pass.
///
/// When the window covers every block, ranks spread evenly over the block
/// range, `blocks / hosts` apart — the paper's `δ ≤ δc ≤ δ·Z/N`. With more
/// hosts than blocks no whole step fits and the step is 0: every rank
/// sends in block order. Under a narrower window a block stays open until
/// the largest-offset rank reaches it, so the spread `(hosts − 1) · step`
/// must fit inside the window with 32 blocks of slack for pipelining.
fn stagger_step(blocks: u64, hosts: usize, window: usize) -> u64 {
    let step = if window as u64 >= blocks {
        blocks / hosts as u64
    } else {
        (window.saturating_sub(32) / hosts) as u64
    };
    debug_assert!(
        step == 0 || (hosts as u64 - 1) * step < blocks,
        "offsets wrap"
    );
    step
}

/// An admitted flow ready to be installed: the plan's tree, the ranks, the
/// payload shape and the tuning every one of its programs is built from.
#[derive(Debug)]
pub struct FlowWiring {
    plan: AllreducePlan,
    hosts: Vec<NodeId>,
    shape: FlowShape,
    tuning: Tuning,
    blocks: u64,
    step: u64,
}

impl FlowWiring {
    /// Wire `plan` for `hosts` (rank order) carrying `shape` under the
    /// [validated](Tuning::validated) `tuning`. Every participant must be
    /// attached to the plan's tree, once: a pre-admitted handle may cover
    /// a different host set than the one a collective names.
    pub fn new(
        plan: AllreducePlan,
        hosts: Vec<NodeId>,
        shape: FlowShape,
        tuning: &Tuning,
    ) -> Result<Self, SessionError> {
        check_participants(&hosts)?;
        if let Some(&host) = hosts
            .iter()
            .find(|h| !plan.tree.host_attach.contains_key(h))
        {
            return Err(SessionError::HostNotInPlan { host });
        }
        let blocks = shape.blocks(tuning);
        let step = stagger_step(blocks, hosts.len(), plan.window);
        Ok(Self {
            step,
            blocks,
            plan,
            hosts,
            shape,
            tuning: tuning.clone(),
        })
    }

    /// The admitted plan this flow runs under.
    pub fn plan(&self) -> &AllreducePlan {
        &self.plan
    }

    /// The participants, in rank order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Replay-ring slots of this flow on one switch (lossy fabrics
    /// only; every cached result pins its payload until its slot is
    /// reused). An entry must outlive every poke for its block, and pokes
    /// come from hosts that still have the block in flight. A host counts
    /// open blocks against its window, not positions, so it runs ahead of
    /// a block it is recovering — and under staggering of the blocks the
    /// other hosts send last — by any distance: no ring shorter than an
    /// iteration is safe within it. Across iterations one lap is: a host
    /// starts iteration `g + 1` once it has closed every block of `g`, so
    /// a switch retires a block of `g + 1` only when every host below it
    /// is done with `g`. Where it costs little, two laps also cover the
    /// one result that can pass a switch before then, a root's spill shard
    /// (hash storage at the root) of a block still open here.
    fn replay_slots(&self) -> usize {
        let blocks = self.blocks as usize;
        if 2 * blocks <= ReplayRing::<()>::DEFAULT_CAPACITY {
            2 * blocks
        } else {
            blocks
        }
    }

    /// Tree switch `switch`'s program serving this flow alone, reducing
    /// with `op`: hash storage in the tree and an array at the densified
    /// root for a sparse flow, replay caches only on a lossy fabric.
    fn switch_program<T: Element, O: ReduceOp<T>>(
        &self,
        switch: &TreeSwitch,
        op: O,
    ) -> FlareSwitch<T, O> {
        let place = TreePlacement {
            allreduce: self.plan.id,
            parent: switch.parent,
            children: switch.children.clone(),
            my_child_index: switch.my_child_index,
        };
        let prog = match self.shape {
            FlowShape::Dense { .. } => FlareSwitch::dense(place, op),
            FlowShape::Sparse { policy, .. } => {
                let storage = policy.storage_at(switch.parent.is_none());
                FlareSwitch::sparse(place, op, storage, self.tuning.pairs_per_packet)
            }
        };
        prog.loss_recovery(self.tuning.lossy(), Some(self.replay_slots()))
    }

    /// Rank `rank`'s participant for iteration `iteration` of the flow,
    /// contributing `input`; it keeps the reduced vector
    /// ([`WiredHost::take_result`]). A
    /// one-shot collective is iteration 0; an engine re-running the flow
    /// passes 0, 1, 2, …, so that block ids and retransmission wake tags
    /// never alias across iterations, and as `rtt` the estimate the rank's
    /// previous participant [finished with](WiredHost::rtt), so that only
    /// the flow's first iteration waits out
    /// [`Tuning::retransmit_after`] for a lost packet (the default
    /// estimate, no sample, is that first iteration's). An iteration the
    /// wire cannot carry is an error ([`check_iteration`]).
    ///
    /// # Panics
    /// Panics if `input` is not of the wiring's [`FlowShape`].
    pub fn host<T: Element, O: ReduceOp<T> + 'static>(
        &self,
        rank: usize,
        iteration: u32,
        rtt: RttEstimate,
        op: O,
        input: FlowInput<T>,
    ) -> Result<Box<dyn WiredHost<T>>, SessionError> {
        check_iteration(self.plan.id, iteration as u64, self.blocks)?;
        let (leaf, child_index) = self.plan.tree.host_attach[&self.hosts[rank]];
        let cfg = HostConfig {
            allreduce: self.plan.id,
            leaf,
            child_index,
            window: self.plan.window,
            stagger_offset: rank as u64 * self.step,
            retransmit_after: self.tuning.retransmit_after,
            iteration,
        };
        match (self.shape, input) {
            (FlowShape::Dense { .. }, FlowInput::Dense(data)) => {
                let epp = self.tuning.elems_per_packet;
                let mut host = DenseFlareHost::new(cfg, epp, data);
                host.resume_rtt(rtt);
                Ok(Box::new(host))
            }
            (
                FlowShape::Sparse {
                    total_elems,
                    policy,
                },
                FlowInput::Sparse(pairs),
            ) => {
                let ppp = self.tuning.pairs_per_packet;
                let span = policy.span;
                let mut host = SparseFlareHost::new(cfg, op, total_elems, span, ppp, pairs);
                host.resume_rtt(rtt);
                Ok(Box::new(host))
            }
            _ => panic!("rank {rank}'s input is not of the flow's shape"),
        }
    }

    /// Every rank's reduced vector, in rank order, read back from the
    /// participants [`host`](Self::host) built with `O` once `sim` has run
    /// them: the result-collection step of a one-shot collective, which
    /// takes the participants out of `sim`. Sparse ranks that accepted the
    /// same result shards in the same order share one vector
    /// ([`SharedResults`]). The ranks whose participant did not finish, or
    /// is not there, are [`SessionError::Unfinished`].
    pub(crate) fn take_results<T: Element, O: ReduceOp<T> + 'static>(
        &self,
        sim: &mut NetSim,
    ) -> Result<Vec<RankResult<T>>, SessionError> {
        let mut shared = SharedResults::default();
        let mut ranks = Vec::with_capacity(self.hosts.len());
        let mut unfinished = Vec::new();
        for (rank, &host) in self.hosts.iter().enumerate() {
            let program = sim.take_host(host).map(|p| p as Box<dyn Any>);
            let result = program.and_then(|program| match self.shape {
                FlowShape::Dense { .. } => program
                    .downcast::<DenseFlareHost<T>>()
                    .ok()?
                    .take_result(&mut shared),
                FlowShape::Sparse { .. } => program
                    .downcast::<SparseFlareHost<T, O>>()
                    .ok()?
                    .take_result(&mut shared),
            });
            match result {
                Some(result) => ranks.push(result),
                None => unfinished.push(rank),
            }
        }
        if unfinished.is_empty() {
            Ok(ranks)
        } else {
            Err(SessionError::Unfinished { ranks: unfinished })
        }
    }
}

/// What one flow did on one switch of its tree, read back after a run.
#[derive(Debug, Clone, Copy)]
pub struct SwitchFlow {
    /// The switch.
    pub switch: NodeId,
    /// The flow's index in the slice [`run_fabric`] was given.
    pub flow: usize,
    /// Wire bytes of the flow's packets the switch served.
    pub bytes: u64,
    /// The counters of the flow's block protocol on the switch.
    pub stats: ProgramStats,
    /// Working memory the flow's open blocks held there at their peak, in
    /// bytes: its most blocks open at once × `M` × packet bytes, what
    /// admission reserved [`AllreducePlan::window`] of.
    pub open_bytes: u64,
}

/// Bring the fabric up and run it: lend the session's topology to one
/// [`NetSim`] seeded with `tuning.seed`, arm telemetry and loss injection,
/// install on every switch of the `flows`' trees one [`FlareSwitch`]
/// reducing with `op` for the flows routed through it (under the tuning's
/// switch model) and `hosts`, run up to `deadline` ([`NetSim::run`]), and
/// take the topology back. Returns what each flow did on each switch, by
/// node id and then in `flows` order. `harvest` sees the simulation after
/// the run, the telemetry capture (the HPU occupancy timelines live inside
/// the compute units a harvest may tear down) and the switch read-back.
pub fn run_fabric<T: Element, O: ReduceOp<T> + Clone + 'static, R>(
    session: &mut FlareSession,
    tuning: &Tuning,
    deadline: Option<Time>,
    flows: &[&FlowWiring],
    op: O,
    hosts: Vec<(NodeId, Box<dyn HostProgram>)>,
    harvest: impl FnOnce(&mut NetSim) -> R,
) -> (NetReport, Option<TelemetryReport>, Vec<SwitchFlow>, R) {
    let mut sim = NetSim::new(std::mem::take(&mut session.topology), tuning.seed);
    if let Some(cfg) = tuning.telemetry {
        sim.enable_telemetry(cfg);
    }
    sim.set_uniform_drop_prob(tuning.link_drop_prob);
    // `(flow index, the flow's record of the switch)` for each flow whose
    // tree it is in.
    let served = |sw: NodeId| {
        let flows = flows.iter().enumerate();
        flows.filter_map(move |(i, f)| Some((i, f.plan.tree.switch(sw)?)))
    };
    let trees = flows.iter().flat_map(|f| &f.plan.tree.switches);
    let mut switches: Vec<NodeId> = trees.map(|s| s.switch).collect();
    switches.sort_by_key(|n| n.index());
    switches.dedup();
    for sw in switches {
        let programs = served(sw).map(|(i, s)| flows[i].switch_program(s, op.clone()));
        let program = programs.reduce(FlareSwitch::join).expect("a tree switch");
        sim.install_switch(sw, Box::new(program), tuning.switch_model.clone());
    }
    for (node, program) in hosts {
        sim.install_host(node, program);
    }
    let net = sim.run(deadline);
    let trace = sim.take_telemetry();
    // Read every program back by node id: no switch list lives through the run.
    let mut read = Vec::new();
    for sw in (0..sim.topology().node_count() as u32).map(NodeId) {
        let Some(program) = sim.take_switch(sw).map(|p| p as Box<dyn Any>) else {
            continue;
        };
        let program: Box<FlareSwitch<T, O>> = program.downcast().expect("a FlareSwitch");
        for (i, s) in served(sw) {
            let (plan, packet_bytes) = (&flows[i].plan, flows[i].tuning.packet_bytes);
            let (bytes, stats) = program.flow(plan.id).expect("served");
            let open_bytes =
                stats.open_peak as u64 * plan.block_bytes(s.children.len(), packet_bytes);
            read.push(SwitchFlow {
                switch: sw,
                flow: i,
                bytes,
                stats,
                open_bytes,
            });
        }
    }
    let harvested = harvest(&mut sim);
    session.topology = sim.into_topology();
    (net, trace, read, harvested)
}

/// One single-switch run: `children` ports offer `blocks` reduction
/// blocks of one 1 KiB packet each to the PsPIN unit `cfg`, paced at the
/// unit's line rate for the handler's service time. What varies between
/// the paper's single-switch experiments is exactly these fields; the
/// trace, the payloads and the handler follow from them.
#[derive(Debug, Clone)]
pub struct SwitchRun {
    /// The PsPIN unit.
    pub cfg: PspinConfig,
    /// Ports feeding the switch (`P`): one contribution per port per block.
    pub children: usize,
    /// Reduction blocks (`Z/N`).
    pub blocks: u64,
    /// Block-order staggering between ports (Section 5).
    pub stagger: StaggerMode,
    /// Exponentially distributed interarrivals (Section 6.4) instead of
    /// deterministic pacing.
    pub jitter: bool,
    /// Seed of the jitter streams.
    pub seed: u64,
}

impl SwitchRun {
    /// The allreduce id every packet and the handler carry.
    const ALLREDUCE: u32 = 1;

    /// Offer one packet per `(child, block)` at `δ = τ/K` and run `handler`
    /// over the trace.
    fn run<H: PacketHandler>(
        &self,
        tau: u64,
        handler: H,
        payload: impl FnMut(u16, u64) -> Bytes,
    ) -> (Report, Engine<H>) {
        let trace = TraceConfig {
            flow: Self::ALLREDUCE,
            children: self.children,
            blocks: self.blocks,
            header_bytes: 0,
            delta: self.cfg.line_rate_delta(tau),
            stagger: self.stagger,
            exponential_jitter: self.jitter,
            seed: self.seed,
        };
        let arrivals = ArrivalTrace::generate(&trace, payload);
        run_trace(self.cfg.clone(), handler, arrivals, false)
    }

    fn contribution(kind: PacketKind, child: u16, block: u64) -> Header {
        let sparse = kind == PacketKind::SparseContrib;
        Header {
            allreduce: Self::ALLREDUCE,
            block: block as u32,
            child,
            kind,
            // One shard per block: a block is sized to fit one packet.
            last_shard: sparse,
            shard_count: u16::from(sparse),
            elem_count: 0,
        }
    }

    /// Sum-reduce dense blocks of `T` under aggregation design `kind`: a
    /// packet carries 1 KiB of elements and `τ` is their aggregation cost
    /// ([`agg_cycles`]). Payload values do not affect timing; each port
    /// sends one fixed vector in every block.
    pub fn dense<T: Element>(&self, kind: AggKind) -> Report {
        let elems = SwitchParams::paper().packet_bytes / T::WIRE_BYTES;
        let values: Vec<Vec<T>> = (0..self.children as u64)
            .map(|c| (0..elems as u64).map(|i| T::from_seed(c + i)).collect())
            .collect();
        let handler: DenseAllreduceHandler<T, Sum> = DenseAllreduceHandler::new(
            DenseHandlerConfig {
                allreduce: Self::ALLREDUCE,
                children: self.children as u16,
                algorithm: kind,
                capture_results: false,
            },
            Sum,
        );
        let payload = |c: u16, b: u64| {
            let header = Self::contribution(PacketKind::DenseContrib, c, b);
            encode_dense(header, &values[c as usize])
        };
        self.run(agg_cycles::<T>(elems), handler, payload).0
    }

    /// Sum-reduce sparse blocks into `storage`: `pairs(child, block)` is
    /// one port's `(block-relative index, value)` list for one block, sent
    /// as a single shard, and `tau` the handler's service time per packet
    /// (sparse handlers are slower than dense ones, so the caller offers
    /// packets at the sparse line rate). Returns the report and the
    /// elements the handler forwarded unaggregated.
    pub fn sparse<T: Element>(
        &self,
        storage: SparseStorageKind,
        pairs_per_packet: usize,
        tau: u64,
        mut pairs: impl FnMut(u16, u64) -> Vec<(u32, T)>,
    ) -> (Report, u64) {
        let handler: SparseAllreduceHandler<T, Sum> = SparseAllreduceHandler::new(
            SparseHandlerConfig {
                allreduce: Self::ALLREDUCE,
                children: self.children as u16,
                storage,
                pairs_per_packet,
                capture_results: false,
            },
            Sum,
        );
        let payload = |c: u16, b: u64| {
            let header = Self::contribution(PacketKind::SparseContrib, c, b);
            encode_sparse(header, &pairs(c, b))
        };
        let (report, engine) = self.run(tau, handler, payload);
        (report, engine.handler().spilled_elems())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{FlowTagOverflow, MAX_SEQ};
    use flare_net::{LinkSpec, Topology};

    /// A dense flow of `blocks` blocks over a two-host star, wired under the
    /// tuning of `session`.
    fn flow(session: &mut FlareSession, blocks: usize) -> FlowWiring {
        let tuning = session.tuning().validated().unwrap();
        let elems = blocks * tuning.elems_per_packet;
        let plan = session
            .admit(4 * elems as u64, false)
            .unwrap()
            .plan()
            .clone();
        let hosts = session.hosts().to_vec();
        FlowWiring::new(plan, hosts, FlowShape::Dense { elems }, &tuning).unwrap()
    }

    /// Rank 0's participant for iteration `iteration` of `wiring`.
    fn participant(wiring: &FlowWiring, iteration: u32) -> Result<(), SessionError> {
        let elems = wiring.blocks as usize * wiring.tuning.elems_per_packet;
        let input = FlowInput::Dense(vec![1f32; elems]);
        let rtt = RttEstimate::default();
        wiring.host(0, iteration, rtt, Sum, input)?;
        Ok(())
    }

    #[test]
    fn an_iteration_past_the_wake_tag_is_a_typed_error() {
        // Its retransmission timer would have no tag of its own.
        let (topo, _sw, _hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .retransmit_after(Some(10_000))
            .build();
        let wiring = flow(&mut session, 2);
        assert_eq!(participant(&wiring, MAX_SEQ), Ok(()));
        let seq = MAX_SEQ + 1;
        let flow = wiring.plan().id;
        let overflow = SessionError::WakeTagOverflow(FlowTagOverflow { flow, seq });
        assert_eq!(participant(&wiring, seq), Err(overflow));
    }

    #[test]
    fn an_iteration_past_the_wire_block_ids_is_a_typed_error() {
        // Iteration 2^23 of 512 blocks would send ids 2^32 + b, which a
        // 32-bit header carries as iteration 0's b.
        let (topo, _sw, _hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let wiring = flow(&mut session, 512);
        assert_eq!(participant(&wiring, (1 << 23) - 2), Ok(()));
        let (iteration, blocks) = (1 << 23, 512);
        let overflow = SessionError::BlockIdOverflow { iteration, blocks };
        assert_eq!(participant(&wiring, iteration as u32), Err(overflow));
    }

    #[test]
    fn stagger_offsets_never_wrap_and_fit_the_window() {
        for hosts in 1..=1_100usize {
            for blocks in 1..=300u64 {
                let b = blocks as usize;
                for window in [1, 8, 31, 32, 33, 64, hosts + 64, b - 1, b, b + 1] {
                    let step = stagger_step(blocks, hosts, window);
                    if hosts as u64 > blocks {
                        // Where admission sizes the window by ℛ.
                        assert_eq!(step, 0, "{hosts} hosts, {blocks} blocks, window {window}");
                    }
                    let spread = (hosts as u64 - 1) * step;
                    let fits = if (window as u64) < blocks {
                        // Under 32 blocks of window there is no stagger.
                        spread + 32 <= window as u64 || step == 0
                    } else {
                        step == blocks / hosts as u64
                    };
                    assert!(
                        spread < blocks && fits,
                        "{hosts} hosts, {blocks} blocks, window {window}: step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn reading_back_a_participant_that_never_ran_names_its_rank() {
        // Rank 1's finished participant is swapped for a fresh one that
        // never ran before the results are read: an error naming rank 1,
        // not a panic.
        let (topo, _sw, _hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let tuning = session.tuning().validated().unwrap();
        let wiring = flow(&mut session, 2);
        let elems = wiring.blocks as usize * tuning.elems_per_packet;
        let participant = |rank: usize| {
            let input = FlowInput::Dense(vec![1f32; elems]);
            let host = wiring.host(rank, 0, RttEstimate::default(), Sum, input);
            (wiring.hosts()[rank], host.unwrap() as Box<dyn HostProgram>)
        };
        let read = |sim: &mut NetSim| {
            let (node, never_ran) = participant(1);
            sim.install_host(node, never_ran);
            wiring.take_results::<f32, Sum>(sim)
        };
        let hosts = vec![participant(0), participant(1)];
        let flows = [&wiring];
        let (net, _, _, read) =
            run_fabric::<f32, _, _>(&mut session, &tuning, None, &flows, Sum, hosts, read);
        assert!(net.last_done.is_some(), "the run itself completed");
        let unfinished = SessionError::Unfinished { ranks: vec![1] };
        assert_eq!(read.map(|ranks| ranks.len()), Err(unfinished));
    }

    #[test]
    fn run_fabric_hands_the_fabric_back() {
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let tuning = session.tuning().validated().unwrap();
        let seen = |sim: &mut NetSim| sim.topology().hosts().len();
        let (net, trace, read, hosts) =
            run_fabric::<f32, Sum, _>(&mut session, &tuning, None, &[], Sum, vec![], seen);
        assert_eq!(
            (net.events, trace.is_none(), read.len(), hosts),
            (0, true, 0, 3)
        );
        // The session still works after the loan.
        let out = session.allreduce(vec![vec![1i32; 8]; 3]).run().unwrap();
        assert_eq!(out.rank(0), &[3i32; 8][..]);
    }
}
