//! The network event loop: links, programs, accounting.
//!
//! Three event types drive the simulation:
//!
//! * `Egress` — a packet leaves a node through a port: the link serializes
//!   it (per-direction FIFO `busy_until`), adds propagation latency, and
//!   schedules a `Deliver` at the peer;
//! * `Deliver` — a packet reaches a node: a host's [`HostProgram`] or a
//!   switch's [`SwitchProgram`] (when one matches the flow) handles it,
//!   otherwise the switch forwards along the routing tables;
//! * `Wake` — a host-requested timer (retransmission timeouts, phased
//!   algorithms).
//!
//! Switch programs process packets through a per-switch compute model
//! ([`SwitchModel`]): either the serial rate limiter calibrated from the
//! PsPIN simulator (`processing_done(bytes)`, mirroring the paper's SST
//! calibration) or the event-driven multi-core HPU scheduler
//! ([`crate::compute`], `processing_done_for(block, bytes)`) — and can
//! emit packets to arbitrary ports/destinations, including multicast by
//! emitting one copy per port.

use rand::rngs::StdRng;
use rand::RngExt;

use flare_des::partition::{run_parallel_until, Outbox, Partition, PartitionSim};
use flare_des::rng::rng_stream;
use flare_des::{EventQueue, Simulator, Time};

use crate::compute::{ComputeStats, SwitchCompute, SwitchModel};
use crate::packet::NetPacket;
use crate::partition::PartitionPlan;
use crate::telemetry::{ComputeTimeline, Telemetry, TelemetryConfig, TelemetryReport, TraceKind};
use crate::topology::{NodeId, NodeKind, PortId, Routing, Topology};

/// Events processed by [`NetSim`].
#[derive(Debug)]
pub enum NetEvent {
    /// Packet leaves `node` through `port`.
    Egress {
        /// Transmitting node.
        node: NodeId,
        /// Egress port.
        port: PortId,
        /// The packet.
        pkt: NetPacket,
    },
    /// Packet arrives at `node` on `in_port`.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Ingress port.
        in_port: PortId,
        /// The packet.
        pkt: NetPacket,
    },
    /// Host timer with an app-defined tag.
    Wake {
        /// The host.
        node: NodeId,
        /// App-defined tag passed back to `on_wake`.
        tag: u64,
    },
}

/// Application logic running on a host.
///
/// `Send` is a supertrait so installed programs can migrate to worker
/// threads under [`NetSim::run_threads`]; programs never run on two
/// threads at once (each partition is claimed whole), so `Sync` is not
/// required.
pub trait HostProgram: Send {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
    /// Called for every packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket);
    /// Called when a timer requested via [`HostCtx::wake_in`] fires.
    fn on_wake(&mut self, _ctx: &mut HostCtx<'_>, _tag: u64) {}
}

/// In-network program installed on a switch for matching flows.
///
/// `Send` is a supertrait for the same reason as [`HostProgram`]'s.
pub trait SwitchProgram: Send {
    /// Whether this program handles `pkt` (unmatched packets are forwarded
    /// normally, "not further delayed" per paper Section 3).
    fn matches(&self, pkt: &NetPacket) -> bool;
    /// Handle a matched packet. The packet is moved in: a program that
    /// consumes the payload holds its only reference and may reclaim the
    /// backing buffer into a pool.
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, in_port: PortId, pkt: NetPacket);
    /// Downcast hook so callers of [`NetSim::take_switch`] can inspect
    /// concrete program state (pool counters, completion tallies) after a
    /// run. Programs that opt in return `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

#[derive(Default)]
struct DirState {
    busy_until: Time,
    bytes: u64,
    packets: u64,
    drops: u64,
}

struct LinkState {
    dirs: [DirState; 2],
    drop_prob: f64,
    /// Per-*direction* RNG streams derived from `(run seed, 2·link + dir)`:
    /// every direction's drop pattern is a pure function of the seed and
    /// that direction's own packet sequence, independent of how traffic
    /// interleaves elsewhere — so lossy runs are bitwise-reproducible per
    /// run seed. Per-direction (rather than per-link) streams also make
    /// each stream single-writer under partitioned execution: only the
    /// transmitting side's partition ever draws from it.
    rngs: [StdRng; 2],
}

/// Shared mutable simulation state (everything except the programs).
struct SimCore {
    topo: Topology,
    routing: Routing,
    links: Vec<LinkState>,
    /// Per-switch processing-pipeline availability for program packets.
    proc_busy: Vec<Time>,
    /// Per-switch processing rate in bytes/ns (f64::INFINITY = unmodeled).
    proc_rate: Vec<f64>,
    /// Per-switch multi-core HPU scheduler, when the switch was installed
    /// with [`SwitchModel::Hpu`] (boxed: most nodes have none).
    compute: Vec<Option<Box<SwitchCompute>>>,
    done_at: Vec<Option<Time>>,
    drops: u64,
    /// Observability capture ([`Telemetry::Off`] by default: one
    /// discriminant test per hook, no state, no allocation).
    telemetry: Telemetry,
}

impl SimCore {
    /// Transmit on a link: returns delivery `(peer, peer_port, arrive_at)`,
    /// or `None` when the packet is dropped.
    fn transmit(
        &mut self,
        now: Time,
        node: NodeId,
        port: PortId,
        bytes: u32,
    ) -> Option<(NodeId, PortId, Time)> {
        let pl = self.topo.ports_of(node)[port.index()];
        let spec = self.topo.link(pl.link).spec;
        let dir = usize::from(self.topo.link(pl.link).a.0 != node);
        let state = &mut self.links[pl.link];
        let d = &mut state.dirs[dir];
        let start = now.max(d.busy_until);
        let fin = start + spec.serialize_ns(bytes);
        d.busy_until = fin;
        d.bytes += bytes as u64;
        d.packets += 1;
        let dropped = state.drop_prob > 0.0 && state.rngs[dir].random::<f64>() < state.drop_prob;
        self.telemetry
            .record_tx(2 * pl.link + dir, start, bytes as u64, dropped);
        if dropped {
            self.links[pl.link].dirs[dir].drops += 1;
            self.drops += 1;
            return None;
        }
        Some((pl.peer, pl.peer_port, fin + spec.latency_ns))
    }

    fn route_port(&self, node: NodeId, pkt: &NetPacket) -> Option<PortId> {
        self.routing.next_port(node, pkt.dst, pkt.flow)
    }
}

/// The mutable simulation state a program context operates on: either the
/// whole core (serial execution) or one partition's slice of it (parallel
/// execution under [`NetSim::run_threads`]).
///
/// Both variants expose identical semantics, so host and switch programs
/// are oblivious to which driver is running them.
enum CoreMut<'a> {
    Whole(&'a mut SimCore),
    Lane {
        topo: &'a Topology,
        routing: &'a Routing,
        plan: &'a PartitionPlan,
        state: &'a mut LaneState,
    },
}

impl<'a> CoreMut<'a> {
    fn topo(&self) -> &Topology {
        match self {
            CoreMut::Whole(c) => &c.topo,
            CoreMut::Lane { topo, .. } => topo,
        }
    }

    fn route_port(&self, node: NodeId, pkt: &NetPacket) -> Option<PortId> {
        match self {
            CoreMut::Whole(c) => c.route_port(node, pkt),
            CoreMut::Lane { routing, .. } => routing.next_port(node, pkt.dst, pkt.flow),
        }
    }

    /// `(processing rate, busy-until slot)` of a switch's serial pipeline.
    fn proc_slot(&mut self, node: NodeId) -> (f64, &mut Time) {
        match self {
            CoreMut::Whole(c) => (c.proc_rate[node.index()], &mut c.proc_busy[node.index()]),
            CoreMut::Lane { plan, state, .. } => {
                let i = plan.node_local[node.index()] as usize;
                (state.proc_rate[i], &mut state.proc_busy[i])
            }
        }
    }

    fn compute_mut(&mut self, node: NodeId) -> &mut Option<Box<SwitchCompute>> {
        match self {
            CoreMut::Whole(c) => &mut c.compute[node.index()],
            CoreMut::Lane { plan, state, .. } => {
                &mut state.compute[plan.node_local[node.index()] as usize]
            }
        }
    }

    fn done_slot(&mut self, node: NodeId) -> &mut Option<Time> {
        match self {
            CoreMut::Whole(c) => &mut c.done_at[node.index()],
            CoreMut::Lane { plan, state, .. } => {
                &mut state.done_at[plan.node_local[node.index()] as usize]
            }
        }
    }

    /// `(telemetry state, node slot)` — the slot is the node's index in
    /// whichever sink this view writes to (global id on the whole core,
    /// partition-local on a lane).
    fn telemetry_slot(&mut self, node: NodeId) -> (&mut Telemetry, usize) {
        match self {
            CoreMut::Whole(c) => (&mut c.telemetry, node.index()),
            CoreMut::Lane { plan, state, .. } => {
                (&mut state.telemetry, plan.node_local[node.index()] as usize)
            }
        }
    }
}

macro_rules! ctx_common {
    ($name:ident) => {
        impl<'a> $name<'a> {
            /// Current simulation time (ns).
            pub fn now(&self) -> Time {
                self.now
            }

            /// The node this context belongs to.
            pub fn node(&self) -> NodeId {
                self.node
            }

            /// Send `pkt` towards `pkt.dst` via the routing tables at time
            /// `at` (≥ now).
            pub fn send(&mut self, pkt: NetPacket) {
                self.send_at(self.now, pkt);
            }

            /// Send `pkt` towards `pkt.dst` at a future time.
            pub fn send_at(&mut self, at: Time, pkt: NetPacket) {
                let port = self
                    .core
                    .route_port(self.node, &pkt)
                    .expect("no route to destination");
                self.send_port_at(at, port, pkt);
            }

            /// Send `pkt` out of an explicit port at a future time.
            pub fn send_port_at(&mut self, at: Time, port: PortId, pkt: NetPacket) {
                debug_assert!(at >= self.now);
                self.queue.schedule_at(
                    at,
                    NetEvent::Egress {
                        node: self.node,
                        port,
                        pkt,
                    },
                );
            }

            /// Record a flow-lifecycle telemetry event for this node
            /// (no-op unless [`crate::NetSim`] telemetry is enabled; see
            /// [`crate::telemetry::TraceKind`] for the `(a, b)` payload
            /// conventions per kind).
            pub fn trace(&mut self, kind: TraceKind, flow: u64, a: u64, b: u64) {
                let (node, now) = (self.node, self.now);
                let (telemetry, slot) = self.core.telemetry_slot(node);
                telemetry.event(slot, node.0, now, kind, flow, a, b);
            }
        }
    };
}

/// Execution context for host programs.
pub struct HostCtx<'a> {
    core: CoreMut<'a>,
    queue: &'a mut EventQueue<NetEvent>,
    node: NodeId,
    now: Time,
}
ctx_common!(HostCtx);

impl<'a> HostCtx<'a> {
    /// Request an `on_wake(tag)` callback after `delay` ns.
    ///
    /// # Panics
    /// Panics if the timer overflows [`Time`] (see
    /// [`EventQueue::schedule_in`]).
    pub fn wake_in(&mut self, delay: Time, tag: u64) {
        debug_assert_eq!(self.queue.now(), self.now);
        self.queue.schedule_in(
            delay,
            NetEvent::Wake {
                node: self.node,
                tag,
            },
        );
    }

    /// Record this host as finished (first call wins); the simulation keeps
    /// running until the event queue drains.
    pub fn mark_done(&mut self) {
        let now = self.now;
        let slot = self.core.done_slot(self.node);
        if slot.is_none() {
            *slot = Some(now);
        }
    }
}

/// Execution context for switch programs.
pub struct SwitchCtx<'a> {
    core: CoreMut<'a>,
    queue: &'a mut EventQueue<NetEvent>,
    node: NodeId,
    now: Time,
}
ctx_common!(SwitchCtx);

impl<'a> SwitchCtx<'a> {
    /// Push `bytes` through this switch's processing pipeline; returns the
    /// completion time at which derived packets should be emitted. The
    /// pipeline rate is the PsPIN-calibrated aggregation bandwidth.
    ///
    /// This is the serial [`SwitchModel::RateLimited`] path; programs that
    /// know the packet's reduction block should call
    /// [`processing_done_for`](Self::processing_done_for) instead, which
    /// also engages the multi-core [`SwitchModel::Hpu`] scheduler.
    ///
    /// # Panics
    /// Debug builds panic when this switch was installed with
    /// [`SwitchModel::Hpu`]: the serial path would silently model *zero*
    /// processing delay there (its rate is ∞), hiding a program that
    /// forgot to go block-aware.
    pub fn processing_done(&mut self, bytes: u32) -> Time {
        debug_assert!(
            self.core.compute_mut(self.node).is_none(),
            "switch {:?} runs SwitchModel::Hpu: use processing_done_for(block, bytes)",
            self.node
        );
        let (rate, busy) = self.core.proc_slot(self.node);
        let start = self.now.max(*busy);
        let fin = if rate.is_finite() {
            start + ((bytes as f64 / rate).ceil() as Time).max(1)
        } else {
            start
        };
        *busy = fin;
        fin
    }

    /// Execute the handler for a packet of `block` with `bytes` wire
    /// bytes; returns the completion time at which derived packets should
    /// be emitted.
    ///
    /// Under [`SwitchModel::Hpu`] the handler is scheduled
    /// hierarchical-FCFS onto `block`'s core subset (queueing when all
    /// its cores are busy); under `Ideal`/`RateLimited` this is exactly
    /// [`processing_done`](Self::processing_done) — bit-identical timing
    /// to the pre-compute-subsystem simulator.
    pub fn processing_done_for(&mut self, block: u64, bytes: u32) -> Time {
        match self.core.compute_mut(self.node) {
            Some(hpu) => hpu.execute(self.now, block, bytes),
            None => self.processing_done(bytes),
        }
    }

    /// Forward `pkt` along the routing tables (the default action for
    /// packets the program does not aggregate).
    pub fn forward(&mut self, pkt: NetPacket) {
        self.send(pkt);
    }

    /// Port of this switch facing a directly-connected neighbor.
    pub fn port_towards(&self, neighbor: NodeId) -> Option<PortId> {
        self.core.topo().port_towards(self.node, neighbor)
    }
}

/// Always-on per-link totals (both directions summed), indexed by link
/// id in [`NetReport::links`]. Cheap: folded from counters the rate
/// limiter maintains regardless of telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkTotals {
    /// Bytes that traversed the link (both directions).
    pub bytes: u64,
    /// Packets that traversed the link (both directions).
    pub packets: u64,
    /// Packets loss injection dropped on the link (both directions).
    pub drops: u64,
}

/// Final measurements of a network simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetReport {
    /// Time of the last processed event.
    pub makespan: Time,
    /// Per-host completion times (`mark_done`), indexed by node id.
    pub done_at: Vec<Option<Time>>,
    /// Completion time of the slowest finished host.
    pub last_done: Option<Time>,
    /// Total bytes that traversed links (each hop counted — the paper's
    /// Figure 15 "Traffic" metric).
    pub total_link_bytes: u64,
    /// Total packets that traversed links.
    pub total_link_packets: u64,
    /// Packets dropped by loss injection.
    pub drops: u64,
    /// Per-link byte/packet/drop totals, indexed by link id (lossless
    /// runs report zero drops on every link).
    pub links: Vec<LinkTotals>,
    /// Events processed.
    pub events: u64,
}

/// The network simulator.
pub struct NetSim {
    core: SimCore,
    host_progs: Vec<Option<Box<dyn HostProgram>>>,
    switch_progs: Vec<Option<Box<dyn SwitchProgram>>>,
}

impl NetSim {
    /// Build a simulator over `topo` with deterministic ECMP routing.
    /// `seed` drives every stochastic element (currently the per-link
    /// loss-injection streams), making runs bitwise-reproducible.
    ///
    /// Costs one pass over the nodes, ports and links; routing towards a
    /// destination is worked out the first time a packet needs it (see
    /// [`Routing`]).
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routing = topo.build_routing();
        let n = topo.node_count();
        let links = (0..topo.link_count())
            .map(|link| LinkState {
                dirs: [DirState::default(), DirState::default()],
                drop_prob: 0.0,
                rngs: [
                    rng_stream(seed, 2 * link as u64),
                    rng_stream(seed, 2 * link as u64 + 1),
                ],
            })
            .collect();
        Self {
            core: SimCore {
                topo,
                routing,
                links,
                proc_busy: vec![0; n],
                proc_rate: vec![f64::INFINITY; n],
                compute: (0..n).map(|_| None).collect(),
                done_at: vec![None; n],
                drops: 0,
                telemetry: Telemetry::Off,
            },
            host_progs: (0..n).map(|_| None).collect(),
            switch_progs: (0..n).map(|_| None).collect(),
        }
    }

    /// Access the topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Access the routing state (e.g. [`Routing::columns_built`]).
    pub fn routing(&self) -> &Routing {
        &self.core.routing
    }

    /// Consume the simulator and hand the topology back (lets callers
    /// reuse it for the next run without cloning).
    pub fn into_topology(self) -> Topology {
        self.core.topo
    }

    /// Install application logic on a host.
    pub fn install_host(&mut self, node: NodeId, prog: Box<dyn HostProgram>) {
        assert_eq!(self.core.topo.kind(node), NodeKind::Host, "not a host");
        self.host_progs[node.index()] = Some(prog);
    }

    /// Install an in-network program on a switch with a processing rate in
    /// bytes/ns (calibrated from the PsPIN simulator) — shorthand for
    /// [`install_switch_model`](Self::install_switch_model) with
    /// [`SwitchModel::RateLimited`].
    pub fn install_switch(
        &mut self,
        node: NodeId,
        prog: Box<dyn SwitchProgram>,
        proc_rate_bytes_per_ns: f64,
    ) {
        self.install_switch_model(node, prog, SwitchModel::RateLimited(proc_rate_bytes_per_ns));
    }

    /// Install an in-network program on a switch under a typed compute
    /// model: `Ideal` (no processing delay), `RateLimited` (serial
    /// pipeline, the historical behavior) or `Hpu` (event-driven
    /// multi-core handler scheduling; see [`crate::compute`]).
    ///
    /// # Panics
    /// Panics if `node` is not a switch, or the `Hpu` parameters fail
    /// [`crate::compute::HpuParams::validate`].
    pub fn install_switch_model(
        &mut self,
        node: NodeId,
        prog: Box<dyn SwitchProgram>,
        model: SwitchModel,
    ) {
        assert_eq!(self.core.topo.kind(node), NodeKind::Switch, "not a switch");
        self.switch_progs[node.index()] = Some(prog);
        match model {
            SwitchModel::Ideal => {
                self.core.proc_rate[node.index()] = f64::INFINITY;
                self.core.compute[node.index()] = None;
            }
            SwitchModel::RateLimited(rate) => {
                self.core.proc_rate[node.index()] = rate;
                self.core.compute[node.index()] = None;
            }
            SwitchModel::Hpu(params) => {
                self.core.proc_rate[node.index()] = f64::INFINITY;
                self.core.compute[node.index()] = Some(Box::new(SwitchCompute::new(params)));
            }
        }
    }

    /// Compute-model counters of a switch installed with
    /// [`SwitchModel::Hpu`] (`None` for `Ideal`/`RateLimited` switches).
    pub fn compute_stats(&self, node: NodeId) -> Option<ComputeStats> {
        self.core.compute[node.index()].as_ref().map(|c| *c.stats())
    }

    /// Per-subset peak FIFO depths of a switch installed with
    /// [`SwitchModel::Hpu`] (`None` for `Ideal`/`RateLimited` switches).
    /// Indexed by scheduling subset; the max equals
    /// [`ComputeStats::queue_peak`].
    pub fn compute_subset_peaks(&self, node: NodeId) -> Option<Vec<usize>> {
        self.core.compute[node.index()]
            .as_ref()
            .map(|c| c.subset_queue_peaks().to_vec())
    }

    /// Compute-model counters of *every* switch installed with
    /// [`SwitchModel::Hpu`], ascending by node id — so callers stop
    /// probing node ids blindly through
    /// [`compute_stats`](Self::compute_stats).
    pub fn all_compute_stats(&self) -> Vec<(NodeId, ComputeStats)> {
        self.core
            .compute
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (NodeId(i as u32), *c.stats())))
            .collect()
    }

    /// Enable observability capture for subsequent runs (see
    /// [`crate::telemetry`]); extract results with
    /// [`take_telemetry`](Self::take_telemetry). Capture never perturbs
    /// simulated timestamps — with or without it, makespans are
    /// bit-identical.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let sink = crate::telemetry::TelemetrySink::new(
            cfg,
            self.core.topo.node_count(),
            2 * self.core.topo.link_count(),
        );
        self.core.telemetry = Telemetry::On(Box::new(sink));
    }

    /// Whether telemetry capture is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.core.telemetry.is_on()
    }

    /// Extract everything telemetry captured (disabling further capture);
    /// `None` unless [`enable_telemetry`](Self::enable_telemetry) was
    /// called. Drains HPU occupancy timelines from the installed compute
    /// models, so call before [`take_switch`](Self::take_switch)-style
    /// teardown if both are needed.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let telemetry = std::mem::take(&mut self.core.telemetry);
        let (cfg, dirs, events) = telemetry.into_parts()?;
        let compute: Vec<ComputeTimeline> = self
            .core
            .compute
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| {
                let hpu = c.as_mut()?;
                let samples = hpu.take_timeline()?;
                Some(ComputeTimeline {
                    node: i as u32,
                    subsets: hpu.subsets(),
                    samples,
                })
            })
            .collect();
        Some(TelemetryReport::assemble(
            &self.core.topo,
            cfg,
            dirs,
            events,
            compute,
        ))
    }

    /// Inject loss on a link (both directions).
    pub fn set_link_drop_prob(&mut self, link: usize, p: f64) {
        self.core.links[link].drop_prob = p;
    }

    /// Inject loss on every link of the fabric — the common whole-fabric
    /// configuration shared by the session executors and the traffic
    /// engine. A no-op when `p == 0.0` so lossless callers can pass the
    /// tuning value through unconditionally.
    pub fn set_uniform_drop_prob(&mut self, p: f64) {
        if p > 0.0 {
            for link in &mut self.core.links {
                link.drop_prob = p;
            }
        }
    }

    /// Take a switch program back out (to inspect its final state).
    pub fn take_switch(&mut self, node: NodeId) -> Option<Box<dyn SwitchProgram>> {
        self.switch_progs[node.index()].take()
    }

    /// Take a host program back out (to inspect its final state).
    pub fn take_host(&mut self, node: NodeId) -> Option<Box<dyn HostProgram>> {
        self.host_progs[node.index()].take()
    }

    /// With telemetry on, arm HPU occupancy timelines on every installed
    /// compute model (idempotent — resumed runs keep their samples).
    fn arm_compute_timelines(&mut self) {
        if !self.core.telemetry.is_on() {
            return;
        }
        for hpu in self.core.compute.iter_mut().flatten() {
            hpu.enable_timeline();
        }
    }

    /// Run to quiescence (or `deadline`); returns the report.
    pub fn run(&mut self, deadline: Option<Time>) -> NetReport {
        self.arm_compute_timelines();
        let mut queue = EventQueue::new();
        // Start hosts.
        for node in self.core.topo.hosts() {
            if let Some(mut prog) = self.host_progs[node.index()].take() {
                let mut ctx = HostCtx {
                    core: CoreMut::Whole(&mut self.core),
                    queue: &mut queue,
                    node,
                    now: 0,
                };
                prog.on_start(&mut ctx);
                self.host_progs[node.index()] = Some(prog);
            }
        }
        // Batched draining: every event in the simulator uses the default
        // priority, so whole equal-timestamp buckets (multicast fan-outs,
        // forwarding chains) are delivered with one queue operation while
        // preserving the exact single-pop order (see `flare_des::queue`).
        let makespan = match deadline {
            Some(d) => flare_des::run_batched_until(self, &mut queue, d),
            None => flare_des::run_batched(self, &mut queue),
        };
        self.assemble_report(makespan, queue.processed())
    }

    /// Run to quiescence (or `deadline`) with the conservative parallel
    /// driver on `threads` worker threads; returns the report.
    ///
    /// The topology is partitioned by [`PartitionPlan::build`] (every
    /// host-bearing switch plus its hosts form one shard, everything else
    /// is a singleton) and executed in lookahead windows of
    /// [`Topology::min_link_latency`]` + 1` ns. The schedule is a pure
    /// function of the topology and programs — independent of `threads` —
    /// and is validated differentially against [`NetSim::run`], which
    /// stays the bitwise reference.
    ///
    /// Topologies that collapse to a single partition (e.g. a star) fall
    /// back to the serial driver.
    pub fn run_threads(&mut self, deadline: Option<Time>, threads: usize) -> NetReport {
        let plan = PartitionPlan::build(&self.core.topo);
        if plan.parts <= 1 {
            return self.run(deadline);
        }
        self.arm_compute_timelines();
        let threads = threads.max(1);
        // Split the per-run mutable state and the installed programs into
        // per-partition lanes: workers never alias a node, link direction,
        // or program.
        let lane_states = LaneState::split(&plan, &mut self.core);
        let mut progs =
            PartitionedPrograms::split(&plan, &mut self.host_progs, &mut self.switch_progs);
        let topo = &self.core.topo;
        let routing = &self.core.routing;
        let mut parts: Vec<Partition<NetLane<'_>>> = lane_states
            .into_iter()
            .enumerate()
            .map(|(p, state)| {
                let (hosts, switches) = progs.take_part(p);
                Partition::new(
                    NetLane {
                        topo,
                        routing,
                        plan: &plan,
                        state,
                        hosts,
                        switches,
                    },
                    EventQueue::new(),
                    plan.parts,
                )
            })
            .collect();
        // Start hosts exactly like the serial driver: ascending node id,
        // now = 0. Partitions do not interact at t = 0, so per-partition
        // id order projects the serial start order.
        for part in parts.iter_mut() {
            let queue = &mut part.queue;
            part.sim.start_hosts(queue);
        }
        let makespan = run_parallel_until(
            &mut parts,
            plan.lookahead,
            threads,
            deadline.unwrap_or(Time::MAX),
        );
        let events: u64 = parts.iter().map(|p| p.queue.processed()).sum();
        // Tear down: move every lane's state and programs back into the
        // whole-core layout before any reference to `self.core` re-forms.
        let collected: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let NetLane {
                    state,
                    hosts,
                    switches,
                    ..
                } = part.sim;
                (state, hosts, switches)
            })
            .collect();
        let mut lanes = Vec::with_capacity(plan.parts);
        for (p, (state, hosts, switches)) in collected.into_iter().enumerate() {
            for ((&m, h), s) in plan.nodes_of[p].iter().zip(hosts).zip(switches) {
                self.host_progs[m.index()] = h;
                self.switch_progs[m.index()] = s;
            }
            lanes.push(state);
        }
        LaneState::merge(&plan, lanes, &mut self.core);
        self.assemble_report(makespan, events)
    }

    fn assemble_report(&self, makespan: Time, events: u64) -> NetReport {
        let links: Vec<LinkTotals> = self
            .core
            .links
            .iter()
            .map(|l| LinkTotals {
                bytes: l.dirs[0].bytes + l.dirs[1].bytes,
                packets: l.dirs[0].packets + l.dirs[1].packets,
                drops: l.dirs[0].drops + l.dirs[1].drops,
            })
            .collect();
        NetReport {
            makespan,
            done_at: self.core.done_at.clone(),
            last_done: self.core.done_at.iter().flatten().max().copied(),
            total_link_bytes: links.iter().map(|l| l.bytes).sum(),
            total_link_packets: links.iter().map(|l| l.packets).sum(),
            drops: self.core.drops,
            links,
            events,
        }
    }

    /// Per-link transported bytes `(link id, bytes)`, for hotspot analysis.
    pub fn link_bytes(&self) -> Vec<(usize, u64)> {
        self.core
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.dirs[0].bytes + l.dirs[1].bytes))
            .collect()
    }

    /// Per-link utilization over `[0, horizon]`: transported bytes divided
    /// by the link's capacity×time, per direction, reported as the busier
    /// direction's fraction. Identifies reduction-tree hotspots (e.g. the
    /// root's uplinks).
    pub fn link_utilization(&self, horizon: Time) -> Vec<(usize, f64)> {
        let horizon = horizon.max(1);
        self.core
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let cap = self.core.topo.link(i).spec.bytes_per_ns() * horizon as f64;
                let busiest = l.dirs[0].bytes.max(l.dirs[1].bytes) as f64;
                (i, busiest / cap)
            })
            .collect()
    }

    /// The most-utilized link and its utilization over `[0, horizon]`.
    pub fn hottest_link(&self, horizon: Time) -> Option<(usize, f64)> {
        self.link_utilization(horizon)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    }
}

impl Simulator for NetSim {
    type Event = NetEvent;

    fn handle(&mut self, t: Time, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        match event {
            NetEvent::Egress { node, port, pkt } => {
                if let Some((peer, peer_port, arrive)) =
                    self.core.transmit(t, node, port, pkt.wire_bytes)
                {
                    queue.schedule_at(
                        arrive,
                        NetEvent::Deliver {
                            node: peer,
                            in_port: peer_port,
                            pkt,
                        },
                    );
                }
            }
            NetEvent::Deliver { node, in_port, pkt } => match self.core.topo.kind(node) {
                NodeKind::Host => {
                    if let Some(mut prog) = self.host_progs[node.index()].take() {
                        let mut ctx = HostCtx {
                            core: CoreMut::Whole(&mut self.core),
                            queue,
                            node,
                            now: t,
                        };
                        prog.on_packet(&mut ctx, pkt);
                        self.host_progs[node.index()] = Some(prog);
                    }
                }
                NodeKind::Switch => {
                    if let Some(mut prog) = self.switch_progs[node.index()].take() {
                        if prog.matches(&pkt) {
                            let mut ctx = SwitchCtx {
                                core: CoreMut::Whole(&mut self.core),
                                queue,
                                node,
                                now: t,
                            };
                            // Move the packet in (no payload refcount bump)
                            // so consuming programs can recycle the buffer.
                            prog.on_packet(&mut ctx, in_port, pkt);
                            self.switch_progs[node.index()] = Some(prog);
                        } else {
                            self.switch_progs[node.index()] = Some(prog);
                            if let Some(port) = self.core.route_port(node, &pkt) {
                                queue.schedule_at(t, NetEvent::Egress { node, port, pkt });
                            }
                        }
                    } else {
                        // Default forwarding along the routing tables.
                        if let Some(port) = self.core.route_port(node, &pkt) {
                            queue.schedule_at(t, NetEvent::Egress { node, port, pkt });
                        }
                    }
                }
            },
            NetEvent::Wake { node, tag } => {
                if let Some(mut prog) = self.host_progs[node.index()].take() {
                    let mut ctx = HostCtx {
                        core: CoreMut::Whole(&mut self.core),
                        queue,
                        node,
                        now: t,
                    };
                    prog.on_wake(&mut ctx, tag);
                    self.host_progs[node.index()] = Some(prog);
                }
            }
        }
    }
}

/// One partition's slice of the per-run mutable state, in dense local
/// indexing (node slots in [`PartitionPlan::nodes_of`] order, direction
/// slots in [`PartitionPlan::dir_local`] order). Splitting *moves* the
/// state out of [`SimCore`] — total memory is unchanged and nothing is
/// shared between lanes.
struct LaneState {
    part: u32,
    proc_busy: Vec<Time>,
    proc_rate: Vec<f64>,
    compute: Vec<Option<Box<SwitchCompute>>>,
    done_at: Vec<Option<Time>>,
    dirs: Vec<DirState>,
    drop_prob: Vec<f64>,
    rngs: Vec<StdRng>,
    drops: u64,
    /// This lane's telemetry slice (mirrors the core's on/off state; see
    /// [`Telemetry::split`]).
    telemetry: Telemetry,
}

impl LaneState {
    /// Move the per-run state out of `core` into one lane per partition.
    fn split(plan: &PartitionPlan, core: &mut SimCore) -> Vec<LaneState> {
        let mut telemetry_lanes = core.telemetry.split(plan).into_iter();
        let mut lanes: Vec<LaneState> = (0..plan.parts)
            .map(|p| {
                let k = plan.nodes_of[p].len();
                let mut lane = LaneState {
                    part: p as u32,
                    proc_busy: Vec::with_capacity(k),
                    proc_rate: Vec::with_capacity(k),
                    compute: Vec::with_capacity(k),
                    done_at: Vec::with_capacity(k),
                    dirs: Vec::new(),
                    drop_prob: Vec::new(),
                    rngs: Vec::new(),
                    drops: 0,
                    telemetry: telemetry_lanes.next().expect("one telemetry lane per part"),
                };
                for &m in &plan.nodes_of[p] {
                    let i = m.index();
                    lane.proc_busy.push(core.proc_busy[i]);
                    lane.proc_rate.push(core.proc_rate[i]);
                    lane.compute.push(core.compute[i].take());
                    lane.done_at.push(core.done_at[i]);
                }
                lane
            })
            .collect();
        for (l, link) in std::mem::take(&mut core.links).into_iter().enumerate() {
            let [d0, d1] = link.dirs;
            let [r0, r1] = link.rngs;
            for (d, (dir, rng)) in [(d0, r0), (d1, r1)].into_iter().enumerate() {
                let lane = &mut lanes[plan.dir_owner[l][d] as usize];
                debug_assert_eq!(lane.dirs.len(), plan.dir_local[l][d] as usize);
                lane.dirs.push(dir);
                lane.rngs.push(rng);
                lane.drop_prob.push(link.drop_prob);
            }
        }
        lanes
    }

    /// Move every lane's state back into the whole-core layout.
    fn merge(plan: &PartitionPlan, mut lanes: Vec<LaneState>, core: &mut SimCore) {
        core.telemetry.merge(
            plan,
            lanes
                .iter_mut()
                .map(|lane| std::mem::take(&mut lane.telemetry))
                .collect(),
        );
        for (p, lane) in lanes.iter_mut().enumerate() {
            for (li, &m) in plan.nodes_of[p].iter().enumerate() {
                let i = m.index();
                core.proc_busy[i] = lane.proc_busy[li];
                core.proc_rate[i] = lane.proc_rate[li];
                core.compute[i] = lane.compute[li].take();
                core.done_at[i] = lane.done_at[li];
            }
            core.drops += lane.drops;
        }
        let mut links = Vec::with_capacity(plan.dir_owner.len());
        for l in 0..plan.dir_owner.len() {
            let mut take = |d: usize| {
                let lane = &mut lanes[plan.dir_owner[l][d] as usize];
                let li = plan.dir_local[l][d] as usize;
                (
                    std::mem::take(&mut lane.dirs[li]),
                    std::mem::replace(&mut lane.rngs[li], rng_stream(0, 0)),
                    lane.drop_prob[li],
                )
            };
            let (dir0, rng0, drop_prob) = take(0);
            let (dir1, rng1, _) = take(1);
            links.push(LinkState {
                dirs: [dir0, dir1],
                drop_prob,
                rngs: [rng0, rng1],
            });
        }
        core.links = links;
    }

    /// Lane-local [`SimCore::transmit`]: identical link math and RNG
    /// stream, operating on this partition's direction slots only (the
    /// transmitting side owns the direction, so this never races).
    fn transmit(
        &mut self,
        topo: &Topology,
        plan: &PartitionPlan,
        now: Time,
        node: NodeId,
        port: PortId,
        bytes: u32,
    ) -> Option<(NodeId, PortId, Time)> {
        let pl = topo.ports_of(node)[port.index()];
        let spec = topo.link(pl.link).spec;
        let dir = usize::from(topo.link(pl.link).a.0 != node);
        debug_assert_eq!(plan.dir_owner[pl.link][dir], self.part);
        let li = plan.dir_local[pl.link][dir] as usize;
        let d = &mut self.dirs[li];
        let start = now.max(d.busy_until);
        let fin = start + spec.serialize_ns(bytes);
        d.busy_until = fin;
        d.bytes += bytes as u64;
        d.packets += 1;
        let dropped =
            self.drop_prob[li] > 0.0 && self.rngs[li].random::<f64>() < self.drop_prob[li];
        self.telemetry.record_tx(li, start, bytes as u64, dropped);
        if dropped {
            self.dirs[li].drops += 1;
            self.drops += 1;
            return None;
        }
        Some((pl.peer, pl.peer_port, fin + spec.latency_ns))
    }
}

/// Per-partition views of the installed host and switch programs, so the
/// parallel driver can hand each worker exclusive ownership of its
/// partition's programs (local-index order, like [`LaneState`]).
struct PartitionedPrograms {
    hosts: Vec<Vec<Option<Box<dyn HostProgram>>>>,
    switches: Vec<Vec<Option<Box<dyn SwitchProgram>>>>,
}

impl PartitionedPrograms {
    fn split(
        plan: &PartitionPlan,
        host_progs: &mut [Option<Box<dyn HostProgram>>],
        switch_progs: &mut [Option<Box<dyn SwitchProgram>>],
    ) -> Self {
        let mut hosts = Vec::with_capacity(plan.parts);
        let mut switches = Vec::with_capacity(plan.parts);
        for members in &plan.nodes_of {
            hosts.push(
                members
                    .iter()
                    .map(|m| host_progs[m.index()].take())
                    .collect(),
            );
            switches.push(
                members
                    .iter()
                    .map(|m| switch_progs[m.index()].take())
                    .collect(),
            );
        }
        Self { hosts, switches }
    }

    #[allow(clippy::type_complexity)]
    fn take_part(
        &mut self,
        p: usize,
    ) -> (
        Vec<Option<Box<dyn HostProgram>>>,
        Vec<Option<Box<dyn SwitchProgram>>>,
    ) {
        (
            std::mem::take(&mut self.hosts[p]),
            std::mem::take(&mut self.switches[p]),
        )
    }
}

/// One partition of the network simulator: shared read-only topology and
/// routing, plus exclusively-owned local state and programs. Implements
/// [`PartitionSim`] so `flare-des`'s windowed driver can execute it.
struct NetLane<'a> {
    topo: &'a Topology,
    routing: &'a Routing,
    plan: &'a PartitionPlan,
    state: LaneState,
    hosts: Vec<Option<Box<dyn HostProgram>>>,
    switches: Vec<Option<Box<dyn SwitchProgram>>>,
}

impl NetLane<'_> {
    fn local(&self, node: NodeId) -> usize {
        debug_assert_eq!(self.plan.part_of[node.index()], self.state.part);
        self.plan.node_local[node.index()] as usize
    }

    fn core_mut(&mut self) -> CoreMut<'_> {
        CoreMut::Lane {
            topo: self.topo,
            routing: self.routing,
            plan: self.plan,
            state: &mut self.state,
        }
    }

    /// Call `on_start` on this partition's hosts in ascending node id.
    fn start_hosts(&mut self, queue: &mut EventQueue<NetEvent>) {
        for li in 0..self.hosts.len() {
            if let Some(mut prog) = self.hosts[li].take() {
                let node = self.plan.nodes_of[self.state.part as usize][li];
                let mut ctx = HostCtx {
                    core: self.core_mut(),
                    queue,
                    node,
                    now: 0,
                };
                prog.on_start(&mut ctx);
                self.hosts[li] = Some(prog);
            }
        }
    }
}

impl PartitionSim for NetLane<'_> {
    type Event = NetEvent;

    // The event dispatch mirrors `<NetSim as Simulator>::handle` exactly;
    // the only semantic addition is routing a `Deliver` whose receiver
    // lives in another partition through the outbox. The two copies are
    // held equivalent by the serial-vs-parallel differential tests.
    fn handle(
        &mut self,
        t: Time,
        event: NetEvent,
        queue: &mut EventQueue<NetEvent>,
        outbox: &mut Outbox<NetEvent>,
    ) {
        match event {
            NetEvent::Egress { node, port, pkt } => {
                if let Some((peer, peer_port, arrive)) =
                    self.state
                        .transmit(self.topo, self.plan, t, node, port, pkt.wire_bytes)
                {
                    let dst = self.plan.part_of[peer.index()];
                    let ev = NetEvent::Deliver {
                        node: peer,
                        in_port: peer_port,
                        pkt,
                    };
                    if dst == self.state.part {
                        queue.schedule_at(arrive, ev);
                    } else {
                        outbox.send(dst, arrive, ev);
                    }
                }
            }
            NetEvent::Deliver { node, in_port, pkt } => match self.topo.kind(node) {
                NodeKind::Host => {
                    let li = self.local(node);
                    if let Some(mut prog) = self.hosts[li].take() {
                        let mut ctx = HostCtx {
                            core: self.core_mut(),
                            queue,
                            node,
                            now: t,
                        };
                        prog.on_packet(&mut ctx, pkt);
                        self.hosts[li] = Some(prog);
                    }
                }
                NodeKind::Switch => {
                    let li = self.local(node);
                    if let Some(mut prog) = self.switches[li].take() {
                        if prog.matches(&pkt) {
                            let mut ctx = SwitchCtx {
                                core: self.core_mut(),
                                queue,
                                node,
                                now: t,
                            };
                            prog.on_packet(&mut ctx, in_port, pkt);
                            self.switches[li] = Some(prog);
                        } else {
                            self.switches[li] = Some(prog);
                            if let Some(port) = self.routing.next_port(node, pkt.dst, pkt.flow) {
                                queue.schedule_at(t, NetEvent::Egress { node, port, pkt });
                            }
                        }
                    } else if let Some(port) = self.routing.next_port(node, pkt.dst, pkt.flow) {
                        queue.schedule_at(t, NetEvent::Egress { node, port, pkt });
                    }
                }
            },
            NetEvent::Wake { node, tag } => {
                let li = self.local(node);
                if let Some(mut prog) = self.hosts[li].take() {
                    let mut ctx = HostCtx {
                        core: self.core_mut(),
                        queue,
                        node,
                        now: t,
                    };
                    prog.on_wake(&mut ctx, tag);
                    self.hosts[li] = Some(prog);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use bytes::Bytes;

    /// Sends `count` packets to a peer at start, records receptions.
    struct Sender {
        peer: NodeId,
        count: u64,
        bytes: u32,
    }
    impl HostProgram for Sender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let me = ctx.node();
            for i in 0..self.count {
                ctx.send(NetPacket::new(
                    me,
                    self.peer,
                    1,
                    i,
                    0,
                    0,
                    0,
                    Bytes::from(vec![0u8; self.bytes as usize]),
                ));
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: NetPacket) {}
    }

    /// Records arrival times/blocks; marks done after `expect` packets.
    #[derive(Default)]
    struct Receiver {
        got: Vec<(Time, u64)>,
        expect: usize,
    }
    impl HostProgram for Receiver {
        fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
            self.got.push((ctx.now(), pkt.block));
            if self.got.len() == self.expect {
                ctx.mark_done();
            }
        }
    }

    fn spec() -> LinkSpec {
        LinkSpec {
            gbps: 100.0,
            latency_ns: 50,
        }
    }

    #[test]
    fn event_layout_stays_lean() {
        // NetEvent is the unit the ladder queue stores and copies; with
        // the narrowed NodeId/PortId an Egress/Deliver variant packs next
        // to its 40-byte packet instead of spilling past it (was 64 B
        // with word-sized ids).
        assert_eq!(std::mem::size_of::<NetEvent>(), 48);
    }

    #[test]
    fn single_hop_timing_is_serialization_plus_latency() {
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 1,
                bytes: 1250,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 1,
                ..Default::default()
            }),
        );
        let report = sim.run(None);
        // Two hops (host→switch→host): 2×(100 ns ser + 50 ns latency).
        let rx = sim.take_host(hosts[1]).unwrap();
        let _ = rx;
        assert_eq!(report.last_done, Some(300));
        // Traffic: 1250 bytes over 2 links.
        assert_eq!(report.total_link_bytes, 2500);
        assert_eq!(report.total_link_packets, 2);
    }

    #[test]
    fn link_serialization_is_fifo_and_paced() {
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 10,
                bytes: 1250,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 10,
                ..Default::default()
            }),
        );
        let report = sim.run(None);
        // 10 packets paced at 100 ns each on the first link; last leaves the
        // host link at 1000, arrives 1000+50+100+50.
        assert_eq!(report.last_done, Some(1200));
    }

    #[test]
    fn fat_tree_cross_leaf_traffic_counts_four_hops() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
        let mut sim = NetSim::new(topo, 1);
        let src = ft.hosts[0];
        let dst = ft.hosts[3]; // other leaf
        sim.install_host(
            src,
            Box::new(Sender {
                peer: dst,
                count: 1,
                bytes: 1000,
            }),
        );
        sim.install_host(
            dst,
            Box::new(Receiver {
                expect: 1,
                ..Default::default()
            }),
        );
        let report = sim.run(None);
        // host→leaf→spine→leaf→host = 4 link traversals.
        assert_eq!(report.total_link_bytes, 4000);
        assert!(report.last_done.is_some());
    }

    /// A switch program that consumes `n` contribution packets per block
    /// and emits one aggregate to a collector.
    struct CountingAggregator {
        expect: u16,
        seen: std::collections::HashMap<u64, u16>,
        collector: NodeId,
    }
    impl SwitchProgram for CountingAggregator {
        fn matches(&self, pkt: &NetPacket) -> bool {
            pkt.flow == 7
        }
        fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in: PortId, pkt: NetPacket) {
            let fin = ctx.processing_done(pkt.wire_bytes);
            let c = self.seen.entry(pkt.block).or_insert(0);
            *c += 1;
            if *c == self.expect {
                let out = NetPacket::new(
                    ctx.node(),
                    self.collector,
                    7,
                    pkt.block,
                    0,
                    1,
                    0,
                    Bytes::from(vec![0u8; 100]),
                );
                ctx.send_at(fin, out);
            }
        }
    }

    #[test]
    fn switch_program_aggregates_and_emits() {
        let (topo, sw, hosts) = Topology::star(3, spec());
        let mut sim = NetSim::new(topo, 1);
        for &h in &hosts[..2] {
            sim.install_host(
                h,
                Box::new(Sender {
                    peer: hosts[2],
                    count: 2,
                    bytes: 100,
                }),
            );
        }
        sim.install_host(
            hosts[2],
            Box::new(Receiver {
                expect: 2,
                ..Default::default()
            }),
        );
        // Two senders use flow 1 in Sender; our aggregator matches flow 7 —
        // so first check pass-through works, then install matching flow.
        let mut agg = CountingAggregator {
            expect: 2,
            seen: Default::default(),
            collector: hosts[2],
        };
        // Senders send flow 1; rewrite matches() target by using flow 1.
        agg.seen.clear();
        struct Match1(CountingAggregator);
        impl SwitchProgram for Match1 {
            fn matches(&self, pkt: &NetPacket) -> bool {
                pkt.flow == 1
            }
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, p: PortId, pkt: NetPacket) {
                self.0.on_packet(ctx, p, pkt)
            }
        }
        sim.install_switch(sw, Box::new(Match1(agg)), 1.0);
        let report = sim.run(None);
        // 2 blocks × (2 contributions in + 1 aggregate out): in-bytes
        // 4×100, out 2×100 ⇒ 600 total link bytes.
        assert_eq!(report.total_link_bytes, 600);
        assert!(report.last_done.is_some());
    }

    #[test]
    fn processing_rate_paces_switch_emissions() {
        let (topo, sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        struct Echo {
            to: NodeId,
        }
        impl SwitchProgram for Echo {
            fn matches(&self, _: &NetPacket) -> bool {
                true
            }
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in: PortId, mut pkt: NetPacket) {
                let fin = ctx.processing_done(pkt.wire_bytes);
                pkt.dst = self.to;
                ctx.send_at(fin, pkt);
            }
        }
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 4,
                bytes: 1000,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 4,
                ..Default::default()
            }),
        );
        // 0.5 bytes/ns processing: 2000 ns per 1000-byte packet dominates
        // the 80 ns link serialization.
        sim.install_switch(sw, Box::new(Echo { to: hosts[1] }), 0.5);
        let report = sim.run(None);
        // Arrivals at switch at ~130, 210, ...; processing of 4 packets
        // serializes: done ≈ 130 + 4×2000; plus egress 80 + 50.
        let done = report.last_done.unwrap();
        assert!(done > 8000, "processing must pace emissions: {done}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "use processing_done_for")]
    fn serial_processing_done_is_rejected_on_hpu_switches() {
        // A block-unaware program on an Hpu switch would silently get
        // zero processing delay; debug builds must flag the mismatch.
        struct Legacy;
        impl SwitchProgram for Legacy {
            fn matches(&self, _: &NetPacket) -> bool {
                true
            }
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in: PortId, pkt: NetPacket) {
                let _ = ctx.processing_done(pkt.wire_bytes);
            }
        }
        let (topo, sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 1,
                bytes: 100,
            }),
        );
        sim.install_switch_model(
            sw,
            Box::new(Legacy),
            SwitchModel::Hpu(crate::compute::HpuParams::figure5()),
        );
        sim.run(None);
    }

    /// Cross-leaf all-to-one traffic on a fat tree, once serial and once
    /// parallel: every report field must match bitwise, at every thread
    /// count.
    #[test]
    fn parallel_driver_matches_serial_on_fat_tree() {
        let build = |drop: bool| {
            let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, spec());
            let mut sim = NetSim::new(topo, 11);
            // Hosts in leaves 1..4 all send to host 0 (leaf 0), crossing
            // the spine layer; host 0's own leaf-mates hammer it too.
            let dst = ft.hosts[0];
            for (rank, &h) in ft.hosts.iter().enumerate().skip(1) {
                sim.install_host(
                    h,
                    Box::new(Sender {
                        peer: dst,
                        count: 5 + (rank as u64 % 3),
                        bytes: 400 + 100 * (rank as u32 % 2),
                    }),
                );
            }
            sim.install_host(
                dst,
                Box::new(Receiver {
                    expect: 10,
                    ..Default::default()
                }),
            );
            if drop {
                for l in 0..sim.topology().link_count() {
                    sim.set_link_drop_prob(l, 0.1);
                }
            }
            sim
        };
        for drop in [false, true] {
            let want = build(drop).run(None);
            for threads in [1, 2, 8] {
                let got = build(drop).run_threads(None, threads);
                assert_eq!(got.makespan, want.makespan, "makespan t={threads}");
                assert_eq!(got.total_link_bytes, want.total_link_bytes);
                assert_eq!(got.total_link_packets, want.total_link_packets);
                assert_eq!(got.drops, want.drops, "drops t={threads} lossy={drop}");
                assert_eq!(got.events, want.events, "events t={threads}");
                assert_eq!(got.done_at, want.done_at);
            }
        }
    }

    /// `run_threads` on a star (one partition) must take the serial path
    /// and produce the serial result.
    #[test]
    fn run_threads_falls_back_to_serial_on_star() {
        let build = || {
            let (topo, _sw, hosts) = Topology::star(4, spec());
            let mut sim = NetSim::new(topo, 3);
            sim.install_host(
                hosts[0],
                Box::new(Sender {
                    peer: hosts[1],
                    count: 8,
                    bytes: 500,
                }),
            );
            sim.install_host(
                hosts[1],
                Box::new(Receiver {
                    expect: 8,
                    ..Default::default()
                }),
            );
            sim
        };
        let want = build().run(None);
        let got = build().run_threads(None, 4);
        assert_eq!(got.makespan, want.makespan);
        assert_eq!(got.events, want.events);
        assert_eq!(got.done_at, want.done_at);
    }

    /// Deadline semantics must match the serial driver: events at exactly
    /// the deadline run, later ones stay queued.
    #[test]
    fn run_threads_honors_deadline_like_serial() {
        let build = || {
            let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
            let mut sim = NetSim::new(topo, 5);
            sim.install_host(
                ft.hosts[0],
                Box::new(Sender {
                    peer: ft.hosts[3],
                    count: 50,
                    bytes: 1250,
                }),
            );
            sim.install_host(
                ft.hosts[3],
                Box::new(Receiver {
                    expect: 50,
                    ..Default::default()
                }),
            );
            sim
        };
        for deadline in [0, 299, 300, 301, 2000] {
            let want = build().run(Some(deadline));
            let got = build().run_threads(Some(deadline), 3);
            assert_eq!(got.makespan, want.makespan, "deadline {deadline}");
            assert_eq!(got.events, want.events, "deadline {deadline}");
        }
    }

    /// Satellite regression: lossless runs must report zero drops on
    /// every link, and the per-link totals must fold to the grand totals.
    #[test]
    fn lossless_runs_report_zero_per_link_drops() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            ft.hosts[0],
            Box::new(Sender {
                peer: ft.hosts[3],
                count: 20,
                bytes: 1000,
            }),
        );
        sim.install_host(
            ft.hosts[3],
            Box::new(Receiver {
                expect: 20,
                ..Default::default()
            }),
        );
        let report = sim.run(None);
        assert_eq!(report.links.len(), sim.topology().link_count());
        assert!(report.links.iter().all(|l| l.drops == 0));
        assert_eq!(report.drops, 0);
        assert_eq!(
            report.links.iter().map(|l| l.bytes).sum::<u64>(),
            report.total_link_bytes
        );
        assert_eq!(
            report.links.iter().map(|l| l.packets).sum::<u64>(),
            report.total_link_packets
        );
    }

    /// Lossy runs attribute every drop to the link it happened on.
    #[test]
    fn per_link_drop_totals_localize_the_loss() {
        let (topo, _sw, hosts) = Topology::star(3, spec());
        let mut sim = NetSim::new(topo, 42);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 500,
                bytes: 100,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 1,
                ..Default::default()
            }),
        );
        sim.set_link_drop_prob(0, 0.3); // only host 0's uplink drops
        let report = sim.run(None);
        assert!(report.links[0].drops > 0);
        assert!(report.links.iter().skip(1).all(|l| l.drops == 0));
        assert_eq!(
            report.links.iter().map(|l| l.drops).sum::<u64>(),
            report.drops
        );
    }

    /// Telemetry observes the schedule without participating in it: the
    /// same simulation with capture on must report identical timings.
    #[test]
    fn telemetry_capture_never_changes_the_schedule() {
        let build = || {
            let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
            let mut sim = NetSim::new(topo, 9);
            sim.install_host(
                ft.hosts[0],
                Box::new(Sender {
                    peer: ft.hosts[3],
                    count: 30,
                    bytes: 800,
                }),
            );
            sim.install_host(
                ft.hosts[3],
                Box::new(Receiver {
                    expect: 30,
                    ..Default::default()
                }),
            );
            sim.set_link_drop_prob(0, 0.1);
            sim
        };
        let plain = build().run(None);
        let mut sim = build();
        sim.enable_telemetry(TelemetryConfig::default());
        let traced = sim.run(None);
        assert_eq!(traced.makespan, plain.makespan);
        assert_eq!(traced.events, plain.events);
        assert_eq!(traced.done_at, plain.done_at);
        assert_eq!(traced.drops, plain.drops);
        let report = sim.take_telemetry().expect("telemetry was enabled");
        // The bucket series must account for every transmitted byte and
        // every drop.
        let bucket_bytes: u64 = report
            .links
            .iter()
            .flat_map(|l| l.dirs.iter())
            .flat_map(|d| d.buckets.iter())
            .map(|b| b.bytes)
            .sum();
        assert_eq!(bucket_bytes, traced.total_link_bytes);
        let bucket_drops: u64 = report
            .links
            .iter()
            .flat_map(|l| l.dirs.iter())
            .flat_map(|d| d.buckets.iter())
            .map(|b| b.drops)
            .sum();
        assert_eq!(bucket_drops, traced.drops);
        // Second take is empty (capture was consumed).
        assert!(sim.take_telemetry().is_none());
    }

    /// A host program that narrates its traffic through `ctx.trace`.
    struct TracingSender {
        peer: NodeId,
        count: u64,
    }
    impl HostProgram for TracingSender {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let me = ctx.node();
            ctx.trace(TraceKind::FlowSubmit, 7, self.count, 0);
            for i in 0..self.count {
                ctx.send(NetPacket::new(
                    me,
                    self.peer,
                    7,
                    i,
                    0,
                    0,
                    0,
                    Bytes::from(vec![0u8; 256]),
                ));
                ctx.trace(TraceKind::ShardSend, 7, i, 256);
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: NetPacket) {}
    }

    /// The full capture — utilization buckets, lifecycle events and their
    /// canonical order — must be bitwise-identical between the serial and
    /// partitioned drivers at every thread count.
    #[test]
    fn telemetry_capture_is_thread_count_invariant() {
        let build = || {
            let (topo, ft) = Topology::fat_tree_two_level(3, 3, 2, spec());
            let mut sim = NetSim::new(topo, 23);
            let dst = ft.hosts[0];
            for &h in ft.hosts.iter().skip(1) {
                sim.install_host(
                    h,
                    Box::new(TracingSender {
                        peer: dst,
                        count: 6,
                    }),
                );
            }
            sim.install_host(
                dst,
                Box::new(Receiver {
                    expect: 48,
                    ..Default::default()
                }),
            );
            sim.set_link_drop_prob(2, 0.2);
            sim.enable_telemetry(TelemetryConfig { bucket_ns: 64 });
            sim
        };
        let mut serial = build();
        serial.run(None);
        let want = serial.take_telemetry().expect("serial capture");
        for threads in [1, 2, 8] {
            let mut par = build();
            par.run_threads(None, threads);
            let got = par.take_telemetry().expect("parallel capture");
            assert_eq!(got, want, "telemetry must be identical at t={threads}");
            assert_eq!(got.chrome_trace(), want.chrome_trace());
            assert_eq!(got.utilization_csv(), want.utilization_csv());
        }
        // And the export is structurally valid Perfetto input.
        let events = crate::telemetry::validate_chrome_trace(&want.chrome_trace())
            .expect("trace must validate");
        assert!(events > 0);
    }

    #[test]
    fn all_compute_stats_lists_every_hpu_switch() {
        use crate::compute::HpuParams;
        struct Agg;
        impl SwitchProgram for Agg {
            fn matches(&self, _: &NetPacket) -> bool {
                true
            }
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, _in: PortId, pkt: NetPacket) {
                let _ = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
            }
        }
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
        let leaf0 = ft.leaf_of(0);
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            ft.hosts[0],
            Box::new(Sender {
                peer: ft.hosts[1],
                count: 4,
                bytes: 64,
            }),
        );
        sim.install_switch_model(leaf0, Box::new(Agg), SwitchModel::Hpu(HpuParams::figure5()));
        sim.run(None);
        let all = sim.all_compute_stats();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, leaf0);
        assert_eq!(all[0].1.handlers, 4);
        assert_eq!(sim.compute_stats(leaf0).unwrap().handlers, 4);
    }

    #[test]
    fn loss_injection_drops_and_counts() {
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 42);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 1000,
                bytes: 100,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 1,
                ..Default::default()
            }),
        );
        sim.set_link_drop_prob(0, 0.5);
        let report = sim.run(None);
        assert!(report.drops > 300 && report.drops < 700, "{}", report.drops);
    }

    #[test]
    fn loss_injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (topo, _sw, hosts) = Topology::star(2, spec());
            let mut sim = NetSim::new(topo, seed);
            sim.install_host(
                hosts[0],
                Box::new(Sender {
                    peer: hosts[1],
                    count: 500,
                    bytes: 100,
                }),
            );
            sim.install_host(
                hosts[1],
                Box::new(Receiver {
                    expect: 1,
                    ..Default::default()
                }),
            );
            sim.set_link_drop_prob(0, 0.2);
            let r = sim.run(None);
            (r.drops, r.makespan, r.total_link_packets)
        };
        assert_eq!(run(7), run(7), "same seed must reproduce the drop set");
        assert_ne!(
            run(7).0,
            run(1234).0,
            "different seeds should draw different drop sets"
        );
    }

    #[test]
    fn per_link_drop_streams_are_independent_of_other_traffic() {
        // The drop decisions on link 0 must be a function of (seed, link,
        // packet ordinal on that link) only: adding traffic on another
        // link must not perturb them. This is what makes loss tests
        // reproducible when unrelated flows change.
        let run = |extra_sender: bool| {
            let (topo, _sw, hosts) = Topology::star(3, spec());
            let mut sim = NetSim::new(topo, 99);
            sim.install_host(
                hosts[0],
                Box::new(Sender {
                    peer: hosts[1],
                    count: 400,
                    bytes: 100,
                }),
            );
            if extra_sender {
                sim.install_host(
                    hosts[2],
                    Box::new(Sender {
                        peer: hosts[1],
                        count: 250,
                        bytes: 64,
                    }),
                );
            }
            sim.install_host(
                hosts[1],
                Box::new(Receiver {
                    expect: 1,
                    ..Default::default()
                }),
            );
            sim.set_link_drop_prob(0, 0.25); // only host 0's uplink drops
            sim.run(None).drops
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wake_timers_fire() {
        struct Waker {
            fired: Vec<(Time, u64)>,
        }
        impl HostProgram for Waker {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.wake_in(100, 1);
                ctx.wake_in(50, 2);
            }
            fn on_packet(&mut self, _: &mut HostCtx<'_>, _: NetPacket) {}
            fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
                self.fired.push((ctx.now(), tag));
                if self.fired.len() == 2 {
                    ctx.mark_done();
                }
            }
        }
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(hosts[0], Box::new(Waker { fired: Vec::new() }));
        let report = sim.run(None);
        assert_eq!(report.last_done, Some(100));
        let w = sim.take_host(hosts[0]).unwrap();
        // Downcast via Any is overkill; completion time encodes both fires.
        drop(w);
    }

    #[test]
    fn deadline_stops_the_simulation() {
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(
            hosts[0],
            Box::new(Sender {
                peer: hosts[1],
                count: 1_000,
                bytes: 1250,
            }),
        );
        sim.install_host(
            hosts[1],
            Box::new(Receiver {
                expect: 1_000,
                ..Default::default()
            }),
        );
        let report = sim.run(Some(500));
        assert!(report.makespan <= 500);
        assert_eq!(report.last_done, None);
    }
}
