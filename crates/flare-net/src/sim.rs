//! The network event loop: links, programs, accounting.
//!
//! Three event types drive the simulation:
//!
//! * `Egress` — a packet leaves a node through a port: the link serializes
//!   it (per-direction FIFO `busy_until`), adds propagation latency, and
//!   schedules a `Deliver` at the peer;
//! * `Deliver` — a packet reaches a node: a host's [`HostProgram`] or a
//!   switch's [`SwitchProgram`] handles it; a packet the switch program
//!   hands back, or that reaches a switch without one, is forwarded along
//!   the routing tables. A program knows a packet by the flow, block and
//!   child it carries, so the event carries no ingress port;
//! * `Wake` — a host-requested timer (retransmission timeouts, phased
//!   algorithms).
//!
//! A switch program decides once per packet: it serves the packet or hands
//! it back. A served packet goes through the switch's compute model
//! ([`SwitchModel`], installed with the program by
//! [`NetSim::install_switch`]), entered through
//! [`SwitchCtx::processing_done_for`]`(block, bytes)`: either the serial
//! rate limiter calibrated from the PsPIN simulator (mirroring the paper's
//! SST calibration) or the event-driven multi-core HPU scheduler
//! ([`crate::compute`]). The program can emit packets to arbitrary
//! ports/destinations, including multicast by emitting one copy per port.
//! A packet handed back leaves before that call, so it never charges the
//! switch's compute: other flows pass "not further delayed" (paper
//! Section 3).
//!
//! There is one event loop: [`NetSim::run`] drains a single event queue
//! over the whole topology in chunks of at most 64 events of one
//! timestamp, so its buffer never grows with a same-instant burst. Memory
//! follows the work, not the fabric: a link direction keeps its
//! serializer and counters, and only a run that injects loss builds the
//! per-direction loss table.
//!
//! A simulation lives on the thread that built it. Programs carry no
//! `Send` bound and a packet's payload counts its handles without atomics,
//! so the compiler refuses to move a [`NetSim`] or a packet to another
//! thread; a sweep runs one simulation per worker, built on that worker.

use rand::rngs::StdRng;
use rand::RngExt;

use flare_des::rng::{rng_stream, splitmix64};
use flare_des::{EventQueue, Time};

use crate::compute::{serial_service_ns, ComputeStats, SwitchCompute, SwitchModel};
use crate::packet::NetPacket;
use crate::telemetry::{TelemetryConfig, TelemetryReport, TelemetrySink, TraceKind};
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
    /// Packet arrives at `node`.
    Deliver {
        /// Receiving node.
        node: NodeId,
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

/// Application logic running on a host. A program is [`Any`](std::any::Any),
/// so callers of [`NetSim::take_host`] can downcast it to read what it
/// recorded during the run.
pub trait HostProgram: std::any::Any {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
    /// Called for every packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket);
    /// Called when a timer requested via [`HostCtx::wake_in`] fires.
    fn on_wake(&mut self, _ctx: &mut HostCtx<'_>, _tag: u64) {}
}

/// In-network program installed on a switch. A program is
/// [`Any`](std::any::Any), so callers of [`NetSim::take_switch`] can
/// downcast it to inspect its state (pool counters, completion tallies)
/// after a run.
pub trait SwitchProgram: std::any::Any {
    /// Handle a packet delivered to this switch: serve it, or hand it back
    /// to be forwarded along the routing tables, "not further delayed"
    /// (paper Section 3). A program hands back the packets of flows it was
    /// not configured for, before it calls
    /// [`SwitchCtx::processing_done_for`], so they never charge the
    /// switch's compute. A served packet is moved in: a program that
    /// consumes the payload holds its only handle, and dropping it returns
    /// the payload's block to the free lists of `vendor/bytes`.
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket>;
}

/// Events [`NetSim::run`] takes from the queue per drain: enough to
/// amortise the call, few enough that the buffer stays small however many
/// events share an instant.
const CHUNK: usize = 64;

/// One link direction: its FIFO serializer and traffic totals.
struct DirState {
    busy_until: Time,
    bytes: u64,
    packets: u64,
    drops: u64,
}

/// One link direction's loss model, in the table a lossy run builds.
struct DirLoss {
    drop_prob: f64,
    /// Loss stream derived from `(run seed, 2·link + dir)`: the drop
    /// pattern is a pure function of the seed and this direction's own
    /// packet sequence, independent of how traffic interleaves elsewhere —
    /// so lossy runs are bitwise-reproducible per run seed, and traffic
    /// added on one link never moves another link's drops.
    rng: StdRng,
}

/// Per-node state: the installed program, its compute, completion.
struct NodeState {
    host: Option<Box<dyn HostProgram>>,
    switch: Option<Box<dyn SwitchProgram>>,
    compute: Compute,
    done_at: Option<Time>,
}

/// How a switch processes the packets its program serves.
enum Compute {
    /// One serial pipeline: when it is next free, and its rate in bytes/ns
    /// (`f64::INFINITY`, every node's default, is no processing delay).
    Serial { busy: Time, rate: f64 },
    /// The multi-core HPU scheduler of [`SwitchModel::Hpu`] (boxed: most
    /// nodes have none).
    Hpu(Box<SwitchCompute>),
}

/// Everything a run mutates: one [`NodeState`] per node (slot = node id)
/// and one [`DirState`] per link direction (slot = `2·link + dir`).
struct RunState {
    nodes: Vec<NodeState>,
    dirs: Vec<DirState>,
    /// One [`DirLoss`] per link direction once loss has been set on any
    /// link; empty (no allocation) for a lossless run.
    loss: Vec<DirLoss>,
    /// Observability capture (`None` by default: one `Option` test per
    /// hook, no state, no allocation).
    telemetry: Option<Box<TelemetrySink>>,
    /// Packets dropped for want of a route.
    unroutable: u64,
    /// [`NetReport::order_digest`] of the run so far.
    order_digest: u64,
}

/// The run as the event loop and the program contexts see it: the shared
/// read-only fabric plus exclusive access to the mutable state.
struct NetLane<'a> {
    topo: &'a Topology,
    routing: &'a Routing,
    state: &'a mut RunState,
}

impl NetLane<'_> {
    fn reborrow(&mut self) -> NetLane<'_> {
        NetLane {
            topo: self.topo,
            routing: self.routing,
            state: &mut *self.state,
        }
    }

    /// Transmit on a link: returns delivery `(peer, arrive_at)`, or `None`
    /// when the packet is dropped.
    fn transmit(
        &mut self,
        now: Time,
        node: NodeId,
        port: PortId,
        bytes: u32,
    ) -> Option<(NodeId, Time)> {
        let pl = self.topo.ports_of(node)[port.index()];
        let link = self.topo.link(pl.link);
        let slot = 2 * pl.link + usize::from(link.a.0 != node);
        let d = &mut self.state.dirs[slot];
        let start = now.max(d.busy_until);
        let fin = start + link.spec.serialize_ns(bytes);
        d.busy_until = fin;
        d.bytes += bytes as u64;
        d.packets += 1;
        let dropped = match self.state.loss.get_mut(slot) {
            Some(l) => l.drop_prob > 0.0 && l.rng.random::<f64>() < l.drop_prob,
            None => false,
        };
        if let Some(sink) = &mut self.state.telemetry {
            sink.record_tx(slot, start, bytes as u64, dropped);
        }
        if dropped {
            d.drops += 1;
            return None;
        }
        Some((pl.peer, fin + link.spec.latency_ns))
    }

    /// Send `pkt` out of `node` at `at` along the routing tables. A packet
    /// with no route, sent or forwarded, is dropped and counted.
    fn route(&mut self, queue: &mut EventQueue<NetEvent>, at: Time, node: NodeId, pkt: NetPacket) {
        match self.routing.next_port(node, pkt.dst, pkt.flow) {
            Some(port) => queue.schedule_at(at, NetEvent::Egress { node, port, pkt }),
            None => self.state.unroutable += 1,
        }
    }

    /// Run `f` on `node`'s host program (if one is installed) with a
    /// context at time `now`. The program leaves its slot for the call, so
    /// the context can borrow the whole run state.
    fn with_host(
        &mut self,
        queue: &mut EventQueue<NetEvent>,
        node: NodeId,
        now: Time,
        f: impl FnOnce(&mut dyn HostProgram, &mut HostCtx<'_>),
    ) {
        if let Some(mut prog) = self.state.nodes[node.index()].host.take() {
            let mut ctx = HostCtx {
                core: self.reborrow(),
                queue,
                node,
                now,
            };
            f(prog.as_mut(), &mut ctx);
            self.state.nodes[node.index()].host = Some(prog);
        }
    }

    /// Call `on_start` on every host in ascending node id, at `now = 0`.
    fn start_hosts(&mut self, queue: &mut EventQueue<NetEvent>) {
        for node in 0..self.state.nodes.len() as u32 {
            self.with_host(queue, NodeId(node), 0, |prog, ctx| prog.on_start(ctx));
        }
    }

    /// Handle one event at time `t`, possibly scheduling more.
    fn handle(&mut self, t: Time, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        self.state.order_digest = fold_event(self.state.order_digest, t, &event);
        match event {
            NetEvent::Egress { node, port, pkt } => {
                if let Some((peer, arrive)) = self.transmit(t, node, port, pkt.wire_bytes) {
                    queue.schedule_at(arrive, NetEvent::Deliver { node: peer, pkt });
                }
            }
            NetEvent::Deliver { node, pkt } => match self.topo.kind(node) {
                NodeKind::Host => {
                    self.with_host(queue, node, t, |prog, ctx| prog.on_packet(ctx, pkt));
                }
                NodeKind::Switch => {
                    let slot = node.index();
                    let unserved = match self.state.nodes[slot].switch.take() {
                        Some(mut prog) => {
                            let mut ctx = SwitchCtx {
                                core: self.reborrow(),
                                queue,
                                node,
                                now: t,
                                charged: false,
                            };
                            // Move the packet in (no payload refcount bump):
                            // the program's drop of a consumed payload is
                            // what frees its block for the next encode.
                            let unserved = prog.on_packet(&mut ctx, pkt);
                            debug_assert!(
                                unserved.is_none() || !ctx.charged,
                                "a packet handed back was charged to the switch"
                            );
                            self.state.nodes[slot].switch = Some(prog);
                            unserved
                        }
                        None => Some(pkt),
                    };
                    // Default forwarding along the routing tables.
                    if let Some(pkt) = unserved {
                        self.route(queue, t, node, pkt);
                    }
                }
            },
            NetEvent::Wake { node, tag } => {
                self.with_host(queue, node, t, |prog, ctx| prog.on_wake(ctx, tag));
            }
        }
    }
}

/// Fold one handled event into an order digest: its own time, node and
/// kind, and its packet's flow, block, child and kind (a `Wake` folds its
/// tag as the block). The fields are combined by odd multipliers apart
/// from the running digest, so one SplitMix64 step per event sits on the
/// digest's chain.
fn fold_event(digest: u64, t: Time, event: &NetEvent) -> u64 {
    let id = |p: &NetPacket| (p.flow, p.block, p.child, p.kind);
    let (kind, node, (flow, block, child, pkt_kind)) = match event {
        NetEvent::Egress { node, pkt, .. } => (0, node, id(pkt)),
        NetEvent::Deliver { node, pkt } => (1, node, id(pkt)),
        NetEvent::Wake { node, tag } => (2, node, (0, *tag, 0, 0)),
    };
    let ids = u64::from(node.0) << 32 | u64::from(flow);
    let kinds = u64::from(child) << 16 | u64::from(pkt_kind) << 8 | kind;
    let key = t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ block.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ ids.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ kinds;
    splitmix64(digest ^ key)
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

            /// Send `pkt` towards `pkt.dst` via the routing tables, now.
            pub fn send(&mut self, pkt: NetPacket) {
                self.send_at(self.now, pkt);
            }

            /// Send `pkt` towards `pkt.dst` at a future time. A packet
            /// with no route is dropped and counted in
            /// [`NetReport::unroutable`](crate::NetReport::unroutable).
            pub fn send_at(&mut self, at: Time, pkt: NetPacket) {
                debug_assert!(at >= self.now);
                self.core.route(self.queue, at, self.node, pkt);
            }

            /// Record a flow-lifecycle telemetry event for this node
            /// (no-op unless [`crate::NetSim`] telemetry is enabled; see
            /// [`crate::telemetry::TraceKind`] for the `(a, b)` payload
            /// conventions per kind).
            pub fn trace(&mut self, kind: TraceKind, flow: u64, a: u64, b: u64) {
                if let Some(sink) = &mut self.core.state.telemetry {
                    sink.event(self.node.0, self.now, kind, flow, a, b);
                }
            }
        }
    };
}

/// Execution context for host programs.
pub struct HostCtx<'a> {
    core: NetLane<'a>,
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

    /// Record this host as finished at the current time; the simulation
    /// keeps running until the event queue drains. The latest call wins: a
    /// host that runs several collectives back to back (one participant
    /// per iteration under a multiplexer) is done when its last one is.
    pub fn mark_done(&mut self) {
        self.core.state.nodes[self.node.index()].done_at = Some(self.now);
    }
}

/// Execution context for switch programs.
pub struct SwitchCtx<'a> {
    core: NetLane<'a>,
    queue: &'a mut EventQueue<NetEvent>,
    node: NodeId,
    now: Time,
    /// Whether the packet in hand was charged to the switch's compute.
    charged: bool,
}
ctx_common!(SwitchCtx);

impl<'a> SwitchCtx<'a> {
    /// Execute the handler for a packet of `block` with `bytes` wire
    /// bytes; returns the completion time at which derived packets should
    /// be emitted.
    ///
    /// Under [`SwitchModel::Hpu`] the handler is scheduled
    /// hierarchical-FCFS onto `block`'s core subset (queueing when all
    /// its cores are busy), and with telemetry on the subset's occupancy
    /// is recorded at dispatch. Under `RateLimited` the bytes pass
    /// through the switch's serial pipeline at the PsPIN-calibrated
    /// aggregation bandwidth — bit-identical timing to the
    /// pre-compute-subsystem simulator.
    pub fn processing_done_for(&mut self, block: u64, bytes: u32) -> Time {
        self.charged = true;
        let RunState {
            nodes, telemetry, ..
        } = &mut *self.core.state;
        match &mut nodes[self.node.index()].compute {
            Compute::Serial { busy, rate } => {
                *busy = self.now.max(*busy) + serial_service_ns(*rate, bytes);
                *busy
            }
            Compute::Hpu(hpu) => {
                let (fin, sample) = hpu.execute(self.now, block, bytes);
                if let Some(sink) = telemetry {
                    sink.record_hpu(self.node.0, hpu.subsets(), sample);
                }
                fin
            }
        }
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
    /// Packets dropped by loss injection: the sum of the per-link
    /// [`LinkTotals::drops`] of [`links`](Self::links).
    pub drops: u64,
    /// Per-link byte/packet/drop totals, indexed by link id (lossless
    /// runs report zero drops on every link).
    pub links: Vec<LinkTotals>,
    /// Packets dropped because their node had no route to their
    /// destination (a topology of several components): sent by a program
    /// or forwarded by a switch.
    pub unroutable: u64,
    /// Events processed.
    pub events: u64,
    /// A digest of the order the run handled its events in: SplitMix64
    /// folded over every event's time, node, kind and packet identity
    /// (flow, block, child, packet kind), in handling order. Two runs with
    /// equal digests handled the same events in the same order, so a
    /// change that must not move simulated behaviour can show that it
    /// moved none, not only that the sums held.
    pub order_digest: u64,
}

/// HPU occupancy of one switch under [`SwitchModel::Hpu`].
#[derive(Debug, Clone, PartialEq)]
pub struct HpuSwitchReport {
    /// The switch.
    pub switch: NodeId,
    /// Handler/queue counters of its compute model.
    pub stats: ComputeStats,
    /// Peak FIFO depth per scheduling subset; the largest is
    /// [`ComputeStats::queue_peak`].
    pub subset_peaks: Vec<usize>,
}

/// The network simulator.
pub struct NetSim {
    topo: Topology,
    routing: Routing,
    /// The run seed the loss streams derive from.
    seed: u64,
    /// Everything a run mutates.
    state: RunState,
}

impl NetSim {
    /// Build a simulator over `topo` with deterministic ECMP routing.
    /// `seed` drives every stochastic element (currently the per-link
    /// loss-injection streams), making runs bitwise-reproducible.
    ///
    /// Costs one pass over the nodes, ports and links, and holds 32 B per
    /// link direction; routing towards a destination is worked out the
    /// first time a packet needs it (see [`Routing`]), and the loss
    /// streams the first time loss is set (see
    /// [`set_link_drop_prob`](Self::set_link_drop_prob)).
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routing = topo.build_routing();
        let nodes = (0..topo.node_count())
            .map(|_| NodeState {
                host: None,
                switch: None,
                compute: Compute::Serial {
                    busy: 0,
                    rate: f64::INFINITY,
                },
                done_at: None,
            })
            .collect();
        let dirs = (0..2 * topo.link_count())
            .map(|_| DirState {
                busy_until: 0,
                bytes: 0,
                packets: 0,
                drops: 0,
            })
            .collect();
        Self {
            topo,
            routing,
            seed,
            state: RunState {
                nodes,
                dirs,
                loss: Vec::new(),
                telemetry: None,
                unroutable: 0,
                order_digest: 0,
            },
        }
    }

    /// Access the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Access the routing state (e.g. [`Routing::columns_built`]).
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Consume the simulator and hand the topology back (lets callers
    /// reuse it for the next run without cloning).
    pub fn into_topology(self) -> Topology {
        self.topo
    }

    /// Install application logic on a host.
    pub fn install_host(&mut self, node: NodeId, prog: Box<dyn HostProgram>) {
        assert_eq!(self.topo.kind(node), NodeKind::Host, "not a host");
        self.state.nodes[node.index()].host = Some(prog);
    }

    /// Install an in-network program on a switch under a compute model:
    /// `RateLimited` (serial pipeline, the historical behavior; an
    /// infinite rate is no processing delay) or `Hpu` (event-driven
    /// multi-core handler scheduling; see [`crate::compute`]).
    ///
    /// # Panics
    /// Panics if `node` is not a switch, or `model` fails
    /// [`SwitchModel::validate`].
    pub fn install_switch(
        &mut self,
        node: NodeId,
        prog: Box<dyn SwitchProgram>,
        model: SwitchModel,
    ) {
        assert_eq!(self.topo.kind(node), NodeKind::Switch, "not a switch");
        if let Err(e) = model.validate() {
            panic!("invalid switch model: {e}");
        }
        let state = &mut self.state.nodes[node.index()];
        state.switch = Some(prog);
        state.compute = match model {
            SwitchModel::RateLimited(rate) => Compute::Serial { busy: 0, rate },
            SwitchModel::Hpu(params) => Compute::Hpu(Box::new(SwitchCompute::new(params))),
        };
    }

    /// The HPU occupancy of every switch installed with
    /// [`SwitchModel::Hpu`], ascending by node id (`RateLimited` switches
    /// have none).
    pub fn hpu_reports(&self) -> Vec<HpuSwitchReport> {
        let nodes = self.state.nodes.iter().enumerate();
        nodes
            .filter_map(|(i, n)| {
                let Compute::Hpu(hpu) = &n.compute else {
                    return None;
                };
                Some(HpuSwitchReport {
                    switch: NodeId(i as u32),
                    stats: hpu.stats(),
                    subset_peaks: hpu.subset_queue_peaks().to_vec(),
                })
            })
            .collect()
    }

    /// Enable observability capture for subsequent runs (see
    /// [`crate::telemetry`]); extract results with
    /// [`take_telemetry`](Self::take_telemetry). Capture never perturbs
    /// simulated timestamps — with or without it, makespans are
    /// bit-identical. A zero `bucket_ns` is taken as 1 ns, for recording
    /// and export alike.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let cfg = TelemetryConfig {
            bucket_ns: cfg.bucket_ns.max(1),
        };
        let (nodes, dirs) = (self.state.nodes.len(), self.state.dirs.len());
        let sink = TelemetrySink::new(cfg, nodes, dirs);
        self.state.telemetry = Some(Box::new(sink));
    }

    /// Extract everything telemetry captured (disabling further capture);
    /// `None` unless [`enable_telemetry`](Self::enable_telemetry) was
    /// called.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let sink = self.state.telemetry.take()?;
        Some(sink.into_report(&self.topo))
    }

    /// The per-direction loss table, built on first use: every direction
    /// lossless, each with its own stream.
    fn loss_table(&mut self) -> &mut [DirLoss] {
        if self.state.loss.is_empty() {
            let seed = self.seed;
            let streams = 0..self.state.dirs.len() as u64;
            self.state.loss = streams
                .map(|slot| DirLoss {
                    drop_prob: 0.0,
                    rng: rng_stream(seed, slot),
                })
                .collect();
        }
        &mut self.state.loss
    }

    /// Inject loss on a link (both directions). The first call builds the
    /// loss table: one probability and one stream per link direction.
    pub fn set_link_drop_prob(&mut self, link: usize, p: f64) {
        for dir in &mut self.loss_table()[2 * link..2 * link + 2] {
            dir.drop_prob = p;
        }
    }

    /// Inject loss on every link of the fabric — the common whole-fabric
    /// configuration shared by the session executors and the traffic
    /// engine. A no-op when `p == 0.0` so lossless callers can pass the
    /// tuning value through unconditionally, and build no loss table.
    pub fn set_uniform_drop_prob(&mut self, p: f64) {
        if p > 0.0 {
            for dir in self.loss_table() {
                dir.drop_prob = p;
            }
        }
    }

    /// Take a switch program back out (to inspect its final state).
    pub fn take_switch(&mut self, node: NodeId) -> Option<Box<dyn SwitchProgram>> {
        self.state.nodes[node.index()].switch.take()
    }

    /// Take a host program back out (to inspect its final state).
    pub fn take_host(&mut self, node: NodeId) -> Option<Box<dyn HostProgram>> {
        self.state.nodes[node.index()].host.take()
    }

    /// Run to quiescence (or `deadline`): start every host, then drain the
    /// event queue chunk by chunk — up to 64 events of the earliest
    /// timestamp per queue operation, in the exact single-pop order (see
    /// `flare_des::queue`); events a chunk schedules at its own instant
    /// queue behind the rest of that instant. Returns the report.
    pub fn run(&mut self, deadline: Option<Time>) -> NetReport {
        self.state.order_digest = 0;
        let mut queue = EventQueue::new();
        let mut lane = NetLane {
            topo: &self.topo,
            routing: &self.routing,
            state: &mut self.state,
        };
        lane.start_hosts(&mut queue);
        // Events at exactly the deadline still run; the makespan is the
        // time of the last chunk (the clock's start if nothing ran). The
        // chunk buffer is freed before the report is built.
        let deadline = deadline.unwrap_or(Time::MAX);
        let makespan = {
            let mut makespan = queue.now();
            let mut chunk = Vec::with_capacity(CHUNK);
            while queue.peek_time().is_some_and(|t| t <= deadline) {
                let Some(t) = queue.pop_batch(&mut chunk, CHUNK) else {
                    break;
                };
                makespan = t;
                for ev in chunk.drain(..) {
                    lane.handle(t, ev, &mut queue);
                }
            }
            makespan
        };
        let links: Vec<LinkTotals> = self
            .state
            .dirs
            .chunks_exact(2)
            .map(|d| LinkTotals {
                bytes: d[0].bytes + d[1].bytes,
                packets: d[0].packets + d[1].packets,
                drops: d[0].drops + d[1].drops,
            })
            .collect();
        let done_at: Vec<Option<Time>> = self.state.nodes.iter().map(|n| n.done_at).collect();
        NetReport {
            makespan,
            last_done: done_at.iter().flatten().max().copied(),
            done_at,
            total_link_bytes: links.iter().map(|l| l.bytes).sum(),
            total_link_packets: links.iter().map(|l| l.packets).sum(),
            drops: links.iter().map(|l| l.drops).sum(),
            links,
            unroutable: self.state.unroutable,
            events: queue.processed(),
            order_digest: self.state.order_digest,
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
            for i in 0..self.count {
                ctx.send(NetPacket::new(
                    self.peer,
                    1,
                    i,
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
        // NetEvent is the unit the ladder queue stores and copies: an
        // Egress/Deliver variant packs its node (and port) next to its
        // 32-byte packet, and the event's 40 B with the slab's time and
        // link make a 56-byte slab node.
        assert_eq!(std::mem::size_of::<NetEvent>(), 40);
    }

    #[test]
    fn link_direction_state_stays_lean() {
        // Every link direction of the fabric holds one DirState for the
        // whole run, lossy or not: its serializer and three counters. The
        // loss model lives in the table only a lossy run builds.
        assert_eq!(std::mem::size_of::<DirState>(), 32);
    }

    #[test]
    fn a_lossless_run_builds_no_loss_table() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.set_uniform_drop_prob(0.0);
        sim.install_host(
            ft.hosts[0],
            Box::new(Sender {
                peer: ft.hosts[3],
                count: 20,
                bytes: 1000,
            }),
        );
        assert_eq!(sim.run(None).drops, 0);
        assert_eq!(sim.state.loss.capacity(), 0);
        sim.set_link_drop_prob(0, 0.1);
        assert_eq!(sim.state.loss.len(), sim.state.dirs.len());
    }

    #[test]
    fn a_lossless_first_setting_draws_no_loss_of_its_own() {
        // Building the table at p = 0 must neither consume nor reseed the
        // stream that a later p = 0.3 draws from.
        let run = |first: Option<f64>| {
            let (topo, _sw, hosts) = Topology::star(2, spec());
            let mut sim = NetSim::new(topo, 42);
            let sender = Sender {
                peer: hosts[1],
                count: 500,
                bytes: 100,
            };
            sim.install_host(hosts[0], Box::new(sender));
            if let Some(p) = first {
                sim.set_link_drop_prob(0, p);
            }
            sim.set_link_drop_prob(0, 0.3);
            sim.run(None)
        };
        let alone = run(None);
        assert!(alone.drops > 100, "{}", alone.drops);
        assert_eq!(run(Some(0.0)), alone);
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

    /// A switch program that consumes `n` contribution packets of `flow`
    /// per block and emits one aggregate to a collector.
    struct CountingAggregator {
        flow: u32,
        expect: u16,
        seen: std::collections::HashMap<u64, u16>,
        collector: NodeId,
    }
    impl SwitchProgram for CountingAggregator {
        fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
            if pkt.flow != self.flow {
                return Some(pkt);
            }
            let fin = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
            let c = self.seen.entry(pkt.block).or_insert(0);
            *c += 1;
            if *c == self.expect {
                let out = NetPacket::new(
                    self.collector,
                    self.flow,
                    pkt.block,
                    0,
                    1,
                    Bytes::from(vec![0u8; 100]),
                );
                ctx.send_at(fin, out);
            }
            None
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
        // The senders use flow 1, which the aggregator serves.
        let agg = CountingAggregator {
            flow: 1,
            expect: 2,
            seen: Default::default(),
            collector: hosts[2],
        };
        sim.install_switch(sw, Box::new(agg), SwitchModel::RateLimited(1.0));
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
            fn on_packet(
                &mut self,
                ctx: &mut SwitchCtx<'_>,
                mut pkt: NetPacket,
            ) -> Option<NetPacket> {
                let fin = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
                pkt.dst = self.to;
                ctx.send_at(fin, pkt);
                None
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
        let echo = Box::new(Echo { to: hosts[1] });
        sim.install_switch(sw, echo, SwitchModel::RateLimited(0.5));
        let report = sim.run(None);
        // Arrivals at switch at ~130, 210, ...; processing of 4 packets
        // serializes: done ≈ 130 + 4×2000; plus egress 80 + 50.
        let done = report.last_done.unwrap();
        assert!(done > 8000, "processing must pace emissions: {done}");
    }

    #[test]
    #[should_panic(expected = "RateLimited(0): expected a rate > 0 bytes/ns")]
    fn a_zero_rate_switch_model_is_refused_at_install() {
        // At rate 0 the first served packet would overflow the clock.
        let (topo, sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        let agg = CountingAggregator {
            flow: 1,
            expect: 2,
            seen: Default::default(),
            collector: hosts[1],
        };
        sim.install_switch(sw, Box::new(agg), SwitchModel::RateLimited(0.0));
    }

    #[test]
    fn a_packet_with_no_route_is_dropped_and_counted() {
        // Two components, a host and a switch each: nothing connects them.
        let mut topo = Topology::new();
        let (a, b) = (topo.add_host("a"), topo.add_host("b"));
        let (sa, sb) = (topo.add_switch("sa"), topo.add_switch("sb"));
        topo.connect(a, sa, spec());
        topo.connect(b, sb, spec());
        let mut sim = NetSim::new(topo, 1);
        let sender = Sender {
            peer: b,
            count: 1,
            bytes: 100,
        };
        sim.install_host(a, Box::new(sender));
        let report = sim.run(None);
        assert_eq!(report.unroutable, 1);
        assert_eq!((report.total_link_packets, report.last_done), (0, None));
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
            ctx.trace(TraceKind::FlowSubmit, 7, self.count, 0);
            for i in 0..self.count {
                ctx.send(NetPacket::new(
                    self.peer,
                    7,
                    i,
                    0,
                    0,
                    Bytes::from(vec![0u8; 256]),
                ));
                ctx.trace(TraceKind::ShardSend, 7, i, 256);
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: NetPacket) {}
    }

    /// A zero bucket width records and exports 1 ns buckets: every
    /// transmit of one direction starts in its own bucket.
    #[test]
    fn zero_width_buckets_export_distinct_increasing_starts() {
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        let sender = TracingSender {
            peer: hosts[1],
            count: 4,
        };
        sim.install_host(hosts[0], Box::new(sender));
        sim.enable_telemetry(TelemetryConfig { bucket_ns: 0 });
        sim.run(None);
        let csv = sim.take_telemetry().expect("enabled").utilization_csv();
        // The sender's uplink is link 0, direction 0.
        let starts: Vec<u64> = csv
            .lines()
            .skip(1)
            .filter(|row| row.starts_with("0,0,"))
            .map(|row| row.split(',').nth(4).unwrap().parse().unwrap())
            .collect();
        assert_eq!(starts.len(), 4, "{csv}");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
    }

    #[test]
    fn hpu_reports_list_every_hpu_switch() {
        // Leaf 0 serves flow 1 on its HPU cores and hands back the flow 7
        // of `TracingSender`, which passes uncharged; with capture on,
        // every dispatch is sampled.
        use crate::compute::HpuParams;
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
        let stray = TracingSender {
            peer: ft.hosts[0],
            count: 3,
        };
        sim.install_host(ft.hosts[1], Box::new(stray));
        let agg = CountingAggregator {
            flow: 1,
            expect: u16::MAX,
            seen: Default::default(),
            collector: ft.hosts[1],
        };
        sim.install_switch(leaf0, Box::new(agg), SwitchModel::Hpu(HpuParams::figure5()));
        sim.enable_telemetry(TelemetryConfig::default());
        let report = sim.run(None);
        // Four packets end at leaf 0, three cross it to host 0.
        assert_eq!(report.total_link_packets, 4 + 3 * 2);
        let all = sim.hpu_reports();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].switch, leaf0);
        assert_eq!(all[0].stats.handlers, 4);
        assert_eq!(all[0].subset_peaks.len(), HpuParams::figure5().subsets());
        let compute = sim.take_telemetry().expect("capture on").compute;
        let timelines: Vec<(u32, usize)> =
            compute.iter().map(|c| (c.node, c.samples.len())).collect();
        assert_eq!(timelines, [(leaf0.0, 4)]);
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

    #[test]
    fn a_wake_at_the_deadline_fires_and_one_just_after_does_not() {
        struct Waker;
        impl HostProgram for Waker {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.wake_in(500, 0);
                ctx.wake_in(501, 1);
            }
            fn on_packet(&mut self, _: &mut HostCtx<'_>, _: NetPacket) {}
            fn on_wake(&mut self, ctx: &mut HostCtx<'_>, _: u64) {
                ctx.mark_done();
            }
        }
        let (topo, _sw, hosts) = Topology::star(2, spec());
        let mut sim = NetSim::new(topo, 1);
        sim.install_host(hosts[0], Box::new(Waker));
        let report = sim.run(Some(500));
        assert_eq!(report.makespan, 500);
        assert_eq!(report.events, 1);
        assert_eq!(report.last_done, Some(500));
    }
}
