//! The unified Flare session API: one entry point for dense and sparse allreduce.
//!
//! The paper's headline claim is *flexibility* — one switch program serving
//! arbitrary datatypes, operators, dense and sparse data, and multiple
//! concurrent tenants. This module is the programming interface matching
//! that claim: a [`FlareSession`] owns the topology, the network manager
//! (admission control, reduction-tree computation, allreduce-id
//! allocation) and the tuning knobs, and a typed [`Collective`] builder
//! resolves dense vs sparse storage, reproducible-tree selection,
//! windowing and stagger policy internally:
//!
//! ```no_run
//! use flare_core::session::FlareSession;
//! use flare_core::op::Max;
//! use flare_net::{LinkSpec, Topology};
//!
//! let (topo, _switch, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
//! let mut session = FlareSession::builder(topo).build();
//! let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r; 1024]).collect();
//! let out = session.allreduce(inputs).op(Max).run().unwrap();
//! println!("done at {} ns", out.report.completion_ns());
//! ```
//!
//! [`FlareSession::allreduce`] and [`FlareSession::sparse_allreduce`] are
//! the session's collectives: the paper evaluates allreduce only.
//! Multi-tenant admission is explicit via
//! [`FlareSession::admit`] / [`FlareSession::release`], which return
//! [`CollectiveHandle`]s that [`Collective::via`] can run under and that
//! the Horovod-style [`crate::collectives::Sequencer`] accepts directly.

#![deny(missing_docs)]

use flare_des::Time;
use flare_model::AggKind;
use flare_net::{
    HostProgram, NetReport, NodeId, SwitchModel, TelemetryConfig, TelemetryReport, Topology,
};

use crate::dtype::Element;
use crate::handlers::SparseStorageKind;
use crate::host::{RankResult, RttEstimate};
use crate::manager::{AdmissionError, AllreducePlan, AllreduceRequest, NetworkManager};
use crate::op::{ReduceOp, Sum};
use crate::tag::FlowTagOverflow;
use crate::wire::HEADER_BYTES;
use crate::wiring::{check_participants, run_fabric, FlowInput, FlowShape, FlowWiring};

/// Why a collective could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The network manager rejected the admission request.
    Admission(AdmissionError),
    /// The number of per-rank inputs does not match the participant count.
    ShapeMismatch {
        /// Participating hosts.
        hosts: usize,
        /// Per-rank inputs supplied.
        inputs: usize,
    },
    /// Ranks contributed vectors of different lengths.
    RaggedInputs,
    /// A collective was issued with no data (or a zero-element domain).
    EmptyData,
    /// The session (or the `on_hosts` override) has no participating hosts.
    NoHosts,
    /// A participating host is not attached to the admitted plan's
    /// reduction tree (e.g. [`Collective::via`] combined with
    /// [`Collective::on_hosts`] naming hosts outside the admitted set).
    HostNotInPlan {
        /// The offending host.
        host: NodeId,
    },
    /// A host appears more than once in a participant list: it would be
    /// two ranks behind one child index of its leaf switch.
    DuplicateHost {
        /// The repeated host.
        host: NodeId,
    },
    /// A sparse pair index at or beyond the collective's element domain.
    IndexOutOfRange {
        /// The offending global index.
        index: u32,
        /// The collective's domain size.
        total_elems: usize,
    },
    /// Loss injection was configured without a retransmission timeout:
    /// a dropped packet would stall the collective forever.
    LossWithoutRetransmit,
    /// `retransmit_after` was set to `Some(0)`: a zero-delay timer would
    /// re-arm itself at the same instant forever, flooding the event
    /// queue without simulated time ever advancing.
    ZeroRetransmitTimeout,
    /// [`Tuning::telemetry`] was set with `bucket_ns: 0`: a utilization
    /// bucket must span at least one nanosecond.
    ZeroTelemetryBucket,
    /// A size that packets or blocks are cut by is 0:
    /// [`Tuning::elems_per_packet`], [`Tuning::pairs_per_packet`],
    /// [`Tuning::packet_bytes`], or [`SparsePolicy::span`],
    /// [`SparsePolicy::hash_slots`] or [`SparsePolicy::spill_cap`] of a
    /// sparse collective.
    ZeroSize {
        /// The field, as `Type::field`.
        field: &'static str,
    },
    /// A size the sparse wire writes as a 32-bit index is 2^32 or more:
    /// [`Tuning::pairs_per_packet`] or [`SparsePolicy::span`].
    BeyondWireIndex {
        /// The field, as `Type::field`.
        field: &'static str,
        /// The value given.
        given: usize,
    },
    /// [`Tuning::link_drop_prob`] is not a probability a run can finish
    /// under: at 1 or above every packet is dropped and the hosts
    /// retransmit for ever; below 0 or NaN would silently run lossless.
    InvalidDropProbability {
        /// The offending value, as configured.
        given: String,
    },
    /// The session's [`SwitchModel`] is one a run cannot finish under: a
    /// `RateLimited` rate that is NaN, zero or negative, or `Hpu`
    /// parameters that fail [`flare_net::HpuParams::validate`] (a subset
    /// size that does not divide the cluster width, a cycle cost that is
    /// not a finite non-negative number). The contained message is the
    /// diagnosis.
    InvalidSwitchModel(String),
    /// `.reproducible(true)` was combined with a [`Collective::via`]
    /// handle whose plan was not admitted with tree aggregation, so the
    /// bitwise-reproducibility guarantee cannot be honored. Admit the
    /// handle with `reproducible = true` instead.
    ReproducibleViaMismatch,
    /// The [`Collective::via`] handle (or a clone of it) was already
    /// released: its id is torn down and its switch memory returned.
    HandleReleased {
        /// The released allreduce id.
        id: u32,
    },
    /// Iteration `iteration` of a flow of `blocks` blocks would send block
    /// ids past the 32-bit wire id, where they alias an earlier
    /// iteration's ([`crate::wiring::check_iteration`]).
    BlockIdOverflow {
        /// The iteration.
        iteration: u64,
        /// Blocks per iteration.
        blocks: u64,
    },
    /// An iteration past the retransmission wake tag's sequence field,
    /// where a stale timer would fire into a later iteration
    /// ([`crate::wiring::check_iteration`]).
    WakeTagOverflow(FlowTagOverflow),
    /// The run ended with ranks whose participant had not received every
    /// block's result: no result can be read back for them.
    Unfinished {
        /// The ranks, ascending.
        ranks: Vec<usize>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Admission(e) => write!(f, "admission rejected: {e}"),
            SessionError::ShapeMismatch { hosts, inputs } => {
                write!(f, "{inputs} rank inputs for {hosts} participating hosts")
            }
            SessionError::RaggedInputs => write!(f, "rank inputs have different lengths"),
            SessionError::EmptyData => write!(f, "collective issued with no data"),
            SessionError::NoHosts => write!(f, "no participating hosts"),
            SessionError::HostNotInPlan { host } => {
                write!(
                    f,
                    "host {host:?} is not part of the admitted reduction tree"
                )
            }
            SessionError::DuplicateHost { host } => {
                write!(f, "host {host:?} appears twice in the participant list")
            }
            SessionError::IndexOutOfRange { index, total_elems } => {
                write!(
                    f,
                    "sparse index {index} outside the {total_elems}-element domain"
                )
            }
            SessionError::LossWithoutRetransmit => {
                write!(
                    f,
                    "link_drop_prob > 0 without retransmit_after: drops would stall the run"
                )
            }
            SessionError::ZeroRetransmitTimeout => {
                write!(
                    f,
                    "retransmit_after = Some(0): a zero-delay timer would loop without advancing time"
                )
            }
            SessionError::ZeroTelemetryBucket => {
                write!(f, "telemetry bucket_ns = 0: a bucket spans at least 1 ns")
            }
            SessionError::ZeroSize { field } => write!(f, "{field} = 0: expected at least 1"),
            SessionError::BeyondWireIndex { field, given } => write!(
                f,
                "{field} = {given}: expected at most {} (a 32-bit wire index)",
                u32::MAX
            ),
            SessionError::InvalidDropProbability { given } => {
                write!(f, "link_drop_prob = {given}: expected a value in [0, 1)")
            }
            SessionError::InvalidSwitchModel(why) => {
                write!(f, "invalid switch model: {why}")
            }
            SessionError::ReproducibleViaMismatch => {
                write!(
                    f,
                    "reproducible(true) with a via() handle not admitted for tree aggregation"
                )
            }
            SessionError::HandleReleased { id } => {
                write!(f, "collective handle #{id} was already released")
            }
            SessionError::BlockIdOverflow { iteration, blocks } => write!(
                f,
                "iteration {iteration} of {blocks} blocks runs past the 32-bit wire block ids"
            ),
            SessionError::WakeTagOverflow(e) => write!(f, "iteration without a wake tag: {e}"),
            SessionError::Unfinished { ranks } => {
                write!(f, "ranks {ranks:?} did not receive their whole result")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<AdmissionError> for SessionError {
    fn from(e: AdmissionError) -> Self {
        SessionError::Admission(e)
    }
}

/// Sparse storage policy along the tree: the paper stores data "in hash
/// tables in the leaves switches, and in an array in the root switch"
/// because sparse data densifies toward the root.
#[derive(Debug, Clone, Copy)]
pub struct SparsePolicy {
    /// Hash slots per block at non-root switches.
    pub hash_slots: usize,
    /// Spill-buffer capacity at non-root switches.
    pub spill_cap: usize,
    /// Block span in elements (≈ pairs-per-packet / density).
    pub span: usize,
    /// Use array storage at the root (otherwise hash everywhere).
    pub array_at_root: bool,
}

/// [`SessionError::ZeroSize`] naming the first of `sizes` that is 0.
fn nonzero(sizes: [(&'static str, usize); 3]) -> Result<(), SessionError> {
    match sizes.into_iter().find(|&(_, size)| size == 0) {
        Some((field, _)) => Err(SessionError::ZeroSize { field }),
        None => Ok(()),
    }
}

/// [`SessionError::BeyondWireIndex`] naming `field` if `size` does not fit
/// the wire's 32-bit index.
fn wire_index(field: &'static str, size: usize) -> Result<(), SessionError> {
    match u32::try_from(size) {
        Ok(_) => Ok(()),
        Err(_) => Err(SessionError::BeyondWireIndex { field, given: size }),
    }
}

impl SparsePolicy {
    /// A block spans at least one index and no more than a 32-bit wire
    /// index reaches, and the hash storage of a non-root switch has a slot
    /// and a spill entry at least (checked whether or not the tree has
    /// such a switch).
    fn check(&self) -> Result<(), SessionError> {
        nonzero([
            ("SparsePolicy::span", self.span),
            ("SparsePolicy::hash_slots", self.hash_slots),
            ("SparsePolicy::spill_cap", self.spill_cap),
        ])?;
        wire_index("SparsePolicy::span", self.span)
    }

    /// The storage a switch of the tree uses: an array at the root when
    /// [`array_at_root`](Self::array_at_root), a hash table elsewhere.
    pub fn storage_at(&self, root: bool) -> SparseStorageKind {
        if root && self.array_at_root {
            SparseStorageKind::Array { span: self.span }
        } else {
            SparseStorageKind::Hash {
                slots: self.hash_slots,
                spill_cap: self.spill_cap,
            }
        }
    }
}

impl Default for SparsePolicy {
    fn default() -> Self {
        // 10 packets of pairs per block at the paper's 128-pair packet, a
        // spill buffer of one packet, array storage at the densified root.
        Self {
            hash_slots: 1024,
            spill_cap: 128,
            span: 1280,
            array_at_root: true,
        }
    }
}

/// Session-wide tuning: packetization, calibrated switch rate, fault
/// handling and determinism knobs shared by every collective the session
/// runs (individual collectives can override the seed and window).
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Packet payload in elements (dense) — the paper's 256×f32 = 1 KiB.
    pub elems_per_packet: usize,
    /// Pairs per packet (sparse) — the paper's 128 pairs = 1 KiB.
    pub pairs_per_packet: usize,
    /// How switch processing time is modeled:
    /// [`SwitchModel::RateLimited`] (a serial pipeline; the default is the
    /// PsPIN-calibrated rate, and an infinite rate is no processing delay)
    /// or [`SwitchModel::Hpu`] (event-driven multi-core handler scheduling
    /// per [`flare_net::compute`]).
    pub switch_model: SwitchModel,
    /// Arms host retransmission, dense and sparse (None = reliable
    /// network), and is its *initial* timeout: how long a host waits on a
    /// block while its flow has not measured a round trip yet. From the
    /// first result on, deadlines follow the fabric
    /// ([`RttEstimate`]); this value remains the
    /// cap of a block's exponential backoff. It does not have to be
    /// tuned: far below the round trip it costs a few probe packets, far
    /// above it the first iteration of a flow whose first packets are
    /// lost.
    pub retransmit_after: Option<Time>,
    /// RNG seed (loss injection etc.).
    pub seed: u64,
    /// Packet size in bytes quoted to admission control.
    pub packet_bytes: usize,
    /// Drop probability injected on every link, in `[0, 1)` (0.0 =
    /// lossless; anything else is rejected at [`Collective::run`] with
    /// [`SessionError::InvalidDropProbability`]). Pair
    /// with [`Tuning::retransmit_after`]: switch-side duplicate rejection
    /// (child bitmaps dense, shard-sequence tracking sparse) absorbs the
    /// retransmissions (paper Section 4.1).
    pub link_drop_prob: f64,
    /// Fabric telemetry capture (`None` = off, the default). When set,
    /// every run records windowed per-link utilization, HPU occupancy
    /// timelines and flow-lifecycle trace events, returned as
    /// [`RunReport::trace`]. Capture never perturbs the schedule:
    /// makespans and results are bit-identical with telemetry on or off.
    /// A zero `bucket_ns` is rejected at
    /// [`Collective::run`] with [`SessionError::ZeroTelemetryBucket`].
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            elems_per_packet: 256,
            pairs_per_packet: 128,
            // 512 cores / 1024 cycles per 1 KiB packet = 0.5 pkt/ns ≈
            // 512 B/ns — the full-switch dense aggregation rate measured
            // on the PsPIN engine.
            switch_model: SwitchModel::calibrated(),
            retransmit_after: None,
            seed: 7,
            packet_bytes: 1024,
            link_drop_prob: 0.0,
            telemetry: None,
        }
    }
}

impl Tuning {
    /// Whether links drop packets ([`link_drop_prob`](Self::link_drop_prob)
    /// above 0).
    pub(crate) fn lossy(&self) -> bool {
        self.link_drop_prob > 0.0
    }

    /// The knobs a run actually uses: a copy, with every combination a
    /// simulation cannot finish under turned into a typed error. The one
    /// place these are checked, for [`Collective::run`] and for
    /// engine-style drivers (`flare_workloads::traffic`) alike.
    pub fn validated(&self) -> Result<Tuning, SessionError> {
        nonzero([
            ("Tuning::elems_per_packet", self.elems_per_packet),
            ("Tuning::pairs_per_packet", self.pairs_per_packet),
            ("Tuning::packet_bytes", self.packet_bytes),
        ])?;
        wire_index("Tuning::pairs_per_packet", self.pairs_per_packet)?;
        if self.retransmit_after == Some(0) {
            // A zero-delay timer re-arms at the same instant forever,
            // flooding the event queue without time ever advancing.
            return Err(SessionError::ZeroRetransmitTimeout);
        }
        if self.telemetry.is_some_and(|t| t.bucket_ns == 0) {
            return Err(SessionError::ZeroTelemetryBucket);
        }
        if !(0.0..1.0).contains(&self.link_drop_prob) {
            return Err(SessionError::InvalidDropProbability {
                given: self.link_drop_prob.to_string(),
            });
        }
        if self.lossy() && self.retransmit_after.is_none() {
            // A drop with no retransmission stalls the run forever; fail
            // fast with a typed error instead of panicking mid-sim.
            return Err(SessionError::LossWithoutRetransmit);
        }
        // Catch a model no run can finish under here, not as a panic deep
        // inside switch installation.
        self.switch_model
            .validate()
            .map_err(SessionError::InvalidSwitchModel)?;
        Ok(self.clone())
    }
}

/// Builder for a [`FlareSession`]; see [`FlareSession::builder`].
#[derive(Debug)]
pub struct FlareSessionBuilder {
    topology: Topology,
    switch_memory: u64,
    tuning: Tuning,
    hosts: Option<Vec<NodeId>>,
}

impl FlareSessionBuilder {
    /// Per-switch working-memory budget for admission control (the paper's
    /// PsPIN switch has 64 clusters × 1 MiB of L1; default 64 MiB).
    pub fn switch_memory(mut self, bytes: u64) -> Self {
        self.switch_memory = bytes;
        self
    }

    /// Restrict the default participant set (defaults to every host in the
    /// topology).
    pub fn hosts(mut self, hosts: impl Into<Vec<NodeId>>) -> Self {
        self.hosts = Some(hosts.into());
        self
    }

    /// Typed switch compute model: `RateLimited(rate)` or `Hpu(params)` —
    /// the latter schedules every handler onto a concrete
    /// HPU core (hierarchical FCFS, per-subset queueing) with service
    /// times derived from [`flare_model::SwitchParams`].
    pub fn switch_model(mut self, model: SwitchModel) -> Self {
        self.tuning.switch_model = model;
        self
    }

    /// Arm host retransmission for dense and sparse collectives, with
    /// `timeout` as the initial timeout — until a flow has measured its
    /// round trips, see [`Tuning::retransmit_after`] — (None = reliable
    /// network). `Some(0)` is rejected at
    /// [`Collective::run`] with [`SessionError::ZeroRetransmitTimeout`]:
    /// a zero-delay timer would re-arm at the same instant forever.
    pub fn retransmit_after(mut self, timeout: Option<Time>) -> Self {
        self.tuning.retransmit_after = timeout;
        self
    }

    /// Default RNG seed for simulation runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.tuning.seed = seed;
        self
    }

    /// Inject packet loss on every link with probability `p` in `[0, 1)`
    /// (pair with [`retransmit_after`](Self::retransmit_after) to
    /// recover; a `p` outside the range is rejected at [`Collective::run`]
    /// with [`SessionError::InvalidDropProbability`]). Both
    /// dense and sparse collectives recover: hosts retransmit overdue
    /// blocks, switches reject the duplicates (child bitmaps dense,
    /// shard-sequence tracking sparse), replay completed results from
    /// their caches and re-send a cached aggregate upward once per round of
    /// retransmissions (paper Section 4.1). Drops are decided by a
    /// per-link-direction RNG stream derived from the run seed, so a
    /// lossy run is bitwise-reproducible.
    pub fn link_drop_prob(mut self, p: f64) -> Self {
        self.tuning.link_drop_prob = p;
        self
    }

    /// Ignores `n`: every run drains one event queue on the caller's
    /// thread. Kept only for the benchmark package's `par2` probe;
    /// ROADMAP item 13(h) deletes it together with that probe.
    #[doc(hidden)]
    pub fn threads(self, _n: u32) -> Self {
        self
    }

    /// Capture fabric telemetry on every run (see [`Tuning::telemetry`]):
    /// per-link utilization timelines, HPU occupancy and flow-lifecycle
    /// trace events, exported via [`RunReport::trace`] as a Perfetto-
    /// loadable Chrome trace or a CSV utilization dump.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.tuning.telemetry = Some(cfg);
        self
    }

    /// Build the session.
    pub fn build(self) -> FlareSession {
        let hosts = self.hosts.unwrap_or_else(|| self.topology.hosts());
        FlareSession {
            manager: NetworkManager::new(self.switch_memory),
            topology: self.topology,
            tuning: self.tuning,
            hosts,
        }
    }
}

/// An admitted collective: the network manager has computed its reduction
/// tree, assigned a unique id and reserved switch working memory. Obtain
/// via [`FlareSession::admit`], run collectives under it with
/// [`Collective::via`], release with [`FlareSession::release`].
#[derive(Debug, Clone)]
pub struct CollectiveHandle {
    plan: AllreducePlan,
    label: String,
}

impl CollectiveHandle {
    /// The unique allreduce id.
    pub fn id(&self) -> u32 {
        self.plan.id
    }

    /// The handle's label (used by the sequencer); defaults to
    /// `allreduce-<id>`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Rename the handle (e.g. to a gradient-tensor name for sequencing).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The admitted plan: reduction tree, algorithm, reservations, window.
    pub fn plan(&self) -> &AllreducePlan {
        &self.plan
    }

    /// The reduction tree's root switch.
    pub fn root_switch(&self) -> NodeId {
        self.plan.tree.root
    }

    /// The selected aggregation algorithm.
    pub fn algorithm(&self) -> AggKind {
        self.plan.algorithm
    }

    /// Largest single-switch working-memory reservation, in bytes.
    pub fn reserved_bytes(&self) -> u64 {
        self.plan.max_reserved_bytes()
    }

    /// Recommended in-flight blocks per host ([`AllreducePlan::window`]):
    /// the paper's ℛ where hosts outnumber blocks on a lossless fabric of
    /// serial pipelines, the stagger-spread window elsewhere.
    pub fn window(&self) -> usize {
        self.plan.window
    }
}

/// A live Flare deployment: topology + network manager + tuning. The entry
/// point for both allreduces; see the [module docs](self).
pub struct FlareSession {
    /// Lent to the simulation for the length of a run
    /// ([`crate::wiring::run_fabric`]) — no per-collective deep copy.
    pub(crate) topology: Topology,
    manager: NetworkManager,
    tuning: Tuning,
    hosts: Vec<NodeId>,
}

impl FlareSession {
    /// Start building a session over `topology`.
    pub fn builder(topology: Topology) -> FlareSessionBuilder {
        FlareSessionBuilder {
            topology,
            switch_memory: 64 << 20,
            tuning: Tuning::default(),
            hosts: None,
        }
    }

    /// A session over `topology` with default tuning (all hosts
    /// participate, 64 MiB switch memory).
    pub fn new(topology: Topology) -> Self {
        Self::builder(topology).build()
    }

    /// The topology this session runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The default participant set.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The session-wide tuning knobs.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// Number of currently admitted (unreleased) collectives.
    pub fn active_collectives(&self) -> usize {
        self.manager.active_count()
    }

    /// Working memory currently reserved on `switch`, in bytes.
    pub fn reserved_on(&self, switch: NodeId) -> u64 {
        self.manager.used_on(switch)
    }

    /// Explicitly admit a collective of `data_bytes` per host: computes the
    /// reduction tree (rerouting around saturated switches), selects the
    /// aggregation algorithm, reserves switch memory. The handle stays
    /// admitted — and its memory reserved — until [`release`](Self::release).
    pub fn admit(
        &mut self,
        data_bytes: u64,
        reproducible: bool,
    ) -> Result<CollectiveHandle, SessionError> {
        self.admit_on(None, data_bytes, reproducible)
    }

    /// [`admit`](Self::admit) over an explicit host set.
    pub fn admit_on(
        &mut self,
        hosts: Option<&[NodeId]>,
        data_bytes: u64,
        reproducible: bool,
    ) -> Result<CollectiveHandle, SessionError> {
        let hosts = hosts.unwrap_or(&self.hosts);
        check_participants(hosts)?;
        let tuning = &self.tuning;
        // What one full packet costs a serial pipeline: what sizes the
        // window of an unstaggered flow, except on a lossy fabric.
        let wire = (HEADER_BYTES + tuning.packet_bytes) as u32;
        let service_ns = tuning.switch_model.service_ns(wire);
        let req = AllreduceRequest {
            data_bytes: data_bytes.max(1),
            packet_bytes: tuning.packet_bytes,
            reproducible,
            service_ns: service_ns.filter(|_| !tuning.lossy()),
        };
        let plan = self.manager.create_allreduce(&self.topology, hosts, &req)?;
        let label = format!("allreduce-{}", plan.id);
        Ok(CollectiveHandle { plan, label })
    }

    /// Release an admitted collective, returning its switch memory to the
    /// pool.
    ///
    /// Releasing a handle whose id was already torn down (a clone of a
    /// released handle, or a manual double release) is a typed error —
    /// [`SessionError::HandleReleased`] — not a silent `false`.
    pub fn release(&mut self, handle: CollectiveHandle) -> Result<(), SessionError> {
        let id = handle.plan.id;
        if self.manager.teardown(id) {
            Ok(())
        } else {
            Err(SessionError::HandleReleased { id })
        }
    }

    /// An allreduce of `inputs` (one vector per participating host, in
    /// host order): every rank receives the full reduction. Defaults to
    /// [`Sum`]; chain [`Collective`] methods to customize, then
    /// [`run`](Collective::run).
    pub fn allreduce<T: Element>(&mut self, inputs: Vec<Vec<T>>) -> Collective<'_, T, Sum> {
        self.collective(Payload::Dense(inputs))
    }

    /// A *sparse* allreduce over a `total_elems`-element domain:
    /// `pairs[r]` is rank `r`'s sparsified `(global index, value)` list.
    /// Storage follows the [`SparsePolicy`] (see [`Collective::policy`]).
    pub fn sparse_allreduce<T: Element>(
        &mut self,
        total_elems: usize,
        pairs: Vec<Vec<(u32, T)>>,
    ) -> Collective<'_, T, Sum> {
        self.collective(Payload::Sparse { total_elems, pairs })
    }

    fn collective<T: Element>(&mut self, payload: Payload<T>) -> Collective<'_, T, Sum> {
        Collective {
            session: self,
            op: Sum,
            payload,
            reproducible: false,
            policy: SparsePolicy::default(),
            hosts: None,
            label: None,
            window: None,
            seed: None,
            plan: None,
        }
    }
}

impl std::fmt::Debug for FlareSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlareSession")
            .field("hosts", &self.hosts.len())
            .field("active_collectives", &self.manager.active_count())
            .field("tuning", &self.tuning)
            .finish_non_exhaustive()
    }
}

/// What a collective carries.
enum Payload<T: Element> {
    /// One dense vector per rank.
    Dense(Vec<Vec<T>>),
    /// Sparsified `(index, value)` lists over a dense domain.
    Sparse {
        total_elems: usize,
        pairs: Vec<Vec<(u32, T)>>,
    },
}

/// A collective under construction. Produced by [`FlareSession::allreduce`]
/// or [`FlareSession::sparse_allreduce`]; consumed by [`run`](Collective::run).
///
/// The builder resolves everything the old free-function API made callers
/// wire by hand: admission (unless [`via`](Collective::via) supplies an
/// admitted handle), dense vs sparse switch storage, reproducible-tree
/// algorithm selection, windowing and per-rank stagger offsets.
pub struct Collective<'s, T: Element, O: ReduceOp<T>> {
    session: &'s mut FlareSession,
    op: O,
    payload: Payload<T>,
    reproducible: bool,
    policy: SparsePolicy,
    hosts: Option<Vec<NodeId>>,
    label: Option<String>,
    window: Option<usize>,
    seed: Option<u64>,
    plan: Option<AllreducePlan>,
}

impl<'s, T: Element, O: ReduceOp<T>> Collective<'s, T, O> {
    /// Use reduction operator `op` (default [`Sum`]): any built-in
    /// ([`crate::op::Min`], [`crate::op::Max`], [`crate::op::Prod`]) or a
    /// [`crate::op::Custom`] closure — flexibility point F1.
    pub fn op<O2: ReduceOp<T>>(self, op: O2) -> Collective<'s, T, O2> {
        Collective {
            session: self.session,
            op,
            payload: self.payload,
            reproducible: self.reproducible,
            policy: self.policy,
            hosts: self.hosts,
            label: self.label,
            window: self.window,
            seed: self.seed,
            plan: self.plan,
        }
    }

    /// Require bitwise reproducibility — forces the contention-free tree
    /// aggregation whose operand placement is arrival-order independent
    /// (flexibility point F3).
    pub fn reproducible(mut self, yes: bool) -> Self {
        self.reproducible = yes;
        self
    }

    /// Sparse storage policy (hash slots, spill capacity, block span, root
    /// array storage). Only meaningful for
    /// [`FlareSession::sparse_allreduce`] collectives.
    pub fn policy(mut self, policy: SparsePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Run over an explicit host subset instead of the session default.
    /// Called by this module's tests.
    pub fn on_hosts(mut self, hosts: impl Into<Vec<NodeId>>) -> Self {
        self.hosts = Some(hosts.into());
        self
    }

    /// Name the collective (shows up in handle labels and sequencing).
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Shrink the in-flight block window (default: the admitted plan's
    /// [`AllreducePlan::window`], which is the paper's ℛ where hosts
    /// outnumber blocks on a lossless fabric of serial pipelines and the
    /// stagger-spread window elsewhere). Clamped to the admitted window —
    /// the switch-memory reservation is sized for it, so growing would
    /// overrun the admission-control guarantee.
    pub fn window(mut self, blocks: usize) -> Self {
        self.window = Some(blocks);
        self
    }

    /// Override the simulation RNG seed for this run only.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Run under a pre-admitted [`CollectiveHandle`] (multi-tenant usage)
    /// instead of admitting — and releasing — a plan internally.
    pub fn via(mut self, handle: &CollectiveHandle) -> Self {
        self.plan = Some(handle.plan.clone());
        self
    }
}

impl<T: Element, O: ReduceOp<T> + Clone + 'static> Collective<'_, T, O> {
    /// Validate, admit (unless [`via`](Collective::via) was given), wire
    /// the flow, run the packet-level simulation, and release the internal
    /// admission.
    pub fn run(self) -> Result<CollectiveResult<T>, SessionError> {
        let hosts: Vec<NodeId> = match self.hosts {
            Some(h) => h,
            None => self.session.hosts.clone(),
        };
        check_participants(&hosts)?;
        let op = self.op;
        let mut tuning = self.session.tuning.validated()?;
        if let Some(seed) = self.seed {
            tuning.seed = seed;
        }

        // Resolve the payload shape, the per-rank inputs and the bytes per
        // host quoted to admission control.
        let (shape, inputs, data_bytes) = match self.payload {
            Payload::Dense(inputs) => {
                if inputs.len() != hosts.len() {
                    return Err(SessionError::ShapeMismatch {
                        hosts: hosts.len(),
                        inputs: inputs.len(),
                    });
                }
                let n = inputs[0].len();
                if n == 0 {
                    return Err(SessionError::EmptyData);
                }
                if inputs.iter().any(|v| v.len() != n) {
                    return Err(SessionError::RaggedInputs);
                }
                let inputs: Vec<_> = inputs.into_iter().map(FlowInput::Dense).collect();
                (FlowShape::Dense { elems: n }, inputs, n * T::WIRE_BYTES)
            }
            Payload::Sparse { total_elems, pairs } => {
                if pairs.len() != hosts.len() {
                    return Err(SessionError::ShapeMismatch {
                        hosts: hosts.len(),
                        inputs: pairs.len(),
                    });
                }
                if total_elems == 0 {
                    return Err(SessionError::EmptyData);
                }
                self.policy.check()?;
                if let Some(&(index, _)) = pairs
                    .iter()
                    .flat_map(|p| p.iter())
                    .find(|&&(i, _)| i as usize >= total_elems)
                {
                    return Err(SessionError::IndexOutOfRange { index, total_elems });
                }
                let nnz: usize = pairs.iter().map(Vec::len).sum();
                let shape = FlowShape::Sparse {
                    total_elems,
                    policy: self.policy,
                };
                let inputs: Vec<_> = pairs.into_iter().map(FlowInput::Sparse).collect();
                (shape, inputs, nnz / hosts.len() * (4 + T::WIRE_BYTES))
            }
        };

        // Admission: explicit handle or an internal admit-run-release.
        let (mut plan, owned) = match self.plan {
            Some(plan) => {
                // A via() handle (or a clone) may have been released, and
                // its plan was admitted with its own reproducibility flag.
                if !self.session.manager.is_active(plan.id) {
                    return Err(SessionError::HandleReleased { id: plan.id });
                }
                if self.reproducible && plan.algorithm != AggKind::Tree {
                    return Err(SessionError::ReproducibleViaMismatch);
                }
                (plan, false)
            }
            None => {
                let handle =
                    self.session
                        .admit_on(Some(&hosts), data_bytes as u64, self.reproducible)?;
                (handle.plan, true)
            }
        };
        if let Some(w) = self.window {
            // Only shrink: the admitted switch-memory reservation is sized
            // for the plan's window, so growing it would overrun the
            // admission-control guarantee.
            plan.window = w.clamp(1, plan.window);
        }
        let id = plan.id;
        let wiring = FlowWiring::new(plan, hosts, shape, &tuning).inspect_err(|_| {
            if owned {
                self.session.manager.teardown(id);
            }
        })?;

        let participants = inputs.into_iter().enumerate().map(|(rank, input)| {
            let rtt = RttEstimate::default();
            let host = wiring.host(rank, 0, rtt, op.clone(), input)?;
            Ok((wiring.hosts()[rank], host as Box<dyn HostProgram>))
        });
        let participants = participants.collect::<Result<Vec<_>, SessionError>>();
        let participants = participants.inspect_err(|_| {
            if owned {
                self.session.manager.teardown(id);
            }
        })?;
        let (net, trace, switches, ranks) = run_fabric(
            self.session,
            &tuning,
            None,
            &[&wiring],
            op,
            participants,
            |sim| wiring.take_results::<T, O>(sim),
        );
        // The most blocks, and working memory, any switch held open.
        let open_peak = switches.iter().map(|s| s.stats.open_peak).max();
        let open_peak_bytes = switches.iter().map(|s| s.open_bytes).max();
        if owned {
            self.session.manager.teardown(id);
        }
        let ranks = ranks?;

        // Name the collective's trace track after its label (or the
        // default `allreduce-<id>`) so Perfetto shows a readable lane.
        let trace = trace.map(|mut t| {
            let label = self
                .label
                .clone()
                .unwrap_or_else(|| format!("allreduce-{id}"));
            t.tracks = vec![(id as u64, label)];
            Box::new(t)
        });
        let plan = wiring.plan();
        let report = RunReport {
            collective: id,
            label: self.label,
            algorithm: plan.algorithm,
            window: plan.window,
            reserved_bytes: plan.max_reserved_bytes(),
            open_peak: open_peak.unwrap_or(0),
            open_peak_bytes: open_peak_bytes.unwrap_or(0),
            tree_depth: plan.tree.max_depth(),
            net,
            tenants: None,
            trace,
        };
        Ok(CollectiveResult { ranks, report })
    }
}

/// Unified outcome report of one collective run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The allreduce id the run executed under.
    pub collective: u32,
    /// The collective's label, if [`Collective::named`] was used.
    pub label: Option<String>,
    /// Aggregation algorithm selected by the Section 6.4 policy.
    pub algorithm: AggKind,
    /// In-flight blocks per host: the admitted plan's window
    /// ([`AllreducePlan::window`]: the paper's ℛ where hosts outnumber
    /// blocks on a lossless fabric of serial pipelines, the stagger-spread
    /// window elsewhere), or a smaller override.
    pub window: usize,
    /// Largest single-switch working-memory reservation, in bytes.
    pub reserved_bytes: u64,
    /// Most blocks one switch held open at once
    /// ([`ProgramStats::open_peak`]). Every tree switch of a collective
    /// reserves its admitted window of blocks, so a value above that
    /// window is a switch whose open blocks outgrew its reservation.
    ///
    /// [`ProgramStats::open_peak`]: crate::switch_prog::ProgramStats::open_peak
    pub open_peak: usize,
    /// Largest working memory a switch's open blocks held at once, in
    /// bytes: its most blocks open at once ([`ProgramStats::open_peak`])
    /// × `M` × packet bytes ([`AllreducePlan::block_bytes`]), the measured
    /// counterpart of [`reserved_bytes`](Self::reserved_bytes). A flow
    /// whose ranks are staggered can exceed its reservation: a block stays
    /// open until its last rank reaches it.
    ///
    /// [`ProgramStats::open_peak`]: crate::switch_prog::ProgramStats::open_peak
    pub open_peak_bytes: u64,
    /// Depth of the reduction tree (0 = single switch).
    pub tree_depth: usize,
    /// The network simulator's measurements.
    pub net: NetReport,
    /// Per-tenant tail metrics and fabric contention stats; `Some` only
    /// for multi-tenant traffic-engine runs (see
    /// [`crate::report::TenantSection`]), `None` for single collectives.
    pub tenants: Option<crate::report::TenantSection>,
    /// Captured fabric telemetry; `Some` only when the session enabled it
    /// (builder [`FlareSessionBuilder::telemetry`] / [`Tuning::telemetry`]).
    /// Export with [`TelemetryReport::chrome_trace`] (Perfetto-loadable;
    /// it carries the per-link utilization series as counter tracks).
    /// Boxed: the capture can dwarf the rest of the report.
    pub trace: Option<Box<TelemetryReport>>,
}

impl RunReport {
    /// Completion time of the slowest rank, in ns (falls back to the
    /// simulation makespan if no rank marked itself done).
    pub fn completion_ns(&self) -> Time {
        self.net.last_done.unwrap_or(self.net.makespan)
    }

    /// Total bytes that traversed network links (each hop counted).
    pub fn total_link_bytes(&self) -> u64 {
        self.net.total_link_bytes
    }

    /// Packets dropped by loss injection.
    pub fn drops(&self) -> u64 {
        self.net.drops
    }
}

/// The typed result of a collective: per-rank output vectors plus the
/// unified [`RunReport`].
#[derive(Debug, Clone)]
pub struct CollectiveResult<T> {
    ranks: Vec<RankResult<T>>,
    /// Timing, traffic and plan metadata for the run.
    pub report: RunReport,
}

impl<T> CollectiveResult<T> {
    /// All per-rank results, in participant order.
    ///
    /// A dense collective's ranks each own their vector: the rank's input
    /// buffer, reduced in place. A sparse collective's ranks share storage
    /// wherever their participants accepted the same result shards in the
    /// same order: on a lossless fabric that is every rank (the switches
    /// multicast one set of result shards), so the run holds one vector,
    /// not one per rank. On a lossy fabric a rank that received a replayed
    /// shard later than the others holds a vector of its own. Shared or
    /// not, every rank's vector is built by the same rules, bit for bit.
    pub fn ranks(&self) -> &[RankResult<T>] {
        &self.ranks
    }

    /// Rank `r`'s result vector.
    pub fn rank(&self, r: usize) -> &[T] {
        &self.ranks[r]
    }
}

impl<T: Clone> CollectiveResult<T> {
    /// Consume into the per-rank vectors: a dense collective's are its
    /// input buffers, uncopied; a shared sparse vector is copied for every
    /// rank but the last that holds it.
    pub fn into_ranks(self) -> Vec<Vec<T>> {
        self.ranks.into_iter().map(RankResult::into_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::stagger_window;
    use crate::op::{golden_reduce, Max};
    use flare_net::LinkSpec;
    use proptest::prelude::*;

    fn star_session(hosts: usize) -> FlareSession {
        let (topo, _sw, _hosts) = Topology::star(hosts, LinkSpec::hundred_gig());
        FlareSession::builder(topo).build()
    }

    #[test]
    fn builder_defaults_cover_all_hosts() {
        let session = star_session(5);
        assert_eq!(session.hosts().len(), 5);
        assert_eq!(session.active_collectives(), 0);
        assert_eq!(session.tuning().elems_per_packet, 256);
    }

    #[test]
    fn allreduce_defaults_to_sum_and_matches_golden() {
        let mut session = star_session(4);
        let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r + 1; 100]).collect();
        let want = golden_reduce(&Sum, &inputs);
        let out = session.allreduce(inputs).run().unwrap();
        assert_eq!(out.ranks().len(), 4);
        for r in out.ranks() {
            assert_eq!(*r, want);
        }
        assert_eq!(
            session.active_collectives(),
            0,
            "internal admission released"
        );
    }

    #[test]
    fn a_dense_collective_hands_back_its_input_buffers_uncopied() {
        // Reduced in place and read back without a copy: a caller that
        // refills the buffers for its next run allocates nothing.
        let mut session = star_session(3);
        let inputs: Vec<Vec<i32>> = (0..3).map(|r| vec![r; 600]).collect();
        let buffers: Vec<*const i32> = inputs.iter().map(|v| v.as_ptr()).collect();
        let out = session.allreduce(inputs).run().unwrap().into_ranks();
        assert_eq!(out.iter().map(|v| v.as_ptr()).collect::<Vec<_>>(), buffers);
        assert!(out.iter().all(|v| *v == [3; 600]));
    }

    #[test]
    fn op_builder_swaps_operator() {
        let mut session = star_session(3);
        let inputs = vec![vec![3i32; 8], vec![-7; 8], vec![5; 8]];
        let out = session.allreduce(inputs).op(Max).run().unwrap();
        assert_eq!(out.rank(0), &[5i32; 8][..]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut session = star_session(4);
        let err = session.allreduce(vec![vec![1i32; 4]; 3]).run().unwrap_err();
        assert_eq!(
            err,
            SessionError::ShapeMismatch {
                hosts: 4,
                inputs: 3
            }
        );
    }

    #[test]
    fn ragged_and_empty_inputs_are_rejected() {
        let mut session = star_session(2);
        let err = session
            .allreduce(vec![vec![1i32; 4], vec![1i32; 5]])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::RaggedInputs);
        let err = session
            .allreduce(vec![Vec::<i32>::new(), Vec::new()])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::EmptyData);
    }

    #[test]
    fn admit_reserves_until_release() {
        let mut session = star_session(4);
        let handle = session.admit(1 << 20, false).unwrap();
        assert_eq!(session.active_collectives(), 1);
        assert!(session.reserved_on(handle.root_switch()) > 0);
        let root = handle.root_switch();
        assert!(session.release(handle).is_ok());
        assert_eq!(session.active_collectives(), 0);
        assert_eq!(session.reserved_on(root), 0);
    }

    #[test]
    fn via_runs_under_an_admitted_handle_without_releasing_it() {
        let mut session = star_session(4);
        let mut handle = session.admit(400, false).unwrap();
        handle.set_label("layer0.grad");
        let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r; 100]).collect();
        let out = session.allreduce(inputs).via(&handle).run().unwrap();
        assert_eq!(out.report.collective, handle.id());
        assert_eq!(
            session.active_collectives(),
            1,
            "explicit handles persist across runs"
        );
        session.release(handle).unwrap();
    }

    #[test]
    fn reproducible_forces_tree_aggregation() {
        let mut session = star_session(4);
        let inputs: Vec<Vec<f32>> = (0..4).map(|r| vec![r as f32; 4096]).collect();
        let out = session.allreduce(inputs).reproducible(true).run().unwrap();
        assert_eq!(out.report.algorithm, AggKind::Tree);
    }

    #[test]
    fn loss_without_retransmit_is_rejected_up_front() {
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo).link_drop_prob(0.05).build();
        let err = session
            .allreduce(vec![vec![1i32; 64]; 3])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::LossWithoutRetransmit);
    }

    #[test]
    fn drop_probability_outside_zero_to_one_is_rejected_up_front() {
        // At 1.0 and above every packet drops and the hosts re-arm their
        // timers for ever (the run used to hang); below zero and NaN
        // used to run lossless without a word.
        for (p, given) in [(1.0, "1"), (1.5, "1.5"), (-0.5, "-0.5"), (f64::NAN, "NaN")] {
            let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
            let mut session = FlareSession::builder(topo)
                .link_drop_prob(p)
                .retransmit_after(Some(200_000))
                .build();
            let err = session
                .allreduce(vec![vec![1i32; 64]; 3])
                .run()
                .unwrap_err();
            let given = given.to_string();
            assert_eq!(err, SessionError::InvalidDropProbability { given });
        }
    }

    #[test]
    fn reproducible_via_a_non_tree_handle_is_rejected() {
        let mut session = star_session(4);
        // Large request ⇒ single-buffer plan (not tree).
        let handle = session.admit(1 << 20, false).unwrap();
        assert_ne!(handle.algorithm(), AggKind::Tree);
        let err = session
            .allreduce(vec![vec![1.0f32; 64]; 4])
            .reproducible(true)
            .via(&handle)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ReproducibleViaMismatch);
        // A tree-admitted handle honors the request.
        let tree = session.admit(4 << 10, true).unwrap();
        assert_eq!(tree.algorithm(), AggKind::Tree);
        let out = session
            .allreduce(vec![vec![1.0f32; 64]; 4])
            .reproducible(true)
            .via(&tree)
            .run()
            .unwrap();
        assert_eq!(out.report.algorithm, AggKind::Tree);
        session.release(handle).unwrap();
        session.release(tree).unwrap();
    }

    #[test]
    fn cloned_handles_cannot_run_after_release() {
        let mut session = star_session(4);
        let handle = session.admit(4 << 10, false).unwrap();
        let stale = handle.clone();
        session.release(handle).unwrap();
        let err = session
            .allreduce(vec![vec![1i32; 64]; 4])
            .via(&stale)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::HandleReleased { id: stale.id() });
    }

    #[test]
    fn sparse_on_a_lossy_session_completes_with_correct_results() {
        // Regression for the old `SparseLossUnsupported` early-return:
        // sparse collectives now ride the shard-aware retransmission
        // protocol instead of refusing to run.
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .link_drop_prob(0.05)
            .retransmit_after(Some(100_000))
            .build();
        let pairs: Vec<Vec<(u32, f32)>> = (0..3)
            .map(|r| (0..40).map(|i| (i * 25 + r, 1.0f32)).collect())
            .collect();
        let out = session.sparse_allreduce(1000, pairs).run().unwrap();
        let total: f32 = out.rank(0).iter().sum();
        assert_eq!(total, 120.0, "every contributed pair counted exactly once");
        for r in out.ranks() {
            assert_eq!(r, out.rank(0));
        }
    }

    #[test]
    fn zero_retransmit_timeout_is_rejected_up_front() {
        // `Some(0)` used to arm a zero-delay wake_in loop that flooded
        // the event queue; it must be a typed error for every collective.
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .retransmit_after(Some(0))
            .build();
        let err = session
            .allreduce(vec![vec![1i32; 64]; 3])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroRetransmitTimeout);
        let err = session
            .sparse_allreduce(100, vec![vec![(1u32, 1.0f32)]; 3])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroRetransmitTimeout);
    }

    #[test]
    fn zero_telemetry_bucket_is_rejected_up_front() {
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .telemetry(flare_net::TelemetryConfig { bucket_ns: 0 })
            .build();
        let err = session
            .allreduce(vec![vec![1i32; 64]; 3])
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroTelemetryBucket);
    }

    /// What a 3-host sparse collective under `policy` is rejected with.
    fn sparse_rejected(session: &mut FlareSession, policy: SparsePolicy) -> SessionError {
        let pairs = vec![vec![(1u32, 1.0f32)]; 3];
        let run = session.sparse_allreduce(100, pairs).policy(policy).run();
        run.expect_err("rejected")
    }

    fn zero(field: &'static str) -> SessionError {
        SessionError::ZeroSize { field }
    }

    #[test]
    fn a_zero_sparse_span_is_a_typed_error() {
        let policy = SparsePolicy {
            span: 0,
            ..SparsePolicy::default()
        };
        let err = sparse_rejected(&mut star_session(3), policy);
        assert_eq!(err, zero("SparsePolicy::span"));
    }

    #[test]
    fn zero_hash_slots_are_a_typed_error() {
        // Hash storage at the root too, so the star's switch keeps a table.
        let policy = SparsePolicy {
            hash_slots: 0,
            array_at_root: false,
            ..SparsePolicy::default()
        };
        let err = sparse_rejected(&mut star_session(3), policy);
        assert_eq!(err, zero("SparsePolicy::hash_slots"));
    }

    #[test]
    fn a_zero_spill_cap_is_a_typed_error() {
        let policy = SparsePolicy {
            spill_cap: 0,
            array_at_root: false,
            ..SparsePolicy::default()
        };
        let err = sparse_rejected(&mut star_session(3), policy);
        assert_eq!(err, zero("SparsePolicy::spill_cap"));
    }

    #[test]
    fn zero_elems_per_packet_are_a_typed_error() {
        let mut session = star_session(3);
        session.tuning.elems_per_packet = 0;
        let run = session.allreduce(vec![vec![1i32; 64]; 3]).run();
        assert_eq!(run.err(), Some(zero("Tuning::elems_per_packet")));
    }

    #[test]
    fn zero_pairs_per_packet_are_a_typed_error() {
        let mut session = star_session(3);
        session.tuning.pairs_per_packet = 0;
        let err = sparse_rejected(&mut session, SparsePolicy::default());
        assert_eq!(err, zero("Tuning::pairs_per_packet"));
    }

    #[test]
    fn zero_packet_bytes_are_a_typed_error() {
        let mut session = star_session(3);
        session.tuning.packet_bytes = 0;
        let run = session.allreduce(vec![vec![1i32; 64]; 3]).run();
        assert_eq!(run.err(), Some(zero("Tuning::packet_bytes")));
    }

    #[test]
    fn sizes_beyond_a_32_bit_wire_index_are_typed_errors() {
        // A span of 2^32 used to truncate to a zero divisor in the sparse
        // host, and such a pairs_per_packet to fail its 32-bit conversion.
        let given = 1usize << 32;
        let beyond = |field| SessionError::BeyondWireIndex { field, given };
        let policy = SparsePolicy {
            span: given,
            ..SparsePolicy::default()
        };
        let err = sparse_rejected(&mut star_session(3), policy);
        assert_eq!(err, beyond("SparsePolicy::span"));
        let mut session = star_session(3);
        session.tuning.pairs_per_packet = given;
        let err = sparse_rejected(&mut session, SparsePolicy::default());
        assert_eq!(err, beyond("Tuning::pairs_per_packet"));
    }

    #[test]
    fn sparse_indices_outside_the_domain_are_rejected() {
        let mut session = star_session(2);
        let err = session
            .sparse_allreduce(1000, vec![vec![(5000u32, 1.0f32)], Vec::new()])
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IndexOutOfRange {
                index: 5000,
                total_elems: 1000
            }
        );
    }

    #[test]
    fn hosts_outside_an_admitted_plan_error_instead_of_panicking() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .hosts(ft.hosts[..2].to_vec())
            .build();
        let handle = session.admit(4 << 10, false).unwrap();
        // The plan covers hosts 0-1 only; running on 2-3 must be a typed
        // error, not a host_attach HashMap panic.
        let err = session
            .allreduce(vec![vec![1i32; 64]; 2])
            .on_hosts(ft.hosts[2..4].to_vec())
            .via(&handle)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::HostNotInPlan { host: ft.hosts[2] });
        session.release(handle).unwrap();
    }

    #[test]
    fn window_override_cannot_exceed_the_admitted_reservation() {
        let mut session = star_session(4);
        let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r; 40_000]).collect();
        let probe = session.allreduce(inputs.clone()).run().unwrap();
        let admitted = probe.report.window;
        let out = session
            .allreduce(inputs)
            .window(admitted * 100) // would overrun the switch reservation
            .run()
            .unwrap();
        assert_eq!(out.report.window, admitted, "grow requests are clamped");
    }

    #[test]
    fn double_release_is_a_typed_error() {
        // Releasing a clone of an already-released handle used to return
        // a silent `false`; it must surface as HandleReleased.
        let mut session = star_session(4);
        let handle = session.admit(4 << 10, false).unwrap();
        let dup = handle.clone();
        let id = handle.id();
        assert_eq!(session.release(handle), Ok(()));
        assert_eq!(
            session.release(dup),
            Err(SessionError::HandleReleased { id })
        );
        assert_eq!(session.active_collectives(), 0);
    }

    #[test]
    fn admitting_an_empty_host_set_is_a_typed_error() {
        let mut session = star_session(3);
        let err = session.admit_on(Some(&[]), 1024, false).unwrap_err();
        assert_eq!(err, SessionError::NoHosts);
        assert_eq!(session.active_collectives(), 0, "nothing was admitted");
    }

    #[test]
    fn a_repeated_host_is_a_typed_error_on_every_path() {
        // Used to die inside `run` on a result sink the second rank of
        // the repeated host could never fill.
        let (topo, _sw, h) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo).build();
        let twice = vec![h[0], h[0], h[1]];
        let err = SessionError::DuplicateHost { host: h[0] };
        let inputs = vec![vec![1i32; 64]; 3];
        let run = session.allreduce(inputs.clone()).on_hosts(twice.clone());
        assert_eq!(run.run().unwrap_err(), err);
        assert_eq!(session.admit_on(Some(&twice), 256, false).unwrap_err(), err);
        let handle = session.admit(256, false).unwrap();
        let run = session.allreduce(inputs).on_hosts(twice).via(&handle);
        assert_eq!(run.run().unwrap_err(), err);
        session.release(handle).unwrap();
        assert_eq!(session.active_collectives(), 0, "nothing else was admitted");
    }

    #[test]
    fn telemetry_capture_rides_a_run_without_perturbing_it() {
        let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r; 2048]).collect();
        let mut plain = star_session(4);
        let base = plain.allreduce(inputs.clone()).run().unwrap();
        assert!(base.report.trace.is_none(), "telemetry defaults to off");
        // Lossless runs report zero drops on every link.
        assert!(base.report.net.links.iter().all(|l| l.drops == 0));

        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .telemetry(flare_net::TelemetryConfig::default())
            .build();
        let out = session.allreduce(inputs).named("grad.dense").run().unwrap();
        assert_eq!(
            out.report.net.makespan, base.report.net.makespan,
            "capture must not change the schedule"
        );
        let trace = out.report.trace.expect("telemetry was enabled");
        assert_eq!(
            trace.tracks,
            vec![(out.report.collective as u64, "grad.dense".to_string())]
        );
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == flare_net::TraceKind::FlowSubmit));
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == flare_net::TraceKind::BlockRetire));
        let json = trace.chrome_trace();
        assert!(flare_net::telemetry::validate_chrome_trace(&json).expect("valid trace") > 0);
        assert!(json.contains("grad.dense"));
    }

    #[test]
    fn empty_host_override_is_rejected() {
        let mut session = star_session(3);
        let err = session
            .allreduce(Vec::<Vec<i32>>::new())
            .on_hosts(Vec::new())
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::NoHosts);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Wherever admission sizes a window by ℛ (more hosts than blocks,
        // lossless), running the same plan at the stagger window it
        // replaced moves no simulated number: ℛ never starves the tree.
        // Stars and two-level fat trees, random host subsets, every
        // switch model.
        #[test]
        fn a_littles_law_window_runs_as_the_stagger_window_did(
            fat_tree in any::<bool>(),
            size in 12usize..64,
            per_leaf in 1usize..17,
            model in 0usize..5,
            drop in any::<u64>(),
            drop_too in any::<u64>(),
            block_pick in any::<u64>(),
        ) {
            let spec = LinkSpec::hundred_gig();
            let topo = if fat_tree {
                let leaves = size.div_ceil(per_leaf);
                Topology::fat_tree_two_level(leaves, per_leaf, 1 + size % 3, spec).0
            } else {
                Topology::star(size, spec).0
            };
            let model = match model {
                0 => SwitchModel::RateLimited(f64::INFINITY),
                1 => SwitchModel::calibrated(),
                2 => SwitchModel::RateLimited(128.0),
                3 => SwitchModel::RateLimited(64.0),
                _ => SwitchModel::Hpu(flare_net::HpuParams::paper()),
            };
            let mut session = FlareSession::builder(topo).switch_model(model).build();
            let all = session.hosts().to_vec();
            let mut hosts: Vec<NodeId> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| (drop & drop_too) >> (i % 64) & 1 == 0)
                .map(|(_, &h)| h)
                .collect();
            if hosts.len() < 2 {
                hosts = all[..2].to_vec();
            }
            // hosts / 2 ..= hosts − 1 blocks of one full f32 packet each.
            let half = hosts.len() / 2;
            let blocks = half + (block_pick % (hosts.len() - half) as u64) as usize;
            let elems = blocks * session.tuning().elems_per_packet;
            let req = AllreduceRequest {
                data_bytes: (elems * 4) as u64,
                packet_bytes: session.tuning().packet_bytes,
                reproducible: false,
                service_ns: None,
            };
            let admitted = session.admit_on(Some(&hosts), req.data_bytes, false).unwrap();
            let mut stagger = admitted.clone();
            stagger.plan.window = stagger_window(&req, hosts.len());
            prop_assert!(admitted.window() <= stagger.window());
            let mut run = |handle: &CollectiveHandle| {
                let inputs = (0..hosts.len()).map(|r| vec![r as f32; elems]).collect();
                let collective = session.allreduce(inputs).on_hosts(hosts.clone());
                let report = collective.via(handle).run().unwrap().report;
                let net = &report.net;
                [net.makespan, net.events, net.total_link_bytes, report.completion_ns()]
            };
            let (at_r, at_stagger) = (run(&admitted), run(&stagger));
            prop_assert_eq!(
                at_r,
                at_stagger,
                "[makespan, events, link bytes, completion] at windows {} and {}",
                admitted.window(),
                stagger.window()
            );
        }
    }
}
