//! Multi-tenant traffic engine: sustained job churn over one shared
//! simulation.
//!
//! Every bench and example used to run one collective at a time; this
//! module exercises the paper's headline *flexibility* claim instead — a
//! population of tenants sharing switch memory and HPU cores. A
//! [`TrafficEngine`] admits tenants through a
//! [`FlareSession`] (so admission control, reduction trees and switch
//! reservations are real), then drives their DNN-iteration loops through
//! **one** [`NetSim`]:
//!
//! * **Arrivals** — each tenant's jobs arrive [`ArrivalProcess::AtStart`],
//!   by a Poisson process, or on an explicit trace. All randomness comes
//!   from per-tenant [`rng_stream`] streams of the engine seed, so whole
//!   runs are bitwise-reproducible.
//! * **Iteration loop** — per job, every host cycles through the DNN phase
//!   machine: compute delay (jittered around `compute_ns`) → allreduce
//!   (a real windowed Flare host over the tenant's admitted reduction
//!   tree, dense or sparse per [`TenantSpec::payload`], built by the
//!   tenant's [`FlowWiring`] exactly as `Collective::run` builds its own) →
//!   next iteration. Successive iterations of one tenant reuse its
//!   allreduce id under the next iteration index, so block ids never alias
//!   across iterations.
//! * **Shared fabric** — each switch runs one Flare program serving every
//!   tenant's flow routed through it ([`run_fabric`]), under the session's
//!   [`flare_net::SwitchModel`]: with `Hpu`, all tenants contend for the
//!   same cores and per-subset FIFOs.
//! * **Metrics** — per-tenant iteration makespans and job queueing delays
//!   (tail statistics via [`TailStats`](flare_core::report::TailStats)),
//!   per-switch HPU subset queue peaks, pooled-buffer recycling counters
//!   and Jain's fairness index over per-tenant switch bytes, attached to
//!   the returned [`RunReport`] as [`RunReport::tenants`].
//!
//! The issue order of tenant flows is negotiated with the Horovod-style
//! [`Sequencer`] (labels submitted per host rank), mirroring how a real
//! deployment avoids cross-rank issue-order deadlocks.
//!
//! **Flow-scoped wake tags.** Every timer in the engine — job arrivals,
//! compute phases, *and the inner hosts' retransmission timers* — carries
//! a packed [`FlowTag`] naming the owning flow (the tenant's allreduce
//! id), a kind, and an iteration sequence. `TrafficHost::on_wake` decodes
//! the flow and re-dispatches: engine kinds drive the phase machine,
//! kinds below [`KIND_ENGINE_BASE`] are forwarded verbatim to the owning
//! inner host. That is what makes lossy tenants first-class: an inner
//! host armed with the session's `retransmit_after` tuning gets its
//! wakes back even
//! though the mux owns the `HostProgram` slot, and a stale timer from
//! iteration `k` is ignored by iteration `k+1` because the sequence no
//! longer matches ([`flare_core::host::HostConfig::iteration`]). What
//! iteration `k` measured of the flow's round trips is handed to iteration
//! `k+1` ([`RttEstimate`]), so only a flow's first iteration waits out
//! `retransmit_after` for a lost packet.
//!
//! Payloads are per-tenant ([`PayloadSpec`]): dense f32 [`Sum`] or
//! sparse `(index, value)` at a configured density, mixed freely in one
//! fabric. Lossy tunings (`link_drop_prob > 0`) require
//! `retransmit_after`, exactly like `Collective::run`.

use std::any::Any;
use std::ops::Range;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::RngExt;

use flare_core::collectives::Sequencer;
use flare_core::host::{RttEstimate, SharedResults};
use flare_core::op::Sum;
use flare_core::report::{jain_index, FabricStats, PayloadSpec, TenantReport, TenantSection};
use flare_core::session::{CollectiveHandle, FlareSession, RunReport, SessionError, SparsePolicy};
use flare_core::switch_prog::ProgramStats;
use flare_core::tag::{FlowTag, FlowTagOverflow, KIND_ENGINE_BASE};
use flare_core::wiring::{
    check_iteration, check_shards, run_fabric, FlowInput, FlowShape, FlowWiring, WiredHost,
};
use flare_des::rng::{exp_time, rng_stream};
use flare_des::Time;
use flare_net::{HostCtx, HostProgram, NetPacket, NetSim, NodeId, TraceKind};

/// Stream-id salt for arrival processes (xor'd with the tenant index).
const ARRIVAL_STREAM: u64 = 0xA121_77A1;
/// Stream-id salt for per-host compute jitter.
const COMPUTE_STREAM: u64 = 0xC0_0B17;

/// Engine wake kinds, allocated from [`KIND_ENGINE_BASE`] upward so they
/// can never collide with inner-host kinds (`KIND_RETRANSMIT` & co).
const KIND_ARRIVAL: u8 = KIND_ENGINE_BASE;
const KIND_COMPUTE: u8 = KIND_ENGINE_BASE + 1;

/// Pack an engine-owned wake tag for `flow`. Engine wakes carry seq 0
/// (the phase machine keys off per-cell state, not the tag), so packing
/// cannot overflow.
fn engine_tag(flow: u32, kind: u8) -> u64 {
    FlowTag::new(flow, kind, 0)
        .pack()
        .expect("seq 0 always fits")
}

/// Why the traffic engine refused a tenant or a run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The underlying session rejected an operation (admission, release…).
    Session(SessionError),
    /// A [`TenantSpec`] is internally inconsistent; the message says how.
    InvalidSpec(String),
    /// The tenant's `jobs × iterations` exceeds the [`FlowTag`] sequence
    /// space, so per-iteration wake tags would alias across iterations.
    TagOverflow(FlowTagOverflow),
    /// [`TrafficEngine::run`] was called with no admitted tenants.
    NoTenants,
    /// A completed iteration's reduction differs from the one every rank's
    /// contribution implies: the earliest such iteration of the run, and
    /// the first index where it differs (for a result of the wrong
    /// length, where the shorter of the two ends).
    WrongResult {
        /// The tenant's id ([`TenantReport::id`]).
        tenant: u32,
        /// The iteration, counted over the tenant's jobs.
        iteration: usize,
        /// The element index.
        index: usize,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::Session(e) => write!(f, "session error: {e}"),
            TrafficError::InvalidSpec(why) => write!(f, "invalid tenant spec: {why}"),
            TrafficError::TagOverflow(e) => write!(f, "tenant too long-running: {e}"),
            TrafficError::NoTenants => write!(f, "no tenants admitted"),
            TrafficError::WrongResult {
                tenant,
                iteration,
                index,
            } => write!(
                f,
                "tenant {tenant} iteration {iteration}: wrong reduction at index {index}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<SessionError> for TrafficError {
    fn from(e: SessionError) -> Self {
        TrafficError::Session(e)
    }
}

/// When a tenant's jobs arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// All `jobs` arrive at t = 0 (closed-loop back-to-back execution).
    AtStart {
        /// Number of jobs.
        jobs: usize,
    },
    /// `jobs` arrivals with exponentially distributed interarrival times
    /// (a Poisson process), drawn from the tenant's seeded stream.
    Poisson {
        /// Mean interarrival time, ns (must be positive).
        mean_interarrival_ns: f64,
        /// Number of jobs.
        jobs: usize,
    },
    /// Explicit arrival instants, ns (sorted internally).
    Trace(Vec<Time>),
}

impl ArrivalProcess {
    /// Number of jobs this process produces.
    pub fn jobs(&self) -> usize {
        match self {
            ArrivalProcess::AtStart { jobs } => *jobs,
            ArrivalProcess::Poisson { jobs, .. } => *jobs,
            ArrivalProcess::Trace(ts) => ts.len(),
        }
    }

    /// Materialize the arrival instants for tenant `tenant_idx` under
    /// `seed` (deterministic: same inputs → same instants). A Poisson
    /// process whose instants pass the end of simulated time is an
    /// invalid spec.
    fn times(&self, seed: u64, tenant_idx: u64) -> Result<Vec<Time>, TrafficError> {
        Ok(match self {
            ArrivalProcess::AtStart { jobs } => vec![0; *jobs],
            ArrivalProcess::Poisson {
                mean_interarrival_ns,
                jobs,
            } => {
                let mut rng = rng_stream(seed, ARRIVAL_STREAM ^ tenant_idx);
                let mut t: Time = 0;
                (0..*jobs)
                    .map(|_| {
                        t = t.checked_add(exp_time(&mut rng, *mean_interarrival_ns))?;
                        Some(t)
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| {
                        TrafficError::InvalidSpec(format!(
                            "{jobs} Poisson arrivals {mean_interarrival_ns} ns apart overflow simulated time"
                        ))
                    })?
            }
            ArrivalProcess::Trace(ts) => {
                let mut v = ts.clone();
                v.sort_unstable();
                v
            }
        })
    }
}

/// One tenant's workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Label (becomes the handle label; used by sequencer negotiation).
    pub name: String,
    /// Participating hosts (`None` = the session's default host set).
    pub hosts: Option<Vec<NodeId>>,
    /// Elements per allreduce (f32 gradient size).
    pub elems: usize,
    /// Allreduce iterations per job (the DNN training loop length).
    pub iterations: usize,
    /// Mean compute-phase duration between iterations, ns (0 = none).
    pub compute_ns: Time,
    /// Relative compute jitter in `[0, 1]`: each phase draws uniformly
    /// from `compute_ns · [1 − j, 1 + j]` per host.
    pub compute_jitter: f64,
    /// Admit with the bitwise-reproducible tree algorithm.
    pub reproducible: bool,
    /// When this tenant's jobs arrive.
    pub arrivals: ArrivalProcess,
    /// What the per-iteration gradient looks like on the wire
    /// (dense f32 or sparse `(index, value)` at a density).
    pub payload: PayloadSpec,
}

impl TenantSpec {
    /// A one-job, one-iteration tenant named `name` reducing `elems`
    /// f32 elements over the session's default hosts, arriving at t = 0.
    pub fn new(name: impl Into<String>, elems: usize) -> Self {
        Self {
            name: name.into(),
            hosts: None,
            elems,
            iterations: 1,
            compute_ns: 0,
            compute_jitter: 0.0,
            reproducible: false,
            arrivals: ArrivalProcess::AtStart { jobs: 1 },
            payload: PayloadSpec::Dense,
        }
    }

    /// Set the iterations per job.
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Set the compute phase: mean duration and relative jitter.
    pub fn compute(mut self, ns: Time, jitter: f64) -> Self {
        self.compute_ns = ns;
        self.compute_jitter = jitter;
        self
    }

    /// Set the arrival process.
    pub fn arrivals(mut self, a: ArrivalProcess) -> Self {
        self.arrivals = a;
        self
    }

    /// Restrict to an explicit host set. Called by `tests/traffic_engine.rs`.
    pub fn on_hosts(mut self, hosts: Vec<NodeId>) -> Self {
        self.hosts = Some(hosts);
        self
    }

    /// Request the reproducible tree algorithm at admission.
    pub fn reproducible(mut self, yes: bool) -> Self {
        self.reproducible = yes;
        self
    }

    /// Set the wire payload (dense by default).
    pub fn payload(mut self, p: PayloadSpec) -> Self {
        self.payload = p;
        self
    }

    /// Shorthand for [`payload`](Self::payload) with
    /// [`PayloadSpec::Sparse`] at `density`.
    pub fn sparse(self, density: f64) -> Self {
        self.payload(PayloadSpec::Sparse { density })
    }

    /// Non-zero pairs per iteration under this spec's payload (`elems`
    /// for dense).
    fn nnz(&self) -> usize {
        match self.payload {
            PayloadSpec::Dense => self.elems,
            PayloadSpec::Sparse { density } => {
                (((self.elems as f64) * density).round() as usize).clamp(1, self.elems)
            }
        }
    }

    /// What one iteration looks like to the wiring: dense blocks of one
    /// packet each, or sparse blocks under [`SparsePolicy::default`] (the
    /// engine runs sparse tenants under the default policy).
    fn shape(&self) -> FlowShape {
        match self.payload {
            PayloadSpec::Dense => FlowShape::Dense { elems: self.elems },
            PayloadSpec::Sparse { .. } => FlowShape::Sparse {
                total_elems: self.elems,
                policy: SparsePolicy::default(),
            },
        }
    }

    fn validate(&self) -> Result<(), TrafficError> {
        if self.elems == 0 {
            return Err(TrafficError::InvalidSpec("elems must be positive".into()));
        }
        if self.iterations == 0 {
            return Err(TrafficError::InvalidSpec(
                "iterations must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.compute_jitter) {
            return Err(TrafficError::InvalidSpec(format!(
                "compute_jitter {} outside [0, 1]",
                self.compute_jitter
            )));
        }
        if let ArrivalProcess::Poisson {
            mean_interarrival_ns,
            ..
        } = self.arrivals
        {
            if !(mean_interarrival_ns > 0.0 && mean_interarrival_ns.is_finite()) {
                return Err(TrafficError::InvalidSpec(
                    "Poisson mean interarrival must be positive and finite".into(),
                ));
            }
        }
        if let PayloadSpec::Sparse { density } = self.payload {
            if !(density > 0.0 && density <= 1.0) {
                return Err(TrafficError::InvalidSpec(format!(
                    "sparse density {density} outside (0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// An admitted tenant inside the engine.
struct TenantRt {
    spec: TenantSpec,
    handle: CollectiveHandle,
    hosts: Vec<NodeId>,
    arrivals: Vec<Time>,
}

/// Multi-tenant job-churn driver over a [`FlareSession`] (module docs).
pub struct TrafficEngine<'s> {
    session: &'s mut FlareSession,
    seed: u64,
    deadline: Option<Time>,
    tenants: Vec<TenantRt>,
}

impl<'s> TrafficEngine<'s> {
    /// A new engine over `session`; `seed` drives every arrival and
    /// jitter stream.
    pub fn new(session: &'s mut FlareSession, seed: u64) -> Self {
        Self {
            session,
            seed,
            deadline: None,
            tenants: Vec::new(),
        }
    }

    /// Bound the simulation (ns); jobs still in flight at the deadline are
    /// cut off and simply not counted as completed. Called by
    /// `tests/loss_convergence.rs` and `tests/traffic_epoch_end.rs`.
    pub fn set_deadline(&mut self, deadline: Option<Time>) {
        self.deadline = deadline;
    }

    /// Admit `spec` as a new tenant: validates the spec (a sparse one's
    /// fullest block by [`check_shards`]), precomputes the arrival
    /// instants, reserves switch memory through the session's admission
    /// control and labels the handle with the spec name.
    /// Returns the tenant's allreduce id.
    pub fn add_tenant(&mut self, spec: TenantSpec) -> Result<u32, TrafficError> {
        spec.validate()?;
        if let FlowShape::Sparse { policy, .. } = spec.shape() {
            // A header must number the shards of the fullest block.
            let (block, pairs) = fullest_block(spec.elems, spec.nnz(), policy.span);
            check_shards(block, pairs, self.session.tuning().pairs_per_packet)?;
        }
        let idx = self.tenants.len() as u64;
        let arrivals = spec.arrivals.times(self.seed, idx)?;
        let hosts = match &spec.hosts {
            Some(h) => h.clone(),
            None => self.session.hosts().to_vec(),
        };
        let bytes = match spec.payload {
            PayloadSpec::Dense => (spec.elems * 4) as u64, // f32 wire bytes
            // (u32 index, f32 value) wire pairs.
            PayloadSpec::Sparse { .. } => (spec.nnz() * 8) as u64,
        };
        let mut handle = self
            .session
            .admit_on(Some(&hosts), bytes, spec.reproducible)?;
        if !spec.name.is_empty() {
            handle.set_label(spec.name.clone());
        }
        // Every (job, iteration) gets a fresh range of wire block ids and
        // a fresh wake-tag sequence, so the run's last iteration must fit
        // both.
        let bpi = spec.shape().blocks(self.session.tuning());
        let total_iters = (spec.arrivals.jobs() * spec.iterations) as u64;
        if let Err(e) = check_iteration(handle.id(), total_iters.saturating_sub(1), bpi) {
            self.session.release(handle)?;
            return Err(match e {
                SessionError::WakeTagOverflow(e) => TrafficError::TagOverflow(e),
                e => TrafficError::InvalidSpec(format!("{total_iters} iterations: {e}")),
            });
        }
        let id = handle.id();
        self.tenants.push(TenantRt {
            spec,
            handle,
            hosts,
            arrivals,
        });
        Ok(id)
    }

    /// Release every admitted tenant, returning all switch memory.
    pub fn release_all(&mut self) -> Result<(), SessionError> {
        for t in self.tenants.drain(..) {
            self.session.release(t.handle)?;
        }
        Ok(())
    }

    /// Drive every tenant's job churn through one shared simulation and
    /// report per-tenant tails plus fabric contention stats.
    ///
    /// The returned [`RunReport`]'s scalar fields summarize the *fleet*:
    /// `collective`/`algorithm` come from the first-admitted tenant,
    /// `window` and `tree_depth` are maxima over tenants,
    /// `reserved_bytes` is the largest reservation on any tenant switch,
    /// `open_peak` / `open_peak_bytes` the most blocks / bytes any tenant's
    /// open blocks held on one, and
    /// [`RunReport::tenants`] holds the per-tenant section. Every host
    /// checks the reduction of every iteration it completes; a wrong one
    /// fails the run with [`TrafficError::WrongResult`].
    ///
    /// Tenants stay admitted afterwards: call again for another epoch
    /// (same seed → bitwise-identical results) or
    /// [`release_all`](Self::release_all) to tear down.
    pub fn run(&mut self) -> Result<RunReport, TrafficError> {
        if self.tenants.is_empty() {
            return Err(TrafficError::NoTenants);
        }
        // The same checked knobs `Collective::run` uses, seeded by the
        // engine.
        let mut tuning = self.session.tuning().validated()?;
        tuning.seed = self.seed;

        // Horovod-style issue-order negotiation: every host rank submits
        // the labels of the tenants it participates in, in admission
        // order; the negotiated order (tenants present on every rank,
        // rank-0 order) leads, remaining tenants follow in admission
        // order. The result is the per-host cell priority.
        let union_hosts = sorted_union(self.tenants.iter().flat_map(|t| t.hosts.iter().copied()));
        let mut seq = Sequencer::new();
        for (rank, &h) in union_hosts.iter().enumerate() {
            let mine: Vec<&CollectiveHandle> = self
                .tenants
                .iter()
                .filter(|t| t.hosts.contains(&h))
                .map(|t| &t.handle)
                .collect();
            seq.submit_handles(rank, &mine);
        }
        let labels = self.tenants.iter().map(|t| t.handle.label());
        let order = issue_order(labels, &seq.negotiate());

        // Per-tenant static config shared by its cells, the flow's wiring
        // first: it is where the tenant's share of every switch program and
        // every iteration's participants come from.
        let mut statics: Vec<Rc<TenantStatic>> = Vec::with_capacity(self.tenants.len());
        for t in &self.tenants {
            let plan = t.handle.plan().clone();
            let n = t.hosts.len();
            statics.push(Rc::new(TenantStatic {
                id: plan.id,
                wiring: FlowWiring::new(plan, t.hosts.clone(), t.spec.shape(), &tuning)?,
                elems: t.spec.elems,
                payload: t.spec.payload,
                nnz: t.spec.nnz(),
                iterations: t.spec.iterations,
                jobs: t.arrivals.len(),
                compute_ns: t.spec.compute_ns,
                jitter: t.spec.compute_jitter,
                // Tree-sum of per-rank constants (rank+1): exact in f32
                // for any realistic host count.
                expected: (n * (n + 1) / 2) as f32,
                arrivals: t.arrivals.clone(),
            }));
        }

        // Per-host cells, in negotiated priority order.
        let mut host_programs: Vec<(NodeId, Box<dyn HostProgram>)> = Vec::new();
        for &h in &union_hosts {
            let mut cells = Vec::new();
            for &ti in &order {
                let t = &self.tenants[ti];
                let Some(rank) = t.hosts.iter().position(|&x| x == h) else {
                    continue;
                };
                cells.push(Cell {
                    rank,
                    stat: statics[ti].clone(),
                    rng: rng_stream(
                        self.seed,
                        COMPUTE_STREAM ^ ((ti as u64) << 20) ^ rank as u64,
                    ),
                    job: 0,
                    iter: 0,
                    running: false,
                    inner: None,
                    submitted: 0,
                    wrong: None,
                    job_waits: Vec::new(),
                    iterations: Vec::new(),
                    retransmits: 0,
                    rtt: RttEstimate::default(),
                });
            }
            host_programs.push((h, Box::new(TrafficHost { cells })));
        }

        // One shared simulation over the session's fabric: the bring-up
        // `Collective::run` uses, with every tenant's flow in issue order,
        // the engine's deadline and a harvest of what its cells recorded.
        let flows: Vec<&FlowWiring> = order.iter().map(|&ti| &statics[ti].wiring).collect();
        let harvest = |sim: &mut NetSim| {
            let hpu = sim.hpu_reports();
            let mut cells: Vec<Cell> = Vec::new();
            for &h in &union_hosts {
                // Losing one would fold its tenants over too few cells.
                let mux = sim.take_host(h).map(|p| p as Box<dyn Any>);
                let mux = mux.and_then(|a| a.downcast::<TrafficHost>().ok());
                cells.append(&mut mux.expect("a TrafficHost, installed above").cells);
            }
            (hpu, cells)
        };
        let (net, trace, switches, (hpu, cells)) = run_fabric::<f32, _, _>(
            self.session,
            &tuning,
            self.deadline,
            &flows,
            Sum,
            host_programs,
            harvest,
        );
        // Every host checked every iteration it completed; the earliest
        // wrong one fails the run.
        let wrong = cells.iter().filter_map(|c| Some((c.wrong?, c.stat.id)));
        if let Some(((iteration, index), tenant)) = wrong.min() {
            return Err(TrafficError::WrongResult {
                tenant,
                iteration: iteration as usize,
                index: index as usize,
            });
        }

        // Switch bytes per tenant (admission order), the pools summed and
        // the most working memory any tenant's open blocks held on one.
        let mut flow_bytes = vec![0u64; statics.len()];
        let mut pools = ProgramStats::default();
        let mut open_peak_bytes = 0;
        for s in &switches {
            flow_bytes[order[s.flow]] += s.bytes;
            open_peak_bytes = open_peak_bytes.max(s.open_bytes);
            pools += s.stats;
        }
        // Tenants are never released one at a time, so the reservation
        // high-water mark is what the tenant switches hold right now.
        let reserved = switches.iter().map(|s| self.session.reserved_on(s.switch));
        let reserved = reserved.max().unwrap_or(0);

        // Label every tenant's trace track with its handle name so the
        // Perfetto flow lanes read "tenant-3", not "flow 9".
        let trace = trace.map(|mut t| {
            t.tracks = self
                .tenants
                .iter()
                .map(|t| (t.handle.id() as u64, t.handle.label().to_string()))
                .collect();
            Box::new(t)
        });

        // Assemble per-tenant reports (admission order). A cell runs its
        // jobs and iterations in order, so record `k` of every cell of a
        // tenant is the same job or iteration, and what all of its hosts
        // got through is a common prefix.
        let mut reports = Vec::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            let mine: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.stat.id == t.handle.id())
                .collect();
            let started = mine.iter().map(|c| c.job_waits.len()).min().unwrap_or(0);
            let finished = mine.iter().map(|c| c.iterations.len()).min().unwrap_or(0);
            // Last host done − first host to submit.
            let makespan = |k: usize| {
                let first = mine.iter().map(|c| c.iterations[k].submit).min();
                let last = mine.iter().map(|c| c.iterations[k].done).max();
                last.unwrap_or(0) - first.unwrap_or(0)
            };
            // A job waits until its last host starts it.
            let wait = |j: usize| mine.iter().map(|c| c.job_waits[j]).max().unwrap_or(0);
            reports.push(TenantReport {
                id: t.handle.id(),
                label: t.handle.label().to_string(),
                hosts: t.hosts.len(),
                jobs: t.arrivals.len(),
                jobs_completed: finished / t.spec.iterations,
                iterations_completed: finished,
                iteration_makespans_ns: (0..finished).map(makespan).collect(),
                queueing_delays_ns: (0..started).map(wait).collect(),
                switch_bytes: flow_bytes[i],
                payload: t.spec.payload,
                retransmits: mine.iter().map(|c| c.retransmits).sum(),
                min_rtt_ns: mine
                    .iter()
                    .map(|c| c.rtt.min_rtt)
                    .filter(|&rtt| rtt != 0)
                    .min()
                    .unwrap_or(0),
            });
        }
        let tenant_bytes: Vec<f64> = flow_bytes.iter().map(|&b| b as f64).collect();
        let fabric = FabricStats {
            fairness_jain: jain_index(&tenant_bytes),
            hpu,
            switch_pools: pools,
        };
        let first = &self.tenants[0].handle;
        Ok(RunReport {
            collective: first.id(),
            label: Some("traffic-engine".into()),
            algorithm: first.algorithm(),
            window: self
                .tenants
                .iter()
                .map(|t| t.handle.window())
                .max()
                .unwrap(),
            reserved_bytes: reserved,
            open_peak: fabric.switch_pools.open_peak,
            open_peak_bytes,
            tree_depth: self
                .tenants
                .iter()
                .map(|t| t.handle.plan().tree.max_depth())
                .max()
                .unwrap(),
            net,
            tenants: Some(TenantSection {
                tenants: reports,
                fabric,
            }),
            trace,
        })
    }
}

/// The distinct nodes of `nodes`, in node-id order.
fn sorted_union(nodes: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = nodes.collect();
    nodes.sort_by_key(|n| n.index());
    nodes.dedup();
    nodes
}

/// Static per-tenant parameters shared by all of its cells.
struct TenantStatic {
    id: u32,
    /// The tenant's flow, wired once per run.
    wiring: FlowWiring,
    elems: usize,
    payload: PayloadSpec,
    /// Non-zero pairs per iteration (`elems` for dense).
    nnz: usize,
    iterations: usize,
    jobs: usize,
    compute_ns: Time,
    jitter: f64,
    expected: f32,
    arrivals: Vec<Time>,
}

/// The deterministic sparse index set every rank of a tenant contributes:
/// `nnz` indexes spread evenly over `0..elems`, `⌊j · elems / nnz⌋` for
/// `j = 0..nnz` (identical across ranks, so the reduced value at each is
/// the full tree sum), strictly ascending since `nnz <= elems`. Stepped
/// without a division: each index adds `elems / nnz`, and one more
/// whenever the remainders `elems % nnz` summed so far reach another `nnz`.
fn spread(elems: usize, nnz: usize) -> impl ExactSizeIterator<Item = usize> + Clone {
    let (step, rem) = (elems / nnz, elems % nnz);
    // `carry` is `j · rem mod nnz` at the `j`th index.
    let (mut index, mut carry) = (0, 0);
    (0..nnz).map(move |_| {
        let at = index;
        index += step;
        carry += rem;
        if carry >= nnz {
            carry -= nnz;
            index += 1;
        }
        at
    })
}

/// The block of `span` indexes that holds the most of [`spread`]`(elems,
/// nnz)` (the first such block) and how many it holds, one block at a
/// time: `⌊j · elems / nnz⌋ < x` exactly when `j < x · nnz / elems`, so
/// `⌈x · nnz / elems⌉` of the indexes lie below `x`.
fn fullest_block(elems: usize, nnz: usize, span: usize) -> (u64, usize) {
    let below = |x: usize| ((x as u128 * nnz as u128).div_ceil(elems as u128) as usize).min(nnz);
    let blocks = (0..elems.div_ceil(span) as u64).rev();
    let counts = blocks.map(|b| (b, below((b as usize + 1) * span) - below(b as usize * span)));
    counts.max_by_key(|&(_, n)| n).unwrap_or((0, 0))
}

impl TenantStatic {
    /// Where a completed iteration's `result` first differs from this
    /// tenant's reduction (see [`first_mismatch`]).
    fn check(&self, result: &[f32]) -> Option<usize> {
        let (elems, want) = (self.elems, self.expected);
        match self.payload {
            PayloadSpec::Dense => first_mismatch(result, elems, want, std::iter::once(0..elems)),
            PayloadSpec::Sparse { .. } => {
                let contributed = spread(elems, self.nnz).map(|i| i..i + 1);
                first_mismatch(result, elems, want, contributed)
            }
        }
    }
}

/// The first index at which `result` differs from the `elems`-element
/// reduction that holds `want` on each `contributed` run of indexes
/// (ascending and disjoint) and the `Sum` identity, 0, everywhere else; a
/// result of the wrong length differs where the shorter of the two ends.
/// `None` if `result` is that reduction. Allocates nothing.
fn first_mismatch(
    result: &[f32],
    elems: usize,
    want: f32,
    contributed: impl Iterator<Item = Range<usize>> + Clone,
) -> Option<usize> {
    // A right result, the common case, costs passes without an early exit
    // that vectorise: every run holds `want`, which is not 0, and no other
    // element is nonzero.
    let holds = |run: Range<usize>| {
        let run = result.get(run);
        run.is_some_and(|s| s.iter().fold(true, |ok, &x| ok & (x == want)))
    };
    let (mut right, mut covered) = (result.len() == elems && want != 0.0, 0);
    for run in contributed.clone() {
        covered += run.len();
        right &= holds(run);
    }
    let nonzero = || result.iter().filter(|&&x| x != 0.0).count();
    if right && (covered == elems || nonzero() == covered) {
        return None;
    }
    // A wrong one: walk both in order to the first difference.
    let mut contributed = contributed.flatten().peekable();
    let common = result.len().min(elems);
    let wrong = (0..common).find(|&i| {
        let expect = match contributed.next_if_eq(&i) {
            Some(_) => want,
            None => 0.0,
        };
        result[i] != expect
    });
    wrong.or((result.len() != elems).then_some(common))
}

/// One tenant's state machine on one host.
struct Cell {
    rank: usize,
    stat: Rc<TenantStatic>,
    rng: StdRng,
    job: usize,
    iter: usize,
    running: bool,
    inner: Option<Box<dyn WiredHost<f32>>>,
    /// When the iteration in flight was submitted.
    submitted: Time,
    /// The first wrong reduction this host completed: `(iteration,
    /// index)`.
    wrong: Option<(u32, u32)>,
    /// `start − arrival` of every job this cell started, in job order.
    job_waits: Vec<Time>,
    /// Every iteration this cell finished, in global iteration order.
    iterations: Vec<IterationRecord>,
    /// Blocks the retransmission timers of those iterations re-sent.
    retransmits: u64,
    /// The flow's round-trip estimate as the latest of those iterations
    /// left it: where the next one starts.
    rtt: RttEstimate,
}

/// One iteration as one host saw it.
struct IterationRecord {
    submit: Time,
    done: Time,
}

impl Cell {
    /// Jittered compute-phase duration (0 when no compute is configured).
    fn compute_delay(&mut self) -> Time {
        if self.stat.compute_ns == 0 {
            return 0;
        }
        if self.stat.jitter == 0.0 {
            return self.stat.compute_ns.max(1);
        }
        let u: f64 = self.rng.random::<f64>();
        let factor = 1.0 - self.stat.jitter + 2.0 * self.stat.jitter * u;
        ((self.stat.compute_ns as f64 * factor).round() as Time).max(1)
    }
}

/// Host program multiplexing every tenant cell on one host. All wake
/// tags — the engine's own and the inner hosts' — are packed
/// [`FlowTag`]s, dispatched to the owning cell by flow id. A cell records
/// its own job waits and iterations, so a lane mutates nothing outside the
/// hosts it runs; the engine folds the records after the run.
struct TrafficHost {
    cells: Vec<Cell>,
}

impl TrafficHost {
    fn try_start_job(&mut self, ctx: &mut HostCtx<'_>, ci: usize) {
        let now = ctx.now();
        let cell = &mut self.cells[ci];
        if cell.running || cell.job >= cell.stat.jobs {
            return;
        }
        let arrival = cell.stat.arrivals[cell.job];
        if arrival > now {
            // Not arrived yet; the ARRIVAL wake scheduled for this
            // job will retry.
            return;
        }
        cell.running = true;
        cell.iter = 0;
        ctx.trace(TraceKind::JobStart, cell.stat.id as u64, cell.job as u64, 0);
        cell.job_waits.push(now - arrival);
        self.schedule_compute(ctx, ci);
    }

    fn schedule_compute(&mut self, ctx: &mut HostCtx<'_>, ci: usize) {
        let delay = self.cells[ci].compute_delay();
        if delay == 0 {
            self.submit_iteration(ctx, ci);
        } else {
            let flow = self.cells[ci].stat.id;
            ctx.wake_in(delay, engine_tag(flow, KIND_COMPUTE));
        }
    }

    fn submit_iteration(&mut self, ctx: &mut HostCtx<'_>, ci: usize) {
        let cell = &mut self.cells[ci];
        debug_assert!(cell.running && cell.inner.is_none());
        let g = (cell.job * cell.stat.iterations + cell.iter) as u32;
        debug_assert_eq!(g as usize, cell.iterations.len());
        let v = (cell.rank + 1) as f32;
        let input = match cell.stat.payload {
            PayloadSpec::Dense => FlowInput::Dense(vec![v; cell.stat.elems]),
            PayloadSpec::Sparse { .. } => FlowInput::Sparse(
                spread(cell.stat.elems, cell.stat.nnz)
                    .map(|i| (i as u32, v))
                    .collect(),
            ),
        };
        // The iteration index namespaces this incarnation's block ids
        // and retransmit timer (the last one checked at admission).
        let mut inner = cell
            .stat
            .wiring
            .host(cell.rank, g, cell.rtt, Sum, input)
            .expect("every iteration checked at admission");
        cell.submitted = ctx.now();
        inner.on_start(ctx);
        cell.inner = Some(inner);
    }

    fn finish_iteration(&mut self, ctx: &mut HostCtx<'_>, ci: usize) {
        let cell = &mut self.cells[ci];
        let mut inner = cell.inner.take().expect("an iteration in flight");
        cell.retransmits += inner.retransmits();
        cell.rtt = inner.rtt();
        // Built here, from what the participant kept, and dropped with it.
        let result = inner
            .take_result(&mut SharedResults::default())
            .expect("the iteration finished");
        // Check every completed iteration end to end; the run reports the
        // first wrong one.
        if cell.wrong.is_none() {
            let iteration = cell.iterations.len() as u32;
            cell.wrong = cell
                .stat
                .check(&result)
                .map(|index| (iteration, index as u32));
        }
        cell.iterations.push(IterationRecord {
            submit: cell.submitted,
            done: ctx.now(),
        });
        cell.iter += 1;
        if cell.iter == cell.stat.iterations {
            ctx.trace(TraceKind::JobDone, cell.stat.id as u64, cell.job as u64, 0);
            cell.running = false;
            cell.job += 1;
            cell.iter = 0;
            // Backlogged arrival? Start the next job immediately.
            self.try_start_job(ctx, ci);
        } else {
            self.schedule_compute(ctx, ci);
        }
    }
}

impl HostProgram for TrafficHost {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for cell in &self.cells {
            let t = engine_tag(cell.stat.id, KIND_ARRIVAL);
            for &at in &cell.stat.arrivals {
                ctx.wake_in(at, t);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        let Some(ci) = self.cells.iter().position(|c| c.stat.id == pkt.flow) else {
            return;
        };
        {
            let cell = &mut self.cells[ci];
            let Some(inner) = cell.inner.as_mut() else {
                // No allreduce in flight for this flow (stale delivery).
                return;
            };
            inner.on_packet(ctx, pkt);
            if !inner.finished() {
                return;
            }
        }
        self.finish_iteration(ctx, ci);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, wake_tag: u64) {
        let ft = FlowTag::unpack(wake_tag);
        let Some(ci) = self.cells.iter().position(|c| c.stat.id == ft.flow) else {
            return;
        };
        match ft.kind {
            KIND_ARRIVAL => self.try_start_job(ctx, ci),
            KIND_COMPUTE if self.cells[ci].running && self.cells[ci].inner.is_none() => {
                self.submit_iteration(ctx, ci);
            }
            // Inner-host kinds (retransmission timers): forward the raw
            // tag to the incarnation in flight. The inner host compares
            // it against its own `(flow, kind, iteration)` tag, so a wake
            // armed by an earlier iteration dies there without re-arming.
            k if k < KIND_ENGINE_BASE => {
                if let Some(inner) = self.cells[ci].inner.as_mut() {
                    inner.on_wake(ctx, wake_tag);
                }
            }
            _ => {}
        }
    }
}

/// Tenant indexes in issue order: each `negotiated` label places the
/// first tenant of that label (in admission order, `labels`) that has no
/// place yet, so repeated labels keep their admission order; tenants left
/// out follow in admission order.
fn issue_order<'a>(
    labels: impl Iterator<Item = &'a str> + Clone,
    negotiated: &[String],
) -> Vec<usize> {
    let tenants = labels.clone().count();
    let mut order: Vec<usize> = Vec::with_capacity(tenants);
    for label in negotiated {
        let first_unplaced = labels
            .clone()
            .enumerate()
            .find(|&(i, l)| l == label && !order.contains(&i));
        order.extend(first_unplaced.map(|(i, _)| i));
    }
    for i in 0..tenants {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_net::{LinkSpec, Topology};
    use proptest::prelude::*;

    /// `(elems, nnz)` with `1 ≤ nnz ≤ elems ≤ 2^20`.
    fn spreads() -> impl Strategy<Value = (usize, usize)> {
        (1usize..=1 << 20).prop_flat_map(|elems| (Just(elems), 1..=elems))
    }

    /// The stepped indexes of [`spread`] are `⌊j · elems / nnz⌋`, `nnz` of
    /// them, and [`fullest_block`] finds the block that counting them
    /// finds, for a span drawn from `seed`.
    fn check_spread((elems, nnz): (usize, usize), seed: u64) {
        let got = spread(elems, nnz);
        assert_eq!(got.len(), nnz);
        let want = (0..nnz).map(|j| j * elems / nnz);
        assert!(got.clone().eq(want), "elems {elems}, nnz {nnz}");
        let span = 1 + (seed % elems as u64) as usize;
        let mut counts = vec![0usize; elems.div_ceil(span)];
        for index in got.clone() {
            counts[index / span] += 1;
        }
        let most = *counts.iter().max().unwrap();
        let first = counts.iter().position(|&c| c == most).unwrap();
        let fullest = fullest_block(elems, nnz, span);
        assert_eq!(fullest, (first as u64, most), "span {span}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn spread_indexes_step_as_the_division_does(shape in spreads(), seed in any::<u64>()) {
            check_spread(shape, seed);
        }
    }

    /// The proptest above at 4 096 cases. Tier-1 skips it; CI runs it with
    /// `--release -- --ignored`.
    #[test]
    #[ignore = "4 096 cases: CI runs it with --release"]
    fn spread_indexes_step_as_the_division_does_over_4096_cases() {
        let mut rng = proptest::TestRng::from_name("spread_over_4096_cases");
        for _ in 0..4096 {
            check_spread(spreads().sample(&mut rng), any::<u64>().sample(&mut rng));
        }
    }

    #[test]
    fn arrival_processes_are_deterministic_and_sorted() {
        let p = ArrivalProcess::Poisson {
            mean_interarrival_ns: 10_000.0,
            jobs: 16,
        };
        let a = p.times(7, 3).unwrap();
        let b = p.times(7, 3).unwrap();
        assert_eq!(a, b, "same seed/tenant → same arrivals");
        assert_ne!(
            a,
            p.times(7, 4).unwrap(),
            "tenants draw from distinct streams"
        );
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(p.jobs(), 16);

        assert_eq!(
            ArrivalProcess::AtStart { jobs: 3 }.times(7, 0),
            Ok(vec![0, 0, 0])
        );
        assert_eq!(
            ArrivalProcess::Trace(vec![30, 10, 20]).times(7, 0),
            Ok(vec![10, 20, 30])
        );
    }

    #[test]
    fn issue_order_places_each_negotiated_label_once() {
        // Every rank submits its tenants in admission order, as `run` does.
        let negotiate = |labels: &[&str]| {
            let mut seq = Sequencer::new();
            for rank in 0..3 {
                seq.submit(rank, labels);
            }
            seq.negotiate()
        };
        // A repeated label keeps its tenants in admission order.
        let labels = ["a", "a", "b"];
        let order = issue_order(labels.into_iter(), &negotiate(&labels));
        assert_eq!(order, [0, 1, 2]);
        let labels = ["a", "b", "a", "b"];
        let order = issue_order(labels.into_iter(), &negotiate(&labels));
        assert_eq!(order, [0, 1, 2, 3]);
        // Unique names: the negotiated labels lead, the rest follow in
        // admission order.
        let negotiated = ["c".to_string(), "a".to_string()];
        let order = issue_order(["a", "b", "c"].into_iter(), &negotiated);
        assert_eq!(order, [2, 0, 1]);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 7);
        assert!(matches!(
            eng.add_tenant(TenantSpec::new("t", 0)),
            Err(TrafficError::InvalidSpec(_))
        ));
        assert!(matches!(
            eng.add_tenant(TenantSpec::new("t", 64).iterations(0)),
            Err(TrafficError::InvalidSpec(_))
        ));
        assert!(matches!(
            eng.add_tenant(TenantSpec::new("t", 64).compute(100, 1.5)),
            Err(TrafficError::InvalidSpec(_))
        ));
        assert!(matches!(
            eng.add_tenant(TenantSpec::new("t", 64).arrivals(ArrivalProcess::Poisson {
                mean_interarrival_ns: 0.0,
                jobs: 1
            })),
            Err(TrafficError::InvalidSpec(_))
        ));
        assert_eq!(eng.run().err(), Some(TrafficError::NoTenants));
    }

    #[test]
    fn arrivals_past_the_end_of_time_are_an_invalid_spec_and_admit_nothing() {
        let (topo, sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 7);
        // An infinite mean fails validation; a finite one this large
        // passes it, and its second instant overflows `Time`.
        for mean in [f64::INFINITY, 1e30] {
            let spec = TenantSpec::new("t", 64).arrivals(ArrivalProcess::Poisson {
                mean_interarrival_ns: mean,
                jobs: 2,
            });
            assert!(
                matches!(eng.add_tenant(spec), Err(TrafficError::InvalidSpec(_))),
                "mean {mean}"
            );
        }
        assert!(eng.tenants.is_empty());
        drop(eng);
        assert_eq!(session.reserved_on(sw), 0, "no admission leaked");
        assert_eq!(session.active_collectives(), 0);
    }

    #[test]
    fn two_tenants_share_one_simulation() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 11);
        let a = eng
            .add_tenant(TenantSpec::new("alpha", 2048).iterations(2))
            .unwrap();
        let b = eng
            .add_tenant(TenantSpec::new("beta", 1024).compute(2_000, 0.1))
            .unwrap();
        assert_ne!(a, b);
        let report = eng.run().unwrap();
        let section = report.tenants.as_ref().expect("tenant section");
        assert_eq!(section.tenants.len(), 2);
        let ta = &section.tenants[0];
        assert_eq!((ta.label.as_str(), ta.jobs_completed), ("alpha", 1));
        assert_eq!(ta.iterations_completed, 2);
        assert_eq!(ta.iteration_makespans_ns.len(), 2);
        assert!(ta.iteration_makespans_ns.iter().all(|&m| m > 0));
        let tb = &section.tenants[1];
        assert_eq!((tb.label.as_str(), tb.iterations_completed), ("beta", 1));
        assert!(tb.switch_bytes > 0 && ta.switch_bytes > tb.switch_bytes);
        assert!(section.fabric.fairness_jain > 0.0 && section.fabric.fairness_jain <= 1.0);
        assert!(report.net.makespan > 0);
        eng.release_all().unwrap();
        assert_eq!(session.active_collectives(), 0);
    }

    #[test]
    fn lossy_without_retransmit_is_refused_with_the_session_error() {
        // Loss is first-class now, but a drop with no retransmission
        // timer would stall forever — same typed error as
        // `Collective::run`.
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = flare_core::session::FlareSession::builder(topo)
            .link_drop_prob(0.01)
            .build();
        let mut eng = TrafficEngine::new(&mut session, 7);
        eng.add_tenant(TenantSpec::new("t", 256)).unwrap();
        assert_eq!(
            eng.run().err(),
            Some(TrafficError::Session(SessionError::LossWithoutRetransmit))
        );
        eng.release_all().unwrap();
    }

    #[test]
    fn a_drop_probability_of_one_is_refused_with_the_session_error() {
        // Every packet would drop and no deadline is set: the engine
        // shares `Collective::run`'s checks, so this is an error, not a
        // run that never returns.
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = flare_core::session::FlareSession::builder(topo)
            .link_drop_prob(1.0)
            .retransmit_after(Some(50_000))
            .build();
        let mut eng = TrafficEngine::new(&mut session, 7);
        eng.add_tenant(TenantSpec::new("t", 256)).unwrap();
        let given = "1".to_string();
        assert_eq!(
            eng.run().err(),
            Some(TrafficError::Session(
                SessionError::InvalidDropProbability { given }
            ))
        );
        eng.release_all().unwrap();
    }

    #[test]
    fn lossy_tenants_complete_and_record_retransmits() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = flare_core::session::FlareSession::builder(topo)
            .link_drop_prob(0.05)
            .retransmit_after(Some(50_000))
            .build();
        let mut eng = TrafficEngine::new(&mut session, 13);
        eng.add_tenant(TenantSpec::new("lossy", 2048).iterations(2))
            .unwrap();
        let report = eng.run().unwrap();
        let t = &report.tenants.as_ref().unwrap().tenants[0];
        assert_eq!(t.jobs_completed, 1);
        assert_eq!(t.iterations_completed, 2);
        eng.release_all().unwrap();
    }

    #[test]
    fn sparse_and_dense_tenants_mix_in_one_fabric() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 5);
        eng.add_tenant(TenantSpec::new("dense", 4096).iterations(2))
            .unwrap();
        eng.add_tenant(TenantSpec::new("sparse", 4096).sparse(0.1).iterations(2))
            .unwrap();
        let report = eng.run().unwrap();
        let section = report.tenants.as_ref().unwrap();
        assert_eq!(section.tenants[0].payload, PayloadSpec::Dense);
        assert_eq!(
            section.tenants[1].payload,
            PayloadSpec::Sparse { density: 0.1 }
        );
        for t in &section.tenants {
            assert_eq!(t.iterations_completed, 2, "tenant {}", t.label);
            assert_eq!(t.retransmits, 0, "lossless run must never retransmit");
            assert!(t.switch_bytes > 0);
        }
        // The sparse tenant moves an order of magnitude fewer wire bytes.
        assert!(section.tenants[1].switch_bytes < section.tenants[0].switch_bytes / 4);
        eng.release_all().unwrap();
    }

    #[test]
    fn invalid_sparse_density_is_rejected() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 7);
        for d in [0.0, -0.5, 1.5] {
            assert!(matches!(
                eng.add_tenant(TenantSpec::new("t", 64).sparse(d)),
                Err(TrafficError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn wake_seq_overflow_is_a_typed_error() {
        // 1 element per iteration → bpi = 1, so the u32 block-id check
        // passes, but jobs × iterations exceeds the 24-bit FlowTag seq.
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 7);
        let spec = TenantSpec::new("t", 1)
            .iterations(1 << 13)
            .arrivals(ArrivalProcess::AtStart { jobs: 1 << 12 });
        assert!(matches!(
            eng.add_tenant(spec),
            Err(TrafficError::TagOverflow(_))
        ));
        assert_eq!(session.active_collectives(), 0, "handle released on error");
    }

    #[test]
    fn the_result_check_finds_the_first_wrong_element() {
        // Six elements and a tree sum of 3: everywhere (dense), or at
        // the contributed indexes 1 and 4 and 0 elsewhere (sparse).
        let dense = |r: &[f32]| first_mismatch(r, 6, 3.0, std::iter::once(0..6));
        let sparse = |r: &[f32]| first_mismatch(r, 6, 3.0, [1..2, 4..5].into_iter());
        assert_eq!(dense(&[3.0; 6]), None);
        assert_eq!(sparse(&[0.0, 3.0, 0.0, 0.0, 3.0, 0.0]), None);
        // One wrong dense element.
        assert_eq!(dense(&[3.0, 3.0, 3.0, 2.0, 3.0, 3.0]), Some(3));
        // One wrong contributed index.
        assert_eq!(sparse(&[0.0, 3.0, 0.0, 0.0, 6.0, 0.0]), Some(4));
        // A nonzero index nobody contributed to.
        assert_eq!(sparse(&[0.0, 3.0, 0.0, 0.0, 3.0, 1.0]), Some(5));
        // The wrong length: where the shorter of the two ends.
        assert_eq!(dense(&[3.0; 5]), Some(5));
        assert_eq!(sparse(&[0.0, 3.0, 0.0, 0.0, 3.0, 0.0, 0.0]), Some(6));
    }

    /// A lossy 16-tenant mixed dense/sparse fleet on HPU switches with
    /// telemetry on exports a Perfetto-loadable trace that records every
    /// lifecycle stage, drops and the occupancy of every HPU switch, and
    /// whose bytes are pinned.
    #[test]
    fn lossy_fleet_trace_records_every_lifecycle_stage() {
        use flare_des::rng::splitmix64;
        use flare_net::{HpuParams, SwitchModel, TelemetryConfig};
        let (topo, _ft) = Topology::fat_tree_two_level(2, 2, 2, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .switch_model(SwitchModel::Hpu(HpuParams::paper()))
            .link_drop_prob(0.02)
            .retransmit_after(Some(200_000))
            .telemetry(TelemetryConfig::default())
            .build();
        let mut eng = TrafficEngine::new(&mut session, 33);
        for i in 0..16 {
            let mut spec = TenantSpec::new(format!("tenant-{i}"), 512).iterations(2);
            if i % 2 == 1 {
                spec = spec.sparse(0.2);
            }
            eng.add_tenant(spec).unwrap();
        }
        let report = eng.run().unwrap();
        eng.release_all().unwrap();
        assert!(report.net.drops > 0, "the fleet must actually lose packets");
        let trace = report.trace.expect("telemetry was enabled");
        let json = trace.chrome_trace();
        assert!(flare_net::telemetry::validate_chrome_trace(&json).expect("valid trace") > 0);
        // Every lifecycle stage of the mixed fleet shows up in the stream:
        // submits and sends everywhere, sparse result shards, retirements,
        // loss-driven retransmissions and the engine's job bracketing.
        for kind in [
            TraceKind::FlowSubmit,
            TraceKind::ShardSend,
            TraceKind::ShardRecv,
            TraceKind::Retransmit,
            TraceKind::BlockRetire,
            TraceKind::JobStart,
            TraceKind::JobDone,
            TraceKind::InFlight,
        ] {
            assert!(
                trace.events.iter().any(|e| e.kind == kind),
                "no {kind:?} event in the capture"
            );
        }
        // Flow tracks carry tenant labels into the export.
        assert!(trace.tracks.iter().any(|(_, l)| l == "tenant-3"));
        assert!(json.contains("tenant-3"));
        // Every HPU switch of the run, and only those, exports occupancy.
        let fabric = &report.tenants.expect("a traffic run").fabric;
        let hpu: Vec<u32> = fabric.hpu.iter().map(|h| h.switch.0).collect();
        let compute: Vec<u32> = trace.compute.iter().map(|c| c.node).collect();
        assert!(!hpu.is_empty());
        assert_eq!(compute, hpu);
        assert!(json.contains("\"ph\":\"C\",") && json.contains("\"depth\":"));
        // The exported bytes, pinned: length and a SplitMix64 fold.
        let pin = |s: &str| {
            (
                s.len(),
                s.bytes().fold(0, |d, b| splitmix64(d ^ u64::from(b))),
            )
        };
        assert_eq!(
            pin(&json),
            (150_447, 12_179_985_610_845_335_644),
            "chrome_trace"
        );
    }

    #[test]
    fn repeated_runs_with_one_seed_are_bitwise_identical() {
        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::new(topo);
        let mut eng = TrafficEngine::new(&mut session, 21);
        eng.add_tenant(
            TenantSpec::new("a", 1024)
                .iterations(3)
                .compute(1_000, 0.3)
                .arrivals(ArrivalProcess::Poisson {
                    mean_interarrival_ns: 5_000.0,
                    jobs: 2,
                }),
        )
        .unwrap();
        eng.add_tenant(TenantSpec::new("b", 512).iterations(2))
            .unwrap();
        let r1 = eng.run().unwrap();
        let r2 = eng.run().unwrap();
        assert_eq!(r1.tenants, r2.tenants, "tenant sections must match bitwise");
        assert_eq!(r1.net.makespan, r2.net.makespan);
        eng.release_all().unwrap();
    }
}
