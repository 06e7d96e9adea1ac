//! Switch-compute subsystem: PsPIN-style multi-core handler scheduling
//! inside the network simulator's switches.
//!
//! The paper's core architectural claim (Section 3, Figure 5) is that a
//! programmable switch with `K = clusters × C` HPU cores and
//! *hierarchical-FCFS* packet scheduling sustains line rate where a serial
//! pipeline cannot: every packet of a reduction block is dispatched to the
//! same subset of `S` cores on one cluster (so aggregation buffers stay in
//! that cluster's L1), an idle core of the subset starts the handler
//! immediately, and packets that find all `S` cores busy wait in a
//! per-subset FIFO.
//!
//! [`SwitchCompute`] is that model, event-driven at packet granularity:
//! each handler execution is placed onto a concrete core with an explicit
//! start time (arrival or the earliest core-free time of the subset, FCFS)
//! and a completion time derived from [`flare_model::SwitchParams`]
//! (per-element aggregation cycles × payload elements + fixed DMA/handler
//! overhead, plus an optional cold-icache fill on each cluster's first
//! handler). The completion time feeds straight back into the existing DES:
//! switch programs schedule their derived packets (aggregates, results,
//! replays) at exactly that instant via
//! [`SwitchCtx::send_at`](crate::SwitchCtx::send_at).
//!
//! Because [`NetSim`](crate::NetSim) delivers events in nondecreasing time
//! order, dispatching each arrival to the earliest-available core of its
//! subset reproduces the same schedule as the explicit
//! arrival/core-release event machinery of the `flare-pspin` engine (FCFS
//! service order with greedy core grab), while costing one `O(S)` scan per
//! packet instead of a queued core release — the cross-validation tests in
//! `flare-bench` assert the equivalence on the Figure 5 scenarios.
//!
//! [`SwitchModel`] is the session-facing knob: `RateLimited` (the
//! historical serial byte-rate pipeline, bit-identical to pre-subsystem
//! behavior; an infinite rate means no processing delay) or `Hpu` (this
//! model). [`SwitchCompute::execute`] returns the occupancy sample of each
//! dispatch beside its completion time, and the simulator records it only
//! while telemetry is on: the scheduler keeps no recorder of its own.

use std::collections::VecDeque;

use flare_des::Time;
use flare_model::SwitchParams;

use crate::telemetry::ComputeSample;

/// How a switch's packet processing is modeled.
///
/// `RateLimited` preserves the historical serial-pipeline behavior exactly
/// (every existing makespan is bit-identical); `Hpu` enables the
/// event-driven multi-core model of this module.
#[derive(Debug, Clone)]
pub enum SwitchModel {
    /// One serial pipeline draining the given rate in bytes/ns (the
    /// PsPIN-*calibrated* aggregate bandwidth). `f64::INFINITY` means no
    /// processing delay: a handler completes on its packet's arrival.
    RateLimited(f64),
    /// Per-core hierarchical-FCFS scheduling over `K = clusters × C` HPU
    /// cores with service times derived from [`SwitchParams`].
    Hpu(HpuParams),
}

impl SwitchModel {
    /// The session default: the serial pipeline at the PsPIN-calibrated
    /// 512 bytes/ns full-switch aggregation rate.
    pub fn calibrated() -> Self {
        SwitchModel::RateLimited(512.0)
    }

    /// Check that a run can finish under this model; returns the first
    /// problem found. A `RateLimited` rate must be above 0 bytes/ns (∞ is
    /// no processing delay; 0 would overflow the clock, and a negative or
    /// NaN rate would run silently as another model). `Hpu` parameters
    /// must pass [`HpuParams::validate`].
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SwitchModel::RateLimited(rate) if rate.is_nan() || *rate <= 0.0 => {
                Err(format!("RateLimited({rate}): expected a rate > 0 bytes/ns"))
            }
            SwitchModel::RateLimited(_) => Ok(()),
            SwitchModel::Hpu(params) => params.validate(),
        }
    }

    /// Time the serial pipeline takes to process a packet of `bytes` wire
    /// bytes, in ns: ⌈bytes / rate⌉, at least 1, under `RateLimited`; 0 at
    /// an infinite rate. `None` under `Hpu`, whose
    /// handlers run on many cores at once ([`HpuParams::service_ns`] is one
    /// core's time).
    pub fn service_ns(&self, bytes: u32) -> Option<Time> {
        match self {
            SwitchModel::RateLimited(rate) => Some(serial_service_ns(*rate, bytes)),
            SwitchModel::Hpu(_) => None,
        }
    }
}

/// ⌈bytes / rate⌉ ns, at least 1; 0 at an infinite rate (no processing
/// delay). What one packet costs a switch's serial pipeline.
pub(crate) fn serial_service_ns(rate: f64, bytes: u32) -> Time {
    if rate.is_finite() {
        ((bytes as f64 / rate).ceil() as Time).max(1)
    } else {
        0
    }
}

/// Configuration of the [`SwitchCompute`] model: the architectural
/// parameters shared with the analytical model plus the two knobs the
/// closed-form model abstracts away (scheduling subset width and the
/// cold-icache fill).
#[derive(Debug, Clone)]
pub struct HpuParams {
    /// Architectural/workload parameters (cores, clusters, per-element
    /// aggregation cycles, DMA overhead, clock).
    pub params: SwitchParams,
    /// Cores per scheduling subset (`S`); must divide
    /// `params.cores_per_cluster` so a subset never spans clusters
    /// (local-L1 affinity). Defaults to the full cluster (`S = C`), the
    /// paper's recommended operating point.
    pub subset_size: usize,
    /// One-time cycles to fill a cluster's instruction cache, paid by the
    /// first handler on each cluster (0 = always warm).
    pub icache_fill_cycles: u64,
}

impl HpuParams {
    /// Model a switch described by `params` with the default subset width
    /// (`S = C`, one scheduling subset per cluster) and warm icaches.
    pub fn new(params: SwitchParams) -> Self {
        let subset_size = params.cores_per_cluster;
        Self {
            params,
            subset_size,
            icache_fill_cycles: 0,
        }
    }

    /// The paper's full 512-core switch ([`SwitchParams::paper`]).
    pub fn paper() -> Self {
        Self::new(SwitchParams::paper())
    }

    /// The Figure 5 illustrative switch ([`SwitchParams::figure5`]):
    /// K = 4 cores, τ = 4 cycles, δ = 1 — the fixture every
    /// DES-vs-analytical cross-validation runs on.
    pub fn figure5() -> Self {
        Self::new(SwitchParams::figure5())
    }

    /// Override the scheduling subset width `S`.
    pub fn with_subset_size(mut self, s: usize) -> Self {
        self.subset_size = s;
        self
    }

    /// Total HPU cores, `K`.
    pub fn cores(&self) -> usize {
        self.params.cores()
    }

    /// Number of scheduling subsets (`K / S`).
    pub fn subsets(&self) -> usize {
        self.cores() / self.subset_size
    }

    /// Validate internal consistency; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if self.subset_size == 0
            || !self
                .params
                .cores_per_cluster
                .is_multiple_of(self.subset_size)
        {
            return Err(format!(
                "subset_size {} must divide cores_per_cluster {}",
                self.subset_size, self.params.cores_per_cluster
            ));
        }
        Ok(())
    }

    /// Handler service time in ns for a packet of `bytes` wire bytes:
    /// `(dma_copy + bytes/elem_bytes × cycles_per_elem) / clock`, at least
    /// 1 ns (a handler can never retire in zero simulated time).
    pub fn service_ns(&self, bytes: u32) -> Time {
        let elems = bytes as f64 / self.params.elem_bytes as f64;
        let cycles = self.params.dma_copy_cycles + elems * self.params.cycles_per_elem;
        ((cycles / self.params.clock_ghz).ceil() as Time).max(1)
    }
}

/// Occupancy and throughput counters of one switch's compute model,
/// the quantities the Section 5 analytical model predicts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComputeStats {
    /// Handler executions completed (== served packets processed).
    pub handlers: u64,
    /// Packets that found every core of their subset busy and queued.
    pub queued: u64,
    /// Peak FIFO depth in front of any single scheduling subset (the
    /// model's per-core `Q` when `S = 1`): the largest of
    /// [`SwitchCompute::subset_queue_peaks`], taken when the stats are
    /// read.
    pub queue_peak: usize,
    /// Arrival time of the first handler.
    pub first_arrival: Option<Time>,
    /// Completion time of the latest handler.
    pub last_done: Time,
}

impl ComputeStats {
    /// Achieved switch bandwidth in handlers (≈ packets) per ns over the
    /// busy interval — the simulated counterpart of the model's
    /// `ℬ = min(K/τ, 1/δ)` packets/cycle at the 1 GHz = 1 cycle/ns clock.
    pub fn bandwidth_pkt_ns(&self) -> f64 {
        let Some(first) = self.first_arrival else {
            return 0.0;
        };
        let span = self.last_done.saturating_sub(first);
        if span == 0 {
            return 0.0;
        }
        self.handlers as f64 / span as f64
    }
}

/// Per-switch multi-core handler scheduler (see the module docs).
#[derive(Debug)]
pub struct SwitchCompute {
    cfg: HpuParams,
    /// Per-core earliest-free time.
    core_free: Vec<Time>,
    /// Per-cluster icache warm flags.
    warm: Vec<bool>,
    /// Per-subset start times of dispatched-but-not-yet-started handlers,
    /// kept only for queue-occupancy accounting (entries with
    /// `start <= now` have left the FIFO and are dropped lazily).
    pending: Vec<VecDeque<Time>>,
    /// Peak FIFO depth observed per scheduling subset.
    subset_peak: Vec<usize>,
    /// Every counter but `queue_peak`, which [`SwitchCompute::stats`]
    /// derives from `subset_peak`.
    stats: ComputeStats,
}

impl SwitchCompute {
    /// Build the scheduler for one switch.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`HpuParams::validate`].
    pub fn new(cfg: HpuParams) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid HpuParams: {e}");
        }
        let cores = cfg.cores();
        let subsets = cfg.subsets();
        let clusters = cfg.params.clusters;
        Self {
            cfg,
            core_free: vec![0; cores],
            warm: vec![false; clusters],
            pending: vec![VecDeque::new(); subsets],
            subset_peak: vec![0; subsets],
            stats: ComputeStats::default(),
        }
    }

    /// Number of scheduling subsets.
    pub fn subsets(&self) -> usize {
        self.pending.len()
    }

    /// Occupancy and throughput counters so far.
    pub fn stats(&self) -> ComputeStats {
        let queue_peak = self.subset_peak.iter().max().copied().unwrap_or(0);
        ComputeStats {
            queue_peak,
            ..self.stats
        }
    }

    /// Peak FIFO depth observed in front of each scheduling subset, indexed
    /// by subset id (`subset_of(block)`). Its maximum is
    /// [`ComputeStats::queue_peak`]; the distribution reveals which subsets
    /// (blocks) bore the contention under multi-tenant load.
    pub fn subset_queue_peaks(&self) -> &[usize] {
        &self.subset_peak
    }

    /// Scheduling subset serving `block` (hierarchical FCFS pins every
    /// packet of a block to one subset — and cores are numbered
    /// cluster-major, so a subset always lies within one cluster).
    pub fn subset_of(&self, block: u64) -> usize {
        (block % self.pending.len() as u64) as usize
    }

    /// Execute the handler for a packet of `block` with `bytes` wire bytes
    /// arriving at `now`; returns the completion time at which derived
    /// packets should be emitted into the DES, and the occupancy of the
    /// block's subset right after the dispatch.
    ///
    /// FCFS within the subset: the handler starts at `now` if a core is
    /// idle, otherwise at the subset's earliest core-free time (arrivals
    /// are processed in nondecreasing time order, so this equals the
    /// explicit queue-then-pop schedule of the PsPIN engine).
    pub fn execute(&mut self, now: Time, block: u64, bytes: u32) -> (Time, ComputeSample) {
        let s = self.cfg.subset_size;
        let subset = self.subset_of(block);
        let base = subset * s;
        // Earliest-available core of the subset; ties break to the lowest
        // index, matching the PsPIN engine's idle-core stacks.
        let mut core = base;
        let mut free_at = self.core_free[base];
        for c in base + 1..base + s {
            if self.core_free[c] < free_at {
                core = c;
                free_at = self.core_free[c];
            }
        }
        let start = now.max(free_at);
        let cluster = core / self.cfg.params.cores_per_cluster;
        let icache = if self.warm[cluster] {
            0
        } else {
            self.warm[cluster] = true;
            self.cfg.icache_fill_cycles
        };
        let service = icache + self.cfg.service_ns(bytes);
        let fin = start + service;
        self.core_free[core] = fin;

        // Occupancy accounting: this packet waits iff its start is in the
        // future; everything that started by `now` has left the FIFO.
        let q = &mut self.pending[subset];
        while q.front().is_some_and(|&st| st <= now) {
            q.pop_front();
        }
        if start > now {
            q.push_back(start);
            self.stats.queued += 1;
            self.subset_peak[subset] = self.subset_peak[subset].max(q.len());
        }
        let sample = ComputeSample {
            time: now,
            subset: subset as u32,
            // FIFO depth plus the handler just dispatched.
            depth: q.len() as u32 + 1,
        };

        self.stats.handlers += 1;
        if self.stats.first_arrival.is_none() {
            self.stats.first_arrival = Some(now);
        }
        self.stats.last_done = self.stats.last_done.max(fin);
        (fin, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5() -> SwitchCompute {
        SwitchCompute::new(HpuParams::figure5())
    }

    #[test]
    fn service_time_is_cycles_over_clock() {
        let p = HpuParams::paper();
        // 1 KiB packet: 64 DMA + 256 × 4 agg cycles = 1088 cycles = 1088 ns.
        assert_eq!(p.service_ns(1024), 1088);
        // Figure 5 toy: one 4-byte element at 4 cycles, no DMA.
        assert_eq!(HpuParams::figure5().service_ns(4), 4);
        // Never zero, even for empty packets.
        assert_eq!(HpuParams::figure5().service_ns(0), 1);
    }

    #[test]
    fn defaults_are_one_subset_per_cluster() {
        let p = HpuParams::paper();
        assert_eq!(p.cores(), 512);
        assert_eq!(p.subset_size, 8);
        assert_eq!(p.subsets(), 64);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_subset_sizes_are_rejected() {
        assert!(HpuParams::paper().with_subset_size(3).validate().is_err());
        assert!(HpuParams::paper().with_subset_size(0).validate().is_err());
        assert!(HpuParams::paper().with_subset_size(8).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid HpuParams")]
    fn scheduler_panics_on_invalid_config() {
        SwitchCompute::new(HpuParams::figure5().with_subset_size(3));
    }

    #[test]
    fn idle_cores_start_handlers_immediately() {
        let mut c = fig5();
        // K=4, one subset (S=C=4): four line-rate arrivals each find an
        // idle core (Figure 5 scenario A — no queueing).
        for i in 0..4u64 {
            let (fin, _) = c.execute(i, i, 4);
            assert_eq!(fin, i + 4, "packet {i} starts on arrival");
        }
        assert_eq!(c.stats().queue_peak, 0);
        assert_eq!(c.stats().queued, 0);
    }

    #[test]
    fn busy_subset_queues_fcfs() {
        // S=1: all packets of block 0 serialize on core 0 (scenario B).
        let mut c = SwitchCompute::new(HpuParams::figure5().with_subset_size(1));
        let (fins, samples): (Vec<Time>, Vec<ComputeSample>) =
            (0..4u64).map(|i| c.execute(i, 0, 4)).unzip();
        assert_eq!(fins, vec![4, 8, 12, 16], "back-to-back FCFS service");
        // Each sample counts the queue plus the handler just dispatched.
        let depths: Vec<(Time, u32, u32)> = samples
            .iter()
            .map(|s| (s.time, s.subset, s.depth))
            .collect();
        assert_eq!(depths, vec![(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)]);
        // Packets 1..3 queued; the model's Q = P/S·(1 − δk/τ) = 3.
        assert_eq!(c.stats().queue_peak, 3);
        assert_eq!(c.stats().queued, 3);
        // The per-subset breakdown agrees: all contention on subset 0.
        assert_eq!(c.subset_queue_peaks(), &[3, 0, 0, 0]);
    }

    #[test]
    fn staggered_arrivals_remove_queueing() {
        // S=1, δc=τ=4 (scenario C): each packet arrives as the previous
        // one finishes.
        let mut c = SwitchCompute::new(HpuParams::figure5().with_subset_size(1));
        for i in 0..4u64 {
            let (fin, _) = c.execute(4 * i, 0, 4);
            assert_eq!(fin, 4 * i + 4);
        }
        assert_eq!(c.stats().queue_peak, 0);
    }

    #[test]
    fn blocks_pin_to_their_subset_cluster() {
        let mut p = HpuParams::paper();
        p.params.clusters = 2;
        p.params.cores_per_cluster = 2;
        let mut c = SwitchCompute::new(p.with_subset_size(2));
        assert_eq!(c.subset_of(0), 0);
        assert_eq!(c.subset_of(1), 1);
        assert_eq!(c.subset_of(2), 0);
        // Saturate subset 0 (both cores), queue a third handler; subset 1
        // on the other cluster must still start instantly.
        let a = c.execute(0, 0, 1024).0;
        let b = c.execute(0, 0, 1024).0;
        let q = c.execute(0, 0, 1024).0;
        assert_eq!((a, b), (1088, 1088), "two idle cores absorb two packets");
        assert_eq!(q, 2 * 1088, "third packet queues behind the subset");
        let other = c.execute(0, 1, 1024).0;
        assert_eq!(
            other, a,
            "block 1 runs on its own cluster, unaffected by subset 0's queue"
        );
    }

    #[test]
    fn cold_icache_charges_each_clusters_first_handler() {
        let mut c = SwitchCompute::new(HpuParams {
            icache_fill_cycles: 100,
            ..HpuParams::figure5()
        });
        assert_eq!(c.execute(0, 0, 4).0, 104, "first handler pays the fill");
        assert_eq!(c.execute(0, 1, 4).0, 4, "second core is already warm");
    }

    #[test]
    fn throughput_approaches_the_analytical_bandwidth() {
        // Line-rate drive of the Figure 5 switch: ℬ = min(K/τ, 1/δ) = 1
        // packet per ns.
        let mut c = fig5();
        let n = 4000u64;
        for i in 0..n {
            c.execute(i, i / 4, 4);
        }
        let bw = c.stats().bandwidth_pkt_ns();
        assert!((bw - 1.0).abs() < 0.01, "bandwidth {bw} != 1 pkt/ns");
    }

    #[test]
    fn empty_stats_report_zero_bandwidth() {
        let c = fig5();
        assert_eq!(c.stats().bandwidth_pkt_ns(), 0.0);
        assert_eq!(c.stats(), ComputeStats::default());
    }
}
