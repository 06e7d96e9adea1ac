//! Multi-tenant run reporting: per-tenant tail statistics and fabric-wide
//! contention metrics.
//!
//! Single-collective runs summarize themselves in
//! [`RunReport`](crate::session::RunReport); a traffic-engine run (many
//! tenants churning DNN-iteration loops through one shared simulation)
//! additionally needs *distributions* — which tenant's iterations
//! straggled, how deep the HPU subset FIFOs got, whether switch resources
//! were shared fairly. This module holds those types; the
//! `flare-workloads` traffic engine fills them in and attaches them as
//! [`RunReport::tenants`](crate::session::RunReport::tenants).

#![deny(missing_docs)]

use flare_des::Time;
pub use flare_net::HpuSwitchReport;

use crate::switch_prog::ProgramStats;

/// Order statistics of a sample of durations (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TailStats {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest-rank 50th percentile), ns.
    pub p50: Time,
    /// Nearest-rank 99th percentile, ns.
    pub p99: Time,
    /// Largest sample, ns.
    pub max: Time,
    /// Arithmetic mean, ns.
    pub mean: f64,
}

impl TailStats {
    /// Compute tails over `samples` (order irrelevant; empty → all zeros).
    pub fn from_samples(samples: &[Time]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        // Nearest-rank: the ⌈p·n⌉-th smallest sample (1-indexed).
        let rank = |p: f64| -> Time { s[((p * n as f64).ceil() as usize).clamp(1, n) - 1] };
        TailStats {
            count: n,
            p50: rank(0.50),
            p99: rank(0.99),
            max: s[n - 1],
            mean: s.iter().map(|&x| x as f64).sum::<f64>() / n as f64,
        }
    }
}

/// Jain's fairness index over a resource allocation: `(Σx)² / (n·Σx²)`.
/// 1.0 means perfectly even shares; `1/n` means one party got everything.
/// Empty or all-zero allocations return 1.0 by convention (nothing was
/// contended, so nothing was unfair).
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sq)
}

/// What a tenant's per-iteration gradient looks like on the wire: the
/// payload half of the traffic engine's per-flow program selection (the
/// other half — loss recovery — follows the session tuning). Lives in
/// `flare-core` so both the engine's `TenantSpec` and the per-tenant
/// report speak the same type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadSpec {
    /// Dense f32 vector: one `DenseFlareHost` per rank and a dense core on
    /// each switch's `FlareSwitch` (the engine's original v1 path).
    Dense,
    /// Sparsified `(index, value)` gradient at the given density: one
    /// `SparseFlareHost` per rank and a sparse core on each `FlareSwitch`,
    /// hash storage in the tree and an array at the root (Section 7).
    Sparse {
        /// Fraction of elements that are non-zero, in `(0, 1]`.
        density: f64,
    },
}

/// One tenant's outcome in a traffic-engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant's allreduce id.
    pub id: u32,
    /// The tenant's label (handle label / spec name).
    pub label: String,
    /// Participating hosts.
    pub hosts: usize,
    /// Jobs this tenant was configured to run.
    pub jobs: usize,
    /// Jobs that ran to completion within the simulation.
    pub jobs_completed: usize,
    /// Allreduce iterations that completed across all jobs.
    pub iterations_completed: usize,
    /// Per-iteration makespans, ns: last-host completion minus first-host
    /// submit of that iteration's allreduce, in iteration order.
    pub iteration_makespans_ns: Vec<Time>,
    /// Per-job queueing delays, ns: time from a job's arrival until its
    /// last host actually started it (0 when the fabric was idle), in job
    /// order. Only jobs that started are recorded.
    pub queueing_delays_ns: Vec<Time>,
    /// Wire bytes of this tenant's packets processed by traffic-engine
    /// switch programs (the fairness-index resource).
    pub switch_bytes: u64,
    /// The payload this tenant's flows carried.
    pub payload: PayloadSpec,
    /// Blocks re-sent by this tenant's hosts' retransmission timers,
    /// summed over completed iterations (0 on a lossless fabric; in-flight
    /// iterations cut off at the deadline are not counted).
    pub retransmits: u64,
    /// Shortest round trip (send of a block to arrival of its result) any
    /// of this tenant's hosts measured over its completed iterations, ns
    /// ([`RttEstimate::min_rtt`](crate::host::RttEstimate::min_rtt), which
    /// the hosts' probe timeouts are twice of); 0 where none measured one
    /// (no retransmission timer, or nothing completed).
    pub min_rtt_ns: Time,
}

impl TenantReport {
    /// Tail statistics over the iteration makespans.
    pub fn makespan_tails(&self) -> TailStats {
        TailStats::from_samples(&self.iteration_makespans_ns)
    }

    /// Tail statistics over the job queueing delays.
    pub fn queueing_tails(&self) -> TailStats {
        TailStats::from_samples(&self.queueing_delays_ns)
    }
}

/// Fabric-wide contention summary of a traffic-engine run.
///
/// Equality compares the simulation results only. The pool and slab
/// counters of `switch_pools` are a host-side diagnostic, not a result:
/// which encodes find a block on their thread's free list depends on what
/// that thread freed before, so a run started on warm free lists (a second
/// epoch on the same thread, say) may count other hits than one started cold
/// while agreeing on every simulated number.
#[derive(Debug, Clone)]
pub struct FabricStats {
    /// Jain's fairness index over per-tenant switch bytes (see
    /// [`jain_index`]).
    pub fairness_jain: f64,
    /// HPU occupancy per switch, in node-id order (empty unless the run
    /// used [`flare_net::SwitchModel::Hpu`]).
    pub hpu: Vec<HpuSwitchReport>,
    /// Summed buffer-pool / replay-slab recycling counters across every
    /// switch program of the run, their summed loss-recovery counters
    /// ([`ProgramStats::recovery`]) and the largest open-block high-water
    /// ([`ProgramStats::open_peak`]). Only the latter two are part of
    /// equality (see above).
    pub switch_pools: ProgramStats,
}

impl PartialEq for FabricStats {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that adding a field forces a decision here.
        let Self {
            fairness_jain,
            hpu,
            switch_pools,
        } = self;
        *fairness_jain == other.fairness_jain
            && *hpu == other.hpu
            && switch_pools.recovery == other.switch_pools.recovery
            && switch_pools.open_peak == other.switch_pools.open_peak
    }
}

/// The tenant section of a [`RunReport`](crate::session::RunReport):
/// everything a multi-tenant traffic run measures beyond the shared
/// network report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSection {
    /// Per-tenant outcomes, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Fabric-wide contention stats.
    pub fabric: FabricStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_use_nearest_rank_percentiles() {
        let samples: Vec<Time> = (1..=100).collect();
        let t = TailStats::from_samples(&samples);
        assert_eq!(t.count, 100);
        assert_eq!(t.p50, 50);
        assert_eq!(t.p99, 99);
        assert_eq!(t.max, 100);
        assert!((t.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn tails_of_tiny_samples_are_sane() {
        assert_eq!(TailStats::from_samples(&[]), TailStats::default());
        let one = TailStats::from_samples(&[42]);
        assert_eq!((one.p50, one.p99, one.max), (42, 42, 42));
        let two = TailStats::from_samples(&[10, 20]);
        assert_eq!((two.p50, two.p99, two.max), (10, 20, 20));
    }

    #[test]
    fn jain_index_matches_definition() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        // One of four parties hogs everything: 1/n.
        assert!((jain_index(&[8.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Textbook example: (1+2+3)² / (3·(1+4+9)) = 36/42.
        assert!((jain_index(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn fabric_equality_ignores_the_recycling_counters() {
        let a = FabricStats {
            fairness_jain: 1.0,
            hpu: Vec::new(),
            switch_pools: ProgramStats::default(),
        };
        let mut b = a.clone();
        b.switch_pools.byte_pool.hits += 1;
        assert_eq!(a, b, "which free list served a payload is not a result");
        b.switch_pools.recovery.absorbed += 1;
        assert_ne!(a, b, "how a poke was answered is");
        b = a.clone();
        b.switch_pools.open_peak += 1;
        assert_ne!(a, b, "how many blocks were open at once is");
    }

    #[test]
    fn tenant_report_tail_helpers_delegate() {
        let t = TenantReport {
            id: 3,
            label: "t3".into(),
            hosts: 4,
            jobs: 2,
            jobs_completed: 2,
            iterations_completed: 3,
            iteration_makespans_ns: vec![30, 10, 20],
            queueing_delays_ns: vec![0, 7],
            switch_bytes: 1024,
            payload: PayloadSpec::Dense,
            retransmits: 0,
            min_rtt_ns: 0,
        };
        assert_eq!(t.makespan_tails().p50, 20);
        assert_eq!(t.makespan_tails().max, 30);
        assert_eq!(t.queueing_tails().max, 7);
    }
}
