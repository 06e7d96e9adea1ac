//! PsPIN unit configuration with the paper's Section 3 parameters.

use flare_des::Time;

/// How the packet scheduler maps packets to HPUs (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Plain FCFS over all cores: best load spread, but packets of one block
    /// land on arbitrary clusters, forcing remote-L1 aggregation buffers.
    GlobalFcfs,
    /// Hierarchical FCFS: all packets of a block go to one subset of
    /// `subset_size` cores on a single cluster, so every buffer access is
    /// cluster-local. `subset_size = 1` serializes each block on one core.
    Hierarchical {
        /// Cores per scheduling subset (`S`); must divide the cluster size.
        subset_size: usize,
    },
}

/// Architectural parameters of the simulated PsPIN unit.
///
/// Defaults are the paper's: 1 GHz clock, 8 HPUs per cluster, 4 MiB L2
/// packet memory, 64-cycle DMA packet copy, 25× remote-L1 penalty.
/// `clusters` defaults to the full-switch 64: the paper's RTL simulations
/// use 4 and scale linearly, the engine simulates all 64 directly.
#[derive(Debug, Clone)]
pub struct PspinConfig {
    /// Number of PULP clusters.
    pub clusters: usize,
    /// HPU cores per cluster (`C`).
    pub cores_per_cluster: usize,
    /// L2 packet-buffer memory in bytes (input buffers).
    pub l2_packet_bytes: usize,
    /// DMA cost to copy one packet into a buffer, cycles.
    pub dma_copy_cycles: u64,
    /// Multiplier applied to buffer-touching cycles when the buffer lives in
    /// another cluster's L1 (paper: "up to 25x higher").
    pub remote_l1_factor: u64,
    /// One-time cost, per (cluster, program), to fill the 4 KiB cluster
    /// instruction cache from L2 program memory (the "cold start" visible at
    /// small sizes in Fig. 11).
    pub icache_fill_cycles: u64,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
}

impl Default for PspinConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl PspinConfig {
    /// Full-switch configuration: 64 clusters × 8 HPUs (Section 3).
    pub fn paper() -> Self {
        Self {
            clusters: 64,
            cores_per_cluster: 8,
            l2_packet_bytes: 4 << 20,
            dma_copy_cycles: 64,
            remote_l1_factor: 25,
            icache_fill_cycles: 256,
            policy: SchedulingPolicy::Hierarchical { subset_size: 8 },
        }
    }

    /// Build an engine configuration from the analytical model's
    /// [`flare_model::SwitchParams`] — the same typed source the network
    /// simulator's HPU compute model (`flare-net::compute`) derives its
    /// per-packet service times from, so DES-vs-engine cross-validation
    /// runs both simulators off one parameter set. `subset_size` selects
    /// hierarchical FCFS (`Some(S)`) or global FCFS (`None`);
    /// `icache_fill_cycles` is the engine-only cold-start cost.
    ///
    /// `SwitchParams` carries no remote-L1 penalty (the closed-form model
    /// assumes cluster-local buffers), so this keeps [`Self::paper`]'s
    /// 25× factor: under global FCFS the engine still charges
    /// cross-cluster buffer touches the paper's cost. Override the field
    /// afterwards to model different silicon.
    pub fn from_switch_params(
        p: &flare_model::SwitchParams,
        subset_size: Option<usize>,
        icache_fill_cycles: u64,
    ) -> Self {
        Self {
            clusters: p.clusters,
            cores_per_cluster: p.cores_per_cluster,
            l2_packet_bytes: p.l2_packet_bytes,
            dma_copy_cycles: p.dma_copy_cycles as u64,
            remote_l1_factor: Self::paper().remote_l1_factor,
            icache_fill_cycles,
            policy: match subset_size {
                None => SchedulingPolicy::GlobalFcfs,
                Some(s) => SchedulingPolicy::Hierarchical { subset_size: s },
            },
        }
    }

    /// Total number of HPU cores (`K`).
    pub fn cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// Number of scheduling subsets under the current policy.
    pub fn subsets(&self) -> usize {
        match self.policy {
            SchedulingPolicy::GlobalFcfs => 1,
            SchedulingPolicy::Hierarchical { subset_size } => self.cores() / subset_size,
        }
    }

    /// Cluster that owns core `core`.
    pub fn cluster_of(&self, core: usize) -> usize {
        core / self.cores_per_cluster
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 || self.cores_per_cluster == 0 {
            return Err("clusters and cores_per_cluster must be positive".into());
        }
        if let SchedulingPolicy::Hierarchical { subset_size } = self.policy {
            if subset_size == 0 || !self.cores_per_cluster.is_multiple_of(subset_size) {
                return Err(format!(
                    "subset_size {subset_size} must divide cores_per_cluster {}",
                    self.cores_per_cluster
                ));
            }
        }
        Ok(())
    }

    /// Aggregate line-rate interarrival `δ` (in cycles) such that the unit
    /// runs at full utilization for handlers of service time `tau` cycles:
    /// `δ = τ / K`.
    pub fn line_rate_delta(&self, tau: u64) -> Time {
        (tau / self.cores() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section3() {
        let c = PspinConfig::paper();
        assert_eq!(c.cores(), 512);
        assert_eq!(c.l2_packet_bytes, 4 * 1024 * 1024);
        assert_eq!(c.dma_copy_cycles, 64);
        assert_eq!(c.remote_l1_factor, 25);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn from_switch_params_mirrors_the_model_crate() {
        let c = PspinConfig::from_switch_params(&flare_model::SwitchParams::paper(), Some(8), 256);
        assert_eq!(c.cores(), 512);
        assert_eq!(c.l2_packet_bytes, 4 << 20);
        assert_eq!(c.dma_copy_cycles, 64);
        assert_eq!(c.policy, SchedulingPolicy::Hierarchical { subset_size: 8 });
        assert_eq!(
            c.remote_l1_factor,
            PspinConfig::paper().remote_l1_factor,
            "the paper's remote-L1 penalty survives the conversion"
        );
        assert!(c.validate().is_ok());
        let toy = PspinConfig::from_switch_params(&flare_model::SwitchParams::figure5(), None, 0);
        assert_eq!(toy.cores(), 4);
        assert_eq!(toy.policy, SchedulingPolicy::GlobalFcfs);
    }

    #[test]
    fn subsets_divide_cores() {
        let mut c = PspinConfig::paper();
        assert_eq!(c.subsets(), 64); // S = 8 ⇒ one subset per cluster
        c.policy = SchedulingPolicy::Hierarchical { subset_size: 1 };
        assert_eq!(c.subsets(), 512);
        c.policy = SchedulingPolicy::GlobalFcfs;
        assert_eq!(c.subsets(), 1);
    }

    #[test]
    fn invalid_subset_size_is_rejected() {
        let mut c = PspinConfig::paper();
        c.policy = SchedulingPolicy::Hierarchical { subset_size: 3 };
        assert!(c.validate().is_err());
        c.policy = SchedulingPolicy::Hierarchical { subset_size: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn cluster_of_maps_contiguously() {
        let c = PspinConfig::paper();
        assert_eq!(c.cluster_of(0), 0);
        assert_eq!(c.cluster_of(7), 0);
        assert_eq!(c.cluster_of(8), 1);
        assert_eq!(c.cluster_of(511), 63);
    }

    #[test]
    fn line_rate_delta_for_f32_packets() {
        // τ = 1024 cycles, K = 512 ⇒ δ = 2 cycles.
        assert_eq!(PspinConfig::paper().line_rate_delta(1024), 2);
    }
}
