//! PsPIN unit configuration with the paper's Section 3 parameters.

use flare_des::Time;
use flare_model::SwitchParams;

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

/// Configuration of the simulated PsPIN unit: the switch description
/// shared with the analytical model and the network simulator's HPU
/// compute model, plus what only this engine models.
///
/// Defaults are the paper's: 64 clusters of 8 HPUs at 1 GHz, 4 MiB L2
/// packet memory, 64-cycle DMA packet copy ([`SwitchParams::paper`]), 25×
/// remote-L1 penalty. The paper's RTL simulations use 4 clusters and
/// scale linearly, the engine simulates all 64 directly.
#[derive(Debug, Clone)]
pub struct PspinConfig {
    /// The switch: clusters, cores per cluster (`C`), L2 packet memory
    /// (input buffers) and the DMA packet-copy cost. The engine does not
    /// read the workload fields (ports, packet size, per-element cost):
    /// handlers charge their own cycles.
    pub params: SwitchParams,
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
            params: SwitchParams::paper(),
            remote_l1_factor: 25,
            icache_fill_cycles: 256,
            policy: SchedulingPolicy::Hierarchical { subset_size: 8 },
        }
    }

    /// Total number of HPU cores (`K`).
    pub fn cores(&self) -> usize {
        self.params.cores()
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
        core / self.params.cores_per_cluster
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if let SchedulingPolicy::Hierarchical { subset_size } = self.policy {
            let c = self.params.cores_per_cluster;
            if subset_size == 0 || !c.is_multiple_of(subset_size) {
                return Err(format!(
                    "subset_size {subset_size} must divide cores_per_cluster {c}"
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
        assert_eq!(c.params.l2_packet_bytes, 4 * 1024 * 1024);
        assert_eq!(c.params.dma_copy_cycles, 64.0);
        assert_eq!(c.remote_l1_factor, 25);
        assert!(c.validate().is_ok());
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
    fn an_invalid_switch_is_rejected() {
        let mut c = PspinConfig::paper();
        c.params.dma_copy_cycles = f64::NAN;
        assert!(c.validate().unwrap_err().contains("dma_copy_cycles"));
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
