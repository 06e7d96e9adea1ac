//! Switch and workload parameters with the paper's defaults (Section 3).

use crate::units::KIB;

/// Architectural and workload parameters of the modeled PsPIN switch.
///
/// Defaults reproduce the paper's configuration: a 64-port switch whose
/// processing unit fits ~64 PULP clusters of 8 RI5CY HPUs in the 180 mm²
/// area budget, clocked at 1 GHz, receiving 1 KiB payloads of 256 f32
/// elements, with an aggregation cost of 4 cycles per f32 element (measured
/// by the authors on the PsPIN cycle-accurate simulator) and a 64-cycle DMA
/// packet copy.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchParams {
    /// Number of PsPIN clusters in the processing unit.
    pub clusters: usize,
    /// HPU cores per cluster (`C` in the paper).
    pub cores_per_cluster: usize,
    /// Packets received per reduction block = children in the reduction
    /// tree (`P`). A fully-populated 64-port switch has P = 64.
    pub ports: usize,
    /// Packet payload size in bytes (`N` elements × element size).
    pub packet_bytes: usize,
    /// Size of one element in bytes (f32 = 4).
    pub elem_bytes: usize,
    /// Aggregation cost in cycles per element (f32 = 4; Section 6 preamble).
    pub cycles_per_elem: f64,
    /// DMA engine cost to copy one packet into a buffer (cycles).
    pub dma_copy_cycles: f64,
    /// Core clock in GHz (1 cycle == 1 ns at the default 1 GHz).
    pub clock_ghz: f64,
    /// L2 packet memory in bytes (input buffers).
    pub l2_packet_bytes: usize,
}

impl Default for SwitchParams {
    fn default() -> Self {
        Self::paper()
    }
}

impl SwitchParams {
    /// The paper's full-switch configuration (Section 3 area budget).
    pub fn paper() -> Self {
        Self {
            clusters: 64,
            cores_per_cluster: 8,
            ports: 64,
            packet_bytes: KIB as usize,
            elem_bytes: 4,
            cycles_per_elem: 4.0,
            dma_copy_cycles: 64.0,
            clock_ghz: 1.0,
            l2_packet_bytes: 4 * MIB_USIZE,
        }
    }

    /// The illustrative switch of Figure 5: one cluster of `K = 4` cores,
    /// `P = 4` ports, one 4-byte element per packet at 4 cycles/element
    /// (`τ = 4`), line-rate interarrival `δ = 1`. Small enough to follow
    /// packet-by-packet, it is the shared fixture for every
    /// model-vs-simulator cross-validation in the workspace (the Section 5
    /// scheduling scenarios, the PsPIN engine differential tests, and the
    /// network simulator's HPU compute model).
    pub fn figure5() -> Self {
        Self {
            clusters: 1,
            cores_per_cluster: 4,
            ports: 4,
            packet_bytes: 4,
            elem_bytes: 4,
            cycles_per_elem: 4.0,
            dma_copy_cycles: 0.0,
            clock_ghz: 1.0,
            l2_packet_bytes: 1 << 20,
        }
    }

    /// Check that a simulator can run this switch; returns the first
    /// problem found. Cycle costs must be finite and non-negative: a NaN
    /// would serve every packet in the minimum time, an infinite one
    /// overflow the clock.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 || self.cores_per_cluster == 0 {
            return Err("clusters and cores_per_cluster must be positive".into());
        }
        if self.elem_bytes == 0 {
            return Err("elem_bytes must be positive".into());
        }
        if self.clock_ghz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("clock_ghz must be positive".into());
        }
        for (name, cycles) in [
            ("cycles_per_elem", self.cycles_per_elem),
            ("dma_copy_cycles", self.dma_copy_cycles),
        ] {
            if !(cycles.is_finite() && cycles >= 0.0) {
                return Err(format!("{name} = {cycles}: expected a finite cost >= 0"));
            }
        }
        Ok(())
    }

    /// Total number of HPU cores, `K = clusters × C`.
    pub fn cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// Elements per packet, `N`.
    pub fn elems_per_packet(&self) -> usize {
        self.packet_bytes / self.elem_bytes
    }

    /// `L`: cycles to aggregate one full packet inside the critical section.
    ///
    /// For the default parameters this is 256 × 4 = 1024 cycles, the paper's
    /// "1 ns per byte circa".
    pub fn l_cycles(&self) -> f64 {
        self.elems_per_packet() as f64 * self.cycles_per_elem
    }

    /// Line-rate packet interarrival `δ` in cycles: the paper sizes the
    /// system so the switch-wide service rate `K/τ_min` equals the arrival
    /// rate `1/δ`, i.e. `δ = L / K`.
    pub fn line_rate_delta(&self) -> f64 {
        self.l_cycles() / self.cores() as f64
    }

    /// Number of reduction blocks for a `data_bytes`-sized allreduce,
    /// `Z / N` (at least 1).
    pub fn blocks_for(&self, data_bytes: u64) -> u64 {
        (data_bytes / self.packet_bytes as u64).max(1)
    }

    /// Maximum intra-block interarrival achievable by staggered sending for
    /// a given data size: `δc ∈ [δ, δ·Z/N]` (Section 5).
    pub fn max_staggered_delta_c(&self, data_bytes: u64) -> f64 {
        self.line_rate_delta() * self.blocks_for(data_bytes) as f64
    }

    /// The intra-block interarrival `δc` a well-tuned host stack induces:
    /// staggered sending raises `δc` only as far as useful, i.e. up to the
    /// target (typically `L`), bounded by the achievable maximum.
    pub fn staggered_delta_c(&self, data_bytes: u64, target: f64) -> f64 {
        self.max_staggered_delta_c(data_bytes)
            .min(target)
            .max(self.line_rate_delta())
    }
}

const MIB_USIZE: usize = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section3() {
        let p = SwitchParams::paper();
        assert_eq!(p.cores(), 512);
        assert_eq!(p.elems_per_packet(), 256);
        assert_eq!(p.l_cycles(), 1024.0);
        assert_eq!(p.line_rate_delta(), 2.0);
        assert_eq!(p.l2_packet_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn figure5_switch_is_the_k4_tau4_delta1_toy() {
        let p = SwitchParams::figure5();
        assert_eq!(p.cores(), 4);
        assert_eq!(p.elems_per_packet(), 1);
        assert_eq!(p.l_cycles(), 4.0);
        assert_eq!(p.line_rate_delta(), 1.0);
        assert!(p.l_cycles() / p.cores() as f64 == p.line_rate_delta());
    }

    #[test]
    fn staggering_bounds_hold() {
        let p = SwitchParams::paper();
        // 512 KiB of data = 512 blocks: δc can reach δ·512 = 1024 = L,
        // the paper's "only guaranteed if larger than 512 KiB" threshold.
        assert_eq!(p.max_staggered_delta_c(512 * KIB), 1024.0);
        assert_eq!(p.staggered_delta_c(512 * KIB, p.l_cycles()), 1024.0);
        // Small data cannot stagger far.
        assert_eq!(p.staggered_delta_c(8 * KIB, p.l_cycles()), 16.0);
        // δc never below δ.
        assert!(p.staggered_delta_c(512, 0.0) >= p.line_rate_delta());
    }

    #[test]
    fn cycle_costs_must_be_finite_and_non_negative() {
        assert!(SwitchParams::paper().validate().is_ok());
        assert!(SwitchParams::figure5().validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut p = SwitchParams::paper();
            p.cycles_per_elem = bad;
            assert!(p.validate().unwrap_err().contains("cycles_per_elem"));
            p.cycles_per_elem = 4.0;
            p.dma_copy_cycles = bad;
            assert!(p.validate().unwrap_err().contains("dma_copy_cycles"));
        }
    }

    #[test]
    fn blocks_for_rounds_down_with_min_one() {
        let p = SwitchParams::paper();
        assert_eq!(p.blocks_for(512), 1);
        assert_eq!(p.blocks_for(4096), 4);
    }
}
