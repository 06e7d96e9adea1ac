//! Packet scheduling and input-buffer occupancy model (paper Section 5).
//!
//! Hierarchical FCFS assigns all packets of a block to a subset of `S` cores
//! on one cluster (for local-only L1 accesses), which turns the steady
//! per-core arrival stream into bursts. These functions quantify the queue
//! build-up those bursts cause, culminating in Eq. 1 for the maximum number
//! of packets resident in the switch.

use crate::params::SwitchParams;

/// `δk = min(S·δc, K·δ)`: interarrival of burst packets at a single core.
///
/// Packets of one block arrive to an `S`-core subset every `δc`, hence to
/// each core every `S·δc`; in the long run a core can never receive packets
/// faster than the fair share `K·δ` (Section 5).
pub fn delta_k(s: usize, delta_c: f64, k: usize, delta: f64) -> f64 {
    (s as f64 * delta_c).min(k as f64 * delta)
}

/// `Q = P/S · (1 − δk/τ)`: maximum queue length in front of one core.
///
/// A burst holds up to `P/S` packets arriving every `δk`; during the burst
/// the core drains one packet every `τ`, absorbing a `δk/τ` fraction.
/// Clamped at 0 for the no-queueing regime `δk ≥ τ`.
pub fn queue_len(p: usize, s: usize, delta_k: f64, tau: f64) -> f64 {
    debug_assert!(tau > 0.0);
    (p as f64 / s as f64 * (1.0 - delta_k / tau)).max(0.0)
}

/// Eq. 1: `𝒬 = (Q + 1)·K`, the maximum number of packets resident in the
/// switch (queued plus in service on each core).
pub fn max_packets_in_switch(q: f64, k: usize) -> f64 {
    (q + 1.0) * k as f64
}

/// `ℒ = (P−1)·δc + (Q+1)·τ`: worst-case latency to fully reduce a block —
/// waiting for all its packets plus queueing and serving the last one
/// (Section 5, end).
pub fn block_latency(p: usize, delta_c: f64, q: f64, tau: f64) -> f64 {
    (p as f64 - 1.0) * delta_c + (q + 1.0) * tau
}

/// Little's-law working-memory requirement (Section 4.3):
/// `ℛ = M · (ℬ/P) · ℒ` buffers, where `ℬ` is the switch bandwidth in
/// packets/cycle, so `ℬ/P` is the block completion rate. The network
/// manager in `flare-core` (`NetworkManager::create_allreduce`) sizes the
/// window of a flow whose hosts outnumber its blocks with it, in ns.
pub fn working_buffers(m: f64, bandwidth_pkt_cycle: f64, p: usize, latency: f64) -> f64 {
    m * bandwidth_pkt_cycle / p as f64 * latency
}

/// `ℬ = min(K/τ, 1/δ)` in packets per cycle (Section 4.1).
pub fn switch_bandwidth(k: usize, tau: f64, delta: f64) -> f64 {
    (k as f64 / tau).min(1.0 / delta)
}

/// A fully-evaluated scheduling operating point, bundling the quantities the
/// paper's figures report for one `(S, δc, τ)` choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Cores per scheduling subset.
    pub s: usize,
    /// Intra-block interarrival (cycles).
    pub delta_c: f64,
    /// Core service time (cycles).
    pub tau: f64,
    /// Per-core burst interarrival δk (cycles).
    pub delta_k: f64,
    /// Max queue length per core.
    pub q: f64,
    /// Max packets resident in the switch (Eq. 1).
    pub packets_in_switch: f64,
    /// Input-buffer occupancy in bytes (𝒬 × packet size).
    pub input_buffer_bytes: f64,
    /// Block latency ℒ (cycles).
    pub latency: f64,
    /// Switch bandwidth (packets/cycle).
    pub bandwidth_pkt_cycle: f64,
}

/// Evaluate the full Section-5 model at one operating point.
pub fn evaluate(params: &SwitchParams, s: usize, delta_c: f64, tau: f64) -> OperatingPoint {
    let k = params.cores();
    let p = params.ports;
    let delta = params.line_rate_delta();
    let dk = delta_k(s, delta_c, k, delta);
    let q = queue_len(p, s, dk, tau);
    let packets = max_packets_in_switch(q, k);
    let latency = block_latency(p, delta_c, q, tau);
    OperatingPoint {
        s,
        delta_c,
        tau,
        delta_k: dk,
        q,
        packets_in_switch: packets,
        input_buffer_bytes: packets * params.packet_bytes as f64,
        latency,
        bandwidth_pkt_cycle: switch_bandwidth(k, tau, delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{KIB, MIB};

    /// The illustrative switch of Figure 5: K=4 cores, τ=4, δ=1, P=4.
    fn fig5_params() -> SwitchParams {
        SwitchParams::figure5()
    }

    #[test]
    fn figure5_scenario_a_no_queueing() {
        // Scenario A: global FCFS, S=K=4, δc=δ=1 ⇒ δk = min(4·1, 4·1) = 4 = τ
        // ⇒ packets are never enqueued (Q = 0).
        let p = fig5_params();
        assert_eq!(p.line_rate_delta(), 1.0);
        let op = evaluate(&p, 4, 1.0, 4.0);
        assert_eq!(op.delta_k, 4.0);
        assert_eq!(op.q, 0.0);
        assert_eq!(op.packets_in_switch, 4.0);
    }

    #[test]
    fn figure5_scenario_b_bursts_build_q3() {
        // Scenario B: S=1, δc=1 ⇒ δk=1; Q = 4/1·(1 − 1/4) = 3, exactly the
        // queue of three packets shown in the Figure 5 detail of Core 0.
        let p = fig5_params();
        let op = evaluate(&p, 1, 1.0, 4.0);
        assert_eq!(op.delta_k, 1.0);
        assert_eq!(op.q, 3.0);
        assert_eq!(op.packets_in_switch, 16.0);
    }

    #[test]
    fn figure5_scenario_c_staggering_removes_queueing() {
        // Scenario C: S=1 but δc=4 (staggered sending) ⇒ δk=4=τ ⇒ Q=0 with
        // the same block-to-core locality as scenario B.
        let p = fig5_params();
        let op = evaluate(&p, 1, 4.0, 4.0);
        assert_eq!(op.q, 0.0);
        assert_eq!(op.packets_in_switch, 4.0);
    }

    #[test]
    fn paper_switch_s1_small_data_occupies_tens_of_mib() {
        // Full switch, S=1, 8 KiB data (δc = 16): the S=1 input-buffer blow-up
        // the paper calls out in Section 6.1 (Fig. 7 middle, ~30 MiB).
        let p = SwitchParams::paper();
        let dc = p.staggered_delta_c(8 * KIB, p.l_cycles());
        let op = evaluate(&p, 1, dc, p.l_cycles());
        assert!(
            op.input_buffer_bytes > 30.0 * MIB as f64,
            "{}",
            op.input_buffer_bytes
        );
        assert!(op.input_buffer_bytes < 35.0 * MIB as f64);
    }

    #[test]
    fn paper_switch_sc_small_data_is_moderate() {
        // S=C=8 with the same small data: bursts are 8× milder.
        let p = SwitchParams::paper();
        let dc = p.staggered_delta_c(8 * KIB, p.l_cycles());
        let op = evaluate(&p, 8, dc, p.l_cycles());
        assert!(
            op.input_buffer_bytes < 5.0 * MIB as f64,
            "{}",
            op.input_buffer_bytes
        );
    }

    #[test]
    fn staggered_large_data_eliminates_queueing() {
        // 512 KiB: δc reaches L so δk = min(S·1024, 1024) = 1024 = τ ⇒ Q=0.
        let p = SwitchParams::paper();
        let dc = p.staggered_delta_c(512 * KIB, p.l_cycles());
        for s in [1, 2, 4, 8] {
            let op = evaluate(&p, s, dc, p.l_cycles());
            assert_eq!(op.q, 0.0, "S={s}");
        }
    }

    #[test]
    fn queue_monotonically_shrinks_with_s() {
        let p = SwitchParams::paper();
        let dc = p.line_rate_delta();
        let mut prev = f64::INFINITY;
        for s in [1, 2, 4, 8] {
            let op = evaluate(&p, s, dc, p.l_cycles());
            assert!(op.q <= prev, "Q must not grow with S");
            prev = op.q;
        }
    }

    #[test]
    fn bandwidth_is_capped_by_line_rate() {
        let p = SwitchParams::paper();
        // Even with an absurdly fast service time the switch cannot exceed 1/δ.
        let b = switch_bandwidth(p.cores(), 1.0, p.line_rate_delta());
        assert_eq!(b, 1.0 / p.line_rate_delta());
    }

    #[test]
    fn latency_includes_collection_and_service() {
        // P=4, δc=2, Q=1, τ=4: ℒ = 3·2 + 2·4 = 14.
        assert_eq!(block_latency(4, 2.0, 1.0, 4.0), 14.0);
    }

    #[test]
    fn littles_law_working_memory_example() {
        // Section 4.3 sanity: M=1, ℬ=0.5 pkt/cycle, P=64, ℒ=65536 cycles
        // ⇒ ℛ = 512 buffers (×1 KiB = 0.5 MiB, the paper's "around 512 KiB").
        let r = working_buffers(1.0, 0.5, 64, 65_536.0);
        assert_eq!(r, 512.0);
    }
}
