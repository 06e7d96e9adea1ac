//! Figure 5: the three scheduling scenarios — queue build-up as a function
//! of the subset size `S` and the intra-block interarrival `δc`.
//!
//! Reproduced twice: (a) from the closed-form Section 5 model and (b) by
//! actually running the toy switch (K=4 cores, τ=4, δ=1, P=4) on the PsPIN
//! engine. Both must agree on the per-core queue depth.

use flare_model::{scheduling, SwitchParams};
use flare_pspin::engine::run_trace;
use flare_pspin::{HpuCtx, PspinConfig, PspinPacket, SchedulingPolicy};

use crate::{fig05_net, table, Scale};

/// One scenario row: model Q vs simulated peak queue.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario label (A/B/C as in the figure).
    pub scenario: &'static str,
    /// Subset size S.
    pub s: usize,
    /// Intra-block interarrival δc.
    pub delta_c: u64,
    /// Modeled per-core max queue length Q.
    pub model_q: f64,
    /// Simulated peak queued packets across the switch.
    pub sim_queue_peak: i64,
}

fn toy_params() -> SwitchParams {
    SwitchParams::figure5()
}

fn toy_config(subset: Option<usize>) -> PspinConfig {
    PspinConfig {
        clusters: 1,
        cores_per_cluster: 4,
        l1_bytes_per_cluster: 1024,
        l2_packet_bytes: 1 << 20,
        dma_copy_cycles: 0,
        remote_l1_factor: 1,
        icache_fill_cycles: 0,
        policy: match subset {
            None => SchedulingPolicy::GlobalFcfs,
            Some(s) => SchedulingPolicy::Hierarchical { subset_size: s },
        },
    }
}

fn fixed_tau(tau: u64) -> impl FnMut(&mut HpuCtx<'_>, &PspinPacket) {
    move |ctx, _| ctx.compute(tau)
}

/// Simulate one scenario: 4 blocks × 4 children; arrival time of block `x`
/// from child `j` is `stride_j·j + stride_x·x` (scenario-specific).
fn simulate(subset: Option<usize>, arrivals: Vec<(u64, u64, u16)>) -> i64 {
    let pkts = arrivals
        .into_iter()
        .map(|(t, block, child)| (t, PspinPacket::new(0, block, child, 4, bytes::Bytes::new())))
        .collect();
    let (report, _) = run_trace(toy_config(subset), fixed_tau(4), pkts, false);
    report.queue_peak
}

/// Compute the figure's three scenarios.
pub fn rows() -> Vec<Row> {
    let p = toy_params();
    let tau = 4.0;
    // Scenario A: global FCFS, δc = δ = 1 (packets of a block arrive
    // back-to-back but spread over all cores).
    let a_arrivals: Vec<(u64, u64, u16)> = (0..16u64).map(|i| (i, i / 4, (i % 4) as u16)).collect();
    // Scenario B: S=1, δc = 1 — the burst case.
    let b_arrivals: Vec<(u64, u64, u16)> = (0..16u64).map(|i| (i, i / 4, (i % 4) as u16)).collect();
    // Scenario C: S=1, δc = 4 (staggered sending).
    let c_arrivals: Vec<(u64, u64, u16)> = (0..16u64).map(|i| (i, i % 4, (i / 4) as u16)).collect();

    let q = |s: usize, dc: f64| {
        let dk = scheduling::delta_k(s, dc, p.cores(), p.line_rate_delta());
        scheduling::queue_len(p.ports, s, dk, tau)
    };
    vec![
        Row {
            scenario: "A (S=K, dc=1)",
            s: 4,
            delta_c: 1,
            model_q: q(4, 1.0),
            sim_queue_peak: simulate(None, a_arrivals),
        },
        Row {
            scenario: "B (S=1, dc=1)",
            s: 1,
            delta_c: 1,
            model_q: q(1, 1.0),
            sim_queue_peak: simulate(Some(1), b_arrivals),
        },
        Row {
            scenario: "C (S=1, dc=4)",
            s: 1,
            delta_c: 4,
            model_q: q(1, 4.0),
            sim_queue_peak: simulate(Some(1), c_arrivals),
        },
    ]
}

/// Print the scenarios, then the same ones through a NetSim star
/// ([`fig05_net`]).
pub fn print(_: Scale) {
    println!("Figure 5: hierarchical FCFS scheduling scenarios (K=4, tau=4, delta=1, P=4)");
    println!();
    let columns: &[table::Column<Row>] = &[
        ("scenario", |r| r.scenario.to_string()),
        ("S", |r| r.s.to_string()),
        ("delta_c", |r| r.delta_c.to_string()),
        ("model Q/core", |r| format!("{:.1}", r.model_q)),
        ("sim queued peak", |r| r.sim_queue_peak.to_string()),
    ];
    table::print(rows(), columns);
    println!("A: global FCFS; B: per-block core pinning builds bursts;");
    println!("C: staggered sending keeps pinning without the queues.");

    // Cross-validation of the network simulator's switch-compute model:
    // the same scenarios through a real NetSim star under
    // SwitchModel::Hpu, next to the closed-form model and the engine.
    println!();
    println!("Cross-validation: NetSim switch-compute (SwitchModel::Hpu) vs model vs engine");
    println!();
    let columns: &[table::Column<fig05_net::Row>] = &[
        ("scenario", |r| r.scenario.to_string()),
        ("S", |r| r.s.to_string()),
        ("model B (pkt/cyc)", |r| format!("{:.2}", r.model_bandwidth)),
        ("DES B (pkt/ns)", |r| format!("{:.3}", r.des_bandwidth)),
        ("model Q/core", |r| format!("{:.1}", r.model_q)),
        ("DES queue peak", |r| r.des_queue_peak.to_string()),
        ("engine queue peak", |r| r.engine_queue_peak.to_string()),
    ];
    table::print(fig05_net::rows(256), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_match_the_paper() {
        let rows = rows();
        // A: no queueing; B: Q=3 per core (bursts); C: staggering removes it.
        assert_eq!(rows[0].model_q, 0.0);
        assert_eq!(rows[0].sim_queue_peak, 0);
        assert_eq!(rows[1].model_q, 3.0);
        assert!(rows[1].sim_queue_peak > 0);
        assert_eq!(rows[2].model_q, 0.0);
        assert_eq!(rows[2].sim_queue_peak, 0);
    }
}
