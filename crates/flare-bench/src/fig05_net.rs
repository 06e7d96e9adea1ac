//! The rows of Figure 5 ([`crate::fig05`] prints them): the three
//! scheduling scenarios — queue build-up as a function of the subset size
//! `S` and the intra-block interarrival `δc` — on the toy switch (K=4
//! cores, τ=4, δ=1, P=4), computed three ways: the
//! closed-form Section 5 model, a real `NetSim` star whose switch runs
//! [`SwitchModel::Hpu`], and the PsPIN engine.
//!
//! All three implementations are driven from one parameter set
//! ([`SwitchParams::figure5`], converted to an [`HpuParams`] for the DES
//! and a [`PspinConfig`] for the engine), so a divergence in any of the
//! three columns is a real modeling bug, not a configuration skew:
//!
//! * **model** — `scheduling::evaluate` (bandwidth `ℬ`, per-core queue `Q`),
//! * **DES** — hosts schedule the scenario's send trace onto a star
//!   topology; the switch's [`flare_net::SwitchCompute`] reports achieved
//!   bandwidth and per-subset queue peak,
//! * **engine** — `flare_pspin::engine::run_trace` on the identical
//!   arrival trace reports its total queued-packet peak (summed across
//!   subsets, hence ≥ the per-core `Q` whenever several subsets queue at
//!   once — e.g. 3+2+1 = 6 in scenario B's pipeline ramp-up).

use flare_model::{scheduling, SwitchParams};
use flare_net::{
    HostCtx, HostProgram, HpuParams, LinkSpec, NetPacket, NetSim, NodeId, SwitchCtx, SwitchModel,
    SwitchProgram, Topology,
};
use flare_pspin::engine::run_trace;
use flare_pspin::SchedulingPolicy::{self, GlobalFcfs, Hierarchical};
use flare_pspin::{HpuCtx, PspinConfig, PspinPacket};

/// Flow id the probe program serves.
const FLOW: u32 = 7;
/// Wire bytes per Figure-5 packet (one 4-byte element).
const PKT_BYTES: u32 = 4;

/// One cross-validated scenario row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario label (A/B/C as in the figure).
    pub scenario: &'static str,
    /// Subset size `S`.
    pub s: usize,
    /// Intra-block interarrival `δc` (cycles).
    pub delta_c: u64,
    /// Analytical switch bandwidth `ℬ = min(K/τ, 1/δ)` in packets/cycle.
    pub model_bandwidth: f64,
    /// Bandwidth achieved by the DES switch (packets/ns; 1 cycle = 1 ns).
    pub des_bandwidth: f64,
    /// Analytical per-core queue `Q`.
    pub model_q: f64,
    /// Peak per-subset FIFO depth observed by the DES compute model.
    pub des_queue_peak: usize,
    /// Peak total queued packets observed by the PsPIN engine.
    pub engine_queue_peak: i64,
}

/// A host that plays back a fixed send trace towards the star switch:
/// `(send time, block, child)` triples, one 4-byte packet each.
struct TraceSender {
    switch: NodeId,
    sends: Vec<(u64, u64, u16)>,
}

impl HostProgram for TraceSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for &(t, block, child) in &self.sends {
            // Header only: no payload, PKT_BYTES on the wire.
            let mut pkt = NetPacket::new(self.switch, FLOW, block, child, 0, bytes::Bytes::new());
            pkt.wire_bytes = PKT_BYTES;
            ctx.send_at(t, pkt);
        }
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, _pkt: NetPacket) {}
}

/// A switch program that runs every packet of [`FLOW`] through the compute
/// model and consumes it (the handler itself is the measurement).
struct HpuProbe {
    handled: u64,
}

impl SwitchProgram for HpuProbe {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
        if pkt.flow != FLOW {
            return Some(pkt);
        }
        let _fin = ctx.processing_done_for(pkt.block, pkt.wire_bytes);
        self.handled += 1;
        None
    }
}

/// Run a `(send time, block, child)` trace through a `NetSim` star whose
/// switch models compute as `Hpu(params)`; returns
/// `(achieved bandwidth pkt/ns, per-subset queue peak)`.
///
/// Links are 32 Gbps with zero propagation delay, so a 4-byte packet
/// serializes in exactly 1 ns and every arrival lands `send + 1` — the
/// scenario's interarrival pattern reaches the switch unchanged.
pub fn run_des(params: HpuParams, trace: &[(u64, u64, u16)]) -> (f64, usize) {
    let ports = params.params.ports;
    let spec = LinkSpec {
        gbps: 32.0,
        latency_ns: 0,
    };
    let (topo, sw, hosts) = Topology::star(ports, spec);
    let mut sim = NetSim::new(topo, 1);
    for (j, &h) in hosts.iter().enumerate() {
        let sends: Vec<(u64, u64, u16)> = trace
            .iter()
            .filter(|&&(_, _, child)| child as usize == j)
            .copied()
            .collect();
        sim.install_host(h, Box::new(TraceSender { switch: sw, sends }));
    }
    sim.install_switch(
        sw,
        Box::new(HpuProbe { handled: 0 }),
        SwitchModel::Hpu(params),
    );
    sim.run(None);
    // One Hpu switch in this rig, so the fleet-wide view has one entry.
    let all = sim.hpu_reports();
    assert_eq!(all.len(), 1, "exactly one Hpu-modeled switch");
    let stats = all[0].stats;
    assert_eq!(all[0].switch, sw);
    assert_eq!(
        stats.handlers,
        trace.len() as u64,
        "every trace packet must execute a handler"
    );
    (stats.bandwidth_pkt_ns(), stats.queue_peak)
}

/// Run the identical arrival trace through the PsPIN engine; returns its
/// total queued-packet peak.
fn run_engine(policy: SchedulingPolicy, trace: &[(u64, u64, u16)], tau: u64) -> i64 {
    let cfg = PspinConfig {
        params: SwitchParams::figure5(),
        icache_fill_cycles: 0,
        policy,
        ..PspinConfig::paper()
    };
    let arrivals = trace
        .iter()
        .map(|&(t, block, child)| {
            (
                t,
                PspinPacket::new(0, block, child, PKT_BYTES, bytes::Bytes::new()),
            )
        })
        .collect();
    let handler = move |ctx: &mut HpuCtx<'_>, _pkt: &PspinPacket| ctx.compute(tau);
    let (report, _) = run_trace(cfg, handler, arrivals, false);
    report.queue_peak
}

/// Line-rate trace (scenarios A and B): packet of block `b` from child `j`
/// is sent at `t = P·b + j`, i.e. aggregate interarrival `δ = 1` and
/// intra-block interarrival `δc = 1`.
pub fn line_rate_trace(ports: usize, blocks: u64) -> Vec<(u64, u64, u16)> {
    (0..blocks * ports as u64)
        .map(|i| (i, i / ports as u64, (i % ports as u64) as u16))
        .collect()
}

/// Staggered trace (scenario C): child `j` delays its whole stream by
/// `τ·j`, so block `x`'s packet from child `j` is sent at
/// `t = P·x + τ·j` — the same per-core pinning and per-host line rate as
/// B, but intra-block interarrival `δc = τ`.
pub fn staggered_trace(ports: usize, blocks: u64, tau: u64) -> Vec<(u64, u64, u16)> {
    let mut out = Vec::new();
    for j in 0..ports as u64 {
        for x in 0..blocks {
            out.push((ports as u64 * x + tau * j, x, j as u16));
        }
    }
    out.sort_unstable();
    out
}

/// Compute the figure's three scenarios, each cross-validated three ways.
/// `blocks` sets the trace length (more blocks → tighter steady-state
/// bandwidth; the queue peaks are insensitive to it).
pub fn rows(blocks: u64) -> Vec<Row> {
    let p = SwitchParams::figure5();
    let tau = p.l_cycles();
    let hpu = |s: usize| HpuParams::figure5().with_subset_size(s);
    let eval = |s: usize, dc: f64| scheduling::evaluate(&p, s, dc, tau);

    let line = line_rate_trace(p.ports, blocks);
    let staggered = staggered_trace(p.ports, blocks, tau as u64);

    let mut out = Vec::new();
    let one_core = Hierarchical { subset_size: 1 };
    for (scenario, s, delta_c, trace, engine_policy) in [
        ("A (S=K, dc=1)", p.cores(), 1u64, &line, GlobalFcfs),
        ("B (S=1, dc=1)", 1, 1, &line, one_core),
        ("C (S=1, dc=tau)", 1, tau as u64, &staggered, one_core),
    ] {
        let op = eval(s, delta_c as f64);
        let (des_bw, des_q) = run_des(hpu(s), trace);
        out.push(Row {
            scenario,
            s,
            delta_c,
            model_bandwidth: op.bandwidth_pkt_cycle,
            des_bandwidth: des_bw,
            model_q: op.q,
            des_queue_peak: des_q,
            engine_queue_peak: run_engine(engine_policy, trace, tau as u64),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documented tolerance of the bandwidth cross-validation: the DES
    /// runs a finite trace, so it pays one pipeline fill/drain of ~τ
    /// against the asymptotic model — under 2% at 256 blocks.
    const BW_TOLERANCE: f64 = 0.02;

    #[test]
    fn des_bandwidth_tracks_the_analytical_model() {
        for row in rows(256) {
            let rel = (row.des_bandwidth - row.model_bandwidth).abs() / row.model_bandwidth;
            assert!(
                rel < BW_TOLERANCE,
                "{}: DES {} vs model {} (rel {rel})",
                row.scenario,
                row.des_bandwidth,
                row.model_bandwidth
            );
        }
    }

    #[test]
    fn des_queue_peaks_match_the_model_q() {
        let rows = rows(64);
        // A: every packet finds an idle core.
        assert_eq!(rows[0].model_q, 0.0);
        assert_eq!(rows[0].des_queue_peak, 0);
        // B: bursts build the model's Q = 3 in front of each core.
        assert_eq!(rows[1].model_q, 3.0);
        assert_eq!(rows[1].des_queue_peak, 3);
        // C: staggering removes the queueing with the same pinning.
        assert_eq!(rows[2].model_q, 0.0);
        assert_eq!(rows[2].des_queue_peak, 0);
    }

    #[test]
    fn engine_agrees_on_which_scenarios_queue() {
        let rows = rows(4);
        assert_eq!(rows[0].engine_queue_peak, 0);
        // The engine sums queued packets across subsets: 3+2+1 during the
        // scenario-B ramp while the DES reports the per-core peak (3).
        assert_eq!(rows[1].engine_queue_peak, 6);
        assert_eq!(rows[2].engine_queue_peak, 0);
    }
}
