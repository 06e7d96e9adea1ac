//! The PsPIN discrete-event engine: packet scheduler, HPU cores, lock
//! table, memory accounting.
//!
//! Two sources of events feed it in time order: the arrival trace, sorted
//! once, and a queue of core releases. An arrival either starts handler
//! execution on an idle core of the packet's scheduling subset or queues
//! the packet; a release applies the handler's effects (emissions, memory
//! deltas, block completions) and pulls the next queued packet. Handler
//! code runs *synchronously* at core-start time, returning a cycle cursor
//! that determines when the core frees; critical-section serialization is
//! mediated by the shared [`LockTable`] (see `handler.rs`).
//!
//! At one instant every release goes before every arrival, so a core that
//! frees at `t` serves a packet arriving at `t` without queueing it — the
//! idealized model in which a service time equal to the interarrival
//! means no queueing (paper Fig. 5, scenario A).

use std::collections::VecDeque;

use flare_des::{EventQueue, Time};

use crate::config::PspinConfig;
use crate::handler::{HandlerEffects, HpuCtx, LockTable, PacketHandler};
use crate::metrics::{occupy, Report};
use crate::packet::PspinPacket;

/// Effects of an execution, pending until its core releases.
struct Pending {
    effects: HandlerEffects,
    wire_bytes: u32,
    lock_wait: u64,
}

/// The PsPIN processing-unit simulator, as [`run_trace`] leaves it.
pub struct Engine<H: PacketHandler> {
    cfg: PspinConfig,
    handler: H,
    locks: LockTable,
    /// Per-subset stacks of idle cores.
    idle: Vec<Vec<usize>>,
    /// Per-subset FIFO queues of waiting packets.
    queues: Vec<VecDeque<PspinPacket>>,
    /// Per-core pending completion effects.
    pending: Vec<Option<Pending>>,
    /// Per-cluster icache warm flags.
    icache_warm: Vec<bool>,
    /// What the run measured so far; [`run_trace`] hands it out.
    report: Report,
    /// Bytes resident in the input buffer and in working memory, and
    /// packets queued: the levels whose high-water marks are `report`'s
    /// peaks.
    input_buffer: i64,
    working_mem: i64,
    queued: i64,
    emissions: Vec<(Time, PspinPacket)>,
    capture_emissions: bool,
}

impl<H: PacketHandler> Engine<H> {
    fn new(cfg: PspinConfig, handler: H, capture_emissions: bool) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid PspinConfig: {e}");
        }
        let subsets = cfg.subsets();
        let subset_width = cfg.subset_width();
        let mut idle = vec![Vec::new(); subsets];
        // Push in reverse so pop() hands out low-numbered cores first.
        for (s, subset) in idle.iter_mut().enumerate() {
            for core in (s * subset_width..(s + 1) * subset_width).rev() {
                subset.push(core);
            }
        }
        let cores = cfg.cores();
        let clusters = cfg.params.clusters;
        Self {
            cfg,
            handler,
            locks: LockTable::default(),
            idle,
            queues: vec![VecDeque::new(); subsets],
            pending: (0..cores).map(|_| None).collect(),
            icache_warm: vec![false; clusters],
            report: Report::default(),
            input_buffer: 0,
            working_mem: 0,
            queued: 0,
            emissions: Vec::new(),
            capture_emissions,
        }
    }

    /// Access the handler (e.g. to extract final aggregation state).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Emitted packets captured by [`run_trace`] (when asked to capture).
    pub fn emissions(&self) -> &[(Time, PspinPacket)] {
        &self.emissions
    }

    /// Serve `arrivals`, sorted by time, merged with the core releases
    /// they cause, and close the report at the last event.
    fn serve(&mut self, arrivals: Vec<(Time, PspinPacket)>) {
        let mut releases = EventQueue::new();
        let mut last = 0;
        let first = arrivals.first().map_or(0, |&(t, _)| t);
        for (t, pkt) in arrivals {
            self.release_until(t, &mut releases);
            self.arrive(t, pkt, &mut releases);
            last = t;
        }
        self.release_until(Time::MAX, &mut releases);
        self.report.finish(first, last.max(releases.now()));
    }

    /// Release every core due by `until`, in scheduling order at each
    /// instant.
    fn release_until(&mut self, until: Time, releases: &mut EventQueue<usize>) {
        while releases.peek_time().is_some_and(|r| r <= until) {
            let (r, core) = releases.pop().expect("a peeked release pops");
            self.release(r, core, releases);
        }
    }

    fn arrive(&mut self, t: Time, pkt: PspinPacket, releases: &mut EventQueue<usize>) {
        // L2 packet-memory admission: drop when full (the paper's networks
        // would instead backpressure; experiments are sized so this never
        // triggers and `drops` stays 0).
        let wire = pkt.wire_bytes as i64;
        if self.input_buffer + wire > self.cfg.params.l2_packet_bytes as i64 {
            self.report.drops += 1;
            return;
        }
        let report = &mut self.report;
        report.packets_in += 1;
        report.bytes_in += wire as u64;
        occupy(&mut self.input_buffer, &mut report.input_buffer_peak, wire);
        // All packets of a block go to one subset (under global FCFS, the
        // only one).
        let subset = (pkt.block % self.queues.len() as u64) as usize;
        if let Some(core) = self.idle[subset].pop() {
            self.start_execution(t, core, pkt, releases);
        } else {
            self.queues[subset].push_back(pkt);
            occupy(&mut self.queued, &mut self.report.queue_peak, 1);
        }
    }

    fn release(&mut self, t: Time, core: usize, releases: &mut EventQueue<usize>) {
        let pending = self.pending[core].take().expect("no pending work");
        let report = &mut self.report;
        let wire = pending.wire_bytes as i64;
        occupy(&mut self.input_buffer, &mut report.input_buffer_peak, -wire);
        report.lock_wait_cycles += pending.lock_wait;
        // Its working-memory delta applied when it started.
        report.blocks_completed += pending.effects.blocks_completed;
        for pkt in pending.effects.emissions {
            report.packets_out += 1;
            report.bytes_out += pkt.wire_bytes as u64;
            if self.capture_emissions {
                self.emissions.push((t, pkt));
            }
        }
        // Pull the next queued packet for this core's subset.
        let subset = core / self.cfg.subset_width();
        if let Some(pkt) = self.queues[subset].pop_front() {
            occupy(&mut self.queued, &mut self.report.queue_peak, -1);
            self.start_execution(t, core, pkt, releases);
        } else {
            self.idle[subset].push(core);
        }
    }

    fn start_execution(
        &mut self,
        t: Time,
        core: usize,
        pkt: PspinPacket,
        releases: &mut EventQueue<usize>,
    ) {
        let cluster = self.cfg.cluster_of(core);
        let icache = if self.icache_warm[cluster] {
            0
        } else {
            self.icache_warm[cluster] = true;
            self.cfg.icache_fill_cycles
        };
        let mut ctx = HpuCtx::new(
            t + icache,
            cluster,
            &mut self.locks,
            self.cfg.params.dma_copy_cycles.ceil() as u64,
            self.cfg.remote_l1_factor,
        );
        self.handler.process(&mut ctx, &pkt);
        let end = ctx.now().max(t + icache + 1);
        let lock_wait = ctx.lock_wait();
        let effects = ctx.effects;
        // Working-memory deltas apply at handler *start*: the functional
        // aggregation state mutates here (synchronous-commit model), and a
        // later-starting handler may free buffers an earlier, still-spinning
        // handler allocated — deferring deltas to completion would observe
        // them out of order.
        let delta = effects.working_mem_delta;
        occupy(
            &mut self.working_mem,
            &mut self.report.working_mem_peak,
            delta,
        );
        debug_assert!(self.pending[core].is_none(), "core already busy");
        self.pending[core] = Some(Pending {
            effects,
            wire_bytes: pkt.wire_bytes,
            lock_wait,
        });
        releases.schedule_at(end, core);
        debug_assert!(releases.len() <= self.cfg.cores());
    }
}

/// Run `handler` over an arrival trace and return the report (and the
/// engine, for functional inspection). Arrivals at one instant are served
/// in trace order; the trace need not be sorted.
///
/// # Panics
/// Panics if `cfg` fails [`PspinConfig::validate`].
pub fn run_trace<H: PacketHandler>(
    cfg: PspinConfig,
    handler: H,
    mut arrivals: Vec<(Time, PspinPacket)>,
    capture: bool,
) -> (Report, Engine<H>) {
    arrivals.sort_by_key(|&(t, _)| t);
    let mut engine = Engine::new(cfg, handler, capture);
    engine.serve(arrivals);
    (std::mem::take(&mut engine.report), engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingPolicy;
    use bytes::Bytes;
    use flare_model::SwitchParams;

    /// The Figure 5 switch: one cluster of four cores, no DMA cost.
    fn cfg_small() -> PspinConfig {
        PspinConfig {
            params: SwitchParams::figure5(),
            remote_l1_factor: 1,
            icache_fill_cycles: 0,
            policy: SchedulingPolicy::GlobalFcfs,
        }
    }

    fn pkt(block: u64) -> PspinPacket {
        PspinPacket::new(block, Bytes::from_static(&[0u8; 4]))
    }

    /// Fixed-cost handler: τ = 4 cycles per packet (the Figure 5 switch).
    fn fixed_cost_handler(tau: u64) -> impl PacketHandler {
        move |ctx: &mut HpuCtx<'_>, _pkt: &PspinPacket| ctx.compute(tau)
    }

    #[test]
    fn figure5_scenario_a_line_rate_no_queueing() {
        // K=4, τ=4, δ=1, global FCFS: every packet finds an idle core.
        let arrivals = (0..16u64).map(|i| (i, pkt(i / 4))).collect();
        let (report, _) = run_trace(cfg_small(), fixed_cost_handler(4), arrivals, false);
        assert_eq!(report.packets_in, 16);
        assert_eq!(report.queue_peak, 0);
        assert_eq!(report.drops, 0);
        // Last arrival at t=15, finishes at 19; makespan = 19.
        assert_eq!(report.duration_ns, 19);
    }

    #[test]
    fn a_core_freeing_as_a_packet_arrives_serves_it_without_queueing() {
        // S=1: every packet of block 0 lands on core 0, arriving back to
        // back at tau = 4. Each arrival meets the release of the packet
        // before it at the same instant, and the release goes first.
        let mut cfg = cfg_small();
        cfg.policy = SchedulingPolicy::Hierarchical { subset_size: 1 };
        let arrivals = (0..8u64).map(|i| (4 * i, pkt(0))).collect();
        let (report, _) = run_trace(cfg, fixed_cost_handler(4), arrivals, false);
        assert_eq!(report.queue_peak, 0);
        assert_eq!(report.duration_ns, 32);
    }

    #[test]
    fn an_unsorted_trace_runs_as_the_sorted_one() {
        let handler = || {
            |ctx: &mut HpuCtx<'_>, pkt: &PspinPacket| {
                ctx.acquire_any([(pkt.block, 0)], 7);
                ctx.working_mem(16);
                if pkt.payload[0] == 3 {
                    ctx.emit(pkt.clone());
                    ctx.complete_block();
                }
            }
        };
        // Distinct times; a block's packets come 6 ns apart and hold its
        // lock for 7 cycles, so they contend. Each of the last ten (payload
        // byte 3) completes a block.
        let sorted: Vec<_> = (0..40u64)
            .map(|i| {
                let body = Bytes::from(vec![(i / 10) as u8; 4]);
                (3 * i, PspinPacket::new(i % 2, body))
            })
            .collect();
        let reversed = sorted.iter().rev().cloned().collect();
        let (a, _) = run_trace(cfg_small(), handler(), sorted, false);
        let (b, _) = run_trace(cfg_small(), handler(), reversed, false);
        assert!(a.lock_wait_cycles > 0 && a.blocks_completed == 10, "{a:?}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn figure5_scenario_b_bursts_queue_three_deep() {
        // S=1, δc=1: the four packets of block b arrive back-to-back at
        // t = 4b..4b+3 and all land on one core (paper Fig. 5 B). Each core
        // builds a queue of Q=3; across the pipeline of 4 subsets the total
        // of queued packets peaks at 3+2+1 = 6.
        let mut cfg = cfg_small();
        cfg.policy = SchedulingPolicy::Hierarchical { subset_size: 1 };
        let mut arrivals = Vec::new();
        for b in 0..4u64 {
            for j in 0..4u64 {
                arrivals.push((4 * b + j, pkt(b)));
            }
        }
        let (report, _) = run_trace(cfg, fixed_cost_handler(4), arrivals, false);
        assert_eq!(report.queue_peak, 6);
        assert_eq!(report.drops, 0);
    }

    #[test]
    fn figure5_scenario_c_staggering_removes_queueing() {
        // S=1 with staggered sending (δc=4): block x arrives from child j
        // at t = 4j + x, exactly one packet per τ at each core (Fig. 5 C).
        let mut cfg = cfg_small();
        cfg.policy = SchedulingPolicy::Hierarchical { subset_size: 1 };
        let mut arrivals = Vec::new();
        for j in 0..4u64 {
            for x in 0..4u64 {
                arrivals.push((4 * j + x, pkt(x)));
            }
        }
        let (report, _) = run_trace(cfg, fixed_cost_handler(4), arrivals, false);
        assert_eq!(report.queue_peak, 0);
    }

    #[test]
    fn emissions_and_memory_are_accounted() {
        let handler = |ctx: &mut HpuCtx<'_>, pkt: &PspinPacket| {
            ctx.compute(10);
            ctx.working_mem(64);
            if pkt.block == 1 {
                ctx.emit(PspinPacket::new(1, Bytes::from_static(&[1, 2])));
                ctx.complete_block();
                ctx.working_mem(-128);
            }
        };
        let arrivals = vec![(0, pkt(0)), (1, pkt(0)), (2, pkt(1))];
        let (report, engine) = run_trace(cfg_small(), handler, arrivals, true);
        assert_eq!(report.packets_out, 1);
        assert_eq!(report.bytes_out, 2);
        assert_eq!(report.blocks_completed, 1);
        assert_eq!(engine.emissions().len(), 1);
        // 3 allocs of 64 minus one release of 128.
        assert_eq!(report.working_mem_peak, 128);
    }

    #[test]
    fn l2_exhaustion_drops_packets() {
        let mut cfg = cfg_small();
        // Two 4-byte packets (headers are 0 here); a slow handler and a
        // flood of simultaneous arrivals.
        cfg.params.l2_packet_bytes = 8;
        let arrivals = (0..10u64).map(|i| (0, pkt(i))).collect();
        let (report, _) = run_trace(cfg, fixed_cost_handler(1000), arrivals, false);
        assert_eq!(report.packets_in + report.drops, 10);
        assert!(report.drops == 8, "drops = {}", report.drops);
    }

    #[test]
    fn icache_cold_start_delays_first_handler_per_cluster() {
        let mut cfg = cfg_small();
        cfg.icache_fill_cycles = 100;
        let arrivals = vec![(0, pkt(0)), (0, pkt(1))];
        let (report, _) = run_trace(cfg, fixed_cost_handler(4), arrivals, false);
        // Both packets start at t=0 on cluster 0; only the first pays the
        // icache fill (the second core starts after the flag is warm but at
        // the same timestamp — FIFO event order makes this deterministic).
        assert_eq!(report.duration_ns, 104);
    }

    #[test]
    fn lock_contention_serializes_same_block() {
        // Two packets of one block, single shared buffer, L=100.
        let handler = |ctx: &mut HpuCtx<'_>, pkt: &PspinPacket| {
            ctx.acquire_any([(pkt.block, 0)], 100);
        };
        let arrivals = vec![(0, pkt(7)), (0, pkt(7))];
        let (report, _) = run_trace(cfg_small(), handler, arrivals, false);
        // Second handler spins 100 cycles: completions at 100 and 200.
        assert_eq!(report.duration_ns, 200);
        assert_eq!(report.lock_wait_cycles, 100);
    }

    #[test]
    fn hierarchical_routes_blocks_to_fixed_subsets() {
        let mut cfg = cfg_small();
        cfg.params.clusters = 2;
        cfg.params.cores_per_cluster = 2;
        cfg.policy = SchedulingPolicy::Hierarchical { subset_size: 2 };
        // Record which core processed each block.
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let handler = move |ctx: &mut HpuCtx<'_>, pkt: &PspinPacket| {
            seen2.borrow_mut().push((pkt.block, ctx.cluster));
            ctx.compute(1);
        };
        let arrivals = (0..8u64).map(|i| (i, pkt(i % 2))).collect();
        let (_, _) = run_trace(cfg, handler, arrivals, false);
        for (block, cluster) in seen.borrow().iter() {
            assert_eq!(
                *cluster,
                (*block % 2) as usize,
                "block pinned to its cluster"
            );
        }
    }
}
