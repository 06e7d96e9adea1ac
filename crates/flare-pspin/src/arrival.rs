//! Arrival-trace generation: line-rate streams, staggered sending, and the
//! paper's exponentially-jittered arrivals (Section 6.4).
//!
//! Each of the `P` children (reduction-tree ports) paces its packets at
//! `P·δ` so the aggregate stream arrives one packet every `δ`. *Staggered
//! sending* (Section 5) rotates each child's block order by a per-child
//! offset so that packets of the same block — which hierarchical FCFS pins
//! to one core subset — arrive `δc ≈ offset·P·δ` apart instead of
//! back-to-back, suppressing queue build-up and critical-section contention
//! without reducing the aggregate rate.

use bytes::Bytes;
use rand::rngs::StdRng;

use flare_des::rng::{exp_time, rng_stream};
use flare_des::Time;

use crate::packet::PspinPacket;

/// How hosts order their blocks when sending (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaggerMode {
    /// Every child sends blocks in the same order: `δc ≈ δ`.
    None,
    /// Maximal rotation: `δc ≈ δ·Z/N` (each child starts `blocks/P`
    /// positions apart).
    Full,
    /// Rotate just enough to achieve the given target `δc` in cycles
    /// (hosts would pick the algorithm's contention threshold, e.g. `L`).
    Target(Time),
}

/// Parameters of a synthetic allreduce arrival trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Flow (allreduce) identifier. Not read: a packet carries only its
    /// block, and the handler takes the allreduce from the Flare header in
    /// its payload. Kept because the benchmark package sets it.
    pub flow: u32,
    /// Number of children `P` feeding the switch.
    pub children: usize,
    /// Number of reduction blocks (`Z/N`).
    pub blocks: u64,
    /// Header bytes added to each payload on the wire. Every caller passes
    /// 0: a Flare payload already carries its header.
    pub header_bytes: u32,
    /// Aggregate interarrival `δ` in ns (line rate: `τ_min / K`).
    pub delta: Time,
    /// Block-order staggering.
    pub stagger: StaggerMode,
    /// When set, each child's interarrival is exponentially distributed
    /// with mean `P·δ` instead of deterministic (paper Section 6.4: "we
    /// generate packets with a random and exponentially distributed
    /// arrival rate").
    pub exponential_jitter: bool,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl TraceConfig {
    /// Per-child pacing interval `P·δ`.
    pub fn child_period(&self) -> Time {
        self.children as Time * self.delta
    }

    /// The block-order rotation offset (in blocks) between adjacent
    /// children implied by the stagger mode.
    pub fn stagger_offset(&self) -> u64 {
        match self.stagger {
            StaggerMode::None => 0,
            StaggerMode::Full => (self.blocks / self.children as u64).max(1),
            StaggerMode::Target(delta_c) => {
                let per_offset = self.child_period().max(1);
                (delta_c as f64 / per_offset as f64).round() as u64
            }
        }
        .min(self.blocks.saturating_sub(1))
    }
}

/// A generated arrival trace: `(time, packet)` pairs sorted by time.
pub struct ArrivalTrace;

impl ArrivalTrace {
    /// Generate the arrival trace. `payload` is invoked as
    /// `payload(child, block)` to produce each packet's payload bytes
    /// (pass `|_, _| Bytes::new()` for timing-only studies).
    pub fn generate(
        cfg: &TraceConfig,
        mut payload: impl FnMut(u16, u64) -> Bytes,
    ) -> Vec<(Time, PspinPacket)> {
        assert!(cfg.children > 0 && cfg.blocks > 0, "empty trace");
        let offset = cfg.stagger_offset();
        let period = cfg.child_period();
        let mut arrivals = Vec::with_capacity(cfg.children * cfg.blocks as usize);
        for child in 0..cfg.children as u64 {
            let mut rng: Option<StdRng> =
                cfg.exponential_jitter.then(|| rng_stream(cfg.seed, child));
            // Phase-shift children by δ so the aggregate stream is smooth;
            // with jitter enabled the initial phase is randomized too, so
            // even single-packet children arrive in a seed-dependent order.
            let mut t = child * cfg.delta;
            if let Some(r) = rng.as_mut() {
                t += exp_time(r, period as f64);
            }
            for pos in 0..cfg.blocks {
                let block = (pos + child * offset) % cfg.blocks;
                let mut pkt = PspinPacket::new(block, payload(child as u16, block));
                pkt.wire_bytes += cfg.header_bytes;
                arrivals.push((t, pkt));
                t += match rng.as_mut() {
                    Some(r) => exp_time(r, period as f64),
                    None => period,
                };
            }
        }
        arrivals.sort_by_key(|&(t, _)| t);
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> TraceConfig {
        TraceConfig {
            flow: 0,
            children: 4,
            blocks: 16,
            header_bytes: 0,
            delta: 1,
            stagger: StaggerMode::None,
            exponential_jitter: false,
            seed: 1,
        }
    }

    fn intra_block_gap(arrivals: &[(Time, PspinPacket)], block: u64) -> Vec<Time> {
        let mut times: Vec<Time> = arrivals
            .iter()
            .filter(|(_, p)| p.block == block)
            .map(|&(t, _)| t)
            .collect();
        times.sort_unstable();
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn trace_has_one_packet_per_child_per_block() {
        let cfg = base_cfg();
        let arrivals = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        assert_eq!(arrivals.len(), 64);
        for block in 0..16 {
            let n = arrivals.iter().filter(|(_, p)| p.block == block).count();
            assert_eq!(n, 4, "block {block}");
        }
    }

    #[test]
    fn no_stagger_gives_tight_blocks() {
        let cfg = base_cfg();
        let arrivals = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        // Without staggering all packets of block b arrive within one
        // child period: gaps are δ = 1.
        for gap in intra_block_gap(&arrivals, 0) {
            assert_eq!(gap, 1);
        }
    }

    #[test]
    fn full_stagger_spreads_blocks_across_the_run() {
        let cfg = TraceConfig {
            stagger: StaggerMode::Full,
            ..base_cfg()
        };
        // offset = blocks/children = 4; δc ≈ offset·P·δ = 16.
        assert_eq!(cfg.stagger_offset(), 4);
        let arrivals = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        for gap in intra_block_gap(&arrivals, 0) {
            assert!(gap >= 15, "gap {gap} too small for full stagger");
        }
    }

    #[test]
    fn target_stagger_hits_requested_delta_c() {
        let cfg = TraceConfig {
            stagger: StaggerMode::Target(8),
            ..base_cfg()
        };
        // period = 4, target 8 ⇒ offset 2 ⇒ δc ≈ 8. Check a block whose
        // rotated positions do not wrap around the schedule (wrap-around
        // produces one long gap; the *average* δc still matches).
        assert_eq!(cfg.stagger_offset(), 2);
        let arrivals = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        for gap in intra_block_gap(&arrivals, 8) {
            assert!((7..=9).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn jitter_preserves_packet_count_and_is_seeded() {
        let cfg = TraceConfig {
            exponential_jitter: true,
            ..base_cfg()
        };
        let a = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        let b = ArrivalTrace::generate(&cfg, |_, _| Bytes::new());
        assert_eq!(a.len(), 64);
        let ta: Vec<Time> = a.iter().map(|&(t, _)| t).collect();
        let tb: Vec<Time> = b.iter().map(|&(t, _)| t).collect();
        assert_eq!(ta, tb, "same seed must reproduce the trace");
        let cfg2 = TraceConfig { seed: 2, ..cfg };
        let c = ArrivalTrace::generate(&cfg2, |_, _| Bytes::new());
        let tc: Vec<Time> = c.iter().map(|&(t, _)| t).collect();
        assert_ne!(ta, tc, "different seed must change the trace");
    }

    #[test]
    fn payload_factory_receives_child_and_block() {
        let cfg = base_cfg();
        let mut calls = Vec::new();
        let _ = ArrivalTrace::generate(&cfg, |c, b| {
            calls.push((c, b));
            Bytes::new()
        });
        assert_eq!(calls.len(), 64);
        assert!(calls.contains(&(0, 0)) && calls.contains(&(3, 15)));
    }

    #[test]
    fn offset_is_bounded_by_blocks() {
        let cfg = TraceConfig {
            blocks: 2,
            stagger: StaggerMode::Target(1_000_000),
            ..base_cfg()
        };
        assert!(cfg.stagger_offset() <= 1);
    }
}
