//! Measurement report of a PsPIN simulation run.

use flare_des::Time;

/// Aggregated metrics of one engine run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated duration in ns (first arrival to last completion).
    pub duration_ns: Time,
    /// Packets accepted for processing.
    pub packets_in: u64,
    /// Bytes accepted (wire bytes).
    pub bytes_in: u64,
    /// Packets emitted by handlers.
    pub packets_out: u64,
    /// Bytes emitted by handlers.
    pub bytes_out: u64,
    /// Packets dropped because the L2 packet memory was full.
    pub drops: u64,
    /// Achieved processing bandwidth in Tbps (ingress wire bytes over the
    /// makespan — the quantity Figures 11/13/14 report).
    pub ingress_tbps: f64,
    /// Peak input-buffer (L2 packet memory) occupancy in bytes: queued plus
    /// in-service packets, the paper's 𝒬 (Eq. 1).
    pub input_buffer_peak: i64,
    /// Peak working-memory (L1 aggregation buffers) occupancy in bytes —
    /// the paper's ℛ.
    pub working_mem_peak: i64,
    /// Peak number of packets waiting in scheduler queues (`Q·K` in the
    /// Section-5 model, not counting in-service packets).
    pub queue_peak: i64,
    /// Total cycles handlers spent spinning on critical sections.
    pub lock_wait_cycles: u64,
    /// Number of blocks fully reduced.
    pub blocks_completed: u64,
}

/// An occupancy (bytes resident, packets queued) and its high-water mark.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Occupancy {
    pub level: i64,
    pub peak: i64,
}

impl Occupancy {
    /// Add `delta` (may be negative) to the level.
    pub(crate) fn add(&mut self, delta: i64) {
        self.level += delta;
        debug_assert!(self.level >= 0, "occupancy went negative");
        self.peak = self.peak.max(self.level);
    }
}

/// Mutable collectors owned by the engine while running.
#[derive(Debug, Default)]
pub(crate) struct Collectors {
    pub packets_in: u64,
    pub bytes_in: u64,
    pub packets_out: u64,
    pub bytes_out: u64,
    pub drops: u64,
    pub input_buffer: Occupancy,
    pub working_mem: Occupancy,
    pub queued: Occupancy,
    pub lock_wait_cycles: u64,
    pub blocks_completed: u64,
    pub first_arrival_seen: Time,
}

impl Collectors {
    pub(crate) fn report(&self, end: Time) -> Report {
        let duration = end.saturating_sub(self.first_arrival_seen).max(1);
        Report {
            duration_ns: duration,
            packets_in: self.packets_in,
            bytes_in: self.bytes_in,
            packets_out: self.packets_out,
            bytes_out: self.bytes_out,
            drops: self.drops,
            ingress_tbps: self.bytes_in as f64 * 8.0 / duration as f64 / 1000.0,
            input_buffer_peak: self.input_buffer.peak,
            working_mem_peak: self.working_mem.peak,
            queue_peak: self.queued.peak,
            lock_wait_cycles: self.lock_wait_cycles,
            blocks_completed: self.blocks_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_derives_bandwidth_from_bytes_and_makespan() {
        // 1 MiB over 2048 ns = 512 B/ns = 4.096 Tbps.
        let c = Collectors {
            packets_in: 1024,
            bytes_in: 1 << 20,
            ..Collectors::default()
        };
        let r = c.report(2048);
        assert!((r.ingress_tbps - 4.096).abs() < 1e-9, "{}", r.ingress_tbps);
        assert_eq!(r.packets_in, 1024);
        assert_eq!(r.bytes_in, 1 << 20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "occupancy went negative")]
    fn an_occupancy_rejects_going_negative() {
        Occupancy::default().add(-1);
    }
}
