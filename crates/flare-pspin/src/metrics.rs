//! Measurement report of a PsPIN simulation run.

use flare_des::Time;

/// Aggregated metrics of one engine run.
#[derive(Debug, Clone, Default)]
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

impl Report {
    /// Close a run whose first packet arrived at `first_arrival` and whose
    /// last event was at `end`: its duration and ingress bandwidth.
    pub(crate) fn finish(&mut self, first_arrival: Time, end: Time) {
        let duration = end.saturating_sub(first_arrival).max(1);
        self.duration_ns = duration;
        self.ingress_tbps = self.bytes_in as f64 * 8.0 / duration as f64 / 1000.0;
    }
}

/// Add `delta` (may be negative) to an occupancy `level` (bytes resident,
/// packets queued) and raise its high-water mark `peak` to it.
pub(crate) fn occupy(level: &mut i64, peak: &mut i64, delta: i64) {
    *level += delta;
    debug_assert!(*level >= 0, "occupancy went negative");
    *peak = (*peak).max(*level);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_derives_bandwidth_from_bytes_and_makespan() {
        // 1 MiB over 2048 ns = 512 B/ns = 4.096 Tbps.
        let mut r = Report {
            packets_in: 1024,
            bytes_in: 1 << 20,
            ..Report::default()
        };
        r.finish(0, 2048);
        assert!((r.ingress_tbps - 4.096).abs() < 1e-9, "{}", r.ingress_tbps);
        assert_eq!(r.duration_ns, 2048);
        assert_eq!(r.bytes_in, 1 << 20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "occupancy went negative")]
    fn an_occupancy_rejects_going_negative() {
        occupy(&mut 0, &mut 0, -1);
    }
}
