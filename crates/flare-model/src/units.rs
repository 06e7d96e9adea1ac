//! Unit conversions shared by models, simulators and the bench harness.

/// Bytes in one KiB.
pub const KIB: u64 = 1024;
/// Bytes in one MiB.
pub const MIB: u64 = 1024 * KIB;
/// Bytes in one GiB.
pub const GIB: u64 = 1024 * MIB;

/// Convert a packets-per-cycle rate into Tbps, given the packet payload in
/// bytes and the core clock in GHz (paper: 1 GHz, 1 KiB payloads).
pub fn pkt_per_cycle_to_tbps(rate: f64, packet_bytes: usize, clock_ghz: f64) -> f64 {
    // rate [pkt/cycle] * bytes/pkt * 8 bit/byte * clock [cycle/ns] * 1e9 ns/s / 1e12
    rate * packet_bytes as f64 * 8.0 * clock_ghz * 1e9 / 1e12
}

/// Pretty-print a byte count with binary units (for table output).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= GIB {
        format!("{:.2} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.2} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_switch_rate_matches_paper_headline() {
        // K=512 cores, τ=1024 cycles ⇒ 0.5 pkt/cycle of 1 KiB at 1 GHz
        // ⇒ 4.096 Tbps, the paper's ~4 Tbps dense peak (Fig. 10/11).
        let tbps = pkt_per_cycle_to_tbps(0.5, 1024, 1.0);
        assert!((tbps - 4.096).abs() < 1e-9, "{tbps}");
    }

    #[test]
    fn fmt_bytes_picks_the_right_unit() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2 * KIB), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * MIB), "3.00 MiB");
        assert_eq!(fmt_bytes(5 * GIB), "5.00 GiB");
    }
}
