//! Figure 7: single-buffer aggregation — modeled bandwidth, input-buffer
//! occupancy 𝒬 and working-memory occupancy ℛ, for S=1 vs S=C across data
//! sizes 8 KiB / 64 KiB / 512 KiB.

use flare_model::units::{fmt_bytes, KIB};
use flare_model::{dense, AggKind, SwitchParams};

use crate::table::{self, f2, mib};
use crate::Scale;

/// One figure point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Data size in bytes.
    pub data_bytes: u64,
    /// Scheduling subset size (1 or C).
    pub s: usize,
    /// Modeled aggregation bandwidth (Tbps).
    pub bandwidth_tbps: f64,
    /// Modeled input-buffer occupancy (bytes).
    pub input_buffer_bytes: f64,
    /// Modeled working-memory occupancy (bytes).
    pub working_memory_bytes: f64,
}

/// The paper's three sizes.
pub const SIZES: [u64; 3] = [8 * KIB, 64 * KIB, 512 * KIB];

/// Compute the figure series.
pub fn rows() -> Vec<Row> {
    let p = SwitchParams::paper();
    let mut out = Vec::new();
    for &size in &SIZES {
        for s in [1usize, p.cores_per_cluster] {
            let m = dense::evaluate(&p, AggKind::SingleBuffer, s, size);
            out.push(Row {
                data_bytes: size,
                s,
                bandwidth_tbps: m.bandwidth_tbps,
                input_buffer_bytes: m.input_buffer_bytes,
                working_memory_bytes: m.working_memory_bytes,
            });
        }
    }
    out
}

/// Print the figure.
pub fn print(_: Scale) {
    println!("Figure 7: single-buffer aggregation, modeled (P=64, K=512, C=8, f32)");
    println!();
    let columns: &[table::Column<Row>] = &[
        ("data", |r| fmt_bytes(r.data_bytes)),
        ("sched", |r| if r.s == 1 { "S=1" } else { "S=C" }.into()),
        ("bandwidth (Tbps)", |r| f2(r.bandwidth_tbps)),
        ("input buf (MiB)", |r| mib(r.input_buffer_bytes)),
        ("work mem (MiB)", |r| mib(r.working_memory_bytes)),
    ];
    table::print(rows(), columns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_model::units::MIB;

    fn row(size: u64, s: usize) -> Row {
        rows()
            .into_iter()
            .find(|r| r.data_bytes == size && r.s == s)
            .unwrap()
    }

    #[test]
    fn s1_input_buffers_blow_up_for_small_data() {
        // The paper's ~30 MiB input-buffer point at S=1, small sizes.
        let r = row(8 * KIB, 1);
        assert!(r.input_buffer_bytes > 30.0 * MIB as f64);
        let rc = row(8 * KIB, 8);
        assert!(rc.input_buffer_bytes < 5.0 * MIB as f64);
    }

    #[test]
    fn sc_bandwidth_recovers_at_512kib() {
        let small = row(8 * KIB, 8);
        let large = row(512 * KIB, 8);
        assert!(small.bandwidth_tbps < 1.5);
        assert!(large.bandwidth_tbps > 4.0);
    }

    #[test]
    fn working_memory_is_sub_mib() {
        for r in rows() {
            assert!(
                r.working_memory_bytes < 1.2 * MIB as f64,
                "working memory stays small: {}",
                r.working_memory_bytes
            );
        }
    }
}
