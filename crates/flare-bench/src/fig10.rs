//! Figure 10: modeled bandwidth and memory occupancy for all four dense
//! aggregation designs (single, multi(2), multi(4), tree) at S=C across
//! 64–512 KiB.

use flare_model::units::{fmt_bytes, KIB};
use flare_model::{dense, AggKind, SwitchParams};

use crate::table::{self, f2, mib};
use crate::Scale;

/// One figure point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Data size in bytes.
    pub data_bytes: u64,
    /// Algorithm.
    pub kind: AggKind,
    /// Modeled bandwidth (Tbps).
    pub bandwidth_tbps: f64,
    /// Total memory occupancy (input buffers + working memory, bytes).
    pub memory_bytes: f64,
}

/// The paper's sizes.
pub const SIZES: [u64; 4] = [64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB];
/// The paper's algorithms.
pub const KINDS: [AggKind; 4] = [
    AggKind::SingleBuffer,
    AggKind::MultiBuffer(2),
    AggKind::MultiBuffer(4),
    AggKind::Tree,
];

/// Compute the figure series.
pub fn rows() -> Vec<Row> {
    let p = SwitchParams::paper();
    let mut out = Vec::new();
    for &size in &SIZES {
        for kind in KINDS {
            let m = dense::evaluate(&p, kind, p.cores_per_cluster, size);
            out.push(Row {
                data_bytes: size,
                kind,
                bandwidth_tbps: m.bandwidth_tbps,
                memory_bytes: m.working_memory_bytes,
            });
        }
    }
    out
}

/// Print the figure with the Section 6.4 selection policy.
pub fn print(_: Scale) {
    println!("Figure 10: dense aggregation designs, modeled (S=C)");
    println!();
    let columns: &[table::Column<Row>] = &[
        ("data", |r| fmt_bytes(r.data_bytes)),
        ("algorithm", |r| r.kind.label()),
        ("bandwidth (Tbps)", |r| f2(r.bandwidth_tbps)),
        ("memory (MiB)", |r| mib(r.memory_bytes)),
    ];
    table::print(rows(), columns);
    println!("Selection policy (Section 6.4): >512KiB single, >256KiB multi(4),");
    println!(">128KiB multi(2), else tree; reproducible => always tree.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(size: u64, kind: AggKind) -> f64 {
        rows()
            .iter()
            .find(|r| r.data_bytes == size && r.kind == kind)
            .unwrap()
            .bandwidth_tbps
    }

    #[test]
    fn tree_is_the_only_fast_algorithm_below_128kib() {
        assert!(bw(64 * KIB, AggKind::Tree) > 3.5);
        assert!(bw(64 * KIB, AggKind::SingleBuffer) < 1.5);
        assert!(bw(64 * KIB, AggKind::MultiBuffer(2)) < 1.5);
        assert!(bw(64 * KIB, AggKind::MultiBuffer(4)) < 1.5);
    }

    #[test]
    fn multi_buffers_catch_up_with_size_more_buffers_sooner() {
        // multi(4) contention-free at 128 KiB, multi(2) at 256 KiB.
        assert!(bw(128 * KIB, AggKind::MultiBuffer(4)) > 3.5);
        assert!(bw(128 * KIB, AggKind::MultiBuffer(2)) < 1.5);
        assert!(bw(256 * KIB, AggKind::MultiBuffer(2)) > 3.5);
    }

    #[test]
    fn single_buffer_wins_at_512kib() {
        let single = bw(512 * KIB, AggKind::SingleBuffer);
        for kind in [
            AggKind::MultiBuffer(2),
            AggKind::MultiBuffer(4),
            AggKind::Tree,
        ] {
            assert!(single >= bw(512 * KIB, kind));
        }
        assert!(single > 4.0);
    }
}
