//! Figure 13: modeled sparse-allreduce bandwidth for hash vs array storage
//! across sparsified data sizes (64–512 KiB) at 10 % density.

use flare_model::units::{fmt_bytes, KIB};
use flare_model::{sparse, SparseStorage, SwitchParams};

use crate::table::{self, f2};
use crate::Scale;

/// One figure point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Sparsified (wire) data size in bytes.
    pub data_bytes: u64,
    /// Storage backend.
    pub storage: SparseStorage,
    /// Modeled bandwidth (Tbps).
    pub bandwidth_tbps: f64,
}

/// The paper's sparsified sizes.
pub const SIZES: [u64; 3] = [64 * KIB, 256 * KIB, 512 * KIB];
/// The paper's density for this figure.
pub const DENSITY: f64 = 0.10;

/// Compute the figure series.
pub fn rows() -> Vec<Row> {
    let p = SwitchParams::paper();
    let mut out = Vec::new();
    for &size in &SIZES {
        for storage in [SparseStorage::Hash, SparseStorage::Array] {
            let m = sparse::evaluate(&p, storage, DENSITY, size);
            out.push(Row {
                data_bytes: size,
                storage,
                bandwidth_tbps: m.bandwidth_tbps,
            });
        }
    }
    out
}

/// Print the figure.
pub fn print(_: Scale) {
    println!(
        "Figure 13: modeled sparse allreduce bandwidth (density {:.0} %)",
        DENSITY * 100.0
    );
    println!();
    // One line per size: the rows come size-major, hash before array.
    let columns: &[table::Column<&[Row]>] = &[
        ("sparsified data", |of_size| {
            fmt_bytes(of_size[0].data_bytes)
        }),
        ("hash (Tbps)", |of_size| f2(of_size[0].bandwidth_tbps)),
        ("array (Tbps)", |of_size| f2(of_size[1].bandwidth_tbps)),
    ];
    table::print(rows().chunks(2), columns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_model::dense::{self, AggKind};

    #[test]
    fn sparse_bandwidth_sits_below_dense() {
        let p = SwitchParams::paper();
        let dense_bw = dense::evaluate(&p, AggKind::Tree, 8, 512 * KIB).bandwidth_tbps;
        for r in rows() {
            assert!(r.bandwidth_tbps < dense_bw, "{:?}", r.storage);
            assert!(
                r.bandwidth_tbps > 0.3,
                "still substantial: {}",
                r.bandwidth_tbps
            );
        }
    }

    #[test]
    fn array_outperforms_hash_at_10pct() {
        for &size in &SIZES {
            let hash = rows()
                .into_iter()
                .find(|r| r.data_bytes == size && r.storage == SparseStorage::Hash)
                .unwrap();
            let array = rows()
                .into_iter()
                .find(|r| r.data_bytes == size && r.storage == SparseStorage::Array)
                .unwrap();
            assert!(array.bandwidth_tbps > hash.bandwidth_tbps);
        }
    }
}
