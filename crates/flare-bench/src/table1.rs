//! Table 1: the feature-comparison matrix, rendered from the
//! machine-readable capability descriptors in `flare_core::features`.

use flare_core::features::{table1, SystemClass, SystemRow};

use crate::{table, Scale};

/// Rows, straight from flare-core.
pub fn rows() -> Vec<SystemRow> {
    table1()
}

/// Class label as printed in the table.
pub fn class_label(c: SystemClass) -> &'static str {
    match c {
        SystemClass::FixedFunction => "fixed-function",
        SystemClass::Fpga => "FPGA",
        SystemClass::Programmable => "programmable",
    }
}

/// Print the matrix.
pub fn print(_: Scale) {
    println!("Table 1: in-network allreduce feature comparison");
    println!("(F1 custom ops/types, F2 sparse data, F3 reproducibility)");
    println!();
    let columns: &[table::Column<SystemRow>] = &[
        ("system", |r| r.name.to_string()),
        ("class", |r| class_label(r.class).to_string()),
        ("F1", |r| r.custom_ops.glyph().to_string()),
        ("F2", |r| r.sparse.glyph().to_string()),
        ("F3", |r| r.reproducible.glyph().to_string()),
    ];
    table::print(rows(), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_systems_render() {
        assert_eq!(rows().len(), 13);
        assert_eq!(class_label(SystemClass::Fpga), "FPGA");
    }
}
