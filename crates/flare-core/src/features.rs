//! Machine-readable reproduction of the paper's Table 1.
//!
//! Table 1 compares in-network allreduce systems along the three
//! flexibility axes Flare targets: **F1** custom operators and data types,
//! **F2** sparse data, **F3** reproducibility. `figures table1` prints
//! this matrix; the tests here tie Flare's row to capabilities the
//! code actually has.

/// Degree of support, matching the paper's full/partial/none/unknown marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Fully provided (filled circle).
    Yes,
    /// Partially provided (half circle).
    Partial,
    /// Not provided (empty circle).
    No,
    /// Unknown (the paper's `?`).
    Unknown,
}

impl Support {
    /// Compact cell glyph for table output.
    pub fn glyph(&self) -> &'static str {
        match self {
            Support::Yes => "●",
            Support::Partial => "◐",
            Support::No => "○",
            Support::Unknown => "?",
        }
    }
}

/// Hardware class of a system, as grouped in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemClass {
    /// Fixed-function ASIC switches.
    FixedFunction,
    /// FPGA-based designs.
    Fpga,
    /// Programmable (RMT / PsPIN) switches.
    Programmable,
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct SystemRow {
    /// System name (citation key in the paper).
    pub name: &'static str,
    /// Hardware class.
    pub class: SystemClass,
    /// F1: custom operators and data types.
    pub custom_ops: Support,
    /// F2: sparse data.
    pub sparse: Support,
    /// F3: reproducibility.
    pub reproducible: Support,
}

/// The full Table 1 matrix, rows in the paper's column order.
pub fn table1() -> Vec<SystemRow> {
    use Support::*;
    use SystemClass::*;
    vec![
        SystemRow {
            name: "SHARP [9]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Yes,
        },
        SystemRow {
            name: "SHARP-SAT [16]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Yes,
        },
        SystemRow {
            name: "Aries [17]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Unknown,
        },
        SystemRow {
            name: "Tofu [18]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Unknown,
        },
        SystemRow {
            name: "PERCS [19]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Unknown,
        },
        SystemRow {
            name: "Anton2 [21]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Unknown,
        },
        SystemRow {
            name: "NVSwitch [10]",
            class: FixedFunction,
            custom_ops: No,
            sparse: No,
            reproducible: Yes,
        },
        SystemRow {
            name: "PANAMA [22]",
            class: Fpga,
            custom_ops: No,
            sparse: No,
            reproducible: Yes,
        },
        SystemRow {
            name: "NetReduce [23]",
            class: Fpga,
            custom_ops: No,
            sparse: No,
            reproducible: Yes,
        },
        SystemRow {
            name: "ATP [24]",
            class: Programmable,
            custom_ops: Partial,
            sparse: No,
            reproducible: No,
        },
        SystemRow {
            name: "SwitchML [11]",
            class: Programmable,
            custom_ops: Partial,
            sparse: No,
            reproducible: No,
        },
        SystemRow {
            name: "OmniReduce [25]",
            class: Programmable,
            custom_ops: Partial,
            sparse: Partial,
            reproducible: No,
        },
        SystemRow {
            name: "Flare",
            class: Programmable,
            custom_ops: Yes,
            sparse: Yes,
            reproducible: Yes,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::TreeBlock;
    use crate::op::{Custom, ReduceOp};

    /// Flare's row (the claims the rest of this workspace substantiates).
    fn flare_row() -> SystemRow {
        table1().pop().expect("table non-empty")
    }

    #[test]
    fn matrix_matches_paper_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 13);
        assert_eq!(
            rows.iter()
                .filter(|r| r.class == SystemClass::FixedFunction)
                .count(),
            7
        );
        assert_eq!(
            rows.iter().filter(|r| r.class == SystemClass::Fpga).count(),
            2
        );
        assert_eq!(
            rows.iter()
                .filter(|r| r.class == SystemClass::Programmable)
                .count(),
            4
        );
    }

    #[test]
    fn only_flare_claims_full_sparse_support() {
        for row in table1() {
            if row.name != "Flare" {
                assert_ne!(row.sparse, Support::Yes, "{}", row.name);
            }
        }
        assert_eq!(flare_row().sparse, Support::Yes);
    }

    #[test]
    fn flare_f1_claim_is_backed_by_custom_operators() {
        // F1 is not just a table cell: a user-defined operator on a
        // user-chosen type must actually run through an aggregator.
        let op = Custom::new("satmax", i8::MIN, true, |a: i8, b: i8| a.max(b));
        let mut blk = TreeBlock::new(3);
        blk.insert(&op, 0, &[1i8, -7]);
        blk.insert(&op, 1, &[5, -9]);
        let out = blk.insert(&op, 2, &[-3, 4]).result.unwrap();
        assert_eq!(out, vec![5, 4]);
        assert_eq!(op.identity(), i8::MIN);
    }

    #[test]
    fn flare_f3_claim_is_backed_by_tree_aggregation() {
        assert_eq!(flare_row().reproducible, Support::Yes);
        assert!(flare_model::AggKind::Tree.reproducible());
    }

    #[test]
    fn glyphs_are_distinct() {
        let g: std::collections::HashSet<&str> = [
            Support::Yes.glyph(),
            Support::Partial.glyph(),
            Support::No.glyph(),
            Support::Unknown.glyph(),
        ]
        .into();
        assert_eq!(g.len(), 4);
    }
}
