//! Figure 11: bandwidth *simulated on the PsPIN engine* (not the closed
//! form): (a) aggregation bandwidth vs data size for the three Flare
//! designs against the SwitchML (1.6 Tbps) and SHARP (3.2 Tbps) reference
//! lines, including the small-size cold-start effect; (b) aggregated
//! elements per second by datatype at 1 MiB, where Flare's SIMD HPUs gain
//! on narrow types while SwitchML's fixed 32-bit slots stay flat.

use flare_baselines::refmodels::{
    sharp_elements_per_sec, switchml_elements_per_sec, SHARP_TBPS, SWITCHML_TBPS,
};
use flare_core::dtype::Element;
use flare_core::wiring::SwitchRun;
use flare_model::units::{fmt_bytes, KIB, MIB};
use flare_model::{dense, AggKind, SwitchParams};
use flare_pspin::{PspinConfig, StaggerMode};

use crate::table::{self, f2};
use crate::Scale;

/// Point of Figure 11a.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Data size in bytes.
    pub data_bytes: u64,
    /// Algorithm.
    pub kind: AggKind,
    /// Simulated bandwidth (Tbps).
    pub tbps: f64,
}

/// Point of Figure 11b.
#[derive(Debug, Clone)]
pub struct DtypeRow {
    /// Datatype name.
    pub dtype: &'static str,
    /// Flare simulated aggregation rate (elements/s).
    pub flare_eps: f64,
    /// SwitchML model rate (elements/s; 0 = unsupported).
    pub switchml_eps: f64,
    /// SHARP model rate (elements/s).
    pub sharp_eps: f64,
}

/// Reference lines.
pub fn reference_lines() -> [(&'static str, f64); 2] {
    [("SwitchML", SWITCHML_TBPS), ("SHARP", SHARP_TBPS)]
}

/// Run one dense aggregation on the PsPIN engine and return
/// `(Tbps, elements/s)`.
pub fn simulate_dense<T: Element>(kind: AggKind, data_bytes: u64, seed: u64) -> (f64, f64) {
    let params = SwitchParams::paper();
    let run = SwitchRun {
        cfg: PspinConfig::paper(),
        children: params.ports,
        blocks: (data_bytes / params.packet_bytes as u64).max(1),
        stagger: StaggerMode::Target(dense::target_delta_c(&params, kind) as u64),
        jitter: true,
        seed,
    };
    let report = run.dense::<T>(kind);
    let elems_total = report.packets_in as f64 * (params.packet_bytes / T::WIRE_BYTES) as f64;
    (
        report.ingress_tbps,
        elems_total / report.duration_ns as f64 * 1e9,
    )
}

/// Figure 11a sizes.
pub const SIZES: [u64; 5] = [KIB, 4 * KIB, 64 * KIB, 512 * KIB, MIB];

/// Compute Figure 11a (i32, as in the paper). The 15 independent
/// simulations fan out across cores.
pub fn bandwidth_rows() -> Vec<BandwidthRow> {
    let mut points = Vec::new();
    for &size in &SIZES {
        for kind in [
            AggKind::SingleBuffer,
            AggKind::MultiBuffer(4),
            AggKind::Tree,
        ] {
            points.push((size, kind));
        }
    }
    crate::par_map(points, |(size, kind)| {
        let (tbps, _) = simulate_dense::<i32>(kind, size, 3);
        BandwidthRow {
            data_bytes: size,
            kind,
            tbps,
        }
    })
}

/// Compute Figure 11b at 1 MiB with the policy-selected algorithm.
pub fn dtype_rows() -> Vec<DtypeRow> {
    fn one<T: Element>() -> DtypeRow {
        let kind = flare_model::select_algorithm(MIB, false);
        let (_, eps) = simulate_dense::<T>(kind, MIB, 5);
        DtypeRow {
            dtype: T::NAME,
            flare_eps: eps,
            switchml_eps: switchml_elements_per_sec::<T>(),
            sharp_eps: sharp_elements_per_sec::<T>(),
        }
    }
    vec![one::<i32>(), one::<i16>(), one::<i8>(), one::<f32>()]
}

/// Print both panels with the SwitchML and SHARP reference lines.
pub fn print(_: Scale) {
    println!("Figure 11 (left): simulated bandwidth vs data size, i32");
    println!();
    // One line per size: the rows come size-major, one per design.
    let columns: &[table::Column<&[BandwidthRow]>] = &[
        ("data", |of_size| fmt_bytes(of_size[0].data_bytes)),
        ("single (Tbps)", |of_size| f2(of_size[0].tbps)),
        ("multi(4)", |of_size| f2(of_size[1].tbps)),
        ("tree", |of_size| f2(of_size[2].tbps)),
    ];
    table::print(bandwidth_rows().chunks(3), columns);
    for (name, tbps) in reference_lines() {
        println!("reference: {name} = {tbps} Tbps");
    }

    println!();
    println!("Figure 11 (right): elements aggregated per second, 1 MiB data");
    println!();
    let columns: &[table::Column<DtypeRow>] = &[
        ("dtype", |r| r.dtype.to_string()),
        ("Flare (elem/s)", |r| format!("{:.2e}", r.flare_eps)),
        ("SwitchML", |r| {
            if r.switchml_eps > 0.0 {
                format!("{:.2e}", r.switchml_eps)
            } else {
                "n/a".into()
            }
        }),
        ("SHARP", |r| format!("{:.2e}", r.sharp_eps)),
    ];
    table::print(dtype_rows(), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_dense_single_buffer_beats_sharp_and_switchml() {
        let (tbps, _) = simulate_dense::<i32>(AggKind::SingleBuffer, MIB, 1);
        assert!(tbps > SHARP_TBPS, "Flare single-buffer at 1 MiB: {tbps}");
        assert!(tbps > SWITCHML_TBPS);
    }

    #[test]
    fn small_dense_tree_beats_contended_single_buffer() {
        let (tree, _) = simulate_dense::<i32>(AggKind::Tree, 16 * KIB, 1);
        let (single, _) = simulate_dense::<i32>(AggKind::SingleBuffer, 16 * KIB, 1);
        assert!(
            tree > single,
            "tree {tree} must beat contended single {single} on small data"
        );
    }

    #[test]
    fn narrow_types_aggregate_more_elements_per_second() {
        let kind = AggKind::SingleBuffer;
        let (_, i32_eps) = simulate_dense::<i32>(kind, 256 * KIB, 2);
        let (_, i16_eps) = simulate_dense::<i16>(kind, 256 * KIB, 2);
        let (_, i8_eps) = simulate_dense::<i8>(kind, 256 * KIB, 2);
        assert!(i16_eps > i32_eps * 1.5, "{i16_eps} vs {i32_eps}");
        assert!(i8_eps > i16_eps * 1.5, "{i8_eps} vs {i16_eps}");
    }

    #[test]
    fn bandwidth_rows_are_bit_identical_to_the_hand_assembled_ones() {
        // Recorded at the parent of the `SwitchRun` change, where this
        // module built its own trace, template payloads and handler.
        #[rustfmt::skip]
        let want = [
            0.008089450656295575, 0.026969205834683953, 0.0409757599076568,
            0.03234109751283064, 0.10769137425422186, 0.16438373080188315,
            0.5061521781104724, 1.6619712265301145, 2.052440375813057,
            2.6986642361152753, 3.5495431405991638, 3.398060101457043,
            3.2902592767651027, 3.6833772855615563, 3.6295223958090648,
        ];
        let got: Vec<f64> = bandwidth_rows().iter().map(|r| r.tbps).collect();
        assert_eq!(got, want, "single, multi(4), tree per size of SIZES");
    }
}
