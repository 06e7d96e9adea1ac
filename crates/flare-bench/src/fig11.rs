//! Figure 11: bandwidth *simulated on the PsPIN engine* (not the closed
//! form): (a) aggregation bandwidth vs data size for the three Flare
//! designs against the SwitchML (1.6 Tbps) and SHARP (3.2 Tbps) reference
//! lines, including the small-size cold-start effect; (b) aggregated
//! elements per second by datatype at 1 MiB, where Flare's SIMD HPUs gain
//! on narrow types while SwitchML's fixed 32-bit slots stay flat.

use bytes::Bytes;

use flare_baselines::refmodels::{
    sharp_elements_per_sec, switchml_elements_per_sec, SHARP_TBPS, SWITCHML_TBPS,
};
use flare_core::dtype::Element;
use flare_core::handlers::{agg_cycles, DenseAllreduceHandler, DenseHandlerConfig};
use flare_core::op::Sum;
use flare_core::wire::{encode_dense, Header, PacketKind};
use flare_model::units::{KIB, MIB};
use flare_model::{dense, AggKind, SwitchParams};
use flare_pspin::engine::run_trace;
use flare_pspin::{ArrivalTrace, PspinConfig, SchedulingPolicy, StaggerMode, TraceConfig};

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

fn full_switch() -> PspinConfig {
    PspinConfig {
        policy: SchedulingPolicy::Hierarchical { subset_size: 8 },
        ..PspinConfig::paper()
    }
}

/// Run one dense aggregation on the PsPIN engine and return
/// `(Tbps, elements/s)`.
pub fn simulate_dense<T: Element>(kind: AggKind, data_bytes: u64, seed: u64) -> (f64, f64) {
    let params = SwitchParams::paper();
    let cfg = full_switch();
    let children = params.ports;
    let elems = params.packet_bytes / T::WIRE_BYTES;
    let blocks = (data_bytes / params.packet_bytes as u64).max(1);
    let tau = agg_cycles::<T>(elems);
    let delta = cfg.line_rate_delta(tau);
    let stagger = StaggerMode::Target(dense::target_delta_c(&params, kind) as u64);
    let trace = TraceConfig {
        flow: 1,
        children,
        blocks,
        header_bytes: 0,
        delta,
        stagger,
        exponential_jitter: true,
        seed,
    };
    // One shared payload per child (values don't affect timing): encoding
    // per (child, block) would dominate generation time at 1 MiB.
    let template: Vec<Bytes> = (0..children as u16)
        .map(|c| {
            let vals: Vec<T> = (0..elems)
                .map(|i| T::from_seed(c as u64 + i as u64))
                .collect();
            let header = Header {
                allreduce: 1,
                block: 0,
                child: c,
                kind: PacketKind::DenseContrib,
                last_shard: false,
                shard_count: 0,
                elem_count: 0,
            };
            encode_dense(header, &vals)
        })
        .collect();
    let arrivals = ArrivalTrace::generate(&trace, |c, block| {
        // Patch the block id into the prebuilt header bytes.
        let mut raw = template[c as usize].to_vec();
        raw[4..8].copy_from_slice(&(block as u32).to_le_bytes());
        Bytes::from(raw)
    });
    let handler: DenseAllreduceHandler<T, Sum> = DenseAllreduceHandler::new(
        DenseHandlerConfig {
            allreduce: 1,
            children: children as u16,
            algorithm: kind,
            capture_results: false,
        },
        Sum,
    );
    let (report, _) = run_trace(cfg, handler, arrivals, false);
    let elems_total = (report.packets_in as f64) * elems as f64;
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
}
