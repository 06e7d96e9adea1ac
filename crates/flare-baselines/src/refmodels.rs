//! SwitchML and SHARP reference models (Figure 11's horizontal lines).
//!
//! * **SwitchML** (NSDI'21) runs on Tofino RMT switches: integer-only
//!   (no FPU), a fixed number of elements per packet regardless of element
//!   width (more elements would need recirculation, costing bandwidth),
//!   and a measured peak of **1.6 Tbps**.
//! * **SHARP** (Mellanox fixed-function) supports floating point; the best
//!   published single-switch number the paper uses is **3.2 Tbps**
//!   (32 ports at 100 Gbps).

use flare_core::dtype::Element;

/// SwitchML peak aggregation bandwidth (Tbps).
pub const SWITCHML_TBPS: f64 = 1.6;
/// SHARP peak aggregation bandwidth (Tbps).
pub const SHARP_TBPS: f64 = 3.2;
/// SwitchML element slot width on the switch (int32), bytes.
pub const SWITCHML_SLOT_BYTES: usize = 4;

/// SwitchML aggregated elements per second for a given element type.
///
/// Every element occupies a full 32-bit slot on the switch, so the rate is
/// *flat across datatypes* (Fig. 11b: int8/int16 gain nothing) and zero
/// for floats (unsupported on RMT hardware).
pub fn switchml_elements_per_sec<T: Element>() -> f64 {
    if T::NAME == "f32" || T::NAME == "f16" {
        return 0.0;
    }
    SWITCHML_TBPS * 1e12 / 8.0 / SWITCHML_SLOT_BYTES as f64
}

/// SHARP aggregated elements per second (wire-limited; supports floats).
pub fn sharp_elements_per_sec<T: Element>() -> f64 {
    SHARP_TBPS * 1e12 / 8.0 / T::WIRE_BYTES as f64
}

/// Quantize f32 data into SwitchML's fixed-point int32 representation
/// with a shared `scale` (the host-side preprocessing SwitchML requires;
/// this is the flexibility cost of integer-only switches). Only the tests
/// quantize: Figure 11 needs SwitchML's rates, not its values.
#[cfg(test)]
fn switchml_quantize(data: &[f32], scale: f32) -> Vec<i32> {
    assert!(scale > 0.0);
    data.iter()
        .map(|&x| {
            let q = (x * scale).round();
            q.clamp(i32::MIN as f32, i32::MAX as f32) as i32
        })
        .collect()
}

/// Dequantize after aggregation.
#[cfg(test)]
fn switchml_dequantize(data: &[i32], scale: f32) -> Vec<f32> {
    assert!(scale > 0.0);
    data.iter().map(|&x| x as f32 / scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_core::dtype::F16;

    #[test]
    fn switchml_rate_is_flat_across_integer_types() {
        let i32r = switchml_elements_per_sec::<i32>();
        assert_eq!(i32r, switchml_elements_per_sec::<i16>());
        assert_eq!(i32r, switchml_elements_per_sec::<i8>());
        assert!((i32r - 5e10).abs() < 1e6); // 1.6 Tbps / 32 bit
    }

    #[test]
    fn switchml_does_not_support_floats() {
        assert_eq!(switchml_elements_per_sec::<f32>(), 0.0);
        assert_eq!(switchml_elements_per_sec::<F16>(), 0.0);
    }

    #[test]
    fn sharp_rate_scales_with_element_width() {
        assert!((sharp_elements_per_sec::<f32>() - 1e11).abs() < 1e6);
        assert_eq!(
            sharp_elements_per_sec::<i16>(),
            2.0 * sharp_elements_per_sec::<i32>()
        );
    }

    #[test]
    fn quantization_roundtrips_within_resolution() {
        let data = vec![0.0f32, 1.0, -2.5, 0.125, 1000.0];
        let scale = 1024.0;
        let q = switchml_quantize(&data, scale);
        let back = switchml_dequantize(&q, scale);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 0.5 / scale + a.abs() * 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_aggregation_is_exact_in_integer_domain() {
        // The reason SwitchML can aggregate at all: integer addition is
        // associative, so any aggregation order matches.
        let a = switchml_quantize(&[0.5, -0.25], 256.0);
        let b = switchml_quantize(&[0.125, 1.0], 256.0);
        let sum: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let back = switchml_dequantize(&sum, 256.0);
        assert_eq!(back, vec![0.625, 0.75]);
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let q = switchml_quantize(&[1e30, -1e30], 1000.0);
        assert_eq!(q, vec![i32::MAX, i32::MIN]);
    }
}
