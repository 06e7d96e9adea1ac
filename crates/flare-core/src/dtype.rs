//! Element datatypes supported by Flare handlers (flexibility point F1).
//!
//! Fixed-function switches support a closed set of types; programmable
//! switches lack FPUs entirely. Flare's HPUs are RI5CY cores with DSP
//! extensions plus an FP32/FP16 FPU (paper Section 3), so any type a C
//! handler can express is aggregatable. This module models the types the
//! paper evaluates (Fig. 11b) — `i32`, `i16`, `i8`, `f32` — plus software
//! `f16`; each carries its wire size and its measured per-element
//! aggregation cost in HPU cycles:
//!
//! * f32/i32: 4 cycles (load, load, add, store — the paper's measured cost),
//! * i16/f16: 2 cycles/element (2-way SIMD: "the HPUs ... can aggregate,
//!   for example, two int16 elements in a single cycle"),
//! * i8: 1 cycle/element (4-way SIMD).
//!
//! User-defined types are first-class: anything implementing [`Element`]
//! works with every aggregation algorithm (see `examples/custom_operator.rs`).

use bytes::{Bytes, BytesMut};

/// Where an encoder writes its bytes: a [`BytesMut`] from the payload free
/// lists on the datapath, a plain `Vec<u8>` in probes and tests. Both
/// already have these three methods; the trait only names them.
pub trait ByteSink {
    /// Forget the contents, keep the capacity.
    fn clear(&mut self);
    /// Make room for `additional` more bytes.
    fn reserve(&mut self, additional: usize);
    /// Append `bytes`.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

macro_rules! impl_byte_sink {
    ($t:ty) => {
        impl ByteSink for $t {
            fn clear(&mut self) {
                <$t>::clear(self)
            }
            fn reserve(&mut self, additional: usize) {
                <$t>::reserve(self, additional)
            }
            fn extend_from_slice(&mut self, bytes: &[u8]) {
                <$t>::extend_from_slice(self, bytes)
            }
        }
    };
}

impl_byte_sink!(Vec<u8>);
impl_byte_sink!(BytesMut);

/// A value type that Flare can carry on the wire and aggregate in handlers.
pub trait Element: Copy + PartialEq + std::fmt::Debug + 'static {
    /// Bytes occupied on the wire (and in aggregation buffers).
    const WIRE_BYTES: usize;
    /// HPU cycles to aggregate one element (load + combine + store),
    /// reflecting RI5CY SIMD width for sub-word types.
    const CYCLES_PER_ELEM: f64;
    /// Display name ("i32", "f32", ...).
    const NAME: &'static str;

    /// Additive identity (the zero of sparse data).
    fn zero() -> Self;
    /// Append the little-endian encoding to `out`.
    fn write_le(self, out: &mut impl ByteSink);
    /// Decode from the first `WIRE_BYTES` of `b`.
    fn read_le(b: &[u8]) -> Self;

    /// Append the little-endian encoding of a whole slice to `out`.
    ///
    /// The default loops [`Element::write_le`]; the built-in types
    /// override it with a block-buffered bulk path — the wire hot loop —
    /// that the compiler vectorizes.
    fn write_slice_le(vals: &[Self], out: &mut impl ByteSink) {
        out.reserve(vals.len() * Self::WIRE_BYTES);
        for &v in vals {
            v.write_le(out);
        }
    }

    /// Decode `bytes` (a whole multiple of `WIRE_BYTES`) appending the
    /// elements to `out`. Built-in types override with a vectorizable
    /// bulk path.
    fn read_slice_le(bytes: &[u8], out: &mut Vec<Self>) {
        out.reserve(bytes.len() / Self::WIRE_BYTES);
        out.extend(bytes.chunks_exact(Self::WIRE_BYTES).map(Self::read_le));
    }

    /// Decode `bytes` and combine elementwise into `acc` with `f`
    /// (`acc.len() == bytes.len() / WIRE_BYTES`). With `f = op.combine`
    /// this is the switch's aggregation inner loop. Built-in types
    /// override with a vectorizable bulk path.
    fn fold_slice_le(bytes: &[u8], acc: &mut [Self], f: impl Fn(Self, Self) -> Self) {
        for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(Self::WIRE_BYTES)) {
            *a = f(*a, Self::read_le(c));
        }
    }

    /// Decode `bytes` over `dst` (`dst.len() == bytes.len() / WIRE_BYTES`).
    /// Unlike [`Element::fold_slice_le`] with an ignoring closure, this
    /// never reads `dst`, so the compiler lowers it to a straight
    /// memcpy-with-shuffle — the host's result-assembly hot loop.
    fn copy_slice_le(bytes: &[u8], dst: &mut [Self]) {
        for (a, c) in dst.iter_mut().zip(bytes.chunks_exact(Self::WIRE_BYTES)) {
            *a = Self::read_le(c);
        }
    }

    /// Decode sparse wire pairs — a `u32` little-endian index followed by
    /// a value, stride `4 + WIRE_BYTES` — calling `f` for each pair.
    /// `bytes` must be a whole multiple of the stride. Built-in types
    /// override with an `as_chunks`-based fixed-stride path that keeps
    /// the loop free of per-pair bounds checks — the sparse datapath's
    /// equivalent of the dense bulk decoder.
    fn for_each_pair_le(bytes: &[u8], mut f: impl FnMut(u32, Self)) {
        for c in bytes.chunks_exact(4 + Self::WIRE_BYTES) {
            let idx = u32::from_le_bytes(c[0..4].try_into().expect("4-byte index"));
            f(idx, Self::read_le(&c[4..]));
        }
    }

    /// Decode sparse wire pairs appending to `out` (bulk path; see
    /// [`Element::for_each_pair_le`]).
    fn read_pairs_le(bytes: &[u8], out: &mut Vec<(u32, Self)>) {
        out.reserve(bytes.len() / (4 + Self::WIRE_BYTES));
        Self::for_each_pair_le(bytes, |idx, v| out.push((idx, v)));
    }

    /// Append the wire encoding of `(index, value)` pairs to `out`.
    /// Built-in types override with a block-buffered bulk path.
    fn write_pairs_le(pairs: &[(u32, Self)], out: &mut impl ByteSink) {
        out.reserve(pairs.len() * (4 + Self::WIRE_BYTES));
        for &(idx, v) in pairs {
            out.extend_from_slice(&idx.to_le_bytes());
            v.write_le(out);
        }
    }

    /// Elementwise addition (wrapping for integers — the deterministic
    /// behaviour a switch handler would implement).
    fn add(self, other: Self) -> Self;
    /// Elementwise multiplication (wrapping for integers).
    fn mul(self, other: Self) -> Self;
    /// Elementwise minimum.
    fn min_v(self, other: Self) -> Self;
    /// Elementwise maximum.
    fn max_v(self, other: Self) -> Self;
    /// An arbitrary but deterministic value for test/workload generation,
    /// derived from a seed; kept small so integer sums do not wrap.
    fn from_seed(seed: u64) -> Self;
}

/// Bulk little-endian wire paths shared by every built-in element type:
/// fixed-size-array chunking (`as_chunks` / `as_flattened`) keeps the
/// loops free of per-element bounds checks so they vectorize.
macro_rules! impl_bulk_wire {
    ($t:ty, $bytes:expr) => {
        fn write_slice_le(vals: &[Self], out: &mut impl ByteSink) {
            out.reserve(vals.len() * $bytes);
            let mut tmp = [[0u8; $bytes]; 64];
            for chunk in vals.chunks(64) {
                for (t, v) in tmp.iter_mut().zip(chunk) {
                    *t = v.to_le_bytes();
                }
                out.extend_from_slice(tmp[..chunk.len()].as_flattened());
            }
        }

        fn read_slice_le(bytes: &[u8], out: &mut Vec<Self>) {
            let (chunks, rest) = bytes.as_chunks::<$bytes>();
            debug_assert!(rest.is_empty(), "truncated element payload");
            out.reserve(chunks.len());
            out.extend(chunks.iter().map(|c| <$t>::from_le_bytes(*c)));
        }

        fn fold_slice_le(bytes: &[u8], acc: &mut [Self], f: impl Fn(Self, Self) -> Self) {
            let (chunks, rest) = bytes.as_chunks::<$bytes>();
            debug_assert!(rest.is_empty(), "truncated element payload");
            for (a, c) in acc.iter_mut().zip(chunks) {
                *a = f(*a, <$t>::from_le_bytes(*c));
            }
        }

        fn copy_slice_le(bytes: &[u8], dst: &mut [Self]) {
            let (chunks, rest) = bytes.as_chunks::<$bytes>();
            debug_assert!(rest.is_empty(), "truncated element payload");
            for (a, c) in dst.iter_mut().zip(chunks) {
                *a = <$t>::from_le_bytes(*c);
            }
        }

        fn for_each_pair_le(bytes: &[u8], mut f: impl FnMut(u32, Self)) {
            let (chunks, rest) = bytes.as_chunks::<{ $bytes + 4 }>();
            debug_assert!(rest.is_empty(), "truncated pair payload");
            for c in chunks {
                let idx = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                let mut vb = [0u8; $bytes];
                vb.copy_from_slice(&c[4..]);
                f(idx, <$t>::from_le_bytes(vb));
            }
        }

        fn write_pairs_le(pairs: &[(u32, Self)], out: &mut impl ByteSink) {
            out.reserve(pairs.len() * ($bytes + 4));
            let mut tmp = [[0u8; $bytes + 4]; 64];
            for chunk in pairs.chunks(64) {
                for (t, &(idx, v)) in tmp.iter_mut().zip(chunk) {
                    t[0..4].copy_from_slice(&idx.to_le_bytes());
                    t[4..].copy_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(tmp[..chunk.len()].as_flattened());
            }
        }
    };
}

macro_rules! impl_int_element {
    ($t:ty, $bytes:expr, $cycles:expr, $name:expr) => {
        impl Element for $t {
            const WIRE_BYTES: usize = $bytes;
            const CYCLES_PER_ELEM: f64 = $cycles;
            const NAME: &'static str = $name;

            fn zero() -> Self {
                0
            }
            fn write_le(self, out: &mut impl ByteSink) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(b: &[u8]) -> Self {
                let mut buf = [0u8; $bytes];
                buf.copy_from_slice(&b[..$bytes]);
                <$t>::from_le_bytes(buf)
            }
            impl_bulk_wire!($t, $bytes);
            fn add(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            fn mul(self, other: Self) -> Self {
                self.wrapping_mul(other)
            }
            fn min_v(self, other: Self) -> Self {
                self.min(other)
            }
            fn max_v(self, other: Self) -> Self {
                self.max(other)
            }
            fn from_seed(seed: u64) -> Self {
                ((seed % 7) as $t).wrapping_add(1)
            }
        }
    };
}

impl_int_element!(i32, 4, 4.0, "i32");
impl_int_element!(i16, 2, 2.0, "i16");
impl_int_element!(i8, 1, 1.0, "i8");

impl Element for f32 {
    const WIRE_BYTES: usize = 4;
    const CYCLES_PER_ELEM: f64 = 4.0;
    const NAME: &'static str = "f32";

    fn zero() -> Self {
        0.0
    }
    fn write_le(self, out: &mut impl ByteSink) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&b[..4]);
        f32::from_le_bytes(buf)
    }
    impl_bulk_wire!(f32, 4);
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
    fn min_v(self, other: Self) -> Self {
        self.min(other)
    }
    fn max_v(self, other: Self) -> Self {
        self.max(other)
    }
    fn from_seed(seed: u64) -> Self {
        (seed % 1000) as f32 / 16.0 + 0.5
    }
}

/// IEEE 754 binary16 implemented in software (PsPIN's FPU supports FP16;
/// here we store the bit pattern and compute via f32, which matches
/// round-to-nearest-even FP16 hardware for a single operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F16(pub u16);

impl F16 {
    /// The bit pattern, little-endian (wire form).
    pub fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// Rebuild from the little-endian bit pattern.
    pub fn from_le_bytes(b: [u8; 2]) -> Self {
        F16(u16::from_le_bytes(b))
    }

    /// Convert from f32 with round-to-nearest-even.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let frac = bits & 0x007f_ffff;
        if exp == 0xff {
            // Inf / NaN
            let f = if frac != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7c00 | f);
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7c00); // overflow → inf
        }
        if unbiased < -24 {
            return F16(sign); // underflow → zero
        }
        if unbiased < -14 {
            // subnormal half
            let shift = (-14 - unbiased) as u32;
            let mant = (frac | 0x0080_0000) >> (13 + shift);
            let rem = (frac | 0x0080_0000) & ((1u32 << (13 + shift)) - 1);
            let half = 1u32 << (12 + shift);
            let mut m = mant;
            if rem > half || (rem == half && (m & 1) == 1) {
                m += 1;
            }
            return F16(sign | m as u16);
        }
        let mut e = (unbiased + 15) as u32;
        let mut m = frac >> 13;
        let rem = frac & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
            if m == 0x400 {
                m = 0;
                e += 1;
                if e >= 31 {
                    return F16(sign | 0x7c00);
                }
            }
        }
        F16(sign | ((e as u16) << 10) | m as u16)
    }

    /// Convert to f32 (exact).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1f) as u32;
        let frac = (self.0 & 0x3ff) as u32;
        let bits = if exp == 0 {
            if frac == 0 {
                sign
            } else {
                // subnormal: normalize
                let mut e = 127 - 15 + 1;
                let mut f = frac;
                while f & 0x400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((f & 0x3ff) << 13)
            }
        } else if exp == 31 {
            sign | 0x7f80_0000 | (frac << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }
}

impl Element for F16 {
    const WIRE_BYTES: usize = 2;
    const CYCLES_PER_ELEM: f64 = 2.0;
    const NAME: &'static str = "f16";

    fn zero() -> Self {
        F16(0)
    }
    fn write_le(self, out: &mut impl ByteSink) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn read_le(b: &[u8]) -> Self {
        F16(u16::from_le_bytes([b[0], b[1]]))
    }
    impl_bulk_wire!(F16, 2);
    fn add(self, other: Self) -> Self {
        F16::from_f32(self.to_f32() + other.to_f32())
    }
    fn mul(self, other: Self) -> Self {
        F16::from_f32(self.to_f32() * other.to_f32())
    }
    fn min_v(self, other: Self) -> Self {
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }
    fn max_v(self, other: Self) -> Self {
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }
    fn from_seed(seed: u64) -> Self {
        F16::from_f32((seed % 100) as f32 / 8.0 + 0.5)
    }
}

/// Encode a slice of elements little-endian, straight into a payload block.
pub fn encode_slice<T: Element>(vals: &[T]) -> Bytes {
    let mut out = BytesMut::with_capacity(vals.len() * T::WIRE_BYTES);
    T::write_slice_le(vals, &mut out);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_and_cycle_costs_match_the_paper() {
        assert_eq!(<i32 as Element>::WIRE_BYTES, 4);
        assert_eq!(<i32 as Element>::CYCLES_PER_ELEM, 4.0);
        assert_eq!(<f32 as Element>::CYCLES_PER_ELEM, 4.0);
        assert_eq!(<i16 as Element>::CYCLES_PER_ELEM, 2.0);
        assert_eq!(<i8 as Element>::CYCLES_PER_ELEM, 1.0);
        assert_eq!(F16::WIRE_BYTES, 2);
    }

    #[test]
    fn roundtrip_all_types() {
        fn rt<T: Element>(vals: Vec<T>) {
            let enc = encode_slice(&vals);
            assert_eq!(enc.len(), vals.len() * T::WIRE_BYTES);
            let mut back = Vec::new();
            T::read_slice_le(&enc, &mut back);
            assert_eq!(back, vals);
        }
        rt::<i32>(vec![0, -1, i32::MAX, i32::MIN, 42]);
        rt::<i16>(vec![0, -1, i16::MAX, i16::MIN]);
        rt::<i8>(vec![0, -1, i8::MAX, i8::MIN]);
        rt::<f32>(vec![0.0, -1.5, f32::MAX, 1e-20]);
        rt::<F16>(vec![F16::from_f32(1.5), F16::from_f32(-0.25)]);
    }

    #[test]
    fn integer_ops_wrap_deterministically() {
        assert_eq!(i32::MAX.add(1), i32::MIN);
        assert_eq!(
            100i8.mul(3),
            44i8.wrapping_add(0).mul(1).mul(1).mul(1).mul(1) /* 300 wraps to 44 */
        );
        assert_eq!((-5i16).min_v(3), -5);
        assert_eq!((-5i16).max_v(3), 3);
    }

    #[test]
    fn f16_conversion_is_faithful_for_representable_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 65504.0, -65504.0, 0.099976] {
            let h = F16::from_f32(x);
            let back = h.to_f32();
            let rel = if x == 0.0 {
                back.abs()
            } else {
                ((back - x) / x).abs()
            };
            assert!(rel < 1e-3, "{x} -> {back}");
        }
    }

    #[test]
    fn f16_handles_extremes() {
        assert_eq!(F16::from_f32(1e10).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e10).to_f32(), f32::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e-10).to_f32(), 0.0);
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        // Subnormal halves survive the roundtrip.
        let sub = F16(0x0001).to_f32();
        assert!(sub > 0.0 && sub < 1e-7);
        assert_eq!(F16::from_f32(sub), F16(0x0001));
    }

    #[test]
    fn f16_arithmetic_goes_through_f32() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!(a.add(b).to_f32(), 3.75);
        assert_eq!(a.mul(b).to_f32(), 3.375);
        assert_eq!(a.min_v(b), a);
        assert_eq!(a.max_v(b), b);
    }

    #[test]
    fn from_seed_is_deterministic_and_nonzero() {
        assert_eq!(i32::from_seed(9), i32::from_seed(9));
        for s in 0..100 {
            assert_ne!(f32::from_seed(s), 0.0);
            assert_ne!(i32::from_seed(s), 0);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "truncated")]
    fn decode_rejects_truncated_payloads() {
        i32::read_slice_le(&[1, 2, 3], &mut Vec::new());
    }
}
