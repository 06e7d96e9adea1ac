//! Flare wire format.
//!
//! Hosts add "a small header containing the identifier of the allreduce and
//! of the packet within that allreduce" (paper Section 4). The header here
//! is an explicit 16-byte layout; sparse payloads interleave `u32` indexes
//! with values (paper Section 7: "packets also carry the position of each
//! element inside the block").

use bytes::{Bytes, BytesMut};

use crate::dtype::{ByteSink, Element};

/// Size of the fixed Flare header in bytes.
pub const HEADER_BYTES: usize = 16;

/// Packet role within an allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Dense contribution from a child (host or sub-switch).
    DenseContrib = 0,
    /// Sparse contribution: payload is (index, value) pairs.
    SparseContrib = 1,
    /// Fully-aggregated dense result travelling down the tree.
    DenseResult = 2,
    /// Aggregated (or spilled) sparse data: (index, value) pairs.
    SparseResult = 3,
    /// Spilled sparse elements forwarded unaggregated (extra traffic).
    SparseSpill = 4,
}

impl PacketKind {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => PacketKind::DenseContrib,
            1 => PacketKind::SparseContrib,
            2 => PacketKind::DenseResult,
            3 => PacketKind::SparseResult,
            4 => PacketKind::SparseSpill,
            _ => return None,
        })
    }
}

/// The parsed Flare packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Allreduce identifier (assigned by the network manager).
    pub allreduce: u32,
    /// Reduction-block index.
    pub block: u32,
    /// Child index within the reduction tree (the paper's port `i`).
    pub child: u16,
    /// Packet role.
    pub kind: PacketKind,
    /// Sparse only: set on the last shard of a block from this child; the
    /// accompanying `shard_count` then says how many shards were sent
    /// (paper Section 7, "Block split").
    pub last_shard: bool,
    /// Sparse shard-sequencing field, interpreted by `last_shard`:
    ///
    /// * `last_shard == true` — how many shards this child split the
    ///   block into (the paper's announced total). Shards are emitted in
    ///   sequence order, so the last shard's own sequence number is
    ///   `shard_count - 1`.
    /// * `last_shard == false` — this shard's 0-based sequence number
    ///   within `(block, child)`.
    ///
    /// Together with `last_shard` this gives every shard a unique
    /// identity (see [`Header::shard_index`]), which is what makes
    /// retransmitted shards rejectable instead of double-reduced.
    pub shard_count: u16,
    /// Number of elements in the payload (0 for an empty sparse block).
    pub elem_count: u16,
}

impl Header {
    /// Serialize into 16 bytes.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..4].copy_from_slice(&self.allreduce.to_le_bytes());
        out[4..8].copy_from_slice(&self.block.to_le_bytes());
        out[8..10].copy_from_slice(&self.child.to_le_bytes());
        out[10] = self.kind as u8;
        out[11] = u8::from(self.last_shard);
        out[12..14].copy_from_slice(&self.shard_count.to_le_bytes());
        out[14..16].copy_from_slice(&self.elem_count.to_le_bytes());
        out
    }

    /// Parse from a packet payload; returns the header and the body bytes.
    pub fn decode(buf: &[u8]) -> Result<(Header, &[u8]), WireError> {
        if buf.len() < HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let kind = PacketKind::from_u8(buf[10]).ok_or(WireError::BadKind(buf[10]))?;
        let h = Header {
            allreduce: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            block: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            child: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
            kind,
            last_shard: buf[11] != 0,
            shard_count: u16::from_le_bytes(buf[12..14].try_into().unwrap()),
            elem_count: u16::from_le_bytes(buf[14..16].try_into().unwrap()),
        };
        Ok((h, &buf[HEADER_BYTES..]))
    }

    /// This shard's 0-based sequence number within `(block, child)`:
    /// carried directly on non-last shards, derived as `shard_count - 1`
    /// on the last shard (shards are emitted in sequence order). Only
    /// meaningful for sparse packets.
    pub fn shard_index(&self) -> u16 {
        if self.last_shard {
            self.shard_count.saturating_sub(1)
        } else {
            self.shard_count
        }
    }

    /// The `shard_count` wire value for shard number `seq` of a sequence
    /// announcing `total` shards: the total on the last shard, the
    /// sequence number otherwise — the single encode-side definition of
    /// the field's dual use, inverse of [`Header::shard_index`] (every
    /// sender must emit shards in sequence order so the last shard's own
    /// number is `total - 1`).
    pub fn shard_seq_field(last: bool, seq: u16, total: u16) -> u16 {
        if last {
            total
        } else {
            seq
        }
    }
}

/// Wire format violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the header or declared payload.
    Truncated,
    /// Unknown packet kind byte.
    BadKind(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadKind(k) => write!(f, "unknown packet kind {k}"),
        }
    }
}
impl std::error::Error for WireError {}

/// A borrowed, zero-copy view over the dense values of a packet body.
///
/// Values are decoded lazily with unaligned little-endian reads as the
/// view is iterated — nothing is materialized, so the switch datapath can
/// fold a contribution straight into its accumulation buffer without a
/// per-packet `Vec<T>`. Produced by [`DenseView::parse`].
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a, T> {
    body: &'a [u8],
    _elem: std::marker::PhantomData<T>,
}

impl<'a, T: Element> DenseView<'a, T> {
    /// Parse a packet buffer into its header and a value view.
    pub fn parse(buf: &'a [u8]) -> Result<(Header, Self), WireError> {
        let (h, body) = Header::decode(buf)?;
        let need = h.elem_count as usize * T::WIRE_BYTES;
        if body.len() < need {
            return Err(WireError::Truncated);
        }
        Ok((
            h,
            Self {
                body: &body[..need],
                _elem: std::marker::PhantomData,
            },
        ))
    }

    /// Number of values in the packet.
    pub fn len(&self) -> usize {
        self.body.len() / T::WIRE_BYTES
    }

    /// Whether the packet carries no values.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Value `i` (unaligned read; `i` must be `< len()`).
    pub fn get(&self, i: usize) -> T {
        T::read_le(&self.body[i * T::WIRE_BYTES..])
    }

    /// Iterate the values without materializing them.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        self.body.chunks_exact(T::WIRE_BYTES).map(T::read_le)
    }

    /// Append every value to `out` (the first-contribution copy; bulk
    /// vectorized path).
    pub fn append_to(&self, out: &mut Vec<T>) {
        T::read_slice_le(self.body, out);
    }

    /// Copy the values over `dst` (`dst.len()` values are written; the
    /// view must hold at least that many). Bulk vectorized path that
    /// never reads `dst`.
    pub fn copy_to_slice(&self, dst: &mut [T]) {
        let n = dst.len().min(self.len());
        T::copy_slice_le(&self.body[..n * T::WIRE_BYTES], &mut dst[..n]);
    }

    /// Combine the values elementwise into `acc` with `f` (`acc.len()`
    /// must equal `len()`). This is the switch aggregation inner loop.
    pub fn fold_with(&self, acc: &mut [T], f: impl Fn(T, T) -> T) {
        debug_assert_eq!(acc.len(), self.len(), "block size mismatch");
        T::fold_slice_le(self.body, acc, f);
    }
}

/// A borrowed, zero-copy view over the `(index, value)` pairs of a sparse
/// packet body. See [`DenseView`].
#[derive(Debug, Clone, Copy)]
pub struct SparseView<'a, T> {
    body: &'a [u8],
    _elem: std::marker::PhantomData<T>,
}

impl<'a, T: Element> SparseView<'a, T> {
    const STRIDE: usize = 4 + T::WIRE_BYTES;

    /// Parse a packet buffer into its header and a pair view.
    pub fn parse(buf: &'a [u8]) -> Result<(Header, Self), WireError> {
        let (h, body) = Header::decode(buf)?;
        let need = h.elem_count as usize * Self::STRIDE;
        if body.len() < need {
            return Err(WireError::Truncated);
        }
        Ok((
            h,
            Self {
                body: &body[..need],
                _elem: std::marker::PhantomData,
            },
        ))
    }

    /// Number of pairs in the packet.
    pub fn len(&self) -> usize {
        self.body.len() / Self::STRIDE
    }

    /// Whether the packet carries no pairs.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Pair `i` (unaligned read; `i` must be `< len()`).
    pub fn get(&self, i: usize) -> (u32, T) {
        let c = &self.body[i * Self::STRIDE..];
        let idx = u32::from_le_bytes(c[0..4].try_into().unwrap());
        (idx, T::read_le(&c[4..]))
    }

    /// Iterate the pairs without materializing them.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, T)> + 'a {
        self.body.chunks_exact(Self::STRIDE).map(|c| {
            let idx = u32::from_le_bytes(c[0..4].try_into().unwrap());
            (idx, T::read_le(&c[4..]))
        })
    }

    /// Call `f` for every `(index, value)` pair — the bulk fixed-stride
    /// decode path (`as_chunks`-based, like the dense decoder): the
    /// sparse store insertion loops run over this instead of [`Self::iter`]
    /// so the stride decode has no per-pair bounds checks.
    pub fn for_each(&self, f: impl FnMut(u32, T)) {
        T::for_each_pair_le(self.body, f);
    }

    /// Append every pair to `out` (bulk vectorized path).
    pub fn append_to(&self, out: &mut Vec<(u32, T)>) {
        T::read_pairs_le(self.body, out);
    }
}

/// Serialize a dense packet into a caller-provided sink: header +
/// contiguous element values. The sink is cleared first; spare capacity is
/// kept.
pub fn encode_dense_into<T: Element>(mut header: Header, values: &[T], out: &mut impl ByteSink) {
    header.elem_count = values.len() as u16;
    out.clear();
    out.reserve(HEADER_BYTES + values.len() * T::WIRE_BYTES);
    out.extend_from_slice(&header.encode());
    T::write_slice_le(values, out);
}

/// Encode a dense packet: header + contiguous element values, written once
/// into a payload block of exactly that size.
pub fn encode_dense<T: Element>(header: Header, values: &[T]) -> Bytes {
    let mut out = BytesMut::with_capacity(HEADER_BYTES + values.len() * T::WIRE_BYTES);
    encode_dense_into(header, values, &mut out);
    out.freeze()
}

/// Serialize a sparse packet into a caller-provided sink: header + (u32
/// index, value) pairs. Indexes are block-relative.
pub fn encode_sparse_into<T: Element>(
    mut header: Header,
    pairs: &[(u32, T)],
    out: &mut impl ByteSink,
) {
    header.elem_count = pairs.len() as u16;
    out.clear();
    out.reserve(HEADER_BYTES + pairs.len() * (4 + T::WIRE_BYTES));
    out.extend_from_slice(&header.encode());
    T::write_pairs_le(pairs, out);
}

/// Encode a sparse packet: header + (u32 index, value) pairs. Indexes are
/// block-relative.
pub fn encode_sparse<T: Element>(header: Header, pairs: &[(u32, T)]) -> Bytes {
    let mut out = BytesMut::with_capacity(HEADER_BYTES + pairs.len() * (4 + T::WIRE_BYTES));
    encode_sparse_into(header, pairs, &mut out);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(kind: PacketKind) -> Header {
        Header {
            allreduce: 0xDEAD,
            block: 77,
            child: 5,
            kind,
            last_shard: true,
            shard_count: 3,
            elem_count: 0,
        }
    }

    #[test]
    fn header_roundtrips() {
        let h = header(PacketKind::SparseContrib);
        let enc = h.encode();
        let (back, rest) = Header::decode(&enc).unwrap();
        assert_eq!(back, Header { elem_count: 0, ..h });
        assert!(rest.is_empty());
    }

    #[test]
    fn dense_roundtrip_preserves_values() {
        let vals: Vec<i32> = (0..256).map(|i| i * 3 - 100).collect();
        let pkt = encode_dense(header(PacketKind::DenseContrib), &vals);
        assert_eq!(pkt.len(), HEADER_BYTES + 1024);
        let (h, view) = DenseView::<i32>::parse(&pkt).unwrap();
        assert_eq!(
            h,
            Header {
                elem_count: 256,
                ..header(PacketKind::DenseContrib)
            }
        );
        assert_eq!(view.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn sparse_roundtrip_preserves_pairs() {
        let pairs: Vec<(u32, f32)> = vec![(0, 1.5), (17, -2.25), (1023, 3.0)];
        let pkt = encode_sparse(header(PacketKind::SparseContrib), &pairs);
        assert_eq!(pkt.len(), HEADER_BYTES + 3 * 8);
        let (h, view) = SparseView::<f32>::parse(&pkt).unwrap();
        assert_eq!(
            h,
            Header {
                elem_count: 3,
                ..header(PacketKind::SparseContrib)
            }
        );
        assert_eq!(view.iter().collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn empty_sparse_block_packet_is_header_only() {
        // Paper Section 7 "Empty blocks": still send a packet so the
        // children counter advances.
        let pkt = encode_sparse::<f32>(header(PacketKind::SparseContrib), &[]);
        assert_eq!(pkt.len(), HEADER_BYTES);
        let (h, view) = SparseView::<f32>::parse(&pkt).unwrap();
        assert_eq!(h.elem_count, 0);
        assert_eq!(view.len(), 0);
        assert!(h.last_shard);
    }

    #[test]
    fn truncated_and_bad_kind_are_rejected() {
        assert_eq!(Header::decode(&[0u8; 8]).unwrap_err(), WireError::Truncated);
        let mut raw = header(PacketKind::DenseContrib).encode();
        raw[10] = 200;
        assert_eq!(Header::decode(&raw).unwrap_err(), WireError::BadKind(200));
        // Declared elements but missing body.
        let mut h = header(PacketKind::DenseContrib);
        h.elem_count = 4;
        let enc = h.encode();
        assert_eq!(
            DenseView::<i32>::parse(&enc).unwrap_err(),
            WireError::Truncated
        );
    }

    /// Reference decoder for the view tests: reads the header, then the
    /// body in fixed 4-byte little-endian chunks, with no view involved.
    fn decode_dense(buf: &[u8]) -> (Header, Vec<i32>) {
        let (h, body) = Header::decode(buf).unwrap();
        let vals = body
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        (h, vals)
    }

    /// Sparse counterpart of [`decode_dense`]: 8-byte `(u32, f32)` pairs.
    fn decode_sparse(buf: &[u8]) -> (Header, Vec<(u32, f32)>) {
        let (h, body) = Header::decode(buf).unwrap();
        let pairs = body
            .chunks_exact(8)
            .map(|c| {
                let idx = u32::from_le_bytes(c[..4].try_into().unwrap());
                (idx, f32::from_le_bytes(c[4..].try_into().unwrap()))
            })
            .collect();
        (h, pairs)
    }

    #[test]
    fn dense_view_matches_decode_dense() {
        let vals: Vec<i32> = (0..300).map(|i| i * 7 - 950).collect();
        let pkt = encode_dense(header(PacketKind::DenseContrib), &vals);
        let (h_old, old) = decode_dense(&pkt);
        assert_eq!(old, vals);
        let (h_new, view) = DenseView::<i32>::parse(&pkt).unwrap();
        assert_eq!(h_old, h_new);
        assert_eq!(view.len(), old.len());
        assert_eq!(view.iter().collect::<Vec<_>>(), old);
        assert_eq!(view.get(0), old[0]);
        assert_eq!(view.get(299), old[299]);
        let mut copied = Vec::new();
        view.append_to(&mut copied);
        assert_eq!(copied, old);
    }

    #[test]
    fn sparse_view_matches_decode_sparse() {
        let pairs: Vec<(u32, f32)> = (0..77).map(|i| (i * 13, i as f32 * 0.25 - 3.0)).collect();
        let pkt = encode_sparse(header(PacketKind::SparseContrib), &pairs);
        let (h_old, old) = decode_sparse(&pkt);
        assert_eq!(old, pairs);
        let (h_new, view) = SparseView::<f32>::parse(&pkt).unwrap();
        assert_eq!(h_old, h_new);
        assert_eq!(view.len(), 77);
        assert_eq!(view.iter().collect::<Vec<_>>(), old);
        assert_eq!(view.get(76), old[76]);
        let mut copied = Vec::new();
        view.append_to(&mut copied);
        assert_eq!(copied, old);
    }

    #[test]
    fn sparse_bulk_paths_match_elementwise_for_every_type() {
        // The as_chunks stride decoder must agree with the per-pair
        // iterator for every built-in element type (different strides).
        fn check<T: Element>(mk: impl Fn(u32) -> T) {
            let pairs: Vec<(u32, T)> = (0..97).map(|i| (i * 31 + 5, mk(i))).collect();
            let pkt = encode_sparse(header(PacketKind::SparseContrib), &pairs);
            let (_, view) = SparseView::<T>::parse(&pkt).unwrap();
            let elementwise: Vec<(u32, T)> = view.iter().collect();
            let mut via_for_each = Vec::new();
            view.for_each(|i, v| via_for_each.push((i, v)));
            assert_eq!(via_for_each, elementwise, "{}", T::NAME);
            let mut via_append = Vec::new();
            view.append_to(&mut via_append);
            assert_eq!(via_append, elementwise, "{}", T::NAME);
            assert_eq!(elementwise, pairs, "{}", T::NAME);
        }
        check::<i32>(|i| i as i32 * -3);
        check::<i16>(|i| i as i16);
        check::<i8>(|i| (i % 100) as i8);
        check::<f32>(|i| i as f32 * 0.75 - 9.0);
        check::<crate::dtype::F16>(|i| crate::dtype::F16::from_f32(i as f32 / 4.0));
    }

    #[test]
    fn sparse_bulk_encode_matches_elementwise_layout() {
        // write_pairs_le (block-buffered) must produce byte-identical
        // encodings to the original per-pair loop.
        fn check<T: Element>(pairs: Vec<(u32, T)>) {
            let mut reference = Vec::new();
            for &(idx, v) in &pairs {
                reference.extend_from_slice(&idx.to_le_bytes());
                v.write_le(&mut reference);
            }
            let mut bulk = Vec::new();
            T::write_pairs_le(&pairs, &mut bulk);
            assert_eq!(bulk, reference, "{}", T::NAME);
        }
        check::<f32>((0..200).map(|i| (i * 7, i as f32 * 1.5)).collect());
        check::<i16>((0..65).map(|i| (i, i as i16 - 30)).collect());
        check::<i8>(vec![(0, -1), (u32::MAX, i8::MAX)]);
    }

    #[test]
    fn views_read_unaligned_payload_offsets() {
        // Shift the whole packet by 1..3 bytes inside a larger buffer so
        // every element read is misaligned; values must still decode.
        let vals: Vec<i32> = (0..32).map(|i| i * 1_000_003).collect();
        let pkt = encode_dense(header(PacketKind::DenseContrib), &vals);
        for shift in 1usize..4 {
            let mut shifted = vec![0u8; shift];
            shifted.extend_from_slice(&pkt);
            let (_, view) = DenseView::<i32>::parse(&shifted[shift..]).unwrap();
            assert_eq!(view.iter().collect::<Vec<_>>(), vals, "shift {shift}");
        }
        let pairs: Vec<(u32, f32)> = vec![(3, 1.5), (9, -2.0)];
        let spkt = encode_sparse(header(PacketKind::SparseContrib), &pairs);
        let mut shifted = vec![0u8; 3];
        shifted.extend_from_slice(&spkt);
        let (_, view) = SparseView::<f32>::parse(&shifted[3..]).unwrap();
        assert_eq!(view.iter().collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn views_reject_truncated_buffers() {
        let vals = vec![1i32, 2, 3, 4];
        let pkt = encode_dense(header(PacketKind::DenseContrib), &vals);
        // Chop the body: header promises 4 elements, body has fewer.
        for cut in 1..=(4 * 4) {
            let short = &pkt[..pkt.len() - cut];
            assert_eq!(
                DenseView::<i32>::parse(short).unwrap_err(),
                WireError::Truncated,
                "cut {cut}"
            );
        }
        assert_eq!(
            DenseView::<i32>::parse(&pkt[..8]).unwrap_err(),
            WireError::Truncated
        );
        let pairs = vec![(1u32, 2.0f32)];
        let spkt = encode_sparse(header(PacketKind::SparseContrib), &pairs);
        assert_eq!(
            SparseView::<f32>::parse(&spkt[..spkt.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let reference = encode_dense(header(PacketKind::DenseContrib), &vals);
        let mut buf = vec![0xAAu8; 7]; // stale content must be cleared
        encode_dense_into(header(PacketKind::DenseContrib), &vals, &mut buf);
        assert_eq!(&buf[..], &reference[..]);
        let cap = buf.capacity();
        encode_dense_into(header(PacketKind::DenseContrib), &vals, &mut buf);
        assert_eq!(buf.capacity(), cap, "steady-state encode must not grow");

        let pairs: Vec<(u32, i16)> = vec![(5, -3), (1000, 22)];
        let sref = encode_sparse(header(PacketKind::SparseContrib), &pairs);
        let mut sbuf = Vec::new();
        encode_sparse_into(header(PacketKind::SparseContrib), &pairs, &mut sbuf);
        assert_eq!(&sbuf[..], &sref[..]);
    }

    #[test]
    fn kind_codes_are_stable() {
        for (k, v) in [
            (PacketKind::DenseContrib, 0u8),
            (PacketKind::SparseContrib, 1),
            (PacketKind::DenseResult, 2),
            (PacketKind::SparseResult, 3),
            (PacketKind::SparseSpill, 4),
        ] {
            assert_eq!(k as u8, v);
            assert_eq!(PacketKind::from_u8(v), Some(k));
        }
        assert_eq!(PacketKind::from_u8(9), None);
    }
}
