//! Property-based tests (proptest) on the core invariants:
//!
//! * every aggregation algorithm computes the golden reduction for random
//!   inputs, child counts and arrival orders,
//! * tree aggregation is invariant under arrival permutation even for
//!   non-associative operators (the F3 guarantee),
//! * sparse stores agree with the dense reference, spills included,
//! * the wire format round-trips arbitrary payloads,
//! * the analytical models respect their structural monotonicities.

use proptest::prelude::*;

use flare::core::dense::{MultiBufferBlock, TreeBlock};
use flare::core::op::{golden_reduce, Custom, Sum};
use flare::core::sparse::{SparseArrayStore, SparseHashStore};
use flare::core::wire::{encode_dense, encode_sparse, DenseView, Header, PacketKind, SparseView};
use flare::model::{scheduling, SwitchParams};

/// Reference decoder for the view properties: reads the header, then the
/// body in fixed 4-byte little-endian chunks, with no view involved.
fn decode_dense(buf: &[u8]) -> (Header, Vec<i32>) {
    let (h, body) = Header::decode(buf).unwrap();
    let vals = body
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (h, vals)
}

/// Sparse counterpart of [`decode_dense`]: 8-byte `(u32, i32)` pairs.
fn decode_sparse(buf: &[u8]) -> (Header, Vec<(u32, i32)>) {
    let (h, body) = Header::decode(buf).unwrap();
    let pairs = body
        .chunks_exact(8)
        .map(|c| {
            let idx = u32::from_le_bytes(c[..4].try_into().unwrap());
            (idx, i32::from_le_bytes(c[4..].try_into().unwrap()))
        })
        .collect();
    (h, pairs)
}

fn inputs_strategy() -> impl Strategy<Value = Vec<Vec<i32>>> {
    // 1..=12 children, 1..=32 elements, arbitrary i32 values.
    (1usize..=12, 1usize..=32).prop_flat_map(|(p, n)| {
        proptest::collection::vec(proptest::collection::vec(any::<i32>(), n), p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_buffer_matches_golden(inputs in inputs_strategy()) {
        let p = inputs.len() as u16;
        // Section 6.1's single buffer is the one-buffer multi buffer.
        let mut blk = MultiBufferBlock::new(p, 1);
        let mut out = None;
        for (c, v) in inputs.iter().enumerate() {
            if let Some(r) = blk.insert(&Sum, 0, c as u16, v).result {
                out = Some(r);
            }
        }
        prop_assert_eq!(out.unwrap(), golden_reduce(&Sum, &inputs));
    }

    #[test]
    fn multi_buffer_matches_golden_any_buffer_choice(
        inputs in inputs_strategy(),
        buffers in 1usize..=5,
        choices in proptest::collection::vec(0usize..5, 12),
    ) {
        let p = inputs.len() as u16;
        let mut blk = MultiBufferBlock::new(p, buffers);
        let mut out = None;
        for (c, v) in inputs.iter().enumerate() {
            let buf = choices[c] % buffers;
            if let Some(r) = blk.insert(&Sum, buf, c as u16, v).result {
                out = Some(r);
            }
        }
        prop_assert_eq!(out.unwrap(), golden_reduce(&Sum, &inputs));
    }

    #[test]
    fn tree_matches_golden_under_any_arrival_order(
        inputs in inputs_strategy(),
        seed in any::<u64>(),
    ) {
        let p = inputs.len();
        let mut order: Vec<usize> = (0..p).collect();
        // Deterministic Fisher-Yates from the seed.
        let mut s = seed;
        for i in (1..p).rev() {
            s = flare::des::rng::splitmix64(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut blk = TreeBlock::new(p as u16);
        let mut out = None;
        for &c in &order {
            if let Some(r) = blk.insert(&Sum, c as u16, &inputs[c]).result {
                out = Some(r);
            }
        }
        prop_assert_eq!(out.unwrap(), golden_reduce(&Sum, &inputs));
    }

    #[test]
    fn tree_is_permutation_invariant_for_non_associative_ops(
        inputs in inputs_strategy(),
        seed in any::<u64>(),
    ) {
        let op = Custom::new("na", 0i32, false, |a: i32, b: i32| {
            a.wrapping_mul(31).wrapping_add(b)
        });
        let p = inputs.len();
        let run = |order: &[usize]| {
            let mut blk = TreeBlock::new(p as u16);
            let mut out = None;
            for &c in order {
                if let Some(r) = blk.insert(&op, c as u16, &inputs[c]).result {
                    out = Some(r);
                }
            }
            out.unwrap()
        };
        let identity: Vec<usize> = (0..p).collect();
        let mut shuffled = identity.clone();
        let mut s = seed;
        for i in (1..p).rev() {
            s = flare::des::rng::splitmix64(s);
            shuffled.swap(i, (s % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(run(&identity), run(&shuffled));
    }

    #[test]
    fn tree_never_leaks_buffers(inputs in inputs_strategy()) {
        let p = inputs.len() as u16;
        let mut blk = TreeBlock::new(p);
        let mut net = 0i64;
        for (c, v) in inputs.iter().enumerate() {
            let r = blk.insert(&Sum, c as u16, v);
            net += r.buffers_allocated as i64 - r.buffers_freed as i64;
        }
        prop_assert_eq!(net, 0);
    }

    #[test]
    fn hash_store_never_loses_elements(
        pairs in proptest::collection::vec((0u32..10_000, -100f32..100.0), 1..400),
        slots in 1usize..64,
        spill_cap in 1usize..32,
    ) {
        let mut store = SparseHashStore::<f32>::new(slots, spill_cap);
        let mut flushed = 0u64;
        for &(i, v) in &pairs {
            if let flare::core::sparse::HashInsert::SpillFlush(batch) =
                store.insert(&Sum, i, v)
            {
                flushed += batch.len() as u64;
            }
        }
        let drained = store.drain();
        let stats = store.stats();
        // Conservation: every insert is stored, combined or spilled...
        prop_assert_eq!(
            stats.stored + stats.combined + stats.spilled,
            pairs.len() as u64
        );
        // ...and every non-combined element leaves via flush or drain.
        prop_assert_eq!(
            flushed + drained.len() as u64 + stats.combined,
            pairs.len() as u64
        );
    }

    #[test]
    fn hash_plus_spill_equals_dense_reference(
        pairs in proptest::collection::vec((0u32..256, -100f32..100.0), 1..300),
        slots in 1usize..32,
    ) {
        let mut store = SparseHashStore::<f32>::new(slots, 8);
        let mut emitted: Vec<(u32, f32)> = Vec::new();
        for &(i, v) in &pairs {
            if let flare::core::sparse::HashInsert::SpillFlush(batch) =
                store.insert(&Sum, i, v)
            {
                emitted.extend(batch);
            }
        }
        emitted.extend(store.drain());
        // Summing everything emitted reproduces the dense reference.
        let mut got = vec![0.0f32; 256];
        for (i, v) in emitted {
            got[i as usize] += v;
        }
        let mut want = vec![0.0f32; 256];
        // f32 addition is order sensitive; compare with tolerance.
        for &(i, v) in &pairs {
            want[i as usize] += v;
        }
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
        }
    }

    #[test]
    fn array_store_matches_dense_reference(
        pairs in proptest::collection::vec((0u32..512, any::<i32>()), 0..300),
    ) {
        let mut store = SparseArrayStore::<i32>::new(&Sum, 512);
        for &(i, v) in &pairs {
            store.insert(&Sum, i, v);
        }
        let mut want = vec![0i32; 512];
        for &(i, v) in &pairs {
            want[i as usize] = want[i as usize].wrapping_add(v);
        }
        let drained = store.drain();
        for (i, v) in drained {
            prop_assert_eq!(v, want[i as usize]);
            want[i as usize] = 0;
        }
        // Whatever remains must be untouched slots... i.e. zero or never
        // inserted with a nonzero sum that got missed.
        prop_assert!(want.iter().enumerate().all(|(i, &v)| v == 0
            || !pairs.iter().any(|&(j, _)| j as usize == i)));
    }

    #[test]
    fn dense_wire_roundtrip(
        vals in proptest::collection::vec(any::<i32>(), 0..300),
        allreduce in any::<u32>(),
        block in any::<u32>(),
        child in any::<u16>(),
    ) {
        let header = Header {
            allreduce,
            block,
            child,
            kind: PacketKind::DenseContrib,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        let buf = encode_dense(header, &vals);
        let (h, view) = DenseView::<i32>::parse(&buf).unwrap();
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), vals);
        prop_assert_eq!(h.allreduce, allreduce);
        prop_assert_eq!(h.block, block);
        prop_assert_eq!(h.child, child);
    }

    #[test]
    fn sparse_wire_roundtrip(
        pairs in proptest::collection::vec((any::<u32>(), any::<i32>()), 0..200),
        last in any::<bool>(),
        count in any::<u16>(),
    ) {
        let header = Header {
            allreduce: 7,
            block: 9,
            child: 3,
            kind: PacketKind::SparseContrib,
            last_shard: last,
            shard_count: count,
            elem_count: 0,
        };
        let buf = encode_sparse(header, &pairs);
        let (h, view) = SparseView::<i32>::parse(&buf).unwrap();
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), pairs);
        prop_assert_eq!(h.last_shard, last);
        prop_assert_eq!(h.shard_count, count);
    }

    #[test]
    fn dense_view_iteration_equals_decode_dense(
        vals in proptest::collection::vec(any::<i32>(), 0..300),
        shift in 0usize..4,
    ) {
        let header = Header {
            allreduce: 5,
            block: 1,
            child: 0,
            kind: PacketKind::DenseContrib,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        // Offset the packet inside a larger buffer so element reads land
        // on arbitrary (unaligned) addresses.
        let pkt = encode_dense(header, &vals);
        let mut padded = vec![0u8; shift];
        padded.extend_from_slice(&pkt);
        let (h_old, old) = decode_dense(&padded[shift..]);
        prop_assert_eq!(&old, &vals);
        let (h_new, view) = DenseView::<i32>::parse(&padded[shift..]).unwrap();
        prop_assert_eq!(h_old, h_new);
        prop_assert_eq!(view.len(), old.len());
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), old.clone());
        let mut copied = Vec::new();
        view.append_to(&mut copied);
        prop_assert_eq!(copied, old);
    }

    #[test]
    fn sparse_view_iteration_equals_decode_sparse(
        pairs in proptest::collection::vec((any::<u32>(), any::<i32>()), 0..200),
    ) {
        let header = Header {
            allreduce: 7,
            block: 9,
            child: 3,
            kind: PacketKind::SparseContrib,
            last_shard: true,
            shard_count: 1,
            elem_count: 0,
        };
        let pkt = encode_sparse(header, &pairs);
        let (_, old) = decode_sparse(&pkt);
        prop_assert_eq!(&old, &pairs);
        let (_, view) = SparseView::<i32>::parse(&pkt).unwrap();
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), old.clone());
        let mut copied = Vec::new();
        view.append_to(&mut copied);
        prop_assert_eq!(copied, old);
    }

    #[test]
    fn queue_model_monotonicities(
        s in 1usize..=8,
        delta_c in 1.0f64..2048.0,
    ) {
        let p = SwitchParams::paper();
        let tau = p.l_cycles();
        let k = p.cores();
        let delta = p.line_rate_delta();
        // δk grows with S and δc, capped at K·δ.
        let dk = scheduling::delta_k(s, delta_c, k, delta);
        prop_assert!(dk <= k as f64 * delta + 1e-9);
        let dk2 = scheduling::delta_k(s, delta_c * 2.0, k, delta);
        prop_assert!(dk2 >= dk);
        // Q shrinks (weakly) as δk grows; never negative.
        let q1 = scheduling::queue_len(p.ports, s, dk, tau);
        let q2 = scheduling::queue_len(p.ports, s, dk2, tau);
        prop_assert!(q1 >= 0.0 && q2 >= 0.0);
        prop_assert!(q2 <= q1 + 1e-9);
        // Eq. 1 is consistent.
        let total = scheduling::max_packets_in_switch(q1, k);
        prop_assert!((total - (q1 + 1.0) * k as f64).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_never_exceeds_line_rate(tau in 1.0f64..100_000.0) {
        let p = SwitchParams::paper();
        let b = scheduling::switch_bandwidth(p.cores(), tau, p.line_rate_delta());
        prop_assert!(b <= 1.0 / p.line_rate_delta() + 1e-12);
        prop_assert!(b > 0.0);
    }

    #[test]
    fn f16_roundtrip_via_f32_is_stable(bits in 0u16..0x7c00) {
        // Every finite half value survives f16 -> f32 -> f16 exactly.
        let h = flare::core::F16(bits);
        let back = flare::core::F16::from_f32(h.to_f32());
        prop_assert_eq!(back, h);
    }
}
