//! Dense block aggregators (paper Section 6).
//!
//! These are the *functional* state machines behind the three aggregation
//! designs — single buffer (6.1), multiple buffers (6.2) and tree (6.3).
//! A single buffer is the one-buffer case of [`MultiBufferBlock`]: one
//! lock, contributions folded in arrival order. The blocks perform the
//! real elementwise arithmetic; the cycle costs and lock serialization are
//! modeled by the callers (the PsPIN handlers in `handlers.rs` and the
//! network switch program in `switch_prog.rs`).
//!
//! Both deduplicate retransmitted packets with a per-child bitmap
//! (paper Section 4.1: "Flare can use a bitmap (with one bit per port)
//! rather than a counter" so retransmissions are not aggregated twice).

use crate::dtype::Element;
use crate::op::ReduceOp;
use crate::pool::BufferPool;
use crate::wire::DenseView;

/// A source of dense values a block can aggregate from: either a plain
/// slice or a zero-copy [`DenseView`] over a packet body. The trait lets
/// the steady-state datapath fold wire bytes straight into accumulation
/// buffers without materializing a `Vec<T>` per packet.
pub trait DenseSource<T: Element> {
    /// Number of values.
    fn len(&self) -> usize;

    /// Whether the source holds no values.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append every value to `out` (the first contribution initializes
    /// the accumulation buffer).
    fn append_to(&self, out: &mut Vec<T>);

    /// Combine elementwise into `acc`, each `acc[i]` becoming
    /// `f(acc[i], value[i])` (`acc.len()` must equal `len()`).
    fn fold_with(&self, acc: &mut [T], f: impl Fn(T, T) -> T);
}

impl<T: Element> DenseSource<T> for [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn append_to(&self, out: &mut Vec<T>) {
        out.extend_from_slice(self);
    }

    fn fold_with(&self, acc: &mut [T], f: impl Fn(T, T) -> T) {
        debug_assert_eq!(acc.len(), self.len(), "block size mismatch");
        for (a, &b) in acc.iter_mut().zip(self) {
            *a = f(*a, b);
        }
    }
}

impl<T: Element> DenseSource<T> for DenseView<'_, T> {
    fn len(&self) -> usize {
        DenseView::len(self)
    }

    fn append_to(&self, out: &mut Vec<T>) {
        DenseView::append_to(self, out);
    }

    fn fold_with(&self, acc: &mut [T], f: impl Fn(T, T) -> T) {
        DenseView::fold_with(self, acc, f);
    }
}

/// Per-child reception bitmap, sized for any number of children.
#[derive(Debug, Clone, Default)]
pub struct ChildBitmap {
    words: Vec<u64>,
    set_count: u16,
}

impl ChildBitmap {
    /// Bitmap for `children` children, all unset.
    pub fn new(children: u16) -> Self {
        Self {
            words: vec![0; (children as usize).div_ceil(64)],
            set_count: 0,
        }
    }

    /// Set bit `child`; returns `false` if it was already set (duplicate).
    pub fn set(&mut self, child: u16) -> bool {
        let (w, b) = (child as usize / 64, child as usize % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.set_count += 1;
        true
    }

    /// Clear every bit (block-shell reuse).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.set_count = 0;
    }

    /// Whether bit `child` is set.
    pub fn is_set(&self, child: u16) -> bool {
        let (w, b) = (child as usize / 64, child as usize % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of distinct children seen.
    pub fn count(&self) -> u16 {
        self.set_count
    }
}

/// What one packet insertion did to a block aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertReport<T> {
    /// Aggregation buffers the switch model allocates for this insertion
    /// (a tree's leaf buffer counts even when the host folded the
    /// contribution straight into its waiting sibling).
    pub buffers_allocated: usize,
    /// Aggregation buffers released by this insertion (tree merges, final
    /// folds, and block completion all free buffers).
    pub buffers_freed: usize,
    /// Buffer-to-buffer merge operations performed (tree levels climbed or
    /// multi-buffer folds) — each costs a full `L` in the timing model.
    pub merges: usize,
    /// The packet was a retransmitted duplicate and was ignored.
    pub duplicate: bool,
    /// The fully-reduced block, when this insertion completed it.
    pub result: Option<Vec<T>>,
}

impl<T> InsertReport<T> {
    /// A contribution that took `allocated` new buffers and `merges`
    /// merges. Each merge frees a buffer, and so does completing the block
    /// with `result`.
    fn folded(allocated: usize, merges: usize, result: Option<Vec<T>>) -> Self {
        Self {
            buffers_allocated: allocated,
            buffers_freed: merges + usize::from(result.is_some()),
            merges,
            duplicate: false,
            result,
        }
    }

    fn duplicate() -> Self {
        Self {
            duplicate: true,
            ..Self::folded(0, 0, None)
        }
    }
}

/// A pool buffer holding a copy of `vals`.
fn copied<T: Element, S: DenseSource<T> + ?Sized>(vals: &S, pool: &mut BufferPool<T>) -> Vec<T> {
    let mut buf = pool.get(vals.len());
    vals.append_to(&mut buf);
    buf
}

/// `B` interchangeable buffers per block (Section 6.2). The caller picks
/// the buffer (whichever lock it acquired); the last packet folds the
/// partial buffers together in index order.
///
/// With `B = 1` this is the single shared buffer of Section 6.1: the first
/// packet is copied in and later ones are folded in *arrival order*, so
/// the result of an order-sensitive operator depends on packet timing.
#[derive(Debug)]
pub struct MultiBufferBlock<T> {
    bufs: Vec<Option<Vec<T>>>,
    seen: ChildBitmap,
    expected: u16,
}

impl<T: Element> MultiBufferBlock<T> {
    /// New block with `buffers` buffers expecting `children` packets.
    pub fn new(children: u16, buffers: usize) -> Self {
        assert!(buffers >= 1);
        Self {
            bufs: vec![None; buffers],
            seen: ChildBitmap::new(children),
            expected: children,
        }
    }

    /// Number of buffers (`B`).
    pub fn buffers(&self) -> usize {
        self.bufs.len()
    }

    /// The element count of what the block holds; `None` before its first
    /// packet.
    pub(crate) fn held_len(&self) -> Option<usize> {
        self.bufs.iter().flatten().next().map(Vec::len)
    }

    /// Fold one packet into buffer `buffer` (compatibility wrapper over
    /// [`Self::insert_from`] with a throwaway pool).
    pub fn insert<O: ReduceOp<T>>(
        &mut self,
        op: &O,
        buffer: usize,
        child: u16,
        vals: &[T],
    ) -> InsertReport<T> {
        self.insert_from(op, buffer, child, vals, &mut BufferPool::new())
    }

    /// Fold one packet into buffer `buffer` (the caller's acquired lock),
    /// drawing/returning partial buffers from/to `pool`.
    pub fn insert_from<O: ReduceOp<T>, S: DenseSource<T> + ?Sized>(
        &mut self,
        op: &O,
        buffer: usize,
        child: u16,
        vals: &S,
        pool: &mut BufferPool<T>,
    ) -> InsertReport<T> {
        if !self.seen.set(child) {
            return InsertReport::duplicate();
        }
        let mut allocated = 0;
        match &mut self.bufs[buffer] {
            None => {
                self.bufs[buffer] = Some(copied(vals, pool));
                allocated = 1;
            }
            Some(acc) => vals.fold_with(acc, |a, b| op.combine(a, b)),
        }
        if self.seen.count() < self.expected {
            return InsertReport::folded(allocated, 0, None);
        }
        // Last handler: fold the partial buffers together in index order
        // ("aggregates the content of its packet with the content of B0,
        // and then of B1", Section 6.2). Folded-away partials go back to
        // the pool.
        let mut acc: Option<Vec<T>> = None;
        let mut folds = 0;
        for slot in &mut self.bufs {
            if let Some(part) = slot.take() {
                match &mut acc {
                    None => acc = Some(part),
                    Some(a) => {
                        part.fold_with(a, |x, y| op.combine(x, y));
                        folds += 1;
                        pool.put(part);
                    }
                }
            }
        }
        let result = acc.expect("at least this packet's buffer");
        InsertReport::folded(allocated, folds, Some(result))
    }
}

/// Tree aggregation (Section 6.3): a fixed binary combining tree over the
/// children. A packet from child `i` always lands in leaf `i`, merges only
/// happen when both siblings are present, and operands keep a fixed
/// left/right order — making the aggregation order independent of packet
/// arrival order, hence bitwise-reproducible (F3), with no lock contention.
///
/// The tree is padded to a power of two leaves; a partial whose sibling
/// subtree holds no real leaf is promoted without an operation. The block
/// holds only the partials waiting for their sibling, and a contribution
/// whose sibling waits with as many values folds straight into it.
#[derive(Debug)]
pub struct TreeBlock<T> {
    /// Partials waiting for their sibling, in no particular order.
    waiting: Vec<(u8, u16, Vec<T>)>,
    seen: ChildBitmap,
    expected: u16,
    /// Level of the root: the leaves are level 0.
    top: u8,
}

impl<T: Element> TreeBlock<T> {
    /// New combining tree over `children` leaves.
    pub fn new(children: u16) -> Self {
        assert!(children >= 1);
        Self {
            waiting: Vec::new(),
            seen: ChildBitmap::new(children),
            expected: children,
            top: (children as usize).next_power_of_two().trailing_zeros() as u8,
        }
    }

    /// Reset for reuse on the next block of the same shape (a completed
    /// tree has already handed every buffer out, so only the bitmap — and,
    /// defensively, any abandoned partials — need clearing).
    pub fn reset(&mut self) {
        self.seen.clear();
        self.waiting.clear();
    }

    /// The element count of the partials the block holds; `None` while it
    /// holds none.
    pub(crate) fn held_len(&self) -> Option<usize> {
        self.waiting.first().map(|w| w.2.len())
    }

    /// Insert child `i`'s packet into leaf `i` and bubble merges upward
    /// (compatibility wrapper over [`Self::insert_from`] with a
    /// throwaway pool).
    pub fn insert<O: ReduceOp<T>>(&mut self, op: &O, child: u16, vals: &[T]) -> InsertReport<T> {
        self.insert_from(op, child, vals, &mut BufferPool::new())
    }

    /// Insert child `i`'s packet into leaf `i` and bubble merges upward,
    /// drawing buffers from `pool` and returning merged-away buffers to
    /// it.
    pub fn insert_from<O: ReduceOp<T>, S: DenseSource<T> + ?Sized>(
        &mut self,
        op: &O,
        child: u16,
        vals: &S,
        pool: &mut BufferPool<T>,
    ) -> InsertReport<T> {
        if !self.seen.set(child) {
            return InsertReport::duplicate();
        }
        let (mut level, mut idx) = (0, child);
        // The climbing partial: `None` while it is the contribution itself.
        let mut partial: Option<Vec<T>> = None;
        let mut merges = 0;
        while level < self.top {
            let sibling = idx ^ 1;
            // A sibling subtree with no real leaf is padding: promote
            // without an operation.
            if ((sibling as usize) << level) < self.expected as usize {
                let at = self
                    .waiting
                    .iter()
                    .position(|w| (w.0, w.1) == (level, sibling));
                let Some(at) = at else {
                    // Sibling not ready: this handler is done.
                    let buf = partial.unwrap_or_else(|| copied(vals, pool));
                    self.waiting.push((level, idx, buf));
                    return InsertReport::folded(1, merges, None);
                };
                let (_, _, mut other) = self.waiting.swap_remove(at);
                // Both present: merge in left-then-right operand order.
                let right = idx & 1 == 1;
                partial = Some(match partial {
                    // No copy: the contribution folds into its sibling,
                    // still as the left operand when it is the left child.
                    None if other.len() == vals.len() => {
                        if right {
                            vals.fold_with(&mut other, |a, b| op.combine(a, b));
                        } else {
                            vals.fold_with(&mut other, |a, b| op.combine(b, a));
                        }
                        other
                    }
                    mine => {
                        let mine = mine.unwrap_or_else(|| copied(vals, pool));
                        let (mut l, r) = if right { (other, mine) } else { (mine, other) };
                        r.fold_with(&mut l, |a, b| op.combine(a, b));
                        pool.put(r);
                        l
                    }
                });
                merges += 1; // two buffers became one
            }
            level += 1;
            idx >>= 1;
        }
        let result = partial.unwrap_or_else(|| copied(vals, pool));
        InsertReport::folded(1, merges, Some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{golden_reduce, Custom, Sum};
    use proptest::prelude::*;

    fn inputs(p: usize, n: usize) -> Vec<Vec<i32>> {
        (0..p)
            .map(|c| (0..n).map(|i| (c * 100 + i) as i32).collect())
            .collect()
    }

    #[test]
    fn bitmap_sets_and_detects_duplicates() {
        let mut bm = ChildBitmap::new(130);
        assert!(bm.set(0));
        assert!(bm.set(129));
        assert!(!bm.set(0), "duplicate must be flagged");
        assert!(bm.is_set(129) && !bm.is_set(64));
        assert_eq!(bm.count(), 2);
    }

    /// Section 6.1's design: the one-buffer multi-buffer block.
    fn single_buffer(children: u16) -> MultiBufferBlock<i32> {
        MultiBufferBlock::new(children, 1)
    }

    #[test]
    fn single_buffer_reduces_correctly() {
        let data = inputs(4, 8);
        let mut blk = single_buffer(4);
        let mut result = None;
        for (c, v) in data.iter().enumerate() {
            let r = blk.insert(&Sum, 0, c as u16, v);
            if let Some(res) = r.result {
                result = Some(res);
            }
        }
        assert_eq!(result.unwrap(), golden_reduce(&Sum, &data));
    }

    #[test]
    fn single_buffer_first_packet_allocates_and_completion_frees() {
        let data = inputs(2, 4);
        let mut blk = single_buffer(2);
        let r0 = blk.insert(&Sum, 0, 0, &data[0]);
        assert_eq!((r0.buffers_allocated, r0.buffers_freed), (1, 0));
        let r1 = blk.insert(&Sum, 0, 1, &data[1]);
        assert_eq!((r1.buffers_allocated, r1.buffers_freed), (0, 1));
        assert!(r1.result.is_some());
    }

    #[test]
    fn single_buffer_ignores_retransmissions() {
        let data = inputs(3, 4);
        let mut blk = single_buffer(3);
        blk.insert(&Sum, 0, 0, &data[0]);
        let dup = blk.insert(&Sum, 0, 0, &data[0]);
        assert!(dup.duplicate);
        blk.insert(&Sum, 0, 1, &data[1]);
        let fin = blk.insert(&Sum, 0, 2, &data[2]);
        assert_eq!(fin.result.unwrap(), golden_reduce(&Sum, &data));
    }

    #[test]
    fn multi_buffer_folds_partials_in_index_order() {
        let data = inputs(4, 4);
        let mut blk = MultiBufferBlock::new(4, 2);
        // Packets use alternating buffers, as lock acquisition would.
        assert!(blk.insert(&Sum, 0, 0, &data[0]).result.is_none());
        assert!(blk.insert(&Sum, 1, 1, &data[1]).result.is_none());
        assert!(blk.insert(&Sum, 0, 2, &data[2]).result.is_none());
        let fin = blk.insert(&Sum, 1, 3, &data[3]);
        assert_eq!(fin.merges, 1, "one cross-buffer fold for B=2");
        assert_eq!(fin.result.unwrap(), golden_reduce(&Sum, &data));
    }

    #[test]
    fn multi_buffer_single_buffer_degenerate_case() {
        let data = inputs(3, 2);
        let mut blk = MultiBufferBlock::new(3, 1);
        blk.insert(&Sum, 0, 0, &data[0]);
        blk.insert(&Sum, 0, 1, &data[1]);
        let fin = blk.insert(&Sum, 0, 2, &data[2]);
        assert_eq!(fin.merges, 0);
        assert_eq!(fin.result.unwrap(), golden_reduce(&Sum, &data));
    }

    #[test]
    fn tree_reduces_correctly_for_any_child_count() {
        for p in [1usize, 2, 3, 5, 8, 13, 64] {
            let data = inputs(p, 4);
            let mut blk = TreeBlock::new(p as u16);
            let mut result = None;
            for (c, v) in data.iter().enumerate() {
                if let Some(r) = blk.insert(&Sum, c as u16, v).result {
                    result = Some(r);
                }
            }
            assert_eq!(result.unwrap(), golden_reduce(&Sum, &data), "P={p}");
        }
    }

    #[test]
    fn tree_merge_counts_total_p_minus_one() {
        for p in [2usize, 3, 8, 11] {
            let data = inputs(p, 2);
            let mut blk = TreeBlock::new(p as u16);
            let mut merges = 0;
            for (c, v) in data.iter().enumerate() {
                merges += blk.insert(&Sum, c as u16, v).merges;
            }
            assert_eq!(merges, p - 1, "P−1 aggregations (Section 6.3), P={p}");
        }
    }

    #[test]
    fn tree_result_is_arrival_order_independent() {
        // The reproducibility property (F3): with a non-associative
        // operator, tree aggregation yields bit-identical results for every
        // arrival permutation, because operand placement is fixed.
        let op = Custom::new("fp-ish", 0i32, false, |a: i32, b: i32| {
            // A deliberately non-associative combiner.
            a.wrapping_mul(2).wrapping_add(b)
        });
        let p = 6;
        let data = inputs(p, 3);
        let mut reference: Option<Vec<i32>> = None;
        // All 720 permutations of arrival order.
        let mut order: Vec<u16> = (0..p as u16).collect();
        permute(&mut order, 0, &mut |perm| {
            let mut blk = TreeBlock::new(p as u16);
            let mut result = None;
            for &c in perm {
                if let Some(r) = blk.insert(&op, c, &data[c as usize]).result {
                    result = Some(r);
                }
            }
            let result = result.expect("completed");
            match &reference {
                None => reference = Some(result),
                Some(r) => assert_eq!(*r, result, "perm {perm:?}"),
            }
        });
    }

    #[test]
    fn single_buffer_is_arrival_order_dependent() {
        // The counterpart: single-buffer aggregation with the same
        // non-associative operator produces different results for
        // different arrival orders (why Flare forces tree for F3).
        let op = Custom::new("fp-ish", 0i32, false, |a: i32, b: i32| {
            a.wrapping_mul(2).wrapping_add(b)
        });
        let data = inputs(3, 2);
        let run = |order: &[u16]| {
            let mut blk = single_buffer(3);
            let mut out = None;
            for &c in order {
                if let Some(r) = blk.insert(&op, 0, c, &data[c as usize]).result {
                    out = Some(r);
                }
            }
            out.unwrap()
        };
        assert_ne!(run(&[0, 1, 2]), run(&[2, 1, 0]));
    }

    #[test]
    fn tree_ignores_a_duplicate_to_an_open_block() {
        // A retransmission reaches a tree block that still waits for other
        // children. It must take no buffer from the pool and leave the
        // first copy's leaf in place; the duplicate here carries other
        // values, so the result shows which copy was kept.
        let data = inputs(4, 4);
        let mut pool = BufferPool::new();
        let mut blk = TreeBlock::new(4);
        blk.insert_from(&Sum, 0, &data[0][..], &mut pool);
        let gets = pool.stats().gets;
        let dup = blk.insert_from(&Sum, 0, &data[3][..], &mut pool);
        assert!(dup.duplicate && dup.result.is_none());
        assert_eq!(dup.buffers_allocated, 0);
        assert_eq!(pool.stats().gets, gets, "a duplicate drew a buffer");
        let mut result = None;
        for c in 1..4 {
            result = blk
                .insert_from(&Sum, c, &data[c as usize][..], &mut pool)
                .result;
        }
        assert_eq!(result.expect("completed"), golden_reduce(&Sum, &data));
    }

    #[test]
    fn tree_frees_all_buffers_by_completion() {
        let p = 7;
        let data = inputs(p, 2);
        let mut blk = TreeBlock::new(p as u16);
        let mut alloc = 0i64;
        for (c, v) in data.iter().enumerate() {
            let r = blk.insert(&Sum, c as u16, v);
            alloc += r.buffers_allocated as i64 - r.buffers_freed as i64;
        }
        assert_eq!(alloc, 0, "no leaked buffers");
    }

    #[test]
    fn tree_insert_from_view_matches_slice_and_reuses_buffers() {
        use crate::wire::{encode_dense, DenseView, Header, PacketKind};
        let p = 4usize;
        let data = inputs(p, 16);
        let mut pool = BufferPool::new();
        let mut results = Vec::new();
        // Several consecutive blocks through one shared pool: after the
        // first block warmed it up, later blocks allocate nothing.
        for _round in 0..5 {
            let mut blk = TreeBlock::new(p as u16);
            for (c, v) in data.iter().enumerate() {
                let pkt = encode_dense(
                    Header {
                        allreduce: 1,
                        block: 0,
                        child: c as u16,
                        kind: PacketKind::DenseContrib,
                        last_shard: false,
                        shard_count: 0,
                        elem_count: 0,
                    },
                    v,
                );
                let (_, view) = DenseView::<i32>::parse(&pkt).unwrap();
                if let Some(r) = blk.insert_from(&Sum, c as u16, &view, &mut pool).result {
                    results.push(r.clone());
                    pool.put(r);
                }
            }
        }
        let want = golden_reduce(&Sum, &data);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert_eq!(*r, want);
        }
        let stats = pool.stats();
        // Warm-up allocates at most one buffer per concurrently-live tree
        // level; the other 4 rounds are served from the free-list.
        assert!(stats.misses() <= p as u64, "misses: {:?}", stats);
        assert!(stats.hits >= stats.gets - p as u64);
    }

    /// The level-array tree `TreeBlock` replaced: every padded slot of
    /// every level allocated up front, each contribution copied into its
    /// leaf before any merge. The differential tests hold the partial list
    /// to it.
    struct LevelTree<T> {
        /// `levels[0]` are the (padded) leaves; `levels.last()` is the root.
        levels: Vec<Vec<Option<Vec<T>>>>,
        seen: ChildBitmap,
        expected: u16,
    }

    impl<T: Element> LevelTree<T> {
        fn new(children: u16) -> Self {
            let leaves = (children as usize).next_power_of_two();
            let depth = leaves.trailing_zeros() as usize;
            let mut levels = Vec::with_capacity(depth + 1);
            let mut width = leaves;
            for _ in 0..=depth {
                levels.push(vec![None; width]);
                width = (width / 2).max(1);
            }
            Self {
                levels,
                seen: ChildBitmap::new(children),
                expected: children,
            }
        }

        fn subtree_live(&self, level: usize, idx: usize) -> bool {
            (idx << level) < self.expected as usize
        }

        fn reset(&mut self) {
            self.seen.clear();
            for level in &mut self.levels {
                for slot in level {
                    *slot = None;
                }
            }
        }

        fn insert_from<O: ReduceOp<T>, S: DenseSource<T> + ?Sized>(
            &mut self,
            op: &O,
            child: u16,
            vals: &S,
            pool: &mut BufferPool<T>,
        ) -> InsertReport<T> {
            if !self.seen.set(child) {
                return InsertReport::duplicate();
            }
            let mut level = 0;
            let mut idx = child as usize;
            let mut leaf = pool.get(vals.len());
            vals.append_to(&mut leaf);
            self.levels[0][idx] = Some(leaf);
            let mut merges = 0;
            let mut freed = 0;
            let top = self.levels.len() - 1;
            while level < top {
                let sibling = idx ^ 1;
                let promoted = if !self.subtree_live(level, sibling) {
                    self.levels[level][idx].take()
                } else if self.levels[level][sibling].is_some() {
                    let left_idx = idx & !1;
                    let right_idx = left_idx + 1;
                    let mut left = self.levels[level][left_idx].take().expect("left present");
                    let right = self.levels[level][right_idx].take().expect("right present");
                    right.fold_with(&mut left, |a, b| op.combine(a, b));
                    pool.put(right);
                    merges += 1;
                    freed += 1;
                    Some(left)
                } else {
                    return InsertReport {
                        buffers_allocated: 1,
                        buffers_freed: freed,
                        merges,
                        duplicate: false,
                        result: None,
                    };
                };
                level += 1;
                idx >>= 1;
                self.levels[level][idx] = promoted;
            }
            let result = self.levels[top][0].take().expect("root present");
            InsertReport {
                buffers_allocated: 1,
                buffers_freed: freed + 1,
                merges,
                duplicate: false,
                result: Some(result),
            }
        }
    }

    /// Tree schedules for [`check_tree_against_levels`]: the child count,
    /// whether some contributions get one value more than the rest, and a
    /// seed for the values, the lengths and the arrival orders.
    fn tree_schedules() -> impl Strategy<Value = (u16, bool, u64)> {
        (1u16..71, (0u8..4).prop_map(|r| r == 0), any::<u64>())
    }

    /// Run two blocks, the second on the reset shell of the first, through
    /// a [`TreeBlock`] and a [`LevelTree`] with a non-commutative,
    /// non-associative operator. Each block's arrivals are a shuffle of
    /// every child with duplicates (carrying other values) mixed in, half
    /// of them as wire views. After every insert both report the same
    /// fields and result bits; where a ragged case merges buffers of
    /// different lengths, debug builds reject it in both at the same insert.
    fn check_tree_against_levels((children, ragged, seed): (u16, bool, u64)) {
        use crate::wire::{encode_dense, Header, PacketKind};
        use flare_des::rng::splitmix64;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let op = Custom::new("skew", 0i32, false, |a: i32, b: i32| {
            a.wrapping_mul(3).wrapping_add(b)
        });
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let base = 1 + draw(6) as usize;
        let lens: Vec<usize> = (0..children)
            .map(|_| base + usize::from(ragged && draw(4) == 0))
            .collect();
        let mut tree = TreeBlock::new(children);
        let mut model = LevelTree::new(children);
        let (mut pool, mut model_pool) = (BufferPool::new(), BufferPool::new());
        for round in 0..2 {
            let mut order: Vec<u16> = (0..children).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, draw(i as u64 + 1) as usize);
            }
            for _ in 0..draw(u64::from(children) + 1) {
                let at = draw(order.len() as u64 + 1) as usize;
                order.insert(at, draw(u64::from(children)) as u16);
            }
            for (step, &child) in order.iter().enumerate() {
                let vals: Vec<i32> = (0..lens[child as usize])
                    .map(|_| draw(1 << 32) as i32)
                    .collect();
                let header = Header {
                    allreduce: 1,
                    block: round,
                    child,
                    kind: PacketKind::DenseContrib,
                    last_shard: false,
                    shard_count: 0,
                    elem_count: 0,
                };
                let packet = encode_dense(header, &vals);
                let (_, view) = DenseView::<i32>::parse(&packet).expect("packet");
                let got = catch_unwind(AssertUnwindSafe(|| match step % 2 {
                    0 => tree.insert_from(&op, child, &view, &mut pool),
                    _ => tree.insert_from(&op, child, &vals[..], &mut pool),
                }));
                let want = catch_unwind(AssertUnwindSafe(|| {
                    model.insert_from(&op, child, &vals[..], &mut model_pool)
                }));
                match (got, want) {
                    (Ok(got), Ok(want)) => assert_eq!(
                        got, want,
                        "children {children}, round {round}, step {step}, child {child}"
                    ),
                    (Err(_), Err(_)) => return,
                    (got, _) => panic!(
                        "children {children}, round {round}, step {step}: only the {} panicked",
                        if got.is_err() {
                            "partial list"
                        } else {
                            "model"
                        }
                    ),
                }
            }
            tree.reset();
            model.reset();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // 1–70 children, shuffled arrivals with duplicates, ragged lengths:
        // every insert reports what the level-array tree reported.
        #[test]
        fn tree_block_matches_the_level_array_model(schedule in tree_schedules()) {
            check_tree_against_levels(schedule);
        }
    }

    /// The differential proptest above at 4 096 cases. Tier-1 skips it; CI
    /// runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "4 096 cases: CI runs it with --release"]
    fn tree_block_matches_the_level_array_model_over_4096_cases() {
        let mut rng = proptest::TestRng::from_name("tree_block_over_4096_cases");
        for _ in 0..4096 {
            check_tree_against_levels(tree_schedules().sample(&mut rng));
        }
    }

    #[test]
    fn a_fresh_or_reset_tree_holds_no_buffer() {
        let mut blk = TreeBlock::<f32>::new(32);
        assert_eq!(blk.waiting.capacity(), 0);
        for c in (0..32).step_by(2) {
            blk.insert(&Sum, c, &[1.0; 4]);
        }
        assert_eq!(blk.waiting.len(), 16, "one partial per waiting leaf");
        blk.reset();
        assert!(blk.waiting.is_empty() && blk.seen.count() == 0);
    }

    #[test]
    fn held_len_is_the_length_of_what_a_block_holds() {
        // What a switch compares a contribution's length against: nothing
        // before the first packet and after the result, then the block's.
        let mut tree = TreeBlock::<i32>::new(3);
        let mut multi = MultiBufferBlock::<i32>::new(3, 2);
        assert_eq!((tree.held_len(), multi.held_len()), (None, None));
        for c in 0..2 {
            tree.insert(&Sum, c, &[1; 5]);
            multi.insert(&Sum, c as usize, c, &[1; 5]);
            assert_eq!((tree.held_len(), multi.held_len()), (Some(5), Some(5)));
        }
        assert!(tree.insert(&Sum, 2, &[1; 5]).result.is_some());
        assert!(multi.insert(&Sum, 0, 2, &[1; 5]).result.is_some());
        assert_eq!((tree.held_len(), multi.held_len()), (None, None));
    }

    fn permute<F: FnMut(&[u16])>(arr: &mut Vec<u16>, k: usize, f: &mut F) {
        if k == arr.len() {
            f(arr);
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, f);
            arr.swap(k, i);
        }
    }
}
