//! sPIN packet handlers for Flare allreduce, runnable on the PsPIN engine.
//!
//! These implement [`flare_pspin::PacketHandler`] as the PsPIN side of the
//! one block protocol in `protocol.rs`: each packet's arithmetic is
//! executed for real (via the `dense`/`sparse` state machines) while the
//! paper's cycle costs drive the [`flare_pspin::HpuCtx`] cursor:
//!
//! * header parse: a fixed small cost,
//! * dense aggregation: `CYCLES_PER_ELEM × elements` inside a buffer's
//!   critical section (multi buffer, with a single buffer as its B = 1
//!   case) or lock-free after a 64-cycle DMA leaf copy (tree),
//! * sparse aggregation: per-element hash-insert / array-store costs from
//!   `flare_model::sparse`, spill-buffer flushes emitted as extra traffic,
//!   and the array's span scan paid at block completion,
//! * remote-L1 penalty whenever a packet is scheduled on a different
//!   cluster than the block's aggregation buffer (global FCFS scheduling).

use flare_model::AggKind;
use flare_pspin::{HpuCtx, PacketHandler, PspinPacket};

use crate::dense::{InsertReport, MultiBufferBlock, TreeBlock};
use crate::dtype::Element;
use crate::op::ReduceOp;
use crate::pool::{BufferPool, PoolStats};
use crate::protocol::{DenseCore, DenseStorage, Side, SparseCore};
use crate::wire::{DenseView, SparseView};

/// Fixed cost to parse the Flare header and dispatch (cycles).
pub const PARSE_CYCLES: u64 = 32;

/// Cycles to aggregate `elems` elements of `T` (the paper's 4 cycles per
/// f32, SIMD-scaled for narrower types).
pub fn agg_cycles<T: Element>(elems: usize) -> u64 {
    (elems as f64 * T::CYCLES_PER_ELEM).ceil() as u64
}

/// Configuration of a dense allreduce handler on one switch.
#[derive(Debug, Clone)]
pub struct DenseHandlerConfig {
    /// Allreduce id this handler serves (packets of other flows are
    /// dispatched to other handlers by the parser).
    pub allreduce: u32,
    /// Children in the reduction tree (`P`).
    pub children: u16,
    /// Aggregation algorithm (paper Section 6; selected per Section 6.4).
    pub algorithm: AggKind,
    /// Keep completed block results for inspection by tests/examples.
    pub capture_results: bool,
}

/// One open dense block: the Section 6 design in use (a single buffer is
/// the one-buffer multi buffer), and where its aggregation buffer lives.
struct DenseBlock<T> {
    state: DenseBlockState<T>,
    /// The buffer lives in the L1 of the first cluster that touches the
    /// block; hierarchical FCFS keeps all later packets on that cluster,
    /// global FCFS does not and pays the remote-L1 penalty.
    home_cluster: usize,
}

enum DenseBlockState<T> {
    Multi(MultiBufferBlock<T>),
    Tree(TreeBlock<T>),
}

impl<T: Element> DenseStorage<T> for DenseBlock<T> {
    fn fold<O: ReduceOp<T>>(
        &mut self,
        side: &mut Side<'_, '_>,
        op: &O,
        block: u64,
        child: u16,
        vals: &DenseView<'_, T>,
        pool: &mut BufferPool<T>,
    ) -> InsertReport<T> {
        let ctx = side.hpu().expect("handler storage runs on PsPIN");
        let l_agg = agg_cycles::<T>(vals.len());
        let home = self.home_cluster;
        let remote_factor = ctx.remote_factor(home);
        let scaled = move |cycles: u64| cycles * remote_factor;
        match &mut self.state {
            DenseBlockState::Multi(blk) => {
                // Critical section around whichever of the B buffers frees
                // first (Sections 6.1 and 6.2).
                let buffers = 0..blk.buffers() as u32;
                let lock = ctx.acquire_any(buffers.clone().map(|i| (block, i)), scaled(l_agg));
                let r = blk.insert_from(op, lock.1 as usize, child, vals, pool);
                if r.merges > 0 {
                    // Final fold of the B−1 other buffers (Section 6.2),
                    // still inside the critical section.
                    ctx.extend_hold(lock, scaled(r.merges as u64 * l_agg));
                }
                if r.result.is_some() {
                    for i in buffers {
                        ctx.release_buffer((block, i));
                    }
                }
                r
            }
            DenseBlockState::Tree(blk) => {
                // Lock-free: DMA the packet into its fixed leaf buffer
                // (64 cycles vs 1024 for aggregation, Section 6.3), then
                // perform whatever merges both-ready subtrees allow.
                ctx.dma_copy();
                let r = blk.insert_from(op, child, vals, pool);
                if r.merges > 0 {
                    ctx.compute_on_buffer(r.merges as u64 * l_agg, home);
                }
                r
            }
        }
    }

    /// Only a tree keeps a skeleton worth reusing; the buffer designs hold
    /// nothing once their result is out.
    fn recycle(mut self) -> Option<Self> {
        let DenseBlockState::Tree(tree) = &mut self.state else {
            return None;
        };
        tree.reset();
        Some(self)
    }
}

/// Dense allreduce handler: one instance per (switch, allreduce).
pub struct DenseAllreduceHandler<T: Element, O> {
    cfg: DenseHandlerConfig,
    core: DenseCore<T, O, DenseBlock<T>>,
    results: Vec<(u64, Vec<T>)>,
}

impl<T: Element, O: ReduceOp<T>> DenseAllreduceHandler<T, O> {
    /// Create the handler (the network manager "installs" it).
    pub fn new(cfg: DenseHandlerConfig, op: O) -> Self {
        Self {
            core: DenseCore::new(cfg.children, op),
            cfg,
            results: Vec::new(),
        }
    }

    /// Enable (or disable) the loss-recovery replay cache — mirror of
    /// [`crate::switch_prog::FlareSwitch::with_loss_recovery`].
    pub fn with_loss_recovery(mut self, yes: bool) -> Self {
        self.core.table.set_loss_recovery(yes, None);
        self
    }

    /// Completed `(block, result)` pairs, in completion order.
    pub fn results(&self) -> &[(u64, Vec<T>)] {
        &self.results
    }

    /// Blocks currently holding working memory.
    pub fn open_blocks(&self) -> usize {
        self.core.table.open.len()
    }

    /// Aggregation-buffer pool counters (steady-state assertions).
    pub fn pool_stats(&self) -> PoolStats {
        self.core.stats().agg_pool
    }
}

impl<T: Element, O: ReduceOp<T>> PacketHandler for DenseAllreduceHandler<T, O> {
    fn process(&mut self, ctx: &mut HpuCtx<'_>, pkt: &PspinPacket) {
        ctx.compute(PARSE_CYCLES);
        let Ok((header, vals)) = DenseView::<T>::parse(&pkt.payload) else {
            return; // malformed: drop after parse
        };
        debug_assert_eq!(header.allreduce, self.cfg.allreduce);
        let (children, algorithm, home_cluster) =
            (self.cfg.children, self.cfg.algorithm, ctx.cluster);
        let open = |spare: Option<DenseBlock<T>>| DenseBlock {
            state: match (spare, algorithm) {
                (Some(shell), _) => shell.state,
                (None, AggKind::SingleBuffer) => {
                    DenseBlockState::Multi(MultiBufferBlock::new(children, 1))
                }
                (None, AggKind::MultiBuffer(b)) => {
                    DenseBlockState::Multi(MultiBufferBlock::new(children, b))
                }
                (None, AggKind::Tree) => DenseBlockState::Tree(TreeBlock::new(children)),
            },
            home_cluster,
        };
        let allreduce = self.cfg.allreduce;
        let capture = self.cfg.capture_results.then_some(&mut self.results);
        self.core.on_contrib(
            &mut Side::Hpu { ctx, allreduce },
            pkt.block,
            &header,
            &vals,
            open,
            capture,
        );
    }
}

/// Storage choice for sparse aggregation (paper Section 7: hash tables in
/// leaf switches, arrays at the root where data has densified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseStorageKind {
    /// Direct-mapped hash of `slots` buckets with a `spill_cap` spill buffer.
    Hash {
        /// Bucket count.
        slots: usize,
        /// Spill-buffer capacity in elements.
        spill_cap: usize,
    },
    /// Dense array over a block span of `span` elements.
    Array {
        /// Block span in elements.
        span: usize,
    },
}

/// Configuration of a sparse allreduce handler.
#[derive(Debug, Clone)]
pub struct SparseHandlerConfig {
    /// Allreduce id.
    pub allreduce: u32,
    /// Children in the reduction tree.
    pub children: u16,
    /// Storage backend.
    pub storage: SparseStorageKind,
    /// Max (index, value) pairs per emitted packet (MTU-derived).
    pub pairs_per_packet: usize,
    /// Keep completed results for inspection.
    pub capture_results: bool,
}

/// Sparse allreduce handler: one instance per (switch, allreduce).
pub struct SparseAllreduceHandler<T: Element, O> {
    cfg: SparseHandlerConfig,
    core: SparseCore<T, O>,
    results: Vec<(u64, Vec<(u32, T)>)>,
}

impl<T: Element, O: ReduceOp<T>> SparseAllreduceHandler<T, O> {
    /// Create the handler.
    pub fn new(cfg: SparseHandlerConfig, op: O) -> Self {
        Self {
            core: SparseCore::new(cfg.children, op, cfg.storage, cfg.pairs_per_packet),
            cfg,
            results: Vec::new(),
        }
    }

    /// Enable (or disable) the loss-recovery replay cache — mirror of
    /// [`crate::switch_prog::FlareSwitch::with_loss_recovery`].
    pub fn with_loss_recovery(mut self, yes: bool) -> Self {
        self.core.table.set_loss_recovery(yes, None);
        self
    }

    /// Pair-batch pool counters (steady-state assertions).
    pub fn pool_stats(&self) -> PoolStats {
        self.core.stats().agg_pool
    }

    /// Completed `(block, pairs)` results in completion order.
    pub fn results(&self) -> &[(u64, Vec<(u32, T)>)] {
        &self.results
    }

    /// Total elements forwarded unaggregated due to spill flushes — the
    /// source of the paper's Figure 14 "extra traffic".
    pub fn spilled_elems(&self) -> u64 {
        self.core.spilled_elems
    }
}

impl<T: Element, O: ReduceOp<T>> PacketHandler for SparseAllreduceHandler<T, O> {
    fn process(&mut self, ctx: &mut HpuCtx<'_>, pkt: &PspinPacket) {
        ctx.compute(PARSE_CYCLES);
        let Ok((header, pairs)) = SparseView::<T>::parse(&pkt.payload) else {
            return;
        };
        debug_assert_eq!(header.allreduce, self.cfg.allreduce);
        let allreduce = self.cfg.allreduce;
        // Captured results keep their buffer (test/inspection mode); the
        // pool is replenished by the non-capturing paths.
        let capture = self.cfg.capture_results.then_some(&mut self.results);
        self.core.on_contrib(
            &mut Side::Hpu { ctx, allreduce },
            pkt.block,
            &header,
            &pairs,
            capture,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{golden_reduce, Sum};
    use crate::wire::{decode_sparse, encode_dense, encode_sparse, Header, PacketKind};
    use bytes::Bytes;
    use flare_pspin::engine::run_trace;
    use flare_pspin::{ArrivalTrace, PspinConfig, SchedulingPolicy, StaggerMode, TraceConfig};

    fn contrib_payload<T: Element>(allreduce: u32, block: u64, child: u16, vals: &[T]) -> Bytes {
        let h = Header {
            allreduce,
            block: block as u32,
            child,
            kind: PacketKind::DenseContrib,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        encode_dense(h, vals)
    }

    fn small_cfg() -> PspinConfig {
        PspinConfig {
            params: flare_model::SwitchParams {
                clusters: 2,
                cores_per_cluster: 4,
                ..flare_model::SwitchParams::paper()
            },
            policy: SchedulingPolicy::Hierarchical { subset_size: 4 },
            ..PspinConfig::paper()
        }
    }

    fn run_dense(algorithm: AggKind, children: u16, blocks: u64) -> (Vec<Vec<i32>>, Vec<Vec<i32>>) {
        // Build per-child data: child c's block b = [c+b, c+b+1, ...].
        let n = 8usize;
        let data: Vec<Vec<Vec<i32>>> = (0..children as usize)
            .map(|c| {
                (0..blocks)
                    .map(|b| {
                        (0..n)
                            .map(|i| (c as i32) * 10 + b as i32 + i as i32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let trace_cfg = TraceConfig {
            flow: 1,
            children: children as usize,
            blocks,
            header_bytes: 0,
            delta: 4,
            stagger: StaggerMode::None,
            exponential_jitter: false,
            seed: 3,
        };
        let arrivals = ArrivalTrace::generate(&trace_cfg, |c, b| {
            contrib_payload(1, b, c, &data[c as usize][b as usize])
        });
        let handler = DenseAllreduceHandler::new(
            DenseHandlerConfig {
                allreduce: 1,
                children,
                algorithm,
                capture_results: true,
            },
            Sum,
        );
        let (report, engine) = run_trace(small_cfg(), handler, arrivals, true);
        assert_eq!(report.drops, 0);
        assert_eq!(report.blocks_completed, blocks);
        let mut results: Vec<(u64, Vec<i32>)> = engine.handler().results().to_vec();
        results.sort_by_key(|&(b, _)| b);
        let got: Vec<Vec<i32>> = results.into_iter().map(|(_, v)| v).collect();
        let want: Vec<Vec<i32>> = (0..blocks)
            .map(|b| {
                let per_host: Vec<Vec<i32>> = (0..children as usize)
                    .map(|c| data[c][b as usize].clone())
                    .collect();
                golden_reduce(&Sum, &per_host)
            })
            .collect();
        (got, want)
    }

    #[test]
    fn dense_single_buffer_end_to_end() {
        let (got, want) = run_dense(AggKind::SingleBuffer, 6, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn dense_multi_buffer_end_to_end() {
        let (got, want) = run_dense(AggKind::MultiBuffer(3), 6, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn dense_tree_end_to_end() {
        let (got, want) = run_dense(AggKind::Tree, 6, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn dense_handler_releases_all_memory() {
        let (_, _) = run_dense(AggKind::Tree, 5, 3);
        // run_dense asserts completion; a fresh run checking the report:
        let n = 4usize;
        let trace_cfg = TraceConfig {
            flow: 1,
            children: 4,
            blocks: 2,
            header_bytes: 0,
            delta: 4,
            stagger: StaggerMode::None,
            exponential_jitter: false,
            seed: 3,
        };
        let arrivals = ArrivalTrace::generate(&trace_cfg, |c, b| {
            contrib_payload(1, b, c, &vec![c as i32; n])
        });
        let handler: DenseAllreduceHandler<i32, Sum> = DenseAllreduceHandler::new(
            DenseHandlerConfig {
                allreduce: 1,
                children: 4,
                algorithm: AggKind::MultiBuffer(2),
                capture_results: false,
            },
            Sum,
        );
        let (report, engine) = run_trace(small_cfg(), handler, arrivals, false);
        assert_eq!(engine.handler().open_blocks(), 0);
        assert!(report.working_mem_peak > 0);
    }

    #[test]
    fn tree_handler_emits_exactly_one_result_per_block() {
        let n = 8usize;
        let trace_cfg = TraceConfig {
            flow: 1,
            children: 7,
            blocks: 5,
            header_bytes: 0,
            delta: 2,
            stagger: StaggerMode::Full,
            exponential_jitter: true,
            seed: 11,
        };
        let arrivals = ArrivalTrace::generate(&trace_cfg, |c, b| {
            contrib_payload(1, b, c, &vec![(c + b as u16) as i32; n])
        });
        let handler: DenseAllreduceHandler<i32, Sum> = DenseAllreduceHandler::new(
            DenseHandlerConfig {
                allreduce: 1,
                children: 7,
                algorithm: AggKind::Tree,
                capture_results: false,
            },
            Sum,
        );
        let (report, _) = run_trace(small_cfg(), handler, arrivals, true);
        assert_eq!(report.packets_out, 5);
    }

    fn sparse_contrib<T: Element>(
        allreduce: u32,
        block: u64,
        child: u16,
        pairs: &[(u32, T)],
        last: bool,
        count: u16,
    ) -> Bytes {
        let h = Header {
            allreduce,
            block: block as u32,
            child,
            kind: PacketKind::SparseContrib,
            last_shard: last,
            shard_count: count,
            elem_count: 0,
        };
        encode_sparse(h, pairs)
    }

    #[test]
    fn sparse_hash_end_to_end_with_shards_and_empty_blocks() {
        // 3 children, 1 block; child 0 sends two shards, child 1 one shard,
        // child 2 an empty block.
        let mut arrivals = Vec::new();
        let mk = |t: u64, payload: Bytes| (t, PspinPacket::new(0, payload));
        arrivals.push(mk(
            0,
            sparse_contrib::<f32>(1, 0, 0, &[(1, 1.0), (5, 2.0)], false, 0),
        ));
        arrivals.push(mk(10, sparse_contrib::<f32>(1, 0, 0, &[(9, 4.0)], true, 2)));
        arrivals.push(mk(
            20,
            sparse_contrib::<f32>(1, 0, 1, &[(5, 10.0)], true, 1),
        ));
        arrivals.push(mk(30, sparse_contrib::<f32>(1, 0, 2, &[], true, 1)));
        let handler: SparseAllreduceHandler<f32, Sum> = SparseAllreduceHandler::new(
            SparseHandlerConfig {
                allreduce: 1,
                children: 3,
                storage: SparseStorageKind::Hash {
                    slots: 64,
                    spill_cap: 16,
                },
                pairs_per_packet: 128,
                capture_results: true,
            },
            Sum,
        );
        let (report, engine) = run_trace(small_cfg(), handler, arrivals, true);
        assert_eq!(report.blocks_completed, 1);
        let results = engine.handler().results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1, vec![(1, 1.0), (5, 12.0), (9, 4.0)]);
    }

    #[test]
    fn sparse_array_end_to_end() {
        let mut arrivals = Vec::new();
        let mk = |t: u64, payload: Bytes| (t, PspinPacket::new(0, payload));
        arrivals.push(mk(
            0,
            sparse_contrib::<i32>(1, 0, 0, &[(0, 5), (100, 7)], true, 1),
        ));
        arrivals.push(mk(5, sparse_contrib::<i32>(1, 0, 1, &[(100, 3)], true, 1)));
        let handler = SparseAllreduceHandler::new(
            SparseHandlerConfig {
                allreduce: 1,
                children: 2,
                storage: SparseStorageKind::Array { span: 256 },
                pairs_per_packet: 128,
                capture_results: true,
            },
            Sum,
        );
        let (_, engine) = run_trace(small_cfg(), handler, arrivals, true);
        assert_eq!(engine.handler().results()[0].1, vec![(0, 5), (100, 10)]);
    }

    #[test]
    fn an_out_of_span_pair_at_an_array_switch_is_skipped() {
        // Index 16 is outside a 16-index span: the store would panic on it.
        // The in-span pairs of the same shard still fold.
        let mk = |t: u64, payload: Bytes| (t, PspinPacket::new(0, payload));
        let arrivals = vec![
            mk(
                0,
                sparse_contrib::<i32>(1, 0, 0, &[(3, 5), (16, 7), (15, 1)], true, 1),
            ),
            mk(5, sparse_contrib::<i32>(1, 0, 1, &[(3, 2)], true, 1)),
        ];
        let handler = SparseAllreduceHandler::new(
            SparseHandlerConfig {
                allreduce: 1,
                children: 2,
                storage: SparseStorageKind::Array { span: 16 },
                pairs_per_packet: 128,
                capture_results: true,
            },
            Sum,
        );
        let (report, engine) = run_trace(small_cfg(), handler, arrivals, true);
        assert_eq!(report.blocks_completed, 1);
        assert_eq!(engine.handler().results()[0].1, vec![(3, 7), (15, 1)]);
    }

    #[test]
    fn sparse_hash_spills_emit_extra_traffic() {
        // Tiny table forces collisions; the spill flush must show up as
        // extra emitted shards (at the root every shard is a result) while
        // every element still reaches the output exactly once.
        let pairs: Vec<(u32, i32)> = (0..32).map(|i| (i, 1)).collect();
        let arrivals = vec![(
            0u64,
            PspinPacket::new(0, sparse_contrib(1, 0, 0, &pairs, true, 1)),
        )];
        let handler: SparseAllreduceHandler<i32, Sum> = SparseAllreduceHandler::new(
            SparseHandlerConfig {
                allreduce: 1,
                children: 1,
                storage: SparseStorageKind::Hash {
                    slots: 4,
                    spill_cap: 4,
                },
                pairs_per_packet: 128,
                capture_results: true,
            },
            Sum,
        );
        let (_, engine) = run_trace(small_cfg(), handler, arrivals, true);
        let h = engine.handler();
        assert!(h.spilled_elems() > 0, "collisions must spill");
        // Spills + final result together cover all 32 indexes.
        let mut seen: Vec<u32> = h.results()[0].1.iter().map(|&(i, _)| i).collect();
        for (_, pkt) in engine.emissions() {
            let (hd, pairs) = decode_sparse::<i32>(&pkt.payload).unwrap();
            assert_eq!(hd.kind, PacketKind::SparseResult);
            if !hd.last_shard {
                seen.extend(pairs.iter().map(|&(i, _)| i));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn agg_cycles_scales_with_simd_width() {
        assert_eq!(agg_cycles::<f32>(256), 1024);
        assert_eq!(agg_cycles::<i16>(256), 512);
        assert_eq!(agg_cycles::<i8>(256), 256);
    }
}
