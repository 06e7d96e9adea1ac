//! Isolated per-layer probes: each drives one layer's public API on a fixed,
//! stated shape and reports a unit cost (ns per operation, Gbit/s), so a
//! change to that layer shows here whatever the workloads do with it.
//!
//! A unit cost is not a share of a workload's time. How often a run performs
//! each operation, and how deep its event queue is, cannot be read from
//! outside the library; attributing `wall_s` to layers needs spans inside
//! the crates (ROADMAP item 1(a)). Where a probe needs a volume it takes the
//! counts the run reported (events, packets, makespan), never a derived one.

use std::hint::black_box;
use std::time::Instant;

use flare_baselines::ring::RingHost;
use flare_core::dense::TreeBlock;
use flare_core::host::result_sink;
use flare_core::op::{golden_reduce, Sum};
use flare_core::pool::{BlockSlab, BufferPool};
use flare_core::session::{SparsePolicy, Tuning};
use flare_core::sparse::{HashInsert, SparseArrayStore, SparseHashStore};
use flare_core::wire::{encode_dense_into, encode_sparse_into, DenseView, Header, PacketKind};
use flare_des::rng::splitmix64;
use flare_des::EventQueue;
use flare_net::{HpuParams, NetSim, SwitchCompute};

use crate::stats::median;
use crate::workloads::Shape;

/// Packets the wire and aggregation probes push through: 64 MiB of payload,
/// tens of milliseconds a probe.
const PROBE_PACKETS: u64 = 1 << 16;
/// Events the hold model keeps pending. A run's real depth cannot be read
/// from outside the simulator, so this is part of the probe's definition and
/// its result is the queue's unit cost at that depth, not a share of a run.
const QUEUE_PENDING: u64 = 1024;
/// Pairs per batch of the sparse store probes: eight full packets.
const SPARSE_BATCH: usize = 1024;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// A cheap deterministic generator for probe inputs (not for workloads).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
}

fn header(kind: PacketKind, block: u32, child: u16) -> Header {
    Header {
        allreduce: 1,
        block,
        child,
        kind,
        last_shard: false,
        shard_count: 0,
        elem_count: 0,
    }
}

/// Hold model on [`EventQueue`]: [`QUEUE_PENDING`] events stay queued while
/// `events` times the earliest is popped and a new one scheduled, with
/// increments sized so the clock covers `makespan_ns` (both as the run
/// reported them). Returns host nanoseconds per pop-and-schedule.
pub fn queue_hold_ns(events: u64, makespan_ns: u64) -> f64 {
    let events = events.max(1);
    let mean = (makespan_ns * QUEUE_PENDING / events).max(1);
    let mut rng = Rng(events ^ makespan_ns);
    let mut q = EventQueue::<u64>::new();
    for i in 0..QUEUE_PENDING {
        q.schedule_at(rng.next() % (2 * mean), i);
    }
    let ((), secs) = timed(|| {
        for _ in 0..events {
            let (t, ev) = q.pop().expect("hold model keeps the queue full");
            q.schedule_at(t + 1 + rng.next() % (2 * mean), ev);
        }
    });
    black_box(q.len());
    secs * 1e9 / events as f64
}

/// Host nanoseconds per `SwitchCompute::execute` on `HpuParams::paper()`:
/// `handlers` executions of 1 KiB packets, `children` per block, spaced
/// evenly over `makespan_ns`.
pub fn hpu_execute_ns(handlers: u64, children: u64, makespan_ns: u64) -> f64 {
    let handlers = handlers.max(1);
    let mut compute = SwitchCompute::new(HpuParams::paper());
    let ((), secs) = timed(|| {
        for i in 0..handlers {
            let now = i * makespan_ns / handlers;
            black_box(compute.execute(now, i / children.max(1), 1040));
        }
    });
    secs * 1e9 / handlers as f64
}

/// Median seconds of `Topology::build_routing` and `NetSim::new` on `shape`.
pub fn routing_and_sim(shape: Shape) -> (f64, f64) {
    let mut routing = Vec::new();
    let mut sim_new = Vec::new();
    for _ in 0..5 {
        let (topo, _hosts) = shape.build();
        let (r, secs) = timed(|| topo.build_routing());
        black_box(&r);
        routing.push(secs);
        let (sim, secs) = timed(|| NetSim::new(topo, 1));
        black_box(sim.topology().node_count());
        sim_new.push(secs);
    }
    (median(&routing), median(&sim_new))
}

/// What the host-based ring baseline measured.
pub struct RingProbe {
    /// Host seconds of `NetSim::run`.
    pub wall_s: f64,
    /// Simulated completion time, ns.
    pub makespan_ns: u64,
    /// Bytes over links.
    pub link_bytes: u64,
    /// Packets over links.
    pub link_packets: u64,
    /// Rank 0's result equals the reference.
    pub correct: bool,
}

/// Ring allreduce of `elems` f32 per host on `shape` with no switch
/// program installed: plain forwarding, and the paper's Fig. 15 comparison.
pub fn ring(shape: Shape, elems: usize) -> RingProbe {
    let (topo, hosts) = shape.build();
    let inputs: Vec<Vec<f32>> = (0..hosts.len())
        .map(|r| (0..elems).map(|i| ((i + r) % 8) as f32).collect())
        .collect();
    let golden = golden_reduce(&Sum, &inputs);
    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, (&h, data)) in hosts.iter().zip(inputs).enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let host = RingHost::new(rank, hosts.clone(), 1, Sum, data, 8192, sink);
        sim.install_host(h, Box::new(host));
    }
    let (report, wall_s) = timed(|| sim.run(None));
    let first = sinks[0].lock().expect("sink lock").take();
    RingProbe {
        wall_s,
        makespan_ns: report.last_done.unwrap_or(report.makespan),
        link_bytes: report.total_link_bytes,
        link_packets: report.total_link_packets,
        correct: first.is_some_and(|v| v == golden),
    }
}

/// Unit rates of the dense datapath, Gbit/s of payload.
pub struct DenseProbe {
    /// `encode_dense_into`.
    pub encode_gbps: f64,
    /// `DenseView::parse` and `fold_with`.
    pub fold_gbps: f64,
    /// `DenseView::parse` and `TreeBlock::insert_from`.
    pub insert_gbps: f64,
}

/// [`PROBE_PACKETS`] full packets (`Tuning::default().elems_per_packet` f32
/// each) through `wire` and `dense`, with tree blocks of `children` inputs.
pub fn dense(children: u16) -> DenseProbe {
    let elems = Tuning::default().elems_per_packet;
    let vals: Vec<f32> = (0..elems).map(|i| (i % 8) as f32).collect();
    let gbit = (PROBE_PACKETS * elems as u64 * 4 * 8) as f64 / 1e9;
    let mut scratch = Vec::new();

    let ((), encode_s) = timed(|| {
        for i in 0..PROBE_PACKETS {
            let h = header(PacketKind::DenseContrib, i as u32, 0);
            encode_dense_into(h, black_box(&vals), &mut scratch);
            black_box(scratch.len());
        }
    });

    let packets: Vec<Vec<u8>> = (0..children)
        .map(|c| {
            let mut out = Vec::new();
            encode_dense_into(header(PacketKind::DenseContrib, 0, c), &vals, &mut out);
            out
        })
        .collect();

    let mut landing = vec![0.0f32; elems];
    let ((), fold_s) = timed(|| {
        for _ in 0..PROBE_PACKETS {
            let (_, view) = DenseView::<f32>::parse(black_box(&packets[0])).expect("probe packet");
            view.fold_with(&mut landing, |a, b| a + b);
        }
        black_box(landing[0]);
    });

    let mut pool = BufferPool::<f32>::new();
    let mut block = TreeBlock::<f32>::new(children);
    let ((), insert_s) = timed(|| {
        for _ in 0..PROBE_PACKETS / u64::from(children) {
            block.reset();
            for c in 0..children {
                let (_, view) =
                    DenseView::<f32>::parse(black_box(&packets[c as usize])).expect("packet");
                if let Some(result) = block.insert_from(&Sum, c, &view, &mut pool).result {
                    pool.put(result);
                }
            }
        }
    });
    let inserted = PROBE_PACKETS / u64::from(children) * u64::from(children);

    DenseProbe {
        encode_gbps: gbit / encode_s.max(1e-12),
        fold_gbps: gbit / fold_s.max(1e-12),
        insert_gbps: gbit * inserted as f64 / PROBE_PACKETS as f64 / insert_s.max(1e-12),
    }
}

/// Unit costs of the sparse datapath at the sizes the session wires sparse
/// stores and packets with (`SparsePolicy::default`, `Tuning::default`).
pub struct SparseProbe {
    /// `encode_sparse_into` rate on full packets, Gbit/s of payload.
    pub encode_gbps: f64,
    /// Host nanoseconds per pair inserted into `SparseHashStore`.
    pub hash_insert_ns: f64,
    /// Host nanoseconds per pair inserted into `SparseArrayStore`.
    pub array_insert_ns: f64,
    /// Share of the probe's hash inserts that spilled on a collision.
    pub spill_ratio: f64,
}

/// Full sparse packets through `encode_sparse_into`, and batches of
/// [`SPARSE_BATCH`] pairs at uniformly random indices of one block's span
/// through each store, drained after every batch.
pub fn sparse() -> SparseProbe {
    let policy = SparsePolicy::default();
    let per_packet = Tuning::default().pairs_per_packet;
    let mut rng = Rng(0x5EED);
    let mut array = SparseArrayStore::<f32>::new(&Sum, policy.span);
    let mut hash = SparseHashStore::<f32>::new(policy.hash_slots, policy.spill_cap);
    let mut drained: Vec<(u32, f32)> = Vec::new();

    let full: Vec<(u32, f32)> = (0..per_packet as u32).map(|i| (i, 1.0)).collect();
    let mut buf = Vec::new();
    let ((), encode_s) = timed(|| {
        for b in 0..PROBE_PACKETS {
            let h = header(PacketKind::SparseContrib, b as u32, 0);
            encode_sparse_into(h, black_box(&full), &mut buf);
            black_box(buf.len());
        }
    });
    let batch: Vec<(u32, f32)> = (0..SPARSE_BATCH)
        .map(|_| ((rng.next() % policy.span as u64) as u32, 1.0))
        .collect();
    let before = hash.stats();
    let ((), hash_s) = timed(|| {
        for _ in 0..1000 {
            for &(i, v) in &batch {
                if let HashInsert::SpillFlush(spill) = hash.insert(&Sum, i, v) {
                    hash.recycle_spill(spill);
                }
            }
            drained.clear();
            hash.drain_into(&mut drained);
        }
    });
    let spilled = hash.stats().spilled - before.spilled;
    let ((), array_s) = timed(|| {
        for _ in 0..1000 {
            for &(i, v) in &batch {
                array.insert(&Sum, i, v);
            }
            drained.clear();
            array.drain_into(&mut drained);
        }
    });

    let inserts = 1000.0 * batch.len() as f64;
    SparseProbe {
        encode_gbps: (PROBE_PACKETS * per_packet as u64 * 8 * 8) as f64 / 1e9 / encode_s.max(1e-12),
        hash_insert_ns: hash_s * 1e9 / inserts,
        array_insert_ns: array_s * 1e9 / inserts,
        spill_ratio: spilled as f64 / inserts,
    }
}

/// Host nanoseconds per `BufferPool` get+put pair and per `BlockSlab`
/// open–look-up–close cycle over a sliding window of 64 open blocks.
pub fn pool() -> (f64, f64) {
    let rounds = 1_000_000u64;
    let elems = Tuning::default().elems_per_packet;
    let mut pool = BufferPool::<f32>::new();
    let ((), pool_s) = timed(|| {
        for _ in 0..rounds {
            let v = pool.get(elems);
            pool.put(black_box(v));
        }
    });
    let mut slab = BlockSlab::<u64>::new(BlockSlab::<u64>::DEFAULT_SLOTS);
    let ((), slab_s) = timed(|| {
        for b in 0..rounds {
            slab.get_or_insert_with(b, || b);
            if let Some(v) = slab.get_mut(b) {
                *v += 1;
            }
            if b >= 64 {
                black_box(slab.remove(b - 64));
            }
        }
    });
    (pool_s * 1e9 / rounds as f64, slab_s * 1e9 / rounds as f64)
}
