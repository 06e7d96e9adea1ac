//! Steady-state zero-allocation assertions for the switch datapath.
//!
//! The paper's premise is that the switch touches each byte as few times
//! as possible; this suite proves the simulator's per-packet path does
//! the same — by counter, not by inspection:
//!
//! * the allocator itself is counted: this binary installs a counting
//!   `#[global_allocator]`, and once one run has warmed the free lists an
//!   identical run makes next to no allocator calls per link packet,
//!   whichever node sends or drops a payload,
//! * aggregation buffers come from the program's [`BufferPool`] free-list
//!   (pool misses stay bounded by the in-flight window, independent of
//!   how many packets flow),
//! * payloads are encoded into blocks of `vendor/bytes`' free lists, whose
//!   retained bytes stop growing once warm,
//! * open-block lookups hit the direct-mapped slab slot, never a
//!   `HashMap` probe,
//! * a new block's state requests no more memory than the switch model
//!   charges for it, plus its bitmaps,
//! * a lossless sparse allreduce builds one result vector, whatever the
//!   number of ranks that read it.
//!
//! (In two test names, the "shell" of a `Bytes` is the heap block behind
//! it: they assert that no packet costs an allocation of one.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use flare::core::dense::TreeBlock;
use flare::core::handlers::SparseStorageKind;
use flare::core::host::{DenseFlareHost, HostConfig, RankResult, SharedResults, SparseFlareHost};
use flare::core::op::Sum;
use flare::core::session::FlareSession;
use flare::core::sparse::SparseHashStore;
use flare::core::switch_prog::{FlareSwitch, TreePlacement};
use flare::net::{LinkSpec, NetReport, NetSim, NodeId, SwitchModel, Topology};

/// Counts the calling thread's calls into the allocator (`benchmark/`'s
/// counting allocator, per thread: the tests of this binary run on
/// parallel threads, and `NetSim::run` stays on its caller's).
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator allocates nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Calls for [`LARGE`] bytes or more, and the bytes they requested.
    static LARGE_CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// What counts as a large request: more than anything a run over a few
/// hosts allocates but a vector of a whole large domain.
const LARGE: usize = 1 << 20;

fn count(bytes: usize) {
    // Ignored once the thread's locals are gone (allocations during exit).
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
    if bytes >= LARGE {
        let _ = LARGE_CALLS.try_with(|l| l.set((l.get().0 + 1, l.get().1 + bytes as u64)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// What `f` returned, with the allocator calls it made on this thread and
/// the bytes they requested.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        CALLS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
    )
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: usize = 512;
const ELEMS_PER_PACKET: usize = 256;
const WINDOW: usize = 16;

fn host_config(sw: NodeId, rank: usize) -> HostConfig {
    HostConfig {
        allreduce: 1,
        leaf: sw,
        child_index: rank as u16,
        window: WINDOW,
        stagger_offset: 0,
        retransmit_after: None,
        iteration: 0,
    }
}

fn star_dense(hosts: usize, blocks: usize) -> (NetSim, NodeId, Vec<NodeId>) {
    let (topo, sw, hs) = Topology::star(hosts, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 7);
    let place = TreePlacement {
        allreduce: 1,
        parent: None,
        children: hs.clone(),
        my_child_index: 0,
    };
    sim.install_switch(
        sw,
        Box::new(FlareSwitch::<f32, Sum>::dense(place, Sum)),
        SwitchModel::calibrated(),
    );
    for (rank, &h) in hs.iter().enumerate() {
        sim.install_host(
            h,
            Box::new(DenseFlareHost::new(
                host_config(sw, rank),
                ELEMS_PER_PACKET,
                vec![(rank + 1) as f32; blocks * ELEMS_PER_PACKET],
            )),
        );
    }
    (sim, sw, hs)
}

const SPAN: usize = 256;
const PAIRS_PER_PACKET: usize = 128;

/// ~3 % density, striped by rank.
fn star_sparse(hosts: usize, blocks: usize) -> (NetSim, NodeId, Vec<NodeId>) {
    let total = SPAN * blocks;
    let (topo, sw, hs) = Topology::star(hosts, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 11);
    let place = TreePlacement {
        allreduce: 1,
        parent: None,
        children: hs.clone(),
        my_child_index: 0,
    };
    sim.install_switch(
        sw,
        Box::new(FlareSwitch::<f32, Sum>::sparse(
            place,
            Sum,
            SparseStorageKind::Array { span: SPAN },
            PAIRS_PER_PACKET,
        )),
        SwitchModel::calibrated(),
    );
    for (rank, &h) in hs.iter().enumerate() {
        let pairs: Vec<(u32, f32)> = (0..total / 32)
            .map(|i| (((i * 32 + rank) % total) as u32, 1.0))
            .collect();
        sim.install_host(
            h,
            Box::new(SparseFlareHost::new(
                host_config(sw, rank),
                Sum,
                total,
                SPAN,
                PAIRS_PER_PACKET,
                pairs,
            )),
        );
    }
    (sim, sw, hs)
}

/// The results of the Flare hosts on `hosts`, in order, taken back from
/// `sim` after a run (`None` for a host that did not finish).
fn results(sim: &mut NetSim, hosts: &[NodeId]) -> Vec<Option<RankResult<f32>>> {
    let mut shared = SharedResults::default();
    let mut result = |h: NodeId| {
        let host: Box<dyn Any> = sim.take_host(h).expect("installed");
        match host.downcast::<DenseFlareHost<f32>>() {
            Ok(mut dense) => dense.take_result(&mut shared),
            Err(host) => {
                let sparse = host.downcast::<SparseFlareHost<f32, Sum>>();
                sparse.expect("a Flare host").take_result(&mut shared)
            }
        }
    };
    hosts.iter().map(|&h| result(h)).collect()
}

/// Run `sim` to completion, counting the allocator calls of the run alone
/// (not of building the topology, the programs or the inputs, nor of
/// reading the results).
fn run_counted(mut sim: NetSim, hosts: &[NodeId]) -> (NetReport, u64) {
    let before = CALLS.with(Cell::get);
    let report = sim.run(None);
    let calls = CALLS.with(Cell::get) - before;
    assert!(report.last_done.is_some(), "allreduce must complete");
    let results = results(&mut sim, hosts);
    assert!(results.iter().all(Option::is_some), "every host finished");
    (report, calls)
}

#[test]
fn dense_steady_state_allocates_zero_payload_buffers_per_packet() {
    let hosts = 8;
    let (mut sim, sw, nodes) = star_dense(hosts, BLOCKS);
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "allreduce must complete");
    for (rank, got) in results(&mut sim, &nodes).into_iter().enumerate() {
        let got = got.expect("host finished");
        let want = (hosts * (hosts + 1) / 2) as f32;
        assert_eq!(got.len(), BLOCKS * ELEMS_PER_PACKET);
        assert!(got.iter().all(|&v| v == want), "rank {rank} result wrong");
    }

    let prog: Box<dyn Any> = sim.take_switch(sw).expect("program installed");
    let prog = prog
        .downcast::<FlareSwitch<f32, Sum>>()
        .expect("concrete type");
    let stats = prog.stats();
    let packets = (hosts * BLOCKS) as u64;

    // A contribution takes an aggregation buffer unless its sibling's
    // partial is waiting, when it folds straight into that one: each leaf
    // pair's first arrival takes one...
    assert!(
        stats.agg_pool.gets >= packets / 2,
        "gets {} < half the packets {packets}",
        stats.agg_pool.gets
    );
    // ...but allocations happened only while the pool warmed up: the miss
    // count is bounded by the in-flight window, NOT by the packet count.
    let warmup = (2 * WINDOW * (hosts + 1)) as u64;
    assert!(
        stats.agg_pool.misses() <= warmup,
        "agg misses {} exceed warm-up bound {warmup} (pool reuse broken)",
        stats.agg_pool.misses()
    );
    assert!(
        stats.agg_pool.hits >= stats.agg_pool.gets - warmup,
        "steady-state gets must be free-list hits: {:?}",
        stats.agg_pool
    );

    // One result encode per block, each into a block of the payload free
    // lists; a slab carve serves 32 of them, so misses are rare whatever
    // this thread did before.
    assert_eq!(stats.byte_pool.gets, BLOCKS as u64);
    assert!(
        stats.byte_pool.misses() <= stats.byte_pool.gets / 16,
        "result encodes must be served by the free lists: {:?}",
        stats.byte_pool
    );

    // Block state never fell back to a HashMap probe.
    assert_eq!(stats.slab.collisions, 0, "windowed ids must map directly");
    assert!(stats.slab.direct >= packets);
}

/// After one warm-up run, an identical run may call the allocator at most
/// once per hundred link packets, and must leave the payload free lists
/// retaining what they did.
fn assert_warm_run_is_allocation_free(build: impl Fn() -> (NetSim, Vec<NodeId>)) {
    let (sim, hosts) = build();
    run_counted(sim, &hosts);
    let retained = bytes::pool_stats().retained_bytes;
    for round in 1..=2 {
        let (sim, hosts) = build();
        let (report, calls) = run_counted(sim, &hosts);
        let packets = report.total_link_packets;
        assert!(
            calls * 100 <= packets,
            "round {round}: {calls} allocator calls for {packets} link packets"
        );
        assert_eq!(
            bytes::pool_stats().retained_bytes,
            retained,
            "round {round}: the free lists grew after the warm-up"
        );
    }
}

#[test]
fn dense_steady_state_allocates_zero_bytes_shells_per_packet() {
    // Contributions are the packets no node-owned pool can serve: their
    // buffers leave the host for good, and only the result multicast's last
    // receiver ever got one back (0.49 allocator calls per packet).
    assert_warm_run_is_allocation_free(|| {
        let (sim, _, hosts) = star_dense(8, 4 * BLOCKS);
        (sim, hosts)
    });
}

#[test]
fn sparse_steady_state_makes_no_allocator_calls_per_packet() {
    assert_warm_run_is_allocation_free(|| {
        let (sim, _, hosts) = star_sparse(8, 4 * BLOCKS);
        (sim, hosts)
    });
}

#[test]
fn shell_allocations_do_not_scale_with_block_count() {
    // 4x the blocks must not mean 4x the allocator calls: what a warm run
    // still allocates (queue and window growth, the program's first
    // aggregation buffers) depends on the window, not the run length.
    let run = |blocks: usize| {
        let (sim, _, hosts) = star_dense(4, blocks);
        let (report, calls) = run_counted(sim, &hosts);
        (calls, report.total_link_packets)
    };
    run(512); // warm the free lists at the longer run's size
    let (calls_short, packets_short) = run(128);
    let (calls_long, packets_long) = run(512);
    assert_eq!(packets_long, 4 * packets_short, "4x blocks => 4x packets");
    assert!(
        calls_long <= calls_short + 8,
        "allocator calls grew with run length: {calls_short} -> {calls_long}"
    );
}

#[test]
fn dense_pool_misses_do_not_scale_with_block_count() {
    // Run the same topology with 4x the blocks: miss counts must stay in
    // the same warm-up envelope (they depend on the window, not the run
    // length) — the definition of "allocation-free in steady state".
    let run = |blocks: usize| {
        let (mut sim, sw, hosts) = star_dense(4, blocks);
        sim.run(None);
        let results = results(&mut sim, &hosts);
        assert!(results.iter().all(Option::is_some), "completed");
        let prog: Box<dyn Any> = sim.take_switch(sw).unwrap();
        let stats = prog.downcast::<FlareSwitch<f32, Sum>>().unwrap().stats();
        (stats.agg_pool.misses(), stats.agg_pool.gets)
    };
    let (misses_short, gets_short) = run(128);
    let (misses_long, gets_long) = run(512);
    assert!(gets_long >= 4 * gets_short, "4x blocks => 4x pool traffic");
    assert!(
        misses_long <= misses_short + 8,
        "misses grew with run length: {misses_short} -> {misses_long}"
    );
}

#[test]
fn sparse_program_reuses_pair_batches_and_reclaims_payloads() {
    let (hosts, blocks) = (6, 128);
    let (mut sim, sw, nodes) = star_sparse(hosts, blocks);
    sim.run(None);
    let results = results(&mut sim, &nodes);
    assert!(
        results.iter().all(Option::is_some),
        "sparse allreduce completed"
    );
    let prog: Box<dyn Any> = sim.take_switch(sw).unwrap();
    let stats = prog.downcast::<FlareSwitch<f32, Sum>>().unwrap().stats();
    assert!(stats.agg_pool.gets >= (hosts * blocks) as u64);
    let warmup = (2 * WINDOW * (hosts + 1)) as u64;
    assert!(
        stats.agg_pool.misses() <= warmup,
        "pair-batch misses {} exceed {warmup}",
        stats.agg_pool.misses()
    );
    // A dropped payload is on a free list for the next encode, which is
    // what the hits count.
    assert!(stats.byte_pool.gets >= blocks as u64);
    assert!(
        stats.byte_pool.misses() <= stats.byte_pool.gets / 16,
        "result shards must be served by the free lists: {:?}",
        stats.byte_pool
    );
    assert_eq!(stats.slab.collisions, 0);
}

#[test]
fn a_fresh_tree_block_allocates_only_its_bitmap() {
    // A block holds buffers only for partials waiting for their sibling,
    // so opening one on a 32-port switch costs one bitmap word.
    let (_block, calls, bytes) = counted(|| TreeBlock::<f32>::new(32));
    assert_eq!((calls, bytes), (1, 8));
}

#[test]
fn a_hash_store_requests_its_charged_memory_and_its_bitmap() {
    // Slots and spill capacity are what `memory_bytes` charges the switch
    // (8 B a pair); the occupancy bitmap adds one bit a slot.
    let (store, calls, bytes) = counted(|| SparseHashStore::<f32>::new(1024, 128));
    assert_eq!(calls, 3, "slots, bitmap, spill buffer");
    assert_eq!(bytes, store.memory_bytes() as u64 + 1024 / 8);
}

#[test]
fn a_lossless_sparse_allreduce_builds_one_result_for_every_rank() {
    // 8 ranks over a 1 Mi-element domain at ~1 % density: a vector of the
    // domain is 4 MiB, above every other request the run makes.
    let (hosts, total) = (8, 1 << 20);
    let (topo, _sw, _hs) = Topology::star(hosts, LinkSpec::hundred_gig());
    let mut session = FlareSession::new(topo);
    let pairs: Vec<Vec<(u32, f32)>> = (0..hosts)
        .map(|rank| {
            let pair = |i: usize| (((i * 97 + rank) % total) as u32, 1.0);
            (0..total / 100).map(pair).collect()
        })
        .collect();
    let before = LARGE_CALLS.with(Cell::get);
    let out = session.sparse_allreduce(total, pairs).run().expect("runs");
    let large = LARGE_CALLS.with(Cell::get);
    let (calls, bytes) = (large.0 - before.0, large.1 - before.1);
    let domain = (total * 4) as u64;
    assert_eq!((calls, bytes), (1, domain), "result storage for one domain");
    let first = out.rank(0).as_ptr();
    for (rank, result) in out.ranks().iter().enumerate() {
        assert!(
            std::ptr::eq(result.as_ptr(), first),
            "rank {rank} has its own"
        );
    }
    assert_eq!(
        out.rank(0).iter().sum::<f32>(),
        (hosts * (total / 100)) as f32
    );
}
