//! Edge cases across the stack: wide reduction trees (>64 children,
//! exercising multi-word bitmaps), f16 end-to-end, duplicate retransmitted
//! packets at the PsPIN layer, pass-through switch chains, ECMP spreading,
//! link-utilization telemetry, the block protocol's two sides (NetSim
//! switch programs, PsPIN handlers) fed the same packets, and malformed or
//! short packets that must be dropped rather than panic.

use bytes::{Bytes, BytesMut};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use flare::core::dense::TreeBlock;
use flare::core::dtype::F16;
use flare::core::handlers::{
    DenseAllreduceHandler, DenseHandlerConfig, SparseAllreduceHandler, SparseHandlerConfig,
    SparseStorageKind,
};
use flare::core::host::{DenseFlareHost, HostConfig, SharedResults};
use flare::core::manager::compute_reduction_tree;
use flare::core::session::FlareSession;
use flare::core::switch_prog::{FlareSwitch, TreePlacement};
use flare::core::wire::{encode_dense, encode_sparse, DenseView, Header, PacketKind, SparseView};
use flare::model::{AggKind, SwitchParams};
use flare::net::{
    HostCtx, HostProgram, LinkSpec, NetPacket, NetSim, NodeId, SwitchCtx, SwitchModel,
    SwitchProgram, Topology,
};
use flare::prelude::{golden_reduce, Sum};
use flare::pspin::engine::run_trace;
use flare::pspin::{PspinConfig, PspinPacket, SchedulingPolicy};

#[test]
fn tree_block_handles_more_than_64_children() {
    // ChildBitmap must span multiple words; the combining tree must pad a
    // non-power-of-two leaf count.
    let p = 100usize;
    let inputs: Vec<Vec<i64ish>> = Vec::new();
    drop(inputs);
    let data: Vec<Vec<i32>> = (0..p).map(|c| vec![c as i32; 7]).collect();
    let mut blk = TreeBlock::new(p as u16);
    let mut out = None;
    for (c, v) in data.iter().enumerate() {
        if let Some(r) = blk.insert(&Sum, c as u16, v).result {
            out = Some(r);
        }
    }
    assert_eq!(out.unwrap(), golden_reduce(&Sum, &data));
}

// A tiny type alias used above to exercise an unused-type path without
// pulling in more deps.
#[allow(non_camel_case_types)]
type i64ish = i64;

#[test]
fn f16_allreduce_end_to_end_on_the_network() {
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let n = 2048usize;
    let inputs: Vec<Vec<F16>> = (0..4)
        .map(|h| {
            (0..n)
                .map(|i| F16::from_f32((h * n + i) as f32 / 256.0))
                .collect()
        })
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session
        .allreduce(inputs)
        .reproducible(true) // tree: deterministic f16 rounding
        .run()
        .unwrap();
    assert_eq!(out.report.algorithm, AggKind::Tree);
    // Tree aggregation order differs from golden's host order, so f16
    // rounding may differ by 1 ulp; compare via f32 with tolerance.
    for (a, b) in out.rank(0).iter().zip(&want) {
        let (af, bf) = (a.to_f32(), b.to_f32());
        assert!((af - bf).abs() <= 0.02 * bf.abs().max(1.0), "{af} vs {bf}");
    }
}

#[test]
fn pspin_handler_ignores_duplicate_contributions() {
    // Send every packet twice (simulating spurious retransmissions): the
    // bitmap must keep the *computed* result identical and compute it
    // exactly once. Duplicates arriving after the block retired are
    // answered with replays of the cached result payload (paper
    // Section 4.1 — the sender evidently missed it), never with a second
    // reduction.
    let children = 5u16;
    let n = 16usize;
    let data: Vec<Vec<i32>> = (0..children).map(|c| vec![c as i32 + 1; n]).collect();
    let mut arrivals = Vec::new();
    for rep in 0..2u64 {
        for (c, v) in data.iter().enumerate() {
            let header = Header {
                allreduce: 1,
                block: 0,
                child: c as u16,
                kind: PacketKind::DenseContrib,
                last_shard: false,
                shard_count: 0,
                elem_count: 0,
            };
            let payload = encode_dense(header, v);
            arrivals.push((rep * 1000 + c as u64 * 10, PspinPacket::new(0, payload)));
        }
    }
    let handler: DenseAllreduceHandler<i32, Sum> = DenseAllreduceHandler::new(
        DenseHandlerConfig {
            allreduce: 1,
            children,
            algorithm: AggKind::SingleBuffer,
            capture_results: true,
        },
        Sum,
    )
    .with_loss_recovery(true);
    let cfg = PspinConfig {
        params: SwitchParams {
            clusters: 1,
            cores_per_cluster: 4,
            ..SwitchParams::paper()
        },
        policy: SchedulingPolicy::Hierarchical { subset_size: 4 },
        ..PspinConfig::paper()
    };
    let (report, engine) = run_trace(cfg, handler, arrivals, true);
    assert_eq!(report.packets_in, 10, "all packets accepted");
    // One genuine result + one replay per post-retirement duplicate
    // (the whole second round arrives after the block completed).
    assert_eq!(
        report.packets_out,
        1 + children as u64,
        "one computed result plus per-duplicate replays"
    );
    let results = engine.handler().results();
    assert_eq!(results.len(), 1, "the reduction itself ran exactly once");
    assert_eq!(results[0].1, golden_reduce(&Sum, &data));
    // Every emission carries the identical result payload.
    let payloads: HashSet<&[u8]> = engine
        .emissions()
        .iter()
        .map(|(_, p)| p.payload.as_ref())
        .collect();
    assert_eq!(
        payloads.len(),
        1,
        "replays are byte-identical to the result"
    );
}

#[test]
fn reduction_tree_spans_pass_through_switch_chains() {
    // host0 - s0 - s1 - s2 - host1: the tree must thread the chain; the
    // middle switch has a single child (a no-op fold) and results flow
    // back through it.
    let mut topo = Topology::new();
    let h0 = topo.add_host("h0");
    let h1 = topo.add_host("h1");
    let s0 = topo.add_switch("s0");
    let s1 = topo.add_switch("s1");
    let s2 = topo.add_switch("s2");
    let spec = LinkSpec::hundred_gig();
    topo.connect(h0, s0, spec);
    topo.connect(s0, s1, spec);
    topo.connect(s1, s2, spec);
    topo.connect(s2, h1, spec);
    let tree = compute_reduction_tree(&topo, &[h0, h1], &HashSet::new()).unwrap();
    assert_eq!(tree.switches.len(), 3, "all three switches participate");
    // End-to-end through the chain:
    let mut session = FlareSession::builder(topo).hosts(vec![h0, h1]).build();
    let n = 512usize;
    let inputs = vec![vec![1i32; n], vec![2i32; n]];
    let out = session.allreduce(inputs).run().unwrap();
    assert_eq!(out.rank(0), &vec![3i32; n][..]);
    assert_eq!(out.rank(1), &vec![3i32; n][..]);
}

#[test]
fn ecmp_spreads_distinct_flows_across_spines() {
    let (topo, ft) = Topology::fat_tree_two_level(4, 2, 4, LinkSpec::hundred_gig());
    let routing = topo.build_routing();
    let src_leaf = ft.leaves[0];
    let dst = ft.hosts.last().copied().unwrap();
    assert_eq!(routing.ecmp_width(src_leaf, dst), 4);
    let ports: HashSet<_> = (0..64u32)
        .map(|flow| routing.next_port(src_leaf, dst, flow).unwrap())
        .collect();
    assert!(
        ports.len() >= 3,
        "64 flows should hit ≥3 of 4 spines: {ports:?}"
    );
}

#[test]
fn per_link_totals_identify_the_hot_uplink() {
    // One pair of cross-leaf hosts exchanging traffic: the leaf-spine
    // links must be the hottest (host links carry the same bytes at the
    // same rate, so equal; spine links are on the path too) and intra-leaf
    // links idle.
    struct Blaster {
        to: flare::net::NodeId,
        count: u64,
    }
    impl flare::net::HostProgram for Blaster {
        fn on_start(&mut self, ctx: &mut flare::net::HostCtx<'_>) {
            for i in 0..self.count {
                ctx.send(flare::net::NetPacket::new(
                    self.to,
                    1,
                    i,
                    0,
                    0,
                    Bytes::from(vec![0u8; 1024]),
                ));
            }
        }
        fn on_packet(&mut self, ctx: &mut flare::net::HostCtx<'_>, pkt: flare::net::NetPacket) {
            if pkt.block + 1 == self.count {
                ctx.mark_done();
            }
        }
    }
    let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 1);
    let src = ft.hosts[0];
    let dst = ft.hosts[3];
    sim.install_host(
        src,
        Box::new(Blaster {
            to: dst,
            count: 100,
        }),
    );
    sim.install_host(
        dst,
        Box::new(Blaster {
            to: src,
            count: 100,
        }),
    );
    let report = sim.run(None);
    // Utilization of a link's average direction: on the two busy access
    // links both directions carry the same 100 packets.
    let capacity = LinkSpec::hundred_gig().bytes_per_ns() * report.makespan as f64;
    let util: Vec<f64> = report
        .links
        .iter()
        .map(|l| l.bytes as f64 / 2.0 / capacity)
        .collect();
    let hot = util.iter().copied().fold(0.0, f64::max);
    assert!(hot > 0.5, "the path should be busy: {hot}");
    // Hosts 1 and 2 sit idle: their access links carry nothing.
    let idle_links = util.iter().filter(|&&u| u == 0.0).count();
    assert!(idle_links >= 2, "{util:?}");
}

#[test]
fn single_element_and_single_block_allreduces_work() {
    let (topo, _sw, _hosts) = Topology::star(2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let out = session
        .allreduce(vec![vec![41i32], vec![1i32]])
        .run()
        .unwrap();
    assert_eq!(out.ranks(), &[vec![42], vec![42]]);
}

// ---- One protocol, two sides -------------------------------------------
//
// The same contribution packets go through a root switch program on a star
// (what its hosts receive) and through the matching PsPIN handler (what it
// emits). Packets are spaced far enough apart that both sides fold them in
// script order.

/// Which protocol a script's packets speak.
#[derive(Clone, Copy)]
enum Proto {
    Dense,
    Sparse(SparseStorageKind),
}

/// `(send time, block, sending child, encoded packet)`.
type Script = Vec<(u64, u64, u16, Bytes)>;

const FLOW: u32 = 1;
const PAIRS_PER_PACKET: usize = 8;
const SPACING: u64 = 10_000;

fn header(block: u64, child: u16, kind: PacketKind, last: bool, count: u16) -> Header {
    Header {
        allreduce: FLOW,
        block: block as u32,
        child,
        kind,
        last_shard: last,
        shard_count: count,
        elem_count: 0,
    }
}

fn dense_script(children: u16, blocks: u64) -> Script {
    let mut script = Script::new();
    for b in 0..blocks {
        for c in 0..children {
            // Order-sensitive values: a different fold order would show.
            let vals: Vec<f32> = (0..16)
                .map(|i| 1e7 / (c as f32 + 1.5) + i as f32 * 0.37 + b as f32)
                .collect();
            let h = header(b, c, PacketKind::DenseContrib, false, 0);
            script.push((script.len() as u64 * SPACING, b, c, encode_dense(h, &vals)));
        }
    }
    script
}

/// Two blocks; each child sends each block as two shards of 12 pairs over
/// overlapping indexes below 64.
fn sparse_script(children: u16) -> Script {
    let mut script = Script::new();
    for b in 0..2u64 {
        for c in 0..children {
            for shard in 0..2u16 {
                let pairs: Vec<(u32, f32)> = (0..12u32)
                    .map(|i| {
                        (
                            (i * 5 + c as u32 * 3 + shard as u32 * 29) % 64,
                            1.0 + c as f32,
                        )
                    })
                    .collect();
                let h = header(b, c, PacketKind::SparseContrib, shard == 1, shard * 2);
                script.push((
                    script.len() as u64 * SPACING,
                    b,
                    c,
                    encode_sparse(h, &pairs),
                ));
            }
        }
    }
    script
}

/// One cluster of four cores, scheduled hierarchically.
fn one_cluster() -> PspinConfig {
    PspinConfig {
        params: SwitchParams {
            clusters: 1,
            cores_per_cluster: 4,
            ..SwitchParams::paper()
        },
        policy: SchedulingPolicy::Hierarchical { subset_size: 4 },
        ..PspinConfig::paper()
    }
}

/// Every payload the matching PsPIN handler emits, in emission order.
fn through_handler(proto: Proto, children: u16, script: &Script) -> Vec<Bytes> {
    let arrivals = script
        .iter()
        .map(|(t, b, _, p)| (*t, PspinPacket::new(*b, p.clone())))
        .collect();
    let cfg = one_cluster();
    let payloads = |e: &[(u64, PspinPacket)]| e.iter().map(|(_, p)| p.payload.clone()).collect();
    match proto {
        Proto::Dense => {
            let cfg_h = DenseHandlerConfig {
                allreduce: FLOW,
                children,
                algorithm: AggKind::Tree,
                capture_results: false,
            };
            let handler = DenseAllreduceHandler::<f32, Sum>::new(cfg_h, Sum);
            payloads(run_trace(cfg, handler, arrivals, true).1.emissions())
        }
        Proto::Sparse(storage) => {
            let cfg_h = SparseHandlerConfig {
                allreduce: FLOW,
                children,
                storage,
                pairs_per_packet: PAIRS_PER_PACKET,
                capture_results: false,
            };
            let handler = SparseAllreduceHandler::<f32, Sum>::new(cfg_h, Sum);
            payloads(run_trace(cfg, handler, arrivals, true).1.emissions())
        }
    }
}

/// A host that sends its part of a script and keeps what comes back.
struct Scripted {
    switch: NodeId,
    script: Script,
    inbox: Rc<RefCell<Vec<Bytes>>>,
}

impl HostProgram for Scripted {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for (at, block, child, payload) in self.script.drain(..) {
            let kind = payload[10];
            let pkt = NetPacket::new(self.switch, FLOW, block, child, kind, payload);
            ctx.send_at(at, pkt);
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        self.inbox.borrow_mut().push(pkt.payload);
    }
}

/// What each host of a star receives from the root switch program, in
/// arrival order, and the bytes the run put on links.
fn through_star(proto: Proto, children: u16, script: &Script) -> (Vec<Vec<Bytes>>, u64) {
    let (topo, sw, hosts) = Topology::star(children as usize, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 7);
    let place = TreePlacement {
        allreduce: FLOW,
        parent: None,
        children: hosts.clone(),
        my_child_index: 0,
    };
    match proto {
        Proto::Dense => {
            let prog = FlareSwitch::<f32, Sum>::dense(place, Sum);
            sim.install_switch(sw, Box::new(prog), SwitchModel::calibrated());
        }
        Proto::Sparse(storage) => {
            let prog = FlareSwitch::<f32, Sum>::sparse(place, Sum, storage, PAIRS_PER_PACKET);
            sim.install_switch(sw, Box::new(prog), SwitchModel::calibrated());
        }
    }
    let mut inboxes = Vec::new();
    for (c, &h) in hosts.iter().enumerate() {
        let inbox = Rc::new(RefCell::new(Vec::new()));
        inboxes.push(inbox.clone());
        let script = script.iter().filter(|s| s.2 == c as u16).cloned().collect();
        sim.install_host(
            h,
            Box::new(Scripted {
                switch: sw,
                script,
                inbox,
            }),
        );
    }
    let report = sim.run(None);
    let got = inboxes.iter().map(|i| i.take()).collect();
    (got, report.total_link_bytes)
}

const HASH_THAT_SPILLS: SparseStorageKind = SparseStorageKind::Hash {
    slots: 4,
    spill_cap: 4,
};

#[test]
fn both_sides_produce_byte_identical_results() {
    let children = 3;
    let cases = [
        ("dense tree", Proto::Dense, dense_script(children, 3)),
        (
            "sparse array",
            Proto::Sparse(SparseStorageKind::Array { span: 64 }),
            sparse_script(children),
        ),
        (
            "sparse hash with spills",
            Proto::Sparse(HASH_THAT_SPILLS),
            sparse_script(children),
        ),
    ];
    for (name, proto, script) in cases {
        let mut emitted = through_handler(proto, children, &script);
        assert!(
            emitted.len() >= 2,
            "{name}: every block must produce a result"
        );
        if matches!(proto, Proto::Sparse(HASH_THAT_SPILLS)) {
            assert!(emitted.len() > 2 * 3, "{name}: the tiny table must spill");
        }
        emitted.sort();
        let (received, _) = through_star(proto, children, &script);
        for (host, mut got) in received.into_iter().enumerate() {
            got.sort();
            assert_eq!(got, emitted, "{name}: host {host} vs the handler");
        }
    }
}

/// A well-formed script, the same script behind one extra packet — sent
/// first by child 0, claiming a child index the 3-child tree does not have
/// — and that packet's size.
fn with_rogue_packet(proto: Proto) -> (Script, Script, u64) {
    let (clean, rogue) = match proto {
        Proto::Dense => {
            let h = header(0, 200, PacketKind::DenseContrib, false, 0);
            (dense_script(3, 2), encode_dense(h, &[1.0f32; 16]))
        }
        Proto::Sparse(_) => {
            let h = header(0, 3, PacketKind::SparseContrib, true, 1);
            (sparse_script(3), encode_sparse(h, &[(3u32, 9.0f32)]))
        }
    };
    let rogue_bytes = rogue.len() as u64;
    let mut dirty = clean.clone();
    for entry in &mut dirty {
        entry.0 += SPACING; // the rogue packet is folded first
    }
    dirty.insert(0, (0, 0, 0, rogue));
    (clean, dirty, rogue_bytes)
}

/// A well-formed dense script of three children and two blocks, the same
/// script with two ragged contributions — child 1's block 0 one value
/// short, after child 0's block 0, and child 2's block 1 one value long,
/// after children 0 and 1 merged — each ahead of that child's whole one,
/// and their size.
fn with_ragged_contributions() -> (Script, Script, u64) {
    let clean = dense_script(3, 2);
    let ragged = [(0u64, 1u16, 15usize), (1, 2, 17)].map(|(block, child, len)| {
        let h = header(block, child, PacketKind::DenseContrib, false, 0);
        (block, child, encode_dense(h, &vec![3.0f32; len]))
    });
    let ragged_bytes = ragged.iter().map(|r| r.2.len() as u64).sum();
    let mut dirty = Script::new();
    for entry in &clean {
        let (block, child) = (entry.1, entry.2);
        if let Some(r) = ragged.iter().find(|r| (r.0, r.1) == (block, child)) {
            dirty.push((dirty.len() as u64 * SPACING, block, child, r.2.clone()));
        }
        let mut entry = entry.clone();
        entry.0 = dirty.len() as u64 * SPACING;
        dirty.push(entry);
    }
    (clean, dirty, ragged_bytes)
}

/// The handler neither panics on the extra packets of `dirty` nor emits
/// for them, and the well-formed children's results are unchanged.
fn handler_drops_the_extra_packets(proto: Proto, (clean, dirty, _): (Script, Script, u64)) {
    let emitted = through_handler(proto, 3, &clean);
    assert!(emitted.len() >= 2);
    assert_eq!(through_handler(proto, 3, &dirty), emitted);
}

/// As above through a star: every host receives what it did without the
/// extra packets, and only those packets themselves crossed a link.
fn star_drops_the_extra_packets(proto: Proto, (clean, dirty, rogue_bytes): (Script, Script, u64)) {
    let (got_clean, bytes_clean) = through_star(proto, 3, &clean);
    let (got_dirty, bytes_dirty) = through_star(proto, 3, &dirty);
    assert!(got_clean.iter().all(|inbox| inbox.len() >= 2));
    assert_eq!(got_dirty, got_clean);
    assert_eq!(bytes_dirty, bytes_clean + rogue_bytes);
}

#[test]
fn dense_handler_drops_an_out_of_range_child_index() {
    handler_drops_the_extra_packets(Proto::Dense, with_rogue_packet(Proto::Dense));
}

#[test]
fn sparse_handler_drops_an_out_of_range_child_index() {
    handler_drops_the_extra_packets(
        Proto::Sparse(HASH_THAT_SPILLS),
        with_rogue_packet(Proto::Sparse(HASH_THAT_SPILLS)),
    );
}

#[test]
fn dense_program_drops_an_out_of_range_child_index() {
    star_drops_the_extra_packets(Proto::Dense, with_rogue_packet(Proto::Dense));
}

#[test]
fn sparse_program_drops_an_out_of_range_child_index() {
    star_drops_the_extra_packets(
        Proto::Sparse(HASH_THAT_SPILLS),
        with_rogue_packet(Proto::Sparse(HASH_THAT_SPILLS)),
    );
}

#[test]
fn dense_handler_drops_a_ragged_contribution() {
    // A contribution whose element count differs from what its block holds
    // must not reach the tree's merge, where a debug build panics and an
    // optimised one folds the common prefix and then drops the child's
    // whole contribution as a duplicate.
    handler_drops_the_extra_packets(Proto::Dense, with_ragged_contributions());
}

#[test]
fn dense_program_drops_a_ragged_contribution() {
    star_drops_the_extra_packets(Proto::Dense, with_ragged_contributions());
}

/// A root that answers every dense contribution of its one host twice:
/// with its values doubled but one element short, then with all of them.
/// It notes where the first short payload lives.
struct ShortThenWhole {
    host: NodeId,
    first_short: Rc<RefCell<Option<usize>>>,
}

impl SwitchProgram for ShortThenWhole {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
        if pkt.flow != FLOW {
            return Some(pkt);
        }
        let (h, vals) = DenseView::<f32>::parse(&pkt.payload).expect("a dense contribution");
        let doubled: Vec<f32> = vals.iter().map(|v| 2.0 * v).collect();
        let kind = PacketKind::DenseResult;
        for cut in [1, 0] {
            let payload = encode_dense(Header { kind, ..h }, &doubled[..doubled.len() - cut]);
            if cut == 1 {
                let at = payload.as_ptr() as usize;
                self.first_short.borrow_mut().get_or_insert(at);
            }
            ctx.send(NetPacket::new(
                self.host, FLOW, pkt.block, 0, kind as u8, payload,
            ));
        }
        None
    }
}

#[test]
fn dense_host_ignores_a_short_result_and_completes_on_the_whole_one() {
    // Well-formed but short results (a foreign flow on this allreduce id,
    // a truncated replay) used to trip an `assert!` and abort the whole
    // simulation. Ten elements in blocks of four: blocks 0 and 1 get a
    // 3-element result they must ignore, and the final block's whole
    // result is legally short (2 < 4) and must still complete it.
    let (topo, sw, hosts) = Topology::star(1, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 1);
    let first_short = Rc::new(RefCell::new(None));
    let prog = ShortThenWhole {
        host: hosts[0],
        first_short: first_short.clone(),
    };
    sim.install_switch(sw, Box::new(prog), SwitchModel::calibrated());
    let cfg = HostConfig {
        allreduce: FLOW,
        leaf: sw,
        child_index: 0,
        window: 2,
        stagger_offset: 0,
        retransmit_after: None,
        iteration: 0,
    };
    let data: Vec<f32> = (1..=10).map(|i| i as f32).collect();
    let host = DenseFlareHost::new(cfg, 4, data.clone());
    sim.install_host(hosts[0], Box::new(host));
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "every block completed");
    let host: Box<dyn Any> = sim.take_host(hosts[0]).expect("installed");
    let mut host = host
        .downcast::<DenseFlareHost<f32>>()
        .expect("a dense host");
    let got = host.take_result(&mut SharedResults::default());
    let got = got.expect("host finished");
    let want: Vec<f32> = data.iter().map(|v| 2.0 * v).collect();
    assert_eq!(got, want, "only whole results were applied");
    drop(sim);
    // The ignored payload was dropped like any other: its block is back on
    // this thread's free list, among the first few a same-size request pops.
    let short = first_short.take().expect("a short result was sent");
    let held: Vec<BytesMut> = (0..64).map(|_| BytesMut::with_capacity(28)).collect();
    assert!(held.iter().any(|b| b.as_ptr() as usize == short));
}

#[test]
fn sparse_handler_replays_the_whole_shard_sequence_once_per_burst() {
    // One child, one block sent as a two-shard burst into a table that
    // spills; then the same burst twice more, after the block retired.
    let burst: Vec<Bytes> = (0..2u16)
        .map(|shard| {
            let pairs: Vec<(u32, f32)> = (0..16u32).map(|i| (i + 16 * shard as u32, 1.0)).collect();
            let h = header(0, 0, PacketKind::SparseContrib, shard == 1, shard * 2);
            encode_sparse(h, &pairs)
        })
        .collect();
    const ROUND: u64 = 100_000;
    let arrivals = (0..3u64)
        .flat_map(|round| {
            let burst = &burst;
            (0..2u64).map(move |i| {
                let pkt = PspinPacket::new(0, burst[i as usize].clone());
                (round * ROUND + i * SPACING, pkt)
            })
        })
        .collect();
    let handler = SparseAllreduceHandler::<f32, Sum>::new(
        SparseHandlerConfig {
            allreduce: FLOW,
            children: 1,
            storage: HASH_THAT_SPILLS,
            pairs_per_packet: PAIRS_PER_PACKET,
            capture_results: true,
        },
        Sum,
    )
    .with_loss_recovery(true);
    let cfg = one_cluster();
    let (_, engine) = run_trace(cfg, handler, arrivals, true);
    assert_eq!(engine.handler().results().len(), 1, "reduced exactly once");
    assert!(engine.handler().spilled_elems() > 0);

    let in_window = |from: u64, to: u64| -> Vec<Bytes> {
        let hits = engine
            .emissions()
            .iter()
            .filter(|(t, _)| (from..to).contains(t));
        hits.map(|(_, p)| p.payload.clone()).collect()
    };
    // The original: one contiguous announced sequence, spills then drain.
    let sequence = in_window(0, ROUND);
    for (i, payload) in sequence.iter().enumerate() {
        let (h, _) = SparseView::<f32>::parse(payload).unwrap();
        assert_eq!(h.kind, PacketKind::SparseResult);
        assert_eq!(h.shard_index() as usize, i);
        assert_eq!(h.last_shard, i + 1 == sequence.len());
    }
    let (last, _) = SparseView::<f32>::parse(sequence.last().unwrap()).unwrap();
    assert_eq!(last.shard_count as usize, sequence.len());
    assert!(sequence.len() > 2, "spill shards are part of the sequence");
    for round in 1..3 {
        // The burst's first shard is not answered; its last shard replays
        // the whole sequence, once.
        let start = round * ROUND;
        assert_eq!(in_window(start, start + SPACING), Vec::<Bytes>::new());
        assert_eq!(in_window(start + SPACING, start + ROUND), sequence);
    }
}

#[test]
fn remote_cluster_spill_pushes_pay_the_remote_l1_factor() {
    // Global FCFS over two one-core clusters: both children's packets of
    // block 0 arrive together, so child 1 is handled on the cluster that
    // does not home the block, and every hold it takes on the block — the
    // per-element insertions and each spill push alike — costs the
    // remote-L1 factor.
    let run = |policy| {
        let arrivals = (0..2u16)
            .map(|c| {
                let pairs: Vec<(u32, f32)> = (0..64u32).map(|i| (i * 2 + c as u32, 1.0)).collect();
                let h = header(0, c, PacketKind::SparseContrib, true, 1);
                (0, PspinPacket::new(0, encode_sparse(h, &pairs)))
            })
            .collect();
        let cfg_h = SparseHandlerConfig {
            allreduce: FLOW,
            children: 2,
            storage: HASH_THAT_SPILLS,
            pairs_per_packet: PAIRS_PER_PACKET,
            capture_results: true,
        };
        let handler = SparseAllreduceHandler::<f32, Sum>::new(cfg_h, Sum);
        let cfg = PspinConfig {
            params: SwitchParams {
                clusters: 2,
                cores_per_cluster: 1,
                ..SwitchParams::paper()
            },
            policy,
            ..PspinConfig::paper()
        };
        let (report, engine) = run_trace(cfg, handler, arrivals, true);
        assert_eq!(report.blocks_completed, 1);
        assert!(engine.handler().spilled_elems() > 0);
        report.duration_ns
    };
    let local = run(SchedulingPolicy::Hierarchical { subset_size: 1 });
    let remote = run(SchedulingPolicy::GlobalFcfs);
    // Pinned to the pre-core handler: with the spill pushes charged as
    // cluster-local the global-FCFS run ends at 41 952 ns.
    assert_eq!((local, remote), (4_712, 58_080));
}
