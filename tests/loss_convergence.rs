//! Loss recovery converges, whatever the initial timeout, and costs a
//! bounded number of packets per drop.
//!
//! Three failure modes of the fixed-period timer this suite would have
//! caught (all measured at the commit before the deadlines became
//! adaptive, see CHANGES.md PR 24):
//!
//! * a run whose simulated time is its own timer: every lossy iteration
//!   took one or two periods of `retransmit_after`;
//! * a timer below the fleet's round trip collapses: every host re-sends
//!   its whole window into the congestion that delayed the results;
//! * one drop bought two dozen packets of recovery, because a switch
//!   answered every retransmitted contribution with a re-send of its own.
//!
//! The switch half is pinned packet by packet at the end of the file: one
//! upward re-send per round of pokes, duplicate results absorbed, a child's
//! poke still answered from the cache.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use bytes::Bytes;
use flare::core::handlers::{DenseAllreduceHandler, DenseHandlerConfig, SparseStorageKind};
use flare::core::switch_prog::{FlareSwitch, RecoveryStats, TreePlacement};
use flare::core::wire::{encode_dense, encode_sparse, Header, PacketKind};
use flare::des::Time;
use flare::net::{
    HostCtx, HostProgram, NetPacket, NetSim, NodeId, SwitchCtx, SwitchModel, SwitchProgram,
};
use flare::prelude::*;
use flare::pspin::engine::run_trace;
use flare::pspin::{PspinConfig, PspinPacket};

/// The benchmark's `traffic_lossy` fleet: `tenants` mixed dense/sparse
/// tenants of `elems` elements, 4 Poisson jobs × 4 iterations each, engine
/// seed 7, on a two-level fat tree at `drop` link loss.
struct Fleet {
    leaves: usize,
    per_leaf: usize,
    spines: usize,
    tenants: usize,
    elems: usize,
    drop: f64,
    retransmit_after: Time,
    deadline: Time,
}

impl Fleet {
    fn run(&self) -> RunReport {
        let spec = LinkSpec::hundred_gig();
        let (topo, ft) =
            Topology::fat_tree_two_level(self.leaves, self.per_leaf, self.spines, spec);
        let mut session = FlareSession::builder(topo)
            .hosts(ft.hosts)
            .retransmit_after(Some(self.retransmit_after));
        if self.drop > 0.0 {
            session = session.link_drop_prob(self.drop);
        }
        let mut session = session.build();
        let mut engine = TrafficEngine::new(&mut session, 7);
        for i in 0..self.tenants {
            let spec = TenantSpec::new(format!("tenant-{i}"), self.elems)
                .iterations(4)
                .compute(5_000, 0.2)
                .arrivals(ArrivalProcess::Poisson {
                    mean_interarrival_ns: 20_000.0,
                    jobs: 4,
                });
            let spec = if i % 2 == 1 { spec.sparse(0.2) } else { spec };
            engine.add_tenant(spec).expect("admitted");
        }
        engine.set_deadline(Some(self.deadline));
        // The engine checks every cell's first reduced vector itself and
        // panics on a wrong one.
        let report = engine.run().expect("the fleet runs");
        engine.release_all().expect("released");
        report
    }

    /// Every job of every tenant completed, with all its iterations.
    fn assert_complete(&self, report: &RunReport) {
        for t in &report.tenants.as_ref().expect("a fleet").tenants {
            let done = (t.jobs_completed, t.iterations_completed);
            let what = format!(
                "{} at {} ns initial timeout",
                t.label, self.retransmit_after
            );
            assert_eq!(
                done,
                (t.jobs, 4 * t.jobs),
                "{what}: cut off at the deadline"
            );
            assert!(t.min_rtt_ns > 0, "{what}: no round trip measured");
        }
    }
}

/// `traffic_lossy` at half its element count (so that a debug build runs a
/// cell in about a second). Its lossless twin finishes at 0.57 ms.
const HALF_SIZE: Fleet = Fleet {
    leaves: 2,
    per_leaf: 4,
    spines: 2,
    tenants: 16,
    elems: 8 << 10,
    drop: 0.01,
    retransmit_after: 200_000,
    deadline: 1_000_000,
};

/// Packets on links beyond the lossless run's, per dropped packet. The
/// fixed 200 µs timer with answer-every-poke switches measured 17 on
/// [`HALF_SIZE`]; this protocol measures 9.3–10.8 over the three initial
/// timeouts.
const MAX_RECOVERY_PACKETS_PER_DROP: u64 = 14;

/// Link packets of the lossless twin, run once for the three cells.
fn lossless_packets() -> u64 {
    static PACKETS: OnceLock<u64> = OnceLock::new();
    *PACKETS.get_or_init(|| {
        let lossless = Fleet {
            drop: 0.0,
            ..HALF_SIZE
        };
        lossless.run().net.total_link_packets
    })
}

/// Whatever the initial timeout — the benchmark's 200 µs, or 50 µs and
/// 20 µs, at and under the fleet's loaded round trip — every job completes
/// inside 1 ms, within the recovery-traffic bound. At the parent commit
/// none of the three cells does: the 200 µs cell ends at 3.76 ms (every
/// iteration waits out a period or two), the 50 µs cell at 1.16 ms, and at
/// 20 µs, below the round trip, every host re-sends its window every
/// period: 16 of 64 jobs by 20 ms of simulated time, 1.1 M retransmissions
/// for 70 k drops.
fn converges_inside_the_deadline(retransmit_after: Time) {
    let fleet = Fleet {
        retransmit_after,
        ..HALF_SIZE
    };
    let report = fleet.run();
    fleet.assert_complete(&report);
    let net = &report.net;
    assert!(net.drops > 1_000, "the fabric must actually lose packets");
    let extra = net.total_link_packets - lossless_packets();
    assert!(
        extra <= net.drops * MAX_RECOVERY_PACKETS_PER_DROP,
        "{extra} recovery packets for {} drops",
        net.drops
    );
    // Every poke was answered one way or another: no replay entry was
    // evicted while a host still needed it.
    let recovery = report
        .tenants
        .expect("a fleet")
        .fabric
        .switch_pools
        .recovery;
    let answered = recovery.resends_up + recovery.replays_down + recovery.absorbed;
    assert_eq!(recovery.pokes, answered, "{recovery:?}");
    assert!(recovery.absorbed > 0 && recovery.resends_up > 0 && recovery.replays_down > 0);
}

#[test]
fn the_benchmarks_200_us_initial_timeout_converges() {
    converges_inside_the_deadline(200_000);
}

#[test]
fn a_50_us_initial_timeout_converges() {
    converges_inside_the_deadline(50_000);
}

#[test]
fn a_20_us_initial_timeout_converges() {
    converges_inside_the_deadline(20_000);
}

/// 32 hosts × 32 tenants at 1 % loss: the fleet `benchmark/README.md`
/// records as not finishing ("2.2 M events and 12 289 drops by 2 ms of
/// simulated time, the fixed 200 µs timer retransmitting into its own
/// congestion"; still running after 120 s of host time). It finishes at
/// 7.28 ms simulated, in 4 s of host time on a release build — which is
/// what CI runs it on, `--ignored` — and is pinned bit for bit like the
/// rows of `sim_pins.rs`.
#[test]
#[ignore = "4 s optimised, minutes in a debug build: CI runs it with --release"]
fn thirty_two_tenants_on_thirty_two_hosts_finish() {
    let fleet = Fleet {
        leaves: 4,
        per_leaf: 8,
        spines: 4,
        tenants: 32,
        elems: 16 << 10,
        deadline: 20_000_000,
        ..HALF_SIZE
    };
    let report = fleet.run();
    fleet.assert_complete(&report);
    let net = &report.net;
    let got = [
        net.makespan,
        net.events,
        net.total_link_bytes,
        net.drops,
        net.order_digest,
    ];
    let want = [
        7_283_703,
        4_785_174,
        2_344_415_776,
        22_763,
        0x3154_fccf_491b_8840,
    ];
    assert_eq!(
        got, want,
        "[makespan ns, events, link bytes, drops, order digest]"
    );
}

// ---- the switch half, packet by packet --------------------------------

const FLOW: u32 = 9;
const CHILDREN: u16 = 4;

fn header(kind: PacketKind, child: u16) -> Header {
    // One shard per sparse block: the last one, announcing a total of 1.
    let sparse = !matches!(kind, PacketKind::DenseContrib | PacketKind::DenseResult);
    Header {
        allreduce: FLOW,
        block: 0,
        child,
        kind,
        last_shard: sparse,
        shard_count: u16::from(sparse),
        elem_count: 0,
    }
}

#[derive(Clone, Copy)]
enum Proto {
    Dense,
    Sparse,
}

impl Proto {
    fn contribution(self, child: u16) -> Bytes {
        match self {
            Proto::Dense => encode_dense(header(PacketKind::DenseContrib, child), &[1.0f32; 8]),
            Proto::Sparse => {
                let pairs = [(child as u32, 1.0f32)];
                encode_sparse(header(PacketKind::SparseContrib, child), &pairs)
            }
        }
    }

    /// What the root above would send down once it had every leaf's
    /// aggregate (the values do not matter to the leaf).
    fn result(self) -> Bytes {
        match self {
            Proto::Dense => encode_dense(header(PacketKind::DenseResult, 0), &[8.0f32; 8]),
            Proto::Sparse => {
                let pairs = [(0, 2.0f32), (1, 2.0), (2, 2.0), (3, 2.0)];
                encode_sparse(header(PacketKind::SparseResult, 0), &pairs)
            }
        }
    }
}

fn kind_of(payload: &[u8]) -> PacketKind {
    Header::decode(payload).expect("a Flare packet").0.kind
}

/// A host that (re-)sends its contribution to block 0 at the scripted
/// times and keeps what comes back.
struct Child {
    leaf: NodeId,
    index: u16,
    proto: Proto,
    send_at: Vec<Time>,
    inbox: Rc<RefCell<Seen>>,
}

impl HostProgram for Child {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for &at in &self.send_at {
            let payload = self.proto.contribution(self.index);
            let kind = kind_of(&payload) as u8;
            let pkt = NetPacket::new(self.leaf, FLOW, 0, self.index, kind, payload);
            ctx.send_at(at, pkt);
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        let got = (ctx.now(), kind_of(&pkt.payload));
        self.inbox.borrow_mut().push(got);
    }
}

/// The switch above the leaf under test: keeps what the leaf sends up, and
/// on the first packet schedules the block's result for each of `results`.
struct Parent {
    leaf: NodeId,
    proto: Proto,
    results: Vec<Time>,
    inbox: Rc<RefCell<Seen>>,
}

impl SwitchProgram for Parent {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: NetPacket) -> Option<NetPacket> {
        if pkt.flow != FLOW {
            return Some(pkt);
        }
        self.inbox
            .borrow_mut()
            .push((ctx.now(), kind_of(&pkt.payload)));
        for at in self.results.drain(..) {
            let payload = self.proto.result();
            let kind = kind_of(&payload) as u8;
            ctx.send_at(at, NetPacket::new(self.leaf, FLOW, 0, 0, kind, payload));
        }
        None
    }
}

/// The poke sequence both payloads are put through, on a leaf with four
/// hosts under one spine, times in ns:
///
/// * 0: every child contributes; the leaf retires the block and sends its
///   aggregate up;
/// * 10 000: every child pokes (its result has not come): one round;
/// * 20 000: child 0 pokes again: a new round;
/// * 30 000 and 40 000: the result comes down, twice;
/// * 50 000: child 2 pokes (say its copy was lost).
///
/// Returns what the parent saw, what each child saw, and the leaf's
/// counters.
type Seen = Vec<(Time, PacketKind)>;

fn poke_sequence(proto: Proto) -> (Seen, Vec<Seen>, RecoveryStats) {
    let spec = LinkSpec::hundred_gig();
    let (topo, ft) = Topology::fat_tree_two_level(1, CHILDREN as usize, 1, spec);
    let (leaf, spine) = (ft.leaves[0], ft.spines[0]);
    let mut sim = NetSim::new(topo, 1);
    let place = TreePlacement {
        allreduce: FLOW,
        parent: Some(spine),
        children: ft.hosts.clone(),
        my_child_index: 0,
    };
    match proto {
        Proto::Dense => {
            let prog = FlareSwitch::<f32, Sum>::dense(place, Sum).with_loss_recovery(true);
            sim.install_switch(leaf, Box::new(prog), SwitchModel::calibrated());
        }
        Proto::Sparse => {
            let storage = SparseStorageKind::Array { span: 64 };
            let prog = FlareSwitch::<f32, Sum>::sparse(place, Sum, storage, 128);
            sim.install_switch(
                leaf,
                Box::new(prog.with_loss_recovery(true)),
                SwitchModel::calibrated(),
            );
        }
    }
    let up = Rc::new(RefCell::new(Vec::new()));
    let parent = Parent {
        leaf,
        proto,
        results: vec![30_000, 40_000],
        inbox: up.clone(),
    };
    sim.install_switch(spine, Box::new(parent), SwitchModel::calibrated());
    let mut inboxes = Vec::new();
    for (index, &host) in ft.hosts.iter().enumerate() {
        let inbox = Rc::new(RefCell::new(Vec::new()));
        inboxes.push(inbox.clone());
        let mut send_at = vec![0, 10_000];
        match index {
            0 => send_at.push(20_000),
            2 => send_at.push(50_000),
            _ => {}
        }
        let child = Child {
            leaf,
            index: index as u16,
            proto,
            send_at,
            inbox,
        };
        sim.install_host(host, Box::new(child));
    }
    sim.run(None);
    let mut leaf = sim.take_switch(leaf).expect("installed");
    let leaf = leaf.as_any_mut().expect("a Flare program opts in");
    let recovery = leaf
        .downcast_mut::<FlareSwitch<f32, Sum>>()
        .map(|p| p.stats());
    let children = inboxes.iter().map(|inbox| inbox.take()).collect();
    (
        up.take(),
        children,
        recovery.expect("the leaf's program").recovery,
    )
}

#[test]
fn a_round_of_pokes_is_answered_once_and_a_duplicate_result_absorbed() {
    for (proto, up_kind, down_kind) in [
        (
            Proto::Dense,
            PacketKind::DenseContrib,
            PacketKind::DenseResult,
        ),
        (
            Proto::Sparse,
            PacketKind::SparseContrib,
            PacketKind::SparseResult,
        ),
    ] {
        let (up, children, recovery) = poke_sequence(proto);
        // Up: the aggregate, one re-send for the round of four pokes, one
        // for the poke that opened the next round — nothing for child 2's
        // last poke, which the cache answered.
        let in_phase = |from: Time| {
            up.iter()
                .filter(|(t, _)| (from..from + 10_000).contains(t))
                .count()
        };
        assert!(up.iter().all(|&(_, kind)| kind == up_kind));
        let counts = [0, 10_000, 20_000, 50_000].map(in_phase);
        assert_eq!(counts, [1, 1, 1, 0], "upward packets per phase: {up:?}");
        assert_eq!(up.len(), 3);
        // Down: every child gets the result when it first comes and not
        // when it comes again; child 2 gets its replay.
        for (child, seen) in children.iter().enumerate() {
            assert!(seen.iter().all(|&(_, kind)| kind == down_kind));
            let times: Vec<Time> = seen.iter().map(|&(t, _)| t / 10_000).collect();
            let want: &[Time] = if child == 2 { &[3, 5] } else { &[3] };
            assert_eq!(times, want, "child {child} saw {seen:?}");
        }
        let want = RecoveryStats {
            pokes: 6,
            resends_up: 2,
            replays_down: 1,
            absorbed: 3,
        };
        assert_eq!(recovery, want);
    }
}

#[test]
fn a_root_answers_every_poke_with_a_replay() {
    // The same pokes at a PsPIN handler, which is the whole tree: the
    // block's result is produced here, so each poke is answered with a
    // replay of it and nothing is absorbed.
    let pokes = [
        (10_000, 0),
        (10_010, 1),
        (10_020, 2),
        (10_030, 3),
        (20_000, 0),
        (50_000, 2),
    ];
    let first = (0..CHILDREN).map(|child| (child as u64 * 10, child));
    let arrivals = first.chain(pokes).map(|(at, child)| {
        let payload = Proto::Dense.contribution(child);
        (at, PspinPacket::new(FLOW, 0, child, 0, payload))
    });
    let cfg = DenseHandlerConfig {
        allreduce: FLOW,
        children: CHILDREN,
        algorithm: AggKind::Tree,
        capture_results: true,
    };
    let handler = DenseAllreduceHandler::<f32, Sum>::new(cfg, Sum).with_loss_recovery(true);
    let (report, engine) = run_trace(PspinConfig::paper(), handler, arrivals.collect(), true);
    assert_eq!(engine.handler().results().len(), 1, "reduced exactly once");
    assert_eq!(report.packets_out, 1 + pokes.len() as u64);
    let mut results = engine.emissions().iter();
    assert!(results.all(|(_, p)| kind_of(&p.payload) == PacketKind::DenseResult));
}
