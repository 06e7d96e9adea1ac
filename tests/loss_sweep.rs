//! Loss-sweep integration: dense **and** sparse allreduce survive packet
//! loss end to end (paper Section 4.1 applied to both datapaths).
//!
//! For every (collective, topology, drop probability) cell the run must
//! * complete (hosts retransmit overdue blocks; switches reject the
//!   duplicates — child bitmaps dense, shard-sequence tracking sparse —
//!   and replay completed results from their caches),
//! * produce bitwise-correct results on every rank (values are chosen so
//!   f32 sums are exact, making "correct" order-independent), and
//! * stay within a bounded traffic inflation over the lossless baseline
//!   (no retransmission storms), and
//! * at 1 % loss, finish well inside one initial timeout: recovery runs on
//!   the fabric's measured round trips, not on `retransmit_after`.
//!
//! A sparse cell also checks how its ranks' results are stored: ranks that
//! accepted their result shards in different orders (one received a
//! replay after the others had the original) hold vectors of their own,
//! and every one of them is still the golden reduction.

use flare::core::session::FlareSessionBuilder;
use flare::net::{NodeId, TelemetryConfig, TelemetryReport, TraceKind};
use flare::prelude::*;

const RETX_NS: u64 = 200_000;
const DROPS: [f64; 2] = [0.01, 0.1];
/// Lossy traffic may inflate by retransmissions and replays, but must
/// stay within a constant factor of the lossless packet count. The worst
/// cells (10 % loss on the fat tree) measure 1.7; under the fixed-period
/// timer, with a switch answering every retransmission, 2.6.
const MAX_PACKET_INFLATION: u64 = 3;

fn topologies() -> Vec<(&'static str, Topology, Vec<NodeId>)> {
    let (star, _sw, hosts) = Topology::star(8, LinkSpec::hundred_gig());
    let (ft_topo, ft) = Topology::fat_tree_two_level(2, 4, 2, LinkSpec::hundred_gig());
    vec![("star", star, hosts), ("fat_tree", ft_topo, ft.hosts)]
}

fn lossy_session(topo: Topology, hosts: Vec<NodeId>, drop: f64) -> FlareSession {
    lossy_builder(topo, hosts, drop).build()
}

fn lossy_builder(topo: Topology, hosts: Vec<NodeId>, drop: f64) -> FlareSessionBuilder {
    let b = FlareSession::builder(topo)
        .hosts(hosts)
        .retransmit_after(Some(RETX_NS))
        .seed(23);
    if drop > 0.0 {
        b.link_drop_prob(drop)
    } else {
        b
    }
}

/// The result shards each of `hosts` accepted, as `(block, shard)` in the
/// order it accepted them, from a run's trace.
fn accepted_shards(trace: &TelemetryReport, hosts: &[NodeId]) -> Vec<Vec<(u64, u64)>> {
    let accepted = |h: NodeId| {
        let events = trace.events.iter();
        let shards = events.filter(|e| e.kind == TraceKind::ShardRecv && e.node == h.0);
        shards.map(|e| (e.a, e.b)).collect()
    };
    hosts.iter().map(|&h| accepted(h)).collect()
}

/// Ranks whose shards arrived in different orders hold different vectors;
/// how many distinct orders there were.
fn assert_storage_follows_shard_order(
    out: &CollectiveResult<f32>,
    hosts: &[NodeId],
    cell: &str,
) -> usize {
    let trace = out.report.trace.as_ref().expect("telemetry on");
    let orders = accepted_shards(trace, hosts);
    let ranks = out.ranks();
    for a in 0..ranks.len() {
        for b in a + 1..ranks.len() {
            let shared = std::ptr::eq(ranks[a].as_ptr(), ranks[b].as_ptr());
            assert!(
                !shared || orders[a] == orders[b],
                "{cell}: ranks {a} and {b} share a vector built from shards in different orders"
            );
        }
    }
    let mut distinct = orders.clone();
    distinct.sort();
    distinct.dedup();
    distinct.len()
}

/// At 1 % loss a collective is done before its initial timeout would have
/// fired once (under the fixed-period timer these cells took two to four
/// periods).
fn assert_prompt(report: &RunReport, drop: f64, cell: &str) {
    let done = report.completion_ns();
    assert!(
        drop > 0.01 || done < RETX_NS,
        "{cell}/{drop}: done at {done} ns, an initial timeout or more"
    );
}

#[test]
fn dense_allreduce_sweeps_loss_on_star_and_fat_tree() {
    let n = 8192usize; // 32 blocks of 256 per host
    for (name, topo, hosts) in topologies() {
        let inputs: Vec<Vec<f32>> = (0..hosts.len())
            .map(|h| (0..n).map(|i| ((h + i) % 17) as f32).collect())
            .collect();
        let want = golden_reduce(&Sum, &inputs);

        let mut lossless = lossy_session(topo, hosts, 0.0);
        let base = lossless.allreduce(inputs.clone()).run().unwrap();
        assert_eq!(base.rank(0), &want[..]);
        let base_packets = base.report.net.total_link_packets;
        let (topo, hosts) = (lossless.topology().clone(), lossless.hosts().to_vec());

        for drop in DROPS {
            let mut session = lossy_session(topo.clone(), hosts.clone(), drop);
            let out = session.allreduce(inputs.clone()).run().unwrap();
            if drop >= 0.1 {
                assert!(out.report.drops() > 0, "dense/{name}/{drop}: no drops?");
            }
            for (rank, r) in out.ranks().iter().enumerate() {
                assert_eq!(*r, want, "dense/{name}/{drop}: rank {rank} result diverged");
            }
            let packets = out.report.net.total_link_packets;
            assert!(
                packets <= base_packets * MAX_PACKET_INFLATION,
                "dense/{name}/{drop}: retransmission storm \
                 ({packets} packets vs {base_packets} lossless)"
            );
            assert_prompt(&out.report, drop, &format!("dense/{name}"));
        }
    }
}

#[test]
fn sparse_allreduce_sweeps_loss_on_star_and_fat_tree() {
    let total = 40_960usize; // 32 blocks at the default 1280-element span
    let nnz = 2000usize;
    for (name, topo, hosts) in topologies() {
        // Striped indexes so every block sees traffic from every host;
        // small-integer values keep f32 sums exact (order-independent).
        let pairs: Vec<Vec<(u32, f32)>> = (0..hosts.len())
            .map(|h| {
                (0..nnz)
                    .map(|i| {
                        let idx = ((i * (total / nnz) + h * 7) % total) as u32;
                        (idx, ((h + i) % 9) as f32 + 1.0)
                    })
                    .collect()
            })
            .collect();
        let mut want = vec![0.0f32; total];
        for host in &pairs {
            for &(i, v) in host {
                want[i as usize] += v;
            }
        }

        let telemetry = TelemetryConfig::default();
        let mut lossless = lossy_builder(topo, hosts, 0.0).telemetry(telemetry).build();
        let base = lossless
            .sparse_allreduce(total, pairs.clone())
            .run()
            .unwrap();
        assert_eq!(base.rank(0), &want[..], "sparse/{name}: lossless baseline");
        let base_packets = base.report.net.total_link_packets;
        let (topo, hosts) = (lossless.topology().clone(), lossless.hosts().to_vec());
        // One multicast set of result shards, one vector for every rank.
        let cell = format!("sparse/{name}");
        assert_eq!(assert_storage_follows_shard_order(&base, &hosts, &cell), 1);
        let first = base.rank(0).as_ptr();
        assert!(base.ranks().iter().all(|r| std::ptr::eq(r.as_ptr(), first)));

        for drop in DROPS {
            let builder = lossy_builder(topo.clone(), hosts.clone(), drop);
            let mut session = builder.telemetry(telemetry).build();
            let out = session
                .sparse_allreduce(total, pairs.clone())
                .run()
                .unwrap();
            if drop >= 0.1 {
                assert!(out.report.drops() > 0, "sparse/{name}/{drop}: no drops?");
            }
            let cell = format!("sparse/{name}/{drop}");
            let orders = assert_storage_follows_shard_order(&out, &hosts, &cell);
            if drop >= 0.1 {
                assert!(
                    orders > 1,
                    "{cell}: every rank accepted its shards in one order"
                );
            }
            for (rank, r) in out.ranks().iter().enumerate() {
                assert_eq!(
                    *r, want,
                    "sparse/{name}/{drop}: rank {rank} result diverged"
                );
            }
            let packets = out.report.net.total_link_packets;
            assert!(
                packets <= base_packets * MAX_PACKET_INFLATION,
                "sparse/{name}/{drop}: retransmission storm \
                 ({packets} packets vs {base_packets} lossless)"
            );
            assert_prompt(&out.report, drop, &format!("sparse/{name}"));
        }
    }
}

#[test]
fn sparse_loss_recovery_handles_spilling_hash_stores() {
    // Force heavy spilling (tiny hash tables, hash storage even at the
    // root) under loss: spilled shards ride the same retransmission and
    // duplicate-rejection machinery as regular contributions. The
    // fat-tree cell additionally covers root spill *result* shards
    // passing down through an inner switch whose own block is still
    // open — its replay entry must merge, not be overwritten, when the
    // block later completes there.
    let total = 4096usize;
    let policy = flare::core::session::SparsePolicy {
        hash_slots: 32,
        spill_cap: 16,
        span: 512,
        array_at_root: false,
    };
    for (name, topo, hosts) in [
        {
            let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
            ("star", topo, hosts)
        },
        {
            let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
            ("fat_tree", topo, ft.hosts)
        },
    ] {
        let mut session = FlareSession::builder(topo)
            .hosts(hosts)
            .link_drop_prob(0.08)
            .retransmit_after(Some(RETX_NS))
            .seed(5)
            .build();
        let pairs: Vec<Vec<(u32, f32)>> = (0..4)
            .map(|h| (0..512).map(|i| ((i * 8 + h) as u32, 1.0f32)).collect())
            .collect();
        let mut want = vec![0.0f32; total];
        for host in &pairs {
            for &(i, v) in host {
                want[i as usize] += v;
            }
        }
        let out = session
            .sparse_allreduce(total, pairs)
            .policy(policy)
            .run()
            .unwrap();
        assert!(out.report.drops() > 0, "{name}: loss must trigger");
        for r in out.ranks() {
            assert_eq!(*r, want, "{name}");
        }
    }
}
