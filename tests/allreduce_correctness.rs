//! End-to-end dense allreduce correctness across the full stack:
//! `FlareSession` → network manager → reduction tree → switch programs →
//! host programs, on both single-switch and fat-tree topologies, checked
//! against the golden sequential reduction.

use flare::model::fabric;
use flare::prelude::*;
use flare::workloads::{dense_i32, dense_uniform_f32};

fn star_session(hosts: usize) -> FlareSession {
    let (topo, _sw, _hosts) = Topology::star(hosts, LinkSpec::hundred_gig());
    FlareSession::builder(topo).build()
}

#[test]
fn star_allreduce_matches_golden_i32_sum() {
    let mut session = star_session(6);
    let inputs: Vec<Vec<i32>> = (0..6)
        .map(|h| dense_i32(1, h as u64, 2000, -100, 100))
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session.allreduce(inputs).run().unwrap();
    assert_eq!(out.report.drops(), 0);
    for (rank, r) in out.ranks().iter().enumerate() {
        assert_eq!(*r, want, "rank {rank}");
    }
}

#[test]
fn fat_tree_allreduce_matches_golden_f32() {
    let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    let n = 3000usize;
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|h| dense_uniform_f32(7, h as u64, n, -1.0, 1.0))
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session.allreduce(inputs).run().unwrap();
    assert!(out.report.net.last_done.is_some());
    assert!(
        out.report.tree_depth >= 1,
        "cross-leaf reduction spans levels"
    );
    // Two-level aggregation changes the f32 summation order vs golden;
    // values must agree within accumulation tolerance.
    for r in out.ranks() {
        for (a, b) in r.iter().zip(&want) {
            assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
    // And every host must agree bitwise with every other host.
    for r in &out.ranks()[1..] {
        assert_eq!(r, &out.ranks()[0]);
    }
}

#[test]
fn min_and_max_operators_work_through_the_tree() {
    let inputs: Vec<Vec<i32>> = (0..6)
        .map(|h| dense_i32(3, h as u64, 777, -1000, 1000))
        .collect();

    let (topo, ft) = Topology::fat_tree_two_level(2, 3, 1, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    let want_min = golden_reduce(&Min, &inputs);
    let res = session.allreduce(inputs.clone()).op(Min).run().unwrap();
    assert_eq!(res.rank(0), &want_min[..]);

    // The same session runs the max collective — no rewiring.
    let want_max = golden_reduce(&Max, &inputs);
    let res = session.allreduce(inputs).op(Max).run().unwrap();
    assert_eq!(res.rank(5), &want_max[..]);
}

#[test]
fn data_that_is_not_a_multiple_of_the_packet_size_works() {
    let mut session = star_session(3);
    // 2600 elements: 10 full packets of 256 plus a 40-element tail.
    let n = 2600usize;
    let inputs: Vec<Vec<i32>> = (0..3).map(|h| vec![h + 1; n]).collect();
    let out = session.allreduce(inputs).run().unwrap();
    assert_eq!(out.rank(0), &vec![6i32; n][..]);
}

#[test]
fn in_network_allreduce_halves_host_traffic_vs_ring() {
    // The headline claim of Section 1: hosts send Z instead of ≈2Z.
    let mut session = star_session(8);
    let n = 4096usize;
    let inputs: Vec<Vec<i32>> = (0..8).map(|_| vec![1i32; n]).collect();
    let out = session.allreduce(inputs).run().unwrap();
    // Each host's Z = n×4 bytes goes up once and its result comes down
    // once, on each of the star's 8 edges: 16 packets of 256 elements and
    // a 16-byte header, 266 240 B in all.
    let blocks = (n / 256) as u64;
    let want = fabric::flare_link_bytes(blocks, 16 + 256 * 4, 8);
    assert_eq!(out.report.total_link_bytes(), want);
}
