//! Integration coverage for the `FlareSession` / `Collective` builder API:
//! dense and sparse allreduce, on both a single-switch star and a two-level
//! fat tree, all checked against the golden sequential reduction.

use flare::prelude::*;
use flare::workloads::{dense_i32, densify_f32, sparsify_random_k};

/// Build one session per fabric shape: (label, session, participant count).
fn fabrics() -> Vec<(&'static str, FlareSession, usize)> {
    let (star, _sw, hosts) = Topology::star(6, LinkSpec::hundred_gig());
    let star_n = hosts.len();
    let (ft_topo, ft) = Topology::fat_tree_two_level(4, 3, 2, LinkSpec::hundred_gig());
    let ft_n = ft.hosts.len();
    vec![
        ("star", FlareSession::builder(star).build(), star_n),
        (
            "fat-tree",
            FlareSession::builder(ft_topo).hosts(ft.hosts).build(),
            ft_n,
        ),
    ]
}

fn golden_sparse(n: usize, inputs: &[Vec<(u32, f32)>]) -> Vec<f32> {
    let mut want = vec![0.0f32; n];
    for pairs in inputs {
        for (i, v) in densify_f32(pairs, n).into_iter().enumerate() {
            want[i] += v;
        }
    }
    want
}

#[test]
fn dense_allreduce_matches_golden_on_both_fabrics() {
    // Several blocks, and the smallest collective there is: one element
    // (the paper's barrier is an allreduce of next to no data).
    for elems in [2000, 1] {
        for (label, mut session, p) in fabrics() {
            let inputs: Vec<Vec<i32>> = (0..p)
                .map(|h| dense_i32(41, h as u64, elems, -500, 500))
                .collect();
            let want = golden_reduce(&Sum, &inputs);
            let out = session.allreduce(inputs).run().unwrap();
            assert_eq!(out.ranks().len(), p, "{label} {elems}");
            for (rank, r) in out.ranks().iter().enumerate() {
                assert_eq!(*r, want, "{label} {elems} rank {rank}");
            }
            assert!(out.report.completion_ns() > 0, "{label} {elems}");
            assert!(
                out.report.net.last_done.is_some(),
                "{label} {elems}: every rank observed completion"
            );
            assert_eq!(session.active_collectives(), 0, "{label}: auto-released");
        }
    }
}

#[test]
fn sparse_allreduce_matches_golden_on_both_fabrics() {
    for (label, mut session, p) in fabrics() {
        let n = 30_000usize;
        let inputs: Vec<Vec<(u32, f32)>> = (0..p)
            .map(|h| sparsify_random_k(17, h as u64, n, 0.02))
            .collect();
        let want = golden_sparse(n, &inputs);
        let out = session
            .sparse_allreduce(n, inputs)
            .policy(SparsePolicy {
                hash_slots: 512,
                spill_cap: 64,
                span: 2560,
                array_at_root: true,
            })
            .run()
            .unwrap();
        for (rank, got) in out.ranks().iter().enumerate() {
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                    "{label} rank {rank} elem {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn one_session_runs_many_collectives_back_to_back() {
    // The session is a long-lived object: dense and sparse collectives of
    // different element types reuse the same manager and topology with no
    // rewiring.
    let (topo, ft) = Topology::fat_tree_two_level(2, 4, 2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    let p = 8usize;

    let dense: Vec<Vec<f32>> = (0..p).map(|h| vec![h as f32; 512]).collect();
    let want = golden_reduce(&Sum, &dense);
    let d = session.allreduce(dense).named("step.dense").run().unwrap();
    assert_eq!(d.rank(0), &want[..]);

    let n = 10_000usize;
    let sparse: Vec<Vec<(u32, f32)>> = (0..p)
        .map(|h| sparsify_random_k(3, h as u64, n, 0.01))
        .collect();
    let want_s = golden_sparse(n, &sparse);
    let s = session.sparse_allreduce(n, sparse).run().unwrap();
    for (a, b) in s.rank(0).iter().zip(&want_s) {
        assert!((a - b).abs() < 1e-4);
    }

    let r = session.allreduce(vec![vec![7i32; 64]; p]).run().unwrap();
    for rank in r.ranks() {
        assert_eq!(*rank, vec![7 * p as i32; 64]);
    }
    assert_eq!(session.active_collectives(), 0);

    // Collective ids stay unique across the whole session lifetime.
    let ids = [
        d.report.collective,
        s.report.collective,
        r.report.collective,
    ];
    assert!(ids.windows(2).all(|w| w[0] != w[1]), "{ids:?}");
}

#[test]
fn window_and_seed_overrides_are_respected() {
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let inputs: Vec<Vec<i32>> = (0..4).map(|h| vec![h; 4096]).collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session
        .allreduce(inputs)
        .window(2) // tiny window: more round-trips, same answer
        .seed(99)
        .run()
        .unwrap();
    assert_eq!(out.report.window, 2);
    assert_eq!(out.rank(0), &want[..]);
}
