//! Reproducibility (F3, paper Section 6.3): tree aggregation must produce
//! bitwise-identical f32 results for any packet arrival order; single- and
//! multi-buffer aggregation do not (which is why Flare's policy forces
//! tree when reproducibility is requested).

use bytes::Bytes;

use flare::core::handlers::{DenseAllreduceHandler, DenseHandlerConfig};
use flare::core::op::Sum;
use flare::core::wire::{encode_dense, Header, PacketKind};
use flare::model::{select_algorithm, AggKind, SwitchParams};
use flare::pspin::engine::run_trace;
use flare::pspin::{ArrivalTrace, PspinConfig, SchedulingPolicy, StaggerMode, TraceConfig};
use flare::workloads::dense_uniform_f32;

fn contrib(block: u64, child: u16, vals: &[f32]) -> Bytes {
    let h = Header {
        allreduce: 1,
        block: block as u32,
        child,
        kind: PacketKind::DenseContrib,
        last_shard: false,
        shard_count: 0,
        elem_count: 0,
    };
    encode_dense(h, vals)
}

fn cfg() -> PspinConfig {
    PspinConfig {
        params: SwitchParams {
            clusters: 2,
            cores_per_cluster: 4,
            ..SwitchParams::paper()
        },
        policy: SchedulingPolicy::Hierarchical { subset_size: 4 },
        ..PspinConfig::paper()
    }
}

/// Run one allreduce block set on the PsPIN engine with a given arrival
/// seed and return the per-block f32 results (bit patterns).
fn run_with_seed(algorithm: AggKind, seed: u64, jitter: bool) -> Vec<Vec<u32>> {
    let children = 8usize;
    let blocks = 4u64;
    let n = 64usize;
    // Adversarial values: mixing magnitudes makes f32 order-sensitive.
    let data: Vec<Vec<Vec<f32>>> = (0..children)
        .map(|c| {
            (0..blocks)
                .map(|b| {
                    dense_uniform_f32(99, (c as u64) << 8 | b, n, -1.0, 1.0)
                        .into_iter()
                        .map(|x| x * 10f32.powi((c % 5) as i32 * 3 - 6))
                        .collect()
                })
                .collect()
        })
        .collect();
    let trace = TraceConfig {
        flow: 1,
        children,
        blocks,
        header_bytes: 0,
        delta: 2,
        stagger: StaggerMode::None,
        exponential_jitter: jitter,
        seed,
    };
    let arrivals =
        ArrivalTrace::generate(&trace, |c, b| contrib(b, c, &data[c as usize][b as usize]));
    let handler: DenseAllreduceHandler<f32, Sum> = DenseAllreduceHandler::new(
        DenseHandlerConfig {
            allreduce: 1,
            children: children as u16,
            algorithm,
            capture_results: true,
        },
        Sum,
    );
    let (report, engine) = run_trace(cfg(), handler, arrivals, false);
    assert_eq!(report.blocks_completed, blocks);
    let mut results: Vec<(u64, Vec<f32>)> = engine.handler().results().to_vec();
    results.sort_by_key(|&(b, _)| b);
    results
        .into_iter()
        .map(|(_, v)| v.into_iter().map(f32::to_bits).collect())
        .collect()
}

#[test]
fn tree_aggregation_is_bitwise_reproducible_across_arrival_orders() {
    let reference = run_with_seed(AggKind::Tree, 1, true);
    for seed in 2..12 {
        let other = run_with_seed(AggKind::Tree, seed, true);
        assert_eq!(reference, other, "seed {seed} changed tree results");
    }
}

#[test]
fn single_buffer_is_not_reproducible_under_reordering() {
    // At least one jitter seed must produce a different bit pattern —
    // demonstrating why the paper needs tree aggregation for F3.
    let reference = run_with_seed(AggKind::SingleBuffer, 1, true);
    let diverged =
        (2..30).any(|seed| run_with_seed(AggKind::SingleBuffer, seed, true) != reference);
    assert!(
        diverged,
        "expected f32 single-buffer results to depend on arrival order"
    );
}

#[test]
fn multi_buffer_is_not_reproducible_under_reordering() {
    let reference = run_with_seed(AggKind::MultiBuffer(2), 1, true);
    let diverged =
        (2..30).any(|seed| run_with_seed(AggKind::MultiBuffer(2), seed, true) != reference);
    assert!(
        diverged,
        "expected multi-buffer results to depend on arrival order"
    );
}

#[test]
fn deterministic_traces_give_deterministic_results_for_every_algorithm() {
    // Same seed ⇒ same everything, even for order-sensitive algorithms:
    // the whole stack is deterministic.
    for algorithm in [
        AggKind::SingleBuffer,
        AggKind::MultiBuffer(4),
        AggKind::Tree,
    ] {
        let a = run_with_seed(algorithm, 77, true);
        let b = run_with_seed(algorithm, 77, true);
        assert_eq!(a, b, "{algorithm:?}");
    }
}

#[test]
fn policy_guarantees_reproducibility_when_requested() {
    for bytes in [1u64 << 10, 200 << 10, 300 << 10, 2 << 20] {
        assert_eq!(select_algorithm(bytes, true), AggKind::Tree);
        assert!(select_algorithm(bytes, true).reproducible());
    }
}

/// Loss injection is driven by per-link RNG streams derived from the run
/// seed (`flare_net::NetSim`), so a lossy run — drops, retransmissions,
/// replays and all — must be bitwise-reproducible: same seed, same
/// everything; different seed, different drop set.
#[test]
fn lossy_runs_are_bitwise_reproducible_per_seed() {
    use flare::core::session::FlareSession;
    use flare::net::{LinkSpec, Topology};

    let run = |seed: u64| {
        let (topo, _sw, _hosts) = Topology::star(6, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .link_drop_prob(0.08)
            .retransmit_after(Some(150_000))
            .seed(seed)
            .build();
        // Adversarial f32 magnitudes: any change in fold order under
        // retransmission would change the bit patterns.
        let inputs: Vec<Vec<f32>> = (0..6i32)
            .map(|h| {
                dense_uniform_f32(31, h as u64, 2048, -1.0, 1.0)
                    .into_iter()
                    .map(|x| x * 10f32.powi((h % 4) * 3 - 5))
                    .collect()
            })
            .collect();
        let dense = session.allreduce(inputs).run().expect("dense lossy run");
        let dense_bits: Vec<Vec<u32>> = dense
            .ranks()
            .iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect();
        let pairs: Vec<Vec<(u32, f32)>> = (0..6)
            .map(|h| (0..300).map(|i| ((i * 40 + h) as u32, 0.5f32)).collect())
            .collect();
        let sparse = session
            .sparse_allreduce(12_000, pairs)
            .run()
            .expect("sparse lossy run");
        let sparse_bits: Vec<u32> = sparse.rank(0).iter().map(|x| x.to_bits()).collect();
        (
            dense.report.net.makespan,
            dense.report.drops(),
            dense.report.net.events,
            dense_bits,
            sparse.report.net.makespan,
            sparse.report.drops(),
            sparse_bits,
        )
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "same seed must reproduce the lossy run exactly");
    assert!(a.1 > 0 && a.5 > 0, "loss must actually trigger");
    let c = run(10);
    assert_ne!(
        (a.1, a.5),
        (c.1, c.5),
        "a different seed should draw a different drop set"
    );
}

/// A full 128-host fat-tree allreduce (Canary/Swing scale, affordable
/// since the ladder event queue) run twice through the session API: the
/// batched same-timestamp draining must leave makespan, traffic, event
/// count and every rank's f32 result bit-identical across runs.
#[test]
fn fat_tree_128_hosts_is_bitwise_reproducible() {
    use flare::core::op::Sum;
    use flare::core::session::FlareSession;
    use flare::net::{LinkSpec, Topology};

    let run_once = || {
        let (topo, ft) = Topology::fat_tree_two_level(16, 8, 16, LinkSpec::hundred_gig());
        assert_eq!(ft.hosts.len(), 128);
        let inputs: Vec<Vec<f32>> = (0..128i32)
            .map(|h| {
                dense_uniform_f32(4242, h as u64, 4096, -1.0, 1.0)
                    .into_iter()
                    .map(|x| x * 10f32.powi((h % 5) * 2 - 4))
                    .collect()
            })
            .collect();
        let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
        let out = session
            .allreduce(inputs)
            .op(Sum)
            .run()
            .expect("128-host run");
        let bits: Vec<Vec<u32>> = out
            .ranks()
            .iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect();
        (
            out.report.net.makespan,
            out.report.net.events,
            out.report.net.total_link_bytes,
            bits,
        )
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0, "makespan must be deterministic");
    assert_eq!(a.1, b.1, "event count must be deterministic");
    assert_eq!(a.2, b.2, "traffic must be deterministic");
    assert_eq!(a.3, b.3, "per-rank results must be bit-identical");
    // Every rank of an allreduce receives the same reduction.
    for rank in 1..a.3.len() {
        assert_eq!(a.3[0], a.3[rank], "rank {rank} diverged from rank 0");
    }
}
