//! The host-based baselines (ring, recursive doubling, SparCML) must be
//! functionally equivalent to the golden reduction both as pure functions
//! and when executed on the network simulator.

use flare::baselines::ring::{ring_allreduce, RingHost};
use flare::baselines::sparcml::{sparcml_allreduce, SparcmlHost};
use flare::core::host::result_sink;
use flare::core::op::{golden_reduce, Max, Min, Prod, ReduceOp, Sum};
use flare::core::session::FlareSession;
use flare::model::fabric;
use flare::net::{LinkSpec, NetReport, NetSim, NodeId, Topology};
use flare::workloads::{densify_f32, sparsify_random_k};

#[test]
fn simulated_ring_matches_functional_ring_on_a_star() {
    let (topo, _sw, hosts) = Topology::star(6, LinkSpec::hundred_gig());
    let n = 1800usize;
    let inputs: Vec<Vec<i32>> = (0..6)
        .map(|r| (0..n).map(|i| (r * 31 + i) as i32).collect())
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    assert_eq!(ring_allreduce(&Sum, &inputs), want);

    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        sim.install_host(
            h,
            Box::new(RingHost::new(
                rank,
                hosts.clone(),
                42,
                Sum,
                inputs[rank].clone(),
                4096,
                sink,
            )),
        );
    }
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "ring must complete");
    for (rank, sink) in sinks.iter().enumerate() {
        assert_eq!(sink.lock().unwrap().as_ref().unwrap(), &want, "rank {rank}");
    }
}

#[test]
fn simulated_ring_on_fat_tree_counts_cross_leaf_hops() {
    let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
    let n = 400usize;
    let inputs: Vec<Vec<i32>> = (0..4).map(|r| vec![r + 1; n]).collect();
    let want = golden_reduce(&Sum, &inputs);
    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, &h) in ft.hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        sim.install_host(
            h,
            Box::new(RingHost::new(
                rank,
                ft.hosts.clone(),
                42,
                Sum,
                inputs[rank].clone(),
                1024,
                sink,
            )),
        );
    }
    let report = sim.run(None);
    for sink in &sinks {
        assert_eq!(sink.lock().unwrap().as_ref().unwrap(), &want);
    }
    // Ring neighbours 1→2 and 3→0 cross the spine (4 hops), others stay
    // within a leaf (2 hops): traffic must exceed the all-intra bound.
    let payload: u64 = 2 * 3 * (n as u64 * 4); // 2(P−1)/P·Z per host × P hosts
    assert!(report.total_link_bytes > payload * 2);
}

#[test]
fn simulated_sparcml_matches_functional_and_golden() {
    let (topo, _sw, hosts) = Topology::star(8, LinkSpec::hundred_gig());
    let n = 8_192usize;
    let inputs: Vec<Vec<(u32, f32)>> = (0..8)
        .map(|h| sparsify_random_k(3, h as u64, n, 0.02))
        .collect();
    let functional = sparcml_allreduce(&Sum, n, &inputs);
    let mut want = vec![0.0f32; n];
    for pairs in &inputs {
        for (i, v) in densify_f32(pairs, n).into_iter().enumerate() {
            want[i] += v;
        }
    }
    for (a, b) in functional.iter().zip(&want) {
        assert!((a - b).abs() < 1e-4);
    }

    let mut sim = NetSim::new(topo, 9);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        sim.install_host(
            h,
            Box::new(SparcmlHost::new(
                rank,
                hosts.clone(),
                7,
                Sum,
                n,
                inputs[rank].clone(),
                2048,
                sink,
            )),
        );
    }
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "sparcml must complete");
    for sink in &sinks {
        for (a, b) in sink.lock().unwrap().as_ref().unwrap().iter().zip(&want) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}

#[test]
fn sparcml_switches_to_dense_when_data_densifies() {
    // Density high enough that the union exceeds the dense break-even:
    // the run must still be correct (exercising the dense-segment path).
    let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let n = 1000usize;
    let inputs: Vec<Vec<(u32, f32)>> = (0..4)
        .map(|h| sparsify_random_k(31, h as u64, n, 0.7))
        .collect();
    let want = sparcml_allreduce(&Sum, n, &inputs);
    let mut sim = NetSim::new(topo, 2);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        sim.install_host(
            h,
            Box::new(SparcmlHost::new(
                rank,
                hosts.clone(),
                7,
                Sum,
                n,
                inputs[rank].clone(),
                512,
                sink,
            )),
        );
    }
    sim.run(None);
    for sink in &sinks {
        for (a, b) in sink.lock().unwrap().as_ref().unwrap().iter().zip(&want) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}

/// Section 1's comparison measured: the link bytes of a ring and of a
/// Flare dense allreduce of the same `z` i32 elements per host over the
/// hosts of `fabric`, in that order, each result checked against the
/// golden reduction. A ring segment carries as many bytes as a Flare
/// packet, [`PAYLOAD`], and both add a 16-byte [`HEADER`].
fn ring_and_flare_link_bytes(fabric: impl Fn() -> (Topology, Vec<NodeId>), z: usize) -> [u64; 2] {
    let (topo, hosts) = fabric();
    let p = hosts.len();
    let inputs: Vec<Vec<i32>> = (0..p)
        .map(|r| (0..z).map(|i| (r * 31 + i) as i32).collect())
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let data = inputs[rank].clone();
        let host = RingHost::new(rank, hosts.clone(), 42, Sum, data, PAYLOAD as usize, sink);
        sim.install_host(h, Box::new(host));
    }
    let ring = sim.run(None).total_link_bytes;
    for (rank, sink) in sinks.iter().enumerate() {
        assert_eq!(sink.lock().unwrap().as_ref().unwrap(), &want, "rank {rank}");
    }

    let (topo, hosts) = fabric();
    let mut session = FlareSession::builder(topo).hosts(hosts).build();
    let out = session.allreduce(inputs).run();
    let out = out.expect("the fabric admits the allreduce");
    assert!(out.ranks().iter().all(|r| *r == want), "p={p}");
    [ring, out.report.total_link_bytes()]
}

const PAYLOAD: u64 = 1024;
const HEADER: u64 = 16;

#[test]
fn ring_link_bytes_are_2_p_minus_1_over_p_of_flares_on_a_star() {
    // Z/P is a whole number of segments, so each run's link bytes have a
    // closed form and their ratio is exactly 2(P−1)/P.
    let z = 16 * 1024usize; // i32 elements
    for p in [4usize, 8, 16] {
        let star = || {
            let (topo, _sw, hosts) = Topology::star(p, LinkSpec::hundred_gig());
            (topo, hosts)
        };
        let [ring, flare] = ring_and_flare_link_bytes(star, z);

        // A star is one leaf: each ring segment crosses two links (host to
        // switch to host), and Flare's tree has one edge per host.
        let (p64, z_bytes) = (p as u64, 4 * z as u64);
        let ring_bytes = fabric::ring_link_bytes(p64, 1, z_bytes, PAYLOAD, HEADER);
        let flare_bytes = fabric::flare_link_bytes(z_bytes / PAYLOAD, PAYLOAD + HEADER, p64);
        assert_eq!(ring, ring_bytes, "ring, p={p}");
        assert_eq!(flare, flare_bytes, "flare, p={p}");
        assert_eq!(ring * p64, flare * 2 * (p64 - 1), "p={p}");
    }
}

#[test]
fn ring_and_flare_link_bytes_on_a_fat_tree_have_closed_forms() {
    // Ranks go leaf by leaf, so L ring pairs straddle two leaves. Flare's
    // tree has P host–leaf edges and L leaf–root-spine edges.
    let z = 16 * 1024usize; // i32 elements
    for (leaves, per_leaf, spines) in [(2usize, 4usize, 2usize), (4, 4, 2)] {
        let fat_tree = || {
            let spec = LinkSpec::hundred_gig();
            let (topo, ft) = Topology::fat_tree_two_level(leaves, per_leaf, spines, spec);
            (topo, ft.hosts)
        };
        let [ring, flare] = ring_and_flare_link_bytes(fat_tree, z);

        let (p, l, z_bytes) = ((leaves * per_leaf) as u64, leaves as u64, 4 * z as u64);
        let ring_bytes = fabric::ring_link_bytes(p, l, z_bytes, PAYLOAD, HEADER);
        let flare_bytes = fabric::flare_link_bytes(z_bytes / PAYLOAD, PAYLOAD + HEADER, p + l);
        let shape = format!("{leaves} leaves of {per_leaf}");
        assert_eq!(ring, ring_bytes, "ring, {shape}");
        assert_eq!(flare, flare_bytes, "flare, {shape}");
    }
}

/// Each rank of a SparCML run under `op` over the hosts of `topo` (rank
/// order), its report and every rank's result.
fn sparcml_run<O: ReduceOp<f32> + Clone + 'static>(
    op: O,
    topo: Topology,
    hosts: &[NodeId],
    seed: u64,
    n: usize,
    inputs: &[Vec<(u32, f32)>],
    segment_bytes: usize,
) -> (NetReport, Vec<Vec<f32>>) {
    let mut sim = NetSim::new(topo, seed);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let pairs = inputs[rank].clone();
        let host = SparcmlHost::new(
            rank,
            hosts.to_vec(),
            7,
            op.clone(),
            n,
            pairs,
            segment_bytes,
            sink,
        );
        sim.install_host(h, Box::new(host));
    }
    let report = sim.run(None);
    let results = sinks.iter().map(|s| s.lock().unwrap().take().unwrap());
    (report, results.collect())
}

#[test]
fn host_baselines_are_pinned() {
    // `last_done`, link bytes, link packets and the order digest of a ring
    // and of SparCML on its sparse and on its dense path (the runs above):
    // the packets, their order and their wire bytes, bit for bit.
    let pin = |report: &NetReport| {
        [
            report.last_done.unwrap(),
            report.total_link_bytes,
            report.total_link_packets,
            report.order_digest,
        ]
    };

    let (topo, _sw, hosts) = Topology::star(6, LinkSpec::hundred_gig());
    let n = 1800usize;
    let inputs: Vec<Vec<i32>> = (0..6)
        .map(|r| (0..n).map(|i| (r * 31 + i) as i32).collect())
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let host = RingHost::new(
            rank,
            hosts.clone(),
            42,
            Sum,
            inputs[rank].clone(),
            4096,
            sink,
        );
        sim.install_host(h, Box::new(host));
    }
    let report = sim.run(None);
    for sink in &sinks {
        assert_eq!(sink.lock().unwrap().as_ref().unwrap(), &want);
    }
    assert_eq!(
        pin(&report),
        [5960, 145920, 120, 7391286584362134117],
        "ring"
    );

    // (hosts, input seed, elements, density, sim seed, segment bytes)
    for (name, (hosts, input_seed, n, density, seed, segment_bytes), want) in [
        (
            "sparse",
            (8, 3, 8_192, 0.02, 9, 2048),
            [2371, 145472, 96, 1979034104198060091],
        ),
        (
            "dense switch-over",
            (4, 31, 1000, 0.7, 2, 512),
            [1558, 66048, 128, 11316704738106150434],
        ),
    ] {
        let (topo, _sw, hosts) = Topology::star(hosts, LinkSpec::hundred_gig());
        let inputs: Vec<Vec<(u32, f32)>> = (0..hosts.len())
            .map(|h| sparsify_random_k(input_seed, h as u64, n, density))
            .collect();
        let (report, results) = sparcml_run(Sum, topo, &hosts, seed, n, &inputs, segment_bytes);
        let functional = sparcml_allreduce(&Sum, n, &inputs);
        for got in &results {
            for (a, b) in got.iter().zip(&functional) {
                assert!((a - b).abs() < 1e-4, "{name}: {a} vs {b}");
            }
        }
        assert_eq!(pin(&report), want, "SparCML, {name}");
    }
}

#[test]
fn sparcml_survives_a_peer_that_runs_a_round_ahead() {
    // Rank 1 holds 20 000 pairs, every other rank one. Ranks 2 and 3 finish
    // round 0 at once and rank 2 sends its round 1 to rank 0, which is
    // still receiving rank 1's round 0: the early packet must wait for its
    // round instead of being merged into the current one.
    let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let n = 100_000usize;
    let inputs: Vec<Vec<(u32, f32)>> = (0..4usize)
        .map(|r| {
            let k = if r == 1 { 20_000 } else { 1 };
            (0..k)
                .map(|i| ((i * 5 + r) as u32, 1.0 + r as f32))
                .collect()
        })
        .collect();
    let want = sparcml_allreduce(&Sum, n, &inputs);
    let (report, results) = sparcml_run(Sum, topo, &hosts, 1, n, &inputs, 2048);
    assert!(report.last_done.is_some(), "sparcml must complete");
    for (rank, got) in results.iter().enumerate() {
        let wrong = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(wrong, 0, "rank {rank}: {wrong} wrong values");
    }
}

#[test]
fn sparcml_reduces_like_its_reference_under_max_min_and_prod() {
    // Operators whose identity is not 0: a new index is taken as sent, not
    // combined with 0, and no round switches to the dense vector, whose
    // zeros would read as absent pairs. Rank 0 holds more than half the
    // indexes (Sum would send it dense), some as explicit zeros; the other
    // ranks hold a few, negative and positive, overlapping rank 0's.
    fn check<O: ReduceOp<f32> + Clone + 'static>(op: O) {
        let n = 512usize;
        for p in [2usize, 4] {
            let (topo, _sw, hosts) = Topology::star(p, LinkSpec::hundred_gig());
            let inputs: Vec<Vec<(u32, f32)>> = (0..p)
                .map(|r| {
                    let pick = |i: usize| {
                        if r == 0 {
                            !i.is_multiple_of(5)
                        } else {
                            i % 9 == r
                        }
                    };
                    let value = |i: usize| match (i + r) % 7 {
                        0 => 0.0,
                        k => (k as f32 - 3.5) * 0.5 * (1 + r) as f32,
                    };
                    let pairs = (0..n).filter(|&i| pick(i)).map(|i| (i as u32, value(i)));
                    pairs.collect()
                })
                .collect();
            assert!(inputs[0].len() * 8 >= n * 4, "Sum would send rank 0 dense");
            let want = sparcml_allreduce(&op, n, &inputs);
            let (report, results) = sparcml_run(op.clone(), topo, &hosts, 1, n, &inputs, 256);
            assert!(report.last_done.is_some(), "{} on {p} hosts", op.name());
            for (rank, got) in results.iter().enumerate() {
                let wrong = got.iter().zip(&want).filter(|(a, b)| a != b).count();
                assert_eq!(wrong, 0, "{} on {p} hosts, rank {rank}", op.name());
            }
        }
    }
    check(Max);
    check(Min);
    check(Prod);
}

#[test]
fn simulated_ring_completes_with_fewer_elements_than_hosts() {
    // Three of eight chunks are empty: a step that sends nothing still
    // sends its (empty) last packet, so the receiving step completes.
    let (topo, _sw, hosts) = Topology::star(8, LinkSpec::hundred_gig());
    let inputs: Vec<Vec<i32>> = (0..8)
        .map(|r| (0..5).map(|i| r * 10 + i).collect())
        .collect();
    let want = golden_reduce(&Sum, &inputs);
    let mut sim = NetSim::new(topo, 1);
    let mut sinks = Vec::new();
    for (rank, &h) in hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let host = RingHost::new(
            rank,
            hosts.clone(),
            42,
            Sum,
            inputs[rank].clone(),
            1024,
            sink,
        );
        sim.install_host(h, Box::new(host));
    }
    assert!(sim.run(None).last_done.is_some(), "ring must complete");
    for (rank, sink) in sinks.iter().enumerate() {
        assert_eq!(sink.lock().unwrap().as_ref().unwrap(), &want, "rank {rank}");
    }
}
