//! The host-based baselines (ring, recursive doubling, SparCML) must be
//! functionally equivalent to the golden reduction both as pure functions
//! and when executed on the network simulator.

use flare::baselines::ring::{ring_allreduce, RingHost};
use flare::baselines::sparcml::{sparcml_allreduce, SparcmlHost};
use flare::core::host::result_sink;
use flare::core::op::{golden_reduce, Sum};
use flare::core::session::FlareSession;
use flare::net::{LinkSpec, NetSim, Topology};
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

#[test]
fn ring_transmits_roughly_twice_the_in_network_bytes() {
    // Section 1's motivating comparison in closed form: ring host traffic
    // ≈ 2Z per host vs Z for Flare (measured on the simulator by
    // `ring_link_bytes_are_2_p_minus_1_over_p_of_flares_on_a_star`).
    use flare::baselines::recdouble::{recdouble_bytes_per_host, ring_bytes_per_host};
    let z = 1u64 << 20;
    for p in [8usize, 16, 64] {
        // 2(P−1)/P·Z: 1.75Z at P=8, approaching 2Z as P grows.
        let ring = ring_bytes_per_host(z, p);
        assert!(ring > z * 17 / 10 && ring < 2 * z, "p={p}: {ring}");
        assert!(recdouble_bytes_per_host(z, p) >= ring);
    }
}

#[test]
fn ring_link_bytes_are_2_p_minus_1_over_p_of_flares_on_a_star() {
    // Section 1's comparison measured: a ring and a Flare dense allreduce
    // of the same Z on a star. A ring segment carries as many bytes as a
    // Flare packet, both add a 16-byte header, and Z/P is a whole number
    // of segments, so each run's link bytes have a closed form and their
    // ratio is exactly 2(P−1)/P.
    const PAYLOAD: u64 = 1024;
    const HEADER: u64 = 16;
    let z = 16 * 1024usize; // i32 elements
    for p in [4usize, 8, 16] {
        let inputs: Vec<Vec<i32>> = (0..p)
            .map(|r| (0..z).map(|i| (r * 31 + i) as i32).collect())
            .collect();
        let want = golden_reduce(&Sum, &inputs);
        let (topo, _sw, hosts) = Topology::star(p, LinkSpec::hundred_gig());
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

        let (topo, _sw, _hosts) = Topology::star(p, LinkSpec::hundred_gig());
        let out = FlareSession::builder(topo).build().allreduce(inputs).run();
        let out = out.expect("the star admits the allreduce");
        assert!(out.ranks().iter().all(|r| *r == want), "p={p}");
        let flare = out.report.total_link_bytes();

        // Packets on links. Ring: each host sends 2(P−1) chunks of Z/P,
        // and a segment crosses two links (host to switch to host). Flare:
        // each host sends Z up, and the switch sends the result down to
        // each host.
        let (p64, z_bytes) = (p as u64, 4 * z as u64);
        let ring_packets = 2 * p64 * 2 * (p64 - 1) * (z_bytes / p64 / PAYLOAD);
        let flare_packets = 2 * p64 * (z_bytes / PAYLOAD);
        assert_eq!(ring, ring_packets * (PAYLOAD + HEADER), "ring, p={p}");
        assert_eq!(flare, flare_packets * (PAYLOAD + HEADER), "flare, p={p}");
        assert_eq!(ring * p64, flare * 2 * (p64 - 1), "p={p}");
    }
}
