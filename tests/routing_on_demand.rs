//! Routing is paid for per destination actually addressed: an in-network
//! collective talks only to tree neighbours and builds no routing column;
//! a host-based ring builds one per ring successor.

use std::any::Any;

use flare::baselines::ring::RingHost;
use flare::core::host::{result_sink, DenseFlareHost, HostConfig, SharedResults};
use flare::core::op::{golden_reduce, Sum};
use flare::core::switch_prog::{FlareSwitch, TreePlacement};
use flare::net::{LinkSpec, NetSim, SwitchModel, Topology};

const ELEMS: usize = 4096;

fn input(rank: usize) -> Vec<i32> {
    (0..ELEMS).map(|i| (rank * 7 + i % 13) as i32).collect()
}

/// Every rank's result, in rank order, is the reduction of every input.
fn assert_all_reduced(results: &[Option<Vec<i32>>]) {
    let inputs: Vec<Vec<i32>> = (0..results.len()).map(input).collect();
    let want = Some(golden_reduce(&Sum, &inputs));
    for (rank, result) in results.iter().enumerate() {
        assert_eq!(result, &want, "rank {rank}");
    }
}

#[test]
fn dense_allreduce_on_a_fat_tree_builds_no_routing_column() {
    let (topo, ft) = Topology::fat_tree_two_level(16, 4, 4, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 3);
    // Reduction tree: spine 0 over every leaf, each leaf over its hosts.
    let root = ft.spines[0];
    let place = |parent, children, my_child_index| TreePlacement {
        allreduce: 1,
        parent,
        children,
        my_child_index,
    };
    sim.install_switch(
        root,
        Box::new(FlareSwitch::<i32, Sum>::dense(
            place(None, ft.leaves.clone(), 0),
            Sum,
        )),
        SwitchModel::calibrated(),
    );
    for (l, &leaf) in ft.leaves.iter().enumerate() {
        let hosts = ft.hosts[l * ft.hosts_per_leaf..][..ft.hosts_per_leaf].to_vec();
        sim.install_switch(
            leaf,
            Box::new(FlareSwitch::<i32, Sum>::dense(
                place(Some(root), hosts, l as u16),
                Sum,
            )),
            SwitchModel::calibrated(),
        );
    }
    for (rank, &h) in ft.hosts.iter().enumerate() {
        let cfg = HostConfig {
            allreduce: 1,
            leaf: ft.leaf_of(rank),
            child_index: (rank % ft.hosts_per_leaf) as u16,
            window: 8,
            stagger_offset: (rank % 4) as u64,
            retransmit_after: None,
            iteration: 0,
        };
        sim.install_host(h, Box::new(DenseFlareHost::new(cfg, 256, input(rank))));
    }
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "allreduce must complete");
    let results: Vec<Option<Vec<i32>>> = (ft.hosts.iter())
        .map(|&h| {
            let host: Box<dyn Any> = sim.take_host(h).expect("installed");
            let mut host = host
                .downcast::<DenseFlareHost<i32>>()
                .expect("a dense host");
            let result = host.take_result(&mut SharedResults::default());
            result.map(|r| r.to_vec())
        })
        .collect();
    assert_all_reduced(&results);
    assert_eq!(
        sim.routing().columns_built(),
        0,
        "every hop of the collective addresses a tree neighbour"
    );
}

#[test]
fn ring_builds_one_column_per_successor_under_either_driver() {
    let (topo, ft) = Topology::fat_tree_two_level(16, 4, 4, LinkSpec::hundred_gig());
    let mut sim = NetSim::new(topo, 3);
    let mut sinks = Vec::new();
    for (rank, &h) in ft.hosts.iter().enumerate() {
        let sink = result_sink();
        sinks.push(sink.clone());
        let host = RingHost::new(rank, ft.hosts.clone(), 9, Sum, input(rank), 1024, sink);
        sim.install_host(h, Box::new(host));
    }
    let report = sim.run(None);
    assert!(report.last_done.is_some(), "ring must complete");
    let results: Vec<Option<Vec<i32>>> = sinks.iter().map(|s| s.lock().unwrap().take()).collect();
    assert_all_reduced(&results);
    // Every host is the ring successor of exactly one other host, and no
    // host is adjacent to another: 64 distinct non-neighbour destinations.
    assert_eq!(sim.routing().columns_built(), 64);
}
