//! Network topology: nodes, links, builders and routing.
//!
//! Topologies are simple undirected port graphs: every connection occupies
//! one port on each endpoint and is a full-duplex link with independent
//! per-direction serialization. Routing is destination-based shortest-path
//! with deterministic ECMP (hash of the flow picks among equal-cost next
//! hops, so a flow always follows one path and delivery within a flow is
//! ordered).

use std::cell::OnceCell;
use std::collections::VecDeque;

use flare_des::rng::splitmix64;
use flare_des::Time;

/// A node (host or switch) in the topology.
///
/// Deliberately `u32`: a `NodeId` rides in every [`crate::NetPacket`] and
/// every event moved through the simulator's ladder queue, so narrowing it
/// (4 B instead of a machine word) directly cuts the bytes copied per
/// packet hop. Four billion nodes is far beyond any simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A port index local to a node.
///
/// `u16` for the same hot-path layout reason as [`NodeId`]; switch radix
/// never approaches 65 k ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u16);

impl PortId {
    /// The port as a `usize` index into a node's port table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in Gbps.
    pub gbps: f64,
    /// Propagation latency in ns.
    pub latency_ns: Time,
}

impl LinkSpec {
    /// The paper's Figure 15 links: 100 Gbps, with a typical switch-to-NIC
    /// propagation + forwarding latency of 200 ns.
    pub fn hundred_gig() -> Self {
        Self {
            gbps: 100.0,
            latency_ns: 200,
        }
    }

    /// Serialization time in ns for a packet of `bytes` bytes.
    pub fn serialize_ns(&self, bytes: u32) -> Time {
        // bytes * 8 bits / (gbps Gb/s) = bytes * 8 / gbps ns
        ((bytes as f64 * 8.0 / self.gbps).ceil() as Time).max(1)
    }

    /// Bandwidth in bytes per ns.
    pub fn bytes_per_ns(&self) -> f64 {
        self.gbps / 8.0
    }
}

/// Whether a node is a host endpoint or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (runs a `HostProgram`).
    Host,
    /// A switch (forwards; may run a `SwitchProgram`).
    Switch,
}

/// One endpoint's view of a link.
#[derive(Debug, Clone, Copy)]
pub struct PortLink {
    /// The link id.
    pub link: usize,
    /// The peer node.
    pub peer: NodeId,
}

/// A full-duplex link between two node ports.
#[derive(Debug, Clone)]
pub struct Link {
    /// Endpoint A `(node, port)`.
    pub a: (NodeId, PortId),
    /// Endpoint B `(node, port)`.
    pub b: (NodeId, PortId),
    /// Physical parameters.
    pub spec: LinkSpec,
}

/// The network graph.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    /// Per node: ports in index order.
    ports: Vec<Vec<PortLink>>,
    links: Vec<Link>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name.into())
    }

    /// Add a switch node.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name.into())
    }

    fn add_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name);
        self.ports.push(Vec::new());
        id
    }

    /// Connect two nodes with a link; allocates the next free port on each.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> usize {
        assert_ne!(a, b, "self-links are not allowed");
        let link = self.links.len();
        let next_port = |ports: &[PortLink]| {
            PortId(u16::try_from(ports.len()).expect("node is out of u16 port indices"))
        };
        let pa = next_port(&self.ports[a.index()]);
        let pb = next_port(&self.ports[b.index()]);
        self.ports[a.index()].push(PortLink { link, peer: b });
        self.ports[b.index()].push(PortLink { link, peer: a });
        self.links.push(Link {
            a: (a, pa),
            b: (b, pb),
            spec,
        });
        link
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Node display name.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// All hosts, in id order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .map(|i| NodeId(i as u32))
            .filter(|&n| self.kind(n) == NodeKind::Host)
            .collect()
    }

    /// All switches, in id order.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .map(|i| NodeId(i as u32))
            .filter(|&n| self.kind(n) == NodeKind::Switch)
            .collect()
    }

    /// Ports of a node.
    pub fn ports_of(&self, n: NodeId) -> &[PortLink] {
        &self.ports[n.index()]
    }

    /// Link record.
    pub fn link(&self, id: usize) -> &Link {
        &self.links[id]
    }

    /// The port of `from` whose link peers with `to`, if directly connected.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        self.ports[from.index()]
            .iter()
            .position(|pl| pl.peer == to)
            .map(|i| PortId(i as u16))
    }

    /// Destination-based shortest-path routing with ECMP by `hash(flow)`.
    ///
    /// Costs one pass over the ports: the per-destination next-hop
    /// columns are built on first use (see [`Routing`]).
    pub fn build_routing(&self) -> Routing {
        let n = self.node_count();
        let mut adj = Vec::with_capacity(n + 1);
        let mut peers = Vec::with_capacity(2 * self.links.len());
        let mut by_peer: Vec<(u32, u16)> = Vec::with_capacity(2 * self.links.len());
        adj.push(0);
        for ports in &self.ports {
            let start = by_peer.len();
            for (pi, pl) in ports.iter().enumerate() {
                peers.push(pl.peer.0);
                by_peer.push((pl.peer.0, pi as u16));
            }
            by_peer[start..].sort_unstable();
            adj.push(u32::try_from(peers.len()).expect("port count exceeds u32"));
        }
        let (nbr_peers, nbr_ports) = by_peer.into_iter().unzip();
        Routing {
            adj,
            peers,
            nbr_peers,
            nbr_ports,
            columns: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Build the paper's Figure 15 network: a 2-level fat tree with
    /// `leaves` leaf switches of `hosts_per_leaf` hosts each, every leaf
    /// connected to every one of `spines` spine switches.
    ///
    /// The paper's configuration is `fat_tree_two_level(16, 4, 4, …)`:
    /// 64 hosts, leaf radix 8 (4 down + 4 up). Note the implied spine
    /// radix is `leaves` (16) — a 64-host 2-level tree is not wireable with
    /// all-radix-8 switches; we keep the paper's host count and leaf radix
    /// and let spines take the extra ports (documented in DESIGN.md).
    pub fn fat_tree_two_level(
        leaves: usize,
        hosts_per_leaf: usize,
        spines: usize,
        spec: LinkSpec,
    ) -> (Self, FatTree) {
        let mut topo = Self::new();
        let mut hosts = Vec::new();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|l| topo.add_switch(format!("leaf{l}")))
            .collect();
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|s| topo.add_switch(format!("spine{s}")))
            .collect();
        for (l, &leaf) in leaf_ids.iter().enumerate() {
            for h in 0..hosts_per_leaf {
                let host = topo.add_host(format!("h{}", l * hosts_per_leaf + h));
                topo.connect(host, leaf, spec);
                hosts.push(host);
            }
        }
        for &leaf in &leaf_ids {
            for &spine in &spine_ids {
                topo.connect(leaf, spine, spec);
            }
        }
        (
            topo,
            FatTree {
                hosts,
                leaves: leaf_ids,
                spines: spine_ids,
                hosts_per_leaf,
            },
        )
    }

    /// A single-switch star: `hosts` hosts on one switch (the paper's
    /// single-switch PsPIN experiments, Figures 11–14).
    pub fn star(hosts: usize, spec: LinkSpec) -> (Self, NodeId, Vec<NodeId>) {
        let mut topo = Self::new();
        let sw = topo.add_switch("sw0");
        let hs: Vec<NodeId> = (0..hosts)
            .map(|i| {
                let h = topo.add_host(format!("h{i}"));
                topo.connect(h, sw, spec);
                h
            })
            .collect();
        (topo, sw, hs)
    }
}

/// Node inventory of a generated fat tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Hosts in rank order (leaf-major).
    pub hosts: Vec<NodeId>,
    /// Leaf switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
    /// Hosts under each leaf.
    pub hosts_per_leaf: usize,
}

impl FatTree {
    /// Leaf switch of the host with the given rank. Called by
    /// `tests/routing_on_demand.rs` and this crate's tests.
    pub fn leaf_of(&self, rank: usize) -> NodeId {
        self.leaves[rank / self.hosts_per_leaf]
    }
}

/// Destination-based next hops with deterministic ECMP, built on demand.
///
/// A packet addressed to a direct neighbour is answered from the adjacency
/// alone (every hop of an in-network collective is: host→leaf,
/// switch→parent, switch→child). Any other destination gets one *column* —
/// the equal-cost egress ports of every node towards it, from one BFS —
/// the first time a packet for it is routed. A column is a pure function
/// of the topology, so building it behind `&Routing` ([`OnceCell`]) does
/// not change what a run sees.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Node `u`'s ports are the range `adj[u]..adj[u + 1]` of the three
    /// flat arrays below.
    adj: Vec<u32>,
    /// Peers in port order.
    peers: Vec<u32>,
    /// The same peers sorted ascending (ties in port order), and the port
    /// of each: the ports to one neighbour are a contiguous run.
    nbr_peers: Vec<u32>,
    nbr_ports: Vec<u16>,
    /// Per destination, built on first use.
    columns: Vec<OnceCell<Column>>,
}

/// Equal-cost egress ports of every node towards one destination: node
/// `u`'s are `ports[offsets[u]..offsets[u + 1]]`, in port order.
#[derive(Debug, Clone)]
struct Column {
    offsets: Vec<u32>,
    ports: Vec<u16>,
}

impl Routing {
    fn ports_of(&self, node: usize) -> std::ops::Range<usize> {
        self.adj[node] as usize..self.adj[node + 1] as usize
    }

    /// One BFS from `dest` over the undirected graph, then per node the
    /// ports whose peer is one hop closer.
    fn build_column(&self, dest: usize) -> Column {
        let n = self.columns.len();
        let mut dist = vec![u32::MAX; n];
        dist[dest] = 0;
        let mut q = VecDeque::from([dest]);
        while let Some(u) = q.pop_front() {
            for &v in &self.peers[self.ports_of(u)] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u] + 1;
                    q.push_back(v as usize);
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut ports = Vec::new();
        offsets.push(0);
        for u in 0..n {
            if u != dest && dist[u] != u32::MAX {
                for (pi, &v) in self.peers[self.ports_of(u)].iter().enumerate() {
                    if dist[v as usize] + 1 == dist[u] {
                        ports.push(pi as u16);
                    }
                }
            }
            offsets.push(ports.len() as u32);
        }
        Column { offsets, ports }
    }

    /// Equal-cost egress ports at `node` towards `dest`, in port order
    /// (empty at the destination, when unreachable, or for a node outside
    /// the topology).
    fn candidates(&self, node: NodeId, dest: NodeId) -> &[u16] {
        let (u, d) = (node.index(), dest.index());
        let n = self.columns.len();
        if u >= n || d >= n || u == d {
            return &[];
        }
        let range = self.ports_of(u);
        let sorted = &self.nbr_peers[range.clone()];
        let lo = sorted.partition_point(|&p| p < dest.0);
        let run = sorted[lo..].iter().take_while(|&&p| p == dest.0).count();
        if run > 0 {
            return &self.nbr_ports[range.start + lo..][..run];
        }
        let col = self.columns[d].get_or_init(|| self.build_column(d));
        &col.ports[col.offsets[u] as usize..col.offsets[u + 1] as usize]
    }

    /// Egress port at `node` towards `dest` for `flow` (ECMP by flow hash).
    ///
    /// Returns `None` when `node == dest`, `dest` is unreachable, or either
    /// is not a node of the topology.
    pub fn next_port(&self, node: NodeId, dest: NodeId, flow: u32) -> Option<PortId> {
        let cands = self.candidates(node, dest);
        if cands.is_empty() {
            return None;
        }
        let pick = (splitmix64(flow as u64) % cands.len() as u64) as usize;
        Some(PortId(cands[pick]))
    }

    /// Number of equal-cost choices at `node` towards `dest` (0 when
    /// [`next_port`](Self::next_port) would return `None`). A test hook:
    /// `tests/edge_cases.rs` and this module's tests read it.
    pub fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
        self.candidates(node, dest).len()
    }

    /// Destination columns built so far: one per distinct destination that
    /// some packet was routed towards from a node not adjacent to it. A
    /// test hook: `tests/routing_on_demand.rs` counts columns with it.
    pub fn columns_built(&self) -> usize {
        self.columns.iter().filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager all-pairs tables the on-demand [`Routing`] replaced
    /// (`next_hops[node][dest]` = equal-cost egress ports), kept as the
    /// oracle of the differential tests.
    fn all_pairs_next_hops(topo: &Topology) -> Vec<Vec<Vec<u16>>> {
        let n = topo.node_count();
        let mut next_hops: Vec<Vec<Vec<u16>>> = vec![vec![Vec::new(); n]; n];
        // BFS from every destination over the undirected graph.
        for dest in 0..n {
            let mut dist = vec![u32::MAX; n];
            dist[dest] = 0;
            let mut q = VecDeque::from([dest]);
            while let Some(u) = q.pop_front() {
                for pl in &topo.ports[u] {
                    let v = pl.peer.index();
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            for u in 0..n {
                if u == dest || dist[u] == u32::MAX {
                    continue;
                }
                for (pi, pl) in topo.ports[u].iter().enumerate() {
                    if dist[pl.peer.index()] + 1 == dist[u] {
                        next_hops[u][dest].push(pi as u16);
                    }
                }
            }
        }
        next_hops
    }

    /// Every `(node, dest)` pair: the same candidate list, and through the
    /// public surface the same width and the oracle's
    /// `splitmix64(flow) % len` pick for flows `0..8`.
    fn assert_matches_oracle(topo: &Topology) {
        let oracle = all_pairs_next_hops(topo);
        let routing = topo.build_routing();
        let nodes = || (0..topo.node_count() as u32).map(NodeId);
        for node in nodes() {
            for dest in nodes() {
                let cands = &oracle[node.index()][dest.index()];
                assert_eq!(routing.candidates(node, dest), cands, "{node:?}->{dest:?}");
                assert_eq!(routing.ecmp_width(node, dest), cands.len());
                for flow in 0..8 {
                    let want = (!cands.is_empty()).then(|| {
                        PortId(cands[(splitmix64(flow as u64) % cands.len() as u64) as usize])
                    });
                    assert_eq!(routing.next_port(node, dest, flow), want);
                }
            }
        }
    }

    #[test]
    fn on_demand_routing_matches_the_all_pairs_oracle() {
        let spec = LinkSpec::hundred_gig();
        assert_matches_oracle(&Topology::star(4, spec).0);
        assert_matches_oracle(&Topology::fat_tree_two_level(4, 2, 2, spec).0);
        assert_matches_oracle(&Topology::fat_tree_two_level(16, 4, 4, spec).0);

        let mut ring = Topology::new();
        let sw: Vec<NodeId> = (0..6).map(|i| ring.add_switch(format!("s{i}"))).collect();
        for i in 0..6 {
            ring.connect(sw[i], sw[(i + 1) % 6], spec);
        }
        assert_matches_oracle(&ring);

        // Parallel links: both ports are candidates, in port order, and a
        // third node behind them sees the same ECMP pair one hop out.
        let mut par = Topology::new();
        let (a, b, c) = (par.add_switch("a"), par.add_switch("b"), par.add_host("c"));
        par.connect(a, b, spec);
        par.connect(a, c, spec);
        par.connect(a, b, spec);
        assert_matches_oracle(&par);
        let routing = par.build_routing();
        assert_eq!(routing.ecmp_width(a, b), 2);
        assert_eq!(routing.ecmp_width(b, c), 2);

        // A disconnected component: unreachable both ways.
        let mut split = Topology::star(2, spec).0;
        let (x, y) = (split.add_host("x"), split.add_host("y"));
        split.connect(x, y, spec);
        assert_matches_oracle(&split);
        let routing = split.build_routing();
        assert_eq!(routing.next_port(NodeId(0), x, 0), None);
        assert_eq!(routing.next_port(x, NodeId(0), 0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Random connected port graphs: a spanning tree (node `i` hangs
        // off an earlier node) plus extra edges, parallel ones included.
        #[test]
        fn on_demand_routing_matches_the_oracle_on_random_graphs(
            parents in proptest::collection::vec(any::<u32>(), 1..14),
            extra in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..12),
        ) {
            let spec = LinkSpec::hundred_gig();
            let mut topo = Topology::new();
            let n = parents.len() as u32 + 1;
            let nodes: Vec<NodeId> = (0..n).map(|i| topo.add_switch(format!("n{i}"))).collect();
            for (i, &p) in parents.iter().enumerate() {
                topo.connect(nodes[i + 1], nodes[p as usize % (i + 1)], spec);
            }
            for &(a, b) in &extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    topo.connect(nodes[a as usize], nodes[b as usize], spec);
                }
            }
            assert_matches_oracle(&topo);
        }
    }

    #[test]
    fn routing_builds_columns_only_for_non_neighbour_destinations() {
        let (topo, ft) = Topology::fat_tree_two_level(4, 2, 2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        // Tree neighbours: answered from the adjacency.
        assert!(routing.next_port(ft.hosts[0], ft.leaf_of(0), 0).is_some());
        assert_eq!(routing.ecmp_width(ft.leaves[0], ft.spines[1]), 1);
        assert_eq!(routing.next_port(ft.hosts[0], ft.hosts[0], 0), None);
        assert_eq!(routing.columns_built(), 0);
        // Two hops away: one column, shared by every later lookup.
        assert!(routing.next_port(ft.hosts[0], ft.hosts[7], 0).is_some());
        assert_eq!(routing.ecmp_width(ft.leaves[0], ft.hosts[7]), 2);
        assert_eq!(routing.columns_built(), 1);
        assert_eq!(routing.clone().columns_built(), 1);
    }

    #[test]
    fn routing_answers_none_for_nodes_outside_the_topology() {
        let (topo, _, hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        let outside = NodeId(topo.node_count() as u32);
        assert_eq!(routing.next_port(outside, hosts[0], 0), None);
        assert_eq!(routing.next_port(hosts[0], outside, 0), None);
        assert_eq!(routing.next_port(hosts[0], NodeId(u32::MAX), 0), None);
        assert_eq!(routing.ecmp_width(outside, hosts[0]), 0);
        assert_eq!(routing.ecmp_width(hosts[0], outside), 0);
        assert_eq!(routing.columns_built(), 0);
    }

    #[test]
    #[should_panic(expected = "out of u16 port indices")]
    fn connect_refuses_a_port_index_past_u16() {
        let mut topo = Topology::new();
        let (a, b) = (topo.add_switch("a"), topo.add_switch("b"));
        // Ports 0..=65 535 exist; the next one would wrap to 0.
        for _ in 0..=u16::MAX as usize + 1 {
            topo.connect(a, b, LinkSpec::hundred_gig());
        }
    }

    #[test]
    fn link_serialization_time_is_size_over_bandwidth() {
        let spec = LinkSpec::hundred_gig();
        // 1250 bytes at 100 Gbps = 12.5 GB/s ⇒ 100 ns.
        assert_eq!(spec.serialize_ns(1250), 100);
        assert_eq!(spec.serialize_ns(0), 1);
        assert!((spec.bytes_per_ns() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn star_wires_every_host_to_the_switch() {
        let (topo, sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
        assert_eq!(topo.node_count(), 5);
        assert_eq!(topo.link_count(), 4);
        assert_eq!(topo.ports_of(sw).len(), 4);
        for h in hosts {
            assert_eq!(topo.ports_of(h).len(), 1);
            assert!(topo.port_towards(h, sw).is_some());
        }
    }

    #[test]
    fn paper_fat_tree_has_expected_shape() {
        let (topo, ft) = Topology::fat_tree_two_level(16, 4, 4, LinkSpec::hundred_gig());
        assert_eq!(ft.hosts.len(), 64);
        assert_eq!(ft.leaves.len(), 16);
        assert_eq!(ft.spines.len(), 4);
        // 64 host links + 16×4 uplinks.
        assert_eq!(topo.link_count(), 64 + 64);
        // Leaf radix: 4 hosts + 4 spines = 8 ports, the paper's switches.
        for &leaf in &ft.leaves {
            assert_eq!(topo.ports_of(leaf).len(), 8);
        }
        assert_eq!(ft.leaf_of(0), ft.leaves[0]);
        assert_eq!(ft.leaf_of(63), ft.leaves[15]);
    }

    #[test]
    fn routing_reaches_every_pair_by_shortest_path() {
        let (topo, ft) = Topology::fat_tree_two_level(4, 2, 2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        // Same-leaf hosts: 2 hops (host→leaf→host): first hop toward leaf.
        let h0 = ft.hosts[0];
        let h1 = ft.hosts[1];
        let p = routing.next_port(h0, h1, 0).unwrap();
        assert_eq!(topo.ports_of(h0)[p.index()].peer, ft.leaf_of(0));
        // Cross-leaf: leaf must offer ECMP across both spines.
        let h2 = ft.hosts[2];
        assert_eq!(routing.ecmp_width(ft.leaf_of(0), h2), 2);
        // Flow hash is deterministic.
        let a = routing.next_port(ft.leaf_of(0), h2, 7);
        let b = routing.next_port(ft.leaf_of(0), h2, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn routing_returns_none_at_destination() {
        let (topo, _, hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        assert!(routing.next_port(hosts[0], hosts[0], 0).is_none());
    }

    #[test]
    fn hosts_and_switches_partition_nodes() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
        assert_eq!(topo.hosts().len(), 4);
        assert_eq!(topo.switches().len(), 3);
        assert_eq!(topo.kind(ft.hosts[0]), NodeKind::Host);
        assert_eq!(topo.kind(ft.spines[0]), NodeKind::Switch);
    }
}
