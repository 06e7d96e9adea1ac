//! The network manager (paper Section 4).
//!
//! Before an allreduce starts, the application asks the network manager to
//! compute a reduction tree over the participating hosts, install handlers
//! on the tree switches, and configure each switch's child ports and
//! parent port. The manager also:
//!
//! * assigns a unique allreduce id so concurrent reductions never mix,
//! * statically partitions switch memory across allreduces and performs
//!   admission control — when a switch is out of memory the manager
//!   *recomputes the tree excluding that switch* and only rejects the
//!   request when no tree exists (paper Section 4).

use std::collections::{HashMap, HashSet, VecDeque};

use flare_model::scheduling::{switch_bandwidth, working_buffers};
use flare_model::{select_algorithm, AggKind};
use flare_net::topology::NodeKind;
use flare_net::{NodeId, Topology};

use crate::wire::HEADER_BYTES;

/// One switch's position in a reduction tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSwitch {
    /// The switch node.
    pub switch: NodeId,
    /// Parent switch (`None` at the root).
    pub parent: Option<NodeId>,
    /// Children in child-index order: hosts and/or switches.
    pub children: Vec<NodeId>,
    /// This switch's child index at its parent.
    pub my_child_index: u16,
    /// Distance from the root (root = 0).
    pub depth: usize,
}

/// A reduction tree over a set of hosts.
#[derive(Debug, Clone)]
pub struct ReductionTree {
    /// The root switch.
    pub root: NodeId,
    /// Per-switch placement, root first (BFS order).
    pub switches: Vec<TreeSwitch>,
    /// For each host: its leaf switch and child index there.
    pub host_attach: HashMap<NodeId, (NodeId, u16)>,
}

impl ReductionTree {
    /// Placement record of `switch`, if it participates.
    pub fn switch(&self, switch: NodeId) -> Option<&TreeSwitch> {
        self.switches.iter().find(|s| s.switch == switch)
    }

    /// The deepest level (leaves have the largest depth).
    pub fn max_depth(&self) -> usize {
        self.switches.iter().map(|s| s.depth).max().unwrap_or(0)
    }
}

/// Compute a reduction tree for `hosts` on `topo`, avoiding `excluded`
/// switches. Chooses the root minimizing `(tree depth, node id)` for
/// determinism; returns `None` when some host is unreachable (a switch
/// named as a host counts as unreachable).
///
/// Only the winner's tree is built. A tree's depth is its farthest host's
/// distance from the root less one (the deepest switch is that host's
/// leaf), so candidates are compared by one breadth-first walk each that
/// measures nothing else.
pub fn compute_reduction_tree(
    topo: &Topology,
    hosts: &[NodeId],
    excluded: &HashSet<NodeId>,
) -> Option<ReductionTree> {
    assert!(!hosts.is_empty(), "empty host set");
    let root = nearest_root(topo, hosts, excluded)?;
    let host_set: HashSet<NodeId> = hosts.iter().copied().collect();
    try_root(topo, &host_set, excluded, root)
}

/// The non-excluded switch whose farthest host is nearest, lowest id on a
/// tie; `None` when no switch reaches every host. Each candidate costs one
/// breadth-first walk over flat per-node vectors shared by all of them,
/// stopped once every host is found or once it can no longer beat the
/// best candidate so far (walks run in id order, so a later root must be
/// strictly nearer).
fn nearest_root(topo: &Topology, hosts: &[NodeId], excluded: &HashSet<NodeId>) -> Option<NodeId> {
    let n = topo.node_count();
    let mut wanted = vec![false; n];
    let mut targets = 0;
    for &h in hosts {
        if !std::mem::replace(&mut wanted[h.index()], true) {
            targets += 1;
        }
    }
    let mut blocked = vec![false; n];
    for s in excluded {
        if let Some(b) = blocked.get_mut(s.index()) {
            *b = true;
        }
    }
    let mut seen = vec![false; n];
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    let mut best: Option<(usize, NodeId)> = None;
    for root in topo.switches() {
        if blocked[root.index()] {
            continue;
        }
        let bound = best.map_or(usize::MAX, |(dist, _)| dist);
        seen.fill(false);
        seen[root.index()] = true;
        frontier.clear();
        frontier.push(root);
        let (mut found, mut dist) = (0, 0);
        while found < targets && !frontier.is_empty() && dist + 1 < bound {
            dist += 1;
            next.clear();
            for &u in &frontier {
                for pl in topo.ports_of(u) {
                    let v = pl.peer.index();
                    if seen[v] || blocked[v] {
                        continue;
                    }
                    seen[v] = true;
                    if topo.kind(pl.peer) == NodeKind::Host {
                        found += usize::from(wanted[v]); // hosts do not forward
                    } else {
                        next.push(pl.peer);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        if found == targets {
            best = Some((dist, root));
        }
    }
    best.map(|(_, root)| root)
}

/// The reduction tree rooted at `root`: the union of BFS paths from the
/// root to every host, through non-excluded switches.
fn try_root(
    topo: &Topology,
    hosts: &HashSet<NodeId>,
    excluded: &HashSet<NodeId>,
    root: NodeId,
) -> Option<ReductionTree> {
    // BFS from the root through non-excluded switches; hosts are leaves.
    let n = topo.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[root.index()] = true;
    let mut order = VecDeque::from([root]);
    let mut bfs: Vec<NodeId> = Vec::new();
    while let Some(u) = order.pop_front() {
        bfs.push(u);
        if topo.kind(u) == NodeKind::Host {
            continue; // hosts do not forward
        }
        for pl in topo.ports_of(u) {
            let v = pl.peer;
            if seen[v.index()] || excluded.contains(&v) {
                continue;
            }
            seen[v.index()] = true;
            parent[v.index()] = Some(u);
            order.push_back(v);
        }
    }
    if hosts.iter().any(|h| !seen[h.index()]) {
        return None;
    }
    // Union of root→host paths: mark useful nodes.
    let mut useful = vec![false; n];
    for &h in hosts {
        let mut cur = h;
        while !useful[cur.index()] {
            useful[cur.index()] = true;
            match parent[cur.index()] {
                Some(p) => cur = p,
                None => break,
            }
        }
    }
    // Build switch records in BFS order (root first), pruning useless ones.
    let mut depth = vec![0usize; n];
    let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &u in &bfs {
        if !useful[u.index()] {
            continue;
        }
        if let Some(p) = parent[u.index()] {
            depth[u.index()] = depth[p.index()] + 1;
            children.entry(p).or_default().push(u);
        }
    }
    let mut switches = Vec::new();
    let mut host_attach = HashMap::new();
    for &u in &bfs {
        if !useful[u.index()] || topo.kind(u) != NodeKind::Switch {
            continue;
        }
        let kids = children.get(&u).cloned().unwrap_or_default();
        if kids.is_empty() {
            continue; // a pass-through switch with no tree children
        }
        let my_child_index = parent[u.index()]
            .map(|p| {
                children[&p]
                    .iter()
                    .position(|&c| c == u)
                    .expect("child recorded") as u16
            })
            .unwrap_or(0);
        for (i, &k) in kids.iter().enumerate() {
            if topo.kind(k) == NodeKind::Host {
                host_attach.insert(k, (u, i as u16));
            }
        }
        switches.push(TreeSwitch {
            switch: u,
            parent: parent[u.index()],
            children: kids,
            my_child_index,
            depth: depth[u.index()],
        });
    }
    // Contract chains: a switch whose only child is another switch still
    // participates (it forwards aggregated data); keep it for simplicity —
    // its children list has one entry and aggregation is a no-op fold.
    Some(ReductionTree {
        root,
        switches,
        host_attach,
    })
}

/// Why an allreduce request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// No reduction tree exists over the non-saturated switches.
    NoTree,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::NoTree => write!(f, "no feasible reduction tree"),
        }
    }
}
impl std::error::Error for AdmissionError {}

/// A request to set up an allreduce.
#[derive(Debug, Clone)]
pub struct AllreduceRequest {
    /// Total data size per host, in bytes.
    pub data_bytes: u64,
    /// Packet payload size in bytes.
    pub packet_bytes: usize,
    /// Require bitwise reproducibility (forces tree aggregation).
    pub reproducible: bool,
    /// Time a tree switch takes to fold one packet, in ns, where the
    /// window of a flow with more hosts than blocks may be sized by the
    /// paper's ℛ ([`AllreducePlan::window`]); `None` keeps such a flow's
    /// blocks all in flight. The session gives its serial pipeline's
    /// ([`flare_net::SwitchModel::service_ns`]) on a lossless fabric only.
    pub service_ns: Option<u64>,
}

/// An admitted allreduce: id, tree, algorithm and per-switch reservation.
#[derive(Debug, Clone)]
pub struct AllreducePlan {
    /// Unique allreduce identifier.
    pub id: u32,
    /// The reduction tree.
    pub tree: ReductionTree,
    /// Selected aggregation algorithm (paper Section 6.4 policy).
    pub algorithm: AggKind,
    /// Working-memory bytes reserved per tree switch:
    /// [`block_bytes`](Self::block_bytes) × `window`. Reservations depend
    /// on each switch's fanout: a root aggregating 8 children needs more
    /// tree buffers than a leaf aggregating 2.
    pub reserved: HashMap<NodeId, u64>,
    /// Recommended number of in-flight blocks per host (window), at most
    /// the flow's blocks but never fewer than 8. Where hosts outnumber
    /// blocks no rank is staggered, and on a lossless fabric of serial
    /// pipelines it is the Little's-law buffer count ℛ of Section 4.3: the
    /// blocks in flight that keep the tree's slowest switch busy over one
    /// round trip. Elsewhere it covers the stagger spread of `hosts` ranks
    /// plus 64 blocks of pipelining.
    pub window: usize,
}

impl AllreducePlan {
    /// Largest single-switch reservation (display convenience).
    pub fn max_reserved_bytes(&self) -> u64 {
        self.reserved.values().copied().max().unwrap_or(0)
    }

    /// Working memory one open block holds on a tree switch with `fanout`
    /// children: `M` buffers of one `packet_bytes` packet, `M` set by the
    /// algorithm.
    pub fn block_bytes(&self, fanout: usize, packet_bytes: usize) -> u64 {
        let m = flare_model::dense::buffers_per_block(self.algorithm, fanout.max(2)).ceil();
        m as u64 * packet_bytes as u64
    }
}

/// The network manager: allreduce ids, memory partitioning, admission.
pub struct NetworkManager {
    /// Working-memory budget per switch (bytes of L1 available for
    /// aggregation buffers).
    budget_per_switch: u64,
    used: HashMap<NodeId, u64>,
    next_id: u32,
    active: HashMap<u32, AllreducePlan>,
}

impl NetworkManager {
    /// Manager with a per-switch working-memory budget (the paper's PsPIN
    /// has 64 clusters × 1 MiB of L1).
    pub fn new(budget_per_switch: u64) -> Self {
        Self {
            budget_per_switch,
            used: HashMap::new(),
            next_id: 1,
            active: HashMap::new(),
        }
    }

    /// Working memory currently reserved on `switch`.
    pub fn used_on(&self, switch: NodeId) -> u64 {
        self.used.get(&switch).copied().unwrap_or(0)
    }

    /// Active allreduce count.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether allreduce `id` is still admitted (not torn down).
    pub fn is_active(&self, id: u32) -> bool {
        self.active.contains_key(&id)
    }

    /// The window: in-flight blocks per host, at most the flow's blocks
    /// but never fewer than 8.
    ///
    /// With more hosts than blocks no rank is staggered
    /// (`wiring::stagger_step` is 0 at every window), so where the request
    /// gives a switch's per-packet service the window only has to cover
    /// the flow's bandwidth-delay product: the paper's ℛ
    /// ([`Self::reservation`]). The session gives none, and the flow keeps
    /// every block in flight, in two cases:
    /// - on a lossy fabric, where a block being recovered holds its slot
    ///   for a timeout that no unloaded round trip counts;
    /// - on HPU switches, where hierarchical FCFS folds many blocks at once
    ///   and no workload has yet shown a window below every block that
    ///   keeps the makespan.
    ///
    /// Elsewhere the window must cover the *stagger spread*: a block stays
    /// open at the switch until the latest-offset host reaches it, so the
    /// window has to exceed `hosts × stagger step` plus pipeline slack, or
    /// hosts deadlock waiting for completions that need their own window
    /// slots.
    ///
    /// The floor of 8 stays for sparse flows: admission counts their
    /// packets per host, not their blocks, so without it a sparse flow of
    /// 2 such packets would get a window of 2 for its dozens of blocks.
    fn window_for(
        topo: &Topology,
        tree: &ReductionTree,
        hosts: &[NodeId],
        req: &AllreduceRequest,
    ) -> usize {
        let blocks = (req.data_bytes / req.packet_bytes as u64).max(1);
        let stagger = (blocks.min(hosts.len() as u64 + 64) as usize).max(8);
        match req.service_ns {
            Some(service_ns) if hosts.len() as u64 > blocks => {
                let r = Self::reservation(topo, tree, hosts, req.packet_bytes, service_ns);
                r.map_or(stagger, |r| r.min(blocks as usize).max(8))
            }
            _ => stagger,
        }
    }

    /// ℛ = ℬ/P · ℒ (Section 4.3, Little's law with `M` = 1, which
    /// [`AllreducePlan::block_bytes`] multiplies in): the blocks in flight
    /// that keep the tree's slowest switch `b` busy, each switch a serial
    /// pipeline folding a packet in `service_ns` (τ). All of a block's
    /// packets reach a switch together, since no rank is staggered:
    /// - `ℬ_b/P_b` is `b`'s block rate, `b` the switch of the longest
    ///   per-block time `P / ℬ` = max(P·τ, a host uplink's serialisation
    ///   of one packet);
    /// - `ℒ` is a block's unloaded round trip: every hop up and down
    ///   (serialisation + latency), each switch's fold on the way up
    ///   ((P + 1)·τ, Section 5's ℒ at δc = 0 with all P packets queued),
    ///   one τ at each non-root switch on the way down.
    ///
    /// `None` when no count of blocks bounds the flow: a switch below the
    /// root cannot fold at the line rate of its hosts, so a result coming
    /// down queues there behind the contributions of later blocks, a wait
    /// the unloaded ℒ does not count (or a tree edge is not a link).
    fn reservation(
        topo: &Topology,
        tree: &ReductionTree,
        hosts: &[NodeId],
        packet_bytes: usize,
        service_ns: u64,
    ) -> Option<usize> {
        let wire = (HEADER_BYTES + packet_bytes) as u32;
        let tau = service_ns as f64;
        // (serialisation, serialisation + latency) of the edge `a`–`b`.
        let hop = |a: NodeId, b: NodeId| {
            let port = topo.port_towards(a, b)?;
            let spec = topo.link(topo.ports_of(a)[port.index()].link).spec;
            let ser = spec.serialize_ns(wire);
            Some((ser as f64, (ser + spec.latency_ns) as f64))
        };
        let mut uplink: f64 = 0.0;
        for h in hosts {
            let &(leaf, _) = tree.host_attach.get(h)?;
            uplink = uplink.max(hop(*h, leaf)?.0);
        }
        // Round trip from arriving at each switch to the result leaving
        // it, root first; and the slowest switch's (ℬ, P).
        let mut below: HashMap<NodeId, f64> = HashMap::with_capacity(tree.switches.len());
        let mut slowest = (f64::INFINITY, 1);
        for s in &tree.switches {
            let fanout = s.children.len();
            let mut rtt = (fanout + 1) as f64 * tau;
            if let Some(parent) = s.parent {
                if fanout as f64 * tau > uplink {
                    return None;
                }
                rtt += 2.0 * hop(s.switch, parent)?.1 + below.get(&parent)? + tau;
            }
            below.insert(s.switch, rtt);
            let bandwidth = switch_bandwidth(1, tau, uplink / fanout as f64);
            if bandwidth / (fanout as f64) < slowest.0 / slowest.1 as f64 {
                slowest = (bandwidth, fanout);
            }
        }
        let mut latency: f64 = 0.0;
        for h in hosts {
            let &(leaf, _) = tree.host_attach.get(h)?;
            latency = latency.max(2.0 * hop(*h, leaf)?.1 + below.get(&leaf)?);
        }
        let r = working_buffers(1.0, slowest.0, slowest.1, latency);
        Some(r.ceil() as usize)
    }

    /// Admit an allreduce over `hosts`, retrying with saturated switches
    /// excluded (the paper's recompute-then-reject behaviour). Each tree
    /// switch reserves `M` buffers of one packet per block in the window
    /// ([`AllreducePlan::block_bytes`] × [`AllreducePlan::window`]).
    pub fn create_allreduce(
        &mut self,
        topo: &Topology,
        hosts: &[NodeId],
        req: &AllreduceRequest,
    ) -> Result<AllreducePlan, AdmissionError> {
        let algorithm = select_algorithm(req.data_bytes, req.reproducible);
        let mut excluded: HashSet<NodeId> = HashSet::new();
        loop {
            let tree =
                compute_reduction_tree(topo, hosts, &excluded).ok_or(AdmissionError::NoTree)?;
            let window = Self::window_for(topo, &tree, hosts, req);
            let mut plan = AllreducePlan {
                id: self.next_id,
                tree,
                algorithm,
                reserved: HashMap::new(),
                window,
            };
            let need = |s: &TreeSwitch| {
                plan.block_bytes(s.children.len(), req.packet_bytes) * window as u64
            };
            let reserved = plan.tree.switches.iter().map(|s| (s.switch, need(s)));
            plan.reserved = reserved.collect::<HashMap<_, _>>();
            // Find a switch that cannot host this allreduce.
            let saturated = plan
                .tree
                .switches
                .iter()
                .map(|s| s.switch)
                .find(|&sw| self.used_on(sw) + plan.reserved[&sw] > self.budget_per_switch);
            match saturated {
                Some(sw) => {
                    excluded.insert(sw);
                    continue;
                }
                None => {
                    for (&sw, &need) in &plan.reserved {
                        *self.used.entry(sw).or_insert(0) += need;
                    }
                    self.next_id += 1;
                    self.active.insert(plan.id, plan.clone());
                    return Ok(plan);
                }
            }
        }
    }

    /// Tear an allreduce down, releasing its reservations.
    pub fn teardown(&mut self, id: u32) -> bool {
        match self.active.remove(&id) {
            Some(plan) => {
                for (&sw, &need) in &plan.reserved {
                    if let Some(u) = self.used.get_mut(&sw) {
                        *u = u.saturating_sub(need);
                    }
                }
                true
            }
            None => false,
        }
    }
}

/// The window rule before unstaggered flows were sized by ℛ, as the
/// reference of the tests: the stagger spread of `hosts` ranks plus 64
/// blocks, at most the flow's blocks, at least 8.
#[cfg(test)]
pub(crate) fn stagger_window(req: &AllreduceRequest, hosts: usize) -> usize {
    let blocks = (req.data_bytes / req.packet_bytes as u64).max(1);
    (blocks.min(hosts as u64 + 64) as usize).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_net::{LinkSpec, SwitchModel};
    use proptest::prelude::*;

    fn fat_tree() -> (Topology, flare_net::topology::FatTree) {
        Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig())
    }

    /// The search [`nearest_root`] replaced, as the reference: build every
    /// candidate's tree and keep the one of least `(max_depth, id)`.
    fn exhaustive_reduction_tree(
        topo: &Topology,
        hosts: &[NodeId],
        excluded: &HashSet<NodeId>,
    ) -> Option<ReductionTree> {
        let host_set: HashSet<NodeId> = hosts.iter().copied().collect();
        let mut best: Option<(usize, NodeId, ReductionTree)> = None;
        for root in topo.switches() {
            if excluded.contains(&root) {
                continue;
            }
            if let Some(tree) = try_root(topo, &host_set, excluded, root) {
                let key = (tree.max_depth(), root);
                if best.as_ref().is_none_or(|(d, r, _)| key < (*d, *r)) {
                    best = Some((key.0, key.1, tree));
                }
            }
        }
        best.map(|(_, _, t)| t)
    }

    /// A 1 KiB packet's fold under `model`, as the session quotes it.
    fn service(model: &SwitchModel) -> Option<u64> {
        model.service_ns((HEADER_BYTES + 1024) as u32)
    }

    /// Admit `data_bytes` per host over `hosts` with switches that fold a
    /// packet in `service_ns`, on an unlimited budget.
    fn admit(
        topo: &Topology,
        hosts: &[NodeId],
        data_bytes: u64,
        service_ns: Option<u64>,
    ) -> (AllreduceRequest, AllreducePlan) {
        let req = AllreduceRequest {
            data_bytes,
            packet_bytes: 1024,
            reproducible: false,
            service_ns,
        };
        let mut mgr = NetworkManager::new(u64::MAX);
        let plan = mgr.create_allreduce(topo, hosts, &req).expect("admitted");
        (req, plan)
    }

    #[test]
    fn an_unstaggered_window_is_littles_law_on_the_root_bound_fat_trees() {
        // ℛ = ℒ / T with T the root's 3 ns fold times its leaves, ℒ four
        // hops of 84 + 200 ns and (P + 1) folds up, one down at the leaf.
        let calibrated = service(&SwitchModel::calibrated());
        assert_eq!(calibrated, Some(3));
        for (leaves, window) in [(32, 14), (64, 8), (128, 8)] {
            let (topo, ft) =
                Topology::fat_tree_two_level(leaves, 8, leaves, LinkSpec::hundred_gig());
            let (_, plan) = admit(&topo, &ft.hosts, 128 << 10, calibrated);
            assert_eq!(plan.window, window, "{leaves} leaves");
            let root = plan.tree.switch(plan.tree.root).unwrap();
            let want = plan.block_bytes(root.children.len(), 1024) * window as u64;
            assert_eq!(plan.max_reserved_bytes(), want);
        }
    }

    #[test]
    fn a_one_host_star_and_a_free_switch_admit_without_panicking() {
        let (topo, _sw, hosts) = Topology::star(1, LinkSpec::hundred_gig());
        let free = SwitchModel::RateLimited(f64::INFINITY);
        for model in [&free, &SwitchModel::calibrated()] {
            let (req, plan) = admit(&topo, &hosts, 4, service(model));
            assert_eq!(plan.window, stagger_window(&req, 1));
        }
        let (topo, _sw, hosts) = Topology::star(100, LinkSpec::hundred_gig());
        assert_eq!(service(&free), Some(0));
        let (_, plan) = admit(&topo, &hosts, 64 << 10, service(&free));
        assert_eq!(plan.window, 8, "ℛ = 568 / 84 ns, under the floor");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Stars and fat trees with random host subsets, every switch model,
        // lossless and lossy: the window never grows, and it moves only
        // for lossless serial pipelines with more hosts than blocks.
        #[test]
        fn the_window_only_shrinks_and_only_where_nothing_staggers(
            fat_tree in any::<bool>(),
            size in 1usize..300,
            per_leaf in 1usize..10,
            model in 0usize..4,
            kib in 0u64..320,
            host_bits in any::<u64>(),
            lossy in any::<bool>(),
        ) {
            let spec = LinkSpec::hundred_gig();
            let (topo, all) = if fat_tree {
                let leaves = size.div_ceil(per_leaf).min(40);
                let (topo, ft) = Topology::fat_tree_two_level(leaves, per_leaf, 1 + size % 4, spec);
                (topo, ft.hosts)
            } else {
                let (topo, _sw, hosts) = Topology::star(size, spec);
                (topo, hosts)
            };
            let mut hosts: Vec<NodeId> = all.iter().enumerate()
                .filter(|(i, _)| host_bits >> (i % 64) & 1 == 1)
                .map(|(_, &h)| h)
                .collect();
            if hosts.is_empty() {
                hosts.push(all[0]);
            }
            let model = match model {
                0 => SwitchModel::RateLimited(f64::INFINITY),
                1 => SwitchModel::calibrated(),
                2 => SwitchModel::RateLimited(64.0),
                _ => SwitchModel::Hpu(flare_net::HpuParams::paper()),
            };
            let hpu = matches!(model, SwitchModel::Hpu(_));
            let service_ns = service(&model).filter(|_| !lossy);
            let data_bytes = (kib << 10).max(1);
            let (req, plan) = admit(&topo, &hosts, data_bytes, service_ns);
            let old = stagger_window(&req, hosts.len());
            prop_assert!((1..=old).contains(&plan.window), "{} not in 1..={old}", plan.window);
            let blocks = (data_bytes / 1024).max(1);
            if hosts.len() as u64 <= blocks || lossy || hpu {
                prop_assert_eq!(plan.window, old);
            }
        }
    }

    /// `compute_reduction_tree` and the exhaustive search agree on the
    /// whole tree: root, switch order and records, host attachments.
    fn assert_same_tree(topo: &Topology, hosts: &[NodeId], excluded: &HashSet<NodeId>) {
        let got = compute_reduction_tree(topo, hosts, excluded);
        let want = exhaustive_reduction_tree(topo, hosts, excluded);
        let parts = |t: Option<ReductionTree>| t.map(|t| (t.root, t.switches, t.host_attach));
        assert_eq!(
            parts(got),
            parts(want),
            "hosts {hosts:?}, excluded {excluded:?}"
        );
    }

    #[test]
    fn root_search_equals_the_exhaustive_search_on_stars_and_fat_trees() {
        let none = HashSet::new();
        for n in [1, 2, 5, 32] {
            let (topo, _sw, hosts) = Topology::star(n, LinkSpec::hundred_gig());
            assert_same_tree(&topo, &hosts, &none);
        }
        for (leaves, per_leaf, spines) in [
            (2, 2, 2),
            (2, 2, 1),
            (4, 4, 2),
            (8, 4, 8),
            (16, 8, 4),
            (32, 8, 32),
            (64, 8, 64),
        ] {
            let (topo, ft) =
                Topology::fat_tree_two_level(leaves, per_leaf, spines, LinkSpec::hundred_gig());
            let one_per_leaf: Vec<NodeId> = ft.hosts.iter().step_by(per_leaf).copied().collect();
            for hosts in [&ft.hosts[..], &ft.hosts[..per_leaf], &one_per_leaf] {
                assert_same_tree(&topo, hosts, &none);
                let spine0 = HashSet::from([ft.spines[0]]);
                assert_same_tree(&topo, hosts, &spine0);
            }
        }
    }

    #[test]
    fn root_search_does_not_walk_through_a_host_on_two_switches() {
        // s0 - s1 - s2 - s3, host c on s0, a on s3, b on both ends. Through
        // b, s0 would reach a in 3 hops and win the tie with s1.
        let mut topo = Topology::new();
        let spec = LinkSpec::hundred_gig();
        let s: Vec<NodeId> = (0..4).map(|i| topo.add_switch(format!("s{i}"))).collect();
        for w in s.windows(2) {
            topo.connect(w[0], w[1], spec);
        }
        let (a, b, c) = (topo.add_host("a"), topo.add_host("b"), topo.add_host("c"));
        topo.connect(a, s[3], spec);
        topo.connect(b, s[0], spec);
        topo.connect(b, s[3], spec);
        topo.connect(c, s[0], spec);
        let tree = compute_reduction_tree(&topo, &[a, b, c], &HashSet::new()).unwrap();
        assert_eq!((tree.root, tree.max_depth()), (s[1], 2));
        assert_same_tree(&topo, &[a, b, c], &HashSet::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Fat trees with random host subsets and random switches excluded
        // (leaves included, which strands their hosts).
        #[test]
        fn root_search_equals_the_exhaustive_search_with_exclusions(
            leaves in 1usize..10,
            per_leaf in 1usize..5,
            spines in 1usize..6,
            host_bits in any::<u64>(),
            excluded_bits in any::<u32>(),
        ) {
            let (topo, ft) =
                Topology::fat_tree_two_level(leaves, per_leaf, spines, LinkSpec::hundred_gig());
            let mut hosts: Vec<NodeId> = ft.hosts.iter().enumerate()
                .filter(|(i, _)| host_bits >> (i % 64) & 1 == 1)
                .map(|(_, &h)| h)
                .collect();
            if hosts.is_empty() {
                hosts.push(ft.hosts[0]);
            }
            let excluded: HashSet<NodeId> = topo.switches().into_iter().enumerate()
                .filter(|(i, _)| excluded_bits >> (i % 32) & 1 == 1 && i % 3 != 0)
                .map(|(_, s)| s)
                .collect();
            assert_same_tree(&topo, &hosts, &excluded);
        }

        // Arbitrary switch graphs: chains, cycles and parallel links, hosts
        // hung off one or two random switches, some switches excluded.
        #[test]
        fn root_search_equals_the_exhaustive_search_on_random_graphs(
            switches in 1usize..12,
            links in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
            attach in proptest::collection::vec((0usize..12, 0usize..24), 1..10),
            excluded_bits in any::<u16>(),
        ) {
            let mut topo = Topology::new();
            let sw: Vec<NodeId> = (0..switches).map(|i| topo.add_switch(format!("s{i}"))).collect();
            for &(a, b) in &links {
                let (a, b) = (a % switches, b % switches);
                if a != b {
                    topo.connect(sw[a], sw[b], LinkSpec::hundred_gig());
                }
            }
            let hosts: Vec<NodeId> = attach.iter().enumerate().map(|(i, &(s, second))| {
                let h = topo.add_host(format!("h{i}"));
                topo.connect(h, sw[s % switches], LinkSpec::hundred_gig());
                if second < switches && second != s % switches {
                    topo.connect(h, sw[second], LinkSpec::hundred_gig());
                }
                h
            }).collect();
            let excluded: HashSet<NodeId> = sw.iter().enumerate()
                .filter(|(i, _)| excluded_bits >> i & 1 == 1)
                .map(|(_, &s)| s)
                .collect();
            assert_same_tree(&topo, &hosts, &excluded);
        }
    }

    #[test]
    fn star_tree_is_single_switch() {
        let (topo, sw, hosts) = Topology::star(5, LinkSpec::hundred_gig());
        let tree = compute_reduction_tree(&topo, &hosts, &HashSet::new()).unwrap();
        assert_eq!(tree.root, sw);
        assert_eq!(tree.switches.len(), 1);
        assert_eq!(tree.switches[0].children.len(), 5);
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(tree.host_attach[h], (sw, i as u16));
        }
    }

    #[test]
    fn same_leaf_hosts_use_the_leaf_as_root() {
        let (topo, ft) = fat_tree();
        // All hosts under leaf 0: the leaf switch suffices (depth 0 tree).
        let hosts = &ft.hosts[0..4];
        let tree = compute_reduction_tree(&topo, hosts, &HashSet::new()).unwrap();
        assert_eq!(tree.root, ft.leaves[0]);
        assert_eq!(tree.max_depth(), 0);
    }

    #[test]
    fn cross_leaf_hosts_root_at_a_spine() {
        let (topo, ft) = fat_tree();
        let tree = compute_reduction_tree(&topo, &ft.hosts, &HashSet::new()).unwrap();
        assert!(ft.spines.contains(&tree.root));
        // Root's children are the 4 leaves; each leaf has 4 host children.
        let root_rec = tree.switch(tree.root).unwrap();
        assert_eq!(root_rec.children.len(), 4);
        assert_eq!(tree.switches.len(), 5);
        for s in &tree.switches {
            if s.switch != tree.root {
                assert_eq!(s.parent, Some(tree.root));
                assert_eq!(s.children.len(), 4);
            }
        }
        assert_eq!(tree.host_attach.len(), 16); // all hosts attached
    }

    #[test]
    fn excluding_a_spine_picks_the_other() {
        let (topo, ft) = fat_tree();
        let mut excluded = HashSet::new();
        excluded.insert(ft.spines[0]);
        let tree = compute_reduction_tree(&topo, &ft.hosts, &excluded).unwrap();
        assert_eq!(tree.root, ft.spines[1]);
    }

    #[test]
    fn unreachable_hosts_yield_no_tree() {
        let mut topo = Topology::new();
        let h0 = topo.add_host("h0");
        let h1 = topo.add_host("h1");
        let s0 = topo.add_switch("s0");
        topo.connect(h0, s0, LinkSpec::hundred_gig());
        // h1 is not connected at all.
        assert!(compute_reduction_tree(&topo, &[h0, h1], &HashSet::new()).is_none());
        let _ = h1;
    }

    #[test]
    fn admission_reserves_and_releases_memory() {
        let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut mgr = NetworkManager::new(64 << 20);
        let req = AllreduceRequest {
            data_bytes: 1 << 20,
            packet_bytes: 1024,
            reproducible: false,
            service_ns: service(&SwitchModel::calibrated()),
        };
        let plan = mgr.create_allreduce(&topo, &hosts, &req).unwrap();
        assert_eq!(plan.algorithm, AggKind::SingleBuffer); // > 512 KiB
        assert!(mgr.used_on(plan.tree.root) > 0);
        assert!(mgr.teardown(plan.id));
        assert_eq!(mgr.used_on(plan.tree.root), 0);
        assert!(!mgr.teardown(plan.id), "double teardown refused");
    }

    #[test]
    fn admission_reroutes_around_saturated_spine() {
        let (topo, ft) = fat_tree();
        let mut mgr = NetworkManager::new(1 << 20);
        let req = AllreduceRequest {
            data_bytes: 64 << 10,
            packet_bytes: 1024,
            reproducible: true,
            service_ns: service(&SwitchModel::calibrated()),
        };
        // Saturate spine 0 artificially.
        mgr.used.insert(ft.spines[0], 1 << 20);
        let plan = mgr.create_allreduce(&topo, &ft.hosts, &req).unwrap();
        assert_eq!(
            plan.tree.root, ft.spines[1],
            "tree recomputed around full switch"
        );
    }

    #[test]
    fn admission_rejects_when_everything_is_full() {
        let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut mgr = NetworkManager::new(100); // absurdly small budget
        let req = AllreduceRequest {
            data_bytes: 1 << 20,
            packet_bytes: 1024,
            reproducible: false,
            service_ns: service(&SwitchModel::calibrated()),
        };
        assert_eq!(
            mgr.create_allreduce(&topo, &hosts, &req).unwrap_err(),
            AdmissionError::NoTree
        );
    }

    #[test]
    fn ids_are_unique_across_concurrent_allreduces() {
        let (topo, _sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut mgr = NetworkManager::new(64 << 20);
        let req = AllreduceRequest {
            data_bytes: 4 << 10,
            packet_bytes: 1024,
            reproducible: false,
            service_ns: service(&SwitchModel::calibrated()),
        };
        let a = mgr.create_allreduce(&topo, &hosts, &req).unwrap();
        let b = mgr.create_allreduce(&topo, &hosts, &req).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(mgr.active_count(), 2);
        assert_eq!(a.algorithm, AggKind::Tree); // small data ⇒ tree
    }
}
