//! Topology-driven partitioning for parallel simulation.
//!
//! The partitioner maps every node and every link *direction* to exactly
//! one partition so that workers executing different partitions never
//! alias mutable state:
//!
//! * each switch with at least one directly-attached host anchors a
//!   shard containing itself and its hosts (hosts exchange most of their
//!   traffic with their edge switch, so that hop stays partition-local
//!   and cheap);
//! * every remaining node (e.g. the spine layer of a fat tree) becomes a
//!   singleton shard;
//! * a link direction belongs to the partition of its *transmitting*
//!   node — only that node ever egresses on it, so the per-direction
//!   FIFO, byte counters, and loss-RNG stream are single-writer.
//!
//! A star topology collapses to a single shard (the hub switch plus all
//! hosts). Its plan numbers nodes and directions exactly like the lane
//! [`crate::NetSim`] keeps for the whole topology, and one partition runs
//! without windows, so [`crate::NetSim::run_threads`] on it is
//! [`crate::NetSim::run`] — parallelism needs at least two shards.
//!
//! The shard numbering, local node numbering, and local direction
//! numbering are all pure functions of the topology, which is what makes
//! the parallel schedule reproducible across runs and thread counts. Local
//! slots ascend in global order (node id; `2·link + dir`), so moving state
//! between the whole-topology lane and the plan's lanes is a stable
//! scatter / gather by owner (`PartitionPlan::{scatter,gather}_nodes`).

use flare_des::Time;

use crate::topology::{NodeId, NodeKind, Topology};

/// A complete partitioning of a topology, plus the lookahead bound the
/// parallel driver may use over it.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Number of partitions.
    pub parts: usize,
    /// Global node index → owning partition.
    pub part_of: Vec<u32>,
    /// Global node index → index within its partition's node list.
    pub node_local: Vec<u32>,
    /// Partition → its nodes, ascending by id.
    pub nodes_of: Vec<Vec<NodeId>>,
    /// Link → owning partition per direction (`[a→b, b→a]`): the
    /// transmitting side's partition.
    pub dir_owner: Vec<[u32; 2]>,
    /// Link → per-direction slot in the owning partition's direction
    /// state.
    pub dir_local: Vec<[u32; 2]>,
    /// Conservative lookahead in ns: [`Topology::min_link_latency`] plus
    /// the 1 ns serialization floor.
    pub lookahead: Time,
}

impl PartitionPlan {
    /// Partition `topo` (see the module docs for the policy).
    pub fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut part_of = vec![u32::MAX; n];
        let mut nodes_of: Vec<Vec<NodeId>> = Vec::new();
        // Host-bearing switches anchor shards, in id order.
        for s in topo.switches() {
            let mut members: Vec<NodeId> = topo
                .ports_of(s)
                .iter()
                .map(|pl| pl.peer)
                .filter(|&p| topo.kind(p) == NodeKind::Host && part_of[p.index()] == u32::MAX)
                .collect();
            if members.is_empty() {
                continue;
            }
            let id = nodes_of.len() as u32;
            members.push(s);
            members.sort_by_key(|m| m.0);
            for &m in &members {
                part_of[m.index()] = id;
            }
            nodes_of.push(members);
        }
        // Everything else (spines, isolated switches) goes singleton.
        for (i, part) in part_of.iter_mut().enumerate() {
            if *part == u32::MAX {
                *part = nodes_of.len() as u32;
                nodes_of.push(vec![NodeId(i as u32)]);
            }
        }
        let mut node_local = vec![0u32; n];
        for members in &nodes_of {
            for (li, m) in members.iter().enumerate() {
                node_local[m.index()] = li as u32;
            }
        }
        // A direction is owned by its transmitter.
        let mut dir_owner = Vec::with_capacity(topo.link_count());
        let mut dir_local = Vec::with_capacity(topo.link_count());
        let mut counters = vec![0u32; nodes_of.len()];
        for l in 0..topo.link_count() {
            let link = topo.link(l);
            let owners = [part_of[link.a.0.index()], part_of[link.b.0.index()]];
            let mut locals = [0u32; 2];
            for d in 0..2 {
                locals[d] = counters[owners[d] as usize];
                counters[owners[d] as usize] += 1;
            }
            dir_owner.push(owners);
            dir_local.push(locals);
        }
        let lookahead = topo.min_link_latency().unwrap_or(0) + 1;
        Self {
            parts: nodes_of.len(),
            part_of,
            node_local,
            nodes_of,
            dir_owner,
            dir_local,
            lookahead,
        }
    }

    /// Deal per-node values (indexed by node id) out to one `Vec` per
    /// partition, each in [`node_local`](Self::node_local) order.
    pub(crate) fn scatter_nodes<T>(&self, whole: Vec<T>) -> Vec<Vec<T>> {
        scatter(self.parts, &self.part_of, whole)
    }

    /// Inverse of [`scatter_nodes`](Self::scatter_nodes).
    pub(crate) fn gather_nodes<T>(&self, lanes: Vec<Vec<T>>) -> Vec<T> {
        gather(&self.part_of, lanes)
    }

    /// Deal per-direction values (indexed `2·link + dir`) out to one `Vec`
    /// per partition, each in [`dir_local`](Self::dir_local) order.
    pub(crate) fn scatter_dirs<T>(&self, whole: Vec<T>) -> Vec<Vec<T>> {
        scatter(self.parts, self.dir_owner.as_flattened(), whole)
    }

    /// Inverse of [`scatter_dirs`](Self::scatter_dirs).
    pub(crate) fn gather_dirs<T>(&self, lanes: Vec<Vec<T>>) -> Vec<T> {
        gather(self.dir_owner.as_flattened(), lanes)
    }
}

fn scatter<T>(parts: usize, owners: &[u32], whole: Vec<T>) -> Vec<Vec<T>> {
    debug_assert_eq!(owners.len(), whole.len());
    let mut lanes: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for (value, &p) in whole.into_iter().zip(owners) {
        lanes[p as usize].push(value);
    }
    lanes
}

fn gather<T>(owners: &[u32], lanes: Vec<Vec<T>>) -> Vec<T> {
    let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    let next = |&p: &u32| lanes[p as usize].next().expect("one value per slot");
    owners.iter().map(next).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn spec() -> LinkSpec {
        LinkSpec {
            gbps: 100.0,
            latency_ns: 50,
        }
    }

    #[test]
    fn star_collapses_to_one_partition() {
        let (topo, _sw, _hosts) = Topology::star(8, spec());
        let plan = PartitionPlan::build(&topo);
        assert_eq!(plan.parts, 1);
        assert!(plan.part_of.iter().all(|&p| p == 0));
    }

    #[test]
    fn fat_tree_gets_one_shard_per_leaf_plus_spine_singletons() {
        let (topo, ft) = Topology::fat_tree_two_level(4, 8, 4, spec());
        let plan = PartitionPlan::build(&topo);
        assert_eq!(plan.parts, 4 + 4);
        // Each host shares its leaf's partition.
        for (rank, &h) in ft.hosts.iter().enumerate() {
            let leaf = ft.leaf_of(rank);
            assert_eq!(plan.part_of[h.index()], plan.part_of[leaf.index()]);
        }
        // Spines are alone.
        for s in 0..4u32 {
            let spine = NodeId(4 + s);
            let p = plan.part_of[spine.index()] as usize;
            assert_eq!(plan.nodes_of[p], vec![spine]);
        }
        assert_eq!(plan.lookahead, 51);
    }

    #[test]
    fn every_direction_is_owned_by_its_transmitter() {
        let (topo, _ft) = Topology::fat_tree_two_level(2, 3, 2, spec());
        let plan = PartitionPlan::build(&topo);
        let mut seen = std::collections::HashSet::new();
        for l in 0..topo.link_count() {
            let link = topo.link(l);
            assert_eq!(plan.dir_owner[l][0], plan.part_of[link.a.0.index()]);
            assert_eq!(plan.dir_owner[l][1], plan.part_of[link.b.0.index()]);
            for d in 0..2 {
                assert!(
                    seen.insert((plan.dir_owner[l][d], plan.dir_local[l][d])),
                    "direction slots must be unique per partition"
                );
            }
        }
    }

    #[test]
    fn local_numbering_is_dense_and_consistent() {
        let (topo, _ft) = Topology::fat_tree_two_level(3, 4, 2, spec());
        let plan = PartitionPlan::build(&topo);
        for (p, members) in plan.nodes_of.iter().enumerate() {
            for (li, m) in members.iter().enumerate() {
                assert_eq!(plan.part_of[m.index()], p as u32);
                assert_eq!(plan.node_local[m.index()], li as u32);
            }
        }
        // Scattering global ids lands each on its local slot, and gathers
        // back in global order.
        let ids: Vec<NodeId> = (0..topo.node_count() as u32).map(NodeId).collect();
        let lanes = plan.scatter_nodes(ids.clone());
        assert_eq!(lanes, plan.nodes_of);
        assert_eq!(plan.gather_nodes(lanes), ids);
        let slots: Vec<usize> = (0..2 * topo.link_count()).collect();
        let lanes = plan.scatter_dirs(slots.clone());
        for (slot, (owner, local)) in plan
            .dir_owner
            .as_flattened()
            .iter()
            .zip(plan.dir_local.as_flattened())
            .enumerate()
        {
            assert_eq!(lanes[*owner as usize][*local as usize], slot);
        }
        assert_eq!(plan.gather_dirs(lanes), slots);
    }
}
