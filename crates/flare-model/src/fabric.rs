//! Fabric-level closed forms: what a whole allreduce puts on the links of
//! a star or a two-level fat tree, and how long the root-bound one takes
//! (paper Sections 1 and 4.3).
//!
//! Every argument is a plain number, so the network simulator's tests can
//! hold its runs against these forms without this crate depending on it.
//! Those tests are, so far, their only users: `tests/sim_pins.rs`,
//! `tests/baselines_equivalence.rs`, `tests/allreduce_correctness.rs` and
//! `flare-baselines`' schedule tests.

/// Link bytes of a dense Flare allreduce of `blocks` packets of
/// `wire_bytes` per host: one contribution up and one result down on each
/// of the reduction tree's `tree_edges` edges, per block. The tree has P
/// edges on a star of P hosts and P + L on a two-level fat tree of L leaves.
pub fn flare_link_bytes(blocks: u64, wire_bytes: u64, tree_edges: u64) -> u64 {
    2 * blocks * wire_bytes * tree_edges
}

/// Link bytes of a ring allreduce (Section 1) of `z_bytes` per host over
/// `hosts` hosts placed leaf by leaf on `leaves` leaves, in segments of
/// `segment` payload bytes and a `header`-byte header; `z_bytes / hosts`
/// must be a whole number of segments. Each neighbour pair carries 2(P−1)
/// chunks of Z/P. A segment crosses 2 links inside a leaf and 4 between
/// leaves. When L > 1, L of the P pairs straddle two leaves, the
/// wrap-around included; a star is the one-leaf case, where none does.
pub fn ring_link_bytes(hosts: u64, leaves: u64, z_bytes: u64, segment: u64, header: u64) -> u64 {
    let segments = 2 * (hosts - 1) * (z_bytes / hosts / segment);
    let straddling = if leaves > 1 { leaves } else { 0 };
    let hops = 2 * (hosts - straddling) + 4 * straddling;
    segments * hops * (segment + header)
}

/// Ring-allreduce bytes each host transmits: `2(P−1)/P·Z`, ≈ 2Z against
/// Flare's Z (Section 1).
pub fn ring_bytes_per_host(z_bytes: u64, p: usize) -> u64 {
    (2 * (p as u64 - 1) * z_bytes) / p as u64
}

/// Recursive-doubling bytes each host transmits: `Z·log₂P`.
pub fn recdouble_bytes_per_host(z_bytes: u64, p: usize) -> u64 {
    z_bytes * p.trailing_zeros() as u64
}

/// The makespan of a dense two-level fat-tree allreduce whose root spine's
/// serial pipeline is the bottleneck, with every host sending its `blocks`
/// in the same order over hops of `hop_ns` (serialisation and latency) to
/// switches that fold a packet in `service_ns`: the first aggregate reaches
/// the root (a host→leaf hop, the leaf folding one packet per host, a
/// leaf→root hop), the root folds one packet per leaf per block back to
/// back, and the last result comes down (root→leaf, the leaf's service,
/// leaf→host).
pub fn root_pipeline_ns(
    per_leaf: u64,
    leaves: u64,
    blocks: u64,
    hop_ns: u64,
    service_ns: u64,
) -> u64 {
    let fill = hop_ns + per_leaf * service_ns + hop_ns;
    let drain = hop_ns + service_ns + hop_ns;
    fill + leaves * blocks * service_ns + drain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_formulas() {
        assert_eq!(recdouble_bytes_per_host(1024, 8), 3072);
        // 2·7/8·1024
        assert_eq!(ring_bytes_per_host(1024, 8), 1792);
        // Ring beats recursive doubling in bytes for P ≥ 4.
        for p in [4usize, 8, 64] {
            assert!(ring_bytes_per_host(1 << 20, p) < recdouble_bytes_per_host(1 << 20, p));
        }
    }
}
