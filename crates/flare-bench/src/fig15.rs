//! Figure 15: the system-level comparison on a 64-node 2-level fat tree of
//! 8-port 100 Gbps switches — completion time and total network traffic
//! for four systems on ResNet-50-style sparsified gradients:
//!
//! 1. **Host-Based Dense** — ring allreduce,
//! 2. **Flare Dense** — in-network dense aggregation,
//! 3. **Host-Based Sparse** — SparCML,
//! 4. **Flare Sparse** — in-network sparse aggregation.
//!
//! The paper uses 100 MiB/host gradients; this harness defaults to a
//! scaled-down vector (identical shape — every system is bandwidth-bound,
//! so times and traffic scale linearly) and accepts the full size via
//! `Config::full_scale()` when memory allows.

use flare_core::host::result_sink;
use flare_core::op::Sum;
use flare_core::session::{FlareSession, SparsePolicy};
use flare_des::{Time, MILLISECOND};
use flare_model::units::{GIB, MIB};
use flare_net::{LinkSpec, NetSim, Topology};
use flare_workloads::{gradient_like_f32, sparsify_top1_per_bucket};

use flare_baselines::ring::RingHost;
use flare_baselines::sparcml::SparcmlHost;

use crate::table::{self, f2};
use crate::Scale;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hosts (the paper: 64).
    pub hosts: usize,
    /// Gradient elements per host.
    pub elems: usize,
    /// SparCML bucket (512 in the paper ⇒ ≈0.2 % density).
    pub bucket: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            hosts: 64,
            // 4 MiB of f32 per host: the same bandwidth-bound shape as the
            // paper's 100 MiB at 1/25 the memory footprint.
            elems: MIB as usize,
            bucket: 512,
            seed: 2021,
        }
    }
}

impl Config {
    /// The paper's full 100 MiB/host configuration (needs ~26 GiB RAM).
    pub fn full_scale() -> Self {
        Self {
            elems: 25 * MIB as usize,
            ..Self::default()
        }
    }
}

/// One system's measured outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// System label.
    pub system: &'static str,
    /// Completion time of the slowest host (ns).
    pub time_ns: Time,
    /// Total bytes that traversed network links.
    pub traffic_bytes: u64,
}

impl Row {
    /// Time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_ns as f64 / MILLISECOND as f64
    }

    /// Traffic in GiB.
    pub fn traffic_gib(&self) -> f64 {
        self.traffic_bytes as f64 / GIB as f64
    }
}

fn paper_fabric(hosts: usize) -> (Topology, flare_net::topology::FatTree) {
    let leaves = hosts / 4;
    Topology::fat_tree_two_level(leaves, 4, 4, LinkSpec::hundred_gig())
}

fn dense_inputs(cfg: &Config) -> Vec<Vec<f32>> {
    (0..cfg.hosts)
        .map(|h| gradient_like_f32(cfg.seed, h as u64, cfg.elems))
        .collect()
}

fn sparse_inputs(cfg: &Config) -> Vec<Vec<(u32, f32)>> {
    dense_inputs(cfg)
        .iter()
        .map(|v| sparsify_top1_per_bucket(v, cfg.bucket))
        .collect()
}

/// Host-based dense: ring allreduce over the fat tree.
pub fn host_dense(cfg: &Config) -> Row {
    let (topo, ft) = paper_fabric(cfg.hosts);
    let inputs = dense_inputs(cfg);
    let mut sim = NetSim::new(topo, cfg.seed);
    for (rank, &h) in ft.hosts.iter().enumerate() {
        let sink = result_sink();
        sim.install_host(
            h,
            Box::new(RingHost::new(
                rank,
                ft.hosts.clone(),
                1,
                Sum,
                inputs[rank].clone(),
                8192,
                sink,
            )),
        );
    }
    let report = sim.run(None);
    Row {
        system: "Host-Based Dense (ring)",
        time_ns: report.last_done.expect("ring completes"),
        traffic_bytes: report.total_link_bytes,
    }
}

/// Flare in-network dense allreduce, driven through a [`FlareSession`].
pub fn flare_dense(cfg: &Config) -> Row {
    let (topo, ft) = paper_fabric(cfg.hosts);
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    let out = session
        .allreduce(dense_inputs(cfg))
        .named("fig15-dense")
        .run()
        .expect("admitted");
    Row {
        system: "Flare Dense",
        time_ns: out.report.completion_ns(),
        traffic_bytes: out.report.total_link_bytes(),
    }
}

/// Host-based sparse: SparCML.
pub fn host_sparse(cfg: &Config) -> Row {
    let (topo, ft) = paper_fabric(cfg.hosts);
    let inputs = sparse_inputs(cfg);
    let mut sim = NetSim::new(topo, cfg.seed);
    for (rank, &h) in ft.hosts.iter().enumerate() {
        let sink = result_sink();
        sim.install_host(
            h,
            Box::new(SparcmlHost::new(
                rank,
                ft.hosts.clone(),
                1,
                Sum,
                cfg.elems,
                inputs[rank].clone(),
                8192,
                sink,
            )),
        );
    }
    let report = sim.run(None);
    Row {
        system: "Host-Based Sparse (SparCML)",
        time_ns: report.last_done.expect("sparcml completes"),
        traffic_bytes: report.total_link_bytes,
    }
}

/// Flare in-network sparse allreduce (hash at leaves, array at the root),
/// driven through a [`FlareSession`].
pub fn flare_sparse(cfg: &Config) -> Row {
    let (topo, ft) = paper_fabric(cfg.hosts);
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    // Block span: one packet's worth of non-zeros per host on average:
    // 128 pairs at density 1/bucket ⇒ span = 128 × bucket elements.
    let policy = SparsePolicy {
        hash_slots: 1024,
        spill_cap: 128,
        span: 128 * cfg.bucket,
        array_at_root: true,
    };
    let out = session
        .sparse_allreduce(cfg.elems, sparse_inputs(cfg))
        .policy(policy)
        .named("fig15-sparse")
        .run()
        .expect("admitted");
    Row {
        system: "Flare Sparse",
        time_ns: out.report.completion_ns(),
        traffic_bytes: out.report.total_link_bytes(),
    }
}

/// Run the full four-system comparison. Each system builds and runs its
/// own single-threaded simulation; the four runs fan out across cores.
pub fn rows(cfg: &Config) -> Vec<Row> {
    let systems: [fn(&Config) -> Row; 4] = [host_dense, flare_dense, host_sparse, flare_sparse];
    crate::par_map(systems.to_vec(), |f| f(cfg))
}

/// Print the figure at 4 MiB per host, 1 MiB at [`Scale::Quick`], or the
/// paper's 100 MiB at [`Scale::Full`] (needs tens of GiB of RAM).
pub fn print(scale: Scale) {
    let cfg = match scale {
        Scale::Full => Config::full_scale(),
        Scale::Default => Config::default(),
        Scale::Quick => Config {
            elems: 256 * 1024,
            ..Config::default()
        },
    };
    println!(
        "Figure 15: 64-node 2-level fat tree (8-port 100 Gbps), {} MiB f32 per host,",
        cfg.elems * 4 / (1 << 20)
    );
    println!(
        "ResNet50-style sparsified gradients (top-1 per bucket of {} => ~0.2% density)",
        cfg.bucket
    );
    println!();
    let columns: &[table::Column<Row>] = &[
        ("system", |r| r.system.to_string()),
        ("time (ms)", |r| f2(r.time_ms())),
        ("traffic (GiB)", |r| format!("{:.3}", r.traffic_gib())),
    ];
    table::print(rows(&cfg), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        Config {
            hosts: 16,
            elems: 64 * 1024, // 256 KiB per host
            bucket: 512,
            seed: 5,
        }
    }

    #[test]
    fn figure15_orderings_hold_at_small_scale() {
        let cfg = small_cfg();
        let hd = host_dense(&cfg);
        let fd = flare_dense(&cfg);
        let hs = host_sparse(&cfg);
        let fs = flare_sparse(&cfg);
        // Time: host-dense slowest; Flare sparse fastest.
        assert!(hd.time_ns > fd.time_ns, "in-network dense speedup");
        assert!(fs.time_ns < hs.time_ns, "Flare sparse beats SparCML");
        assert!(fs.time_ns < fd.time_ns, "sparse beats dense in-network");
        // Traffic: host-dense > Flare dense (≈2×); Flare sparse least.
        assert!(hd.traffic_bytes > fd.traffic_bytes * 3 / 2);
        assert!(fs.traffic_bytes < hs.traffic_bytes);
        assert!(fs.traffic_bytes < fd.traffic_bytes / 4);
    }
}
