//! A distributed-training-style step on the paper's Figure 15 fabric:
//! 64 hosts on a 2-level fat tree compare four ways of reducing their
//! gradients — host-based ring, Flare dense, SparCML, Flare sparse.
//!
//! Run with: `cargo run --release --example fat_tree_training`
//! (uses a scaled-down gradient; `cargo run -p flare-bench --bin figures
//! -- fig15` is the full harness).

use flare_bench::fig15::{self, Config};

fn main() {
    let cfg = Config {
        hosts: 64,
        elems: 512 * 1024, // 2 MiB of f32 per host
        bucket: 512,
        seed: 7,
    };
    println!(
        "one training step on a 64-node fat tree, {} KiB of gradients per host:",
        cfg.elems * 4 / 1024
    );
    println!();
    let rows = fig15::rows(&cfg);
    for r in &rows {
        println!(
            "  {:<28} {:>8.2} ms   {:>9.1} MiB traffic",
            r.system,
            r.time_ms(),
            r.traffic_bytes as f64 / (1 << 20) as f64
        );
    }
    let ring = &rows[0];
    let flare_sparse = &rows[3];
    println!();
    println!(
        "Flare sparse ends {:.1}x faster than the ring allreduce and moves {:.0}x less data.",
        ring.time_ns as f64 / flare_sparse.time_ns as f64,
        ring.traffic_bytes as f64 / flare_sparse.traffic_bytes as f64
    );
}
