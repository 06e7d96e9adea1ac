//! Flexibility point F3: bitwise-reproducible floating-point reduction.
//!
//! f32 addition is not associative, so the result of an allreduce depends
//! on the order packets happen to arrive — a real problem for climate and
//! weather codes where a rounding-level difference grows into a different
//! weather pattern. Flare's tree aggregation fixes the operand placement
//! (packet from child i always lands in leaf i), making the result
//! independent of timing; this example demonstrates both the problem and
//! the fix on the PsPIN engine with adversarially jittered arrivals.
//!
//! Run with: `cargo run --release --example reproducible_sum`

use flare::core::handlers::{DenseAllreduceHandler, DenseHandlerConfig};
use flare::core::op::Sum;
use flare::core::wire::{encode_dense, Header, PacketKind};
use flare::model::{AggKind, SwitchParams};
use flare::pspin::engine::run_trace;
use flare::pspin::{ArrivalTrace, PspinConfig, SchedulingPolicy, StaggerMode, TraceConfig};
use flare::workloads::dense_uniform_f32;

/// Run one 8-child block with the given arrival seed; return the f32 bit
/// patterns of the aggregated block.
fn run(algorithm: AggKind, seed: u64) -> Vec<u32> {
    let children = 8usize;
    let n = 128usize;
    // Values spanning ten orders of magnitude: rounding is inevitable and
    // order-dependent.
    let data: Vec<Vec<f32>> = (0..children)
        .map(|c| {
            dense_uniform_f32(7, c as u64, n, 0.5, 1.5)
                .into_iter()
                .map(|x| x * 10f32.powi((c as i32 % 5) * 4 - 8))
                .collect()
        })
        .collect();
    let trace = TraceConfig {
        flow: 1,
        children,
        blocks: 1,
        header_bytes: 0,
        delta: 2,
        stagger: StaggerMode::None,
        exponential_jitter: true,
        seed,
    };
    let arrivals = ArrivalTrace::generate(&trace, |c, _| {
        let header = Header {
            allreduce: 1,
            block: 0,
            child: c,
            kind: PacketKind::DenseContrib,
            last_shard: false,
            shard_count: 0,
            elem_count: 0,
        };
        encode_dense::<f32>(header, &data[c as usize])
    });
    let cfg = PspinConfig {
        params: SwitchParams {
            clusters: 2,
            cores_per_cluster: 4,
            ..SwitchParams::paper()
        },
        policy: SchedulingPolicy::Hierarchical { subset_size: 4 },
        ..PspinConfig::paper()
    };
    let handler: DenseAllreduceHandler<f32, Sum> = DenseAllreduceHandler::new(
        DenseHandlerConfig {
            allreduce: 1,
            children: children as u16,
            algorithm,
            capture_results: true,
        },
        Sum,
    );
    let (_, engine) = run_trace(cfg, handler, arrivals, false);
    engine.handler().results()[0]
        .1
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn main() {
    // Single-buffer aggregation: arrival order = aggregation order.
    let reference = run(AggKind::SingleBuffer, 1);
    let mut distinct = 1;
    for seed in 2..20 {
        if run(AggKind::SingleBuffer, seed) != reference {
            distinct += 1;
        }
    }
    println!("single-buffer: {distinct}/19 arrival orders produced different f32 bit patterns");
    assert!(distinct > 1, "expected order-dependence");

    // Tree aggregation: fixed operand placement.
    let reference = run(AggKind::Tree, 1);
    for seed in 2..20 {
        assert_eq!(
            run(AggKind::Tree, seed),
            reference,
            "tree must be bitwise stable"
        );
    }
    println!("tree:          19/19 arrival orders produced IDENTICAL bit patterns");
    println!();
    println!("Flare's policy: reproducible=true always selects tree aggregation,");
    println!("without buffering all packets first (unlike fixed-function designs).");

    // The same guarantee through the session API: `.reproducible(true)`
    // forces tree aggregation end-to-end on the packet-level simulator,
    // and every rank's result is bitwise identical across runs.
    use flare::prelude::*;
    let (topo, _sw, _hosts) = Topology::star(8, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|c| {
            dense_uniform_f32(7, c as u64, 4096, 0.5, 1.5)
                .into_iter()
                .map(|x| x * 10f32.powi((c % 5) * 4 - 8))
                .collect()
        })
        .collect();
    let a = session
        .allreduce(inputs.clone())
        .reproducible(true)
        .seed(1)
        .run()
        .expect("admitted");
    let b = session
        .allreduce(inputs)
        .reproducible(true)
        .seed(99)
        .run()
        .expect("admitted");
    assert_eq!(a.report.algorithm, AggKind::Tree);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(a.rank(0)),
        bits(b.rank(0)),
        "session runs bitwise stable"
    );
    println!("session API:   reproducible(true) ⇒ tree, bitwise-stable across seeds  [ok]");
}
