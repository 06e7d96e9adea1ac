//! Multi-tenancy: admission control plus sustained job churn.
//!
//! Part 1 reproduces the paper's Section 4 story: each switch statically
//! partitions its working memory across concurrent allreduces, and when
//! every feasible tree has a saturated switch the request is rejected
//! (fall back to host-based allreduce).
//!
//! Part 2 goes further than one-shot admission: a [`TrafficEngine`]
//! drives a population of tenants — each a Poisson stream of training
//! jobs, each job a loop of compute + allreduce iterations — through ONE
//! shared network simulation, and prints per-tenant p50/p99 iteration
//! makespans, queueing delays and Jain's fairness index over switch
//! bytes.
//!
//! Run with: `cargo run --release --example multi_tenant [-- trace.json]`
//!
//! Given a path, Part 2 runs with fabric telemetry on and writes its
//! Perfetto-loadable chrome trace there (open <https://ui.perfetto.dev>
//! and drop the file in). What is printed is the same either way: capture
//! never perturbs the schedule.

use flare::core::manager::AdmissionError;
use flare::net::telemetry::validate_chrome_trace;
use flare::net::TelemetryConfig;
use flare::prelude::*;

fn admission_control_demo() {
    // 8 leaves × 2 hosts, 2 spines: two candidate roots for cross-leaf
    // reductions. Small per-switch budget so contention shows quickly;
    // reproducible tenants force tree aggregation.
    let (topo, ft) = Topology::fat_tree_two_level(8, 2, 2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo)
        .hosts(ft.hosts)
        .switch_memory(600 << 10)
        .build();
    let tenant_bytes = 256 << 10;

    let mut tenants: Vec<CollectiveHandle> = Vec::new();
    loop {
        match session.admit(tenant_bytes, true) {
            Ok(handle) => {
                println!(
                    "tenant #{:<2} admitted: root={:?}, {} switches, {} B reserved each",
                    handle.id(),
                    handle.root_switch(),
                    handle.plan().tree.switches.len(),
                    handle.reserved_bytes()
                );
                tenants.push(handle);
            }
            Err(SessionError::Admission(AdmissionError::NoTree)) => {
                println!(
                    "tenant #{} REJECTED: every feasible tree has a saturated switch \
                     (fall back to host-based allreduce)",
                    tenants.len() + 1
                );
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        if tenants.len() > 64 {
            panic!("budget never exhausted?");
        }
    }
    let spine_roots: Vec<_> = tenants.iter().map(|t| t.root_switch()).collect();
    println!(
        "{} tenants admitted; roots used: {:?}",
        tenants.len(),
        spine_roots
    );
    assert!(
        spine_roots.windows(2).any(|w| w[0] != w[1]),
        "admission must have rerouted around the saturated spine"
    );

    // Tear one tenant down: capacity returns. A double release of the
    // same id is a typed error, not a silent no-op.
    let freed = tenants.remove(0);
    let dup = freed.clone();
    let freed_id = freed.id();
    session.release(freed).expect("first release succeeds");
    assert!(matches!(
        session.release(dup),
        Err(SessionError::HandleReleased { .. })
    ));
    let again = session.admit(tenant_bytes, true);
    println!(
        "after releasing tenant #{}: new request {}",
        freed_id,
        if again.is_ok() {
            "admitted"
        } else {
            "still rejected"
        }
    );
    assert!(again.is_ok());
    for t in tenants {
        session.release(t).expect("release tenant");
    }
}

fn traffic_engine_demo(trace_path: Option<&str>) {
    const TENANTS: usize = 12;
    // 4 leaves × 4 hosts, 2 spines, with the paper's multi-core HPU
    // switch model so tenants contend for real handler cores.
    let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
    let mut builder = FlareSession::builder(topo)
        .hosts(ft.hosts)
        .switch_model(SwitchModel::Hpu(HpuParams::paper()));
    if trace_path.is_some() {
        builder = builder.telemetry(TelemetryConfig::default());
    }
    let mut session = builder.build();

    let mut engine = TrafficEngine::new(&mut session, 42);
    for i in 0..TENANTS {
        engine
            .add_tenant(
                TenantSpec::new(format!("job-{i:02}"), 16 * 1024)
                    .iterations(3)
                    .compute(8_000, 0.25)
                    .arrivals(ArrivalProcess::Poisson {
                        mean_interarrival_ns: 40_000.0,
                        jobs: 2,
                    }),
            )
            .expect("admit tenant");
    }
    let report = engine.run().expect("traffic run");
    let section = report.tenants.as_ref().expect("tenant section");

    println!(
        "{:<8} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
        "tenant", "jobs", "iters", "p50 ns", "p99 ns", "max ns", "queue p99"
    );
    for t in &section.tenants {
        let mk = t.makespan_tails();
        let q = t.queueing_tails();
        println!(
            "{:<8} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
            t.label, t.jobs_completed, t.iterations_completed, mk.p50, mk.p99, mk.max, q.p99
        );
        assert_eq!(t.jobs_completed, t.jobs, "every job must finish");
    }
    println!(
        "fleet: makespan {} ns, Jain fairness {:.4}, peak switch reservation {} B",
        report.net.makespan, section.fabric.fairness_jain, report.reserved_bytes
    );
    for hpu in &section.fabric.hpu {
        let busiest = hpu.subset_peaks.iter().max().copied().unwrap_or(0);
        println!(
            "  switch {:?}: {} handler activations, queue peak {} (busiest subset {})",
            hpu.switch, hpu.stats.handlers, hpu.stats.queue_peak, busiest
        );
    }
    engine.release_all().expect("release tenants");
    assert_eq!(session.active_collectives(), 0);

    if let Some(path) = trace_path {
        let json = report.trace.expect("telemetry was enabled").chrome_trace();
        let events = validate_chrome_trace(&json).expect("trace validates");
        std::fs::write(path, &json).expect("write trace");
        eprintln!("wrote {path}: {events} trace events, {} bytes", json.len());
    }
}

fn main() {
    println!("== Part 1: admission control (Section 4) ==");
    admission_control_demo();
    println!();
    println!("== Part 2: multi-tenant traffic engine ==");
    traffic_engine_demo(std::env::args().nth(1).as_deref());
}
