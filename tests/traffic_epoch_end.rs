//! When a traffic-engine epoch ends: with its last iteration, or at the
//! engine's deadline.

use flare::prelude::*;

/// Four 3-iteration tenants with two Poisson jobs each on a 2×4×2 fat
/// tree, one epoch; `check` sees the epoch's engine and report.
fn one_epoch(deadline: Option<u64>, check: impl FnOnce(&mut TrafficEngine<'_>, RunReport)) {
    let (topo, ft) = Topology::fat_tree_two_level(2, 4, 2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).hosts(ft.hosts).build();
    let mut engine = TrafficEngine::new(&mut session, 7);
    for i in 0..4 {
        let spec = TenantSpec::new(format!("t{i}"), 8_192)
            .iterations(3)
            .compute(1_000, 0.2)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival_ns: 5_000.0,
                jobs: 2,
            });
        engine.add_tenant(spec).expect("admit tenant");
    }
    engine.set_deadline(deadline);
    let report = engine.run().expect("epoch runs");
    check(&mut engine, report);
    engine.release_all().expect("release");
}

fn iterations_completed(report: &RunReport) -> usize {
    let section = report.tenants.as_ref().expect("tenant section");
    section.tenants.iter().map(|t| t.iterations_completed).sum()
}

#[test]
fn an_epoch_completes_when_its_last_iteration_does() {
    // Regression: every iteration's participant marks its host done, and
    // the first mark used to win, so `completion_ns()` was the end of the
    // fleet's first iteration (6 991 ns here) whatever ran after it.
    one_epoch(None, |_, report| {
        assert_eq!(iterations_completed(&report), 24);
        assert_eq!(report.net.makespan, 73_148);
        assert_eq!(report.completion_ns(), report.net.makespan);
    });
}

#[test]
fn a_deadline_cuts_the_epoch_and_the_engine_runs_again() {
    one_epoch(Some(20_000), |engine, report| {
        assert_eq!(report.net.makespan, 20_000);
        assert_eq!(iterations_completed(&report), 5, "of 24");
        let again = engine.run().expect("a cut epoch leaves the engine usable");
        assert_eq!(again.tenants, report.tenants);
    });
}
