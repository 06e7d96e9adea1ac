//! Integration tests for the switch-compute subsystem (`SwitchModel`).
//!
//! Three contracts, matching the PR's acceptance criteria:
//!
//! 1. **Fidelity** — with `SwitchModel::Hpu(HpuParams::figure5())` the
//!    network simulator reproduces the analytical switch bandwidth and
//!    queue build-up of `flare_model::scheduling` on the Figure 5
//!    illustrative switch, within a documented tolerance:
//!    `flare_bench::fig05_net`'s tests
//!    `des_bandwidth_tracks_the_analytical_model` and
//!    `des_queue_peaks_match_the_model_q` are the witness.
//! 2. **Determinism** — `Hpu` sessions are bitwise-reproducible: same
//!    inputs, same seed ⇒ same results and same makespan.
//! 3. **Regression** — the default `RateLimited` model, at the calibrated
//!    rate or an infinite one (no processing delay), leaves every
//!    pre-subsystem makespan untouched; the rows of `tests/sim_pins.rs`
//!    are the witness.

use flare::core::op::{golden_reduce, Sum};
use flare::core::session::FlareSession;
use flare::model::SwitchParams;
use flare::net::{HpuParams, LinkSpec, SwitchModel, Topology};

fn hpu_session(hosts: usize) -> FlareSession {
    let (topo, _sw, _hosts) = Topology::star(hosts, LinkSpec::hundred_gig());
    FlareSession::builder(topo)
        .switch_model(SwitchModel::Hpu(HpuParams::paper()))
        .build()
}

#[test]
fn hpu_sessions_compute_correct_results() {
    let mut session = hpu_session(6);
    let inputs: Vec<Vec<i32>> = (0..6).map(|r| vec![r + 1; 2000]).collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session.allreduce(inputs).run().unwrap();
    for r in out.ranks() {
        assert_eq!(*r, want);
    }
}

#[test]
fn hpu_sessions_are_bitwise_deterministic() {
    let run = || {
        let (topo, ft) = Topology::fat_tree_two_level(2, 4, 2, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .hosts(ft.hosts)
            .switch_model(SwitchModel::Hpu(HpuParams::paper()))
            .seed(11)
            .build();
        let inputs: Vec<Vec<f32>> = (0..8).map(|r| vec![r as f32 * 0.5; 4096]).collect();
        let out = session.allreduce(inputs).run().unwrap();
        (
            out.report.net.makespan,
            out.report.net.total_link_bytes,
            out.into_ranks(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "makespan must be bitwise-reproducible");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "per-rank results must be bitwise-identical");
}

#[test]
fn hpu_model_actually_changes_switch_timing() {
    // Sanity that the knob engages: a tiny HPU (1 cluster × 1 core) must
    // be much slower than the 512-core paper switch on the same workload.
    let run = |params: HpuParams| {
        let (topo, _sw, _hosts) = Topology::star(8, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo)
            .switch_model(SwitchModel::Hpu(params))
            .build();
        let inputs: Vec<Vec<f32>> = (0..8).map(|_| vec![1.0; 64 * 1024]).collect();
        session.allreduce(inputs).run().unwrap().report.net.makespan
    };
    let mut tiny = SwitchParams::paper();
    tiny.clusters = 1;
    tiny.cores_per_cluster = 1;
    let serial = run(HpuParams::new(tiny));
    let full = run(HpuParams::paper());
    assert!(
        serial > 2 * full,
        "1-core switch ({serial} ns) must trail the 512-core switch ({full} ns)"
    );
}

#[test]
fn invalid_hpu_params_are_a_typed_error_not_a_panic() {
    // A subset size that does not divide the cluster width must surface
    // as SessionError::InvalidSwitchModel at run(), like every other
    // tuning misconfiguration — not as a SwitchCompute::new panic deep
    // inside switch installation.
    use flare::core::session::SessionError;
    let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo)
        .switch_model(SwitchModel::Hpu(HpuParams::paper().with_subset_size(3)))
        .build();
    let err = session
        .allreduce(vec![vec![1i32; 64]; 3])
        .run()
        .unwrap_err();
    assert!(
        matches!(err, SessionError::InvalidSwitchModel(ref why) if why.contains("subset_size")),
        "{err:?}"
    );
}

#[test]
fn a_switch_model_no_run_can_finish_under_is_a_typed_error() {
    // A zero rate makes every service time infinite and would overflow
    // the clock mid-run; a negative or NaN rate, or a NaN per-element
    // cost, would silently serve every packet in 1 ns.
    use flare::core::session::SessionError;
    let mut nan_cost = HpuParams::paper();
    nan_cost.params.cycles_per_elem = f64::NAN;
    let models = [0.0, -1.0, f64::NAN].map(|r| (SwitchModel::RateLimited(r), "RateLimited"));
    for (model, why) in models
        .into_iter()
        .chain([(SwitchModel::Hpu(nan_cost), "cycles_per_elem")])
    {
        let (topo, _sw, _hosts) = Topology::star(3, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo).switch_model(model).build();
        let err = session
            .allreduce(vec![vec![1i32; 64]; 3])
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SessionError::InvalidSwitchModel(ref w) if w.contains(why)),
            "{err:?}"
        );
    }
}
