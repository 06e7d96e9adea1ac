//! Cross-validation between the closed-form models (flare-model) and the
//! event-level PsPIN simulator (flare-pspin) — the reproduction's analogue
//! of the paper validating its models against the RTL simulator — plus the
//! linear cluster-scaling methodology check.

use flare::core::wiring::SwitchRun;
use flare::model::units::KIB;
use flare::model::{dense, AggKind, SwitchParams};
use flare::pspin::{PspinConfig, SchedulingPolicy, StaggerMode};

fn run_on(clusters: usize, kind: AggKind, data_bytes: u64, jitter: bool) -> flare::pspin::Report {
    let params = SwitchParams {
        clusters,
        ..SwitchParams::paper()
    };
    let run = SwitchRun {
        cfg: PspinConfig {
            params: SwitchParams {
                clusters,
                ..SwitchParams::paper()
            },
            ..PspinConfig::paper()
        },
        children: 64,
        blocks: (data_bytes / 1024).max(1),
        stagger: StaggerMode::Target(dense::target_delta_c(&params, kind) as u64),
        jitter,
        seed: 17,
    };
    run.dense::<i32>(kind)
}

#[test]
fn simulated_tree_bandwidth_tracks_the_model() {
    // Deterministic arrivals at line rate: the simulator should achieve a
    // bandwidth within ~20% of the modeled ℬ (parse overhead, pipeline
    // fill and drain account for the gap).
    let params = SwitchParams::paper();
    let model = dense::evaluate(&params, AggKind::Tree, 8, 512 * KIB);
    let report = run_on(64, AggKind::Tree, 512 * KIB, false);
    let ratio = report.ingress_tbps / model.bandwidth_tbps;
    assert!(
        (0.75..=1.15).contains(&ratio),
        "sim {} vs model {} (ratio {ratio})",
        report.ingress_tbps,
        model.bandwidth_tbps
    );
}

#[test]
fn contention_penalty_appears_in_both_model_and_sim() {
    // Small data, single buffer: the model predicts the L(C−1)/2 collapse;
    // the simulator must show a comparable slowdown vs tree.
    let params = SwitchParams::paper();
    let m_single = dense::evaluate(&params, AggKind::SingleBuffer, 8, 16 * KIB);
    let m_tree = dense::evaluate(&params, AggKind::Tree, 8, 16 * KIB);
    let model_ratio = m_tree.bandwidth_tbps / m_single.bandwidth_tbps;
    assert!(model_ratio > 2.0);
    let s_single = run_on(64, AggKind::SingleBuffer, 16 * KIB, false);
    let s_tree = run_on(64, AggKind::Tree, 16 * KIB, false);
    let sim_ratio = s_tree.ingress_tbps / s_single.ingress_tbps;
    assert!(
        sim_ratio > 1.5,
        "simulated tree/single ratio {sim_ratio} too small (model {model_ratio})"
    );
}

#[test]
fn linear_cluster_scaling_matches_direct_simulation() {
    // The paper simulates 4 clusters and scales linearly to 64 (clusters
    // share nothing); check that 4× a 4-cluster run's bandwidth predicts a
    // direct 16-cluster run. Offered load is scaled with the cluster count
    // via line_rate_delta.
    let small = run_on(4, AggKind::Tree, 256 * KIB, false);
    let scaled = small.ingress_tbps * 16.0 / 4.0;
    let direct = run_on(16, AggKind::Tree, 256 * KIB, false);
    let ratio = scaled / direct.ingress_tbps;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "scaled {scaled} vs direct {} (ratio {ratio})",
        direct.ingress_tbps
    );
}

#[test]
fn staggering_cuts_input_buffer_occupancy_in_sim_as_modeled() {
    // Section 5's central claim: raising δc suppresses queueing. Compare
    // no-stagger vs full-stagger runs of the same workload.
    let run = |stagger| {
        let run = SwitchRun {
            cfg: PspinConfig {
                params: SwitchParams {
                    clusters: 8,
                    ..SwitchParams::paper()
                },
                ..PspinConfig::paper()
            },
            children: 64,
            blocks: 128,
            stagger,
            jitter: false,
            seed: 23,
        };
        run.dense::<i32>(AggKind::SingleBuffer)
    };
    let tight = run(StaggerMode::None);
    let staggered = run(StaggerMode::Full);
    assert!(
        staggered.input_buffer_peak < tight.input_buffer_peak,
        "staggering must reduce buffering: {} vs {}",
        staggered.input_buffer_peak,
        tight.input_buffer_peak
    );
    assert!(
        staggered.lock_wait_cycles < tight.lock_wait_cycles / 2,
        "staggering must slash contention: {} vs {}",
        staggered.lock_wait_cycles,
        tight.lock_wait_cycles
    );
}

#[test]
fn global_fcfs_pays_the_remote_l1_penalty() {
    // The motivation for hierarchical scheduling (Section 5): global FCFS
    // scatters a block's packets over clusters, so aggregation touches
    // remote L1 at a 25× cost. Compare achieved bandwidth.
    let run_policy = |policy| {
        let run = SwitchRun {
            cfg: PspinConfig {
                params: SwitchParams {
                    clusters: 8,
                    ..SwitchParams::paper()
                },
                policy,
                ..PspinConfig::paper()
            },
            children: 64,
            blocks: 64,
            stagger: StaggerMode::Full,
            jitter: false,
            seed: 29,
        };
        run.dense::<i32>(AggKind::SingleBuffer)
    };
    let hier = run_policy(SchedulingPolicy::Hierarchical { subset_size: 8 });
    let global = run_policy(SchedulingPolicy::GlobalFcfs);
    assert!(
        hier.ingress_tbps > 2.0 * global.ingress_tbps,
        "hierarchical {} vs global {}",
        hier.ingress_tbps,
        global.ingress_tbps
    );
}
