//! System-level tests of the multi-tenant traffic engine: the PR 6
//! acceptance run (64 Poisson tenants on a fat tree with the paper's HPU
//! switch model), queueing-delay semantics, bitwise reproducibility, a
//! churn soak asserting switch memory and buffer pools reach a steady
//! state instead of growing monotonically, and the PR 8 flow-scoped
//! program layer: lossy mixed dense/sparse tenant populations whose
//! retransmission timers are multiplexed through the [`FlowTag`]
//! namespace, bit-identical across fresh epochs.

use flare::prelude::*;

fn fat_tree_session(leaves: usize, per_leaf: usize, spines: usize, hpu: bool) -> FlareSession {
    let (topo, ft) =
        Topology::fat_tree_two_level(leaves, per_leaf, spines, LinkSpec::hundred_gig());
    let mut b = FlareSession::builder(topo).hosts(ft.hosts);
    if hpu {
        b = b.switch_model(SwitchModel::Hpu(HpuParams::paper()));
    }
    b.build()
}

fn poisson_fleet(engine: &mut TrafficEngine<'_>, tenants: usize) {
    for i in 0..tenants {
        engine
            .add_tenant(
                TenantSpec::new(format!("t{i:02}"), 1024)
                    .iterations(2)
                    .compute(3_000, 0.2)
                    .arrivals(ArrivalProcess::Poisson {
                        mean_interarrival_ns: 25_000.0,
                        jobs: 1,
                    }),
            )
            .expect("admit tenant");
    }
}

/// One 64-tenant Poisson epoch on a 16-host fat tree under the paper's
/// HPU switch model; returns the tenant section for comparison.
fn acceptance_epoch() -> (TenantSection, u64) {
    let mut session = fat_tree_session(4, 4, 2, true);
    let mut engine = TrafficEngine::new(&mut session, 7);
    poisson_fleet(&mut engine, 64);
    let report = engine.run().expect("64-tenant run completes");
    assert!(report.reserved_bytes > 0);
    let section = report.tenants.clone().expect("tenant section");
    engine.release_all().expect("release fleet");
    assert_eq!(session.active_collectives(), 0);
    (section, report.net.makespan)
}

#[test]
fn sixty_four_poisson_tenants_complete_with_tail_metrics() {
    let (section, makespan) = acceptance_epoch();
    assert!(makespan > 0);
    assert_eq!(section.tenants.len(), 64);
    for t in &section.tenants {
        assert_eq!(t.jobs_completed, t.jobs, "{}: every job finishes", t.label);
        assert_eq!(t.iterations_completed, 2, "{}: both iterations", t.label);
        let tails = t.makespan_tails();
        assert!(tails.count == 2 && tails.p50 > 0 && tails.p50 <= tails.p99);
        assert_eq!(tails.max, *t.iteration_makespans_ns.iter().max().unwrap());
        assert_eq!(t.queueing_delays_ns.len(), t.jobs);
        assert!(t.switch_bytes > 0, "{}: packets crossed switches", t.label);
    }
    // Identical workloads sharing one fabric: switch-byte shares are even.
    assert!(section.fabric.fairness_jain > 0.99);
    // The HPU switches really contended: activations everywhere.
    assert!(!section.fabric.hpu.is_empty());
    for h in &section.fabric.hpu {
        assert!(h.stats.handlers > 0);
    }
}

#[test]
fn acceptance_run_is_bitwise_reproducible() {
    // Two engines built from scratch (fresh sessions, fresh managers):
    // the full tenant sections — every makespan, delay, byte count and
    // HPU counter — must match bitwise.
    let (a, mk_a) = acceptance_epoch();
    let (b, mk_b) = acceptance_epoch();
    assert_eq!(a, b);
    assert_eq!(mk_a, mk_b);
}

#[test]
fn backlogged_jobs_accrue_queueing_delay() {
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let mut engine = TrafficEngine::new(&mut session, 7);
    // Both jobs arrive at t = 0 with no compute phase: the first starts
    // instantly, the second must wait for the first to finish.
    engine
        .add_tenant(TenantSpec::new("backlog", 2048).arrivals(ArrivalProcess::Trace(vec![0, 0])))
        .unwrap();
    let report = engine.run().unwrap();
    let t = &report.tenants.as_ref().unwrap().tenants[0];
    assert_eq!(t.jobs_completed, 2);
    assert_eq!(t.queueing_delays_ns.len(), 2);
    assert_eq!(t.queueing_delays_ns[0], 0, "idle fabric: no queueing");
    assert!(
        t.queueing_delays_ns[1] >= t.iteration_makespans_ns[0],
        "job 2 waits at least the first job's allreduce: {:?}",
        t.queueing_delays_ns
    );
    engine.release_all().unwrap();
}

#[test]
fn tenants_on_disjoint_host_sets_coexist() {
    let mut session = fat_tree_session(2, 4, 1, false);
    let hosts = session.hosts().to_vec();
    let (left, right) = hosts.split_at(4);
    let (left, right) = (left.to_vec(), right.to_vec());
    let mut engine = TrafficEngine::new(&mut session, 13);
    engine
        .add_tenant(TenantSpec::new("left", 1024).iterations(2).on_hosts(left))
        .unwrap();
    engine
        .add_tenant(TenantSpec::new("right", 1024).iterations(2).on_hosts(right))
        .unwrap();
    let report = engine.run().unwrap();
    let section = report.tenants.as_ref().unwrap();
    for t in &section.tenants {
        assert_eq!(t.hosts, 4);
        assert_eq!(t.iterations_completed, 2, "{} completes", t.label);
    }
    engine.release_all().unwrap();
}

#[test]
fn churn_soak_reaches_a_steady_state() {
    const ROUNDS: usize = 24;
    const TENANTS: usize = 10;
    let (topo, sw, _hosts) = Topology::star(8, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();

    let mut payload_misses = Vec::with_capacity(ROUNDS);
    let mut makespans = Vec::with_capacity(ROUNDS);
    let mut pool_stats = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut engine = TrafficEngine::new(&mut session, 7);
        for i in 0..TENANTS {
            engine
                .add_tenant(TenantSpec::new(format!("t{i}"), 512).iterations(2))
                .expect("admit soak tenant");
        }
        let report = engine.run().expect("soak round");
        let section = report.tenants.as_ref().unwrap();
        assert!(section.tenants.iter().all(|t| t.jobs_completed == 1));
        makespans.push(report.net.makespan);
        // Which requests a free list served depends on what this thread
        // freed before the round, not on the round.
        let mut pools = section.fabric.switch_pools;
        pools.byte_pool.hits = 0;
        pool_stats.push(pools);
        engine.release_all().expect("release soak tenants");
        // Switch working memory must return to the pool every round.
        assert_eq!(session.active_collectives(), 0);
        assert_eq!(session.reserved_on(sw), 0, "reservation leak");
        let payloads = bytes::pool_stats();
        payload_misses.push(payloads.requests - payloads.reused);
    }

    // Simulated results are independent of how many tenants lived and
    // died before (fresh allreduce ids each round notwithstanding).
    assert!(
        makespans.windows(2).all(|w| w[0] == w[1]),
        "round makespans drifted under churn: {makespans:?}"
    );
    assert!(
        pool_stats.windows(2).all(|w| w[0] == w[1]),
        "switch pool/replay-slab counters drifted under churn"
    );

    // Payload blocks the free lists could not serve (this thread's, which
    // runs the fabric) must plateau: after a
    // warmup, recycled blocks serve every round and the per-round miss
    // count stops growing (no monotonic pool growth).
    let deltas: Vec<u64> = payload_misses.windows(2).map(|w| w[1] - w[0]).collect();
    let (early, late) = deltas.split_at(deltas.len() / 2);
    let late_max = late.iter().max().copied().unwrap();
    let early_max = early.iter().max().copied().unwrap();
    assert!(
        late_max <= early_max,
        "payload misses grew round over round: early {early:?}, late {late:?}"
    );
    assert!(
        late.windows(2).all(|w| w[0] == w[1]),
        "late rounds must miss a constant (steady-state) number of times: {late:?}"
    );
}

#[test]
fn inner_retransmit_timers_survive_the_traffic_mux() {
    // Regression for the latent wake-tag collision. Before the FlowTag
    // namespace, inner hosts armed their retransmission timer with a
    // flat constant (0xF1A8) while the engine decoded wake tags as
    // `kind | cell << 8` — so the timer wake decoded as cell index 0xF1
    // and was dropped, meaning a lossy tenant's dropped blocks were
    // never re-sent and the run stalled with incomplete jobs. With
    // flow-scoped tags the wake routes back to the owning inner host:
    // every job completes and the re-sends are visible in the report.
    let (topo, _sw, _hosts) = Topology::star(6, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo)
        .link_drop_prob(0.05)
        .retransmit_after(Some(100_000))
        .build();
    let mut engine = TrafficEngine::new(&mut session, 41);
    engine
        .add_tenant(TenantSpec::new("dense", 16 * 1024).iterations(3))
        .unwrap();
    engine
        .add_tenant(
            TenantSpec::new("sparse", 16 * 1024)
                .sparse(0.25)
                .iterations(3),
        )
        .unwrap();
    let report = engine.run().expect("lossy tenants complete");
    let section = report.tenants.as_ref().unwrap();
    let mut total_retx = 0;
    for t in &section.tenants {
        assert_eq!(t.jobs_completed, t.jobs, "{}: lossy job finishes", t.label);
        assert_eq!(t.iterations_completed, 3, "{}: all iterations", t.label);
        total_retx += t.retransmits;
    }
    assert!(
        total_retx > 0,
        "at 5% drop over {} iterations some block must have been re-sent",
        6
    );
    engine.release_all().unwrap();
}

/// One lossy mixed dense/sparse 16-tenant epoch on a fat tree.
fn lossy_mixed_epoch() -> (TenantSection, u64) {
    let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo)
        .hosts(ft.hosts)
        .link_drop_prob(0.01)
        .retransmit_after(Some(150_000))
        .build();
    let mut engine = TrafficEngine::new(&mut session, 29);
    for i in 0..16 {
        let mut spec = TenantSpec::new(format!("m{i:02}"), 2048)
            .iterations(2)
            .compute(4_000, 0.2)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival_ns: 30_000.0,
                jobs: 1,
            });
        if i % 2 == 1 {
            spec = spec.sparse(0.2);
        }
        engine.add_tenant(spec).expect("admit mixed tenant");
    }
    let report = engine.run().expect("lossy mixed epoch completes");
    let section = report.tenants.clone().expect("tenant section");
    engine.release_all().expect("release");
    assert_eq!(session.active_collectives(), 0);
    (section, report.net.makespan)
}

#[test]
fn lossy_mixed_fleet_is_bitwise_identical_across_epochs() {
    // The acceptance bar for the flow-scoped program layer: a 16-tenant
    // mixed dense/sparse fat-tree run at link_drop_prob = 0.01 completes
    // with bitwise-correct results on every rank (the engine's in-sim
    // first-iteration check), and the full tenant section — makespans,
    // queueing delays, byte counts, retransmit counts — is identical
    // across two fresh engine epochs. The second runs on the free lists
    // the first warmed, so their hit counts may differ; `FabricStats`
    // equality leaves them out.
    let (a, mk_a) = lossy_mixed_epoch();
    let (b, mk_b) = lossy_mixed_epoch();
    assert!(a.fabric.switch_pools.byte_pool.gets > 0, "still readable");
    assert_eq!(a, b, "fresh epochs must match");
    assert_eq!(mk_a, mk_b);

    for t in &a.tenants {
        assert_eq!(t.jobs_completed, 1, "{} completes under loss", t.label);
        assert_eq!(t.iterations_completed, 2, "{}", t.label);
    }
    let dense_n = a
        .tenants
        .iter()
        .filter(|t| t.payload == PayloadSpec::Dense)
        .count();
    assert_eq!((dense_n, a.tenants.len()), (8, 16));
}

#[test]
fn explicit_arrivals_replay_into_the_engine() {
    // Jobs at given instants: two tenants, interleaved arrivals, one
    // backlogged behind its own earlier job.
    let specs = [
        TenantSpec::new("alpha", 1024)
            .iterations(2)
            .arrivals(ArrivalProcess::Trace(vec![0, 40_000])),
        TenantSpec::new("beta", 512)
            .iterations(1)
            .arrivals(ArrivalProcess::Trace(vec![0])),
    ];

    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let mut engine = TrafficEngine::new(&mut session, 3);
    for spec in specs {
        engine.add_tenant(spec).expect("admit tenant");
    }
    let report = engine.run().expect("the arrivals run to completion");
    let section = report.tenants.as_ref().unwrap();
    let alpha = &section.tenants[0];
    assert_eq!(
        (alpha.label.as_str(), alpha.jobs, alpha.jobs_completed),
        ("alpha", 2, 2)
    );
    assert_eq!(alpha.iterations_completed, 4);
    let beta = &section.tenants[1];
    assert_eq!((beta.label.as_str(), beta.jobs_completed), ("beta", 1));
    engine.release_all().unwrap();
}

/// The oracle that `Collective::run` and `TrafficEngine::run` wire a flow
/// identically: a one-tenant, one-job, one-iteration epoch is the one-shot
/// collective over the same inputs — same makespan, link bytes and drops
/// at equal seed, dense and sparse, star and fat tree, lossless and lossy.
/// (`net.events` is not compared: the engine adds its arrival wakes.)
#[test]
fn one_tenant_epoch_equals_the_one_shot_collective() {
    const ELEMS: usize = 65_536;
    const SEED: u64 = 29;
    for sparse in [false, true] {
        for star in [true, false] {
            for lossy in [false, true] {
                let session = || {
                    let topo = if star {
                        Topology::star(8, LinkSpec::hundred_gig()).0
                    } else {
                        Topology::fat_tree_two_level(2, 4, 2, LinkSpec::hundred_gig()).0
                    };
                    let mut b = FlareSession::builder(topo);
                    if lossy {
                        b = b.link_drop_prob(0.02).retransmit_after(Some(100_000));
                    }
                    b.build()
                };
                let mut spec = TenantSpec::new("t", ELEMS);
                if sparse {
                    spec = spec.sparse(0.1);
                }
                let mut fleet = session();
                let mut engine = TrafficEngine::new(&mut fleet, SEED);
                engine.add_tenant(spec).unwrap();
                let epoch = engine.run().unwrap().net;
                engine.release_all().unwrap();

                // The engine's inputs: rank r contributes r + 1, a sparse
                // tenant at every tenth index.
                let mut alone = session();
                let ranks = (1..=alone.hosts().len()).map(|r| r as f32);
                let one_shot = if sparse {
                    let nnz = ELEMS / 10 + 1; // 6 553.6, rounded
                    let index = |j| (j * ELEMS / nnz) as u32;
                    let pairs = ranks.map(|v| (0..nnz).map(|j| (index(j), v)).collect());
                    let pairs = pairs.collect();
                    let run = alone.sparse_allreduce(ELEMS, pairs).seed(SEED).run();
                    run.unwrap().report.net
                } else {
                    let inputs = ranks.map(|v| vec![v; ELEMS]).collect();
                    alone.allreduce(inputs).seed(SEED).run().unwrap().report.net
                };
                let cell = format!("sparse={sparse} star={star} lossy={lossy}");
                assert_eq!(epoch.makespan, one_shot.makespan, "{cell}");
                assert_eq!(epoch.total_link_bytes, one_shot.total_link_bytes, "{cell}");
                assert_eq!(epoch.drops, one_shot.drops, "{cell}");
                assert_eq!(epoch.drops > 0, lossy, "{cell}");
            }
        }
    }
}

#[test]
fn a_repeated_tenant_host_is_a_typed_error() {
    // Used to be admitted and then die inside `run` on a wrong reduction:
    // the second rank of the repeated host sat behind the first's child
    // index.
    let (topo, _sw, h) = Topology::star(3, LinkSpec::hundred_gig());
    let mut session = FlareSession::new(topo);
    let mut engine = TrafficEngine::new(&mut session, 7);
    let err = engine.add_tenant(TenantSpec::new("t", 512).on_hosts(vec![h[0], h[0], h[1]]));
    let host = h[0];
    assert_eq!(
        err,
        Err(TrafficError::Session(SessionError::DuplicateHost { host }))
    );
    assert_eq!(engine.run().err(), Some(TrafficError::NoTenants));
    assert_eq!(session.active_collectives(), 0, "nothing was admitted");
}

#[test]
fn the_reservation_mark_does_not_survive_release_all() {
    // A large tenant admitted and released used to leave its 69 632 bytes
    // in every later report.
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::new(topo);
    let mut engine = TrafficEngine::new(&mut session, 7);
    engine.add_tenant(TenantSpec::new("big", 1 << 20)).unwrap();
    engine.release_all().unwrap();
    engine.add_tenant(TenantSpec::new("small", 256)).unwrap();
    let report = engine.run().unwrap();
    assert_eq!(report.reserved_bytes, 16_384);
    engine.release_all().unwrap();
}
