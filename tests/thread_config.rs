//! Thread-count configuration for the parallel simulation driver:
//! builder/`FLARE_DES_THREADS` resolution, typed rejection of unusable
//! values, and serial-vs-parallel result equality at the session level.
//!
//! All tests that touch the `FLARE_DES_THREADS` environment variable live
//! in this one integration-test binary (its own process) and hold
//! [`ENV`] while they do, so they never race each other — and never leak
//! a temporary override into the rest of the suite, which CI runs with
//! `FLARE_DES_THREADS` pinned. Every other test here configures threads
//! through the builder only.

use std::sync::{Mutex, MutexGuard};

use flare::prelude::*;
use flare::workloads::dense_i32;

const VAR: &str = "FLARE_DES_THREADS";

/// The environment variable is process-global: whoever reads or writes it
/// holds this.
static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    // It guards no data, so a holder that panicked left nothing broken.
    ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fat_tree_session(leaves: usize, per_leaf: usize, threads: Option<u32>) -> (FlareSession, usize) {
    let (topo, ft) = Topology::fat_tree_two_level(leaves, per_leaf, 2, LinkSpec::hundred_gig());
    let n = ft.hosts.len();
    let mut b = FlareSession::builder(topo).hosts(ft.hosts);
    if let Some(t) = threads {
        b = b.threads(t);
    }
    (b.build(), n)
}

fn inputs(n: usize) -> Vec<Vec<i32>> {
    (0..n)
        .map(|h| dense_i32(23, h as u64, 4096, -1000, 1000))
        .collect()
}

fn run_once(threads: Option<u32>) -> Result<(Vec<Vec<i32>>, u64), SessionError> {
    let (mut session, n) = fat_tree_session(4, 4, threads);
    let out = session.allreduce(inputs(n)).run()?;
    Ok((out.ranks().to_vec(), out.report.completion_ns()))
}

/// One test on purpose: the scenarios overwrite each other's value, so
/// they run sequentially.
#[test]
fn thread_count_resolution_and_equivalence() {
    let _env = env_lock();
    // Baseline: no configuration at all → one lane.
    std::env::remove_var(VAR);
    let (serial_ranks, serial_ns) = run_once(None).expect("serial run");

    // Builder threads(0) is a typed error, not a panic or a silent serial
    // fallback.
    match run_once(Some(0)) {
        Err(SessionError::InvalidThreadCount { given }) => assert_eq!(given, "0"),
        other => panic!("threads(0) must be InvalidThreadCount, got {other:?}"),
    }

    // Env var set to 0 or garbage: same typed error.
    for bad in ["0", "lots", "-3", ""] {
        std::env::set_var(VAR, bad);
        match run_once(None) {
            Err(SessionError::InvalidThreadCount { given }) => assert_eq!(given, bad),
            other => panic!("{VAR}={bad:?} must be InvalidThreadCount, got {other:?}"),
        }
    }

    // A valid env value selects the parallel driver; results are bitwise
    // identical to serial, including the makespan.
    std::env::set_var(VAR, "4");
    let (par_ranks, par_ns) = run_once(None).expect("parallel run via env");
    assert_eq!(par_ranks, serial_ranks);
    assert_eq!(par_ns, serial_ns);

    // Builder value wins over the environment: env says 0 (invalid), the
    // builder says 2, and the run succeeds.
    std::env::set_var(VAR, "0");
    let (b_ranks, b_ns) = run_once(Some(2)).expect("builder overrides env");
    assert_eq!(b_ranks, serial_ranks);
    assert_eq!(b_ns, serial_ns);

    // Whitespace around a valid value is tolerated.
    std::env::set_var(VAR, " 3 ");
    let (w_ranks, w_ns) = run_once(None).expect("trimmed env value");
    assert_eq!(w_ranks, serial_ranks);
    assert_eq!(w_ns, serial_ns);

    std::env::remove_var(VAR);
}

/// Lossy run on a fat tree: the injected drop pattern (and therefore the
/// retransmission schedule, the makespan and the traffic totals) must be
/// invariant under the worker-thread count. Loss is decided by
/// per-link-direction RNG streams owned by the transmitting partition, so
/// the draw sequence cannot depend on thread interleaving.
///
/// Uses only builder-configured thread counts — never the environment —
/// so it cannot race the env-twiddling test above in this binary.
#[test]
fn lossy_drop_pattern_is_thread_count_invariant() {
    let run = |threads: u32| {
        let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
        let n = ft.hosts.len();
        let mut session = FlareSession::builder(topo)
            .hosts(ft.hosts)
            .link_drop_prob(0.08)
            .retransmit_after(Some(40_000))
            .threads(threads)
            .build();
        let out = session.allreduce(inputs(n)).run().expect("lossy run");
        (
            out.ranks().to_vec(),
            out.report.completion_ns(),
            out.report.drops(),
            out.report.net.total_link_bytes,
            out.report.net.total_link_packets,
        )
    };
    let base = run(1);
    assert!(base.2 > 0, "loss injection must actually drop packets");
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), base, "diverged at {threads} threads");
    }
}

/// The smallest run found on which one lane and the windowed driver
/// disagree: a sparse collective over two leaves. Contributions that
/// reach the root spine at the same instant from different leaf
/// partitions arrive in global scheduling order as one lane but in
/// `(source partition, seq)` order after a window merge (the tie-break
/// `flare-des/src/partition.rs` documents), and sparse shards differ in
/// size, so the root's serial pipeline retires blocks in a different
/// order. Dense packets are all one size, which is why no dense test sees
/// it. Recorded, not fixed: ROADMAP item 2(d).
///
/// What is guaranteed, and asserted: the windowed driver is thread-count
/// invariant, and against one lane the results, event count and per-link
/// traffic are equal. The makespans are pinned at both values so a change
/// to the tie-break shows up here first.
#[test]
fn sparse_same_instant_ties_split_one_lane_from_windowed() {
    const ELEMS: usize = 65_536;
    const PAIRS: usize = ELEMS / 100;
    const STRIDE: usize = ELEMS / PAIRS;
    let run = |threads: Option<u32>| {
        let (mut session, n) = fat_tree_session(2, 8, threads);
        let pairs: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|rank| {
                (0..PAIRS)
                    .map(|i| (((i * STRIDE + rank) % ELEMS) as u32, 1.0))
                    .collect()
            })
            .collect();
        let out = session.sparse_allreduce(ELEMS, pairs).run().expect("run");
        let net = out.report.net.clone();
        (out.into_ranks(), net)
    };
    let (lane_ranks, lane) = {
        let _env = env_lock();
        std::env::remove_var(VAR);
        run(None)
    };
    let windowed = run(Some(1));
    for threads in [2, 4] {
        assert_eq!(
            run(Some(threads)),
            windowed,
            "diverged at {threads} threads"
        );
    }
    let (windowed_ranks, windowed) = windowed;
    assert_eq!(lane_ranks, windowed_ranks);
    assert_eq!((lane.events, lane.total_link_bytes), (5_580, 1_721_440));
    assert_eq!(
        (windowed.events, &windowed.links),
        (lane.events, &lane.links)
    );
    assert_eq!((lane.makespan, windowed.makespan), (8_100, 8_099));
}
