//! Thread-count configuration for the parallel simulation driver:
//! builder/`FLARE_DES_THREADS` resolution, typed rejection of unusable
//! values, and serial-vs-parallel result equality at the session level.
//!
//! All tests that touch the `FLARE_DES_THREADS` environment variable live
//! in this one integration-test binary (its own process) and run under a
//! single `#[test]` so they never race each other — and never leak a
//! temporary override into the rest of the suite, which CI runs with
//! `FLARE_DES_THREADS` pinned.

use flare::prelude::*;
use flare::workloads::dense_i32;

const VAR: &str = "FLARE_DES_THREADS";

fn fat_tree_session(threads: Option<u32>) -> (FlareSession, usize) {
    let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
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
    let (mut session, n) = fat_tree_session(threads);
    let out = session.allreduce(inputs(n)).run()?;
    Ok((out.ranks().to_vec(), out.report.completion_ns()))
}

/// One test on purpose: the environment variable is process-global, so the
/// scenarios must run sequentially within this binary.
#[test]
fn thread_count_resolution_and_equivalence() {
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
