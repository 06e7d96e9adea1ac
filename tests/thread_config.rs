//! Thread-count configuration: builder/`FLARE_DES_THREADS` resolution and
//! typed rejection of unusable values. Every run drains one event queue,
//! so a valid count changes nothing; an invalid one is still an error.
//!
//! The test touches the process-global `FLARE_DES_THREADS`, so it lives
//! alone in this integration-test binary (its own process) and never leaks
//! a temporary override into the rest of the suite.

use flare::prelude::*;
use flare::workloads::dense_i32;

const VAR: &str = "FLARE_DES_THREADS";

fn run_once(threads: Option<u32>) -> Result<(Vec<Vec<i32>>, u64), SessionError> {
    let (topo, ft) = Topology::fat_tree_two_level(4, 4, 2, LinkSpec::hundred_gig());
    let n = ft.hosts.len();
    let mut b = FlareSession::builder(topo).hosts(ft.hosts);
    if let Some(t) = threads {
        b = b.threads(t);
    }
    let inputs = (0..n)
        .map(|h| dense_i32(23, h as u64, 4096, -1000, 1000))
        .collect();
    let out = b.build().allreduce(inputs).run()?;
    Ok((out.ranks().to_vec(), out.report.completion_ns()))
}

/// One test on purpose: the scenarios overwrite each other's value, so
/// they run sequentially.
#[test]
fn thread_count_resolution_and_equivalence() {
    std::env::remove_var(VAR);
    let unset = run_once(None).expect("unset run");

    // Builder threads(0) is a typed error, not a panic or a silent
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

    // Builder value wins over the environment: env says 0 (invalid), the
    // builder says 2, and the run succeeds.
    std::env::set_var(VAR, "0");
    assert_eq!(
        run_once(Some(2)),
        Ok(unset.clone()),
        "builder overrides env"
    );

    // Any valid value, whitespace around it tolerated, is the unset run.
    for good in ["1", "4", " 3 "] {
        std::env::set_var(VAR, good);
        assert_eq!(run_once(None), Ok(unset.clone()), "{VAR}={good:?}");
    }

    std::env::remove_var(VAR);
}
