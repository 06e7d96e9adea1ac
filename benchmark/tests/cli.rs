//! The benchmark binary end to end, at 1/16 size or on the fastest workload.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_flare-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// The names `BENCHMARK.json` lists under `key`: what the driver will ask
/// the binary for. Read when the test runs, so the package itself compiles
/// from its own files.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json above the package");
    let doc = json::parse(&text).expect("BENCHMARK.json");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn metric_names(result: &Value) -> Vec<String> {
    let Some(Value::Obj(members)) = result.get("metrics") else {
        panic!("metrics object expected");
    };
    members.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn smoke_run_prints_every_end_to_end_metric_and_verifies_under_five_seconds() {
    let start = Instant::now();
    let out = run(&["run", "--smoke"]);
    let took = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(took < 5.0, "smoke run took {took:.1} s");
    for w in declared("workloads") {
        assert!(
            stdout.contains(&format!("{w} (1 timed repetitions)")),
            "{stdout}"
        );
    }
    for m in declared("end_to_end") {
        assert_eq!(
            stdout.matches(&format!("  {m} ")).count(),
            5,
            "{m} once per workload"
        );
    }
    assert_eq!(stdout.matches("(0 failed of").count(), 5);
}

#[test]
fn another_seed_passes_without_the_pins() {
    let out = run(&["run", "--smoke", "--seed", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn driver_mode_ends_with_the_result_line_the_contract_asks_for() {
    let out = run(&[
        "--workload",
        "pspin_switch",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let result = last_line(&out);
    let Value::Obj(members) = &result else {
        panic!("object expected");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(metric_names(&result), declared("end_to_end"));
    for name in declared("end_to_end") {
        let m = result.get("metrics").and_then(|m| m.get(&name)).unwrap();
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{name} is never 0"
        );
        assert!(m.get("unit").and_then(Value::as_str).is_some());
    }
}

#[test]
fn traced_driver_mode_reports_every_per_layer_metric() {
    let out = run(&[
        "--workload",
        "pspin_switch",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(out.status.success());
    let result = last_line(&out);
    assert_eq!(metric_names(&result), declared("per_layer"));
    let value = |name: &str| {
        let m = result.get("metrics").and_then(|m| m.get(name)).unwrap();
        m.get("value").and_then(Value::as_f64).unwrap()
    };
    assert_eq!(value("des.events"), 131_072.0);
    assert!(value("pspin.host_ns_per_packet") > 0.0);
    assert!(value("model.dense_tbps") > 0.0);
    assert!(value("host.default_malloc_wall_s") > 0.0);
    // A metric the workload does not have reads 0.
    assert_eq!(value("net.hpu.execute_ns"), 0.0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("not declared"), "{stderr}");
}

#[test]
fn smoke_trace_writes_a_span_file_with_every_workload() {
    let spans = scratch("trace-smoke.json");
    let out = run(&["trace", "--smoke", "--out", spans.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(!stderr.contains("not declared"), "{stderr}");
    assert!(stdout.contains("host.malloc_return_cost_pct"));
    assert!(stdout.contains("bench.trace_overhead_pct"));
    // Unit costs only: no share of a run is published (README, "Probes").
    assert!(!stdout.contains(".share"), "{stdout}");
    let doc = json::parse(&std::fs::read_to_string(&spans).unwrap()).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let timed = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("core.session.run"))
        .count();
    assert_eq!(timed, 3, "one traced repetition of each session workload");
    for e in events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
    {
        assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        assert!(e.get("args").and_then(|a| a.get("rep")).is_some());
    }
}

#[test]
fn compare_reads_back_what_run_wrote() {
    let (a, b) = (scratch("cmp-a.json"), scratch("cmp-b.json"));
    for f in [&a, &b] {
        let out = run(&["run", "--smoke", "--out", f.to_str().unwrap()]);
        assert!(out.status.success());
    }
    let out = run(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("| dense_star | sim_makespan_ns | sim_ns |"),
        "{stdout}"
    );
    assert!(stdout.contains("| exact | same |"), "{stdout}");
    assert!(stdout.contains("verdict:"), "{stdout}");
    // Two runs of the same code agree on every exact metric.
    assert!(!stdout.contains("| exact | worse |") && !stdout.contains("| exact | better |"));
}

#[test]
fn bad_arguments_are_errors_not_panics() {
    for args in [
        &["--workload", "nope"][..],
        &["run", "--rounds"],
        &["run", "--frobnicate", "1"],
        &["trace", "--rounds", "2"],
        &["compare", "only-one"],
        &[],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
