//! The repo benchmark: five workloads, host-time and simulated end-to-end
//! metrics, per-layer probes. `README.md` beside this package is the manual.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload for `S`
//!   seconds, result as one JSON line (what `BENCHMARK.json`'s command runs);
//! * `run` — the interleaved gate run over all five workloads;
//! * `trace` — the traced run with the per-layer probes;
//! * `compare A B` — judge two sets of `run --out` files.

mod alloc;
mod compare;
mod harness;
mod json;
mod probes;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{run_rep, RepRecord, Summary, Watchdog};
use json::Value;
use spans::Recorder;
use spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::{TraceResult, TraceRun};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Rounds of the `trace` command: one untraced and one traced repetition of
/// every workload each.
const TRACE_ROUNDS: usize = 8;

const USAGE: &str = "usage:
  flare-benchmark --workload NAME --seed N --seconds S --trace 0|1
  flare-benchmark run [--seed N] [--rounds R] [--out FILE] [--only NAME] [--smoke]
  flare-benchmark trace [--seed N] [--out FILE] [--smoke]
  flare-benchmark compare A B      (A, B: a directory of run --out files, or file,file,...)";

/// `--key value` options and bare `--flag`s, checked against `known`.
fn options(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if !known.contains(&key) {
            return Err(format!("unknown option {key}\n{USAGE}"));
        }
        if key == "--smoke" {
            out.insert(key.to_string(), String::new());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
            out.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{key}: bad value {v:?}")),
    }
}

/// Where the span files of driver-mode traced runs go: inside the package,
/// so inside whatever checkout the binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The value measured for metric `name`, if the workload has it.
fn lookup(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Every declared metric with its measured value (0 for a metric the
/// workload does not have) and unit: the `metrics` of the result line.
fn declared(
    specs: &[MetricSpec],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    specs
        .iter()
        .map(|m| (m.name, lookup(values, m.name).unwrap_or(0.0), m.unit))
        .collect()
}

fn print_end_to_end(s: &Summary) {
    println!("{} ({} timed repetitions)", s.name, s.walls.len());
    for (name, v, unit) in declared(&END_TO_END, &s.end_to_end()) {
        println!("  {name:<18} {v:>16.6} {unit}");
    }
    println!(
        "  {:<18} {:>16.6} ratio  ({} failed of {} attempted)",
        "failed_share",
        s.failed_share(),
        s.failed,
        s.attempted
    );
}

/// The result line the driver reads.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
) {
    let metrics = Value::obj(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]),
        )
    }));
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
}

/// One workload for `--seconds` seconds: the command of `BENCHMARK.json`.
fn cmd_driver(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = opts
        .get("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seed: u64 = number(&opts, "--seed", 1)?;
    let seconds: f64 = number(&opts, "--seconds", RUN_SECONDS)?;
    let traced: u8 = number(&opts, "--trace", 0)?;
    if !WORKLOADS.contains(&name.as_str()) {
        return Err(format!("unknown workload {name}"));
    }
    let dog = Watchdog::start();
    let mut rec = Recorder::new();
    let start = Instant::now();

    if traced == 0 {
        alloc::keep_heap();
        let mut w = workloads::build(name, seed, 1).expect("declared workload");
        // The first repetition warms caches and the allocator; not a sample.
        run_rep(w.as_mut(), &mut rec, 0, &dog);
        let mut reps = Vec::new();
        while reps.len() < 3 || start.elapsed().as_secs_f64() < seconds {
            reps.push(run_rep(w.as_mut(), &mut rec, reps.len() as u32 + 1, &dog));
        }
        let s = Summary::of(w.name(), &reps);
        print_end_to_end(&s);
        if !s.alloc_repeats {
            eprintln!("note: allocation counts differed between repetitions");
        }
        let correct = s.failed == 0 && s.sim_repeats;
        let metrics = declared(&END_TO_END, &s.end_to_end());
        result_line(correct, s.attempted, s.failed, metrics);
        return Ok(correct);
    }

    let mut run = TraceRun::new(name, seed, 1, &mut rec, &dog).expect("declared workload");
    alloc::keep_heap();
    // Half the time for the alternating repetitions, the rest for probes.
    while run.rounds() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        run.round(&mut rec, &dog);
    }
    let result = run.finish(&dog);
    let path = out_dir().join(format!("trace-{name}.json"));
    write_file(&path, &rec.chrome_trace().to_line())?;
    println!("{} spans written to {}", rec.kept().len(), path.display());
    print_per_layer(name, &result);
    let correct = result.failed == 0;
    let metrics = declared(&PER_LAYER, &result.metrics);
    result_line(correct, result.attempted, result.failed, metrics);
    Ok(correct)
}

fn print_per_layer(name: &str, result: &TraceResult) {
    println!("{name}");
    for m in &PER_LAYER {
        if let Some(v) = lookup(&result.metrics, m.name) {
            println!("  {:<40} {:>18.6} {}", m.name, v, m.unit);
        }
    }
    for (n, _) in &result.metrics {
        if !PER_LAYER.iter().any(|m| m.name == *n) {
            eprintln!("note: {n} is measured but not declared in BENCHMARK.json");
        }
    }
}

/// The gate run: one process, one warm-up repetition of every workload,
/// then `--rounds` rounds of one repetition of every workload in fixed
/// order, so slow phases of the machine fall on all workloads alike.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["--seed", "--rounds", "--out", "--only", "--smoke"])?;
    let smoke = opts.contains_key("--smoke");
    let seed: u64 = number(&opts, "--seed", 1)?;
    let rounds: usize = number(&opts, "--rounds", if smoke { 1 } else { 50 })?.max(1);
    let div = if smoke { 16 } else { 1 };
    let names: Vec<&str> = match opts.get("--only") {
        Some(only) => {
            println!("--only: these numbers are not comparable with an interleaved run");
            vec![only.as_str()]
        }
        None => WORKLOADS.to_vec(),
    };
    alloc::keep_heap();
    let mut ws: Vec<Box<dyn Workload>> = names
        .iter()
        .map(|n| workloads::build(n, seed, div).ok_or_else(|| format!("unknown workload {n}")))
        .collect::<Result<_, _>>()?;
    let dog = Watchdog::start();
    let mut rec = Recorder::new();
    let start = Instant::now();
    for w in &mut ws {
        run_rep(w.as_mut(), &mut rec, 0, &dog);
    }
    let mut reps: Vec<Vec<RepRecord>> = ws.iter().map(|_| Vec::new()).collect();
    for round in 1..=rounds {
        for (w, reps) in ws.iter_mut().zip(&mut reps) {
            reps.push(run_rep(w.as_mut(), &mut rec, round as u32, &dog));
        }
    }

    let mut ok = true;
    let mut docs = Vec::new();
    for (w, reps) in ws.iter().zip(&reps) {
        let s = Summary::of(w.name(), reps);
        print_end_to_end(&s);
        if s.failed > 0 {
            println!("  FAILED: {} of {} operations", s.failed, s.attempted);
            ok = false;
        }
        if !s.sim_repeats {
            println!("  FAILED: simulated results differ between repetitions");
            ok = false;
        }
        if !s.alloc_repeats {
            println!("  FAILED: allocation counts differ between repetitions");
            ok = false;
        }
        // The pins are the seed-1 values at full size in an interleaved run:
        // allocation counts depend on what ran before, through the
        // thread-local shell pool of `vendor/bytes`.
        if seed == 1 && !smoke && !opts.contains_key("--only") {
            for line in s.pin_mismatches() {
                println!("  PIN MISMATCH {line}");
                ok = false;
            }
        }
        docs.push((
            w.name(),
            Value::obj([
                ("samples", Value::Num(s.walls.len() as f64)),
                ("attempted", Value::Num(s.attempted as f64)),
                ("failed", Value::Num(s.failed as f64)),
                ("failed_share", Value::Num(s.failed_share())),
                (
                    "metrics",
                    Value::obj(s.end_to_end().into_iter().map(|(k, v)| (k, Value::Num(v)))),
                ),
            ]),
        ));
    }
    println!(
        "{} rounds, seed {seed}, {:.1} s",
        rounds,
        start.elapsed().as_secs_f64()
    );
    if let Some(out) = opts.get("--out") {
        let doc = Value::obj([
            ("benchmark", Value::Str("flare-benchmark".into())),
            ("seed", Value::Num(seed as f64)),
            ("rounds", Value::Num(rounds as f64)),
            ("workloads", Value::obj(docs)),
        ]);
        write_file(&PathBuf::from(out), &doc.to_pretty())?;
    }
    Ok(ok)
}

/// The traced run over all five workloads, interleaved like the gate run.
fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["--seed", "--out", "--smoke"])?;
    let smoke = opts.contains_key("--smoke");
    let seed: u64 = number(&opts, "--seed", 1)?;
    let rounds = if smoke { 1 } else { TRACE_ROUNDS };
    let div = if smoke { 16 } else { 1 };
    let dog = Watchdog::start();
    let mut rec = Recorder::new();
    let mut runs: Vec<TraceRun> = WORKLOADS
        .iter()
        .map(|n| TraceRun::new(n, seed, div, &mut rec, &dog).expect("declared workload"))
        .collect();
    alloc::keep_heap();
    for _ in 0..rounds {
        for run in &mut runs {
            run.round(&mut rec, &dog);
        }
    }
    let path = opts
        .get("--out")
        .map_or_else(|| out_dir().join("trace.json"), PathBuf::from);
    write_file(&path, &rec.chrome_trace().to_line())?;
    println!("{} spans written to {}", rec.kept().len(), path.display());

    let mut ok = true;
    for (name, run) in WORKLOADS.iter().zip(runs) {
        let result = run.finish(&dog);
        print_per_layer(name, &result);
        if result.failed > 0 {
            println!(
                "  FAILED: {} of {} operations",
                result.failed, result.attempted
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two sets\n{USAGE}"));
    };
    let (table, ok) = compare::compare_files(a, b)?;
    println!("{table}");
    println!(
        "{}",
        if ok {
            "verdict: the two sets agree within the bounds"
        } else {
            "verdict: the two sets do NOT agree within the bounds"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    // The gate measures the default serial driver, whatever the caller's
    // environment says; `threads` stays unset outside the par2 probe.
    std::env::remove_var("FLARE_DES_THREADS");
    if cfg!(debug_assertions) {
        eprintln!("note: debug build; only --release timings mean anything");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_driver(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
