//! `compare A B`: judge two sets of `run --out` result files, run for run.
//! Exact metrics must be equal; host times are judged on the ratio of each
//! pair of runs and held to [`RUN_BOUND`].

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::spec::{MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// Bound on the host times of interleaved `run` sets. `BENCHMARK.json`'s
/// 25 % is sized for the driver's one-workload-per-process runs, which
/// spread by up to 17 %; paired runs of the interleaved `run` resolve a few
/// percent (`CALIBRATION.md`), so the tool meant for tight claims judges at
/// the 10 % ISSUE 13 set.
pub const RUN_BOUND: f64 = 0.10;

/// The smallest change of a host time per repetition that counts, seconds.
/// `traffic_lossy` sets up in 0.26 ms, and between alternated runs of the
/// same code that moves by 36 us from quartile to quartile: 14 % of it, and
/// nothing a user of the crates could notice.
const RESOLUTION_S: f64 = 50e-6;

/// What two sets of runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The pairs differ by no more than the bound (exact metrics: every
    /// value equal).
    Same,
    /// Set B is worse than set A by more than the bound.
    Worse,
    /// Set B is better than set A by more than the bound.
    Better,
    /// The pair-to-pair spread is wider than the bound, so the sets cannot
    /// be told apart; not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn q(xs: &[f64]) -> [f64; 3] {
    if xs.len() >= 2 {
        quartiles(xs)
    } else {
        [xs[0]; 3]
    }
}

/// How one metric on one workload was judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// Quartiles of `b[i] / a[i]` over the pairs (host times only).
    pub ratio: Option<[f64; 3]>,
    /// The bound applied, as a share (host times only).
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Judge set `b` against set `a` for metric `m`. Run `i` of one set is paired
/// with run `i` of the other: the sets are meant to be run alternately, so
/// a slow phase of the machine, which lasts minutes and moves every host
/// time by a quarter, falls on both runs of a pair and leaves their ratio
/// alone. Set against set, ten runs a side that straddled such a phase had
/// their quartiles 22-39 % apart and resolved nothing (`CALIBRATION.md`).
///
/// # Panics
/// Panics when the sets are empty or differ in length.
pub fn judge(a: &[f64], b: &[f64], m: &MetricSpec) -> Judged {
    assert!(!a.is_empty() && a.len() == b.len(), "sets pair run for run");
    let (med_a, med_b) = (q(a)[1], q(b)[1]);
    // Positive when B is worse.
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    if m.exact() {
        let first = a[0];
        let verdict = if a.iter().chain(b).all(|&x| x == first) {
            Verdict::Same
        } else if (med_b - med_a) * sign > 0.0 {
            Verdict::Worse
        } else if (med_b - med_a) * sign < 0.0 {
            Verdict::Better
        } else {
            // Equal medians but unequal runs: an exact count that wanders.
            Verdict::Unresolved
        };
        return Judged {
            ratio: None,
            bound: 0.0,
            verdict,
        };
    }
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| y / x.abs().max(f64::MIN_POSITIVE))
        .collect();
    let [q1, q2, q3] = q(&ratios);
    let bound = m
        .bound
        .min(RUN_BOUND)
        .max(RESOLUTION_S / med_a.abs().max(f64::MIN_POSITIVE));
    let worse_by = (q2 - 1.0) * sign;
    let verdict = if q3 - q1 > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Judged {
        ratio: Some([q1, q2, q3]),
        bound,
        verdict,
    }
}

/// Result files of one set: every `*.json` in a directory, or a
/// comma-separated list of files.
pub fn set_files(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(arg);
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{arg}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        arg.split(',').map(PathBuf::from).collect()
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{arg}: no result files"));
    }
    Ok(files)
}

fn load(files: &[PathBuf]) -> Result<Vec<Value>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Values of `metric` on `workload` across the runs of a set.
fn values(set: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

/// Compare two sets of result documents, paired in order. Returns the table
/// and whether every pairing is `same` or `better`, every exact metric is
/// equal and nothing failed.
pub fn compare_sets(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "| workload | metric | unit | A q1 / median / q3 | B q1 / median / q3 | B/A q1 / median / q3 | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for w in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            if va.len() != a.len() || vb.len() != b.len() {
                let _ = writeln!(
                    out,
                    "| {w} | {} | {} | - | - | - | - | missing |",
                    m.name, m.unit
                );
                ok = false;
                continue;
            }
            let j = judge(&va, &vb, m);
            ok &= matches!(j.verdict, Verdict::Same | Verdict::Better)
                && !(m.exact() && j.verdict != Verdict::Same);
            let cell = |[q1, q2, q3]: [f64; 3]| format!("{q1:.6} / {q2:.6} / {q3:.6}");
            let (ratio, bound) = match j.ratio {
                Some([q1, q2, q3]) => (
                    format!("{q1:.4} / {q2:.4} / {q3:.4}"),
                    format!("{:.0} %", j.bound * 100.0),
                ),
                None => ("-".to_string(), "exact".to_string()),
            };
            let _ = writeln!(
                out,
                "| {w} | {} | {} | {} | {} | {ratio} | {bound} | {} |",
                m.name,
                m.unit,
                cell(q(&va)),
                cell(q(&vb)),
                j.verdict.label()
            );
        }
        let failed: f64 = [a, b]
            .iter()
            .flat_map(|set| set.iter())
            .filter_map(|run| run.get("workloads")?.get(w)?.get("failed_share")?.as_f64())
            .fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "| {w} | failed_share | ratio | - | - | - | any increase | {} |",
            if failed > 0.0 { "worse" } else { "same" }
        );
        ok &= failed == 0.0;
    }
    (out, ok)
}

/// `compare A B` on two sets of files.
pub fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let (fa, fb) = (set_files(a)?, set_files(b)?);
    if fa.len() != fb.len() {
        return Err(format!(
            "A has {} runs and B {}: the sets pair run for run, in file-name order",
            fa.len(),
            fb.len()
        ));
    }
    let (sa, sb) = (load(&fa)?, load(&fb)?);
    let (table, ok) = compare_sets(&sa, &sb);
    Ok((
        format!("A: {} runs, B: {} runs\n\n{table}", sa.len(), sb.len()),
        ok,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host time with the driver's 25 % in `BENCHMARK.json`.
    fn timing(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "wall_s",
            unit: "s",
            higher_is_better: higher,
            bound: 0.25,
        }
    }

    fn exact() -> MetricSpec {
        MetricSpec {
            name: "sim_makespan_ns",
            unit: "sim_ns",
            higher_is_better: false,
            bound: 0.001,
        }
    }

    fn verdict(a: &[f64], b: &[f64], m: &MetricSpec) -> Verdict {
        judge(a, b, m).verdict
    }

    #[test]
    fn timing_verdicts_follow_the_bound_and_the_direction() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let lower = timing(false);
        assert_eq!(
            verdict(&a, &[1.03, 1.04, 1.02, 1.03, 1.05], &lower),
            Verdict::Same
        );
        // Inside the driver's 25 %, outside what paired runs resolve.
        assert_eq!(
            verdict(&a, &[1.15, 1.16, 1.14, 1.15, 1.17], &lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], &lower),
            Verdict::Better
        );
        let higher = timing(true);
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20, 1.22], &higher),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], &higher),
            Verdict::Worse
        );
    }

    #[test]
    fn a_slow_phase_that_falls_on_both_runs_of_a_pair_cancels() {
        // Runs 3 to 5 of both sets ran while the machine was 25 % slower.
        let a = [1.00, 1.01, 1.25, 1.26, 1.24];
        let same = [1.01, 1.00, 1.26, 1.25, 1.25];
        assert_eq!(verdict(&a, &same, &timing(false)), Verdict::Same);
        let slower: Vec<f64> = same.iter().map(|x| x * 1.15).collect();
        assert_eq!(verdict(&a, &slower, &timing(false)), Verdict::Worse);
    }

    #[test]
    fn pairs_that_disagree_by_more_than_the_bound_are_unresolved_not_same() {
        // The slow phase fell on one run of a pair only.
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.00, 1.25, 0.99, 1.00, 1.25];
        assert_eq!(verdict(&a, &b, &timing(false)), Verdict::Unresolved);
    }

    #[test]
    fn a_change_below_the_timer_resolution_does_not_count() {
        // 0.26 ms of set-up moving by 36 us is 14 %, and noise.
        let a = [260e-6; 5];
        let b = [296e-6; 5];
        let j = judge(&a, &b, &timing(false));
        assert_eq!(j.verdict, Verdict::Same);
        assert!(j.bound > RUN_BOUND);
        // The same 14 % on a millisecond counts.
        let (a, b) = ([1.0e-3; 5], [1.14e-3; 5]);
        assert_eq!(verdict(&a, &b, &timing(false)), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let a = [694_924.0; 5];
        assert_eq!(verdict(&a, &[694_924.0; 5], &exact()), Verdict::Same);
        assert_eq!(verdict(&a, &[694_925.0; 5], &exact()), Verdict::Worse);
        assert_eq!(verdict(&a, &[694_923.0; 5], &exact()), Verdict::Better);
        let wandering = [694_924.0, 694_924.0, 694_924.0, 694_924.0, 1.0];
        assert_eq!(verdict(&a, &wandering, &exact()), Verdict::Unresolved);
    }

    fn run_doc(wall: f64, makespan: f64, failed_share: f64) -> Value {
        let metrics = Value::obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "wall_s" => wall,
                "sim_makespan_ns" => makespan,
                _ => 1.0,
            };
            (m.name, Value::Num(v))
        }));
        let workloads = Value::obj(WORKLOADS.iter().map(|w| {
            (
                *w,
                Value::obj([
                    ("metrics", metrics.clone()),
                    ("failed_share", Value::Num(failed_share)),
                ]),
            )
        }));
        Value::obj([("workloads", workloads)])
    }

    #[test]
    fn sets_of_the_same_code_compare_clean_and_a_regression_does_not() {
        let a: Vec<Value> = (0..5)
            .map(|i| run_doc(1.0 + 0.001 * f64::from(i), 5.0, 0.0))
            .collect();
        let same: Vec<Value> = (0..5)
            .map(|i| run_doc(1.002 + 0.001 * f64::from(i), 5.0, 0.0))
            .collect();
        let (table, ok) = compare_sets(&a, &same);
        assert!(ok, "{table}");
        assert!(table.contains("| dense_star | wall_s | s |"));

        // A 15 % regression passes the driver's bound and not this one.
        let slow: Vec<Value> = (0..5)
            .map(|i| run_doc(1.15 + 0.001 * f64::from(i), 5.0, 0.0))
            .collect();
        let (table, ok) = compare_sets(&a, &slow);
        assert!(!ok && table.contains("| 10 % | worse |"), "{table}");

        let drifted: Vec<Value> = (0..5).map(|_| run_doc(1.0, 6.0, 0.0)).collect();
        assert!(!compare_sets(&a, &drifted).1);

        let failing: Vec<Value> = (0..5).map(|_| run_doc(1.0, 5.0, 0.01)).collect();
        assert!(!compare_sets(&a, &failing).1);
    }
}
