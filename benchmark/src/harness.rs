//! Repetition loop, watchdog and the end-to-end summary of a workload.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::json::{self, Value};
use crate::spans::{Kind, Recorder};
use crate::stats::median;
use crate::workloads::{RepOut, SimStats, Workload};

/// Host seconds one repetition may take before the watchdog ends the
/// process. A fleet whose retransmissions feed their own congestion never
/// finishes (see README, "A fleet that does not finish").
pub const WATCHDOG_S: u64 = 60;

/// The exact seed-1 values of an interleaved run, compiled in so the binary
/// and the file cannot drift apart.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Exits the process with code 3 when a repetition overruns. Its thread
/// only sleeps: all measured work stays on the main thread.
pub struct Watchdog {
    started_ms: Arc<AtomicU64>,
    epoch: Instant,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching; the clock restarts at every [`touch`](Self::touch).
    pub fn start() -> Self {
        let epoch = Instant::now();
        // A statistic the watcher polls; it publishes no other data.
        let started_ms = Arc::new(AtomicU64::new(0));
        let (stop, stopped) = channel::<()>();
        let seen = started_ms.clone();
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_secs(1)) {
                Err(RecvTimeoutError::Timeout) => {
                    let now_ms = epoch.elapsed().as_millis() as u64;
                    if now_ms.saturating_sub(seen.load(Relaxed)) > WATCHDOG_S * 1000 {
                        eprintln!(
                            "watchdog: one repetition passed {WATCHDOG_S} s of host time; giving up"
                        );
                        std::process::exit(3);
                    }
                }
                _ => return,
            }
        });
        Self {
            started_ms,
            epoch,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// A repetition starts now.
    pub fn touch(&self) {
        self.started_ms
            .store(self.epoch.elapsed().as_millis() as u64, Relaxed);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            // The watcher cannot panic; nothing to report from a join error.
            let _ = t.join();
        }
    }
}

/// One measured repetition.
#[derive(Debug, Clone)]
pub struct RepRecord {
    /// Host time of the timed call alone.
    pub wall_s: f64,
    /// Host time of every `Kind::Setup` span.
    pub setup_s: f64,
    /// Duration of each span, by name.
    pub phases: Vec<(&'static str, f64)>,
    /// Largest rise of the live heap during the repetition above what was
    /// live when it started (the workload's recycled input buffers and the
    /// harness's own records), bytes.
    pub peak_heap: usize,
    /// What the workload reported.
    pub out: RepOut,
}

impl RepRecord {
    /// Duration of span `name`, 0 when the repetition had none.
    pub fn phase(&self, name: &str) -> f64 {
        // Not `sum()`: an empty f64 sum is -0.0, which prints as "-0".
        self.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .fold(0.0, |acc, (_, s)| acc + s)
    }
}

/// Run one repetition of `w` under the watchdog.
pub fn run_rep(w: &mut dyn Workload, rec: &mut Recorder, rep: u32, dog: &Watchdog) -> RepRecord {
    dog.touch();
    alloc::reset_peak();
    let live_at_start = alloc::snapshot().live;
    rec.start_rep(w.name(), rep);
    let root = rec.begin("rep", Kind::After);
    let out = w.rep(rec);
    rec.end(root);
    let peak_heap = alloc::snapshot().peak - live_at_start;
    let sum = |kind: Kind| {
        rec.phases()
            .iter()
            .filter(|(_, k, _)| *k == kind)
            .map(|(_, _, s)| s)
            .sum()
    };
    RepRecord {
        wall_s: sum(Kind::Timed),
        setup_s: sum(Kind::Setup),
        phases: rec.phases().iter().map(|&(n, _, s)| (n, s)).collect(),
        peak_heap,
        out,
    }
}

/// End-to-end view of the timed repetitions of one workload.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Workload name.
    pub name: &'static str,
    /// Host time of each timed call, in repetition order.
    pub walls: Vec<f64>,
    /// Set-up time of each repetition.
    pub setups: Vec<f64>,
    /// Largest [`RepRecord::peak_heap`] of any one repetition, bytes.
    pub peak_heap: usize,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// Simulated results of the last repetition.
    pub sim: SimStats,
    /// Every repetition produced the same simulated results.
    pub sim_repeats: bool,
    /// Allocation count and bytes of the last timed call.
    pub alloc: (u64, u64),
    /// Every repetition allocated exactly the same and peaked the same.
    pub alloc_repeats: bool,
}

impl Summary {
    /// Summarise `reps` (the warm-up repetition already discarded).
    ///
    /// # Panics
    /// Panics when `reps` is empty.
    pub fn of(name: &'static str, reps: &[RepRecord]) -> Self {
        let last = reps.last().expect("at least one timed repetition");
        let allocs = |r: &RepRecord| (r.out.alloc_count, r.out.alloc_bytes, r.peak_heap);
        Self {
            name,
            walls: reps.iter().map(|r| r.wall_s).collect(),
            setups: reps.iter().map(|r| r.setup_s).collect(),
            peak_heap: reps.iter().map(|r| r.peak_heap).max().unwrap_or(0),
            attempted: reps.iter().map(|r| r.out.attempted).sum(),
            failed: reps.iter().map(|r| r.out.failed).sum(),
            sim: last.out.sim.clone(),
            sim_repeats: reps.iter().all(|r| r.out.sim == last.out.sim),
            alloc: (last.out.alloc_count, last.out.alloc_bytes),
            alloc_repeats: reps.iter().all(|r| allocs(r) == allocs(last)),
        }
    }

    /// Every end-to-end metric of `BENCHMARK.json`, by name. Timings are
    /// medians over the repetitions; the rest are exact.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("wall_s", median(&self.walls)),
            ("setup_s", median(&self.setups)),
            ("peak_heap_mib", self.peak_heap as f64 / (1 << 20) as f64),
            ("sim_makespan_ns", self.sim.makespan_ns as f64),
            ("sim_link_bytes", self.sim.link_bytes as f64),
            ("sim_goodput_gbps", self.sim.goodput_gbps),
            ("sim_iter_p50_ns", self.sim.iter_p50_ns as f64),
            ("sim_iter_p95_ns", self.sim.iter_p95_ns as f64),
        ]
    }

    /// Failed operations over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Compare a seed-1 summary with `expected.json`; one line per
    /// difference.
    pub fn pin_mismatches(&self) -> Vec<String> {
        let doc = json::parse(EXPECTED_JSON).expect("expected.json parses");
        let Some(want) = doc.get(self.name) else {
            return vec![format!("{}: no entry in expected.json", self.name)];
        };
        let got = [
            ("events", self.sim.events),
            ("makespan_ns", self.sim.makespan_ns),
            ("link_bytes", self.sim.link_bytes),
            ("link_packets", self.sim.link_packets),
            ("drops", self.sim.drops),
            ("retransmits", self.sim.retransmits),
            ("iter_p50_ns", self.sim.iter_p50_ns),
            ("iter_p95_ns", self.sim.iter_p95_ns),
            ("alloc_count", self.alloc.0),
            ("alloc_bytes", self.alloc.1),
            ("peak_heap_bytes", self.peak_heap as u64),
        ];
        got.into_iter()
            .filter_map(|(key, got)| {
                let want = want.get(key).and_then(Value::as_f64);
                (want != Some(got as f64)).then(|| {
                    format!(
                        "{}.{key}: expected {}, got {got}",
                        self.name,
                        want.map_or("nothing".to_string(), |w| format!("{w}"))
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_json_pins_every_workload() {
        let doc = json::parse(EXPECTED_JSON).unwrap();
        for w in crate::spec::WORKLOADS {
            assert!(doc.get(w).is_some(), "{w} missing from expected.json");
        }
    }
}
