//! The traced run: repetitions under glibc's default allocator settings
//! first, then the same repetitions with their spans kept, alternating with
//! untraced ones so the tracing overhead is measured in one process, then
//! the isolated probes. Produces every per-layer metric of a workload.

use flare_model::SwitchParams;

use crate::harness::{run_rep, RepRecord, Watchdog};
use crate::probes;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{self, Dense, Shape, SimStats, Traffic, Workload};

/// Repetitions [`TraceRun::new`] times before `alloc::keep_heap`.
const DEFAULT_MALLOC_REPS: u32 = 4;

/// Per-layer metrics by name. A name is listed once; a metric a workload
/// does not have is simply absent (and reads 0 in the driver's output).
pub type Metrics = Vec<(&'static str, f64)>;

/// The traced run of one workload.
pub struct TraceRun {
    name: &'static str,
    seed: u64,
    div: usize,
    w: Box<dyn Workload>,
    cold: RepRecord,
    default_malloc: Vec<RepRecord>,
    plain: Vec<RepRecord>,
    traced: Vec<RepRecord>,
    attempted: u64,
    failed: u64,
}

/// What [`TraceRun::finish`] returns.
pub struct TraceResult {
    /// Every per-layer metric the workload has.
    pub metrics: Metrics,
    /// Operations attempted over all repetitions and probes.
    pub attempted: u64,
    /// Operations failed, plus one per probe whose result was wrong.
    pub failed: u64,
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run a variant of a workload (another driver, telemetry on) `reps` times:
/// the median wall time after one warm-up, whether every repetition
/// reproduced `sim` without failures, and the last repetition.
fn variant(
    w: &mut dyn Workload,
    reps: u32,
    sim: &SimStats,
    dog: &Watchdog,
) -> (f64, bool, RepRecord) {
    let mut rec = Recorder::new();
    let mut records: Vec<RepRecord> = (0..reps).map(|i| run_rep(w, &mut rec, i, dog)).collect();
    let wall = median(&records[1..].iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let same = records
        .iter()
        .all(|r| r.out.sim == *sim && r.out.failed == 0);
    (wall, same, records.pop().expect("at least two repetitions"))
}

/// Inputs per tree block at the workload's first level of switches.
fn fan_in(shape: Option<Shape>) -> u16 {
    match shape {
        Some(Shape::Star(hosts)) => hosts as u16,
        Some(Shape::FatTree { per_leaf, .. }) => per_leaf as u16,
        None => SwitchParams::paper().ports as u16,
    }
}

impl TraceRun {
    /// Build the workload and run it as a user's process would, before
    /// `alloc::keep_heap` retunes glibc: the cold repetition, then
    /// [`DEFAULT_MALLOC_REPS`] more (all untraced). The caller calls
    /// `keep_heap` between this and the first [`round`](Self::round).
    pub fn new(
        name: &str,
        seed: u64,
        div: usize,
        rec: &mut Recorder,
        dog: &Watchdog,
    ) -> Option<Self> {
        let mut w = workloads::build(name, seed, div)?;
        rec.keep = false;
        let cold = run_rep(w.as_mut(), rec, 0, dog);
        let mut run = Self {
            name: w.name(),
            seed,
            div,
            attempted: cold.out.attempted,
            failed: cold.out.failed,
            w,
            cold,
            default_malloc: Vec::new(),
            plain: Vec::new(),
            traced: Vec::new(),
        };
        for _ in 0..DEFAULT_MALLOC_REPS {
            let r = run.rep(rec, 0, dog);
            run.default_malloc.push(r);
        }
        Some(run)
    }

    fn rep(&mut self, rec: &mut Recorder, id: u32, dog: &Watchdog) -> RepRecord {
        let r = run_rep(self.w.as_mut(), rec, id, dog);
        self.attempted += r.out.attempted;
        self.failed += r.out.failed;
        r
    }

    /// One untraced and one traced repetition.
    pub fn round(&mut self, rec: &mut Recorder, dog: &Watchdog) {
        let id = (self.plain.len() + self.traced.len()) as u32 + 1;
        rec.keep = false;
        if self.plain.is_empty() {
            // The first repetition after `keep_heap` grows the kept heap to
            // its working size; not a sample.
            self.rep(rec, 0, dog);
        }
        let r = self.rep(rec, id, dog);
        self.plain.push(r);
        rec.keep = true;
        let r = self.rep(rec, id + 1, dog);
        self.traced.push(r);
        rec.keep = false;
    }

    /// Traced repetitions so far.
    pub fn rounds(&self) -> usize {
        self.traced.len()
    }

    /// Run the probes and derive every per-layer metric.
    ///
    /// # Panics
    /// Panics when no round was run.
    pub fn finish(self, dog: &Watchdog) -> TraceResult {
        let TraceRun {
            name,
            seed,
            div,
            w,
            cold,
            default_malloc,
            plain,
            traced,
            mut attempted,
            mut failed,
        } = self;
        let shape = w.shape();
        // Free the workload's buffers before the probes allocate theirs.
        drop(w);
        let last = traced.last().expect("at least one round");
        let sim = &last.out.sim;
        let walls = |reps: &[RepRecord]| reps.iter().map(|r| r.wall_s).collect::<Vec<_>>();
        let faults = |reps: &[RepRecord]| {
            reps.iter()
                .map(|r| r.out.minor_faults as f64)
                .collect::<Vec<_>>()
        };
        let wall = median(&walls(&plain));
        let traced_wall = median(&walls(&traced));
        let default_malloc_wall = median(&walls(&default_malloc));
        let span = |n: &str| median(&traced.iter().map(|r| r.phase(n)).collect::<Vec<_>>());
        let mut sorted = walls(&plain);
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let events = sim.events.max(1) as f64;

        let mut m: Metrics = vec![
            ("des.events", sim.events as f64),
            ("des.host_ns_per_event", wall * 1e9 / events),
            (
                "des.queue.probe_ns_per_event",
                probes::queue_hold_ns(sim.events, sim.makespan_ns),
            ),
            ("net.link_packets", sim.link_packets as f64),
            ("net.drops", sim.drops as f64),
            ("net.max_link_bytes", sim.max_link_bytes as f64),
            ("core.retransmits", sim.retransmits as f64),
            (
                "core.retransmit_ratio",
                sim.retransmits as f64 / sim.link_packets.max(1) as f64,
            ),
            ("alloc.count_per_rep", last.out.alloc_count as f64),
            ("alloc.bytes_per_rep", last.out.alloc_bytes as f64),
            (
                "alloc.count_per_event",
                last.out.alloc_count as f64 / events,
            ),
            ("host.wall_min_s", sorted[0]),
            (
                "host.wall_p75_s",
                sorted[(sorted.len() * 3).div_ceil(4) - 1],
            ),
            ("host.cold_wall_s", cold.wall_s),
            ("host.default_malloc_wall_s", default_malloc_wall),
            // What `wall_s` leaves out: the cost of handing the library's
            // large per-repetition allocations back to the OS and faulting
            // them in again, which `keep_heap` removes from every other
            // number.
            (
                "host.malloc_return_cost_pct",
                (default_malloc_wall / wall - 1.0) * 100.0,
            ),
            (
                "host.default_malloc_faults_per_rep",
                median(&faults(&default_malloc)),
            ),
            ("host.faults_per_rep", median(&faults(&plain))),
            ("host.peak_rss_mib", peak_rss_mib()),
            ("bench.inputs_s", span("bench.inputs")),
            ("bench.verify_s", span("bench.verify")),
            (
                "bench.trace_overhead_pct",
                (traced_wall / wall - 1.0) * 100.0,
            ),
        ];
        // One metric per span the workload has, named after the span.
        for (span_name, metric) in [
            ("net.topology.build", "net.topology.build_s"),
            ("core.session.build", "core.session.build_s"),
            ("core.session.admit", "core.session.admit_s"),
            ("core.session.run", "core.session.run_s"),
            ("core.session.release", "core.session.release_s"),
            ("workloads.traffic.admit", "workloads.traffic.admit_s"),
            ("workloads.traffic.run", "workloads.traffic.run_s"),
            ("workloads.traffic.release", "workloads.traffic.release_s"),
            ("pspin.trace_generate", "pspin.trace_generate_s"),
            ("pspin.engine.run", "pspin.engine.run_s"),
        ] {
            if last.phases.iter().any(|(n, _)| *n == span_name) {
                m.push((metric, span(span_name)));
            }
        }
        m.extend(last.out.counters.iter().copied());

        // Unit costs of the layers the workload's payloads pass through.
        if let Some(shape) = shape {
            let (routing_s, sim_new_s) = probes::routing_and_sim(shape);
            m.push(("net.routing.build_s", routing_s));
            m.push(("net.sim.new_s", sim_new_s));
        }
        if name != "sparse_star" {
            let p = probes::dense(fan_in(shape));
            m.push(("core.wire.dense_encode_gbps", p.encode_gbps));
            m.push(("core.wire.dense_fold_gbps", p.fold_gbps));
            m.push(("core.dense.insert_gbps", p.insert_gbps));
        }
        if matches!(name, "sparse_star" | "traffic_lossy") {
            let p = probes::sparse();
            m.push(("core.wire.sparse_encode_gbps", p.encode_gbps));
            m.push(("core.sparse.hash_insert_ns_per_pair", p.hash_insert_ns));
            m.push(("core.sparse.array_insert_ns_per_pair", p.array_insert_ns));
            m.push(("core.sparse.spill_ratio", p.spill_ratio));
        }
        let (get_put_ns, slab_ns) = probes::pool();
        m.push(("core.pool.get_put_ns", get_put_ns));
        m.push(("core.pool.slab_lookup_ns", slab_ns));

        match name {
            "dense_star" => {
                let shape = shape.expect("dense_star has a fabric");
                m.push((
                    "net.hpu.execute_ns",
                    probes::hpu_execute_ns(sim.link_packets, shape.hosts() as u64, sim.makespan_ns),
                ));
                dog.touch();
                let ring = probes::ring(shape, workloads::STAR_ELEMS / div);
                attempted += 1;
                failed += u64::from(!ring.correct);
                m.push(("baselines.ring.wall_s", ring.wall_s));
                m.push(("baselines.ring.makespan_ns", ring.makespan_ns as f64));
                m.push(("baselines.ring.link_bytes", ring.link_bytes as f64));
                m.push((
                    "net.forward.host_ns_per_packet",
                    ring.wall_s * 1e9 / ring.link_packets.max(1) as f64,
                ));
            }
            "dense_scale" => {
                // The same workload on the partitioned driver with two
                // workers; the simulated results must not move.
                let mut par = Dense::scale(seed, div);
                par.threads = Some(2);
                let (par_wall, same, _) = variant(&mut par, 6, sim, dog);
                attempted += 1;
                failed += u64::from(!same);
                m.push(("des.partition.par2_wall_s", par_wall));
                m.push(("des.partition.par2_speedup", wall / par_wall));
            }
            "traffic_lossy" => {
                // The same fleet with telemetry capture on; the schedule
                // must not move.
                let mut on = Traffic::new(div);
                on.telemetry = true;
                let (on_wall, same, last) = variant(&mut on, 4, sim, dog);
                attempted += 1;
                failed += u64::from(!same);
                m.push(("net.telemetry.on_wall_s", on_wall));
                m.push(("net.telemetry.overhead_pct", (on_wall / wall - 1.0) * 100.0));
                let telemetry = |(n, _): &&(&str, f64)| n.starts_with("net.telemetry.");
                m.extend(last.out.counters.iter().filter(telemetry));
            }
            "pspin_switch" => {
                let packets = (sim.events / 2).max(1) as f64;
                m.push(("pspin.host_ns_per_packet", wall * 1e9 / packets));
            }
            _ => {}
        }
        TraceResult {
            metrics: m,
            attempted,
            failed,
        }
    }
}
