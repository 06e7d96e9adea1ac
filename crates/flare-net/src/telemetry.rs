//! Zero-cost-when-off observability for the network simulator.
//!
//! Three sensor families, all recorded inside the existing event loop:
//!
//! * **Link utilization timelines** — every transmit folds its bytes,
//!   packet and (if lossy) drop into a fixed-width time bucket of the
//!   transmitting link *direction*. Per-direction start times are
//!   monotone (the direction is a FIFO), so recording is an O(1)
//!   append-or-accumulate on the last bucket.
//! * **Flow-lifecycle trace events** — hosts and switches call
//!   [`crate::HostCtx::trace`] / [`crate::SwitchCtx::trace`] to record
//!   structured events (flow submit, shard send/recv, retransmit, block
//!   retire, job start/done, in-flight gauges) keyed by the flow id of
//!   the `flare_core::tag::FlowTag` namespace.
//! * **HPU occupancy timelines** — every handler dispatch on a
//!   `SwitchModel::Hpu` switch records the depth of its subset's queue:
//!   [`crate::SwitchCtx::processing_done_for`] takes the sample
//!   [`crate::compute::SwitchCompute::execute`] returns and folds it into
//!   the sink, as a transmit folds its bytes.
//!
//! # Event order
//!
//! Lifecycle events are exported sorted by the content key `(time, node,
//! seq)` — `seq` is a per-node event ordinal — rather than in recording
//! order, which interleaves the nodes of one instant by event-queue order.
//! The key fixes the byte order of every exported trace.
//!
//! # Cost contract
//!
//! Capture off is no [`TelemetrySink`] at all: the simulator stores
//! nothing and every hook is a single `Option` test — no allocation, no
//! bucket math. Simulated timestamps are never affected either way:
//! telemetry observes the schedule, it does not participate in it.

use flare_des::Time;

use crate::topology::Topology;

/// Configuration for [`crate::NetSim`] telemetry capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Width of the per-link-direction utilization buckets, in ns
    /// ([`crate::NetSim::enable_telemetry`] takes 0 as 1).
    pub bucket_ns: Time,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { bucket_ns: 1024 }
    }
}

/// Kind of a flow-lifecycle trace event. The `(a, b)` payload fields of
/// [`TraceEvent`] are interpreted per kind (documented on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A flow (collective / tenant iteration) was submitted to the
    /// fabric: `a` = total blocks, `b` = payload bytes (0 if unknown).
    FlowSubmit,
    /// A host sent a block/shard: `a` = block, `b` = wire bytes.
    ShardSend,
    /// A host received a shard: `a` = block, `b` = shard sequence.
    ShardRecv,
    /// A host retransmitted an overdue block: `a` = block, `b` = how many
    /// times it has now been re-sent (1 = its first timeout).
    Retransmit,
    /// A host retired a completed block: `a` = block.
    BlockRetire,
    /// A traffic-engine job started on this host: `a` = job index.
    JobStart,
    /// A traffic-engine job finished on this host: `a` = job index.
    JobDone,
    /// In-flight-block gauge sample: `a` = blocks currently outstanding.
    InFlight,
}

impl TraceKind {
    /// Stable lower-snake name used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::FlowSubmit => "flow_submit",
            TraceKind::ShardSend => "shard_send",
            TraceKind::ShardRecv => "shard_recv",
            TraceKind::Retransmit => "retransmit",
            TraceKind::BlockRetire => "block_retire",
            TraceKind::JobStart => "job_start",
            TraceKind::JobDone => "job_done",
            TraceKind::InFlight => "in_flight",
        }
    }
}

/// One structured flow-lifecycle event.
///
/// The derived ordering is the export key: `(time, node, seq)` leads, and
/// `(node, seq)` is unique per event, so sorting the recorded events
/// yields one canonical stream independent of the order they were
/// recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Simulation time (ns).
    pub time: Time,
    /// Recording node id.
    pub node: u32,
    /// Per-node event ordinal (the node's n-th recorded event).
    pub seq: u32,
    /// Event kind.
    pub kind: TraceKind,
    /// Flow id (the `FlowTag` flow namespace; collective id for
    /// single-collective runs).
    pub flow: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
}

/// One fixed-width utilization bucket of a link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UtilBucket {
    /// Bucket ordinal: covers `[index·bucket_ns, (index+1)·bucket_ns)`.
    pub index: u64,
    /// Bytes whose serialization started in this bucket.
    pub bytes: u64,
    /// Packets dropped by loss injection in this bucket.
    pub drops: u64,
}

/// Bucketed utilization series of one link direction. Buckets are stored
/// sparsely in ascending order; empty buckets are omitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirSeries {
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<UtilBucket>,
}

impl DirSeries {
    #[inline]
    fn record(&mut self, index: u64, bytes: u64, dropped: bool) {
        let drops = u64::from(dropped);
        match self.buckets.last_mut() {
            // Per-direction start times are monotone, so the new sample
            // lands in the last bucket or a later one.
            Some(last) if last.index == index => {
                last.bytes += bytes;
                last.drops += drops;
            }
            _ => self.buckets.push(UtilBucket {
                index,
                bytes,
                drops,
            }),
        }
    }
}

/// The recording state of a simulator with capture on: one series per
/// link direction (slot `2·link + dir`), one event ordinal per node id,
/// and one occupancy timeline per HPU switch that has dispatched a
/// handler.
#[derive(Debug)]
pub struct TelemetrySink {
    cfg: TelemetryConfig,
    dirs: Vec<DirSeries>,
    node_seq: Vec<u32>,
    events: Vec<TraceEvent>,
    /// Ascending by switch node id.
    compute: Vec<ComputeTimeline>,
}

impl TelemetrySink {
    /// Fresh sink with `nodes` node slots and `dir_slots` direction slots.
    pub fn new(cfg: TelemetryConfig, nodes: usize, dir_slots: usize) -> Self {
        Self {
            cfg,
            dirs: vec![DirSeries::default(); dir_slots],
            node_seq: vec![0; nodes],
            events: Vec::new(),
            compute: Vec::new(),
        }
    }

    /// Record a transmit on direction slot `slot` starting at `start`.
    #[inline]
    pub fn record_tx(&mut self, slot: usize, start: Time, bytes: u64, dropped: bool) {
        let index = start / self.cfg.bucket_ns;
        self.dirs[slot].record(index, bytes, dropped);
    }

    /// Record a flow-lifecycle event for node id `node`.
    #[inline]
    pub fn event(&mut self, node: u32, time: Time, kind: TraceKind, flow: u64, a: u64, b: u64) {
        let seq = self.node_seq[node as usize];
        self.node_seq[node as usize] = seq + 1;
        self.events.push(TraceEvent {
            time,
            node,
            seq,
            kind,
            flow,
            a,
            b,
        });
    }

    /// Record a handler dispatch on HPU switch `node`, whose scheduler has
    /// `subsets` scheduling subsets.
    pub fn record_hpu(&mut self, node: u32, subsets: usize, sample: ComputeSample) {
        let timelines = &mut self.compute;
        let i = timelines
            .binary_search_by_key(&node, |t| t.node)
            .unwrap_or_else(|i| {
                let samples = Vec::new();
                timelines.insert(
                    i,
                    ComputeTimeline {
                        node,
                        subsets,
                        samples,
                    },
                );
                i
            });
        timelines[i].samples.push(sample);
    }

    /// Consume the sink into a report: each link's two direction series
    /// with its endpoints and capacity from `topo`, the lifecycle events
    /// in canonical `(time, node, seq)` order, and the HPU timelines.
    pub(crate) fn into_report(self, topo: &Topology) -> TelemetryReport {
        let TelemetrySink {
            cfg,
            mut dirs,
            mut events,
            compute,
            ..
        } = self;
        events.sort_unstable();
        let links = (0..topo.link_count())
            .map(|l| {
                let link = topo.link(l);
                let d1 = std::mem::take(&mut dirs[2 * l + 1]);
                let d0 = std::mem::take(&mut dirs[2 * l]);
                LinkTelemetry {
                    link: l,
                    a: link.a.0 .0,
                    b: link.b.0 .0,
                    bytes_per_ns: link.spec.bytes_per_ns(),
                    dirs: [d0, d1],
                }
            })
            .collect();
        TelemetryReport {
            bucket_ns: cfg.bucket_ns,
            links,
            events,
            compute,
            tracks: Vec::new(),
        }
    }
}

/// One HPU occupancy sample: subset queue depth right after a handler
/// dispatch (see [`crate::compute::SwitchCompute::execute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeSample {
    /// Dispatch time (ns).
    pub time: Time,
    /// Scheduling subset the handler landed in.
    pub subset: u32,
    /// Handlers queued or running in that subset at `time` (inclusive of
    /// the one just dispatched).
    pub depth: u32,
}

/// Occupancy timeline of one `SwitchModel::Hpu` switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeTimeline {
    /// Switch node id.
    pub node: u32,
    /// Number of scheduling subsets.
    pub subsets: usize,
    /// Samples in dispatch order.
    pub samples: Vec<ComputeSample>,
}

/// Utilization series of one link, with enough topology context to make
/// the report self-contained after the simulator is gone.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTelemetry {
    /// Link id.
    pub link: usize,
    /// Endpoint node ids `(a, b)`; direction 0 transmits a→b.
    pub a: u32,
    /// See `a`.
    pub b: u32,
    /// Link capacity in bytes/ns.
    pub bytes_per_ns: f64,
    /// Per-direction bucket series (`[a→b, b→a]`).
    pub dirs: [DirSeries; 2],
}

/// Everything telemetry captured in one run, extracted via
/// [`crate::NetSim::take_telemetry`]. Self-contained: exporters need no
/// simulator or topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Utilization bucket width (ns).
    pub bucket_ns: Time,
    /// Per-link utilization series, ascending by link id.
    pub links: Vec<LinkTelemetry>,
    /// Flow-lifecycle events in canonical `(time, node, seq)` order.
    pub events: Vec<TraceEvent>,
    /// HPU occupancy timelines, ascending by switch node id: one per
    /// `SwitchModel::Hpu` switch that dispatched a handler during capture.
    pub compute: Vec<ComputeTimeline>,
    /// Flow id → display label (tenant names from the traffic engine,
    /// collective labels from the session). Flows without an entry render
    /// as `flow <id>`.
    pub tracks: Vec<(u64, String)>,
}

impl TelemetryReport {
    /// Display label of a flow id.
    fn track_label(&self, flow: u64) -> String {
        self.tracks
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, l)| l.clone())
            .unwrap_or_else(|| format!("flow {flow}"))
    }

    /// Render as Chrome trace-event JSON (the format Perfetto and
    /// `chrome://tracing` load).
    ///
    /// Track layout: pid 0 (`fabric`) carries per-link-direction
    /// utilization counters and per-HPU-subset occupancy counters; each
    /// flow gets pid `flow + 1` named from [`TelemetryReport::tracks`],
    /// with lifecycle instants and in-flight gauges on tid = node id.
    /// Output is a pure function of the report — byte-identical for
    /// byte-identical captures.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        push(
            &mut out,
            &mut first,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"fabric\"}}".to_string(),
        );
        // Link utilization counters: one counter track per direction.
        for lt in &self.links {
            for (d, series) in lt.dirs.iter().enumerate() {
                if series.buckets.is_empty() {
                    continue;
                }
                let (src, dst) = if d == 0 { (lt.a, lt.b) } else { (lt.b, lt.a) };
                let name = format!("link{} n{}-\\u003en{}", lt.link, src, dst);
                for bucket in &series.buckets {
                    let util = bucket.bytes as f64 / (lt.bytes_per_ns * self.bucket_ns as f64);
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\"util\":{util:.6},\"bytes\":{},\"drops\":{}}}}}",
                            ts_us(bucket.index * self.bucket_ns),
                            bucket.bytes,
                            bucket.drops,
                        ),
                    );
                }
            }
        }
        // HPU occupancy counters: one track per switch subset.
        for tl in &self.compute {
            for s in &tl.samples {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"hpu{} subset{}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\"depth\":{}}}}}",
                        tl.node,
                        s.subset,
                        ts_us(s.time),
                        s.depth,
                    ),
                );
            }
        }
        // Flow tracks: process metadata per distinct flow, then the
        // lifecycle stream (already canonically ordered).
        let mut flows: Vec<u64> = self.events.iter().map(|e| e.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        for &flow in &flows {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    flow + 1,
                    json_escape(&self.track_label(flow)),
                ),
            );
        }
        for e in &self.events {
            let pid = e.flow + 1;
            let line = match e.kind {
                TraceKind::InFlight => format!(
                    "{{\"name\":\"in_flight n{}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"blocks\":{}}}}}",
                    e.node,
                    e.node,
                    ts_us(e.time),
                    e.a,
                ),
                kind => format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                    kind.label(),
                    e.node,
                    ts_us(e.time),
                    e.a,
                    e.b,
                ),
            };
            push(&mut out, &mut first, line);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Integer-exact microsecond timestamp (`ns / 1000` with 3 decimals) —
/// avoids float formatting nondeterminism in exported traces.
fn ts_us(ns: Time) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Structurally validate a Chrome trace-event document without a browser:
/// scans the JSON for balanced structure and checks the top level is an
/// object with a `traceEvents` array whose every element carries `name`
/// and `ph` keys. Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    // Minimal JSON scanner: tracks nesting and string state.
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in json.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err(format!("unbalanced nesting at byte {i}"));
        }
    }
    if in_str {
        return Err("unterminated string".into());
    }
    if depth_obj != 0 || depth_arr != 0 {
        return Err(format!(
            "unbalanced document: {depth_obj} open objects, {depth_arr} open arrays"
        ));
    }
    let trimmed = json.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("top level must be an object".into());
    }
    let Some(arr_at) = json.find("\"traceEvents\"") else {
        return Err("missing traceEvents key".into());
    };
    let after = &json[arr_at..];
    if !after
        .split_once(':')
        .map(|(_, rest)| rest.trim_start().starts_with('['))
        .unwrap_or(false)
    {
        return Err("traceEvents is not an array".into());
    }
    // Our writers emit one event object per line; validate each carries
    // the required keys.
    let mut events = 0usize;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.ends_with('}') {
            continue;
        }
        if !line.contains("\"name\":") || !line.contains("\"ph\":") {
            return Err(format!("event missing name/ph: {line}"));
        }
        events += 1;
    }
    if events == 0 {
        return Err("no events".into());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(time: Time, node: u32, seq: u32) -> TraceEvent {
        TraceEvent {
            time,
            node,
            seq,
            kind: TraceKind::ShardSend,
            flow: 1,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn dir_series_accumulates_monotone_samples() {
        let mut s = DirSeries::default();
        s.record(0, 100, false);
        s.record(0, 50, true);
        s.record(3, 10, false);
        assert_eq!(
            s.buckets,
            vec![
                UtilBucket {
                    index: 0,
                    bytes: 150,
                    drops: 1
                },
                UtilBucket {
                    index: 3,
                    bytes: 10,
                    drops: 0
                },
            ]
        );
    }

    #[test]
    fn off_telemetry_records_nothing() {
        // Capture off is no sink: a run leaves nothing to take.
        let mut sim = crate::NetSim::new(star().0, 1);
        sim.run(None);
        assert!(sim.take_telemetry().is_none());
    }

    /// A switch and two hosts, with its node and direction slot counts.
    fn star() -> (Topology, usize, usize) {
        let (topo, _sw, _hosts) = Topology::star(2, crate::LinkSpec::hundred_gig());
        let (nodes, dir_slots) = (topo.node_count(), 2 * topo.link_count());
        (topo, nodes, dir_slots)
    }

    #[test]
    fn events_sort_by_time_node_seq() {
        let (topo, nodes, dir_slots) = star();
        let mut t = TelemetrySink::new(TelemetryConfig::default(), nodes, dir_slots);
        t.event(2, 50, TraceKind::ShardSend, 1, 0, 0);
        t.event(0, 10, TraceKind::ShardSend, 1, 0, 0);
        t.event(0, 10, TraceKind::BlockRetire, 1, 0, 0);
        t.event(1, 10, TraceKind::ShardSend, 1, 0, 0);
        let events = t.into_report(&topo).events;
        let keys: Vec<(Time, u32, u32)> = events.iter().map(|e| (e.time, e.node, e.seq)).collect();
        assert_eq!(keys, vec![(10, 0, 0), (10, 0, 1), (10, 1, 0), (50, 2, 0)]);
    }

    #[test]
    fn ts_us_is_integer_exact() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn validate_accepts_a_minimal_trace() {
        let doc = "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"i\",\"ts\":0.000}\n],\"displayTimeUnit\":\"ns\"}\n";
        assert_eq!(validate_chrome_trace(doc), Ok(1));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[\n{\"ph\":\"i\"}\n]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Export discipline: events recorded in any interleaving (here
        // scattered over buffers and concatenated), sorted by the content
        // key, come out globally time-ordered with every event preserved.
        #[test]
        fn merged_lane_events_are_globally_time_ordered(
            raw in proptest::collection::vec(
                (0u64..500, 0u32..6, 0u32..4),  // (time, node, lane)
                1..60,
            ),
        ) {
            let mut lanes: Vec<Vec<TraceEvent>> = vec![Vec::new(); 4];
            let mut seq = [0u32; 6];
            // Per-node ordinals assigned in recording order, like the
            // sink does.
            for &(time, node, lane) in &raw {
                let e = ev(time, node, seq[node as usize]);
                seq[node as usize] += 1;
                lanes[lane as usize].push(e);
            }
            let mut merged: Vec<TraceEvent> = lanes.concat();
            merged.sort_unstable();
            // Globally time-ordered…
            for w in merged.windows(2) {
                assert!(w[0].time <= w[1].time);
                assert!(w[0] < w[1], "merge key must be a total order");
            }
            // …and nothing lost or duplicated.
            assert_eq!(merged.len(), raw.len());
            let mut expect: Vec<(u64, u32)> = raw.iter().map(|&(t, n, _)| (t, n)).collect();
            expect.sort_unstable();
            let mut got: Vec<(u64, u32)> = merged.iter().map(|e| (e.time, e.node)).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }
}
