//! Span recorder: one span around each call the benchmark makes into a
//! layer. Every span is timed; the traced run additionally keeps the spans
//! in memory and writes them as a chrome-trace file when it ends.

use std::time::Instant;

use crate::json::Value;

/// Which end-to-end time a span counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Before the timed call: part of `setup_s`.
    Setup,
    /// The timed call itself: `wall_s`.
    Timed,
    /// After the timed call (release, verification): in neither.
    After,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.session.run`.
    pub name: &'static str,
    /// Start, seconds since the recorder was made.
    pub start_s: f64,
    /// End, seconds since the recorder was made.
    pub end_s: f64,
    /// Index of the enclosing span in the kept list, if any.
    pub parent: Option<usize>,
    /// Workload the repetition belongs to.
    pub workload: &'static str,
    /// Repetition id, shared by all spans of one repetition.
    pub rep: u32,
}

/// An open span, returned by [`Recorder::begin`].
pub struct Open {
    name: &'static str,
    kind: Kind,
    start: Instant,
    slot: Option<usize>,
}

/// Times spans and, when `keep` is set, retains them for the trace file.
pub struct Recorder {
    epoch: Instant,
    /// Retain spans (the traced run); otherwise only the durations of the
    /// current repetition are held.
    pub keep: bool,
    kept: Vec<Span>,
    stack: Vec<usize>,
    workload: &'static str,
    rep: u32,
    phases: Vec<(&'static str, Kind, f64)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder that keeps nothing.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            keep: false,
            kept: Vec::new(),
            stack: Vec::new(),
            workload: "",
            rep: 0,
            phases: Vec::new(),
        }
    }

    /// Start repetition `rep` of `workload`: clears the per-repetition
    /// durations.
    pub fn start_rep(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
        self.phases.clear();
        self.stack.clear();
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, kind: Kind) -> Open {
        let start = Instant::now();
        let slot = self.keep.then(|| {
            self.kept.push(Span {
                name,
                start_s: start.duration_since(self.epoch).as_secs_f64(),
                end_s: 0.0,
                parent: self.stack.last().copied(),
                workload: self.workload,
                rep: self.rep,
            });
            let slot = self.kept.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open {
            name,
            kind,
            start,
            slot,
        }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if let Some(slot) = open.slot {
            self.kept[slot].end_s = end.duration_since(self.epoch).as_secs_f64();
            self.stack.pop();
        }
        self.phases.push((open.name, open.kind, secs));
        secs
    }

    /// Durations of the spans closed since [`start_rep`](Self::start_rep).
    pub fn phases(&self) -> &[(&'static str, Kind, f64)] {
        &self.phases
    }

    /// The retained spans.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// The retained spans as a chrome-trace document (`ph: "X"` complete
    /// events, microseconds), which Perfetto loads. One track per workload;
    /// `args` carry the repetition id and the parent span's name.
    pub fn chrome_trace(&self) -> Value {
        let mut tracks: Vec<&'static str> = Vec::new();
        let mut events = Vec::new();
        for s in &self.kept {
            let tid = match tracks.iter().position(|w| *w == s.workload) {
                Some(i) => i,
                None => {
                    tracks.push(s.workload);
                    tracks.len() - 1
                }
            };
            let parent = s.parent.map_or("", |p| self.kept[p].name);
            events.push(Value::obj([
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str("benchmark".into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(s.start_s * 1e6)),
                ("dur", Value::Num((s.end_s - s.start_s) * 1e6)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(tid as f64 + 1.0)),
                (
                    "args",
                    Value::obj([
                        ("rep", Value::Num(f64::from(s.rep))),
                        ("parent", Value::Str(parent.into())),
                    ]),
                ),
            ]));
        }
        for (i, w) in tracks.iter().enumerate() {
            events.push(Value::obj([
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(i as f64 + 1.0)),
                ("args", Value::obj([("name", Value::Str((*w).into()))])),
            ]));
        }
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_spans_nest_and_export() {
        let mut rec = Recorder::new();
        rec.keep = true;
        rec.start_rep("w", 3);
        let outer = rec.begin("rep", Kind::After);
        let inner = rec.begin("core.session.run", Kind::Timed);
        let secs = rec.end(inner);
        rec.end(outer);
        assert!(secs >= 0.0);
        let kept = rec.kept();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[0].parent, None);
        assert!(kept[1].start_s >= kept[0].start_s && kept[1].end_s <= kept[0].end_s);
        assert_eq!(rec.phases()[0].0, "core.session.run");
        let doc = rec.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "two spans and one track name");
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("rep")
        );
    }

    #[test]
    fn unkept_spans_still_time_phases() {
        let mut rec = Recorder::new();
        rec.start_rep("w", 0);
        let s = rec.begin("bench.inputs", Kind::Setup);
        rec.end(s);
        assert!(rec.kept().is_empty());
        assert_eq!(rec.phases().len(), 1);
    }
}
