//! Differential tests: the partitioned parallel driver
//! ([`flare_des::run_parallel_until`]) against the serial batched
//! reference ([`flare_des::run_batched`]) on adversarial schedules —
//! sends landing exactly on the lookahead boundary, equal-timestamp
//! cross-partition fan-outs, and the single-partition degenerate case —
//! plus exact thread-count invariance of the parallel schedule itself.
//!
//! The parallel driver's cross-partition tie-break is *not* the serial
//! global FIFO order (see the `flare_des::partition` module docs), so the
//! serial comparison checks order-insensitive projections (per-partition
//! event multisets, order-sensitive per-partition checksums where ordering
//! is guaranteed, and the makespan), while the thread-count comparison is
//! exact: the schedule at 2, 4 and 8 workers must equal the 1-worker
//! windowed schedule event for event.

use flare_des::{
    run_batched_until, run_parallel_until, EventQueue, Outbox, Partition, PartitionSim, Simulator,
    Time,
};

use proptest::prelude::*;

/// Conservative lookahead used by every test: cross-partition sends are
/// scheduled at `t + LOOKAHEAD` (the earliest legal arrival, exercising
/// the window boundary) or later.
const LOOKAHEAD: Time = 5;

/// What one seeded event does when handled. Generated by proptest.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Partition the event starts in.
    src: u32,
    /// Start time of the event.
    time: Time,
    /// Remaining forwarding hops (each hop re-sends to the next target).
    ttl: u8,
    /// Hop target selector: 0 = stay local, otherwise a cross-partition
    /// stride (dst = (part + stride) % parts).
    stride: u32,
    /// Extra delay beyond the minimum legal hop latency. 0 puts a
    /// cross-partition send exactly on the lookahead boundary.
    slack: Time,
    /// Fan-out width at each hop: every copy lands at the *same* target
    /// time in the *same* destination (equal-timestamp fan-out).
    fanout: u8,
    /// Payload mixed into the checksum.
    payload: u64,
}

/// Event payload: remaining ttl plus the originating op's parameters.
#[derive(Debug, Clone, Copy)]
struct Ev {
    ttl: u8,
    stride: u32,
    slack: Time,
    fanout: u8,
    payload: u64,
}

/// Per-partition observable state. The checksum is order-*sensitive*
/// (a position-dependent mix), which is exactly why the serial comparison
/// uses it only where ordering is guaranteed identical, and the
/// thread-count comparison uses it everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Lane {
    part: u32,
    parts: u32,
    log: Vec<(Time, u64)>,
    checksum: u64,
    handled: u64,
}

impl Lane {
    fn absorb(&mut self, t: Time, ev: &Ev) {
        self.log.push((t, ev.payload));
        self.handled += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t ^ ev.payload);
    }

    /// Follow-up hops for one handled event, as (dst, time, next-event)
    /// triples. Pure — shared by the partitioned and the serial driver.
    fn hops(&self, t: Time, ev: &Ev) -> Vec<(u32, Time, Ev)> {
        if ev.ttl == 0 {
            return Vec::new();
        }
        let next = Ev {
            ttl: ev.ttl - 1,
            stride: ev.stride,
            slack: ev.slack,
            fanout: ev.fanout,
            payload: ev.payload.wrapping_mul(31).wrapping_add(7),
        };
        let dst = (self.part + ev.stride) % self.parts;
        let arrive = if dst == self.part {
            // Local hops may be immediate (same-timestamp forwarding).
            t + ev.slack
        } else {
            // Cross-partition hops respect the lookahead contract; slack 0
            // lands exactly on the window boundary.
            t + LOOKAHEAD + ev.slack
        };
        (0..ev.fanout.max(1)).map(|_| (dst, arrive, next)).collect()
    }
}

impl PartitionSim for Lane {
    type Event = Ev;
    fn handle(&mut self, t: Time, ev: Ev, queue: &mut EventQueue<Ev>, outbox: &mut Outbox<Ev>) {
        self.absorb(t, &ev);
        for (dst, arrive, next) in self.hops(t, &ev) {
            if dst == self.part {
                queue.schedule_at(arrive, next);
            } else {
                outbox.send(dst, arrive, next);
            }
        }
    }
}

/// The serial reference: all lanes behind one global queue, events tagged
/// with their partition. Run with the stock batched driver.
struct Global {
    lanes: Vec<Lane>,
}

impl Simulator for Global {
    type Event = (u32, Ev);
    fn handle(&mut self, t: Time, (part, ev): (u32, Ev), queue: &mut EventQueue<(u32, Ev)>) {
        let lane = &mut self.lanes[part as usize];
        lane.absorb(t, &ev);
        for (dst, arrive, next) in lane.hops(t, &ev) {
            queue.schedule_at(arrive, (dst, next));
        }
    }
}

fn make_lanes(parts: u32) -> Vec<Lane> {
    (0..parts)
        .map(|p| Lane {
            part: p,
            parts,
            ..Lane::default()
        })
        .collect()
}

fn ev_of(op: &Op) -> Ev {
    Ev {
        ttl: op.ttl,
        stride: op.stride,
        slack: op.slack,
        fanout: op.fanout,
        payload: op.payload,
    }
}

/// Run the partitioned driver with `threads` workers up to `deadline`
/// (inclusive); returns the final lane states and the makespan.
fn run_partitioned(parts: u32, ops: &[Op], threads: usize, deadline: Time) -> (Vec<Lane>, Time) {
    let mut partitions: Vec<Partition<Lane>> = make_lanes(parts)
        .into_iter()
        .map(|lane| Partition::new(lane, EventQueue::new(), parts as usize))
        .collect();
    for op in ops {
        partitions[(op.src % parts) as usize]
            .queue
            .schedule_at(op.time, ev_of(op));
    }
    let end = run_parallel_until(&mut partitions, LOOKAHEAD, threads, deadline);
    (partitions.into_iter().map(|p| p.sim).collect(), end)
}

/// Run the serial batched reference; returns lane states and makespan.
fn run_serial(parts: u32, ops: &[Op], deadline: Time) -> (Vec<Lane>, Time) {
    let mut sim = Global {
        lanes: make_lanes(parts),
    };
    let mut queue = EventQueue::new();
    for op in ops {
        queue.schedule_at(op.time, (op.src % parts, ev_of(op)));
    }
    let end = run_batched_until(&mut sim, &mut queue, deadline);
    (sim.lanes, end)
}

/// Order-insensitive projection of a lane: its event multiset.
fn sorted_log(lane: &Lane) -> Vec<(Time, u64)> {
    let mut log = lane.log.clone();
    log.sort_unstable();
    log
}

fn check_equivalence(parts: u32, ops: &[Op], deadline: Time) {
    let (serial, serial_end) = run_serial(parts, ops, deadline);
    let (base, base_end) = run_partitioned(parts, ops, 1, deadline);

    // Parallel vs serial: same event multiset per partition, same
    // makespan. (Cross-partition same-timestamp ordering may legally
    // differ — the module-level determinism contract.)
    assert_eq!(base_end, serial_end, "makespan diverged from serial");
    for (s, p) in serial.iter().zip(&base) {
        assert_eq!(s.handled, p.handled, "event count diverged in {}", s.part);
        assert_eq!(sorted_log(s), sorted_log(p), "multiset diverged");
    }

    // Thread-count invariance is *exact*: same logs, same checksums, same
    // makespan at any worker count.
    for threads in [2, 4, 8] {
        let (lanes, end) = run_partitioned(parts, ops, threads, deadline);
        assert_eq!(end, base_end, "makespan changed at {threads} threads");
        assert_eq!(lanes, base, "schedule changed at {threads} threads");
    }
}

#[test]
fn lookahead_boundary_sends_match_serial() {
    // Every hop lands exactly on the window boundary (slack 0) — the
    // adversarial case for a conservative driver.
    let ops: Vec<Op> = (0..8)
        .map(|i| Op {
            src: i % 4,
            time: (i as Time) * 3,
            ttl: 6,
            stride: 1 + (i % 3),
            slack: 0,
            fanout: 1,
            payload: 1000 + i as u64,
        })
        .collect();
    check_equivalence(4, &ops, Time::MAX);
}

#[test]
fn equal_timestamp_cross_partition_fanouts_match_serial() {
    // All seeds at t=0, wide fan-outs, all arrivals collide at the same
    // instants in the same destinations.
    let ops: Vec<Op> = (0..6)
        .map(|i| Op {
            src: i,
            time: 0,
            ttl: 4,
            stride: if i % 2 == 0 { 1 } else { 5 },
            slack: 0,
            fanout: 3,
            payload: 7 * (i as u64 + 1),
        })
        .collect();
    check_equivalence(6, &ops, Time::MAX);
}

#[test]
fn single_partition_degenerate_matches_serial() {
    // parts = 1: every "cross" stride wraps to local; the driver must
    // behave exactly like the serial loop — same order, not just the same
    // multiset — whether it drains the queue or stops at a deadline
    // mid-run (events at exactly the deadline still run).
    let ops: Vec<Op> = (0..5)
        .map(|i| Op {
            src: 0,
            time: i as Time,
            ttl: 8,
            stride: i, // % 1 == local either way
            slack: i as Time % 3,
            fanout: 2,
            payload: 13 * (i as u64 + 1),
        })
        .collect();
    for deadline in [Time::MAX, 4, 9] {
        check_equivalence(1, &ops, deadline);
        let (serial, _) = run_serial(1, &ops, deadline);
        let (lanes, _) = run_partitioned(1, &ops, 4, deadline);
        assert_eq!(lanes, serial, "deadline {deadline}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random adversarial schedules: random partition counts, boundary and
    // near-boundary sends, same-instant seeds, mixed fan-outs.
    #[test]
    fn random_schedules_match_serial_and_are_thread_invariant(
        parts in 1u32..6,
        raw in proptest::collection::vec(
            (
                (
                    any::<u32>(),  // src (mod parts)
                    0u64..40,      // seed time
                    0u8..5,        // ttl
                ),
                (
                    0u32..8,       // stride (mod parts decides local/cross)
                    0u64..3,       // slack beyond the lookahead bound
                    1u8..4,        // fanout
                    any::<u64>(),  // payload
                ),
            ),
            1..24,
        ),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|((src, time, ttl), (stride, slack, fanout, payload))| Op {
                src, time, ttl, stride, slack, fanout, payload,
            })
            .collect();
        check_equivalence(parts, &ops, Time::MAX);
    }
}
