//! Discrete-event simulation (DES) core for the Flare reproduction.
//!
//! Both substrate simulators in this workspace — the PsPIN processing-unit
//! simulator (`flare-pspin`) and the packet-level network simulator
//! (`flare-net`) — are built on this crate. It provides:
//!
//! * [`EventQueue`]: a monotonic, deterministic *ladder* queue — one slab
//!   of events, every rung a linked list through it — with stable FIFO
//!   ordering among simultaneous events (see the [`queue`] module docs for
//!   the structure and the determinism contract; [`heap::HeapQueue`] is
//!   the binary-heap reference implementation the differential tests
//!   compare against),
//! * [`Simulator`] and the [`run`]/[`run_until`] drivers, plus
//!   [`run_batched`]/[`run_batched_until`] which deliver whole
//!   equal-timestamp batches per queue operation — the one driver every
//!   network run uses,
//! * deterministic random-variate helpers ([`rng`]) including the
//!   exponential interarrival sampling the paper uses to model host and
//!   network jitter.
//!
//! Time is modeled as `u64` nanoseconds. The PsPIN unit is clocked at
//! 1 GHz (paper Section 3), so one nanosecond is exactly one core cycle and
//! the two units are used interchangeably throughout the workspace.

#![deny(missing_docs)]

pub mod heap;
pub mod queue;
pub mod rng;

pub use queue::{EventQueue, Simulator};

/// Simulation time in nanoseconds.
///
/// At the paper's 1 GHz PsPIN clock, 1 ns == 1 cycle.
pub type Time = u64;

/// One second in simulation time units.
pub const SECOND: Time = 1_000_000_000;
/// One millisecond in simulation time units.
pub const MILLISECOND: Time = 1_000_000;
/// One microsecond in simulation time units.
pub const MICROSECOND: Time = 1_000;

/// Run a simulator until its event queue drains.
///
/// Returns the time of the last processed event (the simulation makespan).
pub fn run<S: Simulator>(sim: &mut S, queue: &mut EventQueue<S::Event>) -> Time {
    run_until(sim, queue, Time::MAX)
}

/// Run a simulator until the queue drains or the clock passes `deadline`.
///
/// Events scheduled at exactly `deadline` are still processed; the first
/// event strictly after it is left in the queue.
pub fn run_until<S: Simulator>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    deadline: Time,
) -> Time {
    let mut last = queue.now();
    while let Some(t) = queue.peek_time() {
        if t > deadline {
            break;
        }
        let (t, ev) = queue.pop().expect("peeked event must pop");
        last = t;
        sim.handle(t, ev, queue);
    }
    last
}

/// Run a simulator until its event queue drains, draining each
/// equal-timestamp batch with one queue operation
/// ([`EventQueue::pop_batch`]).
///
/// The handler sequence is identical to [`run`], always: an event a
/// handler schedules at the batch's own timestamp sorts after every event
/// of the batch, so it forms the next batch (see the [`queue`] module
/// docs). A batch is one walk of the earliest bucket's list, however many
/// events it holds.
pub fn run_batched<S: Simulator>(sim: &mut S, queue: &mut EventQueue<S::Event>) -> Time {
    run_batched_until(sim, queue, Time::MAX)
}

/// Run with batched draining until the queue drains or the clock passes
/// `deadline` (events at exactly `deadline` are still processed).
pub fn run_batched_until<S: Simulator>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    deadline: Time,
) -> Time {
    let mut last = queue.now();
    let mut batch = Vec::new();
    while let Some(t) = queue.peek_time() {
        if t > deadline {
            break;
        }
        queue.pop_batch(&mut batch).expect("peeked batch must pop");
        last = t;
        for ev in batch.drain(..) {
            sim.handle(t, ev, queue);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulator that echoes each event and schedules a follow-up until a
    /// countdown reaches zero. Used to validate the driver loop.
    struct Countdown {
        seen: Vec<(Time, u32)>,
    }

    impl Simulator for Countdown {
        type Event = u32;
        fn handle(&mut self, t: Time, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((t, ev));
            if ev > 0 {
                q.schedule_in(10, ev - 1);
            }
        }
    }

    #[test]
    fn run_drains_queue_in_time_order() {
        let mut sim = Countdown { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(5, 3u32);
        let end = run(&mut sim, &mut q);
        assert_eq!(sim.seen, vec![(5, 3), (15, 2), (25, 1), (35, 0)]);
        assert_eq!(end, 35);
        assert!(q.is_empty());
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut sim = Countdown { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(0, 10u32);
        let end = run_until(&mut sim, &mut q, 20);
        // Events at t=0,10,20 run; t=30 stays queued.
        assert_eq!(end, 20);
        assert_eq!(sim.seen.len(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn run_batched_matches_run_event_for_event() {
        let mut a = Countdown { seen: Vec::new() };
        let mut qa = EventQueue::new();
        qa.schedule_at(5, 3u32);
        qa.schedule_at(5, 2u32);
        qa.schedule_at(15, 4u32);
        let end_a = run(&mut a, &mut qa);

        let mut b = Countdown { seen: Vec::new() };
        let mut qb = EventQueue::new();
        qb.schedule_at(5, 3u32);
        qb.schedule_at(5, 2u32);
        qb.schedule_at(15, 4u32);
        let end_b = run_batched(&mut b, &mut qb);

        assert_eq!(a.seen, b.seen);
        assert_eq!(end_a, end_b);
        assert_eq!(qa.processed(), qb.processed());
    }

    /// A simulator that fans out same-timestamp events (multicast shape)
    /// and counts handled events — the batched driver's target workload.
    struct FanOut {
        handled: Vec<(Time, u32)>,
    }

    impl Simulator for FanOut {
        type Event = u32;
        fn handle(&mut self, t: Time, ev: u32, q: &mut EventQueue<u32>) {
            self.handled.push((t, ev));
            if ev >= 100 {
                // Fan out 8 copies at the *same* timestamp.
                for i in 0..8 {
                    q.schedule_at(t, i);
                }
            }
        }
    }

    #[test]
    fn run_batched_delivers_same_time_fanout_in_fifo_order() {
        let mut sim = FanOut {
            handled: Vec::new(),
        };
        let mut q = EventQueue::new();
        q.schedule_at(10, 100u32);
        run_batched(&mut sim, &mut q);
        let want: Vec<(Time, u32)> = std::iter::once((10, 100))
            .chain((0..8).map(|i| (10, i)))
            .collect();
        assert_eq!(sim.handled, want);
    }

    #[test]
    fn run_batched_until_stops_at_deadline_inclusive() {
        let mut sim = Countdown { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(0, 10u32);
        let end = run_batched_until(&mut sim, &mut q, 20);
        assert_eq!(end, 20);
        assert_eq!(sim.seen.len(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn time_unit_constants_are_consistent() {
        assert_eq!(SECOND, 1_000 * MILLISECOND);
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
    }
}
