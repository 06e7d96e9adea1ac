//! Differential tests: the ladder [`EventQueue`] must pop in *exactly*
//! the order of the reference binary-heap implementation ([`HeapQueue`])
//! for any schedule — the determinism contract the reproducibility
//! experiments rely on (see `flare_des::queue` module docs).

use flare_des::heap::HeapQueue;
use flare_des::queue::NEAR_WINDOW;
use flare_des::{EventQueue, Time};

use proptest::prelude::*;

/// Both queues fed identically, popped in lockstep, compared exactly.
struct Pair {
    ladder: EventQueue<u64>,
    heap: HeapQueue<u64>,
    next_id: u64,
}

impl Pair {
    fn new() -> Self {
        Self {
            ladder: EventQueue::new(),
            heap: HeapQueue::new(),
            next_id: 0,
        }
    }

    fn push(&mut self, time: Time) {
        let id = self.next_id;
        self.next_id += 1;
        self.ladder.schedule_at(time, id);
        self.heap.schedule_at(time, id);
    }

    /// Pop one event from both queues; panics on any divergence.
    fn pop_both(&mut self) -> Option<(Time, u64)> {
        let a = self.ladder.pop();
        let b = self.heap.pop();
        assert_eq!(a, b, "ladder diverged from the reference heap");
        assert_eq!(self.ladder.now(), self.heap.now());
        assert_eq!(self.ladder.len(), self.heap.len());
        a
    }

    fn drain_both(&mut self) {
        while self.pop_both().is_some() {}
        assert!(self.ladder.is_empty() && self.heap.is_empty());
    }
}

#[test]
fn adversarial_schedule_pops_identically() {
    let mut q = Pair::new();
    let w = NEAR_WINDOW as Time;

    // Same-timestamp burst (multicast shape).
    for _ in 0..32 {
        q.push(10);
    }
    // Far-future retransmit-style timers: overflow-rung territory,
    // several windows out, pushed out of order.
    q.push(7 * w + 3);
    q.push(3 * w + 1);
    q.push(9 * w);
    q.push(3 * w + 1); // same far timestamp
                       // Near events interleaved.
    q.push(2);
    q.push(w - 1);

    // Interleave pops with more pushes, including pushes at exactly the
    // current timestamp (switch forwarding) and just-past-the-window.
    for step in 0..200u64 {
        if let Some((t, _)) = q.pop_both() {
            match step % 4 {
                0 | 1 => q.push(t),             // same instant, FIFO tail
                2 => q.push(t + w + step),      // beyond the near window
                _ => q.push(t + 1 + step % 17), // near future
            }
        } else {
            break;
        }
        // Keep the schedule finite: stop refilling near the end.
        if q.next_id > 300 {
            break;
        }
    }
    q.drain_both();
}

#[test]
fn window_boundary_times_pop_identically() {
    let mut q = Pair::new();
    let w = NEAR_WINDOW as Time;
    // Every boundary-adjacent delta in one schedule.
    for t in [0, 1, w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1] {
        q.push(t);
        q.push(t);
    }
    q.drain_both();
}

#[test]
fn pop_batch_matches_single_pops_for_uniform_priority() {
    // The chunked drain must yield the single-pop order, also where an
    // instant holds more events than a chunk (ten at 5, nine at 5000).
    let mut times = vec![5u64; 10];
    times.extend([9, 9, 12]);
    times.extend([5000; 9]);
    times.push(90000);
    for chunk in [1, 2, 3, 64] {
        let mut ladder = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (id, &t) in times.iter().enumerate() {
            ladder.schedule_at(t, id);
            heap.schedule_at(t, id);
        }
        let mut batched = Vec::new();
        let mut buf = Vec::new();
        while let Some(t) = ladder.pop_batch(&mut buf, chunk) {
            assert!(buf.len() <= chunk);
            for id in buf.drain(..) {
                batched.push((t, id));
            }
        }
        let mut single = Vec::new();
        while let Some((t, id)) = heap.pop() {
            single.push((t, id));
        }
        assert_eq!(batched, single, "chunk {chunk}");
    }
}

/// Scheduling horizons that straddle every boundary of the ladder: the
/// same nanosecond, inside the near window, the far buckets around it, the
/// edge of any plausible far span, and the end of time. `draw` spreads
/// each class over its range.
fn horizon(class: u8, draw: u64) -> Time {
    let w = NEAR_WINDOW as Time;
    match class {
        0 => 0,
        1 => 1 + draw % 7,
        2 => draw % w,
        // Around the next window edge, whichever way the base is aligned.
        3 => w - 3 + draw % 7,
        4 => w + draw % (8 * w),
        // Many far buckets ahead: 0.26 ms to 67 ms in 4 096 steps.
        5 => (64 + draw % 16_384) * w + draw % 5,
        // Beyond any far span the queue could afford: up to 19 hours.
        6 => (draw % (1 << 22)) * w * w + draw % 3,
        _ => Time::MAX,
    }
}

/// One step of a differential schedule: `kind` picks push (0–3), pop
/// (4), a chunked drain of one instant (5) or a burst of pops (6) that
/// lets the clock cross windows and spans while later rungs are populated.
type Op = (u8, u8, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..7, 0u8..8, any::<u64>()), 1..600)
}

/// Drive both queues through `ops`, checking `(time, event)`, `now()`,
/// `len()` and `peek_time()` after every step, then drain.
fn check(ops: Vec<Op>) {
    let mut q = Pair::new();
    let mut batch = Vec::new();
    for (kind, class, draw) in ops {
        match kind {
            0..=3 => {
                let time = q.ladder.now().saturating_add(horizon(class, draw));
                q.push(time);
            }
            4 => {
                q.pop_both();
            }
            6 => {
                for _ in 0..=draw % 32 {
                    q.pop_both();
                }
            }
            // A drain of the head instant in chunks of 1, 2, 3 or 64, with
            // events scheduled at that instant between chunks, as a
            // chunk's handlers do. The reference has no batch operation:
            // a chunk is the next pops at the head timestamp.
            _ => {
                let max = [1, 2, 3, 64][usize::from(class % 4)];
                let mut more = draw;
                loop {
                    batch.clear();
                    let Some(t) = q.ladder.pop_batch(&mut batch, max) else {
                        assert_eq!(q.heap.peek_time(), None);
                        break;
                    };
                    assert!(!batch.is_empty() && batch.len() <= max);
                    for &id in &batch {
                        assert_eq!(q.heap.pop(), Some((t, id)));
                    }
                    if batch.len() < max {
                        assert_ne!(q.heap.peek_time(), Some(t), "chunk stopped early");
                    }
                    for _ in 0..more % 4 {
                        q.push(t);
                    }
                    more /= 4;
                    if q.ladder.peek_time() != Some(t) {
                        break;
                    }
                }
            }
        }
        assert_eq!(q.ladder.now(), q.heap.now());
        assert_eq!(q.ladder.len(), q.heap.len());
        assert_eq!(q.ladder.peek_time(), q.heap.peek_time());
    }
    q.drain_both();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Random interleavings of pushes (near, far, same-instant) and pops
    // never diverge from the reference heap.
    #[test]
    fn random_schedules_pop_identically(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..(3 * NEAR_WINDOW as u64 + 7)),
            1..400,
        ),
    ) {
        let mut q = Pair::new();
        for (kind, delta) in ops {
            match kind {
                // Push relative to the current clock: 0 hits "now" often.
                0 | 1 => {
                    let base = q.ladder.now();
                    q.push(base + delta);
                }
                // Pop one from both (no-op when empty).
                2 => {
                    q.pop_both();
                }
                // Same-instant push (the forwarding hot path).
                _ => {
                    let now = q.ladder.now();
                    q.push(now);
                }
            }
        }
        q.drain_both();
    }

    // Every rung and every boundary between rungs.
    #[test]
    fn every_horizon_pops_identically_with_one_priority(ops in ops()) {
        check(ops);
    }
}

/// The differential proptest above at 4 096 cases: every pin of the
/// simulator rests on this order contract. Seconds optimised, so tier-1
/// skips it and CI runs it with `--release -- --ignored`.
#[test]
#[ignore = "4 096 cases: CI runs it with --release"]
fn every_horizon_pops_identically_over_4096_cases() {
    use proptest::strategy::Strategy;
    let mut rng = proptest::TestRng::from_name("every_horizon_pops_identically_over_4096_cases");
    for _ in 0..4096 {
        check(ops().sample(&mut rng));
    }
}
