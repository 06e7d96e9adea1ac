//! Deterministic ladder event queue.
//!
//! The queue orders events by the total key `(time, seq)`, `seq` being the
//! order of the `schedule_*` calls. That makes ordering among simultaneous
//! events FIFO and therefore deterministic, which the reproducibility
//! experiments (paper Section 6.3) rely on: two runs with identical inputs
//! must interleave handler executions identically.
//!
//! # Structure
//!
//! Every pending event lives in one **slab** of nodes `{time, next,
//! event}` with a free list, and every rung of the ladder is nothing but
//! `(head, tail)` indices of a FIFO threaded through those nodes:
//!
//! * **near rung** — [`NEAR_WINDOW`] one-nanosecond buckets covering the
//!   aligned window that holds the clock, directly indexed by the low bits
//!   of the timestamp. The first occupied bucket *is* the pending batch;
//!   handler re-scheduling at the current timestamp (switch forwarding,
//!   multicast fan-out) lands in that same bucket.
//! * **far rung** — `FAR_BUCKETS` buckets, each one near window wide,
//!   covering the aligned span that holds the near window (link backlogs,
//!   retransmission timers, a preloaded trace). Each bucket also keeps its
//!   minimum timestamp for [`EventQueue::peek_time`].
//! * **overflow** — one list for everything beyond the far span.
//!
//! Scheduling at any horizon is one slab write and one tail link. When the
//! near rung runs dry the near window moves to the next occupied far
//! bucket and that bucket's nodes are relinked, in list order, into the
//! near buckets — no event is moved, compared or sorted. When the far
//! rung is dry too, the window moves to the earliest overflow time and
//! the overflow list is relinked the same way: into the near rung, the
//! far buckets of the new span, or back onto the overflow list. Popping
//! moves the event out of its node and puts the node on the free list. An
//! event is thus written once, read once, and relinked once per rung it
//! descends.
//!
//! No list is ever sorted or walked to insert, because every list is in
//! `seq` order by construction: a bucket receives relinked nodes (oldest
//! first) only while it is empty, at the moment its window opens, and
//! direct pushes only after.
//!
//! The one cost that is not constant is the overflow walk: every span
//! the clock enters by way of the overflow list relinks that whole list,
//! so `n` events parked many spans ahead cost `n` steps per span crossed.
//!
//! # Measured
//!
//! The storage this replaced was a vector per near bucket plus one flat
//! overflow vector, re-sorted whole at every rebase once anything had
//! been appended: on the benchmark's `pspin_switch` workload 36 rebases
//! sorted 1 024 084 entries to deliver 131 072 events, 41 % of the timed
//! call. Ten alternated pairs of `benchmark run` (PR 17, CHANGES.md):
//! `pspin_switch` `wall_s` 0.160 → 0.092 s (every pair between 0.43× and
//! 0.60×), the four `NetSim` workloads 0.70–0.96× at the median, every
//! simulated metric bit-identical, peak heap lower on all five. Queue
//! only (`flare-bench`'s `des_engine` bench, 100 000 events):
//! `preloaded_trace` 40.9 → 4.6 ms, `far_timers` 58.4 → 3.7 ms,
//! `relay_chain` 3.7 → 3.2 ms, `bulk_schedule_drain` 3.3 → 2.6 ms.
//!
//! # Determinism contract
//!
//! The pop sequence is **exactly** the strict ascending `(time, seq)`
//! order — bit-identical to the reference binary-heap implementation
//! ([`crate::heap::HeapQueue`]), which the differential tests in
//! `tests/queue_equivalence.rs` assert on adversarial and randomized
//! schedules at every horizon. Where an event is stored (which rung, which
//! bucket) is a function of its timestamp and the clock only, so the
//! structure cannot leak nondeterminism into the pop order.
//!
//! [`EventQueue::pop_batch`] additionally drains every *currently queued*
//! event of the earliest timestamp in one call. Events scheduled at that
//! same timestamp *while the batch is being processed* form a follow-up
//! batch; their sequence numbers are larger than everything already
//! drained, so batch delivery always preserves the single-pop total order.

use crate::Time;

/// Width of the near rung in time units (1 ns buckets): events in the
/// aligned window of this width that holds the clock are direct-indexed;
/// everything later waits in a far bucket or the overflow list.
pub const NEAR_WINDOW: usize = 4096;

const NEAR_BITS: u32 = NEAR_WINDOW.trailing_zeros();
/// Far buckets per span: at one near window each, a span is 4.2 ms.
const FAR_BUCKETS: usize = 1024;
const FAR_BITS: u32 = FAR_BUCKETS.trailing_zeros();
/// Index in `lists` of the list of everything beyond the far span.
const OVERFLOW: usize = NEAR_WINDOW + FAR_BUCKETS;
const WORD_BITS: usize = 64;
/// Null link: the end of a list, or an empty one.
const NIL: u32 = u32::MAX;

/// One slab slot. While free, `event` is `None` and `next` threads the
/// free list.
struct Node<E> {
    time: Time,
    next: u32,
    event: Option<E>,
}

/// A FIFO of slab nodes. `tail` is meaningful only while `head != NIL`.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// What the queue did, counted in test builds only: the work-bound test
/// pins these per event.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    /// Slab nodes written: one per `schedule_*` call.
    writes: u64,
    /// Nodes linked into a lower rung when their bucket or span opened.
    relinks: u64,
    /// Events moved out of the slab.
    moves: u64,
}

/// Monotonic future-event list with stable FIFO tie-breaking.
///
/// See the [module docs](self) for the ladder structure and the
/// determinism contract.
pub struct EventQueue<E> {
    now: Time,
    processed: u64,
    len: usize,
    /// The slab: every pending event, plus the free nodes.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// The rungs, earliest first: `NEAR_WINDOW` near buckets (index = low
    /// timestamp bits), `FAR_BUCKETS` far buckets (index = low bits of the
    /// window number), and the overflow list.
    lists: Box<[List]>,
    /// One bit per entry of `lists`: set while it is non-empty.
    occupied: Box<[u64]>,
    /// Smallest timestamp in each far bucket and in the overflow list
    /// (`Time::MAX` when empty), indexed from `NEAR_WINDOW`.
    mins: Box<[Time]>,
    /// Number of the near window: the near rung holds the times `t` with
    /// `t >> NEAR_BITS == win`, the far rung the later windows `w` of its
    /// span (`w >> FAR_BITS == win >> FAR_BITS`). Outside `next_slot` the
    /// clock is inside the near window.
    win: u64,
    /// No near bucket below this index is occupied; scans start here.
    cur_slot: usize,
    #[cfg(test)]
    work: Work,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            now: 0,
            processed: 0,
            len: 0,
            nodes: Vec::new(),
            free: NIL,
            lists: vec![EMPTY; OVERFLOW + 1].into(),
            occupied: vec![0; OVERFLOW / WORD_BITS + 1].into(),
            mins: vec![Time::MAX; OVERFLOW + 1 - NEAR_WINDOW].into(),
            win: 0,
            cur_slot: 0,
            #[cfg(test)]
            work: Work::default(),
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events popped so far (a cheap progress metric).
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an event at an absolute time, behind every event already
    /// scheduled at that time.
    ///
    /// # Panics
    /// Panics if `time` is in the past — the queue is strictly monotonic.
    pub fn schedule_at(&mut self, time: Time, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        let node = Node {
            time,
            next: NIL,
            event: Some(event),
        };
        let idx = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "2^32 pending events");
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            free => {
                self.free = std::mem::replace(&mut self.nodes[free as usize], node).next;
                free
            }
        };
        self.link(idx);
        self.len += 1;
        #[cfg(test)]
        {
            self.work.writes += 1;
        }
    }

    /// Schedule an event `delay` time units after the current clock.
    ///
    /// # Panics
    /// Panics if `now + delay` overflows [`Time`] — a timer that far out
    /// is a bug in the caller, and scheduling it at a clamped time would
    /// silently reorder it against genuine far-future events.
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        let time = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "timer overflows simulation time: now={} + delay={} exceeds Time::MAX",
                self.now, delay
            )
        });
        self.schedule_at(time, event);
    }

    /// Link node `idx`, whose time is not before the near window, behind
    /// the tail of the rung its time selects. Nodes reach a list in `seq`
    /// order (see the module docs), so every list stays in `seq` order.
    fn link(&mut self, idx: u32) {
        let time = self.nodes[idx as usize].time;
        let window = time >> NEAR_BITS;
        debug_assert!(window >= self.win, "the near window passed this event");
        let rung = if window == self.win {
            time as usize % NEAR_WINDOW
        } else if window >> FAR_BITS == self.win >> FAR_BITS {
            NEAR_WINDOW + window as usize % FAR_BUCKETS
        } else {
            OVERFLOW
        };
        if rung >= NEAR_WINDOW {
            let min = &mut self.mins[rung - NEAR_WINDOW];
            *min = time.min(*min);
        }
        let list = &mut self.lists[rung];
        if list.head == NIL {
            list.head = idx;
            self.occupied[rung / WORD_BITS] |= 1 << (rung % WORD_BITS);
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Detach the whole list of `rung`, leaving it empty.
    fn take_list(&mut self, rung: usize) -> List {
        self.occupied[rung / WORD_BITS] &= !(1 << (rung % WORD_BITS));
        std::mem::replace(&mut self.lists[rung], EMPTY)
    }

    /// First non-empty rung at or after `cur_slot`, if any.
    fn first_occupied(&self) -> Option<usize> {
        let from = self.cur_slot / WORD_BITS;
        let word = from + self.occupied[from..].iter().position(|&w| w != 0)?;
        Some(word * WORD_BITS + self.occupied[word].trailing_zeros() as usize)
    }

    /// The near bucket holding the earliest pending event, if any: while
    /// the near rung is dry, move the near window to the earliest far
    /// bucket (or, with the far rung dry too, to the earliest overflow
    /// time) and relink that list's nodes down the ladder.
    fn next_slot(&mut self) -> Option<usize> {
        loop {
            let rung = self.first_occupied()?;
            if rung < NEAR_WINDOW {
                return Some(rung);
            }
            let list = self.take_list(rung);
            let first = std::mem::replace(&mut self.mins[rung - NEAR_WINDOW], Time::MAX);
            debug_assert!(first > self.now, "a later rung held the clock's window");
            self.win = first >> NEAR_BITS;
            self.cur_slot = 0;
            let mut at = list.head;
            while at != NIL {
                let next = std::mem::replace(&mut self.nodes[at as usize].next, NIL);
                self.link(at);
                at = next;
                #[cfg(test)]
                {
                    self.work.relinks += 1;
                }
            }
        }
    }

    /// Advance the clock to near bucket `slot`, from which `n` events were
    /// just removed.
    fn retire(&mut self, slot: usize, n: usize) -> Time {
        let time = self.win << NEAR_BITS | slot as Time;
        debug_assert!(time >= self.now, "ladder returned a stale event");
        self.now = time;
        self.cur_slot = slot;
        self.processed += n as u64;
        self.len -= n;
        #[cfg(test)]
        {
            self.work.moves += n as u64;
        }
        time
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let slot = self.next_slot()?;
        let idx = self.lists[slot].head;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("a linked node holds an event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.lists[slot].head = next;
        if next == NIL {
            self.occupied[slot / WORD_BITS] &= !(1 << (slot % WORD_BITS));
        }
        Some((self.retire(slot, 1), event))
    }

    /// Drain every currently queued event of the earliest pending
    /// timestamp into `out` (in exact pop order), advancing the clock.
    /// Returns that timestamp, or `None` when the queue is empty.
    ///
    /// The batch is **appended** to `out` — existing contents are kept,
    /// so a driver can accumulate; clear the buffer between calls when
    /// reusing it for one-batch-at-a-time processing (as `NetSim::run`
    /// in `flare-net` does).
    ///
    /// Events scheduled at the same timestamp *after* this call form the
    /// next batch; see the module docs for when batch delivery preserves
    /// the single-pop total order.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Time> {
        let slot = self.next_slot()?;
        let list = self.take_list(slot);
        let before = out.len();
        let mut at = list.head;
        while at != NIL {
            let node = &mut self.nodes[at as usize];
            out.push(node.event.take().expect("a linked node holds an event"));
            at = node.next;
        }
        // The emptied bucket joins the free list whole.
        self.nodes[list.tail as usize].next = self.free;
        self.free = list.head;
        Some(self.retire(slot, out.len() - before))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        let rung = self.first_occupied()?;
        Some(if rung < NEAR_WINDOW {
            self.win << NEAR_BITS | rung as Time
        } else {
            self.mins[rung - NEAR_WINDOW]
        })
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(5, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.schedule_in(3, ());
        assert_eq!(q.peek_time(), Some(8));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn processed_counts_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        q.pop();
        assert_eq!(q.processed(), 1);
        q.pop();
        assert_eq!(q.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "overflows simulation time")]
    fn schedule_in_overflow_panics_instead_of_clamping() {
        // Regression: `schedule_in` used to `saturating_add`, silently
        // parking the event at `Time::MAX` instead of surfacing the bug.
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_in(Time::MAX, ());
    }

    #[test]
    fn schedule_in_at_the_exact_limit_still_works() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "start");
        q.pop();
        q.schedule_in(Time::MAX - 10, "limit");
        assert_eq!(q.pop(), Some((Time::MAX, "limit")));
    }

    #[test]
    fn far_future_events_go_through_the_overflow_rung() {
        let mut q = EventQueue::new();
        // Beyond NEAR_WINDOW: must take the overflow path.
        let far = NEAR_WINDOW as Time * 3 + 17;
        q.schedule_at(far, "far");
        q.schedule_at(far + 1, "farther");
        q.schedule_at(2, "near");
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.pop(), Some((2, "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), Some((far + 1, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_rebase_spanning_multiple_windows() {
        let mut q = EventQueue::new();
        let w = NEAR_WINDOW as Time;
        // One event per window over many windows, pushed out of order.
        let times: Vec<Time> = (1..20).rev().map(|i| i * w + i).collect();
        for &t in &times {
            q.schedule_at(t, t);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for t in sorted {
            assert_eq!(q.pop(), Some((t, t)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn events_at_time_max_are_not_lost() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::MAX, "omega");
        q.schedule_at(1, "alpha");
        assert_eq!(q.pop(), Some((1, "alpha")));
        assert_eq!(q.pop(), Some((Time::MAX, "omega")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_drains_exactly_the_equal_time_prefix() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "a");
        q.schedule_at(9, "later");
        q.schedule_at(5, "b");
        q.schedule_at(5, "c");
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(5));
        assert_eq!(batch, vec!["a", "b", "c"]);
        assert_eq!(q.now(), 5);
        assert_eq!(q.len(), 1);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(9));
        assert_eq!(batch, vec!["later"]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn same_time_events_scheduled_after_a_batch_form_the_next_batch() {
        let mut q = EventQueue::new();
        q.schedule_at(5, 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(5));
        // A handler reacting to the batch schedules at the same instant.
        q.schedule_at(5, 2);
        q.schedule_at(5, 3);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(5));
        assert_eq!(batch, vec![2, 3]);
    }

    #[test]
    fn reschedule_at_now_after_draining_everything() {
        let mut q = EventQueue::new();
        q.schedule_at(40, "x");
        assert_eq!(q.pop(), Some((40, "x")));
        assert!(q.is_empty());
        q.schedule_at(40, "y"); // same instant, queue already drained
        q.schedule_at(41, "z");
        assert_eq!(q.pop(), Some((40, "y")));
        assert_eq!(q.pop(), Some((41, "z")));
    }

    #[test]
    fn len_tracks_all_three_levels() {
        let mut q = EventQueue::new();
        q.schedule_at(0, "bottom"); // time == now: bottom
        q.schedule_at(3, "bucket");
        q.schedule_at(NEAR_WINDOW as Time + 100, "overflow");
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn an_event_is_written_once_relinked_at_most_once_and_read_once() {
        // No clock: the counts are the claim. The re-sorted overflow
        // vector this structure replaced passed 7.8 entries through a sort
        // per event on this schedule. Preload 65 536 ascending arrivals
        // over 150 µs and drain them batch by batch in the
        // `pspin_switch` shape: each arrival is answered by a completion
        // 100–1 500 ns later.
        let mut q = EventQueue::new();
        for i in 0..65_536u64 {
            q.schedule_at(i * 150_000 / 65_536, Some(i as u32));
        }
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            for i in batch.drain(..).flatten() {
                let service = 100 + i.wrapping_mul(2_654_435_761) as Time % 1_400;
                q.schedule_at(t + service, None);
            }
        }
        assert_eq!(q.processed(), 2 * 65_536);
        let work = q.work;
        assert_eq!(work.writes, 2 * 65_536);
        assert_eq!(work.moves, work.writes);
        // Nothing is beyond the far span, so an event descends one rung at
        // most (two with the overflow list: see the next test).
        assert!(work.relinks <= work.writes, "{work:?}");
        assert!(
            work.relinks >= 65_536 / 2,
            "the trace never left the near rung: {work:?}"
        );

        // Everything is back where it started: every node free, every
        // list empty.
        assert!(q.is_empty());
        let mut free = 0;
        let mut at = q.free;
        while at != NIL {
            assert!(q.nodes[at as usize].event.is_none());
            at = q.nodes[at as usize].next;
            free += 1;
        }
        assert_eq!(free, q.nodes.len());
        assert_eq!(free, 65_536, "the slab never outgrew the preload");
        assert!(q.lists.iter().all(|l| l.head == NIL));
        assert!(q.occupied.iter().all(|&w| w == 0));
        assert!(q.mins.iter().all(|&t| t == Time::MAX));
    }

    #[test]
    fn beyond_the_far_span_an_event_descends_two_rungs() {
        let mut q = EventQueue::new();
        let span = (NEAR_WINDOW * FAR_BUCKETS) as Time;
        // One span ahead, two spans ahead, and the end of time.
        for (i, t) in [span + 5, 2 * span + NEAR_WINDOW as Time + 1, Time::MAX]
            .into_iter()
            .enumerate()
        {
            q.schedule_at(t, i);
        }
        assert_eq!(q.peek_time(), Some(span + 5));
        assert_eq!(q.pop(), Some((span + 5, 0)));
        // Opening the first span walked all three; the two that stayed
        // behind were put back in order.
        assert_eq!(q.work.relinks, 3);
        assert_eq!(q.peek_time(), Some(2 * span + NEAR_WINDOW as Time + 1));
        // A far bucket of the open span is reachable directly.
        q.schedule_at(span + NEAR_WINDOW as Time, 9);
        assert_eq!(q.pop(), Some((span + NEAR_WINDOW as Time, 9)));
        assert_eq!(q.pop(), Some((2 * span + NEAR_WINDOW as Time + 1, 1)));
        assert_eq!(q.pop(), Some((Time::MAX, 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.work.writes, 4);
        assert_eq!(q.work.moves, 4);
    }

    #[test]
    fn an_empty_queue_stays_under_its_old_footprint() {
        // Every run builds its own queue, and a figure sweep runs
        // thousands of short simulations; the bucket vectors this
        // structure replaced took 96 KiB.
        let q = EventQueue::<u64>::new();
        let bytes = std::mem::size_of_val(&*q.lists)
            + std::mem::size_of_val(&*q.occupied)
            + std::mem::size_of_val(&*q.mins)
            + q.nodes.capacity() * std::mem::size_of::<Node<u64>>();
        assert!(bytes <= 96 << 10, "{bytes} bytes");
    }
}
