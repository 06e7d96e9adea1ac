//! Conservative parallel execution of partitioned simulations.
//!
//! The model is classic null-message-free conservative PDES: the event
//! space is split into *partitions*, each owning its own ladder
//! [`EventQueue`]. Execution proceeds in rounds of `[T, T + lookahead)`
//! windows: within a window every partition drains its local queue
//! independently (one worker thread per partition claim), and any event
//! destined for *another* partition is buffered in an [`Outbox`] instead
//! of being scheduled directly. At the window barrier the buffered
//! cross-partition events are merged into their destination queues in
//! `(time, src_partition, seq)` order — a total order that depends
//! only on the partitioning and the event history, never on thread
//! interleaving. The resulting schedule is therefore a pure function of
//! the inputs: running with 1 worker or 16 produces bit-identical
//! simulations.
//!
//! A single partition has no peer to wait for: it needs no windows, no
//! barrier and no merge, and drains straight to the deadline exactly like
//! [`crate::run_batched_until`].
//!
//! # The lookahead contract
//!
//! `lookahead` is the caller's promise that a cross-partition event sent
//! at local time `t` is always scheduled at `t + lookahead` or later (for
//! a network simulation: the minimum cross-partition link latency plus
//! the minimum serialization time). The driver exploits it by processing
//! all events in `[T, T + lookahead)` without synchronizing: no remote
//! event produced inside the window can land inside it. A violation —
//! a remote event earlier than its destination's local clock — surfaces
//! as the event queue's "event scheduled in the past" panic rather than
//! silent reordering.
//!
//! # Tie-breaking at the barrier
//!
//! At one timestamp, events a partition scheduled locally keep their
//! local FIFO order and sort *before* merged remote events (remotes are
//! appended at the barrier, after the local schedule for that window
//! already exists); remote events order among themselves by
//! `(src_partition, seq)` where `seq` is the per-source send counter.
//! This is deterministic but intentionally *not* identical to the serial
//! driver's global arrival order — simulations whose observables depend
//! on the relative order of same-timestamp events from different
//! partitions must validate that order-insensitivity differentially
//! (`flare-net` does, against its one-lane run).

use crate::queue::EventQueue;
use crate::Time;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// A simulator half that runs inside one partition.
///
/// The contract mirrors [`crate::Simulator`], with one addition: events
/// for *other* partitions must go through the [`Outbox`] (respecting the
/// driver's lookahead bound) instead of the local queue. A partition
/// never addresses *itself* through the outbox: its own follow-ups go into
/// the local queue, whatever their timestamp.
pub trait PartitionSim {
    /// Event payload processed by this partition.
    type Event: Send;

    /// Handle one event at time `t`. Local follow-ups go into `queue`;
    /// cross-partition sends into `outbox`.
    fn handle(
        &mut self,
        t: Time,
        event: Self::Event,
        queue: &mut EventQueue<Self::Event>,
        outbox: &mut Outbox<Self::Event>,
    );
}

/// One buffered cross-partition event (a lane entry).
#[derive(Debug)]
struct Remote<E> {
    time: Time,
    seq: u64,
    event: E,
}

/// Per-partition buffer of outbound cross-partition events.
///
/// Events are kept in per-destination *lanes*; a monotone per-source
/// sequence number records send order so the barrier merge can sort the
/// union of all sources deterministically.
#[derive(Debug)]
pub struct Outbox<E> {
    lanes: Vec<Vec<Remote<E>>>,
    seq: u64,
}

impl<E> Outbox<E> {
    /// An outbox with one lane per destination partition.
    pub fn new(partitions: usize) -> Self {
        Self {
            lanes: (0..partitions).map(|_| Vec::new()).collect(),
            seq: 0,
        }
    }

    /// Buffer `event` for partition `dst` at absolute time `time`.
    pub fn send(&mut self, dst: u32, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.lanes[dst as usize].push(Remote { time, seq, event });
    }

    /// Total buffered events across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }
}

/// One partition: its simulator half, local event queue, and the driver's
/// per-partition working state.
pub struct Partition<S: PartitionSim> {
    /// The partition's simulator state.
    pub sim: S,
    /// The partition's local event queue.
    pub queue: EventQueue<S::Event>,
    outbox: Outbox<S::Event>,
    batch: Vec<S::Event>,
    last: Time,
}

impl<S: PartitionSim> Partition<S> {
    /// Wrap a simulator half and its pre-seeded local queue. `partitions`
    /// is the total partition count (sizes the outbox lanes).
    pub fn new(sim: S, queue: EventQueue<S::Event>, partitions: usize) -> Self {
        Self {
            sim,
            queue,
            outbox: Outbox::new(partitions),
            batch: Vec::new(),
            last: 0,
        }
    }

    /// Drain every event in `[queue.now(), deadline]` (inclusive), exactly
    /// like [`crate::run_batched_until`] but routing cross-partition sends
    /// through the outbox.
    fn drain_window(&mut self, deadline: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.queue
                .pop_batch(&mut self.batch)
                .expect("peeked batch must pop");
            self.last = t;
            for ev in self.batch.drain(..) {
                self.sim.handle(t, ev, &mut self.queue, &mut self.outbox);
            }
        }
    }
}

/// Run a partitioned simulation to completion with `threads` workers.
///
/// `lookahead` must be at least 1 and uphold the module-level contract;
/// `threads` is clamped to `[1, partitions]`. Returns the simulation
/// makespan: the timestamp of the last event processed anywhere.
///
/// The schedule — and therefore every observable of a deterministic
/// simulation — is identical for every `threads` value.
pub fn run_parallel<S>(parts: &mut [Partition<S>], lookahead: Time, threads: usize) -> Time
where
    S: PartitionSim + Send,
{
    run_parallel_until(parts, lookahead, threads, Time::MAX)
}

/// [`run_parallel`] with a deadline: events at exactly `deadline` are
/// still processed, later ones are left in their queues (mirroring
/// [`crate::run_batched_until`]).
pub fn run_parallel_until<S>(
    parts: &mut [Partition<S>],
    lookahead: Time,
    threads: usize,
    deadline: Time,
) -> Time
where
    S: PartitionSim + Send,
{
    assert!(lookahead >= 1, "lookahead must be at least 1");
    assert!(!parts.is_empty(), "no partitions");
    if let [only] = parts {
        // Nobody to synchronize with: one window up to the deadline.
        only.drain_window(deadline);
        debug_assert!(only.outbox.is_empty(), "partition 0 sent to itself");
        return only.last;
    }
    let n = parts.len();
    let workers = threads.clamp(1, n);
    if workers == 1 {
        return run_windows_serial(parts, lookahead, deadline);
    }

    // Shared round state. Workers claim whole partitions with a fetch_add
    // ticket; the per-partition mutexes are therefore uncontended — they
    // exist to satisfy the borrow checker across the scope, not to
    // arbitrate access.
    let slots: Vec<Mutex<&mut Partition<S>>> = parts.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let window_end = std::sync::atomic::AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    // Two rendezvous per round: one to publish the window, one to collect.
    let barrier = Barrier::new(workers + 1);

    let mut incoming = Vec::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                barrier.wait();
                if done.load(Ordering::Acquire) {
                    break;
                }
                let d = window_end.load(Ordering::Acquire);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    slots[i].lock().expect("partition lock").drain_window(d);
                }
                barrier.wait();
            });
        }

        loop {
            // Next window start: the earliest pending event anywhere.
            let t_min = slots
                .iter()
                .filter_map(|s| s.lock().expect("partition lock").queue.peek_time())
                .min();
            let stop = match t_min {
                None => true,
                Some(t) => t > deadline,
            };
            if stop {
                done.store(true, Ordering::Release);
                barrier.wait(); // release workers into shutdown
                break;
            }
            let t = t_min.expect("checked above");
            window_end.store(
                t.saturating_add(lookahead - 1).min(deadline),
                Ordering::Release,
            );
            next.store(0, Ordering::Relaxed);
            barrier.wait(); // start the round
            barrier.wait(); // all partitions drained, every lock released
            merge_outboxes(n, &mut incoming, |i, f| {
                f(&mut slots[i].lock().expect("partition lock"))
            });
        }
    });

    parts.iter().map(|p| p.last).max().unwrap_or(0)
}

/// The `workers == 1` driver: same windows, same merge, no threads, no
/// locks, nothing allocated per window.
fn run_windows_serial<S: PartitionSim>(
    parts: &mut [Partition<S>],
    lookahead: Time,
    deadline: Time,
) -> Time {
    let mut incoming = Vec::new();
    while let Some(t) = parts.iter().filter_map(|p| p.queue.peek_time()).min() {
        if t > deadline {
            break;
        }
        let end = t.saturating_add(lookahead - 1).min(deadline);
        for p in parts.iter_mut() {
            p.drain_window(end);
        }
        merge_outboxes(parts.len(), &mut incoming, |i, f| f(&mut parts[i]));
    }
    parts.iter().map(|p| p.last).max().unwrap_or(0)
}

/// A cross-partition event in flight at the barrier, keyed for the merge:
/// `(time, src_partition, seq, event)`.
type Incoming<E> = (Time, u32, u64, E);

/// Move every buffered cross-partition event into its destination queue,
/// in `(time, src_partition, seq)` order.
///
/// Called between rounds. `with(i, f)` runs `f` on partition `i`, one
/// partition at a time: a plain index for the serial driver, an
/// (uncontended) lock for the threaded one. `incoming` is the caller's
/// scratch buffer, empty on entry and on return. Remote events at a
/// time already populated locally land *after* the local events
/// (the queue assigns later insertion sequence numbers), which is part of
/// the documented tie-break.
fn merge_outboxes<S: PartitionSim>(
    n: usize,
    incoming: &mut Vec<Incoming<S::Event>>,
    mut with: impl FnMut(usize, &mut dyn FnMut(&mut Partition<S>)),
) {
    for dst in 0..n {
        for src in 0..n {
            with(src, &mut |p| {
                debug_assert!(
                    src != dst || p.outbox.lanes[dst].is_empty(),
                    "partition {src} sent to itself"
                );
                let lane = p.outbox.lanes[dst].drain(..);
                incoming.extend(lane.map(|r| (r.time, src as u32, r.seq, r.event)));
            });
        }
        if incoming.is_empty() {
            continue;
        }
        incoming.sort_by_key(|&(t, src, seq, _)| (t, src, seq));
        with(dst, &mut |p| {
            for (t, _, _, ev) in incoming.drain(..) {
                p.queue.schedule_at(t, ev);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Simulator;

    /// Token-ring toy: partition `i` forwards a hop counter to partition
    /// `(i + 1) % n` after `LAT` ns, decrementing until it hits zero, and
    /// also schedules a local echo at the same timestamp as each receive.
    const LAT: Time = 7;

    struct RingPart {
        id: u32,
        n: u32,
        log: Vec<(Time, u32)>,
    }

    impl PartitionSim for RingPart {
        type Event = u32;
        fn handle(
            &mut self,
            t: Time,
            hops: u32,
            queue: &mut EventQueue<u32>,
            outbox: &mut Outbox<u32>,
        ) {
            self.log.push((t, hops));
            if hops == 0 {
                return;
            }
            if hops.is_multiple_of(2) {
                // Same-timestamp local echo exercises intra-window batching.
                queue.schedule_at(t, 0);
            }
            let next = (self.id + 1) % self.n;
            if next == self.id {
                queue.schedule_at(t + LAT, hops - 1);
            } else {
                outbox.send(next, t + LAT, hops - 1);
            }
        }
    }

    /// Serial reference: one simulator over the global event space, events
    /// tagged with their partition.
    struct RingSerial {
        n: u32,
        log: Vec<(u32, Time, u32)>,
    }

    impl Simulator for RingSerial {
        type Event = (u32, u32); // (partition, hops)
        fn handle(&mut self, t: Time, (part, hops): (u32, u32), q: &mut EventQueue<(u32, u32)>) {
            self.log.push((part, t, hops));
            if hops == 0 {
                return;
            }
            if hops.is_multiple_of(2) {
                q.schedule_at(t, (part, 0));
            }
            q.schedule_at(t + LAT, ((part + 1) % self.n, hops - 1));
        }
    }

    fn run_ring(n: u32, hops: u32, threads: usize) -> (Time, Vec<Vec<(Time, u32)>>) {
        run_ring_until(n, hops, threads, Time::MAX)
    }

    fn run_ring_until(
        n: u32,
        hops: u32,
        threads: usize,
        deadline: Time,
    ) -> (Time, Vec<Vec<(Time, u32)>>) {
        let mut parts: Vec<Partition<RingPart>> = (0..n)
            .map(|id| {
                let mut q = EventQueue::new();
                if id == 0 {
                    q.schedule_at(1, hops);
                }
                Partition::new(
                    RingPart {
                        id,
                        n,
                        log: Vec::new(),
                    },
                    q,
                    n as usize,
                )
            })
            .collect();
        let end = run_parallel_until(&mut parts, LAT, threads, deadline);
        (end, parts.into_iter().map(|p| p.sim.log).collect())
    }

    #[test]
    fn ring_matches_serial_reference_for_every_thread_count() {
        let n = 4u32;
        let hops = 37u32;
        let mut serial = RingSerial { n, log: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(1, (0u32, hops));
        let serial_end = crate::run_batched(&mut serial, &mut q);

        for threads in [1, 2, 4, 8] {
            let (end, logs) = run_ring(n, hops, threads);
            assert_eq!(end, serial_end, "makespan at {threads} threads");
            // Project the serial log onto each partition and compare.
            for (id, log) in logs.iter().enumerate() {
                let want: Vec<(Time, u32)> = serial
                    .log
                    .iter()
                    .filter(|&&(p, _, _)| p == id as u32)
                    .map(|&(_, t, h)| (t, h))
                    .collect();
                assert_eq!(log, &want, "partition {id} at {threads} threads");
            }
        }
    }

    #[test]
    fn boundary_sends_at_exactly_lookahead_are_legal() {
        // Every hop lands exactly `lookahead` after its send: the
        // tightest legal schedule. Must not panic and must terminate.
        let (end, logs) = run_ring(3, 9, 2);
        assert_eq!(end, 1 + 9 * LAT);
        let seen: usize = logs.iter().map(Vec::len).sum();
        // 10 ring events + one echo per even hop count > 0 (8, 6, 4, 2).
        assert_eq!(seen, 10 + 4);
    }

    #[test]
    fn single_partition_degenerates_to_batched_serial() {
        // One partition is `run_batched_until`, event for event, with the
        // deadline inclusive: 1 + 6·LAT is the timestamp of a hop.
        for deadline in [Time::MAX, 1 + 6 * LAT, 6 * LAT] {
            let (end, logs) = run_ring_until(1, 12, 4, deadline);
            let mut serial = RingSerial {
                n: 1,
                log: Vec::new(),
            };
            let mut q = EventQueue::new();
            q.schedule_at(1, (0u32, 12));
            let serial_end = crate::run_batched_until(&mut serial, &mut q, deadline);
            assert_eq!(end, serial_end);
            let want: Vec<(Time, u32)> = serial.log.iter().map(|&(_, t, h)| (t, h)).collect();
            assert_eq!(logs[0], want, "deadline {deadline}");
        }
    }

    #[test]
    fn outbox_merge_orders_by_time_src_seq() {
        // Two source partitions both send to partition 2 at the same
        // time; the merge must order src 0 before src 1, and
        // within one source by send order.
        struct Sink {
            got: Vec<u32>,
        }
        impl PartitionSim for Sink {
            type Event = u32;
            fn handle(
                &mut self,
                _t: Time,
                ev: u32,
                _q: &mut EventQueue<u32>,
                _o: &mut Outbox<u32>,
            ) {
                self.got.push(ev);
            }
        }
        struct Burst {
            id: u32,
        }
        impl PartitionSim for Burst {
            type Event = u32;
            fn handle(&mut self, t: Time, _ev: u32, _q: &mut EventQueue<u32>, o: &mut Outbox<u32>) {
                // Two sends per source, same destination timestamp.
                o.send(2, t + 10, self.id * 10);
                o.send(2, t + 10, self.id * 10 + 1);
            }
        }
        enum Node {
            Burst(Burst),
            Sink(Sink),
        }
        impl PartitionSim for Node {
            type Event = u32;
            fn handle(&mut self, t: Time, ev: u32, q: &mut EventQueue<u32>, o: &mut Outbox<u32>) {
                match self {
                    Node::Burst(b) => b.handle(t, ev, q, o),
                    Node::Sink(s) => s.handle(t, ev, q, o),
                }
            }
        }
        for threads in [1, 3] {
            let mut parts: Vec<Partition<Node>> = vec![
                {
                    let mut q = EventQueue::new();
                    q.schedule_at(0, 0);
                    Partition::new(Node::Burst(Burst { id: 0 }), q, 3)
                },
                {
                    let mut q = EventQueue::new();
                    q.schedule_at(0, 0);
                    Partition::new(Node::Burst(Burst { id: 1 }), q, 3)
                },
                Partition::new(Node::Sink(Sink { got: Vec::new() }), EventQueue::new(), 3),
            ];
            let end = run_parallel(&mut parts, 10, threads);
            assert_eq!(end, 10);
            let Node::Sink(s) = &parts[2].sim else {
                unreachable!()
            };
            assert_eq!(s.got, vec![0, 1, 10, 11], "at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_is_rejected() {
        let mut parts = vec![Partition::new(
            RingPart {
                id: 0,
                n: 1,
                log: Vec::new(),
            },
            EventQueue::<u32>::new(),
            1,
        )];
        run_parallel(&mut parts, 0, 1);
    }
}
