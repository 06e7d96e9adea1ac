//! Criterion benchmark of the discrete-event core: event-queue throughput
//! bounds every simulation in the workspace.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use flare_des::{EventQueue, Simulator, Time};

struct Relay {
    remaining: u64,
}

impl Simulator for Relay {
    type Event = u32;
    fn handle(&mut self, _t: Time, ev: u32, q: &mut EventQueue<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            q.schedule_in(1 + (ev as u64 % 7), ev.wrapping_mul(2654435761));
        }
    }
}

/// The `pspin_switch` shape: a preloaded arrival trace, each arrival
/// answered by a higher-priority completion 100–1 500 ns later.
struct Trace;

impl Simulator for Trace {
    type Event = u32;
    fn handle(&mut self, t: Time, ev: u32, q: &mut EventQueue<u32>) {
        if ev != u32::MAX {
            let service = 100 + ev.wrapping_mul(2654435761) as u64 % 1_400;
            q.schedule_at_prio(t + service, 0, u32::MAX);
        }
    }
}

/// The `traffic_lossy` shape: a relay chain whose every hop also arms a
/// 200 µs retransmission timer that fires long after the hop is history.
struct TimedRelay {
    remaining: u64,
}

impl Simulator for TimedRelay {
    type Event = u32;
    fn handle(&mut self, _t: Time, ev: u32, q: &mut EventQueue<u32>) {
        if ev != u32::MAX && self.remaining > 0 {
            self.remaining -= 1;
            q.schedule_in(1 + (ev as u64 % 7), ev.wrapping_mul(2654435761) >> 1);
            q.schedule_in(200_000, u32::MAX);
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    let events = 100_000u64;
    g.throughput(Throughput::Elements(events));
    g.bench_function("relay_chain", |b| {
        b.iter(|| {
            let mut sim = Relay { remaining: events };
            let mut q = EventQueue::new();
            q.schedule_at(0, 1u32);
            flare_des::run(&mut sim, &mut q);
            black_box(q.processed())
        })
    });
    g.bench_function("bulk_schedule_drain", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..events {
                q.schedule_at(i % 1000, i as u32);
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.bench_function("preloaded_trace", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let arrivals = events / 2;
            for i in 0..arrivals {
                q.schedule_at(i * 150_000 / arrivals, i as u32);
            }
            flare_des::run_batched(&mut Trace, &mut q);
            black_box(q.processed())
        })
    });
    g.bench_function("far_timers", |b| {
        b.iter(|| {
            let mut sim = TimedRelay {
                remaining: events / 2,
            };
            let mut q = EventQueue::new();
            q.schedule_at(0, 1u32);
            flare_des::run_batched(&mut sim, &mut q);
            black_box(q.processed())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
