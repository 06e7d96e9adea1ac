//! Benchmark harness for the Flare reproduction.
//!
//! One module per paper table/figure computes the rows; the `src/bin/*`
//! binaries print them in the paper's layout. These are reproduction
//! probes: they gate nothing. Performance is measured by the stand-alone
//! `benchmark/` package, simulated drift by `tests/sim_pins.rs`.

pub mod ablation;
pub mod fig05;
pub mod fig05_net;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod table;
pub mod table1;

/// `items.into_iter().map(f).collect()`, fanned out over the machine's
/// cores: scoped workers pull the next item off a shared queue, and the
/// results are put back in input order, so a figure's rows are the
/// sequential map's rows whatever the worker count.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.min(items.len());
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    // A worker claims one item under the lock and computes it outside.
    let claim = || queue.lock().expect("nothing panics under the lock").next();
    let worker = || -> Vec<(usize, R)> {
        let claimed = std::iter::from_fn(claim);
        claimed.map(|(i, item)| (i, f(item))).collect()
    };
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let done = handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"));
        done.flatten().collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn output_order_is_preserved_across_many_items() {
        // More items than any plausible worker count, odd remainder, and
        // uneven work so that workers finish out of order.
        let f = |i: usize| (0..i % 97).fold(i * 7, |acc, k| acc ^ k);
        let items: Vec<usize> = (0..1003).collect();
        let sequential: Vec<usize> = items.iter().copied().map(f).collect();
        assert_eq!(super::par_map(items, f), sequential);
        assert_eq!(super::par_map(Vec::<usize>::new(), f), []);
    }

    #[test]
    fn work_actually_runs_on_multiple_threads() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // one worker: nothing to fan out to
        }
        // Item 0 cannot finish until item 1 has run, so one worker alone
        // would time out here instead of passing.
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (std::sync::Mutex::new(tx), std::sync::Mutex::new(rx));
        let met = super::par_map(vec![0, 1], |i| match i {
            0 => rx
                .lock()
                .unwrap()
                .recv_timeout(std::time::Duration::from_secs(30))
                .is_ok(),
            _ => tx.lock().unwrap().send(()).is_ok(),
        });
        assert_eq!(met, [true, true], "item 1 ran while item 0 waited");
    }
}
