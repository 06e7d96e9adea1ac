//! Figure harness for the Flare reproduction.
//!
//! One module per paper table/figure computes the rows and prints them in
//! the paper's layout; [`FIGURES`] lists them, and the one `figures` binary
//! runs them by name (`figures list | <name> | all`). These are
//! reproduction probes: they gate nothing. Performance is measured by the
//! stand-alone `benchmark/` package, simulated drift by
//! `tests/sim_pins.rs`.

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

/// How large a run to print, for the figures that have more than one size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `--quick`: reduced (fig14, fig15).
    Quick,
    /// No flag.
    Default,
    /// `--full`: the paper's 100 MiB per host (fig15).
    Full,
}

/// One printable table or figure.
pub struct Figure {
    /// The name `figures <name>` selects it by.
    pub name: &'static str,
    /// One line on what it shows.
    pub about: &'static str,
    /// Print it in the paper's layout, at `Scale` where it has a choice.
    pub print: fn(Scale),
}

/// Every table and figure, in paper order.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure { name: "table1", about: "feature matrix of in-network allreduce systems", print: table1::print },
    Figure { name: "fig05", about: "scheduling scenarios A/B/C: model vs PsPIN engine vs NetSim", print: fig05::print },
    Figure { name: "fig07", about: "single-buffer aggregation, modeled, S=1 vs S=C", print: fig07::print },
    Figure { name: "fig10", about: "the four dense aggregation designs, modeled", print: fig10::print },
    Figure { name: "fig11", about: "simulated dense bandwidth vs data size and datatype", print: fig11::print },
    Figure { name: "fig13", about: "modeled sparse bandwidth, hash vs array", print: fig13::print },
    Figure { name: "fig14", about: "simulated sparse allreduce across densities (--quick)", print: fig14::print },
    Figure { name: "fig15", about: "64-node fat tree: ring, Flare dense, SparCML, Flare sparse (--quick, --full)", print: fig15::print },
    Figure { name: "ablation", about: "subset size, remote-L1 penalty, staggering, spill capacity", print: ablation::print },
];

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
    fn switch_run_equals_the_hand_assembled_trace() {
        use flare_core::handlers::{DenseAllreduceHandler, DenseHandlerConfig};
        use flare_core::op::Sum;
        use flare_core::wire::{encode_dense, Header, PacketKind};
        use flare_core::wiring::SwitchRun;
        use flare_model::{dense, AggKind, SwitchParams};
        use flare_pspin::engine::run_trace;
        use flare_pspin::{
            ArrivalTrace, PspinConfig, Report, SchedulingPolicy, StaggerMode, TraceConfig,
        };

        // The assembly every single-switch call site used to write out,
        // kept here as the reference: every derived quantity is a literal
        // (S = 8, tau = 1024 cycles for 256 i32, one encode per packet).
        let by_hand = |kind: AggKind, blocks: u64, stagger: StaggerMode, seed: u64| -> Report {
            let cfg = PspinConfig {
                policy: SchedulingPolicy::Hierarchical { subset_size: 8 },
                ..PspinConfig::paper()
            };
            let trace = TraceConfig {
                flow: 1,
                children: 64,
                blocks,
                header_bytes: 0,
                delta: cfg.line_rate_delta(1024),
                stagger,
                exponential_jitter: true,
                seed,
            };
            let arrivals = ArrivalTrace::generate(&trace, |c, b| {
                let vals: Vec<i32> = (0..256).map(|i| i + c as i32).collect();
                let header = Header {
                    allreduce: 1,
                    block: b as u32,
                    child: c,
                    kind: PacketKind::DenseContrib,
                    last_shard: false,
                    shard_count: 0,
                    elem_count: 0,
                };
                encode_dense(header, &vals)
            });
            let handler: DenseAllreduceHandler<i32, Sum> = DenseAllreduceHandler::new(
                DenseHandlerConfig {
                    allreduce: 1,
                    children: 64,
                    algorithm: kind,
                    capture_results: false,
                },
                Sum,
            );
            run_trace(cfg, handler, arrivals, false).0
        };

        let params = SwitchParams::paper();
        let mut cells = Vec::new();
        for kind in [
            AggKind::SingleBuffer,
            AggKind::MultiBuffer(4),
            AggKind::Tree,
        ] {
            for kib in [16, 64, 512] {
                for seed in [3, 5] {
                    cells.push((kind, kib, seed));
                }
            }
        }
        let reports = super::par_map(cells.clone(), |(kind, kib, seed)| {
            let stagger = StaggerMode::Target(dense::target_delta_c(&params, kind) as u64);
            let run = SwitchRun {
                cfg: PspinConfig::paper(),
                children: 64,
                blocks: kib,
                stagger,
                jitter: true,
                seed,
            };
            (by_hand(kind, kib, stagger, seed), run.dense::<i32>(kind))
        });
        for (cell, (hand, run)) in cells.iter().zip(&reports) {
            // `Report` has no `PartialEq`; its `Debug` prints all 12 fields
            // and every float in round-trip form.
            assert_eq!(format!("{run:?}"), format!("{hand:?}"), "{cell:?}");
        }
        let at = |cell| &reports[cells.iter().position(|&c| c == cell).unwrap()].1;
        let tree = at((AggKind::Tree, 64, 3));
        assert_eq!(
            (tree.duration_ns, tree.queue_peak, tree.lock_wait_cycles),
            (16_604, 86, 0)
        );
        assert_eq!(tree.ingress_tbps, 2.052440375813057);
        let single = at((AggKind::SingleBuffer, 64, 3));
        assert_eq!(
            (single.duration_ns, single.lock_wait_cycles),
            (67_329, 27_404_354)
        );
    }

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
