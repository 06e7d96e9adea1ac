//! Benchmark harness for the Flare reproduction.
//!
//! One module per paper table/figure computes the rows; the `src/bin/*`
//! binaries print them in the paper's layout, and `benches/` wraps the
//! hot paths in criterion. These are reproduction and developer probes:
//! they gate nothing. Performance is measured by the stand-alone
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
