//! Closed-form analytical models from the Flare paper (Sections 4–6).
//!
//! Every public function here corresponds to an equation or a modelling
//! statement in the paper and is documented with its source. The model crate
//! is deliberately dependency-free and purely numeric: the event-level
//! simulators (`flare-pspin`, `flare-net`) validate these formulas, and the
//! figure modules in `flare-bench` evaluate them to regenerate the paper's
//! *modeled* plots (Figures 5, 7, 10 and 13). The *simulated* plots
//! (Figures 11, 14, 15) come from the simulators instead.
//!
//! Notation follows the paper's Table 2:
//!
//! | Symbol | Meaning |
//! |--------|---------|
//! | `K`    | number of cores (HPUs) in the switch |
//! | `C`    | cores per cluster |
//! | `S`    | cores in each scheduling subset |
//! | `P`    | packets per reduction block (= children in the tree) |
//! | `δ`    | average packet interarrival time at the switch |
//! | `δc`   | interarrival of packets belonging to the same block |
//! | `δk`   | interarrival of packets at one core during a burst |
//! | `τ`    | average service time of a core |
//! | `L`    | cycles to aggregate one packet once inside the critical section |
//! | `M`    | buffers used per block |
//! | `Q`    | maximum per-core queue length |
//! | `𝒬`    | maximum packets resident in the switch (Eq. 1) |
//! | `ℒ`    | latency to fully reduce a block |
//! | `ℛ`    | working-memory buffers needed per allreduce (Little's law) |

pub mod dense;
pub mod params;
pub mod policy;
pub mod scheduling;
pub mod sparse;
pub mod units;

pub use dense::{AggKind, DenseModel};
pub use params::SwitchParams;
pub use policy::select_algorithm;
pub use sparse::{SparseModel, SparseStorage};
