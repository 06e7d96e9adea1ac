//! Baselines the paper compares Flare against.
//!
//! The host-based ones run on the network simulator as one host program,
//! [`ScheduleHost`] ([`host`]), which runs a rank's [`schedule`] — a list
//! of steps (send this range to that rank, receive that range from this
//! one, fold or overwrite) made by a pure generator — over a payload:
//! * [`ring`] — Rabenseifner/ring (scatter-reduce + allgather), the
//!   bandwidth-optimal dense allreduce; [`RingHost`] is the ring schedule
//!   over dense values ("Host-Based Dense" in Figure 15).
//! * [`sparcml`] — SparCML: recursive doubling over each rank's
//!   accumulated (index, value) set, switching over to a dense vector when
//!   the union densifies; [`SparcmlHost`] ("Host-Based Sparse").
//! * [`recdouble`] — recursive doubling, the skeleton SparCML builds on.
//!
//! Each also exists as a pure function, the reference its schedule is
//! tested against. [`refmodels`] holds the SwitchML and SHARP reference
//! models: their bandwidth caps (1.6 / 3.2 Tbps) and SwitchML's
//! recirculation-limited elements/s, the horizontal lines of Figure 11.

pub mod host;
pub mod recdouble;
pub mod refmodels;
pub mod ring;
pub mod schedule;
pub mod sparcml;

pub use host::ScheduleHost;
pub use recdouble::recursive_doubling_allreduce;
pub use refmodels::{SHARP_TBPS, SWITCHML_TBPS};
pub use ring::{ring_allreduce, RingHost};
pub use sparcml::{sparcml_allreduce, SparcmlHost};
