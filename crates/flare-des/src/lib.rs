//! Discrete-event simulation (DES) core for the Flare reproduction.
//!
//! Both substrate simulators in this workspace — the PsPIN processing-unit
//! simulator (`flare-pspin`) and the packet-level network simulator
//! (`flare-net`) — are built on this crate, and each drains the queue with
//! its own loop (`NetSim::run` in `flare-net`). It provides:
//!
//! * [`EventQueue`]: a monotonic, deterministic *ladder* queue — one slab
//!   of events, every rung a linked list through it — with stable FIFO
//!   ordering among simultaneous events (see the [`queue`] module docs for
//!   the structure and the determinism contract; [`heap::HeapQueue`] is
//!   the binary-heap reference implementation the differential tests
//!   compare against),
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

pub use queue::EventQueue;

/// Simulation time in nanoseconds.
///
/// At the paper's 1 GHz PsPIN clock, 1 ns == 1 cycle.
pub type Time = u64;

/// One second in simulation time units. This and [`MICROSECOND`] complete
/// the unit set beside [`MILLISECOND`], which fig15 reads; their one user
/// is the test that the three agree.
pub const SECOND: Time = 1_000_000_000;
/// One millisecond in simulation time units.
pub const MILLISECOND: Time = 1_000_000;
/// One microsecond in simulation time units.
pub const MICROSECOND: Time = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_constants_are_consistent() {
        assert_eq!(SECOND, 1_000 * MILLISECOND);
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
    }
}
