//! Packet-level network simulator — the reproduction's stand-in for the
//! paper's extended SST (Structural Simulation Toolkit).
//!
//! The paper extended SST "so that the switch can modify in-transit
//! packets" and ran the Figure 15 system-level evaluation on it: 64 hosts
//! on a 2-level fat tree of 8-port 100 Gbps switches, comparing host-based
//! ring allreduce, Flare dense, SparCML host-based sparse, and Flare
//! sparse. This crate provides exactly that subset of SST:
//!
//! * [`topology`] — hosts, switches, full-duplex links with bandwidth and
//!   propagation latency, a 2-level fat-tree builder, and deterministic
//!   ECMP up/down routing,
//! * [`sim`] — the event loop: per-link serialization and FIFO ordering,
//!   per-switch pluggable [`sim::SwitchProgram`]s that can consume,
//!   transform, aggregate and multicast packets (with a calibrated
//!   processing rate), [`sim::HostProgram`]s for application logic, loss
//!   injection, and per-link traffic accounting,
//! * [`packet`] — the wire representation shared by programs.
//!
//! The switch-program processing rate is calibrated from `flare-pspin`
//! measurements, mirroring the paper: "we tuned the simulator parameters so
//! that the bandwidth of the switches matches that obtained through the
//! cycle-accurate PsPIN simulator".

pub mod compute;
pub mod packet;
pub mod sim;
pub mod telemetry;
pub mod topology;

pub use compute::{ComputeStats, HpuParams, SwitchCompute, SwitchModel};
pub use packet::NetPacket;
pub use sim::{
    HostCtx, HostProgram, HpuSwitchReport, LinkTotals, NetReport, NetSim, SwitchCtx, SwitchProgram,
};
pub use telemetry::{TelemetryConfig, TelemetryReport, TraceEvent, TraceKind};
pub use topology::{LinkSpec, NodeId, PortId, Topology};
