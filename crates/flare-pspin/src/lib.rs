//! Event-level simulator of the PsPIN processing unit (paper Section 3).
//!
//! PsPIN is a clustered RISC-V engine: packets matched by the switch parser
//! are copied into a 4 MiB L2 packet memory, dispatched by a packet
//! scheduler to one of several clusters, and executed on a Handler
//! Processing Unit (HPU) — one of 8 RI5CY cores per cluster — as an sPIN
//! *packet handler*. Each cluster has a single-cycle 1 MiB L1 scratchpad
//! (the aggregation *working memory*) and a DMA engine.
//!
//! This crate substitutes the paper's cycle-accurate RTL simulator with a
//! discrete-event model parameterized by the paper's published costs
//! (1 GHz clock, 4 cycles per f32 aggregation, 64-cycle DMA packet copy,
//! 25× remote-L1 penalty, icache cold-start). Handlers are Rust trait
//! objects that perform the *real* aggregation arithmetic while driving a
//! cycle cursor through an [`handler::HpuCtx`], so the simulator produces
//! both faithful timing (service times, queue build-up, lock contention,
//! peak memory occupancy) and bit-exact functional results (used by the
//! reproducibility experiments).
//!
//! What only this engine models is global FCFS scheduling with the
//! remote-L1 penalty, the per-packet cycle cursor and the lock table. The
//! paper's RTL runs simulate 4 clusters and scale linearly to the
//! 64-cluster area budget; the engine simulates all 64 directly.

pub mod arrival;
pub mod config;
pub mod engine;
pub mod handler;
pub mod metrics;
pub mod packet;

pub use arrival::{ArrivalTrace, StaggerMode, TraceConfig};
pub use config::{PspinConfig, SchedulingPolicy};
pub use engine::Engine;
pub use handler::{HpuCtx, LockId, PacketHandler};
pub use metrics::Report;
pub use packet::PspinPacket;
