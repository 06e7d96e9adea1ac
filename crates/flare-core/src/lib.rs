//! # flare-core — Flexible In-Network Allreduce
//!
//! The paper's primary contribution, reproduced as a Rust library:
//!
//! * [`dtype`] / [`op`] — flexibility point **F1**: arbitrary element types
//!   (i8/i16/i32/f16/f32 and user-defined) and arbitrary reduction
//!   operators (built-ins plus closures), with per-type HPU cycle costs.
//! * [`wire`] — the Flare packet format (allreduce id, block id, child
//!   index, sparse shard protocol).
//! * [`dense`] — the three aggregation designs of Section 6: single
//!   buffer, multi buffer, and the contention-free, bitwise-reproducible
//!   tree (**F3**).
//! * [`sparse`] — flexibility point **F2**: the first in-network *sparse*
//!   allreduce — direct-mapped hash storage with spill buffers, dense
//!   array storage, shard counters and empty-block packets (Section 7).
//! * `protocol` (crate-private) — the switch-side block protocol, written
//!   once per payload: admit, reject the duplicate, fold, retire, send up
//!   or down, replay on lossy fabrics.
//! * [`handlers`] / [`switch_prog`] — its two adapters: sPIN packet
//!   handlers on the PsPIN engine, paying the paper's cycle costs, and
//!   one network-simulator program per switch for system-level runs
//!   (Figure 15).
//! * [`host`] — the one host-side participant (window, stagger,
//!   retransmission) over a dense or a sparse payload.
//! * [`pool`] — steady-state allocation recycling: pooled aggregation
//!   buffers and the direct-mapped open-block slab behind the zero-copy
//!   datapath (packet payloads recycle themselves, in `vendor/bytes`).
//! * [`manager`] — the network manager: reduction-tree computation,
//!   allreduce-id allocation, static memory partitioning and admission
//!   control (Section 4).
//! * [`session`] — **the public API**: [`session::FlareSession`] owns the
//!   manager and tuning; the typed [`session::Collective`] builder runs
//!   dense and sparse allreduce, the one collective the paper evaluates.
//! * [`wiring`] — what the manager does once a tree is computed, written
//!   once: the participant of an admitted flow, and the one bring-up of a
//!   simulation, which installs and reads back every switch program.
//!   `Collective::run` and the traffic engine both build from it.
//! * [`report`] — multi-tenant reporting: per-tenant tail statistics
//!   (p50/p99/max), Jain's fairness index and HPU contention summaries,
//!   attached to [`session::RunReport`] by the traffic engine.
//! * [`tag`] — the namespaced wake-tag scheme ([`tag::FlowTag`]) that
//!   lets an outer multiplexer (the traffic engine) own many flows'
//!   timers in one `HostProgram` without collisions.
//! * [`collectives`] — the Horovod-style issue sequencer (Section 8).
//! * [`features`] — the machine-readable Table 1 capability matrix.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod dense;
pub mod dtype;
pub mod features;
pub mod handlers;
pub mod host;
pub mod manager;
pub mod op;
pub mod pool;
mod protocol;
pub mod report;
pub mod session;
pub mod sparse;
pub mod switch_prog;
pub mod tag;
pub mod wire;
pub mod wiring;

pub use dtype::{Element, F16};
pub use op::{golden_reduce, Custom, Max, Min, Prod, ReduceOp, Sum};
pub use pool::{BlockSlab, BufferPool, PoolStats, SlabStats};
pub use report::{
    jain_index, FabricStats, HpuSwitchReport, PayloadSpec, TailStats, TenantReport, TenantSection,
};
pub use session::{
    Collective, CollectiveHandle, CollectiveResult, FlareSession, FlareSessionBuilder, RunReport,
    SessionError, SparsePolicy, Tuning,
};
pub use tag::{FlowTag, FlowTagOverflow};
