//! # Flare: Flexible In-Network Allreduce
//!
//! Umbrella crate for the Flare reproduction (De Sensi et al., SC '21).
//! Re-exports the workspace crates under one roof and provides a prelude
//! for the examples and integration tests.
//!
//! See the individual crates for details:
//! * [`core`] — the Flare system itself (datatypes, operators, handlers,
//!   dense & sparse aggregation, network manager, host library, collectives),
//! * [`pspin`] — the PsPIN processing-unit simulator,
//! * [`net`] — the packet-level network simulator,
//! * [`model`] — the paper's closed-form analytical models,
//! * [`baselines`] — ring, recursive-doubling, SparCML, SwitchML, SHARP,
//! * [`workloads`] — dense/sparse workload generators,
//! * [`des`] — the discrete-event simulation core.

pub use flare_baselines as baselines;
pub use flare_core as core;
pub use flare_des as des;
pub use flare_model as model;
pub use flare_net as net;
pub use flare_pspin as pspin;
pub use flare_workloads as workloads;

/// Commonly used items, for `use flare::prelude::*`.
pub mod prelude {
    pub use flare_core::op::{golden_reduce, Custom, Max, Min, Prod, ReduceOp, Sum};
    pub use flare_core::report::{
        jain_index, FabricStats, HpuSwitchReport, PayloadSpec, TailStats, TenantReport,
        TenantSection,
    };
    pub use flare_core::session::{
        Collective, CollectiveHandle, CollectiveResult, FlareSession, FlareSessionBuilder,
        RunReport, SessionError, SparsePolicy, Tuning,
    };
    pub use flare_core::tag::{FlowTag, FlowTagOverflow};
    pub use flare_model::{AggKind, SparseStorage, SwitchParams};
    pub use flare_net::{HpuParams, LinkSpec, NodeId, SwitchModel, Topology};
    pub use flare_workloads::traffic::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficError};
}
