//! Workload generators for the Flare reproduction.
//!
//! The paper's system-level evaluation (Figure 15) replays the gradients
//! exchanged during a sparsified ResNet-50 training iteration on 64 nodes:
//! each host holds a 100 MiB f32 vector, split into buckets of 512 values
//! with one value sent per bucket (≈0.2 % density). We cannot ship that
//! trace, so this crate generates synthetic workloads with the two
//! properties the system actually responds to — per-host non-zero counts
//! and cross-host index overlap (densification) — plus dense generators
//! for the single-switch experiments.
//!
//! The [`traffic`] module goes beyond single collectives: a
//! [`traffic::TrafficEngine`] drives a population of tenants — each a
//! DNN-style job churn of compute + allreduce iterations — through one
//! shared simulation with per-tenant tail metrics. A tenant's jobs
//! arrive all at once, as a seeded Poisson process, or at explicit
//! instants ([`traffic::ArrivalProcess`]).

pub mod dense;
pub mod sparse;
pub mod traffic;

pub use dense::{dense_i32, dense_uniform_f32, gradient_like_f32};
pub use sparse::{
    densify_f32, overlap_controlled, sparsify_random_k, sparsify_top1_per_bucket, union_nnz,
};
pub use traffic::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficError};
