//! Baselines the paper compares Flare against.
//!
//! * [`ring`] — the bandwidth-optimal host-based dense allreduce
//!   (Rabenseifner/ring: scatter-reduce + allgather), both as a pure
//!   function and as a network-simulator host program ("Host-Based Dense"
//!   in Figure 15).
//! * [`recdouble`] — recursive-doubling allreduce (latency-optimal for
//!   small data; the skeleton SparCML builds on).
//! * [`sparcml`] — SparCML-style host-based *sparse* allreduce: recursive
//!   doubling over (index, value) streams with automatic switch-over to a
//!   dense representation when the union densifies ("Host-Based Sparse"
//!   in Figure 15).
//! * [`refmodels`] — SwitchML and SHARP reference models: the fixed
//!   bandwidth caps (1.6 / 3.2 Tbps), SwitchML's int32-only quantization
//!   and its recirculation-limited elements/s (flat across datatypes),
//!   used as the horizontal lines of Figure 11.

pub mod recdouble;
pub mod refmodels;
pub mod ring;
pub mod sparcml;

pub use recdouble::recursive_doubling_allreduce;
pub use refmodels::{SHARP_TBPS, SWITCHML_TBPS};
pub use ring::{ring_allreduce, RingHost};
pub use sparcml::{sparcml_allreduce, SparcmlHost};

use bytes::Bytes;
use flare_net::{NetPacket, NodeId};

/// A host-based baseline's packet: its payload behind the 16-byte header
/// its wire size models.
fn packet(dst: NodeId, flow: u32, block: u64, step: u16, kind: u8, body: Bytes) -> NetPacket {
    let mut pkt = NetPacket::new(dst, flow, block, step, kind, body);
    pkt.wire_bytes += 16;
    pkt
}
