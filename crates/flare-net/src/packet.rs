//! The packet NetSim moves: its destination, the fields a Flare switch
//! parses, its wire size and its payload.

use bytes::Bytes;

use crate::topology::NodeId;

/// A packet traversing the simulated network.
///
/// `flow`/`block`/`child` mirror the fields the Flare switch parser
/// extracts (allreduce id, reduction block, tree-child index): a switch
/// knows a contribution by them, not by its sender or ingress port, so the
/// packet carries neither. `kind` is an application-defined discriminator
/// (e.g. contribution vs. result vs. ack); the payload is opaque to the
/// network.
///
/// The layout is deliberately lean — `NodeId` is `u32`, the payload one
/// pointer to the block that holds its count and its bytes (`vendor/bytes`)
/// — because a `NetPacket` is moved by value into and out of the event
/// queue's slab for every egress/deliver event: a 32-byte packet makes a
/// 40-byte event, which a 56-byte slab node holds. A `size_of` regression
/// test pins it.
#[derive(Debug, Clone)]
pub struct NetPacket {
    /// Destination node (unicast; multicast is performed by switch
    /// programs emitting one copy per egress port).
    pub dst: NodeId,
    /// Flow identifier (e.g. allreduce id).
    pub flow: u32,
    /// Reduction-block / sequence identifier within the flow.
    pub block: u64,
    /// Reduction-tree child index, stamped by the sender.
    pub child: u16,
    /// Application-defined packet kind.
    pub kind: u8,
    /// Wire size in bytes used for link timing and traffic accounting:
    /// the payload length, which a sender that models a header on top
    /// raises.
    pub wire_bytes: u32,
    /// Opaque payload.
    pub payload: Bytes,
}

impl NetPacket {
    /// Construct a packet whose wire size is `payload.len()`.
    pub fn new(dst: NodeId, flow: u32, block: u64, child: u16, kind: u8, payload: Bytes) -> Self {
        Self {
            dst,
            flow,
            block,
            child,
            kind,
            wire_bytes: payload.len() as u32,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_is_the_payload_length() {
        let p = NetPacket::new(NodeId(1), 9, 4, 2, 1, Bytes::from(vec![0; 1000]));
        assert_eq!(p.wire_bytes, 1000);
        assert_eq!(p.kind, 1);
    }

    #[test]
    fn hot_path_layout_stays_lean() {
        // Every simulated hop moves a NetPacket by value through the
        // event queue; keep the struct at 4 words (32 B on 64-bit: the
        // payload pointer, the block, then dst, flow, wire_bytes, child
        // and kind packed into two words) so the copies into a slab node
        // and out into the run loop's chunk stay cheap. Growing this is a
        // perf regression — widen deliberately or pack the new field.
        assert_eq!(std::mem::size_of::<NetPacket>(), 32);
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
    }
}
