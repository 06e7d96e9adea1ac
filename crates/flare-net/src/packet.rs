//! Network packet representation.

use bytes::Bytes;

use crate::topology::NodeId;

/// A packet traversing the simulated network.
///
/// `flow`/`block`/`child` mirror the fields the Flare switch parser
/// extracts (allreduce id, reduction block, tree-child index); `kind` is an
/// application-defined discriminator (e.g. contribution vs. result vs.
/// ack); the payload is opaque to the network.
///
/// The layout is deliberately lean — `NodeId` is `u32`, the payload one
/// pointer to the block that holds its count and its bytes (`vendor/bytes`)
/// — because a `NetPacket` is moved by value into
/// and out of the event queue's slab for every egress/deliver event, and
/// a 48-byte event is what fits a slab node in one cache line; a
/// `size_of` regression test pins it at 40 bytes (down from the 48 of
/// word-sized node ids).
#[derive(Debug, Clone)]
pub struct NetPacket {
    /// Origin node.
    pub src: NodeId,
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
    /// Wire size in bytes (headers + payload) used for link timing and
    /// traffic accounting; may exceed `payload.len()` to model headers.
    pub wire_bytes: u32,
    /// Opaque payload.
    pub payload: Bytes,
}

impl NetPacket {
    /// Construct a packet whose wire size is `payload.len() + header_bytes`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src: NodeId,
        dst: NodeId,
        flow: u32,
        block: u64,
        child: u16,
        kind: u8,
        header_bytes: u32,
        payload: Bytes,
    ) -> Self {
        Self {
            src,
            dst,
            flow,
            block,
            child,
            kind,
            wire_bytes: header_bytes + payload.len() as u32,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_adds_header() {
        let p = NetPacket::new(
            NodeId(0),
            NodeId(1),
            9,
            4,
            2,
            1,
            64,
            Bytes::from(vec![0; 1000]),
        );
        assert_eq!(p.wire_bytes, 1064);
        assert_eq!(p.kind, 1);
    }

    #[test]
    fn hot_path_layout_stays_lean() {
        // Every simulated hop moves a NetPacket by value through the
        // event queue; keep the struct at 5 words (40 B on 64-bit) so the
        // copies into a slab node and out into the run loop's chunk stay
        // cheap. Growing this is a perf regression — widen deliberately or
        // pack the new field.
        assert_eq!(std::mem::size_of::<NetPacket>(), 40);
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
    }
}
