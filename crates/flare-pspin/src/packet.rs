//! The packet representation seen by the processing unit.
//!
//! The switch parser hands the *packet scheduler* one field: the reduction
//! block (the paper carries the block id in an IP optional header), which
//! hierarchical FCFS pins to a core subset. The payload stays opaque to the
//! scheduler; the handler installed for the flow reads everything else from
//! it — in Flare, the allreduce and child from its 16-byte header.

use bytes::Bytes;

/// A packet dispatched to the PsPIN unit.
#[derive(Debug, Clone)]
pub struct PspinPacket {
    /// Reduction-block identifier; drives hierarchical scheduling (all
    /// packets of a block go to the same core subset).
    pub block: u64,
    /// Total wire size in bytes, used for bandwidth and input-buffer
    /// accounting.
    pub wire_bytes: u32,
    /// Opaque payload, interpreted by the installed handler.
    pub payload: Bytes,
}

impl PspinPacket {
    /// A packet whose wire size is its payload length.
    pub fn new(block: u64, payload: Bytes) -> Self {
        Self {
            block,
            wire_bytes: payload.len() as u32,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_des::Time;

    #[test]
    fn new_sets_wire_bytes_to_the_payload_length() {
        let p = PspinPacket::new(2, Bytes::from(vec![0u8; 1024]));
        assert_eq!((p.block, p.wire_bytes), (2, 1024));
        assert_eq!(p.payload.len(), 1024);
    }

    #[test]
    fn an_arrival_is_four_words() {
        // A trace holds one arrival per packet, all alive at once: the
        // payload pointer, the block, and the wire size padded to a word.
        // Growing this grows every trace.
        assert_eq!(std::mem::size_of::<PspinPacket>(), 24);
        assert_eq!(std::mem::size_of::<(Time, PspinPacket)>(), 32);
    }
}
