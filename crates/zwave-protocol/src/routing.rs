//! Source-routed frames: the mesh mechanism behind the P2 "routing
//! information" field of Figure 1. A routed singlecast carries an explicit
//! repeater list; each repeater advances the hop index and retransmits
//! until the frame reaches its destination.

use crate::error::ProtocolError;
use crate::types::NodeId;

/// Maximum repeaters in a route (G.9959 allows four).
pub const MAX_REPEATERS: usize = 4;

/// The routing header prefixed to a routed frame's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingHeader {
    /// `true` while travelling source → destination; `false` on the
    /// routed acknowledgement path back.
    pub outbound: bool,
    /// Index of the next repeater to handle the frame (0-based).
    pub hop: u8,
    /// The repeater node list, in forwarding order.
    pub repeaters: Vec<NodeId>,
}

impl RoutingHeader {
    /// Builds an outbound header through `repeaters`.
    ///
    /// # Panics
    ///
    /// Panics when more than [`MAX_REPEATERS`] are supplied or the list is
    /// empty (a routed frame with no repeaters is a plain singlecast).
    pub fn outbound(repeaters: Vec<NodeId>) -> Self {
        assert!(
            !repeaters.is_empty() && repeaters.len() <= MAX_REPEATERS,
            "routes carry 1..=4 repeaters"
        );
        RoutingHeader { outbound: true, hop: 0, repeaters }
    }

    /// The repeater expected to forward the frame now, or `None` when the
    /// frame is on its final leg to the destination.
    pub fn current_repeater(&self) -> Option<NodeId> {
        self.repeaters.get(self.hop as usize).copied()
    }

    /// Advances the hop index (what a repeater does before retransmitting).
    pub fn advance(&mut self) {
        self.hop = self.hop.saturating_add(1);
    }

    /// Whether every repeater has handled the frame.
    pub fn on_final_leg(&self) -> bool {
        self.hop as usize >= self.repeaters.len()
    }

    /// The routed-acknowledgement header the destination sends back: same
    /// repeaters in reverse order, hop reset, direction bit cleared. Each
    /// repeater forwards it with the ordinary [`advance`](Self::advance)
    /// machinery until it reaches the original sender.
    pub fn routed_ack(&self) -> RoutingHeader {
        let mut repeaters = self.repeaters.clone();
        repeaters.reverse();
        RoutingHeader { outbound: false, hop: 0, repeaters }
    }

    /// Serializes as `[flags, hop, count, repeaters...]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(3 + self.repeaters.len());
        out.push(if self.outbound { 0x01 } else { 0x00 });
        out.push(self.hop);
        out.push(self.repeaters.len() as u8);
        out.extend(self.repeaters.iter().map(|n| n.0));
        out
    }

    /// Parses the header from the front of a routed payload; returns the
    /// header and the remaining APL bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::TruncatedFrame`] for short buffers and
    /// [`ProtocolError::FrameTooLong`] for repeater counts above
    /// [`MAX_REPEATERS`].
    pub fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), ProtocolError> {
        if bytes.len() < 3 {
            return Err(ProtocolError::TruncatedFrame { got: bytes.len(), need: 3 });
        }
        let count = bytes[2] as usize;
        if count == 0 || count > MAX_REPEATERS {
            return Err(ProtocolError::FrameTooLong { len: count });
        }
        if bytes.len() < 3 + count {
            return Err(ProtocolError::TruncatedFrame { got: bytes.len(), need: 3 + count });
        }
        let header = RoutingHeader {
            outbound: bytes[0] & 0x01 != 0,
            hop: bytes[1],
            repeaters: bytes[3..3 + count].iter().map(|&n| NodeId(n)).collect(),
        };
        Ok((header, &bytes[3 + count..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_trailing_apl() {
        let mut header = RoutingHeader::outbound(vec![NodeId(3), NodeId(7)]);
        header.advance();
        let mut bytes = header.encode();
        bytes.extend_from_slice(&[0x20, 0x01, 0xFF]);
        let (back, apl) = RoutingHeader::decode(&bytes).unwrap();
        assert_eq!(back, header);
        assert_eq!(apl, &[0x20, 0x01, 0xFF]);
    }

    #[test]
    fn hop_progression() {
        let mut h = RoutingHeader::outbound(vec![NodeId(3), NodeId(7)]);
        assert_eq!(h.current_repeater(), Some(NodeId(3)));
        assert!(!h.on_final_leg());
        h.advance();
        assert_eq!(h.current_repeater(), Some(NodeId(7)));
        h.advance();
        assert_eq!(h.current_repeater(), None);
        assert!(h.on_final_leg());
    }

    #[test]
    #[should_panic(expected = "1..=4 repeaters")]
    fn empty_routes_are_rejected() {
        let _ = RoutingHeader::outbound(vec![]);
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert!(RoutingHeader::decode(&[0x01, 0x00]).is_err());
        assert!(RoutingHeader::decode(&[0x01, 0x00, 0x00]).is_err());
        assert!(RoutingHeader::decode(&[0x01, 0x00, 0x05, 1, 2, 3, 4, 5]).is_err());
        assert!(RoutingHeader::decode(&[0x01, 0x00, 0x02, 0x03]).is_err());
    }

    #[test]
    fn routed_ack_reverses_the_repeater_list() {
        let mut outbound = RoutingHeader::outbound(vec![NodeId(3), NodeId(7), NodeId(9)]);
        outbound.advance();
        outbound.advance();
        outbound.advance();
        assert!(outbound.on_final_leg());
        let ack = outbound.routed_ack();
        assert!(!ack.outbound);
        assert_eq!(ack.hop, 0);
        assert_eq!(ack.repeaters, vec![NodeId(9), NodeId(7), NodeId(3)]);
        assert_eq!(ack.current_repeater(), Some(NodeId(9)));
    }

    #[test]
    fn direction_bit_roundtrips() {
        let inbound = RoutingHeader { outbound: false, hop: 1, repeaters: vec![NodeId(9)] };
        let (back, _) = RoutingHeader::decode(&inbound.encode()).unwrap();
        assert!(!back.outbound);
    }
}
