//! Application-layer payload model: the `CMDCL / CMD / PARAM1..PARAMn`
//! hierarchy of the paper's Figures 1 and 6, including the position
//! vocabulary that ZCover's position-sensitive mutator operates on.

use std::fmt;

use crate::command_class::CommandClassId;
use crate::error::ProtocolError;

/// Position of a mutable field within the application payload (Figure 6).
///
/// Position 0 is the top-level CMDCL, position 1 the CMD, and positions
/// ≥ 2 the dependent PARAM bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldPosition {
    /// Position 0: the command class (top-level mutable field).
    CommandClass,
    /// Position 1: the command (secondary mutable field).
    Command,
    /// Position 2+n: the n-th parameter byte (dependent mutable field).
    Param(usize),
}

impl FieldPosition {
    /// Byte index of this field within the encoded payload.
    pub fn byte_index(self) -> usize {
        match self {
            FieldPosition::CommandClass => 0,
            FieldPosition::Command => 1,
            FieldPosition::Param(n) => 2 + n,
        }
    }

    /// Field position for a given payload byte index.
    pub fn from_byte_index(index: usize) -> Self {
        match index {
            0 => FieldPosition::CommandClass,
            1 => FieldPosition::Command,
            n => FieldPosition::Param(n - 2),
        }
    }
}

impl fmt::Display for FieldPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldPosition::CommandClass => f.write_str("CMDCL (position 0)"),
            FieldPosition::Command => f.write_str("CMD (position 1)"),
            FieldPosition::Param(n) => write!(f, "PARAM{} (position {})", n + 1, n + 2),
        }
    }
}

/// A parsed Z-Wave application payload.
///
/// ```
/// use zwave_protocol::{ApplicationPayload, CommandClassId};
///
/// # fn main() -> Result<(), zwave_protocol::ProtocolError> {
/// let pld = ApplicationPayload::parse(&[0x20, 0x01, 0xFF])?;
/// assert_eq!(pld.command_class(), CommandClassId::BASIC);
/// assert_eq!(pld.command(), Some(0x01));
/// assert_eq!(pld.params(), &[0xFF]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApplicationPayload {
    command_class: CommandClassId,
    command: Option<u8>,
    params: Vec<u8>,
}

impl ApplicationPayload {
    /// Builds a payload from its three hierarchical levels.
    pub fn new(command_class: CommandClassId, command: u8, params: Vec<u8>) -> Self {
        ApplicationPayload { command_class, command: Some(command), params }
    }

    /// Builds a payload consisting of a bare CMDCL byte — e.g. the NOP
    /// liveness ping (`[0x00]`) the paper uses for crash verification.
    pub fn bare(command_class: CommandClassId) -> Self {
        ApplicationPayload { command_class, command: None, params: Vec::new() }
    }

    /// Parses raw payload bytes into the CMDCL/CMD/PARAM hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyPayload`] for an empty buffer. A
    /// one-byte buffer parses as a bare command class (the NOP case).
    pub fn parse(bytes: &[u8]) -> Result<Self, ProtocolError> {
        match bytes {
            [] => Err(ProtocolError::EmptyPayload),
            [cc] => Ok(ApplicationPayload::bare(CommandClassId(*cc))),
            [cc, cmd, params @ ..] => Ok(ApplicationPayload {
                command_class: CommandClassId(*cc),
                command: Some(*cmd),
                params: params.to_vec(),
            }),
        }
    }

    /// The top-level command class (position 0).
    pub fn command_class(&self) -> CommandClassId {
        self.command_class
    }

    /// The command (position 1), absent for bare-CMDCL payloads.
    pub fn command(&self) -> Option<u8> {
        self.command
    }

    /// The parameter bytes (positions 2+).
    pub fn params(&self) -> &[u8] {
        &self.params
    }

    /// Mutable access to the parameter bytes, for in-place mutation.
    pub fn params_mut(&mut self) -> &mut Vec<u8> {
        &mut self.params
    }

    /// Overwrites the command class (position-0 mutation).
    pub fn set_command_class(&mut self, cc: CommandClassId) {
        self.command_class = cc;
    }

    /// Overwrites the command (position-1 mutation).
    pub fn set_command(&mut self, cmd: u8) {
        self.command = Some(cmd);
    }

    /// Reads the byte at a mutation position, if present.
    pub fn field(&self, pos: FieldPosition) -> Option<u8> {
        match pos {
            FieldPosition::CommandClass => Some(self.command_class.0),
            FieldPosition::Command => self.command,
            FieldPosition::Param(n) => self.params.get(n).copied(),
        }
    }

    /// Writes the byte at a mutation position. Writing one slot past the
    /// last parameter appends (the `insert` operator of Table I); writing
    /// further out is ignored and returns `false`.
    pub fn set_field(&mut self, pos: FieldPosition, value: u8) -> bool {
        match pos {
            FieldPosition::CommandClass => {
                self.command_class = CommandClassId(value);
                true
            }
            FieldPosition::Command => {
                self.command = Some(value);
                true
            }
            FieldPosition::Param(n) => {
                if n < self.params.len() {
                    self.params[n] = value;
                    true
                } else if n == self.params.len() {
                    self.params.push(value);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Number of encoded bytes.
    pub fn len(&self) -> usize {
        1 + self.command.map_or(0, |_| 1) + self.params.len()
    }

    /// Whether the payload is a bare command class with no command byte.
    pub fn is_empty(&self) -> bool {
        self.command.is_none() && self.params.is_empty()
    }

    /// Serializes back to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.push(self.command_class.0);
        if let Some(cmd) = self.command {
            out.push(cmd);
            out.extend_from_slice(&self.params);
        }
        out
    }
}

impl fmt::Display for ApplicationPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.command_class)?;
        if let Some(cmd) = self.command {
            write!(f, " 0x{cmd:02X}")?;
            for p in &self.params {
                write!(f, " 0x{p:02X}")?;
            }
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_set() {
        let pld = ApplicationPayload::parse(&[0x20, 0x01, 0xFF]).unwrap();
        assert_eq!(pld.command_class(), CommandClassId::BASIC);
        assert_eq!(pld.command(), Some(0x01));
        assert_eq!(pld.params(), &[0xFF]);
        assert_eq!(pld.encode(), vec![0x20, 0x01, 0xFF]);
    }

    #[test]
    fn empty_payload_is_an_error() {
        assert_eq!(ApplicationPayload::parse(&[]), Err(ProtocolError::EmptyPayload));
    }

    #[test]
    fn nop_ping_is_bare_class() {
        let pld = ApplicationPayload::parse(&[0x00]).unwrap();
        assert_eq!(pld.command_class(), CommandClassId::NO_OPERATION);
        assert_eq!(pld.command(), None);
        assert!(pld.is_empty());
        assert_eq!(pld.encode(), vec![0x00]);
        assert_eq!(pld.len(), 1);
    }

    #[test]
    fn algorithm1_initial_payload() {
        // Algorithm 1 line 8: initial pld [0x01 0x00 0x00].
        let pld = ApplicationPayload::new(CommandClassId::ZWAVE_PROTOCOL, 0x00, vec![0x00]);
        assert_eq!(pld.encode(), vec![0x01, 0x00, 0x00]);
        assert_eq!(pld.to_string(), "[0x01 0x00 0x00]");
    }

    #[test]
    fn field_positions_map_to_byte_indices() {
        assert_eq!(FieldPosition::CommandClass.byte_index(), 0);
        assert_eq!(FieldPosition::Command.byte_index(), 1);
        assert_eq!(FieldPosition::Param(0).byte_index(), 2);
        assert_eq!(FieldPosition::Param(3).byte_index(), 5);
        for i in 0..8 {
            assert_eq!(FieldPosition::from_byte_index(i).byte_index(), i);
        }
    }

    #[test]
    fn set_field_mutations() {
        let mut pld = ApplicationPayload::new(CommandClassId::BASIC, 0x01, vec![0xFF]);
        assert!(pld.set_field(FieldPosition::Command, 0x06));
        assert_eq!(pld.command(), Some(0x06));
        assert!(pld.set_field(FieldPosition::Param(0), 0x00));
        assert_eq!(pld.params(), &[0x00]);
        // Appending one past the end is the `insert` operator...
        assert!(pld.set_field(FieldPosition::Param(1), 0xAA));
        assert_eq!(pld.params(), &[0x00, 0xAA]);
        // ...but writing far out of range is refused.
        assert!(!pld.set_field(FieldPosition::Param(9), 0xBB));
        assert_eq!(pld.params().len(), 2);
    }

    #[test]
    fn field_reads() {
        let pld = ApplicationPayload::new(CommandClassId(0x62), 0x02, vec![0x10, 0x20]);
        assert_eq!(pld.field(FieldPosition::CommandClass), Some(0x62));
        assert_eq!(pld.field(FieldPosition::Command), Some(0x02));
        assert_eq!(pld.field(FieldPosition::Param(1)), Some(0x20));
        assert_eq!(pld.field(FieldPosition::Param(2)), None);
    }

    #[test]
    fn display_formats_hierarchy() {
        let pld = ApplicationPayload::new(CommandClassId::BASIC, 0x01, vec![0xFF]);
        assert_eq!(pld.to_string(), "[0x20 0x01 0xFF]");
        assert_eq!(ApplicationPayload::bare(CommandClassId::NO_OPERATION).to_string(), "[0x00]");
    }

    #[test]
    fn position_display() {
        assert_eq!(FieldPosition::Param(0).to_string(), "PARAM1 (position 2)");
    }
}
