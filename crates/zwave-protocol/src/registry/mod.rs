//! The command-class specification registry.
//!
//! This module is the in-repo equivalent of the two sources ZCover's
//! *unknown properties discovery* phase parses (Section III-C1): the Z-Wave
//! Alliance specification (122 command classes as of the paper's November
//! 2024 snapshot) and the `ZWave_custom_cmd_classes.xml` application-layer
//! definitions. Each class carries its functional cluster, version, and the
//! full command list with per-parameter value specifications — everything
//! the position-sensitive mutator needs for *semantic* mutation
//! (`rand valid` / `rand invalid` operators of Table I) and everything the
//! discovery phase needs for clustering and prioritisation.
//!
//! The two proprietary classes the paper uncovers by systematic validation
//! testing (`0x01` Z-Wave protocol, `0x02` Zensor-Net) are deliberately
//! **absent** from [`Registry::global`]; they live in [`proprietary`] and are
//! only referenced by the simulated devices under test, mirroring reality:
//! vendors know them, the public specification does not.

mod data;
pub mod proprietary;
pub mod xml;

use std::fmt;
use std::sync::OnceLock;

use crate::command_class::{CommandClassId, CommandKind, CommandRole};
use crate::error::ProtocolError;

/// Functional grouping of a command class (Section III-C1: "clusters
/// CMDCLs based on function" so that "fuzzing efforts can focus on specific
/// controller-managed functionalities").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionalCluster {
    /// Application-level functionality a controller exercises directly
    /// (Basic, switches it controls, ...).
    ApplicationFunctionality,
    /// Transport and encapsulation machinery (S0, S2, CRC-16 encap,
    /// Transport Service, Multi Channel, Multi Cmd, Supervision).
    TransportEncapsulation,
    /// Device and network management (Version, Association, Firmware
    /// Update, Wake Up, ...).
    Management,
    /// Network formation, inclusion, routing and Z/IP infrastructure.
    Network,
    /// Sensor and actuator classes typical of slave devices.
    SensorActuator,
    /// Climate, energy and metering classes.
    ClimateEnergy,
    /// Display, audio/video and entertainment classes.
    DisplayAv,
    /// Specialised or vertical classes (irrigation, antitheft, ...).
    Specialised,
}

impl FunctionalCluster {
    /// Whether a Z-Wave *controller* is expected to support classes of this
    /// cluster (Section III-C1: "application functionality, transport
    /// encapsulation, management, and networking").
    pub fn is_controller_relevant(self) -> bool {
        matches!(
            self,
            FunctionalCluster::ApplicationFunctionality
                | FunctionalCluster::TransportEncapsulation
                | FunctionalCluster::Management
                | FunctionalCluster::Network
        )
    }
}

impl fmt::Display for FunctionalCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FunctionalCluster::ApplicationFunctionality => "application functionality",
            FunctionalCluster::TransportEncapsulation => "transport encapsulation",
            FunctionalCluster::Management => "management",
            FunctionalCluster::Network => "network",
            FunctionalCluster::SensorActuator => "sensor/actuator",
            FunctionalCluster::ClimateEnergy => "climate/energy",
            FunctionalCluster::DisplayAv => "display/AV",
            FunctionalCluster::Specialised => "specialised",
        };
        f.write_str(s)
    }
}

/// Specification of one parameter byte of a command: which values are
/// legal, which are boundary cases, which are interesting to a fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamSpec {
    /// Any byte within an inclusive range is legal.
    Byte {
        /// Smallest legal value.
        min: u8,
        /// Largest legal value.
        max: u8,
    },
    /// Only the listed discrete values are legal.
    Enum(&'static [u8]),
    /// A node identifier: `0x01..=0xE8` (232 nodes) plus broadcast `0xFF`.
    NodeId,
    /// A bit mask: every byte is legal.
    BitMask,
    /// A length/size field whose legal values are `0..=max`.
    Size {
        /// Largest legal size.
        max: u8,
    },
}

impl ParamSpec {
    /// Whether `value` is legal under this specification.
    pub fn is_valid(self, value: u8) -> bool {
        match self {
            ParamSpec::Byte { min, max } => (min..=max).contains(&value),
            ParamSpec::Enum(values) => values.contains(&value),
            ParamSpec::NodeId => (0x01..=0xE8).contains(&value) || value == 0xFF,
            ParamSpec::BitMask => true,
            ParamSpec::Size { max } => value <= max,
        }
    }

    /// A canonical legal value (used to seed semi-valid packets).
    pub fn default_valid(self) -> u8 {
        match self {
            ParamSpec::Byte { min, .. } => min,
            ParamSpec::Enum(values) => values.first().copied().unwrap_or(0),
            ParamSpec::NodeId => 0x01,
            ParamSpec::BitMask => 0x00,
            ParamSpec::Size { .. } => 0x00,
        }
    }

    /// All legal values (collected; bounded by 256).
    pub fn valid_values(self) -> Vec<u8> {
        (0u8..=0xFF).filter(|&v| self.is_valid(v)).collect()
    }

    /// All illegal values (may be empty, e.g. for [`ParamSpec::BitMask`]).
    pub fn invalid_values(self) -> Vec<u8> {
        (0u8..=0xFF).filter(|&v| !self.is_valid(v)).collect()
    }

    /// Boundary values for the boundary-testing strategy of Section III-D1:
    /// minimum, maximum, and the values one step outside them.
    pub fn boundary_values(self) -> Vec<u8> {
        let mut out = match self {
            ParamSpec::Byte { min, max } => {
                vec![min, max, min.wrapping_sub(1), max.wrapping_add(1)]
            }
            ParamSpec::Enum(values) => {
                let mut v: Vec<u8> = values.to_vec();
                if let (Some(&lo), Some(&hi)) = (v.iter().min(), v.iter().max()) {
                    v.push(lo.wrapping_sub(1));
                    v.push(hi.wrapping_add(1));
                }
                v
            }
            ParamSpec::NodeId => vec![0x00, 0x01, 0xE8, 0xE9, 0xFE, 0xFF],
            ParamSpec::BitMask => vec![0x00, 0xFF, 0x80, 0x01],
            ParamSpec::Size { max } => vec![0, max, max.wrapping_add(1), 0xFF],
        };
        out.dedup();
        out
    }
}

/// Specification of one command within a command class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommandSpec {
    /// Command identifier (the CMD byte, position 1).
    pub id: u8,
    /// Human-readable command name from the specification.
    pub name: &'static str,
    /// Get / Set / Report / other.
    pub kind: CommandKind,
    /// Controlling (controller-sent) or supporting (slave-sent).
    pub role: CommandRole,
    /// Per-byte parameter specifications (positions 2+).
    pub params: &'static [ParamSpec],
}

/// Specification of one command class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommandClassSpec {
    /// The CMDCL byte.
    pub id: CommandClassId,
    /// Specification name, e.g. `COMMAND_CLASS_DOOR_LOCK`.
    pub name: &'static str,
    /// Functional cluster used by ZCover's discovery phase.
    pub cluster: FunctionalCluster,
    /// Highest specification version modelled.
    pub version: u8,
    /// The commands this class defines.
    pub commands: &'static [CommandSpec],
}

impl CommandClassSpec {
    /// Number of commands — the prioritisation metric of Section III-C1
    /// ("higher priority to CMDCLs that support more CMDs").
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }

    /// Looks up a command by its CMD byte.
    pub fn command(&self, cmd: u8) -> Option<&CommandSpec> {
        self.commands.iter().find(|c| c.id == cmd)
    }

    /// Whether this class belongs to a controller-relevant cluster.
    pub fn is_controller_relevant(&self) -> bool {
        self.cluster.is_controller_relevant()
    }
}

/// The command-class registry: an indexed view over the specification data.
#[derive(Debug)]
pub struct Registry {
    classes: &'static [CommandClassSpec],
    index: [Option<u16>; 256],
}

impl Registry {
    fn build(classes: &'static [CommandClassSpec]) -> Self {
        let mut index = [None; 256];
        for (i, spec) in classes.iter().enumerate() {
            debug_assert!(
                index[spec.id.0 as usize].is_none(),
                "duplicate command class {}",
                spec.id
            );
            index[spec.id.0 as usize] = Some(i as u16);
        }
        Registry { classes, index }
    }

    /// The global public-specification registry (122 classes, proprietary
    /// `0x01`/`0x02` excluded — see the module docs).
    pub fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry::build(data::PUBLIC_COMMAND_CLASSES))
    }

    /// Looks up a class specification by CMDCL byte.
    pub fn get(&self, id: CommandClassId) -> Option<&CommandClassSpec> {
        self.index[id.0 as usize].map(|i| &self.classes[i as usize])
    }

    /// Like [`Registry::get`] but returns a [`ProtocolError`] for unknown ids.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownCommandClass`] when the class is not
    /// in this registry.
    pub fn require(&self, id: CommandClassId) -> Result<&CommandClassSpec, ProtocolError> {
        self.get(id).ok_or(ProtocolError::UnknownCommandClass(id.0))
    }

    /// Whether the registry defines this class.
    pub fn contains(&self, id: CommandClassId) -> bool {
        self.index[id.0 as usize].is_some()
    }

    /// All classes in ascending CMDCL order.
    pub fn iter(&self) -> impl Iterator<Item = &CommandClassSpec> {
        self.classes.iter()
    }

    /// Number of classes defined.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the registry is empty (never, for the global registry).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All controller-relevant classes — the clustered baseline ZCover uses
    /// to pinpoint unlisted CMDCL candidates (Section III-C1).
    pub fn controller_relevant(&self) -> impl Iterator<Item = &CommandClassSpec> {
        self.iter().filter(|c| c.is_controller_relevant())
    }

    /// Controller-relevant classes sorted by descending command count
    /// (then ascending id for determinism) — the fuzzing priority order.
    pub fn controller_relevant_by_priority(&self) -> Vec<&CommandClassSpec> {
        let mut v: Vec<&CommandClassSpec> = self.controller_relevant().collect();
        v.sort_by(|a, b| b.command_count().cmp(&a.command_count()).then(a.id.cmp(&b.id)));
        v
    }

    /// Looks up a command within a class.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownCommandClass`] or
    /// [`ProtocolError::UnknownCommand`].
    pub fn command(&self, id: CommandClassId, cmd: u8) -> Result<&CommandSpec, ProtocolError> {
        self.require(id)?
            .command(cmd)
            .ok_or(ProtocolError::UnknownCommand { command_class: id.0, command: cmd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_has_122_public_classes() {
        // Section III-C1: "as of November 2024, lists 122 CMDCLs".
        assert_eq!(Registry::global().len(), 122);
        assert!(!Registry::global().is_empty());
    }

    #[test]
    fn proprietary_classes_are_absent_from_public_spec() {
        let reg = Registry::global();
        assert!(!reg.contains(CommandClassId::ZWAVE_PROTOCOL));
        assert!(!reg.contains(CommandClassId::ZENSOR_NET));
        assert!(matches!(
            reg.require(CommandClassId::ZWAVE_PROTOCOL),
            Err(ProtocolError::UnknownCommandClass(0x01))
        ));
    }

    #[test]
    fn controller_relevant_cluster_has_43_classes() {
        // 17 listed + 26 inferred unlisted (Section III-C1) = 43 spec
        // classes; the remaining 2 of the paper's 45 are the proprietary
        // pair found by validation testing.
        assert_eq!(Registry::global().controller_relevant().count(), 43);
    }

    #[test]
    fn no_duplicate_ids() {
        let mut seen = std::collections::HashSet::new();
        for spec in Registry::global().iter() {
            assert!(seen.insert(spec.id), "duplicate {}", spec.id);
        }
    }

    #[test]
    fn classes_are_sorted_ascending() {
        let ids: Vec<u8> = Registry::global().iter().map(|c| c.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn command_lookup() {
        let reg = Registry::global();
        let basic = reg.get(CommandClassId::BASIC).unwrap();
        assert_eq!(basic.command_count(), 3);
        let set = basic.command(0x01).unwrap();
        assert_eq!(set.kind, CommandKind::Set);
        assert!(reg.command(CommandClassId::BASIC, 0x99).is_err());
    }

    #[test]
    fn table3_bug_commands_exist_in_spec() {
        let reg = Registry::global();
        // Every listed-class bug coordinate of Table III resolves.
        for (cc, cmd) in [
            (0x9F, 0x01),
            (0x5A, 0x01),
            (0x59, 0x03),
            (0x7A, 0x01),
            (0x86, 0x13),
            (0x59, 0x05),
            (0x73, 0x04),
            (0x7A, 0x03),
        ] {
            assert!(
                reg.command(CommandClassId(cc), cmd).is_ok(),
                "missing command {cc:#04X}/{cmd:#04X}"
            );
        }
    }

    #[test]
    fn priority_order_is_descending_by_command_count() {
        let order = Registry::global().controller_relevant_by_priority();
        for pair in order.windows(2) {
            assert!(pair[0].command_count() >= pair[1].command_count());
        }
        // Network Management Inclusion tops the list (Figure 5's 23 bar).
        assert_eq!(order[0].id, CommandClassId::NETWORK_MANAGEMENT_INCLUSION);
        assert_eq!(order[0].command_count(), 23);
    }

    #[test]
    fn param_spec_validity() {
        let byte = ParamSpec::Byte { min: 0x10, max: 0x20 };
        assert!(byte.is_valid(0x10) && byte.is_valid(0x20) && !byte.is_valid(0x21));
        assert_eq!(byte.default_valid(), 0x10);

        let en = ParamSpec::Enum(&[0x00, 0xFF]);
        assert!(en.is_valid(0xFF) && !en.is_valid(0x01));
        assert_eq!(en.valid_values(), vec![0x00, 0xFF]);
        assert_eq!(en.invalid_values().len(), 254);

        assert!(ParamSpec::NodeId.is_valid(0x01));
        assert!(ParamSpec::NodeId.is_valid(0xFF));
        assert!(!ParamSpec::NodeId.is_valid(0x00));
        assert!(!ParamSpec::NodeId.is_valid(0xE9));

        assert!(ParamSpec::BitMask.invalid_values().is_empty());
        assert!(ParamSpec::Size { max: 4 }.is_valid(4));
        assert!(!ParamSpec::Size { max: 4 }.is_valid(5));
    }

    #[test]
    fn boundary_values_include_edges() {
        let b = ParamSpec::Byte { min: 1, max: 99 }.boundary_values();
        assert!(b.contains(&1) && b.contains(&99) && b.contains(&0) && b.contains(&100));
        let n = ParamSpec::NodeId.boundary_values();
        assert!(n.contains(&0xE8) && n.contains(&0xE9));
    }

    #[test]
    fn clusters_controller_relevance() {
        assert!(FunctionalCluster::Management.is_controller_relevant());
        assert!(FunctionalCluster::Network.is_controller_relevant());
        assert!(FunctionalCluster::TransportEncapsulation.is_controller_relevant());
        assert!(FunctionalCluster::ApplicationFunctionality.is_controller_relevant());
        assert!(!FunctionalCluster::SensorActuator.is_controller_relevant());
        assert!(!FunctionalCluster::ClimateEnergy.is_controller_relevant());
        assert!(!FunctionalCluster::DisplayAv.is_controller_relevant());
        assert!(!FunctionalCluster::Specialised.is_controller_relevant());
    }

    #[test]
    fn every_class_name_is_nonempty_and_unique() {
        let mut names = std::collections::HashSet::new();
        for spec in Registry::global().iter() {
            assert!(!spec.name.is_empty());
            assert!(names.insert(spec.name), "duplicate name {}", spec.name);
        }
    }

    #[test]
    fn commands_within_a_class_are_unique() {
        for spec in Registry::global().iter() {
            let mut seen = std::collections::HashSet::new();
            for cmd in spec.commands {
                assert!(seen.insert(cmd.id), "duplicate cmd {:#04X} in {}", cmd.id, spec.name);
            }
        }
    }
}
