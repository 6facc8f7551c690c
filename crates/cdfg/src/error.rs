//! Crate error type.

use std::fmt;

use crate::{EdgeId, NodeId};

/// Errors produced while constructing or validating a CDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CdfgError {
    /// A referenced node id does not exist in the graph.
    UnknownNode(NodeId),
    /// A referenced edge id does not exist in the graph.
    UnknownEdge(EdgeId),
    /// A self loop was requested (`src == dst`), which is never a valid
    /// precedence in a DAG.
    SelfLoop(NodeId),
    /// Adding the edge would create a cycle.
    WouldCycle {
        /// Source of the offending edge.
        src: NodeId,
        /// Destination of the offending edge.
        dst: NodeId,
    },
    /// The graph contains a cycle (detected during validation or
    /// topological sorting).
    Cyclic,
    /// A node has the wrong number of data operands.
    ArityMismatch {
        /// The offending node.
        node: NodeId,
        /// Operands expected by the operation kind.
        expected: usize,
        /// Operands actually connected.
        found: usize,
    },
    /// A named node was referenced but never defined (builder / parser).
    UnknownName(String),
    /// A node name was defined twice (builder / parser).
    DuplicateName(String),
    /// The text format was malformed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A binary snapshot ([`Cdfg::from_snapshot`](crate::Cdfg::from_snapshot))
    /// was malformed: bad magic or version, truncated, trailing bytes, or
    /// an unknown kind, flag or tag.
    Snapshot(String),
}

impl fmt::Display for CdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdfgError::UnknownNode(n) => write!(f, "unknown node {n}"),
            CdfgError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            CdfgError::SelfLoop(n) => write!(f, "self loop on node {n}"),
            CdfgError::WouldCycle { src, dst } => {
                write!(f, "edge {src} -> {dst} would create a cycle")
            }
            CdfgError::Cyclic => write!(f, "graph contains a cycle"),
            CdfgError::ArityMismatch {
                node,
                expected,
                found,
            } => write!(
                f,
                "node {node} expects {expected} data operand(s) but has {found}"
            ),
            CdfgError::UnknownName(name) => write!(f, "unknown node name `{name}`"),
            CdfgError::DuplicateName(name) => write!(f, "duplicate node name `{name}`"),
            CdfgError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            CdfgError::Snapshot(message) => write!(f, "malformed snapshot: {message}"),
        }
    }
}

impl std::error::Error for CdfgError {}
