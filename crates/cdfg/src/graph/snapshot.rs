//! The flat binary snapshot of a [`Cdfg`]: the payload of a design-store
//! record.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! snapshot = "LWMG" u16 version           (6 bytes; version 1)
//!            u32 node_count u32 edge_slots
//!            node{node_count} edge{edge_slots}
//! node     = u8 kind                      (index into OpKind::ALL)
//!            u8 flags                     (bit 0: literal, bit 1: name)
//!            [i64 literal]                (when bit 0 is set)
//!            [u32 len, len UTF-8 bytes]   (when bit 1 is set)
//! edge     = u8 tag                       (0 removed | 1 data | 2 ctrl | 3 temp)
//!            [u32 src, u32 dst]           (absent for a removed slot)
//! ```
//!
//! Every node and every edge slot is written, anonymous nodes and removed
//! slots included, so node ids, edge ids, names and literals all survive a
//! round-trip. Decoding reads straight into the arenas (no intermediate
//! tree, no per-field key strings) and rejects anything a corrupt or
//! hostile payload could get wrong with a [`CdfgError`], then runs
//! [`Cdfg::validate`] as [`parse_cdfg`](crate::parse_cdfg) does.

use super::{Cdfg, Edge, EdgeKind};
use crate::{CdfgError, EdgeId, NodeId, OpKind};

/// Magic bytes opening every snapshot.
const MAGIC: &[u8; 4] = b"LWMG";
/// The snapshot layout version this build writes and reads.
const VERSION: u16 = 1;

const HAS_LITERAL: u8 = 1;
const HAS_NAME: u8 = 2;

/// The smallest encoding of a node (kind + flags); the smallest edge slot
/// is a removed slot's one tag byte.
const MIN_NODE_LEN: usize = 2;

const TAG_REMOVED: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_CTRL: u8 = 2;
const TAG_TEMP: u8 = 3;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdfgError> {
        if n > self.remaining() {
            return Err(CdfgError::Snapshot(format!(
                "truncated at byte {}: wanted {n} more of {} bytes",
                self.pos,
                self.buf.len()
            )));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CdfgError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u8(&mut self) -> Result<u8, CdfgError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CdfgError> {
        self.array().map(u32::from_le_bytes)
    }
}

impl Cdfg {
    /// Encodes the graph as a flat, versioned binary snapshot (layout in
    /// the module docs). [`Cdfg::from_snapshot`] restores the identical
    /// graph: same node and edge ids, names, literals and removed slots.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14 + self.nodes.len() * 8 + self.edges.len() * 9);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // Node and edge ids are u32 indices, so both counts fit.
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for node in &self.nodes {
            // `OpKind::ALL` is in functionality-id order.
            out.push(node.kind.functionality_id() as u8);
            let flags = if node.literal.is_some() {
                HAS_LITERAL
            } else {
                0
            } | if node.name.is_some() { HAS_NAME } else { 0 };
            out.push(flags);
            if let Some(literal) = node.literal {
                out.extend_from_slice(&literal.to_le_bytes());
            }
            if let Some(sym) = node.name {
                let name = self.arena.get(sym);
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
        }
        for slot in &self.edges {
            let Some(edge) = slot else {
                out.push(TAG_REMOVED);
                continue;
            };
            out.push(match edge.kind {
                EdgeKind::Data => TAG_DATA,
                EdgeKind::Control => TAG_CTRL,
                EdgeKind::Temporal => TAG_TEMP,
            });
            out.extend_from_slice(&(edge.src.index() as u32).to_le_bytes());
            out.extend_from_slice(&(edge.dst.index() as u32).to_le_bytes());
        }
        out
    }

    /// Decodes a snapshot written by [`Cdfg::to_snapshot`].
    ///
    /// # Errors
    ///
    /// [`CdfgError::Snapshot`] for a bad magic or version, a truncated
    /// payload, trailing bytes, counts larger than the payload could hold,
    /// an unknown kind, flag or edge tag, or a name that is not UTF-8;
    /// [`CdfgError::DuplicateName`], [`CdfgError::UnknownNode`] (an
    /// endpoint out of range) and [`CdfgError::SelfLoop`] for structural
    /// damage; and every [`Cdfg::validate`] error.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Cdfg, CdfgError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len()).ok() != Some(MAGIC.as_slice()) {
            return Err(CdfgError::Snapshot(
                "not a CDFG snapshot (bad magic)".to_owned(),
            ));
        }
        let version = u16::from_le_bytes(r.array()?);
        if version != VERSION {
            return Err(CdfgError::Snapshot(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let node_count = r.u32()? as usize;
        let slot_count = r.u32()? as usize;
        // Bound both counts by what the rest of the payload could hold
        // before allocating for them.
        let least = node_count
            .checked_mul(MIN_NODE_LEN)
            .and_then(|n| n.checked_add(slot_count));
        if least.is_none_or(|least| least > r.remaining()) {
            return Err(CdfgError::Snapshot(format!(
                "{node_count} nodes and {slot_count} edge slots cannot fit in {} bytes",
                r.remaining()
            )));
        }

        let mut g = Cdfg::with_capacity(node_count, slot_count);
        for _ in 0..node_count {
            let at = r.pos;
            let kind = *OpKind::ALL
                .get(usize::from(r.u8()?))
                .ok_or_else(|| CdfgError::Snapshot(format!("unknown op kind at byte {at}")))?;
            let flags = r.u8()?;
            if flags & !(HAS_LITERAL | HAS_NAME) != 0 {
                return Err(CdfgError::Snapshot(format!(
                    "unknown node flags {flags:#04x} at byte {}",
                    at + 1
                )));
            }
            let literal = if flags & HAS_LITERAL != 0 {
                Some(i64::from_le_bytes(r.array()?))
            } else {
                None
            };
            let id = if flags & HAS_NAME != 0 {
                let len = r.u32()? as usize;
                let at = r.pos;
                let name = std::str::from_utf8(r.take(len)?).map_err(|_| {
                    CdfgError::Snapshot(format!("node name at byte {at} is not UTF-8"))
                })?;
                g.try_add_named_node(kind, name)?
            } else {
                g.add_node(kind)
            };
            g.nodes[id.index()].literal = literal;
        }

        let mut out_degree = vec![0u32; node_count];
        let mut in_degree = vec![0u32; node_count];
        for _ in 0..slot_count {
            let at = r.pos;
            let kind = match r.u8()? {
                TAG_REMOVED => {
                    g.edges.push(None);
                    continue;
                }
                TAG_DATA => EdgeKind::Data,
                TAG_CTRL => EdgeKind::Control,
                TAG_TEMP => EdgeKind::Temporal,
                tag => {
                    return Err(CdfgError::Snapshot(format!(
                        "unknown edge tag {tag} at byte {at}"
                    )))
                }
            };
            let src = NodeId::from_index(r.u32()? as usize);
            let dst = NodeId::from_index(r.u32()? as usize);
            g.check_node(src)?;
            g.check_node(dst)?;
            if src == dst {
                return Err(CdfgError::SelfLoop(src));
            }
            out_degree[src.index()] += 1;
            in_degree[dst.index()] += 1;
            g.edges.push(Some(Edge { kind, src, dst }));
        }
        if r.remaining() != 0 {
            return Err(CdfgError::Snapshot(format!(
                "{} trailing bytes after the last edge slot",
                r.remaining()
            )));
        }

        // Adjacency lists, sized exactly and filled in edge-id order — the
        // order `add_edge` and `remove_edge` leave them in.
        for (list, &d) in g.out_edges.iter_mut().zip(&out_degree) {
            list.reserve_exact(d as usize);
        }
        for (list, &d) in g.in_edges.iter_mut().zip(&in_degree) {
            list.reserve_exact(d as usize);
        }
        for (i, slot) in g.edges.iter().enumerate() {
            if let Some(edge) = slot {
                g.out_edges[edge.src.index()].push(EdgeId::from_index(i));
                g.in_edges[edge.dst.index()].push(EdgeId::from_index(i));
            }
        }
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cdfg {
        let mut g = Cdfg::new();
        let x = g.add_named_node(OpKind::Input, "x");
        let c = g.add_node(OpKind::Const);
        g.set_literal(c, -7);
        let m = g.add_named_node(OpKind::ConstMul, "naïve");
        g.set_literal(m, i64::MIN);
        let y = g.add_named_node(OpKind::Output, "y");
        let t = g.add_temporal_edge(x, y).unwrap();
        g.add_data_edge(x, m).unwrap();
        g.add_data_edge(m, y).unwrap();
        g.remove_edge(t).unwrap();
        g
    }

    #[test]
    fn all_kinds_are_in_functionality_id_order() {
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind.functionality_id() as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn round_trip_keeps_ids_names_literals_and_removed_slots() {
        let g = sample();
        let back = Cdfg::from_snapshot(&g.to_snapshot()).unwrap();
        assert_eq!(back.node_count(), 4);
        assert_eq!(back.edges.len(), 3, "the removed slot is kept");
        assert_eq!(back.edges, g.edges);
        assert_eq!(back.nodes, g.nodes);
        assert_eq!(back.out_edges, g.out_edges);
        assert_eq!(back.in_edges, g.in_edges);
        assert_eq!(back.node_by_name("naïve"), g.node_by_name("naïve"));
        assert_eq!(back.to_snapshot(), g.to_snapshot());
    }

    #[test]
    fn bad_headers_and_counts_are_errors() {
        let bytes = sample().to_snapshot();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Cdfg::from_snapshot(&bad_magic),
            Err(CdfgError::Snapshot(m)) if m.contains("magic")
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(Cdfg::from_snapshot(&bad_version).is_err());
        // A header claiming four billion nodes is refused before any
        // allocation for them.
        let mut huge = bytes.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Cdfg::from_snapshot(&huge),
            Err(CdfgError::Snapshot(m)) if m.contains("cannot fit")
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            Cdfg::from_snapshot(&trailing),
            Err(CdfgError::Snapshot(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn structural_damage_is_typed() {
        let mut g = Cdfg::new();
        let a = g.add_named_node(OpKind::Input, "a");
        let b = g.add_named_node(OpKind::Output, "b");
        g.add_data_edge(a, b).unwrap();
        let bytes = g.to_snapshot();
        let edge = bytes.len() - 9;
        // dst := src
        let mut self_loop = bytes.clone();
        self_loop[edge + 5..edge + 9].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Cdfg::from_snapshot(&self_loop).unwrap_err(),
            CdfgError::SelfLoop(a)
        );
        let mut out_of_range = bytes.clone();
        out_of_range[edge + 5..edge + 9].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            Cdfg::from_snapshot(&out_of_range),
            Err(CdfgError::UnknownNode(_))
        ));
        let mut unknown_tag = bytes.clone();
        unknown_tag[edge] = 4;
        assert!(Cdfg::from_snapshot(&unknown_tag).is_err());
        // Rename `b` to `a`: a duplicate name.
        let mut duplicate = bytes.clone();
        let b_name = bytes.iter().rposition(|&c| c == b'b').unwrap();
        duplicate[b_name] = b'a';
        assert_eq!(
            Cdfg::from_snapshot(&duplicate).unwrap_err(),
            CdfgError::DuplicateName("a".to_owned())
        );
        let mut not_utf8 = bytes;
        not_utf8[b_name] = 0xFF;
        assert!(matches!(
            Cdfg::from_snapshot(&not_utf8),
            Err(CdfgError::Snapshot(m)) if m.contains("UTF-8")
        ));
    }

    #[test]
    fn decoding_validates_like_the_parser() {
        // An `Add` with no operands: structurally sound, arity-invalid.
        let mut g = Cdfg::new();
        g.add_node(OpKind::Input);
        g.add_node(OpKind::Add);
        assert!(matches!(
            Cdfg::from_snapshot(&g.to_snapshot()),
            Err(CdfgError::ArityMismatch { .. })
        ));
    }
}
