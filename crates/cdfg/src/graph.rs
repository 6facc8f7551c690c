//! The CDFG arena graph.

use std::collections::HashMap;

use crate::{CdfgError, EdgeId, NodeId, OpKind, StrArena, Sym};

mod snapshot;

/// The kind of a CDFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// A data dependence: the destination consumes the value produced by the
    /// source. Imposes precedence: source is scheduled strictly before the
    /// destination.
    Data,
    /// A control dependence (e.g. a branch guarding an operation). Also
    /// imposes precedence.
    Control,
    /// A *temporal edge*: a pure precedence constraint carrying no value.
    /// Temporal edges are "standard nomenclature for behavioral descriptions"
    /// and are the constraint carrier of the scheduling watermark — they
    /// enforce that their source operation is scheduled before their
    /// destination operation.
    Temporal,
}

impl EdgeKind {
    /// Whether this edge kind carries a value (and therefore counts towards
    /// operand arity).
    pub fn carries_data(self) -> bool {
        matches!(self, EdgeKind::Data)
    }
}

/// A CDFG node: one operation.
///
/// Names are interned: a node stores an optional [`Sym`] into its graph's
/// [`StrArena`]; resolve it through [`Cdfg::node_name`] (or
/// [`Cdfg::sym_str`]) rather than the node alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    kind: OpKind,
    name: Option<Sym>,
    literal: Option<i64>,
}

impl Node {
    /// The operation performed by this node.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The interned symbol of the node's optional human-readable name
    /// (e.g. `A5`, `C3` in the paper's IIR example); resolve it with
    /// [`Cdfg::sym_str`] on the owning graph, or use [`Cdfg::node_name`]
    /// directly.
    pub fn name_sym(&self) -> Option<Sym> {
        self.name
    }

    /// The literal attached to the node: the value of a `Const`, or the
    /// coefficient of a `ConstMul`. Defaults to `None` (interpreters apply
    /// documented defaults).
    pub fn literal(&self) -> Option<i64> {
        self.literal
    }
}

/// A directed CDFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    kind: EdgeKind,
    src: NodeId,
    dst: NodeId,
}

impl Edge {
    /// The edge kind.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// Source node (scheduled before the destination).
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }
}

/// A control-data flow graph: a DAG of operations.
///
/// Nodes and edges live in arenas and are addressed by dense
/// [`NodeId`]/[`EdgeId`] indices. All mutation is append-only except
/// [`Cdfg::remove_edge`], which is needed to strip watermark constraints
/// after synthesis (removal tombstones the edge; ids of other edges remain
/// stable).
///
/// # Example
///
/// ```
/// use localwm_cdfg::{Cdfg, EdgeKind, OpKind};
///
/// let mut g = Cdfg::new();
/// let a = g.add_named_node(OpKind::Add, "A1");
/// let b = g.add_named_node(OpKind::Add, "A2");
/// let e = g.add_temporal_edge(a, b)?;
/// assert_eq!(g.edge(e).unwrap().kind(), EdgeKind::Temporal);
/// assert_eq!(g.node_by_name("A2"), Some(b));
/// # Ok::<(), localwm_cdfg::CdfgError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdfg {
    nodes: Vec<Node>,
    edges: Vec<Option<Edge>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    /// All node names, interned once each.
    arena: StrArena,
    /// Name symbol → node. Keys resolve through `arena`.
    names: HashMap<Sym, NodeId>,
}

impl Cdfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Cdfg {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
            arena: StrArena::new(),
            names: HashMap::new(),
        }
    }

    /// Number of nodes (including sources/sinks).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-removed) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// Number of *operations*: schedulable nodes, the `N` of the paper's
    /// Table I (inputs and constants are excluded).
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_schedulable())
            .count()
    }

    /// Adds an anonymous node and returns its id.
    pub fn add_node(&mut self, kind: OpKind) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            kind,
            name: None,
            literal: None,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Attaches a literal (constant value / coefficient) to a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_literal(&mut self, id: NodeId, value: i64) {
        self.nodes[id.index()].literal = Some(value);
    }

    /// Adds a named node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken; use [`Cdfg::try_add_named_node`]
    /// for a fallible variant.
    pub fn add_named_node(&mut self, kind: OpKind, name: impl AsRef<str>) -> NodeId {
        self.try_add_named_node(kind, name)
            .expect("duplicate node name")
    }

    /// Adds a named node, failing on duplicate names.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::DuplicateName`] if a node with this name exists.
    pub fn try_add_named_node(
        &mut self,
        kind: OpKind,
        name: impl AsRef<str>,
    ) -> Result<NodeId, CdfgError> {
        let name = name.as_ref();
        // Every interned symbol belongs to exactly one named node, so a
        // lookup hit *is* the duplicate check.
        if self.arena.lookup(name).is_some() {
            return Err(CdfgError::DuplicateName(name.to_owned()));
        }
        let sym = self.arena.intern(name);
        let id = NodeId::from_index(self.nodes.len());
        self.names.insert(sym, id);
        self.nodes.push(Node {
            kind,
            name: Some(sym),
            literal: None,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        Ok(id)
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        let sym = self.arena.lookup(name)?;
        self.names.get(&sym).copied()
    }

    /// The name of a node, resolved through the graph's intern arena;
    /// `None` for anonymous nodes and out-of-range ids.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes
            .get(id.index())
            .and_then(|n| n.name)
            .map(|s| self.arena.get(s))
    }

    /// Resolves an interned name symbol (from [`Node::name_sym`]) against
    /// this graph's arena.
    ///
    /// # Panics
    ///
    /// Panics if the symbol came from a different graph and is out of
    /// range there (see [`StrArena::get`]).
    pub fn sym_str(&self, sym: Sym) -> &str {
        self.arena.get(sym)
    }

    /// Returns the node payload, or `None` for an out-of-range id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Returns the operation kind of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn kind(&self, id: NodeId) -> OpKind {
        self.nodes[id.index()].kind
    }

    /// Returns the edge payload, or `None` for an out-of-range or removed id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index()).and_then(|e| e.as_ref())
    }

    fn check_node(&self, id: NodeId) -> Result<(), CdfgError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(CdfgError::UnknownNode(id))
        }
    }

    /// Adds an edge of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::UnknownNode`] for out-of-range endpoints and
    /// [`CdfgError::SelfLoop`] when `src == dst`. Cycle creation is *not*
    /// checked here (it would make bulk construction quadratic); call
    /// [`crate::topo_order`] or [`Cdfg::add_edge_acyclic`] when that
    /// guarantee is needed.
    pub fn add_edge(
        &mut self,
        kind: EdgeKind,
        src: NodeId,
        dst: NodeId,
    ) -> Result<EdgeId, CdfgError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(CdfgError::SelfLoop(src));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Some(Edge { kind, src, dst }));
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        Ok(id)
    }

    /// Adds a data edge (`src`'s value consumed by `dst`).
    ///
    /// # Errors
    ///
    /// See [`Cdfg::add_edge`].
    pub fn add_data_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, CdfgError> {
        self.add_edge(EdgeKind::Data, src, dst)
    }

    /// Adds a control edge.
    ///
    /// # Errors
    ///
    /// See [`Cdfg::add_edge`].
    pub fn add_control_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, CdfgError> {
        self.add_edge(EdgeKind::Control, src, dst)
    }

    /// Adds a temporal (watermark-constraint) edge.
    ///
    /// # Errors
    ///
    /// See [`Cdfg::add_edge`].
    pub fn add_temporal_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, CdfgError> {
        self.add_edge(EdgeKind::Temporal, src, dst)
    }

    /// Adds an edge, rejecting it if it would create a cycle.
    ///
    /// This is `O(V + E)` per call (it runs a reachability check from `dst`
    /// to `src`), so it is meant for incremental constraint insertion, not
    /// bulk construction.
    ///
    /// # Errors
    ///
    /// All of [`Cdfg::add_edge`]'s errors, plus [`CdfgError::WouldCycle`].
    pub fn add_edge_acyclic(
        &mut self,
        kind: EdgeKind,
        src: NodeId,
        dst: NodeId,
    ) -> Result<EdgeId, CdfgError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(CdfgError::SelfLoop(src));
        }
        if self.reaches(dst, src) {
            return Err(CdfgError::WouldCycle { src, dst });
        }
        self.add_edge(kind, src, dst)
    }

    /// Whether `to` is reachable from `from` along live edges.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            for &eid in &self.out_edges[n.index()] {
                if let Some(e) = &self.edges[eid.index()] {
                    if e.dst == to {
                        return true;
                    }
                    if !seen[e.dst.index()] {
                        seen[e.dst.index()] = true;
                        stack.push(e.dst);
                    }
                }
            }
        }
        false
    }

    /// Removes an edge (tombstoning its id). Used to strip watermark
    /// constraints from the optimized specification after synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::UnknownEdge`] if the edge does not exist or was
    /// already removed.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<Edge, CdfgError> {
        let slot = self
            .edges
            .get_mut(id.index())
            .ok_or(CdfgError::UnknownEdge(id))?;
        let edge = slot.take().ok_or(CdfgError::UnknownEdge(id))?;
        self.out_edges[edge.src.index()].retain(|&e| e != id);
        self.in_edges[edge.dst.index()].retain(|&e| e != id);
        Ok(edge)
    }

    /// Removes every temporal edge, returning how many were stripped.
    ///
    /// The watermarking flow adds temporal edges, runs the synthesis tool,
    /// then removes "the added constraints … from the optimized design
    /// specification".
    pub fn strip_temporal_edges(&mut self) -> usize {
        let ids: Vec<EdgeId> = self
            .edge_ids()
            .filter(|&e| {
                self.edges[e.index()]
                    .as_ref()
                    .is_some_and(|x| x.kind == EdgeKind::Temporal)
            })
            .collect();
        for id in &ids {
            let _ = self.remove_edge(*id);
        }
        ids.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterator over all live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| EdgeId::from_index(i))
    }

    /// Iterator over live edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter_map(|e| e.as_ref())
    }

    /// Outgoing live edges of a node.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_edges[n.index()]
            .iter()
            .filter_map(move |&eid| self.edges[eid.index()].as_ref())
    }

    /// Ids of a node's outgoing live edges.
    pub fn out_edge_ids(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges[n.index()]
            .iter()
            .copied()
            .filter(move |&eid| self.edges[eid.index()].is_some())
    }

    /// Incoming live edges of a node.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges[n.index()]
            .iter()
            .filter_map(move |&eid| self.edges[eid.index()].as_ref())
    }

    /// Successors across every edge kind (all impose precedence).
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(|e| e.dst())
    }

    /// Predecessors across every edge kind.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n).map(|e| e.src())
    }

    /// Data-only predecessors (operands).
    pub fn data_preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n)
            .filter(|e| e.kind().carries_data())
            .map(|e| e.src())
    }

    /// Data-only successors (consumers).
    pub fn data_succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n)
            .filter(|e| e.kind().carries_data())
            .map(|e| e.dst())
    }

    /// Number of incoming precedence edges.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_edges(n).count()
    }

    /// Number of outgoing precedence edges.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_edges(n).count()
    }

    /// Number of distinct data values ("variables" in the paper's Table II):
    /// one per node that produces a value consumed by at least one data edge,
    /// plus primary inputs.
    pub fn variable_count(&self) -> usize {
        self.node_ids()
            .filter(|&n| self.kind(n) == OpKind::Input || self.data_succs(n).next().is_some())
            .count()
    }

    /// Topological order over live edges.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::Cyclic`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, CdfgError> {
        crate::topo::topo_order(self).map_err(|_| CdfgError::Cyclic)
    }

    /// Validates structural invariants: acyclicity and data-operand arity.
    ///
    /// # Errors
    ///
    /// [`CdfgError::Cyclic`] or [`CdfgError::ArityMismatch`].
    pub fn validate(&self) -> Result<(), CdfgError> {
        self.topo_order()?;
        for n in self.node_ids() {
            let found = self.data_preds(n).count();
            if let Some(expected) = self.kind(n).arity() {
                if found != expected {
                    return Err(CdfgError::ArityMismatch {
                        node: n,
                        expected,
                        found,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Cdfg, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Neg);
        let d = g.add_node(OpKind::Add);
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(c, d).unwrap();
        (g, a, b, c, d)
    }

    #[test]
    fn counts_and_degrees() {
        let (g, a, _, _, d) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.op_count(), 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Add);
        assert_eq!(g.add_data_edge(a, a), Err(CdfgError::SelfLoop(a)));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Add);
        let ghost = NodeId::from_index(99);
        assert_eq!(
            g.add_data_edge(a, ghost),
            Err(CdfgError::UnknownNode(ghost))
        );
    }

    #[test]
    fn reachability() {
        let (g, a, b, _, d) = diamond();
        assert!(g.reaches(a, d));
        assert!(g.reaches(b, d));
        assert!(!g.reaches(d, a));
    }

    #[test]
    fn acyclic_insertion_rejects_back_edge() {
        let (mut g, a, _, _, d) = diamond();
        let err = g.add_edge_acyclic(EdgeKind::Temporal, d, a).unwrap_err();
        assert_eq!(err, CdfgError::WouldCycle { src: d, dst: a });
        // Forward temporal edge is fine.
        assert!(g.add_edge_acyclic(EdgeKind::Temporal, a, d).is_ok());
    }

    #[test]
    fn remove_edge_tombstones() {
        let (mut g, a, b, _, _) = diamond();
        let eid = g
            .edge_ids()
            .find(|&e| {
                let edge = g.edge(e).unwrap();
                edge.src() == a && edge.dst() == b
            })
            .unwrap();
        let removed = g.remove_edge(eid).unwrap();
        assert_eq!(removed.src(), a);
        assert_eq!(g.edge(eid), None);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.remove_edge(eid), Err(CdfgError::UnknownEdge(eid)));
    }

    #[test]
    fn strip_temporal_edges_removes_only_temporal() {
        let (mut g, a, b, c, d) = diamond();
        g.add_temporal_edge(b, c).unwrap();
        g.add_temporal_edge(a, d).unwrap();
        assert_eq!(g.strip_temporal_edges(), 2);
        assert_eq!(g.edge_count(), 4);
        assert!(g.edges().all(|e| e.kind() == EdgeKind::Data));
    }

    #[test]
    fn named_nodes_resolve() {
        let mut g = Cdfg::new();
        let a = g.add_named_node(OpKind::Add, "A1");
        assert_eq!(g.node_by_name("A1"), Some(a));
        assert_eq!(g.node_name(a), Some("A1"));
        let sym = g.node(a).unwrap().name_sym().expect("named");
        assert_eq!(g.sym_str(sym), "A1");
        assert!(g.try_add_named_node(OpKind::Add, "A1").is_err());
    }

    #[test]
    fn validate_checks_arity() {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let add = g.add_node(OpKind::Add);
        g.add_data_edge(a, add).unwrap();
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            CdfgError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
        let b = g.add_node(OpKind::Input);
        g.add_data_edge(b, add).unwrap();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn variable_count_counts_value_producers() {
        let (g, ..) = diamond();
        // a, b, c produce consumed values; d's output is unconsumed.
        assert_eq!(g.variable_count(), 3);
    }

    #[test]
    fn temporal_edges_do_not_affect_arity() {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::Input);
        let b = g.add_node(OpKind::Input);
        let add = g.add_node(OpKind::Add);
        g.add_data_edge(a, add).unwrap();
        g.add_data_edge(b, add).unwrap();
        let x = g.add_node(OpKind::Not);
        g.add_data_edge(a, x).unwrap();
        g.add_temporal_edge(x, add).unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(g.data_preds(add).count(), 2);
        assert_eq!(g.preds(add).count(), 3);
    }
}
