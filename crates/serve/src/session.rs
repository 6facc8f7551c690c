//! Interactive design sessions: a held, incrementally re-analyzed design.
//!
//! `open` parses a design once into a [`DesignContext`]; `mutate` applies
//! an *edit script* through the context's recording editor so derived
//! analyses are dirty-cone patched instead of recomputed; `timing` and
//! `analyze` requests carrying the session id answer from the held state.
//! The contract is strict: a session's `timing`/`analyze` response is
//! **byte-identical** to re-sending the session's current design text as a
//! from-scratch request — incrementality changes the cost, never the
//! answer. The differential oracle in `localwm-testkit` replays every edit
//! trace both ways and asserts exactly that, typed errors included.
//!
//! # Edit-script grammar
//!
//! One edit per line; blank lines and `#` comments are skipped:
//!
//! ```text
//! add-node <name> <kind>            # kind is an OpKind mnemonic (add, mul, …)
//! set-literal <name> <value>
//! add-edge <data|ctrl|temp> <src> <dst>
//! remove-edge <data|ctrl|temp> <src> <dst>
//! ```
//!
//! Scripts apply transactionally *per line*: the first failing line stops
//! the script with a typed `bad_request` carrying the offending line and an
//! `applied` count; earlier lines stay applied (the response's `applied`
//! field tells the client exactly how far it got).

use localwm_cdfg::{parse_cdfg, EdgeKind, NodeId, OpKind};
use localwm_engine::{DesignContext, DesignEditor, Parallelism};
use localwm_timing::CriticalityCache;
use serde::{object, Serialize, Value};

use crate::handlers::{self, bad_request, HandlerResult};
use crate::protocol::{Request, ServiceError};

/// One held session: the design context plus the incremental Monte-Carlo
/// state, both surviving across mutations.
pub struct SessionState {
    ctx: DesignContext,
    crit: CriticalityCache,
    mutations: u64,
}

impl SessionState {
    /// Opens a session by parsing the design text.
    ///
    /// # Errors
    ///
    /// Typed `bad_request` for unparseable designs.
    pub fn open(design: &str) -> Result<SessionState, ServiceError> {
        let g = parse_cdfg(design).map_err(|e| bad_request(format!("bad design: {e}")))?;
        Ok(SessionState {
            ctx: DesignContext::new(g),
            crit: CriticalityCache::new(),
            mutations: 0,
        })
    }

    /// The `open` response body: `{session, nodes, edges}`.
    pub fn describe(&self, session: &str) -> Value {
        object(vec![
            ("session", session.to_value()),
            ("nodes", self.ctx.graph().node_count().to_value()),
            ("edges", self.ctx.graph().edge_count().to_value()),
        ])
    }

    /// The `close` response body: `{session, mutations}`.
    pub fn close(self, session: &str) -> Value {
        object(vec![
            ("session", session.to_value()),
            ("mutations", self.mutations.to_value()),
        ])
    }

    /// Applies an edit script; returns `{session, applied, nodes, edges}`.
    ///
    /// # Errors
    ///
    /// Typed `bad_request` naming the first failing line, with an
    /// `applied` detail for the retained prefix.
    pub fn mutate(&mut self, session: &str, edits: &str) -> HandlerResult {
        self.mutations += 1;
        let outcome = self.ctx.mutate(|ed| apply_script(ed, edits));
        let applied = match outcome {
            Ok(n) => n,
            Err((n, e)) => {
                return Err(e.with_detail("applied", n.to_value()));
            }
        };
        Ok(object(vec![
            ("session", session.to_value()),
            ("applied", applied.to_value()),
            ("nodes", self.ctx.graph().node_count().to_value()),
            ("edges", self.ctx.graph().edge_count().to_value()),
        ]))
    }

    /// Answers a `timing` request from the held context.
    ///
    /// # Errors
    ///
    /// Same as the from-scratch `timing` handler.
    pub fn timing(&self, req: &Request) -> HandlerResult {
        handlers::timing_body(&self.ctx, req)
    }

    /// Answers an `analyze` request from the held context, reusing the
    /// incremental criticality capture across mutations.
    ///
    /// # Errors
    ///
    /// Same as the from-scratch `analyze` handler.
    pub fn analyze(&mut self, req: &Request, par: Parallelism) -> HandlerResult {
        let samples = handlers::samples(req)?;
        let model = handlers::bounds(&self.ctx, req)?;
        let seed = req.seed.unwrap_or(0);
        let report = self
            .crit
            .criticality_in(&self.ctx, &model, samples, seed, par);
        handlers::analyze_body(&self.ctx, req, &report)
    }

    /// The held design's current node count (for stats/tests).
    pub fn node_count(&self) -> usize {
        self.ctx.graph().node_count()
    }

    /// Mutations applied so far.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }
}

/// Applies every line of the script; `Err((applied, error))` stops at the
/// first failing line with the count of lines already applied.
fn apply_script(ed: &mut DesignEditor, edits: &str) -> Result<usize, (usize, ServiceError)> {
    let mut applied = 0usize;
    for (ln, raw) in edits.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        apply_line(ed, line)
            .map_err(|msg| (applied, bad_request(format!("edit line {}: {msg}", ln + 1))))?;
        applied += 1;
    }
    Ok(applied)
}

fn edge_kind(tok: &str) -> Result<EdgeKind, String> {
    match tok {
        "data" => Ok(EdgeKind::Data),
        "ctrl" => Ok(EdgeKind::Control),
        "temp" => Ok(EdgeKind::Temporal),
        other => Err(format!("unknown edge kind `{other}` (data|ctrl|temp)")),
    }
}

fn node_ref(ed: &DesignEditor, name: &str) -> Result<NodeId, String> {
    ed.node_by_name(name)
        .ok_or_else(|| format!("unknown node `{name}`"))
}

fn apply_line(ed: &mut DesignEditor, line: &str) -> Result<(), String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["add-node", name, kind] => {
            let kind: OpKind = kind.parse().map_err(|e| format!("{e}"))?;
            ed.try_add_named_node(kind, *name)
                .map_err(|e| e.to_string())?;
            Ok(())
        }
        ["set-literal", name, value] => {
            let id = node_ref(ed, name)?;
            let value: i64 = value
                .parse()
                .map_err(|_| format!("bad literal value `{value}`"))?;
            ed.set_literal(id, value);
            Ok(())
        }
        ["add-edge", kind, src, dst] => {
            let kind = edge_kind(kind)?;
            let s = node_ref(ed, src)?;
            let d = node_ref(ed, dst)?;
            ed.add_edge_acyclic(kind, s, d).map_err(|e| e.to_string())?;
            Ok(())
        }
        ["remove-edge", kind_tok, src, dst] => {
            let kind = edge_kind(kind_tok)?;
            let s = node_ref(ed, src)?;
            let d = node_ref(ed, dst)?;
            // The lowest-id live match, looked up among the source's
            // out-edges instead of every edge in the graph.
            let id = ed
                .out_edge_ids(s)
                .filter(|&e| ed.edge(e).is_some_and(|x| x.kind() == kind && x.dst() == d))
                .min()
                .ok_or_else(|| format!("no live {kind_tok} edge {src} -> {dst}"))?;
            ed.remove_edge(id).map_err(|e| e.to_string())?;
            Ok(())
        }
        _ => Err(format!(
            "unrecognized edit `{line}` (add-node|set-literal|add-edge|remove-edge)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ContextCache;
    use crate::protocol::{ErrorCode, RequestKind};
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::write_cdfg;

    fn open_iir4() -> SessionState {
        SessionState::open(&write_cdfg(&iir4_parallel())).expect("valid design")
    }

    #[test]
    fn open_mutate_close_bodies_are_deterministic() {
        let mut s = open_iir4();
        let d = s.describe("s-1");
        assert_eq!(d.field("session"), Some(&Value::Str("s-1".to_owned())));
        let nodes0 = s.node_count();
        let body = s
            .mutate("s-1", "add-node t9 not\nadd-edge data A9 t9\n")
            .expect("valid script");
        assert_eq!(body.field("applied"), Some(&Value::Int(2)));
        assert_eq!(s.node_count(), nodes0 + 1);
        let closed = s.close("s-1");
        assert_eq!(closed.field("mutations"), Some(&Value::Int(1)));
    }

    #[test]
    fn session_analysis_matches_from_scratch_byte_for_byte() {
        let mut s = open_iir4();
        // Ends in a state the text format can round-trip (data-edge arity
        // is validated by the parser), while still exercising node
        // addition, edge addition, and edge removal.
        s.mutate(
            "s",
            "add-node t9 not\nadd-edge data A9 t9\nadd-edge temp A2 A6\nremove-edge temp A2 A6\nadd-edge temp A1 A5\n",
        )
        .expect("valid script");

        // Re-derive the session's current design text and ask the stock
        // handlers: both paths must produce identical result objects.
        let current = write_cdfg_current(&s);
        let cache = ContextCache::new(2);
        for kind in [RequestKind::Timing, RequestKind::Analyze] {
            let mut req = Request::new(kind);
            req.design = Some(current.clone());
            req.samples = Some(64);
            req.seed = Some(7);
            let scratch = handlers::execute(&cache, &req).expect("scratch path");
            let held = match kind {
                RequestKind::Timing => s.timing(&req).expect("session timing"),
                _ => s
                    .analyze(&req, Parallelism::Serial)
                    .expect("session analyze"),
            };
            assert_eq!(
                serde_json::to_string(&held).unwrap(),
                serde_json::to_string(&scratch).unwrap(),
                "{kind} diverged between session and scratch"
            );
        }
    }

    fn write_cdfg_current(s: &SessionState) -> String {
        localwm_cdfg::write_cdfg(s.ctx.graph())
    }

    #[test]
    fn failing_line_reports_position_and_retained_prefix() {
        let mut s = open_iir4();
        let nodes0 = s.node_count();
        let err = s
            .mutate("s", "add-node ok1 not\nadd-edge data nope ok1\n")
            .expect_err("unknown node must fail");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("edit line 2"), "{}", err.message);
        assert_eq!(
            err.details.iter().find(|(k, _)| k == "applied"),
            Some(&("applied".to_owned(), Value::Int(1)))
        );
        // The prefix stayed applied.
        assert_eq!(s.node_count(), nodes0 + 1);
    }

    #[test]
    fn cycles_and_duplicates_are_typed_errors() {
        let mut s = open_iir4();
        let err = s
            .mutate("s", "add-edge temp A9 A1\n")
            .expect_err("back edge must cycle");
        assert_eq!(err.code, ErrorCode::BadRequest);
        let err = s
            .mutate("s", "add-node A9 not\n")
            .expect_err("duplicate name");
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn remove_edge_takes_the_lowest_id_live_match() {
        let mut s = open_iir4();
        s.mutate(
            "s",
            "add-edge temp A1 A5\nadd-edge ctrl A1 A5\nadd-edge temp A1 A5\n",
        )
        .expect("valid script");
        let (a1, a5) = (
            s.ctx.node_by_name("A1").unwrap(),
            s.ctx.node_by_name("A5").unwrap(),
        );
        let temps = |s: &SessionState| -> Vec<localwm_cdfg::EdgeId> {
            s.ctx
                .edge_ids()
                .filter(|&e| {
                    let x = s.ctx.edge(e).unwrap();
                    x.kind() == EdgeKind::Temporal && x.src() == a1 && x.dst() == a5
                })
                .collect()
        };
        let before = temps(&s);
        assert_eq!(before.len(), 2);
        s.mutate("s", "remove-edge temp A1 A5\n")
            .expect("live edge");
        assert_eq!(temps(&s), vec![before[1]]);
        s.mutate("s", "remove-edge temp A1 A5\n")
            .expect("live edge");
        let err = s
            .mutate("s", "remove-edge temp A1 A5\n")
            .expect_err("no temp edge left");
        assert_eq!(err.message, "edit line 1: no live temp edge A1 -> A5");
        // The control edge between the same pair is untouched.
        s.mutate("s", "remove-edge ctrl A1 A5\n")
            .expect("live edge");
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let mut s = open_iir4();
        let body = s
            .mutate("s", "# nothing\n\n  \nadd-node t1 not\n")
            .expect("valid");
        assert_eq!(body.field("applied"), Some(&Value::Int(1)));
    }
}
