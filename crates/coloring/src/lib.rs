//! Local watermarking of graph-coloring solutions.
//!
//! The paper introduces local watermarks as a *generic* IPP paradigm and
//! illustrates it with graph coloring: "while uniquely marking a solution
//! to graph coloring, a local watermark is embedded in a random subgraph"
//! (§III). This crate is that instance, end to end:
//!
//! * [`UGraph`] — a simple undirected graph with a `G(n, p)` generator.
//! * [`greedy_coloring`] — the off-the-shelf optimizer (largest-degree-
//!   first greedy colorer).
//! * [`ColoringWatermarker`] — the protocol: a signature-selected locality
//!   (BFS subgraph), signature-selected *must-differ* constraints between
//!   non-adjacent vertex pairs inside it, embedding by coloring the
//!   constraint-augmented graph, and constraint-verification detection.
//!
//! # Example
//!
//! ```
//! use localwm_coloring::{ColoringConfig, ColoringWatermarker, UGraph};
//! use localwm_prng::Signature;
//!
//! let g = UGraph::random(200, 0.06, 7);
//! let sig = Signature::from_author("alice");
//! let wm = ColoringWatermarker::new(ColoringConfig::default());
//! let emb = wm.embed(&g, &sig)?;
//! let ev = wm.detect(&emb.coloring, &g, &sig)?;
//! assert!(ev.is_match());
//! # Ok::<(), localwm_coloring::ColoringWmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod color;
mod graph;
mod wm;

pub use attack::perturb_coloring_with;
pub use color::{greedy_coloring, validate_coloring, Coloring};
pub use graph::UGraph;
pub use wm::{
    ColoringConfig, ColoringEmbedding, ColoringEvidence, ColoringWatermarker, ColoringWmError,
};
