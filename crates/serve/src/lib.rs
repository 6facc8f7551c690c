//! `localwm-serve`: a concurrent analysis service over the localwm engine.
//!
//! A std-only TCP server speaking a JSON-lines protocol (one request
//! object per line, one response object per line; see [`protocol`]).
//! Request kinds: `embed`, `detect`, `analyze`, `timing`, `stats`,
//! `shutdown` (`cluster_stats` is part of the shared protocol but
//! answered by `localwm-gateway`; a single backend rejects it with a
//! typed error).
//!
//! The moving parts:
//!
//! * [`queue::BoundedQueue`] — bounded MPMC job queue with explicit
//!   backpressure (typed `overloaded` error when full; the acceptor never
//!   blocks).
//! * [`cache::ContextCache`] — content-hash-keyed LRU of shared
//!   [`DesignContext`](localwm_engine::DesignContext)s with hit/miss/
//!   eviction counters, optionally backed by a durable write-through
//!   [`localwm_store::DesignStore`] (`--store-dir`): a cache miss checks
//!   the store before parsing, so a restarted server answers its working
//!   set without reparsing a single design.
//! * [`metrics::Metrics`] — per-kind latency histograms and counters,
//!   surfaced by the `stats` request and `--metrics-out`.
//! * [`server`] — acceptor, worker pool, deadline watchdog, graceful
//!   drain-on-shutdown.
//! * [`session::SessionState`] — interactive sessions (`open` / `mutate` /
//!   `close`): a held design mutated by edit scripts and re-analyzed
//!   incrementally (dirty-cone patching in the engine), with responses
//!   byte-identical to from-scratch requests. Sessions are answered inline
//!   on the connection thread (strict per-connection ordering), excluded
//!   from single-flight coalescing, idle-evicted by the watchdog, and
//!   closed by drain.
//! * [`client::Client`] — the blocking client used by `localwm request`,
//!   the integration tests, and the load bench.
//! * [`fault`] — seeded, deterministic fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]); the seams in [`server`] fire only when the crate
//!   is built with the `fault-inject` feature. `localwm-testkit` drives
//!   this for chaos and differential testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bufpool;
pub mod cache;
pub mod client;
pub mod fault;
pub mod handlers;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;
pub mod singleflight;

pub use cache::{CacheStats, ContextCache};
pub use client::Client;
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultSpec, FiredFault, InjectionPoint};
pub use metrics::{Metrics, Outcome};
pub use protocol::{
    line_too_long, linger_close, read_request_line, ErrorCode, LineRead, Request, RequestKind,
    Response, ServiceError, MAX_LINE_BYTES,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{start, ServeConfig, ServerHandle};
pub use session::SessionState;
