//! The system under test, started in-process on loopback with the shipped
//! defaults (`ServeConfig::default()`, `GatewayConfig::default()`), apart
//! from the bind address and, where the workload says so, a store
//! directory — plus the `stats` snapshots whose differences over a phase
//! give the per-layer counts, and the probe that prices the gateway hop.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use localwm_cdfg::parse_cdfg;
use localwm_engine::DesignContext;
use localwm_gateway::{rendezvous, BackendSpec, GatewayConfig, GatewayHandle};
use localwm_serve::{Client, Request, RequestKind, ServeConfig, ServerHandle};
use serde::Value;

use crate::harness::us;
use crate::wire::Wire;
use crate::workload::{Plan, UnitSpec, Workload};

/// Backends behind the gateway in the gateway workloads.
pub const GATEWAY_BACKENDS: usize = 2;

/// The names the gateway knows its backends by; its rendezvous ranking of
/// a shard key depends on them.
pub fn backend_names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("b{i}")).collect()
}

/// A running fleet: one backend, or a gateway over two.
pub struct Fleet {
    backends: Vec<ServerHandle>,
    names: Vec<String>,
    gateway: Option<GatewayHandle>,
    dir: PathBuf,
    /// Where load connects: the gateway, or the only backend.
    pub target: String,
}

impl Fleet {
    /// Starts the fleet `workload` runs against; store directories go
    /// under `dir`, which [`Fleet::stop`] removes.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-open errors.
    pub fn start(workload: Workload, dir: &Path) -> io::Result<Fleet> {
        let count = if workload.via_gateway() {
            GATEWAY_BACKENDS
        } else {
            1
        };
        let mut backends = Vec::with_capacity(count);
        for i in 0..count {
            let store_dir = workload.store().then(|| {
                dir.join(format!("store-{i}"))
                    .to_string_lossy()
                    .into_owned()
            });
            backends.push(localwm_serve::start(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                store_dir,
                ..ServeConfig::default()
            })?);
        }
        let names = backend_names(count);
        let gateway = if workload.via_gateway() {
            Some(localwm_gateway::start(GatewayConfig {
                addr: "127.0.0.1:0".to_owned(),
                backends: backends
                    .iter()
                    .zip(&names)
                    .map(|(b, name)| BackendSpec {
                        name: name.clone(),
                        addr: b.addr().to_string(),
                    })
                    .collect(),
                ..GatewayConfig::default()
            })?)
        } else {
            None
        };
        let target = match &gateway {
            Some(g) => g.addr().to_string(),
            None => backends[0].addr().to_string(),
        };
        Ok(Fleet {
            backends,
            names,
            gateway,
            dir: dir.to_path_buf(),
            target,
        })
    }

    /// Whether load goes through a gateway.
    pub fn has_gateway(&self) -> bool {
        self.gateway.is_some()
    }

    /// The backend the gateway routes shard `key` to while every backend
    /// is healthy (the top of the rendezvous ranking).
    pub fn owner(&self, key: u64) -> String {
        self.backends[rendezvous::rank(key, &self.names)[0]]
            .addr()
            .to_string()
    }

    /// Round-trip difference (µs) between sending a request through the
    /// gateway and sending it straight to the backend the gateway routes
    /// it to, for `pairs` units (every 16th of client 0's stream; on
    /// sessions, `timing` queries on a probe session), lockstep on the
    /// calling thread, alternating which side goes first.
    ///
    /// # Errors
    ///
    /// Socket errors or a refused request.
    pub fn gateway_hop(&self, plan: &Plan, pairs: u64) -> Result<Vec<f64>, String> {
        let io = |e: io::Error| format!("gateway hop probe: {e}");
        let rtt = |w: &mut Wire, line: &str| -> Result<f64, String> {
            let start = Instant::now();
            w.send(line.as_bytes()).map_err(io)?;
            let resp = w
                .recv(None)
                .map_err(io)?
                .expect("blocking recv returns a line");
            if !resp.contains("\"ok\":true") {
                return Err(format!("gateway hop probe answered {resp:.120}"));
            }
            Ok(us(start.elapsed()))
        };
        let line_of = |req: Request| req.to_line() + "\n";
        let mut via = Wire::connect(&self.target).map_err(io)?;
        let session = "hop-probe".to_owned();
        if !plan.traces.is_empty() {
            let mut open = plan.session_request(0, RequestKind::Open);
            open.session = Some(session.clone());
            rtt(&mut via, &line_of(open))?;
        }
        let mut direct: Vec<(String, Wire)> = Vec::new();
        let mut out = Vec::new();
        for i in 0..pairs {
            let (line, key) = if plan.traces.is_empty() {
                let UnitSpec::Query { design, analyze } = plan.unit(0, i * 16) else {
                    unreachable!("gateway workloads without traces send queries")
                };
                let graph = parse_cdfg(&plan.designs[design]).expect("generated designs parse");
                let key = DesignContext::new(graph).content_hash();
                (line_of(plan.query(design, analyze)), key)
            } else {
                let mut req = Request::new(RequestKind::Timing);
                req.session = Some(session.clone());
                (line_of(req), rendezvous::fnv1a(session.as_bytes()))
            };
            let owner = self.owner(key);
            let slot = match direct.iter().position(|(a, _)| *a == owner) {
                Some(s) => s,
                None => {
                    direct.push((owner.clone(), Wire::connect(&owner).map_err(io)?));
                    direct.len() - 1
                }
            };
            let d = &mut direct[slot].1;
            let (g, t) = if i % 2 == 0 {
                let g = rtt(&mut via, &line)?;
                (g, rtt(d, &line)?)
            } else {
                let t = rtt(d, &line)?;
                (rtt(&mut via, &line)?, t)
            };
            out.push(g - t);
        }
        Ok(out)
    }

    /// Every server's `stats` answer.
    ///
    /// # Errors
    ///
    /// Socket errors or a refused `stats`.
    pub fn snapshot(&self) -> Result<Snapshot, String> {
        let backends = self
            .backends
            .iter()
            .map(|b| stats(&b.addr().to_string()))
            .collect::<Result<_, _>>()?;
        let gateway = match &self.gateway {
            Some(g) => Some(stats(&g.addr().to_string())?),
            None => None,
        };
        Ok(Snapshot { backends, gateway })
    }

    /// Drains and stops every server, then removes the store directories.
    pub fn stop(self) {
        if let Some(g) = self.gateway {
            g.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stats(addr: &str) -> Result<Value, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect {addr}: {e}"))?;
    let resp = c
        .call(&Request::new(RequestKind::Stats))
        .map_err(|e| format!("stats {addr}: {e}"))?;
    match (resp.ok, resp.result) {
        (true, Some(v)) => Ok(v),
        _ => Err(format!("stats {addr} refused: {:?}", resp.error)),
    }
}

/// `stats` answers of every server at one instant.
pub struct Snapshot {
    backends: Vec<Value>,
    gateway: Option<Value>,
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for name in path {
        match cur.field(name) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    }
}

/// Request kinds that carry work (not admin kinds).
const DATA_KINDS: [RequestKind; 9] = [
    RequestKind::Embed,
    RequestKind::Detect,
    RequestKind::Analyze,
    RequestKind::Timing,
    RequestKind::Open,
    RequestKind::Mutate,
    RequestKind::Close,
    RequestKind::Attack,
    RequestKind::Strength,
];

/// Counter differences over a phase, summed over backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Data requests the backends answered.
    pub requests: f64,
    /// Their summed dispatch-to-response time, µs.
    pub total_us: f64,
    /// Requests refused with `overloaded`.
    pub rejected: f64,
    /// Context-cache hits, misses and evictions.
    pub cache_hits: f64,
    /// See `cache_hits`.
    pub cache_misses: f64,
    /// See `cache_hits`.
    pub evictions: f64,
    /// Requests answered by joining an identical in-flight one.
    pub coalesced: f64,
    /// Requests executed.
    pub executed: f64,
    /// Design-store lookups that found the design, and that did not.
    pub store_hits: f64,
    /// See `store_hits`.
    pub store_misses: f64,
    /// Designs written to the store.
    pub store_puts: f64,
    /// Engine pool jobs and steals (the pool is process-wide).
    pub pool_jobs: f64,
    /// See `pool_jobs`.
    pub pool_steals: f64,
    /// Gateway routing counters.
    pub routed: f64,
    /// See `routed`.
    pub retries: f64,
    /// See `routed`.
    pub failovers: f64,
}

impl Snapshot {
    /// Counter differences from `self` to `after`.
    pub fn delta(&self, after: &Snapshot) -> Delta {
        let sum = |path: &[&str]| -> f64 {
            after
                .backends
                .iter()
                .zip(&self.backends)
                .map(|(a, b)| num(a, path) - num(b, path))
                .sum()
        };
        let mut d = Delta {
            rejected: sum(&["queue", "rejected"]),
            cache_hits: sum(&["cache", "hits"]),
            cache_misses: sum(&["cache", "misses"]),
            evictions: sum(&["cache", "evictions"]),
            coalesced: sum(&["coalesced"]),
            executed: sum(&["executed"]),
            store_hits: sum(&["store", "hits"]),
            store_misses: sum(&["store", "misses"]),
            store_puts: sum(&["store", "puts"]),
            pool_jobs: num(&after.backends[0], &["pool", "jobs"])
                - num(&self.backends[0], &["pool", "jobs"]),
            pool_steals: num(&after.backends[0], &["pool", "steals"])
                - num(&self.backends[0], &["pool", "steals"]),
            ..Delta::default()
        };
        for kind in DATA_KINDS {
            d.requests += sum(&["requests", kind.as_str(), "count"]);
            d.total_us += sum(&["requests", kind.as_str(), "total_us"]);
        }
        if let (Some(b), Some(a)) = (&self.gateway, &after.gateway) {
            d.routed = num(a, &["routed"]) - num(b, &["routed"]);
            d.retries = num(a, &["retries"]) - num(b, &["retries"]);
            d.failovers = num(a, &["failovers"]) - num(b, &["failovers"]);
        }
        d
    }
}
