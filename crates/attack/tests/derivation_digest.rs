//! Pins every watermark answer the attack layer builds on — embed edges
//! and schedules, detect evidence, strength reports and single attack
//! cells — to one FNV-1a digest over a seeded design grid, under both
//! serial and fanned-out derivation. Typed errors are hashed too, so a
//! change to which requests fail, or how, moves the digest as surely as a
//! changed edge.
//!
//! The grid is 100 seeded layered designs of 30–330 ops (the
//! `watermark-batch` generator's parameters) plus four MediaBench
//! stand-ins, under the default configuration and a quarter-of-the-ops
//! fraction, each embedded by its author and by a rival.

use std::sync::Arc;

use localwm_attack::{
    attack_once_in, strength_report_in, AttackConfig, AttackKind, StrengthConfig,
};
use localwm_cdfg::generators::{layered, mediabench, mediabench_apps, LayeredConfig};
use localwm_cdfg::Cdfg;
use localwm_core::{SchedWmConfig, SchedulingWatermarker};
use localwm_engine::{DesignContext, Parallelism, RecordingProbe};
use localwm_prng::{Signature, SplitMix64};
use localwm_sched::{list_schedule, write_schedule, ResourceSet};
use serde::Serialize;

/// The digest of the whole grid, computed before derivations were shared
/// within a request and localities prepared on demand. Every answer it
/// covers is specified to be byte-stable, so it is never re-blessed for a
/// speed change.
const GRID_DIGEST: u64 = 0x0043_d9ec_2bf7_a524;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A field separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

/// `lwm-bench`'s layered generator: `layers ≈ 1.2·√ops`, 16 inputs,
/// locality 4.
fn layered_design(ops: usize, seed: u64) -> Cdfg {
    let layers = ((ops as f64).sqrt() * 1.2).round() as usize;
    layered(&LayeredConfig {
        ops,
        layers: layers.clamp(4, ops),
        inputs: 16,
        locality: 4,
        seed,
        ..LayeredConfig::default()
    })
}

fn designs() -> Vec<Cdfg> {
    let mut rng = SplitMix64::new(0x5EED_0016);
    let mut out: Vec<Cdfg> = (0..100)
        .map(|i| layered_design(30 + 300 * i / 99, rng.next_u64()))
        .collect();
    out.extend(mediabench_apps()[..4].iter().map(|app| mediabench(app, 0)));
    out
}

fn configs() -> [SchedWmConfig; 2] {
    [
        SchedWmConfig::default(),
        SchedWmConfig::with_node_fraction(0.25),
    ]
}

/// Hashes one (design, config) cell of the grid: both signers' embeds,
/// detects of the author's schedule, strength reports and one attack
/// cell per kind, and checks each embed prepares at most `max_attempts`
/// localities.
fn hash_cell(h: &mut Fnv, di: usize, g: &Cdfg, cfg: &SchedWmConfig, par: Parallelism) {
    let wm = SchedulingWatermarker::new(cfg.clone());
    let probe = Arc::new(RecordingProbe::new());
    let ctx = DesignContext::from(g).with_probe(probe.clone());
    let signers = [
        Signature::from_author(&format!("author-{di}")),
        Signature::from_author(&format!("rival-{di}")),
    ];

    // The schedule both signers are checked against: the author's
    // embedded one, or a plain schedule when the author cannot embed.
    let suspect = match wm.embed_in(&ctx, &signers[0], par) {
        Ok(emb) => emb.schedule,
        Err(_) => list_schedule(g, &ResourceSet::unlimited(), None).unwrap(),
    };

    for (si, sig) in signers.iter().enumerate() {
        let before = probe.counter_value("core.sched_wm.attempts");
        match wm.embed_in(&ctx, sig, par) {
            Ok(emb) => {
                for &(s, d) in &emb.edges {
                    h.bytes(&s.index().to_le_bytes());
                    h.bytes(&d.index().to_le_bytes());
                }
                h.str(&write_schedule(&emb.marked, &emb.schedule));
            }
            Err(e) => h.str(&format!("embed error {e:?}")),
        }
        let attempts = probe.counter_value("core.sched_wm.attempts") - before;
        assert!(
            attempts <= cfg.max_attempts as u64,
            "design {di}: {attempts} attempts prepared, cap {}",
            cfg.max_attempts
        );

        match wm.detect_in(&suspect, &ctx, sig, par) {
            Ok(ev) => {
                for &(s, d, ok) in &ev.checks {
                    h.bytes(&s.index().to_le_bytes());
                    h.bytes(&d.index().to_le_bytes());
                    h.bytes(&[u8::from(ok)]);
                }
                for &c in &ev.chances {
                    h.f64(c);
                }
                h.f64(ev.log10_pc);
            }
            Err(e) => h.str(&format!("detect error {e:?}")),
        }

        let scfg = StrengthConfig {
            budgets: vec![0.0, 0.3],
            seed: (di * 2 + si) as u64,
            wm: cfg.clone(),
        };
        match strength_report_in(&ctx, sig, par, &scfg) {
            Ok(report) => h.str(&serde_json::to_string(&report.to_value()).unwrap()),
            Err(e) => h.str(&format!("strength error {e:?}")),
        }

        for kind in AttackKind::ALL {
            let acfg = AttackConfig {
                kind,
                budget: 0.3,
                seed: (di * 8 + si * 4 + kind.index()) as u64,
            };
            match attack_once_in(&ctx, sig, par, &acfg, cfg) {
                Ok(run) => {
                    h.str(&serde_json::to_string(&run.cell.to_value()).unwrap());
                    h.bytes(&run.baseline_length.to_le_bytes());
                    h.bytes(&run.wm_edges.to_le_bytes());
                    h.str(&write_schedule(&run.outcome.graph, &run.outcome.schedule));
                }
                Err(e) => h.str(&format!("attack error {e:?}")),
            }
        }
    }
}

fn grid_digest(par: Parallelism) -> u64 {
    let mut h = Fnv::new();
    for (di, g) in designs().iter().enumerate() {
        for cfg in &configs() {
            hash_cell(&mut h, di, g, cfg, par);
        }
    }
    h.0
}

#[test]
fn serial_derivations_match_the_pinned_digest() {
    let digest = grid_digest(Parallelism::Serial);
    assert_eq!(digest, GRID_DIGEST, "serial grid digest {digest:#018x}");
}

#[test]
fn fanned_out_derivations_match_the_pinned_digest() {
    let digest = grid_digest(Parallelism::Threads(3));
    assert_eq!(digest, GRID_DIGEST, "Threads(3) grid digest {digest:#018x}");
}
