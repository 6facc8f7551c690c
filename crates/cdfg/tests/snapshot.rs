//! Binary snapshot round-trips ([`Cdfg::to_snapshot`] /
//! [`Cdfg::from_snapshot`]) over seeded generated graphs, and the decoder's
//! behaviour on hostile bytes.

use localwm_cdfg::designs::iir4_parallel;
use localwm_cdfg::generators::{layered, mediabench, mediabench_apps, random_dag, LayeredConfig};
use localwm_cdfg::{write_cdfg, Cdfg, EdgeKind, NodeId, OpKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Everything a snapshot must carry, in comparable form: canonical text,
/// every node's name and literal, and every live edge under its id.
#[allow(clippy::type_complexity)]
fn fingerprint(
    g: &Cdfg,
) -> (
    String,
    Vec<Option<String>>,
    Vec<Option<i64>>,
    Vec<(usize, usize, usize, EdgeKind)>,
) {
    let names = g
        .node_ids()
        .map(|n| g.node_name(n).map(str::to_owned))
        .collect();
    let literals = g.node_ids().map(|n| g.node(n).unwrap().literal()).collect();
    let edges = g
        .edge_ids()
        .map(|id| {
            let e = g.edge(id).unwrap();
            (id.index(), e.src().index(), e.dst().index(), e.kind())
        })
        .collect();
    (write_cdfg(g), names, literals, edges)
}

/// A valid graph decodes to the identical graph (and re-encodes to the
/// identical bytes, which pins the removed-slot count too); an invalid one
/// is refused with the error `validate` reports.
fn check_round_trip(g: &Cdfg) -> Result<(), TestCaseError> {
    let bytes = g.to_snapshot();
    match g.validate() {
        Ok(()) => {
            let back = Cdfg::from_snapshot(&bytes).expect("a valid graph decodes");
            prop_assert_eq!(fingerprint(&back), fingerprint(g));
            prop_assert_eq!(back.to_snapshot(), bytes);
        }
        Err(e) => prop_assert_eq!(Cdfg::from_snapshot(&bytes).unwrap_err(), e),
    }
    Ok(())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adds what generators never produce: literals on a third of the nodes,
/// anonymous sources, and removed edge slots (temporal edges added and
/// then stripped, as the watermark flow does), one of them the last slot.
fn decorate(mut g: Cdfg, seed: u64) -> Cdfg {
    let mut s = seed;
    let nodes: Vec<NodeId> = g.node_ids().collect();
    for &n in &nodes {
        if splitmix(&mut s).is_multiple_of(3) {
            g.set_literal(n, splitmix(&mut s) as i64);
        }
    }
    for (kind, literal) in [
        (OpKind::Const, Some(0)),
        (OpKind::Input, None),
        (OpKind::Const, Some(i64::MIN)),
        (OpKind::Input, None),
    ] {
        let n = g.add_node(kind);
        if let Some(literal) = literal {
            g.set_literal(n, literal);
        }
    }
    let count = g.node_count() as u64;
    let mut added = Vec::new();
    for _ in 0..8 {
        let a = NodeId::from_index((splitmix(&mut s) % count) as usize);
        let b = NodeId::from_index((splitmix(&mut s) % count) as usize);
        if let Ok(e) = g.add_edge_acyclic(EdgeKind::Temporal, a, b) {
            added.push(e);
        }
    }
    for (i, e) in added.iter().enumerate() {
        if i.is_multiple_of(2) || i + 1 == added.len() {
            g.remove_edge(*e).unwrap();
        }
    }
    g
}

/// A random DAG's shape as a valid graph: every edge temporal (temporal
/// edges carry no operand), every node a source.
fn temporal_dag(n: usize, p: f64, seed: u64) -> Cdfg {
    let shape = random_dag(n, p, seed);
    let mut g = Cdfg::new();
    for id in shape.node_ids() {
        g.add_named_node(OpKind::Input, format!("v{}", id.index()));
    }
    for e in shape.edges() {
        g.add_temporal_edge(e.src(), e.dst()).unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn layered_graphs_round_trip(ops in 2usize..200, seed in 0u64..5000) {
        let g = layered(&LayeredConfig {
            ops,
            layers: (ops / 6).max(1),
            seed,
            ..Default::default()
        });
        check_round_trip(&g)?;
        check_round_trip(&decorate(g, seed))?;
    }

    #[test]
    fn random_dags_round_trip(n in 2usize..60, p in 0.0f64..0.5, seed in 0u64..5000) {
        // Raw random DAGs are mostly arity-invalid: decoding must refuse
        // them exactly as `validate` does.
        check_round_trip(&random_dag(n, p, seed))?;
        check_round_trip(&decorate(temporal_dag(n, p, seed), seed))?;
    }

    #[test]
    fn mediabench_graphs_round_trip(app in 0usize..8, seed in 0u64..50) {
        let g = mediabench(&mediabench_apps()[app], seed);
        check_round_trip(&g)?;
        check_round_trip(&decorate(g, seed))?;
    }
}

#[test]
fn cdfg_round_trips_through_a_snapshot() {
    let g = iir4_parallel();
    let g2 = Cdfg::from_snapshot(&g.to_snapshot()).expect("decodes");
    assert_eq!(g.node_count(), g2.node_count());
    assert_eq!(g.edge_count(), g2.edge_count());
    assert_eq!(g.op_count(), g2.op_count());
    assert_eq!(g.node_by_name("A9"), g2.node_by_name("A9"));
    assert_eq!(fingerprint(&g), fingerprint(&g2));
}

#[test]
fn generated_graphs_round_trip_through_a_snapshot() {
    let g = layered(&LayeredConfig {
        ops: 120,
        layers: 10,
        seed: 8,
        ..Default::default()
    });
    let g2 = Cdfg::from_snapshot(&g.to_snapshot()).expect("decodes");
    assert_eq!(fingerprint(&g), fingerprint(&g2));
}

/// Every truncation and every single-byte corruption of a snapshot is an
/// error or decodes to a valid graph — never a panic.
#[test]
fn hostile_bytes_are_errors_or_valid_graphs() {
    let g = decorate(iir4_parallel(), 7);
    let bytes = g.to_snapshot();
    let check = |bad: &[u8]| {
        if let Ok(decoded) = Cdfg::from_snapshot(bad) {
            assert!(decoded.validate().is_ok());
            assert_eq!(decoded.to_snapshot(), bad, "a decode is exact");
        }
    };
    for cut in 0..bytes.len() {
        assert!(Cdfg::from_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    let mut bad = bytes.clone();
    for at in 0..bytes.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
            bad[at] = bytes[at] ^ mask;
            check(&bad);
        }
        for value in [0x00, 0xFF] {
            bad[at] = value;
            check(&bad);
        }
        bad[at] = bytes[at];
    }
}
