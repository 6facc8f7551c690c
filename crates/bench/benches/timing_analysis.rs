//! Timing-analysis throughput: unit timing, incremental updates, and the
//! bounded delay model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use localwm_cdfg::generators::{layered, LayeredConfig};
use localwm_engine::{DesignContext, Parallelism};
use localwm_timing::{bounded_arrival, criticality_in, DynamicBounds, KindBounds, UnitTiming};

fn graphs() -> Vec<(usize, localwm_cdfg::Cdfg)> {
    [500usize, 2000, 8000]
        .iter()
        .map(|&ops| {
            (
                ops,
                layered(&LayeredConfig {
                    ops,
                    layers: ((ops as f64).sqrt() * 1.2) as usize,
                    ..Default::default()
                }),
            )
        })
        .collect()
}

fn bench_unit_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("timing/unit");
    for (ops, g) in graphs() {
        group.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |b, _| {
            b.iter(|| UnitTiming::new(&g));
        });
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("timing/incremental-edge");
    for (ops, g) in graphs() {
        // A slack pair to tie together.
        let nodes: Vec<_> = g
            .node_ids()
            .filter(|&n| g.kind(n).is_schedulable())
            .collect();
        let (a, b2) = (nodes[ops / 3], nodes[2 * ops / 3]);
        if g.reaches(a, b2) || g.reaches(b2, a) {
            continue;
        }
        let mut ctx = DesignContext::new(g);
        let _ = ctx.unit_timing();
        // Each iteration adds the edge and removes it again: two patches
        // of the memoized unit timing.
        group.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |bch, _| {
            bch.iter(|| {
                let e = ctx.add_temporal_edge(a, b2).expect("incomparable");
                let cp = ctx.critical_path();
                ctx.mutate(|ed| ed.remove_edge(e)).expect("live edge");
                cp + ctx.critical_path()
            });
        });
    }
    group.finish();
}

fn bench_bounded(c: &mut Criterion) {
    let mut group = c.benchmark_group("timing/bounded-delay");
    let model = DynamicBounds::new(KindBounds::uniform(1, 3), 1);
    for (ops, g) in graphs() {
        group.bench_with_input(BenchmarkId::from_parameter(ops), &ops, |b, _| {
            b.iter(|| bounded_arrival(&g, &model));
        });
    }
    group.finish();
}

/// Cached (shared `DesignContext`) versus uncached (fresh analysis per
/// query) access to the same derived facts: a window table at the critical
/// path plus laxity for every node, queried repeatedly.
fn bench_cached_vs_uncached(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/context-queries");
    for (ops, g) in graphs() {
        let nodes: Vec<_> = g.node_ids().collect();
        group.bench_with_input(BenchmarkId::new("uncached", ops), &ops, |b, _| {
            b.iter(|| {
                let t = UnitTiming::new(&g);
                let cp = t.critical_path();
                nodes
                    .iter()
                    .map(|&n| u64::from(t.laxity(n)) + u64::from(t.alap(n, cp)))
                    .sum::<u64>()
            });
        });
        let ctx = DesignContext::new(g.clone());
        group.bench_with_input(BenchmarkId::new("cached", ops), &ops, |b, _| {
            b.iter(|| {
                let cp = ctx.critical_path();
                let w = ctx.windows(cp).expect("critical path is feasible");
                nodes
                    .iter()
                    .map(|&n| u64::from(ctx.laxity(n)) + u64::from(w.alap(n)))
                    .sum::<u64>()
            });
        });
    }
    group.finish();
}

/// Serial versus parallel Monte-Carlo criticality over the shared context.
fn bench_serial_vs_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/criticality");
    let model = KindBounds::uniform(1, 3);
    const SAMPLES: usize = 64;
    for (ops, g) in graphs() {
        let ctx = DesignContext::new(g);
        group.bench_with_input(BenchmarkId::new("serial", ops), &ops, |b, _| {
            b.iter(|| criticality_in(&ctx, &model, SAMPLES, 7, Parallelism::Serial));
        });
        group.bench_with_input(BenchmarkId::new("parallel", ops), &ops, |b, _| {
            b.iter(|| criticality_in(&ctx, &model, SAMPLES, 7, Parallelism::Auto));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_unit_timing,
    bench_incremental,
    bench_bounded,
    bench_cached_vs_uncached,
    bench_serial_vs_parallel
);
criterion_main!(benches);
