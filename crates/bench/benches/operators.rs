//! Criterion bench for the columnar operators' real evaluation paths
//! (the compute the simulation memoises).
//!
//! Covers the typed kernels against their naive references
//! (`eval::reference`) at two sizes, so `BENCH_operators.json` records
//! the before/after spread of the monomorphized rework. The JSON sink
//! writes to the repo root (override with `BENCH_JSON_PATH`); CI
//! schema-checks the file through `emca check`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use volcano_db::exec::eval::{self, reference, Vals};
use volcano_db::exec::mat::{FlatJoinMap, JoinTable};
use volcano_db::exec::plan::{AggKind, ArithOp, CmpOp, ScalarPred};
use volcano_db::storage::ColData;

/// Benchmark sizes: a cache-resident slice and a partition-scale slice.
const SIZES: [usize; 2] = [1 << 14, 1 << 18];

fn data_f64(n: usize) -> ColData {
    ColData::F64(Arc::new((0..n).map(|i| (i % 50) as f64).collect()))
}

fn data_i64(n: usize) -> ColData {
    ColData::I64(Arc::new((0..n as i64).map(|i| (i * 37) % 1000).collect()))
}

/// Join-key column: a selective subset pattern over a dense domain.
fn join_keys(n: usize) -> ColData {
    ColData::I64(Arc::new(
        (0..n as i64).map(|i| (i * 7) % (n as i64)).collect(),
    ))
}

fn flat_table(keys: &ColData, n: usize) -> JoinTable {
    JoinTable {
        map: FlatJoinMap::from_parts([eval::build_hash_part(Vals::slice(keys, 0, n))]),
        build_origin: None,
        build_table: "orders",
    }
}

fn bench_headline(c: &mut Criterion) {
    // The three headline kernels of the typed-kernel rework, each next
    // to its naive reference, at both sizes.
    let mut g = c.benchmark_group("operators");
    for &n in &SIZES {
        g.throughput(Throughput::Elements(n as u64));

        let qty = data_f64(n);
        let pred = ScalarPred::Cmp(CmpOp::Lt, 24.0);
        g.bench_with_input(BenchmarkId::new("scan_select", n), &n, |b, &n| {
            b.iter(|| black_box(eval::scan_select(&qty, 0, n, &pred)));
        });
        g.bench_with_input(BenchmarkId::new("scan_select_ref", n), &n, |b, &n| {
            b.iter(|| black_box(reference::scan_select(&qty, 0, n, &pred)));
        });

        let bkeys = join_keys(n);
        let table = flat_table(&bkeys, n);
        let ref_map = reference::merge_hash([reference::build_hash(&bkeys, 0, n)]);
        let probe_keys = ColData::I64(Arc::new(
            (0..n as i64).map(|i| (i * 13) % (2 * n as i64)).collect(),
        ));
        g.bench_with_input(BenchmarkId::new("probe_hash", n), &n, |b, &n| {
            let probe = Vals::slice(&probe_keys, 0, n);
            b.iter(|| black_box(eval::probe_hash(&table, &probe, None, None, 0)));
        });
        g.bench_with_input(BenchmarkId::new("probe_hash_ref", n), &n, |b, &n| {
            b.iter(|| {
                black_box(reference::probe_hash(
                    &ref_map,
                    &probe_keys,
                    None,
                    None,
                    0,
                    n,
                ))
            });
        });

        let gkeys = data_i64(n);
        let vals = data_f64(n);
        g.bench_with_input(BenchmarkId::new("group_agg", n), &n, |b, &n| {
            let (k, v) = (Vals::slice(&gkeys, 0, n), Vals::slice(&vals, 0, n));
            b.iter(|| black_box(eval::group_agg(&k, Some(&v), AggKind::Sum)));
        });
        g.bench_with_input(BenchmarkId::new("group_agg_ref", n), &n, |b, &n| {
            b.iter(|| {
                black_box(reference::group_agg(
                    &gkeys,
                    Some(&vals),
                    AggKind::Sum,
                    0,
                    n,
                ))
            });
        });
    }
    g.finish();
}

fn bench_supporting(c: &mut Criterion) {
    // The remaining kernels at the larger size (tracking, not headline).
    let n = SIZES[1];
    let mut g = c.benchmark_group("operators_support");
    g.throughput(Throughput::Elements(n as u64));

    let qty = data_f64(n);
    let cands: Vec<u32> = (0..n as u32).step_by(2).collect();
    g.bench_function("select_and", |b| {
        let pred = ScalarPred::Between(10.0, 30.0);
        b.iter(|| black_box(eval::select_and(&cands, &qty, &pred)));
    });

    g.bench_function("project", |b| {
        b.iter(|| black_box(eval::project(&cands, &qty)));
    });

    let (left, right) = (data_f64(n), data_f64(n));
    let (left, right) = (Vals::slice(&left, 0, n), Vals::slice(&right, 0, n));
    g.bench_function("bin_op_mul", |b| {
        b.iter(|| black_box(eval::bin_op(&left, &right, ArithOp::Mul)));
    });

    g.bench_function("aggr_sum", |b| {
        b.iter(|| black_box(eval::aggr_sum(&left)));
    });

    let keys = data_i64(n);
    g.bench_function("build_flat", |b| {
        b.iter(|| {
            black_box(FlatJoinMap::from_parts([eval::build_hash_part(
                Vals::slice(&keys, 0, n),
            )]))
        });
    });
    g.bench_function("build_ref", |b| {
        b.iter(|| black_box(reference::build_hash(&keys, 0, n)));
    });

    let groups: Vec<(i64, f64)> = (0..10_000).map(|i| (i, (i * 31 % 997) as f64)).collect();
    g.bench_function("top_n", |b| {
        b.iter(|| black_box(eval::top_n(&groups, 100)));
    });
    g.bench_function("top_n_ref", |b| {
        b.iter(|| black_box(reference::top_n(&groups, 100)));
    });

    g.finish();
}

/// Where the JSON trajectory lands: the repo root by default so the
/// committed `BENCH_operators.json` tracks kernel timings across PRs.
fn json_path() -> String {
    std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_operators.json").into()
    })
}

/// Quick Criterion config: the benches are smoke-level performance
/// tracking, not publication numbers. `EMCA_BENCH_QUICK=1` shrinks the
/// budget further for CI smoke runs.
fn quick() -> Criterion {
    let quick_ci = std::env::var("EMCA_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (meas_ms, samples) = if quick_ci { (60, 3) } else { (900, 10) };
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(if quick_ci {
            20
        } else {
            300
        }))
        .measurement_time(std::time::Duration::from_millis(meas_ms))
        .sample_size(samples)
        .json_out(json_path())
}
criterion_group! {name = benches; config = quick(); targets = bench_headline, bench_supporting}
criterion_main!(benches);
