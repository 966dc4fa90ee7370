//! Smoke-size self-tests of the benchmark command: every metric of
//! `BENCHMARK.json` is emitted with its unit for every workload, a
//! tampered reference makes the command fail, and traced sim runs
//! reproduce the untraced ones.

use emca_perfbench::inputs::{ChurnInputs, MixedInputs, WorkloadKind, DATA_SEED};
use emca_perfbench::json::Json;
use emca_perfbench::report::{END_TO_END, PER_LAYER};
use emca_perfbench::sim;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use volcano_db::tpch::{TpchData, TpchScale};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("benchmark runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_is_emitted_with_its_unit_for_every_workload() {
    let bench = benchmark_json();
    for w in WorkloadKind::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(w.name(), trace, &[]);
            assert!(
                out.status.success(),
                "{} trace={trace} failed: {}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let result = result_line(&out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let want = declared(&bench, key);
            assert_eq!(metrics.len(), want.len(), "{} {key}: {metrics:?}", w.name());
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", w.name()));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite() && v >= 0.0, "{}: {name} = {v}", w.name());
            }
        }
    }
}

#[test]
fn a_tampered_reference_fails_the_command() {
    let text = std::fs::read_to_string(manifest_dir().join("reference.txt")).unwrap();
    let smoke_sf = format!("{} ", TpchScale::test_tiny().sf);
    // Flip the low bit of every smoke-size digest.
    let tampered: String = text
        .lines()
        .map(|l| {
            if l.starts_with(&smoke_sf) {
                let (head, hex) = l.rsplit_once(' ').unwrap();
                let d = u64::from_str_radix(hex, 16).unwrap() ^ 1;
                format!("{head} {d:016x}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(tampered, text);
    let path: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tampered_reference.txt");
    std::fs::write(&path, tampered).unwrap();
    for w in WorkloadKind::ALL {
        let out = run(w.name(), false, &["--reference", path.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{} must fail on wrong answers",
            w.name()
        );
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert!(result.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    }
    // The untouched reference passes.
    let out = run("sim_churn", false, &[]);
    assert!(out.status.success());
}

#[test]
fn traced_sim_runs_reproduce_untraced_ones() {
    let data = TpchData::generate(TpchScale {
        sf: TpchScale::test_tiny().sf,
        seed: DATA_SEED,
    });
    let mixed = MixedInputs::new(5, true);
    let untraced = sim::mixed_untraced(&mixed.config, &data);
    let (traced, layers) = sim::mixed_traced(&mixed.config, &data);
    assert_eq!(traced, untraced);
    assert_eq!(layers.tick_ns.len() as u64, layers.polls);
    assert!(layers.transitions > 0);
    // The comparison has teeth: another seed gives other outputs.
    let other = sim::mixed_untraced(&MixedInputs::new(6, true).config, &data);
    assert_ne!(other, untraced);

    let churn = ChurnInputs::new(5, true);
    let (untraced, out) = sim::churn_untraced(&churn.config, &data);
    let (traced, layers, waits) = sim::churn_traced(&churn.config, &data);
    assert_eq!(traced, untraced);
    assert!(out.arbiter_ticks > 0);
    assert_eq!(layers.loads as usize, churn.plan.tenants.len());
    assert_eq!(waits.len(), churn.plan.tenants.len());
    assert_eq!(traced.completed(), churn.plan.expected_completions());
}
