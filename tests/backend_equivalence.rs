//! Sim/threads backend equivalence: the simulated engine is the
//! deterministic-fidelity twin of the real-thread executor. With the
//! thread pool at the simulated machine's width (16), both backends
//! partition every operator identically and merge partials in strict
//! partition order, so each query's result is *bitwise* identical —
//! allocation and scheduling may only change timing.

use elastic_core::ArbiterMode;
use emca_harness::{
    run, run_tenants, Alloc, Backend, ChurnSpec, MultiTenantConfig, RunConfig, TenantRunConfig,
};
use emca_metrics::{SimDuration, SimTime};
use os_sim::{CoreMask, Kernel, KernelConfig, SimWork, StepOutcome, WorkCtx};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use volcano_db::client::Workload;
use volcano_db::exec::engine::{Engine, EngineConfig, QueryResult};
use volcano_db::exec::eval;
use volcano_db::exec::mat::{Mat, ValMat};
use volcano_db::exec::par::{BaseData, ParEngine, ParEngineConfig};
use volcano_db::exec::plan::{col, CmpOp, PhysOp, Plan, ScalarPred, Side};
use volcano_db::storage::ColData;
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

/// A mixed workload exercising per-client RNG sequencing, joins,
/// group-bys and scalar aggregates.
fn mixed(iters: u32) -> Workload {
    Workload::Mixed {
        specs: vec![
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 1,
                variant: 0,
            },
            QuerySpec::Tpch {
                number: 4,
                variant: 1,
            },
            QuerySpec::Tpch {
                number: 14,
                variant: 0,
            },
        ],
        iterations: iters,
        seed: 11,
    }
}

/// Sorted multiset of (label, full result debug) digests — submission
/// order differs across backends, so compare as a set of result values.
fn digests(results: &[QueryResult]) -> Vec<String> {
    let mut d: Vec<String> = results
        .iter()
        .map(|r| format!("{}:{:?}", r.label, r.result))
        .collect();
    d.sort();
    d
}

/// The equivalence argument needs the pool at machine width; a capped
/// pool (CI smoke) partitions differently by design.
fn pool_is_capped() -> bool {
    std::env::var("EMCA_THREADS").is_ok()
}

#[test]
fn sim_and_threads_agree_on_every_query_result() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |backend| {
        RunConfig::new(Alloc::Adaptive, 3, mixed(2))
            .with_scale(data.scale)
            .with_backend(backend)
    };
    let sim = run(cfg(Backend::Sim), &data);
    let thr = run(cfg(Backend::Threads), &data);
    assert_eq!(sim.results.len(), thr.results.len());
    assert_eq!(
        digests(&sim.results),
        digests(&thr.results),
        "same queries must produce bitwise-identical results on both backends"
    );
    assert!(thr.wall > emca_metrics::SimDuration::ZERO);
    assert_eq!(thr.engine.queries_completed, sim.engine.queries_completed);
}

#[test]
fn threads_baseline_matches_mechanism_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    // Within the threads backend, the OS baseline (thread-per-client)
    // and the elastic pool must also agree on values.
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |alloc| {
        RunConfig::new(alloc, 2, mixed(2))
            .with_scale(data.scale)
            .with_backend(Backend::Threads)
    };
    let os = run(cfg(Alloc::OsAll), &data);
    let sparse = run(cfg(Alloc::Sparse), &data);
    assert_eq!(digests(&os.results), digests(&sparse.results));
    assert!(os.transitions.is_empty(), "no mechanism on the baseline");
    assert!(
        !sparse.cores_series.is_empty(),
        "mechanism samples the pool size"
    );
}

#[test]
fn multi_tenant_threads_run_matches_sim_results() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    let data = TpchData::generate(TpchScale::test_tiny());
    let cfg = |backend| {
        MultiTenantConfig::new(
            ArbiterMode::FairShare,
            vec![
                TenantRunConfig::new(
                    "a",
                    Workload::Repeat {
                        spec: QuerySpec::Q6 { variant: 0 },
                        iterations: 2,
                    },
                    2,
                ),
                TenantRunConfig::new("b", mixed(1), 2),
            ],
        )
        .with_scale(data.scale)
        .with_backend(backend)
    };
    let sim = run_tenants(cfg(Backend::Sim), &data);
    let thr = run_tenants(cfg(Backend::Threads), &data);
    assert_eq!(thr.tenants.len(), 2);
    for (s, t) in sim.tenants.iter().zip(&thr.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            digests(&s.results),
            digests(&t.results),
            "tenant {} diverged across backends",
            s.config.name
        );
        assert!(t.control_steps > 0, "pool controller must run");
    }
}

/// The shared 16-tenant churn plan of the churn-equivalence tests:
/// admissions queue behind a 5-slot resident cap, demand is
/// Zipf-skewed, and arrivals scatter over half a second.
fn churn_16_config(data: &TpchData, backend: Backend) -> MultiTenantConfig {
    let mut churn = ChurnSpec::new(16);
    churn.resident = Some(5);
    churn.spread = Some(0.5);
    let plan = churn.plan(7, 2, 2);
    MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
        .with_scale(data.scale)
        .with_resident_cap(plan.resident)
        .with_backend(backend)
}

#[test]
fn churn_sim_runs_are_byte_identical_across_repeats() {
    // Determinism of the sim churn lifecycle: two runs of the same
    // seeded plan must agree byte-for-byte — results, admission times,
    // every metric series.
    let data = TpchData::generate(TpchScale::test_tiny());
    let a = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    let b = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    assert_eq!(a.wall, b.wall);
    assert_eq!(a.arbiter_denials, b.arbiter_denials);
    assert_eq!(a.arbiter_yields, b.arbiter_yields);
    assert_eq!(a.tenants.len(), b.tenants.len());
    for (s, t) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            s.started_at, t.started_at,
            "{} admission moved",
            s.config.name
        );
        assert_eq!(s.finished_at, t.finished_at);
        assert_eq!(
            format!("{:?}", s.results),
            format!("{:?}", t.results),
            "tenant {} results diverged across repeats",
            s.config.name
        );
        assert_eq!(
            format!("{:?}{:?}{:?}", s.cores_series, s.load_series, s.qps_series),
            format!("{:?}{:?}{:?}", t.cores_series, t.load_series, t.qps_series),
            "tenant {} series diverged across repeats",
            s.config.name
        );
    }
}

#[test]
fn churn_threads_run_loses_nothing_and_matches_sim_values() {
    if pool_is_capped() {
        eprintln!("EMCA_THREADS caps the pool; skipping width-sensitive equivalence check");
        return;
    }
    // The same 16-tenant plan on both backends: exact accounting (no
    // query lost across any departure) and bitwise-identical per-query
    // values; only timing may differ.
    let data = TpchData::generate(TpchScale::test_tiny());
    let mut churn = ChurnSpec::new(16);
    churn.resident = Some(5);
    churn.spread = Some(0.5);
    let plan = churn.plan(7, 2, 2);
    let expected = plan.expected_completions();

    let sim = run_tenants(churn_16_config(&data, Backend::Sim), &data);
    let thr = run_tenants(churn_16_config(&data, Backend::Threads), &data);
    for out in [&sim, &thr] {
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, expected, "lost queries across departures");
        assert!(out.errors.is_empty());
    }
    assert_eq!(sim.tenants.len(), thr.tenants.len());
    for (s, t) in sim.tenants.iter().zip(&thr.tenants) {
        assert_eq!(s.config.name, t.config.name);
        assert_eq!(
            digests(&s.results),
            digests(&t.results),
            "tenant {} diverged across backends",
            s.config.name
        );
    }
}

/// A sim client that submits one plan and keeps its result.
struct OneShot {
    engine: Engine,
    plan: Rc<Plan>,
    qid: Option<volcano_db::exec::task::QueryId>,
    out: Rc<RefCell<Option<QueryResult>>>,
}

impl SimWork for OneShot {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        let Some(qid) = self.qid else {
            self.qid = Some(
                self.engine
                    .submit(ctx, self.plan.clone(), 0, SimDuration::ZERO),
            );
            return StepOutcome::Blocked(SimDuration::ZERO);
        };
        match self.engine.take_result(qid) {
            Some(r) => {
                *self.out.borrow_mut() = Some(r.expect("query failed"));
                StepOutcome::Finished(SimDuration::ZERO)
            }
            None => StepOutcome::Blocked(SimDuration::ZERO),
        }
    }

    fn label(&self) -> &str {
        "one-shot"
    }
}

fn run_plan_sim(plan: &Plan, data: &TpchData) -> Mat {
    let kernel_cfg = KernelConfig::default();
    let machine = numa_sim::Machine::new(numa_sim::MachineConfig::opteron_4x4(), kernel_cfg.tick);
    let mut kernel = Kernel::new(machine, kernel_cfg);
    let engine = Engine::new(
        EngineConfig::default(),
        kernel.machine().topology().n_nodes(),
    );
    engine.load(kernel.machine_mut(), data, None);
    let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
    engine.start_workers(&mut kernel, group);
    let out = Rc::new(RefCell::new(None));
    let client = OneShot {
        engine,
        plan: Rc::new(plan.clone()),
        qid: None,
        out: out.clone(),
    };
    kernel.spawn("client0", group, None, Box::new(client));
    assert!(
        kernel.run_until_cond(SimTime::from_secs(60), |_| out.borrow().is_some()),
        "{} did not finish on sim",
        plan.label
    );
    let result = out.borrow_mut().take().expect("result");
    result.result
}

fn run_plan_threads(plan: &Plan, data: &TpchData) -> Mat {
    let engine = ParEngine::new(
        ParEngineConfig {
            n_workers: 16,
            initial_active: 16,
            ..ParEngineConfig::default()
        },
        Arc::new(BaseData::from_tpch(data)),
    );
    let qid = engine.submit(Arc::new(plan.clone()), 0);
    engine.wait_result(qid).expect("query failed").result
}

/// The result value bit for bit: floats by their bit pattern.
fn bits(v: &ValMat) -> (Vec<u64>, Option<(&'static str, Vec<u32>)>) {
    let data = match &v.data {
        ColData::I64(x) => x.iter().map(|&x| x as u64).collect(),
        ColData::F64(x) => x.iter().map(|x| x.to_bits()).collect(),
    };
    let origin = v.origin.as_ref().map(|o| (o.table, o.pos.to_vec()));
    (data, origin)
}

#[test]
fn projection_roots_return_materialised_values_on_both_backends() {
    // Projections are late-materialised: inside a plan their value is
    // the positions they read through. A projection at the root must
    // still hand the caller a `Mat::Val` — `eval::project` over those
    // positions, with them as the origin — identically on both backends.
    let data = TpchData::generate(TpchScale::test_tiny());
    let qty_pred = ScalarPred::Cmp(CmpOp::Lt, 24.0);

    let mut project_root = Plan::new("project_root");
    let sel = project_root.add(PhysOp::ScanSelect {
        col: col("lineitem", "l_quantity"),
        pred: qty_pred.clone(),
    });
    project_root.add(PhysOp::Project {
        positions: sel,
        col: col("lineitem", "l_extendedprice"),
    });

    let mut side_root = Plan::new("project_side_root");
    let ord = side_root.add(PhysOp::ScanSelect {
        col: col("orders", "o_orderdate"),
        pred: ScalarPred::Cmp(CmpOp::Ge, 0.0),
    });
    let ord_keys = side_root.add(PhysOp::Project {
        positions: ord,
        col: col("orders", "o_orderkey"),
    });
    let li = side_root.add(PhysOp::ScanSelect {
        col: col("lineitem", "l_quantity"),
        pred: qty_pred.clone(),
    });
    let li_keys = side_root.add(PhysOp::Project {
        positions: li,
        col: col("lineitem", "l_orderkey"),
    });
    let build = side_root.add(PhysOp::JoinBuild { keys: ord_keys });
    let pairs = side_root.add(PhysOp::JoinProbe {
        build,
        probe: li_keys,
    });
    side_root.add(PhysOp::ProjectSide {
        pairs,
        side: Side::Build,
        col: col("orders", "o_custkey"),
    });

    let qty = data.column("lineitem", "l_quantity");
    let selected = eval::scan_select(qty, 0, qty.len(), &qty_pred);
    for (plan, table, column, positions) in [
        (
            &project_root,
            "lineitem",
            "l_extendedprice",
            Some(&selected),
        ),
        (&side_root, "orders", "o_custkey", None),
    ] {
        let sim = run_plan_sim(plan, &data);
        let thr = run_plan_threads(plan, &data);
        let (Mat::Val(sim), Mat::Val(thr)) = (&sim, &thr) else {
            panic!("{}: a projection root must return values", plan.label);
        };
        let origin = sim.origin.as_ref().expect("projection keeps its origin");
        assert_eq!(origin.table, table);
        let want = ValMat {
            data: eval::project(&origin.pos, data.column(table, column)),
            origin: Some(origin.clone()),
        };
        assert_eq!(bits(sim), bits(&want), "{} on sim", plan.label);
        assert_eq!(bits(thr), bits(&want), "{} on threads", plan.label);
        assert!(!origin.pos.is_empty(), "{} selected nothing", plan.label);
        if let Some(positions) = positions {
            assert_eq!(origin.pos.as_slice(), positions.as_slice());
        }
    }
}
