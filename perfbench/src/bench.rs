//! One benchmark run of one workload: set-up, answer checks, the timed
//! passes and the metrics they yield.
//!
//! An untraced run (`--trace 0`) repeats the workload's fixed input for
//! `--seconds` and reports the end-to-end metrics. A traced run
//! alternates untraced and traced repetitions for `--seconds` and
//! reports the per-layer metrics — host times as medians over the
//! untraced repetitions — plus `trace_overhead`, the traced/untraced
//! ratio of the medians.

use crate::inputs::{ChurnInputs, MixedInputs, ServeInputs, WorkloadKind};
use crate::procfs::{peak_rss_mb, CpuTimes};
use crate::reference::{digest, spec_key, AnswerCheck, Reference};
use crate::report::Report;
use crate::serve::{self, Tally, Window, FULL_WIDTH};
use crate::sim::{self, SimFingerprint, SimLayers};
use crate::stats::{mean, median, percentile, ratio};
use emca_harness::{run_serve, Alloc, Backend, RunConfig};
use emca_metrics::SimTime;
use numa_sim::{CoreId, Machine, MachineConfig};
use os_sim::KernelConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};
use volcano_db::client::{materialize_phases, Workload};
use volcano_db::exec::engine::{Engine, EngineConfig};
use volcano_db::exec::par::{BaseData, ParEngine, ParEngineConfig};
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: WorkloadKind,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke size: the same workloads on tiny inputs.
    pub smoke: bool,
    /// Reference answers.
    pub reference: Reference,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    let mut report = match opts.workload {
        WorkloadKind::SimMixed => sim_mixed(opts),
        WorkloadKind::SimChurn => sim_churn(opts),
        WorkloadKind::ThreadsServe => threads_serve(opts),
    };
    if report.attempted == 0 {
        report.problem("no query or request was attempted");
    }
    if !opts.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    report
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The engine a set-up loads the data into.
#[derive(Clone, Copy)]
enum LoadTarget {
    /// The simulated engine on a fresh simulated machine.
    Sim,
    /// A full-width `ParEngine` (thread spawn included).
    Threads,
}

/// Set-ups a run times before its first repetition; `setup_s` is their
/// median. A fixed count keeps set-up from eating into the repetitions,
/// which set the host-time medians.
const SETUPS: usize = 7;

/// The benchmark database and the set-ups timed to build it.
struct Setups {
    scale: TpchScale,
    target: LoadTarget,
    data: Option<TpchData>,
    gen_s: Vec<f64>,
    load_s: Vec<f64>,
}

impl Setups {
    fn new(scale: TpchScale, target: LoadTarget) -> Setups {
        let mut s = Setups {
            scale,
            target,
            data: None,
            gen_s: Vec::new(),
            load_s: Vec::new(),
        };
        for _ in 0..SETUPS {
            s.refresh();
        }
        s
    }

    /// Drops the current copy, then generates and loads the database
    /// again — what a user waits for before the first query.
    fn refresh(&mut self) {
        drop(self.data.take());
        let t = Instant::now();
        let d = TpchData::generate(self.scale);
        self.gen_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        match self.target {
            LoadTarget::Sim => {
                let tick = KernelConfig::default().tick;
                let mut machine = Machine::new(MachineConfig::opteron_4x4(), tick);
                let engine = Engine::new(
                    EngineConfig {
                        memo_capacity: 4096,
                        ..EngineConfig::default()
                    },
                    machine.topology().n_nodes(),
                );
                engine.load(&mut machine, &d, Some(CoreId(0)));
                self.load_s.push(t.elapsed().as_secs_f64());
            }
            LoadTarget::Threads => {
                let mut engine = ParEngine::new(
                    ParEngineConfig {
                        n_workers: FULL_WIDTH,
                        initial_active: FULL_WIDTH,
                        ..ParEngineConfig::default()
                    },
                    Arc::new(BaseData::from_tpch(&d)),
                );
                self.load_s.push(t.elapsed().as_secs_f64());
                engine.shutdown();
            }
        }
        self.data = Some(d);
    }

    fn data(&self) -> &TpchData {
        self.data.as_ref().expect("set up at construction")
    }

    /// Median generation plus load.
    fn total_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .gen_s
            .iter()
            .zip(&self.load_s)
            .map(|(g, l)| g + l)
            .collect();
        median(&totals)
    }
}

// ---------------------------------------------------------------------------
// Repetition loop
// ---------------------------------------------------------------------------

/// Host seconds of the untraced and traced repetitions of a run, and
/// the process CPU they consumed (set-ups excluded).
struct Passes {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    cpu: Option<CpuTimes>,
}

impl Default for Passes {
    fn default() -> Passes {
        Passes {
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            cpu: Some(CpuTimes::default()),
        }
    }
}

/// Calls `pass(traced)` until `seconds` have elapsed: untraced only, or
/// alternating untraced/traced (ending on a traced pass) when `trace`.
fn repeat(seconds: f64, trace: bool, mut pass: impl FnMut(bool)) -> Passes {
    let mut p = Passes::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let traced = trace && p.untraced_s.len() > p.traced_s.len();
        let cpu0 = CpuTimes::now();
        let t = Instant::now();
        pass(traced);
        let s = t.elapsed().as_secs_f64();
        let cpu = cpu0.zip(CpuTimes::now()).map(|(a, b)| b.since(a));
        p.cpu = match (p.cpu, cpu) {
            (Some(sum), Some(c)) => Some(CpuTimes {
                user_s: sum.user_s + c.user_s,
                sys_s: sum.sys_s + c.sys_s,
            }),
            _ => None,
        };
        if traced {
            p.traced_s.push(s);
        } else {
            p.untraced_s.push(s);
        }
        let balanced = !trace || p.traced_s.len() == p.untraced_s.len();
        if balanced && Instant::now() >= end {
            break;
        }
    }
    p
}

// ---------------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------------

/// Metrics of the simulated outcome, shared by both sim workloads.
fn put_sim_outcome(report: &mut Report, fp: &SimFingerprint, sla_ms: f64) {
    let wall = fp.wall_s();
    let responses = fp.responses_ms();
    report.set("sim_qps", ratio(fp.completed() as f64, wall));
    report.set("sim_p99_ms", percentile(&responses, 0.99));
    let good = responses.iter().filter(|&&r| r <= sla_ms).count();
    report.set("goodput_qps", ratio(good as f64, wall));
}

/// Accounting of one pass: attempted, failed and lost queries.
fn account(report: &mut Report, fp: &SimFingerprint, expected: u64) {
    let completed = fp.completed();
    report.attempted += expected;
    report.failed += expected.saturating_sub(completed);
    if !fp.errors.is_empty() {
        report.problem(format!(
            "{} queries failed: {:?}",
            fp.errors.len(),
            fp.errors.first()
        ));
    }
    let lost = expected.saturating_sub(completed + fp.errors.len() as u64);
    if lost > 0 {
        report.problem(format!("{lost} queries lost"));
    }
}

/// Checks a repeated or traced pass against the first untraced one.
fn same_outputs(report: &mut Report, first: &SimFingerprint, fp: &SimFingerprint, what: &str) {
    if fp != first {
        report.problem(format!(
            "{what} diverged from the untraced run (wall {} vs {} ns, {} vs {} queries)",
            fp.wall_ns,
            first.wall_ns,
            fp.completed(),
            first.completed()
        ));
    }
}

fn put_answer_check(report: &mut Report, check: &AnswerCheck) {
    if !check.ok() {
        report.failed += check.mismatches.len() as u64;
        let shown: Vec<&String> = check.mismatches.iter().filter(|m| !m.is_empty()).collect();
        report.problem(format!(
            "{} of {} answers differ from the reference: {shown:?}",
            check.mismatches.len(),
            check.checked
        ));
    }
}

/// Per-layer metrics of the simulator layers, from the traced passes.
fn put_sim_layers(report: &mut Report, layers: &[SimLayers]) {
    let Some(last) = layers.last() else { return };
    let per_pass =
        |f: &dyn Fn(&SimLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    report.put("load.s", per_pass(&|l| l.load_ns as f64 / 1e9));
    report.put("load.count", last.loads as f64);
    let ticks: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.tick_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    report.put("ostick.count", last.tick_ns.len() as f64);
    report.put(
        "ostick.s",
        per_pass(&|l| l.tick_ns.iter().sum::<u64>() as f64 / 1e9),
    );
    report.set("ostick.p50_us", percentile(&ticks, 0.5));
    report.set("ostick.p99_us", percentile(&ticks, 0.99));
    report.put("sched.migrations", last.sched.migrations as f64);
    report.put("sched.steals", last.sched.steals as f64);
    report.put("sched.preemptions", last.sched.preemptions as f64);
    report.put("sched.wakeups", last.sched.wakeups as f64);
    report.put("numa.imc_gb", last.hw.imc_bytes as f64 / 1e9);
    report.put("numa.ht_gb", last.hw.link_bytes as f64 / 1e9);
    report.set(
        "numa.l3_hit_ratio",
        ratio(
            last.hw.l3_hits as f64,
            (last.hw.l3_hits + last.hw.l3_misses) as f64,
        ),
    );
    report.put("numa.minor_faults", last.hw.minor_faults as f64);
    report.set(
        "engine.tasks_per_query",
        ratio(
            last.engine.tasks_executed as f64,
            last.engine.queries_completed as f64,
        ),
    );
    report.put("engine.steals", last.engine.engine_steals as f64);
    let polls: u64 = layers.iter().map(|l| l.polls).sum();
    let poll_ns: u64 = layers.iter().map(|l| l.poll_ns).sum();
    report.put("ctl.polls", last.polls as f64);
    report.put(
        "ctl.us_per_poll",
        ratio(poll_ns as f64 / 1e3, polls as f64).unwrap_or(0.0),
    );
    report.put("ctl.transitions", last.transitions as f64);
}

/// The layers a simulator workload never calls read a measured zero.
fn put_threads_layers_bypassed(report: &mut Report) {
    for name in [
        "par.tasks_per_query",
        "par.steals",
        "par.worker_runq_wait_ms",
        "pool.cores_mean",
        "pool.transitions",
        "serve.latency_ms.p50",
        "serve.latency_ms.p99",
        "serve.dispatch_wait_ms.p50",
        "serve.dispatch_wait_ms.p99",
        "serve.service_ms.p50",
        "serve.service_ms.p99",
        "serve.queue_depth_max",
        "serve.retries",
    ] {
        report.put(name, 0.0);
    }
}

/// Every query of `specs` alone on a full-width `ParEngine`: the
/// unloaded evaluation cost, and a second answer check (threads against
/// the simulator's reference).
fn put_unloaded(
    report: &mut Report,
    opts: &Options,
    data: &TpchData,
    specs: &[QuerySpec],
    reps: usize,
) {
    match serve::unloaded(data, specs, reps) {
        Ok(runs) => {
            let mut check = AnswerCheck::default();
            for u in &runs {
                check.compare(&opts.reference, data.scale.sf, &u.spec, u.digest);
            }
            put_answer_check(report, &check);
            let ms: Vec<f64> = runs.iter().map(|u| u.ms).collect();
            report.set("exec.unloaded_ms.mean", mean(&ms));
            report.set("exec.unloaded_ms.max", ms.iter().copied().reduce(f64::max));
        }
        Err(e) => report.problem(e),
    }
}

fn put_cpu(report: &mut Report, passes: &Passes, completed: u64) {
    match passes.cpu {
        Some(cpu) => {
            report.set(
                "host.cpu_ms_per_query",
                ratio(cpu.total_s() * 1e3, completed as f64),
            );
            report.set("proc.sys_share", ratio(cpu.sys_s, cpu.total_s()));
        }
        None => {
            report.set("host.cpu_ms_per_query", None);
            report.set("proc.sys_share", None);
        }
    }
}

fn put_ok_share(report: &mut Report) {
    let a = report.attempted as f64;
    report.set("ok_share", ratio(a - report.failed as f64, a));
}

fn sim_mixed(opts: &Options) -> Report {
    let inputs = MixedInputs::new(opts.seed, opts.smoke);
    let config = &inputs.config;
    let mut report = Report::default();
    let setups = Setups::new(config.scale, LoadTarget::Sim);
    let data = setups.data();
    let sf = config.scale.sf;
    let expected = inputs.expected;

    let mut first: Option<SimFingerprint> = None;
    let mut layers: Vec<SimLayers> = Vec::new();
    let mut completed = 0u64;
    let passes = repeat(opts.seconds, opts.trace, |traced| {
        let fp = if traced {
            let (fp, l) = sim::mixed_traced(config, data);
            layers.push(l);
            fp
        } else {
            sim::mixed_untraced(config, data)
        };
        account(&mut report, &fp, expected);
        completed += fp.completed();
        match &first {
            Some(f) => same_outputs(
                &mut report,
                f,
                &fp,
                if traced { "traced run" } else { "repeated run" },
            ),
            None => {
                check_mixed_answers(&mut report, opts, config, sf, &fp);
                first = Some(fp);
            }
        }
    });
    let first = first.expect("at least one untraced pass");
    report.put("setup_s", setups.total_s());
    report.put("tpch.gen_s", median(&setups.gen_s));
    report.put("host.run_s", median(&passes.untraced_s));
    put_sim_outcome(&mut report, &first, inputs.sla.as_millis_f64());
    put_cpu(&mut report, &passes, completed);
    put_ok_share(&mut report);
    if opts.trace {
        put_sim_layers(&mut report, &layers);
        for name in [
            "arb.ticks",
            "arb.us_per_tick",
            "arb.denials",
            "arb.yields",
            "churn.admit_wait_ms.mean",
            "churn.admit_wait_ms.max",
            "churn.worst_p99_ms",
        ] {
            report.put(name, 0.0);
        }
        put_threads_layers_bypassed(&mut report);
        let specs = crate::inputs::tpch_mix();
        put_unloaded(&mut report, opts, data, &specs, 1);
        report.set(
            "trace_overhead",
            ratio(median(&passes.traced_s), median(&passes.untraced_s)),
        );
    }
    report
}

/// Every result of the first pass against the reference, in each
/// client's query order.
fn check_mixed_answers(
    report: &mut Report,
    opts: &Options,
    config: &RunConfig,
    sf: f64,
    fp: &SimFingerprint,
) {
    let mut check = AnswerCheck::default();
    if fp.groups.len() != config.clients {
        report.problem("results do not split into one log per client");
        return;
    }
    for (c, records) in fp.groups.iter().enumerate() {
        let specs: Vec<QuerySpec> = materialize_phases(&config.workload, c).concat();
        if specs.len() != records.len() {
            report.problem(format!(
                "client {c}: {} of {} queries",
                records.len(),
                specs.len()
            ));
            continue;
        }
        for (spec, r) in specs.iter().zip(records) {
            if spec.tag() != r.tag {
                report.problem(format!(
                    "client {c}: got tag {} for {}",
                    r.tag,
                    spec_key(spec)
                ));
            }
            check.compare(&opts.reference, sf, spec, r.digest);
        }
    }
    put_answer_check(report, &check);
}

fn sim_churn(opts: &Options) -> Report {
    let inputs = ChurnInputs::new(opts.seed, opts.smoke);
    let config = &inputs.config;
    let mut report = Report::default();
    let setups = Setups::new(config.scale, LoadTarget::Sim);
    let data = setups.data();
    let sf = config.scale.sf;
    let expected = inputs.plan.expected_completions();
    let q6 = QuerySpec::Q6 { variant: 0 };

    let mut first: Option<SimFingerprint> = None;
    let mut layers: Vec<SimLayers> = Vec::new();
    let mut admit_waits = Vec::new();
    // Arbiter (ticks, host ns, denials, yields) of each untraced pass,
    // as `run_tenants` returns them.
    let mut arbiter: Vec<[u64; 4]> = Vec::new();
    let mut completed = 0u64;
    let passes = repeat(opts.seconds, opts.trace, |traced| {
        let fp = if traced {
            let (fp, l, s) = sim::churn_traced(config, data);
            layers.push(l);
            admit_waits = s;
            fp
        } else {
            let (fp, out) = sim::churn_untraced(config, data);
            arbiter.push([
                out.arbiter_ticks,
                out.arbiter_ns,
                out.arbiter_denials,
                out.arbiter_yields,
            ]);
            fp
        };
        account(&mut report, &fp, expected);
        completed += fp.completed();
        match &first {
            Some(f) => same_outputs(
                &mut report,
                f,
                &fp,
                if traced { "traced run" } else { "repeated run" },
            ),
            None => {
                let mut check = AnswerCheck::default();
                for r in fp.groups.iter().flatten() {
                    if r.tag != q6.tag() {
                        report.problem(format!("churn query with tag {}", r.tag));
                    }
                    check.compare(&opts.reference, sf, &q6, r.digest);
                }
                put_answer_check(&mut report, &check);
                first = Some(fp);
            }
        }
    });
    let first = first.expect("at least one untraced pass");
    report.put("setup_s", setups.total_s());
    report.put("tpch.gen_s", median(&setups.gen_s));
    report.put("host.run_s", median(&passes.untraced_s));
    put_sim_outcome(&mut report, &first, inputs.sla.as_millis_f64());
    put_cpu(&mut report, &passes, completed);
    put_ok_share(&mut report);
    if opts.trace {
        put_sim_layers(&mut report, &layers);
        let [ticks, _, denials, yields] = arbiter[0];
        let ns: u64 = arbiter.iter().map(|a| a[1]).sum();
        let all_ticks: u64 = arbiter.iter().map(|a| a[0]).sum();
        report.put("arb.ticks", ticks as f64);
        report.set("arb.us_per_tick", ratio(ns as f64 / 1e3, all_ticks as f64));
        report.put("arb.denials", denials as f64);
        report.put("arb.yields", yields as f64);
        let waits: Vec<f64> = admit_waits.iter().map(|w| w.as_millis_f64()).collect();
        report.set("churn.admit_wait_ms.mean", mean(&waits));
        report.set(
            "churn.admit_wait_ms.max",
            waits.iter().copied().reduce(f64::max),
        );
        let worst = first
            .groups
            .iter()
            .filter_map(|g| {
                let r: Vec<f64> = g.iter().map(|q| q.response_ms()).collect();
                percentile(&r, 0.99)
            })
            .reduce(f64::max);
        report.set("churn.worst_p99_ms", worst);
        put_threads_layers_bypassed(&mut report);
        put_unloaded(&mut report, opts, data, &[q6], 3);
        report.set(
            "trace_overhead",
            ratio(median(&passes.traced_s), median(&passes.untraced_s)),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// threads_serve
// ---------------------------------------------------------------------------

fn account_window(report: &mut Report, t: &Tally) {
    report.attempted += t.offered;
    report.failed += t.failed + t.lost;
    if t.lost > 0 {
        report.problem(format!(
            "{} of {} requests lost or pending",
            t.lost, t.offered
        ));
    }
}

/// Each query of the serving mix alone on the simulator: the reference
/// side of the threads-vs-sim answer check.
pub fn sim_answers(data: &TpchData, specs: &[QuerySpec]) -> Vec<(QuerySpec, Option<u64>)> {
    specs
        .iter()
        .map(|spec| {
            let cfg = RunConfig::new(
                Alloc::OsAll,
                1,
                Workload::Repeat {
                    spec: *spec,
                    iterations: 1,
                },
            )
            .with_scale(data.scale);
            let out = emca_harness::run(cfg, data);
            (*spec, out.results.first().map(|r| digest(&r.result)))
        })
        .collect()
}

fn ms_between(a: SimTime, b: SimTime) -> f64 {
    b.since(a).as_millis_f64()
}

fn threads_serve(opts: &Options) -> Report {
    let inputs = ServeInputs::new(opts.seed, opts.smoke);
    let mut report = Report::default();
    let setups = Setups::new(inputs.scale, LoadTarget::Threads);
    let data = setups.data();
    let sf = inputs.scale.sf;

    // Untimed answer pass: each query of the mix alone on threads at
    // full width must match the simulator bit for bit, and the
    // simulator must match the reference.
    let mix = ServeInputs::mix();
    let sim = sim_answers(data, &mix);
    let mut check = AnswerCheck::default();
    for (spec, d) in &sim {
        match d {
            Some(d) => check.compare(&opts.reference, sf, spec, *d),
            None => report.problem(format!("{} did not complete on sim", spec_key(spec))),
        }
    }
    put_answer_check(&mut report, &check);
    match serve::unloaded(data, &mix, if opts.trace { 3 } else { 1 }) {
        Ok(runs) => {
            for u in &runs {
                let want = sim.iter().find(|(s, _)| *s == u.spec).and_then(|(_, d)| *d);
                if want != Some(u.digest) {
                    report.failed += 1;
                    report.problem(format!(
                        "{} answers differently on threads ({:016x}) and sim ({want:x?})",
                        spec_key(&u.spec),
                        u.digest
                    ));
                }
            }
            let ms: Vec<f64> = runs.iter().map(|u| u.ms).collect();
            report.set("exec.unloaded_ms.mean", mean(&ms));
            report.set("exec.unloaded_ms.max", ms.iter().copied().reduce(f64::max));
        }
        Err(e) => report.problem(e),
    }

    // The simulated twin: every window schedule back to back, served
    // on the simulator (deterministic).
    if !opts.trace {
        let schedule = inputs.concatenated();
        let out = run_serve(&serve::serve_config(&inputs, &schedule, Backend::Sim), data);
        let t = serve::tally(&out, schedule.arrivals.len());
        if t.lost > 0 {
            report.problem(format!(
                "sim twin lost {} of {} requests",
                t.lost, t.offered
            ));
        }
        report.set("sim_qps", ratio(t.completed as f64, out.wall.as_secs_f64()));
        report.set("sim_p99_ms", Some(out.latency_percentile_ms(0.99)));
    }

    let mut untraced: Vec<Window> = Vec::new();
    let mut traced: Vec<Window> = Vec::new();
    let mut index = 0;
    repeat(opts.seconds, opts.trace, |is_traced| {
        let w = serve::window(&inputs, index, data, is_traced);
        index += 1;
        account_window(&mut report, &serve::tally(&w.out, w.offered));
        if is_traced {
            traced.push(w);
        } else {
            untraced.push(w);
        }
    });
    let completed = |ws: &[Window]| -> u64 {
        ws.iter()
            .map(|w| serve::tally(&w.out, w.offered).completed)
            .sum()
    };
    let cpu_per_query = |ws: &[Window]| -> Option<f64> {
        let cpu: Option<f64> = ws.iter().map(|w| w.cpu.map(CpuTimes::total_s)).sum();
        cpu.and_then(|c| ratio(c * 1e3, completed(ws) as f64))
    };
    let per_window =
        |ws: &[Window], f: &dyn Fn(&Window) -> f64| median(&ws.iter().map(f).collect::<Vec<_>>());
    let horizon_s: f64 = untraced.iter().map(|w| w.out.horizon.as_secs_f64()).sum();
    let limit_ms = inputs.latency_limit.as_millis_f64();
    let good = untraced
        .iter()
        .flat_map(|w| w.out.latencies_ms())
        .filter(|&l| l <= limit_ms)
        .count();
    report.put("setup_s", setups.total_s());
    report.put("tpch.gen_s", median(&setups.gen_s));
    report.put("host.run_s", per_window(&untraced, &|w| w.host_s));
    report.set("goodput_qps", ratio(good as f64, horizon_s));
    report.set("host.cpu_ms_per_query", cpu_per_query(&untraced));
    put_ok_share(&mut report);

    if opts.trace {
        report.put("load.s", median(&setups.load_s));
        report.put("load.count", 1.0);
        for name in [
            "ostick.count",
            "ostick.s",
            "ostick.p50_us",
            "ostick.p99_us",
            "sched.migrations",
            "sched.steals",
            "sched.preemptions",
            "sched.wakeups",
            "numa.imc_gb",
            "numa.ht_gb",
            "numa.l3_hit_ratio",
            "numa.minor_faults",
            "engine.tasks_per_query",
            "engine.steals",
            "ctl.polls",
            "ctl.us_per_poll",
            "ctl.transitions",
            "arb.ticks",
            "arb.us_per_tick",
            "arb.denials",
            "arb.yields",
            "churn.admit_wait_ms.mean",
            "churn.admit_wait_ms.max",
            "churn.worst_p99_ms",
        ] {
            report.put(name, 0.0);
        }
        let engine = |w: &Window| w.out.engine;
        report.put(
            "par.tasks_per_query",
            per_window(&traced, &|w| {
                let e = engine(w);
                e.tasks_executed as f64 / e.queries_completed.max(1) as f64
            }),
        );
        report.put(
            "par.steals",
            per_window(&traced, &|w| engine(w).engine_steals as f64),
        );
        let runq: Option<f64> = traced.iter().map(|w| w.runq.map(|r| r.0 as f64)).sum();
        report.set(
            "par.worker_runq_wait_ms",
            runq.and_then(|ns| ratio(ns / 1e6, completed(&traced) as f64)),
        );
        let cpu: Option<CpuTimes> = traced.iter().try_fold(CpuTimes::default(), |acc, w| {
            w.cpu.map(|c| CpuTimes {
                user_s: acc.user_s + c.user_s,
                sys_s: acc.sys_s + c.sys_s,
            })
        });
        report.set(
            "proc.sys_share",
            cpu.and_then(|c| ratio(c.sys_s, c.total_s())),
        );
        report.put(
            "pool.cores_mean",
            per_window(&traced, &|w| w.out.cores_series.mean().unwrap_or(f64::NAN)),
        );
        report.put(
            "pool.transitions",
            per_window(&traced, &|w| w.out.transitions.len() as f64),
        );
        // Latency from scheduled arrival over every request of the
        // untraced windows (unfinished requests count as +inf).
        let latencies: Vec<f64> = untraced.iter().flat_map(|w| w.out.latencies_ms()).collect();
        report.set("serve.latency_ms.p50", percentile(&latencies, 0.5));
        report.set("serve.latency_ms.p99", percentile(&latencies, 0.99));
        let records = || traced.iter().flat_map(|w| w.out.records.iter());
        let dispatch: Vec<f64> = records()
            .filter_map(|r| r.dispatched.map(|d| ms_between(r.arrival, d)))
            .collect();
        let service: Vec<f64> = records()
            .filter_map(|r| Some(ms_between(r.dispatched?, r.finished?)))
            .collect();
        report.set("serve.dispatch_wait_ms.p50", percentile(&dispatch, 0.5));
        report.set("serve.dispatch_wait_ms.p99", percentile(&dispatch, 0.99));
        report.set("serve.service_ms.p50", percentile(&service, 0.5));
        report.set("serve.service_ms.p99", percentile(&service, 0.99));
        report.set(
            "serve.queue_depth_max",
            traced
                .iter()
                .filter_map(|w| w.out.queue_series.max())
                .reduce(f64::max),
        );
        report.put(
            "serve.retries",
            records().map(|r| r.attempts.saturating_sub(1) as f64).sum(),
        );
        report.set(
            "trace_overhead",
            cpu_per_query(&traced)
                .zip(cpu_per_query(&untraced))
                .and_then(|(t, u)| ratio(t, u)),
        );
    }
    report
}
