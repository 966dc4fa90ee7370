//! The two simulator workloads, each in an untraced and a traced form.
//!
//! The untraced runs go through the public entry points
//! (`emca_harness::run`, `emca_harness::run_tenants`). The traced runs
//! rebuild the same driver loops from the public calls underneath them
//! (`Kernel::new`, `Engine::load`/`start_workers`,
//! `ElasticMechanism::install[_tenant]`, `spawn_clients`) and time every
//! `Kernel::run_tick`, `ElasticMechanism::poll` and `Engine::load` from
//! here. Nothing inside the program is instrumented. Both forms reduce
//! to a [`SimFingerprint`]; a traced run that does not reproduce its
//! untraced twin exactly is a benchmark failure.

use crate::reference::digest;
use elastic_core::{
    ElasticMechanism, MechanismConfig, MetricKind, PolicyId, TenantArbiter, TenantBinding,
};
use emca_harness::{MultiTenantConfig, MultiTenantOutput, RunConfig, RunOutput, Warmup};
use emca_metrics::{SimDuration, SimTime};
use numa_sim::{CoreId, HwSnapshot, Machine, MachineConfig};
use os_sim::{CoreMask, Kernel, KernelConfig, SchedStats, ThreadState, Tid};
use std::rc::Rc;
use std::time::Instant;
use volcano_db::client::{drain_errors, drain_results, spawn_clients, SharedLog};
use volcano_db::exec::engine::{Engine, EngineConfig, EngineStats, QueryResult};
use volcano_db::tpch::TpchData;

/// One completed query, reduced to what the benchmark checks and
/// reports.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRecord {
    /// Caller tag (TPC-H number, 106 for the Q6 microbenchmark).
    pub tag: u32,
    /// Result digest.
    pub digest: u64,
    /// Simulated submission time (ns).
    pub submitted_ns: u64,
    /// Simulated completion time (ns).
    pub finished_ns: u64,
}

impl QueryRecord {
    fn of(r: &QueryResult) -> QueryRecord {
        QueryRecord {
            tag: r.spec_tag,
            digest: digest(&r.result),
            submitted_ns: r.submitted.since(SimTime::ZERO).as_nanos(),
            finished_ns: r.finished.since(SimTime::ZERO).as_nanos(),
        }
    }

    /// Simulated response time in ms.
    pub fn response_ms(&self) -> f64 {
        (self.finished_ns - self.submitted_ns) as f64 / 1e6
    }
}

/// Everything simulated that a traced run must reproduce bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFingerprint {
    /// Completed queries, grouped per client (closed loop) or per
    /// tenant (churn), each group in completion order.
    pub groups: Vec<Vec<QueryRecord>>,
    /// Rendered query errors.
    pub errors: Vec<String>,
    /// Simulated run length (ns).
    pub wall_ns: u64,
    /// Rendered `SchedStats`, `EngineStats` and hardware-counter deltas
    /// (closed loop; the churn entry point returns none of them).
    pub stats: Option<String>,
    /// Mechanism transitions (closed loop) or per-tenant
    /// `started/finished/control steps` plus arbiter counters (churn).
    pub control: Vec<String>,
}

impl SimFingerprint {
    /// Completed queries over all groups.
    pub fn completed(&self) -> u64 {
        self.groups.iter().map(|g| g.len() as u64).sum()
    }

    /// Simulated seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Every simulated response time (ms).
    pub fn responses_ms(&self) -> Vec<f64> {
        self.groups
            .iter()
            .flatten()
            .map(QueryRecord::response_ms)
            .collect()
    }
}

fn render_stats(
    sched: &SchedStats,
    engine: &EngineStats,
    before: &HwSnapshot,
    after: &HwSnapshot,
) -> String {
    format!("{sched:?} {engine:?} {:?}", HwDelta::between(before, after))
}

/// Machine-wide hardware-counter growth over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HwDelta {
    /// Bytes through the memory controllers.
    pub imc_bytes: u64,
    /// Bytes over the interconnect links.
    pub link_bytes: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl HwDelta {
    /// Growth from `before` to `after`.
    pub fn between(before: &HwSnapshot, after: &HwSnapshot) -> HwDelta {
        let d = |a: &[u64], b: &[u64]| -> u64 {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).sum()
        };
        HwDelta {
            imc_bytes: d(&after.imc_bytes, &before.imc_bytes),
            link_bytes: d(&after.link_bytes, &before.link_bytes),
            l3_hits: d(&after.l3_hits, &before.l3_hits),
            l3_misses: d(&after.l3_misses, &before.l3_misses),
            minor_faults: d(&after.minor_faults, &before.minor_faults),
        }
    }
}

/// Host-side timings and simulated counters a traced run collects.
#[derive(Clone, Debug, Default)]
pub struct SimLayers {
    /// `Engine::load` calls and their total host time.
    pub loads: u64,
    /// Host ns in `Engine::load`.
    pub load_ns: u64,
    /// Host ns of every `Kernel::run_tick`.
    pub tick_ns: Vec<u64>,
    /// `ElasticMechanism::poll` calls.
    pub polls: u64,
    /// Host ns in `poll`.
    pub poll_ns: u64,
    /// Mechanism transitions.
    pub transitions: u64,
    /// Kernel scheduling counters.
    pub sched: SchedStats,
    /// Engine counters, summed over every engine of the run.
    pub engine: EngineStats,
    /// Hardware-counter growth.
    pub hw: HwDelta,
}

fn add_engine(sum: &mut EngineStats, s: EngineStats) {
    sum.tasks_created += s.tasks_created;
    sum.tasks_executed += s.tasks_executed;
    sum.engine_steals += s.engine_steals;
    sum.queries_completed += s.queries_completed;
    sum.queries_submitted += s.queries_submitted;
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// sim_mixed
// ---------------------------------------------------------------------------

/// The untraced closed-loop run: `emca_harness::run` as a user calls it.
pub fn mixed_untraced(config: &RunConfig, data: &TpchData) -> SimFingerprint {
    let out: RunOutput = emca_harness::run(config.clone(), data);
    let per_client = split_per_client(&out.results, config.clients);
    SimFingerprint {
        groups: per_client,
        errors: out.errors.clone(),
        wall_ns: out.wall.as_nanos(),
        stats: Some(render_stats(
            &out.sched,
            &out.engine,
            &out.hw_before,
            &out.hw_after,
        )),
        control: out.transitions.iter().map(|t| format!("{t:?}")).collect(),
    }
}

/// `drain_results` concatenates client logs in client order; each
/// client's queries complete one at a time, so consecutive equal-size
/// chunks are the clients.
fn split_per_client(results: &[QueryResult], clients: usize) -> Vec<Vec<QueryRecord>> {
    let records: Vec<QueryRecord> = results.iter().map(QueryRecord::of).collect();
    let per = records.len() / clients.max(1);
    if per * clients != records.len() {
        // Uneven logs (an error ended some queries): keep one group.
        return vec![records];
    }
    records
        .chunks(per.max(1))
        .map(<[QueryRecord]>::to_vec)
        .collect()
}

/// The mechanism `emca_harness::run` installs for `config` (built-in
/// policies only).
fn install_mechanism(
    config: &RunConfig,
    kernel: &mut Kernel,
    group: os_sim::GroupId,
    engine: &Engine,
) -> Option<ElasticMechanism> {
    let id = config.alloc.policy_id()?;
    let mut mech_cfg = match config.metric {
        MetricKind::HtImcRatio => MechanismConfig::ht_imc(),
        metric => MechanismConfig {
            metric,
            ..MechanismConfig::cpu_load()
        },
    }
    .with_mode_latency(id.name());
    if let Some(interval) = config.mech_interval {
        mech_cfg.interval = interval;
        mech_cfg.min_interval = interval;
        mech_cfg.actuation_latency = mech_cfg.actuation_latency.min(interval / 2);
    }
    if id == PolicyId::HillClimb {
        mech_cfg.saturation_guard = None;
    }
    if let Some(guard) = config.mech_guard {
        mech_cfg.saturation_guard = guard;
    }
    Some(ElasticMechanism::install(
        kernel,
        group,
        engine.space(),
        id.build(),
        mech_cfg,
    ))
}

fn loader_core(warmup: Warmup) -> Option<CoreId> {
    match warmup {
        Warmup::Loader => Some(CoreId(0)),
        Warmup::Interleave | Warmup::None => None,
    }
}

fn engine_config(flavor: volcano_db::exec::engine::Flavor, seed: u64) -> EngineConfig {
    EngineConfig {
        flavor,
        memo_capacity: 4096,
        faults: None,
        fault_seed: seed,
        ..EngineConfig::default()
    }
}

/// The traced closed-loop run: `emca_harness::run`'s sim loop rebuilt
/// from public calls, with every tick, poll and the load timed.
pub fn mixed_traced(config: &RunConfig, data: &TpchData) -> (SimFingerprint, SimLayers) {
    assert!(
        config.custom_policy.is_none() && config.faults.is_none() && !config.trace_sched,
        "the traced loop covers built-in policies without faults or span tracing"
    );
    let mut layers = SimLayers::default();
    let kernel_cfg = KernelConfig::default();
    let machine = Machine::new(MachineConfig::opteron_4x4(), kernel_cfg.tick);
    let mut kernel = Kernel::new(machine, kernel_cfg);
    let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
    let engine = Engine::new(
        engine_config(config.flavor, config.scale.seed),
        kernel.machine().topology().n_nodes(),
    );
    let t = Instant::now();
    engine.load(kernel.machine_mut(), data, loader_core(config.warmup));
    if config.warmup == Warmup::Interleave {
        engine.interleave_base(kernel.machine_mut());
    }
    layers.load_ns += elapsed_ns(t);
    layers.loads += 1;
    engine.start_workers(&mut kernel, group);
    let mut mechanism = install_mechanism(config, &mut kernel, group, &engine);

    let logs = spawn_clients(
        &mut kernel,
        &engine,
        group,
        config.clients,
        config.workload.clone(),
    );
    let hw_before = kernel.machine().counters().snapshot();
    let start = kernel.now();
    let deadline = start + config.deadline;
    let client_tids: Vec<Tid> = (0..kernel.n_threads() as u32)
        .map(Tid)
        .filter(|&t| kernel.thread_name(t).starts_with("client"))
        .collect();
    let mut seen: Vec<usize> = vec![0; logs.len()];
    let mut finished_at = None;
    while kernel.now() < deadline {
        if client_tids
            .iter()
            .all(|&t| kernel.thread_state(t) == ThreadState::Finished)
        {
            finished_at = Some(kernel.now());
            break;
        }
        let t = Instant::now();
        kernel.run_tick();
        layers.tick_ns.push(elapsed_ns(t));
        if let Some(m) = mechanism.as_mut() {
            let t = Instant::now();
            m.poll(&mut kernel);
            layers.poll_ns += elapsed_ns(t);
            layers.polls += 1;
            for (log, cursor) in logs.iter().zip(&mut seen) {
                let log = log.borrow();
                for r in &log.results[*cursor..] {
                    m.note_response(r.response());
                }
                *cursor = log.results.len();
            }
        }
    }
    let end = finished_at.expect("closed-loop run hit its simulated deadline");
    let hw_after = kernel.machine().counters().snapshot();
    let groups: Vec<Vec<QueryRecord>> = logs
        .iter()
        .map(|l| l.borrow().results.iter().map(QueryRecord::of).collect())
        .collect();
    let transitions: Vec<String> = mechanism
        .as_ref()
        .map(|m| m.events.iter().map(|t| format!("{t:?}")).collect())
        .unwrap_or_default();
    layers.transitions = transitions.len() as u64;
    layers.sched = kernel.stats();
    layers.engine = engine.stats();
    layers.hw = HwDelta::between(&hw_before, &hw_after);
    let fp = SimFingerprint {
        groups,
        errors: drain_errors(&logs),
        wall_ns: end.since(start).as_nanos(),
        stats: Some(render_stats(
            &layers.sched,
            &layers.engine,
            &hw_before,
            &hw_after,
        )),
        control: transitions,
    };
    (fp, layers)
}

// ---------------------------------------------------------------------------
// sim_churn
// ---------------------------------------------------------------------------

fn churn_fingerprint(out: &MultiTenantOutput) -> SimFingerprint {
    let mut control: Vec<String> = out
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{} {:?} {:?} {}",
                t.config.name, t.started_at, t.finished_at, t.control_steps
            )
        })
        .collect();
    control.push(format!(
        "denials={} yields={} ticks={}",
        out.arbiter_denials, out.arbiter_yields, out.arbiter_ticks
    ));
    SimFingerprint {
        groups: out
            .tenants
            .iter()
            .map(|t| t.results.iter().map(QueryRecord::of).collect())
            .collect(),
        errors: out.errors.clone(),
        wall_ns: out.wall.as_nanos(),
        stats: None,
        control,
    }
}

/// The untraced churn run: `emca_harness::run_tenants` as a user calls
/// it. Also returns the arbiter timing the runner measures itself.
pub fn churn_untraced(
    config: &MultiTenantConfig,
    data: &TpchData,
) -> (SimFingerprint, MultiTenantOutput) {
    let out = emca_harness::run_tenants(config.clone(), data);
    (churn_fingerprint(&out), out)
}

struct Live {
    engine: Engine,
    mechanism: ElasticMechanism,
    tid: elastic_core::TenantId,
    logs: Vec<SharedLog>,
    client_tids: Vec<Tid>,
    seen: Vec<usize>,
    started_at: SimTime,
}

/// The traced churn run: the elastic path of `run_tenants`' churn loop
/// rebuilt from public calls, timing every tick, every mechanism poll
/// and every cold-start `Engine::load`. Also returns each tenant's admission wait
/// (admission minus scheduled arrival, simulated).
pub fn churn_traced(
    config: &MultiTenantConfig,
    data: &TpchData,
) -> (SimFingerprint, SimLayers, Vec<SimDuration>) {
    assert!(
        !config.static_partition && config.faults.is_none() && config.resident_cap.is_some(),
        "the traced loop covers elastic churn without faults"
    );
    let mut layers = SimLayers::default();
    let kernel_cfg = KernelConfig::default();
    let machine = Machine::new(MachineConfig::opteron_4x4(), kernel_cfg.tick);
    let mut kernel = Kernel::new(machine, kernel_cfg);
    let topo = kernel.machine().topology().clone();
    let ntotal = topo.n_cores() as u32;
    let n = config.tenants.len();
    let resident_cap = config.resident_cap.unwrap_or(n).clamp(1, ntotal as usize);
    let arbiter = TenantArbiter::shared(config.arbiter, ntotal);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (config.tenants[i].start_after, i));
    let mut next_pending = 0usize;
    let mut lives: Vec<Option<Live>> = (0..n).map(|_| None).collect();
    let mut done: Vec<Option<(Vec<QueryRecord>, String, SimTime)>> = (0..n).map(|_| None).collect();
    let mut errors: Vec<String> = Vec::new();
    let mut n_live = 0usize;
    let mut arbiter_ticks = 0u64;

    let hw_before = kernel.machine().counters().snapshot();
    let start = kernel.now();
    let deadline = start + config.deadline;
    let mut drained_from: Option<SimTime> = None;
    let mut last_finish: Option<SimTime> = None;
    loop {
        let now = kernel.now();
        if now >= deadline {
            break;
        }
        for i in 0..n {
            let finished = lives[i].as_ref().is_some_and(|l| {
                l.client_tids
                    .iter()
                    .all(|&tid| kernel.thread_state(tid) == ThreadState::Finished)
            });
            if !finished {
                continue;
            }
            if let Some(l) = lives[i].take() {
                let tcfg = &config.tenants[i];
                let results: Vec<QueryRecord> =
                    drain_results(&l.logs).iter().map(QueryRecord::of).collect();
                errors.extend(
                    drain_errors(&l.logs)
                        .into_iter()
                        .map(|e| format!("{}: {e}", tcfg.name)),
                );
                arbiter.borrow_mut().deregister(l.tid);
                add_engine(&mut layers.engine, l.engine.stats());
                layers.transitions += l.mechanism.events.len() as u64;
                let control = format!(
                    "{} {:?} {:?} {}",
                    tcfg.name, l.started_at, now, l.mechanism.steps
                );
                done[i] = Some((results, control, l.started_at));
                n_live -= 1;
                last_finish = Some(now);
            }
        }
        while next_pending < n && n_live < resident_cap {
            let i = order[next_pending];
            let tcfg = &config.tenants[i];
            if now.since(start) < tcfg.start_after {
                break;
            }
            if arbiter.borrow().free_cores() == 0 {
                break;
            }
            let group = kernel.create_group(CoreMask::all(&topo));
            let engine = Engine::new(
                engine_config(config.flavor, config.scale.seed),
                topo.n_nodes(),
            );
            let t = Instant::now();
            engine.load(kernel.machine_mut(), data, loader_core(config.warmup));
            if config.warmup == Warmup::Interleave {
                engine.interleave_base(kernel.machine_mut());
            }
            layers.load_ns += elapsed_ns(t);
            layers.loads += 1;
            engine.start_workers(&mut kernel, group);
            let tid =
                arbiter
                    .borrow_mut()
                    .register(tcfg.name.clone(), tcfg.weight, tcfg.sla.max_cores);
            let mut mech_cfg = MechanismConfig::cpu_load().with_mode_latency(tcfg.policy.name());
            if let Some(interval) = config.mech_interval {
                mech_cfg.interval = interval;
                mech_cfg.min_interval = interval;
                mech_cfg.actuation_latency = mech_cfg.actuation_latency.min(interval / 2);
            }
            if tcfg.policy == PolicyId::HillClimb {
                mech_cfg.saturation_guard = None;
            }
            let mechanism = ElasticMechanism::install_tenant(
                &mut kernel,
                group,
                engine.space(),
                tcfg.policy.build(),
                mech_cfg,
                TenantBinding::new(Rc::clone(&arbiter), tid),
            );
            let before = kernel.n_threads();
            let logs = spawn_clients(
                &mut kernel,
                &engine,
                group,
                tcfg.clients,
                tcfg.workload.clone(),
            );
            let client_tids: Vec<Tid> = (before as u32..kernel.n_threads() as u32)
                .map(Tid)
                .collect();
            lives[i] = Some(Live {
                engine,
                mechanism,
                tid,
                seen: vec![0; logs.len()],
                logs,
                client_tids,
                started_at: now,
            });
            next_pending += 1;
            n_live += 1;
        }
        if done.iter().all(Option::is_some) {
            let from = *drained_from.get_or_insert(now);
            if now.since(from) >= config.drain {
                break;
            }
        }
        let t = Instant::now();
        kernel.run_tick();
        layers.tick_ns.push(elapsed_ns(t));
        for l in lives.iter_mut().flatten() {
            let m = &mut l.mechanism;
            let before = m.steps;
            let t = Instant::now();
            m.poll(&mut kernel);
            layers.poll_ns += elapsed_ns(t);
            layers.polls += 1;
            arbiter_ticks += m.steps - before;
            for (log, cursor) in l.logs.iter().zip(&mut l.seen) {
                let log = log.borrow();
                for r in &log.results[*cursor..] {
                    m.note_response(r.response());
                }
                *cursor = log.results.len();
            }
        }
    }
    assert!(
        done.iter().all(Option::is_some),
        "churn run hit its simulated deadline with tenants unfinished"
    );
    let end = kernel.now();
    let hw_after = kernel.machine().counters().snapshot();
    let (denials, yields) = {
        let arb = arbiter.borrow();
        (arb.denials, arb.yields)
    };
    layers.sched = kernel.stats();
    layers.hw = HwDelta::between(&hw_before, &hw_after);

    let mut groups = Vec::with_capacity(n);
    let mut control = Vec::with_capacity(n + 1);
    let mut admit_waits = Vec::with_capacity(n);
    for (i, d) in done.into_iter().enumerate() {
        let (results, line, started) = d.expect("checked above");
        groups.push(results);
        control.push(line);
        admit_waits.push(
            started
                .since(start)
                .saturating_sub(config.tenants[i].start_after),
        );
    }
    control.push(format!(
        "denials={denials} yields={yields} ticks={arbiter_ticks}"
    ));
    let fp = SimFingerprint {
        groups,
        errors,
        wall_ns: last_finish.unwrap_or(end).since(start).as_nanos(),
        stats: None,
        control,
    };
    (fp, layers, admit_waits)
}
