//! Serverless tenant churn: the `churn=` axis of
//! [`ExperimentSpec`](crate::ExperimentSpec) (`--churn` / `EMCA_CHURN`)
//! and the runner that executes it.
//!
//! The classic `mt_*` runner installs every tenant up front and keeps
//! them resident for the whole run. The DBaaS shape the ROADMAP targets
//! is different: dozens–hundreds of tenants *churn* through a machine
//! that can only hold a few at a time. [`ChurnSpec`] describes that
//! population (`64:resident=12:skew=0.8:spread=6`), [`ChurnPlan`]
//! expands it — deterministically, from the experiment seed — into
//! per-tenant demand drawn from a Zipf distribution over a shuffled
//! rank order, and [`run_tenants_churn`] executes the lifecycle:
//!
//! - **arrive**: a tenant is admitted when its arrival time has passed
//!   *and* a resident slot plus a seed core are available; admission is
//!   a cold start (its own engine is built, data loaded, workers
//!   started and the first core claimed at admit time, so first-query
//!   latency includes the cold-start cost);
//! - **depart**: when a tenant's clients finish, its results are
//!   drained, its [`TenantArbiter`] registration is dropped
//!   ([`TenantArbiter::deregister`]) and its cores return to the free
//!   pool for redistribution — the arbiter slot itself is reused by a
//!   later arrival;
//! - **queue**: arrivals beyond the resident cap wait, serverless
//!   style; queue time is observable as `started_at - start_after`.
//!
//! With [`MultiTenantConfig::static_partition`] the same lifecycle runs
//! against a *static partitioner* — each resident slot owns a fixed
//! 1/cap slice of the machine and no elastic mechanism runs. That is
//! the baseline the `mt_churn` `--check` gate compares adaptive
//! arbitration against.
//!
//! Per-tenant SLA core budgets still reach the arbiter (BudgetCapped
//! ceilings hold); the power/traffic SLA governor wrap of the resident
//! runner is not applied here — churn tenants are generated
//! unconstrained.
//!
//! Arbitration cost is measured for real: every control tick executed
//! by a resident mechanism is timed on the host clock and accumulated
//! into [`MultiTenantOutput::arbiter_ticks`] / `arbiter_ns`. The
//! measurement never feeds back into the simulation, so sim results
//! stay a pure function of the seed.

use crate::backend::Backend;
use crate::config::Warmup;
use crate::runner::MEMO_CAPACITY;
use crate::spec::SpecError;
use crate::tenants::{MultiTenantConfig, MultiTenantOutput, TenantOutput, TenantRunConfig};
use elastic_core::{ElasticMechanism, MechanismConfig, PolicyId, TenantArbiter, TenantBinding};
use emca_metrics::{SimDuration, SimTime, TimeSeries};
use numa_sim::{CoreId, Machine, MachineConfig};
use os_sim::{CoreMask, Kernel, KernelConfig, ThreadState, Tid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::rc::Rc;
// emca-lint: allow(determinism) — host-clock probe for arbitration overhead; measurement-only, never feeds a sim decision
use std::time::Instant;
use volcano_db::client::{spawn_clients, SharedLog, Workload};
use volcano_db::exec::engine::{Engine, EngineConfig};
use volcano_db::tpch::{QuerySpec, TpchData};

/// Default cap on simultaneously resident tenants.
const DEFAULT_RESIDENT: u32 = 8;
/// Default Zipf exponent for the demand distribution (0 = uniform).
const DEFAULT_SKEW: f64 = 0.8;
/// Default arrival spread in simulated seconds.
const DEFAULT_SPREAD: f64 = 4.0;

/// The parsed `churn=` axis: `<n>[:resident=<r>][:skew=<s>][:spread=<secs>]`.
///
/// `n` is the total tenant population over the run's lifetime;
/// `resident` caps how many are installed at once (the "machine size"
/// in slots); `skew` is the Zipf exponent shaping per-tenant demand
/// (0 = uniform, larger = heavier head); `spread` is the window of
/// simulated seconds the arrivals are scattered over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Total tenants over the run's lifetime.
    pub n: u32,
    /// Resident-set cap; `None` defaults to [`ChurnSpec::resident`].
    pub resident: Option<u32>,
    /// Zipf exponent; `None` defaults to [`ChurnSpec::skew`].
    pub skew: Option<f64>,
    /// Arrival spread (simulated seconds); `None` defaults to
    /// [`ChurnSpec::spread`].
    pub spread: Option<f64>,
}

impl ChurnSpec {
    /// A churn population of `n` tenants with every knob defaulted.
    pub fn new(n: u32) -> Self {
        ChurnSpec {
            n,
            resident: None,
            skew: None,
            spread: None,
        }
    }

    /// The resident-set cap (defaulted).
    pub fn resident(&self) -> u32 {
        self.resident.unwrap_or(DEFAULT_RESIDENT)
    }

    /// The Zipf exponent (defaulted).
    pub fn skew(&self) -> f64 {
        self.skew.unwrap_or(DEFAULT_SKEW)
    }

    /// The arrival spread in simulated seconds (defaulted).
    pub fn spread(&self) -> f64 {
        self.spread.unwrap_or(DEFAULT_SPREAD)
    }

    /// Parses `<n>[:resident=<r>][:skew=<s>][:spread=<secs>]`.
    pub(crate) fn parse(value: &str) -> Result<Self, SpecError> {
        let bad = |reason: &str| SpecError::malformed("churn", value, reason);
        let mut parts = value.split(':');
        let head = parts.next().unwrap_or("");
        let n: u32 = head
            .parse()
            .map_err(|_| bad("tenant count must be an integer"))?;
        if n == 0 {
            return Err(bad("tenant count must be at least 1"));
        }
        let mut spec = ChurnSpec::new(n);
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| bad("options take the form key=value"))?;
            match key {
                "resident" => {
                    let r: u32 = val
                        .parse()
                        .map_err(|_| bad("resident must be an integer"))?;
                    if r == 0 {
                        return Err(bad("resident must be at least 1"));
                    }
                    spec.resident = Some(r);
                }
                "skew" => {
                    let s: f64 = val.parse().map_err(|_| bad("skew must be a number"))?;
                    if !s.is_finite() || s < 0.0 {
                        return Err(bad("skew must be finite and non-negative"));
                    }
                    spec.skew = Some(s);
                }
                "spread" => {
                    let s: f64 = val.parse().map_err(|_| bad("spread must be a number"))?;
                    if !s.is_finite() || s < 0.0 {
                        return Err(bad("spread must be finite and non-negative"));
                    }
                    spec.spread = Some(s);
                }
                _ => return Err(bad("unknown option (want resident, skew or spread)")),
            }
        }
        Ok(spec)
    }

    /// Expands the spec into a concrete, seeded plan. `max_clients` and
    /// `max_iters` bound the per-tenant demand the Zipf curve scales
    /// inside (the heaviest rank gets the maxima, the tail gets 1).
    pub fn plan(&self, seed: u64, max_clients: usize, max_iters: u32) -> ChurnPlan {
        let n = self.n as usize;
        // Decorrelate from the workload-generator streams that also key
        // off the experiment seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        // Zipf ranks 1..=n, shuffled so rank is independent of arrival
        // order (Fisher–Yates).
        let mut ranks: Vec<u32> = (1..=self.n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            ranks.swap(i, j);
        }
        let skew = self.skew();
        let spread = self.spread();
        let mut tenants: Vec<ChurnTenant> = (0..n)
            .map(|i| {
                // z ∈ (0, 1]: 1 for rank 1, 1/rank^skew down the tail.
                let z = 1.0 / f64::from(ranks[i]).powf(skew);
                let clients = (1.0 + z * (max_clients.saturating_sub(1)) as f64).round() as usize;
                let iters = (1.0 + z * f64::from(max_iters.saturating_sub(1))).round() as u32;
                let weight = 1 + (z * 3.0).round() as u32;
                let arrival = if spread > 0.0 {
                    SimDuration::from_secs_f64(rng.random_range(0.0..1.0) * spread)
                } else {
                    SimDuration::ZERO
                };
                ChurnTenant {
                    name: String::new(),
                    rank: ranks[i],
                    clients,
                    iters,
                    weight,
                    arrival,
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.rank.cmp(&b.rank)));
        for (i, t) in tenants.iter_mut().enumerate() {
            t.name = format!("t{i:03}");
        }
        ChurnPlan {
            tenants,
            resident: self.resident() as usize,
        }
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.n)?;
        if let Some(r) = self.resident {
            write!(f, ":resident={r}")?;
        }
        if let Some(s) = self.skew {
            write!(f, ":skew={s}")?;
        }
        if let Some(s) = self.spread {
            write!(f, ":spread={s}")?;
        }
        Ok(())
    }
}

/// One tenant of a [`ChurnPlan`]: Zipf rank, scaled demand, arrival.
#[derive(Clone, Debug)]
pub struct ChurnTenant {
    /// `t000`-style name, in arrival order.
    pub name: String,
    /// Zipf rank (1 = heaviest).
    pub rank: u32,
    /// Concurrent clients.
    pub clients: usize,
    /// Query iterations per client.
    pub iters: u32,
    /// Arbiter fair-share weight (heavier tenants weigh more).
    pub weight: u32,
    /// Arrival offset from run start.
    pub arrival: SimDuration,
}

/// A fully expanded churn plan — a pure function of
/// `(ChurnSpec, seed, max_clients, max_iters)`, identical on both
/// backends.
#[derive(Clone, Debug)]
pub struct ChurnPlan {
    /// Tenants in arrival order.
    pub tenants: Vec<ChurnTenant>,
    /// Resident-set cap.
    pub resident: usize,
}

impl ChurnPlan {
    /// Exact total completions the plan must produce (the zero-lost
    /// accounting gate: every client runs a fixed `Repeat` workload).
    pub fn expected_completions(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.clients as u64 * u64::from(t.iters))
            .sum()
    }

    /// The plan as runner tenant configs (Q6 `Repeat` workloads, so
    /// completion counts are exact).
    pub fn tenant_configs(&self) -> Vec<TenantRunConfig> {
        self.tenants
            .iter()
            .map(|t| {
                let workload = Workload::Repeat {
                    spec: QuerySpec::Q6 { variant: 0 },
                    iterations: t.iters,
                };
                TenantRunConfig::new(t.name.clone(), workload, t.clients)
                    .with_weight(t.weight)
                    .with_start_after(t.arrival)
            })
            .collect()
    }
}

/// Per-tenant live state while resident.
struct ChurnLive {
    group: os_sim::GroupId,
    /// Never read after construction, but owns the tenant's address
    /// space — dropped at departure with the rest of the record.
    #[allow(dead_code)]
    engine: Engine,
    /// `None` on the static-partition baseline.
    mechanism: Option<ElasticMechanism>,
    /// Arbiter registration (elastic only).
    tid: Option<elastic_core::TenantId>,
    /// Fixed machine slice (static baseline only).
    static_slot: Option<usize>,
    logs: Vec<SharedLog>,
    client_tids: Vec<Tid>,
    load_sampler: os_sim::LoadSampler,
    cores_series: TimeSeries,
    load_series: TimeSeries,
    qps_series: TimeSeries,
    seen: Vec<usize>,
    window_completions: u64,
    started_at: SimTime,
}

/// Runs a churn experiment on the sim backend (dispatching to the
/// threads mirror when [`MultiTenantConfig::backend`] says so). Reached
/// from [`crate::tenants::run_tenants`] whenever `resident_cap` or
/// `static_partition` is set.
pub fn run_tenants_churn(config: MultiTenantConfig, data: &TpchData) -> MultiTenantOutput {
    if config.backend == Backend::Threads {
        return crate::runner_threads::run_tenants_churn_threads(config, data);
    }
    let kernel_cfg = KernelConfig::default();
    let machine = Machine::new(MachineConfig::opteron_4x4(), kernel_cfg.tick);
    let mut kernel = Kernel::new(machine, kernel_cfg);
    let topo = kernel.machine().topology().clone();
    let ntotal = topo.n_cores() as u32;
    let n = config.tenants.len();
    let resident_cap = config.resident_cap.unwrap_or(n).clamp(1, ntotal as usize);
    let slice = ntotal as usize / resident_cap;
    let arbiter = TenantArbiter::shared(config.arbiter, ntotal);

    // Admission queue: tenant indices by (arrival, index).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (config.tenants[i].start_after, i));
    let mut next_pending = 0usize;

    let mut lives: Vec<Option<ChurnLive>> = (0..n).map(|_| None).collect();
    let mut outputs: Vec<Option<TenantOutput>> = (0..n).map(|_| None).collect();
    let mut static_free: Vec<bool> = vec![true; resident_cap];
    let mut n_live = 0usize;
    let mut errors: Vec<String> = Vec::new();
    let mut arbiter_ticks = 0u64;
    let mut arbiter_ns = 0u64;

    let start = kernel.now();
    let deadline = start + config.deadline;
    let mut next_sample = start + config.sample_every;
    let mut drained_from: Option<SimTime> = None;
    let mut last_finish: Option<SimTime> = None;

    loop {
        let now = kernel.now();
        if now >= deadline {
            break;
        }

        // Departures: a resident tenant whose clients all finished
        // leaves — results drained, arbiter slot deregistered, cores
        // freed for redistribution. The departed group keeps its (now
        // inert) workers; they are blocked with no submitters, so they
        // never contend for the reclaimed cores.
        for i in 0..n {
            let done = lives[i].as_ref().is_some_and(|l| {
                l.client_tids
                    .iter()
                    .all(|&tid| kernel.thread_state(tid) == ThreadState::Finished)
            });
            if !done {
                continue;
            }
            if let Some(l) = lives[i].take() {
                let tcfg = &config.tenants[i];
                let results = volcano_db::client::drain_results(&l.logs);
                errors.extend(
                    volcano_db::client::drain_errors(&l.logs)
                        .into_iter()
                        .map(|e| format!("{}: {e}", tcfg.name)),
                );
                if let Some(tid) = l.tid {
                    arbiter.borrow_mut().deregister(tid);
                }
                if let Some(k) = l.static_slot {
                    static_free[k] = true;
                }
                outputs[i] = Some(TenantOutput {
                    config: tcfg.clone(),
                    results,
                    cores_series: l.cores_series,
                    load_series: l.load_series,
                    qps_series: l.qps_series,
                    started_at: l.started_at,
                    finished_at: now,
                    sla_violations: 0,
                    control_steps: l.mechanism.as_ref().map_or(0, |m| m.steps),
                });
                n_live -= 1;
                last_finish = Some(now);
            }
        }

        // Admissions, in arrival order: need a resident slot and (on
        // the elastic path) at least one free core for the initial
        // claim — otherwise the arrival queues until a departure.
        while next_pending < n && n_live < resident_cap {
            let i = order[next_pending];
            let tcfg = &config.tenants[i];
            if now.since(start) < tcfg.start_after {
                break;
            }
            if !config.static_partition && arbiter.borrow().free_cores() == 0 {
                break;
            }
            // Cold start: build the tenant's engine, load its data and
            // start workers at admit time.
            let group = kernel.create_group(CoreMask::all(&topo));
            let engine = Engine::new(
                EngineConfig {
                    flavor: config.flavor,
                    memo_capacity: MEMO_CAPACITY,
                    faults: config.faults.clone(),
                    fault_seed: config.scale.seed,
                    ..EngineConfig::default()
                },
                topo.n_nodes(),
            );
            let loader = match config.warmup {
                Warmup::Loader => Some(CoreId(0)),
                Warmup::Interleave | Warmup::None => None,
            };
            engine.load(kernel.machine_mut(), data, loader);
            if config.warmup == Warmup::Interleave {
                engine.interleave_base(kernel.machine_mut());
            }
            engine.start_workers(&mut kernel, group);

            let (mechanism, tid, static_slot) = if config.static_partition {
                let k = static_free
                    .iter()
                    .position(|&f| f)
                    .expect("n_live < resident_cap guarantees a free slot");
                static_free[k] = false;
                let lo = k * slice;
                let hi = if k + 1 == resident_cap {
                    ntotal as usize
                } else {
                    lo + slice
                };
                let mask = CoreMask::from_cores((lo..hi).map(|c| CoreId(c as u16)));
                kernel.set_group_mask(group, mask);
                (None, None, Some(k))
            } else {
                let tid = arbiter.borrow_mut().register(
                    tcfg.name.clone(),
                    tcfg.weight,
                    tcfg.sla.max_cores,
                );
                let mut mech_cfg =
                    MechanismConfig::cpu_load().with_mode_latency(tcfg.policy.name());
                if let Some(interval) = config.mech_interval {
                    mech_cfg.interval = interval;
                    mech_cfg.min_interval = interval;
                    mech_cfg.actuation_latency = mech_cfg.actuation_latency.min(interval / 2);
                }
                if tcfg.policy == PolicyId::HillClimb {
                    mech_cfg.saturation_guard = None;
                }
                let binding = TenantBinding::new(Rc::clone(&arbiter), tid);
                let mech = ElasticMechanism::install_tenant(
                    &mut kernel,
                    group,
                    engine.space(),
                    tcfg.policy.build(),
                    mech_cfg,
                    binding,
                );
                (Some(mech), Some(tid), None)
            };

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
            let seen = vec![0; logs.len()];
            let load_sampler = os_sim::LoadSampler::new(&kernel, group);
            lives[i] = Some(ChurnLive {
                group,
                engine,
                mechanism,
                tid,
                static_slot,
                logs,
                client_tids,
                load_sampler,
                cores_series: TimeSeries::new(format!("{}_cores", tcfg.name)),
                load_series: TimeSeries::new(format!("{}_load", tcfg.name)),
                qps_series: TimeSeries::new(format!("{}_qps", tcfg.name)),
                seen,
                window_completions: 0,
                started_at: now,
            });
            next_pending += 1;
            n_live += 1;
        }

        let all_done = outputs.iter().all(|o| o.is_some());
        if all_done {
            let from = *drained_from.get_or_insert(now);
            if now.since(from) >= config.drain {
                break;
            }
        }
        kernel.run_tick();

        // Control: poll each resident mechanism, timing executed
        // control ticks on the host clock (measurement only — the
        // elapsed time is recorded, never consulted).
        for l in lives.iter_mut().flatten() {
            if let Some(m) = l.mechanism.as_mut() {
                let before = m.steps;
                // emca-lint: allow(determinism) — host-clock probe for arbitration overhead; measurement-only, never feeds a sim decision
                let t_tick = Instant::now();
                m.poll(&mut kernel);
                if m.steps > before {
                    arbiter_ns += t_tick.elapsed().as_nanos() as u64;
                    arbiter_ticks += m.steps - before;
                }
            }
            for (log, cursor) in l.logs.iter().zip(&mut l.seen) {
                let log = log.borrow();
                for r in &log.results[*cursor..] {
                    if let Some(m) = l.mechanism.as_mut() {
                        m.note_response(r.response());
                    }
                    l.window_completions += 1;
                }
                *cursor = log.results.len();
            }
        }

        if kernel.now() >= next_sample {
            let now = kernel.now();
            let dt = config.sample_every.as_secs_f64();
            for l in lives.iter_mut().flatten() {
                l.cores_series
                    .push(now, kernel.group_mask(l.group).count() as f64);
                let sample = l.load_sampler.sample(&kernel);
                l.load_series.push(now, sample.group_load_pct());
                l.qps_series.push(now, l.window_completions as f64 / dt);
                l.window_completions = 0;
            }
            next_sample = now + config.sample_every;
        }
    }
    let end = kernel.now();
    assert!(
        outputs.iter().all(|o| o.is_some()),
        "churn run hit the deadline ({:?}) with tenants unfinished — raise \
         MultiTenantConfig::deadline",
        config.deadline
    );

    let (denials, yields) = {
        let arb = arbiter.borrow();
        (arb.denials, arb.yields)
    };
    let tenants: Vec<TenantOutput> = outputs.into_iter().flatten().collect();
    MultiTenantOutput {
        tenants,
        wall: last_finish.unwrap_or(end).since(start),
        ntotal,
        arbiter_denials: denials,
        arbiter_yields: yields,
        arbiter_ticks,
        arbiter_ns,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::ArbiterMode;
    use volcano_db::tpch::TpchScale;

    #[test]
    fn churn_spec_parses_and_round_trips() {
        let full = ChurnSpec::parse("64:resident=12:skew=0.8:spread=6").unwrap();
        assert_eq!(full.n, 64);
        assert_eq!(full.resident(), 12);
        assert_eq!(full.skew(), 0.8);
        assert_eq!(full.spread(), 6.0);
        assert_eq!(full.to_string().parse::<u32>().ok(), None);
        assert_eq!(ChurnSpec::parse(&full.to_string()).unwrap(), full);

        let bare = ChurnSpec::parse("16").unwrap();
        assert_eq!(bare, ChurnSpec::new(16));
        assert_eq!(bare.to_string(), "16");
        assert_eq!(bare.resident(), DEFAULT_RESIDENT);
    }

    #[test]
    fn churn_spec_rejects_malformed_input() {
        for bad in [
            "",
            "0",
            "x",
            "8:resident=0",
            "8:resident=x",
            "8:skew=-1",
            "8:skew=nan",
            "8:spread=-2",
            "8:wat=1",
            "8:resident",
        ] {
            assert!(ChurnSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn plans_are_deterministic_and_exactly_sized() {
        let spec = ChurnSpec::parse("64:skew=1.0").unwrap();
        let a = spec.plan(42, 4, 3);
        let b = spec.plan(42, 4, 3);
        assert_eq!(a.tenants.len(), 64);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.clients, y.clients);
            assert_eq!(x.iters, y.iters);
            assert_eq!(x.weight, y.weight);
            assert_eq!(x.arrival, y.arrival);
        }
        let c = spec.plan(43, 4, 3);
        assert!(
            a.tenants
                .iter()
                .zip(&c.tenants)
                .any(|(x, y)| { x.rank != y.rank || x.arrival != y.arrival }),
            "a different seed must reshuffle the plan"
        );
        // Arrival order is the naming order.
        for w in a.tenants.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Every rank appears exactly once.
        let mut ranks: Vec<u32> = a.tenants.iter().map(|t| t.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_skew_shapes_demand() {
        let spec = ChurnSpec::parse("32:skew=1.2").unwrap();
        let plan = spec.plan(7, 8, 5);
        let heavy = plan.tenants.iter().find(|t| t.rank == 1).unwrap();
        let light = plan.tenants.iter().find(|t| t.rank == 32).unwrap();
        assert_eq!(heavy.clients, 8);
        assert_eq!(heavy.iters, 5);
        assert!(heavy.weight > light.weight);
        assert!(light.clients <= 2);
        // Uniform (skew 0) gives everyone the maxima.
        let flat = ChurnSpec::parse("8:skew=0").unwrap().plan(7, 4, 3);
        assert!(flat.tenants.iter().all(|t| t.clients == 4 && t.iters == 3));
        // Expected completions are an exact sum.
        assert_eq!(flat.expected_completions(), 8 * 4 * 3);
    }

    #[test]
    fn churn_run_completes_with_zero_lost_queries() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("6:resident=3:spread=0.05").unwrap();
        let plan = spec.plan(42, 2, 2);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2))
            .with_resident_cap(plan.resident);
        let out = run_tenants_churn(cfg, &data);
        assert_eq!(out.tenants.len(), 6);
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, plan.expected_completions(), "zero lost queries");
        assert!(out.arbiter_ticks > 0, "control ticks must be measured");
        assert!(out.errors.is_empty());
    }

    #[test]
    fn static_partition_pins_each_tenant_to_its_slice() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("4:resident=4:spread=0").unwrap();
        let plan = spec.plan(1, 2, 1);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_resident_cap(plan.resident)
            .with_static_partition();
        let out = run_tenants_churn(cfg, &data);
        let total: u64 = out.tenants.iter().map(|t| t.results.len() as u64).sum();
        assert_eq!(total, plan.expected_completions());
        // 16 cores / 4 slots: nobody ever exceeds their 4-core slice.
        for t in &out.tenants {
            assert!(
                t.cores_max() <= 4.0,
                "{} exceeded its static slice: {}",
                t.config.name,
                t.cores_max()
            );
        }
        assert_eq!(out.arbiter_ticks, 0, "no mechanism runs on the baseline");
    }

    #[test]
    fn arrivals_beyond_the_cap_queue_until_a_departure() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let spec = ChurnSpec::parse("4:resident=1:spread=0").unwrap();
        let plan = spec.plan(3, 1, 1);
        let cfg = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(data.scale)
            .with_mech_interval(SimDuration::from_millis(2))
            .with_resident_cap(1);
        let out = run_tenants_churn(cfg, &data);
        // One resident at a time: admissions are serialized, so the
        // active windows never overlap.
        let mut spans: Vec<(SimTime, SimTime)> = out
            .tenants
            .iter()
            .map(|t| (t.started_at, t.finished_at))
            .collect();
        spans.sort_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "resident_cap=1 must serialize tenants: {spans:?}"
            );
        }
    }
}
