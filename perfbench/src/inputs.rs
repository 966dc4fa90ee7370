//! The three workloads and the inputs each one generates from the
//! benchmark seed. Every size, rate and SLA is pinned here as an
//! absolute number: nothing is re-probed per run, so a faster commit is
//! offered exactly the same work as a slower one.
//!
//! The database itself is fixed (TPC-H data at generator seed
//! [`DATA_SEED`]); the benchmark seed drives the query streams, the
//! churn plan and the arrival schedule.

use elastic_core::ArbiterMode;
use emca_harness::{
    Alloc, Arrival, ArrivalSchedule, ChurnPlan, ChurnSpec, MultiTenantConfig, RunConfig,
};
use emca_metrics::SimDuration;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchScale};

/// Generator seed of the benchmark database (the reference answers in
/// `reference.txt` are for this database).
pub const DATA_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed-loop mixed TPC-H on the simulator.
    SimMixed,
    /// 256-tenant churn on the simulator.
    SimChurn,
    /// Open-loop serving on real threads.
    ThreadsServe,
}

impl WorkloadKind {
    /// Every workload, in run order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::SimMixed,
        WorkloadKind::SimChurn,
        WorkloadKind::ThreadsServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SimMixed => "sim_mixed",
            WorkloadKind::SimChurn => "sim_churn",
            WorkloadKind::ThreadsServe => "threads_serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Derives an independent 64-bit stream seed from the benchmark seed
/// (splitmix64 finaliser), so each generated input decorrelates from
/// the others.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The database scale of a run: `sf` at full size, the unit-test scale
/// for smoke runs.
fn scale(sf: f64, smoke: bool) -> TpchScale {
    TpchScale {
        sf: if smoke { TpchScale::test_tiny().sf } else { sf },
        seed: DATA_SEED,
    }
}

/// The mixed TPC-H set: 22 queries × 4 parameter variants.
pub fn tpch_mix() -> Vec<QuerySpec> {
    (1..=22)
        .flat_map(|number| (0..4).map(move |variant| QuerySpec::Tpch { number, variant }))
        .collect()
}

/// `sim_mixed`: 16 closed-loop clients, MonetDB flavor, Adaptive policy,
/// each running 80 queries drawn from [`tpch_mix`] at sf 0.25.
pub struct MixedInputs {
    /// The run configuration handed to `emca_harness::run`.
    pub config: RunConfig,
    /// Simulated-response SLA for `goodput_qps`.
    pub sla: SimDuration,
    /// Queries one run must complete.
    pub expected: u64,
}

impl MixedInputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64, smoke: bool) -> MixedInputs {
        let (clients, iterations) = if smoke { (4, 2) } else { (16, 80) };
        let workload = Workload::Mixed {
            specs: tpch_mix(),
            iterations,
            seed: derive_seed(seed, 1),
        };
        MixedInputs {
            config: RunConfig::new(Alloc::Adaptive, clients, workload)
                .with_scale(scale(0.25, smoke)),
            sla: SimDuration::from_millis(500),
            expected: clients as u64 * u64::from(iterations),
        }
    }
}

/// `sim_churn`: 256 tenants with Zipf demand (skew 0.8) arriving within
/// 0.2 simulated seconds through a resident cap of 16, FairShare
/// arbitration with a 2 ms control interval, sf 0.05.
pub struct ChurnInputs {
    /// The expanded plan.
    pub plan: ChurnPlan,
    /// The configuration handed to `emca_harness::run_tenants`.
    pub config: MultiTenantConfig,
    /// Simulated-response SLA for `goodput_qps`.
    pub sla: SimDuration,
}

impl ChurnInputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64, smoke: bool) -> ChurnInputs {
        let (n, resident, spread, max_clients, max_iters) = if smoke {
            (12, 4, 0.05, 2, 2)
        } else {
            (256, 16, 0.2, 4, 40)
        };
        let spec = ChurnSpec {
            n,
            resident: Some(resident),
            skew: Some(0.8),
            spread: Some(spread),
        };
        let plan = spec.plan(derive_seed(seed, 2), max_clients, max_iters);
        let config = MultiTenantConfig::new(ArbiterMode::FairShare, plan.tenant_configs())
            .with_scale(scale(0.05, smoke))
            .with_mech_interval(SimDuration::from_millis(2))
            .with_resident_cap(plan.resident);
        ChurnInputs {
            plan,
            config,
            sla: SimDuration::from_millis(150),
        }
    }
}

/// `threads_serve`: open-loop serving at a fixed absolute rate on the
/// threads backend (default 16-worker width), Adaptive policy behind
/// `limit:16:queue=64`, sf 0.05. Four fifths of the requests run Q6, one
/// fifth is split evenly over five heavier TPC-H queries.
pub struct ServeInputs {
    /// The schedules the serving windows replay, in turn.
    pub windows: Vec<ArrivalSchedule>,
    /// The serving SLA handed to `run_serve`; the admission queue sheds
    /// a request that waited half of it.
    pub sla: SimDuration,
    /// Latency limit `goodput_qps` counts completions against.
    pub latency_limit: SimDuration,
    /// Database scale.
    pub scale: TpchScale,
}

/// Offered rate of `threads_serve`, requests per second: ≈0.43× the
/// ≈690 q/s the mix completed closed-loop (16 clients, Adaptive,
/// threads) on the 2-vCPU host the benchmark was defined on. The
/// Adaptive pool holds 3–4 workers at this rate; see `README.md` for why
/// it is not ≈0.7×.
pub const SERVE_RATE: f64 = 300.0;
/// Length of one `threads_serve` window, seconds.
pub const SERVE_WINDOW_S: f64 = 4.0;
/// Distinct window schedules a run cycles through (a 30 s run serves
/// about seven windows).
pub const SERVE_WINDOWS: usize = 8;
/// Share of `threads_serve` requests that run a heavier TPC-H query.
pub const SERVE_HEAVY_SHARE: f64 = 0.2;
/// `threads_serve` latency limit for `goodput_qps`, ms: about the p90 of
/// the latency from scheduled arrival at definition, so the share of
/// requests within it moves with the latency distribution.
pub const SERVE_LATENCY_LIMIT_MS: u64 = 10;

impl ServeInputs {
    /// The distinct queries of the serving mix: Q6 first, then the
    /// heavier ones.
    pub fn mix() -> Vec<QuerySpec> {
        let mut specs = vec![QuerySpec::Q6 { variant: 0 }];
        specs.extend([1u8, 3, 5, 12, 19].map(|number| QuerySpec::Tpch { number, variant: 0 }));
        specs
    }

    /// One window: exactly `rate × window` arrivals at sorted uniform
    /// times (a Poisson process conditioned on its count) carrying a
    /// seeded shuffle of a fixed query multiset, so every window offers
    /// the same load and the same mix.
    fn window(rng: &mut StdRng, rate: f64, window: f64) -> ArrivalSchedule {
        let mix = Self::mix();
        let n = (rate * window).round() as usize;
        let heavy = (n as f64 * SERVE_HEAVY_SHARE).round() as usize;
        let mut specs: Vec<QuerySpec> = (0..n)
            .map(|i| {
                if i < heavy {
                    mix[1 + i % (mix.len() - 1)]
                } else {
                    mix[0]
                }
            })
            .collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            specs.swap(i, j);
        }
        let mut times: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..window)).collect();
        times.sort_by(f64::total_cmp);
        ArrivalSchedule {
            arrivals: times
                .into_iter()
                .zip(specs)
                .map(|(t, spec)| Arrival {
                    at: SimDuration::from_secs_f64(t),
                    spec,
                })
                .collect(),
            horizon: SimDuration::from_secs_f64(window),
        }
    }

    /// Inputs for `seed`.
    pub fn new(seed: u64, smoke: bool) -> ServeInputs {
        let (rate, window) = if smoke {
            (100.0, 0.5)
        } else {
            (SERVE_RATE, SERVE_WINDOW_S)
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
        ServeInputs {
            windows: (0..SERVE_WINDOWS)
                .map(|_| Self::window(&mut rng, rate, window))
                .collect(),
            sla: SimDuration::from_millis(200),
            latency_limit: SimDuration::from_millis(SERVE_LATENCY_LIMIT_MS),
            scale: scale(0.05, smoke),
        }
    }

    /// Every window back to back: the schedule the simulated twin
    /// serves.
    pub fn concatenated(&self) -> ArrivalSchedule {
        let mut arrivals = Vec::new();
        let mut offset = SimDuration::ZERO;
        for w in &self.windows {
            arrivals.extend(w.arrivals.iter().map(|a| Arrival {
                at: offset + a.at,
                spec: a.spec,
            }));
            offset += w.horizon;
        }
        ArrivalSchedule {
            arrivals,
            horizon: offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = ServeInputs::new(7, false);
        let b = ServeInputs::new(7, false);
        let c = ServeInputs::new(8, false);
        assert_eq!(a.concatenated().render(), b.concatenated().render());
        assert_ne!(a.concatenated().render(), c.concatenated().render());
        for w in &a.windows {
            assert_eq!(w.arrivals.len(), 1200);
            for spec in &ServeInputs::mix()[1..] {
                let n = w.arrivals.iter().filter(|x| x.spec == *spec).count();
                assert_eq!(n, 48, "{spec:?}");
            }
        }
        let twin = a.concatenated();
        assert_eq!(twin.arrivals.len(), 1200 * SERVE_WINDOWS);
        assert!(twin.arrivals.windows(2).all(|p| p[0].at <= p[1].at));

        let p = ChurnInputs::new(7, false);
        let q = ChurnInputs::new(7, false);
        assert_eq!(p.plan.tenants.len(), 256);
        assert!(p
            .plan
            .tenants
            .iter()
            .zip(&q.plan.tenants)
            .all(|(x, y)| x.arrival == y.arrival && x.rank == y.rank));
        assert_eq!(MixedInputs::new(7, false).expected, 1280);
    }
}
