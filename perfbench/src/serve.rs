//! The `threads_serve` workload: `emca_harness::run_serve` on the
//! threads backend, plus the untimed answer pass that runs every query
//! of the mix alone on a full-width `ParEngine`.

use crate::inputs::ServeInputs;
use crate::procfs::{CpuTimes, SchedstatSampler};
use crate::reference::digest;
use emca_harness::{
    run_serve, AdmissionSpec, Alloc, ArrivalSchedule, Backend, RequestOutcome, RunConfig,
    ServeConfig, ServeOutput,
};
use emca_metrics::SimDuration;
use std::sync::Arc;
use std::time::{Duration, Instant};
use volcano_db::client::Workload;
use volcano_db::exec::par::{BaseData, ParEngine, ParEngineConfig};
use volcano_db::tpch::{build_query, QuerySpec, TpchData};

/// Width of the simulated machine, and so of a full-width pool.
pub const FULL_WIDTH: usize = 16;

/// The serving configuration of `schedule`.
pub fn serve_config(
    inputs: &ServeInputs,
    schedule: &ArrivalSchedule,
    backend: Backend,
) -> ServeConfig {
    let base = RunConfig::new(
        Alloc::Adaptive,
        1,
        Workload::Repeat {
            spec: QuerySpec::Q6 { variant: 0 },
            iterations: 1,
        },
    )
    .with_scale(inputs.scale)
    .with_backend(backend);
    ServeConfig {
        base,
        schedule: schedule.clone(),
        admission: AdmissionSpec::Limit {
            max_inflight: 16,
            queue: Some(64),
        },
        sla: inputs.sla,
        drain: SimDuration::from_secs(2),
        retry: None,
        request_deadline: None,
    }
}

/// Outcome tallies of a serving window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Scheduled requests.
    pub offered: u64,
    /// Completed requests.
    pub completed: u64,
    /// Shed at the gate or from the queue, unfinished, or failed.
    pub failed: u64,
    /// Records missing or still `Pending` — requests the server lost.
    pub lost: u64,
}

/// Counts the outcomes of `out` against the `offered` schedule length.
pub fn tally(out: &ServeOutput, offered: usize) -> Tally {
    let mut t = Tally {
        offered: offered as u64,
        lost: offered.saturating_sub(out.records.len()) as u64,
        ..Tally::default()
    };
    for r in &out.records {
        match r.outcome {
            RequestOutcome::Completed => t.completed += 1,
            RequestOutcome::Pending => t.lost += 1,
            RequestOutcome::ShedGate
            | RequestOutcome::ShedTimeout
            | RequestOutcome::Unfinished
            | RequestOutcome::Failed => t.failed += 1,
        }
    }
    t
}

/// One measured serving window.
pub struct Window {
    /// Requests the window's schedule offered.
    pub offered: usize,
    /// What `run_serve` returned.
    pub out: ServeOutput,
    /// Host seconds the call took.
    pub host_s: f64,
    /// Process CPU it consumed.
    pub cpu: Option<CpuTimes>,
    /// Worker runqueue wait (ns) and the worker threads sampled, when
    /// traced and readable.
    pub runq: Option<(u64, usize)>,
}

/// Runs window `index` (cycling through the schedules) on the threads
/// backend. A traced window also runs the `schedstat` sampler over the
/// `emca-worker*` threads.
pub fn window(inputs: &ServeInputs, index: usize, data: &TpchData, traced: bool) -> Window {
    let schedule = &inputs.windows[index % inputs.windows.len()];
    let cfg = serve_config(inputs, schedule, Backend::Threads);
    let sampler =
        traced.then(|| SchedstatSampler::start("emca-worker", Duration::from_millis(100)));
    let cpu0 = CpuTimes::now();
    let t = Instant::now();
    let out = run_serve(&cfg, data);
    let host_s = t.elapsed().as_secs_f64();
    let cpu = cpu0.zip(CpuTimes::now()).map(|(a, b)| b.since(a));
    let runq = sampler
        .and_then(SchedstatSampler::finish)
        .map(|(s, n)| (s.wait_ns, n));
    Window {
        offered: schedule.arrivals.len(),
        out,
        host_s,
        cpu,
        runq,
    }
}

/// Answer and latency of each query of a mix run alone.
#[derive(Clone, Debug)]
pub struct Unloaded {
    /// The query.
    pub spec: QuerySpec,
    /// Its result digest on the threads backend.
    pub digest: u64,
    /// Median wall ms over the repetitions.
    pub ms: f64,
}

/// Runs each query of `specs` alone, `reps` times, on a full-width
/// `ParEngine` (every worker active), timing each run.
pub fn unloaded(
    data: &TpchData,
    specs: &[QuerySpec],
    reps: usize,
) -> Result<Vec<Unloaded>, String> {
    let mut engine = ParEngine::new(
        ParEngineConfig {
            n_workers: FULL_WIDTH,
            initial_active: FULL_WIDTH,
            ..ParEngineConfig::default()
        },
        Arc::new(BaseData::from_tpch(data)),
    );
    let mut out = Vec::with_capacity(specs.len());
    let mut failure = None;
    for spec in specs {
        let mut times = Vec::with_capacity(reps);
        let mut d = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let qid = engine.submit(Arc::new(build_query(spec)), spec.tag());
            match engine.wait_result(qid) {
                Ok(r) => {
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    let got = digest(&r.result);
                    if d.is_some_and(|x| x != got) {
                        failure = Some(format!("{spec:?}: answers differ between repetitions"));
                    }
                    d = Some(got);
                }
                Err(e) => failure = Some(format!("{spec:?} failed on threads: {e}")),
            }
        }
        if let Some(digest) = d {
            out.push(Unloaded {
                spec: *spec,
                digest,
                ms: crate::stats::median(&times),
            });
        }
    }
    engine.shutdown();
    match failure {
        Some(f) => Err(f),
        None => Ok(out),
    }
}
