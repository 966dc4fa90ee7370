//! Real-parallel execution backend: dedicated OS-thread workers over the
//! same dataflow the simulated engine runs.
//!
//! [`ParEngine`] spawns `n_workers` OS threads up front. Each worker owns
//! a deque fed by slice-affinity lineage (mitosis chains a slice through
//! the operator pipeline on one dataflow thread) and steals from its
//! peers when idle — the same MonetDB-style discipline as
//! [`EngineCore::pop_task`](super::engine::EngineCore::pop_task). The
//! elastic mechanism actuates the pool for real: *grow/shrink* park and
//! unpark workers ([`ParEngine::set_active`]), *placement* is the unpark
//! order ([`ParEngine::set_wake_order`] — advisory, since the workspace
//! has no affinity syscalls; see `docs/ARCHITECTURE.md`).
//!
//! Scheduling width (partition counts, lineage preferences) depends only
//! on `n_workers`, never on the active count, and partials are merged in
//! strict partition order by the same `assemble_parts` the simulator
//! uses (`super::engine::assemble_parts`) —
//! so with `n_workers` equal to the simulated machine's core count both
//! backends produce bitwise-identical query results, and shrinking the
//! pool changes timing, not answers. Projections are late-materialised
//! here exactly as on the simulator: their value is the positions they
//! read through, consumers gather their partition from the base column
//! through the same `ExecInputs::node_vals`, and a projection at a plan
//! root is gathered once, outside the pool lock, when it is assembled.
//! There is no memo cache here: every execution is real work, which is
//! the point of this backend.
//!
//! ## Failure model
//!
//! A panic inside operator evaluation must not poison the pool mutex
//! and wedge every parked peer. Evaluation and assembly run under
//! `catch_unwind`; a panicking worker marks itself **dead**, drains its
//! deque back to the global queue, fails the offending query with a
//! typed [`QueryError`], and exits its thread. Survivors keep serving
//! (dead workers are skipped in the wake order), and when the last
//! worker dies every in-flight and future query fails fast with
//! [`QueryError::PoolDead`]. All lock acquisitions recover from
//! poisoning (`unwrap_or_else(PoisonError::into_inner)`) so a panic
//! elsewhere can never wedge the pool either.
//!
//! ## Self-healing
//!
//! Panics are *permanent* deaths (the worker is provably wedged on a
//! deterministic input), but workers can also go dark without a panic:
//! an injected fault ([`FaultPlan`]), a scheduling stall, a hung
//! syscall. Every worker bumps a per-worker heartbeat counter once per
//! loop iteration (parked workers wake on a timeout to keep beating),
//! and a **watchdog** thread sweeps the counters. A heartbeat frozen
//! for [`ParEngineConfig::stall_after`] gets recovered: the watchdog
//! bumps the worker's *generation*, requeues the one task the worker
//! was holding (`running[idx]`) **exactly once** — only if its partial
//! was never committed — drains the worker's deque back to the global
//! queue, respawns a replacement thread under the new generation, and
//! counts the repair in [`EngineStats::engine_recoveries`] /
//! [`EngineStats::recovery_ms`]. A superseded worker that turns out to
//! be merely slow discovers the generation bump at its next lock
//! acquisition and exits without committing, and partial commits are
//! additionally gated on "this partition is still empty", so a
//! watchdog false positive can duplicate *work* but never a *result* —
//! the backend-equivalence invariant survives recovery.

use crate::exec::engine::{
    assemble_parts, evaluate_partition_on, primary_input, root_result, EngineStats, ExecInputs,
    QueryResult,
};
use crate::exec::fault::{FaultPlan, WorkerFaultKind};
use crate::exec::mat::Mat;
use crate::exec::plan::{ColRef, NodeId, PhysOp, Plan};
use crate::exec::task::{n_parts_for, part_range, Partial, QueryId};
use crate::exec::tomograph::Tomograph;
use crate::storage::bat::ColData;
use crate::tpch::gen::TpchData;
use emca_metrics::{FxHashMap, SimDuration, SimTime};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a query produced no result. The pool stays serviceable after
/// either: callers decide whether to retry, shed, or abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A worker panicked evaluating this query's operator; the worker is
    /// dead and the pool degraded to the survivors.
    WorkerPanicked {
        /// MAL name of the operator that was evaluating.
        op: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Every worker has died; the pool cannot execute anything.
    PoolDead,
    /// The query was poisoned at the front door by the armed
    /// [`FaultPlan`] (`badquery:rate=…`); it never reached a worker.
    BadQuery,
    /// An internal dataflow invariant broke (a bug, reported instead of
    /// unwound).
    Internal(&'static str),
}

impl QueryError {
    /// Whether resubmitting the same query can plausibly succeed: the
    /// serve-path retry policy retries worker deaths (another worker —
    /// possibly a watchdog respawn — can run it) but not poisoned
    /// queries (deterministically poisoned again) or internal bugs.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            QueryError::WorkerPanicked { .. } | QueryError::PoolDead
        )
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::WorkerPanicked { op, message } => {
                write!(f, "worker panicked in {op}: {message}")
            }
            QueryError::PoolDead => write!(f, "every pool worker has died"),
            QueryError::BadQuery => write!(f, "query poisoned by the armed fault plan"),
            QueryError::Internal(what) => write!(f, "internal engine invariant broke: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Immutable base-table columns shared by every worker (all `Arc`-backed,
/// so cloning a snapshot is pointer-cheap).
pub struct BaseData {
    cols: FxHashMap<(&'static str, &'static str), ColData>,
    rows: FxHashMap<&'static str, usize>,
}

impl BaseData {
    /// Snapshots the generated database for lock-free worker reads.
    pub fn from_tpch(data: &TpchData) -> Self {
        let mut cols = FxHashMap::default();
        let mut rows = FxHashMap::default();
        for table in &data.tables {
            for gc in &table.columns {
                rows.entry(table.name).or_insert_with(|| gc.data.len());
                cols.insert((table.name, gc.name), gc.data.clone());
            }
        }
        BaseData { cols, rows }
    }

    fn col(&self, c: &ColRef) -> &ColData {
        self.cols
            .get(&(c.table, c.column))
            // emca-lint: allow(panic-freedom) — plan/catalog mismatch is a construction bug; workers evaluate under catch_unwind, so this fails the query, not the pool
            .unwrap_or_else(|| panic!("unknown column {}.{}", c.table, c.column))
    }

    fn rows(&self, table: &str) -> usize {
        *self
            .rows
            .get(table)
            // emca-lint: allow(panic-freedom) — plan/catalog mismatch is a construction bug; workers evaluate under catch_unwind, so this fails the query, not the pool
            .unwrap_or_else(|| panic!("unknown table {table}"))
    }
}

/// [`ExecInputs`] over a lock-free snapshot: base columns plus the mats
/// of already-finished nodes, cloned under the lock before evaluation.
struct Snapshot<'a> {
    plan: &'a Plan,
    base: &'a BaseData,
    mats: &'a [Option<Mat>],
}

impl ExecInputs for Snapshot<'_> {
    fn plan(&self) -> &Plan {
        self.plan
    }

    fn col_data(&self, c: &ColRef) -> &ColData {
        self.base.col(c)
    }

    fn node_mat(&self, n: NodeId) -> &Mat {
        // emca-lint: allow(panic-freedom) — dataflow ordering invariant; only reachable inside catch_unwind (evaluate/assemble), so it fails the query, not the pool
        self.mats[n.idx()].as_ref().expect("input mat ready")
    }
}

/// One partition of one plan node (the threads-backend task descriptor;
/// no simulated placement fields).
#[derive(Clone, Copy, Debug)]
struct ParTask {
    qid: u64,
    node: NodeId,
    part: u32,
    n_parts: u32,
    pref_worker: Option<u32>,
}

struct ParNode {
    n_parts: u32,
    remaining: u32,
    waiting_inputs: u32,
    partials: Vec<Option<Partial>>,
    mat: Option<Mat>,
    /// Which worker executed each partition (slice-affinity lineage).
    part_worker: Vec<Option<u32>>,
}

struct ParQuery {
    label: String,
    spec_tag: u32,
    plan: Arc<Plan>,
    dependents: Vec<Vec<NodeId>>,
    nodes: Vec<ParNode>,
    pending_nodes: usize,
    submitted: SimTime,
    busy: SimDuration,
}

/// Everything behind the pool mutex.
struct State {
    queries: FxHashMap<u64, ParQuery>,
    next_qid: u64,
    global: VecDeque<ParTask>,
    per_worker: Vec<VecDeque<ParTask>>,
    /// `rank_of[worker]` — a worker runs while its rank (among live
    /// workers) is below `active`; the mechanism's placement preference
    /// is expressed by permuting ranks ([`ParEngine::set_wake_order`]).
    rank_of: Vec<usize>,
    active: usize,
    shutdown: bool,
    /// Workers that panicked and exited; skipped in the wake order and
    /// never scheduled to again.
    dead: Vec<bool>,
    n_dead: usize,
    /// The one task each worker popped and is evaluating right now.
    /// Set at pop, cleared at commit (both under this mutex): if the
    /// worker dies in between, the watchdog requeues it exactly once.
    running: Vec<Option<ParTask>>,
    /// Incarnation counter per worker slot. The watchdog bumps it when
    /// it recovers a worker; a thread whose generation no longer
    /// matches has been superseded and must exit without committing.
    worker_gen: Vec<u64>,
    results: FxHashMap<u64, Result<QueryResult, QueryError>>,
    stats: EngineStats,
    tomograph: Tomograph,
    /// Total worker-busy wall nanoseconds (the pool controller's CPU-load
    /// signal).
    busy_ns: u64,
}

impl State {
    /// This worker's rank counting live workers only, so dead workers
    /// are transparently skipped by grow/shrink.
    fn live_rank(&self, idx: usize) -> usize {
        let mine = self.rank_of[idx];
        (0..self.rank_of.len())
            .filter(|&w| !self.dead[w] && self.rank_of[w] < mine)
            .count()
    }
}

/// An armed fault plan plus its runtime bookkeeping (which scheduled
/// worker faults already fired, and the wall-clock zero the fault
/// offsets are measured from).
struct FaultsRt {
    plan: FaultPlan,
    seed: u64,
    t0: Instant,
    fired: Vec<bool>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for tasks or unparking.
    work: Condvar,
    /// Clients wait here for query completion.
    done: Condvar,
    base: Arc<BaseData>,
    n_workers: usize,
    epoch: Instant,
    cfg: ParEngineConfig,
    /// Per-worker liveness counters, bumped once per worker loop
    /// iteration; the watchdog's only health signal.
    heartbeats: Vec<AtomicU64>,
    /// The armed fault plan, if any ([`ParEngine::arm_faults`]).
    faults: Mutex<Option<FaultsRt>>,
    /// Fast-path gate so un-faulted runs never touch the `faults`
    /// mutex (the fault plane must be fully inert when unused).
    faults_armed: AtomicBool,
    /// Worker thread handles — shared (not on [`ParEngine`]) because
    /// the watchdog pushes respawned workers here too.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Locks the pool state, recovering from poisoning: the invariants
    /// behind this mutex are repaired by the dead-worker path, never
    /// abandoned mid-update (updates happen outside the lock and commit
    /// under it), so a poisoned guard's data is still consistent.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for work with a bounded park so the worker keeps
    /// heartbeating: a worker that waited forever would be
    /// indistinguishable from a dead one.
    fn wait_work_timeout<'a>(
        &self,
        guard: MutexGuard<'a, State>,
        dur: Duration,
    ) -> MutexGuard<'a, State> {
        self.work
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    fn wait_done<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.done
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// How long a parked worker sleeps between heartbeats: well inside
    /// the watchdog's stall window so idle workers never look dead.
    fn worker_poll(&self) -> Duration {
        (self.cfg.stall_after / 4).clamp(Duration::from_millis(1), Duration::from_millis(50))
    }

    /// Pops the next due fault for worker `idx`, if any. Each scheduled
    /// fault fires at most once; with no plan armed this is a single
    /// relaxed atomic load.
    fn due_fault(&self, idx: usize) -> Option<WorkerFaultKind> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut guard = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
        let rt = guard.as_mut()?;
        let elapsed = rt.t0.elapsed().as_nanos() as u64;
        for (i, wf) in rt.plan.worker_faults.iter().enumerate() {
            if rt.fired[i] || wf.worker as usize != idx {
                continue;
            }
            if elapsed >= wf.at.as_nanos() {
                rt.fired[i] = true;
                return Some(wf.kind);
            }
        }
        None
    }

    /// Whether the armed fault plan poisons query `qid` (deterministic
    /// in the plan seed and qid; see [`FaultPlan::bad_query`]).
    fn query_poisoned(&self, qid: u64) -> bool {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return false;
        }
        let guard = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
        guard
            .as_ref()
            .is_some_and(|rt| rt.plan.bad_query(rt.seed, qid))
    }
}

/// Registers a worker thread handle for join-at-shutdown.
fn push_handle(shared: &Shared, h: JoinHandle<()>) {
    shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(h);
}

/// Construction parameters for the thread pool.
#[derive(Clone, Copy, Debug)]
pub struct ParEngineConfig {
    /// Pool size — also the scheduling width that decides partition
    /// counts (match the simulated machine's core count for sim/threads
    /// result equivalence).
    pub n_workers: usize,
    /// Workers unparked at start (the rest wait for
    /// [`ParEngine::set_active`]).
    pub initial_active: usize,
    /// How long a worker's heartbeat may stay frozen before the
    /// watchdog declares it dead/stalled and recovers it. Must comfortably
    /// exceed one operator-partition evaluation (a worker does not beat
    /// mid-evaluation); false positives are safe but waste work.
    pub stall_after: Duration,
    /// Watchdog sweep interval (also bounds shutdown-join latency).
    pub sweep: Duration,
}

impl Default for ParEngineConfig {
    fn default() -> Self {
        ParEngineConfig {
            n_workers: 1,
            initial_active: 1,
            stall_after: Duration::from_millis(500),
            sweep: Duration::from_millis(50),
        }
    }
}

/// The real-parallel engine: a worker pool plus the dataflow state.
pub struct ParEngine {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl ParEngine {
    /// Spawns the pool. All `n_workers` threads start immediately;
    /// workers ranked at or above `initial_active` park until grown. A
    /// watchdog thread sweeps worker heartbeats from the start — self-
    /// healing is always on, fault plan or not.
    pub fn new(cfg: ParEngineConfig, base: Arc<BaseData>) -> Self {
        let n = cfg.n_workers.max(1);
        let cfg = ParEngineConfig {
            n_workers: n,
            ..cfg
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queries: FxHashMap::default(),
                next_qid: 0,
                global: VecDeque::new(),
                per_worker: (0..n).map(|_| VecDeque::new()).collect(),
                rank_of: (0..n).collect(),
                active: cfg.initial_active.clamp(1, n),
                shutdown: false,
                dead: vec![false; n],
                n_dead: 0,
                running: vec![None; n],
                worker_gen: vec![0; n],
                results: FxHashMap::default(),
                stats: EngineStats::default(),
                tomograph: Tomograph::new(),
                busy_ns: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            base,
            n_workers: n,
            epoch: Instant::now(),
            cfg,
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            faults: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
            handles: Mutex::new(Vec::with_capacity(n + 4)),
        });
        for idx in 0..n {
            let worker = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("emca-worker{idx}"))
                .spawn(move || worker_loop(worker, idx, 0))
                // emca-lint: allow(panic-freedom) — construction-time spawn failure (fd/thread exhaustion) happens before any query exists; nothing to degrade to
                .expect("spawn worker thread");
            push_handle(&shared, h);
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("emca-watchdog".to_string())
                .spawn(move || watchdog_loop(shared))
                // emca-lint: allow(panic-freedom) — construction-time spawn failure happens before any query exists; nothing to degrade to
                .expect("spawn watchdog thread")
        };
        ParEngine {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// Arms a deterministic fault plan: worker faults fire at their
    /// offsets measured from *now*, and `badquery` poisoning applies to
    /// every later submission. Arm once, before the run's first query;
    /// an empty plan is a no-op (the fault plane stays fully inert).
    pub fn arm_faults(&self, plan: &FaultPlan, seed: u64) {
        if plan.is_empty() {
            return;
        }
        let fired = vec![false; plan.worker_faults.len()];
        let mut guard = self
            .shared
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(FaultsRt {
            plan: plan.clone(),
            seed,
            t0: Instant::now(),
            fired,
        });
        drop(guard);
        self.shared.faults_armed.store(true, Ordering::Relaxed);
    }

    /// Workers the allocator may still count on: pool width minus
    /// permanently dead (panicked or unrespawnable) workers. Watchdog-
    /// recovered workers stay live; the elastic controller clamps its
    /// allocation to this so claims stay honest during degradation.
    pub fn live_workers(&self) -> usize {
        self.shared.n_workers - self.shared.lock_state().n_dead
    }

    /// Pool size (scheduling width).
    pub fn n_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// Workers that have panicked and exited.
    pub fn dead_workers(&self) -> usize {
        self.shared.lock_state().n_dead
    }

    /// Wall-clock time since pool start, as simulation time (both
    /// backends report [`QueryResult`] stamps on the same axis).
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.shared.epoch.elapsed().as_nanos() as u64)
    }

    /// Submits a query; workers are notified immediately. The result is
    /// fetched with [`ParEngine::wait_result`]. On a fully dead pool the
    /// query fails fast with [`QueryError::PoolDead`] instead of queuing
    /// forever.
    pub fn submit(&self, plan: Arc<Plan>, spec_tag: u32) -> QueryId {
        assert!(!plan.is_empty(), "cannot submit an empty plan");
        let submitted = self.now();
        let mut st = self.shared.lock_state();
        let qid = st.next_qid;
        st.next_qid += 1;
        st.stats.queries_submitted += 1;
        if st.n_dead == self.shared.n_workers {
            st.results.insert(qid, Err(QueryError::PoolDead));
            drop(st);
            self.shared.done.notify_all();
            return QueryId(qid);
        }
        if self.shared.faults_armed.load(Ordering::Relaxed) {
            // The poison draw locks the fault plan; take it outside the
            // state lock (the qid is already allocated, so the draw is
            // deterministic regardless of the interleaving).
            drop(st);
            if self.shared.query_poisoned(qid) {
                let mut st = self.shared.lock_state();
                st.results.insert(qid, Err(QueryError::BadQuery));
                drop(st);
                self.shared.done.notify_all();
                return QueryId(qid);
            }
            st = self.shared.lock_state();
            // The pool may have fully died while the lock was released.
            if st.n_dead == self.shared.n_workers {
                st.results.insert(qid, Err(QueryError::PoolDead));
                drop(st);
                self.shared.done.notify_all();
                return QueryId(qid);
            }
        }
        let dependents = plan.dependents();
        let nodes: Vec<ParNode> = plan
            .nodes()
            .iter()
            .map(|op| ParNode {
                n_parts: 0,
                remaining: 0,
                waiting_inputs: op.inputs().len() as u32,
                partials: Vec::new(),
                mat: None,
                part_worker: Vec::new(),
            })
            .collect();
        let pending = nodes.len();
        let ready: Vec<NodeId> = plan
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.inputs().is_empty())
            .map(|(i, _)| NodeId(i as u16))
            .collect();
        st.queries.insert(
            qid,
            ParQuery {
                label: plan.label.clone(),
                spec_tag,
                plan,
                dependents,
                nodes,
                pending_nodes: pending,
                submitted,
                busy: SimDuration::ZERO,
            },
        );
        for node in ready {
            schedule_node(&mut st, &self.shared.base, self.shared.n_workers, qid, node);
        }
        drop(st);
        self.shared.work.notify_all();
        QueryId(qid)
    }

    /// Non-blocking result fetch: returns `qid`'s outcome if it has
    /// completed (or failed), `None` while still in flight. The serving
    /// dispatcher polls this for every in-flight request instead of
    /// blocking per query.
    pub fn try_result(&self, qid: QueryId) -> Option<Result<QueryResult, QueryError>> {
        self.shared.lock_state().results.remove(&qid.0)
    }

    /// Blocks until `qid` completes and returns its outcome. A query
    /// whose worker panicked resolves to `Err` instead of hanging.
    pub fn wait_result(&self, qid: QueryId) -> Result<QueryResult, QueryError> {
        let mut st = self.shared.lock_state();
        loop {
            if let Some(r) = st.results.remove(&qid.0) {
                return r;
            }
            // Unknown qid on a dead pool would otherwise wait forever.
            if !st.queries.contains_key(&qid.0) && st.n_dead == self.shared.n_workers {
                return Err(QueryError::PoolDead);
            }
            st = self.shared.wait_done(st);
        }
    }

    /// Unparks the first `n` live workers in wake order and parks the
    /// rest (the pool analogue of the simulator's cpuset grow/shrink). A
    /// worker mid-task finishes its task before re-checking its rank, so
    /// shrink has the same finish-current-slice semantics as the
    /// simulated actuation. Clamped to `1..=n_workers`.
    pub fn set_active(&self, n: usize) {
        let mut st = self.shared.lock_state();
        st.active = n.clamp(1, self.shared.n_workers);
        drop(st);
        self.shared.work.notify_all();
    }

    /// Currently unparked workers.
    pub fn active(&self) -> usize {
        self.shared.lock_state().active
    }

    /// Sets the unpark order: `order[r]` is the worker holding rank `r`,
    /// and ranks below the active count run. This is how a placement
    /// mode expresses *which* workers an allocation uses (dense packs
    /// neighbours, sparse strides across groups); without OS affinity
    /// syscalls in this workspace it is advisory. Workers absent from
    /// `order` keep ranks above every listed one (never scheduled while
    /// the listed workers cover the active count).
    pub fn set_wake_order(&self, order: &[usize]) {
        let n = self.shared.n_workers;
        let mut st = self.shared.lock_state();
        let mut next_rank = order.len();
        let mut seen = vec![false; n];
        for (rank, &w) in order.iter().enumerate() {
            assert!(w < n, "wake order names worker {w} of a {n}-wide pool");
            assert!(!seen[w], "wake order repeats worker {w}");
            seen[w] = true;
            st.rank_of[w] = rank;
        }
        for (w, seen) in seen.iter().enumerate() {
            if !seen {
                st.rank_of[w] = next_rank;
                next_rank += 1;
            }
        }
        drop(st);
        self.shared.work.notify_all();
    }

    /// Outstanding (queued) task count.
    pub fn queued_tasks(&self) -> usize {
        let st = self.shared.lock_state();
        st.global.len() + st.per_worker.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Number of in-flight queries.
    pub fn active_queries(&self) -> usize {
        self.shared.lock_state().queries.len()
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.lock_state().stats
    }

    /// Total worker-busy wall nanoseconds so far (monotone; the pool
    /// controller differences it for its CPU-load signal).
    pub fn busy_ns(&self) -> u64 {
        self.shared.lock_state().busy_ns
    }

    /// Per-operator statistics snapshot.
    pub fn tomograph(&self) -> Tomograph {
        self.shared.lock_state().tomograph.clone()
    }

    /// Stops and joins every worker and the watchdog. Called by
    /// `Drop`; explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        // Watchdog first, so no new workers are respawned mid-join.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut handles = self
                .shared
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            handles.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for ParEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Length of the primary input an operator partitions over (mirrors the
/// simulated engine's `primary_input_len`).
fn primary_len_of(
    plan: &Plan,
    node: NodeId,
    mat_len: impl Fn(NodeId) -> usize,
    base: &BaseData,
) -> usize {
    match plan.node(node) {
        PhysOp::ScanSelect { col, .. } => base.rows(col.table),
        PhysOp::SelectAnd { candidates, .. } => mat_len(*candidates),
        PhysOp::SelectColCmp {
            candidates, left, ..
        } => match candidates {
            Some(c) => mat_len(*c),
            None => base.rows(left.table),
        },
        PhysOp::Project { positions, .. } => mat_len(*positions),
        PhysOp::ProjectSide { pairs, .. } => mat_len(*pairs),
        PhysOp::BinOp { left, .. } => mat_len(*left),
        PhysOp::AggrSum { values } => mat_len(*values),
        PhysOp::GroupAgg { keys, .. } => mat_len(*keys),
        PhysOp::JoinBuild { keys } => mat_len(*keys),
        PhysOp::JoinProbe { probe, .. } => mat_len(*probe),
        PhysOp::TopN { input, .. } => mat_len(*input),
    }
}

/// Splits a ready node into partition tasks and enqueues them, with the
/// same partition-count and lineage rules as the simulated engine
/// (`workers` here is the pool's scheduling width, not the active
/// count — results must not depend on the current allocation). Tasks
/// preferring a dead worker fall through to the global queue.
fn schedule_node(st: &mut State, base: &BaseData, workers: usize, qid: u64, node: NodeId) {
    let Some(q) = st.queries.get_mut(&qid) else {
        return; // query failed by a dying peer; nothing to schedule
    };
    let primary_len = {
        let nodes = &q.nodes;
        primary_len_of(
            &q.plan,
            node,
            |n| nodes[n.idx()].mat.as_ref().map_or(0, |m| m.len()),
            base,
        )
    };
    let n_parts = match q.plan.node(node) {
        PhysOp::TopN { .. } => 1,
        _ => n_parts_for(primary_len, workers),
    };
    let lineage: Option<&[Option<u32>]> =
        primary_input(&q.plan, node).map(|i| q.nodes[i.idx()].part_worker.as_slice());
    let prefs: Vec<Option<u32>> = (0..n_parts)
        .map(|part| match lineage {
            Some(pw) if !pw.is_empty() => pw[(part as usize * pw.len()) / n_parts as usize],
            _ => Some(((qid as u32).wrapping_add(part)) % workers as u32),
        })
        .collect();
    let nr = &mut q.nodes[node.idx()];
    nr.n_parts = n_parts;
    nr.remaining = n_parts;
    nr.partials = (0..n_parts).map(|_| None).collect();
    nr.part_worker = vec![None; n_parts as usize];
    for part in 0..n_parts {
        let task = ParTask {
            qid,
            node,
            part,
            n_parts,
            pref_worker: prefs[part as usize],
        };
        st.stats.tasks_created += 1;
        match task.pref_worker {
            Some(w) if (w as usize) < st.per_worker.len() && !st.dead[w as usize] => {
                st.per_worker[w as usize].push_back(task)
            }
            _ => st.global.push_back(task),
        }
    }
}

/// Worker-deque pop: own deque LIFO (depth-first, cache-hot consumer
/// first), then the global queue, then FIFO steals from peers.
fn pop_task(st: &mut State, idx: usize) -> Option<ParTask> {
    if let Some(t) = st.per_worker[idx].pop_back() {
        return Some(t);
    }
    if let Some(t) = st.global.pop_front() {
        return Some(t);
    }
    for i in 0..st.per_worker.len() {
        if i == idx {
            continue;
        }
        if let Some(t) = st.per_worker[i].pop_front() {
            st.stats.engine_steals += 1;
            return Some(t);
        }
    }
    None
}

/// Renders a `catch_unwind` payload for the [`QueryError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fails one query with a typed error and wakes its waiting client.
fn fail_query(shared: &Shared, st: &mut State, qid: u64, error: QueryError) {
    if st.queries.remove(&qid).is_some() {
        st.results.insert(qid, Err(error));
    }
    shared.done.notify_all();
}

/// The last live worker is gone: fail everything in flight fast
/// instead of queuing forever.
fn collapse_pool(st: &mut State) {
    let in_flight: Vec<u64> = st.queries.keys().copied().collect();
    for q in in_flight {
        st.queries.remove(&q);
        st.results.insert(q, Err(QueryError::PoolDead));
    }
    st.global.clear();
    for dq in &mut st.per_worker {
        dq.clear();
    }
}

/// The dead-worker path: marks `idx` dead, rehomes its queued tasks,
/// fails the query it was executing, and — when it was the last live
/// worker — fails everything else with [`QueryError::PoolDead`]. The
/// caller (the worker thread) returns right after. A *panicked* worker
/// is permanently dead: the panic was deterministic, so the watchdog
/// never respawns into it (`dead[idx]` is skipped in its sweep).
fn worker_dies(shared: &Shared, st: &mut State, idx: usize, qid: u64, error: QueryError) {
    eprintln!(
        "[par] worker {idx} died ({error}); pool degrades to {} live workers",
        shared.n_workers - st.n_dead - 1
    );
    st.running[idx] = None;
    st.dead[idx] = true;
    st.n_dead += 1;
    // Rehome tasks routed to this worker so lineage preferences cannot
    // strand them.
    let orphans = std::mem::take(&mut st.per_worker[idx]);
    st.global.extend(orphans);
    fail_query(shared, st, qid, error);
    if st.n_dead == shared.n_workers {
        collapse_pool(st);
    }
    shared.work.notify_all();
    shared.done.notify_all();
}

/// One watchdog recovery: supersede worker `idx`'s generation, requeue
/// the task it was holding (exactly once — only if its partial was
/// never committed and the query is still live), rehome its deque, and
/// respawn a replacement thread under the new generation.
fn recover_worker(shared: &Arc<Shared>, idx: usize, downtime: Duration) {
    let gen = {
        let mut st = shared.lock_state();
        if st.shutdown || st.dead[idx] {
            return;
        }
        st.worker_gen[idx] += 1;
        let gen = st.worker_gen[idx];
        if let Some(task) = st.running[idx].take() {
            let requeue = st.queries.get(&task.qid).is_some_and(|q| {
                let nr = &q.nodes[task.node.idx()];
                nr.partials.len() == task.n_parts as usize
                    && nr.partials[task.part as usize].is_none()
            });
            if requeue {
                st.global.push_back(task);
            }
        }
        let orphans = std::mem::take(&mut st.per_worker[idx]);
        st.global.extend(orphans);
        st.stats.engine_recoveries += 1;
        st.stats.recovery_ms += downtime.as_secs_f64() * 1e3;
        gen
    };
    eprintln!(
        "[par] watchdog: worker {idx} unresponsive for {downtime:?}; requeued its work, respawning (gen {gen})"
    );
    // Spawn outside the state lock.
    let spawned = {
        let worker = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("emca-worker{idx}g{gen}"))
            .spawn(move || worker_loop(worker, idx, gen))
    };
    match spawned {
        Ok(h) => push_handle(shared, h),
        Err(e) => {
            // Cannot heal this slot: degrade it permanently, like a
            // panicked worker.
            eprintln!("[par] failed to respawn worker {idx} ({e}); pool degrades");
            let mut st = shared.lock_state();
            if !st.dead[idx] {
                st.dead[idx] = true;
                st.n_dead += 1;
                if st.n_dead == shared.n_workers {
                    collapse_pool(&mut st);
                }
            }
        }
    }
    shared.work.notify_all();
    shared.done.notify_all();
}

/// The watchdog: sweeps worker heartbeats every `cfg.sweep`; a live,
/// not-permanently-dead worker whose heartbeat stayed frozen for
/// `cfg.stall_after` is recovered via [`recover_worker`].
fn watchdog_loop(shared: Arc<Shared>) {
    let sweep = shared.cfg.sweep.max(Duration::from_millis(1));
    let stall_after = shared.cfg.stall_after.max(sweep);
    let n = shared.n_workers;
    let mut seen: Vec<u64> = (0..n)
        .map(|i| shared.heartbeats[i].load(Ordering::Relaxed))
        .collect();
    let mut since: Vec<Instant> = vec![Instant::now(); n];
    loop {
        std::thread::sleep(sweep);
        let now = Instant::now();
        let mut stalled: Vec<(usize, Duration)> = Vec::new();
        {
            let st = shared.lock_state();
            if st.shutdown {
                return;
            }
            for i in 0..n {
                let beat = shared.heartbeats[i].load(Ordering::Relaxed);
                if beat != seen[i] {
                    seen[i] = beat;
                    since[i] = now;
                    continue;
                }
                if st.dead[i] {
                    continue;
                }
                let down = now.duration_since(since[i]);
                if down >= stall_after {
                    stalled.push((i, down));
                }
            }
        }
        for (idx, down) in stalled {
            recover_worker(&shared, idx, down);
            // The replacement starts a fresh heartbeat epoch.
            seen[idx] = shared.heartbeats[idx].load(Ordering::Relaxed);
            since[idx] = Instant::now();
        }
    }
}

/// The dedicated worker loop: park while ranked out of the allocation,
/// otherwise pop a task, snapshot its inputs under the lock, evaluate
/// outside it (under `catch_unwind`), and complete. `my_gen` is the
/// incarnation this thread was spawned under: a generation mismatch at
/// any lock acquisition means the watchdog superseded this worker (it
/// already requeued the in-flight task), so the thread exits without
/// committing anything.
fn worker_loop(shared: Arc<Shared>, idx: usize, my_gen: u64) {
    let poll = shared.worker_poll();
    loop {
        shared.heartbeats[idx].fetch_add(1, Ordering::Relaxed);
        // Injected faults fire between tasks, never mid-evaluation
        // (the idle-worker window; the post-pop window is below).
        match shared.due_fault(idx) {
            // Silent death: no bookkeeping, a frozen heartbeat is the
            // only trace. Recovery is the watchdog's job.
            Some(WorkerFaultKind::Kill) => return,
            Some(WorkerFaultKind::Stall(d)) => {
                std::thread::sleep(Duration::from_nanos(d.as_nanos()));
                continue; // re-beat; a long stall may have been superseded
            }
            None => {}
        }
        let mut st = shared.lock_state();
        if st.shutdown {
            return;
        }
        if st.worker_gen[idx] != my_gen {
            return; // superseded by a watchdog respawn
        }
        if st.live_rank(idx) >= st.active {
            drop(shared.wait_work_timeout(st, poll));
            continue;
        }
        let Some(task) = pop_task(&mut st, idx) else {
            drop(shared.wait_work_timeout(st, poll));
            continue;
        };
        st.running[idx] = Some(task);

        // ---- snapshot inputs under the lock ---------------------------
        let Some(q) = st.queries.get(&task.qid) else {
            st.running[idx] = None;
            continue; // query failed by a dying peer; drop its task
        };
        let plan = Arc::clone(&q.plan);
        let mats: Vec<Option<Mat>> = q.nodes.iter().map(|n| n.mat.clone()).collect();
        drop(st);

        // Post-pop fault window: a kill here strands the popped task in
        // `running[idx]`, exactly what the watchdog's exactly-once
        // requeue must recover without losing or duplicating it.
        match shared.due_fault(idx) {
            Some(WorkerFaultKind::Kill) => return,
            Some(WorkerFaultKind::Stall(d)) => {
                std::thread::sleep(Duration::from_nanos(d.as_nanos()))
            }
            None => {}
        }

        // ---- evaluate outside the lock --------------------------------
        let op = plan.node(task.node);
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let inputs = Snapshot {
                plan: &plan,
                base: &shared.base,
                mats: &mats,
            };
            let primary_len = primary_len_of(
                &plan,
                task.node,
                |n| mats[n.idx()].as_ref().map_or(0, |m| m.len()),
                &shared.base,
            );
            let (start, end) = part_range(primary_len, task.part, task.n_parts);
            evaluate_partition_on(op, &inputs, start, end)
        }));
        let mut elapsed = SimDuration::from_nanos(t0.elapsed().as_nanos() as u64);
        let partial = match outcome {
            Ok(p) => p,
            Err(payload) => {
                st = shared.lock_state();
                if st.worker_gen[idx] != my_gen {
                    // Superseded mid-evaluation: the requeued copy of
                    // this task will hit the same deterministic panic on
                    // the replacement worker, which does the bookkeeping.
                    return;
                }
                worker_dies(
                    &shared,
                    &mut st,
                    idx,
                    task.qid,
                    QueryError::WorkerPanicked {
                        op: op.mal_name(),
                        message: panic_message(payload),
                    },
                );
                return;
            }
        };

        // ---- complete -------------------------------------------------
        st = shared.lock_state();
        if st.worker_gen[idx] != my_gen {
            // Superseded while evaluating (a watchdog false positive on
            // a slow partition): the task was requeued, so drop this
            // partial — it must commit exactly once, from whichever
            // copy reaches here first under a live generation.
            return;
        }
        st.running[idx] = None;
        st.stats.tasks_executed += 1;
        let Some(q) = st.queries.get_mut(&task.qid) else {
            // Query failed while this valid partition was in flight;
            // count the work and move on.
            st.busy_ns += elapsed.as_nanos();
            continue;
        };
        let nr = &mut q.nodes[task.node.idx()];
        if nr.partials.len() != task.n_parts as usize || nr.partials[task.part as usize].is_some() {
            // A requeued duplicate raced the original commit (or the
            // node is already assembling): first commit won, this copy
            // is dropped without touching `remaining`.
            st.busy_ns += elapsed.as_nanos();
            continue;
        }
        nr.part_worker[task.part as usize] = Some(idx as u32);
        nr.partials[task.part as usize] = Some(partial);
        nr.remaining -= 1;
        let node_done = nr.remaining == 0;
        let mat = if node_done {
            // Assemble outside the lock too: only the last completer of a
            // node reaches here, so the taken partials race with nobody.
            let partials = std::mem::take(&mut nr.partials);
            drop(st);
            let t1 = Instant::now();
            let assembled = catch_unwind(AssertUnwindSafe(|| {
                let inputs = Snapshot {
                    plan: &plan,
                    base: &shared.base,
                    mats: &mats,
                };
                let mat = assemble_parts(op, &inputs, partials, None);
                // The root's value is the query result: a projection
                // there is gathered now, outside the lock.
                if task.node == plan.root() {
                    root_result(op, mat, &inputs)
                } else {
                    mat
                }
            }));
            elapsed += SimDuration::from_nanos(t1.elapsed().as_nanos() as u64);
            st = shared.lock_state();
            match assembled {
                Ok(m) => Some(m),
                Err(payload) => {
                    let error = QueryError::WorkerPanicked {
                        op: op.mal_name(),
                        message: panic_message(payload),
                    };
                    if st.worker_gen[idx] != my_gen {
                        // The partials are consumed — nobody else can
                        // finish this node — so even a superseded worker
                        // must fail the query before exiting, or its
                        // client hangs.
                        fail_query(&shared, &mut st, task.qid, error);
                        return;
                    }
                    worker_dies(&shared, &mut st, idx, task.qid, error);
                    return;
                }
            }
        } else {
            None
        };
        st.busy_ns += elapsed.as_nanos();
        st.tomograph.record(op.mal_name(), elapsed);
        let Some(q) = st.queries.get_mut(&task.qid) else {
            continue;
        };
        q.busy += elapsed;
        if let Some(mat) = mat {
            // The one-finalizer exception: this worker took the node's
            // partials, so it must commit the mat and schedule the
            // dependents even if a watchdog supersession landed during
            // assembly — then exit.
            finalize_node(&mut st, &shared, task.qid, task.node, mat);
            if st.worker_gen[idx] != my_gen {
                return;
            }
        }
    }
}

/// Commits a node's assembled mat, schedules newly ready dependents, and
/// completes the query when it was the last pending node.
fn finalize_node(st: &mut State, shared: &Shared, qid: u64, node: NodeId, mat: Mat) {
    let Some(q) = st.queries.get_mut(&qid) else {
        return;
    };
    q.nodes[node.idx()].mat = Some(mat);
    q.pending_nodes -= 1;
    let deps = q.dependents[node.idx()].clone();
    let ready: Vec<NodeId> = deps
        .into_iter()
        .filter(|d| {
            let nr = &mut q.nodes[d.idx()];
            nr.waiting_inputs -= 1;
            nr.waiting_inputs == 0
        })
        .collect();
    let scheduled = !ready.is_empty();
    for d in ready {
        schedule_node(st, &shared.base, shared.n_workers, qid, d);
    }
    if scheduled {
        shared.work.notify_all();
    }

    let done = st.queries.get(&qid).is_some_and(|q| q.pending_nodes == 0);
    if done {
        let Some(q) = st.queries.remove(&qid) else {
            return;
        };
        let root = q.plan.root();
        let outcome = match q.nodes[root.idx()].mat.clone() {
            Some(result) => {
                st.stats.queries_completed += 1;
                let now = SimTime::ZERO
                    + SimDuration::from_nanos(shared.epoch.elapsed().as_nanos() as u64);
                // Keep responses strictly positive, like the simulated engine.
                let finished = now.max(q.submitted + SimDuration::from_nanos(1));
                Ok(QueryResult {
                    qid: QueryId(qid),
                    label: q.label,
                    spec_tag: q.spec_tag,
                    submitted: q.submitted,
                    finished,
                    traffic: Default::default(),
                    busy: q.busy,
                    result,
                })
            }
            None => Err(QueryError::Internal("root mat missing at completion")),
        };
        st.results.insert(qid, outcome);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::queries::{build_query, QuerySpec};
    use crate::tpch::{TpchData, TpchScale};

    fn tiny_base() -> Arc<BaseData> {
        Arc::new(BaseData::from_tpch(&TpchData::generate(
            TpchScale::test_tiny(),
        )))
    }

    fn digest(r: &QueryResult) -> String {
        format!("{}:{:?}", r.label, r.result)
    }

    fn run_specs(engine: &ParEngine, specs: &[QuerySpec]) -> Vec<String> {
        specs
            .iter()
            .map(|s| {
                let qid = engine.submit(Arc::new(build_query(s)), s.tag());
                digest(&engine.wait_result(qid).expect("query should complete"))
            })
            .collect()
    }

    #[test]
    fn queries_complete_and_are_deterministic() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 16,
            initial_active: 16,
            ..ParEngineConfig::default()
        };
        let specs = [
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 1,
                variant: 0,
            },
            QuerySpec::Tpch {
                number: 14,
                variant: 0,
            },
        ];
        let a = run_specs(&ParEngine::new(cfg, Arc::clone(&base)), &specs);
        let b = run_specs(&ParEngine::new(cfg, Arc::clone(&base)), &specs);
        assert_eq!(a, b, "same pool width must give identical results");
        let stats = {
            let engine = ParEngine::new(cfg, base);
            run_specs(&engine, &specs);
            engine.stats()
        };
        assert_eq!(stats.queries_submitted, 3);
        assert_eq!(stats.queries_completed, 3);
        assert!(stats.tasks_executed >= stats.queries_completed);
    }

    #[test]
    fn active_count_changes_timing_not_answers() {
        let base = tiny_base();
        let wide = ParEngine::new(
            ParEngineConfig {
                n_workers: 16,
                initial_active: 16,
                ..ParEngineConfig::default()
            },
            Arc::clone(&base),
        );
        let narrow = ParEngine::new(
            ParEngineConfig {
                n_workers: 16,
                initial_active: 1,
                ..ParEngineConfig::default()
            },
            base,
        );
        narrow.set_wake_order(&[0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]);
        let specs = [
            QuerySpec::Q6 { variant: 0 },
            QuerySpec::Tpch {
                number: 4,
                variant: 0,
            },
        ];
        assert_eq!(
            run_specs(&wide, &specs),
            run_specs(&narrow, &specs),
            "allocation must not leak into results"
        );
        assert_eq!(narrow.active(), 1);
        narrow.set_active(8);
        assert_eq!(narrow.active(), 8);
        narrow.set_active(0);
        assert_eq!(narrow.active(), 1, "active count clamps to 1");
    }

    #[test]
    fn concurrent_clients_all_finish() {
        let base = tiny_base();
        let engine = Arc::new(ParEngine::new(
            ParEngineConfig {
                n_workers: 8,
                initial_active: 8,
                ..ParEngineConfig::default()
            },
            base,
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        let spec = QuerySpec::Q6 { variant: 0 };
                        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                        let r = engine.wait_result(qid).expect("query should complete");
                        assert!(r.finished > r.submitted);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.stats().queries_completed, 12);
        assert_eq!(engine.active_queries(), 0);
    }

    /// A panicking worker must fail its query with a typed error, not
    /// poison the mutex: the engine stays queryable, and once the last
    /// worker dies submissions fail fast with `PoolDead`.
    #[test]
    fn worker_panic_degrades_without_poisoning() {
        // A catalog missing a column Q6 needs: evaluation panics inside
        // the worker, under catch_unwind.
        let mut data = TpchData::generate(TpchScale::test_tiny());
        for table in &mut data.tables {
            if table.name == "lineitem" {
                table.columns.retain(|c| c.name != "l_extendedprice");
            }
        }
        let base = Arc::new(BaseData::from_tpch(&data));
        let engine = ParEngine::new(
            ParEngineConfig {
                n_workers: 1,
                initial_active: 1,
                ..ParEngineConfig::default()
            },
            base,
        );
        let spec = QuerySpec::Q6 { variant: 0 };
        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        match engine.wait_result(qid) {
            Err(QueryError::WorkerPanicked { message, .. }) => {
                assert!(message.contains("l_extendedprice"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // No poisoning: every accessor still works after the panic.
        assert_eq!(engine.dead_workers(), 1);
        assert_eq!(engine.active_queries(), 0);
        let _ = engine.stats();
        // The single worker was the whole pool: everything now fails
        // fast instead of queuing forever.
        let qid2 = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        assert!(matches!(
            engine.wait_result(qid2),
            Err(QueryError::PoolDead)
        ));
        assert!(engine.try_result(qid2).is_none(), "error was consumed");
        assert_eq!(engine.live_workers(), 0, "a panicked worker stays dead");
    }

    /// The watchdog must recover injected worker kills with zero lost
    /// and zero duplicated queries: every submission resolves `Ok` with
    /// the fault-free digest, and the pool heals back to full strength
    /// instead of degrading.
    #[test]
    fn killed_workers_recover_without_losing_queries() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 8,
            initial_active: 8,
            stall_after: Duration::from_millis(40),
            sweep: Duration::from_millis(10),
        };
        let expected = {
            let engine = ParEngine::new(cfg, Arc::clone(&base));
            let spec = QuerySpec::Q6 { variant: 0 };
            let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
            digest(&engine.wait_result(qid).expect("fault-free run completes"))
        };
        let engine = Arc::new(ParEngine::new(cfg, base));
        engine.arm_faults(
            &FaultPlan::default()
                .with_kill(2, SimDuration::from_millis(10))
                .with_kill(5, SimDuration::from_millis(20)),
            42,
        );
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let mut n = 0u64;
                    // Keep queries flowing across both kills and the
                    // recoveries (~10/20ms kills + 40ms detection).
                    while t0.elapsed() < Duration::from_millis(150) {
                        let spec = QuerySpec::Q6 { variant: 0 };
                        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                        let r = engine
                            .wait_result(qid)
                            .expect("query lost across a worker kill");
                        assert_eq!(digest(&r), expected, "recovery corrupted a result");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: u64 = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
        // Both kills fire whether or not a query is in flight; wait for
        // the watchdog to notice and respawn both victims.
        let t0 = Instant::now();
        while engine.stats().engine_recoveries < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "watchdog never recovered the killed workers"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = engine.stats();
        assert_eq!(
            stats.queries_completed, total,
            "every submitted query completed exactly once"
        );
        assert_eq!(stats.queries_submitted, total);
        assert!(stats.mttr_ms() > 0.0 && stats.mttr_ms().is_finite());
        assert_eq!(
            engine.live_workers(),
            8,
            "killed workers were respawned, not declared dead"
        );
        assert_eq!(engine.dead_workers(), 0);
        // The healed pool still serves, and still gives the same answer.
        let spec = QuerySpec::Q6 { variant: 0 };
        let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
        let r = engine.wait_result(qid).expect("post-recovery query");
        assert_eq!(digest(&r), expected);
    }

    /// `badquery` poisoning is deterministic per qid and surfaces as a
    /// typed, non-retryable error; unpoisoned queries are untouched.
    #[test]
    fn badquery_poisons_deterministically() {
        let base = tiny_base();
        let cfg = ParEngineConfig {
            n_workers: 4,
            initial_active: 4,
            ..ParEngineConfig::default()
        };
        let run = |seed: u64| -> Vec<bool> {
            let engine = ParEngine::new(cfg, Arc::clone(&base));
            engine.arm_faults(&FaultPlan::default().with_badquery(0.3), seed);
            (0..40)
                .map(|_| {
                    let spec = QuerySpec::Q6 { variant: 0 };
                    let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
                    match engine.wait_result(qid) {
                        Ok(_) => false,
                        Err(QueryError::BadQuery) => true,
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must poison the same qids");
        assert!(
            a.iter().any(|&p| p),
            "rate 0.3 over 40 queries poisons some"
        );
        assert!(!a.iter().all(|&p| p), "…but not all");
        assert!(!QueryError::BadQuery.is_retryable());
        assert!(QueryError::PoolDead.is_retryable());
    }
}
