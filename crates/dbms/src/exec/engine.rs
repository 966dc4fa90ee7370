//! The execution engine: worker pool, dataflow scheduling and the two
//! engine flavors the paper evaluates.
//!
//! - **MonetDB flavor**: one worker thread per hardware core, *unpinned* —
//!   "MonetDB let to the OS the thread scheduling responsibility". Tasks
//!   live in one global dataflow queue.
//! - **SQL Server flavor**: workers pinned one-per-core, tasks dispatched
//!   to per-NUMA-node queues by input-data home, with cross-node stealing
//!   — "SQL Server is NUMA-aware associating threads and processors to
//!   improve affinity".
//!
//! Operators materialise partition-wise in simulated memory: each task
//! allocates and first-touches its own output slice, so intermediates
//! spread across the NUMA nodes that ran the operator. On the host,
//! projections are late-materialised: a projection's value is the
//! positions it reads through, and consumers gather their partition from
//! the base column (`ExecInputs::node_vals`). Identical sub-plans across
//! concurrent clients share evaluated results through a memo cache (a
//! simulator optimisation: simulated time and traffic are charged per
//! execution regardless; see `docs/ARCHITECTURE.md`, "The memo cache and
//! late-materialised projections").

use crate::exec::cost;
use crate::exec::eval;
use crate::exec::eval::{GroupAcc, Vals};
use crate::exec::fault::{FaultPlan, WorkerFaultKind};
use crate::exec::mat::{FlatJoinMap, JoinTable, Mat, NodeStorage, PairsMat, PosMat, ValMat};
use crate::exec::par::QueryError;
use crate::exec::plan::{ColRef, NodeId, PhysOp, Plan, Side};
use crate::exec::task::{n_parts_for, part_range, ChargeItem, Partial, QueryId, Task, TaskCursor};
use crate::exec::tomograph::Tomograph;
use crate::storage::bat::{Bat, BatStore, ColData};
use crate::storage::catalog::Catalog;
use crate::tpch::gen::TpchData;
use emca_metrics::{FxHashMap, SimDuration, SimTime};
use numa_sim::{AccessKind, Machine, SegId, SpaceId, StreamId, StreamTraffic};
use os_sim::{SimWork, StepOutcome, Tid, WorkCtx};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Engine flavor (thread/data placement strategy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Volcano engine that leaves scheduling entirely to the OS.
    MonetDb,
    /// NUMA-aware engine with pinned workers and locality dispatch.
    SqlServer,
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Placement strategy.
    pub flavor: Flavor,
    /// Worker threads (0 = one per hardware core, the MonetDB default).
    pub n_workers: usize,
    /// Per-query parse/optimise CPU time charged to the client session.
    pub plan_overhead: SimDuration,
    /// Memo cache entries before an epoch flush.
    pub memo_capacity: usize,
    /// Deterministic fault plan (`faults=` spec field); `None` (or an
    /// empty plan) keeps the fault plane fully inert.
    pub faults: Option<FaultPlan>,
    /// Seed for the plan's `badquery` poisoning draws.
    pub fault_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            flavor: Flavor::MonetDb,
            n_workers: 0,
            plan_overhead: SimDuration::from_micros(200),
            memo_capacity: 512,
            faults: None,
            fault_seed: 0,
        }
    }
}

/// Engine-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Dataflow tasks created (the "tasks" series of Fig. 13(c)).
    pub tasks_created: u64,
    /// Tasks fully executed.
    pub tasks_executed: u64,
    /// Cross-node queue steals (SQL Server flavor only).
    pub engine_steals: u64,
    /// Queries completed.
    pub queries_completed: u64,
    /// Queries submitted.
    pub queries_submitted: u64,
    /// Worker recoveries: watchdog respawns of dead/stalled workers on
    /// the threads backend, timed revives of killed workers on the sim.
    pub engine_recoveries: u64,
    /// Cumulative downtime repaired by those recoveries, in
    /// milliseconds (wall on threads, simulated on sim).
    pub recovery_ms: f64,
}

impl EngineStats {
    /// Mean time to recover a dead/stalled worker, in milliseconds
    /// (`0.0` when nothing was ever recovered).
    pub fn mttr_ms(&self) -> f64 {
        if self.engine_recoveries == 0 {
            0.0
        } else {
            self.recovery_ms / self.engine_recoveries as f64
        }
    }
}

/// The outcome of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Query instance id.
    pub qid: QueryId,
    /// Plan label (e.g. `"q06"`).
    pub label: String,
    /// Caller-chosen tag (e.g. TPC-H query number).
    pub spec_tag: u32,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Attributed memory traffic (per-query HT/IMC ratio of Fig. 19).
    pub traffic: StreamTraffic,
    /// Total worker CPU time spent on this query.
    pub busy: SimDuration,
    /// The root result.
    pub result: Mat,
}

impl QueryResult {
    /// Response time.
    pub fn response(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }
}

struct NodeRun {
    n_parts: u32,
    remaining: u32,
    waiting_inputs: u32,
    partials: Vec<Option<Partial>>,
    mat: Option<Mat>,
    storage: NodeStorage,
    /// Which worker executed each partition (slice-affinity lineage for
    /// the MonetDB flavor's dataflow dispatch).
    part_worker: Vec<Option<u32>>,
    /// Out-of-order completed regions, committed sorted at finalize.
    pending_regions: Vec<(u32, usize, numa_sim::Region)>,
    /// Memo snapshot pinned at schedule time, so every partition of the
    /// node takes the same evaluate-vs-reuse path (the memo may be
    /// filled or flushed concurrently by other queries).
    memo_hit: Option<(Mat, Vec<usize>)>,
    /// Shared output buffer of a `BinOp` node: partitions write disjoint
    /// slices in place, finalize moves the buffer into the Mat without a
    /// concat copy.
    out_vals: Option<Vec<f64>>,
}

struct QueryRun {
    stream: StreamId,
    client: Tid,
    label: String,
    spec_tag: u32,
    plan: Rc<Plan>,
    dependents: Vec<Vec<NodeId>>,
    fingerprints: Vec<u64>,
    nodes: Vec<NodeRun>,
    pending_nodes: usize,
    submitted: SimTime,
    busy: SimDuration,
}

struct MemoEntry {
    mat: Mat,
    part_rows: Vec<usize>,
}

/// Task queues per flavor.
struct TaskQueues {
    global: VecDeque<Task>,
    per_node: Vec<VecDeque<Task>>,
    /// MonetDB-flavor dataflow queues: one per worker, fed by slice
    /// affinity, drained by the owner first and stolen from otherwise.
    per_worker: Vec<VecDeque<Task>>,
}

impl TaskQueues {
    fn new(n_nodes: usize) -> Self {
        TaskQueues {
            global: VecDeque::new(),
            per_node: (0..n_nodes).map(|_| VecDeque::new()).collect(),
            per_worker: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.global.len()
            + self.per_node.iter().map(|q| q.len()).sum::<usize>()
            + self.per_worker.iter().map(|q| q.len()).sum::<usize>()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared engine state (single-threaded simulation: `Rc<RefCell<..>>`).
pub struct EngineCore {
    cfg: EngineConfig,
    /// The catalog of base BATs.
    pub catalog: Catalog,
    store: BatStore,
    space: Option<SpaceId>,
    queries: FxHashMap<u64, QueryRun>,
    next_qid: u64,
    next_stream: u64,
    queues: TaskQueues,
    worker_tids: Vec<Tid>,
    memo: FxHashMap<u64, MemoEntry>,
    /// Per-operator trace (Fig. 6).
    pub tomograph: Tomograph,
    stats: EngineStats,
    results: FxHashMap<u64, Result<QueryResult, QueryError>>,
    /// Armed fault plan runtime, if the config carried one.
    faults: Option<SimFaults>,
    parked: Vec<Option<TaskCursor>>,
    /// Recycled charge-item vectors (capped; see [`POOL_CAP`]).
    item_pool: Vec<Vec<ChargeItem>>,
    /// Reusable read-segment gather buffer for task preparation.
    seg_scratch: Vec<SegId>,
}

/// Upper bound on pooled charge-item vectors (one per in-flight task is
/// plenty; the cap keeps a queue burst from pinning memory).
const POOL_CAP: usize = 64;

/// How long a fault-killed simulated worker stays dark before it
/// revives (the sim analogue of the threads watchdog's detect+respawn
/// turnaround; fixed so recovery stays a pure function of the spec).
fn sim_revive_delay() -> SimDuration {
    SimDuration::from_millis(200)
}

/// Runtime state of the simulated fault plane: which scheduled worker
/// faults already fired, and until when each worker is dark (killed and
/// not yet revived, or mid-stall). All in simulated time — a faulted
/// run is exactly as deterministic as a healthy one.
struct SimFaults {
    plan: FaultPlan,
    seed: u64,
    fired: Vec<bool>,
    dark_until: Vec<SimTime>,
}

/// Cloneable handle to the engine.
#[derive(Clone)]
pub struct Engine {
    core: Rc<RefCell<EngineCore>>,
}

impl Engine {
    /// Creates an engine for a machine with `n_numa` nodes.
    pub fn new(cfg: EngineConfig, n_numa: usize) -> Self {
        let faults = cfg
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| SimFaults {
                plan: p.clone(),
                seed: cfg.fault_seed,
                fired: vec![false; p.worker_faults.len()],
                dark_until: Vec::new(),
            });
        Engine {
            core: Rc::new(RefCell::new(EngineCore {
                cfg,
                catalog: Catalog::new(),
                store: BatStore::new(),
                space: None,
                queries: FxHashMap::default(),
                next_qid: 0,
                next_stream: 1,
                queues: TaskQueues::new(n_numa),
                worker_tids: Vec::new(),
                memo: FxHashMap::default(),
                tomograph: Tomograph::new(),
                stats: EngineStats::default(),
                results: FxHashMap::default(),
                faults,
                parked: Vec::new(),
                item_pool: Vec::new(),
                seg_scratch: Vec::new(),
            })),
        }
    }

    /// Borrows the core (single-threaded simulation; panics on re-entry).
    pub fn core(&self) -> std::cell::RefMut<'_, EngineCore> {
        self.core.borrow_mut()
    }

    /// Immutable core borrow.
    pub fn core_ref(&self) -> std::cell::Ref<'_, EngineCore> {
        self.core.borrow()
    }

    /// Loads the generated database: creates the DBMS address space and
    /// registers base BATs.
    ///
    /// `loader_core` controls page placement:
    ///
    /// - `Some(core)`: a single-threaded loader first-touches every base
    ///   segment from that core (all base data homed on one node);
    /// - `None`: BATs are mmap-style lazy — pages are homed by whichever
    ///   worker first scans them. This is MonetDB's actual behaviour and
    ///   the root of the paper's placement effects: under the OS
    ///   scheduler the first concurrent queries scatter the data over all
    ///   nodes, while the mechanism's ramp-up concentrates it.
    pub fn load(
        &self,
        machine: &mut Machine,
        data: &TpchData,
        loader_core: Option<numa_sim::CoreId>,
    ) {
        let mut core = self.core();
        let core = &mut *core;
        assert!(core.space.is_none(), "engine already loaded");
        let space = machine.create_space();
        core.space = Some(space);
        for table in &data.tables {
            let tname: &'static str = table.name;
            for gc in &table.columns {
                let bat = Bat::new(machine, space, gc.name, gc.data.clone());
                if let Some(lc) = loader_core {
                    for seg in bat.region.segments() {
                        machine.access_segment(lc, seg, AccessKind::Write, StreamId(0));
                    }
                }
                let id = core.store.insert(bat);
                core.catalog.register(tname, gc.name, id, &core.store);
            }
        }
    }

    /// The DBMS address space (for the mechanism's page statistics).
    pub fn space(&self) -> SpaceId {
        self.core_ref().space.expect("engine not loaded")
    }

    /// Homes every base segment round-robin across the NUMA nodes (the
    /// `numactl --interleave` warm-server placement): neutral first-touch
    /// that hands no allocation policy a head start. Must run after
    /// [`Engine::load`] and before any queries.
    pub fn interleave_base(&self, machine: &mut Machine) {
        let core = self.core_ref();
        let n_nodes = machine.topology().n_nodes();
        let cores_per_node = machine.topology().cores_per_node();
        let mut i = 0usize;
        for bat in core.store.iter() {
            for seg in bat.region.segments() {
                let node = i % n_nodes;
                let toucher = numa_sim::CoreId((node * cores_per_node) as u16);
                machine.access_segment(toucher, seg, AccessKind::Write, StreamId(0));
                i += 1;
            }
        }
    }

    /// Spawns the worker pool into `group` on `kernel`. SQL Server flavor
    /// pins worker `i` to core `i`.
    pub fn start_workers(&self, kernel: &mut os_sim::Kernel, group: os_sim::GroupId) {
        let (flavor, n) = {
            let core = self.core_ref();
            let n = if core.cfg.n_workers == 0 {
                kernel.machine().topology().n_cores()
            } else {
                core.cfg.n_workers
            };
            (core.cfg.flavor, n)
        };
        self.core().queues.per_worker.resize_with(n, VecDeque::new);
        for i in 0..n {
            let affinity = match flavor {
                Flavor::MonetDb => None,
                Flavor::SqlServer => Some(os_sim::CoreMask::single(numa_sim::CoreId(
                    (i % kernel.machine().topology().n_cores()) as u16,
                ))),
            };
            let body = WorkerBody {
                engine: self.clone(),
                idx: i,
            };
            let tid = kernel.spawn(format!("worker{i}"), group, affinity, Box::new(body));
            self.core().worker_tids.push(tid);
        }
    }

    /// Worker thread ids.
    pub fn worker_tids(&self) -> Vec<Tid> {
        self.core_ref().worker_tids.clone()
    }

    /// Submits a query from within a client work step. Wakes the worker
    /// pool through the step context. Returns the query id; the client is
    /// woken when the result is available via [`Engine::take_result`].
    /// `step_offset` is the simulated time the caller already consumed in
    /// this step (timestamps stay sub-tick accurate).
    pub fn submit(
        &self,
        ctx: &mut WorkCtx<'_>,
        plan: Rc<Plan>,
        spec_tag: u32,
        step_offset: SimDuration,
    ) -> QueryId {
        let mut core = self.core();
        let qid = core.submit_inner(plan, spec_tag, ctx.tid, ctx.now + step_offset);
        if core.results.contains_key(&qid.0) {
            // Poisoned at the front door: nothing was scheduled, so no
            // worker will ever wake the client — wake it ourselves.
            ctx.wake(ctx.tid);
            return qid;
        }
        for tid in core.worker_tids.clone() {
            ctx.wake(tid);
        }
        qid
    }

    /// Fetches (and removes) a completed query's outcome: `Ok` with the
    /// result, or the typed [`QueryError`] the query failed with (on
    /// this backend, only fault-plan poisoning).
    pub fn take_result(&self, qid: QueryId) -> Option<Result<QueryResult, QueryError>> {
        self.core().results.remove(&qid.0)
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.core_ref().stats
    }

    /// Outstanding (queued) task count.
    pub fn queued_tasks(&self) -> usize {
        self.core_ref().queues.len()
    }

    /// Number of in-flight queries.
    pub fn active_queries(&self) -> usize {
        self.core_ref().queries.len()
    }

    /// The per-query parse/plan overhead clients must charge.
    pub fn plan_overhead(&self) -> SimDuration {
        self.core_ref().cfg.plan_overhead
    }
}

impl EngineCore {
    fn submit_inner(
        &mut self,
        plan: Rc<Plan>,
        spec_tag: u32,
        client: Tid,
        now: SimTime,
    ) -> QueryId {
        assert!(!plan.is_empty(), "cannot submit an empty plan");
        let qid = QueryId(self.next_qid);
        self.next_qid += 1;
        let stream = StreamId(self.next_stream);
        self.next_stream += 1;
        self.stats.queries_submitted += 1;
        if let Some(f) = &self.faults {
            // Same per-(seed, qid) draw as the threads backend, so both
            // poison the same query ids.
            if f.plan.bad_query(f.seed, qid.0) {
                self.results.insert(qid.0, Err(QueryError::BadQuery));
                return qid;
            }
        }

        let dependents = plan.dependents();
        let fingerprints = fingerprint_plan(&plan);
        let nodes: Vec<NodeRun> = plan
            .nodes()
            .iter()
            .map(|op| NodeRun {
                n_parts: 0,
                remaining: 0,
                waiting_inputs: op.inputs().len() as u32,
                partials: Vec::new(),
                mat: None,
                storage: NodeStorage::new(out_row_bytes(op).max(4)),
                part_worker: Vec::new(),
                pending_regions: Vec::new(),
                memo_hit: None,
                out_vals: None,
            })
            .collect();
        let pending = nodes.len();
        let run = QueryRun {
            stream,
            client,
            label: plan.label.clone(),
            spec_tag,
            plan,
            dependents,
            fingerprints,
            nodes,
            pending_nodes: pending,
            submitted: now,
            busy: SimDuration::ZERO,
        };
        self.queries.insert(qid.0, run);
        // Schedule source nodes.
        let run = &self.queries[&qid.0];
        let ready: Vec<NodeId> = run
            .plan
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.inputs().is_empty())
            .map(|(i, _)| NodeId(i as u16))
            .collect();
        for node in ready {
            self.schedule_node(qid, node);
        }
        qid
    }

    /// Splits a ready node into tasks and enqueues them.
    fn schedule_node(&mut self, qid: QueryId, node: NodeId) {
        let workers = self.worker_tids.len().max(1);
        let run = self.queries.get_mut(&qid.0).expect("scheduling dead query");
        let fp = run.fingerprints[node.idx()];
        let memo_hit = self
            .memo
            .get(&fp)
            .map(|e| (e.mat.clone(), e.part_rows.clone()));
        let primary_len =
            primary_input_len(&run.plan, node, &run.nodes, &self.catalog, &self.store);
        let n_parts = match run.plan.node(node) {
            PhysOp::TopN { .. } => 1,
            _ => n_parts_for(primary_len, workers),
        };
        // Slice affinity: partition p inherits the worker that executed
        // the matching slice of the *primary* input — the one the
        // operator partitions over (mitosis chains a slice through the
        // operator pipeline on one dataflow thread). Source scans are
        // dealt round-robin like fresh mitosis slices.
        let lineage: Option<&[Option<u32>]> =
            primary_input(&run.plan, node).map(|i| run.nodes[i.idx()].part_worker.as_slice());
        let prefs: Vec<Option<u32>> = (0..n_parts)
            .map(|part| match lineage {
                Some(pw) if !pw.is_empty() => pw[(part as usize * pw.len()) / n_parts as usize],
                _ => Some(((qid.0 as u32).wrapping_add(part)) % workers as u32),
            })
            .collect();
        let nr = &mut run.nodes[node.idx()];
        nr.memo_hit = memo_hit;
        nr.n_parts = n_parts;
        nr.remaining = n_parts;
        nr.partials = (0..n_parts).map(|_| None).collect();
        nr.part_worker = vec![None; n_parts as usize];
        let stream_tasks: Vec<Task> = (0..n_parts)
            .map(|part| Task {
                qid,
                node,
                part,
                n_parts,
                pref_node: None,
                pref_worker: prefs[part as usize],
            })
            .collect();
        for task in stream_tasks {
            self.stats.tasks_created += 1;
            self.push_task(task);
        }
    }

    fn push_task(&mut self, task: Task) {
        match self.cfg.flavor {
            Flavor::SqlServer => match task.pref_node {
                Some(n) => self.queues.per_node[n.idx()].push_back(task),
                None => self.queues.global.push_back(task),
            },
            Flavor::MonetDb => match task.pref_worker {
                Some(w) if (w as usize) < self.queues.per_worker.len() => {
                    self.queues.per_worker[w as usize].push_back(task)
                }
                _ => self.queues.global.push_back(task),
            },
        }
    }

    /// Pops the next task for worker `worker_idx` running on NUMA node
    /// `worker_node`. SQL Server flavor prefers the local node queue and
    /// steals across nodes; MonetDB prefers the worker's own dataflow
    /// queue (slice affinity) and steals from other workers when idle.
    pub fn pop_task(&mut self, worker_node: numa_sim::NodeId, worker_idx: usize) -> Option<Task> {
        match self.cfg.flavor {
            Flavor::MonetDb => {
                // Own queue drains LIFO (depth-first): a consumer task
                // enqueued by the slice this worker just finished runs
                // next, while its output is still cache-hot. Steals drain
                // FIFO below — the classic work-stealing deque.
                if let Some(q) = self.queues.per_worker.get_mut(worker_idx) {
                    if let Some(t) = q.pop_back() {
                        return Some(t);
                    }
                }
                if let Some(t) = self.queues.global.pop_front() {
                    return Some(t);
                }
                // DFLOW-style stealing: scan the other workers' queues,
                // longest first would need a pass anyway, so take the
                // first non-empty one in a stable order.
                for i in 0..self.queues.per_worker.len() {
                    if i == worker_idx {
                        continue;
                    }
                    if let Some(t) = self.queues.per_worker[i].pop_front() {
                        self.stats.engine_steals += 1;
                        return Some(t);
                    }
                }
                None
            }
            Flavor::SqlServer => {
                if let Some(t) = self.queues.per_node[worker_node.idx()].pop_front() {
                    return Some(t);
                }
                if let Some(t) = self.queues.global.pop_front() {
                    return Some(t);
                }
                for i in 0..self.queues.per_node.len() {
                    if i == worker_node.idx() {
                        continue;
                    }
                    if let Some(t) = self.queues.per_node[i].pop_front() {
                        self.stats.engine_steals += 1;
                        return Some(t);
                    }
                }
                None
            }
        }
    }

    /// Assigns a locality preference to SQL Server tasks at dispatch time
    /// (home node of the partition's first input segment).
    fn locality_of(&self, task: &Task, machine: &Machine) -> Option<numa_sim::NodeId> {
        let run = self.queries.get(&task.qid.0)?;
        let first_seg =
            first_input_segment(&run.plan, task, &run.nodes, &self.catalog, &self.store)?;
        machine.mem().home_of(first_seg)
    }

    /// Re-dispatches tasks from the global queue to per-node queues once
    /// locality is known (SQL Server flavor). Called by workers before
    /// popping.
    pub fn localize_tasks(&mut self, machine: &Machine) {
        if self.cfg.flavor != Flavor::SqlServer || self.queues.global.is_empty() {
            return;
        }
        let mut pending: Vec<Task> = self.queues.global.drain(..).collect();
        for task in pending.drain(..) {
            let pref = self.locality_of(&task, machine);
            let mut task = task;
            task.pref_node = pref;
            match pref {
                Some(n) => self.queues.per_node[n.idx()].push_back(task),
                None => self.queues.global.push_back(task),
            }
        }
    }

    /// Prepares a popped task: evaluates its partition (or reuses the
    /// memo), allocates its output region and builds the charge items.
    pub fn prepare_task(&mut self, task: Task, machine: &mut Machine) -> TaskCursor {
        let space = self.space.expect("engine not loaded");
        // The gather buffer is taken out of the pool up front so the rest
        // of the preparation can hold immutable borrows of the query run
        // (the operator is *borrowed*, not cloned — an `InSet` predicate
        // clone per task was a hot-path allocation).
        let mut reads: Vec<SegId> = std::mem::take(&mut self.seg_scratch);
        reads.clear();
        let run = self.queries.get(&task.qid.0).expect("task for dead query");
        let op = run.plan.node(task.node);
        let stream = run.stream;
        let memo_hit = run.nodes[task.node.idx()].memo_hit.is_some();

        let primary_len =
            primary_input_len(&run.plan, task.node, &run.nodes, &self.catalog, &self.store);
        let (start, end) = part_range(primary_len, task.part, task.n_parts);
        let rows_in = end - start;

        // ---- gather read segments -------------------------------------
        // Every source appends through the `*_into` forms, so no
        // per-input vectors are allocated and the emitted sequence is
        // unchanged.
        {
            let nodes = &run.nodes;
            let read_node_rows = |node: NodeId, s: usize, e: usize, reads: &mut Vec<SegId>| {
                nodes[node.idx()]
                    .storage
                    .segments_for_rows_into(s, e, reads);
            };
            match &op {
                PhysOp::ScanSelect { col, .. } => {
                    self.col_bat(col)
                        .segments_for_rows_into(start, end, &mut reads);
                }
                PhysOp::SelectAnd {
                    candidates, col, ..
                } => {
                    read_node_rows(*candidates, start, end, &mut reads);
                    let cands = nodes[candidates.idx()].mat.as_ref().expect("input ready");
                    let slice = &cands.as_pos().pos[start..end];
                    self.col_bat(col)
                        .segments_for_positions_into(slice, &mut reads);
                }
                PhysOp::SelectColCmp {
                    candidates,
                    left,
                    right,
                    ..
                } => match candidates {
                    Some(c) => {
                        read_node_rows(*c, start, end, &mut reads);
                        let cands = nodes[c.idx()].mat.as_ref().expect("input ready");
                        let slice = &cands.as_pos().pos[start..end];
                        self.col_bat(left)
                            .segments_for_positions_into(slice, &mut reads);
                        self.col_bat(right)
                            .segments_for_positions_into(slice, &mut reads);
                    }
                    None => {
                        self.col_bat(left)
                            .segments_for_rows_into(start, end, &mut reads);
                        self.col_bat(right)
                            .segments_for_rows_into(start, end, &mut reads);
                    }
                },
                PhysOp::Project { positions, col } => {
                    read_node_rows(*positions, start, end, &mut reads);
                    let pos = nodes[positions.idx()].mat.as_ref().expect("input ready");
                    let slice = &pos.as_pos().pos[start..end];
                    self.col_bat(col)
                        .segments_for_positions_into(slice, &mut reads);
                }
                PhysOp::ProjectSide { pairs, side, col } => {
                    read_node_rows(*pairs, start, end, &mut reads);
                    let pm = nodes[pairs.idx()].mat.as_ref().expect("input ready");
                    let pm = pm.as_pairs();
                    let slice = match side {
                        Side::Probe => &pm.probe.pos[start..end],
                        Side::Build => &pm.build.pos[start..end],
                    };
                    self.col_bat(col)
                        .segments_for_positions_unsorted_into(slice, &mut reads);
                }
                PhysOp::BinOp { left, right, .. } => {
                    read_node_rows(*left, start, end, &mut reads);
                    read_node_rows(*right, start, end, &mut reads);
                }
                PhysOp::AggrSum { values } => {
                    read_node_rows(*values, start, end, &mut reads);
                }
                PhysOp::GroupAgg { keys, values, .. } => {
                    read_node_rows(*keys, start, end, &mut reads);
                    if let Some(v) = values {
                        read_node_rows(*v, start, end, &mut reads);
                    }
                }
                PhysOp::JoinBuild { keys } => {
                    read_node_rows(*keys, start, end, &mut reads);
                }
                PhysOp::JoinProbe { build, probe } => {
                    read_node_rows(*probe, start, end, &mut reads);
                    let build_storage = &nodes[build.idx()].storage;
                    build_storage.segments_for_rows_into(
                        0,
                        build_storage.rows().max(1),
                        &mut reads,
                    );
                }
                PhysOp::TopN { .. } => {}
            }
        }

        // `BinOp` writes its partition's slice into a node-level shared
        // buffer (no finalize concat); the buffer's size is known before
        // evaluation.
        let in_place = !memo_hit && matches!(op, PhysOp::BinOp { .. });
        let row_bytes = out_row_bytes(op);
        let mal_name = op.mal_name();
        let cycles_each = op_cycles(op);

        // ---- evaluate (or reuse) ---------------------------------------
        let (partial, out_rows) = if memo_hit {
            let (_, part_rows) = run.nodes[task.node.idx()]
                .memo_hit
                .as_ref()
                .expect("memo pinned at schedule");
            let rows = memo_part_rows(part_rows, task.part, task.n_parts);
            (Partial::Reuse, rows)
        } else if in_place {
            let run_mut = self.queries.get_mut(&task.qid.0).expect("dead query");
            let mut buf = run_mut.nodes[task.node.idx()]
                .out_vals
                .take()
                .unwrap_or_else(|| vec![0.0; primary_len]);
            evaluate_val_into(
                run_mut.plan.node(task.node),
                &RunInputs {
                    run: run_mut,
                    catalog: &self.catalog,
                    store: &self.store,
                },
                start,
                &mut buf[start..end],
            );
            run_mut.nodes[task.node.idx()].out_vals = Some(buf);
            (Partial::Rows(end - start), end - start)
        } else {
            let partial = evaluate_partition(op, run, start, end, &self.catalog, &self.store);
            let rows = partial_rows(&partial);
            (partial, rows)
        };

        // ---- output region ---------------------------------------------
        let out_region = if out_rows > 0 && row_bytes > 0 {
            Some(machine.alloc(space, out_rows as u64 * row_bytes))
        } else {
            None
        };

        // ---- charge items ----------------------------------------------
        let cycles_total = rows_in as u64 * cycles_each + out_rows as u64 * cost::MERGE / 4;
        let n_chunks = reads.len().max(1) as u64;
        let per_chunk = (cycles_total / n_chunks).max(1);
        let mut items: Vec<ChargeItem> = self.item_pool.pop().unwrap_or_default();
        items.clear();
        items.reserve(reads.len() * 2 + 8);
        if reads.is_empty() {
            items.push(ChargeItem::Compute(cycles_total.max(1)));
        } else {
            for &seg in &reads {
                items.push(ChargeItem::Read(seg));
                items.push(ChargeItem::Compute(per_chunk));
            }
        }
        self.seg_scratch = reads;
        if let Some(region) = &out_region {
            items.extend(region.segments().map(ChargeItem::Write));
        }

        TaskCursor::new(task, stream, mal_name, items, partial, out_rows, out_region)
    }

    /// Completes an executed task. May finalize its node, schedule newly
    /// ready nodes, and complete the whole query (waking the client).
    /// `step_offset` is the executing worker's in-step elapsed time;
    /// `worker_idx` records the slice-affinity lineage.
    pub fn complete_task(
        &mut self,
        mut cursor: TaskCursor,
        ctx: &mut WorkCtx<'_>,
        step_offset: SimDuration,
        worker_idx: usize,
    ) {
        self.stats.tasks_executed += 1;
        self.tomograph.record(cursor.mal_name, cursor.charged);
        let qid = cursor.task.qid;
        let node = cursor.task.node;
        let run = self.queries.get_mut(&qid.0).expect("completing dead query");
        run.busy += cursor.charged;
        let nr = &mut run.nodes[node.idx()];
        nr.part_worker[cursor.task.part as usize] = Some(worker_idx as u32);
        nr.partials[cursor.task.part as usize] =
            Some(cursor.partial.take().expect("partial already taken"));
        if let Some(region) = cursor.out_region.take() {
            // Buffered as (part, rows, region); ordered insert happens at
            // finalize through partials order.
            nr.storage_push_pending(cursor.task.part, cursor.out_rows, region);
        }
        nr.remaining -= 1;
        if self.item_pool.len() < POOL_CAP {
            self.item_pool.push(cursor.take_items());
        }
        if nr.remaining == 0 {
            self.finalize_node(qid, node, ctx, step_offset);
        }
    }

    /// Finalizes a node whose tasks all completed: assembles the Mat,
    /// fills the memo, unblocks dependents, completes the query.
    fn finalize_node(
        &mut self,
        qid: QueryId,
        node: NodeId,
        ctx: &mut WorkCtx<'_>,
        step_offset: SimDuration,
    ) {
        let fp;
        let mat;
        {
            let run = self.queries.get_mut(&qid.0).expect("dead query");
            fp = run.fingerprints[node.idx()];
            let op = run.plan.node(node).clone();
            // Partials are handed to assembly by value: single-partition
            // nodes move their buffers straight into the Mat instead of
            // copying, and group/hash partials merge without clones.
            let nr = &mut run.nodes[node.idx()];
            let partials = std::mem::take(&mut nr.partials);
            let out_vals = nr.out_vals.take();
            let assembled = assemble_mat(
                &op,
                run,
                node,
                partials,
                out_vals,
                &self.catalog,
                &self.store,
            );
            let nr = &mut run.nodes[node.idx()];
            nr.storage_commit();
            nr.memo_hit = None;
            nr.mat = Some(assembled.clone());
            run.pending_nodes -= 1;
            mat = assembled;
        }
        // Fill the memo (bounded by epoch flush).
        if !self.memo.contains_key(&fp) {
            if self.memo.len() >= self.cfg.memo_capacity {
                self.memo.clear();
            }
            let run = &self.queries[&qid.0];
            let nr = &run.nodes[node.idx()];
            let part_rows = nr.committed_part_rows();
            self.memo.insert(fp, MemoEntry { mat, part_rows });
        }

        // Unblock dependents.
        let ready: Vec<NodeId> = {
            let run = self.queries.get_mut(&qid.0).expect("dead query");
            let deps = run.dependents[node.idx()].clone();
            deps.into_iter()
                .filter(|d| {
                    let nr = &mut run.nodes[d.idx()];
                    nr.waiting_inputs -= 1;
                    nr.waiting_inputs == 0
                })
                .collect()
        };
        for d in ready {
            self.schedule_node(qid, d);
        }
        if !self.queues.is_empty() {
            for i in 0..self.worker_tids.len() {
                ctx.wake(self.worker_tids[i]);
            }
        }

        // Query completion.
        let done = self.queries[&qid.0].pending_nodes == 0;
        if done {
            let run = self.queries.remove(&qid.0).expect("dead query");
            // Free all intermediate regions.
            for nr in &run.nodes {
                for region in nr.storage.regions() {
                    ctx.machine.free(region);
                }
            }
            let traffic = ctx.machine.counters_mut().retire_stream(run.stream);
            let root = run.plan.root();
            let result = root_result(
                run.plan.node(root),
                run.nodes[root.idx()].mat.clone().expect("root mat missing"),
                &RunInputs {
                    run: &run,
                    catalog: &self.catalog,
                    store: &self.store,
                },
            );
            self.stats.queries_completed += 1;
            // Steps within one tick share ctx.now, so a sub-tick query
            // could appear to finish before its submission stamp; clamp
            // to keep responses positive (skew is bounded by one tick).
            let finished = (ctx.now + step_offset).max(run.submitted + SimDuration::from_nanos(1));
            self.results.insert(
                qid.0,
                Ok(QueryResult {
                    qid,
                    label: run.label,
                    spec_tag: run.spec_tag,
                    submitted: run.submitted,
                    finished,
                    traffic,
                    busy: run.busy,
                    result,
                }),
            );
            ctx.wake(run.client);
        }
    }

    fn col_bat(&self, col: &ColRef) -> &Bat {
        self.store.get(self.catalog.column(col.table, col.column))
    }

    /// The simulated fault plane, checked at the top of every worker
    /// step. Fires any due fault for worker `idx`, then reports how
    /// long the worker is still dark (`None` = healthy, run normally).
    ///
    /// A **kill** loses the worker's in-flight cursor: its task is
    /// requeued (exactly once — the partial was never committed) and
    /// its allocated output freed, then the worker goes dark for
    /// [`sim_revive_delay`], the sim's fixed detect+respawn turnaround,
    /// counted in [`EngineStats::engine_recoveries`]/`recovery_ms`. A
    /// **stall** keeps the cursor and just goes dark for the stall
    /// duration. Dark workers burn their simulated quantum without
    /// progress, so recovery timing is deterministic.
    fn fault_dark(&mut self, idx: usize, ctx: &mut WorkCtx<'_>) -> Option<SimDuration> {
        self.faults.as_ref()?;
        let now = ctx.now;
        let mut kill = false;
        let mut stall: Option<SimDuration> = None;
        {
            let f = self.faults.as_mut()?;
            if f.dark_until.len() <= idx {
                f.dark_until.resize(idx + 1, SimTime::ZERO);
            }
            for i in 0..f.plan.worker_faults.len() {
                let wf = f.plan.worker_faults[i];
                if f.fired[i] || wf.worker as usize != idx {
                    continue;
                }
                if now >= SimTime::ZERO + wf.at {
                    f.fired[i] = true;
                    match wf.kind {
                        WorkerFaultKind::Kill => kill = true,
                        WorkerFaultKind::Stall(d) => stall = Some(d),
                    }
                }
            }
        }
        if kill {
            self.sim_kill_worker(idx, ctx);
            let revive = now + sim_revive_delay();
            self.stats.engine_recoveries += 1;
            self.stats.recovery_ms += sim_revive_delay().as_secs_f64() * 1e3;
            let f = self.faults.as_mut()?;
            if revive > f.dark_until[idx] {
                f.dark_until[idx] = revive;
            }
        }
        if let Some(d) = stall {
            let f = self.faults.as_mut()?;
            let until = now + d;
            if until > f.dark_until[idx] {
                f.dark_until[idx] = until;
            }
        }
        let dark = *self.faults.as_ref()?.dark_until.get(idx)?;
        if now < dark {
            Some(dark - now)
        } else {
            None
        }
    }

    /// The sim analogue of a worker dying mid-task: its parked cursor's
    /// task goes back to the global queue (to be re-prepared and
    /// re-executed by a survivor or by this worker after it revives),
    /// the cursor's output region is freed, and the worker's private
    /// queue is rehomed so lineage preferences cannot strand tasks on a
    /// dark worker.
    fn sim_kill_worker(&mut self, idx: usize, ctx: &mut WorkCtx<'_>) {
        if let Some(mut cursor) = self.resume_slot(idx) {
            if let Some(region) = cursor.out_region.take() {
                ctx.machine.free(&region);
            }
            self.queues.global.push_back(cursor.task);
            if self.item_pool.len() < POOL_CAP {
                self.item_pool.push(cursor.take_items());
            }
        }
        if let Some(q) = self.queues.per_worker.get_mut(idx) {
            let orphans: Vec<Task> = q.drain(..).collect();
            self.queues.global.extend(orphans);
        }
        // Survivors may now have work they were never woken for.
        for tid in self.worker_tids.clone() {
            ctx.wake(tid);
        }
    }
}

// Pending-region buffering on NodeRun: tasks finish out of order, but
// NodeStorage wants row order. We stash (part, rows, region) and commit
// sorted at finalize.
impl NodeRun {
    fn storage_push_pending(&mut self, part: u32, rows: usize, region: numa_sim::Region) {
        self.pending_regions.push((part, rows, region));
    }

    fn storage_commit(&mut self) {
        self.pending_regions.sort_by_key(|&(p, _, _)| p);
        let parts: Vec<(u32, usize, numa_sim::Region)> = self.pending_regions.drain(..).collect();
        for (_, rows, region) in parts {
            self.storage.push_part(rows, region);
        }
    }

    fn committed_part_rows(&self) -> Vec<usize> {
        // Reconstructed from storage parts at memo time; when the op has
        // no storage (scalar), a single zero entry.
        vec![self.storage.rows()]
    }
}

/// Input resolution for operator evaluation/assembly, abstracted over
/// the executor: the simulated engine resolves against its `QueryRun`
/// and `BatStore`, the threads backend ([`crate::exec::par`]) against a
/// lock-free snapshot of input mats and shared base columns. Keeping
/// both backends on these exact functions is what makes their query
/// results bitwise identical.
pub(crate) trait ExecInputs {
    /// The plan being executed.
    fn plan(&self) -> &Plan;
    /// A base column's data.
    fn col_data(&self, c: &ColRef) -> &ColData;
    /// A finished upstream node's value.
    fn node_mat(&self, n: NodeId) -> &Mat;

    /// A finished upstream node read as values — the one read path of
    /// every value consumer. A projection's value is the positions it
    /// reads through (`Mat::Pos`), so the view gathers each partition
    /// from the base column; any other node's materialised column is
    /// borrowed.
    fn node_vals(&self, n: NodeId) -> ValView<'_> {
        match (self.plan().node(n), self.node_mat(n)) {
            (PhysOp::Project { col, .. } | PhysOp::ProjectSide { col, .. }, Mat::Pos(pos)) => {
                ValView::Gather {
                    base: self.col_data(col),
                    pos,
                }
            }
            (_, mat) => ValView::Col(mat.as_val()),
        }
    }
}

/// A value input as [`ExecInputs::node_vals`] exposes it.
pub(crate) enum ValView<'a> {
    /// A materialised column.
    Col(&'a ValMat),
    /// A projection: `base[pos]`, gathered partition by partition.
    Gather {
        /// The projected base column.
        base: &'a ColData,
        /// The positions the projection reads through.
        pos: &'a PosMat,
    },
}

impl<'a> ValView<'a> {
    /// Rows `[start, end)` as a typed partition.
    fn part(&self, start: usize, end: usize) -> Vals<'a> {
        match *self {
            ValView::Col(v) => Vals::slice(&v.data, start, end),
            ValView::Gather { base, pos } => Vals::gather(base, &pos.pos[start..end]),
        }
    }

    /// Where each row came from, if projected from a base table.
    fn origin(&self) -> Option<&'a PosMat> {
        match *self {
            ValView::Col(v) => v.origin.as_ref(),
            ValView::Gather { pos, .. } => Some(pos),
        }
    }

    /// Rows.
    fn len(&self) -> usize {
        match self {
            ValView::Col(v) => v.data.len(),
            ValView::Gather { pos, .. } => pos.pos.len(),
        }
    }
}

/// The result a query returns from its root node: a projection at the
/// root is gathered into a `Mat::Val` here, once, at completion; any
/// other value is returned as is.
pub(crate) fn root_result(op: &PhysOp, mat: Mat, inputs: &impl ExecInputs) -> Mat {
    match (op, mat) {
        (PhysOp::Project { col, .. } | PhysOp::ProjectSide { col, .. }, Mat::Pos(pos)) => {
            Mat::Val(ValMat {
                data: eval::project(&pos.pos, inputs.col_data(col)),
                origin: Some(pos),
            })
        }
        (_, mat) => mat,
    }
}

/// Engine-side [`ExecInputs`]: resolves against the live query run.
struct RunInputs<'a> {
    run: &'a QueryRun,
    catalog: &'a Catalog,
    store: &'a BatStore,
}

impl ExecInputs for RunInputs<'_> {
    fn plan(&self) -> &Plan {
        &self.run.plan
    }

    fn col_data(&self, c: &ColRef) -> &ColData {
        &self.store.get(self.catalog.column(c.table, c.column)).data
    }

    fn node_mat(&self, n: NodeId) -> &Mat {
        self.run.nodes[n.idx()]
            .mat
            .as_ref()
            .expect("input mat ready")
    }
}

/// Evaluates one partition of an operator for real.
fn evaluate_partition(
    op: &PhysOp,
    run: &QueryRun,
    start: usize,
    end: usize,
    catalog: &Catalog,
    store: &BatStore,
) -> Partial {
    evaluate_partition_on(
        op,
        &RunInputs {
            run,
            catalog,
            store,
        },
        start,
        end,
    )
}

/// [`evaluate_partition`] over any [`ExecInputs`] source (shared by the
/// simulated and threads backends).
pub(crate) fn evaluate_partition_on(
    op: &PhysOp,
    inputs: &impl ExecInputs,
    start: usize,
    end: usize,
) -> Partial {
    let col_data = |c: &ColRef| -> &ColData { inputs.col_data(c) };
    let node_mat = |n: NodeId| -> &Mat { inputs.node_mat(n) };
    match op {
        PhysOp::ScanSelect { col, pred } => {
            Partial::Pos(eval::scan_select(col_data(col), start, end, pred))
        }
        PhysOp::SelectAnd {
            candidates,
            col,
            pred,
        } => {
            let cands = node_mat(*candidates).as_pos();
            Partial::Pos(eval::select_and(
                &cands.pos[start..end],
                col_data(col),
                pred,
            ))
        }
        PhysOp::SelectColCmp {
            candidates,
            left,
            right,
            op,
        } => {
            let out = match candidates {
                Some(c) => {
                    let cands = node_mat(*c).as_pos();
                    eval::select_col_cmp(
                        Some(&cands.pos[start..end]),
                        col_data(left),
                        col_data(right),
                        *op,
                        (0, 0),
                    )
                }
                None => {
                    eval::select_col_cmp(None, col_data(left), col_data(right), *op, (start, end))
                }
            };
            Partial::Pos(out)
        }
        // A projection holds the positions it reads through; consumers
        // gather from the base column (`ExecInputs::node_vals`).
        PhysOp::Project { .. } | PhysOp::ProjectSide { .. } => Partial::Rows(end - start),
        PhysOp::BinOp { left, right, op } => {
            let l = inputs.node_vals(*left).part(start, end);
            let r = inputs.node_vals(*right).part(start, end);
            Partial::Vals(eval::bin_op(&l, &r, *op))
        }
        PhysOp::AggrSum { values } => {
            Partial::Sum(eval::aggr_sum(&inputs.node_vals(*values).part(start, end)))
        }
        PhysOp::GroupAgg { keys, values, agg } => {
            let k = inputs.node_vals(*keys).part(start, end);
            let v = values.map(|v| inputs.node_vals(v).part(start, end));
            Partial::Groups(eval::group_agg(&k, v.as_ref(), *agg))
        }
        PhysOp::JoinBuild { keys } => Partial::BuildKeys(eval::build_hash_part(
            inputs.node_vals(*keys).part(start, end),
        )),
        PhysOp::JoinProbe { build, probe } => {
            let table = node_mat(*build).as_hash();
            let p = inputs.node_vals(*probe);
            let probe_origin = p.origin().map(|o| o.pos.as_slice());
            let build_origin = table.build_origin.as_ref().map(|o| o.pos.as_slice());
            let (po, bo) = eval::probe_hash(
                table,
                &p.part(start, end),
                probe_origin,
                build_origin,
                start,
            );
            Partial::PairParts(po, bo)
        }
        PhysOp::TopN { input, n } => {
            let g = node_mat(*input).as_groups();
            Partial::Groups(GroupAcc::Pairs(eval::top_n(g, *n)))
        }
    }
}

/// Assembles the node's final [`Mat`] from partials (or the pinned memo
/// snapshot). Partials arrive by value: the single-partition case moves
/// its buffer into the Mat without a copy, and multi-partition concats
/// reserve exactly once from the partial sizes.
fn assemble_mat(
    op: &PhysOp,
    run: &QueryRun,
    node: NodeId,
    partials: Vec<Option<Partial>>,
    out_vals: Option<Vec<f64>>,
    catalog: &Catalog,
    store: &BatStore,
) -> Mat {
    let nr = &run.nodes[node.idx()];
    if let Some((mat, _)) = &nr.memo_hit {
        debug_assert!(
            partials.iter().all(|p| matches!(p, Some(Partial::Reuse))),
            "memo-pinned node produced real partials"
        );
        return mat.clone();
    }
    assemble_parts(
        op,
        &RunInputs {
            run,
            catalog,
            store,
        },
        partials,
        out_vals,
    )
}

/// [`assemble_mat`] over any [`ExecInputs`] source, without the memo
/// path (the threads backend does not memoise — its timing is real).
/// Partials are concatenated/merged strictly in partition order, so both
/// backends produce the same float results bit for bit.
pub(crate) fn assemble_parts(
    op: &PhysOp,
    inputs: &impl ExecInputs,
    mut partials: Vec<Option<Partial>>,
    out_vals: Option<Vec<f64>>,
) -> Mat {
    let node_mat = |n: NodeId| -> &Mat { inputs.node_mat(n) };
    let table_of = |col: &ColRef| -> &'static str { col.table };
    match op {
        PhysOp::ScanSelect { col, .. } | PhysOp::SelectAnd { col, .. } => {
            let pos = concat_pos(partials);
            Mat::Pos(PosMat {
                table: table_of(col),
                pos: Arc::new(pos),
            })
        }
        PhysOp::SelectColCmp { left, .. } => {
            let pos = concat_pos(partials);
            Mat::Pos(PosMat {
                table: table_of(left),
                pos: Arc::new(pos),
            })
        }
        // Late-materialised: an `Arc` share of the positions read
        // through, no value bytes (see `ExecInputs::node_vals`).
        PhysOp::Project { positions, .. } => Mat::Pos(node_mat(*positions).as_pos().clone()),
        PhysOp::ProjectSide { pairs, side, .. } => {
            let pm = node_mat(*pairs).as_pairs();
            Mat::Pos(match side {
                Side::Probe => pm.probe.clone(),
                Side::Build => pm.build.clone(),
            })
        }
        PhysOp::BinOp { left, .. } => Mat::Val(ValMat {
            data: ColData::F64(Arc::new(vals_data(out_vals, partials))),
            origin: inputs.node_vals(*left).origin().cloned(),
        }),
        PhysOp::AggrSum { .. } => {
            let total: f64 = partials
                .iter()
                .map(|p| match p {
                    Some(Partial::Sum(s)) => *s,
                    _ => panic!("non-sum partial in AggrSum"),
                })
                .sum();
            Mat::Scalar(total)
        }
        PhysOp::GroupAgg { .. } | PhysOp::TopN { .. } => {
            let accs = partials.iter_mut().map(|p| match p.take() {
                Some(Partial::Groups(acc)) => acc,
                _ => panic!("non-group partial in group/topn"),
            });
            let merged = eval::merge_groups(accs);
            if let PhysOp::TopN { n, .. } = op {
                Mat::Groups(Arc::new(eval::top_n(&merged, *n)))
            } else {
                Mat::Groups(Arc::new(merged))
            }
        }
        PhysOp::JoinBuild { keys } => {
            let k = inputs.node_vals(*keys);
            let key_parts = partials.iter_mut().map(|p| match p.take() {
                Some(Partial::BuildKeys(v)) => v,
                _ => panic!("non-build partial in JoinBuild"),
            });
            let map = FlatJoinMap::from_parts(key_parts);
            debug_assert_eq!(map.n_rows(), k.len(), "build partials must tile the keys");
            let build_origin = k.origin().cloned();
            let build_table = build_origin.as_ref().map_or("unknown", |o| o.table);
            Mat::Hash(Arc::new(JoinTable {
                map,
                build_origin,
                build_table,
            }))
        }
        PhysOp::JoinProbe { build, probe } => {
            let probe_table = inputs
                .node_vals(*probe)
                .origin()
                .map_or("unknown", |o| o.table);
            let table = node_mat(*build).as_hash();
            let build_table = table
                .build_origin
                .as_ref()
                .map(|o| o.table)
                .unwrap_or(table.build_table);
            let total: usize = partials
                .iter()
                .map(|p| match p {
                    Some(Partial::PairParts(a, _)) => a.len(),
                    _ => 0,
                })
                .sum();
            let mut probe_pos = Vec::new();
            let mut build_pos = Vec::new();
            for part in partials.iter_mut() {
                match part.take() {
                    Some(Partial::PairParts(po, bo)) => {
                        if probe_pos.is_empty() && po.len() == total {
                            // Single-partition (or single non-empty)
                            // result: take the buffers as-is.
                            probe_pos = po;
                            build_pos = bo;
                        } else {
                            probe_pos.reserve(total - probe_pos.len());
                            build_pos.reserve(total - build_pos.len());
                            probe_pos.extend_from_slice(&po);
                            build_pos.extend_from_slice(&bo);
                        }
                    }
                    _ => panic!("non-pairs partial in JoinProbe"),
                }
            }
            Mat::Pairs(PairsMat {
                probe: PosMat {
                    table: probe_table,
                    pos: Arc::new(probe_pos),
                },
                build: PosMat {
                    table: build_table,
                    pos: Arc::new(build_pos),
                },
            })
        }
    }
}

fn concat_pos(mut partials: Vec<Option<Partial>>) -> Vec<u32> {
    let total: usize = partials
        .iter()
        .map(|p| match p {
            Some(Partial::Pos(v)) => v.len(),
            _ => 0,
        })
        .sum();
    let mut out: Vec<u32> = Vec::new();
    for p in partials.iter_mut() {
        match p.take() {
            Some(Partial::Pos(v)) => {
                if out.is_empty() && v.len() == total {
                    // All rows in one partial: move, don't copy.
                    out = v;
                } else {
                    out.reserve(total - out.len());
                    out.extend_from_slice(&v);
                }
            }
            _ => panic!("non-pos partial"),
        }
    }
    out
}

/// `BinOp` data: the in-place buffer when present (all partitions wrote
/// their slices), else the concatenated partials (the threads backend).
fn vals_data(out_vals: Option<Vec<f64>>, mut partials: Vec<Option<Partial>>) -> Vec<f64> {
    if let Some(buf) = out_vals {
        debug_assert!(
            partials.iter().all(|p| matches!(p, Some(Partial::Rows(_)))),
            "in-place val node produced copied partials"
        );
        return buf;
    }
    let total: usize = partials
        .iter()
        .map(|p| match p {
            Some(Partial::Vals(v)) => v.len(),
            _ => 0,
        })
        .sum();
    let mut out: Vec<f64> = Vec::new();
    for p in partials.iter_mut() {
        match p.take() {
            Some(Partial::Vals(v)) => {
                if out.is_empty() && v.len() == total {
                    out = v;
                } else {
                    out.reserve(total - out.len());
                    out.extend_from_slice(&v);
                }
            }
            _ => panic!("non-val partial"),
        }
    }
    out
}

/// Evaluates one partition of a `BinOp`, rows `[start, start +
/// out.len())`, straight into its slice of the node's shared output
/// buffer.
fn evaluate_val_into(op: &PhysOp, inputs: &impl ExecInputs, start: usize, out: &mut [f64]) {
    let end = start + out.len();
    match op {
        PhysOp::BinOp { left, right, op } => {
            let l = inputs.node_vals(*left).part(start, end);
            let r = inputs.node_vals(*right).part(start, end);
            eval::bin_op_into(&l, &r, *op, out);
        }
        other => panic!("not an in-place value operator: {}", other.mal_name()),
    }
}

fn partial_rows(p: &Partial) -> usize {
    match p {
        Partial::Pos(v) => v.len(),
        Partial::Vals(v) => v.len(),
        Partial::Rows(rows) => *rows,
        Partial::PairParts(a, _) => a.len(),
        Partial::Sum(_) => 0,
        Partial::Groups(acc) => acc.n_groups(),
        Partial::BuildKeys(v) => v.len(),
        Partial::Reuse => 0,
    }
}

fn memo_part_rows(part_rows: &[usize], part: u32, n_parts: u32) -> usize {
    let total: usize = part_rows.iter().sum();
    let (s, e) = part_range(total, part, n_parts);
    e - s
}

fn out_row_bytes(op: &PhysOp) -> u64 {
    match op {
        PhysOp::ScanSelect { .. } | PhysOp::SelectAnd { .. } | PhysOp::SelectColCmp { .. } => 4,
        PhysOp::Project { .. } | PhysOp::ProjectSide { .. } | PhysOp::BinOp { .. } => 8,
        PhysOp::JoinProbe { .. } => 8,
        PhysOp::GroupAgg { .. } => 16,
        PhysOp::JoinBuild { .. } => 16,
        PhysOp::AggrSum { .. } | PhysOp::TopN { .. } => 0,
    }
}

fn op_cycles(op: &PhysOp) -> u64 {
    match op {
        PhysOp::ScanSelect { .. } => cost::SCAN_SELECT,
        PhysOp::SelectAnd { .. } => cost::SELECT_AND,
        PhysOp::SelectColCmp { .. } => cost::SELECT_COL_CMP,
        PhysOp::Project { .. } => cost::PROJECT,
        PhysOp::ProjectSide { .. } => cost::PROJECT,
        PhysOp::BinOp { .. } => cost::BIN_OP,
        PhysOp::AggrSum { .. } => cost::AGGR_SUM,
        PhysOp::GroupAgg { .. } => cost::GROUP_AGG,
        PhysOp::JoinBuild { .. } => cost::JOIN_BUILD,
        PhysOp::JoinProbe { .. } => cost::JOIN_PROBE,
        PhysOp::TopN { .. } => cost::TOP_N,
    }
}

/// The plan node an operator partitions over (the slice-affinity
/// lineage source). Mirrors [`primary_input_len`]: for a join probe the
/// partitioning follows the *probe* side, not `inputs().first()` (which
/// is the build). `None` for operators partitioned over base tables.
pub(crate) fn primary_input(plan: &Plan, node: NodeId) -> Option<NodeId> {
    match plan.node(node) {
        PhysOp::ScanSelect { .. } => None,
        PhysOp::SelectAnd { candidates, .. } => Some(*candidates),
        PhysOp::SelectColCmp { candidates, .. } => *candidates,
        PhysOp::Project { positions, .. } => Some(*positions),
        PhysOp::ProjectSide { pairs, .. } => Some(*pairs),
        PhysOp::BinOp { left, .. } => Some(*left),
        PhysOp::AggrSum { values } => Some(*values),
        PhysOp::GroupAgg { keys, .. } => Some(*keys),
        PhysOp::JoinBuild { keys } => Some(*keys),
        PhysOp::JoinProbe { probe, .. } => Some(*probe),
        PhysOp::TopN { input, .. } => Some(*input),
    }
}

/// Length of the primary input an operator partitions over.
fn primary_input_len(
    plan: &Plan,
    node: NodeId,
    nodes: &[NodeRun],
    catalog: &Catalog,
    _store: &BatStore,
) -> usize {
    let mat_len = |n: NodeId| nodes[n.idx()].mat.as_ref().map_or(0, |m| m.len());
    match plan.node(node) {
        PhysOp::ScanSelect { col, .. } => catalog.rows(col.table),
        PhysOp::SelectAnd { candidates, .. } => mat_len(*candidates),
        PhysOp::SelectColCmp {
            candidates, left, ..
        } => match candidates {
            Some(c) => mat_len(*c),
            None => catalog.rows(left.table),
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

/// The first input segment of a task's partition (locality dispatch).
fn first_input_segment(
    plan: &Plan,
    task: &Task,
    nodes: &[NodeRun],
    catalog: &Catalog,
    store: &BatStore,
) -> Option<SegId> {
    let len = primary_input_len(plan, task.node, nodes, catalog, store);
    let (start, end) = part_range(len, task.part, task.n_parts);
    if start >= end {
        return None;
    }
    match plan.node(task.node) {
        PhysOp::ScanSelect { col, .. } => {
            let bat = store.get(catalog.column(col.table, col.column));
            bat.segments_for_rows(start, start + 1).first().copied()
        }
        op => {
            let input = op.inputs().first().copied()?;
            nodes[input.idx()]
                .storage
                .segments_for_rows(start, start + 1)
                .first()
                .copied()
        }
    }
}

/// Structural fingerprints for memoisation: equal sub-plans over the same
/// base data share results.
fn fingerprint_plan(plan: &Plan) -> Vec<u64> {
    let mut fps: Vec<u64> = Vec::with_capacity(plan.len());
    for (i, op) in plan.nodes().iter().enumerate() {
        let mut h = emca_metrics::fxhash::FxHasher::default();
        std::mem::discriminant(op).hash(&mut h);
        match op {
            PhysOp::ScanSelect { col, pred } => {
                col.hash(&mut h);
                hash_pred(pred, &mut h);
            }
            PhysOp::SelectAnd { col, pred, .. } => {
                col.hash(&mut h);
                hash_pred(pred, &mut h);
            }
            PhysOp::SelectColCmp {
                left, right, op, ..
            } => {
                left.hash(&mut h);
                right.hash(&mut h);
                op.hash(&mut h);
            }
            PhysOp::Project { col, .. } => col.hash(&mut h),
            PhysOp::ProjectSide { side, col, .. } => {
                side.hash(&mut h);
                col.hash(&mut h);
            }
            PhysOp::BinOp { op, .. } => op.hash(&mut h),
            PhysOp::AggrSum { .. } => {}
            PhysOp::GroupAgg { agg, .. } => agg.hash(&mut h),
            PhysOp::JoinBuild { .. } => {}
            PhysOp::JoinProbe { .. } => {}
            PhysOp::TopN { n, .. } => n.hash(&mut h),
        }
        for input in plan.node(NodeId(i as u16)).inputs() {
            fps[input.idx()].hash(&mut h);
        }
        fps.push(h.finish());
    }
    fps
}

fn hash_pred(pred: &crate::exec::plan::ScalarPred, h: &mut impl Hasher) {
    use crate::exec::plan::ScalarPred as P;
    match pred {
        P::Cmp(op, k) => {
            0u8.hash(h);
            op.hash(h);
            k.to_bits().hash(h);
        }
        P::Between(a, b) => {
            1u8.hash(h);
            a.to_bits().hash(h);
            b.to_bits().hash(h);
        }
        P::InSet(s) => {
            2u8.hash(h);
            s.hash(h);
        }
    }
}

/// The worker thread body: pops tasks, advances cursors, completes them.
pub struct WorkerBody {
    engine: Engine,
    /// Worker index in the pool.
    pub idx: usize,
}

impl SimWork for WorkerBody {
    fn step(&mut self, ctx: &mut WorkCtx<'_>) -> StepOutcome {
        // Fault plane first: a killed/stalled worker burns its quantum
        // dark instead of executing (inert unless a plan is armed).
        if let Some(dark) = self.engine.core().fault_dark(self.idx, ctx) {
            return StepOutcome::Ran(dark.min(ctx.budget));
        }
        let mut elapsed = SimDuration::ZERO;
        loop {
            if elapsed >= ctx.budget {
                return StepOutcome::Ran(elapsed);
            }
            // Resume or fetch a task.
            let cursor = {
                let mut core = self.engine.core();
                match core.resume_slot(self.idx) {
                    Some(c) => Some(c),
                    None => {
                        core.localize_tasks(ctx.machine);
                        let node = ctx.machine.topology().node_of(ctx.core);
                        match core.pop_task(node, self.idx) {
                            Some(task) => Some(core.prepare_task(task, ctx.machine)),
                            None => None,
                        }
                    }
                }
            };
            let Some(mut cursor) = cursor else {
                return StepOutcome::Blocked(elapsed);
            };
            let (used, done) = cursor.advance(ctx, ctx.budget.saturating_sub(elapsed));
            elapsed += used;
            let mut core = self.engine.core();
            if done {
                core.complete_task(cursor, ctx, elapsed, self.idx);
            } else {
                core.park_slot(self.idx, cursor);
                return StepOutcome::Ran(elapsed);
            }
        }
    }

    fn label(&self) -> &str {
        "dbms-worker"
    }
}

// Per-worker parked cursors (tasks in progress across ticks).
impl EngineCore {
    fn resume_slot(&mut self, idx: usize) -> Option<TaskCursor> {
        if self.parked.len() <= idx {
            self.parked.resize_with(idx + 1, || None);
        }
        self.parked[idx].take()
    }

    fn park_slot(&mut self, idx: usize, cursor: TaskCursor) {
        if self.parked.len() <= idx {
            self.parked.resize_with(idx + 1, || None);
        }
        self.parked[idx] = Some(cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{drain_results, spawn_clients, Workload};
    use crate::tpch::{build_query, QuerySpec, TpchScale};
    use emca_metrics::SimTime;
    use os_sim::{CoreMask, Kernel, KernelConfig};

    #[test]
    fn projection_memo_entries_own_no_value_bytes() {
        let kernel_cfg = KernelConfig::default();
        let machine =
            numa_sim::Machine::new(numa_sim::MachineConfig::opteron_4x4(), kernel_cfg.tick);
        let mut kernel = Kernel::new(machine, kernel_cfg);
        let data = TpchData::generate(TpchScale::test_tiny());
        let engine = Engine::new(
            EngineConfig::default(),
            kernel.machine().topology().n_nodes(),
        );
        engine.load(kernel.machine_mut(), &data, None);
        let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
        engine.start_workers(&mut kernel, group);
        // Q3 projects through selections (`Project`) and through both
        // sides of join pairs (`ProjectSide`); the second run is served
        // from the memo.
        let spec = QuerySpec::Tpch {
            number: 3,
            variant: 0,
        };
        let logs = spawn_clients(
            &mut kernel,
            &engine,
            group,
            1,
            Workload::Repeat {
                spec,
                iterations: 2,
            },
        );
        let finished =
            kernel.run_until_cond(SimTime::from_secs(300), |_| drain_results(&logs).len() == 2);
        assert!(finished, "Q3 did not finish twice");
        let results = drain_results(&logs);
        assert_eq!(
            format!("{:?}", results[0].result),
            format!("{:?}", results[1].result)
        );

        let plan = build_query(&spec);
        let fps = fingerprint_plan(&plan);
        let core = engine.core_ref();
        let memo = |n: NodeId| &core.memo[&fps[n.idx()]].mat;
        let mut checked = 0;
        for (i, op) in plan.nodes().iter().enumerate() {
            let input = match op {
                PhysOp::Project { positions, .. } => memo(*positions).as_pos(),
                PhysOp::ProjectSide { pairs, side, .. } => match side {
                    Side::Probe => &memo(*pairs).as_pairs().probe,
                    Side::Build => &memo(*pairs).as_pairs().build,
                },
                _ => continue,
            };
            let Mat::Pos(own) = memo(NodeId(i as u16)) else {
                panic!("{} node {i} holds materialised values", op.mal_name());
            };
            assert!(
                Arc::ptr_eq(&own.pos, &input.pos),
                "{} node {i} copied its positions",
                op.mal_name()
            );
            checked += 1;
        }
        assert_eq!(
            checked, 7,
            "Q3 has three Project and four ProjectSide nodes"
        );
    }
}
