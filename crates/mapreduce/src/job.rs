//! The job driver: the public job types and the `Driver`, what one stage
//! run keeps of its own. Every run is a stage run of a plan, and one plan
//! driver (`dag.rs`) submits them all and hears each end (`end_run` calls
//! `dag::run_ended`): a classic job is a plan of one or two stages — its
//! maps, a source stage that writes the job's own shuffle, and its
//! reducers, a post-shuffle stage whose task function groups the pulled
//! pairs and reduces them (`submit_job_env`); a DAG is a plan of one stage
//! per shuffle boundary. A run lives on its plan's `Pool`, at its stage-run
//! index, and reads its task function, policy, splits, sources and sink
//! from its stage; the pool answers the questions that take a run, its
//! stage, the shuffle store and the node table together (is a task due,
//! would it wait, where may it go). The mechanics of a run live in the
//! submodules: `nodes` (per-node slot and health table), `pool` (one plan's
//! home and its one cell of driver state: that table, the attempt
//! numbering, every run, the live ones in the order slots are offered to
//! them, and the plan driver's books), `sched` (pure task placement),
//! `attempt` (the task table, launch / fail / first-commit-wins),
//! `detector` (kills, heartbeats, hang deadlines, node withdrawal),
//! `speculate`, `map` (the attempt body: fetch or pull, run the task
//! function, spill or write), `pull` (the pull loop of a task that reads a
//! shuffle) and `commit` (partitioning, grouping, part files, the registry
//! of shuffle outputs).

use std::fmt;
use std::rc::Rc;

use simnet::{ChunkKey, NodeId, Sim};

use crate::cluster::{Cluster, MrEnv};
use crate::counters::{keys, Counters};
use crate::dag::{self, submit_plan, DagResult, Plan, Stage};
use crate::input::{InputSplit, TaskInput};

mod attempt;
mod commit;
mod detector;
mod map;
mod nodes;
mod pool;
mod pull;
mod sched;
mod speculate;

pub(crate) use commit::{group_by_key, ShuffleStore};
pub(crate) use pool::{schedule, Pool, SharedPool};

use attempt::{AttemptId, AttemptInfo, TaskTable};

/// Task- or job-level failure. A lost shuffle input is none: the reader
/// waits while lineage recomputes it (`dag.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Free-form task failure (fetch error, user code error, injected
    /// fault, hang, no usable node left).
    Msg(String),
}

impl MrError {
    /// A free-form failure (the old `MrError::msg(msg)` constructor).
    pub fn msg(m: impl Into<String>) -> MrError {
        MrError::Msg(m.into())
    }

    /// The failure text without the `Display` prefix — what upper layers
    /// match on to classify errors.
    pub fn message(&self) -> String {
        match self {
            MrError::Msg(m) => m.clone(),
        }
    }
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task failed: {}", self.message())
    }
}

impl std::error::Error for MrError {}

/// A value travelling through the shuffle.
#[derive(Debug, Clone)]
pub enum Payload {
    Bytes(Vec<u8>),
    Frame(rframe::DataFrame),
}

impl Payload {
    pub fn approx_bytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Frame(f) => f.approx_bytes(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Kv {
    pub key: String,
    pub value: Payload,
}

/// Execution context handed to map/reduce closures: charge virtual compute,
/// emit key/value pairs.
pub struct TaskCtx {
    cost: simnet::CostModel,
    charges: Vec<(&'static str, f64)>,
    emitted: Vec<Kv>,
    records: u64,
    tag: String,
}

impl TaskCtx {
    /// A fresh context over `cost`: what the engine hands each attempt, and
    /// what runs task payloads outside it (the naive baseline processes
    /// files without Hadoop).
    pub fn standalone(cost: simnet::CostModel) -> TaskCtx {
        TaskCtx {
            cost,
            charges: Vec::new(),
            emitted: Vec::new(),
            records: 0,
            tag: String::new(),
        }
    }

    /// Set the split tag (engine-internal; also used by standalone runs).
    pub fn set_tag(&mut self, tag: impl Into<String>) {
        self.tag = tag.into();
    }

    /// Sum of all charges so far.
    pub fn total_charge_s(&self) -> f64 {
        self.charges.iter().map(|(_, s)| s).sum()
    }

    /// Drain emitted pairs (standalone runs handle their own output).
    pub fn take_emitted(&mut self) -> Vec<(String, Payload)> {
        std::mem::take(&mut self.emitted)
            .into_iter()
            .map(|kv| (kv.key, kv.value))
            .collect()
    }

    /// Split metadata set by the fetcher (empty when the fetcher sets
    /// none) — how SciDP's R layer learns which slab a task received.
    pub fn input_tag(&self) -> &str {
        &self.tag
    }

    /// The cluster's cost model (to derive charges from byte/pixel counts).
    pub fn cost(&self) -> &simnet::CostModel {
        &self.cost
    }

    /// Charge `secs` of virtual compute under a phase label ("convert",
    /// "plot", "analysis", ...). Phase totals surface in [`TaskReport`].
    pub fn charge(&mut self, phase: &'static str, secs: f64) {
        assert!(secs >= 0.0 && secs.is_finite(), "bad charge {secs}");
        self.charges.push((phase, secs));
    }

    /// Emit a key/value pair into the shuffle (or the task output for
    /// map-only jobs).
    pub fn emit(&mut self, key: impl Into<String>, value: Payload) {
        self.records += 1;
        self.emitted.push(Kv {
            key: key.into(),
            value,
        });
    }
}

/// Map closure: real work over the fetched input.
pub type MapFn = Rc<dyn Fn(TaskInput, &mut TaskCtx) -> Result<(), MrError>>;
/// Reduce closure: one key group at a time.
pub type ReduceFn = Rc<dyn Fn(&str, Vec<Payload>, &mut TaskCtx) -> Result<(), MrError>>;

/// Fault-tolerance policy of one job (Hadoop's
/// `mapreduce.map.maxattempts` family).
#[derive(Clone, Debug)]
pub struct FtConfig {
    /// Attempts per task before the job fails (Hadoop default: 4).
    pub max_task_attempts: usize,
    /// Launch duplicate attempts for stragglers: once half a run's tasks
    /// have shown their progress, an attempt that computes well slower than
    /// they do, a streamed fetch that well outlasts theirs, an attempt on a
    /// suspected node and a completion lost to a silent node each get one
    /// twin on another node (`job/speculate.rs`).
    pub speculative: bool,
    /// Simulated seconds between failure-detector heartbeat ticks. The
    /// detector only arms itself when the installed fault plan contains
    /// hangs or partitions, so clean runs carry zero detector events.
    pub heartbeat_interval_s: f64,
    /// Consecutive missed heartbeats before a node is *suspected*.
    pub suspect_after_misses: usize,
    /// Consecutive missed heartbeats before a suspected node is *declared
    /// dead*: its slots are withdrawn and its tasks requeued. Unlike a
    /// fault-plan kill this is reversible — heartbeats resuming (a healed
    /// partition) reinstate the node.
    pub dead_after_misses: usize,
    /// Floor of the per-attempt hang deadline, `max(hang_deadline_min_s,
    /// 3 × q75 of committed task durations)` of the attempt's own run. It
    /// rules while too few tasks have committed for a meaningful duration
    /// quantile. An attempt still running past its deadline is declared hung
    /// and failed.
    pub hang_deadline_min_s: f64,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            max_task_attempts: 4,
            speculative: true,
            heartbeat_interval_s: 3.0,
            suspect_after_misses: 2,
            dead_after_misses: 4,
            hang_deadline_min_s: 45.0,
        }
    }
}

/// Streaming-input pipeline policy: whether map attempts pull their split
/// as chunk-granular pieces through a prefetch window of two pieces (double
/// buffering), overlapping in-flight PFS reads with per-piece map compute
/// (§III-A.3's "reads proceed in parallel and overlapped with compute",
/// realized *inside* each task instead of only across tasks).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Use streaming fetches when a split's fetcher supports them
    /// (fetchers without streaming support always take the batch path).
    pub enabled: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { enabled: true }
    }
}

/// A MapReduce job specification.
#[derive(Clone)]
pub struct Job {
    pub name: String,
    pub splits: Vec<InputSplit>,
    pub map_fn: MapFn,
    /// `None` = map-only job (outputs written as `part-m-*`).
    pub reduce_fn: Option<ReduceFn>,
    pub n_reducers: usize,
    /// Directory for part files (HDFS by default, PFS with
    /// `output_to_pfs`).
    pub output_dir: String,
    /// Lustre-connector mode (Fig. 2): map spills go to the PFS over the
    /// network instead of the node-local disk ("diskless Hadoop").
    pub spill_to_pfs: bool,
    /// Lustre-connector mode: part files are written to the PFS.
    pub output_to_pfs: bool,
    /// Retry / speculation / failure-detector policy.
    pub ft: FtConfig,
    /// Intra-task read/compute overlap policy.
    pub stream: StreamConfig,
}

impl Job {
    /// A standard HDFS-backed job.
    pub fn new(
        name: impl Into<String>,
        splits: Vec<InputSplit>,
        map_fn: MapFn,
        reduce_fn: Option<ReduceFn>,
        n_reducers: usize,
        output_dir: impl Into<String>,
    ) -> Job {
        Job {
            name: name.into(),
            splits,
            map_fn,
            reduce_fn,
            n_reducers,
            output_dir: output_dir.into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
        }
    }
}

/// Map or reduce: what a task is reported and counted as — a classic job's
/// reducers are `Reduce`, every other task `Map`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    Map,
    Reduce,
}

/// Timing of one finished task, decomposed by phase — Figure 7's raw data.
#[derive(Clone, Debug)]
pub struct TaskReport {
    pub kind: TaskKind,
    pub index: usize,
    pub node: NodeId,
    pub start_s: f64,
    pub end_s: f64,
    /// `(phase, virtual seconds)`: "startup" (0 for an attempt launched
    /// into a warm slot), "read", fetch charges,
    /// map charges, "spill" (waiting for the node's disk included) /
    /// "shuffle", "sort", "write".
    pub phases: Vec<(&'static str, f64)>,
}

impl TaskReport {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Total seconds recorded under a phase label.
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _)| *p == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Completed job summary.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub tasks: Vec<TaskReport>,
    pub counters: Counters,
}

impl JobResult {
    pub fn elapsed(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Mean of a phase over all tasks of one kind.
    pub fn mean_phase(&self, kind: TaskKind, phase: &str) -> f64 {
        let v: Vec<f64> = self
            .tasks
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.phase(phase))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// One-line fault-tolerance summary from the counters: attempts vs
    /// committed tasks, retries, speculation, plus — when they
    /// occurred — waiting attempts preempted for a blocked task, lineage
    /// recoveries and
    /// failure-detector events (hangs, suspicions, reinstatements, hedged
    /// reads). `None` when the run was
    /// clean (every task committed on its first and only attempt and no
    /// detector event fired). `stages_run` alone never triggers a summary:
    /// a multi-stage DAG is not a fault.
    pub fn fault_summary(&self) -> Option<String> {
        let c = &self.counters;
        let attempts = c.get(keys::MAP_ATTEMPTS) + c.get(keys::REDUCE_ATTEMPTS);
        let tasks = c.get(keys::MAP_TASKS) + c.get(keys::REDUCE_TASKS);
        let retries = c.get(keys::TASK_RETRIES);
        let spec = c.get(keys::SPECULATIVE_LAUNCHED);
        let lineage = c.get(keys::LINEAGE_RECOMPUTES);
        let lost = c.get(keys::SHUFFLE_PARTITIONS_LOST);
        let hangs = c.get(keys::TASKS_HANG_DETECTED);
        let suspected = c.get(keys::NODES_SUSPECTED);
        let reinstated = c.get(keys::NODES_REINSTATED);
        let hedged = c.get(keys::HEDGED_READS);
        let preempted = c.get(keys::REDUCES_PREEMPTED);
        if attempts <= tasks
            && retries == 0.0
            && spec == 0.0
            && lineage == 0.0
            && lost == 0.0
            && hangs == 0.0
            && suspected == 0.0
            && hedged == 0.0
        {
            return None;
        }
        let mut s = format!(
            "{attempts:.0} attempts for {tasks:.0} tasks ({retries:.0} retries, \
             {spec:.0} speculative launched / {:.0} won)",
            c.get(keys::SPECULATIVE_WON),
        );
        if preempted > 0.0 {
            s.push_str(&format!("; {preempted:.0} waiting attempt(s) preempted"));
        }
        if lineage > 0.0 || lost > 0.0 {
            let stages = c.get(keys::STAGES_RUN);
            let over = (stages > 0.0).then(|| format!(" over {stages:.0} stage run(s)"));
            s.push_str(&format!(
                "; {lost:.0} shuffle partition(s) lost, {lineage:.0} lineage recompute(s){}",
                over.unwrap_or_default()
            ));
        }
        if hangs > 0.0 || suspected > 0.0 || reinstated > 0.0 {
            s.push_str(&format!(
                "; detector: {hangs:.0} hang(s), {suspected:.0} suspected / \
                 {reinstated:.0} reinstated, {:.0} heartbeats missed",
                c.get(keys::HEARTBEATS_MISSED),
            ));
        }
        if hedged > 0.0 {
            s.push_str(&format!(
                "; {hedged:.0} hedged read(s) / {:.0} won",
                c.get(keys::HEDGED_READ_WINS),
            ));
        }
        Some(s)
    }

    /// The work and chain floors of the job as it ran on `c`: no schedule of
    /// its committed attempts ends sooner, so its elapsed time is at least
    /// each. The work floor spreads the committed slot-seconds over the
    /// slots `c` had in service — a node the fault plan kills counts until
    /// its death, so the floor stays a bound whatever the run lost. The
    /// chain floor is the longest committed map, then the slowest reducer's
    /// tail after the last map commit.
    pub fn floors(&self, c: &Cluster) -> Floors {
        let env = c.env();
        let kills = &c.sim.faults.plan().node_kills;
        let death = |n: usize| {
            let of_n = kills.iter().filter(|&&(k, _)| k as usize == n);
            of_n.map(|&(_, t)| (t - self.start_s).max(0.0))
                .fold(f64::INFINITY, f64::min)
        };
        let mut deaths: Vec<f64> = (0..env.topo.n_compute()).map(death).collect();
        deaths.sort_by(f64::total_cmp);
        // Fill the slots in service from the job's start until the committed
        // slot-seconds fit, losing each node's at its death; more than every
        // slot could have held puts the floor out of reach.
        let mut left: f64 = self.tasks.iter().map(TaskReport::duration).sum();
        let (mut from, mut work_s) = (0.0, f64::INFINITY);
        for (i, &death) in deaths.iter().enumerate() {
            let rate = (env.slots_per_node * (deaths.len() - i)) as f64;
            let held = rate * (death - from);
            if held >= left {
                work_s = from + left / rate;
                break;
            }
            left -= held;
            from = death;
        }
        let maps = self.tasks.iter().filter(|t| t.kind == TaskKind::Map);
        let (longest, close) = maps.fold((0.0f64, self.start_s), |(l, c), t| {
            (l.max(t.duration()), c.max(t.end_s))
        });
        let reducers = self.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
        let tail = reducers.map(|t| t.end_s - close).fold(0.0f64, f64::max);
        Floors {
            work_s,
            chain_s: longest + tail,
        }
    }

    /// Streaming-fallback summary from the counters: committed map tasks
    /// that asked for the streaming fetch path but whose fetcher has none.
    /// `None` when no task fell back.
    pub fn stream_fallbacks(&self) -> Option<String> {
        let c = &self.counters;
        let total = c.get(keys::STREAM_FALLBACKS);
        if total == 0.0 {
            return None;
        }
        Some(format!(
            "{total:.0} stream fallback(s) ({:.0} unsupported fetcher)",
            c.get(keys::STREAM_FALLBACK_UNSUPPORTED),
        ))
    }
}

/// The schedule floors of a classic job ([`JobResult::floors`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Floors {
    /// Committed slot-seconds over the slots in service.
    pub work_s: f64,
    /// The longest committed map, then the slowest reducer's tail.
    pub chain_s: f64,
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One stage run of a plan, kept by value on the plan's [`Pool`] at its
/// stage-run index: only what is the run's own. Its task function, policy,
/// splits, sources and sink are its stage's (`pool.plan.stages[stage]`),
/// slot and health state is the pool's node table, the shuffle outputs are
/// the pool's store, and the queue and attempts are the [`TaskTable`].
pub(crate) struct Driver {
    /// Index of the stage the run executes.
    stage: usize,
    /// Stage partition of each of the run's tasks — which also says how many
    /// there are: a recompute covers a sparse subset of the stage's
    /// partitions, so task `t` is stage partition `task_ids[t]` and, of a
    /// source stage, fetches split `task_ids[t]`.
    task_ids: Vec<usize>,
    start_s: f64,
    tasks: TaskTable,
    /// Per-attempt hang deadlines armed (hangs, read hangs or partitions
    /// present — a partitioned node's completions are dropped and only a
    /// deadline can recover an attempt stranded by a short partition).
    hang_checks_armed: bool,
    /// Durations of committed tasks, in order (the hang deadline).
    durations: speculate::Sorted,
    /// What speculation keeps of the attempts that have shown progress, and
    /// the flagged stragglers.
    spec: speculate::Speculator,
    /// Per-task cluster-cache chunk keys of the run's splits (from
    /// [`crate::input::SplitFetcher::cache_hints`]); the whole vector is
    /// empty when no split has a hint (always so when the cluster cache
    /// tier is disabled), and the scheduler then skips its cache pass.
    cache_hints: Vec<Vec<ChunkKey>>,
    reports: Vec<TaskReport>,
    counters: Counters,
    /// Set when the run ends, either way: until then it is still accepting
    /// task-completion events.
    ended: bool,
}

impl Driver {
    /// A run of stage `idx` over the stage partitions `task_ids`, submitted
    /// now: one task per partition, fetching its split or pulling.
    pub(crate) fn new(
        sim: &Sim,
        env: &MrEnv,
        idx: usize,
        stage: &Stage,
        task_ids: Vec<usize>,
    ) -> Driver {
        // Per-attempt hang deadlines only when the plan can produce silence
        // (see [`Pool::open`]) or swallow a read.
        let plan = sim.faults.plan();
        let hang_checks_armed = detector::plan_has_silence(plan) || !plan.read_hangs.is_empty();
        // Precompute cache-locality hints only when the tier is live: a
        // disabled registry (or fetchers without hints) means no hints, zero
        // scheduler overhead and timing identical to a world without the tier.
        let splits = task_ids.iter().filter_map(|&p| stage.job.splits.get(p));
        let mut cache_hints: Vec<Vec<ChunkKey>> = if env.cluster_cache.enabled() {
            splits.map(|s| s.fetcher.cache_hints()).collect()
        } else {
            Vec::new()
        };
        if cache_hints.iter().all(Vec::is_empty) {
            cache_hints.clear();
        }
        Driver {
            stage: idx,
            tasks: TaskTable::new(task_ids.len()),
            task_ids,
            start_s: sim.now().secs(),
            hang_checks_armed,
            durations: speculate::Sorted::default(),
            spec: speculate::Speculator::default(),
            cache_hints,
            reports: Vec::new(),
            counters: Counters::new(),
            ended: false,
        }
    }

    pub(crate) fn stage(&self) -> usize {
        self.stage
    }

    fn alive(&self) -> bool {
        !self.ended
    }

    /// Stage partition of task `task`.
    fn partition_of(&self, task: usize) -> usize {
        self.task_ids.get(task).copied().unwrap_or(task)
    }

    /// The split task `task` of a run of `stage` fetches; `None` for a
    /// pulling task.
    fn split<'a>(&self, stage: &'a Stage, task: usize) -> Option<&'a InputSplit> {
        stage.job.splits.get(*self.task_ids.get(task)?)
    }

    /// The stage partitions the run has yet to commit — what it still
    /// covers. A partition it committed and whose output was lost since is
    /// no longer the run's to redo.
    pub(crate) fn uncommitted(&self) -> Vec<usize> {
        let open = |t: &usize| self.tasks.state(*t).is_some_and(|st| !st.done);
        let tasks = (0..self.tasks.count()).filter(open);
        tasks.map(|t| self.partition_of(t)).collect()
    }

    /// The run's committed task reports, indexed by stage partition, and
    /// its counters — taken once it has ended.
    pub(crate) fn take_results(&mut self) -> (Vec<TaskReport>, Counters) {
        let mut tasks = std::mem::take(&mut self.reports);
        tasks.sort_by_key(|t| t.index);
        for t in &mut tasks {
            t.index = self.partition_of(t.index);
        }
        (tasks, std::mem::take(&mut self.counters))
    }
}

/// The questions a plan's pool answers of one of its runs: each reads the
/// run, its stage, the shuffle store and the node table together.
impl Pool {
    /// Run `run` and the stage it executes.
    fn run(&self, run: usize) -> Option<(&Driver, &Stage)> {
        let d = self.runs.get(run)?;
        Some((d, self.plan.stages.get(d.stage)?))
    }

    /// The stage run `run` executes.
    fn stage_of(&self, run: usize) -> Option<&Stage> {
        self.run(run).map(|(_, stage)| stage)
    }

    fn attempt(&self, run: usize, id: AttemptId) -> Option<&AttemptInfo> {
        self.runs.get(run)?.tasks.attempt(id)
    }

    fn attempt_mut(&mut self, run: usize, id: AttemptId) -> Option<&mut AttemptInfo> {
        self.runs.get_mut(run)?.tasks.attempt_mut(id)
    }

    /// Take the task at position `pos` of `run`'s queue off it.
    fn dequeue(&mut self, run: usize, pos: usize) -> Option<usize> {
        self.runs.get_mut(run)?.tasks.dequeue(pos)
    }

    /// `run` has a pending task that would not wait: one that has all its
    /// input.
    fn ready(&self, run: usize) -> bool {
        let pending = self
            .runs
            .get(run)
            .is_some_and(|d| !d.tasks.pending().is_empty());
        pending && !self.waits(run)
    }

    /// What the scheduler may look at to place a task of `run`.
    fn view(&self, run: usize) -> Option<sched::View<'_>> {
        let (d, stage) = self.run(run)?;
        let pulls = stage.pulls();
        let shunned = if pulls {
            speculate::shunned(self)
        } else {
            Vec::new()
        };
        Some(sched::View {
            nodes: &self.nodes,
            pending: d.tasks.pending(),
            pulls,
            splits: &stage.job.splits,
            task_ids: &d.task_ids,
            cache_hints: &d.cache_hints,
            cache: &self.env.cluster_cache,
            running: self.nodes.busy(),
            room: self.early(run, &shunned),
            shunned,
        })
    }

    /// Whether pulling task `r` of `run` is due now ([`sched::DueRule`]):
    /// the merge it owes so far is its partition's bytes in the outputs
    /// registered now, at `sort_per_byte`, priced against the wave of the
    /// runs it pulls from, which started with it.
    fn due(&self, sim: &Sim, run: usize, r: usize) -> bool {
        let Some((d, stage)) = self.run(run).filter(|(_, stage)| stage.pulls()) else {
            return false;
        };
        let rule = sched::DueRule {
            startup_s: sim.cost.task_startup_s,
            elapsed_s: sim.now().secs() - d.start_s,
            reducers: d.tasks.count(),
            slots: self.nodes.usable_slots(),
        };
        let owed = self.store.registered_bytes(&stage.sources, r);
        rule.due(sim.cost.lbytes(owed) * sim.cost.sort_per_byte)
    }

    /// Whether waiting attempt `info` of `run` may give its slot to a
    /// blocked task: it is idle ([`pull::Shuffle::idle`]) and not due.
    fn yields_slot(&self, sim: &Sim, run: usize, info: &AttemptInfo) -> bool {
        let now = sim.now().secs();
        let idle = info.shuffle.as_ref().is_some_and(|s| s.idle(now));
        idle && !self.due(sim, run, info.task)
    }

    /// What stretches the compute of an attempt of `run` on `node` — its
    /// sort included: the node's fault-plan slowdown (the straggler model
    /// speculation reacts to), times, for an attempt that fetches a split,
    /// the slot-sharing penalty when a node has several slots. A pulling
    /// attempt pays no penalty.
    fn compute_factor(&self, sim: &Sim, run: usize, node: NodeId) -> f64 {
        let pulls = self.stage_of(run).is_some_and(Stage::pulls);
        let penalty = if !pulls && self.env.slots_per_node > 1 {
            sim.cost.parallel_compute_penalty
        } else {
            1.0
        };
        penalty * sim.faults.slow_factor(node.0)
    }

    /// A task of `run` launched now would wait: it pulls, and its input is
    /// still open.
    fn waits(&self, run: usize) -> bool {
        self.stage_of(run)
            .is_some_and(|stage| self.store.open(&stage.sources))
    }

    /// While the tasks of `run` would launch *early* — their input is still
    /// open, so a task launched now starts up and pulls beside its sources,
    /// and waits — how many more of them each node may host: an even share
    /// of them over the nodes still in service and not `shunned`, less those
    /// it runs already. `None` too while none of them is pending, when
    /// nothing would read it.
    fn early(&self, run: usize, shunned: &[NodeId]) -> Option<Vec<usize>> {
        let d = self.runs.get(run)?;
        if !self.waits(run) || d.tasks.pending().is_empty() {
            return None;
        }
        let nodes = &self.nodes;
        let welcome = |&n: &NodeId| nodes.usable(n) && !shunned.contains(&n);
        let n_usable = nodes.ids().filter(welcome).count();
        let share = d.tasks.count().div_ceil(n_usable.max(1));
        let mut room = vec![share; nodes.len()];
        for (_, info) in d.tasks.in_flight() {
            if let Some(r) = room.get_mut(info.node.0 as usize) {
                *r = r.saturating_sub(1);
            }
        }
        Some(room)
    }
}

/// Submit a job; `done` fires (with the result) when the last task output
/// commits, and the simulation keeps running — callers can chain stages.
/// The job runs as a plan of one or two stages on the plan driver
/// (`Plan::of_job`); its result is the plan's, every stage run's task
/// reports in submission order — the maps', then the reducers'.
pub fn submit_job_env(
    sim: &mut Sim,
    env: MrEnv,
    job: Job,
    done: impl FnOnce(&mut Sim, Result<JobResult, MrError>) + 'static,
) {
    if job.reduce_fn.is_some() && job.n_reducers == 0 {
        let e = MrError::msg(format!(
            "job {}: a reduce function needs at least one reducer",
            job.name
        ));
        return sim.after(0.0, move |sim| done(sim, Err(e)));
    }
    let project = move |sim: &mut Sim, r: DagResult, failed: Option<MrError>| {
        let result = JobResult {
            name: r.name,
            start_s: r.start_s,
            end_s: r.end_s,
            tasks: r.runs.into_iter().flat_map(|run| run.tasks).collect(),
            counters: r.counters,
        };
        done(sim, failed.map_or(Ok(result), Err))
    };
    submit_plan(sim, env, Plan::of_job(job), Box::new(project));
}

/// Convenience: submit, run the world to completion, return the result.
pub fn run_job(cluster: &mut Cluster, job: Job) -> Result<JobResult, MrError> {
    cluster.run_to_completion("job", |cluster, done| {
        let env = cluster.env();
        submit_job_env(&mut cluster.sim, env, job, done)
    })
}

/// End run `run` of `pool`, on `failed` if it is an error, and tell the plan
/// driver: every in-flight attempt is retired — their continuations see a
/// dead attempt and can no longer mutate counters or reports.
pub(crate) fn end_run(sim: &mut Sim, pool: &SharedPool, run: usize, failed: Option<MrError>) {
    if pool.borrow_mut().finish(run) {
        dag::run_ended(sim, pool, run, failed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::input::InMemoryFetcher;
    use pfs::PfsConfig;
    use simnet::{ClusterSpec, CostModel};
    use std::collections::BTreeMap;

    pub(crate) fn small_cluster(nodes: usize, slots: usize) -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: nodes,
            storage_nodes: 1,
            osts: 2,
            slots_per_node: slots,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 2,
            ..PfsConfig::default()
        };
        Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default())
    }

    /// [`small_cluster`] at 10⁴ logical bytes per real one: a 12 kB output
    /// takes a local disk (120 MB/s) 1 s to write.
    pub(crate) fn scaled_cluster(nodes: usize, slots: usize) -> Cluster {
        let mut c = small_cluster(nodes, slots);
        c.sim.cost.scale = 1e4;
        c
    }

    pub(crate) fn mem_splits(n: usize, bytes: usize) -> Vec<InputSplit> {
        (0..n)
            .map(|i| InputSplit {
                length: bytes as u64,
                locations: vec![],
                fetcher: Rc::new(InMemoryFetcher {
                    data: vec![i as u8; bytes],
                }),
            })
            .collect()
    }

    pub(crate) fn word_count_job(splits: Vec<InputSplit>, reducers: usize) -> Job {
        Job::new(
            "wordcount",
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                // Count byte values (stand-in for words).
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                ctx.charge("scan", ctx.cost().scan_per_byte * b.len() as f64);
                for (k, v) in counts {
                    ctx.emit(format!("w{k}"), Payload::Bytes(v.to_string().into_bytes()));
                }
                Ok(())
            }),
            Some(Rc::new(|key, values, ctx| {
                let total: usize = values
                    .iter()
                    .map(|v| match v {
                        Payload::Bytes(b) => String::from_utf8_lossy(b).parse::<usize>().unwrap(),
                        _ => 0,
                    })
                    .sum();
                ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
                Ok(())
            })),
            reducers,
            "out",
        )
    }

    /// A compute-bound job whose map charges a fixed `secs` so detector and
    /// speculation timelines are easy to reason about.
    pub(crate) fn slow_map_job(n_splits: usize, secs: f64, ft: FtConfig) -> Job {
        Job {
            ft,
            ..Job::new(
                "slowmap",
                mem_splits(n_splits, 100),
                Rc::new(move |input, ctx| {
                    let TaskInput::Bytes(b) = input else {
                        return Err(MrError::msg("expected bytes"));
                    };
                    ctx.charge("scan", secs);
                    ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]]));
                    Ok(())
                }),
                Some(Rc::new(|key, values, ctx| {
                    ctx.emit(key, Payload::Bytes(vec![values.len() as u8]));
                    Ok(())
                })),
                1,
                "out",
            )
        }
    }

    /// Three maps and one reducer for a [`scaled_cluster`]: map 0 computes
    /// 3.5 s, maps 1 and 2 one second, and each map's 12 kB output takes its
    /// node's local disk 1 s to spill.
    pub(crate) fn one_long_map_job(ft: FtConfig) -> Job {
        let mut job = slow_map_job(3, 0.0, ft);
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", if b[0] == 0 { 3.5 } else { 1.0 });
            ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]; 12_000]));
            Ok(())
        });
        job
    }

    #[test]
    fn map_reduce_end_to_end() {
        let mut c = small_cluster(2, 2);
        let job = word_count_job(mem_splits(4, 100), 2);
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::MAP_TASKS), 4.0);
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 2.0);
        assert!(r.elapsed() > 0.0);
        // Each split is 100 identical bytes → each map emits one record.
        assert_eq!(r.counters.get(keys::RECORDS_EMITTED), 8.0);
        // Output files exist on HDFS.
        let h = c.hdfs.borrow();
        let files = h.namenode.list_files_recursive("out").unwrap();
        assert!(!files.is_empty());
        let total: u64 = files.iter().map(|f| f.len).sum();
        assert!(total > 0);
        // 4 maps + 2 reduces reported, maps first.
        assert_eq!(r.tasks.len(), 6);
        assert_eq!(r.tasks[0].kind, TaskKind::Map);
        assert_eq!(r.tasks[5].kind, TaskKind::Reduce);
    }

    #[test]
    fn empty_job_completes() {
        let mut c = small_cluster(1, 1);
        let job = word_count_job(Vec::new(), 1);
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::MAP_TASKS), 0.0);
        // Reduce still runs (Hadoop would too) and writes nothing.
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 1.0);
    }

    #[test]
    fn reduce_fn_without_reducers_fails_typed_before_any_task_runs() {
        let mut c = small_cluster(1, 1);
        let ran = Rc::new(std::cell::Cell::new(false));
        let ran2 = ran.clone();
        let mut job = word_count_job(mem_splits(2, 10), 0);
        job.map_fn = Rc::new(move |_, _| {
            ran2.set(true);
            Ok(())
        });
        let err = run_job(&mut c, job).unwrap_err();
        assert!(matches!(&err, MrError::Msg(m) if m.contains("at least one reducer")));
        assert!(!ran.get(), "no task may run");
        // Zero reducers are fine for a map-only job.
        let mut job = word_count_job(mem_splits(2, 10), 0);
        job.reduce_fn = None;
        assert!(run_job(&mut c, job).is_ok());
    }

    #[test]
    fn deterministic_execution() {
        let run = || {
            let mut c = small_cluster(2, 2);
            let job = word_count_job(mem_splits(6, 500), 2);
            let r = run_job(&mut c, job).unwrap();
            (r.elapsed(), r.counters.get(keys::SHUFFLE_BYTES))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_reducer_requeued_by_a_kill_shares_the_room_of_the_nodes_left() {
        // 3 nodes x 3 slots: three 10 s maps, one per node, and the three
        // reducers beside them, one per node — their even share. Node 2
        // dies at 3 s: its map is retried in node 1's spare slot, and its
        // reducer is requeued. Shared over the two nodes left, the room is
        // two reducers a node, so it launches at once on node 0 instead of
        // waiting for the close.
        let mut job = slow_map_job(3, 10.0, FtConfig::default());
        job.n_reducers = 3;
        let mut c = small_cluster(3, 3);
        c.sim
            .faults
            .install(simnet::FaultPlan::none().kill_node(2, 3.0));
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 4.0);
        let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
        let close = maps.map(|t| t.end_s).fold(0.0, f64::max);
        let reducers = r.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
        let requeued: Vec<_> = reducers.filter(|t| t.start_s > 0.0).collect();
        assert_eq!(requeued.len(), 1, "{:?}", r.tasks);
        assert_eq!(requeued[0].start_s, 3.0, "{:?}", requeued[0]);
        assert!(requeued[0].start_s < close && requeued[0].node.0 == 0);
    }

    #[test]
    fn fault_summary_folds_in_detector_and_lineage_counters() {
        let mk = |f: &dyn Fn(&mut Counters)| {
            let mut c = Counters::new();
            c.add(keys::MAP_ATTEMPTS, 4.0);
            c.add(keys::MAP_TASKS, 4.0);
            f(&mut c);
            JobResult {
                name: "s".into(),
                start_s: 0.0,
                end_s: 1.0,
                tasks: vec![],
                counters: c,
            }
        };
        // A multi-stage DAG is not a fault: stages_run alone stays silent.
        assert_eq!(mk(&|c| c.add(keys::STAGES_RUN, 3.0)).fault_summary(), None);
        let det = mk(&|c| {
            c.add(keys::TASKS_HANG_DETECTED, 1.0);
            c.add(keys::NODES_SUSPECTED, 1.0);
            c.add(keys::NODES_REINSTATED, 1.0);
            c.add(keys::HEARTBEATS_MISSED, 5.0);
        });
        let s = det
            .fault_summary()
            .expect("detector events trigger summary");
        assert!(
            s.contains("1 hang(s)") && s.contains("1 suspected / 1 reinstated"),
            "summary: {s}"
        );
        let lin = mk(&|c| {
            c.add(keys::SHUFFLE_PARTITIONS_LOST, 2.0);
            c.add(keys::LINEAGE_RECOMPUTES, 3.0);
            c.add(keys::STAGES_RUN, 4.0);
        });
        let s = lin
            .fault_summary()
            .expect("lineage recovery triggers summary");
        assert!(
            s.contains("2 shuffle partition(s) lost") && s.contains("4 stage run(s)"),
            "summary: {s}"
        );
        let hedge = mk(&|c| {
            c.add(keys::HEDGED_READS, 2.0);
            c.add(keys::HEDGED_READ_WINS, 1.0);
        });
        let s = hedge.fault_summary().expect("hedged reads trigger summary");
        assert!(s.contains("2 hedged read(s) / 1 won"), "summary: {s}");
        // A preemption always comes with the attempt it cost.
        let pre = mk(&|c| {
            c.add(keys::REDUCE_TASKS, 1.0);
            c.add(keys::REDUCE_ATTEMPTS, 2.0);
            c.add(keys::REDUCES_PREEMPTED, 1.0);
        });
        let s = pre.fault_summary().expect("a preemption triggers summary");
        assert!(s.contains("1 waiting attempt(s) preempted"), "summary: {s}");
        assert!(!det.fault_summary().unwrap().contains("preempted"));
    }
}
