//! The job driver: slot scheduling, map execution, shuffle, reduce, output.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use simnet::{ChunkKey, NodeId, Sim};

use crate::cluster::{Cluster, MrEnv};
use crate::counters::{keys, Counters};
use crate::input::{InputSplit, PieceStream, TaskInput};

/// Task- or job-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Free-form task failure (fetch error, user code error, injected
    /// fault) — the catch-all the engine has always reported.
    Msg(String),
    /// Graceful-degradation floor breached: the cluster's live task slots
    /// fell below [`FtConfig::min_live_slots`], so the driver failed fast
    /// instead of limping on (or stalling) at hopeless parallelism.
    QuorumLost { live_slots: usize, floor: usize },
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
            MrError::QuorumLost { live_slots, floor } => {
                format!("quorum lost: {live_slots} live slot(s), floor is {floor}")
            }
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
    /// Standalone context for running task payloads outside the engine
    /// (the naive baseline processes files without Hadoop).
    pub fn standalone(cost: simnet::CostModel) -> TaskCtx {
        TaskCtx::new(cost)
    }

    /// Set the split tag (engine-internal; also used by standalone runs).
    pub fn set_tag(&mut self, tag: impl Into<String>) {
        self.tag = tag.into();
    }

    /// Sum of all charges so far.
    pub fn total_charge_s(&self) -> f64 {
        self.total_charge()
    }

    /// Drain emitted pairs (standalone runs handle their own output).
    pub fn take_emitted(&mut self) -> Vec<(String, Payload)> {
        std::mem::take(&mut self.emitted)
            .into_iter()
            .map(|kv| (kv.key, kv.value))
            .collect()
    }

    fn new(cost: simnet::CostModel) -> TaskCtx {
        TaskCtx {
            cost,
            charges: Vec::new(),
            emitted: Vec::new(),
            records: 0,
            tag: String::new(),
        }
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

    fn total_charge(&self) -> f64 {
        self.charges.iter().map(|(_, s)| s).sum()
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
    /// Task failures on one node before it is blacklisted for this job
    /// (0 disables blacklisting). The last usable node is never
    /// blacklisted.
    pub node_blacklist_threshold: usize,
    /// Launch duplicate attempts for straggling maps.
    pub speculative: bool,
    /// A running map is a straggler once its elapsed time exceeds this
    /// multiple of the median committed map duration.
    pub speculative_slowdown: f64,
    /// Fraction of maps that must have committed before speculation is
    /// considered (there is no meaningful median earlier).
    pub speculative_min_completed: f64,
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
    /// Per-attempt hang deadline = `max(hang_deadline_min_s, factor × q75
    /// of committed map durations)`. An attempt still running past its
    /// deadline is declared hung and failed (0 disables deadline checks).
    pub hang_deadline_factor: f64,
    /// Deadline floor while too few maps have committed for a meaningful
    /// duration quantile.
    pub hang_deadline_min_s: f64,
    /// Base of the exponential retry backoff: the k-th retry of a task
    /// waits `min(base·2^(k−1), retry_backoff_max_s)` scaled by a
    /// deterministic jitter in [0.5, 1.5) drawn from the fault-plan seed
    /// (0 requeues immediately, the historical behaviour).
    pub retry_backoff_base_s: f64,
    /// Cap on one backoff delay.
    pub retry_backoff_max_s: f64,
    /// Graceful-degradation floor: if the cluster's usable task slots drop
    /// below this, the job fails fast with [`MrError::QuorumLost`] instead
    /// of limping on at hopeless parallelism (0 disables the floor).
    pub min_live_slots: usize,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            max_task_attempts: 4,
            node_blacklist_threshold: 3,
            speculative: true,
            speculative_slowdown: 2.0,
            speculative_min_completed: 0.5,
            heartbeat_interval_s: 3.0,
            suspect_after_misses: 2,
            dead_after_misses: 4,
            hang_deadline_factor: 3.0,
            hang_deadline_min_s: 45.0,
            retry_backoff_base_s: 0.0,
            retry_backoff_max_s: 30.0,
            min_live_slots: 0,
        }
    }
}

/// Streaming-input pipeline policy: whether map attempts pull their split
/// as chunk-granular pieces through a bounded prefetch window, overlapping
/// in-flight PFS reads with per-piece map compute (§III-A.3's "reads
/// proceed in parallel and overlapped with compute", realized *inside*
/// each task instead of only across tasks).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Use streaming fetches when a split's fetcher supports them
    /// (fetchers without streaming support always take the batch path).
    pub enabled: bool,
    /// Maximum pieces in flight at once (≥ 1; 2 = double buffering).
    pub prefetch_depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            enabled: true,
            prefetch_depth: 2,
        }
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
    /// Retry / blacklist / speculation policy.
    pub ft: FtConfig,
    /// Intra-task read/compute overlap policy.
    pub stream: StreamConfig,
    /// DAG mode: this job is one stage of a DAG — emitted pairs are
    /// hash-partitioned and registered in the sink's shuffle store at
    /// commit instead of being reduced/written here. Mutually exclusive
    /// with `reduce_fn`.
    pub shuffle: Option<crate::dag::ShuffleSink>,
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
            shuffle: None,
        }
    }
}

/// Map or reduce.
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
    /// `(phase, virtual seconds)`: "startup", "read", fetch charges,
    /// map charges, "spill" / "shuffle", "sort", "write".
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

    /// Fraction of locality-eligible committed maps that ran data-local:
    /// `data_local / (data_local + remote)`. Maps over location-less splits
    /// (`any_locality_maps` — e.g. PFS dummy blocks) are excluded: locality
    /// is not a concept for them and counting them would dilute the ratio.
    /// `None` when no map was locality-eligible.
    pub fn locality_ratio(&self) -> Option<f64> {
        let local = self.counters.get(keys::LOCAL_MAPS);
        let remote = self.counters.get(keys::REMOTE_MAPS);
        let eligible = local + remote;
        if eligible == 0.0 {
            None
        } else {
            Some(local / eligible)
        }
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

    /// Mean wall duration of tasks of one kind.
    pub fn mean_task_time(&self, kind: TaskKind) -> f64 {
        let v: Vec<f64> = self
            .tasks
            .iter()
            .filter(|t| t.kind == kind)
            .map(TaskReport::duration)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// One-line fault-tolerance summary from the counters: attempts vs
    /// committed tasks, retries, speculation, blacklisting, plus — when they
    /// occurred — lineage recoveries and failure-detector events (hangs,
    /// suspicions, reinstatements, hedged reads). `None` when the run was
    /// clean (every task committed on its first and only attempt and no
    /// detector event fired). `stages_run` alone never triggers a summary:
    /// a multi-stage DAG is not a fault.
    pub fn fault_summary(&self) -> Option<String> {
        let c = &self.counters;
        let attempts = c.get(keys::MAP_ATTEMPTS) + c.get(keys::REDUCE_ATTEMPTS);
        let tasks = c.get(keys::MAP_TASKS) + c.get(keys::REDUCE_TASKS);
        let retries = c.get(keys::TASK_RETRIES);
        let spec = c.get(keys::SPECULATIVE_LAUNCHED);
        let black = c.get(keys::NODE_BLACKLISTED);
        let lineage = c.get(keys::LINEAGE_RECOMPUTES);
        let lost = c.get(keys::SHUFFLE_PARTITIONS_LOST);
        let hangs = c.get(keys::TASKS_HANG_DETECTED);
        let suspected = c.get(keys::NODES_SUSPECTED);
        let reinstated = c.get(keys::NODES_REINSTATED);
        let hedged = c.get(keys::HEDGED_READS);
        if attempts <= tasks
            && retries == 0.0
            && spec == 0.0
            && black == 0.0
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
             {spec:.0} speculative launched / {:.0} won, {black:.0} nodes blacklisted)",
            c.get(keys::SPECULATIVE_WON),
        );
        if lineage > 0.0 || lost > 0.0 {
            s.push_str(&format!(
                "; {lost:.0} shuffle partition(s) lost, {lineage:.0} lineage recompute(s) \
                 over {:.0} stage run(s)",
                c.get(keys::STAGES_RUN),
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

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One in-flight execution of a task on a node.
#[derive(Clone, Debug)]
struct AttemptInfo {
    kind: TaskKind,
    task: usize,
    node: NodeId,
    start_s: f64,
    /// Scheduled on a node holding the split (locality hit).
    local: bool,
    /// Scheduled on a node holding the split's chunks in the cluster
    /// chunk-cache tier (dynamic cache locality).
    cache_local: bool,
    /// A speculative duplicate of a straggling attempt.
    speculative: bool,
    /// A straggler check event has been queued for this attempt.
    spec_check_scheduled: bool,
}

type AttemptId = u64;

/// Per-task attempt bookkeeping.
#[derive(Clone, Debug, Default)]
struct TaskState {
    /// Attempts launched so far (including the live ones).
    started: usize,
    /// Non-speculative attempts launched so far. The retry budget
    /// (`max_task_attempts`) counts only these: a speculative twin is a
    /// performance bet, not a failure, and must not eat the task's
    /// fault-recovery headroom.
    regular_started: usize,
    /// The task has committed; later attempt callbacks are orphans.
    done: bool,
    /// Attempt ids currently in flight.
    live: Vec<AttemptId>,
    /// A speculative twin has been launched (at most one per task).
    speculated: bool,
}

struct Driver {
    env: MrEnv,
    job: Job,
    start_s: f64,
    pending_maps: VecDeque<usize>,
    pending_reduces: VecDeque<usize>,
    reduce_phase: bool,
    free_slots: Vec<usize>,
    node_dead: Vec<bool>,
    node_blacklisted: Vec<bool>,
    node_failures: Vec<usize>,
    /// Suspicion ladder of the heartbeat failure detector (healthy →
    /// suspected → declared dead). Unlike `node_dead`, declared-dead is
    /// reversible: resumed heartbeats reinstate the node.
    node_suspected: Vec<bool>,
    node_declared_dead: Vec<bool>,
    /// Consecutive heartbeat misses per node.
    hb_misses: Vec<usize>,
    /// Per-attempt hang deadlines armed (hangs, read hangs or partitions
    /// present — a partitioned node's completions are dropped and only a
    /// deadline can recover an attempt stranded by a short partition).
    hang_checks_armed: bool,
    /// Deterministic jitter for retry backoff, seeded from the fault plan.
    backoff_rng: scirng::Rng,
    n_maps: usize,
    maps_done: usize,
    map_states: Vec<TaskState>,
    reduce_states: Vec<TaskState>,
    map_outputs: Vec<Vec<Vec<Kv>>>,
    map_nodes: Vec<NodeId>,
    /// Durations of committed maps (speculation median).
    map_durations: Vec<f64>,
    /// Per-split cluster-cache chunk keys (from
    /// [`crate::input::SplitFetcher::cache_hints`]); the whole vector is
    /// empty when no split has a hint (always so when the cluster cache
    /// tier is disabled), and the scheduler then skips its cache pass.
    cache_hints: Vec<Vec<ChunkKey>>,
    /// Cluster-cache registry eviction count when this job started; the
    /// per-job delta lands in [`keys::CLUSTER_CACHE_EVICTIONS`].
    cluster_evictions_start: u64,
    attempts: BTreeMap<AttemptId, AttemptInfo>,
    next_attempt: AttemptId,
    reports: Vec<TaskReport>,
    counters: Counters,
    reduces_done: usize,
    failed: Option<MrError>,
    #[allow(clippy::type_complexity)]
    done_cb: Option<Box<dyn FnOnce(&mut Sim, Result<JobResult, MrError>)>>,
}

type SharedDriver = Rc<RefCell<Driver>>;

impl Driver {
    fn node_usable(&self, n: usize) -> bool {
        !self.node_dead[n] && !self.node_blacklisted[n] && !self.node_declared_dead[n]
    }

    /// Usable task slots across the cluster (capacity, not free slots).
    fn live_slots(&self) -> usize {
        (0..self.node_dead.len())
            .filter(|&n| self.node_usable(n))
            .map(|_| self.env.slots_per_node)
            .sum()
    }

    /// The quorum check: `Some(error)` when the graceful-degradation floor
    /// is breached.
    fn quorum_breach(&self) -> Option<MrError> {
        let floor = self.job.ft.min_live_slots;
        if floor == 0 {
            return None;
        }
        let live = self.live_slots();
        if live < floor {
            Some(MrError::QuorumLost {
                live_slots: live,
                floor,
            })
        } else {
            None
        }
    }

    fn task_state_mut(&mut self, kind: TaskKind, task: usize) -> &mut TaskState {
        match kind {
            TaskKind::Map => &mut self.map_states[task],
            TaskKind::Reduce => &mut self.reduce_states[task],
        }
    }

    /// The job is still accepting task-completion events.
    fn alive(&self) -> bool {
        self.failed.is_none() && self.done_cb.is_some()
    }
}

/// Whether attempt `id` may still affect the job. False once the attempt
/// was orphaned (task committed elsewhere, node died) or the job finished —
/// every continuation of an attempt checks this before touching the driver,
/// which is what stops in-flight callbacks from mutating counters/reports
/// after `fail_job`.
fn attempt_live(d: &SharedDriver, id: AttemptId) -> bool {
    let dd = d.borrow();
    dd.alive() && dd.attempts.contains_key(&id)
}

/// A worker the driver cannot hear from right now: hung, or cut off by an
/// active partition. Completion callbacks from silent nodes are dropped —
/// the report never reaches the driver — and only the failure detector
/// (heartbeats, hang deadlines) can recover the stranded attempt.
fn node_silent(sim: &Sim, node: NodeId) -> bool {
    let now = sim.now().secs();
    sim.faults.node_hung(node.0, now) || sim.faults.partition_isolated(node.0, now)
}

fn stable_hash(s: &str) -> u64 {
    // FNV-1a: deterministic across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Submit a job; `done` fires (with the result) when the last task output
/// commits. The simulation keeps running — callers can chain stages.
pub fn submit_job(
    cluster: &mut Cluster,
    job: Job,
    done: impl FnOnce(&mut Sim, Result<JobResult, MrError>) + 'static,
) {
    let env = cluster.env();
    submit_job_env(&mut cluster.sim, env, job, done)
}

/// Like [`submit_job`] but usable from inside sim callbacks.
pub fn submit_job_env(
    sim: &mut Sim,
    env: MrEnv,
    job: Job,
    done: impl FnOnce(&mut Sim, Result<JobResult, MrError>) + 'static,
) {
    assert!(job.n_reducers > 0 || job.reduce_fn.is_none());
    assert!(
        job.shuffle.is_none() || job.reduce_fn.is_none(),
        "a shuffle-sink stage is map-only; its grouping runs downstream"
    );
    let n_nodes = env.topo.n_compute();
    let n_maps = job.splits.len();
    let now = sim.now().secs();
    // Nodes the fault plan has already killed start out dead.
    let node_dead: Vec<bool> = (0..n_nodes)
        .map(|n| sim.faults.node_dead(n as u32, now))
        .collect();
    // A node dead before this job started must not keep ghost entries in
    // the cluster cache tier (its memory died with it) — the mid-job kill
    // path does the same through on_node_killed.
    for (n, &dead) in node_dead.iter().enumerate() {
        if dead {
            env.cluster_cache.invalidate_node(NodeId(n as u32));
        }
    }
    let n_reducers = job.n_reducers;
    // Arm the detector machinery only when the plan can actually produce
    // silence: hangs and partitions never complete on their own, so only a
    // heartbeat/deadline can recover from them. Clean (and merely slow or
    // crashy) plans keep the driver's event stream exactly as before.
    let plan = sim.faults.plan();
    let detector_armed = !plan.node_hangs.is_empty() || !plan.partitions.is_empty();
    let hang_checks_armed = detector_armed || !plan.read_hangs.is_empty();
    let backoff_rng = scirng::Rng::seed_from_u64(plan.seed ^ 0x6861_6e67_5f64_6574);
    // Precompute cache-locality hints only when the tier is live: a
    // disabled registry (or fetchers without hints) means no hints, zero
    // scheduler overhead and timing identical to a world without the tier.
    let mut cache_hints: Vec<Vec<ChunkKey>> = if env.cluster_cache.enabled() {
        job.splits.iter().map(|s| s.fetcher.cache_hints()).collect()
    } else {
        Vec::new()
    };
    if cache_hints.iter().all(Vec::is_empty) {
        cache_hints.clear();
    }
    let cluster_evictions_start = env.cluster_cache.stats().evictions;
    let d = Rc::new(RefCell::new(Driver {
        free_slots: node_dead
            .iter()
            .map(|&dead| if dead { 0 } else { env.slots_per_node })
            .collect(),
        node_dead,
        node_blacklisted: vec![false; n_nodes],
        node_failures: vec![0; n_nodes],
        node_suspected: vec![false; n_nodes],
        node_declared_dead: vec![false; n_nodes],
        hb_misses: vec![0; n_nodes],
        hang_checks_armed,
        backoff_rng,
        env,
        start_s: now,
        pending_maps: (0..n_maps).collect(),
        pending_reduces: VecDeque::new(),
        reduce_phase: false,
        n_maps,
        maps_done: 0,
        map_states: vec![TaskState::default(); n_maps],
        reduce_states: vec![TaskState::default(); n_reducers],
        map_outputs: vec![Vec::new(); n_maps],
        map_nodes: vec![NodeId(0); n_maps],
        map_durations: Vec::new(),
        cache_hints,
        cluster_evictions_start,
        attempts: BTreeMap::new(),
        next_attempt: 0,
        reports: Vec::new(),
        counters: Counters::new(),
        reduces_done: 0,
        failed: None,
        done_cb: Some(Box::new(done)),
        job,
    }));
    // Watch for planned node kills that are still in the future.
    let kills: Vec<(u32, f64)> = sim
        .faults
        .plan()
        .node_kills
        .iter()
        .filter(|(n, t)| (*n as usize) < n_nodes && t.is_finite() && *t > now)
        .cloned()
        .collect();
    for (node, t) in kills {
        let d2 = d.clone();
        sim.at(simnet::SimTime(t), move |sim| {
            on_node_killed(sim, &d2, node as usize)
        });
    }
    if detector_armed {
        // Count partitions whose onset falls inside the run, then start the
        // heartbeat loop (ticks stop rescheduling once the job finishes).
        let mut onset_now = 0u64;
        let mut future_onsets: Vec<f64> = Vec::new();
        for spec in &sim.faults.plan().partitions {
            if spec.from_s > now {
                future_onsets.push(spec.from_s);
            } else if spec.active(now) {
                onset_now += 1;
            }
        }
        if onset_now > 0 {
            d.borrow_mut()
                .counters
                .add(keys::PARTITIONS_OBSERVED, onset_now as f64);
        }
        for t in future_onsets {
            let d2 = d.clone();
            sim.at(simnet::SimTime(t), move |_sim| {
                let mut dd = d2.borrow_mut();
                if dd.alive() {
                    dd.counters.add(keys::PARTITIONS_OBSERVED, 1.0);
                }
            });
        }
        schedule_heartbeat(sim, &d, 1);
    }
    if n_maps == 0 {
        let d2 = d.clone();
        sim.after(0.0, move |sim| maybe_finish_maps(sim, &d2));
        return;
    }
    try_schedule(sim, &d);
}

/// Convenience: submit, run the world to completion, return the result.
pub fn run_job(cluster: &mut Cluster, job: Job) -> Result<JobResult, MrError> {
    let out: Rc<RefCell<Option<Result<JobResult, MrError>>>> = Rc::new(RefCell::new(None));
    let o = out.clone();
    submit_job(cluster, job, move |_, r| {
        *o.borrow_mut() = Some(r);
    });
    cluster.run();
    let result = out
        .borrow_mut()
        .take()
        .unwrap_or_else(|| Err(MrError::msg("job did not complete before the sim drained")));
    result
}

enum Pick {
    Map {
        node: NodeId,
        task: usize,
        local: bool,
        cache_local: bool,
    },
    Reduce {
        node: NodeId,
        task: usize,
    },
}

enum Sched {
    Run(Pick),
    /// Work is pending but nothing runs and no usable node has a slot —
    /// no event will ever free one, so the job can only fail.
    Stuck(usize),
    Idle,
}

fn try_schedule(sim: &mut Sim, d: &SharedDriver) {
    loop {
        let sched = {
            let mut dd = d.borrow_mut();
            if !dd.alive() {
                return;
            }
            let n_nodes = dd.free_slots.len();
            let mut pick: Option<Pick> = None;
            if !dd.pending_maps.is_empty() {
                // Dynamic cache locality — the top preference tier: a
                // pending split whose chunks are resident in the cluster
                // cache on a free node runs there, skipping its PFS reads
                // entirely. Skipped when no split has a hint (tier
                // disabled), so it is free for every existing workload.
                'cache: for node in 0..n_nodes {
                    if dd.cache_hints.is_empty()
                        || !dd.node_usable(node)
                        || dd.free_slots.get(node).copied().unwrap_or(0) == 0
                    {
                        continue;
                    }
                    let nid = NodeId(node as u32);
                    if let Some(pos) = dd.pending_maps.iter().position(|&t| {
                        dd.cache_hints.get(t).is_some_and(|hints| {
                            hints.iter().any(|&k| dd.env.cluster_cache.holds(nid, k))
                        })
                    }) {
                        let Some(task) = dd.pending_maps.remove(pos) else {
                            continue;
                        };
                        let local = dd
                            .job
                            .splits
                            .get(task)
                            .is_some_and(|s| s.locations.contains(&nid));
                        pick = Some(Pick::Map {
                            node: nid,
                            task,
                            local,
                            cache_local: true,
                        });
                        break 'cache;
                    }
                }
                if pick.is_none() {
                    'outer: for node in 0..n_nodes {
                        if !dd.node_usable(node) || dd.free_slots[node] == 0 {
                            continue;
                        }
                        let nid = NodeId(node as u32);
                        // Locality preference: a pending split stored on
                        // this node.
                        if let Some(pos) = dd
                            .pending_maps
                            .iter()
                            .position(|&t| dd.job.splits[t].locations.contains(&nid))
                        {
                            let Some(task) = dd.pending_maps.remove(pos) else {
                                continue;
                            };
                            pick = Some(Pick::Map {
                                node: nid,
                                task,
                                local: true,
                                cache_local: false,
                            });
                            break 'outer;
                        }
                    }
                }
                if pick.is_none() {
                    // Any pending task on the least-loaded usable node with
                    // a free slot — spreads non-local work across the
                    // cluster.
                    let best = (0..n_nodes)
                        .filter(|&n| dd.node_usable(n) && dd.free_slots[n] > 0)
                        .max_by_key(|&n| dd.free_slots[n]);
                    if let Some(node) = best {
                        if let Some(task) = dd.pending_maps.pop_front() {
                            pick = Some(Pick::Map {
                                node: NodeId(node as u32),
                                task,
                                local: false,
                                cache_local: false,
                            });
                        }
                    }
                }
            }
            if pick.is_none() {
                // Reducers honor the same slot limits as maps; prefer the
                // round-robin home node `r % n_nodes` when it has capacity.
                if let Some(r) = dd.pending_reduces.front().copied() {
                    let pref = r % n_nodes;
                    let node = if dd.node_usable(pref) && dd.free_slots[pref] > 0 {
                        Some(pref)
                    } else {
                        (0..n_nodes)
                            .filter(|&n| dd.node_usable(n) && dd.free_slots[n] > 0)
                            .max_by_key(|&n| dd.free_slots[n])
                    };
                    if let Some(node) = node {
                        dd.pending_reduces.pop_front();
                        pick = Some(Pick::Reduce {
                            node: NodeId(node as u32),
                            task: r,
                        });
                    }
                }
            }
            match pick {
                Some(p) => {
                    let node = match &p {
                        Pick::Map { node, .. } | Pick::Reduce { node, .. } => node.0 as usize,
                    };
                    dd.free_slots[node] -= 1;
                    Sched::Run(p)
                }
                None => {
                    let waiting = dd.pending_maps.len() + dd.pending_reduces.len();
                    if waiting > 0 && dd.attempts.is_empty() {
                        Sched::Stuck(waiting)
                    } else {
                        Sched::Idle
                    }
                }
            }
        };
        match sched {
            Sched::Run(Pick::Map {
                node,
                task,
                local,
                cache_local,
            }) => {
                let id =
                    register_attempt(sim, d, TaskKind::Map, task, node, local, cache_local, false);
                run_map_attempt(sim, d, id);
            }
            Sched::Run(Pick::Reduce { node, task }) => {
                let id =
                    register_attempt(sim, d, TaskKind::Reduce, task, node, false, false, false);
                run_reduce_attempt(sim, d, id);
            }
            Sched::Stuck(waiting) => {
                fail_job(
                    sim,
                    d,
                    MrError::msg(format!(
                        "no usable nodes left for {waiting} pending task(s)"
                    )),
                );
                return;
            }
            Sched::Idle => return,
        }
    }
}

/// Register a new attempt of `task` on `node` and charge the attempt-level
/// counters (these are job-global meta counters, not task output). When the
/// hang deadline is armed, a deadline check is queued at the instant the
/// attempt would be declared hung.
#[allow(clippy::too_many_arguments)]
fn register_attempt(
    sim: &mut Sim,
    d: &SharedDriver,
    kind: TaskKind,
    task: usize,
    node: NodeId,
    local: bool,
    cache_local: bool,
    speculative: bool,
) -> AttemptId {
    let (id, deadline) = {
        let mut dd = d.borrow_mut();
        let id = dd.next_attempt;
        dd.next_attempt += 1;
        dd.attempts.insert(
            id,
            AttemptInfo {
                kind,
                task,
                node,
                start_s: sim.now().secs(),
                local,
                cache_local,
                speculative,
                spec_check_scheduled: false,
            },
        );
        {
            let st = dd.task_state_mut(kind, task);
            st.started += 1;
            if speculative {
                st.speculated = true;
            } else {
                st.regular_started += 1;
            }
            st.live.push(id);
        }
        dd.counters.add(
            match kind {
                TaskKind::Map => keys::MAP_ATTEMPTS,
                TaskKind::Reduce => keys::REDUCE_ATTEMPTS,
            },
            1.0,
        );
        if speculative {
            dd.counters.add(keys::SPECULATIVE_LAUNCHED, 1.0);
        }
        let factor = dd.job.ft.hang_deadline_factor;
        let deadline = if dd.hang_checks_armed && factor > 0.0 {
            // Adaptive deadline: a generous multiple of the q75 committed
            // map duration, floored while too few maps have finished.
            Some(
                dd.job
                    .ft
                    .hang_deadline_min_s
                    .max(factor * quantile(&dd.map_durations, 0.75)),
            )
        } else {
            None
        };
        (id, deadline)
    };
    if let Some(deadline) = deadline {
        let d2 = d.clone();
        sim.after(deadline, move |sim| {
            hang_deadline_check(sim, &d2, id, deadline)
        });
    }
    id
}

/// An attempt failed (fetch error, user code error). Release the slot,
/// update blacklist accounting, and requeue the task unless its attempts
/// are exhausted — in which case the job fails with the attempt's error,
/// unchanged.
fn attempt_failed(sim: &mut Sim, d: &SharedDriver, id: AttemptId, err: MrError) {
    attempt_failed_inner(sim, d, id, err, true)
}

/// `count_node_failure`: whether the failure counts against the node's
/// blacklist tally. The hang detector passes `false` for attempts stranded
/// by a hung or partitioned node — the *fault* silenced them, and
/// blacklisting would make a healed partition permanent.
fn attempt_failed_inner(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    err: MrError,
    count_node_failure: bool,
) {
    enum Next {
        Fail(MrError),
        Requeue {
            delay: f64,
            kind: TaskKind,
            task: usize,
        },
        Schedule,
    }
    let next = {
        let mut dd = d.borrow_mut();
        if !dd.alive() {
            return;
        }
        let Some(info) = dd.attempts.remove(&id) else {
            return; // orphaned twin failing after the task committed
        };
        let node = info.node.0 as usize;
        let (task_done, others_running, regular_started) = {
            let st = dd.task_state_mut(info.kind, info.task);
            st.live.retain(|&x| x != id);
            (st.done, !st.live.is_empty(), st.regular_started)
        };
        let mut breach: Option<MrError> = None;
        if !dd.node_dead[node] && !dd.node_declared_dead[node] {
            dd.free_slots[node] += 1;
            if count_node_failure {
                dd.node_failures[node] += 1;
                let th = dd.job.ft.node_blacklist_threshold;
                let usable = (0..dd.node_dead.len())
                    .filter(|&n| dd.node_usable(n))
                    .count();
                if th > 0
                    && !dd.node_blacklisted[node]
                    && dd.node_failures[node] >= th
                    && usable > 1
                {
                    dd.node_blacklisted[node] = true;
                    dd.counters.add(keys::NODE_BLACKLISTED, 1.0);
                    breach = dd.quorum_breach();
                }
            }
        }
        if let Some(e) = breach {
            Next::Fail(e)
        } else if task_done || others_running {
            // A speculative twin died while its sibling lives on (or after
            // the task already committed): nothing to requeue.
            Next::Schedule
        } else if regular_started >= dd.job.ft.max_task_attempts.max(1) {
            Next::Fail(err)
        } else {
            dd.counters.add(keys::TASK_RETRIES, 1.0);
            // Exponential backoff with deterministic jitter: the k-th retry
            // of this task waits before requeueing, easing pressure on a
            // struggling cluster. Off (base = 0) requeues immediately.
            let base = dd.job.ft.retry_backoff_base_s;
            let retries = regular_started.saturating_sub(1).max(1) as u32;
            let delay = if base > 0.0 {
                let raw = base * 2f64.powi(retries as i32 - 1);
                let jitter = 0.5 + dd.backoff_rng.f64();
                raw.min(dd.job.ft.retry_backoff_max_s.max(base)) * jitter
            } else {
                0.0
            };
            if delay <= 0.0 {
                match info.kind {
                    TaskKind::Map => dd.pending_maps.push_back(info.task),
                    TaskKind::Reduce => dd.pending_reduces.push_back(info.task),
                }
            }
            Next::Requeue {
                delay,
                kind: info.kind,
                task: info.task,
            }
        }
    };
    match next {
        Next::Fail(e) => fail_job(sim, d, e),
        Next::Schedule => try_schedule(sim, d),
        Next::Requeue { delay, kind, task } if delay > 0.0 => {
            // The task stays out of the pending queue until the backoff
            // expires — a held-back task cannot trip the Stuck detector
            // because its requeue event is always in flight.
            let d2 = d.clone();
            sim.after(delay, move |sim| {
                {
                    let mut dd = d2.borrow_mut();
                    if !dd.alive() {
                        return;
                    }
                    match kind {
                        TaskKind::Map => dd.pending_maps.push_back(task),
                        TaskKind::Reduce => dd.pending_reduces.push_back(task),
                    }
                }
                try_schedule(sim, &d2);
            });
        }
        Next::Requeue { .. } => try_schedule(sim, d),
    }
}

/// A node died (fault plan): drop its slots, orphan its live attempts and
/// requeue their tasks on the survivors.
fn on_node_killed(sim: &mut Sim, d: &SharedDriver, node: usize) {
    let exhausted = {
        let mut dd = d.borrow_mut();
        if !dd.alive() || dd.node_dead[node] {
            return;
        }
        dd.node_dead[node] = true;
        dd.free_slots[node] = 0;
        // The node's cached chunks died with its memory — invalidate them
        // exactly like its shuffle outputs, so no later stage is steered
        // to (or served from) a ghost replica.
        dd.env.cluster_cache.invalidate_node(NodeId(node as u32));
        let victims: Vec<AttemptId> = dd
            .attempts
            .iter()
            .filter(|(_, i)| i.node.0 as usize == node)
            .map(|(&id, _)| id)
            .collect();
        let mut exhausted: Option<MrError> = dd.quorum_breach();
        for id in victims {
            let Some(info) = dd.attempts.remove(&id) else {
                continue;
            };
            let (task_done, others_running, regular_started) = {
                let st = dd.task_state_mut(info.kind, info.task);
                st.live.retain(|&x| x != id);
                (st.done, !st.live.is_empty(), st.regular_started)
            };
            if task_done || others_running {
                continue;
            }
            if regular_started >= dd.job.ft.max_task_attempts.max(1) {
                exhausted.get_or_insert(MrError::msg(format!(
                    "{:?} task {} lost to death of node {} after {} attempts",
                    info.kind, info.task, node, regular_started
                )));
            } else {
                dd.counters.add(keys::TASK_RETRIES, 1.0);
                match info.kind {
                    TaskKind::Map => dd.pending_maps.push_back(info.task),
                    TaskKind::Reduce => dd.pending_reduces.push_back(info.task),
                }
            }
        }
        exhausted
    };
    match exhausted {
        Some(e) => fail_job(sim, d, e),
        None => try_schedule(sim, d),
    }
}

/// Queue heartbeat tick `k` of the failure detector at
/// `start + k·interval` simulated seconds. Each tick reschedules the next
/// while the job is alive, so the loop dies with the job and never keeps
/// the simulator spinning.
fn schedule_heartbeat(sim: &mut Sim, d: &SharedDriver, tick: u64) {
    let (start, interval) = {
        let dd = d.borrow();
        (dd.start_s, dd.job.ft.heartbeat_interval_s)
    };
    if interval <= 0.0 || !interval.is_finite() {
        return;
    }
    let d2 = d.clone();
    sim.at(
        simnet::SimTime(start + tick as f64 * interval),
        move |sim| heartbeat_tick(sim, &d2, tick),
    );
}

/// One detector tick: a node inside an active partition or past its hang
/// onset cannot deliver a heartbeat; consecutive misses walk it up the
/// suspicion ladder (suspected → declared dead), and a resumed heartbeat
/// (healed partition) walks it back down — reinstating its slots instead of
/// blacklisting it for good.
fn heartbeat_tick(sim: &mut Sim, d: &SharedDriver, tick: u64) {
    let (declare, reinstated) = {
        let mut dd = d.borrow_mut();
        if !dd.alive() {
            return; // job finished: stop ticking
        }
        let now = sim.now().secs();
        let n_nodes = dd.node_dead.len();
        let suspect_after = dd.job.ft.suspect_after_misses.max(1);
        let dead_after = dd.job.ft.dead_after_misses.max(suspect_after);
        let mut declare: Vec<usize> = Vec::new();
        let mut reinstated = false;
        for n in 0..n_nodes {
            if dd.node_dead[n] || dd.node_blacklisted[n] {
                continue; // permanently out of the detector's scope
            }
            let silent =
                sim.faults.node_hung(n as u32, now) || sim.faults.partition_isolated(n as u32, now);
            if silent {
                dd.hb_misses[n] += 1;
                dd.counters.add(keys::HEARTBEATS_MISSED, 1.0);
                if dd.hb_misses[n] >= suspect_after && !dd.node_suspected[n] {
                    dd.node_suspected[n] = true;
                    dd.counters.add(keys::NODES_SUSPECTED, 1.0);
                }
                if dd.hb_misses[n] >= dead_after && !dd.node_declared_dead[n] {
                    declare.push(n);
                }
            } else if dd.hb_misses[n] > 0 {
                // Heartbeats resumed: clear suspicion and give the node its
                // slots back if it had been declared dead.
                dd.hb_misses[n] = 0;
                if dd.node_suspected[n] || dd.node_declared_dead[n] {
                    dd.counters.add(keys::NODES_REINSTATED, 1.0);
                }
                dd.node_suspected[n] = false;
                if dd.node_declared_dead[n] {
                    dd.node_declared_dead[n] = false;
                    dd.free_slots[n] = dd.env.slots_per_node;
                    reinstated = true;
                }
            }
        }
        (declare, reinstated)
    };
    for n in declare {
        on_node_declared_dead(sim, d, n);
    }
    if reinstated {
        try_schedule(sim, d);
    }
    if d.borrow().alive() {
        schedule_heartbeat(sim, d, tick + 1);
    }
}

/// The detector declared `node` dead: withdraw its slots, orphan its live
/// attempts and requeue their tasks — exactly like a fault-plan kill except
/// the state is reversible (a later heartbeat reinstates the node) and the
/// node's failure tally is untouched, so a healed partition never leaves
/// the node blacklisted.
fn on_node_declared_dead(sim: &mut Sim, d: &SharedDriver, node: usize) {
    let exhausted = {
        let mut dd = d.borrow_mut();
        if !dd.alive() || dd.node_dead[node] || dd.node_declared_dead[node] {
            return;
        }
        dd.node_declared_dead[node] = true;
        dd.free_slots[node] = 0;
        let victims: Vec<AttemptId> = dd
            .attempts
            .iter()
            .filter(|(_, i)| i.node.0 as usize == node)
            .map(|(&id, _)| id)
            .collect();
        let mut exhausted: Option<MrError> = dd.quorum_breach();
        for id in victims {
            let Some(info) = dd.attempts.remove(&id) else {
                continue;
            };
            let (task_done, others_running, regular_started) = {
                let st = dd.task_state_mut(info.kind, info.task);
                st.live.retain(|&x| x != id);
                (st.done, !st.live.is_empty(), st.regular_started)
            };
            if task_done || others_running {
                continue;
            }
            if regular_started >= dd.job.ft.max_task_attempts.max(1) {
                exhausted.get_or_insert(MrError::msg(format!(
                    "{:?} task {} lost to declared-dead node {} after {} attempts",
                    info.kind, info.task, node, regular_started
                )));
            } else {
                dd.counters.add(keys::TASK_RETRIES, 1.0);
                match info.kind {
                    TaskKind::Map => dd.pending_maps.push_back(info.task),
                    TaskKind::Reduce => dd.pending_reduces.push_back(info.task),
                }
            }
        }
        exhausted
    };
    match exhausted {
        Some(e) => fail_job(sim, d, e),
        None => try_schedule(sim, d),
    }
}

/// The per-attempt deadline fired: the attempt is hung if it is still in
/// flight. Hangs on a silenced node (hung or partitioned) are charged to
/// the fault, not the node — its failure tally stays untouched so a healed
/// partition reinstates a clean node; a hung *read* on a healthy node
/// counts as an ordinary task failure.
fn hang_deadline_check(sim: &mut Sim, d: &SharedDriver, id: AttemptId, deadline: f64) {
    let verdict = {
        let mut dd = d.borrow_mut();
        if !dd.alive() {
            return;
        }
        let Some(info) = dd.attempts.get(&id) else {
            return; // finished, failed or orphaned before the deadline
        };
        let (kind, task, node) = (info.kind, info.task, info.node.0 as usize);
        let now = sim.now().secs();
        let node_silent = sim.faults.node_hung(node as u32, now)
            || sim.faults.partition_isolated(node as u32, now);
        dd.counters.add(keys::TASKS_HANG_DETECTED, 1.0);
        (kind, task, node, node_silent)
    };
    let (kind, task, node, node_silent) = verdict;
    attempt_failed_inner(
        sim,
        d,
        id,
        MrError::msg(format!(
            "{kind:?} task {task} hung on node {node}: no completion within \
             its {deadline:.1}s deadline"
        )),
        !node_silent,
    );
}

/// Sorted `q`-quantile of `v` (nearest-rank); 0 on empty input.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    s[idx.min(s.len() - 1)]
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    // total_cmp: a NaN duration (however degenerate the timing) must not
    // panic the driver mid-job; NaNs sort to the end and the median of the
    // finite majority still steers speculation sensibly.
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Called at every map commit: queue one straggler check per still-running
/// map attempt at the instant it would cross the slowdown threshold.
fn schedule_speculation_checks(sim: &mut Sim, d: &SharedDriver) {
    let checks: Vec<(AttemptId, f64)> = {
        let mut dd = d.borrow_mut();
        if !dd.job.ft.speculative || !dd.alive() {
            return;
        }
        let enough = dd.maps_done as f64 >= dd.job.ft.speculative_min_completed * dd.n_maps as f64;
        if !enough {
            return;
        }
        let med = median(&dd.map_durations);
        if med <= 0.0 {
            return;
        }
        let factor = dd.job.ft.speculative_slowdown.max(1.0);
        let ids: Vec<AttemptId> = dd
            .attempts
            .iter()
            .filter(|(_, i)| i.kind == TaskKind::Map && !i.spec_check_scheduled)
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::new();
        for id in ids {
            let (task, start_s) = match dd.attempts.get(&id) {
                Some(i) => (i.task, i.start_s),
                None => continue,
            };
            if dd.map_states[task].done || dd.map_states[task].speculated {
                continue;
            }
            if let Some(i) = dd.attempts.get_mut(&id) {
                i.spec_check_scheduled = true;
            }
            out.push((id, start_s + factor * med));
        }
        out
    };
    let now = sim.now().secs();
    for (id, t) in checks {
        let d2 = d.clone();
        sim.at(simnet::SimTime(t.max(now)), move |sim| {
            maybe_speculate(sim, &d2, id)
        });
    }
}

/// The straggler check: if the attempt is still running past its threshold
/// and a different usable node has a free slot, launch a duplicate attempt.
/// First commit wins; the loser is orphaned.
fn maybe_speculate(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let launch = {
        let mut dd = d.borrow_mut();
        if !dd.alive() {
            return;
        }
        let Some(info) = dd.attempts.get(&id) else {
            return; // finished or failed before its check fired
        };
        let (task, node) = (info.task, info.node.0 as usize);
        let st = &dd.map_states[task];
        // Note: the attempt budget is deliberately not consulted — a
        // speculative launch is exempt from `max_task_attempts` (it counts
        // neither against the budget nor as a retry), so speculating never
        // costs the task its recovery headroom.
        if st.done || st.speculated {
            return;
        }
        let n_nodes = dd.free_slots.len();
        let cand = (0..n_nodes)
            .filter(|&n| n != node && dd.node_usable(n) && dd.free_slots[n] > 0)
            .max_by_key(|&n| dd.free_slots[n]);
        let Some(c) = cand else {
            return; // no spare capacity elsewhere; let the original run
        };
        dd.free_slots[c] -= 1;
        let nid = NodeId(c as u32);
        let local = dd.job.splits[task].locations.contains(&nid);
        let cache_local = dd
            .cache_hints
            .get(task)
            .is_some_and(|hints| hints.iter().any(|&k| dd.env.cluster_cache.holds(nid, k)));
        (task, nid, local, cache_local)
    };
    let (task, node, local, cache_local) = launch;
    let id2 = register_attempt(sim, d, TaskKind::Map, task, node, local, cache_local, true);
    run_map_attempt(sim, d, id2);
}

/// Run one map attempt. All task-level counters land in an attempt-local
/// [`Counters`] merged only at commit, so failed/orphaned attempts never
/// distort the job totals.
fn run_map_attempt(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let (env, startup, fetcher, node, split_len, stream_cfg) = {
        let dd = d.borrow();
        let info = &dd.attempts[&id];
        (
            dd.env.clone(),
            sim.cost.task_startup_s,
            dd.job.splits[info.task].fetcher.clone(),
            info.node,
            dd.job.splits[info.task].length as f64,
            dd.job.stream.clone(),
        )
    };
    let mut acnt = Counters::new();
    acnt.add(keys::INPUT_BYTES, split_len);
    let d2 = d.clone();
    sim.after(startup, move |sim| {
        if !attempt_live(&d2, id) {
            return;
        }
        let fetch_start = sim.now().secs();
        if stream_cfg.enabled {
            match fetcher.open_stream(&env, sim, node) {
                Ok(stream) => {
                    run_stream_attempt(
                        sim,
                        &d2,
                        id,
                        &env,
                        stream.into(),
                        node,
                        startup,
                        fetch_start,
                        stream_cfg.prefetch_depth.max(1),
                        acnt,
                    );
                    return;
                }
                Err(fb) => {
                    // Attempt-local, merged only at commit: exactly one
                    // fallback (with its reason) per committed task.
                    acnt.add(keys::STREAM_FALLBACKS, 1.0);
                    acnt.add(fb.counter_key(), 1.0);
                }
            }
        }
        let d3 = d2.clone();
        fetcher.fetch(
            &env,
            sim,
            node,
            Box::new(move |sim, fr| {
                if !attempt_live(&d3, id) {
                    return;
                }
                let fr = match fr {
                    Ok(fr) => fr,
                    Err(e) => {
                        attempt_failed(sim, &d3, id, e);
                        return;
                    }
                };
                let read_s = sim.now().secs() - fetch_start;
                // Real map execution.
                let (map_fn, penalty) = {
                    let dd = d3.borrow();
                    let p = if dd.env.slots_per_node > 1 {
                        sim.cost.parallel_compute_penalty
                    } else {
                        1.0
                    };
                    (dd.job.map_fn.clone(), p)
                };
                let mut ctx = TaskCtx::new(sim.cost.clone());
                ctx.tag = fr.tag;
                for (phase, secs) in &fr.charges {
                    ctx.charge(phase, *secs);
                }
                for (key, v) in &fr.counters {
                    acnt.add(key, *v);
                }
                if let Err(e) = (map_fn)(fr.input, &mut ctx) {
                    attempt_failed(sim, &d3, id, e);
                    return;
                }
                // A fault-plan slowdown stretches this attempt's compute —
                // the straggler model speculation reacts to.
                let factor = penalty * sim.faults.slow_factor(node.0);
                let compute = ctx.total_charge() * factor;
                let mut phases = vec![("startup", startup), ("read", read_s)];
                for (p, s) in &ctx.charges {
                    phases.push((p, s * factor));
                }
                let records = ctx.records;
                let emitted = ctx.emitted;
                let d4 = d3.clone();
                sim.after(compute, move |sim| {
                    if !attempt_live(&d4, id) || node_silent(sim, node) {
                        return;
                    }
                    finish_map_compute(sim, &d4, id, phases, emitted, records, acnt)
                });
            }),
        );
    });
}

/// Bookkeeping of one streaming map attempt: pieces are issued in index
/// order through a window of at most `prefetch_depth` in-flight reads, and
/// each arrival is timestamped so the pipelined-compute timeline can be
/// derived once the full split is resident.
struct StreamState {
    next_issue: usize,
    in_flight: usize,
    arrived: usize,
    /// Absolute arrival time of each piece (valid once arrived).
    arrivals: Vec<f64>,
    /// Unscaled compute seconds each piece's arrival implies.
    piece_charge: Vec<f64>,
    /// Weight of each piece for apportioning split-wide map compute.
    piece_bytes: Vec<f64>,
    /// Per-piece `(phase, secs)` charges, accumulated for the task report.
    charges: Vec<(&'static str, f64)>,
    /// Attempt-local counters (input bytes + per-piece deltas).
    acnt: Counters,
}

/// Streaming fetch of one map attempt (the intra-task read/compute overlap
/// pipeline). Reads run for real through the simulated PFS with at most
/// `depth` pieces in flight; the map function runs once on the assembled
/// input (so output stays byte-identical to the batch path), and the
/// attempt's duration is the pipelined timeline
/// `f_i = max(f_{i-1}, a_i) + c_i` — compute of piece `i` starts as soon as
/// both the piece has arrived (`a_i`) and the previous piece's compute has
/// finished, i.e. `max(read, compute)`-shaped instead of `read + compute`.
#[allow(clippy::too_many_arguments)]
fn run_stream_attempt(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    env: &MrEnv,
    stream: Rc<dyn PieceStream>,
    node: NodeId,
    startup: f64,
    fetch_start: f64,
    depth: usize,
    acnt: Counters,
) {
    let n = stream.n_pieces();
    let st = Rc::new(RefCell::new(StreamState {
        next_issue: 0,
        in_flight: 0,
        arrived: 0,
        arrivals: vec![0.0; n],
        piece_charge: vec![0.0; n],
        piece_bytes: vec![0.0; n],
        charges: Vec::new(),
        acnt,
    }));
    if n == 0 {
        // Nothing to transfer (e.g. every chunk was cached): straight to map.
        stream_map(sim, d, id, stream, st, node, startup, fetch_start);
        return;
    }
    issue_pieces(
        sim,
        d,
        id,
        env,
        &stream,
        &st,
        node,
        startup,
        fetch_start,
        depth,
    );
}

/// Top up the prefetch window: issue pieces in index order until `depth`
/// are in flight or none remain. Each completion refills the window (or,
/// on the last arrival, runs the map).
#[allow(clippy::too_many_arguments)]
fn issue_pieces(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    env: &MrEnv,
    stream: &Rc<dyn PieceStream>,
    st: &Rc<RefCell<StreamState>>,
    node: NodeId,
    startup: f64,
    fetch_start: f64,
    depth: usize,
) {
    loop {
        let idx = {
            let mut s = st.borrow_mut();
            if s.next_issue >= s.arrivals.len() || s.in_flight >= depth {
                return;
            }
            let i = s.next_issue;
            s.next_issue += 1;
            s.in_flight += 1;
            i
        };
        let (d2, env2, stream2, st2) = (d.clone(), env.clone(), stream.clone(), st.clone());
        stream.fetch_piece(
            env,
            sim,
            node,
            idx,
            Box::new(move |sim, res| {
                if !attempt_live(&d2, id) {
                    return; // attempt failed or was orphaned mid-stream
                }
                let piece = match res {
                    Ok(p) => p,
                    Err(e) => {
                        // Kills the attempt exactly like a batch fetch
                        // error; siblings still in flight fall silent on
                        // the `attempt_live` guard above.
                        attempt_failed(sim, &d2, id, e);
                        return;
                    }
                };
                let all = {
                    let mut s = st2.borrow_mut();
                    s.in_flight -= 1;
                    s.arrived += 1;
                    s.arrivals[idx] = sim.now().secs();
                    s.piece_bytes[idx] = piece.bytes as f64;
                    s.piece_charge[idx] = piece.charges.iter().map(|(_, c)| c).sum();
                    s.charges.extend(piece.charges);
                    for (k, v) in piece.counters {
                        s.acnt.add(k, v);
                    }
                    s.arrived == s.arrivals.len()
                };
                if all {
                    stream_map(sim, &d2, id, stream2, st2, node, startup, fetch_start);
                } else {
                    issue_pieces(
                        sim,
                        &d2,
                        id,
                        &env2,
                        &stream2,
                        &st2,
                        node,
                        startup,
                        fetch_start,
                        depth,
                    );
                }
            }),
        );
    }
}

/// All pieces are resident: assemble the split, run the map function, and
/// schedule the attempt's end at the pipelined finish time. The "read"
/// phase records only the *stalled* read seconds (time the compute
/// pipeline actually waited on bytes); `overlap_saved_s` records how much
/// shorter the pipelined timeline is than read-then-compute.
#[allow(clippy::too_many_arguments)]
fn stream_map(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    stream: Rc<dyn PieceStream>,
    st: Rc<RefCell<StreamState>>,
    node: NodeId,
    startup: f64,
    fetch_start: f64,
) {
    let fr = match stream.finish() {
        Ok(fr) => fr,
        Err(e) => {
            attempt_failed(sim, d, id, e);
            return;
        }
    };
    let (map_fn, penalty) = {
        let dd = d.borrow();
        let p = if dd.env.slots_per_node > 1 {
            sim.cost.parallel_compute_penalty
        } else {
            1.0
        };
        (dd.job.map_fn.clone(), p)
    };
    let mut ctx = TaskCtx::new(sim.cost.clone());
    ctx.tag = fr.tag;
    for (phase, secs) in &fr.charges {
        ctx.charge(phase, *secs);
    }
    for (key, v) in &fr.counters {
        st.borrow_mut().acnt.add(key, *v);
    }
    if let Err(e) = (map_fn)(fr.input, &mut ctx) {
        attempt_failed(sim, d, id, e);
        return;
    }
    let factor = penalty * sim.faults.slow_factor(node.0);
    let (arrivals, piece_charge, piece_bytes, piece_phases, mut acnt) = {
        let mut s = st.borrow_mut();
        (
            std::mem::take(&mut s.arrivals),
            std::mem::take(&mut s.piece_charge),
            std::mem::take(&mut s.piece_bytes),
            std::mem::take(&mut s.charges),
            std::mem::take(&mut s.acnt),
        )
    };
    let now = sim.now().secs();
    let n = arrivals.len();
    // Compute of piece `i` = its own charge plus its byte-weighted share of
    // the split-wide charges (map + finish-level fetch charges).
    let tail = ctx.total_charge();
    let total_bytes: f64 = piece_bytes.iter().sum();
    let mut stall = 0.0;
    let finish_t = if n == 0 {
        now + tail * factor
    } else {
        let mut f = fetch_start;
        let mut compute_total = 0.0;
        let mut prefetched = 0.0;
        for (i, (&a, (&pb, &pc))) in arrivals
            .iter()
            .zip(piece_bytes.iter().zip(piece_charge.iter()))
            .enumerate()
        {
            let w = if total_bytes > 0.0 {
                pb / total_bytes
            } else {
                1.0 / n as f64
            };
            let c = (pc + tail * w) * factor;
            compute_total += c;
            if a <= f && i > 0 {
                prefetched += 1.0; // read fully hidden behind compute
            } else {
                stall += a - f;
            }
            f = f.max(a) + c;
        }
        // `f == fetch_start + stall + compute_total` by construction, and
        // `f >= now` since every piece's compute follows its arrival. The
        // saving is vs. the batch shape `now + compute_total`.
        let saved = (now + compute_total - f).max(0.0);
        if saved > 0.0 {
            acnt.add(keys::OVERLAP_SAVED_S, saved);
        }
        if prefetched > 0.0 {
            acnt.add(keys::PIECES_PREFETCHED, prefetched);
        }
        f
    };
    let mut phases = vec![("startup", startup), ("read", stall)];
    for (p, s) in &piece_phases {
        phases.push((p, s * factor));
    }
    for (p, s) in &ctx.charges {
        phases.push((p, s * factor));
    }
    let records = ctx.records;
    let emitted = ctx.emitted;
    let d4 = d.clone();
    sim.after((finish_t - now).max(0.0), move |sim| {
        if !attempt_live(&d4, id) || node_silent(sim, node) {
            return;
        }
        finish_map_compute(sim, &d4, id, phases, emitted, records, acnt)
    });
}

/// Final step of a task-output write: an orphaned attempt deletes its own
/// temp file; a live one renames it into place and charges the write
/// bytes to the correct store (PFS vs HDFS). Returns whether the attempt
/// committed its file.
fn promote_task_output(
    d: &SharedDriver,
    id: AttemptId,
    tmp: &str,
    final_path: &str,
    output_to_pfs: bool,
    len: f64,
    acnt: &mut Counters,
) -> bool {
    let env = d.borrow().env.clone();
    if !attempt_live(d, id) {
        // The sim has no GC — the loser of a speculative race (or a write
        // that outlived a failed job) removes its own temp file.
        if output_to_pfs {
            env.pfs.borrow_mut().delete(tmp);
        } else {
            let mut h = env.hdfs.borrow_mut();
            if let Ok(ids) = h.namenode.delete(tmp) {
                h.datanodes.reclaim(&ids);
            }
        }
        return false;
    }
    if output_to_pfs {
        let mut p = env.pfs.borrow_mut();
        p.delete(final_path);
        p.rename(tmp, final_path);
    } else {
        let mut h = env.hdfs.borrow_mut();
        if let Ok(ids) = h.namenode.delete(final_path) {
            h.datanodes.reclaim(&ids);
        }
        let _ = h.namenode.rename(tmp, final_path);
    }
    acnt.add(
        if output_to_pfs {
            keys::PFS_WRITE_BYTES
        } else {
            keys::HDFS_WRITE_BYTES
        },
        len,
    );
    true
}

/// Commit one finished task attempt: first commit wins, later siblings are
/// orphaned; counters, locality stats and the task report are recorded
/// exactly once per task here.
fn commit_task(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    phases: Vec<(&'static str, f64)>,
    map_parts: Option<Vec<Vec<Kv>>>,
    acnt: &Counters,
) {
    let committed = {
        let mut dd = d.borrow_mut();
        if !dd.alive() {
            return;
        }
        let Some(info) = dd.attempts.remove(&id) else {
            return; // lost the speculative race
        };
        let (kind, task) = (info.kind, info.task);
        let others = {
            let st = dd.task_state_mut(kind, task);
            st.done = true;
            st.live.retain(|&x| x != id);
            std::mem::take(&mut st.live)
        };
        // Orphan the losing twins: their continuations see `attempt_live`
        // false and fall silent; release their slots now.
        for o in others {
            if let Some(oi) = dd.attempts.remove(&o) {
                let n = oi.node.0 as usize;
                if !dd.node_dead[n] && !dd.node_declared_dead[n] {
                    dd.free_slots[n] += 1;
                }
            }
        }
        dd.counters.merge(acnt);
        let end_s = sim.now().secs();
        match kind {
            TaskKind::Map => {
                dd.map_nodes[task] = info.node;
                if let Some(parts) = map_parts {
                    match dd.job.shuffle.clone() {
                        // DAG stage: registration happens here, at commit,
                        // so first-commit-wins also means register-once —
                        // an orphaned twin never reaches this point. Job
                        // task indices are remapped to stage partition ids
                        // (recompute jobs cover a sparse subset).
                        Some(sink) => {
                            let pid = sink.task_ids.get(task).copied().unwrap_or(task);
                            sink.store.borrow_mut().register(
                                sink.shuffle_id,
                                pid,
                                info.node,
                                parts,
                            );
                        }
                        None => dd.map_outputs[task] = parts,
                    }
                }
                dd.counters.add(keys::MAP_TASKS, 1.0);
                let has_locations = !dd.job.splits[task].locations.is_empty();
                dd.counters.add(
                    if !has_locations {
                        keys::ANY_MAPS
                    } else if info.local {
                        keys::LOCAL_MAPS
                    } else {
                        keys::REMOTE_MAPS
                    },
                    1.0,
                );
                if info.cache_local {
                    dd.counters.add(keys::CACHE_LOCALITY_MAPS, 1.0);
                }
                if info.speculative {
                    dd.counters.add(keys::SPECULATIVE_WON, 1.0);
                }
                dd.map_durations.push(end_s - info.start_s);
                dd.maps_done += 1;
            }
            TaskKind::Reduce => {
                dd.counters.add(keys::REDUCE_TASKS, 1.0);
                dd.reduces_done += 1;
            }
        }
        dd.reports.push(TaskReport {
            kind,
            index: task,
            node: info.node,
            start_s: info.start_s,
            end_s,
            phases,
        });
        let n = info.node.0 as usize;
        if !dd.node_dead[n] && !dd.node_declared_dead[n] {
            dd.free_slots[n] += 1;
        }
        kind
    };
    match committed {
        TaskKind::Map => {
            schedule_speculation_checks(sim, d);
            try_schedule(sim, d);
            maybe_finish_maps(sim, d);
        }
        TaskKind::Reduce => {
            try_schedule(sim, d);
            let all = {
                let dd = d.borrow();
                dd.reduces_done == dd.job.n_reducers
            };
            if all {
                complete(sim, d);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_map_compute(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    phases: Vec<(&'static str, f64)>,
    emitted: Vec<Kv>,
    records: u64,
    mut acnt: Counters,
) {
    let out_bytes: usize = emitted
        .iter()
        .map(|kv| kv.key.len() + kv.value.approx_bytes())
        .sum();
    acnt.add(keys::MAP_OUTPUT_BYTES, out_bytes as f64);
    acnt.add(keys::RECORDS_EMITTED, records as f64);
    let (env, partitioned, n_red, spill_to_pfs, output_to_pfs, job_name, dir, node, task) = {
        let dd = d.borrow();
        let info = &dd.attempts[&id];
        // A shuffle-sink stage partitions for the *downstream* stage's
        // width; a classic job partitions for its own reducers.
        let sink_parts = dd.job.shuffle.as_ref().map(|s| s.n_partitions);
        (
            dd.env.clone(),
            dd.job.reduce_fn.is_some() || sink_parts.is_some(),
            sink_parts.unwrap_or(dd.job.n_reducers),
            dd.job.spill_to_pfs,
            dd.job.output_to_pfs,
            dd.job.name.clone(),
            dd.job.output_dir.clone(),
            info.node,
            info.task,
        )
    };
    if partitioned {
        // Partition + spill.
        let mut parts: Vec<Vec<Kv>> = (0..n_red).map(|_| Vec::new()).collect();
        for kv in emitted {
            let p = (stable_hash(&kv.key) % n_red as u64) as usize;
            parts[p].push(kv);
        }
        let spill_start = sim.now().secs();
        let d2 = d.clone();
        let finish_spill = move |sim: &mut Sim, mut phases: Vec<(&'static str, f64)>| {
            if !attempt_live(&d2, id) {
                return;
            }
            phases.push(("spill", sim.now().secs() - spill_start));
            commit_task(sim, &d2, id, phases, Some(parts), &acnt);
        };
        if spill_to_pfs {
            // Connector mode: intermediate data crosses the network to the
            // PFS (the "diskless" deployment of the Lustre connectors). The
            // path is task-scoped (not attempt-scoped) and `write_new`
            // replaces — twins racing here write identical bytes, so either
            // order leaves a correct spill file.
            let spill_path = format!("_spill/{job_name}/m{task:05}");
            pfs::write_new(
                sim,
                &env.topo,
                &env.pfs,
                node,
                spill_path,
                vec![0u8; out_bytes],
                move |sim| finish_spill(sim, phases),
            );
        } else {
            let bytes = sim.cost.lbytes(out_bytes);
            let path = env.topo.path_local_disk(node);
            sim.start_flow(path, bytes, move |sim| finish_spill(sim, phases));
        }
    } else {
        // Map-only: write under an attempt-scoped temp name, rename into
        // place at commit — an orphaned attempt's file never shadows the
        // winner's.
        let data = serialize_kvs(&emitted);
        if data.is_empty() {
            commit_task(sim, d, id, phases, Some(Vec::new()), &acnt);
            return;
        }
        let tmp = format!("{dir}/_tmp/attempt-{id}");
        let tmp_w = tmp.clone();
        let final_path = format!("{dir}/part-m-{task:05}");
        let len = data.len() as f64;
        let write_start = sim.now().secs();
        let d2 = d.clone();
        let mut finish_write = move |sim: &mut Sim, mut phases: Vec<(&'static str, f64)>| {
            if !promote_task_output(&d2, id, &tmp, &final_path, output_to_pfs, len, &mut acnt) {
                return;
            }
            phases.push(("write", sim.now().secs() - write_start));
            commit_task(sim, &d2, id, phases, Some(Vec::new()), &acnt);
        };
        if output_to_pfs {
            pfs::write_new(sim, &env.topo, &env.pfs, node, tmp_w, data, move |sim| {
                finish_write(sim, phases)
            });
        } else {
            let res = hdfs::write_file(sim, &env.topo, &env.hdfs, node, tmp_w, data, move |sim| {
                finish_write(sim, phases)
            });
            if let Err(e) = res {
                attempt_failed(sim, d, id, MrError::msg(format!("hdfs: {e}")));
            }
        }
    }
}

fn maybe_finish_maps(sim: &mut Sim, d: &SharedDriver) {
    let action = {
        let mut dd = d.borrow_mut();
        if !dd.alive() || dd.maps_done < dd.n_maps {
            return;
        }
        if dd.job.reduce_fn.is_some() {
            if dd.reduce_phase {
                return; // reducers already queued
            }
            dd.reduce_phase = true;
            dd.pending_reduces = (0..dd.job.n_reducers).collect();
            true
        } else {
            false
        }
    };
    if action {
        try_schedule(sim, d);
    } else {
        complete(sim, d);
    }
}

/// Run one reduce attempt: shuffle, sort, reduce, write. Map outputs are
/// *cloned* per pull (not drained) so a retried reducer can shuffle again.
fn run_reduce_attempt(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let startup = sim.cost.task_startup_s;
    let (r, node) = {
        let dd = d.borrow();
        let info = &dd.attempts[&id];
        (info.task, info.node)
    };
    let d2 = d.clone();
    sim.after(startup, move |sim| {
        if !attempt_live(&d2, id) {
            return;
        }
        // Shuffle: pull partition r from every map.
        let (transfers, env) = {
            let dd = d2.borrow();
            let mut t: Vec<(usize, NodeId, Vec<Kv>)> = Vec::new();
            for m in 0..dd.n_maps {
                if dd.map_outputs[m].len() > r {
                    let kvs = dd.map_outputs[m][r].clone();
                    if !kvs.is_empty() {
                        t.push((m, dd.map_nodes[m], kvs));
                    }
                }
            }
            (t, dd.env.clone())
        };
        let shuffle_start = sim.now().secs();
        let shuffle_bytes: usize = transfers
            .iter()
            .flat_map(|(_, _, kvs)| kvs.iter())
            .map(|kv| kv.key.len() + kv.value.approx_bytes())
            .sum();
        let mut acnt = Counters::new();
        acnt.add(keys::SHUFFLE_BYTES, shuffle_bytes as f64);
        let collected: Rc<RefCell<Vec<Kv>>> = Rc::new(RefCell::new(Vec::new()));
        let n_transfers = transfers.len();
        let remaining = Rc::new(RefCell::new(n_transfers));
        let d3 = d2.clone();
        let after_shuffle = Rc::new(RefCell::new(Some(Box::new(
            move |sim: &mut Sim, kvs: Vec<Kv>| {
                reduce_execute(sim, &d3, id, startup, shuffle_start, kvs, acnt);
            },
        )
            as Box<dyn FnOnce(&mut Sim, Vec<Kv>)>)));
        if n_transfers == 0 {
            let Some(cb) = after_shuffle.borrow_mut().take() else {
                return;
            };
            cb(sim, Vec::new());
            return;
        }
        let spill_to_pfs = d2.borrow().job.spill_to_pfs;
        let job_name = d2.borrow().job.name.clone();
        let mut spill_read_err: Option<MrError> = None;
        for (m_idx, src, kvs) in transfers {
            let bytes: usize = kvs
                .iter()
                .map(|kv| kv.key.len() + kv.value.approx_bytes())
                .sum();
            let collected = collected.clone();
            let remaining = remaining.clone();
            let after_shuffle = after_shuffle.clone();
            let d4 = d2.clone();
            let arrive = move |sim: &mut Sim| {
                if !attempt_live(&d4, id) {
                    return;
                }
                collected.borrow_mut().extend(kvs);
                let mut rem = remaining.borrow_mut();
                *rem -= 1;
                if *rem == 0 {
                    drop(rem);
                    let Some(cb) = after_shuffle.borrow_mut().take() else {
                        return;
                    };
                    let kvs = std::mem::take(&mut *collected.borrow_mut());
                    cb(sim, kvs);
                }
            };
            if spill_to_pfs {
                // Fetch the partition back from the PFS spill file. The
                // exact byte range is immaterial to the timing model; the
                // volume is.
                let spill_path = format!("_spill/{job_name}/m{m_idx:05}");
                let have = env.pfs.borrow().len_of(&spill_path).unwrap_or(0);
                let len = bytes.min(have);
                let res = pfs::read_at(
                    sim,
                    &env.topo,
                    &env.pfs,
                    node,
                    &spill_path,
                    0,
                    len,
                    move |sim, _| arrive(sim),
                );
                if let Err(e) = res {
                    // Un-issued pulls keep `remaining` above zero, so the
                    // after_shuffle callback can never double-fire.
                    spill_read_err = Some(MrError::msg(format!("pfs: {e} ({spill_path})")));
                    break;
                }
            } else {
                let flow_bytes = sim.cost.lbytes(bytes);
                let path = env.topo.path_net(src, node);
                sim.start_flow(path, flow_bytes, arrive);
            }
        }
        if let Some(e) = spill_read_err {
            attempt_failed(sim, &d2, id, e);
        }
    });
}

fn reduce_execute(
    sim: &mut Sim,
    d: &SharedDriver,
    id: AttemptId,
    startup: f64,
    shuffle_start: f64,
    kvs: Vec<Kv>,
    mut acnt: Counters,
) {
    if !attempt_live(d, id) {
        return;
    }
    let (env, r, node, output_to_pfs, dir) = {
        let dd = d.borrow();
        let info = &dd.attempts[&id];
        (
            dd.env.clone(),
            info.task,
            info.node,
            dd.job.output_to_pfs,
            dd.job.output_dir.clone(),
        )
    };
    let shuffle_s = sim.now().secs() - shuffle_start;
    let in_bytes: usize = kvs
        .iter()
        .map(|kv| kv.key.len() + kv.value.approx_bytes())
        .sum();
    // Sort/merge (real grouping via BTreeMap).
    let sort_s = sim.cost.lbytes(in_bytes) * sim.cost.sort_per_byte;
    let mut groups: BTreeMap<String, Vec<Payload>> = BTreeMap::new();
    for kv in kvs {
        groups.entry(kv.key).or_default().push(kv.value);
    }
    let Some(reduce_fn) = d.borrow().job.reduce_fn.clone() else {
        attempt_failed(sim, d, id, MrError::msg("reduce task without a reduce_fn"));
        return;
    };
    let mut ctx = TaskCtx::new(sim.cost.clone());
    for (key, values) in groups {
        if let Err(e) = (reduce_fn)(&key, values, &mut ctx) {
            attempt_failed(sim, d, id, e);
            return;
        }
    }
    let slow = sim.faults.slow_factor(node.0);
    let compute = (ctx.total_charge() + sort_s) * slow;
    let mut phases = vec![
        ("startup", startup),
        ("shuffle", shuffle_s),
        ("sort", sort_s * slow),
    ];
    for (p, s) in &ctx.charges {
        phases.push((p, s * slow));
    }
    let records = ctx.records;
    let emitted = ctx.emitted;
    let d2 = d.clone();
    sim.after(compute, move |sim| {
        if !attempt_live(&d2, id) || node_silent(sim, node) {
            return;
        }
        acnt.add(keys::RECORDS_EMITTED, records as f64);
        let data = serialize_kvs(&emitted);
        if data.is_empty() {
            commit_task(sim, &d2, id, phases, None, &acnt);
            return;
        }
        // Attempt-scoped temp file, renamed into place at commit.
        let tmp = format!("{dir}/_tmp/attempt-{id}");
        let tmp_w = tmp.clone();
        let final_path = format!("{dir}/part-r-{r:05}");
        let len = data.len() as f64;
        let write_start = sim.now().secs();
        let d3 = d2.clone();
        let mut finish = move |sim: &mut Sim, mut phases: Vec<(&'static str, f64)>| {
            if !promote_task_output(&d3, id, &tmp, &final_path, output_to_pfs, len, &mut acnt) {
                return;
            }
            phases.push(("write", sim.now().secs() - write_start));
            commit_task(sim, &d3, id, phases, None, &acnt);
        };
        if output_to_pfs {
            pfs::write_new(sim, &env.topo, &env.pfs, node, tmp_w, data, move |sim| {
                finish(sim, phases)
            });
        } else {
            let res = hdfs::write_file(sim, &env.topo, &env.hdfs, node, tmp_w, data, move |sim| {
                finish(sim, phases)
            });
            if let Err(e) = res {
                attempt_failed(sim, &d2, id, MrError::msg(format!("hdfs: {e}")));
            }
        }
    });
}

pub(crate) fn serialize_kvs(kvs: &[Kv]) -> Vec<u8> {
    let mut out = Vec::new();
    for kv in kvs {
        out.extend_from_slice(kv.key.as_bytes());
        out.push(b'\t');
        match &kv.value {
            Payload::Bytes(b) => out.extend_from_slice(b),
            Payload::Frame(f) => {
                // Frames persist as CSV (what rhdfs writes back).
                let mut text = String::new();
                for (i, n) in f.names().iter().enumerate() {
                    if i > 0 {
                        text.push(',');
                    }
                    text.push_str(n);
                }
                text.push('\n');
                for row in 0..f.n_rows() {
                    for c in 0..f.n_cols() {
                        if c > 0 {
                            text.push(',');
                        }
                        text.push_str(&f.column_at(c).value(row).to_string());
                    }
                    text.push('\n');
                }
                out.extend_from_slice(text.as_bytes());
            }
        }
        out.push(b'\n');
    }
    out
}

fn fail_job(sim: &mut Sim, d: &SharedDriver, e: MrError) {
    let cb = {
        let mut dd = d.borrow_mut();
        if dd.failed.is_none() {
            dd.failed = Some(e.clone());
        }
        // Orphan every in-flight attempt and drop the queues: their
        // continuations see `attempt_live` false and can no longer mutate
        // counters or reports.
        dd.attempts.clear();
        dd.pending_maps.clear();
        dd.pending_reduces.clear();
        dd.done_cb.take()
    };
    if let Some(cb) = cb {
        cb(sim, Err(e));
    }
}

fn complete(sim: &mut Sim, d: &SharedDriver) {
    let (result, cb) = {
        let mut dd = d.borrow_mut();
        if dd.done_cb.is_none() {
            return;
        }
        let mut tasks = std::mem::take(&mut dd.reports);
        tasks.sort_by_key(|t| (t.kind == TaskKind::Reduce, t.index));
        // Cluster-cache evictions during this job's run (registry stats
        // are world-lifetime monotonic; the delta is this job's share).
        if dd.env.cluster_cache.enabled() {
            let evicted = dd
                .env
                .cluster_cache
                .stats()
                .evictions
                .saturating_sub(dd.cluster_evictions_start);
            if evicted > 0 {
                dd.counters
                    .add(keys::CLUSTER_CACHE_EVICTIONS, evicted as f64);
            }
        }
        let result = JobResult {
            name: dd.job.name.clone(),
            start_s: dd.start_s,
            end_s: sim.now().secs(),
            tasks,
            counters: dd.counters.clone(),
        };
        (result, dd.done_cb.take())
    };
    if let Some(cb) = cb {
        cb(sim, Ok(result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{hdfs_file_splits, InMemoryFetcher, InputSplit};
    use pfs::PfsConfig;
    use simnet::{ClusterSpec, CostModel, FaultPlan};

    fn small_cluster(nodes: usize, slots: usize) -> Cluster {
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

    fn mem_splits(n: usize, bytes: usize) -> Vec<InputSplit> {
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

    fn word_count_job(splits: Vec<InputSplit>, reducers: usize) -> Job {
        Job {
            name: "wordcount".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            splits,
            map_fn: Rc::new(|input, ctx| {
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
            reduce_fn: Some(Rc::new(|key, values, ctx| {
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
            n_reducers: reducers,
            output_dir: "out".into(),
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
            shuffle: None,
        }
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
    fn reduce_output_values_are_correct() {
        // All splits carry byte value 7 → one key, count = total bytes.
        let mut c = small_cluster(2, 2);
        let splits: Vec<InputSplit> = (0..3)
            .map(|_| InputSplit {
                length: 50,
                locations: vec![],
                fetcher: Rc::new(InMemoryFetcher { data: vec![7; 50] }),
            })
            .collect();
        let job = word_count_job(splits, 1);
        run_job(&mut c, job).unwrap();
        let h = c.hdfs.borrow();
        let files = h.namenode.list_files_recursive("out").unwrap();
        assert_eq!(files.len(), 1);
        // Read back through datanodes (single block).
        let blocks = h.namenode.blocks(&files[0].path).unwrap();
        let data = h
            .datanodes
            .get(blocks[0].locations()[0], blocks[0].id)
            .unwrap();
        let text = String::from_utf8(data.as_ref().clone()).unwrap();
        assert_eq!(text.trim(), "w7\t150");
    }

    #[test]
    fn map_only_job_writes_part_m_files() {
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(3, 10), 1);
        job.reduce_fn = None;
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 0.0);
        let h = c.hdfs.borrow();
        let files = h.namenode.list_files_recursive("out").unwrap();
        assert_eq!(files.len(), 3);
        assert!(files[0].path.contains("part-m-"));
    }

    #[test]
    fn slots_limit_parallelism() {
        // 8 equal tasks, 1 node: with 1 slot the job takes ~8x the span of
        // a single task; with 8 slots roughly 1x (plus contention).
        let elapsed = |slots: usize| {
            let mut c = small_cluster(1, slots);
            let job = word_count_job(mem_splits(8, 1000), 1);
            run_job(&mut c, job).unwrap().elapsed()
        };
        let serial = elapsed(1);
        let parallel = elapsed(8);
        assert!(
            serial > 4.0 * parallel,
            "slots not limiting: serial={serial}, parallel={parallel}"
        );
    }

    #[test]
    fn locality_preferred_when_available() {
        let mut c = small_cluster(2, 1);
        // Stage a real HDFS file: 2 blocks land on different nodes.
        hdfs::write_file(
            &mut c.sim,
            &c.topo,
            &c.hdfs,
            NodeId(0),
            "in",
            vec![1u8; (1 << 16) + 100],
            |_| {},
        )
        .unwrap();
        c.run();
        let env = c.env();
        let splits = hdfs_file_splits(&env, "in").expect("staged input path");
        assert_eq!(splits.len(), 2);
        let job = word_count_job(splits, 1);
        let r = run_job(&mut c, job).unwrap();
        // Both blocks were written from node 0 → both local there; at least
        // one map must be data-local.
        assert!(r.counters.get(keys::LOCAL_MAPS) >= 1.0);
        // locality_ratio counts only locality-eligible maps: with 2 maps
        // over located splits, local+remote is exactly 2 and the ratio is
        // local/2 ≥ 0.5 (any-locality maps would be excluded entirely).
        let ratio = r.locality_ratio().expect("located splits are eligible");
        let local = r.counters.get(keys::LOCAL_MAPS);
        let remote = r.counters.get(keys::REMOTE_MAPS);
        assert_eq!(local + remote, 2.0, "both maps locality-eligible");
        assert!((ratio - local / (local + remote)).abs() < 1e-12);
        assert!(ratio >= 0.5, "locality ratio too low: {ratio}");
        assert_eq!(r.counters.get(keys::ANY_MAPS), 0.0);
        for t in r.tasks.iter().filter(|t| t.kind == TaskKind::Map) {
            assert!(t.phase("read") > 0.0, "read phase recorded");
            assert!(t.phase("startup") > 0.0);
        }
    }

    #[test]
    fn failing_map_fails_job() {
        let mut c = small_cluster(1, 1);
        let job = Job {
            name: "boom".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            splits: mem_splits(2, 10),
            map_fn: Rc::new(|_, _| Err(MrError::msg("kaboom"))),
            reduce_fn: None,
            n_reducers: 1,
            output_dir: "out".into(),
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
            shuffle: None,
        };
        let r = run_job(&mut c, job);
        assert_eq!(r.unwrap_err(), MrError::msg("kaboom"));
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
    fn non_local_tasks_spread_across_nodes() {
        // Location-free splits must not pile onto node 0: with 4 nodes and
        // 4 equal tasks, every node runs exactly one.
        let mut c = small_cluster(4, 8);
        let mut nodes_used = std::collections::HashSet::new();
        let job = word_count_job(mem_splits(4, 100), 1);
        let r = run_job(&mut c, job).unwrap();
        for t in r.tasks.iter().filter(|t| t.kind == TaskKind::Map) {
            nodes_used.insert(t.node);
        }
        assert_eq!(nodes_used.len(), 4, "tasks not spread: {nodes_used:?}");
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
    fn charges_appear_in_task_phases() {
        let mut c = small_cluster(1, 1);
        let job = Job {
            name: "charge".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            splits: mem_splits(1, 10),
            map_fn: Rc::new(|_, ctx| {
                ctx.charge("plot", 2.0);
                ctx.charge("plot", 1.0);
                ctx.charge("convert", 0.5);
                Ok(())
            }),
            reduce_fn: None,
            n_reducers: 1,
            output_dir: "out".into(),
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
            shuffle: None,
        };
        let r = run_job(&mut c, job).unwrap();
        let t = &r.tasks[0];
        assert!((t.phase("plot") - 3.0).abs() < 1e-9);
        assert!((t.phase("convert") - 0.5).abs() < 1e-9);
        // Wall time covers startup + compute.
        assert!(t.duration() >= 3.5);
        assert!((r.mean_phase(TaskKind::Map, "plot") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn median_survives_nan_durations() {
        // Regression: a NaN duration used to panic the sort comparator
        // (`partial_cmp().expect(...)`) mid-job.
        assert!(median(&[f64::NAN]).is_nan());
        // NaNs sort last under total_cmp, so the finite majority wins.
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0, f64::NAN, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn stream_fallback_counted_exactly_once_per_task() {
        // InMemoryFetcher has no streaming support: with streaming enabled
        // every map attempt falls back to the batch path and says so.
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(4, 100), 1);
        job.stream = StreamConfig {
            enabled: true,
            prefetch_depth: 2,
        };
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::STREAM_FALLBACKS), 4.0);
        assert_eq!(r.counters.get(keys::STREAM_FALLBACK_UNSUPPORTED), 4.0);
        assert_eq!(
            r.stream_fallbacks().as_deref(),
            Some("4 stream fallback(s) (4 unsupported fetcher)")
        );
        // With streaming off the counter stays silent.
        let mut c2 = small_cluster(2, 2);
        let mut job2 = word_count_job(mem_splits(4, 100), 1);
        job2.stream = StreamConfig {
            enabled: false,
            prefetch_depth: 2,
        };
        let r2 = run_job(&mut c2, job2).unwrap();
        assert_eq!(r2.counters.get(keys::STREAM_FALLBACKS), 0.0);
        assert_eq!(r2.stream_fallbacks(), None);
    }

    #[test]
    fn speculative_attempt_is_exempt_from_the_retry_budget() {
        // max_task_attempts = 1: no retries at all. A straggler twin must
        // still launch (it is not a retry), and losing the straggler node
        // afterwards must not count the twin against the exhausted budget.
        let ft = FtConfig {
            max_task_attempts: 1,
            node_blacklist_threshold: 0,
            speculative: true,
            speculative_slowdown: 2.0,
            speculative_min_completed: 0.5,
            ..FtConfig::default()
        };
        let splits = mem_splits(4, 4000);
        let mk_job = |splits: Vec<InputSplit>, ft: FtConfig| Job {
            name: "spec".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            splits,
            map_fn: Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                // Compute-bound so the slow-node factor dominates startup.
                ctx.charge("scan", 10.0);
                ctx.emit("k".to_string(), Payload::Bytes(vec![b[0]]));
                Ok(())
            }),
            reduce_fn: None,
            n_reducers: 1,
            output_dir: "out".into(),
            ft,
            stream: StreamConfig::default(),
            shuffle: None,
        };
        // Clean elapsed calibrates the kill time below.
        let mut clean = small_cluster(2, 2);
        let rc = run_job(&mut clean, mk_job(mem_splits(4, 4000), ft.clone())).unwrap();
        let e = rc.elapsed();

        // Node 1 straggles 20x; its two tasks get speculative twins on
        // node 0 once node 0's tasks commit. Kill node 1 while the twins
        // run: the originals die with the budget long spent.
        let mut c = small_cluster(2, 2);
        c.sim
            .faults
            .install(FaultPlan::none().slow_node(1, 20.0).kill_node(1, 2.3 * e));
        let r = run_job(&mut c, mk_job(splits, ft)).unwrap();
        assert!(
            r.counters.get(keys::SPECULATIVE_LAUNCHED) >= 1.0,
            "budget of 1 must not block speculation: {:?}",
            r.counters
        );
        // The twins were never booked as retries.
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 0.0);
        assert_eq!(r.counters.get(keys::MAP_TASKS), 4.0);
        // First-commit-wins: the job ends on the twins, not on the 20x
        // stragglers (which would take ~200s of compute).
        assert!(r.elapsed() < 100.0, "elapsed {}", r.elapsed());
        assert!(r.elapsed() > 2.3 * e, "the kill landed mid-run");
    }

    /// A compute-bound job whose map charges a fixed `secs` so detector
    /// timelines are easy to reason about.
    fn slow_map_job(n_splits: usize, secs: f64, ft: FtConfig) -> Job {
        Job {
            name: "slowmap".into(),
            spill_to_pfs: false,
            output_to_pfs: false,
            splits: mem_splits(n_splits, 100),
            map_fn: Rc::new(move |input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                ctx.charge("scan", secs);
                ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]]));
                Ok(())
            }),
            reduce_fn: Some(Rc::new(|key, values, ctx| {
                ctx.emit(key, Payload::Bytes(vec![values.len() as u8]));
                Ok(())
            })),
            n_reducers: 1,
            output_dir: "out".into(),
            ft,
            stream: StreamConfig::default(),
            shuffle: None,
        }
    }

    #[test]
    fn hung_node_is_declared_dead_and_job_degrades() {
        let mut c = small_cluster(3, 1);
        c.sim.faults.install(FaultPlan::none().hang_node(2, 0.5));
        let ft = FtConfig {
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 2,
            dead_after_misses: 3,
            hang_deadline_min_s: 60.0,
            ..FtConfig::default()
        };
        let r = run_job(&mut c, slow_map_job(6, 2.0, ft)).unwrap();
        // All tasks complete on the two surviving nodes.
        assert_eq!(r.counters.get(keys::MAP_TASKS), 6.0);
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 1.0);
        assert!(r.counters.get(keys::HEARTBEATS_MISSED) >= 3.0);
        assert_eq!(r.counters.get(keys::NODES_SUSPECTED), 1.0);
        // A hang never heals: no reinstatement, and the detector path must
        // not blacklist the node (the fault, not the node, is to blame).
        assert_eq!(r.counters.get(keys::NODES_REINSTATED), 0.0);
        assert_eq!(r.counters.get(keys::NODE_BLACKLISTED), 0.0);
        assert!(r.counters.get(keys::TASK_RETRIES) >= 1.0);
        let summary = r.fault_summary().expect("degraded run has a summary");
        assert!(summary.contains("suspected"), "summary: {summary}");
    }

    #[test]
    fn healed_partition_reinstates_instead_of_blacklisting() {
        let mut c = small_cluster(3, 1);
        c.sim
            .faults
            .install(FaultPlan::none().partition(&[2], 0.5, 10.0));
        let ft = FtConfig {
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 2,
            hang_deadline_min_s: 60.0,
            ..FtConfig::default()
        };
        // 9 maps x 3s on effectively 2 nodes: the job outlives the heal at
        // t = 10, so the tick after it sees node 2's heartbeats resume.
        let r = run_job(&mut c, slow_map_job(9, 3.0, ft)).unwrap();
        assert_eq!(r.counters.get(keys::MAP_TASKS), 9.0);
        assert_eq!(r.counters.get(keys::PARTITIONS_OBSERVED), 1.0);
        assert!(r.counters.get(keys::NODES_SUSPECTED) >= 1.0);
        assert!(
            r.counters.get(keys::NODES_REINSTATED) >= 1.0,
            "healed partition must reinstate: {:?}",
            r.counters
        );
        assert_eq!(
            r.counters.get(keys::NODE_BLACKLISTED),
            0.0,
            "a healed partition must not leave the node blacklisted"
        );
    }

    #[test]
    fn quorum_floor_breached_fails_typed() {
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().hang_node(1, 0.2));
        let ft = FtConfig {
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 2,
            min_live_slots: 2,
            ..FtConfig::default()
        };
        let err = run_job(&mut c, slow_map_job(4, 2.0, ft)).unwrap_err();
        match err {
            MrError::QuorumLost { live_slots, floor } => {
                assert_eq!(live_slots, 1);
                assert_eq!(floor, 2);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
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
    }
}
