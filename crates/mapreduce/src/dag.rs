//! The plan driver: every job runs here as a plan of stages, a multi-stage
//! DAG with shuffle-aware, overlapping stages and lineage recovery, and a
//! classic [`Job`] as one or two of them.
//!
//! A [`crate::dataset::Dataset`] plan is cut into stages at shuffle
//! boundaries: narrow operators (`map`, `filter`) fuse into their upstream
//! stage's task function, each wide operator starts a new stage whose tasks
//! group the shuffled pairs by key. A classic job is a source stage of its
//! maps and, with a reduce function, a post-shuffle stage of its reducers
//! (`Plan::of_job`). Each stage holds the [`Job`] its runs subset — task
//! function, name, output directory, policy and, for a source stage, the
//! splits — and its sink: the shuffle its tasks hash-partition their
//! emitted pairs into and register in the plan's `ShuffleStore` per
//! `(shuffle, map partition)` at task commit. Every run of a stage is a
//! map-only engine job over some of its partitions, inheriting the
//! attempt/retry/speculation machinery unchanged, and reads all of that
//! from its stage. The final stage's tasks commit their records as part
//! files instead, through the commit protocol: the driver writes nothing
//! itself.
//!
//! What tells a job's stages from a DAG's are two properties of the stage,
//! not branches of its caller: what its tasks are counted as, and its part
//! files' prefix. Both only name counters and files; every plan recovers
//! lost outputs and prices each run's hang deadlines on its own durations.
//!
//! One cell per plan: the plan's `Pool` keeps, beside its node table,
//! attempt numbering, its runs and the list of live ones, the driver's state
//! — the plan, its shuffle store, the stage-run records, the books and the
//! completion callback — all by value. The driver's functions take the pool
//! and name a run by its stage-run index: `run_stage` keeps and lists one, a
//! run that ends calls `run_ended`, and a kill calls `node_lost`.
//!
//! Stage overlap: every stage is submitted when the plan is, all on its
//! one `Pool`. A free slot is offered to the runs upstream first, so the
//! tasks of a post-shuffle stage take only slots no upstream task wants;
//! there they start up, pull their partition of each upstream output as it
//! is registered, and run once every source
//! shuffle has *closed* and their last pull has landed (`job/pull.rs`, the
//! pull loop every pulling task runs — a classic job's reducers too). The
//! barrier between two stages costs what is left of the pulls, not a task
//! start-up.
//!
//! Lineage recovery (every plan, a classic job's as a DAG's): an output is
//! lost only when its node is withdrawn — killed, or declared dead by the
//! failure detector. That invalidates every shuffle output the node held on
//! its local disk, while a committed part file is on HDFS and a spill to the
//! PFS outlives the node, and both stay. The driver then resubmits, as one
//! sparse run per stage, exactly the lost partitions that are still needed
//! by an incomplete descendant — a lost partition re-runs only its upstream
//! chain, at partition granularity, never the whole plan — while the tasks
//! that were waiting for them keep waiting, and keep what they had pulled.
//! A holder a puller cannot reach is not lost: the pull waits for the link
//! or for the holder's withdrawal (`job/pull.rs`). No run fails on lost
//! input, so a run that fails ends the plan.
//! Counters: `stages_run` (stage runs submitted), `lineage_recomputes`
//! (tasks re-executed for a previously-committed partition),
//! `shuffle_partitions_lost` (outputs dropped by node withdrawals).
//!
//! A `Dataset` consumed by two downstream operators is compiled (and
//! executed) once per consumer — plans are trees, not general graphs.

use std::collections::BTreeSet;
use std::rc::Rc;

use simnet::{NodeId, Sim};

use crate::cluster::{Cluster, MrEnv};
use crate::counters::{keys, Counters};
use crate::dataset::{Dataset, GroupFn, PairFilterFn, PairMapFn, PlanNode, RecordReadFn};
use crate::input::TaskInput;
use crate::job::{
    end_run, group_by_key, schedule, Driver, FtConfig, Job, MapFn, MrError, Payload, Pool,
    ReduceFn, SharedPool, ShuffleStore, StreamConfig, TaskCtx, TaskKind, TaskReport,
};

// ---------------------------------------------------------------------------
// Plans and stage cutting
// ---------------------------------------------------------------------------

enum NarrowOp {
    Map(PairMapFn),
    Filter(PairFilterFn),
}

/// One stage of a plan: what every run of it reads — task function, policy,
/// splits, sources and sink.
pub(crate) struct Stage {
    /// The job every run of the stage subsets: its task function, name,
    /// output directory (only the final stage writes there), policy and —
    /// a source stage — one split per partition.
    pub(crate) job: Job,
    /// What its tasks are reported and counted as: `Reduce` for a classic
    /// job's reducers, `Map` for every other stage.
    pub(crate) kind: TaskKind,
    /// The `(shuffle id, parent tag)` sources its tasks pull, one task per
    /// shuffle partition, in the order their pairs reach the task; none for
    /// a source stage, whose tasks fetch the job's splits.
    pub(crate) sources: Vec<(u64, u8)>,
    n_tasks: usize,
    /// Shuffle this stage's tasks register into (the final stage registers
    /// its part files under a dedicated id). The tasks hash-partition their
    /// emitted pairs by `stable_hash(key) % out_partitions` and register
    /// them at commit.
    pub(crate) out_shuffle: u64,
    /// Width of that shuffle; `None` for the final stage, whose tasks
    /// commit part files instead, and register those.
    pub(crate) out_partitions: Option<usize>,
    /// What the final stage's part files are named: this, then the stage
    /// partition — `part-` in a DAG, `part-m-` / `part-r-` in a classic job.
    pub(crate) part_prefix: &'static str,
    op: &'static str,
    /// The stages downstream of this one: its consumer, that stage's
    /// consumer, ... the final stage (filled in once the plan is cut).
    pub(crate) downstream: BTreeSet<usize>,
}

impl Stage {
    /// Its tasks pull their input from a shuffle.
    pub(crate) fn pulls(&self) -> bool {
        !self.sources.is_empty()
    }
}

/// What the plan driver runs: its stages in topological order, the final
/// one last.
pub(crate) struct Plan {
    name: String,
    pub(crate) stages: Vec<Stage>,
}

impl Plan {
    /// A classic job's plan: its maps, a source stage writing the job's own
    /// shuffle (or, map-only, `part-m-` files), and — with a reduce function
    /// — its reducers, a post-shuffle stage writing `part-r-` files whose
    /// task function groups the pulled pairs by key and runs `reduce_fn` on
    /// each group.
    pub(crate) fn of_job(job: Job) -> Plan {
        let reduce = job
            .reduce_fn
            .clone()
            .map(|f| (reduce_task(f), job.n_reducers));
        let maps = Stage {
            kind: TaskKind::Map,
            sources: Vec::new(),
            n_tasks: job.splits.len(),
            out_shuffle: 0,
            out_partitions: reduce.as_ref().map(|(_, n)| *n),
            part_prefix: "part-m-",
            op: "map",
            downstream: reduce.iter().map(|_| 1).collect(),
            job: Job {
                reduce_fn: None,
                ..job.clone()
            },
        };
        let mut stages = vec![maps];
        if let Some((map_fn, n_reducers)) = reduce {
            stages.push(Stage {
                kind: TaskKind::Reduce,
                sources: vec![(0, 0)],
                n_tasks: n_reducers,
                out_shuffle: 1,
                out_partitions: None,
                part_prefix: "part-r-",
                op: "reduce",
                downstream: BTreeSet::new(),
                job: Job {
                    splits: Vec::new(),
                    map_fn,
                    reduce_fn: None,
                    ..job.clone()
                },
            });
        }
        Plan {
            name: job.name,
            stages,
        }
    }

    /// A DAG's plan: its dataset cut into stages, each of whose runs
    /// inherits the DAG's policy. Fails typed on a zero-width shuffle.
    pub(crate) fn of_dag(dag: &DagJob) -> Result<Plan, MrError> {
        let mut b = PlanBuild {
            dag,
            stages: Vec::new(),
            next_shuffle: 0,
        };
        let result_shuffle = b.alloc_shuffle();
        build_stage(&mut b, &dag.plan, result_shuffle, None);
        let mut stages = b.stages;
        // A plan is a tree: each stage has one consumer, so what is
        // downstream of a stage is its consumer plus what is downstream of
        // that — known already, consumers having the higher index.
        for idx in (0..stages.len()).rev() {
            let Some(stage) = stages.get(idx) else {
                continue;
            };
            let parents: Vec<u64> = stage.sources.iter().map(|&(sid, _)| sid).collect();
            let mut below = stage.downstream.clone();
            below.insert(idx);
            let fed = |p: &&mut Stage| parents.contains(&p.out_shuffle);
            for parent in stages.iter_mut().filter(fed) {
                parent.downstream = below.clone();
            }
        }
        if stages.iter().any(|s| s.out_partitions == Some(0)) {
            return Err(MrError::msg(format!(
                "dag {}: a shuffle needs at least one partition",
                dag.name
            )));
        }
        Ok(Plan {
            name: dag.name.clone(),
            stages,
        })
    }

    /// The policy of the plan's failure detector: its final stage's.
    pub(crate) fn ft(&self) -> FtConfig {
        let last = self.stages.last();
        last.map(|s| s.job.ft.clone()).unwrap_or_default()
    }

    /// A store of the plan's shuffles: one per stage, one output per task.
    pub(crate) fn shuffle_store(&self) -> ShuffleStore {
        ShuffleStore::new(self.stages.iter().map(|s| (s.out_shuffle, s.n_tasks)))
    }
}

fn apply_narrow(
    ops: &[NarrowOp],
    mut records: Vec<(String, Payload)>,
    ctx: &mut TaskCtx,
) -> Result<Vec<(String, Payload)>, MrError> {
    for op in ops {
        match op {
            NarrowOp::Map(f) => {
                let mut next = Vec::with_capacity(records.len());
                for (k, v) in records {
                    next.extend(f(&k, v, ctx)?);
                }
                records = next;
            }
            NarrowOp::Filter(pred) => records.retain(|(k, v)| pred(k, v)),
        }
    }
    Ok(records)
}

/// Task function of a leaf stage: decode the split, apply the fused narrow
/// chain, emit.
fn compile_source(read: RecordReadFn, narrow: Vec<NarrowOp>) -> MapFn {
    Rc::new(move |input, ctx| {
        let records = read(input, ctx)?;
        for (k, v) in apply_narrow(&narrow, records, ctx)? {
            ctx.emit(k, v);
        }
        Ok(())
    })
}

/// Task function of a post-shuffle stage: group the delivered pairs by key
/// (BTreeMap — deterministic key order), run the wide operator per key,
/// apply the fused narrow chain, emit. The merge was priced as the pairs
/// landed, in the pull loop (`job/pull.rs`).
fn compile_grouped(group: GroupFn, narrow: Vec<NarrowOp>) -> MapFn {
    Rc::new(move |input, ctx| {
        let TaskInput::Pairs(pairs) = input else {
            return Err(MrError::msg("shuffle stage expects pair input"));
        };
        // A classic reducer's grouping, values keeping their tags.
        let tagged = pairs.into_iter().map(|(tag, k, v)| (k, (tag, v)));
        let mut records = Vec::new();
        for (key, tagged) in group_by_key(tagged) {
            records.extend(group(&key, tagged, ctx)?);
        }
        for (k, v) in apply_narrow(&narrow, records, ctx)? {
            ctx.emit(k, v);
        }
        Ok(())
    })
}

/// The task function of a classic job's reducers: group the pulled pairs by
/// key (BTreeMap — deterministic key order, values in (producing partition,
/// emit) order) and run `reduce_fn` on each group. Its merge was priced as
/// the pairs landed (`job/pull.rs`).
fn reduce_task(reduce_fn: ReduceFn) -> MapFn {
    Rc::new(move |input, ctx| {
        let TaskInput::Pairs(pairs) = input else {
            return Err(MrError::msg("a reduce task expects pair input"));
        };
        for (key, values) in group_by_key(pairs.into_iter().map(|(_, k, v)| (k, v))) {
            reduce_fn(&key, values, ctx)?;
        }
        Ok(())
    })
}

struct PlanBuild<'a> {
    dag: &'a DagJob,
    stages: Vec<Stage>,
    next_shuffle: u64,
}

impl PlanBuild<'_> {
    fn alloc_shuffle(&mut self) -> u64 {
        self.next_shuffle += 1;
        self.next_shuffle
    }
}

/// Compile the stage that produces `ds` into `(out_shuffle, out_partitions)`,
/// recursing into parents first so stage ids are topologically ordered.
fn build_stage(b: &mut PlanBuild, ds: &Dataset, out_shuffle: u64, out_partitions: Option<usize>) {
    // Peel the narrow chain off the plan tail (it fuses into this stage)
    // down to the source or shuffle the stage starts from.
    let mut narrow: Vec<NarrowOp> = Vec::new();
    let mut base = ds;
    let (splits, sources, n_tasks, task_fn, op) = loop {
        match &*base.node {
            PlanNode::Map { parent, f } => {
                narrow.insert(0, NarrowOp::Map(f.clone()));
                base = parent;
            }
            PlanNode::Filter { parent, pred } => {
                narrow.insert(0, NarrowOp::Filter(pred.clone()));
                base = parent;
            }
            PlanNode::Source { splits, read } => {
                let task_fn = compile_source(read.clone(), narrow);
                break (splits.clone(), Vec::new(), splits.len(), task_fn, "source");
            }
            PlanNode::Shuffle {
                parents,
                n_partitions,
                group,
                op,
            } => {
                let mut sources = Vec::with_capacity(parents.len());
                for (tag, parent) in parents.iter().enumerate() {
                    let sid = b.alloc_shuffle();
                    build_stage(b, parent, sid, Some(*n_partitions));
                    sources.push((sid, tag as u8));
                }
                let task_fn = compile_grouped(group.clone(), narrow);
                break (Vec::new(), sources, *n_partitions, task_fn, *op);
            }
        }
    };
    let dag = b.dag;
    let job = Job {
        name: dag.name.clone(),
        splits,
        map_fn: task_fn,
        reduce_fn: None,
        n_reducers: 0,
        output_dir: dag.output_dir.clone(),
        spill_to_pfs: false,
        output_to_pfs: false,
        ft: dag.ft.clone(),
        stream: dag.stream.clone(),
    };
    b.stages.push(Stage {
        job,
        kind: TaskKind::Map,
        sources,
        n_tasks,
        out_shuffle,
        out_partitions,
        part_prefix: "part-",
        op,
        downstream: BTreeSet::new(),
    });
}

// ---------------------------------------------------------------------------
// The plan driver
// ---------------------------------------------------------------------------

/// A DAG job: a dataset plan plus the execution policy every stage job
/// inherits. The final stage's tasks commit their records as
/// `part-<partition>` files under `output_dir`, exactly like the tasks of a
/// classic job.
#[derive(Clone)]
pub struct DagJob {
    pub name: String,
    pub plan: Dataset,
    pub output_dir: String,
    pub ft: FtConfig,
    pub stream: StreamConfig,
}

impl DagJob {
    pub fn new(name: impl Into<String>, plan: Dataset, output_dir: impl Into<String>) -> DagJob {
        DagJob {
            name: name.into(),
            plan,
            output_dir: output_dir.into(),
            ft: FtConfig::default(),
            stream: StreamConfig::default(),
        }
    }
}

/// One stage-job submission (initial run or lineage recompute). The runs of
/// a DAG overlap: every stage's first run starts with the DAG.
#[derive(Clone, Debug)]
pub struct StageRun {
    pub stage: usize,
    /// Wide-operator name ("source" for leaf stages).
    pub op: &'static str,
    /// When the run was submitted: from then on its tasks are live and take
    /// what slots the stages upstream leave them.
    pub start_s: f64,
    /// When the run ended: its last task committed — for a run over every
    /// partition of its stage, the instant the stage's output shuffle
    /// closed — or it failed, or the DAG ended without it.
    pub end_s: f64,
    /// Partitions this submission covered.
    pub n_tasks: usize,
    /// How many of them re-ran a previously-committed partition.
    pub recomputed: usize,
    /// Whether the stage job succeeded. A run that fails ends the DAG; in
    /// a DAG that ends `Ok`, a run not `ok` was called off at its end — a
    /// recompute nothing needed any more.
    pub ok: bool,
    /// The run's committed task reports, `index` being the stage partition —
    /// of a failed run, the tasks it had committed before it failed.
    pub tasks: Vec<TaskReport>,
}

/// Completed DAG summary.
#[derive(Clone, Debug)]
pub struct DagResult {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Merged counters of every committed stage task plus the DAG-level
    /// `stages_run` / `lineage_recomputes` / `shuffle_partitions_lost`.
    pub counters: Counters,
    /// Every stage-job submission, in submission order.
    pub runs: Vec<StageRun>,
    pub n_stages: usize,
    /// Tasks in one clean end-to-end pass (Σ stage partition counts).
    pub total_tasks: usize,
}

impl DagResult {
    pub fn elapsed(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Tasks actually executed across all submissions.
    pub fn tasks_executed(&self) -> usize {
        self.runs.iter().map(|r| r.n_tasks).sum()
    }
}

/// How a plan ends: its result — of a failed plan, what the runs that ended
/// before it had committed — and the error that ended it, if one did.
pub(crate) type PlanDone = Box<dyn FnOnce(&mut Sim, DagResult, Option<MrError>)>;

/// The plan driver's questions of a plan's pool.
impl Pool {
    fn missing_of(&self, stage: &Stage) -> Vec<usize> {
        (0..stage.n_tasks)
            .filter(|&p| !self.store.has(stage.out_shuffle, p))
            .collect()
    }

    /// How many of stage `idx`'s `partitions` have been registered before:
    /// running them again is a lineage recompute.
    fn recomputes_among(&self, idx: usize, partitions: &[usize]) -> usize {
        let (store, stage) = (&self.store, self.plan.stages.get(idx));
        let once = |p: &&usize| stage.is_some_and(|s| store.registered_once(s.out_shuffle, **p));
        partitions.iter().filter(once).count()
    }

    /// The first (topologically) stage with partitions that are missing,
    /// still *needed* and in no live run's hands, and those partitions. The
    /// final stage is always needed; a parent only while some needed
    /// descendant is incomplete (a complete descendant never pulls again, so
    /// its parents' lost outputs can stay lost).
    fn next_submission(&self) -> Option<(usize, Vec<usize>)> {
        let stages = &self.plan.stages;
        let mut needed = BTreeSet::from([stages.len().saturating_sub(1)]);
        for (idx, stage) in stages.iter().enumerate().rev() {
            if !needed.contains(&idx) || self.missing_of(stage).is_empty() {
                continue;
            }
            let upstream = |&(sid, _): &(u64, u8)| stages.iter().position(|s| s.out_shuffle == sid);
            needed.extend(stage.sources.iter().filter_map(upstream));
        }
        let uncovered = |(idx, stage): (usize, &Stage)| {
            let live = self.live_of(idx).filter_map(|run| self.runs.get(run));
            let covered: BTreeSet<usize> = live.flat_map(Driver::uncommitted).collect();
            let mut missing = self.missing_of(stage);
            missing.retain(|p| !covered.contains(p));
            (idx, missing)
        };
        let needed_stages = stages.iter().enumerate();
        needed_stages
            .filter(|(idx, _)| needed.contains(idx))
            .map(uncovered)
            .find(|(_, missing)| !missing.is_empty())
    }

    /// The live runs of stage `idx`, oldest first.
    fn live_of(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let of_stage = move |run: &usize| self.runs.get(*run).map(Driver::stage) == Some(idx);
        self.live.iter().copied().filter(of_stage)
    }

    /// The final stage — the last — has committed every part file.
    fn complete(&self) -> bool {
        let last = self.plan.stages.last();
        last.is_some_and(|s| self.missing_of(s).is_empty())
    }
}

/// Submit `plan`; `done` fires with its result once the final stage has
/// committed every part file, or with the first error it cannot recover
/// from. Returns the pool that keeps the plan.
pub(crate) fn submit_plan(sim: &mut Sim, env: MrEnv, plan: Plan, done: PlanDone) -> SharedPool {
    let pool = Pool::open(sim, env, plan, done);
    advance(sim, &pool);
    pool
}

/// Submit a DAG; `done` fires with the result once the final stage has
/// committed every part file (or with the first unrecoverable error).
pub fn submit_dag(
    sim: &mut Sim,
    env: MrEnv,
    dag: DagJob,
    done: impl FnOnce(&mut Sim, Result<DagResult, MrError>) + 'static,
) {
    let plan = match Plan::of_dag(&dag) {
        Ok(plan) => plan,
        Err(e) => return sim.after(0.0, move |sim| done(sim, Err(e))),
    };
    let project = move |sim: &mut Sim, r: DagResult, failed: Option<MrError>| {
        if let Some(e) = failed {
            return done(sim, Err(e));
        }
        // Seconds hidden are a sum of differences of clock readings, and the
        // clock may have been running for any length of time (a warm rerun
        // on the same cluster): they repeat to about an ulp of *it*.
        // Reported to the nanosecond they repeat exactly, like every count.
        let mut counters = Counters::new();
        for (key, v) in r.counters.iter() {
            let hidden =
                [keys::SHUFFLE_OVERLAP_SAVED_S, keys::WRITE_OVERLAP_SAVED_S].contains(&key);
            counters.add(key, if hidden { (v * 1e9).round() / 1e9 } else { v });
        }
        counters.add(keys::STAGES_RUN, r.runs.len() as f64);
        done(sim, Ok(DagResult { counters, ..r }))
    };
    submit_plan(sim, env, plan, Box::new(project));
}

/// Convenience: submit, run the world to completion, return the result.
pub fn run_dag(cluster: &mut Cluster, dag: DagJob) -> Result<DagResult, MrError> {
    cluster.run_to_completion("dag", |cluster, done| {
        let env = cluster.env();
        submit_dag(&mut cluster.sim, env, dag, done)
    })
}

enum Step {
    Submit {
        idx: usize,
        missing: Vec<usize>,
        recomputed: usize,
    },
    /// Everything needed is done or in a live run's hands.
    Wait,
    End(Option<MrError>),
}

/// Submit whatever is missing, needed and in no live run's hands — at the
/// plan's own submission that is every stage — and end the plan once its
/// final stage is complete. Called again whenever a run ends or outputs are
/// lost.
fn advance(sim: &mut Sim, pool: &SharedPool) {
    loop {
        let step = {
            let mut p = pool.borrow_mut();
            if p.done.is_none() {
                return;
            }
            let max_submissions = p.plan.stages.len() * 8 + 8;
            match p.next_submission() {
                _ if p.complete() => Step::End(None),
                Some(_) if p.records.len() >= max_submissions => {
                    Step::End(Some(MrError::msg(format!(
                        "dag {}: gave up after {max_submissions} stage submissions \
                         (lineage not converging)",
                        p.plan.name
                    ))))
                }
                Some((idx, missing)) => {
                    let recomputed = p.recomputes_among(idx, &missing);
                    if recomputed > 0 {
                        p.counters.add(keys::LINEAGE_RECOMPUTES, recomputed as f64);
                    }
                    Step::Submit {
                        idx,
                        missing,
                        recomputed,
                    }
                }
                None => Step::Wait,
            }
        };
        match step {
            Step::Submit {
                idx,
                missing,
                recomputed,
            } => run_stage(sim, pool, idx, missing, recomputed),
            Step::Wait => return,
            Step::End(failed) => return end_plan(sim, pool, failed),
        }
    }
}

/// Submit stage `idx` as one run over its `missing` partitions: keep it on
/// the pool, list it among the live runs and offer it the slots. The plan
/// driver submits only partitions it misses, so a run has at least one task.
fn run_stage(sim: &mut Sim, pool: &SharedPool, idx: usize, missing: Vec<usize>, recomputed: usize) {
    {
        let mut p = pool.borrow_mut();
        let Some(stage) = p.plan.stages.get(idx) else {
            return;
        };
        // Filled in (end, outcome, reports) when the run ends.
        let record = StageRun {
            stage: idx,
            op: stage.op,
            start_s: sim.now().secs(),
            end_s: f64::NAN,
            n_tasks: missing.len(),
            recomputed,
            ok: false,
            tasks: Vec::new(),
        };
        let d = Driver::new(sim, &p.env, idx, stage, missing);
        p.records.push(record);
        p.enlist(d);
    }
    schedule(sim, pool);
}

/// Run `run` of `pool` has ended, on `failed` if it is an error: record it
/// with its committed task reports, fold its counters into the books, and
/// end the plan on the error or advance it. A run called off at the plan's
/// end is no longer listed, and is not folded into the books.
pub(crate) fn run_ended(sim: &mut Sim, pool: &SharedPool, run: usize, failed: Option<MrError>) {
    {
        let mut p = pool.borrow_mut();
        let Some(at) = p.live.iter().position(|&r| r == run) else {
            return;
        };
        p.live.remove(at);
        let Pool {
            runs,
            records,
            counters,
            ..
        } = &mut *p;
        let (reports, run_counters) = runs.get_mut(run).map(Driver::take_results).unzip();
        // What a failed run had committed counts like any other run's: the
        // failed plan's result reports it.
        counters.merge(&run_counters.unwrap_or_default());
        let now = sim.now().secs();
        if let Some(record) = records.get_mut(run) {
            let tasks = reports.unwrap_or_default();
            (record.end_s, record.ok, record.tasks) = (now, failed.is_none(), tasks);
        }
    }
    match failed {
        Some(e) => end_plan(sim, pool, Some(e)),
        None => advance(sim, pool),
    }
}

/// A withdrawal — a kill, or the detector declaring the node dead — took
/// the shuffle outputs `node` held on its local disk with it: what is still
/// needed of them is resubmitted before the slots the node's attempts leave
/// behind are handed out. A stage that spills to the PFS keeps its outputs:
/// they outlive the node.
pub(crate) fn node_lost(sim: &mut Sim, pool: &SharedPool, node: NodeId) {
    {
        let mut p = pool.borrow_mut();
        let Pool { plan, store, .. } = &mut *p;
        let on_disk = plan.stages.iter().filter(|s| !s.job.spill_to_pfs);
        store.invalidate_node(node, on_disk.map(|s| s.out_shuffle));
    }
    advance(sim, pool);
}

/// End the plan, on `failed` if it is an error: call off the runs still live
/// — a recompute nothing needs any more, or everything after a failure —
/// close the books and hand the result over.
fn end_plan(sim: &mut Sim, pool: &SharedPool, failed: Option<MrError>) {
    let now = sim.now().secs();
    let (done, live) = {
        let mut p = pool.borrow_mut();
        let Some(done) = p.done.take() else {
            return;
        };
        let unfinished = p.records.iter_mut().filter(|r| r.end_s.is_nan());
        unfinished.for_each(|r| r.end_s = now);
        (done, std::mem::take(&mut p.live))
    };
    for run in live {
        end_run(sim, pool, run, Some(MrError::msg("the plan ended")));
    }
    let result = {
        let mut p = pool.borrow_mut();
        let p = &mut *p;
        // The cluster-cache evictions during the plan (registry stats are
        // world-lifetime monotonic) and the outputs lost.
        let cache = &p.env.cluster_cache;
        let evicted = cache.stats().evictions.saturating_sub(p.evictions_start);
        if cache.enabled() && evicted > 0 {
            p.counters
                .add(keys::CLUSTER_CACHE_EVICTIONS, evicted as f64);
        }
        if p.store.lost > 0 {
            p.counters
                .add(keys::SHUFFLE_PARTITIONS_LOST, p.store.lost as f64);
        }
        let stages = &p.plan.stages;
        let (n_stages, total_tasks) = (stages.len(), stages.iter().map(|s| s.n_tasks).sum());
        DagResult {
            name: std::mem::take(&mut p.plan.name),
            start_s: p.start_s,
            end_s: now,
            counters: std::mem::take(&mut p.counters),
            runs: std::mem::take(&mut p.records),
            n_stages,
            total_tasks,
        }
    };
    done(sim, result, failed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::run_job;
    use crate::job::tests::{mem_splits, slow_map_job, small_cluster};
    use simnet::FaultPlan;
    use std::collections::BTreeMap;

    /// Decode a split's bytes into per-byte-value count records (the DAG
    /// analogue of the classic word-count map function).
    pub(crate) fn count_reader() -> RecordReadFn {
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", ctx.cost().scan_per_byte * b.len() as f64);
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            for &x in &b {
                *counts.entry(x).or_default() += 1;
            }
            Ok(counts
                .into_iter()
                .map(|(k, v)| (format!("w{k}"), Payload::Bytes(v.to_string().into_bytes())))
                .collect())
        })
    }

    pub(crate) fn sum_agg() -> crate::dataset::AggFn {
        Rc::new(|_key, values, _ctx| {
            let mut total: u64 = 0;
            for v in values {
                let Payload::Bytes(b) = v else {
                    return Err(MrError::msg("expected byte value"));
                };
                total += String::from_utf8_lossy(&b)
                    .parse::<u64>()
                    .map_err(|e| MrError::msg(format!("bad count: {e}")))?;
            }
            Ok(Payload::Bytes(total.to_string().into_bytes()))
        })
    }

    /// Every committed file under `dir`, in path order, as one string.
    fn output_text(c: &Cluster, dir: &str) -> String {
        let files = c.read_output(dir).unwrap();
        files
            .iter()
            .map(|(_, data)| String::from_utf8_lossy(data))
            .collect()
    }

    #[test]
    fn two_stage_wordcount_matches_expected() {
        let mut c = small_cluster(2, 2);
        let plan =
            Dataset::from_splits(mem_splits(4, 100), count_reader()).reduce_by_key(2, sum_agg());
        let r = run_dag(&mut c, DagJob::new("wc", plan, "out")).unwrap();
        assert_eq!(r.n_stages, 2);
        assert_eq!(r.counters.get(keys::STAGES_RUN), 2.0);
        assert_eq!(r.counters.get(keys::LINEAGE_RECOMPUTES), 0.0);
        assert_eq!(r.total_tasks, 6); // 4 source + 2 reduce partitions
        assert_eq!(r.tasks_executed(), 6);
        // Each split is 100 copies of one byte value.
        let text = output_text(&c, "out");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["w0\t100", "w1\t100", "w2\t100", "w3\t100"]);
    }

    #[test]
    fn zero_width_shuffle_fails_typed_before_any_task_runs() {
        let mut c = small_cluster(2, 2);
        let ran = Rc::new(std::cell::Cell::new(false));
        let ran2 = ran.clone();
        let source = Dataset::from_splits(
            mem_splits(2, 10),
            Rc::new(move |_, _| {
                ran2.set(true);
                Ok(Vec::new())
            }),
        );
        // Wherever the zero sits: first shuffle, last shuffle, a join.
        let plans = [
            source.reduce_by_key(0, sum_agg()),
            source
                .reduce_by_key(2, sum_agg())
                .reduce_by_key(0, sum_agg()),
            source
                .reduce_by_key(0, sum_agg())
                .reduce_by_key(2, sum_agg()),
            source.join(&source, 0),
        ];
        for plan in plans {
            let err = run_dag(&mut c, DagJob::new("w0", plan, "out")).unwrap_err();
            assert!(
                matches!(&err, MrError::Msg(m) if m.contains("at least one partition")),
                "{err:?}"
            );
        }
        assert!(!ran.get(), "no task may run");
    }

    #[test]
    fn narrow_ops_fuse_without_extra_stages() {
        let mut c = small_cluster(2, 2);
        let plan = Dataset::from_splits(mem_splits(3, 60), count_reader())
            .filter(Rc::new(|k, _| k != "w1"))
            .map(Rc::new(|k, v, _ctx| Ok(vec![(format!("x{k}"), v)])))
            .reduce_by_key(2, sum_agg())
            .map(Rc::new(|k, v, _ctx| Ok(vec![(k.to_string(), v)])));
        let r = run_dag(&mut c, DagJob::new("fuse", plan, "out")).unwrap();
        // map/filter fold into the stages around them: still 2 stages.
        assert_eq!(r.n_stages, 2);
        assert_eq!(r.counters.get(keys::STAGES_RUN), 2.0);
        let text = output_text(&c, "out");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["xw0\t60", "xw2\t60"]);
    }

    #[test]
    fn join_pairs_left_and_right() {
        let mut c = small_cluster(2, 2);
        let pairs_src = |items: Vec<(&str, &str)>| {
            let records: Vec<(String, Payload)> = items
                .iter()
                .map(|(k, v)| (k.to_string(), Payload::Bytes(v.as_bytes().to_vec())))
                .collect();
            Dataset::from_splits(
                mem_splits(1, 8),
                Rc::new(move |_input, _ctx| Ok(records.clone())),
            )
        };
        let left = pairs_src(vec![("a", "l1"), ("a", "l2"), ("b", "lb")]);
        let right = pairs_src(vec![("a", "r1"), ("c", "rc")]);
        let joined = left.join(&right, 2).map(Rc::new(|k, v, _ctx| {
            let Payload::Bytes(b) = v else {
                return Err(MrError::msg("expected bytes"));
            };
            let (l, r) = crate::dataset::decode_join(&b)?;
            Ok(vec![(
                format!(
                    "{k}:{}+{}",
                    String::from_utf8_lossy(&l),
                    String::from_utf8_lossy(&r)
                ),
                Payload::Bytes(Vec::new()),
            )])
        }));
        let r = run_dag(&mut c, DagJob::new("join", joined, "out")).unwrap();
        // Two source stages + the join stage.
        assert_eq!(r.n_stages, 3);
        let text = output_text(&c, "out");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        // Only key "a" appears on both sides: 2 lefts x 1 right.
        assert_eq!(lines.len(), 2);
        assert!(text.contains("a:l1+r1"));
        assert!(text.contains("a:l2+r1"));
        assert!(!text.contains("b:"));
        assert!(!text.contains("c:"));
    }

    /// Three stages — a source, a 4-wide and a 2-wide sum — of the
    /// word-count records of 4 splits.
    pub(crate) fn lineage_plan() -> Dataset {
        Dataset::from_splits(mem_splits(4, 100), count_reader())
            .reduce_by_key(4, sum_agg())
            .map(Rc::new(|k, v, _ctx| Ok(vec![(k.to_string(), v)])))
            .reduce_by_key(2, sum_agg())
    }

    #[test]
    fn node_kill_triggers_partition_granular_lineage_recovery() {
        // Clean run first to learn when stage 1 ends.
        let plan_of = lineage_plan;
        let mut clean = small_cluster(4, 1);
        let rc = run_dag(&mut clean, DagJob::new("lin", plan_of(), "out")).unwrap();
        assert_eq!(rc.n_stages, 3);
        let clean_text = output_text(&clean, "out");
        let s1_end = rc
            .runs
            .iter()
            .find(|r| r.stage == 1)
            .map(|r| r.end_s)
            .unwrap();

        // Faulted run: kill a node right as stage 1 closes, after stages 0
        // and 1 committed outputs onto it.
        let mut faulted = small_cluster(4, 1);
        faulted
            .sim
            .faults
            .install(FaultPlan::none().kill_node(1, s1_end + 1e-6));
        let rf = run_dag(&mut faulted, DagJob::new("lin", plan_of(), "out")).unwrap();
        let lost = rf.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
        assert!(lost > 0.0, "the kill must invalidate shuffle outputs");
        // Only once-committed partitions re-ran — exactly the lost ones.
        assert_eq!(rf.counters.get(keys::LINEAGE_RECOMPUTES), lost);
        // Recovery re-runs a strict subset, never the whole DAG again.
        assert!(rf.tasks_executed() < 2 * rf.total_tasks);
        assert_eq!(output_text(&faulted, "out"), clean_text, "byte-identical");
    }

    #[test]
    fn a_kill_drops_only_the_map_outputs_on_local_disk() {
        // Maps of 2 s and one reducer that reduces for 20 s after the close.
        // A map holder off the reducer's node dies while it reduces: its
        // spills on the PFS outlive it, those on its local disk do not.
        let job = |spill_to_pfs| {
            let mut job = slow_map_job(4, 2.0, FtConfig::default());
            job.reduce_fn = Some(Rc::new(|key, values, ctx| {
                ctx.charge("reduce", 5.0);
                ctx.emit(key, Payload::Bytes(vec![values.len() as u8]));
                Ok(())
            }));
            job.spill_to_pfs = spill_to_pfs;
            job
        };
        for spill_to_pfs in [true, false] {
            let mut clean = small_cluster(3, 2);
            let rc = run_job(&mut clean, job(spill_to_pfs)).unwrap();
            let reducer = rc
                .tasks
                .iter()
                .find(|t| t.kind == TaskKind::Reduce)
                .unwrap();
            let maps = || rc.tasks.iter().filter(|t| t.kind == TaskKind::Map);
            let close = maps().map(|t| t.end_s).fold(0.0, f64::max);
            let holder = maps().map(|t| t.node).find(|&n| n != reducer.node).unwrap();
            let mut c = small_cluster(3, 2);
            c.sim
                .faults
                .install(FaultPlan::none().kill_node(holder.0, close + 1.0));
            let r = run_job(&mut c, job(spill_to_pfs)).unwrap();
            assert_eq!(c.read_output("out"), clean.read_output("out"));
            let recomputed = r.counters.get(keys::LINEAGE_RECOMPUTES);
            if spill_to_pfs {
                assert_eq!(recomputed, 0.0, "{:?}", r.counters);
                assert_eq!(r.counters.get(keys::MAP_ATTEMPTS), 4.0);
            } else {
                assert!(recomputed >= 1.0, "{:?}", r.counters);
            }
        }
    }
}
