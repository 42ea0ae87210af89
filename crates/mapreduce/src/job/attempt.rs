//! Attempt lifecycle: the task table of a run, its one way in ([`launch`])
//! and its one way out ([`Pool::retire`], as an [`Exit`]), failure and
//! retry, and first-commit-wins.

use std::collections::{BTreeMap, VecDeque};

use simnet::{NodeId, Sim};

use super::commit::MapOutput;
use super::pool::{preempt_waiting, schedule};
use super::pull::{self, Shuffle};
use super::sched::{self, Pick, Sched};
use super::speculate::Progress;
use super::{detector, end_run, map, Driver, Kv, MrError, Pool, SharedPool};
use super::{TaskKind, TaskReport};
use crate::counters::{keys, Counters};

pub(super) type AttemptId = u64;

/// One in-flight execution of a task on a node.
#[derive(Clone, Debug)]
pub(super) struct AttemptInfo {
    pub task: usize,
    pub node: NodeId,
    pub start_s: f64,
    /// The container start-up the attempt pays before it runs: none in a
    /// warm slot ([`super::nodes`]).
    pub startup_s: f64,
    /// Scheduled on a node holding the split (locality hit).
    pub local: bool,
    /// Scheduled on a node holding the split's chunks in the cluster
    /// chunk-cache tier (dynamic cache locality).
    pub cache_local: bool,
    /// A speculative duplicate of a straggling attempt.
    pub speculative: bool,
    /// When its streamed fetch began, which speculation watches
    /// ([`speculate::watch_fetch`]); `None` for a batch fetch, whose progress
    /// shows only when it ends, and for a stream that ended having moved no
    /// bytes.
    pub stream_from: Option<f64>,
    /// What its progress shows once its compute is scheduled; `None` while
    /// it starts up, fetches or pulls.
    pub progress: Option<Progress>,
    /// How often a hang deadline was armed for this attempt; only the check
    /// queued by the latest arming may declare it hung.
    pub deadline_gen: u32,
    /// A pulling attempt (a reducer, a task of a post-shuffle stage) from
    /// its launch until it has all its input — while it is *waiting*: what
    /// it has pulled so far. It goes with the attempt, however that ends.
    pub shuffle: Option<Shuffle>,
    /// The attempt's ledger: its `(phase, virtual seconds)` so far, from
    /// `startup` on, and its counters. Written through [`Attempt::phase`] and
    /// [`Attempt::count`]; only [`commit_task`] hands it to the run, so an
    /// attempt that never commits takes it along when it leaves the table.
    phases: Vec<(&'static str, f64)>,
    counters: Counters,
}

/// Per-task attempt bookkeeping.
#[derive(Clone, Debug, Default)]
pub(super) struct TaskState {
    /// Non-speculative attempts launched so far. The retry budget
    /// (`max_task_attempts`) counts only these: a speculative twin is a
    /// performance bet, not a failure, and must not eat the task's
    /// fault-recovery headroom.
    regular_started: usize,
    /// The task has committed; later attempt callbacks are orphans.
    pub done: bool,
    /// A speculative twin is in flight or won (at most one at a time per
    /// task): a twin that fails leaves its task twinnable again.
    pub speculated: bool,
}

/// The run's task queue and attempt state, plus the in-flight attempts: an
/// attempt enters only through [`launch`], which takes its slot, and leaves
/// only through [`Pool::retire`], which gives it back. Task and attempt lookups are checked: an unknown index is `None` /
/// a no-op.
pub(super) struct TaskTable {
    pending: VecDeque<usize>,
    states: Vec<TaskState>,
    done: usize,
    attempts: BTreeMap<AttemptId, AttemptInfo>,
}

impl TaskTable {
    /// Every task pending from the start: a pulling run's take a slot a
    /// ready task of another run wants only while due (`sched::DueRule`).
    pub fn new(n_tasks: usize) -> TaskTable {
        TaskTable {
            pending: (0..n_tasks).collect(),
            states: vec![TaskState::default(); n_tasks],
            done: 0,
            attempts: BTreeMap::new(),
        }
    }

    pub fn pending(&self) -> &VecDeque<usize> {
        &self.pending
    }

    /// The run's tasks, in any state.
    pub fn count(&self) -> usize {
        self.states.len()
    }

    pub fn dequeue(&mut self, pos: usize) -> Option<usize> {
        self.pending.remove(pos)
    }

    pub fn state(&self, task: usize) -> Option<&TaskState> {
        self.states.get(task)
    }

    pub fn all_done(&self) -> bool {
        self.done == self.states.len()
    }

    pub fn attempt(&self, id: AttemptId) -> Option<&AttemptInfo> {
        self.attempts.get(&id)
    }

    pub fn attempt_mut(&mut self, id: AttemptId) -> Option<&mut AttemptInfo> {
        self.attempts.get_mut(&id)
    }

    /// Attempts in flight on `node`.
    pub fn on_node(&self, node: NodeId) -> Vec<AttemptId> {
        let on_node = self.attempts.iter().filter(|(_, i)| i.node == node);
        on_node.map(|(&id, _)| id).collect()
    }

    /// The attempts in flight, oldest first.
    pub fn in_flight(&self) -> impl DoubleEndedIterator<Item = (AttemptId, &AttemptInfo)> {
        self.attempts.iter().map(|(&id, i)| (id, i))
    }

    /// Those of them that are still waiting for input.
    pub fn waiting(&self) -> impl DoubleEndedIterator<Item = (AttemptId, &AttemptInfo)> {
        self.in_flight().filter(|(_, i)| i.shuffle.is_some())
    }

    /// Call off the hang deadline of every waiting attempt: the check
    /// queued for it finds a later arming and falls silent.
    pub fn disarm_waiting(&mut self) {
        let waiting = self.attempts.values_mut().filter(|i| i.shuffle.is_some());
        waiting.for_each(|i| i.deadline_gen += 1);
    }
}

/// Handle on one in-flight attempt — what each of its continuations
/// carries: its address in the plan's pool, run and attempt id, and what it
/// runs where.
#[derive(Clone)]
pub(super) struct Attempt {
    pub pool: SharedPool,
    pub run: usize,
    pub id: AttemptId,
    pub task: usize,
    pub node: NodeId,
}

impl Attempt {
    /// Whether the attempt may still affect the run: it is in the task
    /// table. False once it was retired ([`Pool::retire`]) — it failed, was
    /// preempted, lost to a twin, its node was withdrawn or its run ended.
    /// Every continuation of an attempt checks this before touching the
    /// pool, which is what stops in-flight callbacks from mutating counters
    /// or reports after the run ended.
    pub fn live(&self) -> bool {
        self.pool.borrow().attempt(self.run, self.id).is_some()
    }

    /// Live, and on a node the driver can hear from: a completion on a
    /// silent node is dropped — the report never reaches the driver — and
    /// only the failure detector can recover the stranded attempt.
    pub fn can_report(&self, sim: &Sim) -> bool {
        self.live() && !detector::node_silent(sim, self.node)
    }

    /// The start-up the attempt pays (see [`AttemptInfo::startup_s`]); 0 once
    /// it is gone, when it can no longer report.
    pub fn startup_s(&self) -> f64 {
        let p = self.pool.borrow();
        p.attempt(self.run, self.id).map_or(0.0, |i| i.startup_s)
    }

    /// Record `secs` of phase `name` on the attempt's ledger; a no-op once
    /// the attempt is gone.
    pub fn phase(&self, name: &'static str, secs: f64) {
        if let Some(i) = self.pool.borrow_mut().attempt_mut(self.run, self.id) {
            i.phases.push((name, secs));
        }
    }

    /// Add `v` to counter `key` on the attempt's ledger; a no-op once the
    /// attempt is gone.
    pub fn count(&self, key: &'static str, v: f64) {
        if let Some(i) = self.pool.borrow_mut().attempt_mut(self.run, self.id) {
            i.counters.add(key, v);
        }
    }

    /// The attempt failed — fetch error, user code error, hang. Retire it
    /// ([`Exit::Failed`]): its task is retried unless its attempts are spent,
    /// and then the run fails with the attempt's error, unchanged. A lost
    /// input is no failure of the attempt's: the attempt waits for the
    /// output to be registered again ([`super::pull`]).
    pub fn fail(&self, sim: &mut Sim, err: MrError) {
        let Some((_, spent)) = self
            .pool
            .borrow_mut()
            .retire(self.run, self.id, Exit::Failed)
        else {
            return; // retired already: a twin committed, or its node or run is gone
        };
        if spent.is_some() {
            end_run(sim, &self.pool, self.run, Some(err))
        } else {
            schedule(sim, &self.pool)
        }
    }
}

/// Handles on the attempts of `run` still waiting for input, oldest first.
pub(super) fn waiting(pool: &SharedPool, run: usize) -> Vec<Attempt> {
    let p = pool.borrow();
    let handle = |(id, i): (AttemptId, &AttemptInfo)| Attempt {
        pool: pool.clone(),
        run,
        id,
        task: i.task,
        node: i.node,
    };
    let waiting = p.runs.get(run).into_iter().flat_map(|d| d.tasks.waiting());
    waiting.map(handle).collect()
}

/// Launch attempts of `run` until the scheduler has nothing to place. A due
/// task of a run that pulls `run`'s output goes first ([`launch_due`]); a
/// pending task of `run` that has all its input and finds no slot takes the
/// slot of an attempt waiting downstream ([`preempt_waiting`]). [`schedule`]
/// calls this for every live run of the pool.
pub(super) fn try_schedule(sim: &mut Sim, pool: &SharedPool, run: usize) {
    loop {
        if launch_due(sim, pool, run) {
            continue;
        }
        let sched = {
            let p = pool.borrow();
            if !p.runs.get(run).is_some_and(Driver::alive) {
                return;
            }
            let early = p.early(run);
            let Some(view) = p.view(run, early.as_deref()) else {
                return;
            };
            sched::pick_next(&view)
        };
        match sched {
            Sched::Run(pick) => {
                let Some(task) = pool.borrow_mut().dequeue(run, pick.pos) else {
                    return;
                };
                launch(sim, pool, run, pick, task, false);
            }
            blocked => {
                // A task that would itself only wait takes no one's slot.
                let ready_blocked = pool.borrow().ready(run);
                if ready_blocked && preempt_waiting(sim, pool, run, &[]).is_some() {
                    continue;
                }
                if let Sched::Stuck(waiting) = blocked {
                    let e = MrError::msg(format!(
                        "no usable nodes left for {waiting} pending task(s)"
                    ));
                    end_run(sim, pool, run, Some(e));
                }
                return;
            }
        }
    }
}

/// While `run` has ready tasks pending, launch the first *due* task
/// ([`sched::DueRule`]) of a run that pulls `run`'s output, ahead of them;
/// whether one was launched.
fn launch_due(sim: &mut Sim, pool: &SharedPool, run: usize) -> bool {
    {
        let p = pool.borrow();
        let fetches = p
            .run(run)
            .is_some_and(|(d, stage)| d.alive() && !stage.pulls());
        if !fetches || !p.ready(run) {
            return false;
        }
    }
    for (reader, _) in pull::readers(pool, run) {
        let dequeued = {
            let mut p = pool.borrow_mut();
            let pick = {
                let p = &*p;
                let pending = p.runs.get(reader).map(|rd| rd.tasks.pending());
                let due = pending.and_then(|q| q.iter().position(|&t| p.due(sim, reader, t)));
                due.and_then(|pos| {
                    let early = p.early(reader);
                    sched::place_pulling(&p.view(reader, early.as_deref())?, pos)
                })
            };
            pick.and_then(|pick| Some((pick, p.dequeue(reader, pick.pos)?)))
        };
        if let Some((pick, task)) = dequeued {
            launch(sim, pool, reader, pick, task, false);
            return true;
        }
    }
    false
}

/// The one way into the task table: launch an attempt of `task` of `run` —
/// a `speculative` twin, or one its caller has just taken off the queue — in
/// the slot `pick` names. Take that slot, warm or cold (a cold one costs the
/// attempt its start-up), register the attempt, count it, arm its hang
/// deadline and start it running. The attempt-law counters are written here
/// and in [`Pool::retire`] only. A pulling attempt launched while its input
/// is still open is legitimately waiting: its deadline starts when the last
/// source closes ([`detector::arm_readers`]).
pub(super) fn launch(
    sim: &mut Sim,
    pool: &SharedPool,
    run: usize,
    pick: Pick,
    task: usize,
    speculative: bool,
) {
    let node = pick.node;
    let (id, pulls, waits_for_input) = {
        let mut p = pool.borrow_mut();
        let Some(stage) = p.stage_of(run) else { return };
        let (pulls, kind, waits_for_input) = (stage.pulls(), stage.kind, p.waits(run));
        let warm = p.nodes.take_slot(node);
        let id = p.next_attempt();
        let Some(d) = p.runs.get_mut(run) else { return };
        let startup_s = if warm { 0.0 } else { sim.cost.task_startup_s };
        if speculative {
            d.counters.add(keys::SPECULATIVE_LAUNCHED, 1.0);
        }
        let attempts_key = match kind {
            TaskKind::Map => keys::MAP_ATTEMPTS,
            TaskKind::Reduce => keys::REDUCE_ATTEMPTS,
        };
        d.counters.add(attempts_key, 1.0);
        if let Some(st) = d.tasks.states.get_mut(task) {
            if speculative {
                st.speculated = true;
            } else {
                st.regular_started += 1;
            }
        }
        let info = AttemptInfo {
            task,
            node,
            start_s: sim.now().secs(),
            startup_s,
            local: pick.local,
            cache_local: pick.cache_local,
            speculative,
            stream_from: None,
            progress: None,
            deadline_gen: 0,
            shuffle: pulls.then(Shuffle::default),
            phases: vec![("startup", startup_s)],
            counters: Counters::new(),
        };
        d.tasks.attempts.insert(id, info);
        (id, pulls, waits_for_input)
    };
    let pool = pool.clone();
    let att = Attempt {
        pool,
        run,
        id,
        task,
        node,
    };
    if !waits_for_input {
        detector::arm_deadline(sim, &att, 0.0);
    }
    if pulls {
        pull::run_pulling_attempt(sim, att)
    } else {
        map::run_map_attempt(sim, att)
    }
}

/// How an attempt leaves the task table ([`Pool::retire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Exit {
    /// It committed first: its task is done and its twins are dropped. Its
    /// slot goes back warm.
    Committed,
    /// It failed, or its node was withdrawn: unless its task is done or a
    /// twin runs on, the task is retried at the back of the queue.
    Failed,
    /// It gave its slot to a blocked task: its task goes back to the head of
    /// the queue with the attempt refunded.
    Preempted,
    /// Nothing is requeued: a twin committed, or its run ended.
    Dropped,
}

impl Pool {
    /// The one way out of the task table: take attempt `id` of `run` out as
    /// `exit` says and give its slot back — warm only after a commit, and not
    /// at all to a withdrawn node, whose slots went with it. Returns the
    /// attempt, and — a failure whose task has spent its attempts, and is
    /// requeued no more — how many it had; `None` for an attempt already
    /// gone.
    pub(super) fn retire(
        &mut self,
        run: usize,
        id: AttemptId,
        exit: Exit,
    ) -> Option<(AttemptInfo, Option<usize>)> {
        let Pool {
            runs, plan, nodes, ..
        } = self;
        let d = runs.get_mut(run)?;
        let stage = plan.stages.get(d.stage)?;
        let info = d.tasks.attempts.remove(&id)?;
        let (task, mut spent, mut twins) = (info.task, None, Vec::new());
        // Locality is a fetched split's: a pulling task has none.
        let located = d.split(stage, task).map(|s| !s.locations.is_empty());
        let Driver {
            tasks, counters, ..
        } = d;
        let TaskTable {
            pending,
            states,
            attempts,
            done,
        } = tasks;
        let st = states.get_mut(task)?;
        if info.speculative && exit == Exit::Failed {
            st.speculated = false;
        }
        match exit {
            Exit::Committed => {
                st.done = true;
                *done += 1;
                let tasks_key = match stage.kind {
                    TaskKind::Map => keys::MAP_TASKS,
                    TaskKind::Reduce => keys::REDUCE_TASKS,
                };
                counters.add(tasks_key, 1.0);
                let locality_key = match (located, info.local) {
                    (None, _) => None,
                    (Some(true), true) => Some(keys::LOCAL_MAPS),
                    (Some(true), false) => Some(keys::REMOTE_MAPS),
                    (Some(false), _) => Some(keys::ANY_MAPS),
                };
                if let Some(key) = locality_key {
                    counters.add(key, 1.0);
                }
                if info.cache_local {
                    counters.add(keys::CACHE_LOCALITY_MAPS, 1.0);
                }
                if info.speculative {
                    counters.add(keys::SPECULATIVE_WON, 1.0);
                }
                let of_task = attempts.iter().filter(|(_, i)| i.task == task);
                twins = of_task.map(|(&twin, _)| twin).collect();
            }
            Exit::Failed if st.done || attempts.values().any(|i| i.task == task) => {}
            Exit::Failed if st.regular_started >= stage.job.ft.max_task_attempts.max(1) => {
                spent = Some(st.regular_started);
            }
            Exit::Failed => {
                counters.add(keys::TASK_RETRIES, 1.0);
                pending.push_back(task);
            }
            Exit::Preempted => {
                st.regular_started = st.regular_started.saturating_sub(1);
                pending.push_front(task);
                counters.add(keys::REDUCES_PREEMPTED, 1.0);
            }
            Exit::Dropped => {}
        }
        if exit == Exit::Committed {
            nodes.release_warm(info.node);
        } else {
            nodes.release(info.node);
        }
        for twin in twins {
            self.retire(run, twin, Exit::Dropped);
        }
        Some((info, spent))
    }
}

/// Commit one finished task attempt: first commit wins — it retires
/// ([`Exit::Committed`]) and its twins are dropped; a twin that lost the race
/// finds itself gone. The winner's ledger becomes its task report and joins
/// the run's counters, exactly once per task here, and the output is
/// registered in the plan's shuffle store — where a downstream run pulls it,
/// or, for a part file, where the plan sees it done. `shuffle_parts` is the
/// task's partitioned output for a downstream shuffle (`None` when its output
/// is a part file).
pub(super) fn commit_task(sim: &mut Sim, att: &Attempt, shuffle_parts: Option<Vec<Vec<Kv>>>) {
    {
        let mut p = att.pool.borrow_mut();
        let Some((info, _)) = p.retire(att.run, att.id, Exit::Committed) else {
            return; // lost the speculative race
        };
        let Pool {
            runs, plan, store, ..
        } = &mut *p;
        let Some(d) = runs.get_mut(att.run) else {
            return;
        };
        let Some(stage) = plan.stages.get(d.stage) else {
            return;
        };
        d.counters.merge(&info.counters);
        let (task, node) = (info.task, info.node);
        let end_s = sim.now().secs();
        // Registration happens here, at commit, so first-commit-wins also
        // means register-once — an orphaned twin never reaches this point. A
        // part file on HDFS (no `parts`) is held by no node.
        let output = shuffle_parts.map(|parts| MapOutput { node, parts });
        store.register(stage.out_shuffle, d.partition_of(task), output, end_s);
        d.durations.insert(end_s - info.start_s);
        d.reports.push(TaskReport {
            kind: stage.kind,
            index: task,
            node,
            start_s: info.start_s,
            end_s,
            phases: info.phases,
        });
    }
    pull::output_registered(sim, &att.pool, att.run, att.task);
    schedule(sim, &att.pool);
    maybe_finish(sim, &att.pool, att.run);
}

/// Once every task has committed, the run has closed: whoever pulls its
/// output stops waiting for it, and the run is finished.
fn maybe_finish(sim: &mut Sim, pool: &SharedPool, run: usize) {
    {
        let p = pool.borrow();
        if !p
            .runs
            .get(run)
            .is_some_and(|d| d.alive() && d.tasks.all_done())
        {
            return;
        }
    }
    detector::arm_readers(sim, pool, run);
    end_run(sim, pool, run, None)
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::input::TaskInput;
    use crate::job::tests::{mem_splits, slow_map_job, small_cluster, word_count_job};
    use crate::job::{run_job, FtConfig, MrError};
    use std::rc::Rc;

    #[test]
    fn slots_limit_parallelism() {
        // 8 equal 2 s tasks, 1 node: with 1 slot the job takes ~8x the span
        // of a single task; with 8 slots roughly 1x (plus contention). The
        // tasks compute: a slot reused within the job starts its next task
        // without a start-up, so start-ups alone would not tell the two apart.
        let elapsed = |slots: usize| {
            let mut c = small_cluster(1, slots);
            let job = slow_map_job(8, 2.0, FtConfig::default());
            run_job(&mut c, job).unwrap().elapsed()
        };
        let serial = elapsed(1);
        let parallel = elapsed(8);
        assert!(
            serial > 4.0 * parallel,
            "slots not limiting: serial={serial}, parallel={parallel}"
        );
    }

    // -----------------------------------------------------------------------
    // Warm slots: a slot whose last attempt of the same job or DAG committed
    // starts the next one without a start-up
    // -----------------------------------------------------------------------

    const STARTUP: f64 = 1.0;

    fn map_only(n_maps: usize) -> crate::job::Job {
        let mut job = slow_map_job(n_maps, 1.0, FtConfig::default());
        job.reduce_fn = None;
        job
    }

    fn startups(r: &crate::job::JobResult) -> Vec<f64> {
        r.tasks.iter().map(|t| t.phase("startup")).collect()
    }

    #[test]
    fn three_maps_on_one_slot_pay_one_start_up() {
        let mut c = small_cluster(1, 1);
        let r = run_job(&mut c, map_only(3)).unwrap();
        assert_eq!(startups(&r), [STARTUP, 0.0, 0.0]);
        // Each map launches in the instant the one before it commits.
        for pair in r.tasks.windows(2) {
            assert_eq!(pair[1].start_s, pair[0].end_s);
        }
    }

    #[test]
    fn a_retry_after_a_failed_attempt_pays_a_start_up() {
        // One slot, two maps; map 1's first attempt fails.
        let failed = Rc::new(std::cell::Cell::new(false));
        let mut job = map_only(2);
        let map_fn = job.map_fn.clone();
        let once = failed.clone();
        job.map_fn = Rc::new(move |input, ctx| {
            let TaskInput::Bytes(b) = &input else {
                return Err(MrError::msg("expected bytes"));
            };
            if b.first() == Some(&1) && !once.replace(true) {
                return Err(MrError::msg("first attempt of map 1"));
            }
            map_fn(input, ctx)
        });
        let mut c = small_cluster(1, 1);
        let r = run_job(&mut c, job).unwrap();
        assert!(failed.get());
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0);
        // The failed attempt took the slot map 0 committed in, warm; the
        // retry takes the slot the failure killed, cold.
        assert_eq!(startups(&r), [STARTUP, STARTUP]);
        let (map0, map1) = (&r.tasks[0], &r.tasks[1]);
        let failed_attempt = map1.start_s - map0.end_s;
        assert!(
            failed_attempt < 0.5 * STARTUP,
            "the failed attempt ran {failed_attempt} s: {:?}",
            r.tasks
        );
    }

    #[test]
    fn a_second_job_on_the_same_cluster_starts_cold() {
        let mut c = small_cluster(1, 1);
        let first = run_job(&mut c, map_only(2)).unwrap();
        let second = run_job(&mut c, map_only(2)).unwrap();
        assert_eq!(startups(&first), [STARTUP, 0.0]);
        assert_eq!(startups(&second), [STARTUP, 0.0]);
        assert!(second.start_s >= first.end_s);
    }

    #[test]
    fn a_stage_task_in_the_slot_a_source_committed_in_starts_warm() {
        use crate::dag::{run_dag, DagJob};
        use crate::dataset::Dataset;
        use crate::job::Payload;
        let read = Rc::new(|input, ctx: &mut crate::job::TaskCtx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", 1.0);
            Ok(vec![(format!("k{}", b[0]), Payload::Bytes(b))])
        });
        let count = Rc::new(
            |_: &str, values: Vec<Payload>, _: &mut crate::job::TaskCtx| {
                Ok(Payload::Bytes(vec![values.len() as u8]))
            },
        );
        let plan = Dataset::from_splits(mem_splits(2, 10), read).reduce_by_key(1, count);
        let mut c = small_cluster(1, 1);
        let r = run_dag(&mut c, DagJob::new("warm", plan, "out")).unwrap();
        let of = |stage: usize| {
            let runs = r.runs.iter().filter(move |run| run.stage == stage);
            runs.flat_map(|run| run.tasks.iter().map(|t| t.phase("startup")))
        };
        assert_eq!(of(0).collect::<Vec<_>>(), [STARTUP, 0.0]);
        assert_eq!(of(1).collect::<Vec<_>>(), [0.0]);
    }

    #[test]
    fn failing_map_fails_job() {
        let mut c = small_cluster(1, 1);
        let mut job = word_count_job(mem_splits(2, 10), 1);
        job.map_fn = Rc::new(|_, _| Err(MrError::msg("kaboom")));
        job.reduce_fn = None;
        let r = run_job(&mut c, job);
        assert_eq!(r.unwrap_err(), MrError::msg("kaboom"));
    }
}
