//! One plan's home, and the only cell that holds driver state: its live
//! runs — a DAG's stage runs, or a classic job's maps and reducers — and
//! what they share. Every run is a [`Driver`] kept by value at its stage-run
//! index, and an attempt is addressed as `(pool, run, attempt id)`. One node
//! table, one attempt numbering and one failure detector: two runs never
//! both think they own a slot, attempt ids (and with them the temp names of
//! part files) are unique across a plan, and a node is withdrawn once for
//! all of them. One ordered list of live runs: a free slot is offered to
//! them in stage order, upstream first — but for a due task of a downstream
//! run ([`super::attempt::try_schedule`]). And what `dag.rs` drives the plan
//! with: its stages, shuffle store, stage-run records, counters and
//! completion callback.
//!
//! Every continuation borrows the pool once, briefly, and takes the fields
//! it needs apart (`let Pool { runs, nodes, plan, store, .. } = &mut *p`);
//! none holds a borrow across a call that may borrow it again.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{NodeId, Sim};

use super::attempt::{try_schedule, AttemptId, Exit};
use super::nodes::NodeTable;
use super::{detector, speculate, Driver, ShuffleStore};
use crate::cluster::MrEnv;
use crate::counters::Counters;
use crate::dag::{Plan, PlanDone, StageRun};

pub(crate) struct Pool {
    pub(super) nodes: NodeTable,
    next_attempt: AttemptId,
    /// Every run submitted so far, by stage-run index, ended or not: an
    /// attempt of an ended run may still be writing a part file, and finds
    /// its stage through its run.
    pub(crate) runs: Vec<Driver>,
    /// The runs that have not ended, upstream stages first and by
    /// submission within a stage (a classic job: its maps, then its
    /// reducers).
    pub(crate) live: Vec<usize>,
    /// When the plan — and the heartbeat clock — started.
    pub(crate) start_s: f64,
    pub(crate) env: MrEnv,
    pub(crate) plan: Plan,
    /// Where every run of the plan registers its output and pulls its input.
    pub(crate) store: ShuffleStore,
    /// A record of every run, by stage-run index; `end_s`, `ok` and `tasks`
    /// are filled in when the run ends.
    pub(crate) records: Vec<StageRun>,
    /// The plan's books: what its ended runs counted, lineage recomputes,
    /// and what the detector saw — heartbeats missed, nodes suspected and
    /// reinstated, partitions observed.
    pub(crate) counters: Counters,
    /// The cluster-cache registry's eviction count when the pool opened.
    pub(crate) evictions_start: u64,
    /// Taken when the plan ends.
    pub(crate) done: Option<PlanDone>,
}

pub(crate) type SharedPool = Rc<RefCell<Pool>>;

impl Pool {
    /// The pool of `plan` over `env`'s compute nodes, every slot free;
    /// nodes the fault plan has already killed start out dead, and leave no
    /// ghost behind (cluster-cache residency outlives the job that admitted
    /// it). Watches the fault plan from now on ([`detector::arm`]).
    pub fn open(sim: &mut Sim, env: MrEnv, plan: Plan, done: PlanDone) -> SharedPool {
        let now = sim.now().secs();
        let dead = |n: NodeId| sim.faults.node_dead(n.0, now);
        let nodes = NodeTable::new(env.topo.n_compute(), env.slots_per_node, dead);
        for n in nodes.ids().filter(|&n| nodes.is_dead(n)) {
            env.cluster_cache.invalidate_node(n);
        }
        let pool = Rc::new(RefCell::new(Pool {
            nodes,
            next_attempt: 0,
            runs: Vec::new(),
            live: Vec::new(),
            start_s: now,
            store: plan.shuffle_store(),
            records: Vec::new(),
            counters: Counters::new(),
            evictions_start: env.cluster_cache.stats().evictions,
            done: Some(done),
            env,
            plan,
        }));
        detector::arm(sim, &pool);
        pool
    }

    pub(super) fn next_attempt(&mut self) -> AttemptId {
        let id = self.next_attempt;
        self.next_attempt += 1;
        id
    }

    /// Keep `d` as the next stage run, and list it behind the live runs of
    /// its own and of every earlier stage (a classic job's maps are stage 0,
    /// its reducers stage 1).
    pub(crate) fn enlist(&mut self, d: Driver) {
        let (run, stage) = (self.runs.len(), d.stage);
        self.runs.push(d);
        let upstream = |r: &&usize| self.runs.get(**r).is_some_and(|d| d.stage <= stage);
        let at = self.live.iter().take_while(upstream).count();
        self.live.insert(at, run);
    }

    /// End run `run`, either way: once — whether it ended now. Every
    /// attempt still in flight is retired ([`Exit::Dropped`]), so an attempt
    /// in the task table is one of a live run.
    pub(super) fn finish(&mut self, run: usize) -> bool {
        let Some(d) = self.runs.get_mut(run).filter(|d| d.alive()) else {
            return false;
        };
        d.ended = true;
        let in_flight: Vec<_> = d.tasks.in_flight().map(|(id, _)| id).collect();
        for id in in_flight {
            self.retire(run, id, Exit::Dropped);
        }
        true
    }
}

/// Offer the free slots to every live run in turn, upstream first: a task of
/// a later stage only ever gets a slot no earlier stage wants. A run's
/// pending tasks go first, then its flagged stragglers still without a twin
/// ([`speculate::twin_flagged`]).
pub(crate) fn schedule(sim: &mut Sim, pool: &SharedPool) {
    let live = pool.borrow().live.clone();
    for run in live {
        try_schedule(sim, pool, run);
        speculate::twin_flagged(sim, pool, run);
    }
}

/// A task of `run` that has all its input (a pending map, a retry, a
/// speculative twin) found no free slot: an attempt that is only waiting for
/// input must not delay it, so the youngest *idle* attempt of `run` or
/// *downstream* of it on a usable node not in `except` gives up its slot
/// — a reducer of the same job, or a task of a later stage of the same DAG.
/// Idle is past its start-up, with nothing left to merge, and not due: one
/// still starting up or merging keeps its slot until it turns idle, and then
/// runs the scheduler again ([`super::pull`]); a due one keeps it, or
/// placement would hand it straight back. It goes back to the head of its
/// queue uncharged: no retry, no attempt off its budget. Returns the node
/// whose slot is now free.
pub(super) fn preempt_waiting(
    sim: &Sim,
    pool: &SharedPool,
    run: usize,
    except: &[NodeId],
) -> Option<NodeId> {
    let mut p = pool.borrow_mut();
    let downstream = &p.stage_of(run)?.downstream;
    let mut youngest: Option<(AttemptId, usize)> = None;
    for &r in &p.live {
        let Some(d) = p.runs.get(r) else {
            continue;
        };
        if r != run && !downstream.contains(&d.stage) {
            continue;
        }
        let nodes = &p.nodes;
        let gives_a_slot =
            |n: NodeId| !except.contains(&n) && nodes.usable(n) && !nodes.suspected(n);
        // Every waiting attempt pulls. A run's own only wait while its
        // input is open, when none of its tasks asks for a slot.
        let mut waiting = d.tasks.waiting().rev();
        let victim = waiting.find(|(_, i)| gives_a_slot(i.node) && p.yields_slot(sim, r, i));
        if let Some((id, _)) = victim.filter(|&(id, _)| youngest.is_none_or(|(y, _)| id > y)) {
            youngest = Some((id, r));
        }
    }
    let (id, r) = youngest?;
    let (info, _) = p.retire(r, id, Exit::Preempted)?;
    Some(info.node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::keys;
    use crate::dag::tests::{count_reader, lineage_plan, sum_agg};
    use crate::dag::{submit_plan, DagJob, DagResult, Plan};
    use crate::dataset::{AggFn, Dataset, RecordReadFn};
    use crate::input::TaskInput;
    use crate::job::commit::MapOutput;
    use crate::job::nodes::tests::slots;
    use crate::job::pull::Shuffle;
    use crate::job::tests::{
        mem_splits, scaled_cluster, slow_map_job, small_cluster, word_count_job,
    };
    use crate::job::{FtConfig, Kv, MrError, Payload};
    use crate::Cluster;
    use simnet::FaultPlan;

    /// Submit `plan` on `c` through the plan driver and return its pool
    /// before any event has run.
    fn submitted(c: &mut Cluster, plan: Plan) -> SharedPool {
        let env = c.env();
        submit_plan(&mut c.sim, env, plan, Box::new(|_, _, _| {}))
    }

    /// Give task `r` of run `run`'s attempt the pull state `shuffle`.
    fn set(pool: &SharedPool, run: usize, r: usize, shuffle: Shuffle) {
        let mut p = pool.borrow_mut();
        let d = p.runs.get_mut(run).expect("a run");
        let reducer = d.tasks.in_flight().find(|(_, i)| i.task == r);
        let id = reducer.map(|(id, _)| id).expect("reducer in flight");
        d.tasks.attempt_mut(id).expect("in flight").shuffle = Some(shuffle);
    }

    /// A map output on node 1 with 2 s of merge (10⁸ logical bytes) for
    /// partition `r` of `width`, and nothing for the others.
    fn owing_2s(width: usize, r: usize) -> MapOutput {
        let kv = Kv {
            key: "k".into(),
            value: Payload::Bytes(vec![0; 10_000 - 1]),
        };
        let part = |p| if p == r { vec![kv.clone()] } else { Vec::new() };
        MapOutput {
            node: NodeId(1),
            parts: (0..width).map(part).collect(),
        }
    }

    #[test]
    fn preempt_waiting_takes_only_an_idle_attempt_that_is_not_due() {
        // 2 nodes x 2 slots, one map and three reducers: the map takes node
        // 1, reducers 0 and 2 node 0, reducer 1 the last slot. Every slot is
        // busy and every reducer is starting up, at 0 s.
        let mut c = scaled_cluster(2, 2);
        let job = word_count_job(mem_splits(1, 100), 3);
        let pool = submitted(&mut c, Plan::of_job(job));
        let (maps, reducers) = (0, 1);
        let sim = &c.sim;
        assert_eq!(pool.borrow().live, [maps, reducers]);
        assert_eq!(pool.borrow().nodes.busy(), 4);
        assert_eq!(
            preempt_waiting(sim, &pool, maps, &[]),
            None,
            "all starting up"
        );
        // Reducer 2 merges until 2 s; reducer 1, older, is idle: it goes.
        set(&pool, reducers, 2, Shuffle::merging(0.0, 2.0));
        set(&pool, reducers, 1, Shuffle::merging(0.0, 0.0));
        assert_eq!(preempt_waiting(sim, &pool, maps, &[]), Some(NodeId(1)));
        let p = pool.borrow();
        let rd = p.runs.get(reducers).expect("the reducers' run");
        assert_eq!(rd.tasks.pending().front(), Some(&1));
        assert_eq!(rd.counters.get(keys::REDUCES_PREEMPTED), 1.0);
        drop(p);
        // Reducer 2 is idle now, but due: a map output registered with 2 s
        // of merge for it, against a 1 s start-up and a stretch of nothing
        // at the job's start.
        set(&pool, reducers, 2, Shuffle::merging(0.0, 0.0));
        let output = owing_2s(3, 2);
        pool.borrow_mut().store.register(0, 0, Some(output), 0.0);
        assert_eq!(preempt_waiting(sim, &pool, maps, &[]), None, "due");
        // Its output lost, it owes nothing and goes.
        pool.borrow_mut()
            .store
            .invalidate_node(NodeId(1), std::iter::once(0));
        assert_eq!(preempt_waiting(sim, &pool, maps, &[]), Some(NodeId(0)));
    }

    #[test]
    fn a_stage_task_owing_the_same_merge_is_due_too() {
        // One rule for every pulling task: one of a DAG stage's two sources
        // registers what makes a reducer due above.
        let mut c = scaled_cluster(2, 2);
        let read: RecordReadFn = Rc::new(|_, _| Ok(Vec::new()));
        let agg: AggFn = Rc::new(|_, _, _| Ok(Payload::Bytes(Vec::new())));
        let plan = Dataset::from_splits(mem_splits(2, 0), read).reduce_by_key(1, agg);
        let plan = Plan::of_dag(&DagJob::new("due", plan, "out")).expect("a valid plan");
        let pool = submitted(&mut c, plan);
        let mut p = pool.borrow_mut();
        let pulling = p
            .live
            .iter()
            .find(|&&r| p.stage_of(r).is_some_and(|s| s.pulls()));
        let run = *pulling.expect("a post-shuffle run");
        let (source, _) = p.stage_of(run).expect("its stage").sources[0];
        let output = owing_2s(1, 0);
        p.store.register(source, 0, Some(output), 0.0);
        assert!(p.waits(run), "its input is open");
        assert!(p.due(&c.sim, run, 0));
    }

    /// What a plan ended with: its result, its error if it failed, and how
    /// many attempts its pool numbered.
    type Ended = (DagResult, Option<MrError>, AttemptId);

    /// Check the slot law on `pool` as its plan ends with `r`: every slot
    /// its attempts took is back, and no usable node has more warm slots
    /// than free ones. Returns how many attempts the pool numbered.
    fn slot_law(pool: &SharedPool, r: &DagResult) -> AttemptId {
        let p = pool.borrow();
        let nodes = &p.nodes;
        assert_eq!(nodes.busy(), 0, "a slot not given back: {:?}", r.counters);
        for n in nodes.ids().filter(|&n| nodes.usable(n)) {
            let (free, warm) = slots(nodes, n);
            assert!(warm <= free, "node {}: {warm} warm of {free} free", n.0);
        }
        p.next_attempt
    }

    /// Run `plan` on `c` through the plan driver, checking the slot law at
    /// the instant it ends, either way — inside `submit_plan` too, where a
    /// plan ends that finds no usable node.
    fn run_lawfully(c: &mut Cluster, plan: Plan) -> Ended {
        let pool: Rc<RefCell<Option<SharedPool>>> = Rc::default();
        let ended: Rc<RefCell<Option<Ended>>> = Rc::default();
        let (of_plan, end) = (pool.clone(), ended.clone());
        let done = move |_: &mut Sim, r: DagResult, failed| {
            // Unknown yet when the plan ends inside `submit_plan`.
            let numbered = of_plan.borrow().as_ref().map_or(0, |p| slot_law(p, &r));
            *end.borrow_mut() = Some((r, failed, numbered));
        };
        let env = c.env();
        let submitted = submit_plan(&mut c.sim, env, plan, Box::new(done));
        if let Some((r, _, numbered)) = ended.borrow_mut().as_mut() {
            *numbered = slot_law(&submitted, r);
        }
        *pool.borrow_mut() = Some(submitted);
        c.run();
        let ended = ended.borrow_mut().take();
        ended.expect("the plan ended")
    }

    /// A DAG whose final task has pulled all it needs and computes for 10 s,
    /// on a cluster where a holder of a source output dies under it: the
    /// lost partition is recomputed (6 s of compute), and the DAG completes
    /// without it — the recompute run is called off. Returns that cluster,
    /// the plan and when its final task ends.
    fn a_recompute_called_off() -> (Cluster, Plan, f64) {
        let read: RecordReadFn = Rc::new(|input, ctx| {
            ctx.charge("scan", 6.0);
            count_reader()(input, ctx)
        });
        let sum = sum_agg();
        let agg: AggFn = Rc::new(move |key, values, ctx| {
            ctx.charge("agg", 5.0);
            sum(key, values, ctx)
        });
        let plan = Dataset::from_splits(mem_splits(2, 100), read).reduce_by_key(1, agg);
        let dag = DagJob::new("late", plan, "out");
        let of_dag = || Plan::of_dag(&dag).expect("a valid plan");
        let (clean, _, _) = run_lawfully(&mut small_cluster(3, 1), of_dag());
        let task = |run: usize, t: usize| clean.runs.get(run).and_then(|r| r.tasks.get(t));
        let (holder, last) = (task(0, 0).expect("a source"), task(1, 0).expect("a final"));
        assert_ne!(holder.node, last.node);
        let mut c = small_cluster(3, 1);
        let kill = FaultPlan::none().kill_node(holder.node.0, last.end_s - 5.0);
        c.sim.faults.install(kill);
        (c, of_dag(), last.end_s)
    }

    #[test]
    fn every_way_out_of_the_task_table_gives_the_slot_back() {
        // A clean job with reducers: every attempt commits.
        let mut c = small_cluster(2, 2);
        let job = word_count_job(mem_splits(6, 100), 2);
        let (r, failed, _) = run_lawfully(&mut c, Plan::of_job(job));
        assert!(failed.is_none());
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 2.0);

        // Node 1 computes 20x slower: twins on node 0 win and the
        // originals are dropped.
        let mut c = small_cluster(2, 2);
        c.sim.faults.install(FaultPlan::none().slow_node(1, 20.0));
        let job = slow_map_job(4, 10.0, FtConfig::default());
        let (r, failed, _) = run_lawfully(&mut c, Plan::of_job(job));
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::SPECULATIVE_WON) >= 1.0,
            "{:?}",
            r.counters
        );

        // Node 1 dies mid-wave: its attempts are withdrawn and retried.
        let mut c = small_cluster(3, 2);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 2.0));
        let job = slow_map_job(6, 2.0, FtConfig::default());
        let (r, failed, _) = run_lawfully(&mut c, Plan::of_job(job));
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "{:?}",
            r.counters
        );

        // A map that always fails: retries, then the maps' run fails and
        // the plan calls off the reducers' run, retiring the waiting
        // reducer with it. A run called off is not folded into the result:
        // the reducer shows as an attempt the pool numbered and no map
        // counted, whose slot the law above saw back.
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(2, 100), 1);
        job.map_fn = Rc::new(|_, ctx| {
            ctx.charge("scan", 1.0);
            Err(MrError::msg("kaboom"))
        });
        let (r, failed, numbered) = run_lawfully(&mut c, Plan::of_job(job));
        assert_eq!(failed, Some(MrError::msg("kaboom")));
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "{:?}",
            r.counters
        );
        let map_attempts = r.counters.get(keys::MAP_ATTEMPTS);
        assert!(numbered as f64 > map_attempts, "{numbered} numbered");
        let reducers = r.runs.iter().find(|run| run.stage == 1);
        assert!(reducers.is_some_and(|run| !run.ok), "{:?}", r.runs);

        // 2 nodes x 1 slot: map 0 (8 s) on node 1, map 1 (1 s) on node 0,
        // whose slot reducer 0 then takes. Node 1 dies under map 0, and its
        // retry takes the waiting reducer's slot.
        let mut job = slow_map_job(2, 0.0, FtConfig::default());
        job.ft.speculative = false;
        job.n_reducers = 2;
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", if b[0] == 0 { 8.0 } else { 1.0 });
            ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]]));
            Ok(())
        });
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 4.0));
        let (r, failed, _) = run_lawfully(&mut c, Plan::of_job(job));
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::REDUCES_PREEMPTED) >= 1.0,
            "{:?}",
            r.counters
        );

        // A DAG: node 1 dies as stage 1 closes, taking shuffle outputs its
        // consumer still needs with it; they are recomputed.
        let dag = DagJob::new("lin", lineage_plan(), "out");
        let of_dag = || Plan::of_dag(&dag).expect("a valid plan");
        let (clean, _, _) = run_lawfully(&mut small_cluster(4, 1), of_dag());
        let s1 = clean.runs.iter().find(|run| run.stage == 1);
        let s1_end = s1.expect("stage 1 ran").end_s;
        let mut c = small_cluster(4, 1);
        c.sim
            .faults
            .install(FaultPlan::none().kill_node(1, s1_end + 1e-6));
        let (r, failed, _) = run_lawfully(&mut c, of_dag());
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::LINEAGE_RECOMPUTES) >= 1.0,
            "{:?}",
            r.counters
        );

        // A DAG whose lineage recompute is called off.
        let (mut c, plan, last_end_s) = a_recompute_called_off();
        let (r, failed, _) = run_lawfully(&mut c, plan);
        assert!(failed.is_none());
        assert_eq!(r.end_s, last_end_s, "the final task was not held up");
        let recompute = r
            .runs
            .get(2)
            .filter(|run| run.stage == 0 && run.recomputed == 1);
        assert!(recompute.is_some_and(|run| !run.ok), "{:?}", r.runs);

        // A job and a 3-stage DAG whose every node was killed at 0 s: the
        // first run finds no usable node and the plan ends inside
        // `submit_plan`, before any event has run.
        let dead = || {
            let mut c = small_cluster(2, 1);
            let kill = FaultPlan::none().kill_node(0, 0.0).kill_node(1, 0.0);
            c.sim.faults.install(kill);
            c
        };
        let job = Plan::of_job(word_count_job(mem_splits(2, 100), 1));
        let dag = Plan::of_dag(&DagJob::new("lin", lineage_plan(), "out"));
        for plan in [job, dag.expect("a valid plan")] {
            let (r, failed, _) = run_lawfully(&mut dead(), plan);
            let e = failed.map(|e| e.message()).unwrap_or_default();
            assert!(e.contains("no usable nodes left"), "{e}");
            assert_eq!(r.end_s, 0.0);
        }
    }

    #[test]
    fn nothing_holds_a_plan_once_the_simulation_has_drained() {
        // Only the caller's handle on the pool is left: no run, event or
        // completion callback keeps a finished plan — its task tables and
        // shuffle outputs — alive while the cluster runs on, as it does
        // between the passes of a warm rerun.
        let drained = |c: &mut Cluster, plan: Plan| {
            let ended = Rc::new(RefCell::new(None));
            let end = ended.clone();
            let done = move |_: &mut Sim, r: DagResult, failed: Option<MrError>| {
                *end.borrow_mut() = Some((r, failed));
            };
            let env = c.env();
            let pool = submit_plan(&mut c.sim, env, plan, Box::new(done));
            c.run();
            assert_eq!(Rc::strong_count(&pool), 1);
            ended.take().expect("the plan ended")
        };
        // A clean classic job.
        let job = word_count_job(mem_splits(6, 100), 2);
        let (_, failed) = drained(&mut small_cluster(2, 2), Plan::of_job(job));
        assert!(failed.is_none());
        // A DAG whose lineage recompute is called off.
        let (mut c, plan, _) = a_recompute_called_off();
        let (r, failed) = drained(&mut c, plan);
        assert!(failed.is_none());
        assert!(r.runs.get(2).is_some_and(|run| !run.ok), "{:?}", r.runs);
        // A plan that fails: its maps always do.
        let mut job = word_count_job(mem_splits(2, 100), 1);
        job.map_fn = Rc::new(|_, _| Err(MrError::msg("kaboom")));
        let (_, failed) = drained(&mut small_cluster(2, 2), Plan::of_job(job));
        assert_eq!(failed, Some(MrError::msg("kaboom")));
    }
}
