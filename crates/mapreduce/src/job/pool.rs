//! What the live runs of one plan — a DAG, or a classic job's maps and
//! reducers — share: one node table, one attempt numbering, one failure
//! detector, and the list of the runs themselves. Two runs never both think
//! they own a slot, attempt ids (and with them the temp names of part files)
//! are unique across a plan, a node is withdrawn once for all of them, and a
//! free slot is offered to the runs in stage order, upstream first — but for
//! a due task of a downstream run ([`super::attempt::try_schedule`]).

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use simnet::{ClusterCache, NodeId, Sim};

use super::attempt::{try_schedule, AttemptId, Exit};
use super::nodes::NodeTable;
use super::{detector, Driver, FtConfig, SharedDriver};
use crate::cluster::MrEnv;
use crate::counters::{keys, Counters};

/// Called when a kill has been dealt with by every live run and before the
/// slots it left are handed out: the DAG drops the dead node's shuffle
/// outputs and resubmits what it still needs of them.
pub(crate) type NodeLost = Rc<dyn Fn(&mut Sim, NodeId)>;

pub(crate) struct Pool {
    pub(super) nodes: NodeTable,
    next_attempt: AttemptId,
    /// The runs enlisted so far, upstream stages first (a classic job: its
    /// maps, then its reducers); the ended ones are skipped, not removed.
    runs: Vec<Weak<RefCell<Driver>>>,
    /// The heartbeat policy, and when its clock started.
    pub(super) ft: FtConfig,
    pub(super) start_s: f64,
    pub(super) cache: Rc<ClusterCache>,
    on_node_lost: Option<NodeLost>,
    /// What the detector saw: heartbeats missed, nodes suspected and
    /// reinstated, partitions observed.
    pub(super) counters: Counters,
    /// The cluster-cache registry's eviction count when the pool opened.
    evictions_start: u64,
}

pub(crate) type SharedPool = Rc<RefCell<Pool>>;

impl Pool {
    /// A pool over `env`'s compute nodes, every slot free; nodes the fault
    /// plan has already killed start out dead, and leave no ghost behind
    /// (cluster-cache residency outlives the job that admitted it). Watches
    /// the fault plan from now on ([`detector::arm`]).
    pub fn open(sim: &mut Sim, env: &MrEnv, ft: &FtConfig) -> SharedPool {
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
            ft: ft.clone(),
            start_s: now,
            cache: env.cluster_cache.clone(),
            on_node_lost: None,
            counters: Counters::new(),
            evictions_start: env.cluster_cache.stats().evictions,
        }));
        detector::arm(sim, &pool);
        pool
    }

    /// The books a plan closes with: what the detector saw, and the
    /// cluster-cache evictions since the pool opened (registry stats are
    /// world-lifetime monotonic; the delta is its runs' share).
    pub(crate) fn books(&self) -> Counters {
        let mut books = self.counters.clone();
        if self.cache.enabled() {
            let evicted = self
                .cache
                .stats()
                .evictions
                .saturating_sub(self.evictions_start);
            if evicted > 0 {
                books.add(keys::CLUSTER_CACHE_EVICTIONS, evicted as f64);
            }
        }
        books
    }

    /// Have `lost` called at every kill from now on.
    pub fn on_node_lost(&mut self, lost: NodeLost) {
        self.on_node_lost = Some(lost);
    }

    /// Someone recomputes what a kill takes (the driver of a plan that
    /// recovers: a DAG's): the pool's runs may give up on an output rather
    /// than wait for it.
    pub(super) fn recovers(&self) -> bool {
        self.on_node_lost.is_some()
    }

    pub(super) fn node_lost_hook(&self) -> Option<NodeLost> {
        self.on_node_lost.clone()
    }

    pub(super) fn next_attempt(&mut self) -> AttemptId {
        let id = self.next_attempt;
        self.next_attempt += 1;
        id
    }

    /// Add a run: behind the runs of its own and of every earlier stage (a
    /// classic job's maps are stage 0, its reducers stage 1).
    pub(super) fn enlist(&mut self, d: &SharedDriver) {
        let stage = d.borrow().sink.stage;
        let upstream = |r: &Weak<RefCell<Driver>>| {
            let r = r.upgrade();
            r.is_none_or(|r| r.borrow().sink.stage <= stage)
        };
        let at = self.runs.iter().take_while(|r| upstream(r)).count();
        self.runs.insert(at, Rc::downgrade(d));
    }
}

/// The runs of `pool` that have not ended, upstream first. No driver may be
/// mutably borrowed by the caller.
pub(super) fn live_runs(pool: &SharedPool) -> Vec<SharedDriver> {
    let pool = pool.borrow();
    let runs = pool.runs.iter().filter_map(Weak::upgrade);
    runs.filter(|d| d.borrow().alive()).collect()
}

/// Offer the free slots to every live run in turn, upstream first: a task of
/// a later stage only ever gets a slot no earlier stage wants.
pub(super) fn schedule(sim: &mut Sim, pool: &SharedPool) {
    for d in live_runs(pool) {
        try_schedule(sim, &d);
    }
}

/// A task of run `d` that has all its input (a pending map, a retry, a
/// speculative twin) found no free slot: an attempt that is only waiting for
/// input must not delay it, so the youngest *idle* attempt of `d` or
/// *downstream* of it on a usable node not in `except` gives up its slot
/// — a reducer of the same job, or a task of a later stage of the same DAG.
/// Idle is past its start-up, with nothing left to merge, and not due: one
/// still starting up or merging keeps its slot until it turns idle, and then
/// runs the scheduler again ([`super::pull`]); a due one keeps it, or
/// placement would hand it straight back. It goes back to the head of its
/// queue uncharged: no retry, no attempt off its budget. Returns the node
/// whose slot is now free.
pub(super) fn preempt_waiting(sim: &Sim, d: &SharedDriver, except: &[NodeId]) -> Option<NodeId> {
    let pool = d.borrow().pool.clone();
    let downstream = d.borrow().sink.downstream.clone();
    let mut youngest: Option<(AttemptId, SharedDriver)> = None;
    for run in live_runs(&pool) {
        let victim = {
            let rd = run.borrow();
            let own = Rc::ptr_eq(&run, d);
            let later = downstream.contains(&rd.sink.stage);
            if !own && !later {
                continue;
            }
            let p = pool.borrow();
            let gives_a_slot = |n: NodeId| !except.contains(&n) && p.nodes.usable(n);
            // Every waiting attempt pulls. A run's own only wait while its
            // input is open, when none of its tasks asks for a slot.
            let mut waiting = rd.tasks.waiting().rev();
            waiting
                .find(|(_, i)| gives_a_slot(i.node) && rd.yields_slot(sim, &p.nodes, i))
                .map(|(id, _)| id)
        };
        if let Some(id) = victim.filter(|&id| youngest.as_ref().is_none_or(|(y, _)| id > *y)) {
            youngest = Some((id, run));
        }
    }
    let (id, run) = youngest?;
    let (info, _) = run.borrow_mut().retire(id, Exit::Preempted)?;
    Some(info.node)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    use crate::job::{Kv, MrError, Payload};
    use crate::Cluster;
    use simnet::FaultPlan;

    /// Submit `plan` on `c` through the plan driver and return its live
    /// runs, upstream first, before any event has run.
    fn submitted(c: &mut Cluster, plan: Plan) -> Vec<SharedDriver> {
        let env = c.env();
        let pool = submit_plan(&mut c.sim, env, plan, Box::new(|_, _, _| {}));
        live_runs(&pool)
    }

    /// Give reducer `r`'s attempt the pull state `shuffle`.
    fn set(d: &SharedDriver, r: usize, shuffle: Shuffle) {
        let mut dd = d.borrow_mut();
        let reducer = dd.tasks.in_flight().find(|(_, i)| i.task == r);
        let id = reducer.map(|(id, _)| id).expect("reducer in flight");
        dd.tasks.attempt_mut(id).expect("in flight").shuffle = Some(shuffle);
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
        let runs = submitted(&mut c, Plan::of_job(job));
        let (maps, reducers) = (&runs[0], &runs[1]);
        let sim = &c.sim;
        assert_eq!(maps.borrow().pool.borrow().nodes.busy(), 4);
        assert_eq!(preempt_waiting(sim, maps, &[]), None, "all starting up");
        // Reducer 2 merges until 2 s; reducer 1, older, is idle: it goes.
        set(reducers, 2, Shuffle::merging(0.0, 2.0));
        set(reducers, 1, Shuffle::merging(0.0, 0.0));
        assert_eq!(preempt_waiting(sim, maps, &[]), Some(NodeId(1)));
        let rd = reducers.borrow();
        assert_eq!(rd.tasks.pending().front(), Some(&1));
        assert_eq!(rd.counters.get(keys::REDUCES_PREEMPTED), 1.0);
        drop(rd);
        // Reducer 2 is idle now, but due: a map output registered with 2 s
        // of merge for it, against a 1 s start-up and a stretch of nothing
        // at the job's start.
        set(reducers, 2, Shuffle::merging(0.0, 0.0));
        let store = reducers.borrow().input.as_ref().map(|i| i.store.clone());
        let store = store.expect("a job with reducers");
        let output = owing_2s(3, 2);
        store.borrow_mut().register(0, 0, Some(output), 0.0);
        assert_eq!(preempt_waiting(sim, maps, &[]), None, "due");
        // Its output lost, it owes nothing and goes.
        store.borrow_mut().invalidate_node(NodeId(1));
        assert_eq!(preempt_waiting(sim, maps, &[]), Some(NodeId(0)));
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
        let runs = submitted(&mut c, plan);
        let stage = runs.iter().find(|r| r.borrow().pulls());
        let dd = stage.expect("a post-shuffle run").borrow();
        let input = dd.input.as_ref().expect("it pulls");
        let (source, _) = input.sources[0];
        let output = owing_2s(1, 0);
        input
            .store
            .borrow_mut()
            .register(source, 0, Some(output), 0.0);
        assert!(dd.waits(), "its input is open");
        assert!(dd.due(&c.sim, &dd.pool.borrow().nodes, 0));
    }

    /// What a plan ended with: its result, its error if it failed, and how
    /// many attempts its pool numbered.
    type Ended = (DagResult, Option<MrError>, AttemptId);

    /// Run `plan` on `c` through the plan driver, checking the slot law at
    /// the instant it ends, either way: every slot its attempts took is
    /// back, and no usable node has more warm slots than free ones.
    fn run_lawfully(c: &mut Cluster, plan: Plan) -> Ended {
        let pool: Rc<RefCell<Option<SharedPool>>> = Rc::default();
        let ended: Rc<RefCell<Option<Ended>>> = Rc::default();
        let (of_plan, end) = (pool.clone(), ended.clone());
        let done = move |_: &mut Sim, r: DagResult, failed| {
            let pool = of_plan.borrow_mut().take().expect("the plan's pool");
            let p = pool.borrow();
            let nodes = &p.nodes;
            assert_eq!(nodes.busy(), 0, "a slot not given back: {:?}", r.counters);
            for n in nodes.ids().filter(|&n| nodes.usable(n)) {
                let (free, warm) = slots(nodes, n);
                assert!(warm <= free, "node {}: {warm} warm of {free} free", n.0);
            }
            *end.borrow_mut() = Some((r, failed, p.next_attempt));
        };
        let env = c.env();
        *pool.borrow_mut() = Some(submit_plan(&mut c.sim, env, plan, Box::new(done)));
        c.run();
        let ended = ended.borrow_mut().take();
        ended.expect("the plan ended")
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

        // A DAG whose final task has pulled all it needs and computes for
        // 10 s: a holder of a source output dies under it, the lost
        // partition is recomputed (6 s of compute), and the DAG completes
        // without it — the recompute run is called off.
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
        let (r, failed, _) = run_lawfully(&mut c, of_dag());
        assert!(failed.is_none());
        assert_eq!(r.end_s, last.end_s, "the final task was not held up");
        let recompute = r
            .runs
            .get(2)
            .filter(|run| run.stage == 0 && run.recomputed == 1);
        assert!(recompute.is_some_and(|run| !run.ok), "{:?}", r.runs);
    }
}
