//! What the live runs of one DAG or classic job share: one node table, one
//! attempt numbering, one failure detector, and the list of the runs
//! themselves. Two runs never both think they own a slot, attempt ids (and
//! with them the temp names of part files) are unique across a DAG, a node
//! is withdrawn once for all of them, and a free slot is offered to the runs
//! in stage order, upstream first — but for a due task of a downstream run
//! ([`super::attempt::try_schedule`]).

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

    /// The books a job or DAG closes with: what the detector saw, and the
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

    /// Someone recomputes what a kill takes (a DAG's driver): the pool's
    /// runs may give up on an output rather than wait for it.
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
/// *downstream* of it on a usable node other than `except` gives up its slot
/// — a reducer of the same job, or a task of a later stage of the same DAG.
/// Idle is past its start-up, with nothing left to merge, and not due: one
/// still starting up or merging keeps its slot until it turns idle, and then
/// runs the scheduler again ([`super::pull`]); a due one keeps it, or
/// placement would hand it straight back. It goes back to the head of its
/// queue uncharged: no retry, no attempt off its budget. Returns the node
/// whose slot is now free.
pub(super) fn preempt_waiting(
    sim: &Sim,
    d: &SharedDriver,
    except: Option<NodeId>,
) -> Option<NodeId> {
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
            let gives_a_slot = |n: NodeId| Some(n) != except && p.nodes.usable(n);
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
    use crate::dag::ShuffleSink;
    use crate::input::TaskInput;
    use crate::job::commit::MapOutput;
    use crate::job::nodes::tests::slots;
    use crate::job::pull::Shuffle;
    use crate::job::tests::{
        mem_splits, scaled_cluster, slow_map_job, small_cluster, word_count_job,
    };
    use crate::job::{
        lower, submit_stage, Job, JobDone, JobResult, Kv, MrError, Payload, ShuffleInput,
        ShuffleStore, StageIo,
    };
    use crate::Cluster;
    use simnet::FaultPlan;

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
        let ended: JobDone = Box::new(|_, _, _| {});
        let env = c.env();
        let runs = lower(&mut c.sim, env, job, ended);
        let (maps, reducers) = (&runs[0], &runs[1]);
        let sim = &c.sim;
        assert_eq!(maps.borrow().pool.borrow().nodes.busy(), 4);
        assert_eq!(preempt_waiting(sim, maps, None), None, "all starting up");
        // Reducer 2 merges until 2 s; reducer 1, older, is idle: it goes.
        set(reducers, 2, Shuffle::merging(0.0, 2.0));
        set(reducers, 1, Shuffle::merging(0.0, 0.0));
        assert_eq!(preempt_waiting(sim, maps, None), Some(NodeId(1)));
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
        assert_eq!(preempt_waiting(sim, maps, None), None, "due");
        // Its output lost, it owes nothing and goes.
        store.borrow_mut().invalidate_node(NodeId(1));
        assert_eq!(preempt_waiting(sim, maps, None), Some(NodeId(0)));
    }

    #[test]
    fn a_stage_task_owing_the_same_merge_is_due_too() {
        // One rule for every pulling task: one of the stage's two sources
        // registered what makes a reducer due above.
        let mut c = scaled_cluster(2, 2);
        let store = ShuffleStore::shared([(0, 2)]);
        store.borrow_mut().register(0, 0, Some(owing_2s(1, 0)), 0.0);
        let env = c.env();
        let io = StageIo {
            sink: ShuffleSink::of_job(store.clone(), (1, 1), None, "part-"),
            input: Some(ShuffleInput {
                store,
                sources: vec![(0, 0)],
            }),
            pool: Pool::open(&mut c.sim, &env, &FtConfig::default()),
        };
        let mut job = word_count_job(mem_splits(1, 0), 1);
        job.reduce_fn = None;
        let ended: JobDone = Box::new(|_, _, _| {});
        let run = submit_stage(&mut c.sim, env, job, io, ended);
        let dd = run.0.borrow();
        assert!(dd.waits(), "its input is open");
        assert!(dd.due(&c.sim, &dd.pool.borrow().nodes, 0));
    }

    /// What a job ended with: what it committed, and its error if it failed.
    type Ended = (JobResult, Option<MrError>);

    /// Run `job` on `c` through [`lower`], checking the slot law at the
    /// instant it ends, either way: every slot its attempts took is back,
    /// and no usable node has more warm slots than free ones.
    fn run_lawfully(c: &mut Cluster, job: Job) -> Ended {
        let pool: Rc<RefCell<Option<SharedPool>>> = Rc::default();
        let ended: Rc<RefCell<Option<Ended>>> = Rc::default();
        let (of_job, end) = (pool.clone(), ended.clone());
        let done: JobDone = Box::new(move |_, r, failed| {
            let pool = of_job.borrow_mut().take().expect("the job's pool");
            let nodes = &pool.borrow().nodes;
            assert_eq!(nodes.busy(), 0, "a slot not given back: {:?}", r.counters);
            for n in nodes.ids().filter(|&n| nodes.usable(n)) {
                let (free, warm) = slots(nodes, n);
                assert!(warm <= free, "node {}: {warm} warm of {free} free", n.0);
            }
            *end.borrow_mut() = Some((r, failed));
        });
        let env = c.env();
        let runs = lower(&mut c.sim, env, job, done);
        *pool.borrow_mut() = runs.first().map(|maps| maps.borrow().pool.clone());
        c.run();
        let ended = ended.borrow_mut().take();
        ended.expect("the job ended")
    }

    #[test]
    fn every_way_out_of_the_task_table_gives_the_slot_back() {
        // A clean job with reducers: every attempt commits.
        let mut c = small_cluster(2, 2);
        let (r, failed) = run_lawfully(&mut c, word_count_job(mem_splits(6, 100), 2));
        assert!(failed.is_none());
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 2.0);

        // Node 1 computes 20x slower: twins on node 0 win and the
        // originals are dropped.
        let mut c = small_cluster(2, 2);
        c.sim.faults.install(FaultPlan::none().slow_node(1, 20.0));
        let (r, failed) = run_lawfully(&mut c, slow_map_job(4, 10.0, FtConfig::default()));
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::SPECULATIVE_WON) >= 1.0,
            "{:?}",
            r.counters
        );

        // Node 1 dies mid-wave: its attempts are withdrawn and retried.
        let mut c = small_cluster(3, 2);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 2.0));
        let (r, failed) = run_lawfully(&mut c, slow_map_job(6, 2.0, FtConfig::default()));
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "{:?}",
            r.counters
        );

        // A map that always fails: retries, then the run fails and its
        // attempts still in flight, the waiting reducer's among them, are
        // retired with it.
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(2, 100), 1);
        job.map_fn = Rc::new(|_, ctx| {
            ctx.charge("scan", 1.0);
            Err(MrError::msg("kaboom"))
        });
        let (r, failed) = run_lawfully(&mut c, job);
        assert_eq!(failed, Some(MrError::msg("kaboom")));
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "{:?}",
            r.counters
        );
        assert!(
            r.counters.get(keys::REDUCE_ATTEMPTS) >= 1.0,
            "{:?}",
            r.counters
        );

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
        let (r, failed) = run_lawfully(&mut c, job);
        assert!(failed.is_none());
        assert!(
            r.counters.get(keys::REDUCES_PREEMPTED) >= 1.0,
            "{:?}",
            r.counters
        );
    }
}
