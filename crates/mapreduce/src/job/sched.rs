//! Task placement as a pure function: [`pick_next`] reads a borrowed
//! [`View`] of one run and names the next `(task, node)` to launch; the
//! caller dequeues the task and takes the slot.

use std::collections::VecDeque;

use simnet::{ChunkKey, ClusterCache, NodeId};

use super::nodes::NodeTable;
use crate::input::InputSplit;

/// What the scheduler may look at.
pub(super) struct View<'a> {
    pub nodes: &'a NodeTable,
    /// The run's pending tasks.
    pub pending: &'a VecDeque<usize>,
    /// They pull a shuffle — a classic job's reducers, a post-shuffle
    /// stage's tasks — rather than fetch a split each.
    pub pulls: bool,
    /// The stage's splits, and the one each task fetches: task `t`'s is
    /// `splits[task_ids[t]]`.
    pub splits: &'a [InputSplit],
    pub task_ids: &'a [usize],
    /// Per-split cluster-cache chunk keys; empty when no split has a hint
    /// (always so when the cluster cache tier is disabled), and the cache
    /// tier is then skipped.
    pub cache_hints: &'a [Vec<ChunkKey>],
    pub cache: &'a ClusterCache,
    /// Attempts in flight, of every run that draws on `nodes`.
    pub running: usize,
    /// While the pulling tasks' input is open, a task launched now is
    /// *early* — it starts up and pulls, then waits: how many more of them
    /// each node may host meanwhile.
    pub room: Option<Vec<usize>>,
    /// Nodes no pulling task goes to: those found slow or silent
    /// (`speculate::shunned`). Empty for a run whose tasks fetch splits.
    pub shunned: Vec<NodeId>,
}

/// When a pulling task's merge is worth a slot a ready task of its producer
/// run wants (DESIGN.md §3.2 "Reduce slow-start"). Holding `reducers` of
/// `slots` slots stretches the map wave of a job `elapsed_s` in by about
/// `elapsed_s · R / (S − R)`; a launch now buys back at most the merge the
/// task owes so far. So it is *due* when that merge clears the stretch — and
/// a start-up, below which no launch pays. Nothing is due when the pulling
/// tasks would take every slot.
#[derive(Clone, Copy, Debug)]
pub(super) struct DueRule {
    pub startup_s: f64,
    /// Seconds since the job started.
    pub elapsed_s: f64,
    pub reducers: usize,
    /// Usable slots.
    pub slots: usize,
}

impl DueRule {
    /// Whether a task that owes `owed_s` seconds of merge is due.
    pub fn due(&self, owed_s: f64) -> bool {
        let for_maps = self.slots.saturating_sub(self.reducers);
        if for_maps == 0 {
            return false;
        }
        let stretch_s = self.elapsed_s * self.reducers as f64 / for_maps as f64;
        owed_s >= self.startup_s && owed_s >= stretch_s
    }
}

/// One placement: launch the task at position `pos` of the run's queue on
/// `node`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Pick {
    pub pos: usize,
    pub node: NodeId,
    /// `node` holds the split (static locality hit).
    pub local: bool,
    /// `node` holds the split's chunks in the cluster cache tier.
    pub cache_local: bool,
}

impl Pick {
    pub fn at(pos: usize, node: NodeId, local: bool, cache_local: bool) -> Pick {
        Pick {
            pos,
            node,
            local,
            cache_local,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
pub(super) enum Sched {
    Run(Pick),
    /// Work is pending but nothing runs, no usable node has a slot and none
    /// is merely suspected — no event will ever free one, so the job can
    /// only fail.
    Stuck(usize),
    Idle,
}

/// Whether `node` holds any chunk of split `task` in the cluster cache.
pub(super) fn cache_resident(
    cache_hints: &[Vec<ChunkKey>],
    cache: &ClusterCache,
    task: usize,
    node: NodeId,
) -> bool {
    cache_hints
        .get(task)
        .is_some_and(|hints| hints.iter().any(|&k| cache.holds(node, k)))
}

impl View<'_> {
    /// Whether task `task`'s split is stored on `node`.
    fn split_local(&self, task: usize, node: NodeId) -> bool {
        let split = self.task_ids.get(task).and_then(|&p| self.splits.get(p));
        split.is_some_and(|s| s.locations.contains(&node))
    }
}

/// Place the pulling task at position `pos` of the queue: on the
/// least-loaded node not shunned ([`View::shunned`]); while it is early (see
/// [`View::room`]), on the least-loaded such one that still has room for one
/// of its run, or nowhere. It is in no hurry, and slots free up one node at
/// a time while its sources run: tasks taking whichever came first would
/// pile their merges and writes onto one disk. A *due* one ([`DueRule`]) is
/// placed here too, ahead of its producer's ready tasks.
pub(super) fn place_pulling(v: &View, pos: usize) -> Option<Pick> {
    let has_room = |n: &NodeId| {
        v.room
            .as_ref()
            .is_none_or(|room| room.get(n.0 as usize).is_some_and(|&r| r > 0))
    };
    let free_nodes = v.nodes.ids().filter(|&n| v.nodes.free(n) > 0);
    let welcome = free_nodes.filter(|n| !v.shunned.contains(n));
    let node = welcome.filter(has_room).max_by_key(|&n| v.nodes.free(n));
    node.map(|node| Pick::at(pos, node, false, false))
}

/// The next task of the run to launch. A pulling run's head goes where
/// [`place_pulling`] puts it. For a run whose tasks fetch splits, the
/// preference tiers, first match wins: a pending split whose chunks are
/// resident in the cluster cache on a free node (it skips its PFS reads
/// entirely); a pending split stored on a free node; the head of the queue on
/// the least-loaded node.
pub(super) fn pick_next(v: &View) -> Sched {
    let free_nodes = || v.nodes.ids().filter(|&n| v.nodes.free(n) > 0);
    if v.pulls {
        if let Some(pick) = v.pending.front().and_then(|_| place_pulling(v, 0)) {
            return Sched::Run(pick);
        }
    } else if !v.pending.is_empty() {
        if !v.cache_hints.is_empty() {
            for node in free_nodes() {
                let resident = |&t: &usize| cache_resident(v.cache_hints, v.cache, t, node);
                if let Some(pos) = v.pending.iter().position(resident) {
                    let local = v.pending.get(pos).is_some_and(|&t| v.split_local(t, node));
                    return Sched::Run(Pick::at(pos, node, local, true));
                }
            }
        }
        for node in free_nodes() {
            let stored_here = |&t: &usize| v.split_local(t, node);
            if let Some(pos) = v.pending.iter().position(stored_here) {
                return Sched::Run(Pick::at(pos, node, true, false));
            }
        }
        if let Some(node) = v.nodes.most_free(&[]) {
            return Sched::Run(Pick::at(0, node, false, false));
        }
    }
    // A pulling task passing up slots for want of room is waiting by choice:
    // its run's attempts hold slots on every node it passes up. A suspected
    // node may be heard again, and its slots offered again.
    let waiting = v.pending.len();
    let may_be_heard = || v.nodes.ids().any(|n| v.nodes.suspected(n));
    if waiting > 0 && v.running == 0 && !may_be_heard() {
        Sched::Stuck(waiting)
    } else {
        Sched::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InMemoryFetcher;
    use std::rc::Rc;

    fn split(locations: &[u32]) -> InputSplit {
        InputSplit {
            length: 1,
            locations: locations.iter().map(|&n| NodeId(n)).collect(),
            fetcher: Rc::new(InMemoryFetcher { data: Vec::new() }),
        }
    }

    struct World {
        nodes: NodeTable,
        /// A producer run's ready tasks, and its reader's pulling tasks.
        ready: VecDeque<usize>,
        pulling: VecDeque<usize>,
        splits: Vec<InputSplit>,
        task_ids: Vec<usize>,
        hints: Vec<Vec<ChunkKey>>,
        cache: ClusterCache,
        running: usize,
        room: Option<Vec<usize>>,
        shunned: Vec<NodeId>,
        /// Merge seconds each pulling task owes, by task index (none: 0).
        owed: Vec<f64>,
        rule: DueRule,
    }

    /// Which run a pick is of.
    #[derive(Debug, PartialEq, Eq)]
    enum Q {
        Ready,
        Pulling,
    }

    impl World {
        /// 3 nodes x 2 slots; ready splits 0..4 with split 2 stored on node
        /// 1, and reducers to pull. Two of them, 10 s into the job: a reducer
        /// owing 5 s of merge clears the stretch floor, `10 · 2 / (6 − 2)`.
        fn new() -> World {
            World {
                nodes: NodeTable::new(3, 2, |_| false),
                ready: (0..4).collect(),
                pulling: VecDeque::new(),
                splits: vec![split(&[]), split(&[]), split(&[1]), split(&[])],
                task_ids: (0..4).collect(),
                hints: Vec::new(),
                cache: ClusterCache::new(1 << 20),
                running: 0,
                room: None,
                shunned: Vec::new(),
                owed: Vec::new(),
                rule: DueRule {
                    startup_s: 1.0,
                    elapsed_s: 10.0,
                    reducers: 2,
                    slots: 6,
                },
            }
        }

        fn view<'a>(&'a self, pending: &'a VecDeque<usize>, pulls: bool) -> View<'a> {
            View {
                nodes: &self.nodes,
                pending,
                pulls,
                splits: &self.splits,
                task_ids: &self.task_ids,
                cache_hints: &self.hints,
                cache: &self.cache,
                running: self.running,
                room: self.room.clone(),
                shunned: self.shunned.clone(),
            }
        }

        /// What the pool's scheduler launches next of the two runs: a due
        /// pulling task while ready tasks are pending, then the producer's
        /// ready tasks, then the pulling run's.
        fn pick(&self) -> Option<(Q, Pick)> {
            let due = |r: usize| self.owed.get(r).is_some_and(|&s| self.rule.due(s));
            if !self.ready.is_empty() {
                let pulling = self.view(&self.pulling, true);
                let pos = self.pulling.iter().position(|&t| due(t));
                if let Some(pick) = pos.and_then(|pos| place_pulling(&pulling, pos)) {
                    return Some((Q::Pulling, pick));
                }
            }
            for (q, pending, pulls) in [
                (Q::Ready, &self.ready, false),
                (Q::Pulling, &self.pulling, true),
            ] {
                if let Sched::Run(pick) = pick_next(&self.view(pending, pulls)) {
                    return Some((q, pick));
                }
            }
            None
        }
    }

    fn run(q: Q, pos: usize, node: u32, local: bool, cache_local: bool) -> Option<(Q, Pick)> {
        let pick = Pick {
            pos,
            node: NodeId(node),
            local,
            cache_local,
        };
        Some((q, pick))
    }

    #[test]
    fn cache_resident_split_outranks_a_stored_one() {
        let mut w = World::new();
        let key: ChunkKey = (7, 0);
        w.hints = vec![Vec::new(), Vec::new(), Vec::new(), vec![key]];
        w.cache
            .insert(NodeId(2), key, std::sync::Arc::new(vec![0; 16]));
        // Split 3 (queue position 3) is cache-resident on node 2; split 2
        // is merely stored on node 1.
        assert_eq!(w.pick(), run(Q::Ready, 3, 2, false, true));
        // No slot on the caching node: the next tier (static locality).
        w.nodes.take_slot(NodeId(2));
        w.nodes.take_slot(NodeId(2));
        assert_eq!(w.pick(), run(Q::Ready, 2, 1, true, false));
    }

    #[test]
    fn stored_split_runs_on_its_node_then_least_loaded_takes_the_queue_head() {
        let mut w = World::new();
        assert_eq!(w.pick(), run(Q::Ready, 2, 1, true, false));
        w.ready.remove(2);
        // Nothing else is stored anywhere: queue head on the node with the
        // most free slots — the last one on a tie.
        assert_eq!(w.pick(), run(Q::Ready, 0, 2, false, false));
        w.nodes.take_slot(NodeId(2));
        w.nodes.take_slot(NodeId(1));
        assert_eq!(w.pick(), run(Q::Ready, 0, 0, false, false));
    }

    #[test]
    fn a_pulling_task_takes_the_least_loaded_node_with_room() {
        let mut w = World::new();
        w.pulling = (0..4).collect();
        // Four tasks over three nodes: two per node at most — and node 2
        // already runs its two.
        w.room = Some(vec![2, 2, 0]);
        assert!(
            matches!(w.pick(), Some((Q::Ready, _))),
            "the producer's ready tasks go first"
        );
        w.ready.clear();
        w.nodes.take_slot(NodeId(0));
        assert_eq!(w.pick(), run(Q::Pulling, 0, 1, false, false));
        w.nodes.take_slot(NodeId(1));
        w.nodes.take_slot(NodeId(1));
        assert_eq!(w.pick(), run(Q::Pulling, 0, 0, false, false));
        w.nodes.take_slot(NodeId(0));
        // Only node 2 has a slot left, and no room: the rest wait.
        w.running = 5;
        let pulling = w.view(&w.pulling, true);
        assert_eq!(
            pick_next(&pulling),
            Sched::Idle,
            "waiting by choice is not stuck"
        );
        // Once the input has closed the head goes to the least-loaded node.
        w.room = None;
        assert_eq!(w.pick(), run(Q::Pulling, 0, 2, false, false));
    }

    #[test]
    fn a_due_reducer_goes_ahead_of_a_stored_split() {
        let mut w = World::new();
        w.pulling = [3, 4].into();
        w.owed = vec![0.0, 0.0, 0.0, 0.0, 5.0];
        w.room = Some(vec![1, 1, 1]);
        // Reducer 4, second in the queue, is due: the least-loaded node with
        // room, not node 1, where split 2 is stored.
        assert_eq!(w.pick(), run(Q::Pulling, 1, 2, false, false));
        // No room left anywhere, it waits: the maps take the nodes.
        w.room = Some(vec![0, 0, 0]);
        assert_eq!(w.pick(), run(Q::Ready, 2, 1, true, false));
    }

    #[test]
    fn a_reducer_below_either_floor_is_not_due() {
        let mut w = World::new();
        w.pulling = [4].into();
        let stored = run(Q::Ready, 2, 1, true, false);
        // Below the stretch floor (5 s), above a start-up.
        w.owed = vec![0.0, 0.0, 0.0, 0.0, 4.9];
        assert_eq!(w.pick(), stored);
        // Above the stretch floor at the job's start, below a start-up.
        w.rule.elapsed_s = 0.0;
        w.owed[4] = 0.9;
        assert_eq!(w.pick(), stored);
        w.owed[4] = 1.0;
        assert_eq!(w.pick(), run(Q::Pulling, 0, 2, false, false));
    }

    #[test]
    fn nothing_is_due_when_the_reducers_would_take_every_slot() {
        let mut w = World::new();
        w.pulling = [4].into();
        w.owed = vec![0.0, 0.0, 0.0, 0.0, 1e9];
        w.rule.elapsed_s = 0.0;
        for reducers in [6, 7] {
            w.rule.reducers = reducers;
            assert!(!w.rule.due(1e9));
            assert_eq!(w.pick(), run(Q::Ready, 2, 1, true, false));
        }
        w.rule.reducers = 5;
        assert_eq!(w.pick(), run(Q::Pulling, 0, 2, false, false));
    }

    #[test]
    fn stuck_only_when_work_waits_and_nothing_can_ever_free_a_slot() {
        let mut w = World::new();
        for n in w.nodes.ids().collect::<Vec<_>>() {
            w.nodes.take_slot(n);
            w.nodes.take_slot(n);
        }
        let pick = |w: &World| pick_next(&w.view(&w.ready, false));
        // Every slot busy with attempts in flight: wait for one to end.
        w.running = 6;
        assert_eq!(pick(&w), Sched::Idle);
        // Nothing in flight and still no slot: no event will free one.
        w.running = 0;
        assert_eq!(pick(&w), Sched::Stuck(4));
        // Unless a node in service is only suspected: it may be heard again.
        w.nodes.heartbeat(NodeId(0), true, 1, 2);
        assert_eq!(pick(&w), Sched::Idle);
        // Nothing pending at all is merely idle.
        w.ready.clear();
        assert_eq!(pick(&w), Sched::Idle);
    }

    #[test]
    fn locality_preferred_when_available() {
        use crate::counters::keys;
        use crate::job::tests::{small_cluster, word_count_job};
        let mut c = small_cluster(2, 1);
        // Stage a real HDFS file: 2 blocks land on different nodes.
        hdfs::write_file(
            &mut c.sim,
            &c.topo,
            &c.hdfs,
            NodeId(0),
            "in",
            vec![1u8; (1 << 16) + 100],
            |_, r| r.unwrap(),
        );
        c.run();
        let env = c.env();
        let splits = crate::input::hdfs_file_splits(&env, "in").expect("staged input path");
        assert_eq!(splits.len(), 2);
        let job = word_count_job(splits, 1);
        let r = crate::job::run_job(&mut c, job).unwrap();
        // Both blocks were written from node 0 → both local there; at least
        // one map must be data-local.
        assert!(r.counters.get(keys::LOCAL_MAPS) >= 1.0);
        // Both maps are locality-eligible (located splits): each counts as
        // local or remote, and none as any-locality.
        let local = r.counters.get(keys::LOCAL_MAPS);
        let remote = r.counters.get(keys::REMOTE_MAPS);
        assert_eq!(local + remote, 2.0, "both maps locality-eligible");
        assert_eq!(r.counters.get(keys::ANY_MAPS), 0.0);
        for t in r.tasks.iter().filter(|t| t.kind == crate::TaskKind::Map) {
            assert!(t.phase("read") > 0.0, "read phase recorded");
            assert!(t.phase("startup") > 0.0);
        }
    }

    #[test]
    fn non_local_tasks_spread_across_nodes() {
        use crate::job::tests::{mem_splits, small_cluster, word_count_job};
        // Location-free splits must not pile onto node 0: with 4 nodes and
        // 4 equal tasks, every node runs exactly one.
        let mut c = small_cluster(4, 8);
        let mut nodes_used = std::collections::HashSet::new();
        let job = word_count_job(mem_splits(4, 100), 1);
        let r = crate::job::run_job(&mut c, job).unwrap();
        for t in r.tasks.iter().filter(|t| t.kind == crate::TaskKind::Map) {
            nodes_used.insert(t.node);
        }
        assert_eq!(nodes_used.len(), 4, "tasks not spread: {nodes_used:?}");
    }
}
