//! Per-node slot and health state of one job — or of one DAG, whose stage
//! runs all draw on the same table — behind checked accessors:
//! every method takes the cluster's [`NodeId`] and treats an id outside the
//! table as a node with no slots (`None` / no-op), so the driver never
//! indexes a vector itself.
//!
//! A free slot is *warm* when the last attempt that ran in it committed: its
//! container is still up (Hadoop MRv1's JVM reuse within a job, a Spark
//! executor within an application), and the next attempt launched into it
//! starts without a start-up. Nothing else leaves a slot warm, and nothing
//! carries over to another table — another job or DAG.
//!
//! A node's local disk writes one map spill at a time: the others queue, in
//! the order their compute ended, behind the one it is writing (one
//! sequential stream per spindle, as TritonSort's writers and Impala's disk
//! I/O manager keep it). A withdrawn node's queue goes with its slots.

use std::collections::VecDeque;

use simnet::{NodeId, Sim};

use super::attempt::AttemptId;

/// A map output waiting for its node's disk: when its turn comes it starts
/// writing and returns true — or, its attempt no longer live, writes nothing
/// and returns false.
pub(super) type Spill = Box<dyn FnOnce(&mut Sim) -> bool>;

#[derive(Default)]
struct NodeState {
    free_slots: usize,
    /// Those of the free slots that are warm; never more than `free_slots`.
    warm_slots: usize,
    /// The attempt whose spill the disk is writing.
    disk_holder: Option<AttemptId>,
    /// The spills waiting for the disk, first come first.
    spills: VecDeque<(AttemptId, Spill)>,
    /// Killed by the fault plan — permanent.
    dead: bool,
    /// Suspicion ladder of the heartbeat failure detector (healthy →
    /// suspected → declared dead). Unlike `dead`, declared-dead is
    /// reversible: resumed heartbeats reinstate the node.
    suspected: bool,
    declared_dead: bool,
    /// Consecutive heartbeat misses.
    hb_misses: usize,
}

impl NodeState {
    fn usable(&self) -> bool {
        !self.dead && !self.declared_dead
    }
}

/// Why a node's slots are withdrawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Withdrawal {
    /// The fault plan killed the node: permanent, and its memory (cluster
    /// cache residency) is gone with it.
    Killed,
    /// The failure detector declared it dead: reversible — resumed
    /// heartbeats reinstate the node.
    DeclaredDead,
}

/// What one heartbeat observation changed on a node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Beat {
    pub missed: bool,
    pub newly_suspected: bool,
    /// The miss count reached the dead threshold: the caller withdraws the
    /// node ([`NodeTable::withdraw`]) once the sweep is over.
    pub declare_dead: bool,
    /// Heartbeats resumed on a suspected or declared-dead node.
    pub reinstated: bool,
    /// ... and it had been declared dead, so its slots are back.
    pub slots_back: bool,
    /// How many heartbeats in a row it had missed, when they resumed with
    /// this one; 0 otherwise.
    pub misses: usize,
}

pub(crate) struct NodeTable {
    slots_per_node: usize,
    nodes: Vec<NodeState>,
}

impl NodeTable {
    /// `n` nodes with `slots_per_node` free slots each; nodes `dead_at_start`
    /// names begin dead with none.
    pub fn new(
        n: usize,
        slots_per_node: usize,
        dead_at_start: impl Fn(NodeId) -> bool,
    ) -> NodeTable {
        let nodes = (0..n as u32)
            .map(|i| {
                let dead = dead_at_start(NodeId(i));
                NodeState {
                    dead,
                    free_slots: if dead { 0 } else { slots_per_node },
                    ..NodeState::default()
                }
            })
            .collect();
        NodeTable {
            slots_per_node,
            nodes,
        }
    }

    fn get(&self, n: NodeId) -> Option<&NodeState> {
        self.nodes.get(n.0 as usize)
    }

    fn get_mut(&mut self, n: NodeId) -> Option<&mut NodeState> {
        self.nodes.get_mut(n.0 as usize)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    pub fn is_dead(&self, n: NodeId) -> bool {
        self.get(n).is_some_and(|s| s.dead)
    }

    /// Whether the scheduler may place work on `n`.
    pub fn usable(&self, n: NodeId) -> bool {
        self.get(n).is_some_and(NodeState::usable)
    }

    /// Free slots the scheduler may hand out on `n` (0 on a dead,
    /// declared-dead or unknown node).
    pub fn free(&self, n: NodeId) -> usize {
        self.get(n)
            .filter(|s| s.usable())
            .map_or(0, |s| s.free_slots)
    }

    /// Slots taken on nodes still in service: the attempts in flight (those
    /// of a withdrawn node ended with it).
    pub fn busy(&self) -> usize {
        let in_service = self.nodes.iter().filter(|s| s.usable());
        in_service
            .map(|s| self.slots_per_node.saturating_sub(s.free_slots))
            .sum()
    }

    /// Slots on nodes still in service, busy or free.
    pub fn usable_slots(&self) -> usize {
        let in_service = self.nodes.iter().filter(|s| s.usable());
        in_service.count() * self.slots_per_node
    }

    /// The node with the most free slots (the last such on a tie), leaving
    /// out those in `except`.
    pub fn most_free(&self, except: &[NodeId]) -> Option<NodeId> {
        self.ids()
            .filter(|&n| !except.contains(&n) && self.free(n) > 0)
            .max_by_key(|&n| self.free(n))
    }

    /// Take a free slot on `n`, a warm one first: whether it was warm.
    pub fn take_slot(&mut self, n: NodeId) -> bool {
        let Some(s) = self.get_mut(n) else {
            return false;
        };
        s.free_slots = s.free_slots.saturating_sub(1);
        let warm = s.warm_slots > 0;
        s.warm_slots = s.warm_slots.saturating_sub(1);
        warm
    }

    /// Give back, cold, the slot of an attempt that ended on `n` without
    /// committing — failed, preempted, orphaned or abandoned: its container
    /// was killed. A no-op (false) on a withdrawn node: its slots went with
    /// it and come back only through reinstatement.
    pub fn release(&mut self, n: NodeId) -> bool {
        match self.get_mut(n) {
            Some(s) if s.usable() => {
                s.free_slots += 1;
                true
            }
            _ => false,
        }
    }

    /// Give back the slot of an attempt that committed on `n`, warm.
    pub fn release_warm(&mut self, n: NodeId) -> bool {
        let released = self.release(n);
        if let Some(s) = self.get_mut(n).filter(|_| released) {
            s.warm_slots += 1;
        }
        released
    }

    /// Ask for `n`'s disk for the spill of attempt `id`: handed back, to be
    /// written now, when the disk is idle (or the node unknown); queued
    /// behind the spills already waiting otherwise.
    pub fn queue_spill(&mut self, n: NodeId, id: AttemptId, spill: Spill) -> Option<Spill> {
        let Some(s) = self.get_mut(n) else {
            return Some(spill);
        };
        if s.disk_holder.is_some() {
            s.spills.push_back((id, spill));
            return None;
        }
        s.disk_holder = Some(id);
        Some(spill)
    }

    /// The spill of attempt `id` is on `n`'s disk, or was never written: the
    /// disk passes to the spill queued first, handed back with its attempt
    /// to be written now, and is idle when none waits. A no-op when `id` does
    /// not hold the disk — the node was withdrawn since.
    pub fn spill_written(&mut self, n: NodeId, id: AttemptId) -> Option<(AttemptId, Spill)> {
        let s = self.get_mut(n).filter(|s| s.disk_holder == Some(id))?;
        let next = s.spills.pop_front();
        s.disk_holder = next.as_ref().map(|&(next_id, _)| next_id);
        next
    }

    /// Withdraw `n`'s slots, warm ones included, and drop its spill queue: a
    /// node reinstated later comes back cold, its disk idle. False when that
    /// withdrawal already happened (or the node is unknown) and there is
    /// nothing to do.
    pub(super) fn withdraw(&mut self, n: NodeId, why: Withdrawal) -> bool {
        let Some(s) = self.get_mut(n) else {
            return false;
        };
        if s.dead || (why == Withdrawal::DeclaredDead && s.declared_dead) {
            return false;
        }
        match why {
            Withdrawal::Killed => s.dead = true,
            Withdrawal::DeclaredDead => s.declared_dead = true,
        }
        s.free_slots = 0;
        s.warm_slots = 0;
        s.disk_holder = None;
        s.spills.clear();
        true
    }

    /// One detector tick for `n`: a `silent` node cannot deliver its
    /// heartbeat, and consecutive misses walk it up the suspicion ladder; a
    /// resumed heartbeat walks it back down, returning a declared-dead
    /// node's slots, cold. A killed node is permanently out of the detector's
    /// scope.
    pub(super) fn heartbeat(
        &mut self,
        n: NodeId,
        silent: bool,
        suspect_after: usize,
        dead_after: usize,
    ) -> Beat {
        let slots_per_node = self.slots_per_node;
        let mut beat = Beat::default();
        let Some(s) = self.get_mut(n).filter(|s| !s.dead) else {
            return beat;
        };
        if silent {
            s.hb_misses += 1;
            beat.missed = true;
            beat.newly_suspected = s.hb_misses >= suspect_after && !s.suspected;
            s.suspected |= beat.newly_suspected;
            beat.declare_dead = s.hb_misses >= dead_after && !s.declared_dead;
        } else if s.hb_misses > 0 {
            beat.misses = std::mem::take(&mut s.hb_misses);
            beat.reinstated = s.suspected || s.declared_dead;
            beat.slots_back = s.declared_dead;
            s.suspected = false;
            if s.declared_dead {
                s.declared_dead = false;
                s.free_slots = slots_per_node;
            }
        }
        beat
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    fn table() -> NodeTable {
        // Node 1 starts dead.
        NodeTable::new(3, 2, |n| n == NodeId(1))
    }

    #[test]
    fn release_on_a_withdrawn_node_is_a_no_op() {
        let mut t = table();
        assert_eq!((t.free(NodeId(0)), t.free(NodeId(1))), (2, 0));
        t.take_slot(NodeId(0));
        assert_eq!((t.free(NodeId(0)), t.busy()), (1, 1));
        assert!(t.withdraw(NodeId(0), Withdrawal::DeclaredDead));
        assert!(
            !t.release(NodeId(0)),
            "a declared-dead node takes no slot back"
        );
        assert!(!t.release(NodeId(1)), "nor does a killed one");
        assert_eq!((t.free(NodeId(0)), t.free(NodeId(1))), (0, 0));
        assert_eq!(t.busy(), 0, "the withdrawn node's attempt ended with it");
        assert!(t.release(NodeId(2)));
        assert_eq!(t.free(NodeId(2)), 3);
    }

    #[test]
    fn withdraw_is_idempotent_and_kill_outranks_declared_dead() {
        let mut t = table();
        assert!(!t.withdraw(NodeId(1), Withdrawal::Killed), "already dead");
        assert!(!t.withdraw(NodeId(1), Withdrawal::DeclaredDead));
        assert!(t.withdraw(NodeId(2), Withdrawal::DeclaredDead));
        assert!(!t.withdraw(NodeId(2), Withdrawal::DeclaredDead));
        // A kill still lands on a declared-dead node (and is permanent).
        assert!(t.withdraw(NodeId(2), Withdrawal::Killed));
        assert!(t.is_dead(NodeId(2)));
        assert_eq!(t.ids().filter(|&n| t.usable(n)).count(), 1);
    }

    #[test]
    fn heartbeats_walk_the_ladder_up_and_reinstate_on_the_way_down() {
        let mut t = table();
        let n = NodeId(2);
        t.take_slot(n);
        let b = t.heartbeat(n, true, 1, 2);
        assert!(b.missed && b.newly_suspected && !b.declare_dead);
        let b = t.heartbeat(n, true, 1, 2);
        assert!(b.missed && !b.newly_suspected && b.declare_dead);
        assert!(t.withdraw(n, Withdrawal::DeclaredDead));
        assert_eq!(t.free(n), 0);
        let b = t.heartbeat(n, false, 1, 2);
        assert_eq!(
            b,
            Beat {
                reinstated: true,
                slots_back: true,
                misses: 2,
                ..Beat::default()
            }
        );
        assert_eq!(t.free(n), 2, "reinstatement returns the full slot count");
        // A steady healthy node and a dead node report nothing.
        assert_eq!(t.heartbeat(n, false, 1, 2), Beat::default());
        assert_eq!(t.heartbeat(NodeId(1), true, 1, 2), Beat::default());
    }

    #[test]
    fn out_of_range_node_ids_never_panic() {
        let mut t = table();
        let ghost = NodeId(99);
        assert_eq!(t.free(ghost), 0);
        assert!(!t.is_dead(ghost));
        t.take_slot(ghost);
        assert!(!t.release(ghost));
        assert!(!t.withdraw(ghost, Withdrawal::Killed));
        assert_eq!(t.heartbeat(ghost, true, 1, 1), Beat::default());
        assert_eq!(t.most_free(&[ghost]), Some(NodeId(2)));
        assert_eq!(t.len(), 3);
    }

    /// `(free, warm)` slots of `n`, whatever its health.
    pub(in crate::job) fn slots(t: &NodeTable, n: NodeId) -> (usize, usize) {
        t.get(n).map_or((0, 0), |s| (s.free_slots, s.warm_slots))
    }

    #[test]
    fn only_a_commit_warms_a_slot() {
        let mut t = table();
        let n = NodeId(0);
        assert!(!t.take_slot(n), "a fresh slot is cold");
        assert!(t.release(n));
        assert!(
            !t.take_slot(n),
            "an attempt that ended uncommitted leaves it cold"
        );
        assert!(t.release_warm(n));
        assert_eq!(slots(&t, n), (2, 1));
        assert!(t.take_slot(n), "the slot of a commit is handed out first");
        assert!(!t.take_slot(n), "the other one never ran a commit");
        assert_eq!(t.free(n), 0);
    }

    #[test]
    fn a_warm_slot_whose_attempt_fails_is_preempted_or_loses_comes_back_cold() {
        // A failed attempt, a preempted one and the orphaned loser of a
        // speculative race all end without committing: their slots go back
        // through `release`, and the container they ran in is gone.
        let mut t = table();
        let n = NodeId(2);
        t.take_slot(n);
        t.take_slot(n);
        assert!(t.release_warm(n) && t.release_warm(n));
        assert!(t.take_slot(n), "taken warm");
        assert!(t.release(n), "given back uncommitted");
        assert_eq!(slots(&t, n), (2, 1));
        assert!(t.take_slot(n));
        assert!(t.release(n));
        assert_eq!(slots(&t, n), (2, 0), "each such attempt cost a warm slot");
        assert!(!t.take_slot(n));
    }

    #[test]
    fn withdraw_clears_the_warm_count_and_reinstatement_brings_slots_back_cold() {
        let mut t = table();
        let n = NodeId(2);
        t.take_slot(n);
        assert!(t.release_warm(n));
        assert_eq!(slots(&t, n), (2, 1));
        assert!(t.withdraw(n, Withdrawal::DeclaredDead));
        assert_eq!(slots(&t, n), (0, 0));
        assert!(!t.release_warm(n), "a withdrawn node takes no slot back");
        assert_eq!(slots(&t, n), (0, 0));
        t.heartbeat(n, true, 1, 1);
        assert!(t.heartbeat(n, false, 1, 1).slots_back);
        assert_eq!(slots(&t, n), (2, 0), "every slot back, none warm");
        assert!(!t.take_slot(n) && !t.take_slot(n));
        // A kill clears them for good.
        let m = NodeId(0);
        t.take_slot(m);
        assert!(t.release_warm(m));
        assert!(t.withdraw(m, Withdrawal::Killed));
        assert_eq!(slots(&t, m), (0, 0));
    }

    /// A spill that would write.
    fn spill() -> Spill {
        Box::new(|_| true)
    }

    /// Spills waiting for `n`'s disk.
    fn queued(t: &NodeTable, n: NodeId) -> usize {
        t.get(n).map_or(0, |s| s.spills.len())
    }

    #[test]
    fn a_disk_writes_one_spill_at_a_time_first_come_first() {
        let mut t = table();
        let n = NodeId(0);
        assert!(
            t.queue_spill(n, 1, spill()).is_some(),
            "an idle disk writes"
        );
        assert!(t.queue_spill(n, 2, spill()).is_none());
        assert!(t.queue_spill(n, 3, spill()).is_none());
        assert!(
            t.queue_spill(NodeId(2), 4, spill()).is_some(),
            "another disk"
        );
        assert_eq!(queued(&t, n), 2);
        assert!(
            t.spill_written(n, 2).is_none(),
            "only the holder passes it on"
        );
        assert_eq!(t.spill_written(n, 1).map(|(id, _)| id), Some(2));
        assert_eq!(t.spill_written(n, 2).map(|(id, _)| id), Some(3));
        assert!(t.spill_written(n, 3).is_none());
        assert!(t.queue_spill(n, 5, spill()).is_some(), "idle again");
        assert!(
            t.queue_spill(NodeId(99), 6, spill()).is_some(),
            "unknown node"
        );
    }

    #[test]
    fn withdraw_drops_the_spill_queue_and_reinstatement_brings_an_idle_disk() {
        let mut t = table();
        let n = NodeId(2);
        assert!(t.queue_spill(n, 1, spill()).is_some());
        assert!(t.queue_spill(n, 2, spill()).is_none());
        assert!(t.withdraw(n, Withdrawal::DeclaredDead));
        assert_eq!(queued(&t, n), 0, "the queue went with the node");
        t.heartbeat(n, true, 1, 1);
        assert!(t.heartbeat(n, false, 1, 1).slots_back);
        assert!(t.queue_spill(n, 3, spill()).is_some(), "an idle disk");
        assert!(t.queue_spill(n, 4, spill()).is_none());
        // The spill written when the node was withdrawn lands: the disk is
        // not its to pass on.
        assert!(t.spill_written(n, 1).is_none());
        assert_eq!(queued(&t, n), 1);
        assert_eq!(t.spill_written(n, 3).map(|(id, _)| id), Some(4));
    }

    #[test]
    fn warm_slots_never_exceed_free_ones() {
        // Every sequence of five operations on one node of two slots, from a
        // cold start and from a warm one.
        let ops = 7usize;
        for start_warm in [false, true] {
            for seq in 0..ops.pow(5) {
                let mut t = NodeTable::new(1, 2, |_| false);
                let n = NodeId(0);
                if start_warm {
                    t.take_slot(n);
                    t.release_warm(n);
                }
                let mut code = seq;
                for _ in 0..5 {
                    match code % ops {
                        0 => _ = t.take_slot(n),
                        1 => _ = t.release(n),
                        2 => _ = t.release_warm(n),
                        3 => _ = t.withdraw(n, Withdrawal::DeclaredDead),
                        4 => _ = t.heartbeat(n, true, 1, 1),
                        5 => _ = t.heartbeat(n, false, 1, 1),
                        _ => _ = t.withdraw(n, Withdrawal::Killed),
                    }
                    code /= ops;
                    let (free, warm) = slots(&t, n);
                    assert!(warm <= free, "sequence {seq}: {warm} warm of {free} free");
                }
            }
        }
    }
}
