//! Failure detection: planned node kills, the heartbeat suspicion ladder,
//! per-attempt hang deadlines — and the one node-withdrawal path they share.
//! Kills and heartbeats are the pool's: a node is withdrawn once, for every
//! live run that draws on it. Hang deadlines are each run's own.

use simnet::{FaultPlan, NodeId, Sim, SimTime};

use super::attempt::{fail_attempt, waiting, Attempt, Exit};
use super::nodes::Withdrawal;
use super::pool::{live_runs, schedule};
use super::pull::readers;
use super::{end_run, speculate, Driver, MrError, SharedDriver, SharedPool};
use crate::counters::keys;

/// Multiple of the q75 committed map duration after which a running attempt
/// is declared hung (floored by `FtConfig::hang_deadline_min_s`).
const HANG_DEADLINE_FACTOR: f64 = 3.0;

/// A worker the driver cannot hear from right now: hung, or cut off by an
/// active partition.
pub(super) fn node_silent(sim: &Sim, node: NodeId) -> bool {
    let now = sim.now().secs();
    sim.faults.node_hung(node.0, now) || sim.faults.partition_isolated(node.0, now)
}

/// Whether `plan` can produce silence: hangs and partitions never complete
/// on their own, so only a heartbeat or a deadline can recover from them.
/// Clean (and merely slow or crashy) plans arm neither and keep the driver's
/// event stream exactly as it is without a detector.
pub(super) fn plan_has_silence(plan: &FaultPlan) -> bool {
    !plan.node_hangs.is_empty() || !plan.partitions.is_empty()
}

/// Watch the fault plan on behalf of a freshly opened pool: queue its future
/// node kills and, when the plan can produce silence, count the partitions
/// whose onset falls inside the run and start the heartbeat loop.
pub(super) fn arm(sim: &mut Sim, pool: &SharedPool) {
    let now = sim.now().secs();
    let n_nodes = pool.borrow().nodes.len();
    let plan = sim.faults.plan();
    let heartbeats = plan_has_silence(plan);
    let kills: Vec<(u32, f64)> = plan
        .node_kills
        .iter()
        .filter(|(n, t)| (*n as usize) < n_nodes && t.is_finite() && *t > now)
        .cloned()
        .collect();
    let onsets: Vec<f64> = plan.partitions.iter().map(|p| p.from_s).collect();
    let active_now = plan
        .partitions
        .iter()
        .filter(|p| p.from_s <= now && p.active(now))
        .count();
    for (node, t) in kills {
        let pool = pool.clone();
        sim.at(SimTime(t), move |sim| {
            withdraw_node(sim, &pool, NodeId(node), Withdrawal::Killed)
        });
    }
    if !heartbeats {
        return;
    }
    if active_now > 0 {
        let mut p = pool.borrow_mut();
        p.counters.add(keys::PARTITIONS_OBSERVED, active_now as f64);
    }
    for t in onsets.into_iter().filter(|&t| t > now) {
        let pool = pool.clone();
        sim.at(SimTime(t), move |_sim| {
            if !live_runs(&pool).is_empty() {
                let mut p = pool.borrow_mut();
                p.counters.add(keys::PARTITIONS_OBSERVED, 1.0);
            }
        });
    }
    schedule_heartbeat(sim, pool, 1);
}

/// `node`'s slots are gone (see [`Withdrawal`]), for every live run: each
/// retires its attempts there as failed ([`Exit::Failed`]) — their slots
/// went with the node — and requeues their tasks on the survivors. A kill
/// also takes what the node held — its cluster-cache residency and, through
/// the pool's `on_node_lost`, a DAG's shuffle outputs — so no later task is
/// steered to, or served from, a ghost.
pub(super) fn withdraw_node(sim: &mut Sim, pool: &SharedPool, node: NodeId, why: Withdrawal) {
    let runs = live_runs(pool);
    if runs.is_empty() || !pool.borrow_mut().nodes.withdraw(node, why) {
        return;
    }
    let cause = match why {
        Withdrawal::Killed => {
            pool.borrow().cache.invalidate_node(node);
            "death of node"
        }
        Withdrawal::DeclaredDead => "declared-dead node",
    };
    for d in &runs {
        let exhausted = {
            let mut dd = d.borrow_mut();
            let mut exhausted: Option<MrError> = None;
            for id in dd.tasks.on_node(node) {
                let Some((info, Some(spent))) = dd.retire(id, Exit::Failed) else {
                    continue;
                };
                exhausted.get_or_insert(MrError::msg(format!(
                    "{:?} task {} lost to {cause} {} after {spent} attempts",
                    dd.kind, info.task, node.0
                )));
            }
            exhausted
        };
        if let Some(e) = exhausted {
            end_run(sim, d, Some(e));
        }
    }
    let on_node_lost = pool.borrow().node_lost_hook();
    if let Some(lost) = on_node_lost.filter(|_| why == Withdrawal::Killed) {
        lost(sim, node);
        disarm_reopened(pool);
    }
    schedule(sim, pool);
}

/// Queue heartbeat tick `k` of the failure detector at
/// `start + k·interval` simulated seconds. Each tick reschedules the next
/// while a run is alive, so the loop dies with the job and never keeps
/// the simulator spinning.
fn schedule_heartbeat(sim: &mut Sim, pool: &SharedPool, tick: u64) {
    let (start, interval) = {
        let p = pool.borrow();
        (p.start_s, p.ft.heartbeat_interval_s)
    };
    if interval <= 0.0 || !interval.is_finite() {
        return;
    }
    let pool = pool.clone();
    sim.at(SimTime(start + tick as f64 * interval), move |sim| {
        heartbeat_tick(sim, &pool, tick)
    });
}

/// One detector tick: every node delivers or misses its heartbeat (see
/// [`super::nodes::NodeTable::heartbeat`]); nodes whose misses reached the
/// dead threshold are withdrawn, and a healed one gets its slots back. A
/// node heard again before it was declared dead still runs its attempts:
/// those whose compute ended while it was silent lost their completions, and
/// get twins ([`speculate::stranded`]).
fn heartbeat_tick(sim: &mut Sim, pool: &SharedPool, tick: u64) {
    if live_runs(pool).is_empty() {
        return; // job finished: stop ticking
    }
    let (declare, slots_back, heard) = {
        let mut p = pool.borrow_mut();
        let suspect_after = p.ft.suspect_after_misses.max(1);
        let dead_after = p.ft.dead_after_misses.max(suspect_after);
        let interval = p.ft.heartbeat_interval_s;
        let mut declare: Vec<NodeId> = Vec::new();
        let mut slots_back = false;
        // Nodes heard again with their attempts, and when they last were.
        let mut heard: Vec<(NodeId, f64)> = Vec::new();
        for n in p.nodes.ids() {
            let beat = p
                .nodes
                .heartbeat(n, node_silent(sim, n), suspect_after, dead_after);
            for (happened, key) in [
                (beat.missed, keys::HEARTBEATS_MISSED),
                (beat.newly_suspected, keys::NODES_SUSPECTED),
                (beat.reinstated, keys::NODES_REINSTATED),
            ] {
                if happened {
                    p.counters.add(key, 1.0);
                }
            }
            if beat.declare_dead {
                declare.push(n);
            }
            if beat.misses > 0 && !beat.slots_back {
                let last_s = sim.now().secs() - (beat.misses + 1) as f64 * interval;
                heard.push((n, last_s));
            }
            slots_back |= beat.slots_back;
        }
        (declare, slots_back, heard)
    };
    for n in declare {
        withdraw_node(sim, pool, n, Withdrawal::DeclaredDead);
    }
    for (n, last_s) in heard {
        speculate::stranded(sim, pool, n, last_s);
    }
    if slots_back {
        schedule(sim, pool);
    }
    if !live_runs(pool).is_empty() {
        schedule_heartbeat(sim, pool, tick + 1);
    }
}

/// The hang deadline of an attempt armed now, when deadline checks are
/// armed: a generous multiple of the q75 committed task duration of the run
/// its plan prices it on — its producer, the maps' run, for a job's
/// reducers; its own for every DAG stage (the plan's `Stage::deadline_from`)
/// — floored while too few tasks have finished.
fn hang_deadline(dd: &Driver) -> Option<f64> {
    dd.hang_checks_armed.then(|| {
        let floor = dd.job.ft.hang_deadline_min_s;
        let q75 = match &dd.producer {
            Some(maps) => maps.borrow().durations.quantile(0.75),
            None => dd.durations.quantile(0.75),
        };
        floor.max(HANG_DEADLINE_FACTOR * q75)
    })
}

/// (Re)arm `att`'s hang deadline, when deadline checks are armed: it is
/// declared hung unless it ends, or is armed again, within `busy_s` plus the
/// deadline from now. `busy_s` is compute the driver itself has just
/// scheduled for the attempt — time it knows to be spent, which the
/// deadline must not eat: it is there for what a dropped completion can
/// strand.
pub(super) fn arm_deadline(sim: &mut Sim, att: &Attempt, busy_s: f64) {
    let armed = {
        let mut dd = att.d.borrow_mut();
        let deadline = hang_deadline(&dd);
        let info = dd.tasks.attempt_mut(att.id);
        deadline.zip(info).map(|(deadline, info)| {
            info.deadline_gen += 1;
            (busy_s + deadline, info.deadline_gen)
        })
    };
    if let Some((deadline, gen)) = armed {
        let a = att.clone();
        sim.after(deadline, move |sim| {
            hang_deadline_check(sim, &a, gen, deadline)
        });
    }
}

/// Run `d` has just closed: a run that pulls its output, and now has every
/// source closed, has attempts that from here on are stranded, not waiting,
/// if they do not finish — so the deadline of every pulling attempt launched
/// before this instant starts now.
pub(super) fn arm_readers(sim: &mut Sim, d: &SharedDriver) {
    for (reader, _) in readers(d) {
        if reader.borrow().input.as_ref().is_some_and(|i| i.open()) {
            continue;
        }
        for att in waiting(&reader) {
            arm_deadline(sim, &att, 0.0);
        }
    }
}

/// Outputs were just invalidated: every run of `pool` whose input is open
/// (again) has its waiting attempts waiting, not stranded — their deadlines
/// are off until the recompute closes the shuffle ([`arm_readers`]).
pub(super) fn disarm_reopened(pool: &SharedPool) {
    for run in live_runs(pool) {
        let mut rd = run.borrow_mut();
        if rd.input.as_ref().is_some_and(|i| i.open()) {
            rd.tasks.disarm_waiting();
        }
    }
}

/// The deadline armed as number `gen` fired: the attempt is hung if it is
/// still in flight and was not armed again since — an ordinary task failure,
/// whether a hung read stranded it on a healthy node or its node fell silent.
fn hang_deadline_check(sim: &mut Sim, att: &Attempt, gen: u32, deadline: f64) {
    let kind = {
        let mut dd = att.d.borrow_mut();
        if dd
            .tasks
            .attempt(att.id)
            .filter(|i| i.deadline_gen == gen)
            .is_none()
        {
            return; // finished, failed, orphaned or re-armed before the deadline
        }
        dd.counters.add(keys::TASKS_HANG_DETECTED, 1.0);
        dd.kind
    };
    let err = MrError::msg(format!(
        "{kind:?} task {} hung on node {}: no completion within its {deadline:.1}s deadline",
        att.task, att.node.0
    ));
    fail_attempt(sim, &att.d, att.id, err);
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::dag::tests::{count_reader, sum_agg};
    use crate::dag::{run_dag, DagJob, DagResult};
    use crate::dataset::{AggFn, Dataset, RecordReadFn};
    use crate::job::tests::{mem_splits, slow_map_job, small_cluster};
    use crate::job::{run_job, FtConfig, MrError, Payload};
    use simnet::FaultPlan;
    use std::rc::Rc;

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
        // A hang never heals: no reinstatement.
        assert_eq!(r.counters.get(keys::NODES_REINSTATED), 0.0);
        assert!(r.counters.get(keys::TASK_RETRIES) >= 1.0);
        let summary = r.fault_summary().expect("degraded run has a summary");
        assert!(summary.contains("suspected"), "summary: {summary}");
    }

    #[test]
    fn healed_partition_reinstates_the_node() {
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
    }

    #[test]
    fn a_job_whose_every_node_is_withdrawn_ends_in_a_typed_error() {
        // One node killed, the other declared dead: no slot will ever free.
        let mut c = small_cluster(2, 1);
        let plan = FaultPlan::none().kill_node(0, 0.5).hang_node(1, 0.2);
        c.sim.faults.install(plan);
        let ft = FtConfig {
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 2,
            ..FtConfig::default()
        };
        let err = run_job(&mut c, slow_map_job(4, 2.0, ft)).unwrap_err();
        // Through `Sched::Stuck`, while heartbeats are still queued — never
        // as a simulator that ran dry.
        assert!(
            matches!(&err, MrError::Msg(m) if m.contains("no usable nodes left")),
            "{err:?}"
        );
    }

    #[test]
    fn a_dag_stage_attempt_stranded_after_long_sources_is_declared_hung_at_its_own_floor() {
        // Two 20 s source tasks feed one post-shuffle task on a third node,
        // which pulls both outputs and computes 4 s. Its node is cut off for
        // 5 s around the end of that compute: the completion is dropped, and
        // without speculation — which twins it when the node is heard again
        // — only its hang deadline can recover it.
        let dag = || {
            let read: RecordReadFn = Rc::new(|input, ctx| {
                ctx.charge("scan", 20.0);
                count_reader()(input, ctx)
            });
            let sum = sum_agg();
            let agg: AggFn = Rc::new(move |key, values, ctx| {
                ctx.charge("agg", 2.0);
                sum(key, values, ctx)
            });
            let plan = Dataset::from_splits(mem_splits(2, 100), read).reduce_by_key(1, agg);
            DagJob {
                ft: FtConfig {
                    speculative: false,
                    ..FtConfig::default()
                },
                ..DagJob::new("strand", plan, "out")
            }
        };
        let clean = run_dag(&mut small_cluster(3, 1), dag()).unwrap();
        let task =
            |r: &DagResult, run: usize| r.runs.get(run).and_then(|r| r.tasks.first()).cloned();
        let (source, last) = (task(&clean, 0).unwrap(), task(&clean, 1).unwrap());
        let floor = FtConfig::default().hang_deadline_min_s;
        assert!(
            3.0 * source.duration() > floor,
            "the sources would price it higher"
        );
        let mut c = small_cluster(3, 1);
        let (node, at) = (last.node.0, last.end_s);
        c.sim
            .faults
            .install(FaultPlan::none().partition(&[node], at - 0.5, at + 4.5));
        let r = run_dag(&mut c, dag()).unwrap();
        assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 1.0);
        // A DAG stage's deadline is priced on its own run, which has
        // committed nothing: the floor, counted from the compute's end, not
        // three times the sources' q75.
        let retry = task(&r, 1).unwrap();
        let waited = retry.start_s - last.end_s;
        assert!((waited - floor).abs() < 1e-6, "declared hung {waited} s on");
    }

    #[test]
    fn a_healthy_reducer_outlasting_the_deadline_is_not_declared_hung() {
        // Any plan that arms hang checks will do; this one hangs nothing.
        let plan = FaultPlan::none().hang_nth_read("no/such/file", 1);
        let mut c = small_cluster(2, 2);
        c.sim.faults.install(plan);
        let mut job = slow_map_job(2, 1.0, FtConfig::default());
        job.reduce_fn = Some(Rc::new(|key, values, ctx| {
            ctx.charge("reduce", 100.0);
            ctx.emit(key, Payload::Bytes(vec![values.len() as u8]));
            Ok(())
        }));
        // 200 s of reduce against a 45 s deadline that used to run from
        // launch: four "hung" attempts and a failed job.
        let r = run_job(&mut c, job).expect("a long reduce is not a hang");
        assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 1.0);
        assert!(r.elapsed() > 200.0);
    }
}
