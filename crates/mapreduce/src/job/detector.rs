//! Failure detection: planned node kills, the heartbeat suspicion ladder,
//! per-attempt hang deadlines — and the one node-withdrawal path they share.
//! Kills and heartbeats are the pool's: a node is withdrawn once, for every
//! live run that draws on it. Hang deadlines are each run's own.

use simnet::{FaultPlan, NodeId, Sim, SimTime};

use super::attempt::{waiting, Attempt, Exit};
use super::nodes::Withdrawal;
use super::pool::schedule;
use super::pull::{self, readers};
use super::{end_run, speculate, MrError, Pool, SharedPool};
use crate::counters::keys;
use crate::dag;

/// Multiple of the q75 committed task duration of the attempt's own run
/// after which it is declared hung (floored by
/// `FtConfig::hang_deadline_min_s`).
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
            if !pool.borrow().live.is_empty() {
                let mut p = pool.borrow_mut();
                p.counters.add(keys::PARTITIONS_OBSERVED, 1.0);
            }
        });
    }
    schedule_heartbeat(sim, pool, 1);
}

/// `node`'s slots are gone (see [`Withdrawal`]), for every live run: each
/// retires its attempts there as failed ([`Exit::Failed`]) — their slots
/// went with the node — and requeues their tasks on the survivors. The
/// shuffle outputs on its disk go too ([`dag::node_lost`]): this is the one
/// way an output is lost, and the readers of a shuffle it reopens wait
/// again, their hang deadlines off. A kill also takes the node's
/// cluster-cache residency, so no later task is steered to, or served from,
/// a ghost.
pub(super) fn withdraw_node(sim: &mut Sim, pool: &SharedPool, node: NodeId, why: Withdrawal) {
    let runs = pool.borrow().live.clone();
    if runs.is_empty() || !pool.borrow_mut().nodes.withdraw(node, why) {
        return;
    }
    let cause = match why {
        Withdrawal::Killed => {
            pool.borrow().env.cluster_cache.invalidate_node(node);
            "death of node"
        }
        Withdrawal::DeclaredDead => "declared-dead node",
    };
    for run in runs {
        let exhausted = {
            let mut p = pool.borrow_mut();
            let Some((d, stage)) = p.run(run) else {
                continue;
            };
            let (on_node, kind) = (d.tasks.on_node(node), stage.kind);
            let mut exhausted: Option<MrError> = None;
            for id in on_node {
                let Some((info, Some(spent))) = p.retire(run, id, Exit::Failed) else {
                    continue;
                };
                exhausted.get_or_insert(MrError::msg(format!(
                    "{kind:?} task {} lost to {cause} {} after {spent} attempts",
                    info.task, node.0
                )));
            }
            exhausted
        };
        if let Some(e) = exhausted {
            end_run(sim, pool, run, Some(e));
        }
    }
    dag::node_lost(sim, pool, node);
    disarm_reopened(pool);
    schedule(sim, pool);
}

/// Queue heartbeat tick `k` of the failure detector at
/// `start + k·interval` simulated seconds. Each tick reschedules the next
/// while a run is alive, so the loop dies with the job and never keeps
/// the simulator spinning.
fn schedule_heartbeat(sim: &mut Sim, pool: &SharedPool, tick: u64) {
    let (start, interval) = {
        let p = pool.borrow();
        (p.start_s, p.plan.ft().heartbeat_interval_s)
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
/// node newly suspected has every attempt there flagged for a twin
/// ([`speculate::suspected`]) and takes no new one. A node heard again
/// before it was declared dead still runs its attempts: those whose compute
/// ended while it was silent lost their completions, and get twins
/// ([`speculate::stranded`]). Whenever a node is heard again, the pulls put
/// off for want of a link are tried again ([`pull::retry_deferred`]), and a
/// node that was suspected offers its slots again.
fn heartbeat_tick(sim: &mut Sim, pool: &SharedPool, tick: u64) {
    if pool.borrow().live.is_empty() {
        return; // job finished: stop ticking
    }
    let (declare, suspected, reinstated, heard) = {
        let mut p = pool.borrow_mut();
        let ft = p.plan.ft();
        let suspect_after = ft.suspect_after_misses.max(1);
        let dead_after = ft.dead_after_misses.max(suspect_after);
        let interval = ft.heartbeat_interval_s;
        let (mut declare, mut suspected) = (Vec::new(), Vec::new());
        let mut reinstated = false;
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
            if beat.newly_suspected {
                suspected.push(n);
            }
            if beat.misses > 0 && !beat.slots_back {
                let last_s = sim.now().secs() - (beat.misses + 1) as f64 * interval;
                heard.push((n, last_s));
            }
            reinstated |= beat.reinstated;
        }
        (declare, suspected, reinstated, heard)
    };
    for n in declare {
        withdraw_node(sim, pool, n, Withdrawal::DeclaredDead);
    }
    for n in suspected {
        speculate::suspected(sim, pool, n);
    }
    // Every node heard again after a miss: reinstated, or still in service.
    let any_heard = reinstated || !heard.is_empty();
    for (n, last_s) in heard {
        speculate::stranded(sim, pool, n, last_s);
    }
    if any_heard {
        pull::retry_deferred(sim, pool);
    }
    if reinstated {
        schedule(sim, pool);
    }
    if !pool.borrow().live.is_empty() {
        schedule_heartbeat(sim, pool, tick + 1);
    }
}

/// The hang deadline of an attempt armed now, when deadline checks are
/// armed: a generous multiple of the q75 committed task duration of its own
/// run, floored while too few of its tasks have finished.
fn hang_deadline(p: &Pool, run: usize) -> Option<f64> {
    let (d, stage) = p.run(run)?;
    d.hang_checks_armed.then(|| {
        let floor = stage.job.ft.hang_deadline_min_s;
        floor.max(HANG_DEADLINE_FACTOR * d.durations.quantile(0.75))
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
        let mut p = att.pool.borrow_mut();
        let deadline = hang_deadline(&p, att.run);
        let info = p.attempt_mut(att.run, att.id);
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

/// Run `run` has just closed: a run that pulls its output, and now has
/// every source closed, has attempts that from here on are stranded, not
/// waiting, if they do not finish — so the deadline of every pulling attempt
/// launched before this instant starts now.
pub(super) fn arm_readers(sim: &mut Sim, pool: &SharedPool, run: usize) {
    for (reader, _) in readers(pool, run) {
        if pool.borrow().waits(reader) {
            continue;
        }
        for att in waiting(pool, reader) {
            arm_deadline(sim, &att, 0.0);
        }
    }
}

/// Outputs were just invalidated: every run of `pool` whose input is open
/// (again) has its waiting attempts waiting, not stranded — their deadlines
/// are off until the recompute closes the shuffle ([`arm_readers`]).
pub(super) fn disarm_reopened(pool: &SharedPool) {
    let mut p = pool.borrow_mut();
    let reopened: Vec<usize> = p.live.iter().copied().filter(|&r| p.waits(r)).collect();
    for run in reopened {
        if let Some(d) = p.runs.get_mut(run) {
            d.tasks.disarm_waiting();
        }
    }
}

/// The deadline armed as number `gen` fired: the attempt is hung if it is
/// still in flight and was not armed again since — an ordinary task failure,
/// whether a hung read stranded it on a healthy node or its node fell silent.
fn hang_deadline_check(sim: &mut Sim, att: &Attempt, gen: u32, deadline: f64) {
    let kind = {
        let mut p = att.pool.borrow_mut();
        let armed = p
            .attempt(att.run, att.id)
            .is_some_and(|i| i.deadline_gen == gen);
        let Some(stage) = p.stage_of(att.run).filter(|_| armed) else {
            return; // finished, failed, orphaned or re-armed before the deadline
        };
        let kind = stage.kind;
        if let Some(d) = p.runs.get_mut(att.run) {
            d.counters.add(keys::TASKS_HANG_DETECTED, 1.0);
        }
        kind
    };
    let err = MrError::msg(format!(
        "{kind:?} task {} hung on node {}: no completion within its {deadline:.1}s deadline",
        att.task, att.node.0
    ));
    att.fail(sim, err);
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::dag::tests::{count_reader, sum_agg};
    use crate::dag::{run_dag, DagJob, DagResult};
    use crate::dataset::{AggFn, Dataset, RecordReadFn};
    use crate::job::tests::{
        mem_splits, one_long_map_job, scaled_cluster, slow_map_job, small_cluster,
    };
    use crate::job::{run_job, FtConfig, MrError, Payload, TaskKind};
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

    #[test]
    fn reopening_a_shuffle_disarms_its_readers_hang_deadlines() {
        // 3 nodes x 1 slot: the reducer takes the first slot the short maps
        // free. Map 0 ends 5.5 s after its launch, inside the 6 s floor of
        // its hang deadline.
        let ft = FtConfig {
            speculative: false,
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 3,
            hang_deadline_min_s: 6.0,
            ..FtConfig::default()
        };
        let job = || one_long_map_job(ft.clone());
        let mut clean_c = scaled_cluster(3, 1);
        let clean = run_job(&mut clean_c, job()).unwrap();
        let long = &clean.tasks[0];
        let reducer = clean.tasks.iter().find(|t| t.kind == TaskKind::Reduce);
        let reducer = reducer.expect("a reducer");
        assert!(reducer.start_s < long.end_s && reducer.node != long.node);
        // The long map's node is cut off for good while it spills: the spill
        // commits and closes the shuffle, and the reducer puts its pull off.
        // The node is declared dead at the third heartbeat it misses, which
        // loses the output and reopens the shuffle; the recompute ends after
        // the reducer's 6 s deadline, armed at the close. Left
        // armed, that deadline would declare the waiting reducer hung.
        let mut c = scaled_cluster(3, 1);
        let cut_at = long.end_s - 0.5 * long.phase("spill");
        let plan = FaultPlan::none().partition(&[long.node.0], cut_at, f64::INFINITY);
        c.sim.faults.install(plan);
        let r = run_job(&mut c, job()).unwrap();
        assert_eq!(r.counters.get(keys::LINEAGE_RECOMPUTES), 1.0);
        assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 1.0);
        let recomputed = r.tasks.iter().rfind(|t| t.kind == TaskKind::Map);
        let recomputed = recomputed.expect("the recompute committed");
        assert!(recomputed.end_s > long.end_s + ft.hang_deadline_min_s);
        assert_eq!(c.read_output("out"), clean_c.read_output("out"));
    }
}
