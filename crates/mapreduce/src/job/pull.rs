//! The pull loop of every task that reads a shuffle — a classic job's
//! reducers and the tasks of a DAG's post-shuffle stages: start up, pull each
//! upstream output as it is registered and merge it in as it lands, then —
//! once every source shuffle has closed and the last pull has landed — hand
//! the pairs to the run's task function (`map.rs`), which groups them: a
//! reducer's runs `reduce_fn` per key and writes its part file. One body: an
//! attempt launched after the close runs the same steps and simply finds
//! every output registered.

use std::collections::{BTreeMap, BTreeSet};

use simnet::{Sim, SimTime};

use super::attempt::{waiting, Attempt};
use super::commit::kv_bytes;
use super::pool::schedule;
use super::{map, Kv, MrError, Pool, SharedPool};
use crate::counters::keys;

/// One output to pull: `(index of its shuffle among the run's sources,
/// producing partition)`. Pulled pairs reach the task in this order.
type OutputKey = (usize, usize);

/// One landed pull: this attempt's partition of one output.
#[derive(Clone, Debug)]
struct Pull {
    issued_s: f64,
    landed_s: f64,
    kvs: Vec<Kv>,
}

/// What a pulling attempt has pulled so far.
#[derive(Clone, Debug, Default)]
pub(super) struct Shuffle {
    /// When start-up ended; `None` while it lasts.
    ready_s: Option<f64>,
    /// Landed pulls — in the order the task reads them.
    pulls: BTreeMap<OutputKey, Pull>,
    /// Outputs whose holder this node could not reach when it last tried:
    /// tried again at each later registration, and whenever the detector
    /// hears a node again ([`retry_deferred`]), until the link is back or
    /// the holder is withdrawn and its output lost.
    deferred: Vec<OutputKey>,
    in_flight: BTreeSet<OutputKey>,
    /// The merge timeline (merge-during-copy): each pull's share of the sort
    /// is charged as it lands, behind the merges before it — the timeline
    /// ends at `max(end, landed) + merge`. Kept as when the last pull landed
    /// and what of the merge was left then, so that a merge nothing hid
    /// reads exactly nothing hidden.
    last_landed_s: f64,
    merge_left_s: f64,
    /// Merge seconds charged so far.
    merge_s: f64,
    /// A check is queued for the instant the merge drains
    /// ([`wake_when_idle`]).
    idle_check: bool,
}

impl Shuffle {
    fn all_in(&self) -> bool {
        self.in_flight.is_empty() && self.deferred.is_empty()
    }

    /// When what has landed so far is merged.
    fn merged_by(&self) -> f64 {
        self.last_landed_s + self.merge_left_s
    }

    /// Past its start-up, no pull in flight and its merge drained at `now`:
    /// the attempt is only waiting.
    pub(super) fn idle(&self, now: f64) -> bool {
        self.ready_s.is_some() && self.in_flight.is_empty() && now >= self.merged_by()
    }

    /// Start-up over at `ready_s`, everything landed, merged by `merged_by`.
    #[cfg(test)]
    pub(super) fn merging(ready_s: f64, merged_by: f64) -> Shuffle {
        Shuffle {
            ready_s: Some(ready_s),
            last_landed_s: ready_s,
            merge_left_s: merged_by - ready_s,
            ..Shuffle::default()
        }
    }

    /// `key` has been pulled, is being pulled, or is put off.
    fn has(&self, key: OutputKey) -> bool {
        self.pulls.contains_key(&key)
            || self.in_flight.contains(&key)
            || self.deferred.contains(&key)
    }

    /// Charge `merge_s` seconds of merge for a pull landed at `landed_s`.
    fn merge(&mut self, landed_s: f64, merge_s: f64) {
        let merged = landed_s - self.last_landed_s;
        self.merge_left_s = (self.merge_left_s - merged).max(0.0) + merge_s;
        self.last_landed_s = landed_s;
        self.merge_s += merge_s;
    }

    /// What of the merge is left at `now`, at or after the last landing.
    fn merge_left_at(&self, now: f64) -> f64 {
        (self.merge_left_s - (now - self.last_landed_s)).max(0.0)
    }

    /// Seconds before `close_s` with at least one pull in flight.
    fn pulling_before(&self, close_s: f64) -> f64 {
        let spans = self.pulls.values().map(|p| (p.issued_s, p.landed_s));
        let mut spans: Vec<(f64, f64)> = spans.collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut busy, mut covered_to) = (0.0, f64::NEG_INFINITY);
        for (from, to) in spans {
            let (from, to) = (from.max(covered_to), to.min(close_s));
            if to > from {
                busy += to - from;
                covered_to = to;
            }
        }
        busy
    }
}

/// Run one pulling attempt. Outputs are *cloned* per pull (not drained) so
/// a retried attempt can shuffle again.
pub(super) fn run_pulling_attempt(sim: &mut Sim, att: Attempt) {
    sim.after(att.startup_s(), move |sim| {
        let everything = {
            let mut p = att.pool.borrow_mut();
            let everything = p.stage_of(att.run).map(|s| p.store.all_outputs(&s.sources));
            let shuffle = p
                .attempt_mut(att.run, att.id)
                .and_then(|i| i.shuffle.as_mut());
            let (Some(shuffle), Some(everything)) = (shuffle, everything) else {
                return; // preempted, or its node was withdrawn, during start-up
            };
            shuffle.ready_s = Some(sim.now().secs());
            everything
        };
        pull(sim, &att, &everything);
        wake_when_idle(sim, &att);
    });
}

/// Waiting attempt `att` may have turned idle ([`Shuffle::idle`]): its
/// start-up ended, a pull landed, or its merge was due to drain. Idle and not
/// due, it runs the pool scheduler, so that a task blocked for a slot takes
/// its ([`preempt_waiting`](super::pool::preempt_waiting)); still
/// merging, it queues one check for the instant the merge drains — none
/// while one is queued, a pull is in flight (its landing calls this again)
/// or it is due.
fn wake_when_idle(sim: &mut Sim, att: &Attempt) {
    let now = sim.now().secs();
    let drains_at = {
        let mut p = att.pool.borrow_mut();
        let Some(info) = p.attempt(att.run, att.id) else {
            return;
        };
        let waiting = info.shuffle.as_ref().filter(|s| s.ready_s.is_some());
        let Some(shuffle) = waiting.filter(|s| !s.idle_check && s.in_flight.is_empty()) else {
            return;
        };
        if p.due(sim, att.run, info.task) {
            return;
        }
        let drains_at = shuffle.merged_by();
        if now >= drains_at {
            None
        } else {
            let info = p.attempt_mut(att.run, att.id);
            if let Some(shuffle) = info.and_then(|i| i.shuffle.as_mut()) {
                shuffle.idle_check = true;
            }
            Some(drains_at)
        }
    };
    let Some(at) = drains_at else {
        return schedule(sim, &att.pool);
    };
    let att = att.clone();
    sim.at(SimTime(at), move |sim| {
        let checked = {
            let mut p = att.pool.borrow_mut();
            let info = p.attempt_mut(att.run, att.id);
            info.and_then(|i| i.shuffle.as_mut())
                .map(|s| s.idle_check = false)
        };
        if checked.is_some() {
            wake_when_idle(sim, &att);
        }
    });
}

/// The live runs whose attempts pull what run `run`'s tasks register, each
/// with the index of `run`'s output shuffle among its sources: a classic
/// job's reducers for its maps, the runs of the consumer stage for a DAG
/// stage's.
pub(super) fn readers(pool: &SharedPool, run: usize) -> Vec<(usize, usize)> {
    let p = pool.borrow();
    let Some(shuffle) = p.stage_of(run).map(|s| s.out_shuffle) else {
        return Vec::new();
    };
    let source_in = |&reader: &usize| {
        let sources = &p.stage_of(reader)?.sources;
        Some((reader, sources.iter().position(|&(s, _)| s == shuffle)?))
    };
    p.live.iter().filter_map(source_in).collect()
}

/// Task `task` of run `run` has just registered its output: every waiting
/// attempt past its start-up that reads it pulls its partition of it.
pub(super) fn output_registered(sim: &mut Sim, pool: &SharedPool, run: usize, task: usize) {
    let partition = pool.borrow().runs.get(run).map(|d| d.partition_of(task));
    let Some(partition) = partition else {
        return;
    };
    for (reader, source) in readers(pool, run) {
        for att in waiting(pool, reader) {
            pull(sim, &att, &[(source, partition)]);
        }
    }
}

/// The detector has just heard a node again: every waiting attempt of `pool`
/// tries the pulls it had put off ([`Shuffle::deferred`]) once more. Behind
/// the close no registration is left to wake them.
pub(super) fn retry_deferred(sim: &mut Sim, pool: &SharedPool) {
    let live = pool.borrow().live.clone();
    for run in live {
        for att in waiting(pool, run) {
            let put_off = {
                let p = pool.borrow();
                let shuffle = p.attempt(run, att.id).and_then(|i| i.shuffle.as_ref());
                shuffle.is_some_and(|s| !s.deferred.is_empty())
            };
            if put_off {
                pull(sim, &att, &[]);
            }
        }
    }
}

/// Issue `att`'s pulls of its partition from the registered outputs among
/// `fresh` and those it had deferred; with nothing left to wait for, run
/// the task. A holder whose link is down is deferred rather than pulled
/// from, whether its shuffle is open or closed: the pull would be dropped
/// and strand the attempt until its hang deadline. An output is lost only
/// when its holder is withdrawn ([`super::detector::withdraw_node`]), never
/// because one puller cannot reach it. A spill on the PFS has no holder to
/// reach.
fn pull(sim: &mut Sim, att: &Attempt, fresh: &[OutputKey]) {
    let node = att.node;
    let (issue, env, spill_to_pfs, job_name, all_in) = {
        let mut p = att.pool.borrow_mut();
        let Pool {
            runs,
            plan,
            store,
            env,
            ..
        } = &mut *p;
        let Some(d) = runs.get_mut(att.run) else {
            return;
        };
        let r = d.partition_of(att.task);
        let Some(stage) = plan.stages.get(d.stage) else {
            return;
        };
        let (sources, job) = (&stage.sources, &stage.job);
        let shuffle = d.tasks.attempt_mut(att.id).and_then(|i| i.shuffle.as_mut());
        let Some(shuffle) = shuffle.filter(|s| s.ready_s.is_some()) else {
            return; // still starting up, or already running
        };
        let mut issue: Vec<(OutputKey, simnet::NodeId, Vec<Kv>)> = Vec::new();
        let put_off = std::mem::take(&mut shuffle.deferred);
        for &key in put_off.iter().chain(fresh) {
            // An output registered again after a recompute: the attempt
            // keeps what it has pulled, or is pulling, of the first copy.
            if shuffle.has(key) {
                continue;
            }
            let Some(&(source, _)) = sources.get(key.0) else {
                continue;
            };
            let out = store.get(source, key.1);
            let part = out.and_then(|out| Some((out.node, out.parts.get(r)?)));
            let Some((holder, kvs)) = part.filter(|(_, kvs)| !kvs.is_empty()) else {
                continue; // not registered yet, or nothing for this partition
            };
            if !job.spill_to_pfs && sim.link(holder, node).is_none() {
                shuffle.deferred.push(key);
            } else {
                shuffle.in_flight.insert(key);
                issue.push((key, holder, kvs.clone()));
            }
        }
        let all_in = shuffle.all_in() && !store.open(sources);
        (
            issue,
            env.clone(),
            job.spill_to_pfs,
            job.name.clone(),
            all_in,
        )
    };
    if all_in {
        return execute(sim, att.clone());
    }
    let issued_s = sim.now().secs();
    for (key, holder, kvs) in issue {
        let bytes = kv_bytes(&kvs);
        let att2 = att.clone();
        let arrive = move |sim: &mut Sim| {
            let landed_s = sim.now().secs();
            let pull = Pull {
                issued_s,
                landed_s,
                kvs,
            };
            landed(sim, att2, key, pull)
        };
        if spill_to_pfs {
            // Fetch the partition back from the PFS spill file. The exact
            // byte range is immaterial to the timing model; the volume is.
            let spill_path = format!("_spill/{job_name}/m{:05}", key.1);
            let have = env.pfs.borrow().len_of(&spill_path).unwrap_or(0);
            let len = bytes.min(have);
            let (att, path) = (att.clone(), spill_path.clone());
            let read = move |sim: &mut Sim, res: Result<_, pfs::PfsError>| match res {
                Ok(_) => arrive(sim),
                // The pull that failed stays in flight.
                Err(e) => att.fail(sim, MrError::msg(format!("pfs: {e} ({path})"))),
            };
            pfs::read_at(sim, &env.topo, &env.pfs, node, &spill_path, 0, len, read);
        } else {
            // A holder this node cannot reach never delivers: the pull
            // stays in flight and the attempt's hang deadline fails it.
            let Some(path) = env.topo.path_net(holder, node) else {
                let e = format!("no route from node {} to node {}", holder.0, node.0);
                return att.fail(sim, MrError::msg(e));
            };
            let flow_bytes = sim.cost.lbytes(bytes);
            sim.net_transfer(holder, node, None, path, flow_bytes, arrive);
        }
    }
}

/// One pull of `att` has landed: its share of the sort — its bytes at
/// `sort_per_byte`, stretched as the attempt's compute is — goes on the merge
/// timeline, behind the merges before it. The last pull after the sources
/// closed starts the task.
fn landed(sim: &mut Sim, att: Attempt, key: OutputKey, pull: Pull) {
    let all_in = {
        let mut p = att.pool.borrow_mut();
        let closed = !p.waits(att.run);
        if p.attempt(att.run, att.id).is_none() {
            return; // the attempt is gone, and its merge progress with it
        }
        let factor = p.compute_factor(sim, att.run, att.node);
        let merge = sim.cost.lbytes(kv_bytes(&pull.kvs)) * sim.cost.sort_per_byte * factor;
        let shuffle = p
            .attempt_mut(att.run, att.id)
            .and_then(|i| i.shuffle.as_mut());
        let Some(shuffle) = shuffle else {
            return;
        };
        shuffle.merge(pull.landed_s, merge);
        shuffle.pulls.insert(key, pull);
        shuffle.in_flight.remove(&key);
        closed && shuffle.all_in()
    };
    if all_in {
        execute(sim, att);
    } else {
        wake_when_idle(sim, &att);
    }
}

/// Every source has closed and every pull is in: account the shuffle, then
/// run the task behind what is left of its merge. The values of a key reach
/// it in (source, producing partition, emit) order — whenever they arrived.
fn execute(sim: &mut Sim, att: Attempt) {
    let now = sim.now().secs();
    let taken = {
        let mut p = att.pool.borrow_mut();
        let Pool {
            runs, plan, store, ..
        } = &mut *p;
        let Some(d) = runs.get_mut(att.run) else {
            return;
        };
        let sources = plan.stages.get(d.stage).map_or(&[][..], |s| &s.sources);
        // The sources closed when the last of their outputs was registered.
        let close_s = store.sources_closed_at(sources, d.start_s);
        let tags: Vec<u8> = sources.iter().map(|s| s.1).collect();
        let info = d.tasks.attempt_mut(att.id);
        info.and_then(|i| Some((i.shuffle.take()?, i.start_s, close_s, tags)))
    };
    let Some((shuffle, start_s, close_s, tags)) = taken else {
        return;
    };
    // Start-up, then `wait` until the sources close (early pulls run inside
    // it), then `shuffle`: what of the pulls is left after the close, then
    // `sort`: what of the merge is left after the last pull. Hidden are the
    // start-up and pull seconds before the close and the merge seconds
    // before the last pull landed.
    let ready_s = shuffle.ready_s.unwrap_or(start_s);
    let wait_s = (close_s - ready_s).max(0.0);
    let shuffle_s = now - ready_s.max(close_s);
    let sort_s = shuffle.merge_left_at(now);
    let hidden_s = (close_s.min(ready_s) - start_s).max(0.0)
        + shuffle.pulling_before(close_s)
        + (shuffle.merge_s - sort_s);
    att.phase("wait", wait_s);
    att.phase("shuffle", shuffle_s);
    att.phase("sort", sort_s);
    let bytes: usize = shuffle.pulls.values().map(|p| kv_bytes(&p.kvs)).sum();
    att.count(keys::SHUFFLE_BYTES, bytes as f64);
    if hidden_s > 0.0 {
        att.count(keys::SHUFFLE_OVERLAP_SAVED_S, hidden_s);
    }
    let pairs = shuffle.pulls.into_iter().flat_map(|((source, _), p)| {
        let tag = tags.get(source).copied().unwrap_or(0);
        p.kvs.into_iter().map(move |kv| (tag, kv.key, kv.value))
    });
    map::run_stage_task(sim, att, pairs.collect(), shuffle_s, sort_s)
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::dag::{run_dag, DagJob};
    use crate::dataset::Dataset;
    use crate::input::{InMemoryFetcher, InputSplit, TaskInput};
    use crate::job::tests::{
        mem_splits, one_long_map_job, scaled_cluster, slow_map_job, small_cluster, word_count_job,
    };
    use crate::job::{run_job, FtConfig, JobResult, MrError, Payload, TaskKind, TaskReport};
    use simnet::{CostModel, FaultPlan};
    use std::rc::Rc;

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

    /// The reducers of `r`, each checked: its phases — `startup`, `wait`,
    /// `shuffle`, `sort`, the reduce charges, `write` — sum to its duration.
    fn reducers(r: &JobResult) -> Vec<&TaskReport> {
        let reducers: Vec<_> = r
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Reduce)
            .collect();
        for t in &reducers {
            let names: Vec<_> = t.phases.iter().map(|(p, _)| *p).collect();
            assert_eq!(names[..4], ["startup", "wait", "shuffle", "sort"]);
            let sum: f64 = t.phases.iter().map(|(_, s)| s).sum();
            assert!((sum - t.duration()).abs() < 1e-9, "{t:?}");
        }
        reducers
    }

    fn last_map_end(r: &JobResult) -> f64 {
        let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
        maps.map(|t| t.end_s).fold(0.0, f64::max)
    }

    /// The old single charge: every shuffled byte through one sort, on
    /// nodes no fault plan slows.
    fn one_sort(r: &JobResult) -> f64 {
        r.counters.get(keys::SHUFFLE_BYTES) * CostModel::default().sort_per_byte
    }

    /// The merge the reducers of `r` hid behind their pulls: what of one sort
    /// of their bytes their `sort` phases do not show.
    fn merge_hidden(r: &JobResult) -> f64 {
        let sorts: f64 = reducers(r).iter().map(|t| t.phase("sort")).sum();
        one_sort(r) - sorts
    }

    /// Split `i` holds `i + 1` distinct byte values: its map emits `i + 1`
    /// word counts, so no two pulls are the same size.
    fn ragged_splits(n: usize) -> Vec<InputSplit> {
        let split = |i: usize| InputSplit {
            length: 64,
            locations: vec![],
            fetcher: Rc::new(InMemoryFetcher {
                data: (0..64).map(|b| (b % (i + 1)) as u8).collect(),
            }),
        };
        (0..n).map(split).collect()
    }

    #[test]
    fn the_merges_of_the_pulls_sum_to_one_sort_of_their_bytes() {
        // One slot: the reducers run after the close, one after the other,
        // and hide nothing but merge seconds. Node 0 sorts 3x slower.
        let mut c = small_cluster(1, 1);
        c.sim.faults.install(FaultPlan::none().slow_node(0, 3.0));
        let r = run_job(&mut c, word_count_job(ragged_splits(6), 2)).unwrap();
        let sorts: f64 = reducers(&r).iter().map(|t| t.phase("sort")).sum();
        let hidden = r.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S);
        assert!(sorts > 0.0);
        assert!((sorts + hidden - 3.0 * one_sort(&r)).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn a_reducer_whose_pulls_land_well_before_the_close_sorts_at_most_its_last_merge() {
        // Maps of 1, 2, 3 s beside an early reducer: each output lands and is
        // merged a second before the next one commits.
        let mut c = small_cluster(2, 2);
        let mut job = slow_map_job(3, 0.0, FtConfig::default());
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", 1.0 + f64::from(b[0]));
            ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]]));
            Ok(())
        });
        let r = run_job(&mut c, job).unwrap();
        let red = reducers(&r)[0];
        assert!(red.start_s < last_map_end(&r));
        // Every pull is `k<i>` + one byte: the last pull's merge.
        let last_merge = 3.0 * CostModel::default().sort_per_byte;
        assert!(
            red.phase("sort") > 0.0 && red.phase("sort") <= last_merge,
            "{red:?}"
        );
        assert!((merge_hidden(&r) - 2.0 * last_merge).abs() < 1e-15);
    }

    #[test]
    fn phases_sum_to_the_duration_of_a_reducer_launched_early() {
        // 3 maps on 4 slots: the reducer starts beside them on node 0, on the
        // spare. Maps 0 and 2 share node 1, whose disk spills map 0's output
        // first: map 2 closes the map phase one spill later.
        let mut c = small_cluster(2, 2);
        let r = run_job(&mut c, slow_map_job(3, 2.0, FtConfig::default())).unwrap();
        let close = last_map_end(&r);
        let red = reducers(&r)[0];
        assert_eq!(red.start_s, r.start_s);
        let (m0, m2) = (&r.tasks[0], &r.tasks[2]);
        assert_eq!((m0.node.0, m2.node.0, red.node.0), (1, 1, 0));
        assert_eq!(m2.end_s, close);
        assert!((m2.phase("spill") - 2.0 * m0.phase("spill")).abs() < 1e-15);
        // Start-up is over long before the maps are: the rest is `wait`,
        // and only the last map's few bytes are pulled behind the close.
        assert!((red.phase("wait") - (close - red.start_s - 1.0)).abs() < 1e-9);
        assert!(red.phase("shuffle") > 0.0 && red.phase("shuffle") < 1e-6);
        // Hidden: the start-up, the merges done before the last pull, and
        // the pull of map 0's output, which landed before the close — as
        // long as map 2's after it: the same bytes over the same link.
        let saved = r.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S);
        let pulled_early = red.phase("shuffle");
        assert!(
            (saved - 1.0 - merge_hidden(&r) - pulled_early).abs() < 1e-12,
            "{saved}"
        );
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 1.0);
        assert_eq!(r.fault_summary(), None);
    }

    #[test]
    fn phases_sum_to_the_duration_of_a_reducer_launched_after_the_close() {
        // One slot: the reducer gets it, warm, when the last map commits.
        let mut c = small_cluster(1, 1);
        let r = run_job(&mut c, slow_map_job(2, 2.0, FtConfig::default())).unwrap();
        let red = reducers(&r)[0];
        assert_eq!(red.start_s, last_map_end(&r));
        assert_eq!((red.phase("startup"), red.phase("wait")), (0.0, 0.0));
        // Both outputs land in one instant: nothing to merge behind.
        assert_eq!(r.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S), 0.0);
        assert_eq!(red.phase("sort"), one_sort(&r));
    }

    /// The stage tasks of `r`, each checked: its phases — `startup`,
    /// `wait`, `shuffle`, `sort`, the aggregate's charges, `spill` | `write`
    /// — sum to its duration.
    fn stage_tasks(r: &crate::dag::DagResult) -> Vec<&TaskReport> {
        let runs = r.runs.iter().filter(|run| run.stage > 0);
        let tasks: Vec<_> = runs.flat_map(|run| &run.tasks).collect();
        for t in &tasks {
            let names: Vec<_> = t.phases.iter().map(|(p, _)| *p).collect();
            assert_eq!(names[..4], ["startup", "wait", "shuffle", "sort"]);
            let sum: f64 = t.phases.iter().map(|(_, s)| s).sum();
            assert!((sum - t.duration()).abs() < 1e-9, "{t:?}");
        }
        tasks
    }

    #[test]
    fn phases_sum_to_the_duration_of_stage_tasks_launched_early_and_after_the_close() {
        let plan = || {
            let read = Rc::new(|input, ctx: &mut crate::job::TaskCtx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                ctx.charge("scan", 1.0 + f64::from(b[0]));
                Ok(vec![(format!("k{}", b[0] % 2), Payload::Bytes(b))])
            });
            let count = Rc::new(
                |_: &str, values: Vec<Payload>, ctx: &mut crate::job::TaskCtx| {
                    ctx.charge("agg", 0.5);
                    Ok(Payload::Bytes(vec![values.len() as u8]))
                },
            );
            Dataset::from_splits(mem_splits(3, 100), read).reduce_by_key(2, count)
        };
        // 2 x 2 slots: the stage tasks take the spare one beside the sources;
        // one slot: they run after the close.
        for (nodes, early) in [(2, true), (1, false)] {
            let mut c = small_cluster(nodes, nodes);
            let r = run_dag(&mut c, DagJob::new("wc", plan(), "out")).unwrap();
            let close = r.runs[0].end_s;
            let tasks = stage_tasks(&r);
            assert_eq!(tasks.len(), 2);
            assert_eq!(tasks.iter().any(|t| t.start_s < close), early, "{tasks:?}");
        }
    }

    /// Two reducers over `n_maps` maps, without speculation: the twin of a
    /// long map would take an early reducer's slot back.
    fn two_reducer_job(n_maps: usize) -> crate::job::Job {
        let ft = FtConfig {
            speculative: false,
            ..FtConfig::default()
        };
        let mut job = slow_map_job(n_maps, 0.0, ft);
        job.n_reducers = 2;
        job
    }

    /// 2 nodes x 1 slot, 2 maps, 2 reducers: map 0 (8 s) runs on node 1,
    /// map 1 (1 s) on node 0, whose slot reducer 0 then takes.
    fn two_by_one() -> crate::job::Job {
        let mut job = two_reducer_job(2);
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", if b[0] == 0 { 8.0 } else { 1.0 });
            ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]]));
            Ok(())
        });
        job
    }

    #[test]
    fn a_preempted_reducer_is_requeued_uncharged_and_its_phases_still_sum() {
        let mut clean = small_cluster(2, 1);
        let clean_r = run_job(&mut clean, two_by_one()).unwrap();
        assert_eq!(clean_r.counters.get(keys::REDUCES_PREEMPTED), 0.0);
        reducers(&clean_r);

        // Node 1 dies under map 0 while reducer 0 holds the only other slot,
        // waiting for exactly that map: without preemption nothing could
        // ever run again.
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 4.0));
        let r = run_job(&mut c, two_by_one()).expect("the map takes the reducer's slot");
        assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 1.0);
        // The only retry is map 0's; reducer 0 ran twice and was charged once.
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0);
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 3.0);
        let summary = r.fault_summary().expect("a preemption is reported");
        assert!(
            summary.contains("1 waiting attempt(s) preempted"),
            "{summary}"
        );
        let close = last_map_end(&r);
        for red in reducers(&r) {
            assert!(
                red.start_s >= close,
                "relaunched behind the retried map: {red:?}"
            );
        }
        // Reducer 0 had pulled and merged map 1's output when it was
        // preempted; that merge went with the attempt. The relaunch pulled
        // and merged everything again, so the books hold: what the reducers
        // hid (merges only, behind the close) and what they sorted add up to
        // one sort of every byte they committed.
        let saved = r.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S);
        assert!((saved - merge_hidden(&r)).abs() < 1e-12, "{saved}");
        assert_eq!(c.read_output("out"), clean.read_output("out"));
    }

    #[test]
    fn a_preempted_reducer_keeps_its_whole_attempt_budget() {
        // One attempt per task: the preemption must not spend reducer 0's.
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 4.0));
        let mut job = two_by_one();
        job.ft.max_task_attempts = 2; // map 0 needs its retry
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 1.0);
        let mut job = two_by_one();
        job.ft.max_task_attempts = 1;
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().kill_node(1, 4.0));
        let err = run_job(&mut c, job).unwrap_err();
        assert!(err.message().contains("Map task 0 lost"), "{err}");
    }

    #[test]
    fn a_pull_from_a_holder_cut_off_while_maps_run_waits_for_the_link() {
        // 3 nodes x 1 slot. Maps 0 and 1 (1 s) commit at 2 s; map 3 follows
        // on one of their nodes and a reducer takes the other, where it waits
        // for maps 2 and 3 (6 s).
        let job = || {
            let mut job = two_reducer_job(4);
            job.map_fn = Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                ctx.charge("scan", if b[0] < 2 { 1.0 } else { 6.0 });
                for k in 0..8 {
                    ctx.emit(format!("k{k}"), Payload::Bytes(vec![b[0]]));
                }
                Ok(())
            });
            job
        };
        let mut clean = small_cluster(3, 1);
        let clean_r = run_job(&mut clean, job()).unwrap();
        let close = last_map_end(&clean_r);
        let early = reducers(&clean_r).into_iter().find(|t| t.start_s < 2.5);
        let early = early.expect("a reducer waits beside the maps");
        let ready_s = early.start_s + early.phase("startup");
        // A map that commits on another node between the reducer's start-up
        // and the close.
        let mut maps = clean_r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
        let commit =
            maps.find(|t| t.node != early.node && t.end_s > ready_s + 1.0 && t.end_s < close);
        let commit = commit.expect("a commit while the reducer waits").end_s;
        // The reducer's node is cut off from every holder for a second around
        // that commit.
        let mut c = small_cluster(3, 1);
        let cut = FaultPlan::none().partition(&[early.node.0], commit - 0.5, commit + 0.5);
        c.sim.faults.install(cut);
        let r = run_job(&mut c, job()).unwrap();
        // Pulled at the commit the output would have been dropped and the
        // reducer stranded until a hang deadline; put off until the next
        // commit, it costs nothing.
        assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 2.0);
        assert!((r.elapsed() - clean_r.elapsed()).abs() < 1e-3);
        assert_eq!(c.read_output("out"), clean.read_output("out"));
    }

    #[test]
    fn a_pull_put_off_behind_the_close_is_issued_when_its_holder_is_heard_again() {
        // 3 nodes x 1 slot: the reducer takes the first slot the short maps
        // free.
        let ft = FtConfig {
            speculative: false,
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 8,
            hang_deadline_min_s: 30.0,
            ..FtConfig::default()
        };
        let job = || one_long_map_job(ft.clone());
        let mut clean = scaled_cluster(3, 1);
        let clean_r = run_job(&mut clean, job()).unwrap();
        let long = &clean_r.tasks[0];
        let red = reducers(&clean_r)[0];
        assert!(red.start_s < long.end_s && red.node != long.node);
        // Map 0's node is cut off while it spills, and heard again 4 s on,
        // well before the dead threshold: its spill commits and closes the
        // shuffle, and the reducer puts the pull off. Nothing else is left
        // to register: only the detector hearing the node again issues it,
        // not the reducer's hang deadline.
        let (cut, heal) = (long.end_s - 0.5 * long.phase("spill"), long.end_s + 4.0);
        let mut c = scaled_cluster(3, 1);
        c.sim
            .faults
            .install(FaultPlan::none().partition(&[long.node.0], cut, heal));
        let r = run_job(&mut c, job()).unwrap();
        for key in [
            keys::TASKS_HANG_DETECTED,
            keys::SHUFFLE_PARTITIONS_LOST,
            keys::LINEAGE_RECOMPUTES,
            keys::TASK_RETRIES,
        ] {
            assert_eq!(r.counters.get(key), 0.0, "{key}: {:?}", r.counters);
        }
        assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 1.0);
        // It landed within a heartbeat and one pull of the heal.
        let red = reducers(&r)[0];
        let landed = ["startup", "wait", "shuffle"].map(|p| red.phase(p));
        let landed = red.start_s + landed.iter().sum::<f64>();
        let pull_s = reducers(&clean_r)[0].phase("shuffle");
        assert!(
            landed >= heal && landed <= heal + ft.heartbeat_interval_s + pull_s,
            "the put-off pull landed at {landed} s, the heal is at {heal} s"
        );
        assert_eq!(c.read_output("out"), clean.read_output("out"));
    }

    #[test]
    fn values_reach_the_reduce_function_in_map_order() {
        // Map 0 is the slowest by far, so its pair lands last.
        let mut c = small_cluster(2, 2);
        let mut job = slow_map_job(3, 0.0, FtConfig::default());
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", 3.0 - b[0] as f64);
            ctx.emit("k", Payload::Bytes(vec![b'0' + b[0]]));
            Ok(())
        });
        job.reduce_fn = Some(Rc::new(|key, values, ctx| {
            let bytes = values.into_iter().flat_map(|v| match v {
                Payload::Bytes(b) => b,
                Payload::Frame(_) => Vec::new(),
            });
            ctx.emit(key, Payload::Bytes(bytes.collect()));
            Ok(())
        }));
        let r = run_job(&mut c, job).unwrap();
        let by_end = |i: usize| r.tasks[i].end_s;
        assert!(by_end(2) < by_end(1) && by_end(1) < by_end(0));
        let out = c.read_output("out").unwrap();
        assert_eq!(out[0].1, b"k\t012\n");
    }
}
