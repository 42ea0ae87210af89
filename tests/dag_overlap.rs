//! Stage overlap (DESIGN.md §3.7): a DAG's post-shuffle stages are live from
//! submit — their tasks start up and pull on slots no upstream task wants,
//! while their parents drain. The named cases pin the rules that make that
//! safe; the generated sweep runs every small chain and cluster shape under
//! every kind of fault at an instant sampled *inside the overlap window*
//! (between a downstream task's launch and its parent's close): each run
//! ends `Ok` with the bytes a naive single-threaded evaluation of the plan
//! gives, or in a typed `Err` — never a drained queue, no waiting task
//! declared hung before its parent closes, no `_tmp/` file left in the
//! NameNode's namespace either way, every task's start-up paid in full or not
//! at all (warm slots), a clean run's at most once per slot, and no node
//! starting more than its share of a stage's tasks before their input
//! closed, and — where no stage run failed — every attempt launched
//! accounted for. `SCIDP_FAULT_SEED` reseeds the sampling (CI's `driver` job runs
//! seeds 1-3); a failing plan prints as the `FaultPlan` builder expression
//! that rebuilds it.

use scidp_suite::mapreduce::{counter_keys as keys, DagResult, MrError, StageRun, TaskReport};
use scidp_suite::simnet::{CostModel, FaultPlan, NodeId};
use scirng::Rng;

mod common;
use common::chain::{text, Chain, Output, INPUT};
use common::{attempt_law, nodes_in_service, placement_law, plan_expr, startup_law};

/// When stage `stage` last closed: the end of the last run of it.
fn closed_at(r: &DagResult, stage: usize) -> f64 {
    let runs = r.runs.iter().filter(|run| run.stage == stage);
    runs.map(|run| run.end_s).fold(0.0, f64::max)
}

/// Every committed report of a post-shuffle stage task, with its run.
fn stage_tasks(r: &DagResult) -> impl Iterator<Item = (&StageRun, &TaskReport)> {
    let runs = r.runs.iter().filter(|run| run.stage > 0);
    runs.flat_map(|run| run.tasks.iter().map(move |t| (run, t)))
}

/// A chain is a line: stage `k` pulls from stage `k - 1`. The tasks that
/// launched before their parent closed, each with that close.
fn launched_early(r: &DagResult) -> Vec<(&TaskReport, f64)> {
    let early = stage_tasks(r).map(|(run, t)| (t, closed_at(r, run.stage - 1)));
    early.filter(|(t, close)| t.start_s < *close).collect()
}

fn phases_sum_to_the_duration(t: &TaskReport) -> Result<(), String> {
    let names: Vec<_> = t.phases.iter().map(|(p, _)| *p).collect();
    if names.get(..4) != Some(&["startup", "wait", "shuffle", "sort"]) {
        return Err(format!("phases of a stage task start {names:?}"));
    }
    // ... then the aggregate's charges, then `spill` or `write` (a final
    // partition without keys commits no file).
    let sum: f64 = t.phases.iter().map(|(_, s)| s).sum();
    if (sum - t.duration()).abs() > 1e-9 {
        return Err(format!("phases sum to {sum}, not the duration: {t:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Named cases
// ---------------------------------------------------------------------------

/// 3 splits on 2 nodes x 2 slots leave a slot idle from the start, and the
/// slowest split runs 1 s longer than the next: the tasks of both shuffles
/// launch beside the source wave and wait — the stage-1 task in the slot no
/// source wanted, which is cold, the stage-2 task in the one the fastest
/// source committed in, which is warm.
const SPARE_SLOT: Chain = Chain {
    stages: 3,
    width: 1,
    splits: 3,
    nodes: 2,
    slots: 2,
};

#[test]
fn phases_of_an_early_launched_stage_task_sum_to_its_duration() {
    let (r, out, _) = SPARE_SLOT.run(FaultPlan::none());
    let r = r.expect("clean run");
    assert_eq!(out, SPARE_SLOT.naive_output());
    assert_eq!(r.counters.get(keys::STAGES_RUN), 3.0);
    assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 0.0);
    assert_eq!(r.counters.get(keys::STREAM_FALLBACKS), 0.0);
    let early = launched_early(&r);
    assert_eq!(early.len(), 2, "one task per shuffle: {early:?}");
    let startup = CostModel::default().task_startup_s;
    let source = |i: usize| &r.runs[0].tasks[i];
    for (t, close) in early {
        phases_sum_to_the_duration(t).unwrap();
        // Start-up, if any, is over long before the parent closes: the rest
        // is `wait`, and only the last output is pulled behind the close.
        // Only the task launched with the DAG found its slot cold.
        let paid = if t.start_s == r.start_s { startup } else { 0.0 };
        assert_eq!(t.phase("startup"), paid, "{t:?}");
        assert!((t.phase("wait") - (close - t.start_s - paid)).abs() < 1e-9);
        assert!(t.phase("shuffle") < 1e-3, "{t:?}");
    }
    let stage2 = &r.runs[2].tasks[0];
    assert_eq!(
        (stage2.node, stage2.start_s),
        (source(2).node, source(2).end_s)
    );
    // The one start-up paid is hidden: behind the source wave the DAG is two
    // pulls, two aggregates of 0.2 s per key and a write.
    assert!(r.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S) >= startup);
    let tail = r.end_s - closed_at(&r, 0);
    assert!(tail < startup, "{tail} s behind the source wave");
    // Every run starts with the DAG and ends with its stage's last commit.
    for (run, next) in r.runs.iter().zip(r.runs.iter().skip(1)) {
        assert_eq!(run.start_s, r.start_s);
        assert!(run.ok && run.end_s <= next.end_s, "{:?}", r.runs);
    }
}

/// The minimal deadlock shape of stage overlap: 2 nodes x 1 slot, 2 splits, 2
/// partitions. Split 1 (2 s) commits on node 0 and a stage-1 task takes that
/// slot to wait for split 0 (2.5 s) — which dies with node 1. Only a
/// preemption across stages lets it run again.
#[test]
fn a_kill_under_the_last_source_preempts_the_stage_task_holding_the_only_slot() {
    let shape = Chain {
        stages: 2,
        width: 2,
        splits: 2,
        nodes: 2,
        slots: 1,
    };
    let (clean, clean_out, _) = shape.run(FaultPlan::none());
    let clean = clean.expect("clean run");
    assert_eq!(clean_out, shape.naive_output());
    let source = |i: usize| &clean.runs[0].tasks[i];
    assert_eq!((source(0).node, source(1).node), (NodeId(1), NodeId(0)));
    assert!(
        source(1).end_s < source(0).end_s,
        "split 0 is the longer one"
    );
    assert_eq!(launched_early(&clean).len(), 1, "on node 0's slot");
    let kill_at = 0.5 * (source(1).end_s + source(0).end_s);
    let (r, out, _) = shape.run(FaultPlan::none().kill_node(1, kill_at));
    let r = r.expect("the retried source takes the waiting stage task's slot");
    assert_eq!(out, clean_out);
    assert!(
        r.counters.get(keys::REDUCES_PREEMPTED) >= 1.0,
        "{:?}",
        r.counters
    );
    assert_eq!(
        r.counters.get(keys::TASK_RETRIES),
        1.0,
        "split 0's, nobody else's"
    );
    assert!(r.runs.iter().all(|run| run.ok), "{:?}", r.runs);
    stage_tasks(&r).for_each(|(_, t)| phases_sum_to_the_duration(t).unwrap());
}

/// A waiting task whose input is invalidated keeps waiting, and keeps its
/// slot, its start-up and what it has pulled: the lost partition is
/// resubmitted, and the reader's one attempt spans the recompute. A lost
/// input costs its reader no second start-up.
#[test]
fn a_lost_input_costs_its_reader_no_second_start_up() {
    // One split per node, beside it the stage-1 task (node 2, with the
    // slowest split), the final task (node 1) and a free slot (node 0).
    let shape = Chain {
        nodes: 3,
        ..SPARE_SLOT
    };
    let (clean, clean_out, _) = shape.run(FaultPlan::none());
    let clean = clean.expect("clean run");
    let sources = &clean.runs[0].tasks;
    let nodes: Vec<u32> = sources.iter().map(|t| t.node.0).collect();
    assert_eq!(nodes, [2, 1, 0], "{sources:?}");
    let readers = launched_early(&clean);
    let on = |node: u32| readers.iter().find(move |(t, _)| t.node == NodeId(node));
    let (stage1, _) = on(2).expect("the stage-1 task launched early, on node 2");
    assert!(
        on(1).is_some(),
        "and the final task, on node 1: {readers:?}"
    );
    // Node 0 dies with split 2's output committed, and pulled, the other
    // sources still running: a hole in a shuffle that has yet to close.
    let kill_at = sources[2].end_s + 0.1;
    assert!(kill_at < sources[1].end_s && stage1.start_s + 1.0 < kill_at);
    let (r, out, _) = shape.run(FaultPlan::none().kill_node(0, kill_at));
    let r = r.expect("lineage recomputes the lost output");
    assert_eq!(out, clean_out);
    assert!(r.runs.iter().all(|run| run.ok), "no run fails on a hole");
    assert_eq!(r.counters.get(keys::SHUFFLE_PARTITIONS_LOST), 1.0);
    assert_eq!(r.counters.get(keys::LINEAGE_RECOMPUTES), 1.0);
    assert_eq!(
        r.counters.get(keys::STAGES_RUN),
        4.0,
        "one sparse source run"
    );
    // Every live slot is taken, so the recompute takes the youngest waiting
    // task's: the final task's, which relaunches beside it. The reader is
    // the attempt the clean run launched — same node, same launch, one
    // start-up — and its `wait` spans the recompute.
    assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 1.0);
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 0.0);
    let tasks = r.counters.get(keys::MAP_TASKS);
    assert_eq!(r.counters.get(keys::MAP_ATTEMPTS), tasks + 1.0);
    let (_, reader) = stage_tasks(&r).find(|(run, _)| run.stage == 1).unwrap();
    assert_eq!((reader.node, reader.start_s), (stage1.node, stage1.start_s));
    phases_sum_to_the_duration(reader).unwrap();
    let recompute = r.runs.iter().find(|run| run.recomputed > 0).unwrap();
    assert!(recompute.start_s == kill_at && recompute.end_s > closed_at(&clean, 0));
    let waited_until = reader.start_s + reader.phase("startup") + reader.phase("wait");
    assert!((waited_until - recompute.end_s).abs() < 1e-9, "{reader:?}");
}

// ---------------------------------------------------------------------------
// Generated totality sweep
// ---------------------------------------------------------------------------

/// The clean plan and one of each kind of fault, on a sampled node at an
/// instant sampled inside an overlap window of the clean run (anywhere in it
/// when no task launched early) — each with whether the DAG must survive it.
/// Lineage recomputes what a dead, hung or cut-off node held, so only a
/// one-node cluster, which has no survivor to carry on, may fail (typed).
fn sweep_plans(
    rng: &mut Rng,
    seed: u64,
    shape: Chain,
    clean: &DagResult,
) -> Vec<(FaultPlan, bool)> {
    let windows: Vec<(f64, f64)> = launched_early(clean)
        .iter()
        .map(|(t, close)| (t.start_s, *close))
        .collect();
    let mut at = || match windows.is_empty() {
        true => rng.range_f64(0.0, clean.end_s),
        false => {
            let (from, to) = windows[rng.below(windows.len())];
            rng.range_f64(from, to)
        }
    };
    let at: [f64; 5] = std::array::from_fn(|_| at());
    let node: [u32; 6] = std::array::from_fn(|_| rng.below(shape.nodes) as u32);
    let heal_after = rng.range_f64(0.5, 6.0);
    let base = || FaultPlan::none().with_seed(seed);
    let spare_node = shape.nodes > 1;
    vec![
        (base(), true),
        (base().kill_node(node[0], at[0]), spare_node),
        (base().hang_node(node[1], at[1]), spare_node),
        {
            let healed = base().partition(&[node[2]], at[2], at[2] + heal_after);
            (healed, spare_node)
        },
        (
            base().partition(&[node[3]], at[3], f64::INFINITY),
            spare_node,
        ),
        {
            let factor = rng.range_f64(2.0, 16.0);
            (base().slow_link(node[4], node[5], factor), true)
        },
        {
            let nth = 1 + rng.below(shape.splits) as u64;
            (base().hang_nth_read(INPUT, nth), true)
        },
    ]
}

/// What one run of the sweep must satisfy; `Err` names the violation.
fn check_run(
    shape: Chain,
    (plan, survivable): (&FaultPlan, bool),
    r: &Result<DagResult, MrError>,
    (output, leftovers): (&Output, &[String]),
    want: &Output,
) -> Result<(), String> {
    // Every attempt that ended — committed, orphaned, failed, stranded on a
    // node that could not report — took its temp file with it, `Ok` or not.
    if !leftovers.is_empty() {
        return Err(format!("temp files left behind: {leftovers:?}"));
    }
    let r = match r {
        // A typed failure (the only node died, ...) is an outcome; a
        // simulator that ran dry is a stall.
        Err(e) if e.message().contains("drained") => return Err(format!("stalled: {e}")),
        Err(e) if survivable => return Err(format!("ended in {e:?}")),
        Err(_) => return Ok(()),
        Ok(r) => r,
    };
    if output != want {
        return Err(format!(
            "committed {:?}, the naive evaluation gives {:?}",
            text(output),
            text(want)
        ));
    }
    let bound = (shape.stages * 8 + 8) as f64;
    if r.counters.get(keys::STAGES_RUN) > bound {
        return Err(format!(
            "{} stage submissions",
            r.counters.get(keys::STAGES_RUN)
        ));
    }
    for (_, t) in stage_tasks(r) {
        phases_sum_to_the_duration(t)?;
    }
    // One swallowed source read is one hung source: a stage task waiting
    // for that source's retry is not hung with it.
    let attempts = r.counters.get(keys::MAP_ATTEMPTS) - r.counters.get(keys::REDUCES_PREEMPTED);
    let one_hung_source = r.counters.get(keys::TASKS_HANG_DETECTED) == 1.0
        && attempts == r.counters.get(keys::MAP_TASKS) + 1.0;
    if !plan.read_hangs.is_empty() && !one_hung_source {
        return Err(format!(
            "a task waiting for its parent was declared hung: {:?}",
            r.counters
        ));
    }
    let clean = *plan == FaultPlan::none().with_seed(plan.seed);
    if clean && r.counters.get(keys::STAGES_RUN) != shape.stages as f64 {
        return Err("a clean run submits every stage once".into());
    }
    if r.counters.get(keys::STREAM_FALLBACKS) != 0.0 {
        // Flat source splits stream; a pulled partition has no fetcher to
        // fall back from.
        return Err(format!("stream fallbacks: {:?}", r.counters));
    }
    let tasks = r.runs.iter().flat_map(|run| &run.tasks);
    startup_law(tasks, clean, shape.nodes * shape.slots)?;
    // A failed stage run abandons the attempts it had in flight: they
    // neither commit nor retry.
    if r.runs.iter().all(|run| run.ok) {
        attempt_law(&r.counters)?;
    }
    // Where nothing was lost, no stage's input reopened.
    if r.counters.get(keys::SHUFFLE_PARTITIONS_LOST) > 0.0 {
        return Ok(());
    }
    for run in r.runs.iter().filter(|run| run.stage > 0) {
        let tasks: Vec<_> = run.tasks.iter().collect();
        let close = closed_at(r, run.stage - 1);
        placement_law(&tasks, close, nodes_in_service(plan, shape.nodes, close))?;
    }
    Ok(())
}

#[test]
fn every_chain_under_every_kind_of_fault_ends_ok_with_the_naive_bytes_or_typed() {
    let seed = FaultPlan::env_seed(29);
    let mut rng = Rng::seed_from_u64(seed);
    // What the sweep exercised, so a green run is not a vacuous one.
    let (mut runs, mut ok, mut early, mut in_window) = (0, 0, 0, 0);
    let (mut preempted, mut recomputed, mut failed_runs, mut lawful) = (0.0, 0.0, 0, 0);
    for stages in 2..=4 {
        for width in 1..=4 {
            for splits in 1..=8 {
                for nodes in 1..=3 {
                    for slots in 1..=2 {
                        let shape = Chain {
                            stages,
                            width,
                            splits,
                            nodes,
                            slots,
                        };
                        let want = shape.naive_output();
                        let (clean, ..) = shape.run(FaultPlan::none());
                        let clean = clean.expect("clean run");
                        in_window += usize::from(!launched_early(&clean).is_empty());
                        for (plan, survivable) in sweep_plans(&mut rng, seed, shape, &clean) {
                            let (r, output, leftovers) = shape.run(plan.clone());
                            let case = (&plan, survivable);
                            let left = (&output, &leftovers[..]);
                            if let Err(violation) = check_run(shape, case, &r, left, &want) {
                                panic!(
                                    "{shape:?}: {violation} (generator seed {seed})\n  plan: {}",
                                    plan_expr(&plan)
                                );
                            }
                            runs += 1;
                            let Ok(r) = r else { continue };
                            ok += 1;
                            early += usize::from(!launched_early(&r).is_empty());
                            preempted += r.counters.get(keys::REDUCES_PREEMPTED);
                            recomputed += r.counters.get(keys::LINEAGE_RECOMPUTES);
                            failed_runs += r.runs.iter().filter(|run| !run.ok).count();
                            lawful += usize::from(r.runs.iter().all(|run| run.ok));
                        }
                    }
                }
            }
        }
    }
    println!(
        "{runs} runs (seed {seed}): {ok} ended Ok, {early} launched a stage task early \
         ({in_window} shapes have an overlap window), {preempted} stage tasks preempted, \
         {recomputed} partitions recomputed, {failed_runs} runs failed on a stalled holder, \
         {lawful} Ok runs without a failed run held the attempt law"
    );
    assert_eq!(runs, 3 * 4 * 8 * 3 * 2 * 7);
    assert!(
        ok >= runs * 3 / 4
            && early >= runs / 3
            && preempted >= 50.0
            && recomputed >= 50.0
            && failed_runs >= 20,
        "sweep coverage too thin"
    );
}
