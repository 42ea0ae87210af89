//! DAG execution benchmark: a 3-stage shuffle pipeline — clean, with every
//! slot busy to the end of the source wave, and under a node kill recovered
//! by lineage recompute.
//!
//! The pipeline counts byte values of a flat PFS file, merges the counts
//! per key (shuffle 1), re-keys by parity, and rolls the groups up
//! (shuffle 2). All three stages are live from submit. Only the first source
//! wave pays a start-up: every later task launches in a slot a task of the
//! DAG committed in, which is warm. The `clean` run has two splits more than a
//! whole number of waves, so its last source wave leaves six of the eight
//! slots idle: the six tasks of the two post-shuffle stages launch and pull
//! there, beside it. The `packed` run fills every slot with a source until
//! the last one has launched: a downstream task takes only slots no upstream
//! task wants. A node's disk writes one spill at a time, so the first of the
//! two sources that end a node's last wave together commits a spill before
//! the other, and a downstream task takes its slot before the close; the rest
//! launch behind it. All of them launch where a source committed, without a
//! start-up. The faulted run kills one node the instant the last
//! source commits — under the waiting tasks of both shuffles — so recovery
//! must recompute exactly the lost partitions while they wait, never the
//! whole DAG.

use std::collections::BTreeMap;
use std::rc::Rc;

use mapreduce::{
    counter_keys as keys, run_dag, DagJob, DagResult, Dataset, MrError, Payload, TaskInput,
};
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Eq, Ge, Gt, Le, Lt};
use scidp_bench::{Report, Scale};
use simnet::{CostModel, FaultPlan};

use super::{flat_splits, output, small_cluster};

const INPUT: &str = "data/dagbench.bin";

fn sum_values(values: Vec<Payload>) -> Result<Payload, MrError> {
    let mut total = 0u64;
    for v in values {
        let Payload::Bytes(b) = v else {
            return Err(MrError::msg("expected byte value"));
        };
        total += String::from_utf8_lossy(&b)
            .parse::<u64>()
            .map_err(|e| MrError::msg(format!("bad count: {e}")))?;
    }
    Ok(Payload::Bytes(total.to_string().into_bytes()))
}

/// count → per-key sum (4 partitions) → parity re-key → group sum (2).
fn pipeline(n_splits: u64) -> Dataset {
    Dataset::from_splits(
        flat_splits(INPUT, n_splits * 4096, n_splits, 1),
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            for &x in &b {
                *counts.entry(x).or_default() += 1;
            }
            // A fixed per-task compute cost so stage shapes are visible.
            ctx.charge("compute", 2.0);
            let kv =
                |(k, v): (u8, usize)| (format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
            Ok(counts.into_iter().map(kv).collect())
        }),
    )
    .reduce_by_key(4, Rc::new(|_k, values, _ctx| sum_values(values)))
    .map(Rc::new(|k, v, _ctx| {
        let id: u64 = k
            .strip_prefix('b')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| MrError::msg(format!("unexpected key {k:?}")))?;
        Ok(vec![(format!("g{}", id % 2), v)])
    }))
    .reduce_by_key(2, Rc::new(|_k, values, _ctx| sum_values(values)))
}

fn run_with(n_splits: u64, plan: FaultPlan) -> (DagResult, Vec<(String, Vec<u8>)>) {
    let mut c = small_cluster(4, 1 << 16, 1, CostModel::default());
    let bytes: Vec<u8> = (0..n_splits * 4096).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c.sim.faults.install(plan);
    let r = run_dag(
        &mut c,
        DagJob::new("dagbench", pipeline(n_splits), "dagout"),
    )
    .expect("dag bench must survive its fault plan");
    let out = output(&c, "dagout");
    (r, out)
}

/// The run's scalars as `<run>.*` rows and its stage submissions as a table.
fn report_run(rep: &mut Report, run: &str, r: &DagResult) {
    let stages_run = r.counters.get(keys::STAGES_RUN);
    rep.row(&format!("{run}.elapsed_s"), r.elapsed(), "s", Sim);
    rep.row(&format!("{run}.stages_run"), stages_run, "", Count);
    rep.row(
        &format!("{run}.tasks_executed"),
        r.tasks_executed() as f64,
        "",
        Count,
    );
    let line = |(i, s): (usize, &mapreduce::StageRun)| {
        let (tasks, recomputed) = (s.n_tasks as f64, s.recomputed as f64);
        let cells = vec![
            tasks,
            recomputed,
            f64::from(u8::from(s.ok)),
            s.start_s,
            s.end_s,
        ];
        (format!("{run} run{i} s{} {}", s.stage, s.op), cells)
    };
    let lines: Vec<(String, Vec<f64>)> = r.runs.iter().enumerate().map(line).collect();
    let cols = [
        ("tasks", "tasks", "", Count),
        ("recomputed", "recomputed", "", Count),
        ("ok", "ok", "flag", Count),
        ("start_s", "start", "s", Sim),
        ("end_s", "end", "s", Sim),
    ];
    rep.table("", "stage submission", &cols, &lines);
}

/// When the source wave closed.
fn source_close_s(r: &DagResult) -> f64 {
    let source = r.runs.iter().find(|run| run.op == "source");
    source.map_or(f64::NAN, |run| run.end_s)
}

/// Seconds between the close of the source wave and the end of the DAG.
fn tail_s(r: &DagResult) -> f64 {
    r.end_s - source_close_s(r)
}

/// When the tasks of the source stage (`source`) or of the post-shuffle
/// stages launched.
fn launches(r: &DagResult, source: bool) -> impl Iterator<Item = f64> + '_ {
    let runs = r
        .runs
        .iter()
        .filter(move |run| (run.op == "source") == source);
    runs.flat_map(|run| &run.tasks).map(|t| t.start_s)
}

/// Post-shuffle tasks that launched before the source wave closed.
fn early_tasks(r: &DagResult) -> f64 {
    let close = source_close_s(r);
    launches(r, false).filter(|&t| t < close).count() as f64
}

/// Seconds from the last source launch to the first post-shuffle one.
fn downstream_lag_s(r: &DagResult) -> f64 {
    let first = launches(r, false).fold(f64::INFINITY, f64::min);
    first - launches(r, true).fold(f64::NEG_INFINITY, f64::max)
}

pub fn run(scale: &Scale) -> Report {
    // Whole waves over the eight slots, and two tasks more.
    let packed_splits = scale.pick(8, 16);
    let n_splits = packed_splits + 2;
    let mut rep = Report::new("dag");
    rep.note(format!(
        "dag: 3-stage count/merge/rollup pipeline, {n_splits} splits, 4 nodes x 2 slots"
    ));
    let (clean, clean_out) = run_with(n_splits, FaultPlan::none());
    rep.row("pipeline.stages", clean.n_stages as f64, "", Count);
    rep.row("pipeline.total_tasks", clean.total_tasks as f64, "", Count);
    rep.row("pipeline.splits", n_splits as f64, "", Count);
    report_run(&mut rep, "clean", &clean);
    let recomputes = clean.counters.get(keys::LINEAGE_RECOMPUTES);
    let hidden = clean.counters.get(keys::SHUFFLE_OVERLAP_SAVED_S);
    let preempted = clean.counters.get(keys::REDUCES_PREEMPTED);
    rep.row("clean.lineage_recomputes", recomputes, "", Count);
    rep.row("clean.tail_s", tail_s(&clean), "s", Sim);
    rep.row("clean.early_tasks", early_tasks(&clean), "", Count);
    rep.row("clean.shuffle_overlap_saved_s", hidden, "s", Sim);
    rep.row("clean.reduces_preempted", preempted, "", Count);
    rep.check(
        "clean.output_committed",
        !clean_out.is_empty(),
        "pipeline committed output",
    );

    // Every slot runs a source until the last one has launched: the
    // downstream tasks launch behind that, where the sources committed.
    let (packed, packed_out) = run_with(packed_splits, FaultPlan::none());
    rep.row("packed.splits", packed_splits as f64, "", Count);
    rep.row("packed.elapsed_s", packed.elapsed(), "s", Sim);
    rep.row("packed.tail_s", tail_s(&packed), "s", Sim);
    rep.row("packed.early_tasks", early_tasks(&packed), "", Count);
    rep.row(
        "packed.downstream_lag_s",
        downstream_lag_s(&packed),
        "s",
        Sim,
    );
    rep.check(
        "packed.output_committed",
        !packed_out.is_empty(),
        "pipeline committed output",
    );

    // Kill a node the moment the last source commits: the tasks of both
    // shuffles have started up, pulled what there was, and wait.
    let source = clean.runs.iter().find(|r| r.op == "source");
    let kill_at = source.expect("source stage ran").end_s + 1e-6;
    let (faulted, faulted_out) = run_with(n_splits, FaultPlan::none().kill_node(1, kill_at));
    rep.row("node_kill.kill_at_s", kill_at, "s", Sim);
    report_run(&mut rep, "node_kill", &faulted);

    // Recovery metrics — asserted, not just reported.
    let lost = faulted.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
    let recomputes = faulted.counters.get(keys::LINEAGE_RECOMPUTES);
    let (executed, planned) = (faulted.tasks_executed(), faulted.total_tasks);
    rep.row("node_kill.shuffle_partitions_lost", lost, "", Count);
    rep.row("node_kill.lineage_recomputes", recomputes, "", Count);
    rep.row(
        "node_kill.recovery_tasks",
        (executed - planned) as f64,
        "",
        Count,
    );
    rep.row("node_kill.full_rerun_tasks", planned as f64, "", Count);
    rep.identical("node_kill", &faulted_out, &clean_out);
    // A task whose input is lost keeps waiting, with its slot, its start-up
    // and what it had pulled, while exactly the lost partitions are run
    // again: no run fails on a hole, and the recovery costs what one source
    // task takes — plus one start-up for the waiting tasks whose slots the
    // recompute needed, when it needs any — not that plus a start-up per
    // stage downstream.
    rep.check(
        "node_kill.no_run_fails_on_a_hole",
        faulted.runs.iter().all(|r| r.ok),
        "a task whose input is lost keeps waiting while lineage refills the hole",
    );
    let source_task_s = source.map_or(f64::NAN, |r| {
        r.tasks.iter().map(|t| t.duration()).fold(0.0, f64::max)
    });
    let recovery_s = faulted.elapsed() - clean.elapsed();
    rep.row("node_kill.recovery_s", recovery_s, "s", Sim);
    let startup = CostModel::default().task_startup_s;
    let downstream_tasks = (clean.total_tasks - n_splits as usize) as f64;
    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("clean.stages_run", Eq, 3.0, "clean run: each stage exactly once"),
        ("clean.elapsed_s", Eq, clean.end_s - clean.start_s, "part files are task output: no driver-side write after the final stage"),
        ("clean.lineage_recomputes", Eq, 0.0, "clean run recomputes nothing"),
        ("clean.tail_s", Le, 0.25 * startup, "post-shuffle work is hidden: behind the source wave the DAG is two pulls, two sorts and a write"),
        ("clean.early_tasks", Eq, downstream_tasks, "every post-shuffle task launched beside the last source wave, on the slots it leaves idle"),
        ("clean.shuffle_overlap_saved_s", Gt, 0.0, "... and pulled there: pull and merge seconds before the close are hidden"),
        ("clean.reduces_preempted", Eq, 0.0, "a clean run preempts nothing"),
        ("packed.downstream_lag_s", Ge, 0.0, "a post-shuffle task takes only a slot no source wants: none launches before the last source has"),
        ("packed.tail_s", Lt, 0.25 * startup, "... in a slot a source committed in, warm: no start-up is paid behind the close"),
        ("node_kill.shuffle_partitions_lost", Ge, 2.0, "the kill must take committed shuffle outputs"),
        ("node_kill.lineage_recomputes", Eq, lost, "lineage recovery recomputes exactly the lost once-committed partitions"),
        ("node_kill.recovery_tasks", Lt, planned as f64, "recovery must beat a full re-run"),
        ("node_kill.recovery_s", Le, source_task_s + 1.25 * startup, "the recovery is one source task long, plus one start-up when the recompute had to preempt waiting tasks - not one per stage downstream"),
    ]);
    rep
}
