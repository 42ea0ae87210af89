//! DAG execution engine acceptance: byte-identity against hand-chained
//! single-stage jobs, stability under seeded read faults, exact
//! partition-granular lineage recovery after a node kill, final part files
//! committed inside their tasks — and a generated sweep of single faults
//! (the first DAG-level slice of ROADMAP "Generated chaos": `Ok`, and the
//! clean run's bytes, whatever dies whenever). `SCIDP_FAULT_SEED` reseeds
//! the sweep (CI's `driver` job runs seeds 1-3).

use scidp_suite::hdfs::EditOp;
use scidp_suite::mapreduce::{
    counter_keys as keys, hdfs_file_splits, run_dag, run_job, Cluster, DagJob, DagResult, Dataset,
    FetchDone, FlatPfsFetcher, FtConfig, InputSplit, Job, MrEnv, MrError, Payload, SplitFetcher,
    StageRun, TaskCtx, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId, Sim};
use scirng::Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

mod common;
use common::plan_expr;

const INPUT: &str = "data/dagwc.bin";
const N_SPLITS: u64 = 8;
const TOTAL_BYTES: u64 = 8 * 1024;

fn dag_cluster(nodes: usize, slots: usize) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: nodes,
        storage_nodes: 1,
        osts: 2,
        slots_per_node: slots,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 2,
        ..PfsConfig::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let bytes: Vec<u8> = (0..TOTAL_BYTES).map(|i| (i % 7) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

fn flat_splits() -> Vec<InputSplit> {
    flat_splits_of(N_SPLITS)
}

/// The input as `n` equal flat-PFS splits (the tail remainder unread).
fn flat_splits_of(n: u64) -> Vec<InputSplit> {
    let per = TOTAL_BYTES / n;
    (0..n)
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: INPUT.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks: 1,
            }),
        })
        .collect()
}

/// Count byte values of a split: the source records of every pipeline here.
fn count_records(input: TaskInput, _n: ()) -> Result<Vec<(String, Payload)>, MrError> {
    let TaskInput::Bytes(b) = input else {
        return Err(MrError::msg("expected bytes"));
    };
    let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
    for &x in &b {
        *counts.entry(x).or_default() += 1;
    }
    Ok(counts
        .into_iter()
        .map(|(k, v)| (format!("b{k}"), Payload::Bytes(v.to_string().into_bytes())))
        .collect())
}

fn sum_payloads(values: Vec<Payload>) -> Result<u64, MrError> {
    let mut total = 0u64;
    for v in values {
        let Payload::Bytes(b) = v else {
            return Err(MrError::msg("expected byte value"));
        };
        total += String::from_utf8_lossy(&b)
            .parse::<u64>()
            .map_err(|e| MrError::msg(format!("bad count: {e}")))?;
    }
    Ok(total)
}

/// Re-key a per-byte count `b<k>` into its parity group `g<k % 2>`.
fn parity_key(key: &str) -> Result<String, MrError> {
    let k: u64 = key
        .strip_prefix('b')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MrError::msg(format!("unexpected key {key:?}")))?;
    Ok(format!("g{}", k % 2))
}

/// The 3-stage pipeline as a DAG plan: count → per-key sum (4 partitions)
/// → parity re-key → per-group sum (2 partitions). Each source task
/// computes `source_s` seconds besides its read.
fn pipeline_plan(splits: Vec<InputSplit>, source_s: f64) -> Dataset {
    let count = Rc::new(move |input, ctx: &mut TaskCtx| {
        ctx.charge("compute", source_s);
        count_records(input, ())
    });
    Dataset::from_splits(splits, count)
        .reduce_by_key(
            4,
            Rc::new(|_k, values, _ctx| {
                Ok(Payload::Bytes(
                    sum_payloads(values)?.to_string().into_bytes(),
                ))
            }),
        )
        .map(Rc::new(|k, v, _ctx| Ok(vec![(parity_key(k)?, v)])))
        .reduce_by_key(
            2,
            Rc::new(|_k, values, _ctx| {
                Ok(Payload::Bytes(
                    sum_payloads(values)?.to_string().into_bytes(),
                ))
            }),
        )
}

/// When stage `stage` of a clean run closed: the end of its one run.
fn closed_at(clean: &DagResult, stage: usize) -> f64 {
    let run = clean.runs.iter().find(|r| r.stage == stage);
    run.expect("every stage of a clean DAG runs once").end_s
}

/// The node that committed its share of stage `stage` of a clean run first,
/// and the instant halfway from then to the stage's close. A task launched
/// into a warm slot pulls at once, so a fault meant to land after a holder
/// committed and before the stage's close — before the tasks that launch
/// then have pulled from it — has only this window.
fn done_before_the_close(clean: &DagResult, stage: usize) -> (NodeId, f64) {
    let run = clean.runs.iter().find(|r| r.stage == stage);
    let run = run.expect("every stage of a clean DAG runs once");
    let mut done: BTreeMap<NodeId, f64> = BTreeMap::new();
    for t in &run.tasks {
        let end = done.entry(t.node).or_insert(t.end_s);
        *end = end.max(t.end_s);
    }
    let first = done.into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
    let (node, at) = first.expect("the stage ran a task");
    assert!(
        at < run.end_s,
        "every node commits as the stage closes: {run:?}"
    );
    (node, 0.5 * (at + run.end_s))
}

/// Non-empty committed files under `dir`, as (path, bytes) sorted by path.
fn output_files(c: &Cluster, dir: &str) -> Vec<(String, Vec<u8>)> {
    let mut files = c.read_output(dir).unwrap();
    files.retain(|(_, d)| !d.is_empty());
    files
}

/// File contents only, for comparisons across different naming schemes
/// (`part-r-*` classic vs `part-*` DAG).
fn contents(files: &[(String, Vec<u8>)]) -> Vec<Vec<u8>> {
    files.iter().map(|(_, d)| d.clone()).collect()
}

/// The same pipeline as two hand-chained classic jobs: job 1 is the count
/// map + per-key sum reduce; job 2 re-reads job 1's part files from HDFS,
/// re-keys by parity, and sums per group.
fn run_hand_chained(c: &mut Cluster) -> (Vec<(String, Vec<u8>)>, usize) {
    let job1 = Job::new(
        "chain1",
        flat_splits(),
        Rc::new(|input, ctx| {
            for (k, v) in count_records(input, ())? {
                ctx.emit(k, v);
            }
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            ctx.emit(
                key,
                Payload::Bytes(sum_payloads(values)?.to_string().into_bytes()),
            );
            Ok(())
        })),
        4,
        "chain1",
    );
    let r1 = run_job(c, job1).unwrap();
    let env = c.env();
    let mut splits2 = Vec::new();
    {
        let h = c.hdfs.borrow();
        let mut files = h.namenode.list_files_recursive("chain1").unwrap();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        drop(h);
        for f in files {
            splits2.extend(hdfs_file_splits(&env, &f.path).expect("chain1 output staged"));
        }
    }
    let job2 = Job::new(
        "chain2",
        splits2,
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            for line in String::from_utf8_lossy(&b).lines() {
                let (k, v) = line
                    .split_once('\t')
                    .ok_or_else(|| MrError::msg(format!("bad line {line:?}")))?;
                ctx.emit(parity_key(k)?, Payload::Bytes(v.as_bytes().to_vec()));
            }
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            ctx.emit(
                key,
                Payload::Bytes(sum_payloads(values)?.to_string().into_bytes()),
            );
            Ok(())
        })),
        2,
        "chain2",
    );
    let r2 = run_job(c, job2).unwrap();
    let tasks = (r1.counters.get(keys::MAP_TASKS)
        + r1.counters.get(keys::REDUCE_TASKS)
        + r2.counters.get(keys::MAP_TASKS)
        + r2.counters.get(keys::REDUCE_TASKS)) as usize;
    (output_files(c, "chain2"), tasks)
}

#[test]
fn dag_output_matches_hand_chained_single_stage_jobs() {
    let mut chained = dag_cluster(4, 2);
    let (chain_out, _) = run_hand_chained(&mut chained);
    assert!(!chain_out.is_empty());

    let mut dagged = dag_cluster(4, 2);
    let r = run_dag(
        &mut dagged,
        DagJob::new("pipe", pipeline_plan(flat_splits(), 0.0), "dagout"),
    )
    .unwrap();
    assert_eq!(r.n_stages, 3);
    let dag_out = output_files(&dagged, "dagout");
    assert_eq!(
        contents(&dag_out),
        contents(&chain_out),
        "the DAG must commit byte-identical partition contents"
    );
}

#[test]
fn dag_output_is_identical_under_fault_seeds_1_to_3() {
    let mut clean = dag_cluster(4, 2);
    let rc = run_dag(
        &mut clean,
        DagJob::new("pipe", pipeline_plan(flat_splits(), 0.0), "dagout"),
    )
    .unwrap();
    let clean_out = output_files(&clean, "dagout");
    assert!(!clean_out.is_empty());
    assert_eq!(rc.counters.get(keys::LINEAGE_RECOMPUTES), 0.0);

    for seed in 1u64..=3 {
        let mut c = dag_cluster(4, 2);
        c.sim.faults.install(
            FaultPlan::none()
                .fail_read(INPUT, 2)
                .with_random_read_failures(seed, 0.05),
        );
        let r = run_dag(
            &mut c,
            DagJob::new("pipe", pipeline_plan(flat_splits(), 0.0), "dagout"),
        )
        .unwrap();
        assert!(
            c.sim.faults.injected_read_failures() >= 1,
            "seed {seed}: the planted read fault fired"
        );
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "seed {seed}: failed reads were retried"
        );
        assert_eq!(
            output_files(&c, "dagout"),
            clean_out,
            "seed {seed}: read faults must not change committed bytes"
        );
    }
}

#[test]
fn killed_node_recomputes_exactly_its_upstream_chain() {
    // 1 slot per node so the 4-task stages spread one task per node: the
    // killed node then holds exactly one stage-0 and one stage-1 output —
    // a lineage chain of depth 2.
    let plan_of = || {
        Dataset::from_splits(
            flat_splits(),
            Rc::new(|input, _ctx| count_records(input, ())),
        )
        .reduce_by_key(
            4,
            Rc::new(|_k, values, _ctx| {
                Ok(Payload::Bytes(
                    sum_payloads(values)?.to_string().into_bytes(),
                ))
            }),
        )
        .map(Rc::new(|k, v, _ctx| Ok(vec![(parity_key(k)?, v)])))
        .reduce_by_key(
            4,
            Rc::new(|_k, values, _ctx| {
                Ok(Payload::Bytes(
                    sum_payloads(values)?.to_string().into_bytes(),
                ))
            }),
        )
    };
    let mk_dag = || DagJob::new("lineage", plan_of(), "dagout");
    let mut clean = dag_cluster(4, 1);
    let rc = run_dag(&mut clean, mk_dag()).unwrap();
    assert_eq!(rc.n_stages, 3);
    assert_eq!(rc.counters.get(keys::STAGES_RUN), 3.0);
    let clean_out = output_files(&clean, "dagout");

    // Kill the node whose stage-1 task committed first, before stage 1
    // closes: stages 0 and 1 have committed everything it holds, and the
    // final-stage task it took, warm, waits for the close.
    let (victim, kill_at) = done_before_the_close(&rc, 1);
    let mut faulted = dag_cluster(4, 1);
    faulted
        .sim
        .faults
        .install(FaultPlan::none().kill_node(victim.0, kill_at));
    let rf = run_dag(&mut faulted, mk_dag()).unwrap();
    let lost = rf.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
    assert!(
        lost >= 2.0,
        "the kill must take a stage-0 and a stage-1 output: lost {lost}"
    );
    // Exactness: recomputes equal the lineage depth of the lost chain —
    // one stage-0 partition, then the stage-1 partition built from it —
    // never the whole stage, never the whole DAG.
    assert_eq!(
        rf.counters.get(keys::LINEAGE_RECOMPUTES),
        lost,
        "recompute exactly the lost once-committed partitions"
    );
    // One sparse run per affected stage, submitted in the instant of the
    // kill: 3 clean stage runs + recovery runs for stages 0 and 1. The final
    // stage's one run lives through it — its tasks wait for the holes to be
    // filled again, the one the kill took is requeued — and no run fails.
    assert_eq!(rf.counters.get(keys::STAGES_RUN), 5.0);
    assert!(rf.runs.iter().all(|r| r.ok), "{:?}", rf.runs);
    // Task accounting: recovery adds the lost chain + the final re-run,
    // far below a full second pass.
    assert!(rf.tasks_executed() > rf.total_tasks);
    assert!(rf.tasks_executed() < 2 * rf.total_tasks);
    assert_eq!(
        output_files(&faulted, "dagout"),
        clean_out,
        "recovered output must be byte-identical to the clean run"
    );
}

/// A DAG must not forget node health at a stage boundary: a node the
/// failure detector declared dead in stage 0 computes no stage-1 partition
/// (a hang never heals, so it is never reinstated). Were the next stage to
/// start from a fresh node table, it would launch on the silent node again
/// and wait out the heartbeat ladder a second time.
#[test]
fn a_node_declared_dead_in_one_stage_computes_nothing_in_the_next() {
    const HUNG: NodeId = NodeId(0);
    let mut c = dag_cluster(4, 2);
    // Node 0 falls silent with two source tasks on it, before any commits.
    c.sim
        .faults
        .install(FaultPlan::none().hang_node(HUNG.0, 0.2));
    let n_parts = 8; // one stage-1 task per slot of the whole cluster
    let plan = Dataset::from_splits(
        flat_splits(),
        Rc::new(|input, _ctx| count_records(input, ())),
    )
    .reduce_by_key(
        n_parts,
        Rc::new(|_k, values, _ctx| {
            Ok(Payload::Bytes(
                sum_payloads(values)?.to_string().into_bytes(),
            ))
        }),
    );
    let job = DagJob {
        ft: FtConfig {
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 2,
            ..FtConfig::default()
        },
        ..DagJob::new("health", plan, "healthout")
    };
    let r = run_dag(&mut c, job).unwrap();
    assert_eq!(r.counters.get(keys::STAGES_RUN), 2.0);
    // Suspected once, in stage 0, and still suspected when stage 1 starts.
    assert_eq!(r.counters.get(keys::NODES_SUSPECTED), 1.0);
    assert_eq!(r.counters.get(keys::NODES_REINSTATED), 0.0);
    // The two source attempts stranded on it are flagged as it is suspected,
    // at 1 s, and twinned in the first slots the other sources free; the
    // twins win. Dropping the stranded originals gives node 0's two slots
    // back, but a suspected node takes no new attempt: nothing launches
    // there, so nothing is requeued when it is declared dead, at 2 s. No
    // task of either stage commits there.
    let get = |k| r.counters.get(k);
    assert_eq!(get(keys::SPECULATIVE_LAUNCHED), 2.0, "{:?}", r.counters);
    assert_eq!(get(keys::SPECULATIVE_WON), 2.0, "{:?}", r.counters);
    assert_eq!(get(keys::TASK_RETRIES), 0.0, "{:?}", r.counters);
    // No source is requeued, so no stage-1 task gives its slot up.
    assert_eq!(get(keys::REDUCES_PREEMPTED), 0.0, "{:?}", r.counters);
    let attempts = get(keys::MAP_ATTEMPTS);
    assert_eq!(attempts, (N_SPLITS as usize + 2 + n_parts) as f64);
    for run in &r.runs {
        assert_eq!(run.tasks.len(), run.n_tasks, "stage {} ran once", run.stage);
        for t in &run.tasks {
            assert_ne!(t.node, HUNG, "stage {} task {}", run.stage, t.index);
        }
    }
    // Behind the close of stage 0, stage 1 is the four tasks still waiting
    // and then one wave of the other four over the six live slots, nothing
    // more: it does not sit through two heartbeats before it notices node 0.
    let s1 = r.runs.iter().find(|run| run.stage == 1).expect("stage 1");
    let tail = s1.end_s - closed_at(&r, 0);
    assert!(tail < 1.5, "stage 1 ended {tail} s after stage 0");
}

/// `(simulated time, node)` of every source fetch a run started.
type FetchLog = Rc<RefCell<Vec<(f64, NodeId)>>>;

/// A source fetcher that logs where and when each of its fetches starts.
struct LoggedFetcher {
    inner: Rc<dyn SplitFetcher>,
    log: FetchLog,
}

impl SplitFetcher for LoggedFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        self.log.borrow_mut().push((sim.now().secs(), node));
        self.inner.fetch(env, sim, node, done)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// A shuffle hole is the dead producer's fault, not the reader's: the final
/// stage's tasks wait for it to be filled — but not in the way. The lost
/// source partitions take the slots the waiting tasks hold, so the lineage
/// recompute has the whole surviving cluster and ends `Ok` with the clean
/// bytes.
#[test]
fn lost_source_outputs_are_recomputed_in_one_wave_over_every_survivor() {
    let run = |plan: FaultPlan| {
        let log = FetchLog::default();
        // 12 source tasks over 4 one-slot nodes: three outputs per node.
        let mut splits = flat_splits_of(12);
        for s in &mut splits {
            let (inner, log) = (s.fetcher.clone(), log.clone());
            s.fetcher = Rc::new(LoggedFetcher { inner, log });
        }
        let mut c = dag_cluster(4, 1);
        c.sim.faults.install(plan);
        // Each source computes 2 s, twice a start-up: the recompute that
        // starts cold in the slot taken back is no straggler beside two
        // that start warm.
        let plan = pipeline_plan(splits, 2.0);
        let r = run_dag(&mut c, DagJob::new("holes", plan, "dagout")).unwrap();
        (r, output_files(&c, "dagout"), log.take())
    };
    let (rc, clean_out, _) = run(FaultPlan::none());
    // Node 1 commits its stage-1 task first, and a final task launches
    // there, warm, to wait for the close. Kill node 3 meanwhile: it dies with
    // three source outputs and its stage-1 task still computing.
    let (waits_on, kill_at) = done_before_the_close(&rc, 1);
    assert_eq!(waits_on, NodeId(1));
    let (rf, out, fetches) = run(FaultPlan::none().kill_node(3, kill_at));
    assert!(rf.runs.iter().all(|r| r.ok), "no run fails on a hole");
    // The three lost source outputs are recomputed in one wave, one per
    // survivor — one of them on the slot taken back from the final task that
    // waits on node 1 (node 3's stage-1 task died with it and is requeued).
    let recompute: Vec<u32> = fetches
        .iter()
        .filter(|&&(t, _)| t > kill_at)
        .map(|&(_, n)| n.0)
        .collect();
    assert_eq!(recompute.len(), 3, "node 3 held three source outputs");
    let nodes: BTreeSet<u32> = recompute.into_iter().collect();
    assert_eq!(
        nodes,
        BTreeSet::from([0, 1, 2]),
        "every survivor takes part in the source recompute"
    );
    assert_eq!(rf.counters.get(keys::REDUCES_PREEMPTED), 1.0, "{rf:?}");
    assert_eq!(rf.counters.get(keys::SPECULATIVE_LAUNCHED), 0.0, "{rf:?}");
    assert_eq!(out, clean_out, "recovered output is byte-identical");
}

// ---------------------------------------------------------------------------
// Final part files are task output
// ---------------------------------------------------------------------------

/// count → per-key sum (4 partitions) → per-key sum again (4 partitions).
/// The seven keys `b0..b6` reach every final partition, so each final task
/// writes a part file.
fn wide_dag() -> DagJob {
    let sum = || -> scidp_suite::mapreduce::AggFn {
        Rc::new(|_k, values, _ctx| {
            Ok(Payload::Bytes(
                sum_payloads(values)?.to_string().into_bytes(),
            ))
        })
    };
    let plan = Dataset::from_splits(
        flat_splits(),
        Rc::new(|input, _ctx| count_records(input, ())),
    )
    .reduce_by_key(4, sum())
    .reduce_by_key(4, sum());
    DagJob::new("wide", plan, "dagout")
}

/// [`wide_dag`] on `nodes` one-slot nodes under `plan`: the outcome and the
/// world it left.
fn run_wide(nodes: usize, plan: FaultPlan) -> (Result<DagResult, MrError>, Cluster) {
    let mut c = dag_cluster(nodes, 1);
    c.sim.faults.install(plan);
    let r = run_dag(&mut c, wide_dag());
    (r, c)
}

/// The last successful run of the final stage, with its task reports.
fn final_run(r: &DagResult) -> &StageRun {
    let mut finals = r.runs.iter().filter(|s| s.stage == r.n_stages - 1 && s.ok);
    let last = finals.next_back();
    last.expect("the final stage of a DAG that ended `Ok` ran")
}

/// The node holding the first replica of each block of `path`: HDFS places
/// it on the writer, so this is where the file was written from.
fn writers(c: &Cluster, path: &str) -> Vec<NodeId> {
    let h = c.hdfs.borrow();
    let blocks = h.namenode.blocks(path).unwrap();
    blocks.iter().map(|b| b.locations()[0]).collect()
}

/// Upstream partitions the runs of `r` re-executed, and final ones.
fn recomputed(r: &DagResult) -> (usize, usize) {
    let of = |is_final: bool| {
        let runs = r.runs.iter();
        let runs = runs.filter(|s| (s.stage == r.n_stages - 1) == is_final);
        runs.map(|s| s.recomputed).sum()
    };
    (of(false), of(true))
}

#[test]
fn final_part_files_are_committed_inside_their_tasks() {
    let (r, c) = run_wide(4, FaultPlan::none());
    let r = r.unwrap();
    let last = final_run(&r);
    assert_eq!(
        last.end_s, r.end_s,
        "no driver-side write tail: the DAG ends with its final stage"
    );
    assert_eq!(last.tasks.len(), 4);
    assert_eq!(
        output_files(&c, "dagout").len(),
        4,
        "every partition has keys"
    );
    // `[start, end)` of each task's part-file write.
    let writes: Vec<(f64, f64)> = last
        .tasks
        .iter()
        .map(|t| {
            let w = t.phase("write");
            assert!(w > 0.0, "partition {} has no write phase: {t:?}", t.index);
            (t.end_s - w, t.end_s)
        })
        .collect();
    let (a, b) = (writes[0], writes[1]);
    assert!(
        a.0.max(b.0) < a.1.min(b.1),
        "partitions 0 and 1 are written concurrently: {a:?} {b:?}"
    );
    // Each file sits where its task ran, and no temp file outlives the run.
    for t in &last.tasks {
        let path = format!("dagout/part-{:05}", t.index);
        assert_eq!(writers(&c, &path), vec![t.node], "{path}");
    }
    let h = c.hdfs.borrow();
    let leaked = h.namenode.list_files_recursive("dagout/_tmp");
    assert!(leaked.unwrap_or_default().is_empty());
}

#[test]
fn a_committed_final_partition_survives_its_node() {
    // Two one-slot nodes run the four final tasks in two waves.
    let (rc, clean) = run_wide(2, FaultPlan::none());
    let rc = rc.unwrap();
    let tasks = &final_run(&rc).tasks;
    let first = tasks.iter().find(|t| t.index == 0).unwrap();
    // Kill the node that committed `part-00000` right after that commit,
    // the second wave — launched, warm, in that instant — still writing.
    let kill_at = first.end_s + 1e-6;
    let second = tasks.iter().filter(|t| t.start_s >= first.end_s);
    let writing = second.filter(|t| t.end_s > kill_at).count();
    assert_eq!(writing, 2, "the second wave has barely started: {tasks:?}");
    let victim = first.node;
    let (rf, faulted) = run_wide(2, FaultPlan::none().kill_node(victim.0, kill_at));
    let rf = rf.unwrap();
    assert_eq!(
        output_files(&faulted, "dagout"),
        output_files(&clean, "dagout")
    );
    // The second wave found the victim's upstream outputs gone and waited
    // for lineage recovery — which left the committed part file alone: it is
    // on HDFS, not in the dead node's memory.
    let lost = rf.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
    assert!(lost >= 2.0, "a stage-0 and a stage-1 output died: {lost}");
    let finals = rf.runs.iter().filter(|s| s.stage == rf.n_stages - 1);
    let zeros: Vec<_> = finals
        .flat_map(|s| s.tasks.iter().filter(|t| t.index == 0))
        .collect();
    assert!(
        zeros.len() == 1 && zeros[0].end_s < kill_at,
        "partition 0 was computed a second time: {zeros:?}"
    );
    let (upstream, finals) = recomputed(&rf);
    assert_eq!(finals, 0, "no final partition counts as recomputed");
    assert_eq!(upstream as f64, lost);
    assert_eq!(rf.counters.get(keys::LINEAGE_RECOMPUTES), lost);
    assert_eq!(writers(&faulted, "dagout/part-00000"), vec![victim]);
}

#[test]
fn a_kill_during_the_final_write_is_recovered_not_written_from_the_dead_node() {
    let (rc, clean) = run_wide(4, FaultPlan::none());
    let rc = rc.unwrap();
    // 0.1 ms before the DAG ends its part files are mid-write (one takes
    // 0.5 ms): the node writing the last of them dies.
    let last = final_run(&rc).tasks.iter().max_by_key(|t| t.index);
    let victim = last.unwrap().node;
    let kill_at = rc.end_s - 1e-4;
    let (rf, faulted) = run_wide(4, FaultPlan::none().kill_node(victim.0, kill_at));
    let rf = rf.unwrap();
    let files = output_files(&faulted, "dagout");
    assert_eq!(files, output_files(&clean, "dagout"));
    for (path, _) in &files {
        assert!(
            !writers(&faulted, path).contains(&victim),
            "{path} was written from the node that died during the write"
        );
    }
    // The write died with its node: the partition ran again elsewhere, found
    // the victim's shuffle outputs gone and recovered them through lineage.
    // Only those count as lost — a final result is never a shuffle output.
    assert!(rf.counters.get(keys::STAGES_RUN) > 3.0, "{rf:?}");
    let lost = rf.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
    assert_eq!(lost, 3.0, "two source outputs and one stage-1 output");
    assert_eq!(rf.counters.get(keys::LINEAGE_RECOMPUTES), lost);
    assert_eq!(recomputed(&rf), (3, 0));
    // The final stage was submitted twice, the first submission's orphan
    // still writing when it failed: attempt ids count on across the
    // submissions of a DAG, so no temp name was ever used twice. The
    // NameNode's edit log holds every file creation of the run.
    let h = faulted.hdfs.borrow();
    let journal = h.namenode.journal();
    assert!(!journal.has_checkpoint(), "the log is the whole history");
    let temp_name = |op: &EditOp| match op {
        EditOp::CreateFile { path } if path.contains("/_tmp/") => Some(path.clone()),
        _ => None,
    };
    let temps: Vec<String> = journal.edits().iter().filter_map(temp_name).collect();
    assert_eq!(temps.len(), 5, "four part files and one rewrite: {temps:?}");
    let distinct: BTreeSet<&String> = temps.iter().collect();
    assert_eq!(distinct.len(), temps.len(), "a temp name twice: {temps:?}");
}

/// A holder cut off for less than the detector's dead threshold is never
/// withdrawn, so nothing of it is lost: the tasks of stage 1 that pull from
/// it behind the close put those pulls off, and issue them once it can be
/// reached again — not at a hang deadline. Nothing is recomputed, no run
/// fails, and the bytes are the clean run's.
#[test]
fn a_holder_cut_off_for_less_than_the_dead_threshold_loses_nothing() {
    // Three one-slot nodes: the source holder that finishes first commits
    // before stage 0 closes (as below).
    let (rc, clean) = run_wide(3, FaultPlan::none());
    let rc = rc.unwrap();
    // It is cut off before the close, and heard again before its fourth
    // missed heartbeat of 3 s: suspected, never declared dead.
    let (holder, at) = done_before_the_close(&rc, 0);
    let heal = at + 7.0;
    assert!(heal > closed_at(&rc, 0), "the cut outlasts the close");
    let plan = FaultPlan::none().partition(&[holder.0], at, heal);
    let (r, c) = run_wide(3, plan.clone());
    let r = r.unwrap_or_else(|e| panic!("{e:?} under {}", plan_expr(&plan)));
    assert_eq!(output_files(&c, "dagout"), output_files(&clean, "dagout"));
    let get = |k| r.counters.get(k);
    assert_eq!(get(keys::NODES_SUSPECTED), 1.0, "{:?}", r.counters);
    assert_eq!(get(keys::SHUFFLE_PARTITIONS_LOST), 0.0, "{:?}", r.counters);
    assert_eq!(get(keys::LINEAGE_RECOMPUTES), 0.0, "{:?}", r.counters);
    assert_eq!(get(keys::TASKS_HANG_DETECTED), 0.0, "{:?}", r.counters);
    assert_eq!(get(keys::STAGES_RUN), 3.0, "{:?}", r.counters);
    assert!(r.runs.iter().all(|run| run.ok), "{:?}", r.runs);
    // The put-off pulls are issued within a heartbeat of the heal.
    let interval = FtConfig::default().heartbeat_interval_s;
    let late = r.end_s - rc.end_s;
    assert!(
        late <= heal - at + interval,
        "{late} s later than the clean run"
    );
}

/// What every run committed is counted once, however the DAG recovered: a
/// stage-1 task is merging, between the run's two waves, when its node
/// hangs. The other first-wave task commits; the second-wave task waits
/// for the hung node's outputs until the detector declares it dead, and
/// lineage recomputes them on the survivor. The recovered DAG counts every
/// committed task once — `map_tasks`, `shuffle_bytes` — and every part
/// file once — `hdfs_write_bytes`.
#[test]
fn a_dag_recovered_between_two_waves_counts_what_it_committed_once() {
    // Two one-slot nodes run the four stage-1 tasks in two waves.
    let (rc, clean) = run_wide(2, FaultPlan::none());
    let rc = rc.unwrap();
    let clean_out = output_files(&clean, "dagout");
    // Keys per partition, read off the part files: both shuffles are four
    // wide, so stage-1 partition `p` holds the keys of `part-0000p`.
    let keys_in = |p: usize| {
        let name = format!("dagout/part-{p:05}");
        let file = clean_out.iter().find(|(path, _)| *path == name);
        file.map_or(0, |(_, data)| data.iter().filter(|&&b| b == b'\n').count())
    };
    // A stage-1 task pulls one `b<k>\t<3-digit count>` pair per key from
    // each of the 8 source outputs, a final task one `b<k>\t<4-digit sum>`.
    let pulled = |r: &DagResult| -> f64 {
        let runs = r.runs.iter().filter(|run| run.stage > 0);
        let tasks = runs.flat_map(|run| run.tasks.iter().map(move |t| (run.stage, t.index)));
        let bytes = tasks.map(|(stage, p)| keys_in(p) * if stage == 1 { 8 * 5 } else { 6 });
        bytes.sum::<usize>() as f64
    };
    assert_eq!(rc.counters.get(keys::SHUFFLE_BYTES), pulled(&rc));
    assert_eq!(rc.counters.get(keys::MAP_TASKS), rc.total_tasks as f64);

    // A first-wave task of stage 1 has pulled its input and is merging when
    // its node hangs: it cannot report, the other first-wave task commits, and
    // the second-wave task launched, warm, in that slot cannot reach the
    // silent node until it is declared dead.
    let s1 = rc.runs.iter().find(|r| r.stage == 1).expect("stage 1 ran");
    let first = s1
        .tasks
        .iter()
        .min_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let first = first.unwrap();
    let landed = ["startup", "wait", "shuffle"].map(|p| first.phase(p));
    let merging_from = first.start_s + landed.iter().sum::<f64>();
    let merged = first.end_s - first.phase("spill");
    let hang_at = 0.5 * (merging_from + merged);
    let (rf, faulted) = run_wide(2, FaultPlan::none().hang_node(first.node.0, hang_at));
    let rf = rf.unwrap();
    assert_eq!(output_files(&faulted, "dagout"), clean_out);
    assert!(rf.runs.iter().all(|run| run.ok), "{:?}", rf.runs);
    let redone = rf.counters.get(keys::LINEAGE_RECOMPUTES);
    assert!(redone >= 1.0);
    let committed: usize = rf.runs.iter().map(|r| r.tasks.len()).sum();
    assert_eq!(committed as f64, rc.total_tasks as f64 + redone);
    assert_eq!(rf.counters.get(keys::MAP_TASKS), committed as f64);
    assert_eq!(rf.counters.get(keys::SHUFFLE_BYTES), pulled(&rf));
    assert_eq!(
        rf.counters.get(keys::HDFS_WRITE_BYTES),
        rc.counters.get(keys::HDFS_WRITE_BYTES),
        "each part file is written once"
    );
}

// ---------------------------------------------------------------------------
// Faults on the shuffle: the holder fails *after* its outputs committed
// ---------------------------------------------------------------------------

/// A node that commits its stage-0 outputs and *then* goes silent — hung
/// for good, or partitioned away past the dead threshold and healed — is
/// unreachable when stage 1 pulls from it behind the close: the pull asks
/// `Sim::link` and is put off. When the detector declares the node dead its
/// outputs are lost, and lineage recomputes them on the survivors; no run
/// fails.
#[test]
fn a_holder_that_falls_silent_after_it_commits_is_recovered_through_lineage() {
    // Three one-slot nodes: one of them commits its last source before stage
    // 0 closes.
    let (rc, clean) = run_wide(3, FaultPlan::none());
    let rc = rc.unwrap();
    let clean_out = output_files(&clean, "dagout");
    // It falls silent before the close: the tasks of stage 1 that launch
    // then, warm, pull from it at once.
    let (holder, at) = done_before_the_close(&rc, 0);
    let holder = holder.0;
    for plan in [
        FaultPlan::none().hang_node(holder, at),
        FaultPlan::none().partition(&[holder], at, at + HEAL_AFTER_S),
    ] {
        let (r, c) = run_wide(3, plan.clone());
        let r = r.unwrap_or_else(|e| panic!("{e:?} under {}", plan_expr(&plan)));
        assert_eq!(
            output_files(&c, "dagout"),
            clean_out,
            "{}",
            plan_expr(&plan)
        );
        let lost = r.counters.get(keys::SHUFFLE_PARTITIONS_LOST);
        assert!(lost >= 1.0, "the silent holder's outputs count as lost");
        assert_eq!(r.counters.get(keys::LINEAGE_RECOMPUTES), lost);
        let failed = r.runs.iter().find(|run| !run.ok);
        assert!(failed.is_none(), "{failed:?} under {}", plan_expr(&plan));
    }
}

/// A slow link loses nothing and recomputes nothing: it stretches the pulls
/// that cross it. Every link 8x slower: every shuffle pull 8x longer. (Every
/// slot runs a task of the stage upstream until that closes, so no pull here
/// is an early one: `shuffle` is the whole of it.)
#[test]
fn slow_links_slow_the_dag_shuffle_by_their_factor() {
    const FACTOR: f64 = 8.0;
    let (rc, clean) = run_wide(4, FaultPlan::none());
    let mut plan = FaultPlan::none();
    for a in 0..4 {
        for b in a + 1..4 {
            plan = plan.slow_link(a, b, FACTOR);
        }
    }
    let (rs, slow) = run_wide(4, plan);
    let (rc, rs) = (rc.unwrap(), rs.unwrap());
    assert_eq!(
        output_files(&slow, "dagout"),
        output_files(&clean, "dagout")
    );
    assert_eq!(rs.counters.get(keys::STAGES_RUN), 3.0);
    assert_eq!(rs.counters.get(keys::SHUFFLE_PARTITIONS_LOST), 0.0);
    let mut compared = 0;
    for (c, s) in rc.runs.iter().zip(&rs.runs).skip(1) {
        for (tc, ts) in c.tasks.iter().zip(&s.tasks) {
            let (read_c, read_s) = (tc.phase("shuffle"), ts.phase("shuffle"));
            if read_c == 0.0 {
                // Every pair this task pulls sits on its own node.
                assert_eq!(read_s, 0.0, "loopback has no link to slow");
                continue;
            }
            assert!(
                (read_s / read_c - FACTOR).abs() < 1e-6,
                "stage {} task {}: shuffle {read_s} s vs clean {read_c} s",
                c.stage,
                tc.index
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 4,
        "every stage-1 task pulls from all four nodes"
    );
}

// ---------------------------------------------------------------------------
// Generated sweep: one fault, any node, any instant
// ---------------------------------------------------------------------------

/// How long a healing partition lasts: past the detector's dead threshold
/// (4 misses x 3 s), so the node is withdrawn *and* reinstated.
const HEAL_AFTER_S: f64 = 14.0;

/// The single-fault plans of one `(node, instant)`.
fn single_faults(seed: u64, node: u32, at_s: f64) -> [FaultPlan; 4] {
    let p = || FaultPlan::none().with_seed(seed);
    [
        p().kill_node(node, at_s),
        p().hang_node(node, at_s),
        p().partition(&[node], at_s, at_s + HEAL_AFTER_S),
        p().partition(&[node], at_s, f64::INFINITY),
    ]
}

/// Instants of the clean run a fault is most likely to matter at: the DAG's
/// submission, each stage's close exactly and 1 µs either side (the last is
/// the DAG's end), and — drawn from `rng` — one instant between every two
/// closes and inside every final write.
fn instants(rng: &mut Rng, clean: &DagResult) -> Vec<f64> {
    let mut at = vec![clean.start_s, clean.start_s + 1e-6];
    let mut last_close = clean.start_s;
    for run in &clean.runs {
        at.extend([run.end_s - 1e-6, run.end_s, run.end_s + 1e-6]);
        at.push(last_close + rng.f64() * (run.end_s - last_close));
        last_close = run.end_s;
    }
    for t in &final_run(clean).tasks {
        at.push(t.end_s - rng.f64() * t.phase("write"));
    }
    at.retain(|&t| t >= 0.0);
    at
}

#[test]
fn any_single_fault_at_any_instant_ends_ok_with_the_clean_bytes() {
    const NODES: u32 = 4;
    let seed = FaultPlan::env_seed(17);
    let mut rng = Rng::seed_from_u64(seed);
    let (rc, clean) = run_wide(NODES as usize, FaultPlan::none());
    let rc = rc.unwrap();
    let clean_out = output_files(&clean, "dagout");
    // 8 stage submissions per stage plus 8, `dag.rs`'s lineage bound.
    let bound = (rc.n_stages * 8 + 8) as f64;
    // What the sweep exercised, so a green run is not a vacuous one.
    let (mut plans, mut recovered, mut recomputes, mut elapsed_s) = (0, 0, 0.0, 0.0);
    for at_s in instants(&mut rng, &rc) {
        for node in 0..NODES {
            for plan in single_faults(seed, node, at_s) {
                let (r, c) = run_wide(NODES as usize, plan.clone());
                let violation = match &r {
                    Err(e) => Some(format!("ended in {e:?}")),
                    Ok(_) if output_files(&c, "dagout") != clean_out => {
                        Some("committed other bytes than the clean run".to_string())
                    }
                    Ok(r) if r.counters.get(keys::STAGES_RUN) > bound => {
                        Some(format!("{r:?} exceeds {bound} stage submissions"))
                    }
                    Ok(_) => None,
                };
                if let Some(violation) = violation {
                    panic!(
                        "the DAG {violation} (generator seed {seed})\n  plan: {}",
                        plan_expr(&plan)
                    );
                }
                let r = r.unwrap();
                let redone = r.counters.get(keys::LINEAGE_RECOMPUTES);
                elapsed_s += r.elapsed();
                plans += 1;
                recovered += usize::from(redone > 0.0);
                recomputes += redone;
            }
        }
    }
    println!(
        "{plans} plans (seed {seed}): all ended Ok in {elapsed_s:.1} s in all, {recovered} \
         recovered through lineage, {recomputes} partitions recomputed"
    );
    assert!(
        plans >= 200 && recovered >= plans / 8,
        "sweep coverage too thin: {recovered} of {plans} plans lost a shuffle output"
    );
}
