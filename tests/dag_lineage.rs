//! DAG execution engine acceptance: byte-identity against hand-chained
//! single-stage jobs, stability under seeded read faults, and exact
//! partition-granular lineage recovery after a node kill.

use scidp_suite::mapreduce::{
    counter_keys as keys, hdfs_file_splits, run_dag, run_job, Cluster, DagJob, Dataset, FetchDone,
    FlatPfsFetcher, FtConfig, InputSplit, Job, MrEnv, MrError, Payload, SplitFetcher, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId, Sim};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

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
/// → parity re-key → per-group sum (2 partitions).
fn pipeline_plan(splits: Vec<InputSplit>) -> Dataset {
    Dataset::from_splits(splits, Rc::new(|input, _ctx| count_records(input, ())))
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
        DagJob::new("pipe", pipeline_plan(flat_splits()), "dagout"),
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
        DagJob::new("pipe", pipeline_plan(flat_splits()), "dagout"),
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
            DagJob::new("pipe", pipeline_plan(flat_splits()), "dagout"),
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
    let ft = FtConfig {
        node_blacklist_threshold: 0,
        ..FtConfig::default()
    };
    let mk_dag = || {
        let mut d = DagJob::new("lineage", plan_of(), "dagout");
        d.ft = ft.clone();
        d
    };
    let mut clean = dag_cluster(4, 1);
    let rc = run_dag(&mut clean, mk_dag()).unwrap();
    assert_eq!(rc.n_stages, 3);
    assert_eq!(rc.counters.get(keys::STAGES_RUN), 3.0);
    let clean_out = output_files(&clean, "dagout");
    let s2_start = rc
        .runs
        .iter()
        .find(|r| r.stage == 2)
        .map(|r| r.start_s)
        .expect("final stage ran");

    // Kill node 1 the instant the final stage starts: stages 0 and 1 have
    // fully committed, the final stage has fetched nothing yet.
    let mut faulted = dag_cluster(4, 1);
    faulted
        .sim
        .faults
        .install(FaultPlan::none().kill_node(1, s2_start + 1e-6));
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
    // The walk-back re-ran one sparse job per affected stage: 3 clean
    // stage runs + recovery runs for stages 0, 1 and the final stage.
    assert_eq!(rf.counters.get(keys::STAGES_RUN), 6.0);
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

/// A DAG must not forget node health at a stage boundary: a node
/// blacklisted in stage 0 (its reads failed `node_blacklist_threshold`
/// times there) receives no attempt in stage 1.
#[test]
fn node_blacklisted_in_one_stage_gets_no_attempt_in_the_next() {
    const PINNED: &str = "data/health.bin";
    let mut c = dag_cluster(4, 2);
    // 64 distinct byte values: every one of the 8 stage-1 partitions gets keys.
    let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 64) as u8).collect();
    c.pfs.borrow_mut().create(PINNED.to_string(), bytes);
    let ft = FtConfig {
        max_task_attempts: 6,
        ..FtConfig::default()
    };
    // Locality sends every retry of the one source split back to node 0
    // until the third read failure there blacklists it.
    let plan = (1..=ft.node_blacklist_threshold as u64)
        .fold(FaultPlan::none(), |p, nth| p.fail_read(PINNED, nth));
    c.sim.faults.install(plan);
    let split = InputSplit {
        length: 4096,
        locations: vec![NodeId(0)],
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: PINNED.to_string(),
            offset: 0,
            len: 4096,
            sequential_chunks: 1,
        }),
    };
    let n_parts = 8; // one stage-1 task per slot of the whole cluster
    let plan = Dataset::from_splits(vec![split], Rc::new(|input, _ctx| count_records(input, ())))
        .reduce_by_key(
            n_parts,
            Rc::new(|_k, values, _ctx| {
                Ok(Payload::Bytes(
                    sum_payloads(values)?.to_string().into_bytes(),
                ))
            }),
        );
    let job = DagJob {
        ft,
        ..DagJob::new("health", plan, "healthout")
    };
    let r = run_dag(&mut c, job).unwrap();
    assert_eq!(r.counters.get(keys::NODE_BLACKLISTED), 1.0);
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 3.0);
    assert_eq!(r.counters.get(keys::STAGES_RUN), 2.0);
    // The DAG writes each final partition from the node that computed it,
    // and HDFS places the first replica on the writer: the block locations
    // of the part files are where stage 1's tasks ran.
    let files = output_files(&c, "healthout");
    assert_eq!(files.len(), n_parts, "every partition has keys");
    let h = c.hdfs.borrow();
    for (path, _) in &files {
        for block in h.namenode.blocks(path).unwrap() {
            assert_ne!(
                block.locations()[0],
                NodeId(0),
                "{path} was computed on the node stage 0 blacklisted"
            );
        }
    }
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

/// A shuffle hole is the dead producer's fault, not the reader's. With
/// blacklisting on (the default `FtConfig`), the final stage's doomed
/// attempts after a node kill must not blacklist the survivors they ran on:
/// the lineage recompute still has the whole surviving cluster.
#[test]
fn shuffle_holes_are_not_charged_to_the_node_that_read_them() {
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
        let r = run_dag(
            &mut c,
            DagJob::new("holes", pipeline_plan(splits), "dagout"),
        )
        .unwrap();
        (r, output_files(&c, "dagout"), log.take())
    };
    let (rc, clean_out, _) = run(FaultPlan::none());
    let s2 = rc.runs.iter().find(|r| r.stage == 2).expect("final stage");
    // Kill node 1 the instant the final stage starts (as above).
    let kill_at = s2.start_s + 1e-6;
    let (rf, out, fetches) = run(FaultPlan::none().kill_node(1, kill_at));
    assert!(
        rf.runs.iter().any(|r| r.stage == 2 && !r.ok),
        "the final stage failed on the holes before lineage recovery took over"
    );
    // The three lost source outputs are recomputed in one wave, one per
    // survivor — which only works if none of them was blacklisted for the
    // hole failures it hosted.
    let recompute: Vec<u32> = fetches
        .iter()
        .filter(|&&(t, _)| t > kill_at)
        .map(|&(_, n)| n.0)
        .collect();
    assert_eq!(recompute.len(), 3, "node 1 held three source outputs");
    let nodes: BTreeSet<u32> = recompute.into_iter().collect();
    assert_eq!(
        nodes,
        BTreeSet::from([0, 2, 3]),
        "every survivor takes part in the source recompute"
    );
    assert_eq!(rf.counters.get(keys::NODE_BLACKLISTED), 0.0);
    assert_eq!(out, clean_out, "recovered output is byte-identical");
}
