//! Chaos determinism suite: under injected hangs and partitions the engine
//! must stay *deterministic* — same seed, same plan ⇒ byte-identical reduce
//! output and an identical counter map — and *degradation-transparent* —
//! a faulted run's committed output matches the clean run byte for byte.

use std::collections::BTreeMap;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, MrError,
    Payload, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

const INPUT: &str = "data/chaos.bin";
const FILE_BYTES: u64 = 32 * 1024;
const N_SPLITS: u64 = 8;

fn fresh_cluster() -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: 4,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 7) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

fn chaos_job() -> Job {
    let per = FILE_BYTES / N_SPLITS;
    let splits: Vec<InputSplit> = (0..N_SPLITS)
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
        .collect();
    Job {
        ft: FtConfig {
            max_task_attempts: 8,
            speculative: false,
            heartbeat_interval_s: 1.0,
            suspect_after_misses: 1,
            dead_after_misses: 3,
            hang_deadline_min_s: 10.0,
            retry_backoff_base_s: 0.25,
            retry_backoff_max_s: 4.0,
            ..FtConfig::default()
        },
        ..Job::new(
            "chaos",
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                ctx.charge("compute", 3.0);
                for (k, v) in counts {
                    ctx.emit(format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
                }
                Ok(())
            }),
            Some(Rc::new(|key, values, ctx| {
                let total: usize = values
                    .iter()
                    .map(|v| match v {
                        Payload::Bytes(b) => {
                            String::from_utf8_lossy(b).parse::<usize>().unwrap_or(0)
                        }
                        _ => 0,
                    })
                    .sum();
                ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
                Ok(())
            })),
            2,
            "out",
        )
    }
}

/// Committed reduce output: path-sorted (file, bytes) pairs.
type Output = Vec<(String, Vec<u8>)>;

/// Committed reduce output (path-sorted bytes) plus the full counter map.
fn run_once(plan: FaultPlan) -> (Output, BTreeMap<String, f64>) {
    let mut c = fresh_cluster();
    c.sim.faults.install(plan);
    let r = run_job(&mut c, chaos_job()).expect("chaos variant must complete");
    let counters: BTreeMap<String, f64> =
        r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
    let h = c.hdfs.borrow();
    let mut files = h.namenode.list_files_recursive("out").unwrap();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let output = files
        .iter()
        .map(|f| {
            let mut data = Vec::new();
            for b in h.namenode.blocks(&f.path).unwrap() {
                data.extend_from_slice(&h.datanodes.get(b.locations()[0], b.id).unwrap());
            }
            (f.path.clone(), data)
        })
        .collect();
    (output, counters)
}

/// `(name, plan)` for the three fault variants of one seed.
fn variants(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::none().with_seed(seed)),
        (
            "partitioned",
            FaultPlan::none().with_seed(seed).partition(&[1], 0.5, 6.0),
        ),
        ("hung", FaultPlan::none().with_seed(seed).hang_node(2, 0.5)),
    ]
}

#[test]
fn same_seed_same_bytes_same_counters() {
    for seed in 1..=3u64 {
        let mut clean_output: Option<Vec<(String, Vec<u8>)>> = None;
        for (name, plan) in variants(seed) {
            let (out_a, ctr_a) = run_once(plan.clone());
            let (out_b, ctr_b) = run_once(plan);
            assert_eq!(
                out_a, out_b,
                "seed {seed} {name}: output differs across identical runs"
            );
            assert_eq!(
                ctr_a, ctr_b,
                "seed {seed} {name}: counter maps differ across identical runs"
            );
            // Degradation transparency: a faulted run commits the same
            // bytes as the clean run of the same seed.
            match &clean_output {
                None => clean_output = Some(out_a),
                Some(clean) => assert_eq!(
                    &out_a, clean,
                    "seed {seed} {name}: degraded output diverged from clean"
                ),
            }
        }
    }
}

#[test]
fn detector_events_only_under_faults() {
    let (_, clean) = run_once(FaultPlan::none().with_seed(1));
    for key in [
        keys::HEARTBEATS_MISSED,
        keys::TASKS_HANG_DETECTED,
        keys::NODES_SUSPECTED,
        keys::NODES_REINSTATED,
        keys::PARTITIONS_OBSERVED,
    ] {
        assert!(
            !clean.contains_key(key),
            "clean run must not record detector counter {key}"
        );
    }
    let (_, hung) = run_once(FaultPlan::none().with_seed(1).hang_node(2, 0.5));
    assert!(hung.get(keys::NODES_SUSPECTED).copied().unwrap_or(0.0) >= 1.0);
    let (_, part) = run_once(FaultPlan::none().with_seed(1).partition(&[1], 0.5, 6.0));
    assert!(part.get(keys::NODES_REINSTATED).copied().unwrap_or(0.0) >= 1.0);
    assert_eq!(
        part.get(keys::NODE_BLACKLISTED).copied().unwrap_or(0.0),
        0.0,
        "healed partition must not leave the node blacklisted"
    );
}
