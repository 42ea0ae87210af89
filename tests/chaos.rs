//! Chaos determinism suite: under injected hangs and partitions the engine
//! must stay *deterministic* — same seed, same plan ⇒ byte-identical reduce
//! output and an identical counter map — and *degradation-transparent* —
//! a faulted run's committed output matches the clean run byte for byte.
//! The second half puts the fault on the *shuffle*: a node commits its map
//! output and then hangs, is partitioned away and healed, or sits behind a
//! slow link (`Sim::net_transfer`, DESIGN.md §3.8).

use std::collections::BTreeMap;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult,
    MrError, Payload, TaskInput, TaskKind,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId};

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

/// The job's outcome under `plan`, and the committed reduce output.
fn try_run(plan: FaultPlan) -> (Result<JobResult, MrError>, Output) {
    let mut c = fresh_cluster();
    c.sim.faults.install(plan);
    let r = run_job(&mut c, chaos_job());
    let output = c.read_output("out").unwrap_or_default();
    (r, output)
}

/// Committed reduce output (path-sorted bytes) plus the full counter map.
fn run_once(plan: FaultPlan) -> (Output, BTreeMap<String, f64>) {
    let (r, output) = try_run(plan);
    let r = r.expect("chaos variant must complete");
    let counters = r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
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

// ---------------------------------------------------------------------------
// Faults on the shuffle: the holder fails *after* its maps committed
// ---------------------------------------------------------------------------

/// The clean run, the instant its last map committed (the reducers launch
/// in that instant and pull one start-up later) and a node holding map
/// output.
fn clean_shuffle() -> (JobResult, Output, f64, NodeId) {
    let (r, output) = try_run(FaultPlan::none());
    let r = r.expect("clean run");
    let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
    let maps_done = maps.clone().map(|t| t.end_s).fold(0.0, f64::max);
    let holder = maps.map(|t| t.node).max().expect("a map ran");
    (r, output, maps_done, holder)
}

#[test]
fn a_holder_partitioned_after_its_maps_commit_heals_and_the_pull_is_retried() {
    let (_, clean_out, maps_done, holder) = clean_shuffle();
    // Cut off half a start-up into the reduce phase, for 6 s: the first
    // pulls are dropped, the retries (10 s hang deadline) cross a healed link.
    let from = maps_done + 0.5;
    let plan = FaultPlan::none().partition(&[holder.0], from, from + 6.0);
    let (r, out) = try_run(plan);
    let r = r.expect("a healed partition must not fail the job");
    assert_eq!(out, clean_out, "the retried pull delivers the clean bytes");
    assert!(
        r.counters.get(keys::TASKS_HANG_DETECTED) >= 1.0,
        "the dropped pull is caught by the reduce attempt's deadline: {:?}",
        r.counters
    );
    assert!(r.counters.get(keys::REDUCE_ATTEMPTS) > r.counters.get(keys::REDUCE_TASKS));
    assert_eq!(r.counters.get(keys::MAP_ATTEMPTS), N_SPLITS as f64);
}

#[test]
fn a_holder_hung_for_good_after_its_maps_commit_fails_the_job_typed() {
    let (_, _, maps_done, holder) = clean_shuffle();
    let (r, _) = try_run(FaultPlan::none().hang_node(holder.0, maps_done + 0.5));
    // Every retry pulls from the same silent holder; the attempts run out
    // and the job ends on the hang detector's error while events are still
    // queued — never as a drained simulator.
    let err = r.expect_err("map output on a node hung for good is unreachable");
    let text = err.to_string();
    assert!(
        text.contains("Reduce task") && text.contains("hung"),
        "{text}"
    );
    assert!(!text.contains("drained"), "{text}");
}

#[test]
fn slow_links_slow_the_shuffle_by_their_factor() {
    const FACTOR: f64 = 8.0;
    let (clean, clean_out, ..) = clean_shuffle();
    let mut plan = FaultPlan::none();
    for a in 0..4 {
        for b in a + 1..4 {
            plan = plan.slow_link(a, b, FACTOR);
        }
    }
    let (slow, out) = try_run(plan);
    let slow = slow.expect("a slow link fails nothing");
    assert_eq!(out, clean_out);
    let shuffle_of = |r: &JobResult, index: usize| {
        let mut reduces = r.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
        reduces
            .find(|t| t.index == index)
            .expect("reducer")
            .phase("shuffle")
    };
    for index in 0..2 {
        let (c, s) = (shuffle_of(&clean, index), shuffle_of(&slow, index));
        assert!(c > 0.0, "reducer {index} pulls over the network");
        // Every remote pull carries FACTOR x the bytes; loopback pulls none.
        assert!(
            (s / c - FACTOR).abs() < 1e-6,
            "reducer {index}: shuffle {s} s vs clean {c} s"
        );
    }
}
