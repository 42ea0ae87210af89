//! Chaos benchmark: the failure detector under hangs, partitions, slow
//! links, and quorum loss.
//!
//! Six scenarios on a fixed byte-count job:
//!  1. clean baseline (detector disarmed — zero detector events);
//!  2. a node that hangs mid-run — missed heartbeats suspect then declare
//!     it dead, its stranded attempts are requeued, and the job finishes
//!     byte-identical to the clean run at reduced parallelism;
//!  3. hung reads on healthy nodes — every injected hang is caught by the
//!     per-attempt deadline (`tasks_hang_detected` exact);
//!  4. a network partition that heals — the isolated node is suspected,
//!     declared dead, and *reinstated* (never blacklisted) once heartbeats
//!     resume;
//!  5. a slow replica owner behind HDFS hedged reads — dribbling block
//!     transfers are hedged to the alternate replica (≥1 hedged win);
//!  6. quorum loss — hanging a node below the configured live-slot floor
//!     fails the job with the typed `QuorumLost`, no panic.
//!
//! Every degraded scenario is run twice on the same seed and must produce
//! byte-identical output and identical counter maps (the chaos suite's
//! determinism contract). The fault seed honours `SCIDP_FAULT_SEED`.
//!
//! Results go to stdout as tables and to `BENCH_chaos.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin chaos [--quick]`

use std::collections::BTreeMap;
use std::rc::Rc;

use mapreduce::{
    counter_keys as keys, hdfs_file_splits, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit,
    Job, MrError, Payload, TaskInput,
};
use pfs::PfsConfig;
use scidp_bench::{fmt_s, row};
use simnet::{ClusterSpec, CostModel, FaultPlan, NodeId};

const INPUT: &str = "data/chaosbench.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 16;
const SLOTS_PER_NODE: usize = 2;

fn fault_seed() -> u64 {
    std::env::var("SCIDP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1234)
}

fn fresh_cluster(replication: usize) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: 4,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: SLOTS_PER_NODE,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 8 * 1024, replication, CostModel::default());
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

/// Detector knobs shared by every scenario: 1 s heartbeats, suspicion after
/// one miss, death after three, a 12 s hang-deadline floor (well above the
/// ~4.5 s healthy map duration, so only genuinely stuck attempts trip it),
/// jittered backoff. Speculation is off so every hang detection maps 1:1
/// to an injected hang (a speculative twin committing first would retire
/// the stuck attempt before its deadline fires).
fn chaos_ft() -> FtConfig {
    FtConfig {
        max_task_attempts: 8,
        speculative: false,
        heartbeat_interval_s: 1.0,
        suspect_after_misses: 1,
        dead_after_misses: 3,
        hang_deadline_min_s: 12.0,
        retry_backoff_base_s: 0.25,
        retry_backoff_max_s: 4.0,
        ..FtConfig::default()
    }
}

fn byte_count_job(splits: Vec<InputSplit>, ft: FtConfig) -> Job {
    Job {
        ft,
        ..Job::new(
            "chaosbench",
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                // A fixed per-map compute cost so hangs strand real work.
                ctx.charge("compute", 4.0);
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

fn pfs_splits() -> Vec<InputSplit> {
    let per = FILE_BYTES / N_SPLITS;
    (0..N_SPLITS)
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

/// Committed reduce output, sorted by path, for byte-identity checks.
fn read_output(c: &Cluster) -> Vec<(String, Vec<u8>)> {
    let h = c.hdfs.borrow();
    let mut files = h.namenode.list_files_recursive("out").unwrap();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
        .iter()
        .map(|f| {
            let mut data = Vec::new();
            for b in h.namenode.blocks(&f.path).unwrap() {
                data.extend_from_slice(&h.datanodes.get(b.locations()[0], b.id).unwrap());
            }
            (f.path.clone(), data)
        })
        .collect()
}

struct RunStats {
    elapsed: f64,
    counters: BTreeMap<String, f64>,
    summary: Option<String>,
    output: Vec<(String, Vec<u8>)>,
}

impl RunStats {
    fn get(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }
}

fn run_pfs(plan: FaultPlan) -> RunStats {
    let mut c = fresh_cluster(1);
    c.sim.faults.install(plan);
    let r = run_job(&mut c, byte_count_job(pfs_splits(), chaos_ft()))
        .expect("chaos bench job must survive its plan");
    RunStats {
        elapsed: r.elapsed(),
        counters: r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect(),
        summary: r.fault_summary(),
        output: read_output(&c),
    }
}

/// HDFS-input variant for the hedged-read scenario: the file is written
/// from node 0 (`replication` = 2), so node 0 owns the primary replica of
/// every block. The plan is installed only after the write has drained.
fn run_hdfs(plan: FaultPlan, hedge_after_s: f64) -> RunStats {
    let mut c = fresh_cluster(2);
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 13) as u8).collect();
    hdfs::write_file(
        &mut c.sim,
        &c.topo,
        &c.hdfs,
        NodeId(0),
        "data/hedge.bin",
        bytes,
        |_| {},
    )
    .expect("hdfs write starts");
    c.sim.run();
    c.sim.faults.install(plan);
    c.hdfs.borrow_mut().hedge = Some(hdfs::HedgeConfig {
        after_s: hedge_after_s,
    });
    let env = c.env();
    let mut splits = hdfs_file_splits(&env, "data/hedge.bin").expect("staged hedge input");
    // Strip locality so maps land on every node and read the blocks over
    // the network (local reads would never need a hedge).
    for s in &mut splits {
        s.locations.clear();
    }
    let r = run_job(&mut c, byte_count_job(splits, chaos_ft()))
        .expect("hedged job must survive a slow replica owner");
    RunStats {
        elapsed: r.elapsed(),
        counters: r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect(),
        summary: r.fault_summary(),
        output: read_output(&c),
    }
}

/// Run a scenario twice and enforce the determinism contract: identical
/// byte output and identical counter maps on the same seed.
fn run_twice_pfs(plan: FaultPlan, what: &str) -> RunStats {
    let a = run_pfs(plan.clone());
    let b = run_pfs(plan);
    assert_eq!(a.output, b.output, "{what}: output differs across reruns");
    assert_eq!(
        a.counters, b.counters,
        "{what}: counters differ across reruns"
    );
    a
}

fn main() {
    let seed = fault_seed();
    println!(
        "chaos: byte-count job, {N_SPLITS} splits, 4 nodes x {SLOTS_PER_NODE} slots, seed {seed}"
    );
    println!();

    // ---------------------------------------------------------- 1. clean
    let clean = run_pfs(FaultPlan::none().with_seed(seed));
    assert_eq!(
        clean.get(keys::HEARTBEATS_MISSED) + clean.get(keys::TASKS_HANG_DETECTED),
        0.0,
        "detector must stay disarmed on a clean run"
    );

    // ------------------------------------------------------ 2. hung node
    // Node 2 goes silent at t=0.5 with both its slots occupied: one missed
    // heartbeat suspects it, three declare it dead, its stranded attempts
    // are orphaned and requeued, and the job completes at reduced
    // parallelism — byte-identical to the clean run, no blacklisting.
    let hang = run_twice_pfs(
        FaultPlan::none().with_seed(seed).hang_node(2, 0.5),
        "hung node",
    );
    assert_eq!(hang.output, clean.output, "hung-node run output diverged");
    assert!(hang.get(keys::HEARTBEATS_MISSED) >= 3.0);
    assert_eq!(hang.get(keys::NODES_SUSPECTED), 1.0);
    assert!(
        hang.get(keys::TASK_RETRIES) >= 1.0,
        "stranded work requeued"
    );
    assert_eq!(
        hang.get(keys::NODE_BLACKLISTED),
        0.0,
        "a silent node must not feed the blacklist"
    );

    // ------------------------------------------------- 3. hung reads
    // Two injected read hangs strand exactly two attempts on otherwise
    // healthy nodes, so heartbeats keep flowing and only the per-attempt
    // hang deadline can recover them. The job completing proves both were
    // detected within their deadlines; the counter must equal the injected
    // hang count exactly — no misses, no double counting.
    const INJECTED_HANGS: u64 = 2;
    let rhang = run_twice_pfs(
        FaultPlan::none()
            .with_seed(seed)
            .hang_nth_read(INPUT, 3)
            .hang_nth_read(INPUT, 7),
        "hung reads",
    );
    assert_eq!(hang.output, rhang.output, "hung-read run output diverged");
    assert_eq!(
        rhang.get(keys::TASKS_HANG_DETECTED),
        INJECTED_HANGS as f64,
        "every injected read hang detected exactly once"
    );
    assert_eq!(
        rhang.get(keys::NODES_SUSPECTED),
        0.0,
        "a hung read on a healthy node must not suspect the node"
    );

    // ------------------------------------------------- 4. partition+heal
    // Node 1 is isolated from t=0.5 to t=6: suspected after one missed
    // heartbeat, declared dead after three, then *reinstated* when the
    // partition heals — never blacklisted, so the job ends at full width.
    let part = run_twice_pfs(
        FaultPlan::none().with_seed(seed).partition(&[1], 0.5, 6.0),
        "partition",
    );
    assert_eq!(part.output, clean.output, "partition run output diverged");
    assert_eq!(part.get(keys::PARTITIONS_OBSERVED), 1.0);
    assert!(part.get(keys::NODES_SUSPECTED) >= 1.0);
    assert!(
        part.get(keys::NODES_REINSTATED) >= 1.0,
        "healed partition must reinstate the node"
    );
    assert_eq!(
        part.get(keys::NODE_BLACKLISTED),
        0.0,
        "a healed node must not stay blacklisted"
    );

    // ---------------------------------------------------------- 5. hedge
    // Node 0 owns every primary replica and its outbound links crawl at
    // 20000x (~1.6 s for an 8 KiB block vs ~9 ms healthy); a remote
    // reader's primary transfer is still dribbling when the 20 ms hedge
    // deadline fires, so the alternate replica races it and must win at
    // least once. A clean HDFS run (hedge armed but never
    // needed) is the byte-identity baseline.
    let hedge_clean = run_hdfs(FaultPlan::none().with_seed(seed), 1e6);
    assert_eq!(hedge_clean.get(keys::HEDGED_READS), 0.0);
    let hedge = run_hdfs(
        FaultPlan::none()
            .with_seed(seed)
            .slow_link(0, 1, 20000.0)
            .slow_link(0, 2, 20000.0)
            .slow_link(0, 3, 20000.0),
        0.02,
    );
    assert_eq!(
        hedge.output, hedge_clean.output,
        "hedged run output diverged from clean"
    );
    assert!(
        hedge.get(keys::HEDGED_READ_WINS) >= 1.0,
        "slow primary replica must lose to at least one hedge launch (got {})",
        hedge.get(keys::HEDGED_READ_WINS)
    );
    assert!(hedge.get(keys::HEDGED_READS) >= hedge.get(keys::HEDGED_READ_WINS));

    // ---------------------------------------------------- 6. quorum loss
    // With a floor of 7 live slots, declaring node 3 dead (6 slots left)
    // must fail the job with the typed QuorumLost — not a panic, not a
    // stringly error.
    let mut qc = fresh_cluster(1);
    qc.sim
        .faults
        .install(FaultPlan::none().with_seed(seed).hang_node(3, 0.2));
    let q_ft = FtConfig {
        min_live_slots: 7,
        ..chaos_ft()
    };
    let q_err = run_job(&mut qc, byte_count_job(pfs_splits(), q_ft))
        .expect_err("hang below the quorum floor must fail the job");
    let (q_live, q_floor) = match q_err {
        MrError::QuorumLost { live_slots, floor } => (live_slots, floor),
        other => panic!("expected QuorumLost, got: {other}"),
    };
    assert_eq!((q_live, q_floor), (6, 7));

    // ------------------------------------------------------------ report
    println!(
        "{}",
        row(&[
            "scenario".into(),
            "time".into(),
            "hangs".into(),
            "suspected".into(),
            "reinstated".into(),
            "hedged/won".into(),
            "output ok".into(),
        ])
    );
    let fmt_row = |name: &str, s: &RunStats| {
        row(&[
            name.into(),
            fmt_s(s.elapsed),
            format!("{:.0}", s.get(keys::TASKS_HANG_DETECTED)),
            format!("{:.0}", s.get(keys::NODES_SUSPECTED)),
            format!("{:.0}", s.get(keys::NODES_REINSTATED)),
            format!(
                "{:.0}/{:.0}",
                s.get(keys::HEDGED_READS),
                s.get(keys::HEDGED_READ_WINS)
            ),
            "yes".into(),
        ])
    };
    println!("{}", fmt_row("clean", &clean));
    println!("{}", fmt_row("hang node 2", &hang));
    println!("{}", fmt_row("hung reads", &rhang));
    println!("{}", fmt_row("partition+heal", &part));
    println!("{}", fmt_row("hedged reads", &hedge));
    println!(
        "{}",
        row(&[
            "quorum loss".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("typed ({q_live}<{q_floor})"),
        ])
    );
    for (name, s) in [
        ("hang", &hang),
        ("read-hang", &rhang),
        ("partition", &part),
        ("hedge", &hedge),
    ] {
        if let Some(sum) = &s.summary {
            println!("  {name}: {sum}");
        }
    }

    // JSON artifact.
    let scenario_json = |s: &RunStats| {
        format!(
            "{{\"elapsed_s\":{:.6},\"tasks_hang_detected\":{:.0},\"heartbeats_missed\":{:.0},\"nodes_suspected\":{:.0},\"nodes_reinstated\":{:.0},\"partitions_observed\":{:.0},\"hedged_reads\":{:.0},\"hedged_read_wins\":{:.0},\"task_retries\":{:.0},\"node_blacklisted\":{:.0},\"output_identical\":true}}",
            s.elapsed,
            s.get(keys::TASKS_HANG_DETECTED),
            s.get(keys::HEARTBEATS_MISSED),
            s.get(keys::NODES_SUSPECTED),
            s.get(keys::NODES_REINSTATED),
            s.get(keys::PARTITIONS_OBSERVED),
            s.get(keys::HEDGED_READS),
            s.get(keys::HEDGED_READ_WINS),
            s.get(keys::TASK_RETRIES),
            s.get(keys::NODE_BLACKLISTED),
        )
    };
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"clean\": {},\n  \"hang\": {},\n  \"read_hang\": {},\n  \"partition_heal\": {},\n  \"hedge\": {},\n  \"quorum_loss\": {{\"live_slots\": {q_live}, \"floor\": {q_floor}, \"typed\": true}}\n}}\n",
        scenario_json(&clean),
        scenario_json(&hang),
        scenario_json(&rhang),
        scenario_json(&part),
        scenario_json(&hedge),
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!();
    println!("wrote BENCH_chaos.json");
}
