//! Fault-tolerance benchmark: job completion time under injected faults.
//!
//! Three experiments on a fixed byte-count job over a flat PFS file:
//!  1. a sweep of per-read failure probabilities — elapsed time, attempt
//!     counts, and a byte-identity check of the reduce output against the
//!     fault-free run;
//!  2. a straggler node with speculative execution off vs on;
//!  3. a node killed mid-run.
//!
//! Results go to stdout as tables and to `BENCH_faults.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin faults [--quick]`

use std::collections::BTreeMap;
use std::rc::Rc;

use mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, MrError,
    Payload, TaskInput,
};
use pfs::PfsConfig;
use scidp_bench::{fmt_s, fmt_x, quick_mode, row};
use simnet::{ClusterSpec, CostModel, FaultPlan, NodeId};

const INPUT: &str = "data/faultbench.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 16;

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
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

fn byte_count_job(ft: FtConfig) -> Job {
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
        ft,
        ..Job::new(
            "faultbench",
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                // A fixed per-map compute cost so stragglers are visible.
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
                        Payload::Bytes(b) => String::from_utf8_lossy(b).parse::<usize>().unwrap(),
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
    map_attempts: f64,
    retries: f64,
    spec_launched: f64,
    spec_won: f64,
    blacklisted: f64,
    injected: u64,
    output: Vec<(String, Vec<u8>)>,
}

fn run_with(plan: FaultPlan, ft: FtConfig) -> RunStats {
    let mut c = fresh_cluster();
    c.sim.faults.install(plan);
    let r = run_job(&mut c, byte_count_job(ft)).expect("fault bench job must survive its plan");
    RunStats {
        elapsed: r.elapsed(),
        map_attempts: r.counters.get(keys::MAP_ATTEMPTS),
        retries: r.counters.get(keys::TASK_RETRIES),
        spec_launched: r.counters.get(keys::SPECULATIVE_LAUNCHED),
        spec_won: r.counters.get(keys::SPECULATIVE_WON),
        blacklisted: r.counters.get(keys::NODE_BLACKLISTED),
        injected: c.sim.faults.injected_read_failures(),
        output: read_output(&c),
    }
}

/// A single split pinned to node 0 by locality whose first three reads
/// fail. Locality preference re-schedules every retry onto node 0 until
/// the third failure crosses `node_blacklist_threshold` (default 3), at
/// which point the node is blacklisted and attempt 4 succeeds elsewhere.
fn blacklist_scenario() -> RunStats {
    const BL_INPUT: &str = "data/blacklist.bin";
    const BL_BYTES: u64 = 4 * 1024;
    let mut c = fresh_cluster();
    let bytes: Vec<u8> = (0..BL_BYTES).map(|i| (i % 5) as u8).collect();
    c.pfs.borrow_mut().create(BL_INPUT.to_string(), bytes);
    c.sim.faults.install(
        FaultPlan::none()
            .fail_read(BL_INPUT, 1)
            .fail_read(BL_INPUT, 2)
            .fail_read(BL_INPUT, 3),
    );
    let mut job = byte_count_job(FtConfig {
        max_task_attempts: 6,
        ..FtConfig::default()
    });
    job.name = "blacklist".into();
    job.splits = vec![InputSplit {
        length: BL_BYTES,
        locations: vec![NodeId(0)],
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: BL_INPUT.to_string(),
            offset: 0,
            len: BL_BYTES,
            sequential_chunks: 1,
        }),
    }];
    let r = run_job(&mut c, job).expect("blacklist job must finish off the bad node");
    RunStats {
        elapsed: r.elapsed(),
        map_attempts: r.counters.get(keys::MAP_ATTEMPTS),
        retries: r.counters.get(keys::TASK_RETRIES),
        spec_launched: r.counters.get(keys::SPECULATIVE_LAUNCHED),
        spec_won: r.counters.get(keys::SPECULATIVE_WON),
        blacklisted: r.counters.get(keys::NODE_BLACKLISTED),
        injected: c.sim.faults.injected_read_failures(),
        output: read_output(&c),
    }
}

fn main() {
    let probs: &[f64] = if quick_mode() {
        &[0.0, 0.05, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
    };
    let sweep_ft = FtConfig {
        max_task_attempts: 6,
        ..FtConfig::default()
    };

    println!(
        "faults: byte-count job, {} splits of {} KiB, 4 nodes x 2 slots",
        N_SPLITS,
        FILE_BYTES / N_SPLITS / 1024
    );
    println!();
    println!(
        "{}",
        row(&[
            "read fail prob".into(),
            "time".into(),
            "vs clean".into(),
            "map attempts".into(),
            "retries".into(),
            "injected".into(),
            "output ok".into(),
        ])
    );
    let mut sweep = Vec::new();
    let mut baseline: Option<RunStats> = None;
    for &p in probs {
        let plan = if p > 0.0 {
            FaultPlan::none().with_random_read_failures(1234, p)
        } else {
            FaultPlan::none()
        };
        let s = run_with(plan, sweep_ft.clone());
        let base = baseline.get_or_insert_with(|| RunStats {
            output: s.output.clone(),
            ..RunStats {
                elapsed: s.elapsed,
                map_attempts: s.map_attempts,
                retries: s.retries,
                spec_launched: s.spec_launched,
                spec_won: s.spec_won,
                blacklisted: s.blacklisted,
                injected: s.injected,
                output: Vec::new(),
            }
        });
        let identical = s.output == base.output;
        assert!(identical, "fault rate {p}: output diverged from clean run");
        println!(
            "{}",
            row(&[
                format!("{p:.2}"),
                fmt_s(s.elapsed),
                fmt_x(s.elapsed / base.elapsed),
                format!("{:.0}", s.map_attempts),
                format!("{:.0}", s.retries),
                s.injected.to_string(),
                "yes".into(),
            ])
        );
        sweep.push((p, s));
    }

    // Straggler: node 1 computes 6x slower; speculation off vs on.
    let straggler = FaultPlan::none().slow_node(1, 6.0);
    let no_spec = run_with(
        straggler.clone(),
        FtConfig {
            speculative: false,
            ..FtConfig::default()
        },
    );
    let with_spec = run_with(straggler, FtConfig::default());
    assert_eq!(
        no_spec.output, with_spec.output,
        "speculation must not change the output"
    );
    println!();
    println!("straggler (node 1 at 6x compute):");
    println!(
        "  speculation off: {}   on: {} ({} speedup, {} launched, {} won)",
        fmt_s(no_spec.elapsed),
        fmt_s(with_spec.elapsed),
        fmt_x(no_spec.elapsed / with_spec.elapsed),
        with_spec.spec_launched,
        with_spec.spec_won,
    );

    // Node kill mid-run: maps on the dead node are retried on survivors.
    let kill = run_with(FaultPlan::none().kill_node(1, 1.5), FtConfig::default());
    let base = baseline.as_ref().unwrap();
    assert_eq!(kill.output, base.output, "node kill must not change output");
    // A killed node is taken out of scheduling outright, so no *further*
    // attempts can fail on it — the blacklist counter staying at zero here
    // is correct behavior, not a bug (verified below, where repeated
    // failures on a live node do trip the blacklist).
    assert_eq!(
        kill.blacklisted, 0.0,
        "a dead node is unschedulable, never blacklisted"
    );
    println!();
    println!(
        "node kill at t=1.5s: {} (vs clean {}), {} retries, {} blacklisted",
        fmt_s(kill.elapsed),
        fmt_s(base.elapsed),
        kill.retries,
        kill.blacklisted,
    );

    // Blacklist: repeated task failures on one *live* node. A split pinned
    // to node 0 by locality whose first three reads fail makes attempts
    // 1–3 all fail there (locality preference re-schedules each retry on
    // the data-holding node); the third failure crosses the default
    // threshold, blacklists node 0, and attempt 4 succeeds elsewhere.
    let bl = blacklist_scenario();
    assert_eq!(bl.retries, 3.0, "three injected failures, three retries");
    assert!(
        bl.blacklisted >= 1.0,
        "repeated failures on a live node must blacklist it (got {})",
        bl.blacklisted
    );
    println!();
    println!(
        "blacklist (3 read failures pinned to node 0): {} retries, {} blacklisted",
        bl.retries, bl.blacklisted,
    );

    // JSON artifact.
    let sweep_json = sweep
        .iter()
        .map(|(p, s)| {
            format!(
                "{{\"fail_prob\":{p},\"elapsed_s\":{:.6},\"map_attempts\":{:.0},\"task_retries\":{:.0},\"injected_read_failures\":{},\"output_identical\":true}}",
                s.elapsed, s.map_attempts, s.retries, s.injected
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"sweep\": [{sweep_json}],\n  \"speculation\": {{\"slow_factor\": 6.0, \"off_s\": {:.6}, \"on_s\": {:.6}, \"speedup\": {:.3}, \"launched\": {:.0}, \"won\": {:.0}}},\n  \"node_kill\": {{\"elapsed_s\": {:.6}, \"clean_s\": {:.6}, \"task_retries\": {:.0}, \"node_blacklisted\": {:.0}}},\n  \"blacklist\": {{\"elapsed_s\": {:.6}, \"map_attempts\": {:.0}, \"task_retries\": {:.0}, \"node_blacklisted\": {:.0}, \"injected_read_failures\": {}}}\n}}\n",
        no_spec.elapsed,
        with_spec.elapsed,
        no_spec.elapsed / with_spec.elapsed,
        with_spec.spec_launched,
        with_spec.spec_won,
        kill.elapsed,
        base.elapsed,
        kill.retries,
        kill.blacklisted,
        bl.elapsed,
        bl.map_attempts,
        bl.retries,
        bl.blacklisted,
        bl.injected,
    );
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!();
    println!("wrote BENCH_faults.json");
}
