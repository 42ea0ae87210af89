//! Chaos benchmark: the failure detector under hangs, partitions and slow
//! links.
//!
//! Seven scenarios on a fixed byte-count job:
//!  1. clean baseline (detector disarmed — zero detector events);
//!  2. a node that hangs mid-run — missed heartbeats suspect then declare
//!     it dead, its stranded attempts are requeued, and the job finishes
//!     byte-identical to the clean run at reduced parallelism;
//!  3. hung reads on healthy nodes — every injected hang is caught by the
//!     per-attempt deadline (`tasks_hang_detected` exact);
//!  4. a network partition that heals — the isolated node is suspected,
//!     declared dead, and *reinstated* once heartbeats resume;
//!  5. a slow replica owner behind HDFS hedged reads — dribbling block
//!     transfers are hedged to the alternate replica (≥1 hedged win), and
//!     the same plan with the hedge never firing takes ≥ 1.5x as long;
//!  6. a slow shuffle — one map holder's links crawl, at a byte scale where
//!     the pulls across them are seconds, not microseconds;
//!  7. a map holder partitioned away *after* its maps commit and healed
//!     later — a reducer that cannot reach a holder after the close gives
//!     its outputs up, and lineage runs their maps again: no reducer waits
//!     out a hang deadline.
//!
//! Every degraded scenario is run twice on the same seed and must produce
//! byte-identical output and identical counter maps (the chaos suite's
//! determinism contract).

use std::collections::BTreeMap;

use mapreduce::{hdfs_file_splits, run_job, Cluster, FtConfig, InputSplit, Job, TaskKind};
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Eq, Ge, Gt};
use scidp_bench::{Col, Report, Scale};
use simnet::{CostModel, FaultPlan, NodeId};

use super::{byte_count_job, flat_splits, output, small_cluster};

const INPUT: &str = "data/chaosbench.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 16;
/// Logical bytes per stored byte in the slow-shuffle scenario: the job's
/// ~1 KiB of shuffle becomes ~1 MiB, large enough for a link to matter.
const SHUFFLE_BYTE_SCALE: f64 = 1024.0;

/// `byte_scale` is `CostModel::scale`: how many logical bytes every stored
/// byte stands for (1 everywhere but the slow-shuffle scenario).
fn fresh_cluster(replication: usize, byte_scale: f64) -> Cluster {
    let cost = CostModel {
        scale: byte_scale,
        ..CostModel::default()
    };
    let c = small_cluster(4, 8 * 1024, replication, cost);
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

/// Detector knobs shared by every scenario: 1 s heartbeats, suspicion after
/// one miss, death after three, a 12 s hang-deadline floor (well above the
/// ~4.5 s healthy map duration, so only genuinely stuck attempts trip it).
/// Speculation is off so every hang detection maps 1:1 to an injected hang
/// (a speculative twin committing first would retire the stuck attempt
/// before its deadline fires).
fn chaos_ft() -> FtConfig {
    FtConfig {
        max_task_attempts: 8,
        speculative: false,
        heartbeat_interval_s: 1.0,
        suspect_after_misses: 1,
        dead_after_misses: 3,
        hang_deadline_min_s: 12.0,
    }
}

/// A fixed 4 s per-map compute cost, so hangs strand real work.
fn chaos_job(splits: Vec<InputSplit>) -> Job {
    Job {
        ft: chaos_ft(),
        ..byte_count_job("chaosbench", splits, 4.0)
    }
}

fn pfs_splits() -> Vec<InputSplit> {
    flat_splits(INPUT, FILE_BYTES, N_SPLITS, 1)
}

#[derive(PartialEq)]
struct RunStats {
    elapsed: f64,
    /// When the last map committed: two full waves keep every slot busy till
    /// then, so the reducers launch in that instant.
    maps_done: f64,
    /// The node the first reducer launched on.
    first_reducer: Option<NodeId>,
    counters: BTreeMap<String, f64>,
    summary: Option<String>,
    output: Vec<(String, Vec<u8>)>,
}

impl RunStats {
    fn of(c: &mut Cluster, job: Job) -> RunStats {
        let r = run_job(c, job).expect("chaos bench job must survive its plan");
        RunStats {
            elapsed: r.elapsed(),
            maps_done: {
                let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
                maps.map(|t| t.end_s).fold(0.0, f64::max)
            },
            first_reducer: {
                let reducers = r.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
                let first = reducers.min_by(|a, b| a.start_s.total_cmp(&b.start_s));
                first.map(|t| t.node)
            },
            counters: r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            summary: r.fault_summary(),
            output: output(c, "out"),
        }
    }
}

fn run_pfs(plan: FaultPlan) -> RunStats {
    run_pfs_scaled(plan, 1.0)
}

fn run_pfs_scaled(plan: FaultPlan, byte_scale: f64) -> RunStats {
    let mut c = fresh_cluster(1, byte_scale);
    c.sim.faults.install(plan);
    RunStats::of(&mut c, chaos_job(pfs_splits()))
}

/// HDFS-input variant for the hedged-read scenario: the file is written
/// from node 0 (`replication` = 2), so node 0 owns the primary replica of
/// every block. The plan is installed only after the write has drained.
fn run_hdfs(plan: FaultPlan, hedge_after_s: f64) -> RunStats {
    let mut c = fresh_cluster(2, 1.0);
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 13) as u8).collect();
    let path = "data/hedge.bin";
    let staged = |_: &mut simnet::Sim, res: Result<(), hdfs::HdfsError>| res.expect("hdfs write");
    hdfs::write_file(&mut c.sim, &c.topo, &c.hdfs, NodeId(0), path, bytes, staged);
    c.sim.run();
    c.sim.faults.install(plan);
    c.hdfs.borrow_mut().hedge = Some(hdfs::HedgeConfig {
        after_s: hedge_after_s,
    });
    let mut splits = hdfs_file_splits(&c.env(), path).expect("staged hedge input");
    // Strip locality so maps land on every node and read the blocks over
    // the network (local reads would never need a hedge).
    for s in &mut splits {
        s.locations.clear();
    }
    RunStats::of(&mut c, chaos_job(splits))
}

#[rustfmt::skip] // one column per line reads as the table it is
const COLS: [Col; 9] = [
    ("elapsed_s", "time", "s", Sim),
    ("tasks_hang_detected", "hangs", "", Count),
    ("heartbeats_missed", "hb missed", "", Count),
    ("nodes_suspected", "suspected", "", Count),
    ("nodes_reinstated", "reinstated", "", Count),
    ("partitions_observed", "partitions", "", Count),
    ("hedged_reads", "hedged", "", Count),
    ("hedged_read_wins", "hedge wins", "", Count),
    ("task_retries", "retries", "", Count),
];

pub fn run(scale: &Scale) -> Report {
    let seed = scale.fault_seed;
    let plan = || FaultPlan::none().with_seed(seed);
    let mut rep = Report::new("chaos");
    rep.note(format!(
        "chaos: byte-count job, {N_SPLITS} splits, 4 nodes x 2 slots, seed {seed}"
    ));
    // Run a degraded scenario twice: the determinism contract is identical
    // byte output and identical counter maps on the same seed.
    let mut twice = |name: &str, plan: FaultPlan| {
        let (a, b) = (run_pfs(plan.clone()), run_pfs(plan));
        rep.identical(&format!("{name}.rerun"), &a, &b);
        a
    };

    // 1. clean. 2. Node 2 goes silent at t=0.5 with both its slots
    // occupied: one missed heartbeat suspects it, three declare it dead,
    // its stranded attempts are orphaned and requeued, and the job
    // completes at reduced parallelism. 3. Two injected
    // read hangs strand exactly two attempts on otherwise healthy nodes, so
    // heartbeats keep flowing and only the per-attempt hang deadline can
    // recover them. 4. Node 1 is isolated from t=0.5 to t=6: suspected,
    // declared dead, then *reinstated* when the partition heals.
    let clean = run_pfs(plan());
    let hang = twice("hang", plan().hang_node(2, 0.5));
    let read_hangs = plan().hang_nth_read(INPUT, 3).hang_nth_read(INPUT, 7);
    let rhang = twice("read_hang", read_hangs);
    let part = twice("partition_heal", plan().partition(&[1], 0.5, 6.0));
    // 5. Node 0 owns every primary replica and its links crawl at 20000x
    // (~1.6 s for an 8 KiB block vs ~9 ms healthy); a remote reader's
    // primary transfer is still dribbling when the 20 ms hedge deadline
    // fires, so the alternate replica races it and must win at least once.
    // The same links carry node 0's shuffle pulls (its map output out, its
    // reducer's input in), 20000x slower too — a few hundred bytes, ~4 ms.
    // A clean HDFS run (hedge armed but never needed) is the byte-identity
    // baseline.
    let hedge_clean = run_hdfs(plan(), 1e6);
    let slow_node_0 = || (1..=3).fold(plan(), |p, to| p.slow_link(0, to, 20000.0));
    let hedge = run_hdfs(slow_node_0(), 0.02);
    // The hedge's rent: the same crawling links with a hedge deadline no
    // transfer reaches, so every remote read waits out its primary.
    let hedge_off = run_hdfs(slow_node_0(), 1e6);
    // 6. The same crawling links under the PFS job, every stored byte
    // standing for 1024: a reducer's pull of node 0's map output is ~60 KiB
    // a map, seconds across a 20000x link. Nothing fails and nothing is
    // retried; the job is as much later as its slowest pull.
    let shuffle_clean = run_pfs_scaled(plan(), SHUFFLE_BYTE_SCALE);
    let slow_shuffle = run_pfs_scaled(slow_node_0(), SHUFFLE_BYTE_SCALE);
    // 7. Every node but the one the clean run's first reducer launched on
    // computes 1.5x slower: that node's maps commit first, as in the clean
    // run, and one reducer — a node's share — launches there, warm, and pulls
    // what it holds; the other waits for the slow nodes' close. Half a second
    // after the clean run's close the holder is isolated — its map output is
    // registered — and it heals 6 s later. A pull across the cut is put off,
    // whichever side the reducer is on; the detector declares the holder dead
    // before the heal, which loses the outputs it holds, and lineage runs
    // their maps again where they can be reached.
    let cut = clean.maps_done + 0.5;
    let fast = clean.first_reducer.map_or(0, |n| n.0);
    let slow = |p: FaultPlan, n: u32| if n == fast { p } else { p.slow_node(n, 1.5) };
    let staggered = (0..4).fold(plan(), slow);
    let holder = twice(
        "holder_partition",
        staggered.partition(&[fast], cut, cut + 6.0),
    );

    let scenarios = [
        ("clean", &clean, &clean),
        ("hang", &hang, &clean),
        ("read_hang", &rhang, &hang),
        ("partition_heal", &part, &clean),
        ("hedge_clean", &hedge_clean, &hedge_clean),
        ("hedge", &hedge, &hedge_clean),
        ("hedge_off", &hedge_off, &hedge_clean),
        ("slow_shuffle_clean", &shuffle_clean, &clean),
        ("slow_shuffle", &slow_shuffle, &clean),
        ("holder_partition", &holder, &clean),
    ];
    let line = |&(name, s, _): &(&str, &RunStats, &RunStats)| {
        let cell = |&(key, ..): &Col| match key {
            "elapsed_s" => s.elapsed,
            counter => s.counters.get(counter).copied().unwrap_or(0.0),
        };
        (name.to_string(), COLS.iter().map(cell).collect())
    };
    let lines: Vec<(String, Vec<f64>)> = scenarios.iter().map(line).collect();
    rep.table("", "scenario", &COLS, &lines);
    for (name, s, same_as) in scenarios {
        rep.identical(name, &s.output, &same_as.output);
        if let Some(sum) = &s.summary {
            rep.note(format!("  {name}: {sum}"));
        }
    }

    let count = |key: &str| holder.counters.get(key).copied().unwrap_or(0.0);
    let lineage = count("lineage_recomputes");
    let maps_ran_again = lineage >= 1.0 && count("map_attempts") >= N_SPLITS as f64 + lineage;
    let why = "the outputs of the holder declared dead are lost and their maps run again";
    rep.check("holder_partition.maps_ran_again", maps_ran_again, why);

    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("clean.heartbeats_missed", Eq, 0.0, "detector stays disarmed on a clean run"),
        ("clean.tasks_hang_detected", Eq, 0.0, "detector stays disarmed on a clean run"),
        ("hang.heartbeats_missed", Ge, 3.0, "three misses declare the silent node dead"),
        ("hang.nodes_suspected", Eq, 1.0, "exactly the silent node is suspected"),
        ("hang.task_retries", Ge, 1.0, "stranded work requeued"),
        ("read_hang.tasks_hang_detected", Eq, 2.0, "every injected read hang detected exactly once"),
        ("read_hang.nodes_suspected", Eq, 0.0, "a hung read on a healthy node must not suspect the node"),
        ("partition_heal.partitions_observed", Eq, 1.0, "the partition is observed once"),
        ("partition_heal.nodes_suspected", Ge, 1.0, "the isolated node is suspected"),
        ("partition_heal.nodes_reinstated", Ge, 1.0, "healed partition must reinstate the node"),
        ("hedge_clean.hedged_reads", Eq, 0.0, "hedge armed but never needed"),
        ("hedge.hedged_read_wins", Ge, 1.0, "slow primary replica loses to at least one hedge launch"),
        ("hedge.hedged_reads", Ge, rep.v("hedge.hedged_read_wins"), "a win needs a launch"),
        ("hedge_off.hedged_reads", Eq, 0.0, "a deadline no transfer reaches launches no hedge"),
        ("hedge_off.elapsed_s", Ge, 1.5 * rep.v("hedge.elapsed_s"), "without the hedge every remote read waits out the slow primary"),
        ("slow_shuffle.elapsed_s", Gt, 1.25 * rep.v("slow_shuffle_clean.elapsed_s"), "a 20000x link under a holder's map output costs the job a quarter again"),
        ("slow_shuffle.task_retries", Eq, 0.0, "a slow link fails nothing"),
        ("holder_partition.tasks_hang_detected", Eq, 0.0, "no reducer waits out its hang deadline on an unreachable holder"),
        ("holder_partition.nodes_reinstated", Ge, 1.0, "the healed holder is reinstated"),
    ]);
    rep
}
