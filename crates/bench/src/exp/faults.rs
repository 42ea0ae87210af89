//! Fault-tolerance benchmark: job completion time under injected faults.
//!
//! Three experiments on a fixed byte-count job over a flat PFS file:
//!  1. a sweep of per-read failure probabilities — elapsed time, attempt
//!     counts, and a byte-identity check of the reduce output against the
//!     fault-free run;
//!  2. a straggler node with speculative execution off vs on;
//!  3. a node killed mid-run.
//!
//! Two fault-free runs also report their reduce tail: reducers start on the
//! slots the last map wave leaves idle, pull each map output as it commits
//! and merge it as it lands, and write their part file while they reduce, so
//! what remains behind the last map is the last pulls and their merge, and
//! what of the write outlasts the reduce — whether the last wave leaves a slot
//! idle or a node's first spill frees one (its disk writes one spill at a
//! time). Either way a reducer starts in a slot a map committed in, without a
//! start-up.

use mapreduce::{
    counter_keys as keys, run_job, Cluster, FtConfig, Job, JobResult, TaskKind, TaskReport,
};
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Gt, Le, Lt};
use scidp_bench::{Col, Report, Scale};
use simnet::{CostModel, FaultPlan};

use super::{byte_count_job, flat_splits, output, small_cluster};

const INPUT: &str = "data/faultbench.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 16;

fn fresh_cluster(plan: FaultPlan) -> Cluster {
    let mut c = small_cluster(4, 1 << 16, 1, CostModel::default());
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 11) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c.sim.faults.install(plan);
    c
}

/// A fixed 4 s per-map compute cost, so stragglers are visible.
fn fault_job(ft: FtConfig) -> Job {
    let splits = flat_splits(INPUT, FILE_BYTES, N_SPLITS, 1);
    Job {
        ft,
        ..byte_count_job("faultbench", splits, 4.0)
    }
}

const COLS: [Col; 6] = [
    ("elapsed_s", "time", "s", Sim),
    ("map_attempts", "map attempts", "", Count),
    ("task_retries", "retries", "", Count),
    ("speculative_launched", "spec launched", "", Count),
    ("speculative_won", "spec won", "", Count),
    ("injected_read_failures", "injected", "", Count),
];

type Output = Vec<(String, Vec<u8>)>;

/// Run `job` on `c`: its [`COLS`] cells, its committed output and the run.
fn run_on(c: &mut Cluster, job: Job) -> (Vec<f64>, Output, JobResult) {
    let r = run_job(c, job).expect("fault bench job must survive its plan");
    let get = |key| r.counters.get(key);
    let cells = vec![
        r.elapsed(),
        get(keys::MAP_ATTEMPTS),
        get(keys::TASK_RETRIES),
        get(keys::SPECULATIVE_LAUNCHED),
        get(keys::SPECULATIVE_WON),
        c.sim.faults.injected_read_failures() as f64,
    ];
    (cells, output(c, "out"), r)
}

fn run_with(plan: FaultPlan, ft: FtConfig) -> (Vec<f64>, Output, JobResult) {
    run_on(&mut fresh_cluster(plan), fault_job(ft))
}

const TAIL_COLS: [Col; 6] = [
    ("reduce_tail_s", "reduce tail", "s", Sim),
    ("unhidden_s", "longest sort + write", "s", Sim),
    ("shuffle_overlap_saved_s", "hidden", "s", Sim),
    ("sort_us", "sort", "us", Sim),
    ("merge_us", "merge charged", "us", Sim),
    ("write_hidden_us", "write hidden", "us", Sim),
];

/// [`TAIL_COLS`] of a clean run: its reduce tail (last map commit to job
/// end), what of the longest reducer no early start can hide (everything
/// from its sort on), the start-up, pull and merge seconds that were hidden,
/// the reducers' `sort` phases against the merge they were charged (every
/// shuffled byte at `sort_per_byte`: no node is slow), and the part-file
/// write hidden behind the reduce (`write_overlap_saved_s`) — those three in
/// microseconds.
fn reduce_tail(r: &JobResult) -> [f64; 6] {
    let of = |kind| r.tasks.iter().filter(move |t| t.kind == kind);
    let last_map_end = of(TaskKind::Map).map(|t| t.end_s).fold(0.0, f64::max);
    let unhidden = |t: &TaskReport| {
        let before_sort = ["startup", "wait", "shuffle"].map(|p| t.phase(p));
        t.duration() - before_sort.iter().sum::<f64>()
    };
    let longest = of(TaskKind::Reduce).map(unhidden).fold(0.0, f64::max);
    let sort: f64 = of(TaskKind::Reduce).map(|t| t.phase("sort")).sum();
    let merge = r.counters.get(keys::SHUFFLE_BYTES) * CostModel::default().sort_per_byte;
    let get = |key| r.counters.get(key);
    [
        r.end_s - last_map_end,
        longest,
        get(keys::SHUFFLE_OVERLAP_SAVED_S),
        sort * 1e6,
        merge * 1e6,
        get(keys::WRITE_OVERLAP_SAVED_S) * 1e6,
    ]
}

pub fn run(scale: &Scale) -> Report {
    let probs: &[f64] = scale.pick(&[0.0, 0.05, 0.2], &[0.0, 0.02, 0.05, 0.1, 0.2]);
    let sweep_ft = FtConfig {
        max_task_attempts: 6,
        ..FtConfig::default()
    };
    let mut rep = Report::new("faults");
    rep.note(format!(
        "faults: byte-count job, {N_SPLITS} splits of {} KiB, 4 nodes x 2 slots",
        FILE_BYTES / N_SPLITS / 1024
    ));
    let mut lines = Vec::new();
    let mut clean_out = Vec::new();
    let mut clean_run = None;
    for &p in probs {
        let plan = match p > 0.0 {
            true => FaultPlan::none().with_random_read_failures(1234, p),
            false => FaultPlan::none(),
        };
        let (cells, out, r) = run_with(plan, sweep_ft.clone());
        if lines.is_empty() {
            clean_out = out.clone();
            clean_run = Some(r);
        }
        lines.push((format!("read fail prob {p}"), cells));
        rep.identical(&format!("read_fail_prob_{p}"), &out, &clean_out);
    }

    // Straggler: node 1 computes 6x slower; speculation off vs on.
    let straggler = FaultPlan::none().slow_node(1, 6.0);
    let no_spec_ft = FtConfig {
        speculative: false,
        ..FtConfig::default()
    };
    let (no_spec, no_spec_out, _) = run_with(straggler.clone(), no_spec_ft);
    let (with_spec, with_spec_out, _) = run_with(straggler, FtConfig::default());
    let speedup = no_spec[0] / with_spec[0];
    lines.push(("straggler 6x, speculation off".into(), no_spec));
    lines.push(("straggler 6x, speculation on".into(), with_spec));
    rep.identical("speculation", &no_spec_out, &with_spec_out);

    // Node kill mid-run: maps on the dead node are retried on survivors.
    let (kill, kill_out, _) = run_with(FaultPlan::none().kill_node(1, 1.5), FtConfig::default());
    lines.push(("node kill at 1.5 s".into(), kill));
    rep.identical("node_kill", &kill_out, &clean_out);
    rep.table("", "scenario", &COLS, &lines);
    rep.row("speculation.speedup", speedup, "x", Sim);

    // Reduce slow-start. The sweep's clean run is two full map waves. A
    // node's disk writes one spill at a time, so of the two maps that end a
    // node's last wave together one commits a spill before the other: the
    // reducers launch in those slots, warm, and pull every output committed by
    // then; behind the close they pull the second spills' outputs. Drop four
    // splits and the last wave leaves one slot per node idle: both reducers
    // launch there and pull each map output as it commits, so behind the close
    // they pull only the last maps' outputs — no more than with a full wave.
    let mut spare = fault_job(sweep_ft);
    spare.splits.truncate(N_SPLITS as usize - 4);
    let (_, _, spare_run) = run_on(&mut fresh_cluster(FaultPlan::none()), spare);
    let full_tail @ [full_tail_s, full_unhidden_s, ..] =
        clean_run.as_ref().map(reduce_tail).unwrap_or_default();
    let spare_tail @ [_, unhidden_s, ..] = reduce_tail(&spare_run);
    let tail_bound = unhidden_s + (full_tail_s - full_unhidden_s);
    let startup = CostModel::default().task_startup_s;
    let tails = [
        ("last wave full".to_string(), full_tail.to_vec()),
        ("last wave half full".to_string(), spare_tail.to_vec()),
    ];
    let title = "reduce tail of a clean run";
    rep.table(title, "map waves", &TAIL_COLS, &tails);
    let full_merge_s = rep.v("last_wave_full.merge_us") * 1e-6;
    let spare_merge_us = rep.v("last_wave_half_full.merge_us");

    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("speculation.speedup", Ge, 1.5, "a twin on a healthy node beats the 6x straggler it duplicates"),
        ("last_wave_full.shuffle_overlap_saved_s", Le, full_merge_s, "no slot idle until a node's first spill lands: reducers launch one spill before the close and hide no start-up, only pulls and merges"),
        ("last_wave_full.reduce_tail_s", Lt, 0.25 * startup, "... in slots a map committed in, warm: no start-up is paid behind the close"),
        ("last_wave_half_full.reduce_tail_s", Le, tail_bound, "all but the last pulls are hidden behind the map wave: no more is pulled behind the close than when the reducers launch one spill before it"),
        ("last_wave_half_full.sort_us", Lt, spare_merge_us, "merge during copy: each pull is merged as it lands, behind the close only the last pulls' merges are left"),
        ("last_wave_half_full.write_hidden_us", Gt, 0.0, "the part files are written while the reducers compute"),
    ]);
    rep
}
