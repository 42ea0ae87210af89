//! Speculation by estimated time to end (DESIGN.md §3.2 "Speculative
//! execution"): each kind of straggler gets its twin before the instant the
//! old rule — a twin once an attempt's elapsed time passes twice the median
//! committed duration — would have launched one, and the job's output is
//! byte-identical to the clean run's. Then a generated property: clean jobs
//! of every shape launch no twin at all, and every attempt is accounted for.
//!
//! Every map of these jobs runs in the first wave, from the job's start: a
//! committed map that started later is a twin that won.

use std::collections::BTreeMap;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult,
    MapFn, MrError, Payload, ReduceFn, TaskInput, TaskKind, TaskReport,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};
use scirng::Rng;

mod common;
use common::{attempt_law, floor_law, leftover_temp_files};

const INPUT: &str = "data/spec.bin";

/// `nodes` nodes of `slots` slots over 4 OSTs, with `bytes` of input staged.
fn cluster(nodes: usize, slots: usize, bytes: u64) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: nodes,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: slots,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let data: Vec<u8> = (0..bytes).map(|i| (i % 7) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), data);
    c
}

/// A byte-count job over `bytes` of input in `n_maps` equal PFS splits: each
/// map charges `map_s`, each reducer `reduce_s` per key.
fn job(bytes: u64, n_maps: u64, map_s: f64, reducers: usize, reduce_s: f64, ft: FtConfig) -> Job {
    let per = bytes / n_maps;
    let split = |i: u64| InputSplit {
        length: per,
        locations: Vec::new(),
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: INPUT.to_string(),
            offset: i * per,
            len: per,
            sequential_chunks: 1,
        }),
    };
    let map_fn: MapFn = Rc::new(move |input, ctx| {
        let TaskInput::Bytes(b) = input else {
            return Err(MrError::msg("expected bytes"));
        };
        let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
        for &x in &b {
            *counts.entry(x).or_default() += 1;
        }
        ctx.charge("compute", map_s);
        for (k, v) in counts {
            ctx.emit(format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
        }
        Ok(())
    });
    let reduce_fn: ReduceFn = Rc::new(move |key, values, ctx| {
        let total: usize = values
            .iter()
            .map(|v| match v {
                Payload::Bytes(b) => String::from_utf8_lossy(b).parse::<usize>().unwrap_or(0),
                _ => 0,
            })
            .sum();
        ctx.charge("reduce", reduce_s);
        ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
        Ok(())
    });
    Job {
        ft,
        ..Job::new(
            "spec",
            (0..n_maps).map(split).collect(),
            map_fn,
            (reducers > 0).then_some(reduce_fn),
            reducers.max(1),
            "out",
        )
    }
}

/// Heartbeats every second; a node is suspected after one miss and declared
/// dead after four.
fn quick_detector() -> FtConfig {
    FtConfig {
        heartbeat_interval_s: 1.0,
        suspect_after_misses: 1,
        dead_after_misses: 4,
        ..FtConfig::default()
    }
}

type Output = Vec<(String, Vec<u8>)>;

fn run(c: &mut Cluster, j: Job) -> (JobResult, Output) {
    let r = run_job(c, j).expect("the job completes");
    let out = c.read_output("out").expect("the job wrote its output");
    (r, out)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "nothing to take a median of");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn maps(r: &JobResult) -> impl Iterator<Item = &TaskReport> {
    r.tasks.iter().filter(|t| t.kind == TaskKind::Map)
}

/// The maps of `r` — all launched at its start — that a twin won, checked to
/// have launched before the old rule's instant: twice the median duration
/// of the maps that won as launched.
fn twins_before_the_old_rule(r: &JobResult) -> Vec<&TaskReport> {
    let (twins, first): (Vec<&TaskReport>, Vec<&TaskReport>) =
        maps(r).partition(|t| t.start_s > r.start_s);
    let old_rule_s = r.start_s + 2.0 * median(first.iter().map(|t| t.duration()).collect());
    assert!(!twins.is_empty(), "no twin won: {:?}", r.counters);
    for t in &twins {
        assert!(
            t.start_s < old_rule_s,
            "twin of map {} launched at {} s, the old rule's {old_rule_s} s or later",
            t.index,
            t.start_s
        );
    }
    twins
}

/// 4 nodes x 2 slots, 8 maps of 2 s each: the whole job in one wave.
fn one_wave(ft: FtConfig) -> Job {
    job(32 * 1024, 8, 2.0, 2, 0.0, ft)
}

fn clean_output(j: Job) -> Output {
    run(&mut cluster(4, 2, 32 * 1024), j).1
}

#[test]
fn a_map_on_a_4x_slow_node_is_twinned_once_half_the_maps_have_committed() {
    let mut c = cluster(4, 2, 32 * 1024);
    c.sim.faults.install(FaultPlan::none().slow_node(3, 4.0));
    let (r, out) = run(&mut c, one_wave(FtConfig::default()));
    let twins = twins_before_the_old_rule(&r);
    // Both of node 3's maps, each on another node.
    assert_eq!(twins.len(), 2, "{:?}", r.tasks);
    assert!(twins.iter().all(|t| t.node.0 != 3), "{twins:?}");
    assert_eq!(r.counters.get(keys::SPECULATIVE_LAUNCHED), 2.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_output(one_wave(FtConfig::default())));
}

#[test]
fn a_hung_fetch_is_twinned_once_it_outlasts_the_median_duration() {
    // The third read of the input never lands; its hang deadline is 45 s.
    let mut c = cluster(4, 2, 32 * 1024);
    c.sim
        .faults
        .install(FaultPlan::none().hang_nth_read(INPUT, 3));
    let (r, out) = run(&mut c, one_wave(FtConfig::default()));
    assert_eq!(twins_before_the_old_rule(&r).len(), 1, "{:?}", r.tasks);
    assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 0.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_output(one_wave(FtConfig::default())));
}

#[test]
fn a_compute_that_ends_inside_a_healed_partition_is_twinned_when_the_node_is_heard() {
    // The maps' compute ends near 3.4 s. Node 2 is cut off from 3 s to 5.5
    // s: both its completions are lost, and the detector hears it again at
    // 6 s, after two misses — before it would declare it dead. But it
    // suspects it at the first miss, at 3 s, and flags both its attempts
    // then; every slot is busy, so their twins take the first two a commit
    // frees, and end the job before the tick that would hear node 2 again.
    let clean = run(&mut cluster(4, 2, 32 * 1024), one_wave(quick_detector()));
    let on_2: Vec<_> = maps(&clean.0).filter(|t| t.node.0 == 2).collect();
    let compute_end = |t: &TaskReport| t.end_s - t.phase("spill");
    assert!(on_2
        .iter()
        .all(|t| compute_end(t) > 3.0 && compute_end(t) < 5.5));
    let mut c = cluster(4, 2, 32 * 1024);
    c.sim
        .faults
        .install(FaultPlan::none().partition(&[2], 3.0, 5.5));
    let (r, out) = run(&mut c, one_wave(quick_detector()));
    let twins = twins_before_the_old_rule(&r);
    assert_eq!(twins.len(), 2, "{:?}", r.tasks);
    let first_commit = first_commit(&r);
    assert!(first_commit > 3.0 && first_commit < 6.0, "{:?}", r.tasks);
    assert!(twins.iter().all(|t| t.start_s == first_commit), "{twins:?}");
    assert!(r.end_s < 6.0, "{:?}", r.tasks);
    assert_eq!(r.counters.get(keys::NODES_SUSPECTED), 1.0);
    assert_eq!(r.counters.get(keys::NODES_REINSTATED), 0.0);
    assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean.1);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

#[test]
fn a_completion_lost_in_a_silence_too_short_to_suspect_is_twinned_when_the_node_is_heard() {
    // Node 2 is cut off from 3 s to 3.9 s, across its maps' compute ends
    // near 3.4 s: both completions are lost. A node is suspected after two
    // misses, and the detector misses one, at 3 s: it hears node 2 again at
    // 4 s, and twins the two attempts stranded there then.
    let ft = || FtConfig {
        suspect_after_misses: 2,
        ..quick_detector()
    };
    let clean = run(&mut cluster(4, 2, 32 * 1024), one_wave(ft()));
    let on_2: Vec<_> = maps(&clean.0).filter(|t| t.node.0 == 2).collect();
    let compute_end = |t: &TaskReport| t.end_s - t.phase("spill");
    assert!(on_2
        .iter()
        .all(|t| compute_end(t) > 3.0 && compute_end(t) < 3.9));
    let mut c = cluster(4, 2, 32 * 1024);
    c.sim
        .faults
        .install(FaultPlan::none().partition(&[2], 3.0, 3.9));
    let (r, out) = run(&mut c, one_wave(ft()));
    let twins = twins_before_the_old_rule(&r);
    assert_eq!(twins.len(), 2, "{:?}", r.tasks);
    assert!(twins.iter().all(|t| t.start_s == 4.0), "{twins:?}");
    assert_eq!(r.counters.get(keys::HEARTBEATS_MISSED), 1.0);
    assert_eq!(r.counters.get(keys::NODES_SUSPECTED), 0.0);
    assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean.1);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

#[test]
fn a_reducer_on_a_4x_slow_node_is_twinned_and_the_output_is_the_same() {
    // Maps charge nothing, so node 3 slows only the reducer it runs: one
    // reducer per node, 1 s per key.
    let mk = || job(32 * 1024, 8, 0.0, 4, 1.0, FtConfig::default());
    let (clean, clean_out) = run(&mut cluster(4, 2, 32 * 1024), mk());
    let reducers = |r: &JobResult| -> Vec<TaskReport> {
        let red = r.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
        red.cloned().collect()
    };
    let slow = reducers(&clean).into_iter().find(|t| t.node.0 == 3);
    let slow = slow.expect("a reducer on node 3");
    let old_rule_s =
        slow.start_s + 2.0 * median(reducers(&clean).iter().map(|t| t.duration()).collect());
    let mut c = cluster(4, 2, 32 * 1024);
    c.sim.faults.install(FaultPlan::none().slow_node(3, 4.0));
    let (r, out) = run(&mut c, mk());
    assert_eq!(
        r.counters.get(keys::SPECULATIVE_LAUNCHED),
        1.0,
        "{:?}",
        r.counters
    );
    assert_eq!(r.counters.get(keys::SPECULATIVE_WON), 1.0);
    let twin = reducers(&r)
        .into_iter()
        .find(|t| t.index == slow.index)
        .unwrap();
    assert_ne!(twin.node.0, 3);
    assert!(
        twin.start_s > slow.start_s && twin.start_s < old_rule_s,
        "twin launched at {} s; old rule {old_rule_s} s",
        twin.start_s
    );
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_out);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

// ---------------------------------------------------------------------------
// What attempts show, as they show it
// ---------------------------------------------------------------------------

/// 4 nodes x 3 slots, 8 maps of `map_s` each: one wave, two maps per node,
/// a free slot on every node.
fn spare_slots(map_s: f64, ft: FtConfig) -> (Cluster, Job) {
    (
        cluster(4, 3, 32 * 1024),
        job(32 * 1024, 8, map_s, 2, 0.0, ft),
    )
}

/// The end of the first map commit of `r`.
fn first_commit(r: &JobResult) -> f64 {
    maps(r).map(|t| t.end_s).fold(f64::INFINITY, f64::min)
}

#[test]
fn a_slow_node_s_maps_are_twinned_as_half_the_maps_show_their_progress() {
    // Every map shows its progress as its compute is scheduled, about 1.1 s
    // in; node 3's show it four times slower than the rest. Judged on what
    // they show, both are twinned then, long before any map commits.
    let (mut c, j) = spare_slots(2.0, FtConfig::default());
    c.sim.faults.install(FaultPlan::none().slow_node(3, 4.0));
    let (r, out) = run(&mut c, j);
    let twins = twins_before_the_old_rule(&r);
    assert_eq!(twins.len(), 2, "{:?}", r.tasks);
    assert!(twins.iter().all(|t| t.node.0 != 3), "{twins:?}");
    let first_commit = first_commit(&r);
    for t in &twins {
        assert!(
            t.start_s < 1.5,
            "twin of map {} at {} s",
            t.index,
            t.start_s
        );
        assert!(t.start_s < first_commit - 2.0, "{:?}", r.tasks);
    }
    assert_eq!(r.counters.get(keys::SPECULATIVE_LAUNCHED), 2.0);
    attempt_law(&r.counters).unwrap();
    let (mut clean, j) = spare_slots(2.0, FtConfig::default());
    assert_eq!(out, run(&mut clean, j).1);
}

#[test]
fn a_hung_fetch_is_twinned_once_it_outlasts_a_start_up_and_half_again_the_median_fetch() {
    // Maps compute 10 s behind a fetch of about 0.1 s. The third read of the
    // input never lands: its stream stalls, and is flagged a start-up and
    // 1.5 median fetches after it opened — not a start-up and a median
    // duration, which no map shows before it commits.
    let (mut c, j) = spare_slots(10.0, FtConfig::default());
    c.sim
        .faults
        .install(FaultPlan::none().hang_nth_read(INPUT, 3));
    let (r, out) = run(&mut c, j);
    let twins = twins_before_the_old_rule(&r);
    assert_eq!(twins.len(), 1, "{:?}", r.tasks);
    // The stream opens after a start-up and is flagged a start-up and well
    // under a second of fetches later; the first map commits after 12 s.
    let twin_s = twins[0].start_s - r.start_s;
    assert!(twin_s < 3.0, "twin at {twin_s} s: {:?}", r.tasks);
    assert!(first_commit(&r) - r.start_s > 12.0, "{:?}", r.tasks);
    assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0);
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 0.0);
    attempt_law(&r.counters).unwrap();
    let (mut clean, j) = spare_slots(10.0, FtConfig::default());
    assert_eq!(out, run(&mut clean, j).1);
}

#[test]
fn the_attempts_of_a_suspected_node_are_twinned_as_it_is_suspected() {
    // Maps compute 7 s. Node 2 is cut off for good at 2.5 s, with its two
    // maps computing: the detector suspects it at the 3 s tick and declares
    // it dead at 6 s. Its maps are twinned on the spare slots at 3 s; at the
    // declaration their twins run on, so nothing is requeued.
    let (mut c, j) = spare_slots(7.0, quick_detector());
    c.sim
        .faults
        .install(FaultPlan::none().partition(&[2], 2.5, f64::INFINITY));
    let (r, out) = run(&mut c, j);
    let twins = twins_before_the_old_rule(&r);
    assert_eq!(twins.len(), 2, "{:?}", r.tasks);
    assert!(twins.iter().all(|t| t.start_s == 3.0), "{twins:?}");
    assert_eq!(r.counters.get(keys::NODES_SUSPECTED), 1.0);
    assert_eq!(r.counters.get(keys::SPECULATIVE_WON), 2.0);
    // The one requeue is a reducer's: one waited there for the maps.
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0, "{:?}", r.counters);
    assert_eq!(
        r.counters.get(keys::REDUCE_ATTEMPTS),
        3.0,
        "{:?}",
        r.counters
    );
    attempt_law(&r.counters).unwrap();
    let (mut clean, j) = spare_slots(7.0, quick_detector());
    assert_eq!(out, run(&mut clean, j).1);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

#[test]
fn a_twin_takes_no_slot_while_its_run_has_a_task_pending() {
    // 4 nodes x 2 slots, 16 maps of 2 s: two waves. Node 3's first two maps
    // are flagged as the first wave shows its progress, with the second wave
    // pending; the slots the first wave frees go to the second, and the
    // twins take the first ones freed behind it.
    let mk = || job(64 * 1024, 16, 2.0, 2, 0.0, FtConfig::default());
    let (clean, clean_out) = run(&mut cluster(4, 2, 64 * 1024), mk());
    let on_3 = |t: &&TaskReport| t.node.0 == 3 && t.start_s == clean.start_s;
    let slow: Vec<usize> = maps(&clean).filter(on_3).map(|t| t.index).collect();
    assert_eq!(slow.len(), 2, "{:?}", clean.tasks);
    let mut c = cluster(4, 2, 64 * 1024);
    c.sim.faults.install(FaultPlan::none().slow_node(3, 4.0));
    let (r, out) = run(&mut c, mk());
    let (twins, rest): (Vec<&TaskReport>, Vec<&TaskReport>) =
        maps(&r).partition(|t| slow.contains(&t.index));
    assert!(twins.iter().all(|t| t.node.0 != 3), "{twins:?}");
    let last_launch = rest.iter().map(|t| t.start_s).fold(0.0, f64::max);
    for t in &twins {
        assert!(
            t.start_s >= last_launch,
            "twin of map {} at {} s, before a pending map launched at {last_launch} s",
            t.index,
            t.start_s
        );
    }
    assert_eq!(r.counters.get(keys::SPECULATIVE_WON), 2.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_out);
}

#[test]
fn a_twin_lost_with_its_node_leaves_its_straggler_twinnable() {
    // Node 3 runs 8x slow: its two maps are twinned on spare slots as the
    // maps show their progress. The node of one twin is killed under it a
    // second later, with two maps of its own, whose retries take the slots
    // of the two waiting reducers. The straggler is twinned again at the
    // first commit, and the job ends long before the straggler would.
    let (mut probe, j) = spare_slots(2.0, FtConfig::default());
    probe
        .sim
        .faults
        .install(FaultPlan::none().slow_node(3, 8.0));
    let (p, _) = run(&mut probe, j);
    let twin = maps(&p)
        .find(|t| t.start_s > p.start_s)
        .expect("a twin won");
    let (task, killed, kill_at) = (twin.index, twin.node.0, twin.start_s + 1.0);
    let (mut c, j) = spare_slots(2.0, FtConfig::default());
    let plan = FaultPlan::none()
        .slow_node(3, 8.0)
        .kill_node(killed, kill_at);
    c.sim.faults.install(plan);
    let (r, out) = run(&mut c, j);
    let won = maps(&r)
        .find(|t| t.index == task)
        .expect("the task committed");
    assert!(won.start_s >= kill_at, "{won:?}");
    assert!(won.node.0 != 3 && won.node.0 != killed, "{won:?}");
    assert_eq!(r.counters.get(keys::SPECULATIVE_LAUNCHED), 4.0);
    assert_eq!(r.counters.get(keys::SPECULATIVE_WON), 3.0);
    let cost = CostModel::default();
    let straggler_alone = cost.task_startup_s + 8.0 * 2.0 * cost.parallel_compute_penalty;
    assert!(r.elapsed() < 0.5 * straggler_alone, "{:?}", r.tasks);
    attempt_law(&r.counters).unwrap();
    let (mut clean, j) = spare_slots(2.0, FtConfig::default());
    assert_eq!(out, run(&mut clean, j).1);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

// ---------------------------------------------------------------------------
// Which nodes a flag finds at fault
// ---------------------------------------------------------------------------

/// 5 nodes x 3 slots, 10 map-only maps of 10 s: one wave, two maps per node,
/// a free slot on every node.
fn five_spare(ft: FtConfig) -> (Cluster, Job) {
    (
        cluster(5, 3, 40 * 1024),
        job(40 * 1024, 10, 10.0, 0, 0.0, ft),
    )
}

#[test]
fn a_stalled_fetch_keeps_no_twin_off_its_node_but_a_slow_attempt_does() {
    // Node 0 hangs at 3.5 s. The detector suspects it at the 4 s tick and
    // flags its two maps, whose twins take the free slots then — the most
    // free node first, the highest-numbered of a tie — on nodes no flag
    // found at fault.
    let suspected_s = 4.0;
    let (mut clean, j) = five_spare(quick_detector());
    let (clean, clean_out) = run(&mut clean, j);
    let node_of = |task: usize| maps(&clean).find(|t| t.index == task).map(|t| t.node.0);
    let of_node_0 = |t: &&TaskReport| node_of(t.index) == Some(0);

    // The third read of the input never lands: a fetch stalls, is flagged
    // about 2 s in and twinned elsewhere. The storage is at fault, not the
    // node: it takes a twin of node 0's at the suspicion.
    let (mut c, j) = five_spare(quick_detector());
    c.sim.faults.install(
        FaultPlan::none()
            .hang_nth_read(INPUT, 3)
            .hang_node(0, 3.5),
    );
    let (r, out) = run(&mut c, j);
    let stalled = maps(&r).find(|t| t.start_s > r.start_s && t.start_s < suspected_s);
    let stalled = stalled.and_then(|t| node_of(t.index));
    let stalled = stalled.expect("a stalled fetch's twin won");
    let twins_of_0: Vec<_> = maps(&r).filter(of_node_0).collect();
    assert!(
        twins_of_0
            .iter()
            .any(|t| t.node.0 == stalled && t.start_s == suspected_s),
        "no twin of node 0's maps on node {stalled}, the stalled fetch's: {:?}",
        r.tasks
    );
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_out);

    // Node 4 runs 4x slow: its maps are flagged as the wave shows its
    // progress and twinned elsewhere, and it keeps its free slot. Found slow,
    // it takes no twin of node 0's, though it is the most free node.
    let (mut c, j) = five_spare(quick_detector());
    c.sim
        .faults
        .install(FaultPlan::none().slow_node(4, 4.0).hang_node(0, 3.5));
    let (r, out) = run(&mut c, j);
    assert!(maps(&r).all(|t| t.node.0 != 4), "{:?}", r.tasks);
    let at_suspicion = maps(&r).filter(of_node_0).filter(|t| t.start_s == suspected_s);
    assert_eq!(at_suspicion.count(), 1, "{:?}", r.tasks);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_out);
}

/// 4 nodes x 4 slots at 10⁴ logical bytes per real one, 8 maps and 4
/// reducers. Maps 0–3 compute 1 s and emit 2 000 bytes under each of 8
/// keys; maps 4–7 compute 6 s and emit 10 bytes under each. Two maps and one
/// reducer per node from the start, and a free slot on every node.
fn fat_shuffle() -> (Cluster, Job) {
    const PATH: &str = "data/fat.bin";
    let mut c = cluster(4, 4, 0);
    c.sim.cost.scale = 1e4;
    let data: Vec<u8> = (0..8u8).flat_map(|i| [i; 64]).collect();
    c.pfs.borrow_mut().create(PATH.to_string(), data);
    let mut j = job(0, 8, 0.0, 4, 0.0, FtConfig::default());
    j.splits = (0..8u64)
        .map(|i| InputSplit {
            length: 64,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: PATH.to_string(),
                offset: i * 64,
                len: 64,
                sequential_chunks: 1,
            }),
        })
        .collect();
    j.map_fn = Rc::new(|input, ctx| {
        let TaskInput::Bytes(b) = input else {
            return Err(MrError::msg("expected bytes"));
        };
        let early = b.first().is_some_and(|&i| i < 4);
        ctx.charge("compute", if early { 1.0 } else { 6.0 });
        let len = if early { 2_000 } else { 10 };
        for k in 0..8 {
            ctx.emit(format!("k{k}"), Payload::Bytes(vec![b'1'; len]));
        }
        Ok(())
    });
    (c, j)
}

#[test]
fn a_reducer_waiting_on_a_node_found_slow_moves_and_merges_beside_the_maps() {
    // Node 3 runs 4x slow. Its maps show it as the wave shows its progress,
    // about 1.2 s in, and are flagged slow: the reducer waiting there moves
    // at once to a node not found slow, and merges the short maps' outputs
    // there while the long maps run. Left on node 3, it would merge at node
    // 3's pace and be twinned only once it computed, after the close — its
    // twin sorting all its input from scratch.
    let reducer_on = |r: &JobResult, node: u32| {
        let on = r.tasks.iter().find(|t| t.kind == TaskKind::Reduce && t.node.0 == node);
        on.map(|t| t.index)
    };
    let (mut clean, j) = fat_shuffle();
    let (clean, clean_out) = run(&mut clean, j);
    let index = reducer_on(&clean, 3).expect("a reducer on node 3");
    let (mut c, j) = fat_shuffle();
    c.sim.faults.install(FaultPlan::none().slow_node(3, 4.0));
    let (r, out) = run(&mut c, j);
    let moved = r
        .tasks
        .iter()
        .find(|t| t.kind == TaskKind::Reduce && t.index == index)
        .expect("the reducer committed");
    let close = maps(&r).map(|t| t.end_s).fold(0.0, f64::max);
    assert!(moved.node.0 != 3 && moved.start_s < close, "{moved:?}");
    let cost = &c.sim.cost;
    let share = r.counters.get(keys::SHUFFLE_BYTES) as usize / 4;
    let from_scratch_s = cost.lbytes(share) * cost.sort_per_byte;
    assert!(from_scratch_s > 3.0, "{from_scratch_s} s");
    assert!(
        moved.phase("sort") < 0.1 * from_scratch_s,
        "sorted {} s of {from_scratch_s} s after the close: {moved:?}",
        moved.phase("sort")
    );
    assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 1.0);
    assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 5.0);
    attempt_law(&r.counters).unwrap();
    assert_eq!(out, clean_out);
    assert_eq!(leftover_temp_files(&c), Vec::<String>::new());
}

#[test]
fn clean_jobs_of_every_shape_launch_no_twin() {
    // Generated shapes: cluster size, input size, wave count, map and
    // reduce charges, streamed or batch fetches, map-only or reducing.
    let seed = std::env::var("SCIDP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let mut rng = Rng::seed_from_u64(seed);
    let mut reducing = 0;
    for case in 0..300 {
        let (nodes, slots) = (1 + rng.below(5), 1 + rng.below(3));
        let n_maps = 1 + rng.below(24) as u64;
        let bytes = n_maps * (256 + 256 * rng.below(32) as u64);
        let map_s = [0.0, 0.05, 0.5, 2.0, 7.0][rng.below(5)];
        let reducers = rng.below(4);
        reducing += usize::from(reducers > 0);
        let reduce_s = [0.0, 0.3, 2.0][rng.below(3)];
        let mut j = job(
            bytes,
            n_maps,
            map_s,
            reducers,
            reduce_s,
            FtConfig::default(),
        );
        j.stream.enabled = rng.below(2) == 0;
        let shape = format!(
            "case {case}: {nodes}x{slots}, {n_maps} maps over {bytes} B at {map_s} s, \
             {reducers} reducers at {reduce_s} s/key, streamed {}",
            j.stream.enabled
        );
        let mut c = cluster(nodes, slots, bytes);
        let r = run_job(&mut c, j).unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert_eq!(
            r.counters.get(keys::SPECULATIVE_LAUNCHED),
            0.0,
            "{shape}: {:?}",
            r.tasks
        );
        attempt_law(&r.counters).unwrap_or_else(|e| panic!("{shape}: {e}"));
        floor_law(&r, r.floors(&c)).unwrap_or_else(|e| panic!("{shape}: {e}"));
    }
    assert!(
        reducing > 150,
        "generator too thin: {reducing} reducing jobs"
    );
}

// ---------------------------------------------------------------------------
// The NU-WRF chaos pass against its floors and its clean pass
// ---------------------------------------------------------------------------

/// How many times its clean pass's `sim_makespan_s` the chaos pass may take:
/// it took 1.81x (seed 1) and 1.82x (seed 7) while twins waited for half the
/// maps to commit, 1.31x and 1.48x judged on what the attempts show, and
/// 1.27x and 1.30x once only a node found slow or silent is shunned and a
/// waiting reducer moves off a node found slow.
const CHAOS_OVER_CLEAN: f64 = 1.4;

/// The e2e benchmark's generator-seed mixer (`e2e/src/workloads.rs`).
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    scirng::splitmix64(&mut s)
}

/// The e2e `nuwrf_img_chaos` pass, rebuilt from the same public pieces (the
/// `QR` plots of a 128 x 128 x 8 dataset of 4 variables on 8 nodes, under
/// the fault plan placed on the clean run's timeline): its job takes at
/// least each of its floors, and its `sim_makespan_s` at most
/// [`CHAOS_OVER_CLEAN`] times the clean pass's. A gate in release builds
/// (a debug build takes about 25 s).
#[test]
#[ignore = "a release-mode gate: cargo test --release --test speculation -- --ignored --nocapture"]
fn nuwrf_chaos_pass_over_its_floors() {
    use scidp_suite::baselines::paper_cluster;
    use scidp_suite::scidp::{run_scidp, WorkflowConfig};
    use scidp_suite::wrfgen::{generate_dataset, WrfSpec};
    for seed in [1, 7] {
        let spec = WrfSpec {
            seed: mix_seed(seed, 1),
            n_vars: 4,
            ..WrfSpec::scaled(128, 128, 8)
        };
        let staging = paper_cluster(8, &spec);
        generate_dataset(&mut staging.pfs.borrow_mut(), &spec, "e2e");
        let pfs = staging.pfs.borrow().clone();
        let files = pfs.list("e2e");
        let fresh = || {
            let c = paper_cluster(8, &spec);
            *c.pfs.borrow_mut() = pfs.clone();
            c
        };
        let cfg = WorkflowConfig::img_only(["QR"]);
        let clean = run_scidp(&mut fresh(), "lustre://e2e", &cfg).expect("the clean pass");
        let at = |share: f64| clean.setup_cost + share * clean.job.elapsed();
        let file = |i: usize| files[i % files.len()].clone();
        let plan = FaultPlan::none()
            .with_seed(mix_seed(seed, 3))
            .kill_node(3, at(0.25))
            .slow_node(5, 4.0)
            .hang_nth_read(file(1), 2)
            .corrupt_read(file(4), 2)
            .partition(&[6], at(0.10), at(0.60));
        let mut c = fresh();
        c.sim.faults.install(plan);
        let r = run_scidp(&mut c, "lustre://e2e", &cfg).expect("the chaos pass");
        let makespan = r.setup_cost + r.job.elapsed();
        let clean_makespan = clean.setup_cost + clean.job.elapsed();
        let floors = r.job.floors(&c);
        let get = |k| r.job.counters.get(k);
        println!(
            "seed {seed}: sim_makespan_s {makespan:.2} (x{:.2} the clean pass), work floor \
             {:.2} (x{:.2}), chain floor {:.2} (x{:.2}), twins {} launched / {} won",
            makespan / clean_makespan,
            floors.work_s,
            makespan / floors.work_s,
            floors.chain_s,
            makespan / floors.chain_s,
            get(keys::SPECULATIVE_LAUNCHED),
            get(keys::SPECULATIVE_WON)
        );
        floor_law(&r.job, floors).unwrap();
        assert!(
            makespan <= CHAOS_OVER_CLEAN * clean_makespan,
            "seed {seed}: the chaos pass took {makespan} s, {:.2}x the clean pass's \
             {clean_makespan} s",
            makespan / clean_makespan
        );
    }
}
