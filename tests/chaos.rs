//! Chaos determinism suite: under injected hangs and partitions the engine
//! must stay *deterministic* — same seed, same plan ⇒ byte-identical reduce
//! output and an identical counter map — and *degradation-transparent* —
//! a faulted run's committed output matches the clean run byte for byte.
//! The second part puts the fault on the *shuffle*: a node commits its map
//! output and then hangs, is partitioned away and healed, or sits behind a
//! slow link (`Sim::net_transfer`, DESIGN.md §3.8). The third is a generated
//! totality sweep over reduce slow-start (DESIGN.md §3.2): every small
//! cluster and job shape under every kind of fault at a sampled instant ends
//! `Ok` with the bytes a naive evaluation gives, or in a typed `Err` — and
//! leaves no `_tmp/` file in the NameNode's namespace either way. Every task
//! of an `Ok` run paid its start-up in full or not at all (warm slots), a
//! clean run at most one per slot, no node started more than its share of
//! the reducers before the maps closed, and every attempt launched is
//! accounted for (`common::attempt_law`).
//! `SCIDP_FAULT_SEED` reseeds the sampling; a failing plan prints as the
//! `FaultPlan` builder expression that rebuilds it.

use std::collections::BTreeMap;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult,
    MrError, Payload, TaskCtx, TaskInput, TaskKind,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId};
use scirng::Rng;

mod common;
use common::{
    attempt_law, leftover_temp_files, nodes_in_service, placement_law, plan_expr, startup_law,
};

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
}

// ---------------------------------------------------------------------------
// Faults on the shuffle: the holder fails *after* its maps committed
// ---------------------------------------------------------------------------

/// Every node but node 3 computes 1.5x slower: node 3's maps commit first.
/// One reducer — a node's share of them — launches there in a warm slot; the
/// other waits for a slot elsewhere, launches as the slow maps commit, and
/// pulls at once.
fn staggered() -> FaultPlan {
    FaultPlan::none()
        .slow_node(0, 1.5)
        .slow_node(1, 1.5)
        .slow_node(2, 1.5)
}

/// Under [`staggered`]: the committed output, the holder — the node the
/// first reducer launched on, which holds map output — and the instant its
/// maps committed, well before any reducer elsewhere launched.
fn staggered_shuffle() -> (Output, NodeId, f64) {
    let (r, output) = try_run(staggered());
    let r = r.expect("a slow node fails nothing");
    let first = reducers_of(&r).min_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let holder = first.expect("reducers").node;
    let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
    let held = maps.filter(|t| t.node == holder).map(|t| t.end_s);
    let held_until = held.fold(0.0, f64::max);
    let elsewhere = reducers_of(&r).filter(|t| t.node != holder);
    let next_reducer = elsewhere.map(|t| t.start_s).fold(f64::MAX, f64::min);
    assert!(held_until + 1.0 < next_reducer, "{:?}", r.tasks);
    (output, holder, held_until)
}

#[test]
fn a_holder_partitioned_after_its_maps_commit_heals_and_the_pull_is_retried() {
    let (clean_out, holder, committed) = staggered_shuffle();
    // Cut off half a second after its maps commit, for 6 s: the pulls at the
    // close are dropped, the retries (hang deadline) cross a healed link.
    let from = committed + 0.5;
    let plan = staggered().partition(&[holder.0], from, from + 6.0);
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
    let (_, holder, committed) = staggered_shuffle();
    let (r, _) = try_run(staggered().hang_node(holder.0, committed + 0.5));
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
    // One map per node, so every output is registered at the close and every
    // pull issued there: the post-close `shuffle` is then all pull, and only
    // the link factor sets it. (Two maps on a node spill one after the other,
    // and the first one's pulls would start before the close.)
    let run = |plan: FaultPlan| {
        let mut c = fresh_cluster();
        c.sim.faults.install(plan);
        let mut job = chaos_job();
        job.splits.truncate(4);
        let r = run_job(&mut c, job);
        (r, c.read_output("out").unwrap_or_default())
    };
    let (clean, clean_out) = run(FaultPlan::none());
    let clean = clean.expect("clean run");
    let mut plan = FaultPlan::none();
    for a in 0..4 {
        for b in a + 1..4 {
            plan = plan.slow_link(a, b, FACTOR);
        }
    }
    let (slow, out) = run(plan);
    let slow = slow.expect("a slow link fails nothing");
    assert_eq!(out, clean_out);
    let maps = clean.tasks.iter().filter(|t| t.kind == TaskKind::Map);
    let ends: Vec<(NodeId, f64)> = maps.map(|t| (t.node, t.end_s)).collect();
    assert!(
        (0..4).all(|n| ends.iter().filter(|(node, _)| node.0 == n).count() == 1),
        "{ends:?}"
    );
    assert!(ends.iter().all(|&(_, end)| end == ends[0].1), "{ends:?}");
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

// ---------------------------------------------------------------------------
// Generated totality sweep: early reducers, every shape, every kind of fault
// ---------------------------------------------------------------------------

const SWEEP_INPUT: &str = "data/sweep.bin";
const SPLIT_BYTES: u64 = 512;

/// One cluster and job shape of the sweep.
#[derive(Clone, Copy, Debug)]
struct Shape {
    nodes: usize,
    slots: usize,
    maps: usize,
    reducers: usize,
}

/// Split `i` of the sweep's input is `SPLIT_BYTES` bytes of value `i`.
fn sweep_cluster(shape: Shape, plan: FaultPlan) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: shape.nodes,
        storage_nodes: 1,
        osts: 2,
        slots_per_node: shape.slots,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 2,
        ..PfsConfig::default()
    };
    let mut c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let bytes = (0..shape.maps).flat_map(|i| vec![i as u8; SPLIT_BYTES as usize]);
    c.pfs
        .borrow_mut()
        .create(SWEEP_INPUT.to_string(), bytes.collect());
    c.sim.faults.install(plan);
    c
}

/// Map `i` runs 2.5, 2, 1.5, 1, 2.5, … s — so maps commit out of index
/// order — and emits its letter under a key every map shares, a key a third
/// of them share and a key of its own; the reducer concatenates a key's
/// values, so its output spells the order they reached it in.
fn sweep_job(shape: Shape) -> Job {
    let splits = (0..shape.maps as u64).map(|i| InputSplit {
        length: SPLIT_BYTES,
        locations: Vec::new(),
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: SWEEP_INPUT.to_string(),
            offset: i * SPLIT_BYTES,
            len: SPLIT_BYTES,
            sequential_chunks: 1,
        }),
    });
    Job {
        ft: chaos_job().ft,
        ..Job::new(
            "sweep",
            splits.collect(),
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let i = *b.first().ok_or_else(|| MrError::msg("empty split"))?;
                ctx.charge("compute", 2.5 - 0.5 * f64::from(i % 4));
                for key in [
                    "all".to_string(),
                    format!("third{}", i % 3),
                    format!("own{i}"),
                ] {
                    ctx.emit(key, Payload::Bytes(vec![b'a' + i]));
                }
                Ok(())
            }),
            Some(Rc::new(|key, values, ctx| {
                let letters = values.into_iter().flat_map(|v| match v {
                    Payload::Bytes(b) => b,
                    Payload::Frame(_) => Vec::new(),
                });
                ctx.emit(key, Payload::Bytes(letters.collect()));
                Ok(())
            })),
            shape.reducers,
            "out",
        )
    }
}

/// What the job must commit, evaluated naively: every split through the
/// map function in index order, pairs partitioned by FNV-1a of the key,
/// grouped in key order with values in map order then emit order, every
/// group through the reduce function, one `key\tvalue` line per pair.
fn naive_output(shape: Shape) -> Output {
    let job = sweep_job(shape);
    let reduce_fn = job.reduce_fn.clone().expect("the sweep job reduces");
    let fnv1a = |key: &str| {
        let hash = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        key.bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| hash(h, &b))
    };
    let mut parts: Vec<BTreeMap<String, Vec<Payload>>> = vec![BTreeMap::new(); shape.reducers];
    for i in 0..shape.maps {
        let mut ctx = TaskCtx::standalone(CostModel::default());
        let split = TaskInput::Bytes(vec![i as u8; SPLIT_BYTES as usize]);
        (job.map_fn)(split, &mut ctx).expect("map");
        for (key, value) in ctx.take_emitted() {
            let r = (fnv1a(&key) % shape.reducers as u64) as usize;
            parts[r].entry(key).or_default().push(value);
        }
    }
    let mut output = Output::new();
    for (r, groups) in parts.into_iter().enumerate() {
        let mut ctx = TaskCtx::standalone(CostModel::default());
        for (key, values) in groups {
            reduce_fn(&key, values, &mut ctx).expect("reduce");
        }
        let mut data = Vec::new();
        for (key, value) in ctx.take_emitted() {
            let Payload::Bytes(value) = value else {
                panic!("the sweep reducer emits bytes");
            };
            data.extend_from_slice(key.as_bytes());
            data.push(b'\t');
            data.extend_from_slice(&value);
            data.push(b'\n');
        }
        if !data.is_empty() {
            output.push((format!("out/part-r-{r:05}"), data));
        }
    }
    output
}

/// The job's outcome under `plan`, what it committed and the temp files it
/// left behind.
fn run_shape(shape: Shape, plan: FaultPlan) -> (Result<JobResult, MrError>, Output, Vec<String>) {
    let mut c = sweep_cluster(shape, plan);
    let r = run_job(&mut c, sweep_job(shape));
    let output = c.read_output("out").unwrap_or_default();
    (r, output, leftover_temp_files(&c))
}

fn maps_closed_at(r: &JobResult) -> f64 {
    let maps = r.tasks.iter().filter(|t| t.kind == TaskKind::Map);
    maps.map(|t| t.end_s).fold(0.0, f64::max)
}

fn reducers_of(r: &JobResult) -> impl Iterator<Item = &scidp_suite::mapreduce::TaskReport> {
    r.tasks.iter().filter(|t| t.kind == TaskKind::Reduce)
}

/// The clean plan and one of each kind of fault, on a sampled node at a
/// sampled instant of the clean run — each with whether the job must
/// survive it. A node that hangs or is cut off for good takes the map
/// outputs it holds with it, and a one-node cluster has no survivor to
/// carry on; everything else has to end `Ok`.
fn sweep_plans(
    rng: &mut Rng,
    seed: u64,
    shape: Shape,
    clean: &JobResult,
) -> Vec<(FaultPlan, bool)> {
    let mut node = || rng.below(shape.nodes) as u32;
    let (a, b) = (node(), node());
    let nodes = [node(), node(), node(), node()];
    let mut at = || rng.range_f64(0.0, clean.end_s);
    let heal_after = at() + 0.5;
    let base = || FaultPlan::none().with_seed(seed);
    let spare_node = shape.nodes > 1;
    vec![
        (base(), true),
        (base().kill_node(nodes[0], at()), spare_node),
        (base().hang_node(nodes[1], at()), false),
        {
            let from = at();
            let healed = base().partition(&[nodes[2]], from, from + heal_after);
            (healed, spare_node)
        },
        (base().partition(&[nodes[3]], at(), f64::INFINITY), false),
        (base().slow_link(a, b, rng.range_f64(2.0, 16.0)), true),
        {
            let nth = 1 + rng.below(shape.maps) as u64;
            (base().hang_nth_read(SWEEP_INPUT, nth), true)
        },
    ]
}

/// What one run of the sweep must satisfy; `Err` names the violation.
fn check_run(
    shape: Shape,
    (plan, survivable): (&FaultPlan, bool),
    r: &Result<JobResult, MrError>,
    (output, leftovers): (&Output, &[String]),
    want: &Output,
) -> Result<(), String> {
    // Every attempt that ended — committed, orphaned, failed, stranded on a
    // node that could not report — took its temp file with it, `Ok` or not.
    if !leftovers.is_empty() {
        return Err(format!("temp files left behind: {leftovers:?}"));
    }
    let r = match r {
        // A typed failure (the only node died, the holders are cut off for
        // good, ...) is an outcome; a simulator that ran dry is a stall.
        Err(e) if e.message().contains("drained") => return Err(format!("stalled: {e}")),
        Err(e) if survivable => return Err(format!("ended in {e:?}")),
        Err(_) => return Ok(()),
        Ok(r) => r,
    };
    if output != want {
        return Err(format!(
            "committed {:?}, the naive evaluation gives {:?}",
            text(output),
            text(want)
        ));
    }
    if reducers_of(r).count() != shape.reducers {
        return Err(format!("reports {} reducers", reducers_of(r).count()));
    }
    for t in reducers_of(r) {
        let phases: f64 = t.phases.iter().map(|(_, s)| s).sum();
        if (phases - t.duration()).abs() > 1e-9 {
            return Err(format!("phases sum to {phases}, not the duration: {t:?}"));
        }
    }
    // One swallowed map read is one hung map: a reducer waiting for that
    // map's retry is not hung with it.
    let one_hung_map = r.counters.get(keys::TASKS_HANG_DETECTED) == 1.0
        && r.counters.get(keys::REDUCE_ATTEMPTS) == shape.reducers as f64;
    if !plan.read_hangs.is_empty() && !one_hung_map {
        return Err("a reducer waiting for maps was declared hung".into());
    }
    // A slot the single map wave of a clean run leaves idle is on a node
    // with room for a reducer: it must be taken at once.
    let clean = *plan == FaultPlan::none().with_seed(plan.seed);
    let spare_slot = shape.nodes * shape.slots > shape.maps;
    if clean && spare_slot && !launched_early(r) {
        return Err("no reducer launched before the last map committed".into());
    }
    startup_law(&r.tasks, clean, shape.nodes * shape.slots)?;
    attempt_law(&r.counters)?;
    let reducers: Vec<_> = reducers_of(r).collect();
    let close = maps_closed_at(r);
    placement_law(&reducers, close, nodes_in_service(plan, shape.nodes, close))
}

fn launched_early(r: &JobResult) -> bool {
    let close = maps_closed_at(r);
    reducers_of(r).any(|t| t.start_s < close)
}

fn text(output: &Output) -> Vec<(&str, String)> {
    let files = output.iter();
    files
        .map(|(path, data)| (path.as_str(), String::from_utf8_lossy(data).into_owned()))
        .collect()
}

#[test]
fn every_shape_under_every_kind_of_fault_ends_ok_with_the_naive_bytes_or_typed() {
    let seed = FaultPlan::env_seed(23);
    let mut rng = Rng::seed_from_u64(seed);
    // What the sweep exercised, so a green run is not a vacuous one.
    let (mut runs, mut ok, mut early, mut preempted, mut hangs) = (0, 0, 0, 0.0, 0.0);
    for nodes in 1..=3 {
        for slots in 1..=2 {
            for maps in 1..=6 {
                for reducers in 1..=4 {
                    let shape = Shape {
                        nodes,
                        slots,
                        maps,
                        reducers,
                    };
                    let want = naive_output(shape);
                    let (clean, ..) = run_shape(shape, FaultPlan::none());
                    let clean = clean.expect("clean run");
                    for (plan, survivable) in sweep_plans(&mut rng, seed, shape, &clean) {
                        let (r, output, leftovers) = run_shape(shape, plan.clone());
                        let case = (&plan, survivable);
                        let left = (&output, &leftovers[..]);
                        if let Err(violation) = check_run(shape, case, &r, left, &want) {
                            panic!(
                                "{shape:?}: {violation} (generator seed {seed})\n  plan: {}",
                                plan_expr(&plan)
                            );
                        }
                        runs += 1;
                        let Ok(r) = r else { continue };
                        ok += 1;
                        early += usize::from(launched_early(&r));
                        preempted += r.counters.get(keys::REDUCES_PREEMPTED);
                        hangs += r.counters.get(keys::TASKS_HANG_DETECTED);
                    }
                }
            }
        }
    }
    println!(
        "{runs} runs (seed {seed}): {ok} ended Ok, {early} launched a reducer early, \
         {preempted} reducers preempted, {hangs} hangs detected"
    );
    assert_eq!(runs, 3 * 2 * 6 * 4 * 7);
    assert!(
        ok >= runs * 2 / 3 && early >= runs / 4 && preempted >= 5.0 && hangs >= 5.0,
        "sweep coverage too thin"
    );
}

/// 3 nodes x 1 slot, 1 map, 4 reducers: map 0 runs on node 2, reducers 0 and
/// 1 start up on the other two. Node 2 dies before their start-ups end. A
/// reducer starting up keeps its slot, so the retried map finds none; it
/// gets one when the start-ups end and the scheduler runs again: reducer 0's,
/// the first idle. (The sweep stalled here, generator seed 23, before that
/// re-run.)
#[test]
fn a_map_retried_while_the_reducers_start_up_gets_a_slot_when_their_start_up_ends() {
    let shape = Shape {
        nodes: 3,
        slots: 1,
        maps: 1,
        reducers: 4,
    };
    let plan = FaultPlan::none()
        .with_seed(23)
        .kill_node(2, 0.8694421570435041);
    let (clean, ..) = run_shape(shape, FaultPlan::none());
    let clean = clean.expect("clean run");
    let mut started_up = reducers_of(&clean).filter(|t| t.start_s == 0.0);
    let first = started_up.next().expect("reducers start up beside the map");
    assert_eq!(
        (first.index, started_up.count()),
        (0, 1),
        "{:?}",
        clean.tasks
    );
    let (r, out, leftovers) = run_shape(shape, plan);
    let r = r.expect("the retried map takes a reducer's slot");
    assert_eq!(out, naive_output(shape));
    assert_eq!(leftovers, Vec::<String>::new());
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0);
    assert_eq!(r.counters.get(keys::REDUCES_PREEMPTED), 1.0);
    let map = &r.tasks[0];
    assert_eq!(map.kind, TaskKind::Map);
    assert_eq!((map.node, map.start_s), (first.node, 1.0), "{map:?}");
}

/// The minimal deadlock shape of reduce slow-start: 2 nodes x 1 slot, 2 maps,
/// 2 reducers. Map 1 commits on node 0 and reducer 0 takes that slot to wait
/// for map 0 — which dies with node 1. Only a preemption lets it run again.
#[test]
fn a_kill_under_the_last_running_map_preempts_the_reducer_holding_the_only_slot() {
    let shape = Shape {
        nodes: 2,
        slots: 1,
        maps: 2,
        reducers: 2,
    };
    let (clean, clean_out, _) = run_shape(shape, FaultPlan::none());
    let clean = clean.expect("clean run");
    assert_eq!(clean_out, naive_output(shape));
    let map = |i: usize| &clean.tasks[i];
    assert_eq!((map(0).node, map(1).node), (NodeId(1), NodeId(0)));
    assert!(map(1).end_s < map(0).end_s, "map 0 is the longer one");
    let kill_at = 0.5 * (map(1).end_s + map(0).end_s);
    let (r, out, _) = run_shape(shape, FaultPlan::none().kill_node(1, kill_at));
    let r = r.expect("the retried map takes the waiting reducer's slot");
    assert_eq!(out, clean_out);
    assert!(
        r.counters.get(keys::REDUCES_PREEMPTED) >= 1.0,
        "{:?}",
        r.counters
    );
    assert_eq!(
        r.counters.get(keys::TASK_RETRIES),
        1.0,
        "map 0's, nobody else's"
    );
}
