//! Driver fingerprint: the full timeline of eight small runs, pinned as
//! `scirng::hash64` constants. The other suites compare runs with each
//! other (determinism, byte identity); this one pins the event order
//! itself — every task report (kind, index, node, start/end and each phase
//! bit for bit), every counter, every stage run and every committed file —
//! so a driver refactor that silently reorders events fails here.
//!
//! The map-only and DAG constants (d, e) were recorded at the commit
//! *before* the driver was split into `job/*.rs`. The six runs with reducers
//! (a, b, c, f, g, h) were re-recorded once, by the commit that opened the
//! reduce phase at submit, and one event moved them all: **reducers launched
//! before map-phase close** — each takes a slot as soon as no map wants it,
//! starts up beside the map wave and pulls every map output as it commits. What follows from that, run by run, is at the constants
//! below; every map report of a, b, c and h is bit-identical to the parent's.
//! The two runs that retry under the chaos detector config (c, h) moved once
//! more, by the commit that deleted the jittered retry delay: **a failed attempt is
//! requeued in the instant it fails**.
//! All nine moved together with the reduce-side overlap: **merge charged at
//! landing; part file written beside compute** — see the note above the
//! constants. And all nine again with warm slots: **a slot whose last attempt
//! of the same job/DAG committed starts the next one without a start-up**;
//! the same commit re-placed (d)'s kill and (h)'s cut, which were timed by
//! start-ups that are no longer paid. The four runs whose nodes spill two
//! maps each (a, b, c, h) moved once more with **one spill at a time per
//! disk**: a node's spills queue for its local disk instead of sharing it.
//! Five (a, c, f, g, h) moved with **reducers placed by the room rule, not on
//! `r % n_nodes`**: a reducer takes the least-loaded node with room for its
//! share, as a stage task does; the same commit re-anchored (h)'s plan on the
//! node the first reducer launches on.
//! A mismatch prints the full canonical text so the two sides can be diffed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_dag, run_job, Cluster, Counters, DagJob, DagResult, Dataset,
    FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult, MapFn, MrError, Payload, ReduceFn,
    StreamConfig, TaskInput, TaskKind,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::scidp::SciSlabFetcher;
use scidp_suite::scifmt::snc::ChunkCache;
use scidp_suite::scifmt::{Array, Codec, SncBuilder, SncFile};
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

// ---------------------------------------------------------------------------
// Canonical text
// ---------------------------------------------------------------------------

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Every counter except the one that records *host* seconds.
fn counters_text(out: &mut String, c: &Counters) {
    for (k, v) in c.iter() {
        if k != keys::CODEC_DECODE_S {
            writeln!(out, "counter {k} {}", bits(v)).unwrap();
        }
    }
}

fn job_text(out: &mut String, r: &JobResult) {
    writeln!(out, "job {} {} {}", r.name, bits(r.start_s), bits(r.end_s)).unwrap();
    for t in &r.tasks {
        write!(
            out,
            "task {:?} {} n{} {} {}",
            t.kind,
            t.index,
            t.node.0,
            bits(t.start_s),
            bits(t.end_s)
        )
        .unwrap();
        for (p, s) in &t.phases {
            write!(out, " {p}={}", bits(*s)).unwrap();
        }
        out.push('\n');
    }
    counters_text(out, &r.counters);
}

fn dag_text(out: &mut String, r: &DagResult) {
    writeln!(
        out,
        "dag {} {} {} stages={} tasks={}",
        r.name,
        bits(r.start_s),
        bits(r.end_s),
        r.n_stages,
        r.total_tasks
    )
    .unwrap();
    for s in &r.runs {
        writeln!(
            out,
            "run s{} {} {} {} n={} re={} ok={}",
            s.stage,
            s.op,
            bits(s.start_s),
            bits(s.end_s),
            s.n_tasks,
            s.recomputed,
            s.ok
        )
        .unwrap();
    }
    counters_text(out, &r.counters);
}

/// Every file under `dirs` on both stores (temp and spill files included —
/// a leaked `_tmp/attempt-*` is an event-order change too), with the nodes
/// holding each HDFS block.
fn files_text(out: &mut String, c: &Cluster, dirs: &[&str]) {
    let h = c.hdfs.borrow();
    let p = c.pfs.borrow();
    for dir in dirs {
        if let Ok(files) = h.namenode.list_files_recursive(dir) {
            for f in files {
                let mut data = Vec::new();
                let mut nodes = Vec::new();
                for b in h.namenode.blocks(&f.path).unwrap() {
                    let loc = b.locations()[0];
                    nodes.push(loc.0);
                    data.extend_from_slice(&h.datanodes.get(loc, b.id).unwrap());
                }
                writeln!(
                    out,
                    "hdfs {} {nodes:?} {:016x}",
                    f.path,
                    scirng::hash64(&data)
                )
                .unwrap();
            }
        }
        for path in p.list(dir) {
            let data = &p.file(&path).unwrap().data;
            writeln!(out, "pfs {path} {:016x}", scirng::hash64(data)).unwrap();
        }
    }
}

#[track_caller]
fn check(label: &str, text: &str, want: u64) {
    let got = scirng::hash64(text.as_bytes());
    assert!(
        got == want,
        "{label}: fingerprint {got:#018x} != recorded {want:#018x}\n{text}"
    );
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn cluster(nodes: usize, slots: usize, osts: usize) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: nodes,
        storage_nodes: 1,
        osts,
        slots_per_node: slots,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: osts,
        ..PfsConfig::default()
    };
    Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default())
}

const FLAT: &str = "data/flat.bin";

fn stage_flat(c: &Cluster, bytes: u64, modulus: u64) {
    let data: Vec<u8> = (0..bytes).map(|i| (i % modulus) as u8).collect();
    c.pfs.borrow_mut().create(FLAT.to_string(), data);
}

fn flat_splits(total: u64, n: u64, sequential_chunks: usize) -> Vec<InputSplit> {
    let per = total / n;
    (0..n)
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: FLAT.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks,
            }),
        })
        .collect()
}

fn byte_counts(input: TaskInput) -> Result<Vec<(String, Payload)>, MrError> {
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

fn count_map(compute_s: f64) -> MapFn {
    Rc::new(move |input, ctx| {
        ctx.charge("compute", compute_s);
        for (k, v) in byte_counts(input)? {
            ctx.emit(k, v);
        }
        Ok(())
    })
}

fn sum_reduce() -> ReduceFn {
    Rc::new(|key, values, ctx| {
        ctx.emit(
            key,
            Payload::Bytes(sum_payloads(values)?.to_string().into_bytes()),
        );
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// (a) + (b): slab-fetcher job with reducers, streaming depth 2 vs batch
// ---------------------------------------------------------------------------

const SNC_PATH: &str = "run/fp.snc";

/// A 12-level variable chunked two levels at a time, read as three
/// two-chunk slabs plus one whole-variable slab (six pieces) through one
/// shared job chunk cache.
fn slab_job(c: &Cluster, stream: StreamConfig) -> Job {
    let data: Vec<f32> = (0..12 * 8 * 5).map(|i| (i % 97) as f32 * 0.25).collect();
    let full = Array::from_f32(vec![12, 8, 5], data).unwrap();
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", 12), ("lat", 8), ("lon", 5)],
        &[2, 8, 5],
        Codec::ShuffleLz { elem: 4 },
        full,
    )
    .unwrap();
    let bytes = b.finish();
    let f = SncFile::open(bytes.clone()).unwrap();
    let var = Arc::new(f.meta().var("QR").unwrap().clone());
    let data_offset = f.meta().data_offset;
    c.pfs.borrow_mut().create(SNC_PATH.to_string(), bytes);
    let cache = Arc::new(ChunkCache::default());
    let slab = |lev0: usize, levs: usize| InputSplit {
        length: var.chunks.iter().map(|ch| ch.clen).sum::<u64>() * levs as u64 / 12,
        locations: Vec::new(),
        fetcher: Rc::new(SciSlabFetcher {
            pfs_path: SNC_PATH.to_string(),
            var: var.clone(),
            data_offset,
            start: vec![lev0, 0, 0],
            count: vec![levs, 8, 5],
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: false,
        }),
    };
    let mut job = Job::new(
        "slabsum",
        vec![slab(0, 4), slab(4, 4), slab(8, 4), slab(0, 12), slab(2, 6)],
        Rc::new(|input, ctx| {
            let TaskInput::Array(a) = input else {
                return Err(MrError::msg("expected array"));
            };
            ctx.charge("analysis", 0.002 * a.len() as f64);
            let (levs, lats, lons) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            for l in 0..levs {
                let mut sum = 0.0f64;
                for i in 0..lats {
                    for j in 0..lons {
                        sum += a.at(&[l, i, j]);
                    }
                }
                ctx.emit(
                    format!("lev{}", l % 5),
                    Payload::Bytes(format!("{sum}").into_bytes()),
                );
            }
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            ctx.charge("analysis", 0.01 * values.len() as f64);
            for v in values {
                ctx.emit(key, v);
            }
            Ok(())
        })),
        2,
        "slab_out",
    );
    job.stream = stream;
    job
}

fn slab_text(stream: StreamConfig) -> String {
    let mut c = cluster(2, 2, 4);
    let job = slab_job(&c, stream);
    let r = run_job(&mut c, job).unwrap();
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["slab_out"]);
    out
}

#[test]
fn a_slab_job_streaming_depth_2() {
    let text = slab_text(StreamConfig { enabled: true });
    assert!(text.contains("counter overlap_saved_s"), "{text}");
    check("slab/stream", &text, FP_SLAB_STREAM);
}

#[test]
fn b_slab_job_batch() {
    let text = slab_text(StreamConfig { enabled: false });
    assert!(!text.contains("counter overlap_saved_s"), "{text}");
    check("slab/batch", &text, FP_SLAB_BATCH);
}

// ---------------------------------------------------------------------------
// (c): flat-PFS job under the chaos detector config, everything at once
// ---------------------------------------------------------------------------

/// `tests/chaos.rs`'s detector knobs.
fn chaos_ft() -> FtConfig {
    FtConfig {
        max_task_attempts: 8,
        speculative: false,
        heartbeat_interval_s: 1.0,
        suspect_after_misses: 1,
        dead_after_misses: 3,
        hang_deadline_min_s: 10.0,
    }
}

#[test]
fn c_flat_job_under_kill_slow_hang_and_partition() {
    const BYTES: u64 = 48 * 1024;
    let mut c = cluster(4, 2, 4);
    stage_flat(&c, BYTES, 7);
    c.sim.faults.install(
        FaultPlan::none()
            .with_seed(3)
            .kill_node(3, 5.0)
            .slow_node(0, 2.5)
            .hang_nth_read(FLAT, 5)
            .fail_read(FLAT, 2)
            .partition(&[1], 0.5, 6.0),
    );
    let mut job = Job::new(
        "chaos",
        flat_splits(BYTES, 12, 2),
        count_map(3.0),
        Some(sum_reduce()),
        2,
        "out",
    );
    job.ft = chaos_ft();
    let r = run_job(&mut c, job).unwrap();
    // Every recovery path this run is meant to pin actually fired.
    for key in [
        keys::TASK_RETRIES,
        keys::TASKS_HANG_DETECTED,
        keys::NODES_SUSPECTED,
        keys::NODES_REINSTATED,
        keys::PARTITIONS_OBSERVED,
    ] {
        assert!(r.counters.get(key) >= 1.0, "{key}: {:?}", r.counters);
    }
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["out"]);
    check("chaos", &out, FP_CHAOS);
}

// ---------------------------------------------------------------------------
// (d): the `tests/dag_lineage.rs` node-kill DAG
// ---------------------------------------------------------------------------

fn parity_key(key: &str) -> Result<String, MrError> {
    let k: u64 = key
        .strip_prefix('b')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MrError::msg(format!("unexpected key {key:?}")))?;
    Ok(format!("g{}", k % 2))
}

/// Both constants re-recorded by the commit that moved the final part files
/// into their tasks (parent values `0xad19_8943_6c26_51ba` clean,
/// `0x962f_eb56_8705_fab8` kill). The event that moved: *part file written*.
/// A final task used to spill its records to the local disk and commit, and
/// the DAG driver wrote the two non-empty part files one after the other
/// once the stage had ended; now each task writes its own, concurrently, in
/// place of the spill. Clean: the final stage's `end_s` 4.076611 -> 4.077111 s
/// (it includes the 0.5 ms write) and the DAG's 4.077611 -> 4.077111 s (the
/// second, serial write is gone). Kill: the DAG's end 11.095091 -> 11.094091 s
/// (both serial writes gone; the recovery run of the final stage ends with
/// an empty partition's task, so its own `end_s` is bit-identical). Every
/// other line — stage runs, counters, file names, block holders, bytes — is
/// unchanged.
///
/// The kill constant moved once more (from `0x251f_0c78_f6a8_ae4b`) with the
/// commit that ends a stage on its first lost input. The event that moved:
/// *stage failed*. The doomed final stage used to re-read the hole
/// `max_task_attempts` times, one start-up each (3.076610 -> 7.076610 s); now
/// the first `InputLost` ends it (-> 4.076610 s), and the three recovery runs
/// and the DAG's end (11.094091 -> 8.094091 s) follow 3.0 s earlier, otherwise
/// bit for bit: the same runs, tasks, counters and files.
///
/// And once more (from `0xf67d_a5ed_f65c_6bd9`) with the commit that keeps a
/// failed run's books. The event that moved: *failed run merged*. The doomed
/// final stage launches four attempts and requeues the one the kill takes; its
/// counters used to vanish with it, now `map_attempts` reads 19 -> 23 and
/// `task_retries` 1 appears. Every run, time, other counter and file is
/// unchanged.
///
/// Both constants re-recorded by the commit that made every stage of a DAG
/// live from submit (parent values `0x3fe5_d335_8d15_9f6c` clean,
/// `0xb076_dfd9_8a60_dd2f` kill). The event that moved: **stage tasks launched
/// before their parent closed.** On these four one-slot nodes every slot runs
/// a task of the stage upstream until that stage's last wave ends, so "before"
/// is microseconds: each task of the next stage takes its slot as *one* parent
/// task commits, not when the last one has, and pulls what is registered
/// while the rest of that wave commits (`shuffle_overlap_saved_s` 0.874 µs, a DAG reports it to the nanosecond).
/// What follows from it, clean: every run's `start_s` is 0 — a run starts when
/// it is submitted, with the DAG, and ends with its last commit (`end_s` of
/// s0 and s1 are bit-identical to the parent's) — a stage task's report reads
/// `startup`, `wait`, `shuffle`, … where it read `startup`, `read`, …;
/// `stream_fallbacks` 8 -> absent (a pulled partition has no fetcher to fall
/// back from); tasks are placed as slots free up instead of over an idle
/// cluster, so the two part files are written from nodes 3 and 2 instead of 2
/// and 1; the DAG ends 4.077110775 -> 4.077110765 s.
/// Kill (now anchored 1 µs behind the close of stage 1, the same instant): the
/// final stage's tasks have just launched when node 1 dies. They keep waiting
/// — no run fails on a hole — while the DAG driver resubmits, in the instant
/// of the kill, exactly the lost partitions: two of stage 0 and, live beside
/// them from the start, one of stage 1 (`stages_run` 6 -> 5, the doomed
/// final run and its second submission are gone). The two source recomputes
/// find every live slot held by a waiting final task and take two of them
/// (`reduces_preempted` 2, `map_attempts` 23 -> 22). The doomed run's start-up
/// and the final stage's second one are no longer on the critical path: the
/// DAG ends 8.094091 -> 6.094593 s, same lost / recomputed partitions, same
/// files.
///
/// Warm slots moved both once more, and re-placed the kill: see `FP_DAG_KILL`.
fn lineage_dag() -> DagJob {
    let sum = || -> scidp_suite::mapreduce::AggFn {
        Rc::new(|_k, values, _ctx| {
            Ok(Payload::Bytes(
                sum_payloads(values)?.to_string().into_bytes(),
            ))
        })
    };
    let plan = Dataset::from_splits(
        flat_splits(8 * 1024, 8, 1),
        Rc::new(|input, _ctx| byte_counts(input)),
    )
    .reduce_by_key(4, sum())
    .map(Rc::new(|k, v, _ctx| Ok(vec![(parity_key(k)?, v)])))
    .reduce_by_key(4, sum());
    DagJob::new("lineage", plan, "dagout")
}

#[test]
fn d_dag_clean_and_node_kill_lineage() {
    let dag_cluster = || {
        let c = cluster(4, 1, 2);
        stage_flat(&c, 8 * 1024, 7);
        c
    };
    let mut clean = dag_cluster();
    let rc = run_dag(&mut clean, lineage_dag()).unwrap();
    let mut out = String::new();
    dag_text(&mut out, &rc);
    files_text(&mut out, &clean, &["dagout"]);
    check("dag/clean", &out, FP_DAG_CLEAN);

    // Node 1 commits its stage-1 task first: halfway from that commit to the
    // close of stage 1, while the final-stage task it took waits.
    let s1 = rc.runs.iter().find(|r| r.stage == 1).unwrap();
    let on_1 = s1.tasks.iter().filter(|t| t.node.0 == 1);
    let committed = on_1.map(|t| t.end_s).fold(0.0, f64::max);
    let mut faulted = dag_cluster();
    faulted
        .sim
        .faults
        .install(FaultPlan::none().kill_node(1, 0.5 * (committed + s1.end_s)));
    let rf = run_dag(&mut faulted, lineage_dag()).unwrap();
    assert!(rf.counters.get(keys::LINEAGE_RECOMPUTES) >= 2.0);
    let mut out = String::new();
    dag_text(&mut out, &rf);
    files_text(&mut out, &faulted, &["dagout"]);
    check("dag/kill", &out, FP_DAG_KILL);
}

// ---------------------------------------------------------------------------
// (e) + (f): connector mode — map-only, and with reducers under speculation
// ---------------------------------------------------------------------------

#[test]
fn e_map_only_connector_job() {
    const BYTES: u64 = 24 * 1024;
    let mut c = cluster(3, 2, 4);
    stage_flat(&c, BYTES, 11);
    let mut job = Job::new(
        "connector-m",
        flat_splits(BYTES, 8, 3),
        count_map(1.5),
        None,
        1,
        "pout",
    );
    job.spill_to_pfs = true;
    job.output_to_pfs = true;
    let r = run_job(&mut c, job).unwrap();
    assert!(r.counters.get(keys::PFS_WRITE_BYTES) > 0.0);
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["pout", "_spill"]);
    check("connector/map-only", &out, FP_CONNECTOR_MAP_ONLY);
}

#[test]
fn f_connector_job_with_reducers_and_a_straggler() {
    const BYTES: u64 = 24 * 1024;
    let mut c = cluster(3, 2, 4);
    stage_flat(&c, BYTES, 11);
    c.sim
        .faults
        .install(FaultPlan::none().slow_node(2, 12.0).fail_read(FLAT, 4));
    let mut job = Job::new(
        "connector-r",
        flat_splits(BYTES, 8, 1),
        count_map(2.0),
        Some(sum_reduce()),
        3,
        "pout",
    );
    job.spill_to_pfs = true;
    job.output_to_pfs = true;
    let r = run_job(&mut c, job).unwrap();
    assert!(
        r.counters.get(keys::SPECULATIVE_WON) >= 1.0,
        "{:?}",
        r.counters
    );
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["pout", "_spill"]);
    check("connector/reduce", &out, FP_CONNECTOR_REDUCE);
}

/// A reduce attempt whose pull of one map's spill file fails mid-fan-out
/// (siblings issued before and after it) retries and the job completes.
///
/// Re-recorded by the commit that gave the storage clients one completion
/// channel (parent value `0xace4_8f32_1a6e_da67`), and again for reduce
/// slow-start (see `FP_CONNECTOR_SPILL_PULL`). The event that moved then: the doomed attempt used to learn of the failure from `read_at`'s
/// return value and stop mid-loop, so the pulls of m3..m7 were never issued;
/// now all eight pulls leave in the same instant and the error arrives one
/// zero-delay event later, so those five reads share the OSTs with reducers
/// 1 and 2 (their `shuffle` 0.2914 -> 0.4274 s; reducer 0's retry and the job
/// end are bit-identical). Concurrent issue is the modelled behaviour — how
/// much a doomed attempt wastes no longer depends on which index failed.
#[test]
fn g_connector_job_with_a_failed_spill_pull() {
    const BYTES: u64 = 24 * 1024;
    let mut c = cluster(3, 2, 4);
    stage_flat(&c, BYTES, 11);
    c.sim
        .faults
        .install(FaultPlan::none().fail_read("_spill/connector-p/m00002", 1));
    let mut job = Job::new(
        "connector-p",
        flat_splits(BYTES, 8, 1),
        count_map(2.0),
        Some(sum_reduce()),
        3,
        "pout",
    );
    job.spill_to_pfs = true;
    job.output_to_pfs = true;
    let r = run_job(&mut c, job).unwrap();
    assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0, "{:?}", r.counters);
    assert_eq!(r.counters.get(keys::REDUCE_ATTEMPTS), 4.0);
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["pout", "_spill"]);
    check("connector/spill-pull", &out, FP_CONNECTOR_SPILL_PULL);
}

// ---------------------------------------------------------------------------
// (h): faults on the shuffle itself
// ---------------------------------------------------------------------------

/// Map holders fail *after* their maps commit: node 3 is partitioned away
/// half a second after its maps commit, before the other reducer launches, and
/// heals 6 s later; node 0 sits behind 8x slow links to nodes 1 and 2. Every pull is one
/// `Sim::net_transfer`: the pulls from node 3 are dropped, the reduce
/// attempts' hang deadlines fail them, the retries cross the healed link;
/// the pulls from node 0 take 8x as long. Recorded by the commit that moved
/// the classic pull onto `net_transfer` — at its parent neither fault
/// touches a pull and this run is the clean run plus a detector — and again
/// for reduce slow-start (see `FP_SHUFFLE_FAULTS`).
#[test]
fn h_flat_job_whose_map_holders_are_cut_off_and_slowed_after_they_commit() {
    const BYTES: u64 = 32 * 1024;
    let run = |plan: FaultPlan| {
        let mut c = cluster(4, 2, 4);
        stage_flat(&c, BYTES, 7);
        c.sim.faults.install(plan);
        let mut job = Job::new(
            "shuffle-faults",
            flat_splits(BYTES, 8, 1),
            count_map(3.0),
            Some(sum_reduce()),
            2,
            "out",
        );
        job.ft = chaos_ft();
        (run_job(&mut c, job).unwrap(), c)
    };
    // Every node but node 3 computes 1.5x slower: node 3's maps commit first,
    // and the first reducer launches there, where it holds them. The other
    // launches as the slow maps commit, well after.
    let staggered = || {
        let plan = FaultPlan::none().with_seed(3);
        plan.slow_node(0, 1.5).slow_node(1, 1.5).slow_node(2, 1.5)
    };
    let (clean, _) = run(staggered());
    let reducers = clean.tasks.iter().filter(|t| t.kind == TaskKind::Reduce);
    let first = reducers.min_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let holder = first.expect("reducers").node;
    let maps = clean.tasks.iter().filter(|t| t.kind == TaskKind::Map);
    let held = maps.filter(|t| t.node == holder).map(|t| t.end_s);
    let cut = held.fold(0.0, f64::max) + 0.5;
    let plan = staggered()
        .partition(&[holder.0], cut, cut + 6.0)
        .slow_link(0, 1, 8.0)
        .slow_link(0, 2, 8.0);
    let (r, c) = run(plan);
    assert!(r.counters.get(keys::TASKS_HANG_DETECTED) >= 1.0);
    assert_eq!(r.counters.get(keys::MAP_ATTEMPTS), 8.0, "{:?}", r.counters);
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["out"]);
    check("shuffle-faults", &out, FP_SHUFFLE_FAULTS);
}

// ---------------------------------------------------------------------------
// Recorded fingerprints
// ---------------------------------------------------------------------------

// Moved by "reducers launched before map-phase close" (parent values in
// parentheses). Common to all six: each reduce report gains a `wait` phase
// between `startup` and `shuffle`, `shuffle` shrinks to what is pulled after
// the close, `shuffle_overlap_saved_s` appears, and — the reduce input now
// being ordered by map index instead of flow arrival — part files whose
// reducer is order-sensitive change bytes once (a, b: the slab job's
// concatenating reducer; the summing reducers of c, f, g, h keep theirs).
//
// (a, b) Both reducers launch when the first wave's maps free their
// slots (1.48 / 1.54 s instead of 3.05 / 3.12 s), wait 0.576 s for the last
// map and finish one start-up earlier: job end 4.2219 -> 3.2219 s and
// 4.2904 -> 3.2904 s. (0x4ed3_7182_5b63_f4ee, 0x052f_ee2d_7a6d_63ed)
//
// Every constant below moved once more, by **merge charged at landing; part
// file written beside compute** (parent values in brackets). A pulled output's
// share of the sort is charged as it lands, behind the merges before it, so a
// pulling task's `sort` is what of that merge is left after its last pull
// (the rest adds to `shuffle_overlap_saved_s`); a part file is written from
// the instant the task schedules its compute end, and `write` is what of it
// outlasts the compute (the rest is the new `write_overlap_saved_s`). Every
// map report of a, b, c, f, g and h, every file name, block holder and byte is
// unchanged; what moved, run by run:
// (a, b) Each reducer's sort shrinks to its last pull's merge (2.8 -> 0.72 µs,
// 1.88 -> 0.28 µs) and its 0.5 ms write hides behind its 0.13-0.17 s reduce:
// job end 3.221897 -> 3.221393 s and 3.290385 -> 3.289881 s.
// [0xd400_a6cb_e455_ed0f, 0xe628_24f2_1577_125b]
//
// Every constant below moved once more, by **a slot whose last attempt of the
// same job/DAG committed starts the next one without a start-up** (warm slots;
// parent values in braces). A launch into such a slot reports `startup` 0 and
// runs a second sooner; every other launch pays its start-up as before. Every
// file name, block holder and byte is unchanged; what moved, run by run:
// (a, b) Map 4, the second wave on node 1, and both reducers launch in warm
// slots: map 4 ends a second sooner (3.0514 -> 2.0514 s, 3.1199 -> 2.1199 s),
// the reducers wait for it (`wait` 0.576 -> 0.768 s) and no start-up is left to
// hide (`shuffle_overlap_saved_s` 2.0000 s -> 2.9 µs): job end 3.221393 ->
// 2.413395 s and 3.289881 -> 2.481884 s.
// {0xdebf_cafd_dcb3_02f4, 0x00a1_29fb_53c6_46b4}
//
// a, b, c and h moved once more, by **one spill at a time per disk**: a node's
// map spills queue for its local disk, first come first, instead of sharing it
// with the head-thrash penalty (parent values in angle brackets). A spill that
// found the disk idle takes its own bytes' time, the one queued behind it that
// plus its own: two equal spills end at s and 2s instead of both at 2s·1.06.
// Every counter but the two overlap savings, every file name, block holder and
// byte is unchanged; what moved, run by run:
// (a, b) Maps 0 and 2 share node 1 and its disk, and the first spill there
// ends sooner (stream: map 0's, 0.39 -> 0.26 µs; batch: map 2's, 0.30 ->
// 0.23 µs). Map 4, launched in the slot it frees, starts 0.13 µs (0.07 µs)
// sooner, reducer 1, in the other one, 0.02 µs (0.01 µs); the job end is bit
// for bit the same (2.413395 s, 2.481884 s). <0xa99c_0c1b_1d61_c4e6,
// 0x8cad_76f4_2d37_20cb>
//
// a, c, f, g and h moved once more, by **reducers placed by the room rule, not
// on `r % n_nodes`** (parent values after "was"). A reducer takes the
// least-loaded free node with room for its share, ⌈reducers / nodes⌉ in flight
// per node, instead of waiting for its home. Every map report, counter and
// byte of a, c, f and g is unchanged; what moved, run by run:
// (a) Both reducers still launch at 1.475 s, in the slots the first wave frees
// on nodes 1 and 0, but the other way round: reducer 0 takes node 1's, freed
// first, and pulls across the network what it used to read locally (`shuffle`
// 0 -> 46 ns). Job end 2.41339507 -> 2.41339512 s; the part files are written
// from nodes 1 and 0 instead of 0 and 1. (b) does not move: there node 0's
// slot frees first, and each reducer's first free node was its home.
// (was 0x9186_2881_516d_eb15)
const FP_SLAB_STREAM: u64 = 0x1911_55b8_c6a6_3404;
const FP_SLAB_BATCH: u64 = 0x8399_2796_05fe_b360;
// (c) Reducer 1 launches at 10.64 s on node 1 and waits 8.56 s; reducer 0
// waits for node 0 (then its home), which the 2.5x-slow maps hold until the
// close, so it launches then, as before: job end unchanged (21.1965 s), reducer 1
// done a start-up earlier. No reducer is declared hung while it waits.
// (0x5086_02b2_6c38_9209)
// Moved again by "a failed attempt is requeued in the instant it fails"
// (the jittered retry delay is gone). The hang deadline fires at 10.0 s; the
// two maps that then launch on slow node 0 did so at 10.1577 s — the slots
// sat idle through the delay — and do at 10.0 s now, so the last map, the
// reducers behind it and the job end 0.1577 s sooner, 21.1965 -> 21.0389 s.
// The requeued map 3 is back in the queue before map 7 is handed out, so
// the two swap places (3 on node 0, 7 on node 1 at 10.64 s). Same counters,
// same files. (0x9b4d_094d_f187_331d)
// Reduce-side overlap: reducer 1, which waited 8.4 s, merged all but its last
// pull before the close (sort 4.8 -> 0.8 µs); reducer 0, launched at the
// close, hides 0.12 µs of its 9 µs; neither reduce charges anything, so only
// microseconds of each write hide. Job end 21.038858 -> 21.038849 s.
// [0xd144_ec03_259f_0460]
// Warm slots: maps 6, 7, 8, 10 and 11 and both reducers launch where a map
// committed. Maps 10 and 11 (node 2) fetch at 4.80 s, beside other reads (`read`
// 0.038 -> 0.063 s), and maps 6 and 8 follow them, with no start-up either
// (end 14.08 -> 12.10 s); reducer 1 waits a start-up longer (`wait` 8.4 -> 9.4 s) and
// reducer 0, launched at the close, no longer pays one: job end 21.038849 ->
// 20.038849 s. {0x1878_eda0_29cf_5ed3}
// One spill per disk: a node's two spills take 0.29 and 0.58 µs instead of
// 0.62 µs each, so the first map of each pair commits 0.3 µs sooner. Maps 9
// and 10 swap places: map 9 now takes the node-2 slot freed at 4.80 s, and
// map 10 is the one that runs on slow node 0 from 10 s, cold. Reducer 0
// launches with the first of node 0's commits and
// waits 0.29 µs for the second (`shuffle_overlap_saved_s` 4.23 -> 4.83 µs,
// `write_overlap_saved_s` 9.68 -> 9.22 µs): job end 20.0388488 ->
// 20.0388487 s. <0x3583_eb6a_7bce_d7ee>
// Room rule: reducer 0, the head of the queue, takes the node-1 slot at
// 10.64 s that reducer 1 took, and reducer 1 the next node with room, node 2,
// at 12.10 s (`wait` 7.94 s); reducer 0 used to launch at the close, on node
// 0. Both now merge behind their pulls (`shuffle_overlap_saved_s` 4.83 ->
// 7.78 µs), so no reducer has 8.7 µs of merge left at the close for its
// write to hide behind (`write_overlap_saved_s` 9.22 -> 0.82 µs). Job end
// 20.0388487 -> 20.0388488 s; part files from nodes 1 and 2 instead of 0 and
// 1. (was 0x3533_2a49_498d_4d94)
const FP_CHAOS: u64 = 0x5e18_5445_66a0_3c84;
// (d) Reduce-side overlap: a stage task's grouping is no longer a charge of
// the task function but its merge, charged as its pulls land; stage 1 closes
// 3.07661021 -> 3.07661016 s and the DAG ends 4.07711077 -> 4.07711024 s
// (`shuffle_overlap_saved_s` 0.874 -> 1.032 µs, `write_overlap_saved_s`
// 0.826 µs: the final tasks' writes ran beside their aggregates). Kill: the
// same instants shift the recovery runs by 0.05 µs; the DAG ends
// 6.09459254 -> 6.09459210 s, same runs, partitions and files.
// [0x69d1_e876_f5e8_79c2, 0x803a_9d0a_e0fa_5289]
// Warm slots: only the first source wave pays a start-up; every later task
// launches where a task of the DAG committed: s0 closes 2.0766 -> 1.0766 s, s1
// 3.0766 -> 1.0766 s, and the DAG ends 4.07711024 -> 1.07711024 s. Its final
// stage's two
// writers (0.5 ms) now outlast twice the median of the two empty partitions'
// durations (under 1 µs) once those have committed, so each gets a twin, which
// loses (`speculative_launched` 2, `map_attempts` 16 -> 18). Kill: re-placed
// from 1 µs behind the close of stage 1 — by then the final tasks, launched
// warm, have pulled everything and the kill costs nothing — to halfway between
// node 1's stage-1 commit and that close, while the final task it took waits:
// the recovery runs of stages 0 and 1 run from 1.07660974 s, end by 1.0941 s,
// and no waiting task is preempted (`reduces_preempted` 2 -> absent,
// `map_attempts` 22 -> 20); the DAG ends 6.0945921 -> 1.0945905 s, same lost
// and recomputed partitions, same files.
// {0x3bdd_09f4_ab4b_c9e6, 0xe1e7_2083_30c0_eb64}
// Pulling tasks are never speculated and count no locality: the two twins of
// the final stage's writers are gone (`speculative_launched` 2 -> absent,
// `map_attempts` 18 -> 16) and `any_locality_maps` counts the source tasks
// only (clean 16 -> 8, kill 19 -> 10); every task report, stage run and file
// is unchanged. {0x420e_767b_10b3_fe45, 0xda05_994d_427b_4407}
const FP_DAG_CLEAN: u64 = 0x51a3_5184_52fe_813c;
const FP_DAG_KILL: u64 = 0x4d16_8c00_da5b_c210;
// (e) Reduce-side overlap: every map's part file (63 ms in the first wave,
// 17 ms in the second) is written to the PFS while the map computes, so it
// commits as its 1.8 s compute ends: both waves end 63 ms / 17 ms sooner, job
// end 5.878716 -> 5.798349 s, `write_overlap_saved_s` 0.412 s. Recorded at
// the commit before the driver split, this constant had never moved.
// [0xbcfb_2360_3ba8_116d]
// Warm slots: maps 6 and 7, the second wave, launch where maps 0 and 1
// committed: job end 5.798349 -> 4.798349 s. {0x0891_655d_146a_007f}
const FP_CONNECTOR_MAP_ONLY: u64 = 0xc3db_0a1e_bb4f_f969;
// (f) Reducers 0 and 1 launch at 3.49 s beside the second wave. At 6.98 s
// the speculative twin of straggling map 0 finds no free slot off node 2 and
// preempts the youngest reducer (0, on node 0: `reduces_preempted` 1,
// `reduce_attempts` 3 -> 4, no retry charged), which relaunches at 7.03 s
// when map 3 gives its slot back; the twin of map 6 then finds node 1 free
// instead of node 0. Early pulls read spill files back from the PFS while
// the second wave still reads its input (maps 3 and 7: `read` 0.018 ->
// 0.124 s); all three reducers pull only the last map's output after the
// close (`shuffle` 0.457 -> 0.124 s). Job end 12.8789 -> 11.5452 s.
// (0x5eb2_16e6_6dba_0ca3)
// Reduce-side overlap: reducers 0 and 1 merge all but their last pull before
// the close (sort 1.6 -> 0.2 µs, 4.16 -> 0.52 µs); each 27 ms PFS write now
// starts when its reducer's last pull lands, up to 38 µs before its sort
// ends, so the three share the OSTs a little longer and the last lands later:
// job end 11.5451786 -> 11.5451815 s (+2.9 µs) — the one run here that ends
// later.
// [0xcd44_e2d4_cae2_aeaf]
// Warm slots: maps 3 and 7, the second wave, and reducers 0 and 1 launch at
// 3.49 s where the first wave committed; the second wave ends a second sooner
// (7.03 -> 6.03 s), so the twins of maps 0 and 6 (6.98 and 7.98 s) find a
// free, warm slot — on nodes 1 and 0, the other way round — and preempt
// nobody (`reduces_preempted` 1 -> absent, `reduce_attempts` 4 -> 3). Reducer
// 2 launches, cold, in the slot of map 0's orphaned original on slow node 2:
// job end 11.5451815 -> 10.5451815 s. {0xb343_2681_26cb_d069}
// Room rule: reducers 0 and 1 launch at the same instant in the same two
// slots, on nodes 1 and 0 instead of 0 and 1. Every time is bit for bit the
// same. (was 0x6e8e_5485_26b5_30a5)
// Speculation by estimated time to end: the maps of node 2 compute 12x as
// slowly as the committed ones, so each is twinned as soon as it can be —
// map 0 at 3.489 s, when half the maps have committed, on node 0 (was 6.98
// s on node 1); map 6, flagged in the same instant, finds no free slot
// until map 7 commits on node 1 at 5.993 s (was 7.98 s on node 0). Map 0's twin
// commits at 5.993 s; reducer 1 launches then on node 0 instead of at 3.49
// s, and reducer 2, cold, in the slot of map 0's dropped original on node 2
// (was 9.39 s). Both twins still win (`speculative_won` 2). Job end 10.545
// -> 8.597 s. (was 0x7132_40b2_8e6f_260a)
const FP_CONNECTOR_REDUCE: u64 = 0x2de7_573e_0b32_e90e;
// (g) The pull of `m00002` now fails while maps still run: reducer 0
// launches at 3.53 s, its first attempt dies one start-up later and the
// retry launches in that instant (4.53 s) and waits with the others, so the
// retry's start-up is hidden too and all three end together: job end
// 9.0609 -> 7.3505 s. The early pulls share the OSTs with maps 6 and 7
// (`read` 0.018 -> 0.317 s). (0x2ee7_1802_b527_9e8b)
// Reduce-side overlap: all three reducers merge behind their pulls (sort
// 1.6 / 4.16 / 3.2 -> 0.4 / 1.04 / 0.8 µs): job end 7.3504906 -> 7.3504895 s.
// [0x6000_1783_0ed2_77b7]
// Warm slots: the three reducers and maps 6 and 7 launch at 3.526 s where the
// first wave committed. Reducer 0's first attempt fails at once, and its
// retry takes node 0's other slot, warm, in that instant; the reducers' early
// pulls now share the OSTs with the second wave's reads (`read` 0.317 ->
// 0.489 s): job end 7.3504895 -> 6.5223315 s. {0x096d_13c2_0732_a3c2}
// Room rule: reducers 1 and 2 launch at the same instant in the same two
// slots, on nodes 2 and 1 instead of 1 and 2. Every time is bit for bit the
// same. (was 0x8083_c222_fa6e_e068)
const FP_CONNECTOR_SPILL_PULL: u64 = 0xb27e_10c1_065b_8833;
// (h) All eight slots run maps, which commit in one instant (4.6918 s) in
// map order: both reducers launch in that instant and still pull one
// start-up later, across the cut — same drops, same deadline (now counted
// from the close, the same instant), same retries. Node 1's slot frees
// before node 0's, so reducer 1's attempt is the older one and fails first:
// the 0.108 s retry back-off lands on reducer 0 instead of 1, whose sort is
// the shorter by a microsecond: job end 20.039753 -> 20.039752 s.
// (0x7e68_f430_4d32_9789)
// Moved again by "a failed attempt is requeued in the instant it fails"
// (the jittered retry delay is gone): both reducers' retries launch at
// 18.7672 s, where their hang deadlines fire, instead of 0.272 s and 0.164 s
// later: job end 20.0398 -> 19.7677 s. Every map report, every counter and
// both part files are unchanged. (0xfc9c_e21c_72eb_8f0f)
// Reduce-side overlap: both retries launch behind the close and merge as their
// pulls land, hiding 0.4 µs and 0.3 µs of sort (`shuffle_overlap_saved_s`
// appears, 0.728 µs) and ~2 µs of each write: job end 19.7677183 ->
// 19.7677151 s. [0x175b_1a37_7ed2_e545]
// Warm slots, and the cut re-placed: the reducers used to launch at the close
// and pull one start-up later, across a cut half a start-up into the reduce
// phase; now they pull at launch, before any such cut. So nodes 0 and 1, where
// the reducers then launched, compute 1.5x slower (their maps end 4.6918 -> 6.4918 s),
// and node 3 is cut off half a second after its own maps commit (5.19 s, for
// 6 s). The reducers launch at 6.49 s, warm, and their pulls from node 3 are
// dropped as before; the hang deadline is three times the slower maps'
// (19.48 s), and the retries launch in the nodes' other, warm slots at
// 25.97 s and cross the healed link: job end 19.7677151 -> 25.9677151 s. Same
// drops, hangs, retries and files. {0xaf08_6b60_b3b7_9368}
// One spill per disk: each node's two maps commit 0.29 µs apart instead of
// together, 0.3 µs sooner for the first, so the hang deadline (three times the
// slower maps' q75) fires, and the retries launch, 1 µs sooner: job end
// 25.9677151 -> 25.9677141 s. Same drops, hangs, retries and files.
// <0x5662_cfef_600e_2dd4>
// Room rule, and the plan re-anchored: with nodes 0 and 1 slow the first
// reducers took the slots node 3's maps freed and pulled their outputs before
// the cut, and no pull was dropped. Now every node but node 3 is slow (maps 1
// and 5 on node 2 end 4.69 -> 6.49 s), and the cut falls on the node the
// first reducer launched on — node 3, as before — half a second after its
// maps commit. The reducer there is cut off with it, and the other one's
// pulls from node 3 are dropped. Same hangs (2) and
// detector counters; one more retry (`task_retries` 2 -> 3, `reduce_attempts`
// 4 -> 5), and both reducers commit on node 3 after the heal: job end
// 25.9677141 -> 27.4759110 s, both part files written from node 3. (was
// 0x2648_5b8c_8fb5_1c1d)
const FP_SHUFFLE_FAULTS: u64 = 0xfeef_ea8a_c78b_20ba;
