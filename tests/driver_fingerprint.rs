//! Driver fingerprint: the full timeline of eight small runs, pinned as
//! golden texts under `tests/golden/`. The other suites compare runs with
//! each other (determinism, byte identity); this one pins the event order
//! itself — every task report (kind, index, node, start/end and each phase
//! bit for bit), every counter, every stage run and every committed file —
//! so a driver refactor that silently reorders events fails here.
//!
//! A mismatch prints the first line that differs, with the ten lines before
//! it, writes the new text to `target/golden/<label>.txt` and prints the one
//! `cp` that re-records it. Re-record a text only in a commit that says why
//! it moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_dag, run_job, Cluster, Counters, DagJob, DagResult, Dataset,
    FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult, MapFn, MrError, Payload, ReduceFn,
    StreamConfig, TaskInput, TaskKind, TaskReport,
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

// Each summary line follows what it sums up — the task lines come before
// their job's or run's line, the runs before their DAG's — so the first line
// that differs is the earliest report that moved, not the end time it moved.

fn task_text(out: &mut String, t: &TaskReport) {
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

fn job_text(out: &mut String, r: &JobResult) {
    r.tasks.iter().for_each(|t| task_text(out, t));
    counters_text(out, &r.counters);
    writeln!(out, "job {} {} {}", r.name, bits(r.start_s), bits(r.end_s)).unwrap();
}

fn dag_text(out: &mut String, r: &DagResult) {
    for s in &r.runs {
        s.tasks.iter().for_each(|t| task_text(out, t));
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

/// Where the golden texts live, and where a mismatching run's text is written.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const GOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/golden");

/// `text` must equal `tests/golden/<label>.txt` line for line.
#[track_caller]
fn check(label: &str, text: &str) {
    let want = std::fs::read_to_string(format!("{GOLDEN}/{label}.txt")).unwrap_or_default();
    if text == want {
        return;
    }
    let (got, old): (Vec<&str>, Vec<&str>) = (text.lines().collect(), want.lines().collect());
    let n = got.len().max(old.len());
    let at = (0..n).find(|&i| got.get(i) != old.get(i)).unwrap_or(n);
    let mut shown = String::new();
    for (i, line) in old.iter().enumerate().take(at).skip(at.saturating_sub(10)) {
        writeln!(shown, "  {:>4} {line}", i + 1).unwrap();
    }
    let side = |lines: &[&str]| {
        lines
            .get(at)
            .map_or("<end of text>".to_string(), |l| l.to_string())
    };
    writeln!(shown, "- {:>4} {}", at + 1, side(&old)).unwrap();
    writeln!(shown, "+ {:>4} {}", at + 1, side(&got)).unwrap();
    std::fs::create_dir_all(GOT).unwrap();
    std::fs::write(format!("{GOT}/{label}.txt"), text).unwrap();
    panic!(
        "{label}: the run's text differs from tests/golden/{label}.txt at line {}:\n{shown}\
         re-record it, from the repository root: \
         cp target/golden/{label}.txt tests/golden/{label}.txt",
        at + 1
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
    check("a_slab_stream", &text);
}

#[test]
fn b_slab_job_batch() {
    let text = slab_text(StreamConfig { enabled: false });
    assert!(!text.contains("counter overlap_saved_s"), "{text}");
    check("b_slab_batch", &text);
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
    check("c_chaos", &out);
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

/// Three stages over eight flat splits: a 4-wide sum of the byte counts, then
/// a 4-wide sum by parity — `tests/dag_lineage.rs`'s shape.
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
    check("d_dag_clean", &out);

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
    check("d_dag_kill", &out);
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
    check("e_connector_map_only", &out);
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
    check("f_connector_reduce", &out);
}

/// A reduce attempt whose pull of one map's spill file fails mid-fan-out
/// (siblings issued before and after it) retries and the job completes.
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
    check("g_connector_spill_pull", &out);
}

// ---------------------------------------------------------------------------
// (h): faults on the shuffle itself
// ---------------------------------------------------------------------------

/// Map holders fail *after* their maps commit: node 3 is partitioned away
/// half a second after its maps commit, before the other reducer launches, and
/// heals 6 s later; node 0 sits behind 8x slow links to nodes 1 and 2. Every
/// pull is one `Sim::net_transfer`. A pull across the cut is put off: the
/// other reducer waits for node 3, and the reducer cut off with it waits for
/// the other holders. The detector declares node 3 dead before the heal,
/// which takes its two outputs and that reducer with it; lineage runs those
/// two maps again, the reducer is retried, and the pulls from node 0 take 8x
/// as long.
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
    assert!(
        r.counters.get(keys::LINEAGE_RECOMPUTES) >= 1.0,
        "{:?}",
        r.counters
    );
    let mut out = String::new();
    job_text(&mut out, &r);
    files_text(&mut out, &c, &["out"]);
    check("h_shuffle_faults", &out);
}
