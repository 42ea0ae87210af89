//! Cluster chunk-cache tier: warm re-runs must be *byte-identical* to cold
//! runs (clean and under faults), hit/miss/eviction counters must be exact,
//! killed nodes must lose their cache entries, quarantined chunks must never
//! be admitted, and re-runs must land their maps cache-local.

use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_dag, run_job, Cluster, DagJob, Dataset, FtConfig, InputSplit, Job,
    MapFn, MrError, Payload, RecordReadFn, SplitFetcher, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::scidp::SciSlabFetcher;
use scidp_suite::scifmt::snc::{chunk_extents_of, ChunkCache};
use scidp_suite::scifmt::{Array, Codec, SncBuilder, SncFile, VarMeta};
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId};

const SNC_PATH: &str = "run/cc.snc";
/// 8 levels chunked by 2 → 4 chunks of 2*8*5 f32 = 320 raw bytes each.
const N_CHUNKS: usize = 4;
const CHUNK_RAW: u64 = 2 * 8 * 5 * 4;

fn fresh_cluster() -> (Cluster, Arc<VarMeta>, usize) {
    let spec = ClusterSpec {
        compute_nodes: 4,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 256,
        default_stripe_count: 4,
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 20, 1, CostModel::default());
    let data: Vec<f32> = (0..8 * 8 * 5).map(|i| i as f32 * 0.5).collect();
    let full = Array::from_f32(vec![8, 8, 5], data).unwrap();
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", 8), ("lat", 8), ("lon", 5)],
        &[2, 8, 5],
        Codec::ShuffleLz { elem: 4 },
        full,
    )
    .unwrap();
    let bytes = b.finish();
    let f = SncFile::open(bytes.clone()).unwrap();
    let var = Arc::new(f.meta().var("QR").unwrap().clone());
    let off = f.meta().data_offset;
    c.pfs.borrow_mut().create(SNC_PATH.to_string(), bytes);
    (c, var, off)
}

/// One split per chunk, all sharing a fresh per-job chunk cache, admitting
/// to the cluster tier.
fn slab_splits(var: &Arc<VarMeta>, off: usize, admit: bool) -> Vec<InputSplit> {
    let cache = Arc::new(ChunkCache::default());
    (0..N_CHUNKS)
        .map(|i| InputSplit {
            length: CHUNK_RAW,
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var: var.clone(),
                data_offset: off,
                start: vec![2 * i, 0, 0],
                count: vec![2, 8, 5],
                cache: cache.clone(),
                pushdown: None,
                cluster_admit: admit,
            }),
        })
        .collect()
}

fn slab_map_fn() -> MapFn {
    Rc::new(|input, ctx| {
        let TaskInput::Array(a) = input else {
            return Err(MrError::msg("expected array"));
        };
        let mut s = String::new();
        for i in 0..a.len() {
            s.push_str(&format!("{:?},", a.get_f64(i)));
        }
        // First element is unique per chunk (values are index * 0.5).
        ctx.emit(
            format!("k{:09.1}", a.get_f64(0)),
            Payload::Bytes(s.into_bytes()),
        );
        Ok(())
    })
}

fn slab_job(var: &Arc<VarMeta>, off: usize, admit: bool, out: &str) -> Job {
    let mut job = Job::new(
        "cc",
        slab_splits(var, off, admit),
        slab_map_fn(),
        Some(Rc::new(|key, values, ctx| {
            let mut data = Vec::new();
            for v in values {
                if let Payload::Bytes(b) = v {
                    data.extend_from_slice(&b);
                }
            }
            ctx.emit(key, Payload::Bytes(data));
            Ok(())
        })),
        2,
        out,
    );
    job.ft = FtConfig {
        speculative: false,
        ..FtConfig::default()
    };
    job
}

/// Strip the output-dir prefix so runs into different dirs compare equal.
fn relative(out: Vec<(String, Vec<u8>)>, dir: &str) -> Vec<(String, Vec<u8>)> {
    out.into_iter()
        .map(|(p, b)| (p.trim_start_matches(dir).to_string(), b))
        .collect()
}

/// Cold reference output: tier disabled, no faults.
fn cold_reference() -> Vec<(String, Vec<u8>)> {
    let (mut c, var, off) = fresh_cluster();
    run_job(&mut c, slab_job(&var, off, false, "cold")).unwrap();
    relative(c.read_output("cold").unwrap(), "cold")
}

#[test]
fn warm_rerun_byte_identical_with_exact_counters() {
    let reference = cold_reference();
    let total_clen: u64 = {
        let (_, var, _) = fresh_cluster();
        var.chunks.iter().map(|ch| ch.clen).sum()
    };
    for seed in 1..=3u64 {
        let (mut c, var, off) = fresh_cluster();
        c.sim.faults.install(FaultPlan::none().with_seed(seed));
        c.enable_cluster_cache(1 << 20);
        let cold = run_job(&mut c, slab_job(&var, off, true, "o1")).unwrap();
        assert_eq!(cold.counters.get(keys::CLUSTER_CACHE_HITS), 0.0);
        assert_eq!(
            cold.counters.get(keys::CLUSTER_CACHE_MISSES),
            N_CHUNKS as f64,
            "seed {seed}: every chunk misses the empty tier exactly once"
        );
        assert_eq!(cold.counters.get(keys::CACHE_LOCALITY_MAPS), 0.0);
        assert_eq!(cold.counters.get(keys::CLUSTER_CACHE_EVICTIONS), 0.0);
        let cold_elapsed = cold.elapsed();

        let warm = run_job(&mut c, slab_job(&var, off, true, "o2")).unwrap();
        assert_eq!(
            warm.counters.get(keys::CLUSTER_CACHE_HITS),
            N_CHUNKS as f64,
            "seed {seed}: every chunk is served node-local on the re-run"
        );
        assert_eq!(warm.counters.get(keys::CLUSTER_CACHE_MISSES), 0.0);
        assert_eq!(
            warm.counters.get(keys::CACHE_LOCALITY_MAPS),
            N_CHUNKS as f64,
            "seed {seed}: the scheduler placed every map on its chunk's holder"
        );
        assert_eq!(warm.counters.get(keys::CLUSTER_CACHE_EVICTIONS), 0.0);
        assert_eq!(
            warm.counters.get(keys::PFS_BYTES_AVOIDED),
            total_clen as f64,
            "seed {seed}: the warm run avoided exactly the compressed bytes"
        );
        assert!(
            warm.elapsed() < cold_elapsed,
            "seed {seed}: warm {} !< cold {cold_elapsed}",
            warm.elapsed()
        );
        assert_eq!(
            relative(c.read_output("o1").unwrap(), "o1"),
            reference,
            "seed {seed} cold"
        );
        assert_eq!(
            relative(c.read_output("o2").unwrap(), "o2"),
            reference,
            "seed {seed} warm"
        );
    }
}

#[test]
fn killed_node_loses_its_cache_entries() {
    let reference = cold_reference();
    for seed in 1..=3u64 {
        let (mut c, var, off) = fresh_cluster();
        c.enable_cluster_cache(1 << 20);
        run_job(&mut c, slab_job(&var, off, true, "warmup")).unwrap();
        let resident_before: u64 = (0..4)
            .map(|n| c.cluster_cache.resident_bytes(NodeId(n)))
            .sum();
        assert_eq!(resident_before, N_CHUNKS as u64 * CHUNK_RAW);
        // Kill node 1 just after the re-run starts: its entry must be
        // invalidated, the orphaned chunk re-read from the PFS, and the
        // committed bytes must still match the cold reference.
        let kill_at = c.sim.now().secs() + 1e-9;
        c.sim
            .faults
            .install(FaultPlan::none().with_seed(seed).kill_node(1, kill_at));
        let warm = run_job(&mut c, slab_job(&var, off, true, &format!("k{seed}"))).unwrap();
        assert_eq!(
            c.cluster_cache.resident_bytes(NodeId(1)),
            0,
            "seed {seed}: the killed node's cache died with it"
        );
        assert!(c.cluster_cache.stats().invalidated >= 1);
        assert_eq!(
            warm.counters.get(keys::CLUSTER_CACHE_HITS),
            (N_CHUNKS - 1) as f64,
            "seed {seed}: the three surviving holders serve their chunks"
        );
        assert_eq!(
            warm.counters.get(keys::CLUSTER_CACHE_MISSES),
            1.0,
            "seed {seed}: exactly the invalidated chunk re-reads"
        );
        let out = relative(
            c.read_output(&format!("k{seed}")).unwrap(),
            &format!("k{seed}"),
        );
        assert_eq!(
            out, reference,
            "seed {seed}: kill variant diverged from cold"
        );
    }
}

#[test]
fn evictions_are_counted_exactly() {
    // One node whose cache holds exactly one 320-byte chunk: a cold run
    // over 4 chunks must evict 3 times, leaving 1 resident entry.
    let spec = ClusterSpec {
        compute_nodes: 1,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 256,
        default_stripe_count: 4,
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 20, 1, CostModel::default());
    let (src, var, off) = fresh_cluster();
    let bytes = src
        .pfs
        .borrow()
        .file(SNC_PATH)
        .unwrap()
        .data
        .as_ref()
        .clone();
    c.pfs.borrow_mut().create(SNC_PATH.to_string(), bytes);
    c.enable_cluster_cache(CHUNK_RAW + 16);
    c.cluster_cache.set_admit_max_fraction(1.0);
    let mut c = c;
    let cold = run_job(&mut c, slab_job(&var, off, true, "ev")).unwrap();
    assert_eq!(
        cold.counters.get(keys::CLUSTER_CACHE_EVICTIONS),
        (N_CHUNKS - 1) as f64,
        "4 admissions into a 1-entry cache evict exactly 3 times"
    );
    assert_eq!(c.cluster_cache.resident_entries(), 1);
    assert_eq!(c.cluster_cache.stats().evictions, (N_CHUNKS - 1) as u64);
}

#[test]
fn quarantined_chunk_is_never_admitted() {
    let (mut c, var, off) = fresh_cluster();
    c.enable_cluster_cache(1 << 20);
    c.sim
        .faults
        .install(FaultPlan::none().corrupt_read_persistent(SNC_PATH, 1));
    let cache = Arc::new(ChunkCache::default());
    let fetcher = SciSlabFetcher {
        pfs_path: SNC_PATH.to_string(),
        var: var.clone(),
        data_offset: off,
        start: vec![2, 0, 0],
        count: vec![2, 8, 5],
        cache,
        pushdown: None,
        cluster_admit: true,
    };
    let got = Rc::new(std::cell::RefCell::new(None));
    let g = got.clone();
    let env = c.env();
    fetcher.fetch(
        &env,
        &mut c.sim,
        NodeId(0),
        Box::new(move |_, fr| {
            *g.borrow_mut() = Some(fr);
        }),
    );
    c.run();
    let err = match got.borrow_mut().take().unwrap() {
        Ok(_) => panic!("persistently corrupted chunk must fail the fetch"),
        Err(e) => e,
    };
    assert!(err.message().contains("IntegrityError"), "{err}");
    // The chunk is quarantined in the cluster tier and can never enter it.
    let key = {
        let ext = &chunk_extents_of(&var, off)[1];
        (ChunkCache::file_key(SNC_PATH), ext.offset)
    };
    assert!(c.cluster_cache.is_quarantined(key));
    let rejected_before = c.cluster_cache.stats().rejected;
    assert!(
        !c.cluster_cache
            .insert(NodeId(0), key, Arc::new(vec![0u8; 8])),
        "admission of a quarantined chunk must be refused"
    );
    assert_eq!(c.cluster_cache.stats().rejected, rejected_before + 1);
    for n in 0..4 {
        assert!(!c.cluster_cache.holds(NodeId(n), key));
    }
    // Nothing of the poisoned fetch leaked into the tier either.
    assert_eq!(c.cluster_cache.stats().inserts, 0);
}

#[test]
fn dag_rerun_serves_source_stage_from_cache() {
    // Residency carries across whole DAG runs: the second pipeline's source
    // maps all land cache-local and read zero PFS chunk bytes.
    let (mut c, var, off) = fresh_cluster();
    c.enable_cluster_cache(1 << 20);
    let read: RecordReadFn = Rc::new(|input, _ctx| {
        let TaskInput::Array(a) = input else {
            return Err(MrError::msg("expected array"));
        };
        let mut s = String::new();
        for i in 0..a.len() {
            s.push_str(&format!("{:?},", a.get_f64(i)));
        }
        Ok(vec![(
            format!("k{:09.1}", a.get_f64(0)),
            Payload::Bytes(s.into_bytes()),
        )])
    });
    let agg: scidp_suite::mapreduce::AggFn = Rc::new(|_key, values, _ctx| {
        let mut data = Vec::new();
        for v in values {
            if let Payload::Bytes(b) = v {
                data.extend_from_slice(&b);
            }
        }
        Ok(Payload::Bytes(data))
    });
    let run = |out: &str, c: &mut Cluster| {
        let plan = Dataset::from_splits(slab_splits(&var, off, true), read.clone())
            .reduce_by_key(2, agg.clone());
        let r = run_dag(c, DagJob::new("cc-dag", plan, out.to_string())).unwrap();
        (r, relative(c.read_output(out).unwrap(), out))
    };
    let (r1, out1) = run("d1", &mut c);
    assert_eq!(r1.counters.get(keys::CLUSTER_CACHE_MISSES), N_CHUNKS as f64);
    let (r2, out2) = run("d2", &mut c);
    assert_eq!(out1, out2, "warm DAG output diverged");
    assert_eq!(
        r2.counters.get(keys::CLUSTER_CACHE_HITS),
        N_CHUNKS as f64,
        "every source chunk of the second DAG run is cache-served"
    );
    assert_eq!(r2.counters.get(keys::CLUSTER_CACHE_MISSES), 0.0);
    assert_eq!(
        r2.counters.get(keys::CACHE_LOCALITY_MAPS),
        N_CHUNKS as f64,
        "stage-affinity: the re-run's source maps all land cache-local"
    );
}
