//! Streaming split fetch: the prefetching piece pipeline must change only
//! *when* bytes move, never *which* bytes a task sees. These tests pin the
//! byte-identity of streaming vs batch fetch (with and without injected
//! faults), the overlap accounting, and the PR-3 integrity machinery
//! (CRC verify → repair → quarantine) firing mid-stream.
//!
//! Batch is "open the stream, collect it", so it is no independent
//! reference for streaming: the clean outputs are also pinned against
//! oracles that never enter a fetcher (the staged bytes themselves, and
//! `SncFile::get_vara`).

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::mapreduce::{
    counter_keys as keys, run_job, Cluster, Counters, FlatPfsFetcher, FtConfig, InputSplit, Job,
    JobResult, MrError, Payload, StreamConfig, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::scidp::SciSlabFetcher;
use scidp_suite::scifmt::snc::ChunkCache;
use scidp_suite::scifmt::{Array, Codec, SncBuilder, SncFile};
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

const INPUT: &str = "data/stream.bin";
const FILE_BYTES: u64 = 64 * 1024;
const N_SPLITS: u64 = 4;
const PIECES_PER_SPLIT: usize = 8;

fn flat_cluster() -> Cluster {
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
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 13) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

/// Byte-count job over the flat file; `sequential_chunks` > 1 makes every
/// split a genuine multi-piece stream.
fn flat_job(stream: StreamConfig) -> Job {
    let per = FILE_BYTES / N_SPLITS;
    let splits: Vec<InputSplit> = (0..N_SPLITS)
        .map(|i| InputSplit {
            length: per,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: INPUT.to_string(),
                offset: i * per,
                len: per,
                sequential_chunks: PIECES_PER_SPLIT,
            }),
        })
        .collect();
    Job {
        ft: FtConfig {
            max_task_attempts: 6,
            ..FtConfig::default()
        },
        stream,
        ..Job::new(
            "streamwc",
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                // A fat compute phase so there is read time worth hiding.
                ctx.charge("compute", 2.0);
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

/// Data-plane counters that must be exact in both fetch modes. Cache and
/// timing counters legitimately differ and are excluded.
fn data_counters(cnt: &Counters) -> Vec<(&'static str, f64)> {
    [
        keys::MAP_TASKS,
        keys::REDUCE_TASKS,
        keys::INPUT_BYTES,
        keys::RECORDS_EMITTED,
        keys::SHUFFLE_BYTES,
        keys::HDFS_WRITE_BYTES,
    ]
    .iter()
    .map(|&k| (k, cnt.get(k)))
    .collect()
}

fn run_flat(plan: FaultPlan, stream: StreamConfig) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let mut c = flat_cluster();
    c.sim.faults.install(plan);
    let r = run_job(&mut c, flat_job(stream)).expect("job survives its fault plan");
    let out = c.read_output("out").unwrap();
    (r, out)
}

fn batch() -> StreamConfig {
    StreamConfig { enabled: false }
}

/// The `key\tvalue` lines of the committed part files.
fn output_lines(out: &[(String, Vec<u8>)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (path, data) in out {
        if path.contains("part-r-") {
            lines.extend(String::from_utf8_lossy(data).lines().map(str::to_string));
        }
    }
    lines.sort();
    lines
}

#[test]
fn streaming_matches_batch_and_overlaps_reads() {
    let (br, bout) = run_flat(FaultPlan::none(), batch());
    let (sr, sout) = run_flat(FaultPlan::none(), StreamConfig::default());
    assert_eq!(sout, bout, "streaming must commit byte-identical output");
    // Oracle: byte counts of the staged file, no fetcher involved.
    let mut counts: BTreeMap<u8, u64> = BTreeMap::new();
    for i in 0..FILE_BYTES {
        *counts.entry((i % 13) as u8).or_default() += 1;
    }
    let mut want: Vec<String> = counts.iter().map(|(k, n)| format!("b{k}\t{n}")).collect();
    want.sort();
    assert_eq!(output_lines(&bout), want);
    assert_eq!(data_counters(&sr.counters), data_counters(&br.counters));
    // The pipeline may only hide read time, never add it.
    assert!(
        sr.elapsed() <= br.elapsed() + 1e-9,
        "streaming {} must not be slower than batch {}",
        sr.elapsed(),
        br.elapsed()
    );
    // With 8 pieces per split and a 2 s compute tail, later pieces land
    // while earlier ones are being processed.
    assert!(
        sr.counters.get(keys::OVERLAP_SAVED_S) > 0.0,
        "multi-piece splits must record hidden read time"
    );
    assert!(
        sr.counters.get(keys::PIECES_PREFETCHED) > 0.0,
        "prefetch window must land pieces ahead of compute"
    );
    // Batch mode reports neither counter.
    assert_eq!(br.counters.get(keys::OVERLAP_SAVED_S), 0.0);
    assert_eq!(br.counters.get(keys::PIECES_PREFETCHED), 0.0);
}

#[test]
fn equivalence_holds_under_injected_faults_for_seeds_1_to_3() {
    // Read failures force retried attempts that must re-stream their
    // pieces deterministically. Attempt/retry counts may differ between
    // fetch modes (the fault stream is consumed in issue order, and issue
    // *times* differ), but committed bytes and data counters may not.
    for seed in 1..=3u64 {
        let plan = || {
            FaultPlan::none()
                .with_random_read_failures(seed, 0.08)
                .fail_read(INPUT, 2)
        };
        let (br, bout) = run_flat(plan(), batch());
        let (sr, sout) = run_flat(plan(), StreamConfig::default());
        assert_eq!(sout, bout, "seed {seed}: faulted streams diverged");
        assert_eq!(
            data_counters(&sr.counters),
            data_counters(&br.counters),
            "seed {seed}"
        );
        // And streaming under faults is itself bit-reproducible.
        let (sr2, sout2) = run_flat(plan(), StreamConfig::default());
        assert_eq!(sr.elapsed(), sr2.elapsed(), "seed {seed}: timing drifted");
        assert_eq!(sout, sout2, "seed {seed}: output drifted");
    }
}

// ---------------------------------------------------------------------------
// Piece-level integrity: a multi-chunk SNC slab streams one piece per
// chunk, each behind the CRC verify → re-read repair → quarantine machine.
// ---------------------------------------------------------------------------

mod integrity {
    use super::*;
    use scidp_suite::scifmt::snc::VarMeta;

    const SNC_PATH: &str = "run/stream.snc";

    fn snc_cluster() -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: 2,
            storage_nodes: 1,
            osts: 4,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 4,
            stripe_size: 256,
            default_stripe_count: 4,
        };
        Cluster::new(spec, pfs_cfg, 1 << 20, 1, CostModel::default())
    }

    /// Stage a 3-chunk variable (6 levels, chunked 2 levels at a time).
    fn stage_var(c: &mut Cluster) -> (Arc<VarMeta>, usize) {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
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
        (var, off)
    }

    /// A job whose single split is the whole 3-chunk slab: three stream
    /// pieces, one CRC-verified chunk each.
    fn slab_job(c: &mut Cluster, stream: StreamConfig) -> Job {
        let (var, off) = stage_var(c);
        let split = InputSplit {
            length: var.chunks.iter().map(|ch| ch.clen).sum(),
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var,
                data_offset: off,
                start: vec![0, 0, 0],
                count: vec![6, 8, 5],
                cache: Arc::new(ChunkCache::default()),
                pushdown: None,
                cluster_admit: false,
            }),
        };
        Job {
            stream,
            ..Job::new(
                "slabsum",
                vec![split],
                Rc::new(|input, ctx| {
                    let TaskInput::Array(a) = input else {
                        return Err(MrError::msg("expected array"));
                    };
                    // Per-level sums pin every decoded element.
                    let (levs, lats, lons) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                    for l in 0..levs {
                        let mut sum = 0.0f64;
                        for i in 0..lats {
                            for j in 0..lons {
                                sum += a.at(&[l, i, j]);
                            }
                        }
                        ctx.emit(
                            format!("lev{l}"),
                            Payload::Bytes(format!("{sum}").into_bytes()),
                        );
                    }
                    Ok(())
                }),
                Some(Rc::new(|key, values, ctx| {
                    for v in values {
                        ctx.emit(key, v);
                    }
                    Ok(())
                })),
                1,
                "slab_out",
            )
        }
    }

    #[test]
    fn transient_corruption_is_repaired_mid_stream() {
        // Clean batch run fixes the expected bytes.
        let mut clean = snc_cluster();
        let job = slab_job(&mut clean, batch());
        run_job(&mut clean, job).unwrap();
        let want = clean.read_output("slab_out").unwrap();
        assert!(!want.is_empty());

        // Streamed run with the second chunk read corrupted once: the CRC
        // catches it inside that piece, the re-read repairs it, and the
        // job commits identical bytes.
        let mut c = snc_cluster();
        c.sim
            .faults
            .install(FaultPlan::none().corrupt_read(SNC_PATH, 2));
        let job = slab_job(&mut c, StreamConfig::default());
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(c.read_output("slab_out").unwrap(), want);
        assert_eq!(r.counters.get(keys::CORRUPTION_DETECTED), 1.0);
        assert_eq!(r.counters.get(keys::CORRUPTION_REPAIRED), 1.0);
        assert_eq!(r.counters.get(keys::CHUNKS_QUARANTINED), 0.0);
        assert_eq!(r.counters.get(keys::CHUNK_CACHE_MISSES), 3.0);
    }

    #[test]
    fn persistent_corruption_quarantines_mid_stream_and_fails_typed() {
        // Media-level damage survives the re-read: the piece must fail
        // with the typed IntegrityError, never hand wrong bytes to map.
        let mut c = snc_cluster();
        c.sim
            .faults
            .install(FaultPlan::none().corrupt_read_persistent(SNC_PATH, 1));
        let job = slab_job(&mut c, StreamConfig::default());
        let err = run_job(&mut c, job).unwrap_err();
        assert!(
            err.message().contains("IntegrityError"),
            "typed integrity failure expected, got: {}",
            err.message()
        );
        assert!(err.message().contains("quarantined"), "{}", err.message());
    }

    #[test]
    fn streaming_slab_matches_batch_slab_bit_for_bit() {
        let run = |stream: StreamConfig| {
            let mut c = snc_cluster();
            let job = slab_job(&mut c, stream);
            let r = run_job(&mut c, job).unwrap();
            (
                c.read_output("slab_out").unwrap(),
                data_counters(&r.counters),
            )
        };
        let (bout, bcnt) = run(batch());
        let (sout, scnt) = run(StreamConfig::default());
        assert_eq!(sout, bout, "decoded slab bytes must not depend on mode");
        assert_eq!(scnt, bcnt);
        // Oracle: scifmt's in-memory read of the same container.
        let mut c = snc_cluster();
        stage_var(&mut c);
        let bytes = c.pfs.borrow().file(SNC_PATH).unwrap().data.clone();
        let a = SncFile::open(bytes)
            .unwrap()
            .get_vara("QR", &[0, 0, 0], &[6, 8, 5])
            .unwrap();
        let want: Vec<String> = (0..6)
            .map(|l| {
                let sum: f64 = (0..8 * 5).map(|k| a.at(&[l, k / 5, k % 5])).sum();
                format!("lev{l}\t{sum}")
            })
            .collect();
        assert_eq!(output_lines(&bout), want);
    }
}
