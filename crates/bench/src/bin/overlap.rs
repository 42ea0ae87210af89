//! Streaming-overlap benchmark: does prefetching split pieces hide PFS
//! read time behind map compute?
//!
//! Three experiments:
//!  1. read:compute ratio sweep — the same byte-count job run with the
//!     batch fetcher vs the streaming fetcher (depth 2), with the map
//!     compute charge calibrated against the *measured* read phase so the
//!     ratios are honest. Balanced work must gain ≥ 1.3x; compute-bound
//!     work must stay ~1.0x (nothing to hide, nothing lost).
//!  2. prefetch-depth sweep at the balanced ratio — depth is a pure
//!     scheduling knob, so output stays byte-identical while elapsed moves.
//!  3. a chunked SNC slab job — pieces are CRC-verified chunks carrying
//!     their own decompress charges, streamed through the same window.
//!
//! Results go to stdout as tables and to `BENCH_overlap.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin overlap [--quick]`

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    counter_keys as keys, run_job, Cluster, FlatPfsFetcher, InputSplit, Job, JobResult, MrError,
    Payload, StreamConfig, TaskInput,
};
use pfs::PfsConfig;
use scidp::SciSlabFetcher;
use scidp_bench::{fmt_s, fmt_x, quick_mode, row};
use scifmt::snc::ChunkCache;
use scifmt::{Array, Codec, SncBuilder, SncFile};
use simnet::{ClusterSpec, CostModel};

const INPUT: &str = "data/overlap.bin";
const FILE_BYTES: u64 = 4 * 1024 * 1024;
const N_SPLITS: u64 = 4;
const PIECES_PER_SPLIT: usize = 8;

/// Paper-scale byte amplification + a small task startup so the sweep
/// measures the read/compute pipeline, not fixed scheduling overhead.
fn bench_cost() -> CostModel {
    CostModel {
        scale: 256.0,
        task_startup_s: 0.1,
        ..CostModel::default()
    }
}

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
    let c = Cluster::new(spec, pfs_cfg, 1 << 18, 1, bench_cost());
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 17) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    c
}

/// Byte-count job with an explicit per-map compute charge; every split
/// streams as `PIECES_PER_SPLIT` pieces.
fn flat_job(charge_s: f64, stream: StreamConfig) -> Job {
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
        stream,
        ..Job::new(
            "overlap",
            splits,
            Rc::new(move |input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                for &x in &b {
                    *counts.entry(x).or_default() += 1;
                }
                ctx.charge("compute", charge_s);
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

/// Committed reduce output for byte-identity checks.
fn read_output(c: &Cluster, dir: &str) -> Vec<(String, Vec<u8>)> {
    let h = c.hdfs.borrow();
    let mut files = h.namenode.list_files_recursive(dir).unwrap();
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

fn run_flat(charge_s: f64, stream: StreamConfig) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let mut c = fresh_cluster();
    let r = run_job(&mut c, flat_job(charge_s, stream)).expect("overlap bench job");
    let out = read_output(&c, "out");
    (r, out)
}

fn off() -> StreamConfig {
    StreamConfig {
        enabled: false,
        ..StreamConfig::default()
    }
}

fn depth(d: usize) -> StreamConfig {
    StreamConfig {
        enabled: true,
        prefetch_depth: d,
    }
}

// ---------------------------------------------------------------------------
// Chunked SNC slab job: pieces are CRC-verified chunks.
// ---------------------------------------------------------------------------

const SNC_PATH: &str = "run/overlap.snc";
const SNC_LEVS: usize = 16;

fn snc_cluster() -> (Cluster, Arc<scifmt::snc::VarMeta>, usize) {
    let spec = ClusterSpec {
        compute_nodes: 2,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    let c = Cluster::new(spec, pfs_cfg, 1 << 20, 1, bench_cost());
    let data: Vec<f32> = (0..SNC_LEVS * 32 * 32).map(|i| (i % 251) as f32).collect();
    let full = Array::from_f32(vec![SNC_LEVS, 32, 32], data).unwrap();
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", SNC_LEVS), ("lat", 32), ("lon", 32)],
        &[2, 32, 32],
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

/// One split per half of the variable: each streams 4 CRC-verified chunk
/// pieces carrying their decompress charges.
fn slab_job(
    var: &Arc<scifmt::snc::VarMeta>,
    off: usize,
    charge_s: f64,
    stream: StreamConfig,
) -> Job {
    let cache = Arc::new(ChunkCache::new(0));
    let splits: Vec<InputSplit> = (0..2)
        .map(|half| InputSplit {
            length: var.chunks.iter().map(|ch| ch.clen).sum::<u64>() / 2,
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: SNC_PATH.to_string(),
                var: var.clone(),
                data_offset: off,
                start: vec![half * SNC_LEVS / 2, 0, 0],
                count: vec![SNC_LEVS / 2, 32, 32],
                cache: cache.clone(),
                pushdown: None,
                cluster_admit: None,
            }),
        })
        .collect();
    Job {
        stream,
        ..Job::new(
            "slaboverlap",
            splits,
            Rc::new(move |input, ctx| {
                let TaskInput::Array(a) = input else {
                    return Err(MrError::msg("expected array"));
                };
                let mut sum = 0.0f64;
                for l in 0..a.shape()[0] {
                    sum += a.at(&[l, 0, 0]);
                }
                ctx.charge("compute", charge_s);
                ctx.emit("sum", Payload::Bytes(format!("{sum}").into_bytes()));
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

fn run_slab(charge_s: f64, stream: StreamConfig) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let (mut c, var, off) = snc_cluster();
    let r = run_job(&mut c, slab_job(&var, off, charge_s, stream)).expect("slab bench job");
    let out = read_output(&c, "slab_out");
    (r, out)
}

fn main() {
    // Calibrate: the read phase a streaming fetcher could hide is the
    // compute-free batch elapsed minus the fixed job overhead (startup,
    // shuffle, reduce, commit) measured on a near-empty read.
    let (read_only, _) = run_flat(0.0, off());
    let overhead = {
        let mut c = fresh_cluster();
        let mut j = flat_job(0.0, off());
        for s in &mut j.splits {
            s.length = 16;
        }
        let per = FILE_BYTES / N_SPLITS;
        j.splits = (0..N_SPLITS)
            .map(|i| InputSplit {
                length: 16,
                locations: Vec::new(),
                fetcher: Rc::new(FlatPfsFetcher {
                    pfs_path: INPUT.to_string(),
                    offset: i * per,
                    len: 16,
                    sequential_chunks: 1,
                }),
            })
            .collect();
        run_job(&mut c, j).expect("overhead probe").elapsed()
    };
    let read_s = (read_only.elapsed() - overhead).max(1e-3);
    println!(
        "overlap: {} splits x {} pieces, read phase {} (job overhead {})",
        N_SPLITS,
        PIECES_PER_SPLIT,
        fmt_s(read_s),
        fmt_s(overhead)
    );
    println!();

    // 1. read:compute ratio sweep, batch vs streaming depth 2.
    let ratios: &[f64] = if quick_mode() {
        &[1.0, 8.0]
    } else {
        &[0.25, 1.0, 8.0]
    };
    println!(
        "{}",
        row(&[
            "compute:read".into(),
            "batch".into(),
            "stream".into(),
            "speedup".into(),
            "saved".into(),
            "prefetched".into(),
            "output ok".into(),
        ])
    );
    let mut sweep = Vec::new();
    for &ratio in ratios {
        let charge = ratio * read_s;
        let (b, bout) = run_flat(charge, off());
        let (s, sout) = run_flat(charge, StreamConfig::default());
        assert_eq!(sout, bout, "ratio {ratio}: streaming changed the output");
        let speedup = b.elapsed() / s.elapsed();
        println!(
            "{}",
            row(&[
                format!("{ratio:.2}"),
                fmt_s(b.elapsed()),
                fmt_s(s.elapsed()),
                fmt_x(speedup),
                fmt_s(s.counters.get(keys::OVERLAP_SAVED_S)),
                format!("{:.0}", s.counters.get(keys::PIECES_PREFETCHED)),
                "yes".into(),
            ])
        );
        sweep.push((ratio, b.elapsed(), s.elapsed(), speedup, s));
    }
    // Balanced work must hide a third of its wall time; compute-bound work
    // has nothing to hide but must not regress.
    for (ratio, _, _, speedup, _) in &sweep {
        if (*ratio - 1.0).abs() < f64::EPSILON {
            assert!(
                *speedup >= 1.3,
                "balanced workload must gain >= 1.3x, got {speedup:.3}"
            );
        }
        if *ratio >= 8.0 {
            assert!(
                *speedup >= 0.95 && *speedup <= 1.2,
                "compute-bound workload must stay ~1.0x, got {speedup:.3}"
            );
        }
    }

    // 2. prefetch-depth sweep at the balanced ratio.
    let depths: &[usize] = if quick_mode() { &[1, 2] } else { &[1, 2, 4, 8] };
    let (bal_batch, bal_out) = run_flat(read_s, off());
    println!();
    println!(
        "prefetch depth at compute:read = 1.0 (batch {}):",
        fmt_s(bal_batch.elapsed())
    );
    let mut depth_rows = Vec::new();
    for &d in depths {
        let (s, sout) = run_flat(read_s, depth(d));
        assert_eq!(sout, bal_out, "depth {d}: output changed");
        println!(
            "  depth {d}: {} ({} vs batch)",
            fmt_s(s.elapsed()),
            fmt_x(bal_batch.elapsed() / s.elapsed())
        );
        depth_rows.push((d, s.elapsed()));
    }

    // 3. chunked SNC slab: pieces carry CRC verification + decompress.
    let (slab_read, _) = run_slab(0.0, off());
    let slab_charge = slab_read.elapsed() * 0.5;
    let (sb, sb_out) = run_slab(slab_charge, off());
    let (ss, ss_out) = run_slab(slab_charge, StreamConfig::default());
    assert_eq!(ss_out, sb_out, "slab streaming changed the output");
    assert!(
        ss.counters.get(keys::CHECKSUM_VERIFIED_BYTES) > 0.0,
        "streamed chunks are still CRC-verified"
    );
    let slab_speedup = sb.elapsed() / ss.elapsed();
    println!();
    println!(
        "snc slab ({} chunks/split): batch {} stream {} ({}), verified {} B",
        SNC_LEVS / 2 / 2,
        fmt_s(sb.elapsed()),
        fmt_s(ss.elapsed()),
        fmt_x(slab_speedup),
        ss.counters.get(keys::CHECKSUM_VERIFIED_BYTES),
    );

    // JSON artifact.
    let sweep_json = sweep
        .iter()
        .map(|(ratio, be, se, speedup, s)| {
            format!(
                "{{\"compute_read_ratio\":{ratio},\"batch_s\":{be:.6},\"stream_s\":{se:.6},\"speedup\":{speedup:.4},\"overlap_saved_s\":{:.6},\"pieces_prefetched\":{:.0},\"output_identical\":true}}",
                s.counters.get(keys::OVERLAP_SAVED_S),
                s.counters.get(keys::PIECES_PREFETCHED),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let depth_json = depth_rows
        .iter()
        .map(|(d, e)| format!("{{\"depth\":{d},\"elapsed_s\":{e:.6}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"read_phase_s\": {read_s:.6},\n  \"sweep\": [{sweep_json}],\n  \"depths\": [{depth_json}],\n  \"snc_slab\": {{\"batch_s\": {:.6}, \"stream_s\": {:.6}, \"speedup\": {:.4}, \"checksum_verified_bytes\": {:.0}}}\n}}\n",
        sb.elapsed(),
        ss.elapsed(),
        slab_speedup,
        ss.counters.get(keys::CHECKSUM_VERIFIED_BYTES),
    );
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!();
    println!("wrote BENCH_overlap.json");
}
