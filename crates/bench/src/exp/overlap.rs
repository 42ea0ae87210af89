//! Streaming-overlap benchmark: does prefetching split pieces hide PFS
//! read time behind map compute?
//!
//! Two experiments:
//!  1. read:compute ratio sweep — the same byte-count job run with the
//!     batch fetcher vs the streaming fetcher (a window of two pieces), with
//!     the map compute charge calibrated against the *measured* read phase
//!     so the ratios are honest. Balanced work must gain ≥ 1.3x;
//!     compute-bound work must stay ~1.0x (nothing to hide, nothing lost).
//!  2. a chunked SNC slab job — pieces are CRC-verified chunks carrying
//!     their own decompress charges, streamed through the same window.

use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    counter_keys as keys, run_job, FlatPfsFetcher, InputSplit, Job, JobResult, MrError, Payload,
    StreamConfig, TaskInput,
};
use scidp::SciSlabFetcher;
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Gt, Le};
use scidp_bench::{Report, Scale};
use scifmt::snc::ChunkCache;

use super::{
    byte_count_job, flat_splits, output, pipeline_cost, small_cluster, snc_container, stage_snc,
};

const INPUT: &str = "data/overlap.bin";
const FILE_BYTES: u64 = 4 * 1024 * 1024;
const N_SPLITS: u64 = 4;
const PIECES_PER_SPLIT: usize = 8;

type Output = Vec<(String, Vec<u8>)>;

/// Run the byte-count job over `splits` with a `charge_s` per-map compute
/// charge under `stream`.
fn run_flat_on(
    splits: Vec<InputSplit>,
    charge_s: f64,
    stream: StreamConfig,
) -> (JobResult, Output) {
    let mut c = small_cluster(4, 1 << 18, 1, pipeline_cost(256.0));
    let bytes: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 17) as u8).collect();
    c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
    let job = Job {
        stream,
        ..byte_count_job("overlap", splits, charge_s)
    };
    let r = run_job(&mut c, job).expect("overlap bench job");
    let out = output(&c, "out");
    (r, out)
}

/// Every split streams as `PIECES_PER_SPLIT` pieces.
fn run_flat(charge_s: f64, stream: StreamConfig) -> (JobResult, Output) {
    let splits = flat_splits(INPUT, FILE_BYTES, N_SPLITS, PIECES_PER_SPLIT);
    run_flat_on(splits, charge_s, stream)
}

fn off() -> StreamConfig {
    StreamConfig { enabled: false }
}

const SNC_PATH: &str = "run/overlap.snc";
const SNC_LEVS: usize = 16;

/// Chunked SNC slab job on 2 nodes: one split per half of the variable,
/// each streaming 4 CRC-verified chunk pieces carrying their decompress
/// charges.
fn run_slab(charge_s: f64, stream: StreamConfig) -> (JobResult, Output) {
    let mut c = small_cluster(2, 1 << 20, 1, pipeline_cost(256.0));
    let data: Vec<f32> = (0..SNC_LEVS * 32 * 32).map(|i| (i % 251) as f32).collect();
    let container = snc_container("QR", [SNC_LEVS, 32, 32], 2, true, data);
    let (var, off) = stage_snc(&c, SNC_PATH, "QR", container);
    let cache = Arc::new(ChunkCache::new(0));
    let half = |half: usize| InputSplit {
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
            cluster_admit: false,
        }),
    };
    let sum_map = Rc::new(move |input, ctx: &mut mapreduce::TaskCtx| {
        let TaskInput::Array(a) = input else {
            return Err(MrError::msg("expected array"));
        };
        let sum: f64 = (0..a.shape()[0]).map(|l| a.at(&[l, 0, 0])).sum();
        ctx.charge("compute", charge_s);
        ctx.emit("sum", Payload::Bytes(format!("{sum}").into_bytes()));
        Ok(())
    });
    let pass = Rc::new(
        |key: &str, values: Vec<Payload>, ctx: &mut mapreduce::TaskCtx| {
            values.into_iter().for_each(|v| ctx.emit(key, v));
            Ok(())
        },
    );
    let splits = (0..2).map(half).collect();
    let job = Job {
        stream,
        ..Job::new("slaboverlap", splits, sum_map, Some(pass), 1, "slab_out")
    };
    let r = run_job(&mut c, job).expect("slab bench job");
    let out = output(&c, "slab_out");
    (r, out)
}

pub fn run(scale: &Scale) -> Report {
    // Calibrate: the read phase a streaming fetcher could hide is the
    // compute-free batch elapsed minus the fixed job overhead (startup,
    // shuffle, reduce, commit) measured on a near-empty read.
    let (read_only, _) = run_flat(0.0, off());
    let per = FILE_BYTES / N_SPLITS;
    let tiny = |i: u64| InputSplit {
        length: 16,
        locations: Vec::new(),
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: INPUT.to_string(),
            offset: i * per,
            len: 16,
            sequential_chunks: 1,
        }),
    };
    let overhead = run_flat_on((0..N_SPLITS).map(tiny).collect(), 0.0, off())
        .0
        .elapsed();
    let read_s = (read_only.elapsed() - overhead).max(1e-3);
    let mut rep = Report::new("overlap");
    rep.note(format!(
        "overlap: {N_SPLITS} splits x {PIECES_PER_SPLIT} pieces"
    ));
    rep.row("read_phase_s", read_s, "s", Sim);
    rep.row("job_overhead_s", overhead, "s", Sim);

    // 1. read:compute ratio sweep, batch vs streaming.
    let ratios: &[f64] = scale.pick(&[1.0, 8.0], &[0.25, 1.0, 8.0]);
    let mut lines = Vec::new();
    for &ratio in ratios {
        let charge = ratio * read_s;
        let (b, bout) = run_flat(charge, off());
        let (s, sout) = run_flat(charge, StreamConfig::default());
        rep.identical(&format!("compute_read_{ratio}"), &sout, &bout);
        let (saved, prefetched) = (keys::OVERLAP_SAVED_S, keys::PIECES_PREFETCHED);
        let (be, se) = (b.elapsed(), s.elapsed());
        let cells = vec![
            be,
            se,
            be / se,
            s.counters.get(saved),
            s.counters.get(prefetched),
        ];
        lines.push((format!("compute:read {ratio}"), cells));
    }
    let cols = [
        ("batch_s", "batch", "s", Sim),
        ("stream_s", "stream", "s", Sim),
        ("speedup", "speedup", "x", Sim),
        ("overlap_saved_s", "saved", "s", Sim),
        ("pieces_prefetched", "prefetched", "", Count),
    ];
    rep.table("", "workload", &cols, &lines);

    // 2. chunked SNC slab: pieces carry CRC verification + decompress.
    let (slab_read, _) = run_slab(0.0, off());
    let slab_charge = slab_read.elapsed() * 0.5;
    let (sb, sb_out) = run_slab(slab_charge, off());
    let (ss, ss_out) = run_slab(slab_charge, StreamConfig::default());
    rep.note(format!("snc slab ({} chunks/split):", SNC_LEVS / 2 / 2));
    rep.identical("snc_slab", &ss_out, &sb_out);
    rep.row("snc_slab.batch_s", sb.elapsed(), "s", Sim);
    rep.row("snc_slab.stream_s", ss.elapsed(), "s", Sim);
    rep.row("snc_slab.speedup", sb.elapsed() / ss.elapsed(), "x", Sim);
    let verified = ss.counters.get(keys::CHECKSUM_VERIFIED_BYTES);
    rep.row("snc_slab.checksum_verified_bytes", verified, "B", Count);

    // Balanced work must hide a third of its wall time; compute-bound work
    // has nothing to hide but must not regress.
    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("compute_read_1.speedup", Ge, 1.3, "balanced workload must gain >= 1.3x"),
        ("compute_read_8.speedup", Ge, 0.95, "compute-bound workload must stay ~1.0x"),
        ("compute_read_8.speedup", Le, 1.2, "compute-bound workload must stay ~1.0x"),
        ("snc_slab.checksum_verified_bytes", Gt, 0.0, "streamed chunks are still CRC-verified"),
    ]);
    rep
}
