//! Cluster chunk-cache tier benchmark: cold vs warm map stage over an SNC
//! variable.
//!
//! One cluster, tier enabled, three back-to-back map-only jobs over the
//! same hyperslabs. The first (cold) run fills the per-node caches from the
//! PFS; the re-runs are served node-local by the tier and the scheduler's
//! cache-locality pass. Asserted, not just reported: the warm stage is at
//! least 2x faster, every warm map is a cluster hit placed cache-local, the
//! PFS bytes avoided equal the variable's stored bytes, and all outputs —
//! including a tier-disabled reference — are byte-identical. The tier must
//! not change bytes under any fault seed.

use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    counter_keys as keys, run_job, Cluster, FtConfig, InputSplit, Job, MrError, Payload, TaskInput,
};
use scidp::SciSlabFetcher;
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Eq, Ge};
use scidp_bench::{Report, Scale};
use scifmt::snc::ChunkCache;
use scifmt::VarMeta;
use simnet::FaultPlan;

use super::{output, pipeline_cost, small_cluster, snc_container, stage_snc};

const SNC_PATH: &str = "run/cachebench.snc";
const CHUNK_RAW: u64 = 4 * 32 * 16 * 4;

/// A 4-node world holding the benchmark variable: `levels` × 32 × 16,
/// chunked 4 levels at a time.
fn fresh_cluster(levels: usize, seed: u64) -> (Cluster, Arc<VarMeta>, usize) {
    let mut c = small_cluster(4, 1 << 20, 1, pipeline_cost(4096.0));
    c.sim.faults.install(FaultPlan::none().with_seed(seed));
    // Pseudo-random mantissas: near-incompressible, so the cold path pays
    // for (almost) every stored byte off the PFS.
    let mantissa = |i: usize| {
        let h = (i as u32).wrapping_mul(2654435761).rotate_left(13) ^ 0x9e3779b9;
        h as f32 / u32::MAX as f32
    };
    let data: Vec<f32> = (0..levels * 32 * 16).map(mantissa).collect();
    let container = snc_container("QR", [levels, 32, 16], 4, true, data);
    let (var, off) = stage_snc(&c, SNC_PATH, "QR", container);
    (c, var, off)
}

/// Map-only job: one map per chunk, emitting a digest of every value, so
/// the committed bytes prove the cache path decodes identically.
fn slab_job(var: &Arc<VarMeta>, off: usize, admit: bool, out: &str) -> Job {
    let cache = Arc::new(ChunkCache::default());
    let split = |i: usize| InputSplit {
        length: CHUNK_RAW,
        locations: Vec::new(),
        fetcher: Rc::new(SciSlabFetcher {
            pfs_path: SNC_PATH.to_string(),
            var: var.clone(),
            data_offset: off,
            start: vec![4 * i, 0, 0],
            count: vec![4, 32, 16],
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: admit,
        }),
    };
    let digest_map = Rc::new(|input, ctx: &mut mapreduce::TaskCtx| {
        let TaskInput::Array(a) = input else {
            return Err(MrError::msg("expected array"));
        };
        let mut sum = 0.0f64;
        let mut digest = 0u64;
        for i in 0..a.len() {
            let v = a.get_f64(i);
            sum += v;
            digest = digest.wrapping_mul(1099511628211).wrapping_add(v.to_bits());
        }
        let value = Payload::Bytes(format!("{sum:.6},{digest}").into_bytes());
        ctx.emit(format!("chunk{:016x}", digest), value);
        Ok(())
    });
    let splits = (0..var.chunks.len()).map(split).collect();
    let mut job = Job::new("cachebench", splits, digest_map, None, 0, out);
    job.ft = FtConfig {
        speculative: false,
        ..FtConfig::default()
    };
    job
}

/// Committed files with the output-dir prefix stripped, so runs into
/// different dirs compare equal.
fn relative_output(c: &Cluster, dir: &str) -> Vec<(String, Vec<u8>)> {
    let strip = |(p, b): (String, Vec<u8>)| (p.trim_start_matches(dir).to_string(), b);
    output(c, dir).into_iter().map(strip).collect()
}

pub fn run(scale: &Scale) -> Report {
    let levels = scale.pick(32, 64);
    let chunks = (levels / 4) as f64;
    let mut rep = Report::new("cache");
    let seed = scale.fault_seed;
    rep.note(format!(
        "cache: {chunks} chunks x {CHUNK_RAW} raw bytes, 4 nodes x 2 slots, seed {seed}"
    ));

    // Reference: tier disabled entirely.
    let (mut ref_c, var, off) = fresh_cluster(levels, seed);
    let r = run_job(&mut ref_c, slab_job(&var, off, false, "ref")).expect("reference run");
    let ref_hits = r.counters.get(keys::CLUSTER_CACHE_HITS);
    rep.row("reference.cluster_cache_hits", ref_hits, "", Count);
    let reference = relative_output(&ref_c, "ref");

    // Tier enabled: cold fill, then two warm re-runs on the same cluster.
    let (mut c, var, off) = fresh_cluster(levels, seed);
    c.enable_cluster_cache(1 << 20);
    let stored = var.chunks.iter().map(|ch| ch.clen).sum::<u64>() as f64;
    let mut lines = Vec::new();
    for run in ["cold", "warm1", "warm2"] {
        let r = run_job(&mut c, slab_job(&var, off, true, run)).expect("tiered run");
        let get = |key| r.counters.get(key);
        let (hits, misses) = (
            get(keys::CLUSTER_CACHE_HITS),
            get(keys::CLUSTER_CACHE_MISSES),
        );
        let (local, avoided) = (get(keys::CACHE_LOCALITY_MAPS), get(keys::PFS_BYTES_AVOIDED));
        let rate = hits / (hits + misses).max(1.0);
        lines.push((
            run.to_string(),
            vec![r.elapsed(), hits, misses, rate, local, avoided],
        ));
        rep.identical(run, &relative_output(&c, run), &reference);
    }
    let cols = [
        ("elapsed_s", "elapsed", "s", Sim),
        ("cluster_cache_hits", "hits", "", Count),
        ("cluster_cache_misses", "misses", "", Count),
        ("hit_rate", "hit rate", "", Count),
        ("cache_locality_maps", "cache-local maps", "", Count),
        ("pfs_bytes_avoided", "pfs bytes avoided", "B", Count),
    ];
    rep.table("", "run", &cols, &lines);
    rep.row("config.chunks", chunks, "", Count);
    rep.row("config.chunk_raw_bytes", CHUNK_RAW as f64, "B", Count);
    rep.row("config.stored_bytes", stored, "B", Count);
    let per_node = c.cluster_cache.per_node_capacity() as f64;
    rep.row("config.per_node_cache_bytes", per_node, "B", Count);
    let speedup = rep.v("cold.elapsed_s") / rep.v("warm1.elapsed_s");
    rep.row("warm_speedup", speedup, "x", Sim);

    // The tentpole claim, asserted: the warm stage is at least 2x faster
    // and entirely cache-served.
    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("reference.cluster_cache_hits", Eq, 0.0, "tier disabled: no cluster hits"),
        ("warm_speedup", Ge, 2.0, "warm stage >= 2x faster than cold"),
        ("cold.cluster_cache_misses", Eq, chunks, "cold run misses every chunk once"),
        ("cold.cluster_cache_hits", Eq, 0.0, "cold run has nothing to hit"),
    ]);
    for warm in ["warm1", "warm2"] {
        let at = |col: &str| format!("{warm}.{col}");
        rep.expect(
            &at("cluster_cache_hits"),
            Eq,
            chunks,
            "every chunk cache-served",
        );
        rep.expect(&at("cluster_cache_misses"), Eq, 0.0, "no warm misses");
        rep.expect(
            &at("cache_locality_maps"),
            Eq,
            chunks,
            "every map placed on its chunk's holder",
        );
        rep.expect(
            &at("pfs_bytes_avoided"),
            Eq,
            stored,
            "avoided exactly the stored bytes",
        );
    }
    rep
}
