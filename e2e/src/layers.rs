//! Per-layer attribution: turns one pass's outcome, the traced pass's
//! spans and the kernel replay into the named per-layer metrics and the
//! two printed tables (simulated clock, host clock).

use mapreduce::counter_keys as keys;
use mapreduce::{Counters, TaskKind};

use crate::report::{LayerTable, Values};
use crate::trace::Recorder;
use crate::workloads::{Kind, PassOutcome};

const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Exact counts and useful/attempted ratios, straight from `counters::keys`.
pub fn count_metrics(c: &Counters, m: &mut Values) {
    let g = |k: &str| c.get(k);
    let (hits, misses) = (g(keys::CHUNK_CACHE_HITS), g(keys::CHUNK_CACHE_MISSES));
    let (chits, cmisses) = (g(keys::CLUSTER_CACHE_HITS), g(keys::CLUSTER_CACHE_MISSES));
    let skipped = g(keys::CHUNKS_SKIPPED_ZONEMAP);
    m.set(
        "pfs.verified_read_mib",
        g(keys::CHECKSUM_VERIFIED_BYTES) / MIB,
    );
    m.set("scidp.input_mib", g(keys::INPUT_BYTES) / MIB);
    m.set(
        "scidp.pfs_mib_avoided",
        (g(keys::PFS_BYTES_AVOIDED) + g(keys::PUSHDOWN_BYTES_AVOIDED)) / MIB,
    );
    m.set(
        "scidp.prune_ratio",
        ratio(skipped, skipped + hits + misses + chits),
    );
    m.set("scidp.stream_fallbacks", g(keys::STREAM_FALLBACKS));
    m.set("scidp.corruption_repaired", g(keys::CORRUPTION_REPAIRED));
    m.set("scifmt.chunk_cache_hit_ratio", ratio(hits, hits + misses));
    m.set(
        "simnet.cluster_cache_hit_ratio",
        ratio(chits, chits + cmisses),
    );
    m.set(
        "simnet.cluster_cache_evictions",
        g(keys::CLUSTER_CACHE_EVICTIONS),
    );
    m.set(
        "mapreduce.attempt_efficiency",
        ratio(
            g(keys::MAP_TASKS) + g(keys::REDUCE_TASKS),
            g(keys::MAP_ATTEMPTS) + g(keys::REDUCE_ATTEMPTS),
        ),
    );
    m.set("mapreduce.task_retries", g(keys::TASK_RETRIES));
    m.set("mapreduce.speculative_won", g(keys::SPECULATIVE_WON));
    m.set(
        "mapreduce.cache_locality_maps",
        g(keys::CACHE_LOCALITY_MAPS),
    );
    m.set(
        "mapreduce.tasks_hang_detected",
        g(keys::TASKS_HANG_DETECTED),
    );
    m.set("mapreduce.nodes_suspected", g(keys::NODES_SUSPECTED));
    m.set("mapreduce.lineage_recomputes", g(keys::LINEAGE_RECOMPUTES));
    m.set("mapreduce.stages_run", g(keys::STAGES_RUN));
    m.set("mapreduce.pieces_prefetched", g(keys::PIECES_PREFETCHED));
    m.set("mapreduce.shuffle_mib", g(keys::SHUFFLE_BYTES) / MIB);
    m.set("hdfs.write_mib", g(keys::HDFS_WRITE_BYTES) / MIB);
    m.set("rframe.vectorised_rows", g(keys::VECTORISED_ROWS));
    m.set("mapreduce.overlap_saved_s", g(keys::OVERLAP_SAVED_S));
}

/// Task phase name → the per-layer metric it is attributed to.
const SIM_PHASES: [(&str, &str); 11] = [
    ("startup", "mapreduce.sim_startup_s"),
    ("read", "pfs.sim_read_stall_s"),
    ("decompress", "scifmt.sim_decompress_s"),
    ("cache_read", "simnet.sim_cache_read_s"),
    ("convert", "scidp.sim_convert_s"),
    ("plot", "rframe.sim_plot_s"),
    ("analysis", "rframe.sim_analysis_s"),
    ("spill", "mapreduce.sim_spill_s"),
    ("shuffle", "mapreduce.sim_shuffle_s"),
    ("sort", "mapreduce.sim_sort_s"),
    ("write", "hdfs.sim_write_s"),
];

/// Simulated-clock attribution in slot-seconds: total = slots × job
/// elapsed; rows are phase sums; the residual is idle slot time.
///
/// A classic job reports phases per committed task. A `DagResult` reports
/// none, so for DAG workloads the rows come from what the traced pass's
/// decorators saw (fetch spans, fetch charges, the restated closures'
/// charges); task start-up, shuffle, sort and write stay in the residual.
pub fn sim_metrics(
    outcome: &PassOutcome,
    traced: &Recorder,
    slots: usize,
    m: &mut Values,
) -> LayerTable {
    let total = slots as f64 * outcome.sim_job_s;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let residual_name;
    m.set("scidp.sim_setup_s", outcome.sim_setup_s);
    if outcome.stage_runs.is_empty() {
        let mut sums = vec![0.0f64; SIM_PHASES.len()];
        let (mut other, mut busy, mut longest) = (0.0f64, 0.0f64, 0.0f64);
        let mut last_map_end = outcome.sim_start_s;
        for t in &outcome.tasks {
            busy += t.duration();
            longest = longest.max(t.duration());
            if t.kind == TaskKind::Map {
                last_map_end = last_map_end.max(t.end_s);
            }
            for &(phase, secs) in &t.phases {
                match SIM_PHASES.iter().position(|(p, _)| *p == phase) {
                    Some(i) => sums[i] += secs,
                    None => other += secs,
                }
            }
        }
        for ((_, metric), secs) in SIM_PHASES.iter().zip(&sums) {
            m.set(metric, *secs);
            rows.push((metric.to_string(), *secs));
        }
        // Task time the phases do not explain (negative when streamed
        // reads overlap the compute they are charged beside).
        let attributed: f64 = sums.iter().sum::<f64>() + other;
        rows.push(("mapreduce (other task phases)".into(), other));
        rows.push((
            "mapreduce (task time outside phases)".into(),
            busy - attributed,
        ));
        m.set("mapreduce.sim_slot_idle_s", total - busy);
        m.set("mapreduce.sim_longest_task_s", longest);
        m.set(
            "mapreduce.sim_map_wave_s",
            last_map_end - outcome.sim_start_s,
        );
        m.set(
            "mapreduce.sim_reduce_wave_s",
            outcome.sim_start_s + outcome.sim_job_s - last_map_end,
        );
        residual_name = "mapreduce.sim_slot_idle_s";
    } else {
        let seen = [
            ("pfs.sim_read_stall_s", traced.sim_total("fetch")),
            ("scifmt.sim_decompress_s", charge(traced, "decompress")),
            ("simnet.sim_cache_read_s", charge(traced, "cache_read")),
            ("scidp.sim_convert_s", charge(traced, "convert")),
            ("rframe.sim_analysis_s", charge(traced, "analysis")),
        ];
        let mut attributed = 0.0;
        for (metric, secs) in seen {
            m.set(metric, secs);
            rows.push((metric.to_string(), secs));
            attributed += secs;
        }
        let source: f64 = outcome
            .stage_runs
            .iter()
            .filter(|r| r.op == "source")
            .map(|r| r.end_s - r.start_s)
            .sum();
        m.set("mapreduce.sim_slot_idle_s", total - attributed);
        m.set("mapreduce.sim_map_wave_s", source);
        m.set("mapreduce.sim_reduce_wave_s", outcome.sim_job_s - source);
        residual_name = "mapreduce.sim_slot_idle_s (+ start-up, shuffle, sort, write: not exposed by DagResult)";
    }
    LayerTable {
        title: format!(
            "simulated clock, slot-seconds: {slots} slots x {:.4} s job (after {:.4} s mapping set-up)",
            outcome.sim_job_s, outcome.sim_setup_s
        ),
        unit: "slot-s",
        total,
        rows,
        residual_name: residual_name.into(),
    }
}

fn charge(rec: &Recorder, phase: &str) -> f64 {
    rec.sim_charges.get(phase).copied().unwrap_or(0.0)
}

/// Host-clock attribution of the traced pass: total = set-up + run; rows
/// are in-run spans (map and reduce closures, split by the replayed
/// kernels that run inside them) and the replayed fetch kernels; the
/// residual is simulator + driver + file-system bookkeeping.
pub fn host_metrics(kind: Kind, traced: &Recorder, events: u64, m: &mut Values) -> LayerTable {
    let setup = traced.host_total("setup");
    let run = traced.host_total("run");
    let map = traced.host_total("map_fn");
    let reduce = traced.host_total("reduce_fn");
    // Which replayed kernels run inside the map closure, and which inside
    // the fetch callbacks (where no span can reach).
    let (in_map, in_fetch): (&[&str], &[&str]) = match kind {
        Kind::NuwrfImg | Kind::NuwrfImgChaos | Kind::SmallTasks => (
            &[
                "scidp.slab_to_frame_host_s",
                "rframe.image2d_host_s",
                "rframe.png_host_s",
            ],
            &[
                "scirng.crc32c_host_s",
                "scifmt.decompress_host_s",
                "scifmt.assemble_host_s",
            ],
        ),
        Kind::SqlPushdown => (
            &["rframe.sqldf_host_s"],
            &[
                "scirng.crc32c_host_s",
                "scifmt.decompress_host_s",
                "scidp.slab_to_frame_host_s",
                "rframe.eval_mask_host_s",
            ],
        ),
        Kind::ScanStats | Kind::ScanStatsWarm => (
            &[],
            &[
                "scirng.crc32c_host_s",
                "scifmt.decompress_host_s",
                "scifmt.assemble_host_s",
            ],
        ),
    };
    // The replay's kernel times are already in `m`.
    let sum = |names: &[&str]| names.iter().map(|n| m.get(n)).sum::<f64>();
    let (map_kernels, fetch_kernels) = (sum(in_map), sum(in_fetch));
    let mut rows = vec![("scidp.setup_host_s".to_string(), setup)];
    for name in in_map {
        rows.push((format!("{name} (replayed, in map_fn)"), m.get(name)));
    }
    rows.push((
        "scidp.map_fn_host_s (rest of the closures)".into(),
        map - map_kernels,
    ));
    rows.push(("scidp.reduce_fn_host_s".into(), reduce));
    for name in in_fetch {
        rows.push((format!("{name} (replayed, in fetch)"), m.get(name)));
    }
    m.set("scidp.setup_host_s", setup);
    m.set("mapreduce.run_host_s", run);
    m.set("scidp.map_fn_host_s", map);
    m.set("scidp.reduce_fn_host_s", reduce);
    m.set(
        "mapreduce.residual_host_s",
        run - map - reduce - fetch_kernels,
    );
    m.set("simnet.events", events as f64);
    m.set("simnet.events_per_host_s", ratio(events as f64, run));
    LayerTable {
        title: "host clock, traced pass: set-up + run".into(),
        unit: "s",
        total: setup + run,
        rows,
        residual_name: "mapreduce.residual_host_s (simnet + driver + pfs/hdfs)".into(),
    }
}
