//! Ablation: chunk-aligned dummy blocks vs misaligned fixed-size blocks
//! (§III-B: "Unaligned data access will have a much higher overhead, due
//! to reading extra compressed chunks").

use baselines::run_scidp_solution;
use mapreduce::TaskKind;
use scidp::WorkflowConfig;
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Gt};
use scidp_bench::{DatasetPool, Report, Scale};

pub fn run(scale: &Scale) -> Report {
    let n = scale.timestamps(4, 48);
    let pool = DatasetPool::generate(scale.spec(n), "nuwrf");
    // Misaligned blocks span 12 levels against the chunk's level count, so
    // every task reads (and decodes) up to two extra chunks (§III-B).
    let bytes_per_level = pool.dataset.spec.lat * pool.dataset.spec.lon * 4;
    let line = |(label, aligned): (&str, bool)| {
        let cfg = WorkflowConfig {
            align_to_chunks: aligned,
            flat_block_size: 12 * bytes_per_level,
            output_dir: format!("out_{aligned}"),
            ..WorkflowConfig::img_only(["QR"])
        };
        let mut c = pool.fresh_cluster(8);
        let run = run_scidp_solution(&mut c, &pool.dataset, &cfg);
        // The map wave — submit to the last map's commit — is where the
        // alignment acts; the reduce tail behind it is the same work either
        // way.
        let map_wave = run.job.as_ref().map_or(f64::NAN, |j| {
            let maps = j.tasks.iter().filter(|t| t.kind == TaskKind::Map);
            maps.map(|t| t.end_s).fold(j.start_s, f64::max) - j.start_s
        });
        // Bytes actually admitted into the network give the read
        // amplification (input_bytes counts mapped lengths only).
        let gb = c.sim.net.bytes_admitted / 1e9;
        (label.to_string(), vec![run.total(), map_wave, gb])
    };
    let mappings = [
        ("chunk-aligned (SciDP)", true),
        ("fixed-size, misaligned", false),
    ];
    let lines: Vec<(String, Vec<f64>)> = mappings.into_iter().map(line).collect();
    let mut rep = Report::new("ablation_blocks");
    let cols = [
        ("time_s", "time", "s", Sim),
        ("map_wave_s", "map wave", "s", Sim),
        ("pfs_read_gb", "PFS bytes read, logical", "GB", Count),
    ];
    let title = format!("Ablation: dummy-block alignment ({n} timestamps)");
    rep.table(&title, "mapping", &cols, &lines);
    rep.note("(misaligned blocks decompress chunks more than once; aligned is the default)");

    let aligned = &lines[0].1;
    let (aligned_s, aligned_wave_s, aligned_gb) = (aligned[0], aligned[1], aligned[2]);
    let (time, wave, bytes) = (
        "fixed_size_misaligned.time_s",
        "fixed_size_misaligned.map_wave_s",
        "fixed_size_misaligned.pfs_read_gb",
    );
    rep.expect(
        bytes,
        Ge,
        aligned_gb,
        "§III-B misaligned blocks never read fewer bytes",
    );
    rep.expect(time, Gt, aligned_s, "§III-B unaligned access costs more");
    rep.expect(
        wave,
        Gt,
        aligned_wave_s,
        "... in the map wave, where the alignment acts",
    );
    if !scale.quick {
        rep.expect(
            bytes,
            Gt,
            aligned_gb,
            "§III-B misaligned blocks read extra compressed chunks",
        );
    }
    rep
}
