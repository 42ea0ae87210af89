//! Ablation: chunk-aligned dummy blocks vs misaligned fixed-size blocks
//! (§III-B: "Unaligned data access will have a much higher overhead, due
//! to reading extra compressed chunks").

use baselines::run_scidp_solution;
use scidp::WorkflowConfig;
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Gt, Lt};
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
        let t = run_scidp_solution(&mut c, &pool.dataset, &cfg).total();
        // Bytes actually admitted into the network give the read
        // amplification (input_bytes counts mapped lengths only).
        (label.to_string(), vec![t, c.sim.net.bytes_admitted / 1e9])
    };
    let mappings = [
        ("chunk-aligned (SciDP)", true),
        ("fixed-size, misaligned", false),
    ];
    let lines: Vec<(String, Vec<f64>)> = mappings.into_iter().map(line).collect();
    let mut rep = Report::new("ablation_blocks");
    let cols = [
        ("time_s", "time", "s", Sim),
        ("pfs_read_gb", "PFS bytes read, logical", "GB", Count),
    ];
    let title = format!("Ablation: dummy-block alignment ({n} timestamps)");
    rep.table(&title, "mapping", &cols, &lines);
    rep.note("(misaligned blocks decompress chunks more than once; aligned is the default)");

    let (aligned_s, aligned_gb) = (lines[0].1[0], lines[0].1[1]);
    let (time, bytes) = (
        "fixed_size_misaligned.time_s",
        "fixed_size_misaligned.pfs_read_gb",
    );
    rep.expect(
        bytes,
        Ge,
        aligned_gb,
        "§III-B misaligned blocks never read fewer bytes",
    );
    if scale.quick {
        rep.expect(
            time,
            Gt,
            aligned_s,
            "§III-B unaligned access costs more (asserted at 4 timestamps)",
        );
    } else {
        let d6 = "at 48 timestamps misaligned blocks read ~5 % more bytes yet finish ~2 % sooner: plotting dominates and 12-level blocks pack the last task wave better than equal 10-level chunks";
        rep.expect(
            bytes,
            Gt,
            aligned_gb,
            "§III-B misaligned blocks read extra compressed chunks",
        );
        rep.deviation("D6", time, Lt, aligned_s, d6);
    }
    rep
}
