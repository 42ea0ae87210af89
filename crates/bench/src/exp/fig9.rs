//! Figure 9: integrated data analysis performance (Anlys workload).
//!
//! Cases: `no analysis` (Img-only), `highlight` (top-10 points, SQL in the
//! map task), `top 1%` (threshold selection stored on HDFS).
//!
//! Paper shape: highlight ≈ no-analysis (no extra data read, tiny extra
//! output); top 1% visibly slower because the query result (~596 MB per
//! variable at 384 files) is shuffled and written to HDFS, growing with
//! input size.

use baselines::run_scidp_solution;
use mapreduce::counter_keys;
use scidp::{Analysis, WorkflowConfig};
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Gt, Le};
use scidp_bench::{eval_spec, quick_spec, DatasetPool, Report, Scale};

pub fn run(scale: &Scale) -> Report {
    // The shape needs the evaluation grid's 50 levels per variable (the
    // quick grid's 10-level variables make top-1% results too small to
    // matter): under `--quick` it is asserted on the evaluation grid at 8
    // and 16 timestamps, the smallest sizes where it holds.
    let eval = |n: usize| (n.to_string(), eval_spec(n));
    let sizes = scale.pick(
        vec![
            ("4".to_string(), quick_spec(4)),
            ("8".to_string(), quick_spec(8)),
            ("eval grid 8".to_string(), eval_spec(8)),
            ("eval grid 16".to_string(), eval_spec(16)),
        ],
        [96, 192, 384].map(eval).to_vec(),
    );
    let mut rep = Report::new("fig9");
    let mut lines = Vec::new();
    for (label, spec) in sizes {
        let (n, logical) = (spec.timestamps, spec.scale_factor());
        let pool = DatasetPool::generate(spec, "nuwrf");
        let run = |analysis: Analysis| {
            let cfg = WorkflowConfig {
                output_dir: format!("out_{n}_{analysis:?}").replace([' ', '{', '}', ':'], "_"),
                ..WorkflowConfig::anlys(["QR"], analysis)
            };
            let r = run_scidp_solution(&mut pool.fresh_cluster(8), &pool.dataset, &cfg);
            let written = |j: &mapreduce::JobResult| j.counters.get(counter_keys::HDFS_WRITE_BYTES);
            (
                r.total(),
                r.job.as_ref().map_or(0.0, written) * logical / 1e9,
            )
        };
        let (none, none_gb) = run(Analysis::None);
        let (highlight, _) = run(Analysis::Highlight { k: 10 });
        let (top, top_gb) = run(Analysis::TopPercent { pct: 1.0 });
        // Query results only: subtract the images every case writes.
        lines.push((label, vec![none, highlight, top, top_gb - none_gb]));
    }
    let cols = [
        ("none_s", "no analysis", "s", Sim),
        ("highlight_s", "highlight", "s", Sim),
        ("top1pct_s", "top 1%", "s", Sim),
        (
            "top1pct_extra_write_gb",
            "extra HDFS writes, top-1%",
            "GB",
            Count,
        ),
    ];
    rep.table(
        "Figure 9: SciDP data analysis performance",
        "timestamps",
        &cols,
        &lines,
    );
    rep.note("(paper shape: highlight ≈ no-analysis; top-1% slower, gap grows with input;");
    rep.note(" ~596 MB of query results per variable stored on HDFS at 384 timestamps)");

    let asserted: &[&str] = scale.pick(&["eval_grid_8", "eval_grid_16"], &["96", "192", "384"]);
    let at = |size: &str, case: &str| format!("{size}.{case}_s");
    let d7 = "highlight costs ~10 % over no-analysis, not a few %: its in-map ORDER BY … LIMIT is charged sql_per_row over every logical row";
    // D7 shows on the quick grid only. At full sizes the one reducer the
    // highlighted rows hash to merges its extra bytes during the map wave,
    // and what is left, the in-map SQL, costs about 1 %.
    let (slack, close) = scale.pick(
        (1.2, "§5.6 highlight ≈ no-analysis (within 20 %)"),
        (1.05, "§5.6 highlight ≈ no-analysis (within 5 %)"),
    );
    for size in asserted {
        let (none, highlight) = (rep.v(&at(size, "none")), rep.v(&at(size, "highlight")));
        rep.expect(&at(size, "highlight"), Le, slack * none, close);
        if scale.quick {
            rep.deviation("D7", &at(size, "highlight"), Gt, 1.05 * none, d7);
        }
        rep.expect(
            &at(size, "top1pct"),
            Ge,
            1.2 * highlight,
            "§5.6 top-1 % visibly slower (>= 1.2x highlight)",
        );
    }
    for pair in asserted.windows(2) {
        let small_gap = rep.v(&at(pair[0], "top1pct")) - rep.v(&at(pair[0], "none"));
        let bound = rep.v(&at(pair[1], "none")) + small_gap;
        rep.expect(
            &at(pair[1], "top1pct"),
            Gt,
            bound,
            "§5.6 the top-1 % gap grows with input size",
        );
    }
    rep
}
