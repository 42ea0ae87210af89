//! Figure 2: Lustre (HDFS connector) vs native HDFS on Terasort, Grep and
//! TestDFSIO.
//!
//! Paper result: native HDFS outperforms the connector by ~221 % on
//! average; our target is the same shape (HDFS faster on every workload,
//! average slowdown in the 1.5-4x band).

use baselines::workloads::{run_fig2_workload, Backend, Fig2Config, Fig2Workload};
use scidp_bench::Clock::Sim;
use scidp_bench::Rel::{Ge, Gt, Le};
use scidp_bench::{Report, Scale};

pub fn run(_: &Scale) -> Report {
    let cfg = Fig2Config::default();
    let mut rep = Report::new("fig2");
    rep.note(format!(
        "Figure 2: Lustre connector vs native HDFS ({} nodes, {} OSTs, repl=1), {:.1} GB/node logical",
        cfg.nodes,
        cfg.nodes,
        cfg.bytes_per_node as f64 * cfg.scale / 1e9
    ));
    let line = |w: Fig2Workload| {
        let hdfs = run_fig2_workload(w, Backend::Hdfs, &cfg);
        let conn = run_fig2_workload(w, Backend::Connector, &cfg);
        (w.name().to_string(), vec![hdfs, conn, conn / hdfs])
    };
    let lines: Vec<(String, Vec<f64>)> = Fig2Workload::ALL.into_iter().map(line).collect();
    let cols = [
        ("hdfs_s", "HDFS", "s", Sim),
        ("connector_s", "Lustre connector", "s", Sim),
        ("advantage_x", "HDFS advantage", "x", Sim),
    ];
    rep.table("", "workload", &cols, &lines);
    let avg = lines.iter().map(|(_, v)| v[2]).sum::<f64>() / lines.len() as f64;
    rep.row("average_advantage_x", avg, "x", Sim);
    rep.note("(paper: ~2.2x / \"221% on average\")");
    for workload in ["terasort", "grep", "testdfsio_write", "testdfsio_read"] {
        let name = format!("{workload}.advantage_x");
        rep.expect(
            &name,
            Gt,
            1.0,
            "§5.1 native HDFS beats the connector on every workload",
        );
    }
    let band = "§5.1 average advantage in the 1.5-4x band";
    rep.expect_all(&[
        ("average_advantage_x", Ge, 1.5, band),
        ("average_advantage_x", Le, 4.0, band),
    ]);
    rep
}
