//! Figure 5 + Table III: total Img-only execution time of every solution at
//! 96/192/384/768 timestamps, and SciDP's speedup over each.
//!
//! Paper shape: naive ≫ vanilla > PortHadoop > SciHadoop ≫ SciDP, with
//! SciDP 6.58x over the best comparator and ~285x over naive at 384 files.
//! Conversion time is measured separately and excluded from totals, as in
//! the paper.

use baselines::{
    convert_dataset, run_naive, run_porthadoop, run_scidp_solution, run_scihadoop, run_vanilla,
    SolutionKind,
};
use scidp::WorkflowConfig;
use scidp_bench::Clock::Sim;
use scidp_bench::Rel::{Ge, Gt, Le, Lt};
use scidp_bench::{DatasetPool, Report, Scale};

pub fn run(scale: &Scale) -> Report {
    let sizes: &[usize] = scale.pick(&[8, 16], &[96, 192, 384, 768]);
    let cfg = WorkflowConfig::img_only(["QR"]);
    let mut rep = Report::new("fig5");
    let (mut totals, mut speedups) = (Vec::new(), Vec::new());
    let mut conversion_s = 0.0;
    for &n in sizes {
        let mut pool = DatasetPool::generate(scale.spec(n), "nuwrf");
        // Convert once (text shared across the three text-path solutions).
        let mut c = pool.fresh_cluster(8);
        let conv = convert_dataset(&mut c, &pool.dataset, &cfg.variables);
        pool.absorb_pfs(&c);
        conversion_s = conv.conversion_time;
        let total = |kind: SolutionKind| {
            let (mut c, ds) = (pool.fresh_cluster(8), &pool.dataset);
            match kind {
                SolutionKind::Naive => run_naive(&mut c, &conv, &cfg),
                SolutionKind::VanillaHadoop => run_vanilla(&mut c, &conv, &cfg),
                SolutionKind::PortHadoop => run_porthadoop(&mut c, &conv, &cfg),
                SolutionKind::SciHadoop => run_scihadoop(&mut c, ds, &cfg),
                SolutionKind::SciDp => run_scidp_solution(&mut c, ds, &cfg),
            }
            .total()
        };
        let t: Vec<f64> = SolutionKind::ALL.into_iter().map(total).collect();
        speedups.push((n.to_string(), t[..4].iter().map(|x| x / t[4]).collect()));
        totals.push((n.to_string(), t));
    }
    let cols = [
        ("naive_s", "Naive", "s", Sim),
        ("vanilla_s", "Vanilla", "s", Sim),
        ("porthadoop_s", "PortHadoop", "s", Sim),
        ("scihadoop_s", "SciHadoop", "s", Sim),
        ("scidp_s", "SciDP", "s", Sim),
    ];
    let title = "Figure 5: total execution time, Img-only workload (8 Hadoop nodes; conversion excluded, as in the paper)";
    rep.table(title, "timestamps", &cols, &totals);
    let cols = [
        ("vs_naive_x", "vs Naive", "x", Sim),
        ("vs_vanilla_x", "vs Vanilla", "x", Sim),
        ("vs_porthadoop_x", "vs PortHadoop", "x", Sim),
        ("vs_scihadoop_x", "vs SciHadoop", "x", Sim),
    ];
    let title = "Table III: speedup of SciDP over existing solutions";
    rep.table(title, "timestamps", &cols, &speedups);
    rep.row("conversion_at_largest_size_s", conversion_s, "s", Sim);
    rep.note("(offline conversion for the text-path solutions — excluded, as in the paper)");
    rep.note("(paper anchors at 384 files: 6.58x over the best comparator, 284.63x over naive)");

    let (first, last) = (sizes[0], sizes[sizes.len() - 1]);
    let at = |sol: &str| format!("{last}.{sol}");
    let v = |sol: &str| rep.v(&at(sol));
    let order = "§5.2 naive > vanilla > {PortHadoop, SciHadoop} > SciDP at the largest size";
    let grows = "§5.2 the naive gap grows with input size, as in the paper";
    let d2 = "naive/SciDP stays under the paper's 284x: our naive runner rides the same fast substrate primitives";
    #[rustfmt::skip] // one target per line reads as the table it is
    let targets = [
        (at("naive_s"), Gt, v("vanilla_s"), order),
        (at("vanilla_s"), Gt, v("porthadoop_s"), order),
        (at("vanilla_s"), Gt, v("scihadoop_s"), order),
        (at("porthadoop_s"), Gt, v("scidp_s"), order),
        (at("scihadoop_s"), Gt, v("scidp_s"), order),
        (at("vs_naive_x"), Gt, rep.v(&format!("{first}.vs_naive_x")), grows),
    ];
    for (name, rel, bound, why) in &targets {
        rep.expect(name, *rel, *bound, why);
    }
    if scale.quick {
        rep.deviation("D2", &at("vs_naive_x"), Lt, 284.0, d2);
    } else {
        let d5 = "PortHadoop and SciHadoop swap places at full sizes: whole-file copy cost overtakes text-parse cost";
        rep.deviation("D5", &at("scihadoop_s"), Gt, rep.v(&at("porthadoop_s")), d5);
        rep.expect(
            &at("vs_scihadoop_x"),
            Ge,
            4.0,
            "§5.2 SciDP several-fold over the copy pipeline",
        );
        // D2 shows on the quick grid only: at full sizes the factor is the
        // paper's.
        let paper = "§5.2 SciDP 284.63x over naive at 384 timestamps (within 10 %)";
        rep.expect("384.vs_naive_x", Ge, 0.9 * 284.63, paper);
        rep.expect("384.vs_naive_x", Le, 1.1 * 284.63, paper);
    }
    rep
}
