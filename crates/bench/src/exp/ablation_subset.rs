//! Ablation: variable-level subsetting (§IV-B) — SciDP reads only the
//! selected variables; copy-based pipelines must move whole files.

use baselines::run_scidp_solution;
use mapreduce::counter_keys;
use scidp::WorkflowConfig;
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::{DatasetPool, Rel, Report, Scale};
use wrfgen::VAR_NAMES;

pub fn run(scale: &Scale) -> Report {
    let n = scale.timestamps(4, 48);
    let spec = scale.spec(n);
    let n_vars = spec.n_vars;
    let pool = DatasetPool::generate(spec, "nuwrf");
    let logical = pool.dataset.info.scale;
    let line = |(label, k): (&str, usize)| {
        let vars: Vec<String> = match k {
            1 => vec!["QR".into()],
            _ => VAR_NAMES[..k].iter().map(|s| s.to_string()).collect(),
        };
        let cfg = WorkflowConfig {
            output_dir: format!("out_{k}"),
            ..WorkflowConfig::img_only(vars)
        };
        let r = run_scidp_solution(&mut pool.fresh_cluster(8), &pool.dataset, &cfg);
        let input = |j: &mapreduce::JobResult| j.counters.get(counter_keys::INPUT_BYTES);
        let input_gb = r.job.as_ref().map_or(0.0, input) * logical / 1e9;
        (label.to_string(), vec![r.total(), input_gb])
    };
    let selections = [
        ("QR only", 1),
        ("3 variables", 3),
        ("all variables", n_vars),
    ];
    let lines: Vec<(String, Vec<f64>)> = selections.into_iter().map(line).collect();
    let mut rep = Report::new("ablation_subset");
    let cols = [
        ("time_s", "time", "s", Sim),
        ("input_gb", "input, logical", "GB", Count),
    ];
    let title =
        format!("Ablation: variable subsetting ({n} timestamps, {n_vars} variables in files)");
    rep.table(&title, "selection", &cols, &lines);
    rep.note("(the copy-based baselines always move all variables: the whole-file");
    rep.note(" redundant I/O the paper charges to SciHadoop)");
    for col in ["time_s", "input_gb"] {
        let (one, three) = (format!("qr_only.{col}"), format!("3_variables.{col}"));
        let why = "§IV-B cost follows the selected variables, not the file";
        rep.expect(&one, Rel::Lt, rep.v(&three), why);
        rep.expect(&three, Rel::Lt, rep.v(&format!("all_variables.{col}")), why);
    }
    rep
}
