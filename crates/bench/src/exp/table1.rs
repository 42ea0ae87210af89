//! Table I: data path of existing solutions and SciDP — the declared data
//! path of each runnable implementation in `baselines`
//! (`tests/baseline_equivalence.rs` checks the declarations against the
//! measured behaviour).

use baselines::data_path_table;
use scidp_bench::Clock::Count;
use scidp_bench::{Rel, Report, Scale};

pub fn run(_: &Scale) -> Report {
    let mut rep = Report::new("table1");
    let line = |r: &baselines::DataPathRow| {
        let flags = [
            r.conversion,
            r.copy != "No",
            r.copy == "Parallel",
            r.processing == "Parallel",
        ];
        (
            r.solution.name().to_string(),
            flags.map(|b| f64::from(u8::from(b))).to_vec(),
        )
    };
    let lines: Vec<(String, Vec<f64>)> = data_path_table().iter().map(line).collect();
    let cols = [
        ("conversion", "Conversion", "flag", Count),
        ("copy", "Data Copy", "flag", Count),
        ("parallel_copy", "Parallel Copy", "flag", Count),
        ("parallel_processing", "Parallel Processing", "flag", Count),
    ];
    rep.table(
        "Table I: Data Path of Existing Solutions and SciDP",
        "Solution",
        &cols,
        &lines,
    );
    rep.expect(
        "scidp.conversion",
        Rel::Eq,
        0.0,
        "Table I: SciDP does not convert",
    );
    rep.expect("scidp.copy", Rel::Eq, 0.0, "Table I: SciDP does not copy");
    rep
}
