//! The one bench runner: `scidp-bench <experiment|group|all> [--quick]
//! [--timestamps N]`.
//!
//! Runs the selected experiments (`exp::REGISTRY`), prints each
//! [`Report`], compares its simulated and counted rows against the
//! committed `BENCH_<file>.json` section of the same scale and rewrites that
//! section — in the current directory, so run
//! it from the repository root and read `git diff`. Exits non-zero when an
//! `expect` fails, an expected deviation no longer shows, or a compared row
//! moved. A `--timestamps` override is exploratory: it is neither compared
//! nor recorded.

use std::path::PathBuf;
use std::process::ExitCode;

use scidp_bench::{record, Scale, DEFAULT_FAULT_SEED};
use simnet::FaultPlan;

mod exp;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale {
        quick: false,
        timestamps: None,
        fault_seed: FaultPlan::env_seed(DEFAULT_FAULT_SEED),
    };
    let mut what = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale.quick = true,
            "--timestamps" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => scale.timestamps = Some(n),
                None => return usage("--timestamps takes a count"),
            },
            name if what.is_none() && !name.starts_with('-') => what = Some(name),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let selected = exp::select(what.unwrap_or_default());
    if selected.is_empty() {
        return usage("name an experiment or a group");
    }

    let mut failures = Vec::new();
    for e in selected {
        let report = (e.run)(&scale);
        print!("{}", report.render());
        failures.extend(report.failures());
        if scale.timestamps.is_some() {
            println!("(--timestamps override: not compared, not recorded)\n");
            continue;
        }
        let path = PathBuf::from(format!("BENCH_{}.json", e.file));
        match record(&path, &scale, &report) {
            Ok(moved) => {
                let section = scale.section();
                println!(
                    "{}: section {section:?} of {} rewritten, {} compared row(s) moved\n",
                    e.name,
                    path.display(),
                    moved.len()
                );
                failures.extend(
                    moved
                        .into_iter()
                        .map(|m| format!("{}: moved against {section:?}: {m}", e.name)),
                );
            }
            Err(err) => failures.push(format!("{}: {err}", e.name)),
        }
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("scidp-bench: {problem}");
    eprintln!("usage: scidp-bench <experiment|group|all> [--quick] [--timestamps N]");
    for group in exp::GROUPS {
        let names: Vec<&str> = exp::select(group).iter().map(|e| e.name).collect();
        eprintln!("  {group}: {}", names.join(" "));
    }
    ExitCode::from(2)
}
