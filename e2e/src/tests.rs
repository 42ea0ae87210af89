//! Unit tests of the harness itself (`cargo test` in this package): the
//! registry obeys the benchmark contract and agrees with `BENCHMARK.json`,
//! the statistics and table arithmetic are right, and a smoke-sized run is
//! deterministic on the simulated clock.

use crate::report::{
    compare, iqr, judge, median, percentile_with_tail, quartiles, read_run_set, Clock, Json,
    LayerTable, MetricDef, Verdict, END_TO_END, PER_LAYER,
};
use crate::workloads::WORKLOADS;
use crate::{run_workload, Args};

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn registry_obeys_the_contract_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut names: Vec<&str> = Vec::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(d.name), "metric name {}", d.name);
        assert!(unit_ok(d.unit), "unit of {}: {:?}", d.name, d.unit);
        assert!(!d.clock.tag().is_empty() && !d.better.tag().is_empty());
        assert!(!d.what.is_empty(), "{} has no definition", d.name);
        names.push(d.name);
    }
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "workload name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(w.passes_per_10s >= 3 && w.setup_reps >= 3);
        names.push(w.name);
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
    for d in &END_TO_END {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
    }
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    // setup_s exists, in seconds, lower is better, with the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.tag()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    // Every per-layer metric names its layer (crate) as a prefix.
    let layers = [
        "scidp",
        "mapreduce",
        "pfs",
        "hdfs",
        "scifmt",
        "simnet",
        "rframe",
        "scirng",
        "wrfgen",
        "bench",
    ];
    for d in &PER_LAYER {
        let prefix = d.name.split('.').next().unwrap_or_default();
        assert!(layers.contains(&prefix), "{} names no layer", d.name);
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 << 10);
    let doc = Json::parse(text).expect("BENCHMARK.json parses");
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("{key} is not a list: {other:?}"),
        }
    };
    let text_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    // 4 + 22 runs per workload, with builds, must fit 3420 s: keep a run
    // (set-up + warm-ups + timed passes + traced pass) well under 24 s.
    assert!(secs <= 12.0);
    let paths = list("paths");
    assert_eq!(paths, [Json::Str("e2e".into())]);
    for part in list("command") {
        let part = part
            .as_str()
            .expect("command parts are strings")
            .to_string();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let workloads = list("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text_of(j, "name").as_deref(), Some(w.name));
        assert_eq!(text_of(j, "why").as_deref(), Some(w.why));
    }
    let check = |key: &str, defs: &[MetricDef]| {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(text_of(j, "name").as_deref(), Some(d.name));
            assert_eq!(text_of(j, "unit").as_deref(), Some(d.unit), "{}", d.name);
            assert_eq!(
                text_of(j, "better").as_deref(),
                Some(d.better.tag()),
                "{}",
                d.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    };
    check("end_to_end", &END_TO_END);
    check("per_layer", &PER_LAYER);
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([10, 1, 7], n=4) == [1.0, 7.0, 10.0]
    assert_eq!(quartiles(&[10.0, 1.0, 7.0]), Some([1.0, 7.0, 10.0]));
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(iqr(&ten), 5.5);
    assert_eq!(median(&ten), 5.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn high_percentile_needs_ten_samples_beyond_it() {
    let n = |k: usize| -> Vec<f64> { (1..=k).map(|i| i as f64).collect() };
    // p75 of 40 values is the 30th; exactly ten lie beyond it.
    assert_eq!(percentile_with_tail(&n(40), 75.0), Some(30.0));
    assert_eq!(percentile_with_tail(&n(39), 75.0), None, "only nine beyond");
    assert_eq!(percentile_with_tail(&n(41), 75.0), Some(31.0));
    assert_eq!(percentile_with_tail(&n(13), 75.0), None);
    assert_eq!(percentile_with_tail(&[], 75.0), None);
}

#[test]
fn layer_rows_plus_residual_equal_the_total() {
    let t = LayerTable {
        title: "t".into(),
        unit: "s",
        total: 10.0,
        rows: vec![("a".into(), 2.5), ("b".into(), 4.0), ("c".into(), 0.0)],
        residual_name: "rest".into(),
    };
    assert_eq!(t.residual(), 3.5);
    let sum: f64 = t.rows.iter().map(|(_, v)| v).sum::<f64>() + t.residual();
    assert_eq!(sum, t.total);
    let text = t.render();
    assert!(
        text.contains("rest") && text.contains("(residual)"),
        "residual is printed"
    );
    assert!(!text.contains("  c "), "zero rows are left out");
    // An over-explained total shows as a negative residual, not as zero.
    let over = LayerTable { total: 5.0, ..t };
    assert_eq!(over.residual(), -1.5);
}

#[test]
fn json_round_trips() {
    let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\n\"y\"é"}, "d": []}"#;
    let v = Json::parse(text).expect("parses");
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\n\"y\"é")
    );
    assert_eq!(Json::parse(&v.render()).expect("re-parses"), v);
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1 2]").is_err());
    assert!(Json::parse("{} x").is_err());
}

#[test]
fn compare_judges_each_row_on_its_own_bound() {
    let host = END_TO_END
        .iter()
        .find(|d| d.name == "host_pass_s")
        .expect("host_pass_s");
    let bound = host.bound.expect("bounded");
    let scaled =
        |by: f64| -> Vec<f64> { [1.00, 1.01, 0.99, 1.00].iter().map(|v| v * by).collect() };
    let base = scaled(1.0);
    // Tight sets, a fifth of the bound worse: ok. Twice the bound: regressed.
    assert_eq!(
        judge(host, &base, &scaled(1.0 + bound / 5.0)).0,
        Verdict::Ok
    );
    assert_eq!(
        judge(host, &base, &scaled(1.0 + 2.0 * bound)).0,
        Verdict::Regressed
    );
    // Spread wider than the bound: unresolved, whichever way the medians lean...
    let noisy = [0.6, 1.0, 1.6, 1.1];
    assert_eq!(
        judge(host, &noisy, &[0.7, 1.5, 1.0, 1.7]).0,
        Verdict::Unresolved
    );
    // ...unless every run of the change beats every run of the base.
    assert_eq!(judge(host, &noisy, &[0.3, 0.4, 0.5, 0.35]).0, Verdict::Ok);

    let record = |workload: &str, host: f64, failed: u32| {
        format!(
            "{{\"workload\": \"{workload}\", \"failed\": {failed}, \"end_to_end\": {{\
             \"sim_makespan_s\": {{\"value\": 21.8, \"unit\": \"s\"}}, \
             \"host_pass_s\": {{\"value\": {host}, \"unit\": \"s\"}}}}}}\n"
        )
    };
    let a = read_run_set(&(record("w1", 1.0, 0) + &record("w2", 2.0, 0))).expect("set a");
    let same = read_run_set(&(record("w1", 1.02, 0) + &record("w2", 2.0, 0))).expect("set b");
    let (table, regressed) = compare(&a, &same);
    assert!(!regressed, "{table}");
    assert_eq!(
        table.matches(" ok").count(),
        6,
        "one row per metric, workload and fail count"
    );
    let slow = read_run_set(&(record("w1", 1.0, 0) + &record("w2", 2.0 * (1.0 + 2.0 * bound), 0)))
        .expect("set c");
    let (table, regressed) = compare(&a, &slow);
    assert!(regressed && table.contains("regressed"), "{table}");
    let failing = read_run_set(&(record("w1", 1.0, 1) + &record("w2", 2.0, 0))).expect("set d");
    assert!(
        compare(&a, &failing).1,
        "any rise in failed passes regresses"
    );
    let missing = read_run_set(&record("w1", 1.0, 0)).expect("set e");
    assert!(
        compare(&a, &missing).1,
        "a workload that vanished regresses"
    );
}

/// A smoke-sized traced run, executed twice, must agree exactly on every
/// simulated second and every count: the simulator is deterministic, so a
/// simulated number compares two commits exactly.
#[test]
fn quick_runs_repeat_simulated_values_and_counts_exactly() {
    let args = Args {
        seed: 7,
        seconds: 1,
        trace: true,
        quick: true,
        ..Args::default()
    };
    for w in &WORKLOADS {
        let (a, b) = (run_workload(w, &args), run_workload(w, &args));
        for r in [&a, &b] {
            assert_eq!(r.tally.failed, 0, "{}: {:?}", w.name, r.tally.errors);
            assert!(
                r.tally.attempted >= 4 && r.host_samples.len() == 2,
                "{}",
                w.name
            );
        }
        assert_eq!(
            a.e2e.get("sim_makespan_s"),
            b.e2e.get("sim_makespan_s"),
            "{}",
            w.name
        );
        assert!(a.e2e.get("sim_makespan_s") > 0.0 && a.e2e.get("host_pass_s") > 0.0);
        let (la, lb) = (a.layer.expect("traced"), b.layer.expect("traced"));
        for d in PER_LAYER.iter().filter(|d| d.clock != Clock::Host) {
            assert_eq!(la.get(d.name), lb.get(d.name), "{} {}", w.name, d.name);
        }
    }
}
